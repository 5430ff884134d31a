from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import densified, pscale
from gradedalg.fields import PrimeField, Rationals
from gradedalg.koszul import KoszulComplex
from gradedalg.linalg import Matrix, RowSpace
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.presets import get_preset
from gradedalg.rings import GradedRing, PresentationError, polynomial_ring


def test_polynomial_ring_dimensions_are_binomials():
    for r in (1, 2, 3, 4):
        ring = GradedRing(PrimeField(2), [(f"x{i}", 1) for i in range(r)])
        for n in range(10):
            assert ring.dim(n) == comb(n + r - 1, r - 1)


def test_semidihedral_presentation_dims():
    ring = ring_with_relations(
        PrimeField(2), [("x", 1), ("y", 1), ("z", 3), ("t", 4)],
        ["x*y", "x^3", "x*z", "z^2+t*y^2"])
    assert ring.dim(2) == 2
    from gradedalg.parsing import parse_series
    expansion = parse_series("1/((1-t)^2*(1+t^2))").expand(0, 10)
    assert [ring.dim(n) for n in range(11)] == expansion


def test_depth_zero_rational_example_dims():
    ring = ring_with_relations(
        Rationals(), [("u", 2), ("v", 2), ("p", 5)],
        ["u^2", "u*v", "u*p", "p^2"])
    assert [ring.dim(n) for n in range(9)] == [1, 0, 2, 0, 1, 1, 1, 1, 1]


def test_non_homogeneous_relation_rejected():
    with pytest.raises(Exception):
        ring_with_relations(PrimeField(2), [("x", 1), ("y", 1)], ["x + y^2"])


def test_duplicate_generator_names_rejected():
    with pytest.raises(PresentationError):
        GradedRing(PrimeField(2), [("x", 1), ("x", 2)])


def test_nonpositive_codegree_rejected():
    with pytest.raises(PresentationError):
        GradedRing(PrimeField(2), [("x", 0)])


def test_odd_generators_square_to_zero_in_odd_characteristic():
    ring = GradedRing(PrimeField(5), [("x", 1)])
    x = ring.gen_poly(0)
    assert ring.pmul(x, x) == {}


def test_odd_generators_anticommute_in_odd_characteristic():
    ring = GradedRing(PrimeField(5), [("x", 1), ("y", 1)])
    x, y = ring.gen_poly(0), ring.gen_poly(1)
    xy = ring.pmul(x, y)
    yx = ring.pmul(y, x)
    assert ring.padd(xy, yx) == {}
    assert xy != {}


def test_characteristic_two_is_strictly_commutative():
    ring = GradedRing(PrimeField(2), [("x", 1)])
    x = ring.gen_poly(0)
    assert ring.pmul(x, x) != {}


def test_quotient_with_extra_relations_drops_dimension():
    ring = polynomial_ring(PrimeField(2), [("x", 1), ("y", 1)])
    small = ring.quotient_with([ring.gen_poly(0)])
    assert [small.dim(n) for n in range(4)] == [1, 1, 1, 1]


def test_hilbert_prefix_matches_dims():
    ring = ring_with_relations(PrimeField(2), [("x", 1), ("y", 1)], ["x*y"])
    assert ring.hilbert_prefix(6) == [ring.dim(n) for n in range(7)]


def test_sd16_hilbert_prefix_at_macaulay_scale():
    # codegree 44 has 1580 monomials: a Macaulay matrix the size the
    # benchmark reduces
    preset = get_preset("sd16")
    assert preset.build_ring().hilbert_prefix(44) == preset.series().expand(0, 44)


def _table_matrix(ring, i, a):
    """Multiplication by generator i, R_a -> R_(a + |x_i|), b * x_i for
    each basis monomial b, from the ring's generator products."""
    return Matrix.from_columns(ring.field, ring.generator_products(i, a),
                               ring.dim(a + ring.codegrees[i]))


def _ring(name):
    if name == "exterior":  # two odd generators over QQ, where signs count
        return ring_with_relations(Rationals(), [("e", 1), ("f", 3), ("y", 2)], [])
    return get_preset(name).build_ring()


@pytest.mark.parametrize("name", ["a4_ring", "sd16", "rational_x", "exterior"])
def test_generator_tables_match_products_column_by_column(name):
    ring = _ring(name)
    for i, d in enumerate(ring.codegrees):
        x = ring.gen_poly(i)
        for a in range(11):
            cols = ring.generator_products(i, a)
            assert ring.generator_products(i, a) is cols  # cached on the ring
            target = ring.component(a + d)
            assert cols == [target.reduce_poly(ring.mono_times_poly(b, x))
                            for b in ring.component(a).basis]
    cols, b = ring.generator_products(0, 11), ring.component(11).basis[-1]
    assert cols[-1] == ring.component(11 + ring.codegrees[0]).reduce_poly(
        ring.mono_times_poly(b, ring.gen_poly(0)))
    # other polynomials go through the batched kernel of their target
    square = ring.pmul(ring.gen_poly(0), ring.gen_poly(0))
    target, b = ring.component(2 + 2 * ring.codegrees[0]), ring.component(2).basis[-1]
    assert target.products([b], target.terms(square))[0] == target.reduce_poly(
        ring.mono_times_poly(b, square))


def test_generator_tables_multiply_with_the_monomial_on_the_left():
    ring = _ring("exterior")
    one, minus_one = ring.field.one(), ring.field.from_int(-1)
    ef = ring.component(4).basis.index((1, 1, 0))
    e, f = ring.component(1).basis.index((1, 0, 0)), ring.component(3).basis.index((0, 1, 0))
    assert ring.generator_products(1, 1)[e] == {ef: one}        # e * f
    assert ring.generator_products(0, 3)[f] == {ef: minus_one}  # f * e


@pytest.mark.parametrize("name", ["a4_ring", "sd16", "rational_x", "exterior"])
def test_generator_tables_commute_up_to_the_graded_sign(name):
    # (b x_i) x_j = +-(b x_j) x_i, the sign being -1 for two odd generators
    # off characteristic 2
    ring = _ring(name)
    for i, di in enumerate(ring.codegrees):
        for j, dj in enumerate(ring.codegrees):
            sign = -1 if ring.odd[i] and ring.odd[j] else 1
            for a in range(9):
                ij = _table_matrix(ring, j, a + di).mul(_table_matrix(ring, i, a))
                ji = _table_matrix(ring, i, a + dj).mul(_table_matrix(ring, j, a))
                assert ij.rows == [[x if sign == 1 else ring.field.neg(x) for x in r]
                                   for r in ji.rows]


def _monomials_by_recursion(ring, n):
    """The enumeration GradedRing.monomials replaced, kept as the reference
    for its order: one fresh recursion over the generators per codegree."""
    out = []

    def rec(i, remaining, expo):
        if i == ring.ngens:
            if remaining == 0:
                out.append(tuple(expo))
            return
        d = ring.codegrees[i]
        emax = remaining // d
        if ring.odd[i]:
            emax = min(emax, 1)
        for e in range(emax + 1):
            expo.append(e)
            rec(i + 1, remaining - e * d, expo)
            expo.pop()

    rec(0, n, [])
    return out


def _preset_rings():
    from gradedalg.presets import preset_names
    for name in preset_names():
        p = get_preset(name)
        if p.build_ring() is not None:
            yield name, p.build_ring()
        for payload in (p.norm, p.module):
            if payload is not None:
                yield name, p.build_module(payload).ring


def test_monomials_keep_the_order_of_the_recursion_on_every_preset_ring():
    seen = 0
    for name, ring in _preset_rings():
        # from the top down, so the first call builds every suffix list
        for n in range(24, -3, -1):
            assert ring.monomials(n) == _monomials_by_recursion(ring, n), (name, n)
        seen += 1
    assert seen >= 11


def _mono_mul_reference(ring, m1, m2):
    """The product GradedRing.mono_mul replaced, kept as the reference: a
    loop over generator pairs for the sign, then the exponents added by a
    generator expression."""
    sign = 1
    if ring.signed:
        swaps = 0
        for i in range(ring.ngens):
            if not ring.odd[i] or not m2[i]:
                continue
            for j in range(i + 1, ring.ngens):
                if ring.odd[j]:
                    swaps += m2[i] * m1[j]
        if swaps % 2:
            sign = -1
        for i in range(ring.ngens):
            if ring.odd[i] and m1[i] + m2[i] >= 2:
                return 0, None
    return sign, tuple(a + b for a, b in zip(m1, m2))


def _mono_times_poly_reference(ring, mono, p):
    F = ring.field
    out = {}
    for m, c in p.items():
        sign, prod = _mono_mul_reference(ring, mono, m)
        if prod is None:
            continue
        s = F.add(out.get(prod, F.zero()), c if sign == 1 else F.neg(c))
        if s == F.zero():
            out.pop(prod, None)
        else:
            out[prod] = s
    return out


@st.composite
def _monomial_products(draw):
    """A ring over GF(2), GF(3) or QQ with one to four generators, odd ones
    among them, two monomials and a polynomial.  Exponents reach 2, so odd
    generators die in products and some factors are already dead."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3), Rationals()]))
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    mono = st.tuples(*[st.integers(0, 2) for _ in degrees])
    p = {m: field.from_int(draw(st.integers(1, field.char - 1 if field.char else 5)))
         for m in draw(st.lists(mono, max_size=5))}
    return ring, draw(mono), draw(mono), p


@settings(max_examples=300, deadline=None)
@given(_monomial_products())
def test_monomial_products_match_the_reference(case):
    ring, m1, m2, p = case
    assert ring.mono_mul(m1, m2) == _mono_mul_reference(ring, m1, m2)
    assert ring.mono_mul(m2, m1) == _mono_mul_reference(ring, m2, m1)
    product = ring.mono_times_poly(m1, p)
    reference = _mono_times_poly_reference(ring, m1, p)
    assert product == reference and list(product) == list(reference)


@pytest.mark.parametrize("field, gens, sources", [
    # signed: x and y anticommute, so (x + y)^2 vanishes
    (PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], ["x*y + 2*z", "x + y", "z"]),
    # coded: no odd-signed generator
    (PrimeField(2), [("x", 1), ("y", 2)], ["x^2 + y", "x"]),
])
def test_powers_match_repeated_products(field, gens, sources):
    ring = ring_with_relations(field, gens, [])
    assert ring.signed != ring.coded
    for src in sources:
        p = parse_poly(src, ring)
        expected = ring.pconst(1)
        for n in range(7):
            assert ring.ppow(p, n) == expected, (src, n)
            expected = ring.pmul(expected, p)
        # a fresh dict even for n = 1, so a caller may change it
        power = ring.ppow(p, 1)
        power.clear()
        assert p == parse_poly(src, ring)


@pytest.mark.parametrize("n", [-1, -2, -7])
def test_negative_powers_are_refused(n):
    # n >> 1 stays -1 for a negative n, so the squaring loop never ended
    ring = ring_with_relations(PrimeField(2), [("x", 1)], [])
    with pytest.raises(ValueError):
        ring.ppow(ring.gen_poly(0), n)



# -- the coded route of unsigned rings against the tuple route -------------

def _reference_component(ring, n):
    """The tuple route coded components replaced: Macaulay rows from
    _mono_times_poly_reference, columns looked up by exponent tuple.
    Returns the basis and the reduction of a codegree-n polynomial."""
    monos = ring.monomials(n)
    index = {m: i for i, m in enumerate(monos)}
    span = RowSpace(ring.field, len(monos))
    for rel in ring.relations:
        d = ring.mono_codegree(next(iter(rel)))
        if d <= n:
            for m in ring.monomials(n - d):
                prod = _mono_times_poly_reference(ring, m, rel)
                span.insert({index[mono]: c for mono, c in prod.items()})

    def reduce(p):
        return span.quotient_coords({index[mono]: c for mono, c in p.items()})

    return [monos[c] for c in span.nonpivot_columns()], reduce


def _homogeneous(draw, ring, d, max_terms=4):
    """A polynomial drawn from the monomials of codegree d (maybe {})."""
    monos = ring.monomials(d)
    if not monos:
        return {}
    field = ring.field
    top = field.char - 1 if field.char else 3
    chosen = draw(st.lists(st.sampled_from(monos), max_size=max_terms, unique=True))
    return {m: field.from_int(draw(st.integers(1, top)) * draw(st.sampled_from([1, -1])))
            for m in chosen}


@st.composite
def _unsigned_rings(draw):
    """A ring with no odd-signed generator over GF(2), GF(3) or QQ (even
    codegrees off characteristic 2), one to four generators, up to three
    relations, and a polynomial to multiply by."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3), Rationals()]))
    step = 1 if field.char == 2 else 2
    degrees = draw(st.lists(st.integers(1, 3).map(lambda k: k * step), min_size=1, max_size=4))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    relations = [_homogeneous(draw, ring, draw(st.integers(step, 4 * step)))
                 for _ in range(draw(st.integers(0, 3)))]
    ring = GradedRing(field, ring.gens, relations)
    p = _homogeneous(draw, ring, draw(st.integers(0, 3 * step)))
    return ring, p, draw(st.randoms(use_true_random=False))


@st.composite
def _signed_rings(draw):
    """A ring over GF(3) or QQ with one to four generators, at least one
    of odd codegree, so odd generators anticommute, square to zero and
    kill Macaulay rows; up to three relations and a polynomial to
    multiply by, as in _unsigned_rings."""
    field = draw(st.sampled_from([PrimeField(3), Rationals()]))
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
        lambda ds: any(d % 2 for d in ds)))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    relations = [_homogeneous(draw, ring, draw(st.integers(1, 5)))
                 for _ in range(draw(st.integers(0, 3)))]
    ring = GradedRing(field, ring.gens, relations)
    p = _homogeneous(draw, ring, draw(st.integers(0, 3)))
    return ring, p, draw(st.randoms(use_true_random=False))


def _assert_components_match_reference(ring, p, rnd):
    """Components 0..12 against _reference_component: the basis, the
    reduction of a random polynomial and the products by p."""
    e = ring.poly_codegree(p)
    for n in range(13):
        basis, reduce = _reference_component(ring, n)
        comp = ring.component(n)
        assert comp.basis == basis, n
        monos = ring.monomials(n)
        q = {m: ring.field.from_int(rnd.randint(1, 5)) for m in rnd.sample(monos, min(4, len(monos)))}
        q = {m: c for m, c in q.items() if c != ring.field.zero()}
        assert comp.reduce_poly(q) == reduce(q)
        if p and n + e <= 12:
            target = ring.component(n + e)
            reduce_target = _reference_component(ring, n + e)[1]
            for b, coords in zip(basis, target.products(basis, target.terms(p))):
                assert coords == reduce_target(_mono_times_poly_reference(ring, b, p))


@settings(max_examples=120, deadline=None)
@given(_unsigned_rings())
def test_coded_components_and_tables_match_the_tuple_route(case):
    ring, p, rnd = case
    assert ring.coded
    for n in range(13):
        w = ring.code_width(n)
        assert ring.codes(n, w) == [ring.code(m, w) for m in ring.monomials(n)]
    _assert_components_match_reference(ring, p, rnd)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_unsigned_rings(), _signed_rings()), st.permutations(range(13)))
def test_ordered_macaulay_rows_span_what_all_rows_do_in_any_build_order(case, order):
    # where codegree n - |x_j| is cached, x_j multiplies its kept rows,
    # else every monomial of level j is tried: a drawn build order runs both
    ring, p, rnd = case
    for n in order:
        ring.component(n)
    _assert_components_match_reference(ring, p, rnd)


def _pmul_reference(ring, p, q):
    """The product pmul replaced, kept as the reference: each term of p
    times q, scaled and added to a fresh copy of the running sum."""
    out = {}
    for m, c in p.items():
        out = ring.padd(out, pscale(ring, c, ring.mono_times_poly(m, q)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(_unsigned_rings(), _signed_rings()), st.data())
def test_products_match_the_copying_route(case, data):
    # GF(2), GF(3) and QQ unsigned, GF(3) and QQ signed; in (p + q)^2 the
    # cross terms cancel over GF(2) and where p and q are odd
    ring, p, _ = case
    q = _homogeneous(data.draw, ring, data.draw(st.integers(0, 4)))
    s = ring.padd(p, q)
    for a, b in ((p, q), (q, p), (s, s)):
        assert ring.pmul(a, b) == _pmul_reference(ring, a, b)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_unsigned_rings(), _signed_rings()), st.permutations(range(-2, 25)))
def test_counted_dimensions_match_the_listed_monomials(case, order):
    # a drawn order asks for the counts past the kept ones at any point
    ring, _, _ = case
    free = GradedRing(ring.field, ring.gens)
    least = min((ring.poly_codegree(f) for f in ring.relations), default=25)
    for n in order:
        assert free.dim(n) == len(free.monomials(n)), n
        if n < least:
            assert ring.dim(n) == len(ring.monomials(n)), n
            assert n not in ring._component_cache
        else:
            assert ring.dim(n) == ring.component(n).dim == len(ring.component(n).basis)
    assert not free._component_cache


@settings(max_examples=100, deadline=None)
@given(st.one_of(_unsigned_rings(), _signed_rings()), st.data())
def test_kept_koszul_powers_match_ppow(case, data):
    ring, p, _ = case
    elements = [f for f in (p, _homogeneous(data.draw, ring, 2)) if f and ring.poly_codegree(f)]
    if ring.signed:
        elements = elements[:1]  # at most one odd element
    K = KoszulComplex(ring, elements)
    for j, a in enumerate(elements):
        for k in data.draw(st.permutations(range(1, 8))):
            assert K.element_power(j, k) == ring.ppow(a, k), (j, k)


def test_sd16_components_try_fewer_rows_than_all_products(monkeypatch):
    ring = get_preset("sd16").build_ring()
    tried, enlarged = [], []
    original = RowSpace.extend

    def counted(self, vectors):
        # components pass each batch of Macaulay rows to extend in one call
        vectors = list(vectors)
        grew = original(self, vectors)
        tried.extend(vectors)
        enlarged.extend(vectors[k] for k in grew)
        return grew

    monkeypatch.setattr(RowSpace, "extend", counted)
    # in order: every lower component the level rule reads is cached
    dims = [ring.dim(n) for n in range(25)]
    ideal = sum(len(ring.monomials(n)) - dims[n] for n in range(25))
    every_row = sum(len(ring.monomials(n - ring.poly_codegree(f)))
                    for f in ring.relations for n in range(25))
    # one enlarging row per dimension of the relation ideal
    assert len(enlarged) == ideal == 2240
    # all products m * f would be 5636 rows
    assert len(tried) == 2620 < every_row == 5636


@pytest.mark.parametrize("field", [PrimeField(2), Rationals()], ids=["GF2", "QQ"])
def test_code_width_grows_with_the_codegree(field):
    # x of codegree 8, y of codegree 2: y^4 needs 3 bits where codegree 7
    # needed 2, and with 2 bits x and y^4 would share the code 4
    ring = ring_with_relations(field, [("x", 8), ("y", 2)], ["x + y^4"])
    assert ring.coded
    assert [ring.code_width(n) for n in (7, 8)] == [2, 3]
    for n in range(25):
        assert ring.component(n).basis == _reference_component(ring, n)[0]
    assert ring.dim(8) == 1 and ring.component(8).basis == [(1, 0)]
    minus_one = field.neg(field.one())
    y3 = ring.component(6).basis.index((0, 3))
    assert densified(field, ring.generator_products(1, 6)[y3], 1) == [minus_one]  # y^4 = -x
    assert densified(field, ring.component(8).reduce_poly({(0, 4): field.one()}), 1) == [
        minus_one]


def test_unsigned_rings_never_multiply_exponent_tuples(monkeypatch):
    def refuse(*args):
        raise AssertionError("mono_times_poly called on a coded ring")

    for field in (PrimeField(2), Rationals()):
        ring = ring_with_relations(field, [("x", 2), ("y", 2), ("z", 4)], ["x*y", "x^2 + z"])
        monkeypatch.setattr(ring, "mono_times_poly", refuse)
        assert ring.hilbert_prefix(12) == [ring.dim(n) for n in range(13)]
        for i in range(ring.ngens):
            assert ring.generator_products(i, 6)
