import pytest
from hypothesis import given, settings, strategies as st

from conftest import left_action_reference
from gradedalg import koszul
from gradedalg.fields import PrimeField, Rationals
from gradedalg.koszul import KoszulComplex, KoszulError, koszul_homology, is_regular_sequence
from gradedalg.linalg import Matrix, RowSpace, combine, unit_vector
from gradedalg import localcoh
from gradedalg.localcoh import LocalCohomologyError, _induced_rank, cech_table
from gradedalg.modules import GradedModule
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.presets import get_preset

F2 = PrimeField(2)


def test_single_regular_element_has_no_higher_homology():
    ring = ring_with_relations(F2, [("x", 1)], [])
    x = parse_poly("x", ring)
    h = koszul_homology(ring, [x], range(0, 8))
    assert all(v == 0 for v in h[1].values())
    assert h[0][0] == 1 and all(h[0][n] == 0 for n in range(1, 8))


def test_repeated_element_is_not_regular():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    x = parse_poly("x", ring)
    verdict, detail = is_regular_sequence(ring, [x, x])
    assert verdict is False


def test_zero_divisor_detected_on_quotient():
    ring = ring_with_relations(F2, [("x", 1)], ["x^2"])
    x = parse_poly("x", ring)
    verdict, detail = is_regular_sequence(ring, [x])
    assert verdict is False
    assert detail["i"] == 1


def test_window_limited_verdict_on_a_big_module():
    # two elements in three variables: no certificate, and R/(x, y) = k[z]
    # never vanishes inside the window
    ring = ring_with_relations(F2, [("x", 1), ("y", 1), ("z", 1)], [])
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    assert is_regular_sequence(ring, [x, y]) == (None, {"window": 24})


def test_a_certified_sequence_is_regular_without_a_window():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    for elements in ([x, y], [y, x], [parse_poly("x*y", ring), parse_poly("x + y", ring)]):
        assert is_regular_sequence(ring, elements, codegree_max=2) == (
            True, {"certificate": "regular"})


def test_regular_verdict_needs_the_window_to_reach_the_presentation():
    # the residue field in codegree 30 is killed by x, but the window stops
    # at 24, below its generator: no exact verdict either way
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    k30 = GradedModule(ring, [30], [[x], [y]])
    assert is_regular_sequence(ring, [x], module=k30) == (None, {"window": 24})
    verdict, detail = is_regular_sequence(ring, [x], codegree_max=40, module=k30)
    assert verdict is False and detail["n"] == 31


def test_constant_and_inhomogeneous_elements_are_rejected():
    ring = ring_with_relations(F2, [("x", 1), ("y", 2)], [])
    x = parse_poly("x", ring)
    module = GradedModule.ring_as_module(ring)
    for bad in ("1", "x + y", "0"):
        bad = parse_poly(bad, ring)
        with pytest.raises(KoszulError):
            KoszulComplex(ring, [x, bad])
        with pytest.raises(LocalCohomologyError):
            cech_table(module, [x, bad], range(0, 2))


def test_two_odd_elements_outside_characteristic_two_are_rejected():
    # over GF(3) the odd x and y anticommute, so the exterior differential
    # on [x, y] does not square to zero
    ring = ring_with_relations(PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], [])
    x, y, z = (parse_poly(g, ring) for g in "xyz")
    with pytest.raises(KoszulError):
        KoszulComplex(ring, [x, y])
    with pytest.raises(LocalCohomologyError):
        cech_table(GradedModule.ring_as_module(ring), [z, x, y], range(0, 2))
    # one odd element is a complex: z is regular, and H_1(x) on R/(z) =
    # k<x, y> is x times it, one-dimensional in chain codegrees 2 and 3
    K = KoszulComplex(ring, [z, x])
    assert [K.homology_dim(1, n) for n in range(5)] == [0, 0, 1, 1, 0]
    # in characteristic 2 nothing anticommutes
    ring2 = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    assert KoszulComplex(ring2, [parse_poly(g, ring2) for g in "xy"]).homology_dim(1, 1) == 0


def test_koszul_homology_of_residue_field_is_exterior():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    k = GradedModule.residue_field(ring)
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    h = koszul_homology(ring, [x, y], range(0, 4), module=k)
    # all differentials vanish on k, so homology is the exterior algebra shape
    assert h[0][0] == 1 and h[1][1] == 2 and h[2][2] == 1



def test_mixed_parity_generators_take_the_left_action():
    # M over GF(3)[x, y, z], x and y odd, generated in codegrees 0, 1, 1:
    # a product b * p in place of p * b flips the sign of an odd p in the
    # odd slots only, which gave H_1(6) = 0 and H_2(6) = 1
    ring = ring_with_relations(PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], [])
    P = lambda src: parse_poly(src, ring)
    module = GradedModule(ring, [0, 1, 1], [[P("2*x*z + 2*y*z"), P("z"), {}],
                                           [P("2*y*z^2"), {}, {}]])
    elements = [P("y"), P("z")]
    h = koszul_homology(ring, elements, range(9), module)
    assert (h[1][6], h[2][6]) == (1, 2)
    K = KoszulComplex(ring, elements, module)
    for n in range(9):
        for i in range(3):
            assert h[i][n] == _reference_homology(K, i, n), (i, n)


_recipes = st.sampled_from([
    (F2, [("x", 1)], ["x^3"]),
    (F2, [("x", 1), ("y", 1)], []),
    (F2, [("x", 1), ("y", 1)], ["x*y"]),
    (F2, [("x", 1), ("y", 2)], ["x^2"]),
    (Rationals(), [("u", 2), ("v", 2)], ["u^2"]),
    (PrimeField(3), [("x", 2), ("y", 2)], []),
])


# odd generators over a field of odd characteristic anticommute and
# square to zero; a complex takes at most one of them (see _complexes)
_signed_recipes = st.sampled_from([
    (PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], []),
    (Rationals(), [("x", 1), ("y", 1)], []),
])


@st.composite
def _complexes(draw, recipes=_recipes):
    field, gens, rels = draw(recipes)
    ring = ring_with_relations(field, gens, rels)
    nelts = draw(st.integers(1, 3))
    elements, odd_drawn = [], False
    for _ in range(nelts):
        # at most one odd element: two anticommuting ones make no complex
        choices = [i for i in range(ring.ngens) if not (odd_drawn and ring.odd[i])]
        if not choices:
            break
        i = draw(st.sampled_from(choices))
        odd_drawn = odd_drawn or ring.odd[i]
        e = draw(st.integers(1, 2))
        # an odd generator squares to zero; keep it to the first power
        elements.append(ring.ppow(ring.gen_poly(i), e) or ring.gen_poly(i))
    module = None
    if draw(st.booleans()):
        # a shifted cyclic module killed by a power of one generator
        i = draw(st.integers(0, ring.ngens - 1))
        module = GradedModule(ring, [draw(st.integers(-1, 1))],
                              [[ring.ppow(ring.gen_poly(i), draw(st.integers(1, 3)))]])
    return KoszulComplex(ring, elements, module)


def _from_blocks(F, row_sizes, col_sizes, blocks):
    """The block matrix with the given block row and column sizes, built
    densely: blocks maps (block row, block column) to (sign, Matrix)."""
    rows = [[F.zero()] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for (i, j), (sign, m) in blocks.items():
        r0, c0 = sum(row_sizes[:i]), sum(col_sizes[:j])
        for r, row in enumerate(m.rows):
            for c, x in enumerate(row):
                rows[r0 + r][c0 + c] = x if sign == 1 else F.neg(x)
    return Matrix(F, rows, sum(col_sizes))


def _reference_chain(K, n):
    """The Koszul chain complex in codegree n, built directly: the subset S
    shifts M by the codegrees of its elements, and d_i removes the element
    at position p of S with sign (-1)^p, the element acting on the left of
    M by ring.pmul.  Returns (term dims, {i: d_i})."""
    shifts = [[sum(K.codegrees[j] for j in S) for S in K.subsets[i]]
              for i in range(K.c + 1)]
    sizes = [[K.module.dim(n - s) for s in row] for row in shifts]
    diffs = {}
    for i in range(1, K.c + 1):
        tgt_index = {S: k for k, S in enumerate(K.subsets[i - 1])}
        blocks = {}
        for k, (S, s) in enumerate(zip(K.subsets[i], shifts[i])):
            for pos, l in enumerate(S):
                T = tuple(x for x in S if x != l)
                blocks[tgt_index[T], k] = (-1 if pos % 2 else 1, Matrix.from_columns(
                    K.ring.field, left_action_reference(K.module, K.elements[l], n - s),
                    K.module.dim(n - s + K.codegrees[l])))
        diffs[i] = _from_blocks(K.ring.field, sizes[i - 1], sizes[i], blocks)
    return [sum(row) for row in sizes], diffs


def _d(s, i):
    """The slice differential out of degree i as a Matrix of its columns."""
    return Matrix.from_columns(s.K.ring.field, s.differential(i), s.term_dim(i + 1))


def _t(lo, hi, i):
    """The transition in degree i as a Matrix of its columns."""
    return Matrix.from_columns(lo.K.ring.field, lo.transition_to(hi, i), hi.term_dim(i))


def _reference_homology(K, i, n):
    dims, diffs = _reference_chain(K, n)
    rank_in = diffs[i + 1].rank() if i < K.c else 0
    rank_out = diffs[i].rank() if i > 0 else 0
    return dims[i] - rank_in - rank_out


@settings(max_examples=200, deadline=None)
@given(_complexes())
def test_random_koszul_differentials_square_to_zero(K):
    for n in range(0, 7):
        s = K.slice((1,) * K.c, n - sum(K.codegrees))  # what homology_dim reads
        _, diffs = _reference_chain(K, n)
        for i in range(K.c - 1):
            assert _d(s, i + 1).mul(_d(s, i)).is_zero()
            assert diffs[i + 1].mul(diffs[i + 2]).is_zero()


@settings(max_examples=200, deadline=None)
@given(_complexes(st.one_of(_recipes, _signed_recipes)))
def test_homology_matches_the_chain_complex_reference(K):
    for n in range(-1, 7):
        for i in range(-1, K.c + 2):
            want = _reference_homology(K, i, n) if 0 <= i <= K.c else 0
            assert K.homology_dim(i, n) == want, (i, n)


@settings(max_examples=200, deadline=None)
@given(_complexes(), st.data())
def test_random_cech_slices_are_complexes_and_transitions_are_chain_maps(K, data):
    levels = st.lists(st.integers(1, 2), min_size=K.c, max_size=K.c)
    low = data.draw(levels)
    high = [a + b for a, b in zip(low, data.draw(levels))]
    n = data.draw(st.integers(-2, 2))
    lo, hi = (K.slice(s, n) for s in (low, high))
    for s in (lo, hi):
        for i in range(K.c - 1):
            assert _d(s, i + 1).mul(_d(s, i)).is_zero()
    for i in range(K.c):
        assert _t(lo, hi, i + 1).mul(_d(lo, i)) == _d(hi, i).mul(_t(lo, hi, i))


def _reference_differential(s, i):
    """The slice differential with every block built on its own: multiply
    by ring.ppow of the one element added, no shared cache."""
    K = s.K
    ring = K.ring
    tgt_index = {S: k for k, S in enumerate(K.subsets[i + 1])}
    blocks = {}
    for k, S in enumerate(K.subsets[i]):
        for l in range(K.c):
            if l in S:
                continue
            power = ring.ppow(K.elements[l], s.levels[l])
            if not power:
                continue  # a nilpotent element raised past its order
            T = tuple(sorted(S + (l,)))
            sign = -1 if sum(1 for x in S if x < l) % 2 else 1
            blocks[tgt_index[T], k] = (
                sign, K.module.mult_matrix(power, s.subset_degree(S)))
    return _from_blocks(ring.field, s.sizes(i + 1), s.sizes(i), blocks)


def _reference_transition(lo, hi, i):
    """The transition with every block built on its own: the product over S
    of the gap powers, taken in increasing element index."""
    K = lo.K
    ring = K.ring
    blocks = {}
    for k, S in enumerate(K.subsets[i]):
        gap = ring.pconst(1)
        for j in S:
            delta = hi.levels[j] - lo.levels[j]
            if delta:
                gap = ring.pmul(gap, ring.ppow(K.elements[j], delta))
        if gap:
            blocks[k, k] = (1, K.module.mult_matrix(gap, lo.subset_degree(S)))
    return _from_blocks(ring.field, hi.sizes(i), lo.sizes(i), blocks)


def _reference_induced_rank(lo, hi, i):
    """The rank of the map on degree-i cohomology as cech_table took it
    before it eliminated columns: a kernel basis of the row-eliminated low
    differential (the unit vectors at the top degree), its images under
    the transposed transition, and the transposed high differential's
    rows, the coboundaries, spanned first; all from reference blocks."""
    K, F = lo.K, lo.K.ring.field
    dim_lo = lo.term_dim(i)
    if not dim_lo:
        return 0
    if i < K.c:
        cocycles = _reference_differential(lo, i).kernel_basis()
    else:
        cocycles = [unit_vector(F, c) for c in range(dim_lo)]
    if not cocycles:
        return 0
    images = _reference_transition(lo, hi, i).transpose().srows
    span = RowSpace(F, hi.term_dim(i))
    if i > 0:
        for col in _reference_differential(hi, i - 1).transpose().srows:
            span.insert(col)
    base = span.dim
    for v in cocycles:
        span.insert(combine(F, images, v))
    return span.dim - base


@settings(max_examples=200, deadline=None)
@given(_complexes(st.one_of(_recipes, _signed_recipes)), st.data())
def test_induced_ranks_match_the_kernel_basis_reference(K, data):
    low = data.draw(st.lists(st.integers(1, 3), min_size=K.c, max_size=K.c))
    gaps = data.draw(st.lists(st.integers(0, 2), min_size=K.c, max_size=K.c))
    n = data.draw(st.integers(-3, 3))
    lo, hi = K.slice(low, n), K.slice([s + g for s, g in zip(low, gaps)], n)
    for i in range(K.c + 1):
        assert _induced_rank(lo, hi, i) == _reference_induced_rank(lo, hi, i), i
        for s in (lo, hi):
            rank_in = _reference_differential(s, i - 1).rank() if i > 0 else 0
            want = s.term_dim(i) - _reference_differential(s, i).rank() - rank_in
            assert s.cohomology_dim(i) == want, i


@settings(max_examples=50, deadline=None)
@given(_complexes(st.one_of(_recipes, _signed_recipes)), st.integers(-3, 1),
       st.integers(1, 5), st.integers(0, 2))
def test_cech_tables_match_the_ones_from_reference_induced_ranks(K, low, stab_bound, buffer):
    # the zero-end shortcut changes no rank, so no cell and no flag; a
    # stab_bound below 5 leaves some cells uncertified (about half the cases)
    degrees = range(low, low + 3)
    got = cech_table(K.module, K.elements, degrees, stab_bound=stab_bound, buffer=buffer)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localcoh, "_induced_rank", _reference_induced_rank)
        want = cech_table(K.module, K.elements, degrees, stab_bound=stab_bound,
                          buffer=buffer)
    assert got.dims == want.dims and got.certified == want.certified


def _assert_shared_blocks_match_reference(K, data):
    # several slices at nearby levels and codegrees take their blocks from
    # the complex's one cache, in a drawn order, so later slices reuse
    # earlier blocks
    levels = st.lists(st.integers(1, 3), min_size=K.c, max_size=K.c)
    specs = data.draw(st.lists(st.tuples(levels, st.integers(-2, 2),
                                         levels), min_size=2, max_size=4))
    for low, n, gaps in specs:
        high = [s + g for s, g in zip(low, gaps)]
        lo, hi = (K.slice(s, n) for s in (low, high))
        for s in (lo, hi):
            for i in range(K.c):
                assert _d(s, i) == _reference_differential(s, i)
        for i in range(K.c + 1):
            assert _t(lo, hi, i) == _reference_transition(lo, hi, i)


@settings(max_examples=200, deadline=None)
@given(_complexes(), st.data())
def test_slices_sharing_blocks_match_the_reference_construction(K, data):
    _assert_shared_blocks_match_reference(K, data)


@settings(max_examples=100, deadline=None)
@given(_complexes(_signed_recipes), st.data())
def test_shared_blocks_keep_the_signs_of_odd_elements(K, data):
    _assert_shared_blocks_match_reference(K, data)


def test_one_cech_table_builds_each_multiplication_block_once(monkeypatch):
    ring = ring_with_relations(F2, [("x", 1), ("y", 1), ("z", 2)], ["x^2*y"])
    x, y, z = (parse_poly(g, ring) for g in "xyz")
    calls = []
    original = GradedModule.images

    def counted(self, pairs, columns, n):
        # a block is the images of one power's scalar columns
        calls.append((frozenset(columns[0][0].items()), n))
        return original(self, pairs, columns, n)

    monkeypatch.setattr(GradedModule, "images", counted)
    # distinct exponent vectors on these elements give distinct polynomials,
    # so one block per (polynomial, codegree); blocks are dropped as the
    # codegrees are done, in any order
    for module in (GradedModule.ring_as_module(ring),
                   GradedModule(ring, [0], [[parse_poly("y*z", ring)]])):
        for elements in ([x, y], [x, y, z]):
            for degrees in (range(-3, 2), [1, -3, 0, -2, -1]):
                calls.clear()
                cech_table(module, elements, degrees, stab_bound=6)
                assert calls and len(calls) == len(set(calls))
                # nothing is kept past the call: a second one builds the same blocks
                first = list(calls)
                calls.clear()
                cech_table(module, elements, degrees, stab_bound=6)
                assert calls == first


# -- the regular-sequence certificate ---------------------------------------

def _polynomial_ring(field, codegrees):
    return ring_with_relations(field, [(f"x{i}", d) for i, d in enumerate(codegrees)], [])


def test_regular_certificate_holds_on_a_system_of_parameters():
    ring = _polynomial_ring(F2, [1, 1])
    free = GradedModule(ring, [0, 2, -1])
    # (x0*x1, x0 + x1) contains x0^2 = x0*(x0 + x1) + x0*x1, so it is m-primary
    for elements in (["x0", "x1"], ["x0^2 + x1^2", "x0*x1"], ["x0*x1", "x0 + x1"],
                     ["x1^3", "x0^2"]):
        assert KoszulComplex(ring, [parse_poly(e, ring) for e in elements], free).regular
    ring3 = _polynomial_ring(PrimeField(3), [2, 4])
    assert KoszulComplex(ring3, [parse_poly(e, ring3) for e in ("x1 + x0^2", "x0^3")]).regular


def test_regular_certificate_refuses_every_other_case():
    kxy = _polynomial_ring(F2, [1, 1])
    cases = [
        # a relation: R is no polynomial ring
        (ring_with_relations(F2, [("x0", 1), ("x1", 1)], ["x0^3"]), [], ["x0", "x1"]),
        # an odd-signed generator squares to zero over GF(3) and QQ
        (_polynomial_ring(PrimeField(3), [1, 2]), [], ["x0", "x1"]),
        (_polynomial_ring(Rationals(), [2, 3]), [], ["x0", "x1"]),
        # a relation column: M is not free
        (kxy, ["x0^2"], ["x0", "x1"]),
        # c != ngens
        (kxy, [], ["x0"]),
        (kxy, [], ["x0", "x1", "x0 + x1"]),
        # c = ngens but the ideal is not m-primary
        (kxy, [], ["x0", "x0"]),
        (kxy, [], ["x0*x1", "x0^2"]),
        (_polynomial_ring(PrimeField(3), [2, 2, 4]), [], ["x0", "x0*x1", "x2"]),
    ]
    for ring, col, elements in cases:
        module = GradedModule(ring, [1], [[parse_poly(p, ring) for p in col]] if col else [])
        K = KoszulComplex(ring, [parse_poly(e, ring) for e in elements], module)
        assert K.regular is False, (ring, col, elements)


@st.composite
def _free_tables(draw):
    """A free module over a polynomial ring, elements that are often but not
    always a system of parameters, and the arguments of one cech_table."""
    field = draw(st.sampled_from([F2, PrimeField(3), Rationals()]))
    # GF(3) and QQ keep even codegrees, where the ring is strictly commutative
    unit = 1 if field.char == 2 else 2
    ngens = draw(st.integers(1, 3))
    codegrees = [unit * (1 if ngens == 3 else draw(st.integers(1, 2))) for _ in range(ngens)]
    ring = _polynomial_ring(field, codegrees)
    one = field.one()
    special = [["x0", "x0"]]
    if codegrees[:2] == [unit, unit] and ngens == 2:
        special.append(["x0*x1", "x0 + x1"])
    kind = draw(st.sampled_from(["sop-like", "random", "special"]))
    if kind == "special":
        elements = [parse_poly(e, ring) for e in draw(st.sampled_from(special))]
    else:
        elements = []
        # c = ngens mostly, where the certificate can hold
        for j in range(draw(st.sampled_from([ngens, ngens, max(1, ngens - 1)]))):
            k = draw(st.integers(1, 4 - ngens))  # slices grow fast with ngens
            lead = ring.ppow(ring.gen_poly(j), k)
            # x_j^k plus other terms of its codegree, or any terms of it
            monos = ring.monomials(k * codegrees[j])
            chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                                   unique=True))
            element = {m: draw(st.sampled_from([one, field.neg(one)])) for m in chosen}
            if kind == "sop-like":
                element.update(lead)
            elements.append(element)
    shifts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
    low = draw(st.integers(-4, 1))
    return (GradedModule(ring, shifts), elements, range(low, low + 3),
            dict(stab_bound=draw(st.integers(1, 5)), buffer=draw(st.integers(0, 3)),
                 window=draw(st.integers(2, 3))))


@settings(max_examples=100, deadline=None)
@given(_free_tables())
def test_certified_cech_tables_match_the_rank_route(args):
    module, elements, degrees, kw = args
    got = cech_table(module, elements, degrees, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KoszulComplex, "regular", property(lambda self: False))
        want = cech_table(module, elements, degrees, **kw)
    assert got.dims == want.dims and got.certified == want.certified
    assert want.stopping_rule["regular_sequence"] is False
    assert got.stopping_rule["regular_sequence"] is KoszulComplex(
        module.ring, elements, module).regular


def _count_builds(monkeypatch):
    """Count the differentials, blocks and transitions built from now on."""
    counts = {"differential": 0, "block": 0, "transition_to": 0}
    for cls, name in ((koszul._CochainSlice, "differential"), (KoszulComplex, "block"),
                      (koszul._CochainSlice, "transition_to")):
        def counted(self, *args, _name=name, _original=getattr(cls, name)):
            counts[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return counts


def test_certified_tables_build_no_differential_and_no_block(monkeypatch):
    d8, c2r2, g32 = (get_preset(name) for name in ("d8", "c2r2", "g32n7"))
    ring = c2r2.build_ring()
    certified = [(d8.build_module(d8.norm), d8.norm["ideal"], d8.cech_window),
                 (GradedModule.ring_as_module(ring), c2r2.cech_ideal, c2r2.cech_window)]
    counts = _count_builds(monkeypatch)
    for module, ideal, (lo, hi) in certified:
        elements = [parse_poly(e, module.ring) for e in ideal]
        table = cech_table(module, elements, range(lo, hi + 1))
        assert table.stopping_rule["regular_sequence"] and table.all_certified()
        assert any(table.dims.values())
    assert counts == {"differential": 0, "block": 0, "transition_to": 0}
    # g32n7's module has relation columns: its table eliminates ranks as before
    module = g32.build_module(g32.module)
    table = cech_table(module, [parse_poly(e, module.ring) for e in g32.module["ideal"]],
                       range(-7, -2))
    assert not table.stopping_rule["regular_sequence"]
    assert counts["differential"] and counts["block"] and counts["transition_to"]
