from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gradedalg import resolution
from gradedalg.fields import PrimeField, Rationals
from gradedalg.linalg import RowSpace, combine, combine_all, unit_vector
from gradedalg.modules import FreeModule, GradedModule, PolyMatrix
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.presets import get_preset
from gradedalg.resolution import (minimal_resolution, ext_growth_class,
                                  GrowthClass, ResolutionError)

F2 = PrimeField(2)


def _betti_of_k(gens, rels, h_max=10, codegree_max=20):
    ring = ring_with_relations(F2, gens, rels)
    k = GradedModule.residue_field(ring)
    return minimal_resolution(k, h_max=h_max, codegree_max=codegree_max)


def _check_complex(res, degrees):
    """d_i o d_{i+1} = 0 at the listed codegrees (exact matrix products)."""
    for i in range(len(res.diffs) - 1):
        comp = res.diffs[i].compose(res.diffs[i + 1])
        if not comp.is_zero_on(degrees):
            return False
    # augmentation o d_1
    if res.diffs:
        d1 = res.diffs[0]
        for n in degrees:
            prod = res.augmentation.matrix_at(n).mul(d1.matrix_at(n))
            if not prod.is_zero():
                return False
    return True


def test_regular_one_variable():
    res = _betti_of_k([("x", 1)], [])
    assert res.betti.totals() == [1, 1]
    assert res.betti.complete and res.betti.length == 1


def test_nilpotent_line_is_periodic():
    res = _betti_of_k([("x", 1)], ["x^2"])
    assert res.betti.totals() == [1] * 11
    assert not res.betti.complete
    assert _check_complex(res, range(0, 12))


def test_two_variables_gives_a_length_two_resolution():
    res = _betti_of_k([("x", 1), ("y", 1)], [])
    assert res.betti.totals() == [1, 2, 1]
    assert res.betti.complete and res.betti.length == 2
    assert _check_complex(res, range(0, 8))


def test_square_zero_pair_grows_linearly():
    res = _betti_of_k([("x", 1), ("y", 1)], ["x^2", "y^2"], h_max=8)
    assert res.betti.totals() == [i + 1 for i in range(9)]


def test_square_zero_maximal_ideal_doubles():
    res = _betti_of_k([("x", 1), ("y", 1)], ["x^2", "x*y", "y^2"], h_max=6, codegree_max=10)
    assert res.betti.totals() == [2 ** i for i in range(7)]


def test_differentials_have_no_unit_entries():
    res = _betti_of_k([("x", 1), ("y", 1)], ["x^2", "y^2"], h_max=5)
    assert all(d.min_entries_positive() for d in res.diffs)


def test_free_module_resolves_as_itself():
    ring = ring_with_relations(F2, [("x", 1)], [])
    free = GradedModule(ring, [0, 3])
    res = minimal_resolution(free)
    assert res.betti.totals() == [2]
    assert res.betti.complete and res.betti.length == 0


def test_free_module_with_a_generator_past_the_window_is_not_complete():
    # the generator in codegree 30 lies past the window, so no Betti entry
    # is reported there and nothing is claimed complete
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    res = minimal_resolution(GradedModule(ring, [0, 30]), codegree_max=24)
    assert res.betti.entries == {(0, 0): 1}
    assert not res.betti.complete and res.betti.length is None


def test_free_module_generators_come_in_codegree_order():
    ring = ring_with_relations(F2, [("x", 1)], [])
    res = minimal_resolution(GradedModule(ring, [3, 0]))
    assert res.frees[0].shifts == (0, 3)
    assert res.augmentation.columns == [{1: ring.pconst(1)}, {0: ring.pconst(1)}]
    assert res.betti.complete and res.betti.length == 0


def test_zero_module_has_length_minus_one():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    res = minimal_resolution(GradedModule(ring, [0], [[ring.pconst(1)]]))
    assert res.betti.entries == {}
    assert res.betti.complete and res.betti.length == -1
    assert res.frees[0].rank == 0 and res.augmentation.columns == [] and res.diffs == []


def test_negative_h_max_is_rejected():
    ring = ring_with_relations(F2, [("x", 1)], [])
    with pytest.raises(ResolutionError, match="h_max"):
        minimal_resolution(GradedModule.residue_field(ring), h_max=-1)


def test_window_below_every_generator_is_rejected():
    # all-zero Betti numbers inside an empty window said nothing about M
    ring = ring_with_relations(F2, [("x", 1)], ["x^2"])
    with pytest.raises(ResolutionError, match="codegree_max -5"):
        minimal_resolution(GradedModule.residue_field(ring), codegree_max=-5)
    shifted = GradedModule(ring, [3, 5])
    with pytest.raises(ResolutionError, match="least generator codegree 3"):
        minimal_resolution(shifted, codegree_max=2)
    # a window at the least generator is not empty, though it misses the other
    betti = minimal_resolution(shifted, codegree_max=3).betti
    assert betti.entries == {(0, 3): 1} and not betti.complete


def test_growth_classifier_oracles():
    assert ext_growth_class([1, 1] + [0] * 10) == GrowthClass("finite")
    assert ext_growth_class([1] * 12) == GrowthClass("bounded")
    assert ext_growth_class(list(range(1, 13))) == GrowthClass("polynomial", 1)
    assert ext_growth_class([2 ** i for i in range(12)]) == GrowthClass("exponential")


def test_growth_classifier_period_up_to_four():
    assert ext_growth_class([3, 1, 4, 1] * 4) == GrowthClass("bounded")


def test_growth_classifier_irregular_is_inconclusive():
    b = [1, 3, 1, 5, 1, 7, 1, 9, 1, 11, 1, 13, 1]
    assert ext_growth_class(b) == GrowthClass("inconclusive")


def test_growth_classifier_needs_enough_terms():
    with pytest.raises(ValueError):
        ext_growth_class([1, 2, 3])


_ring_recipes = st.sampled_from([
    ([("x", 1)], ["x^2"]),
    ([("x", 1)], ["x^3"]),
    ([("x", 1), ("y", 1)], []),
    ([("x", 1), ("y", 1)], ["x*y"]),
    ([("x", 1), ("y", 1)], ["x^2", "y^2"]),
    ([("x", 1), ("y", 2)], ["x^3"]),
])


@settings(max_examples=200, deadline=None)
@given(_ring_recipes, st.integers(6, 9), st.integers(1, 3))
def test_betti_entries_stable_under_window_growth(recipe, cmax, extra):
    # entries reported inside a window never change when the window grows
    gens, rels = recipe
    ring = ring_with_relations(F2, gens, rels)
    k = GradedModule.residue_field(ring)
    small = minimal_resolution(k, h_max=4, codegree_max=cmax).betti
    large = minimal_resolution(k, h_max=4, codegree_max=cmax + extra).betti
    for (i, n), c in small.entries.items():
        assert large.entries.get((i, n)) == c
    for (i, n), c in large.entries.items():
        if n <= cmax:
            assert small.entries.get((i, n)) == c


def test_semidihedral_residue_field_resolution():
    # the sd16 ring's residue field out to homological degree 8, where F_8
    # has rank 1969: about a second with maps stored as sparse columns,
    # over ten with dense rank x rank entries
    ring = get_preset("sd16").build_ring()
    res = minimal_resolution(GradedModule.residue_field(ring), h_max=8, codegree_max=24)
    assert res.betti.totals() == [1, 4, 10, 24, 58, 140, 338, 816, 1969]


def _x30_module():
    # k[x,y]/(x^30): projective dimension 1, its relation in codegree 30
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    return GradedModule(ring, [0], [[ring.ppow(ring.gen_poly(0), 30)]])


def test_window_below_a_relation_does_not_claim_completion():
    res = minimal_resolution(_x30_module(), codegree_max=24)
    assert not res.betti.complete


def test_window_covering_the_relations_resolves_the_module():
    res = minimal_resolution(_x30_module(), codegree_max=30)
    assert res.betti.complete and res.betti.length == 1
    assert res.betti.totals() == [1, 1]
    assert res.betti.graded(1) == {30: 1}


# polynomial rings: no relations, and no odd generator outside characteristic 2
_polynomial_recipes = st.sampled_from([
    (F2, [("x", 1)], []),
    (F2, [("x", 1), ("y", 1)], []),
    (F2, [("x", 1), ("y", 2)], []),
    (F2, [("x", 1), ("y", 1), ("z", 1)], []),
    (PrimeField(3), [("x", 2), ("y", 2)], []),
    (Rationals(), [("u", 2), ("v", 4)], []),
])

# two odd generators, which anticommute outside characteristic 2
_signed_recipes = st.sampled_from([
    (PrimeField(3), [("x", 1), ("y", 1)], []),
    (PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], ["z^2"]),
    (PrimeField(3), [("x", 1), ("y", 3)], []),
    (Rationals(), [("x", 1), ("y", 1), ("z", 2)], ["x*z"]),
    (Rationals(), [("x", 1), ("y", 3), ("z", 2)], ["z^2 + x*y"]),
])


@st.composite
def _modules(draw, recipes):
    field, gens, rels = draw(recipes)
    ring = ring_with_relations(field, gens, rels)
    shifts = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        top = draw(st.integers(max(shifts) + 1, max(shifts) + 4))
        col = []
        for s in shifts:
            monos = ring.monomials(top - s)
            picked = draw(st.lists(st.sampled_from(monos), max_size=2)) if monos else []
            col.append({m: field.from_int(draw(st.integers(1, 4))) for m in picked})
        cols.append(col)
    return GradedModule(ring, shifts, cols)


@settings(max_examples=100, deadline=None)
@given(_modules(_polynomial_recipes), st.integers(5, 8))
def test_betti_numbers_satisfy_the_euler_identity_over_polynomial_rings(module, cmax):
    # sum_i (-1)^i beta_(i,j) t^j = H_M(t) * prod_k (1 - t^(d_k)) in every
    # codegree j <= cmax; h_max past the projective dimension bound keeps
    # every stage that can reach a codegree inside the window
    ring = module.ring
    betti = minimal_resolution(module, h_max=ring.ngens + 1, codegree_max=cmax).betti
    factor = {0: 1}  # prod_k (1 - t^(d_k)), exponent -> coefficient
    for d in ring.codegrees:
        nxt = dict(factor)
        for e, c in factor.items():
            nxt[e + d] = nxt.get(e + d, 0) - c
        factor = nxt
    for j in range(module.min_degree(), cmax + 1):
        lhs = sum((-1) ** i * c for (i, n), c in betti.entries.items() if n == j)
        rhs = sum(c * module.dim(j - e) for e, c in factor.items())
        assert lhs == rhs, j


def _assert_exact(res, cmax):
    """F_0 -> M onto and rank d_(i+1) = nullity d_i in codegrees <= cmax."""
    maps = [res.augmentation, *res.diffs]
    for n in range(res.module.min_degree(), cmax + 1):
        assert res.augmentation.matrix_at(n).rank() == res.module.dim(n), n
        for d, e in zip(maps, maps[1:]):
            a = d.matrix_at(n)
            assert e.matrix_at(n).rank() == a.ncols - a.rank(), n


def test_odd_generators_multiply_kernels_on_the_left():
    # GF(3)[x, y, z]/(z^2), x and y odd: slots of F_3 differ in parity, and
    # b * x_j in place of x_j * b left ker d_3 in codegrees 8 and 9
    ring = ring_with_relations(PrimeField(3), [("x", 1), ("y", 1), ("z", 2)], ["z^2"])
    module = GradedModule(ring, [0], [[parse_poly("y*z", ring)]])
    res = minimal_resolution(module, h_max=4, codegree_max=10)
    _assert_exact(res, 10)


def _reference_kernel_generators(ambient, diff, dims, top):
    """The route before kernel dimensions came from exactness, kept as the
    reference: in every codegree the vectors spanning K_n (the kernel
    basis of diff.matrix_at(n), or M_n's unit vectors when diff is None),
    and products x_i * (K below) inserted until they span as much.  Over
    M, x_i * v comes from M's multiplication columns; over a free module,
    from the images of b * x_i, negated where x_i and b are both odd.  The
    spanning sets are checked against dims."""
    ring = ambient.ring
    F = ring.field
    gens, kernels = [], {}
    for n in range(ambient.min_degree(), top + 1):
        if diff is None:
            kb = [unit_vector(F, k) for k in range(ambient.dim(n))]
        else:
            kb = diff.matrix_at(n).kernel_basis() if ambient.dim(n) else []
        kernels[n] = kb
        assert len(kb) == dims[n]
        if not kb:
            continue
        span = RowSpace(F, ambient.dim(n))
        for i in range(ring.ngens):
            if span.dim == len(kb):
                break
            dx = ring.codegrees[i]
            lower = kernels.get(n - dx)
            if not lower:
                continue
            if diff is None:
                cols = ambient.mult_columns(ring.gen_poly(i), n - dx)
            else:
                pairs = ambient.basis(n - dx)
                cols = ambient.images(pairs, ambient.scalar_columns(ring.gen_poly(i)), n)
                if ring.odd[i]:
                    cols = [{k: F.neg(x) for k, x in c.items()}
                            if (n - dx - ambient.shifts[j]) % 2 else c
                            for c, (j, _) in zip(cols, pairs)]
            for v in lower:
                span.insert(combine(F, cols, v))
                if span.dim == len(kb):
                    break
        for v in kb:
            if span.dim == len(kb):
                break
            if span.insert(v):
                gens.append((n, v))
    return gens


def _minimal_generators_of_module(module, codegree_max):
    """Degrees and representatives of a minimal generating set of M: the
    stage-0 search before it became the kernel search's, kept as the
    reference.  Every codegree of the window is scanned, products are M's
    multiplication columns, and candidates M_n's unit vectors."""
    ring = module.ring
    gens = []  # (degree, polynomial vector in module.free slots)
    lo = module.min_degree()
    for n in range(lo, codegree_max + 1):
        comp = module.component(n)
        if comp.dim == 0:
            continue
        span = RowSpace(ring.field, comp.dim)
        for i in range(ring.ngens):
            dx = ring.codegrees[i]
            if n - dx < lo:
                continue
            for col in module.mult_columns(ring.gen_poly(i), n - dx):
                span.insert(col)
        for k in range(comp.dim):
            e = unit_vector(ring.field, k)
            if span.insert(e):
                gens.append((n, module.free.element_of(comp.lift(e), n)))
    return gens


def _residue_field(recipe):
    field, gens, rels = recipe
    return GradedModule.residue_field(ring_with_relations(field, gens, rels))


_any_module = st.one_of(_ring_recipes.map(lambda r: _residue_field((F2, *r))),
                        _signed_recipes.map(_residue_field),
                        _modules(_polynomial_recipes), _modules(_signed_recipes))



class _GeneratorTable(dict):
    """b -> coordinates in R_(a+|x_i|) of b * x_i for basis monomials b
    of R_a, each entry computed on its first lookup from mono_times_poly:
    the lazy generator table that the resolution read before the batched
    generator products, kept as the reference."""

    def __init__(self, ring, i, a):
        super().__init__()
        self.ring, self.x = ring, ring.gen_poly(i)
        self.target = ring.component(a + ring.codegrees[i])

    def __missing__(self, b):
        coords = self[b] = self.target.reduce_poly(self.ring.mono_times_poly(b, self.x))
        return coords


class _GeneratorProducts(dict):
    """x_i times the basis vectors of a free module at codegree n - |x_i|,
    as coordinates at codegree n, keyed by basis position and each built
    on its first lookup: the resolution's product route before
    FreeModule.generator_columns, kept as the reference.

    The table gives b * x_i, and x_i * b is (-1)^(|x_i| |b|) b * x_i: an
    odd generator (in characteristic other than 2) negates the images of
    the odd monomials.
    """

    def __init__(self, source, i, n):
        super().__init__()
        self.source, self.i, self.n = source, i, n
        self.basis = source.basis(n - source.ring.codegrees[i])
        self.slots = {}  # slot -> (offset at n, generator table, negate)

    def __missing__(self, k):
        ring = self.source.ring
        s, b = self.basis[k]
        part = self.slots.get(s)
        if part is None:
            a = self.n - ring.codegrees[self.i] - self.source.shifts[s]
            part = self.slots[s] = (self.source.offsets(self.n)[s],
                                    _GeneratorTable(ring, self.i, a),
                                    ring.odd[self.i] and a % 2 == 1)
        offset, table, negate = part
        coords = table[b]
        if ring.field.packed:
            w = coords << offset
        elif negate:
            neg = ring.field.neg
            w = {offset + c: neg(x) for c, x in coords.items()}
        else:
            w = {offset + c: x for c, x in coords.items()}
        self[k] = w
        return w


@settings(max_examples=150, deadline=None)
@given(_any_module, st.lists(st.integers(-1, 2), min_size=1, max_size=3))
def test_generator_columns_match_the_lazy_generator_products(module, shifts):
    # the batched columns of a free module, and of M at its basis
    # positions, reduced, are the reference's entries position by position
    ring = module.ring
    free = FreeModule(ring, shifts)
    for j, d in enumerate(ring.codegrees):
        for a in range(-1, 6):
            ref = _GeneratorProducts(free, j, a + d)
            assert free.generator_columns(j, a) == [ref[k] for k in range(free.dim(a))]
            ref = _GeneratorProducts(module.free, j, a + d)
            target = module.component(a + d)
            assert module.generator_columns(j, a) == [
                target.reduce(ref[c]) for c in module.component(a).positions]

@settings(max_examples=200, deadline=None)
@given(_any_module, st.integers(4, 7))
def test_stage_zero_matches_the_module_generator_search(module, cmax):
    # M's generators are stage 0 of the kernel search: the same F_0 shifts
    # and augmentation columns as the search that scanned the whole window
    ref = _minimal_generators_of_module(module, cmax)
    res = minimal_resolution(module, h_max=0, codegree_max=cmax)
    assert res.frees[0].shifts == tuple(d for d, _ in ref)
    assert res.augmentation.columns == [vec for _, vec in ref]


@settings(max_examples=200, deadline=None)
@given(_any_module, st.integers(4, 7))
def test_kernel_dimensions_from_exactness_match_the_rank_route(module, cmax):
    # the same generators against the same spans: every Betti entry and
    # every differential column agree, and a differential's matrix is
    # built only in the codegrees where its kernel has a new generator
    calls = []

    def spy(matrix_at):
        def wrapped(self, n):
            calls.append((id(self), n))
            return matrix_at(self, n)
        return wrapped

    with mock.patch.object(PolyMatrix, "matrix_at", spy(PolyMatrix.matrix_at)):
        res = minimal_resolution(module, h_max=4, codegree_max=cmax)
    with mock.patch.object(resolution, "_kernel_generators", _reference_kernel_generators):
        ref = minimal_resolution(module, h_max=4, codegree_max=cmax)
    assert res.betti.entries == ref.betti.entries
    assert (res.betti.complete, res.betti.length) == (ref.betti.complete, ref.betti.length)
    assert res.augmentation.columns == ref.augmentation.columns
    assert [d.columns for d in res.diffs] == [d.columns for d in ref.diffs]
    stage = {id(d): i + 1 for i, d in enumerate([res.augmentation, *res.diffs])}
    assert {(stage[k], n) for k, n in calls} == {(i, n) for i, n in res.betti.entries if i}
    _assert_exact(res, cmax)


def _all_products_kernel_generators(ambient, diff, dims, top):
    """The kernel search before the level rule, kept as the reference: in
    each codegree x_j times every kept basis vector of K below, for every
    j, until the products span dims[n]; then the spanning vectors of K_n
    (M_n's unit vectors, or the kernel basis of diff.matrix_at(n)) that
    enlarge the span are the generators."""
    ring = ambient.ring
    F = ring.field
    gens = []
    bases = {}
    for n in range(ambient.min_degree(), top + 1):
        want = dims[n]
        if want == 0:
            continue
        span = RowSpace(F, ambient.dim(n))
        basis = bases[n] = []
        for j in range(ring.ngens):
            a = n - ring.codegrees[j]
            lower = bases.get(a)
            if span.dim == want or not lower:
                continue
            products = ambient.generator_columns(j, a)
            for v in lower:
                w = combine(F, products, v)
                if span.insert(w):
                    basis.append(w)
                    if span.dim == want:
                        break
        if span.dim == want:
            continue
        if diff is None:
            spanning = [unit_vector(F, k) for k in range(want)]
        else:
            spanning = diff.matrix_at(n).kernel_basis()
            assert len(spanning) == want
        for v in spanning:
            if span.dim == want:
                break
            if span.insert(v):
                basis.append(v)
                gens.append((n, v))
    return gens


@settings(max_examples=200, deadline=None)
@given(_any_module, st.integers(4, 8), st.integers(2, 6))
def test_the_level_rule_gives_the_all_products_resolution(module, cmax, h_max):
    # the products of the level rule span what all products span in every
    # codegree, so the same candidates become generators: GF(2), signed
    # GF(3) with odd generators and QQ, modules with relation columns and
    # mixed shifts, compared as whole resolutions
    res = minimal_resolution(module, h_max=h_max, codegree_max=cmax)
    with mock.patch.object(resolution, "_kernel_generators", _all_products_kernel_generators):
        ref = minimal_resolution(module, h_max=h_max, codegree_max=cmax)
    assert res.betti.entries == ref.betti.entries
    assert (res.betti.complete, res.betti.length) == (ref.betti.complete, ref.betti.length)
    assert [F.shifts for F in res.frees] == [F.shifts for F in ref.frees]
    assert res.augmentation.columns == ref.augmentation.columns
    assert [d.columns for d in res.diffs] == [d.columns for d in ref.diffs]


def test_the_level_rule_tries_few_redundant_products():
    # k over the a4 hypersurface GF(2)[x, y, z]/(x^3 + y^2 + yz + z^2),
    # to h = 12 at codegree 44: all products tried 4,577 for 3,201 kept,
    # the level rule tries 3,219.  Products go in by batches, counted as
    # the coefficient vectors handed to combine_all; every vector that
    # enlarges a span over GF(2) is a position extend returns, a
    # generator's insert included
    tried, grew = [0], [0]

    def counted_combine_all(field, vectors, coeff_list):
        tried[0] += len(coeff_list)
        return combine_all(field, vectors, coeff_list)

    class CountedRowSpace(RowSpace):
        def extend(self, vectors):
            added = super().extend(vectors)
            grew[0] += len(added)
            return added

    k = GradedModule.residue_field(get_preset("a4_ring").build_ring())
    with mock.patch.object(resolution, "combine_all", counted_combine_all), \
            mock.patch.object(resolution, "RowSpace", CountedRowSpace):
        res = minimal_resolution(k, h_max=12, codegree_max=44)
    assert res.betti.totals() == [1, 3] + [4] * 11
    kept = grew[0] - sum(res.betti.entries.values())  # the rest are generators
    assert 0 < kept <= tried[0] <= 1.02 * kept
    assert (tried[0], kept) == (3219, 3201)


def test_dimensions_build_no_basis_list():
    # a free module's dimension is a sum of ring dimensions, and so is that
    # of a module with no relation column; x_j's columns need no basis
    # list either, signed or not
    for field, gens in ((F2, [("x", 1), ("y", 2)]), (PrimeField(3), [("x", 1), ("y", 3)])):
        ring = ring_with_relations(field, gens, [])
        free = FreeModule(ring, [0, 1, 3])
        module = GradedModule(ring, [0, 2])
        with mock.patch.object(FreeModule, "basis", side_effect=AssertionError("basis")):
            assert [free.dim(n) for n in range(6)] == [
                sum(ring.dim(n - s) for s in free.shifts) for n in range(6)]
            assert [module.dim(n) for n in range(6)] == [
                ring.dim(n) + ring.dim(n - 2) for n in range(6)]
            for j in range(ring.ngens):
                for a in range(5):
                    assert len(free.generator_columns(j, a)) == free.dim(a)


def test_a_module_is_zero_where_every_lower_piece_is_known_zero():
    # k over GF(2)[x, y]/(x^2): k_n for n > 1 is read off k_1 = 0 with no
    # component built, and a module with a generator there is not
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], ["x^2"])
    k = GradedModule.residue_field(ring)
    assert [k.dim(n) for n in range(-2, 3)] == [0, 0, 1, 0, 0]
    with mock.patch.object(GradedModule, "component", side_effect=AssertionError("built")):
        assert [k.dim(n) for n in range(3, 9)] == [0] * 6
    x = ring.gen_poly(0)
    late = GradedModule(ring, [0, 4], [[x, {}], [ring.gen_poly(1), {}], [{}, x]])
    assert [late.dim(n) for n in range(7)] == [1, 0, 0, 0, 1, 1, 1]
