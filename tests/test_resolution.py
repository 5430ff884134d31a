from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gradedalg import resolution
from gradedalg.fields import PrimeField, Rationals
from gradedalg.linalg import RowSpace, combine
from gradedalg.modules import GradedModule, PolyMatrix
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.presets import get_preset
from gradedalg.resolution import (minimal_resolution, ext_growth_class,
                                  GrowthClass, ResolutionError)

F2 = PrimeField(2)


def _betti_of_k(gens, rels, h_max=10, codegree_max=20):
    ring = ring_with_relations(F2, gens, rels)
    k = GradedModule.residue_field(ring)
    return minimal_resolution(k, h_max=h_max, codegree_max=codegree_max)


def test_regular_one_variable():
    res = _betti_of_k([("x", 1)], [])
    assert res.betti.totals() == [1, 1]
    assert res.betti.complete and res.betti.length == 1


def test_nilpotent_line_is_periodic():
    res = _betti_of_k([("x", 1)], ["x^2"])
    assert res.betti.totals() == [1] * 11
    assert not res.betti.complete
    assert res.check_complex(range(0, 12))


def test_two_variables_gives_a_length_two_resolution():
    res = _betti_of_k([("x", 1), ("y", 1)], [])
    assert res.betti.totals() == [1, 2, 1]
    assert res.betti.complete and res.betti.length == 2
    assert res.check_complex(range(0, 8))


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


def _reference_kernel_generators(diff, source, codegree_max, image_dims):
    """The route before kernel dimensions came from exactness, kept as the
    reference: the kernel basis of diff.matrix_at(n) in every codegree, and
    products x_i * (kernel basis below) inserted until they span as much.
    x_i * v comes from the images of b * x_i, negated where x_i and b are
    both odd.  The kernel dimensions handed on are those of the kernel
    bases, checked against image_dims."""
    ring = source.ring
    F = ring.field
    gens, kernels = [], {}
    for n in range(source.min_degree(), codegree_max + 1):
        kb = kernels[n] = diff.matrix_at(n).kernel_basis() if source.dim(n) else []
        assert len(kb) == source.dim(n) - image_dims[n]
        if not kb:
            continue
        span = RowSpace(F, source.dim(n))
        for i in range(ring.ngens):
            if span.dim == len(kb):
                break
            dx = ring.codegrees[i]
            lower = kernels.get(n - dx)
            if not lower:
                continue
            pairs = source.basis(n - dx)
            cols = source.images(pairs, source.scalar_columns(ring.gen_poly(i)), n)
            if ring.odd[i]:
                cols = [{k: F.neg(x) for k, x in c.items()}
                        if (n - dx - source.shifts[j]) % 2 else c
                        for c, (j, _) in zip(cols, pairs)]
            for v in lower:
                span.insert(combine(F, cols, v))
                if span.dim == len(kb):
                    break
        for v in kb:
            if span.dim == len(kb):
                break
            if span.insert(v):
                gens.append((n, v, source.element_of(v, n)))
    return gens, {n: len(kb) for n, kb in kernels.items()}


def _residue_field(recipe):
    field, gens, rels = recipe
    return GradedModule.residue_field(ring_with_relations(field, gens, rels))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ring_recipes.map(lambda r: _residue_field((F2, *r))),
                 _signed_recipes.map(_residue_field),
                 _modules(_polynomial_recipes), _modules(_signed_recipes)),
       st.integers(4, 7))
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

    with mock.patch.object(PolyMatrix, "matrix_at", spy(PolyMatrix.matrix_at)), \
            mock.patch.object(resolution._MapToModule, "matrix_at",
                              spy(resolution._MapToModule.matrix_at)):
        res = minimal_resolution(module, h_max=4, codegree_max=cmax)
    with mock.patch.object(resolution, "_kernel_generators", _reference_kernel_generators):
        ref = minimal_resolution(module, h_max=4, codegree_max=cmax)
    assert res.betti.entries == ref.betti.entries
    assert (res.betti.complete, res.betti.length) == (ref.betti.complete, ref.betti.length)
    assert [d.columns for d in res.diffs] == [d.columns for d in ref.diffs]
    stage = {id(d): i + 1 for i, d in enumerate([res.augmentation, *res.diffs])}
    assert {(stage[k], n) for k, n in calls} == {(i, n) for i, n in res.betti.entries if i}
    _assert_exact(res, cmax)
