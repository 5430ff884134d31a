from math import comb

import pytest

from gradedalg.fields import PrimeField, Rationals
from gradedalg.parsing import ring_with_relations
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
