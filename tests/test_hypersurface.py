import pytest

from gradedalg.fields import PrimeField
from gradedalg.hypersurface import (HypersurfaceData, HypersurfaceError, MatrixFactorization,
                                    splice_periodic_resolution,
                                    matrix_factorization_from_resolution,
                                    gulliksen_periodicity_check)
from gradedalg.modules import GradedModule, PolyMatrix
from gradedalg.parsing import parse_poly, ring_with_relations
from gradedalg.resolution import ext_growth_class, GrowthClass

F2 = PrimeField(2)
F5 = PrimeField(5)


def _line_squared():
    base = ring_with_relations(F2, [("x", 1)], [])
    f = parse_poly("x^2", base)
    return HypersurfaceData(base, f)


def test_hypersurface_rejects_zero_divisors():
    base = ring_with_relations(F2, [("x", 1)], ["x^3"])
    with pytest.raises(HypersurfaceError):
        HypersurfaceData(base, parse_poly("x^2", base))


def test_splice_gives_two_periodic_betti():
    h = _line_squared()
    k = GradedModule.residue_field(h.base)
    terms, diffs, betti = splice_periodic_resolution(h, k, h_max=8)
    assert betti == [1] * 9


def test_splice_of_a_module_of_projective_dimension_two():
    # k over k[x,y]/(x^2): Poincare series (1+t)^2/(1-t^2) = 1 + 2t + 2t^2 + ...
    base = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    h = HypersurfaceData(base, parse_poly("x^2", base))
    k = GradedModule.residue_field(base)
    terms, diffs, betti = splice_periodic_resolution(h, k, h_max=5)
    assert betti == [1, 2, 2, 2, 2, 2]


def test_splice_resolves_over_the_ambient_ring_past_h_max():
    # k over k[x,y,z] has projective dimension 3, more than h_max; the
    # R-resolution over k[x,y,z]/(x^2+yz) is (1+t)^3/(1-t^2) = 1, 3, 4, 4, ...
    base = ring_with_relations(F2, [("x", 1), ("y", 1), ("z", 1)], [])
    h = HypersurfaceData(base, parse_poly("x^2+y*z", base))
    k = GradedModule.residue_field(base)
    terms, diffs, betti = splice_periodic_resolution(h, k, h_max=3, codegree_max=8)
    assert betti == [1, 3, 4, 4]


def test_splice_of_a_shifted_module():
    base = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    h = HypersurfaceData(base, parse_poly("x^2", base))
    m = GradedModule(base, [0], [[parse_poly("x", base)]])
    terms, diffs, betti = splice_periodic_resolution(h, m, h_max=6)
    assert betti == [1] * 7


def test_matrix_factorization_on_the_line():
    h = _line_squared()
    k = GradedModule.residue_field(h.base)
    mf = matrix_factorization_from_resolution(h, k)
    assert mf.size == 1
    assert mf.verify()


def test_matrix_factorization_of_a_product():
    base = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    h = HypersurfaceData(base, parse_poly("x*y", base))
    m = GradedModule(base, [0], [[parse_poly("x", base)]])
    mf = matrix_factorization_from_resolution(h, m)
    assert mf.size == 1
    assert mf.verify()


def test_matrix_factorization_of_a_sum_of_squares():
    base = ring_with_relations(F5, [("x", 2), ("y", 2)], [])
    f = parse_poly("x^2+y^2", base)
    h = HypersurfaceData(base, f)
    # columns (x, -y) and (y, x); f * identity factors through them
    m = GradedModule(base, [0, 0],
                     [[parse_poly("x", base), parse_poly("4*y", base)],
                      [parse_poly("y", base), parse_poly("x", base)]])
    mf = matrix_factorization_from_resolution(h, m)
    assert mf.size == 2
    assert mf.verify()


def test_perturbed_matrix_factorization_fails_verification():
    base = ring_with_relations(F5, [("x", 2), ("y", 2)], [])
    h = HypersurfaceData(base, parse_poly("x^2+y^2", base))
    m = GradedModule(base, [0, 0],
                     [[parse_poly("x", base), parse_poly("4*y", base)],
                      [parse_poly("y", base), parse_poly("x", base)]])
    mf = matrix_factorization_from_resolution(h, m)
    entries = [list(row) for row in mf.B.entries]
    r, c = next((r, c) for r, row in enumerate(entries) for c, e in enumerate(row) if e)
    entries[r][c] = base.pscale(2, entries[r][c])
    B = PolyMatrix(mf.B.target, mf.B.source, entries)
    assert mf.verify()
    assert not MatrixFactorization(h, mf.A, B).verify()


def test_mf_requires_projective_dimension_one():
    base = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    h = HypersurfaceData(base, parse_poly("x^2", base))
    k = GradedModule.residue_field(base)  # pd 2, too deep
    with pytest.raises(HypersurfaceError):
        matrix_factorization_from_resolution(h, k)


def test_periodicity_operator_codegree_and_onset():
    h = _line_squared()
    k = GradedModule.residue_field(h.quotient)
    info = gulliksen_periodicity_check(h, k, h_max=10)
    assert info["operator_codegree"] == h.d + 2 == 4
    assert info["onset"] == 0 and info["period"] == 2
    assert info["differences_vanish"]
    assert info["betti"] == [1] * 11


def test_periodicity_for_an_even_codegree_equation():
    base = ring_with_relations(F2, [("x", 2)], [])
    h = HypersurfaceData(base, parse_poly("x^3", base))
    k = GradedModule.residue_field(h.quotient)
    info = gulliksen_periodicity_check(h, k, h_max=10, codegree_max=40)
    assert info["operator_codegree"] == 8
    assert info["differences_vanish"]
    assert ext_growth_class(info["betti"]) == GrowthClass("bounded")
