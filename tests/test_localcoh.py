import pytest
from hypothesis import given, settings, strategies as st

from gradedalg.fields import PrimeField, Rationals
from gradedalg.localcoh import (LocalCohomologyError, cech_table, duality_table, ext_dims,
                                grothendieck_vanishing_check,
                                radical_invariance_check,
                                gorenstein_duality_check)
from gradedalg.modules import GradedModule
from gradedalg.parsing import parse_poly, ring_with_relations

F2 = PrimeField(2)


def _line():
    ring = ring_with_relations(F2, [("x", 1)], [])
    return ring, GradedModule.ring_as_module(ring)


def test_line_has_top_cohomology_in_negative_codegrees():
    ring, m = _line()
    x = parse_poly("x", ring)
    table = cech_table(m, [x], range(-8, 9))
    assert table.all_certified()
    for n in range(-8, 9):
        assert table.dim(0, n) == 0
        assert table.dim(1, n) == (1 if n <= -1 else 0)


def test_plane_top_cohomology_dims_grow_linearly():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    m = GradedModule.ring_as_module(ring)
    els = [parse_poly("x", ring), parse_poly("y", ring)]
    table = cech_table(m, els, range(-6, 1))
    assert [table.dim(2, n) for n in (-2, -3, -4, -5, -6)] == [1, 2, 3, 4, 5]
    assert all(table.dim(1, n) == 0 for n in range(-6, 1))


def test_torsion_module_concentrates_in_degree_zero():
    ring = ring_with_relations(F2, [("x", 1)], ["x^2"])
    m = GradedModule.ring_as_module(ring)
    x = parse_poly("x", ring)
    table = cech_table(m, [x], range(-4, 5))
    assert table.dim(0, 0) == 1 and table.dim(0, 1) == 1
    assert all(table.dim(1, n) == 0 for n in range(-4, 5))


def test_cech_and_duality_agree_on_a_free_module():
    ring = ring_with_relations(F2, [("x", 1)], [])
    m = GradedModule(ring, [0, 3])
    x = parse_poly("x", ring)
    ct = cech_table(m, [x], range(-8, 5))
    dt = duality_table(m, range(-8, 5))
    for n in range(-8, 5):
        for i in (0, 1):
            assert ct.dim(i, n) == dt.dim(i, n)


def test_ext_dims_of_residue_field():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    k = GradedModule.residue_field(ring)
    ext = ext_dims(k, codegree_max=12)
    # Koszul self-duality: Ext^2(k, P) is one line in codegree -2
    assert ext[2](-2) == 1
    assert ext[2](0) == 0
    assert ext[0](0) == 0


def test_grothendieck_vanishing_detects_stray_classes():
    ring, m = _line()
    x = parse_poly("x", ring)
    table = cech_table(m, [x], range(-6, 3))
    ok, problems = grothendieck_vanishing_check(table, 1, 1)
    assert ok and not problems
    bad_ok, bad = grothendieck_vanishing_check(table, 0, 0)
    assert not bad_ok


def test_radical_invariance_on_nilpotent_thickening():
    ring = ring_with_relations(Rationals(), [("u", 2), ("v", 2)], ["u^2", "u*v"])
    m = GradedModule.ring_as_module(ring)
    v = parse_poly("v", ring)
    u = parse_poly("u", ring)
    ok, detail = radical_invariance_check(m, [v], [u, v], range(-6, 7))
    assert ok, detail


def test_gorenstein_duality_for_the_plane():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    table = duality_table(GradedModule.ring_as_module(ring), range(-10, 5))
    ring_dims = lambda n: ring.dim(n) if n >= 0 else 0
    ok, mism = gorenstein_duality_check(table, ring_dims, 2, 0)
    assert ok, mism


def test_defect_one_pairing():
    # assemble a table by hand: H^1 carries the extra shifted copy
    from gradedalg.localcoh import CohomologyTable
    degrees = list(range(-4, 3))
    table = CohomologyTable(degrees, 2, "manual")
    for n in degrees:
        table.set(2, n, 1 if n <= -3 else 0, certified=True)
        table.set(1, n, 1 if n == -1 else 0, certified=True)
        table.set(0, n, 0, certified=True)
    dims = lambda n: 1 if n in (0, 1) else 0
    ok, mism = gorenstein_duality_check(table, dims, 2, 0, defect=1,
                                        degrees=range(-3, 1))
    assert ok, mism


@st.composite
def _one_variable_modules(draw):
    ring = ring_with_relations(F2, [("x", 1)], [])
    shift = draw(st.integers(-2, 2))
    power = draw(st.integers(0, 3))
    cols = []
    if power:
        cols.append([ring.ppow(ring.gen_poly(0), power)])
    return GradedModule(ring, [shift], cols), parse_poly("x", ring)


@settings(max_examples=200, deadline=None)
@given(_one_variable_modules(), st.integers(3, 5))
def test_certified_cells_independent_of_stabilization_window(mw, window):
    # once a cell certifies, demanding a longer stable run cannot change it
    module, x = mw
    base = cech_table(module, [x], range(-5, 3), window=3)
    other = cech_table(module, [x], range(-5, 3), window=window)
    for n in range(-5, 3):
        for i in (0, 1):
            assert base.dim(i, n) == other.dim(i, n)
    assert base.all_certified() and other.all_certified()


def test_duality_window_covers_the_relations():
    # k[x,y]/(x^30) has dimension 1, so H^2 vanishes; a resolution window
    # that stops below the relation's codegree 30 reported H^2 = 3, 2, 1
    # at n = -4, -3, -2
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    m = GradedModule(ring, [0], [[parse_poly("x^30", ring)]])
    table = duality_table(m, range(-4, 3))
    assert all(table.dim(2, n) == 0 for n in range(-4, 3))
    # H^1 = k[x]/(x^30) (x) y^-1 k[y^-1]: the classes x^a y^-b with
    # 0 <= a < 30, b >= 1 and a - b = n
    assert [table.dim(1, n) for n in range(-4, 3)] == [30, 30, 30, 30, 29, 28, 27]
    assert all(table.dim(0, n) == 0 for n in range(-4, 3))


def test_duality_refuses_odd_generators_outside_characteristic_two():
    # over GF(3) x of codegree 3 squares to zero, so k[x, y] is not
    # polynomial: the duality route gave H^2 = 1 at -8, -7 and -5, where
    # Cech gives H^1 = 1 at -8..-5 (R_y / R)
    ring = ring_with_relations(PrimeField(3), [("x", 3), ("y", 2)], [])
    m = GradedModule.ring_as_module(ring)
    for call in (lambda: ext_dims(m), lambda: duality_table(m, range(-8, -4))):
        with pytest.raises(LocalCohomologyError, match="generator x"):
            call()
    table = cech_table(m, [parse_poly("x", ring), parse_poly("y", ring)], range(-8, -4))
    assert [table.dim(1, n) for n in range(-8, -4)] == [1, 1, 1, 1]
