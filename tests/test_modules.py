import pytest
from hypothesis import given, settings, strategies as st

from gradedalg.fields import PrimeField, Rationals
from gradedalg.linalg import bits
from gradedalg.modules import FreeModule, PolyMatrix, GradedModule
from gradedalg.parsing import parse_poly
from gradedalg.rings import GradedRing, PresentationError


@pytest.fixture
def kxy():
    return GradedRing(PrimeField(2), [("x", 1), ("y", 1)])


def test_free_module_dims_add_over_shifts(kxy):
    free = FreeModule(kxy, [0, 2])
    assert [free.dim(n) for n in range(5)] == [1, 2, 4, 6, 8]


def test_coords_round_trip(kxy):
    free = FreeModule(kxy, [0, 1])
    element = [parse_poly("x^2+x*y", kxy), parse_poly("y", kxy)]
    coords = free.coords_of(element, 2)
    assert free.element_of(coords, 2) == element


def test_residue_field_dims(kxy):
    k = GradedModule.residue_field(kxy)
    assert [k.dim(n) for n in range(4)] == [1, 0, 0, 0]


def test_shifted_cyclic_module(kxy):
    m = GradedModule(kxy, [3])
    assert [m.dim(n) for n in range(6)] == [0, 0, 0, 1, 2, 3]


def test_presentation_with_relation_column(kxy):
    # coker of (x y)^T : R(-1) -> R^2, i.e. two generators glued along a line
    m = GradedModule(kxy, [0, 0],
                     [[parse_poly("x", kxy), parse_poly("y", kxy)]])
    assert [m.dim(n) for n in range(4)] == [2, 3, 4, 5]


def test_inhomogeneous_relation_column_rejected(kxy):
    with pytest.raises(PresentationError):
        GradedModule(kxy, [0, 1],
                     [[parse_poly("x", kxy), parse_poly("x", kxy)]])


def test_polymatrix_enforces_entry_codegrees(kxy):
    src = FreeModule(kxy, [1])
    tgt = FreeModule(kxy, [0])
    PolyMatrix(tgt, src, [[parse_poly("x", kxy)]])  # codegree 1 entry fits
    with pytest.raises(PresentationError):
        PolyMatrix(tgt, src, [[parse_poly("x^2", kxy)]])


def test_polymatrix_compose_matches_matrix_product(kxy):
    a = FreeModule(kxy, [0])
    b = FreeModule(kxy, [1])
    c = FreeModule(kxy, [2])
    f = PolyMatrix(a, b, [[parse_poly("x", kxy)]])
    g = PolyMatrix(b, c, [[parse_poly("y", kxy)]])
    fg = f.compose(g)
    for n in range(4):
        assert fg.matrix_at(n) == f.matrix_at(n).mul(g.matrix_at(n))


def test_mult_matrix_respects_relations():
    ring = GradedRing(PrimeField(2), [("x", 1)], [{(2,): 1}])
    m = GradedModule.ring_as_module(ring)
    assert m.mult_matrix(ring.gen_poly(0), 0).rank() == 1
    assert m.mult_matrix(ring.gen_poly(0), 1).rank() == 0  # x*x = 0 here


def test_module_over_rationals():
    ring = GradedRing(Rationals(), [("v", 2)])
    m = GradedModule(ring, [0, 5, 2], [[{}, {}, parse_poly("v", ring)]])
    assert [m.dim(n) for n in range(9)] == [1, 0, 2, 0, 1, 1, 1, 1, 1]


# -- coordinates round trips, over GF(2) as packed ints --------------------

def _poly(draw, ring, d, max_terms=3):
    """A polynomial drawn from the monomials of codegree d, nonzero when
    there are any."""
    monos = ring.monomials(d)
    if not monos:
        return {}
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    return {m: ring.field.from_int(draw(st.integers(1, ring.field.char - 1))) for m in chosen}


@st.composite
def _presented_modules(draw):
    """A module over GF(2) or GF(3) (where odd generators anticommute):
    one to three generators of codegree 1 to 3, up to two relations, one
    to three module generators and up to three relation columns, a
    codegree n that the columns' codegrees mostly do not pass, and a
    polynomial vector of the free module at n."""
    field = draw(st.sampled_from([PrimeField(2), PrimeField(3)]))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ring = GradedRing(field, [(f"x{i}", d) for i, d in enumerate(degrees)])
    ring = GradedRing(field, ring.gens, [_poly(draw, ring, draw(st.integers(2, 4)))
                                         for _ in range(draw(st.integers(0, 2)))])
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(max(shifts), max(n, max(shifts)) + 1))
        columns.append([_poly(draw, ring, d - s) for s in shifts])
    module = GradedModule(ring, shifts, columns)
    element = [_poly(draw, ring, n - s) for s in shifts]
    return module, n, element


@settings(max_examples=150, deadline=None)
@given(_presented_modules())
def test_coordinates_round_trip_through_free_and_quotient(case):
    module, n, element = case
    free, ring = module.free, module.ring
    packed = ring.field == PrimeField(2)
    coords = free.coords_of(element, n)
    assert isinstance(coords, int) == packed
    # element_of gives back e in normal form: the same coordinates, and
    # only basis monomials
    back = free.element_of(coords, n)
    assert free.coords_of(back, n) == coords
    for j, s in enumerate(free.shifts):
        assert set(back[j]) <= set(ring.component(n - s).basis)
    # lift(reduce(v)) is v modulo the relations
    comp = module.component(n)
    quotient = comp.reduce(coords)
    lifted = comp.lift(quotient)
    assert comp.reduce(lifted) == quotient
    assert isinstance(quotient, int) == isinstance(lifted, int) == packed
    if packed:
        # dict coordinates name the same vectors as the ints
        as_dict = dict.fromkeys(bits(coords), 1)
        assert free.element_of(as_dict, n) == back
        assert comp.reduce(as_dict) == quotient
        lifted_dict = comp.lift(dict.fromkeys(bits(quotient), 1))
        assert lifted_dict == dict.fromkeys(bits(lifted), 1)
        assert free.element_of(lifted_dict, n) == free.element_of(lifted, n)

