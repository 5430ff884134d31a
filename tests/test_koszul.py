from hypothesis import given, settings, strategies as st

from gradedalg.fields import PrimeField, Rationals
from gradedalg.koszul import KoszulComplex, koszul_homology, is_regular_sequence
from gradedalg.localcoh import _KoszulCochainSlice
from gradedalg.modules import GradedModule
from gradedalg.parsing import parse_poly, ring_with_relations

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
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    verdict, _ = is_regular_sequence(ring, [x, y])
    assert verdict is None  # R itself never vanishes inside the window


def test_koszul_homology_of_residue_field_is_exterior():
    ring = ring_with_relations(F2, [("x", 1), ("y", 1)], [])
    k = GradedModule.residue_field(ring)
    x, y = parse_poly("x", ring), parse_poly("y", ring)
    h = koszul_homology(ring, [x, y], range(0, 4), module=k)
    # all differentials vanish on k, so homology is the exterior algebra shape
    assert h[0][0] == 1 and h[1][1] == 2 and h[2][2] == 1


_recipes = st.sampled_from([
    (F2, [("x", 1)], ["x^3"]),
    (F2, [("x", 1), ("y", 1)], []),
    (F2, [("x", 1), ("y", 1)], ["x*y"]),
    (F2, [("x", 1), ("y", 2)], ["x^2"]),
    (Rationals(), [("u", 2), ("v", 2)], ["u^2"]),
    (PrimeField(3), [("x", 2), ("y", 2)], []),
])


@st.composite
def _complexes(draw):
    field, gens, rels = draw(_recipes)
    ring = ring_with_relations(field, gens, rels)
    nelts = draw(st.integers(1, 3))
    elements = []
    for _ in range(nelts):
        i = draw(st.integers(0, ring.ngens - 1))
        e = draw(st.integers(1, 2))
        elements.append(ring.ppow(ring.gen_poly(i), e))
    module = None
    if draw(st.booleans()):
        # a shifted cyclic module killed by a power of one generator
        i = draw(st.integers(0, ring.ngens - 1))
        module = GradedModule(ring, [draw(st.integers(-1, 1))],
                              [[ring.ppow(ring.gen_poly(i), draw(st.integers(1, 3)))]])
    return KoszulComplex(ring, elements, module)


@settings(max_examples=200, deadline=None)
@given(_complexes())
def test_random_koszul_differentials_square_to_zero(K):
    assert K.check_complex(range(0, 7))


@settings(max_examples=200, deadline=None)
@given(_complexes(), st.data())
def test_random_cech_slices_are_complexes_and_transitions_are_chain_maps(K, data):
    levels = st.lists(st.integers(1, 2), min_size=K.c, max_size=K.c)
    low = data.draw(levels)
    high = [a + b for a, b in zip(low, data.draw(levels))]
    n = data.draw(st.integers(-2, 2))
    lo, hi = (_KoszulCochainSlice(K.module, K.elements, K.codegrees, s, n)
              for s in (low, high))
    for s in (lo, hi):
        for i in range(K.c - 1):
            assert s.differential(i + 1).mul(s.differential(i)).is_zero()
    for i in range(K.c):
        assert (lo.transition_to(hi, i + 1).mul(lo.differential(i))
                == hi.differential(i).mul(lo.transition_to(hi, i)))
