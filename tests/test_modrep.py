import pytest
from hypothesis import given, settings, strategies as st

from gradedalg.fields import PrimeField, ExtensionField
from gradedalg.groups import group_preset
from gradedalg.linalg import RowSpace
from gradedalg.modrep import (GroupAlgebra, GroupModule, RepresentationError,
                              radical, principal_indecomposables,
                              projective_cover, k_coradical_tower,
                              squeezed_resolution)

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = ExtensionField(2, 2)


def test_radical_dimensions():
    assert len(radical(GroupAlgebra(group_preset("c2"), F2))) == 1
    assert len(radical(GroupAlgebra(group_preset("v4"), F2))) == 3
    assert len(radical(GroupAlgebra(group_preset("a4"), F4))) == 9


def test_characteristic_must_match_the_sylow_prime():
    with pytest.raises(RepresentationError):
        GroupAlgebra(group_preset("a4"), F3)


def test_insufficient_field_reported():
    # the order-three quotient needs cube roots of unity, missing over GF(2)
    with pytest.raises(RepresentationError):
        GroupAlgebra(group_preset("a4"), F2).characters_of_quotient()


def test_three_principal_indecomposables_of_dimension_four():
    pims = principal_indecomposables(GroupAlgebra(group_preset("a4"), F4))
    assert sorted(p["dim"] for p in pims) == [4, 4, 4]
    assert sum(p["dim"] for p in pims) == 12


def test_lifted_idempotents_are_idempotent_and_orthogonal():
    A = GroupAlgebra(group_preset("a4"), F4)
    idems = [e for _, e in A.lifted_idempotents()]
    total = A.zero()
    for e in idems:
        assert A.mul(e, e) == e
        total = A.add(total, e)
    assert total == A.one()
    for i in range(len(idems)):
        for j in range(len(idems)):
            if i != j:
                assert A.mul(idems[i], idems[j]) == A.zero()


@pytest.mark.parametrize("name,field", [("a4", F4), ("d8", F2)])
def test_one_wrong_action_matrix_is_rejected(name, field):
    A = GroupAlgebra(group_preset(name), field)
    mats = A.regular_module().mats
    G = A.group
    GroupModule(A, mats)  # the regular module itself passes
    for g in range(G.n):
        if g == G.identity:
            continue
        wrong = list(mats)
        wrong[g] = mats[G.identity]  # the regular representation is faithful
        with pytest.raises(RepresentationError):
            GroupModule(A, wrong)


def test_projective_cover_of_a_p_group_is_the_regular_module():
    A = GroupAlgebra(group_preset("q8"), F2)
    P, surj = projective_cover(GroupModule.trivial(A))
    assert P.dim == 8
    assert surj.rank() == 1


def test_projective_cover_of_k_over_a4():
    A = GroupAlgebra(group_preset("a4"), F4)
    P, surj = projective_cover(GroupModule.trivial(A))
    assert P.dim == 4
    assert len(P.radical_submodule()) == 3


def test_cover_kernel_sits_in_the_radical():
    A = GroupAlgebra(group_preset("a4"), F4)
    P, surj = projective_cover(GroupModule.trivial(A))
    rad = RowSpace(F4, P.dim)
    for v in P.radical_submodule():
        rad.insert(v)
    for v in surj.kernel_basis():
        assert rad.contains(v)


def test_coradical_tower_vanishes_over_p_groups():
    A = GroupAlgebra(group_preset("v4"), F2)
    reg = A.regular_module()
    assert k_coradical_tower(reg) == []


def test_coradical_tower_of_the_cover_is_its_radical():
    A = GroupAlgebra(group_preset("a4"), F4)
    P, _ = projective_cover(GroupModule.trivial(A))
    assert len(k_coradical_tower(P)) == 3


@pytest.mark.parametrize("name,field", [
    ("c2", F2), ("c4", F2), ("v4", F2), ("q8", F2), ("d8", F2),
])
def test_p_group_homology_is_the_group_algebra_in_degree_zero(name, field):
    group = group_preset(name)
    dims, homology = squeezed_resolution(group, field, 3)
    assert homology == [group.n, 0, 0, 0]
    assert dims[0] == group.n and dims[1] == 0


def test_alternating_group_homology_dims():
    dims, homology = squeezed_resolution(group_preset("a4"), F4, 6)
    assert homology == [1, 1, 2, 2, 2, 2, 2]


def test_odd_characteristic_semidirect_product_runs():
    group = group_preset("c3c3_c2")
    dims, homology = squeezed_resolution(group, F3, 1)
    assert dims[0] == 9  # projective cover of k has the Sylow subgroup's order
    assert homology[0] >= 1


_group_fields = st.sampled_from([("c2", F2), ("c4", F2), ("v4", F2),
                                 ("d8", F2), ("a4", F2)])
_regular_cache = {}


def _cached_regular(name, field):
    if name not in _regular_cache:
        A = GroupAlgebra(group_preset(name), field)
        _regular_cache[name] = (A, A.regular_module())
    return _regular_cache[name]


@settings(max_examples=200, deadline=None)
@given(_group_fields, st.data())
def test_coradical_tower_certificates(gf, data):
    # the tower lands on a submodule with no trivial quotient, and the
    # quotient above it is killed by iterating the augmentation action
    name, field = gf
    A, reg = _cached_regular(name, field)
    vec = [field.from_int(data.draw(st.integers(0, field.char)))
           for _ in range(A.n)]
    basis = reg.submodule_span([vec])
    if not basis:
        return
    mod, _ = reg.restrict_to(basis)
    tower = k_coradical_tower(mod)
    assert len(tower) <= mod.dim
    if tower:
        sub, _ = mod.restrict_to(tower)
        # stability: applying the tower construction again changes nothing
        assert len(k_coradical_tower(sub)) == sub.dim


def _counting(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(1)
        return method(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_principal_indecomposables_are_built_once_per_algebra(monkeypatch):
    builds = _counting(monkeypatch, GroupAlgebra, "regular_module")
    A = GroupAlgebra(group_preset("a4"), F4)
    P, _ = projective_cover(GroupModule.trivial(A))
    projective_cover(P)
    assert len(builds) == 1
    assert principal_indecomposables(A) is principal_indecomposables(A)
    dims, homology = squeezed_resolution(group_preset("a4"), F4, 6)
    assert homology == [1, 1, 2, 2, 2, 2, 2]
    assert len(builds) == 2  # one more algebra, one more regular module


def test_restriction_eliminates_the_inclusion_once(monkeypatch):
    A = GroupAlgebra(group_preset("a4"), F4)
    reg = A.regular_module()
    basis = reg.submodule_span([A.lifted_idempotents()[0][1]])
    eliminations = _counting(monkeypatch, RowSpace, "back_substitute")
    mod, incl = reg.restrict_to(basis)
    assert len(eliminations) == 1
    assert mod.dim == len(basis) == 4
    mod._check_action()


def test_restriction_to_a_non_submodule_is_rejected():
    A = GroupAlgebra(group_preset("c2"), F2)
    reg = A.regular_module()
    # the identity element alone: the other group element moves it out
    with pytest.raises(RepresentationError, match="does not span a submodule"):
        reg.restrict_to([A.one()])
