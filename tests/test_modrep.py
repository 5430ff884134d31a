import pytest
from hypothesis import given, settings, strategies as st

from gradedalg import modrep
from gradedalg.fields import PrimeField, ExtensionField
from gradedalg.groups import group_preset
from gradedalg.linalg import Matrix, RowSpace
from gradedalg.modrep import (GroupAlgebra, GroupModule, RepresentationError,
                              radical, principal_indecomposables,
                              projective_cover, k_coradical_tower,
                              squeezed_resolution)

F2 = PrimeField(2)
F3 = PrimeField(3)
F4 = ExtensionField(2, 2)
F16 = ExtensionField(2, 4)


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


def test_the_radical_basis_is_built_once_per_algebra(monkeypatch):
    builds = _counting(monkeypatch, GroupAlgebra, "_build_radical_basis")
    dims, homology = squeezed_resolution(group_preset("a4"), F4, 6)
    assert homology == [1, 1, 2, 2, 2, 2, 2]
    assert len(builds) == 1  # not once per radical submodule
    A = GroupAlgebra(group_preset("a4"), F4)
    first = radical(A)
    assert radical(A) == first and len(first) == 9
    assert len(builds) == 2  # one more algebra, one more build


def test_a_caller_cannot_change_the_kept_radical_basis():
    A = GroupAlgebra(group_preset("a4"), F4)
    k = GroupModule.trivial(A)
    P, surj = projective_cover(k)
    rad = radical(A)
    with pytest.raises(TypeError):
        rad[0][0] = F4.one()
    with pytest.raises(AttributeError):
        rad.append(A.one())
    copy = [list(v) for v in rad]
    copy[0][0] = F4.add(copy[0][0], F4.one())
    copy.pop()
    assert A.radical_basis() is rad and len(rad) == 9
    again, again_surj = projective_cover(k)
    assert again.mats == P.mats and again_surj == surj


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


# -- the generator rule against the all-elements loops it replaced ---------
#
# submodule_span, restrict_to and k_coradical_tower act through the
# group's generators.  The loops below act through every group element,
# as those methods did before, and serve as the reference.

def _span_all_elements(module, vectors):
    span = RowSpace(module.field, module.dim)
    basis = []
    queue = list(vectors)
    while queue:
        v = queue.pop()
        if not span.insert(v):
            continue
        basis.append(v)
        for g in range(module.algebra.n):
            queue.append(module.mats[g].apply(v))
    return basis


def _restrict_all_elements(module, basis):
    if not basis:
        return GroupModule.zero(module.algebra), Matrix(module.field, [], ncols=0)
    incl = Matrix.from_columns(module.field, basis, module.dim)
    mats = []
    for g in range(module.algebra.n):
        cols = []
        for b in basis:
            coords = incl.solve(module.mats[g].apply(b))
            if coords is None:
                raise RepresentationError("basis does not span a submodule")
            cols.append(coords)
        mats.append(Matrix.from_columns(module.field, cols, len(basis)))
    return GroupModule(module.algebra, mats, check=False), incl


def _tower_all_elements(module):
    F = module.field

    def u_of(basis_vectors):
        vecs = []
        for v in basis_vectors:
            for g in range(module.algebra.n):
                gv = module.mats[g].apply(v)
                vecs.append([F.sub(x, y) for x, y in zip(gv, v)])
        span = RowSpace(F, module.dim)
        return [w for w in vecs if span.insert(w)]

    dim_prev = module.dim
    current = u_of(Matrix.identity(F, module.dim).rows)
    while len(current) < dim_prev:
        dim_prev = len(current)
        nxt = u_of(current)
        if len(nxt) == dim_prev:
            break
        current = nxt
    if len(u_of(current)) != len(current):
        raise RepresentationError("coradical tower failed to stabilize")
    return current


def _same_subspace(field, dim, a, b):
    span = RowSpace(field, dim)
    for v in a:
        span.insert(v)
    return span.dim == len(a) == len(b) and all(span.contains(v) for v in b)


_GENERATOR_CASES = [("v4", F2), ("q8", F2), ("d8", F2), ("a4", F4), ("a4", F16),
                    ("c3c3_c2", F3)]
_case_modules = {}


def _case_modules_of(name, field):
    """The regular module and a sum of two PIMs (the first and the last)."""
    key = (name, field)
    if key not in _case_modules:
        A = GroupAlgebra(group_preset(name), field)
        pims = principal_indecomposables(A)
        _case_modules[key] = [A.regular_module(),
                              pims[0]["module"].direct_sum(pims[-1]["module"])]
    return _case_modules[key]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_GENERATOR_CASES), st.integers(0, 1), st.data())
def test_generators_decide_spans_restrictions_and_towers(case, which, data):
    name, field = case
    module = _case_modules_of(name, field)[which]
    elements = field.elements()
    vectors = [[data.draw(st.sampled_from(elements)) for _ in range(module.dim)]
               for _ in range(data.draw(st.integers(1, 2)))]
    span = module.submodule_span(vectors)
    assert _same_subspace(field, module.dim, span, _span_all_elements(module, vectors))
    sub, incl = module.restrict_to(span)
    ref, ref_incl = _restrict_all_elements(module, span)
    assert sub.mats == ref.mats and incl == ref_incl
    assert _same_subspace(field, sub.dim, k_coradical_tower(sub), _tower_all_elements(sub))
    assert _same_subspace(field, module.dim, k_coradical_tower(module),
                          _tower_all_elements(module))


@pytest.mark.parametrize("name,field", _GENERATOR_CASES)
def test_squeezed_resolution_is_unchanged_by_the_generator_rule(monkeypatch, name, field):
    group = group_preset(name)
    steps = 2
    got = squeezed_resolution(group, field, steps)
    monkeypatch.setattr(GroupModule, "restrict_to", _restrict_all_elements)
    monkeypatch.setattr(modrep, "k_coradical_tower", _tower_all_elements)
    assert got == squeezed_resolution(group, field, steps)


@pytest.mark.parametrize("name,field", _GENERATOR_CASES)
def test_a_cover_checked_on_the_generators_commutes_with_every_element(name, field):
    A = GroupAlgebra(group_preset(name), field)
    for M in (GroupModule.trivial(A), A.regular_module()):
        P, surj = projective_cover(M)
        for g in range(A.n):
            assert M.mats[g].mul(surj) == surj.mul(P.mats[g])


@pytest.mark.parametrize("name,field", _GENERATOR_CASES)
def test_a_basis_fixed_by_one_generator_only_spans_no_submodule(name, field):
    # the span of the cyclic subgroup <s> inside the regular module: s
    # keeps it, and the next generator moves it out
    A = GroupAlgebra(group_preset(name), field)
    reg = A.regular_module()
    s, table = A.generators[0], A.group.table
    orbit = [A.group.identity]
    while table[s][orbit[-1]] != A.group.identity:
        orbit.append(table[s][orbit[-1]])
    basis = [A.basis_element(g) for g in orbit]
    assert len(A.generators) > 1
    assert all(reg.mats[s].apply(b) in basis for b in basis)
    with pytest.raises(RepresentationError, match="does not span a submodule"):
        reg.restrict_to(basis)


# -- the kept radical basis against a fresh build per call ----------------

def _radical_basis_every_call(algebra):
    """rad(kG) built anew on every call, as radical_basis did before it
    was kept on the algebra."""
    span = RowSpace(algebra.field, algebra.n)
    out = []
    e = algebra.group.identity
    for g in range(algebra.n):
        for s in algebra.group.sylow:
            if s == e:
                continue
            v = algebra.sub(algebra.basis_element(algebra.group.table[g][s]),
                            algebra.basis_element(g))
            if span.insert(v):
                out.append(v)
    return out


def _covers(name, field):
    A = GroupAlgebra(group_preset(name), field)
    covers = []
    for M in (GroupModule.trivial(A), A.regular_module()):
        P, surj = projective_cover(M)
        covers.append((P.mats, surj))
    return covers


@pytest.mark.parametrize("name,field", _GENERATOR_CASES)
def test_the_kept_radical_basis_changes_no_answer(monkeypatch, name, field):
    group = group_preset(name)
    got = squeezed_resolution(group, field, 2), _covers(name, field)
    monkeypatch.setattr(GroupAlgebra, "radical_basis", _radical_basis_every_call)
    assert got == (squeezed_resolution(group, field, 2), _covers(name, field))


# -- covers through one action matrix against per-vector actions ----------

def _cover_per_vector(module):
    """The projective cover as it was built before covers acted through
    one matrix per algebra element: act_algebra once per unit vector in
    the head loop and once per inclusion column in the cover map."""
    algebra, F = module.algebra, module.field
    if module.dim == 0:
        return GroupModule.zero(algebra), Matrix(F, [], ncols=0)
    covered = RowSpace(F, module.dim)
    covered.extend(module.radical_submodule())
    summands, generators = [], []
    for pim in principal_indecomposables(algebra):
        for unit in Matrix.identity(F, module.dim).rows:
            w = module.act_algebra(pim["idempotent"], unit)
            if covered.insert(w):
                summands.append(pim)
                generators.append(w)
    P = summands[0]["module"]
    for s in summands[1:]:
        P = P.direct_sum(s["module"])
    cols = [module.act_algebra(s["inclusion"].column(j), gen)
            for s, gen in zip(summands, generators) for j in range(s["dim"])]
    return P, Matrix.from_columns(F, cols, module.dim)


@pytest.mark.parametrize("name,field", _GENERATOR_CASES)
def test_the_cover_matches_the_per_vector_cover(monkeypatch, name, field):
    A = GroupAlgebra(group_preset(name), field)
    for M in (GroupModule.trivial(A), A.regular_module()):
        P, surj = projective_cover(M)
        ref, ref_surj = _cover_per_vector(M)
        assert P.mats == ref.mats and surj == ref_surj
    group = group_preset(name)
    got = squeezed_resolution(group, field, 2)
    monkeypatch.setattr(modrep, "projective_cover", _cover_per_vector)
    assert got == squeezed_resolution(group, field, 2)


def test_action_columns_are_the_actions_on_unit_vectors():
    A = GroupAlgebra(group_preset("a4"), F4)
    M = principal_indecomposables(A)[1]["module"]
    a = A.add(A.lifted_idempotents()[0][1], A.scale(F4.generator(), A.basis_element(5)))
    cols = M.action_columns(a)
    units = Matrix.identity(F4, M.dim).rows
    assert Matrix.from_columns(F4, cols, M.dim) == Matrix.from_columns(
        F4, [M.act_algebra(a, u) for u in units], M.dim)


# -- restricted modules build their other matrices on first read ----------

def test_a_restriction_builds_its_other_matrices_on_first_read(monkeypatch):
    A = GroupAlgebra(group_preset("a4"), F4)
    reg = A.regular_module()
    basis = reg.submodule_span([A.lifted_idempotents()[0][1]])
    products = _counting(monkeypatch, Matrix, "mul")
    mod, incl = reg.restrict_to(basis)
    assert products == []  # the generators' matrices are solved, not multiplied
    mats = mod.mats
    assert len(products) == A.n - 1  # one product per element but the identity
    assert mod.mats is mats and len(products) == A.n - 1  # kept
    assert mod.gens == [mats[s] for s in A.generators]
    assert mats == _restrict_all_elements(reg, basis)[0].mats


def test_a_squeezed_resolution_multiplies_only_what_it_reads(monkeypatch):
    # 257 Matrix.mul calls when every restriction built all twelve
    # matrices; the kernel modules N_i now build none of the eleven
    # others, and each M_i builds them once, for its projective cover
    products = _counting(monkeypatch, Matrix, "mul")
    dims, homology = squeezed_resolution(group_preset("a4"), F4, 6)
    assert homology == [1, 1, 2, 2, 2, 2, 2]
    assert dims == [4, 8, 8, 8, 8, 8, 8, 8]
    assert len(products) == 195
