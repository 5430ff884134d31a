import pytest

from gradedalg.groups import (GroupTable, GroupError, cyclic_group,
                              group_preset, group_from_dict, GROUP_PRESETS)


def test_all_presets_satisfy_the_axioms():
    for name in GROUP_PRESETS:
        g = group_preset(name)
        assert g.table[g.identity] == list(range(g.n))
        for x in range(g.n):
            assert g.table[x][g.inverse[x]] == g.identity


def test_preset_orders():
    orders = {name: group_preset(name).n for name in GROUP_PRESETS}
    assert orders == {"c2": 2, "c4": 4, "v4": 4, "q8": 8, "d8": 8,
                      "a4": 12, "c3c3_c2": 18}


def test_non_associative_table_rejected():
    with pytest.raises(GroupError):
        GroupTable([[0, 1], [1, 1]])


def test_sylow_subgroup_must_be_normal_and_full():
    # the two-element subgroup of C4 generated by the square is fine
    g = cyclic_group(4, 2)
    assert len(g.sylow) == 4
    with pytest.raises(GroupError):
        GroupTable(g.table, sylow=[g.identity], p=2)


def test_quotient_by_sylow_of_a4_is_cyclic_of_order_three():
    g = group_preset("a4")
    cosets, reps, q = g.quotient_by_sylow()
    assert q.n == 3
    assert all(q.table[a][b] == q.table[b][a] for a in range(3) for b in range(3))


def test_quotient_of_a_p_group_is_trivial():
    g = group_preset("q8")
    _, _, q = g.quotient_by_sylow()
    assert q.n == 1


def test_group_from_dict_round_trip():
    g = group_preset("v4")
    data = {"order": g.n, "table": g.table, "sylow": g.sylow, "char": g.p}
    h = group_from_dict(data)
    assert h.table == g.table and h.sylow == g.sylow


def test_quaternion_group_has_unique_involution():
    g = group_preset("q8")
    involutions = [x for x in range(g.n)
                   if x != g.identity and g.table[x][x] == g.identity]
    assert len(involutions) == 1


def _closure(g, gens):
    span, queue = {g.identity}, [g.identity]
    while queue:
        x = queue.pop()
        for s in gens:
            y = g.table[s][x]
            if y not in span:
                span.add(y)
                queue.append(y)
    return span


def test_greedy_generators_generate_and_none_is_redundant():
    for name in GROUP_PRESETS:
        g = group_preset(name)
        gens = g.generators()
        assert _closure(g, gens) == set(range(g.n))
        # each generator lies outside the subgroup of the ones before it
        for i, s in enumerate(gens):
            assert s not in _closure(g, gens[:i])
    assert group_preset("a4").generators() == [1, 3]
    assert group_preset("c4").generators() == [1]
