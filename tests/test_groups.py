import json
import os
import subprocess
import sys

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


# -- group files: group_from_dict refuses every malformed input ------------

def _v4_data(**changes):
    g = group_preset("v4")
    data = {"order": g.n, "table": g.table, "sylow": g.sylow, "char": g.p}
    data.update(changes)
    return data


@pytest.mark.parametrize("data, named", [
    (_v4_data(char=0), "prime"),
    (_v4_data(char="2"), "prime"),
    ({k: v for k, v in _v4_data().items() if k != "table"}, "'table'"),
    ([_v4_data()], "JSON object"),
    (_v4_data(table=[[float(x) for x in row] for row in group_preset("v4").table]),
     "integers"),
    (_v4_data(table=[[x == 1 for x in row] for row in group_preset("c2").table],
              order=2, sylow=[0, 1]), "integers"),
    (_v4_data(sylow=[0, 1, 2, 4]), "sylow entry 4"),
    (_v4_data(sylow=[0, 1, True, 3]), "integers"),
    ({"table": group_preset("v4").table, "sylo": [0, 1, 2, 3], "char": 2}, "sylo"),
    (_v4_data(order="4"), "order"),
], ids=["char-0", "char-string", "no-table", "top-level-list", "float-entries",
        "bool-entries", "sylow-out-of-range", "bool-sylow", "unknown-key", "order-string"])
def test_malformed_group_data_is_a_group_error(data, named):
    with pytest.raises(GroupError, match=named):
        group_from_dict(data)


_REFUSE = """
import json, sys
from gradedalg.groups import GroupError, cyclic_group, group_from_dict
for build in (lambda: group_from_dict(json.loads(sys.argv[1])),
              lambda: cyclic_group(4, json.loads(sys.argv[1])["char"])):
    try:
        build()
    except GroupError as exc:
        print("GroupError:", exc)
"""


@pytest.mark.parametrize("p", [1, True], ids=["one", "true"])
def test_a_sylow_prime_below_two_is_refused_not_looped_on(p):
    # p = 1 divides every order, so the p-part of |G| never stopped growing;
    # the fresh process and its timeout keep such a loop out of the suite
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _REFUSE, json.dumps(_v4_data(char=p))],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    refusals = done.stdout.splitlines()
    assert len(refusals) == 2  # the group file and cyclic_group alike
    assert all(r.startswith("GroupError:") and "prime" in r for r in refusals)
