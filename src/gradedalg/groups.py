"""Finite groups given by multiplication tables, with a designated
normal Sylow p-subgroup.  Covers the supported representation-theoretic
class: normal Sylow p-subgroup with p'-quotient.
"""

from __future__ import annotations

from itertools import permutations


class GroupError(ValueError):
    pass


def _p_part(n, p):
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_prime(p):
    """Refuse a Sylow prime that is not a prime int: p = 1 or True divides
    every order, and _p_part would never stop."""
    if not (_is_int(p) and p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))):
        raise GroupError(f"the Sylow prime p must be a prime integer, got {p!r}")


def _index_list(value, n, what):
    """`value` as a list of element indices, or GroupError."""
    if not isinstance(value, (list, tuple)):
        raise GroupError(f"{what} must be a list of element indices")
    for x in value:
        if not _is_int(x):
            raise GroupError(f"{what} entries must be integers, got {x!r}")
        if not 0 <= x < n:
            raise GroupError(f"{what} entry {x} is not an element index in [0, {n})")
    return list(value)


class GroupTable:
    """A finite group as an order-n multiplication table of indices."""

    def __init__(self, table, sylow=None, p=None):
        if not isinstance(table, (list, tuple)):
            raise GroupError("multiplication table must be a list of rows")
        self.n = len(table)
        self.table = [_index_list(row, self.n, "multiplication table row")
                      for row in table]
        if any(len(row) != self.n for row in self.table):
            raise GroupError("multiplication table must be square")
        self._check_axioms()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        if p is not None:
            _check_prime(p)
        self.p = p
        self.sylow = None
        if sylow is not None:
            if p is None:
                raise GroupError("sylow subgroup requires the prime p")
            self.sylow = sorted(set(_index_list(sylow, self.n, "sylow")))
            self._check_sylow()

    def mul(self, g, h):
        return self.table[g][h]

    def generators(self):
        """A generating set, chosen greedily: each element outside the
        subgroup generated so far is added, and the subgroup re-closed."""
        gens = []
        span = {self.identity}
        for g in range(self.n):
            if g in span:
                continue
            gens.append(g)
            queue = list(span)
            while queue:
                x = queue.pop()
                for s in gens:
                    y = self.table[s][x]
                    if y not in span:
                        span.add(y)
                        queue.append(y)
        return gens

    def _check_axioms(self):
        n = self.n
        rng = range(n)
        for row in self.table:
            if sorted(row) != list(rng):
                raise GroupError("row is not a permutation")
        for j in rng:
            col = [self.table[i][j] for i in rng]
            if sorted(col) != list(rng):
                raise GroupError("column is not a permutation")
        for a in rng:
            for b in rng:
                ab = self.table[a][b]
                for c in rng:
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupError("associativity fails")

    def _find_identity(self):
        for e in range(self.n):
            if all(self.table[e][g] == g and self.table[g][e] == g for g in range(self.n)):
                return e
        raise GroupError("no identity element")

    def _find_inverses(self):
        inv = [None] * self.n
        for g in range(self.n):
            for h in range(self.n):
                if self.table[g][h] == self.identity:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise GroupError("missing inverse")
        return inv

    def _check_sylow(self):
        p = self.p
        S = set(self.sylow)
        if len(S) != _p_part(self.n, p):
            raise GroupError("designated subset has the wrong order for a Sylow subgroup")
        if self.identity not in S:
            raise GroupError("Sylow subset must contain the identity")
        for a in S:
            for b in S:
                if self.table[a][b] not in S:
                    raise GroupError("Sylow subset not closed under multiplication")
        for g in range(self.n):
            gi = self.inverse[g]
            for s in S:
                if self.table[self.table[g][s]][gi] not in S:
                    raise GroupError("Sylow subgroup is not normal")
        if (self.n // len(S)) % p == 0:
            raise GroupError("quotient order is divisible by p")

    def quotient_by_sylow(self):
        """Cosets gP as frozensets plus the induced multiplication table."""
        S = self.sylow
        seen = {}
        cosets = []
        for g in range(self.n):
            c = frozenset(self.table[g][s] for s in S)
            if c not in seen:
                seen[c] = len(cosets)
                cosets.append(c)
        reps = [min(c) for c in cosets]
        table = []
        for a in reps:
            row = []
            for b in reps:
                prod = self.table[a][b]
                row.append(next(i for i, c in enumerate(cosets) if prod in c))
            table.append(row)
        return cosets, reps, GroupTable(table)


def _table_from_elements(elements, op):
    index = {e: i for i, e in enumerate(elements)}
    return [[index[op(a, b)] for b in elements] for a in elements]


def cyclic_group(n, p=None):
    els = list(range(n))
    table = _table_from_elements(els, lambda a, b: (a + b) % n)
    if p is None:
        p = next(q for q in range(2, n + 1) if n % q == 0)
    _check_prime(p)
    sylow = [e for e in els if _order_divides_p_power(e, n, p)]
    return GroupTable(table, sylow=sylow, p=p)


def _order_divides_p_power(e, n, p):
    k = _p_part(n, p)
    return (e * k) % n == 0


def klein_four_group():
    els = [(a, b) for a in range(2) for b in range(2)]
    table = _table_from_elements(els, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2))
    return GroupTable(table, sylow=list(range(4)), p=2)


def quaternion_group():
    # elements (sign, symbol): symbol 0=1, 1=i, 2=j, 3=k
    mul_sym = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    els = [(s, x) for x in range(4) for s in (1, -1)]

    def op(a, b):
        sgn, sym = mul_sym[(a[1], b[1])]
        return (a[0] * b[0] * sgn, sym)

    table = _table_from_elements(els, op)
    return GroupTable(table, sylow=list(range(8)), p=2)


def dihedral_group_8():
    els = [(a, b) for b in range(2) for a in range(4)]

    def op(x, y):
        a1, b1 = x
        a2, b2 = y
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        return (a, (b1 + b2) % 2)

    table = _table_from_elements(els, op)
    return GroupTable(table, sylow=list(range(8)), p=2)


def alternating_group_4():
    els = [p for p in permutations(range(4)) if _is_even(p)]

    def op(a, b):
        return tuple(a[b[i]] for i in range(4))

    table = _table_from_elements(els, op)
    sylow = [i for i, p in enumerate(els) if _perm_order(p) in (1, 2)]
    return GroupTable(table, sylow=sylow, p=2)


def _is_even(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


def _perm_order(p):
    n = len(p)
    order = 1
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = _lcm(order, length)
    return order


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


def c3c3_semidirect_c2():
    """(C3 x C3) with C2 acting by inversion; normal Sylow 3-subgroup."""
    els = [((a, b), c) for c in range(2) for a in range(3) for b in range(3)]

    def op(x, y):
        (a1, b1), c1 = x
        (a2, b2), c2 = y
        if c1:
            a2, b2 = (-a2) % 3, (-b2) % 3
        return (((a1 + a2) % 3, (b1 + b2) % 3), (c1 + c2) % 2)

    table = _table_from_elements(els, op)
    sylow = [i for i, e in enumerate(els) if e[1] == 0]
    return GroupTable(table, sylow=sylow, p=3)


GROUP_PRESETS = {
    "c2": lambda: cyclic_group(2, 2),
    "c4": lambda: cyclic_group(4, 2),
    "v4": klein_four_group,
    "q8": quaternion_group,
    "d8": dihedral_group_8,
    "a4": alternating_group_4,
    "c3c3_c2": c3c3_semidirect_c2,
}


def group_preset(name):
    try:
        return GROUP_PRESETS[name]()
    except KeyError:
        raise GroupError(f"unknown group preset {name!r}")


_GROUP_KEYS = ("order", "table", "sylow", "char")


def group_from_dict(data):
    """{"order": n, "table": [[...]], "sylow": [...], "char": p}

    Only these keys are read, and "table" is required; anything else is
    a GroupError, as is whatever GroupTable refuses.
    """
    if not isinstance(data, dict):
        raise GroupError("a group must be a JSON object")
    unknown = sorted(set(data) - set(_GROUP_KEYS))
    if unknown:
        raise GroupError(f"unknown group keys {unknown}; allowed: {list(_GROUP_KEYS)}")
    if "table" not in data:
        raise GroupError("a group needs a 'table' entry")
    group = GroupTable(data["table"], sylow=data.get("sylow"), p=data.get("char"))
    if "order" in data and not (_is_int(data["order"]) and data["order"] == group.n):
        raise GroupError("order field disagrees with table size")
    return group
