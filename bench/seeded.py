"""Seeded inputs for the benchmark: coordinate changes and relabellings.

The seed only chooses coordinates, never the answer.  A presented ring
k[x_1..x_n]/I is replaced by k[x_1..x_n]/alpha(I) for a graded triangular
automorphism alpha, and a group by a relabelling of its elements; every
invariant the benchmark checks is unchanged by either.

This module works on text and plain tables only, so it needs nothing
from the library under test.
"""

from __future__ import annotations

import random
import re

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rng_for(seed, label):
    """An independent generator per input, so inputs do not shift each other."""
    return random.Random(f"{seed}:{label}")


def _monomials(names, codegrees, target):
    """Exponent-vector monomials of total codegree `target`, as text."""
    out = []

    def rec(i, remaining, parts):
        if remaining == 0:
            out.append("*".join(parts))
            return
        if i == len(names):
            return
        for e in range(remaining // codegrees[i], -1, -1):
            factor = names[i] if e == 1 else f"{names[i]}^{e}"
            rec(i + 1, remaining - e * codegrees[i],
                parts + [factor] if e else parts)

    rec(0, target, [])
    return out


def triangular_substitution(generators, rng, terms, char, signed):
    """A graded unipotent triangular automorphism and its inverse, as text.

    generators: (name, codegree) pairs, ordered by codegree and then by
    their listed order.  Each generator maps to itself
    plus `terms` distinct monomials of its own codegree in the generators
    before it (fewer when fewer exist), with nonzero coefficients.  Odd
    generators of a signed (odd characteristic) ring stay fixed, so the
    map respects graded commutativity.  Returns (forward, inverse): dicts
    from generator name to the text of its image.
    """
    order = sorted(generators, key=lambda g: g[1])
    forward = {}
    tails = {}
    for i, (name, d) in enumerate(order):
        tail = []
        if not (signed and d % 2):
            earlier = [(n, e) for n, e in order[:i] if not (signed and e % 2)]
            candidates = _monomials([n for n, _ in earlier], [e for _, e in earlier], d)
            for mono in rng.sample(candidates, min(terms, len(candidates))):
                tail.append((_coefficient(rng, char), mono))
        tails[name] = tail
        forward[name] = name + "".join(_term_text(c, m) for c, m in tail)
    inverse = {}
    for name, _ in order:
        # psi(x) = x - tail(psi): the tail only involves earlier generators
        tail = "".join(_term_text(c, substitute(m, inverse)) for c, m in tails[name])
        inverse[name] = f"{name} - (0{tail})" if tail else name
    return forward, inverse


def _coefficient(rng, char):
    if char == 2:
        return 1
    if char == 0:
        return rng.choice((1, -1, 2, -2))
    return rng.randrange(1, char)


def _term_text(c, mono):
    if c == 1:
        return f" + {mono}"
    if c == -1:
        return f" - {mono}"
    return f" + {c}*{mono}" if c > 0 else f" - {-c}*{mono}"


def substitute(text, images):
    """Replace every generator name in `text` by its parenthesised image."""

    def repl(match):
        name = match.group(0)
        if name not in images:
            raise KeyError(f"no image for generator {name!r}")
        return f"({images[name]})"

    return _IDENT.sub(repl, text)


def relabel_group(table, sylow, rng, attempts=1000):
    """The same group with element g renamed pi(g) for a seeded permutation pi.

    pi is drawn among the permutations under which the least labels of the
    cosets gP of the Sylow subgroup P form a subgroup, as they do in the
    catalog's labelling.  Squeezed resolutions lift idempotents from those
    least labels, and their cost depends on it: for A4 about one
    relabelling in five otherwise needs 18% less work than the rest.
    """
    n = len(table)
    for _ in range(attempts):
        pi = list(range(n))
        rng.shuffle(pi)
        new = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                new[pi[a]][pi[b]] = pi[table[a][b]]
        new_sylow = sorted(pi[s] for s in sylow)
        if _least_coset_labels_form_a_subgroup(new, new_sylow):
            return new, new_sylow
    raise ValueError("no relabelling keeps the least coset labels a subgroup")


def _least_coset_labels_form_a_subgroup(table, sylow):
    least = {min(table[g][s] for s in sylow) for g in range(len(table))}
    return all(table[a][b] in least for a in least for b in least)
