"""The benchmark's three workloads: seeded inputs, operations and oracles.

Set-up turns catalog presentations into seeded text, parses it, and
expands the closed-form series the oracles need.  A pass then builds
fresh rings, modules and groups from the parsed polynomials, so no
component or matrix cache outlives it, and runs its operations one
after another.  Every expected value comes from the catalog or from
theory, never from an earlier run of the program:

- Hilbert prefixes: the catalog's closed-form series, expanded at t = 0.
- Cech tables: all cells certified; Grothendieck vanishing outside
  [depth, dim]; the Euler characteristic sum_i (-1)^i dim H^i(n), which
  by Grothendieck-Serre equals the coefficient of t^n in the series
  expanded at t = infinity; Gorenstein duality and the rational_x socle
  where the catalog records them.
- Resolutions over the hypersurface: the Betti numbers of the residue
  field, 1, e, e+1, e+1, ... from (1+t)^e / (1-t^2) with e = 3.
- Squeezed resolutions: the catalog's homology [1, 1, 2, 2, 2, 2, 2].
"""

from __future__ import annotations

from gradedalg import (fields, groups, hypersurface, localcoh, modrep,
                       parsing, presets, rings)
from gradedalg.modules import GradedModule

import seeded

# Each generator's image gets this many extra monomials.  One keeps the
# Macaulay matrices sparse, so different seeds cost about the same.
SUBSTITUTION_TERMS = 1

HILBERT_CODEGREE = 24


class Op:
    """One call into the library, timed on its own, and its oracle.

    run(ctx) returns the result; ctx is a dict shared by the operations
    of one pass.  check(result, ctx) returns a list of problems, empty
    when the output is correct.
    """

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# -- oracle helpers -------------------------------------------------------

def _at_zero(series, lo, hi):
    return [int(c) for c in series.expand(lo, hi)]


def _at_infinity(series, lo, hi):
    """{n: coefficient of t^n in the expansion of series at t = infinity}."""
    flipped = series.subs_inv()
    least = flipped.least_exponent()
    start = -hi if least is None else max(-hi, least)
    out = {n: 0 for n in range(lo, hi + 1)}
    if start <= -lo:
        for k, c in zip(range(start, -lo + 1), flipped.expand(start, -lo)):
            out[-k] = int(c)
    return out


class CechOracle:
    """What theory and the catalog say about one local cohomology table."""

    def __init__(self, window, top, series=None, grothendieck=None,
                 gorenstein=None, socle=None, h1_support=None):
        self.window = list(window)
        self.top = top
        self.grothendieck = grothendieck
        self.gorenstein = gorenstein
        self.socle = socle
        self.h1_support = None if h1_support is None else set(h1_support)
        self.euler = None
        self.ring_dims = None
        if series is not None:
            self.euler = _at_infinity(series, self.window[0], self.window[-1])
            if gorenstein is not None:
                r, a = gorenstein
                need = max(-n - r - a for n in self.window)
                dims = _at_zero(series, 0, max(need, 0))
                self.ring_dims = lambda m: dims[m] if 0 <= m < len(dims) else 0

    def problems(self, table, certified=True):
        out = []
        if certified and not table.all_certified():
            out.append("uncertified cells")
        dim = table.dim
        if self.grothendieck is not None:
            d, e = self.grothendieck
            seen = set()
            for i in range(self.top + 1):
                for n in self.window:
                    if dim(i, n):
                        seen.add(i)
                        if not e <= i <= d:
                            out.append(f"H^{i}({n}) = {dim(i, n)} outside [{e}, {d}]")
            if e not in seen or d not in seen:
                out.append(f"H^{e} or H^{d} vanishes on the whole window")
        if self.euler is not None:
            for n in self.window:
                chi = sum((-1) ** i * dim(i, n) for i in range(self.top + 1))
                if chi != self.euler[n]:
                    out.append(f"Euler characteristic {chi} at {n}, expected {self.euler[n]}")
        if self.gorenstein is not None:
            r, a = self.gorenstein
            for n in self.window:
                want = self.ring_dims(-n - r - a)
                if dim(r, n) != want:
                    out.append(f"Gorenstein duality: H^{r}({n}) = {dim(r, n)}, expected {want}")
        if self.socle is not None:
            for n in self.window:
                if dim(0, n) != (1 if n == self.socle else 0):
                    out.append(f"socle: H^0({n}) = {dim(0, n)}")
        if self.h1_support is not None:
            for n in self.window:
                if dim(1, n) != (1 if n in self.h1_support else 0):
                    out.append(f"H^1({n}) = {dim(1, n)}")
        return out


def _agreement(table, other, window, top):
    return [f"Cech {table.dim(i, n)} vs duality {other.dim(i, n)} at H^{i}({n})"
            for n in window for i in range(top + 1)
            if table.dim(i, n) != other.dim(i, n)]


# -- shared set-up --------------------------------------------------------

class Presentation:
    """A catalog presentation moved into seeded coordinates and parsed."""

    def __init__(self, preset, generators, seed, label, terms=SUBSTITUTION_TERMS):
        self.preset = preset
        self.generators = list(generators)
        field = preset.field()
        self.forward, _ = seeded.triangular_substitution(
            self.generators, seeded.rng_for(seed, label), terms,
            field.char, field.char != 2)
        self._free = rings.GradedRing(field, self.generators)

    def parse(self, text):
        return parsing.parse_poly(seeded.substitute(text, self.forward), self._free)

    def ring(self, relations=()):
        """A fresh ring over a fresh field, with its own empty caches."""
        return rings.GradedRing(self.preset.field(), self.generators, relations)


# -- presented-rings ------------------------------------------------------

# (preset, Cech ideal, window, stabilization buffer).  None takes the
# catalog's ideal or window.  In seeded coordinates sd16 with the default
# buffer 8 needs components up to codegree 40 and took 11-14 s on the
# window -2..2 alone (its catalog window is -8..8); n = -3..-2 with
# buffer 4 stops at codegree 32, takes about 2 s and still sees both H^1
# and H^2.  q8 has no ring ideal
# in the catalog; (z) is its normalization's ideal and rad(z) is the
# maximal ideal, so the table is the catalogued one.
PRESENTED = (
    ("sd16", None, (-3, -2), 4),
    ("q8", ["z"], (-12, 12), 8),
    ("rational_x", None, None, 8),
)


def presented_rings_setup(seed):
    specs = []
    for name, ideal, window, buffer in PRESENTED:
        p = presets.get_preset(name)
        pres = Presentation(p, p.generators, seed, name)
        ideal = ideal or p.cech_ideal
        lo, hi = window or p.cech_window
        series = p.series()
        specs.append({
            "name": name,
            "pres": pres,
            "relations": [pres.parse(r) for r in p.relations],
            "ideal": [pres.parse(g) for g in ideal],
            "buffer": buffer,
            "hilbert": _at_zero(series, 0, HILBERT_CODEGREE),
            "cech": CechOracle(range(lo, hi + 1), len(ideal), series,
                               grothendieck=p.grothendieck,
                               gorenstein=p.gorenstein[:2] if p.gorenstein else None,
                               socle=2 if name == "rational_x" else None),
        })
    return specs


def presented_rings_ops(specs):
    ops = []
    for s in specs:
        name = s["name"]

        def hilbert(ctx, s=s):
            ring = s["pres"].ring(s["relations"])
            ctx[s["name"]] = ring
            return ring.hilbert_prefix(HILBERT_CODEGREE)

        def cech(ctx, s=s):
            ring = ctx[s["name"]]
            return localcoh.cech_table(GradedModule.ring_as_module(ring),
                                       s["ideal"], s["cech"].window,
                                       buffer=s["buffer"])

        ops.append(Op(f"{name}.hilbert", hilbert,
                      lambda got, ctx, s=s: [] if got == s["hilbert"] else
                      [f"Hilbert prefix {got}, expected {s['hilbert']}"]))
        ops.append(Op(f"{name}.cech", cech,
                      lambda table, ctx, s=s: s["cech"].problems(table)))
    return ops


# -- syzygies -------------------------------------------------------------

GULLIKSEN_H = 12
GULLIKSEN_CODEGREE = 44
# f = x^3 + ... with x in codegree 2; the periodicity operator raises
# codegree by that plus 2
F_CODEGREE = 6
# k[x,y,z]/(f) with f in m^2: the residue field's Poincare series is
# (1+t)^3 / (1-t^2) = 1 + 3t + 4t^2 + 4t^3 + ...
RESIDUE_BETTI = [1, 3] + [4] * (GULLIKSEN_H - 1)


def syzygies_setup(seed):
    a4 = presets.get_preset("a4_ring")
    a4_pres = Presentation(a4, a4.generators, seed, "a4_ring")
    out = {
        "a4": {"pres": a4_pres, "f": a4_pres.parse(a4.gulliksen_f)},
        "tables": [],
    }
    d8 = presets.get_preset("d8")
    c2r2 = presets.get_preset("c2r2")
    g32 = presets.get_preset("g32n7")
    # (label, preset, module payload, ideal, window, oracle keywords)
    modules = (
        ("d8", d8, d8.norm, d8.norm["ideal"], d8.cech_window,
         dict(series=d8.series(), grothendieck=d8.grothendieck,
              gorenstein=d8.gorenstein[:2])),
        ("c2r2", c2r2, {"generators": c2r2.generators, "gen_shifts": [0],
                        "rel_cols": []},
         c2r2.cech_ideal, c2r2.cech_window,
         dict(series=c2r2.series(), grothendieck=c2r2.grothendieck,
              gorenstein=c2r2.gorenstein[:2])),
        ("g32n7", g32, g32.module, g32.module["ideal"], g32.cech_window,
         dict(grothendieck=g32.module_grothendieck, h1_support=g32.h1_support)),
    )
    for label, p, payload, ideal, (lo, hi), oracle in modules:
        pres = Presentation(p, payload["generators"], seed, label)
        out["tables"].append({
            "name": label,
            "pres": pres,
            "shifts": list(payload["gen_shifts"]),
            "cols": [[pres.parse(e) for e in col] for col in payload["rel_cols"]],
            "ideal": [pres.parse(g) for g in ideal],
            "oracle": CechOracle(range(lo, hi + 1), len(ideal), **oracle),
        })
    return out


def syzygies_ops(spec):
    a4 = spec["a4"]

    def hyper(ctx):
        h = hypersurface.HypersurfaceData(a4["pres"].ring(), a4["f"], codegree_window=48)
        ctx["a4"] = h
        return h

    def gulliksen(ctx):
        h = ctx["a4"]
        k = GradedModule.residue_field(h.quotient)
        return hypersurface.gulliksen_periodicity_check(
            h, k, h_max=GULLIKSEN_H, codegree_max=GULLIKSEN_CODEGREE)

    def gulliksen_problems(info, ctx):
        out = []
        if info["betti"] != RESIDUE_BETTI:
            out.append(f"Betti {info['betti']}, expected {RESIDUE_BETTI}")
        if info["operator_codegree"] != F_CODEGREE + 2:
            out.append(f"operator codegree {info['operator_codegree']}")
        if not info["differences_vanish"]:
            out.append("Betti differences do not vanish")
        return out

    ops = [
        Op("a4_ring.hypersurface", hyper,
           lambda h, ctx: [] if h.d == F_CODEGREE else [f"codegree of f is {h.d}"]),
        Op("a4_ring.gulliksen", gulliksen, gulliksen_problems),
    ]
    for t in spec["tables"]:
        def cech(ctx, t=t):
            ring = t["pres"].ring()
            module = GradedModule(ring, t["shifts"], t["cols"])
            ctx[t["name"]] = module
            table = localcoh.cech_table(module, t["ideal"], t["oracle"].window)
            ctx[t["name"] + ".cech"] = table
            return table

        def duality(ctx, t=t):
            return localcoh.duality_table(ctx[t["name"]], t["oracle"].window)

        def duality_problems(table, ctx, t=t):
            oracle = t["oracle"]
            out = oracle.problems(table, certified=False)
            cech_table = ctx.get(t["name"] + ".cech")
            if cech_table is None:
                return out + ["no Cech table to compare with"]
            top = max(table.top, cech_table.top)
            return out + _agreement(cech_table, table, oracle.window, top)

        ops.append(Op(f"{t['name']}.cech", cech,
                      lambda table, ctx, t=t: t["oracle"].problems(table)))
        ops.append(Op(f"{t['name']}.duality", duality, duality_problems))
    return ops


# -- squeezed-groups ------------------------------------------------------

SQUEEZED_STEPS = 6
SQUEEZED_FIELD_DEGREES = (2, 4)


def squeezed_groups_setup(seed):
    p = presets.get_preset("a4_squeezed")
    base = groups.group_preset(p.group)
    table, sylow = seeded.relabel_group(base.table, base.sylow,
                                        seeded.rng_for(seed, "a4"))
    return {"group": {"order": base.n, "table": table, "sylow": sylow, "char": base.p},
            "expected": list(p.expected_homology)}


def squeezed_groups_ops(spec):
    ops = []
    for k in SQUEEZED_FIELD_DEGREES:
        def squeezed(ctx, k=k):
            group = groups.group_from_dict(spec["group"])
            field = fields.ExtensionField(spec["group"]["char"], k)
            return modrep.squeezed_resolution(group, field, SQUEEZED_STEPS)[1]

        ops.append(Op(f"a4.gf{2 ** k}.squeezed", squeezed,
                      lambda got, ctx: [] if got == spec["expected"] else
                      [f"homology {got}, expected {spec['expected']}"]))
    return ops


WORKLOADS = {
    "presented-rings": (presented_rings_setup, presented_rings_ops),
    "syzygies": (syzygies_setup, syzygies_ops),
    "squeezed-groups": (squeezed_groups_setup, squeezed_groups_ops),
}
