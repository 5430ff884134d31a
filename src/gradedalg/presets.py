"""Worked-example catalog: rings with known Hilbert series, duality
behaviour and local cohomology, plus the Gorenstein shift ledger.

Each preset bundles a presentation (when one exists), the closed-form
series, the dimension/depth/shift data, and the checks preset_run
performs.  All presets are read-only module-level constants.
"""

from __future__ import annotations

from .fields import FieldSpec
from .series import DualityParams, check_cm_functional_equation, solve_almost_cm, NotAlmostCM
from .parsing import parse_series, parse_poly, ring_with_relations
from .rings import GradedRing
from .modules import GradedModule
from .localcoh import (cech_table, duality_table, grothendieck_vanishing_check,
                       radical_invariance_check, gorenstein_duality_check)
from .resolution import ext_growth_class
from .hypersurface import HypersurfaceData, gulliksen_periodicity_check
from .groups import group_preset
from .modrep import squeezed_resolution

SERIES_WINDOW = 24


class PresetError(KeyError):
    pass


class Preset:
    """One catalog entry; all fields optional except name and series."""

    def __init__(self, name, description, series, *, char=2, field_degree=1,
                 generators=None, relations=(), r=None, e=None, a=None,
                 cm_class=None, cm_equation=None, almost_q=None,
                 cech_ideal=None, cech_window=(-20, 20),
                 norm=None, duality=False, gorenstein=None, grothendieck=None,
                 module=None, module_grothendieck=None,
                 h1_support=None, radical_pair=None,
                 gulliksen_f=None, growth=None,
                 group=None, steps=None, expected_homology=None):
        self.name = name
        self.description = description
        self.series_src = series
        self.char = char
        self.field_degree = field_degree
        self.generators = generators
        self.relations = list(relations)
        self.r = r
        self.e = e
        self.a = a
        self.cm_class = cm_class
        self.cm_equation = cm_equation
        self.almost_q = almost_q
        self.cech_ideal = cech_ideal
        self.cech_window = cech_window
        self.norm = norm          # {"generators", "gen_shifts", "rel_cols", "ideal"}
        self.duality = duality
        self.gorenstein = gorenstein          # (r, a, defect)
        self.grothendieck = grothendieck      # (dim, depth) for the ring table
        self.module = module      # {"generators", "gen_shifts", "rel_cols", "ideal"}
        self.module_grothendieck = module_grothendieck
        self.h1_support = h1_support          # codegrees where H^1 is 1-dimensional
        self.radical_pair = radical_pair      # (gens_a, gens_b, window)
        self.gulliksen_f = gulliksen_f
        self.growth = growth
        self.group = group
        self.steps = steps
        self.expected_homology = expected_homology

    def field(self):
        return FieldSpec(self.char, self.field_degree).build()

    def series(self):
        return parse_series(self.series_src)

    def build_ring(self):
        if self.generators is None:
            return None
        return ring_with_relations(self.field(), self.generators, self.relations)

    def build_module(self, payload):
        """A finitely presented module over a freshly built coefficient ring."""
        ring = ring_with_relations(self.field(), payload["generators"],
                                   payload.get("relations", []))
        cols = []
        for col in payload.get("rel_cols", []):
            cols.append([parse_poly(src, ring) for src in col])
        return GradedModule(ring, payload["gen_shifts"], cols)


def _polynomial_preset(r):
    gens = [(f"x{i + 1}", 1) for i in range(r)]
    return Preset(
        f"c2r{r}",
        f"polynomial ring on {r} codegree-1 generators, characteristic 2",
        f"1/(1-t)^{r}", char=2, generators=gens,
        r=r, e=r, a=0, cm_class="CM", cm_equation=True,
        cech_ideal=[n for n, _ in gens] if r <= 2 else None,
        duality=True, gorenstein=(r, 0, 0), grothendieck=(r, r))


PRESETS = {}


def _register(p):
    PRESETS[p.name] = p


for _r in (1, 2, 3, 4):
    _register(_polynomial_preset(_r))

_register(Preset(
    "q8",
    "quaternion sphere quotient cohomology tensored with a codegree-4 "
    "polynomial generator",
    "(1+2*t+2*t^2+t^3)/(1-t^4)", char=2,
    generators=[("x", 1), ("y", 1), ("z", 4)],
    relations=["x^3", "x^2+x*y+y^2", "y^3"],
    r=1, e=1, a=0, cm_class="CM", cm_equation=True,
    norm={"generators": [("z", 4)], "gen_shifts": [0, 1, 1, 2, 2, 3],
          "rel_cols": [], "ideal": ["z"]},
    duality=True, gorenstein=(1, 0, 0), grothendieck=(1, 1)))

_register(Preset(
    "d8",
    "dihedral-of-order-8 invariant ring k[x,y,z]/(xy)",
    "1/(1-t)^2", char=2,
    generators=[("x", 1), ("y", 1), ("z", 2)],
    relations=["x*y"],
    r=2, e=2, a=0, cm_class="CM", cm_equation=True,
    norm={"generators": [("u", 1), ("z", 2)], "gen_shifts": [0, 1],
          "rel_cols": [], "ideal": ["u", "z"]},
    duality=True, gorenstein=(2, 0, 0), grothendieck=(2, 2)))

_register(Preset(
    "sd16",
    "semidihedral-of-order-16 ring: depth strictly below dimension",
    "1/((1-t)^2*(1+t^2))", char=2,
    generators=[("x", 1), ("y", 1), ("z", 3), ("t", 4)],
    relations=["x*y", "x^3", "x*z", "z^2+t*y^2"],
    r=2, e=1, a=0, cm_class="almostCM", cm_equation=False,
    almost_q="t^2/((1-t)*(1+t^2))",
    cech_ideal=["y", "t"], cech_window=(-8, 8), grothendieck=(2, 1)))

_register(Preset(
    "g32n7",
    "order-32 group number 7: series-only ring data plus the shifted "
    "cyclic module carrying the interesting H^1",
    "(1-t+t^2)/((1-t)^3*(1+t^2))", char=2,
    r=3, e=1, a=0, cm_class="neither", cm_equation=True,
    cech_window=(-16, 16),
    module={"generators": [("z", 1), ("x", 2), ("s", 4)],
            "gen_shifts": [1],
            "rel_cols": [["x"], ["z"]],
            "ideal": ["s"]},
    module_grothendieck=(1, 1),
    h1_support=[-3, -7, -11, -15]))

_register(Preset(
    "rational_x",
    "rational-coefficient example with depth 0 and a lonely socle class",
    "(1+t^5)/(1-t^2)+t^2", char=0,
    generators=[("u", 2), ("v", 2), ("p", 5)],
    relations=["u^2", "u*v", "u*p", "p^2"],
    r=1, e=0, a=-4, cm_class="almostCM", cm_equation=False,
    almost_q="1/t^2",
    cech_ideal=["v"], cech_window=(-12, 12), grothendieck=(1, 0),
    radical_pair=(["v"], ["u", "v", "p"], (-12, 12)),
    norm={"generators": [("v", 2)], "gen_shifts": [0, 5, 2],
          "rel_cols": [["0", "0", "v"]], "ideal": ["v"]},
    duality=True))

_register(Preset(
    "a4_squeezed",
    "alternating group on four letters over the four-element field: "
    "squeezed-resolution homology",
    "1", char=2, field_degree=2,
    group="a4", steps=6, expected_homology=[1, 1, 2, 2, 2, 2, 2]))

_register(Preset(
    "a4_ring",
    "alternating-group cohomology ring: a hypersurface with bounded "
    "Betti numbers",
    "(1-t^6)/((1-t^2)*(1-t^3)^2)", char=2,
    generators=[("x", 2), ("y", 3), ("z", 3)],
    relations=["x^3+y^2+y*z+z^2"],
    r=2, e=2, a=0, cm_class="CM", cm_equation=True,
    gulliksen_f="x^3+y^2+y*z+z^2", growth="bounded"))


def preset_names():
    return sorted(PRESETS)


def get_preset(name) -> Preset:
    if name not in PRESETS:
        raise PresetError(f"unknown preset {name!r}")
    return PRESETS[name]


def _check(report, name, ok, detail=""):
    report["checks"].append({"check": name, "pass": bool(ok), "detail": detail})


def _run_series_checks(p: Preset, report, ring):
    series = p.series()
    if ring is not None:
        expected = [c for c in series.expand(0, SERIES_WINDOW)]
        got = ring.hilbert_prefix(SERIES_WINDOW)
        _check(report, "hilbert_prefix", got == expected,
               f"presentation {got[:8]}... vs series {expected[:8]}...")
    if p.cm_equation is not None:
        params = DualityParams(p.r, p.a)
        holds = check_cm_functional_equation(series, params)
        _check(report, "cm_functional_equation", holds == p.cm_equation,
               f"holds={holds}, catalogued={p.cm_equation}")
    if p.almost_q is not None:
        params = DualityParams(p.r, p.a)
        try:
            q = solve_almost_cm(series, params)
            ok = q == parse_series(p.almost_q)
            detail = f"q = {q.to_str()}"
        except NotAlmostCM as exc:
            ok, detail = False, str(exc)
        _check(report, "almost_cm_pair", ok, detail)


def _run_localcoh_checks(p: Preset, report, ring):
    window = range(p.cech_window[0], p.cech_window[1] + 1)
    ring_table = None
    if p.cech_ideal is not None and ring is not None:
        elements = [parse_poly(src, ring) for src in p.cech_ideal]
        ring_table = cech_table(GradedModule.ring_as_module(ring),
                                elements, window)
        _check(report, "cech_certified", ring_table.all_certified())

    norm_tables = []
    if p.norm is not None:
        module = p.build_module(p.norm)
        elements = [parse_poly(src, module.ring) for src in p.norm["ideal"]]
        ct = cech_table(module, elements, window)
        norm_tables.append(("cech", ct))
        _check(report, "normalization_cech_certified", ct.all_certified())
        if p.duality:
            dt = duality_table(module, window)
            norm_tables.append(("duality", dt))
    elif p.duality and ring is not None and ring.is_polynomial():
        dt = duality_table(GradedModule.ring_as_module(ring), window)
        norm_tables.append(("duality", dt))

    tables = ([("cech", ring_table)] if ring_table is not None else []) + norm_tables
    if len(tables) >= 2:
        (na, ta), (nb, tb) = tables[-2], tables[-1]
        agree = all(ta.dim(i, n) == tb.dim(i, n)
                    for n in window for i in range(max(ta.top, tb.top) + 1))
        _check(report, "methods_agree", agree, f"{na} vs {nb}")

    if p.grothendieck is not None and tables:
        dim_r, depth_e = p.grothendieck
        ok, problems = grothendieck_vanishing_check(tables[0][1], dim_r, depth_e)
        _check(report, "grothendieck_vanishing", ok, str(problems[:3]))

    if p.gorenstein is not None and tables:
        r, a, defect = p.gorenstein
        table = tables[-1][1]
        ring_dims = (lambda m: ring.dim(m) if m >= 0 else 0)
        ok, mism = gorenstein_duality_check(table, ring_dims, r, a, defect)
        _check(report, "gorenstein_duality", ok, str(mism[:3]))

    if p.radical_pair is not None and ring is not None:
        gens_a, gens_b, (lo, hi) = p.radical_pair
        ea = [parse_poly(s, ring) for s in gens_a]
        eb = [parse_poly(s, ring) for s in gens_b]
        ok, detail = radical_invariance_check(
            GradedModule.ring_as_module(ring), ea, eb, range(lo, hi + 1))
        _check(report, "radical_invariance", ok, str(detail))

    if p.name == "rational_x" and ring_table is not None:
        socle = {n: ring_table.dim(0, n) for n in window}
        ok = all(v == (1 if n == 2 else 0) for n, v in socle.items())
        _check(report, "socle_in_codegree_2", ok)


def _run_module_checks(p: Preset, report):
    if p.module is None:
        return
    window = range(p.cech_window[0], p.cech_window[1] + 1)
    module = p.build_module(p.module)
    elements = [parse_poly(src, module.ring) for src in p.module["ideal"]]
    ct = cech_table(module, elements, window)
    dt = duality_table(module, window)
    agree = all(ct.dim(i, n) == dt.dim(i, n)
                for n in window for i in range(max(ct.top, dt.top) + 1))
    _check(report, "module_methods_agree", agree)
    if p.module_grothendieck is not None:
        ok, problems = grothendieck_vanishing_check(ct, *p.module_grothendieck)
        _check(report, "module_grothendieck_vanishing", ok, str(problems[:3]))
    if p.h1_support is not None:
        want = set(p.h1_support)
        ok = all(ct.dim(1, n) == (1 if n in want else 0) for n in window)
        _check(report, "h1_dims", ok,
               f"H^1 one-dimensional exactly at codegrees {sorted(want)}")


def _run_group_checks(p: Preset, report):
    if p.group is None:
        return
    group = group_preset(p.group)
    dims, homology = squeezed_resolution(group, p.field(), p.steps)
    ok = homology == p.expected_homology
    _check(report, "squeezed_homology", ok,
           f"got {homology}, expected {p.expected_homology}")


def _run_hypersurface_checks(p: Preset, report):
    if p.gulliksen_f is None:
        return
    base = GradedRing(p.field(), p.generators)
    f = parse_poly(p.gulliksen_f, base)
    h = HypersurfaceData(base, f)
    k = GradedModule.residue_field(h.quotient)
    info = gulliksen_periodicity_check(h, k, h_max=12, codegree_max=44)
    _check(report, "gulliksen_operator_codegree",
           info["operator_codegree"] == h.d + 2, str(info["operator_codegree"]))
    _check(report, "gulliksen_periodicity", info["differences_vanish"],
           f"onset {info['onset']}, period {info['period']}")
    if p.growth is not None:
        cls = ext_growth_class(info["betti"])
        _check(report, "betti_growth_class", str(cls) == p.growth, str(cls))


def preset_run(name):
    """Run every catalogued assertion for one preset; returns the report."""
    p = get_preset(name)
    report = {"name": name, "description": p.description, "checks": []}
    ring = p.build_ring()
    _run_series_checks(p, report, ring)
    _run_localcoh_checks(p, report, ring)
    _run_module_checks(p, report)
    _run_group_checks(p, report)
    _run_hypersurface_checks(p, report)
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report


# -- Gorenstein shift bookkeeping --------------------------------------

class ShiftLedger:
    """Entries (name, total, base, relative, note) with total = base + relative."""

    def __init__(self, entries=None):
        self.entries = list(entries if entries is not None else DEFAULT_SHIFT_ENTRIES)

    def add(self, name, total, base, relative, note=""):
        self.entries.append((name, int(total), int(base), int(relative), note))

    def check(self):
        """All entries violating total = base + relative; empty means pass."""
        return [entry for entry in self.entries
                if entry[1] != entry[2] + entry[3]]


DEFAULT_SHIFT_ENTRIES = [
    ("ko", -6, -4, -2,
     "connective real K-theory: total shift splits over the complex form"),
    ("tmf_p3", -22, -14, -8,
     "topological modular forms at the prime 3"),
    ("tmf_p2", -22, -10, -12,
     "topological modular forms at the prime 2"),
    ("identity", 0, 0, 0, "trivial composite"),
]


def shift_ledger_check(ledger=None):
    if ledger is None:
        ledger = ShiftLedger()
    return ledger.check()
