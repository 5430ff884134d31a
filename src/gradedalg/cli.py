"""Command-line interface: one binary, subcommand style.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 bad input.
All numeric output is exact; in JSON mode rationals are rendered as
strings so downstream consumers never round.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from .fields import FieldSpec, FieldError
from .series import DualityParams, check_cm_functional_equation, solve_almost_cm, NotAlmostCM
from .parsing import parse_series, parse_poly, ParseError, ring_with_relations
from .rings import PresentationError
from .modules import GradedModule
from .resolution import minimal_resolution, ext_growth_class, ResolutionError
from .koszul import is_regular_sequence
from .localcoh import cech_table, duality_table, LocalCohomologyError
from .hypersurface import (HypersurfaceData, HypersurfaceError,
                           matrix_factorization_from_resolution,
                           gulliksen_periodicity_check)
from .groups import group_preset, group_from_dict, GroupError, GROUP_PRESETS
from .modrep import squeezed_resolution, RepresentationError
from .presets import preset_names, preset_run, PresetError, shift_ledger_check


class InputError(ValueError):
    pass


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(report, as_json):
    if as_json:
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    else:
        for line in report.get("lines", []):
            print(line)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _check_keys(data, allowed, what):
    """Reject anything but a JSON object whose keys are all in `allowed`."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"unknown {what} keys {unknown}; allowed: {list(allowed)}")


def _ring_from_dict(data):
    _check_keys(data, ("char", "field_degree", "vars", "relations"), "ring")
    field = FieldSpec(int(data.get("char", 0)), int(data.get("field_degree", 1))).build()
    gens = []
    for v in data.get("vars", []):
        _check_keys(v, ("name", "codegree"), "variable")
        if "name" not in v or "codegree" not in v:
            raise InputError("each variable needs a 'name' and a 'codegree'")
        gens.append((v["name"], int(v["codegree"])))
    return ring_with_relations(field, gens, data.get("relations", []))


def _load_ring(path):
    return _ring_from_dict(_load_json(path))


def _load_module(path):
    data = _load_json(path)
    _check_keys(data, ("ring", "gen_shifts", "rel_columns"), "module")
    ring_spec = data.get("ring")
    if isinstance(ring_spec, str):
        ring = _load_ring(ring_spec)
    elif isinstance(ring_spec, dict):
        ring = _ring_from_dict(ring_spec)
    else:
        raise InputError("module file needs a 'ring' entry (inline or file path)")
    cols = [[parse_poly(src, ring) for src in col] for col in data.get("rel_columns", [])]
    return GradedModule(ring, data.get("gen_shifts", [0]), cols)


def _module_over(ring, path):
    """The module of a --module file, which must be over RING: the same
    field, generators (names and codegrees) and relations."""
    module = _load_module(path)
    other = module.ring
    differ = [what for what, mine, given in (
        ("field", other.field, ring.field),
        ("generators", other.gens, ring.gens),
        ("relations", _relation_counts(other), _relation_counts(ring))) if mine != given]
    if differ:
        raise InputError(f"the module's ring {other!r} is not RING {ring!r}: "
                         f"the {' and '.join(differ)} differ")
    return module


def _relation_counts(ring):
    """The ring's relations as a multiset, in any order."""
    return Counter(frozenset(rel.items()) for rel in ring.relations)


def _parse_window(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f"window must look like a..b, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"window bounds must be integers, got {text!r}")
    if lo > hi:
        raise InputError(f"window {text!r} is empty: {lo} > {hi}")
    return range(lo, hi + 1)


def _parse_ideal(text, ring):
    sources = [s.strip() for s in text.replace(";", ",").split(",") if s.strip()]
    if not sources:
        raise InputError("empty ideal")
    return [parse_poly(src, ring) for src in sources]


def _table_report(table):
    """The nonzero cells as JSON rows and as text lines; an uncertified
    cell prints as n:dim?."""
    rows, lines = {}, []
    for i in range(table.top + 1):
        nz = [(n, table.dim(i, n)) for n in table.degrees if table.dim(i, n)]
        if nz:
            rows[f"H^{i}"] = nz
            lines.append(f"  H^{i}: " + " ".join(
                f"{n}:{v}" + ("" if table.certified[(i, n)] else "?") for n, v in nz))
    return rows, lines


# -- subcommand handlers ------------------------------------------------

def _cmd_hilbert(args):
    ring = _load_ring(args.ring)
    n_max = args.nmax
    prefix = ring.hilbert_prefix(n_max)
    report = {"command": "hilbert", "prefix": prefix,
              "lines": [f"dims [0..{n_max}]: {prefix}"]}
    failed = False
    if args.series:
        expected = parse_series(args.series).expand(0, n_max)
        match = [Fraction(c) for c in prefix] == list(expected)
        report["series_matches"] = match
        report["lines"].append(f"series match: {'pass' if match else 'fail'}")
        failed = not match
    return report, failed


def _cmd_functional_eq(args):
    series = parse_series(args.series)
    params = DualityParams(args.dim, args.shift)
    cm = check_cm_functional_equation(series, params)
    report = {"command": "functional-eq", "cm": cm}
    parts = [f"CM: {'pass' if cm else 'fail'}"]
    almost = False
    if not cm:
        try:
            q = solve_almost_cm(series, params)
            almost = True
            report["almost_cm_q"] = q.to_str()
            parts.append(f"almost-CM: pass, q = {q.to_str()}")
        except NotAlmostCM:
            parts.append("almost-CM: fail")
    report["almost_cm"] = almost
    report["lines"] = ["; ".join(parts)]
    return report, not (cm or almost)


def _cmd_localcoh(args):
    ring = _load_ring(args.ring)
    module = _module_over(ring, args.module) if args.module else GradedModule.ring_as_module(ring)
    elements = _parse_ideal(args.ideal, module.ring)
    window = _parse_window(args.window)
    report = {"command": "localcoh", "method": args.method, "lines": []}
    failed = False
    tables = {}
    if args.method in ("cech", "both"):
        tables["cech"] = cech_table(module, elements, window,
                                    stab_bound=args.stab_bound)
    if args.method in ("duality", "both"):
        tables["duality"] = duality_table(module, window)
    for name, table in tables.items():
        report[name], lines = _table_report(table)
        report["lines"] += [f"[{name}]"] + lines
    # cells whose rank never held still over the window, zero ones included
    uncertified = sorted({cell for table in tables.values()
                          for cell, ok in table.certified.items() if not ok})
    report["uncertified"] = [list(cell) for cell in uncertified]
    # what a certified Cech cell rests on; duality cells are exact
    rule = report["stopping_rule"] = tables["cech"].stopping_rule if "cech" in tables else None
    if rule:
        report["lines"].append(
            f"stopping rule: window {rule['window']}, stab_bound {rule['stab_bound']}; "
            f"regular sequence: {'certified' if rule['regular_sequence'] else 'not certified'}")
    if uncertified:
        report["lines"].append("uncertified (i,n), marked ?: " +
                               " ".join(f"({i},{n})" for i, n in uncertified))
        failed = True
    if len(tables) == 2:
        agree = tables["cech"].first_difference(tables["duality"]) is None
        report["methods_agree"] = agree
        report["lines"].append(f"methods agree: {'pass' if agree else 'fail'}")
        failed = failed or not agree
    return report, failed


def _cmd_koszul(args):
    ring = _load_ring(args.ring)
    module = _module_over(ring, args.module) if args.module else GradedModule.ring_as_module(ring)
    # the module file builds its own copy of RING; the elements act on it
    elements = _parse_ideal(args.elements, module.ring)
    verdict, detail = is_regular_sequence(module.ring, elements,
                                          codegree_max=args.codegree_max,
                                          module=module)
    text = {True: "regular", False: "not regular", None: "inconclusive"}[verdict]
    report = {"command": "koszul", "regular": verdict, "detail": str(detail),
              "lines": [f"sequence is {text}"]}
    return report, verdict is False


def _cmd_resolution(args):
    ring = _load_ring(args.ring)
    module = _module_over(ring, args.module) if args.module else GradedModule.residue_field(ring)
    res = minimal_resolution(module, h_max=args.hmax, codegree_max=args.codegree_max)
    totals = res.betti.totals()
    # totals add up only the codegrees the window reaches
    report = {"command": "resolution", "betti": totals,
              "betti_totals_are_lower_bounds": True,
              "complete": res.betti.complete,
              "window": {"h_max": args.hmax, "codegree_max": args.codegree_max},
              "graded": {f"{i},{n}": c for (i, n), c in sorted(res.betti.entries.items())},
              "lines": [f"betti totals (lower bounds, codegrees <= {args.codegree_max}): "
                        f"{totals}",
                        f"window h_max {args.hmax}, codegree_max {args.codegree_max}: "
                        f"Betti numbers are exact only for codegrees <= {args.codegree_max}",
                        f"finite length witnessed: {res.betti.complete}"]}
    if len(totals) >= 11:
        cls = ext_growth_class(totals)
        report["growth"] = str(cls)
        report["lines"].append(f"growth class: {cls}")
    return report, False


def _cmd_hypersurface(args):
    ring = _load_ring(args.ring)
    if not ring.is_polynomial():
        raise InputError("the ambient ring of a hypersurface must have no relations")
    f = parse_poly(args.f, ring)
    h = HypersurfaceData(ring, f)
    # a matrix factorization resolves over the ambient ring, the
    # periodicity check over the quotient
    base = ring if args.mf else h.quotient
    module = _module_over(base, args.module) if args.module else GradedModule.residue_field(base)
    report = {"command": "hypersurface", "lines": []}
    failed = False
    if args.mf:
        mf = matrix_factorization_from_resolution(h, module,
                                                  codegree_max=args.codegree_max)
        ok = mf.verify()
        report["matrix_factorization_verified"] = ok
        report["mf_size"] = mf.size
        report["lines"].append(
            f"matrix factorization ({mf.size}x{mf.size}): "
            f"{'verified' if ok else 'FAILED'}")
        failed = failed or not ok
    else:
        info = gulliksen_periodicity_check(h, module, h_max=args.hmax,
                                           codegree_max=args.codegree_max)
        report.update({k: v for k, v in info.items()})
        report["lines"].append(f"betti: {info['betti']}")
        report["lines"].append(
            f"periodicity operator codegree {info['operator_codegree']}, "
            f"onset {info['onset']}, period {info['period']}: "
            f"{'pass' if info['differences_vanish'] else 'fail'}")
        failed = failed or not info["differences_vanish"]
    return report, failed


def _cmd_squeezed(args):
    if args.group_file:
        group = group_from_dict(_load_json(args.group_file))
    else:
        if args.group not in GROUP_PRESETS:
            raise InputError(f"unknown group preset {args.group!r}; "
                             f"choose from {sorted(GROUP_PRESETS)}")
        group = group_preset(args.group)
    if args.char == 0:
        raise InputError("squeezed resolutions need positive characteristic")
    field = FieldSpec(args.char, args.field_degree).build()
    dims, homology = squeezed_resolution(group, field, args.steps)
    report = {"command": "squeezed", "projective_dims": dims,
              "homology_dims": homology,
              "lines": [f"projective dims: {dims}",
                        f"homology dims [0..{args.steps}]: {homology}"]}
    return report, False


def _cmd_preset(args):
    if args.action == "list":
        names = preset_names()
        return {"command": "preset", "presets": names,
                "lines": names}, False
    report = preset_run(args.name)
    lines = []
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] and not c["pass"] else ""
        lines.append(f"{status}  {c['check']}{detail}")
    lines.append("all checks passed" if report["pass"] else "some checks FAILED")
    report["command"] = "preset"
    report["lines"] = lines
    return report, not report["pass"]


def _cmd_shift_ledger(args):
    violations = shift_ledger_check()
    lines = (["all shift identities hold"] if not violations else
             [f"VIOLATION {v}" for v in violations])
    return {"command": "shift-ledger", "violations": violations,
            "lines": lines}, bool(violations)


# -- parser -------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="gradedalg",
        description="exact computations with graded rings, local cohomology, "
                    "hypersurfaces, and group-algebra resolutions")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("hilbert", help="degreewise dimensions of a presented ring")
    sp.add_argument("ring")
    sp.add_argument("--nmax", type=int, default=24)
    sp.add_argument("--series", help="closed form to compare against")
    add_json(sp)
    sp.set_defaults(handler=_cmd_hilbert)

    sp = sub.add_parser("functional-eq", help="duality functional equations for a series")
    sp.add_argument("--series", required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--shift", type=int, required=True)
    add_json(sp)
    sp.set_defaults(handler=_cmd_functional_eq)

    sp = sub.add_parser("localcoh", help="local cohomology table of a ring or module")
    sp.add_argument("ring")
    sp.add_argument("--module")
    sp.add_argument("--ideal", required=True, help="comma-separated generators")
    sp.add_argument("--window", default="-20..20")
    sp.add_argument("--method", choices=["cech", "duality", "both"], default="cech")
    sp.add_argument("--stab-bound", type=int, default=16)
    add_json(sp)
    sp.set_defaults(handler=_cmd_localcoh)

    sp = sub.add_parser("koszul", help="regular-sequence test via Koszul homology")
    sp.add_argument("ring")
    sp.add_argument("--elements", required=True)
    sp.add_argument("--module")
    sp.add_argument("--codegree-max", type=int, default=24)
    add_json(sp)
    sp.set_defaults(handler=_cmd_koszul)

    sp = sub.add_parser("resolution", help="minimal free resolution and Betti growth")
    sp.add_argument("ring")
    sp.add_argument("--module", help="defaults to the residue field")
    sp.add_argument("--hmax", type=int, default=12)
    sp.add_argument("--codegree-max", type=int, default=24)
    add_json(sp)
    sp.set_defaults(handler=_cmd_resolution)

    sp = sub.add_parser("hypersurface", help="periodicity and matrix factorizations")
    sp.add_argument("ring", help="ambient ring without relations")
    sp.add_argument("--f", required=True, help="the hypersurface equation")
    sp.add_argument("--module", help="a module over the quotient, or with --mf over the "
                    "ambient ring; defaults to the residue field of that ring")
    sp.add_argument("--hmax", type=int, default=12)
    sp.add_argument("--codegree-max", type=int, default=44)
    sp.add_argument("--mf", action="store_true",
                    help="extract and verify a matrix factorization")
    add_json(sp)
    sp.set_defaults(handler=_cmd_hypersurface)

    sp = sub.add_parser("squeezed", help="squeezed resolution homology over a group algebra")
    sp.add_argument("--group", default="a4")
    sp.add_argument("--group-file", help="JSON multiplication table")
    sp.add_argument("--char", type=int, required=True)
    sp.add_argument("--field-degree", type=int, default=1)
    sp.add_argument("--steps", type=int, default=6)
    add_json(sp)
    sp.set_defaults(handler=_cmd_squeezed)

    sp = sub.add_parser("preset", help="run the worked-example catalog")
    psub = sp.add_subparsers(dest="action", required=True)
    lp = psub.add_parser("list")
    add_json(lp)
    lp.set_defaults(handler=_cmd_preset, action="list")
    rp = psub.add_parser("run")
    rp.add_argument("name")
    add_json(rp)
    rp.set_defaults(handler=_cmd_preset, action="run")

    sp = sub.add_parser("shift-ledger", help="verify the Gorenstein shift identities")
    add_json(sp)
    sp.set_defaults(handler=_cmd_shift_ledger)

    return p


def run_cli(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, failed = args.handler(args)
    except (InputError, ParseError, PresentationError, FieldError, GroupError,
            RepresentationError, HypersurfaceError, LocalCohomologyError,
            ResolutionError, PresetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, getattr(args, "json", False))
    return 1 if failed else 0


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
