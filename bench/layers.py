"""The library calls the traced run wraps, and the per-layer metrics.

Metric names are <module>.<callable>.<stat>.  calls counts spans and
self_s sums their self times.  misses counts calls that built something
new: a component object not returned before in the pass, or, for
mult_matrix, which has no cache, an argument not seen before in the
pass.  Field scalar calls are counted in a separate pass, because
wrapping every scalar operation in a span would swamp every self time.
"""

from __future__ import annotations

from gradedalg import (fields, hypersurface, koszul, linalg, localcoh, modrep,
                       modules, parsing, resolution, rings, series)

import spans


def _is_new(tracer, key, obj):
    """Count a miss for `key` when `obj` was not returned before in the pass."""
    seen = tracer.memo.setdefault(key, {})
    if id(obj) in seen:
        return False
    seen[id(obj)] = obj  # held, so its id is not reused within the pass
    tracer.count(key + ".misses")
    return True


def _module_component_after(tracer, args, result, _):
    _is_new(tracer, "modules.GradedModule.component", result)


def _ring_component_after(tracer, args, result, _):
    if _is_new(tracer, "rings.GradedRing.component", result):
        ring, n = args
        tracer.count("rings.GradedRing.component.monomials", len(ring.monomials(n)))


def _insert_before(tracer, args):
    space = args[0]
    return space.dim * space.ncols


def _insert_after(tracer, args, enlarged, cells):
    tracer.count("linalg.RowSpace.insert.cells", cells)
    if enlarged:
        tracer.count("linalg.RowSpace.insert.useful")


def _mult_matrix_after(tracer, args, result, _):
    module, poly, n = args
    seen = tracer.memo.setdefault("modules.GradedModule.mult_matrix", {})
    key = (id(module), frozenset(poly.items()), n)
    if key not in seen:
        seen[key] = module
        tracer.count("modules.GradedModule.mult_matrix.misses")


# (metric prefix, owner, attribute, stats, before, after)
TRACED = (
    ("rings.GradedRing.component", rings.GradedRing, "component",
     ("calls", "misses", "hit_ratio", "self_s", "monomials"), None, _ring_component_after),
    ("linalg.RowSpace.insert", linalg.RowSpace, "insert",
     ("calls", "self_s", "useful_ratio", "cells"), _insert_before, _insert_after),
    ("linalg.Matrix.mul", linalg.Matrix, "mul", ("calls", "self_s"), None, None),
    ("linalg.Matrix.rref", linalg.Matrix, "rref", ("calls", "self_s"), None, None),
    ("linalg.Matrix.apply", linalg.Matrix, "apply", ("calls", "self_s"), None, None),
    ("linalg.Matrix.kernel_basis", linalg.Matrix, "kernel_basis", ("calls", "self_s"), None, None),
    ("modrep.squeezed_resolution", modrep, "squeezed_resolution", ("calls", "self_s"), None, None),
    ("modrep.projective_cover", modrep, "projective_cover", ("calls", "self_s"), None, None),
    ("modrep.k_coradical_tower", modrep, "k_coradical_tower", ("calls", "self_s"), None, None),
    ("resolution.minimal_resolution", resolution, "minimal_resolution",
     ("calls", "self_s"), None, None),
    ("modules.PolyMatrix.matrix_at", modules.PolyMatrix, "matrix_at",
     ("calls", "self_s"), None, None),
    ("modules.GradedModule.component", modules.GradedModule, "component",
     ("calls", "misses", "self_s"), None, _module_component_after),
    ("modules.GradedModule.mult_matrix", modules.GradedModule, "mult_matrix",
     ("calls", "misses", "self_s"), None, _mult_matrix_after),
    ("localcoh.cech_table", localcoh, "cech_table", ("calls", "self_s"), None, None),
    ("localcoh.duality_table", localcoh, "duality_table", ("calls", "self_s"), None, None),
    ("localcoh.ext_dims", localcoh, "ext_dims", ("calls", "self_s"), None, None),
    ("koszul.KoszulComplex.homology_dim", koszul.KoszulComplex, "homology_dim",
     ("calls", "self_s"), None, None),
    ("hypersurface.HypersurfaceData", hypersurface.HypersurfaceData, "__init__",
     ("self_s",), None, None),
    ("hypersurface.gulliksen_periodicity_check", hypersurface,
     "gulliksen_periodicity_check", ("self_s",), None, None),
    ("parsing.parse_poly", parsing, "parse_poly", ("calls", "self_s"), None, None),
    ("series.SeriesExpr.expand", series.SeriesExpr, "expand", ("self_s",), None, None),
)

FIELD_CLASSES = (fields.Rationals, fields.PrimeField, fields.ExtensionField)
# metric -> the field methods it counts
FIELD_OPS = {
    "fields.mul_calls": ("mul",),
    "fields.addsub_calls": ("add", "sub", "neg"),
    "fields.inv_calls": ("inv",),
    "fields.validate_calls": ("validate",),
}

OVERHEAD = "trace.overhead_ratio"


def _unit(stat):
    if stat == "self_s":
        return "s"
    return "ratio" if stat.endswith("ratio") else "count"


def metric_units():
    """Every per-layer metric name, in report order, with its unit."""
    out = {}
    for prefix, _, _, stats, _, _ in TRACED:
        for stat in stats:
            out[f"{prefix}.{stat}"] = _unit(stat)
    for name in FIELD_OPS:
        out[name] = "count"
    out[OVERHEAD] = "ratio"
    return out


def traced_replacements(tracer):
    return [(owner, attr, tracer.wrap(prefix, getattr(owner, attr), before, after))
            for prefix, owner, attr, _, before, after in TRACED]


def counting_replacements(counts):
    """Wrappers that count field scalar calls into counts[metric]."""
    out = []
    for metric, methods in FIELD_OPS.items():
        counts[metric] = 0
        for cls in FIELD_CLASSES:
            for method in methods:
                out.append((cls, method, _counting(cls.__dict__[method], metric, counts)))
    return out


def _counting(fn, metric, counts):
    def counted(*args):
        counts[metric] += 1
        return fn(*args)
    return counted


def layer_metrics(tracer):
    """Per-layer metrics of the spans and counters the tracer holds."""
    by_name = spans.totals(tracer.spans)
    c = tracer.counters
    out = {}
    for prefix, _, _, stats, _, _ in TRACED:
        calls, self_s = by_name.get(prefix, (0, 0.0))
        misses = c.get(prefix + ".misses", 0)
        values = {
            "calls": calls,
            "self_s": self_s,
            "misses": misses,
            "hit_ratio": (calls - misses) / calls if calls else 0.0,
            "monomials": c.get(prefix + ".monomials", 0),
            "useful_ratio": c.get(prefix + ".useful", 0) / calls if calls else 0.0,
            "cells": c.get(prefix + ".cells", 0),
        }
        for stat in stats:
            out[f"{prefix}.{stat}"] = values[stat]
    return out
