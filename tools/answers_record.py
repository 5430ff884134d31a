"""Record every answer the benchmark's workloads compute, to compare two checkouts.

Usage, from the repository root, with the parent commit checked out
elsewhere (git clone or git archive, not a worktree):

    python3 tools/answers_record.py --checkout ../parent --seed 1 --seed 7 \
        --seed 13 --out parent.json
    python3 tools/answers_record.py --checkout . --seed 1 --seed 7 \
        --seed 13 --out change.json
    cmp parent.json change.json

The file also holds, under a top-level "presets" key, the preset_run
report of every catalog preset, recorded once: each is a dict of named
checks with their verdicts and details, and no timing, so the
comparison covers the catalog as well as the workloads.

It imports the library and bench/workloads.py of the checkout and, for
each seed given (1 when none is), builds each workload's inputs at that
seed and runs one pass of its operations in order, as bench/run.py does,
untimed.  Several seeds are worth recording: squeezed-groups relabels
its groups by seed, so each seed reaches the algebra through other
element indices.  The file lists one record per seed, in ascending
order of seed, each with the seed and its workloads.  Every
operation's output goes into one JSON file: Hilbert prefixes, each Cech
or duality cell with its certified flag and the table's stopping rule,
the hypersurface's codegree and polynomial, the residue field's Betti
data and the squeezed homology, with the problems the workload's oracle
found (none, on correct code).  Each seed's record also holds, under
"squeezed_projective_dims", the projective dims of every squeezed-groups
resolution (squeezed_resolution(...)[0], which the workload leaves out),
so the comparison covers the projective covers' sizes as well as the
homology.  Keys are sorted and polynomials listed
term by term in sorted order, so the file depends on the answers alone:
two checkouts that compute the same answers write the same bytes.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def answer(value):
    """An operation's output as JSON data."""
    if hasattr(value, "certified") and hasattr(value, "dims"):  # a CohomologyTable
        return {"method": value.method, "top": value.top, "degrees": value.degrees,
                "stopping_rule": value.stopping_rule,
                "cells": [[i, n, value.dims[i, n], value.certified[i, n]]
                          for i, n in sorted(value.dims)]}
    if hasattr(value, "quotient") and hasattr(value, "f"):  # a HypersurfaceData
        return {"d": value.d, "f": answer(value.f)}
    if isinstance(value, dict):
        if all(isinstance(k, tuple) for k in value):  # a polynomial
            return sorted([list(m), str(c)] for m, c in value.items())
        return {str(k): answer(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [answer(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def load_workloads(checkout):
    """The checkout's bench/workloads.py module, with its library on the path."""
    src, bench = (os.path.join(os.path.abspath(checkout), d) for d in ("src", "bench"))
    sys.path[:0] = [src, bench]
    import gradedalg
    import workloads

    found = os.path.dirname(os.path.dirname(os.path.abspath(gradedalg.__file__)))
    if found != src:
        raise RuntimeError(f"imported gradedalg from {found}, not {src}")
    return workloads


def record(table, seed):
    """{workload: {operation: {"answer": .., "problems": [..]}}} for one
    pass of every workload of the WORKLOADS table at the seed."""
    out = {}
    for name, (setup, make_ops) in sorted(table.items()):
        ctx, ops = {}, {}
        for op in make_ops(setup(seed)):
            result = op.run(ctx)
            ops[op.name] = {"answer": answer(result), "problems": op.check(result, ctx)}
        out[name] = ops
    return out


def squeezed_projective_dims(workloads, seed):
    """{operation: projective dims} for each squeezed-groups resolution
    at the seed, on the group and fields its operations use."""
    from gradedalg import fields, groups, modrep

    spec = workloads.squeezed_groups_setup(seed)["group"]
    group = groups.group_from_dict(spec)
    p = spec["char"]
    return {f"a4.gf{p ** k}.squeezed": modrep.squeezed_resolution(
                group, fields.ExtensionField(p, k), workloads.SQUEEZED_STEPS)[0]
            for k in workloads.SQUEEZED_FIELD_DEGREES}


def record_presets():
    """{preset name: its preset_run report} for every catalog preset of
    the library load_workloads imported."""
    from gradedalg.presets import preset_names, preset_run

    return {name: preset_run(name) for name in preset_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=".")
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed to record; repeat for several (default 1)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = load_workloads(args.checkout)
    data = {"records": [{"seed": seed, "workloads": record(workloads.WORKLOADS, seed),
                         "squeezed_projective_dims": squeezed_projective_dims(workloads, seed)}
                        for seed in sorted(set(args.seed or [1]))],
            "presets": record_presets()}
    with open(args.out, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
