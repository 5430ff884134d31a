"""Tests of the benchmark itself: inputs, oracles, tracing and reporting.

Run from the repository root with: python3 -m pytest bench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import gradedalg  # noqa: E402
from gradedalg import groups, hypersurface, localcoh, parsing, presets, resolution  # noqa: E402
from gradedalg.rings import GradedRing  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import seeded  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# every presentation the workloads move into seeded coordinates
PRESENTATIONS = [
    ("sd16", presets.get_preset("sd16").generators),
    ("q8", presets.get_preset("q8").generators),
    ("rational_x", presets.get_preset("rational_x").generators),
    ("a4_ring", presets.get_preset("a4_ring").generators),
    ("d8", presets.get_preset("d8").norm["generators"]),
    ("c2r2", presets.get_preset("c2r2").generators),
    ("g32n7", presets.get_preset("g32n7").module["generators"]),
]


def _cheap_presented(seed=3):
    """presented-rings without sd16, which takes most of a pass."""
    specs = [s for s in workloads.presented_rings_setup(seed) if s["name"] != "sd16"]
    return specs, workloads.presented_rings_ops(specs)


# -- seeded inputs ------------------------------------------------------

@pytest.mark.parametrize("label, gens", PRESENTATIONS)
def test_same_seed_gives_identical_substitutions(label, gens):
    char = presets.get_preset(label).char
    first = seeded.triangular_substitution(gens, seeded.rng_for(11, label), 1, char, char != 2)
    again = seeded.triangular_substitution(gens, seeded.rng_for(11, label), 1, char, char != 2)
    assert first == again


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_parsed_inputs(name):
    setup, make_ops = workloads.WORKLOADS[name]

    def inputs(spec):
        if name == "presented-rings":
            return [(s["relations"], s["ideal"], s["hilbert"]) for s in spec]
        if name == "syzygies":
            return [spec["a4"]["f"]] + [(t["cols"], t["ideal"]) for t in spec["tables"]]
        return spec

    assert inputs(setup(5)) == inputs(setup(5))


@pytest.mark.parametrize("label, gens", PRESENTATIONS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_substitution_is_invertible(label, gens, seed):
    p = presets.get_preset(label)
    signed = p.char != 2
    forward, inverse = seeded.triangular_substitution(
        gens, seeded.rng_for(seed, label), 3, p.char, signed)
    ring = GradedRing(p.field(), gens)
    for name, _ in gens:
        x = ring.gen_poly(ring.gen_index[name])
        # psi(phi(x)) = x and phi(psi(x)) = x
        assert parsing.parse_poly(seeded.substitute(forward[name], inverse), ring) == x
        assert parsing.parse_poly(seeded.substitute(inverse[name], forward), ring) == x
        assert ring.poly_codegree(parsing.parse_poly(forward[name], ring)) == dict(gens)[name]


def test_substitution_leaves_odd_generators_of_signed_rings_alone():
    gens = presets.get_preset("rational_x").generators
    forward, _ = seeded.triangular_substitution(gens, seeded.rng_for(1, "x"), 3, 0, True)
    assert forward["p"] == "p"
    assert forward["v"] != "v"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_group_is_a_group_with_a_normal_sylow(seed):
    base = groups.group_preset("a4")
    table, sylow = seeded.relabel_group(base.table, base.sylow, seeded.rng_for(seed, "a4"))
    assert table != base.table
    assert seeded._least_coset_labels_form_a_subgroup(table, sylow)
    group = groups.group_from_dict({"order": 12, "table": table, "sylow": sylow, "char": 2})
    assert group.n == 12 and len(group.sylow) == 4


# -- oracles and failure counting ---------------------------------------

def test_passes_are_correct_at_the_seed_state():
    specs, ops = _cheap_presented()
    outcome = run.Outcome()
    run.run_pass(ops, outcome)
    assert outcome.attempted == len(ops) and outcome.failed == 0


def test_corrupted_expectation_counts_as_a_failure_and_the_pass_goes_on():
    specs, ops = _cheap_presented()
    specs[0]["hilbert"][3] += 1
    outcome = run.Outcome()
    run.run_pass(ops, outcome)
    assert outcome.attempted == len(ops)
    assert outcome.failed == 1


def test_raising_operation_counts_as_a_failure():
    def boom(ctx):
        raise ValueError("broken")

    ops = [workloads.Op("boom", boom, lambda r, ctx: []),
           workloads.Op("fine", lambda ctx: 1, lambda r, ctx: [])]
    outcome = run.Outcome()
    run.run_pass(ops, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_cech_oracle_rejects_a_wrong_table():
    p = presets.get_preset("c2r1")
    oracle = workloads.CechOracle(range(-3, 3), 1, p.series(), grothendieck=(1, 1))
    table = localcoh.CohomologyTable(range(-3, 3), 1, "test")
    for n in range(-3, 3):
        table.set(1, n, 1 if n < 0 else 0)
    assert oracle.problems(table) == []
    table.set(1, -2, 2)
    assert oracle.problems(table)


# -- spans and self times ------------------------------------------------

def test_self_time_subtracts_nested_children():
    s = [["root", 0.0, 10.0, -1],
         ["a", 1.0, 4.0, 0],
         ["leaf", 2.0, 3.0, 1],
         ["b", 5.0, 6.0, 0]]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]
    assert spans.totals(s) == {"root": (1, 6.0), "a": (1, 2.0), "leaf": (1, 1.0), "b": (1, 1.0)}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    s = [["root", 0.0, 10.0, -1],
         ["a", 1.0, 4.0, 0],
         ["b", 3.0, 5.0, 0],
         ["c", 9.0, 12.0, 0]]
    assert spans.self_times(s)[0] == 10.0 - 4.0 - 1.0


def test_tracer_records_parents_and_hook_values():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    seen = []

    def inner(x):
        return x + 1

    inner_t = tracer.wrap("inner", inner, before=lambda t, args: args[0],
                          after=lambda t, args, result, value: seen.append((value, result)))

    def outer(x):
        return inner_t(x) * 2

    assert tracer.wrap("outer", outer)(3) == 8
    assert [(sp[0], sp[3]) for sp in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert seen == [(3, 4)]
    assert all(sp[2] > sp[1] for sp in tracer.spans)


def test_patching_covers_every_binding_and_restores_it():
    original = resolution.minimal_resolution
    method = GradedRing.__dict__["component"]
    tracer = spans.Tracer()
    mods = spans.library_modules(gradedalg, workloads)
    with spans.patched(layers.traced_replacements(tracer), mods):
        for mod in (resolution, localcoh, hypersurface, gradedalg):
            assert mod.minimal_resolution is not original
        assert GradedRing.__dict__["component"] is not method
    for mod in (resolution, localcoh, hypersurface, gradedalg):
        assert mod.minimal_resolution is original
    assert GradedRing.__dict__["component"] is method


def test_consecutive_traced_passes_repeat_every_count():
    specs, _ = _cheap_presented()
    tracer = spans.Tracer()
    mods = spans.library_modules(gradedalg, workloads)
    metrics = []
    for _ in range(2):
        tracer.reset()
        with spans.patched(layers.traced_replacements(tracer), mods):
            run.run_pass(workloads.presented_rings_ops(specs), run.Outcome())
        metrics.append(layers.layer_metrics(tracer))
    first, second = metrics
    assert first["rings.GradedRing.component.misses"] > 0
    assert {k: v for k, v in first.items() if not k.endswith("self_s")} == \
        {k: v for k, v in second.items() if not k.endswith("self_s")}


def test_field_counting_pass_counts_and_restores():
    specs, ops = _cheap_presented()
    counts = {}
    mods = spans.library_modules(gradedalg, workloads)
    with spans.patched(layers.counting_replacements(counts), mods):
        run.run_pass(ops, run.Outcome())
    assert counts["fields.mul_calls"] > 0 and counts["fields.addsub_calls"] > 0
    assert "counted" not in repr(gradedalg.fields.PrimeField.__dict__["mul"])


# -- speed probe and report ----------------------------------------------

def test_speed_probe_samples_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3 and probe.spent > 0
    assert probe.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "syzygies",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
