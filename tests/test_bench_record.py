import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(wall, rss, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summaries_hold_median_quartiles_and_runs():
    s = bench_record.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 2.0, 4.0)
    assert s["runs"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert bench_record.summarize([7.0])["q1"] == 7.0


def test_sides_and_fail_rate():
    side = bench_record.summarize_side([_run(2.0, 20.0), _run(2.2, 20.0, failed=1)])
    assert side["metrics"]["wall_s"]["median"] == pytest.approx(2.1)
    assert side["metrics"]["wall_s"]["unit"] == "s"
    assert side["fail_rate"] == 0.05


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    parent = [_run(2.0 + 0.01 * k, 20.0) for k in range(10)]
    change = [_run(1.0, 20.0 + 0.1 * k) for k in range(10)]
    v = bench_record.verdicts(parent, change, {"wall_s": 0.25, "peak_rss_mb": 0.1})
    assert v["wall_s"] == {"change_won_pairs": 10, "gain": True, "within_bound": True}
    assert v["peak_rss_mb"]["change_won_pairs"] == 0
    assert not v["peak_rss_mb"]["gain"] and v["peak_rss_mb"]["within_bound"]
    change[0] = _run(3.0, 30.0)  # one lost pair of ten still counts as a gain
    change[1] = _run(3.0, 30.0)  # two do not
    v = bench_record.verdicts(parent, change, {"peak_rss_mb": 0.01})
    assert v["wall_s"]["change_won_pairs"] == 8 and not v["wall_s"]["gain"]
    assert v["wall_s"]["within_bound"] is None
    assert not v["peak_rss_mb"]["within_bound"]


def test_source_lines_are_counted_like_wc(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not counted\n")
    assert bench_record.src_lines(str(tmp_path)) == 2


def test_pairs_alternate_which_side_runs_first():
    calls = []
    parent, change = bench_record.in_pairs(
        "p", "c", "label", lambda checkout, k: calls.append((checkout, k)) or k)
    assert parent == change == list(range(bench_record.PAIRS))
    assert calls[:4] == [("p", 0), ("c", 0), ("c", 1), ("p", 1)]


def test_each_preset_is_timed_after_a_full_collection(tmp_path):
    # a stand-in catalog whose presets leave cyclic garbage behind and
    # fail when they start with uncollected allocations
    package = tmp_path / "src" / "gradedalg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "presets.py").write_text(
        "import gc\n"
        "junk = []\n"
        "def preset_names():\n"
        "    return ['a', 'b', 'c']\n"
        "def preset_run(name):\n"
        "    assert gc.get_count()[0] < 100, gc.get_count()\n"
        "    for _ in range(300):\n"
        "        cycle = []\n"
        "        cycle.append(cycle)\n"
        "        junk.append(cycle)\n")
    seconds = bench_record.preset_seconds(str(tmp_path))
    assert sorted(seconds) == ["a", "b", "c"]


def _fake_checkout(tmp_path, script):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(script)
    (tmp_path / "bench" / "speed.py").write_text("PERIOD_S = 0.02\n")
    return str(tmp_path)


def test_a_failed_run_names_its_checkout_workload_seed_exit_code_and_stderr(tmp_path):
    checkout = _fake_checkout(tmp_path, (
        "import sys\n"
        "for i in range(25):\n"
        "    print(f'trace line {i}', file=sys.stderr)\n"
        "sys.exit(1)\n"))
    with pytest.raises(bench_record.RunFailed) as err:
        bench_record.bench_run(checkout, "squeezed-groups", 13, 40)
    message = str(err.value)
    assert checkout in message and "squeezed-groups" in message and "seed 13" in message
    assert "exited 1" in message
    lines = message.splitlines()
    assert lines[-bench_record.STDERR_TAIL:] == [f"trace line {i}" for i in range(5, 25)]
    assert "trace line 4" not in message


def test_the_recording_stops_at_the_first_failed_run(tmp_path, capsys):
    checkout = _fake_checkout(tmp_path, "import sys\nprint('boom', file=sys.stderr)\n"
                                        "sys.exit(3)\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "bound": 0.25}]}))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", checkout, "--change", checkout,
                              "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "workload w, seed 1, exited 3" in err and "boom" in err
    assert not out.exists()


def test_each_run_keeps_its_unscaled_pass_median(tmp_path):
    checkout = _fake_checkout(tmp_path, (
        "import json, sys\n"
        "print('workload w, seed 1: 812 untraced passes of 0.043 s unscaled, '\n"
        "      '1624 operations, 0 failed', file=sys.stderr)\n"
        "print(json.dumps({'attempted': 1, 'failed': 0, 'metrics': "
        "{'wall_s': {'value': 0.03, 'unit': 's'}}}))\n"))
    run = bench_record.bench_run(checkout, "w", 1, 40)
    assert run["unscaled_pass_s"] == 0.043
    assert run["metrics"]["wall_s"]["value"] == 0.03
    side = bench_record.summarize_side([run, dict(run, unscaled_pass_s=0.045)])
    assert side["unscaled_pass_s"]["runs"] == [0.043, 0.045]
    assert side["unscaled_pass_s"]["median"] == pytest.approx(0.044)


def test_the_probe_period_is_read_from_the_checkout_without_running_it(tmp_path):
    repo = os.path.join(os.path.dirname(__file__), os.pardir)
    assert bench_record.probe_period(repo) == 0.02
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "speed.py").write_text(
        "raise SystemExit('not to be run')\nPERIOD_S = 0.05\n")
    assert bench_record.probe_period(str(tmp_path)) == 0.05
    (tmp_path / "bench" / "speed.py").write_text("PERIOD = 0.05\n")
    with pytest.raises(ValueError, match="no PERIOD_S"):
        bench_record.probe_period(str(tmp_path))


def test_passes_near_the_probe_period_are_flagged():
    def side(*passes):
        return bench_record.summarize_side(
            [dict(_run(0.03, 20.0), unscaled_pass_s=p) for p in passes])

    floor = bench_record.SHORT_PASS_FACTOR * 0.02
    workloads = {
        "fast": {"parent": side(0.030, 0.031, 0.032), "change": side(0.024, 0.026, 0.020)},
        "slow": {"parent": side(0.040), "change": side(0.025)},
        "unknown": {"parent": side(None), "change": side(0.001)},
    }
    assert bench_record.short_passes(workloads, floor) == [
        {"workload": "fast", "side": "change", "median_s": 0.024},
        {"workload": "unknown", "side": "change", "median_s": 0.001}]
