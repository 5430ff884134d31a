import json
import os
import subprocess
import sys

from gradedalg.presets import preset_names, preset_run

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_TOOL = os.path.join(_ROOT, "tools", "answers_record.py")


def _recorded(tmp_path, hash_seed, *seeds):
    out = tmp_path / f"answers-{hash_seed}-{'-'.join(map(str, seeds))}.json"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    flags = [arg for seed in seeds for arg in ("--seed", str(seed))]
    subprocess.run([sys.executable, _TOOL, "--checkout", _ROOT, *flags, "--out", str(out)],
                   check=True, env=env, capture_output=True, timeout=120)
    return out.read_bytes()


def test_answers_are_recorded_byte_for_byte_alike_in_fresh_processes(tmp_path):
    # string hashing differs between the two processes, so no set or dict
    # order that hashing decides can reach the file
    first, second = _recorded(tmp_path, 0), _recorded(tmp_path, 1)
    assert first == second
    assert sorted(json.loads(first)) == ["presets", "records"]
    (data,) = json.loads(first)["records"]
    assert data["seed"] == 1
    ops = {w: sorted(o) for w, o in data["workloads"].items()}
    assert ops == {
        "presented-rings": ["q8.cech", "q8.hilbert", "rational_x.cech",
                            "rational_x.hilbert", "sd16.cech", "sd16.hilbert"],
        "squeezed-groups": ["a4.gf16.squeezed", "a4.gf4.squeezed"],
        "syzygies": ["a4_ring.gulliksen", "a4_ring.hypersurface", "c2r2.cech",
                     "c2r2.duality", "d8.cech", "d8.duality", "g32n7.cech",
                     "g32n7.duality"],
    }
    for workload in data["workloads"].values():
        for entry in workload.values():
            assert entry["problems"] == []
    rings = data["workloads"]["presented-rings"]
    assert rings["q8.hilbert"]["answer"][:5] == [1, 2, 2, 1, 1]
    # a cell is [i, n, dim, certified]
    assert [1, -3, 1, True] in rings["sd16.cech"]["answer"]["cells"]
    # every preset's report, recorded once; a small one as preset_run gives it
    presets = json.loads(first)["presets"]
    assert sorted(presets) == preset_names()
    c2r1 = presets["c2r1"]
    assert c2r1 == preset_run("c2r1")
    assert c2r1["pass"] and [c["check"] for c in c2r1["checks"]] == [
        "hilbert_prefix", "cm_functional_equation", "cech_certified", "methods_agree",
        "grothendieck_vanishing", "gorenstein_duality"]


def test_each_of_several_seeds_is_recorded_as_it_is_alone(tmp_path):
    # the seeds share one process, and no state one seed leaves behind
    # may change another's answers
    both = json.loads(_recorded(tmp_path, 0, 7, 1))["records"]
    assert [r["seed"] for r in both] == [1, 7]
    alone = json.loads(_recorded(tmp_path, 0, 7))["records"]
    assert both[1] == alone[0]
    # squeezed-groups relabels its group by seed: the same homology, from
    # other element indices
    squeezed = [r["workloads"]["squeezed-groups"] for r in both]
    assert squeezed[0] == squeezed[1]
    assert all(e["problems"] == [] for r in both for w in r["workloads"].values()
               for e in w.values())
