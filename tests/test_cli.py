import json
import os
import subprocess
import sys

import pytest

from gradedalg.cli import run_cli

RING_KX = {"char": 2, "vars": [{"name": "x", "codegree": 1}], "relations": []}
RING_KX2 = {"char": 2, "vars": [{"name": "x", "codegree": 1}],
            "relations": ["x^2"]}


@pytest.fixture
def ring_file(tmp_path):
    def write(data, name="ring.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def test_missing_file_is_a_usage_error(capsys):
    assert run_cli(["hilbert", "/nonexistent/ring.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_preset_is_a_usage_error(capsys):
    assert run_cli(["preset", "run", "no_such_preset"]) == 2


def test_malformed_series_is_a_usage_error(capsys):
    assert run_cli(["functional-eq", "--series", "1/(1-t", "--dim", "1",
                    "--shift", "0"]) == 2


def test_hilbert_prints_dimensions(ring_file, capsys):
    assert run_cli(["hilbert", ring_file(RING_KX), "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "1, 1, 1, 1, 1" in out


def test_hilbert_series_comparison_pass_and_fail(ring_file, capsys):
    path = ring_file(RING_KX)
    assert run_cli(["hilbert", path, "--series", "1/(1-t)"]) == 0
    assert run_cli(["hilbert", path, "--series", "1/(1-t)^2"]) == 1
    assert "fail" in capsys.readouterr().out


def test_functional_eq_reports_cm_pass(capsys):
    assert run_cli(["functional-eq", "--series", "1/(1-t)", "--dim", "1",
                    "--shift", "0"]) == 0
    assert "CM: pass" in capsys.readouterr().out


def test_functional_eq_reports_almost_cm_correction(capsys):
    assert run_cli(["functional-eq",
                    "--series", "(1+t^3)/((1-t)*(1+t^2))",
                    "--dim", "2", "--shift", "0"]) == 0
    out = capsys.readouterr().out
    assert "CM: fail" in out
    assert "almost-CM: pass, q =" in out


def test_localcoh_methods_agree_on_a_free_module(ring_file, capsys):
    assert run_cli(["localcoh", ring_file(RING_KX), "--ideal", "x",
                    "--window=-6..2", "--method", "both"]) == 0
    assert "methods agree" in capsys.readouterr().out


def test_localcoh_json_output_parses(ring_file, capsys):
    assert run_cli(["localcoh", ring_file(RING_KX), "--ideal", "x",
                    "--window=-4..1", "--method", "cech", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [-1, 1] in data["cech"]["H^1"]


def test_localcoh_flags_uncertified_cells_and_exits_1(ring_file, capsys):
    # with a stab bound of 2 no cell sees 3 equal ranks in a row
    ring = {"char": 2, "vars": [{"name": "x", "codegree": 1},
                                {"name": "y", "codegree": 1}]}
    path = ring_file(ring)
    assert run_cli(["localcoh", path, "--ideal", "x,y", "--window=-4..0",
                    "--stab-bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "H^2: -4:3? -3:2? -2:1?" in out
    assert "uncertified" in out
    assert run_cli(["localcoh", path, "--ideal", "x,y", "--window=-4..0",
                    "--stab-bound", "2", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["uncertified"] == [[i, n] for i in range(3) for n in range(-4, 1)]
    assert run_cli(["localcoh", path, "--ideal", "x,y", "--window=-4..0",
                    "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["uncertified"] == [] and [-4, 3] in data["cech"]["H^2"]


def test_localcoh_duality_refuses_an_odd_generator(ring_file, capsys):
    ring = {"char": 3, "vars": [{"name": "x", "codegree": 3},
                                {"name": "y", "codegree": 2}], "relations": []}
    assert run_cli(["localcoh", ring_file(ring), "--ideal", "x,y", "--method", "both",
                    "--window=-8..-5"]) == 2
    assert "generator x" in capsys.readouterr().err


def test_localcoh_json_states_the_stopping_rule(ring_file, capsys):
    path = ring_file(RING_KX)
    assert run_cli(["localcoh", path, "--ideal", "x", "--window=-4..1",
                    "--stab-bound", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stopping_rule"] == {"window": 3, "stab_bound": 7, "regular_sequence": True}
    assert run_cli(["localcoh", path, "--ideal", "x", "--window=-4..1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stopping_rule"]["stab_bound"] == 16
    assert run_cli(["localcoh", path, "--ideal", "x", "--window=-4..1"]) == 0
    assert ("stopping rule: window 3, stab_bound 16; regular sequence: certified"
            in capsys.readouterr().out)
    # x is a zero divisor of GF(2)[x]/(x^2): the ranks are eliminated
    assert run_cli(["localcoh", ring_file(RING_KX2, "kx2.json"), "--ideal", "x",
                    "--window=-4..1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stopping_rule"]["regular_sequence"] is False
    # duality is exact: no stopping rule stands behind its cells
    assert run_cli(["localcoh", path, "--ideal", "x", "--window=-4..1",
                    "--method", "duality", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stopping_rule"] is None


def test_koszul_zero_divisor_detected(ring_file, capsys):
    assert run_cli(["koszul", ring_file(RING_KX2), "--elements", "x"]) == 1


def test_resolution_of_the_residue_field(ring_file, capsys):
    assert run_cli(["resolution", ring_file(RING_KX2), "--hmax", "12"]) == 0
    out = capsys.readouterr().out
    assert "bounded" in out


def test_resolution_reports_its_window(ring_file, capsys):
    assert run_cli(["resolution", ring_file(RING_KX2), "--hmax", "4",
                    "--codegree-max", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["window"] == {"h_max": 4, "codegree_max": 6}
    assert data["betti"] == [1, 1, 1, 1, 1]
    assert run_cli(["resolution", ring_file(RING_KX2), "--hmax", "4",
                    "--codegree-max", "6"]) == 0
    assert "exact only for codegrees <= 6" in capsys.readouterr().out


def test_hypersurface_matrix_factorization(ring_file, capsys):
    assert run_cli(["hypersurface", ring_file(RING_KX), "--f", "x^2",
                    "--mf", "--hmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "matrix factorization" in out


def test_squeezed_homology_of_a4(capsys):
    assert run_cli(["squeezed", "--group", "a4", "--char", "2",
                    "--field-degree", "2", "--steps", "6"]) == 0
    out = capsys.readouterr().out
    assert "1, 1, 2, 2, 2, 2, 2" in out


_CLI = "import sys; from gradedalg.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"


def test_a_group_file_with_p_one_exits_2(ring_file):
    # p = 1 sent the Sylow order check into an endless loop, so the run
    # gets a fresh process and a timeout
    c2 = {"order": 2, "table": [[0, 1], [1, 0]], "sylow": [0, 1], "char": 1}
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", _CLI, "squeezed", "--group-file",
         ring_file(c2, "group.json"), "--char", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:") and "prime" in done.stderr


def test_preset_list_names_every_entry(capsys):
    assert run_cli(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("c2r1", "q8", "d8", "sd16", "g32n7", "rational_x",
                 "a4_squeezed", "a4_ring"):
        assert name in out


def test_preset_run_c2r1_passes(capsys):
    assert run_cli(["preset", "run", "c2r1"]) == 0


def test_preset_run_json_is_valid(capsys):
    assert run_cli(["preset", "run", "c2r1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert any(c["check"] == "hilbert_prefix" for c in data["checks"])


def test_shift_ledger_passes(capsys):
    assert run_cli(["shift-ledger"]) == 0
    assert "hold" in capsys.readouterr().out
    assert run_cli(["shift-ledger", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violations"] == []


RING_KXY = {"char": 2, "vars": [{"name": "x", "codegree": 1},
                                {"name": "y", "codegree": 1}], "relations": []}


def test_module_file_uses_the_documented_keys(ring_file, capsys):
    # k = k[x,y]/(x, y) has the Koszul resolution 1, 2, 1
    module = ring_file({"ring": RING_KXY, "gen_shifts": [0],
                        "rel_columns": [["x"], ["y"]]}, "module.json")
    assert run_cli(["resolution", ring_file(RING_KXY), "--module", module,
                    "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 2, 1]


@pytest.mark.parametrize("args, named", [
    (["localcoh", "--ideal", "x", "--stab-bound", "0"], "stab_bound"),
    (["resolution", "--hmax", "-1"], "h_max"),
    (["localcoh", "--ideal", "x", "--window=3..1"], "'3..1' is empty"),
    (["localcoh", "--ideal", "x", "--window=3..1", "--method", "duality"], "'3..1' is empty"),
], ids=["stab-bound", "hmax", "window-cech", "window-duality"])
def test_out_of_range_arguments_are_a_usage_error(ring_file, capsys, args, named):
    command, *options = args
    assert run_cli([command, ring_file(RING_KXY), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("args, named", [
    (["resolution", "RING_KX2", "--codegree-max", "-5"], "codegree_max -5"),
    (["resolution", "RING_KX2", "--codegree-max", "-1", "--hmax", "12"], "codegree_max -1"),
    (["hypersurface", "RING_KXY", "--f", "x*y", "--codegree-max", "-1"], "codegree_max -1"),
    (["hypersurface", "RING_KXY", "--f", "x*y", "--codegree-max", "-1", "--mf"],
     "codegree_max -1"),
    (["hilbert", "RING_KX", "--nmax", "-3"], "n_max"),
    (["squeezed", "--char", "2", "--field-degree", "2", "--steps", "-1"], "steps"),
], ids=["resolution", "resolution-growth", "hypersurface", "hypersurface-mf", "hilbert",
        "squeezed"])
def test_empty_windows_are_a_usage_error(ring_file, capsys, args, named):
    # each printed an answer for nothing: all-zero Betti totals with a
    # growth class, a periodicity verdict, dims [0..-3]: [], or
    # projective dims with no homology
    rings = {"RING_KX": RING_KX, "RING_KX2": RING_KX2, "RING_KXY": RING_KXY}
    args = [ring_file(rings[a]) if a in rings else a for a in args]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


def test_koszul_certifies_a_system_of_parameters(ring_file, capsys):
    assert run_cli(["koszul", ring_file(RING_KXY), "--elements", "x,y", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regular"] is True and data["lines"] == ["sequence is regular"]


def test_koszul_elements_act_on_the_module_file(ring_file, capsys):
    # M = k[x,y]/(x^2): x is a zerodivisor on M (x * x = 0), and y is
    # regular, which a window cannot prove for an infinite M (exit 0)
    module = ring_file({"ring": RING_KXY, "gen_shifts": [0], "rel_columns": [["x^2"]]},
                       "module.json")
    ring = ring_file(RING_KXY)
    assert run_cli(["koszul", ring, "--module", module, "--elements", "y"]) == 0
    assert run_cli(["koszul", ring, "--module", module, "--elements", "x"]) == 1


@pytest.mark.parametrize("data", [
    {"ring": RING_KXY, "gens": [0], "rels": [["x"]]},
    {"ring": dict(RING_KXY, relation=["x^2"])},
    {"ring": {"char": 2, "vars": [{"name": "x", "codegree": 1, "degree": 1}]}},
], ids=["module", "ring", "variable"])
def test_unknown_keys_are_a_usage_error(ring_file, capsys, data):
    module = ring_file(data, "module.json")
    assert run_cli(["resolution", ring_file(RING_KXY), "--module", module]) == 2
    assert "unknown" in capsys.readouterr().err


def test_extension_degree_over_the_rationals_is_a_usage_error(ring_file, capsys):
    ring = {"char": 0, "field_degree": 2, "vars": [{"name": "x", "codegree": 1}]}
    assert run_cli(["hilbert", ring_file(ring), "--nmax", "2"]) == 2
    assert "characteristic 0" in capsys.readouterr().err


RING_GF3_X = {"char": 3, "vars": [{"name": "x", "codegree": 2}], "relations": []}
MODULE_KXY = {"ring": RING_KXY, "gen_shifts": [0], "rel_columns": [["x"], ["y"]]}
MODULE_ARGS = {
    "localcoh": ["--ideal", "x", "--window=-2..0"],
    "koszul": ["--elements", "x"],
    "resolution": [],
}


@pytest.mark.parametrize("command", ["localcoh", "koszul", "resolution"])
def test_a_module_over_another_ring_than_ring_is_a_usage_error(ring_file, capsys, command):
    # RING = GF(3)[x] with |x| = 2, the module over GF(2)[x, y]: both
    # rings are named, and nothing is computed over either
    module = ring_file(MODULE_KXY, "module.json")
    args = [command, ring_file(RING_GF3_X), "--module", module, *MODULE_ARGS[command]]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "GF(3); x[2]" in err and "GF(2); x[1], y[1]" in err
    assert "field and generators differ" in err


@pytest.mark.parametrize("command", ["localcoh", "koszul", "resolution"])
def test_a_module_ring_must_match_in_codegrees_and_relations(ring_file, capsys, command):
    module = ring_file(MODULE_KXY, "module.json")
    tail = ["--module", module, *MODULE_ARGS[command]]
    shifted = {"char": 2, "vars": [{"name": "x", "codegree": 1},
                                   {"name": "y", "codegree": 2}]}
    assert run_cli([command, ring_file(shifted), *tail]) == 2
    assert "the generators differ" in capsys.readouterr().err
    assert run_cli([command, ring_file(dict(RING_KXY, relations=["x*y"])), *tail]) == 2
    assert "the relations differ" in capsys.readouterr().err


MODULE_GF3_X = {"ring": RING_GF3_X, "gen_shifts": [0], "rel_columns": [["x"]]}
HYPERSURFACE = ["--f", "x^2+y^2", "--hmax", "4", "--codegree-max", "12"]


@pytest.mark.parametrize("mode", [[], ["--mf"]], ids=["periodicity", "mf"])
def test_a_hypersurface_module_over_another_ring_is_a_usage_error(ring_file, capsys, mode):
    # RING = GF(2)[x, y] and f = x^2 + y^2, the module over GF(3)[x]; it
    # is checked against the quotient, which has f as its relation, or
    # with --mf against the ambient ring
    module = ring_file(MODULE_GF3_X, "module.json")
    args = ["hypersurface", ring_file(RING_KXY), *HYPERSURFACE, *mode, "--module", module]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "GF(3); x[2]" in err and "GF(2); x[1], y[1]" in err
    assert ("the field and generators differ" if mode else
            "the field and generators and relations differ") in err


def test_a_hypersurface_module_lives_on_the_quotient_or_with_mf_the_ambient_ring(
        ring_file, capsys):
    ring = ring_file(RING_KXY)
    quotient = dict(RING_KXY, relations=["x^2+y^2"])
    on_quotient = ring_file({"ring": quotient, "gen_shifts": [0],
                             "rel_columns": [["x"], ["y"]]}, "quotient.json")
    # S/(x + y) has projective dimension 1 over S and f = (x + y)^2 kills it
    on_ambient = ring_file({"ring": RING_KXY, "gen_shifts": [0],
                            "rel_columns": [["x+y"]]}, "ambient.json")
    # k over R = S/(f)
    assert run_cli(["hypersurface", ring, *HYPERSURFACE, "--module", on_quotient]) == 0
    assert "pass" in capsys.readouterr().out
    assert run_cli(["hypersurface", ring, *HYPERSURFACE, "--mf", "--module", on_ambient]) == 0
    assert "verified" in capsys.readouterr().out
    # each mode rejects the other's module: the relations differ
    assert run_cli(["hypersurface", ring, *HYPERSURFACE, "--module", on_ambient]) == 2
    assert "the relations differ" in capsys.readouterr().err
    assert run_cli(["hypersurface", ring, *HYPERSURFACE, "--mf", "--module", on_quotient]) == 2
    assert "the relations differ" in capsys.readouterr().err


def test_a_module_ring_may_list_its_relations_in_any_order(ring_file, capsys):
    # the module is R = k[x,y]/(x^2, y^3) itself, free of rank 1
    ring = dict(RING_KXY, relations=["x^2", "y^3"])
    module = ring_file({"ring": dict(RING_KXY, relations=["y^3", "x^2"]),
                        "gen_shifts": [0], "rel_columns": []}, "module.json")
    assert run_cli(["resolution", ring_file(ring), "--module", module, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1] and data["complete"]
