"""End-to-end tests for the command-line front end (in-process)."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finslerlab
from finslerlab import cli, ode


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_klein_passes_tolerance(capsys):
    code = run(["curvature", "--metric", "klein", "--samples", "6",
                "--flags", "2", "--tol", "1e-5"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "klein" in out
    assert "FAIL" not in out


def test_curvature_wrong_constant_fails(capsys):
    code = run(["curvature", "--metric", "klein", "--samples", "6",
                "--flags", "2", "--lambda", "0.5", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK
    assert "FAIL" in out


def test_curvature_unknown_metric_is_usage_error(capsys):
    code = run(["curvature", "--metric", "no-such-metric"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "choose one of" in err


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_curvature_refuses_a_non_finite_constant(lam, capsys):
    code = run(["curvature", "--metric", "klein", "--samples", "3",
                "--lambda", lam])
    assert code == cli.EXIT_USAGE
    assert "not finite" in capsys.readouterr().err


def test_curvature_bad_dimension_reports_the_cause(capsys):
    code = run(["curvature", "--metric", "klein", "--dim", "9"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "dimension 9" in err
    assert "unknown metric" not in err


def test_fixed_2d_metric_refuses_another_dimension(capsys):
    code = run(["curvature", "--metric", "funk-ellipse-plus", "--dim", "3",
                "--samples", "2", "--flags", "0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "2-dimensional" in err
    assert "unknown metric" not in err


def test_curvature_json_report(tmp_path, capsys):
    out_path = tmp_path / "curv.json"
    code = run(["curvature", "--metric", "funk-plus", "--samples", "5",
                "--flags", "2", "--out", str(out_path)])
    assert code == cli.EXIT_OK
    with open(out_path) as fh:
        report = json.load(fh)
    assert set(report) == {"command", "created", "params", "results"}
    assert report["command"] == "curvature"
    res = report["results"]
    assert res["lambda"] == -0.25
    assert res["samples"] == 5
    assert res["max_einstein_residual"] < 1e-8


# ---------------------------------------------------------------------------
# projective


def test_projective_euclidean_funk_related(capsys):
    code = run(["projective", "--base", "euclidean", "--cand", "funk-plus",
                "--samples", "8"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "projectively related" in out and ": yes" in out
    assert "projective factor" in out


def test_projective_impossible_tolerance_fails(capsys):
    code = run(["projective", "--base", "euclidean", "--cand", "funk-plus",
                "--samples", "8", "--tol", "1e-20"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK
    assert ": no" in out


def test_projective_dimension_mismatch(capsys):
    # the ellipse bodies are planar, so --dim 3 is refused for them before
    # any sampling happens
    code = run(["projective", "--base", "euclidean", "--cand",
                "hilbert-ellipse", "--dim", "3"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "hilbert-ellipse is 2-dimensional" in err


# ---------------------------------------------------------------------------
# geodesic


def test_geodesic_missing_initial_data(capsys):
    code = run(["geodesic", "--metric", "klein"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "--x0" in err


def test_geodesic_csv_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code = run(["geodesic", "--metric", "euclidean", "--x0", "0,0",
                "--y0", "1,0", "--tspan=-0.5,1.5", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "unit-speed drift" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2,F"
    first = [float(p) for p in lines[1].split(",")]
    last = [float(p) for p in lines[-1].split(",")]
    assert first[0] == -0.5 and last[0] == 1.5
    # straight line at unit speed: x1 == t, F == 1
    assert abs(last[1] - 1.5) < 1e-9
    assert abs(last[5] - 1.0) < 1e-12
    # every row carries full 16-digit precision
    assert "e+" in lines[1] or "e-" in lines[1]


# ---------------------------------------------------------------------------
# ode


def test_ode_invalid_lambda_is_usage_error(capsys):
    code = run(["ode", "--lambda", "2"])
    assert code == cli.EXIT_USAGE


def test_ode_json_report(tmp_path, capsys):
    out_path = tmp_path / "ode.json"
    code = run(["ode", "--lambda", "0", "--lambdat=-1", "--a", "1",
                "--b", "1", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "linear_plus" in out
    with open(out_path) as fh:
        report = json.load(fh)
    res = report["results"]
    assert res["bi_complete"] is False          # real JSON boolean
    assert res["base_forward_complete"] is True
    lo, hi = res["interval"]
    assert math.isclose(lo, -0.5)
    assert hi == "inf"                          # non-finite values as strings
    assert res["numeric_vs_closed"] < 1e-8


def test_ode_reports_the_steps_of_each_leg(tmp_path, capsys, monkeypatch):
    # the legs of the one integration that numeric vs closed form reads
    runs, integrate = [], ode.integrate

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ode, "integrate", recording)
    out_path = tmp_path / "ode.json"
    code = run(["ode", "--lambda", "0", "--lambdat=-1", "--a", "1", "--b",
                "1", "--tspan=-1,3", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    printed = re.findall(r"^(backward|forward) +: (\w+) at t = \S+, (\d+) "
                         r"accepted, (\d+) rejected, (\d+) vetoed steps$",
                         out, re.M)
    with open(out_path) as fh:
        legs = json.load(fh)["results"]["legs"]
    assert [(leg["leg"], leg["status"], str(leg["accepted"]),
             str(leg["rejected"]), str(leg["vetoed"]))
            for leg in legs] == printed
    assert [leg["status"] for leg in legs] == ["collapse", "t_limit"]
    assert legs[1]["t_end"] == 3.0
    assert [(leg["accepted"], leg["rejected"], leg["vetoed"])
            for leg in legs] == [(res.n_accepted, res.n_rejected,
                                  res.n_vetoed) for res in runs]


def test_chart_options_only_where_a_metric_is_built(capsys):
    # ode and verify-all build no catalog metric: argparse refuses --dim/--eps
    for argv in (["ode", "--dim", "7", "--eps", "5", "--a", "1", "--b", "0.5"],
                 ["verify-all", "--only", "3", "--dim", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


def test_ode_stdout_summary(capsys):
    code = run(["ode", "--lambda=-1", "--lambdat=-1", "--a", "1", "--b", "0"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "rigid" in out
    assert "bi-complete   : yes" in out


# ---------------------------------------------------------------------------
# config-file merging


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("metric: funk-plus\nsamples: 5\nflags: 2\n")
    code = run(["curvature", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "funk-plus" in out


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("metric: klein\nsamples: 5\nflags: 2\n")
    code = run(["curvature", "--config", str(cfg), "--metric", "funk-minus"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "funk-minus" in out


def test_missing_config_file(capsys):
    code = run(["curvature", "--config", "/nonexistent/cfg.yaml"])
    assert code == cli.EXIT_USAGE


def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    # typed by argparse as the flag would be: its message and exit code 2
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("samples: abc\n")
    with pytest.raises(SystemExit) as exc:
        run(["curvature", "--config", str(cfg)])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --samples: invalid int value: 'abc'" in err
    assert "Traceback" not in err


def test_unreadable_config_is_a_usage_error(tmp_path, capsys):
    # malformed YAML, then a directory in place of the file
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("samples: [5\n")
    code = run(["curvature", "--config", str(cfg)])
    assert code == cli.EXIT_USAGE
    assert "config file" in capsys.readouterr().err
    assert run(["curvature", "--config", str(tmp_path)]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_config_keys_that_are_not_options_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("samples: 2\nflags: 0\ncolour: red\nx0: 1,0\n")
    out_path = tmp_path / "curv.json"
    code = run(["curvature", "--config", str(cfg), "--out", str(out_path)])
    assert code == cli.EXIT_OK
    params = json.loads(out_path.read_text())["params"]
    assert (params["samples"], params["flags"]) == (2, 0)
    assert "colour" not in params and "x0" not in params


def test_reports_record_the_options_of_the_run(tmp_path, capsys):
    curv, ode_out = tmp_path / "curv.json", tmp_path / "ode.json"
    assert run(["curvature", "--samples", "2", "--flags", "0",
                "--out", str(curv)]) == cli.EXIT_OK
    assert run(["ode", "--b", "0.5", "--out", str(ode_out)]) == cli.EXIT_OK
    assert json.loads(curv.read_text())["params"] == {
        "metric": "klein", "samples": 2, "flags": 0, "lam": None,
        "tol": None, "box": None, "dim": 2, "eps": 0.9, "out": str(curv)}
    assert json.loads(ode_out.read_text())["params"] == {
        "lam": -1.0, "lamt": -1.0, "a": 1.0, "b": 0.5, "tspan": None,
        "out": str(ode_out)}


# ---------------------------------------------------------------------------
# verify-all (restricted to the two fastest criteria)


def test_verify_all_subset(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    code = run(["verify-all", "--only", "3,4", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    pass_lines = [ln for ln in out.splitlines() if " PASS " in ln]
    assert len(pass_lines) == 2
    assert "2/2 criteria passed" in out
    with open(out_path) as fh:
        report = json.load(fh)
    recs = report["results"]
    assert [r["criterion"] for r in recs] == [3, 4]
    assert all(r["passed"] is True for r in recs)


def test_verify_all_only_refuses_entries_that_name_no_criterion(capsys):
    for only, entry in (("1,x", "'x'"), ("11", "'11'")):
        code = run(["verify-all", "--only", only])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert f"no criterion {entry}" in err
        assert "criterion" not in out  # refused before any criterion runs


def test_the_library_and_the_cli_start_without_scipy_integrate():
    # the package imports no scipy: scipy serves the tests alone, as an oracle
    code = ("import sys, finslerlab, finslerlab.comparison, finslerlab.geodesic,"
            " finslerlab.projective, finslerlab.cli;"
            " print('scipy.integrate' in sys.modules)")
    src = str(Path(finslerlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_all_runs_criterion_7_with_scipy_blocked():
    # None in sys.modules makes any import of scipy raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; from finslerlab import cli;"
            " sys.exit(cli.main(['verify-all', '--only', '7']))")
    src = str(Path(finslerlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "1/1 criteria passed" in proc.stdout
