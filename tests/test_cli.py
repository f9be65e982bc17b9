"""Command-line front-end: exit codes, file formats, determinism, suites."""

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import evanskit.cli as cli
from evanskit.evans import Numerics
from evanskit.invariants import pi_profile
from evanskit.model import WaveCheck, build_coupled_wave, oracle_coupled_wave


def _run(args):
    return CliRunner().invoke(cli.main, args)


def test_report_verdicts(tmp_path):
    out = tmp_path / "rep.json"
    r = _run(["report", "--p", "2", "--c", "0", "--out", str(out)])
    assert r.exit_code == 0
    d = json.loads(out.read_text())
    assert d["verdict"] == "UnstableRealEigenvalue"
    assert abs(d["ratio_check"] - 1.0) <= 1e-3
    assert d["params"] == {"p": 2.0}

    r = _run(["report", "--p", "1", "--c", "0"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["verdict"] == "Inconclusive"
    assert abs(d["ratio_check"] - 1.0) <= 1e-3
    assert list(d) == sorted(d)


def test_report_numerics_reach_pi():
    # --tol and --L reach the lambda = 0 tangent pair behind Pi
    r = _run(["report", "--p", "1", "--c", "0.3", "--tol", "1e-9", "--L", "15"])
    assert r.exit_code == 0
    model, wave = build_coupled_wave(1.0)
    want = pi_profile(model, wave, 0.3, numerics=Numerics(tol=1e-9, L=15.0)).pi
    assert json.loads(r.output)["Pi"] == want


@pytest.mark.parametrize("args, config, named", [
    (["report", "--model", "mtm"], None, "model: unknown model 'mtm'"),
    (["verify", "--model", "dirac-demo", "--suite", "clifford"], None,
     "model: unknown model 'dirac-demo'"),
    (["scan"], {"model": "cme"}, "model: unknown model 'cme'"),
    (["report"], {"params": {"nu": 2.0}}, "params: unknown key 'nu'"),
    (["report"], {"params": {"alpha": 1.0}}, "params: unknown key 'alpha'"),
    (["report", "--nu", "3"], None, "option '--nu'"),
], ids=["model-mtm", "model-dirac-demo", "config-model-cme", "config-params-nu",
        "config-params-alpha", "flag-nu"])
def test_only_the_coupled_wave_is_accepted(tmp_path, args, config, named):
    # the coupled wave is the one model with a wave family, and p its one
    # parameter: anything else would be echoed beside numbers it never touched
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    r = _run(args)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert any(named in line for line in r.stderr.splitlines())


@pytest.mark.parametrize("args, code", [
    (["report", "--p", "abc"], 1),     # bad option value
    (["report", "--bogus"], 1),        # unknown option
    (["nosuch"], 1),                   # unknown command
    (["--bogus"], 1),                  # unknown option of the group
    (["--help"], 0),
    (["report", "--help"], 0),
], ids=["bad-value", "unknown-option", "unknown-command", "unknown-group-option",
        "help", "command-help"])
def test_usage_errors_exit_1(args, code):
    # exit 2 is reserved for a failed hypothesis or suite check
    r = _run(args)
    assert r.exit_code == code
    assert (r.stdout == "") == (code == 1)


def test_report_hypothesis_gate(monkeypatch):
    monkeypatch.setattr(cli, "verify_wave",
                        lambda *a, **k: WaveCheck(1.0, 0.0, 0.0, 0.0))
    r = _run(["report", "--p", "1", "--c", "0"])
    assert r.exit_code == 2
    d = json.loads(r.output)
    assert d["hypothesis_report"]["passed"] is False
    assert d["hypothesis_report"]["ode_residual"] == 1.0


def test_scan_checks_the_tail_alone(monkeypatch):
    # a decayed tail is all that a scan or contour needs of the wave, so a
    # passing one never runs the whole profile check
    calls = []
    monkeypatch.setattr(cli, "verify_wave", lambda *a, **k: calls.append(a))
    for args in (["scan", "--p", "1", "--c", "0", "--lambda-max", "3", "--grid-n", "13"],
                 ["contour", "--p", "1", "--c", "0", "--rect", "0.5,3,-0.8,0.8"]):
        assert _run(args).exit_code == 0
    assert calls == []


@pytest.mark.parametrize("task", [
    ["scan", "--p", "1", "--c", "0"],
    ["contour", "--p", "1", "--c", "0", "--rect", "0.5,3,-0.8,0.8"],
], ids=["scan", "contour"])
def test_truncation_refusal_bytes(task):
    # a tail that has not decayed at L = 4 prints the whole profile check
    r = _run(task + ["--L", "4"])
    assert r.exit_code == 2
    assert r.stderr == ""
    assert r.stdout == ('{\n  "hypothesis_report": {\n'
                        '    "jordan_residual": 5.333333774615312e-10,\n'
                        '    "kernel_residual": 1.8527357426023627e-09,\n'
                        '    "ode_residual": 3.1086244689504383e-15,\n'
                        '    "passed": false,\n'
                        '    "tail_norm": 0.005360205228211573\n  }\n}\n')


def test_scan_csv_and_sidecar(tmp_path):
    out = tmp_path / "scan.csv"
    r = _run(["scan", "--p", "1", "--lambda-max", "3.0", "--grid-n", "13",
              "--tol", "1e-9", "--out", str(out)])
    assert r.exit_code == 0
    lines = out.read_text().splitlines()
    # the proxy's 25 Chebyshev points of [0, 3], the least per piece above
    # --grid-n 13, and one bracket, root -+ its error bar, per root
    assert lines[0] == "lambda_re,lambda_im,D_re,D_im"
    assert len(lines) == 26
    for row in lines[1:]:
        assert len(row.split(",")) == 4
    assert float(lines[1].split(",")[0]) == 0.0 and float(lines[-1].split(",")[0]) == 3.0
    side = json.loads((tmp_path / "scan.csv.brackets.json").read_text())
    assert side["d_inf"] == 1
    assert len(side["brackets"]) == 2
    roots = sorted(side["roots"])
    assert abs(roots[0] - np.sqrt(2.0)) <= 1e-5
    assert abs(roots[1] - np.sqrt(5.0)) <= 1e-5
    for r, (lo, hi) in zip(roots, side["brackets"]):
        assert lo <= r <= hi


def test_scan_deterministic(tmp_path):
    args = ["scan", "--p", "2", "--lambda-max", "2.0", "--grid-n", "7",
            "--tol", "1e-9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args + ["--out", str(a)]).exit_code == 0
    assert _run(args + ["--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.brackets.json").read_bytes() == \
        (tmp_path / "b.csv.brackets.json").read_bytes()


def test_scan_json_format():
    r = _run(["scan", "--p", "2", "--lambda-max", "2.0", "--grid-n", "7",
              "--tol", "1e-9", "--format", "json"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert len(d["lambda"]) == 25   # --grid-n 7 is below the proxy's least 25 points
    assert d["roots"] == []
    assert d["d_inf"] == -1
    assert len(d["D_re"]) == 25


def test_scan_validation():
    r = _run(["scan", "--grid-n", "0"])
    assert r.exit_code == 1
    assert "grid_n" in r.output


def test_contour_zero_free_rectangle():
    r = _run(["contour", "--rect", "3.5,4,-0.2,0.2", "--c", "0"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["winding"] == 0
    assert d["rect"] == [3.5, 4.0, -0.2, 0.2]


def test_contour_numerical_failures():
    r = _run(["contour", "--rect", "-0.5,0.5,2,3"])
    assert r.exit_code == 3
    assert "ContourOnSpectrum" in r.output
    r = _run(["contour", "--rect", "0.1,0.2"])
    assert r.exit_code == 1
    r = _run(["contour"])
    assert r.exit_code == 1
    assert "rect" in r.output


@pytest.mark.parametrize("args, code, named", [
    (["report", "--p", "1.6666666", "--c", "0"], 3, "StepTooLarge"),
    (["report", "--p", "1", "--c", "0.3", "--h", "1e-20"], 3, "Degenerate"),
    (["report", "--p", "1", "--c", "0.995"], 2, '"passed": false'),
    (["report", "--p", "1", "--c", "-0.999"], 2, '"passed": false'),
    (["scan", "--p", "1", "--c", "0.9999"], 3, "NormalizationFail"),
    (["contour", "--p", "1", "--c", "0.9995", "--rect", "0.5,3,-0.8,0.8"], 3, "StepFail"),
], ids=["report-p-1.6666666", "report-h-1e-20", "report-c-0.995", "report-c--0.999", "scan-c-0.9999",
        "contour-c-0.9995"])
def test_degenerate_edges_refuse(args, code, named):
    # next to p = 5/3, where Pi vanishes, and as |c| -> 1, where the profile
    # narrows, a task ends in a typed error or a failed hypothesis check and
    # prints none of the numbers it would otherwise report.  At p = 1.6666666
    # the tangent pairing, Pi = 5.6e-10, holds along xi to 1e-9 relative, so
    # the refusal comes from the derivative stencil's quadratic fit.  At
    # h = 1e-20 the five stencil samples are bit-equal: D'' used to print 0
    r = _run(args)
    assert r.exit_code == code
    assert named in r.output
    for key in ("Pi", "roots", "winding"):
        assert key not in r.stdout


@pytest.mark.parametrize("p", ["1.6666666", "1.6666667"])
def test_scan_next_to_five_thirds_refuses(p):
    # within 1e-7 of p = 5/3 the small root (4.5e-4 below 5/3) or the pair
    # +-i sqrt(3p - 5) (above it) merges with the double zero at 0 in the
    # scan's proxy, which then cannot tell the two sides of 5/3 apart: exit
    # 3 and no roots printed, where the uniform grid printed sqrt 5 alone on
    # both sides, wrongly below 5/3
    r = _run(["scan", "--p", p, "--c", "0"])
    assert r.exit_code == 3
    assert "NoConverge" in r.output and "double zero" in r.output
    assert "roots" not in r.stdout


def test_narrow_profiles_meet_the_closed_form():
    # close to |c| = 1 the profile narrows (alpha is about 10 at c = 0.995);
    # short of the refusals above, the scan's roots, its D samples and the
    # winding count still agree with the closed form
    o = oracle_coupled_wave(1.0, 0.995)
    r = _run(["scan", "--p", "1", "--c", "0.995", "--format", "json"])
    assert r.exit_code == 0, r.output
    d = json.loads(r.stdout)
    assert np.max(np.abs(np.array(d["roots"]) - np.sqrt([2.0, 5.0]) / o.alpha)) <= 1e-10
    want = np.array([o.evans_det(lam) for lam in d["lambda"]])
    assert np.max(np.abs(np.array(d["D_re"]) + 1j * np.array(d["D_im"]) - want)) <= 1e-10
    # both roots, sqrt(2) / alpha and sqrt(5) / alpha, lie left of the rectangle
    r = _run(["contour", "--p", "1", "--c", "0.99", "--rect", "0.5,3,-0.8,0.8"])
    assert r.exit_code == 0, r.output
    assert np.sqrt(5.0) / oracle_coupled_wave(1.0, 0.99).alpha < 0.5
    assert json.loads(r.stdout)["winding"] == 0


@pytest.mark.parametrize("args", [
    ["report", "--p", "1", "--c", "0.3"],
    ["scan", "--p", "1", "--c", "0", "--lambda-max", "3", "--grid-n", "13"],
    ["contour", "--p", "1", "--c", "0", "--rect", "0.5,3,-0.8,0.8"],
    ["verify", "--suite", "structure", "--c", "0.3"],
    ["verify", "--suite", "appendix-a", "--c", "0.3"],
    ["verify", "--suite", "exact-evans"],
], ids=["report", "scan", "contour", "structure", "appendix-a", "exact-evans"])
def test_short_truncation_refused(args):
    # at L = 2 the wave has not decayed (|zhat| = 0.27 at the ends): every
    # task that integrates the wave refuses with the report's hypothesis
    # check rather than print the roots, winding or checks of a truncated wave
    r = _run(args + ["--L", "2"])
    assert r.exit_code == 2
    hrep = json.loads(r.stdout)["hypothesis_report"]
    assert hrep["passed"] is False
    assert hrep["tail_norm"] > cli.TAIL_TOL
    assert r.stderr == ""


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "report",   # accepted and ignored: the subcommand decides
        "model": "coupled-wave", "params": {"p": 2.0}, "c": 0.0,
        "numerics": {"tol": 1e-9}, "lambda_max": 2.0, "format": "json"}))
    r = _run(["scan", "--config", str(cfg), "--grid-n", "31"])   # 31 proxy points, above the least 25
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert len(d["lambda"]) == 31
    assert d["lambda"][-1] == 2.0
    assert d["roots"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "coupled-wave", "bogus": 1}))
    r = _run(["report", "--config", str(bad)])
    assert r.exit_code == 1
    assert "bogus" in r.output


def test_config_validation_messages():
    r = _run(["report", "--c", "1.5"])
    assert r.exit_code == 1 and "c:" in r.output
    r = _run(["report", "--tol", "-1"])
    assert r.exit_code == 1 and "numerics.tol" in r.output
    r = _run(["report", "--model", "nosuch"])
    assert r.exit_code == 1 and "model" in r.output
    r = _run(["verify", "--suite", "nosuch"])
    assert r.exit_code == 1 and "suite" in r.output
    r = _run(["verify"])
    assert r.exit_code == 1 and "suite" in r.output


@pytest.mark.parametrize("config", [
    {"seeds": "x"},
    {"c": "abc"},
    {"c": None},
    {"lambda_max": [1]},
    {"numerics": {"tol": "x"}},
    {"numerics": {"grid_n": None}},
    {"rect": 5},
    {"params": {"p": "x"}},
    {"c": True},            # a JSON boolean is not a number here
    {"params": 3},
    {"out": 5},
])
def test_config_non_numbers_are_typed_errors(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    r = _run(["verify", "--suite", "clifford", "--config", str(cfg)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)   # not an uncaught error
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stdout + r.stderr


def test_verify_exact_suites():
    r = _run(["verify", "--suite", "clifford"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["passed"] is True
    assert len(d["checks"]) == 4

    r = _run(["verify", "--suite", "theorem22", "--seeds", "3"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["passed"] is True
    assert len(d["checks"]) == 9


def test_clifford_checks_the_models_own_skew_pair(monkeypatch):
    # induced-skew-pair compares the coupled-wave model's M and K with
    # R4 J1 and R4 J2: a model with another skew K fails it, and only it
    model, wave = build_coupled_wave(1.0)
    other = dataclasses.replace(model, K=-model.K)
    monkeypatch.setattr(cli.RunConfig, "coupled_wave", lambda self: (other, wave))
    r = _run(["verify", "--suite", "clifford"])
    assert r.exit_code == 2
    failed = [c["name"] for c in json.loads(r.output)["checks"] if not c["passed"]]
    assert failed == ["induced-skew-pair"]


def test_verify_structure_and_appendix():
    r = _run(["verify", "--suite", "structure", "--c", "0.3"])
    assert r.exit_code == 0
    assert json.loads(r.output)["passed"] is True

    r = _run(["verify", "--suite", "appendix-a", "--c", "0.3"])
    assert r.exit_code == 0
    d = json.loads(r.output)
    assert d["passed"] is True
    names = [c["name"] for c in d["checks"]]
    assert "eta-pair-identity" in names
    assert "wedge-det-proportionality" in names


def test_verify_shape_constancy_fails():
    # the determinant's normalization factors vary along the real axis, so
    # the ratio against lam^2 * quintic drifts far beyond the 1e-4 target
    r = _run(["verify", "--suite", "exact-evans", "--p", "1"])
    assert r.exit_code == 2
    d = json.loads(r.output)
    assert d["passed"] is False
    drift = float(d["checks"][0]["detail"].split()[2])
    assert drift > 1e-4


def test_verify_exact_evans_closed_form_agrees():
    # the unnormalized ratio stays red; the normalized closed form matches
    r = _run(["verify", "--suite", "exact-evans", "--p", "2", "--c", "0.3"])
    assert r.exit_code == 2
    checks = json.loads(r.output)["checks"]
    assert [c["name"] for c in checks] == ["shape-ratio-constancy", "closed-form-agreement"]
    assert checks[0]["passed"] is False
    assert checks[1]["passed"] is True
    assert float(checks[1]["detail"].split()[3]) <= 1e-6


# sha256 of the default stdout of each command, beside it.  The scan and
# contour commands carry perfbench/workloads.py's anchor flags.  A change
# that means to move a printed digit re-records these and says so.
_PINNED_STDOUT = [
    ("report --p 1 --c 0.3",
     "5e3c6d15f5e9d5fc55865d144d79a389d4ab3704d5324a6c740e0fa2c0bfe93e"),
    ("report --p 2 --c 0",
     "88433b9d418793d714a56fb35a909c64b8d8c2a2b291b2bf84a16974b9074063"),
    ("scan --model coupled-wave --p 1.0 --c 0.0 --lambda-max 3 --grid-n 13 --tol 1e-9 --format json",
     "41fd3dea0813d47d44557d24c0e1356392669d0f031cfc1329e9b8b2c8e991b3"),
    ("scan --model coupled-wave --p 2.0 --c 0.0 --lambda-max 3 --grid-n 13 --tol 1e-9 --format json",
     "759967cfc699197299d5a6b34667a17e41e9b4be76903929e540f637fb8f94cd"),
    ("contour --model coupled-wave --p 1.0 --c 0.0 --rect 0.5,3.0,-0.8,0.8",
     "4ae2a03e2647f211b25d7a8733c4bfa1fd693a7b7822b9364a4b8764887383e6"),
    ("contour --model coupled-wave --p 2.0 --c 0.0 --rect 0.5,3.0,-0.8,0.8",
     "6c65b769956c81a1fcfdf6816f82342dd7df60e833fc29cd93ece6b9cbde490f"),
    ("verify --suite structure --c 0.3",
     "cb0f30767d4b0ce40c012384259bd1c9112537dcfcd6ad3656d546afe1f8aa2d"),
    ("verify --suite appendix-a --c 0.3",
     "6aad509cabdc8f4b73f1d8401b8be2b74bf2a68c56d4305a3d62b80c948e086e"),
]


@pytest.mark.parametrize("command, digest", _PINNED_STDOUT, ids=[c for c, _ in _PINNED_STDOUT])
def test_pinned_stdout_bytes(command, digest):
    r = _run(shlex.split(command))
    assert r.exit_code == 0, r.output
    assert r.stderr == ""
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def _readme_cli_commands():
    """The evanskit commands in the fenced blocks of README's CLI section."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", section, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("evanskit "):
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", _readme_cli_commands())
def test_readme_cli_examples_run(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)   # examples may write files
    r = _run(shlex.split(command)[1:])
    assert r.exit_code == (2 if "exact-evans" in command else 0), r.output


def _run_module(args):
    # python -m evanskit.cli in a fresh interpreter, with this checkout's src first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "evanskit.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_runs_as_module():
    args = ["report", "--p", "1", "--c", "0.3"]
    r = _run_module(args)
    assert r.returncode == 0, r.stderr
    assert r.stdout == _run(args).stdout
    bad = _run_module(["report", "--bogus"])
    assert bad.returncode == 1 and bad.stdout == ""


@pytest.mark.parametrize("lam_max, says", [
    ("1e200", "swamps B_inf"), ("1e12", "mesh steps per half-domain")])
def test_huge_scan_refused_as_bad_parameter(lam_max, says):
    # a lambda too large for the spectra (1e200) or for the stepper's mesh
    # (1e12) is a bad parameter, exit 1, with the error line alone on stderr;
    # 1e200 used to print numpy's overflow warning and exit 3
    r = _run_module(["scan", "--p", "1", "--c", "0", "--lambda-max", lam_max, "--grid-n", "3"])
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.splitlines() == [r.stderr.rstrip("\n")]
    assert r.stderr.startswith("error: ") and says in r.stderr


@pytest.mark.parametrize("c, rect, named", [
    ("0.9995", "0.5,3,-0.8,0.8", "StepFail"), ("0", "-0.5,0.5,157,158", "ContourOnSpectrum")],
    ids=["c-0.9995-overflow", "c-0-on-spectrum"])
def test_refusal_stderr_is_one_typed_line(c, rect, named):
    # at c = 0.9995 the stepper's exponentials overflow in their squarings,
    # and a contour that crosses the continuous spectrum at 157i is refused
    # where spectra finds no splitting; each prints its typed error on one
    # line and no numpy warning
    r = _run_module(["contour", "--p", "1", "--c", c, f"--rect={rect}"])
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr.splitlines() == [r.stderr.rstrip("\n")]
    assert r.stderr.startswith(f"numerical failure: {named}: ")
