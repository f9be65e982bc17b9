"""Batch front-end: stability reports, real-axis scans, winding counts, suites.

Outputs are deterministic: floats print through repr (shortest round-trip
decimal), JSON keys are sorted, nothing carries timestamps.  Exit codes:
0 success, 1 usage or config error, 2 hypothesis or suite failure,
3 numerical failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np

from .asymptotics import spectrum
from .errors import BadParameter, EvanskitError
from .evans import (CONTOUR_TOL, SCAN_N, Numerics, evans_det, evans_dets,
                    evans_wedge, eta_identity_residual, real_axis_scan,
                    winding_count)
from .finite_re import cor23_root, synth_re, theorem22_check
from .invariants import stability_report, structural_checks
from .model import (CANONICAL_K, CANONICAL_M, MultisymplecticModel,
                    WaveFamily, build_coupled_wave, build_dirac,
                    oracle_coupled_wave, verify_wave, wave_tail)

_MODEL = "coupled-wave"   # the one model with a wave family
_SUITES = ("appendix-a", "exact-evans", "theorem22", "structure", "clifford")
_TASKS = ("report", "scan", "contour", "verify")
_PARAM_KEYS = {"p"}
_NUM_KEYS = {"L_override", "tol", "h", "grid_n"}
_TOP_KEYS = {"model", "params", "c", "numerics", "task", "lambda_max",
             "rect", "suite", "seeds", "out", "format"}
TAIL_TOL = 1e-8   # |zhat| at xi = +-L: the wave must have decayed at the truncation


def _r(x) -> str:
    return repr(float(x))


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _number(key: str, v) -> float:
    """A config value as a finite float, else BadParameter naming the key.

    JSON numbers arrive as int or float; a JSON boolean is an int to Python
    but not a number here, and strings, null, lists and objects are refused.
    The range test also refuses NaN, infinities and ints beyond float range.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max:
        raise BadParameter(f"{key}: expected a finite number, got {json.dumps(v)}")
    return float(v)


def _count(key: str, v) -> int:
    """A config value as a positive integer, else BadParameter naming the key."""
    x = _number(key, v)
    if not (x.is_integer() and x >= 1):
        raise BadParameter(f"{key}: must be a positive integer")
    return int(x)


@dataclass
class RunConfig:
    """One validated run: model selection, numerics, task-specific fields."""

    task: str
    model: str = _MODEL
    params: dict = field(default_factory=dict)
    c: float = 0.0
    numerics: dict | Numerics = field(default_factory=dict)   # keys given; then a Numerics
    lambda_max: float = 3.0
    rect: tuple | None = None
    suite: str | None = None
    seeds: int = 20
    out: str | None = None
    format: str | None = None   # csv for scan, json otherwise
    grid_n: int = field(init=False)   # numerics.grid_n: the scan's sample count

    def __post_init__(self):
        if self.task not in _TASKS:
            raise BadParameter(f"task: unknown task '{self.task}'")
        if self.model != _MODEL:
            raise BadParameter(f"model: unknown model '{self.model}'")
        if self.format is None:
            self.format = "csv" if self.task == "scan" else "json"
        if self.format not in ("csv", "json"):
            raise BadParameter(f"format: must be csv or json, got '{self.format}'")
        for k, v in self.params.items():
            if k not in _PARAM_KEYS:
                raise BadParameter(f"params: unknown key '{k}'")
            _number(f"params.{k}", v)   # kept as given: reports echo params
        for k in self.numerics:
            if k not in _NUM_KEYS:
                raise BadParameter(f"numerics: unknown key '{k}'")
        given = {"tol": CONTOUR_TOL if self.task == "contour" else Numerics.tol, **self.numerics}
        kw = {}
        for k, name in (("tol", "tol"), ("h", "h"), ("L_override", "L")):
            if k not in given or (k == "L_override" and given[k] is None):
                continue   # Numerics' default; no L override is the wave family's own L
            kw[name] = _number(f"numerics.{k}", given[k])
            if not kw[name] > 0:
                raise BadParameter(f"numerics.{k}: must be positive")
        self.grid_n = _count("grid_n", given.get("grid_n", SCAN_N))
        self.numerics = Numerics(**kw)
        self.c = _number("c", self.c)
        if not -1.0 < self.c < 1.0:
            raise BadParameter(f"c: speed {self.c} outside the admissible window (-1, 1)")
        self.lambda_max = _number("lambda_max", self.lambda_max)
        if self.lambda_max <= 0:
            raise BadParameter("lambda_max: must be positive")
        if self.rect is not None:
            if not isinstance(self.rect, (list, tuple)) or len(self.rect) != 4:
                raise BadParameter("rect: need re0,re1,im0,im1")
            r = tuple(_number("rect", v) for v in self.rect)
            if not (r[0] < r[1] and r[2] < r[3]):
                raise BadParameter("rect: need re0 < re1 and im0 < im1")
            self.rect = r
        if self.suite is not None and self.suite not in _SUITES:
            raise BadParameter(f"suite: unknown suite '{self.suite}'")
        self.seeds = _count("seeds", self.seeds)
        if self.out is not None and not isinstance(self.out, str):
            raise BadParameter("out: must be a file path string")
        # per-task rules
        if self.task != "scan" and self.format != "json":
            raise BadParameter(f"format: {self.task} emits json only")
        if self.task == "contour" and self.rect is None:
            raise BadParameter("rect: required for contour")
        if self.task == "verify" and self.suite is None:
            raise BadParameter("suite: required for verify")

    def coupled_wave(self):
        """(model, wave) of the coupled wave system at params p (default 1)."""
        return build_coupled_wave(float(self.params.get("p", 1.0)))


def _merge_config(task, config_path, kw) -> RunConfig:
    # file first, explicit flags override, the dataclass validates the union
    data = {}
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise BadParameter(f"config: {e}")
        if not isinstance(data, dict):
            raise BadParameter("config: top level must be a JSON object")
        for k in data:
            if k not in _TOP_KEYS:
                raise BadParameter(f"config: unknown key '{k}'")
    for key in ("params", "numerics"):
        if not isinstance(data.get(key, {}), dict):
            raise BadParameter(f"{key}: must be a JSON object")
    params = dict(data.get("params", {}))
    if kw.get("p") is not None:
        params["p"] = kw["p"]
    numerics = dict(data.get("numerics", {}))
    for flag, key in (("tol", "tol"), ("h", "h"), ("grid_n", "grid_n"),
                      ("big_l", "L_override")):
        if kw.get(flag) is not None:
            numerics[key] = kw[flag]
    # only values given in the file or by a flag; RunConfig holds the defaults
    given = {k: v for k, v in data.items() if k not in ("task", "params", "numerics")}
    for key in ("model", "c", "lambda_max", "suite", "seeds", "out", "format"):
        if kw.get(key) is not None:
            given[key] = kw[key]
    if kw.get("rect") is not None:
        parts = kw["rect"].split(",")
        if len(parts) != 4:
            raise BadParameter("rect: need re0,re1,im0,im1")
        try:
            given["rect"] = tuple(float(v) for v in parts)
        except ValueError:
            raise BadParameter(f"rect: could not parse '{kw['rect']}'")
    return RunConfig(task=task, params=params, numerics=numerics, **given)


def _emit(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _wave_refused(cfg: RunConfig, model, wave, residuals: bool) -> bool:
    # every task needs the wave decayed at xi = +-L; the profile residuals
    # are a report's own hypothesis, and as |c| -> 1 a scan or contour ends
    # in the typed error it raises there.  So without residuals the tail
    # alone decides, and the whole check runs only to be emitted on failure
    if not residuals and wave_tail(wave, cfg.c, cfg.numerics.L) <= TAIL_TOL:
        return False
    hc = verify_wave(model, wave, cfg.c, L=cfg.numerics.L)
    if hc.tail_norm > TAIL_TOL or (residuals and hc.max_residual() > 1e-6):
        _emit(_json({"hypothesis_report": dict(asdict(hc), passed=False)}), cfg.out)
        return True
    return False


def _cmd_report(cfg: RunConfig) -> int:
    model, wave = cfg.coupled_wave()
    if _wave_refused(cfg, model, wave, residuals=True):
        return 2
    rep = stability_report(model, wave, cfg.c, numerics=cfg.numerics, params=cfg.params)
    _emit(rep.to_json() + "\n", cfg.out)
    return 0


def _cmd_scan(cfg: RunConfig) -> int:
    model, wave = cfg.coupled_wave()
    if _wave_refused(cfg, model, wave, residuals=False):
        return 2
    res = real_axis_scan(model, wave, cfg.c, cfg.lambda_max,
                         n=cfg.grid_n, numerics=cfg.numerics)
    sidecar = {"brackets": [[float(a), float(b)] for a, b in res.brackets],
               "roots": [float(r) for r in res.roots],
               "d_inf": int(res.d_inf)}
    if cfg.format == "json":
        payload = {"lambda": [float(x) for x in res.lams],
                   "D_re": [float(v.real) for v in res.values],
                   "D_im": [float(v.imag) for v in res.values]}
        payload.update(sidecar)
        _emit(_json(payload), cfg.out)
        return 0
    lines = ["lambda_re,lambda_im,D_re,D_im"]
    for lam, val in zip(res.lams, res.values):
        lines.append(",".join((_r(lam), _r(0.0), _r(val.real), _r(val.imag))))
    csv = "\n".join(lines) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(csv)
        Path(cfg.out + ".brackets.json").write_text(_json(sidecar))
    else:
        click.echo(csv, nl=False)
        click.echo(_json(sidecar), err=True, nl=False)
    return 0


def _cmd_contour(cfg: RunConfig) -> int:
    model, wave = cfg.coupled_wave()
    if _wave_refused(cfg, model, wave, residuals=False):
        return 2
    w = winding_count(model, wave, cfg.c, cfg.rect, numerics=cfg.numerics)
    _emit(_json({"model": cfg.model, "c": cfg.c, "rect": list(cfg.rect),
                 "winding": int(w)}), cfg.out)
    return 0


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_clifford(cfg: RunConfig):
    d = build_dirac()
    gens = (d.J1, d.J2)
    ok = True
    for i in range(2):
        for j in range(2):
            anti = gens[i] @ gens[j] + gens[j] @ gens[i]
            ok = ok and np.array_equal(anti, -2 * d.metric[i, j] * np.eye(4, dtype=int))
    out = [_check("clifford-anticommutators", ok, "exact integer identities")]
    model, wave = cfg.coupled_wave()
    out.append(_check(
        "induced-skew-pair",
        np.array_equal(model.M, d.R4 @ d.J1) and np.array_equal(model.K, d.R4 @ d.J2),
        "M = R4 J1 and K = R4 J2"))
    R = model.R
    ok = (np.array_equal(R @ R, np.eye(4))
          and np.array_equal(R @ model.M, -model.M @ R)
          and np.array_equal(R @ model.K, -model.K @ R))
    out.append(_check("reversor-relations",
                      ok, "R*R = I and R anti-commutes with M, K"))
    worst = max(float(np.max(np.abs(R @ wave.zhat(-xi, cfg.c) - wave.zhat(xi, cfg.c))))
                for xi in (0.3, 1.1, 2.6))
    out.append(_check("profile-reversibility", worst <= 1e-12,
                      f"max residual {_r(worst)}"))
    return out


def _suite_appendix_a(cfg: RunConfig):
    model, wave = cfg.coupled_wave()
    sp = spectrum(model, cfg.c, 0.0)
    res = eta_identity_residual(model, sp)
    out = [_check("eta-pair-identity", res <= 1e-10, f"residual {_r(res)}")]
    binf = model.binf()
    frozen = MultisymplecticModel(CANONICAL_M, CANONICAL_K,
                                  lambda z: binf @ z, lambda z: binf)
    zero = lambda xi, c: np.zeros(4)
    fwave = WaveFamily(zhat=zero, zhat_xi=zero, zhat_c=zero, decay_rate=lambda c: 2.0)
    spf = spectrum(frozen, cfg.c, 0.8)
    W = evans_wedge(frozen, fwave, cfg.c, 0.8, spec=spf)
    rel = abs(W - spf.Kconst) / abs(spf.Kconst)
    out.append(_check("frozen-wedge-is-orientation-constant", rel <= 1e-8,
                      f"relative error {_r(rel)}"))
    W = evans_wedge(model, wave, cfg.c, 1.0, numerics=cfg.numerics)
    D = evans_det(model, wave, cfg.c, 1.0, numerics=cfg.numerics).D
    sp2 = spectrum(model, cfg.c, 1.0)
    rel = abs(W - D * sp2.Kconst) / abs(W)
    out.append(_check("wedge-det-proportionality", rel <= 1e-6,
                      f"relative error {_r(rel)}"))
    return out


def _suite_exact_evans(cfg: RunConfig):
    model, wave = cfg.coupled_wave()
    o = oracle_coupled_wave(model.params["p"], cfg.c)
    lams = 0.2 * np.arange(1, 16)
    denoms = lams ** 2 * o.quintic(lams)
    keep = np.abs(denoms) >= 1e-12   # off the roots of the closed form
    lams, denoms = lams[keep], denoms[keep]
    D = np.array([s.D.real for s in evans_dets(model, wave, cfg.c, lams,
                                                numerics=cfg.numerics)])
    r = D / denoms
    drift = float((r.max() - r.min()) / abs(r.mean()))
    err = float(np.max(np.abs(D / o.evans_det(lams) - 1.0)))
    return [_check("shape-ratio-constancy", drift <= 1e-4,
                   f"relative drift {_r(drift)} over {len(r)} samples"),
            _check("closed-form-agreement", err <= 1e-6,
                   f"max relative error {_r(err)} over {len(r)} samples")]


def _suite_theorem22(cfg: RunConfig):
    out = []
    for seed in range(cfg.seeds):
        for n in (1, 2, 3):
            name = f"pencil-seed{seed}-n{n}"
            prob = synth_re(n, seed)
            try:
                rep = theorem22_check(prob)
            except EvanskitError as e:
                out.append(_check(name, False, f"{type(e).__name__}: {e}"))
                continue
            detail = f"second-derivative rel err {_r(rep.rel_err)}"
            ok = True
            root = cor23_root(prob)
            if root is not None:
                evs = np.linalg.eigvals(np.linalg.solve(prob.M, prob.L))
                ok = bool(np.min(np.abs(evs - root)) <= 1e-8 * max(1.0, root))
                detail += f", real root {_r(root)}"
            out.append(_check(name, ok, detail))
    return out


def _suite_structure(cfg: RunConfig):
    model, wave = cfg.coupled_wave()
    r = structural_checks(model, wave, cfg.c, numerics=cfg.numerics)
    return [
        _check("tangent-pairing-plus", r.max_tangent_plus <= 1e-7,
               f"max {_r(r.max_tangent_plus)}"),
        _check("tangent-pairing-minus", r.max_tangent_minus <= 1e-7,
               f"max {_r(r.max_tangent_minus)}"),
        _check("tangent-pairing-speed-derivative", r.max_tangent_zc <= 1e-7,
               f"max {_r(r.max_tangent_zc)}"),
    ]


_SUITE_FNS = {
    "clifford": _suite_clifford,
    "appendix-a": _suite_appendix_a,
    "exact-evans": _suite_exact_evans,
    "theorem22": _suite_theorem22,
    "structure": _suite_structure,
}
_WAVE_SUITES = {"appendix-a", "exact-evans", "structure"}   # the suites that integrate the wave


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite in _WAVE_SUITES and _wave_refused(cfg, *cfg.coupled_wave(), residuals=False):
        return 2
    checks = _SUITE_FNS[cfg.suite](cfg)
    passed = all(c["passed"] for c in checks)
    _emit(_json({"suite": cfg.suite, "passed": passed, "checks": checks}),
          cfg.out)
    return 0 if passed else 2


_DISPATCH = {"report": _cmd_report, "scan": _cmd_scan,
             "contour": _cmd_contour, "verify": _cmd_verify}


def _run(task: str, kw: dict):
    try:
        cfg = _merge_config(task, kw.pop("config"), kw)
        code = _DISPATCH[task](cfg)
    except BadParameter as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except EvanskitError as e:
        click.echo(f"numerical failure: {type(e).__name__}: {e}", err=True)
        sys.exit(3)
    sys.exit(code)


def _options(f):
    opts = [
        click.option("--config", type=click.Path(), default=None,
                     help="JSON config file; explicit flags override it."),
        click.option("--model", default=None,
                     help="coupled-wave, the only model (the default)."),
        click.option("--p", "p", type=float, default=None,
                     help="coupling strength of the coupled wave system."),
        click.option("--c", "c", type=float, default=None, help="wave speed."),
        click.option("--lambda-max", "lambda_max", type=float, default=None,
                     help="right end of the real-axis scan window."),
        click.option("--grid-n", "grid_n", type=int, default=None,
                     help="number of scan samples."),
        click.option("--rect", default=None,
                     help="contour rectangle re0,re1,im0,im1."),
        click.option("--tol", type=float, default=None,
                     help=f"integrator tolerance, which sets its mesh (contour default "
                          f"{CONTOUR_TOL:g}, else {Numerics.tol:g})."),
        click.option("--h", "h", type=float, default=None,
                     help="base step for derivatives at the origin."),
        click.option("--L", "big_l", type=float, default=None,
                     help="override the truncation half-width."),
        click.option("--suite", default=None,
                     help="verification suite name."),
        click.option("--seeds", type=int, default=None,
                     help="number of random pencil seeds for theorem22."),
        click.option("--out", type=click.Path(), default=None,
                     help="output file (stdout when omitted)."),
        click.option("--format", default=None,
                     help="csv or json (scan only; other tasks emit json)."),
    ]
    for o in reversed(opts):
        f = o(f)
    return f


class _Group(click.Group):
    """Usage errors exit 1, not click's 2, which here means a failed check."""

    def make_context(self, *args, **kwargs):   # options of the group itself
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 1
            raise

    def invoke(self, ctx):   # unknown commands and subcommand options
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 1
            raise


@click.group(cls=_Group)
def main():
    """Evans-function toolkit: reports, scans, winding counts, verification."""


@main.command(help="Full stability report as JSON (coupled-wave only).")
@_options
def report(**kw):
    _run("report", kw)


@main.command(help="Sample D along the real axis; CSV plus bracket sidecar.")
@_options
def scan(**kw):
    _run("scan", kw)


@main.command(help="Winding number of D around a rectangle.")
@_options
def contour(**kw):
    _run("contour", kw)


@main.command(help="Run a named verification suite; nonzero exit on failure.")
@_options
def verify(**kw):
    _run("verify", kw)


if __name__ == "__main__":
    main()
