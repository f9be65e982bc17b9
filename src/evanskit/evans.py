"""Evans function in determinant and wedge form, derivatives, scans, winding counts.

The determinant form pairs the two adjoint-normalized modes w3, w4 against the
two decaying modes u3, u4 at a matching point.  The wedge form takes the 4-fold
exterior product of all four u-modes.  Both are assembled from rescaled
trajectories, so every pairing is evaluated at O(1) scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import InfinitySpectrum, spectra, spectrum
from .errors import (BadParameter, ContourOnSpectrum, DegenerateMu, EvanskitError, NoConverge,
                     NonClosure, SplittingViolated, StepTooLarge)
from .integrator import Stepper
from .linalg import _cmul, interior2, skew_cmat4, symplectic_forms, wedge2, wedge4
from .model import MultisymplecticModel, WaveFamily, jc

__all__ = [
    "Numerics",
    "EvansSample",
    "Derivatives",
    "ScanResult",
    "evans_det",
    "evans_dets",
    "evans_wedge",
    "eta_identity_residual",
    "derivatives_at_zero",
    "real_axis_scan",
    "winding_count",
]


@dataclass(frozen=True)
class Numerics:
    """Shared numerical knobs for Evans-function assembly."""

    tol: float = 1e-10       # sets the integrator's mesh: integrator.mesh_steps(tol)
    L: float | None = None   # domain half-length override
    h: float = 0.1           # derivative step at the origin

    def __post_init__(self):
        # written so that NaN fails every test
        for name in ("tol", "h"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise BadParameter(f"{name} must be finite and positive")
        if self.L is not None and not 0.0 < self.L < np.inf:
            raise BadParameter("L must be None or finite and positive")


_DEFAULT = Numerics()
CONTOUR_TOL = 1e-8   # contours default to a looser tolerance than point values
SCAN_N = 31          # default sample count of real-axis scans
ROOT_XTOL = 1e-10    # absolute tolerance of real-axis root polish
_POLISH_ROUNDS = 100  # cap on lockstep polish rounds; each at least halves a bracket
_SEED_POINTS = 8     # known points whose interpolant estimates a root in every polish round


def _stepper(model: MultisymplecticModel, wave: WaveFamily, c: float,
             numerics: Numerics | None) -> Stepper:
    # one task's Stepper at the tol and L of numerics, of _DEFAULT when None
    nm = numerics or _DEFAULT
    return Stepper(model, wave, c, tol=nm.tol, L=nm.L)


@dataclass
class EvansSample:
    """One Evans-function evaluation with its 2x2 pairing entries.

    The matrix is [[d1, d3], [d4, d2]] with d1 = Om(w3,u3), d2 = Om(w4,u4),
    d3 = Om(w3,u4), d4 = Om(w4,u3); D = d1*d2 - d3*d4.
    """

    lam: complex
    D: complex
    d1: complex = 0.0
    d2: complex = 0.0
    d3: complex = 0.0
    d4: complex = 0.0
    stats: dict = field(default_factory=dict)   # "u3", "u4", "w3", "w4" -> StepStats


_DET_MODES = ((3, "u"), (4, "u"), (3, "w"), (4, "w"))


def _det_runs(lams, specs, xi_star: float = 0.0) -> list:
    # u3, u4 from -L and w3, w4 from +L to xi_star, per lambda, as runs
    # of Stepper.run
    return [(lam, spec, j, kind, xi_star, None)
            for lam, spec in zip(lams, specs) for j, kind in _DET_MODES]


def _det_samples(model, c, lams, specs, sols, xi_star: float = 0.0) -> list[EvansSample]:
    # the determinants from the solutions of _det_runs(lams, specs, xi_star):
    # per lambda, Omega(w_i, u_j) for (i, j) = (3, 3), (4, 4), (3, 4), (4, 3),
    # rebalanced to the scale of the matching point by exp((mu_j - mu_i) xi_star)
    ends = np.array([sol.value_at_end for sol in sols]).reshape(-1, 4, 4)   # u3 u4 w3 w4
    om = symplectic_forms(skew_cmat4(jc(model, c)), ends[:, [2, 3, 2, 3]], ends[:, [0, 1, 1, 0]])
    mu = np.array([spec.mu for spec in specs]).reshape(-1, 4)
    d = _cmul(om, np.exp(_cmul(mu[:, [2, 3, 3, 2]] - mu[:, [2, 3, 2, 3]], complex(xi_star))))
    dets = _cmul(d[:, 0], d[:, 1]) - _cmul(d[:, 2], d[:, 3])
    names, stats = [f"{kind}{j}" for j, kind in _DET_MODES], [sol.stats for sol in sols]
    return [EvansSample(lam=complex(lam), D=dets[n], d1=d[n, 0], d2=d[n, 1], d3=d[n, 2],
                        d4=d[n, 3], stats=dict(zip(names, stats[4 * n:4 * n + 4])))
            for n, lam in enumerate(lams)]


def _mirror(spec: InfinitySpectrum) -> InfinitySpectrum:
    # the spectrum at infinity of conj lambda, from the one of lambda
    return replace(spec, lam=spec.lam.conjugate(), mu=np.conj(spec.mu), zeta=np.conj(spec.zeta),
                   eta=np.conj(spec.eta), Kconst=spec.Kconst.conjugate())


def _seen_from(s: EvansSample, lam: complex) -> EvansSample:
    # the sample of lam from the sample s of lam, or of conj lam when Im lam < 0
    vals = [s.D, s.d1, s.d2, s.d3, s.d4]
    if lam.imag < 0:
        vals = [z.conjugate() for z in vals]
    return EvansSample(lam, *vals, stats=dict(s.stats))


def evans_dets(model: MultisymplecticModel, wave: WaveFamily, c: float, lams,
               numerics: Numerics | None = None, specs=None,
               xi_star: float = 0.0) -> list[EvansSample]:
    """Determinant-form Evans function at many spectral points, one integration.

    For each lambda, integrates u3, u4 from -L and w3, w4 from +L to the
    matching point xi_star, which must be a stop node of the stepper (0,
    +-L, or one of +-0.5, ..., +-2 inside (-L, L)), and returns the
    determinant of the symplectic cross-pairings.
    Pairings with mismatched mode indices are rebalanced by
    exp((mu_i - mu_j) xi_star); the product d3*d4 is insensitive to this,
    so D itself does not depend on the rebalancing convention.

    The model is real, so D(conj lambda) = conj D(lambda), and so are d1..d4:
    a lambda with Im lambda < 0 is evaluated at its mirror image conj lambda,
    and its sample is the mirror's conjugated, with its own lam and the
    mirror's step stats.  Each distinct point left is solved once.
    All 4 runs of every such point go through one sweep of a Stepper built
    for this call, and each keeps its own steps: every sample equals its
    evans_det call exactly.  real_axis_scan and winding_count evaluate the
    same way on one Stepper per task, whose mesh and tables are built once.
    specs optionally supplies the spectrum at infinity per lambda; of a
    point that appears more than once, the first spec is used.  Where
    spectra refuses, the error is the one it raises at the caller's lambdas.
    """
    return _dets(_stepper(model, wave, c, numerics), lams, specs, xi_star)


def _dets(stepper: Stepper, lams, specs=None, xi_star: float = 0.0) -> list[EvansSample]:
    # evans_dets on the stepper's (model, wave, c, tol, L)
    model, c = stepper.model, stepper.c
    lams = [complex(lam) for lam in lams]
    ups = [lam.conjugate() if lam.imag < 0 else lam for lam in lams]
    pts = list(dict.fromkeys(ups))   # distinct, in order of first appearance
    if specs is None:
        try:
            specs = spectra(model, c, pts)
        except EvanskitError:
            spectra(model, c, lams)   # name the caller's lambda, not its mirror image
            raise
    else:
        given = {}
        for lam, up, spec in zip(lams, ups, specs):
            given.setdefault(up, _mirror(spec) if lam.imag < 0 else spec)
        specs = [given[up] for up in pts]
    sols = stepper.run(_det_runs(pts, specs, xi_star))
    done = dict(zip(pts, _det_samples(model, c, pts, specs, sols, xi_star)))
    return [_seen_from(done[up], lam) for lam, up in zip(lams, ups)]


def evans_det(model: MultisymplecticModel, wave: WaveFamily, c: float, lam: complex,
              numerics: Numerics | None = None, spec: InfinitySpectrum | None = None,
              xi_star: float = 0.0) -> EvansSample:
    """Determinant-form Evans function at one spectral point: evans_dets of one.

    xi_star must be a stop node: 0, +-L, or one of +-0.5, ..., +-2 inside (-L, L).
    """
    return evans_dets(model, wave, c, [lam], numerics=numerics,
                      specs=None if spec is None else [spec], xi_star=xi_star)[0]


def evans_wedge(model: MultisymplecticModel, wave: WaveFamily, c: float, lam: complex,
                numerics: Numerics | None = None,
                spec: InfinitySpectrum | None = None) -> complex:
    """Wedge-form Evans function: u1(0) ^ u2(0) ^ u3(0) ^ u4(0).

    The exponential prefactor that makes the wedge xi-independent equals 1 at
    the matching point xi = 0.
    """
    if spec is None:
        spec = spectrum(model, c, lam)
    runs = [(lam, spec, j, "u", 0.0, None) for j in (1, 2, 3, 4)]
    sols = _stepper(model, wave, c, numerics).run(runs)
    return complex(wedge4(*(s.value_at_end for s in sols)))


def eta_identity_residual(model: MultisymplecticModel, spec: InfinitySpectrum) -> float:
    """Relative residual of the bivector identity behind the wedge/determinant link.

    J eta3 ^ J eta4 must equal the contraction of zeta1 ^ zeta2 into the
    4-form built from all four J eta_j.
    """
    J = jc(model, spec.c)
    je = [J @ spec.eta[k] for k in range(4)]
    qstar = wedge4(*je)
    lhs = wedge2(je[2], je[3])
    rhs = interior2(qstar, wedge2(spec.zeta[0], spec.zeta[1]))
    num = max(abs(a - b) for a, b in zip(lhs, rhs))
    den = max(max(abs(x) for x in lhs), 1e-300)
    return num / den


@dataclass
class Derivatives:
    """Evans derivatives at the origin from 5-point central differences."""

    D0: float
    D1: float
    D2_raw: float
    D2_scaled: float      # D2_raw / 2, matching the rescaled statement
    scale: float          # max |D| over the sample stencil


def _stencil(h: float) -> list[float]:
    return [0.0, h / 2, -h / 2, h, -h]


def _derivatives(h: float, samples) -> Derivatives:
    # D, D', D'' at 0 from the EvansSamples at _stencil(h), in that order
    vals = [s.D.real for s in samples]
    v0, vh2, vmh2, vh, vmh = vals
    scale = max(abs(v) for v in vals)
    # quadratic-fit guard: the stencil must sit inside the parabolic regime
    V, y = np.vander(np.array(_stencil(h)), 3), np.array(vals)
    coef, *_ = np.linalg.lstsq(V, y, rcond=None)
    rms = np.sqrt(np.mean((y - V @ coef) ** 2))
    if scale > 0 and rms / scale > 1e-3:
        raise StepTooLarge(f"h={h} leaves quadratic-fit residual {rms/scale:.2e} relative")
    d1_h = (vh - vmh) / (2 * h)
    d1_h2 = (vh2 - vmh2) / h
    d1 = (4 * d1_h2 - d1_h) / 3
    d2_h = (vh - 2 * v0 + vmh) / h ** 2
    d2_h2 = (vh2 - 2 * v0 + vmh2) / (h / 2) ** 2
    d2 = (4 * d2_h2 - d2_h) / 3
    return Derivatives(D0=v0, D1=d1, D2_raw=d2, D2_scaled=d2 / 2, scale=scale)


def derivatives_at_zero(model: MultisymplecticModel, wave: WaveFamily, c: float,
                        numerics: Numerics | None = None) -> Derivatives:
    """D, D', D'' at lambda = 0 by central differences with Richardson extrapolation.

    Samples at {0, +-h/2, +-h} with h = numerics.h, in one batched
    integration.  Raises StepTooLarge when a least-squares quadratic through
    the five samples leaves more than 1e-3 relative residual, which signals
    that h reaches outside the quadratic neighborhood of 0.
    """
    nm = numerics or _DEFAULT
    return _derivatives(nm.h, _dets(_stepper(model, wave, c, nm), _stencil(nm.h)))


@dataclass
class ScanResult:
    lams: np.ndarray
    values: np.ndarray            # complex D(lambda)
    brackets: list                # (lo, hi) sign-change intervals before refinement
    roots: list                   # midpoints of brackets polished to ROOT_XTOL
    d_inf: int                    # sign of D at the right end
    rounds: int                   # polish rounds, one stepper sweep each after the grid's


def _interp_zero(xs, fs, lo, hi) -> float:
    # a zero in (lo, hi) of the polynomial through the points (xs, fs), whose
    # first two are lo and hi, of opposite sign, and no other in [lo, hi]:
    # Illinois regula falsi on its barycentric form (Berrut and Trefethen,
    # SIAM Rev. 46, 2004), in Python floats.  It returns the iterate where
    # the polynomial is 0, or that falls on an end of what is left of the
    # bracket, or the 100th; nan where the weights over- or underflow, or
    # where the barycentric denominator rounds to 0
    s = hi - lo   # differences in units of the bracket keep the weights O(1)
    ws = [1.0 / math.prod((a - b) / s for b in xs if b != a) for a in xs]
    if not all(0.0 < abs(w) < math.inf for w in ws):
        return math.nan

    def p(x):
        t = [w / (x - a) for w, a in zip(ws, xs)]
        den = sum(t)
        return sum(u * f for u, f in zip(t, fs)) / den if den else math.nan

    a, fa, b, fb = lo, fs[0], hi, fs[1]
    side = 0
    for _ in range(100):
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:
            break
        fx = p(x)
        if math.isnan(fx):
            return fx
        if fx == 0.0:
            break
        if (fx < 0) == (fa < 0):
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
    return x


def _estimate(lo, hi, known):
    # (est, err) for the bracket (lo, hi): the zeros in it of the
    # polynomials through lo, hi and the known points outside it nearest its
    # midpoint, _SEED_POINTS points or all there are, and two fewer but at
    # least lo and hi, and their distance; None when lo and hi are the only
    # known points, whose secant has no second zero to be measured against
    mid = 0.5 * (lo + hi)
    outside = sorted((x for x in known if not lo <= x <= hi), key=lambda x: abs(x - mid))
    if not outside:
        return None
    near = [lo, hi, *outside[:_SEED_POINTS - 2]]
    fine, coarse = (_interp_zero(xs, [known[x] for x in xs], lo, hi)
                    for xs in (near, near[:max(2, len(near) - 2)]))
    return fine, abs(fine - coarse)


def _polish(f, brackets, known):
    """Shrink sign-change brackets of f to ROOT_XTOL in lockstep, one f call per round.

    f maps a list of points to their real values.  known maps every point
    evaluated so far, the bracket ends included, to its value.  Each round
    evaluates, for every open bracket, its midpoint and an estimate est with
    est -+ d, d = max(err, ROOT_XTOL / 2), points outside the bracket
    dropped.  In every round est is the zero in the bracket of the
    polynomial through its ends and the known points nearest it,
    _SEED_POINTS in all or as many as are known (in a scan's first round,
    grid samples), and err the distance to the zero of the one through two
    points fewer, or through the ends alone; with no known point but the
    ends, the round evaluates the midpoint alone.  When d is ROOT_XTOL / 2,
    est -+ d alone close the bracket if the root lies between them, so est
    is not evaluated in that round.  The bracket then becomes the first
    sign-change interval among the points it holds, so it stays an interval
    between evaluated points of opposite sign and at least halves.  A
    bracket ends at width <= 2 ROOT_XTOL, or as (x, x) on a point x where f
    is exactly 0.  Returns the final brackets and the number of rounds;
    raises NoConverge when brackets are still open after _POLISH_ROUNDS
    rounds.
    """
    known = dict(known)
    brackets = list(brackets)
    live = [k for k, (lo, hi) in enumerate(brackets) if hi - lo > 2 * ROOT_XTOL]
    rounds = 0
    while live:
        if rounds == _POLISH_ROUNDS:
            raise NoConverge(f"root polish left {len(live)} brackets wider than "
                             f"{2 * ROOT_XTOL:g} after {rounds} rounds")
        inner = {}
        for k in live:
            lo, hi = brackets[k]
            guess = _estimate(lo, hi, known)
            pts = [0.5 * (lo + hi)]
            if guess is not None:
                est, err = guess
                d = max(err, 0.5 * ROOT_XTOL)
                pts += [est - d, est + d] if d == 0.5 * ROOT_XTOL else [est - d, est, est + d]
            inner[k] = sorted({float(x) for x in pts if lo < x < hi})
        new = sorted({x for pts in inner.values() for x in pts} - known.keys())
        if new:   # empty only when no float lies inside any open bracket
            known.update(zip(new, (float(v) for v in f(new))))
        rounds += 1
        for k in live:
            lo, hi = brackets[k]
            zeros = [x for x in inner[k] if known[x] == 0.0]
            if zeros:
                brackets[k] = (zeros[0], zeros[0])
                continue
            xs = [lo, *inner[k], hi]
            brackets[k] = next((a, b) for a, b in zip(xs, xs[1:])
                               if (known[a] < 0) != (known[b] < 0))
        live = [k for k in live if brackets[k][1] - brackets[k][0] > 2 * ROOT_XTOL]
    return brackets, rounds


def real_axis_scan(model: MultisymplecticModel, wave: WaveFamily, c: float,
                   lam_max: float, n: int = SCAN_N,
                   numerics: Numerics | None = None) -> ScanResult:
    """Sample D on (0, lam_max], bracket sign changes, polish every root together.

    The grid samples are one batched evaluation.  Each sign-change interval
    of the grid is then shrunk to width 2 ROOT_XTOL or less by _polish, all
    brackets in lockstep, one batched evaluation per round.  Every round
    estimates a root as the zero of the polynomial through the 8 known
    samples nearest its bracket, grid samples in the first, so a grid that
    resolves D saves rounds (a coupled-wave scan of (0, 3] on 13 samples at
    tol 1e-9 takes 2).  The grid and every round sweep one Stepper, so the
    task builds its mesh and W tables once.  rounds counts the polish
    rounds.  A root is the midpoint of its final bracket, so it lies within
    ROOT_XTOL of the sign change of D.  A grid sample where D is exactly 0
    is a root as it stands.  A sample on the continuous spectrum raises
    what spectra raises there.
    """
    n = int(n)
    if not 0.0 < lam_max < np.inf or n < 2:
        raise BadParameter("scan needs a finite lam_max > 0 and at least two samples")
    lams = np.linspace(lam_max / n, lam_max, n)
    stepper = _stepper(model, wave, c, numerics)
    vals = np.array([s.D for s in _dets(stepper, lams)])
    re = vals.real

    def f(points):
        return [s.D.real for s in _dets(stepper, points)]

    brackets = [(float(lams[k]), float(lams[k + 1])) for k in range(n - 1)
                if re[k] * re[k + 1] < 0]
    polished, rounds = _polish(f, brackets, dict(zip(lams.tolist(), re.tolist())))
    # brackets are disjoint and end at nonzero samples: sorting keeps grid order
    roots = sorted([float(lams[k]) for k in range(n - 1) if re[k] == 0.0]
                   + [0.5 * (lo + hi) for lo, hi in polished])
    d_inf = 1 if re[-1] > 0 else (-1 if re[-1] < 0 else 0)
    return ScanResult(lams=lams, values=vals, brackets=brackets, roots=roots,
                      d_inf=d_inf, rounds=rounds)


def _rect_path(rect, m_per_edge):
    # the boundary counterclockwise from (re0, im0), m_per_edge points an edge
    # and the first point again at the end.  Both horizontal edges take one
    # linspace of real parts; when im0 == -im1 the vertical edges' imaginary
    # parts are made exactly antisymmetric, so the boundary points, and the
    # midpoints of refinement, come in exact conjugate pairs
    re0, re1, im0, im1 = rect
    xs = np.linspace(re0, re1, m_per_edge + 1)
    ys = np.linspace(im0, im1, m_per_edge + 1)
    if im0 == -im1:
        ys = 0.5 * (ys - ys[::-1])
    return ([complex(x, im0) for x in xs[:-1]] + [complex(re1, y) for y in ys[:-1]]
            + [complex(x, im1) for x in xs[:0:-1]] + [complex(re0, y) for y in ys[:0:-1]]
            + [complex(re0, im0)])


def winding_count(model: MultisymplecticModel, wave: WaveFamily, c: float,
                  rect, numerics: Numerics | None = None,
                  m_per_edge: int = 12) -> int:
    """Argument-principle zero count of D inside an axis-aligned rectangle.

    The boundary is refined until consecutive image points subtend less than
    pi/2, so the winding of the image curve about 0 is unambiguous.  Contours
    default to a looser integration tolerance than pointwise evaluation
    (CONTOUR_TOL); pass numerics to override.  The boundary points are one
    batched evaluation, and so is each level of refinement; all of them
    sweep one Stepper, so the task builds its mesh and W tables once.
    evans_dets evaluates a point with Im lambda < 0 at its mirror image
    conj lambda; a rectangle with im0 == -im1 has its boundary and
    refinement points in exact conjugate pairs, so about half of them are
    integrated.  A boundary or refinement point where spectra finds no
    two-two splitting, or coalescing exponents, lies on the continuous
    spectrum: ContourOnSpectrum.
    """
    re0, re1, im0, im1 = (float(x) for x in rect)
    if not (re0 < re1 and im0 < im1):
        raise BadParameter("rectangle must satisfy re0 < re1 and im0 < im1")
    if re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
        raise BadParameter("contour must not enclose or touch the origin, "
                           "where D vanishes identically")
    pts = _rect_path((re0, re1, im0, im1), m_per_edge)
    stepper = _stepper(model, wave, c, numerics or Numerics(tol=CONTOUR_TOL))
    D: dict[complex, complex] = {}

    def evaluate(lams):
        new = [lam for lam in lams if lam not in D]   # _dets solves repeats once
        if new:
            try:
                samples = _dets(stepper, new)
            except (SplittingViolated, DegenerateMu) as e:
                raise ContourOnSpectrum(f"contour meets the continuous spectrum: {e}") from e
            D.update(zip(new, (s.D for s in samples)))

    evaluate(pts)
    scale = max(abs(D[lam]) for lam in pts)
    if scale == 0.0:
        raise NonClosure("Evans function vanishes on the whole contour")

    # halve every segment whose phase step is pi/2 or more, one level at a time
    total = 0.0
    segs = list(zip(pts[:-1], pts[1:]))
    depth = 0
    while segs:
        split = []
        for za, zb in segs:
            fa, fb = D[za], D[zb]
            if abs(fa) < 1e-14 * scale or abs(fb) < 1e-14 * scale:
                raise NonClosure("Evans function vanishes on the contour")
            dphi = np.angle(fb / fa)
            if abs(dphi) < np.pi / 2:
                total += dphi
            else:
                split.append((za, zb))
        if split and depth > 40:
            raise NoConverge("contour refinement did not localize the phase")
        mids = [0.5 * (za + zb) for za, zb in split]
        evaluate(mids)
        segs = [seg for (za, zb), zm in zip(split, mids) for seg in ((za, zm), (zm, zb))]
        depth += 1
    turns = total / (2 * np.pi)
    residual = abs(total - 2 * np.pi * round(turns))
    if residual >= 0.1:
        raise NonClosure(f"accumulated phase misses a full turn by {residual:.3f}")
    return int(round(turns))
