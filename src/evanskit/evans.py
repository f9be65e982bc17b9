"""Evans function in determinant and wedge form, derivatives, scans, winding counts.

The determinant form pairs the two adjoint-normalized modes w3, w4 against the
two decaying modes u3, u4 at a matching point.  The wedge form takes the 4-fold
exterior product of all four u-modes.  Both are assembled from rescaled
trajectories, so every pairing is evaluated at O(1) scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asymptotics import InfinitySpectrum, spectra, spectrum
from .errors import (BadParameter, ContourOnSpectrum, DegenerateMu, NoConverge, NonClosure,
                     SplittingViolated, StepTooLarge)
from .integrator import integrate_modes
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
    # u3, u4 from -L and w3, w4 from +L to xi_star, per lambda, as
    # integrate_modes runs
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


def evans_dets(model: MultisymplecticModel, wave: WaveFamily, c: float, lams,
               numerics: Numerics | None = None, specs=None,
               xi_star: float = 0.0) -> list[EvansSample]:
    """Determinant-form Evans function at many spectral points, one integration.

    For each lambda, integrates u3, u4 from -L and w3, w4 from +L to the
    matching point xi_star and returns the determinant of the symplectic
    cross-pairings.  Pairings with mismatched mode indices are rebalanced by
    exp((mu_i - mu_j) xi_star); the product d3*d4 is insensitive to this,
    so D itself does not depend on the rebalancing convention.

    All 4 * len(lams) runs go through one batched stepper call, and each
    keeps its own steps: every sample equals its evans_det call exactly.
    specs optionally supplies the spectrum at infinity per lambda.
    """
    nm = numerics or _DEFAULT
    if specs is None:
        specs = spectra(model, c, lams)
    sols = integrate_modes(model, wave, c, _det_runs(lams, specs, xi_star),
                           tol=nm.tol, L=nm.L)
    return _det_samples(model, c, lams, specs, sols, xi_star)


def evans_det(model: MultisymplecticModel, wave: WaveFamily, c: float, lam: complex,
              numerics: Numerics | None = None, spec: InfinitySpectrum | None = None,
              xi_star: float = 0.0) -> EvansSample:
    """Determinant-form Evans function at one spectral point: evans_dets of one."""
    return evans_dets(model, wave, c, [lam], numerics=numerics,
                      specs=None if spec is None else [spec], xi_star=xi_star)[0]


def evans_wedge(model: MultisymplecticModel, wave: WaveFamily, c: float, lam: complex,
                numerics: Numerics | None = None,
                spec: InfinitySpectrum | None = None) -> complex:
    """Wedge-form Evans function: u1(0) ^ u2(0) ^ u3(0) ^ u4(0).

    The exponential prefactor that makes the wedge xi-independent equals 1 at
    the matching point xi = 0.
    """
    nm = numerics or _DEFAULT
    if spec is None:
        spec = spectrum(model, c, lam)
    runs = [(lam, spec, j, "u", 0.0, None) for j in (1, 2, 3, 4)]
    sols = integrate_modes(model, wave, c, runs, tol=nm.tol, L=nm.L)
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
    return _derivatives(nm.h, evans_dets(model, wave, c, _stencil(nm.h), numerics=nm))


@dataclass
class ScanResult:
    lams: np.ndarray
    values: np.ndarray            # complex D(lambda)
    brackets: list                # (lo, hi) sign-change intervals before refinement
    roots: list                   # midpoints of brackets polished to ROOT_XTOL
    d_inf: int                    # sign of D at the right end


def _inverse_interp(xs, fs) -> list:
    # zeros of the inverse interpolants x(f) through the first 1, 2, ... of
    # the points (xs, fs), by Neville's scheme; nan or inf where f values
    # coincide
    p = np.array(xs, dtype=float)
    f = np.array(fs, dtype=float)
    ests = [p[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, len(p)):
            p = (f[m:] * p[:-1] - f[:-m] * p[1:]) / (f[m:] - f[:-m])
            ests.append(p[0])
    return ests


def _polish(f, brackets, known):
    """Shrink sign-change brackets of f to ROOT_XTOL in lockstep, one f call per round.

    f maps a list of points to their real values.  known maps every point
    evaluated so far, the bracket ends included, to its value.  Each round
    evaluates, for every open bracket, its midpoint and an estimate est with
    est -+ max(err, ROOT_XTOL / 2), points outside the bracket dropped.
    est is the zero of the inverse interpolant through the 4, 3 or 2 known
    points nearest the bracket, the first of these that falls inside it
    (the last, through the bracket ends, always does), and err its last
    Neville correction.  The bracket then becomes the first sign-change
    interval among the points it holds, so it stays an interval between
    evaluated points of opposite sign and at least halves.  A bracket ends
    at width <= 2 ROOT_XTOL, or as (x, x) on a point x where f is exactly 0.
    Returns the final brackets and the number of rounds; raises NoConverge
    when brackets are still open after _POLISH_ROUNDS rounds.
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
            mid = 0.5 * (lo + hi)
            near = sorted(known, key=lambda x: abs(x - mid))[:4]
            ests = _inverse_interp(near, [known[x] for x in near])
            inside = [i for i in range(1, len(ests)) if lo < ests[i] < hi]
            pts = [mid]
            if inside:
                i = inside[-1]
                d = max(abs(ests[i] - ests[i - 1]), 0.5 * ROOT_XTOL)
                pts += [ests[i] - d, ests[i], ests[i] + d]
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
    brackets in lockstep, one batched evaluation per round; a root is the
    midpoint of its final bracket, so it lies within ROOT_XTOL of the sign
    change of D.  A grid sample where D is exactly 0 is a root as it stands.
    A sample on the continuous spectrum raises what spectra raises there.
    """
    nm = numerics or _DEFAULT
    n = int(n)
    if lam_max <= 0 or n < 2:
        raise BadParameter("scan needs lam_max > 0 and at least two samples")
    lams = np.linspace(lam_max / n, lam_max, n)
    samples = evans_dets(model, wave, c, lams, numerics=nm)
    vals = np.array([s.D for s in samples])
    re = vals.real

    def f(points):
        return [s.D.real for s in evans_dets(model, wave, c, points, numerics=nm)]

    brackets = [(float(lams[k]), float(lams[k + 1])) for k in range(n - 1)
                if re[k] * re[k + 1] < 0]
    polished, _ = _polish(f, brackets, dict(zip(lams.tolist(), re.tolist())))
    # brackets are disjoint and end at nonzero samples: sorting keeps grid order
    roots = sorted([float(lams[k]) for k in range(n - 1) if re[k] == 0.0]
                   + [0.5 * (lo + hi) for lo, hi in polished])
    d_inf = 1 if re[-1] > 0 else (-1 if re[-1] < 0 else 0)
    return ScanResult(lams=lams, values=vals, brackets=brackets, roots=roots,
                      d_inf=d_inf)


def _rect_path(rect, m_per_edge):
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1)]
    pts = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for t in np.linspace(0.0, 1.0, m_per_edge, endpoint=False):
            pts.append(a + t * (b - a))
    pts.append(corners[0])
    return pts


def winding_count(model: MultisymplecticModel, wave: WaveFamily, c: float,
                  rect, numerics: Numerics | None = None,
                  m_per_edge: int = 12) -> int:
    """Argument-principle zero count of D inside an axis-aligned rectangle.

    The boundary is refined until consecutive image points subtend less than
    pi/2, so the winding of the image curve about 0 is unambiguous.  Contours
    default to a looser integration tolerance than pointwise evaluation
    (CONTOUR_TOL); pass numerics to override.  The boundary points are one
    batched evaluation, and so is each level of refinement.  A boundary or
    refinement point where spectra finds no two-two splitting, or coalescing
    exponents, lies on the continuous spectrum: ContourOnSpectrum.
    """
    nm = numerics or Numerics(tol=CONTOUR_TOL)
    re0, re1, im0, im1 = (float(x) for x in rect)
    if not (re0 < re1 and im0 < im1):
        raise BadParameter("rectangle must satisfy re0 < re1 and im0 < im1")
    if re0 <= 0.0 <= re1 and im0 <= 0.0 <= im1:
        raise BadParameter("contour must not enclose or touch the origin, "
                           "where D vanishes identically")
    pts = _rect_path((re0, re1, im0, im1), m_per_edge)
    D: dict[complex, complex] = {}

    def evaluate(lams):
        new = [lam for lam in dict.fromkeys(lams) if lam not in D]
        if new:
            try:
                samples = evans_dets(model, wave, c, new, numerics=nm)
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
