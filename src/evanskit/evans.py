"""Evans function in determinant and wedge form, derivatives, scans, winding counts.

The determinant form pairs the two adjoint-normalized modes w3, w4 against the
two decaying modes u3, u4 at a matching point.  The wedge form takes the 4-fold
exterior product of all four u-modes.  Both are assembled from rescaled
trajectories, so every pairing is evaluated at O(1) scale.

A real-axis scan finds the real roots of D from a piecewise Chebyshev proxy of
D on [0, lam_max], sampled in one stepper sweep, whose colleague-matrix roots
give every root at once (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013, ch. 18); see real_axis_scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .asymptotics import InfinitySpectrum, spectra, spectrum
from .errors import (BadParameter, ContourOnSpectrum, Degenerate, DegenerateMu, EvanskitError,
                     NoConverge, NonClosure, SplittingViolated, StepTooLarge)
from .integrator import LAMBDA_REF, MAX_STEPS, Stepper, refinement
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


def _whole(name: str, v, least: int) -> int:
    # v as an int when it is a whole number of at least least, else
    # BadParameter: a truncated count gives a plausible wrong number, and
    # so does a bool, which counts as 0 or 1
    try:
        whole = isinstance(v, numbers.Real) and not isinstance(v, bool) and float(v).is_integer()
    except OverflowError:
        raise BadParameter(f"{name} must be an integer of at least {least}, "
                           "not one beyond float range") from None
    if not whole or v < least:
        raise BadParameter(f"{name} must be an integer of at least {least}, not {v!r}")
    return int(v)


_DEFAULT = Numerics()
CONTOUR_TOL = 1e-8   # contours default to a looser tolerance than point values
SCAN_N = 31          # default least number of proxy points per piece of a real-axis scan
ROOT_XTOL = 1e-10    # absolute tolerance of real-axis roots
_PROXY_POINTS = 25   # least Chebyshev points per piece of a scan's proxy of D
_TAIL = 1e-8         # a proxy piece is resolved when its last 4 coefficients sum to at most
                     # this times max |D| on it
_SPLITS = 4          # cap on the halvings of a proxy piece
_DOUBLE_ZERO = 0.1   # the proxy roots taken for D's double zero at 0 lie this close to 0,
                     # as a fraction of the next root's distance
_CLOSINGS = 8        # cap on the sign checks that close one root


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
    if vals.count(v0) == 5:
        raise Degenerate(f"h={h} is too small to resolve D: its five stencil samples are equal")
    scale = max(abs(v) for v in vals)
    # quadratic-fit guard: the stencil must sit inside the parabolic regime
    V, y = np.vander(np.array(_stencil(h)), 3), np.array(vals)
    coef, *_ = np.linalg.lstsq(V, y, rcond=None)
    rms = np.sqrt(np.mean((y - V @ coef) ** 2))
    if scale > 0 and rms / scale > 1e-3:
        raise StepTooLarge(f"h={h} leaves quadratic-fit residual {rms/scale:.2e} relative")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # refused below
        d1_h = (vh - vmh) / (2 * h)
        d1_h2 = (vh2 - vmh2) / h
        d1 = (4 * d1_h2 - d1_h) / 3
        d2_h = (vh - 2 * v0 + vmh) / h ** 2
        d2_h2 = (vh2 - 2 * v0 + vmh2) / (h / 2) ** 2
        d2 = (4 * d2_h2 - d2_h) / 3
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise Degenerate(f"h={h} gives a non-finite D' or D''")
    return Derivatives(D0=v0, D1=d1, D2_raw=d2, D2_scaled=d2 / 2, scale=scale)


def derivatives_at_zero(model: MultisymplecticModel, wave: WaveFamily, c: float,
                        numerics: Numerics | None = None) -> Derivatives:
    """D, D', D'' at lambda = 0 by central differences with Richardson extrapolation.

    Samples at {0, +-h/2, +-h} with h = numerics.h, in one batched
    integration.  Raises StepTooLarge when a least-squares quadratic through
    the five samples leaves more than 1e-3 relative residual, which signals
    that h reaches outside the quadratic neighborhood of 0, and Degenerate
    when h is too small to see D change: the five samples are equal, or D'
    or D'' comes out non-finite.
    """
    nm = numerics or _DEFAULT
    return _derivatives(nm.h, _dets(_stepper(model, wave, c, nm), _stencil(nm.h)))


@dataclass
class ScanResult:
    lams: np.ndarray              # the proxy's points, ascending, from 0 to lam_max
    values: np.ndarray            # complex D(lambda) at them
    brackets: list                # (root - e, root + e) per root, e its error bar
    roots: list                   # real roots of D in (0, lam_max], ascending
    d_inf: int                    # sign of D at the right end


def _lobatto(a: float, b: float, m: int) -> np.ndarray:
    # the m Chebyshev-Lobatto points of [a, b], ascending, with a and b exact
    x = a + (b - a) * np.sin(0.5 * np.pi * np.arange(m) / (m - 1)) ** 2
    x[-1] = b
    return x


def _cuts(stepper: Stepper, lam_max: float) -> list[float]:
    # 0, the edges below lam_max between the refinement levels that the
    # stepper can step, and lam_max: a piece of the scan sees one mesh
    top = min(refinement(lam_max), MAX_STEPS // stepper.n + 1)
    return [0.0, *(LAMBDA_REF * k ** 1.2 for k in range(1, top)), float(lam_max)]


def real_axis_scan(model: MultisymplecticModel, wave: WaveFamily, c: float,
                   lam_max: float, n: int = SCAN_N,
                   numerics: Numerics | None = None) -> ScanResult:
    """Every real root of D on (0, lam_max], from a piecewise Chebyshev proxy of D.

    [0, lam_max] is cut into pieces at the edges between refinement levels
    (integrator.refinement; none when lam_max <= LAMBDA_REF), and D is
    sampled on max(n, _PROXY_POINTS) Chebyshev-Lobatto points of each piece,
    all in one batched evaluation.  A piece whose last 4 Chebyshev
    coefficients sum to more than _TAIL times max |D| on it is halved, and
    the halves are sampled in the next evaluation, at most _SPLITS times,
    else NoConverge: a piece where D sits near its rounding floor never
    resolves, as on (0, 1e-4] on the coupled wave at tol 1e-9.  The roots
    are the colleague-matrix eigenvalues of each piece's interpolant P
    (Battles and Trefethen, SIAM J. Sci. Comput. 25, 2004) that are real
    and lie in the piece, its left end excluded.  On the piece at 0 the two
    eigenvalues nearest 0 are dropped first, because D(0) = D'(0) = 0 puts
    them there, and the scan refuses with NoConverge when they do not lie
    within _DOUBLE_ZERO of the next one's distance from 0: P does not tell a
    root there from the double zero.  On the coupled wave at tol 1e-9 the
    root sqrt(5 - 3p) / alpha came out down to 1.7e-3 at c = 0 and 3.3e-3 at
    |c| = 0.8, and below 5.5e-4 and 1.8e-3 the scan refused.  Each root r
    has the error bar e = tail / |P'(r)|.  Roots with e > ROOT_XTOL are
    closed by sign checks, D at r -+ ROOT_XTOL / 2, in one batched
    evaluation per round: a root whose two values share a sign moves by a
    Newton step on their mean, with the slope P'(r) and then the secant
    through its last two checks, and is checked again, at most _CLOSINGS
    times, else NoConverge.  A checked root lies within ROOT_XTOL / 2 of a
    sign change of D, and that is its e.  brackets holds r -+ e per root.
    lams and values are the proxy's points, ascending from 0 to lam_max, the
    samples of halved pieces included, and d_inf is the sign of D at
    lam_max.  A point on the continuous spectrum raises what spectra raises
    there.
    """
    n = _whole("n", n, 2)
    if not 0.0 < lam_max < np.inf:
        raise BadParameter("scan needs a finite lam_max > 0")
    stepper = _stepper(model, wave, c, numerics)
    m = max(n, _PROXY_POINTS)
    cuts = _cuts(stepper, lam_max)
    pieces, known, done = list(zip(cuts, cuts[1:])), {}, []
    for _ in range(_SPLITS + 1):
        new = sorted({x for a, b in pieces for x in _lobatto(a, b, m).tolist()} - known.keys())
        known.update(zip(new, (s.D for s in _dets(stepper, new))))
        halves = []
        for a, b in pieces:
            f = np.array([known[x].real for x in _lobatto(a, b, m).tolist()])
            coef = cheb.chebfit(-np.cos(np.pi * np.arange(m) / (m - 1)), f, m - 1)
            tail = np.abs(coef[-4:]).sum()
            if tail <= _TAIL * np.abs(f).max():
                done.append((a, b, coef, tail))
            else:
                halves += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        pieces = halves
        if not pieces:
            break
    else:
        raise NoConverge(f"the proxy of D left {len(pieces)} pieces unresolved after "
                         f"{_SPLITS} splits")

    roots, slopes, bars = [], [], []
    for a, b, coef, tail in sorted(done, key=lambda piece: piece[0]):
        t = cheb.chebroots(cheb.chebtrim(coef))
        if a == 0.0:   # the double zero at lambda = 0
            t = t[np.argsort(np.abs(t + 1.0))]
            if len(t) > 2 and abs(t[1] + 1.0) > _DOUBLE_ZERO * abs(t[2] + 1.0):
                raise NoConverge("the proxy of D does not tell a root from the double zero at 0")
            t = t[2:]
        t = np.sort(t[(t.imag == 0.0) & (-1.0 < t.real) & (t.real <= 1.0)].real)
        slope = cheb.chebval(t, cheb.chebder(coef)) * (2.0 / (b - a))
        roots += (a + 0.5 * (b - a) * (t + 1.0)).tolist()
        slopes += slope.tolist()
        bars += (tail / np.abs(slope)).tolist()
    shut = [k for k, e in enumerate(bars) if e > ROOT_XTOL]
    seen = {}   # root -> (its last checked point, the mean of D at its sign checks)
    for _ in range(_CLOSINGS):
        if not shut:
            break
        pts = [roots[k] + d for k in shut for d in (-0.5 * ROOT_XTOL, 0.5 * ROOT_XTOL)]
        vals = np.array([s.D.real for s in _dets(stepper, pts)]).reshape(-1, 2)
        left = []
        for k, (lo, hi) in zip(shut, vals.tolist()):
            if (lo < 0) != (hi < 0) or 0.0 in (lo, hi):
                bars[k] = 0.5 * ROOT_XTOL
                continue
            mid = 0.5 * (lo + hi)
            if k in seen:   # the secant through the last two checks
                slopes[k] = (mid - seen[k][1]) / (roots[k] - seen[k][0])
            seen[k] = roots[k], mid
            moved = roots[k] - mid / slopes[k] if slopes[k] else math.nan
            if not (0.0 < moved <= lam_max and moved != roots[k]):   # NaN fails too
                raise NoConverge(f"the sign checks of the root near {roots[k]:.12g} stalled")
            roots[k] = moved
            left.append(k)
        shut = left
    if shut:
        raise NoConverge(f"{len(shut)} roots kept the sign of D on both sides after "
                         f"{_CLOSINGS} sign checks")
    lams = np.array(sorted(known))
    vals = np.array([known[x] for x in lams.tolist()])
    last = vals[-1].real
    return ScanResult(lams=lams, values=vals,
                      brackets=[(r - e, r + e) for r, e in zip(roots, bars)], roots=roots,
                      d_inf=1 if last > 0 else (-1 if last < 0 else 0))


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

    The boundary, m_per_edge points an edge (an integer of at least 1, else
    BadParameter), is refined until consecutive image points subtend less
    than pi/2, and the count sums those phase steps.  A phase step is known
    only modulo 2 pi, so the count assumes that D turns by less than pi
    along every accepted segment, and nothing checks it.  A segment that
    passes within about its own length of a zero can turn by nearly 2 pi
    and still read as a small step; its conjugate twin does the same, the
    wrong steps sum to whole turns, NonClosure does not fire, and the
    count is off by 2 with no error: on the coupled wave, rectangles
    [eps, R] x [-R, R] holding 2 zeros count 0 or 4 for eps = 0.05,
    R = 7 and 8, and for eps = 0.01, R = 4.  Contours
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
    m_per_edge = _whole("m_per_edge", m_per_edge, 1)
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
