"""Geometric factors of the second-derivative formula and the stability verdict.

chi measures how the wave tangent attaches to the boundary frames, Pi is the
transversality pairing of the two manifold tangents, and dI/dc is the momentum
derivative.  Their product against the finite-difference second derivative of
the Evans function is the central identity; the verdict combines its sign with
the sign of D at large real lambda.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .asymptotics import InfinitySpectrum, spectra, spectrum
from .errors import (Degenerate, Inconsistent, NoConverge, NonTransverse,
                     NoPlateau, OrientationFail)
from .evans import _DEFAULT, Numerics, _derivatives, _det_runs, _det_samples, _stencil, _stepper
from .linalg import skew_cmat4, symplectic_forms, wedge4
from .model import MultisymplecticModel, WaveFamily, jc, on_grid

__all__ = [
    "momentum",
    "dIdc",
    "chi_factors",
    "PiData",
    "pi_profile",
    "StructureReport",
    "structural_checks",
    "StabilityReport",
    "stability_report",
]

# composite Gauss-Legendre: QUAD_PANELS panels of QUAD_NODES nodes on [a, b],
# checked against the same rule on half as many panels.  The panel count is
# even, so the midpoint of [-L, L], xi = 0, is a panel edge.
QUAD_PANELS = 8
QUAD_NODES = 60
QUAD_TOL = 1e-10


def _gauss_legendre(n: int):
    # leggauss's nodes with the weights 2 / ((1 - x^2) P_n'(x)^2), P_n' from
    # the three-term recurrence: leggauss's own weights are off by up to
    # 2e-12 relative at n = 60, which biases every integral by about 2e-14
    x = leggauss(n)[0]
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (p0 - x * p1) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _composite(panels: int, s: np.ndarray, w: np.ndarray):
    # nodes and weights of the composite rule on [-1, 1]
    mids = -1.0 + (2.0 * np.arange(panels) + 1.0) / panels
    return (mids[:, None] + s / panels).ravel(), np.tile(w / panels, panels)


_RULE = _gauss_legendre(QUAD_NODES)
_FINE, _COARSE = _composite(QUAD_PANELS, *_RULE), _composite(QUAD_PANELS // 2, *_RULE)
_NODES = np.concatenate([_FINE[0], _COARSE[0]])


def quad(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by the composite Gauss-Legendre rule.

    f maps an array of xi to the array of integrand values.  It is called
    once, on the nodes of both rules.  Raises NoConverge when the rule and
    its half-panel version differ by more than QUAD_TOL * max(1, integral
    of |f|): absolute below 1 and relative above.  The scale is the
    integral of |f|, not of f, so an integral that cancels to zero is
    judged by the size of what cancels.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES), dtype=float)
    n = _FINE[0].size
    fine = half * float(_FINE[1] @ vals[:n])
    coarse = half * float(_COARSE[1] @ vals[n:])
    scale = abs(half) * float(_FINE[1] @ np.abs(vals[:n]))
    if abs(fine - coarse) > QUAD_TOL * max(scale, 1.0):
        raise NoConverge(f"quadrature on [{a}, {b}]: {QUAD_PANELS} and "
                         f"{QUAD_PANELS // 2} panels differ by {abs(fine - coarse):.2e}")
    return float(fine)


def momentum(model: MultisymplecticModel, wave: WaveFamily, c: float) -> float:
    """I(c) = integral of (1/2) <M Zhat_xi, Zhat> over the wave."""
    L = wave.default_L(c)

    def integrand(xi):
        z, zx = on_grid(wave.zhat, xi, c), on_grid(wave.zhat_xi, xi, c)
        return 0.5 * np.einsum("ij,jn,in->n", model.M, zx, z)

    return quad(integrand, -L, L)


def dIdc(model: MultisymplecticModel, wave: WaveFamily, c: float) -> float:
    """Momentum derivative via the chain-rule integrand, cross-checked in c.

    Primary value: integral of <M Zhat_xi, Zhat_c>.  A central difference of
    momentum() with step 1e-4 must agree to 1e-4 relative, otherwise the wave
    family's Zhat_c is inconsistent with its c-dependence.
    """
    L = wave.default_L(c)

    def integrand(xi):
        zx, zc = on_grid(wave.zhat_xi, xi, c), on_grid(wave.zhat_c, xi, c)
        return np.einsum("ij,jn,in->n", model.M, zx, zc)

    val = quad(integrand, -L, L)
    if abs(val) < 1e-10:
        raise Degenerate("momentum derivative vanishes (chain length exceeds two)")
    dc = 1e-4
    fd = (momentum(model, wave, c + dc) - momentum(model, wave, c - dc)) / (2 * dc)
    if abs(fd - val) > 1e-4 * abs(val):
        raise Inconsistent(f"quadrature {val:.8e} vs finite difference {fd:.8e}")
    return val


def _plateau(vals: np.ndarray, what: str) -> float:
    m = np.mean(vals)
    drift = (np.max(vals) - np.min(vals)) / abs(m)
    if drift > 1e-6:
        raise NoPlateau(f"{what} tail fit drifts by {drift:.2e} relative")
    return float(m)


def chi_factors(model: MultisymplecticModel, wave: WaveFamily, c: float,
                spec: InfinitySpectrum | None = None):
    """(chi_minus, chi_plus, chi): attachment coefficients of the wave tangent.

    chi_minus is the plateau of exp(-mu_k xi) Omega(eta_k, Zhat_xi) on the left
    tail, chi_plus the plateau of exp(+mu_k xi) Omega(Zhat_xi, zeta_k) on the
    right tail; chi = 1/(chi_plus * chi_minus).
    """
    if spec is None:
        spec = spectrum(model, c, 0.0)
    L = wave.default_L(c)
    # the unstable exponent the wave tangent rides on the -infinity tail:
    # the one nearest the profile's decay rate
    k = min([2, 3], key=lambda k: abs(spec.mu[k].real - wave.decay_rate(c)))
    mu = spec.mu[k].real
    xm, xp = np.linspace(-L, -L + 5.0, 21), np.linspace(L - 5.0, L, 21)
    zm, zp = (on_grid(wave.zhat_xi, xs, c).T for xs in (xm, xp))
    # Omega(eta_k, zhat_xi) on the left tail, then Omega(zhat_xi, zeta_k) on the right
    us = np.concatenate([np.broadcast_to(spec.eta[k].real, zm.shape), zp])
    vs = np.concatenate([zm, np.broadcast_to(spec.zeta[k].real, zp.shape)])
    om = symplectic_forms(skew_cmat4(jc(model, c)), us, vs).real
    chi_minus = _plateau(np.exp(-mu * xm) * om[:21], "chi_minus")
    chi_plus = _plateau(np.exp(mu * xp) * om[21:], "chi_plus")
    return chi_minus, chi_plus, 1.0 / (chi_plus * chi_minus)


_PAIR_PTS = np.linspace(-2.0, 2.0, 9)
_PAIR_PTS.setflags(write=False)   # every tangent-pair run shares it as its grid


def _tangent_pair(spec) -> list:
    # the lambda = 0 manifold tangents a_minus (zeta_4 from -L) and a_plus
    # (eta_4 from +L) as runs of Stepper.run, carried past each other to
    # +-2 and sampled at _PAIR_PTS in the direction each runs
    return [(0.0, spec, 4, "u", 2.0, _PAIR_PTS), (0.0, spec, 4, "w", -2.0, _PAIR_PTS[::-1])]


def _pair(model, wave, c, numerics: Numerics | None, spec) -> list:
    # the solutions (minus, plus) of _tangent_pair(spec), swept alone at numerics
    return _stepper(model, wave, c, numerics).run(_tangent_pair(spec))


def _at_pair_pts(sol) -> np.ndarray:
    # the values of a tangent-pair run at _PAIR_PTS, in that order
    i = np.flatnonzero(np.isin(sol.grid, _PAIR_PTS))
    if i.size != _PAIR_PTS.size:
        raise ValueError("tangent-pair grid must hold linspace(-2, 2, 9)")
    return sol.values[i[np.argsort(sol.grid[i])]]


@dataclass
class PiData:
    """Transversality pairing with its xi-profile and orientation bookkeeping."""

    pi: float
    grid: np.ndarray
    samples: np.ndarray
    orientation_ratio: float
    flipped: bool


def pi_profile(model: MultisymplecticModel, wave: WaveFamily, c: float,
               numerics: Numerics | None = None,
               spec: InfinitySpectrum | None = None) -> PiData:
    """Omega(a_minus, a_plus) on a 9-point grid plus the orientation step.

    The manifold tangents are the zeta_4- and eta_4-seeded continuations at
    lambda = 0, integrated with the tolerance and half-width of numerics.
    If the 4-fold boundary wedge has negative sign against the orientation
    constant, the (zeta_4, eta_4) pair is flipped.  Negating both negates
    both trajectories exactly, which leaves the pairing and the boundary
    wedge unchanged and negates the orientation constant, so the flipped
    orientation ratio is the absolute value of the unflipped one.
    """
    sp = spec if spec is not None else spectrum(model, c, 0.0)
    return _pi_data(model, wave, c, sp, *_pair(model, wave, c, numerics, sp))


def _pi_data(model, wave, c, sp: InfinitySpectrum, minus, plus) -> PiData:
    # pi_profile from the solutions of _tangent_pair(sp)
    pts = _PAIR_PTS
    L = plus.xi_seed   # the half-width the tangent pair was seeded at
    vm, vp = _at_pair_pts(minus), _at_pair_pts(plus)
    samples = symplectic_forms(skew_cmat4(jc(model, c)), vm, vp).real

    amp = np.exp(sp.mu[2].real * L)
    num = wedge4(amp * wave.zhat_xi(L, c), sp.eta[3], amp * wave.zhat_xi(-L, c), sp.zeta[3])
    scale = np.linalg.norm(sp.eta[3]) * np.linalg.norm(sp.zeta[3])
    if abs(num) < 1e-12 * max(scale, 1.0):
        raise OrientationFail("boundary wedge vanishes")
    ratio = float(num.real / sp.Kconst.real)
    flipped = ratio < 0
    ratio = abs(ratio)

    m = float(np.mean(samples))
    if abs(np.std(samples)) > 1e-6 * abs(m):
        raise Inconsistent(f"pairing drifts along xi: rel std "
                           f"{np.std(samples)/abs(m):.2e}")
    i0 = int(np.argmin(np.abs(pts)))
    pi = float(samples[i0])
    if abs(pi) < 1e-10 * np.linalg.norm(vm[i0]) * np.linalg.norm(vp[i0]):
        raise NonTransverse("manifold tangents fail to cross transversely")
    return PiData(pi=pi, grid=pts, samples=samples, orientation_ratio=ratio,
                  flipped=flipped)


@dataclass
class StructureReport:
    """Lagrangian pairing maxima."""

    max_tangent_plus: float    # max |Omega(Zhat_xi, a_plus)| / scale
    max_tangent_minus: float   # max |Omega(Zhat_xi, a_minus)| / scale
    max_tangent_zc: float      # max |Omega(Zhat_xi, Zhat_c)| / scale


def structural_checks(model: MultisymplecticModel, wave: WaveFamily, c: float,
                      pair=None, numerics: Numerics | None = None) -> StructureReport:
    """Lagrangian-subspace pairings on a 9-point grid.

    pair overrides the two manifold-tangent continuations (minus, plus); each
    must carry values on a grid containing linspace(-2, 2, 9).  Otherwise
    they are integrated with the tolerance and half-width of numerics.
    """
    if pair is None:
        pair = _pair(model, wave, c, numerics, spectrum(model, c, 0.0))
    minus, plus = pair
    zx, zc = (np.array([f(x, c) for x in _PAIR_PTS]) for f in (wave.zhat_xi, wave.zhat_c))
    vs = (_at_pair_pts(plus), _at_pair_pts(minus), zc)
    om = symplectic_forms(skew_cmat4(jc(model, c)), zx, np.stack(vs))
    # norms one vector at a time, zc's as a real vector: a stacked norm rounds differently
    nz = np.array([np.linalg.norm(z) for z in zx])
    nv = np.maximum([[np.linalg.norm(v) for v in row] for row in vs], 1e-300)
    rel_p, rel_m, rel_z = np.max(np.hypot(om.real, om.imag) / (nz * nv), axis=1)
    return StructureReport(max_tangent_plus=float(rel_p), max_tangent_minus=float(rel_m),
                           max_tangent_zc=float(rel_z))


@dataclass
class StabilityReport:
    """Everything Theorem-level: the factors, the derivative, and the verdict."""

    c: float
    params: dict = field(default_factory=dict)
    chi_minus: float = 0.0
    chi_plus: float = 0.0
    chi: float = 0.0
    Pi: float = 0.0
    I: float = 0.0
    dIdc: float = 0.0
    D2_raw: float = 0.0
    D2_scaled: float = 0.0
    ratio_check: float = 0.0
    d_inf: int = 1            # sign of D as lambda -> +infinity, by the normalization
    pi_sign: int = 0          # Maslov parity surrogate
    verdict: str = "Inconclusive"

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2, sort_keys=True)


def stability_report(model: MultisymplecticModel, wave: WaveFamily, c: float,
                     numerics: Numerics | None = None,
                     params: dict | None = None) -> StabilityReport:
    """Assemble the full verdict: real unstable eigenvalue iff chi*Pi*dIdc*d_inf < 0.

    d_inf is the sign of D as lambda -> +infinity, which is +1: with the
    frames normalized to Omega(eta_i, zeta_j) = delta_ij, D tends to 1
    there.  Pi's tangent pair and the derivative stencil ride one sweep of
    one Stepper, and give exactly what pi_profile and derivatives_at_zero
    give on their own.  One spectra call solves the stencil; its lambda =
    0 entry is shared by chi_factors, the tangent pair and the stencil's
    centre; numerics reaches every run.
    """
    nm = numerics or _DEFAULT
    I = momentum(model, wave, c)
    didc = dIdc(model, wave, c)
    lams = _stencil(nm.h)   # the stencil starts at lambda = 0
    specs = spectra(model, c, lams)
    sp = specs[0]
    cm, cp, chi = chi_factors(model, wave, c, spec=sp)
    runs = _tangent_pair(sp) + _det_runs(lams, specs)
    sols = _stepper(model, wave, c, nm).run(runs)
    pi = _pi_data(model, wave, c, sp, *sols[:2]).pi
    der = _derivatives(nm.h, _det_samples(model, c, lams, specs, sols[2:]))
    denom = 2.0 * chi * pi * didc
    report = StabilityReport(
        c=c, params=dict(params or {}),
        chi_minus=cm, chi_plus=cp, chi=chi, Pi=pi, I=I, dIdc=didc,
        D2_raw=der.D2_raw, D2_scaled=der.D2_scaled,
        ratio_check=der.D2_raw / denom,
        pi_sign=1 if pi > 0 else -1,
        verdict=("UnstableRealEigenvalue" if chi * pi * didc < 0
                 else "Inconclusive"))
    return report
