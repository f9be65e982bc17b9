"""Spectrum of the linearization at spatial infinity.

The constant-coefficient system behind the mode equations is
J(c) v' = (B_inf - lambda M) v with B_inf the Hessian of S at the origin.
Its exponents mu solve the quartic Delta(mu, lambda) = det(B_inf -
lambda M - mu J(c)) = 0 and are required to split two-two about the
imaginary axis.  Eigenvectors zeta_j and dual eigenvectors eta_j are
normalized against the symplectic pairing, Omega(eta_i, zeta_j) =
delta_ij, which pins every later Evans-function value to a single
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (Degenerate, DegenerateMu, NormalizationFail,
                     SplittingViolated)
from .linalg import (Poly4, det4s, nullvectors, quartic_root_sets, skew_cmat4,
                     symplectic_forms)
from .model import MultisymplecticModel, jc

_NODES = np.array([0.0, 1.0, -1.0, 2.0, -2.0])
_VANDER = np.vander(_NODES, 5, increasing=True)


@dataclass
class InfinitySpectrum:
    """Exponents and normalized frames of the system at infinity."""

    c: float
    lam: complex
    mu: np.ndarray        # 4 exponents, ascending real part
    zeta: np.ndarray      # zeta[j] unit norm, largest component real positive
    eta: np.ndarray       # eta[j] scaled so Omega(eta_j, zeta_j) = 1
    Kconst: complex       # zeta_1^zeta_2^zeta_3^zeta_4 against vol
    tau: float            # -trace(J(c)^-1 M)


def _delta_coeffs(model: MultisymplecticModel, c: float, lams) -> np.ndarray:
    """Delta(mu, lambda) as a quartic in mu at every lambda: (len(lams), 5), ascending.

    Five determinants per lambda, all from one det4s call, pin the
    coefficients; the 5x5 Vandermonde systems are one stacked solve.
    """
    lam = np.array(lams, dtype=complex).reshape(-1, 1, 1, 1)
    mats = model.binf() - lam * model.M - _NODES[:, None, None] * jc(model, c)
    if not np.all(np.isfinite(mats.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    vals = det4s(mats.reshape(-1, 4, 4)).reshape(-1, len(_NODES), 1)
    vander = np.broadcast_to(_VANDER, (len(vals),) + _VANDER.shape)
    return np.linalg.solve(vander, vals)[..., 0]


def _delta_poly(model: MultisymplecticModel, c: float, lam: complex) -> Poly4:
    """Delta(mu, lambda) as a quartic in mu at one lambda."""
    return Poly4(_delta_coeffs(model, c, [lam])[0])


def _exponents(lam: complex, mu: np.ndarray) -> np.ndarray:
    """Snap, order and check the roots of Delta at one lambda."""
    if abs(lam.imag) < 1e-14:
        # real axis: exponents come in conjugate or real constellations;
        # strip solver roundoff so downstream frames stay real
        snap = np.abs(mu.imag) < 1e-9 * (1.0 + np.abs(mu))
        mu = np.where(snap, mu.real + 0j, mu)

    mu = mu[np.lexsort((mu.imag, mu.real))]

    gaps = [abs(mu[a] - mu[b]) for a in range(4) for b in range(a + 1, 4)]
    if min(gaps) < 1e-6:
        raise DegenerateMu(f"exponent gap {min(gaps):.2e} below 1e-6 at lambda={lam}")
    if not (mu[0].real <= mu[1].real < 0.0 < mu[2].real <= mu[3].real):
        raise SplittingViolated(f"no two-two splitting at lambda={lam}: mu={mu}")
    return mu


def spectra(model: MultisymplecticModel, c: float, lams) -> list[InfinitySpectrum]:
    """Solve the system at infinity and build the dual frames at every lambda.

    mu ordering is ascending real part (imaginary part breaks ties).  The
    Delta coefficients of every lambda come from one det4s call and one
    stacked solve (_delta_coeffs), the quartics are solved together, all
    8 * len(lams) null vectors come from one stacked Jacobi call and the
    Kconst of every frame from one more det4s call; every field equals
    what spectrum gives at that lambda alone.  On failure the batch raises
    what the first failing lambda, in list order, raises alone.
    """
    lams = [complex(lam) for lam in lams]
    j = jc(model, c)
    binf = model.binf()
    roots, errs = quartic_root_sets([Poly4(co) for co in _delta_coeffs(model, c, lams)])
    mus = {}
    for i, lam in enumerate(lams):
        if errs[i] is None:
            try:
                mus[i] = _exponents(lam, roots[i])
            except (DegenerateMu, SplittingViolated) as e:
                errs[i] = e

    # per solved lambda and mode k: B_inf - lambda M - mu_k J and its adjoint
    row = {i: n for n, i in enumerate(mus)}
    lam_m = np.array([lams[i] for i in mus]).reshape(-1, 1, 1, 1) * model.M
    mu_j = np.array(list(mus.values())).reshape(-1, 4, 1, 1) * j
    mats = np.stack([binf - lam_m - mu_j, binf + lam_m + mu_j], axis=2)
    vecs, vec_errs = nullvectors(mats.reshape(-1, 4, 4))
    vecs = vecs.reshape(-1, 4, 2, 4)
    zeta, raw = vecs[:, :, 0], vecs[:, :, 1]
    jj = skew_cmat4(j)
    pairing = symplectic_forms(jj, raw, zeta)
    with np.errstate(divide="ignore", invalid="ignore"):   # refused below, as alone
        eta = raw / pairing[..., None]
    got = symplectic_forms(jj, eta[:, :, None], zeta[:, None, :])
    tau = -float(np.real(np.trace(np.linalg.solve(j, model.M))))
    # zeta_1^zeta_2^zeta_3^zeta_4 against vol: det of the matrix with columns zeta_k
    kconst = det4s(np.swapaxes(zeta, 1, 2))

    out = []
    for i, lam in enumerate(lams):
        if errs[i] is not None:
            raise errs[i]
        n = row[i]
        for k in range(4):
            for err in vec_errs[8 * n + 2 * k:8 * n + 2 * k + 2]:
                if err is not None:
                    raise err
            pk = complex(pairing[n, k])
            if abs(pk) < 1e-10:
                raise NormalizationFail(
                    f"dual pairing {abs(pk):.2e} too small for mode {k + 1}")
        for a in range(4):
            for k in range(4):
                want = 1.0 if a == k else 0.0
                g = complex(got[n, a, k])
                if abs(g - want) > 1e-9:
                    raise NormalizationFail(
                        f"Omega(eta_{a + 1}, zeta_{k + 1}) = {g:.2e}, expected {want}")
        kc = complex(kconst[n])
        if abs(kc) < 1e-12:
            raise Degenerate("zeta frame wedges to zero; frame degenerate")
        out.append(InfinitySpectrum(c=c, lam=lam, mu=mus[i], zeta=zeta[n].copy(),
                                    eta=eta[n].copy(), Kconst=kc, tau=tau))
    return out


def spectrum(model: MultisymplecticModel, c: float, lam: complex) -> InfinitySpectrum:
    """Solve the system at infinity and build the dual frames: spectra of one."""
    return spectra(model, c, [lam])[0]


def continuous_spectrum_distances(model: MultisymplecticModel, c: float,
                                  lams) -> np.ndarray:
    """min over real kappa of |det(B_inf - lambda M - i kappa J(c))| at every lambda.

    Zero exactly when lambda sits on the continuous spectrum.  With
    P(kappa) = Delta(i kappa, lambda), |P|^2 is a real polynomial of degree
    8 with a positive leading coefficient, so its minimum over the real
    line sits at a real root of its derivative.  The minimum is taken over
    the real parts of all 7 roots, which keeps a real critical point that
    roundoff moved off the axis.  The coefficients of every P come from one
    _delta_coeffs call; the roots are found lambda by lambda.
    """
    out = np.empty(len(lams))
    for n, co in enumerate(_delta_coeffs(model, c, lams)):
        b = co * 1j ** np.arange(5)   # P, ascending
        sq = np.convolve(b, np.conj(b)).real
        crit = np.roots(np.polyder(sq[::-1])).real
        out[n] = np.min(np.abs(np.polyval(b[::-1], crit)))
    return out


def continuous_spectrum_distance(model: MultisymplecticModel, c: float,
                                 lam: complex) -> float:
    """min over real kappa of |det(B_inf - lambda M - i kappa J(c))| at one lambda.

    The batch of one of continuous_spectrum_distances, with the same bits.
    """
    return float(continuous_spectrum_distances(model, c, [lam])[0])
