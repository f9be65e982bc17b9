"""Spectrum of the linearization at spatial infinity.

The constant-coefficient system behind the mode equations is
J(c) v' = (B_inf - lambda M) v with B_inf the Hessian of S at the origin.
Its exponents mu, the eigenvalues of J(c)^-1 (B_inf - lambda M), solve the
quartic Delta(mu, lambda) = det(B_inf - lambda M - mu J(c)) = 0 and are
required to split two-two about the imaginary axis.  Eigenvectors zeta_j
and dual eigenvectors eta_j are normalized against the symplectic pairing,
Omega(eta_i, zeta_j) = delta_ij, which pins every later Evans-function
value to a single convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadParameter, Degenerate, DegenerateMu, NormalizationFail,
                     SplittingViolated)
from .linalg import skew_cmat4, symplectic_forms
from .model import MultisymplecticModel, jc


@dataclass
class InfinitySpectrum:
    """Exponents and normalized frames of the system at infinity."""

    c: float
    lam: complex
    mu: np.ndarray        # 4 exponents, ascending real part
    zeta: np.ndarray      # zeta[j] unit norm, largest component real positive
    eta: np.ndarray       # dual frame: Omega(eta[i], zeta[j]) = delta_ij
    Kconst: complex       # zeta_1^zeta_2^zeta_3^zeta_4 against vol
    tau: float            # -trace(J(c)^-1 M)


def _system(model: MultisymplecticModel, c: float, lam: np.ndarray):
    """J(c), J(c)^-1 B_inf and J(c)^-1 M, once every lambda is found admissible.

    Raises BadParameter, naming the first such lambda, when a lambda is not
    finite, or else when one is so large that eps |lambda| |J^-1 M|_F
    exceeds |J^-1 B_inf|_F: there J^-1 (B_inf - lambda M) keeps no bit of
    B_inf, and far beyond it its norm overflows.
    """
    if not np.all(np.isfinite(lam)):
        bad = complex(lam[np.argmin(np.isfinite(lam))])
        raise BadParameter(f"lambda must be finite, got {bad}")
    j = jc(model, c)
    jb, jm = np.linalg.solve(j, model.binf()), np.linalg.solve(j, model.M)
    eps, size, floor = np.finfo(float).eps, np.linalg.norm(jm), np.linalg.norm(jb)
    huge = eps * size * np.abs(lam) > floor
    if huge.any():
        raise BadParameter(f"|lambda| above {floor / (eps * size):.3g}, where lambda M swamps "
                           f"B_inf in double precision: lambda={complex(lam[np.argmax(huge)])}")
    return j, jb, jm


def spectra(model: MultisymplecticModel, c: float, lams) -> list[InfinitySpectrum]:
    """Solve the system at infinity and build the dual frames at every lambda.

    The exponents mu and the eigenvectors zeta are the eigenpairs of
    A(lambda) = J(c)^-1 (B_inf - lambda M): one stacked np.linalg.eig call
    on the real A of the real lambdas, whose real eigenpairs so stay exactly
    real, and one on the complex A of the rest.  mu ordering is ascending
    real part (imaginary part breaks ties).  The dual frame is the rows of
    (J(c)^T Z)^-1, Z with the columns zeta, from one stacked inverse, so
    Omega(eta_i, zeta_k) = delta_ik up to the inverse's rounding, which is
    checked.  numpy runs LAPACK on each matrix of a stack alone and the rest
    is elementwise, so every field equals what spectrum gives at that lambda
    alone.  A lambda that is not finite or too large is refused before any
    solve, with BadParameter; on any other failure the batch raises what
    the first failing lambda, in list order, raises alone.
    """
    lams = [complex(lam) for lam in lams]
    lam = np.array(lams, dtype=complex).reshape(-1, 1, 1)
    j, jb, jm = _system(model, c, lam[:, 0, 0])
    a = np.empty((len(lams), 4, 4), dtype=complex)
    a.real, a.imag = jb - lam.real * jm, -lam.imag * jm
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    mu, vecs = np.empty((len(lams), 4), dtype=complex), np.empty_like(a)
    real = lam[:, 0, 0].imag == 0.0
    for part, mats in ((real, a[real].real), (~real, a[~real])):
        if part.any():
            mu[part], vecs[part] = np.linalg.eig(mats)
    order = np.lexsort((mu.imag, mu.real))
    mu = np.take_along_axis(mu, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    # each column at unit norm, its largest component real and positive
    top = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None, :], axis=1)
    vecs = vecs * (np.conj(top) / np.hypot(top.real, top.imag))   # abs() of a scalar
    vecs = vecs / np.sqrt(np.sum(vecs.real ** 2 + vecs.imag ** 2, axis=1, keepdims=True))
    zeta = np.swapaxes(vecs, 1, 2)
    tau = -float(np.trace(jm))
    # zeta_1^zeta_2^zeta_3^zeta_4 against vol: det of the matrix with columns zeta_k
    kconst = np.linalg.det(vecs)

    # the checks of every lambda as arrays, each refusing the lambdas the
    # earlier ones passed: an exponent gap, the two-two splitting, a
    # degenerate frame, then the dual frame's orthonormality
    upper = np.triu_indices(4, 1)
    dmu = mu[:, upper[0]] - mu[:, upper[1]]
    gaps = np.hypot(dmu.real, dmu.imag).min(axis=1)
    close = gaps < 1e-6
    # a real part within 1e-10 |A|_F of 0 has no sign: the eigensolver's
    # rounding puts up to about 1e-13 |A|_F there when lambda sits on the
    # continuous spectrum, where the middle two exponents are imaginary
    edge = 1e-10 * np.linalg.norm(a, axis=(1, 2))
    split = ~close & ~((mu[:, 1].real < -edge) & (edge < mu[:, 2].real))
    flat = ~close & ~split & (np.hypot(kconst.real, kconst.imag) < 1e-12)
    ok = ~(close | split | flat)
    eta = np.full_like(a, np.nan)
    eta[ok] = np.linalg.inv(np.matmul(j.T, vecs[ok]))
    got = symplectic_forms(skew_cmat4(j), eta[:, :, None], zeta[:, None, :])
    dev = got - np.eye(4)
    skewed = ok[:, None, None] & (np.hypot(dev.real, dev.imag) > 1e-9)

    out = []
    for n, lam in enumerate(lams):
        if close[n]:
            raise DegenerateMu(f"exponent gap {gaps[n]:.2e} below 1e-6 at lambda={lam}")
        if split[n]:
            raise SplittingViolated(f"no two-two splitting at lambda={lam}: "
                                    f"mu=[{', '.join(f'{m:.6g}' for m in mu[n])}]")
        if flat[n]:
            raise Degenerate("zeta frame wedges to zero; frame degenerate")
        if skewed[n].any():
            i, k = np.argwhere(skewed[n])[0]
            raise NormalizationFail(f"Omega(eta_{i + 1}, zeta_{k + 1}) = "
                                    f"{complex(got[n, i, k]):.2e}, "
                                    f"expected {1.0 if i == k else 0.0}")
        out.append(InfinitySpectrum(c=c, lam=lam, mu=mu[n].copy(), zeta=zeta[n].copy(),
                                    eta=eta[n].copy(), Kconst=complex(kconst[n]), tau=tau))
    return out


def spectrum(model: MultisymplecticModel, c: float, lam: complex) -> InfinitySpectrum:
    """Solve the system at infinity and build the dual frames: spectra of one."""
    return spectra(model, c, [lam])[0]


def continuous_spectrum_distance(model: MultisymplecticModel, c: float,
                                 lam: complex) -> float:
    """min over real kappa of |det(B_inf - lambda M - i kappa J(c))| at one lambda.

    Zero exactly when lambda sits on the continuous spectrum.  With mu_k the
    eigenvalues of J(c)^-1 (B_inf - lambda M) and nu_k = -i mu_k, the
    determinant at mu = i kappa has modulus |det J(c)| prod |kappa - nu_k|;
    that product is evaluated, since the squared polynomial loses a zero to
    cancellation.  Its square is real of degree 8, so the minimum sits at a
    real root of its derivative.  kappa runs over the real parts of all 7
    roots, which keeps a real critical point that roundoff moved off the
    axis, and of the nu_k, which hold the minimum where the roots near a
    nearly real nu_k cluster and lose accuracy (3e-6 at p = 1, 157.7i).
    """
    j, _, _ = _system(model, c, np.array([complex(lam)]))
    a = np.linalg.solve(j, model.binf() - complex(lam) * model.M)
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    nu = -1j * np.linalg.eigvals(a)
    crit = np.roots(np.polyder(np.poly(np.concatenate([nu, np.conj(nu)])).real))
    kappa = np.concatenate([crit.real, nu.real])
    return float(abs(np.linalg.det(j)) * np.min(np.prod(np.abs(kappa[:, None] - nu), axis=1)))
