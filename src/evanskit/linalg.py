"""Fixed-size complex linear algebra kernels.

Everything that feeds the Evans-function pipeline lives in dimension 4
(state space) or 6 (bivectors).
The solvers here are hand-rolled so their sweep order, tolerances and
tie-breaking are deterministic and pinned; no LAPACK driver choices leak
into results.

Bivector coordinates are always stored against the ordered basis

    e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4

and 4-forms are scalars against vol = e1^e2^e3^e4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NoConverge, NonSkew, RankError

BASIS2 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def as_cvec4(u) -> np.ndarray:
    v = np.asarray(u, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"expected 4-vector, got shape {np.shape(u)}")
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("non-finite entries in 4-vector")
    return v


def as_cmat4(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got shape {np.shape(m)}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    return a


@dataclass
class Bivector:
    """Element of wedge^2(C^4) in the fixed ordered basis BASIS2."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=complex).reshape(-1)
        if self.coords.shape != (6,):
            raise ValueError("bivector needs 6 coordinates")


@dataclass
class Poly4:
    """Polynomial of degree <= 4; coeffs ascending, leading coefficient last."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if self.coeffs.shape != (5,):
            raise ValueError("Poly4 needs exactly 5 coefficients")

    def __call__(self, z: complex) -> complex:
        # Horner, ascending storage
        acc = 0.0 + 0.0j
        for a in self.coeffs[::-1]:
            acc = acc * z + a
        return acc


def _minor2(m: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> complex:
    return m[r0, c0] * m[r1, c1] - m[r0, c1] * m[r1, c0]


def det4(m) -> complex:
    """Determinant by Laplace expansion on complementary 2x2 minors.

    The six-term expansion mirrors the bivector pairing rule, so det4 and
    the wedge operations share one sign convention by construction.
    """
    a = as_cmat4(m)
    p = [_minor2(a, 0, 1, i, j) for (i, j) in BASIS2]
    q = [_minor2(a, 2, 3, i, j) for (i, j) in BASIS2]
    return (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
            + p[3] * q[2] - p[4] * q[1] + p[5] * q[0])


def symplectic_form(jmat, u, v) -> complex:
    """<J u, v> without conjugation; J must be skew-symmetric."""
    j = as_cmat4(jmat)
    if np.max(np.abs(j + j.T)) > 1e-12:
        raise NonSkew("pairing matrix is not skew-symmetric")
    return complex(np.dot(j @ as_cvec4(u), as_cvec4(v)))


def wedge2(u, v) -> Bivector:
    a, b = as_cvec4(u), as_cvec4(v)
    return Bivector([a[i] * b[j] - a[j] * b[i] for (i, j) in BASIS2])


def wedge4(u1, u2, u3, u4) -> complex:
    """Coefficient of u1^u2^u3^u4 against vol."""
    return det4(np.column_stack([as_cvec4(u) for u in (u1, u2, u3, u4)]))


def pair2(bstar: Bivector, b: Bivector) -> complex:
    """Duality pairing on wedge^2; plain dot of coordinates, no conjugation."""
    return complex(np.dot(bstar.coords, b.coords))


def wedge22(b: Bivector, g: Bivector) -> complex:
    """Coefficient of b^g against vol (two bivectors wedged to a 4-form)."""
    x, y = b.coords, g.coords
    return complex(x[0] * y[5] - x[1] * y[4] + x[2] * y[3]
                   + x[3] * y[2] - x[4] * y[1] + x[5] * y[0])


def interior2(q4coeff: complex, b: Bivector) -> Bivector:
    """Contract a bivector into a 4-form with coefficient q4coeff.

    Defined by adjointness: pair2(interior2(q, b), g) = q * wedge22(b, g)
    for every bivector g.
    """
    x = b.coords
    return Bivector(q4coeff * np.array(
        [x[5], -x[4], x[3], x[2], -x[1], x[0]], dtype=complex))


def nullvector(m, tol: float = 1e-8) -> np.ndarray:
    """One-dimensional kernel direction of a 4x4 complex matrix.

    One-sided Jacobi SVD: columns of a working copy are orthogonalized by
    deterministic sweeps over the pairs (0,1),(0,2),...,(2,3); the
    accumulated right factor holds the singular vectors.  The null
    vector is the right singular vector of the smallest singular value.

    Raises RankError unless exactly one singular value falls below
    tol * sigma_max.  The returned vector has unit norm and its largest
    component is rotated to lie on the positive real axis.
    """
    a = as_cmat4(m).copy()
    v = np.eye(4, dtype=complex)
    for _ in range(40):
        off = 0.0
        for p in range(3):
            for q in range(p + 1, 4):
                app = float(np.real(np.vdot(a[:, p], a[:, p])))
                aqq = float(np.real(np.vdot(a[:, q], a[:, q])))
                apq = complex(np.vdot(a[:, p], a[:, q]))
                g = abs(apq)
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or g <= 1e-15 * denom:
                    continue
                off = max(off, g / denom)
                phase = apq / g
                tau = (aqq - app) / (2.0 * g)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                # unitary R = [[cs, sn], [-sn/phase, cs/phase]] applied on the right
                for w in (a, v):
                    wp = w[:, p].copy()
                    wq = w[:, q] / phase
                    w[:, p] = cs * wp - sn * wq
                    w[:, q] = sn * wp + cs * wq
        if off <= 1e-14:
            break
    else:
        raise NoConverge("one-sided Jacobi SVD failed to settle in 40 sweeps")

    sigma = np.linalg.norm(a, axis=0)
    order = np.argsort(sigma)
    smax = sigma[order[-1]]
    if smax == 0.0:
        raise RankError("zero matrix has no one-dimensional kernel")
    if sigma[order[0]] > tol * smax:
        raise RankError(
            f"no kernel direction: smallest sigma {sigma[order[0]]:.3e} "
            f"exceeds {tol:.1e} * {smax:.3e}")
    if sigma[order[1]] <= tol * smax:
        raise RankError("kernel dimension >= 2 at this tolerance")

    vec = v[:, order[0]]
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[k]) / abs(vec[k]))
    return vec / np.linalg.norm(vec)


def quartic_roots(p: Poly4, tol: float = 1e-12) -> np.ndarray:
    """All four roots of a genuine quartic, Durand-Kerner plus Newton polish.

    Roots come back sorted by (Re, Im).  Raises Degenerate if the leading
    coefficient vanishes relative to the others, NoConverge if residuals
    stay above tol * local scale.
    """
    c = p.coeffs
    cmax = float(np.max(np.abs(c)))
    if cmax == 0.0 or abs(c[4]) < 1e-14 * cmax:
        raise Degenerate("leading coefficient vanishes; not a quartic")
    mon = c / c[4]

    def val(z):
        return (((z + mon[3]) * z + mon[2]) * z + mon[1]) * z + mon[0]

    r = 1.0 + float(np.max(np.abs(mon[:4])))  # Cauchy bound
    z = r * (0.4 + 0.9j) ** np.arange(1, 5)
    for _ in range(200):
        zn = z.copy()
        for k in range(4):
            d = np.prod([zn[k] - zn[j] for j in range(4) if j != k])
            zn[k] = zn[k] - val(zn[k]) / d
        shift = np.max(np.abs(zn - z) / (1.0 + np.abs(zn)))
        z = zn
        if shift < 1e-14:
            break
    else:
        raise NoConverge("Durand-Kerner stalled on quartic")

    for k in range(4):
        for _ in range(3):
            dv = ((4 * z[k] + 3 * mon[3]) * z[k] + 2 * mon[2]) * z[k] + mon[1]
            if dv != 0:
                z[k] = z[k] - val(z[k]) / dv

    scale = cmax * (1.0 + np.abs(z)) ** 4
    resid = np.abs([p(zk) for zk in z])
    if np.any(resid > tol * scale):
        raise NoConverge(f"quartic residual {np.max(resid / scale):.2e} above {tol:.1e}")

    idx = np.lexsort((z.imag, z.real))
    return z[idx]
