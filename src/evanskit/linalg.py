"""Fixed-size complex linear algebra kernels.

Everything that feeds the Evans-function pipeline lives in dimension 4
(state space) or 6 (bivectors).
The solvers here are hand-rolled so their sweep order, tolerances and
tie-breaking are deterministic and pinned; no LAPACK driver choices leak
into results.

The null-vector and quartic solvers are batched (nullvectors,
quartic_root_sets): a whole stack iterates in lockstep, each item keeping
its own stopping test, so nullvector and quartic_roots are batches of one.
The symplectic pairing has one kernel, symplectic_forms, called on stacks.
det4s is det4 over a stack; det4 stays the scalar kernel, as one matrix
takes det4 12-20 us and det4s about 230 us (numpy's per-call costs).
Each item must get the bits of one-at-a-time arithmetic on complex
scalars, on which every pinned D, root and Pi rests.  numpy's array loops
round differently from its scalar arithmetic: the SIMD complex product
fuses multiply-adds, and complex abs on arrays is not libm's hypot.  So
products of per-item scalars are written in real parts (_cmul), abs() of
a per-item scalar is np.hypot, and np.vdot becomes a stack of 1x4 @ 4x1
matmuls, which call the same BLAS dot.  What is an array operation for
one item (a column times a scalar, np.abs of a vector) stays one.

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


def skew_cmat4(jmat) -> np.ndarray:
    """jmat as a complex 4x4 matrix; NonSkew unless it is skew-symmetric."""
    j = as_cmat4(jmat)
    if np.max(np.abs(j + j.T)) > 1e-12:
        raise NonSkew("pairing matrix is not skew-symmetric")
    return j


def symplectic_forms(j: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Omega(u, v) = <J u, v>, without conjugation, over broadcast stacks of 4-vectors.

    j comes from skew_cmat4, which checks it once for the whole stack.  Each
    entry is a 4x4 @ 4x1 gemv and a 1x4 @ 4x1 dot, the same BLAS calls as
    (j @ u) @ v on one pair, so it has that pair's bits.
    """
    ju = np.matmul(j, us[..., None])
    return np.matmul(np.swapaxes(ju, -1, -2), vs[..., None])[..., 0, 0]


def wedge2(u, v) -> Bivector:
    a, b = as_cvec4(u), as_cvec4(v)
    return Bivector([a[i] * b[j] - a[j] * b[i] for (i, j) in BASIS2])


def wedge4(u1, u2, u3, u4) -> complex:
    """Coefficient of u1^u2^u3^u4 against vol."""
    return det4(np.column_stack([as_cvec4(u) for u in (u1, u2, u3, u4)]))


def interior2(q4coeff: complex, b: Bivector) -> Bivector:
    """Contract a bivector into a 4-form with coefficient q4coeff.

    Defined by adjointness through the coordinate dot product, the duality
    pairing on wedge^2: np.dot(interior2(q, wedge2(a, b)).coords,
    wedge2(c, d).coords) = q * wedge4(a, b, c, d) for all 4-vectors a, b, c, d.
    """
    x = b.coords
    return Bivector(q4coeff * np.array(
        [x[5], -x[4], x[3], x[2], -x[1], x[0]], dtype=complex))


NULLVECTOR_TOL = 1e-8   # a kernel direction needs sigma_min <= NULLVECTOR_TOL * sigma_max
QUARTIC_TOL = 1e-12     # quartic residuals must stay below QUARTIC_TOL * local scale
_JACOBI_SWEEPS = 40
_JACOBI_PAIRS = tuple((p, q) for p in range(3) for q in range(p + 1, 4))
_DK_ITERS = 200
_DK_START = (0.4 + 0.9j) ** np.arange(1, 5)


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise, written in real parts to round as a numpy scalar product does.

    At least one of a, b is an array; the product takes the shape of its real part.
    """
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def det4s(ms) -> np.ndarray:
    """det4 of every matrix of a (K, 4, 4) stack, bit for bit.

    The same complementary 2x2 minors and six-term sum as det4, in the same
    order, with every product of two entries written by _cmul.  Entries are
    not checked: a non-finite entry gives a non-finite determinant.
    """
    a = np.asarray(ms, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {np.shape(ms)}")

    def minor2(r0, r1, c0, c1):
        return _cmul(a[:, r0, c0], a[:, r1, c1]) - _cmul(a[:, r0, c1], a[:, r1, c0])

    p = [minor2(0, 1, i, j) for (i, j) in BASIS2]
    q = [minor2(2, 3, i, j) for (i, j) in BASIS2]
    return (_cmul(p[0], q[5]) - _cmul(p[1], q[4]) + _cmul(p[2], q[3])
            + _cmul(p[3], q[2]) - _cmul(p[4], q[1]) + _cmul(p[5], q[0]))


def _vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot(x[n], y[n]) for each n: a stack of 1x4 @ 4x1 products runs the same BLAS dot."""
    return np.matmul(np.conj(x)[:, None, :], y[:, :, None])[:, 0, 0]


def nullvectors(ms) -> tuple[np.ndarray, list]:
    """One-dimensional kernel directions of a (K, 4, 4) stack of complex matrices.

    One-sided Jacobi SVD: columns of a working copy are orthogonalized by
    deterministic sweeps over the pairs (0,1),(0,2),...,(2,3); the
    accumulated right factor holds the singular vectors.  The null
    vector is the right singular vector of the smallest singular value.
    All matrices sweep in lockstep; a pair is skipped for a matrix whose
    columns are already orthogonal, and a matrix stops once its own
    off-diagonal measure falls to 1e-14, so each ends exactly where it
    would alone.

    Returns (vecs, errs).  vecs[n] has unit norm and its largest component
    rotated onto the positive real axis.  errs[n] is None, or the error
    nullvector(ms[n]) raises: RankError unless exactly one singular value
    falls below NULLVECTOR_TOL * sigma_max, NoConverge if the sweeps do
    not settle; such rows of vecs hold NaN.
    """
    a = np.array(ms, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {np.shape(ms)}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    k = len(a)
    # rows 0-3 hold the working copy, rows 4-7 the right factor; both rotate alike
    w = np.concatenate([a, np.broadcast_to(np.eye(4, dtype=complex), a.shape)], axis=1)
    live = np.ones(k, dtype=bool)
    for _ in range(_JACOBI_SWEEPS):
        off = np.zeros(k)
        for p, q in _JACOBI_PAIRS:
            app = _vdots(w[:, :4, p], w[:, :4, p]).real
            aqq = _vdots(w[:, :4, q], w[:, :4, q]).real
            apq = _vdots(w[:, :4, p], w[:, :4, q])
            g = np.hypot(apq.real, apq.imag)    # abs() of a Python complex
            denom = np.sqrt(app * aqq)
            r = np.flatnonzero(live & (denom != 0.0) & ~(g <= 1e-15 * denom))
            if r.size == 0:
                continue
            g, apq = g[r], apq[r]
            off[r] = np.maximum(off[r], g / denom[r])
            # Python's complex / float: (re + im * 0) / g, zero signs included
            phase = np.empty(r.size, dtype=complex)
            phase.real = (apq.real + apq.imag * 0.0) / g
            phase.imag = (apq.imag - apq.real * 0.0) / g
            tau = (aqq[r] - app[r]) / (2.0 * g)
            t = np.ones_like(tau)
            nz = tau != 0
            t[nz] = np.sign(tau[nz]) / (np.abs(tau[nz]) + np.sqrt(1.0 + tau[nz] * tau[nz]))
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            # unitary R = [[cs, sn], [-sn/phase, cs/phase]] applied on the right
            wp = w[r, :, p]
            wq = w[r, :, q] / phase[:, None]
            w[r, :, p] = cs[:, None] * wp - sn[:, None] * wq
            w[r, :, q] = sn[:, None] * wp + cs[:, None] * wq
        live &= ~(off <= 1e-14)
        if not live.any():
            break

    errs: list = [None] * k
    for n in np.flatnonzero(live):
        errs[n] = NoConverge("one-sided Jacobi SVD failed to settle in 40 sweeps")
    sigma = np.linalg.norm(np.ascontiguousarray(w[:, :4]), axis=1)
    order = np.argsort(sigma, axis=1)
    s0, s1, smax = (np.take_along_axis(sigma, order[:, i:i + 1], axis=1)[:, 0]
                    for i in (0, 1, 3))
    tol = NULLVECTOR_TOL
    for n in range(k):
        if errs[n] is not None:
            continue
        if smax[n] == 0.0:
            errs[n] = RankError("zero matrix has no one-dimensional kernel")
        elif s0[n] > tol * smax[n]:
            errs[n] = RankError(
                f"no kernel direction: smallest sigma {s0[n]:.3e} "
                f"exceeds {tol:.1e} * {smax[n]:.3e}")
        elif s1[n] <= tol * smax[n]:
            errs[n] = RankError("kernel dimension >= 2 at this tolerance")

    vec = np.take_along_axis(w[:, 4:], order[:, None, :1], axis=2)[:, :, 0]
    top = vec[np.arange(k), np.argmax(np.abs(vec), axis=1)]
    vec = vec * (np.conj(top) / np.hypot(top.real, top.imag))[:, None]   # abs() of a scalar
    re = vec.real   # np.linalg.norm of a complex vector: two real dots
    norm = np.sqrt(np.matmul(re[:, None, :], re[:, :, None])[:, 0, 0]
                   + np.matmul(vec.imag[:, None, :], vec.imag[:, :, None])[:, 0, 0])
    vec = vec / norm[:, None]
    vec[[e is not None for e in errs]] = np.nan
    return vec, errs


def nullvector(m) -> np.ndarray:
    """One-dimensional kernel direction of a 4x4 complex matrix: nullvectors of one."""
    vecs, errs = nullvectors(as_cmat4(m)[None])
    if errs[0] is not None:
        raise errs[0]
    return vecs[0]


def _monic_val(z: np.ndarray, mon: np.ndarray) -> np.ndarray:
    """Horner value of monic quartics mon (ascending, one per row) at z[n, :]."""
    acc = z + mon[:, 3:4]
    for i in (2, 1, 0):
        acc = _cmul(acc, z) + mon[:, i:i + 1]
    return acc


def quartic_root_sets(polys) -> tuple[np.ndarray, list]:
    """All four roots of each genuine quartic, Durand-Kerner plus Newton polish.

    The quartics iterate in lockstep, each stopping on its own shift test,
    so each ends exactly where it would alone.  Returns (roots, errs): the
    roots of polys[n] sorted by (Re, Im) in roots[n], and in errs[n] None
    or the error quartic_roots(polys[n]) raises: Degenerate if the leading
    coefficient vanishes relative to the others, NoConverge if the
    iteration stalls or residuals stay above QUARTIC_TOL * local scale.
    Rows with an error hold NaN.
    """
    c = np.array([p.coeffs for p in polys], dtype=complex).reshape(-1, 5)
    n = len(c)
    errs: list = [None] * n
    cmax = np.max(np.abs(c), axis=1)
    lead = np.hypot(c[:, 4].real, c[:, 4].imag)   # abs() of a numpy scalar
    flat = (cmax == 0.0) | (lead < 1e-14 * cmax)
    for i in np.flatnonzero(flat):
        errs[i] = Degenerate("leading coefficient vanishes; not a quartic")
    ix = np.flatnonzero(~flat)
    mon = c[ix] / c[ix, 4:5]

    z = (1.0 + np.max(np.abs(mon[:, :4]), axis=1))[:, None] * _DK_START  # Cauchy bound
    live = np.ones(len(ix), dtype=bool)
    for _ in range(_DK_ITERS):
        r = np.flatnonzero(live)
        z0, zn, m = z[r], z[r], mon[r]
        for k in range(4):
            zk = zn[:, k:k + 1]
            d = zk - zn[:, [j for j in range(4) if j != k]]
            d = _cmul(_cmul(d[:, 0], d[:, 1]), d[:, 2])[:, None]
            zn[:, k:k + 1] = zk - _monic_val(zk, m) / d
        shift = np.max(np.abs(zn - z0) / (1.0 + np.abs(zn)), axis=1)
        z[r] = zn
        live[r[shift < 1e-12]] = False
        if not live.any():
            break
    for i in ix[live]:
        errs[i] = NoConverge("Durand-Kerner stalled on quartic")
    z, mon, ix = z[~live], mon[~live], ix[~live]

    for _ in range(3):   # Newton; integer factors multiply as complex scalars
        dv = _cmul(4.0 + 0j, z) + _cmul(3.0 + 0j, mon[:, 3:4])
        dv = _cmul(_cmul(dv, z) + _cmul(2.0 + 0j, mon[:, 2:3]), z) + mon[:, 1:2]
        s = dv != 0
        z[s] = z[s] - _monic_val(z, mon)[s] / dv[s]

    scale = cmax[ix, None] * (1.0 + np.abs(z)) ** 4
    acc = np.zeros_like(z)
    for a in c[ix, ::-1].T:   # Poly4.__call__, Horner from 0
        acc = _cmul(acc, z) + a[:, None]
    resid = np.abs(acc)
    for k in np.flatnonzero(np.any(resid > QUARTIC_TOL * scale, axis=1)):
        errs[ix[k]] = NoConverge(f"quartic residual {np.max(resid[k] / scale[k]):.2e} "
                                 f"above {QUARTIC_TOL:.1e}")

    roots = np.full((n, 4), np.nan, dtype=complex)
    roots[ix] = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
    roots[[e is not None for e in errs]] = np.nan
    return roots, errs


def quartic_roots(p: Poly4) -> np.ndarray:
    """All four roots of a genuine quartic, sorted by (Re, Im): quartic_root_sets of one."""
    roots, errs = quartic_root_sets([p])
    if errs[0] is not None:
        raise errs[0]
    return roots[0]
