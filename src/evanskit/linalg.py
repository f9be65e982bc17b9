"""Fixed-size complex linear algebra kernels.

Everything that feeds the Evans-function pipeline lives in dimension 4
(state space) or 6 (bivectors).
Results rest on numpy's BLAS and LAPACK builds: the null vectors come
from a stacked SVD and the quartic roots from stacked companion-matrix
eigenvalues, each polished and checked here with pinned tolerances.

The null-vector and quartic solvers are batched (nullvectors,
quartic_root_sets): numpy runs LAPACK on each matrix of a stack alone and
the polish is elementwise, so nullvector and quartic_roots are batches of
one with the same bits.
The symplectic pairing has one kernel, symplectic_forms, called on stacks.
expm4s exponentiates a stack of 4x4 matrices, each with its own scaling,
through real matmuls alone.
det4s is det4 over a stack; det4 stays the scalar kernel, as one matrix
takes det4 12-20 us and det4s about 230 us (numpy's per-call costs).
Each item must get the bits of one-at-a-time arithmetic on complex
scalars, on which every pinned D, root and Pi rests.  numpy's array loops
round differently from its scalar arithmetic: the SIMD complex product
fuses multiply-adds, and complex abs on arrays is not libm's hypot.  So
products of per-item scalars are written in real parts (_cmul), abs() of
a per-item scalar is np.hypot, and a dot product is a stack of 1x4 @ 4x1
matmuls, which call the same BLAS dot.  What is an array operation for
one item (a column times a scalar, np.abs of a vector) stays one.

Quartics are plain arrays of 5 coefficients, ascending (leading
coefficient last).  A bivector, an element of wedge^2(C^4), is a complex
6-array of coordinates against the ordered basis BASIS2,

    e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4

and 4-forms are scalars against vol = e1^e2^e3^e4.
"""

from __future__ import annotations

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


def wedge2(u, v) -> np.ndarray:
    """u ^ v as its 6 coordinates against BASIS2."""
    a, b = as_cvec4(u), as_cvec4(v)
    return np.array([a[i] * b[j] - a[j] * b[i] for (i, j) in BASIS2], dtype=complex)


def wedge4(u1, u2, u3, u4) -> complex:
    """Coefficient of u1^u2^u3^u4 against vol."""
    return det4(np.column_stack([as_cvec4(u) for u in (u1, u2, u3, u4)]))


def interior2(q4coeff: complex, x: np.ndarray) -> np.ndarray:
    """Contract the bivector with coordinates x into a 4-form with coefficient q4coeff.

    Defined by adjointness through the coordinate dot product, the duality
    pairing on wedge^2: np.dot(interior2(q, wedge2(a, b)), wedge2(c, d)) =
    q * wedge4(a, b, c, d) for all 4-vectors a, b, c, d.
    """
    return q4coeff * np.array([x[5], -x[4], x[3], x[2], -x[1], x[0]], dtype=complex)


NULLVECTOR_TOL = 1e-8   # a kernel direction needs sigma_min <= NULLVECTOR_TOL * sigma_max
QUARTIC_TOL = 1e-12     # quartic residuals must stay below QUARTIC_TOL * local scale


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


def nullvectors(ms) -> tuple[np.ndarray, list]:
    """One-dimensional kernel directions of a (K, 4, 4) stack of complex matrices.

    One stacked np.linalg.svd; the null vector is the right singular vector
    of the smallest singular value, conj(vh[:, 3]).  numpy calls LAPACK on
    each matrix of the stack alone, so each gets the bits of its own call.

    Returns (vecs, errs).  vecs[n] has unit norm and its largest component
    rotated onto the positive real axis.  errs[n] is None, or the RankError
    nullvector(ms[n]) raises unless exactly one singular value falls below
    NULLVECTOR_TOL * sigma_max; such rows of vecs hold NaN.
    """
    a = np.array(ms, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {np.shape(ms)}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("non-finite entries in 4x4 matrix")
    k = len(a)
    _, sigma, vh = np.linalg.svd(a)   # sigma descending
    s0, s1, smax = sigma[:, 3], sigma[:, 2], sigma[:, 0]
    tol = NULLVECTOR_TOL
    errs: list = [None] * k
    for n in range(k):
        if smax[n] == 0.0:
            errs[n] = RankError("zero matrix has no one-dimensional kernel")
        elif s0[n] > tol * smax[n]:
            errs[n] = RankError(
                f"no kernel direction: smallest sigma {s0[n]:.3e} "
                f"exceeds {tol:.1e} * {smax[n]:.3e}")
        elif s1[n] <= tol * smax[n]:
            errs[n] = RankError("kernel dimension >= 2 at this tolerance")

    vec = np.conj(vh[:, 3])
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


def _two_sum(a, b):
    """a + b and its rounding error, both exact (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a):
    """a = hi + lo with hi and lo of 26 bits each, exactly (Veltkamp's split)."""
    c = 134217729.0 * a   # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SIGN = np.array([-1.0, 1.0])[:, None, None]


def _horner(z: np.ndarray, mon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) and p'(z) for monic quartics mon (ascending, one per row) at z[n, :].

    p(z) by the compensated Horner scheme (Graillat, Langlois & Louvet,
    2005): the exact rounding errors of each step, from Dekker's product
    and _two_sum, run through a second Horner recurrence, so p(z) is as
    accurate as if computed in twice the working precision.  Near a close
    pair of large roots plain Horner's rounding swamps p.  p'(z) is plain
    Horner.  A complex array w is a (re, im) pair on a leading axis, and
    all arithmetic is real and elementwise: with z = x + iy and t = w b,
    b = ((x, y), (y, x)), the product w z is t[:, 0] + (-1, 1) t[:, 1].
    """
    b = np.array([[z.real, z.imag], [z.imag, z.real]])
    bh, bl = _split(b)
    m = np.stack([mon.real, mon.imag])
    w = np.zeros((2,) + z.shape)   # p by Horner from its leading 1,
    w[0] = 1.0
    err, dw = np.zeros_like(w), np.zeros_like(w)   # its rounding error and p'
    for i in (3, 2, 1, 0):
        t = dw * b
        dw = (t[:, 0] + _SIGN * t[:, 1]) + w
        t = err * b
        err = t[:, 0] + _SIGN * t[:, 1]
        ah, al = _split(w)
        t = w * b
        e = al * bl - (((t - ah * bh) - al * bh) - ah * bl)   # t + e = w b exactly
        s, e1 = _two_sum(t[:, 0], _SIGN * t[:, 1])
        w, e2 = _two_sum(s, m[:, :, i:i + 1])
        err = err + (((e[:, 0] + _SIGN * e[:, 1]) + e1) + e2)
    return (w[0] + err[0]) + 1j * (w[1] + err[1]), dw[0] + 1j * dw[1]


def quartic_root_sets(coeffs) -> tuple[np.ndarray, list]:
    """All four roots of each genuine quartic: companion eigenvalues plus Newton polish.

    coeffs is a (K, 5) array, one quartic per row, coefficients ascending
    (leading coefficient last).  The roots start as the eigenvalues of the
    monic companion matrices, from one stacked np.linalg.eigvals call that
    runs LAPACK on each matrix alone, and take 3 Newton steps on the
    compensated residual of _horner.  Returns (roots, errs): the roots of
    row n sorted by (Re, Im) in roots[n], and in errs[n] None or the error
    quartic_roots(coeffs[n]) raises: Degenerate if the leading coefficient
    vanishes relative to the others, NoConverge if residuals stay above
    QUARTIC_TOL * local scale.  Rows with an error hold NaN.
    """
    c = np.array(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] != 5:
        raise ValueError(f"expected a (K, 5) coefficient array, got shape {np.shape(coeffs)}")
    if not np.all(np.isfinite(c.view(float))):
        raise ValueError("non-finite quartic coefficients")
    n = len(c)
    errs: list = [None] * n
    cmax = np.max(np.abs(c), axis=1)
    lead = np.hypot(c[:, 4].real, c[:, 4].imag)   # abs() of a numpy scalar
    flat = (cmax == 0.0) | (lead < 1e-14 * cmax)
    for i in np.flatnonzero(flat):
        errs[i] = Degenerate("leading coefficient vanishes; not a quartic")
    ix = np.flatnonzero(~flat)
    mon = c[ix] / c[ix, 4:5]
    comp = np.zeros((len(ix), 4, 4), dtype=complex)
    comp[:, 0] = -mon[:, 3::-1]   # np.roots' companion form
    comp[:, (1, 2, 3), (0, 1, 2)] = 1.0
    z = np.linalg.eigvals(comp)

    for _ in range(3):   # Newton
        val, dv = _horner(z, mon)
        s = dv != 0
        z[s] = z[s] - val[s] / dv[s]

    scale = cmax[ix, None] * (1.0 + np.abs(z)) ** 4
    resid = np.abs(_horner(z, mon)[0]) * lead[ix, None]
    for k in np.flatnonzero(np.any(resid > QUARTIC_TOL * scale, axis=1)):
        errs[ix[k]] = NoConverge(f"quartic residual {np.max(resid[k] / scale[k]):.2e} "
                                 f"above {QUARTIC_TOL:.1e}")

    roots = np.full((n, 4), np.nan, dtype=complex)
    roots[ix] = np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)
    roots[[e is not None for e in errs]] = np.nan
    return roots, errs


_EXP_THETA = 0.75   # inf-norm each matrix is scaled under before its Taylor
                    # polynomial of degree 16, whose remainder there is below
                    # 5e-17 of exp's norm
_EXP_COEFFS = 1.0 / np.cumprod([1.0, *range(1, 17)])   # 1 / k!, k = 0..16


def _expms(x) -> np.ndarray:
    """exp of every matrix of a real (K, n, n) stack, bit for bit as alone.

    Matrix k is scaled by 2^-s_k, exactly, with s_k the least power that
    brings its inf-norm under _EXP_THETA; the degree-16 Taylor polynomial
    is evaluated by Paterson-Stockmeyer as B0 + X4 (B1 + X4 (B2 + X4 (B3 +
    X4 / 16!))) with B_j = sum_i X^i / (4j + i)!, and the result is squared
    s_k times.  Every product is a stacked matmul, one BLAS call per
    matrix, and every other operation is elementwise; the matrices are
    sorted by s_k so that each squaring is one call on a slice.  So a
    matrix gets the same bits in any stack.  Entries are not checked: a
    non-finite entry gives a non-finite exponential.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {np.shape(x)}")
    k, n = x.shape[:2]
    s = np.maximum(np.frexp((np.abs(x) @ np.ones(n)).max(axis=1, initial=0.0)
                            / _EXP_THETA)[1], 0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    x1 = x[order]
    x1.reshape(k, n * n)[...] *= np.ldexp(1.0, -s)[:, None]
    x2 = x1 @ x1
    x3 = x2 @ x1
    x4 = x2 @ x2
    c = _EXP_COEFFS
    t = np.empty_like(x1)

    def block(j, out):
        # B_j into out, through t
        np.multiply(x1, c[4 * j + 1], out=out)
        for i, p in ((2, x2), (3, x3)):
            out += np.multiply(p, c[4 * j + i], out=t)
        out.reshape(k, n * n)[:, ::n + 1] += c[4 * j]
        return out

    e, b = block(3, np.empty_like(x1)), np.empty_like(x1)
    e += np.multiply(x4, c[16], out=t)
    for j in (2, 1, 0):
        block(j, b)
        np.matmul(x4, e, out=t)
        np.add(t, b, out=e)
    for i in np.searchsorted(s, np.arange(1, s[-1] + 1 if k else 1)):
        np.matmul(e[i:], e[i:], out=t[i:])
        e[i:] = t[i:]
    x1[order] = e
    return x1


def expm4s(a) -> np.ndarray:
    """exp of every matrix of a (K, 4, 4) complex stack, bit for bit as alone.

    A matrix with a zero imaginary part goes through _expms as it is; any
    other, P + iQ, as the real 8x8 matrix [[P, -Q], [Q, P]], whose
    exponential holds Re exp and Im exp in its left column of blocks.  All
    products are real matmuls, which run several times faster than complex
    ones at these sizes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {np.shape(a)}")
    cplx = np.any(a.imag != 0.0, axis=(1, 2))
    if not cplx.any():
        return _expms(a.real).astype(complex)
    r = np.flatnonzero(cplx)
    re, im = (a.real, a.imag) if r.size == len(a) else (a.real[r], a.imag[r])
    big = np.empty((r.size, 8, 8))
    big[:, :4, :4] = big[:, 4:, 4:] = re
    big[:, 4:, :4] = im
    big[:, :4, 4:] = -im
    e = _expms(big)
    out = np.empty_like(a)
    if r.size < len(a):
        out.real[~cplx] = _expms(a.real[~cplx])
        out.imag[~cplx] = 0.0
    out.real[r], out.imag[r] = e[:, :4, :4], e[:, 4:, :4]
    return out


def quartic_roots(coeffs) -> np.ndarray:
    """All four roots of one quartic, 5 ascending coefficients: quartic_root_sets of one."""
    roots, errs = quartic_root_sets(np.asarray(coeffs)[None])
    if errs[0] is not None:
        raise errs[0]
    return roots[0]
