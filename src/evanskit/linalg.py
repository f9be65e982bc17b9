"""Fixed-size complex linear algebra kernels.

Everything that feeds the Evans-function pipeline lives in dimension 4
(state space) or 6 (bivectors).
Results rest on numpy's BLAS and LAPACK builds.  nullvector (an SVD) and
quartic_roots (np.roots) take one input each and keep their pinned
tolerances; the spectrum at infinity uses neither.
The symplectic pairing has one kernel, symplectic_forms, called on stacks.
_expms exponentiates a stack of real matrices, each with its own scaling,
through real matmuls alone; complex 4x4 exponents go through it in the
real 8x8 form, which the integrator builds in place.
Determinants, one matrix or a stack, are np.linalg.det, which runs LAPACK
on each matrix of a stack alone.
Each item must get the bits of one-at-a-time arithmetic on complex
scalars, on which every pinned D, root and Pi rests.  numpy's array loops
round differently from its scalar arithmetic: the SIMD complex product
fuses multiply-adds, and complex abs on arrays is not libm's hypot.  So
products of per-item scalars are written in real parts (_cmul), abs() of
a per-item scalar is np.hypot, and a dot product is a stack of 1x4 @ 4x1
matmuls, which call the same BLAS dot.  What is an array operation for
one item (a column times a scalar, np.abs of a vector) stays one.

A quartic is a plain array of 5 coefficients, ascending (leading
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
    return np.linalg.det(np.column_stack([as_cvec4(u) for u in (u1, u2, u3, u4)]))


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


_EXP_THETA = 0.75   # inf-norm each matrix is scaled under before its Taylor
                    # polynomial of degree 16, whose remainder there is below
                    # 5e-17 of exp's norm
_EXP_COEFFS = 1.0 / np.cumprod([1.0, *range(1, 17)])   # 1 / k!, k = 0..16


def _expms(x, work=None) -> np.ndarray:
    """exp of every matrix of a real (K, n, n) stack, bit for bit as alone.

    Matrix k is scaled by 2^-s_k, exactly, with s_k the least power that
    brings its inf-norm under _EXP_THETA; the degree-16 Taylor polynomial
    is evaluated by Paterson-Stockmeyer as B0 + X4 (B1 + X4 (B2 + X4 (B3 +
    X4 / 16!))) with B_j = sum_i X^i / (4j + i)!, and the result is squared
    s_k times: the matrices that square are gathered once, most squarings
    first, the i-th squaring takes the prefix of those with s_k >= i, and
    each goes back after its last.
    Every product is a stacked matmul, one BLAS call per matrix, and every
    other operation is elementwise, so a matrix gets the same bits in any
    stack; when no matrix needs squaring nothing is gathered.  Entries are
    not checked: a non-finite entry gives a non-finite exponential, and so
    does a squaring that overflows, without a warning; callers check
    finiteness.  A complex P + iQ is exponentiated as the real [[P, -Q],
    [Q, P]], whose exponential holds Re exp and Im exp in its left column
    of blocks.

    work, when given, holds the six temporaries: a float array of shape
    (6, K', n, n) with K' >= K.  x is then scaled in place, and the result
    is a view of work, valid until work is used again.
    """
    x = np.array(x, dtype=float) if work is None else np.ascontiguousarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {np.shape(x)}")
    k, n = x.shape[:2]
    if work is None:
        work = np.empty((6, k, n, n))
    x2, x3, x4, t, e, b = work[:, :k]
    s = np.maximum(np.frexp((np.abs(x, out=t) @ np.ones(n)).max(axis=1, initial=0.0)
                            / _EXP_THETA)[1], 0)
    squarings = int(s.max(initial=0))
    if squarings:
        x *= np.ldexp(1.0, -s)[:, None, None]
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x2, x2, out=x4)
    c = _EXP_COEFFS

    def block(j, out):
        # B_j into out, through t
        np.multiply(x, c[4 * j + 1], out=out)
        for i, p in ((2, x2), (3, x3)):
            out += np.multiply(p, c[4 * j + i], out=t)
        out.reshape(k, n * n)[:, ::n + 1] += c[4 * j]
        return out

    block(3, e)
    e += np.multiply(x4, c[16], out=t)
    for j in (2, 1, 0):
        block(j, b)
        np.matmul(x4, e, out=t)
        np.add(t, b, out=e)
    if squarings:
        # the matrices that square, most squarings first, gathered once: the
        # i-th squaring takes the first ge[i] of them, alternating between t
        # and b, and a matrix goes back to e after its last one
        order = np.argsort(-s, kind="stable")
        ge = [*np.cumsum(np.bincount(s)[::-1])[::-1].tolist(), 0]   # ge[i]: s_k >= i
        cur, nxt = t, b
        np.take(e, order[:ge[1]], axis=0, out=cur[:ge[1]])
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, squarings + 1):
                m, done = ge[i], ge[i + 1]
                np.matmul(cur[:m], cur[:m], out=nxt[:m])
                if done < m:
                    e[order[done:m]] = nxt[done:m]
                cur, nxt = nxt, cur
    return e


def nullvector(m) -> np.ndarray:
    """One-dimensional kernel direction of a 4x4 complex matrix.

    The right singular vector of the smallest singular value, at unit norm
    with its largest component rotated onto the positive real axis.
    RankError unless exactly one singular value falls below
    NULLVECTOR_TOL * sigma_max.  Only perfbench's tracer and the tests call
    it; the spectrum at infinity takes its frames from eigenvectors.
    """
    _, sigma, vh = np.linalg.svd(as_cmat4(m))   # sigma descending
    tol = NULLVECTOR_TOL * sigma[0]
    if sigma[0] == 0.0:
        raise RankError("zero matrix has no one-dimensional kernel")
    if sigma[3] > tol:
        raise RankError(f"no kernel direction: smallest sigma {sigma[3]:.3e} "
                        f"exceeds {NULLVECTOR_TOL:.1e} * {sigma[0]:.3e}")
    if sigma[2] <= tol:
        raise RankError("kernel dimension >= 2 at this tolerance")
    v = np.conj(vh[3])
    top = v[np.argmax(np.abs(v))]
    v = v * (np.conj(top) / abs(top))
    return v / np.linalg.norm(v)


def quartic_roots(coeffs) -> np.ndarray:
    """All four roots of one quartic, 5 coefficients ascending, sorted by (Re, Im).

    The eigenvalues of its companion matrix, by np.roots.  Degenerate if the
    leading coefficient vanishes relative to the others, NoConverge if a
    residual exceeds QUARTIC_TOL * local scale.  Only perfbench's tracer and
    the tests call it; the exponents at infinity are eigenvalues of the
    system matrix.
    """
    c = np.array(coeffs, dtype=complex)
    if c.shape != (5,):
        raise ValueError(f"expected 5 quartic coefficients, got shape {np.shape(coeffs)}")
    if not np.all(np.isfinite(c.view(float))):
        raise ValueError("non-finite quartic coefficients")
    cmax = np.max(np.abs(c))
    if cmax == 0.0 or abs(c[4]) < 1e-14 * cmax:
        raise Degenerate("leading coefficient vanishes; not a quartic")
    z = np.roots(c[::-1])
    resid = np.abs(np.polyval(c[::-1], z)) / (cmax * (1.0 + np.abs(z)) ** 4)
    if np.max(resid) > QUARTIC_TOL:
        raise NoConverge(f"quartic residual {np.max(resid):.2e} above {QUARTIC_TOL:.1e}")
    return z[np.lexsort((z.imag, z.real))]
