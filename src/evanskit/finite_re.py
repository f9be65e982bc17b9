"""Finite-dimensional model class: det(L - lam M) near a one-dimensional kernel.

The matrix pencil carries the same derivative structure as the full problem:
D(0) = 0 and D'(0) = 0 for structural reasons, and D''(0) factors through the
kernel data as 2 mu(L) <zeta2, M zeta1>.  Everything here is dense linear
algebra on matrices of size at most 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, Inconsistent, KernelDim, NonSkew, NonSymmetric

_KERNEL_TOL = 1e-10
_STENCIL_H = 0.25      # node spacing of the derivative stencil at lam = 0
_IDENTITY_TOL = 1e-8   # theorem22_check's tolerance, relative to the predicted D''(0)
_ROOT_TOL = 1e-10      # cor23_root's bisection width, relative above 1


def char_fn(L: np.ndarray, M: np.ndarray, lam) -> float:
    """det(L - lam M); a polynomial in lam with leading coefficient det(M)."""
    return np.linalg.det(L - lam * M)


def adjugate(A: np.ndarray) -> np.ndarray:
    """Transposed cofactor matrix, one minor determinant per entry.

    Satisfies A @ adjugate(A) = det(A) I even when A is singular, which is
    the case this module cares about.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A, 1.0))
    n = A.shape[0]
    if A.shape != (n, n):
        raise BadParameter(f"adjugate needs a square matrix, got {A.shape}")
    if n == 1:
        return np.ones_like(A)
    cof = np.empty_like(A)
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = A[np.ix_(rows != i, rows != j)]
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T


def mu_product(L: np.ndarray) -> float:
    """Product of the nonzero eigenvalues of a symmetric L with 1-dim kernel."""
    L = np.asarray(L, dtype=float)
    if not np.allclose(L, L.T, atol=1e-12 * max(np.linalg.norm(L), 1.0)):
        raise NonSymmetric("mu_product expects a symmetric matrix")
    eigs = np.linalg.eigvalsh(L)
    scale = max(np.max(np.abs(eigs)), 1e-300)
    small = np.abs(eigs) < _KERNEL_TOL * scale
    if int(np.sum(small)) != 1:
        raise KernelDim(f"expected a one-dimensional kernel, found {int(np.sum(small))}")
    return float(np.prod(eigs[~small]))


@dataclass
class REProblem:
    """Pencil data (L, M, zeta1, zeta2) with the kernel chain validated.

    L real symmetric with exactly one zero eigenvalue, M real skew and
    invertible, L zeta1 = 0 and L zeta2 = M zeta1.  The generator, when
    present, is a skew matrix commuting with M such that M @ generator is
    symmetric; synthetic instances carry one so tests can exercise that
    structure.
    """

    L: np.ndarray
    M: np.ndarray
    zeta1: np.ndarray
    zeta2: np.ndarray
    generator: Optional[np.ndarray] = None

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        self.zeta1 = np.asarray(self.zeta1, dtype=float)
        self.zeta2 = np.asarray(self.zeta2, dtype=float)
        m = self.L.shape[0]
        if self.L.shape != (m, m) or self.M.shape != (m, m):
            raise BadParameter("L and M must be square and of equal size")
        if m % 2 != 0 or m > 12:
            raise BadParameter(f"pencil size must be even and at most 12, got {m}")
        nl = max(np.linalg.norm(self.L), 1e-300)
        nm = max(np.linalg.norm(self.M), 1e-300)
        if np.linalg.norm(self.L - self.L.T) > 1e-10 * nl:
            raise NonSymmetric("L must be symmetric")
        if np.linalg.norm(self.M + self.M.T) > 1e-10 * nm:
            raise NonSkew("M must be skew-symmetric")
        if abs(np.linalg.det(self.M)) < 1e-12 * nm ** m:
            raise BadParameter("M must be invertible")
        mu_product(self.L)  # raises KernelDim unless the kernel is 1-dim
        if np.linalg.norm(self.L @ self.zeta1) > _KERNEL_TOL * nl * np.linalg.norm(self.zeta1):
            raise BadParameter("zeta1 is not in the kernel of L")
        res = np.linalg.norm(self.L @ self.zeta2 - self.M @ self.zeta1)
        if res > 1e-10 * nl * max(np.linalg.norm(self.zeta2), 1.0):
            raise BadParameter("zeta2 does not solve L zeta2 = M zeta1")
        pairing = float(self.zeta1 @ (self.M @ self.zeta2))
        if abs(pairing) < 1e-12 * nm * np.linalg.norm(self.zeta1) * np.linalg.norm(self.zeta2):
            raise BadParameter("<zeta1, M zeta2> vanishes; the chain degenerates")

    @property
    def size(self) -> int:
        return self.L.shape[0]

    def d(self, lam) -> float:
        return char_fn(self.L, self.M, lam)


def _stencil_derivs(prob: REProblem):
    # D is a polynomial of degree = size, so a symmetric stencil with
    # size+1 nodes differentiates it exactly up to conditioning
    m = prob.size
    k = m // 2
    xs = _STENCIL_H * np.arange(-k, k + 1)
    ys = np.array([prob.d(x) for x in xs])
    coeffs = np.polyfit(xs, ys, m)
    d1 = float(coeffs[-2])
    d2 = float(2.0 * coeffs[-3])
    return d1, d2


@dataclass
class Theorem22Report:
    """Derivative values at lam = 0 next to their kernel-data predictions."""

    d0: float
    d1_trace: float        # -Tr(adj(L) M), structurally zero
    d1_stencil: float
    d2_stencil: float
    d2_predicted: float    # 2 mu(L) <zeta2, M zeta1>, unit-normalized zeta1
    rel_err: float


def theorem22_check(prob: REProblem) -> Theorem22Report:
    """Verify D(0) = 0, D'(0) = 0 (trace form and stencil), and the D'' factorization.

    Raises Inconsistent when any of the three identities fails at
    _IDENTITY_TOL relative to the predicted second derivative.
    """
    s = np.linalg.norm(prob.zeta1)
    z1 = prob.zeta1 / s
    z2 = prob.zeta2 / s
    mu = mu_product(prob.L)
    predicted = 2.0 * mu * float(z2 @ (prob.M @ z1))
    d0 = prob.d(0.0)
    d1_trace = -float(np.trace(adjugate(prob.L) @ prob.M))
    d1_stencil, d2_stencil = _stencil_derivs(prob)
    scale = max(abs(predicted), 1e-300)
    rep = Theorem22Report(d0=d0, d1_trace=d1_trace, d1_stencil=d1_stencil,
                          d2_stencil=d2_stencil, d2_predicted=predicted,
                          rel_err=abs(d2_stencil - predicted) / scale)
    if abs(d0) > _IDENTITY_TOL * scale:
        raise Inconsistent(f"D(0) = {d0:.3e} is not zero at scale {scale:.3e}")
    if abs(d1_trace) > _IDENTITY_TOL * scale or abs(d1_stencil) > _IDENTITY_TOL * scale:
        raise Inconsistent(f"D'(0) = {d1_trace:.3e} / {d1_stencil:.3e} is not zero")
    if rep.rel_err > _IDENTITY_TOL:
        raise Inconsistent(
            f"D''(0) = {d2_stencil:.8e} vs predicted {predicted:.8e}")
    return rep


def synth_re(n: int, seed: int) -> REProblem:
    """Random instance of size 2n, deterministic in seed.

    Canonical form first: M0 block-diagonal with [[0,-1],[1,0]] blocks,
    L0 = diag(0, d2, ..., d_{2n}) with magnitudes in [0.1, 10], zeta1 = e1,
    zeta2 = e2/d2; then everything is conjugated by one random orthogonal
    matrix.  A commuting skew generator rides along.
    """
    if not (1 <= n <= 6):
        raise BadParameter(f"block count n={n} must be in 1..6")
    rng = np.random.default_rng(seed)
    m = 2 * n
    blk = np.array([[0.0, -1.0], [1.0, 0.0]])
    M0 = np.kron(np.eye(n), blk)
    mags = rng.uniform(0.1, 10.0, size=m - 1)
    signs = rng.choice([-1.0, 1.0], size=m - 1)
    diag = np.concatenate([[0.0], mags * signs])
    L0 = np.diag(diag)
    S0 = np.kron(np.diag(rng.uniform(0.5, 2.0, size=n)), blk)
    z1 = np.zeros(m)
    z1[0] = 1.0
    z2 = np.zeros(m)
    z2[1] = 1.0 / diag[1]
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    Q = Q * np.sign(np.diag(R))
    return REProblem(L=Q @ L0 @ Q.T, M=Q @ M0 @ Q.T,
                     zeta1=Q @ z1, zeta2=Q @ z2,
                     generator=Q @ S0 @ Q.T)


def cor23_root(prob: REProblem) -> Optional[float]:
    """Real positive root of D promised by a negative second derivative.

    Returns None when mu(L) <zeta2, M zeta1> >= 0 (no conclusion).  Otherwise
    D is negative just right of the origin and positive at the a-priori bound
    10 ||M^{-1} L||, so bisection converges to an eigenvalue of the pencil.
    """
    s = np.linalg.norm(prob.zeta1)
    sign2 = mu_product(prob.L) * float((prob.zeta2 / s) @ (prob.M @ (prob.zeta1 / s)))
    if sign2 >= 0:
        return None
    b = 10.0 * np.linalg.norm(np.linalg.solve(prob.M, prob.L), 2)
    if prob.d(b) <= 0:
        raise Inconsistent("D is not positive at the a-priori bound")
    a = b / 2.0
    for _ in range(200):
        if prob.d(a) < 0:
            break
        a /= 2.0
    else:
        raise Inconsistent("no sign change found right of the origin")
    lo, hi = a, b
    while hi - lo > _ROOT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if prob.d(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
