"""The coupled wave system, a multisymplectic model M Z_t + K Z_x = grad S(Z) on R^4.

A model is the algebraic data (M, K, S-derivatives, optional reversor R,
which the mode integrator relies on to step a reversible wave's w-runs);
a wave family is a c-parametrized steady profile in the moving frame
xi = x - c t together with its xi- and c-derivatives.  The coupled
second-order wave system is the one model with a wave family: its
profile, tangent solutions and Evans function all have closed forms,
collected in oracle_coupled_wave for use as reference values.  The
Clifford generators of build_dirac back the clifford verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, NonSkew, NotReversor, SingularJc

CANONICAL_M = np.array([[0, -1, 0, 0],
                        [1, 0, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, -1, 0]], dtype=float)

CANONICAL_K = np.array([[0, 0, 1, 0],
                        [0, 0, 0, -1],
                        [-1, 0, 0, 0],
                        [0, 1, 0, 0]], dtype=float)

REVERSOR = np.diag([1.0, -1.0, -1.0, 1.0])


@dataclass
class MultisymplecticModel:
    """Algebraic data of M Z_t + K Z_x = grad S(Z).

    M and K are finite (BadParameter otherwise) and skew-symmetric (NonSkew).
    gradS maps a point z of shape (4,) to grad S(z), and z of shape (4, N)
    to the (4, N) array of its columns' gradients; verify_wave relies on
    this.  hessS maps z of shape (4,) to the real 4x4 Hessian and also
    broadcasts over a trailing batch axis: z of shape (4, N) maps to an
    (N, 4, 4) stack whose n-th matrix equals hessS(z[:, n]) exactly.  The
    mode integrator relies on this: it calls hessS on the profile at the
    three Gauss nodes of every step of a 64-step chunk of its mesh, once
    per task for all the runs its Stepper sweeps.  A hessS that returns
    one constant 4x4 matrix for any input also satisfies the contract, by
    broadcasting.

    R, when given, is a finite reversor: R R = I, R M = -M R and R K = -K R,
    checked exactly (NotReversor otherwise).  The mode integrator relies on
    it: where the field is R-symmetric along the wave, J^-1 hessS(zhat(-xi))
    = -R J^-1 hessS(zhat(xi)) R, it steps each w-run as R times a u-type
    run from the other end.
    """

    M: np.ndarray
    K: np.ndarray
    gradS: Callable[[np.ndarray], np.ndarray]
    hessS: Callable[[np.ndarray], np.ndarray]
    R: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.K = np.asarray(self.K, dtype=float)
        for tag, a in (("M", self.M), ("K", self.K)):
            if a.shape != (4, 4):
                raise ValueError(f"{tag} must be 4x4")
            if not np.all(np.isfinite(a)):   # the skew test below passes a NaN
                raise BadParameter(f"{tag} must be finite")
            if np.max(np.abs(a + a.T)) > 1e-14:
                raise NonSkew(f"{tag} is not skew-symmetric")
        if self.R is not None:
            r = self.R = np.asarray(self.R, dtype=float)
            if not (r.shape == (4, 4) and np.all(np.isfinite(r))
                    and np.array_equal(r @ r, np.eye(4))
                    and np.array_equal(r @ self.M, -self.M @ r)
                    and np.array_equal(r @ self.K, -self.K @ r)):
                raise NotReversor("R must be a 4x4 matrix with R R = I that anticommutes "
                                  "with M and K")

    def binf(self) -> np.ndarray:
        """Hessian of S at the origin: the system matrix at infinity."""
        return self.hessS(np.zeros(4))


def jc(model: MultisymplecticModel, c: float) -> np.ndarray:
    """J(c) = K + c M, the symplectic operator of the travelling frame.

    BadParameter unless c is finite; SingularJc where K + cM is singular.
    """
    if not np.isfinite(c):
        raise BadParameter(f"c must be finite, got {c}")
    j = model.K + c * model.M
    if not abs(np.linalg.det(j)) >= 1e-10:   # NaN fails too
        raise SingularJc(f"K + cM singular at c={c}")
    return j


@dataclass
class WaveFamily:
    """Solitary-wave profile zhat(xi, c) with its xi- and c-derivatives.

    decay_rate(c) is the slowest asymptotic decay exponent of the profile,
    used to size truncation domains as L = 40 / decay_rate(c) and to pick
    the unstable exponent at lambda = 0 that chi's tails follow.  zhat,
    zhat_xi and zhat_c broadcast over xi: an array of shape (N,) gives
    values of shape (4, N), the input that MultisymplecticModel.hessS
    stacks.  A field constant in xi may return shape (4,) for any xi;
    on_grid broadcasts it to (4, N), and the quadratures and verify_wave
    read every field through on_grid.
    """

    zhat: Callable[[float, float], np.ndarray]
    zhat_xi: Callable[[float, float], np.ndarray]
    zhat_c: Callable[[float, float], np.ndarray]
    decay_rate: Callable[[float], float]

    def default_L(self, c: float) -> float:
        return 40.0 / self.decay_rate(c)


def on_grid(field: Callable, xi: np.ndarray, c: float) -> np.ndarray:
    """field(xi, c) for a WaveFamily field on the array xi, shape (4, xi.size)."""
    return np.broadcast_to(np.reshape(field(xi, c), (4, -1)), (4, np.size(xi)))


@dataclass
class WaveCheck:
    """Residual report for a travelling-wave profile."""

    ode_residual: float       # J(c) zhat_xi - grad S(zhat)
    kernel_residual: float    # L zhat_xi, L W = hessS(zhat) W - J(c) W_xi
    jordan_residual: float    # L zhat_c - M zhat_xi
    tail_norm: float          # |zhat| at xi = +-L

    def max_residual(self) -> float:
        return max(self.ode_residual, self.kernel_residual, self.jordan_residual)


VERIFY_N = 201          # grid points of verify_wave on [-L, L]
VERIFY_DELTA = 1e-5     # centered-difference step of verify_wave


def verify_wave(model: MultisymplecticModel, wave: WaveFamily, c: float,
                L: Optional[float] = None) -> WaveCheck:
    """Check the profile equations on a VERIFY_N-point grid.

    The operator L W = hessS(zhat) W - J(c) W_xi is applied to the two
    supplied fields with W_xi formed by centered differencing (step
    VERIFY_DELTA) so the check is independent of any analytic
    differentiation done inside the wave family.  The grid is evaluated as
    one array, through the broadcasting contracts of WaveFamily and
    MultisymplecticModel.
    """
    j = jc(model, c)
    Lbox = float(L) if L is not None else wave.default_L(c)
    grid = np.linspace(-Lbox, Lbox, VERIFY_N)
    d = VERIFY_DELTA

    z, zx, zc = (on_grid(f, grid, c) for f in (wave.zhat, wave.zhat_xi, wave.zhat_c))
    zxx = (on_grid(wave.zhat_xi, grid + d, c) - on_grid(wave.zhat_xi, grid - d, c)) / (2 * d)
    zcx = (on_grid(wave.zhat_c, grid + d, c) - on_grid(wave.zhat_c, grid - d, c)) / (2 * d)
    h = model.hessS(z)

    def apply(a, w):
        # a @ w[:, n] for every column n (a is one 4x4 matrix or an (N, 4, 4)
        # stack), each a matrix-vector product of its own: a matrix-matrix
        # product or an einsum sums in another order and moves the residuals'
        # last bits
        return np.matmul(a, w.T[..., None])[..., 0].T

    r_ode = np.max(np.abs(apply(j, zx) - model.gradS(z)))
    r_ker = np.max(np.abs(apply(h, zx) - apply(j, zxx)))
    r_jor = np.max(np.abs(apply(h, zc) - apply(j, zcx) - apply(model.M, zx)))
    return WaveCheck(float(r_ode), float(r_ker), float(r_jor), wave_tail(wave, c, Lbox))


def wave_tail(wave: WaveFamily, c: float, L: Optional[float] = None) -> float:
    """|zhat| at xi = +-L, the largest entry: verify_wave's tail_norm alone."""
    Lbox = float(L) if L is not None else wave.default_L(c)
    return max(float(np.max(np.abs(wave.zhat(-Lbox, c)))),
               float(np.max(np.abs(wave.zhat(Lbox, c)))))


# ---------------------------------------------------------------------------
# Dirac structure on R^{1,1}

@dataclass
class DiracStructure:
    """Generators of the Clifford algebra Cl(1,1) and the induced skew pair."""

    J1: np.ndarray
    J2: np.ndarray
    R4: np.ndarray      # induced metric diag(1,1,-1,-1)
    metric: np.ndarray  # base metric diag(1,-1)


def build_dirac() -> DiracStructure:
    j1 = np.array([[0, -1, 0, 0],
                   [1, 0, 0, 0],
                   [0, 0, 0, -1],
                   [0, 0, 1, 0]], dtype=int)
    j2 = np.array([[0, 0, 1, 0],
                   [0, 0, 0, -1],
                   [1, 0, 0, 0],
                   [0, -1, 0, 0]], dtype=int)
    r4 = np.diag([1, 1, -1, -1])
    return DiracStructure(J1=j1, J2=j2, R4=r4, metric=np.diag([1, -1]))


# ---------------------------------------------------------------------------
# Coupled second-order wave system: the worked example with closed forms

def _alpha_of(c: float) -> float:
    if not -1.0 < c < 1.0:
        raise BadParameter(f"wave speed c={c} outside (-1, 1)")
    return 1.0 / np.sqrt(1.0 - c * c)


def build_coupled_wave(p: float):
    """Model and wave family for the coupled wave system.

    Coordinates Z = (phi, u1, u2, v);
    S(Z) = (u1^2 - u2^2)/2 + V(phi, v) with
    V = 2 phi^2 - 2 phi^3 - 2 v^2 + v^3 + (p/2)(2 phi - v)^2, p > 0.

    The profile rides on phi_hat = sech^2(alpha xi), alpha = 1/sqrt(1-c^2):
    zhat = (phi_hat, -(2-c) phi_hat', (1-2c) phi_hat', 2 phi_hat).
    Returns (model, wave).
    """
    if p <= 0:
        raise BadParameter(f"coupling p={p} must be positive")

    def gradS(z):
        phi, u1, u2, v = z
        vphi = 4 * phi - 6 * phi * phi + 2 * p * (2 * phi - v)
        vv = -4 * v + 3 * v * v - p * (2 * phi - v)
        return np.array([vphi, u1, -u2, vv])

    h_const = np.array([[0, 0, 0, -2 * p],
                        [0, 1, 0, 0],
                        [0, 0, -1, 0],
                        [-2 * p, 0, 0, 0]], dtype=float)

    def hessS(z):
        phi, _, _, v = z
        h = np.empty(np.shape(phi) + (4, 4))
        h[...] = h_const
        h[..., 0, 0] = 4 - 12 * phi + 4 * p
        h[..., 3, 3] = -4 + 6 * v + p
        return h

    model = MultisymplecticModel(
        M=CANONICAL_M.copy(), K=CANONICAL_K.copy(),
        gradS=gradS, hessS=hessS, R=REVERSOR.copy(), params={"p": p})

    def _profile(xi, c):
        al = _alpha_of(c)
        u = al * xi
        s2 = 1.0 / np.cosh(u) ** 2
        t = np.tanh(u)
        ph = s2
        ph_x = -2 * al * s2 * t
        return al, s2, t, ph, ph_x

    def zhat(xi, c):
        _, _, _, ph, ph_x = _profile(xi, c)
        return np.array([ph, -(2 - c) * ph_x, (1 - 2 * c) * ph_x, 2 * ph])

    def zhat_xi(xi, c):
        al, s2, t, ph, ph_x = _profile(xi, c)
        ph_xx = -2 * al * al * s2 * (s2 - 2 * t * t)
        return np.array([ph_x, -(2 - c) * ph_xx, (1 - 2 * c) * ph_xx, 2 * ph_x])

    def zhat_c(xi, c):
        al, s2, t, ph, ph_x = _profile(xi, c)
        dal = c * al ** 3
        ph_c = -2 * dal * xi * s2 * t
        ph_xc = -2 * dal * (s2 * t + al * xi * s2 * (s2 - 2 * t * t))
        return np.array([ph_c,
                         ph_x - (2 - c) * ph_xc,
                         -2 * ph_x + (1 - 2 * c) * ph_xc,
                         2 * ph_c])

    wave = WaveFamily(
        zhat=zhat, zhat_xi=zhat_xi, zhat_c=zhat_c,
        decay_rate=lambda c: 2.0 * _alpha_of(c))
    return model, wave


@dataclass
class CoupledWaveOracle:
    """Closed-form reference values for the coupled wave system at (p, c)."""

    p: float
    c: float
    alpha: float
    gamma: float                 # sqrt(4 + 3p)
    chi: float                   # -1/(768 alpha)
    pi: float                    # Pi in the code's normalization, see oracle_coupled_wave
    momentum: float              # -16 c alpha / 5
    dIdc: float                  # -16 alpha^3 / 5
    d2: float                    # D''(0) = alpha^2 p (1+p)(5-3p) / (3000 f2(0)^2)
    mu_at_zero: np.ndarray       # (-gamma a, -2a, 2a, gamma a)

    def psi_plus(self, xi: float) -> float:
        return self._psi(xi, +1)

    def psi_minus(self, xi: float) -> float:
        return self._psi(xi, -1)

    def _psi(self, xi, sgn):
        al, g, p = self.alpha, self.gamma, self.p
        t = np.tanh(al * xi)
        return np.exp(-sgn * al * g * xi) * (
            sgn * p * g / 5 + (1 + 6 * p / 5) * t + sgn * g * t * t + t ** 3)

    def _psi_xi(self, xi, sgn):
        al, g, p = self.alpha, self.gamma, self.p
        t = np.tanh(al * xi)
        s2 = 1.0 / np.cosh(al * xi) ** 2
        return (-sgn * al * g * self._psi(xi, sgn)
                + al * np.exp(-sgn * al * g * xi) * s2
                * (1 + 6 * p / 5 + sgn * 2 * g * t + 3 * t * t))

    def a_plus(self, xi: float) -> np.ndarray:
        return self._a(xi, +1)

    def a_minus(self, xi: float) -> np.ndarray:
        return self._a(xi, -1)

    def _a(self, xi, sgn):
        c = self.c
        ps, px = self._psi(xi, sgn), self._psi_xi(xi, sgn)
        return np.array([2 * ps, (2 * c - 1) * px, (2 - c) * px, ps])

    def quintic(self, lam: complex) -> complex:
        """P(y) = (3+y)(5-y)(3+3p+y)(3p+y)(5-3p-y) at y = (alpha lambda)^2."""
        p, y = self.p, (self.alpha * lam) ** 2
        return (3 + y) * (5 - y) * (3 + 3 * p + y) * (3 * p + y) * (5 - 3 * p - y)

    def evans_det(self, lam: complex) -> complex:
        """Closed form of evans.evans_det: 16 alpha^2 lambda^2 P / (810000 f1^2 f2^2).

        f1 and f2 are the lambda-dependent normalization factors of the mode
        basis, functions of y = (alpha lambda)^2 and p; P is quintic().  On
        the real axis it matches evans_det to about 2e-10 relative at tol 1e-10.
        """
        al, p = self.alpha, self.p
        y = (al * lam) ** 2
        f1 = (6 * (y + 5) + np.sqrt(4 + y) * (y + 15)) / 15
        f2 = (10 + 6 * p + 2 * y) / 5 + np.sqrt(4 + 3 * p + y) * (15 + 3 * p + y) / 15
        return 16 * al ** 2 * lam ** 2 * self.quintic(lam) / (810000 * f1 ** 2 * f2 ** 2)


def oracle_coupled_wave(p: float, c: float = 0.0) -> CoupledWaveOracle:
    """The closed forms of the coupled wave at (p, c).

    pi is invariants.pi_profile's Pi: the paper's 6p gamma (5-3p)(1+p) /
    (25 alpha) times alpha / (6 gamma f2(0)^2), with f2(0) = (10 + 6p) / 5 +
    gamma (15 + 3p) / 15 the factor that evans_det's mode basis carries at
    lambda = 0.  d2 is D''(0) of evans_det's closed form, with f1(0) = 4
    and P(0) = 135 p (1+p)(5-3p); it equals 2 chi Pi dI/dc.
    """
    if p <= 0:
        raise BadParameter(f"coupling p={p} must be positive")
    al = _alpha_of(c)
    g = np.sqrt(4 + 3 * p)
    f2 = (10 + 6 * p) / 5 + g * (15 + 3 * p) / 15
    return CoupledWaveOracle(
        p=p, c=c, alpha=al, gamma=g,
        chi=-1.0 / (768.0 * al),
        pi=p * (5 - 3 * p) * (1 + p) / (25 * f2 ** 2),
        momentum=-16.0 * c * al / 5.0,
        dIdc=-16.0 * al ** 3 / 5.0,
        d2=al ** 2 * p * (1 + p) * (5 - 3 * p) / (3000 * f2 ** 2),
        mu_at_zero=np.array([-g * al, -2 * al, 2 * al, g * al]))
