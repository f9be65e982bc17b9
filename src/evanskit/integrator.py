"""Mode integration for the linearized travelling-wave problem.

The spatial eigenvalue system J(c) u' = (B(xi) - lambda M) u is solved in
exponentially rescaled variables: for mode j the integrated quantity is
v(xi) = exp(-sigma mu_j xi) * (true mode), sigma = +1 for u-type runs and
-1 for w-type (adjoint-path) runs, so v stays O(1) across the domain and
equals the true mode exactly at xi = 0.

Runs are seeded with the matching eigenvector of the system at infinity
on the side where the true mode decays and integrated toward the match
point.  A run returns its end value (the true mode when it ends at
xi = 0), its step counts and, on request, dense samples.  The stepper is
an explicit Dormand-Prince 5(4) pair with the standard quartic
dense-output interpolant; local error is controlled per unit xi.  It
advances a flat list of runs (any mix of lambda values, modes, end points
and dense grids) in one loop, so the interpreter overhead of a step is
paid once per batch; every run keeps its own steps, and a single run is a
batch of one.

The rescaled mode equation is linear, v' = A(xi) v, so the stepper takes
the matrix field A rather than a right-hand side.  A step's six stage
abscissae are known before any stage is computed, so A is evaluated once
per step on all of them together (the FSAL stage shares the abscissa of
the last stage), and each stage is one stacked matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import InfinitySpectrum, spectrum
from .errors import Overflow, StepFail
from .model import MultisymplecticModel, WaveFamily, jc

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_B = _A[6]  # fifth-order weights; FSAL
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output coefficients (Shampine)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_OVERFLOW = 1e12


class StepStats(NamedTuple):
    """Step counts of one rescaled mode run."""

    accepted: int
    rejected: int
    h_min: float    # smallest accepted |step|; inf when no step was taken


@dataclass
class RescaledSolution:
    """One rescaled mode run: its end value, step counts and dense samples.

    value_at_end is the rescaled solution where the run stops; for a run
    that ends at xi = 0 it is the true (unscaled) mode, because the
    rescaling factor is 1 there.  grid/values hold dense samples of the
    rescaled solution when requested.
    """

    xi_seed: float
    value_at_end: np.ndarray
    grid: Optional[np.ndarray]
    values: Optional[np.ndarray]
    nsteps: int
    nrejected: int
    h_min: float

    @property
    def stats(self) -> StepStats:
        return StepStats(self.nsteps, self.nrejected, self.h_min)


def _weighted(w, k):
    # sum_j w[j] k[j]: elementwise products summed along the leading axis,
    # so every element of every row sees the same operations in the same order
    return (w[:, None, None] * k[:len(w)]).sum(axis=0)


def _apply(a, v):
    # a[m] @ v[m] for every run m, one stacked matrix-vector product
    return (a @ v[:, :, None])[:, :, 0]


def _dopri5(amat, x0, x1, y0, tol: float, out_grids=None):
    """Adaptive DP5(4) on a batch of independent linear runs y' = A(x) y.

    Complex state, error per unit xi.  Row m of y0 (shape (N, n)) is
    carried from x0[m] to x1[m].  Each row has its own x, step size, error
    norm and accept/reject decision, and a finished row stays in the arrays
    with h = 0, so a row's step sequence, and hence its result, is the same
    whichever batch it rides in.

    amat maps abscissae of shape (S, N), column m for row m, to the system
    matrices of shape (S, N, n, n).  It is called once for the first stage
    and then once per loop iteration, on that step's five distinct stage
    abscissae x + C_i h; the FSAL stage reuses the matrices of the sixth
    stage, whose abscissa x + h is the same float.

    out_grids, when given, holds per row a grid monotone in that row's
    direction of integration, or None; the row's dense interpolant is
    sampled there.  Returns (y_end, out_values, stats): out_values holds
    per row a (len(grid), n) array or None, stats a StepStats per row.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    y = np.array(y0, dtype=complex)
    span = x1 - x0
    direction = np.where(span > 0, 1.0, -1.0)
    floor = 1e-12 * np.abs(span)
    x = x0.copy()
    live = direction * (x1 - x) > 0
    h = np.where(live, direction * np.minimum(np.abs(span) / 100.0, 1.0), 0.0)
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = _apply(amat(x[None])[0], y)
    accepted = np.zeros(len(y), dtype=int)
    rejected = np.zeros(len(y), dtype=int)
    h_min = np.full(len(y), np.inf)
    grids = [None] * len(y) if out_grids is None else out_grids
    dense = [m for m, g in enumerate(grids) if g is not None]
    out_vals = [None if g is None else np.empty((len(g), y.shape[1]), complex)
                for g in grids]
    i_out = [0] * len(y)

    while live.any():
        small = live & (np.abs(h) < floor)
        if small.any():
            m = int(np.argmax(small))
            raise StepFail(f"step size {h[m]:.2e} collapsed at xi={x[m]:.4f}")
        last = direction * (x + h - x1) > 0
        h = np.where(last, x1 - x, h)
        hc = h[:, None]
        a = amat(x + _C[1:6, None] * h)
        for i in range(1, 6):
            k[i] = _apply(a[i - 1], y + hc * _weighted(_A[i, :i], k))
        y_new = y + hc * _weighted(_B[:6], k)
        k[6] = _apply(a[4], y_new)  # FSAL stage, feeds error estimate only
        err_vec = hc * _weighted(_E, k)
        sc = tol * np.where(live, np.abs(h), 1.0)[:, None] * (1.0 + np.abs(y_new))
        err = np.max(np.abs(err_vec) / sc, axis=1)
        ok = live & (err <= 1.0)
        if ok.any():
            x_new = np.where(last, x1, x + h)
            for m in dense:
                if not ok[m]:
                    continue
                # the dense interpolant of row m covers [x[m], x_new[m]]
                g, i = grids[m], i_out[m]
                q = None
                while i < len(g) and direction[m] * (g[i] - x_new[m]) <= 0:
                    if q is None:
                        q = k[:, m].T @ _P  # (n, 4)
                    th = (g[i] - x[m]) / h[m]
                    pows = np.array([th, th ** 2, th ** 3, th ** 4])
                    out_vals[m][i] = y[m] + h[m] * (q @ pows)
                    i += 1
                i_out[m] = i
            x = np.where(ok, x_new, x)
            y = np.where(ok[:, None], y_new, y)
            k[0] = np.where(ok[:, None], k[6], k[0])  # FSAL
            accepted += ok
            h_min = np.where(ok, np.minimum(h_min, np.abs(h)), h_min)
            big = ok & (np.max(np.abs(y), axis=1) > _OVERFLOW)
            if big.any():
                m = int(np.argmax(big))
                raise Overflow(f"mode norm exceeded {_OVERFLOW:.0e} at xi={x[m]:.3f}")
        rejected += live & ~ok
        fac = 0.9 * np.where(err > 0, err, 1.0) ** -0.2
        grow = np.where(err > 0, np.minimum(5.0, fac), 5.0)
        shrink = np.where(err > 1.0, np.maximum(0.2, fac), 0.2)  # a NaN error shrinks most
        h = np.where(ok, h * grow, h * shrink)
        live = direction * (x1 - x) > 0
        h = np.where(live, h, 0.0)

    for m in dense:
        # grid points at the end point that no interpolant reached
        out_vals[m][i_out[m]:] = y[m]
    stats = [StepStats(int(a), int(r), float(s))
             for a, r, s in zip(accepted, rejected, h_min)]
    return y, out_vals, stats


def _check_mode(j: int, kind: str):
    if kind not in ("u", "w"):
        raise ValueError("kind must be 'u' or 'w'")
    if j not in (1, 2, 3, 4):
        raise ValueError("mode index j must be 1..4")


def integrate_mode(model: MultisymplecticModel, wave: WaveFamily, c: float,
                   lam: complex, j: int, kind: str = "u",
                   tol: float = 1e-10, L: Optional[float] = None,
                   spec: Optional[InfinitySpectrum] = None,
                   out_grid: Optional[np.ndarray] = None,
                   until: float = 0.0) -> RescaledSolution:
    """Integrate one rescaled mode from its decay side to xi = until.

    j is the 1-based mode index.  kind "u" solves with lambda and seeds
    zeta_j; the mode decays as xi -> -infinity for j in {3, 4} (seed at
    -L) and as xi -> +infinity for j in {1, 2} (seed at +L).  kind "w"
    solves with -lambda, seeds eta_j, with the opposite seeding sides.
    This is the batch-of-one case of integrate_modes.
    """
    if spec is None:
        spec = spectrum(model, c, lam)
    return integrate_modes(model, wave, c, [(lam, spec, j, kind, until, out_grid)],
                           tol=tol, L=L)[0]


def integrate_modes(model: MultisymplecticModel, wave: WaveFamily, c: float,
                    runs, tol: float = 1e-10, L: Optional[float] = None) -> list:
    """Every run of a flat run list in one stepper call.

    Each run is (lam, spec, j, kind, until, grid): the spectral point, its
    spectrum at infinity, the mode as in integrate_mode, the end point, and
    a dense-output grid or None.  Runs of different lambda values, modes,
    end points and grids mix freely; all share tol and the half-width L.
    Returns one RescaledSolution per run, in order.  Each run keeps its own
    steps, so each solution equals what integrate_mode returns for that run
    alone.
    """
    Lbox = float(L) if L is not None else wave.default_L(c)
    n = len(runs)
    mu = np.empty(n, complex)
    sigma = np.empty(n)
    lam_ode = np.empty(n, complex)
    seed = np.empty((n, 4), complex)
    xi_seed = np.empty(n)
    until = np.empty(n)
    grids = []
    for m, (lam, spec, j, kind, end, grid) in enumerate(runs):
        _check_mode(j, kind)
        mu[m] = spec.mu[j - 1]
        if kind == "u":
            sigma[m], lam_ode[m], seed[m] = +1, complex(lam), spec.zeta[j - 1]
            xi_seed[m] = -Lbox if j in (3, 4) else +Lbox
        else:
            sigma[m], lam_ode[m], seed[m] = -1, -complex(lam), spec.eta[j - 1]
            xi_seed[m] = +Lbox if j in (3, 4) else -Lbox
        until[m] = end
        grids.append(grid)

    jinv = np.linalg.inv(jc(model, c))
    # A(xi) - sigma mu I with A = J(c)^-1 (hessS(zhat(xi)) - lambda M), the
    # xi-independent part per run
    cmat = (lam_ode[:, None, None] * (jinv @ model.M)
            + (sigma * mu)[:, None, None] * np.eye(4))
    hess = model.hessS
    zhat = wave.zhat

    def amat(xi):
        # a hessS constant in z returns one 4x4 matrix: broadcast it to the stack
        jh = jinv @ hess(zhat(xi.ravel(), c))
        return np.broadcast_to(jh, (xi.size, 4, 4)).reshape(xi.shape + (4, 4)) - cmat

    y_end, out_vals, stats = _dopri5(amat, xi_seed, until, seed, tol, grids)
    return [RescaledSolution(xi_seed=float(xi_seed[m]), value_at_end=y_end[m],
                             grid=grids[m], values=out_vals[m],
                             nsteps=stats[m].accepted, nrejected=stats[m].rejected,
                             h_min=stats[m].h_min)
            for m in range(n)]
