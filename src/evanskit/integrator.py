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

# Dormand-Prince 5(4) tableau; row 6 of _A holds the fifth-order weights (FSAL)
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


# stage weights as (i, 1, 1) constants: row i of _A weighs k[0..i-1] into the
# argument of stage i, and row 6 into the new state
_STAGE_W = [None] + [_A[i, :i].reshape(-1, 1, 1) for i in range(1, 7)]
_ERR_W = _E.reshape(-1, 1, 1)
_C_STAGES = _C[1:6, None]   # abscissa fractions of stages 1-5, as a column


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

    A stage argument y + h sum_j a_ij k_j is formed as weights times stages,
    a sum over the leading axis, times h, plus y: the same operations in the
    same order for every element, written into buffers allocated once per
    call, with x, y and the FSAL stage updated in place on accepted rows.

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
    np.matmul(amat(x[None])[0], y[..., None], out=k[0][..., None])
    terms = np.empty_like(k)      # weights times stages
    total = np.empty_like(y)      # their sum over the stages
    incr = np.empty_like(y)       # h times the sum
    arg = np.empty_like(y)        # y plus the increment: a stage's argument
    y_new = np.empty_like(y)
    accepted = np.zeros(len(y), dtype=int)
    tried = np.zeros(len(y), dtype=int)
    h_min = np.full(len(y), np.inf)
    grids = [None] * len(y) if out_grids is None else out_grids
    dense = [m for m, g in enumerate(grids) if g is not None]
    out_vals = [None if g is None else np.empty((len(g), y.shape[1]), complex)
                for g in grids]
    i_out = [0] * len(y)

    def increment(w, hc):
        # h sum_j w[j] k[j], into incr
        t = terms[:len(w)]
        np.multiply(w, k[:len(w)], out=t)
        np.add.reduce(t, axis=0, out=total)
        return np.multiply(hc, total, out=incr)

    while live.any():
        small = live & (np.abs(h) < floor)
        if small.any():
            m = int(np.argmax(small))
            raise StepFail(f"step size {h[m]:.2e} collapsed at xi={x[m]:.4f}")
        x_end = x + h
        last = direction * (x_end - x1) > 0
        if last.any():
            h = np.where(last, x1 - x, h)
            x_end = np.where(last, x1, x_end)
        hc = h[:, None]
        abs_h = np.abs(h)
        a = amat(x + _C_STAGES * h)
        for i in range(1, 7):
            # stages 1-5, then the new state and its FSAL stage on a[4]
            out = y_new if i == 6 else arg
            np.add(y, increment(_STAGE_W[i], hc), out=out)
            np.matmul(a[min(i, 5) - 1], out[..., None], out=k[i][..., None])
        err_vec = increment(_ERR_W, hc)
        ay = np.abs(y_new)
        sc = tol * np.where(live, abs_h, 1.0)[:, None] * (1.0 + ay)
        err = np.max(np.abs(err_vec) / sc, axis=1)
        ok = live & (err <= 1.0)
        tried += live
        if ok.any():
            for m in dense:
                if not ok[m]:
                    continue
                # the dense interpolant of row m covers [x[m], x_end[m]]
                g, i = grids[m], i_out[m]
                q = None
                while i < len(g) and direction[m] * (g[i] - x_end[m]) <= 0:
                    if q is None:
                        q = k[:, m].T @ _P  # (n, 4)
                    th = (g[i] - x[m]) / h[m]
                    pows = np.array([th, th ** 2, th ** 3, th ** 4])
                    out_vals[m][i] = y[m] + h[m] * (q @ pows)
                    i += 1
                i_out[m] = i
            np.copyto(x, x_end, where=ok)
            np.copyto(y, y_new, where=ok[:, None])
            np.copyto(k[0], k[6], where=ok[:, None])  # FSAL
            accepted += ok
            np.minimum(h_min, abs_h, out=h_min, where=ok)
            if not ay.max() <= _OVERFLOW:   # true for a NaN too
                big = ok & (np.max(ay, axis=1) > _OVERFLOW)
                if big.any():
                    m = int(np.argmax(big))
                    raise Overflow(f"mode norm exceeded {_OVERFLOW:.0e} at xi={x[m]:.3f}")
        pos = err > 0
        fac = 0.9 * np.where(pos, err, 1.0) ** -0.2
        grow = np.where(pos, np.minimum(5.0, fac), 5.0)
        shrink = np.where(err > 1.0, np.maximum(0.2, fac), 0.2)  # a NaN error shrinks most
        h = h * np.where(ok, grow, shrink)
        live = direction * (x1 - x) > 0
        h = np.where(live, h, 0.0)

    for m in dense:
        # grid points at the end point that no interpolant reached
        out_vals[m][i_out[m]:] = y[m]
    stats = [StepStats(int(a), int(t - a), float(s))
             for a, t, s in zip(accepted, tried, h_min)]
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
    cmat_re = np.ascontiguousarray(cmat.real)
    bufs = {}   # one output per abscissa shape, reused from step to step

    def amat(xi):
        out = bufs.get(xi.shape)
        if out is None:
            # jinv and the Hessian are real, so the imaginary part is 0 - cmat.imag
            # at every abscissa: it is written once
            out = bufs[xi.shape] = np.empty(xi.shape + (4, 4), complex)
            np.subtract(0.0, cmat.imag, out=out.imag)
        jh = jinv @ hess(zhat(xi.ravel(), c))
        if jh.ndim == 3:
            jh = jh.reshape(xi.shape + (4, 4))
        # else a hessS constant in z returned one 4x4 matrix, which broadcasts
        np.subtract(jh, cmat_re, out=out.real)
        return out

    y_end, out_vals, stats = _dopri5(amat, xi_seed, until, seed, tol, grids)
    return [RescaledSolution(xi_seed=float(xi_seed[m]), value_at_end=y_end[m],
                             grid=grids[m], values=out_vals[m],
                             nsteps=stats[m].accepted, nrejected=stats[m].rejected,
                             h_min=stats[m].h_min)
            for m in range(n)]
