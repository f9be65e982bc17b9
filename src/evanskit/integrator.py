"""Mode integration for the linearized travelling-wave problem.

The spatial eigenvalue system J(c) u' = (B(xi) - lambda M) u is solved in
exponentially rescaled variables: for mode j the integrated quantity is
v(xi) = exp(-sigma mu_j xi) * (true mode), sigma = +1 for u-type runs and
-1 for w-type (adjoint-path) runs, so v stays O(1) across the domain and
equals the true mode exactly at xi = 0.

Runs are seeded with the matching eigenvector of the system at infinity
on the side where the true mode decays and integrated toward the match
point.  A run returns its end value (the true mode when it ends at
xi = 0), its step counts and, on request, its values on a grid.

The rescaled mode equation is linear, v' = (A(xi) - sigma mu I) v with
A = J(c)^-1 (hessS(zhat(xi)) - lambda M), and the stepper is the
sixth-order Magnus method on three Gauss-Legendre nodes of Blanes, Casas
& Ros (BIT 40, 2000): a step multiplies v by the exponential of
Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240, with a1, a2, a3
the node combinations of A and C1, C2 their commutators; sigma mu I
commutes with everything, so it leaves Omega as the scalar factor
exp(-sigma mu h).  Because A is affine in lambda, Omega is a cubic
W0 + lam W1 + lam^2 W2 + lam^3 W3 whose real coefficients depend only on
the step.  A Stepper holds them, with the mesh, for one (model, wave, c,
tol, L) and builds them once per task for all the runs it sweeps: a scan's
grid and polish rounds, a contour's boundary and refinement levels, or a
report's tangent pair and derivative stencil.  Stepper.run is the one way
in; integrate_mode is a fresh Stepper's sweep of one run.  Each (lambda,
direction) then costs one weighted sum and one 4x4 exponential
(linalg.expm4s) per step.

The steps lie on one mesh of [-L, L] that depends only on the model, the
wave, c, L and tol: n = mesh_steps(tol), about N_REF (1e-10 / tol)^(1/6),
steps on [-L, 0] equidistribute ||J^-1 (hessS(zhat) - B_inf)||_F^(1/4)
plus a floor of _FLOOR times its maximum, piece by piece between the
nodes -L, -2, -1.5, -1, -0.5 and 0, and [0, L] is the mirror image; tol
is the one accuracy knob.  The error of a step grows like |lambda|^5, so
a run with |lambda| above LAMBDA_REF splits every step in
refinement(lambda) equal parts.  Runs seeded at -L step up the mesh and
runs seeded at +L down it, and stop and sample only at mesh nodes: an end
or grid point that is no node is refused, and +-L, 0, +-0.5, ..., +-2 are
nodes at every refinement.  So every step is a mesh step, and a run's
values depend only on the mesh, its lambda, its seed side and its end
point, never on the batch it rides in; a single run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import InfinitySpectrum, spectrum
from .errors import BadParameter, Overflow, StepFail
from .linalg import expm4s
from .model import MultisymplecticModel, WaveFamily, jc

N_REF = 294        # mesh steps on [-L, 0] at tol = 1e-10
MAX_STEPS = 4096   # cap on the steps on [-L, 0]; a tol that needs more is refused
LAMBDA_REF = 10.0  # |lambda| up to which a run steps on the mesh as it is
_BREAKS = (-2.0, -1.5, -1.0, -0.5)   # mesh nodes besides -L and 0 (and their mirror images)
_POWER = 0.25      # the monitor is the field's distance from B_inf to this power
_FLOOR = 0.005     # monitor floor, as a fraction of the monitor's maximum
_FINE = 128        # monitor samples per mesh piece
_EXP_BATCH = 256   # matrices per exponential call: steps times (lambda, direction) groups
_TABLE_BATCH = 64  # steps per _magnus call: bounds its temporaries (128 raises their peak)
_HELD_BYTES = 2 ** 20   # W tables a Stepper keeps between sweeps; a level past it is dropped
_OVERFLOW = 1e12
_GAUSS = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])   # nodes on [0, 1]


class StepStats(NamedTuple):
    """Step counts of one rescaled mode run."""

    accepted: int   # steps taken
    rejected: int   # always 0: the mesh is fixed
    h_min: float    # smallest |step|; inf when no step was taken


@dataclass
class RescaledSolution:
    """One rescaled mode run: its end value, step counts and grid values.

    value_at_end is the rescaled solution where the run stops; for a run
    that ends at xi = 0 it is the true (unscaled) mode, because the
    rescaling factor is 1 there.  grid/values hold the rescaled solution
    on the requested grid.
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


def mesh_steps(tol: float) -> int:
    """Steps of the mesh on [-L, 0] at tol: ceil(N_REF (1e-10 / tol)^(1/6)).

    Raises BadParameter for a tol that is not finite and positive, or that
    needs more than MAX_STEPS steps (tol below about 1.4e-17).
    """
    if not 0.0 < tol < math.inf:
        raise BadParameter("tol must be finite and positive")
    n = math.ceil(N_REF * (1e-10 / tol) ** (1 / 6))
    if n > MAX_STEPS:
        raise BadParameter(f"tol={tol:g} needs {n} mesh steps per half-domain, "
                           f"more than {MAX_STEPS}")
    return n


def _mesh(monitor, L: float, n: int) -> np.ndarray:
    """Nodes of the graded mesh on [-L, 0], ascending.

    monitor maps an array of xi to the monitor's values there.  Each piece
    of [-L, 0] between consecutive nodes of -L, _BREAKS and 0 gets its
    share of the n steps by its monitor integral (at least one), placed so
    that every step holds an equal part of it.
    """
    ends = np.array([-L, *(b for b in _BREAKS if b > -L), 0.0])
    xs = ends[:-1, None] + (ends[1:] - ends[:-1])[:, None] * np.linspace(0.0, 1.0, _FINE + 1)
    f = np.array([monitor(row) for row in xs])   # a piece at a time, to bound memory
    if not np.all(np.isfinite(f)):
        bad = xs.ravel()[np.argmin(np.isfinite(f).ravel())]
        raise StepFail(f"non-finite matrix field at xi={bad:.4f}")
    top = f.max()
    m = f + _FLOOR * top if top > 0 else np.ones_like(f)
    cum = np.zeros_like(m)
    cum[:, 1:] = np.cumsum(0.5 * (m[:, 1:] + m[:, :-1]) * np.diff(xs, axis=1), axis=1)
    steps = np.maximum(1, np.rint(n * cum[:, -1] / cum[:, -1].sum()).astype(int))
    left = [ends[:1]]
    for piece, k in enumerate(steps):
        nodes = np.interp(np.linspace(0.0, cum[piece, -1], k + 1), cum[piece], xs[piece])
        nodes[-1] = ends[piece + 1]
        left.append(nodes[1:])
    return np.concatenate(left)


def refinement(lam: complex) -> int:
    """Sub-steps per mesh step at lambda: ceil((|lambda| / LAMBDA_REF)^(5/6)), at least 1.

    The Magnus error on a fixed mesh grows like |lambda|^5 h^6 once |lambda|
    passes LAMBDA_REF, so splitting each step in this many equal parts
    keeps it at its |lambda| = LAMBDA_REF size.
    """
    return max(1, math.ceil((abs(lam) / LAMBDA_REF) ** (5 / 6)))


def _commutator(x, y):
    return x @ y - y @ x


def _magnus(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W0..W3 of each step's exponent Omega = W0 + lam W1 + lam^2 W2 + lam^3 W3.

    h holds the signed steps (S,), a the lambda-free part of A at their
    three Gauss nodes in the direction of travel (S, 3, 4, 4), and b the
    coefficient of lambda in A, -J^-1 M.  Returns an (S, 4, 4, 4) array,
    W_k in [:, k].
    """
    hh = h[:, None, None]
    a1, b1 = hh * a[:, 1], hh * b                         # alpha1 = a1 + lam b1
    a2 = (np.sqrt(15.0) / 3.0) * hh * (a[:, 2] - a[:, 0])
    a3 = (10.0 / 3.0) * hh * (a[:, 2] - 2.0 * a[:, 1] + a[:, 0])
    c10, c11 = _commutator(a1, a2), _commutator(b1, a2)   # C1 = c10 + lam c11
    e0 = 2.0 * a3 + c10                                   # 2 alpha3 + C1 = e0 + lam c11
    c20 = _commutator(a1, e0) / -60.0                     # C2 = c20 + lam c21 + lam^2 c22
    c21 = (_commutator(a1, c11) + _commutator(b1, e0)) / -60.0
    c22 = _commutator(b1, c11) / -60.0
    x0, x1 = -20.0 * a1 - a3 + c10, -20.0 * b1 + c11      # -20 alpha1 - alpha3 + C1
    y0 = a2 + c20                                         # alpha2 + C2 = y0 + lam c21 + lam^2 c22
    w = np.empty((len(h), 4, 4, 4))
    w[:, 0] = a1 + a3 / 12.0 + _commutator(x0, y0) / 240.0
    w[:, 1] = b1 + (_commutator(x0, c21) + _commutator(x1, y0)) / 240.0
    w[:, 2] = (_commutator(x0, c22) + _commutator(x1, c21)) / 240.0
    w[:, 3] = _commutator(x1, c22) / 240.0
    return w


def _exponentials(parts, powers: np.ndarray) -> np.ndarray:
    """exp(W0 + lam W1 + lam^2 W2 + lam^3 W3) for S steps and G lambdas.

    parts holds pairs (w, g): the W_k of S steps, (S, 4, 4, 4), and the
    indices of the lambdas that take them.  powers holds 1, lam, lam^2,
    lam^3 per lambda, (G, 4) complex; the real and imaginary parts of the
    exponent are sums of W_k weighted by theirs, so a real lambda gives an
    exponent with a zero imaginary part.  Returns an (S, G, 4, 4) complex
    array.
    """
    omega = np.empty((len(parts[0][0]), len(powers), 4, 4), complex)
    for w, g in parts:
        for part, c in ((omega.real, powers.real[g]), (omega.imag, powers.imag[g])):
            sub = w[:, None, 0] * c[:, 0, None, None]
            for k in (1, 2, 3):
                sub += w[:, None, k] * c[:, k, None, None]
            part[:, g] = sub
    return expm4s(omega.reshape(-1, 4, 4)).reshape(omega.shape)


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
    until and the points of out_grid must be mesh nodes; +-L, 0, +-0.5,
    ..., +-2 always are.  This is a fresh Stepper's sweep of this one run.
    """
    if spec is None:
        spec = spectrum(model, c, lam)
    return Stepper(model, wave, c, tol=tol, L=L).run([(lam, spec, j, kind, until, out_grid)])[0]


class Stepper:
    """The mesh and W tables of one (model, wave, c, tol, L), for any number of sweeps.

    None of it depends on lambda.  The mesh is built by the first sweep
    with runs, and the W tables of each refinement level and direction of
    travel only as far up the mesh as a sweep's runs step; a later sweep
    that steps further extends them.  Levels are swept in ascending order,
    and a level whose tables take the held total past _HELD_BYTES is
    dropped after its sweep and rebuilt when next needed, so the many
    levels of large |lambda| do not pile up.  A table row is the same
    array whichever sweep built it, so a run gives the same bits on a
    stepper that has swept before as on a fresh one.
    """

    def __init__(self, model: MultisymplecticModel, wave: WaveFamily, c: float,
                 tol: float, L: Optional[float] = None):
        self.model, self.wave, self.c, self.tol = model, wave, c, tol
        self.L = float(L) if L is not None else wave.default_L(c)
        self.n = mesh_steps(tol)
        self.jinv = np.linalg.inv(jc(model, c))
        self.bmat = -(self.jinv @ model.M)   # the coefficient of lambda in A
        self._levels = {}   # refinement -> (mesh nodes, {direction: W tables built so far})

    def _field(self, xi: np.ndarray) -> np.ndarray:
        """J^-1 hessS(zhat(xi)) on an array of xi, (xi.size, 4, 4)."""
        z = self.wave.zhat(xi, self.c)
        return np.broadcast_to(self.jinv @ self.model.hessS(z), (xi.size, 4, 4))

    @cached_property
    def _left(self) -> np.ndarray:
        # the nodes of the mesh on [-L, 0]
        jb = self.jinv @ self.model.binf()
        return _mesh(lambda xi: np.linalg.norm(self._field(xi) - jb, axis=(1, 2)) ** _POWER,
                     self.L, self.n)

    def run(self, runs) -> list:
        """Every run of a flat run list in one sweep, one RescaledSolution per run, in order.

        Each run is (lam, spec, j, kind, until, grid): the spectral point,
        its spectrum at infinity, the mode as in integrate_mode, the end
        point in [-L, L], and a grid or None.  A grid runs from the seed
        toward the end point and must lie between them.  End and grid
        points must be mesh nodes; +-L, 0, +-0.5, ..., +-2 always are, and
        any other point raises ValueError before a step is taken.  Runs of
        different lambda values, modes, end points and grids mix freely.  A
        run with |lambda| above LAMBDA_REF steps on the mesh with every
        step split refinement(lambda) times.  Each solution equals what
        integrate_mode returns for that run alone.
        """
        levels = {}
        for m, (lam, spec, j, kind, end, grid) in enumerate(runs):
            _check_mode(j, kind)
            levels.setdefault(refinement(lam), []).append(m)
        out = [None] * len(runs)
        for r, idx in sorted(levels.items()):
            if self.n * r > MAX_STEPS:
                raise BadParameter(f"|lambda| = {abs(runs[idx[0]][0]):g} at tol={self.tol:g} "
                                   f"needs {self.n * r} mesh steps per half-domain, "
                                   f"more than {MAX_STEPS}")
            sols = self._sweep(r, [runs[m] for m in idx])
            for m, sol in zip(idx, sols):
                out[m] = sol
            if sum(w.nbytes for _, tables in self._levels.values()
                   for w in tables.values()) > _HELD_BYTES:
                del self._levels[r]
        return out

    def _level(self, r: int):
        # the symmetric mesh of [-L, L] with every step split in r, and its tables
        if r not in self._levels:
            left = self._left
            sub = left[:-1, None] + np.diff(left)[:, None] * (np.arange(r) / r)
            half = np.append(sub.ravel(), left[-1])
            x = np.concatenate([half, -half[-2::-1]])
            self._levels[r] = x, {d: np.empty((0, 4, 4, 4)) for d in (1, -1)}
        return self._levels[r]

    def _tables(self, r: int, d: int, upto: int) -> np.ndarray:
        # the W tables of refinement r for at least the first upto steps in
        # direction d, extended _TABLE_BATCH steps a _magnus call to bound its
        # temporaries.  Step k down the mesh is step nsteps-1-k up it, with its
        # Gauss nodes reversed and h negated; the mesh is symmetric, so h is the same
        x, tables = self._level(r)
        built = len(tables[d])
        if upto > built:
            h = np.diff(x)
            nsteps = len(h)
            w = np.concatenate([tables[d], np.empty((upto - built, 4, 4, 4))])
            for t0 in range(built, upto, _TABLE_BATCH):
                t1 = min(t0 + _TABLE_BATCH, upto)
                k0, k1 = (t0, t1) if d > 0 else (nsteps - t1, nsteps - t0)
                a = self._field((x[k0:k1, None] + _GAUSS * h[k0:k1, None]).ravel())
                a = a.reshape(-1, 3, 4, 4)
                w[t0:t1] = _magnus(d * h[t0:t1], a if d > 0 else a[::-1, ::-1], self.bmat)
            tables[d] = w
        return tables[d]

    def _sweep(self, r: int, runs) -> list:
        """The RescaledSolutions of runs on refinement level r, stepped on its mesh in one loop."""
        x = self._level(r)[0]
        h = np.diff(x)
        nsteps = len(h)
        nrun = len(runs)
        # per run, in the coordinate t = d xi along its direction of travel
        # d = +1 (seeded at -L) or -1 (seeded at +L), in which its nodes are x
        kappa = np.empty(nrun, complex)   # exp(kappa h) is the rescaling factor of a step h in t
        seed = np.empty((nrun, 4), complex)
        dirs = np.empty(nrun, int)
        group = np.empty(nrun, int)
        stop = np.empty(nrun, int)        # node a run stops at: the mesh steps it takes
        groups = {}                       # (d, lambda in the equation) -> group index
        at_node = {}                      # node -> [(run, grid index)]
        out_vals = []
        for m, (lam, spec, j, kind, end, grid) in enumerate(runs):
            sigma, lam_ode = (1, complex(lam)) if kind == "u" else (-1, -complex(lam))
            d = -1 if (j in (3, 4)) == (kind == "w") else 1
            seed[m] = spec.zeta[j - 1] if kind == "u" else spec.eta[j - 1]
            kappa[m] = -sigma * d * spec.mu[j - 1]
            dirs[m] = d
            key = (d, complex(lam_ode.real + 0.0, lam_ode.imag + 0.0))
            group[m] = groups.setdefault(key, len(groups))
            pts = [*([] if grid is None else [float(g) * d for g in grid]), float(end) * d]
            at = np.minimum(np.searchsorted(x, pts), nsteps)
            off = x[at] != pts
            if off.any():
                raise ValueError(f"xi={d * pts[np.argmax(off)]!r} is not a mesh node in [-L, L]; "
                                 "+-L, 0, +-0.5, ..., +-2 always are")
            if pts != sorted(pts):
                raise ValueError("grid not monotone from the seed to the end point")
            stop[m] = at[-1]
            for i, k in enumerate(at[:-1]):
                at_node.setdefault(int(k), []).append((m, i))
            out_vals.append(None if grid is None else np.empty((len(pts) - 1, 4), complex))

        # 1, lambda, lambda^2, lambda^3 of each group, as Python complex products
        powers = np.array([[1.0, lam, lam * lam, lam * lam * lam] for _, lam in groups])
        dir_g = np.array([d for d, _ in groups])
        last = np.zeros(len(groups), int)   # steps of each group's longest run
        np.maximum.at(last, group, stop)
        tables = {d: self._tables(r, d, last[dir_g == d].max())
                  for d in (1, -1) if np.any(dir_g == d)}

        v = seed.copy()
        for m, i in at_node.get(0, []):
            out_vals[m][i] = v[m]

        # the steps at which the set of runs still stepping changes
        change = {0, *stop.tolist()}
        length = stop.max()
        k0 = 0
        while k0 < length:
            # exponentials for the groups with a step left, in this order, up
            # to the first step at which one of them has none left
            act = np.flatnonzero(last > k0)
            k1 = min(k0 + max(1, _EXP_BATCH // act.size), last[act].min())
            parts = [(w[k0:k1], g) for d, w in tables.items()
                     if (g := np.flatnonzero(dir_g[act] == d)).size]
            e = _exponentials(parts, powers[act])
            bad = ~np.isfinite(e.view(float)).all(axis=(2, 3))
            if bad.any():
                s, g = np.argwhere(bad)[0]
                raise StepFail(f"non-finite exponent at xi={dir_g[act[g]] * x[k0 + s]:.4f}")
            row = (np.cumsum(last > k0) - 1)[group]   # each run's group's place in act
            shift = np.exp(np.multiply.outer(h[k0:k1], kappa))
            for k in range(k0, k1):
                if k in change:
                    live = np.flatnonzero(k < stop)
                    every = live.size == nrun
                if every:
                    v = np.matmul(e[k - k0, row], v[..., None])[..., 0] * shift[k - k0, :, None]
                else:
                    v[live] = (np.matmul(e[k - k0, row[live]], v[live, :, None])[..., 0]
                               * shift[k - k0, live, None])
                for m, i in at_node.get(k + 1, []):
                    out_vals[m][i] = v[m]
            if not np.abs(v).max() <= _OVERFLOW:   # true for a NaN too
                m = int(np.argmax(~(np.abs(v).max(axis=1) <= _OVERFLOW)))
                raise Overflow(f"mode norm exceeded {_OVERFLOW:.0e} by xi={dirs[m] * x[k1]:.3f}")
            k0 = k1

        hmin = np.concatenate([[np.inf], np.minimum.accumulate(np.abs(h))])
        return [RescaledSolution(xi_seed=float(-dirs[m] * x[-1]), value_at_end=v[m],
                                 grid=runs[m][5], values=out_vals[m],
                                 nsteps=int(stop[m]), nrejected=0, h_min=float(hmin[stop[m]]))
                for m in range(nrun)]
