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

A reversible wave halves the work.  When the model has a reversor R (R R = I,
R M R = -M, R K R = -K) and the field is R-symmetric along the wave,
J^-1 hessS(zhat(-xi)) = -R J^-1 hessS(zhat(xi)) R, then w(xi) = R v(-xi)
takes a solution v at lambda to one at -lambda (Champneys, Physica D 112,
1998), and R eta_j is the eigenvector of the system at infinity at lambda
with exponent mu_j.  So each w-run is stepped as the u-type run at lambda
from the opposite end, seeded with R eta_j, and its end and grid values
are R times that run's.  In its coordinate t = d xi (see Stepper._sweep)
the reflected run has the w-run's nodes, stops and rescaling, so its
step counts are the w-run's; it steps in the direction of its lambda's
u-runs, with their exponentials.  The symmetry is checked once per
Stepper, to _REVERSIBLE relative, on the mesh monitor's samples; a model
without R, or a wave that fails the check, steps its w-runs at -lambda.

The rescaled mode equation is linear, v' = (A(xi) - sigma mu I) v with
A = J(c)^-1 (hessS(zhat(xi)) - lambda M), and the stepper is the
sixth-order Magnus method on three Gauss-Legendre nodes of Blanes, Casas
& Ros (BIT 40, 2000): a step multiplies v by the exponential of
Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240, with a1, a2, a3
the node combinations of A and C1, C2 their commutators; sigma mu I
commutes with everything, so it leaves Omega as the scalar factor
exp(-sigma mu h).  Because A is affine in lambda, Omega is a cubic
W0 + lam W1 + lam^2 W2 + lam^3 W3 whose real coefficients depend only on
the step.  The method is time-symmetric, so a step down the mesh has the
exponent -Omega of the same step up it, to the bit: one table of W_k per
mesh serves both directions.  A Stepper holds the mesh, and the table of
runs with |lambda| up to LAMBDA_REF, for one (model, wave, c, tol, L) and
builds each row once per task for all the runs it sweeps: a scan's proxy
points and sign checks, a contour's boundary and refinement levels, or a
report's tangent pair and derivative stencil.  A table is built from the
bottom of the mesh up, as far as the up-runs step, and whole for a sweep
with a down-run.  On a reversible wave with a diagonal R, as the coupled
wave's diag(1, -1, -1, 1), only the rows of [-L, 0] come from the field: a
row of [0, L] is the mirror image of a row below 0, W_k -> (-1)^(k+1) R W_k
R (see _magnus), which flips the signs of some of its entries, exactly.
Stepper.run is the one way in; integrate_mode is a fresh Stepper's sweep
of one run.  Each (lambda, direction stepped) then costs one weighted
sum and one exponential per step.  A sweep takes its exponentials in
chunks, each one linalg._expms call on buffers the Stepper holds, in one
form per chunk: real 4x4 when every lambda in it is real, and otherwise
the real 8x8 form of the complex 4x4 for every lambda, where a real
lambda's exact zero blocks give it the bits of its 4x4 form.  On the core
[-2, 2], and on the steps of the outer pieces that lie within about
_BLOCKED of 0, the exponentials of 4 consecutive steps are multiplied into
one propagator, in the real form, and each run takes one 4x4 product per
propagator.  In the far field beyond, whose steps are up to 4.1 long, each
run takes one product per step: with the whole outer pieces composed too,
test_block_propagators_keep_closed_form_accuracy's worst point read 114.8
tol, against 0.0249 tol with the propagators starting anywhere from -2 to
-12.

The steps lie on one mesh of [-L, L] that depends only on the model, the
wave, c, L and tol: n = mesh_steps(tol), about N_REF (1e-10 / tol)^(1/6),
steps on [-L, 0] equidistribute ||J^-1 (hessS(zhat) - B_inf)||_F^(1/4)
plus a floor of _FLOOR times its maximum, piece by piece between the
nodes -L, -2, -1.5, -1, -0.5 and 0, and [0, L] is the mirror image; tol
is the one accuracy knob.  Each piece inside [-2, 2] has a multiple of 4
steps, and [-L, -2] takes up the rounding.  The error of a step grows like
|lambda|^5, so a run with |lambda| above LAMBDA_REF splits every step in
refinement(lambda) equal parts.  Runs seeded at -L step up the mesh and
runs seeded at +L down it, and stop and sample only at +-L, 0 and the
breaks +-0.5, ..., +-2 between them, which are nodes at every refinement
and lie a whole number of propagators apart; any other end or grid point
is refused.  So every step is a mesh step, and a run's values depend only
on the mesh, its lambda, its seed side and its end point, never on the
batch it rides in; a single run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .asymptotics import InfinitySpectrum, spectrum
from .errors import BadParameter, Overflow, StepFail
from .linalg import _expms
from .model import MultisymplecticModel, WaveFamily, jc

N_REF = 294        # mesh steps on [-L, 0] at tol = 1e-10
MAX_STEPS = 4096   # cap on the steps on [-L, 0]; a tol that needs more is refused
LAMBDA_REF = 10.0  # |lambda| up to which a run steps on the mesh as it is
_BREAKS = (-2.0, -1.5, -1.0, -0.5)   # mesh nodes besides -L and 0 (and their mirror images)
_BLOCK = 4         # steps per propagator in [-2, 2]; each mesh piece there has a multiple of them
_BLOCKED = 6.0     # propagators start at the lowest node from xi = -_BLOCKED up that lies a
                   # multiple of _BLOCK steps below -2, and end at its mirror image
_POWER = 0.25      # the monitor is the field's distance from B_inf to this power
_FLOOR = 0.005     # monitor floor, as a fraction of the monitor's maximum
_FINE = 128        # monitor samples per mesh piece
_EXP_BATCH = 400   # matrices per exponential call: steps times (lambda, direction) groups;
                   # each takes 7 float n x n arrays, held for the task (1.4 MiB at n = 8)
_TABLE_BATCH = 320  # steps per _magnus call, which bounds its temporaries (about 640 KiB at
                    # 320): level 1's [-L, 0] at tol 1e-10 is one call.  tracemalloc peaks of
                    # a report, a scan to lambda = 200 and two large contours read 1.04, 5.29,
                    # 3.64 and 3.19 MiB, against 0.88, 4.74, 3.64 and 3.19 at 64
_OVERFLOW = 1e12
_REVERSIBLE = 1e-12   # field symmetry under R, relative to its largest entry, for reflected w-runs
_SIGNS = np.array([-1.0, 1.0])[:, None, None]   # [[P, -Q], [Q, P]]'s right column from Q over P
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


def _mesh(xs: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """Nodes of the graded mesh on [-L, 0], ascending.

    xs holds _FINE + 1 samples of each piece of [-L, 0] between consecutive
    nodes of -L, _BREAKS and 0, one row a piece from its left end, and f
    the monitor's values there.  Each piece gets its share of the n steps
    by its monitor integral (at least one), placed so that every step
    holds an equal part of it.  A piece inside [-2, 0] gets its share
    rounded to a multiple of _BLOCK (at least _BLOCK), and the piece
    [-L, -2], when L > 2, absorbs the difference (keeping at least one).
    """
    ends = np.append(xs[:, 0], 0.0)
    if not np.all(np.isfinite(f)):
        bad = xs.ravel()[np.argmin(np.isfinite(f).ravel())]
        raise StepFail(f"non-finite matrix field at xi={bad:.4f}")
    top = f.max()
    m = f + _FLOOR * top if top > 0 else np.ones_like(f)
    cum = np.zeros_like(m)
    cum[:, 1:] = np.cumsum(0.5 * (m[:, 1:] + m[:, :-1]) * np.diff(xs, axis=1), axis=1)
    share = n * cum[:, -1] / cum[:, -1].sum()
    steps = np.maximum(1, np.rint(share).astype(int))
    core = ends[:-1] >= _BREAKS[0]
    blocks = _BLOCK * np.maximum(1, np.rint(share[core] / _BLOCK).astype(int))
    if not core[0]:
        steps[0] = max(1, steps[0] + steps[core].sum() - blocks.sum())
    steps[core] = blocks
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
    W_k in [:, k].  The step is time-symmetric, bit for bit: the same
    steps taken backward, _magnus(-h, a[:, ::-1], b), give -W, because a1,
    a3 and b1 change sign exactly, a2 keeps its bits, and a3 sums the end
    nodes first.

    A reversor R (R R = I, R M R = -M, R J(c) R = -J(c), so R b R = b) with
    a field that obeys A0(-xi) = -R A0(xi) R mirrors a step: the step of
    the same length at the mirror image of its Gauss nodes (1 - g_i =
    g_(2-i)) has W_k' = (-1)^(k+1) R W_k R.  There a1 and a3 are -R a1 R and
    -R a3 R, a2 and b1 are R a2 R and R b1 R, and by the time symmetry that
    is the exponent of the step at -lambda, negated, conjugated by R.  The
    sampled field obeys the relation to rounding, so a mirrored row agrees
    with one built from the field to about 5e-16 of its largest entry, and
    most rows to the bit.
    """
    hh = h[:, None, None]
    a1, b1 = hh * a[:, 1], hh * b                         # alpha1 = a1 + lam b1
    a2 = (np.sqrt(15.0) / 3.0) * hh * (a[:, 2] - a[:, 0])
    a3 = (10.0 / 3.0) * hh * ((a[:, 2] + a[:, 0]) - 2.0 * a[:, 1])
    c10, c11 = _commutator(a1, a2), _commutator(b1, a2)   # C1 = c10 + lam c11
    e0 = 2.0 * a3 + c10                                   # 2 alpha3 + C1 = e0 + lam c11
    c20 = _commutator(a1, e0) / -60.0                     # C2 = c20 + lam c21 + lam^2 c22
    c21 = (_commutator(a1, c11) + _commutator(b1, e0)) / -60.0
    c22 = _commutator(b1, c11) / -60.0
    x0, x1 = -20.0 * a1 - a3 + c10, -20.0 * b1 + c11      # -20 alpha1 - alpha3 + C1
    y0 = a2 + c20                                         # alpha2 + C2 = y0 + lam c21 + lam^2 c22
    del e0, c10, c11, a2, c20   # each stack is S x 128 bytes: free them before w's
    w = np.empty((len(h), 4, 4, 4))
    w[:, 0] = a1 + a3 / 12.0 + _commutator(x0, y0) / 240.0
    del a1, a3
    w[:, 1] = b1 + (_commutator(x0, c21) + _commutator(x1, y0)) / 240.0
    w[:, 2] = (_commutator(x0, c22) + _commutator(x1, c21)) / 240.0
    w[:, 3] = _commutator(x1, c22) / 240.0
    return w


def _check_mode(j: int, kind: str):
    if kind not in ("u", "w"):
        raise ValueError("kind must be 'u' or 'w'")
    if j not in (1, 2, 3, 4):
        raise ValueError("mode index j must be 1..4")


def integrate_mode(model: MultisymplecticModel, wave: WaveFamily, c: float,
                   lam: complex, j: int, kind: str = "u", *,
                   tol: float, L: Optional[float] = None,
                   spec: Optional[InfinitySpectrum] = None,
                   out_grid: Optional[np.ndarray] = None,
                   until: float = 0.0) -> RescaledSolution:
    """Integrate one rescaled mode from its decay side to xi = until.

    j is the 1-based mode index.  kind "u" solves with lambda and seeds
    zeta_j; the mode decays as xi -> -infinity for j in {3, 4} (seed at
    -L) and as xi -> +infinity for j in {1, 2} (seed at +L).  kind "w"
    solves with -lambda, seeds eta_j, with the opposite seeding sides; for
    a reversible wave it is R times the u-type run at lambda seeded with
    R eta_j at the other end (see the module docstring), with the same
    step counts and seed point.  until and the points of out_grid must be
    stop nodes: +-L, 0, or one of +-0.5, ..., +-2 inside (-L, L).  This is
    a fresh Stepper's sweep of this one run.
    """
    if spec is None:
        spec = spectrum(model, c, lam)
    return Stepper(model, wave, c, tol=tol, L=L).run([(lam, spec, j, kind, until, out_grid)])[0]


@dataclass
class _Level:
    """The mesh of one refinement level and its one ascending W table.

    Row k of w holds the W_k of step k up the mesh, [x[k], x[k+1]]; w is
    allocated for the whole mesh.  Rows [0, built) are built, from the
    bottom up: up-runs read rows from the bottom, and down-runs, which read
    them from the top, need the whole table.  On a reversible wave with a
    diagonal R the rows of [0, L] among them are mirrored from those of
    [-L, 0] (see Stepper._build), which are then all built.  The core
    [-2, 2] is steps [outer, nsteps - outer), a multiple of _BLOCK steps
    from each of its nodes to the next.  Steps [blocked, nsteps - blocked) are stepped in
    propagators of _BLOCK steps, counted on this level's mesh: blocked is
    the lowest step from xi = -_BLOCKED up that lies a multiple of _BLOCK
    steps below outer.  The steps outside, the far field, are stepped one at
    a time.
    """

    x: np.ndarray
    w: np.ndarray
    built: int
    outer: int
    blocked: int


class Stepper:
    """The mesh and W table of one (model, wave, c, tol, L), for any number of sweeps.

    None of it depends on lambda.  The mesh is built by the first sweep with
    runs, and the field's samples that grade it decide once whether the wave
    is reversible, in which case every sweep steps its w-runs as reflected
    u-runs, in their lambda's u-runs' direction: determinant runs to 0 then
    all step up the mesh and build the table of [-L, 0] alone, with one
    exponential per lambda and step.  Each refinement level has one W table
    for steps up the mesh; a step down it is the same step backward, whose
    exponent is -W to the bit (see _magnus), so down-runs read the table
    from the top with their powers of lambda negated.  The table is built in
    one direction, from the bottom up: as far as a sweep's up-runs step, and
    whole when the sweep has a down-run; on a reversible wave with a
    diagonal R, _magnus builds the rows of [-L, 0] and the rows above 0 are
    their mirror images (see _magnus), so a report's tangent pair to +2 and
    the wedge's down-runs make one _magnus call on level 1.  The stepper
    holds level 1, on which every run with |lambda| up to LAMBDA_REF steps,
    for all its sweeps, and a later sweep that steps further extends its
    table (in no task of the package would building from the top as well
    save a row).  A refined level is built for its own sweep and dropped
    after it, so the many levels of large |lambda| never pile up; levels are
    swept in ascending order.  A table row is the same array whichever sweep
    built it, so a run gives the same bits on a stepper that has swept
    before as on a fresh one.  The stepper also holds the float buffers that
    its exponentials are computed in, sized for one chunk of _EXP_BATCH
    matrices, so that a task does not allocate them afresh per chunk; a
    chunk's groups, real and complex lambda alike, go to one _expms call.  A
    sweep's loop steps every run through one 4x4 product per propagator of
    _BLOCK steps, on the core and out to about xi = -+_BLOCKED, and one per
    step in the far field beyond; the mesh and its nodes do not depend on
    that grouping.
    """

    def __init__(self, model: MultisymplecticModel, wave: WaveFamily, c: float,
                 tol: float, L: Optional[float] = None):
        self.model, self.wave, self.c, self.tol = model, wave, c, tol
        self.L = float(L) if L is not None else wave.default_L(c)
        self.n = mesh_steps(tol)
        self.jinv = np.linalg.inv(jc(model, c))
        self.bmat = -(self.jinv @ model.M)   # the coefficient of lambda in A
        self._bufs = {}     # the exponentials' held buffers, see _buffer

    def _field(self, xi: np.ndarray) -> np.ndarray:
        """J^-1 hessS(zhat(xi)) on an array of xi, (xi.size, 4, 4)."""
        z = self.wave.zhat(xi, self.c)
        return np.broadcast_to(self.jinv @ self.model.hessS(z), (xi.size, 4, 4))

    @cached_property
    def _half(self) -> tuple:
        # the nodes of the mesh on [-L, 0], and whether w-runs step as
        # reflected u-runs: the model has a reversor R and, on the monitor's
        # samples, J^-1 hessS(zhat(-xi)) = -R J^-1 hessS(zhat(xi)) R to
        # _REVERSIBLE times the field's largest entry
        jb, rev = self.jinv @ self.model.binf(), self.model.R
        ends = np.array([-self.L, *(b for b in _BREAKS if b > -self.L), 0.0])
        xs = ends[:-1, None] + np.diff(ends)[:, None] * np.linspace(0.0, 1.0, _FINE + 1)
        xi = xs.ravel()
        f = self._field(xi)
        monitor = np.linalg.norm(f - jb, axis=(1, 2)).reshape(xs.shape) ** _POWER
        left = _mesh(xs, monitor, self.n)
        if rev is None:
            return left, False
        # R f R as two 2-D products, each sample's rows side by side in the
        # second: rows indexed by a matrix row, columns by (sample, column)
        fr = (f.reshape(-1, 4) @ rev).reshape(f.shape).transpose(1, 0, 2).reshape(4, -1)
        back = self._field(-xi).transpose(1, 0, 2).reshape(4, -1)
        gap = np.abs(back + rev @ fr).max()   # NaN fails the check
        return left, bool(gap <= _REVERSIBLE * np.abs(f).max())

    @cached_property
    def _mirror(self) -> Optional[np.ndarray]:
        # the factors (-1)^(k+1) r_i r_j that take entry [i, j] of a row's W_k
        # to the mirrored row's (see _magnus), when the wave is reversible and
        # R is diagonal, r = diag(R), as the coupled wave's diag(1, -1, -1, 1);
        # None otherwise, and _build builds every row from the field
        rev = self.model.R
        if not self._half[1] or np.count_nonzero(rev - np.diag(np.diag(rev))):
            return None
        r = np.diag(rev)
        return np.array([-1.0, 1.0, -1.0, 1.0])[:, None, None] * np.outer(r, r)

    def _buffer(self, key, shape, dtype=float) -> np.ndarray:
        # a contiguous array of this shape on a buffer held for the stepper's
        # task, grown when a sweep needs more.  A chunk of the sweep takes at
        # most _EXP_BATCH exponentials, or _BLOCK steps of every group when
        # they are more
        size = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            buf = self._bufs[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def _exponentials(self, parts, powers: np.ndarray, real: bool, block: int = 1) -> np.ndarray:
        """exp(W0 + lam W1 + lam^2 W2 + lam^3 W3) for S steps and G groups, or their block products.

        parts holds triples (w, a, b): the W_k of S steps, (S, 4, 4, 4), and
        the slice [a, b) of the groups that take them.  powers holds 1, lam,
        lam^2, lam^3 per group, (G, 4) complex.  Every group takes one
        exponent form, in one stack to _expms on the stepper's buffers (an
        exponent stack and _expms' six temporaries, on one float buffer).
        When real is true every lambda is real, and a group's exponent is
        the real 4x4 sum of W_k weighted by its powers.  Otherwise each
        group's real and imaginary sums P and Q are written into the blocks
        of the real 8x8 form [[P, -Q], [Q, P]], whose exponential holds Re
        exp and Im exp in its left column of blocks; a real group's Q is
        zero, and its exact zero blocks give Re exp the bits of its 4x4
        form.  block is 1 or _BLOCK: with _BLOCK, S is a multiple of it and
        each group's exponentials E1..E4 of 4 consecutive steps are
        multiplied into one propagator (E4 E3)(E2 E1) in the real form; an
        overflow there gives a non-finite entry, without a warning.
        Returns an (S / block, G, 4, 4) complex array, on a buffer that the
        next call overwrites.
        """
        steps, ngroups = len(parts[0][0]), len(powers)
        n = 4 if real else 8
        work = self._buffer("work", (7, steps * ngroups, n, n))
        omega = work[0].reshape(steps, ngroups, n, n)
        # each group's sums, Re (and Im) in one contiguous stack: summed in
        # place in the 8x8 blocks they run 2.5 times slower.  In the 8x8
        # form they go to a temporary of _expms, then into the blocks
        c = powers[:, None].real if real else np.stack((powers.real, powers.imag), axis=1)
        sums = (omega if real else work[-1]).reshape(-1)[:steps * ngroups * n * 4]
        sums = sums.reshape(steps, ngroups, n // 4, 4, 4)
        for w, a, b in parts:
            sub, cs = sums[:, a:b], c[a:b]
            np.multiply(w[:, None, None, 0], cs[:, :, 0, None, None], out=sub)
            for k in (1, 2, 3):
                sub += w[:, None, None, k] * cs[:, :, k, None, None]
        if not real:
            blocks = omega.reshape(steps, ngroups, 2, 4, 2, 4)
            blocks[..., 0, :] = sums   # P over Q
            np.multiply(sums[:, :, ::-1], _SIGNS, out=blocks[..., 1, :])   # -Q over P
        e = _expms(work[0], work[1:]).reshape(omega.shape)
        if block == _BLOCK:
            q = e.reshape(steps // 4, 4, ngroups, n, n)
            with np.errstate(over="ignore", invalid="ignore"):
                e = (q[:, 3] @ q[:, 2]) @ (q[:, 1] @ q[:, 0])
        out = self._buffer("out", (steps // block, ngroups, 4, 4), complex)
        out.real = e[..., :4, :4]
        out.imag = 0.0 if real else e[..., 4:, :4]
        return out

    @cached_property
    def _stops(self) -> frozenset:
        # the nodes where runs may stop and sample: +-L, 0 and the breaks inside
        inner = [b for b in _BREAKS if b > -self.L]
        return frozenset([-self.L, self.L, 0.0, *inner, *(-b for b in inner)])

    def run(self, runs) -> list:
        """Every run of a flat run list in one sweep, one RescaledSolution per run, in order.

        Each run is (lam, spec, j, kind, until, grid): the spectral point,
        its spectrum at infinity, the mode as in integrate_mode, the end
        point in [-L, L], and a grid or None.  A grid runs from the seed
        toward the end point and must lie between them.  End and grid
        points must be stop nodes: +-L, 0, or one of +-0.5, ..., +-2 inside
        (-L, L).  Any other point, mesh nodes between them included, raises
        ValueError before a step is taken.  Runs of
        different lambda values, modes, end points and grids mix freely.  A
        run with |lambda| above LAMBDA_REF steps on the mesh with every
        step split refinement(lambda) times.  On a reversible wave a w-run
        is stepped as a reflected u-run at lambda (see the module docstring)
        and reported as the w-run: its seed point, step counts, end and grid
        values, and the xi that a StepFail or Overflow names.  Each
        solution equals what integrate_mode returns for that run alone.
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
            # a refined level lives only in the call, so the next one's table
            # is allocated after this one's is freed
            sols = self._sweep(self._base if r == 1 else self._level(r), [runs[m] for m in idx])
            for m, sol in zip(idx, sols):
                out[m] = sol
        return out

    def _level(self, r: int) -> _Level:
        # the symmetric mesh of [-L, L] with every step split in r, and its
        # table, none of it built
        left = self._half[0]
        sub = left[:-1, None] + np.diff(left)[:, None] * (np.arange(r) / r)
        half = np.append(sub.ravel(), left[-1])
        x = np.concatenate([half, -half[-2::-1]])
        outer = r * int(np.searchsorted(left, _BREAKS[0]))
        far = outer - int(np.searchsorted(half, -_BLOCKED))   # steps from -_BLOCKED to -2
        return _Level(x, np.empty((len(x) - 1, 4, 4, 4)), 0, outer,
                      outer - _BLOCK * (far // _BLOCK))

    @cached_property
    def _base(self) -> _Level:
        # level 1, held for every sweep
        return self._level(1)

    def _build(self, level: _Level, upto: int):
        # rows [built, upto) of level's table.  _magnus builds them in calls
        # of _TABLE_BATCH steps, to bound its temporaries.  With _mirror it
        # builds only the rows of [-L, 0], and row k >= nsteps / 2 is row
        # nsteps - 1 - k mirrored (see _magnus), which those rows precede
        x, w = level.x, level.w
        h = np.diff(x)
        nsteps = len(h)
        half = nsteps if self._mirror is None else nsteps // 2
        for k0 in range(level.built, min(upto, half), _TABLE_BATCH):
            k1 = min(k0 + _TABLE_BATCH, upto, half)
            a = self._field((x[k0:k1, None] + _GAUSS * h[k0:k1, None]).ravel())
            w[k0:k1] = _magnus(h[k0:k1], a.reshape(-1, 3, 4, 4), self.bmat)
        k0 = max(level.built, half)
        if k0 < upto:
            np.multiply(w[nsteps - upto:nsteps - k0][::-1], self._mirror, out=w[k0:upto])
        level.built = max(level.built, upto)

    def _sweep(self, level: _Level, runs) -> list:
        """The RescaledSolutions of runs on one refinement level, stepped on its mesh in one loop.

        The loop takes one iteration per propagator of _BLOCK steps from
        step level.blocked to its mirror image, and one per step in the far
        field outside (see _Level).  Exponential chunks end at those two
        steps and at +-2, so a run's norm is still checked at +-2 and at its
        stop node, whatever batch it rides in.
        """
        x, w = level.x, level.w
        h = np.diff(x)
        nsteps = len(h)
        nrun = len(runs)
        rev = self.model.R if self._half[1] else None
        # per run, in the coordinate t = d xi along its direction of travel
        # d = +1 (seeded at -L) or -1 (seeded at +L), in which its nodes are x
        kappa = np.empty(nrun, complex)   # exp(kappa h) is the rescaling factor of a step h in t
        seed = np.empty((nrun, 4), complex)
        dirs = np.empty(nrun, int)
        flip = np.zeros(nrun, bool)       # a w-run stepped as a reflected u-run
        group = np.empty(nrun, int)
        stop = np.empty(nrun, int)        # node a run stops at: the mesh steps it takes
        groups = {}                       # (direction stepped, lambda in the equation) -> group
        at_node = {}                      # node -> [(run, grid index)]
        out_vals = []
        for m, (lam, spec, j, kind, end, grid) in enumerate(runs):
            sigma, lam_ode = (1, complex(lam)) if kind == "u" else (-1, -complex(lam))
            d = -1 if (j in (3, 4)) == (kind == "w") else 1
            seed[m] = spec.zeta[j - 1] if kind == "u" else spec.eta[j - 1]
            kappa[m] = -sigma * d * spec.mu[j - 1]
            dirs[m] = gd = d
            flip[m] = kind == "w" and rev is not None
            if flip[m]:
                # w(xi) = R v(-xi) for the u-type run v at lambda seeded with
                # R eta_j at the other end: at each t it has the w-run's node
                # and kappa, and it steps in the u-runs' direction and group
                seed[m] = rev @ seed[m]
                gd, lam_ode = -d, complex(lam)
            key = (gd, complex(lam_ode.real + 0.0, lam_ode.imag + 0.0))
            group[m] = groups.setdefault(key, len(groups))
            pts = [*([] if grid is None else [float(g) * d for g in grid]), float(end) * d]
            off = [t for t in pts if t not in self._stops]
            if off:
                raise ValueError(f"xi={d * off[0]!r} is not a stop node: runs stop and sample "
                                 "only at +-L, 0 and +-0.5, ..., +-2 inside them")
            at = np.searchsorted(x, pts)
            if pts != sorted(pts):
                raise ValueError("grid not monotone from the seed to the end point")
            stop[m] = at[-1]
            for i, k in enumerate(at[:-1]):
                at_node.setdefault(int(k), []).append((m, i))
            out_vals.append(None if grid is None else np.empty((len(pts) - 1, 4), complex))

        # the groups ordered up, then down, so that in any subset those
        # taking one table are a slice.  Their 1, lambda, lambda^2, lambda^3
        # as Python complex products, negated for a down group, which reads
        # the table backward
        keys = sorted(groups, key=lambda key: -key[0])
        rank = np.empty(len(keys), int)
        rank[[groups[key] for key in keys]] = np.arange(len(keys))
        group = rank[group]
        dir_g = np.array([d for d, _ in keys])
        complex_g = np.array([lam.imag != 0.0 for _, lam in keys])
        powers = np.array([[1.0, lam, lam * lam, lam * lam * lam] for _, lam in keys])
        powers[dir_g < 0] = -powers[dir_g < 0]
        named = np.full(len(groups), -1)   # the direction whose xi a group's StepFail names:
        np.maximum.at(named, group, dirs)  # its runs' own, and up where they go both ways
        last = np.zeros(len(groups), int)   # steps of each group's longest run
        np.maximum.at(last, group, stop)
        self._build(level, nsteps if np.any(dir_g < 0) else last.max())

        # the runs in order of their stop node, latest first, so the runs
        # still stepping are always the first ones
        order = np.argsort(-stop, kind="stable")
        place = np.empty(nrun, int)
        place[order] = np.arange(nrun)
        stops, group, kappa = stop[order], group[order], kappa[order]
        ends = stops.tolist()
        v = seed[order]
        for m, i in at_node.get(0, []):
            out_vals[m][i] = v[place[m]]

        core = (level.outer, nsteps - level.outer)
        edges = (level.blocked, *core, nsteps - level.blocked, nsteps)   # where chunks end
        k0 = 0
        while k0 < ends[0]:
            # exponentials for the groups with a step left, in this order, up
            # to the first step at which one of them has none left, and from
            # step blocked to nsteps - blocked multiplied into propagators of
            # _BLOCK steps.  Stop and sample nodes there lie a multiple of
            # _BLOCK steps apart, and so do the edges.  Every chunk spans a
            # multiple of _BLOCK steps, so the far field's single steps need
            # no larger buffers than the propagators
            act = np.flatnonzero(last > k0)
            span = _BLOCK * max(1, _EXP_BATCH // (_BLOCK * act.size))
            block = _BLOCK if edges[0] <= k0 < edges[3] else 1
            limit = next(e for e in edges if e > k0)
            k1 = min(k0 + span, limit, last[act].min())
            up = int(np.count_nonzero(dir_g[act] > 0))
            parts = [part for part in ((w[k0:k1], 0, up),
                                       (w[nsteps - k1:nsteps - k0][::-1], up, act.size))
                     if part[1] < part[2]]
            e = self._exponentials(parts, powers[act], not complex_g[act].any(), block)
            if not np.isfinite(e.view(float)).all():   # one flat test, then the first bad step
                s, g = np.argwhere(~np.isfinite(e.view(float)).all(axis=(2, 3)))[0]
                raise StepFail(f"non-finite exponent at xi={named[act[g]] * x[k0 + block * s]:.4f}")
            # the runs still stepping are a prefix of v, stepped as one array
            # that sheds its last runs at their stop node.  Each step gathers
            # its exponentials by run: one copy of the whole chunk's per run
            # doubled a contour task's page faults
            live = n = int(np.count_nonzero(stops > k0))
            row = (np.cumsum(last > k0) - 1)[group[:live]]   # each run's group's place in act
            shift = np.exp(np.multiply.outer(x[k0 + block:k1 + 1:block] - x[k0:k1:block],
                                             kappa[:live]))
            cur = v[:live]
            with np.errstate(over="ignore", invalid="ignore"):   # overflows are found below
                for i, k in enumerate(range(k0, k1, block)):
                    while ends[n - 1] <= k:
                        n -= 1
                    if n < len(cur):
                        v[n:len(cur)] = cur[n:]
                        cur, row = cur[:n], row[:n]
                    cur = np.matmul(e[i, row], cur[:, :, None])[..., 0]
                    cur *= shift[i, :n, None]
                    for m, j in at_node.get(k + block, []):
                        out_vals[m][j] = cur[place[m]]
            v[:len(cur)] = cur
            # a run's norm is checked only at nodes that do not depend on its
            # batch: its stop node, and t = -2 and 2, where chunks always end.
            # The first such node with a run over the bound names the xi.  A
            # flat test of every run clears the chunk first (a NaN fails it)
            if not abs(v[:live]).max() <= _OVERFLOW:
                over = ((stops[:live] <= k1) | (k1 in core)) \
                    & ~(np.abs(v[:live]).max(axis=1) <= _OVERFLOW)
                if over.any():
                    at = np.minimum(stops[:live], k1)[over]
                    node, m = min(zip(at.tolist(), order[:live][over].tolist()))
                    raise Overflow(f"mode norm exceeded {_OVERFLOW:.0e} "
                                   f"by xi={dirs[m] * x[node]:.3f}")
            k0 = k1

        v = v[place]   # the end values by run, a reflected run's taken back by R
        if rev is not None:
            v[flip] = v[flip] @ rev.T
            for m in np.flatnonzero(flip):
                if out_vals[m] is not None:
                    out_vals[m] = out_vals[m] @ rev.T
        hmin = np.concatenate([[np.inf], np.minimum.accumulate(np.abs(h))])
        return [RescaledSolution(xi_seed=float(-dirs[m] * x[-1]), value_at_end=v[m],
                                 grid=runs[m][5], values=out_vals[m],
                                 nsteps=int(stop[m]), nrejected=0, h_min=float(hmin[stop[m]]))
                for m in range(nrun)]
