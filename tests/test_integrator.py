"""Mode integration: seeding layout, rescaled dynamics, dense output, failure paths."""

import numpy as np
import pytest

from evanskit.asymptotics import spectrum
from evanskit.errors import Overflow, StepFail
from evanskit.evans import Numerics, _det_runs
from evanskit.integrator import _dopri5, integrate_mode, integrate_modes
from evanskit.invariants import _tangent_pair
from evanskit.model import (
    CANONICAL_K,
    CANONICAL_M,
    MultisymplecticModel,
    WaveFamily,
    build_coupled_wave,
    jc,
    oracle_coupled_wave,
)


def _coupled(p=1.0):
    return build_coupled_wave(p)


def test_seed_matches_boundary_value():
    model, wave = _coupled()
    c = 0.0
    L = wave.default_L(c)
    s = spectrum(model, c, 0.0)
    # u-runs with j in {3,4} start at -L from zeta_j; w-runs with j in {3,4}
    # start at +L from eta_j.  The rescaled value at the seed point is the seed.
    u3 = integrate_mode(model, wave, c, 0.0, 3, "u", spec=s,
                        out_grid=np.linspace(-L, 0.0, 5))
    assert np.max(np.abs(u3.values[0] - s.zeta[2])) <= 1e-12
    assert u3.xi_seed == -L
    w4 = integrate_mode(model, wave, c, 0.0, 4, "w", spec=s,
                        out_grid=np.linspace(L, 0.0, 5))
    assert np.max(np.abs(w4.values[0] - s.eta[3])) <= 1e-12
    assert w4.xi_seed == L
    # j in {1,2} seed on the opposite side
    u1 = integrate_mode(model, wave, c, 0.0, 1, "u", spec=s)
    assert u1.xi_seed == L
    w2 = integrate_mode(model, wave, c, 0.0, 2, "w", spec=s)
    assert w2.xi_seed == -L


def _frozen():
    # the coupled wave's hessian frozen at its rest value, one 4x4 matrix for
    # any input, on a zero profile
    binf = _coupled()[0].binf()
    frozen = MultisymplecticModel(CANONICAL_M, CANONICAL_K,
                                  lambda z: binf @ z, lambda z: binf)
    zero = lambda xi, c: np.zeros(4)
    return frozen, WaveFamily(zhat=zero, zhat_xi=zero, zhat_c=zero,
                              decay_rate=lambda c: 2.0)


def test_frozen_coefficients_leave_seed_invariant():
    # with the hessian frozen at its rest value the rescaled mode equation is
    # v' = (A_inf - mu_j) v and the eigenvector seed is a fixed point
    frozen, fwave = _frozen()
    s = spectrum(frozen, 0.0, 0.7)
    for j, kind in ((1, "u"), (2, "u"), (3, "u"), (4, "w")):
        r = integrate_mode(frozen, fwave, 0.0, 0.7, j, kind, spec=s)
        seed = s.zeta[j - 1] if kind == "u" else s.eta[j - 1]
        assert np.max(np.abs(r.value_at_end - seed)) <= 1e-8


def test_unstable_direction_is_wave_tangent():
    # the j=3 mode continued from -infinity at lambda=0 lies along Zhat_xi
    for c in (0.0, 0.3, -0.3):
        model, wave = _coupled()
        u3 = integrate_mode(model, wave, c, 0.0, 3, "u")
        v = u3.value_at_end
        t = wave.zhat_xi(0.0, c)
        cos = abs(np.vdot(v, t)) / (np.linalg.norm(v) * np.linalg.norm(t))
        assert 1.0 - cos <= 1e-8
        assert np.max(np.abs(v.imag)) <= 1e-12 * np.max(np.abs(v.real))


def test_fast_modes_match_scattering_solutions():
    for p, c in ((1.0, 0.0), (1.5, 0.3)):
        model, wave = _coupled(p)
        o = oracle_coupled_wave(p, c)
        s = spectrum(model, c, 0.0)
        u4 = integrate_mode(model, wave, c, 0.0, 4, "u", spec=s)
        v = u4.value_at_end.real
        a = o.a_minus(0.0)
        assert 1.0 - abs(np.dot(v, a)) / (np.linalg.norm(v) * np.linalg.norm(a)) <= 1e-8
        w4 = integrate_mode(model, wave, c, 0.0, 4, "w", spec=s)
        v = w4.value_at_end.real
        a = o.a_plus(0.0)
        assert 1.0 - abs(np.dot(v, a)) / (np.linalg.norm(v) * np.linalg.norm(a)) <= 1e-8


def test_same_index_pairing_constant_along_xi():
    # Omega(w_j(xi), u_j(xi)) inherits xi-independence from the adjoint pairing;
    # the rescaling exponentials cancel exactly for matching indices
    model, wave = _coupled()
    c, lam = 0.3, 0.9
    s = spectrum(model, c, lam)
    L = wave.default_L(c)
    pts = np.linspace(-4.0, 4.0, 9)
    gm = np.unique(np.concatenate([np.linspace(-L, -4.0, 31), pts]))
    gp = np.unique(np.concatenate([pts, np.linspace(4.0, L, 31)]))[::-1]
    J = jc(model, c)
    for j in (3, 4):
        u = integrate_mode(model, wave, c, lam, j, "u", spec=s, out_grid=gm, until=4.0)
        w = integrate_mode(model, wave, c, lam, j, "w", spec=s, out_grid=gp, until=-4.0)
        vals = []
        for xi in pts:
            iu = int(np.argmin(np.abs(u.grid - xi)))
            iw = int(np.argmin(np.abs(w.grid - xi)))
            assert abs(u.grid[iu] - xi) <= 1e-12 and abs(w.grid[iw] - xi) <= 1e-12
            vals.append((J @ w.values[iw]) @ u.values[iu])
        vals = np.asarray(vals)
        assert np.std(vals) / abs(np.mean(vals)) <= 1e-6


def test_tangent_pair_crossing_is_grid_independent():
    # Omega(a_minus, a_plus) evaluated from the two j=4 continuations must not
    # depend on the matching point
    for p, sign in ((1.0, 1.0), (2.0, -1.0)):
        model, wave = _coupled(p)
        c = 0.0
        s = spectrum(model, c, 0.0)
        L = wave.default_L(c)
        pts = np.linspace(-2.0, 2.0, 9)
        gm = np.unique(np.concatenate([np.linspace(-L, -2.0, 21), pts]))
        gp = np.unique(np.concatenate([pts, np.linspace(2.0, L, 21)]))[::-1]
        mi = integrate_mode(model, wave, c, 0.0, 4, "u", spec=s, out_grid=gm, until=2.0)
        pl = integrate_mode(model, wave, c, 0.0, 4, "w", spec=s, out_grid=gp, until=-2.0)
        J = jc(model, c)
        vals = []
        for xi in pts:
            im = int(np.argmin(np.abs(mi.grid - xi)))
            ip = int(np.argmin(np.abs(pl.grid - xi)))
            vals.append(((J @ mi.values[im]) @ pl.values[ip]).real)
        vals = np.asarray(vals)
        m = float(np.mean(vals))
        assert np.std(vals) / abs(m) <= 1e-6
        assert np.sign(m) == sign


def test_domain_truncation_converged():
    model, wave = _coupled()
    s = spectrum(model, 0.0, 0.0)
    a = integrate_mode(model, wave, 0.0, 0.0, 4, "u", spec=s).value_at_end
    b = integrate_mode(model, wave, 0.0, 0.0, 4, "u", spec=s, L=40.0).value_at_end
    assert np.max(np.abs(a - b)) <= 1e-8


def test_tolerance_consistency():
    model, wave = _coupled()
    s = spectrum(model, 0.0, 0.9)
    a = integrate_mode(model, wave, 0.0, 0.9, 3, "u", spec=s, tol=1e-8).value_at_end
    b = integrate_mode(model, wave, 0.0, 0.9, 3, "u", spec=s, tol=1e-11).value_at_end
    assert np.max(np.abs(a - b)) <= 1e-8


def test_dense_output_consistent_at_zero():
    model, wave = _coupled()
    L = wave.default_L(0.0)
    g = np.linspace(-L, 0.0, 7)
    r = integrate_mode(model, wave, 0.0, 0.0, 3, "u", out_grid=g)
    assert np.max(np.abs(r.values[-1] - r.value_at_end)) <= 1e-14
    # a run carried past xi = 0 samples its interpolant on the far side too,
    # in agreement with a run that stops at the sample point
    s = spectrum(model, 0.0, 0.5)
    g = np.array([-3.0, -1.0, 1.0, 2.0])
    r = integrate_mode(model, wave, 0.0, 0.5, 4, "u", spec=s, out_grid=g, until=2.0)
    stop = integrate_mode(model, wave, 0.0, 0.5, 4, "u", spec=s, until=1.0)
    assert np.max(np.abs(r.values[2] - stop.value_at_end)) <= 1e-8
    assert np.array_equal(r.values[-1], r.value_at_end)


def _scalar_field(coef):
    # A(x) = coef(x) I on a batch of one-dimensional runs: (S, N) -> (S, N, 1, 1)
    def amat(x):
        return np.asarray(coef(x), dtype=float)[..., None, None] * np.eye(1)
    return amat


def test_overflow_guard():
    with pytest.raises(Overflow):
        _dopri5(_scalar_field(np.ones_like), np.array([0.0]), np.array([40.0]),
                np.array([[1.0 + 0j]]), 1e-8, None)


def test_step_collapse_on_discontinuity():
    with pytest.raises(StepFail):
        _dopri5(_scalar_field(lambda x: np.sign(0.5 - x)),
                np.array([0.0]), np.array([1.0]), np.array([[1.0 + 0j]]), 1e-10, None)


def test_step_collapse_on_nan_rhs():
    # a matrix field that is NaN on row 0 rejects every step of that row
    # until its step size collapses; the finite row next to it does not keep
    # the loop alive
    def coef(x):
        a = np.ones_like(x)
        a[:, 0] = np.nan
        return a

    with pytest.raises(StepFail):
        _dopri5(_scalar_field(coef), np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                np.array([[1.0 + 0j], [1.0 + 0j]]), 1e-8, None)


def test_matrix_field_evaluated_once_per_step():
    # one call for the first stage, then one per loop iteration on all five
    # distinct stage abscissae; the loop runs until the longest row is done
    shapes = []
    field = _scalar_field(lambda x: np.cos(3.0 * x))

    def amat(x):
        shapes.append(x.shape)
        return field(x)

    x0, x1 = np.array([0.0, 2.0]), np.array([2.0, -1.0])
    y, _, stats = _dopri5(amat, x0, x1, np.array([[1.0 + 0j], [1.0 + 0j]]), 1e-8, None)
    iterations = max(s.accepted + s.rejected for s in stats)
    assert len(shapes) == 1 + iterations
    assert shapes[0] == (1, 2) and set(shapes[1:]) == {(5, 2)}
    # y' = cos(3x) y has the closed form exp((sin(3 x1) - sin(3 x0)) / 3)
    exact = np.exp((np.sin(3.0 * x1) - np.sin(3.0 * x0)) / 3.0)
    assert np.max(np.abs(y[:, 0] - exact)) <= 1e-6


def test_constant_hessian_batch_equals_singletons():
    # a hessS that returns one 4x4 matrix for any input is broadcast to the
    # stage stack: a mixed-lambda batch of u and w runs equals each run alone
    frozen, fwave = _frozen()
    c = 0.2
    modes = ((1, "u"), (3, "u"), (2, "w"), (4, "w"))
    runs = [(lam, spectrum(frozen, c, lam), j, kind, 0.0, None)
            for lam in (0.7, 1.3 + 0.4j) for j, kind in modes]
    runs.append((0.7, runs[0][1], 3, "u", 1.0, np.linspace(-20.0, 1.0, 6)))
    batch = integrate_modes(frozen, fwave, c, runs, tol=1e-9)
    for (lam, spec, j, kind, until, grid), b in zip(runs, batch):
        a = integrate_mode(frozen, fwave, c, lam, j, kind, tol=1e-9, spec=spec,
                           out_grid=grid, until=until)
        assert np.array_equal(a.value_at_end, b.value_at_end)
        assert a.stats == b.stats and a.nsteps > 0
        if grid is not None:
            assert np.array_equal(a.values, b.values)


def test_batched_runs_keep_their_own_steps():
    # a batch of runs in opposite directions, with different lambda values,
    # reproduces every run made alone, steps included
    model, wave = _coupled()
    c, lams = 0.3, (0.4, 1.1 + 0.3j)
    modes = ((3, "u"), (4, "w"), (1, "u"))
    runs = [(lam, spectrum(model, c, lam), j, kind, 0.0, None)
            for lam in lams for j, kind in modes]
    batch = integrate_modes(model, wave, c, runs, tol=1e-9)
    for (lam, _, j, kind, _, _), b in zip(runs, batch):
        a = integrate_mode(model, wave, c, lam, j, kind, tol=1e-9)
        assert np.array_equal(a.value_at_end, b.value_at_end)
        assert a.stats == b.stats and a.nsteps > 0 and a.h_min > 0


def test_mixed_run_list_equals_runs_alone():
    # determinant runs ending at 0 and the lambda = 0 tangent pair, which ends
    # at +-2 with dense grids, in one call: each run equals the run made alone
    model, wave = _coupled()
    c, nm = 0.3, Numerics(tol=1e-9)
    lams = [0.0, 0.7, 3.0]
    specs = [spectrum(model, c, lam) for lam in lams]
    runs = _det_runs(lams, specs) + _tangent_pair(specs[0])
    batch = integrate_modes(model, wave, c, runs, tol=nm.tol)
    assert [r.grid is not None for r in batch] == [False] * 12 + [True] * 2
    for (lam, spec, j, kind, until, grid), b in zip(runs, batch):
        a = integrate_mode(model, wave, c, lam, j, kind, tol=nm.tol, spec=spec,
                           out_grid=grid, until=until)
        assert np.array_equal(a.value_at_end, b.value_at_end)
        assert a.stats == b.stats and a.xi_seed == b.xi_seed
        if grid is not None:
            assert np.array_equal(a.values, b.values) and a.grid is b.grid is grid


def test_tangent_pair_golden_bits():
    # end values of the lambda = 0 tangent pair at p = 1, c = 0.3 as float.hex,
    # with their step counts: Pi rests on them, and they must keep every bit
    model, wave = build_coupled_wave(1.0)
    nm = Numerics()
    spec = spectrum(model, 0.3, 0.0)
    minus, plus = integrate_modes(model, wave, 0.3, _tangent_pair(spec),
                                  tol=nm.tol, L=nm.L)
    want = (
        (["-0x1.b14da2bb22628p-10", "0x1.b70f3ca7d2aecp-11",
          "-0x1.d28030724fd98p-9", "-0x1.b14da2bb22628p-11"], (536, 12)),
        (["0x1.97312f1c19bfep-9", "0x1.9c99fc3174d6ap-10",
          "-0x1.b6639bf48c240p-8", "0x1.97312f1c19bfep-10"], (595, 12)),
    )
    for sol, (re, steps) in zip((minus, plus), want):
        assert [float(v.real).hex() for v in sol.value_at_end] == re
        assert [float(v.imag).hex() for v in sol.value_at_end] == ["0x0.0p+0"] * 4
        assert (sol.nsteps, sol.nrejected) == steps
    assert minus.h_min.hex() == (0.0006957383375383319).hex()
    assert plus.h_min.hex() == (0.005534137142400919).hex()
