"""Mode integration: seeding layout, rescaled dynamics, dense output, failure paths."""

import dataclasses

import numpy as np
import pytest

from evanskit.asymptotics import spectra, spectrum
from evanskit.errors import BadParameter, Overflow, StepFail
from evanskit.evans import (CONTOUR_TOL, Numerics, _det_runs, _rect_path, evans_det, evans_dets,
                            evans_wedge, real_axis_scan, winding_count)
from evanskit import integrator
from evanskit.integrator import _GAUSS, Stepper, _magnus, integrate_mode, mesh_steps, refinement
from evanskit.invariants import _tangent_pair, pi_profile, stability_report
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
    u3 = integrate_mode(model, wave, c, 0.0, 3, "u", tol=1e-10, spec=s,
                        out_grid=np.array([-L, -2.0, -1.0, -0.5, 0.0]))
    assert np.max(np.abs(u3.values[0] - s.zeta[2])) <= 1e-12
    assert u3.xi_seed == -L
    w4 = integrate_mode(model, wave, c, 0.0, 4, "w", tol=1e-10, spec=s,
                        out_grid=np.array([L, 2.0, 1.0, 0.5, 0.0]))
    assert np.max(np.abs(w4.values[0] - s.eta[3])) <= 1e-12
    assert w4.xi_seed == L
    # j in {1,2} seed on the opposite side
    u1 = integrate_mode(model, wave, c, 0.0, 1, "u", tol=1e-10, spec=s)
    assert u1.xi_seed == L
    w2 = integrate_mode(model, wave, c, 0.0, 2, "w", tol=1e-10, spec=s)
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
        r = integrate_mode(frozen, fwave, 0.0, 0.7, j, kind, tol=1e-10, spec=s)
        seed = s.zeta[j - 1] if kind == "u" else s.eta[j - 1]
        assert np.max(np.abs(r.value_at_end - seed)) <= 1e-8


def test_unstable_direction_is_wave_tangent():
    # the j=3 mode continued from -infinity at lambda=0 lies along Zhat_xi
    for c in (0.0, 0.3, -0.3):
        model, wave = _coupled()
        u3 = integrate_mode(model, wave, c, 0.0, 3, "u", tol=1e-10)
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
        u4 = integrate_mode(model, wave, c, 0.0, 4, "u", tol=1e-10, spec=s)
        v = u4.value_at_end.real
        a = o.a_minus(0.0)
        assert 1.0 - abs(np.dot(v, a)) / (np.linalg.norm(v) * np.linalg.norm(a)) <= 1e-8
        w4 = integrate_mode(model, wave, c, 0.0, 4, "w", tol=1e-10, spec=s)
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
    pts = np.linspace(-2.0, 2.0, 9)
    gm = np.concatenate([[-L], pts])
    gp = np.concatenate([pts, [L]])[::-1]
    J = jc(model, c)
    for j in (3, 4):
        u = integrate_mode(model, wave, c, lam, j, "u", tol=1e-10, spec=s, out_grid=gm, until=2.0)
        w = integrate_mode(model, wave, c, lam, j, "w", tol=1e-10, spec=s, out_grid=gp, until=-2.0)
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
        gm = np.concatenate([[-L], pts])
        gp = np.concatenate([pts, [L]])[::-1]
        mi = integrate_mode(model, wave, c, 0.0, 4, "u", tol=1e-10, spec=s, out_grid=gm, until=2.0)
        pl = integrate_mode(model, wave, c, 0.0, 4, "w", tol=1e-10, spec=s, out_grid=gp,
                            until=-2.0)
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
    a = integrate_mode(model, wave, 0.0, 0.0, 4, "u", tol=1e-10, spec=s).value_at_end
    b = integrate_mode(model, wave, 0.0, 0.0, 4, "u", tol=1e-10, spec=s, L=40.0).value_at_end
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
    g = np.array([-L, -2.0, -1.5, -1.0, -0.5, 0.0])
    r = integrate_mode(model, wave, 0.0, 0.0, 3, "u", tol=1e-10, out_grid=g)
    assert np.max(np.abs(r.values[-1] - r.value_at_end)) <= 1e-14
    # a run carried past xi = 0 samples on the far side too,
    # in agreement with a run that stops at the sample point
    s = spectrum(model, 0.0, 0.5)
    g = np.array([-1.5, -1.0, 1.0, 2.0])
    r = integrate_mode(model, wave, 0.0, 0.5, 4, "u", tol=1e-10, spec=s, out_grid=g, until=2.0)
    stop = integrate_mode(model, wave, 0.0, 0.5, 4, "u", tol=1e-10, spec=s, until=1.0)
    assert np.max(np.abs(r.values[2] - stop.value_at_end)) <= 1e-8
    assert np.array_equal(r.values[-1], r.value_at_end)


def _perturbed(hess_of_z):
    # the frozen model's rest state with hessS = hess_of_z(z) off it, on a
    # profile that sits at e1 for every xi
    binf = _coupled()[0].binf()
    model = MultisymplecticModel(CANONICAL_M, CANONICAL_K, lambda z: binf @ z,
                                 lambda z: binf + hess_of_z(np.asarray(z)))
    e1 = lambda xi, c: np.array([1.0, 0.0, 0.0, 0.0])
    return model, WaveFamily(zhat=e1, zhat_xi=e1, zhat_c=e1, decay_rate=lambda c: 2.0)


def test_overflow_guard():
    # off the rest state the seed is no eigenvector of A, and across L = 40
    # the rescaled mode grows past the guard
    model, wave = _perturbed(lambda z: -3.0 * np.multiply.outer(z[0], np.eye(4)))
    spec = spectrum(model, 0.0, 0.7)
    with pytest.raises(Overflow):
        integrate_mode(model, wave, 0.0, 0.7, 3, "u", tol=1e-10, spec=spec, L=40.0)


def test_nan_field_fails():
    # a matrix field that is NaN off the rest state is refused, not stepped
    model, wave = _perturbed(
        lambda z: np.multiply.outer(np.where(z[0] == 0.0, 0.0, np.nan), np.ones((4, 4))))
    spec = spectrum(model, 0.0, 0.7)
    with pytest.raises(StepFail, match="non-finite matrix field"):
        integrate_mode(model, wave, 0.0, 0.7, 3, "u", tol=1e-10, spec=spec)


def test_one_table_build_per_call():
    # the matrix field is evaluated for the mesh and its tables once per call,
    # whatever the runs: four runs at one lambda and twelve at three make as
    # many hessS calls
    model, wave = _coupled()
    calls = []
    counted = MultisymplecticModel(model.M, model.K, model.gradS,
                                   lambda z: calls.append(1) or model.hessS(z))
    c = 0.3
    counts = []
    for lams in ([0.4], [0.4, 1.1 + 0.3j, 3.0], [3.0]):
        calls.clear()
        runs = [(lam, spectrum(model, c, lam), j, kind, 0.0, None)
                for lam in lams for j, kind in ((3, "u"), (4, "u"), (3, "w"), (4, "w"))]
        Stepper(counted, wave, c, tol=1e-9).run(runs)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_frozen_model_is_exact():
    # with A constant the Magnus step is exp(h A) exactly, so the eigenvector
    # seed is a fixed point of every step up to rounding.  The dominant modes
    # (j = 1, 4) keep it to rounding; j = 2, 3 sit on the two-mode floor of
    # test_zero_pattern_at_origin, which the looser test above allows for
    frozen, fwave = _frozen()
    for lam in (0.7, 1.3 + 0.4j, 20.0):
        s = spectrum(frozen, 0.0, lam)
        for j, kind in ((1, "u"), (4, "u"), (1, "w"), (4, "w")):
            r = integrate_mode(frozen, fwave, 0.0, lam, j, kind, spec=s, tol=1e-9)
            seed = s.zeta[j - 1] if kind == "u" else s.eta[j - 1]
            assert np.max(np.abs(r.value_at_end - seed)) <= 1e-11 * np.max(np.abs(seed))
            k = refinement(lam)   # sub-steps per mesh step, 2 at lambda = 20
            assert r.nrejected == 0 and abs(r.nsteps - k * mesh_steps(1e-9)) <= 5 * k


def _stacked_counting(model):
    # the model with a hessS that records each call on a stack of profile
    # points, which are the stepper's mesh and table builds; spectra's one
    # call on the rest state per batch (B_inf) is not recorded
    calls = []

    def hess(z):
        if np.ndim(z) > 1:
            calls.append(1)
        return model.hessS(z)

    return MultisymplecticModel(model.M, model.K, model.gradS, hess), calls


def test_one_table_build_per_task(monkeypatch):
    # a scan sweeps one stepper with its grid and every polish round, and a
    # contour with its boundary and every refinement level: each task makes
    # the field evaluations of its first batch alone
    model, wave = _coupled()
    counted, calls = _stacked_counting(model)
    sweeps, real = [], Stepper.run
    monkeypatch.setattr(Stepper, "run", lambda self, runs: sweeps.append(1) or real(self, runs))
    nm = Numerics(tol=1e-9)
    scan = real_axis_scan(counted, wave, 0.0, 3.0, n=13, numerics=nm)
    task = len(calls)
    assert len(scan.roots) == 2 and len(sweeps) > 2
    calls.clear()
    evans_dets(counted, wave, 0.0, scan.lams, numerics=nm)
    assert len(calls) == task > 0
    # the benchmark rectangle with 2 points an edge refines twice
    rect = (0.5, 3.0, -0.8, 0.8)
    calls.clear()
    sweeps.clear()
    assert winding_count(counted, wave, 0.0, rect, m_per_edge=2) == 2
    task = len(calls)
    assert len(sweeps) == 3
    calls.clear()
    evans_dets(counted, wave, 0.0, _rect_path(rect, 2), numerics=Numerics(tol=CONTOUR_TOL))
    assert len(calls) == task > 0


def test_reused_stepper_equals_fresh_calls(monkeypatch):
    # one stepper sweeps determinant runs to 0, then the tangent pair to +-2,
    # whose steps past 0 in each direction the other direction's runs have
    # built, so it builds nothing, then determinant runs at new lambda, one
    # of them (14) on refinement level 2, then runs at lambda = 60, on level
    # 5, twice: every run equals, bit for bit, what a fresh Stepper's sweep
    # gives, and only level 1 is held, so a refined level is built again
    # for every sweep that needs it
    model, wave = _coupled()
    counted, calls = _stacked_counting(model)
    c, tol = 0.3, 1e-9
    lams = [0.0, 0.7, 1.1 + 0.3j, 14.0, 3.0, 60.0]
    specs = spectra(model, c, lams)
    lots = (_det_runs(lams[:2], specs[:2]), _tangent_pair(specs[0]),
            _det_runs(lams[2:5], specs[2:5]), _det_runs(lams[5:], specs[5:]))
    assert refinement(14.0) == 2 and refinement(60.0) == 5
    stepper = Stepper(counted, wave, c, tol=tol)
    for lot, runs in enumerate(lots + lots[3:]):
        calls.clear()
        got = stepper.run(runs)
        if lot == 1:
            assert calls == []   # the determinant runs' down-runs built the whole table
        else:
            assert len(calls) > 0   # the mesh, or a refined level
        for a, b in zip(Stepper(model, wave, c, tol=tol).run(runs), got, strict=True):
            assert np.array_equal(a.value_at_end, b.value_at_end)
            assert a.stats == b.stats and a.xi_seed == b.xi_seed
            if a.values is not None:
                assert np.array_equal(a.values, b.values)
    # level 1's table is held whole; level 2's is built again for the
    # determinant runs at 14, whole, as the counted model has no R and its
    # w-runs step down from +L
    rows, magnus = [], integrator._magnus
    monkeypatch.setattr(integrator, "_magnus",
                        lambda h, a, b: rows.append(h.copy()) or magnus(h, a, b))
    stepper.run(lots[0] + lots[1] + lots[2])
    assert np.array_equal(np.concatenate(rows), np.diff(stepper._level(2).x))


def test_multi_level_contour_rows(monkeypatch):
    # a contour whose boundary and refinement points reach |lambda| = 42,
    # on refinement levels 1 to 4 over its sweeps: level 1 is held across
    # them, each refined level is built for each sweep that takes it, and
    # the count matches the closed form's 2 roots inside
    rows, magnus = [], integrator._magnus
    monkeypatch.setattr(integrator, "_magnus",
                        lambda h, a, b: rows.append(len(h)) or magnus(h, a, b))
    model, wave = _coupled()
    rect = (0.05, 30.0, -30.0, 30.0)
    assert refinement(complex(rect[1], rect[3])) == 4
    assert winding_count(model, wave, 0.0, rect) == 2
    assert sum(rows) == 1370


def test_magnus_step_is_time_symmetric():
    # the same steps taken backward, Gauss samples reversed, give the negated
    # exponent to the bit, which is what lets down-runs read the up table
    rng = np.random.default_rng(7)
    b = rng.standard_normal((4, 4))
    for scale in (1e-3, 1.0, 30.0):
        h = rng.uniform(1e-3, 0.5, 40) * rng.choice([-1.0, 1.0], 40)
        a = scale * rng.standard_normal((40, 3, 4, 4))
        assert np.array_equal(_magnus(-h, a[:, ::-1], b), -_magnus(h, a, b))
    # and on the coupled wave's samples at a real mesh's Gauss nodes
    model, wave = _coupled()
    stepper = Stepper(model, wave, 0.3, tol=1e-9)
    x = stepper._level(1).x
    h = np.diff(x)
    a = stepper._field((x[:-1, None] + _GAUSS * h[:, None]).ravel()).reshape(-1, 3, 4, 4)
    assert np.array_equal(_magnus(-h, a[:, ::-1], stepper.bmat), -_magnus(h, a, stepper.bmat))


def test_report_tabulates_each_step_once(monkeypatch):
    # a report's one sweep steps the tangent pair to +-2 and the stencil to
    # 0, and its w-runs as reflected u-runs, which step up the mesh: each
    # step of [-L, 2] gets one table row, built from -L upward
    rows, steppers = [], []
    magnus, run = integrator._magnus, Stepper.run
    monkeypatch.setattr(integrator, "_magnus",
                        lambda h, a, b: rows.append(h.copy()) or magnus(h, a, b))
    monkeypatch.setattr(Stepper, "run",
                        lambda self, runs: steppers.append(self) or run(self, runs))
    model, wave = _coupled()
    stability_report(model, wave, 0.3)
    [stepper] = steppers
    x = stepper._level(1).x
    top = int(np.searchsorted(x, 2.0))   # the steps of [-L, 2]
    assert sum(map(len, rows)) == top == 470
    assert np.array_equal(np.concatenate(rows), np.diff(x)[:top])


@pytest.mark.parametrize("task, want", [
    ("dets-without-r", 588),
    ("wedge", 590),
])
def test_table_is_built_from_the_bottom_up(monkeypatch, task, want):
    # a sweep with down-runs, a model without R stepping its w-runs down
    # from +L or the wedge's u1 and u2, builds the whole table, from -L
    # upward in one pass: the rows _magnus builds are the mesh's steps in
    # ascending order, each built once
    rows, steppers = [], []
    magnus, run = integrator._magnus, Stepper.run
    monkeypatch.setattr(integrator, "_magnus",
                        lambda h, a, b: rows.append(h.copy()) or magnus(h, a, b))
    monkeypatch.setattr(Stepper, "run",
                        lambda self, runs: steppers.append(self) or run(self, runs))
    model, wave = _coupled()
    if task == "wedge":
        evans_wedge(model, wave, 0.0, 1.0)
    else:
        evans_dets(_without_r(model), wave, 0.3, [0.7, 1.1 + 0.3j, 3.0],
                   numerics=Numerics(tol=1e-10))
    [stepper] = steppers
    h = np.diff(stepper._level(1).x)
    assert sum(map(len, rows)) == len(h) == want
    assert np.array_equal(np.concatenate(rows), h)


@pytest.mark.parametrize("L", [None, 6.0, 15.0])
@pytest.mark.parametrize("c", [0.0, 0.3, -0.35])
@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
def test_runs_stop_only_on_mesh_nodes(tol, c, L):
    # +-L, 0, +-0.5, ..., +-2 are nodes of every mesh, refined ones too
    # (lambda = 30 splits each step in 3), and the only nodes where runs stop
    # and sample: a point one ulp off a node, and the first node above -2,
    # inside the core's propagators of 4 steps, are refused before a step
    # is taken, after only the mesh's hessS calls
    model, wave = _coupled()
    calls = []
    counted = MultisymplecticModel(model.M, model.K, model.gradS,
                                   lambda z: calls.append(1) or model.hessS(z))
    lam = 30.0
    s = spectrum(model, c, lam)
    Lbox = wave.default_L(c) if L is None else L
    g = np.concatenate([[-Lbox], np.linspace(-2.0, 2.0, 9), [Lbox]])
    r = integrate_mode(model, wave, c, lam, 4, "u", tol=tol, L=L, spec=s, out_grid=g,
                       until=Lbox)
    assert refinement(lam) == 3 and np.all(np.isfinite(r.values))
    integrate_mode(counted, wave, c, lam, 4, "u", tol=tol, L=L, spec=s, until=-Lbox)
    mesh_only = len(calls)
    off = np.nextafter(-1.0, 0.0)
    x = Stepper(model, wave, c, tol=tol, L=L)._level(refinement(lam)).x
    inner = x[np.searchsorted(x, -2.0) + 1]
    assert -2.0 < inner < -1.5
    for until, grid in ((off, None), (0.0, np.array([-Lbox, off, 0.0])), (inner, None)):
        calls.clear()
        with pytest.raises(ValueError, match="not a stop node"):
            integrate_mode(counted, wave, c, lam, 4, "u", tol=tol, L=L, spec=s,
                           out_grid=grid, until=until)
        assert len(calls) == mesh_only


def test_sixth_order_against_oracle():
    # 64 times the tolerance is twice the steps: a sixth-order error falls 64x
    model, wave = _coupled()
    o = oracle_coupled_wave(1.0, 0.0)
    for lam in (1.0, 5.0 + 5.0j):
        coarse, fine = (abs(evans_det(model, wave, 0.0, lam, numerics=Numerics(tol=tol)).D
                            / o.evans_det(lam) - 1.0) for tol in (1e-3, 1e-3 / 64))
        assert fine * 30.0 <= coarse, (lam, coarse, fine)


def test_block_propagators_keep_closed_form_accuracy():
    # the core [-2, 2] steps in propagators of 4 steps and the outer pieces
    # one step at a time: D stays within tol / 20 of the closed form over
    # real and complex lambda, small and large, at four (p, c) and two tol
    # (the worst point reads 0.025 tol; composing the outer pieces' long
    # steps too reads about 50 tol)
    lams = [0.3, 2.5, 1 + 0.5j, 0.7 + 2j, 0.1 + 2.5j, 0.02 + 4j, 15.0, 8 + 6j]
    for p, c in ((2.0, 0.0), (1.0, 0.3), (0.5, -0.35), (2.5, 0.35)):
        model, wave = _coupled(p)
        o = oracle_coupled_wave(p, c)
        for tol in (1e-8, 1e-10):
            for lam, s in zip(lams, evans_dets(model, wave, c, lams, numerics=Numerics(tol=tol))):
                assert abs(s.D / o.evans_det(lam) - 1.0) <= tol / 20, (p, c, tol, lam)


@pytest.mark.parametrize("tol", [1e-30, 1e-18, 0.0, -1e-9, np.nan, np.inf])
def test_tolerance_cap_refused(tol):
    model, wave = _coupled()
    with pytest.raises(BadParameter, match="tol"):
        integrate_mode(model, wave, 0.0, 0.5, 3, "u", tol=tol)


def test_constant_hessian_batch_equals_singletons():
    # a hessS that returns one 4x4 matrix for any input is broadcast to the
    # stage stack: a mixed-lambda batch of u and w runs equals each run alone
    frozen, fwave = _frozen()
    c = 0.2
    modes = ((1, "u"), (3, "u"), (2, "w"), (4, "w"))
    runs = [(lam, spectrum(frozen, c, lam), j, kind, 0.0, None)
            for lam in (0.7, 1.3 + 0.4j) for j, kind in modes]
    runs.append((0.7, runs[0][1], 3, "u", 1.0, np.array([-2.0, -1.5, -1.0, 0.0, 0.5, 1.0])))
    batch = Stepper(frozen, fwave, c, tol=1e-9).run(runs)
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
    batch = Stepper(model, wave, c, tol=1e-9).run(runs)
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
    batch = Stepper(model, wave, c, tol=nm.tol).run(runs)
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
    minus, plus = Stepper(model, wave, 0.3, tol=nm.tol, L=nm.L).run(_tangent_pair(spec))
    want = (
        (["-0x1.b14da2ba1761bp-10", "0x1.b70f3ca931773p-11",
          "-0x1.d2803073c48e0p-9", "-0x1.b14da2ba17621p-11"], (470, 0)),
        (["0x1.97312f1bb10dap-9", "0x1.9c99fc320e50cp-10",
          "-0x1.b6639bf52f361p-8", "0x1.97312f1bb10dap-10"], (470, 0)),
    )
    for sol, (re, steps) in zip((minus, plus), want):
        assert [float(v.real).hex() for v in sol.value_at_end] == re
        assert [float(v.imag).hex() for v in sol.value_at_end] == ["0x0.0p+0"] * 4
        assert (sol.nsteps, sol.nrejected) == steps
    assert minus.h_min.hex() == plus.h_min.hex() == "0x1.1e35c1f929ea2p-7"


def _without_r(model):
    # the same model with no reversor: its w-runs step at -lambda down from +L
    return dataclasses.replace(model, R=None)


def _same_runs(a, b):
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.value_at_end, y.value_at_end)
        assert x.stats == y.stats and x.xi_seed == y.xi_seed
        assert (x.values is None) == (y.values is None)
        if x.values is not None:
            assert np.array_equal(x.values, y.values)


def test_reflected_w_runs_keep_golden_bits():
    # the coupled wave is reversible, so its w-runs step as reflected u-runs
    # in the u-runs' group; at the non-zero golden points every bit of D,
    # d1..d4 and the step stats is the one the w-runs give stepped at -lambda
    for p, c, tol, lam in ((1.0, 0.3, 1e-10, 0.05), (2.0, 0.0, 1e-8, 1.0 + 0.4j),
                           (2.0, 0.0, 1e-8, 1.0 - 0.4j)):
        model, wave = build_coupled_wave(p)
        assert Stepper(model, wave, c, tol=tol)._half[1]
        assert not Stepper(_without_r(model), wave, c, tol=tol)._half[1]
        a, b = (evans_det(m, wave, c, lam, numerics=Numerics(tol=tol))
                for m in (model, _without_r(model)))
        for name in ("D", "d1", "d2", "d3", "d4"):
            assert getattr(a, name) == getattr(b, name), (p, c, lam, name)
        assert a.stats == b.stats


@pytest.mark.parametrize("c", [0.0, 0.3, -0.35])
def test_reflected_w_runs_match_stepped_ones(c):
    # off the rounding floor at lambda = 0, reflecting the w-runs moves D by
    # at most 1e-12 relative, for real and complex lambda, both tolerances
    # and matching points on either side of 0
    model, wave = build_coupled_wave(1.0)
    lams = [0.05, 0.9, 2.5, 15.0, 1.0 + 0.4j, 0.5 + 2.0j, 8.0 + 6.0j]
    for tol in (1e-8, 1e-10):
        nm = Numerics(tol=tol)
        for xi_star in (0.0, 0.5, -1.5):
            a, b = (evans_dets(m, wave, c, lams, numerics=nm, xi_star=xi_star)
                    for m in (model, _without_r(model)))
            for s, t in zip(a, b):
                assert abs(s.D - t.D) <= 1e-12 * abs(t.D), (tol, xi_star, s.lam)
                assert s.stats == t.stats


@pytest.mark.parametrize("p, c", [(1.0, 0.3), (2.0, 0.0), (0.5, -0.35)])
def test_reflected_tangent_pair_keeps_pi(p, c):
    # pi_profile's w-run, eta_4 from +L to -2 with a grid, steps up from -L
    # reflected; its samples keep every bit
    model, wave = build_coupled_wave(p)
    a, b = (pi_profile(m, wave, c) for m in (model, _without_r(model)))
    assert np.array_equal(a.samples, b.samples) and a.pi == b.pi


def _shifted(wave, s):
    # the wave's profile moved by s along xi: still a solution, but no longer
    # reversible about xi = 0
    return WaveFamily(zhat=lambda xi, c: wave.zhat(np.asarray(xi) - s, c),
                      zhat_xi=lambda xi, c: wave.zhat_xi(np.asarray(xi) - s, c),
                      zhat_c=lambda xi, c: wave.zhat_c(np.asarray(xi) - s, c),
                      decay_rate=wave.decay_rate)


def test_asymmetric_wave_steps_w_runs_at_minus_lambda():
    # with R kept but the profile shifted by 0.3 the field fails the symmetry
    # check, and the w-runs step as they do without R, to the bit
    model, wave = build_coupled_wave(1.0)
    shifted, c, tol = _shifted(wave, 0.3), 0.3, 1e-9
    assert not Stepper(model, shifted, c, tol=tol)._half[1]
    lams = [0.0, 0.7, 1.1 + 0.3j]
    specs = spectra(model, c, lams)
    runs = (_det_runs(lams, specs) + _tangent_pair(specs[0])
            + [(0.7, specs[1], 1, "w", 0.5, None)])
    _same_runs(Stepper(model, shifted, c, tol=tol).run(runs),
               Stepper(_without_r(model), shifted, c, tol=tol).run(runs))


def _refusal(call):
    # (error type, message up to "xi=", the xi named), or None when call passes
    try:
        call()
    except (Overflow, StepFail) as e:
        head, _, xi = str(e).rpartition("xi=")
        return type(e).__name__, head, xi
    return None


def test_reflected_refusals_name_the_w_runs_xi():
    # a reflected run that overflows, or meets a non-finite exponent, names
    # the xi the w-run stepped at -lambda names, alone and beside u-runs,
    # whose group it joins: a batch with half the groups
    grow, gwave = _perturbed(lambda z: -3.0 * np.multiply.outer(z[0], np.eye(4)))
    grow = dataclasses.replace(grow, R=_coupled()[0].R)   # profile e1 is reversible
    narrow, nwave = _coupled()
    cases = [(grow, gwave, 0.0, 0.7, 1e-10), (narrow, nwave, 0.9995, 3.0, 1e-8),
             (narrow, nwave, 0.9995, 2.0 + 0.8j, 1e-8)]
    for model, wave, c, lam, tol in cases:
        assert Stepper(model, wave, c, tol=tol)._half[1]
        spec = spectrum(model, c, lam)
        lots = [[(lam, spec, j, "w", 0.0, None)] for j in (1, 2, 3, 4)]
        lots += [_det_runs([lam], [spec]), [(lam, spec, 1, "u", 0.0, None),
                                            (lam, spec, 1, "w", 0.0, None)]]
        refused = 0
        for k, runs in enumerate(lots):
            got = [_refusal(lambda: Stepper(m, wave, c, tol=tol).run(runs))
                   for m in (model, _without_r(model))]
            refused += got[0] is not None
            if k < 4 and got[0] is not None:   # w3, w4 start at +L and w1, w2 at -L
                assert np.sign(float(got[0][2])) == (1 if k >= 2 else -1), got
            assert got[0] == got[1], got
        assert refused >= 3, (c, lam)


@pytest.mark.parametrize("lam, xi", [(0.7, "-2.000"), (1.6, "0.000")])
def test_overflow_names_the_same_xi_in_any_batch(lam, xi):
    # a run's norm is checked at its stop node and at +-2 only, so the xi an
    # Overflow names does not depend on the chunks its batch is stepped in:
    # u3 alone (one group) and beside 24 lambdas that pass (25 groups)
    model, wave = _perturbed(lambda z: -3.0 * np.multiply.outer(z[0], np.eye(4)))
    lams = [*np.linspace(1.8, 3.0, 24), lam]
    runs = [(mu, spectrum(model, 0.0, mu), 3, "u", 0.0, None) for mu in lams]
    stepper = lambda: Stepper(model, wave, 0.0, tol=1e-10)
    assert _refusal(lambda: stepper().run(runs[:-1])) is None
    alone = _refusal(lambda: stepper().run(runs[-1:]))
    assert alone == ("Overflow", "mode norm exceeded 1e+12 by ", xi)
    assert _refusal(lambda: stepper().run(runs)) == alone
