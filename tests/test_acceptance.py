"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Each test is self-contained and asserts the criterion exactly as stated;
the shape-oracle constancy test (criterion 5) states the target it was
given even though the measured drift is orders of magnitude larger.
"""

import dataclasses
import time

import numpy as np

from evanskit.asymptotics import spectrum
from evanskit.evans import (
    Numerics,
    derivatives_at_zero,
    eta_identity_residual,
    evans_det,
    evans_wedge,
    real_axis_scan,
    winding_count,
)
from evanskit.finite_re import cor23_root, mu_product, synth_re, theorem22_check
from evanskit.invariants import (
    chi_factors,
    dIdc,
    pi_profile,
    structural_checks,
)
from evanskit.model import build_coupled_wave, build_dirac


def _alpha(c):
    return 1.0 / np.sqrt(1.0 - c * c)


def test_criterion_01_second_derivative_identity():
    # D''(0) = 2 chi Pi dI/dc across (c, p), with D(0) and D'(0) vanishing
    t0 = time.monotonic()
    for p in (0.5, 1.0, 2.0):
        model, wave = build_coupled_wave(p)
        for c in (0.0, 0.3, -0.3):
            der = derivatives_at_zero(model, wave, c)
            chi = chi_factors(model, wave, c)[2]
            pi = pi_profile(model, wave, c).pi
            didc = dIdc(model, wave, c)
            ratio = der.D2_raw / (2.0 * chi * pi * didc)
            assert abs(ratio - 1.0) <= 1e-3, (p, c, ratio)
            assert abs(der.D0) <= 1e-8 * der.scale, (p, c, der.D0)
            assert abs(der.D1) <= 1e-6 * der.scale, (p, c, der.D1)
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"9 cases took {elapsed:.1f}s"
    print(f"criterion 1: PASS (9 cases in {elapsed:.1f}s)")


def test_criterion_02_momentum_derivative_closed_form():
    model, wave = build_coupled_wave(1.0)
    for c in (0.0, 0.3, -0.3, 0.6):
        want = -16.0 / 5.0 * _alpha(c) ** 3
        got = dIdc(model, wave, c)
        assert abs(got - want) <= 1e-6 * abs(want), (c, got, want)
    print("criterion 2: PASS")


def test_criterion_03_chi_closed_form_and_sign():
    model, wave = build_coupled_wave(1.0)
    for c in (0.0, 0.5):
        want = -1.0 / (768.0 * _alpha(c))
        got = chi_factors(model, wave, c)[2]
        assert abs(got - want) <= 1e-4 * abs(want), (c, got, want)
    for c in (0.0, 0.3, -0.3, 0.5):
        assert chi_factors(model, wave, c)[2] < 0.0, c
    print("criterion 3: PASS")


def test_criterion_04_pi_sign_and_xi_independence():
    for p, sign in ((1.0, 1.0), (2.0, -1.0)):
        model, wave = build_coupled_wave(p)
        pd = pi_profile(model, wave, 0.0)
        assert np.sign(pd.pi) == sign, (p, pd.pi)
        assert pd.orientation_ratio > 0.0
        relstd = np.std(pd.samples) / abs(np.mean(pd.samples))
        assert relstd <= 1e-6, (p, relstd)
    print("criterion 4: PASS")


def test_criterion_05_exact_shape_ratio_constancy():
    nm = Numerics(tol=1e-9)
    for p in (1.0, 2.0):
        model, wave = build_coupled_wave(p)
        for c in (0.0, 0.3):
            a = _alpha(c)
            ratios = []
            for k in range(1, 16):
                lam = 0.2 * k
                x2 = (a * lam) ** 2
                quintic = ((3 + x2) * (5 - x2) * (3 + 3 * p + x2)
                           * (3 * p + x2) * (5 - 3 * p - x2))
                denom = lam ** 2 * quintic
                if abs(denom) < 1e-12:
                    continue  # root of the closed form
                D = evans_det(model, wave, c, lam, numerics=nm).D.real
                ratios.append(D / denom)
            r = np.array(ratios)
            drift = (r.max() - r.min()) / abs(r.mean())
            print(f"criterion 5: p={p} c={c} relative drift {drift:.6g} "
                  f"over {len(r)} samples")
            assert drift <= 1e-4, (p, c, drift)
    print("criterion 5: PASS")


def test_criterion_06_root_locations_and_sign_at_infinity():
    nm = Numerics(tol=1e-9)
    model, wave = build_coupled_wave(1.0)
    res = real_axis_scan(model, wave, 0.0, 3.0, n=13, numerics=nm)
    roots = sorted(float(r) for r in res.roots)
    assert len(roots) == 2, roots
    assert abs(roots[0] - np.sqrt(2.0)) <= 1e-5
    assert abs(roots[1] - np.sqrt(5.0)) <= 1e-5
    assert res.values[-1].real > 0.0 and res.d_inf == 1

    model2, wave2 = build_coupled_wave(2.0)
    res2 = real_axis_scan(model2, wave2, 0.0, 3.0, n=13, numerics=nm)
    assert len(res2.roots) == 1, res2.roots
    assert abs(float(res2.roots[0]) - np.sqrt(5.0)) <= 1e-5
    assert res2.values[-1].real > 0.0
    print("criterion 6: PASS")


def test_criterion_07_winding_counts():
    rect = (0.5, 3.0, -0.8, 0.8)
    for p, want in ((1.0, 2), (2.0, 1)):
        model, wave = build_coupled_wave(p)
        got = winding_count(model, wave, 0.0, rect)
        assert got == want, (p, got)
    # a phase-closure residual >= 0.1 raises NonClosure inside winding_count,
    # so reaching this line certifies closure for both cases
    print("criterion 7: PASS")


def test_criterion_08_wedge_representation_and_eta_identity():
    model, wave = build_coupled_wave(1.0)
    nm = Numerics(tol=1e-10)
    for lam in (0.5, 1.0, 1.5):
        W = evans_wedge(model, wave, 0.3, lam, numerics=nm)
        D = evans_det(model, wave, 0.3, lam, numerics=nm).D
        sp = spectrum(model, 0.3, lam)
        assert abs(W - D * sp.Kconst) <= 1e-6 * abs(W), lam
        assert eta_identity_residual(model, sp) <= 1e-10, lam
    print("criterion 8: PASS")


def test_criterion_09_structural_suite():
    model, wave = build_coupled_wave(1.0)
    r = structural_checks(model, wave, 0.3)
    assert r.max_tangent_plus <= 1e-7
    assert r.max_tangent_minus <= 1e-7
    assert r.max_tangent_zc <= 1e-7

    nm = Numerics(tol=1e-10)
    sp = spectrum(model, 0.3, 0.9)
    base = evans_det(model, wave, 0.3, 0.9, numerics=nm, spec=sp).D
    z, e, mu = sp.zeta.copy(), sp.eta.copy(), sp.mu.copy()
    z[[2, 3]] = z[[3, 2]]
    e[[2, 3]] = e[[3, 2]]
    mu[[2, 3]] = mu[[3, 2]]
    swapped = dataclasses.replace(sp, zeta=z, eta=e, mu=mu)
    ds = evans_det(model, wave, 0.3, 0.9, numerics=nm, spec=swapped).D
    assert abs(ds - base) <= 1e-10 * abs(base)

    z, e = sp.zeta.copy(), sp.eta.copy()
    z[3] = 2.7 * z[3]
    e[3] = e[3] / 2.7
    rescaled = dataclasses.replace(sp, zeta=z, eta=e, Kconst=2.7 * sp.Kconst)
    dr = evans_det(model, wave, 0.3, 0.9, numerics=nm, spec=rescaled).D
    assert abs(dr - base) <= 1e-10 * abs(base)
    print("criterion 9: PASS")


def test_criterion_10_pencil_derivative_identities():
    found = 0
    for seed in range(20):
        for n in (1, 2, 3):
            prob = synth_re(n, seed)
            rep = theorem22_check(prob)
            assert rep.rel_err <= 1e-8, (seed, n)
            s = np.linalg.norm(prob.zeta1)
            product = mu_product(prob.L) * float(
                (prob.zeta2 / s) @ (prob.M @ (prob.zeta1 / s)))
            root = cor23_root(prob)
            if product < 0:
                found += 1
                assert root is not None and root > 0.0, (seed, n)
                evs = np.linalg.eigvals(np.linalg.solve(prob.M, prob.L))
                assert np.min(np.abs(evs - root)) <= 1e-8 * max(1.0, root)
            else:
                assert root is None, (seed, n)
    assert found >= 1
    print(f"criterion 10: PASS ({found} negative-curvature instances rooted)")


def test_criterion_11_clifford_and_reversor_identities():
    d = build_dirac()
    I4 = np.eye(4, dtype=int)
    assert np.array_equal(d.J1 @ d.J1, -I4)
    assert np.array_equal(d.J2 @ d.J2, I4)
    assert np.array_equal(d.J1 @ d.J2 + d.J2 @ d.J1, 0 * I4)

    model, wave = build_coupled_wave(1.0)
    R = model.R
    assert np.array_equal(R @ model.M, -model.M @ R)
    assert np.array_equal(R @ model.K, -model.K @ R)
    for c in (0.0, 0.3):
        for xi in (0.4, 1.3, 2.2):
            res = np.max(np.abs(R @ wave.zhat(-xi, c) - wave.zhat(xi, c)))
            assert res <= 1e-12, (c, xi, res)
    print("criterion 11: PASS")
