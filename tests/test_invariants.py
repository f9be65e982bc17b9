"""Momentum, attachment coefficients, transversality pairing, stability verdict."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evanskit.invariants as invariants
from evanskit.asymptotics import spectrum
from evanskit.errors import (Degenerate, Inconsistent, NoConverge, NonTransverse,
                             NoPlateau, OrientationFail)
from evanskit.evans import Numerics, derivatives_at_zero, evans_det
from evanskit.integrator import Stepper, integrate_mode
from evanskit.invariants import (
    chi_factors,
    dIdc,
    momentum,
    pi_profile,
    quad,
    stability_report,
    structural_checks,
)
from evanskit.model import WaveFamily, build_coupled_wave, oracle_coupled_wave

MODEL, WAVE = build_coupled_wave(1.0)


def _alpha(c):
    return 1.0 / np.sqrt(1.0 - c * c)


def test_momentum_values():
    assert abs(momentum(MODEL, WAVE, 0.0)) <= 1e-10
    for c in (0.3, -0.3):
        want = -16.0 * c * _alpha(c) / 5.0
        got = momentum(MODEL, WAVE, c)
        assert abs(got - want) <= 1e-8 * abs(want)
    got = momentum(MODEL, WAVE, 0.6)
    assert abs(got - (-2.4)) <= 1e-8


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.45))
def test_momentum_is_odd_in_c(c):
    a = momentum(MODEL, WAVE, c)
    b = momentum(MODEL, WAVE, -c)
    assert abs(a + b) <= 1e-9 * max(1.0, abs(a))


def test_momentum_derivative_values():
    got = dIdc(MODEL, WAVE, 0.0)
    assert abs(got - (-3.2)) <= 1e-6 * 3.2
    for c in (0.3, -0.3):
        want = -3.2 * _alpha(c) ** 3
        got = dIdc(MODEL, WAVE, c)
        assert abs(got - want) <= 1e-6 * abs(want)
    assert abs(dIdc(MODEL, WAVE, 0.6) - (-6.25)) <= 1e-5


@pytest.mark.parametrize("p", [0.5, 1.0, 1.4, 2.0, 2.5])
def test_momentum_and_dIdc_match_oracle(p):
    model, wave = build_coupled_wave(p)
    for c in (0.0, 0.3, -0.6, 0.8, 0.95, -0.97):
        o = oracle_coupled_wave(p, c)
        assert abs(momentum(model, wave, c) - o.momentum) <= 1e-12 * max(abs(o.momentum), 1.0)
        assert abs(dIdc(model, wave, c) - o.dIdc) <= 1e-12 * abs(o.dIdc)


def test_quad_one_call_on_array():
    calls = []

    def f(xi):
        calls.append(xi.shape)
        return np.cos(xi)

    assert abs(quad(f, -3.0, 3.0) - 2.0 * np.sin(3.0)) <= 1e-14
    assert len(calls) == 1 and len(calls[0]) == 1


@pytest.mark.parametrize("x0, width", [
    (0.37, 1e-2),
    # on a node of the finer rule, where the half-panel rule has none
    (float(20.0 * invariants._FINE[0][100]), 1e-3),
], ids=["width-1e-2", "width-1e-3-on-node"])
def test_quad_refuses_unresolved_spike(x0, width):
    # a spike narrower than the node spacing, off the panel edges: the rule
    # and its half-panel version disagree
    with pytest.raises(NoConverge):
        quad(lambda xi: np.exp(-((xi - x0) / width) ** 2), -20.0, 20.0)


def test_degenerate_family_rejected():
    # family frozen at one speed: the c-derivative vanishes identically
    frozen = WaveFamily(
        zhat=lambda xi, c: WAVE.zhat(xi, 0.0),
        zhat_xi=lambda xi, c: WAVE.zhat_xi(xi, 0.0),
        decay_rate=lambda c: WAVE.decay_rate(0.0),
        zhat_c=lambda xi, c: np.zeros(4),
    )
    with pytest.raises(Degenerate):
        dIdc(MODEL, frozen, 0.0)


def test_inconsistent_c_derivative_rejected():
    # declared zhat_c twice the true one: quadrature disagrees with the
    # centered difference of the momentum itself
    doubled = dataclasses.replace(WAVE, zhat_c=lambda xi, c: 2.0 * WAVE.zhat_c(xi, c))
    with pytest.raises(Inconsistent):
        dIdc(MODEL, doubled, 0.3)


def test_chi_values():
    cm, cp, chi = chi_factors(MODEL, WAVE, 0.0)
    want = -1.0 / 768.0
    assert abs(chi - want) <= 1e-8 * abs(want)
    assert abs(1.0 / (cm * cp) - chi) <= 1e-12 * abs(chi)

    _, _, chi5 = chi_factors(MODEL, WAVE, 0.5)
    want5 = -1.0 / (768.0 * _alpha(0.5))
    assert abs(chi5 - want5) <= 1e-8 * abs(want5)

    for c in (0.3, -0.3):
        assert chi_factors(MODEL, WAVE, c)[2] < 0.0


def test_chi_requires_plateau():
    # multiplicative ripple on the tangent spoils the exponential plateau
    # without changing the decay rate
    ripple = dataclasses.replace(
        WAVE, zhat_xi=lambda xi, c: (1.0 + 0.05 * np.sin(xi)) * WAVE.zhat_xi(xi, c))
    with pytest.raises(NoPlateau):
        chi_factors(MODEL, ripple, 0.0)


def test_chi_rescale_invariance():
    c = 0.3
    sp = spectrum(MODEL, c, 0.0)
    cm, cp, chi = chi_factors(MODEL, WAVE, c, spec=sp)
    s = 3.7
    z = [v.copy() for v in sp.zeta]
    e = [v.copy() for v in sp.eta]
    z[2] = s * z[2]
    e[2] = e[2] / s
    cm2, cp2, chi2 = chi_factors(MODEL, WAVE, c, spec=dataclasses.replace(sp, zeta=z, eta=e))
    assert abs(chi2 - chi) <= 1e-8 * abs(chi)
    # the factors themselves are gauge-dependent and move reciprocally
    assert abs(cm2 - cm / s) <= 1e-10 * abs(cm)
    assert abs(cp2 - cp * s) <= 1e-10 * abs(cp * s)


def test_pi_frozen_values():
    pd = pi_profile(MODEL, WAVE, 0.0)
    assert abs(pd.pi - 0.003937068899632076) <= 1e-6 * 0.003937068899632076
    assert pd.flipped is True
    assert pd.orientation_ratio > 0.0
    assert np.std(pd.samples) <= 1e-6 * abs(np.mean(pd.samples))
    assert pi_profile(MODEL, WAVE, 0.3).pi > 0.0

    model2, wave2 = build_coupled_wave(2.0)
    pd2 = pi_profile(model2, wave2, 0.0)
    assert abs(pd2.pi - (-0.0030801113565359713)) <= 1e-6 * 0.0030801113565359713
    assert pd2.orientation_ratio > 0.0
    assert pd2.pi < 0.0


def test_pi_rescale_invariance():
    c = 0.3
    pd = pi_profile(MODEL, WAVE, c)
    sp = spectrum(MODEL, c, 0.0)
    for s in (0.4, -2.0):
        z = [v.copy() for v in sp.zeta]
        e = [v.copy() for v in sp.eta]
        z[3] = s * z[3]
        e[3] = e[3] / s
        pds = pi_profile(MODEL, WAVE, c, spec=dataclasses.replace(sp, zeta=z, eta=e))
        assert abs(pds.pi - pd.pi) <= 1e-9 * abs(pd.pi)
        assert pds.flipped == pd.flipped


def test_pi_refuses_equal_tangents():
    # a pair whose plus values equal its minus values at the sample points
    # pairs to Omega(v, v) = 0 there: the tangents do not cross transversely
    c = 0.3
    sp = spectrum(MODEL, c, 0.0)
    minus, plus = Stepper(MODEL, WAVE, c, tol=Numerics.tol).run(invariants._tangent_pair(sp))
    e1 = np.eye(4)[0]
    same = [dataclasses.replace(run, values=np.outer(1.0 + run.grid ** 2, e1) + 0j)
            for run in (minus, plus)]
    with pytest.raises(NonTransverse):
        invariants._pi_data(MODEL, WAVE, c, sp, *same)


def test_pi_refuses_degenerate_boundary_wedge():
    # zeta_4 parallel to zhat_xi(-L) makes the boundary wedge of the
    # orientation step vanish
    c = 0.3
    sp = spectrum(MODEL, c, 0.0)
    zx = WAVE.zhat_xi(-WAVE.default_L(c), c)
    zeta = sp.zeta.copy()
    zeta[3] = zx / np.linalg.norm(zx)
    with pytest.raises(OrientationFail):
        pi_profile(MODEL, WAVE, c, spec=dataclasses.replace(sp, zeta=zeta))


def _tangent_pair(model, wave, c):
    sp = spectrum(model, c, 0.0)
    L = wave.default_L(c)
    pts = np.linspace(-2.0, 2.0, 9)
    gm = np.concatenate([[-L], pts])
    gp = np.concatenate([pts, [L]])[::-1]
    minus = integrate_mode(model, wave, c, 0.0, 4, "u", spec=sp, out_grid=gm, until=2.0)
    plus = integrate_mode(model, wave, c, 0.0, 4, "w", spec=sp, out_grid=gp, until=-2.0)
    return minus, plus


@pytest.mark.parametrize("c", [0.0, 0.3])
def test_library_tangent_pair_covers_overlap(c):
    # the one lambda = 0 tangent path behind pi_profile and structural_checks
    L = WAVE.default_L(c)
    runs = invariants._tangent_pair(spectrum(MODEL, c, 0.0))
    minus, plus = Stepper(MODEL, WAVE, c, tol=Numerics.tol).run(runs)
    pts = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(minus.grid, pts) and np.array_equal(plus.grid, pts[::-1])
    assert (minus.xi_seed, plus.xi_seed) == (-L, L)
    # both continuations stay real at lambda = 0
    for run in (minus, plus):
        assert np.max(np.abs(run.values.imag)) <= 1e-10 * np.max(np.abs(run.values.real))


def test_pairings_vanish_on_manifold_tangents():
    r = structural_checks(MODEL, WAVE, 0.3)
    assert r.max_tangent_plus <= 1e-7
    assert r.max_tangent_minus <= 1e-7
    assert r.max_tangent_zc <= 1e-7


def test_non_lagrangian_perturbation_detected():
    c = 0.3
    minus, plus = _tangent_pair(MODEL, WAVE, c)
    j0 = int(np.argmin(np.abs(plus.grid)))
    eps = 0.05 * np.linalg.norm(plus.values[j0])
    bad = dataclasses.replace(plus, values=plus.values + eps * np.array([1.0, 0.0, 0.0, 0.0]))
    r = structural_checks(MODEL, WAVE, c, pair=(minus, bad))
    assert r.max_tangent_plus > 1e-4
    assert r.max_tangent_minus <= 1e-7


def test_structural_checks_refuse_pair_missing_a_point():
    # an override pair must carry values at all of linspace(-2, 2, 9)
    c = 0.3
    minus, plus = _tangent_pair(MODEL, WAVE, c)
    j0 = int(np.flatnonzero(plus.grid == 0.0)[0])
    short = dataclasses.replace(plus, grid=np.delete(plus.grid, j0),
                                values=np.delete(plus.values, j0, axis=0))
    with pytest.raises(ValueError, match="linspace"):
        structural_checks(MODEL, WAVE, c, pair=(minus, short))


def test_stability_report_p1():
    rep = stability_report(MODEL, WAVE, 0.3, params={"p": 1.0})
    assert rep.verdict == "Inconclusive"
    assert rep.d_inf == 1
    assert rep.pi_sign == 1
    assert abs(rep.ratio_check - 1.0) <= 1e-3
    assert rep.chi < 0.0
    assert rep.I < 0.0
    assert rep.dIdc < 0.0
    assert rep.D2_scaled == rep.D2_raw / 2.0
    assert rep.params == {"p": 1.0}


@pytest.mark.parametrize("nm", [None, Numerics(tol=1e-9, L=15.0, h=0.05)])
def test_report_equals_its_parts_alone(nm):
    # the report's one stepper call gives exactly what the parts give alone
    c = 0.3
    rep = stability_report(MODEL, WAVE, c, numerics=nm)
    assert rep.Pi == pi_profile(MODEL, WAVE, c, numerics=nm).pi
    assert rep.D2_raw == derivatives_at_zero(MODEL, WAVE, c, numerics=nm).D2_raw
    d = evans_det(MODEL, WAVE, c, 3.0, numerics=nm).D.real
    assert rep.d_inf == (1 if d > 0 else -1)


def test_report_integrates_pair_and_stencil_only(monkeypatch):
    # one stepper sweep of 22 runs (the tangent pair and 4 per stencil
    # lambda) and one spectra call of the 5 stencil lambdas: no finite
    # lambda is probed for d_inf
    runs, lams = [], []

    def count(fn, seen, arg):
        def wrapped(*args, **kwargs):
            seen.append(len(args[arg]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Stepper, "run", count(Stepper.run, runs, 1))
    monkeypatch.setattr(invariants, "spectra", count(invariants.spectra, lams, 2))
    assert stability_report(MODEL, WAVE, 0.3).d_inf == 1
    assert runs == [22] and lams == [5]


def test_stability_report_p2_flags_instability():
    model2, wave2 = build_coupled_wave(2.0)
    rep = stability_report(model2, wave2, 0.0, params={"p": 2.0})
    assert rep.verdict == "UnstableRealEigenvalue"
    assert rep.pi_sign == -1
    assert rep.d_inf == 1
    assert abs(rep.ratio_check - 1.0) <= 1e-3
    assert rep.D2_raw < 0.0


def test_report_json_roundtrip():
    rep = stability_report(MODEL, WAVE, 0.0)
    d = json.loads(rep.to_json())
    assert d["verdict"] == rep.verdict
    assert d["c"] == 0.0
    assert d["d_inf"] == rep.d_inf
    assert list(d) == sorted(d)
