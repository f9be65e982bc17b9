"""Evans function assembly: frozen anchors, representation identity, invariances."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evanskit.asymptotics import continuous_spectrum_distance, spectra, spectrum
from evanskit import evans
from evanskit.errors import (BadParameter, ContourOnSpectrum, Degenerate, NoConverge,
                             SplittingViolated, StepTooLarge)
from evanskit.evans import (
    _POLISH_ROUNDS,
    ROOT_XTOL,
    Numerics,
    _derivatives,
    _det_runs,
    _det_samples,
    _estimate,
    _polish,
    _rect_path,
    derivatives_at_zero,
    eta_identity_residual,
    evans_det,
    evans_dets,
    evans_wedge,
    real_axis_scan,
    winding_count,
)
from evanskit import integrator
from evanskit.integrator import Stepper
from evanskit.model import (
    CANONICAL_K,
    CANONICAL_M,
    MultisymplecticModel,
    WaveFamily,
    build_coupled_wave,
    oracle_coupled_wave,
)


def test_point_value_frozen():
    model, wave = build_coupled_wave(1.0)
    s = evans_det(model, wave, 0.0, 1.0)
    assert abs(s.D - 7.491201445416433e-06) <= 1e-8 * abs(s.D)
    assert abs(s.D.imag) <= 1e-10 * abs(s.D)


def _same_sample(a, b):
    return (a.lam == b.lam and a.D == b.D and a.d1 == b.d1 and a.d2 == b.d2
            and a.d3 == b.d3 and a.d4 == b.d4 and a.stats == b.stats)


def test_batch_equals_singleton_calls():
    # every run keeps its own steps, so D(lambda) does not depend on which
    # batch it rode in: the stencil plus lambda = 3, and complex points
    cases = (
        (1.0, 0.3, Numerics(tol=1e-10), [0.0, 0.05, -0.05, 0.1, -0.1, 3.0]),
        (2.0, 0.0, Numerics(tol=1e-8), [1.0 + 0.4j, 1.0 - 0.4j, 0.5 + 0.8j, 2.9 - 0.3j]),
    )
    for p, c, nm, lams in cases:
        model, wave = build_coupled_wave(p)
        batch = evans_dets(model, wave, c, lams, numerics=nm)
        assert len(batch) == len(lams)
        for lam, b in zip(lams, batch):
            a = evans_det(model, wave, c, lam, numerics=nm)
            assert _same_sample(a, b), lam
            assert set(b.stats) == {"u3", "u4", "w3", "w4"}
            assert all(st.accepted > 0 and st.h_min > 0 for st in b.stats.values())


def _hex_sample(s):
    # D and d1..d4 by the bits of their real and imaginary parts, signed zeros included
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in (s.D, s.d1, s.d2, s.d3, s.d4)]


def test_real_lambda_beside_complex_equals_alone(monkeypatch):
    # the exponent form is chosen per chunk: real 4x4 when every lambda is
    # real, and otherwise the real 8x8 form for every group, where a real
    # lambda's zero blocks give it the bits it has alone in the 4x4 form
    model, wave = build_coupled_wave(2.0)
    nm = Numerics(tol=1e-8)
    lams = [0.7, 1.0 + 0.4j, 2.2]
    sizes, expms = set(), integrator._expms
    monkeypatch.setattr(integrator, "_expms",
                        lambda x, work=None: sizes.add(x.shape[1]) or expms(x, work))
    batch = evans_dets(model, wave, 0.0, lams, numerics=nm)
    assert sizes == {8}
    for lam, b in zip(lams, batch):
        sizes.clear()
        alone = evans_det(model, wave, 0.0, lam, numerics=nm)
        assert _same_sample(alone, b), lam
        assert _hex_sample(alone) == _hex_sample(b), lam
        assert sizes == ({8} if lam.imag != 0.0 else {4})


def test_contour_makes_one_expms_call_per_chunk(monkeypatch):
    # the benchmark's rectangle holds the real points 0.5 and 3 beside its
    # complex ones, and every chunk of its sweep exponentiates them all in
    # one _expms call
    chunks, calls, exps = [], [], integrator._expms
    monkeypatch.setattr(integrator, "_expms",
                        lambda x, work=None: calls.append(len(x)) or exps(x, work))
    chunked = Stepper._exponentials
    monkeypatch.setattr(Stepper, "_exponentials",
                        lambda self, *a: chunks.append(1) or chunked(self, *a))
    model, wave = build_coupled_wave(1.0)
    assert winding_count(model, wave, 0.0, (0.5, 3.0, -0.8, 0.8)) == 2
    assert len(calls) == len(chunks) == 10
    assert sum(calls) == 3425


@pytest.mark.parametrize("p, c, nm, lams", [
    (0.5, -0.35, Numerics(tol=1e-8), [1.0 - 0.4j, 0.3 - 2.1j, 2.5 - 0.05j, -0.7 - 1.3j]),
    (1.1, 0.3, Numerics(tol=1e-10), [0.05 - 0.05j, 1.5 - 0.5j, 3.0 - 0.8j, 0.8 - 1e-3j]),
    (2.4, 0.0, Numerics(tol=1e-9, L=15.0), [2.0 - 0.8j, 0.6 - 0.25j, 5.0 - 30.0j]),
], ids=["p0.5", "p1.1", "p2.4"])
def test_folded_samples_equal_unfolded(p, c, nm, lams):
    # evans_dets evaluates Im lambda < 0 at conj lambda and conjugates; that
    # rests on the spectra, the stepper and its exponentials being conjugate-equivariant
    # to the bit, which this checks against the solve at lambda itself
    model, wave = build_coupled_wave(p)
    specs = spectra(model, c, lams)
    sols = Stepper(model, wave, c, tol=nm.tol, L=nm.L).run(_det_runs(lams, specs))
    want = _det_samples(model, c, lams, specs, sols)
    for a, b in zip(want, evans_dets(model, wave, c, lams, numerics=nm)):
        assert _same_sample(a, b), a.lam


def _counting(monkeypatch):
    # records the lambda of every run handed to the stepper, per sweep
    calls, real = [], Stepper.run

    def counted(self, runs):
        calls.append([run[0] for run in runs])
        return real(self, runs)

    monkeypatch.setattr(Stepper, "run", counted)
    return calls


def test_fold_bookkeeping(monkeypatch):
    calls = _counting(monkeypatch)
    model, wave = build_coupled_wave(2.0)
    nm = Numerics(tol=1e-8)
    lam = 1.0 - 0.4j
    lams = [lam, lam.conjugate(), 2.0, lam]
    got = evans_dets(model, wave, 0.0, lams, numerics=nm)
    assert len(calls) == 1 and len(calls[0]) == 8
    assert list(dict.fromkeys(calls[0])) == [lam.conjugate(), 2.0]
    assert [s.lam for s in got] == lams
    assert _same_sample(got[0], got[3]) and got[0] is not got[3]
    assert got[0].stats is not got[1].stats and got[0].stats == got[1].stats
    for name in ("D", "d1", "d2", "d3", "d4"):
        assert getattr(got[0], name) == np.conj(getattr(got[1], name)), name
    # a spectrum supplied at Im lambda < 0 goes in as its mirror image
    calls.clear()
    given = evans_det(model, wave, 0.0, lam, numerics=nm, spec=spectrum(model, 0.0, lam))
    assert calls == [[lam.conjugate()] * 4]
    assert _same_sample(given, got[0])


def test_fold_refusal_names_callers_lambda():
    # -3i sits on the continuous spectrum; its mirror 3i is what is solved,
    # but the refusal names the point the caller passed
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(SplittingViolated, match=r"at lambda=-3j: mu=\[-4"):
        evans_dets(model, wave, 0.0, [1.0 - 0.4j, complex(0.0, -3.0)])


def test_symmetric_rectangle_folds(monkeypatch):
    # the benchmark rectangle: 48 boundary points, each below the axis with
    # its exact conjugate above it, so the stepper sees 25 distinct lambda,
    # none below the axis, and refinement midpoints fold alike
    path = _rect_path((0.5, 3.0, -0.8, 0.8), 12)
    assert len(path) == 49 and path[0] == path[-1] == 0.5 - 0.8j
    assert all(z.conjugate() in path for z in path)
    calls = _counting(monkeypatch)
    model, wave = build_coupled_wave(1.0)
    assert winding_count(model, wave, 0.0, (0.5, 3.0, -0.8, 0.8)) == 2
    assert len(set(calls[0])) == 25
    assert all(lam.imag >= 0 for call in calls for lam in call)


@pytest.mark.parametrize("call", [
    lambda m, w: spectrum(m, 0.0, 1e200),
    lambda m, w: spectrum(m, 0.3, 1e17j),
    lambda m, w: spectra(m, 0.0, [1.0, 1e300 - 1e300j]),
    lambda m, w: continuous_spectrum_distance(m, 0.0, 1e308),
    lambda m, w: real_axis_scan(m, w, 0.0, 1e200, n=3),
], ids=["spectrum-1e200", "spectrum-1e17i", "spectra-1e300", "distance-1e308", "scan-1e200"])
def test_huge_lambda_refused(call):
    # these used to overflow in |A|_F and read as a lambda on the continuous
    # spectrum (SplittingViolated), or fail in LAPACK
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(BadParameter, match="swamps B_inf"):
        call(model, wave)


@pytest.mark.parametrize("bad", [
    {"L": 0.0}, {"L": -5.0}, {"L": math.nan}, {"L": math.inf},
    {"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf},
    {"h": -0.1}, {"h": math.nan}, {"h": math.inf},
])
def test_numerics_refuses_bad_values(bad):
    # L = 0 used to give D = 1 after zero steps, the lambda -> infinity limit,
    # L < 0 a huge D, and h = NaN an untyped ValueError deep in the spectrum
    with pytest.raises(BadParameter, match=next(iter(bad))):
        Numerics(**bad)


@pytest.mark.parametrize("call", [
    lambda m, w: spectrum(m, 0.0, math.inf),
    lambda m, w: spectrum(m, 0.0, 1j * math.inf),
    lambda m, w: spectra(m, 0.0, [1.0, complex(math.nan, 0.0)]),
    lambda m, w: continuous_spectrum_distance(m, 0.0, 1j * math.inf),
    lambda m, w: real_axis_scan(m, w, 0.0, math.inf),
    lambda m, w: real_axis_scan(m, w, 0.0, math.nan),
], ids=["spectrum-inf", "spectrum-inf-i", "spectra-nan", "distance-inf-i",
        "scan-inf", "scan-nan"])
def test_non_finite_lambda_refused(call):
    # these used to warn (inf times M's zero entries) before an untyped
    # ValueError, and lam_max = NaN slipped past the scan's lam_max <= 0 test
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(BadParameter, match="finite"):
        call(model, wave)


def test_numerics_accepts_good_values():
    nm = Numerics(tol=1e-9, L=15.0, h=0.05)
    assert (nm.tol, nm.L, nm.h) == (1e-9, 15.0, 0.05)
    assert Numerics().L is None


@pytest.mark.parametrize("call", [
    lambda m, w, k: winding_count(m, w, 0.0, (0.5, 3.0, -0.8, 0.8), m_per_edge=k),
    lambda m, w, k: real_axis_scan(m, w, 0.0, 3.0, n=k),
], ids=["contour", "scan"])
@pytest.mark.parametrize("k", [0, -3, 2.5, 2.7, math.nan, math.inf, "12", True,
                               pytest.param(10 ** 400, id="10**400")])
def test_sample_counts_refused(call, k):
    # m_per_edge = 0 used to count 0 roots where the closed form has 2, and
    # n = 2.7 to scan 2 samples and miss the root at sqrt 2; -3, NaN and inf
    # ended in numpy's ValueError, TypeError or OverflowError.  A string is
    # no count either, nor is a bool: m_per_edge = True counted 0 roots.
    # 10**400, beyond float range, ended in numpy's ValueError (contour) or
    # an OverflowError (scan)
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(BadParameter, match="must be an integer of at least"):
        call(model, wave, k)


def test_sample_counts_accept_numpy_integers():
    model, wave = build_coupled_wave(1.0)
    nm = Numerics(tol=1e-9)
    got = real_axis_scan(model, wave, 0.0, 3.0, n=np.int64(13), numerics=nm)
    assert got.roots == real_axis_scan(model, wave, 0.0, 3.0, n=13, numerics=nm).roots
    assert len(got.roots) == 2
    assert winding_count(model, wave, 0.0, (0.5, 3.0, -0.8, 0.8), m_per_edge=np.int32(2)) == 2


def test_ratio_matches_closed_form():
    model, wave = build_coupled_wave(1.0)
    a = evans_det(model, wave, 0.0, 1.0).D.real
    b = evans_det(model, wave, 0.0, 1.5).D.real
    o = oracle_coupled_wave(1.0, 0.0)
    want = o.evans_det(1.5) / o.evans_det(1.0)
    assert abs(b / a - want) <= 1e-6 * abs(want)
    assert abs(b / a - (-0.4130081122212993)) <= 1e-8


def test_large_lambda_against_oracle():
    # one call: D rises towards its limit 1 along lambda = 10, 20, 22.3, 40,
    # 80, 120, 135, 157.7, 200; all but 10 and 80, and 5 + 30i, are regression
    # points of the spectra solve (a close pair of large exponents at 120 and
    # above, and non-integer lambda above 20)
    model, wave = build_coupled_wave(1.0)
    o = oracle_coupled_wave(1.0, 0.0)
    lams = [10.0, 20.0, 22.3, 40.0, 80.0, 120.0, 135.0, 157.7, 200.0, 5.0 + 30.0j]
    got = {s.lam: s.D for s in evans_dets(model, wave, 0.0, lams, numerics=Numerics(tol=1e-9))}
    err = {lam: abs(got[lam] / o.evans_det(lam) - 1.0) for lam in lams}
    real = [got[lam].real for lam in lams[:9]]
    assert 0.0 < real[0] and all(a < b for a, b in zip(real, real[1:])) and real[-1] < 1.0
    assert all(abs(got[lam].imag) <= 1e-12 for lam in lams[:9])
    assert max(err[lam] for lam in lams[:9]) <= 1e-9
    assert max(err[lam] for lam in (20.0, 22.3, 40.0, 120.0, 135.0, 157.7, 200.0,
                                    5.0 + 30.0j)) <= 1e-10


# D, d1..d4 as float.hex (real, imag) and the StepStats of u3, u4, w3, w4
# (accepted, rejected, h_min.hex()); the stepper and the spectrum are
# rewritten for speed now and then, and these points must keep every bit.
# D is within 3.8e-11 and 7.7e-11 of the closed form at the stencil and
# complex points, relative.  At the zero pattern the closed form is 0 and D
# (9.3e-19) sits on the rounding floor of test_zero_pattern_at_origin, so
# its bits, and d1's and d3's, move with any change of rounding order
_GOLDEN = {
    (1.0, 0.0, 1e-10, 0.0): (
        {"D": ("0x1.117448caecdf0p-60", "-0x0.0p+0"),
         "d1": ("-0x1.0f501e2a0bcc1p-52", "0x0.0p+0"),
         "d2": ("-0x1.02050e2a85f8fp-8", "0x0.0p+0"),
         "d3": ("-0x1.1e510d2d473cfp-39", "0x0.0p+0"),
         "d4": ("0x1.4edc45eb8c6a2p-40", "0x0.0p+0")},
        {"u3": (295, 0, "0x1.34d168a510a1cp-7"), "u4": (295, 0, "0x1.34d168a510a1cp-7"),
         "w3": (295, 0, "0x1.34d168a510a1cp-7"), "w4": (295, 0, "0x1.34d168a510a1cp-7")}),
    (1.0, 0.3, 1e-10, 0.05): (
        {"D": ("0x1.8294c64251f23p-25", "0x0.0p+0"),
         "d1": ("-0x1.7fd237f5135b4p-17", "0x0.0p+0"),
         "d2": ("-0x1.01d741b807983p-8", "0x0.0p+0"),
         "d3": ("-0x1.6ca846aede487p-39", "0x0.0p+0"),
         "d4": ("-0x1.69ef6a9e340ffp-39", "0x0.0p+0")},
        {"u3": (294, 0, "0x1.1e35c1f929ea2p-7"), "u4": (294, 0, "0x1.1e35c1f929ea2p-7"),
         "w3": (294, 0, "0x1.1e35c1f929ea2p-7"), "w4": (294, 0, "0x1.1e35c1f929ea2p-7")}),
    (2.0, 0.0, 1e-8, 1.0 + 0.4j): (
        {"D": ("-0x1.e5b8111c8ef80p-17", "-0x1.65ed2d3a1b92ep-16"),
         "d1": ("-0x1.bc32f10755210p-9", "-0x1.ee7d2217e09b6p-10"),
         "d2": ("0x1.8508e111f18eap-8", "0x1.880a084495172p-9"),
         "d3": ("-0x1.33e3f39ad5000p-25", "0x1.b2286a2286000p-25"),
         "d4": ("0x1.83da1ecd62000p-24", "-0x1.b0f6c01001000p-24")},
        {"u3": (137, 0, "0x1.3ebc1cc328300p-6"), "u4": (137, 0, "0x1.3ebc1cc328300p-6"),
         "w3": (137, 0, "0x1.3ebc1cc328300p-6"), "w4": (137, 0, "0x1.3ebc1cc328300p-6")}),
    # the mirror of the complex point: the bitwise conjugate, the same steps
    (2.0, 0.0, 1e-8, 1.0 - 0.4j): (
        {"D": ("-0x1.e5b8111c8ef80p-17", "0x1.65ed2d3a1b92ep-16"),
         "d1": ("-0x1.bc32f10755210p-9", "0x1.ee7d2217e09b6p-10"),
         "d2": ("0x1.8508e111f18eap-8", "-0x1.880a084495172p-9"),
         "d3": ("-0x1.33e3f39ad5000p-25", "-0x1.b2286a2286000p-25"),
         "d4": ("0x1.83da1ecd62000p-24", "0x1.b0f6c01001000p-24")},
        {"u3": (137, 0, "0x1.3ebc1cc328300p-6"), "u4": (137, 0, "0x1.3ebc1cc328300p-6"),
         "w3": (137, 0, "0x1.3ebc1cc328300p-6"), "w4": (137, 0, "0x1.3ebc1cc328300p-6")}),
}


@pytest.mark.parametrize("point", list(_GOLDEN),
                         ids=["zero-pattern", "stencil", "complex", "complex-mirror"])
def test_golden_bits(point):
    # the zero-pattern point sits on a rounding floor (test_zero_pattern_at_origin),
    # so any change of bits there is caught here first, deterministically
    p, c, tol, lam = point
    model, wave = build_coupled_wave(p)
    s = evans_det(model, wave, c, lam, numerics=Numerics(tol=tol))
    values, stats = _GOLDEN[point]
    for name, (re, im) in values.items():
        z = getattr(s, name)
        assert (z.real.hex(), z.imag.hex()) == (re, im), name
    assert {k: (v.accepted, v.rejected, v.h_min.hex()) for k, v in s.stats.items()} == stats


def test_zero_pattern_at_origin():
    # d3 = Om(w3, u4) and d4 = Om(w4, u3) vanish at lambda = 0, but two-mode
    # shooting leaves them on a rounding floor, not at integrator error.
    # u3, rescaled by exp(-mu3 xi), picks up rounding of relative size eps
    # along zeta_4 near its seed at -L; against u3 that part grows by
    # exp((mu4 - mu3) xi) on the way to 0, and w4 pairs with it.  w3 picks up
    # eta_4 from +L alike.  So |d3|, |d4| ~ eps exp((mu4 - mu3) L) |d2|: at
    # p = 1, c = 0 that is 5.1e-13 |d2| at L = 12 and 9.0e-11 |d2| at the
    # default L = 20, where a 1e-10 bound passes or fails by rounding luck.
    # The bounds are asserted at L = 12, 200x above the floor (|zhat(12)| is
    # 3e-10, inside the CLI's 1e-8 tail check), and at the default L the
    # cross pairings are held to 64 times the floor.
    model, wave = build_coupled_wave(1.0)
    s = evans_det(model, wave, 0.0, 0.0, numerics=Numerics(L=12.0))
    scale = abs(s.d2)
    assert abs(s.d1) <= 1e-10 * scale
    assert abs(s.d3) <= 1e-10 * scale
    assert abs(s.d4) <= 1e-10 * scale
    assert abs(s.D) <= 1e-8 * scale ** 2
    # the surviving corner is minus the transversality pairing
    assert abs(s.d2 - (-0.0039370688996)) <= 1e-6 * scale

    sp = spectrum(model, 0.0, 0.0)
    s = evans_det(model, wave, 0.0, 0.0, spec=sp)
    floor = np.finfo(float).eps * np.exp((sp.mu[3] - sp.mu[2]).real * wave.default_L(0.0))
    assert max(abs(s.d3), abs(s.d4)) <= 64 * floor * abs(s.d2)


def test_wedge_equals_det_times_orientation_constant():
    model, wave = build_coupled_wave(1.0)
    for lam in (0.5, 1.0, 1.5):
        sp = spectrum(model, 0.3, lam)
        det = evans_det(model, wave, 0.3, lam, spec=sp)
        W = evans_wedge(model, wave, 0.3, lam, spec=sp)
        assert abs(W - det.D * sp.Kconst) <= 1e-6 * abs(W)
        assert eta_identity_residual(model, sp) <= 1e-10


def _frozen_coupled():
    # the coupled wave's system at infinity on the whole line: every mode is
    # an exact exponential
    model, _ = build_coupled_wave(1.0)
    binf = model.binf()
    frozen = MultisymplecticModel(CANONICAL_M, CANONICAL_K,
                                  lambda z: binf @ z, lambda z: binf)
    zero = lambda xi, c: np.zeros(4)
    return frozen, WaveFamily(zhat=zero, zhat_xi=zero, zhat_c=zero, decay_rate=lambda c: 2.0)


def test_wedge_of_frozen_model_is_kconst():
    frozen, fwave = _frozen_coupled()
    sp = spectrum(frozen, 0.0, 0.8)
    W = evans_wedge(frozen, fwave, 0.0, 0.8, spec=sp)
    assert abs(W - sp.Kconst) <= 1e-8 * abs(sp.Kconst)


def test_cross_pairing_rebalanced_to_matching_point():
    # once u4 carries a zeta_3 part and w3 an eta_4 part, d3 = Om(w3, u4)
    # is nonzero and, rebalanced by exp((mu_4 - mu_3) xi_star), the same at
    # every matching point; D alone does not see the rebalancing (d4 ~ 0)
    frozen, fwave = _frozen_coupled()
    sp = spectrum(frozen, 0.0, 0.8)
    eta, zeta = sp.eta.copy(), sp.zeta.copy()
    eta[2] += eta[3]
    zeta[3] += zeta[2]
    mixed = dataclasses.replace(sp, eta=eta, zeta=zeta)
    d3 = [evans_det(frozen, fwave, 0.0, 0.8, numerics=Numerics(L=6), spec=mixed,
                    xi_star=x).d3 for x in (0.0, 0.5, -1.5)]
    assert abs(d3[0]) > 30.0
    assert max(abs(d - d3[0]) for d in d3) <= 1e-10 * abs(d3[0])


def test_conjugate_symmetry():
    # a real model gives D(conj lambda) = conj D(lambda), to the bit
    model, wave = build_coupled_wave(1.0)
    a = evans_det(model, wave, 0.0, 1.0 + 0.4j)
    b = evans_det(model, wave, 0.0, 1.0 - 0.4j)
    for name in ("D", "d1", "d2", "d3", "d4"):
        assert getattr(b, name) == np.conj(getattr(a, name)), name


def test_matching_point_shift_invariance():
    model, wave = build_coupled_wave(1.0)
    base = evans_det(model, wave, 0.0, 1.0).D
    shifted = evans_det(model, wave, 0.0, 1.0, xi_star=0.5).D
    assert abs(shifted - base) <= 1e-8 * abs(base)


def test_mode_swap_and_rescale_invariance():
    model, wave = build_coupled_wave(1.0)
    sp = spectrum(model, 0.0, 1.0)
    base = evans_det(model, wave, 0.0, 1.0, spec=sp).D
    z, e, mu = sp.zeta.copy(), sp.eta.copy(), sp.mu.copy()
    z[[2, 3]] = z[[3, 2]]
    e[[2, 3]] = e[[3, 2]]
    mu[[2, 3]] = mu[[3, 2]]
    swapped = dataclasses.replace(sp, zeta=z, eta=e, mu=mu)
    assert abs(evans_det(model, wave, 0.0, 1.0, spec=swapped).D - base) <= 1e-10 * abs(base)
    z, e = sp.zeta.copy(), sp.eta.copy()
    z[3] = 2.7 * z[3]
    e[3] = e[3] / 2.7
    rescaled = dataclasses.replace(sp, zeta=z, eta=e, Kconst=2.7 * sp.Kconst)
    assert abs(evans_det(model, wave, 0.0, 1.0, spec=rescaled).D - base) <= 1e-10 * abs(base)


def test_derivatives_at_origin():
    model, wave = build_coupled_wave(1.0)
    d = derivatives_at_zero(model, wave, 0.0)
    assert abs(d.D0) <= 1e-8 * d.scale
    assert abs(d.D1) <= 1e-6 * d.scale
    assert abs(d.D2_raw - 3.2808978609154414e-05) <= 1e-4 * abs(d.D2_raw)
    assert abs(d.D2_scaled - d.D2_raw / 2) == 0.0


def test_second_derivative_sign_flips_at_large_p():
    model, wave = build_coupled_wave(2.0)
    d = derivatives_at_zero(model, wave, 0.0)
    assert d.D2_raw < 0
    assert abs(d.D2_raw - (-2.566772625861261e-05)) <= 1e-4 * abs(d.D2_raw)


def test_step_guard():
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(StepTooLarge):
        derivatives_at_zero(model, wave, 0.0, numerics=Numerics(h=1.0))


@pytest.mark.parametrize("h", [1e-20, 1e-300])
def test_step_too_small_refused(h):
    # from h = 1e-19 down the five stencil samples are bit-equal, so the fit
    # guard saw no residual: D'' came out 0, and at h = 1e-300, where h^2
    # underflows, NaN after two RuntimeWarnings (errors in this suite)
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(Degenerate, match=f"h={h} is too small"):
        derivatives_at_zero(model, wave, 0.3, numerics=Numerics(h=h))


def test_non_finite_second_derivative_refused():
    # samples of a parabola that differ, at an h whose square underflows to
    # 0: they pass the fit guard, but D'' is a division by 0, refused
    # without a warning
    h = 1e-170
    vals = [1.0, 1.0 + 1e-12, 1.0 + 1e-12, 1.0 + 4e-12, 1.0 + 4e-12]
    samples = [SimpleNamespace(D=np.complex128(v)) for v in vals]
    with pytest.raises(Degenerate, match="h=1e-170 gives a non-finite"):
        _derivatives(h, samples)


def test_scan_below_first_root():
    model, wave = build_coupled_wave(1.0)
    r = real_axis_scan(model, wave, 0.0, 1.2, n=7, numerics=Numerics(tol=1e-9))
    assert r.brackets == [] and r.roots == []
    assert r.d_inf == 1
    assert np.all(r.values.real > 0)


@pytest.mark.parametrize("p, c", [(0.8, -0.2), (1.2, 0.4), (2.3, 0.3)])
def test_scan_roots_match_closed_form(p, c):
    # roots at sqrt(5 - 3p)/alpha (for p < 5/3) and sqrt(5)/alpha
    model, wave = build_coupled_wave(p)
    r = real_axis_scan(model, wave, c, 3.0, n=13, numerics=Numerics(tol=1e-9))
    alpha = 1.0 / math.sqrt(1.0 - c * c)
    want = [math.sqrt(5.0 - 3.0 * p) / alpha] if p < 5.0 / 3.0 else []
    want.append(math.sqrt(5.0) / alpha)
    assert len(r.roots) == len(want) == len(r.brackets)
    for got, w, (lo, hi) in zip(r.roots, want, r.brackets):
        assert abs(got - w) <= ROOT_XTOL and lo < got < hi


class _Batched:
    """A scalar function evaluated point by point in batches, counting them and their sizes."""

    def __init__(self, g):
        self.g, self.calls, self.sizes = g, 0, []

    def __call__(self, xs):
        self.calls += 1
        self.sizes.append(len(xs))
        return [self.g(x) for x in xs]


def _grid_brackets(g, n):
    xs = np.linspace(0.0, 3.0, n).tolist()
    known = {x: g(x) for x in xs}
    return [(a, b) for a, b in zip(xs, xs[1:]) if known[a] * known[b] < 0], known


_CUBICS = st.tuples(st.just("cubic"), st.floats(-1e3, 1e3).filter(lambda a: abs(a) > 1e-3),
                    st.lists(st.floats(0.05, 2.95), min_size=3, max_size=3))
_STEPS = st.tuples(st.just("tanh"), st.floats(0.5, 1e4),
                   st.lists(st.floats(0.05, 2.95), min_size=1, max_size=1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_CUBICS, _STEPS), st.integers(3, 40))
@example(("cubic", 1.5, [1.625, 1.59375, 1.59375]), 3)   # a barycentric denominator of 0
def test_polish_keeps_brackets_and_finds_roots(family, n):
    kind, a, roots = family
    if kind == "cubic":
        def g(x):
            return a * (x - roots[0]) * (x - roots[1]) * (x - roots[2])
    else:
        def g(x):
            return math.tanh(a * (x - roots[0]))
    brackets, known = _grid_brackets(g, n)
    f = _Batched(g)
    out, rounds = _polish(f, brackets, known)
    assert len(out) == len(brackets)
    assert f.calls == rounds < _POLISH_ROUNDS
    if brackets:
        # every round at least halves every open bracket
        w0 = max(hi - lo for lo, hi in brackets)
        assert rounds <= math.ceil(math.log2(w0 / (2 * ROOT_XTOL))) + 1
    for (lo0, hi0), (lo, hi) in zip(brackets, out):
        assert lo0 <= lo <= hi <= hi0
        if lo == hi:
            assert g(lo) == 0.0   # ended on an exact-zero sample
        else:
            assert hi - lo <= 2 * ROOT_XTOL
            assert (g(lo) < 0) != (g(hi) < 0) and g(lo) != 0.0 != g(hi)
        mid = 0.5 * (lo + hi)
        assert min(abs(mid - r) for r in roots if lo0 < r < hi0) <= ROOT_XTOL


def test_polish_ends_on_exact_zero():
    # the first round's midpoint lands on the root
    f = _Batched(lambda x: math.tanh(40.0 * (x - 1.25)))
    out, rounds = _polish(f, [(1.0, 1.5)], {1.0: f.g(1.0), 1.5: f.g(1.5)})
    assert out == [(1.25, 1.25)] and rounds == f.calls == 1


def test_polish_closing_round_skips_the_estimate():
    # e^x - 3.5 on (1, 1.5): the first round knows the bracket ends alone
    # and asks for the midpoint only; in the third round the zeros through
    # 7 and 5 known points are within ROOT_XTOL / 2, so that round asks for
    # the midpoint and est -+ ROOT_XTOL / 2 only, 3 points where est made 4,
    # and they close the bracket around log 3.5
    f = _Batched(lambda x: math.exp(x) - 3.5)
    out, rounds = _polish(f, [(1.0, 1.5)], {1.0: f.g(1.0), 1.5: f.g(1.5)})
    assert f.sizes == [1, 4, 3] and rounds == 3
    [(lo, hi)] = out
    assert lo < math.log(3.5) < hi and hi - lo <= 2 * ROOT_XTOL


def test_polish_round_cap():
    # a bracket two floats wide near 1e7 cannot reach width 2 ROOT_XTOL
    lo = 1e7
    hi = float(np.nextafter(lo, 2 * lo))
    f = _Batched(lambda x: x - lo - 1e-9)
    with pytest.raises(NoConverge):
        _polish(f, [(lo, hi)], {lo: f.g(lo), hi: f.g(hi)})


@pytest.mark.parametrize("n, p, sweeps, squares", [(13, 1.0, [13, 8, 6], [2.0, 5.0]),
                                                   (13, 2.0, [13, 4, 3], [5.0]),
                                                   (7, 1.0, [7, 8, 6], [2.0, 5.0]),
                                                   (7, 2.0, [7, 4, 3], [5.0]),
                                                   (3, 1.0, [3, 7, 8, 6], [2.0, 5.0]),
                                                   (3, 2.0, [3, 4, 4, 3], [5.0])])
def test_scan_anchor_sweeps(monkeypatch, n, p, sweeps, squares):
    # the benchmark's anchor scans (n = 13) sweep the stepper for the grid,
    # one round from the interpolant's estimates and a closing round; on
    # coarser grids the estimates of later rounds carry the polish
    sizes, real = [], Stepper.run
    monkeypatch.setattr(Stepper, "run",
                        lambda self, runs: sizes.append(len(runs) // 4) or real(self, runs))
    model, wave = build_coupled_wave(p)
    r = real_axis_scan(model, wave, 0.0, 3.0, n=n, numerics=Numerics(tol=1e-9))
    assert sizes == sweeps and r.rounds == len(sweeps) - 1
    assert len(r.roots) == len(squares)
    for got, sq in zip(r.roots, squares):
        assert abs(got - math.sqrt(sq)) <= ROOT_XTOL


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 0.5), st.lists(st.floats(0.25, 0.4), max_size=6),
       st.floats(-1e3, 1e3).filter(lambda a: abs(a) > 1e-3), st.integers(8, 40))
def test_seed_is_the_zero_of_a_polynomial(start, gaps, a, n):
    # on grid samples of a polynomial of degree at most 7, the interpolant
    # through 8 of them is the polynomial, so the seed is its root
    roots = np.cumsum([start, *gaps]).tolist()

    def g(x):
        return a * math.prod(x - r for r in roots)

    brackets, known = _grid_brackets(g, n)
    assume(brackets and min(abs(x - r) for x in known for r in roots) > 1e-3)
    for lo, hi in brackets:
        est, _ = _estimate(lo, hi, known)
        assert lo < est < hi
        assert min(abs(est - r) for r in roots if lo < r < hi) <= 1e-12


def test_estimate_needs_three_known_points():
    # an estimate is a zero through the known points nearest the bracket and
    # its error bar the distance to the zero through two fewer, or through
    # the bracket ends alone; with the ends the only known points, their
    # secant has nothing to be measured against, so there is no estimate
    # and the round bisects (test_polish_closing_round_skips_the_estimate)
    def g(x):
        return math.exp(x) - 3.5

    known = {x: g(x) for x in (1.0, 1.5)}
    assert _estimate(1.0, 1.5, known) is None
    for x in (0.5, 2.0):
        known[x] = g(x)
        est, err = _estimate(1.0, 1.5, known)
        assert 1.0 < est < 1.5 and abs(est - math.log(3.5)) <= err


def _scipy_modules_after_import(module):
    # the scipy modules a fresh interpreter holds after importing module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_evans_imports_no_scipy():
    assert _scipy_modules_after_import("evanskit.evans") == "[]"


def test_cli_imports_no_scipy():
    # the CLI imports every runtime module, so this bounds the whole package
    assert _scipy_modules_after_import("evanskit.cli") == "[]"


def test_winding_rejects_bad_contours():
    model, wave = build_coupled_wave(1.0)
    with pytest.raises(BadParameter):
        winding_count(model, wave, 0.0, (-1.0, 1.0, -0.5, 0.5))
    with pytest.raises(BadParameter):
        winding_count(model, wave, 0.0, (1.0, 0.5, -0.5, 0.5))
    for rect in ((-0.5, 0.5, 2.0, 3.0), (-0.5, 0.5, 157.0, 158.0), (-0.5, 0.5, 50.5, 51.0)):
        with pytest.raises(ContourOnSpectrum):
            winding_count(model, wave, 0.0, rect)


def test_winding_zero_free_rectangle():
    model, wave = build_coupled_wave(1.0)
    assert winding_count(model, wave, 0.0, (3.5, 4.0, -0.2, 0.2)) == 0
