import numpy as np
import pytest

from evanskit.asymptotics import (_delta_coeffs, _delta_poly, continuous_spectrum_distance,
                                  continuous_spectrum_distances, spectra, spectrum)
from evanskit.errors import DegenerateMu, NoConverge, SplittingViolated
from evanskit.model import build_coupled_wave, jc, oracle_coupled_wave


@pytest.fixture(scope="module")
def cw():
    return build_coupled_wave(1.0)


def test_delta_at_origin(cw):
    model, _ = cw
    # det(B_inf) = 16 + 12 p
    assert _delta_poly(model, 0.0, 0.0)(0.0) == pytest.approx(28.0, abs=1e-12)
    model2, _ = build_coupled_wave(2.0)
    assert _delta_poly(model2, 0.0, 0.0)(0.0) == pytest.approx(40.0, abs=1e-12)


def test_delta_even_in_mu_at_rest(cw):
    model, _ = cw
    for mu in (0.3, 1.1, 2.7, 0.5 + 0.4j):
        a = _delta_poly(model, 0.0, 0.0)(mu)
        b = _delta_poly(model, 0.0, 0.0)(-mu)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_mu_frozen_at_zero(cw):
    model, _ = cw
    for c in (0.0, 0.3, -0.3):
        o = oracle_coupled_wave(1.0, c)
        s = spectrum(model, c, 0.0)
        assert np.max(np.abs(s.mu - o.mu_at_zero)) < 1e-9
        assert np.max(np.abs(s.mu.imag)) == 0.0  # snapped real
        assert abs(np.sum(s.mu)) < 1e-10
        # mu_1 = -mu_4 and mu_2 = -mu_3 exactly at lambda = 0
        assert abs(s.mu[0] + s.mu[3]) < 1e-9
        assert abs(s.mu[1] + s.mu[2]) < 1e-9


def test_mu_are_delta_roots(cw):
    model, _ = cw
    for lam in (0.0, 0.7, 1.0 + 0.4j):
        s = spectrum(model, 0.3, lam)
        scale = max(1.0, abs(_delta_poly(model, 0.3, lam)(0.0)))
        for mu in s.mu:
            assert abs(_delta_poly(model, 0.3, lam)(mu)) <= 1e-9 * scale


def test_duality_normalization(cw):
    model, _ = cw
    for c, lam in ((0.0, 0.0), (0.3, 0.8 + 0.3j), (-0.3, 1.5)):
        s = spectrum(model, c, lam)
        J = jc(model, c)
        for i in range(4):
            for k in range(4):
                w = (J @ s.eta[i]) @ s.zeta[k]
                want = 1.0 if i == k else 0.0
                assert abs(w - want) <= 1e-10, (i, k, w)


def test_zeta_real_at_rest_point(cw):
    model, _ = cw
    s = spectrum(model, 0.0, 0.0)
    assert np.max(np.abs(s.zeta.imag)) < 1e-12
    assert np.max(np.abs(s.eta.imag)) < 1e-12
    for k in range(4):
        assert abs(np.linalg.norm(s.zeta[k]) - 1.0) < 1e-12
        j = int(np.argmax(np.abs(s.zeta[k])))
        assert s.zeta[k][j].real > 0


def test_kconst_and_tau(cw):
    model, _ = cw
    s = spectrum(model, 0.0, 0.0)
    assert s.Kconst == pytest.approx(-0.19049409439665052, rel=1e-8)
    assert abs(s.tau) < 1e-14
    # tau(c) = -tr(J^-1 M) = 4 c alpha^2
    for c in (0.5, 0.3, -0.6):
        s = spectrum(model, c, 1.0)
        assert s.tau == pytest.approx(4 * c / (1 - c * c), rel=1e-12)
    assert spectrum(model, 0.5, 1.0).tau == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_trace_identity_sum_mu(cw):
    model, _ = cw
    lam = 0.8 + 0.3j
    s = spectrum(model, 0.3, lam)
    assert abs(np.sum(s.mu) - s.tau * lam) < 1e-9


def test_mirror_minus_lambda(cw):
    # kernel directions at (-lambda, -mu_j) recover the dual frame
    model, _ = cw
    lam = 0.8 + 0.3j
    s = spectrum(model, 0.3, lam)
    sm = spectrum(model, 0.3, -lam)
    assert np.max(np.abs(sm.mu + s.mu[::-1])) < 1e-9
    for k in range(4):
        e = s.eta[k] / np.linalg.norm(s.eta[k])
        cos = abs(np.vdot(sm.zeta[3 - k], e))
        assert abs(cos - 1.0) < 1e-9


def test_splitting_failures(cw):
    model, _ = cw
    with pytest.raises(SplittingViolated):
        spectrum(model, 0.0, 2.5j)  # inside the continuous spectrum
    with pytest.raises(DegenerateMu):
        spectrum(model, 0.0, 2.0j)  # branch point: double exponent at 0


def test_continuous_spectrum_distance(cw):
    model, _ = cw
    assert continuous_spectrum_distance(model, 0.0, 2.5j) < 1e-8
    assert continuous_spectrum_distance(model, 0.0, 2.0j) < 1e-10
    assert continuous_spectrum_distance(model, 0.0, 0.0) == pytest.approx(28.0, rel=1e-9)
    assert continuous_spectrum_distance(model, 0.0, 1.0) == pytest.approx(40.0, rel=1e-6)


@pytest.mark.parametrize("p, c", [(1.0, 0.0), (2.0, 0.3), (0.5, -0.6)])
def test_continuous_spectrum_distance_is_the_minimum(p, c):
    # no sample of |Delta(i kappa)| on a dense grid lies below the minimum,
    # up to the roundoff of evaluating Delta
    model, _ = build_coupled_wave(p)
    kappas = np.linspace(-40.0, 40.0, 80001)
    for lam in (0.0, 1.0, 0.7 + 0.2j, 3.0 - 0.8j, 2.5j, 1e-3 + 2j, -0.5 + 2.2j):
        dist = continuous_spectrum_distance(model, c, lam)
        coeffs = _delta_poly(model, c, lam).coeffs
        grid = np.abs(np.polyval(coeffs[::-1], 1j * kappas))
        assert dist <= np.min(grid) * (1.0 + 1e-12) + 1e-12 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("p, c, seed", [(1.0, 0.0, 1), (2.0, 0.3, 2), (0.5, -0.6, 3)])
def test_batched_distances_equal_singletons(p, c, seed):
    # one _delta_coeffs call for a batch gives every lambda the bits of its own
    # call: the Delta coefficients and the continuous-spectrum distances
    model, _ = build_coupled_wave(p)
    rng = np.random.default_rng(seed)
    re, im = np.linspace(0.5, 3.0, 12), np.linspace(-0.8, 0.8, 12)
    edge = (list(re - 0.8j) + list(3.0 + 1j * im) + list(re[::-1] + 0.8j)
            + list(0.5 + 1j * im[::-1]))
    lams = (edge + list(rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20))
            + list(rng.uniform(0, 4, 10)) + [0.0, 0.05, -0.1, 2.5j, 2.0j, 1e-3 + 2j])
    dists = continuous_spectrum_distances(model, c, lams)
    coeffs = _delta_coeffs(model, c, lams)
    assert dists.shape == (len(lams),) and coeffs.shape == (len(lams), 5)
    for lam, d, co in zip(lams, dists, coeffs):
        assert float(d).hex() == continuous_spectrum_distance(model, c, lam).hex()
        assert co.tobytes() == _delta_poly(model, c, lam).coeffs.tobytes()


def _bits(s):
    return (s.c, s.lam, s.mu.tobytes(), s.zeta.tobytes(), s.eta.tobytes(),
            np.complex128(s.Kconst).tobytes(), np.float64(s.tau).tobytes())


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("c", [0.0, 0.3])
def test_spectra_equal_singletons_bit_for_bit(cw, c):
    model, _ = cw
    re, im = np.linspace(0.5, 3.0, 12), np.linspace(-0.8, 0.8, 12)
    edge = (list(re - 0.8j) + list(3.0 + 1j * im) + list(re[::-1] + 0.8j)
            + list(0.5 + 1j * im[::-1]))
    stencil = [0.0, 0.05, -0.05, 0.1, -0.1, 3.0]
    lams = stencil + edge[:40] + [0.7 + 0.2j, 0.0]   # 48, two of them repeated
    want = {lam: _bits(spectrum(model, c, lam)) for lam in lams + [1.0 + 0.5j, 2.0]}
    for batch in ([1.0 + 0.5j], [0.7 + 0.2j, 2.0], lams, lams[::-1]):
        assert [_bits(s) for s in spectra(model, c, batch)] == [want[lam] for lam in batch]


def test_spectra_raise_first_failing_lambda(cw):
    model, _ = cw
    assert _raised(spectra, model, 0.0, [1.0, 2.5j, 2.0j]) == \
        _raised(spectrum, model, 0.0, 2.5j)
    assert _raised(spectra, model, 0.0, [1.0, 2.5j, 2.0j])[0] is SplittingViolated
    assert _raised(spectra, model, 0.0, [1.0, 2.0j, 2.5j])[0] is DegenerateMu
    # Durand-Kerner stalls at lambda = 135 but converges at 18 and 30
    stall = _raised(spectra, model, 0.0, [1.0, 135.0])
    assert stall[0] is NoConverge and stall == _raised(spectrum, model, 0.0, 135.0)
    assert [_bits(s) for s in spectra(model, 0.0, [18.0, 30.0])] == \
        [_bits(spectrum(model, 0.0, lam)) for lam in (18.0, 30.0)]
