import numpy as np
import pytest

from evanskit.asymptotics import continuous_spectrum_distance, spectra, spectrum
from evanskit.errors import DegenerateMu, NormalizationFail, SplittingViolated
from evanskit.model import build_coupled_wave, jc, oracle_coupled_wave


@pytest.fixture(scope="module")
def cw():
    return build_coupled_wave(1.0)


def _delta(model, c, lam, mu):
    """Delta(mu, lambda) = det(B_inf - lambda M - mu J(c))."""
    return np.linalg.det(model.binf() - lam * model.M - mu * jc(model, c))


def test_delta_at_origin(cw):
    model, _ = cw
    # det(B_inf) = 16 + 12 p
    assert _delta(model, 0.0, 0.0, 0.0) == pytest.approx(28.0, abs=1e-12)
    model2, _ = build_coupled_wave(2.0)
    assert _delta(model2, 0.0, 0.0, 0.0) == pytest.approx(40.0, abs=1e-12)


def test_delta_even_in_mu_at_rest(cw):
    model, _ = cw
    for mu in (0.3, 1.1, 2.7, 0.5 + 0.4j):
        a = _delta(model, 0.0, 0.0, mu)
        b = _delta(model, 0.0, 0.0, -mu)
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
        scale = max(1.0, abs(_delta(model, 0.3, lam, 0.0)))
        for mu in s.mu:
            assert abs(_delta(model, 0.3, lam, mu)) <= 1e-9 * scale


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


@pytest.mark.parametrize("p, c", [(1.0, 0.0), (2.0, 0.3), (0.5, -0.6)])
def test_continuous_spectrum_refused_at_large_lambda(p, c):
    # on the imaginary axis past the branch point the middle two exponents are
    # imaginary; the eigensolver leaves rounding of either sign in their real
    # parts, which must not pass for a two-two splitting
    model, _ = build_coupled_wave(p)
    for y in np.linspace(2.05, 400.0, 60):
        with pytest.raises(SplittingViolated):
            spectrum(model, c, 1j * y)


def test_continuous_spectrum_distance(cw):
    model, _ = cw
    assert continuous_spectrum_distance(model, 0.0, 2.5j) < 1e-8
    assert continuous_spectrum_distance(model, 0.0, 2.0j) < 1e-10
    # on the continuous spectrum far out, where Delta's coefficients span lambda^4
    assert continuous_spectrum_distance(model, 0.0, 50.7j) < 1e-8
    assert continuous_spectrum_distance(model, 0.0, 157.7j) < 1e-8
    assert continuous_spectrum_distance(model, 0.0, 0.0) == pytest.approx(28.0, rel=1e-9)
    assert continuous_spectrum_distance(model, 0.0, 1.0) == pytest.approx(40.0, rel=1e-6)


@pytest.mark.parametrize("p, c", [(1.0, 0.0), (2.0, 0.3), (0.5, -0.6)])
def test_continuous_spectrum_distance_is_the_minimum(p, c):
    # no sample of |Delta(i kappa)| on a dense grid lies below the
    # minimum, up to the roundoff of the sample: eps-sized against Hadamard's
    # bound, the product of the matrix's row norms
    model, _ = build_coupled_wave(p)
    kappas = np.linspace(-40.0, 40.0, 80001)
    J = jc(model, c)
    for lam in (0.0, 1.0, 0.7 + 0.2j, 3.0 - 0.8j, 2.5j, 1e-3 + 2j, -0.5 + 2.2j):
        dist = continuous_spectrum_distance(model, c, lam)
        mats = model.binf() - lam * model.M - 1j * kappas[:, None, None] * J
        grid = np.abs(np.linalg.det(mats))
        k = np.argmin(grid)
        hadamard = np.prod(np.linalg.norm(mats[k], axis=1))
        assert dist <= grid[k] * (1.0 + 1e-12) + 1e-12 * hadamard


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
    # close to |c| = 1 the eigenvector frame at lambda = 3 is too ill-conditioned
    # for the dual frame's orthonormality check; lambda = 0.5 passes
    refused = _raised(spectra, model, 0.9999, [0.5, 3.0])
    assert refused[0] is NormalizationFail and refused == _raised(spectrum, model, 0.9999, 3.0)
    # p = 2, c = 0.3, lambda = 22 solves: the exponents are eigenvalues of
    # J(c)^-1 (B_inf - lambda M), not roots of Delta coefficients
    # interpolated from determinants of size lambda^4
    model2, _ = build_coupled_wave(2.0)
    assert [_bits(s) for s in spectra(model2, 0.3, [1.0, 22.0])] == \
        [_bits(spectrum(model2, 0.3, lam)) for lam in (1.0, 22.0)]


@pytest.mark.parametrize("p, c", [(1.0, 0.0), (2.0, 0.3)])
def test_spectra_solve_large_real_lambda(p, c):
    # one call solves 400 real lambda across [1, 400], non-integers among
    # them; its exponents keep the trace identity, its frames stay real and
    # a few lambda keep the bits of their own call
    model, _ = build_coupled_wave(p)
    lams = np.linspace(1.3, 399.7, 400)
    specs = spectra(model, c, lams)
    assert [s.lam for s in specs] == [complex(lam) for lam in lams]
    for s in specs:
        assert abs(np.sum(s.mu) - s.tau * s.lam) <= 1e-12 * abs(s.lam)
        assert not np.any(s.zeta.imag) and not np.any(s.eta.imag)
    for n in (0, 21, 156, 399):
        assert _bits(specs[n]) == _bits(spectrum(model, c, lams[n]))


@pytest.mark.parametrize("p, c", [(1.0, 0.0), (2.0, 0.3)])
def test_spectra_refuse_no_integer_lambda(p, c):
    # an absolute orthonormality check once refused every integer lambda
    # from 22 to 40 at p = 2, c = 0.3 and from 102 at p = 1, c = 0
    model, _ = build_coupled_wave(p)
    lams = np.arange(1.0, 401.0)
    assert [s.lam for s in spectra(model, c, lams)] == [complex(lam) for lam in lams]
