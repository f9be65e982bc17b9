import numpy as np
import pytest

from evanskit.errors import BadParameter, NonSkew, NotReversor, SingularJc
from evanskit.model import (CANONICAL_K, CANONICAL_M, REVERSOR,
                            MultisymplecticModel, WaveFamily,
                            build_coupled_wave, build_dirac, jc,
                            oracle_coupled_wave, verify_wave)


def test_canonical_pair_skew_and_commuting():
    assert np.array_equal(CANONICAL_M, -CANONICAL_M.T)
    assert np.array_equal(CANONICAL_K, -CANONICAL_K.T)
    assert np.array_equal(CANONICAL_M @ CANONICAL_K, CANONICAL_K @ CANONICAL_M)


def test_jc_det_and_singular_guard():
    model, _ = build_coupled_wave(1.0)
    for c in (0.0, 0.5, -0.3):
        assert abs(np.linalg.det(jc(model, c)) - (1 - c * c) ** 2) < 1e-14
    with pytest.raises(SingularJc):
        jc(model, 1.0)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_jc_refuses_non_finite_speed(c):
    # refused before K + cM is formed, so no numpy warning either
    model, _ = build_coupled_wave(1.0)
    with pytest.raises(BadParameter, match="c must be finite"):
        jc(model, c)


def test_model_rejects_nonskew():
    with pytest.raises(NonSkew):
        MultisymplecticModel(np.eye(4), CANONICAL_K,
                             lambda z: z, lambda z: np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tag", ["M", "K"])
def test_model_rejects_non_finite_matrices(tag, bad):
    # refused at construction, before the skew test, which a NaN passes,
    # and before any numpy warning; so is a non-finite R, as no reversor
    model, _ = build_coupled_wave(1.0)
    mats = {"M": model.M.copy(), "K": model.K.copy()}
    mats[tag][0, 2] = bad
    with pytest.raises(BadParameter, match=f"{tag} must be finite"):
        MultisymplecticModel(mats["M"], mats["K"], model.gradS, model.hessS)
    r = REVERSOR.copy()
    r[0, 2] = bad
    with pytest.raises(NotReversor):
        MultisymplecticModel(model.M, model.K, model.gradS, model.hessS, R=r)


def test_coupled_wave_requires_positive_p():
    with pytest.raises(BadParameter):
        build_coupled_wave(0.0)
    with pytest.raises(BadParameter):
        build_coupled_wave(-0.5)


def test_coupled_wave_hessian_at_origin():
    model, _ = build_coupled_wave(1.0)
    expect = np.array([[8, 0, 0, -2],
                       [0, 1, 0, 0],
                       [0, 0, -1, 0],
                       [-2, 0, 0, -3]], float)
    assert np.array_equal(model.binf(), expect)


def test_grad_hess_consistency():
    # hessS columns match centered differences of gradS to 1e-6
    rng = np.random.default_rng(11)
    model = build_coupled_wave(1.5)[0]
    for _ in range(20):
        z = rng.uniform(-1, 1, 4)
        h = model.hessS(z)
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1e-6
            fd = (model.gradS(z + e) - model.gradS(z - e)) / 2e-6
            assert np.max(np.abs(fd - h[:, k])) < 1e-6


def test_hessian_stacks_over_trailing_axis():
    # z of shape (4, N) maps to (N, 4, 4), each matrix equal to the
    # per-column call exactly
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, (4, 7))
    model = build_coupled_wave(1.5)[0]
    stack = model.hessS(z)
    assert stack.shape == (7, 4, 4)
    for n in range(7):
        assert np.array_equal(stack[n], model.hessS(z[:, n]))


def test_profile_broadcasts_over_xi():
    _, wave = build_coupled_wave(1.0)
    xi = np.linspace(-3.0, 3.0, 5)
    z = wave.zhat(xi, 0.3)
    assert z.shape == (4, 5)
    for n, x in enumerate(xi):
        assert np.array_equal(z[:, n], wave.zhat(x, 0.3))


def test_wave_residuals_small():
    model, wave = build_coupled_wave(1.0)
    for c in (0.0, 0.3, -0.3, 0.6):
        chk = verify_wave(model, wave, c)
        assert chk.max_residual() <= 1e-8, (c, chk)
        assert chk.tail_norm <= 1e-12


def test_wave_residuals_catch_perturbation():
    model, wave = build_coupled_wave(1.0)
    broken = WaveFamily(
        zhat=lambda xi, c: wave.zhat(xi, c) * (1 + 1e-2),
        zhat_xi=wave.zhat_xi, zhat_c=wave.zhat_c,
        decay_rate=wave.decay_rate)
    chk = verify_wave(model, broken, 0.0)
    assert chk.max_residual() > 1e-3


def test_zhat_c_matches_finite_difference():
    _, wave = build_coupled_wave(1.0)
    dc = 1e-4
    for c in (0.0, 0.3, -0.45):
        for xi in (-3.0, -0.7, 0.0, 1.2, 5.0):
            fd = (wave.zhat(xi, c + dc) - wave.zhat(xi, c - dc)) / (2 * dc)
            assert np.max(np.abs(wave.zhat_c(xi, c) - fd)) < 1e-6


def test_reversor_structure():
    model, wave = build_coupled_wave(2.0)
    R = model.R
    assert np.array_equal(R @ R, np.eye(4))
    assert np.array_equal(R @ model.M, -model.M @ R)
    assert np.array_equal(R @ model.K, -model.K @ R)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.uniform(-2, 2, 4)
        assert np.max(np.abs(model.gradS(R @ z) - R @ model.gradS(z))) == 0.0
    # profile reversibility: R zhat(-xi) = zhat(xi)
    for xi in (-2.0, 0.5, 1.7):
        assert np.max(np.abs(R @ wave.zhat(-xi, 0.0) - wave.zhat(xi, 0.0))) < 1e-12


@pytest.mark.parametrize("R", [
    np.eye(4),                            # an involution that commutes with M and K
    2.0 * REVERSOR,                       # anticommutes, but R R = 4 I
    np.diag([1.0, 1.0, -1.0, -1.0]),      # R R = I and R K = -K R, not R M = -M R
    np.diag([1.0, -1.0, 1.0, -1.0]),      # R R = I and R M = -M R, not R K = -K R
    REVERSOR[:3, :3],                     # not 4x4
], ids=["identity", "scaled", "fails-M", "fails-K", "3x3"])
def test_model_rejects_bad_reversor(R):
    # the stepper reflects w-runs through R, so R must satisfy R R = I,
    # R M = -M R and R K = -K R exactly, as the clifford suite checks
    model, _ = build_coupled_wave(1.0)
    with pytest.raises(NotReversor):
        MultisymplecticModel(model.M, model.K, model.gradS, model.hessS, R=R)
    for good in (REVERSOR, -REVERSOR, REVERSOR.astype(int)):
        kept = MultisymplecticModel(model.M, model.K, model.gradS, model.hessS, R=good)
        assert kept.R.dtype == float and np.array_equal(kept.R, good)


def test_dirac_clifford_relations():
    d = build_dirac()
    gens = (d.J1, d.J2)
    for i in range(2):
        for j in range(2):
            anti = gens[i] @ gens[j] + gens[j] @ gens[i]
            assert np.array_equal(anti, -2 * d.metric[i, j] * np.eye(4, dtype=int))
    assert np.array_equal(d.R4 @ d.J1, CANONICAL_M)
    assert np.array_equal(d.R4 @ d.J2, CANONICAL_K)


def test_oracle_frozen_values():
    o = oracle_coupled_wave(1.0, 0.0)
    assert o.psi_plus(0.0) == pytest.approx(np.sqrt(7) / 5, abs=1e-14)
    assert o.psi_minus(0.0) == pytest.approx(-np.sqrt(7) / 5, abs=1e-14)
    assert o.chi == pytest.approx(-1.302083e-3, rel=1e-6)
    # y = 1: P = 4 * 4 * 7 * 4 * 1, f1 = (36 + 16 sqrt 5) / 15, f2 = (54 + 38 sqrt 2) / 15
    f1, f2 = (36 + 16 * np.sqrt(5)) / 15, (54 + 38 * np.sqrt(2)) / 15
    assert o.quintic(1.0) == 448
    want = 16 * 448 / (810000 * f1 ** 2 * f2 ** 2)
    assert o.evans_det(1.0) == pytest.approx(want, rel=1e-14)
    assert o.dIdc == -3.2
    assert np.allclose(o.mu_at_zero, [-np.sqrt(7), -2, 2, np.sqrt(7)])
    o6 = oracle_coupled_wave(1.0, 0.6)
    assert o6.momentum == pytest.approx(-2.4, abs=1e-12)
    assert o6.dIdc == pytest.approx(-6.25, abs=1e-12)
    # momentum at c=0.3 from the closed form -16 c alpha / 5
    o3 = oracle_coupled_wave(1.0, 0.3)
    assert o3.momentum == pytest.approx(-1.0063534432530414, abs=1e-12)


def test_oracle_evans_det_tends_to_one():
    # with Omega(eta_i, zeta_j) = delta_ij, D -> 1 as lambda -> +infinity:
    # the sign of D there is +1
    o = oracle_coupled_wave(1.0, 0.0)
    d = [o.evans_det(lam).real for lam in (1e2, 1e4, 1e6)]
    assert d == pytest.approx([0.7866420112706431, 0.9976028777153385, 0.9999760002879977],
                              rel=1e-12)
    assert 0.0 < 1.0 - d[2] < 1.0 - d[1] < 1.0 - d[0]


def test_oracle_psi_solves_scattering_ode():
    # alpha^-2 psi'' + 12 sech^2(alpha xi) psi = (4 + 3p) psi at lambda = 0
    for p, c in ((1.0, 0.0), (2.0, 0.3), (0.5, -0.3)):
        o = oracle_coupled_wave(p, c)
        al, g2 = o.alpha, 4 + 3 * p
        d = 1e-4
        for xi in (-1.3, 0.0, 0.8, 2.1):
            # psi carries an exp(gamma alpha |xi|) envelope; scale accordingly
            env = np.exp(o.gamma * al * abs(xi))
            for psi in (o.psi_plus, o.psi_minus):
                lap = (psi(xi + d) - 2 * psi(xi) + psi(xi - d)) / d ** 2
                lhs = lap / al ** 2 + 12 / np.cosh(al * xi) ** 2 * psi(xi)
                assert abs(lhs - g2 * psi(xi)) < 1e-5 * max(1.0, env)
