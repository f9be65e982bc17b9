import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanskit.errors import Degenerate, NonSkew, RankError
from evanskit.integrator import Stepper
from evanskit.linalg import (_EXP_THETA, NULLVECTOR_TOL, _expms, interior2, nullvector,
                             quartic_roots, skew_cmat4, symplectic_forms, wedge2, wedge4)
from evanskit.model import build_coupled_wave

M = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
K = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], float)


def cvec(rng):
    return rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)


def test_symplectic_forms_basic():
    e = np.eye(4)
    j = skew_cmat4(M)
    assert symplectic_forms(j, e[0], e[1]) == 1.0  # <M e1, e2> = M[2,1] = 1
    assert symplectic_forms(j, e[1], e[0]) == -1.0
    with pytest.raises(NonSkew):
        skew_cmat4(np.eye(4))


@pytest.mark.parametrize("seed", range(4))
def test_symplectic_forms_equal_one_pair_bit_for_bit(seed):
    # every entry of a broadcast stack is (J @ u) @ v on its own pair
    rng = np.random.default_rng(seed)
    j = skew_cmat4(M + 0.37 * K)
    scale = np.exp(rng.uniform(-12.0, 12.0, (5, 1, 1)))
    us = scale * (rng.normal(size=(5, 7, 4)) + 1j * rng.normal(size=(5, 7, 4)))
    vs = rng.normal(size=(7, 4))   # real, as a profile derivative is
    got = symplectic_forms(j, us, vs)
    assert got.shape == (5, 7)
    for a in range(5):
        for b in range(7):
            want = (j @ us[a, b]) @ vs[b]
            assert np.complex128(got[a, b]).tobytes() == np.complex128(want).tobytes()


def test_wedge_basis_orientation():
    e = np.eye(4)
    assert wedge4(e[0], e[1], e[2], e[3]) == 1.0
    assert wedge4(e[0], e[1], e[0], e[3]) == 0.0  # alternation
    # the duality pairing on wedge^2 is the plain dot of coordinates
    assert np.dot(wedge2(e[0], e[1]), wedge2(e[0], e[1])) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_wedge2_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    u, v = cvec(rng), cvec(rng)
    assert np.allclose(wedge2(u, v), -wedge2(v, u), atol=1e-12)
    assert np.max(np.abs(wedge2(u, u))) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair2_det_rule(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = cvec(rng), cvec(rng), cvec(rng), cvec(rng)
    det_rule = np.dot(a, c) * np.dot(b, d) - np.dot(a, d) * np.dot(b, c)
    # Cauchy-Binet: the coordinate dot of a^b and c^d is the 2x2 Gram determinant
    assert abs(np.dot(wedge2(a, b), wedge2(c, d)) - det_rule) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_interior2_adjointness(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = cvec(rng), cvec(rng), cvec(rng), cvec(rng)
    q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    lhs = np.dot(interior2(q, wedge2(a, b)), wedge2(c, d))
    assert abs(lhs - q * wedge4(a, b, c, d)) < 1e-9


def test_nullvector_asymptotic_eigvec():
    # infinity matrix of the coupled-wave linearization, p=1, c=0, mu3=2:
    # kernel direction is collinear with (1, -2*mu3, mu3, 2)
    p, mu3 = 1.0, 2.0
    binf = np.array([[4 + 4 * p, 0, 0, -2 * p],
                     [0, 1, 0, 0],
                     [0, 0, -1, 0],
                     [-2 * p, 0, 0, -4 + p]], float)
    z = nullvector(binf - mu3 * K)
    tgt = np.array([1, -2 * mu3, mu3, 2], float)
    tgt = tgt / np.linalg.norm(tgt)
    assert abs(abs(np.vdot(z, tgt)) - 1.0) < 1e-12
    assert abs(np.linalg.norm(z) - 1.0) < 1e-14
    k = int(np.argmax(np.abs(z)))
    assert z[k].imag == pytest.approx(0.0, abs=1e-14) and z[k].real > 0


def test_nullvector_rank_errors():
    with pytest.raises(RankError):
        nullvector(np.eye(4))  # empty kernel
    with pytest.raises(RankError):
        nullvector(np.diag([1.0, 1.0, 0.0, 0.0]))  # two-dimensional kernel
    with pytest.raises(RankError):
        nullvector(np.zeros((4, 4)))


def test_quartic_frozen_examples():
    # mu^4 - 11 mu^2 + 28 = 0  ->  {+-2, +-sqrt(7)}
    r = np.sort_complex(quartic_roots([28, 0, -11, 0, 1]))
    expect = np.sort_complex(np.array([-np.sqrt(7), -2, 2, np.sqrt(7)], complex))
    assert np.max(np.abs(r - expect)) < 1e-12
    # mu^4 - 13 mu^2 + 40 = 0  ->  {+-sqrt(5), +-2 sqrt(2)}
    r = np.sort_complex(quartic_roots([40, 0, -13, 0, 1]))
    expect = np.sort_complex(np.array(
        [-2 * np.sqrt(2), -np.sqrt(5), np.sqrt(5), 2 * np.sqrt(2)], complex))
    assert np.max(np.abs(r - expect)) < 1e-12


def test_quartic_degenerate_leading():
    with pytest.raises(Degenerate):
        quartic_roots([1, 2, 3, 4, 0])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_quartic_roundtrip(seed):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
    coeffs = np.poly(zs)[::-1]  # ascending, monic
    r = quartic_roots(coeffs)
    assert np.max(np.abs(np.sort_complex(r) - np.sort_complex(zs))) < 1e-9


def test_quartic_shape_guard():
    # one quartic is a 5-vector; nothing else is reshaped into one
    for shape in ((4,), (6,), (5, 1), (1, 5)):
        with pytest.raises(ValueError):
            quartic_roots(np.ones(shape))
    with pytest.raises(ValueError):   # LAPACK takes no non-finite entries
        quartic_roots([1.0, 2.0, np.nan, 4.0, 1.0])


@given(st.integers(0, 10_000), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_nullvectors_contract_on_rank3_stacks(seed, k):
    # every kernel direction has unit norm, its largest component real and
    # positive, and |m v| <= NULLVECTOR_TOL * sigma_max; a full-rank and a
    # rank-2 matrix among them get the RankError messages they always got
    rng = np.random.default_rng(seed)

    def of_rank(r):
        u, _, vh = np.linalg.svd(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        return u @ np.diag(np.append(rng.uniform(0.1, 3.0, r), np.zeros(4 - r))) @ vh

    ms = [of_rank(3) for _ in range(k)]
    full, two = seed % (k + 1), (seed // 7) % (k + 2)
    ms.insert(full, of_rank(4))
    ms.insert(two, of_rank(2))
    full += two <= full
    for n, m in enumerate(ms):
        if n in (full, two):
            with pytest.raises(RankError) as err:
                nullvector(m)
            assert type(err.value) is RankError
            if n == two:
                assert str(err.value) == "kernel dimension >= 2 at this tolerance"
                continue
            sigma = np.linalg.svd(m, compute_uv=False)
            msg = re.fullmatch(r"no kernel direction: smallest sigma (\d\.\d{3}e[+-]\d\d) "
                               r"exceeds 1\.0e-08 \* (\d\.\d{3}e[+-]\d\d)", str(err.value))
            assert np.allclose([float(x) for x in msg.groups()], [sigma[3], sigma[0]],
                               rtol=1e-3)
            continue
        v = nullvector(m)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        top = v[np.argmax(np.abs(v))]
        assert top.real > 0.0 and abs(top.imag) <= 1e-15 * top.real
        assert np.linalg.norm(m @ v) <= NULLVECTOR_TOL * np.linalg.norm(m, 2)


def _exp_in_place(a):
    # exp of a complex (K, 4, 4) stack through the stepper's in-place path:
    # matrix k is the exponent W0 + lam W1 of a one-step group of its own,
    # with W0 = Re a_k, W1 = Im a_k and lam = i, or lam = 0 when a_k is
    # real, so the stack is built as real 4x4 when every a_k is real and
    # in the real 8x8 form otherwise
    cplx = np.any(a.imag != 0.0, axis=(1, 2))
    w = np.zeros((len(a), 1, 4, 4, 4))
    w[:, 0, 0], w[:, 0, 1] = a.real, a.imag
    powers = np.where(cplx[:, None], [1.0, 1j, -1.0, -1j], [1.0, 0.0, 0.0, 0.0])
    parts = [(w[g], g, g + 1) for g in range(len(a))]
    return _stepper()._exponentials(parts, powers, not cplx.any())[0].copy()


def _stepper():
    return Stepper(*build_coupled_wave(1.0), 0.0, tol=1e-8)


@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 20.0, 50.0])
def test_expm4s_matches_scipy(norm):
    # random complex stacks scaled to a 1-norm, a quarter of them real, against
    # scipy's Pade expm; relative to each exponential's largest entry
    from scipy.linalg import expm   # the test extra
    rng = np.random.default_rng(11)
    a = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
    a[:10].imag = 0.0
    a *= norm / np.abs(a).sum(axis=1).max(axis=1)[:, None, None]
    got = _exp_in_place(a)
    for g, m in zip(got, a):
        ref = expm(m)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(got[:10].imag == 0.0)


def test_expm4s_batch_of_one_is_bit_identical():
    # each matrix keeps its own scaling and squarings: alone it has the bits
    # it has in a stack of mixed norms, real and complex, and the real 8x8
    # form exponentiated without the stepper's buffers has them too
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 4, 4)) + 1j * rng.standard_normal((30, 4, 4))
    a[::3].imag = 0.0
    a *= np.geomspace(1e-3, 50.0, 30)[:, None, None]
    stack = _exp_in_place(a)
    for m, e in zip(a, stack):
        assert np.array_equal(_exp_in_place(m[None])[0], e)
    assert np.array_equal(_expms(a.real)[4], _expms(a.real[4:5])[0])
    big = np.block([[a.real, -a.imag], [a.imag, a.real]])
    e = _expms(big)
    assert np.array_equal(e[:, :4, :4] + 1j * e[:, 4:, :4], stack)
    # on a caller's buffers, which scales the input in place: the same bits
    assert np.array_equal(_expms(big.copy(), np.empty((6, 40, 8, 8))), e)
    # squared in order of their squaring counts, 0 to 9 here: a shuffled
    # stack keeps every matrix's bits, and so does one where none squares
    s = np.maximum(np.frexp(np.abs(big).sum(axis=2).max(axis=1) / _EXP_THETA)[1], 0)
    assert s.min() == 0 and s.max() == 9
    perm = rng.permutation(len(big))
    assert np.array_equal(_expms(big[perm]), e[perm])
    assert np.array_equal(_expms(big[perm], np.empty((6, 30, 8, 8))), e[perm])
    small = big * 1e-3   # no matrix needs squaring
    assert np.array_equal(_expms(small, np.empty((6, 30, 8, 8))), _expms(small[::-1])[::-1])
    assert np.array_equal(_expms(small[perm]), _expms(small)[perm])


def test_expm_shape_guards():
    with pytest.raises(ValueError):
        _expms(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        _expms(np.zeros((2, 3, 4)))
    assert _expms(np.zeros((0, 8, 8))).shape == (0, 8, 8)
    none = _stepper()._exponentials([(np.zeros((0, 4, 4, 4)), 0, 1)], np.ones((1, 4), complex),
                                  False)
    assert none.shape == (0, 1, 4, 4)
    assert np.array_equal(_expms(np.zeros((1, 8, 8)))[0], np.eye(8))
