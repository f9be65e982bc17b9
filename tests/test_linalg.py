import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evanskit.errors import Degenerate, NonSkew, RankError
from evanskit.linalg import (NULLVECTOR_TOL, Bivector, Poly4, det4, det4s, interior2, nullvector,
                             nullvectors, quartic_root_sets, quartic_roots,
                             skew_cmat4, symplectic_forms, wedge2, wedge4)

M = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
K = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], float)


def cvec(rng):
    return rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)


def test_det4_jc_values():
    # det(K + cM) = (1 - c^2)^2 for the canonical skew pair
    for c in (0.0, 0.5, -0.3, 0.9):
        assert abs(det4(K + c * M) - (1 - c * c) ** 2) < 1e-14
    assert abs(det4(K + 0.5 * M) - 0.5625) < 1e-15


def test_det4_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-10, 10, (4, 4)) + 1j * rng.uniform(-10, 10, (4, 4))
        ref = np.linalg.det(a)
        assert abs(det4(a) - ref) <= 1e-10 * (1 + abs(ref))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_det4_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, (4, 4)) + 1j * rng.uniform(-10, 10, (4, 4))
    b = rng.uniform(-10, 10, (4, 4)) + 1j * rng.uniform(-10, 10, (4, 4))
    lhs, rhs = det4(a @ b), det4(a) * det4(b)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


@pytest.mark.parametrize("seed", range(8))
def test_det4s_equals_det4_bit_for_bit(seed):
    # entries over many magnitudes, exact zeros of either sign and purely real
    # or imaginary rows: the stacked kernel must round exactly as det4 does
    rng = np.random.default_rng(seed)
    k = 40
    a = (rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))) \
        * np.exp(rng.uniform(-12, 12, (k, 4, 4)))
    a[rng.random((k, 4, 4)) < 0.15] = 0.0
    a[rng.random((k, 4, 4)) < 0.05] = -0.0
    a.real[rng.random((k, 4, 4)) < 0.1] = 0.0
    a.imag[rng.random((k, 4, 4)) < 0.1] = -0.0
    got = det4s(a)
    assert got.shape == (k,)
    for m, d in zip(a, got):
        assert np.complex128(d).tobytes() == np.complex128(det4(m)).tobytes()
    assert det4s(a[:1]).tobytes() == got[:1].tobytes()


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
    assert np.dot(wedge2(e[0], e[1]).coords, wedge2(e[0], e[1]).coords) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_wedge2_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    u, v = cvec(rng), cvec(rng)
    assert np.allclose(wedge2(u, v).coords, -wedge2(v, u).coords, atol=1e-12)
    assert np.max(np.abs(wedge2(u, u).coords)) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair2_det_rule(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = cvec(rng), cvec(rng), cvec(rng), cvec(rng)
    det_rule = np.dot(a, c) * np.dot(b, d) - np.dot(a, d) * np.dot(b, c)
    # Cauchy-Binet: the coordinate dot of a^b and c^d is the 2x2 Gram determinant
    assert abs(np.dot(wedge2(a, b).coords, wedge2(c, d).coords) - det_rule) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_interior2_adjointness(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = cvec(rng), cvec(rng), cvec(rng), cvec(rng)
    q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    lhs = np.dot(interior2(q, wedge2(a, b)).coords, wedge2(c, d).coords)
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
    r = np.sort_complex(quartic_roots(Poly4([28, 0, -11, 0, 1])))
    expect = np.sort_complex(np.array([-np.sqrt(7), -2, 2, np.sqrt(7)], complex))
    assert np.max(np.abs(r - expect)) < 1e-12
    # mu^4 - 13 mu^2 + 40 = 0  ->  {+-sqrt(5), +-2 sqrt(2)}
    r = np.sort_complex(quartic_roots(Poly4([40, 0, -13, 0, 1])))
    expect = np.sort_complex(np.array(
        [-2 * np.sqrt(2), -np.sqrt(5), np.sqrt(5), 2 * np.sqrt(2)], complex))
    assert np.max(np.abs(r - expect)) < 1e-12


def test_quartic_degenerate_leading():
    with pytest.raises(Degenerate):
        quartic_roots(Poly4([1, 2, 3, 4, 0]))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_quartic_roundtrip(seed):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
    coeffs = np.poly(zs)[::-1]  # ascending, monic
    r = quartic_roots(Poly4(coeffs))
    assert np.max(np.abs(np.sort_complex(r) - np.sort_complex(zs))) < 1e-9


def test_bivector_shape_guard():
    with pytest.raises(ValueError):
        Bivector(np.zeros(5))


@given(st.integers(0, 10_000), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_nullvectors_equal_singletons_on_rank3_stacks(seed, k):
    rng = np.random.default_rng(seed)
    ms = []
    for _ in range(k):
        u, _, vh = np.linalg.svd(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        ms.append(u @ np.diag(np.append(rng.uniform(0.1, 3.0, 3), 0.0)) @ vh)
    bad = seed % (k + 1)
    ms.insert(bad, np.eye(4))   # no kernel: only its own row fails
    vecs, errs = nullvectors(np.array(ms))
    with pytest.raises(RankError) as alone:
        nullvector(np.eye(4))
    assert type(errs[bad]) is RankError and str(errs[bad]) == str(alone.value)
    assert np.all(np.isnan(vecs[bad]))
    del ms[bad], errs[bad]
    vecs = np.delete(vecs, bad, axis=0)
    assert errs == [None] * k
    for m, v in zip(ms, vecs):
        assert v.tobytes() == nullvector(m).tobytes()
        assert np.linalg.norm(m @ v) <= NULLVECTOR_TOL * np.linalg.norm(m, 2)


@given(st.integers(0, 10_000), st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_quartic_root_sets_equal_singletons(seed, n):
    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < n:
        zs = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
        if min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:]) > 0.3:
            polys.append(Poly4(np.poly(zs)[::-1] * rng.uniform(0.5, 2.0)))
    roots, errs = quartic_root_sets(polys)
    assert errs == [None] * n
    for p, r in zip(polys, roots):
        assert r.tobytes() == quartic_roots(p).tobytes()
        ref = np.sort_complex(np.roots(p.coeffs[::-1]))
        assert np.max(np.abs(np.sort_complex(r) - ref)) < 1e-10
