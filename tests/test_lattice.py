import math

import numpy as np
import pytest

from weylrg.lattice import (ID2, SIGMA1, SIGMA2, SIGMA3, ParameterError, PhaseLabel,
                            bloch_matrix, build_params, classify_phase, dispersion,
                            mass_vector, pauli, weyl_points)


def test_build_params_r_mu_consistency():
    p = build_params(1.0, 0.5, 2.0, r=0.5)
    assert p.mu == pytest.approx(1.75)
    assert p.r == pytest.approx(0.5)
    # mu route gives the same point
    q = build_params(1.0, 0.5, 2.0, mu=1.75)
    assert q.r == pytest.approx(0.5)


def test_build_params_boundary_case():
    p = build_params(1.0, 0.5, 2.0, r=0.0)
    assert p.mu == pytest.approx(1.5)
    assert classify_phase(p) is PhaseLabel.CRITICAL


def test_build_params_rejects_a1_violation():
    # mu + t' = 1.5 < 2 t_perp = 2
    with pytest.raises(ParameterError):
        build_params(1.0, 1.0, 1.0, r=0.5)


def test_build_params_rejects_theorem_window():
    with pytest.raises(ParameterError):
        build_params(1.0, 0.5, 2.0, mu=2.8)  # |mu-t'|/t_perp = 1.6


def test_build_params_tests_the_window_on_r():
    # mu = t' + t_perp (r - 1) rounds onto the window edge |mu - t'|/t_perp = 3/2;
    # the stored mu is stepped inward by ulps so that p.r stays inside too
    p = build_params(1.0, 1.0, 2.0, r=-0.49999999999999994)
    assert 0.5 < p.mu <= 0.5 + 4 * math.ulp(0.5) and -0.5 < p.r
    with pytest.warns(UserWarning):
        p = build_params(1.0, 0.5, 2.0, r=2.4999999999999996)
    assert 2.75 - 4 * math.ulp(2.75) <= p.mu < 2.75 and p.r < 2.5
    for r in (-0.5, 2.5):
        with pytest.raises(ParameterError, match="theorem window"):
            build_params(1.0, 1.0, 2.0, r=r)
    for bad in (math.inf, math.nan):  # an infinite t' would leave mu - t' undefined
        with pytest.raises(ParameterError, match="finite"):
            build_params(1.0, 1.0, bad, r=0.5)


def test_build_params_rejects_an_r_it_cannot_store():
    """mu = t' + t_perp (r - 1) rounds when t_perp is tiny against t': at t, t'
    = 1, 2 the stored r drifts by up to 1.5e-13 at t_perp = 1e-3 and 2.1e-4 at
    1e-12, and r = 1/2 is stored as 1 at 1e-160.  Drift beyond 1e-12 is
    rejected."""
    for t_perp in (1e-160, 1e-12):
        with pytest.raises(ParameterError, match=r"r = 0.5 is stored as r = "):
            build_params(1.0, t_perp, 2.0, r=0.5)
    assert build_params(1.0, 0.5, 2.0, r=0.5).r == 0.5  # the README model
    assert abs(build_params(1.0, 1e-3, 2.0, r=0.25).r - 0.25) <= 1e-12


def test_build_params_warns_outside_narrow_window():
    with pytest.warns(UserWarning):
        build_params(1.0, 0.5, 2.0, r=0.8)


def test_build_params_warns_on_the_requested_r_not_its_rounding():
    # t_perp = 1e-3 stores r = 1/2 as 0.5000000000000551; filterwarnings = error
    # turns a warning here into a failure
    assert build_params(1.0, 1e-3, 2.0, r=0.5).r > 0.5
    with pytest.warns(UserWarning, match="outside the narrow crossover window"):
        build_params(1.0, 1e-3, 2.0, r=0.6)
    with pytest.warns(UserWarning, match="0.6 > 1/2"):  # given mu: the stored r
        build_params(1.0, 0.5, 2.0, mu=1.8)


def test_build_params_requires_exactly_one_of_r_mu():
    with pytest.raises(ParameterError):
        build_params(1.0, 0.5, 2.0)
    with pytest.raises(ParameterError):
        build_params(1.0, 0.5, 2.0, r=0.1, mu=1.6)


def test_pauli_matches_explicit_sum_on_broadcast_shapes():
    rng = np.random.default_rng(11)
    f1, f2, f3 = rng.normal(size=(3, 5))  # (E,) fields
    f0 = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))  # (B, 1)
    got = pauli((f1, f2, f3), f0)
    assert got.shape == (4, 5, 2, 2)
    want = np.empty((4, 5, 2, 2), complex)
    want[..., 0, 0], want[..., 0, 1] = f0 + f3, f1 - 1j * f2
    want[..., 1, 0], want[..., 1, 1] = f1 + 1j * f2, f0 - f3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got, f0[..., None, None] * ID2 + pauli((f1, f2, f3)),
                               rtol=0, atol=1e-15)
    assert pauli((1.0, 2.0, 3.0), 0.5j).shape == (2, 2)
    # without f0 the three-term form, bit for bit
    old = sum(f[..., None, None] * s for f, s in zip((f1, f2, f3), (SIGMA1, SIGMA2, SIGMA3)))
    assert pauli((f1, f2, f3)).tobytes() == old.tobytes()


def test_mass_vector_regime2_needs_semimetal(p_insulator):
    with pytest.raises(ValueError, match="needs semimetal parameters"):
        mass_vector(0.1, 0.2, 0.3, p_insulator, regime=2)


def test_bloch_matrix_hand_values(p_star):
    m = bloch_matrix((0.0, 0.0, 0.0), p_star)
    assert np.allclose(m, 0.25 * SIGMA3, atol=1e-14)  # t_perp * r * sigma3
    m = bloch_matrix((0.0, 0.0, np.pi), p_star)
    assert np.allclose(m, -0.75 * SIGMA3, atol=1e-14)


def test_bloch_matrix_off_diagonal_vanishes_at_pi_pi(p_star):
    for k3 in (0.3, 1.0, 2.7):
        m = bloch_matrix((np.pi, np.pi, k3), p_star)
        assert abs(m[0, 1]) < 1e-14 and abs(m[1, 0]) < 1e-14


def test_bloch_matrix_hermitian(p_star):
    rng = np.random.default_rng(0)
    for k in rng.uniform(0, 2 * np.pi, size=(50, 3)):
        m = bloch_matrix(k, p_star)
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


def test_dispersion_examples(p_star):
    assert dispersion((0.0, 0.0, np.pi / 3), p_star) == pytest.approx(0.0, abs=1e-14)
    assert dispersion((0.0, 0.0, 0.0), p_star) == pytest.approx(0.25)


def test_dispersion_equals_eigenvalue_magnitude(p_star):
    rng = np.random.default_rng(1)
    for k in rng.uniform(0, 2 * np.pi, size=(100, 3)):
        lam = dispersion(tuple(k), p_star)
        ev = np.linalg.eigvalsh(bloch_matrix(tuple(k), p_star))
        assert abs(lam - ev[1]) < 1e-12 and abs(-lam - ev[0]) < 1e-12


def test_dispersion_symmetries(p_star):
    rng = np.random.default_rng(2)
    for k in rng.uniform(0, 2 * np.pi, size=(50, 3)):
        k1, k2, k3 = k
        assert dispersion((k1, k2, k3), p_star) == pytest.approx(
            dispersion((k2, k1, k3), p_star), abs=1e-13)
        assert dispersion((k1, k2, k3), p_star) == pytest.approx(
            dispersion((k1, k2, -k3), p_star), abs=1e-13)


def test_dispersion_zeros_only_at_weyl_points(p_star):
    L = 64
    ks = 2 * np.pi * np.arange(L) / L
    K1, K2, K3 = np.meshgrid(ks, ks, ks, indexing="ij")
    lam = dispersion((K1, K2, K3), p_star)
    # p_F = pi/3 is not on the L=64 grid, so no exact grid zeros; the minimum
    # must sit in the k3 cells bracketing +-p_F at k1 = k2 = 0
    idx = np.unravel_index(np.argmin(lam), lam.shape)
    assert idx[0] == 0 and idx[1] == 0
    wp = weyl_points(p_star)
    k3_min = ks[idx[2]]
    assert min(abs(k3_min - wp.p_F), abs(k3_min - (2 * np.pi - wp.p_F))) < 2 * np.pi / L


def test_classify_phase_examples(p_star, p_insulator):
    assert classify_phase(p_star) is PhaseLabel.SEMIMETAL
    assert classify_phase(p_insulator) is PhaseLabel.INSULATOR
    assert classify_phase(build_params(1.0, 0.5, 2.0, r=0.0)) is PhaseLabel.CRITICAL


def test_classify_phase_matches_grid_minimum(p_star, p_insulator):
    L = 64
    ks = 2 * np.pi * np.arange(L) / L
    K1, K2, K3 = np.meshgrid(ks, ks, ks, indexing="ij")
    for p in (p_star, p_insulator):
        lam_min = float(np.min(dispersion((K1, K2, K3), p)))
        gapless = lam_min < 0.05  # grid tolerance: min is O(grid spacing) in a semimetal
        assert gapless == (classify_phase(p) is not PhaseLabel.INSULATOR)


def test_weyl_points_examples(p_star, p_insulator):
    wp = weyl_points(p_star)
    assert wp.p_F == pytest.approx(1.047198, abs=1e-6)
    assert wp.v0 == pytest.approx(1.0)
    assert wp.v30 == pytest.approx(0.433013, abs=1e-6)
    assert not wp.degenerate

    with pytest.warns(UserWarning, match="outside the narrow crossover window"):
        p_half = build_params(1.0, 0.5, 2.0, mu=2.0)  # mu = t': r = 1
    wp2 = weyl_points(p_half)
    assert wp2.p_F == pytest.approx(np.pi / 2)
    assert wp2.v30 == pytest.approx(0.5)

    assert weyl_points(p_insulator) is None


def test_weyl_points_critical_degenerate():
    wp = weyl_points(build_params(1.0, 0.5, 2.0, r=0.0))
    assert wp.degenerate and wp.p_F == pytest.approx(0.0) and wp.v30 == pytest.approx(0.0)
