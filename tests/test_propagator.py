import csv
import io
import math

import numpy as np
import pytest

from weylrg.lattice import build_params, weyl_points
from weylrg.propagator import (GridSpec, PropagatorGrid, SingularMomentumError,
                               build_propagator_grid, counterterm_nu_C, energy_scale,
                               equal_time_jump, free_propagator, inverse_propagator,
                               normalize_time, regularized_propagator_sum,
                               schwinger_time_domain)

GRID = GridSpec(L=4, beta=8.0, M=12)


def test_inverse_propagator_hand_value(p_star):
    a = inverse_propagator((0.7, 0.0, 0.0, 0.0), p_star)
    expect = np.array([[-0.7j + 0.25, 0], [0, -0.7j - 0.25]])
    assert np.allclose(a, expect, atol=1e-14)


def test_inverse_propagator_vanishes_at_weyl_point(p_star):
    a = inverse_propagator((0.0, 0.0, 0.0, np.pi / 3), p_star)
    assert np.max(np.abs(a)) < 1e-14


def test_det_identity(p_star):
    from weylrg.lattice import dispersion
    rng = np.random.default_rng(3)
    ks = rng.uniform(0, 2 * np.pi, size=(10_000, 4))
    worst = 0.0
    for kk in ks[:200]:  # matrix determinant route on a subsample
        a = inverse_propagator(tuple(kk), p_star)
        lam = dispersion((kk[1], kk[2], kk[3]), p_star)
        worst = max(worst, abs(np.linalg.det(a) - (-(kk[0] ** 2 + lam ** 2))))
    assert worst < 1e-12
    # vectorized identity via energy_scale over the full 1e4 sample
    lam = dispersion((ks[:, 1], ks[:, 2], ks[:, 3]), p_star)
    e = energy_scale((ks[:, 0], ks[:, 1], ks[:, 2], ks[:, 3]), p_star)
    assert np.max(np.abs(e ** 2 - (ks[:, 0] ** 2 + lam ** 2))) < 1e-12


def test_energy_scale_examples(p_star):
    assert energy_scale((0.0, 0.0, 0.0, np.pi / 3), p_star) == pytest.approx(0.0, abs=1e-14)
    assert energy_scale((0.25, 0.0, 0.0, 0.0), p_star) == pytest.approx(0.353553, abs=1e-6)
    assert energy_scale((0.4, 0.1, 0.2, 0.3), p_star) == pytest.approx(
        energy_scale((-0.4, 0.1, 0.2, 0.3), p_star))


def test_free_propagator_inverse_identity(p_star):
    rng = np.random.default_rng(4)
    worst = 0.0
    for kk in rng.uniform(0.05, 2 * np.pi - 0.05, size=(10_000, 4))[:500]:
        a = inverse_propagator(tuple(kk), p_star)
        g = free_propagator(tuple(kk), p_star)
        worst = max(worst, np.max(np.abs(a @ g - np.eye(2))))
    assert worst < 1e-12


def test_free_propagator_conjugation_symmetry(p_star):
    rng = np.random.default_rng(5)
    for kk in rng.uniform(0.1, 2 * np.pi - 0.1, size=(50, 4)):
        g1 = free_propagator((-kk[0], kk[1], kk[2], kk[3]), p_star)
        g2 = free_propagator(tuple(kk), p_star)
        assert np.max(np.abs(g1 - g2.conj().T)) < 1e-13


def test_free_propagator_singular_at_weyl_point(p_star):
    with pytest.raises(SingularMomentumError):
        free_propagator((0.0, 0.0, 0.0, np.pi / 3), p_star)


def test_free_propagator_large_frequency_decay(p_star):
    # entries are O(1/k0): ratio between dyadic frequencies approaches 1/2
    kbar = (0.3, 0.8, 1.1)
    norms = [np.max(np.abs(free_propagator((k0, *kbar), p_star)))
             for k0 in (2.0 ** 8, 2.0 ** 9, 2.0 ** 10)]
    assert norms[1] / norms[0] == pytest.approx(0.5, rel=5e-3)
    assert norms[2] / norms[1] == pytest.approx(0.5, rel=5e-3)


def test_equal_time_jump_is_identity(p_star):
    jump = equal_time_jump(GRID, p_star)
    assert np.max(np.abs(jump - np.eye(2))) < 1e-12


def test_time_domain_continuity_off_site(p_star):
    # x0 -> 0 from either side at xbar != 0: continuous to 1e-10
    sp = schwinger_time_domain((0.0, 1, 0, 2), GRID, p_star, side="+")
    sm = schwinger_time_domain((0.0, 1, 0, 2), GRID, p_star, side="-")
    assert np.max(np.abs(sp - sm)) < 1e-10


def test_time_domain_rejects_out_of_window(p_star):
    with pytest.raises(ValueError):
        schwinger_time_domain((9.0, 0, 0, 0), GRID, p_star)
    assert normalize_time(9.0, 8.0) == pytest.approx(-7.0)


def test_cross_representation_point(p_star):
    a = schwinger_time_domain((0.5, 1, 0, 0), GRID, p_star)
    b = regularized_propagator_sum((0.5, 1, 0, 0), GRID, p_star, M=12)
    assert np.max(np.abs(a - b)) < 1e-8


def test_regularized_sum_M_convergence(p_star):
    x = (0.5, 0, 0, 0)
    g10 = regularized_propagator_sum(x, GRID, p_star, M=10)
    g12 = regularized_propagator_sum(x, GRID, p_star, M=12)
    exact = schwinger_time_domain(x, GRID, p_star)
    assert np.max(np.abs(g12 - g10)) < 1e-6
    assert np.max(np.abs(g12 - exact)) < 1e-5
    assert np.max(np.abs(g10 - exact)) < 1e-5


def test_regularized_sum_at_origin_mean_of_limits(p_star):
    # the x = 0 limit converges to the mean of the one-sided limits at rate
    # 2^-M (non-oscillating tail); M = 12 lands near 1e-4, and one Richardson
    # step in M removes the leading tail
    sp = schwinger_time_domain((0.0, 0, 0, 0), GRID, p_star, side="+")
    sm = schwinger_time_domain((0.0, 0, 0, 0), GRID, p_star, side="-")
    mean = 0.5 * (sp + sm)
    g12 = regularized_propagator_sum((0.0, 0, 0, 0), GRID, p_star, M=12)
    g11 = regularized_propagator_sum((0.0, 0, 0, 0), GRID, p_star, M=11)
    assert np.max(np.abs(g12 - mean)) < 2.5e-4
    assert np.max(np.abs(2.0 * g12 - g11 - mean)) < 1e-6


def test_regularized_sum_u_independence(p_star):
    p_u = build_params(p_star.t, p_star.t_perp, p_star.t_prime, r=0.5, U=0.3)
    a = regularized_propagator_sum((0.5, 1, 1, 0), GRID, p_star)
    b = regularized_propagator_sum((0.5, 1, 1, 0), GRID, p_u)
    assert np.array_equal(a, b)


def test_direct_vs_fft_spatial_sum(p_star):
    grid = GridSpec(L=8, beta=8.0, M=8)
    for x in ((0.5, 1, 2, 3), (-2.0, 0, 5, 1)):
        d = regularized_propagator_sum(x, grid, p_star, method="direct")
        f = regularized_propagator_sum(x, grid, p_star, method="fft")
        assert np.max(np.abs(d - f)) < 1e-10


def test_counterterm_nu_c(p_star):
    p0 = build_params(1.0, 0.5, 2.0, r=0.5, U=0.0)
    assert counterterm_nu_C(GRID, p0, 2.5) == pytest.approx(0.0)
    p1 = build_params(1.0, 0.5, 2.0, r=0.5, U=0.1)
    p2 = build_params(1.0, 0.5, 2.0, r=0.5, U=0.2)
    v1 = counterterm_nu_C(GRID, p1, 2.5)
    assert v1 == pytest.approx(0.1 * 2.5, rel=1e-12)  # jump identity coefficient 1
    assert counterterm_nu_C(GRID, p2, 2.5) == pytest.approx(2 * v1, rel=1e-12)


def test_propagator_grid_csv_roundtrip(p_star):
    grid = GridSpec(L=2, beta=4.0, M=3)
    pg = build_propagator_grid(grid, p_star)
    assert pg.conjugation_defect() < 1e-12
    buf = io.StringIO()
    pg.to_csv(buf)
    buf.seek(0)
    back = PropagatorGrid.from_csv(buf, grid)
    assert np.array_equal(back.momenta, pg.momenta)
    assert np.array_equal(back.values, pg.values)


def _defect_oracle(pg):
    """The row-by-row dict definition of the conjugation defect."""
    key = {tuple(np.round(kk, 12)): i for i, kk in enumerate(pg.momenta)}
    worst = 0.0
    for i, kk in enumerate(pg.momenta):
        mirror = (round(-kk[0], 12), round(kk[1], 12), round(kk[2], 12), round(kk[3], 12))
        j = key.get(mirror)
        if j is not None:
            worst = max(worst, float(np.max(np.abs(pg.values[j] - pg.values[i].conj().T))))
    return worst


def test_conjugation_defect_matches_dict_oracle(p_star):
    pg = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(pg))
    shuffled = PropagatorGrid(pg.grid, pg.momenta[perm], pg.values[perm])
    assert shuffled.conjugation_defect() == _defect_oracle(shuffled) == pg.conjugation_defect()
    # a known perturbation of one entry is the whole defect
    delta = 1e-3
    bumped = PropagatorGrid(pg.grid, shuffled.momenta, shuffled.values.copy())
    bumped.values[5, 0, 1] += delta
    assert bumped.conjugation_defect() == _defect_oracle(bumped)
    assert bumped.conjugation_defect() == pytest.approx(delta, rel=1e-9)
    # a row with no mirror is ignored, however wrong its value
    lone = PropagatorGrid(pg.grid, np.vstack([pg.momenta, [[0.123, 0.0, 0.0, 0.0]]]),
                          np.concatenate([pg.values, np.full((1, 2, 2), 5.0 + 1j)]))
    assert lone.conjugation_defect() == _defect_oracle(lone) == pg.conjugation_defect()
    # duplicate keys: the last row is the match (k0 = 0 rows mirror themselves)
    dup = PropagatorGrid(pg.grid, np.zeros((2, 4)), np.array([np.eye(2), (1 + 1e-3j) * np.eye(2)]))
    assert dup.conjugation_defect() == _defect_oracle(dup) == pytest.approx(2e-3)


def test_to_csv_bytes_match_csv_writer(p_star):
    pg = build_propagator_grid(GridSpec(L=2, beta=4.0, M=3), p_star)
    pg.momenta[0] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308]
    pg.values[1] = [[-0.0 + 3.3e-296j, 1e-310 - 0.0j], [np.pi, -1e300]]
    expect = io.StringIO(newline="")
    w = csv.writer(expect)
    w.writerow(["k0", "k1", "k2", "k3",
                "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"])
    for kk, v in zip(pg.momenta, pg.values):
        w.writerow([repr(float(c)) for c in kk]
                   + [repr(float(f(e))) for e in v.ravel() for f in (np.real, np.imag)])
    got = io.StringIO(newline="")
    pg.to_csv(got)
    assert got.getvalue() == expect.getvalue()
    assert "-0.0,0.0,5e-324," in got.getvalue()


def test_from_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        PropagatorGrid.from_csv(io.StringIO("a,b\r\n1,2\r\n"), GRID)
    with pytest.raises(ValueError):
        PropagatorGrid.from_csv(io.StringIO(""), GRID)


def test_row_bound_closed_form(p_star):
    for grid in (GridSpec(L=2, beta=4.0, M=3), GridSpec(L=3, beta=8.0, M=5),
                 GridSpec(L=1, beta=0.3, M=0)):
        scanned = grid.matsubara_frequencies().size * grid.L ** 3
        assert len(build_propagator_grid(grid, p_star)) <= scanned <= grid.row_bound()
        assert grid.row_bound() - 2 * grid.L ** 3 <= scanned
    assert GridSpec(L=4, beta=8.0, M=2000).row_bound() == math.inf


def test_normalize_time_closed_form():
    assert normalize_time(9.0, 8.0) == -7.0
    assert normalize_time(8.0, 8.0) == 8.0
    assert normalize_time(-8.0, 8.0) == 8.0
    assert normalize_time(1e300, 8.0) == 0.0  # 1e300 is a multiple of 2^944
    x = normalize_time(-1e300, 3.0)
    assert -3.0 < x <= 3.0
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            normalize_time(bad, 8.0)
