import csv
import dataclasses
import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from weylrg import propagator
from weylrg.lattice import (ID2, SIGMA1, SIGMA2, SIGMA3, band_energy, bloch_matrix, build_params,
                            mass_vector, weyl_points)
from weylrg.propagator import (GridSpec, PropagatorGrid, SingularMomentumError,
                               _ainv, _matsubara_sums,
                               build_propagator_grid, counterterm_nu_C,
                               equal_time_jump, free_propagator, inverse_propagator,
                               normalize_time, regularized_all_spatial,
                               regularized_propagator_sum, schwinger_time_domain)

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
    # vectorized identity via band_energy(k0, mass_vector(kbar)) over the full 1e4 sample
    lam = dispersion((ks[:, 1], ks[:, 2], ks[:, 3]), p_star)
    e = band_energy(ks[:, 0], mass_vector(ks[:, 1], ks[:, 2], ks[:, 3], p_star))
    assert np.max(np.abs(e ** 2 - (ks[:, 0] ** 2 + lam ** 2))) < 1e-12


def test_energy_scale_examples(p_star):
    def energy_scale(kk):  # |det A|^(1/2)
        return band_energy(kk[0], mass_vector(*kk[1:], p_star))

    assert energy_scale((0.0, 0.0, 0.0, np.pi / 3)) == pytest.approx(0.0, abs=1e-14)
    assert energy_scale((0.25, 0.0, 0.0, 0.0)) == pytest.approx(0.353553, abs=1e-6)
    assert energy_scale((0.4, 0.1, 0.2, 0.3)) == pytest.approx(energy_scale((-0.4, 0.1, 0.2, 0.3)))


def test_free_propagator_inverse_identity(p_star):
    rng = np.random.default_rng(4)
    worst = 0.0
    ks = rng.uniform(0.05, 2 * np.pi - 0.05, size=(10_000, 4))
    for kk in ks[:500]:
        a = inverse_propagator(tuple(kk), p_star)
        g = free_propagator(tuple(kk), p_star)
        worst = max(worst, np.max(np.abs(a @ g - np.eye(2))))
    assert worst < 1e-12
    # the broadcast A^{-1} the grid tabulates, (B, 1) frequencies on (E,) momenta
    k0, kbar = ks[:40, :1], ks[:300, 1:]
    ainv = _ainv(k0, *mass_vector(*kbar.T, p_star))
    kk = np.empty((40, 300, 4))
    kk[..., :1], kk[..., 1:] = k0[:, None], kbar
    a = inverse_propagator(kk, p_star)
    assert ainv.shape == a.shape == (40, 300, 2, 2)
    assert np.max(np.abs(ainv @ a - np.eye(2))) < 1e-12


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


def test_time_domain_rejects_fractional_displacement(p_star):
    # a fractional displacement is no lattice point; integral floats are
    with pytest.raises(ValueError, match="not integral"):
        schwinger_time_domain((0.5, 1.5, 0, 0), GRID, p_star)
    with pytest.raises(ValueError, match="not integral"):
        schwinger_time_domain((0.5, 0, 0, math.nan), GRID, p_star)
    assert np.array_equal(schwinger_time_domain((0.5, 2.0, 0, -1.0), GRID, p_star),
                          schwinger_time_domain((0.5, 2, 0, -1), GRID, p_star))


def _flat_time_domain(x, grid, p, side=None):
    """S0(x) as one flat sum over the L^3 momenta with the full L^3 phase, and
    the largest |summand|, the scale of the sum's rounding."""
    x0, x1, x2, x3 = x
    positive = x0 > 0 if side is None else side == "+"
    kbar = grid.spatial_momenta()
    m1, m2, m3 = mass_vector(*kbar.T, p)
    lam = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
    gp = propagator._mode_propagator(lam, x0, grid.beta, positive)
    gm = propagator._mode_propagator(-lam, x0, grid.beta, positive)
    c0 = 0.5 * (gp + gm)
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(lam > 0, 0.5 * (gp - gm) / np.where(lam > 0, lam, 1.0), 0.0)
    phase = np.exp(-1j * (kbar[:, 0] * x1 + kbar[:, 1] * x2 + kbar[:, 2] * x3))
    fields = (c0, c1 * m1, c1 * m2, c1 * m3)
    w0, w1, w2, w3 = (np.sum(phase * f) for f in fields)
    scale = max(np.max(np.abs(f)) for f in fields)
    return (w0 * ID2 + w1 * SIGMA1 + w2 * SIGMA2 + w3 * SIGMA3) / kbar.shape[0], scale


_SITE = st.integers(-7, 7)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(L=st.integers(1, 5), xbar=st.tuples(_SITE, _SITE, _SITE),
       beta=st.floats(0.5, 16.0), frac=st.floats(-1.0, 1.0, exclude_min=True),
       side=st.sampled_from([None, "+", "-"]), r=st.floats(-0.5, 0.5, exclude_min=True))
@example(L=3, xbar=(1, -2, 4), beta=8.0, frac=0.0, side="+", r=0.5)
@example(L=3, xbar=(1, -2, 4), beta=8.0, frac=0.0, side="-", r=0.5)
def test_time_domain_matches_flat_sum(L, xbar, beta, frac, side, r):
    # the axis-by-axis sum differs from the flat one only in summation order,
    # so by rounding on the scale of the summands, not of the result (which
    # can cancel to far below them).  The largest difference measured over
    # L <= 12, beta in [0.5, 16], r in {-0.4, 0, 0.5}, all three sides and
    # displacements up to 15 was 6.6e-15 of the largest |summand|; 1e-13
    # leaves a margin of 15
    grid = GridSpec(L=L, beta=beta, M=4)
    p = build_params(1.0, 0.5, 2.0, r=r)
    x = (frac * beta,) + xbar
    if x[0] <= -beta:  # frac just above -1 can round onto the excluded edge
        reject()
    want, scale = _flat_time_domain(x, grid, p, side)
    assert np.max(np.abs(schwinger_time_domain(x, grid, p, side) - want)) <= 1e-13 * scale


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


def test_point_sum_reads_the_fft_cube(p_star):
    # one lattice sum: the point value is the all-displacement cube's entry,
    # bit for bit, with displacements taken mod L on both sides of the cube
    grid = GridSpec(L=8, beta=8.0, M=8)
    for x0 in (0.5, -2.0):
        cube = regularized_all_spatial(x0, grid, p_star)
        for xbar in ((1, 2, 3), (-1, 0, -7), (8, 13, -9), (0, 0, 0)):
            got = regularized_propagator_sum((x0,) + xbar, grid, p_star)
            assert np.array_equal(got, cube[tuple(x % 8 for x in xbar)])
    with pytest.raises(ValueError, match="not integral"):
        regularized_propagator_sum((0.5, 1.5, 0, 0), grid, p_star)


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


def _round_key(x):
    """x rounded to 12 decimals; |x| >= 2^52 is already an integer and stays."""
    return x if abs(x) >= 2.0 ** 52 else round(x, 12)


def _defect_oracle(pg):
    """The row-by-row dict definition of the conjugation defect.  momenta and
    values build the whole table on each read, so each is read once."""
    momenta, values = pg.momenta, pg.values
    key = {tuple(map(_round_key, kk)): i for i, kk in enumerate(momenta)}
    worst = 0.0
    for i, kk in enumerate(momenta):
        mirror = (_round_key(-kk[0]), _round_key(kk[1]), _round_key(kk[2]), _round_key(kk[3]))
        j = key.get(mirror)
        if j is not None:
            worst = max(worst, float(np.max(np.abs(values[j] - values[i].conj().T))))
    return worst


def test_conjugation_defect_matches_dict_oracle(p_star):
    pg = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    assert pg.conjugation_defect() == _defect_oracle(pg)
    # a known perturbation of one entry is the whole defect
    delta = 1e-3
    values = pg.values
    values[5, 0, 1] += delta
    bumped = PropagatorGrid.from_rows(pg.grid, pg.momenta, values)
    assert bumped.conjugation_defect() == _defect_oracle(bumped)
    assert bumped.conjugation_defect() == pytest.approx(delta, rel=1e-9)


@pytest.mark.parametrize("chunk_rows", [5, 27, 100])
def test_conjugation_defect_pairs_boxes_like_the_oracle(monkeypatch, p_star, chunk_rows):
    # boxes of 5 of a block's 27 momenta, of one block and of three blocks
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", chunk_rows)
    pg = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    defect = pg.conjugation_defect()
    assert defect == _defect_oracle(pg)
    values = pg.values
    values[2 * 27 + 20, 1, 0] += 1e-3
    values[len(pg) - 27 + 13, 0, 0] -= 2e-3j
    bumped = PropagatorGrid.from_rows(pg.grid, pg.momenta, values)
    assert bumped.conjugation_defect() == _defect_oracle(bumped)
    assert bumped.conjugation_defect() == pytest.approx(2e-3, rel=1e-9)


def _off_layout_grids(pg, p):
    """Grids whose rows are not build_propagator_grid's layout for their grid."""
    n = pg.grid.L ** 3
    perm = np.random.default_rng(7).permutation(len(pg))
    yield "shuffled", pg.grid, pg.momenta[perm], pg.values[perm]
    blocks = np.arange(len(pg)).reshape(-1, n)[::-1].ravel()
    yield "decreasing k0", pg.grid, pg.momenta[blocks], pg.values[blocks]
    yield ("lone row", pg.grid, np.vstack([pg.momenta, [[0.123, 0.0, 0.0, 0.0]]]),
           np.concatenate([pg.values, np.full((1, 2, 2), 5.0 + 1j)]))
    # a repeated block, and two k0 = 0 rows of a one-momentum grid
    yield ("duplicate block", pg.grid, np.vstack([pg.momenta[:n], pg.momenta]),
           np.concatenate([pg.values[:n], pg.values]))
    one = GridSpec(L=1, beta=4.0, M=3)
    yield "duplicate key", one, np.zeros((2, 4)), np.array([np.eye(2), np.eye(2)])
    # 0.0 is not -0.0: a lone k0 = 0 block is not its own mirror, and a -0.0
    # spatial component is not spatial_momenta()'s 0.0
    yield "k0 = 0 block", one, np.zeros((1, 4)), np.eye(2)[None]
    signed = pg.momenta.copy()
    signed[0, 1] = -0.0
    yield "-0.0 kbar", pg.grid, signed, pg.values
    for row, col in ((0, 0), (1, 0), (n, 2)):
        nan = pg.momenta.copy()
        nan[row, col] = math.nan
        yield f"NaN at ({row}, {col})", pg.grid, nan, pg.values
    nan = pg.momenta.copy()
    nan[:n, 0], nan[-n:, 0] = math.nan, -math.nan  # mirrored bit for bit
    yield "NaN k0 pair", pg.grid, nan, pg.values
    huge = pg.momenta.copy()
    huge[:n, 0], huge[-n:, 0] = -2e300, 1e300
    yield "huge k0", pg.grid, huge, pg.values
    huge = pg.momenta.copy()
    huge[n, 1] = 1e300
    yield "huge kbar", pg.grid, huge, pg.values
    # rows built for another L: 3^3 rows per block read as 1 and as 2^3 rows,
    # and 2^3 rows per block as 3^3
    for L in (1, 2):
        yield f"L = {L}", GridSpec(L=L, beta=4.0, M=3), pg.momenta, pg.values
    two = build_propagator_grid(GridSpec(L=2, beta=4.0, M=3), p)
    yield "L = 2 rows", pg.grid, two.momenta, two.values


def test_conjugation_defect_refuses_other_layouts(p_star):
    pg = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    for name, grid, momenta, values in _off_layout_grids(pg, p_star):
        with pytest.raises(ValueError, match="k0-major blocks"):
            PropagatorGrid.from_rows(grid, momenta, values).conjugation_defect()
            pytest.fail(f"the {name} grid passed the layout check")


def test_to_csv_refuses_other_layouts(p_star, tmp_path):
    # the writer takes its momentum texts from the layout, which from_rows
    # checks, so nothing is written for a grid whose rows are refused
    pg = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    for name, grid, momenta, values in _off_layout_grids(pg, p_star):
        buf, path = io.StringIO(newline=""), tmp_path / "off.csv"
        for target in (buf, path):
            with pytest.raises(ValueError, match="k0-major blocks"):
                PropagatorGrid.from_rows(grid, momenta, values).to_csv(target)
                pytest.fail(f"the {name} grid was written")
        assert buf.getvalue() == "" and not path.exists()


def test_from_rows_refuses_values_that_do_not_match_the_momenta(p_star):
    # one extra block of NaN rows, one row short, or rows of 4 entries: the
    # passes would pair and reduce other rows than the momenta name
    pg = build_propagator_grid(GridSpec(L=2, beta=4.0, M=3), p_star)
    nan_block = np.full((8, 2, 2), complex(math.nan, math.nan))
    for values in (np.concatenate([pg.values, nan_block]), pg.values[:-1],
                   pg.values.reshape(-1, 4)):
        with pytest.raises(ValueError, match="propagator values for"):
            PropagatorGrid.from_rows(pg.grid, pg.momenta, values)
            pytest.fail(f"{values.shape} values were taken for {len(pg)} rows")


def test_reading_rows_changes_nothing(p_star):
    # momenta and values are new arrays on each read, and from_rows keeps
    # none of the arrays it was given: writing into any of them leaves the
    # passes as they were
    def passes(pg):
        text = io.StringIO(newline="")
        pg.to_csv(text)
        return text.getvalue(), pg.conjugation_defect(), pg.sup_norm()

    built = build_propagator_grid(GridSpec(L=3, beta=4.0, M=3), p_star)
    momenta, values = built.momenta, built.values
    table = PropagatorGrid.from_rows(built.grid, momenta, values)
    before = passes(built)
    assert passes(table) == before
    for pg in (built, table):
        pg.momenta[0, 1] = -0.0
        pg.values[5, 0, 1] += 1.0
        read = pg.momenta, pg.values
        for rows in (*read, momenta, values):
            rows[:] = math.nan
        assert passes(pg) == before
    assert np.array_equal(built.values, table.values)


def test_grid_spec_needs_integer_L_and_M(p_star):
    # a fractional L gives L^3 momenta 2 pi j / L of no periodic lattice, and
    # every sum over them is then divided by a fractional L^3
    for bad in (dict(L=2.5), dict(L=2.0), dict(L=True), dict(L=np.float64(2)),
                dict(M=3.0), dict(M=False), dict(L="2")):
        with pytest.raises(ValueError, match="integer L and M"):
            GridSpec(**{"L": 2, "beta": 4.0, "M": 3, **bad})
    numpy_ints = GridSpec(L=np.int64(2), beta=4.0, M=np.int32(3))
    assert numpy_ints == GridSpec(L=2, beta=4.0, M=3)
    got, want = (build_propagator_grid(g, p_star)
                 for g in (numpy_ints, GridSpec(L=2, beta=4.0, M=3)))
    assert len(got) == len(want) == 160
    assert np.array_equal(got.momenta, want.momenta) and np.array_equal(got.values, want.values)


def _on_built_grids(test):
    """Run test(L, beta, M, r, t, t_perp, t_prime) on random small grids and
    hoppings, and on the grid without rows."""
    return settings(max_examples=60, deadline=None, derandomize=True)(given(
        L=st.integers(1, 4), beta=st.floats(0.3, 8.0), M=st.integers(0, 4),
        r=st.floats(-0.5, 0.5, exclude_min=True), t=st.floats(0.5, 2.0),
        t_perp=st.floats(0.25, 1.0), t_prime=st.floats(2.0, 4.0))(
        example(L=1, beta=0.3, M=0, r=0.5, t=1.0, t_perp=0.5, t_prime=2.0)(test)))


@_on_built_grids
def test_conjugation_defect_on_built_grids(L, beta, M, r, t, t_perp, t_prime):
    # every built grid is in the layout the check pairs by position, before
    # and after a CSV round trip, and its defect is the dict oracle's
    grid = GridSpec(L=L, beta=beta, M=M)
    pg = build_propagator_grid(grid, build_params(t, t_perp, t_prime, r=r))
    defect = pg.conjugation_defect()
    assert defect == _defect_oracle(pg)
    buf = io.StringIO(newline="")
    pg.to_csv(buf)
    assert buf.getvalue() == _csv_writer_bytes(pg)
    buf.seek(0)
    assert PropagatorGrid.from_csv(buf, grid).conjugation_defect() == defect
    if (L, beta, M) == (1, 0.3, 0):
        assert len(pg) == 0 and defect == 0.0


@pytest.mark.parametrize("chunk_rows", [5, 100])
@_on_built_grids
def test_built_grid_matches_its_table(chunk_rows, L, beta, M, r, t, t_perp, t_prime):
    # a built grid computes each box when a pass walks it; the table of its
    # rows slices them.  5-row boxes split every block of L >= 2, 100-row
    # boxes hold whole blocks.  The built grid is written on one CPU, its
    # table on three: up to two forked children write the later runs
    grid = GridSpec(L=L, beta=beta, M=M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "_CHUNK_ROWS", chunk_rows)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pg = build_propagator_grid(grid, build_params(t, t_perp, t_prime, r=r))
        built, text = (pg.conjugation_defect(), pg.sup_norm()), io.StringIO(newline="")
        pg.to_csv(text)
        assert len(pg) == len(text.getvalue().split("\r\n")) - 2
        table = PropagatorGrid.from_rows(grid, pg.momenta, pg.values)
        got = io.StringIO(newline="")
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        table.to_csv(got)
        assert got.getvalue() == text.getvalue()
        assert (table.conjugation_defect(), table.sup_norm()) == built
        assert built[1] == (np.max(np.abs(pg.values)) if len(pg) else 0.0)


def test_to_csv_bytes_match_csv_writer(monkeypatch, cpus, p_star):
    # 5-row boxes, two per block: the special rows 0 and 9 fall in the first
    # and second box, and on three CPUs runs 1 and 2 are written by children
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", 5)
    built = build_propagator_grid(GridSpec(L=2, beta=4.0, M=3), p_star)
    values = built.values
    values[0] = [[complex(-0.0, 0.0), complex(5e-324, -2.2250738585072014e-308)],
                 [complex(-math.nan, 0.0), complex(-math.inf, 0.0)]]
    values[9] = [[-0.0 + 3.3e-296j, 1e-310 - 0.0j], [np.pi, -1e300]]
    pg = PropagatorGrid.from_rows(built.grid, built.momenta, values)
    assert np.signbit(pg.values[0].real).tolist() == [[True, False], [True, True]]
    want = _csv_writer_bytes(pg)
    for n in (1, 2, 3):
        cpus(n)
        got = io.StringIO(newline="")
        pg.to_csv(got)
        assert got.getvalue() == want
    first = got.getvalue().split("\r\n")[1].split(",")
    # a negative zero keeps its sign; a negative NaN is written "nan", as repr writes it
    assert first[4:] == ["-0.0", "0.0", "5e-324", "-2.2250738585072014e-308",
                         "nan", "0.0", "-inf", "0.0"]


def _csv_writer_bytes(pg):
    """What csv.writer writes for pg's header and rows, every float by repr."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["k0", "k1", "k2", "k3",
                "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"])
    for kk, v in zip(pg.momenta, pg.values):
        w.writerow([repr(float(c)) for c in kk]
                   + [repr(float(f(e))) for e in v.ravel() for f in (np.real, np.imag)])
    return out.getvalue()


_SPECIAL_GRID = GridSpec(L=2, beta=4.0, M=2)  # 10 blocks of 8 rows


def _special_cells_grid(p):
    """The 80 rows built on _SPECIAL_GRID with values drawn from special
    values: each recurs within a column, across columns and across 7-row
    chunks, and NaN comes with both signs and a payload, so distinct bit
    patterns share one repr and distinct magnitudes one sign token."""
    special = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                        -5e-324, -2.2250738585072014e-308, 0.1, -1e300])
    pool = np.append(special.view(np.uint64), np.uint64(0x7FF8000000000001))
    built = build_propagator_grid(_SPECIAL_GRID, p)
    cells = np.random.default_rng(11).choice(pool, size=(len(built), 8)).view(float)
    assert set(cells.view(np.uint64).ravel().tolist()) == set(pool.tolist())
    return PropagatorGrid.from_rows(_SPECIAL_GRID, built.momenta,
                                    cells.view(complex).reshape(-1, 2, 2))


def _cells(pg):
    return np.concatenate([pg.momenta, pg.values.reshape(-1, 4).view(float)], axis=1)


@pytest.fixture
def temp_files(monkeypatch):
    """Every tempfile.TemporaryFile() made during the test, in order."""
    made, make = [], tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: made.append(make()) or made[-1])
    return made


def test_to_csv_across_chunks_and_repeated_values(monkeypatch, cpus, temp_files, p_star):
    # 7-row chunks cross many chunk boundaries, most of them inside a k0 block.
    # On n CPUs the 20 boxes are cut into n runs and n - 1 children are
    # forked, which leave no process and no open temporary file behind
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", 7)
    forked, fork_run = [], propagator._fork_run
    monkeypatch.setattr(propagator, "_fork_run",
                        lambda *args: forked.append(fork_run(*args)) or forked[-1])
    pg = _special_cells_grid(p_star)
    want = _csv_writer_bytes(pg)
    for n in (1, 2, 3):
        cpus(n)
        forked.clear()
        got = io.StringIO(newline="")
        pg.to_csv(got)
        assert got.getvalue() == want
        assert len(forked) == n - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(temp_files) == 3 and all(f.closed for f in temp_files)
    assert want.count("\r\n") == len(pg) + 1
    assert "-nan" not in want


@pytest.mark.parametrize("block, run", [(0, 0), (4, 1), (9, 2), (6, 1)])
def test_to_csv_names_a_failed_run(monkeypatch, cpus, temp_files, capfd, p_star, block, run):
    # on three CPUs the 20 boxes of 7 special rows (two per k0 block) are cut
    # into runs of boxes 0-5, 6-12 and 13-19: blocks 0-2 are written here,
    # blocks 3-6 and 6-9 by two children.  A box of the given block raises;
    # block 6 lies in runs 1 and 2, and the first failed run is named
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", 7)
    cpus(3)
    pg = _special_cells_grid(p_star)

    def box(a, b, s, e):
        if a <= block < b:
            raise ValueError(f"block {block} cannot be tabulated")
        return pg.box(a, b, s, e)

    with pytest.raises(RuntimeError, match=f"to_csv run {run} of 3 failed") as failed:
        dataclasses.replace(pg, box=box).to_csv(io.StringIO(newline=""))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(temp_files) == 2 and all(f.closed for f in temp_files)
    if run == 0:
        assert isinstance(failed.value.__cause__, ValueError)
    else:  # the child's traceback goes to stderr
        assert f"ValueError: block {block} cannot be tabulated" in capfd.readouterr().err


def test_from_csv_roundtrips_special_cells(monkeypatch, p_star):
    # every non-NaN cell comes back bit for bit (so -0.0 keeps its sign); repr
    # writes every NaN as "nan", so NaNs come back by position only
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", 7)
    pg = _special_cells_grid(p_star)
    buf = io.StringIO(newline="")
    buf.write("# manifest: 0123456789abcdef\n")
    pg.to_csv(buf)
    buf.seek(0)
    want, got = _cells(pg), _cells(PropagatorGrid.from_csv(buf, _SPECIAL_GRID))
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


def test_sup_norm_of_special_cells(monkeypatch, p_star):
    # the box maxima are reduced so that a NaN in any box is the answer, as in
    # np.max over all values; without NaN the answer is inf
    monkeypatch.setattr(propagator, "_CHUNK_ROWS", 7)
    pg = _special_cells_grid(p_star)
    assert math.isnan(pg.sup_norm()) and math.isnan(np.max(np.abs(pg.values)))
    values = pg.values
    values[np.isnan(values)] = -math.inf
    pg = PropagatorGrid.from_rows(pg.grid, pg.momenta, values)
    assert pg.sup_norm() == np.max(np.abs(pg.values)) == math.inf
    values = np.ones_like(pg.values)
    values[-1, 1, 0] = complex(0.5, math.nan)  # in the last box only
    assert math.isnan(PropagatorGrid.from_rows(pg.grid, pg.momenta, values).sup_norm())


def test_memory_does_not_grow_with_k0_blocks(p_star):
    # a build plus all three passes holds a few boxes, not the rows: four
    # times the k0 blocks (83,328 -> 333,568 rows) cost the same peak
    class Null:
        def write(self, text):
            pass

    peaks = []
    for M in (8, 10):
        tracemalloc.start()
        try:
            pg = build_propagator_grid(GridSpec(L=4, beta=8.0, M=M), p_star)
            pg.to_csv(Null())
            pg.conjugation_defect()
            pg.sup_norm()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(L=st.integers(1, 16), beta=st.floats(1e-3, 500.0), M=st.integers(0, 12))
def test_matsubara_frequencies_exactly_antisymmetric(L, beta, M):
    # _matsubara_sums pairs k0 with -k0: the second half of the frequencies
    # must be the first half negated and reversed, bit for bit
    k0 = GridSpec(L=L, beta=beta, M=M).matsubara_frequencies()
    half = k0.size // 2
    assert k0.size == 2 * half
    assert np.array_equal(k0[:half].view(np.uint64), (-k0[half:][::-1]).view(np.uint64))


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("x0", [0.0, 0.5, -0.5, 7.5])
def test_matsubara_sums_match_brute_force(p_star, brute_matsubara, L, x0):
    grid = GridSpec(L=L, beta=8.0, M=12)  # 20,860 frequencies: several chunks
    kbar = grid.spatial_momenta()
    m1, m2, m3 = mass_vector(kbar[:, 0], kbar[:, 1], kbar[:, 2], p_star)
    lam2 = m1 ** 2 + m2 ** 2 + m3 ** 2
    assert np.unique(lam2).size < lam2.size  # the grid's orbits repeat values
    # values 1e-9 apart must stay apart, and generic values too
    rng = np.random.default_rng(12)
    lam2 = np.concatenate([lam2, lam2 * (1.0 + 1e-9), rng.uniform(0.0, 9.0, 40)])

    def damping(k0sq, lam2):
        return np.exp(-(k0sq + lam2))

    for extra in (None, damping):
        s0, a = _matsubara_sums(grid, lam2, 12, x0, extra)
        b0, ba = brute_matsubara(grid, lam2, 12, x0, extra)
        for got, want in ((s0, b0), (a, ba)):
            assert got.dtype == float and got.shape == lam2.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(b0))
        if x0 == 0.0:
            assert np.all(a == 0.0)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 8, 12])
def test_grid_orbit_columns(p_star, L):
    """The grid's orbit columns under k1 -> -k1, k2 -> -k2, k1 <-> k2, k3 -> -k3
    (mod 2 pi): (F+1)^2 (F+2)/2 of them, F = L // 2, keyed in spatial_momenta()
    order.  Each momentum's own lambda^2 lies within 8 ulp of the grid's largest
    lambda^2 of its column's (measured: 5 at L = 3, 2.5 at L = 8 and 12); relative
    to the entry itself it can be 22 ulp (L = 12), from the cancellation in m3."""
    grid = GridSpec(L=L, beta=8.0)
    m, lam2, key = propagator._grid_columns(grid, p_star)
    F = L // 2
    assert lam2.size == (F + 1) ** 2 * (F + 2) // 2 == key.max() + 1
    assert key.shape == (L ** 3,) and np.array_equal(np.unique(key), np.arange(lam2.size))
    kbar = grid.spatial_momenta()
    own = mass_vector(*kbar.T, p_star)
    assert all(np.array_equal(a, b) for a, b in zip(m, own))
    own = own[0] ** 2 + own[1] ** 2 + own[2] ** 2
    assert np.all(np.abs(own - lam2[key]) <= 8 * np.spacing(lam2.max()))
    # the key partitions the momenta as the folded index triples do, row by row
    j = np.rint(kbar * L / (2.0 * np.pi)).astype(int)
    f = np.minimum(j, -j % L)
    orbit = np.stack([f[:, :2].max(axis=1), f[:, :2].min(axis=1), f[:, 2]], axis=1)
    _, label = np.unique(orbit, axis=0, return_inverse=True)
    assert len(set(zip(key.tolist(), label.ravel().tolist()))) == lam2.size


@pytest.mark.parametrize("x0", [0.0, 0.5])
def test_matsubara_sums_on_orbit_columns_match_brute_force(p_star, brute_matsubara, x0):
    grid = GridSpec(L=5, beta=8.0, M=12)
    m, lam2, key = propagator._grid_columns(grid, p_star)
    s0, a = (x[key] for x in _matsubara_sums(grid, lam2, 12, x0))
    b0, ba = brute_matsubara(grid, m[0] ** 2 + m[1] ** 2 + m[2] ** 2, 12, x0)
    for got, want in ((s0, b0), (a, ba)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(b0))


def test_time_slice_memo_returns_cold_bits(p_star):
    """Interleaved x0, side, grid and p: every call returns the bits of a call
    on a cleared memo, mutating a returned array moves no later result, and a
    call with another p or grid at the same x0 builds its own slice."""
    p2 = build_params(1.0, 0.5, 2.0, r=0.25)
    g2, g3 = GridSpec(L=5, beta=8.0, M=12), GridSpec(L=4, beta=6.0, M=12)
    calls = [(0.5, (1, 0, 2), GRID, p_star, None), (0.5, (0, 3, 1), GRID, p_star, None),
             (0.5, (1, 0, 2), GRID, p2, None), (0.5, (1, 0, 2), g2, p_star, None),
             (0.5, (1, 0, 2), g3, p_star, None), (0.5, (2, 2, 0), GRID, p_star, None),
             (0.0, (1, 0, 2), GRID, p_star, "+"), (0.0, (1, 0, 2), GRID, p_star, "-"),
             (0.0, (1, 0, 2), GRID, p_star, None), (0.0, (3, 1, 1), GRID, p_star, "+"),
             (-3.25, (1, 0, 2), GRID, p_star, None), (0.5, (1, 0, 2), GRID, p_star, "+")]

    def call(x0, x, grid, p, side):
        return schwinger_time_domain((x0,) + x, grid, p, side)

    cold = []
    for c in calls:
        propagator._time_slice.cache_clear()
        cold.append(call(*c).tobytes())
    propagator._time_slice.cache_clear()
    last = None
    for c, want in zip(calls, cold):
        before = propagator._time_slice.cache_info()
        got = call(*c)
        assert got.tobytes() == want, c
        # a memo hit exactly when x0, the branch, L, beta and p repeat the last call
        slice_of = (c[0], c[0] > 0 if c[4] is None else c[4] == "+", c[2].L, c[2].beta, c[3])
        hit = propagator._time_slice.cache_info().hits > before.hits
        assert hit == (slice_of == last), c
        last = slice_of
        got[...] = 0.0  # the caller's array is its own
    # other p and grids at x0 = 0.5 give other values: a reused slice would show
    assert len({cold[i] for i in (0, 2, 3, 4)}) == 4
    ks, f = propagator._time_slice(0.5, 4, 8.0, p_star, True)
    assert not ks.flags.writeable and not f.flags.writeable


def test_paired_sums_without_frequencies_is_zero():
    sums = propagator._paired_sums(np.empty(0), np.empty((2, 0)), np.array([0.5, 1.0, 4.0]))
    assert sums.shape == (2, 3) and np.all(sums == 0.0)


def test_paired_sums_table_weight_over_a_partial_block():
    # 4097 frequencies: one full 4096-row block and a last block of one row
    rng = np.random.default_rng(23)
    k0 = rng.uniform(0.1, 50.0, 4097)
    w = rng.normal(size=(2, k0.size))
    lam2u = np.array([0.0, 0.25, 1.0, 9.0])
    table = rng.uniform(0.0, 1.0, (k0.size, lam2u.size))
    want = np.zeros((2, lam2u.size))
    for i in range(k0.size):
        for j in range(lam2u.size):
            want[:, j] += w[:, i] * table[i, j] / (k0[i] ** 2 + lam2u[j])
    got = propagator._paired_sums(k0, w, lam2u, table)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kk=st.tuples(_ANGLE, _ANGLE, _ANGLE, _ANGLE), omega=st.sampled_from([1, -1]),
       r=st.floats(0.0, 0.5, exclude_min=True), t=st.floats(0.5, 2.0),
       t_perp=st.floats(0.25, 1.0))
def test_mass_vector_invariants(kk, omega, r, t, t_perp):
    p = build_params(t, t_perp, 2.0, r=r)
    k0, k1, k2, k3 = kk
    eps = np.finfo(float).eps
    m1, m2, m3 = mass_vector(k1, k2, k3, p)
    lam2 = m1 ** 2 + m2 ** 2 + m3 ** 2
    a = inverse_propagator(kk, p)
    # det A = -(k0^2 + lambda^2) at bare couplings, to rounding (np.linalg.det
    # goes through log|det| and loses digits near the Weyl points)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    assert abs(det + (k0 ** 2 + lam2)) <= 4 * eps * (k0 ** 2 + lam2)
    # the Bloch matrix is the sigma part of A, bit for bit
    assert np.array_equal(a + 1j * k0 * ID2, bloch_matrix((k1, k2, k3), p))
    # regime 2 at k3' is regime 1 at k3 = omega p_F + k3', through cos p_F = 1 - r
    wp = weyl_points(p)
    r1 = mass_vector(k1, k2, omega * wp.p_F + k3, p)
    r2 = mass_vector(k1, k2, k3, p, v3=wp.v30, regime=2, omega=omega)
    assert r1[0] == r2[0] and r1[1] == r2[1]
    assert abs(r1[2] - r2[2]) <= 8 * eps * (p.t_perp + p.t_prime)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kk=st.tuples(_ANGLE, _ANGLE, _ANGLE, _ANGLE), r=st.floats(-0.5, 0.5, exclude_min=True),
       t=st.floats(0.5, 2.0), t_perp=st.floats(0.25, 1.0), t_prime=st.floats(2.0, 4.0))
def test_free_propagator_conjugation_property(kk, r, t, t_perp, t_prime):
    # G(-k0, kbar) = G(k0, kbar)^dagger; negating k0 is exact, so bit for bit
    p = build_params(t, t_perp, t_prime, r=r)
    k0, k1, k2, k3 = kk
    try:
        g = free_propagator(kk, p)
    except SingularMomentumError:
        reject()
    assert np.array_equal(free_propagator((-k0, k1, k2, k3), p), g.conj().T)
