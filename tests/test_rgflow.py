import dataclasses
import math

import numpy as np
import pytest

from weylrg.cutoff import smooth_cutoff
from weylrg.lattice import (ID2, SIGMA1, SIGMA2, SIGMA3, build_params, mass_vector, pauli,
                            weyl_points)
from weylrg.propagator import GridSpec, _matsubara_sums, inverse_propagator
from weylrg import multiscale as ms
from weylrg import rgflow as rg

INTER = rg.exponential_interaction(1.0)


def test_interaction_transform_matches_lattice_sum():
    # closed-form Poisson kernels vs the direct exponential lattice sum
    def axis_direct(q, kappa):
        return 1.0 + 2.0 * sum(math.exp(-kappa * n) * math.cos(q * n)
                               for n in range(1, 80))
    for kappa in (0.7, 1.0, 2.0):
        inter = rg.exponential_interaction(kappa)
        for q in (0.0, 0.3, 1.1, 2.9):
            assert inter.axis_value(q) == pytest.approx(axis_direct(q, kappa), abs=1e-12)


def test_interaction_transform_smooth_even_positive():
    qs = np.linspace(-np.pi, np.pi, 101)
    vals = INTER.axis_value(qs)
    assert np.all(vals > 0)
    assert np.allclose(vals, vals[::-1], atol=1e-14)


def test_localize_kernel_on_free_inverse(p_star):
    loc = rg.localize_kernel(lambda kk: inverse_propagator(kk, p_star), regime=1)
    # symbolic derivatives of A: n = mu - t' + t_perp, b0 = 1, b+- = t,
    # b3 = d^2/dk3^2 (t_perp cos k3) at 0 = -t_perp
    assert loc.n_h == pytest.approx(0.25, abs=1e-12)
    assert loc.b0_h == pytest.approx(1.0, abs=1e-10)
    assert loc.bplus_h == pytest.approx(1.0, abs=1e-6)
    assert loc.bminus_h == pytest.approx(1.0, abs=1e-6)
    assert loc.b3_h == pytest.approx(-0.5, abs=1e-6)


def test_localize_kernel_regime2_slope(p_star):
    wp = weyl_points(p_star)
    loc = rg.localize_kernel(
        lambda kk: inverse_propagator(kk + (0.0, 0.0, 0.0, wp.p_F), p_star),
        regime=2)
    assert loc.b3_h == pytest.approx(-wp.v30, abs=1e-6)


def test_localize_kernel_zero_and_stencil_error():
    loc = rg.localize_kernel(lambda kk: np.zeros((len(kk), 2, 2), complex), regime=1)
    assert loc.n_h == loc.b0_h == loc.bplus_h == loc.b3_h == 0.0
    # NaN and inf used to pass the underflow test and return NaN slopes
    for bad in (1e-9, math.nan, math.inf):
        with pytest.raises(rg.StencilError):
            rg.localize_kernel(lambda kk: np.zeros((len(kk), 2, 2), complex), regime=1,
                               spacing=bad)


def test_localize_kernel_rejects_malformed_points_and_kernels(p_star):
    def kernel(kk):
        return inverse_propagator(kk, p_star)
    for bad in ((0.0, 0.0, 0.0), (0.0,) * 5, np.zeros((17, 4)), (0.0, math.nan, 0.0, 0.0),
                (0.0, 0.0, math.inf, 0.0), 0.0):
        with pytest.raises(ValueError, match="4 finite numbers"):
            rg.localize_kernel(kernel, regime=1, point=bad)
    # a kernel that answers one momentum instead of the stack
    with pytest.raises(ValueError, match=r"not \(17, 2, 2\)"):
        rg.localize_kernel(lambda kk: kernel(kk[0]), regime=1)


def test_localize_kernel_calls_the_kernel_once_on_the_stencil(p_star):
    calls = []

    def kernel(kk):
        calls.append(np.array(kk))
        return inverse_propagator(kk, p_star)
    rg.localize_kernel(kernel, regime=2, point=(0.0, 0.0, 0.0, 1.0), spacing=0.25)
    assert len(calls) == 1 and calls[0].shape == (17, 4)
    steps = calls[0] - (0.0, 0.0, 0.0, 1.0)
    assert np.array_equal(steps[0], np.zeros(4))
    # +-d and +-d/2 along (1,0,0,0), (0,1,1,0), (0,1,-1,0) and (0,0,0,1)
    dirs = {(1, 0, 0, 0), (0, 1, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1)}
    got = {tuple(s) for s in steps[1:]}
    assert got == {tuple(sign * d * np.array(u)) for u in dirs for sign in (1, -1)
                   for d in (0.25, 0.125)}


def test_update_couplings_examples(p_star):
    c = ms.initial_couplings(p_star)
    zero = rg.LocalizedKernel(0, 0, 0, 0, 0)
    c2 = rg.update_couplings(c, zero)
    assert (c2.Z, c2.v, c2.v3) == (c.Z, c.v, c.v3) and c2.h == c.h - 1

    bump = rg.LocalizedKernel(0, 0.01, 0, 0, 0)
    c3 = rg.update_couplings(c, bump)
    assert c3.Z == pytest.approx(1.01 * c.Z)
    assert c3.v == pytest.approx(c.v / 1.01)

    # every comparison with NaN is False: a NaN kernel used to pass both tests
    for bad in (rg.LocalizedKernel(0, -1.0, 0, 0, 0), rg.LocalizedKernel(0, math.nan, 0, 0, 0),
                rg.LocalizedKernel(0, 0, math.nan, 0, 0), rg.LocalizedKernel(0, 0, 0, 0, math.nan)):
        with pytest.raises(rg.FlowBlowupError, match="is not > 0|are not both > 0"):
            rg.update_couplings(c, bad)


def test_self_energy_zero_interaction(p_star):
    c = ms.initial_couplings(p_star)
    sig = rg.self_energy_first_order((0.0, 0, 0, 0), -2, c, INTER, 0.0, p_star)
    assert np.max(np.abs(sig)) == 0.0


def test_self_energy_linearity(p_star):
    c = ms.initial_couplings(p_star)
    kk = (0.0, 0.1, -0.1, 0.4)
    s1 = rg.self_energy_first_order(kk, -2, c, INTER, 0.02, p_star)
    s2 = rg.self_energy_first_order(kk, -2, c, INTER, 0.04, p_star)
    assert np.max(np.abs(s2 - 2.0 * s1)) < 1e-14 * max(1.0, np.max(np.abs(s2)))


def test_self_energy_matches_direct_cumulative_sum(p_star):
    """Shell-decomposed sum vs a direct cumulative-support quadrature."""
    c = ms.initial_couplings(p_star)
    cut = ms.default_cutoff(p_star)
    U = 0.05
    kk = (0.0, 0.0, 0.0, weyl_points(p_star).p_F)
    sig = rg.self_energy_first_order(kk, -2, c, INTER, U, p_star, n_k=24)

    # direct route: one box over the whole chi_0 \ chi_{-2} region
    bg = ms.band_grid(0, 1, 1, c, p_star, cut, n=40, n3=96)
    K1, K2, K3 = np.meshgrid(bg.k1s, bg.k2s, bg.k3s, indexing="ij")
    m1, m2, m3 = mass_vector(K1, K2, K3, p_star, c.v, c.v3)
    e = np.sqrt(bg.k0s[:, None, None, None] ** 2 + (m1 ** 2 + m2 ** 2 + m3 ** 2)[None])
    weight = smooth_cutoff(e / cut.a0) - smooth_cutoff(e / (cut.a0 * 2.0 ** -2))
    direct = _direct_self_energy(kk, bg, INTER, U, weight)
    # absolute quadrature tolerance plus a relative check on the tiny values
    assert np.max(np.abs(sig - direct)) < 1e-4
    assert np.max(np.abs(sig - direct)) < 0.05 * np.max(np.abs(direct))


def _direct_self_energy(kk_abs, bg, inter, U, weight=None):
    """One band's one-loop kernel as 4-D einsums over weight A^{-1}/Z on the
    band's box: its own weight, or the 4-D weight given."""
    weight = bg.weight if weight is None else weight
    m1, m2, m3 = bg.mass_arrays()
    k0 = bg.k0s[:, None, None, None]
    w = weight / (bg.couplings.Z * (k0 ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2))
    e00, e01 = w * (1j * k0 + m3), w * (m1 - 1j * m2)
    e10, e11 = w * (m1 + 1j * m2), w * (1j * k0 - m3)
    origin = bg.omega * weyl_points(bg.params).p_F if bg.regime == 2 else 0.0
    d1 = inter.amplitude * inter.axis_value(kk_abs[1] - bg.k1s)
    d2 = inter.axis_value(kk_abs[2] - bg.k2s)
    d3 = inter.axis_value(kk_abs[3] - origin - bg.k3s)
    fock = np.array([[np.einsum("abcd,b,c,d->", f, d1, d2, d3) for f in row]
                     for row in ((e00, e01), (e10, e11))])
    hartree = inter.v_hat_0 * (np.sum(e00) + np.sum(e11))
    return U * bg.cell * (hartree * np.eye(2) - fock)


def _bridge_band(h_star, c, p, cut, n_k):
    """The bridge band as run_flow builds it at h*."""
    return ms.band_grid(h_star, 1, 1, c, p, cut, n=n_k, n3=max(96, 8 * n_k), lower="valleys")


def _test_bands(p_star, p_small_r):
    """A regime-1 band, both regime-2 valleys and the bridge band."""
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star)
    cut2 = ms.default_cutoff(p_small_r)
    c2 = ms.initial_couplings(p_small_r, regime=2).replace(h=-5)
    return {"regime 1": ms.band_grid(-1, 1, 1, c.replace(h=-1), p_star, cut, n=10),
            "valley +1": ms.band_grid(-5, 2, +1, c2, p_small_r, cut2, n=10, h_star=-4),
            "valley -1": ms.band_grid(-5, 2, -1, c2, p_small_r, cut2, n=10, h_star=-4),
            "bridge": _bridge_band(0, c, p_star, cut, 10)}


def test_cached_band_sums_match_direct_einsum(p_star, p_small_r):
    p_f = weyl_points(p_star).p_F
    for name, bg in _test_bands(p_star, p_small_r).items():
        assert bg.support_points > 0, name
        for kk in ((0.0, 0.0, 0.0, 0.0), (0.3, 0.1, -0.2, p_f),
                   (0.0, -0.4, 0.25, -p_f + 0.1), (0.0, 1.0, 2.0, 3.0)):
            got = rg.band_self_energy(kk, [bg.box], INTER, 0.05)
            want = _direct_self_energy(kk, bg, INTER, 0.05)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (name, kk)


def test_valley_minus_one_is_the_mirror_of_valley_plus_one(p_star):
    """At b0 = 6 the k3' box is cut by the theta(omega k3) window, which differs
    between the valleys: valley -1 must sit in (p_F - pi, p_F] and match the
    +1 box point for point, and its moments the point-by-point oracle."""
    cut = ms.CutoffSpec(a0=p_star.a0, b0=6.0)
    c = ms.initial_couplings(p_star, regime=2).replace(h=-1)
    bp, bm = (ms.band_grid(-1, 2, om, c, p_star, cut, n=10, h_star=0) for om in (+1, -1))
    p_f = weyl_points(p_star).p_F
    assert np.array_equal(bm.k3s, -bp.k3s[::-1])
    assert p_f - np.pi < bm.k3s.min() and bm.k3s.max() <= p_f
    assert bm.omega == -1 and bm.k3_origin == -p_f
    assert bm.support_points == bp.support_points > 0
    for kk in ((0.0, 0.0, 0.0, -p_f), (0.0, 0.2, -0.1, -p_f + 0.3), (0.0, -0.3, 0.4, 1.0)):
        got = rg.band_self_energy(kk, [bm.box], INTER, 0.05)
        want = _direct_self_energy(kk, bm, INTER, 0.05)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), kk


def test_mirrored_band_arrays_are_read_only_views(p_star):
    """Valley -1 keeps no copy: its moments and key are the +1 arrays reversed
    along k3', sharing their memory, and cannot be written."""
    c = ms.initial_couplings(p_star, regime=2).replace(h=-2)
    bp = ms.band_grid(-2, 2, 1, c, p_star, ms.default_cutoff(p_star), n=10, h_star=0)
    bm = bp.mirror()
    for got, own in ((bm.moments, bp.moments), (bm.key, bp.key)):
        assert got.base is not None and np.shares_memory(got, own)
        assert np.array_equal(got, own[..., ::-1])
        assert not got.flags.writeable
        with pytest.raises(ValueError):  # read-only
            got[(0,) * got.ndim] = 1


def test_band_weight_cannot_be_written(p_star, p_small_r):
    kk = (0.0, 0.1, -0.2, 0.3)
    for name, bg in _test_bands(p_star, p_small_r).items():
        before = rg.band_self_energy(kk, [bg.box], INTER, 0.05)
        with pytest.raises(AttributeError):
            bg.weight = 0.5 * bg.weight
        for arr in (bg.weight, bg.table, bg.moments):
            with pytest.raises(ValueError):  # read-only
                arr[(0,) * arr.ndim] = 1.0
        assert np.array_equal(rg.band_self_energy(kk, [bg.box], INTER, 0.05), before), name


@pytest.mark.parametrize("b0", [None, 18.0])
def test_bridge_weight_matches_scalar_oracle(p_star, b0):
    """The bridge band's weight at 50 box points against
    chi_{h*}(e_1) - sum_omega theta(omega k3) chi_{h*-1}(e_omega), clipped at
    0, written out point by point at the band's couplings; the valleys take
    the axial velocity v3 sin p_F that run_flow carries into regime 2.

    At the default b0 the valley support (e < 2^h* a0^2/2) lies below the
    box's smallest |k0| = 2^h* 2 a0/n_k, so only the upper cutoff acts; at
    b0 = 18 the valley term reaches the box, and since b0 < 1/a0 it covers
    the upper cutoff's whole support: the clip empties the band.
    """
    cut = ms.default_cutoff(p_star) if b0 is None else ms.CutoffSpec(a0=p_star.a0, b0=b0)
    c = ms.initial_couplings(p_star)
    h_star = ms.crossover_scale(p_star)
    band = _bridge_band(h_star, c, p_star, cut, 10)
    p, p_f = p_star, weyl_points(p_star).p_F
    # 26 points of the upper cutoff's support, and the whole k0 axis through
    # each Weyl point, where both cutoffs' ramps are crossed
    rng = np.random.default_rng(21)
    box = np.meshgrid(band.k0s, band.k1s, band.k2s, band.k3s, indexing="ij")
    support = np.argwhere(ms.chi_support(box, h_star, c, p_star, cut) > 0)
    picks = [tuple(x) for x in support[rng.choice(len(support), 26, replace=False)]]
    j0 = int(np.argmin(np.abs(band.k1s)))
    for s3 in (1, -1):
        m0 = int(np.argmin(np.abs(band.k3s - s3 * p_f)))
        picks += [(i, j0, j0, m0) for i in range(band.k0s.size)]
    assert len(picks) == 50
    split, clipped = 0, 0
    for i, j, l, m in picks:
        k0, k1, k2, k3 = band.k0s[i], band.k1s[j], band.k2s[l], band.k3s[m]
        kp, km = (k1 + k2) / 2.0, (k1 - k2) / 2.0
        E = p.t_prime * (1.0 - math.cos(kp) * math.cos(km))
        planar = (c.v * math.sin(kp)) ** 2 + (c.v * math.sin(km)) ** 2
        e1 = math.sqrt(k0 ** 2 + planar + (c.v3 * (math.cos(k3) - 1.0 + p.r) + E) ** 2)
        want = smooth_cutoff(2.0 ** -h_star / cut.a0 * e1)
        for omega in (1, -1):
            theta = 1.0 if omega * k3 > 0 else (0.5 if k3 == 0.0 else 0.0)
            k3p = k3 - omega * p_f
            m3 = (-omega * c.v3 * math.sin(p_f) * math.sin(k3p)
                  + p.t_perp * math.cos(p_f) * (math.cos(k3p) - 1.0) + E)
            e = math.sqrt(k0 ** 2 + planar + m3 ** 2)
            low = theta * smooth_cutoff(cut.b0 / 2.0 * 2.0 ** -(h_star - 1) * e)
            split += low > 0
            want -= low
        clipped += want < 0
        assert abs(band.weight[i, j, l, m] - max(want, 0.0)) <= 1e-15, (i, j, l, m)
    if b0 is not None:
        assert split >= 10 and clipped >= 1, (split, clipped)


def test_bridge_lower_edge_is_first_regime2_upper_edge(p_star):
    """At U = 0 the bridge band is chi_{h*} minus theta(omega k3) times the
    upper edge chi_{h*-1} of the first regime-2 band of valley omega, point by
    point, so the scale partition telescopes across h*.  b0 = 30, between 1/a0
    and 2/a0, puts that edge on the box's three smallest |k0|.  The h* = 0
    step leaves the couplings as they were, so both bands are built here as
    run_flow builds them."""
    cut = ms.CutoffSpec(a0=p_star.a0, b0=30.0)
    c = ms.initial_couplings(p_star)
    assert ms.crossover_scale(p_star) == 0
    bridge = _bridge_band(0, c, p_star, cut, 10)
    first = ms.band_grid(-1, 2, +1, ms._regime2_couplings(c.replace(h=-1), p_star), p_star,
                         cut, n=10, h_star=0)
    p_f = weyl_points(p_star).p_F
    k0, k1, k2, k3 = np.meshgrid(bridge.k0s, bridge.k1s, bridge.k2s, bridge.k3s,
                                 indexing="ij")
    upper = ms.chi_support((k0, k1, k2, k3), 0, bridge.couplings, p_star, cut)
    lower = sum(np.where(om * k3 > 0, 1.0, np.where(k3 == 0.0, 0.5, 0.0))
                * ms.chi_support((k0, k1, k2, k3 - om * p_f), -1, first.couplings, p_star,
                                 cut, regime=2, omega=om) for om in (1, -1))
    assert np.count_nonzero((lower > 0) & (upper > lower)) > 100
    assert np.max(np.abs(bridge.weight - np.clip(upper - lower, 0.0, None))) <= 1e-15


def test_flow_step_deterministic(p_star):
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star)
    bands = [_bridge_band(0, c, p_star, cut, 10)]
    c1, r1 = rg.flow_step(0, c, bands, INTER, 0.05, p_star)
    c2, r2 = rg.flow_step(0, c, bands, INTER, 0.05, p_star)
    assert r1 == r2 and c1 == c2  # bit-for-bit on a fixed band
    assert np.isfinite(r1.beta_nu) and np.isfinite(r1.max_dimensionless)


def test_run_flow_free_fixed_point(p_star):
    traj = rg.run_flow(p_star, 0.0, INTER, -4, n_k=10)
    assert traj.max_dimensionless_beta <= 1e-10
    zs = [r.couplings.Z for r in traj.rows]
    assert all(z == 1.0 for z in zs)
    assert traj.final.v == p_star.t


def test_run_flow_rejects_bad_eps0(p_star):
    # a NaN window used to run to "completed": no comparison with NaN fires
    for bad in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="eps0"):
            rg.run_flow(p_star, 0.01, INTER, -2, n_k=10, eps0=bad)


def test_run_flow_checks_the_bridge_step(p_star):
    # kappa = 1e-7 drives the h* = 0 bridge step's v3 from 0.5 to 7.15; it used
    # to be compared with itself and the flow ran on at v3 = 6.196 to "completed"
    with pytest.raises(rg.FlowBlowupError, match="eps0 = 0.5 window at h = -1"):
        rg.run_flow(p_star, 0.05, rg.exponential_interaction(1e-7), -6)


def test_run_flow_insulator_stops_at_crossover():
    # shallow insulator: whole infrared gapped out, single trivial step
    p_gapped = build_params(1.0, 0.5, 2.0, r=-0.2)
    traj = rg.run_flow(p_gapped, 0.02, INTER, -8, n_k=10)
    assert traj.termination == "insulator-stop"
    assert traj.rows[-1].h == ms.crossover_scale(p_gapped)

    # deeper insulator: the chi_{h*} tail band is populated and integrates in
    # one step with nu_{h*} = 0, never entering regime 2
    p_deep = build_params(1.0, 0.5, 2.0, r=-0.01)
    traj = rg.run_flow(p_deep, 0.02, INTER, -8, n_k=10)
    assert traj.termination == "insulator-stop"
    assert traj.rows[-1].h == ms.crossover_scale(p_deep)
    assert traj.rows[-1].beta.band_points > 0
    assert all(r.couplings.regime == 1 for r in traj.rows)
    assert traj.final.nu == 0.0


def test_dressed_two_point_needs_semimetal():
    traj = rg.run_flow(build_params(1.0, 0.5, 2.0, r=-0.2), 0.02, INTER, -8, n_k=10)
    assert traj.termination == "insulator-stop"
    with pytest.raises(ValueError, match="needs semimetal parameters"):
        rg.dressed_two_point((0.01, 0.0, 0.0, 0.01), 1, traj, INTER)


def test_dressed_two_point_rejects_the_critical_point():
    """At r = 0 the Weyl points merge and v30 = 0, so the bound |k'|/v30 has
    no meaning: a ValueError, not a division by zero."""
    traj = rg.run_flow(build_params(1.0, 0.5, 2.0, r=0.0), 0.05, INTER, -4, n_k=10)
    with pytest.raises(ValueError, match=r"degenerate at r = 0 \(v30 = 0\)"):
        rg.dressed_two_point((0.01, 0.0, 0.0, 0.01), 1, traj, INTER)


def test_run_flow_gapped_insulator_band_is_empty():
    # below r ~ -0.24 the gap t_perp |r| lies above the whole scale-0 box, so
    # the regime-1 k3 bounds clamp to the empty arc at k3 = 0 instead of
    # taking acos of a number above 1
    for r in (-0.25, -0.3, -0.49):
        p = build_params(1.0, 0.5, 2.0, r=r)
        traj = rg.run_flow(p, 0.05, INTER, -4, n_k=8)
        assert traj.termination == "insulator-stop"
        assert [row.h for row in traj.rows] == [ms.crossover_scale(p)] == [0]
        assert traj.rows[-1].beta.band_points == 0
        assert traj.final.nu == 0.0


@pytest.mark.parametrize("r", [0.5, 3.125e-4, 0.0, -0.2])
def test_run_flow_b0_is_exactly_zero(r):
    """The instantaneous vertex never renormalizes Z: the k0 slope of every
    step's kernel is exactly 0, however the stacked contraction rounds its
    rows, so Z stays exactly 1."""
    traj = rg.run_flow(build_params(1.0, 0.5, 2.0, r=r), 0.05, INTER, -6, n_k=8)
    assert traj.rows
    for row in traj.rows:
        assert row.beta.b0 == 0.0, row.h
        assert row.couplings.Z == 1.0, row.h
    assert traj.final.Z == 1.0


@pytest.mark.parametrize("r", [0.5, 0.05, 2.0 ** -10, 0.0])
def test_flow_steps_keep_the_symmetry_pattern(r):
    """What localization drops, every Pauli component outside the pattern of
    (n, b0, b+, b-, b3) over W(0) and the stencil differences, stays below
    1e-9 of the kept coefficients at every step; the h = 0 box with moments
    that break the k1 <-> k2 symmetry is far above it."""
    p = build_params(1.0, 0.5, 2.0, r=r)
    traj = rg.run_flow(p, 0.05, INTER, -4, n_k=8)
    assert [row.h for row in traj.rows] == [0, -1, -2, -3]
    for row in traj.rows:
        assert row.beta.residual <= 1e-9, row.h

    def localized(boxes, regime):
        k3 = weyl_points(p).p_F if regime == 2 else 0.0
        return rg.localize_kernel(lambda kk: rg.band_self_energy(kk, boxes, INTER, 0.05),
                                  regime, point=(0.0, 0.0, 0.0, k3))
    # the first and the last step again, from the boxes the flow kept (Z = 1)
    first, last = traj.rows[0].beta, traj.rows[-1].beta
    assert first.regime == 1
    nboxes = 2 if last.regime == 2 else 1
    for rec, boxes in ((first, traj.boxes[:1]), (last, traj.boxes[-nboxes:])):
        loc = localized(boxes, rec.regime)
        assert (loc.residual, loc.b3_h, loc.bplus_h) == (rec.residual, rec.b3, rec.bplus)
    moments, k1s, *axes = traj.boxes[0]
    bent = (moments * (1.0 + 0.1 * k1s)[:, None, None], k1s, *axes)
    assert localized([bent], 1).residual > 1e-4


# one term off the pattern in one datum each: (Pauli matrix, scalar field of kk)
_OFF_PATTERN = {
    "sigma1 in the k0 slope": (SIGMA1, lambda kk: kk[:, 0]),
    "I in the k+ slope": (ID2, lambda kk: np.sin(kk[:, 1] + kk[:, 2])),
    "sigma3 in the k- slope": (SIGMA3, lambda kk: kk[:, 1] - kk[:, 2]),
    "sigma1 in the k3 curvature": (SIGMA1, lambda kk: np.cos(kk[:, 3]) - 1.0),
    "imaginary sigma3 in the k3 curvature": (1j * SIGMA3, lambda kk: kk[:, 3] ** 2),
    "sigma2 in W(0)": (SIGMA2, lambda kk: np.ones(len(kk))),
}


@pytest.mark.parametrize("name", sorted(_OFF_PATTERN))
def test_localize_kernel_residual_sees_every_datum(p_star, name):
    """The free inverse propagator keeps the pattern (its largest kept
    coefficients are b0 = b+- = 1); 0.01 of a term off it sets the residual."""
    sigma, field = _OFF_PATTERN[name]

    def kernel(kk):
        return inverse_propagator(kk, p_star)
    assert rg.localize_kernel(kernel, regime=1).residual <= 1e-12
    loc = rg.localize_kernel(lambda kk: kernel(kk) + 0.01 * field(kk)[:, None, None] * sigma,
                             regime=1)
    assert 0.005 < loc.residual < 0.05


def test_run_flow_regime_flip_at_h_star(p_small_r):
    traj = rg.run_flow(p_small_r, 0.01, INTER, -7, n_k=10)
    assert traj.h_star == -4
    regimes = [(r.h, r.couplings.regime) for r in traj.rows]
    # regime tag flips once, right below h* = -4
    assert all(reg == 1 for h, reg in regimes if h >= -4)
    assert all(reg == 2 for h, reg in regimes if h < -4)
    assert traj.v3_crossover == pytest.approx(
        traj.rows[4].couplings.v3 * math.sin(weyl_points(p_small_r).p_F), rel=1e-6)


def test_run_flow_builds_one_band_per_step(p_small_r, monkeypatch):
    """Regime-2 steps build valley +1 and take valley -1 as its mirror."""
    calls = []
    real = rg.band_grid

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(rg, "band_grid", counted)
    traj = rg.run_flow(p_small_r, 0.01, INTER, -7, n_k=10)
    assert len(calls) == len(traj.rows) == 7 and traj.termination == "completed"
    assert [h for h, regime, _ in calls if regime == 2] == [-5, -6]
    assert all(omega == 1 for _, _, omega in calls)
    assert len(traj.boxes) == 9


def test_run_flow_r_zero_stays_regime1():
    p0 = build_params(1.0, 0.5, 2.0, r=0.0)
    traj = rg.run_flow(p0, 0.01, INTER, -5, n_k=10)
    assert traj.h_star == float("-inf")
    assert all(r.couplings.regime == 1 for r in traj.rows)


def test_solve_nu_zero_interaction(p_star):
    nu, traj = rg.solve_nu(p_star, 0.0, INTER, -4, n_k=10)
    assert nu == 0.0
    assert traj.final.nu == 0.0


def test_solve_nu_odd_in_U(p_star):
    nup, _ = rg.solve_nu(p_star, 0.04, INTER, -4, n_k=10)
    num, _ = rg.solve_nu(p_star, -0.04, INTER, -4, n_k=10)
    assert nup == pytest.approx(-num, rel=1e-10)


def test_solve_nu_bounds_flow(p_star):
    nu, solved = rg.solve_nu(p_star, 0.05, INTER, -6, n_k=10)
    unsolved = rg.run_flow(p_star, 0.05, INTER, -6, nu0=0.0, n_k=10)
    nus_s = solved.nu_of_h()
    nus_u = unsolved.nu_of_h()
    h_min = solved.final.h
    # solved: no 2^-h growth; unsolved: doubles per scale
    assert abs(nus_s[h_min]) < 10.0 * max(abs(nus_s[h_min // 2]), 1e-18)
    assert abs(nus_u[h_min]) > 10.0 * abs(nus_s[h_min]) or abs(nus_s[h_min]) < 1e-15
    ratio = nus_u[h_min] / nus_u[h_min + 2]
    assert ratio == pytest.approx(4.0, rel=0.05)  # 2^-h growth


def _nu_target(traj):
    return -sum(2.0 ** (r.h - 1) * r.beta.beta_nu for r in traj.rows)


def test_solve_nu_is_two_flows(p_star, monkeypatch):
    calls = []
    real = rg.run_flow

    def counted(*args, **kwargs):
        calls.append(kwargs["nu0"])
        return real(*args, **kwargs)

    monkeypatch.setattr(rg, "run_flow", counted)
    nu, traj = rg.solve_nu(p_star, 0.05, INTER, -5, n_k=8)
    assert calls == [0.0, nu]
    assert traj.nu0 == nu
    probe = real(p_star, 0.05, INTER, -5, nu0=0.0, n_k=8)
    assert nu == _nu_target(probe) != 0.0
    assert _nu_target(traj) == nu


def test_solve_nu_rejects_nu_dependent_beta(p_star, monkeypatch):
    real = rg.run_flow

    def drifting(*args, **kwargs):
        traj = real(*args, **kwargs)
        for r in traj.rows:
            r.beta.beta_nu += 1e-2 * kwargs["nu0"]
        return traj

    monkeypatch.setattr(rg, "run_flow", drifting)
    with pytest.raises(rg.FlowBlowupError, match="not affine"):
        rg.solve_nu(p_star, 0.05, INTER, -5, n_k=8)


def test_beta_envelope_decays(p_small_r):
    traj = rg.run_flow(p_small_r, 0.05, INTER, -4, n_k=10)
    betas = [abs(r.beta.beta_nu) for r in traj.rows]
    hs = [r.h for r in traj.rows]
    # regime-1 envelope: fitted log2 slope vs h at least the weak-form 0.05
    mask = [b > 0 for b in betas]
    hs = [h for h, m in zip(hs, mask) if m]
    lb = [math.log2(b) for b, m in zip(betas, mask) if m]
    if len(lb) >= 3:
        slope = np.polyfit(hs, lb, 1)[0]
        assert slope >= 0.05


def test_r_uniformity_saturates_at_small_r():
    """As r -> 0 at fixed U the max dimensionless beta saturates: r = 0.005
    and r = 0.0005 agree within a factor 4 (no 1/v30 divergence).
    Acceptance criterion 9 checks the bound against r = 0 itself."""
    vals = {}
    for r in (0.005, 0.0005):
        p = build_params(1.0, 0.5, 2.0, r=r)
        traj = rg.run_flow(p, 0.05, INTER, -6, n_k=12)
        vals[r] = traj.max_dimensionless_beta
    big, small = max(vals.values()), min(vals.values())
    assert big / small < 4.0


def test_nu_has_one_slope_through_the_critical_point():
    """The solved counterterm is continuous through r = 0 with the same slope
    from both phases.  At t, t_perp, t' = 1, 1/2, 2, U = 0.05, n_k = 12 and
    h_min = -24, the one-sided quotients (nu(r) - nu(0)) / (r U) from the
    semimetal (r > 0) and the insulator (r < 0) agree to 7.6e-3, 5.3e-4 and
    3.4e-5 relative at |r| = 2^-12, 2^-16 and 2^-20: the gap is 31 to 36
    times |r|, so it shrinks like |r| (x14 and x16 per four halvings), and
    the two sides share the linear term.  The slope, nu'(0) / U = 2.1454e-3,
    is a measured constant, not derived.  The insulating side gets there
    through its tail step, which sets nu_{h*} = 0 and integrates the rest of
    the infrared at once, a construction unlike the semimetal's regime-2
    steps.  The asserted gap bound 40 |r| and the x8 per four halvings sit
    just outside the measured spread."""
    U = 0.05
    nu = {r: rg.solve_nu(build_params(1.0, 0.5, 2.0, r=r), U, INTER, -24, n_k=12)[0]
          for r in [0.0] + [s * 2.0 ** -j for j in (12, 16, 20) for s in (1, -1)]}
    gaps = []
    for j in (12, 16, 20):
        r = 2.0 ** -j
        above, below = ((nu[s * r] - nu[0.0]) / (s * r * U) for s in (1, -1))
        gaps.append(abs(above - below) / abs(above))
        assert gaps[-1] <= 40 * r
    assert gaps[0] > 8 * gaps[1] > 64 * gaps[2]
    assert above == pytest.approx(2.1454e-3, rel=1e-4)


def test_r_uniformity_from_the_insulating_side():
    """Criterion 9's bound, approached from the insulator: scale by scale,
    max_dimensionless(r, h) <= 4 * max_dimensionless(0, h) at r = -2^-j,
    j = 2..20, on flows to h_min = -30 (r = -1/2 lies outside the window
    (-1/2, 5/2)).  Every flow ends in the insulator's tail step.  Measured:
    the worst ratio is 2.38, at r = -1/32 in the h = 0 step; at r = -1/4 the
    tail band is empty and the betas vanish; for j >= 11 the tail step's
    ratio settles at 1.395-1.400.  The semimetal side is criterion 9."""
    def per_h(r):
        traj = rg.run_flow(build_params(1.0, 0.5, 2.0, r=r), 0.05, INTER, -30, n_k=12)
        return traj, {row.h: row.beta.max_dimensionless
                      for row in traj.rows if row.beta is not None}

    _, critical = per_h(0.0)
    ratios = {}
    for j in range(2, 21):
        traj, betas = per_h(-2.0 ** -j)
        assert traj.termination == "insulator-stop"
        assert betas and set(betas) <= set(critical)
        ratios.update({(j, h): v / critical[h] for h, v in betas.items()})
    worst = max(ratios, key=ratios.get)
    assert ratios[worst] <= 4.0, f"ratio {ratios[worst]:.3g} at r = -2^-{worst[0]}, h = {worst[1]}"


@pytest.mark.parametrize("U", [0.05, 0.1])
def test_dressed_sigma3_at_k0_is_the_bare_gap(U):
    """On solve_nu trajectories at t, t_perp, t' = 1, 1/2, 2 (n_k = 12, h_min
    = -12) the sigma3 part of dressed_inverse at k = 0 is the bare t_perp r to
    within 1e-12 U, from both phases and at r = 0.  A measured fact, not a
    derived one: the worst gap is 6.05e-13 U at r = 2^-6, at most 1.7e-17 U on
    the insulating side (every flow ends in insulator-stop) and at most 1.7e-20 U
    at r = 0.  The insulator's gap t_perp |r| does not move at one loop."""
    for r in [0.0] + [s * 2.0 ** -j for j in (6, 12, 16) for s in (1, -1)]:
        p = build_params(1.0, 0.5, 2.0, r=r)
        _, traj = rg.solve_nu(p, U, INTER, -12, n_k=12)
        assert traj.termination == ("insulator-stop" if r < 0 else "completed")
        d = rg.dressed_inverse((0.0, 0.0, 0.0, 0.0), traj, INTER)
        assert abs((d[0, 0] - d[1, 1]) / 2.0 - p.t_perp * r) <= 1e-12 * U


def test_asymptotic_constants_zero_interaction(p_star):
    grid = GridSpec(L=8, beta=32.0, M=5)
    zero = rg.InteractionSpec(kappa=1.0, amplitude=0.0)
    a3, ap = rg.asymptotic_constants(p_star, zero, grid)
    assert a3 == 0.0 and ap == 0.0


def test_asymptotic_constants_sign_flip(p_star):
    grid = GridSpec(L=8, beta=32.0, M=5)
    plus = rg.InteractionSpec(kappa=1.0, amplitude=1.0)
    minus = rg.InteractionSpec(kappa=1.0, amplitude=-1.0)
    a3p, app = rg.asymptotic_constants(p_star, plus, grid)
    a3m, apm = rg.asymptotic_constants(p_star, minus, grid)
    assert a3p == pytest.approx(-a3m) and app == pytest.approx(-apm)


def test_asymptotic_constants_empty_ir_split_raises(p_star):
    # no momentum of this grid lies inside chi_0 (smallest lambda 0.1036 > 2 a0),
    # so the ir split would read (-0.0, 0.0) as if it were an answer
    grid = GridSpec(L=8, beta=32.0, M=5)
    with pytest.raises(rg.QuadratureError, match="ir weight"):
        rg.asymptotic_constants(p_star, INTER, grid, support="ir")
    assert rg.asymptotic_constants(p_star, INTER, grid, support="uv") == \
        rg.asymptotic_constants(p_star, INTER, grid, support="full")


def test_asymptotic_constants_negligible_ir_split_raises(p_star):
    # the nearest momentum sits at |k| = 1.963 a0, far out on chi_0's ramp: the
    # largest ir weight is 3.6e-12 and the split would read (-8.5e-31, 0.0)
    grid = GridSpec(L=12, beta=32.0, M=5)
    with pytest.raises(rg.QuadratureError, match="largest ir weight .* is 3.6e-12, below 1/2"):
        rg.asymptotic_constants(p_star, INTER, grid, support="ir")
    full = rg.asymptotic_constants(p_star, INTER, grid, support="full")
    assert rg.asymptotic_constants(p_star, INTER, grid, support="uv") == \
        pytest.approx(full, rel=1e-12)


def test_asymptotic_constants_support_additivity(p_star):
    grid = GridSpec(L=12, beta=48.0, M=5)
    full = rg.asymptotic_constants(p_star, INTER, grid, support="full")
    ir = rg.asymptotic_constants(p_star, INTER, grid, support="ir")
    uv = rg.asymptotic_constants(p_star, INTER, grid, support="uv")
    assert full[0] == pytest.approx(ir[0] + uv[0], rel=1e-10)
    assert full[1] == pytest.approx(ir[1] + uv[1], rel=1e-10)


@pytest.mark.parametrize("grid", [GridSpec(L=8, beta=32.0, M=5), GridSpec(L=16, beta=128.0, M=6)])
def test_grid_box_fock_matches_pointwise_sum(p_star, grid):
    """The full grid as one separable box against the Fock sum written out
    point by point: the k0 moments at the L^3 momenta of spatial_momenta
    contracted with vhat(kbar(kk) - kbar) = amplitude prod_i axis_value(q_i)."""
    kbar = grid.spatial_momenta()
    m = np.stack(mass_vector(*kbar.T, p_star))
    p_f = weyl_points(p_star).p_F
    for support in ("full", "uv", "ir"):
        weight = None if support == "full" else rg._scale0_weight(p_star.a0, support)
        box = rg._grid_moments(p_star, grid, weight)
        s0, _ = _matsubara_sums(grid, np.sum(m ** 2, axis=0), grid.M, extra=weight)
        moments = m * s0 / grid.L ** 3
        kks = ((0.0, 0.0, 0.0, p_f), (0.1, 0.2, 0.3, 1.0), (0.0, -0.4, 0.25, -p_f + 0.1),
               (0.0, 1.0, 2.0, 3.0), (0.0, np.pi / 64, np.pi / 64, p_f))
        stacked = rg.band_self_energy(np.array(kks), [box], INTER, 1.0)
        assert stacked.shape == (5, 2, 2)
        for kk, row in zip(kks, stacked):
            q = np.asarray(kk[1:])[:, None] - kbar.T
            vhat = INTER.amplitude * INTER.axis_value(q[0]) * INTER.axis_value(q[1]) \
                * INTER.axis_value(q[2])
            want = -pauli(moments @ vhat)
            for got in (rg.band_self_energy(kk, [box], INTER, 1.0), row):
                assert got.shape == (2, 2)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (support, kk)


def test_stacked_band_self_energy_matches_row_by_row(p_star, p_small_r):
    """A (P, 4) stack through the bridge band and a regime-2 band, with the
    17 stencil momenta of a localization among them, against one call per row."""
    p_f = weyl_points(p_star).p_F
    bands = _test_bands(p_star, p_small_r)
    stencil = np.array([[0, 0, 0, 0], [0.1, 0, 0, 0], [0, 0.1, 0.1, 0], [0, 0.05, -0.05, 0],
                        [0, 0, 0, -0.1], [0.3, 0.1, -0.2, p_f], [0, 1.0, 2.0, 3.0]])
    for name in ("bridge", "valley +1"):
        box = bands[name].box
        kks = stencil + (0.0, 0.0, 0.0, box[-1])
        stacked = rg.band_self_energy(kks, [box], INTER, 0.05)
        for kk, got in zip(kks, stacked):
            want = rg.band_self_energy(kk, [box], INTER, 0.05)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (name, kk)


def test_band_self_energy_rejects_malformed_momenta(p_star):
    box = rg._grid_moments(p_star, GridSpec(L=4, beta=8.0, M=4), None)
    assert rg.band_self_energy(np.zeros((2, 3, 4)), [box], INTER, 1.0).shape == (2, 3, 2, 2)
    for bad in (np.zeros(3), np.zeros((5, 3)), np.zeros((4, 5)), 0.0, (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="last axis of 4"):
            rg.band_self_energy(bad, [box], INTER, 1.0)


def _held_arrays(obj, seen=None, found=None):
    """{id: array} of every ndarray reachable from obj through dataclass
    fields, lists and tuples; raises on a BandGrid."""
    seen = set() if seen is None else seen
    found = {} if found is None else found
    if id(obj) in seen:
        return found
    seen.add(id(obj))
    assert not isinstance(obj, ms.BandGrid)
    if isinstance(obj, np.ndarray):
        found[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _held_arrays(x, seen, found)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _held_arrays(getattr(obj, f.name), seen, found)
    return found


def test_run_flow_keeps_boxes_not_bands(p_star):
    """A flow keeps each band's box (moments and spatial axes) and nothing
    else of it: no BandGrid, no table or key, no k0 axis."""
    traj = rg.run_flow(p_star, 0.05, INTER, -3, n_k=8)
    assert len(traj.boxes) == 5  # the bridge at h* = 0, both valleys at -1 and -2
    p_f = weyl_points(p_star).p_F
    boxes = {}
    for (moments, k1s, k2s, k3s, origin), want in zip(traj.boxes, (0.0,) + (p_f, -p_f) * 2):
        assert moments.shape == (3, k1s.size, k2s.size, k3s.size) and origin == want
        boxes.update({id(a): a for a in (moments, k1s, k2s, k3s)})
    held = _held_arrays(traj)
    assert held.keys() == boxes.keys()
    assert sum(a.nbytes for a in held.values()) == sum(a.nbytes for a in boxes.values())


@pytest.mark.parametrize("grid", [GridSpec(L=4, beta=8.0, M=8), GridSpec(L=6, beta=64.0, M=6)])
def test_frequency_sums_match_brute_force(p_star, brute_matsubara, monkeypatch, grid):
    """uv_self_energy and asymptotic_constants on the paired real reduction
    against the same code on the complex sum over both signs of k0, with the
    scale-0 weights written out here."""
    a0 = ms.default_cutoff(p_star).a0

    def chi0(k0sq, lam2):
        return smooth_cutoff(np.sqrt(k0sq + lam2) / a0)

    def one_minus_chi0(k0sq, lam2):
        return 1.0 - chi0(k0sq, lam2)

    kk = (0.1, 0.2, 0.3, 1.0)
    cases = [(lambda: rg.uv_self_energy(kk, p_star, INTER, 0.05, grid), one_minus_chi0)]
    cases += [(lambda s=s: rg.asymptotic_constants(p_star, INTER, grid, support=s), w)
              for s, w in (("full", None), ("ir", chi0), ("uv", one_minus_chi0))]

    def evaluate(fn):
        try:
            return np.asarray(fn(), complex).ravel().view(float)
        except rg.QuadratureError:
            return None

    paired, brute = [], []
    for fn, weight in cases:
        def brute_sums(grid, lam2, M, x0=0.0, extra=None, weight=weight):
            s0, a = brute_matsubara(grid, lam2, M, x0, weight)
            assert np.all(s0.imag == 0.0)
            return s0.real, a.real

        paired.append(evaluate(fn))
        with monkeypatch.context() as m:
            m.setattr(rg, "_matsubara_sums", brute_sums)
            brute.append(evaluate(fn))
    # the scale-0 support misses every frequency of the beta = 8 grid, so its
    # ir split has no weight and both sums refuse it
    refused = [False, False, grid.beta == 8.0, False]
    assert [v is None for v in paired] == refused
    assert [v is None for v in brute] == refused
    if grid.beta != 8.0:  # the ir split this grid keeps must carry weight
        assert not np.all(paired[2] == 0.0) and not np.all(brute[2] == 0.0)
    for got, want in zip(paired, brute):
        if got is None:
            continue
        assert np.array_equal(got == 0.0, want == 0.0)  # exact zeros stay exactly 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.slow
def test_asymptotic_constants_vs_dressed_slope(p_star):
    """Flow-slope oracle: the full-support integrals reproduce the U-slope of
    the dressed velocities measured on the assembled one-loop propagator."""
    grid = GridSpec(L=16, beta=128.0, M=6)
    a3, ap = rg.asymptotic_constants(p_star, INTER, grid, support="full")
    wp = weyl_points(p_star)
    s3m = np.diag([1.0, -1.0])
    s1m = np.array([[0.0, 1.0], [1.0, 0.0]])

    def slopes(U):
        traj = rg.run_flow(p_star, U, INTER, -6, n_k=12)
        d = 5e-3

        def comp(mat, kk):
            dressed = (rg.dressed_inverse(kk, traj, INTER)
                       + rg.uv_self_energy(kk, p_star, INTER, U, grid))
            return float(np.real(np.trace(mat @ dressed))) / 2.0

        ax = -(comp(s3m, (0.0, 0.0, 0.0, wp.p_F + d))
               - comp(s3m, (0.0, 0.0, 0.0, wp.p_F - d))) / (2 * d)
        pl = (comp(s1m, (0.0, d, d, wp.p_F))
              - comp(s1m, (0.0, -d, -d, wp.p_F))) / (2 * d)
        return ax, pl

    U = 0.04
    axU, plU = slopes(U)
    ax0, pl0 = slopes(0.0)
    assert (axU - ax0) / U == pytest.approx(a3, rel=0.05)
    assert (plU - pl0) / U == pytest.approx(ap, rel=0.05)


def test_dressed_two_point_free_oracle(p_star):
    traj = rg.run_flow(p_star, 0.0, INTER, -4, n_k=10)
    for scale in (0.02, 0.005, 0.00125):
        kkp = (0.3 * scale, 0.2 * scale, -0.1 * scale, scale)
        _, ratio, bound, ok = rg.dressed_two_point(kkp, +1, traj, INTER)
        assert ok
    # remainder ratio shrinks toward the expansion point
    r_big = rg.dressed_two_point((0.0, 0, 0, 0.02), +1, traj, INTER)[1]
    r_small = rg.dressed_two_point((0.0, 0, 0, 0.002), +1, traj, INTER)[1]
    assert r_small < r_big / 5.0


def test_dressed_two_point_omega_flip(p_star):
    sp = rg.relativistic_form((0.01, 0.0, 0.0, 0.02), +1, 1.0, 1.0, 0.43)
    sm = rg.relativistic_form((0.01, 0.0, 0.0, 0.02), -1, 1.0, 1.0, 0.43)
    assert not np.allclose(sp, sm)
    assert np.allclose(sp[0, 1], sm[0, 1])  # planar block unchanged
