import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylrg.cutoff import shell_cutoff, smooth_cutoff
from weylrg.lattice import build_params, mass_vector, weyl_points
from weylrg.propagator import free_propagator
from weylrg import multiscale as ms


def const_couplings(p, regime):
    c0 = ms.initial_couplings(p, regime=regime)
    return lambda h: c0.replace(h=h)


def test_smooth_cutoff_plateaus():
    assert smooth_cutoff(0.5) == 1.0
    assert smooth_cutoff(1.0) == 1.0
    assert smooth_cutoff(3.0) == 0.0
    assert smooth_cutoff(2.0) == 0.0
    v = smooth_cutoff(1.5)
    assert 0.0 < v < 1.0
    assert smooth_cutoff(1.4) > smooth_cutoff(1.6)


def test_smooth_cutoff_monotone_on_ramp():
    s = np.linspace(1.0, 2.0, 200)
    vals = smooth_cutoff(s)
    assert np.all(np.diff(vals) <= 1e-15)
    with pytest.raises(ValueError):
        smooth_cutoff(-0.1)


_BREAKS = [0.0, 0.5, 1.0, 2.0, 5e-324, 1e-310, float(np.nextafter(0.5, 1.0)),
           float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)),
           float(np.nextafter(2.0, 0.0)), 0.25, 4.0]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(s=st.lists(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300),
                            st.sampled_from(_BREAKS)), min_size=1, max_size=16))
@example(s=_BREAKS)
def test_shell_cutoff_is_the_two_cutoff_difference(s):
    s = np.array(s)
    want = smooth_cutoff(s) - smooth_cutoff(2.0 * s)
    assert np.array_equal(shell_cutoff(s).view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(h=st.integers(-60, 10), a0=st.floats(1e-3, 10.0), b0=st.floats(1e-3, 1e6))
def test_chi_arg_doubles_per_scale(h, a0, b0):
    # what makes a single-scale band one shell_cutoff ramp in both regimes
    cut = ms.CutoffSpec(a0=a0, b0=b0)
    for regime in (1, 2):
        assert ms._chi_arg(h - 1, regime, cut) == 2.0 * ms._chi_arg(h, regime, cut)


def test_crossover_scale_examples(p_star, p_small_r):
    assert ms.crossover_scale(p_star) == 0
    assert ms.crossover_scale(p_small_r) == -4
    p0 = build_params(1.0, 0.5, 2.0, r=0.0)
    assert ms.crossover_scale(p0) == float("-inf")


def test_scale_support_examples(p_small_r):
    c = ms.initial_couplings(p_small_r)
    cut = ms.default_cutoff(p_small_r)
    # deep infrared: chi = 1
    chi, f = ms.scale_support((0.0, 0.0, 0.0, 0.0), -3, c, p_small_r, cut)
    # energy at origin is t_perp*r, tiny; cumulative cutoff is 1 there
    assert chi == pytest.approx(1.0)
    # energy_scale = 4 a0 2^h has chibar argument 4 -> chi_h = 0
    kk = (4.0 * cut.a0 * 2.0 ** -3, 0.0, 0.0, np.pi / 2)
    e = ms.energy_scale_h(kk, c, p_small_r)
    assert smooth_cutoff(e / (cut.a0 * 2.0 ** -3)) == 0.0


#: (regime, omega) -> (top scale, half-widths of its support box) at p_small_r:
#: regime 1 from h = 0 in absolute momenta (e < 2 a0 = 0.1, quadratic in k3),
#: regime 2 from h* - 1 = -5 in k' around the Weyl point omega p_F
#: (e < 4 2^-5/b0 = 7.8e-5, v3 = 0.5).
_TELESCOPE = {(1, 1): (0, (0.1, 0.1, 0.1, 0.65)),
              (2, 1): (-5, (8e-5, 8e-5, 8e-5, 1.6e-4)),
              (2, -1): (-5, (8e-5, 8e-5, 8e-5, 1.6e-4))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_TELESCOPE)),
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 4), j=st.integers(0, 7))
def test_scale_support_telescoping(p_small_r, case, u, j):
    """Seven single-scale weights f_h sum to chi_top - chi_{top-7} pointwise,
    at momenta shrunk by 2^-j (2^(-j/2) along the regime-1 k3 axis) so that
    every shell is reached."""
    regime, omega = case
    top, box = _TELESCOPE[case]
    c = ms.initial_couplings(p_small_r, regime=regime)
    cut = ms.default_cutoff(p_small_r)
    shrink = (2.0 ** -j,) * 3 + (2.0 ** (-j / 2 if regime == 1 else -j),)
    kk = tuple(a * b * s for a, b, s in zip(u, box, shrink))
    total = 0.0
    for h in range(top, top - 7, -1):
        chi, f = ms.scale_support(kk, h, c, p_small_r, cut, regime, omega)
        assert -1e-15 <= f <= 1.0
        total += f
    chi_top, _ = ms.scale_support(kk, top, c, p_small_r, cut, regime, omega)
    chi_bottom, _ = ms.scale_support(kk, top - 7, c, p_small_r, cut, regime, omega)
    assert abs(total + chi_bottom - chi_top) < 1e-14


def test_band_values_match_direct_inversion(p_small_r):
    c = ms.initial_couplings(p_small_r).replace(h=-2)
    cut = ms.default_cutoff(p_small_r)
    bg = ms.band_grid(-2, 1, 1, c, p_small_r, cut, n=24)
    support = np.argwhere(bg.weight > 0)
    assert len(support) == bg.support_points > 100
    ent = _entries_oracle(bg)
    # at bare couplings A_h == A, so the band value is f * A^{-1} / Z
    rng = np.random.default_rng(8)
    for i in rng.integers(0, len(support), size=25):
        idx = tuple(support[i])
        kk = tuple(ax[j] for ax, j in zip((bg.k0s, bg.k1s, bg.k2s, bg.k3s), idx))
        _, f = ms.scale_support(kk, -2, c, p_small_r, cut)
        assert abs(bg.weight[idx] - f) < 1e-12
        got = np.array([[ent[0][idx], ent[1][idx]], [ent[2][idx], ent[3][idx]]])
        expect = f * free_propagator(kk, p_small_r) / c.Z
        assert np.max(np.abs(got - expect)) < 1e-12


def test_regime2_band_above_crossover_rejected(p_small_r):
    c = ms.initial_couplings(p_small_r, regime=2).replace(h=-4)
    cut = ms.default_cutoff(p_small_r)
    ms.band_grid(-5, 2, +1, c, p_small_r, cut, n=10, h_star=-4)  # h = h* - 1 builds
    for h, h_star in ((-4, -4), (-5, None)):
        with pytest.raises(ValueError, match="needs h <= h_star - 1"):
            ms.band_grid(h, 2, +1, c, p_small_r, cut, n=10, h_star=h_star)


def test_regime1_sup_scaling(p_small_r):
    rep = ms.decay_audit(range(-5, -1), const_couplings(p_small_r, 1), p_small_r,
                         regime=1)
    # lattice-regime scaling: sup ~ 2^{5h/2}; adjacent-scale ratio within 25%
    sups = {r.h: r.sup for r in rep.rows}
    for h in (-2, -3, -4):
        ratio = sups[h] / sups[h - 1]
        assert ratio == pytest.approx(2.0 ** 2.5, rel=0.25)
    assert rep.width_x0_exponent == pytest.approx(-1.0, abs=0.15)
    assert rep.width_x3_exponent == pytest.approx(-0.5, abs=0.1)


def test_regime2_sup_scaling(p_star):
    rep = ms.decay_audit(range(-5, -1), const_couplings(p_star, 2), p_star,
                         regime=2, h_star=0)
    sups = {r.h: r.sup for r in rep.rows}
    for h in (-2, -3, -4):
        assert sups[h] / sups[h - 1] == pytest.approx(8.0, rel=0.25)
    # max-norm constant sup * Z * v3 / 2^{3h} stable across scales
    consts = [r.constant for r in rep.rows]
    assert max(consts) / min(consts) < 1.3


def test_regime2_omega_symmetry(p_star):
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star, regime=2).replace(h=-3)
    bp = ms.band_grid(-3, 2, +1, c, p_star, cut, n=16, h_star=0)
    bm = ms.band_grid(-3, 2, -1, c, p_star, cut, n=16, h_star=0)
    x0s, xps, x3s = [0.0, 5.0], [0.0], np.linspace(0, 30, 7)
    gp = bp.position_values(x0s, xps, xps, x3s)
    gm = bm.position_values(x0s, xps, xps, -x3s)
    # k3 -> -k3 model symmetry: |g_+(x3)| = |g_-(-x3)|
    assert np.max(np.abs(np.abs(gp) - np.abs(gm))) < 1e-12 * max(1.0, np.max(np.abs(gp)))


def _entries_oracle(bg, m3=None):
    """f A^{-1}/Z on the band's 4-D box from its weight and mass arrays: four
    (nk0, n1, n2, n3) complex arrays.  m3 replaces the sigma3 coefficient."""
    m1, m2, m3_band = bg.mass_arrays()
    m3 = m3_band if m3 is None else np.broadcast_to(m3, m1.shape)
    k0 = bg.k0s[:, None, None, None]
    w = bg.weight / (bg.couplings.Z * (k0 ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2))
    return w * (1j * k0 + m3), w * (m1 - 1j * m2), w * (m1 + 1j * m2), w * (1j * k0 - m3)


def _position_oracle(bg, xs, ent):
    """cell sum_k e^{-i k.x} of each entry as one 4-D einsum: (nx0, ..., 2, 2)."""
    phases = [np.exp(-1j * np.outer(x, k))
              for x, k in zip(xs, (bg.k0s, bg.k1s, bg.k2s, bg.k3s))]
    return np.stack([bg.cell * np.einsum("abcd,ea,fb,gc,hd->efgh", f, *phases, optimize=True)
                     for f in ent], axis=-1).reshape(*map(len, xs), 2, 2)


def _oracle_band(p_star, name):
    """A regime-1 or a regime-2 chain band, the bridge band with live valley
    slices (b0 = 30: one table column per box point) or the insulator tail."""
    cut = ms.default_cutoff(p_star)
    c2 = ms.initial_couplings(p_star, regime=2).replace(h=-3)
    p1 = build_params(1.0, 0.5, 2.0, r=0.5 / 25600)
    c1 = ms.initial_couplings(p1).replace(h=-3)
    p_ins = build_params(1.0, 0.5, 2.0, r=-0.05)
    c_ins = ms.initial_couplings(p_ins)
    return {
        "regime 1": lambda: ms.band_grid(-3, 1, 1, c1, p1, ms.default_cutoff(p1), n=10),
        "regime 2": lambda: ms.band_grid(-3, 2, +1, c2, p_star, cut, n=10, h_star=0),
        "bridge": lambda: ms.band_grid(0, 1, 1, ms.initial_couplings(p_star), p_star,
                                       ms.CutoffSpec(a0=p_star.a0, b0=30.0), n=6, n3=96,
                                       lower="valleys"),
        "insulator tail": lambda: ms.band_grid(0, 1, 1, c_ins, p_ins, ms.default_cutoff(p_ins),
                                               n=8, lower=None),
    }[name]()


def test_position_values_match_all_entries_einsum(p_star):
    for name in ("regime 1", "regime 2", "bridge", "insulator tail"):
        _check_position_values(p_star, name)


def _check_position_values(p_star, name):
    bg = _oracle_band(p_star, name)
    assert bg.support_points > 0
    if name == "bridge":
        assert bg.key.size == bg.table.shape[1]  # a column per box point
    emax = bg.k0s.max()
    ext12, k3max = bg.k1s.max(), np.abs(bg.k3s).max()
    xs = ([0.0, 2.0 / emax], [0.0, 1.0 / ext12], [0.0, 2.0 / ext12, -1.0 / ext12],
          np.linspace(0.0, 4.0 / k3max, 5))
    ent = _entries_oracle(bg)
    want = _position_oracle(bg, xs, ent)
    got = bg.position_values(*xs)
    assert got.shape == (2, 2, 3, 5, 2, 2)
    # to 1e-13 of the largest sum of |summands|, which bounds every value
    assert np.max(np.abs(got - want)) <= 1e-13 * bg.cell * max(np.sum(np.abs(f)) for f in ent)


@pytest.mark.parametrize("name", ["regime 1", "regime 2", "insulator tail", "chain bridge"])
def test_band_columns_are_the_distinct_lambda2_of_the_box(p_star, name):
    """The orbit dedup finds exactly np.unique's columns: one per distinct
    lambda^2 of the whole box, the key its inverse, bit for bit."""
    if name == "chain bridge":  # default b0: no live valley slice, columns deduplicated
        bg = ms.band_grid(0, 1, 1, ms.initial_couplings(p_star), p_star,
                          ms.default_cutoff(p_star), n=10, n3=96, lower="valleys")
    else:
        bg = _oracle_band(p_star, name)
    m1, m2, m3 = bg.mass_arrays()
    lam2u, inv = np.unique(m1 ** 2 + m2 ** 2 + m3 ** 2, return_inverse=True)
    assert bg.table.shape[1] == lam2u.size < bg.key.size
    assert np.array_equal(bg.key, inv.reshape(bg.key.shape))


def test_quasiparticle_split_sum_rule(p_star):
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star, regime=2)
    wp = weyl_points(p_star)
    rng = np.random.default_rng(9)
    scale = 4.0 / cut.b0  # support reaches e <= 4 2^{h*}/b0
    # oversample the support box, then keep 1000 supported momenta
    cand = np.column_stack([
        rng.uniform(-scale, scale, 60_000),
        rng.uniform(-scale, scale, 60_000),
        rng.uniform(-scale, scale, 60_000),
        rng.uniform(-scale / wp.v30, scale / wp.v30, 60_000)])
    chis = ms.chi_support((cand[:, 0], cand[:, 1], cand[:, 2], cand[:, 3]),
                          -1, c, p_star, cut, regime=2, omega=+1)
    supported = cand[np.asarray(chis) > 0][:1000]
    assert len(supported) == 1000
    import math
    for row in supported:
        kk = (row[0], row[1], row[2], wp.p_F + row[3])
        w = ms.quasiparticle_split(kk, 0, c, p_star, cut, check=False)
        k3p = math.remainder(kk[3], 2.0 * np.pi) - wp.p_F
        chi = ms.chi_support((row[0], row[1], row[2], k3p), -1, c, p_star,
                             cut, regime=2, omega=+1)
        assert w[-1] == 0.0
        assert abs(w[+1] + w[-1] - chi) < 1e-14


def test_quasiparticle_split_halves_on_k3_plane(p_star):
    """On k3 = 0 each valley carries exactly theta(0) = 1/2 of its chi_{h*-1}.
    b0 = 6 puts that plane on the ramp of chi_{h*-1} (argument 1.5 at kk = 0)."""
    cut = ms.CutoffSpec(a0=p_star.a0, b0=6.0)
    c = ms.initial_couplings(p_star, regime=2)
    p_f = weyl_points(p_star).p_F
    for kk in ((0.0, 0.0, 0.0, 0.0), (0.05, 0.1, -0.1, 0.0)):
        w = ms.quasiparticle_split(kk, 0, c, p_star, cut, check=False)
        for omega in (1, -1):
            chi = ms.chi_support((kk[0], kk[1], kk[2], -omega * p_f), -1, c, p_star, cut,
                                 regime=2, omega=omega)
            assert 0.0 < chi < 1.0
            assert w[omega] == 0.5 * chi


def test_disconnection_check_rejects_small_b0(p_star):
    cut = ms.CutoffSpec(a0=p_star.a0, b0=0.25)
    c = ms.initial_couplings(p_star, regime=2)
    with pytest.raises(ms.ConfigurationError):
        ms.disconnection_check(p_star, 0, c, cut)
    ms.disconnection_check(p_star, 0, c, ms.default_cutoff(p_star))  # passes


def _relativistic_case(p_star):
    """The split at h = -3 on 12 steps per box axis, its x-grid and m3_rel."""
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star, regime=2).replace(h=-3)
    bg, rel, rem = ms.relativistic_split_r2(-3, +1, c, p_star, cut, 0, n=12)
    x0s = np.linspace(0, 4 / bg.emax, 9)
    x3s = np.linspace(0, 4 / max(abs(bg.k3s).max(), 1e-12), 9)
    return bg, rel, rem, (x0s, [0.0, 1.0], [0.0], x3s), -c.v3 * np.sin(bg.k3s)


def test_relativistic_split_resums_exactly(p_star):
    bg, rel, rem, xs, _ = _relativistic_case(p_star)
    bound = 1e-14 * bg.cell * max(np.sum(np.abs(f)) for f in _entries_oracle(bg))
    assert np.max(np.abs(bg.position_values(*xs) - (rel(*xs) + rem(*xs)))) <= bound


def test_relativistic_split_matches_all_entries_einsum(p_star):
    """g_rel and the remainder against 4-D einsums of f A_rel^{-1}/Z and of the
    pointwise difference f (A^{-1} - A_rel^{-1})/Z."""
    bg, rel, rem, xs, m3_rel = _relativistic_case(p_star)
    full, lin = _entries_oracle(bg), _entries_oracle(bg, m3_rel)
    diff = [f - r for f, r in zip(full, lin)]
    assert np.any(diff[0] != 0)
    scale = bg.cell * max(np.sum(np.abs(f)) for f in full + lin)
    for got, ent in ((rel(*xs), lin), (rem(*xs), diff)):
        assert np.max(np.abs(got - _position_oracle(bg, xs, ent))) <= 1e-13 * scale


def test_relativistic_split_agrees_at_origin(p_star):
    # at kk' = 0 the linearized and full sigma3 coefficients coincide
    c = ms.initial_couplings(p_star, regime=2)
    m1, m2, m3 = mass_vector(0.0, 0.0, 0.0, p_star, c.v, c.v3, regime=2, omega=+1)
    assert abs(m3) < 1e-14 and abs(m1) < 1e-14 and abs(m2) < 1e-14


def test_remainder_halves_per_scale(p_star):
    cut = ms.default_cutoff(p_star)
    ratios = {}
    for h in (-2, -3, -4):
        c = ms.initial_couplings(p_star, regime=2).replace(h=h)
        bg, rel, rem = ms.relativistic_split_r2(h, +1, c, p_star, cut, 0, n=20)
        x0s = np.linspace(0, 4 / bg.emax, 9)
        x3s = np.linspace(0, 4 / max(abs(bg.k3s).max(), 1e-12), 9)
        g = bg.position_values(x0s, [0.0], [0.0], x3s)
        r = rem(x0s, [0.0], [0.0], x3s)
        ratios[h] = np.max(np.abs(r)) / np.max(np.abs(g))
    for h in (-3, -4):
        assert ratios[h + 1] / ratios[h] == pytest.approx(2.0, rel=0.3)


def test_decay_audit_l1_reported(p_small_r):
    rep = ms.decay_audit(range(-4, -1), const_couplings(p_small_r, 1), p_small_r,
                         regime=1)
    assert all(r.l1_mass > 0 for r in rep.rows)
    assert np.isfinite(rep.l1_exponent)  # reported, not asserted (see module notes)


def test_decay_audit_insufficient_grid(p_small_r):
    with pytest.raises(ms.InsufficientGridError):
        ms.decay_audit(range(-3, -1), const_couplings(p_small_r, 1), p_small_r,
                       regime=1, x_points=5)


def test_audits_deterministic(p_small_r):
    r1 = ms.decay_audit(range(-3, -1), const_couplings(p_small_r, 1), p_small_r, regime=1)
    r2 = ms.decay_audit(range(-3, -1), const_couplings(p_small_r, 1), p_small_r, regime=1)
    assert r1.summary() == r2.summary()
