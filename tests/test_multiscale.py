import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weylrg.cutoff import shell_cutoff, smooth_cutoff
from weylrg.lattice import band_energy, build_params, mass_vector, weyl_points
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
    e = band_energy(kk[0], mass_vector(*kk[1:], p_small_r, c.v, c.v3))
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
    m3 = m3_band if m3 is None else np.broadcast_to(m3, bg.key.shape)
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
    slices (b0 = 30) or the insulator tail."""
    cut = ms.default_cutoff(p_star)
    c2 = ms.initial_couplings(p_star, regime=2).replace(h=-3)
    p1 = build_params(1.0, 0.5, 2.0, r=0.5 / 25600)
    c1 = ms.initial_couplings(p1).replace(h=-3)
    p_ins = build_params(1.0, 0.5, 2.0, r=-0.05)
    c_ins = ms.initial_couplings(p_ins)
    return {
        "regime 1": lambda: ms.band_grid(-3, 1, 1, c1, p1, ms.default_cutoff(p1), n=10),
        "regime 2": lambda: ms.band_grid(-3, 2, +1, c2, p_star, cut, n=10, h_star=0),
        "regime 2 mirror": lambda: ms.band_grid(-3, 2, -1, c2, p_star, cut, n=10, h_star=0),
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
        assert bg.key.size > bg.table.shape[1]  # the live valley split keeps orbit columns
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


@pytest.mark.parametrize("name,nx0,wide,m3", [
    ("regime 2 mirror", 3, False, None),  # its key runs backwards along k3
    ("regime 2", 37, False, None),        # two k0 reductions of 32 and 5 x0
    ("regime 1", 2, True, None),          # x1, x2 grids of 5 and 4 points, some < 0
    ("bridge", 2, True, np.cos),          # the m3 override: even in k3 ...
    ("bridge", 2, False, np.sin),         # ... and odd, so its folds pair -u with u
])
def test_position_values_on_orbit_columns_match_all_entries_einsum(p_star, name, nx0, wide, m3):
    bg = _oracle_band(p_star, name)
    prof = None if m3 is None else m3(bg.k3s)
    ext12, k3max = bg.k1s.max(), np.abs(bg.k3s).max()
    xs = (np.linspace(0.0, 4.0 / bg.emax, nx0),
          np.array([-2.0, -0.5, 0.0, 1.0, 3.0] if wide else [0.0, 1.0]) / ext12,
          np.array([-1.0, 0.0, 0.5, 2.0] if wide else [0.0, -1.0]) / ext12,
          np.linspace(-2.0 / k3max, 4.0 / k3max, 5))
    ent = _entries_oracle(bg, prof)
    got = bg.position_values(*xs, m3=prof)
    assert got.shape == tuple(map(len, xs)) + (2, 2)
    bound = 1e-13 * bg.cell * max(np.sum(np.abs(f)) for f in ent)
    assert np.max(np.abs(got - _position_oracle(bg, xs, ent))) <= bound


def test_position_values_memory_stops_at_one_chunk(p_star):
    """At N = 40 (a regime-2 band of 43^3 box points on 10,879 columns) one call's
    traced peak, less its output, is the same for 32, 33 and 96 x0: each
    reduction of 32 x0 and its products are freed before the next.  Measured:
    13.60 MB for each, within 2 kB."""
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star, regime=2).replace(h=-3)
    bg = ms.band_grid(-3, 2, +1, c, p_star, cut, n=40, h_star=0)
    assert bg.lam2.size == 10879 and bg.key.size == 43 ** 3
    xps, x3s, extra = [0.0, 1.0, 2.0], np.linspace(0.0, 6.0, 25), {}
    for nx0 in (32, 33, 96):
        tracemalloc.start()
        try:
            g = bg.position_values(np.linspace(0.0, 6.0 / bg.emax, nx0), xps, xps, x3s)
            extra[nx0] = tracemalloc.get_traced_memory()[1] - g.nbytes
        finally:
            tracemalloc.stop()
    assert max(extra.values()) <= extra[32] + 2 ** 16


def _bridge_oracle(bg, cut):
    """clip(chi_{h*}(e) - sum_omega theta(omega k3) chi_{h*-1}, 0) per point of
    the bridge band's 4-D box at its positive k0s, chi_{h*-1} of valley omega at
    the regime-2 couplings and k3' = k3 - omega p_F."""
    c, p = bg.couplings, bg.params
    c2, p_F = ms._regime2_couplings(c, p), weyl_points(p).p_F
    k0, k1, k2, k3 = np.meshgrid(bg.k0s[bg.k0s.size // 2:], bg.k1s, bg.k2s, bg.k3s,
                                 indexing="ij")
    low = 0.0
    for omega in (+1, -1):
        theta = np.where(omega * k3 > 0, 1.0, np.where(k3 == 0.0, 0.5, 0.0))
        low = low + theta * ms.chi_support((k0, k1, k2, k3 - omega * p_F), bg.h - 1, c2, p,
                                           cut, regime=2, omega=omega)
    return np.clip(ms.chi_support((k0, k1, k2, k3), bg.h, c, p, cut) - low, 0.0, None)


@pytest.mark.parametrize("name", ["regime 1", "regime 2", "insulator tail", "chain bridge",
                                  "bridge", "mirror", "live bridge"])
def test_band_columns_are_the_distinct_lambda2_of_the_box(p_star, name, monkeypatch):
    """Each band's columns are the orbits of its box under k1 -> -k1, k2 -> -k2,
    k1 <-> k2 (and k3 -> -k3 in regime 1), numbered 0.. with none missing, and
    each column's lambda^2 (`lam2`) is the box's lambda^2 on every point of that
    column, bit for bit.  Off the bridge the orbits are exactly the distinct
    lambda^2 of the box; on both bridges (b0 = 30, and the default b0 at t_perp
    = 1, n = 48) the table is the per-point valley-split oracle on its live k0
    slices.  The band is the same, byte for byte, whether band_grid fills its
    table one k0 row at a time or whole (_BLOCK_CELLS)."""
    cut = ms.default_cutoff(p_star)
    if name == "chain bridge":  # default b0: no live valley slice
        def build():
            return ms.band_grid(0, 1, 1, ms.initial_couplings(p_star), p_star, cut, n=10,
                                n3=96, lower="valleys")
    elif name == "live bridge":
        p = build_params(1.0, 1.0, 2.0, r=0.5)
        cut = ms.default_cutoff(p)

        def build():
            return ms.band_grid(0, 1, 1, ms.initial_couplings(p), p, cut, n=48, lower="valleys")
    elif name == "mirror":  # valley -1 carries valley +1's columns unchanged
        def build():
            return _oracle_band(p_star, "regime 2").mirror()
    else:
        if name == "bridge":
            cut = ms.CutoffSpec(a0=p_star.a0, b0=30.0)

        def build():
            return _oracle_band(p_star, name)
    bg = build()
    if name == "live bridge":
        k0 = ms._chi_arg(-1, 2, cut) * bg.k0s[bg.k0s.size // 2:]
        assert k0[0] < 2.0 < k0[-1]  # the valley split is live on some k0 slices, not all
    m1, m2, m3 = bg.mass_arrays()
    lam2 = m1 ** 2 + m2 ** 2 + m3 ** 2
    assert bg.lam2[bg.key].tobytes() == lam2.tobytes()
    assert not bg.lam2.flags.writeable
    key = bg.key
    flips = [key[::-1], key[:, ::-1], key.transpose(1, 0, 2)] + [key[..., ::-1]] * (bg.regime == 1)
    assert all(np.array_equal(key, f) for f in flips)
    assert np.array_equal(np.unique(key), np.arange(bg.table.shape[1]))
    assert bg.table.shape[1] == bg.lam2.size < key.size
    if name.endswith("bridge") and name != "chain bridge":
        assert np.array_equal(bg.table[:, key], _bridge_oracle(bg, cut))
    else:
        assert bg.table.shape[1] == np.unique(lam2).size
    for cells in (1, bg.table.size):  # one k0 row per block; the whole table in one
        monkeypatch.setattr(ms, "_BLOCK_CELLS", cells)
        other = build()
        for field in ("table", "lam2", "key", "moments"):
            assert getattr(other, field).tobytes() == getattr(bg, field).tobytes(), field
        assert other.support_points == bg.support_points


def _constant_on_columns(x, key):
    """x (..., box) takes one value, bit for bit, on each column of key."""
    cols = np.empty(x.shape[:-3] + (key.max() + 1,))
    cols[..., key] = x
    return cols[..., key].tobytes() == x.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(band=st.sampled_from(["regime 1", "regime 2", "bridge"]),
       hop=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.0, 1.0)),
       r=st.floats(-0.45, 0.5), zv=st.tuples(*[st.floats(0.1, 4.0)] * 3),
       dh=st.integers(0, 10), n=st.integers(4, 13), n3=st.one_of(st.none(), st.integers(3, 17)),
       b0=st.floats(1.0, 1e4))
def test_lambda2_and_valley_split_are_constant_on_orbit_columns(band, hop, r, zv, dh, n, n3, b0):
    """What band_grid's scatter relies on: lambda^2 and, on the bridge band, the
    valley split are constant bit for bit on every orbit column, for admissible
    hoppings (t_prime large enough for the theorem window), couplings and scales."""
    t, t_perp, u = hop
    r = max(abs(r), 1e-3) if band != "regime 1" else r  # regime 2 and the bridge need a semimetal
    p = build_params(t, t_perp, t_perp * (1.75 + u), r=r)
    c = ms.RunningCouplings(*zv, nu=0.0, h=0)
    h_star = ms.crossover_scale(p)
    if band == "regime 1":
        bg = ms.band_grid(-dh, 1, 1, c, p, ms.default_cutoff(p), n=n, n3=n3)
    elif band == "regime 2":
        bg = ms.band_grid(h_star - 1 - dh, 2, 1, c, p, ms.default_cutoff(p), n=n, n3=n3,
                          h_star=h_star)
    else:
        cut = ms.CutoffSpec(a0=p.a0, b0=b0)
        bg = ms.band_grid(h_star, 1, 1, c, p, cut, n=n, n3=n3, lower="valleys")
        split = ms._valley_split(bg.k1s[:, None, None], bg.k2s[None, :, None], bg.k3s, h_star,
                                 ms._regime2_couplings(c, p), p, cut)(
            bg.k0s[bg.k0s.size // 2:, None, None, None])
        assert _constant_on_columns(split[+1] + split[-1], bg.key)
    m1, m2, m3 = bg.mass_arrays()
    assert _constant_on_columns(m1 ** 2 + m2 ** 2 + m3 ** 2, bg.key)


def test_live_bridge_band_costs_what_its_chain_band_costs():
    """The valley split is evaluated on the bridge band's orbit columns, not on
    its box: at t, t_perp, t' = 1, 8, 16, r = 1/2, n = 32, n3 = 256, where 3 of
    the 17 positive k0 slices are live, the lower="valleys" build peaks (under
    tracemalloc) at most 1.2x the same band built with lower=None.  Measured:
    1.05 (1.09 in a fresh process), against 1.64 when the split filled every box
    point of a live slice."""
    p = build_params(1.0, 8.0, 16.0, r=0.5)
    cut, c = ms.default_cutoff(p), ms.initial_couplings(p)
    peaks = {}
    for lower in ("valleys", None):
        tracemalloc.start()
        try:
            bg = ms.band_grid(0, 1, 1, c, p, cut, n=32, n3=256, lower=lower)
            peaks[lower] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.sum(ms._chi_arg(-1, 2, cut) * bg.k0s[bg.k0s.size // 2:] < 2.0) == 3
    assert peaks["valleys"] <= 1.2 * peaks[None]


def test_band_build_holds_one_table_block_and_one_box_beyond_the_band():
    """band_grid fills its table _BLOCK_CELLS at a time (whole k0 rows, at least
    one) and the box's moments straight from the column sums, so a build's traced
    peak, less the arrays the band keeps, is at most one table block plus one
    box-sized array (the box's m3).  On the live bridge band at t, t_perp, t' = 1,
    8, 16, r = 1/2, n = 32, n3 = 256 (17 x 22,059 table, 35 x 35 x 257 box, one
    row a block) measured: 2.69 MB against 2.70 MB; the whole-table build, with
    about five table-sized and two box-sized temporaries, 10.9 MB."""
    p = build_params(1.0, 8.0, 16.0, r=0.5)
    cut, c = ms.default_cutoff(p), ms.initial_couplings(p)
    ms.band_grid(0, 1, 1, c, p, cut, n=32, n3=256, lower="valleys")  # first-call allocations
    tracemalloc.start()
    try:
        bg = ms.band_grid(0, 1, 1, c, p, cut, n=32, n3=256, lower="valleys")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (bg.table, bg.lam2, bg.key, bg.moments))
    block = max(1, ms._BLOCK_CELLS // bg.lam2.size) * bg.lam2.size
    assert peak - kept <= 8 * (block + bg.key.size)


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


def test_position_values_m3_needs_a_k3_profile_on_orbit_columns(p_star):
    """m3 must be an (n3,) profile whose lambda^2 keeps the band's orbits: on a
    regime-1 band, whose orbits pair k3 with -k3, an even or an odd profile
    (m3^2 is even either way) matches the all-entries einsum; one with no
    parity raises."""
    xs = ([0.0], [0.0], [0.0], [0.0])
    bg = _oracle_band(p_star, "regime 2")
    for m3 in (0.0, np.zeros(bg.k3s.size + 1), np.zeros(bg.key.shape)):
        with pytest.raises(ValueError, match="m3 needs"):
            bg.position_values(*xs, m3=m3)
    bg = _oracle_band(p_star, "regime 1")
    with pytest.raises(ValueError, match="m3 needs"):
        bg.position_values(*xs, m3=bg.k3s + 0.25)
    xs = ([0.0, 2.0 / bg.emax], [0.0, 1.0], [0.0], np.linspace(0.0, 4.0, 5))
    for m3 in (np.cos(bg.k3s), np.sin(bg.k3s)):
        ent = _entries_oracle(bg, m3)
        bound = 1e-13 * bg.cell * max(np.sum(np.abs(f)) for f in ent)
        got = bg.position_values(*xs, m3=m3)
        assert np.max(np.abs(got - _position_oracle(bg, xs, ent))) <= bound


def test_default_cutoff_rejects_non_finite_b0():
    """a0^2 underflows to a subnormal (t_perp = 1e-160: b0 = inf) or to 0
    (1e-170: 4/a0^2 would divide by zero); both are rejected.  mu = t' is
    given, not r = 1/2, which such a t_perp cannot store."""
    for t_perp in (1e-160, 1e-170):
        with pytest.warns(UserWarning, match="outside the narrow"):
            p = build_params(1.0, t_perp, 2.0, mu=2.0)
        with pytest.raises(ms.ConfigurationError, match="not finite and positive"):
            ms.default_cutoff(p)


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


def test_regime2_band_needs_semimetal(p_insulator):
    """band_grid in regime 2, and decay_audit and relativistic_split_r2 through it,
    reject insulator parameters (h* = 0 at r = -0.2) with a clear error."""
    c, cut = ms.initial_couplings(p_insulator), ms.default_cutoff(p_insulator)
    h_star = ms.crossover_scale(p_insulator)
    calls = [lambda omega=omega: ms.band_grid(-1, 2, omega, c, p_insulator, cut, n=8,
                                              h_star=h_star) for omega in (1, -1)]
    calls.append(lambda: ms.decay_audit([-1], lambda h: c, p_insulator, regime=2, N=8))
    calls.append(lambda: ms.relativistic_split_r2(-1, 1, c, p_insulator, cut, h_star, 8))
    for call in calls:
        with pytest.raises(ValueError, match="needs semimetal parameters"):
            call()


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
