"""Scale decomposition: cutoff chains, crossover scale, single-scale propagators,
quasi-particle split, relativistic remainder split, and decay-bound audits.

Regime 1 (lattice-dominated, h >= h*) uses the reference matrix

  A_h(kk) = -i k0 I + v_h sin(k+) s1 + v_h sin(k-) s2
            + [v3_h (cos k3 - 1 + r) + E(kbar)] s3

which reduces to the bare A at Z=1, v=t, v3=t_perp.  Regime 2 (h < h*) works
in momenta k' relative to a Weyl point omega p_F:

  A_{h,omega}(k') = -i k0 I + v_h sin(k+) s1 + v_h sin(k-) s2
                    + [-omega v3_h sin k3' + E'(k')] s3,
  E'(k') = t_perp cos(p_F) (cos k3' - 1) + E(kbar),

again exact at bare couplings (v3 enters regime 2 as t_perp sin p_F).  The
planar curvature E and the axial curvature prefactor t_perp cos p_F stay
frozen at their bare values; only (Z, v, v3) run.  Both are
lattice.mass_vector at the running (v, v3).

Cutoff chains: chi_h = chibar(a0^-1 2^-h |det A_h|^(1/2)) in regime 1 with
a0 = t_perp/10; in regime 2 chi_h = chibar((b0/2) 2^-h |det A_{h,omega}|^(1/2)),
which at h = h*-1 is the two-component cutoff chibar(b0 2^-h* ...).  b0 is
chosen so that support is disconnected across the k3 = 0 plane; the default
puts the cutoff argument at 4 on the inter-valley saddle (energy t_perp |r|).

Every band is built by band_grid, the one builder, on the support box of its
scale at n steps per box axis (n3 in k3).  A band is a table of its weight
chi_h(e) minus a lower cutoff on (positive k0, box orbit), e = sqrt(k0^2 +
lambda^2): chi_{h-1} of the same chain (one shell_cutoff ramp), the
two-component chi_{h*-1} of the valley split for the bridge band at h*, or
nothing for the insulator tail.  lambda^2 and the valley split are exactly
constant on the orbits of k1 -> -k1, k2 -> -k2, k1 <-> k2 and (regime 1) k3 ->
-k3, so they are evaluated at one point per column (_orbit_key), not scattered.
Its k0 sum is the Matsubara sums' paired reduction (propagator._paired_sums).
Valley -1 of regime 2 is the k3' mirror of valley +1 (BandGrid.mirror); the
valley split (_valley_split) serves quasiparticle_split, disconnection_check.

Position values (decay audits, the relativistic remainder) reduce the band's
own columns (BandGrid.lam2) with pair weights [2 cos(k0 x0), 2 k0 sin(k0 x0)]:
real (s0, a) per column, so g = pauli(m s0, a) meets the spatial phases on the
columns themselves: per-orbit kbar phase sums times per-fold k3 phase sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cutoff import shell_cutoff, smooth_cutoff
from .lattice import HoppingParams, _orbit_key, band_energy, mass_vector, pauli, weyl_points
from .propagator import _paired_sums

MIN_BAND_POINTS = 100
#: Cells of a band table that band_grid fills at once, in whole k0 rows (at
#: least one): a block's argument, cutoff ramp, valley split and clip are the
#: only table-sized temporaries of a build.  Much larger blocks would hold whole
#: flow tables (the n_k = 24 bridge band is 13 x 10,290) and give the memory
#: back; much smaller ones cost numpy calls per row.
_BLOCK_CELLS = 1 << 14
#: Fewest position samples per axis that resolve 4 octaves of decay.
MIN_X_POINTS = 9


class ConfigurationError(ValueError):
    """Support constants violate a structural invariant (e.g. disconnection)."""


class InsufficientGridError(ValueError):
    """Grid cannot resolve the requested scales."""


@dataclass(frozen=True)
class RunningCouplings:
    """Per-scale quadruple (Z_h, v_h, v3_h, nu_h) at scale h, tagged by regime."""

    Z: float
    v: float
    v3: float
    nu: float
    h: int
    regime: int = 1

    def replace(self, **kw) -> "RunningCouplings":
        return replace(self, **kw)


def initial_couplings(p: HoppingParams, regime: int = 1) -> RunningCouplings:
    """Scale-0 couplings: Z=1, v=t, and v3 = t_perp (regime 1) or t_perp sin p_F."""
    if regime == 1:
        return RunningCouplings(Z=1.0, v=p.t, v3=p.t_perp, nu=0.0, h=0, regime=1)
    wp = weyl_points(p)
    if wp is None:
        raise ValueError("regime-2 couplings need semimetal parameters")
    return RunningCouplings(Z=1.0, v=p.t, v3=wp.v30, nu=0.0, h=0, regime=2)


def _regime2_couplings(c: RunningCouplings, p: HoppingParams) -> RunningCouplings:
    """Couplings carried into regime 2 at h*: v3 becomes v3 sin p_F."""
    return c.replace(v3=c.v3 * math.sin(weyl_points(p).p_F), regime=2)


@dataclass(frozen=True)
class CutoffSpec:
    """Support constants: a0 = t_perp/10; b0 sized for valley disconnection."""

    a0: float
    b0: float


def crossover_scale(p: HoppingParams):
    """h* = floor(min(log2(a0^-1 10 |r|), 0)); -inf sentinel at r = 0."""
    if p.r == 0.0:
        return float("-inf")
    val = math.log2(abs(p.r) * 10.0 / p.a0)
    if abs(val - round(val)) < 1e-9:
        val = round(val)  # exact dyadic arguments must not fall off the floor
    return int(math.floor(min(val, 0.0)))


def default_cutoff(p: HoppingParams) -> CutoffSpec:
    """CutoffSpec with the r-uniform default b0 = 4/a0^2.

    Since 2^h* <= 10|r|/a0, the cutoff argument on the inter-valley saddle
    (energy t_perp |r|) satisfies b0 2^-h* t_perp |r| >= b0 a0^2 = 4 >= 2, so
    the two-component support is disconnected for every admissible r; and
    b0 >= 2/a0 keeps that support inside the chi_{h*} plateau, making the
    bridge band chi_{h*} - chi_{h*-1} a nonnegative partition piece.  At r = 0
    (h* = -inf) regime 2 never starts and b0 = 0.
    """
    b0 = 0.0 if p.r == 0.0 else 4.0 / p.a0 ** 2 if p.a0 ** 2 > 0.0 else math.inf
    if not (p.r == 0.0 or 0.0 < b0 < math.inf):
        raise ConfigurationError(f"b0 = 4/a0^2 is not finite and positive at a0 = {p.a0:g}")
    return CutoffSpec(a0=p.a0, b0=b0)


# --- scale reference matrices ---------------------------------------------

def _chi_arg(h, regime, cutoff: CutoffSpec):
    # regime 1: chibar(a0^-1 2^-h e); regime 2 chain: chibar((b0/2) 2^-h e)
    if regime == 1:
        return 2.0 ** (-h) / cutoff.a0
    if cutoff.b0 <= 0:
        raise ConfigurationError("regime-2 cutoff needs b0 > 0")
    return (cutoff.b0 / 2.0) * 2.0 ** (-h)


def chi_support(kk, h, c: RunningCouplings, p: HoppingParams, cutoff: CutoffSpec,
                regime: int = 1, omega: int = 1):
    """Cumulative cutoff chi_h(kk) in [0, 1] of |det A_h|^(1/2) (k' momenta in regime 2)."""
    e = band_energy(kk[0], mass_vector(*kk[1:], p, c.v, c.v3, regime, omega))
    return smooth_cutoff(_chi_arg(h, regime, cutoff) * np.asarray(e))


def scale_support(kk, h, c: RunningCouplings, p: HoppingParams, cutoff: CutoffSpec,
                  regime: int = 1, omega: int = 1):
    """(chi_h, f_h) with f_h = chi_h - chi_{h-1} >= 0; exact telescoping at
    fixed couplings since both cutoffs use the same reference matrix."""
    chi = chi_support(kk, h, c, p, cutoff, regime, omega)
    return chi, chi - chi_support(kk, h - 1, c, p, cutoff, regime, omega)


# --- band enumeration ------------------------------------------------------

@dataclass(frozen=True)
class BandGrid:
    """Single-scale band on a separable momentum box, as a (k0, orbit) table.

    Axes are 1-D arrays (k0s, k1s, k2s, k3s).  `table` holds f_h at the positive
    k0s (the axis mirrors exactly) per symmetry orbit of the box, of lambda^2
    `lam2`, each evaluated at its own point; `key` maps the box to them.  `moments`
    = cell/Z sum_k0 f (m1, m2, m3)/(k0^2 + lambda^2) is all an instantaneous
    vertex sees (the ik0 part cancels in pairs); with the axes it is `box`, all a
    flow keeps.  `cell` is d0 d12^2 d3/(2pi)^4 of the virtual grid and `emax` the
    box's energy extent; regime-2 axes hold k'.  `couplings` and `params` serve
    mass_arrays (decay audits).
    """

    h: int
    regime: int
    omega: int
    k0s: np.ndarray
    k1s: np.ndarray
    k2s: np.ndarray
    k3s: np.ndarray
    table: np.ndarray
    lam2: np.ndarray
    key: np.ndarray
    moments: np.ndarray
    support_points: int
    cell: float
    emax: float
    couplings: RunningCouplings
    params: HoppingParams
    snap_offset: float = 0.0  # regime 2: p_F minus its grid-snapped value
    k3_origin: float = 0.0    # regime 2: omega p_F, the absolute k3 of k3' = 0

    @property
    def weight(self) -> np.ndarray:
        """f_h on the 4-D box, expanded from the table on each call (read-only)."""
        half = self.table[:, self.key]
        w = np.concatenate([half[::-1], half])
        w.flags.writeable = False
        return w

    @property
    def box(self) -> tuple:
        """(moments, k1s, k2s, k3s, k3_origin): what band_self_energy reads."""
        return self.moments, self.k1s, self.k2s, self.k3s, self.k3_origin

    def mirror(self) -> "BandGrid":
        """Valley -1 of this valley +1 band: m3(-1, k3') = m3(+1, -k3') exactly and
        the k3' axis is +-n d3, so its box is this one reversed along k3' (0 - k3'
        keeps k3' = 0 at +0.0, as a build has it)."""
        moments, key = (a[..., ::-1] for a in (self.moments, self.key))  # read-only views
        return replace(self, omega=-1, k3s=0.0 - self.k3s[::-1], moments=moments, key=key,
                       k3_origin=-self.k3_origin)

    def mass_arrays(self):
        """(m1, m2, m3) on the box, separable: shaped (n, n, 1), (n, n, 1), (n, n, n3)."""
        c, axes = self.couplings, (self.k1s[:, None, None], self.k2s[None, :, None], self.k3s)
        return mass_vector(*axes, self.params, c.v, c.v3, self.regime, self.omega)

    def position_values(self, x0s, x1s, x2s, x3s, m3=None) -> np.ndarray:
        """g(x) = cell * sum_k e^{-i k.x} f A^{-1}/Z on the tensor x-grid, as
        (nx0, nx1, nx2, nx3, 2, 2); m3, a (n3,) k3 profile, replaces the sigma3
        coefficient of A and must keep lambda^2 constant on the band's orbits.

        Real (s0, a) = cell/Z sum_k0 e^{-i k0 x0} [1, i k0] f/(k0^2 + lambda^2) by
        _paired_sums over the columns, 32 x0 at a time.  A column is a kbar orbit
        times a k3 fold and m = (m1, m2, t3(k3) + E(kbar)) (t3 = m3 and E = 0 when
        m3 is given), so each entry of pauli(m s0, a) is sum_orbit Phi_w(xbar)
        [(s0 or a) @ P_u](x3): Phi_w sums w e^{-i kbar.xbar} over an orbit, w in
        (1, m1, m2, E), and P_u sums u e^{-i k3 x3} over a fold, u in (1, t3).  Both
        tables are built once per call; no box-sized array is made per x0."""
        c, p, rg = self.couplings, self.params, (self.regime, self.omega)
        # E alone at k3 = 0 with v3 = 0; t3 alone at kbar = 0, where E = 0
        m1, m2, e = mass_vector(self.k1s[:, None], self.k2s, 0.0, p, c.v, 0.0, *rg)
        t3 = mass_vector(0.0, 0.0, self.k3s, p, c.v, c.v3, *rg)[2]
        lam2, key = self.lam2, self.key
        if m3 is not None:
            if np.shape(m3) != self.k3s.shape:
                raise ValueError("m3 needs an (n3,) k3 profile")
            t3, e = np.asarray(m3, float), 0.0
            lam2 = np.empty_like(lam2)
            lam2[key] = box = m1[..., None] ** 2 + m2[..., None] ** 2 + t3 ** 2
            if lam2[key].tobytes() != box.tobytes():
                raise ValueError("m3 needs a k3 profile whose lambda^2 keeps the band's orbits")
        fold = key[0, 0] - key[0, 0].min()  # key = orbit (F3 + 1) + fold (lattice._orbit_key)
        orbit = key[:, :, 0] // (fold.max() + 1)
        p1, p2, p3 = (np.exp(-1j * np.outer(np.asarray(x, float), k)) for x, k in zip(
            (x1s, x2s, x3s), (self.k1s, self.k2s, self.k3s)))
        nx12, nx3 = len(p1) * len(p2), len(p3)
        # (fold, P_1 | P_t3) as interleaved (re, im) reals: a real table times it is
        # one real product, viewed back as complex
        q = _orbit_sums(fold, np.stack([np.ones_like(t3), t3], axis=1)[..., None] * p3.T[:, None])
        q = q.reshape(len(q), -1).view(float)
        ws = np.stack(np.broadcast_arrays(1.0, m1, m2, e), axis=-1)[..., None] * p2.T[:, None]
        phi = np.stack([_orbit_sums(orbit, row[:, None, None, None] * ws) for row in p1], axis=1)
        phi = phi.transpose(2, 1, 3, 0).reshape(4, nx12, -1)  # (w, xbar, orbit)
        k0 = self.k0s[self.k0s.size // 2:]

        def chunk(x0):  # (x0.size, xbar, x3, 2, 2); its arrays go before the next chunk's
            w = (2.0 * self.cell / c.Z) * np.concatenate([np.cos(k0 * x0), k0 * np.sin(k0 * x0)])
            s0, a = _paired_sums(k0, w, lam2, self.table).reshape(2, x0.size, -1, fold.max() + 1)
            f = np.empty((4, x0.size, nx12, nx3), complex)  # sigma1, sigma2, sigma3, I
            for i in range(x0.size):  # (m1, m2, E) s0 @ P_1, then + s0 @ P_t3, a @ P_1
                g1, gt = np.hsplit((s0[i] @ q).view(complex), 2)
                f[:3, i] = phi[1:] @ g1
                f[2, i] += phi[0] @ gt
                f[3, i] = phi[0] @ (a[i] @ q[:, :2 * nx3]).view(complex)
            return pauli(f[:3], f[3])

        x0s = np.asarray(x0s, float)
        out = np.empty((x0s.size, nx12, nx3, 2, 2), complex)
        for lo in range(0, x0s.size, 32):
            out[lo:lo + 32] = chunk(x0s[lo:lo + 32, None])
        return out.reshape(x0s.size, len(p1), len(p2), nx3, 2, 2)


def _orbit_sums(ids, vals) -> np.ndarray:
    """Complex vals, shaped ids.shape + S, summed over the points of each id
    0..ids.max() (every one occurs): (ids.max() + 1,) + S, one bincount per part."""
    n, cols = ids.max() + 1, vals.size // ids.size
    at = (ids.reshape(-1, 1) * cols + np.arange(cols)).ravel()
    re, im = (np.bincount(at, part.ravel(), n * cols) for part in (vals.real, vals.imag))
    return (re + 1j * im).reshape((n,) + vals.shape[ids.ndim:])


def _axis_values(spacing: float, lo: float, hi: float, fermionic: bool = False) -> np.ndarray:
    """Grid values n*spacing (or (n+1/2)*spacing) inside [lo, hi]."""
    off = 0.5 if fermionic else 0.0
    n_lo = math.ceil(lo / spacing - off)
    n_hi = math.floor(hi / spacing - off)
    return (np.arange(n_lo, n_hi + 1) + off) * spacing


def _band_bounds_r1(h, c, p, cutoff):
    emax = 2.0 * cutoff.a0 * 2.0 ** h
    dpm = math.asin(min(1.0, emax / c.v))
    e_ub = p.t_prime * dpm ** 2
    hi = min(1.0, 1.0 - p.r + (emax + e_ub) / c.v3)
    lo = min(1.0, max(-1.0, 1.0 - p.r - (emax + e_ub) / c.v3))
    return emax, 2.0 * dpm, math.acos(hi), math.acos(lo)


def _band_bounds_r2(h, c, p, cutoff, p_F):
    emax = 4.0 * 2.0 ** h / cutoff.b0
    dpm = math.asin(min(1.0, emax / c.v))
    e_ub = p.t_prime * dpm ** 2
    k3max = math.asin(min(1.0, emax / c.v3))
    for _ in range(3):
        curv = p.t_perp * abs(math.cos(p_F)) * (1.0 - math.cos(min(k3max, math.pi / 2)))
        k3max = math.asin(min(1.0, (emax + e_ub + curv) / c.v3))
    return emax, 2.0 * dpm, min(1.5 * k3max, math.pi)


def _band_table(k0, k12, k3s, h, regime, omega, c, p, cutoff, lower):
    """(key, lam2, table, support) of band_grid's box (axes k12, k12, k3s; k0 the
    positive half): its orbit columns (lattice._orbit_key), lambda^2 at one point
    per column, the table of chi_h(e) - lower at (k0, column), filled _BLOCK_CELLS
    at a time, and the box's points of nonzero weight over both halves of k0.
    Every column array, the valley split's among them, is freed on return."""
    f12, f3 = (np.minimum(np.arange(k), np.arange(k)[::-1]) for k in (k12.size, k3s.size))
    key, (i1, i2, i3) = _orbit_key(f12, f3 if regime == 1 else np.arange(k3s.size))
    cols = (k12[i1], k12[i2], k3s[i3])  # one point per column, whose whole orbit it stands for
    m = mass_vector(*cols, p, c.v, c.v3, regime, omega)
    lam2 = m[0] ** 2 + m[1] ** 2 + m[2] ** 2
    arg, ramp = _chi_arg(h, regime, cutoff), shell_cutoff if lower == "chain" else smooth_cutoff
    # chi_{h-1} of the valley split is 0 where its argument at e = |k0| reaches 2
    live = np.zeros(k0.size, bool) if lower != "valleys" else _chi_arg(h - 1, 2, cutoff) * k0 < 2.0
    split = _valley_split(*cols, h, _regime2_couplings(c, p), p, cutoff) if live.any() else None
    table, positive = np.empty((k0.size, lam2.size)), np.zeros(lam2.size, int)
    rows = max(1, _BLOCK_CELLS // lam2.size)
    for lo in range(0, k0.size, rows):
        block, k0b, lv = table[lo:lo + rows], k0[lo:lo + rows, None], live[lo:lo + rows]
        block[:] = ramp(arg * np.sqrt(k0b ** 2 + lam2))
        if lv.any():
            low = split(k0b[lv])
            block[lv] = np.clip(block[lv] - (low[+1] + low[-1]), 0.0, None)
        positive += np.sum(block > 0, axis=0)
    # both halves of the k0 axis, times each column's multiplicity on the box
    return key, lam2, table, 2 * int(np.bincount(key.ravel(), minlength=lam2.size) @ positive)


def band_grid(h: int, regime: int, omega: int, c: RunningCouplings, p: HoppingParams,
              cutoff: CutoffSpec, *, n: int, n3: int | None = None,
              h_star: int | None = None, lower="chain") -> BandGrid:
    """The one band builder: the scale-h support box, its mass arrays and the
    table of chi_h(e) - lower, e = sqrt(k0^2 + lambda^2).

    The resolution is the virtual grid that spans each axis of the box in n
    steps (n3 steps in k3, default n).

    lower is "chain" (chi_{h-1} of the same chain: f_h, one shell_cutoff ramp
    as the argument doubles per scale), "valleys" (the two-component chi_{h-1}
    of the valley split at the regime-2 couplings of h*, clipped at 0: the
    bridge band at h = h*; evaluated only on k0 slices where it is not 0) or
    None (the insulator tail).  Regime 2 (omega: the valley) needs
    h <= h_star - 1; its box holds k3' relative to omega p_F, clipped to the
    theta(omega k3) window of the Weyl point snapped to the k3 axis spacing:
    (-p_F, pi - p_F) for valley +1, which is built, and (p_F - pi, p_F) for
    valley -1, its mirror image.  The topmost regime-2 scale has the
    two-component cutoff chibar(b0 2^-h* e) as its upper edge.

    The table is filled _BLOCK_CELLS cells (whole k0 rows, at least one) at a
    time and `moments` straight from the column sums.  Beyond the arrays the
    band keeps, a build's temporaries are one table block, the k0 reduction's
    buffer (propagator._paired_sums, table-sized, freed before `moments` is
    made) and one box-sized array, the box's m3.
    """
    if regime == 2 and omega == -1:
        return band_grid(h, 2, 1, c, p, cutoff, n=n, n3=n3, h_star=h_star, lower=lower).mirror()
    if regime == 1:
        emax, ext12, k3_lo, k3_hi = _band_bounds_r1(h, c, p, cutoff)
    else:
        if h_star is None or h > h_star - 1:
            raise ValueError(f"regime-2 band needs h <= h_star - 1, got h={h}, h_star={h_star}")
        wp = weyl_points(p)
        if wp is None:
            raise ValueError("regime-2 band needs semimetal parameters")
        emax, ext12, k3_hi = _band_bounds_r2(h, c, p, cutoff, wp.p_F)
    d0, d12, d3 = 2.0 * emax / n, 2.0 * ext12 / n, max(2.0 * k3_hi / (n3 or n), 1e-12)
    cell = d0 * d12 ** 2 * d3 / (2.0 * np.pi) ** 4
    fields = {}
    if regime == 1:
        arc = _axis_values(d3, max(0.0, k3_lo - d3), min(np.pi, k3_hi + d3))
        k3s = np.unique(np.round(np.concatenate([-arc[::-1], arc]), 15))
    else:
        p_F_snap = round(wp.p_F / d3) * d3
        k3s = _axis_values(d3, max(-k3_hi - d3, -p_F_snap + d3 / 2),
                           min(k3_hi + d3, np.pi - p_F_snap - d3 / 2))
        fields = dict(snap_offset=wp.p_F - p_F_snap, k3_origin=omega * wp.p_F)
    k0s = _axis_values(d0, -emax - d0, emax + d0, fermionic=True)
    k12 = _axis_values(d12, -ext12 - d12, ext12 + d12)
    k0 = k0s[k0s.size // 2:]  # the positive half; the other is its exact mirror
    key, lam2, table, support = _band_table(k0, k12, k3s, h, regime, omega, c, p, cutoff, lower)
    sums = (cell / c.Z) * _paired_sums(k0, np.full((1, k0.size), 2.0), lam2, table)[0]
    moments = np.empty((3,) + key.shape)
    # mode="raise" would buffer a box-sized copy; every key is a column by construction
    np.take(sums, key, out=moments[0], mode="clip")
    del sums  # before the box's m3, the one box-sized temporary of a build
    bg = BandGrid(h, regime, omega, k0s, k12, k12, k3s, table, lam2, key, moments, support,
                  cell, emax, c, p, **fields)
    m1, m2, m3 = bg.mass_arrays()  # separable: m1, m2 broadcast
    np.multiply(moments[0], m2, out=moments[1])
    np.multiply(moments[0], m3, out=moments[2])
    moments[0] *= m1
    for arr in (table, lam2, key, moments):
        arr.flags.writeable = False
    return bg


# --- quasi-particle split --------------------------------------------------

def _valley_split(k1, k2, k3, h_star, c: RunningCouplings, p: HoppingParams,
                  cutoff: CutoffSpec):
    """k0 -> {omega: theta(omega k3) chi_{h*-1}(kk)} for absolute k3 in [-pi, pi].

    chi_{h*-1} is the regime-2 cutoff of valley omega at k3' = k3 - omega p_F;
    theta(0) = 1/2 keeps the sum rule exact.  Broadcasts over arrays.  theta
    and the mass vectors do not depend on k0: they are evaluated here, once
    for every k0 the returned function is called with.
    """
    p_F = weyl_points(p).p_F
    arg = _chi_arg(h_star - 1, 2, cutoff)
    valleys = {omega: (np.where(omega * k3 > 0, 1.0, np.where(k3 == 0.0, 0.5, 0.0)),
                       mass_vector(k1, k2, k3 - omega * p_F, p, c.v, c.v3, 2, omega))
               for omega in (+1, -1)}
    return lambda k0: {omega: theta * smooth_cutoff(arg * band_energy(k0, m))
                       for omega, (theta, m) in valleys.items()}


def quasiparticle_split(kk, h_star: int, c: RunningCouplings, p: HoppingParams,
                        cutoff: CutoffSpec, check: bool = True) -> dict:
    """Valley weights theta(omega k3) chi_{h*-1}(kk) for absolute momentum kk.

    k3 is reduced to (-pi, pi]; theta(0) = 1/2 keeps the sum rule exact, and a
    nonzero weight on the k3 = 0 plane trips the disconnection check.
    """
    if check:
        disconnection_check(p, h_star, c, cutoff)
    k0, k1, k2, k3 = kk
    split = _valley_split(k1, k2, math.remainder(k3, 2.0 * np.pi), h_star, c, p, cutoff)(k0)
    return {omega: float(w) for omega, w in split.items()}


def disconnection_check(p: HoppingParams, h_star: int, c: RunningCouplings,
                        cutoff: CutoffSpec):
    """Raise ConfigurationError if chi_{h*-1} is nonzero anywhere on k3 = 0.

    Scans k0 = 0, k3 = 0 over a 9 x 9 planar grid around the origin (the
    inter-valley saddle sits at kbar = 0 with energy t_perp |r|); each valley
    carries theta(0) = 1/2 of its chi_{h*-1} there.
    """
    if weyl_points(p) is None:
        raise ConfigurationError("disconnection check needs semimetal parameters")
    ks = np.linspace(-0.5, 0.5, 9)
    split = _valley_split(ks[:, None], ks, 0.0, h_star, c, p, cutoff)(0.0)
    chi = 2.0 * np.maximum(split[+1], split[-1])
    if np.any(chi > 0):
        raise ConfigurationError(
            f"chi_(h*-1) support touches the k3=0 plane (max {float(np.max(chi)):g}); "
            "b0 too small for valley disconnection")


# --- relativistic split ----------------------------------------------------

def relativistic_split_r2(h: int, omega: int, c: RunningCouplings, p: HoppingParams,
                          cutoff: CutoffSpec, h_star: int, n: int):
    """(bg, g_rel, remainder) on the regime-2 band bg at n steps per box axis,
    the last two as maps (x0s, x1s, x2s, x3s) -> position values: g_rel keeps
    f_h but drops the curvature E' (m3_rel = -omega v3 sin k3'), and remainder
    = g - g_rel."""
    bg = band_grid(h, 2, omega, c, p, cutoff, n=n, h_star=h_star)
    m3 = -omega * c.v3 * np.sin(bg.k3s)
    return (bg, lambda *xs: bg.position_values(*xs, m3=m3),
            lambda *xs: bg.position_values(*xs) - bg.position_values(*xs, m3=m3))


# --- decay audits -----------------------------------------------------------

@dataclass
class DecayRow:
    h: int
    sup: float
    width_x0: float
    width_x3: float
    l1_mass: float
    constant: float


@dataclass
class DecayAuditReport:
    regime: int
    rows: list
    sup_exponent: float
    width_x0_exponent: float
    width_x3_exponent: float
    l1_exponent: float
    max_constant_deviation: float

    def to_rows(self):
        return [(r.h, r.sup, r.constant, r.width_x0, r.width_x3, r.l1_mass)
                for r in self.rows]

    def summary(self) -> dict:
        return asdict(self)


def _half_width(xs, sizes):
    """First crossing of half maximum, linearly interpolated."""
    s0 = sizes[0]
    for i in range(1, len(xs)):
        if sizes[i] < 0.5 * s0:
            t = (0.5 * s0 - sizes[i - 1]) / (sizes[i] - sizes[i - 1])
            return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))
    return float(xs[-1])


def _fit_slope(hs, values):
    a = np.vstack([hs, np.ones(len(hs))]).T.astype(float)
    return float(np.linalg.lstsq(a, np.log2(np.asarray(values, float)), rcond=None)[0][0])


def decay_audit(h_range, c_of_h, p: HoppingParams, regime: int = 1,
                h_star: int | None = None, N: int = 28,
                x_points: int = 25) -> DecayAuditReport:
    """Fit sup-norms and decay half-widths of position-space single-scale
    propagators against the dimensional scaling exponents.

    h_range must lie within one regime; c_of_h maps a scale to its couplings
    (pass a constant function for frozen couplings).  Regime-2 bands are the
    +1 valley's (the -1 valley is its mirror image), below h_star, which
    defaults to crossover_scale(p).  N sets the per-axis momentum resolution
    of the per-scale virtual grids; x_points the position samples per axis.
    The x-grids extend 8 core widths, so at least 4 octaves of decay are
    resolved or InsufficientGridError is raised.
    """
    cutoff = default_cutoff(p)
    if regime == 2 and h_star is None:
        h_star = crossover_scale(p)
    if x_points < MIN_X_POINTS:
        raise InsufficientGridError(f"x_points < {MIN_X_POINTS} cannot resolve 4 octaves of decay")
    rows = []
    expected = 2.5 if regime == 1 else 3.0
    xps = np.array([0.0, 1.0, 2.0])
    for h in sorted(h_range, reverse=True):
        c = c_of_h(h)
        bg = band_grid(h, regime, 1, c, p, cutoff, n=N, h_star=h_star)
        if bg.support_points < MIN_BAND_POINTS:
            raise InsufficientGridError(
                f"band at h={h} resolves only {bg.support_points} momenta")
        # core widths from the band extents; sample ~6 widths per axis
        w0 = 1.0 / bg.emax
        w3 = 1.0 / max(np.max(np.abs(bg.k3s)), 1e-12)
        x0s = np.linspace(0.0, 6.0 * w0, x_points)
        x3s = np.linspace(0.0, 6.0 * w3, x_points)
        sizes = np.max(np.abs(bg.position_values(x0s, xps, xps, x3s)), axis=(-2, -1))
        sup = float(sizes.max())
        # L1 mass over the sampled (x0, x3) sheet (report-only)
        l1 = float(np.sum(sizes[:, 0, 0, :]) * ((x0s[1] - x0s[0]) * (x3s[1] - x3s[0])))
        const = sup * 2.0 ** (-expected * h) * c.Z * (c.v3 if regime == 2 else 1.0)
        rows.append(DecayRow(h=h, sup=sup, width_x0=_half_width(x0s, sizes[:, 0, 0, 0]),
                             width_x3=_half_width(x3s, sizes[0, 0, 0, :]), l1_mass=l1,
                             constant=const))
    hs = [r.h for r in rows]
    log_const = np.log2([r.constant for r in rows])
    return DecayAuditReport(
        regime=regime,
        rows=rows,
        sup_exponent=_fit_slope(hs, [r.sup for r in rows]),
        width_x0_exponent=_fit_slope(hs, [r.width_x0 for r in rows]),
        width_x3_exponent=_fit_slope(hs, [r.width_x3 for r in rows]),
        l1_exponent=_fit_slope(hs, [r.l1_mass for r in rows]),
        max_constant_deviation=float(np.max(np.abs(log_const - np.mean(log_const)))),
    )
