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
real (s0, a) per column, so g = pauli(m s0, a) needs only the four real fields
(a, m s0) summed over the spatial phases, one x0 at a time, in O(box) memory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cutoff import shell_cutoff, smooth_cutoff
from .lattice import HoppingParams, _orbit_key, band_energy, mass_vector, pauli, weyl_points
from .propagator import _paired_sums

MIN_BAND_POINTS = 100
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
        _paired_sums over the columns, 32 x0 at a time; (a, m s0) of pauli(m s0, a)
        meet the spatial phases per x0."""
        m1, m2, s3 = self.mass_arrays()
        lam2, key = self.lam2, self.key
        if m3 is not None:
            if np.shape(m3) != self.k3s.shape:
                raise ValueError("m3 needs an (n3,) k3 profile")
            s3 = np.asarray(m3)
            lam2 = np.empty_like(lam2)
            lam2[key] = box = m1 ** 2 + m2 ** 2 + s3 ** 2
            if lam2[key].tobytes() != box.tobytes():
                raise ValueError("m3 needs a k3 profile whose lambda^2 keeps the band's orbits")
        k0 = self.k0s[self.k0s.size // 2:]
        p1, p2, p3 = (np.exp(-1j * np.outer(np.asarray(x, float), k)) for x, k in zip(
            (x1s, x2s, x3s), (self.k1s, self.k2s, self.k3s)))
        x0s, out = np.asarray(x0s, float), []
        for lo in range(0, x0s.size, 32):
            x0 = x0s[lo:lo + 32, None]
            w = (2.0 * self.cell / self.couplings.Z) * np.concatenate(
                [np.cos(k0 * x0), k0 * np.sin(k0 * x0)])
            sums = _paired_sums(k0, w, lam2, self.table)
            for s0, a in zip(sums[:x0.size], sums[x0.size:]):
                s0 = s0[key]
                f = np.stack([a[key], s3 * s0, m1 * s0, m2 * s0]).reshape(4, len(self.k1s), -1)
                g = p1.real @ f + 1j * (p1.imag @ f)  # real fields: two real products
                ga, g3, g1, g2 = p2 @ g.reshape(4, len(p1), len(self.k2s), -1) @ p3.T
                out.append(pauli((g1, g2, g3), ga))
        return np.array(out).reshape(x0s.size, len(p1), len(p2), len(p3), 2, 2)


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
    f12, f3 = (np.minimum(np.arange(k), np.arange(k)[::-1]) for k in (k12.size, k3s.size))
    key, (i1, i2, i3) = _orbit_key(f12, f3 if regime == 1 else np.arange(k3s.size))
    cols = (k12[i1], k12[i2], k3s[i3])  # one point per column, whose whole orbit it stands for
    m = mass_vector(*cols, p, c.v, c.v3, regime, omega)
    lam2 = m[0] ** 2 + m[1] ** 2 + m[2] ** 2
    k0 = k0s[k0s.size // 2:]  # the positive half; the other is its exact mirror
    s = _chi_arg(h, regime, cutoff) * np.sqrt(k0[:, None] ** 2 + lam2)
    table = shell_cutoff(s) if lower == "chain" else smooth_cutoff(s)
    # chi_{h-1} of the valley split is 0 where its argument at e = |k0| reaches 2
    live = np.zeros(k0.size, bool) if lower != "valleys" else _chi_arg(h - 1, 2, cutoff) * k0 < 2.0
    if live.any():
        low = _valley_split(k0[live, None], *cols, h, _regime2_couplings(c, p), p, cutoff)
        table[live] = np.clip(table[live] - (low[+1] + low[-1]), 0.0, None)
    sums = ((cell / c.Z) * _paired_sums(k0, np.full((1, k0.size), 2.0), lam2, table)[0])[key]
    # both halves of the k0 axis, times each column's multiplicity on the box
    support = 2 * int(np.bincount(key.ravel(), minlength=lam2.size) @ np.sum(table > 0, axis=0))
    moments = np.empty((3,) + key.shape)
    bg = BandGrid(h, regime, omega, k0s, k12, k12, k3s, table, lam2, key, moments, support,
                  cell, emax, c, p, **fields)
    for out, mi in zip(moments, bg.mass_arrays()):  # separable: mi broadcasts
        np.multiply(sums, mi, out=out)
    for arr in (table, lam2, key, moments):
        arr.flags.writeable = False
    return bg


# --- quasi-particle split --------------------------------------------------

def _valley_split(k0, k1, k2, k3, h_star, c: RunningCouplings, p: HoppingParams,
                  cutoff: CutoffSpec) -> dict:
    """{omega: theta(omega k3) chi_{h*-1}(kk)} for absolute k3 in [-pi, pi].

    chi_{h*-1} is the regime-2 cutoff of valley omega at k3' = k3 - omega p_F;
    theta(0) = 1/2 keeps the sum rule exact.  Broadcasts over arrays.
    """
    p_F = weyl_points(p).p_F
    arg = _chi_arg(h_star - 1, 2, cutoff)
    out = {}
    for omega in (+1, -1):
        theta = np.where(omega * k3 > 0, 1.0, np.where(k3 == 0.0, 0.5, 0.0))
        m = mass_vector(k1, k2, k3 - omega * p_F, p, c.v, c.v3, 2, omega)
        out[omega] = theta * smooth_cutoff(arg * band_energy(k0, m))
    return out


def quasiparticle_split(kk, h_star: int, c: RunningCouplings, p: HoppingParams,
                        cutoff: CutoffSpec, check: bool = True) -> dict:
    """Valley weights theta(omega k3) chi_{h*-1}(kk) for absolute momentum kk.

    k3 is reduced to (-pi, pi]; theta(0) = 1/2 keeps the sum rule exact, and a
    nonzero weight on the k3 = 0 plane trips the disconnection check.
    """
    if check:
        disconnection_check(p, h_star, c, cutoff)
    k0, k1, k2, k3 = kk
    split = _valley_split(k0, k1, k2, math.remainder(k3, 2.0 * np.pi), h_star, c, p, cutoff)
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
    split = _valley_split(0.0, ks[:, None], ks, 0.0, h_star, c, p, cutoff)
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
