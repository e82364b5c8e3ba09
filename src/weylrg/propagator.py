"""Free Schwinger functions on finite (L, beta) grids.

Conventions (fixed once, used everywhere):

  A(kk) = -i k0 I + t sin(k+) s1 + t sin(k-) s2 + m3(kbar) s3,
  m3    = mu - t' + t_perp cos k3 + E(kbar),  E(kbar) = t'(1 - cos k+ cos k-),

so that m3 equals the Bloch sigma3 coefficient identically and
det A = -(k0^2 + lambda(kbar)^2) holds exactly.  Position space uses

  S0(x) = (1/(L^3 beta)) sum_kk e^{-i kk.x} A^{-1}(kk),

the phase sign chosen so the equal-time jump S0(0,0+) - S0(0,0-) is +I
(anticommutator normalization).  Matsubara frequencies are k0 =
(2pi/beta)(n0 + 1/2), truncated by the smooth UV cutoff chibar(2^-M |k0|).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cutoff import smooth_cutoff
from .lattice import HoppingParams, ID2, SIGMA1, SIGMA2, SIGMA3

Momentum4 = tuple  # (k0, k1, k2, k3)


class SingularMomentumError(ZeroDivisionError):
    """Free propagator evaluated on shell (energy scale exactly zero)."""


@dataclass(frozen=True)
class GridSpec:
    """Finite lattice/temperature grid: L^3 spatial momenta, 2^M frequency cap."""

    L: int
    beta: float
    M: int = 12

    def __post_init__(self):
        if self.L < 1 or not 0 < self.beta < math.inf or self.M < 0:
            raise ValueError("GridSpec requires L >= 1, finite beta > 0, M >= 0")

    def spatial_momenta(self) -> np.ndarray:
        """All L^3 momenta as an (L^3, 3) array with components in [0, 2pi)."""
        ks = 2.0 * np.pi * np.arange(self.L) / self.L
        k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
        return np.stack([k1.ravel(), k2.ravel(), k3.ravel()], axis=1)

    def _n_max(self, M: int) -> int:
        """Frequencies are scanned over n in [-n_max, n_max)."""
        return int(2.0 ** (M + 1) * self.beta / (2.0 * np.pi) + 1)

    def matsubara_frequencies(self, M: int | None = None) -> np.ndarray:
        """Frequencies (2pi/beta)(n+1/2) inside the chibar support |k0| <= 2^{M+1}."""
        M = self.M if M is None else M
        n_max = self._n_max(M)
        n = np.arange(-n_max, n_max)
        k0 = (2.0 * np.pi / self.beta) * (n + 0.5)
        return k0[np.abs(k0) <= 2.0 ** (M + 1)]

    def row_bound(self) -> float:
        """Closed-form upper bound on the rows build_propagator_grid tabulates at
        M = self.M: L^3 momenta times the 2 n_max scanned frequencies.  Allocates
        nothing; inf when the count overflows a float."""
        try:
            return float(self.L) ** 3 * 2 * self._n_max(self.M)
        except OverflowError:
            return math.inf


def mass_vector(k1, k2, k3, p: HoppingParams):
    """(m1, m2, m3) with A(kk) = -i k0 I + m . sigma; broadcasts over arrays."""
    k1 = np.asarray(k1, float)
    k2 = np.asarray(k2, float)
    k3 = np.asarray(k3, float)
    kp, km = (k1 + k2) / 2.0, (k1 - k2) / 2.0
    m1 = p.t * np.sin(kp)
    m2 = p.t * np.sin(km)
    m3 = p.mu - p.t_prime + p.t_perp * np.cos(k3) + p.t_prime * (1.0 - np.cos(kp) * np.cos(km))
    return m1, m2, m3


def inverse_propagator(kk, p: HoppingParams) -> np.ndarray:
    """A(kk) as a dense 2x2 complex matrix."""
    k0, k1, k2, k3 = kk
    m1, m2, m3 = mass_vector(k1, k2, k3, p)
    return -1j * k0 * ID2 + m1 * SIGMA1 + m2 * SIGMA2 + m3 * SIGMA3


def energy_scale(kk, p: HoppingParams):
    """|det A|^(1/2) = sqrt(k0^2 + lambda(kbar)^2); broadcasts over arrays."""
    k0, k1, k2, k3 = kk
    m1, m2, m3 = mass_vector(k1, k2, k3, p)
    e = np.sqrt(np.asarray(k0, float) ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2)
    return e if e.ndim else float(e)


def _ainv_entries(k0, m1, m2, m3):
    """Entries of A^{-1} = (i k0 I + m.sigma)/(k0^2 + |m|^2), vectorized."""
    den = k0 ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2
    a = (1j * k0 + m3) / den
    b = (m1 - 1j * m2) / den
    c = (m1 + 1j * m2) / den
    d = (1j * k0 - m3) / den
    return a, b, c, d


def free_propagator(kk, p: HoppingParams) -> np.ndarray:
    """A(kk)^{-1}; raises SingularMomentumError on shell (Weyl point, k0 = 0).

    The on-shell test allows for roundoff in the band terms (cos pi/3 etc.):
    energy scales below 1e-12 count as singular.
    """
    if energy_scale(kk, p) < 1e-12:
        raise SingularMomentumError(f"free propagator is singular at kk = {kk}")
    k0, k1, k2, k3 = kk
    m1, m2, m3 = mass_vector(k1, k2, k3, p)
    a, b, c, d = _ainv_entries(float(k0), m1, m2, m3)
    return np.array([[a, b], [c, d]], dtype=complex)


# --- time domain ---------------------------------------------------------

def normalize_time(x0: float, beta: float) -> float:
    """Reduce x0 into the fundamental window (-beta, beta] of the 2beta-periodic
    extension (the propagator is beta-antiperiodic, hence 2beta-periodic).

    fmod is exact, and so is the single shift after it (both operands lie
    within a factor 2 of each other), so any finite x0 reduces in O(1).
    """
    if not (math.isfinite(x0) and math.isfinite(beta)):
        raise ValueError(f"normalize_time needs finite x0 and beta, got {x0}, {beta}")
    x0 = math.fmod(x0, 2.0 * beta)
    if x0 > beta:
        x0 -= 2.0 * beta
    elif x0 <= -beta:
        x0 += 2.0 * beta
    return x0


def _mode_propagator(eps, x0, beta, positive_branch):
    """Time-ordered <T a(x0) a^+(0)> for a single mode of energy eps.

    positive_branch selects x0 > 0 ordering: +e^{-eps x0}/(1+e^{-beta eps});
    otherwise the swapped ordering -e^{-eps(x0+beta)}/(1+e^{-beta eps}).
    Written overflow-safe for either sign of eps.
    """
    eps = np.asarray(eps, float)
    den = 1.0 + np.exp(-beta * np.abs(eps))
    if positive_branch:
        pos = np.exp(-np.where(eps >= 0, eps, 0.0) * x0) / den
        neg = np.exp(np.minimum(eps * (beta - x0), 0.0)) / den
        return np.where(eps >= 0, pos, neg)
    pos = -np.exp(-np.where(eps >= 0, eps, 0.0) * (x0 + beta)) / den
    neg = -np.exp(np.minimum(-eps * x0, 0.0)) / den
    return np.where(eps >= 0, pos, neg)


def schwinger_time_domain(x, grid: GridSpec, p: HoppingParams, side: str | None = None) -> np.ndarray:
    """Exact S0(x) from the diagonal-basis closed forms, rotated to (a, b).

    x = (x0, x1, x2, x3) with integer lattice displacement and x0 in (-beta,
    beta] (rejected outside; use normalize_time first).  side selects the
    one-sided limit at x0 = 0: "+" evaluates the x0 > 0 branch, "-" the
    x0 <= 0 branch (the time-ordering default).
    """
    x0, x1, x2, x3 = x
    beta = grid.beta
    if not (-beta < x0 <= beta):
        raise ValueError(f"x0 = {x0} outside (-beta, beta]")
    if side not in (None, "+", "-"):
        raise ValueError("side must be None, '+' or '-'")
    branch_positive = x0 > 0 if side is None else (side == "+")

    kbar = grid.spatial_momenta()
    m1, m2, m3 = mass_vector(kbar[:, 0], kbar[:, 1], kbar[:, 2], p)
    lam = np.sqrt(m1 ** 2 + m2 ** 2 + m3 ** 2)
    gp = _mode_propagator(lam, x0, beta, branch_positive)
    gm = _mode_propagator(-lam, x0, beta, branch_positive)
    c0 = 0.5 * (gp + gm)
    # (gp - gm)/(2 lam) stays finite as lam -> 0 and multiplies m directly
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(lam > 0, 0.5 * (gp - gm) / np.where(lam > 0, lam, 1.0), 0.0)
    phase = np.exp(-1j * (kbar[:, 0] * x1 + kbar[:, 1] * x2 + kbar[:, 2] * x3))
    w0 = np.sum(phase * c0)
    w1 = np.sum(phase * c1 * m1)
    w2 = np.sum(phase * c1 * m2)
    w3 = np.sum(phase * c1 * m3)
    n = grid.L ** 3
    return (w0 * ID2 + w1 * SIGMA1 + w2 * SIGMA2 + w3 * SIGMA3) / n


# --- regularized momentum sums -------------------------------------------

def _frequency_reduced(x0: float, grid: GridSpec, p: HoppingParams, M: int):
    """(1/beta) sum_k0 chibar(2^-M |k0|) e^{-i k0 x0} A^{-1}(k0, kbar) per kbar.

    Returns four (L^3,) complex arrays (the 2x2 entries).
    """
    k0 = grid.matsubara_frequencies(M)
    cut = smooth_cutoff(np.abs(k0) / 2.0 ** M)
    kbar = grid.spatial_momenta()
    m1, m2, m3 = mass_vector(kbar[:, 0], kbar[:, 1], kbar[:, 2], p)
    lam2 = m1 ** 2 + m2 ** 2 + m3 ** 2
    w = cut * np.exp(-1j * k0 * x0)  # (nk0,)
    # chunk over frequencies to bound memory at large M
    a = np.zeros(kbar.shape[0], complex)
    s0 = np.zeros(kbar.shape[0], complex)
    chunk = 4096
    for lo in range(0, k0.size, chunk):
        k0c = k0[lo:lo + chunk, None]
        wc = w[lo:lo + chunk, None]
        den = k0c ** 2 + lam2[None, :]
        s0 += np.sum(wc / den, axis=0)
        a += np.sum(wc * (1j * k0c) / den, axis=0)
    # entries: [a + m3 s0, (m1 - i m2) s0; (m1 + i m2) s0, a - m3 s0]
    e00 = (a + m3 * s0) / grid.beta
    e01 = ((m1 - 1j * m2) * s0) / grid.beta
    e10 = ((m1 + 1j * m2) * s0) / grid.beta
    e11 = (a - m3 * s0) / grid.beta
    return e00, e01, e10, e11


def _spatial_sum_direct(fields, kbar, x, L):
    phase = np.exp(-1j * (kbar[:, 0] * x[0] + kbar[:, 1] * x[1] + kbar[:, 2] * x[2]))
    return [np.sum(phase * f) / L ** 3 for f in fields]


def _spatial_sum_fft(fields, L):
    """All lattice displacements at once: value[x] = (1/L^3) sum_k e^{-ik.x} f(k)."""
    out = []
    for f in fields:
        cube = f.reshape(L, L, L)
        out.append(np.fft.fftn(cube) / L ** 3)
    return out


def regularized_propagator_sum(x, grid: GridSpec, p: HoppingParams,
                               M: int | None = None, method: str = "auto") -> np.ndarray:
    """g_M(x): finite momentum sum of A^{-1} under the smooth UV cutoff.

    Converges to schwinger_time_domain(x) away from x = (0 mod beta, 0bar)
    and to the mean of the two one-sided limits at x = 0 (tail ~ 2^-M there).
    Direct summation and the FFT path agree to 1e-10 and are selectable for
    cross-checks; "auto" sums directly on small grids (L <= 16).
    """
    M = grid.M if M is None else M
    x0, x1, x2, x3 = x
    fields = _frequency_reduced(x0, grid, p, M)
    if method not in ("auto", "direct", "fft"):
        raise ValueError("method must be auto, direct or fft")
    use_direct = method == "direct" or (method == "auto" and grid.L <= 16)
    if use_direct:
        kbar = grid.spatial_momenta()
        e00, e01, e10, e11 = _spatial_sum_direct(fields, kbar, (x1, x2, x3), grid.L)
    else:
        cubes = _spatial_sum_fft(fields, grid.L)
        ix = (int(x1) % grid.L, int(x2) % grid.L, int(x3) % grid.L)
        e00, e01, e10, e11 = [c[ix] for c in cubes]
    return np.array([[e00, e01], [e10, e11]], dtype=complex)


def regularized_all_spatial(x0: float, grid: GridSpec, p: HoppingParams,
                            M: int | None = None) -> np.ndarray:
    """g_M(x0, xbar) for every lattice displacement at once; (L, L, L, 2, 2)."""
    M = grid.M if M is None else M
    cubes = _spatial_sum_fft(_frequency_reduced(x0, grid, p, M), grid.L)
    out = np.empty((grid.L, grid.L, grid.L, 2, 2), complex)
    out[..., 0, 0], out[..., 0, 1] = cubes[0], cubes[1]
    out[..., 1, 0], out[..., 1, 1] = cubes[2], cubes[3]
    return out


def equal_time_jump(grid: GridSpec, p: HoppingParams) -> np.ndarray:
    """S0(0, 0+) - S0(0, 0-), exactly the identity up to roundoff."""
    sp = schwinger_time_domain((0.0, 0, 0, 0), grid, p, side="+")
    sm = schwinger_time_domain((0.0, 0, 0, 0), grid, p, side="-")
    return sp - sm


def counterterm_nu_C(grid: GridSpec, p: HoppingParams, v_hat_0: float) -> float:
    """U vhat(0) [S0(0,0+) - S0(0,0-)] contracted on the identity (scalar).

    The jump is the anticommutator delta, so the identity coefficient is 1 and
    nu_C = U vhat(0) for the Hubbard vertex; computed from the actual jump so
    the normalization is audited rather than assumed.
    """
    jump = equal_time_jump(grid, p)
    ident_coeff = float(np.real(np.trace(jump)) / 2.0)
    return p.U * v_hat_0 * ident_coeff


# --- tabulated grids ------------------------------------------------------

_CSV_HEADER = ["k0", "k1", "k2", "k3",
               "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"]
# rows per chunk in the CSV writer and the conjugation check: bounds the
# temporaries (Python floats, strings, matched pairs) to tens of MB
_CHUNK_ROWS = 1 << 16
# 4 float64 fields, so np.searchsorted orders momentum keys lexicographically
_KEY_DTYPE = np.dtype([(f"k{i}", float) for i in range(4)])


@dataclass
class PropagatorGrid:
    """Tabulated 2x2 values over 4-momenta (rows of `momenta`)."""

    grid: GridSpec
    momenta: np.ndarray  # (N, 4)
    values: np.ndarray   # (N, 2, 2) complex

    def __len__(self):
        return self.momenta.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.momenta.shape[0] == 0

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self) else 0.0

    def conjugation_defect(self) -> float:
        """max |value(-k0, kbar) - value(k0, kbar)^dagger| over matched rows.

        Rows match on momenta rounded to 12 decimals; when several rows share a
        key the last one is the match.  Rows without a mirror are ignored, and so
        are NaN differences.  Works for any row order.
        """
        keys = np.round(self.momenta, 12)
        order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in row order
        keys = keys[order]
        table = keys.view(_KEY_DTYPE).ravel()
        worst = 0.0
        for lo in range(0, len(self), _CHUNK_ROWS):
            mirror = keys[lo:lo + _CHUNK_ROWS].copy()
            mirror[:, 0] = -mirror[:, 0]
            # the last of equal keys sits just left of the right insertion point
            pos = np.searchsorted(table, mirror.view(_KEY_DTYPE).ravel(), side="right") - 1
            hit = (pos >= 0) & np.all(keys[pos] == mirror, axis=1)
            i, j = order[lo + np.flatnonzero(hit)], order[pos[hit]]
            diff = self.values[j] - self.values[i].conj().transpose(0, 2, 1)
            worst = float(np.fmax.reduce(np.abs(diff).max(axis=(1, 2)), initial=worst))
        return worst

    def to_csv(self, path_or_buf):
        """Header plus one CRLF row per momentum, every float written by repr."""
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w", newline="")
        try:
            buf.write(",".join(_CSV_HEADER) + "\r\n")
            for lo in range(0, len(self), _CHUNK_ROWS):
                vals = self.values[lo:lo + _CHUNK_ROWS].reshape(-1, 4).view(float)
                rows = np.concatenate([self.momenta[lo:lo + _CHUNK_ROWS], vals], axis=1)
                buf.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows.tolist()]))
        finally:
            if buf is not path_or_buf:
                buf.close()

    @classmethod
    def from_csv(cls, path_or_buf, grid: GridSpec) -> "PropagatorGrid":
        """Read what to_csv wrote, or the CLI's propagator.csv (manifest line first)."""
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf, newline="")
        try:
            rows = list(csv.reader(buf))
        finally:
            if buf is not path_or_buf:
                buf.close()
        if rows and rows[0] and rows[0][0].startswith("# manifest:"):
            rows = rows[1:]
        if not rows or rows[0] != _CSV_HEADER:
            raise ValueError("unexpected propagator CSV header")
        data = np.array([[float(c) for c in r] for r in rows[1:]]).reshape(-1, 12)
        vals = np.ascontiguousarray(data[:, 4:]).view(complex).reshape(-1, 2, 2)
        return cls(grid=grid, momenta=data[:, :4].copy(), values=vals)


def build_propagator_grid(grid: GridSpec, p: HoppingParams, M: int | None = None) -> PropagatorGrid:
    """Free propagator tabulated on the full grid inside the UV cutoff support.

    Rows are k0-major: each frequency with a nonzero cutoff weight carries all
    L^3 spatial momenta in spatial_momenta() order.
    """
    M = grid.M if M is None else M
    k0 = grid.matsubara_frequencies(M)
    cut = smooth_cutoff(np.abs(k0) / 2.0 ** M)
    k0, w = k0[cut > 0], cut[cut > 0, None]
    kbar = grid.spatial_momenta()
    m1, m2, m3 = mass_vector(kbar[:, 0], kbar[:, 1], kbar[:, 2], p)
    nk0, nkb = k0.size, kbar.shape[0]
    mom = np.empty((nk0, nkb, 4))
    mom[:, :, 0] = k0[:, None]
    mom[:, :, 1:] = kbar
    vals = np.empty((nk0, nkb, 4), complex)  # row-major 2x2 entries a, b, c, d
    for n, entry in enumerate(_ainv_entries(k0[:, None], m1, m2, m3)):
        np.multiply(w, entry, out=vals[..., n])
    return PropagatorGrid(grid=grid, momenta=mom.reshape(-1, 4),
                          values=vals.reshape(-1, 2, 2))
