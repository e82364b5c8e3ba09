"""Free Schwinger functions on finite (L, beta) grids.

Conventions (fixed once, used everywhere):

  A(kk) = -i k0 I + t sin(k+) s1 + t sin(k-) s2 + m3(kbar) s3,
  m3    = t_perp (cos k3 - 1 + r) + E(kbar),  E(kbar) = t'(1 - cos k+ cos k-),

the bare lattice.mass_vector, which is the Bloch vector, so
det A = -(k0^2 + lambda(kbar)^2) holds exactly.  Position space uses

  S0(x) = (1/(L^3 beta)) sum_kk e^{-i kk.x} A^{-1}(kk),

the phase sign chosen so the equal-time jump S0(0,0+) - S0(0,0-) is +I
(anticommutator normalization).  Matsubara frequencies are k0 =
(2pi/beta)(n0 + 1/2), truncated by the smooth UV cutoff chibar(2^-M |k0|).
"""

from __future__ import annotations

import functools
import math
import os
import signal
import tempfile
import traceback
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cutoff import smooth_cutoff
from .lattice import HoppingParams, _orbit_key, band_energy, mass_vector, pauli


class SingularMomentumError(ZeroDivisionError):
    """Free propagator evaluated on shell (energy scale exactly zero)."""


@dataclass(frozen=True)
class GridSpec:
    """Finite lattice/temperature grid: L^3 spatial momenta, 2^M frequency cap."""

    L: int
    beta: float
    M: int = 12

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (self.L, self.M)):
            raise ValueError(f"GridSpec needs integer L and M, got {self.L!r} and {self.M!r}")
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


def inverse_propagator(kk, p: HoppingParams) -> np.ndarray:
    """A(kk) as dense 2x2 complex matrices: kk of shape (..., 4) gives (..., 2, 2)."""
    k0, k1, k2, k3 = np.moveaxis(np.asarray(kk, float), -1, 0)
    return pauli(mass_vector(k1, k2, k3, p), -1j * k0)


def _ainv(k0, m1, m2, m3):
    """A^{-1} = (i k0 I + m.sigma)/(k0^2 + |m|^2); broadcasts, shape S -> S + (2, 2)."""
    den = k0 ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2
    return pauli((m1, m2, m3), 1j * k0) / den[..., None, None]


def free_propagator(kk, p: HoppingParams) -> np.ndarray:
    """A(kk)^{-1}; raises SingularMomentumError on shell (Weyl point, k0 = 0).

    The on-shell test allows for roundoff in the band terms (cos pi/3 etc.):
    energy scales below 1e-12 count as singular.
    """
    k0, k1, k2, k3 = kk
    m = mass_vector(k1, k2, k3, p)
    if band_energy(k0, m) < 1e-12:
        raise SingularMomentumError(f"free propagator is singular at kk = {kk}")
    return _ainv(float(k0), *m)


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


def _displacement(x1, x2, x3) -> tuple[int, int, int]:
    """The lattice displacement as ints; a fractional one raises ValueError."""
    if not all(float(xi).is_integer() for xi in (x1, x2, x3)):
        raise ValueError(f"lattice displacement {(x1, x2, x3)} is not integral")
    return int(x1), int(x2), int(x3)


@functools.lru_cache(maxsize=1)
def _time_slice(x0: float, L: int, beta: float, p: HoppingParams, positive: bool):
    """schwinger_time_domain's read-only time slice at one x0, all it needs besides
    the phases: the momenta ks and f = (c0, c1 m1, c1 m2, c1 m3) on the L^3 grid."""
    ks = 2.0 * np.pi * np.arange(L) / L
    m = mass_vector(ks[:, None, None], ks[None, :, None], ks, p)
    lam = band_energy(0.0, m)
    gp = _mode_propagator(lam, x0, beta, positive)
    gm = _mode_propagator(-lam, x0, beta, positive)
    c0 = 0.5 * (gp + gm)
    # (gp - gm)/(2 lam) stays finite as lam -> 0 and multiplies m directly
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(lam > 0, 0.5 * (gp - gm) / np.where(lam > 0, lam, 1.0), 0.0)
    f = np.stack([c0, c1 * m[0], c1 * m[1], c1 * m[2]])
    ks.flags.writeable = f.flags.writeable = False
    return ks, f


def schwinger_time_domain(x, grid: GridSpec, p: HoppingParams, side: str | None = None) -> np.ndarray:
    """Exact S0(x) from the diagonal-basis closed forms, rotated to (a, b).

    x = (x0, x1, x2, x3) with integral lattice displacement (a fractional one
    raises ValueError) and x0 in (-beta, beta] (rejected outside; use
    normalize_time first).  side selects the one-sided limit at x0 = 0: "+"
    evaluates the x0 > 0 branch, "-" the x0 <= 0 branch (the time-ordering
    default).  A one-entry memo keeps the last O(L^3) time slice (_time_slice) for
    the displacements of one x0; their phase e^{-i kbar.xbar} factorizes over the
    three axes, so the L^3 sum is taken one axis at a time.
    """
    x0, xbar = x[0], _displacement(*x[1:])
    beta = grid.beta
    if not (-beta < x0 <= beta):
        raise ValueError(f"x0 = {x0} outside (-beta, beta]")
    if side not in (None, "+", "-"):
        raise ValueError("side must be None, '+' or '-'")
    branch_positive = x0 > 0 if side is None else (side == "+")
    ks, f = _time_slice(float(x0), grid.L, beta, p, bool(branch_positive))
    e1, e2, e3 = (np.exp(-1j * ks * xi) for xi in xbar)
    w0, w1, w2, w3 = ((f @ e3) @ e2) @ e1
    return pauli((w1, w2, w3), w0) / grid.L ** 3


# --- regularized momentum sums -------------------------------------------

def _paired_sums(k0, w, lam2, weight=None):
    """w @ [weight / (k0^2 + lam2)], the one frequency reduction: the axes
    mirror exactly and every weight is even in k0, so each +-k0 pair is summed
    at once, k0 holding the positive half and w (n, k0.size) each pair's
    factors, over lam2, one lambda^2 per orbit column, in blocks of frequencies.
    weight is a (k0.size, lam2.size) table or weight(k0sq, lam2) per block.
    Every block is filled in place into one reused block buffer.
    """
    sums = np.zeros((w.shape[0], lam2.size))
    buf = np.empty((min(k0.size, 4096), lam2.size))
    for lo in range(0, k0.size, 4096):
        k0sq = k0[lo:lo + 4096, None] ** 2
        g = buf[:k0sq.shape[0]]
        np.divide(1.0, np.add(k0sq, lam2, out=g), out=g)
        if callable(weight):
            g *= weight(k0sq, lam2)
        elif weight is not None:
            g *= weight[lo:lo + 4096]
        sums += w[:, lo:lo + 4096] @ g
    return sums


def _matsubara_sums(grid: GridSpec, lam2, M: int, x0: float = 0.0, extra=None):
    """Real (s0, a) = (1/beta) sum_k0 chibar(2^-M |k0|) e^{-i k0 x0} [1, i k0] extra
    / (k0^2 + lam2) per entry of the 1-D lam2, extra(k0sq, lam2) an optional weight:
    _paired_sums per orbit column (_grid_columns); a is exactly 0 at x0 = 0.
    """
    k0 = grid.matsubara_frequencies(M)
    k0 = k0[k0.size // 2:]  # the positive half; the other is its exact mirror
    cut = 2.0 * smooth_cutoff(k0 / 2.0 ** M)
    w = np.stack([cut * np.cos(k0 * x0), cut * k0 * np.sin(k0 * x0)])
    return _paired_sums(k0, w, lam2, extra) / grid.beta


def _grid_columns(grid: GridSpec, p: HoppingParams):
    """The mass vector on the L^3 momenta in spatial_momenta() order, lambda^2 per
    orbit column (lattice._orbit_key, each axis folding j to min(j, -j mod L)) at one
    momentum per column, and the key that scatters columns back onto the momenta."""
    j = np.arange(grid.L)
    ks, fold = 2.0 * np.pi * j / grid.L, np.minimum(j, -j % grid.L)
    key, (i1, i2, i3) = _orbit_key(fold, fold)
    m1, m2, m3 = mass_vector(ks[i1], ks[i2], ks[i3], p)
    return mass_vector(*grid.spatial_momenta().T, p), m1 ** 2 + m2 ** 2 + m3 ** 2, key.ravel()


def regularized_all_spatial(x0: float, grid: GridSpec, p: HoppingParams,
                            M: int | None = None) -> np.ndarray:
    """g_M(x0, xbar) for every lattice displacement at once; (L, L, L, 2, 2).

    (1/beta) sum_k0 chibar(2^-M |k0|) e^{-i k0 x0} A^{-1} is pauli(m s0, a) per kbar
    with the real (s0, a) of _matsubara_sums per orbit column, scattered by the key;
    one FFT over the spatial axes gives
    value[xbar] = (1/L^3) sum_kbar e^{-i kbar.xbar} of it.
    """
    M = grid.M if M is None else M
    L = grid.L
    (m1, m2, m3), lam2, key = _grid_columns(grid, p)
    s0, a = (x[key] for x in _matsubara_sums(grid, lam2, M, x0))
    f = pauli((m1 * s0, m2 * s0, m3 * s0), a).reshape(L, L, L, 2, 2)
    return np.fft.fftn(f, axes=(0, 1, 2)) / L ** 3


def regularized_propagator_sum(x, grid: GridSpec, p: HoppingParams,
                               M: int | None = None) -> np.ndarray:
    """g_M(x): finite momentum sum of A^{-1} under the smooth UV cutoff, the
    regularized_all_spatial entry at (x1, x2, x3) mod L.  The displacement
    must be integral: a fractional one raises ValueError, never truncates.

    Converges to schwinger_time_domain(x) away from x = (0 mod beta, 0bar)
    and to the mean of the two one-sided limits at x = 0 (tail ~ 2^-M there).
    """
    x1, x2, x3 = _displacement(*x[1:])
    L = grid.L
    return regularized_all_spatial(x[0], grid, p, M)[x1 % L, x2 % L, x3 % L]


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
# rows per box of the CSV writer, the conjugation check and the sup norm:
# bounds the temporaries (the box's values, bit patterns, cell indices,
# magnitude texts, tokens, box text, paired values) to a few MB
_CHUNK_ROWS = 1 << 14
# the writer's separator tokens of a nonnegative or NaN and of a negative value cell
_SIGN = np.array([",", ",-"], dtype=object)


def _boxes(blocks: int, n: int):
    """(a, b, s, e) per box of `blocks` k0 blocks of n spatial momenta: blocks
    a..b at momenta s..e.  A box is _CHUNK_ROWS // n whole blocks or, when one
    block is larger than that, at most _CHUNK_ROWS momenta of one block."""
    per = _CHUNK_ROWS // n
    if per:
        for a in range(0, blocks, per):
            yield a, min(a + per, blocks), 0, n
    else:
        for a in range(blocks):
            for s in range(0, n, _CHUNK_ROWS):
                yield a, a + 1, s, min(s + _CHUNK_ROWS, n)


def _runs(boxes: list) -> list:
    """boxes cut into contiguous runs of near-equal length, one per CPU this
    process may use but at most one per box; one run where os.fork or
    os.sched_getaffinity does not exist."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    n = max(1, min(cpus, len(boxes)))
    return [boxes[i * len(boxes) // n:(i + 1) * len(boxes) // n] for i in range(n)]


def _fork_run(texts, tmp) -> int:
    """Fork a child that writes the ASCII bytes of the texts to tmp; returns
    its pid.  The child leaves through os._exit whatever happens, status 0
    once the bytes are flushed, 1 with its traceback on stderr if anything
    raised: it never unwinds into the caller's code, and so never flushes or
    closes the caller's files or runs its finally blocks."""
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork when the BLAS pool has threads; the
        # child runs no BLAS, only numpy indexing, sorting and repr
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for text in texts:
            tmp.write(text.encode("ascii"))
        tmp.flush()
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


@dataclass(frozen=True)
class PropagatorGrid:
    """2x2 values on k0-major blocks of grid.spatial_momenta(): block i is
    frequency k0[i] at every spatial momentum, k0 strictly increasing and
    k0[nk0 - 1 - i] exactly -k0[i].  box(a, b, s, e) returns a new
    (b - a, e - s, 2, 2) array of blocks a..b at spatial momenta s..e;
    to_csv, conjugation_defect and sup_norm walk the rows in _boxes of it.
    """

    grid: GridSpec
    k0: np.ndarray
    box: Callable[[int, int, int, int], np.ndarray]

    def __len__(self):
        return self.k0.size * self.grid.L ** 3

    @property
    def momenta(self) -> np.ndarray:
        """The (N, 4) momenta of the rows, built on each read."""
        kbar = self.grid.spatial_momenta()
        mom = np.empty((self.k0.size, kbar.shape[0], 4))
        mom[:, :, 0] = self.k0[:, None]
        mom[:, :, 1:] = kbar
        return mom.reshape(-1, 4)

    @property
    def values(self) -> np.ndarray:
        """The (N, 2, 2) complex values of the rows, built on each read."""
        return self.box(0, self.k0.size, 0, self.grid.L ** 3).reshape(-1, 2, 2)

    @classmethod
    def from_rows(cls, grid: GridSpec, momenta, values) -> "PropagatorGrid":
        """The table of (N, 4) momenta and (N, 2, 2) values, once the rows are
        checked to be laid out as build_propagator_grid writes them and
        from_csv reads them back: k0-major blocks of grid.spatial_momenta(), k0
        strictly increasing, and the k0 of block nk0 - 1 - i the exact negative
        of block i's, all bit for bit.  Any other layout, or values of another
        shape, raises ValueError.
        """
        kbar = grid.spatial_momenta()
        n = kbar.shape[0]
        momenta = np.ascontiguousarray(momenta, float)
        if np.shape(values) != (momenta.shape[0], 2, 2):
            raise ValueError(f"{np.shape(values)} propagator values for {len(momenta)} rows")
        nk0, extra = divmod(momenta.shape[0], n)
        mom = momenta[:nk0 * n].reshape(nk0, n, 4)
        k0, bits = mom[:, 0, 0], mom.view(np.uint64)
        if extra or not (np.all(np.diff(k0) > 0)
                         and np.array_equal(bits[:, 0, 0], (-k0[::-1]).view(np.uint64))
                         and (bits[..., 0] == bits[:, :1, 0]).all()
                         and (bits[..., 1:] == kbar.view(np.uint64)).all()):
            raise ValueError("propagator rows are not k0-major blocks of grid.spatial_momenta() "
                             "with increasing, mirrored k0")
        rows = np.array(values, complex).reshape(nk0, n, 2, 2)
        return cls(grid, k0.copy(), lambda a, b, s, e: rows[a:b, s:e].copy())

    def sup_norm(self) -> float:
        """max |entry| over all rows (NaN if any entry is NaN; 0.0 without rows)."""
        worst = 0.0
        for box in _boxes(self.k0.size, self.grid.L ** 3):
            worst = np.max(np.abs(self.box(*box)), initial=worst)
        return float(worst)

    def conjugation_defect(self) -> float:
        """max |value(-k0, kbar) - value(k0, kbar)^dagger| over all rows.

        Each row is paired with its mirror by position; a row whose difference
        holds a NaN is ignored.
        """
        nk0 = self.k0.size
        # the lower half's differences are the upper half's, negated and
        # transposed; blocks a..b mirror blocks nk0-b..nk0-a, reversed
        worst = 0.0
        for a, b, s, e in _boxes(nk0 // 2, self.grid.L ** 3):
            mirror = self.box(nk0 - b, nk0 - a, s, e)[::-1]
            diff = mirror - self.box(a, b, s, e).conj().swapaxes(2, 3)
            worst = float(np.fmax.reduce(np.abs(diff).max(axis=(2, 3)), axis=None,
                                         initial=worst))
        return worst

    def to_csv(self, path_or_buf):
        """Header plus one CRLF row per momentum, every float written by repr.

        The momenta are written from the layout: one "\\r\\n" + k0 + "," lead
        per block, which starts each row, and one "k1,k2,k3" per spatial
        momentum.  A value's repr is its magnitude's (the sign bit cleared)
        with "-" in front when the sign bit is set and it is not NaN, which
        repr writes as "nan" whatever its sign.  So each box calls repr once
        per distinct magnitude, and every value cell is two tokens: "," or
        ",-", then the magnitude's text.

        The boxes are cut into contiguous runs, one per CPU the process may
        use (_runs).  This process formats run 0 straight into the buffer;
        each later run is formatted by a forked child into its own temporary
        file, which is copied in after run 0, in run order, 1 MiB at a time.
        A failed run raises RuntimeError naming it; no child or temporary
        file outlives the call.
        """
        kbar = self.grid.spatial_momenta()
        lead = np.array([f"\r\n{k!r}," for k in self.k0.tolist()], dtype=object)
        spatial = np.array([",".join(map(repr, k)) for k in kbar.tolist()], dtype=object)
        runs = _runs(list(_boxes(self.k0.size, kbar.shape[0])))
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w", newline="")
        temps, pids = [], {}  # per later run its file, and its child until reaped
        try:
            for i, run in enumerate(runs[1:], 1):
                temps.append(tempfile.TemporaryFile())
                pids[i] = _fork_run(self._box_texts(run, lead, spatial), temps[-1])
            buf.write(",".join(_CSV_HEADER))
            try:
                for text in self._box_texts(runs[0], lead, spatial):
                    buf.write(text)
            except Exception as exc:
                raise RuntimeError(f"to_csv run 0 of {len(runs)} failed: {exc!r}") from exc
            for i, tmp in enumerate(temps, 1):
                status = os.waitpid(pids.pop(i), 0)[1]
                if status:
                    raise RuntimeError(f"to_csv run {i} of {len(runs)} failed: its child "
                                       f"exited with {os.waitstatus_to_exitcode(status)}")
                tmp.seek(0)
                while chunk := tmp.read(1 << 20):
                    buf.write(chunk.decode("ascii"))
            buf.write("\r\n")
        finally:
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for tmp in temps:
                tmp.close()
            if buf is not path_or_buf:
                buf.close()

    def _box_texts(self, boxes, lead, spatial):
        """The CSV text of each box in turn: its rows, each led by "\\r\\n"."""
        for a, b, s, e in boxes:
            vals = self.box(a, b, s, e).reshape(-1, 4).view(float)
            mag, cell = np.unique(np.abs(vals).view(np.uint64), return_inverse=True)
            text = np.array(list(map(repr, mag.view(float).tolist())), dtype=object)
            tokens = np.empty((b - a, e - s, 18), dtype=object)
            tokens[..., 0] = lead[a:b, None]
            tokens[..., 1] = spatial[s:e]
            tokens = tokens.reshape(-1, 18)
            tokens[:, 2::2] = _SIGN[(np.signbit(vals) & ~np.isnan(vals)).view(np.int8)]
            tokens[:, 3::2] = text[cell.reshape(vals.shape)]
            yield "".join(tokens.ravel().tolist())

    @classmethod
    def from_csv(cls, path_or_buf, grid: GridSpec) -> "PropagatorGrid":
        """Read what to_csv wrote, or the CLI's propagator.csv (manifest line
        first), through from_rows."""
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf, newline="")
        try:
            line = buf.readline()
            if line.startswith("# manifest:"):
                line = buf.readline()
            if line.rstrip("\r\n").split(",") != _CSV_HEADER:
                raise ValueError("unexpected propagator CSV header")
            first = buf.readline()  # "" for a grid without rows, which loadtxt warns on
            data = (np.loadtxt(chain([first], buf), delimiter=",", ndmin=2).reshape(-1, 12)
                    if first else np.empty((0, 12)))
        finally:
            if buf is not path_or_buf:
                buf.close()
        vals = np.ascontiguousarray(data[:, 4:]).view(complex).reshape(-1, 2, 2)
        return cls.from_rows(grid, data[:, :4], vals)


def build_propagator_grid(grid: GridSpec, p: HoppingParams) -> PropagatorGrid:
    """Free propagator on the full grid inside the UV cutoff support: the
    weight chibar(2^-M |k0|) times A^{-1}, computed box by box as the grid's
    passes walk it, so the grid holds O(n_k0 + L^3) numbers, not its rows.

    Rows are k0-major: each frequency with a nonzero cutoff weight carries all
    L^3 spatial momenta in spatial_momenta() order.
    """
    k0 = grid.matsubara_frequencies()
    cut = smooth_cutoff(np.abs(k0) / 2.0 ** grid.M)
    k0, w = k0[cut > 0], cut[cut > 0, None, None, None]
    m = mass_vector(*grid.spatial_momenta().T, p)

    def box(a, b, s, e):
        return w[a:b] * _ainv(k0[a:b, None], *(mi[s:e] for mi in m))

    return PropagatorGrid(grid, k0, box)
