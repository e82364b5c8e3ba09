"""Running-coupling flow: localization, one-loop beta, counterterm fixed point.

The effective potential is truncated to the quadratic kernel generated at
first order in U at every scale (Hartree plus Fock over the scale being
integrated), so each flow step computes

  sigma_h(kk) = U vhat(0) tr[g^(h)(0)] I  -  U (1/(beta L^3)) sum_p vhat(kbar - pbar) g^(h)(p),

localizes it at the expansion point (0 in regime 1, +p_F in regime 2; the
valleys are mirror images, so the +1 valley carries the local data) and
absorbs the local part into (Z, v, v3, nu).  Every one-loop self-energy
(flow kernels, dressed inverse, uv split, asymptotic constants) is
band_self_energy over separable boxes.  Raw localized coefficients are
stored as plain derivatives (the symmetry-projected n, b0, b+, b-, b3);
update_couplings applies the basis orientation of the reference matrix:
the regime-1 axial basis function (cos k3 - 1) has second derivative -1 at
0 and the regime-2 one -sin k3' of the +1 valley has slope -1, so b3 enters
with the sign -1 in both regimes.

nu bookkeeping is dimensionless: the local term at scale h is 2^h nu_h, and
nu_{h-1} = 2 nu_h + beta_nu^(h) with beta_nu^(h) = n_h 2^(1-h) / Z_{h-1}.
Choosing the scale-0 boundary value nu = -sum_k 2^(k-1) beta_nu^(k) keeps
nu_h bounded; with nu = 0 it grows like 2^-h.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .lattice import HoppingParams, ID2, SIGMA1, SIGMA2, SIGMA3, pauli, weyl_points
from .propagator import GridSpec, _grid_columns, _matsubara_sums, inverse_propagator
from .cutoff import smooth_cutoff
from .multiscale import (RunningCouplings, _regime2_couplings, band_grid, crossover_scale,
                         default_cutoff, initial_couplings)


class FlowBlowupError(RuntimeError):
    """A coupling left the validity window during the flow."""


class StencilError(ValueError):
    """Finite-difference stencil spacing degenerate."""


class QuadratureError(RuntimeError):
    """Momentum quadrature failed (band unresolved at the requested scale)."""


# --- interaction ------------------------------------------------------------

@dataclass(frozen=True)
class InteractionSpec:
    """Short-range density-density interaction with an evaluable transform.

    The default family is the separable lattice exponential
    v(x) = exp(-kappa (|x1|+|x2|+|x3|)), whose transform factorizes into
    Poisson kernels per axis; vhat is smooth, even and positive and can be
    evaluated at arbitrary momenta.
    """

    kappa: float
    amplitude: float = 1.0

    def axis_value(self, q):
        e = math.exp(-self.kappa)
        return (1.0 - e * e) / (1.0 - 2.0 * e * np.cos(np.asarray(q, float)) + e * e)

    @property
    def v_hat_0(self) -> float:
        a = self.axis_value(0.0)
        return float(self.amplitude * a * a * a)


def exponential_interaction(kappa: float = 1.0, amplitude: float = 1.0) -> InteractionSpec:
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return InteractionSpec(kappa=kappa, amplitude=amplitude)


# --- localization -----------------------------------------------------------

@dataclass(frozen=True)
class LocalizedKernel:
    """Symmetry-projected Taylor data of a 2x2 kernel at the expansion point.

    n_h:  sigma3 component of W(0); b0_h: coefficient of -i k0 I in the k0
    slope; bplus/bminus: sigma1/sigma2 components of the sin k+- slopes;
    b3_h: sigma3 component of d^2/dk3^2 W (regime 1) or d/dk3' W (regime 2).
    Raw derivatives; basis orientation is applied by update_couplings.
    residual: the largest component outside this pattern, relative to them.
    """

    n_h: float
    b0_h: float
    bplus_h: float
    bminus_h: float
    b3_h: float
    residual: float = 0.0


#: stencil directions (k0, k1, k2, k3): k0 for b0, (0,1,+-1,0) for b+-, k3 for b3
_DIRECTIONS = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]], float)
#: the (I, sigma1, sigma2, sigma3) component localization keeps, times its phase,
#: of W(0) and of the difference along each of _DIRECTIONS (dW/dk0 = -i b0 I + ...)
_PATTERN = np.array([[0, 0, 0, 1], [-1j, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
_BASIS = np.stack([ID2, SIGMA1, SIGMA2, SIGMA3])


def localize_kernel(kernel, regime: int, point=(0.0, 0.0, 0.0, 0.0),
                    spacing: float = np.pi / 32.0) -> LocalizedKernel:
    """Extract the local Taylor data of a 2x2 kernel at the expansion point.

    kernel maps (P, 4) momenta (k0, k1, k2, k3) to (P, 2, 2) values and is
    called once, on 17: the point and the point +- d u, d in (spacing,
    spacing / 2), u in _DIRECTIONS.  Regime 1 takes {value, k0 slope, sin
    k+- slopes, k3 curvature} at 0; regime 2 {value, k0 slope, sin k+-
    slopes, k3' slope} at p_F (pass the expansion point explicitly).  Central
    differences, Richardson-extrapolated once.  residual is the largest Pauli
    component off the kept pattern over W(0) and the differences at both
    spacings, relative to the largest kept coefficient.
    """
    if not 1e-8 <= spacing < math.inf:
        raise StencilError(f"stencil spacing {spacing:g} is not finite and >= 1e-8")
    point = np.asarray(point, float)
    if point.shape != (4,) or not np.isfinite(point).all():
        raise ValueError(f"expansion point must be 4 finite numbers, got {point!r}")
    d = np.array([spacing, spacing / 2.0])[:, None, None, None]
    kk = point + np.array([1.0, -1.0])[:, None, None, None] * d[..., 0] * _DIRECTIONS
    w = kernel(np.concatenate([point[None], kk.reshape(-1, 4)]))
    if np.shape(w) != (17, 2, 2):
        raise ValueError(f"kernel returned shape {np.shape(w)} for 17 momenta, not (17, 2, 2)")
    w0, up, dn = w[0], w[1:9].reshape(2, 4, 2, 2), w[9:].reshape(2, 4, 2, 2)  # (d, u, 2, 2)
    diffs = (up - dn) / (2.0 * d)
    if regime == 1:
        diffs[:, 3] = (up[:, 3] - 2.0 * w0 + dn[:, 3]) / d[:, 0] ** 2
    # complex Pauli components tr(sigma M) / 2 of W(0) and the differences
    comps = np.einsum("pji,...ij->...p", _BASIS,
                      np.concatenate([w0[None], diffs.reshape(8, 2, 2)])) / 2.0
    rich = (4.0 * comps[5:] - comps[1:5]) / 3.0
    kept = np.real(np.conj(_PATTERN) * np.concatenate([comps[:1], rich])).sum(axis=1)
    pattern = _PATTERN[[0, 1, 2, 3, 4, 1, 2, 3, 4]]
    off = np.abs(comps - pattern * np.real(np.conj(pattern) * comps)).max()
    top = np.abs(kept).max()
    resid = off / top if top else math.inf if off else 0.0
    return LocalizedKernel(*map(float, kept), residual=float(resid))


def update_couplings(c: RunningCouplings, loc: LocalizedKernel) -> RunningCouplings:
    """Absorb normalized localized coefficients (b / Z_h) into the couplings.

    Z_{h-1} = Z_h (1 + b0); v_{h-1} = (Z_h/Z_{h-1})(v_h + b+); the axial
    coupling gets the orientation factor of its basis function, -1 in both
    regimes: the curvature of (cos k3 - 1) at 0 in regime 1 and the slope of
    -sin k3' in regime 2, which flow_step localizes at +p_F; so
    v3_{h-1} = (Z_h/Z_{h-1})(v3_h - b3).  nu is flown separately (flow_step).
    """
    if 1.0 + loc.b0_h <= 0.0:
        raise FlowBlowupError(f"wavefunction update 1 + b0 = {1.0 + loc.b0_h:g} <= 0")
    z_new = c.Z * (1.0 + loc.b0_h)
    ratio = c.Z / z_new
    v_new = ratio * (c.v + loc.bplus_h)
    v3_new = ratio * (c.v3 - loc.b3_h)
    if v_new <= 0 or v3_new <= 0:
        raise FlowBlowupError("velocity turned non-positive")
    return c.replace(Z=z_new, v=v_new, v3=v3_new, h=c.h - 1)


# --- one-loop self-energy ----------------------------------------------------

def band_self_energy(kk_abs, boxes, inter: InteractionSpec, U: float) -> np.ndarray:
    """First-order self-energy at absolute momenta from boxes (moments, k1s,
    k2s, k3s, k3_origin): the k0 moments (3, n1, n2, n3) of g on separable
    axes, k3 relative to k3_origin, of a band (BandGrid.box) or a full grid.

    sigma(kk) = U vhat(0) tr[g(0)] I - U sum_box sum_p vhat(kbar - pbar) g(p),
    the Fock sum contracted one axis at a time for the whole stack: kk_abs of
    shape (..., 4) gives (..., 2, 2).  tr g(0), the ik0 moment, is exactly 0
    in +-k0 pairs (half filling).  kk's k0 is not read (the vertex is
    instantaneous).
    """
    shape = np.shape(kk_abs)
    if shape[-1:] != (4,):
        raise ValueError(f"momenta must have a last axis of 4, got shape {shape}")
    q = np.reshape(kk_abs, (-1, 4)).astype(float)[:, 1:, None]

    def fock(moments, k1s, k2s, k3s, k3_origin):
        d1 = inter.amplitude * inter.axis_value(q[:, 0] - k1s)  # (P, n1)
        d2 = inter.axis_value(q[:, 1] - k2s)
        d3 = inter.axis_value(q[:, 2] - k3_origin - k3s)
        return np.einsum("cap,pa->cp", np.einsum("cabp,pb->cap", moments @ d3.T, d2), d1)
    f = sum((fock(*box) for box in boxes), np.zeros((3, len(q))))
    return (-U * pauli(f)).reshape(shape[:-1] + (2, 2))


def self_energy_first_order(kk, h: int, c: RunningCouplings, inter: InteractionSpec,
                            U: float, p: HoppingParams, n_k: int = 12) -> np.ndarray:
    """One-loop self-energy of the scales above h at frozen couplings, at kk or a stack.

    Builds the regime-1 bands h+1..0 (frozen at c) and sums Hartree + Fock;
    equals the direct cumulative-support sum by telescoping of the f_k.
    """
    cutoff = default_cutoff(p)
    bands = [band_grid(k, 1, 1, c.replace(h=k), p, cutoff, n=n_k) for k in range(0, h, -1)]
    return band_self_energy(kk, [bg.box for bg in _require_support(bands)], inter, U)


def _require_support(bands):
    for bg in bands:
        if bg.support_points == 0:
            raise QuadratureError(f"band empty at h={bg.h} (regime {bg.regime}, "
                                  f"omega {bg.omega})")
    return bands


# --- flow -------------------------------------------------------------------

@dataclass
class BetaRecord:
    h: int
    regime: int
    b0: float
    bplus: float
    bminus: float
    b3: float
    beta_nu: float
    max_dimensionless: float
    snap_offset: float = 0.0
    band_points: int = 0
    residual: float = 0.0  # LocalizedKernel.residual of the step


@dataclass
class FlowRow:
    h: int
    couplings: RunningCouplings
    beta: BetaRecord


@dataclass
class FlowTrajectory:
    params: HoppingParams
    U: float
    h_star: int | float
    nu0: float
    rows: list
    final: RunningCouplings
    v3_crossover: float | None
    termination: str
    boxes: list

    @property
    def max_dimensionless_beta(self) -> float:
        return max((r.beta.max_dimensionless for r in self.rows), default=0.0)

    def nu_of_h(self) -> dict:
        out = {0: self.nu0}
        for r in self.rows:
            out[r.h - 1] = 2.0 * out[r.h] + r.beta.beta_nu
        return out

    def csv_rows(self):
        rows = []
        for r in self.rows:
            rows.append((r.h, r.couplings.Z, r.couplings.v, r.couplings.v3,
                         r.couplings.nu, r.beta.beta_nu, r.couplings.regime))
        rows.append((self.final.h, self.final.Z, self.final.v, self.final.v3,
                     self.final.nu, 0.0, self.final.regime))
        return rows


def flow_step(h: int, c: RunningCouplings, bands: list, inter: InteractionSpec,
              U: float, p: HoppingParams):
    """One scale integration: localize the self-energy of the scale-h bands
    and update.

    Returns (couplings at h-1, BetaRecord).  nu flows as nu_{h-1} = 2 nu_h +
    beta_nu with the dimensionless beta_nu = n_h 2^(1-h)/Z_{h-1}.  Regime 2
    is localized at k3 = p_F, i.e. k3' = 0.
    """
    regime = c.regime
    origin = weyl_points(p).p_F if regime == 2 else 0.0
    boxes = [b.box for b in bands]
    loc_raw = localize_kernel(lambda kk: band_self_energy(kk, boxes, inter, U), regime,
                              point=(0.0, 0.0, 0.0, origin))
    loc = LocalizedKernel(*(x / c.Z for x in astuple(loc_raw)[:5]), residual=loc_raw.residual)
    c_new = update_couplings(c, loc)
    beta_nu = loc_raw.n_h * 2.0 ** (1 - h) / c_new.Z  # n normalized by Z_{h-1}
    nu_new = 2.0 * c.nu + beta_nu
    c_new = c_new.replace(nu=nu_new)
    dimless = max(abs(loc.b0_h), abs(loc.bplus_h) / c.v, abs(loc.bminus_h) / c.v,
                  abs(loc.b3_h) / c.v3, abs(beta_nu))
    rec = BetaRecord(h=h, regime=regime, b0=loc.b0_h, bplus=loc.bplus_h,
                     bminus=loc.bminus_h, b3=loc.b3_h, beta_nu=beta_nu,
                     max_dimensionless=dimless,
                     snap_offset=max(abs(b.snap_offset) for b in bands),
                     band_points=sum(b.support_points for b in bands),
                     residual=loc.residual)
    return c_new, rec


def _check_window(c: RunningCouplings, ref: RunningCouplings, eps0: float):
    if abs(c.Z - 1.0) > eps0 or abs(c.v / ref.v - 1.0) > eps0 or \
            abs(c.v3 / ref.v3 - 1.0) > eps0:
        raise FlowBlowupError(
            f"couplings left the eps0 = {eps0} window at h = {c.h}: "
            f"Z={c.Z:g} v={c.v:g} v3={c.v3:g}")


def run_flow(p: HoppingParams, U: float, inter: InteractionSpec, h_min: int,
             nu0: float = 0.0, n_k: int = 12, eps0: float = 0.5) -> FlowTrajectory:
    """Iterate flow steps from scale 0 down to h_min, keeping every band's box.

    Regime 1 runs for h > h*; the h* step integrates the bridge band (upper
    regime-1 cutoff, lower two-component cutoff) after which v3 converts to
    the axial velocity v3 sin(p_F) and regime 2 continues down to h_min, one
    band build per step: valley +1, and valley -1 as its mirror.  r < 0 stops
    at h* with the remaining infrared integrated in a single step and
    nu_{h*} = 0.  r = 0 stays in regime 1 throughout.
    """
    if h_min > 0:
        raise ValueError("h_min must be <= 0")
    if not 0 < eps0 < math.inf:
        raise ValueError(f"eps0 = {eps0} must be finite and > 0")
    h_star = crossover_scale(p)
    cutoff = default_cutoff(p)
    c = initial_couplings(p, regime=1).replace(nu=nu0)
    ref1 = c
    rows = []
    boxes = []
    v3_cross = None
    termination = "completed"
    finite_hstar = h_star != float("-inf")

    h = 0
    while h > h_min:
        at_crossover = finite_hstar and h == h_star
        tail = at_crossover and p.r < 0
        if tail:
            # the remaining infrared in one step: weight chi_{h*}, no lower
            # cutoff.  Near the window edge the whole infrared can be gapped out
            # (minimum energy t_perp |r| at or above the chi_{h*} support); the
            # band is then legitimately empty and the step trivial.
            bands = [band_grid(h, 1, 1, c, p, cutoff, n=n_k, lower=None)]
        elif at_crossover:
            # k3 refined 8x: the bridge spans several energy octaves whose
            # valley slices are thin in k3 at steep dispersion (large r)
            bands = [band_grid(h, 1, 1, c, p, cutoff, n=n_k, n3=max(96, 8 * n_k),
                               lower="valleys")]
        elif c.regime == 1:
            bands = [band_grid(h, 1, 1, c, p, cutoff, n=n_k)]
        else:
            plus = band_grid(h, 2, 1, c, p, cutoff, n=n_k, h_star=h_star)
            bands = [plus, plus.mirror()]
        c_new, rec = flow_step(h, c, bands if tail else _require_support(bands), inter, U, p)
        rows.append(FlowRow(h=h, couplings=c, beta=rec))
        boxes.extend(b.box for b in bands)
        if tail:
            c = c_new.replace(nu=0.0)  # nu_{h*} = 0: no singularity to tune
            termination = "insulator-stop"
            break
        if at_crossover:
            # enter regime 2: the axial coupling becomes the Weyl velocity
            c_new = _regime2_couplings(c_new, p)
            v3_cross = c_new.v3
        ref = ref1 if c_new.regime == 1 else ref1.replace(v3=v3_cross)
        _check_window(c_new, ref, eps0)
        c = c_new
        h -= 1

    return FlowTrajectory(params=p, U=U, h_star=h_star, nu0=nu0, rows=rows, final=c,
                          v3_crossover=v3_cross, termination=termination, boxes=boxes)


def _nu_target(traj: FlowTrajectory) -> float:
    """-sum_h 2^(h-1) beta_nu^(h): the scale-0 nu that cancels the 2^-h growth."""
    return -sum(2.0 ** (r.h - 1) * r.beta.beta_nu for r in traj.rows)


def solve_nu(p: HoppingParams, U: float, inter: InteractionSpec, h_min: int,
             n_k: int = 12, tol: float = 1e-10):
    """Scale-0 counterterm making nu_h bounded, from two flows.

    At one loop nu enters the flow affinely and the betas do not depend on
    it, so one probe flow at nu = 0 gives nu = -sum_h 2^(h-1) beta_nu^(h).
    A second flow at that nu must return the same target to within `tol`;
    otherwise the map is not affine and FlowBlowupError is raised.
    Returns (nu, trajectory at the solved value).
    """
    nu = _nu_target(run_flow(p, U, inter, h_min, nu0=0.0, n_k=n_k))
    traj = run_flow(p, U, inter, h_min, nu0=nu, n_k=n_k)
    resid = abs(_nu_target(traj) - nu)
    if not resid < tol:
        raise FlowBlowupError(f"nu counterterm is not affine: the flow at nu = {nu:.17g} "
                              f"moves its target by {resid:g} (tol {tol:g})")
    return nu, traj


# --- dressed propagator and observables --------------------------------------

def _scale0_weight(a0: float, support: str):
    """_matsubara_sums weight of the scale-0 split: chi_0 ("ir") or 1 - chi_0 ("uv")."""
    def weight(k0sq, lam2):
        chi0 = smooth_cutoff(np.sqrt(k0sq + lam2) / a0)
        return chi0 if support == "ir" else 1.0 - chi0
    return weight


def _grid_moments(p: HoppingParams, grid: GridSpec, extra):
    """The grid as one box: the k0 moments (m1, m2, m3) s0 / L^3 of A^{-1} extra, s0
    per orbit column (_grid_columns), shaped (3, L, L, L) on the axes 2 pi j / L
    (spatial_momenta is an ij-meshgrid ravel), origin 0.  Its ik0 moment, the
    Hartree trace, is exactly 0 (half filling)."""
    m, lam2, key = _grid_columns(grid, p)
    s0 = _matsubara_sums(grid, lam2, grid.M, extra=extra)[0][key]
    ks = 2.0 * np.pi * np.arange(grid.L) / grid.L
    return (np.stack(m) * s0 / grid.L ** 3).reshape(3, grid.L, grid.L, grid.L), ks, ks, ks, 0.0


def uv_self_energy(kk_abs, p: HoppingParams, inter: InteractionSpec, U: float,
                   grid: GridSpec) -> np.ndarray:
    """One-loop self-energy of the region above scale 0: weight (1 - chi_0)
    under the 2^M frequency cutoff, by direct quadrature over `grid`.

    The scale-0 flow starts from bare vertices; this helper supplies the
    complementary ultraviolet dressing when a full-support one-loop object is
    needed (e.g. comparing against the full-support velocity integrals).
    """
    return band_self_energy(kk_abs, [_grid_moments(p, grid, _scale0_weight(p.a0, "uv"))],
                            inter, U)


def dressed_inverse(kk_abs, traj: FlowTrajectory, inter: InteractionSpec) -> np.ndarray:
    """A(kk) + nu sigma3 + sigma(kk) with the one loop of every scale the flow
    integrated, matching the counterterm produced by solve_nu; the
    above-scale-0 dressing (uv_self_energy) is not included.  Measured, not
    derived: on solve_nu trajectories its sigma3 part at k = 0 is the bare
    t_perp r to within 1e-12 U on both sides of r = 0 (tests/test_rgflow.py).
    """
    sig = band_self_energy(kk_abs, traj.boxes, inter, traj.U)
    return inverse_propagator(kk_abs, traj.params) + traj.nu0 * SIGMA3 + sig


def dressed_det_scan(traj: FlowTrajectory, inter: InteractionSpec, L: int):
    """|det| of the dressed inverse propagator at k0 = 0 along the k3 axis.

    Returns (k3 grid values, |det| array); the minimizer location is the
    acceptance observable for the counterterm fixed point.
    """
    k3s = 2.0 * np.pi * np.arange(L) / L
    kk = np.outer(k3s, (0.0, 0.0, 0.0, 1.0))  # (0, 0, 0, k3) exactly
    return k3s, np.abs(np.linalg.det(dressed_inverse(kk, traj, inter)))


def asymptotic_constants(p: HoppingParams, inter: InteractionSpec, grid: GridSpec,
                         delta: float = np.pi / 64.0, support: str = "full"):
    """First-order velocity slopes from the stated one-loop integrals.

    a3 is the sigma3 contraction of the k3 derivative at +p_F of the Fock map
    built on the UV-regularized propagator (quadrature over `grid`), with the
    regime-2 basis orientation (-sin k3') applied; aplus the sigma1
    contraction of the sin k+ slope.  Both come from localize_kernel at
    stencil spacing delta.  v3 = v30 + a3 U + O(U^2) and
    v = t + aplus U + O(U^2); the output is per unit U.

    support selects the integration region: "full" (everything under the
    2^M frequency cutoff), "ir" (weighted by the scale-0 cumulative cutoff
    chi_0, the part the flow integrates) or "uv" (its complement).  A support
    with zero weight at every point of `grid` raises QuadratureError rather
    than returning zeros, and so does a split whose weight stays below 1/2 at
    every point, i.e. that reaches no grid momentum on its side of
    |k| = 3/2 a0, the middle of chi_0's ramp: the "ir" split of a coarse grid
    would return a rounding residue (-8.5e-31 at L=12, beta=32, M=5, r=1/2).
    """
    wp = weyl_points(p)
    if wp is None:
        raise ValueError("asymptotic constants need semimetal parameters")
    if support not in ("full", "ir", "uv"):
        raise ValueError("support must be full, ir or uv")
    weight = None if support == "full" else _scale0_weight(p.a0, support)
    box = _grid_moments(p, grid, weight)
    if not box[0].any():
        raise QuadratureError(f"no point of the L={grid.L}, beta={grid.beta:g} grid carries "
                              f"{support} weight")
    if weight is not None:
        # the weight is monotone in |k|, so it peaks at an end of the grid's |k| range
        k0sq = grid.matsubara_frequencies() ** 2
        lam2 = _grid_columns(grid, p)[1]
        top = max(weight(k0sq.min(), lam2.min()), weight(k0sq.max(), lam2.max()))
        if top < 0.5:
            raise QuadratureError(f"the largest {support} weight at a point of the L={grid.L}, "
                                  f"beta={grid.beta:g} grid is {top:.2g}, below 1/2")
    # at U = 1 the self-energy is exactly -Fock, the map the slopes localize
    loc = localize_kernel(lambda kk: band_self_energy(kk, [box], inter, 1.0), regime=2,
                          point=(0.0, 0.0, 0.0, wp.p_F), spacing=delta)
    return -loc.b3_h, loc.bplus_h  # basis -sin k3' at +p_F


def relativistic_form(kkprime, omega: int, Z: float, v: float, v3: float) -> np.ndarray:
    """Inverse of the linearized matrix at couplings (Z, v, v3), valley omega."""
    k0, k1, k2, k3p = kkprime
    kp, km = (k1 + k2) / 2.0, (k1 - k2) / 2.0
    return np.linalg.inv(Z * pauli((v * kp, v * km, -omega * v3 * k3p), -1j * k0))


def dressed_two_point(kkprime, omega: int, traj: FlowTrajectory,
                      inter: InteractionSpec):
    """Relativistic form at the final couplings plus the measured remainder.

    Returns (S_rel, remainder_ratio, bound, within) where remainder_ratio =
    ||S_rel^{-1} S_dressed - 1|| and bound = |kk'| / v30.
    """
    wp = weyl_points(traj.params)
    if wp is None:
        raise ValueError("dressed two-point function needs semimetal parameters")
    if wp.v30 == 0.0:
        raise ValueError("the Weyl points are degenerate at r = 0 (v30 = 0): the bound "
                         "|k'|/v30 has no meaning there")
    k0, k1, k2, k3p = kkprime
    norm_kp = math.sqrt(k0 ** 2 + k1 ** 2 + k2 ** 2 + k3p ** 2)
    bound = norm_kp / wp.v30
    c = traj.final
    s_rel = relativistic_form(kkprime, omega, c.Z, c.v, c.v3)
    kk_abs = (k0, k1, k2, k3p + omega * wp.p_F)
    s_num = np.linalg.inv(dressed_inverse(kk_abs, traj, inter))
    ratio = float(np.linalg.norm(np.linalg.solve(s_rel, s_num) - ID2, 2))
    return s_rel, ratio, bound, ratio <= bound
