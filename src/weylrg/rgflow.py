"""Running-coupling flow: localization, one-loop beta, counterterm fixed point.

The effective potential is truncated to the quadratic kernel generated at
first order in U at every scale (Hartree plus Fock over the scale being
integrated), so each flow step computes

  sigma_h(kk) = U vhat(0) tr[g^(h)(0)] I  -  U (1/(beta L^3)) sum_p vhat(kbar - pbar) g^(h)(p),

localizes it at the expansion point (0 in regime 1, +p_F in regime 2; the
valleys are mirror images, so the +1 valley carries the local data) and
absorbs the local part into (Z, v, v3, nu).  Raw localized coefficients are
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
from dataclasses import dataclass, field

import numpy as np

from .lattice import (HoppingParams, ID2, SIGMA1, SIGMA2, SIGMA3, mass_vector, pauli,
                      weyl_points)
from .propagator import GridSpec, _matsubara_sums, inverse_propagator
from .cutoff import smooth_cutoff
from .multiscale import (BandGrid, RunningCouplings, _regime2_couplings,
                         band_grid, crossover_scale, default_cutoff, initial_couplings)


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

    def v_hat(self, q1, q2, q3):
        return self.amplitude * self.axis_value(q1) * self.axis_value(q2) * self.axis_value(q3)

    @property
    def v_hat_0(self) -> float:
        return float(self.v_hat(0.0, 0.0, 0.0))


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
    """

    n_h: float
    b0_h: float
    bplus_h: float
    bminus_h: float
    b3_h: float
    residual: float = 0.0


def _project(mat, sigma) -> float:
    return float(np.real(np.trace(sigma @ mat)) / 2.0)


def _stencil(kernel, point, u, w0=None):
    """Central difference of kernel along the direction u in (k0, k1, k2, k3)
    as a function of the spacing d: the slope (W(x + d u) - W(x - d u)) / 2d,
    or, given the value w0 = W(x), the curvature (W(x + d u) - 2 w0 +
    W(x - d u)) / d^2.  x + d u is exact for the components u in {0, +-1}."""
    def diff(d):
        up = kernel(tuple(x + d * e for x, e in zip(point, u)))
        dn = kernel(tuple(x - d * e for x, e in zip(point, u)))
        return (up - dn) / (2.0 * d) if w0 is None else (up - 2.0 * w0 + dn) / d ** 2
    return diff


def _richardson(stencil, delta):
    d1 = stencil(delta)
    d2 = stencil(delta / 2.0)
    return (4.0 * d2 - d1) / 3.0


def localize_kernel(kernel, regime: int, point=(0.0, 0.0, 0.0, 0.0),
                    spacing: float = np.pi / 32.0) -> LocalizedKernel:
    """Extract the local Taylor data of kernel(kk) -> 2x2 at the expansion point.

    Regime 1 takes {value, k0 slope, sin k+- slopes, k3 curvature} at 0;
    regime 2 {value, k0 slope, sin k+- slopes, k3' slope} at p_F (pass the
    expansion point explicitly; regime-2 kernels take relative momenta).
    One central-difference stencil along four directions: (1,0,0,0) for b0,
    (0,1,+-1,0) for the sin k+- slopes and (0,0,0,1) for b3, each
    Richardson-extrapolated once.
    """
    if spacing < 1e-8:
        raise StencilError(f"stencil spacing {spacing:g} underflows")
    w0 = kernel(tuple(point))

    def derivative(u, w=None):
        return _richardson(_stencil(kernel, point, u, w), spacing)

    b0 = -float(np.imag(np.trace(derivative((1, 0, 0, 0)))) / 2.0)  # dW/dk0 = -i b0 I + ...
    bplus = _project(derivative((0, 1, 1, 0)), SIGMA1)
    bminus = _project(derivative((0, 1, -1, 0)), SIGMA2)
    b3 = _project(derivative((0, 0, 0, 1), w0 if regime == 1 else None), SIGMA3)
    # how much of the value sits outside the symmetry pattern
    resid = float(abs(np.trace(w0) / 2.0) + abs(_project(w0, SIGMA1)) + abs(_project(w0, SIGMA2)))
    return LocalizedKernel(n_h=_project(w0, SIGMA3), b0_h=b0, bplus_h=bplus, bminus_h=bminus,
                           b3_h=b3, residual=resid)


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

def _fock_from_band(bg: BandGrid, inter: InteractionSpec, kbar):
    """(1/(beta L^3)) sum_p vhat(kbar - pbar) g^(h)(p) over one band (2x2): its
    k0 moments contracted with the separable vhat one axis at a time; omega p_F
    of a regime-2 band's relative momenta enters the third argument."""
    d1 = inter.amplitude * inter.axis_value(kbar[0] - bg.k1s)
    d2 = inter.axis_value(kbar[1] - bg.k2s)
    d3 = inter.axis_value(kbar[2] - bg.k3_origin - bg.k3s)
    return pauli(bg.moments @ d3 @ d2 @ d1)


def _grid_fock(kbar, moments, inter: InteractionSpec, kk):
    """The same Fock sum over a full momentum grid: the k0 moments of
    _grid_moments contracted with vhat(kbar(kk) - kbar) point by point."""
    return pauli(moments @ inter.v_hat(*(np.asarray(kk[1:])[:, None] - kbar.T)))


def band_self_energy(kk_abs, bands, inter: InteractionSpec, U: float) -> np.ndarray:
    """First-order self-energy from a collection of bands at absolute momentum.

    sigma(kk) = U vhat(0) tr[g(0)] I - U sum_band Fock(kk), where tr g(0), the
    bands' ik0 moment, is exactly 0 in +-k0 pairs (half filling).  The k0 of
    kk only selects the instantaneous interaction (no k0 dependence).
    """
    return -U * sum((_fock_from_band(bg, inter, kk_abs[1:]) for bg in bands),
                    np.zeros((2, 2), complex))


def self_energy_first_order(kk, h: int, c: RunningCouplings, inter: InteractionSpec,
                            U: float, p: HoppingParams, n_k: int = 12) -> np.ndarray:
    """One-loop self-energy of the scales above h at frozen couplings.

    Builds the regime-1 bands h+1..0 (frozen at c) and sums Hartree + Fock;
    equals the direct cumulative-support sum by telescoping of the f_k.
    """
    cutoff = default_cutoff(p)
    bands = [band_grid(k, 1, 1, c.replace(h=k), p, cutoff, n=n_k) for k in range(0, h, -1)]
    return band_self_energy(kk, _require_support(bands), inter, U)


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
    bands: list = field(default_factory=list)

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
    beta_nu with the dimensionless beta_nu = n_h 2^(1-h)/Z_{h-1}.  Regime-2
    kernels take k3' relative to p_F and are localized at k3' = 0.
    """
    regime = c.regime
    origin = weyl_points(p).p_F if regime == 2 else 0.0

    def kernel(kk):
        return band_self_energy((kk[0], kk[1], kk[2], kk[3] + origin), bands, inter, U)

    loc_raw = localize_kernel(kernel, regime=regime)
    z = c.Z
    loc = LocalizedKernel(n_h=loc_raw.n_h / z, b0_h=loc_raw.b0_h / z,
                          bplus_h=loc_raw.bplus_h / z, bminus_h=loc_raw.bminus_h / z,
                          b3_h=loc_raw.b3_h / z, residual=loc_raw.residual)
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
                     band_points=sum(b.support_points for b in bands))
    return c_new, rec


def _check_window(c: RunningCouplings, ref: RunningCouplings, eps0: float):
    if abs(c.Z - 1.0) > eps0 or abs(c.v / ref.v - 1.0) > eps0 or \
            abs(c.v3 / ref.v3 - 1.0) > eps0:
        raise FlowBlowupError(
            f"couplings left the eps0 = {eps0} window at h = {c.h}: "
            f"Z={c.Z:g} v={c.v:g} v3={c.v3:g}")


def run_flow(p: HoppingParams, U: float, inter: InteractionSpec, h_min: int,
             nu0: float = 0.0, n_k: int = 12, eps0: float = 0.5) -> FlowTrajectory:
    """Iterate flow steps from scale 0 down to h_min, keeping every band.

    Regime 1 runs for h > h*; the h* step integrates the bridge band (upper
    regime-1 cutoff, lower two-component cutoff) after which v3 converts to
    the axial velocity v3 sin(p_F) and regime 2 continues per valley down to
    h_min.  r < 0 stops at h* with the remaining infrared integrated in a
    single step and nu_{h*} = 0.  r = 0 stays in regime 1 throughout.
    """
    if h_min > 0:
        raise ValueError("h_min must be <= 0")
    h_star = crossover_scale(p)
    cutoff = default_cutoff(p)
    c = initial_couplings(p, regime=1).replace(nu=nu0)
    ref1 = c
    rows = []
    bands_kept = []
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
            bands = [band_grid(h, 2, om, c, p, cutoff, n=n_k, h_star=h_star)
                     for om in (+1, -1)]
        c_new, rec = flow_step(h, c, bands if tail else _require_support(bands), inter, U, p)
        rows.append(FlowRow(h=h, couplings=c, beta=rec))
        bands_kept.extend(bands)
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
                          v3_crossover=v3_cross, termination=termination, bands=bands_kept)


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
    """(kbar, (m1, m2, m3) s0 / L^3): the k0 moments of A^{-1} extra on the
    grid.  Its ik0 moment, the Hartree trace, is exactly 0 (half filling)."""
    kbar = grid.spatial_momenta()
    m = np.stack(mass_vector(*kbar.T, p))
    s0, _ = _matsubara_sums(grid, m[0] ** 2 + m[1] ** 2 + m[2] ** 2, grid.M, extra=extra)
    return kbar, m * s0 / grid.L ** 3


def uv_self_energy(kk_abs, p: HoppingParams, inter: InteractionSpec, U: float,
                   grid: GridSpec) -> np.ndarray:
    """One-loop self-energy of the region above scale 0: weight (1 - chi_0)
    under the 2^M frequency cutoff, by direct quadrature over `grid`.

    The scale-0 flow starts from bare vertices; this helper supplies the
    complementary ultraviolet dressing when a full-support one-loop object is
    needed (e.g. comparing against the full-support velocity integrals).
    """
    kbar, moments = _grid_moments(p, grid, _scale0_weight(p.a0, "uv"))
    return -U * _grid_fock(kbar, moments, inter, kk_abs)


def dressed_inverse(kk_abs, traj: FlowTrajectory, inter: InteractionSpec) -> np.ndarray:
    """A(kk) + nu sigma3 + sigma(kk) with the one loop of every scale the flow
    integrated, matching the counterterm produced by solve_nu; the
    above-scale-0 dressing (uv_self_energy) is not included.
    """
    sig = band_self_energy(kk_abs, traj.bands, inter, traj.U)
    return inverse_propagator(kk_abs, traj.params) + traj.nu0 * SIGMA3 + sig


def dressed_det_scan(traj: FlowTrajectory, inter: InteractionSpec, L: int):
    """|det| of the dressed inverse propagator at k0 = 0 along the k3 axis.

    Returns (k3 grid values, |det| array); the minimizer location is the
    acceptance observable for the counterterm fixed point.
    """
    k3s = 2.0 * np.pi * np.arange(L) / L
    dets = np.empty(L)
    for i, k3 in enumerate(k3s):
        d = dressed_inverse((0.0, 0.0, 0.0, k3), traj, inter)
        dets[i] = abs(np.linalg.det(d))
    return k3s, dets


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
    with zero weight at every point of `grid` (the "ir" split misses coarse
    grids entirely) raises QuadratureError rather than returning zeros.
    """
    wp = weyl_points(p)
    if wp is None:
        raise ValueError("asymptotic constants need semimetal parameters")
    if support not in ("full", "ir", "uv"):
        raise ValueError("support must be full, ir or uv")
    kbar, moments = _grid_moments(p, grid, None if support == "full" else
                                  _scale0_weight(p.a0, support))
    if not moments.any():
        raise QuadratureError(f"no point of the L={grid.L}, beta={grid.beta:g} grid carries "
                              f"{support} weight")
    loc = localize_kernel(lambda kk: -_grid_fock(kbar, moments, inter, kk), regime=2,
                          point=(0.0, 0.0, 0.0, wp.p_F), spacing=delta)
    return -loc.b3_h, loc.bplus_h  # basis -sin k3' at +p_F


def relativistic_form(kkprime, omega: int, Z: float, v: float, v3: float) -> np.ndarray:
    """Inverse of the linearized matrix at couplings (Z, v, v3), valley omega."""
    k0, k1, k2, k3p = kkprime
    kp, km = (k1 + k2) / 2.0, (k1 - k2) / 2.0
    mat = (-1j * k0 * ID2 + v * kp * SIGMA1 + v * km * SIGMA2
           - omega * v3 * k3p * SIGMA3)
    return np.linalg.inv(Z * mat)


def dressed_two_point(kkprime, omega: int, traj: FlowTrajectory,
                      inter: InteractionSpec):
    """Relativistic form at the final couplings plus the measured remainder.

    Returns (S_rel, remainder_ratio, bound, within) where remainder_ratio =
    ||S_rel^{-1} S_dressed - 1|| and bound = |kk'| / v30.
    """
    wp = weyl_points(traj.params)
    k0, k1, k2, k3p = kkprime
    norm_kp = math.sqrt(k0 ** 2 + k1 ** 2 + k2 ** 2 + k3p ** 2)
    bound = norm_kp / wp.v30
    c = traj.final
    s_rel = relativistic_form(kkprime, omega, c.Z, c.v, c.v3)
    kk_abs = (k0, k1, k2, k3p + omega * wp.p_F)
    s_num = np.linalg.inv(dressed_inverse(kk_abs, traj, inter))
    ratio = float(np.linalg.norm(np.linalg.solve(s_rel, s_num) - ID2, 2))
    return s_rel, ratio, bound, ratio <= bound
