"""Non-interacting tight-binding layer: Bloch matrix, dispersion, phases, Weyl points.

The model lives on two interpenetrating cubic sublattices with planar
nearest-neighbor hopping t, inter-layer hopping t_perp, next-nearest-neighbor
hopping t_prime and a sublattice offset mu.  All energies are in natural units
(hoppings O(1)); momenta are raw triples in [0, 2pi).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def pauli(f, f0=None):
    """f0 I + f1 sigma1 + f2 sigma2 + f3 sigma3, f = (f1, f2, f3): every 2x2 from its
    components, which broadcast, shape S -> S + (2, 2); f0 = None adds no I term."""
    f1, f2, f3 = (np.asarray(x)[..., None, None] for x in f)
    m = f1 * SIGMA1 + f2 * SIGMA2 + f3 * SIGMA3
    return m if f0 is None else np.asarray(f0)[..., None, None] * ID2 + m


def _orbit_key(f12, f3):
    """Orbit columns of a box under k1 -> -k1, k2 -> -k2, k1 <-> k2, k3 -> -k3, where
    lambda^2 is constant, from its axes' fold maps f12, f3 (index -> that of {k, -k}'s
    representative, its own fold): key, each point's column, and axis indices (i1, i2,
    i3) of one point per column; column (hi(hi+1)/2 + lo)(F3+1) + f3 is (hi, lo, f3)."""
    hi, lo = np.maximum.outer(f12, f12), np.minimum.outer(f12, f12)
    key = (hi * (hi + 1) // 2 + lo)[:, :, None] * (f3.max() + 1) + f3
    pair, i3 = np.divmod(np.arange(key.max() + 1), f3.max() + 1)
    i1, i2 = (i[pair] for i in np.tril_indices(f12.max() + 1))
    return key, (i1, i2, i3)


#: |  |mu - t'|/t_perp - 1 | below this counts as the critical boundary.
CRITICAL_TOL = 1e-12


class PhaseLabel(enum.Enum):
    SEMIMETAL = "semimetal"
    INSULATOR = "insulator"
    CRITICAL = "critical"


class ParameterError(ValueError):
    """Raised when hopping parameters violate the admissibility conditions."""


@dataclass(frozen=True)
class HoppingParams:
    """Validated model couplings plus the distance-to-criticality r.

    r is defined through (mu - t_prime)/t_perp = -1 + r, so r = 0 is the
    phase boundary, r > 0 the semimetal side.
    """

    t: float
    t_perp: float
    t_prime: float
    mu: float
    U: float = 0.0
    kappa: float = 1.0

    @property
    def r(self) -> float:
        return (self.mu - self.t_prime) / self.t_perp + 1.0

    @property
    def a0(self) -> float:
        # infrared cutoff unit used by the multiscale decomposition
        return self.t_perp / 10.0


def build_params(t, t_perp, t_prime, *, r=None, mu=None, U=0.0, kappa=1.0) -> HoppingParams:
    """Validate couplings and return HoppingParams; pass exactly one of r, mu.

    Rejects parameters outside mu + t' > 2 t_perp or |mu - t'|/t_perp >= 3/2.
    When r is given the latter is tested on r itself (-1/2 < r < 5/2), and the
    rounded mu is stepped inward by ulps until the stored r is inside as well;
    a stored r off by more than 1e-12 (tiny t_perp: mu rounds) is rejected.
    |r| > 1/2 (the requested r if given) is admissible but warns (outside the window
    where r was introduced, still inside the analyticity hypotheses).
    """
    if not all(0.0 < x < math.inf for x in (t, t_perp, t_prime)):
        raise ParameterError("hoppings t, t_perp, t_prime must be positive and finite")
    if kappa <= 0:
        raise ParameterError("interaction range kappa must be positive")
    if (r is None) == (mu is None):
        raise ParameterError("pass exactly one of r or mu")
    if r is not None:
        if not -0.5 < r < 2.5:
            raise ParameterError(f"r = {r:g} is outside the theorem window (-1/2, 5/2)")
        mu = t_prime + t_perp * (-1.0 + r)
        # the rounded mu can put the stored r on an edge: step it inward by ulps
        while not -0.5 < (mu - t_prime) / t_perp + 1.0 < 2.5:
            mu = math.nextafter(mu, math.inf if r < 1.0 else -math.inf)
    if not mu + t_prime > 2.0 * t_perp:
        raise ParameterError(
            f"mu + t_prime = {mu + t_prime:g} must exceed 2*t_perp = {2 * t_perp:g}"
        )
    if r is None and abs(mu - t_prime) / t_perp >= 1.5:
        raise ParameterError(
            f"|mu - t_prime|/t_perp = {abs(mu - t_prime) / t_perp:g} is outside the "
            "theorem window (< 3/2)"
        )
    p = HoppingParams(t=float(t), t_perp=float(t_perp), t_prime=float(t_prime),
                      mu=float(mu), U=float(U), kappa=float(kappa))
    if r is not None and not abs(p.r - r) <= 1e-12:  # tiny t_perp: mu rounds
        raise ParameterError(f"r = {r:g} is stored as r = {p.r:.17g} at t_perp = {t_perp:g}")
    r = p.r if r is None else r  # a requested r, not its rounded stored value
    if abs(r) > 0.5 + 1e-15:
        warnings.warn(f"|r| = {abs(r):g} > 1/2: outside the narrow crossover window", stacklevel=2)
    return p


def mass_vector(k1, k2, k3, p: HoppingParams, v=None, v3=None, regime: int = 1,
                omega: int = 1):
    """(m1, m2, m3) of the reference matrix m.sigma; broadcasts over arrays.

    m1 = v sin k+, m2 = v sin k-, and with E(kbar) = t'(1 - cos k+ cos k-)

      regime 1:  m3 = v3 (cos k3 - 1 + r) + E(kbar),
      regime 2:  m3 = -omega v3 sin k3' + t_perp cos p_F (cos k3' - 1) + E(kbar),

    where regime 2 takes k3 = k3' relative to the Weyl point omega p_F.  v and
    v3 default to the bare t and t_perp, where the regime-1 vector is the Bloch
    vector; regime 2 is the same vector when v3 = t_perp sin p_F.
    """
    v = p.t if v is None else v
    v3 = p.t_perp if v3 is None else v3
    k1 = np.asarray(k1, float)
    kp, km = (k1 + k2) / 2.0, (k1 - k2) / 2.0
    E = p.t_prime * (1.0 - np.cos(kp) * np.cos(km))
    k3 = np.asarray(k3, float)
    if regime == 1:
        m3 = v3 * (np.cos(k3) - 1.0 + p.r) + E
    else:
        wp = weyl_points(p)
        if wp is None:
            raise ValueError("regime-2 mass vector needs semimetal parameters")
        m3 = p.t_perp * math.cos(wp.p_F) * (np.cos(k3) - 1.0) + E  # E'
        m3 += -omega * v3 * np.sin(k3)  # in place on a box; a + b is b + a, bit for bit
    return v * np.sin(kp), v * np.sin(km), m3


def band_energy(k0, m):
    """sqrt(k0^2 + lambda^2) with lambda^2 = |m|^2, i.e. |det(-i k0 I + m.sigma)|^(1/2).

    k0 broadcasts against the mass arrays m = (m1, m2, m3); scalars give a float.
    """
    m1, m2, m3 = m
    e = np.sqrt(np.asarray(k0, float) ** 2 + (m1 ** 2 + m2 ** 2 + m3 ** 2))
    return e if e.ndim else float(e)


def bloch_matrix(k, p: HoppingParams) -> np.ndarray:
    """Hermitian 2x2 Bloch matrix m.sigma of the bare mass vector."""
    return pauli(mass_vector(*k, p))


def dispersion(k, p: HoppingParams):
    """Positive band energy lambda(k); accepts scalars or broadcastable arrays."""
    return band_energy(0.0, mass_vector(*k, p))


def classify_phase(p: HoppingParams) -> PhaseLabel:
    ratio = abs(p.mu - p.t_prime) / p.t_perp
    if abs(ratio - 1.0) < CRITICAL_TOL:
        return PhaseLabel.CRITICAL
    return PhaseLabel.SEMIMETAL if ratio < 1.0 else PhaseLabel.INSULATOR


@dataclass(frozen=True)
class WeylPointData:
    """Gap-closing momenta (0, 0, +-p_F) and the two Fermi velocities."""

    p_F: float
    v0: float
    v30: float
    degenerate: bool = False


def weyl_points(p: HoppingParams) -> WeylPointData | None:
    """Weyl-point data in the semimetal phase, None in the insulator.

    At the critical point the two points merge at p_F = 0 and the axial
    velocity vanishes; the result is flagged degenerate.
    """
    phase = classify_phase(p)
    if phase is PhaseLabel.INSULATOR:
        return None
    c = (p.t_prime - p.mu) / p.t_perp
    p_F = float(np.arccos(np.clip(c, -1.0, 1.0)))
    v30 = p.t_perp * float(np.sin(p_F))
    return WeylPointData(p_F=p_F, v0=p.t, v30=v30,
                         degenerate=phase is PhaseLabel.CRITICAL)
