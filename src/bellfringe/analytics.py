"""Closed-form large-N predictions used as dashed-line references and as
oracles for the exact-diagonalization engine.

Three regimes of the interaction parameter lam:
  * repulsive, lam >= 0: number-squeezed ground state, xi^2 = 1/sqrt(1+lam)
    after the pi/2 rotation, nu = 1;
  * attractive paramagnetic, -1 < lam <= 0: xi^2 = sqrt(1+lam), nu = 1;
  * attractive ferromagnetic, -(1+sqrt(5))/2 < lam < -1: cat-like doublet,
    xi^2 = |lam| sqrt(lam^2-1), nu = 1/|lam|.
The approximations break down in a window around lam = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .witnesses import bell_witness, param_a

__all__ = [
    "SemiclassicalPrediction",
    "semiclassical_ab",
    "thermal_xi2",
    "bell_thresholds",
    "analytic_boundary_temperature",
    "analytic_boundary_sigma",
    "FERRO_EDGE",
    "BREAKDOWN_HALF_WIDTH",
]

# Lower end of the cat regime and of the phase-squeezing interval.
FERRO_EDGE = -(1.0 + math.sqrt(5.0)) / 2.0
# Exclusion window around the second-order transition at lam = -1.
BREAKDOWN_HALF_WIDTH = 0.02


@dataclass(frozen=True)
class SemiclassicalPrediction:
    regime: str
    xi2: float
    nu: float
    a_param: float
    b_param: float


def semiclassical_ab(lam: float) -> SemiclassicalPrediction:
    """Large-N closed forms for (xi^2, nu, a, b) in the three regimes."""
    if lam <= FERRO_EDGE:
        raise ValueError(f"lam = {lam} outside the validity range")
    if abs(lam + 1.0) < BREAKDOWN_HALF_WIDTH:
        raise ValueError(
            f"lam = {lam} inside the breakdown window around the transition"
        )
    regime, xi2, _ = _branch(lam)
    nu = 1.0 / abs(lam) if regime == "attractive_ferro" else 1.0
    return SemiclassicalPrediction(
        regime=regime,
        xi2=xi2,
        nu=nu,
        a_param=param_a(xi2, nu),
        b_param=bell_witness(xi2, nu),
    )


def _branch(lam: float) -> tuple[str, float, float]:
    """(regime, zero-temperature xi^2, mode frequency) of the closed forms."""
    if not math.isfinite(lam):
        raise ValueError(f"lam = {lam} must be finite")
    if lam == -1.0:
        raise ValueError("lam = -1 lies on the branch boundary")
    if lam < -1.0:
        omega = math.sqrt(lam * lam - 1.0)
        return "attractive_ferro", abs(lam) * omega, omega
    omega = math.sqrt(1.0 + lam)
    if lam < 0.0:
        return "attractive_para", omega, omega
    return "repulsive", 1.0 / omega, omega


def thermal_xi2(lam: float, temperature: float) -> float:
    """Finite-temperature squeezing xi0^2 * coth(beta * omega / 2)."""
    if not 0 <= temperature < math.inf:  # NaN fails too
        raise ValueError("temperature must be nonnegative and finite")
    _, xi0, omega = _branch(lam)
    if temperature == 0:
        return xi0
    return xi0 / math.tanh(0.5 * omega / temperature)


def bell_thresholds() -> tuple[float, float, float]:
    """Interaction strengths where the noiseless witness crosses zero."""
    return (-0.75, -3.0 / (2.0 * math.sqrt(2.0)), 3.0)


def analytic_boundary_temperature(lam: float) -> float:
    """Temperature at which the witness crosses zero (nu = 1, no blur).

    xi0^2 coth(omega / 2T) = 1/2 gives T* = omega / (2 artanh(2 xi0^2));
    requires the zero-temperature witness to be negative.
    """
    _, xi0, omega = _branch(lam)
    if xi0 >= 0.5:
        raise ValueError("witness is nonnegative already at T = 0")
    return omega / (2.0 * math.atanh(2.0 * xi0))


def analytic_boundary_sigma(lam: float, k_fringe: float) -> float:
    """Detector blur at which the zero-temperature witness crosses zero.

    xi0^2 + (sqrt(1-v^2)-1)/(2 v^2) = 0 gives v^2 = 1 - (1/(2 xi0^2) - 1)^2,
    and v = exp(-k^2 s^2 / 2) gives s* = sqrt(-ln v^2) / k.  A root requires
    1/4 < xi0^2 < 1/2: above 1/2 the witness is never negative, below 1/4 it
    stays negative at any blur.
    """
    if not 0 < k_fringe < math.inf:  # NaN fails too
        raise ValueError("k_fringe must be positive and finite")
    _, xi0, _ = _branch(lam)
    if xi0 >= 0.5:
        raise ValueError("witness is nonnegative already at sigma = 0")
    if xi0 <= 0.25:
        raise ValueError("witness stays negative for any blur")
    # log1p keeps -ln v^2 accurate when v^2 is close to 1 (xi0^2 near 1/2)
    return math.sqrt(-math.log1p(-((0.5 / xi0 - 1.0) ** 2))) / k_fringe
