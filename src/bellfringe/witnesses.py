"""Visibility, squeezing, phase sensitivity and the Bell-correlation witness.

Everything here is a pure function of collective-spin moments.  The witness
comes in two forms: the closed-form intensive expression b = xi^2 +
(sqrt(1-nu^2)-1)/(2 nu^2), and a direct numerical minimization of the
extensive two-body Bell expectation over the rotation angle theta.  The two
differ by a positive state-dependent factor and share only their sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import Moments, rotate_pi2_about_x

__all__ = [
    "VisibilityError",
    "WitnessReport",
    "visibility",
    "phase_squeezing",
    "sensitivity",
    "param_a",
    "bell_theta",
    "optimal_theta",
    "bell_witness",
    "fringe_factor",
    "minimize_bell_direct",
    "build_report",
    "report_from_moments",
]

IDENTITY_TOL = 1e-10
# Rounding excess of 2|<Jx>|/N over 1 that still counts as nu = 1: 32 ulp of
# 1.0.  The coherent state (lam = 0) reaches up to 8 ulp over N = 1..5000;
# a real defect, such as a state off unit norm by NORM_TOL, is far larger.
NU_ROUNDING_SLACK = 32 * np.finfo(float).eps


class VisibilityError(ValueError):
    """Raised when nu = 0 makes the fit-based quantities undefined."""


def visibility(moments: Moments, n_particles: int) -> float:
    """Fringe contrast nu = 2 |<Jx>| / N, in [0, 1]; an excess over 1 of at
    most ``NU_ROUNDING_SLACK`` is rounding and reads as 1, a larger one raises
    VisibilityError."""
    nu = float(2.0 * abs(moments.jx) / n_particles)
    if nu > 1.0 + NU_ROUNDING_SLACK:
        raise VisibilityError(f"nu = {nu!r} outside (0, 1]")
    return min(nu, 1.0)


def phase_squeezing(moments: Moments, n_particles: int) -> float:
    """Spin-squeezing parameter xi^2 = N <Jy^2> / <Jx>^2."""
    if moments.jx == 0:
        raise VisibilityError("phase squeezing undefined for <Jx> = 0")
    return n_particles * moments.jy2 / moments.jx ** 2


def sensitivity(xi2: float, nu: float, n_particles: int) -> float:
    """Phase variance of the least-squares fringe fit:
    (xi^2 + sqrt(1-nu^2)/nu^2) / N."""
    _require_visibility(nu)
    return (xi2 + math.sqrt(max(1.0 - nu * nu, 0.0)) / nu ** 2) / n_particles


def param_a(xi2: float, nu: float) -> float:
    """a = N var(phi_est) - 1; negative iff the sensitivity beats shot noise."""
    _require_visibility(nu)
    s = math.sqrt(max(1.0 - nu * nu, 0.0))
    return xi2 + (s - nu * nu) / nu ** 2


def bell_witness(xi2: float, nu: float) -> float:
    """b = xi^2 + (sqrt(1-nu^2) - 1) / (2 nu^2); negative witnesses Bell
    correlations."""
    _require_visibility(nu)
    s = math.sqrt(max(1.0 - nu * nu, 0.0))
    return xi2 + (s - 1.0) / (2.0 * nu ** 2)


def fringe_factor(nu: float) -> float:
    """f(nu) = 1 - (sqrt(1-nu^2) + 1) / (2 nu^2), linking b = a + f(nu)."""
    _require_visibility(nu)
    s = math.sqrt(max(1.0 - nu * nu, 0.0))
    return 1.0 - (s + 1.0) / (2.0 * nu ** 2)


def bell_theta(n_particles: int, jx: float, jy2: float, theta) -> float:
    """Two-body Bell expectation at rotation angle theta (extensive, ~N)."""
    c = np.cos(np.asarray(theta) / 2.0)
    val = 2.0 * n_particles * c * c - 4.0 * jx * c + 8.0 * (1.0 - c * c) * jy2
    return float(val) if np.isscalar(theta) or np.ndim(theta) == 0 else val


def optimal_theta(nu: float, xi2: float) -> tuple[float, bool]:
    """Analytic minimizer cos(theta0/2) = nu / (2 (1 - xi^2 nu^2)).

    Returns (theta0, interior).  When the interior condition fails the
    minimum sits at the theta = 0 boundary and interior is False.
    """
    _require_visibility(nu)
    denom = 1.0 - xi2 * nu * nu
    if denom <= 0.0:
        return 0.0, False
    rhs = nu / (2.0 * denom)
    if rhs > 1.0:
        return 0.0, False
    return 2.0 * math.acos(rhs), True


def minimize_bell_direct(
    n_particles: int, moments: Moments, grid_points: int = 1024, tol: float = 1e-10
) -> tuple[float, float]:
    """Numerical minimum of bell_theta over theta in [0, pi].

    Coarse grid scan followed by golden-section refinement of the bracketing
    interval.  Returns (theta_star, b_min).
    """
    jx, jy2 = moments.jx, moments.jy2
    thetas = np.linspace(0.0, math.pi, grid_points)
    values = bell_theta(n_particles, jx, jy2, thetas)
    i = int(np.argmin(values))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, grid_points - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = bell_theta(n_particles, jx, jy2, x1)
    f2 = bell_theta(n_particles, jx, jy2, x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = bell_theta(n_particles, jx, jy2, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = bell_theta(n_particles, jx, jy2, x2)
    theta_star = 0.5 * (a + b)
    return theta_star, bell_theta(n_particles, jx, jy2, theta_star)


@dataclass(frozen=True)
class WitnessReport:
    """All fit-derived quantities for one state, plus validity flags."""

    n_particles: int
    nu: float
    xi2: float
    var_phi: float
    a_param: float
    b_param: float
    theta0: float
    interior_minimum: bool
    rotated: bool

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise VisibilityError(f"nu = {self.nu!r} outside (0, 1]")
        if abs(self.b_param - self.a_param - fringe_factor(self.nu)) > IDENTITY_TOL:
            raise ValueError("witness/sensitivity identity violated")
        if abs(self.var_phi - (self.a_param + 1.0) / self.n_particles) > 1e-12:
            raise ValueError("var_phi inconsistent with a_param")


def build_report(
    xi2: float, nu: float, n_particles: int, rotated: bool = False
) -> WitnessReport:
    """Assemble a WitnessReport from (xi^2, nu); nu may be a blurred value."""
    theta0, interior = optimal_theta(nu, xi2)
    return WitnessReport(
        n_particles=n_particles,
        nu=nu,
        xi2=xi2,
        var_phi=sensitivity(xi2, nu, n_particles),
        a_param=param_a(xi2, nu),
        b_param=bell_witness(xi2, nu),
        theta0=theta0,
        interior_minimum=interior,
        rotated=rotated,
    )


def report_from_moments(
    moments: Moments, n_particles: int, apply_rotation: bool = False
) -> WitnessReport:
    """Report for a state given its moments.

    ``apply_rotation`` performs the pi/2 rotation about x first (used for
    repulsive interactions, where the ground state is number-squeezed).
    """
    if apply_rotation:
        moments = rotate_pi2_about_x(moments)
    nu = visibility(moments, n_particles)
    if nu == 0.0:
        raise VisibilityError("nu = 0: no fringes to fit")
    xi2 = phase_squeezing(moments, n_particles)
    return build_report(xi2, nu, n_particles, rotated=apply_rotation)


def _require_visibility(nu: float):
    if not 0.0 < nu <= 1.0:
        raise VisibilityError(f"nu = {nu!r} outside (0, 1]")
