"""Visibility, squeezing, phase sensitivity and the Bell-correlation witness.

Everything here is a pure function of collective-spin moments.  The witness
comes in two forms: the closed-form intensive expression b = xi^2 +
(sqrt(1-nu^2)-1)/(2 nu^2), and the exact minimum of the extensive two-body
Bell expectation over the rotation angle theta, a quadratic in cos(theta/2).
The two differ by a positive state-dependent factor and share only their sign.
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
    if not nu <= 1.0 + NU_ROUNDING_SLACK:  # NaN fails too
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
    return (xi2 + _fringe_root(nu) / nu ** 2) / n_particles


def param_a(xi2: float, nu: float) -> float:
    """a = N var(phi_est) - 1; negative iff the sensitivity beats shot noise."""
    return xi2 + (_fringe_root(nu) - nu * nu) / nu ** 2


def bell_witness(xi2: float, nu: float) -> float:
    """b = xi^2 + (sqrt(1-nu^2) - 1) / (2 nu^2); negative witnesses Bell
    correlations."""
    return xi2 + (_fringe_root(nu) - 1.0) / (2.0 * nu ** 2)


def fringe_factor(nu: float) -> float:
    """f(nu) = 1 - (sqrt(1-nu^2) + 1) / (2 nu^2), linking b = a + f(nu)."""
    return 1.0 - (_fringe_root(nu) + 1.0) / (2.0 * nu ** 2)


def bell_theta(n_particles: int, jx: float, jy2: float, theta: float) -> float:
    """Two-body Bell expectation at rotation angle theta (extensive, ~N)."""
    c = math.cos(theta / 2.0)
    return 2.0 * n_particles * c * c - 4.0 * jx * c + 8.0 * (1.0 - c * c) * jy2


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


def minimize_bell_direct(n_particles: int, moments: Moments) -> tuple[float, float]:
    """Exact minimum of bell_theta over theta in [0, pi]; (theta_star, b_min).

    In c = cos(theta/2) on [0, 1], bell_theta is the quadratic
    (2N - 8<Jy^2>) c^2 - 4<Jx> c + 8<Jy^2>.  Where it is convex the minimum
    is at the vertex c = <Jx> / (N - 4<Jy^2>) clipped to [0, 1], else at the
    lower end, theta = 0 on a tie.  Only these coefficients enter, not
    (nu, xi^2), so this is a derivation independent of ``optimal_theta``.
    |<Jx>| is read as at most N/2 by the rule of ``visibility``, so rounding
    cannot push b_min below zero for a coherent state.
    """
    visibility(moments, n_particles)  # raises beyond the rounding slack
    jx = math.copysign(min(abs(moments.jx), 0.5 * n_particles), moments.jx)
    jy2 = moments.jy2
    curvature = n_particles - 4.0 * jy2
    if curvature > 0.0:
        c = min(max(jx / curvature, 0.0), 1.0)
    else:  # the ends: theta = 0 (c = 1) gives 2N - 4<Jx>, theta = pi gives 8<Jy^2>
        c = 1.0 if 2.0 * n_particles - 4.0 * jx <= 8.0 * jy2 else 0.0
    theta_star = 2.0 * math.acos(c)
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
        _require_visibility(self.nu)
        if not abs(self.b_param - self.a_param - fringe_factor(self.nu)) <= IDENTITY_TOL:
            raise ValueError("witness/sensitivity identity violated")
        if not abs(self.var_phi - (self.a_param + 1.0) / self.n_particles) <= 1e-12:
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


def _require_nu_range(nu: float):
    """ValueError unless the visibility ``nu`` lies in [0, 1]."""
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must lie in [0, 1]")


def _require_visibility(nu: float):
    if not 0.0 < nu <= 1.0:
        raise VisibilityError(f"nu = {nu!r} outside (0, 1]")


def _fringe_root(nu: float) -> float:
    """sqrt(1 - nu^2) of a visibility nu in (0, 1], VisibilityError otherwise."""
    _require_visibility(nu)
    return math.sqrt(max(1.0 - nu * nu, 0.0))
