"""Monte-Carlo bench for the interference experiment.

Each simulated shot draws a fringe phase (the quantum shot-to-shot
fluctuation, normal with variance xi^2/N), samples atom positions from the
one-body density 1 + nu cos(kx + phase) by rejection, bins them, and fits
the phase back by least squares, which over whole fringe periods is a
closed-form Fourier projection of the histogram.  The sample variance of
the fitted phase over many shots is compared against the closed-form
sensitivity prediction, and can be set against the least-squares and
Cramer-Rao reference variances (Pezze et al., Rev. Mod. Phys. 90, 035005
(2018)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .witnesses import sensitivity

__all__ = [
    "FringeParams",
    "FitResult",
    "SensitivityResult",
    "density",
    "sample_shot",
    "draw_shot_phase",
    "fit_phase",
    "verify_sensitivity",
    "least_squares_variance",
    "cramer_rao_variance",
]

TWO_PI = 2.0 * math.pi

MIN_FIT_POSITIONS = 100
# relative tolerance on window * k / (2 pi) being a whole number of periods
WHOLE_PERIODS_RTOL = 1e-9


@dataclass(frozen=True)
class FringeParams:
    nu: float
    phi: float
    k: float
    n_atoms: int
    n_periods: int = 8

    def __post_init__(self):
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError("nu must lie in [0, 1]")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if self.k <= 0:
            raise ValueError("k must be positive")

    @property
    def window(self) -> float:
        return self.n_periods * TWO_PI / self.k


@dataclass(frozen=True)
class FitResult:
    phi_est: float
    nu_fit: float
    residual: float


@dataclass(frozen=True)
class SensitivityResult:
    empirical_variance: float
    predicted_variance: float
    mean_deviation: float
    std_error: float
    n_shots: int
    # always 0: the projection fit has no failure mode; kept for the report
    n_failed: int


def density(x, nu: float, phi: float, k: float):
    """One-body fringe density 1 + nu cos(kx + phi) (mean 1 per period)."""
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must lie in [0, 1]")
    return 1.0 + nu * np.cos(k * np.asarray(x) + phi)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _rejection_sample(params: FringeParams, shot_phase: float, rng):
    """Rejection sampling with the flat envelope 1 + nu; returns the
    accepted positions (in draw order) and the number of proposals used."""
    window = params.window
    envelope = 1.0 + params.nu
    out = np.empty(params.n_atoms)
    filled = 0
    proposed = 0
    # batch size chosen so one or two rounds usually suffice
    batch = max(64, int(1.3 * envelope * params.n_atoms))
    while filled < params.n_atoms:
        x = rng.uniform(0.0, window, batch)
        u = rng.uniform(0.0, envelope, batch)
        accepted = x[u < density(x, params.nu, shot_phase, params.k)]
        proposed += batch
        take = min(len(accepted), params.n_atoms - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out, proposed


def sample_shot(params: FringeParams, shot_phase: float, rng_seed) -> np.ndarray:
    """Atom positions of one shot, i.i.d. draws from the fringe density.

    Deterministic for a given seed (or Generator) and parameter set.
    """
    positions, _ = _rejection_sample(params, shot_phase, _as_rng(rng_seed))
    return positions


def draw_shot_phase(phi: float, xi2: float, n_atoms: int, rng_seed) -> float:
    """True phase plus the quantum fluctuation, normal with variance
    xi^2 / n_atoms."""
    if xi2 < 0:
        raise ValueError("xi2 must be >= 0")
    if xi2 == 0:
        return phi
    return phi + _as_rng(rng_seed).normal(0.0, math.sqrt(xi2 / n_atoms))


def _bin_positions(positions: np.ndarray, k: float, window: float):
    periods = window * k / TWO_PI
    n_periods = round(periods)
    if n_periods < 1 or abs(periods - n_periods) > WHOLE_PERIODS_RTOL * periods:
        raise ValueError(
            f"window holds {periods!r} periods; the fit needs a whole number"
        )
    bins_per_period = math.ceil(math.sqrt(len(positions)))
    n_bins = n_periods * bins_per_period
    counts, edges = np.histogram(positions, bins=n_bins, range=(0.0, window))
    centers = 0.5 * (edges[:-1] + edges[1:])
    # normalize to mean 1 so the histogram matches the model background
    h = counts * (n_bins / len(positions))
    return centers, h


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    w = -((-np.asarray(phi) + math.pi) % TWO_PI - math.pi)
    return float(w) if np.ndim(phi) == 0 else w


def fit_phase(
    positions: np.ndarray,
    k: float,
    window: float,
    fit_visibility: bool = True,
    nu_fixed: float = None,
) -> FitResult:
    """Least-squares fit of 1 + nu cos(kx + phi) to the binned histogram.

    The model is linear in (nu cos phi, nu sin phi), and over whole periods
    the cos kx and sin kx bin columns are orthogonal with squared norm M/2
    (M bins), so the least-squares solution is the Fourier projection
    c = (2/M) sum (h-1) cos kx, s = (2/M) sum (h-1) sin kx, giving
    phi = atan2(-s, c) and nu = hypot(c, s).  With ``fit_visibility`` off
    the contrast is held at ``nu_fixed``; over whole periods that does not
    move the optimal phase.  The projection has no failure mode.  The window
    must hold a whole number of periods (``ValueError`` otherwise).
    """
    positions = np.asarray(positions)
    if len(positions) < MIN_FIT_POSITIONS:
        raise ValueError(f"need at least {MIN_FIT_POSITIONS} positions to fit")
    if not fit_visibility and nu_fixed is None:
        raise ValueError("nu_fixed required when fit_visibility is off")
    centers, h = _bin_positions(positions, k, window)
    kx = k * centers
    excess = h - 1.0
    c = 2.0 / len(h) * np.dot(excess, np.cos(kx))
    s = 2.0 / len(h) * np.dot(excess, np.sin(kx))
    phi = math.atan2(-s, c)
    nu = math.hypot(c, s) if fit_visibility else float(nu_fixed)
    r = nu * np.cos(kx + phi) - excess
    return FitResult(phi_est=wrap_phase(phi), nu_fit=nu, residual=float(np.dot(r, r)))


def verify_sensitivity(
    params: FringeParams,
    xi2: float,
    n_shots: int,
    rng_seed,
    fit_visibility: bool = True,
) -> SensitivityResult:
    """Run the full bench and compare the empirical phase variance with the
    closed-form prediction (xi^2 + sqrt(1-nu^2)/nu^2) / N.

    Shots use independent child seeds derived from the master seed, so runs
    are reproducible and order-independent.
    """
    if not 0.2 < params.nu < 0.98:
        raise ValueError("nu outside the fit-regime guard (0.2, 0.98)")
    if n_shots < 1000:
        raise ValueError("need at least 1000 shots")

    children = np.random.SeedSequence(rng_seed).spawn(n_shots)
    deviations = []
    for child in children:
        rng = np.random.default_rng(child)
        shot_phase = draw_shot_phase(params.phi, xi2, params.n_atoms, rng)
        positions = sample_shot(params, shot_phase, rng)
        fit = fit_phase(
            positions,
            params.k,
            params.window,
            fit_visibility=fit_visibility,
            nu_fixed=None if fit_visibility else params.nu,
        )
        deviations.append(wrap_phase(fit.phi_est - params.phi))

    dev = np.asarray(deviations)
    empirical = float(np.var(dev, ddof=1))
    predicted = sensitivity(xi2, params.nu, params.n_atoms)
    return SensitivityResult(
        empirical_variance=empirical,
        predicted_variance=predicted,
        mean_deviation=float(dev.mean()),
        std_error=float(dev.std(ddof=1) / math.sqrt(len(dev))),
        n_shots=n_shots,
        n_failed=0,
    )


def least_squares_variance(xi2: float, nu: float, n_atoms: int) -> float:
    """Large-N phase variance of the binned least-squares fit,
    (xi^2 + 2/nu^2) / N."""
    return (xi2 + 2.0 / nu ** 2) / n_atoms


def cramer_rao_variance(xi2: float, nu: float, n_atoms: int) -> float:
    """Cramer-Rao bound for unbiased phase estimates from N positions drawn
    from 1 + nu cos(kx + phi), plus the shot-phase spread:
    (xi^2 + 1/(1 - sqrt(1-nu^2))) / N, with 1/(1 - sqrt(1-nu^2)) written as
    (1 + sqrt(1-nu^2))/nu^2 to avoid cancellation at small nu."""
    return (xi2 + (1.0 + math.sqrt(1.0 - nu * nu)) / nu ** 2) / n_atoms
