"""Monte-Carlo bench for the interference experiment.

Each simulated shot draws a fringe phase (the quantum shot-to-shot
fluctuation, normal with variance xi^2/N) and the histogram of N atoms
from the one-body density 1 + nu cos(kx + phase), then fits the phase back
by least squares, which over whole fringe periods is a closed-form Fourier
projection of the histogram (``fit_counts``, the one fit).  The projection
reads only the histogram folded onto one period, and given the shot phase
the N positions are i.i.d., so that fold is exactly one multinomial draw
over one period's bins; no position is sampled.  The sample variance of the
fitted phase is compared against the closed-form sensitivity prediction and
the least-squares and Cramer-Rao reference variances (Pezze et al., Rev.
Mod. Phys. 90, 035005 (2018)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin_core import _is_integer
from .witnesses import _require_nu_range, sensitivity

__all__ = [
    "FringeParams",
    "SensitivityResult",
    "draw_shot_phase",
    "wrap_phase",
    "bin_probabilities",
    "sample_counts",
    "fit_counts",
    "verify_sensitivity",
    "least_squares_variance",
    "cramer_rao_variance",
]

TWO_PI = 2.0 * math.pi

# shots per multinomial draw and projection in verify_sensitivity; results do
# not depend on it, and small chunks keep the (shots x bins) arrays small
SHOT_CHUNK = 64


@dataclass(frozen=True)
class FringeParams:
    nu: float
    phi: float
    k: float
    n_atoms: int
    n_periods: int = 8

    def __post_init__(self):
        _require_nu_range(self.nu)
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"k must be finite and positive, got {self.k!r}")
        for name in ("n_atoms", "n_periods"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def window(self) -> float:
        return self.n_periods * TWO_PI / self.k


@dataclass(frozen=True)
class SensitivityResult:
    empirical_variance: float
    predicted_variance: float
    mean_deviation: float
    std_error: float
    n_shots: int


def draw_shot_phase(phi: float, xi2: float, n_atoms: int, rng_seed, size=None):
    """True phase plus the quantum fluctuation, normal with variance
    xi^2 / n_atoms; with ``size`` an array of that many shot phases."""
    _require_xi2(xi2)
    if xi2 == 0:
        return phi if size is None else np.full(size, float(phi))
    return phi + np.random.default_rng(rng_seed).normal(
        0.0, math.sqrt(xi2 / n_atoms), size
    )


def _require_xi2(xi2) -> None:
    if not (math.isfinite(xi2) and xi2 >= 0):
        raise ValueError(f"xi2 must be finite and >= 0, got {xi2!r}")


def _require_bench_ranges(params: FringeParams, xi2, n_shots) -> None:
    """The ranges the bench runs in, one check for ``verify_sensitivity`` and
    for every command's "mc" block: nu in the fit-regime guard (0.2, 0.98),
    phi in [-pi, pi] (far outside, shot noise drowns in phi's rounding),
    n_atoms >= 5 (see ``fit_counts``), n_shots an integer >= 1000, xi2 finite >= 0."""
    if not 0.2 < params.nu < 0.98:
        raise ValueError("nu outside the fit-regime guard (0.2, 0.98)")
    if not -math.pi <= params.phi <= math.pi:
        raise ValueError(f"phi must lie in [-pi, pi], got {params.phi!r}")
    if params.n_atoms < 5:  # ceil(sqrt(N)) >= 3 bins a period
        raise ValueError(f"n_atoms must be >= 5, got {params.n_atoms!r}")
    if not _is_integer(n_shots) or n_shots < 1000:
        raise ValueError(f"n_shots must be an integer >= 1000, got {n_shots!r}")
    _require_xi2(xi2)


def _bin_layout(params: FringeParams) -> np.ndarray:
    """The fit's bins for ``params``, n_periods * ceil(sqrt(N)) equal bins
    over the window, as the (2, M) array [cos kx_c, sin kx_c] at the bin
    centres.  The window holds n_periods whole periods by construction."""
    n_bins = params.n_periods * math.ceil(math.sqrt(params.n_atoms))
    # the edges np.histogram uses for range=(0, window), so positions bin alike
    edges = np.linspace(0.0, params.window, n_bins + 1)
    kx = params.k * (0.5 * (edges[:-1] + edges[1:]))
    return np.stack([np.cos(kx), np.sin(kx)])


def _project(counts, n_atoms: int, waves: np.ndarray) -> np.ndarray:
    """Fourier components (c, s) = (2/M) (h - 1) . waves of the mean-1
    histogram(s) h of ``counts`` (bins on the last axis).

    The products are summed along each row rather than by a matrix product:
    BLAS picks its kernel by shape, so the last bits of a matmul depend on
    how many histograms share the call.
    """
    n_bins = waves.shape[1]
    excess = counts * (n_bins / n_atoms) - 1.0
    return (excess[..., None, :] * waves).sum(axis=-1) * (2.0 / n_bins)


def wrap_phase(phi):
    """Wrap to (-pi, pi]."""
    w = -((-np.asarray(phi) + math.pi) % TWO_PI - math.pi)
    return float(w) if np.ndim(phi) == 0 else w


def bin_probabilities(params: FringeParams, shot_phases, waves: np.ndarray):
    """Probability that an atom lands in each fit bin, one row per shot phase.

    Integrating 1 + nu cos(kx + phase) over bin b = [x_b, x_b+1] of width dx
    in a window W gives
    p_b = (dx + (nu/k) [sin(k x_b+1 + phase) - sin(k x_b + phase)]) / W,
    computed without the difference of sines as
    p_b = (1 + nu sinc(k dx/2) cos(k x_c + phase)) / M at the bin centre x_c.
    ``waves`` is the layout of the fit's bins for ``params``.
    """
    n_bins = waves.shape[1]
    half = math.pi * params.n_periods / n_bins  # k dx / 2
    smeared = params.nu * math.sin(half) / half
    phase = np.asarray(shot_phases)[..., None]  # cos(kx_c + phase): one row per phase
    return (1.0 + smeared * (np.cos(phase) * waves[0] - np.sin(phase) * waves[1])) / n_bins


def sample_counts(params: FringeParams, shot_phases, waves: np.ndarray, rng):
    """Bin counts of one shot per phase.  The N positions of a shot are
    i.i.d. given its phase, so its counts are exactly one Multinomial(N, p)
    draw with p from ``bin_probabilities``."""
    p = bin_probabilities(params, shot_phases, waves)
    return rng.multinomial(params.n_atoms, p)


def fit_counts(counts, n_atoms: int, waves: np.ndarray) -> np.ndarray:
    """Least-squares phase of each row of bin counts, the bench's one fit.

    The model 1 + nu cos(kx + phi) is linear in (nu cos phi, nu sin phi).
    Over whole periods of at least 3 bins each (the precondition: with 1 or 2
    one column vanishes) the cos kx and sin kx bin columns are orthogonal with
    squared norm M/2 (M bins), so the least-squares solution is the Fourier
    projection (c, s) of ``_project``, with phi = atan2(-s, c) and
    nu = hypot(c, s).  Holding nu fixed does not move the optimal phase, and
    the projection has no failure mode.
    """
    cs = _project(counts, n_atoms, waves)
    return np.arctan2(-cs[..., 1], cs[..., 0])


def verify_sensitivity(
    params: FringeParams, xi2: float, n_shots: int, rng_seed
) -> SensitivityResult:
    """Run the full bench and compare the empirical phase variance with the
    closed-form prediction (xi^2 + sqrt(1-nu^2)/nu^2) / N.

    The fit's columns repeat every period, so it reads only the counts folded
    onto one period's bins, which are one Multinomial(N, n_periods p) draw:
    shots are drawn and fitted on those bins, and no bit depends on n_periods.
    One generator seeded with ``rng_seed`` draws all shot phases, then the
    counts in shot order, ``SHOT_CHUNK`` shots per call: chunks move nothing.
    """
    _require_bench_ranges(params, xi2, n_shots)
    rng = np.random.default_rng(rng_seed)
    phases = draw_shot_phase(params.phi, xi2, params.n_atoms, rng, size=n_shots)
    period = replace(params, n_periods=1)
    waves = _bin_layout(period)
    fitted = [
        fit_counts(sample_counts(period, chunk, waves, rng), params.n_atoms, waves)
        for chunk in np.split(phases, range(SHOT_CHUNK, n_shots, SHOT_CHUNK))
    ]
    dev = wrap_phase(np.concatenate(fitted) - params.phi)
    return SensitivityResult(
        empirical_variance=float(np.var(dev, ddof=1)),
        predicted_variance=sensitivity(xi2, params.nu, params.n_atoms),
        mean_deviation=float(dev.mean()),
        std_error=float(dev.std(ddof=1) / math.sqrt(len(dev))),
        n_shots=n_shots,
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
