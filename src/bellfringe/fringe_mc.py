"""Monte-Carlo bench for the interference experiment.

Each simulated shot draws a fringe phase (the quantum shot-to-shot
fluctuation, normal with variance xi^2/N), bins N atoms from the one-body
density 1 + nu cos(kx + phase), and fits the phase back by least squares,
which over whole fringe periods is a closed-form Fourier projection of the
histogram.  The fit reads only the bin counts, and given the shot phase
these follow exactly a multinomial law over the bins, so the bench draws
the counts of each shot directly instead of N positions.  The sample
variance of the fitted phase over many shots is compared against the
closed-form sensitivity prediction, and can be set against the
least-squares and Cramer-Rao reference variances (Pezze et al., Rev. Mod.
Phys. 90, 035005 (2018)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import _is_integer
from .witnesses import _require_nu_range, sensitivity

__all__ = [
    "FringeParams",
    "FitResult",
    "SensitivityResult",
    "density",
    "sample_shot",
    "draw_shot_phase",
    "fit_phase",
    "wrap_phase",
    "bin_probabilities",
    "sample_counts",
    "fit_counts",
    "verify_sensitivity",
    "least_squares_variance",
    "cramer_rao_variance",
]

TWO_PI = 2.0 * math.pi

MIN_FIT_POSITIONS = 100
# relative tolerance on window * k / (2 pi) being a whole number of periods
WHOLE_PERIODS_RTOL = 1e-9
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
    _require_nu_range(nu)
    return 1.0 + nu * np.cos(k * np.asarray(x) + phi)


def sample_shot(params: FringeParams, shot_phase: float, rng_seed) -> np.ndarray:
    """Atom positions of one shot, i.i.d. draws from the fringe density by
    rejection sampling with the flat envelope 1 + nu.

    Deterministic for a given seed (or Generator) and parameter set.
    """
    if not math.isfinite(shot_phase):
        raise ValueError(f"shot_phase must be finite, got {shot_phase!r}")
    rng = np.random.default_rng(rng_seed)
    envelope = 1.0 + params.nu
    out = np.empty(params.n_atoms)
    filled = 0
    # batch size chosen so one or two rounds usually suffice
    batch = max(64, int(1.3 * envelope * params.n_atoms))
    while filled < params.n_atoms:
        x = rng.uniform(0.0, params.window, batch)
        u = rng.uniform(0.0, envelope, batch)
        accepted = x[u < density(x, params.nu, shot_phase, params.k)]
        take = min(len(accepted), params.n_atoms - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def draw_shot_phase(phi: float, xi2: float, n_atoms: int, rng_seed, size=None):
    """True phase plus the quantum fluctuation, normal with variance
    xi^2 / n_atoms; with ``size`` an array of that many shot phases."""
    if not (math.isfinite(xi2) and xi2 >= 0):
        raise ValueError(f"xi2 must be finite and >= 0, got {xi2!r}")
    if xi2 == 0:
        return phi if size is None else np.full(size, float(phi))
    return phi + np.random.default_rng(rng_seed).normal(
        0.0, math.sqrt(xi2 / n_atoms), size
    )


def _bin_layout(k: float, window: float, n_atoms: int) -> np.ndarray:
    """The fit's bins for N atoms, n_periods * ceil(sqrt(N)) equal bins over
    [0, window], as the (2, M) array [cos kx_c, sin kx_c] at the bin centres.
    The window must hold a whole number of periods (``ValueError`` otherwise).
    """
    periods = window * k / TWO_PI
    n_periods = round(periods)
    if n_periods < 1 or abs(periods - n_periods) > WHOLE_PERIODS_RTOL * periods:
        raise ValueError(
            f"window holds {periods!r} periods; the fit needs a whole number"
        )
    # the edges np.histogram uses for range=(0, window)
    edges = np.linspace(0.0, window, n_periods * math.ceil(math.sqrt(n_atoms)) + 1)
    kx = k * (0.5 * (edges[:-1] + edges[1:]))
    return np.stack([np.cos(kx), np.sin(kx)])


def _modulation(waves: np.ndarray, phase) -> np.ndarray:
    """cos(kx_c + phase) at the bin centres, one row per phase."""
    phase = np.asarray(phase)[..., None]
    return np.cos(phase) * waves[0] - np.sin(phase) * waves[1]


def _project(counts, n_atoms: int, waves: np.ndarray):
    """Excess h - 1 of the mean-1 histogram(s) ``counts`` (bins on the last
    axis) and its Fourier components (c, s) = (2/M) (h - 1) . waves.

    The products are summed along each row rather than by a matrix product:
    BLAS picks its kernel by shape, so the last bits of a matmul depend on
    how many histograms share the call.
    """
    n_bins = waves.shape[1]
    excess = counts * (n_bins / n_atoms) - 1.0
    return excess, (excess[..., None, :] * waves).sum(axis=-1) * (2.0 / n_bins)


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
    waves = _bin_layout(k, window, len(positions))
    counts, _ = np.histogram(positions, bins=waves.shape[1], range=(0.0, window))
    excess, (c, s) = _project(counts, len(positions), waves)
    phi = math.atan2(-s, c)
    nu = math.hypot(c, s) if fit_visibility else float(nu_fixed)
    r = nu * _modulation(waves, phi) - excess
    return FitResult(phi_est=wrap_phase(phi), nu_fit=nu, residual=float(np.dot(r, r)))


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
    return (1.0 + smeared * _modulation(waves, shot_phases)) / n_bins


def sample_counts(params: FringeParams, shot_phases, waves: np.ndarray, rng):
    """Bin counts of one shot per phase.  The N positions of a shot are
    i.i.d. given its phase, so its counts are exactly one Multinomial(N, p)
    draw with p from ``bin_probabilities``."""
    p = bin_probabilities(params, shot_phases, waves)
    return rng.multinomial(params.n_atoms, p)


def fit_counts(counts, n_atoms: int, waves: np.ndarray) -> np.ndarray:
    """Fitted phase of each row of bin counts, by the projection that
    ``fit_phase`` applies to one histogram."""
    _, cs = _project(counts, n_atoms, waves)
    return np.arctan2(-cs[..., 1], cs[..., 0])


def verify_sensitivity(
    params: FringeParams, xi2: float, n_shots: int, rng_seed
) -> SensitivityResult:
    """Run the full bench and compare the empirical phase variance with the
    closed-form prediction (xi^2 + sqrt(1-nu^2)/nu^2) / N.

    One generator seeded with ``rng_seed`` draws all ``n_shots`` shot phases
    first, then the multinomial bin counts of the shots in order,
    ``SHOT_CHUNK`` shots per call; each chunk is fitted by one projection.
    The stream is consumed in shot order, so the result depends on the seed
    and not on the chunk size.
    """
    if not 0.2 < params.nu < 0.98:
        raise ValueError("nu outside the fit-regime guard (0.2, 0.98)")
    if not _is_integer(n_shots) or n_shots < 1000:
        raise ValueError(f"n_shots must be an integer >= 1000, got {n_shots!r}")

    rng = np.random.default_rng(rng_seed)
    phases = draw_shot_phase(params.phi, xi2, params.n_atoms, rng, size=n_shots)
    waves = _bin_layout(params.k, params.window, params.n_atoms)
    fitted = [
        fit_counts(sample_counts(params, chunk, waves, rng), params.n_atoms, waves)
        for chunk in np.split(phases, range(SHOT_CHUNK, n_shots, SHOT_CHUNK))
    ]
    dev = wrap_phase(np.concatenate(fitted) - params.phi)
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
