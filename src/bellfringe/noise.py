"""Noise channels: tilt fluctuations, finite temperature, detector blur.

Gaussian shot-to-shot fluctuations of the well imbalance delta turn the
ground state into a mixture of tilted ground states.  The Gaussian weight
is discretized by a quadrature split at delta = 0: on the attractive side
the ground state crosses over abruptly between the two wells around zero
tilt, so moments are effectively discontinuous there and a global rule
(Gauss-Hermite) converges only at first order.  Gauss-Legendre panels on
each half-axis with Gaussian weights restore spectral convergence; a
node-doubling check guards every mixture.  Each level solves its
positive-tilt ground states as one checked block and reduces it to a K x 6
moment table; the mirrored half follows in closed form, since parity flips
<Jz> and keeps the other moments.  Finite detector resolution acts
on the fitted density only, multiplying the visibility by exp(-k^2 s^2 / 2)
while leaving the squeezing of the source state untouched.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .josephson import ConvergenceError, ModelParams, ground_state, ground_states
from .josephson import thermal_ensemble
from .spin_core import Moments, SpinState, StateEnsemble, build_basis, compute_moments
from .spin_core import moment_table

__all__ = [
    "QuadratureRule",
    "split_gaussian_rule",
    "delta_mixture",
    "delta_mixture_moments",
    "delta_thermal_mixture",
    "blur_visibility",
    "DEFAULT_QUAD_ORDER",
    "MAX_QUAD_ORDER",
]

DEFAULT_QUAD_ORDER = 41
MAX_QUAD_ORDER = 641
CONVERGENCE_RTOL = 1e-6
CONVERGENCE_ATOL = 1e-12
# Gaussian support kept per half-axis, in units of sigma; the truncated
# tail weight (~1e-15) is absorbed by renormalization.
GAUSSIAN_SPAN = 8.0


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=16)
def _legendre(half_order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(half_order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def split_gaussian_rule(half_order: int, sigma: float) -> QuadratureRule:
    """Quadrature for a centered Gaussian of standard deviation ``sigma``,
    split at zero: a Gauss-Legendre panel on each half-axis with the
    Gaussian folded into the weights (unit sum).  Nodes are strictly
    nonzero and symmetric about the origin."""
    x, w = _legendre(operator.index(half_order))
    d = 0.5 * GAUSSIAN_SPAN * sigma * (x + 1.0)
    gw = w * np.exp(-0.5 * (d / sigma) ** 2)
    nodes = np.concatenate([-d[::-1], d])
    weights = np.concatenate([gw[::-1], gw])
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum())


# a node and its parity mirror contribute these multiples of the node's row
MIRROR_PAIR = np.array([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])


def _level(basis, lam: float, sigma_delta: float, order: int):
    """One quadrature level: its rule, the ground states at its positive
    nodes (columns) and the six mixture moments."""
    half = (order + 1) // 2
    rule = split_gaussian_rule(half, sigma_delta)
    _, vectors = ground_states(basis.n_particles, lam, rule.nodes[half:])
    table = moment_table(basis, vectors)
    return rule, vectors, (rule.weights[half:] @ table) * MIRROR_PAIR


def _converged_level(n_particles, lam, sigma_delta, order, check):
    """The level node doubling settles on (see ``delta_mixture``), or None
    for sigma_delta = 0, the pure ground state."""
    if sigma_delta < 0:
        raise ValueError("sigma_delta must be nonnegative")
    if order < 1 or order % 2 == 0:
        raise ValueError("quadrature order must be a positive odd integer")
    if check and order < 3:  # doubling order 1 gives order 1 again
        raise ValueError("the node-doubling check needs quadrature order >= 3")
    if sigma_delta == 0:
        return None
    basis = build_basis(n_particles)
    level = _level(basis, lam, sigma_delta, order)
    while check:
        doubled = 2 * order - 1
        finer = _level(basis, lam, sigma_delta, doubled)
        drift = np.abs(level[2] - finer[2])
        if np.all(drift <= CONVERGENCE_ATOL + CONVERGENCE_RTOL * np.abs(finer[2])):
            return finer
        if doubled >= MAX_QUAD_ORDER:
            raise ConvergenceError(
                f"delta mixture not converged at quadrature order {doubled} "
                f"(lam={lam}, sigma_delta={sigma_delta})"
            )
        order, level = doubled, finer
    return level


def delta_mixture_moments(n_particles: int, lam: float, sigma_delta: float) -> Moments:
    """Moments of ``delta_mixture`` at its default order, with the node-doubling
    check, reduced level by level without building the mixture's states."""
    level = _converged_level(n_particles, lam, sigma_delta, DEFAULT_QUAD_ORDER, True)
    if level is None:
        return compute_moments(ground_state(ModelParams(n_particles, lam, 0.0))[1])
    return Moments(*level[2])


def delta_mixture(
    n_particles: int,
    lam: float,
    sigma_delta: float,
    order: int = DEFAULT_QUAD_ORDER,
    check: bool = True,
) -> StateEnsemble:
    """Mixture of tilted ground states under Gaussian delta fluctuations.

    Split-at-zero Gaussian quadrature of the given (odd) total order; only
    positive-tilt ground states are solved, the negative half follows from
    parity.  With ``check`` on, a node-doubling comparison guards the
    discretization: the order is doubled until every ensemble moment is
    stable to 1e-6 relative, and a mixture that is still drifting at the
    order cap raises ConvergenceError.
    """
    level = _converged_level(n_particles, lam, sigma_delta, order, check)
    if level is None:  # the pure ground state
        return thermal_ensemble(ModelParams(n_particles, lam, 0.0), 0.0)
    rule, vectors, _ = level
    # rows: the mirrored states at the negative nodes, then the positive ones
    rows = np.vstack([vectors.T[::-1, ::-1], vectors.T])
    basis = build_basis(n_particles)
    return StateEnsemble(tuple(SpinState(basis, row) for row in rows), rule.weights)


def delta_thermal_mixture(
    n_particles: int,
    lam: float,
    sigma_delta: float,
    temperature: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> StateEnsemble:
    """Composition of tilt fluctuations with a thermal state: a Boltzmann
    ensemble at every quadrature node.  This combined channel is an
    extension beyond the single-axis noise scans."""
    if sigma_delta == 0:
        return thermal_ensemble(ModelParams(n_particles, lam, 0.0), temperature)
    if temperature == 0:
        return delta_mixture(n_particles, lam, sigma_delta, order=order, check=False)
    half = (order + 1) // 2
    rule = split_gaussian_rule(half, sigma_delta)
    states, weights = [], []
    for delta, w in zip(rule.nodes[half:], rule.weights[half:]):
        ens = thermal_ensemble(ModelParams(n_particles, lam, delta), temperature)
        # H(-delta) = P H(delta) P with P the m -> -m parity: the spectrum at
        # -delta is the same and its eigenstates are the reversed vectors
        mirrored = (SpinState(st.basis, st.coeffs[::-1].copy()) for st in ens.states)
        states += [*ens.states, *mirrored]
        weights += [w * ens.weights] * 2
    return StateEnsemble(tuple(states), np.concatenate(weights))


def blur_visibility(nu: float, k_fringe: float, sigma_detector: float) -> float:
    """Visibility after Gaussian detector blur: nu * exp(-k^2 s^2 / 2)."""
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must lie in [0, 1]")
    return nu * math.exp(-0.5 * (k_fringe * sigma_detector) ** 2)
