"""Noise channels: tilt fluctuations, finite temperature, detector blur.

Gaussian shot-to-shot fluctuations of the well imbalance delta turn the
ground state into a mixture of tilted ground states.  On the attractive
side the ground state crosses over abruptly between the wells around zero
tilt, where global and Gauss-Legendre rules converge only algebraically.
So the mixture is split at delta = 0, and each half-axis gets an exp-sinh
panel x = sigma exp(pi/2 sinh t), t equispaced on [-4, 1.2], whose nodes
crowd double-exponentially into zero (Takahasi & Mori, Publ. RIMS 9, 721
(1974)).  The sigma_delta of a lambda column share the widest one's panel:
its ground states are solved once into a K x 6 moment table, which each
sigma_delta contracts with its own Gaussian weights; the mirrored half
follows by parity, which flips <Jz> and keeps the other moments.  Halving
the t-step keeps every node, so node doubling solves only the new ones.
Detector blur multiplies the visibility by exp(-k^2 s^2 / 2) and
leaves the squeezing of the source state untouched.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .josephson import ConvergenceError, ModelParams, ground_states
from .josephson import thermal_ensemble
from .spin_core import Moments, SpinState, StateEnsemble, _is_integer
from .spin_core import moment_table
from .witnesses import _require_nu_range

__all__ = [
    "QuadratureRule",
    "split_gaussian_rule",
    "delta_mixture",
    "delta_column_moments",
    "delta_thermal_mixture",
    "blur_visibility",
    "DEFAULT_QUAD_ORDER",
    "MAX_QUAD_ORDER",
]

DEFAULT_QUAD_ORDER = 41
MAX_QUAD_ORDER = 641
CONVERGENCE_RTOL = 1e-6
CONVERGENCE_ATOL = 1e-12
# A sigma_delta shares the panel of a larger one only down to this fraction
# of it: the narrower a Gaussian against the panel, the fewer nodes resolve
# it, and at 1e-4 a mixture that passed the doubling check was 9e-9 off.
MIN_SHARED_SIGMA_RATIO = 1e-3


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def _panel(half: int, scale: float, sigmas) -> tuple[np.ndarray, np.ndarray]:
    """Exp-sinh panel of ``half`` points on the positive half-axis: the
    nodes scale * exp(pi/2 sinh t), t equispaced on [-4, 1.2], and one row
    of weights per sigma for a centered Gaussian of that standard deviation,
    which sum to 1 with the mirrored half.  Each node is computed alone by
    scalar libm calls, so it depends on its t only: the ``half`` nodes are
    bit for bit every other node of the ``2 * half - 1`` panel."""
    x, dxdt = np.empty(half), np.empty(half)
    for k, t in enumerate(np.linspace(-4.0, 1.2, half)):
        x[k] = math.exp(0.5 * math.pi * math.sinh(t))
        dxdt[k] = x[k] * math.cosh(t)  # up to a common factor
    nodes = scale * x
    w = dxdt * np.exp(-0.5 * (nodes / np.reshape(sigmas, (-1, 1))) ** 2)
    return nodes, w / (2.0 * w.sum(axis=1, keepdims=True))


def split_gaussian_rule(half_order: int, sigma: float) -> QuadratureRule:
    """Quadrature for a centered Gaussian of standard deviation ``sigma``,
    split at zero: an exp-sinh panel of ``half_order`` points on each
    half-axis, out to 10.7 standard deviations, with the Gaussian folded
    into the weights (unit sum).  Nodes are strictly nonzero and symmetric
    about the origin, the positive half last."""
    if not 0 < sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma_delta must be positive and finite, got {sigma}")
    if operator.index(half_order) < 1:
        raise ValueError(f"half_order must be >= 1, got {half_order}")
    d, (w,) = _panel(half_order, sigma, [sigma])
    return QuadratureRule(np.concatenate([-d[::-1], d]), np.concatenate([w[::-1], w]))


# a node and its parity mirror contribute these multiples of the node's row
MIRROR_PAIR = np.array([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])


def _settled(result):
    """``result``, or raise it if it is the error its solve ended in."""
    if isinstance(result, Exception):
        raise result
    return result


def _check_mixture(sigma_delta: float, order: int) -> None:
    """The one check of a tilt mixture's width and quadrature order."""
    if not 0 <= sigma_delta < math.inf:  # NaN fails too
        raise ValueError(f"sigma_delta must be nonnegative and finite, got {sigma_delta}")
    if not (_is_integer(order) and order >= 1 and order % 2 == 1):
        raise ValueError(f"quadrature order must be a positive odd integer, got {order!r}")


def _tilt_column(n_particles: int, lam: float, sigmas, order: int, check: bool):
    """The panel of (order + 1) / 2 points, for an odd order its caller has
    checked, on the positive ``sigmas`` of one lambda, scaled by the widest.
    With ``check`` on, its t-step is halved until each sigma's moments are
    stable between two levels.  Returns the ground states at the nodes
    (columns) and per sigma its moments, or the ConvergenceError at the cap."""
    if check and order < 3:  # doubling order 1 gives order 1 again
        raise ValueError("the node-doubling check needs quadrature order >= 3")
    nodes, weights = _panel((order + 1) // 2, max(sigmas), sigmas)
    states = ground_states(n_particles, lam, nodes)[1]
    moments = (weights @ moment_table(states)) * MIRROR_PAIR
    drifting = np.full(len(sigmas), check)
    while drifting.any():
        order = 2 * order - 1
        nodes, weights = _panel((order + 1) // 2, max(sigmas), sigmas)
        # the coarse nodes are nodes[::2]: the new ones go in between
        new = ground_states(n_particles, lam, nodes[1::2])[1]
        states = np.insert(states, np.arange(1, states.shape[1]), new, axis=1)
        finer = (weights @ moment_table(states)) * MIRROR_PAIR
        tol = CONVERGENCE_ATOL + CONVERGENCE_RTOL * np.abs(finer)
        drifting &= ~np.all(np.abs(moments - finer) <= tol, axis=1)
        moments = finer
        if order >= MAX_QUAD_ORDER:
            break
    return states, [
        ConvergenceError(f"delta mixture not converged at quadrature order {order} "
                         f"(lam={lam}, sigma_delta={sigma})") if failed else Moments(*row)
        for sigma, row, failed in zip(sigmas, moments, drifting)
    ]


def delta_column_moments(n_particles: int, lam: float, sigmas) -> list:
    """Moments of the tilt mixture at each positive sigma_delta of ``sigmas``
    for one lambda, checked by node doubling on one shared panel (within
    ``MIN_SHARED_SIGMA_RATIO``).  A sigma still drifting at ``MAX_QUAD_ORDER``
    gets its ConvergenceError, and every sigma of a solve that raised gets
    the exception in place of its moments."""
    if not all(0 < s < math.inf for s in sigmas):  # NaN fails too
        raise ValueError(f"sigma_delta must be positive and finite, got {list(sigmas)}")
    found, left = {}, sorted(set(sigmas), reverse=True)
    while left:
        group = [s for s in left if s >= MIN_SHARED_SIGMA_RATIO * left[0]]
        left = left[len(group):]
        try:
            results = _tilt_column(n_particles, lam, group, DEFAULT_QUAD_ORDER, True)[1]
        except Exception as exc:  # fails only the rows of this group
            results = [exc] * len(group)
        found.update(zip(group, results))
    return [found[s] for s in sigmas]


def delta_mixture(
    n_particles: int,
    lam: float,
    sigma_delta: float,
    order: int = DEFAULT_QUAD_ORDER,
    check: bool = True,
) -> StateEnsemble:
    """Mixture of tilted ground states under Gaussian delta fluctuations.

    Split-at-zero exp-sinh quadrature of the given (odd) total order, with
    (order + 1) / 2 nodes per half-axis; only positive-tilt ground states
    are solved, the negative half follows from parity.  With ``check`` on, a
    node-doubling comparison guards the discretization: the order is
    doubled until every ensemble moment is stable to 1e-6 relative, and a
    mixture that is still drifting at the order cap raises ConvergenceError.
    """
    _check_mixture(sigma_delta, order)
    if sigma_delta == 0:  # the pure ground state
        return thermal_ensemble(ModelParams(n_particles, lam, 0.0), 0.0)
    states, (moments,) = _tilt_column(n_particles, lam, [sigma_delta], order, check)
    _settled(moments)
    # the negative nodes, outermost first, hold reversed views of the positive ones
    mirrored = [SpinState(v[::-1]) for v in states.T[::-1]]
    rule = split_gaussian_rule(states.shape[1], sigma_delta)
    return StateEnsemble((*mirrored, *map(SpinState, states.T)), rule.weights)


def delta_thermal_mixture(
    n_particles: int,
    lam: float,
    sigma_delta: float,
    temperature: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> StateEnsemble:
    """Composition of tilt fluctuations with a thermal state: a Boltzmann
    ensemble at every quadrature node, at T = 0 the nodes' ground states.
    An extension beyond the single-axis noise scans."""
    _check_mixture(sigma_delta, order)
    if sigma_delta == 0:
        return thermal_ensemble(ModelParams(n_particles, lam, 0.0), temperature)
    nodes, (node_weights,) = _panel((order + 1) // 2, sigma_delta, [sigma_delta])
    states, weights = [], []
    for delta, w in zip(nodes, node_weights):
        ens = thermal_ensemble(ModelParams(n_particles, lam, delta), temperature)
        # H(-delta) = P H(delta) P with P the m -> -m parity: the spectrum at
        # -delta is the same and its eigenstates are the reversed vectors
        mirrored = (SpinState(st.coeffs[::-1]) for st in ens.states)
        states += [*ens.states, *mirrored]
        weights += [w * ens.weights] * 2
    return StateEnsemble(tuple(states), np.concatenate(weights))


def blur_visibility(nu: float, k_fringe: float, sigma_detector: float) -> float:
    """Visibility after Gaussian detector blur: nu * exp(-k^2 s^2 / 2)."""
    _require_nu_range(nu)
    return nu * math.exp(-0.5 * (k_fringe * sigma_detector) ** 2)
