"""Collective-spin states in the Dicke basis and their first/second moments.

All states live in the maximal-spin manifold j = N/2 of N two-mode bosons
and carry real coefficients, which is sufficient here because the Josephson
Hamiltonian is real symmetric in the Jz eigenbasis.  With real coefficients
<Jy> vanishes identically, so moments are characterized by five numbers.
N alone fixes the ladder m = -j ... j and its J+/- elements: ``_ladder(N)``
computes them once per N, and a state's N is its coefficient count minus one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpinState",
    "StateEnsemble",
    "Moments",
    "moment_table",
    "compute_moments",
    "ensemble_moments",
    "rotate_pi2_about_x",
]

NORM_TOL = 1e-9
# Columns per block (ensemble_moments, the residual guard): ~0.5 MB each at N = 1000.
MOMENT_BLOCK = 64


@dataclass(frozen=True)
class SpinState:
    """Real coefficients psi_m over the Dicke ladder m = -j ... j of the
    N = len(coeffs) - 1 particles."""

    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("a spin state needs N + 1 >= 2 coefficients")


@dataclass(frozen=True)
class StateEnsemble:
    """Convex mixture of SpinStates (all of one N)."""

    states: tuple
    weights: np.ndarray

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("empty ensemble")
        if len(self.states) != len(self.weights):
            raise ValueError("weights do not match states")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("negative ensemble weight")
        if not abs(w.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("ensemble weights must sum to 1")


@dataclass(frozen=True)
class Moments:
    """First and second collective-spin moments (hbar = 1)."""

    jx: float
    jy: float
    jz: float
    jx2: float
    jy2: float
    jz2: float


def _is_integer(value) -> bool:
    """An integral number that is not a bool (the rule for every count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@lru_cache(maxsize=8, typed=True)  # typed: True and 2.0 must not hit 1 and 2
def _ladder(n_particles: int) -> tuple[np.ndarray, ...]:
    """Read-only Dicke ladder of N particles, computed once per N: m = -j ...
    j (j = N/2), the c_m = <m+1| J+ |m> / 2 for m < j, the products
    c_m c_(m+1), and m^2."""
    if not _is_integer(n_particles):
        raise TypeError("particle count must be an integer")
    if n_particles < 1:
        raise ValueError("particle count must be >= 1")
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    c = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    arrays = (m, c, c[:-1] * c[1:], m * m)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def moment_table(vectors: np.ndarray) -> np.ndarray:
    """Spin moments of every column of a block of normalized real states,
    O(N) per column.

    Returns a K x 6 table whose rows are (<Jx>, <Jy>, <Jz>, <Jx^2>, <Jy^2>,
    <Jz^2>) for the K columns of the (N+1) x K block, N >= 1, in the field
    order of ``Moments``.  Uses the J+/J- decomposition: the one-step couplings c_m
    give <Jx>, the two-step couplings c_m c_{m+1} give the anisotropy between
    <Jx^2> and <Jy^2> on top of the isotropic part <J^2 - Jz^2>/2.
    """
    psi = np.asarray(vectors, dtype=float)
    weight = psi * psi
    norm2 = weight.sum(axis=0)
    off = np.abs(norm2 - 1.0)
    if not off.max() <= NORM_TOL:  # NaN fails too
        worst = float(norm2[off.argmax()])
        raise ValueError(f"state not normalized: |psi|^2 = {worst!r}")
    n = len(psi) - 1
    m, c, c_pairs, m_squared = _ladder(n)
    j = n / 2.0

    table = np.zeros((6, psi.shape[1]))  # one row per Moments field; <Jy> = 0
    # <Jz> summed over +-m pairs, so a state of definite parity gives 0 exactly
    half = len(m) // 2
    table[2] = m[-half:] @ (weight[-half:] - weight[:half][::-1])
    jz2 = m_squared @ weight
    del weight  # before the two product temporaries
    table[0] = 2.0 * (c @ (psi[:-1] * psi[1:]))
    # <J+^2> = <J-^2> = 4 sum_m c_m c_{m+1} psi_m psi_{m+2}
    two_step = c_pairs @ (psi[:-2] * psi[2:])
    iso = 0.5 * (j * (j + 1) - jz2)
    table[3] = iso + 2.0 * two_step
    table[4] = iso - 2.0 * two_step
    table[5] = jz2
    return table.T


def compute_moments(state: SpinState) -> Moments:
    """Spin moments of a normalized real-coefficient state (one-column
    ``moment_table``)."""
    return Moments(*moment_table(np.asarray(state.coeffs)[:, None])[0].tolist())


def ensemble_moments(ensemble: StateEnsemble) -> Moments:
    """Weight-averaged moments; moments are linear in the density matrix.
    Blocks of ``MOMENT_BLOCK`` states keep the working memory flat."""
    weights = np.asarray(ensemble.weights, dtype=float)
    total = np.zeros(6)
    for lo in range(0, len(weights), MOMENT_BLOCK):
        chunk = slice(lo, lo + MOMENT_BLOCK)
        block = np.column_stack([st.coeffs for st in ensemble.states[chunk]])
        total += weights[chunk] @ moment_table(block)
    return Moments(*total)


def rotate_pi2_about_x(moments: Moments) -> Moments:
    """Moments after the exact rotation exp(-i (pi/2) Jx).

    Remaps (Jy, Jz) -> (-Jz, Jy) and swaps the corresponding second moments,
    turning number-squeezing into phase-squeezing.  Jx moments are untouched.
    """
    return Moments(
        jx=moments.jx,
        jy=-moments.jz,
        jz=moments.jy,
        jx2=moments.jx2,
        jy2=moments.jz2,
        jz2=moments.jy2,
    )
