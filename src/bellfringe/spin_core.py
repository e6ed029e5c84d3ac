"""Collective-spin states in the Dicke basis and their first/second moments.

All states live in the maximal-spin manifold j = N/2 of N two-mode bosons
and carry real coefficients, which is sufficient here because the Josephson
Hamiltonian is real symmetric in the Jz eigenbasis.  With real coefficients
<Jy> vanishes identically, so moments are characterized by five numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DickeBasis",
    "SpinState",
    "StateEnsemble",
    "Moments",
    "build_basis",
    "ladder_coefficient",
    "moment_table",
    "compute_moments",
    "ensemble_moments",
    "rotate_pi2_about_x",
]

NORM_TOL = 1e-9
# States per block in ensemble_moments: ~0.5 MB per temporary at N = 1000.
MOMENT_BLOCK = 64


@dataclass(frozen=True)
class DickeBasis:
    """Labeling of the |j, m> ladder for N particles, m = -j ... +j."""

    n_particles: int
    j: float
    m_values: np.ndarray

    def __post_init__(self):
        if len(self.m_values) != self.n_particles + 1:
            raise ValueError("m_values must have length N+1")


@dataclass(frozen=True)
class SpinState:
    """Real coefficient vector over the Dicke ladder of its basis."""

    basis: DickeBasis
    coeffs: np.ndarray

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis.m_values):
            raise ValueError("coefficient vector does not match basis size")


@dataclass(frozen=True)
class StateEnsemble:
    """Convex mixture of SpinStates (all sharing one basis)."""

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
        if abs(w.sum() - 1.0) > 1e-12:
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


def build_basis(n_particles: int) -> DickeBasis:
    """Dicke ladder for ``n_particles`` bosons: j = N/2, m = -j, ..., +j."""
    if not isinstance(n_particles, (int, np.integer)) or isinstance(n_particles, bool):
        raise TypeError("particle count must be an integer")
    if n_particles < 1:
        raise ValueError("particle count must be >= 1")
    j = n_particles / 2.0
    m_values = np.arange(n_particles + 1) - j
    return DickeBasis(int(n_particles), j, m_values)


def ladder_coefficient(basis: DickeBasis, m: float) -> float:
    """Off-diagonal Jx matrix element c_m = sqrt(j(j+1) - m(m+1)) / 2.

    Couples |j, m> and |j, m+1>; both must lie inside the ladder.
    """
    j = basis.j
    if m < -j - 1e-12 or m + 1 > j + 1e-12:
        raise ValueError(f"m={m} out of range for j={j}")
    return 0.5 * np.sqrt(j * (j + 1) - m * (m + 1))


def _ladder_array(basis: DickeBasis) -> np.ndarray:
    # c_m for m = -j ... j-1, vector of length N
    m = basis.m_values[:-1]
    j = basis.j
    return 0.5 * np.sqrt(j * (j + 1) - m * (m + 1))


def moment_table(basis: DickeBasis, vectors: np.ndarray) -> np.ndarray:
    """Spin moments of every column of a block of normalized real states,
    O(N) per column.

    Returns a K x 6 table whose rows are (<Jx>, <Jy>, <Jz>, <Jx^2>, <Jy^2>,
    <Jz^2>) for the K columns of the (N+1) x K block, in the field order of
    ``Moments``.  Uses the J+/J- decomposition: the one-step couplings c_m
    give <Jx>, the two-step couplings c_m c_{m+1} give the anisotropy between
    <Jx^2> and <Jy^2> on top of the isotropic part <J^2 - Jz^2>/2.
    """
    psi = np.asarray(vectors, dtype=float)
    weight = psi * psi
    norm2 = weight.sum(axis=0)
    off = np.abs(norm2 - 1.0)
    if off.max() > NORM_TOL:
        worst = float(norm2[off.argmax()])
        raise ValueError(f"state not normalized: |psi|^2 = {worst!r}")
    m = basis.m_values
    j = basis.j
    c = _ladder_array(basis)

    table = np.zeros((6, psi.shape[1]))  # one row per Moments field; <Jy> = 0
    table[0] = 2.0 * (c @ (psi[:-1] * psi[1:]))
    table[2] = m @ weight
    jz2 = (m * m) @ weight
    # <J+^2> = <J-^2> = 4 sum_m c_m c_{m+1} psi_m psi_{m+2}
    two_step = (c[:-1] * c[1:]) @ (psi[:-2] * psi[2:])
    iso = 0.5 * (j * (j + 1) - jz2)
    table[3] = iso + 2.0 * two_step
    table[4] = iso - 2.0 * two_step
    table[5] = jz2
    return table.T


def compute_moments(state: SpinState) -> Moments:
    """Spin moments of a normalized real-coefficient state (one-column
    ``moment_table``)."""
    column = np.asarray(state.coeffs)[:, None]
    return Moments(*moment_table(state.basis, column)[0].tolist())


def ensemble_moments(ensemble: StateEnsemble) -> Moments:
    """Weight-averaged moments; moments are linear in the density matrix.
    Blocks of ``MOMENT_BLOCK`` states keep the working memory flat."""
    basis = ensemble.states[0].basis
    weights = np.asarray(ensemble.weights, dtype=float)
    total = np.zeros(6)
    for lo in range(0, len(weights), MOMENT_BLOCK):
        chunk = slice(lo, lo + MOMENT_BLOCK)
        block = np.column_stack([st.coeffs for st in ensemble.states[chunk]])
        total += weights[chunk] @ moment_table(basis, block)
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
