"""Bosonic Josephson junction H = -Jx + (Lambda/N) Jz^2 + delta Jz.

In the Jz eigenbasis the Hamiltonian is a real symmetric tridiagonal matrix;
its diagonal holds the interaction and tilt terms and its off-diagonal the
(negated) Jx ladder elements.  Energies are in units of the Josephson
tunneling energy E_J, temperatures in units of E_J / k_B.

Thermal averages need only the occupied bottom of the spectrum, which
``low_spectrum`` diagonalizes: the states within an energy window of the
ground state, -ln(THERMAL_WEIGHT_CUTOFF) T wide for temperature T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .spin_core import SpinState, StateEnsemble, build_basis

__all__ = [
    "ModelParams",
    "SymTridiag",
    "Spectrum",
    "ConvergenceError",
    "build_hamiltonian",
    "ground_state",
    "full_spectrum",
    "low_spectrum",
    "boltzmann_weights",
    "thermal_ensemble",
    "FULL_SPECTRUM_CAP",
    "THERMAL_WEIGHT_CUTOFF",
]

FULL_SPECTRUM_CAP = 4000

# Relative Boltzmann weight below which a state counts as thermally empty.
THERMAL_WEIGHT_CUTOFF = 1e-16

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8

# Relative tolerance under which eigenvector components tie for the largest
# magnitude (see _fix_signs).
SIGN_TIE_RTOL = 1e-8


class ConvergenceError(RuntimeError):
    """Eigensolver failed to meet the residual/orthonormality tolerances."""


@dataclass(frozen=True)
class ModelParams:
    n_particles: int
    lam: float
    delta: float = 0.0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not (math.isfinite(self.lam) and math.isfinite(self.delta)):
            raise ValueError("lam and delta must be finite")


@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def norm_estimate(self) -> float:
        """Max row sum, an upper bound on the spectral norm."""
        d, e = np.abs(self.diag), np.abs(self.offdiag)
        row = d.copy()
        row[:-1] += e
        row[1:] += e
        return float(row.max())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = self.diag[:, None] * v if v.ndim == 2 else self.diag * v
        if v.ndim == 2:
            w[:-1] += self.offdiag[:, None] * v[1:]
            w[1:] += self.offdiag[:, None] * v[:-1]
        else:
            w[:-1] += self.offdiag * v[1:]
            w[1:] += self.offdiag * v[:-1]
        return w


@dataclass(frozen=True)
class Spectrum:
    params: ModelParams
    energies: np.ndarray
    states: tuple  # of SpinState, ascending in energy


def build_hamiltonian(params: ModelParams) -> SymTridiag:
    """Tridiagonal matrix of the junction Hamiltonian in the Jz basis."""
    basis = build_basis(params.n_particles)
    m = basis.m_values
    j = basis.j
    diag = (params.lam / params.n_particles) * m * m + params.delta * m
    offdiag = -0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    return SymTridiag(diag, offdiag)


def _check_eigenpairs(h: SymTridiag, energies: np.ndarray, vectors: np.ndarray):
    """Residual and orthonormality guards, independent of the backend."""
    norm_h = max(h.norm_estimate, 1e-300)
    resid = h.matvec(vectors) - vectors * energies[None, :]
    worst = np.sqrt((resid * resid).sum(axis=0)).max()
    if worst > RESIDUAL_TOL * norm_h:
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} * |H|"
        )
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    ortho = np.abs(gram).max()
    if ortho > ORTHO_TOL:
        raise ConvergenceError(f"orthonormality defect {ortho:.3e}")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Sign convention, applied in place to every column of the block: the
    largest-|psi_m| component is positive, ties going to the lowest index m.

    Components within a relative ``SIGN_TIE_RTOL`` of the column maximum count
    as tied, so the psi_m = -psi_{-m} pairs of odd-parity states at zero tilt
    resolve the same way whatever rounding the eigensolver left behind.  The
    rule fixes a vector only up to its sign; a degenerate subspace (e.g. the
    ferromagnetic doublet for lam < -1, delta = 0) has no unique basis to fix.
    """
    peak = np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    cutoff = (1.0 - SIGN_TIE_RTOL) * peak
    lead = ((vectors >= cutoff) | (vectors <= -cutoff)).argmax(axis=0)
    lead_values = vectors[lead, np.arange(vectors.shape[1])]
    vectors *= np.where(lead_values < 0, -1.0, 1.0)
    return vectors


def _solve(h: SymTridiag, **select) -> tuple[np.ndarray, np.ndarray]:
    try:
        energies, vectors = eigh_tridiagonal(h.diag, h.offdiag, **select)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise ConvergenceError(str(exc)) from exc
    _check_eigenpairs(h, energies, vectors)
    vectors = _fix_signs(vectors)
    return energies, vectors


def ground_state(params: ModelParams) -> tuple[float, SpinState]:
    """Lowest eigenpair of the junction Hamiltonian.

    The vector follows the sign convention of ``_fix_signs`` (largest-|psi_m|
    component positive, lowest m on ties), so it equals column 0 of
    ``full_spectrum`` whenever the ground level is nondegenerate.  For lam < -1
    at zero tilt the ground doublet is degenerate to rounding at large N: the
    vector is then an eigensolver-dependent mixture of the two parity states
    and only parity-even moments (<Jx>, <Jx^2>, <Jy^2>, <Jz^2>) are defined.
    """
    h = build_hamiltonian(params)
    energies, vectors = _solve(h, select="i", select_range=(0, 0), lapack_driver="stebz")
    basis = build_basis(params.n_particles)
    return float(energies[0]), SpinState(basis, vectors[:, 0])


def full_spectrum(params: ModelParams, cap: int = FULL_SPECTRUM_CAP) -> Spectrum:
    """All N+1 eigenpairs, residual- and orthonormality-checked.

    Every vector follows the sign convention of ``_fix_signs`` (largest-|psi_m|
    component positive, lowest m on ties), so nondegenerate states do not
    depend on the LAPACK driver.  Levels degenerate to rounding, such as the
    ferromagnetic doublets for lam < -1 at zero tilt, are returned as an
    eigensolver-dependent orthonormal basis of their subspace.
    """
    if params.n_particles > cap:
        raise ValueError(
            f"n_particles={params.n_particles} exceeds full-spectrum cap {cap}"
        )
    energies, vectors = _solve(build_hamiltonian(params))
    basis = build_basis(params.n_particles)
    states = tuple(SpinState(basis, vectors[:, k]) for k in range(vectors.shape[1]))
    return Spectrum(params, energies, states)


def low_spectrum(params: ModelParams, energy_window: float):
    """Eigenpairs with E - E0 <= ``energy_window``, ascending in energy.

    Only the window is diagonalized (MRRR, LAPACK ``stemr``), so the residual
    and orthonormality checks cost O(N K^2) for K kept states instead of
    O(N^3); every kept vector follows the sign convention of ``_fix_signs``.
    Returns ``(energies, vectors)`` with the states as columns.
    """
    h = build_hamiltonian(params)
    e0 = eigh_tridiagonal(
        h.diag, h.offdiag, eigvals_only=True, select="i", select_range=(0, 0),
        lapack_driver="stebz",
    )[0]
    # drivers round E0 apart by far less than the residual tolerance; the
    # margin keeps the ground state inside even a zero-width window
    margin = RESIDUAL_TOL * h.norm_estimate
    return _solve(
        h, select="v", select_range=(e0 - margin, e0 + energy_window + margin),
        lapack_driver="stemr",
    )


def boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Unit-sum weights exp(-(E_n - E0) / T) of ascending energies, T > 0."""
    weights = np.exp(-(energies - energies[0]) / temperature)
    return weights / weights.sum()


def thermal_ensemble(
    params: ModelParams,
    temperature: float,
    weight_cutoff: float = THERMAL_WEIGHT_CUTOFF,
) -> StateEnsemble:
    """Boltzmann mixture of eigenstates at k_B T / E_J = ``temperature``.

    Weights are exp(-(E_n - E0) / T), normalized to unit sum, over the
    ``low_spectrum`` window -ln(weight_cutoff) T wide: states whose relative
    weight falls below ``weight_cutoff`` are never diagonalized.  T = 0 is
    the ground state; T = inf is the uniform mixture of the full spectrum
    (capped at ``FULL_SPECTRUM_CAP``).
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        _, gs = ground_state(params)
        return StateEnsemble((gs,), np.array([1.0]))
    if math.isinf(temperature):
        spec = full_spectrum(params)
        n = len(spec.states)
        return StateEnsemble(spec.states, np.full(n, 1.0 / n))

    energies, vectors = low_spectrum(params, -math.log(weight_cutoff) * temperature)
    basis = build_basis(params.n_particles)
    states = tuple(SpinState(basis, vectors[:, k]) for k in range(vectors.shape[1]))
    return StateEnsemble(states, boltzmann_weights(energies, temperature))
