"""Bosonic Josephson junction H = -Jx + (Lambda/N) Jz^2 + delta Jz.

In the Jz eigenbasis the Hamiltonian is a real symmetric tridiagonal matrix;
its diagonal holds the interaction and tilt terms and its off-diagonal the
(negated) Jx ladder elements.  Energies are in units of the Josephson
tunneling energy E_J, temperatures in units of E_J / k_B.

Thermal averages need only the occupied bottom of the spectrum, which
``low_spectrum`` diagonalizes, the one rule for the levels a temperature T
occupies: the states within -ln(THERMAL_WEIGHT_CUTOFF) T of the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dstein

from .spin_core import SpinState, StateEnsemble, _ladder_array, build_basis

__all__ = [
    "ModelParams",
    "SymTridiag",
    "Spectrum",
    "ConvergenceError",
    "build_hamiltonian",
    "ground_state",
    "ground_states",
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
    def norm_estimate(self):
        """Max row sum, an upper bound on the spectral norm: a float, or one
        bound per column for a 2-D ``diag`` (one H per column)."""
        row, e = np.abs(self.diag), np.abs(self.offdiag)
        if row.ndim == 2:
            e = e[:, None]
        row[:-1] += e
        row[1:] += e
        return row.max(axis=0) if row.ndim == 2 else float(row.max())

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for a vector or a block of columns; with a 2-D ``diag``,
        column k of ``v`` meets the H of diag column k."""
        d, e = self.diag, self.offdiag
        if v.ndim == 2:
            d, e = d.reshape(len(d), -1), e[:, None]
        w = d * v
        w[:-1] += e * v[1:]
        w[1:] += e * v[:-1]
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
    diag = (params.lam / params.n_particles) * m * m + params.delta * m
    return SymTridiag(diag, -_ladder_array(basis))  # -Jx


def _check_eigenpairs(h: SymTridiag, energies, vectors, gram: bool = True):
    """Residual and orthonormality guards, independent of the backend.

    Column k is checked against its H (column k of a 2-D ``h.diag``, else
    the one H) and that H's |H| bound.  Eigenvectors of one H must be
    orthonormal (``gram``); ground states of different H need only unit norm.
    """
    resid = h.matvec(vectors) - vectors * energies
    norm_h = np.maximum(h.norm_estimate, 1e-300)
    worst = (np.sqrt((resid * resid).sum(axis=0)) / norm_h).max()
    if not worst <= RESIDUAL_TOL:  # NaN fails too
        raise ConvergenceError(f"eigenpair residual {worst:.3e} |H| > {RESIDUAL_TOL} |H|")
    if gram:
        defect = vectors.T @ vectors
        defect[np.diag_indices_from(defect)] -= 1.0
    else:
        defect = (vectors * vectors).sum(axis=0) - 1.0
    ortho = np.abs(defect).max()
    if not ortho <= ORTHO_TOL:
        raise ConvergenceError(f"orthonormality defect {ortho:.3e}")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Sign convention, applied in place to every column of the block: the
    largest-|psi_m| component is positive, ties going to the lowest index m.

    Components within a relative ``SIGN_TIE_RTOL`` of the column maximum count
    as tied, so rounding alone cannot move the lead.  At zero tilt every
    vector has definite parity (see ``_fold``), and the lead of an odd one,
    psi_m = -psi_{-m}, is always its m < 0 member.
    """
    peak = np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    cutoff = (1.0 - SIGN_TIE_RTOL) * peak
    lead = ((vectors >= cutoff) | (vectors <= -cutoff)).argmax(axis=0)
    lead_values = vectors[lead, np.arange(vectors.shape[1])]
    vectors *= np.where(lead_values < 0, -1.0, 1.0)
    return vectors


def _fold(h: SymTridiag):
    """Even and odd blocks ``(diag, offdiag)`` of a zero-tilt H in the basis
    (|m> + |-m>)/sqrt(2) and (|m> - |-m>)/sqrt(2), m >= 0 ascending.

    H commutes with the parity m -> -m there, so the two blocks hold its
    whole spectrum.  Integer j: |0> is its own mirror and joins the even
    block alone, coupled to the first pair by sqrt(2) e; the odd block
    starts at m = 1.  Half-integer j: the -1/2 <-> 1/2 element e is added
    to (subtracted from) the first diagonal entry of the even (odd) block.
    """
    n = len(h.diag) - 1
    c = n - n // 2  # index of the smallest m >= 0
    diag, offdiag = h.diag[c:].copy(), h.offdiag[c:].copy()
    if n % 2 == 0:
        offdiag[:1] *= math.sqrt(2.0)
        return (diag, offdiag), (h.diag[c + 1:], h.offdiag[c + 1:])
    odd = diag.copy()
    diag[0] += h.offdiag[c - 1]
    odd[0] -= h.offdiag[c - 1]
    return (diag, offdiag), (odd, h.offdiag[c:])


def _unfold(vectors: np.ndarray, parity: float, n_particles: int) -> np.ndarray:
    """m-basis columns of block vectors from ``_fold``, even for ``parity``
    +1 and odd for -1; every column is exactly (anti)symmetric in m."""
    half = (n_particles + 1) // 2  # rows with m < 0
    out = np.zeros((n_particles + 1, vectors.shape[1]))
    out[n_particles + 1 - len(vectors):] = vectors * math.sqrt(0.5)
    if parity > 0 and n_particles % 2 == 0:
        out[half] = vectors[0]  # m = 0
    out[:half] = parity * out[-half:][::-1]
    return out


def _checked(h: SymTridiag, energies, vectors, unfolded, gram: bool = True):
    """``(energies, vectors)`` after ``_check_eigenpairs`` against ``h``.  The
    columns at index ``unfolded`` are then renormalized (the 1/sqrt(2) of
    ``_unfold`` leaves their norm a few ulp off 1), and every column gets
    the ``_fix_signs`` convention."""
    _check_eigenpairs(h, energies, vectors, gram)
    vectors[:, unfolded] /= np.sqrt((vectors[:, unfolded] ** 2).sum(axis=0))
    return energies, _fix_signs(vectors)


def _lowest_pair(diag: np.ndarray, offdiag: np.ndarray, vector: bool = True):
    """Lowest eigenpair ``(w, v)``, shapes (1,) and (n, 1), of a symmetric
    tridiagonal matrix, ``v`` None without ``vector``: eigh_tridiagonal's calls
    (stebz by index, il = iu = 1, tol 0, block order; stein) and bits."""
    if len(diag) == 1:
        return diag.copy(), np.ones((1, 1))
    m, w, iblock, isplit, info = dstebz(diag, offdiag, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0 and vector:
        v, info = dstein(diag, offdiag, w[:m], iblock, isplit)
    if info:  # pragma: no cover - backend failure
        raise ConvergenceError(f"stebz/stein did not converge (LAPACK info={info})")
    return w[:m], (v if vector else None)


def _solve(h: SymTridiag, zero_tilt: bool, **select) -> tuple[np.ndarray, np.ndarray]:
    """Checked, sign-fixed eigenpairs of ``h`` in the ``select`` range.

    At ``zero_tilt`` the two ``_fold`` blocks are solved alone and merged in
    ascending energy (even first on ties); the unfolded vectors are checked
    against the full H before they are renormalized.
    """
    try:
        if not zero_tilt:
            return _checked(h, *eigh_tridiagonal(h.diag, h.offdiag, **select), slice(0))
        pairs = [eigh_tridiagonal(diag, offdiag, **select) for diag, offdiag in _fold(h)]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise ConvergenceError(str(exc)) from exc
    energies = np.concatenate([w for w, _ in pairs])
    vectors = np.hstack([_unfold(v, p, len(h.diag) - 1) for (_, v), p in zip(pairs, (1.0, -1.0))])
    order = np.argsort(energies, kind="stable")
    energies, vectors = energies[order], vectors[:, order]  # frees the unsorted block
    return _checked(h, energies, vectors, slice(None))


def ground_states(n_particles: int, lam, tilts) -> tuple[np.ndarray, np.ndarray]:
    """Ground eigenpairs ``(energies, vectors)`` of H(lam, delta), one column
    per element of ``lam`` and ``tilts`` broadcast together (1-D).

    Each diagonal is H(lam, 0) as ``build_hamiltonian`` rounds it, plus
    delta * m; ``_lowest_pair`` solves it, or at zero tilt only the even
    ``_fold`` block (the Perron-Frobenius ground state is even).  The block
    gets one finiteness check, one residual check (each column against its
    own full |H|), one norm check and one ``_fix_signs`` call.
    """
    lams, tilts = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(tilts, dtype=float))
    basis = build_basis(n_particles)
    m, offdiag = basis.m_values, -_ladder_array(basis)
    flat = (lams[:, None] / n_particles * m) * m + 0.0 * m  # rows of H(lam, 0)
    diags = flat + tilts[:, None] * m  # row k, contiguous for LAPACK, is column k's
    if not np.isfinite(diags).all():  # checked once here, not per solve
        raise ValueError("lam and every tilt must give a finite Hamiltonian")
    zero = tilts == 0
    energies, vectors = np.empty(len(tilts)), np.empty((n_particles + 1, len(tilts)), order="F")
    for k, diag in enumerate(diags):
        if zero[k]:
            energies[k:k + 1], block = _lowest_pair(*_fold(SymTridiag(flat[k], offdiag))[0])
            vectors[:, k:k + 1] = _unfold(block, 1.0, n_particles)
        else:
            energies[k:k + 1], vectors[:, k:k + 1] = _lowest_pair(diag, offdiag)
    return _checked(SymTridiag(diags.T, offdiag), energies, vectors, zero, gram=False)


def ground_state(params: ModelParams) -> tuple[float, SpinState]:
    """Lowest eigenpair of the junction Hamiltonian (one-column
    ``ground_states``).

    The vector follows the sign convention of ``_fix_signs`` (largest-|psi_m|
    component positive, lowest m on ties), so it equals column 0 of
    ``full_spectrum`` whenever the ground level is nondegenerate.  At zero
    tilt it is the even-parity ground state, psi_m = psi_{-m} exactly, also
    for lam < -1 where the odd partner of the ferromagnetic doublet lies
    within rounding of it.
    """
    energies, vectors = ground_states(params.n_particles, params.lam, [params.delta])
    return float(energies[0]), SpinState(build_basis(params.n_particles), vectors[:, 0])


def full_spectrum(params: ModelParams) -> Spectrum:
    """All N+1 eigenpairs, residual- and orthonormality-checked.

    Every vector follows the sign convention of ``_fix_signs`` (largest-|psi_m|
    component positive, lowest m on ties), so nondegenerate states do not
    depend on the LAPACK driver.  At zero tilt the even and odd ``_fold``
    blocks are solved apart: every vector has definite parity, and the
    ferromagnetic doublets for lam < -1 come out as their even and odd
    members, even first, however close their energies.
    """
    if params.n_particles > FULL_SPECTRUM_CAP:
        raise ValueError(
            f"n_particles={params.n_particles} exceeds full-spectrum cap"
            f" {FULL_SPECTRUM_CAP}"
        )
    energies, vectors = _solve(build_hamiltonian(params), params.delta == 0)
    basis = build_basis(params.n_particles)
    states = tuple(SpinState(basis, vectors[:, k]) for k in range(vectors.shape[1]))
    return Spectrum(params, energies, states)


def low_spectrum(params: ModelParams, temperature: float):
    """Eigenpairs with E - E0 <= -ln(THERMAL_WEIGHT_CUTOFF) T, the levels
    occupied at a finite T = ``temperature`` >= 0, ascending in energy.

    Only the window is diagonalized (MRRR, LAPACK ``stemr``), so the residual
    and orthonormality checks cost O(N K^2) for K kept states instead of
    O(N^3); every kept vector follows the sign convention of ``_fix_signs``.
    At zero tilt E0 comes from the even ``_fold`` block and the window is
    solved on each parity block.  Returns ``(energies, vectors)`` with the
    states as columns.
    """
    if not 0 <= temperature < math.inf:  # NaN fails too
        raise ValueError(f"low_spectrum needs a finite temperature >= 0, got {temperature}")
    window = -math.log(THERMAL_WEIGHT_CUTOFF) * temperature
    h = build_hamiltonian(params)
    if not np.isfinite(h.diag).all():  # stebz has no check of its own
        raise ValueError("array must not contain infs or NaNs")
    zero_tilt = params.delta == 0
    e0 =_lowest_pair(*(_fold(h)[0] if zero_tilt else (h.diag, h.offdiag)), False)[0][0]
    # drivers round E0 apart by far less than the residual tolerance; the
    # margin keeps the ground state inside even a zero-width window
    margin = RESIDUAL_TOL * h.norm_estimate
    return _solve(
        h, zero_tilt, select="v", select_range=(e0 - margin, e0 + window + margin),
        lapack_driver="stemr",
    )


def boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Unit-sum weights exp(-(E_n - E0) / T) of ascending energies, T > 0.
    Over a subnormal T a gap may overflow to inf: its weight is the exact 0."""
    with np.errstate(over="ignore"):
        weights = np.exp(-(energies - energies[0]) / temperature)
    return weights / weights.sum()


def thermal_ensemble(params: ModelParams, temperature: float) -> StateEnsemble:
    """Boltzmann mixture of eigenstates at k_B T / E_J = ``temperature``.

    Weights are exp(-(E_n - E0) / T), normalized to unit sum, over the
    levels ``low_spectrum`` finds occupied: states whose relative weight
    falls below the cutoff are never diagonalized.  T = 0 is the ground
    state; T = inf is the uniform mixture of the full spectrum (capped at
    ``FULL_SPECTRUM_CAP``).
    """
    if not temperature >= 0:  # NaN fails too
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        _, gs = ground_state(params)
        return StateEnsemble((gs,), np.array([1.0]))
    if math.isinf(temperature):
        spec = full_spectrum(params)
        n = len(spec.states)
        return StateEnsemble(spec.states, np.full(n, 1.0 / n))

    energies, vectors = low_spectrum(params, temperature)
    basis = build_basis(params.n_particles)
    states = tuple(SpinState(basis, vectors[:, k]) for k in range(vectors.shape[1]))
    return StateEnsemble(states, boltzmann_weights(energies, temperature))
