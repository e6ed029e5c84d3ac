"""Bosonic Josephson junction H = -Jx + (Lambda/N) Jz^2 + delta Jz.

In the Jz eigenbasis the Hamiltonian is a real symmetric tridiagonal matrix;
its diagonal holds the interaction and tilt terms and its off-diagonal the
(negated) Jx ladder elements.  Energies are in units of the Josephson
tunneling energy E_J, temperatures in units of E_J / k_B.

A ground state fills some sqrt(N) rows about its mean-field well, and the K
levels a temperature T occupies (``low_spectrum``) the rows allowed below
their top, so ``_support_pairs`` solves them on rows H alone seeds, grown
until every vector ends within SUPPORT_RTOL of its peak.  By interlacing a
truncated level lies above its level of H: a Sturm count on the whole H must
find the levels solved (Parlett, The Symmetric Eigenvalue Problem, SIAM
1998), else H is solved whole.

The LAPACK entry points ``eigh_tridiagonal``, ``dstebz`` and ``dstein`` are
module attributes bound at the first eigensolve, so an import loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spin_core import MOMENT_BLOCK, SpinState, StateEnsemble, _is_integer, _ladder

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

# Ground and window solves on a row range (see _support_pairs and _support).
SUPPORT_RTOL = 1e-17
SUPPORT_PAD = 16
SCALE_EXP = 500

_LAPACK = ("eigh_tridiagonal", "dstebz", "dstein")


@functools.cache  # once per process
def _load_lapack() -> None:
    """Bind the _LAPACK names from scipy; a name already bound (a patch) stays."""
    from scipy.linalg import eigh_tridiagonal, lapack

    for name, entry in zip(_LAPACK, (eigh_tridiagonal, lapack.dstebz, lapack.dstein)):
        globals().setdefault(name, entry)


def __getattr__(name: str):  # PEP 562: the _LAPACK names, read before the first solve
    if name not in _LAPACK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_lapack()
    return globals()[name]


class ConvergenceError(RuntimeError):
    """Eigensolver failed to meet the residual/orthonormality tolerances."""


@dataclass(frozen=True)
class ModelParams:
    n_particles: int
    lam: float
    delta: float = 0.0

    def __post_init__(self):
        if not _is_integer(self.n_particles):
            raise TypeError("n_particles must be an integer")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not (math.isfinite(self.lam) and math.isfinite(self.delta)):
            raise ValueError("lam and delta must be finite")


@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    offdiag: np.ndarray

    @functools.cached_property  # sound: no code writes diag or offdiag in place
    def norm_estimate(self):
        """Max row sum, an upper bound on the spectral norm, computed once per H:
        a float, or one bound per column for a 2-D ``diag`` (one H per column)."""
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
    m, c = _ladder(params.n_particles)[:2]
    diag = (params.lam / params.n_particles) * m * m + params.delta * m
    return SymTridiag(diag, -c)  # -Jx


def _checked(h: SymTridiag, energies, vectors, unfolded, gram: bool = True):
    """``(energies, vectors)`` after guards that hold for any backend: the
    residual of column k against its H (column k of a 2-D ``h.diag``, else the
    one H) over that H's |H|, by chunks of MOMENT_BLOCK columns; vectors of one
    H orthonormal (``gram``), of different H of unit norm.  One sum of squares
    per column serves that norm check and then, in one in-place division,
    renormalizes the columns flagged by ``unfolded`` (a bool, or one per column:
    ``_unfold``'s 1/sqrt(2) leaves them a few ulp off 1); then ``_fix_signs``."""
    diag = np.broadcast_to(h.diag.reshape(len(h.diag), -1), vectors.shape)
    norm_h = np.broadcast_to(np.maximum(h.norm_estimate, 1e-300), energies.shape)
    worst = 0.0
    for cols in (slice(lo, lo + MOMENT_BLOCK) for lo in range(0, len(energies), MOMENT_BLOCK)):
        resid = SymTridiag(diag[:, cols], h.offdiag).matvec(vectors[:, cols])
        resid -= vectors[:, cols] * energies[cols]
        resid /= norm_h[cols]  # before squaring, which overflows beyond |H| ~ 1e154
        worst = np.maximum(worst, np.sqrt((resid * resid).sum(axis=0)).max())  # NaN stays
    if not worst <= RESIDUAL_TOL:  # NaN fails too
        raise ConvergenceError(f"eigenpair residual {worst:.3e} |H| > {RESIDUAL_TOL} |H|")
    norm2 = (vectors * vectors).sum(axis=0)
    defect = vectors.T @ vectors if gram else np.diag(norm2)  # norms alone across H
    defect[np.diag_indices_from(defect)] -= 1.0
    ortho = np.abs(defect).max()
    if not ortho <= ORTHO_TOL:
        raise ConvergenceError(f"orthonormality defect {ortho:.3e}")
    vectors /= np.where(unfolded, np.sqrt(norm2), 1.0)
    return energies, _fix_signs(vectors)


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


def _lowest_pair(diag: np.ndarray, offdiag: np.ndarray):
    """Lowest eigenpair ``(w, v)``, shapes (1,) and (n, 1), of a symmetric
    tridiagonal matrix, for ``_ground_pair``: eigh_tridiagonal's calls (stebz
    by index, il = iu = 1, tol 0, block order; stein) and bits."""
    if len(diag) == 1:
        return diag.copy(), np.ones((1, 1))
    m, w, iblock, isplit, info = dstebz(diag, offdiag, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        v, info = dstein(diag, offdiag, w[:m], iblock, isplit)
    if info:  # pragma: no cover - backend failure
        raise ConvergenceError(f"stebz/stein did not converge (LAPACK info={info})")
    return w[:m], v


def _support(diag: np.ndarray, offdiag: np.ndarray, top=-math.inf) -> tuple[int, int]:
    """Seed rows ``[lo, hi)`` of the eigenvectors of a tridiagonal H with
    negative ``offdiag`` up to level ``top``, else of the lowest, from H alone:
    the rows [a, b] where the local energy d_i - s_i, s_i = 2 min(|e_(i-1)|,
    |e_i|), is at most E = ``top`` (a mean-field well, or two), else its least
    row c, then the rows on to where the sum of kappa_i reaches -ln
    SUPPORT_RTOL, plus SUPPORT_PAD: psi decays by exp(-kappa_i) per row, cosh
    kappa_i = (d_i - E) / s_i (discrete WKB), also along an anharmonic flank."""
    e = np.concatenate(([0.0], -offdiag, [0.0]))
    s = 2.0 * np.minimum(e[:-1], e[1:])
    local = diag - s
    c = int(local.argmin())
    top = max(top, local[c])
    a, b = np.flatnonzero(local <= top)[[0, -1]] if top > local[c] else (c, c)
    with np.errstate(all="ignore"):  # 0 / 0 at an end row reads as kappa 0
        kappa = np.arccosh(np.fmax((diag - top) / s, 1.0))
    action = -math.log(SUPPORT_RTOL)
    lo = a - int(np.searchsorted(np.cumsum(kappa[a::-1]), action)) - SUPPORT_PAD
    hi = b + int(np.searchsorted(np.cumsum(kappa[b:]), action)) + SUPPORT_PAD + 1
    return max(lo, 0), min(hi, len(diag))


def _support_pairs(diag: np.ndarray, offdiag: np.ndarray, norm: float, select=None):
    """Eigenpairs ``(w, v)`` of one tridiagonal H with |H| <= ``norm``: those
    in ``select`` = (bottom, top] (stemr by value), else the lowest pair, on the
    ``_support`` rows, each side grown by the range's width while an end
    component exceeds SUPPORT_RTOL of its column's peak, zero-padded.  A Sturm
    count on the whole H (stebz, tol 4|H|: it bisects no level) must find len(w)
    levels in (bottom, top], or none in (-2|H|, w_0 - RESIDUAL_TOL |H|], else H
    is solved whole.  Above |H| = 2^SCALE_EXP, where stein overflows on |H|^2,
    LAPACK gets H times an exact power of two."""
    _load_lapack()
    lo, hi = _support(diag, offdiag) if select is None else _support(diag, offdiag, select[1])
    n, scale = len(diag), 2.0 ** min(0, SCALE_EXP - math.frexp(norm)[1])
    if scale < 1.0:
        diag, offdiag, norm = diag * scale, offdiag * scale, norm * scale
        select = select and (select[0] * scale, select[1] * scale)
    solve = _lowest_pair if select is None else functools.partial(
        eigh_tridiagonal, select="v", select_range=select, lapack_driver="stemr"
    )
    while True:
        w, v = solve(diag[lo:hi], offdiag[lo:hi - 1])
        tol = SUPPORT_RTOL * np.abs(v).max(axis=0)
        low, high = lo > 0 and (np.abs(v[0]) > tol).any(), hi < n and (np.abs(v[-1]) > tol).any()
        if not (low or high):
            break
        lo, hi = max(lo - low * (hi - lo), 0), min(hi + high * (hi - lo), n)
    bottom, top, want = (*select, len(w)) if select else (-2 * norm, w[0] - RESIDUAL_TOL * norm, 0)
    if hi - lo < n and dstebz(diag, offdiag, 1, bottom, top, 0, 0, 4.0 * norm, "B")[0] != want:
        (w, v), lo, hi = solve(diag, offdiag), 0, n
    v = v.copy(order="F")  # a window's K columns: LAPACK's (m, m) array is freed before padding
    padded = np.zeros((n, v.shape[1]))
    padded[lo:hi] = v
    return w / scale, padded


# the K = 1 case, shapes (1,) and (n, 1), under its own name: ground solves, not windows, call it
_ground_pair = _support_pairs


def _solve(h: SymTridiag, zero_tilt: bool, solve) -> tuple[np.ndarray, np.ndarray]:
    """Checked, sign-fixed eigenpairs of ``h`` that ``solve(diag, offdiag)``
    finds; at ``zero_tilt`` each ``_fold`` block alone, unfolded into one ascending
    window and freed before it is checked against the full H and renormalized."""
    try:
        if not zero_tilt:
            return _checked(h, *solve(h.diag, h.offdiag), False)
        (w_even, even), (w_odd, odd) = [solve(*block) for block in _fold(h)]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise ConvergenceError(str(exc)) from exc
    energies = np.concatenate((w_even, w_odd))
    order = np.argsort(energies, kind="stable")  # stable: a block keeps its column order
    vectors = np.empty((len(h.diag), len(order)), order="F")  # column sums round by layout
    vectors[:, order < len(w_even)] = _unfold(even, 1.0, len(h.diag) - 1)
    vectors[:, order >= len(w_even)] = _unfold(odd, -1.0, len(h.diag) - 1)
    del even, odd  # the checks need only the window
    return _checked(h, energies[order], vectors, True)


def ground_states(n_particles: int, lam, tilts) -> tuple[np.ndarray, np.ndarray]:
    """Ground eigenpairs ``(energies, vectors)`` of H(lam, delta), one column
    per element of ``lam`` and ``tilts`` broadcast together (1-D).

    Each diagonal is ``build_hamiltonian``'s for (lam, delta), bit for bit.
    ``_ground_pair`` solves it, or at zero tilt only the even ``_fold`` block
    of it (the Perron-Frobenius ground state is even), on its support, which
    H alone seeds: a column has the same bits in any block.  The block gets
    one finiteness check, one residual check (each column against its own
    full |H|), one norm check and one ``_fix_signs`` call.
    """
    lams, tilts = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(tilts, dtype=float))
    m, c = _ladder(n_particles)[:2]
    offdiag = -c
    diags = (lams[:, None] / n_particles * m) * m + tilts[:, None] * m  # row k: column k's H
    if not np.isfinite(diags).all():  # checked once here, not per solve
        raise ValueError("lam and every tilt must give a finite Hamiltonian")
    h, zero = SymTridiag(diags.T, offdiag), tilts == 0
    energies, vectors = np.empty(len(tilts)), np.empty((n_particles + 1, len(tilts)), order="F")
    for k, (diag, norm) in enumerate(zip(diags, h.norm_estimate)):
        block = _fold(SymTridiag(diag, offdiag))[0] if zero[k] else (diag, offdiag)
        energies[k:k + 1], v = _ground_pair(*block, norm)
        vectors[:, k:k + 1] = _unfold(v, 1.0, n_particles) if zero[k] else v
    return _checked(h, energies, vectors, zero, gram=False)


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
    return float(energies[0]), SpinState(vectors[:, 0])


def full_spectrum(params: ModelParams) -> Spectrum:
    """All N+1 eigenpairs, residual- and orthonormality-checked.

    Every vector follows the sign convention of ``_fix_signs`` (largest-|psi_m|
    component positive, lowest m on ties), so nondegenerate states do not
    depend on the LAPACK driver.  At zero tilt the even and odd ``_fold``
    blocks are solved apart: every vector has definite parity, and the
    ferromagnetic doublets for lam < -1 come out as their even and odd
    members, in the order of their rounded energies, even first on a tie.
    """
    if params.n_particles > FULL_SPECTRUM_CAP:
        raise ValueError(
            f"n_particles={params.n_particles} exceeds full-spectrum cap"
            f" {FULL_SPECTRUM_CAP}"
        )
    _load_lapack()  # binds eigh_tridiagonal
    energies, vectors = _solve(build_hamiltonian(params), params.delta == 0, eigh_tridiagonal)
    return Spectrum(params, energies, tuple(SpinState(v) for v in vectors.T))


def low_spectrum(params: ModelParams, temperature: float):
    """Eigenpairs with E - E0 <= -ln(THERMAL_WEIGHT_CUTOFF) T, the levels
    occupied at a finite T = ``temperature`` >= 0, ascending in energy.

    E0 is ``ground_state``'s certified level.  Only the window is solved
    (MRRR, LAPACK ``stemr``), at zero tilt on each parity block, on its support
    (``_support_pairs``), and checked against the whole H in O(N K^2) for K kept
    states, signs by ``_fix_signs``.  Returns ``(energies, vectors)``, states as columns.
    """
    if not 0 <= temperature < math.inf:  # NaN fails too
        raise ValueError(f"low_spectrum needs a finite temperature >= 0, got {temperature}")
    return _low_spectrum_at(params, temperature, ground_state(params)[0])  # refuses an overflowed H


def _low_spectrum_at(params: ModelParams, temperature: float, e0: float):
    """``low_spectrum`` at E0 = ``e0``, ``ground_state``'s level, from any block."""
    h = build_hamiltonian(params)
    # E0's Sturm count certified nothing RESIDUAL_TOL |H| below it (Perron-Frobenius
    # puts the odd block no lower): the margin keeps it inside even a zero-width window
    margin = RESIDUAL_TOL * h.norm_estimate
    select = (e0 - margin, e0 - math.log(THERMAL_WEIGHT_CUTOFF) * temperature + margin)
    return _solve(h, params.delta == 0, lambda d, e: _support_pairs(d, e, h.norm_estimate, select))


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
    state; T = inf is I / (N + 1), the same in every basis: the uniform
    mixture of the N + 1 Dicke states, with no solve.
    """
    if not temperature >= 0:  # NaN fails too
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return StateEnsemble((ground_state(params)[1],), np.array([1.0]))
    if math.isinf(temperature):
        n = params.n_particles + 1
        return StateEnsemble(tuple(map(SpinState, np.eye(n))), np.full(n, 1.0 / n))
    energies, vectors = low_spectrum(params, temperature)
    states = tuple(SpinState(v) for v in vectors.T)
    return StateEnsemble(states, boltzmann_weights(energies, temperature))
