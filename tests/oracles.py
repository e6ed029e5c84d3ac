"""Independent brute-force references: dense complex spin matrices and
expectation values, a whole-matrix tridiagonal ground state with moments from
sparse J+- and Jz actions (for N too large to solve densely), the first
support ground solve, a fine tanh-sinh tilt mixture, and fringe positions by
rejection sampling, kept deliberately separate from the library's paths so
they can arbitrate them."""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm, lapack


def dense_spin_matrices(n_particles: int):
    """(Jx, Jy, Jz) as dense complex matrices in the ascending-m basis."""
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    jz = np.diag(m)
    jp = np.zeros((n_particles + 1, n_particles + 1))
    for i in range(n_particles):
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
        jp[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jm = jp.T
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2j
    return jx.astype(complex), jy, jz.astype(complex)


def dense_hamiltonian(n_particles: int, lam: float, delta: float) -> np.ndarray:
    jx, _, jz = dense_spin_matrices(n_particles)
    return (-jx + (lam / n_particles) * jz @ jz + delta * jz).real


def dense_moments(n_particles: int, psi: np.ndarray):
    """All six moments via explicit psi^dagger M psi."""
    jx, jy, jz = dense_spin_matrices(n_particles)
    psi = psi.astype(complex)

    def ev(mat):
        return float((psi.conj() @ (mat @ psi)).real)

    return {
        "jx": ev(jx),
        "jy": ev(jy),
        "jz": ev(jz),
        "jx2": ev(jx @ jx),
        "jy2": ev(jy @ jy),
        "jz2": ev(jz @ jz),
    }


def tridiagonal_ground(n_particles: int, lam: float, delta: float):
    """(E0, E1, psi0) of the junction H by bisection and inverse iteration
    (LAPACK stebz, stein) on all N + 1 rows: the same matrix as
    ``dense_hamiltonian``, for sizes where a dense solve is slow."""
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    ladder = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    w, v = eigh_tridiagonal(
        lam / n_particles * m * m + delta * m, -0.5 * ladder,
        select="i", select_range=(0, 1), lapack_driver="stebz",
    )
    return w[0], w[1], v[:, 0]


def first_support_ground_pair(diag: np.ndarray, offdiag: np.ndarray, norm: float):
    """Lowest eigenpair of one tridiagonal H with negative ``offdiag`` and
    |H| <= ``norm``, as the support solve first computed it: stebz by index and
    stein on the rows about the least local energy d_i - 2 min(|e_(i-1)|,
    |e_i|) plus discrete-WKB tails to 1e-17 and 16 rows, each side grown by
    the range's width while its end component exceeds 1e-17 of the peak; the
    whole H when a Sturm count finds a level below w - 1e-8 |H|.  Above
    |H| = 2^500 LAPACK gets H times an exact power of two."""

    def lowest(d, e):
        if len(d) == 1:
            return d.copy(), np.ones((1, 1))
        m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
        v, info = lapack.dstein(d, e, w[:m], iblock, isplit)
        assert info == 0
        return w[:m], v

    n = len(diag)
    e = np.concatenate(([0.0], -offdiag, [0.0]))
    s = 2.0 * np.minimum(e[:-1], e[1:])
    local = diag - s
    c = int(local.argmin())
    with np.errstate(all="ignore"):
        kappa = np.arccosh(np.fmax((diag - local[c]) / s, 1.0))
    lo = max(c - int(np.searchsorted(np.cumsum(kappa[c::-1]), -math.log(1e-17))) - 16, 0)
    hi = min(c + int(np.searchsorted(np.cumsum(kappa[c:]), -math.log(1e-17))) + 17, n)
    scale = 2.0 ** min(0, 500 - math.frexp(norm)[1])
    if scale < 1.0:
        diag, offdiag, norm = diag * scale, offdiag * scale, norm * scale
    while True:
        w, v = lowest(diag[lo:hi], offdiag[lo:hi - 1])
        tol = 1e-17 * np.abs(v).max()
        low, high = lo > 0 and abs(v[0, 0]) > tol, hi < n and abs(v[-1, 0]) > tol
        if not (low or high):
            break
        lo, hi = max(lo - low * (hi - lo), 0), min(hi + high * (hi - lo), n)
    below = w[0] - 1e-8 * norm
    if hi - lo < n and lapack.dstebz(diag, offdiag, 1, -2.0 * norm, below, 0, 0, 0.0, "B")[0]:
        (w, v), lo, hi = lowest(diag, offdiag), 0, n
    padded = np.zeros((n, 1))
    padded[lo:hi] = v
    return w / scale, padded


def sparse_moments(n_particles: int, psi: np.ndarray):
    """(jx, jy, jz, jx2, jy2, jz2) of a real state from the vectors J+ psi,
    J- psi and Jz psi: <A^2> = |A psi|^2 for each Hermitian A."""
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    ladder = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    up, down = np.zeros_like(psi), np.zeros_like(psi)
    up[1:], down[:-1] = ladder * psi[:-1], ladder * psi[1:]
    jx_psi, jy_psi, jz_psi = (up + down) / 2, (up - down) / 2, m * psi  # Jy psi is -i jy_psi
    return [psi @ jx_psi, 0.0, psi @ jz_psi, jx_psi @ jx_psi, jy_psi @ jy_psi, jz_psi @ jz_psi]


def dense_rotated_moments(n_particles: int, psi: np.ndarray, theta: float):
    """Moments of exp(-i theta Jx) |psi> via a dense matrix exponential."""
    jx, _, _ = dense_spin_matrices(n_particles)
    rotated = expm(-1j * theta * jx) @ psi.astype(complex)
    jxm, jym, jzm = dense_spin_matrices(n_particles)

    def ev(mat):
        return float((rotated.conj() @ (mat @ rotated)).real)

    return {
        "jx": ev(jxm),
        "jy": ev(jym),
        "jz": ev(jzm),
        "jx2": ev(jxm @ jxm),
        "jy2": ev(jym @ jym),
        "jz2": ev(jzm @ jzm),
    }


def random_real_state(n_particles: int, rng) -> np.ndarray:
    psi = rng.standard_normal(n_particles + 1)
    return psi / np.linalg.norm(psi)


def tanh_sinh_delta_moments(n_particles: int, lam: float, sigma: float, half: int = 321):
    """(jx, jy, jz, jx2, jy2, jz2) of the Gaussian tilt mixture at one
    sigma_delta on its own fine tanh-sinh panel: ``half`` nodes
    8 sigma / (1 + exp(-pi sinh t)), t equispaced on [-3, 3], on each
    half-axis, dense ground states at the positive nodes, and the negative
    ones by parity (the same moments with <Jz> flipped)."""
    t = np.linspace(-3.0, 3.0, half)
    u = np.pi * np.sinh(t)
    tilts = 8.0 * sigma / (1.0 + np.exp(-u))
    weights = np.cosh(t) / np.cosh(u / 2) ** 2 * np.exp(-0.5 * (tilts / sigma) ** 2)
    jx, jy, jz = dense_spin_matrices(n_particles)
    ops = (jx, jy, jz, jx @ jx, jy @ jy, jz @ jz)
    total = np.zeros(6)
    for tilt, weight in zip(tilts, weights / weights.sum()):
        psi = np.linalg.eigh(dense_hamiltonian(n_particles, lam, tilt))[1][:, 0]
        total += weight * np.array([(psi @ op @ psi).real for op in ops])
    total[2] = 0.0  # the mirrored half cancels <Jz>
    return total


def fringe_density(x, nu: float, phi: float, k: float):
    """One-body fringe density 1 + nu cos(kx + phi), mean 1 per period; a
    contrast outside [0, 1] is refused, since the density would go negative."""
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"contrast nu must lie in [0, 1], got {nu!r}")
    return 1.0 + nu * np.cos(k * np.asarray(x) + phi)


def sample_positions(params, shot_phase: float, rng_seed) -> np.ndarray:
    """``params.n_atoms`` i.i.d. positions on [0, params.window] drawn from
    the fringe density by rejection sampling under the flat envelope 1 + nu.

    An independent reference for the bench's multinomial bin counts: binned
    on the fit's bins, one shot's positions follow ``bin_probabilities``.
    """
    if not np.isfinite(shot_phase):
        # no density value compares true against a nan: nothing is accepted
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
        accepted = x[u < fringe_density(x, params.nu, shot_phase, params.k)]
        take = min(len(accepted), params.n_atoms - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out
