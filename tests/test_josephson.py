import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from bellfringe import (
    ConvergenceError,
    ModelParams,
    ScanSpec,
    SpinState,
    StateEnsemble,
    build_hamiltonian,
    compute_moments,
    delta_mixture,
    delta_thermal_mixture,
    ensemble_moments,
    full_spectrum,
    ground_state,
    ground_states,
    phase_squeezing,
    thermal_ensemble,
    thermal_xi2,
    visibility,
)
from bellfringe import josephson, noise, scan
from bellfringe.josephson import (
    FULL_SPECTRUM_CAP,
    RESIDUAL_TOL,
    SIGN_TIE_RTOL,
    SymTridiag,
    _fix_signs,
    boltzmann_weights,
)
from bellfringe.spin_core import _ladder

from oracles import dense_hamiltonian, dense_moments, sparse_moments, tridiagonal_ground

# the per-H ground solve (truncated, grown and certified), kept before any
# test patches it
ground_pair = josephson._ground_pair
lowest_pair, support = josephson._lowest_pair, josephson._support


def analytic_ground_energy_n2(lam):
    # symmetric sector of the N=2 problem is a 2x2 eigenproblem
    return lam / 4 - math.sqrt(lam * lam / 16 + 1)


class TestBuildHamiltonian:
    def test_n2_free(self):
        h = build_hamiltonian(ModelParams(2, 0.0, 0.0))
        assert np.allclose(h.diag, 0.0)
        assert np.allclose(h.offdiag, [-math.sqrt(2) / 2, -math.sqrt(2) / 2])

    def test_n2_interaction(self):
        h = build_hamiltonian(ModelParams(2, 1.0, 0.0))
        assert np.allclose(h.diag, [0.5, 0.0, 0.5])

    def test_n2_tilt(self):
        h = build_hamiltonian(ModelParams(2, 0.0, 0.3))
        assert np.allclose(h.diag, [-0.3, 0.0, 0.3])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ModelParams(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(5, math.inf, 0.0)

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_rejects_non_integer_particle_count(self, n):
        # refused where the parameters are made, not first by build_hamiltonian
        with pytest.raises(TypeError, match="n_particles must be an integer"):
            ModelParams(n, 1.0)


class TestSymTridiag:
    def block(self):
        """Three Hamiltonians sharing an off-diagonal: one diagonal per column."""
        h0 = build_hamiltonian(ModelParams(7, -1.2, 0.0))
        tilts = np.array([0.0, 0.3, -2.0])
        m = _ladder(7)[0]
        return h0, SymTridiag(h0.diag[:, None] + m[:, None] * tilts, h0.offdiag), tilts

    def test_two_dimensional_diag_is_one_h_per_column(self):
        h0, block, tilts = self.block()
        v = np.random.default_rng(1).normal(size=(8, 3))
        dense = [dense_hamiltonian(7, -1.2, t) for t in tilts]
        want = np.column_stack([hk @ v[:, k] for k, hk in enumerate(dense)])
        assert np.allclose(block.matvec(v), want, rtol=0, atol=1e-13)
        bounds = [np.abs(hk).sum(axis=1).max() for hk in dense]
        assert np.allclose(block.norm_estimate, bounds, rtol=1e-15, atol=0)
        # the one H of a 1-D diagonal acts on a vector and on a block alike
        assert np.array_equal(h0.matvec(v)[:, 1], h0.matvec(v[:, 1]))

    def test_norm_estimate_of_one_h_is_a_float(self):
        h0, block, _ = self.block()
        assert type(h0.norm_estimate) is float
        assert h0.norm_estimate == block.norm_estimate[0]

    def test_norm_estimate_runs_once_per_h(self, monkeypatch):
        # the body is counted under the descriptor the class defines
        original, runs = vars(SymTridiag)["norm_estimate"], []
        body = getattr(original, "func", None) or original.fget

        def counting(h):
            runs.append(None)
            return body(h)

        patched = type(original)(counting)
        patched.__set_name__(SymTridiag, "norm_estimate")
        monkeypatch.setattr(SymTridiag, "norm_estimate", patched)
        ground_states(40, [-1.5, -0.7, 0.5, 4.0], [0.0, 0.05, 0.0, 0.05])
        assert len(runs) == 1  # the block's, read by the solves and by _checked
        runs.clear()
        josephson.low_spectrum(ModelParams(40, -0.7, 0.05), 0.5)
        assert len(runs) == 2  # its ground solve's H, then the window's


class TestGroundState:
    def test_n2_free(self):
        energy, state = ground_state(ModelParams(2, 0.0, 0.0))
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert compute_moments(state).jx == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [-2.0, -0.5, 0.0, 1.0, 7.0])
    def test_n2_analytic_oracle(self, lam):
        energy, _ = ground_state(ModelParams(2, lam, 0.0))
        assert energy == pytest.approx(analytic_ground_energy_n2(lam), abs=1e-12)

    def test_n1000_coherent(self):
        _, state = ground_state(ModelParams(1000, 0.0, 0.0))
        m = compute_moments(state)
        assert visibility(m, 1000) == pytest.approx(1.0, abs=1e-9)
        assert phase_squeezing(m, 1000) == pytest.approx(1.0, rel=1e-9)

    def test_sign_convention(self):
        for lam in (-1.5, 0.3, 4.0):
            _, state = ground_state(ModelParams(60, lam, 0.1))
            assert compute_moments(state).jx >= 0

    def test_matches_full_spectrum(self):
        params = ModelParams(80, -0.7, 0.05)
        e_gs, state = ground_state(params)
        spec = full_spectrum(params)
        assert e_gs == pytest.approx(spec.energies[0], abs=1e-9)
        assert np.allclose(state.coeffs, spec.states[0].coeffs, atol=1e-9)


# Eigenvectors are compared only for levels whose gap to both neighbours
# exceeds this fraction of |H|: below it the vector is not resolved in float64
# (e.g. the ferromagnetic doublets for lam < -1 at zero tilt).
RESOLVED_GAP = 1e-5

# "auto" is the driver full_spectrum uses; the others are what it could be.
DRIVERS = ("auto", "stemr", "stev", "stebz")

model_params = st.builds(
    ModelParams,
    st.integers(1, 150),
    st.floats(-2.0, 5.0),
    # zero tilt gives the exactly tied psi_m = -psi_{-m} odd-parity states
    st.one_of(st.just(0.0), st.floats(0.01, 0.5), st.floats(-0.5, -0.01)),
)


def eigenvectors(params, driver):
    h = build_hamiltonian(params)
    energies, vectors = eigh_tridiagonal(h.diag, h.offdiag, lapack_driver=driver)
    return h, energies, vectors


def lead_component(v):
    """Reference for the rule: lowest index within SIGN_TIE_RTOL of max |v|."""
    peak = np.abs(v).max()
    return next(i for i, x in enumerate(v) if abs(x) >= (1 - SIGN_TIE_RTOL) * peak)


class TestSignConvention:
    @settings(max_examples=60, deadline=None)
    @given(model_params, st.data())
    def test_column_flips_do_not_matter(self, params, data):
        _, _, vectors = eigenvectors(params, "auto")
        flips = data.draw(
            st.lists(st.booleans(), min_size=vectors.shape[1], max_size=vectors.shape[1])
        )
        signs = np.where(flips, -1.0, 1.0)
        fixed = _fix_signs(vectors.copy())
        assert np.array_equal(_fix_signs(vectors * signs), fixed)
        for v in fixed.T:
            assert v[lead_component(v)] > 0

    @settings(max_examples=60, deadline=None)
    @given(model_params)
    @example(ModelParams(80, -0.7, 0.05))
    @example(ModelParams(51, 3.0, 0.0))
    def test_drivers_agree_on_resolved_levels(self, params):
        h, energies, ref = eigenvectors(params, "stev")
        gaps = np.diff(energies)
        nearest = np.full(len(energies), np.inf)
        nearest[:-1] = gaps
        nearest[1:] = np.minimum(nearest[1:], gaps)
        resolved = nearest > RESOLVED_GAP * h.norm_estimate
        ref = _fix_signs(ref)[:, resolved]
        for driver in DRIVERS:
            _, _, vectors = eigenvectors(params, driver)
            assert np.allclose(_fix_signs(vectors)[:, resolved], ref, atol=1e-9)


TILTS = np.geomspace(1e-6, 0.8, 9)


class TestGroundStates:
    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("lam", [-1.2, -0.5, 3.0])
    def test_columns_match_dense_ground_states(self, n, lam):
        energies, vectors = ground_states(n, lam, TILTS)
        for k, delta in enumerate(TILTS):
            dense_e, dense_v = np.linalg.eigh(dense_hamiltonian(n, lam, delta))
            assert energies[k] == pytest.approx(dense_e[0], abs=1e-10)
            got = compute_moments(SpinState(vectors[:, k]))
            want = dense_moments(n, dense_v[:, 0])
            for name, value in want.items():
                assert getattr(got, name) == pytest.approx(value, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("lam", [-0.7, 0.0, 3.0])
    def test_every_diagonal_is_build_hamiltonians(self, monkeypatch, n, lam):
        # one rule for a diagonal, the sign of a zero included: at m = 0,
        # lam < 0 and a negative tilt give -0.0; a zero tilt hands on its
        # even _fold block
        tilts, seen = np.array([-0.05, 0.0, -0.0, 0.05, 2.0]), []

        def recording(diag, *args):
            seen.append(diag.copy())
            return ground_pair(diag, *args)

        monkeypatch.setattr(josephson, "_ground_pair", recording)
        ground_states(n, lam, tilts)
        assert len(seen) == len(tilts)
        for diag, delta in zip(seen, tilts):
            h = build_hamiltonian(ModelParams(n, lam, delta))
            want = josephson._fold(h)[0][0] if delta == 0 else h.diag
            assert np.array_equal(diag, want)
            assert np.array_equal(np.signbit(diag), np.signbit(want))

    def test_one_column_is_ground_state(self):
        # ground_state is the one-column block: every column, bit for bit
        _, vectors = ground_states(80, -0.7, TILTS)
        for k, delta in enumerate(TILTS):
            _, state = ground_state(ModelParams(80, -0.7, delta))
            assert np.array_equal(vectors[:, k], state.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 1001])
    def test_lambda_columns_are_ground_state(self, n):
        # one lambda per column, zero tilts among nonzero ones: every column
        # is the one-column solve of its own H, bit for bit
        lams = np.linspace(-1.5, 4.0, 11)
        tilts = np.where(np.arange(11) % 3 == 0, 0.0, 0.05)
        energies, vectors = ground_states(n, lams, tilts)
        for k, (lam, delta) in enumerate(zip(lams, tilts)):
            energy, state = ground_state(ModelParams(n, lam, delta))
            assert energies[k] == energy
            assert np.array_equal(vectors[:, k], state.coeffs)

    @pytest.mark.parametrize("n", [40, 41, 1000])
    @pytest.mark.parametrize("lam", [-1.2, 0.5])
    def test_mixed_tilt_columns_are_ground_state(self, n, lam):
        # zero-tilt columns are renormalized and tilted ones divided by
        # exactly 1.0 in the same division: each is its one-column solve
        tilts = [0.0, 0.03, 0.0, -0.03]
        energies, vectors = ground_states(n, lam, tilts)
        for k, delta in enumerate(tilts):
            energy, state = ground_state(ModelParams(n, lam, delta))
            assert energies[k] == energy
            assert np.array_equal(vectors[:, k], state.coeffs)

    @pytest.mark.parametrize("corrupt", [1, 3, 5])
    def test_residual_checked_against_own_hamiltonian(self, monkeypatch, corrupt):
        # shift one column's energy by twice the residual bound of its own H;
        # the largest |H| of the block is over twice as big, and against it
        # the same error would pass, so a shared bound would mask it
        n, lam = 40, 3.0
        tilts = np.array([5.0, 0.0, 4.0, 0.6, 3.0, 1.2])
        norms = [build_hamiltonian(ModelParams(n, lam, t)).norm_estimate for t in tilts]
        shift = 2 * RESIDUAL_TOL * norms[corrupt]
        assert shift < RESIDUAL_TOL * max(norms)
        calls = []

        def perturbed(*args):
            w, v = ground_pair(*args)
            calls.append(None)
            return (w + shift, v) if len(calls) == corrupt + 1 else (w, v)

        monkeypatch.setattr(josephson, "_ground_pair", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            ground_states(n, lam, tilts)

    def test_unnormalized_column_raises(self, monkeypatch):
        calls = []

        def stretched(*args):
            w, v = ground_pair(*args)
            calls.append(None)
            return (w, v * (1 + 1e-6)) if len(calls) == 3 else (w, v)

        monkeypatch.setattr(josephson, "_ground_pair", stretched)
        with pytest.raises(ConvergenceError, match="orthonormality"):
            ground_states(40, -0.5, TILTS)

    def test_corrupted_node_fails_the_mixture(self, monkeypatch):
        calls = []

        def perturbed(*args):
            w, v = ground_pair(*args)
            calls.append(None)
            return (w + 1e-3, v) if len(calls) == 30 else (w, v)

        monkeypatch.setattr(josephson, "_ground_pair", perturbed)
        # the column returns the error in place of the sigma's moments
        (failed,) = noise.delta_column_moments(40, -0.5, [0.05])
        assert isinstance(failed, ConvergenceError)

    @pytest.mark.parametrize("mixture", [
        delta_mixture,
        pytest.param(lambda n, lam, s: noise.delta_column_moments(n, lam, [s]),
                     id="delta_column_moments"),
    ])
    def test_first_doubling_solves_41_nodes(self, monkeypatch, mixture):
        # orders 41 and 81 have 21 and 41 positive nodes; the 21 coarse ones
        # are every other node of order 81, so the doubling solves 20 more
        n, lam, sigma = 12, 8.0, 0.02
        assert len(delta_mixture(n, lam, sigma).states) == 82
        calls = []

        def counting(*args):
            calls.append(None)
            return ground_pair(*args)

        monkeypatch.setattr(josephson, "_ground_pair", counting)
        mixture(n, lam, sigma)
        assert len(calls) == 21 + 20


SUPPORT_LAMS = (-1.5, -1.2, -1.0, -0.5, 0.0, 1.0, 10.0, 1e3)
SUPPORT_TILTS = (0.0, 1e-20, 1e-6, 0.02, 0.8)


def recorded_sizes(monkeypatch) -> list:
    """Patches the LAPACK kernel to record the rows of every solve."""
    sizes = []

    def recording(diag, *args):
        sizes.append(len(diag))
        return lowest_pair(diag, *args)

    monkeypatch.setattr(josephson, "_lowest_pair", recording)
    return sizes


class TestSupportSolve:
    """Ground pairs solved on their support, grown and certified on the whole H."""

    @pytest.mark.parametrize("n", [200, 1000, 4000])
    def test_columns_match_the_oracle(self, n):
        lams, tilts = (grid.ravel() for grid in np.meshgrid(SUPPORT_LAMS, SUPPORT_TILTS))
        energies, vectors = ground_states(n, lams, tilts)
        for k, (lam, delta) in enumerate(zip(lams, tilts)):
            if n <= 200:
                dense_e, dense_v = np.linalg.eigh(dense_hamiltonian(n, lam, delta))
                (e0, e1), psi = dense_e[:2], dense_v[:, 0]
                want = list(dense_moments(n, psi).values())
            else:
                e0, e1, psi = tridiagonal_ground(n, lam, delta)
                want = sparse_moments(n, psi)
            norm = build_hamiltonian(ModelParams(n, lam, delta)).norm_estimate
            assert energies[k] == pytest.approx(e0, rel=0, abs=1e-13 * norm)
            got = compute_moments(SpinState(vectors[:, k]))
            got = [got.jx, got.jy, got.jz, got.jx2, got.jy2, got.jz2]
            if e1 - e0 <= RESOLVED_GAP * norm:
                # the doublet of lam < -1 at small tilt: a solver's vector mixes
                # its two wells by up to rounding / gap, which moves <Jz> (odd
                # under m -> -m) at first order and the other five at second
                del got[2], want[2]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), (lam, delta)

    @pytest.mark.parametrize("lam, delta", [(-1.2, 0.0), (-1.2, 0.02), (0.5, 0.0), (10.0, 0.3)])
    def test_narrow_seed_grows_to_the_full_solve(self, monkeypatch, lam, delta):
        n = 1000
        monkeypatch.setattr(josephson, "_support", lambda diag, offdiag: (0, len(diag)))
        want_e, want_v = ground_states(n, lam, [delta])

        def narrow(diag, offdiag):
            mid = sum(support(diag, offdiag)) // 2
            return mid - 2, mid + 2

        monkeypatch.setattr(josephson, "_support", narrow)
        sizes = recorded_sizes(monkeypatch)
        energies, vectors = ground_states(n, lam, [delta])
        assert sizes[0] == 4 and len(sizes) >= 3
        norm = build_hamiltonian(ModelParams(n, lam, delta)).norm_estimate
        assert abs(energies[0] - want_e[0]) <= 1e-13 * norm
        assert np.abs(vectors - want_v).max() <= 1e-13

    def test_seed_in_the_wrong_well_falls_back_to_the_full_solve(self, monkeypatch):
        # the ground state of lam = -1.5, delta = 0.02 sits in the m < 0 well;
        # rows m >= 50 hold the other well, whose state is an eigenpair to
        # rounding 2 delta m* = 15 above it: only the Sturm count sees that
        n, lam, delta = 1000, -1.5, 0.02
        monkeypatch.setattr(josephson, "_support", lambda diag, offdiag: (0, len(diag)))
        want_e, want_v = ground_states(n, lam, [delta])
        monkeypatch.setattr(josephson, "_support", lambda diag, offdiag: (550, len(diag)))
        sizes = recorded_sizes(monkeypatch)
        energies, vectors = ground_states(n, lam, [delta])
        assert sizes == [451, 1001]
        assert np.array_equal(energies, want_e) and np.array_equal(vectors, want_v)

    def test_solves_on_the_support(self, monkeypatch):
        # one solve per column, on under a quarter of the rows at N = 4000
        sizes = recorded_sizes(monkeypatch)
        ground_states(4000, [0.0, 1.0, 10.0, 0.0, 1.0, 10.0], [0.0] * 3 + [0.02] * 3)
        assert len(sizes) == 6 and max(sizes) < 4001 // 4

    @pytest.mark.parametrize("n, lam", [(1000, 1e160), (1000, 1e300), (1001, 1e300)])
    def test_huge_lambda_is_the_number_state(self, n, lam):
        # stein overflows on |H|^2 and returned NaN; LAPACK now sees a
        # power-of-two scaled H.  The ground state is m = 0, or at odd N the
        # even pair of m = +-1/2
        energy, state = ground_state(ModelParams(n, lam))
        norm = build_hamiltonian(ModelParams(n, lam)).norm_estimate
        assert abs(energy - lam / (4 * n) * (n % 2)) <= RESIDUAL_TOL * norm
        want = np.zeros(n + 1)
        want[n // 2:(n + 3) // 2] = 1.0 if n % 2 == 0 else math.sqrt(0.5)
        assert np.allclose(state.coeffs, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, lam", [(1000, 1e160), (1000, 1e300), (1001, 1e300)])
    def test_low_spectrum_of_a_huge_h(self, n, lam):
        # the residual of |H| ~ 1e302 used to overflow when squared; E0 comes
        # from the power-of-two scaled support solve.  The window holds m = 0,
        # or at odd N the pair m = +-1/2 that the margin spans
        energies, vectors = josephson.low_spectrum(ModelParams(n, lam), 0.5)
        kept = 1 + n % 2
        assert vectors.shape == (n + 1, kept)
        assert np.allclose(
            np.abs(vectors[n // 2:n // 2 + kept]), math.sqrt(1 / kept), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("n", [40, 1000, 1001])
    @pytest.mark.parametrize("lam", [-1.2, -0.9, 0.5, 8.0])
    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_low_spectrum_anchors_at_the_ground_solve(self, monkeypatch, n, lam, delta):
        # one route to the lowest level: a window's E0 is the certified
        # ground solve's, and its lowest level lies within the margin of it
        params, calls = ModelParams(n, lam, delta), []

        def counting(*args):
            calls.append(None)
            return ground_pair(*args)

        monkeypatch.setattr(josephson, "_ground_pair", counting)
        energies, _ = josephson.low_spectrum(params, 0.5)
        assert len(calls) == 1
        norm = build_hamiltonian(params).norm_estimate
        assert abs(energies[0] - ground_state(params)[0]) <= RESIDUAL_TOL * norm


class TestFullSpectrum:
    def test_n2_free(self):
        spec = full_spectrum(ModelParams(2, 0.0, 0.0))
        assert np.allclose(spec.energies, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_n2_interaction_oracle(self):
        spec = full_spectrum(ModelParams(2, 1.0, 0.0))
        want = sorted(
            [analytic_ground_energy_n2(1.0), 0.5, 0.25 + math.sqrt(1 / 16 + 1)]
        )
        assert np.allclose(spec.energies, want, atol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(30, -1.3, 0.0),
            ModelParams(30, 2.5, 0.2),
            ModelParams(101, -0.4, -0.1),
        ],
    )
    def test_trace_identity(self, params):
        spec = full_spectrum(params)
        h = build_hamiltonian(params)
        assert spec.energies.sum() == pytest.approx(
            h.diag.sum(), rel=1e-8, abs=1e-8
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_oracle(self, n):
        for lam, delta in ((-1.4, 0.0), (0.8, 0.15)):
            spec = full_spectrum(ModelParams(n, lam, delta))
            dense = np.linalg.eigvalsh(dense_hamiltonian(n, lam, delta))
            assert np.allclose(spec.energies, dense, atol=1e-9)

    def test_residuals_and_orthonormality(self):
        params = ModelParams(300, -1.1, 0.02)
        spec = full_spectrum(params)
        h = build_hamiltonian(params)
        vectors = np.column_stack([s.coeffs for s in spec.states])
        resid = h.matvec(vectors) - vectors * spec.energies[None, :]
        assert np.sqrt((resid**2).sum(axis=0)).max() <= 1e-8 * h.norm_estimate
        gram = vectors.T @ vectors - np.eye(len(spec.energies))
        assert np.abs(gram).max() <= 1e-8

    @pytest.mark.parametrize("lam", [0.7, -0.8, -1.5])
    def test_parity_at_zero_tilt(self, lam):
        spec = full_spectrum(ModelParams(24, lam, 0.0))
        for state in spec.states:
            v = np.asarray(state.coeffs)
            rev = v[::-1]
            assert min(np.abs(v - rev).max(), np.abs(v + rev).max()) <= 1e-8

    def test_tilt_sign_symmetry(self):
        up = full_spectrum(ModelParams(40, -0.9, 0.3))
        down = full_spectrum(ModelParams(40, -0.9, -0.3))
        assert np.allclose(up.energies, down.energies, atol=1e-10)
        for a, b in zip(up.states, down.states):
            va, vb = np.asarray(a.coeffs), np.asarray(b.coeffs)[::-1]
            assert min(np.abs(va - vb).max(), np.abs(va + vb).max()) <= 1e-8

    def test_cap(self):
        # the guard runs before the Hamiltonian is built
        with pytest.raises(ValueError, match="cap"):
            full_spectrum(ModelParams(FULL_SPECTRUM_CAP + 1, 0.0, 0.0))


class TestParityBlocks:
    """Zero tilt: the even and odd blocks are solved apart and unfolded."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_spectrum_matches_dense(self, n):
        # both parities of j, and the one-row blocks at N = 1 and 2
        for lam in (-1.4, -0.9, 0.0, 3.0):
            spec = full_spectrum(ModelParams(n, lam, 0.0))
            dense = np.linalg.eigvalsh(dense_hamiltonian(n, lam, 0.0))
            assert np.allclose(spec.energies, dense, rtol=0.0, atol=1e-10)
            for state in spec.states:
                v = np.asarray(state.coeffs)
                assert np.array_equal(v, v[::-1]) or np.array_equal(v, -v[::-1])

    @pytest.mark.parametrize("n", [200, 201])
    @pytest.mark.parametrize("lam", [-1.4, -0.9, 4.0])
    def test_low_spectrum_keeps_the_full_window(self, n, lam):
        params = ModelParams(n, lam, 0.0)
        energies, vectors = josephson.low_spectrum(params, 1.5)
        # the window T = 1.5 occupies, solved on the full H
        window = -math.log(josephson.THERMAL_WEIGHT_CUTOFF) * 1.5
        h = build_hamiltonian(params)
        e0 = eigh_tridiagonal(
            h.diag, h.offdiag, eigvals_only=True, select="i", select_range=(0, 0),
            lapack_driver="stebz",
        )[0]
        margin = RESIDUAL_TOL * h.norm_estimate
        want_e, want_v = eigh_tridiagonal(
            h.diag, h.offdiag, select="v", lapack_driver="stemr",
            select_range=(e0 - margin, e0 + window + margin),
        )
        assert len(energies) == len(want_e) > 1
        assert np.abs(energies - want_e).max() <= 1e-12 * h.norm_estimate
        # same states: the projectors on the kept subspaces agree
        assert np.abs(vectors @ vectors.T - want_v @ want_v.T).max() <= 1e-8

    def test_doublet_order_follows_the_rounded_energies(self):
        # at (1000, -1.3) the odd member of the ground doublet rounds below
        # the even one, so it is column 0; whichever comes first, column 0
        # has definite parity
        spec = full_spectrum(ModelParams(1000, -1.3, 0.0))
        v = np.asarray(spec.states[0].coeffs)
        assert np.array_equal(v, v[::-1]) or np.array_equal(v, -v[::-1])

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_ferromagnetic_ground_state_is_even(self, n):
        # lam < -1: the odd partner lies within rounding of the ground level
        _, state = ground_state(ModelParams(n, -1.4, 0.0))
        v = np.asarray(state.coeffs)
        assert np.array_equal(v, v[::-1])
        assert compute_moments(state).jz == 0.0

    @pytest.mark.parametrize("n", [40, 41])
    def test_ground_state_solves_the_even_block_once(self, monkeypatch, n):
        sizes = []

        def recording(diag, *args):
            sizes.append(len(diag))
            return ground_pair(diag, *args)

        monkeypatch.setattr(josephson, "_ground_pair", recording)
        ground_state(ModelParams(n, -0.7, 0.0))
        assert sizes == [n // 2 + 1]

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("n", [30, 31])
    def test_unfolded_vectors_checked_against_full_h(self, monkeypatch, block, n):
        # a defect in either block's solve shows in the m-basis checks
        params = ModelParams(n, -0.9, 0.0)
        shift = 2 * RESIDUAL_TOL * build_hamiltonian(params).norm_estimate
        for corrupt, match in (
            (lambda w, v: (w + shift, v), "residual"),
            (lambda w, v: (w, v * (1 + 1e-6)), "orthonormality"),
        ):
            calls = []

            def perturbed(*args, **kwargs):
                w, v = eigh_tridiagonal(*args, **kwargs)
                calls.append(None)
                return corrupt(w, v) if len(calls) == block else (w, v)

            monkeypatch.setattr(josephson, "eigh_tridiagonal", perturbed)
            with pytest.raises(ConvergenceError, match=match):
                full_spectrum(params)


class TestThermalEnsemble:
    def test_zero_temperature(self):
        params = ModelParams(50, -0.5, 0.0)
        ens = thermal_ensemble(params, 0.0)
        assert len(ens.states) == 1
        assert ens.weights[0] == 1.0
        _, gs = ground_state(params)
        assert np.allclose(ens.states[0].coeffs, gs.coeffs)

    def test_infinite_temperature_uniform(self):
        ens = thermal_ensemble(ModelParams(6, 1.0, 0.0), math.inf)
        assert len(ens.states) == 7
        assert np.allclose(ens.weights, 1 / 7)

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("lam, delta", [(-1.4, 0.0), (0.5, 0.0), (2.0, -0.3)])
    def test_infinite_temperature_is_closed_form(self, n, lam, delta, monkeypatch):
        # I / (N + 1) in any basis: the full-spectrum mixture, and the scan's
        # closed form, without a solve
        params = ModelParams(n, lam, delta)
        spec = full_spectrum(params)
        want = ensemble_moments(StateEnsemble(spec.states, np.full(n + 1, 1.0 / (n + 1))))
        uniform = scan._column_moments(
            ScanSpec(n, (lam,), "thermal", "temperature", (math.inf,)), lam, False, None, None
        )[0]

        def refuse(*args, **kwargs):
            raise AssertionError("T = inf must not diagonalize")

        monkeypatch.setattr(josephson, "full_spectrum", refuse)
        monkeypatch.setattr(josephson, "low_spectrum", refuse)
        got = ensemble_moments(thermal_ensemble(params, math.inf))
        for ref in (want, uniform):
            assert np.allclose(astuple(got), astuple(ref), rtol=0, atol=1e-12)

    def test_low_temperature_ground_moments(self):
        params = ModelParams(60, 0.5, 0.0)
        cold = ensemble_moments(thermal_ensemble(params, 1e-4))
        _, gs = ground_state(params)
        ref = compute_moments(gs)
        assert cold.jx == pytest.approx(ref.jx, rel=1e-8)
        assert cold.jz2 == pytest.approx(ref.jz2, rel=1e-8)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_ensemble(ModelParams(10, 0.0, 0.0), -0.1)

    def test_rejects_nan_temperature(self):
        # NaN must not reach stemr, which fails on it with a ConvergenceError
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            thermal_ensemble(ModelParams(10, 0.0, 0.0), math.nan)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_low_spectrum_needs_a_finite_nonnegative_temperature(self, t):
        # T = inf occupies every level: thermal_ensemble's closed form
        with pytest.raises(ValueError, match="finite temperature >= 0"):
            josephson.low_spectrum(ModelParams(10, 0.0, 0.0), t)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_low_spectrum_refuses_an_overflowed_hamiltonian(self, delta):
        # lambda = 1e306 at N = 1000 puts inf on the diagonal; E0's ground
        # solve refuses it with the package's one finiteness check
        with pytest.raises(ValueError, match="^lam and every tilt must give a finite Hamiltonian$"):
            josephson.low_spectrum(ModelParams(1000, 1e306, delta), 1.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_subnormal_temperature_weights(self, t):
        # every gap over T overflows to inf, whose weight is the exact 0;
        # a RuntimeWarning would fail the test
        energies = np.array([-3.0, -3.0, -1.5, 2.0])
        assert boltzmann_weights(energies, t).tolist() == [0.5, 0.5, 0.0, 0.0]
        assert boltzmann_weights(energies[1:], t).tolist() == [1.0, 0.0, 0.0]

    def test_matches_closed_form_squeezing(self):
        # N = 1000, lam = -0.5, T = 1 against the coth formula (5% band)
        n = 1000
        ens = thermal_ensemble(ModelParams(n, -0.5, 0.0), 1.0)
        xi2 = phase_squeezing(ensemble_moments(ens), n)
        assert xi2 == pytest.approx(thermal_xi2(-0.5, 1.0), rel=0.05)

    def test_weights_are_boltzmann(self):
        params = ModelParams(12, 0.8, 0.0)
        t = 0.7
        ens = thermal_ensemble(params, t)
        spec = full_spectrum(params)
        want = np.exp(-(spec.energies - spec.energies[0]) / t)
        want /= want.sum()
        assert np.allclose(ens.weights, want[: len(ens.weights)], atol=1e-12)


def traced(solve):
    """``solve()``'s result, the peak of the memory it traced, and the traced
    bytes still allocated once it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        result = solve()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, retained


class TestWindowMemory:
    """A window holds its K columns, not LAPACK's (n, n) array or copies of
    the block."""

    def test_zero_tilt_window_peak(self):
        josephson.low_spectrum(ModelParams(20, -1.0), 3.5)  # scipy loaded first
        params = ModelParams(2000, -1.0)
        (_, vectors), peak, _ = traced(lambda: josephson.low_spectrum(params, 3.5))
        # LAPACK's (n, n) array of one parity block at a time, plus three
        # window-sized temporaries
        assert vectors.shape[1] > 200
        assert peak <= 8 * 1001 ** 2 + 3 * vectors.nbytes

    def test_tilted_states_hold_only_their_window(self):
        ens = thermal_ensemble(ModelParams(1000, 0.5, 0.05), 1.0)
        k = len(ens.states)
        assert 1 < k < 1001
        for state in ens.states:
            owner = state.coeffs if state.coeffs.base is None else state.coeffs.base
            assert owner.size <= 1001 * k

    def test_tilt_mixture_retains_only_its_states(self):
        thermal_ensemble(ModelParams(1000, 0.5, 0.05), 1.0)  # caches filled first
        ens, _, retained = traced(lambda: delta_thermal_mixture(1000, 0.5, 0.05, 1.0, order=11))
        own = sum(state.coeffs.nbytes for state in ens.states)
        assert len(ens.states) > 300
        assert retained < 0.75 * own  # each mirror is a view of its node's state

    def test_delta_mixture_retains_only_its_states(self):
        ground_state(ModelParams(1000, 0.5, 0.05))  # caches filled first
        ens, _, retained = traced(lambda: delta_mixture(1000, 0.5, 0.05))
        own = sum(state.coeffs.nbytes for state in ens.states)
        assert len(ens.states) > 40
        assert retained < 0.75 * own  # each mirror is a view of its node's state

    def test_ground_scan_holds_one_diagonal_block(self):
        # a warm 8-lambda block at large N holds one (block x N) diagonal
        # array and the vectors; the residual's temporaries lift it to about
        # 4.3 such arrays, and the renormalization divides in place
        n, lams = 250_000, np.linspace(-1.3, 2.0, 8)
        _ladder(n)  # cached, as every block after a scan's first finds it
        ground_state(ModelParams(20, 0.5))  # scipy loaded first
        _, peak, _ = traced(lambda: ground_states(n, lams, 0.0))
        assert peak < 4.8 * 8 * (n + 1) * 8


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(josephson.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


class TestLazyLapack:
    """The LAPACK entry points are bound at the first solve, and stay plain
    module attributes: readable, patchable and restorable before it."""

    def test_names_resolve_to_scipy_and_restore(self):
        code = """
import sys
from bellfringe import josephson as j
names = ("eigh_tridiagonal", "dstebz", "dstein")
print(hasattr(j, "no_such_name"), "scipy.linalg" in sys.modules)
try:
    getattr(j, "no_such_name")
except AttributeError as exc:
    print(type(exc).__name__)
original = getattr(j, "eigh_tridiagonal")  # the tracer's set-and-restore
setattr(j, "eigh_tridiagonal", print)
setattr(j, "eigh_tridiagonal", original)
import scipy.linalg, scipy.linalg.lapack as lapack
print([getattr(j, n) is o for n, o in zip(names, (scipy.linalg.eigh_tridiagonal,
                                                  lapack.dstebz, lapack.dstein))])
"""
        assert run_fresh(code).splitlines() == [
            "False False", "AttributeError", "[True, True, True]"
        ]

    @pytest.mark.parametrize("solve", [
        "full_spectrum(ModelParams(6, 0.5, 0.1))",
        "full_spectrum(ModelParams(6, 0.5, 0.0))",
        "ground_state(ModelParams(6, 0.5, 0.1))",
        "josephson.low_spectrum(ModelParams(6, 0.5, 0.0), 1.0)",
    ])
    def test_every_entry_point_binds_the_names(self, solve):
        code = f"""
import sys
from bellfringe import ModelParams, full_spectrum, ground_state, josephson
print("scipy.linalg" in sys.modules, end=" ")
{solve}
print("scipy.linalg" in sys.modules)
"""
        assert run_fresh(code) == "False True"

    def test_patch_before_the_first_solve_survives_it(self):
        code = """
import scipy.linalg
from bellfringe import ModelParams, full_spectrum, josephson as j
sizes = []
def spy(diag, *args, **kwargs):
    sizes.append(len(diag))
    return scipy.linalg.eigh_tridiagonal(diag, *args, **kwargs)
j.eigh_tridiagonal = spy  # before the first solve binds the names
full_spectrum(ModelParams(6, 0.5, 0.1))
full_spectrum(ModelParams(6, 0.5, 0.0))
print(sizes, j.eigh_tridiagonal is spy)
"""
        assert run_fresh(code) == "[7, 4, 3] True"
