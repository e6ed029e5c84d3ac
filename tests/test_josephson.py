import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from bellfringe import (
    ConvergenceError,
    ModelParams,
    SpinState,
    build_basis,
    build_hamiltonian,
    compute_moments,
    delta_mixture,
    delta_mixture_moments,
    ensemble_moments,
    full_spectrum,
    ground_state,
    ground_states,
    phase_squeezing,
    thermal_ensemble,
    thermal_xi2,
    visibility,
)
from bellfringe import josephson
from bellfringe.josephson import (
    FULL_SPECTRUM_CAP,
    RESIDUAL_TOL,
    SIGN_TIE_RTOL,
    SymTridiag,
    _fix_signs,
    boltzmann_weights,
)

from oracles import dense_hamiltonian, dense_moments

# the ground-solve kernel, kept before any test patches it
lowest_pair = josephson._lowest_pair


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


class TestSymTridiag:
    def block(self):
        """Three Hamiltonians sharing an off-diagonal: one diagonal per column."""
        h0 = build_hamiltonian(ModelParams(7, -1.2, 0.0))
        tilts = np.array([0.0, 0.3, -2.0])
        m = build_basis(7).m_values
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
        basis = build_basis(n)
        for k, delta in enumerate(TILTS):
            dense_e, dense_v = np.linalg.eigh(dense_hamiltonian(n, lam, delta))
            assert energies[k] == pytest.approx(dense_e[0], abs=1e-10)
            got = compute_moments(SpinState(basis, vectors[:, k]))
            want = dense_moments(n, dense_v[:, 0])
            for name, value in want.items():
                assert getattr(got, name) == pytest.approx(value, rel=1e-10, abs=1e-10)

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
            w, v = lowest_pair(*args)
            calls.append(None)
            return (w + shift, v) if len(calls) == corrupt + 1 else (w, v)

        monkeypatch.setattr(josephson, "_lowest_pair", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            ground_states(n, lam, tilts)

    def test_unnormalized_column_raises(self, monkeypatch):
        calls = []

        def stretched(*args):
            w, v = lowest_pair(*args)
            calls.append(None)
            return (w, v * (1 + 1e-6)) if len(calls) == 3 else (w, v)

        monkeypatch.setattr(josephson, "_lowest_pair", stretched)
        with pytest.raises(ConvergenceError, match="orthonormality"):
            ground_states(40, -0.5, TILTS)

    def test_corrupted_node_fails_the_mixture(self, monkeypatch):
        calls = []

        def perturbed(*args):
            w, v = lowest_pair(*args)
            calls.append(None)
            return (w + 1e-3, v) if len(calls) == 30 else (w, v)

        monkeypatch.setattr(josephson, "_lowest_pair", perturbed)
        with pytest.raises(ConvergenceError):
            delta_mixture_moments(40, -0.5, 0.05)

    @pytest.mark.parametrize("mixture", [delta_mixture, delta_mixture_moments])
    def test_first_doubling_solves_41_nodes(self, monkeypatch, mixture):
        # orders 41 and 81 have 21 and 41 positive nodes; the 21 coarse ones
        # are every other node of order 81, so the doubling solves 20 more
        n, lam, sigma = 12, 8.0, 0.02
        assert len(delta_mixture(n, lam, sigma).states) == 82
        calls = []

        def counting(*args):
            calls.append(None)
            return lowest_pair(*args)

        monkeypatch.setattr(josephson, "_lowest_pair", counting)
        mixture(n, lam, sigma)
        assert len(calls) == 21 + 20


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
            return lowest_pair(diag, *args)

        monkeypatch.setattr(josephson, "_lowest_pair", recording)
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
        # T = inf occupies every level: that is full_spectrum, capped there
        with pytest.raises(ValueError, match="finite temperature >= 0"):
            josephson.low_spectrum(ModelParams(10, 0.0, 0.0), t)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_low_spectrum_refuses_an_overflowed_hamiltonian(self, delta):
        # lambda = 1e306 at N = 1000 puts inf on the diagonal; stebz has no
        # finiteness check, so low_spectrum makes eigh_tridiagonal's
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
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
