import math

import numpy as np
import pytest

from bellfringe import (
    ModelParams,
    SpinState,
    StateEnsemble,
    compute_moments,
    ensemble_moments,
    ground_state,
    moment_table,
    rotate_pi2_about_x,
)

from bellfringe.spin_core import _ladder
from oracles import dense_moments, dense_rotated_moments, random_real_state


def coherent_x_state(n):
    # ground state of -Jx, i.e. the lam = 0, delta = 0 junction
    _, state = ground_state(ModelParams(n, 0.0, 0.0))
    return state


class TestBuildBasis:
    """The Dicke ladder m = -j ... j that N fixes, as ``_ladder`` builds it."""

    def test_n2(self):
        m = _ladder(2)[0]
        assert -m[0] == 1.0  # j
        assert np.array_equal(m, [-1.0, 0.0, 1.0])

    def test_n1_half_integer(self):
        assert np.array_equal(_ladder(1)[0], [-0.5, 0.5])

    def test_n1000(self):
        m = _ladder(1000)[0]
        assert len(m) == 1001
        assert -m[0] == m[-1] == 500.0  # j

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive(self, bad):
        _ladder(1), _ladder(2)  # a cached N must not answer for a bad one
        with pytest.raises(ValueError, match=">= 1"):
            _ladder(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            _ladder(2.5)

    @pytest.mark.parametrize("bad", [2.0, True, np.float64(1.0)])
    def test_rejects_non_integer_equal_to_a_cached_n(self, bad):
        # 2.0 and True hash like 2 and 1: the cache must not serve them
        _ladder(1), _ladder(2)
        with pytest.raises(TypeError, match="integer"):
            _ladder(bad)

    def test_m_values_unit_step_symmetric(self):
        for n in (1, 2, 5, 8):
            m = _ladder(n)[0]
            assert np.allclose(np.diff(m), 1.0)
            assert np.allclose(m, -m[::-1])


class TestComputeMoments:
    def test_rejects_nan_coefficient(self):
        with pytest.raises(ValueError, match="not normalized"):
            compute_moments(SpinState(np.array([math.nan, 1.0, 0.0])))

    def test_coherent_state(self):
        n = 12
        m = compute_moments(coherent_x_state(n))
        assert m.jx == pytest.approx(n / 2, abs=1e-10)
        assert m.jy == 0.0
        assert m.jy2 == pytest.approx(n / 4, abs=1e-9)
        assert m.jz2 == pytest.approx(n / 4, abs=1e-9)

    def test_stretched_state(self):
        n = 6
        coeffs = np.zeros(n + 1)
        coeffs[-1] = 1.0  # |j, m=j>
        m = compute_moments(SpinState(coeffs))
        j = n / 2
        assert m.jx == 0.0
        assert m.jz == pytest.approx(j)
        assert m.jz2 == pytest.approx(j * j)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            compute_moments(SpinState(np.full(5, 1.0)))

    @pytest.mark.parametrize("coeffs", [[1.0], []])
    def test_rejects_fewer_than_two_coefficients(self, coeffs):
        # N = len(coeffs) - 1 must be at least 1
        with pytest.raises(ValueError, match="2 coefficients"):
            SpinState(np.array(coeffs))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            psi = random_real_state(n, rng)
            got = compute_moments(SpinState(psi))
            want = dense_moments(n, psi)
            for key in want:
                assert getattr(got, key) == pytest.approx(want[key], abs=1e-10), key

    @pytest.mark.parametrize("n", [1, 3, 7, 20, 101])
    def test_casimir_identity(self, n):
        rng = np.random.default_rng(n)
        j = n / 2
        for _ in range(3):
            m = compute_moments(SpinState(random_real_state(n, rng)))
            assert m.jx2 + m.jy2 + m.jz2 == pytest.approx(j * (j + 1), abs=1e-9)

    def test_jy_zero_for_real_states(self):
        rng = np.random.default_rng(5)
        m = compute_moments(SpinState(random_real_state(9, rng)))
        assert m.jy == 0.0


class TestMomentTable:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_columns_match_dense_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        block = np.column_stack([random_real_state(n, rng) for _ in range(6)])
        table = moment_table(block)
        assert table.shape == (6, 6)
        for row, psi in zip(table, block.T):
            want = dense_moments(n, psi)
            got = dict(zip(("jx", "jy", "jz", "jx2", "jy2", "jz2"), row))
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-10), key

    @pytest.mark.parametrize("n", [1, 40, 1001, np.int64(6)])
    def test_ladder_arrays_are_computed_once_and_read_only(self, n):
        m, c, c_pairs, m_squared = _ladder(n)
        assert all(a is b for a, b in zip(_ladder(n), (m, c, c_pairs, m_squared)))
        for a in (m, c, c_pairs, m_squared):
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0.0
        # the arrays moment_table used to compute on every call, bit for bit
        j = n / 2
        assert np.array_equal(m, np.arange(n + 1) - j) and m.dtype == np.float64
        assert np.array_equal(c, 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)))
        assert np.array_equal(c_pairs, c[:-1] * c[1:])
        assert np.array_equal(m_squared, m * m)

    def test_rejects_unnormalized_column(self):
        block = np.column_stack([coherent_x_state(4).coeffs, np.full(5, 1.0)])
        with pytest.raises(ValueError, match="normalized"):
            moment_table(block)

    def test_rejects_one_row_block(self):
        # one row would be N = 0 particles: normalized, but no ladder
        with pytest.raises(ValueError, match=">= 1"):
            moment_table(np.ones((1, 3)))

    def test_ensemble_matches_weighted_loop(self):
        # reference: the weighted per-state sum ensemble_moments replaced
        rng = np.random.default_rng(17)
        states = tuple(SpinState(random_real_state(30, rng)) for _ in range(9))
        weights = rng.random(9)
        weights /= weights.sum()
        want = np.zeros(6)
        for w, st in zip(weights, states):
            m = compute_moments(st)
            want += w * np.array([m.jx, m.jy, m.jz, m.jx2, m.jy2, m.jz2])
        got = ensemble_moments(StateEnsemble(states, weights))
        scale = 30 * 31 / 4
        assert np.allclose(
            [got.jx, got.jy, got.jz, got.jx2, got.jy2, got.jz2],
            want, rtol=0, atol=64 * np.finfo(float).eps * scale,
        )


class TestEnsembleMoments:
    def test_single_element(self):
        state = coherent_x_state(8)
        single = ensemble_moments(StateEnsemble((state,), np.array([1.0])))
        assert single == compute_moments(state)

    def test_equal_mixture_of_poles(self):
        n = 6
        up = np.zeros(n + 1)
        up[-1] = 1.0
        down = np.zeros(n + 1)
        down[0] = 1.0
        ens = StateEnsemble(
            (SpinState(up), SpinState(down)), np.array([0.5, 0.5])
        )
        m = ensemble_moments(ens)
        assert m.jz == pytest.approx(0.0)
        assert m.jz2 == pytest.approx((n / 2) ** 2)

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StateEnsemble((coherent_x_state(4),), np.array([math.nan]))

    def test_rejects_bad_weights(self):
        state = coherent_x_state(4)
        with pytest.raises(ValueError):
            StateEnsemble((state,), np.array([0.5]))
        with pytest.raises(ValueError):
            StateEnsemble((state, state), np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            StateEnsemble((), np.array([]))
        with pytest.raises(ValueError, match="weights do not match states"):
            StateEnsemble((state, state), np.array([1.0]))


class TestRotation:
    def test_coherent_fixed_point(self):
        m = compute_moments(coherent_x_state(10))
        r = rotate_pi2_about_x(m)
        assert r.jx == m.jx
        assert r.jy2 == pytest.approx(m.jz2)
        assert r.jz2 == pytest.approx(m.jy2)

    def test_number_to_phase_squeezing(self):
        # repulsive ground state is number-squeezed; rotation swaps the roles
        n = 40
        _, state = ground_state(ModelParams(n, 10.0, 0.0))
        m = compute_moments(state)
        assert m.jz2 < n / 4 < m.jy2
        r = rotate_pi2_about_x(m)
        assert r.jy2 < n / 4 < r.jz2

    def test_matrix_exponential_oracle(self):
        _, state = ground_state(ModelParams(2, 10.0, 0.0))
        m = rotate_pi2_about_x(compute_moments(state))
        want = dense_rotated_moments(2, np.asarray(state.coeffs), math.pi / 2)
        for key in want:
            assert getattr(m, key) == pytest.approx(want[key], abs=1e-10), key

    def test_fourfold_identity(self):
        rng = np.random.default_rng(11)
        m = compute_moments(SpinState(random_real_state(7, rng)))
        r = m
        for _ in range(4):
            r = rotate_pi2_about_x(r)
        assert r == m
