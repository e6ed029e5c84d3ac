import math

import numpy as np
import pytest

from bellfringe import (
    ModelParams,
    SpinState,
    StateEnsemble,
    build_basis,
    compute_moments,
    ensemble_moments,
    ground_state,
    ladder_coefficient,
    moment_table,
    rotate_pi2_about_x,
)

from oracles import dense_moments, dense_rotated_moments, random_real_state


def coherent_x_state(n):
    # ground state of -Jx, i.e. the lam = 0, delta = 0 junction
    _, state = ground_state(ModelParams(n, 0.0, 0.0))
    return state


class TestBuildBasis:
    def test_n2(self):
        basis = build_basis(2)
        assert basis.j == 1.0
        assert np.array_equal(basis.m_values, [-1.0, 0.0, 1.0])

    def test_n1_half_integer(self):
        basis = build_basis(1)
        assert np.array_equal(basis.m_values, [-0.5, 0.5])

    def test_n1000(self):
        basis = build_basis(1000)
        assert len(basis.m_values) == 1001
        assert basis.j == 500.0

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            build_basis(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            build_basis(2.5)

    def test_m_values_unit_step_symmetric(self):
        for n in (1, 2, 5, 8):
            m = build_basis(n).m_values
            assert np.allclose(np.diff(m), 1.0)
            assert np.allclose(m, -m[::-1])


class TestLadderCoefficient:
    def test_n2_center(self):
        basis = build_basis(2)
        assert ladder_coefficient(basis, 0.0) == pytest.approx(math.sqrt(2) / 2)

    def test_symmetry(self):
        basis = build_basis(2)
        assert ladder_coefficient(basis, -1.0) == pytest.approx(
            ladder_coefficient(basis, 0.0)
        )

    def test_n1000_center(self):
        basis = build_basis(1000)
        assert ladder_coefficient(basis, 0.0) == pytest.approx(
            0.5 * math.sqrt(500 * 501), abs=1e-9
        )

    def test_out_of_range(self):
        basis = build_basis(2)
        with pytest.raises(ValueError):
            ladder_coefficient(basis, 1.0)  # m+1 = 2 outside the ladder


class TestComputeMoments:
    def test_coherent_state(self):
        n = 12
        m = compute_moments(coherent_x_state(n))
        assert m.jx == pytest.approx(n / 2, abs=1e-10)
        assert m.jy == 0.0
        assert m.jy2 == pytest.approx(n / 4, abs=1e-9)
        assert m.jz2 == pytest.approx(n / 4, abs=1e-9)

    def test_stretched_state(self):
        n = 6
        basis = build_basis(n)
        coeffs = np.zeros(n + 1)
        coeffs[-1] = 1.0  # |j, m=j>
        m = compute_moments(SpinState(basis, coeffs))
        j = n / 2
        assert m.jx == 0.0
        assert m.jz == pytest.approx(j)
        assert m.jz2 == pytest.approx(j * j)

    def test_rejects_unnormalized(self):
        basis = build_basis(4)
        with pytest.raises(ValueError, match="normalized"):
            compute_moments(SpinState(basis, np.full(5, 1.0)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        basis = build_basis(n)
        for _ in range(5):
            psi = random_real_state(n, rng)
            got = compute_moments(SpinState(basis, psi))
            want = dense_moments(n, psi)
            for key in want:
                assert getattr(got, key) == pytest.approx(want[key], abs=1e-10), key

    @pytest.mark.parametrize("n", [1, 3, 7, 20, 101])
    def test_casimir_identity(self, n):
        rng = np.random.default_rng(n)
        basis = build_basis(n)
        j = n / 2
        for _ in range(3):
            m = compute_moments(SpinState(basis, random_real_state(n, rng)))
            assert m.jx2 + m.jy2 + m.jz2 == pytest.approx(j * (j + 1), abs=1e-9)

    def test_jy_zero_for_real_states(self):
        rng = np.random.default_rng(5)
        basis = build_basis(9)
        m = compute_moments(SpinState(basis, random_real_state(9, rng)))
        assert m.jy == 0.0


class TestMomentTable:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_columns_match_dense_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        block = np.column_stack([random_real_state(n, rng) for _ in range(6)])
        table = moment_table(build_basis(n), block)
        assert table.shape == (6, 6)
        for row, psi in zip(table, block.T):
            want = dense_moments(n, psi)
            got = dict(zip(("jx", "jy", "jz", "jx2", "jy2", "jz2"), row))
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-10), key

    def test_rejects_unnormalized_column(self):
        basis = build_basis(4)
        block = np.column_stack([coherent_x_state(4).coeffs, np.full(5, 1.0)])
        with pytest.raises(ValueError, match="normalized"):
            moment_table(basis, block)

    def test_ensemble_matches_weighted_loop(self):
        # reference: the weighted per-state sum ensemble_moments replaced
        rng = np.random.default_rng(17)
        basis = build_basis(30)
        states = tuple(SpinState(basis, random_real_state(30, rng)) for _ in range(9))
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
        basis = build_basis(n)
        up = np.zeros(n + 1)
        up[-1] = 1.0
        down = np.zeros(n + 1)
        down[0] = 1.0
        ens = StateEnsemble(
            (SpinState(basis, up), SpinState(basis, down)), np.array([0.5, 0.5])
        )
        m = ensemble_moments(ens)
        assert m.jz == pytest.approx(0.0)
        assert m.jz2 == pytest.approx((n / 2) ** 2)

    def test_rejects_bad_weights(self):
        state = coherent_x_state(4)
        with pytest.raises(ValueError):
            StateEnsemble((state,), np.array([0.5]))
        with pytest.raises(ValueError):
            StateEnsemble((state, state), np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            StateEnsemble((), np.array([]))


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
        basis = build_basis(7)
        m = compute_moments(SpinState(basis, random_real_state(7, rng)))
        r = m
        for _ in range(4):
            r = rotate_pi2_about_x(r)
        assert r == m
