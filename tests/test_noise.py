import math

import numpy as np
import pytest

from bellfringe import (
    ModelParams,
    bell_witness,
    blur_visibility,
    compute_moments,
    delta_mixture,
    delta_mixture_moments,
    delta_thermal_mixture,
    ensemble_moments,
    ground_state,
    phase_squeezing,
    split_gaussian_rule,
    thermal_ensemble,
    visibility,
)
from bellfringe import josephson
from bellfringe.noise import delta_column_moments
from oracles import tanh_sinh_delta_moments

# the ground-solve kernel, kept before any test patches it
lowest_pair = josephson._lowest_pair


class TestSplitGaussianRule:
    # the exp-sinh panel reaches 2e-11 on these at 81 points per
    # half-axis (4e-4 at 31)
    def test_moments_of_gaussian(self):
        sigma = 0.4
        rule = split_gaussian_rule(81, sigma)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.dot(rule.weights, rule.nodes) == pytest.approx(0.0, abs=1e-14)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(
            sigma**2, rel=1e-10
        )
        assert np.dot(rule.weights, rule.nodes**4) == pytest.approx(
            3 * sigma**4, rel=1e-10
        )

    def test_handles_kink_at_origin(self):
        # integrates sign-discontinuous functions exactly where a global
        # rule cannot: E[|x|] = sigma sqrt(2/pi)
        sigma = 0.7
        rule = split_gaussian_rule(81, sigma)
        want = sigma * math.sqrt(2.0 / math.pi)
        assert np.dot(rule.weights, np.abs(rule.nodes)) == pytest.approx(
            want, rel=1e-10
        )

    def test_nodes_symmetric_and_nonzero(self):
        rule = split_gaussian_rule(15, 1.0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1])
        assert np.all(rule.nodes[15:] > 0.0)

    @pytest.mark.parametrize("half", [2, 6, 11, 21, 41, 81, 161, 321])
    def test_coarse_nodes_are_every_other_fine_node(self, half):
        # node doubling reuses every coarse solve, so the nesting is exact
        fine = 2 * half - 1
        coarse = split_gaussian_rule(half, 0.06).nodes[half:]
        assert np.array_equal(coarse, split_gaussian_rule(fine, 0.06).nodes[fine:][::2])


class TestDeltaMixture:
    def test_zero_sigma_is_pure(self):
        ens = delta_mixture(40, -0.5, 0.0)
        assert len(ens.states) == 1
        _, gs = ground_state(ModelParams(40, -0.5, 0.0))
        assert np.allclose(ens.states[0].coeffs, gs.coeffs)

    def test_symmetry_restored_on_average(self):
        # the tilt averages out: <Jz> and <Jy> of the mixture vanish
        m = ensemble_moments(delta_mixture(60, -0.8, 0.05))
        assert m.jz == pytest.approx(0.0, abs=1e-10)
        assert m.jy == 0.0

    def test_degrades_witness(self):
        n = 100
        clean = ensemble_moments(delta_mixture(n, -0.9, 0.0))
        noisy = ensemble_moments(delta_mixture(n, -0.9, 0.05))
        b_clean = bell_witness(phase_squeezing(clean, n), visibility(clean, n))
        b_noisy = bell_witness(phase_squeezing(noisy, n), visibility(noisy, n))
        assert b_noisy > b_clean

    @pytest.mark.parametrize("lam, sigma", [(-1.2, 0.03), (-0.7, 0.05), (3.0, 0.1)])
    def test_moments_match_the_mixture(self, lam, sigma):
        # the closed-form mirror half against the states delta_mixture builds
        n = 50
        got = delta_mixture_moments(n, lam, sigma)
        want = ensemble_moments(delta_mixture(n, lam, sigma))
        for name in ("jx", "jy", "jx2", "jy2", "jz2"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
        assert got.jz == 0.0 and abs(want.jz) < 1e-10

    def test_converged_against_high_order(self):
        n = 80
        low = ensemble_moments(delta_mixture(n, -0.7, 0.03, order=41))
        high = ensemble_moments(delta_mixture(n, -0.7, 0.03, order=121, check=False))
        assert low.jx == pytest.approx(high.jx, rel=1e-6)
        assert low.jy2 == pytest.approx(high.jy2, rel=1e-6)
        assert low.jz2 == pytest.approx(high.jz2, rel=1e-6)

    @pytest.mark.parametrize("order", [0, -3, 10])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError):
            delta_mixture(10, 0.0, 0.1, order=order)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            delta_mixture(10, 0.0, -0.1)

    def test_order_one_has_no_doubling_check(self):
        # doubling order 1 gives 2 * 1 - 1 = 1: the check would compare a
        # level with itself, so it is refused; unchecked order 1 still runs
        with pytest.raises(ValueError, match="order >= 3"):
            delta_mixture(200, -1.03, 0.06, order=1)
        assert len(delta_mixture(200, -1.03, 0.06, order=1, check=False).states) == 2


class TestDeltaColumn:
    def test_one_sigma_column_is_delta_mixture_moments(self):
        n, lam = 60, -1.1
        ground, mixed = delta_column_moments(n, lam, [0.0, 0.04])
        assert mixed == delta_mixture_moments(n, lam, 0.04)
        assert ground == compute_moments(ground_state(ModelParams(n, lam, 0.0))[1])

    @pytest.mark.parametrize("lam", [-1.2, -1.03, 0.5, 8.0])
    def test_shared_grid_matches_per_sigma_oracle(self, lam):
        # the column solves on the widest sigma's panel; the oracle gives
        # each sigma its own fine panel and dense ground states
        n, sigmas = 40, (0.01, 0.05, 0.1)
        for sigma, got in zip(sigmas, delta_column_moments(n, lam, sigmas)):
            want = tanh_sinh_delta_moments(n, lam, sigma)
            got = [got.jx, got.jy, got.jz, got.jx2, got.jy2, got.jz2]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), sigma

    def test_transition_point_converges(self, monkeypatch):
        # next to the transition the moments change fastest around zero tilt
        calls = []

        def counting(*args):
            calls.append(None)
            return lowest_pair(*args)

        monkeypatch.setattr(josephson, "_lowest_pair", counting)
        moments = delta_mixture_moments(1000, -1.03, 0.06)
        assert len(calls) == 81
        assert 0.0 < moments.jx < 500.0

    def test_widths_far_apart_get_their_own_grids(self):
        # a sigma_delta 1e-116 times the widest would get no node on its panel
        n, lam = 20, -1.2
        tiny, wide = delta_column_moments(n, lam, [1e-116, 0.25])
        assert tiny == delta_mixture_moments(n, lam, 1e-116)
        assert wide == delta_mixture_moments(n, lam, 0.25)

    def test_rejects_negative_and_nan_sigma(self):
        for sigmas in ([0.1, -0.1], [math.nan]):
            with pytest.raises(ValueError, match="nonnegative"):
                delta_column_moments(10, 0.0, sigmas)


class TestDeltaThermalMixture:
    def test_reduces_to_thermal(self):
        n = 30
        combined = ensemble_moments(delta_thermal_mixture(n, 0.5, 0.0, 0.8))
        thermal = ensemble_moments(thermal_ensemble(ModelParams(n, 0.5, 0.0), 0.8))
        assert combined.jx == pytest.approx(thermal.jx, abs=1e-12)
        assert combined.jy2 == pytest.approx(thermal.jy2, abs=1e-12)

    def test_reduces_to_delta_mixture(self):
        n = 30
        combined = ensemble_moments(delta_thermal_mixture(n, -0.6, 0.04, 0.0))
        pure = ensemble_moments(delta_mixture(n, -0.6, 0.04, check=False))
        assert combined.jx == pytest.approx(pure.jx, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_rejects_negative_sigma(self, t):
        with pytest.raises(ValueError, match="sigma_delta must be nonnegative"):
            delta_thermal_mixture(40, -0.5, -0.05, t)

    def test_combined_weights_normalized(self):
        ens = delta_thermal_mixture(20, -0.4, 0.03, 0.5, order=11)
        assert np.sum(ens.weights) == pytest.approx(1.0, abs=1e-12)

    def test_both_channels_degrade_more(self):
        n = 60
        lam = -0.9

        def b_of(ens):
            m = ensemble_moments(ens)
            return bell_witness(phase_squeezing(m, n), visibility(m, n))

        b_t = b_of(delta_thermal_mixture(n, lam, 0.0, 0.3))
        b_d = b_of(delta_thermal_mixture(n, lam, 0.03, 0.0, order=21))
        b_both = b_of(delta_thermal_mixture(n, lam, 0.03, 0.3, order=21))
        assert b_both > max(b_t, b_d)


class TestBlur:
    def test_identity_at_zero(self):
        assert blur_visibility(0.8, 2.0, 0.0) == 0.8

    def test_closed_form(self):
        assert blur_visibility(1.0, 2.0, 0.5) == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )

    def test_composition(self):
        # two blurs compose by adding variances
        one = blur_visibility(blur_visibility(0.9, 1.5, 0.2), 1.5, 0.3)
        both = blur_visibility(0.9, 1.5, math.sqrt(0.04 + 0.09))
        assert one == pytest.approx(both, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            blur_visibility(1.2, 1.0, 0.1)
