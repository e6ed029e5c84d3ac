import math

import pytest

from bellfringe import (
    ModelParams,
    analytic_boundary_sigma,
    analytic_boundary_temperature,
    bell_thresholds,
    bell_witness,
    blur_visibility,
    compute_moments,
    ground_state,
    phase_squeezing,
    rotate_pi2_about_x,
    semiclassical_ab,
    thermal_xi2,
    visibility,
)
from bellfringe.analytics import FERRO_EDGE


class TestSemiclassical:
    def test_coherent_point(self):
        pred = semiclassical_ab(0.0)
        assert pred.regime == "repulsive"
        assert pred.xi2 == pred.nu == 1.0
        assert pred.a_param == pytest.approx(0.0, abs=1e-15)
        assert pred.b_param == pytest.approx(0.5, abs=1e-15)

    def test_repulsive_point(self):
        pred = semiclassical_ab(8.0)
        assert pred.xi2 == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert pred.nu == 1.0
        assert pred.b_param == pytest.approx(1.0 / 3.0 - 0.5, abs=1e-14)

    def test_attractive_threshold_exact(self):
        # b = 0 exactly at the middle threshold
        lam = -3.0 / (2.0 * math.sqrt(2.0))
        pred = semiclassical_ab(lam)
        assert pred.regime == "attractive_ferro"
        assert pred.b_param == pytest.approx(0.0, abs=1e-12)

    def test_para_regime(self):
        pred = semiclassical_ab(-0.5)
        assert pred.regime == "attractive_para"
        assert pred.xi2 == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert pred.nu == 1.0

    def test_ferro_visibility(self):
        pred = semiclassical_ab(-1.3)
        assert pred.nu == pytest.approx(1.0 / 1.3, abs=1e-14)
        assert pred.xi2 == pytest.approx(1.3 * math.sqrt(1.69 - 1.0), abs=1e-13)

    @pytest.mark.parametrize("lam", [-1.5, -1.3, -0.9, -0.5, 0.0, 8.0])
    def test_xi2_is_the_zero_temperature_formula(self, lam):
        # one closed form per regime: both read it, bit for bit
        assert semiclassical_ab(lam).xi2 == thermal_xi2(lam, 0.0)

    @pytest.mark.parametrize("lam", [-1.0, -0.999, -1.015])
    def test_breakdown_window(self, lam):
        with pytest.raises(ValueError, match="breakdown"):
            semiclassical_ab(lam)

    def test_validity_edge(self):
        with pytest.raises(ValueError):
            semiclassical_ab(FERRO_EDGE)
        with pytest.raises(ValueError):
            semiclassical_ab(-2.0)

    @pytest.mark.parametrize("lam", [-1.3, -0.5, 0.0, 4.0, 8.0])
    def test_matches_exact_diagonalization(self, lam):
        # finite-size check at N = 1000, 2% band away from the transition
        n = 1000
        _, state = ground_state(ModelParams(n, lam, 0.0))
        m = compute_moments(state)
        if lam > 0:
            m = rotate_pi2_about_x(m)
        pred = semiclassical_ab(lam)
        assert phase_squeezing(m, n) == pytest.approx(pred.xi2, rel=0.02)
        assert visibility(m, n) == pytest.approx(pred.nu, rel=0.02)


class TestThermalSqueezing:
    def test_zero_temperature_limit(self):
        assert thermal_xi2(8.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert thermal_xi2(-0.5, 0.0) == pytest.approx(math.sqrt(0.5), abs=1e-14)

    def test_coth_value(self):
        # lam = 8: omega = 3, xi0^2 = 1/3
        t = 1.5
        want = (1.0 / 3.0) / math.tanh(1.5 / t)
        assert thermal_xi2(8.0, t) == pytest.approx(want, rel=1e-14)

    def test_monotone_in_temperature(self):
        vals = [thermal_xi2(3.0, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_high_temperature_linear(self):
        # coth(x) ~ 1/x: xi^2 -> 2 T xi0^2 / omega
        t = 1e4
        assert thermal_xi2(8.0, t) == pytest.approx(2 * t / 9, rel=1e-7)

    def test_ferro_branch(self):
        omega = math.sqrt(1.3**2 - 1.0)
        want = 1.3 * omega / math.tanh(0.5 * omega / 0.4)
        assert thermal_xi2(-1.3, 0.4) == pytest.approx(want, rel=1e-14)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            thermal_xi2(1.0, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_temperature(self, t):
        # NaN used to come back as NaN, and inf to divide by tanh(0) = 0
        with pytest.raises(ValueError, match="temperature must be nonnegative and finite"):
            thermal_xi2(0.5, t)

    def test_branch_boundary(self):
        with pytest.raises(ValueError):
            thermal_xi2(-1.0, 0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
@pytest.mark.parametrize(
    "closed_form",
    [
        semiclassical_ab,
        lambda lam: thermal_xi2(lam, 0.5),
        analytic_boundary_temperature,
        lambda lam: analytic_boundary_sigma(lam, 1.0),
    ],
)
def test_non_finite_lambda_is_refused(closed_form, lam):
    # no closed form reads a NaN or an infinite lambda as a regime
    with pytest.raises(ValueError, match="must be finite"):
        closed_form(lam)


class TestThresholds:
    def test_values(self):
        t1, t2, t3 = bell_thresholds()
        assert t1 == -0.75
        assert t2 == pytest.approx(-3.0 / (2.0 * math.sqrt(2.0)), abs=1e-15)
        assert t3 == 3.0

    def test_witness_changes_sign_across_each(self):
        t1, t2, t3 = bell_thresholds()
        eps = 1e-4

        def b_at(lam):
            p = semiclassical_ab(lam)
            return p.b_param

        assert b_at(t1 + eps) > 0 > b_at(t1 - eps)
        assert b_at(t2 - eps) > 0 > b_at(t2 + eps)
        assert b_at(t3 - eps) > 0 > b_at(t3 + eps)


class TestBoundarySolvers:
    def test_temperature_closed_form(self):
        # xi^2(T*) = 1/2 gives T* = omega / (2 atanh(2 xi0^2))
        for lam in (8.0, 5.0, -0.8):
            pred_xi0 = thermal_xi2(lam, 0.0)
            omega = 3.0 if lam == 8.0 else math.sqrt(1.0 + lam) if lam > -1 else None
            t_star = analytic_boundary_temperature(lam)
            assert thermal_xi2(lam, t_star) == pytest.approx(0.5, abs=1e-9)
            want = omega / (2.0 * math.atanh(2.0 * pred_xi0))
            assert t_star == pytest.approx(want, abs=1e-8)

    def test_temperature_reference_point(self):
        # lam = 8: 3 / (2 atanh(2/3))
        assert analytic_boundary_temperature(8.0) == pytest.approx(
            3.0 / (2.0 * math.atanh(2.0 / 3.0)), abs=1e-8
        )

    def test_temperature_requires_negative_witness(self):
        with pytest.raises(ValueError):
            analytic_boundary_temperature(0.5)  # xi0^2 > 1/2

    def test_sigma_closed_form(self):
        # lam = 8, xi0^2 = 1/3: root of 1/3 + (sqrt(1-v^2)-1)/(2v^2) = 0
        # => sqrt(1-v^2) = 1 - 2 v^2 / 3 => v^2 = 3/4
        k = 2.0
        s_star = analytic_boundary_sigma(8.0, k)
        want = math.sqrt(-2.0 * math.log(math.sqrt(3.0) / 2.0)) / k
        assert s_star == pytest.approx(want, abs=1e-8)
        v = blur_visibility(1.0, k, s_star)
        assert bell_witness(1.0 / 3.0, v) == pytest.approx(0.0, abs=1e-9)

    def test_sigma_scales_inversely_with_k(self):
        assert analytic_boundary_sigma(8.0, 1.0) == pytest.approx(
            2.0 * analytic_boundary_sigma(8.0, 2.0), abs=1e-8
        )

    def test_sigma_no_root_cases(self):
        with pytest.raises(ValueError):
            analytic_boundary_sigma(0.5, 1.0)  # never negative
        with pytest.raises(ValueError):
            analytic_boundary_sigma(100.0, 1.0)  # xi0^2 < 1/4: always negative
        with pytest.raises(ValueError):
            analytic_boundary_sigma(8.0, 0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_sigma_rejects_bad_k(self, k):
        # NaN used to give a NaN width, and inf a width of 0
        with pytest.raises(ValueError, match="k_fringe must be positive and finite"):
            analytic_boundary_sigma(8.0, k)
