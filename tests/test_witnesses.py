import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellfringe import (
    ModelParams,
    Moments,
    VisibilityError,
    bell_theta,
    bell_witness,
    build_report,
    compute_moments,
    fringe_factor,
    ground_state,
    minimize_bell_direct,
    optimal_theta,
    param_a,
    phase_squeezing,
    report_from_moments,
    sensitivity,
    visibility,
)
from bellfringe.witnesses import NU_ROUNDING_SLACK


class TestFormulas:
    def test_sensitivity_value(self):
        # xi2 = 1, nu = 0.8: (1 + 0.6/0.64) / 1000
        assert sensitivity(1.0, 0.8, 1000) == pytest.approx(
            1.9375e-3, abs=1e-12
        )

    def test_sensitivity_perfect_visibility(self):
        # nu = 1 removes the fit penalty entirely
        assert sensitivity(0.5, 1.0, 100) == pytest.approx(0.005, abs=1e-15)

    def test_param_a_shot_noise_point(self):
        # coherent state, perfect fringes: exactly at shot noise
        assert param_a(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_param_a_matches_sensitivity(self):
        for xi2, nu, n in ((0.3, 0.9, 500), (1.7, 0.4, 64)):
            assert param_a(xi2, nu) == pytest.approx(
                n * sensitivity(xi2, nu, n) - 1.0, abs=1e-12
            )

    def test_bell_witness_values(self):
        assert bell_witness(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        # xi2 = 1, nu = 0.8: 1 + (0.6 - 1) / 1.28
        assert bell_witness(1.0, 0.8) == pytest.approx(1 - 0.4 / 1.28, abs=1e-12)

    def test_fringe_factor_value(self):
        assert fringe_factor(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_witness_monotone_in_squeezing(self):
        vals = [bell_witness(x, 0.9) for x in (0.1, 0.3, 0.7, 1.2)]
        assert vals == sorted(vals)

    def test_witness_monotone_in_visibility(self):
        # at fixed squeezing, better fringes can only help
        vals = [bell_witness(0.4, nu) for nu in (0.3, 0.5, 0.8, 1.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("nu", [0.0, -0.1, 1.2])
    def test_rejects_bad_visibility(self, nu):
        with pytest.raises(VisibilityError):
            bell_witness(1.0, nu)
        with pytest.raises(VisibilityError):
            param_a(1.0, nu)
        with pytest.raises(VisibilityError):
            fringe_factor(nu)

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_identity_property(self, xi2, nu):
        assert abs(bell_witness(xi2, nu) - param_a(xi2, nu) - fringe_factor(nu)) <= 1e-10


class TestOptimalTheta:
    def test_analytic_value(self):
        # nu = 0.8, xi2 = 0.625: rhs = 0.8 / (2 * 0.6) = 2/3
        theta0, interior = optimal_theta(0.8, 0.625)
        assert interior
        assert theta0 == pytest.approx(2.0 * math.acos(2.0 / 3.0), abs=1e-12)

    def test_boundary_case(self):
        # rhs > 1: minimum pinned at theta = 0
        theta0, interior = optimal_theta(0.99, 1.0)
        assert not interior
        assert theta0 == 0.0

    def test_negative_denominator(self):
        theta0, interior = optimal_theta(0.9, 2.0)
        assert not interior

    @pytest.mark.parametrize(
        "params", [ModelParams(100, -0.9, 0.0), ModelParams(64, -1.1, 0.0)]
    )
    def test_matches_direct_minimization(self, params):
        _, state = ground_state(params)
        m = compute_moments(state)
        nu = visibility(m, params.n_particles)
        xi2 = phase_squeezing(m, params.n_particles)
        theta0, interior = optimal_theta(nu, xi2)
        assert interior
        theta_star, _ = minimize_bell_direct(params.n_particles, m)
        assert theta_star == pytest.approx(theta0, abs=1e-6)

    def test_direct_minimum_sign_matches_witness(self):
        # the extensive minimum and the intensive witness agree in sign
        for lam in (-0.9, -0.3, 0.0):
            params = ModelParams(100, lam, 0.0)
            _, state = ground_state(params)
            m = compute_moments(state)
            nu = visibility(m, 100)
            b = bell_witness(phase_squeezing(m, 100), nu)
            _, b_min = minimize_bell_direct(100, m)
            if abs(b) > 1e-6:
                assert math.copysign(1.0, b) == math.copysign(1.0, b_min)

    def test_bell_theta_endpoints(self):
        # theta = 0: 2N - 4<Jx>; theta = pi: 8<Jy^2>
        assert bell_theta(10, 3.0, 2.0, 0.0) == pytest.approx(8.0)
        assert bell_theta(10, 3.0, 2.0, math.pi) == pytest.approx(16.0)

    @pytest.mark.parametrize(
        "jx, jy2, theta, b_min",
        [
            (3.0, 0.5, 2.0 * math.acos(3.0 / 8.0), 1.75),  # convex, vertex c = 3/8
            (4.0, 2.0, 0.0, 4.0),  # convex, vertex c = 2 clipped to c = 1
            (3.0, 2.5, 0.0, 8.0),  # linear in c: the lower end
            (-2.0, 3.0, math.pi, 24.0),  # concave: the lower end
            (-1.0, 3.0, 0.0, 24.0),  # concave, both ends 24: theta = 0
        ],
    )
    def test_direct_minimum_closed_form(self, jx, jy2, theta, b_min):
        # N = 10: bell_theta = (20 - 8<Jy^2>) c^2 - 4<Jx> c + 8<Jy^2>
        moments = Moments(jx=jx, jy=0.0, jz=0.0, jx2=0.0, jy2=jy2, jz2=0.0)
        got_theta, got_b = minimize_bell_direct(10, moments)
        assert got_theta == pytest.approx(theta, abs=1e-15)
        assert got_b == pytest.approx(b_min, rel=1e-15, abs=1e-14)

    @given(
        n=st.integers(min_value=1, max_value=5000),
        nu=st.floats(min_value=-1.0, max_value=1.0),
        jy2_scale=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_direct_minimum_lies_below_a_dense_grid(self, n, nu, jy2_scale):
        # no theta of a 4001-point grid beats the closed-form minimum
        jx, jy2 = nu * n / 2.0, jy2_scale * n * n / 4.0
        moments = Moments(jx=jx, jy=0.0, jz=0.0, jx2=0.0, jy2=jy2, jz2=0.0)
        theta_star, b_min = minimize_bell_direct(n, moments)
        assert 0.0 <= theta_star <= math.pi
        assert b_min == bell_theta(n, jx, jy2, theta_star)
        grid = min(bell_theta(n, jx, jy2, t) for t in np.linspace(0.0, math.pi, 4001))
        assert b_min <= grid + 1e-12 * (n + jy2)


class TestWitnessReport:
    def test_build_report_consistency(self):
        rep = build_report(0.625, 0.8, 1000)
        assert abs(rep.b_param - rep.a_param - fringe_factor(rep.nu)) <= 1e-10
        assert rep.var_phi == pytest.approx((rep.a_param + 1) / 1000, abs=1e-15)
        assert rep.interior_minimum

    def test_invariant_enforced(self):
        good = build_report(1.0, 0.9, 100)
        # rebuilding with one tampered field must trip the identity check
        with pytest.raises(ValueError):
            type(good)(
                n_particles=good.n_particles,
                nu=good.nu,
                xi2=good.xi2,
                var_phi=good.var_phi,
                a_param=good.a_param + 1e-3,
                b_param=good.b_param,
                theta0=good.theta0,
                interior_minimum=good.interior_minimum,
                rotated=good.rotated,
            )

    def test_nan_fails_the_identity_check(self):
        with pytest.raises(ValueError, match="identity violated"):
            build_report(math.nan, 0.9, 100)

    def test_nan_fails_the_var_phi_check(self):
        good = build_report(1.0, 0.9, 100)
        with pytest.raises(ValueError, match="var_phi inconsistent"):
            dataclasses.replace(good, var_phi=math.nan)

    def test_rejects_zero_visibility(self):
        with pytest.raises(VisibilityError):
            build_report(1.0, 0.0, 100)
        # <Jx> = 0: no fringes, and no squeezing parameter either
        moments = Moments(0.0, 0.0, 0.0, 25.0, 25.0, 0.0)
        with pytest.raises(VisibilityError, match="undefined for <Jx> = 0"):
            phase_squeezing(moments, 10)
        with pytest.raises(VisibilityError, match="nu = 0: no fringes to fit"):
            report_from_moments(moments, 10)

    def test_report_from_moments_rotation(self):
        # repulsive ground state only shows squeezing after the pi/2 rotation
        params = ModelParams(200, 8.0, 0.0)
        _, state = ground_state(params)
        m = compute_moments(state)
        rotated = report_from_moments(m, 200, apply_rotation=True)
        plain = report_from_moments(m, 200, apply_rotation=False)
        assert rotated.rotated and not plain.rotated
        assert rotated.xi2 < 1.0 < plain.xi2
        assert rotated.b_param < plain.b_param

    def test_ground_state_witness_negative_attractive(self):
        params = ModelParams(1000, -0.9, 0.0)
        _, state = ground_state(params)
        rep = report_from_moments(compute_moments(state), 1000)
        assert rep.b_param < 0.0
        # near-unit visibility makes f(nu) ~ 1/2, so a sits below b here
        assert rep.a_param < rep.b_param


class TestVisibilityRounding:
    @staticmethod
    def moments_with_nu(nu, n):
        return Moments(jx=nu * n / 2, jy=0.0, jz=0.0, jx2=0.0, jy2=n / 4, jz2=n / 4)

    def test_rounding_excess_reads_as_one(self):
        n = 1000
        nu = 2.0 * (n / 2 * (1.0 + NU_ROUNDING_SLACK)) / n
        assert 1.0 < nu <= 1.0 + NU_ROUNDING_SLACK
        assert visibility(self.moments_with_nu(1.0 + NU_ROUNDING_SLACK, n), n) == 1.0
        assert visibility(self.moments_with_nu(-1.0 - NU_ROUNDING_SLACK, n), n) == 1.0

    # NaN is no excess, but must raise as one does, not pass the slack check
    @pytest.mark.parametrize("excess", [1e-9, 64 * np.finfo(float).eps, math.nan])
    def test_larger_excess_still_raises(self, excess):
        m = self.moments_with_nu(1.0 + excess, 400)
        with pytest.raises(VisibilityError, match="outside"):
            visibility(m, 400)
        with pytest.raises(VisibilityError):
            report_from_moments(m, 400)

    def test_direct_minimum_bounds_rounded_jx(self):
        # a coherent state whose <Jx> rounded just above N/2: the extensive
        # minimum is the one of <Jx> = N/2 (0 at theta = 0), never below it
        n = 1000
        over = self.moments_with_nu(1.0 + NU_ROUNDING_SLACK, n)
        exact = self.moments_with_nu(1.0, n)
        assert over.jx > n / 2
        _, b_min = minimize_bell_direct(n, over)
        assert b_min == minimize_bell_direct(n, exact)[1]
        assert b_min >= 0.0

    @pytest.mark.parametrize("excess", [1e-9, 64 * np.finfo(float).eps])
    def test_direct_minimum_rejects_larger_excess(self, excess):
        with pytest.raises(VisibilityError, match="outside"):
            minimize_bell_direct(400, self.moments_with_nu(1.0 + excess, 400))
