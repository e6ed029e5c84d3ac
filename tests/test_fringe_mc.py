import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from bellfringe import FringeParams, blur_visibility, draw_shot_phase, verify_sensitivity
from bellfringe import fringe_mc
from bellfringe.fringe_mc import wrap_phase
from oracles import fringe_density, sample_positions

TWO_PI = 2.0 * math.pi


def make_params(**kw):
    base = dict(nu=0.8, phi=0.3, k=2.0, n_atoms=1000, n_periods=8)
    base.update(kw)
    return FringeParams(**base)


def fit_bins(p):
    """Edges of the fit's bins for ``p`` and their [cos kx_c, sin kx_c]."""
    waves = fringe_mc._bin_layout(p)
    return np.linspace(0.0, p.window, waves.shape[1] + 1), waves


def fit_positions(p, x):
    """Phase and Fourier components (c, s) of positions ``x``, binned on the
    fit's bins for ``p``."""
    edges, waves = fit_bins(p)
    counts = np.histogram(x, bins=edges)[0]
    c, s = fringe_mc._project(counts, len(x), waves)
    return float(fringe_mc.fit_counts(counts, len(x), waves)), c, s


class TestDensity:
    """The oracle density that the rejection sampler draws from."""

    def test_values(self):
        assert fringe_density(0.0, 0.5, 0.0, 1.0) == pytest.approx(1.5)
        assert fringe_density(math.pi, 0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_mean_over_period(self):
        x = np.linspace(0.0, TWO_PI, 100001)
        mean = np.trapezoid(fringe_density(x, 0.7, 1.1, 1.0), x) / TWO_PI
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        x = np.linspace(0.0, 10.0, 1000)
        assert np.all(fringe_density(x, 1.0, 0.4, 3.0) >= 0.0)

    def test_rejects_bad_contrast(self):
        with pytest.raises(ValueError):
            fringe_density(0.0, 1.2, 0.0, 1.0)


@pytest.mark.parametrize(
    "accepts_nu",
    [lambda nu: make_params(nu=nu), lambda nu: blur_visibility(nu, 1.0, 0.1)],
    ids=["FringeParams", "blur_visibility"],
)
def test_one_nu_range_rule(accepts_nu):
    for nu in (0.0, 1.0):
        accepts_nu(nu)
    for nu in (-0.1, 1.2, math.nan):
        with pytest.raises(ValueError, match=r"^nu must lie in \[0, 1\]$"):
            accepts_nu(nu)


class TestParams:
    def test_window(self):
        assert make_params(k=2.0, n_periods=8).window == pytest.approx(8 * math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(nu=1.5)
        with pytest.raises(ValueError):
            make_params(n_atoms=0)
        with pytest.raises(ValueError):
            make_params(k=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("phi", math.nan),
            ("phi", math.inf),
            ("phi", -math.inf),
            ("k", math.nan),
            ("k", math.inf),
            ("k", -2.0),
            ("nu", math.nan),
            ("n_atoms", 1000.0),
            ("n_atoms", True),
            ("n_atoms", "1000"),
            ("n_periods", 8.0),
            ("n_periods", False),
            ("n_periods", 0),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: value})

    def test_accepts_numpy_integers(self):
        p = make_params(n_atoms=np.int64(500), n_periods=np.int32(4))
        assert p.window == pytest.approx(4 * math.pi)


class TestSampler:
    """The oracle rejection sampler of fringe positions."""

    def test_deterministic(self):
        p = make_params()
        a = sample_positions(p, 0.2, 42)
        b = sample_positions(p, 0.2, 42)
        assert np.array_equal(a, b)
        c = sample_positions(p, 0.2, 43)
        assert not np.array_equal(a, c)

    def test_positions_in_window(self):
        p = make_params(n_atoms=5000)
        x = sample_positions(p, 0.0, 1)
        assert len(x) == 5000
        assert x.min() >= 0.0 and x.max() <= p.window

    def test_uniform_when_flat(self):
        # nu = 0 is a uniform density: KS test should not reject
        p = make_params(nu=0.0, n_atoms=20000)
        x = sample_positions(p, 0.0, 7)
        stat = stats.kstest(x / p.window, "uniform")
        assert stat.pvalue > 0.01

    def test_histogram_matches_density(self):
        # chi-square of binned counts against the model at nu = 0.8
        p = make_params(nu=0.8, n_atoms=200000, n_periods=4)
        phase = 0.9
        x = sample_positions(p, phase, 11)
        n_bins = 64
        counts, edges = np.histogram(x, bins=n_bins, range=(0.0, p.window))
        centers = 0.5 * (edges[:-1] + edges[1:])
        model = fringe_density(centers, p.nu, phase, p.k)
        expected = model / model.sum() * len(x)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # dof = 63; 99.9% quantile ~ 103
        assert chi2 < stats.chi2.ppf(0.999, n_bins - 1)

    def test_acceptance_rate(self):
        # flat envelope 1 + nu accepts 1/(1+nu) of proposals on average
        p = make_params(nu=0.6)
        rng = np.random.default_rng(3)
        n = 200000
        x = rng.uniform(0.0, p.window, n)
        u = rng.uniform(0.0, 1.0 + p.nu, n)
        rate = np.mean(u < fringe_density(x, p.nu, 0.0, p.k))
        assert rate == pytest.approx(1.0 / 1.6, rel=0.02)

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_rejects_nonfinite_phase(self, phase):
        # no density value compares true against a nan, so rejection would
        # never accept a position
        with pytest.raises(ValueError, match="shot_phase"):
            sample_positions(make_params(), phase, 0)


class TestShotPhase:
    def test_zero_squeezing_is_exact(self):
        assert draw_shot_phase(0.4, 0.0, 1000, 5) == 0.4

    def test_variance_scaling(self):
        rng = np.random.default_rng(0)
        draws = np.array([draw_shot_phase(0.0, 2.0, 500, rng) for _ in range(20000)])
        assert draws.var() == pytest.approx(2.0 / 500, rel=0.05)
        assert draws.mean() == pytest.approx(0.0, abs=3 * math.sqrt(2 / 500 / 20000) * 3)

    def test_rejects_negative_xi2(self):
        with pytest.raises(ValueError):
            draw_shot_phase(0.0, -1.0, 100, 0)

    @pytest.mark.parametrize("xi2", [math.nan, math.inf])
    def test_rejects_nonfinite_xi2(self, xi2):
        with pytest.raises(ValueError, match="xi2"):
            draw_shot_phase(0.0, xi2, 100, 0)

    def test_sized_draw(self):
        phases = draw_shot_phase(0.4, 2.0, 200, 9, size=5)
        assert np.array_equal(phases, 0.4 + np.random.default_rng(9).normal(0.0, 0.1, 5))
        assert np.array_equal(draw_shot_phase(0.4, 0.0, 200, 9, size=3), [0.4] * 3)


class TestWrapPhase:
    def test_identity_in_range(self):
        assert wrap_phase(0.3) == pytest.approx(0.3)
        assert wrap_phase(-3.0) == pytest.approx(-3.0)

    def test_wraps(self):
        assert wrap_phase(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_phase(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
        assert wrap_phase(7 * TWO_PI + 0.2) == pytest.approx(0.2)


class TestFitPhase:
    """``fit_counts`` on histograms of oracle-sampled positions."""

    def test_recovers_exact_model(self):
        # a huge sample so the histogram converges to the model: the fit
        # must land on the true parameters
        p = make_params(nu=0.7, n_atoms=500000, n_periods=4)
        phi, c, s = fit_positions(p, sample_positions(p, 0.8, 21))
        assert wrap_phase(phi - 0.8) == pytest.approx(0.0, abs=5e-3)
        assert math.hypot(c, s) == pytest.approx(0.7, abs=5e-3)

    def test_fixed_visibility_mode(self):
        # over whole periods, holding nu at any fixed value leaves the
        # fitted phase a stationary minimum of the fixed-nu residual
        p = make_params(nu=0.7, n_atoms=200000, n_periods=4)
        x = sample_positions(p, -0.5, 9)
        phi, _, _ = fit_positions(p, x)
        kx, excess = binned_excess(x, p.k, p.n_periods)
        assert wrap_phase(phi + 0.5) == pytest.approx(0.0, abs=1e-2)
        for nu in (0.3, 0.7, 1.0):
            r = nu * np.cos(kx + phi) - excess
            assert 2.0 * nu * np.dot(r, np.sin(kx + phi)) == pytest.approx(0.0, abs=1e-9)
            for step in (-1e-3, 1e-3):
                shifted = nu * np.cos(kx + phi + step) - excess
                assert shifted @ shifted > r @ r

    def test_phase_wrap_invariance(self):
        # shifting the true phase by 2 pi must not move the estimate
        p = make_params(nu=0.8, n_atoms=50000, n_periods=4)
        a, _, _ = fit_positions(p, sample_positions(p, 0.4, 31))
        b, _, _ = fit_positions(p, sample_positions(p, 0.4 + TWO_PI, 31))
        assert wrap_phase(a - b) == pytest.approx(0.0, abs=1e-9)


def binned_excess(x, k, n_periods):
    """(k * bin centres, h - 1) of the mean-1 histogram, binned as the fit
    documents: n_periods * ceil(sqrt(M)) equal bins over the window."""
    window = n_periods * TWO_PI / k
    n_bins = n_periods * math.ceil(math.sqrt(len(x)))
    counts, edges = np.histogram(x, bins=n_bins, range=(0.0, window))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return k * centers, counts * (n_bins / len(x)) - 1.0


fringe_shots = st.builds(
    FringeParams,
    nu=st.floats(0.0, 1.0),
    phi=st.floats(-math.pi, math.pi),
    k=st.floats(0.2, 5.0),
    n_atoms=st.integers(100, 3000),
    n_periods=st.integers(1, 12),
)


class TestFitOracle:
    """``fit_counts`` and ``_project``'s (c, s) against two independent
    least-squares references on the same binned positions."""

    @settings(max_examples=80, deadline=None)
    @given(fringe_shots, st.integers(0, 2**32 - 1))
    def test_free_visibility_matches_lstsq(self, p, seed):
        x = sample_positions(p, p.phi, seed)
        kx, excess = binned_excess(x, p.k, p.n_periods)
        design = np.column_stack([np.cos(kx), -np.sin(kx)])
        (nu_cos, nu_sin), *_ = np.linalg.lstsq(design, excess, rcond=None)
        phi, c, s = fit_positions(p, x)
        assert c == pytest.approx(nu_cos, abs=1e-10)
        assert -s == pytest.approx(nu_sin, abs=1e-10)
        nu = math.hypot(c, s)
        assert nu * math.cos(phi) == pytest.approx(nu_cos, abs=1e-10)
        assert nu * math.sin(phi) == pytest.approx(nu_sin, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(fringe_shots.filter(lambda p: p.nu >= 0.2), st.integers(0, 2**32 - 1))
    def test_fixed_visibility_matches_scalar_minimisation(self, p, seed):
        # over whole periods, holding nu fixed does not move the optimal phase
        x = sample_positions(p, p.phi, seed)
        kx, excess = binned_excess(x, p.k, p.n_periods)

        def sse(phi):
            r = p.nu * np.cos(kx + phi) - excess
            return float(r @ r)

        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        start = grid[np.argmin([sse(g) for g in grid])]
        step = TWO_PI / 64
        best = optimize.minimize_scalar(
            sse,
            bounds=(start - step, start + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        phi, _, _ = fit_positions(p, x)
        assert sse(phi) <= best.fun * (1.0 + 1e-12)
        assert wrap_phase(phi - best.x) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("periods", [0.4, 2.5, 8.0 * (1.0 + 1e-7)])
    def test_partial_period_window_rejected(self, periods):
        # the window is n_periods whole periods, so a partial one is refused
        # where it is set
        with pytest.raises(ValueError, match="n_periods"):
            make_params(n_periods=periods)


class TestVerifySensitivity:
    def test_unbiased_and_deterministic(self):
        p = make_params(nu=0.9, phi=0.2, n_atoms=1000)
        res = verify_sensitivity(p, 1.0, 1000, 123)
        again = verify_sensitivity(p, 1.0, 1000, 123)
        assert res == again
        # fitted phases are centered on the truth within 4 standard errors
        assert abs(res.mean_deviation) < 4 * res.std_error

    def test_variance_positive_and_finite(self):
        p = make_params(nu=0.9, n_atoms=500)
        res = verify_sensitivity(p, 0.5, 1000, 7)
        assert 0 < res.empirical_variance < 1.0
        assert res.predicted_variance == pytest.approx(
            (0.5 + math.sqrt(1 - 0.81) / 0.81) / 500
        )

    def test_variance_scales_with_atoms(self):
        # doubling the atom number roughly halves the empirical variance
        small = verify_sensitivity(make_params(nu=0.9, n_atoms=500), 1.0, 1500, 5)
        big = verify_sensitivity(make_params(nu=0.9, n_atoms=1000), 1.0, 1500, 5)
        ratio = small.empirical_variance / big.empirical_variance
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_sensitivity(make_params(nu=0.1), 1.0, 1000, 0)
        with pytest.raises(ValueError):
            verify_sensitivity(make_params(nu=0.9), 1.0, 10, 0)

    @pytest.mark.parametrize("xi2", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_bad_xi2(self, xi2):
        with pytest.raises(ValueError, match="xi2"):
            verify_sensitivity(make_params(nu=0.9), xi2, 1000, 0)

    @pytest.mark.parametrize("n_shots", [1000.0, 1e4, "1000", True])
    def test_rejects_non_integer_shots(self, n_shots):
        with pytest.raises(ValueError, match="n_shots"):
            verify_sensitivity(make_params(nu=0.9), 1.0, n_shots, 0)

    @pytest.mark.parametrize("phi", [4.0, -4.0, math.pi + 1e-15, 1e8, 1e17])
    def test_rejects_phi_outside_pi(self, phi):
        # at |phi| = 1e17 the ~0.1 rad shot noise is below one ulp of phi
        with pytest.raises(ValueError, match="phi"):
            verify_sensitivity(make_params(nu=0.9, phi=phi), 1.0, 1000, 0)

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_rejects_fewer_than_three_bins_a_period(self, n_atoms):
        # ceil(sqrt(N)) <= 2 bins a period: the projection is not the fit
        with pytest.raises(ValueError, match=r"^n_atoms must be >= 5, got "):
            verify_sensitivity(make_params(nu=0.9, n_atoms=n_atoms), 1.0, 1000, 1)

    @pytest.mark.parametrize("phi", [math.pi, -math.pi])
    def test_accepts_phi_at_pi(self, phi):
        res = verify_sensitivity(make_params(nu=0.9, phi=phi, n_atoms=300), 1.0, 1000, 3)
        assert 0 < res.empirical_variance < 1.0


class TestMultinomialBench:
    @pytest.mark.parametrize(
        "nu, k, n_atoms, n_periods",
        [(0.9, 1.0, 1000, 8), (0.3, 2.7, 500, 3), (1.0, 0.4, 2000, 1), (0.0, 1.3, 100, 5)],
    )
    def test_probabilities_integrate_the_density(self, nu, k, n_atoms, n_periods):
        p = make_params(nu=nu, k=k, n_atoms=n_atoms, n_periods=n_periods)
        edges, waves = fit_bins(p)
        phases = np.array([0.3, -2.9, math.pi, 7.0])
        prob = fringe_mc.bin_probabilities(p, phases, waves)
        assert prob.shape == (len(phases), len(edges) - 1)
        assert np.all(np.abs(prob.sum(axis=1) - 1.0) < 1e-12)
        # 8-point Gauss-Legendre per bin is exact to rounding for a cosine
        # over a small fraction of its period
        nodes, weights = np.polynomial.legendre.leggauss(8)
        half = 0.5 * np.diff(edges)
        x = (edges[:-1] + half)[:, None] + half[:, None] * nodes
        for phase, row in zip(phases, prob):
            integral = (fringe_density(x, nu, phase, k) @ weights) * half / p.window
            assert np.max(np.abs(row - integral)) < 1e-14

    def test_sampled_histograms_follow_the_probabilities(self):
        p = make_params(nu=0.8, n_atoms=500, n_periods=4)
        edges, waves = fit_bins(p)
        phase, shots = 0.7, 400
        rng = np.random.default_rng(17)
        counts = np.array(
            [
                np.histogram(sample_positions(p, phase, rng), bins=edges)[0]
                for _ in range(shots)
            ]
        )
        expected = p.n_atoms * fringe_mc.bin_probabilities(p, phase, waves)
        se = np.sqrt(expected * (1.0 - expected / p.n_atoms) / shots)
        assert np.all(np.abs(counts.mean(axis=0) - expected) < 5.0 * se)

    def test_result_does_not_depend_on_chunk_size(self, monkeypatch):
        p = make_params(nu=0.85, phi=-0.4, n_atoms=700)
        results = []
        for chunk in (1, 7, 64):
            monkeypatch.setattr(fringe_mc, "SHOT_CHUNK", chunk)
            results.append(verify_sensitivity(p, 0.8, 1001, 99))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n_atoms, nu", [(500, 0.9), (1000, 0.6), (2000, 0.35)])
    def test_variance_matches_least_squares_reference(self, n_atoms, nu):
        shots, xi2 = 4000, 0.7
        res = verify_sensitivity(make_params(nu=nu, n_atoms=n_atoms), xi2, shots, 2024)
        ratio = res.empirical_variance / fringe_mc.least_squares_variance(xi2, nu, n_atoms)
        assert abs(ratio - 1.0) < 5.0 * math.sqrt(2.0 / (shots - 1))
        assert abs(res.mean_deviation) < 5.0 * res.std_error

    def test_binned_positions_pass_pearson_chi2(self):
        # one large shot of oracle positions on the fit's own bins follows
        # n_atoms * bin_probabilities, and a phase 0.2 off is rejected
        p = make_params(nu=0.8, n_atoms=200000, n_periods=4)
        edges, waves = fit_bins(p)
        counts = np.histogram(sample_positions(p, 0.9, 13), bins=edges)[0]
        for phase, accepted in ((0.9, True), (1.1, False)):
            expected = p.n_atoms * fringe_mc.bin_probabilities(p, phase, waves)
            assert (stats.chisquare(counts, expected).pvalue > 1e-3) == accepted

    def test_flat_positions_pass_pearson_chi2_against_uniform(self):
        p = make_params(nu=0.0, n_atoms=200000, n_periods=4)
        edges, waves = fit_bins(p)
        counts = np.histogram(sample_positions(p, 0.9, 14), bins=edges)[0]
        expected = np.full(len(counts), p.n_atoms / len(counts))
        assert stats.chisquare(counts, expected).pvalue > 1e-3


def fold(counts, n_periods):
    """Counts of the window's n_periods * B bins summed onto one period's B."""
    counts = np.asarray(counts)
    return counts.reshape(*counts.shape[:-1], n_periods, -1).sum(axis=-2)


class TestOnePeriodFold:
    """The bench samples and fits each shot on one period's bins: the fit of
    a window's histogram equals the fit of its fold, and the fold follows
    ``bin_probabilities`` on the one-period layout."""

    @pytest.mark.parametrize(
        "n_atoms, n_periods, k, nu",
        [(1000, 8, 1.0, 0.9), (500, 3, 2.7, 0.3), (2000, 1, 0.4, 0.95), (137, 8, 5.0, 0.6),
         (3000, 3, 0.2, 0.75)],
    )
    def test_fit_of_histogram_equals_fit_of_fold(self, n_atoms, n_periods, k, nu):
        p = make_params(nu=nu, k=k, n_atoms=n_atoms, n_periods=n_periods)
        waves = fringe_mc._bin_layout(p)
        period_waves = fringe_mc._bin_layout(replace(p, n_periods=1))
        rng = np.random.default_rng(n_atoms + n_periods)
        phases = rng.uniform(-math.pi, math.pi, 200)
        counts = fringe_mc.sample_counts(p, phases, waves, rng)
        full = fringe_mc.fit_counts(counts, n_atoms, waves)
        folded = fringe_mc.fit_counts(fold(counts, n_periods), n_atoms, period_waves)
        assert np.max(np.abs(wrap_phase(full - folded))) < 1e-12

    @pytest.mark.parametrize("n_atoms, k, nu", [(1000, 1.0, 0.9), (300, 2.7, 0.5)])
    def test_result_does_not_depend_on_n_periods(self, n_atoms, k, nu):
        results = [
            verify_sensitivity(
                make_params(nu=nu, k=k, n_atoms=n_atoms, n_periods=n_periods), 0.6, 1000, 41
            )
            for n_periods in (1, 3, 8)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n_periods", [1, 3, 8])
    def test_folded_positions_pass_pearson_chi2(self, n_periods):
        # one large shot of oracle positions binned on the window's bins and
        # folded follows n_atoms * bin_probabilities on one period's bins,
        # and a phase 0.2 off is rejected
        p = make_params(nu=0.8, n_atoms=200000, n_periods=n_periods)
        edges, _ = fit_bins(p)
        counts = fold(np.histogram(sample_positions(p, 0.9, 13), bins=edges)[0], n_periods)
        period = replace(p, n_periods=1)
        period_waves = fringe_mc._bin_layout(period)
        for phase, accepted in ((0.9, True), (1.1, False)):
            expected = p.n_atoms * fringe_mc.bin_probabilities(period, phase, period_waves)
            assert (stats.chisquare(counts, expected).pvalue > 1e-3) == accepted
