import csv
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellfringe
from bellfringe import (
    ConvergenceError,
    ModelParams,
    QuadratureRule,
    ScanRow,
    ScanSpec,
    bell_witness,
    build_hamiltonian,
    build_report,
    compute_moments,
    emit_outputs,
    extract_region_boundary,
    find_zero_crossings,
    ground_state,
    phase_squeezing,
    rotate_pi2_about_x,
    run_scan,
    split_gaussian_rule,
    visibility,
)
from bellfringe import cli, josephson, noise
from bellfringe.cli import main as cli_main
from bellfringe.scan import (
    CROSSING_TOL,
    CSV_HEADER,
    FLOOR_ERROR,
    GROUND_BLOCK,
    MC_DEFAULTS,
    MODE_AXIS,
    MODES,
    SpectrumCache,
    _ground_moments,
    make_evaluator,
    rows_to_csv,
)

from oracles import dense_hamiltonian, dense_spin_matrices

# the ground-solve kernel, kept before any test patches it
lowest_pair = josephson._lowest_pair


def ground_spec(lams, **kw):
    return ScanSpec(n_particles=kw.pop("n", 100), lambda_grid=tuple(lams), **kw)


def thermal_spec(n, lams, temperatures):
    return ScanSpec(
        n_particles=n,
        lambda_grid=tuple(lams),
        mode="thermal",
        noise_axis="temperature",
        noise_grid=tuple(temperatures),
    )


def dense_report(n, lam, rho):
    """Witness report of the density matrix ``rho`` by dense traces, with
    the scan's automatic rotation for lam > 0."""
    jx, jy, jz = dense_spin_matrices(n)

    def ev(op):
        return float(np.trace(rho @ op).real)

    # the auto rotation for lam > 0 turns <Jz^2> into <Jy^2>
    jy2 = ev(jz @ jz) if lam > 0 else ev(jy @ jy)
    mean_jx = ev(jx)
    return build_report(n * jy2 / mean_jx**2, 2 * abs(mean_jx) / n, n, rotated=lam > 0)


def dense_thermal_report(n, lam, temperature):
    """Witness report of the Boltzmann state over all N+1 levels, by dense
    diagonalization and traces; None where the state shows no fringes."""
    if math.isinf(temperature):
        return None
    energies, vectors = np.linalg.eigh(dense_hamiltonian(n, lam, 0.0))
    weights = np.zeros(n + 1)
    if temperature == 0:
        weights[0] = 1.0
    else:
        weights = np.exp(-(energies - energies[0]) / temperature)
        weights /= weights.sum()
    return dense_report(n, lam, (vectors * weights) @ vectors.T)


def dense_delta_report(n, lam, sigma_delta, half_order):
    """Witness report of the tilt mixture on the split rule with
    ``half_order`` nodes per half-axis; the ground state at every node, of
    either sign, comes from a dense eigensolve."""
    if sigma_delta == 0:
        rule = QuadratureRule(np.array([0.0]), np.array([1.0]))
    else:
        rule = split_gaussian_rule(half_order, sigma_delta)
    rho = np.zeros((n + 1, n + 1))
    for delta, weight in zip(rule.nodes, rule.weights):
        psi = np.linalg.eigh(dense_hamiltonian(n, lam, delta))[1][:, 0]
        rho += weight * np.outer(psi, psi)
    return dense_report(n, lam, rho)


class TestScanSpec:
    def test_mode_axis_consistency(self):
        with pytest.raises(ValueError):
            ScanSpec(n_particles=10, lambda_grid=(0.0,), mode="thermal")
        ScanSpec(
            n_particles=10,
            lambda_grid=(0.0,),
            mode="thermal",
            noise_axis="temperature",
            noise_grid=(0.0, 1.0),
        )

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            ground_spec([1.0, 0.0])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ScanSpec(n_particles=10, lambda_grid=(0.0,), mode="bogus")

    def test_round_trip(self):
        spec = ScanSpec(
            n_particles=50,
            lambda_grid=(-1.0, 0.0, 2.0),
            mode="blurred",
            noise_axis="sigma_detector",
            noise_grid=(0.0, 0.1),
            k_fringe=2.0,
            seed=7,
        )
        assert ScanSpec.from_dict(spec.to_dict()) == spec

    def test_linspace_grid_expansion(self):
        spec = ScanSpec.from_dict(
            {
                "n_particles": 10,
                "lambda_grid": {"start": -1.0, "stop": 1.0, "num": 5},
            }
        )
        assert spec.lambda_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)


class TestRunScan:
    def test_ground_state_rows(self):
        rows = run_scan(ground_spec([-0.9, 0.0, 8.0]))
        assert [r.lam for r in rows] == [-0.9, 0.0, 8.0]
        assert all(not r.error for r in rows)
        # attractive point witnesses, coherent point does not
        assert rows[0].b_param < 0 < rows[1].b_param
        # repulsive point is auto-rotated and witnesses as well
        assert rows[2].rotated and rows[2].b_param < 0

    def test_rotation_off(self):
        rows = run_scan(ground_spec([8.0], rotation="off"))
        assert not rows[0].rotated
        assert rows[0].b_param > 0  # unrotated repulsive state shows no witness

    def test_matches_direct_computation(self):
        n, lam = 100, -0.8
        rows = run_scan(ground_spec([lam], n=n))
        _, state = ground_state(ModelParams(n, lam, 0.0))
        m = compute_moments(state)
        assert rows[0].nu == pytest.approx(visibility(m, n), abs=1e-14)
        assert rows[0].b_param == pytest.approx(
            bell_witness(phase_squeezing(m, n), visibility(m, n)), abs=1e-14
        )

    def test_thermal_scan_monotone(self):
        spec = ScanSpec(
            n_particles=60,
            lambda_grid=(-0.9,),
            mode="thermal",
            noise_axis="temperature",
            noise_grid=(0.0, 0.2, 0.5, 1.0),
        )
        rows = run_scan(spec)
        bs = [r.b_param for r in rows]
        assert bs == sorted(bs)

    def test_blurred_scan(self):
        spec = ScanSpec(
            n_particles=80,
            lambda_grid=(-0.9,),
            mode="blurred",
            noise_axis="sigma_detector",
            noise_grid=(0.0, 0.3, 0.6),
            k_fringe=2.0,
        )
        rows = run_scan(spec)
        assert rows[0].nu > rows[1].nu > rows[2].nu
        assert rows[0].xi2 == rows[1].xi2 == rows[2].xi2

    def test_delta_mixture_scan(self):
        spec = ScanSpec(
            n_particles=60,
            lambda_grid=(-0.9,),
            mode="delta_mixture",
            noise_axis="sigma_delta",
            noise_grid=(0.0, 0.05),
        )
        rows = run_scan(spec)
        assert rows[1].b_param > rows[0].b_param

    def test_unconverged_sigma_marks_only_its_row(self, monkeypatch):
        # on the column's panel a sigma_delta a hundredth of the widest
        # settles one doubling later; with the cap lowered it does not
        spec = ScanSpec(
            n_particles=40,
            lambda_grid=(-1.2,),
            mode="delta_mixture",
            noise_axis="sigma_delta",
            noise_grid=(0.0, 0.001, 0.1),
        )
        settled = run_scan(spec)
        monkeypatch.setattr(noise, "MAX_QUAD_ORDER", 161)
        capped = run_scan(spec)
        assert [r.error for r in settled] == ["", "", ""]
        assert capped[1].error == (
            "ConvergenceError: delta mixture not converged at quadrature order 161"
            " (lam=-1.2, sigma_delta=0.001)"
        )
        assert capped[0] == settled[0]
        assert capped[2].error == ""
        assert capped[2].b_param == pytest.approx(settled[2].b_param, rel=1e-6)

    def test_failed_tilt_solve_spares_the_ground_row(self, monkeypatch):
        # a corrupted eigenpair fails the eigenpair check of the tilt panel;
        # the sigma_delta = 0 row has its own solve and keeps its value
        spec = ScanSpec(
            n_particles=40,
            lambda_grid=(-0.5,),
            mode="delta_mixture",
            noise_axis="sigma_delta",
            noise_grid=(0.0, 0.02, 0.05),
        )
        clean = run_scan(spec)
        calls = []

        def perturbed(*args):
            w, v = lowest_pair(*args)
            calls.append(None)
            return (w + 1e-3, v) if len(calls) == 30 else (w, v)

        monkeypatch.setattr(josephson, "_lowest_pair", perturbed)
        rows = run_scan(spec)
        assert rows[0] == clean[0] and rows[0].error == ""
        for row in rows[1:]:
            assert row.error.startswith("ConvergenceError: ")

    def test_threaded_matches_serial(self):
        spec = ground_spec([-1.2, -0.9, -0.3, 0.0, 2.0, 8.0])
        assert run_scan(spec, threads=4) == run_scan(spec, threads=1)

    def test_visibility_floor_row(self):
        # enormous blur kills the fringes; the row reports it, scan continues
        spec = ScanSpec(
            n_particles=40,
            lambda_grid=(0.0,),
            mode="blurred",
            noise_axis="sigma_detector",
            noise_grid=(0.0, 50.0),
            k_fringe=1.0,
        )
        rows = run_scan(spec)
        assert not rows[0].error
        assert rows[1].error == "visibility below threshold"
        assert math.isnan(rows[1].b_param)

    @pytest.mark.parametrize("rotation", ["auto", "off"])
    @pytest.mark.parametrize("n", [1, 2, 40, 1000])
    def test_zero_noise_gives_the_ground_row(self, n, rotation):
        lams = (-3.0, -1.3, -1.0, -0.9, 0.0, 0.5, 3.0)
        ground = run_scan(ground_spec(lams, n=n, rotation=rotation))

        def at_zero(mode):
            return run_scan(
                ScanSpec(
                    n_particles=n,
                    lambda_grid=lams,
                    mode=mode,
                    noise_axis=MODE_AXIS[mode],
                    rotation=rotation,
                )
            )

        assert at_zero("blurred") == ground
        assert at_zero("delta_mixture") == ground
        # T = 0 reads the stemr window's first state, not the stebz ground
        # state; a, b and theta0 lose relative accuracy where they cancel to
        # near zero, hence the absolute floor
        for row, want in zip(at_zero("thermal"), ground, strict=True):
            assert (row.lam, row.error, row.rotated, row.interior_minimum) == (
                want.lam, want.error, want.rotated, want.interior_minimum
            )
            for name in ("nu", "xi2", "a_param", "b_param", "theta0", "var_phi"):
                assert getattr(row, name) == pytest.approx(
                    getattr(want, name), rel=1e-12, abs=1e-12, nan_ok=True
                ), (row.lam, name)

    def test_subnormal_temperature_is_the_zero_temperature_limit(self):
        # (E - E0) / T overflows to inf for a subnormal T: each gap's weight
        # is the exact 0, without a RuntimeWarning (raised as an error here)
        temps = (0.0, 5e-324, 1e-310, 1e-300, 1.0)
        rows = run_scan(thermal_spec(1000, (-1.3, -0.9, 0.5), temps))
        assert not any(r.error for r in rows)

        def values(row):
            return [v for k, v in vars(row).items() if k != "noise_value"]

        for column in (rows[0:5], rows[5:10], rows[10:15]):
            cold, tiny, tinier, small, _ = column
            # at lambda = -1.3 the ground doublet is degenerate to rounding,
            # so every T > 0 mixes both members: compare with T = 1e-300
            want = small if column[0].lam == -1.3 else cold
            assert values(tiny) == values(tinier) == values(want)

    @pytest.mark.parametrize("n", [12, 40])
    def test_thermal_rows_match_dense_boltzmann(self, n):
        lams, temps = (-1.2, -0.9, 0.5, 8.0), (0.0, 0.3, 2.0, math.inf)
        rows = run_scan(thermal_spec(n, lams, temps))
        assert [(r.lam, r.noise_value) for r in rows] == [
            (lam, t) for lam in lams for t in temps
        ]
        for row in rows:
            want = dense_thermal_report(n, row.lam, row.noise_value)
            if want is None:
                assert row.error == FLOOR_ERROR
                continue
            assert row.error == ""
            assert row.rotated == want.rotated
            for name in ("nu", "xi2", "a_param", "b_param", "theta0", "var_phi"):
                assert getattr(row, name) == pytest.approx(
                    getattr(want, name), rel=0, abs=1e-9
                ), (row.lam, row.noise_value, name)

    @pytest.mark.parametrize("n", [12, 40])
    def test_delta_rows_match_dense_mixture(self, n):
        lams, sigmas = (-1.2, -0.9, 0.5, 8.0), (0.0, 0.02, 0.08)
        spec = ScanSpec(
            n_particles=n,
            lambda_grid=lams,
            mode="delta_mixture",
            noise_axis="sigma_delta",
            noise_grid=sigmas,
        )
        rows = run_scan(spec)
        assert [(r.lam, r.noise_value) for r in rows] == [
            (lam, sd) for lam in lams for sd in sigmas
        ]
        for row in rows:
            # the scan shares the widest sigma_delta's panel over the column;
            # the dense mixture gives each its own fine panel
            want = dense_delta_report(n, row.lam, row.noise_value, 161)
            assert row.error == ""
            assert row.rotated == want.rotated
            for name in ("nu", "xi2", "a_param", "b_param", "theta0", "var_phi"):
                assert getattr(row, name) == pytest.approx(
                    getattr(want, name), rel=1e-10, abs=1e-10
                ), (row.lam, row.noise_value, name)

    @pytest.mark.parametrize("n", [200, 1000, 4000])
    def test_coherent_thermal_rows_report(self, n):
        # lam = 0 is the coherent state, nu = 1 exactly; rounding put
        # 2|<Jx>|/N a few ulp above 1 and these rows used to be errors
        rows = run_scan(thermal_spec(n, (0.0,), (0.0, 0.01)))
        assert [r.error for r in rows] == ["", ""]
        assert rows[0].nu == 1.0

    def test_thermal_scan_beyond_full_spectrum_cap(self):
        rows = run_scan(thermal_spec(5000, (-0.9, 8.0), (0.0, 0.5, math.inf)))
        assert [r.error for r in rows if math.isfinite(r.noise_value)] == [""] * 4
        assert [r.error for r in rows if math.isinf(r.noise_value)] == [FLOOR_ERROR] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_overflowed_thermal_column_fails_alone(self):
        # at N = 1000, lambda = 1e306 overflows the diagonal to inf, which
        # E0's solve must refuse as the finiteness check of eigh_tridiagonal did
        good, temps = (-1.3, 0.5), (0.0, 1.0)
        rows = run_scan(thermal_spec(1000, good + (1e306,), temps))
        assert rows[:4] == run_scan(thermal_spec(1000, good, temps))
        assert [r.error for r in rows[4:]] == ["ValueError: array must not contain infs or NaNs"] * 2

    def test_cache_serves_only_exact_keys(self, tmp_path):
        # a table is keyed by the largest finite T of its column: a wider
        # T_max, then a narrower one, then the wider again, each as if cold
        cache, lams = str(tmp_path), (-0.5, 0.5)
        wide, narrow = (0.0, 1.0, 3.0), (0.0, 0.2)
        for temps, n_files in ((wide, 2), (narrow, 4), (wide, 4)):
            spec = thermal_spec(40, lams, temps)
            assert run_scan(spec, cache_dir=cache) == run_scan(spec)
            assert len(list(tmp_path.glob("*.npz"))) == n_files

        def stored():
            return {f.name: (f.stat().st_ino, f.stat().st_mtime_ns, f.read_bytes())
                    for f in tmp_path.iterdir()}

        before = stored()
        for temps in (narrow, wide):  # warm reruns rewrite no file
            run_scan(thermal_spec(40, lams, temps), cache_dir=cache)
        assert stored() == before

    def test_spectrum_cache(self, tmp_path):
        spec = ScanSpec(
            n_particles=40,
            lambda_grid=(-0.5, 0.5),
            mode="thermal",
            noise_axis="temperature",
            noise_grid=(0.5,),
        )
        cold = run_scan(spec, cache_dir=str(tmp_path))
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 2
        warm = run_scan(spec, cache_dir=str(tmp_path))
        assert cold == warm


def ground_moments(n, lam):
    return compute_moments(ground_state(ModelParams(n, lam, 0.0))[1])


class TestGroundBlocks:
    """Ground and blurred scans solve their lambda grid in blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 1001])
    def test_block_moments_are_the_per_lambda_moments(self, n):
        lams = tuple(np.linspace(-1.5, 4.0, 2 * GROUND_BLOCK + 3))
        assert _ground_moments(n, lams) == [ground_moments(n, lam) for lam in lams]
        rows = run_scan(ground_spec(lams, n=n))
        assert rows == [row for lam in lams for row in run_scan(ground_spec([lam], n=n))]

    def test_failed_lambda_spares_its_block(self):
        # at N = 1000 the eigenpair check of lambda = 1e300 fails on NaN
        n, lams = 1000, (-1.2, -0.5, 0.3, 1e300, 2.0, 4.0)
        found = _ground_moments(n, lams)
        assert isinstance(found[3], ConvergenceError)
        assert str(found[3]) == "eigenpair residual nan |H| > 1e-08 |H|"
        for k in (0, 1, 2, 4, 5):
            assert found[k] == ground_moments(n, lams[k])
        # in a scan grid, which must ascend, it shares the last block
        good = tuple(np.linspace(-1.3, 4.0, GROUND_BLOCK + 3))
        rows = run_scan(ground_spec(good + (1e300,), n=n))
        assert rows[:-1] == run_scan(ground_spec(good, n=n))
        assert rows[-1].error == "ConvergenceError: eigenpair residual nan |H| > 1e-08 |H|"

    @pytest.mark.parametrize("mode", ["ground_state", "blurred"])
    def test_corrupted_column_fails_only_its_lambda(self, monkeypatch, mode):
        n, bad = 40, 2
        lams = tuple(np.linspace(-1.3, 3.0, GROUND_BLOCK + 2))
        noise = {"mode": mode}
        if mode == "blurred":
            noise.update(noise_axis="sigma_detector", noise_grid=(0.0, 0.5))
        spec = ground_spec(lams, n=n, **noise)
        clean = run_scan(spec)
        # the even block of the bad lambda's H, whenever it is solved
        target = josephson._fold(build_hamiltonian(ModelParams(n, lams[bad], 0.0)))[0][0]
        shift = 2 * josephson.RESIDUAL_TOL * build_hamiltonian(ModelParams(n, lams[bad])).norm_estimate

        def perturbed(diag, *args):
            w, v = lowest_pair(diag, *args)
            return (w + shift, v) if np.array_equal(diag, target) else (w, v)

        monkeypatch.setattr(josephson, "_lowest_pair", perturbed)
        rows = run_scan(spec)
        width = len(spec.noise_grid)
        for k, lam in enumerate(lams):
            got, want = rows[k * width:(k + 1) * width], clean[k * width:(k + 1) * width]
            if k == bad:
                assert all(r.error.startswith("ConvergenceError: eigenpair residual") for r in got)
            else:
                assert got == want

    @pytest.mark.parametrize("mode", ["ground_state", "blurred"])
    def test_one_lowest_pair_call_per_lambda(self, monkeypatch, mode):
        lams = tuple(np.linspace(-1.3, 3.0, 2 * GROUND_BLOCK + 1))
        noise = {"mode": mode}
        if mode == "blurred":
            noise.update(noise_axis="sigma_detector", noise_grid=(0.0, 0.3, 0.6))
        calls = []

        def counting(*args):
            calls.append(None)
            return lowest_pair(*args)

        monkeypatch.setattr(josephson, "_lowest_pair", counting)
        rows = run_scan(ground_spec(lams, n=200, **noise))
        assert not any(row.error for row in rows)
        assert len(calls) == len(lams)


class TestCrossingsAndBoundary:
    def test_bisection_reads_the_left_value_from_its_row(self):
        # one evaluation per halving: the row already holds the value at the
        # left end of each bracket, so that end is never evaluated again
        rows = [ScanRow(lam, 0.0, b_param=math.cos(lam)) for lam in range(6)]
        calls = []

        def evaluate(lam):
            calls.append(lam)
            return math.cos(lam)

        crossings = find_zero_crossings(rows, "b_param", evaluate)
        assert crossings == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=CROSSING_TOL)
        assert len(calls) == 2 * math.ceil(math.log2(1.0 / CROSSING_TOL))
        assert not {1.0, 4.0} & set(calls)

    def test_finds_witness_threshold(self):
        # large N: b crosses zero near lambda = -3/4
        spec = ground_spec([-0.85, -0.65], n=1000)
        rows = run_scan(spec)
        crossings = find_zero_crossings(rows, "b_param", make_evaluator(spec))
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(-0.75, abs=0.02)

    def test_blurred_crossing_bisects_at_the_spec_sigma(self):
        spec = ScanSpec.from_dict(
            {
                "n_particles": 400,
                "lambda_grid": {"start": -0.95, "stop": -0.3, "num": 14},
                "mode": "blurred",
                "noise_axis": "sigma_detector",
                "noise_grid": [0.4],
                "k_fringe": 1,
            }
        )
        crossings = find_zero_crossings(run_scan(spec), "b_param", make_evaluator(spec))
        assert len(crossings) == 1
        # bisection at sigma = 0 would land near -0.85
        assert crossings[0] == pytest.approx(-0.8778, abs=1e-4)

    def test_no_crossing(self):
        spec = ground_spec([-0.95, -0.85], n=200)
        rows = run_scan(spec)
        assert find_zero_crossings(rows, "b_param", make_evaluator(spec)) == []

    def test_boundary_extraction_synthetic(self):
        rows = [
            ScanRow(lam=1.0, noise_value=0.0, b_param=-1.0),
            ScanRow(lam=1.0, noise_value=1.0, b_param=1.0),
            ScanRow(lam=2.0, noise_value=0.0, b_param=-1.0),
            ScanRow(lam=2.0, noise_value=1.0, b_param=3.0),
            ScanRow(lam=3.0, noise_value=0.0, b_param=0.5),
            ScanRow(lam=3.0, noise_value=1.0, b_param=1.0),
        ]
        boundary = extract_region_boundary(rows)
        assert boundary == [(1.0, 0.5), (2.0, 0.25)]

    def test_exact_zero_at_a_grid_point(self):
        def never(lam):
            raise AssertionError("an exact zero needs no bisection")

        rows = [ScanRow(lam=float(k), noise_value=0.0, b_param=b)
                for k, b in enumerate([-1.0, 0.0, 1.0, 0.0])]
        assert find_zero_crossings(rows, "b_param", never) == [1.0]
        column = [ScanRow(lam=2.0, noise_value=r.lam / 2, b_param=r.b_param) for r in rows]
        assert extract_region_boundary(column) == [(2.0, 0.5)]

    def test_boundary_keeps_grid_order_of_repeated_noise_values(self):
        # a stable sort by noise value: the rows at 0.5 keep their order
        rows = [
            ScanRow(lam=1.0, noise_value=1.0, b_param=2.0),
            ScanRow(lam=1.0, noise_value=0.0, b_param=-2.0),
            ScanRow(lam=1.0, noise_value=0.5, b_param=-1.0),
            ScanRow(lam=1.0, noise_value=0.5, b_param=1.0),
        ]
        assert extract_region_boundary(rows) == [(1.0, 0.5)]

    def test_boundary_on_blur_scan(self):
        spec = ScanSpec(
            n_particles=200,
            lambda_grid=(8.0,),
            mode="blurred",
            noise_axis="sigma_detector",
            noise_grid=tuple(np.linspace(0.0, 1.2, 25)),
            k_fringe=1.0,
        )
        boundary = extract_region_boundary(run_scan(spec))
        assert len(boundary) == 1
        lam, sigma_star = boundary[0]
        assert lam == 8.0
        # semiclassical root: blurred nu^2 = 3/4 at xi0^2 = 1/3
        want = math.sqrt(-2.0 * math.log(math.sqrt(3.0) / 2.0))
        assert sigma_star == pytest.approx(want, rel=0.05)


class TestOutputs:
    def test_csv_header_and_shape(self):
        rows = run_scan(ground_spec([-0.9, 0.0]))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(len(line.split(",")) == 11 for line in lines)

    def test_emit_deterministic(self, tmp_path):
        spec = ground_spec([-0.9, 0.0, 3.0])
        rows = run_scan(spec)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(rows, spec, str(a))
        emit_outputs(run_scan(spec), spec, str(b))
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
        assert (a / "scan.json").read_bytes() == (b / "scan.json").read_bytes()

    def test_json_mirror_contents(self, tmp_path):
        spec = ground_spec([0.0], seed=9)
        paths = emit_outputs(run_scan(spec), spec, str(tmp_path))
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert payload["seed"] == 9
        assert payload["spec"]["n_particles"] == 100
        assert "library_version" in payload
        assert payload["rows"][0]["lambda"] == 0.0
        assert str(tmp_path / "scan.csv") in paths

    def test_csv_parses_with_stdlib(self, tmp_path):
        spec = ground_spec([-0.9])
        emit_outputs(run_scan(spec), spec, str(tmp_path))
        with open(tmp_path / "scan.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert float(recs[0]["b_param"]) < 0
        assert recs[0]["rotated"] == "false"


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_scan_command(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"n_particles": 60, "lambda_grid": [-0.9, 0.0]}
        )
        rc = cli_main(["scan", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].endswith("scan.csv")
        assert (tmp_path / "out" / "scan.json").exists()

    def test_scan_no_rotation_flag(self, tmp_path):
        cfg = self.write_config(tmp_path, {"n_particles": 60, "lambda_grid": [8.0]})
        cli_main(
            ["scan", "--config", cfg, "--out", str(tmp_path / "o"), "--no-rotation"]
        )
        text = (tmp_path / "o" / "scan.csv").read_text()
        assert text.strip().split("\n")[1].split(",")[8] == "false"

    def test_crossings_command(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"n_particles": 400, "lambda_grid": [-0.85, -0.65]}
        )
        rc = cli_main(
            ["crossings", "--config", cfg, "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        data = json.loads((tmp_path / "out" / "crossings.json").read_text())
        assert data["column"] == "b_param"
        assert data["crossings"][0] == pytest.approx(-0.75, abs=0.03)

    def test_crossings_refuse_several_noise_values(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            {
                "n_particles": 200,
                "lambda_grid": [-0.9, -0.7, -0.5],
                "mode": "thermal",
                "noise_axis": "temperature",
                "noise_grid": [0, 2],
            },
        )
        out = tmp_path / "out"
        rc = cli_main(["crossings", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "one noise value" in capsys.readouterr().err
        assert not (out / "crossings.json").exists()

    def test_ground_noise_grid_spellings_give_one_output(self, tmp_path):
        outputs = []
        grids = [{}, {"noise_grid": [0]}, {"noise_grid": [0.0]}, {"noise_grid": [-0.0]}]
        for k, extra in enumerate(grids):
            cfg = self.write_config(
                tmp_path, {"n_particles": 40, "lambda_grid": [-0.9, 0.5], **extra}
            )
            out = tmp_path / f"out{k}"
            assert cli_main(["scan", "--config", cfg, "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("scan.csv", "scan.json")])
        # no -0 noise value from [-0.0]: every spelling writes the same bytes
        assert outputs[1:] == [outputs[0]] * 3

    @pytest.mark.parametrize(
        "config",
        [
            {"n_particles": 20, "lambda_grid": [-0.0, 1.0]},
            {"n_particles": 20, "lambda_grid": [-0.9], "mode": "thermal",
             "noise_axis": "temperature", "noise_grid": [-0.0, 1.0]},
        ],
        ids=["lambda_grid", "noise_grid"],
    )
    def test_negative_zero_is_written_as_zero(self, tmp_path, config):
        outputs = []
        positive = json.loads(json.dumps(config).replace("-0.0", "0.0"))
        for k, spelling in enumerate([config, positive]):
            cfg = self.write_config(tmp_path, spelling)
            out = tmp_path / f"out{k}"
            assert cli_main(["scan", "--config", cfg, "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("scan.csv", "scan.json")])
        assert b"-0," not in outputs[0][0] and b"-0.0" not in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_boundary_command(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {
                "n_particles": 100,
                "lambda_grid": [8.0],
                "mode": "blurred",
                "noise_axis": "sigma_detector",
                "noise_grid": {"start": 0.0, "stop": 1.2, "num": 13},
            },
        )
        rc = cli_main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "boundary.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,noise_value"
        assert len(lines) == 2

    def test_mc_verify_command(self, capsys):
        rc = cli_main(
            [
                "mc-verify",
                "--nu", "0.9",
                "--xi2", "1.0",
                "--n-atoms", "400",
                "--n-shots", "1000",
                "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        keys = [line.partition(":")[0].strip() for line in out.splitlines()]
        assert keys == [
            "empirical variance",
            "predicted variance",
            "ratio",
            "mean deviation",
            "failed fits",
            "least-squares ref",
            "cramer-rao bound",
        ]

    @pytest.mark.parametrize(
        "phi_args",
        [["--phi", "-5.398460529870697e-05"], ["--phi=-5.398460529870697e-05"]],
    )
    def test_mc_verify_negative_exponent_phi(self, monkeypatch, phi_args):
        # argparse alone reads "-5.398460529870697e-05" as an option flag
        seen, original = [], cli.verify_sensitivity

        def spy(params, *args):
            seen.append(params.phi)
            return original(params, *args)

        monkeypatch.setattr(cli, "verify_sensitivity", spy)
        argv = ["mc-verify", *phi_args, "--n-atoms", "200", "--n-shots", "1000"]
        assert cli_main(argv) == 0
        assert seen == [-5.398460529870697e-05]

    @pytest.mark.parametrize(
        "flag, value", [("--phi", "nan"), ("--phi", "inf"), ("--xi2", "nan"), ("--xi2", "inf")]
    )
    def test_mc_verify_nonfinite_input_is_config_error(self, flag, value, capsys):
        argv = ["mc-verify", flag, value, "--n-atoms", "200", "--n-shots", "1000"]
        assert cli_main(argv) == 1
        assert flag.lstrip("-") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [[1, 2], {"mc": [1]}, {"mc": {"n_shot": 1000}}, {"mc": {"nu": "abc", "n_shots": 10}}],
        ids=["list_config", "list_mc", "unknown_mc_key", "string_mc_value"],
    )
    def test_mc_verify_bad_config_is_config_error(self, tmp_path, config, capsys):
        cfg = self.write_config(tmp_path, config)
        assert cli_main(["mc-verify", "--config", cfg, "--n-atoms", "200"]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mc, code",
        [
            ({"n_shots": 1000}, 0),
            ({"nu": 0.25, "xi2": 0.0, "n_shots": 1000}, 0),
            ({"n_shots": 10}, 1),
            ({"n_shots": 1000.0}, 1),
            ({"nu": 0.1}, 1),
            ({"nu": 0.98}, 1),
            ({"xi2": -1}, 1),
            ({"nu": "abc"}, 1),
        ],
    )
    def test_scan_and_mc_verify_refuse_the_same_mc_blocks(self, tmp_path, mc, code):
        cfg = self.write_config(
            tmp_path, {"n_particles": 20, "lambda_grid": [0.5], "mc": {"n_atoms": 200, **mc}}
        )
        assert cli_main(["scan", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert cli_main(["mc-verify", "--config", cfg]) == code

    def test_mc_verify_flag_beats_config(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"mc": {"nu": 0.9, "n_atoms": 500, "n_shots": 1000}}
        )
        assert cli_main(["mc-verify", "--config", cfg, "--nu", "0.5", "--seed", "3"]) == 0
        mixed = capsys.readouterr().out
        argv = ["mc-verify", "--nu", "0.5", "--n-atoms", "500", "--n-shots", "1000"]
        assert cli_main([*argv, "--seed", "3"]) == 0
        assert mixed == capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, key, in_config, on_flag",
        [
            ("--nu", "nu", 0.7, 0.5),
            ("--xi2", "xi2", 0.5, 2.0),
            ("--phi", "phi", 0.3, -0.2),
            ("--n-atoms", "n_atoms", 300, 200),
            ("--n-shots", "n_shots", 1200, 1000),
            ("--seed", "seed", 5, 3),
        ],
    )
    def test_mc_verify_precedence(
        self, tmp_path, monkeypatch, flag, key, in_config, on_flag
    ):
        # every setting: its flag if given, else the config's mc block, else the default
        seen, original = [], cli.verify_sensitivity

        def spy(params, xi2, n_shots, seed):
            seen.append({**vars(params), "xi2": xi2, "n_shots": n_shots, "seed": seed})
            return original(params, xi2, n_shots, seed)

        monkeypatch.setattr(cli, "verify_sensitivity", spy)
        small = {"n_atoms": 200, "n_shots": 1000}
        cfg = self.write_config(tmp_path, {"mc": {**small, key: in_config}})
        assert cli_main(["mc-verify", "--config", cfg, flag, str(on_flag)]) == 0
        assert cli_main(["mc-verify", "--config", cfg]) == 0
        assert cli_main(["mc-verify", "--config", self.write_config(tmp_path, {})]) == 0
        assert [s[key] for s in seen] == [on_flag, in_config, MC_DEFAULTS[key]]

    def test_cli_import_leaves_out_scipy_optimize(self):
        # scipy.optimize costs every CLI run ~20 MB; only minimize_bell_direct needs it
        src = os.path.dirname(os.path.dirname(bellfringe.__file__))
        code = "import sys, bellfringe.cli; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_analytics_command(self, capsys):
        rc = cli_main(["analytics", "--lam", "8.0", "--lam", "-0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "thresholds" in out
        assert "repulsive" in out and "attractive_para" in out

    def test_missing_config_is_config_error(self, tmp_path):
        rc = cli_main(
            ["scan", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_invalid_config_is_config_error(self, tmp_path):
        cfg = self.write_config(tmp_path, {"n_particles": 10})  # no lambda_grid
        rc = cli_main(["scan", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_particles": 100.0},
            {"n_particles": 0},
            {"mode": "thermal", "noise_axis": "temperature", "noise_grid": [-1.0]},
            {"lambda_grid": [0.5, float("nan"), 1.0]},
            {
                "mode": "blurred",
                "noise_axis": "sigma_detector",
                "noise_grid": [-0.5],
                "k_fringe": -1.0,
            },
            {"outputs": "csv"},
            {"outputs": ["xml"]},
            {"seed": "x"},
            {"seed": True},
            {"k_fringe": True},
            {"lambda_grid": "12"},
            {"mc": "x"},
            {"mc": {"n_shot": 1000}},
            {"mc": {"nu": "abc", "n_shots": 10}},
            {"mc": {"nu": 1.5}},
            {"mc": {"seed": 1.5}},
            {"mc": {"n_shots": 10}},
            {"mc": {"nu": 0.1}},
            {"mc": {"xi2": -1}},
            {"n_particles": 10, "lambda_grid": [0.5], "noise_grid": [0.5, 2.0]},
            {"lambda_grid": {"start": True, "stop": 2, "num": True}},
            {"lambda_grid": {"start": 0, "stop": 1, "num": 2.0}},
            {"lambda_grid": {"start": 0, "stop": 1, "num": 0}},
            {"lambda_grid": {"start": "0", "stop": 1, "num": 3}},
            {"lambda_grid": {"start": 0, "stop": math.inf, "num": 3}},
            {"lambda_grid": {"start": 0, "stop": 1, "num": 3, "step": 1}},
        ],
        ids=[
            "float_n",
            "zero_n",
            "negative_temperature",
            "nan_lambda",
            "negative_k_and_sigma",
            "outputs_string",
            "unknown_output",
            "string_seed",
            "bool_seed",
            "bool_k",
            "string_grid",
            "string_mc",
            "unknown_mc_key",
            "string_mc_value",
            "mc_nu_out_of_range",
            "float_mc_seed",
            "mc_too_few_shots",
            "mc_nu_below_fit_guard",
            "mc_negative_xi2",
            "ground_noise_grid",
            "bool_linspace",
            "float_num",
            "zero_num",
            "string_start",
            "infinite_stop",
            "extra_linspace_key",
        ],
    )
    def test_bad_spec_is_config_error(self, tmp_path, overrides):
        cfg = self.write_config(
            tmp_path, {"n_particles": 100, "lambda_grid": [1.0], **overrides}
        )
        rc = cli_main(["scan", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_main_reuses_one_parser(self, monkeypatch, capsys):
        parser, calls = cli.build_parser(), []
        original = parser.parse_args

        def spy(argv):
            calls.append(argv)
            return original(argv)

        monkeypatch.setattr(parser, "parse_args", spy)
        argv = ["analytics", "--lam", "-0.9", "--lam", "8.0"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first
        assert calls == [argv, argv]
        assert cli.build_parser() is parser

    def test_threads_env_override(self, tmp_path, monkeypatch):
        cfg = self.write_config(
            tmp_path, {"n_particles": 40, "lambda_grid": [-0.5, 0.5]}
        )
        monkeypatch.setenv("BELLFRINGE_THREADS", "2")
        rc = cli_main(["scan", "--config", cfg, "--out", str(tmp_path / "t")])
        assert rc == 0

    @pytest.mark.parametrize("flag, env", [("0", None), ("1", "-3")])
    def test_thread_count_below_one_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys, flag, env):
        cfg = self.write_config(tmp_path, {"n_particles": 40, "lambda_grid": [0.5]})
        monkeypatch.delenv("BELLFRINGE_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("BELLFRINGE_THREADS", env)
        for command in ("scan", "crossings", "boundary"):
            out = str(tmp_path / command)
            assert cli_main([command, "--config", cfg, "--out", out, "--threads", flag]) == 1
            assert "thread count must be >= 1" in capsys.readouterr().err
            assert not os.path.exists(out)


NOISE_VALUES = {
    "temperature": st.floats(0.0, 50.0) | st.just(math.inf),
    "sigma_delta": st.floats(0.0, 0.3),
    "sigma_detector": st.floats(0.0, 10.0),
}
BAD_GRIDS = ([], [math.nan], [math.inf], [1.0, 0.5], "12", [True], [None], ["1"], 3.0)
BAD_LINSPACES = (
    {"start": 0, "stop": 1, "num": 0},
    {"start": 0},
    {"start": True, "stop": 2, "num": True},
    {"start": 0, "stop": 1, "num": 2.0},
    {"start": "0", "stop": 1, "num": 3},
    {"start": 0, "stop": math.nan, "num": 3},
    {"start": 0, "stop": 1, "num": 3, "step": 1},
)
# nu inside the bench's fit-regime guard (0.2, 0.98)
MC_NU = st.floats(0.2, 0.98, exclude_min=True, exclude_max=True)
BAD_VALUES = {
    "n_particles": st.sampled_from([0, -3, 2.5, "4", True, None, [4]]),
    "lambda_grid": st.sampled_from([*BAD_GRIDS, [-math.inf], *BAD_LINSPACES]),
    "mode": st.sampled_from(["bogus", "Thermal", None, 3]),
    "noise_grid": st.sampled_from([*BAD_GRIDS, [-0.1]]),
    "k_fringe": st.sampled_from([0, -1.0, math.nan, math.inf, "1", True, None, [1.0]]),
    "seed": st.sampled_from([1.5, "x", True, None, [0]]),
    "outputs": st.sampled_from(["csv", ["xml"], ["csv", "xml"], 5, None, [["csv"]]]),
    "rotation": st.sampled_from(["on", "AUTO", None, True]),
    "mc": st.sampled_from(
        [
            "x", [1], 3, True, {"n_shot": 1000}, {"nu": "abc", "n_shots": 10}, {"seed": 0.5},
            {"n_shots": 10}, {"nu": 0.1}, {"xi2": -1},
        ]
    ),
}


@st.composite
def scan_configs(draw):
    """``(config, rows)``: a valid scan config and the row count it must
    give, or a config with one bad field and ``rows`` None."""
    mode = draw(st.sampled_from(MODES))
    axis = MODE_AXIS[mode]

    def grid(values):
        return sorted(draw(st.lists(values, min_size=1, max_size=4)))

    config = {
        "n_particles": draw(st.integers(1, 40)),
        "lambda_grid": grid(st.floats(-1e6, 1e6)),
        "mode": mode,
        "noise_axis": axis,
        "noise_grid": (
            draw(st.sampled_from([[0], [0.0], [-0.0]]))
            if mode == "ground_state"
            else grid(NOISE_VALUES[axis])
        ),
        "k_fringe": draw(st.floats(0.1, 10.0)),
        "seed": draw(st.integers(0, 2**31)),
        "outputs": draw(
            st.sampled_from([["csv"], ["json"], ["csv", "json"], ["json", "csv"]])
        ),
        "rotation": draw(st.sampled_from(["auto", "off"])),
        "mc": draw(st.none() | st.fixed_dictionaries({"nu": MC_NU})),
    }
    optional = ["k_fringe", "seed", "outputs", "rotation", "mc"]
    if mode == "ground_state":
        optional.append("noise_grid")
    for key in optional:
        if draw(st.booleans()):
            del config[key]  # the default is valid too
    fields = [*BAD_VALUES, "noise_axis", "extra", "missing"]
    bad = draw(st.none() | st.sampled_from(fields))
    if bad is None:
        rows = len(config["lambda_grid"]) * len(config.get("noise_grid", [0.0]))
        return config, rows
    if bad == "noise_axis":
        others = [a for a in (*MODE_AXIS.values(), "bogus", None) if a != axis]
        config["noise_axis"] = draw(st.sampled_from(others))
    elif bad == "extra":
        config["bogus"] = 1
    elif bad == "missing":
        del config[draw(st.sampled_from(["n_particles", "lambda_grid"]))]
    elif bad == "noise_grid" and mode == "ground_state" and draw(st.booleans()):
        # a ground-state scan has no noise axis
        config["noise_grid"] = draw(st.sampled_from([[0.5], [0.0, 0.0], [0.0, 1.0]]))
    elif bad == "noise_grid" and mode != "thermal" and draw(st.booleans()):
        config["noise_grid"] = [0.0, math.inf]  # T = inf is a temperature only
    elif bad == "noise_grid" and mode == "thermal":
        # [inf] is a valid temperature grid: it is bad in the other modes only
        config["noise_grid"] = draw(BAD_VALUES[bad].filter(lambda g: g != [math.inf]))
    else:
        config[bad] = draw(BAD_VALUES[bad])
    return config, None


class TestSpecFuzz:
    @settings(max_examples=120, deadline=None)
    @given(scan_configs())
    def test_cli_scan_accepts_valid_and_refuses_invalid_specs(self, case):
        config, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            code = cli_main(["scan", "--config", cfg, "--out", out])
            if rows is None:
                assert code == 1
                assert not os.path.exists(out)
                return
            assert code == 0
            outputs = config.get("outputs", ["csv", "json"])
            assert sorted(os.listdir(out)) == sorted(f"scan.{ext}" for ext in outputs)
            if "json" in outputs:
                with open(os.path.join(out, "scan.json"), encoding="utf-8") as fh:
                    written = json.load(fh)["rows"]
            else:
                with open(os.path.join(out, "scan.csv"), encoding="utf-8") as fh:
                    written = list(csv.DictReader(fh))
            assert len(written) == rows
            # a numpy warning, raised as an error under pytest, must not
            # have turned a point into an error row
            assert not any("Warning" in row["error"] for row in written)
