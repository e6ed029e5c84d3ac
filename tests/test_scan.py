import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellfringe import (
    ModelParams,
    QuadratureRule,
    ScanRow,
    ScanSpec,
    bell_witness,
    build_report,
    compute_moments,
    delta_mixture,
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
from bellfringe import cli
from bellfringe.cli import main as cli_main
from bellfringe.scan import (
    CSV_HEADER,
    FLOOR_ERROR,
    MODE_AXIS,
    MODES,
    SpectrumCache,
    make_evaluator,
    rows_to_csv,
)

from oracles import dense_hamiltonian, dense_spin_matrices


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
            # the dense mixture uses the order node doubling settled on
            ens = delta_mixture(n, row.lam, row.noise_value)
            want = dense_delta_report(n, row.lam, row.noise_value, len(ens.states) // 2)
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

    def test_cache_serves_only_covering_windows(self, tmp_path):
        cache = str(tmp_path)
        run_scan(thermal_spec(40, (-0.5, 0.5), (0.0, 0.5)), cache_dir=cache)
        hot = thermal_spec(40, (-0.5, 0.5), (0.0, 1.0, 3.0))
        cold = run_scan(hot, cache_dir=cache)
        assert cold == run_scan(hot)
        files = sorted(tmp_path.glob("*.npz"))
        assert len(files) == 2
        stored = [f.read_bytes() for f in files]
        assert run_scan(hot, cache_dir=cache) == cold
        # a narrower window is served from the wider table, not recomputed
        run_scan(thermal_spec(40, (-0.5, 0.5), (0.2,)), cache_dir=cache)
        assert [f.read_bytes() for f in files] == stored

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


class TestCrossingsAndBoundary:
    def test_finds_witness_threshold(self):
        # large N: b crosses zero near lambda = -3/4
        spec = ground_spec([-0.85, -0.65], n=1000)
        rows = run_scan(spec)
        crossings = find_zero_crossings(rows, "b_param", make_evaluator(spec))
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(-0.75, abs=0.02)

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


NOISE_VALUES = {
    "none": st.floats(0.0, 10.0),
    "temperature": st.floats(0.0, 50.0) | st.just(math.inf),
    "sigma_delta": st.floats(0.0, 0.3),
    "sigma_detector": st.floats(0.0, 10.0),
}
BAD_GRIDS = ([], [math.nan], [math.inf], [1.0, 0.5], "12", [True], [None], ["1"], 3.0)
BAD_VALUES = {
    "n_particles": st.sampled_from([0, -3, 2.5, "4", True, None, [4]]),
    "lambda_grid": st.sampled_from(
        [*BAD_GRIDS, [-math.inf], {"start": 0, "stop": 1, "num": 0}, {"start": 0}]
    ),
    "mode": st.sampled_from(["bogus", "Thermal", None, 3]),
    "noise_grid": st.sampled_from([*BAD_GRIDS, [-0.1]]),
    "k_fringe": st.sampled_from([0, -1.0, math.nan, math.inf, "1", True, None, [1.0]]),
    "seed": st.sampled_from([1.5, "x", True, None, [0]]),
    "outputs": st.sampled_from(["csv", ["xml"], ["csv", "xml"], 5, None, [["csv"]]]),
    "rotation": st.sampled_from(["on", "AUTO", None, True]),
    "mc": st.sampled_from(["x", [1], 3, True]),
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
        "noise_grid": grid(NOISE_VALUES[axis]),
        "k_fringe": draw(st.floats(0.1, 10.0)),
        "seed": draw(st.integers(0, 2**31)),
        "outputs": draw(
            st.sampled_from([["csv"], ["json"], ["csv", "json"], ["json", "csv"]])
        ),
        "rotation": draw(st.sampled_from(["auto", "off"])),
        "mc": draw(st.none() | st.fixed_dictionaries({"nu": st.floats(0.1, 1.0)})),
    }
    for key in ("k_fringe", "seed", "outputs", "rotation", "mc"):
        if draw(st.booleans()):
            del config[key]  # the default is valid too
    fields = [*BAD_VALUES, "noise_axis", "extra", "missing"]
    bad = draw(st.none() | st.sampled_from(fields))
    if bad is None:
        per_lambda = 1 if mode == "ground_state" else len(config["noise_grid"])
        return config, len(config["lambda_grid"]) * per_lambda
    if bad == "noise_axis":
        others = [a for a in (*MODE_AXIS.values(), "bogus", None) if a != axis]
        config["noise_axis"] = draw(st.sampled_from(others))
    elif bad == "extra":
        config["bogus"] = 1
    elif bad == "missing":
        del config[draw(st.sampled_from(["n_particles", "lambda_grid"]))]
    elif bad == "noise_grid" and mode != "thermal" and draw(st.booleans()):
        config["noise_grid"] = [0.0, math.inf]  # T = inf is a temperature only
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
