"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import loop  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = workloads.generate_pass(workload, 7, 3)
    assert workloads.generate_pass(workload, 7, 3) == first
    assert workloads.generate_pass(workload, 8, 3) != first
    assert workloads.generate_pass(workload, 7, 4) != first
    # a fresh interpreter with another hash seed draws the same ops
    code = (f"import json, sys; sys.path.insert(0, {BENCH!r}); import workloads; "
            f"print(json.dumps(workloads.generate_pass({workload!r}, 7, 3)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert json.loads(out) == json.loads(json.dumps(first))


def test_pass_composition_does_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        shapes = {tuple(sorted((op["label"], op["items"]) for op in
                               workloads.generate_pass(workload, seed, 0)))
                  for seed in range(5)}
        assert len(shapes) == 1, workload


def test_delta_transition_stays_outside_the_non_converging_band():
    (left_lo, left_hi), (right_lo, right_hi) = workloads.DELTA_TRANSITION
    for seed in range(20):
        for p in range(8):
            op, = [op for op in workloads.generate_pass("delta_scan", seed, p)
                   if op["label"] == "delta_N1000_transition"]
            lam = op["config"]["lambda_grid"]
            assert sum(left_lo <= x < left_hi for x in lam) == 2
            assert sum(right_lo <= x < right_hi for x in lam) == 2


def _span(name, start, end, parent):
    return [name, start, end, parent, "op", None]


def test_self_time_on_a_nested_span_tree():
    spans = [
        _span("cli", 0.0, 10.0, -1),
        _span("scan.run_scan", 1.0, 6.0, 0),
        _span("josephson.ground_state", 2.0, 3.0, 1),
        _span("josephson.ground_state", 4.0, 5.5, 1),
        _span("josephson.eigensolve", 4.5, 5.0, 3),
        _span("scan.emit_outputs", 7.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.0, 0.5, 2.0])
    m = tracing.layer_metrics(spans, passes=2)
    assert m["cli.self_ms"] == pytest.approx(1.5e3)
    assert m["scan.run_scan.self_ms"] == pytest.approx(1.25e3)
    assert m["josephson.ground_state.calls"] == 1.0
    assert m["josephson.ground_state.ms"] == pytest.approx(1.25e3)
    assert m["josephson.solve_self.ms"] == pytest.approx(1.0e3)


def test_self_time_clips_children_to_the_parent():
    spans = [_span("a", 0.0, 4.0, -1), _span("b", 3.0, 6.0, 0), _span("c", 3.5, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


@pytest.fixture()
def scan_rows(tmp_path):
    from bellfringe import cli

    config = {"n_particles": 60, "lambda_grid": [-0.9, 0.5, 2.0], "mode": "ground_state"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    rc, *_ = loop.call_cli(cli.main, ["scan", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    return config, checks.parse_scan(loop.read_outputs(str(tmp_path)))


def _dense_row(spin, lam):
    jx, jy2, jz2 = spin.moments(spin.ground(lam))[0]
    return checks.witness(jx, jy2, jz2, spin.n, lam > 0)


def test_checker_accepts_rows_and_rejects_a_perturbed_row(scan_rows):
    config, rows = scan_rows
    assert checks.check_rows(rows, config) == ""
    spin = checks.DenseSpin(60)
    for row in rows:
        ref = _dense_row(spin, row["lambda"])
        assert checks.compare_row(row, ref, checks.EXACT_RTOL, checks.EXACT_ATOL) == ""
    bad = dict(rows[1], xi2=rows[1]["xi2"] * (1 + 1e-5))
    ref = _dense_row(spin, bad["lambda"])
    assert "xi2" in checks.compare_row(bad, ref, checks.EXACT_RTOL, checks.EXACT_ATOL)


def test_checker_rejects_a_wrong_grid(scan_rows):
    config, rows = scan_rows
    assert checks.check_rows(rows[:-1], config)
    moved = dict(config, lambda_grid=[-0.9, 0.5, 2.5])
    assert checks.check_rows(rows, moved)


def _mc_report(empirical, failed=0, shots=1000):
    return checks.parse_mc(
        f"empirical variance : {empirical:.6e}\npredicted variance : 1.0e-03\n"
        f"ratio              : 1.0\nmean deviation     : 0.0 (std err 1.0e-03)\n"
        f"failed fits        : {failed}/{shots}\n")


def test_checker_rejects_an_out_of_band_mc_variance():
    mc = {"nu": 0.5, "xi2": 1.0, "n_atoms": 1000, "n_shots": 1000}
    predicted = (1.0 + 2.0 / 0.25) / 1000
    assert checks.check_mc(_mc_report(predicted * 1.05), mc) == ""
    # the paper's formula sits about a factor 2 below the least-squares variance
    assert checks.check_mc(_mc_report(predicted * 1.3), mc)
    assert checks.check_mc(_mc_report(predicted * 0.7), mc)
    assert checks.check_mc(_mc_report(predicted, failed=11), mc)


def test_every_wrapped_attribute_is_restored(tmp_path):
    from bellfringe import cli

    def snapshot():
        out = {}
        for path, attr, _ in tracing.TARGETS:
            owner = tracing._resolve(path)
            out[(path, attr)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(
                owner, attr)
        return out

    before = snapshot()
    config = {"n_particles": 40, "lambda_grid": [-0.9, -0.5], "mode": "thermal",
              "noise_axis": "temperature", "noise_grid": [0.0, 0.5, 1.0]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(config))
    argv = ["boundary", "--config", str(path), "--out", str(tmp_path / "o"),
            "--cache", str(tmp_path / "cache")]
    with tracing.Tracer() as tracer:
        assert snapshot() != before
        rc, *_ = loop.call_cli(cli.main, argv, tracer)
        rc2, *_ = loop.call_cli(cli.main, argv, tracer)
    assert (rc, rc2) == (0, 0)
    assert tracer.missing == []
    assert snapshot() == before
    m = tracing.layer_metrics(tracer.spans, passes=1)
    assert (m["scan.cache.misses"], m["scan.cache.hits"]) == (2, 2)
    assert m["josephson.full_spectrum.calls"] == 2
