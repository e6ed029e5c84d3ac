"""Fingerprint every CLI output of a checkout on a fixed set of cases.

Usage::

    python tools/output_digest.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script; its ``src/`` is put
first on the import path, so the digest describes that checkout's sources.
Each case runs ``bellfringe.cli.main`` in a fresh temporary directory and
prints one line: the case name, the exit code, the sha256 of stdout and the
sha256 of every file the case wrote, by relative path.  Diffing the output
of two checkouts shows every case whose bytes differ.  Only the standard
library and the checkout's own package are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

GROUND_README = {
    "n_particles": 1000,
    "lambda_grid": {"start": -1.3, "stop": 0.0, "num": 100},
    "mode": "ground_state",
}
THERMAL_README = {
    "n_particles": 1000,
    "lambda_grid": [8.0],
    "mode": "thermal",
    "noise_axis": "temperature",
    "noise_grid": {"start": 0.0, "stop": 3.0, "num": 13},
}
GROUND_N3 = {"n_particles": 3, "lambda_grid": [-1.5, -0.9, 0.0, 0.5, 8.0]}
THERMAL_INF = {
    "n_particles": 40,
    "lambda_grid": [-1.3, -0.9, 0.5, 8.0],
    "mode": "thermal",
    "noise_axis": "temperature",
    "noise_grid": [0.0, 0.5, 2.0, math.inf],
}
# THERMAL_INF's column at a narrower largest temperature: on the warm cache
# it must give the bytes of its uncached twin
THERMAL_NARROWER = {**THERMAL_INF, "noise_grid": [0.0, 0.5]}
THERMAL_TINY = {
    "n_particles": 1000,
    "lambda_grid": [-1.3, 0.5],
    "mode": "thermal",
    "noise_axis": "temperature",
    "noise_grid": [0.0, 1e-310, 1.0],
}
# good thermal columns, then one whose Hamiltonian overflows
THERMAL_OVERFLOW = {**THERMAL_TINY, "lambda_grid": [-1.3, 0.5, 1e306], "noise_grid": [0.0, 1.0]}
BLURRED = {
    "n_particles": 1000,
    "lambda_grid": [-0.9, 0.5, 8.0],
    "mode": "blurred",
    "noise_axis": "sigma_detector",
    "noise_grid": {"start": 0.0, "stop": 1.2, "num": 7},
}
DELTA = {
    "n_particles": 200,
    "lambda_grid": [-1.2, -0.9, 0.5],
    "mode": "delta_mixture",
    "noise_axis": "sigma_delta",
    "noise_grid": [0.0, 0.02, 0.06],
}
# a point next to the transition, where the tilted ground states change
# fastest around zero tilt
DELTA_TRANSITION_POINT = {
    "n_particles": 1000,
    "lambda_grid": [-1.03],
    "mode": "delta_mixture",
    "noise_axis": "sigma_delta",
    "noise_grid": [0.06],
}
# columns across the transition, several sigma_delta sharing one tilt grid
DELTA_TRANSITION = {
    "n_particles": 1000,
    "lambda_grid": [-1.045, -1.03, -1.0],
    "mode": "delta_mixture",
    "noise_axis": "sigma_delta",
    "noise_grid": [0.0, 0.01, 0.05, 0.1],
}
# more lambdas than one ground-state block, odd N: the last block holds
# 1e300, which solves at odd N, and 1e306, whose Hamiltonian overflows, so
# that block fails and is solved again lambda by lambda
GROUND_BLOCKS_ODD = {
    "n_particles": 1001,
    "lambda_grid": [-1.3 + 0.25 * k for k in range(18)] + [1e300, 1e306],
}
BLURRED_BLOCKS = {
    "n_particles": 1000,
    "lambda_grid": {"start": -1.3, "stop": 2.0, "num": 19},
    "mode": "blurred",
    "noise_axis": "sigma_detector",
    "noise_grid": {"start": 0.0, "stop": 1.2, "num": 4},
}
CROSSING = {"n_particles": 1000, "lambda_grid": {"start": -1.0, "stop": -0.5, "num": 11}}
BLURRED_CROSSING = {
    "n_particles": 400,
    "lambda_grid": [-0.95, -0.85, -0.75],
    "mode": "blurred",
    "noise_axis": "sigma_detector",
    "noise_grid": [0.4],
}
NEGATIVE_ZERO_LAMBDA = {"n_particles": 20, "lambda_grid": [-0.0, 1.0]}
NEGATIVE_ZERO_NOISE = {
    "n_particles": 20,
    "lambda_grid": [-0.9],
    "mode": "thermal",
    "noise_axis": "temperature",
    "noise_grid": [-0.0, 1.0],
}
MC_TYPO = {"n_particles": 20, "lambda_grid": [0.5], "mc": {"n_shot": 1000}}
MC_BAD_VALUE = {"n_particles": 20, "lambda_grid": [0.5], "mc": {"nu": "abc", "n_shots": 10}}
MC_OUT_OF_RANGE = {"n_particles": 20, "lambda_grid": [0.5], "mc": {"n_shots": 10}}
MC_BLOCK = {"mc": {"nu": 0.9, "n_atoms": 500, "n_shots": 1000}}
MC_FULL = {
    "mc": {"nu": 0.7, "xi2": 0.5, "phi": 0.3, "k": 2.0, "n_atoms": 300,
           "n_periods": 4, "seed": 5, "n_shots": 1000}
}

# (name, subcommand and flags, config or None); --config and --out are added
CASES = (
    ("scan-ground-readme", ["scan"], GROUND_README),
    ("scan-ground-n3", ["scan"], GROUND_N3),
    ("scan-ground-n3-no-rotation", ["scan", "--no-rotation", "--seed", "7"], GROUND_N3),
    ("scan-ground-blocks-odd-n", ["scan"], GROUND_BLOCKS_ODD),
    ("scan-thermal-readme", ["scan"], THERMAL_README),
    ("scan-thermal-inf", ["scan"], THERMAL_INF),
    ("scan-thermal-tiny-t", ["scan"], THERMAL_TINY),
    ("scan-thermal-overflow", ["scan"], THERMAL_OVERFLOW),
    ("scan-thermal-cache-cold", ["scan", "--cache", "cache"], THERMAL_INF),
    ("scan-thermal-cache-warm", ["scan", "--cache", "cache"], THERMAL_INF),
    ("scan-thermal-cache-narrower", ["scan", "--cache", "cache"], THERMAL_NARROWER),
    ("scan-thermal-narrower", ["scan"], THERMAL_NARROWER),
    ("scan-blurred", ["scan"], BLURRED),
    ("scan-blurred-blocks", ["scan"], BLURRED_BLOCKS),
    ("scan-delta", ["scan"], DELTA),
    ("scan-delta-transition-point", ["scan"], DELTA_TRANSITION_POINT),
    ("scan-delta-transition", ["scan"], DELTA_TRANSITION),
    ("scan-negative-zero-lambda", ["scan"], NEGATIVE_ZERO_LAMBDA),
    ("scan-negative-zero-noise", ["scan"], NEGATIVE_ZERO_NOISE),
    ("scan-mc-typo", ["scan"], MC_TYPO),
    ("scan-mc-bad-value", ["scan"], MC_BAD_VALUE),
    ("scan-mc-out-of-range", ["scan"], MC_OUT_OF_RANGE),
    ("crossings-b", ["crossings"], CROSSING),
    ("crossings-a", ["crossings", "--column", "a_param"], CROSSING),
    ("crossings-blurred", ["crossings"], BLURRED_CROSSING),
    ("crossings-several-noise-values", ["crossings"], THERMAL_README),
    ("boundary-thermal-readme", ["boundary"], THERMAL_README),
    ("boundary-blurred", ["boundary"], BLURRED),
    ("mc-verify-readme", ["mc-verify", "--nu", "0.9", "--xi2", "1.0", "--n-atoms",
                          "1000", "--n-shots", "10000", "--seed", "1"], None),
    ("mc-verify-negative-phi", ["mc-verify", "--phi", "-5.4e-05", "--n-atoms", "500",
                                "--n-shots", "1000"], None),
    ("mc-verify-config", ["mc-verify"], MC_FULL),
    ("mc-verify-flag-over-config", ["mc-verify", "--nu", "0.5", "--seed", "3"], MC_BLOCK),
    ("analytics", ["analytics", "--lam", "-1.3", "--lam", "-0.9", "--lam", "0.0",
                   "--lam", "8.0"], None),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(directory: str) -> list:
    """(relative path, sha256) of every file under ``directory``, sorted."""
    found = []
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found.append((os.path.relpath(path, directory), _sha256(fh.read())))
    return sorted(found)


def run_case(cli_main, name: str, argv: list, config) -> str:
    """One digest line for a case, run in the current directory."""
    argv = list(argv)
    if config is not None:
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)  # an infinite temperature is written Infinity
        argv += ["--config", f"{name}.json"]
    if argv[0] not in ("mc-verify", "analytics"):
        argv += ["--out", name]
    stdout = io.StringIO()
    # stderr carries messages and warnings, not outputs: it is left out
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    files = _written(name) if os.path.isdir(name) else []
    parts = [name, f"exit={code}", f"stdout={_sha256(stdout.getvalue().encode())}"]
    parts += [f"{path}={digest}" for path, digest in files]
    return " ".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = os.path.abspath(
        argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir)
    )
    sys.path.insert(0, os.path.join(checkout, "src"))
    from bellfringe.cli import main as cli_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, case_argv, config in CASES:
                print(run_case(cli_main, name, case_argv, config), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
