"""Seeded workload generator: a pure function of (workload, seed, pass index).

A pass is a fixed list of CLI operations.  Its composition (how many ops of
each kind and size) is the same for every seed; the seed draws the values
inside it: grid ends, interaction strengths, noise ranges, fringe
parameters and MC seeds.  Keeping the composition fixed is what lets runs
on different seeds be compared at all; drawing the values makes sure no
single input is tuned to.

Each op is a plain dict:
    kind    CLI subcommand ("scan", "crossings", "boundary", "mc-verify")
    label   category, used for per-category summaries
    config  scan spec written to a JSON file (None for mc-verify)
    args    extra argv after the generated --config/--out/--cache
    items   work units: scan rows computed, or MC shots
    n       particle or atom count
    cache   True when the op runs with --cache on the pass's cache dir
"""

from __future__ import annotations

import random

WORKLOADS = ("ground_sweep", "thermal_boundary", "delta_scan", "mc_verify")

MC_SHOTS = 1000


def _rng(*parts) -> random.Random:
    # str seeding hashes with SHA-512, so it is stable across processes and
    # independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, scale = 0.0, 0.5
    while k:
        x += scale * (k & 1)
        k >>= 1
        scale /= 2
    return x


def _spread(offset: float, pass_index: int, k: int, count: int) -> float:
    """Position in [0, 1) of the k-th of ``count`` draws in a pass.  Draws in
    one pass are evenly spaced; successive passes shift them along a van der
    Corput sequence from a seed-drawn offset, so the draws of any run cover
    [0, 1) evenly.  Costs that depend steeply on the drawn value (node
    doubling near Lambda = -1, fit iterations against nu) then add up to
    nearly the same total on every seed."""
    return (offset + (k + _van_der_corput(pass_index)) / count) % 1.0


def _linspace(start: float, stop: float, num: int) -> list:
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [float(stop)]


def _ground(n: int, lam: list) -> dict:
    return {"n_particles": n, "lambda_grid": lam, "mode": "ground_state"}


def _scan_op(label, config, kind="scan", args=(), cache=False) -> dict:
    return {
        "kind": kind,
        "label": label,
        "config": config,
        "args": list(args),
        "items": len(config["lambda_grid"]) * len(config.get("noise_grid", [0.0])),
        "n": config["n_particles"],
        "cache": cache,
    }


def ground_sweep(rng: random.Random, offsets, p: int) -> list:
    ops = []
    for n, nums in ((1000, (100, 150, 200)), (4000, (100, 200))):
        for num in nums:
            lam = _linspace(rng.uniform(-1.5, -1.3), rng.uniform(3.8, 4.0), num)
            ops.append(_scan_op(f"ground_N{n}_{num}", _ground(n, lam)))
    k = rng.uniform(0.5, 2.0)
    blurred = {
        "n_particles": 1000,
        "lambda_grid": _linspace(rng.uniform(-1.3, -1.2), rng.uniform(-0.1, 0.0), 12),
        "mode": "blurred",
        "noise_axis": "sigma_detector",
        "noise_grid": _linspace(0.0, 2.5 / k, 11),
        "k_fringe": k,
    }
    ops.append(_scan_op("blurred_N1000", blurred))
    lam = _linspace(rng.uniform(-1.5, -1.3), rng.uniform(3.8, 4.0), 40)
    ops.append(
        _scan_op(
            "crossings_N1000",
            _ground(1000, lam),
            kind="crossings",
            args=("--column", "b_param"),
        )
    )
    rng.shuffle(ops)
    return ops


def _thermal_lambdas(rng: random.Random, size: int) -> list:
    # both sides of lambda = 0, each inside a witness region at T = 0
    n_neg = size // 2 if size % 2 == 0 else rng.choice((size // 2, size // 2 + 1))
    neg = [rng.uniform(-1.0, -0.8) for _ in range(n_neg)]
    pos = [rng.uniform(4.0, 10.0) for _ in range(size - n_neg)]
    return sorted(neg) + sorted(pos)


def thermal_boundary(rng: random.Random, offsets, p: int) -> list:
    # the two N=1000 sets of 2 make the median op a coarse run of such a
    # set, inside one group of equal ops rather than between two groups
    sets = [(1000, 2), (1000, 2), (1000, 4), (2000, 3)]
    rng.shuffle(sets)
    ops = []
    for n, size in sets:
        lam = _thermal_lambdas(rng, size)
        t_max = rng.uniform(2.8, 3.5)
        for stage, num in (("coarse", 7), ("refined", 25)):
            config = {
                "n_particles": n,
                "lambda_grid": lam,
                "mode": "thermal",
                "noise_axis": "temperature",
                "noise_grid": _linspace(0.0, t_max, num),
            }
            ops.append(
                _scan_op(f"thermal_N{n}_{size}_{stage}", config, kind="boundary", cache=True)
            )
    return ops


# Two ops per pass draw one Lambda from each stratum away from the
# transition; a third covers the region around Lambda = -1, where node
# doubling runs longest, with four evenly spaced Lambda, two on each side.
# The cheap ops set the median op time; the third op carries most of the
# cost.  The transition leaves out (-1.05, -1.0): at N=1000 delta_mixture
# raises ConvergenceError at its order cap for Lambda between about -1.042
# and -1.02 once sigma_delta exceeds about 0.02 (a program defect, see
# README.md), and the points around that band need 625 ground solves.
DELTA_LAMBDA_STRATA = ((-1.3, -1.1), (-0.9, 0.2), (0.2, 1.5), (1.5, 4.0))
DELTA_TRANSITION = ((-1.1, -1.05), (-1.0, -0.95))
DELTA_SIGMA_STRATA = ((0.005, 0.033), (0.033, 0.067), (0.067, 0.1))


def delta_scan(rng: random.Random, offsets, p: int) -> list:
    def op(label, lam):
        config = {
            "n_particles": 1000,
            "lambda_grid": lam,
            "mode": "delta_mixture",
            "noise_axis": "sigma_delta",
            "noise_grid": [0.0] + [rng.uniform(lo, hi) for lo, hi in DELTA_SIGMA_STRATA],
        }
        return _scan_op(label, config)

    ops = [op("delta_N1000", [rng.uniform(lo, hi) for lo, hi in DELTA_LAMBDA_STRATA])
           for _ in range(2)]
    offset = offsets.random()
    transition = []
    for k in range(4):
        u = 2.0 * _spread(offset, p, k, 4)
        lo, hi = DELTA_TRANSITION[int(u)]
        transition.append(lo + (hi - lo) * (u - int(u)))
    transition.sort()
    ops.append(op("delta_N1000_transition", transition))
    rng.shuffle(ops)
    return ops


# Fit time grows with nu and with the atom count.  Pairing the larger counts
# with the lower nu strata gives every pass the same cost structure, while
# the three ops still span nu in [0.3, 0.95] and all three atom counts.
MC_PAIRS = ((500, (0.733, 0.95)), (1000, (0.517, 0.733)), (2000, (0.3, 0.517)))


def mc_verify(rng: random.Random, offsets, p: int) -> list:
    ops = []
    for n_atoms, (lo, hi) in MC_PAIRS:
        nu = lo + (hi - lo) * _spread(offsets.random(), p, 0, 1)
        xi2 = rng.uniform(0.3, 1.5)
        phi = rng.uniform(-1.0, 1.0)
        ops.append(
            {
                "kind": "mc-verify",
                "label": f"mc_N{n_atoms}",
                "config": None,
                "args": [
                    "--nu", repr(nu),
                    "--xi2", repr(xi2),
                    "--phi", repr(phi),
                    "--n-atoms", str(n_atoms),
                    "--n-shots", str(MC_SHOTS),
                    "--seed", str(rng.randrange(2**31)),
                ],
                "items": MC_SHOTS,
                "n": n_atoms,
                "cache": False,
                "mc": {"nu": nu, "xi2": xi2, "phi": phi, "n_atoms": n_atoms,
                       "n_shots": MC_SHOTS},
            }
        )
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "ground_sweep": ground_sweep,
    "thermal_boundary": thermal_boundary,
    "delta_scan": delta_scan,
    "mc_verify": mc_verify,
}


def generate_pass(workload: str, seed: int, pass_index: int) -> list:
    """The op list of one pass; identical arguments give identical ops."""
    # offsets are drawn once per seed, the rest afresh for every pass
    return _GENERATORS[workload](
        _rng("pass", workload, seed, pass_index), _rng("offsets", workload, seed), pass_index
    )


def probe_index(workload: str, seed: int, pass_index: int, n_ops: int) -> int:
    """Which op of a pass the determinism probe re-runs."""
    return _rng("probe", workload, seed, pass_index).randrange(n_ops)
