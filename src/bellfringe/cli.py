"""Command-line driver: scans, crossings, boundaries, MC verification.

Exit status: 0 on success, 1 on configuration errors, 2 on computation
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .analytics import bell_thresholds, semiclassical_ab
from .fringe_mc import (
    cramer_rao_variance,
    least_squares_variance,
    verify_sensitivity,
)
from .scan import (
    MC_DEFAULTS,
    ScanSpec,
    _mc_settings,
    _write_output,
    emit_outputs,
    extract_region_boundary,
    find_zero_crossings,
    make_evaluator,
    run_scan,
)

CONFIG_ERROR = 1
COMPUTE_ERROR = 2
# argparse's own test misses exponents and infinities and reads a value such
# as -5.4e-05 or -inf as an option flag
NEGATIVE_NUMBER = re.compile(r"(?i)^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$")


def _load_config(path: str) -> dict:
    """The JSON object of a config file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    return data


def _load_spec(path: str, no_rotation: bool, seed) -> ScanSpec:
    data = _load_config(path)
    if no_rotation:
        data["rotation"] = "off"
    if seed is not None:
        data["seed"] = seed
    return ScanSpec.from_dict(data)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="JSON scan specification")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override spec seed")
    parser.add_argument("--cache", default=None, help="spectrum cache directory")
    parser.add_argument(
        "--no-rotation",
        action="store_true",
        help="disable the automatic pi/2 pre-rotation for repulsive interactions",
    )


def cmd_scan(args) -> int:
    spec = _load_spec(args.config, args.no_rotation, args.seed)
    rows = run_scan(spec, cache_dir=args.cache)
    paths = emit_outputs(rows, spec, args.out)
    for path in paths:
        print(path)
    return 0


def cmd_crossings(args) -> int:
    spec = _load_spec(args.config, args.no_rotation, args.seed)
    evaluate = make_evaluator(spec, column=args.column)  # refuses before the scan
    rows = run_scan(spec, cache_dir=args.cache)
    crossings = find_zero_crossings(rows, args.column, evaluate)
    payload = {"column": args.column, "crossings": crossings}
    print(_write_output(args.out, "crossings.json", payload))
    for lam in crossings:
        print(f"{args.column} = 0 at lambda = {lam:.6f}")
    return 0


def cmd_boundary(args) -> int:
    spec = _load_spec(args.config, args.no_rotation, args.seed)
    rows = run_scan(spec, cache_dir=args.cache)
    boundary = extract_region_boundary(rows)
    text = "".join(f"{lam:.17g},{noise:.17g}\n" for lam, noise in boundary)
    print(_write_output(args.out, "boundary.csv", "lambda,noise_value\n" + text))
    return 0


def cmd_mc_verify(args) -> int:
    # each setting: its flag if given, else the config's "mc" block, else the default
    block = _load_config(args.config).get("mc") if args.config else None
    flags = {key: getattr(args, key, None) for key in MC_DEFAULTS}
    mc, params = _mc_settings(block, flags)
    nu, xi2 = mc["nu"], mc["xi2"]
    result = verify_sensitivity(params, xi2, mc["n_shots"], mc["seed"])
    ratio = result.empirical_variance / result.predicted_variance
    print(f"empirical variance : {result.empirical_variance:.6e}")
    print(f"predicted variance : {result.predicted_variance:.6e}")
    print(f"ratio              : {ratio:.4f}")
    print(f"mean deviation     : {result.mean_deviation:.3e} "
          f"(std err {result.std_error:.3e})")
    # the projection fit never fails; bench/checks.py parses this line, so it stays
    print(f"failed fits        : 0/{result.n_shots}")
    # references that explain the ratio: the binned least-squares fit's own
    # large-N variance, and the Cramer-Rao bound no unbiased estimator beats
    for key, reference in (
        ("least-squares ref ", least_squares_variance(xi2, nu, params.n_atoms)),
        ("cramer-rao bound  ", cramer_rao_variance(xi2, nu, params.n_atoms)),
    ):
        print(f"{key} : {reference:.6e} "
              f"(empirical/ref {result.empirical_variance / reference:.4f})")
    return 0


def cmd_analytics(args) -> int:
    t1, t2, t3 = bell_thresholds()
    print(f"witness thresholds: lambda = {t1}, {t2:.6f}, {t3}")
    for lam in args.lam:
        pred = semiclassical_ab(lam)
        print(
            f"lambda={lam:g} [{pred.regime}]: xi2={pred.xi2:.6f} nu={pred.nu:.6f} "
            f"a={pred.a_param:.6f} b={pred.b_param:.6f}"
        )
    return 0


@functools.cache  # one parser per process: parsing does not mutate it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellfringe",
        description="Bell-correlation witness scans for a double-well Bose gas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="run a parameter scan and emit CSV/JSON")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("crossings", help="zero crossings of a column along lambda")
    _add_common(p)
    p.add_argument("--column", choices=("a_param", "b_param"), default="b_param")
    p.set_defaults(func=cmd_crossings)

    p = sub.add_parser("boundary", help="witness-region boundary over a noise grid")
    _add_common(p)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("mc-verify", help="Monte-Carlo check of the sensitivity formula")
    p.add_argument("--config", default=None, help="JSON file with an 'mc' block")
    p.add_argument("--nu", type=float)
    p.add_argument("--xi2", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--n-atoms", type=int)
    p.add_argument("--n-shots", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_mc_verify)

    p = sub.add_parser("analytics", help="semiclassical predictions and thresholds")
    p.add_argument("--lam", type=float, action="append", default=[])
    p.set_defaults(func=cmd_analytics)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
