"""Parameter scans over interaction strength and a noise axis.

A scan walks a lambda grid (outer) and a noise grid (inner) and emits one
row of witness quantities per point.  Every mode first solves the ground
states of its lambda grid in blocks; for each lambda, ``_column_moments``
then lists the spin moments at each noise value: ground and blurred modes,
and every zero noise value, the ground row (blurred also checks its
unblurred report); delta_mixture, the quadrature mixtures of its positive
sigma_delta on one tilt grid; thermal, Boltzmann averages of a K x 6 moment
table of the levels the largest positive finite T occupies, solved once or
read from a cache directory keyed by the package source, N, lambda and that
T, with level 0 read from the ground row (T = inf is the uniform mixture).
One row path then probes the visibility floor (after any blur), rotates,
forms (xi^2, nu) and builds the witness report.  A failure at one point
becomes an error row; a failed column solve fails the column.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .fringe_mc import FringeParams, _require_bench_ranges
from .josephson import ModelParams, _low_spectrum_at, boltzmann_weights, ground_states
from .noise import _settled, blur_visibility, delta_column_moments
from .spin_core import Moments, SpinState, _is_integer, compute_moments, moment_table
from .spin_core import rotate_pi2_about_x
from .witnesses import build_report, phase_squeezing, report_from_moments, visibility

__all__ = [
    "ScanSpec",
    "ScanRow",
    "run_scan",
    "find_zero_crossings",
    "make_evaluator",
    "extract_region_boundary",
    "emit_outputs",
    "rows_to_csv",
    "CSV_HEADER",
]

MODE_AXIS = {
    "ground_state": "none",
    "thermal": "temperature",
    "delta_mixture": "sigma_delta",
    "blurred": "sigma_detector",
}

NU_FLOOR = 1e-6
GROUND_BLOCK = 8  # lambdas per ground_states call; peak memory grows with it
FLOOR_ERROR = "visibility below threshold"
# bisection stops once the bracket on lambda is this narrow
CROSSING_TOL = 1e-4
_source_digest = functools.cache(lambda: hashlib.sha256(b"".join(  # read once per process
    f.read_bytes() for f in sorted(Path(__file__).parent.glob("*.py")))).hexdigest())

# the ScanRow fields a WitnessReport supplies
ROW_FIELDS = (
    "nu", "xi2", "a_param", "b_param", "theta0", "interior_minimum", "var_phi"
)


@dataclass(frozen=True)
class ScanRow:
    lam: float
    noise_value: float
    nu: float = float("nan")
    xi2: float = float("nan")
    a_param: float = float("nan")
    b_param: float = float("nan")
    theta0: float = float("nan")
    interior_minimum: bool = False
    rotated: bool = False
    var_phi: float = float("nan")
    error: str = ""


# the CSV columns and JSON keys of a row: its fields, lam written "lambda"
COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in fields(ScanRow))
CSV_HEADER = ",".join(COLUMNS)

# the "mc" block of a config, read by mc-verify: its keys and their defaults
MC_DEFAULTS = {
    "nu": 0.9, "xi2": 1.0, "phi": 0.0, "k": 1.0,
    "n_atoms": 1000, "n_periods": 8, "seed": 0, "n_shots": 10000,
}


@dataclass(frozen=True)
class ScanSpec:
    n_particles: int
    lambda_grid: tuple
    mode: str = "ground_state"
    noise_axis: str = "none"
    noise_grid: tuple = (0.0,)
    k_fringe: float = 1.0
    seed: int = 0
    outputs: tuple = ("csv", "json")
    rotation: str = "auto"
    mc: dict = None

    def __post_init__(self):
        if self.mode not in MODE_AXIS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if MODE_AXIS[self.mode] != self.noise_axis:
            raise ValueError(
                f"mode {self.mode!r} requires noise_axis {MODE_AXIS[self.mode]!r}"
            )
        for name in ("n_particles", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if len(self.lambda_grid) == 0 or len(self.noise_grid) == 0:
            raise ValueError("grids must be nonempty")
        if not all(math.isfinite(lam) for lam in self.lambda_grid):
            raise ValueError("lambda_grid values must be finite")
        # T = inf is the infinite-temperature limit; the widths must be finite
        thermal = self.mode == "thermal"
        if not all(v >= 0 and (thermal or math.isfinite(v)) for v in self.noise_grid):
            raise ValueError(
                f"noise_grid ({self.noise_axis}) values must be nonnegative"
                " and, outside thermal mode, finite"
            )
        if not (_is_real(self.k_fringe) and 0 < self.k_fringe < math.inf):
            raise ValueError("k_fringe must be positive and finite")
        if any(list(grid) != sorted(grid) for grid in (self.lambda_grid, self.noise_grid)):
            raise ValueError("grids must be monotone increasing")
        if self.rotation not in ("auto", "off"):
            raise ValueError("rotation must be 'auto' or 'off'")
        if not all(name in ("csv", "json") for name in self.outputs):
            raise ValueError(f"outputs must name 'csv' or 'json', got {self.outputs!r}")
        _mc_settings(self.mc)
        if self.mode == "ground_state" and tuple(self.noise_grid) != (0.0,):
            raise ValueError(f"ground_state noise_grid must be [0], got {self.noise_grid}")
        for name in ("lambda_grid", "noise_grid"):  # -0.0 and 0 are one point, written 0
            grid = tuple(float(v) + 0.0 for v in getattr(self, name))
            object.__setattr__(self, name, grid)

    def to_dict(self) -> dict:
        data = asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in data.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScanSpec":
        data = dict(data)
        for key in ("lambda_grid", "noise_grid"):
            if key in data:
                data[key] = tuple(_expand_grid(data[key]))
        if "outputs" in data:
            data["outputs"] = tuple(data["outputs"])
        return cls(**data)


def _mc_settings(mc, flags=None) -> tuple[dict, FringeParams]:
    """``MC_DEFAULTS`` updated by an "mc" block (None is an empty one), then
    by the ``flags`` that are not None: the settings, checked by type and
    by the bench's ranges, and their ``FringeParams``."""
    if not (mc is None or isinstance(mc, dict) and mc.keys() <= MC_DEFAULTS.keys()):
        raise ValueError(f"mc must be an object with keys {sorted(MC_DEFAULTS)}, got {mc!r}")
    settings = {**MC_DEFAULTS, **(mc or {})}
    settings.update((key, v) for key, v in (flags or {}).items() if v is not None)
    for key, value in settings.items():
        integral = type(MC_DEFAULTS[key]) is int
        if not (_is_integer(value) if integral else _is_real(value)):
            kind = "an integer" if integral else "a number"
            raise ValueError(f"mc {key} must be {kind}, got {value!r}")
    fields = ("nu", "phi", "k", "n_atoms", "n_periods")
    params = FringeParams(**{key: settings[key] for key in fields})
    _require_bench_ranges(params, settings["xi2"], settings["n_shots"])
    return settings, params


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _expand_grid(grid):
    if isinstance(grid, dict):
        if not (
            grid.keys() == {"start", "stop", "num"}
            and all(_is_real(grid[k]) and math.isfinite(grid[k]) for k in ("start", "stop"))
            and _is_integer(grid["num"])
            and grid["num"] >= 1
        ):
            raise ValueError(
                "a linspace grid is {start, stop, num} with finite numbers start"
                f" and stop and an integer num >= 1, got {grid!r}"
            )
        grid = np.linspace(grid["start"], grid["stop"], grid["num"])
    elif isinstance(grid, str) or not all(_is_real(x) for x in grid):
        raise ValueError(f"grid values must be numbers, got {grid!r}")
    return grid  # ScanSpec makes every value a float


def _thermal_table(params: ModelParams, temperature: float, cache_dir: str, e0: float):
    """Energies and K x 6 moment table of the levels T occupies above ``_settled(e0)``.

    With ``cache_dir``, it is stored there as the sha256 of ``repr((_source_digest(),
    params, temperature))`` plus ".npz" and served only to that key, so a cached scan
    gives an uncached scan's bytes whatever the directory holds: an edit to the package
    retires every table, and a file that does not load is solved and atomically rewritten.
    Moments, quadratic in the eigenvectors, do not depend on their signs."""
    digest = hashlib.sha256(repr((_source_digest(), params, temperature)).encode()).hexdigest()
    path = os.path.join(cache_dir, f"{digest}.npz") if cache_dir else None
    if path:  # a file that is missing or does not load is a miss
        with contextlib.suppress(Exception), np.load(path) as data:
            return data["energies"], data["table"]
    energies, vectors = _low_spectrum_at(params, temperature, _settled(e0))
    table = moment_table(vectors)
    if path:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp.npz")
        try:
            os.close(fd)  # np.savez writes by name and keeps a name ending in ".npz"
            np.savez(tmp, energies=energies, table=table)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return energies, table


def _error_row(lam, noise_value, rotate, error) -> ScanRow:
    """Row with an error marker: a message, or the exception that was raised."""
    if isinstance(error, Exception):
        error = f"{type(error).__name__}: {error}"
    return ScanRow(lam=lam, noise_value=noise_value, rotated=rotate, error=error)


def _ground_moments(n_particles: int, lams, block: int = GROUND_BLOCK) -> list:
    """Per lambda, its ground level and Moments, both the exception its solve ended
    in if it failed: ``block`` lambdas per ``ground_states`` call, a failed block
    again one by one, moments per column (``moment_table`` rounds by width)."""
    found = []
    for lo in range(0, len(lams), block):
        part = lams[lo:lo + block]
        try:
            energies, vectors = ground_states(n_particles, part, 0.0)
            found += [(e0, compute_moments(SpinState(v))) for e0, v in zip(energies, vectors.T)]
        except Exception as exc:
            found += [(exc, exc)] if len(part) == 1 else _ground_moments(n_particles, part, 1)
    return found


def _column_moments(spec: ScanSpec, lam: float, rotate: bool, cache_dir, ground, e0) -> list:
    """The moments of one lambda column at each value of the spec's noise
    grid, in order: each the Moments or the exception its solve ended in.
    Zero noise, and level 0 of a thermal table, read ``ground``, its level ``e0``."""
    n, grid = spec.n_particles, spec.noise_grid
    if spec.mode == "blurred":
        # blur rescales nu only; the unblurred report must hold for the column
        report_from_moments(_settled(ground), n, apply_rotation=rotate)
        return [ground] * len(grid)
    # T = inf is the uniform mixture: no <Jx>, each <Ji^2> = j(j+1)/3
    found = {0.0: ground, math.inf: Moments(0.0, 0.0, 0.0, *[n * (n + 2) / 12] * 3)}
    positive = [v for v in grid if 0 < v < math.inf]  # none in a ground_state column
    if positive and spec.mode == "delta_mixture":  # one tilt grid for the whole column
        found.update(zip(positive, delta_column_moments(n, lam, positive)))
    elif positive:
        energies, table = _thermal_table(ModelParams(n, lam, 0.0), positive[-1], cache_dir, e0)
        table[0] = astuple(_settled(ground))  # in memory: the cached file keeps its row
        found.update((t, Moments(*(boltzmann_weights(energies, t) @ table))) for t in positive)
    return [found[v] for v in grid]


def _scan_rows(spec: ScanSpec, lams, cache_dir=None) -> list:
    """Rows of the lambda columns ``lams``, in order: the moments of each
    column at each noise value (ground states of all columns first), then
    the nu floor, blur, rotation and witness report, the same in every mode."""
    rows = []
    for lam, (e0, solved) in zip(lams, _ground_moments(spec.n_particles, lams)):
        rotate = spec.rotation == "auto" and lam > 0
        try:
            column = _column_moments(spec, lam, rotate, cache_dir, solved, e0)
        except Exception as exc:  # fails every row of the column
            column = [exc] * len(spec.noise_grid)
        for value, found in zip(spec.noise_grid, column):
            try:
                moments = _settled(found)
                nu = visibility(moments, spec.n_particles)
                if spec.mode == "blurred":
                    nu = blur_visibility(nu, spec.k_fringe, value)
                if nu < NU_FLOOR:
                    rows.append(_error_row(lam, value, rotate, FLOOR_ERROR))
                    continue
                if rotate:
                    moments = rotate_pi2_about_x(moments)
                xi2 = phase_squeezing(moments, spec.n_particles)
                report = build_report(xi2, nu, spec.n_particles, rotated=rotate)
                reported = {name: getattr(report, name) for name in ROW_FIELDS}
                rows.append(ScanRow(lam, value, rotated=rotate, **reported))
            except Exception as exc:
                rows.append(_error_row(lam, value, rotate, exc))
    return rows


def run_scan(spec: ScanSpec, threads: int = 1, cache_dir: str = None) -> list:
    """Evaluate the scan grid in grid order (lambda outer, noise inner).

    The grid runs serially (the LAPACK wrappers hold the GIL, so a thread pool
    measured no faster); ``threads`` >= 1 is checked and kept for API callers.
    """
    if threads < 1:
        raise ValueError(f"the thread count must be >= 1, got {threads}")
    if cache_dir:  # before any solve: a path that cannot be a directory is refused
        os.makedirs(cache_dir, exist_ok=True)
    return _scan_rows(spec, spec.lambda_grid, cache_dir)


def make_evaluator(spec: ScanSpec, column: str = "b_param"):
    """Fresh-model evaluation of one scan column as a function of lambda, at
    the spec's noise value; a spec with more than one is refused, since a
    crossing along lambda is defined at one noise value.  An error row
    raises RuntimeError naming its lambda and error."""
    if len(spec.noise_grid) != 1:
        raise ValueError(
            f"crossings need a spec with one noise value, got {len(spec.noise_grid)}"
        )

    def evaluate(lam: float) -> float:
        (row,) = _scan_rows(spec, [lam])
        if row.error:
            raise RuntimeError(f"evaluation at lambda = {lam!r} failed: {row.error}")
        return getattr(row, column)

    return evaluate


def _sign_changes(rows, column: str):
    """Adjacent pairs ``(left, right)`` of ``rows`` across which ``column``
    changes sign; ``right`` is None where ``left``, the last row too, is an exact zero."""
    for left, right in zip(rows, [*rows[1:], None]):
        if getattr(left, column) == 0.0:
            yield left, None
        elif right is not None and getattr(left, column) * getattr(right, column) < 0:
            yield left, right


def find_zero_crossings(rows, column: str, evaluate) -> list:
    """Refine sign changes of ``column`` along lambda by bisection on fresh
    model evaluations, to ``CROSSING_TOL``; returns the crossing abscissas.
    The rows are one per lambda, as a one-noise-value scan gives them."""
    crossings = []
    for left, right in _sign_changes([r for r in rows if not r.error], column):
        if right is None:
            crossings.append(left.lam)
            continue
        # the row at lo holds the value a fresh evaluation gives, bit for bit
        lo, hi, flo = left.lam, right.lam, getattr(left, column)
        while hi - lo > CROSSING_TOL:
            mid = 0.5 * (lo + hi)
            fmid = evaluate(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        crossings.append(0.5 * (lo + hi))
    return crossings


def extract_region_boundary(rows) -> list:
    """For each lambda column of a rectangular (lambda, noise) grid, the
    noise value where b first changes sign, linearly interpolated; columns
    with no sign change are skipped.  Returns (lambda, noise*) pairs."""
    by_lambda = {}
    for row in rows:
        by_lambda.setdefault(row.lam, []).append(row)
    boundary = []
    for lam, column in by_lambda.items():
        # a stable sort: a grid may repeat a noise value
        column = sorted((r for r in column if not r.error), key=lambda r: r.noise_value)
        for lo, hi in _sign_changes(column, "b_param"):
            if hi is None:
                boundary.append((lam, lo.noise_value))
            else:
                frac = -lo.b_param / (hi.b_param - lo.b_param)
                boundary.append(
                    (lam, lo.noise_value + frac * (hi.noise_value - lo.noise_value))
                )
            break
    return boundary


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN on an error row
            return ""
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        *values, error = vars(r).values()  # the error message is the last column
        lines.append(",".join([_fmt(v) for v in values] + [error.replace(",", ";")]))
    return "\n".join(lines) + "\n"


def _row_dict(r: ScanRow) -> dict:
    """A row's JSON object: its columns, NaN written null."""
    return {k: None if v != v else v for k, v in zip(COLUMNS, vars(r).values())}


def _write_output(out_dir: str, name: str, content) -> str:
    """Write one output file, LF line ends: ``content`` is its text, or a
    payload written as sorted, indented JSON.  Returns the file's path."""
    if not isinstance(content, str):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
    return path


def emit_outputs(rows, spec: ScanSpec, out_dir: str) -> list:
    """Write CSV and/or JSON mirrors of the scan; byte-identical for a fixed
    spec and seed."""
    os.makedirs(out_dir, exist_ok=True)  # also when the spec asks for no output
    paths = []
    if "csv" in spec.outputs:
        paths.append(_write_output(out_dir, "scan.csv", rows_to_csv(rows)))
    if "json" in spec.outputs:
        payload = {
            "spec": spec.to_dict(),
            "seed": spec.seed,
            "library_version": __version__,
            "rows": [_row_dict(r) for r in rows],
        }
        paths.append(_write_output(out_dir, "scan.json", payload))
    return paths
