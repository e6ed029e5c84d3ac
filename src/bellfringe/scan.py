"""Parameter scans over interaction strength and a noise axis.

A scan walks a lambda grid (outer) and a noise grid (inner) and emits one
row of witness quantities per point.  For each lambda, ``_column_moments``
does the shared work and lists the spin moments at each noise value:
ground and blurred modes, the one ground-state row, solved in lambda blocks
(blurred also checks its unblurred report); delta_mixture, the quadrature
mixtures of all its sigma_delta on one tilt grid; thermal, Boltzmann
averages of a K x 6 moment table of the levels the largest finite T
occupies, solved once (T = 0 reads its ground row, and T = inf is the
uniform mixture).  One row path then probes the visibility floor (after any
blur), rotates, forms (xi^2, nu) and builds the witness report.  A failure at
one point becomes an error row; a failed column solve fails the column.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .fringe_mc import FringeParams, _require_bench_ranges
from .josephson import ModelParams, boltzmann_weights, ground_states, low_spectrum
from .noise import _settled, blur_visibility, delta_column_moments
from .spin_core import Moments, SpinState, _is_integer, build_basis, compute_moments
from .spin_core import moment_table, rotate_pi2_about_x
from .witnesses import VisibilityError, build_report, phase_squeezing, visibility
from .witnesses import report_from_moments

__all__ = [
    "ScanSpec",
    "ScanRow",
    "SpectrumCache",
    "run_scan",
    "find_zero_crossings",
    "make_evaluator",
    "extract_region_boundary",
    "emit_outputs",
    "rows_to_csv",
    "CSV_HEADER",
]

MODES = ("ground_state", "thermal", "delta_mixture", "blurred")
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

CSV_HEADER = (
    "lambda,noise_value,nu,xi2,a_param,b_param,theta0,"
    "interior_minimum,rotated,var_phi,error"
)

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


# the "mc" block of a config, read by mc-verify: its keys and their defaults
MC_DEFAULTS = {
    "nu": 0.9, "xi2": 1.0, "phi": 0.0, "k": 1.0,
    "n_atoms": 1000, "n_periods": 8, "seed": 0, "n_shots": 10000,
}
MC_KEYS = frozenset(MC_DEFAULTS)


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
        if self.mode not in MODES:
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
    if not (mc is None or isinstance(mc, dict) and mc.keys() <= MC_KEYS):
        raise ValueError(f"mc must be an object with keys {sorted(MC_KEYS)}, got {mc!r}")
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


def _thermal_table(params: ModelParams, temperature: float):
    """Energies and K x 6 moment table of the levels occupied at T."""
    energies, vectors = low_spectrum(params, temperature)
    return energies, moment_table(build_basis(params.n_particles), vectors)


class SpectrumCache:
    """On-disk memoization of ``_thermal_table`` keyed by (N, lam, delta, T).

    A thermal column asks for the table at its largest finite T.  A file is
    served only to its own key, so a cached scan gives the bytes of an
    uncached one whatever the directory already holds.  Moments are
    quadratic in the eigenvectors, so the table does not depend on their
    sign convention.  Files are written to a temporary name and atomically
    renamed, so concurrent writers cannot corrupt each other.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, params: ModelParams, temperature: float) -> str:
        digest = hashlib.sha256(repr((params, temperature)).encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.npz")

    def moment_table(self, params: ModelParams, temperature: float):
        """``_thermal_table(params, temperature)``, stored under its key."""
        path = self._path(params, temperature)
        if os.path.exists(path):
            with np.load(path) as data:
                return data["energies"], data["table"]
        energies, table = _thermal_table(params, temperature)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            # write through the descriptor: np.savez would append ".npz" to a
            # bare filename and break the atomic rename
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, energies=energies, table=table)
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
    """Per lambda, its ground-state Moments or the exception its solve ended in:
    ``block`` lambdas per ``ground_states`` call, a failed block again one by
    one, moments per column (a block's ``moment_table`` rounds by its width)."""
    basis, found = build_basis(n_particles), []
    for lo in range(0, len(lams), block):
        part = lams[lo:lo + block]
        try:
            vectors = ground_states(n_particles, part, 0.0)[1]
            found += [compute_moments(SpinState(basis, v)) for v in vectors.T]
        except Exception as exc:
            found += [exc] if len(part) == 1 else _ground_moments(n_particles, part, 1)
    return found


def _column_moments(spec: ScanSpec, lam: float, rotate: bool, cache, ground) -> list:
    """The moments of one lambda column at each value of the spec's noise
    grid, in order: each the Moments or the exception its solve ended in."""
    n = spec.n_particles
    if spec.mode == "delta_mixture":  # one tilt grid for the whole column
        return delta_column_moments(n, lam, spec.noise_grid)
    if spec.mode != "thermal":
        moments = _settled(ground)
        if spec.mode == "blurred":
            # blur rescales nu only; the unblurred report must hold for the column
            report_from_moments(moments, n, apply_rotation=rotate)
        return [moments] * len(spec.noise_grid)
    finite = [t for t in spec.noise_grid if not math.isinf(t)]
    if finite:
        solve = cache.moment_table if cache else _thermal_table
        energies, table = solve(ModelParams(n, lam, 0.0), max(finite))
    # T = inf is the uniform mixture: no <Jx>, each <Ji^2> = j(j+1)/3
    uniform = Moments(0.0, 0.0, 0.0, *[n * (n + 2) / 12] * 3)
    return [
        uniform if math.isinf(t)
        else Moments(*(table[0] if t == 0 else boltzmann_weights(energies, t) @ table))
        for t in spec.noise_grid
    ]


def _scan_rows(spec: ScanSpec, lams, cache=None) -> list:
    """Rows of the lambda columns ``lams``, in order: the moments of each
    column at each noise value (ground states of all columns first), then
    the nu floor, blur, rotation and witness report, the same in every mode."""
    blocked = spec.mode in ("ground_state", "blurred")
    ground = _ground_moments(spec.n_particles, lams) if blocked else [None] * len(lams)
    rows = []
    for lam, solved in zip(lams, ground):
        rotate = spec.rotation == "auto" and lam > 0
        try:
            column = _column_moments(spec, lam, rotate, cache, solved)
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
                fields = {name: getattr(report, name) for name in ROW_FIELDS}
                rows.append(ScanRow(lam, value, rotated=rotate, **fields))
            except Exception as exc:
                rows.append(_error_row(lam, value, rotate, exc))
    return rows


def run_scan(spec: ScanSpec, threads: int = 1, cache_dir: str = None) -> list:
    """Evaluate the scan grid in grid order (lambda outer, noise inner).

    The grid runs serially at any ``threads`` >= 1: the LAPACK wrappers
    hold the interpreter lock, so a thread pool measured no faster.
    """
    if threads < 1:
        raise ValueError(f"the thread count must be >= 1, got {threads}")
    cache = SpectrumCache(cache_dir) if cache_dir else None
    return _scan_rows(spec, spec.lambda_grid, cache)


def make_evaluator(spec: ScanSpec, column: str = "b_param"):
    """Fresh-model evaluation of one scan column as a function of lambda, at
    the spec's noise value; a spec with more than one is refused, since a
    crossing along lambda is defined at one noise value."""
    if len(spec.noise_grid) != 1:
        raise ValueError(
            f"crossings need a spec with one noise value, got {len(spec.noise_grid)}"
        )

    def evaluate(lam: float) -> float:
        (row,) = _scan_rows(spec, [lam])
        if row.error:
            raise VisibilityError(row.error)
        return getattr(row, column)

    return evaluate


def _sign_changes(rows, column: str):
    """Adjacent pairs ``(left, right)`` of ``rows`` across which ``column``
    changes sign; ``right`` is None where ``left`` itself is an exact zero."""
    for left, right in zip(rows[:-1], rows[1:]):
        v1, v2 = getattr(left, column), getattr(right, column)
        if v1 == 0.0:
            yield left, None
        elif v1 * v2 < 0:
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
        # ScanRow fields are in CSV column order, the error message last
        *values, error = vars(r).values()
        lines.append(",".join([_fmt(v) for v in values] + [error.replace(",", ";")]))
    return "\n".join(lines) + "\n"


def _row_dict(r: ScanRow) -> dict:
    row = {"lambda" if k == "lam" else k: v for k, v in vars(r).items()}
    return {k: None if v != v else v for k, v in row.items()}  # NaN -> null


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
