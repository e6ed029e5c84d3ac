"""Parameter scans over interaction strength and a noise axis.

A scan walks a lambda grid (outer) and a noise grid (inner) and emits one
row of witness quantities per point.  For each lambda, a column source
does the shared work and returns the spin moments at each noise value:
ground and blurred modes, the one ground-state row (blurred also checks
its unblurred report); delta_mixture, the quadrature mixture at each
sigma_delta; thermal, Boltzmann averages of a K x 6 moment table solved
once over the window the largest finite T occupies (T = 0 reads its ground
row, and T = inf is the uniform mixture, with no fringes).  One row path
then probes the visibility floor (after blur in blurred mode), rotates,
forms (xi^2, nu) and builds the witness report.  A failure at one point
becomes an error row; a failed column source fails its whole column.
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
from .josephson import (
    THERMAL_WEIGHT_CUTOFF,
    ModelParams,
    boltzmann_weights,
    ground_state,
    low_spectrum,
)
from .noise import blur_visibility, delta_mixture_moments
from .spin_core import Moments, build_basis, compute_moments, moment_table
from .spin_core import rotate_pi2_about_x
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
FLOOR_ERROR = "visibility below threshold"

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
        if list(self.lambda_grid) != sorted(self.lambda_grid) or list(
            self.noise_grid
        ) != sorted(self.noise_grid):
            raise ValueError("grids must be monotone increasing")
        if self.rotation not in ("auto", "off"):
            raise ValueError("rotation must be 'auto' or 'off'")
        if not all(name in ("csv", "json") for name in self.outputs):
            raise ValueError(f"outputs must name 'csv' or 'json', got {self.outputs!r}")
        if not (self.mc is None or isinstance(self.mc, dict)):
            raise ValueError(f"mc must be an object, got {self.mc!r}")

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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _expand_grid(grid):
    if isinstance(grid, dict):
        grid = np.linspace(grid["start"], grid["stop"], grid["num"])
    elif isinstance(grid, str) or not all(_is_real(x) for x in grid):
        raise ValueError(f"grid values must be numbers, got {grid!r}")
    return [float(x) for x in grid]


def _thermal_table(params: ModelParams, energy_window: float):
    """Energies and K x 6 moment table of the states within the window."""
    energies, vectors = low_spectrum(params, energy_window)
    return energies, moment_table(build_basis(params.n_particles), vectors)


class SpectrumCache:
    """On-disk memoization of thermal moment tables keyed by (N, lam, delta).

    A file holds the energies and the K x 6 moment table of the states with
    E - E0 <= window, and the window itself.  It is served to any request
    for a window no wider than the stored one (the extra states carry less
    than the Boltzmann cutoff in weight); a wider request recomputes and
    replaces it.  Moments are quadratic in the eigenvectors, so the table
    does not depend on their sign convention.  Files are written to a
    temporary name and atomically renamed, so concurrent writers cannot
    corrupt each other.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, params: ModelParams) -> str:
        key = (
            f"moment-table:N={params.n_particles}"
            f":lam={params.lam!r}:delta={params.delta!r}"
        )
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.npz")

    def moment_table(self, params: ModelParams, energy_window: float):
        """``(energies, table)`` covering at least ``energy_window``."""
        path = self._path(params)
        if os.path.exists(path):
            with np.load(path) as data:
                if float(data["window"]) >= energy_window:
                    return data["energies"], data["table"]
        energies, table = _thermal_table(params, energy_window)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            # write through the descriptor: np.savez would append ".npz" to a
            # bare filename and break the atomic rename
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, energies=energies, table=table, window=energy_window)
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


def _column_source(spec: ScanSpec, lam: float, noise_grid, rotate: bool, cache):
    """The work one lambda column shares; returns noise value -> moments."""
    n = spec.n_particles
    if spec.mode == "delta_mixture":
        return lambda sigma_delta: delta_mixture_moments(n, lam, sigma_delta)
    params = ModelParams(n, lam, 0.0)
    if spec.mode != "thermal":
        moments = compute_moments(ground_state(params)[1])
        if spec.mode == "blurred":
            # blur rescales nu only; the unblurred report must hold for the column
            report_from_moments(moments, n, apply_rotation=rotate)
        return lambda _: moments
    finite = [t for t in noise_grid if not math.isinf(t)]
    if finite:
        solve = cache.moment_table if cache else _thermal_table
        energies, table = solve(params, -math.log(THERMAL_WEIGHT_CUTOFF) * max(finite))

    def thermal(t):
        if math.isinf(t):  # the uniform mixture: no <Jx>, each <Ji^2> = j(j+1)/3
            return Moments(0.0, 0.0, 0.0, *[n * (n + 2) / 12] * 3)
        mean = table[0] if t == 0 else boltzmann_weights(energies, t) @ table
        return Moments(*mean)

    return thermal


def _scan_one_lambda(spec: ScanSpec, lam: float, noise_grid, cache=None) -> list:
    """Rows of one lambda column: its moments at each noise value, then
    the nu floor, blur, rotation and witness report, the same in every mode."""
    rotate = spec.rotation == "auto" and lam > 0
    if spec.mode == "ground_state":
        noise_grid = (0.0,)
    try:
        moments_at = _column_source(spec, lam, noise_grid, rotate, cache)
    except Exception as exc:
        return [_error_row(lam, v, rotate, exc) for v in noise_grid]
    rows = []
    for value in noise_grid:
        try:
            moments = moments_at(value)
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

    The grid runs serially whatever ``threads`` says: the LAPACK wrappers
    hold the interpreter lock, so a thread pool measured no faster.
    """
    cache = SpectrumCache(cache_dir) if cache_dir else None
    return [
        row
        for lam in spec.lambda_grid
        for row in _scan_one_lambda(spec, lam, spec.noise_grid, cache)
    ]


def make_evaluator(spec: ScanSpec, noise_value: float = 0.0, column: str = "b_param"):
    """Fresh-model evaluation of one scan column as a function of lambda."""

    def evaluate(lam: float) -> float:
        (row,) = _scan_one_lambda(spec, lam, (noise_value,))
        if row.error:
            raise VisibilityError(row.error)
        return getattr(row, column)

    return evaluate


def find_zero_crossings(rows, column: str, evaluate, tol: float = 1e-4) -> list:
    """Refine sign changes of ``column`` along lambda by bisection on fresh
    model evaluations; returns the crossing abscissas."""
    clean = [r for r in rows if not r.error]
    crossings = []
    for left, right in zip(clean[:-1], clean[1:]):
        v1, v2 = getattr(left, column), getattr(right, column)
        if v1 == 0.0:
            crossings.append(left.lam)
            continue
        if v1 * v2 >= 0:
            continue
        lo, hi = left.lam, right.lam
        flo = evaluate(lo)
        while hi - lo > tol:
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
    noise value where b changes sign, linearly interpolated; columns with no
    sign change are skipped.  Returns (lambda, noise*) pairs."""
    by_lambda = {}
    for row in rows:
        by_lambda.setdefault(row.lam, []).append(row)
    boundary = []
    for lam, column in by_lambda.items():
        column = sorted(
            (r for r in column if not r.error), key=lambda r: r.noise_value
        )
        for lo, hi in zip(column[:-1], column[1:]):
            b1, b2 = lo.b_param, hi.b_param
            if b1 == 0.0:
                boundary.append((lam, lo.noise_value))
                break
            if b1 * b2 < 0:
                frac = -b1 / (b2 - b1)
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


def emit_outputs(rows, spec: ScanSpec, out_dir: str, basename: str = "scan") -> list:
    """Write CSV and/or JSON mirrors of the scan; byte-identical for a fixed
    spec and seed."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if "csv" in spec.outputs:
        path = os.path.join(out_dir, f"{basename}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rows_to_csv(rows))
        paths.append(path)
    if "json" in spec.outputs:
        path = os.path.join(out_dir, f"{basename}.json")
        payload = {
            "spec": spec.to_dict(),
            "seed": spec.seed,
            "library_version": __version__,
            "rows": [_row_dict(r) for r in rows],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
