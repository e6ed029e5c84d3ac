"""Output checks, run by the launcher after the workload process has exited.

Every op gets structural checks: exit code, row count and grid against the
config, the rotation flag, finite witness values, and error markers only
where the visibility is expected below the 1e-6 floor.  A seed-chosen
sample is recomputed on an independent dense path: the Hamiltonian is
assembled as a dense matrix from the J+/J- ladder (as tests/oracles.py
does) and diagonalized by LAPACK's dense symmetric solvers, never by the
tridiagonal solver the package uses.  MC ops are checked statistically.

Tolerances (|value - reference| <= ATOL + RTOL * |reference|):
  ground, blurred and thermal rows   RTOL 1e-7, ATOL 1e-9.  Both sides
      solve the same eigenproblem to ~1e-12; 1e-7 leaves room for the
      near-degenerate pairs at Lambda < -1 without hiding a wrong state.
  delta-mixture rows   RTOL 1e-4, ATOL 1e-5, against a fixed order-161
      split-Gaussian rule.  The package stops doubling when two orders
      agree to 1e-6 per moment; xi^2 and the witness amplify that by at
      most ~10, so 1e-4 is a further factor of ten.
  thermal boundary   1e-6 absolute in temperature.
  crossings   the dense witness must change sign within +-1e-4 of each
      sampled crossing (the bisection tolerance).
  MC variance   within 5 standard errors, sqrt(2/(n-1)) relative, of the
      least-squares prediction (xi^2 + 2/nu^2)/N.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import numpy as np
import scipy.linalg
import scipy.sparse

from loop import read_outputs

EXACT_RTOL, EXACT_ATOL = 1e-7, 1e-9
MIXTURE_RTOL, MIXTURE_ATOL = 1e-4, 1e-5
MIXTURE_HALF_ORDER = 81  # total order 161
# telling nu >= 1e-6 from nu < 1e-6 for an error row needs no high order
ERROR_ROW_HALF_ORDER = 11
BOUNDARY_ATOL = 1e-6
CROSSING_BRACKET = 1e-4
MC_SIGMAS = 5.0
MC_MAX_FAILED_FRACTION = 0.01
NU_FLOOR = 1e-6
# oracle solves allowed for error rows per run; further error rows fail
ERROR_ROW_BUDGET = 2
COMPARED = ("nu", "xi2", "a_param", "b_param", "var_phi")


# -- dense oracle ---------------------------------------------------------
class DenseSpin:
    """Collective-spin operators of N particles, assembled from J+ / J-."""

    def __init__(self, n: int):
        self.n = n
        j = n / 2.0
        self.m = np.arange(n + 1) - j
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)), on the subdiagonal
        ladder = np.sqrt(j * (j + 1) - self.m[:-1] * (self.m[:-1] + 1))
        jp = scipy.sparse.diags(ladder, -1, format="csr")
        self.jx = 0.5 * (jp + jp.T)
        self.jp_minus_jm = jp - jp.T  # Jy = (J+ - J-) / 2i

    def hamiltonian(self, lam: float, delta: float) -> np.ndarray:
        h = -self.jx.toarray()
        h[np.diag_indices_from(h)] += (lam / self.n) * self.m**2 + delta * self.m
        return h

    def ground(self, lam: float, delta: float = 0.0) -> np.ndarray:
        _, v = scipy.linalg.eigh(self.hamiltonian(lam, delta), subset_by_index=[0, 0])
        return v

    def spectrum(self, lam: float):
        return np.linalg.eigh(self.hamiltonian(lam, 0.0))

    def moments(self, vectors: np.ndarray) -> np.ndarray:
        """Columns of ``vectors`` -> rows (jx, jy2, jz2)."""
        jx = np.einsum("ik,ik->k", vectors, self.jx @ vectors)
        # <Jy^2> = -<(J+ - J-)^2>/4 = |(J+ - J-) psi|^2 / 4 for real psi
        jy2 = 0.25 * ((self.jp_minus_jm @ vectors) ** 2).sum(axis=0)
        jz2 = (self.m**2) @ (vectors**2)
        return np.column_stack([jx, jy2, jz2])


def witness(jx: float, jy2: float, jz2: float, n: int, rotated: bool) -> dict:
    """Row values from moments, with the pi/2 rotation about x applied as
    the exchange Jy^2 <-> Jz^2.  Uses the cancellation-free form of b."""
    if rotated:
        jy2 = jz2
    nu = 2.0 * abs(jx) / n
    return from_xi2_nu(n * jy2 / jx**2, nu, n)


def from_xi2_nu(xi2: float, nu: float, n: int) -> dict:
    s = math.sqrt(max(1.0 - nu * nu, 0.0))
    a = xi2 + s / nu**2 - 1.0
    return {"nu": nu, "xi2": xi2, "a_param": a,
            "b_param": xi2 - 1.0 / (2.0 * (1.0 + s)), "var_phi": (a + 1.0) / n}


def thermal_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    w = np.zeros(len(energies))
    if temperature == 0:
        w[0] = 1.0
        return w
    w = np.exp(-(energies - energies[0]) / temperature)
    return w / w.sum()


def mixture_moments(spin: DenseSpin, lam: float, sigma: float,
                    half: int = MIXTURE_HALF_ORDER) -> np.ndarray:
    """(jx, jy2, jz2) of the tilt mixture on the split rule with ``half``
    nodes per half-axis.  The ground state at -delta is the parity mirror of
    the one at +delta, with equal jx, jy2 and jz2, so only the positive half
    is solved."""
    if sigma == 0:
        return spin.moments(spin.ground(lam))[0]
    from bellfringe.noise import split_gaussian_rule

    rule = split_gaussian_rule(half, sigma)
    moments = np.vstack([spin.moments(spin.ground(lam, d))[0] for d in rule.nodes[half:]])
    return 2.0 * rule.weights[half:] @ moments


def close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def compare_row(row: dict, ref: dict, rtol: float, atol: float) -> str:
    for key in COMPARED:
        if not close(row[key], ref[key], rtol, atol):
            return (f"{key}={row[key]!r} vs dense {ref[key]!r} at lambda={row['lambda']!r}, "
                    f"noise={row['noise_value']!r}")
    return ""


# -- structural checks ----------------------------------------------------
def _num(text: str) -> float:
    return float(text) if text != "" else float("nan")


def parse_scan(files: dict) -> list:
    """Rows of scan.csv as dicts, cross-checked against scan.json."""
    rows = []
    for r in csv.DictReader(io.StringIO(files["scan.csv"].decode())):
        rows.append({
            "lambda": float(r["lambda"]), "noise_value": float(r["noise_value"]),
            **{k: _num(r[k]) for k in ("nu", "xi2", "a_param", "b_param", "theta0", "var_phi")},
            "rotated": r["rotated"] == "true", "error": r["error"],
        })
    mirror = json.loads(files["scan.json"])["rows"]
    if len(mirror) != len(rows):
        raise ValueError("scan.json and scan.csv row counts differ")
    for r, j in zip(rows, mirror):
        for key in ("lambda", "noise_value", "nu", "xi2", "a_param", "b_param", "var_phi"):
            jv = float("nan") if j[key] is None else j[key]
            if not (jv == r[key] or (jv != jv and r[key] != r[key])):
                raise ValueError(f"scan.json and scan.csv differ in {key}")
    return rows


def expected_grid(config: dict) -> list:
    noise = config.get("noise_grid", [0.0])
    return [(lam, t) for lam in config["lambda_grid"] for t in noise]


def check_rows(rows: list, config: dict) -> str:
    grid = expected_grid(config)
    if len(rows) != len(grid):
        return f"{len(rows)} rows, config has {len(grid)} grid points"
    for r, (lam, noise) in zip(rows, grid):
        if (r["lambda"], r["noise_value"]) != (lam, noise):
            return f"row ({r['lambda']}, {r['noise_value']}) where the grid has ({lam}, {noise})"
        if r["rotated"] != (lam > 0):
            return f"rotation flag wrong at lambda={lam}"
        if r["error"]:
            continue
        values = [r[k] for k in COMPARED]
        if not all(math.isfinite(v) for v in values) or not 0 < r["nu"] <= 1:
            return f"non-finite or out-of-range values at lambda={lam}, noise={noise}"
    return ""


def check_boundary(text: str, config: dict) -> tuple:
    """(failure, {lambda: T*}) for boundary.csv."""
    lines = text.splitlines()
    if not lines or lines[0] != "lambda,noise_value":
        return "boundary.csv header missing", {}
    grid = config["lambda_grid"]
    noise = config["noise_grid"]
    found = {}
    last = -1
    for line in lines[1:]:
        lam, t_star = (float(x) for x in line.split(","))
        if lam not in grid or grid.index(lam) <= last:
            return f"boundary lambda {lam} not in grid order", {}
        last = grid.index(lam)
        if not noise[0] <= t_star <= noise[-1]:
            return f"boundary temperature {t_star} outside the grid", {}
        found[lam] = t_star
    return "", found


def check_crossings(data: dict, config: dict) -> str:
    xs = data.get("crossings")
    if data.get("column") != "b_param" or not isinstance(xs, list):
        return "crossings.json malformed"
    lam = config["lambda_grid"]
    if xs != sorted(xs) or any(not lam[0] <= x <= lam[-1] for x in xs):
        return "crossings unsorted or outside the grid"
    return ""


def parse_mc(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    failed, shots = (int(x) for x in values["failed fits"].split("/"))
    return {"empirical": float(values["empirical variance"]), "failed": failed, "shots": shots}


def check_mc(out: dict, mc: dict) -> str:
    """``out`` is parse_mc of the op's report, ``mc`` the op's inputs."""
    if out["shots"] != mc["n_shots"]:
        return f"{out['shots']} shots reported, {mc['n_shots']} requested"
    if out["failed"] > MC_MAX_FAILED_FRACTION * out["shots"]:
        return f"{out['failed']} failed fits of {out['shots']}"
    predicted = (mc["xi2"] + 2.0 / mc["nu"] ** 2) / mc["n_atoms"]
    n = out["shots"] - out["failed"]
    band = MC_SIGMAS * math.sqrt(2.0 / (n - 1))
    ratio = out["empirical"] / predicted
    if abs(ratio - 1.0) > band:
        return f"empirical/least-squares variance {ratio:.4f} outside 1 +- {band:.4f}"
    return ""


# -- the run-level checker ------------------------------------------------
class Checker:
    """Checks one run's op records; sets ``record['failure']`` on failures."""

    def __init__(self, workload: str, seed: int, configs: dict, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.configs = configs  # (pass, index) -> op dict
        self.spins = {}
        self.error_budget = ERROR_ROW_BUDGET
        self.parsed = {}
        self.dense_checks = []

    def spin(self, n: int) -> DenseSpin:
        if n not in self.spins:
            self.spins[n] = DenseSpin(n)
        return self.spins[n]

    def structural(self, rec: dict) -> tuple:
        """(failure, items done) of a first-copy op.  Items count whenever the
        op produced output that parses and matches its grid; failed value
        checks show in the failure, not in the throughput."""
        if rec["rc"] != 0 or rec["exception"]:
            return f"exit {rec['rc']} {rec['exception']} {rec['stderr'].strip()}".strip(), 0
        op = self.configs[(rec["pass"], rec["index"])]
        if op["kind"] == "mc-verify":
            try:
                out = parse_mc(rec["stdout"])
            except (KeyError, ValueError):
                return "mc-verify output unreadable", 0
            return check_mc(out, op["mc"]), op["items"]
        files = read_outputs(rec["out_dir"])
        config = op["config"]
        key = (rec["pass"], rec["index"])
        try:
            if op["kind"] == "scan":
                rows = parse_scan(files)
                failure = check_rows(rows, config)
                if failure:
                    return failure, 0
                self.parsed[key] = rows
                return self.error_rows(rows, op), op["items"]
            if op["kind"] == "boundary":
                failure, found = check_boundary(files["boundary.csv"].decode(), config)
            else:
                data = json.loads(files["crossings.json"])
                failure, found = check_crossings(data, config), data["crossings"]
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}", 0
        if failure:
            return failure, 0
        self.parsed[key] = found
        return "", op["items"]

    def error_rows(self, rows: list, op: dict) -> str:
        """Error markers are allowed only where nu < 1e-6 is expected."""
        config = op["config"]
        for r in (r for r in rows if r["error"]):
            if self.error_budget == 0:
                return f"error marker at lambda={r['lambda']} not verified: {r['error']}"
            self.error_budget -= 1
            ref = self.reference_nu(config, r["lambda"], r["noise_value"])
            if ref >= NU_FLOOR:
                return f"error marker at dense nu={ref:.3e}: {r['error']}"
        return ""

    def reference_nu(self, config: dict, lam: float, noise: float) -> float:
        spin = self.spin(config["n_particles"])
        mode = config["mode"]
        if mode == "delta_mixture":
            jx = mixture_moments(spin, lam, noise, ERROR_ROW_HALF_ORDER)[0]
        else:
            jx = spin.moments(spin.ground(lam))[0][0]
        nu = 2.0 * abs(jx) / spin.n
        if mode == "blurred":
            nu *= math.exp(-0.5 * (config["k_fringe"] * noise) ** 2)
        return nu

    # -- dense samples ------------------------------------------------------
    def pick(self, candidates: list):
        return self.rng.choice(candidates) if candidates else None

    def sample(self, records: list) -> None:
        """Recompute a seed-chosen sample on the dense path."""
        ok = [r for r in records if r["tag"] == "" and (r["pass"], r["index"]) in self.parsed]

        def of(label_prefix, kind):
            return [r for r in ok if r["label"].startswith(label_prefix) and r["kind"] == kind]

        if self.workload == "ground_sweep":
            for n in (1000, 4000):
                self.dense_ground(self.pick(of(f"ground_N{n}", "scan")))
            self.dense_blurred(self.pick(of("blurred", "scan")))
            self.dense_crossing(self.pick([r for r in of("crossings", "crossings")
                                           if self.parsed[(r["pass"], r["index"])]]))
        elif self.workload == "thermal_boundary":
            for n in (1000, 2000):
                self.dense_thermal(self.pick(of(f"thermal_N{n}", "boundary")))
        elif self.workload == "delta_scan":
            self.dense_delta(self.pick(of("delta", "scan")))

    def _fail(self, rec: dict, what: str, failure: str) -> None:
        self.dense_checks.append({"op": os.path.relpath(rec["out_dir"], self.workdir), "what": what, "ok": not failure})
        if failure:
            rec["failure"] = rec["failure"] or f"dense check: {failure}"

    def dense_ground(self, rec) -> None:
        rows = [] if rec is None else [
            r for r in self.parsed[(rec["pass"], rec["index"])] if not r["error"]]
        if not rows:
            return
        row = self.rng.choice(rows)
        spin = self.spin(rec["n"])
        jx, jy2, jz2 = spin.moments(spin.ground(row["lambda"]))[0]
        ref = witness(jx, jy2, jz2, spin.n, row["lambda"] > 0)
        self._fail(rec, f"ground row lambda={row['lambda']}",
                   compare_row(row, ref, EXACT_RTOL, EXACT_ATOL))

    def dense_blurred(self, rec) -> None:
        if rec is None:
            return
        op = self.configs[(rec["pass"], rec["index"])]
        lam = self.rng.choice(op["config"]["lambda_grid"])
        spin = self.spin(rec["n"])
        jx, jy2, jz2 = spin.moments(spin.ground(lam))[0]
        base = witness(jx, jy2, jz2, spin.n, lam > 0)
        failure = ""
        for row in (r for r in self.parsed[(rec["pass"], rec["index"])] if r["lambda"] == lam and not r["error"]):
            nu = base["nu"] * math.exp(-0.5 * (op["config"]["k_fringe"] * row["noise_value"]) ** 2)
            failure = compare_row(row, from_xi2_nu(base["xi2"], nu, spin.n),
                                  EXACT_RTOL, EXACT_ATOL)
            if failure:
                break
        self._fail(rec, f"blurred column lambda={lam}", failure)

    def dense_crossing(self, rec) -> None:
        if rec is None:
            return
        x = self.rng.choice(self.parsed[(rec["pass"], rec["index"])])
        spin = self.spin(rec["n"])
        signs = []
        for lam in (x - CROSSING_BRACKET, x + CROSSING_BRACKET):
            jx, jy2, jz2 = spin.moments(spin.ground(lam))[0]
            signs.append(witness(jx, jy2, jz2, spin.n, lam > 0)["b_param"] > 0)
        failure = "" if signs[0] != signs[1] else f"dense b keeps its sign around {x}"
        self._fail(rec, f"crossing {x}", failure)

    def dense_thermal(self, rec) -> None:
        if rec is None:
            return
        op = self.configs[(rec["pass"], rec["index"])]
        config = op["config"]
        lam = self.rng.choice(config["lambda_grid"])
        spin = self.spin(rec["n"])
        energies, vectors = spin.spectrum(lam)
        table = spin.moments(vectors)
        column = []
        for t in config["noise_grid"]:
            jx, jy2, jz2 = thermal_weights(energies, t) @ table
            if 2.0 * abs(jx) / spin.n >= NU_FLOOR:
                column.append((t, witness(jx, jy2, jz2, spin.n, lam > 0)["b_param"]))
        expected = None
        for (t1, b1), (t2, b2) in zip(column[:-1], column[1:]):
            if b1 == 0.0:
                expected = t1
                break
            if b1 * b2 < 0:
                expected = t1 + (-b1 / (b2 - b1)) * (t2 - t1)
                break
        got = self.parsed[(rec["pass"], rec["index"])].get(lam)
        if expected is None or got is None:
            failure = "" if expected is got else f"boundary at lambda={lam}: {got} vs dense {expected}"
        else:
            failure = "" if abs(got - expected) <= BOUNDARY_ATOL else (
                f"boundary at lambda={lam}: T*={got!r} vs dense {expected!r}")
        self._fail(rec, f"thermal boundary lambda={lam}", failure)

    def dense_delta(self, rec) -> None:
        rows = [] if rec is None else [
            r for r in self.parsed[(rec["pass"], rec["index"])] if not r["error"]]
        if not rows:
            return
        row = self.rng.choice(rows)
        spin = self.spin(rec["n"])
        jx, jy2, jz2 = mixture_moments(spin, row["lambda"], row["noise_value"])
        ref = witness(jx, jy2, jz2, spin.n, row["lambda"] > 0)
        self._fail(rec, f"delta row lambda={row['lambda']} sigma={row['noise_value']}",
                   compare_row(row, ref, MIXTURE_RTOL, MIXTURE_ATOL))

    def run(self, records: list) -> None:
        """Set ``failure`` and ``done`` (items done) on every record."""
        first = {}
        for rec in records:
            if rec["tag"] == "":
                first[(rec["pass"], rec["index"])] = rec
                failure, rec["done"] = self.structural(rec)
                rec["failure"] = rec["failure"] or failure
        self.sample(records)
        for rec in records:
            if rec["tag"] == "":
                continue
            # probes and traced copies are compared byte for byte by the loop
            if not rec["failure"] and (rec["rc"] != 0 or rec["exception"]):
                rec["failure"] = f"exit {rec['rc']} {rec['exception']}".strip()
            twin = first[(rec["pass"], rec["index"])]
            rec["done"] = 0 if rec["failure"] or not rec["timed"] else twin["done"]
