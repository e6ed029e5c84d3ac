"""Span tracing from outside the package, and per-layer metrics from spans.

The tracer replaces the module attributes that bellfringe's own code looks
up at call time (for example ``bellfringe.scan.ground_state``) with timing
wrappers, and puts every original back on exit.  Spans are kept in memory
as lists ``[name, start, end, parent, op, extra]`` and written out once,
when the run ends.  Untraced runs never construct a Tracer.

Private helpers (the eigenpair checks and sign fixing) are not wrapped: they
show up only as self time of the josephson spans that call them.
"""

from __future__ import annotations

import importlib
import json
import os
import time

NAME, START, END, PARENT, OP, EXTRA = range(6)

# (module, attribute, span name): the attribute each caller looks up
TARGETS = (
    ("bellfringe.cli", "run_scan", "scan.run_scan"),
    ("bellfringe.scan", "run_scan", "scan.run_scan"),
    ("bellfringe.cli", "emit_outputs", "scan.emit_outputs"),
    ("bellfringe.cli", "find_zero_crossings", "scan.find_zero_crossings"),
    ("bellfringe.cli", "make_evaluator", "scan.crossing_eval"),
    ("bellfringe.cli", "verify_sensitivity", "fringe_mc.verify_sensitivity"),
    ("bellfringe.fringe_mc", "fit_phase", "fringe_mc.fit_phase"),
    ("bellfringe.fringe_mc", "sample_shot", "fringe_mc.sample_shot"),
    ("bellfringe.fringe_mc", "draw_shot_phase", "fringe_mc.draw_shot_phase"),
    ("bellfringe.scan", "ground_state", "josephson.ground_state"),
    ("bellfringe.noise", "ground_state", "josephson.ground_state"),
    ("bellfringe.scan", "full_spectrum", "josephson.full_spectrum"),
    ("bellfringe.josephson", "eigh_tridiagonal", "josephson.eigensolve"),
    ("bellfringe.josephson", "build_hamiltonian", "josephson.build_hamiltonian"),
    ("bellfringe.scan", "compute_moments", "spin_core.compute_moments"),
    ("bellfringe.spin_core", "compute_moments", "spin_core.compute_moments"),
    ("bellfringe.scan", "ensemble_moments", "spin_core.ensemble_moments"),
    ("bellfringe.noise", "ensemble_moments", "spin_core.ensemble_moments"),
    ("bellfringe.scan", "delta_mixture", "noise.delta_mixture"),
    ("bellfringe.scan", "report_from_moments", "witnesses.report"),
    ("bellfringe.scan", "build_report", "witnesses.report"),
    ("bellfringe.scan.SpectrumCache", "get_or_compute", "scan.cache"),
)


def _resolve(path: str):
    """Module or class object for a dotted path such as 'bellfringe.scan.SpectrumCache'."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _spectrum_bytes(spectrum) -> int:
    return int(spectrum.energies.nbytes + sum(st.coeffs.nbytes for st in spectrum.states))


class Tracer:
    """Context manager that wraps TARGETS while active."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (used for the CLI op itself)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # -- wrappers ----------------------------------------------------------
    def _plain(self, name, fn, extra_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[EXTRA] = {"error": type(exc).__name__}
                raise
            finally:
                tracer._close(span)
            if extra_of is not None:
                span[EXTRA] = extra_of(args, result)
            return result

        return wrapper

    def _evaluator_factory(self, name, make_evaluator):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._plain(name, make_evaluator(*args, **kwargs))

        return wrapper

    def _cache_wrapper(self, name, get_or_compute):
        tracer = self

        def wrapper(cache, params):
            before = len(os.listdir(cache.directory))
            span = tracer._open(name)
            try:
                spectrum = get_or_compute(cache, params)
            finally:
                tracer._close(span)
            hit = len(os.listdir(cache.directory)) == before
            span[EXTRA] = {"hit": hit, "bytes": _spectrum_bytes(spectrum)}
            return spectrum

        return wrapper

    def _make_wrapper(self, name, original):
        if name == "scan.crossing_eval":
            return self._evaluator_factory(name, original)
        if name == "scan.cache":
            return self._cache_wrapper(name, original)
        if name == "scan.emit_outputs":
            return self._plain(
                name, original,
                lambda args, paths: {"bytes": sum(os.path.getsize(p) for p in paths)},
            )
        if name == "josephson.full_spectrum":
            return self._plain(
                name, original,
                lambda args, spec: {"n": spec.params.n_particles,
                                    "bytes": _spectrum_bytes(spec)},
            )
        if name == "josephson.ground_state":
            return self._plain(name, original, lambda args, res: {"n": args[0].n_particles})
        return self._plain(name, original)

    def __enter__(self):
        for path, attr, name in TARGETS:
            try:
                owner = _resolve(path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._make_wrapper(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "extra": s[EXTRA]}) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals
    clipped to it."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


N_BREAKDOWN = {"josephson.ground_state": (1000, 4000), "josephson.full_spectrum": (1000, 2000)}

# metric -> unit; all totals are per traced pass
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "scan.run_scan.self_ms": "ms",
    "scan.cache.hits": "count",
    "scan.cache.misses": "count",
    "scan.cache.hit_ms": "ms",
    "scan.cache.miss_ms": "ms",
    "scan.cache.bytes": "bytes",
    "scan.emit_outputs.ms": "ms",
    "scan.emit_outputs.bytes": "bytes",
    "scan.find_zero_crossings.ms": "ms",
    "scan.crossing_evals": "count",
    "josephson.ground_state.calls": "count",
    "josephson.ground_state.ms": "ms",
    "josephson.eigensolve.ms": "ms",
    "josephson.build_hamiltonian.ms": "ms",
    "josephson.solve_self.ms": "ms",
    "josephson.full_spectrum.calls": "count",
    "josephson.full_spectrum.ms": "ms",
    "josephson.full_spectrum.bytes": "bytes",
    "spin_core.compute_moments.calls": "count",
    "spin_core.compute_moments.ms": "ms",
    "spin_core.ensemble_moments.ms": "ms",
    "noise.delta_mixture.calls": "count",
    "noise.delta_mixture.self_ms": "ms",
    "noise.ground_solves_per_point": "count",
    "witnesses.report.calls": "count",
    "witnesses.report.ms": "ms",
    "fringe_mc.fit_phase.calls": "count",
    "fringe_mc.fit_phase.ms": "ms",
    "fringe_mc.failed_fits": "count",
    "fringe_mc.sample_shot.ms": "ms",
    "fringe_mc.draw_shot_phase.ms": "ms",
    "fringe_mc.verify_sensitivity.self_ms": "ms",
}
for _layer, _sizes in N_BREAKDOWN.items():
    for _n in _sizes:
        for _part in ("ms_per_call", "eigensolve_ms_per_call", "self_ms_per_call"):
            LAYER_METRICS[f"{_layer}.N{_n}.{_part}"] = "ms"


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics from one run's spans, totals divided by ``passes``."""
    selfs = self_times(spans)
    calls, total, self_total = {}, {}, {}
    for s, st in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        self_total[name] = self_total.get(name, 0.0) + st

    def ms(table, name):
        return 1e3 * table.get(name, 0.0) / passes

    def per_pass(x):
        return x / passes

    def extra_sum(name, key, cond=lambda e: True):
        return sum(s[EXTRA][key] for s in spans
                   if s[NAME] == name and s[EXTRA] and cond(s[EXTRA]))

    cache = [(s, s[EXTRA]["hit"]) for s in spans if s[NAME] == "scan.cache" and s[EXTRA]]
    mixtures = [i for i, s in enumerate(spans) if s[NAME] == "noise.delta_mixture"]
    mixture_ids = set(mixtures)
    solves_in_mixtures = sum(
        1 for s in spans if s[NAME] == "josephson.ground_state" and s[PARENT] in mixture_ids
    )
    m = {
        "cli.self_ms": ms(self_total, "cli"),
        "scan.run_scan.self_ms": ms(self_total, "scan.run_scan"),
        "scan.cache.hits": per_pass(sum(1 for _, hit in cache if hit)),
        "scan.cache.misses": per_pass(sum(1 for _, hit in cache if not hit)),
        "scan.cache.hit_ms": 1e3 * sum(s[END] - s[START] for s, hit in cache if hit) / passes,
        "scan.cache.miss_ms": 1e3 * sum(s[END] - s[START] for s, hit in cache if not hit) / passes,
        "scan.cache.bytes": per_pass(extra_sum("scan.cache", "bytes")),
        "scan.emit_outputs.ms": ms(total, "scan.emit_outputs"),
        "scan.emit_outputs.bytes": per_pass(extra_sum("scan.emit_outputs", "bytes")),
        "scan.find_zero_crossings.ms": ms(total, "scan.find_zero_crossings"),
        "scan.crossing_evals": per_pass(calls.get("scan.crossing_eval", 0)),
        "josephson.ground_state.calls": per_pass(calls.get("josephson.ground_state", 0)),
        "josephson.ground_state.ms": ms(total, "josephson.ground_state"),
        "josephson.eigensolve.ms": ms(total, "josephson.eigensolve"),
        "josephson.build_hamiltonian.ms": ms(total, "josephson.build_hamiltonian"),
        "josephson.solve_self.ms": ms(self_total, "josephson.ground_state")
        + ms(self_total, "josephson.full_spectrum"),
        "josephson.full_spectrum.calls": per_pass(calls.get("josephson.full_spectrum", 0)),
        "josephson.full_spectrum.ms": ms(total, "josephson.full_spectrum"),
        "josephson.full_spectrum.bytes": per_pass(extra_sum("josephson.full_spectrum", "bytes")),
        "spin_core.compute_moments.calls": per_pass(calls.get("spin_core.compute_moments", 0)),
        "spin_core.compute_moments.ms": ms(total, "spin_core.compute_moments"),
        "spin_core.ensemble_moments.ms": ms(total, "spin_core.ensemble_moments"),
        "noise.delta_mixture.calls": per_pass(len(mixtures)),
        "noise.delta_mixture.self_ms": ms(self_total, "noise.delta_mixture"),
        "noise.ground_solves_per_point": solves_in_mixtures / len(mixtures) if mixtures else 0.0,
        "witnesses.report.calls": per_pass(calls.get("witnesses.report", 0)),
        "witnesses.report.ms": ms(total, "witnesses.report"),
        "fringe_mc.fit_phase.calls": per_pass(calls.get("fringe_mc.fit_phase", 0)),
        "fringe_mc.fit_phase.ms": ms(total, "fringe_mc.fit_phase"),
        "fringe_mc.failed_fits": per_pass(sum(
            1 for s in spans if s[NAME] == "fringe_mc.fit_phase" and s[EXTRA]
            and s[EXTRA].get("error") == "FitError")),
        "fringe_mc.sample_shot.ms": ms(total, "fringe_mc.sample_shot"),
        "fringe_mc.draw_shot_phase.ms": ms(total, "fringe_mc.draw_shot_phase"),
        "fringe_mc.verify_sensitivity.self_ms": ms(self_total, "fringe_mc.verify_sensitivity"),
    }
    m.update(_per_n(spans, selfs))
    return m


def _per_n(spans, selfs) -> dict:
    """Per-call time, eigensolve time and self time of the josephson solvers
    at each particle count."""
    eig_child = {}
    for s in spans:
        if s[NAME] == "josephson.eigensolve" and s[PARENT] >= 0:
            eig_child[s[PARENT]] = eig_child.get(s[PARENT], 0.0) + (s[END] - s[START])
    out = {}
    for layer, sizes in N_BREAKDOWN.items():
        for n in sizes:
            idx = [i for i, s in enumerate(spans)
                   if s[NAME] == layer and s[EXTRA] and s[EXTRA].get("n") == n]
            k = len(idx) or 1
            out[f"{layer}.N{n}.ms_per_call"] = 1e3 * sum(
                spans[i][END] - spans[i][START] for i in idx) / k
            out[f"{layer}.N{n}.eigensolve_ms_per_call"] = 1e3 * sum(
                eig_child.get(i, 0.0) for i in idx) / k
            out[f"{layer}.N{n}.self_ms_per_call"] = 1e3 * sum(selfs[i] for i in idx) / k
    return out
