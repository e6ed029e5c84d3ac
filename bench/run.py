"""Benchmark of the bellfringe CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The launcher (this process) measures set-up time in fresh
processes, runs the workload's closed loop in a child process of its own,
checks every op's output, and prints one JSON result as its last line of
standard output.  The line before it is a JSON record of the environment,
the tail latency, failures and, for traced runs, the tracing overhead.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402

SETUP_PROBES = 3
# the whole run, checks included, must end within 180 s
RUN_BUDGET_S = 150
PROBE_TIMEOUT_S = 30
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("BELLFRINGE_THREADS", None)  # every workload runs at --threads 1
    return env


def spawn(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run a role of this script in a fresh interpreter; kills it on timeout."""
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def check_layout() -> str:
    if not os.path.isfile(os.path.join(SRC, "bellfringe", "cli.py")):
        return f"no package source at {os.path.join('src', 'bellfringe')}"
    return ""


# -- roles run in child processes -------------------------------------------
def role_probe(args) -> int:
    """Set-up only: import the package and generate the first pass."""
    from bellfringe import cli  # noqa: F401
    import loop

    loop.Loop(args.workload, args.seed, args.workdir).pass_ops(0)
    print(repr(time.monotonic()))
    return 0


def role_child(args) -> int:
    import bellfringe
    import loop

    if not os.path.abspath(bellfringe.__file__).startswith(SRC + os.sep):
        print(f"bellfringe imported from {bellfringe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report = loop.run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    with open(os.path.join(args.workdir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


# -- launcher ---------------------------------------------------------------
def measure_setup(args, workdir: str) -> list:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup{i}")
        t0 = time.monotonic()
        done = spawn(["--role", "probe", "--workload", args.workload, "--seed", str(args.seed),
                      "--workdir", probe_dir], PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def tail(times_ms: list) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times_ms)
    if n <= TAIL_BEYOND:
        return {"omitted": f"only {n} ops"}
    i = n - TAIL_BEYOND - 1
    return {"value_ms": sorted(times_ms)[i], "percentile": 100.0 * (i + 1) / n,
            "samples_beyond": TAIL_BEYOND, "ops": n}


def items_per_s(records: list) -> float:
    busy = sum(r["seconds"] for r in records)
    return sum(r["done"] for r in records) / busy


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "traced": bool(args.trace),
        "seconds": args.seconds,
    }


def launch(args) -> int:
    problem = check_layout()
    if problem:
        print(f"bench: {problem}; run from the root of a bellfringe checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    started = time.monotonic()
    setup = measure_setup(args, workdir)
    t0 = time.monotonic()
    done = spawn(["--role", "child", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--workdir", workdir], RUN_BUDGET_S - (t0 - started))
    if done.returncode != 0:
        print(f"bench: workload process failed:\n{done.stderr[-4000:]}", file=sys.stderr)
        return 2
    with open(os.path.join(workdir, "child.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    setup.append(report["setup_done"] - t0)

    sys.path.insert(0, SRC)
    import checks
    import tracing

    records = report["records"]
    configs = {}
    for p in range(report["passes"]):
        for i, op in enumerate(workloads.generate_pass(args.workload, args.seed, p)):
            configs[(p, i)] = op
    checker = checks.Checker(args.workload, args.seed, configs, workdir)
    checker.run(records)

    first = [r for r in records if r["timed"] and r["tag"] == ""]
    failures = [{"op": os.path.relpath(r["out_dir"], workdir), "label": r["label"],
                 "cause": r["failure"]} for r in records if r["failure"]]
    times_ms = [1e3 * r["seconds"] for r in first]
    record = {
        "environment": environment(args),
        "passes": report["passes"],
        "fail_frac": len(failures) / len(records),
        "failures": failures,
        "dense_checks": checker.dense_checks,
        "op_ms_tail": tail(times_ms),
        "setup_samples_s": setup,
    }
    if args.trace:
        traced = [r for r in records if r["tag"] == "t"]
        untraced_ips, traced_ips = items_per_s(first), items_per_s(traced)
        overhead = 100.0 * (untraced_ips - traced_ips) / untraced_ips if untraced_ips else 0.0
        metrics = dict(report["layers"])
        metrics["trace.overhead_pct"] = overhead
        record["trace"] = {"untraced_items_per_s": untraced_ips,
                           "traced_items_per_s": traced_ips, "overhead_pct": overhead,
                           "unwrapped": report["unwrapped"],
                           "spans": os.path.relpath(os.path.join(workdir, "spans.jsonl"), ROOT)}
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_pct": "%"})
    else:
        metrics = {
            "items_per_s": items_per_s(first),
            "op_ms_p50": statistics.median(times_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = {"items_per_s": "items/s", "op_ms_p50": "ms", "setup_s": "s",
                 "peak_rss_mb": "MB"}
    record["metrics_by_label"] = by_label(first)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for k, v in metrics.items():
        if not math.isfinite(v):
            raise RuntimeError(f"metric {k} is not finite")
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for name in os.listdir(workdir):  # op outputs, configs and caches
        if os.path.isdir(os.path.join(workdir, name)):
            shutil.rmtree(os.path.join(workdir, name))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def by_label(records: list) -> dict:
    out = {}
    for r in records:
        out.setdefault(r["label"], []).append(1e3 * r["seconds"])
    return {k: {"ops": len(v), "median_ms": statistics.median(v)} for k, v in sorted(out.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("launch", "probe", "child"), default="launch",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "probe":
        return role_probe(args)
    if args.role == "child":
        return role_child(args)
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
