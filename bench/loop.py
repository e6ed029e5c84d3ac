"""Closed-loop runner, run in the workload's own process.

One client calls ``bellfringe.cli.main(argv)`` in-process; the next op
starts when the previous one returns.  The loop runs whole passes until the
timed ops have taken at least ``seconds``, so every run holds the same mix
of op kinds.  Each op writes into its own directory; the launcher checks
those outputs after this process has exited.

Untraced runs re-run one seed-chosen op per pass, untimed, and require
byte-identical outputs.  Traced runs instead run every pass twice, first
untraced and then traced, on identical inputs: the second copy yields the
spans, the pair yields the tracing overhead, and its outputs must be
byte-identical to the first copy's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import time

import workloads


def write_configs(ops: list, pass_dir: str) -> None:
    os.makedirs(pass_dir, exist_ok=True)
    for i, op in enumerate(ops):
        if op["config"] is not None:
            with open(os.path.join(pass_dir, f"op{i}.json"), "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)


def argv_for(op: dict, config_path: str, out_dir: str, cache_dir: str) -> list:
    argv = [op["kind"]]
    if op["config"] is not None:
        argv += ["--config", config_path, "--out", out_dir]
    if op["cache"]:
        argv += ["--cache", cache_dir]
    return argv + op["args"]


def read_outputs(out_dir: str) -> dict:
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def call_cli(main, argv: list, tracer=None) -> tuple:
    """(exit code, stdout, stderr, exception text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    exc_text = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call("cli", main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects an argv
            rc = exc.code if isinstance(exc.code, int) else 1
            exc_text = f"SystemExit: {exc.code}"
        except Exception as exc:  # noqa: BLE001 - an op failure, recorded
            rc = -1
            exc_text = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), exc_text


def same_outputs(a_dir: str, a_stdout: str, b_dir: str, b_stdout: str) -> bool:
    return (read_outputs(a_dir) == read_outputs(b_dir)
            and a_stdout.replace(a_dir, "") == b_stdout.replace(b_dir, ""))


class Loop:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.records = []

    def pass_ops(self, p: int) -> list:
        ops = workloads.generate_pass(self.workload, self.seed, p)
        write_configs(ops, os.path.join(self.workdir, f"p{p}"))
        return ops

    def run_pass(self, main, ops: list, p: int, tag: str, tracer=None) -> list:
        """Run the ops of pass ``p`` in order; returns their records."""
        conf_dir = os.path.join(self.workdir, f"p{p}")
        run_dir = os.path.join(self.workdir, f"p{p}{tag}")
        cache_dir = os.path.join(run_dir, "cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        records = []
        for i, op in enumerate(ops):
            out_dir = os.path.join(run_dir, f"op{i}")
            argv = argv_for(op, os.path.join(conf_dir, f"op{i}.json"), out_dir, cache_dir)
            if tracer is not None:
                tracer.op = f"p{p}{tag}/op{i}"
            t0 = time.perf_counter()
            rc, stdout, stderr, exc_text = call_cli(main, argv, tracer)
            elapsed = time.perf_counter() - t0
            records.append({
                "pass": p, "index": i, "tag": tag, "timed": True, "label": op["label"],
                "kind": op["kind"], "items": op["items"], "n": op["n"], "argv": argv,
                "out_dir": out_dir, "seconds": elapsed, "rc": rc, "stdout": stdout,
                "stderr": stderr[-2000:], "exception": exc_text, "failure": "",
            })
        return records

    def probe(self, main, ops: list, p: int, records: list) -> dict:
        """Re-run one op of pass ``p``, untimed, and compare its outputs."""
        i = workloads.probe_index(self.workload, self.seed, p, len(ops))
        first = records[i]
        out_dir = os.path.join(self.workdir, f"p{p}", "probe")
        cache_dir = os.path.join(self.workdir, f"p{p}", "cache")
        argv = argv_for(ops[i], os.path.join(self.workdir, f"p{p}", f"op{i}.json"),
                        out_dir, cache_dir)
        rc, stdout, stderr, exc_text = call_cli(main, argv)
        failure = ""
        if rc != 0 or exc_text:
            failure = f"probe exit {rc} {exc_text}".strip()
        elif first["rc"] == 0 and not same_outputs(first["out_dir"], first["stdout"],
                                                   out_dir, stdout):
            failure = "determinism probe: outputs differ from the first run"
        return {
            "pass": p, "index": i, "tag": "probe", "timed": False, "label": first["label"],
            "kind": first["kind"], "items": 0, "n": first["n"], "argv": argv,
            "out_dir": out_dir, "seconds": 0.0, "rc": rc, "stdout": stdout,
            "stderr": stderr[-2000:], "exception": exc_text, "failure": failure,
        }

    def drop_caches(self, p: int) -> None:
        # spectrum caches hold N^2 floats per lambda; outputs stay for checking
        for tag in ("", "t"):
            shutil.rmtree(os.path.join(self.workdir, f"p{p}{tag}", "cache"), ignore_errors=True)


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Run the closed loop; returns the child report for the launcher."""
    from bellfringe import cli

    loop = Loop(workload, seed, workdir)
    ops = loop.pass_ops(0)
    setup_done = time.monotonic()

    tracer = None
    if traced:
        import tracing  # untraced runs never import it

        tracer = tracing.Tracer()

    measured = 0.0  # op time; probes and checks excluded
    p = 0
    while True:
        if p > 0:
            ops = loop.pass_ops(p)
        records = loop.run_pass(cli.main, ops, p, "")
        loop.records += records
        if tracer is None:
            loop.records.append(loop.probe(cli.main, ops, p, records))
        else:
            with tracer:
                traced_records = loop.run_pass(cli.main, ops, p, "t", tracer)
            for first, again in zip(records, traced_records):
                if first["rc"] == 0 and not same_outputs(
                        first["out_dir"], first["stdout"], again["out_dir"], again["stdout"]):
                    again["failure"] = "traced outputs differ from the untraced run"
            loop.records += traced_records
        loop.drop_caches(p)
        # a traced run spends its time on both copies of each pass
        measured += sum(r["seconds"] for r in loop.records if r["pass"] == p and r["timed"])
        p += 1
        if measured >= seconds:
            break

    report = {
        "setup_done": setup_done,
        "passes": p,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": loop.records,
    }
    if tracer is not None:
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        report["layers"] = tracing.layer_metrics(tracer.spans, p)
        report["unwrapped"] = tracer.missing
    return report
