"""janus-sim benchmark: run one workload for a fixed time and print its metrics.

    python3 benchmarks/run.py --workload mc_baseline --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  The workload's CLI calls go in-process
through ``janus_sim.cli.main`` (imported from the checkout's ``src``), pass
after pass, until the time is up; untraced passes run in CHILDREN fresh
processes in turn (``--child``) after the setup probes.  Every pass is checked against the
reference outputs recorded from the seed code (``benchmarks/reference``).

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
makes one traced pass of each other workload, then alternates untraced and
traced passes of the workload for the rest of the time, and prints the
per-layer metrics; each is taken
from the workload that owns its layer (see benchmarks/README.md), and
``trace.overhead_frac`` compares this workload's traced and untraced passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give provenance and quartiles.  A full record
goes to ``benchmarks/_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = workloads.NAMES
# Untraced passes run in this many fresh processes, one after another: the
# host gives each process its own speed for its lifetime, and a run that
# samples several processes spreads far less than one that samples one.
CHILDREN = 3
SETUP_PROBES = 5

# A fresh interpreter imports the CLI and loads (so validates) the workload's
# configs; it prints the seconds this took.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from janus_sim import cli\n"
    "for path in sys.argv[2:]:\n"
    "    cli.load_config(path)\n"
    "print(time.perf_counter() - t0)\n"
)


def call_cli(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call.  A raise is a
    failed operation, not a crash of the benchmark; its exit code is a string."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            traceback.print_exc()
            rc = f"raised {type(exc).__name__}"
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """One workload's generated inputs, its reference, and its passes."""

    def __init__(self, name: str, seed: int, cli):
        self.name = name
        self.seed = seed
        self.cli = cli
        self.work = os.path.join(HERE, "_work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        self.configs, self.calls = workloads.make_calls(name, SRC, self.work, seed)
        with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
            self.reference = json.load(fh)

    def run_pass(self, tracer=None) -> dict:
        """One timed pass; its outputs are checked after the clock stops."""
        workloads.clear_outputs(self.calls)
        results = []
        start = perf_counter()
        for call in self.calls:
            if tracer is not None:
                tracer.label = call.key
            results.append(call_cli(self.cli, call.argv))
        wall = perf_counter() - start
        attempted = failed = steps = 0
        problems = []
        for call, (rc, out, err) in zip(self.calls, results):
            obs = workloads.observe(self.name, call, rc, out)
            want = workloads.reference_entry(self.reference, self.name, self.seed, call.key)
            n_bad, why = workloads.failed_ops(self.name, obs, want, call)
            attempted += call.ops
            failed += n_bad
            steps += workloads.steps(self.name, want, call)
            if n_bad:
                problems.append({"call": call.key, "diffs": why[:5], "stderr": err[-2000:]})
        return {"wall_s": wall, "steps": steps, "attempted": attempted, "failed": failed,
                "problems": problems}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def provenance() -> dict:
    import numpy
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    features = [k for k, on in __cpu_features__.items() if on]
    levels = [k for k in ("X86_V2", "X86_V3", "X86_V4") if k in features]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_simd_level": levels[-1] if levels else "baseline",
        "numpy_cpu_features": features,
    }


def traced_pass(workload: Workload, tracer: tracing.Tracer) -> dict:
    tracer.reset()
    with tracer.patched():
        p = workload.run_pass(tracer)
    p["layers"] = tracing.layer_metrics(tracer, workload.name)
    return p


def timed_passes(workload: Workload, seconds: float, tracer=None) -> tuple[list, list]:
    """Passes until the longest so far would overrun ``seconds``, at least one
    of each kind; with a tracer every other pass is traced.  Returns
    (untraced, traced) passes."""
    plain, traced = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        t = perf_counter()
        if tracer is not None and len(traced) < len(plain):
            traced.append(traced_pass(workload, tracer))
        else:
            plain.append(workload.run_pass())
        longest = max(longest, perf_counter() - t)
        enough = plain and (tracer is None or traced)
        if enough and perf_counter() - start + longest > seconds:
            return plain, traced


def child_passes(workload: Workload, seconds: float) -> dict:
    """Untraced passes in this process, and its peak RSS in KiB plus, on
    ``frontier_pool``, each concurrent pool worker at the largest worker peak."""
    plain, _ = timed_passes(workload, seconds)
    workers = workloads.FRONTIER_WORKERS if workload.name == "frontier_pool" else 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"passes": plain, "peak_rss_kb": peak}


def untraced_passes(args, deadline: float) -> tuple[list, int]:
    """The untraced passes of CHILDREN fresh processes sharing the time left
    until ``deadline`` (a perf_counter value), and the largest of their peak
    RSS."""
    passes, peak = [], 0
    for i in range(CHILDREN):
        share = max(deadline - perf_counter(), 0.0) / (CHILDREN - i)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(share), "--child"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        passes += out["passes"]
        peak = max(peak, out["peak_rss_kb"])
    return passes, peak


def setup_times(workload: Workload) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, *workload.configs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(plain: list, peak_kb: int, setup: list) -> tuple[dict, dict]:
    """(metrics, quartiles) of the untraced passes and the setup probes."""
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    dist = {
        "wall_s": quartiles([p["wall_s"] for p in plain]),
        "steps_per_s": quartiles([p["steps"] / p["wall_s"] for p in plain]),
        "setup_s": quartiles(setup),
    }
    metrics = {
        "wall_s": (dist["wall_s"]["median"], "s"),
        "steps_per_s": (dist["steps_per_s"]["median"], "1/s"),
        "setup_s": (dist["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ops_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, dist


def per_layer(plain: list, traced: list, owners: dict) -> dict:
    """Each layer's metrics from the passes of the workload that owns it."""
    metrics = {}
    for passes in owners.values():
        for name, (_, unit) in passes[0]["layers"].items():
            # a count stays a count: the lower middle value, not a mean of two
            median = statistics.median_low if unit in ("count", "bytes") else statistics.median
            metrics[name] = (median(p["layers"][name][0] for p in passes), unit)
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def stop_resource_tracker():
    """Stop and reap the process multiprocessing starts to track semaphores."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "janus_sim", "cli.py")):
        print(f"benchmark: no janus_sim sources under {SRC}", file=sys.stderr)
        return 2
    # Hermetic inputs: the worker count comes only from the command line.
    os.environ.pop("JANUS_SIM_THREADS", None)
    sys.path.insert(0, SRC)
    from janus_sim import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported janus_sim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.child:
        try:
            out = child_passes(Workload(args.workload, args.seed, cli), args.seconds)
        finally:
            stop_resource_tracker()
        print(json.dumps(out))
        return 0

    prov = provenance()
    workload = Workload(args.workload, args.seed, cli)
    try:
        start = perf_counter()
        if args.trace:
            tracer = tracing.Tracer()
            owners = {name: [traced_pass(Workload(name, args.seed, cli), tracer)]
                      for name in WORKLOADS if name != workload.name}
            plain, traced = timed_passes(workload, args.seconds - (perf_counter() - start), tracer)
            owners[workload.name] = traced
            checked = plain + [p for ps in owners.values() for p in ps]
            metrics = per_layer(plain, traced, owners)
            dist = {}
        else:
            setup = setup_times(workload)
            plain, peak_kb = untraced_passes(args, start + args.seconds)
            checked = plain
            metrics, dist = end_to_end(plain, peak_kb, setup)
    finally:
        stop_resource_tracker()

    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    problems = [x for p in checked for x in p["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed, "config_seed": workloads.config_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        "passes": [{k: v for k, v in p.items() if k != "problems"} for p in checked],
        "quartiles": dist, "problems": problems,
    }
    with open(os.path.join(workload.work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print("provenance: " + json.dumps(prov))
    for name, q in dist.items():
        print(f"{name}: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']}")
    print(f"failed_ops_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for x in problems[:5]:
        print("failed: " + json.dumps(x)[:500])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
