"""Steadiness check: run each workload repeatedly and report the spread.

    python3 benchmarks/steady.py --runs 10 [--trace-runs 2] [--against EARLIER.json]

Runs every workload of BENCHMARK.json, each untraced run on another seed
(1, 2, ..., runs).  For every end-to-end metric it prints the median and
quartiles of the runs' values and the spread, the distance between the
quartiles as a share of the median, beside the metric's bound.  A spread
should stay below a third of the bound; setup_s is exempt from the spread
check.  ``--against`` takes the steady.json of an earlier set of the same
code and compares every median, setup_s too: a median may not be worse than
the earlier one by more than the bound.  With ``--trace-runs`` it also makes
traced runs on distinct seeds and checks that every count metric repeats
exactly.  Exits 1 if a spread reaches its bound, a median is worse than the
earlier set's by more than the bound, a count differs between runs, or a run
fails its output checks.  The full report goes to
``benchmarks/_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="at least 2")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--against", help="steady.json of an earlier set of the same code")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    seeds = range(1, args.runs + 1)
    report, ok = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(spec, name, s, 0) for s in seeds]
        ok &= all(r["correct"] for r in runs)
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = m["name"] == "setup_s" or spread < m["bound"]
            ok &= steady
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": values}
            flag = "" if spread < m["bound"] / 3 else (" <- above bound/3" if steady else " <- ABOVE BOUND")
            if earlier:
                before = earlier[name]["end_to_end"][m["name"]]["median"]
                ratio = median / before
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                rows[m["name"]]["ratio_to_earlier"] = ratio
                ok &= worse <= m["bound"]
                flag += f" vs earlier {ratio:.4f}" + ("" if worse <= m["bound"] else " <- WORSE THAN BOUND")
            print(f"{name:20s} {m['name']:12s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}", flush=True)
        layers = {}
        if args.trace_runs:
            traced = [bench_run(spec, name, s, 1) for s in seeds[:args.trace_runs]]
            ok &= all(r["correct"] for r in traced)
            for key, v in traced[0]["metrics"].items():
                values = [r["metrics"][key]["value"] for r in traced]
                layers[key] = {"unit": v["unit"], "values": values}
                if v["unit"] == "count":
                    same = len(set(values)) == 1
                    ok &= same
                    print(f"{name:20s} {key} {values}{'' if same else ' <- DIFFERS'}", flush=True)
        report[name] = {"end_to_end": rows, "per_layer": layers}
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
