"""The three benchmark workloads: generated inputs, the CLI calls of one pass,
and the checks of their outputs against a reference recorded from the seed
code.

A pass is one closed-loop run of a workload: its CLI calls are made one after
the other, in-process, through ``janus_sim.cli.main``.  Every pass of a run
uses the same generated inputs.  An *operation* is one ensemble, one frontier
cell or one preset solve; it fails if the call raises, returns an
unexpected exit code, or its output differs from the reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass

NAMES = ("mc_baseline", "frontier_pool", "equilibrium_presets")
PRESETS = ("janus_baseline", "usdc_like", "dai_like", "ust_like", "flatcoin_like")

# The workload seed selects one of SEED_POOL config seeds; the reference holds
# the seed code's outputs for each of them.
SEED_POOL = 16
HORIZON = 365  # every preset's horizon
MC_PATHS = 100
FRONTIER_PATHS = 4
FRONTIER_WORKERS = 2
# find_fixed_point's default iteration cap: ust_like stops there (exit 3) and
# writes no equilibrium.json, so its step-map count is the cap.
SOLVER_MAX_ITER = 10000

# Floats in the outputs are compared with |a - b| <= ABS_TOL + REL_TOL * max(|a|, |b|).
# Changing exp by 1 ulp on 5% of its calls in the step (as a numpy kernel
# would) moved the outputs by at most 3e-12 relative on 8 pool seeds, and
# changed no count, flag, exit code or iteration count.
REL_TOL = 1e-7
ABS_TOL = 1e-12


def config_seed(seed: int) -> int:
    return 1000 + seed % SEED_POOL


@dataclass
class Call:
    """One CLI call of a pass."""

    key: str  # reference key of the call's output
    argv: list
    out: str
    ops: int = 1


def _write_config(src: str, work: str, preset: str, seed: int) -> str:
    with open(os.path.join(src, "janus_sim", "presets", f"{preset}.json")) as fh:
        data = json.load(fh)
    data["seed"] = config_seed(seed)
    path = os.path.join(work, "inputs", f"{preset}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
    return path


def make_calls(name: str, src: str, work: str, seed: int) -> tuple[list, list]:
    """Write the workload's configs under ``work``; return (configs, calls)."""
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)

    def call(key, argv, ops=1):
        out = os.path.join(work, "out", key)
        return Call(key, argv + ["--out", out], out, ops)

    if name == "mc_baseline":
        cfg = _write_config(src, work, "janus_baseline", seed)
        return [cfg], [call("mc", ["mc", "--config", cfg, "--paths", str(MC_PATHS), "--workers", "1"])]
    if name == "frontier_pool":
        cfg = _write_config(src, work, "janus_baseline", seed)
        argv = ["frontier", "--config", cfg, "--paths", str(FRONTIER_PATHS),
                "--workers", str(FRONTIER_WORKERS)]
        return [cfg], [call("frontier", argv, ops=9)]  # the bundled 3x3 grid
    if name == "equilibrium_presets":
        cfgs = [_write_config(src, work, p, seed) for p in PRESETS]
        return cfgs, [call(p, ["equilibrium", "--config", c]) for p, c in zip(PRESETS, cfgs)]
    raise ValueError(f"unknown workload {name!r}")


def clear_outputs(calls: list):
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def observe(name: str, call: Call, rc, stdout: str) -> dict:
    """What a call produced, in the form the reference records."""
    obs = {"exit": rc}
    if name == "mc_baseline":
        obs["ensemble"] = _read_json(os.path.join(call.out, "ensemble.json"))
    elif name == "frontier_pool":
        try:
            with open(os.path.join(call.out, "frontier.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            # override cells stay strings; d, e, s are floats; pareto is an int
            obs["rows"] = [r[:-4] + [float(v) for v in r[-4:-1]] + [int(r[-1])] for r in rows]
        except (OSError, ValueError, IndexError):
            obs["rows"] = None
    else:
        obs["stdout"] = stdout.split(" (")[0].strip()
        obs["equilibrium"] = _read_json(os.path.join(call.out, "equilibrium.json"))
    return obs


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between an observation and its reference.

    Exit codes, counts, flags and strings (stability class, override cells)
    must match exactly; floats within the stated tolerance.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        if math.isnan(want) or math.isnan(got):
            ok = math.isnan(want) and math.isnan(got)
        else:
            ok = abs(got - want) <= ABS_TOL + REL_TOL * max(abs(got), abs(want))
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


def reference_entry(reference: dict, name: str, seed: int, key: str):
    if name == "equilibrium_presets":  # no rng: the seed cannot change the outputs
        return reference[key]
    return reference[str(config_seed(seed))][key]


def failed_ops(name: str, obs: dict, want: dict, call: Call) -> tuple[int, list[str]]:
    """Number of failed operations in one call, and why."""
    rows = obs.get("rows")
    if name == "frontier_pool" and obs["exit"] == want["exit"] and rows and len(rows) == len(want["rows"]):
        bad = [mismatches(g, w, f"{call.key}[{i}]") for i, (g, w) in enumerate(zip(rows, want["rows"]))]
        return sum(1 for b in bad if b), [m for b in bad for m in b]
    diffs = mismatches(obs, want, call.key)
    return (call.ops if diffs else 0), diffs


def steps(name: str, want: dict, call: Call) -> int:
    """One-step transitions of a call whose output matches its reference:
    path-steps, or step-map evaluations.

    ``mc`` and ``frontier`` outputs hold no step count; their paths run the
    full horizon (the traced run's ``truncated`` count checks this).
    """
    if name == "mc_baseline":
        return MC_PATHS * HORIZON
    if name == "frontier_pool":
        return call.ops * FRONTIER_PATHS * HORIZON
    eq = want["equilibrium"]
    if eq is None:
        return SOLVER_MAX_ITER
    return eq["iterations"] + 2 * len(eq["x_star"])  # solver + central-difference Jacobian
