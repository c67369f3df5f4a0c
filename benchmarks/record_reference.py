"""Record the reference outputs the benchmark checks against.

    python3 benchmarks/record_reference.py

Runs every workload's CLI calls once, untraced, for each config seed of the
pool (equilibrium once: it draws no random numbers), and writes
``benchmarks/reference/<workload>.json``.  The reference was recorded from the
seed code.  Record it again only in a change whose purpose is to alter the
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def _rounded(value):
    """Floats to 12 significant digits, far inside the check's tolerance."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def dump(reference: dict) -> str:
    """One line per top-level key, so a re-recording diffs by seed."""
    lines = [
        f"{json.dumps(k)}: {json.dumps(_rounded(v), sort_keys=True, separators=(',', ':'))}"
        for k, v in sorted(reference.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    sys.path.insert(0, run.SRC)
    from janus_sim import cli

    os.environ.pop("JANUS_SIM_THREADS", None)
    os.makedirs(os.path.join(run.HERE, "reference"), exist_ok=True)
    for name in run.WORKLOADS:
        seeds = [0] if name == "equilibrium_presets" else range(workloads.SEED_POOL)
        reference = {}
        for seed in seeds:
            work = os.path.join(run.HERE, "_work", "record", name)
            _, calls = workloads.make_calls(name, run.SRC, work, seed)
            workloads.clear_outputs(calls)
            entry = {}
            for call in calls:
                rc, out, _ = run.call_cli(cli, call.argv)
                entry[call.key] = workloads.observe(name, call, rc, out)
            if name == "equilibrium_presets":
                reference = entry
            else:
                reference[str(workloads.config_seed(seed))] = entry
            print(name, workloads.config_seed(seed), flush=True)
        with open(os.path.join(run.HERE, "reference", f"{name}.json"), "w") as fh:
            fh.write(dump(reference))
    run.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
