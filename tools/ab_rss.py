"""A/B of the peak resident memory of ``janus-sim mc``, one fresh
interpreter per run.

Runs ``cli.main(["mc", ...])`` of two source trees in alternation, each run
in its own Python process, and prints each run's peak RSS (``ru_maxrss``)::

    python tools/ab_rss.py PARENT_SRC [CHANGE_SRC] [--runs 8]
    python tools/ab_rss.py --aa [SRC]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories (each holding a
``janus_sim`` package); ``CHANGE_SRC`` defaults to this checkout's ``src``.
``--aa`` runs the same tree on both sides, so its ratio shows the spread
when nothing changed.  A run is ``mc --preset PRESET --paths PATHS
--workers 1`` with its outputs in a temporary directory, and
``JANUS_SIM_THREADS`` is unset for it.  Run pairs take the parent first and
the change first by turns; the last line gives the median peak of each side
and their ratio.  The one-process tools (``ab_step_map.py``,
``ab_monte_carlo.py``) cannot see a process's peak.  Uses only the standard
library.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

from ab_step_map import PRESETS, ab_parser, parse_trees

# One run: put the tree first on sys.path, run mc, print the exit code and
# the peak RSS in KiB (Linux's unit for ru_maxrss).
CHILD = """
import resource, sys, tempfile
sys.path.insert(0, sys.argv[1])
import janus_sim.cli
if not janus_sim.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {janus_sim.cli.__file__}")
with tempfile.TemporaryDirectory() as out:
    code = janus_sim.cli.main([*sys.argv[2:], "--out", out])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_mb(src, argv: list[str]) -> float:
    """The peak RSS of one ``mc`` run of tree ``src``, in MB."""
    env = {k: v for k, v in os.environ.items() if k != "JANUS_SIM_THREADS"}
    out = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(src), *argv],
                         capture_output=True, text=True, check=True, env=env)
    code, kib = out.stdout.split()[-2:]
    if code != "0":
        raise SystemExit(f"mc exited {code} on {src}: {out.stderr[-2000:]}")
    return int(kib) / 1024.0


def main(argv=None) -> int:
    ap = ab_parser(__doc__.split("\n\n")[0])
    ap.add_argument("--preset", choices=PRESETS, default="janus_baseline")
    ap.add_argument("--paths", type=int, default=100)
    ap.add_argument("--runs", type=int, default=8, help="run pairs")
    args, parent, change = parse_trees(ap, argv)
    mc = ["mc", "--preset", args.preset, "--paths", str(args.paths), "--workers", "1"]
    print(f"parent {parent}\nchange {change}\n{' '.join(mc)}, one process a run")

    peaks = {"parent": [], "change": []}
    for r in range(args.runs):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            peaks[side].append(peak_mb(parent if side == "parent" else change, mc))
        a, b = peaks["parent"][-1], peaks["change"][-1]
        print(f"pair {r + 1:2d} ({order[0]} first): parent {a:.2f} MB  change {b:.2f} MB  ratio {b / a:.4f}")
    a, b = statistics.median(peaks["parent"]), statistics.median(peaks["change"])
    print(f"median parent {a:.2f} MB  change {b:.2f} MB  ratio {b / a:.4f} over {args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
