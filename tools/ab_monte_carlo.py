"""A/B timing of an ensemble, ``sim_engine.monte_carlo`` with one worker, in
one process.

Loads two source trees of the package under two module names (the loader
of ``ab_step_map.py``), checks that their ensembles agree bit for bit, then
times them in alternation::

    python tools/ab_monte_carlo.py PARENT_SRC [CHANGE_SRC] [--rounds 8]
    python tools/ab_monte_carlo.py --aa [SRC]
    python tools/ab_monte_carlo.py --aa --paths 24 --set-parent BATCH_MIN_PATHS=1 \
        --set BATCH_MIN_PATHS=100000

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories (each holding a
``janus_sim`` package); ``CHANGE_SRC`` defaults to this checkout's ``src``.
``--aa`` loads the same tree on both sides, so its ratios show what the
harness reads when nothing changed.  ``--set NAME=VALUE`` sets a module
constant of ``sim_engine`` (an int) on the change side, ``--set-parent`` on
the parent side: with ``BATCH_MIN_PATHS`` at most ``--paths`` a side runs
its paths as one batch, above it one by one through the scalar core, so an
A/A run with the two settings times the two forms of the step against each
other.

As in ``ab_step_map.py``, each side is loaded twice, in the order parent,
change, change, parent, and a side's time is the sum of its two copies'
times.  The check runs ``--check-paths`` paths of each preset, and
``--paths`` paths of ``--preset``, on every copy and compares the
``EnsembleSummary`` reprs.  A round then times ``--preset`` on each copy,
best of ``--best`` ensembles of ``--paths`` paths, in load order or its
reverse, alternating from round to round.  Each round prints its ratio (the
change's summed best times over the parent's); the last line gives the
median ratio and the rounds the change won.  Uses only the standard
library and the package.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

from ab_step_map import PRESETS, ROOT, load_package


class Side:
    """One tree's ``monte_carlo`` and its presets."""

    def __init__(self, src: Path, name: str, constants: dict):
        load_package(src, name)
        engine = sys.modules[f"{name}.sim_engine"]
        for key, value in constants.items():
            if not isinstance(getattr(engine, key, None), int):
                raise SystemExit(f"--set: sim_engine has no int constant {key}")
            setattr(engine, key, value)
        self.monte_carlo = engine.monte_carlo
        config_io = sys.modules[f"{name}.config_io"]
        self.configs = {p: config_io.load_preset(p) for p in PRESETS}

    def summary(self, preset: str, n_paths: int) -> str:
        return repr(self.monte_carlo(self.configs[preset], n_paths, 1))

    def best(self, preset: str, n_paths: int, repeats: int) -> float:
        """Best time of ``repeats`` ensembles, in seconds."""
        monte_carlo, config = self.monte_carlo, self.configs[preset]
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            monte_carlo(config, n_paths, 1)
            best = min(best, time.perf_counter() - t0)
        return best


def _constant(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    return name, int(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", type=Path, help="the parent's src directory")
    ap.add_argument("change", nargs="?", type=Path, default=ROOT / "src",
                    help="the change's src directory (default: this checkout's)")
    ap.add_argument("--aa", action="store_true", help="time one tree against itself")
    ap.add_argument("--set", type=_constant, action="append", default=[], metavar="NAME=VALUE",
                    help="set an int constant of sim_engine on the change side")
    ap.add_argument("--set-parent", type=_constant, action="append", default=[], metavar="NAME=VALUE",
                    help="set an int constant of sim_engine on the parent side")
    ap.add_argument("--preset", choices=PRESETS, default="janus_baseline")
    ap.add_argument("--paths", type=int, default=100)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--best", type=int, default=3)
    ap.add_argument("--check-paths", type=int, default=40)
    args = ap.parse_args(argv)
    if args.aa:
        parent = change = args.parent or args.change
    elif args.parent is None:
        ap.error("give the parent's src directory, or --aa")
    else:
        parent, change = args.parent, args.change
    sys.path.insert(0, str(ROOT / "src"))

    import janus_sim.presets  # noqa: F401  (before the copies, which read it)

    constants = {"parent": dict(args.set_parent), "change": dict(args.set)}
    sides = ("parent", "change", "change", "parent")
    copies = [
        Side(src, f"janus_ab_{i}", constants[side])
        for i, (side, src) in enumerate(zip(sides, (parent, change, change, parent)))
    ]
    checks = [(p, args.check_paths) for p in PRESETS] + [(args.preset, args.paths)]
    for preset, n_paths in checks:
        seen = [c.summary(preset, n_paths) for c in copies]
        if any(s != seen[0] for s in seen):
            print(f"{preset}: the ensembles of {n_paths} paths differ", file=sys.stderr)
            return 1
    settings = {side: " ".join(f"{k}={v}" for k, v in c.items()) for side, c in constants.items()}
    print(f"parent {parent} {settings['parent']}\nchange {change} {settings['change']}\n"
          f"ensembles equal by repr on {len(PRESETS)} presets at {args.check_paths} paths "
          f"and on {args.preset} at {args.paths}")

    ratios, wins = [], 0
    gc.disable()
    try:
        for r in range(args.rounds):
            order = copies if r % 2 == 0 else copies[::-1]
            times = {c: c.best(args.preset, args.paths, args.best) for c in order}
            a = times[copies[0]] + times[copies[3]]
            b = times[copies[1]] + times[copies[2]]
            ratios.append(b / a)
            wins += b < a
            way = "load order" if r % 2 == 0 else "reversed"
            print(f"round {r + 1:2d} ({way}): ratio {b / a:.3f}  parent {a / 2:.4f} s  change {b / 2:.4f} s")
    finally:
        gc.enable()
    print(f"median ratio {statistics.median(ratios):.3f} over {len(ratios)} rounds; "
          f"change faster in {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
