"""A/B timing of the equilibrium map, ``sim_engine.step_map``, in one process.

Loads two source trees of the package under two module names, checks that
their maps agree bit for bit, then times them in alternation::

    python tools/ab_step_map.py PARENT_SRC [CHANGE_SRC] [--rounds 16]
    python tools/ab_step_map.py --aa [SRC]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories (each holding a
``janus_sim`` package); ``CHANGE_SRC`` defaults to this checkout's ``src``.
``--aa`` loads the same tree on both sides (by default this checkout's
``src``), so its ratios show what the harness reads when nothing changed.
This checkout's ``src`` stays on ``sys.path``: ``load_preset`` reads the
presets through ``janus_sim.presets``, which is imported first.

Where a copy of the code sits in memory moves its speed by a few percent, so
each side is loaded twice, in the order parent, change, change, parent, and
a side's time is the sum of its two copies' times.  The check iterates the
map ``--check`` times from each preset's initial state on every copy and
compares every iterate by ``repr``.  A round then times each preset on each
copy, best of ``--best`` repeats of ``--calls`` calls on the state reached
by the check, in load order or its reverse, alternating from round to
round.  Each round prints its ratio (the change's summed best times over
the parent's) and the per-preset ratios; the last line gives the median
ratio and the rounds the change won.  Uses only the standard library and
the package.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("janus_baseline", "usdc_like", "dai_like", "ust_like", "flatcoin_like")


def load_package(src: Path, name: str):
    """Import ``src/janus_sim`` as the top-level package ``name``."""
    pkg = Path(src).resolve() / "janus_sim"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's map on each preset, with the state the check reached."""

    def __init__(self, src: Path, name: str):
        load_package(src, name)
        engine = sys.modules[f"{name}.sim_engine"]
        config_io = sys.modules[f"{name}.config_io"]
        core_state = sys.modules[f"{name}.core_state"]
        self.step_map = engine.step_map
        self.configs = {p: config_io.load_preset(p) for p in PRESETS}
        self.x0 = {p: core_state.to_list(*engine.initial_state(c)) for p, c in self.configs.items()}
        self.x = dict(self.x0)

    def iterate(self, preset: str, n: int) -> list[str]:
        """The reprs of ``n`` iterates of the map from the preset's initial
        state; keeps the last as the state the timing runs on."""
        step_map, config, x = self.step_map, self.configs[preset], self.x0[preset]
        seen = []
        for _ in range(n):
            x = step_map(x, config)
            seen.append(repr(x))
        self.x[preset] = x
        return seen

    def best(self, preset: str, calls: int, repeats: int) -> float:
        """Best time of ``repeats`` runs of ``calls`` map calls, in seconds."""
        step_map, config, x = self.step_map, self.configs[preset], self.x[preset]
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                step_map(x, config)
            best = min(best, time.perf_counter() - t0)
        return best


def ab_parser(description: str) -> argparse.ArgumentParser:
    """A parser that takes the two trees and ``--aa``."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("parent", nargs="?", type=Path, help="the parent's src directory")
    ap.add_argument("change", nargs="?", type=Path, default=ROOT / "src",
                    help="the change's src directory (default: this checkout's)")
    ap.add_argument("--aa", action="store_true", help="time one tree against itself")
    return ap


def parse_trees(ap: argparse.ArgumentParser, argv) -> tuple:
    """The parsed arguments and the parent's and the change's ``src``
    (one tree on both sides with ``--aa``).  Puts this checkout's ``src`` on
    ``sys.path`` and imports its presets, which the copies read."""
    args = ap.parse_args(argv)
    if args.aa:
        parent = change = args.parent or args.change
    elif args.parent is None:
        ap.error("give the parent's src directory, or --aa")
    else:
        parent, change = args.parent, args.change
    sys.path.insert(0, str(ROOT / "src"))
    import janus_sim.presets  # noqa: F401
    return args, parent, change


def load_copies(parent: Path, change: Path, make) -> list:
    """``make(src, name, side)`` for copies parent, change, change, parent."""
    sides = ("parent", "change", "change", "parent")
    return [make(change if s == "change" else parent, f"janus_ab_{i}", s) for i, s in enumerate(sides)]


def same_on_copies(copies: list, cases, value, differ) -> bool:
    """Whether ``value(copy, case)`` is equal on every copy for each case;
    prints ``differ(case)`` for the first case where it is not."""
    for case in cases:
        seen = [value(c, case) for c in copies]
        if any(s != seen[0] for s in seen):
            print(differ(case), file=sys.stderr)
            return False
    return True


def run_rounds(copies: list, n_rounds: int, time_round, detail) -> None:
    """``n_rounds`` rounds, garbage collector off, of ``time_round`` on the
    copies in load order or its reverse by turns; it returns each copy's
    times as a dict, and a side's are the sums of its two copies'.  Prints
    each round's ratio and ``detail(parent, change)``, then the median."""
    ratios, wins = [], 0
    gc.disable()
    try:
        for r in range(n_rounds):
            times = time_round(copies if r % 2 == 0 else copies[::-1])
            a = {k: times[copies[0]][k] + times[copies[3]][k] for k in times[copies[0]]}
            b = {k: times[copies[1]][k] + times[copies[2]][k] for k in a}
            ratio = sum(b.values()) / sum(a.values())
            ratios.append(ratio)
            wins += ratio < 1.0
            way = "load order" if r % 2 == 0 else "reversed"
            print(f"round {r + 1:2d} ({way}): ratio {ratio:.3f}  {detail(a, b)}")
    finally:
        gc.enable()
    print(f"median ratio {statistics.median(ratios):.3f} over {len(ratios)} rounds; "
          f"change faster in {wins} of {len(ratios)}")


def main(argv=None) -> int:
    ap = ab_parser(__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--calls", type=int, default=4000)
    ap.add_argument("--best", type=int, default=5)
    ap.add_argument("--check", type=int, default=300)
    args, parent, change = parse_trees(ap, argv)

    copies = load_copies(parent, change, lambda src, name, side: Side(src, name))
    if not same_on_copies(copies, PRESETS, lambda c, p: c.iterate(p, args.check),
                          lambda p: f"{p}: the maps differ within {args.check} iterations"):
        return 1
    print(f"parent {parent}\nchange {change}\n{args.check} iterates equal by repr on {len(PRESETS)} presets")

    def time_round(order):
        times = {c: {} for c in copies}
        for preset in PRESETS:
            for c in order:
                times[c][preset] = c.best(preset, args.calls, args.best)
        return times

    def detail(a, b):  # the parent's mean time a call, and each preset's ratio
        us = 1e6 * sum(a.values()) / (2 * args.calls * len(PRESETS))
        return f"parent {us:.2f} us/call  " + " ".join(f"{p}={b[p] / a[p]:.3f}" for p in PRESETS)

    run_rounds(copies, args.rounds, time_round, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
