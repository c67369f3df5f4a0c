"""A/B timing of an ensemble, ``sim_engine.monte_carlo`` with one worker, in
one process.

Loads two source trees of the package under two module names, checks that
their ensembles agree bit for bit, then times them in alternation, with the
loader, copies, check and rounds of ``ab_step_map.py``::

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

The check runs ``--check-paths`` paths of each preset, and ``--paths``
paths of ``--preset``, on every copy and compares the ``EnsembleSummary``
reprs.  A round times ``--preset`` on each copy, best of ``--best``
ensembles of ``--paths`` paths.  Uses only the standard library and the
package.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from ab_step_map import PRESETS, ab_parser, load_copies, load_package, parse_trees, run_rounds, same_on_copies


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
    ap = ab_parser(__doc__.split("\n\n")[0])
    ap.add_argument("--set", type=_constant, action="append", default=[], metavar="NAME=VALUE",
                    help="set an int constant of sim_engine on the change side")
    ap.add_argument("--set-parent", type=_constant, action="append", default=[], metavar="NAME=VALUE",
                    help="set an int constant of sim_engine on the parent side")
    ap.add_argument("--preset", choices=PRESETS, default="janus_baseline")
    ap.add_argument("--paths", type=int, default=100)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--best", type=int, default=3)
    ap.add_argument("--check-paths", type=int, default=40)
    args, parent, change = parse_trees(ap, argv)

    constants = {"parent": dict(args.set_parent), "change": dict(args.set)}
    copies = load_copies(parent, change, lambda src, name, side: Side(src, name, constants[side]))
    checks = [(p, args.check_paths) for p in PRESETS] + [(args.preset, args.paths)]
    if not same_on_copies(copies, checks, lambda c, case: c.summary(*case),
                          lambda case: f"{case[0]}: the ensembles of {case[1]} paths differ"):
        return 1
    settings = {side: " ".join(f"{k}={v}" for k, v in c.items()) for side, c in constants.items()}
    print(f"parent {parent} {settings['parent']}\nchange {change} {settings['change']}\n"
          f"ensembles equal by repr on {len(PRESETS)} presets at {args.check_paths} paths "
          f"and on {args.preset} at {args.paths}")

    p = args.preset
    run_rounds(copies, args.rounds, lambda order: {c: {p: c.best(p, args.paths, args.best)} for c in order},
               lambda a, b: f"parent {a[p] / 2:.4f} s  change {b[p] / 2:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
