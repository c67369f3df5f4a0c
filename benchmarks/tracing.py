"""Spans around calls into janus_sim's modules, recorded from outside them.

``Tracer.patched()`` swaps each traced public function for a wrapper, in the
module whose global the caller looks up, and restores the originals on exit.
A span's self time is its duration minus the durations of the traced spans
it encloses.  Spans are aggregated in memory per name: calls, total seconds,
self seconds.  Spawned pool workers import fresh copies of the modules, so
work done inside them is not traced; only pool start-up is.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _worker_ready(queue):
    """Pool initializer: report when a worker can take tasks.  The import is
    the one the worker's first task would otherwise make."""
    import janus_sim.sim_engine  # noqa: F401

    queue.put(time.monotonic())


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self.label = ""  # the reference key of the CLI call in progress
        self._child_time = []
        self._pools = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def total(self, name: str) -> float:
        return self.spans[name][1]

    def self_time(self, name: str) -> float:
        return self.spans[name][2]

    def wrap(self, name: str, fn, observe=None):
        stack = self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                agg = self.spans[name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers: counts taken where the work happens -----------------------

    def _path(self, args, trace):
        config = args[0]
        self.counts["path_steps"] += len(trace)
        self.counts["truncated"] += len(trace) < config.horizon

    def _fixed_point(self, args, report):
        self.counts[f"iterations.{self.label}"] = report.iterations

    def _write(self, args, result):
        self.counts["write_bytes"] += len(args[1].encode())

    def _pool_factory(self, ctx, original):
        def pool(processes=None, initializer=None, initargs=(), maxtasksperchild=None):
            if initializer is not None:
                raise RuntimeError("traced pools cannot take an initializer")
            queue = ctx.SimpleQueue()
            start = time.monotonic()
            p = original(processes, _worker_ready, (queue,), maxtasksperchild)
            self._pools.append((start, queue))
            return p

        return pool

    def _ensemble(self, args, result):
        # The ensemble's pool has been terminated by now.  Start-up ends when
        # the first worker is ready: a worker that got no task before the
        # pool was terminated may never have reported.
        for start, queue in self._pools:
            ready = []
            while not queue.empty():
                ready.append(queue.get())
            queue.close()
            self.counts["pool_starts"] += 1
            self.counts["pool_startup_s"] += min(ready) - start
        self._pools.clear()

    @contextmanager
    def patched(self):
        from janus_sim import cli, sim_engine

        def both(attr, name, observe=None):
            wrapped = self.wrap(name, getattr(sim_engine, attr), observe)
            return [(sim_engine, attr, wrapped), (cli, attr, wrapped)]

        targets = [
            (sim_engine, "shock_block", self.wrap("rng.shock_block", sim_engine.shock_block)),
            *both("simulate_path", "sim_engine.simulate_path", self._path),
            *both("path_summary", "sim_engine.path_summary"),
            *both("monte_carlo", "sim_engine.monte_carlo", self._ensemble),
            (cli, "frontier_sweep", self.wrap("sim_engine.frontier_sweep", cli.frontier_sweep)),
            (cli, "step_map", self.wrap("controller.step_map", cli.step_map)),
            (cli, "find_fixed_point",
             self.wrap("controller.find_fixed_point", cli.find_fixed_point, self._fixed_point)),
            (cli, "jacobian_fd", self.wrap("controller.jacobian_fd", cli.jacobian_fd)),
            (cli, "spectral_radius", self.wrap("controller.spectral_radius", cli.spectral_radius)),
            (cli, "to_vector", self.wrap("core_state.to_vector", cli.to_vector)),
            (cli, "from_vector", self.wrap("core_state.from_vector", cli.from_vector)),
            (cli, "trilemma_point", self.wrap("metrics.trilemma_point", cli.trilemma_point)),
            (cli, "ponzi_report", self.wrap("metrics.ponzi_report", cli.ponzi_report)),
            (cli, "decentralization", self.wrap("metrics.decentralization", cli.decentralization)),
            (cli, "load_config", self.wrap("config_io.load_config", cli.load_config)),
            (cli, "config_hash", self.wrap("config_io.config_hash", cli.config_hash)),
            (cli, "_atomic_write", self.wrap("cli.write", cli._atomic_write, self._write)),
        ]
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        ctx = multiprocessing.get_context("spawn")  # the context monte_carlo uses
        for mod, attr, wrapped in targets:
            setattr(mod, attr, wrapped)
        ctx.Pool = self._pool_factory(ctx, type(ctx).Pool.__get__(ctx))
        try:
            yield self
        finally:
            del ctx.Pool
            for mod, attr, original in originals:
                setattr(mod, attr, original)


def layer_metrics(tr: Tracer, workload: str) -> dict:
    """Per-layer metrics of one traced pass, for the layers the workload owns:
    name -> (value, unit)."""
    if workload == "mc_baseline":
        steps = tr.counts["path_steps"]
        ensembles = tr.calls("sim_engine.monte_carlo")
        report = sum(
            tr.total(f"metrics.{f}") for f in ("trilemma_point", "ponzi_report", "decentralization")
        )
        return {
            "rng.shock_block.calls": (tr.calls("rng.shock_block"), "count"),
            "rng.shock_block.ms": (1e3 * tr.total("rng.shock_block") / tr.calls("rng.shock_block"), "ms"),
            "sim_engine.step.us_per_path_step": (1e6 * tr.self_time("sim_engine.simulate_path") / steps, "us"),
            "sim_engine.step.path_steps": (int(steps), "count"),
            "sim_engine.simulate_path.truncated": (int(tr.counts["truncated"]), "count"),
            "sim_engine.path_summary.us_per_path": (
                1e6 * tr.total("sim_engine.path_summary") / tr.calls("sim_engine.path_summary"), "us"),
            "sim_engine.monte_carlo.self_ms": (1e3 * tr.self_time("sim_engine.monte_carlo") / ensembles, "ms"),
            "metrics.report.us": (1e6 * report / ensembles, "us"),
            "config_io.load_config.ms": (
                1e3 * tr.total("config_io.load_config") / tr.calls("config_io.load_config"), "ms"),
            "config_io.config_hash.ms": (
                1e3 * tr.total("config_io.config_hash") / tr.calls("config_io.config_hash"), "ms"),
            "cli.write.ms": (1e3 * tr.total("cli.write"), "ms"),
            "cli.write.bytes": (int(tr.counts["write_bytes"]), "bytes"),
        }
    if workload == "frontier_pool":
        return {
            "sim_engine.pool.starts": (int(tr.counts["pool_starts"]), "count"),
            "sim_engine.pool.startup_s": (tr.counts["pool_startup_s"], "s"),
            "sim_engine.frontier_sweep.self_ms": (1e3 * tr.self_time("sim_engine.frontier_sweep"), "ms"),
        }
    # equilibrium_presets
    evaluations = tr.calls("controller.step_map")
    vector = tr.total("core_state.to_vector") + tr.total("core_state.from_vector")
    out = {
        "controller.step_map.calls": (evaluations, "count"),
        "controller.step_map.us_per_call": (1e6 * tr.total("controller.step_map") / evaluations, "us"),
    }
    out.update(
        (f"controller.find_fixed_point.{k}", (int(v), "count"))
        for k, v in tr.counts.items() if k.startswith("iterations.")
    )
    out["controller.jacobian_fd.ms"] = (1e3 * tr.total("controller.jacobian_fd"), "ms")
    out["controller.spectral_radius.ms"] = (1e3 * tr.total("controller.spectral_radius"), "ms")
    out["core_state.vector.us_per_call"] = (1e6 * vector / evaluations, "us")
    return out
