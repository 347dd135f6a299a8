"""Span tracing of envforge from outside the package.

The tracer replaces public functions and methods of envforge with wrappers
that record one span per call: name, start, end, parent span and the episode
or case it belongs to.  Spans are kept in flat in-memory arrays and folded
into per-name totals (count, inclusive time, self time) between blocks of
work, when no span is open.  A span's self time is its duration minus the
durations of the wrapped spans it directly contains.  The first spans of a
run are kept verbatim so they can be written out at the end.

Nothing under ``src/`` is changed: wrappers are installed on the classes and
module namespaces at run time and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

# Per-layer metrics: name -> (unit, end-to-end metric it should move,
# workloads it is mostly measured on).  "Per step" times are the layer's self
# time summed over the traced run and divided by the environment steps taken.
LAYER_METRICS = {
    "cli.import_ms": ("ms", "setup_s", "all"),
    "config.validate_ms": ("ms", "setup_s", "all"),
    "environment.build_ms": ("ms", "setup_s", "all"),
    "environment.step_us_p50": ("us", "steps_per_s", "docking_steps, cartpole_run"),
    "environment.step_us_p99": ("us", "steps_per_s", "docking_steps, cartpole_run"),
    "environment.step_samples": ("count", "steps_per_s", "docking_steps, cartpole_run"),
    "environment.step_self_us": ("us/step", "steps_per_s", "docking_steps, cartpole_run"),
    "environment.reset_us": ("us", "steps_per_s", "cartpole_run"),
    "environment.write_logs_ms": ("ms", "steps_per_s, output_bytes_per_step", "cartpole_run"),
    "functors.space_us": ("us/step", "steps_per_s", "docking_steps"),
    "functors.space_calls_per_step": ("calls/step", "steps_per_s", "docking_steps"),
    "functors.observe_self_us": ("us/step", "steps_per_s", "docking_steps"),
    "functors.dones_us": ("us/step", "steps_per_s", "cartpole_run"),
    "functors.rewards_us": ("us/step", "steps_per_s", "docking_steps, cartpole_run"),
    "functors.apply_action_self_us": ("us/step", "steps_per_s", "docking_steps, cartpole_run"),
    "parts.measure_us": ("us/step", "steps_per_s", "docking_steps"),
    "parts.measure_calls_per_step": ("calls/step", "steps_per_s", "docking_steps"),
    "parts.measure_useful_ratio": ("ratio", "steps_per_s", "docking_steps"),
    "parts.apply_us": ("us/step", "steps_per_s", "docking_steps"),
    "simulators.step_self_us": ("us/step", "steps_per_s", "docking_steps"),
    "simulators.reset_us": ("us", "steps_per_s", "docking_steps"),
    "epp.sample_us": ("us", "steps_per_s", "cartpole_run"),
    "policies.compute_action_us": ("us/step", "steps_per_s", "cartpole_run, docking_steps"),
    "agents.action_space_self_us": ("us/step", "steps_per_s", "cartpole_run, docking_steps"),
    "units.quantities_per_step": ("count/step", "steps_per_s", "docking_steps, cartpole_run"),
    "evaluate.rollout_self_us": ("us/step", "steps_per_s", "docking_pipeline"),
    "evaluate.evaluate_s": ("s", "steps_per_s", "docking_pipeline, docking_pipeline_w2"),
    "artifact.to_lines_us": ("us/step", "steps_per_s, peak_rss_mb", "docking_pipeline"),
    "artifact.load_us": ("us/step", "steps_per_s, peak_rss_mb", "docking_pipeline, docking_pipeline_w2"),
    "metrics.generate_ms": ("ms", "steps_per_s", "docking_pipeline, docking_pipeline_w2"),
    "visualize.render_ms": ("ms", "steps_per_s", "docking_pipeline, docking_pipeline_w2"),
    "output_bytes_per_step": ("B/step", "output_bytes_per_step", "cartpole_run, docking_pipeline(_w2)"),
    "trace.steps_per_s": ("steps/s", "tracing overhead", "all"),
    "trace.untraced_steps_per_s": ("steps/s", "tracing overhead", "all"),
    "trace.overhead": ("ratio", "tracing overhead", "all"),
}

# Raw spans kept for the span dump written at the end of a traced run.
DUMP_LIMIT = 20_000


class _Stats:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans around wrapped envforge calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._unit = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Ordinal of the current episode (one per case), stamped on new spans;
        # it advances at Environment.reset, so a case's set-up carries the
        # ordinal of the case before it.
        self.unit = -1
        self.stats: dict[str, _Stats] = {}
        self.step_ns = array("q")  # inclusive duration of every Environment.step
        self.counts = {"units.quantity": 0}
        self.measure_calls = 0
        self.measure_useful = 0
        self._measured: set[int] = set()  # sensors read since the state last changed
        self.dump: list[tuple] = []

    # Wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stats()
        return self._name_ids[name]

    def _span(self, fn, name: str, before=None):
        nid = self._name_id(name)
        names, start, end, parent, unit = self._name, self._start, self._end, self._parent, self._unit
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            unit.append(tracer.unit)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, before=None) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        if attr in cls.__dict__:
            self._patch(cls, attr, self._span(cls.__dict__[attr], name, before))

    def wrap_function(self, fn, name: str) -> None:
        """Wrap a module-level function in every envforge namespace that binds it."""
        wrapper = self._span(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "envforge" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _new_episode(self, args) -> None:
        self.unit += 1

    def _state_changed(self, args) -> None:
        self._measured.clear()

    def _on_measure(self, args) -> None:
        self.measure_calls += 1
        sensor = id(args[0])
        if sensor not in self._measured:
            self._measured.add(sensor)
            self.measure_useful += 1

    def install(self) -> None:
        """Wrap the public calls of every envforge layer the benchmark reports."""
        from envforge import agents, environment, epp, parts, policies, units
        from envforge.evaluation import (
            EpisodeArtifact,
            evaluate,
            generate_metrics,
            load_artifacts,
            rollout,
            visualize,
        )
        from envforge.functors import base
        from envforge.functors.graph import FUNCTOR_REGISTRY
        from envforge.simulators import base as sim_base

        functor_classes = {base.Glue, base.Done, base.SharedDone, base.Reward}
        functor_classes.update(FUNCTOR_REGISTRY.values())
        for cls in functor_classes:
            self.wrap_method(cls, "observation_space", "functors.space")
            self.wrap_method(cls, "action_space", "functors.space")
            self.wrap_method(cls, "get_observation", "functors.observe")
            self.wrap_method(cls, "apply_action", "functors.apply_action")
            if issubclass(cls, base.Reward):
                self.wrap_method(cls, "evaluate", "functors.reward")
            else:
                self.wrap_method(cls, "evaluate", "functors.done")

        self.wrap_method(parts.Sensor, "measure", "parts.measure", self._on_measure)
        self.wrap_method(parts.Controller, "apply", "parts.apply")
        self.wrap_method(sim_base.Simulator, "step", "simulators.step", self._state_changed)
        self.wrap_method(sim_base.Simulator, "reset", "simulators.reset", self._state_changed)
        self.wrap_method(epp.EpisodeParameterProvider, "sample_episode", "epp.sample")
        self.wrap_method(environment.Environment, "__init__", "environment.build")
        self.wrap_method(environment.Environment, "reset", "environment.reset")
        self.wrap_method(environment.Environment, "step", "environment.step")
        self.wrap_method(environment.Environment, "write_episode_logs", "environment.write_logs")
        self.wrap_method(policies.Policy, "compute_action", "policies.compute_action")
        self.wrap_method(agents.Agent, "action_space", "agents.action_space")
        self.wrap_method(EpisodeArtifact, "to_lines", "artifact.to_lines")
        self.wrap_function(load_artifacts, "artifact.load")
        self.wrap_function(rollout, "evaluate.rollout")
        self.wrap_function(evaluate, "evaluate.evaluate")
        self.wrap_function(generate_metrics, "metrics.generate")
        self.wrap_function(visualize, "visualize.render")
        self._patch(units.Quantity, "__post_init__", self._counter(units.Quantity.__post_init__, "units.quantity"))
        # Pool workers forked from this process run unwrapped code: their
        # spans could not reach this process, so they should not pay for them.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # Aggregation -----------------------------------------------------------

    def fold(self) -> None:
        """Fold every recorded span into the per-name totals; no span may be open."""
        if self._stack:
            raise RuntimeError("fold() called with open spans")
        names, start, end, parent = self._name, self._start, self._end, self._parent
        n = len(start)
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        step_id = self._name_ids.get("environment.step", -1)
        stats = [self.stats[name] for name in self.names]
        for i in range(n):
            duration = end[i] - start[i]
            s = stats[names[i]]
            s.count += 1
            s.total_ns += duration
            s.self_ns += duration - child_ns[i]
            if names[i] == step_id:
                self.step_ns.append(duration)
        base = len(self.dump)
        for i in range(min(n, DUMP_LIMIT - base)):
            p = parent[i]
            self.dump.append((self.names[names[i]], start[i], end[i], p + base if p >= 0 else -1, self._unit[i]))
        for a in (names, start, end, parent, self._unit):
            del a[:]

    def write_dump(self, path: Path) -> None:
        """Write the kept raw spans as JSON lines.

        ``parent`` is the 0-based line of the parent span in the same file,
        or -1 for a root span; ``unit`` is the episode ordinal (see ``unit``).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.dump:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "unit": unit}) + "\n")

    def layer_metrics(self, recorded_steps: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer figures, plus the names of the ones this run could not measure.

        ``recorded_steps`` is the number of steps the workload recorded in the
        traced segment (artifact or CSV rows); artifact costs are divided by it.
        """
        steps = len(self.step_ns)
        out: dict[str, float] = {}
        missing: list[str] = []

        def stat(name):
            return self.stats.get(name) or _Stats()

        def per_step(metric, name, use_self=True, denominator=steps):
            s = stat(name)
            if s.count == 0 or denominator == 0:
                missing.append(metric)
                out[metric] = 0.0
            else:
                out[metric] = (s.self_ns if use_self else s.total_ns) / denominator / 1e3

        def per_call(metric, name, scale):
            s = stat(name)
            if s.count == 0:
                missing.append(metric)
                out[metric] = 0.0
            else:
                out[metric] = s.total_ns / s.count / scale

        def ratio(metric, numerator, denominator):
            if denominator == 0:
                missing.append(metric)
                out[metric] = 0.0
            else:
                out[metric] = numerator / denominator

        if steps:
            ordered = sorted(self.step_ns)
            out["environment.step_us_p50"] = ordered[(steps - 1) // 2] / 1e3
            out["environment.step_us_p99"] = ordered[min(steps - 1, int(steps * 0.99))] / 1e3
        else:
            missing += ["environment.step_us_p50", "environment.step_us_p99"]
            out["environment.step_us_p50"] = out["environment.step_us_p99"] = 0.0
        out["environment.step_samples"] = steps
        per_step("environment.step_self_us", "environment.step")
        per_call("environment.reset_us", "environment.reset", 1e3)
        per_call("environment.write_logs_ms", "environment.write_logs", 1e6)
        per_step("functors.space_us", "functors.space")
        ratio("functors.space_calls_per_step", stat("functors.space").count, steps)
        per_step("functors.observe_self_us", "functors.observe")
        per_step("functors.dones_us", "functors.done")
        per_step("functors.rewards_us", "functors.reward")
        per_step("functors.apply_action_self_us", "functors.apply_action")
        per_step("parts.measure_us", "parts.measure")
        ratio("parts.measure_calls_per_step", self.measure_calls, steps)
        ratio("parts.measure_useful_ratio", self.measure_useful, self.measure_calls)
        per_step("parts.apply_us", "parts.apply")
        per_step("simulators.step_self_us", "simulators.step")
        per_call("simulators.reset_us", "simulators.reset", 1e3)
        per_call("epp.sample_us", "epp.sample", 1e3)
        per_step("policies.compute_action_us", "policies.compute_action")
        per_step("agents.action_space_self_us", "agents.action_space")
        ratio("units.quantities_per_step", self.counts["units.quantity"], steps)
        per_step("evaluate.rollout_self_us", "evaluate.rollout")
        per_call("evaluate.evaluate_s", "evaluate.evaluate", 1e9)
        per_step("artifact.to_lines_us", "artifact.to_lines", denominator=recorded_steps)
        per_step("artifact.load_us", "artifact.load", use_self=False, denominator=recorded_steps)
        per_call("metrics.generate_ms", "metrics.generate", 1e6)
        per_call("visualize.render_ms", "visualize.render", 1e6)
        return out, missing
