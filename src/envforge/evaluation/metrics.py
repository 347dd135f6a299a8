"""Generate Metrics stage: composable metric functors over episode artifacts.

Metrics follow the same functor pattern as glues/rewards/dones: registered by
name, configured declaratively, and composable (a metric may consume other
metrics' outputs).  Each result is tagged terminal (non-container value) or
non_terminal (container), so non-Python visualizers can filter by kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..params import ConfigError, Param, identity, mapping, mapping_of, one_of, parse_entries, string, table
from .artifact import EpisodeArtifact, write_atomic

TERMINAL = "terminal"
NON_TERMINAL = "non_terminal"
#: the file in an output directory that the metrics stage writes and the visualize stage reads
METRICS_FILE = "metrics.json"


class MetricError(Exception):
    pass


class UnknownMetricInput(MetricError):
    def __init__(self, metric: str, input_name: str):
        super().__init__(f"metric '{metric}' consumes undefined metric '{input_name}'")


class MetricCycle(MetricError):
    def __init__(self, names: list[str]):
        super().__init__(f"metric dependency cycle: {' -> '.join(names)}")


class UnknownMetric(MetricError):
    def __init__(self, name: str, entry: str | None = None):
        prefix = f"metric '{entry}': " if entry is not None else ""
        super().__init__(f"{prefix}no metric registered under '{name}'")


class InvalidMetricEntry(MetricError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"metrics entry {index}: {reason}")


@dataclass(frozen=True)
class MetricValue:
    kind: str  # terminal | non_terminal
    value: object


MetricFn = Callable[[list[EpisodeArtifact], dict[str, MetricValue], dict], MetricValue]

METRIC_REGISTRY: dict[str, MetricFn] = {}


def register_metric(name: str, fn: MetricFn) -> None:
    METRIC_REGISTRY[name] = fn


def _is_win(artifact: EpisodeArtifact, agent: str | None) -> bool:
    outcomes = artifact.final_outcome
    if agent is not None:
        return outcomes.get(agent) == "WIN"
    return bool(outcomes) and all(code == "WIN" for code in outcomes.values())


def _success_count(artifacts, inputs, config):
    agent = config.get("agent")
    return MetricValue(TERMINAL, sum(1 for a in artifacts if _is_win(a, agent)))


def _success_rate(artifacts, inputs, config):
    total = len(artifacts)
    if "count" in inputs:
        count = inputs["count"].value
    else:
        count = sum(1 for a in artifacts if _is_win(a, config.get("agent")))
    return MetricValue(TERMINAL, count / total if total else 0.0)


def _episode_length(artifacts, inputs, config):
    return MetricValue(NON_TERMINAL, {a.case_id: len(a.rows) for a in artifacts})


def _total_reward(artifacts, inputs, config):
    out = {}
    for artifact in artifacts:
        totals: dict[str, float] = {}
        for layout, values in artifact.rows:
            for agent, total, _ in layout.rewards:
                totals[agent] = totals.get(agent, 0.0) + values[total]
        out[artifact.case_id] = totals
    return MetricValue(NON_TERMINAL, out)


def _reward_component_proportions(artifacts, inputs, config):
    totals: dict[str, float] = {}
    for artifact in artifacts:
        for layout, values in artifact.rows:
            for agent, _, components in layout.rewards:
                for component, slot in components:
                    key = f"{agent}.{component}"
                    totals[key] = totals.get(key, 0.0) + values[slot]
    grand = sum(totals.values())
    proportions = {k: (v / grand if grand else 0.0) for k, v in totals.items()}
    return MetricValue(NON_TERMINAL, proportions)


def _done_code_histogram(artifacts, inputs, config):
    histogram: dict[str, int] = {}
    for artifact in artifacts:
        for code in artifact.final_outcome.values():
            key = code or "NONE"
            histogram[key] = histogram.get(key, 0) + 1
    return MetricValue(NON_TERMINAL, histogram)


def _mean_of(artifacts, inputs, config):
    """Terminal mean over a non_terminal container metric (metric-over-metric)."""
    source = inputs["source"].value
    values = list(source.values()) if isinstance(source, dict) else list(source)
    flat: list[float] = []
    for v in values:
        if isinstance(v, dict):
            flat.extend(float(x) for x in v.values())
        else:
            flat.append(float(v))
    return MetricValue(TERMINAL, sum(flat) / len(flat) if flat else 0.0)


register_metric("success_count", _success_count)
register_metric("success_rate", _success_rate)
register_metric("episode_length", _episode_length)
register_metric("total_reward", _total_reward)
register_metric("reward_component_proportions", _reward_component_proportions)
register_metric("done_code_histogram", _done_code_histogram)
register_metric("mean_of", _mean_of)


@dataclass
class MetricSpec:
    name: str
    metric: str
    config: dict
    inputs: dict[str, str]  # role -> producing metric name


#: the keys of a metrics entry; ``metric`` defaults to the entry's ``name``
METRIC_ENTRY = (
    Param("name", string),
    Param("metric", string, None),
    Param("config", mapping, {}),
    Param("inputs", mapping_of(string), {}),
)


def parse_metric_config(tree) -> list[MetricSpec]:
    """The metric specs of a config tree, each checked before any artifact is read."""
    entries = tree.get("metrics", []) if isinstance(tree, dict) else None
    if not isinstance(entries, list):
        raise MetricError("metric config: expected a mapping with a 'metrics' list")
    specs: list[MetricSpec] = []
    for i, settings in enumerate(parse_entries(entries, METRIC_ENTRY, InvalidMetricEntry)):
        name = settings["name"]
        if any(spec.name == name for spec in specs):
            raise InvalidMetricEntry(i, f"another metric is already named '{name}'")
        specs.append(
            MetricSpec(
                name=name,
                metric=name if settings["metric"] is None else settings["metric"],
                config=settings["config"],
                inputs=settings["inputs"],
            )
        )
    _computation_order(specs)
    return specs


def _computation_order(specs: list[MetricSpec]) -> list[MetricSpec]:
    """The specs with every producer before its consumers.

    Raises for an unregistered metric, an input no spec produces, or a cycle.
    """
    by_name = {spec.name: spec for spec in specs}
    order: dict[str, MetricSpec] = {}
    visiting: list[str] = []

    def visit(spec: MetricSpec) -> None:
        if spec.name in order:
            return
        if spec.name in visiting:
            raise MetricCycle(visiting + [spec.name])
        if spec.metric not in METRIC_REGISTRY:
            raise UnknownMetric(spec.metric, spec.name)
        visiting.append(spec.name)
        for producer in spec.inputs.values():
            if producer not in by_name:
                raise UnknownMetricInput(spec.name, producer)
            visit(by_name[producer])
        visiting.pop()
        order[spec.name] = spec

    for spec in specs:
        visit(by_name[spec.name])
    return list(order.values())


def generate_metrics(
    artifacts: list[EpisodeArtifact], specs: list[MetricSpec]
) -> dict[str, MetricValue]:
    """Evaluate metrics in dependency (topological) order."""
    computed: dict[str, MetricValue] = {}
    for spec in _computation_order(specs):
        inputs = {role: computed[producer] for role, producer in spec.inputs.items()}
        computed[spec.name] = METRIC_REGISTRY[spec.metric](artifacts, inputs, spec.config)
    return computed


#: the keys of a metric's entry in a metrics file, which is keyed by metric name
METRIC_RECORD = (Param("kind", one_of((TERMINAL, NON_TERMINAL))), Param("value", identity))


def write_metrics(metrics: dict[str, MetricValue], path: str | Path) -> Path:
    document = {
        name: {"kind": mv.kind, "value": mv.value} for name, mv in metrics.items()
    }
    return write_atomic(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_metrics(path: str | Path) -> dict[str, MetricValue]:
    """The metrics ``write_metrics`` wrote, each entry read with ``METRIC_RECORD``;
    raises ``MetricError`` naming the file, and the key of a malformed entry."""
    try:
        document = json.loads(Path(path).read_text())
        if not isinstance(document, dict):  # ``mapping`` would read null as no metrics
            raise TypeError(f"expected a mapping, got {type(document).__name__}")
        entries = mapping_of(table(METRIC_RECORD))(document)
    except ConfigError as exc:
        key, _, message = exc.errors[0]
        raise MetricError(f"{path}: {key}: {message}") from exc
    except (ValueError, TypeError) as exc:  # not JSON, or not a mapping
        raise MetricError(f"{path}: not a metrics file: {exc}") from exc
    return {name: MetricValue(entry["kind"], entry["value"]) for name, entry in entries.items()}
