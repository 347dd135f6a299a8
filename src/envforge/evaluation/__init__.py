"""Evaluation pipeline: evaluate -> generate metrics -> visualize.

Each stage reads and writes plain files (JSONL artifacts, metrics.json, HTML
reports), so stages can run in one process or as separate invocations with
byte-identical results.
"""

from __future__ import annotations

from pathlib import Path

from .artifact import SCHEMA_VERSION, EpisodeArtifact, StepRecord, load_artifacts
from .evaluate import (
    EvaluationError,
    InvalidCaseParameter,
    TestCase,
    UnknownCaseParameter,
    evaluate,
    parse_condition_set,
    rollout,
)
from .metrics import (
    METRIC_REGISTRY,
    MetricCycle,
    MetricError,
    MetricSpec,
    MetricValue,
    UnknownMetric,
    UnknownMetricInput,
    generate_metrics,
    parse_metric_config,
    read_metrics,
    register_metric,
    write_metrics,
)
from .visualize import (
    KindMismatch,
    VizSpec,
    parse_viz_config,
    render_html,
    render_table,
    visualize,
)


def run_pipeline(
    config,
    cases: list[TestCase],
    metric_specs: list[MetricSpec],
    viz_specs: list[VizSpec],
    out_dir: str | Path,
    policy_override: tuple[str, dict] | None = None,
    workers: int = 1,
) -> dict[str, MetricValue]:
    """All three stages in series over one output directory.

    Produces exactly the files the staged commands would: artifact JSONL per
    case, metrics.json, and any configured HTML reports.
    """
    out_dir = Path(out_dir)
    evaluate(config, cases, out_dir, policy_override=policy_override, workers=workers)
    metrics = generate_metrics(load_artifacts(out_dir), metric_specs)
    path = write_metrics(metrics, out_dir / "metrics.json")
    # Visualize from the stored file so staged runs render identically.
    metrics = read_metrics(path)
    visualize(metrics, viz_specs, out_dir)
    return metrics


__all__ = [
    "SCHEMA_VERSION",
    "EpisodeArtifact",
    "StepRecord",
    "load_artifacts",
    "EvaluationError",
    "InvalidCaseParameter",
    "TestCase",
    "UnknownCaseParameter",
    "evaluate",
    "parse_condition_set",
    "rollout",
    "METRIC_REGISTRY",
    "MetricCycle",
    "MetricError",
    "MetricSpec",
    "MetricValue",
    "UnknownMetric",
    "UnknownMetricInput",
    "generate_metrics",
    "parse_metric_config",
    "read_metrics",
    "register_metric",
    "write_metrics",
    "KindMismatch",
    "VizSpec",
    "parse_viz_config",
    "render_html",
    "render_table",
    "visualize",
    "run_pipeline",
]
