"""Evaluation pipeline: evaluate -> generate metrics -> visualize.

Each stage writes plain files (JSONL artifacts and manifest.json,
metrics.json, HTML reports), so stages can run as separate invocations.
``run_pipeline`` runs them in one pass over the artifacts in memory, with
byte-identical results.
"""

from __future__ import annotations

from pathlib import Path

from .artifact import (
    MANIFEST,
    SCHEMA_VERSION,
    ArtifactError,
    EpisodeArtifact,
    MissingArtifact,
    RecordLayout,
    StepShape,
    artifact_file,
    load_artifacts,
)
from .evaluate import (
    EvaluationError,
    InvalidCase,
    InvalidCaseParameter,
    TestCase,
    UnknownCaseParameter,
    evaluate,
    parse_condition_set,
    rollout,
)
from .metrics import (
    METRIC_REGISTRY,
    METRICS_FILE,
    InvalidMetricEntry,
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
    InvalidVizEntry,
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
    workers: int = 1,
) -> dict[str, MetricValue]:
    """All three stages in series over one output directory.

    Produces exactly the files the staged commands would: artifact JSONL per
    case, the manifest, metrics.json, and any configured HTML reports.
    Metrics come from the artifacts in memory, taken in file-name order as
    ``load_artifacts`` reads them.
    """
    out_dir = Path(out_dir)
    artifacts = evaluate(config, cases, out_dir, workers=workers)
    artifacts.sort(key=lambda artifact: artifact_file(artifact.case_id))
    metrics = generate_metrics(artifacts, metric_specs)
    path = write_metrics(metrics, out_dir / METRICS_FILE)
    # Visualize from the stored file so staged runs render identically.
    metrics = read_metrics(path)
    visualize(metrics, viz_specs, out_dir)
    return metrics


__all__ = [
    "MANIFEST",
    "SCHEMA_VERSION",
    "ArtifactError",
    "EpisodeArtifact",
    "MissingArtifact",
    "RecordLayout",
    "StepShape",
    "artifact_file",
    "load_artifacts",
    "EvaluationError",
    "InvalidCase",
    "InvalidCaseParameter",
    "TestCase",
    "UnknownCaseParameter",
    "evaluate",
    "parse_condition_set",
    "rollout",
    "METRIC_REGISTRY",
    "METRICS_FILE",
    "InvalidMetricEntry",
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
    "InvalidVizEntry",
    "KindMismatch",
    "VizSpec",
    "parse_viz_config",
    "render_html",
    "render_table",
    "visualize",
    "run_pipeline",
]
