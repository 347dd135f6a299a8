"""Visualize stage: a stdout metrics table and self-contained HTML plots.

HTML output embeds inline styling and SVG drawing only -- no scripts, no
network resources -- so reports stay portable and inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from ..params import Param, list_of, one_of, optional, parse_entries, string
from .artifact import MANIFEST, artifact_file, case_name
from .metrics import METRICS_FILE, NON_TERMINAL, TERMINAL, MetricError, MetricValue, UnknownMetric


class KindMismatch(MetricError):
    def __init__(self, viz: str, metric: str, kind: str, expected: str):
        super().__init__(
            f"{viz} visualization cannot render metric '{metric}' of kind "
            f"'{kind}' (expects {expected})"
        )


class InvalidVizEntry(MetricError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"visualizations entry {index}: {reason}")


VIZ_TYPES = ("html", "table")


@dataclass
class VizSpec:
    type: str  # table | html
    metrics: list[str] | None = None  # None = all applicable
    file: str = "report.html"
    title: str = "Evaluation report"


def _report_file(raw) -> str:
    """A report's file name, which names a file in the output directory: a
    ``case_name`` other than '', '.' and '..'."""
    if case_name(raw) in ("", ".", ".."):
        raise ValueError(f"'{raw}' names no file in the output directory")
    return raw


#: the keys of a visualizations entry, which are ``VizSpec``'s fields;
#: ``metrics`` names the metrics to render, and null renders every applicable one
VIZ_ENTRY = (
    Param("type", one_of(VIZ_TYPES)),
    Param("metrics", optional(list_of(string)), None),
    Param("file", _report_file, "report.html"),
    Param("title", string, "Evaluation report"),
)


def parse_viz_config(tree) -> list[VizSpec]:
    """The visualization specs of a config tree, each checked before any
    rollout.  Only an HTML report takes ``file`` and ``title``, and each
    writes a file of its own: not one an earlier report writes, nor the
    manifest, metrics or an artifact of the run."""
    entries = tree.get("visualizations", []) if isinstance(tree, dict) else None
    if not isinstance(entries, list):
        raise MetricError("visualization config: expected a mapping with a 'visualizations' list")
    specs = [VizSpec(**settings) for settings in parse_entries(entries, VIZ_ENTRY, InvalidVizEntry)]
    reports: set[str] = set()
    for i, (entry, spec) in enumerate(zip(entries, specs)):
        if spec.type != "html":
            for key in ("file", "title"):
                if key in entry:
                    raise InvalidVizEntry(i, f"{key}: only an html entry takes '{key}'; a table writes no report")
            continue
        file = spec.file
        if file in (MANIFEST, METRICS_FILE) or fnmatchcase(file, artifact_file("*")):
            raise InvalidVizEntry(i, f"file: '{file}' is written by the run")
        if file in reports:
            raise InvalidVizEntry(i, f"file: '{file}' is written by an earlier report")
        reports.add(file)
    return specs


def _select(metrics: dict[str, MetricValue], names: list[str] | None, default_kind: str | None):
    if names is None:
        return {
            name: mv
            for name, mv in metrics.items()
            if default_kind is None or mv.kind == default_kind
        }
    selected = {}
    for name in names:
        if name not in metrics:
            raise UnknownMetric(name)
        selected[name] = metrics[name]
    return selected


def render_table(metrics: dict[str, MetricValue], spec: VizSpec) -> str:
    """Aligned name/value rows over the terminal metrics."""
    selected = _select(metrics, spec.metrics, TERMINAL)
    for name, mv in selected.items():
        if mv.kind != TERMINAL:
            raise KindMismatch("table", name, mv.kind, TERMINAL)
    if not selected:
        return "(no terminal metrics)"
    width = max(len(name) for name in selected)
    lines = [f"{'metric':<{width}}  value", f"{'-' * width}  -----"]
    for name, mv in selected.items():
        lines.append(f"{name:<{width}}  {mv.value}")
    return "\n".join(lines)


def _svg_bar_chart(title: str, data: dict[str, float]) -> str:
    if not data:
        return f"<p>{_escape(title)}: no data</p>"
    width, bar_h, gap, label_w = 640, 22, 6, 220
    peak = max(abs(v) for v in data.values()) or 1.0
    height = (bar_h + gap) * len(data) + gap
    rows = []
    for i, (label, value) in enumerate(data.items()):
        y = gap + i * (bar_h + gap)
        w = abs(value) / peak * (width - label_w - 90)
        rows.append(
            f'<text x="4" y="{y + bar_h - 6}" font-size="12">{_escape(label)}</text>'
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" height="{bar_h}" fill="#4878a8"/>'
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 6}" font-size="12">{value:g}</text>'
        )
    return (
        f'<h2>{_escape(title)}</h2>'
        f'<svg width="{width}" height="{height}" xmlns="http://www.w3.org/2000/svg">'
        + "".join(rows)
        + "</svg>"
    )


def _svg_line_chart(title: str, series: list[float]) -> str:
    if not series:
        return f"<p>{_escape(title)}: no data</p>"
    width, height, pad = 640, 240, 30
    lo, hi = min(series), max(series)
    span = (hi - lo) or 1.0
    n = max(len(series) - 1, 1)
    points = " ".join(
        f"{pad + i / n * (width - 2 * pad):.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(series)
    )
    return (
        f'<h2>{_escape(title)}</h2>'
        f'<svg width="{width}" height="{height}" xmlns="http://www.w3.org/2000/svg">'
        f'<polyline points="{points}" fill="none" stroke="#4878a8" stroke-width="2"/>'
        f'<text x="{pad}" y="{height - 8}" font-size="11">min {lo:g}</text>'
        f'<text x="{width - pad - 80}" y="{height - 8}" font-size="11">max {hi:g}</text>'
        "</svg>"
    )


def _escape(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _flatten(value) -> dict[str, float]:
    flat: dict[str, float] = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            if isinstance(sub, dict):
                for k2, v2 in sub.items():
                    flat[f"{key}.{k2}"] = float(v2)
            else:
                flat[str(key)] = float(sub)
    return flat


def render_html(metrics: dict[str, MetricValue], spec: VizSpec) -> str:
    """A single self-contained HTML document with inline SVG plots."""
    selected = _select(metrics, spec.metrics, None)
    sections = []
    terminal = {n: mv for n, mv in selected.items() if mv.kind == TERMINAL}
    if terminal:
        rows = "".join(
            f"<tr><td>{_escape(n)}</td><td>{mv.value}</td></tr>"
            for n, mv in terminal.items()
        )
        sections.append(
            "<h2>Summary</h2><table><tr><th>metric</th><th>value</th></tr>"
            + rows
            + "</table>"
        )
    for name, mv in selected.items():
        if mv.kind != NON_TERMINAL:
            continue
        if isinstance(mv.value, list):
            sections.append(_svg_line_chart(name, [float(v) for v in mv.value]))
        else:
            sections.append(_svg_bar_chart(name, _flatten(mv.value)))
    style = (
        "body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:4px 10px}"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_escape(spec.title)}</title><style>{style}</style></head>"
        f"<body><h1>{_escape(spec.title)}</h1>" + "".join(sections) + "</body></html>"
    )


def visualize(
    metrics: dict[str, MetricValue],
    specs: list[VizSpec],
    out_dir: str | Path = ".",
) -> list[Path]:
    """Run every configured visualization; returns paths of HTML files written."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    for spec in specs:
        if spec.type == "table":
            print(render_table(metrics, spec))
        elif spec.type == "html":
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / spec.file
            path.write_text(render_html(metrics, spec) + "\n")
            written.append(path)
        else:
            raise MetricError(f"unknown visualization type '{spec.type}'")
    return written
