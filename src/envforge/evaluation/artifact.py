"""EpisodeArtifact: a full serialized trajectory, one file per test case.

On disk an artifact is line-delimited JSON: a header record carrying the
schema version and case id, followed by one record per step and a final
outcome record.  Round trips are lossless.  ``write_csv`` projects the same
trajectory onto the per-episode CSV log that ``envforge run`` writes.

An evaluate run also writes ``manifest.json``, naming its cases, so a later
stage reads that run's artifacts and no other file in the directory.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1
MANIFEST = "manifest.json"


class ArtifactError(ValueError):
    """A malformed artifact; the message names its source file."""


class TruncatedArtifact(ArtifactError):
    def __init__(self, source: str):
        super().__init__(f"{source}: artifact ends without an outcome record (truncated)")


class MissingArtifact(ArtifactError):
    def __init__(self, manifest: Path, missing: list[str]):
        super().__init__(f"{manifest}: names artifacts that are missing: {', '.join(missing)}")


def artifact_file(case_id: str) -> str:
    """The file name of a case's artifact in an output directory."""
    return f"artifact_{case_id}.jsonl"


def write_atomic(path: str | Path, text: str) -> Path:
    """Write text to path via a temporary file in the same directory and os.replace."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


@dataclass
class StepRecord:
    step: int
    sim_time: float
    observations: dict  # agent -> {obs name: {values: [...], unit: str}}
    actions: dict  # agent -> {glue name: [...]}
    rewards: dict  # agent -> {component: float}
    reward_totals: dict  # agent -> float
    done_codes: dict  # agent -> str | None
    platform_states: dict  # platform -> {attr: float}


@dataclass
class EpisodeArtifact:
    case_id: str
    seed: int
    parameters: dict  # epp name -> {value: float, unit: str}
    steps: list[StepRecord] = field(default_factory=list)
    final_outcome: dict = field(default_factory=dict)  # agent -> status code
    truncated: bool = False
    error: str | None = None

    def to_lines(self) -> list[str]:
        header = {
            "record": "header",
            "schema_version": SCHEMA_VERSION,
            "case_id": self.case_id,
            "seed": self.seed,
            "parameters": self.parameters,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for step in self.steps:
            lines.append(json.dumps({"record": "step", **vars(step)}, sort_keys=True))
        lines.append(
            json.dumps(
                {
                    "record": "outcome",
                    "final_outcome": self.final_outcome,
                    "truncated": self.truncated,
                    "error": self.error,
                },
                sort_keys=True,
            )
        )
        return lines

    @classmethod
    def from_lines(cls, lines: list[str], source: str = "artifact") -> "EpisodeArtifact":
        try:
            records = [json.loads(line) for line in lines if line.strip()]
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{source}: a record is not valid JSON: {exc}") from exc
        if not records or records[0].get("record") != "header":
            raise ArtifactError(f"{source}: artifact does not start with a header record")
        if records[-1].get("record") != "outcome":
            raise TruncatedArtifact(source)
        header, outcome = records[0], records[-1]
        artifact = cls(
            case_id=header["case_id"],
            seed=header["seed"],
            parameters=header["parameters"],
            final_outcome=outcome["final_outcome"],
            truncated=outcome["truncated"],
            error=outcome.get("error"),
        )
        for record in records[1:-1]:
            kind = record.pop("record")
            if kind != "step":
                raise ArtifactError(f"{source}: unexpected '{kind}' record before the outcome")
            artifact.steps.append(StepRecord(**record))
        return artifact

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, "\n".join(self.to_lines()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeArtifact":
        return cls.from_lines(Path(path).read_text().splitlines(), source=str(path))

    def write_csv(self, path: str | Path) -> Path:
        """The per-episode log: one row per step with reward components and
        totals, done codes ("" while running) and the sampled parameters."""
        params = {f"param.{key}": p["value"] for key, p in self.parameters.items()}
        rows = []
        for step in self.steps:
            row: dict[str, object] = {"step": step.step}
            for agent, comps in step.rewards.items():
                row.update({f"{agent}.reward.{comp}": value for comp, value in comps.items()})
                row[f"{agent}.reward_total"] = step.reward_totals[agent]
            row.update({f"{agent}.done_code": code or "" for agent, code in step.done_codes.items()})
            rows.append({**row, **params})
        columns = list(dict.fromkeys(["step", *(key for row in rows for key in row)]))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        return Path(path)


def write_manifest(directory: str | Path, case_ids: list[str]) -> Path:
    """Name the artifacts of one evaluate run; written after the artifacts."""
    document = {"schema_version": SCHEMA_VERSION, "cases": case_ids}
    return write_atomic(Path(directory) / MANIFEST, json.dumps(document, indent=2) + "\n")


def load_artifacts(directory: str | Path) -> list[EpisodeArtifact]:
    """The artifacts the directory's manifest names, ordered by file name.

    A directory without a manifest, written before manifests existed, yields
    every ``artifact_*.jsonl`` in it.
    """
    directory = Path(directory)
    manifest = directory / MANIFEST
    if not manifest.is_file():
        return [EpisodeArtifact.load(p) for p in sorted(directory.glob("artifact_*.jsonl"))]
    try:
        cases = json.loads(manifest.read_text())["cases"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(f"{manifest}: not a run manifest: {exc!r}") from exc
    if not isinstance(cases, list):
        raise ArtifactError(f"{manifest}: 'cases' is not a list of case names")
    paths = [directory / artifact_file(case) for case in cases]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        raise MissingArtifact(manifest, missing)
    return [EpisodeArtifact.load(p) for p in sorted(paths)]
