"""EpisodeArtifact: a full serialized trajectory, one file per test case.

On disk an artifact is line-delimited JSON: a header record carrying the
schema version and case id, followed by one record per step and a final
outcome record.  Round trips are lossless.  ``write_csv`` projects the same
trajectory onto the per-episode CSV log that ``envforge run`` writes.

In memory each step is a row: a ``RecordLayout``, compiled once from one
step record's key structure, and the record's leaf values in the order its
line writes them.  A row becomes its line by filling the layout's template;
``EpisodeArtifact.steps`` rebuilds ``StepRecord`` objects for callers that
want the nested form.

An evaluate run also writes ``manifest.json``, naming its cases, so a later
stage reads that run's artifacts and no other file in the directory.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import count
from operator import itemgetter
from pathlib import Path

from ..params import Param, boolean, integer, list_of, mapping, optional, parse_params, string

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


def case_name(raw) -> str:
    """A case's name, which names its artifact file: a string without a path separator."""
    if any(sep in string(raw) for sep in ("/", "\\", "\0")):
        raise ValueError(f"name '{raw}' contains a path separator")
    return raw


def _schema_version(raw) -> int:
    """The schema version of a file this module can read: ``SCHEMA_VERSION``."""
    if integer(raw) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {raw} (this version reads {SCHEMA_VERSION})")
    return raw


def _case_names(raw) -> list[str]:
    """The case names of a manifest, each a ``case_name`` named once."""
    names = list_of(case_name)(raw)
    if len(set(names)) != len(names):
        raise ValueError(f"names a case more than once: {names}")
    return names


#: the keys of an artifact's header, outcome record and manifest
HEADER = (
    Param("record", string),
    Param("schema_version", _schema_version),
    Param("case_id", string),
    Param("seed", integer),
    Param("parameters", mapping),
)
OUTCOME = (
    Param("record", string),
    Param("final_outcome", mapping),
    Param("truncated", boolean),
    Param("error", optional(string), None),
)
MANIFEST_KEYS = (Param("schema_version", _schema_version), Param("cases", _case_names))


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


_STEP_KEYS = frozenset(["record", *(f.name for f in fields(StepRecord))])

# A shape is a record's key structure, hashable so that it keys a layout
# cache: a mapping is (dict, ((key, shape), ...)) in key order, a list
# (list, (shape, ...)), and a leaf a slot marker or a literal.  The slot
# markers are type objects, which no JSON value is.  An integer slot is told
# from a float slot so that a shape fixes every type ``_check_step`` checks.
_FLOAT = float  # written as repr writes it
_INTEGER = int  # written as repr writes it
_TEXT = str  # a string or null, held as its JSON encoding


def _json(value) -> str:
    """value as json.dumps writes it, escaped for a %-format template."""
    return json.dumps(value).replace("%", "%%")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten(node, values: list, text: bool = False):
    """node's shape, each number (and, where ``text``, each string or null)
    a slot marker whose value is appended to ``values``.  Other leaves stay
    as literals."""
    kind = type(node)
    if kind is dict:
        return (dict, tuple([(key, _flatten(node[key], values, text)) for key in sorted(node)]))
    if kind is float or kind is int:
        values.append(node)
        return kind
    if kind is list or kind is tuple:
        return (list, tuple([_flatten(item, values, text) for item in node]))
    if isinstance(node, float):
        values.append(float(node))  # a float subclass, np.float64 say, prints as a float
        return _FLOAT
    if _is_number(node):
        values.append(int(node))
        return _INTEGER
    if text and (node is None or kind is str):
        values.append(json.dumps(node))
        return _TEXT
    return node


def _template(shape) -> str:
    if type(shape) is tuple:
        kind, items = shape
        if kind is dict:
            return "{" + ", ".join(f"{_json(key)}: {_template(value)}" for key, value in items) + "}"
        return "[" + ", ".join(map(_template, items)) + "]"
    if shape is _FLOAT or shape is _INTEGER:
        return "%r"
    if shape is _TEXT:
        return "%s"
    return _json(shape)


def _indexed(shape, slots, numbers: list):
    """shape as a record with each slot replaced by its position, counted by
    ``slots``; the positions of number slots are also appended to ``numbers``."""
    if type(shape) is tuple:
        kind, items = shape
        if kind is dict:
            return {key: _indexed(value, slots, numbers) for key, value in items}
        return [_indexed(value, slots, numbers) for value in items]
    if shape is _FLOAT or shape is _INTEGER or shape is _TEXT:
        index = next(slots)
        if shape is not _TEXT:
            numbers.append(index)
        return index
    return None


def _rebuilt(shape, values):
    """The record that ``shape`` and the iterator ``values`` were flattened from."""
    if type(shape) is tuple:
        kind, items = shape
        if kind is dict:
            return {key: _rebuilt(value, values) for key, value in items}
        return [_rebuilt(value, values) for value in items]
    if shape is _FLOAT or shape is _INTEGER:
        return next(values)
    if shape is _TEXT:
        return _text_value(next(values))
    return shape


@lru_cache(maxsize=64)
def _text_value(encoded: str):
    """The string or None that a text slot holds, JSON-encoded."""
    return json.loads(encoded)


def _check_step(record) -> None:
    """Raise ValueError unless record has a step record's keys, and the
    sections that metrics and the CSV log read have their types."""
    if not isinstance(record, dict):
        raise ValueError("a record is not a JSON object")
    if record.get("record") != "step":
        raise ValueError(f"unexpected {record.get('record')!r} record before the outcome")
    if record.keys() != _STEP_KEYS:
        missing, extra = sorted(_STEP_KEYS - record.keys()), sorted(record.keys() - _STEP_KEYS)
        raise ValueError(f"step record: missing keys {missing}, unknown keys {extra}")
    if type(record["step"]) is not int or not _is_number(record["sim_time"]):
        raise ValueError("step record: 'step' must be an integer and 'sim_time' a number")
    for key in ("observations", "actions", "platform_states"):
        if not isinstance(record[key], dict):
            raise ValueError(f"step record: '{key}' is not a mapping")
    rewards, totals, codes = record["rewards"], record["reward_totals"], record["done_codes"]
    if not (
        isinstance(rewards, dict)
        and all(isinstance(c, dict) and all(map(_is_number, c.values())) for c in rewards.values())
    ):
        raise ValueError("step record: 'rewards' is not a mapping of agent to {component: number}")
    if not (isinstance(totals, dict) and totals.keys() == rewards.keys() and all(map(_is_number, totals.values()))):
        raise ValueError("step record: 'reward_totals' is not a number for each agent of 'rewards'")
    if not (isinstance(codes, dict) and all(c is None or isinstance(c, str) for c in codes.values())):
        raise ValueError("step record: 'done_codes' is not a mapping of agent to a string or null")


class RecordLayout:
    """The compiled form of one step record's key structure.

    ``fmt`` is the record's line as ``json.dumps(record, sort_keys=True)``
    writes it, with every number replaced by ``%r`` and every done code by
    ``%s``; keys, units and other literals are encoded once, here.  A row's
    values fill those slots in order: numbers as ``int`` or ``float`` (never a
    numpy scalar, whose repr differs), done codes already JSON-encoded.  The
    reader fields give slot positions in the record's own key order, so
    metrics and the CSV log read a row without rebuilding its record.
    """

    def __init__(self, shape: tuple, record: dict):
        """``shape`` is record's as ``_flatten`` gives it; ``record`` orders the readers."""
        self.shape = shape
        self.fmt = _template(shape)
        numbers: list[int] = []
        index = _indexed(shape, count(), numbers)
        self._numbers = itemgetter(*numbers)  # a step record has at least its step and sim_time
        self.step = index["step"]
        #: (agent, slot of its reward total, ((component, slot), ...)) per agent
        self.rewards = tuple(
            (agent, index["reward_totals"][agent], tuple((c, index["rewards"][agent][c]) for c in components))
            for agent, components in record["rewards"].items()
        )
        #: (agent, slot of its done code) per agent
        self.done_codes = tuple((agent, index["done_codes"][agent]) for agent in record["done_codes"])

    @classmethod
    def of(cls, record: dict, layouts: dict | None = None) -> tuple[RecordLayout, tuple]:
        """The row of a step record: its layout and values.

        ``layouts`` caches layouts by shape across calls.  Raises ValueError
        for a record that is not a step record.  The checks depend on the
        shape alone, so a record is checked when its shape's layout is
        compiled.
        """
        if not isinstance(record, dict):
            _check_step(record)
        values: list = []
        items = [(key, _flatten(record[key], values, key == "done_codes")) for key in sorted(record)]
        shape = (dict, tuple(items))
        layout = layouts.get(shape) if layouts is not None else None
        if layout is None:
            _check_step(record)
            layout = cls(shape, record)
            if layouts is not None:
                layouts[shape] = layout
        return layout, tuple(values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordLayout):
            return NotImplemented
        return self.fmt == other.fmt

    def __hash__(self) -> int:
        return hash(self.fmt)

    def record(self, values: tuple) -> dict:
        return _rebuilt(self.shape, iter(values))

    def line(self, values: tuple) -> str:
        """A row's line, as ``json.dumps(record, sort_keys=True)`` writes it.

        A row holding NaN or an infinity, which ``json`` writes as ``NaN``,
        ``Infinity`` and ``-Infinity`` where ``%r`` would not, is written by
        ``json`` itself.  Such a row is one whose numbers do not sum to a
        finite float; so is a finite row whose sum overflows, which ``json``
        writes correctly too.
        """
        try:
            finite = math.isfinite(sum(self._numbers(values)))
        except OverflowError:  # an int too large for a float
            finite = False
        if finite:
            return self.fmt % values
        return json.dumps(self.record(values), sort_keys=True)


Row = tuple[RecordLayout, tuple]


def _parsed(number: int, line: str, source: str):
    """The JSON object on a line; raises ``ArtifactError`` naming the line otherwise."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{source}:{number}: a record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ArtifactError(f"{source}:{number}: a record is not a JSON object")
    return record


def _settings(table: tuple[Param, ...], record: dict, where: str) -> dict:
    """``record`` read with ``table``; raises ``ArtifactError`` at ``where``
    (its file, and line, and what it is) naming the first error."""
    settings, errors = parse_params(table, record, "")
    if errors:
        path, _, message = errors[0]
        raise ArtifactError(f"{where}: {path}: {message}")
    return settings


@dataclass
class EpisodeArtifact:
    case_id: str
    seed: int
    parameters: dict  # epp name -> {value: float, unit: str}
    rows: list[Row] = field(default_factory=list)  # one per step
    final_outcome: dict = field(default_factory=dict)  # agent -> status code
    truncated: bool = False
    error: str | None = None

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """Each step as a ``StepRecord``, rebuilt from the rows on every call."""
        steps = []
        for layout, values in self.rows:
            record = layout.record(values)
            del record["record"]
            steps.append(StepRecord(**record))
        return tuple(steps)

    def to_lines(self) -> list[str]:
        header = {
            "record": "header",
            "schema_version": SCHEMA_VERSION,
            "case_id": self.case_id,
            "seed": self.seed,
            "parameters": self.parameters,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines += [layout.line(values) for layout, values in self.rows]
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
        """Parse an artifact's lines; a malformed one raises ``ArtifactError``
        naming ``source`` and the line.

        Each step line is parsed and compiled by ``RecordLayout.of``; lines of
        one shape share a layout.
        """
        numbered = [(number, line) for number, line in enumerate(lines, 1) if line.strip()]
        header = _parsed(*numbered[0], source) if numbered else {}
        if header.get("record") != "header":
            raise ArtifactError(f"{source}: artifact does not start with a header record")
        outcome = _parsed(*numbered[-1], source) if len(numbered) > 1 else {}
        if outcome.get("record") != "outcome":
            raise TruncatedArtifact(source)
        header = _settings(HEADER, header, f"{source}:{numbered[0][0]}: header record")
        outcome = _settings(OUTCOME, outcome, f"{source}:{numbered[-1][0]}: outcome record")
        artifact = cls(
            case_id=header["case_id"],
            seed=header["seed"],
            parameters=header["parameters"],
            final_outcome=outcome["final_outcome"],
            truncated=outcome["truncated"],
            error=outcome["error"],
        )
        layouts: dict[tuple, RecordLayout] = {}
        for number, line in numbered[1:-1]:
            record = _parsed(number, line, source)
            try:
                artifact.rows.append(RecordLayout.of(record, layouts))
            except ValueError as exc:
                raise ArtifactError(f"{source}:{number}: {exc}") from exc
        return artifact

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, "\n".join(self.to_lines()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeArtifact":
        return cls.from_lines(Path(path).read_text().splitlines(), source=str(path))

    def write_csv(self, path: str | Path) -> Path:
        """The per-episode log: one row per step with reward components and
        totals, done codes ("" while running) and the sampled parameters.

        The columns are "step", then each layout's columns followed by the
        parameters, in order of first use; a cell a step's layout lacks is
        "" and a parameter's value is the same on every row.
        """
        params = {f"param.{key}": p["value"] for key, p in self.parameters.items()}
        step_columns: dict[int, list[tuple[str, int, bool]]] = {}  # by id() of the layout
        for layout, _ in self.rows:
            if id(layout) not in step_columns:
                step_columns[id(layout)] = _csv_columns(layout)
        columns = list(dict.fromkeys([
            "step", *(name for plan in step_columns.values() for name in [*(c for c, _, _ in plan), *params])
        ]))
        plans = {key: _csv_plan(plan, columns, params) for key, plan in step_columns.items()}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(_csv_rows(self.rows, plans))
        return Path(path)


def _csv_columns(layout: RecordLayout) -> list[tuple[str, int, bool]]:
    """(column, slot, is a done code) of each of the layout's step columns."""
    columns = [("step", layout.step, False)]
    for agent, total, components in layout.rewards:
        columns += [(f"{agent}.reward.{component}", slot, False) for component, slot in components]
        columns.append((f"{agent}.reward_total", total, False))
    columns += [(f"{agent}.done_code", slot, True) for agent, slot in layout.done_codes]
    return columns


def _csv_rows(rows: list[Row], plans: dict):
    """Each row's cells, filled by its layout's plan from ``_csv_plan``."""
    for layout, values in rows:
        slots, codes, constants = plans[id(layout)]
        values += constants
        cells = [values[i] for i in slots]
        for j, i in codes:
            cells[j] = _text_value(values[i]) or ""
        yield cells


def _csv_plan(
    plan: list[tuple[str, int, bool]], columns: list[str], params: dict
) -> tuple[list[int], list[tuple[int, int]], tuple]:
    """How a row of the layout whose step columns are ``plan`` fills
    ``columns``: the index of each cell in the row's values followed by
    ``constants`` (the parameter values, then ""), a constant's counted from
    the end; and (column index, slot) of each done code.  A parameter wins
    over a step column of the same name, as the later key of a merged
    mapping does.  A float parameter is formatted once, as the csv writer
    formats a float: by its repr."""
    constants = (*(repr(v) if type(v) is float else v for v in params.values()), "")
    source = {column: (slot, code) for column, slot, code in plan}
    source.update((column, (k - len(constants), False)) for k, column in enumerate(params))
    cells = [source.get(column, (-1, False)) for column in columns]
    return [i for i, _ in cells], [(j, i) for j, (i, code) in enumerate(cells) if code], constants


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
        document = mapping(json.loads(manifest.read_text()))
    except (ValueError, TypeError) as exc:
        raise ArtifactError(f"{manifest}: not a run manifest: {exc!r}") from exc
    cases = _settings(MANIFEST_KEYS, document, str(manifest))["cases"]
    paths = [directory / artifact_file(case) for case in cases]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        raise MissingArtifact(manifest, missing)
    return [EpisodeArtifact.load(p) for p in sorted(paths)]
