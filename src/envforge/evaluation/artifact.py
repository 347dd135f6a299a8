"""EpisodeArtifact: a full serialized trajectory, one file per test case.

On disk an artifact is line-delimited JSON: a header record carrying the
schema version and case id, followed by one record per step and a final
outcome record.  Round trips are lossless.  ``write_csv`` projects the same
trajectory onto the per-episode CSV log that ``envforge run`` writes.

In memory each step is a row: a ``RecordLayout``, compiled once from the
step record's ``StepShape``, and the step's values in the order its line
writes them.  A row becomes its line by filling the layout's template.  The
recorder gathers a step's values in its shape's order; the loader reads each
line's shape and values in one pass, and the layout checks their types.

An evaluate run also writes ``manifest.json``, naming its cases, so a later
stage reads that run's artifacts and no other file in the directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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


class StepShape(NamedTuple):
    """The structure of a step record, which fixes its line but for the
    values: each mapping's keys in sorted order and each array's length.
    ``reward_totals`` has the agents of ``rewards``.  A section that is None
    is one a projection does not record (see ``csv_projection``)."""

    actions: tuple[tuple[str, tuple[str, ...]], ...] | None  # (agent, its glues that took a fragment)
    done_codes: tuple[str, ...]  # the agents with a done code
    observations: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] | None  # (agent, ((name, unit), ...))
    platform_states: tuple[tuple[str, tuple[str, ...]], ...] | None  # (platform, its state attributes)
    rewards: tuple[tuple[str, tuple[str, ...]], ...]  # (agent, its reward components)
    lengths: tuple[int, ...] = ()  # of each action fragment, then of each observation's values

    def csv_projection(self) -> StepShape:
        """The shape of what ``write_csv`` reads: the step, sim time, rewards
        and done codes.  Its line is a partial step record, which does not load."""
        return self._replace(actions=None, observations=None, platform_states=None, lengths=())


_STEP_KEYS = frozenset([
    "record", "step", "sim_time", "observations", "actions", "rewards", "reward_totals", "done_codes",
    "platform_states",
])
_OBSERVATION_KEYS = frozenset(["values", "unit"])

# A slot's kind, as an error names what its value must be
_NUMBER = "a number"
_INTEGER = "an integer"
_TEXT = "a string or null"  # a done code, held as its JSON encoding
#: the types of a loaded value that each kind of slot takes
_TYPES = {_NUMBER: frozenset([int, float]), _INTEGER: frozenset([int]), _TEXT: frozenset([str, type(None)])}


def _json(value) -> str:
    """value as json.dumps writes it, escaped for a %-format template."""
    return json.dumps(value).replace("%", "%%")


def _object(items) -> str:
    """The template of a JSON object from (key, template of its value) pairs, but those of None."""
    return "{" + ", ".join([f"{_json(key)}: {value}" for key, value in items if value is not None]) + "}"


def _compile(shape: StepShape) -> tuple[str, list[tuple[tuple, str]]]:
    """The template of shape's line, as ``json.dumps(record, sort_keys=True)``
    writes it with each value a ``%s`` slot; and (path, kind) of each slot,
    in order."""
    slots: list[tuple[tuple, str]] = []
    lengths = iter(shape.lengths)

    def slot(kind: str, *path) -> str:
        slots.append((path, kind))
        return "%s"

    def array(*path) -> str:
        return "[" + ", ".join([slot(_NUMBER, *path, i) for i in range(next(lengths))]) + "]"

    def observation(agent: str, name: str, unit: str) -> str:
        return _object([("unit", _json(unit)), ("values", array("observations", agent, name, "values"))])

    # each section is compiled in its key order, so the slots are numbered in line order
    actions, observations, platforms = shape.actions, shape.observations, shape.platform_states
    fmt = _object([
        ("actions", None if actions is None else _object(
            (a, _object((g, array("actions", a, g)) for g in glues)) for a, glues in actions
        )),
        ("done_codes", _object((a, slot(_TEXT, "done_codes", a)) for a in shape.done_codes)),
        ("observations", None if observations is None else _object(
            (a, _object((name, observation(a, name, unit)) for name, unit in names)) for a, names in observations
        )),
        ("platform_states", None if platforms is None else _object(
            (p, _object((k, slot(_NUMBER, "platform_states", p, k)) for k in attributes))
            for p, attributes in platforms
        )),
        ("record", _json("step")),
        ("reward_totals", _object((a, slot(_NUMBER, "reward_totals", a)) for a, _ in shape.rewards)),
        ("rewards", _object(
            (a, _object((c, slot(_NUMBER, "rewards", a, c)) for c in components)) for a, components in shape.rewards
        )),
        ("sim_time", slot(_NUMBER, "sim_time")),
        ("step", slot(_INTEGER, "step")),
    ])
    return fmt, slots


@lru_cache(maxsize=64)
def _text_slot(code: str | None) -> str:
    """A done code as a text slot holds it: JSON-encoded."""
    return json.dumps(code)


def _json_number(value):
    """value, or the token ``json`` writes for it if it is a NaN or an infinity."""
    if type(value) is float and not math.isfinite(value):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return value


class RecordLayout:
    """The compiled form of one ``StepShape``.

    ``fmt`` is the shape's line as ``json.dumps(record, sort_keys=True)``
    writes it, with a ``%s`` slot for every value; keys, units and other
    literals are encoded once, here.  A row's values fill those slots in
    order: numbers as ``int`` or ``float`` (whose ``str`` is the ``repr``
    that ``json`` writes), done codes already JSON-encoded.  The reader
    fields give slot positions, so metrics and the CSV log read a row without
    rebuilding its record.
    """

    def __init__(self, shape: StepShape):
        self.shape = shape
        self.fmt, slots = _compile(shape)
        kinds = [kind for _, kind in slots]
        index = {path: i for i, (path, _) in enumerate(slots)}
        self._types = tuple([_TYPES[kind] for kind in kinds])
        # a step record has at least its step and sim_time, so the getter returns a tuple
        self._numbers = itemgetter(*[i for i, kind in enumerate(kinds) if kind is not _TEXT])
        self.step = index["step",]
        #: (agent, slot of its reward total, ((component, slot), ...)) per agent
        self.rewards = tuple(
            (agent, index["reward_totals", agent], tuple((c, index["rewards", agent, c]) for c in components))
            for agent, components in shape.rewards
        )
        #: (agent, slot of its done code) per agent
        self.done_codes = tuple((agent, index["done_codes", agent]) for agent in shape.done_codes)

    @classmethod
    @lru_cache(maxsize=256)
    def of(cls, shape: StepShape) -> RecordLayout:
        """The layout of ``shape``, compiled once per shape: the recorder and the loader share it."""
        return cls(shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordLayout):
            return NotImplemented
        return self.shape == other.shape

    def __hash__(self) -> int:
        return hash(self.shape)

    def line(self, values: tuple) -> str:
        """A row's line, as ``json.dumps(record, sort_keys=True)`` writes it.

        A row holding NaN or an infinity, which ``json`` writes as ``NaN``,
        ``Infinity`` and ``-Infinity``, fills its slots with those tokens.
        Such a row is one whose numbers do not sum to a finite float; so is a
        finite row whose sum overflows, whose values are then written as
        they are.
        """
        try:
            finite = math.isfinite(sum(self._numbers(values)))
        except OverflowError:  # an int too large for a float
            finite = False
        if finite:
            return self.fmt % values
        return self.fmt % tuple(map(_json_number, values))

    def row(self, leaves: list) -> tuple:
        """The values of a loaded line from its leaves in slot order, each
        done code encoded; raises ValueError naming the first leaf whose type
        is not its slot's."""
        if not all(map(frozenset.__contains__, self._types, map(type, leaves))):
            for (path, kind), leaf in zip(_compile(self.shape)[1], leaves):
                if type(leaf) not in _TYPES[kind]:
                    raise ValueError(f"step record: '{_path(path)}' must be {kind}, got {leaf!r}")
        for _, i in self.done_codes:
            leaves[i] = _text_slot(leaves[i])
        return tuple(leaves)


def _path(path: tuple) -> str:
    return "/".join(map(str, path))


Row = tuple[RecordLayout, tuple]


def _sorted(node, *path) -> list[str]:
    """A mapping's keys in sorted order; raises ValueError unless node is a mapping."""
    if type(node) is not dict:
        raise ValueError(f"step record: '{_path(path)}' is not a mapping")
    return sorted(node)


def _keys(node, leaves: list, *path) -> tuple[str, ...]:
    """A mapping's keys in sorted order, its values appended to leaves in that order."""
    keys = _sorted(node, *path)
    leaves += map(node.__getitem__, keys)
    return tuple(keys)


def _extend(leaves: list, node, *path) -> int:
    """Append an array's elements to leaves and return its length; raises
    ValueError unless node is an array."""
    if type(node) is not list:
        raise ValueError(f"step record: '{_path(path)}' is not an array")
    leaves += node
    return len(node)


def _read_step(record: dict) -> Row:
    """The row of a parsed step line: its shape, read from the step record's
    sections, and its leaves, read in the same pass and checked by the
    shape's layout.  Raises ValueError for a record that is not a step record."""
    if record.get("record") != "step":
        raise ValueError(f"unexpected {record.get('record')!r} record before the outcome")
    if record.keys() != _STEP_KEYS:
        missing, extra = sorted(_STEP_KEYS - record.keys()), sorted(record.keys() - _STEP_KEYS)
        raise ValueError(f"step record: missing keys {missing}, unknown keys {extra}")
    leaves: list = []
    lengths: list[int] = []
    actions = []
    section = record["actions"]
    for agent in _sorted(section, "actions"):
        fragments = section[agent]
        glues = _sorted(fragments, "actions", agent)
        lengths += [_extend(leaves, fragments[glue], "actions", agent, glue) for glue in glues]
        actions.append((agent, tuple(glues)))
    done_codes = _keys(record["done_codes"], leaves, "done_codes")
    observations = []
    section = record["observations"]
    for agent in _sorted(section, "observations"):
        by_name = section[agent]
        names = []
        for name in _sorted(by_name, "observations", agent):
            observation = by_name[name]
            if not (type(observation) is dict and observation.keys() == _OBSERVATION_KEYS
                    and type(observation["unit"]) is str):
                raise ValueError(f"step record: 'observations/{agent}/{name}' is not a {{unit, values}} mapping")
            lengths.append(_extend(leaves, observation["values"], "observations", agent, name, "values"))
            names.append((name, observation["unit"]))
        observations.append((agent, tuple(names)))
    section = record["platform_states"]
    platforms = tuple([
        (name, _keys(section[name], leaves, "platform_states", name)) for name in _sorted(section, "platform_states")
    ])
    totals = _keys(record["reward_totals"], leaves, "reward_totals")
    section = record["rewards"]
    rewards = tuple([(agent, _keys(section[agent], leaves, "rewards", agent)) for agent in _sorted(section, "rewards")])
    if totals != tuple([agent for agent, _ in rewards]):
        raise ValueError("step record: 'reward_totals' does not name the agents of 'rewards'")
    leaves.append(record["sim_time"])
    leaves.append(record["step"])
    shape = StepShape(tuple(actions), done_codes, tuple(observations), platforms, rewards, tuple(lengths))
    layout = RecordLayout.of(shape)
    return layout, layout.row(leaves)


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

        Each step line is parsed by ``json`` and read into a row by
        ``_read_step``; lines of one shape share a layout.
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
        for number, line in numbered[1:-1]:
            record = _parsed(number, line, source)
            try:
                artifact.rows.append(_read_step(record))
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
        "" and a parameter's value is the same on every row.  The header is
        written by ``csv.writer``, each row by its layout's ``_csv_line``.
        """
        params = {f"param.{key}": p["value"] for key, p in self.parameters.items()}
        layouts = {id(layout): layout for layout, _ in self.rows}
        sources = {key: _csv_source(layout, params) for key, layout in layouts.items()}
        columns = list(dict.fromkeys(["step", *(column for source in sources.values() for column in source)]))
        lines = {key: _csv_line(source, columns) for key, source in sources.items()}
        text = _csv_text(columns) + "".join([lines[id(layout)](values) for layout, values in self.rows])
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return Path(path)


def _csv_source(layout: RecordLayout, params: dict) -> dict[str, tuple[str | None, int | None]]:
    """(template cell, slot) of each column of the layout's rows: "%s" and
    a number's slot, None and a done code's slot, or a parameter's cell.  A
    parameter wins over a step column of the same name, as the later key of
    a merged mapping does."""
    source = {"step": ("%s", layout.step)}
    for agent, total, components in layout.rewards:
        source.update((f"{agent}.reward.{component}", ("%s", slot)) for component, slot in components)
        source[f"{agent}.reward_total"] = ("%s", total)
    source.update((f"{agent}.done_code", (None, slot)) for agent, slot in layout.done_codes)
    source.update((column, (_csv_cell(value), None)) for column, value in params.items())
    return source


def _csv_cell(value) -> str:
    """A constant cell as ``csv.writer`` converts it, escaped for a %-format template."""
    return ("" if value is None else str(value)).replace("%", "%%")


def _csv_text(cells: list) -> str:
    """A row as ``csv.writer`` writes it."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()


def _csv_line(source: dict, columns: list[str]):
    """The writer of the CSV line of a row whose layout's columns are
    ``source``: a template per set of done codes, every cell but the numbers'
    built in as ``csv.writer`` writes it, filled with the numbers by one
    ``%`` (``%s`` writes a number as ``csv.writer`` does, by its ``str``)."""
    cells, numbers, codes = [], [], []  # codes: (cell, slot) of each done code
    for column in columns:
        cell, slot = source.get(column, ("", None))
        if cell is None:
            codes.append((len(cells), slot))
        elif slot is not None:
            numbers.append(slot)
        cells.append(cell)
    fill = itemgetter(*numbers)  # every layout has the step
    # a row's done codes, the key of its template: one alone, several in a tuple, as itemgetter gives them
    read_codes = itemgetter(*[slot for _, slot in codes]) if codes else lambda values: None
    templates: dict = {}

    def line(values: tuple) -> str:
        key = read_codes(values)
        template = templates.get(key)
        if template is None:
            for (cell, _), text in zip(codes, key if len(codes) > 1 else (key,)):
                cells[cell] = _csv_cell(json.loads(text) or "")
            template = templates[key] = _csv_text(cells)
        return template % fill(values)

    return line


def write_manifest(directory: str | Path, case_ids: list[str]) -> Path:
    """Name the artifacts of one evaluate run; written after the artifacts."""
    document = {"schema_version": SCHEMA_VERSION, "cases": case_ids}
    return write_atomic(Path(directory) / MANIFEST, json.dumps(document, indent=2) + "\n")


def load_artifacts(directory: str | Path) -> list[EpisodeArtifact]:
    """The artifacts the directory's manifest names, ordered by file name."""
    directory = Path(directory)
    manifest = directory / MANIFEST
    if not manifest.is_file():
        raise ArtifactError(f"{manifest}: no run manifest; evaluate writes one with its artifacts")
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
