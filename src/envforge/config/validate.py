"""Config tree validation with path-addressed error reporting.

Validation is construction.  ``params.parse_params`` is the one parser of a
config: ``validate_environment`` reads the environment with the table
``ENVIRONMENT``, and ``validate_agent`` each agent with ``AGENT``.  Every
section is a converter in its table, as a constructor reads its config: a
``Param`` whose parse builds the section's object (a distribution, a
parameter store, a functor entry and its ``wrapped`` children, a part,
policy or platform) with the section's own table, and the registry lookups
that choose which class to build are converters too.  Besides that parse,
validation loads agent files and sets the config path of each functor and
part entry.  Then it builds the environment from what parsed, through the
same constructors ``run`` uses, and reports what they reject: a parameter
table, a functor's inputs, every reader of an episode parameter (a
reference, an initialization value), a part or platform a functor names, a
scripted rule's config, a simulator's config, two platforms, agents,
functors or observations of one name.  So a config that validates also
builds.

Validation is total: any loaded tree yields either a typed config or a
ValidationReport whose errors carry the slash-separated path of the offending
node.  The errors come in ``parse_params`` order: a section's keys in
document order, each key's nested errors at that key, then the required keys
it lacks.  Each agent's errors come after the environment's, and the build's
come last, in document order.  Nothing here raises for bad user input.

The tables also write the config.  Where a section's converter builds an
object, its ``Param.dump`` writes the object back, and ``environment_tree``
writes a typed config with ``params.dump_params`` as the tree that validates
back to it.  ``run_config.json`` holds that tree.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from ..epp import DISTRIBUTION_KINDS, Distribution, Increment, ParameterSpec
from ..functors.base import ExtractorSpec, FunctorSpec
from ..functors.graph import FUNCTOR_REGISTRY
from ..params import (
    ConfigError,
    Param,
    dump_params,
    finite,
    list_of,
    mapping,
    mapping_of,
    nonempty,
    one_of,
    parse_params,
    positive_int,
    sequence,
    string,
    table,
)
from ..params import join_path as _join
from ..parts import GLOBAL_REGISTRY
from ..policies import POLICY_REGISTRY
from ..simulators import SIMULATORS
from ..units import NONE, get_unit
from . import loader
from .schema import (
    AgentConfig,
    EnvironmentConfig,
    EpisodeEndMode,
    PartConfig,
    PlatformConfig,
    PolicyConfig,
    SpaceCheckMode,
)


class ErrorCode(enum.Enum):
    UNKNOWN_FUNCTOR = "UnknownFunctor"
    MISSING_FIELD = "MissingField"
    TYPE_MISMATCH = "TypeMismatch"
    UNKNOWN_UNIT = "UnknownUnit"
    DIMENSION_MISMATCH = "DimensionMismatch"
    UNKNOWN_REFERENCE = "UnknownReference"
    UNKNOWN_PART_GROUP = "UnknownPartGroup"
    FILE_NOT_FOUND = "FileNotFound"
    PARSE_ERROR = "ParseError"
    INCLUDE_CYCLE = "IncludeCycle"
    DUPLICATE_NAME = "DuplicateName"
    UNKNOWN_FIELD = "UnknownField"
    CONFLICTING_FIELD = "ConflictingField"
    REFERENCE_CYCLE = "ReferenceCycle"


@dataclass(frozen=True)
class ValidationError:
    path: str
    code: ErrorCode
    message: str


@dataclass
class ValidationReport:
    errors: list[ValidationError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, path: str, code: ErrorCode, message: str) -> None:
        self.errors.append(ValidationError(path, code, message))

    def __str__(self) -> str:
        if self.ok:
            return "0 errors"
        lines = [f"{len(self.errors)} error(s):"]
        lines += [f"  {e.path}: [{e.code.value}] {e.message}" for e in self.errors]
        return "\n".join(lines)


#: the report code for each error the loader raises
_LOAD_ERRORS = {
    loader.FileNotFound: ErrorCode.FILE_NOT_FOUND,
    loader.IncludeCycle: ErrorCode.INCLUDE_CYCLE,
    loader.ParseError: ErrorCode.PARSE_ERROR,
}


def _load(path: Path, report_path: str, report: ValidationReport):
    """The loaded tree, or None with the load error added to the report at report_path."""
    try:
        return loader.load_config(path)
    except tuple(_LOAD_ERRORS) as exc:
        report.add(report_path, _LOAD_ERRORS[type(exc)], str(exc))
        return None


#: the key of a distribution that chooses its class; the others are read with that class's ``params``
_KIND = Param("kind", one_of(DISTRIBUTION_KINDS))
_KIND_NAMES = {cls: kind for kind, cls in DISTRIBUTION_KINDS.items()}


def _distribution(raw) -> Distribution:
    """The distribution of a ``{kind, <hyperparameter>: value, ...}`` mapping."""
    tree = mapping(raw)
    kind = table((_KIND,))({key: value for key, value in tree.items() if key == "kind"})["kind"]
    cls = DISTRIBUTION_KINDS[kind]
    settings = table((_KIND, *cls.params))(tree)
    del settings["kind"]
    distribution = cls(**settings)
    distribution.validate()
    return distribution


def _distribution_tree(distribution: Distribution) -> dict:
    """The ``{kind, <hyperparameter>: value, ...}`` mapping of ``distribution``."""
    cls = type(distribution)
    return dump_params((_KIND, *cls.params), {"kind": _KIND_NAMES[cls], **vars(distribution)})


def _updater_table(mutable: Collection[str]) -> tuple[Param, ...]:
    """The keys of an updater of a distribution whose hyperparameters ``mutable`` may change."""
    return (
        Param("kind", one_of(("increment",)), "increment"),
        Param("target", one_of(mutable)),
        Param("step", finite),
        Param("limit", finite, None),
    )


def _parameter(raw) -> dict:
    """The settings of a parameter entry, its updaters read with the table
    of its distribution's ``mutable`` names.  A bare number is a ``constant``
    with unit none, and its errors are reported at the number."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return _parameter({"distribution": {"kind": "constant", "value": raw}})
        except ConfigError as exc:
            raise ConfigError(str(exc), [("", code, message) for _, code, message in exc.errors]) from None
    settings, errors = parse_params(PARAMETER, mapping(raw), "")
    if "distribution" in settings and "unit" in settings:
        updater = table(_updater_table(settings["distribution"].mutable))
        try:
            updaters = list_of(updater)(settings.get("updaters", []))
        except ConfigError as exc:
            errors += [(_join("updaters", path), code, message) for path, code, message in exc.errors]
        else:
            settings["updaters"] = [Increment(u["target"], u["step"], u["limit"]) for u in updaters]
    if errors:
        raise ConfigError(errors[0][2], errors)
    return settings


def _store(raw) -> dict[str, ParameterSpec]:
    """A parameter store: the spec of each parameter, by name."""
    return {name: ParameterSpec(name, **settings) for name, settings in mapping_of(_parameter)(raw).items()}


def _built(cls, params: tuple[Param, ...]):
    """The converter of a mapping read with the table ``params`` into a ``cls``."""
    return lambda raw: cls(**table(params)(raw))


def _wrapped(raw):
    """A functor's ``wrapped``: one child, or a list or mapping of them; an
    empty one is none, as its dump leaves it out."""
    if raw == [] or raw == {}:
        return None
    if isinstance(raw, list):
        return list_of(_child)(raw)
    if isinstance(raw, dict) and "functor" not in raw:
        return mapping_of(_child)(raw)
    return _child(raw)


def _child(raw):
    """A wrapped child: a functor entry, or the name of a top-level one."""
    return raw if raw is None or isinstance(raw, str) else _functor(raw)


def _part(raw) -> PartConfig:
    """A part entry; a bare group name is one with no config, its error reported at the name."""
    if isinstance(raw, str):
        return PartConfig(_GROUP.parse(raw))
    settings = table(PART)(raw)
    return PartConfig(settings["part"], settings["config"])


def _store_tree(store: dict[str, ParameterSpec]) -> dict:
    """A parameter store, by name."""
    return {name: dump_params(PARAMETER, vars(spec)) for name, spec in store.items()}


def _functor_tree(functor):
    """A functor entry, or a list or mapping of them (a functor list, or a
    functor's ``wrapped``); a wrapped child given by name is written as its name."""
    if isinstance(functor, FunctorSpec):
        return dump_params(FUNCTOR, vars(functor))
    if isinstance(functor, list):
        return [_functor_tree(child) for child in functor]
    if isinstance(functor, dict):
        return {key: _functor_tree(child) for key, child in functor.items()}
    return functor


def _agent_tree(agent: AgentConfig) -> dict:
    """An agent entry; its ``episode_parameter_provider`` holds its parameters."""
    parameters = {"parameters": agent.parameters}
    settings = {"agent": agent.name, "platforms": agent.platform_names, "episode_parameter_provider": parameters}
    return dump_params(AGENT, {**vars(agent), **settings})


#: the keys each config section declares; any other key is UnknownField.
#: Where a section builds an object, its converter builds it, and its
#: ``dump`` writes that object back as the section's tree.  A simulator's, a
#: part's, a functor's and a policy's ``config`` is checked by its
#: constructor, against its own table.
SIMULATOR = (Param("name", one_of(SIMULATORS, "UnknownFunctor")), Param("config", mapping, {}))
PARAMETER = (
    Param("distribution", _distribution, dump=_distribution_tree),
    Param("unit", get_unit, NONE, dump=lambda unit: unit.name),
    Param(
        "updaters",
        sequence,
        [],
        dump=lambda updaters: [dump_params(_updater_table(()), {"kind": "increment", **vars(u)}) for u in updaters],
    ),
)
PLATFORM = (
    Param("name", string),
    Param("platform_type", string),
    Param("initialization", _store, {}, dump=_store_tree),
)
EXTRACTOR = (Param("glue", string), Param("key", string, None))
FUNCTOR = (
    Param("functor", one_of(FUNCTOR_REGISTRY, "UnknownFunctor")),
    Param("name", string, None),
    Param("config", mapping, {}),
    Param("references", mapping_of(string), {}),
    Param("wrapped", _wrapped, None, dump=_functor_tree),
    Param("extractor", _built(ExtractorSpec, EXTRACTOR), None, dump=lambda spec: dump_params(EXTRACTOR, vars(spec))),
)
_functor = _built(FunctorSpec, FUNCTOR)
_GROUP = Param("part", one_of(GLOBAL_REGISTRY.groups, "UnknownPartGroup"))
PART = (_GROUP, Param("config", mapping, {}))
POLICY = (Param("name", one_of(POLICY_REGISTRY)), Param("config", mapping, {}))
EPISODE_PARAMETER_PROVIDER = (Param("parameters", _store, {}, dump=_store_tree),)
#: an agent's platforms; its parts attach to the first unless they name one
AGENT_PLATFORMS = Param("platforms", nonempty(list_of(string)))
AGENT = (
    Param("agent", string),
    AGENT_PLATFORMS,
    Param(
        "parts",
        list_of(_part),
        [],
        dump=lambda parts: [dump_params(PART, {"part": p.group, "config": p.config}) for p in parts],
    ),
    Param("reference_store", _store, {}, dump=_store_tree),
    Param(
        "episode_parameter_provider",
        table(EPISODE_PARAMETER_PROVIDER),
        {"parameters": {}},
        dump=partial(dump_params, EPISODE_PARAMETER_PROVIDER),
    ),
    Param("glues", nonempty(list_of(_functor)), dump=_functor_tree),
    Param("dones", list_of(_functor), [], dump=_functor_tree),
    Param("rewards", list_of(_functor), [], dump=_functor_tree),
    Param("policy", _built(PolicyConfig, POLICY), None, dump=lambda policy: dump_params(POLICY, vars(policy))),
)
ENVIRONMENT = (
    Param("simulator", table(SIMULATOR), dump=partial(dump_params, SIMULATOR)),
    Param(
        "platforms",
        list_of(_built(PlatformConfig, PLATFORM)),
        dump=lambda platforms: [dump_params(PLATFORM, vars(p)) for p in platforms],
    ),
    Param("agents", sequence, dump=lambda agents: [_agent_tree(agent) for agent in agents]),
    Param("horizon", positive_int, 1000),
    Param("episode_end_mode", EpisodeEndMode, EpisodeEndMode.ALL_AGENTS_DONE, dump=lambda mode: mode.value),
    Param("space_check_mode", SpaceCheckMode, SpaceCheckMode.EVERY_STEP, dump=lambda mode: mode.value),
    Param("reference_store", _store, {}, dump=_store_tree),
    Param("shared_dones", list_of(_functor), [], dump=_functor_tree),
)


def environment_tree(config: EnvironmentConfig) -> dict:
    """The config tree that ``validate_environment`` reads back as ``config``,
    written by the tables that read it: defaults filled in, a bare number
    written as a ``constant`` spec, agent files inlined, empty sections left
    out.  ``run_config.json`` holds it."""
    simulator = {"name": config.simulator_name, "config": config.simulator_config}
    return dump_params(ENVIRONMENT, {**vars(config), "simulator": simulator})


def _parse(table: tuple[Param, ...], tree, path: str, report: ValidationReport) -> dict | None:
    """The settings of the section ``tree`` at ``path`` under ``table``, its
    errors added to ``report``.  A failed key has no setting.  None, and a
    ``TypeMismatch`` at ``path``, if ``tree`` is not a mapping."""
    try:
        tree = mapping(tree)
    except TypeError as exc:
        report.add(path, ErrorCode.TYPE_MISMATCH, str(exc))
        return None
    settings, errors = parse_params(table, tree, path)
    report.errors += [ValidationError(p, ErrorCode(code), m) for p, code, m in errors]
    return settings


def _set_paths(entry, path: str) -> None:
    """Set the config path of each functor and part entry in ``entry`` (one,
    or a list or mapping of them), and of each functor's wrapped children, to
    where it was parsed from: the build reports an entry's errors there."""
    if isinstance(entry, list):
        entry = dict(enumerate(entry))
    if isinstance(entry, dict):
        for key, child in entry.items():
            _set_paths(child, _join(path, key))
    elif isinstance(entry, (FunctorSpec, PartConfig)):
        entry.path = path
        _set_paths(getattr(entry, "wrapped", None), _join(path, "wrapped"))


def validate_agent(tree, path_prefix: str = "") -> tuple[AgentConfig | None, ValidationReport]:
    """Validate an agent config tree into an AgentConfig, or report errors."""
    report = ValidationReport()
    settings = _parse(AGENT, tree, path_prefix, report)
    if not report.ok:
        return None, report
    for key in ("parts", "glues", "dones", "rewards"):
        _set_paths(settings[key], _join(path_prefix, key))
    agent = AgentConfig(
        name=settings["agent"],
        platform_names=settings["platforms"],
        parts=settings["parts"],
        glues=settings["glues"],
        dones=settings["dones"],
        rewards=settings["rewards"],
        parameters=settings["episode_parameter_provider"]["parameters"],
        reference_store=settings["reference_store"],
        policy=settings["policy"] or PolicyConfig("random"),
        path=path_prefix,
    )
    return agent, report


def validate_environment(tree, base_dir: str | Path = ".") -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Validate an environment config tree, loading agent files it references."""
    report = ValidationReport()
    settings = _parse(ENVIRONMENT, tree, "", report)
    if settings is None:
        return None, report
    environment_parsed = report.ok
    agent_trees = settings.get("agents", [])
    agents: list[AgentConfig] = []
    for i, at in enumerate(agent_trees):
        apath = _join("agents", i)
        if isinstance(at, str):
            at = _load(Path(base_dir) / at, apath, report)
            if at is None:
                continue
        agent, agent_report = validate_agent(at, path_prefix=apath)
        report.errors.extend(agent_report.errors)
        if agent is not None:
            agents.append(agent)
    if not environment_parsed:
        return None, report

    _set_paths(settings["shared_dones"], "shared_dones")
    config = EnvironmentConfig(
        simulator_name=settings["simulator"]["name"],
        simulator_config=settings["simulator"]["config"],
        platforms=settings["platforms"],
        agents=agents,
        shared_dones=settings["shared_dones"],
        episode_end_mode=settings["episode_end_mode"],
        horizon=settings["horizon"],
        reference_store=settings["reference_store"],
        space_check_mode=settings["space_check_mode"],
    )
    # a shared done may read any agent's parts, so it is built only beside every agent
    every_agent = len(agents) == len(agent_trees)
    report.errors += _build_errors(config if every_agent else replace(config, shared_dones=[]))
    if not report.ok:
        return None, report
    return config, report


#: rank of each section key, for ordering build errors by document position
_SECTION_RANK = {p.name: rank for rank, p in enumerate((*ENVIRONMENT, *AGENT))}


def _document_position(error: ValidationError) -> list[int]:
    """Where ``error``'s path lies in the document: by section, then by list
    index, down to a spec of an agent (the build reports a spec's own errors
    in order, but reaches specs out of order through name references)."""
    return [int(p) if p.isdigit() else _SECTION_RANK.get(p, 0) for p in error.path.split("/")[:4]]


def _build_errors(config: EnvironmentConfig) -> list[ValidationError]:
    """Every error that building ``config`` reports, in document order."""
    from ..environment import Environment  # the environment imports this package

    try:
        Environment(config)
    except ConfigError as exc:
        errors = [ValidationError(path, ErrorCode(code), message) for path, code, message in exc.errors]
        return sorted(errors, key=_document_position)
    return []


def validate_environment_file(
    path: str | Path, agent_paths: Sequence[str | Path] = ()
) -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Load and validate an environment file, its ``agents`` replaced by the
    agent files ``agent_paths`` if any are given; load errors land in the report."""
    report = ValidationReport()
    tree = _load(Path(path), "", report)
    if tree is None:
        return None, report
    if agent_paths and isinstance(tree, dict):
        tree["agents"] = [str(Path(p).resolve()) for p in agent_paths]
    return validate_environment(tree, base_dir=Path(path).parent)
