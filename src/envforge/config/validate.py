"""Config tree validation with path-addressed error reporting.

Validation is construction.  ``validate_environment`` itself parses only the
structure: each structural section is a ``Param`` table that
``params.parse_params`` reads, as a constructor reads its config (the
registry lookups that choose which class to build are converters of those
tables), plus file loading and the reference stores.  Then it builds the
environment from what parsed, through the same constructors ``run`` uses,
and reports what they reject: a parameter table, a functor's inputs, every
reader of an episode parameter (a reference, an initialization value), a
part or platform a functor names, a scripted rule's config, a simulator's
config, two platforms, agents, functors or observations of one name.  So a
config that validates also builds.

Validation is total: any loaded tree yields either a typed config or a
ValidationReport whose errors carry the slash-separated path of the offending
node.  The structural errors come first: each section's own errors, in
``parse_params`` order (its keys in document order, then the required keys
it lacks), before the errors inside it.  Then come the build's, in document
order.  Nothing here raises for bad user input.

The tables also write the config.  Where a table's parse builds an object
(a distribution, a unit, a mode, a parameter store, a functor, part, policy,
platform or agent), its ``Param.dump`` writes the object back, and
``environment_tree`` writes a typed config with ``params.dump_params`` as the
tree that validates back to it.  ``run_config.json`` holds that tree.
"""

from __future__ import annotations

import enum
from collections.abc import Collection
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
    identity,
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


def _part_table(groups: Collection[str]) -> tuple[Param, ...]:
    """The keys of a part entry, whose group must be one of ``groups``."""
    return (Param("part", one_of(groups, "UnknownPartGroup")), Param("config", mapping, {}))


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


#: the keys each structural section declares; any other key is UnknownField.
#: A simulator's, a part's, a functor's and a policy's ``config`` is checked
#: by its constructor, against its own table.  Where a section's parse builds
#: an object, its ``dump`` writes that object back as the section's tree.
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
    Param("initialization", mapping, {}, dump=_store_tree),
)
EXTRACTOR = (Param("glue", string), Param("key", string, None))
FUNCTOR = (
    Param("functor", one_of(FUNCTOR_REGISTRY, "UnknownFunctor")),
    Param("name", string, None),
    Param("config", mapping, {}),
    Param("references", mapping_of(string), {}),
    Param("wrapped", identity, None, dump=_functor_tree),
    Param("extractor", mapping, None, dump=lambda extractor: dump_params(EXTRACTOR, vars(extractor))),
)
POLICY = (Param("name", one_of(POLICY_REGISTRY)), Param("config", mapping, {}))
EPISODE_PARAMETER_PROVIDER = (Param("parameters", mapping, {}, dump=_store_tree),)
#: an agent's platforms; its parts attach to the first unless they name one
AGENT_PLATFORMS = Param("platforms", nonempty(list_of(string)))
AGENT = (
    Param("agent", string),
    AGENT_PLATFORMS,
    Param(
        "parts",
        sequence,
        [],
        dump=lambda parts: [dump_params(_part_table(()), {"part": p.group, "config": p.config}) for p in parts],
    ),
    Param("reference_store", mapping, {}, dump=_store_tree),
    Param("episode_parameter_provider", mapping, {}, dump=partial(dump_params, EPISODE_PARAMETER_PROVIDER)),
    Param("glues", nonempty(sequence), dump=_functor_tree),
    Param("dones", sequence, [], dump=_functor_tree),
    Param("rewards", sequence, [], dump=_functor_tree),
    Param("policy", mapping, None, dump=lambda policy: dump_params(POLICY, vars(policy))),
)
ENVIRONMENT = (
    Param("simulator", mapping, dump=partial(dump_params, SIMULATOR)),
    Param("platforms", sequence, dump=lambda platforms: [dump_params(PLATFORM, vars(p)) for p in platforms]),
    Param("agents", sequence, dump=lambda agents: [_agent_tree(agent) for agent in agents]),
    Param("horizon", positive_int, 1000),
    Param("episode_end_mode", EpisodeEndMode, EpisodeEndMode.ALL_AGENTS_DONE, dump=lambda mode: mode.value),
    Param("space_check_mode", SpaceCheckMode, SpaceCheckMode.EVERY_STEP, dump=lambda mode: mode.value),
    Param("reference_store", mapping, {}, dump=_store_tree),
    Param("shared_dones", sequence, [], dump=_functor_tree),
)


def environment_tree(config: EnvironmentConfig) -> dict:
    """The config tree that ``validate_environment`` reads back as ``config``,
    written by the tables that read it: defaults filled in, a bare number
    written as a ``constant`` spec, agent files inlined, empty sections left
    out.  ``run_config.json`` holds it."""
    simulator = {"name": config.simulator_name, "config": config.simulator_config}
    return dump_params(ENVIRONMENT, {**vars(config), "simulator": simulator})


def _parse(table: tuple[Param, ...], tree, path: str, report: ValidationReport, shorthand=False) -> dict | None:
    """The settings of the section ``tree`` at ``path`` under ``table``, its
    errors added to ``report``.  A failed key has no setting.  None, and a
    ``TypeMismatch`` at ``path``, if ``tree`` is not a mapping.  A
    ``shorthand`` tree stands for the scalar written at ``path``, where each
    of its errors is reported."""
    try:
        tree = mapping(tree)
    except TypeError as exc:
        report.add(path, ErrorCode.TYPE_MISMATCH, str(exc))
        return None
    settings, errors = parse_params(table, tree, path)
    report.errors += [ValidationError(path if shorthand else p, ErrorCode(code), m) for p, code, m in errors]
    return settings


def parse_parameter_spec(name: str, tree, path: str, report: ValidationReport) -> ParameterSpec | None:
    """Parse one parameter entry; bare scalars are Constant with unit none.

    Every hyperparameter must be a finite number, and so must an updater's
    ``step`` and ``limit``.
    """
    shorthand = isinstance(tree, (int, float)) and not isinstance(tree, bool)
    if shorthand:
        tree = {"distribution": {"kind": "constant", "value": tree}}
    settings = _parse(PARAMETER, tree, path, report, shorthand)
    if settings is None or "distribution" not in settings or "unit" not in settings:
        return None
    spec = ParameterSpec(name, settings["distribution"], settings["unit"])
    table = _updater_table(spec.distribution.mutable)
    for i, updater_tree in enumerate(settings.get("updaters", [])):
        updater = _parse(table, updater_tree, _join(path, "updaters", i), report)
        if updater is not None and len(updater) == len(table):
            spec.updaters.append(Increment(updater["target"], updater["step"], updater["limit"]))
    return spec


def parse_parameter_store(tree: dict, path: str, report: ValidationReport) -> dict[str, ParameterSpec]:
    """The parameter specs of a mapping of them, by name."""
    store = {str(name): parse_parameter_spec(str(name), sub, _join(path, name), report) for name, sub in tree.items()}
    return {name: spec for name, spec in store.items() if spec is not None}


def parse_functor_spec(tree, path: str, report: ValidationReport) -> FunctorSpec | None:
    settings = _parse(FUNCTOR, tree, path, report)
    if settings is None or "functor" not in settings:
        return None
    wrapped = _parse_wrapped(settings.get("wrapped"), _join(path, "wrapped"), report)
    extractor = None
    if settings.get("extractor") is not None:
        extractor_settings = _parse(EXTRACTOR, settings["extractor"], _join(path, "extractor"), report)
        if "glue" in extractor_settings:
            extractor = ExtractorSpec(extractor_settings["glue"], extractor_settings.get("key"))
    return FunctorSpec(
        functor=settings["functor"],
        name=settings.get("name"),
        config=settings.get("config", {}),
        references=settings.get("references", {}),
        wrapped=wrapped,
        extractor=extractor,
        path=path,
    )


def _parse_wrapped(tree, path: str, report: ValidationReport):
    """A functor's ``wrapped``: one child, or a list or mapping of them; an
    empty one is none, as its dump leaves it out."""
    if tree == [] or tree == {}:
        return None
    if isinstance(tree, list):
        return [_parse_child(item, _join(path, i), report) for i, item in enumerate(tree)]
    if isinstance(tree, dict) and "functor" not in tree:
        return {str(k): _parse_child(v, _join(path, k), report) for k, v in tree.items()}
    return _parse_child(tree, path, report)


def _parse_child(tree, path: str, report: ValidationReport):
    """A wrapped child: a functor entry, or the name of a top-level one."""
    if tree is None or isinstance(tree, str):
        return tree
    return parse_functor_spec(tree, path, report)


def _parse_functor_list(entries: list, path: str, report: ValidationReport) -> list[FunctorSpec]:
    """The specs of one functor list; the build checks their names (see ``GraphBuilder``)."""
    specs = [parse_functor_spec(sub, _join(path, i), report) for i, sub in enumerate(entries)]
    return [spec for spec in specs if spec is not None]


def validate_agent(tree, path_prefix: str = "") -> tuple[AgentConfig | None, ValidationReport]:
    """Validate an agent config tree into an AgentConfig, or report errors."""
    report = ValidationReport()
    p = path_prefix
    settings = _parse(AGENT, tree, p, report)
    if settings is None:
        return None, report

    parts: list[PartConfig] = []
    part_table = _part_table(GLOBAL_REGISTRY.groups)
    for i, part_tree in enumerate(settings.get("parts", [])):
        ppath = _join(p, "parts", i)
        shorthand = isinstance(part_tree, str)
        part = _parse(part_table, {"part": part_tree} if shorthand else part_tree, ppath, report, shorthand)
        if part is not None and "part" in part:
            parts.append(PartConfig(part["part"], part.get("config", {}), ppath))

    reference_store = parse_parameter_store(
        settings.get("reference_store", {}), _join(p, "reference_store"), report
    )
    epp_path = _join(p, "episode_parameter_provider")
    epp = _parse(EPISODE_PARAMETER_PROVIDER, settings.get("episode_parameter_provider", {}), epp_path, report)
    parameters = parse_parameter_store(epp.get("parameters", {}), _join(epp_path, "parameters"), report)

    glues = _parse_functor_list(settings.get("glues", []), _join(p, "glues"), report)
    dones = _parse_functor_list(settings.get("dones", []), _join(p, "dones"), report)
    rewards = _parse_functor_list(settings.get("rewards", []), _join(p, "rewards"), report)

    policy = PolicyConfig("random")
    if settings.get("policy") is not None:
        policy_settings = _parse(POLICY, settings["policy"], _join(p, "policy"), report)
        if "name" in policy_settings:
            policy = PolicyConfig(policy_settings["name"], policy_settings.get("config", {}))

    if not report.ok:
        return None, report
    return (
        AgentConfig(
            name=settings["agent"],
            platform_names=settings["platforms"],
            parts=parts,
            glues=glues,
            dones=dones,
            rewards=rewards,
            parameters=parameters,
            reference_store=reference_store,
            policy=policy,
            path=path_prefix,
        ),
        report,
    )


def validate_environment(tree, base_dir: str | Path = ".") -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Validate an environment config tree, loading agent files it references."""
    report = ValidationReport()
    settings = _parse(ENVIRONMENT, tree, "", report)
    if settings is None:
        return None, report
    base_dir = Path(base_dir)

    simulator = _parse(SIMULATOR, settings["simulator"], "simulator", report) if "simulator" in settings else {}
    sim_name = simulator.get("name")

    platforms: list[PlatformConfig] = []
    for i, platform_tree in enumerate(settings.get("platforms", [])):
        ppath = _join("platforms", i)
        platform = _parse(PLATFORM, platform_tree, ppath, report)
        if platform is None:
            continue
        init = parse_parameter_store(platform.get("initialization", {}), _join(ppath, "initialization"), report)
        platforms.append(PlatformConfig(platform.get("name"), platform.get("platform_type"), init))

    reference_store = parse_parameter_store(settings.get("reference_store", {}), "reference_store", report)

    shared_dones = _parse_functor_list(settings.get("shared_dones", []), "shared_dones", report)

    agent_trees = settings.get("agents", [])
    environment_parsed = report.ok
    agents: list[AgentConfig] = []
    for i, at in enumerate(agent_trees):
        apath = _join("agents", i)
        if isinstance(at, str):
            at = _load(base_dir / at, apath, report)
            if at is None:
                continue
        agent, agent_report = validate_agent(at, path_prefix=apath)
        report.errors.extend(agent_report.errors)
        if agent is not None:
            agents.append(agent)

    # a key that failed has no setting: such a config is neither built nor returned
    config = EnvironmentConfig(
        simulator_name=sim_name,
        simulator_config=simulator.get("config", {}),
        platforms=platforms,
        agents=agents,
        shared_dones=shared_dones,
        episode_end_mode=settings.get("episode_end_mode"),
        horizon=settings.get("horizon"),
        reference_store=reference_store,
        space_check_mode=settings.get("space_check_mode"),
    )
    if environment_parsed:
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


def validate_environment_file(path: str | Path) -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Load and validate an environment file; load errors land in the report."""
    report = ValidationReport()
    tree = _load(Path(path), "", report)
    if tree is None:
        return None, report
    return validate_environment(tree, base_dir=Path(path).parent)
