"""Config tree validation with path-addressed error reporting.

Validation is total: any loaded tree yields either a typed config or a
ValidationReport whose errors carry the slash-separated path of the offending
node, in document order.  Nothing here raises for bad user input.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import epp as epp_mod
from ..epp import DISTRIBUTION_KINDS, Increment, ParameterSpec
from ..functors.base import ExtractorSpec, FunctorSpec
from ..functors.graph import FUNCTOR_REGISTRY
from ..params import PARSE_ERRORS, Param, check_inputs, parse_params, parse_reference
from ..parts import GLOBAL_REGISTRY, NoMatch, PluginRegistry
from ..policies import POLICY_REGISTRY, SCRIPTED_RULES
from ..simulators import SIMULATORS
from ..units import Quantity, UnitError
from ..units import UnknownUnit as UnknownUnitError
from ..units import get_unit
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


def _join(*parts) -> str:
    return "/".join(str(p) for p in parts if p != "")


#: the keys each structural section declares; any other key is UnknownField.
#: A simulator's ``config`` is checked against its class's ``params``, and a
#: part's against its registration's.
ENVIRONMENT_KEYS = (
    "simulator", "platforms", "agents", "horizon", "episode_end_mode",
    "space_check_mode", "reference_store", "shared_dones",
)
SIMULATOR_KEYS = ("name", "config")
PLATFORM_KEYS = ("name", "platform_type", "initialization")
PARAMETER_KEYS = ("distribution", "unit", "updaters")
UPDATER_KEYS = ("kind", "target", "step", "limit")
AGENT_KEYS = (
    "agent", "platforms", "parts", "reference_store", "episode_parameter_provider",
    "glues", "dones", "rewards", "policy",
)
EPP_KEYS = ("parameters",)
PART_KEYS = ("part", "config")
POLICY_KEYS = ("name", "config")
FUNCTOR_KEYS = ("functor", "name", "config", "references", "wrapped", "extractor")
EXTRACTOR_KEYS = ("glue", "key")


class _Validator:
    def __init__(self, report: ValidationReport):
        self.report = report

    def declared(self, tree: dict, keys: tuple[str, ...], path: str) -> None:
        """Report each key of tree that keys does not declare."""
        for key in tree:
            if key not in keys:
                self.report.add(
                    _join(path, key),
                    ErrorCode.UNKNOWN_FIELD,
                    f"undeclared key '{key}' (expected one of {sorted(keys)})",
                )

    def require(self, tree: dict, key: str, path: str, types=None):
        if key not in tree:
            self.report.add(_join(path, key), ErrorCode.MISSING_FIELD, f"missing required key '{key}'")
            return None
        value = tree[key]
        if types is not None and not isinstance(value, types):
            self.report.add(
                _join(path, key),
                ErrorCode.TYPE_MISMATCH,
                f"expected {_type_names(types)}, got {type(value).__name__}",
            )
            return None
        return value

    def optional(self, tree: dict, key: str, path: str, types=None, default=None):
        if key not in tree:
            return default
        value = tree[key]
        if types is not None and not isinstance(value, types):
            self.report.add(
                _join(path, key),
                ErrorCode.TYPE_MISMATCH,
                f"expected {_type_names(types)}, got {type(value).__name__}",
            )
            return default
        return value


def _type_names(types) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def _check_unit(name, path: str, report: ValidationReport):
    if not isinstance(name, str):
        report.add(path, ErrorCode.TYPE_MISMATCH, f"unit name must be a string, got {type(name).__name__}")
        return None
    try:
        return get_unit(name)
    except UnknownUnitError:
        report.add(path, ErrorCode.UNKNOWN_UNIT, f"unknown unit '{name}'")
        return None


def parse_parameter_spec(name: str, tree, path: str, report: ValidationReport) -> ParameterSpec | None:
    """Parse one parameter entry; bare scalars are Constant with unit none."""
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return ParameterSpec(name, epp_mod.Constant(float(tree)))
    if not isinstance(tree, dict):
        report.add(path, ErrorCode.TYPE_MISMATCH, "parameter must be a number or a mapping")
        return None
    v = _Validator(report)
    v.declared(tree, PARAMETER_KEYS, path)
    dist_tree = v.require(tree, "distribution", path, dict)
    unit = _check_unit(tree.get("unit", "none"), _join(path, "unit"), report)
    if dist_tree is None or unit is None:
        return None

    kind = v.require(dist_tree, "kind", _join(path, "distribution"), str)
    if kind is None:
        return None
    cls = DISTRIBUTION_KINDS.get(kind)
    if cls is None:
        report.add(
            _join(path, "distribution", "kind"),
            ErrorCode.TYPE_MISMATCH,
            f"unknown distribution kind '{kind}' (expected one of {sorted(DISTRIBUTION_KINDS)})",
        )
        return None
    hyper = {k: v2 for k, v2 in dist_tree.items() if k != "kind"}
    try:
        dist = cls(**hyper)
        dist.validate()
    except (TypeError, ValueError) as exc:
        report.add(_join(path, "distribution"), ErrorCode.TYPE_MISMATCH, str(exc))
        return None

    updaters: list[Increment] = []
    updater_trees = v.optional(tree, "updaters", path, list, [])
    for i, ut in enumerate(updater_trees):
        upath = _join(path, "updaters", i)
        if not isinstance(ut, dict):
            report.add(upath, ErrorCode.TYPE_MISMATCH, "updater must be a mapping")
            continue
        uv = _Validator(report)
        uv.declared(ut, UPDATER_KEYS, upath)
        target = uv.require(ut, "target", upath, str)
        step = uv.require(ut, "step", upath, (int, float))
        kind_name = uv.optional(ut, "kind", upath, str, "increment")
        if kind_name != "increment":
            report.add(_join(upath, "kind"), ErrorCode.TYPE_MISMATCH, f"unknown updater kind '{kind_name}'")
            continue
        if target is None or step is None:
            continue
        if target not in dist.mutable:
            report.add(
                _join(upath, "target"),
                ErrorCode.TYPE_MISMATCH,
                f"'{target}' is not a hyperparameter of {cls.__name__}",
            )
            continue
        limit = ut.get("limit")
        updaters.append(Increment(target, float(step), None if limit is None else float(limit)))
    return ParameterSpec(name, dist, unit, updaters)


def parse_parameter_store(tree, path: str, report: ValidationReport) -> dict[str, ParameterSpec]:
    store: dict[str, ParameterSpec] = {}
    if tree is None:
        return store
    if not isinstance(tree, dict):
        report.add(path, ErrorCode.TYPE_MISMATCH, "expected a mapping of parameter specs")
        return store
    for name, sub in tree.items():
        spec = parse_parameter_spec(str(name), sub, _join(path, name), report)
        if spec is not None:
            store[str(name)] = spec
    return store


def _add_param_errors(errors, path: str, report: ValidationReport) -> None:
    """Add the errors of a ``parse_params`` call to the report, under path."""
    for field_path, code, message in errors:
        report.add(_join(path, field_path), ErrorCode(code), message)


def parse_functor_spec(
    tree,
    path: str,
    report: ValidationReport,
    known_references: dict[str, ParameterSpec],
) -> FunctorSpec | None:
    if not isinstance(tree, dict):
        report.add(path, ErrorCode.TYPE_MISMATCH, "functor spec must be a mapping")
        return None
    v = _Validator(report)
    v.declared(tree, FUNCTOR_KEYS, path)
    functor = v.require(tree, "functor", path, str)
    if functor is None:
        return None
    cls = FUNCTOR_REGISTRY.get(functor)
    if cls is None:
        report.add(
            _join(path, "functor"),
            ErrorCode.UNKNOWN_FUNCTOR,
            f"no functor registered under '{functor}'",
        )
        return None

    name = v.optional(tree, "name", path, str)
    config = v.optional(tree, "config", path, dict, {})
    references = v.optional(tree, "references", path, dict, {})
    _add_param_errors(parse_params(cls.params, config, references)[1], path, report)
    units = {p.name: p.unit for p in cls.params if p.referenceable}
    for param, key in references.items():
        rpath = _join(path, "references", param)
        if not isinstance(key, str):
            report.add(rpath, ErrorCode.TYPE_MISMATCH, "reference key must be a string")
            continue
        if key not in known_references:
            report.add(rpath, ErrorCode.UNKNOWN_REFERENCE, f"reference key '{key}' is not declared")
            continue
        unit = units.get(param)
        actual = known_references[key].unit.dimension
        if unit is not None and actual is not unit.dimension:
            report.add(
                rpath,
                ErrorCode.DIMENSION_MISMATCH,
                f"'{param}' expects dimension '{unit.dimension.value}' but reference "
                f"'{key}' has dimension '{actual.value}'",
            )

    wrapped_tree = tree.get("wrapped")
    wrapped = _parse_wrapped(wrapped_tree, _join(path, "wrapped"), report, known_references)

    extractor = None
    ex_tree = v.optional(tree, "extractor", path, dict)
    if ex_tree is not None:
        ev = _Validator(report)
        ev.declared(ex_tree, EXTRACTOR_KEYS, _join(path, "extractor"))
        glue = ev.require(ex_tree, "glue", _join(path, "extractor"), str)
        if glue is not None:
            extractor = ExtractorSpec(glue, ex_tree.get("key"))
    has_extractor = tree.get("extractor") is not None
    _add_param_errors(check_inputs(cls.inputs, _wrapped_keys(wrapped_tree), has_extractor), path, report)

    return FunctorSpec(
        functor=functor,
        name=name,
        config=config,
        references={str(k): str(val) for k, val in references.items() if isinstance(val, str)},
        wrapped=wrapped,
        extractor=extractor,
    )


def _wrapped_keys(tree) -> list[str]:
    """The child keys ``wrapped`` gives, as the graph builder keys them."""
    if tree is None:
        return []
    if isinstance(tree, list):
        return [str(i) for i in range(len(tree))]
    if isinstance(tree, dict) and "functor" not in tree:
        return [str(k) for k in tree]
    return ["wrapped"]


def _parse_wrapped(tree, path: str, report: ValidationReport, known_references):
    if tree is None:
        return None
    if isinstance(tree, str):
        return tree
    if isinstance(tree, list):
        return [
            _parse_wrapped(item, _join(path, i), report, known_references)
            for i, item in enumerate(tree)
        ]
    if isinstance(tree, dict) and "functor" not in tree:
        return {
            str(k): _parse_wrapped(v, _join(path, k), report, known_references)
            for k, v in tree.items()
        }
    return parse_functor_spec(tree, path, report, known_references)


def _parse_functor_list(
    tree, path: str, report: ValidationReport, known_references, names: dict[str, FunctorSpec]
) -> list[FunctorSpec]:
    """The specs of one functor list.

    ``names`` maps each display name to the first spec that has it, across
    every list that shares the namespace: ``step()`` keys dones and reward
    components by name, so a different spec with a taken name would hide the
    first.  An identical spec is one graph node, so it may repeat.
    """
    specs: list[FunctorSpec] = []
    if tree is None:
        return specs
    if not isinstance(tree, list):
        report.add(path, ErrorCode.TYPE_MISMATCH, "expected a list of functor specs")
        return specs
    for i, sub in enumerate(tree):
        spec = parse_functor_spec(sub, _join(path, i), report, known_references)
        if spec is None:
            continue
        if names.setdefault(spec.display_name, spec) != spec:
            report.add(
                _join(path, i),
                ErrorCode.DUPLICATE_NAME,
                f"another functor is already named '{spec.display_name}'",
            )
        specs.append(spec)
    return specs


def validate_agent(
    tree,
    registry: PluginRegistry = GLOBAL_REGISTRY,
    extra_references: dict[str, ParameterSpec] | None = None,
    path_prefix: str = "",
) -> tuple[AgentConfig | None, ValidationReport]:
    """Validate an agent config tree into an AgentConfig, or report errors."""
    report = ValidationReport()
    if not isinstance(tree, dict):
        report.add(path_prefix, ErrorCode.TYPE_MISMATCH, "agent config must be a mapping")
        return None, report
    v = _Validator(report)
    p = path_prefix
    v.declared(tree, AGENT_KEYS, p)

    name = v.require(tree, "agent", p, str)
    platform_names = v.require(tree, "platforms", p, list)
    if platform_names is not None:
        if not platform_names:
            report.add(_join(p, "platforms"), ErrorCode.TYPE_MISMATCH, "at least one platform required")
        for i, pn in enumerate(platform_names):
            if not isinstance(pn, str):
                report.add(_join(p, "platforms", i), ErrorCode.TYPE_MISMATCH, "platform name must be a string")

    parts: list[PartConfig] = []
    for i, part_tree in enumerate(v.optional(tree, "parts", p, list, [])):
        ppath = _join(p, "parts", i)
        if isinstance(part_tree, str):
            part_tree = {"part": part_tree}
        if not isinstance(part_tree, dict):
            report.add(ppath, ErrorCode.TYPE_MISMATCH, "part entry must be a mapping or string")
            continue
        pv = _Validator(report)
        pv.declared(part_tree, PART_KEYS, ppath)
        group = pv.require(part_tree, "part", ppath, str)
        if group is None:
            continue
        if not registry.has_group(group):
            report.add(
                _join(ppath, "part"),
                ErrorCode.UNKNOWN_PART_GROUP,
                f"no part group named '{group}' in the plugin registry",
            )
            continue
        parts.append(PartConfig(group, pv.optional(part_tree, "config", ppath, dict, {})))

    reference_store = parse_parameter_store(
        tree.get("reference_store"), _join(p, "reference_store"), report
    )
    known_references = {**(extra_references or {}), **reference_store}

    epp_tree = v.optional(tree, "episode_parameter_provider", p, dict, {})
    v.declared(epp_tree, EPP_KEYS, _join(p, "episode_parameter_provider"))
    parameters = parse_parameter_store(
        epp_tree.get("parameters"), _join(p, "episode_parameter_provider", "parameters"), report
    )

    names: dict[str, FunctorSpec] = {}
    glues = _parse_functor_list(tree.get("glues"), _join(p, "glues"), report, known_references, names)
    if "glues" not in tree:
        report.add(_join(p, "glues"), ErrorCode.MISSING_FIELD, "missing required key 'glues'")
    elif not glues and not report.errors:
        report.add(_join(p, "glues"), ErrorCode.TYPE_MISMATCH, "at least one glue required")
    dones = _parse_functor_list(tree.get("dones"), _join(p, "dones"), report, known_references, names)
    rewards = _parse_functor_list(tree.get("rewards"), _join(p, "rewards"), report, known_references, names)

    policy = PolicyConfig("random")
    policy_tree = v.optional(tree, "policy", p, dict)
    if policy_tree is not None:
        policy = _parse_policy(policy_tree, _join(p, "policy"), report) or policy

    if not report.ok:
        return None, report
    return (
        AgentConfig(
            name=name,
            platform_names=list(platform_names),
            parts=parts,
            glues=glues,
            dones=dones,
            rewards=rewards,
            parameters=parameters,
            reference_store=reference_store,
            policy=policy,
        ),
        report,
    )


def _parse_policy(tree: dict, path: str, report: ValidationReport) -> PolicyConfig | None:
    """A policy block whose name, and scripted rule, are registered."""
    v = _Validator(report)
    v.declared(tree, POLICY_KEYS, path)
    name = v.require(tree, "name", path, str)
    config = v.optional(tree, "config", path, dict, {})
    if name is None:
        return None
    if name not in POLICY_REGISTRY:
        report.add(
            _join(path, "name"),
            ErrorCode.TYPE_MISMATCH,
            f"unknown policy '{name}' (expected one of {sorted(POLICY_REGISTRY)})",
        )
        return None
    if name == "scripted":
        rule = v.require(config, "rule", _join(path, "config"), str)
        if rule is not None and rule not in SCRIPTED_RULES:
            report.add(
                _join(path, "config", "rule"),
                ErrorCode.TYPE_MISMATCH,
                f"unknown scripted rule '{rule}' (expected one of {sorted(SCRIPTED_RULES)})",
            )
        elif rule is not None:
            _add_param_errors(SCRIPTED_RULES[rule].parse(config)[1], path, report)
    return PolicyConfig(name, config)


_END_MODES = {m.value: m for m in EpisodeEndMode}


def _parse_space_check(tree, path: str, report: ValidationReport) -> SpaceCheckMode:
    if tree is None:
        return SpaceCheckMode.every_step()
    if isinstance(tree, str):
        if tree == "every_step":
            return SpaceCheckMode.every_step()
        if tree == "off":
            return SpaceCheckMode.off()
        if tree == "spot_check":
            return SpaceCheckMode.spot_check()
        report.add(path, ErrorCode.TYPE_MISMATCH, f"unknown space_check_mode '{tree}'")
    elif isinstance(tree, dict) and "spot_check" in tree:
        prob = tree["spot_check"]
        if not isinstance(prob, (int, float)) or not 0 <= prob <= 1:
            report.add(_join(path, "spot_check"), ErrorCode.TYPE_MISMATCH, "probability must be in [0, 1]")
        else:
            return SpaceCheckMode.spot_check(float(prob))
    else:
        report.add(path, ErrorCode.TYPE_MISMATCH, "expected 'every_step', 'off', or {spot_check: p}")
    return SpaceCheckMode.every_step()


def validate_environment(
    tree,
    base_dir: str | Path = ".",
    registry: PluginRegistry = GLOBAL_REGISTRY,
) -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Validate an environment config tree, loading agent files it references."""
    report = ValidationReport()
    if not isinstance(tree, dict):
        report.add("", ErrorCode.TYPE_MISMATCH, "environment config must be a mapping")
        return None, report
    base_dir = Path(base_dir)
    v = _Validator(report)
    v.declared(tree, ENVIRONMENT_KEYS, "")

    sim_tree = v.require(tree, "simulator", "", dict)
    sim_name, sim_config = None, {}
    if sim_tree is not None:
        sv = _Validator(report)
        sv.declared(sim_tree, SIMULATOR_KEYS, "simulator")
        sim_name = sv.require(sim_tree, "name", "simulator", str)
        sim_config = sv.optional(sim_tree, "config", "simulator", dict, {})
        if sim_name is not None and sim_name not in SIMULATORS:
            report.add(
                "simulator/name",
                ErrorCode.UNKNOWN_FUNCTOR,
                f"unknown simulator '{sim_name}' (expected one of {sorted(SIMULATORS)})",
            )
        elif sim_name is not None:
            _add_param_errors(parse_params(SIMULATORS[sim_name].params, sim_config, {})[1], "simulator", report)

    platforms: list[PlatformConfig] = []
    platform_trees = v.require(tree, "platforms", "", list) or []
    for i, pt in enumerate(platform_trees):
        ppath = _join("platforms", i)
        if not isinstance(pt, dict):
            report.add(ppath, ErrorCode.TYPE_MISMATCH, "platform entry must be a mapping")
            continue
        pv = _Validator(report)
        pv.declared(pt, PLATFORM_KEYS, ppath)
        pname = pv.require(pt, "name", ppath, str)
        ptype = pv.require(pt, "platform_type", ppath, str)
        ipath = _join(ppath, "initialization")
        init_tree = pt.get("initialization")
        init = parse_parameter_store(init_tree, ipath, report)
        # the initialization declares exactly the parameters the simulator reads
        given = init_tree or {}
        if sim_name in SIMULATORS and isinstance(given, dict):
            required = SIMULATORS[sim_name].required_init_params
            pv.declared(given, required, ipath)
            for name in required:
                pv.require(given, name, ipath)
        if pname is not None and ptype is not None:
            platforms.append(PlatformConfig(pname, ptype, init))

    reference_store = parse_parameter_store(tree.get("reference_store"), "reference_store", report)
    # (path, store) of every reference store, checked once every functor that
    # may reference it is known
    stores = [("reference_store", reference_store)]

    horizon = v.optional(tree, "horizon", "", int, 1000)
    if isinstance(horizon, bool) or (horizon is not None and horizon < 1):
        report.add("horizon", ErrorCode.TYPE_MISMATCH, "horizon must be an integer >= 1")
        horizon = 1000

    end_mode_name = v.optional(tree, "episode_end_mode", "", str, EpisodeEndMode.ALL_AGENTS_DONE.value)
    end_mode = _END_MODES.get(end_mode_name)
    if end_mode is None:
        report.add(
            "episode_end_mode",
            ErrorCode.TYPE_MISMATCH,
            f"expected one of {sorted(_END_MODES)}, got '{end_mode_name}'",
        )
        end_mode = EpisodeEndMode.ALL_AGENTS_DONE

    space_check = _parse_space_check(tree.get("space_check_mode"), "space_check_mode", report)

    shared_dones = _parse_functor_list(tree.get("shared_dones"), "shared_dones", report, reference_store, {})

    agents: list[AgentConfig] = []
    agent_trees = v.require(tree, "agents", "", list) or []
    platform_types = {p.name: p.platform_type for p in platforms}
    for i, at in enumerate(agent_trees):
        apath = _join("agents", i)
        if isinstance(at, str):
            at = _load(base_dir / at, apath, report)
            if at is None:
                continue
        agent, agent_report = validate_agent(
            at, registry, extra_references=reference_store, path_prefix=apath
        )
        report.errors.extend(agent_report.errors)
        if agent is None:
            continue
        for j, pn in enumerate(agent.platform_names):
            if pn not in platform_types:
                report.add(
                    _join(apath, "platforms", j),
                    ErrorCode.UNKNOWN_REFERENCE,
                    f"agent platform '{pn}' is not declared in the environment",
                )
        if sim_name in SIMULATORS:
            _check_parts(agent, apath, sim_name, platform_types, registry, report)
        stores.append((_join(apath, "reference_store"), agent.reference_store))
        agents.append(agent)

    config = EnvironmentConfig(
        simulator_name=sim_name,
        simulator_config=sim_config,
        platforms=platforms,
        agents=agents,
        shared_dones=shared_dones,
        episode_end_mode=end_mode,
        horizon=int(horizon),
        reference_store=reference_store,
        space_check_mode=space_check,
    )
    referencing = referencing_params(config)
    for path, store in stores:
        for key, spec in store.items():
            message = _store_range_error(spec, referencing.get(key, ()))
            if message is not None:
                report.add(_join(path, key, "distribution"), ErrorCode.TYPE_MISMATCH, message)
    if not report.ok:
        return None, report
    return config, report


def _check_parts(
    agent: AgentConfig,
    path: str,
    simulator_type: str,
    platform_types: dict[str, str],
    registry: PluginRegistry,
    report: ValidationReport,
) -> None:
    """Check each part's config against the table of the registration its
    group resolves to on its platform, as ``attach_parts`` parses it."""
    for j, part in enumerate(agent.parts):
        ppath = _join(path, "parts", j)
        target = agent.part_platform(part)
        if not isinstance(target, str) or target not in platform_types:
            if "platform" in part.config:  # else the agent's platform is reported
                report.add(
                    _join(ppath, "config", "platform"),
                    ErrorCode.UNKNOWN_REFERENCE,
                    f"platform {target!r} is not declared in the environment",
                )
            continue
        try:
            entry = registry.match(part.group, simulator_type, platform_types[target])
        except NoMatch as exc:
            report.add(_join(ppath, "part"), ErrorCode.UNKNOWN_PART_GROUP, str(exc))
            continue
        _add_param_errors(parse_params(entry.params, part.config, {})[1], ppath, report)


def referencing_params(config: EnvironmentConfig) -> dict[str, list[Param]]:
    """Each reference-store key that ``config``'s functor specs reference
    (``wrapped`` specs included), mapped to the params that reference it."""
    found: dict[str, list[Param]] = {}

    def walk(wrapped) -> None:
        if isinstance(wrapped, FunctorSpec):
            cls = FUNCTOR_REGISTRY.get(wrapped.functor)
            declared = {p.name: p for p in cls.params} if cls else {}
            for name, key in wrapped.references.items():
                p = declared.get(name)
                if p is not None and p not in found.setdefault(key, []):
                    found[key].append(p)
            walk(wrapped.wrapped)
        elif isinstance(wrapped, (list, tuple)):
            for child in wrapped:
                walk(child)
        elif isinstance(wrapped, dict):
            walk(list(wrapped.values()))

    walk(config.shared_dones)
    for agent in config.agents:
        walk([*agent.glues, *agent.dones, *agent.rewards])
    return found


def reference_range_error(params: Iterable[Param], value: Quantity) -> str | None:
    """Why ``value``, a sample of a reference-store key, fails the first of
    ``params`` (the params that reference the key) whose ``parse`` rejects it
    once ``Functor.bind`` has converted it; None if every one takes it.  A
    value of another dimension is skipped: the reference reports it."""
    for p in params:
        try:
            parse_reference(p, value)
        except UnitError:
            continue
        except PARSE_ERRORS as exc:
            return f"'{p.name}': {exc}"
    return None


def _store_range_error(spec: ParameterSpec, params: Iterable[Param]) -> str | None:
    """Why a value that ``spec`` can only draw (a constant, or any value of a
    discrete choice) fails a param that references it, or None."""
    dist = spec.distribution
    if isinstance(dist, epp_mod.Constant):
        values = [dist.value]
    elif isinstance(dist, epp_mod.DiscreteChoice):
        values = dist.values
    else:
        return None
    for value in values:
        try:
            reason = reference_range_error(params, Quantity.scalar(value, spec.unit))
        except PARSE_ERRORS as exc:
            reason = str(exc)
        if reason is not None:
            return f"value {value} {spec.unit.name}: {reason}"
    return None


def validate_environment_file(path: str | Path) -> tuple[EnvironmentConfig | None, ValidationReport]:
    """Load and validate an environment file; load errors land in the report."""
    report = ValidationReport()
    tree = _load(Path(path), "", report)
    if tree is None:
        return None, report
    return validate_environment(tree, base_dir=Path(path).parent)
