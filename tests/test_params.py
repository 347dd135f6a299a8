"""Declared parameter tables, read by the constructors; `validate` builds, so it reports what they reject."""

import copy
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envforge.config import AgentConfig, EnvironmentConfig, PartConfig, PlatformConfig, PolicyConfig, loader
from envforge.config.validate import validate_environment
from envforge.environment import Environment, episode_parameters
from envforge.epp import Constant, EppError, Increment, ParameterSpec, Uniform, UnsampleableParameter
from envforge.evaluation.evaluate import run_episode
from envforge.functors import (
    BUILTIN_FUNCTORS,
    FunctorError,
    ExtractorSpec,
    FunctorSpec,
    PartBindingError,
    build_graph,
)
from envforge.params import ANY, SOURCE, ConfigError, Param, check_inputs, nonnegative, parse_params
from envforge.parts import GLOBAL_REGISTRY, PartError, Platform
from envforge.simulators.base import InvalidSimulatorConfig
from envforge.simulators.cartpole import CONSTANTS, DEFAULTS
from envforge.policies import SCRIPTED_RULES, PolicyError, ScriptedPolicy
from envforge.simulators.docking import (
    Deputy1d,
    Docking1dSimulator,
    _position_sensor,
    _thrust_controller,
    _velocity_sensor,
)
from envforge.units import METER, METER_PER_SECOND, get_unit

from conftest import CONFIG_DIR, load_env_config


def docking_platforms():
    platform = Platform("deputy", "Docking1dPlatform", Deputy1d(-10.0, 0.0, 1.0))
    platform.add_part(_position_sensor("Sensor_Position", {}))
    platform.add_part(_velocity_sensor("Sensor_Velocity", {}))
    platform.add_part(_thrust_controller("Controller_Thrust", {"thrust_limit": 1.0}))
    return {"deputy": platform}


RADIUS = (Param("radius", unit=METER, referenceable=True), Param("count", int, default=1))


class TestParseParams:
    def test_bare_number_takes_the_declared_unit(self):
        settings, errors = parse_params(RADIUS, {"radius": 2.0}, "config")
        assert errors == [] and settings == {"radius": 2.0, "count": 1}

    def test_value_with_unit_is_converted_to_the_declared_unit(self):
        settings, errors = parse_params(RADIUS, {"radius": {"value": 50.0, "unit": "centimeter"}}, "config")
        assert errors == [] and settings["radius"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "raw, code",
        [
            ({"value": 1.0, "unit": "second"}, "DimensionMismatch"),
            ({"value": 1.0, "unit": "furlong"}, "UnknownUnit"),
            ({"value": 1.0}, "TypeMismatch"),
            ("far", "TypeMismatch"),
            ([1.0], "TypeMismatch"),
        ],
    )
    def test_bad_value_is_reported_at_its_field(self, raw, code):
        settings, errors = parse_params(RADIUS, {"radius": raw}, "config")
        assert [(path, c) for path, c, _ in errors] == [("config/radius", code)]
        assert "radius" not in settings

    def test_unknown_key_and_missing_required(self):
        _, errors = parse_params(RADIUS, {"radius_m": 1.0}, "config")
        assert [(path, c) for path, c, _ in errors] == [
            ("config/radius_m", "UnknownField"),
            ("config/radius", "MissingField"),
        ]

    def test_only_a_referenceable_param_may_be_referenced(self):
        settings, errors = parse_params(RADIUS, {}, "config", {"radius": "r"})
        assert errors == [] and "radius" not in settings
        _, errors = parse_params(RADIUS, {"radius": 1.0}, "config", {"count": "n"})
        assert [(path, c) for path, c, _ in errors] == [("references/count", "UnknownField")]

    def test_int_overflow_is_a_type_mismatch(self):
        _, errors = parse_params(RADIUS, {"radius": 1.0, "count": math.inf}, "config")
        assert [(path, c) for path, c, _ in errors] == [("config/count", "TypeMismatch")]

    def test_param_in_config_and_references_conflicts(self):
        _, errors = parse_params(RADIUS, {"radius": 1.0}, "config", {"radius": "r"})
        assert [(path, c) for path, c, _ in errors] == [("config/radius", "ConflictingField")]

    def test_range_is_checked_after_unit_conversion(self):
        table = (Param("radius", nonnegative, unit=METER),)
        settings, errors = parse_params(table, {"radius": {"value": 50.0, "unit": "centimeter"}}, "config")
        assert errors == [] and settings["radius"] == pytest.approx(0.5)
        _, errors = parse_params(table, {"radius": {"value": -50.0, "unit": "centimeter"}}, "config")
        assert [(path, c) for path, c, _ in errors] == [("config/radius", "TypeMismatch")]
        assert "-0.5" in errors[0][2]


# Each defect of the golden corpus, given straight to the graph builder.
CORPUS_DEFECTS = [
    ("ExponentialDecayFromTargetValue", {"eps": 5.0, "reward_when_farhter": 1.0}, {}, "reward_when_farhter"),
    ("ExponentialDecayFromTargetValue", {}, {"eps": "eps"}, "eps"),
    ("StateBounds", {"status": "LOSE"}, {}, "status"),
    ("DockingFailure", {"velocity_limit": 0.2}, {}, "dock_radius"),
    ("ExponentialDecayFromTargetValue", {"eps": 0}, {}, "eps"),
    ("DockingSuccess", {"dock_radius": 5.0, "velocity_limit": 0.2}, {"dock_radius": "r"}, "dock_radius"),
]


class TestBuildAgreesWithValidate:
    @pytest.mark.parametrize("functor, config, references, field", CORPUS_DEFECTS)
    def test_defect_raises_functor_error_naming_functor_and_field(
        self, functor, config, references, field
    ):
        spec = FunctorSpec(functor, "Culprit", config=config, references=references)
        with pytest.raises(FunctorError, match=f"Culprit.*{field}"):
            build_graph(docking_platforms(), glues=[], dones=[spec])

    @pytest.mark.parametrize(
        "functor, config",
        [
            ("ObserveSensor", {"sensor": "Sensor_Position", "platform": "ghost"}),
            ("DockingSuccess", {"dock_radius": 0.1, "velocity_limit": 0.2, "platform": "ghost"}),
        ],
    )
    def test_unknown_platform_is_a_binding_error_at_build(self, functor, config):
        with pytest.raises(PartBindingError, match="ghost"):
            build_graph(docking_platforms(), glues=[], dones=[FunctorSpec(functor, config=config)])

    def test_scripted_rule_defect_raises_policy_error_naming_rule_and_field(self):
        with pytest.raises(PolicyError, match="bang_bang_docking.*thrust"):
            ScriptedPolicy({"rule": "bang_bang_docking", "thrust": "fast"})

    def test_scripted_rule_reads_its_settings(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking", "thrust": 0.3, "action_glue": "T"})
        observation = {
            "ObservePosition/direct_observation": np.array([-10.0]),
            "ObserveVelocity/direct_observation": np.array([0.0]),
        }
        assert policy._rule(observation, {})["T"].tolist() == [0.3]


# The glue every generated functor may read, by name or through an extractor,
# and a nested child in another unit (velocity).
POSITION = "ObservePosition"
CHILD = {"functor": "ObserveSensor", "config": {"sensor": "Sensor_Velocity", "normalize": False}}
VALID_CONFIG = {
    "ObserveSensor": {"sensor": "Sensor_Position"},
    "ControllerGlue": {"controller": "Controller_Thrust"},
    "DockingSuccess": {"dock_radius": 0.1, "velocity_limit": 0.2},
    "DockingFailure": {"dock_radius": 0.1, "velocity_limit": 0.2},
    "ExponentialDecayFromTargetValue": {"eps": 5.0},
}
# The values drawn for a param, valid or not; a name that binds a part or a
# platform draws one that is attached, one that is not, or a non-string.
POOL = [
    0.5, -3, 7, math.nan, math.inf, True, None, "LOSS", "WIN", "meter", "N/A", "nope",
    [1.0], {"value": 2.0, "unit": "centimeter"}, {"value": 2.0, "unit": "second"},
    {"value": 2.0}, {"value": "x", "unit": "meter"},
]
BOUND_NAMES = {
    "sensor": ["Sensor_Position", "Sensor_Foo", 5, None],
    "controller": ["Controller_Thrust", "Controller_Foo", None],
    "platform": ["deputy", "ghost", "", 5, None],
}
#: the agent list a generated functor joins, by its kind
ROLE = {"glue": "glues", "done": "dones", "shared_done": "dones", "reward": "rewards"}


def draw_config(draw, params, config=None):
    """``config`` with each of ``params`` maybe redrawn, valid or not, and maybe an unknown key."""
    config = dict(config or {})
    for param in params:
        if draw(st.integers(0, 2)) == 0:
            config[param.name] = draw(st.sampled_from(BOUND_NAMES.get(param.name, POOL)))
    if draw(st.integers(0, 3)) == 0:
        config["not_a_param"] = 1.0
    return config


@st.composite
def functor_trees(draw):
    """A built-in named Culprit, its config drawn over its declared keys,
    given no input, one child, a list or a mapping of children under
    declared or other keys, an extractor, or both."""
    name = draw(st.sampled_from(sorted(BUILTIN_FUNCTORS)))
    params = BUILTIN_FUNCTORS[name].params
    tree = {"functor": name, "name": "Culprit", "config": draw_config(draw, params, VALID_CONFIG.get(name))}
    children = [CHILD, POSITION]
    shape = draw(st.sampled_from(["none", "one", "list", "mapping"]))
    if shape == "one":
        tree["wrapped"] = draw(st.sampled_from(children))
    elif shape == "list":
        tree["wrapped"] = children
    elif shape == "mapping":
        keys = draw(st.lists(st.sampled_from(["value", "onto", "first", "second", "x"]), unique=True, max_size=3))
        tree["wrapped"] = {key: children[i % 2] for i, key in enumerate(keys)}
    if draw(st.booleans()):
        tree["extractor"] = {"glue": POSITION}
    return "functor", tree


@st.composite
def part_configs(draw):
    """One of the docking agent's parts, its config drawn over the keys its registration declares."""
    index = draw(st.integers(0, 2))
    group = DOCKING_AGENT["parts"][index]["part"]
    params = GLOBAL_REGISTRY.match(group, "Docking1dSimulator", "Docking1dPlatform").params
    return "part", (index, draw_config(draw, params))


@st.composite
def rule_configs(draw):
    """A scripted policy's config: a rule that is registered or not (or none),
    and a config drawn over the keys of bang_bang_docking."""
    config = draw_config(draw, SCRIPTED_RULES["bang_bang_docking"].params)
    rule = draw(st.sampled_from(["bang_bang_docking", "zero", "nope", 5, None, "absent"]))
    if rule != "absent":
        config["rule"] = rule
    return "rule", config


def python_spec(tree) -> FunctorSpec:
    """The ``FunctorSpec`` a functor entry describes, made without ``validate``."""

    def wrapped(w):
        if isinstance(w, list):
            return [wrapped(child) for child in w]
        if isinstance(w, dict):
            return python_spec(w) if "functor" in w else {k: wrapped(child) for k, child in w.items()}
        return w

    extractor = tree.get("extractor")
    return FunctorSpec(
        tree["functor"], tree.get("name"), tree.get("config", {}), tree.get("references", {}),
        wrapped(tree.get("wrapped")), extractor and ExtractorSpec(**extractor),
    )


def build_beside_position(spec):
    position = FunctorSpec("ObserveSensor", "P", config={"sensor": "Sensor_Position", "normalize": False})
    return build_graph(docking_platforms(), glues=[position], dones=[spec])


DOCKING_TREE = loader.load_config(CONFIG_DIR / "docking" / "environment.yml")
DOCKING_AGENT = loader.load_config(CONFIG_DIR / "docking" / "agent.yml")
DOCKING_CONFIG = load_env_config(CONFIG_DIR / "docking" / "environment.yml")


def validate_and_build(defect):
    """Validate the docking tree (agent file inlined) with ``defect`` in it,
    and build the same config made in Python, without ``validate``.

    ``defect`` is ("functor", entry) for an entry added to the agent's list
    of its kind, ("part", (index, config)) for a part's config, or ("rule",
    config) for a scripted policy's config.  Returns the tree, the reported
    (path, code) pairs and the build's ``ConfigError``, or None.
    """
    kind, value = defect
    tree = copy.deepcopy(DOCKING_TREE)
    tree["agents"] = [agent := copy.deepcopy(DOCKING_AGENT)]
    config = copy.deepcopy(DOCKING_CONFIG)
    if kind == "functor":
        role = ROLE[BUILTIN_FUNCTORS[value["functor"]].kind]
        agent[role].append(value)
        getattr(config.agents[0], role).append(python_spec(value))
    elif kind == "part":
        index, part_config = value
        agent["parts"][index]["config"] = part_config
        config.agents[0].parts[index] = PartConfig(agent["parts"][index]["part"], part_config)
    else:
        agent["policy"] = {"name": "scripted", "config": value}
        config.agents[0].policy = PolicyConfig("scripted", value)
    _, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
    try:
        Environment(config)
    except ConfigError as exc:
        return tree, [(e.path, e.code.value) for e in report.errors], exc
    return tree, [(e.path, e.code.value) for e in report.errors], None


def resolves(tree, path: str, code: str) -> bool:
    """Whether ``path`` names a node of ``tree``.  A missing field's path may
    go on past the last node that exists (``wrapped/first`` where ``wrapped``
    is one child, or absent), but not past the end of a list."""
    node = tree
    for part in path.split("/") if path else []:
        try:
            node = node[int(part)] if isinstance(node, list) else node[part]
        except IndexError:
            return False
        except (KeyError, TypeError, ValueError):
            return code == "MissingField"
    return True


#: the docking tree, its agent file inlined, with an updater and bounds checks off
STRUCTURE = copy.deepcopy(DOCKING_TREE)
STRUCTURE["agents"] = [copy.deepcopy(DOCKING_AGENT)]
STRUCTURE["platforms"][0]["initialization"]["x0"]["updaters"] = [{"target": "value", "step": 0.0}]
STRUCTURE["space_check_mode"] = "off"
X0 = ("platforms", 0, "initialization", "x0")
#: the path of each structural section of STRUCTURE
SECTIONS = [
    (), ("simulator",), ("platforms", 0), X0[:-1], X0, (*X0, "updaters", 0),
    ("reference_store", "dock_radius"), ("agents", 0), ("agents", 0, "parts", 2),
    ("agents", 0, "episode_parameter_provider"), ("agents", 0, "glues", 0),
    ("agents", 0, "rewards", 0, "extractor"), ("agents", 0, "policy"),
]
NOT_STRINGS = [5, 0.5, True, None, [1.0], {"value": 2.0}]
#: each leaf of a structural section, and the values drawn for it; a name
#: that others refer to draws no other string
LEAVES = {
    ("horizon",): POOL,
    ("episode_end_mode",): [*POOL, "any_agent_done"],
    ("space_check_mode",): [*POOL, "every_step"],
    ("simulator", "name"): [*NOT_STRINGS, "nope"],
    ("platforms", 0, "name"): NOT_STRINGS,
    ("platforms", 0, "platform_type"): NOT_STRINGS,
    (*X0, "unit"): [*POOL, "second"],
    (*X0, "updaters", 0, "target"): [*POOL, "value"],
    (*X0, "updaters", 0, "step"): POOL,
    ("reference_store", "dock_radius", "distribution", "kind"): [*POOL, "uniform"],
    ("agents", 0, "agent"): NOT_STRINGS,
    ("agents", 0, "platforms"): [*NOT_STRINGS, []],
    ("agents", 0, "parts", 2, "part"): [*NOT_STRINGS, "nope"],
    ("agents", 0, "glues", 0, "functor"): [*NOT_STRINGS, "nope"],
    ("agents", 0, "dones", 0, "references", "dock_radius"): NOT_STRINGS,
    ("agents", 0, "rewards", 0, "extractor", "key"): NOT_STRINGS,
    ("agents", 0, "policy", "name"): [*POOL, "random"],
}


@st.composite
def structural_defects(draw):
    """("undeclared", section, key): an undeclared key in one section;
    ("leaf", leaf, value): a leaf's value redrawn, of the wrong type or not;
    ("duplicate", list, None): the first platform or agent entry repeated."""
    kind = draw(st.sampled_from(["undeclared", "leaf", "duplicate"]))
    if kind == "undeclared":
        return kind, draw(st.sampled_from(SECTIONS)), "not_a_key"
    if kind == "leaf":
        leaf = draw(st.sampled_from(sorted(LEAVES, key=str)))
        return kind, leaf, draw(st.sampled_from(LEAVES[leaf]))
    return kind, (draw(st.sampled_from(["platforms", "agents"])),), None


def with_structural_defect(defect):
    """STRUCTURE with ``defect`` in it, the path of the section it lies in,
    and, for a repeated entry, the same config made in Python, else None."""
    kind, path, value = defect
    tree = copy.deepcopy(STRUCTURE)
    node = tree
    for key in path[:-1] if kind == "leaf" else path:
        node = node[key]
    if kind == "undeclared":
        node[value] = 1.0
        return tree, "/".join(map(str, path)), None
    if kind == "leaf":
        node[path[-1]] = copy.deepcopy(value)
        return tree, "/".join(map(str, path[:-1])), None
    node.append(copy.deepcopy(node[0]))
    twin, report = validate_environment(copy.deepcopy(STRUCTURE), base_dir=CONFIG_DIR / "docking")
    assert report.ok, str(report)
    entries = getattr(twin, path[0])
    entries.append(replace(entries[0], path="") if path[0] == "agents" else copy.deepcopy(entries[0]))
    return tree, f"{path[0]}/1", twin


def builds_and_resets(config) -> bool:
    try:
        Environment(config).reset(seed=0)
    except ConfigError:
        return False
    return True


class TestInputs:
    @pytest.mark.parametrize(
        "inputs, keys, extractor, expected",
        [
            ((), ["wrapped"], True, [("wrapped", "UnknownField"), ("extractor", "UnknownField")]),
            (("value", "onto"), ["value", "x"], False, [("wrapped/x", "UnknownField"), ("wrapped/onto", "MissingField")]),
            (SOURCE, [], False, [("wrapped", "MissingField")]),
            (SOURCE, ["a", "b"], False, [("wrapped/b", "UnknownField")]),
            (SOURCE, ["wrapped"], True, [("wrapped", "UnknownField")]),
            (SOURCE, [], True, []),
            (ANY, [], False, [("wrapped", "MissingField")]),
            (ANY, ["0", "1"], True, [("extractor", "UnknownField")]),
        ],
    )
    def test_codes_and_paths(self, inputs, keys, extractor, expected):
        assert [(path, c) for path, c, _ in check_inputs(inputs, keys, extractor)] == expected

    @pytest.mark.parametrize(
        "tree, path",
        [
            ({"functor": "TargetValueDifference", "config": {"unit": "meter"}}, "agents/0/glues/3/wrapped"),
            ({"functor": "Projection", "wrapped": {"value": POSITION}}, "agents/0/glues/3/wrapped/onto"),
            (
                {"functor": "DockingSuccess", "config": VALID_CONFIG["DockingSuccess"], "wrapped": POSITION},
                "agents/0/dones/2/wrapped",
            ),
            ({"functor": "StateBounds", "wrapped": POSITION, "extractor": {"glue": POSITION}}, "agents/0/dones/2/wrapped"),
        ],
    )
    def test_input_defect_fails_in_validate_and_at_build(self, tree, path):
        _, errors, exc = validate_and_build(("functor", {**tree, "name": "Culprit"}))
        assert len(errors) == 1 and errors[0][0] == path
        field = path.split("/", 4)[4]
        assert str(exc).startswith(f"Culprit ({tree['functor']}): {field}: ")

    def test_bound_child_needs_exactly_one_observation(self):
        pair = FunctorSpec("Wrapper", "Pair", wrapped=["P", "P"])
        with pytest.raises(FunctorError, match=r"Size \(Norm\): wrapped: 'Pair' has 2 observations"):
            build_beside_position(FunctorSpec("Norm", "Size", wrapped=pair))

    def test_space_error_names_the_glue(self):
        gap = FunctorSpec("TargetValueDifference", "Gap", config={"min": 1.0, "max": -1.0}, wrapped="P")
        with pytest.raises(FunctorError, match=r"Gap \(TargetValueDifference\): .*low > high"):
            build_beside_position(gap)

    @pytest.mark.parametrize(
        "functor, config, field",
        [
            ("ExponentialDecayFromTargetValue", {"eps": 0}, "eps"),
            ("ExponentialDecayFromTargetValue", {"eps": -2.0}, "eps"),
            ("ExponentialDecayFromTargetValue", {"eps": math.nan}, "eps"),
            ("EpisodeHorizon", {"horizon": 0}, "horizon"),
            ("DockingSuccess", {"dock_radius": -0.1, "velocity_limit": 0.2}, "dock_radius"),
            ("DockingSuccess", {"dock_radius": {"value": -5, "unit": "centimeter"}, "velocity_limit": 0.2}, "dock_radius"),
            ("DockingFailure", {"dock_radius": 0.1, "velocity_limit": -1}, "velocity_limit"),
        ],
    )
    def test_out_of_range_value_fails_in_validate_and_at_build(self, functor, config, field):
        tree = {"functor": functor, "name": "Culprit", "config": config}
        if BUILTIN_FUNCTORS[functor].inputs is SOURCE:
            tree["extractor"] = {"glue": POSITION}
        _, errors, exc = validate_and_build(("functor", tree))
        role = ROLE[BUILTIN_FUNCTORS[functor].kind]
        assert errors == [(f"agents/0/{role}/2/config/{field}", "TypeMismatch")]
        assert str(exc).startswith(f"Culprit ({functor}): config/{field}: ")


class TestValidateIsBuild:
    """``validate`` builds the environment, so it reports an error exactly when the build does."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(functor_trees(), part_configs(), rule_configs()))
    @example(("functor", {"functor": "Difference", "name": "Culprit", "wrapped": {"first": POSITION, "second": CHILD}}))
    @example(("functor", {"functor": "Difference", "name": "Culprit", "wrapped": {"first": CHILD, "second": CHILD}}))
    @example(("functor", {"functor": "ObserveSensor", "name": "Culprit", "config": {"sensor": "Sensor_Foo"}}))
    @example(("part", (0, {"platform": "ghost", "range": 1.0})))
    @example(("rule", {"rule": "bang_bang_docking", "thrust": "fast", "v_crusie": 0.2}))
    def test_validate_reports_no_error_exactly_when_the_environment_builds(self, defect):
        tree, errors, exc = validate_and_build(defect)
        assert (errors == []) == (exc is None), (errors, exc)
        assert [(path, code) for path, code in errors if not resolves(tree, path, code)] == []
        if exc is not None:
            # the build without validate lists what validate reports
            assert sorted(code for _, code in errors) == sorted(code for _, code, _ in exc.errors)

    @settings(max_examples=150, deadline=None)
    @given(structural_defects())
    @example(("duplicate", ("platforms",), None))
    @example(("duplicate", ("agents",), None))
    @example(("leaf", (*X0, "unit"), "second"))
    def test_structural_defect_is_reported_where_it_lies(self, defect):
        kind, path, key = defect
        tree, section, twin = with_structural_defect(defect)
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        errors = [(e.path, e.code.value) for e in report.errors]
        assert (config is None) == (errors != [])
        if kind == "undeclared":
            assert errors == [("/".join(filter(None, [section, key])), "UnknownField")]
        elif kind == "duplicate":
            assert errors == [(f"{section}/{'name' if path[0] == 'platforms' else 'agent'}", "DuplicateName")]
            # the build without validate reports the same
            assert not builds_and_resets(twin)
        elif errors:
            # reported in the leaf's section, not where the section's value is used
            assert all(p == section or p.startswith(f"{section}/") for p, _ in errors if section), errors
        else:
            assert builds_and_resets(config)

    def test_two_independent_defects_raise_one_error_listing_both(self):
        initialization = {
            "x0": ParameterSpec("x0", Constant(-10.0), METER),
            "v0": ParameterSpec("v0", Constant(0.0), METER_PER_SECOND),
        }
        agent = AgentConfig(
            "a", ["deputy"], [PartConfig("Sensor_Position")],
            glues=[FunctorSpec("ObserveSensor", "Foo", config={"sensor": "Sensor_Foo"})],
            policy=PolicyConfig("scripted", {"rule": "zero", "gain": 1.0}),
        )
        config = EnvironmentConfig(
            "Docking1dSimulator", {}, [PlatformConfig("deputy", "Docking1dPlatform", initialization)], [agent]
        )
        with pytest.raises(PartBindingError, match=r"^Foo \(ObserveSensor\): config/sensor: part 'Sensor_Foo'") as info:
            Environment(config)
        assert [(path, code) for path, code, _ in info.value.errors] == [
            ("config/sensor", "UnknownReference"),
            ("policy/config/gain", "UnknownField"),
        ]

    def test_a_failed_spec_skips_what_reads_it(self):
        tree = copy.deepcopy(DOCKING_TREE)
        tree["agents"] = [agent := copy.deepcopy(DOCKING_AGENT)]
        agent["glues"][0]["config"]["sensor"] = "Sensor_Foo"
        # the shaping reward and a done read ObservePosition, and report nothing of their own
        agent["dones"].append({"functor": "StateBounds", "name": "Far", "wrapped": POSITION, "config": {"max": 1.0}})
        assert errors_of(tree) == [("agents/0/glues/0/config/sensor", "UnknownReference")]

    def test_named_child_is_reported_in_document_order(self):
        tree = copy.deepcopy(DOCKING_TREE)
        tree["agents"] = [agent := copy.deepcopy(DOCKING_AGENT)]
        agent["glues"].insert(0, {"functor": "Norm", "name": "Size", "wrapped": "Bad", "config": {"x": 1}})
        agent["glues"].append({"functor": "Norm", "name": "Bad", "wrapped": "ObserveVelocity", "config": {"y": 1}})
        agent["glues"].insert(1, {"functor": "Norm", "name": "Odd", "wrapped": "ObservePosition", "config": {"z": 1}})
        assert errors_of(tree) == [
            ("agents/0/glues/1/config/z", "UnknownField"),
            ("agents/0/glues/5/config/y", "UnknownField"),
        ]

    @pytest.mark.parametrize(
        "path, value, error",
        [
            # each of these validated with 0 errors and then failed the build with a bare exception
            (("platforms", 0, "initialization", "x0", "unit"), "meter_per_second",
             ("platforms/0/initialization/x0", "DimensionMismatch")),
            (("agents", 0, "policy"), {"name": "replay", "config": {"actions": 5}},
             ("agents/0/policy/config/actions", "TypeMismatch")),
            (("agents", 0, "rewards", 0, "extractor", "key"), ["direct_observation"],
             ("agents/0/rewards/0/extractor/key", "TypeMismatch")),
            (("agents", 0, "glues", 1), {"functor": "Norm", "name": "N", "wrapped": {"x": [POSITION]}},
             ("agents/0/glues/1/wrapped/x", "TypeMismatch")),
        ],
    )
    def test_defect_is_reported_not_raised(self, path, value, error):
        tree = copy.deepcopy(DOCKING_TREE)
        tree["agents"] = [copy.deepcopy(DOCKING_AGENT)]
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert errors_of(tree)[:1] == [error]

    def test_reference_cycle_is_reported_where_it_closes(self):
        tree = copy.deepcopy(DOCKING_TREE)
        tree["agents"] = [agent := copy.deepcopy(DOCKING_AGENT)]
        agent["glues"] += [{"functor": "Norm", "name": "A", "wrapped": "B"}, {"functor": "Norm", "name": "B", "wrapped": "A"}]
        assert errors_of(tree) == [("agents/0/glues/4/wrapped", "ReferenceCycle")]


class TestDeclaredUnits:
    def test_reference_in_centimetre_docks_as_in_metre(self):
        tree = loader.load_config(CONFIG_DIR / "docking" / "environment.yml")
        tree["reference_store"]["dock_radius"] = {
            "distribution": {"kind": "constant", "value": 10.0},
            "unit": "centimeter",
        }
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        assert report.ok, str(report)
        in_cm = run_episode(Environment(config), seed=7)
        in_m = run_episode(Environment(load_env_config(CONFIG_DIR / "docking" / "environment.yml")), seed=7)
        assert in_cm.final_outcome == {"deputy_agent": "WIN"} and len(in_cm.rows) > 1
        assert in_cm.parameters["dock_radius"] == {"value": 10.0, "unit": "centimeter"}
        # the header records each sample in its own unit; every step and the outcome agree
        assert in_cm.to_lines()[1:] == in_m.to_lines()[1:]

    def test_config_value_with_unit_is_converted(self):
        spec = FunctorSpec(
            "DockingSuccess",
            config={"dock_radius": {"value": 50.0, "unit": "centimeter"}, "velocity_limit": 0.2},
        )
        success = build_graph(docking_platforms(), glues=[], dones=[spec]).dones[0].functor
        assert success.settings["dock_radius"] == pytest.approx(0.5)

    def test_reference_of_wrong_dimension_is_reported(self):
        tree = env_tree("docking")
        tree["reference_store"]["dock_radius"]["unit"] = "second"
        assert errors_of(tree) == [
            ("agents/0/dones/0/references/dock_radius", "DimensionMismatch"),
            ("agents/0/dones/1/references/dock_radius", "DimensionMismatch"),
        ]
        tree["reference_store"]["dock_radius"] = {"distribution": {"kind": "constant", "value": 10.0}, "unit": "centimeter"}
        assert errors_of(tree) == []

    def test_any_episode_parameter_may_be_referenced(self):
        # one namespace: the environment's store, each agent's store and parameters
        tree = env_tree("docking")
        parameters = {"r": {"distribution": {"kind": "constant", "value": 0.1}, "unit": "meter"}}
        tree["agents"][0]["episode_parameter_provider"] = {"parameters": parameters}
        tree["agents"][0]["dones"][0]["references"]["dock_radius"] = "r"
        assert errors_of(tree) == []
        tree["agents"][0]["dones"][0]["references"]["dock_radius"] = "radius"
        assert errors_of(tree) == [("agents/0/dones/0/references/dock_radius", "UnknownReference")]

    def test_undeclared_reference_fails_construction(self):
        config = copy.deepcopy(DOCKING_CONFIG)
        config.agents[0].dones[0].references["dock_radius"] = "radius"
        # every reader of an episode parameter is checked in one place, the episode parameters'
        message = "episode parameters: agents/0/dones/0/references/dock_radius: reference key 'radius' is not declared"
        with pytest.raises(EppError, match=re.escape(message)):
            Environment(config)


class TestReferencedValues:
    """A referenced value is sampled each episode, checked by its param's
    ``parse`` when drawn, and bound as drawn."""

    @staticmethod
    def short_config_with(key, spec):
        # the build refuses a spec that can yield a value a referencing
        # param's parse refuses (TestReferencedRangesInValidate), but an
        # updater without a limit can still move a constant out of range:
        # reset checks what the build cannot see
        config = load_env_config(CONFIG_DIR / "docking" / "environment_short.yml")
        config.reference_store[key] = spec
        return config

    @staticmethod
    def moved_out_of_range(key, unit):
        """An environment whose ``key`` is a constant 0.1 in ``unit`` that an
        updater without a limit has moved to -0.1."""
        spec = ParameterSpec(key, Constant(0.1), get_unit(unit), [Increment("value", -0.2)])
        env = Environment(TestReferencedValues.short_config_with(key, spec))
        env.apply_training_result()
        return env

    @pytest.mark.parametrize(
        "key, unit, param",
        [("dock_radius", "meter", "dock_radius"), ("v_max", "meter_per_second", "velocity_limit")],
    )
    def test_sample_out_of_range_fails_reset_at_its_distribution(self, key, unit, param):
        env = self.moved_out_of_range(key, unit)
        with pytest.raises(UnsampleableParameter) as caught:
            env.reset(seed=7)
        # worded as the build words a value of the spec that a reader refuses
        assert str(caught.value) == (
            f"episode parameters: reference_store/{key}/distribution: cannot be sampled: "
            f"value -0.1 {unit}: '{param}': must be >= 0, got -0.1"
        )
        assert env.epp.current_sample is None and env.state is None
        artifact = run_episode(env, seed=7)
        assert artifact.rows == [] and artifact.error == f"UnsampleableParameter: {caught.value}"

    def test_sample_is_converted_before_it_is_checked(self):
        # -0.1 cm is out of range in metres as well; 10 cm binds as 0.1 m
        message = "value -0.1 centimeter: 'dock_radius': must be >= 0, got -0.001"
        with pytest.raises(UnsampleableParameter, match=re.escape(message)):
            self.moved_out_of_range("dock_radius", "centimeter").reset(seed=0)
        spec = ParameterSpec("dock_radius", Constant(10.0), get_unit("centimeter"))
        env = Environment(self.short_config_with("dock_radius", spec))
        env.reset(seed=0)
        success = env.agents["deputy_agent"].graph.dones[0].functor
        assert success.name == "DockingSuccess" and success.values["dock_radius"] == pytest.approx(0.1)

    def test_uniform_reference_is_rebound_on_every_reset(self):
        spec = ParameterSpec("dock_radius", Uniform(0.05, 0.5), METER)
        env = Environment(self.short_config_with("dock_radius", spec))
        graph = env.agents["deputy_agent"].graph
        radii = set()
        for seed in range(8):
            env.reset(seed=seed)
            sampled = env.epp.current_sample["dock_radius"].item
            radii.add(sampled)
            for name, node in zip(("DockingSuccess", "DockingFailure"), graph.dones):
                assert node.name == name
                assert node.functor.values["dock_radius"] == sampled
                assert node.functor.values["velocity_limit"] == env.epp.current_sample["v_max"].item
        assert len(radii) == 8


def errors_of(tree, base_dir=CONFIG_DIR / "docking"):
    """(path, code) of every error ``validate`` reports for an environment tree."""
    config, report = validate_environment(tree, base_dir=base_dir)
    assert (config is None) == (not report.ok)
    return [(e.path, e.code.value) for e in report.errors]


def env_tree(task):
    """An environment file of ``configs/<task>`` with its agent file inlined."""
    tree = loader.load_config(CONFIG_DIR / task / "environment.yml")
    tree["agents"] = [loader.load_config(CONFIG_DIR / task / "agent.yml")]
    return tree


class TestSimulatorAndPartTables:
    """A simulator's and a part's config keys are declared, and checked by
    ``validate`` and the constructor through ``parse_params``."""

    @pytest.mark.parametrize(
        "task, config, path, code",
        [
            ("docking", {"mas": 5.0}, "simulator/config/mas", "UnknownField"),
            ("docking", {"frame_rate": 0.0}, "simulator/config/frame_rate", "TypeMismatch"),
            ("docking", {"mass": -1.0}, "simulator/config/mass", "TypeMismatch"),
            ("cartpole", {"constants": {"gravty": 0.0}}, "simulator/config/constants/gravty", "UnknownField"),
            ("cartpole", {"constants": [9.8]}, "simulator/config/constants", "TypeMismatch"),
        ],
    )
    def test_simulator_config_is_checked(self, task, config, path, code):
        tree = env_tree(task)
        tree["simulator"]["config"] = config
        assert errors_of(tree, CONFIG_DIR / task) == [(path, code)]

    @pytest.mark.parametrize(
        "task, index, config, path, code",
        [
            ("docking", 2, {"thrust_limt": 0.01}, "agents/0/parts/2/config/thrust_limt", "UnknownField"),
            ("docking", 2, {"thrust_limit": 0.0}, "agents/0/parts/2/config/thrust_limit", "TypeMismatch"),
            ("cartpole", 1, {"force_limit": -1.0}, "agents/0/parts/1/config/force_limit", "TypeMismatch"),
            ("docking", 0, {"platform": "ghost"}, "agents/0/parts/0/config/platform", "UnknownReference"),
            ("docking", 0, {"platform": ""}, "agents/0/parts/0/config/platform", "UnknownReference"),
            ("docking", 0, {"range": 5.0}, "agents/0/parts/0/config/range", "UnknownField"),
        ],
    )
    def test_part_config_is_checked(self, task, index, config, path, code):
        tree = env_tree(task)
        tree["agents"][0]["parts"][index] = {"part": tree["agents"][0]["parts"][index]["part"], "config": config}
        assert errors_of(tree, CONFIG_DIR / task) == [(path, code)]

    def test_part_group_without_a_matching_registration(self):
        tree = env_tree("docking")
        tree["agents"][0]["parts"].append({"part": "Controller_Force"})
        assert errors_of(tree) == [("agents/0/parts/3/part", "UnknownPartGroup")]

    def test_settings_are_read(self):
        tree = env_tree("cartpole")
        tree["simulator"]["config"] = {"frame_rate": 25.0, "constants": {"gravity": 0.0}}
        tree["agents"][0]["parts"][1]["config"] = {"force_limit": 4.0}
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "cartpole")
        assert report.ok, str(report)
        env = Environment(config)
        assert env.simulator.dt == 1.0 / 25.0
        assert env.simulator.constants == {"gravity": 0.0, "mass_cart": 1.0, "mass_pole": 0.1, "pole_half_length": 0.5}
        assert env.agents["cartpole_agent"].action_space()["ForceControl"].high.tolist() == [4.0]

    def test_each_simulator_owns_its_constants(self):
        tree = env_tree("cartpole")
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "cartpole")
        assert report.ok, str(report)
        env = Environment(config)
        env.simulator.constants["gravity"] = 0.0
        assert DEFAULTS["gravity"] != 0.0
        assert Environment(config).simulator.constants == {p.name: DEFAULTS[p.name] for p in CONSTANTS}

    def test_construction_fails_naming_the_field(self, docking_config):
        with pytest.raises(InvalidSimulatorConfig, match="Docking1dSimulator: config/mas: unknown field 'mas'"):
            Docking1dSimulator({"mas": 5.0}, [])
        docking_config.agents[0].parts[2].config = {"thrust_limt": 0.01}
        with pytest.raises(PartError, match="part 'Controller_Thrust': config/thrust_limt: unknown field"):
            Environment(docking_config)


class TestReferencedRangesInValidate:
    """A reference-store value that can only be drawn (a constant, any value of
    a discrete choice) is checked against every param that references it."""

    @staticmethod
    def short_tree_with(key, distribution, unit):
        tree = loader.load_config(CONFIG_DIR / "docking" / "environment_short.yml")
        tree["reference_store"][key] = {"distribution": distribution, "unit": unit}
        return tree

    @pytest.mark.parametrize(
        "key, distribution, unit, reason",
        [
            ("dock_radius", {"kind": "constant", "value": -0.1}, "meter",
             "value -0.1 meter: 'dock_radius': must be >= 0, got -0.1"),
            ("v_max", {"kind": "constant", "value": -0.1}, "meter_per_second",
             "value -0.1 meter_per_second: 'velocity_limit': must be >= 0, got -0.1"),
            ("dock_radius", {"kind": "constant", "value": -10.0}, "centimeter",
             "value -10.0 centimeter: 'dock_radius': must be >= 0, got -0.1"),
            ("dock_radius", {"kind": "discrete_choice", "values": [0.1, -0.2]}, "meter",
             "value -0.2 meter: 'dock_radius': must be >= 0, got -0.2"),
            # a uniform's bounds are values it can yield
            ("dock_radius", {"kind": "uniform", "low": -1.0, "high": 1.0}, "meter",
             "value -1.0 meter: 'dock_radius': must be >= 0, got -1.0"),
        ],
    )
    def test_value_out_of_range_is_a_type_mismatch(self, key, distribution, unit, reason):
        _, report = validate_environment(self.short_tree_with(key, distribution, unit), base_dir=CONFIG_DIR / "docking")
        assert [(e.path, e.code.value, e.message) for e in report.errors] == [
            (f"reference_store/{key}/distribution", "TypeMismatch", reason)
        ]

    @pytest.mark.parametrize(
        "distribution, unit",
        [
            ({"kind": "constant", "value": 10.0}, "centimeter"),
            ({"kind": "discrete_choice", "values": [0.0, 0.3]}, "meter"),
            ({"kind": "uniform", "low": 0.0, "high": 1.0}, "meter"),
        ],
    )
    def test_value_in_range_or_not_fixed_passes(self, distribution, unit):
        assert errors_of(self.short_tree_with("dock_radius", distribution, unit)) == []

    @pytest.mark.parametrize(
        "target, limit, errors",
        [
            ("value", -0.1, [("reference_store/dock_radius/distribution", "TypeMismatch")]),
            ("value", 0.0, []),
            # an updater with no limit may move the value anywhere: reset checks each draw
            ("value", None, []),
        ],
    )
    def test_an_updater_limit_is_a_value_the_spec_can_yield(self, target, limit, errors):
        tree = self.short_tree_with("dock_radius", {"kind": "constant", "value": 0.1}, "meter")
        updater = {"target": target, "step": -0.05} if limit is None else {"target": target, "step": -0.05, "limit": limit}
        tree["reference_store"]["dock_radius"]["updaters"] = [updater]
        assert errors_of(tree) == errors

    def test_agent_store_is_checked_at_its_path(self):
        tree = env_tree("docking")
        agent = tree["agents"][0]
        agent["reference_store"] = {"r": {"distribution": {"kind": "constant", "value": -1.0}, "unit": "meter"}}
        agent["dones"][0]["references"]["dock_radius"] = "r"
        assert errors_of(tree) == [("agents/0/reference_store/r/distribution", "TypeMismatch")]

    def test_wrapped_reference_is_found(self):
        tree = env_tree("docking")
        tree["reference_store"]["t"] = {"distribution": {"kind": "constant", "value": 1.0}, "unit": "meter"}
        tree["agents"][0]["dones"].append({
            "functor": "StateBounds",
            "name": "Outer",
            "config": {"status": "DRAW"},
            "wrapped": {
                "functor": "TargetValueDifference",
                "config": {"unit": "meter"},
                "references": {"target_value": "t"},
                "wrapped": "ObservePosition",
            },
        })
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        assert report.ok, str(report)
        # each reader of each key, once per place that reads it: the
        # simulator's initialization values, then each functor reference
        readers = episode_parameters(config)[0].readers
        assert {key: [p.name for p in params] for key, params in readers.items()} == {
            "deputy.x0": ["x0"],
            "deputy.v0": ["v0"],
            "dock_radius": ["dock_radius", "dock_radius"],
            "v_max": ["velocity_limit", "velocity_limit"],
            "t": ["target_value"],
        }
