"""Declared parameter tables: one parser read by both `validate` and the constructors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.config import loader
from envforge.config.validate import (
    ErrorCode,
    ValidationReport,
    parse_functor_spec,
    validate_environment,
)
from envforge.environment import Environment
from envforge.epp import Constant, ParameterSpec
from envforge.evaluation.evaluate import run_episode
from envforge.functors import (
    BUILTIN_FUNCTORS,
    FunctorError,
    FunctorSpec,
    PartBindingError,
    build_graph,
)
from envforge.params import ANY, SOURCE, Param, check_inputs, nonnegative, parse_params
from envforge.parts import Platform
from envforge.policies import PolicyError, ScriptedPolicy
from envforge.simulators.docking import (
    Deputy1d,
    _position_sensor,
    _thrust_controller,
    _velocity_sensor,
)
from envforge.units import METER, METER_PER_SECOND, SECOND, Quantity, get_unit

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
        settings, errors = parse_params(RADIUS, {"radius": 2.0}, {})
        assert errors == [] and settings == {"radius": 2.0, "count": 1}

    def test_value_with_unit_is_converted_to_the_declared_unit(self):
        settings, errors = parse_params(RADIUS, {"radius": {"value": 50.0, "unit": "centimeter"}}, {})
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
        settings, errors = parse_params(RADIUS, {"radius": raw}, {})
        assert [(path, c) for path, c, _ in errors] == [("config/radius", code)]
        assert "radius" not in settings

    def test_unknown_key_and_missing_required(self):
        _, errors = parse_params(RADIUS, {"radius_m": 1.0}, {})
        assert [(path, c) for path, c, _ in errors] == [
            ("config/radius_m", "UnknownField"),
            ("config/radius", "MissingField"),
        ]

    def test_only_a_referenceable_param_may_be_referenced(self):
        settings, errors = parse_params(RADIUS, {}, {"radius": "r"})
        assert errors == [] and "radius" not in settings
        _, errors = parse_params(RADIUS, {"radius": 1.0}, {"count": "n"})
        assert [(path, c) for path, c, _ in errors] == [("references/count", "UnknownField")]

    def test_int_overflow_is_a_type_mismatch(self):
        _, errors = parse_params(RADIUS, {"radius": 1.0, "count": math.inf}, {})
        assert [(path, c) for path, c, _ in errors] == [("config/count", "TypeMismatch")]

    def test_param_in_config_and_references_conflicts(self):
        _, errors = parse_params(RADIUS, {"radius": 1.0}, {"radius": "r"})
        assert [(path, c) for path, c, _ in errors] == [("config/radius", "ConflictingField")]

    def test_range_is_checked_after_unit_conversion(self):
        table = (Param("radius", nonnegative, unit=METER),)
        settings, errors = parse_params(table, {"radius": {"value": 50.0, "unit": "centimeter"}}, {})
        assert errors == [] and settings["radius"] == pytest.approx(0.5)
        _, errors = parse_params(table, {"radius": {"value": -50.0, "unit": "centimeter"}}, {})
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


# Values for the names a functor binds to a part, so that construction can
# fail only where parsing does; every other parameter draws from POOL.
BOUND_NAMES = {"sensor": "Sensor_Position", "controller": "Controller_Thrust", "platform": "deputy"}
POOL = [
    0.5, -3, 7, math.nan, math.inf, True, None, "LOSS", "WIN", "meter", "N/A", "nope",
    [1.0], {"value": 2.0, "unit": "centimeter"}, {"value": 2.0, "unit": "second"},
    {"value": 2.0}, {"value": "x", "unit": "meter"},
]


@st.composite
def functor_configs(draw):
    """A built-in's name and a config over its declared keys, valid or not, maybe with an unknown key."""
    name = draw(st.sampled_from(sorted(BUILTIN_FUNCTORS)))
    config = {}
    for param in BUILTIN_FUNCTORS[name].params:
        if draw(st.booleans()):
            bound = BOUND_NAMES.get(param.name)
            config[param.name] = draw(st.sampled_from(POOL if bound is None else [bound, 5, None]))
    if draw(st.booleans()):
        config["not_a_param"] = 1.0
    return name, config


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
            "ObservePosition/direct_observation": Quantity.scalar(-10.0, METER),
            "ObserveVelocity/direct_observation": Quantity.scalar(0.0, METER_PER_SECOND),
        }
        assert policy._rule(observation, {})["T"].tolist() == [0.3]

    @settings(max_examples=300, deadline=None)
    @given(functor_configs())
    def test_validate_reports_no_error_exactly_when_the_functor_builds(self, case):
        name, config = case
        report = ValidationReport()
        parsed = parse_functor_spec({"functor": name, "config": config}, "f", report, {})
        assert parsed is not None
        try:
            BUILTIN_FUNCTORS[name](FunctorSpec(name, config=config), {}, None, docking_platforms())
            built = True
        except FunctorError:
            built = False
        assert report.ok == built, str(report)


# The glue every input case below may read, by name or through an extractor.
POSITION = FunctorSpec("ObserveSensor", "P", config={"sensor": "Sensor_Position", "normalize": False})
CHILD = {"functor": "ObserveSensor", "config": {"sensor": "Sensor_Velocity", "normalize": False}}
VALID_CONFIG = {
    "ObserveSensor": {"sensor": "Sensor_Position"},
    "ControllerGlue": {"controller": "Controller_Thrust"},
    "DockingSuccess": {"dock_radius": 0.1, "velocity_limit": 0.2},
    "DockingFailure": {"dock_radius": 0.1, "velocity_limit": 0.2},
    "ExponentialDecayFromTargetValue": {"eps": 5.0},
}


def build_beside_position(spec):
    return build_graph(docking_platforms(), glues=[POSITION], dones=[spec])


def validate_and_build(tree):
    """The errors ``parse_functor_spec`` reports for tree, and the build's FunctorError or None."""
    report = ValidationReport()
    spec = parse_functor_spec(tree, "f", report, {})
    try:
        build_beside_position(spec)
    except FunctorError as exc:
        return [(e.path, e.code) for e in report.errors], exc
    return [(e.path, e.code) for e in report.errors], None


@st.composite
def functor_inputs(draw):
    """A built-in with a valid config, given no input, one child, a list or a
    mapping of children under declared or other keys, an extractor, or both."""
    name = draw(st.sampled_from(sorted(BUILTIN_FUNCTORS)))
    tree = {"functor": name, "name": "Culprit", "config": VALID_CONFIG.get(name, {})}
    children = [CHILD, "P"]
    shape = draw(st.sampled_from(["none", "one", "list", "mapping"]))
    if shape == "one":
        tree["wrapped"] = draw(st.sampled_from(children))
    elif shape == "list":
        tree["wrapped"] = children
    elif shape == "mapping":
        keys = draw(st.lists(st.sampled_from(["value", "onto", "first", "second", "x"]), unique=True, max_size=3))
        tree["wrapped"] = {key: children[i % 2] for i, key in enumerate(keys)}
    if draw(st.booleans()):
        tree["extractor"] = {"glue": "P"}
    return tree


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
            ({"functor": "TargetValueDifference", "config": {"unit": "meter"}}, "wrapped"),
            ({"functor": "Projection", "wrapped": {"value": "P"}}, "wrapped/onto"),
            ({"functor": "DockingSuccess", "config": VALID_CONFIG["DockingSuccess"], "wrapped": "P"}, "wrapped"),
            ({"functor": "StateBounds", "wrapped": "P", "extractor": {"glue": "P"}}, "wrapped"),
        ],
    )
    def test_input_defect_fails_in_validate_and_at_build(self, tree, path):
        errors, exc = validate_and_build({**tree, "name": "Culprit"})
        assert len(errors) == 1 and errors[0][0] == f"f/{path}"
        assert str(exc).startswith(f"Culprit ({tree['functor']}): {path}: ")

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
            tree["extractor"] = {"glue": "P"}
        errors, exc = validate_and_build(tree)
        assert errors == [(f"f/config/{field}", ErrorCode.TYPE_MISMATCH)]
        assert str(exc).startswith(f"Culprit ({functor}): config/{field}: ")

    @settings(max_examples=300, deadline=None)
    @given(functor_inputs())
    def test_validate_reports_no_error_exactly_when_the_inputs_build(self, tree):
        errors, exc = validate_and_build(tree)
        assert (errors == []) == (exc is None), (errors, exc)


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
        assert in_cm.final_outcome == {"deputy_agent": "WIN"} and len(in_cm.steps) > 1
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
        report = ValidationReport()
        store = {"r": ParameterSpec("r", Constant(0.1), SECOND), "v": ParameterSpec("v", Constant(0.2), METER_PER_SECOND)}
        tree = {"functor": "DockingSuccess", "references": {"dock_radius": "r", "velocity_limit": "v"}}
        parse_functor_spec(tree, "f", report, store)
        assert [(e.path, e.code) for e in report.errors] == [
            ("f/references/dock_radius", ErrorCode.DIMENSION_MISMATCH)
        ]
        store["r"] = ParameterSpec("r", Constant(10.0), get_unit("centimeter"))
        report = ValidationReport()
        parse_functor_spec(tree, "f", report, store)
        assert report.ok


class TestReferencedValues:
    """A referenced value is sampled each episode and checked by its param's ``parse`` when bound."""

    @staticmethod
    def short_config_with(key, distribution, unit):
        tree = loader.load_config(CONFIG_DIR / "docking" / "environment_short.yml")
        tree["reference_store"][key] = {"distribution": distribution, "unit": unit}
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        # validate cannot see a sample, so the config is valid
        assert report.ok, str(report)
        return config

    @pytest.mark.parametrize(
        "key, unit, param",
        [("dock_radius", "meter", "dock_radius"), ("v_max", "meter_per_second", "velocity_limit")],
    )
    def test_sample_out_of_range_fails_reset_naming_functor_param_and_key(self, key, unit, param):
        config = self.short_config_with(key, {"kind": "constant", "value": -0.1}, unit)
        env = Environment(config)
        with pytest.raises(FunctorError) as info:
            env.reset(seed=7)
        message = str(info.value)
        assert message.startswith(f"DockingSuccess (DockingSuccess): references/{param}: ")
        assert f"'{key}'" in message and "must be >= 0, got -0.1" in message
        artifact = run_episode(env, seed=7)
        assert artifact.steps == [] and artifact.error.startswith("FunctorError: DockingSuccess")

    def test_sample_is_converted_before_it_is_checked(self):
        # -10 cm is out of range in metres as well; 10 cm binds as 0.1 m
        config = self.short_config_with("dock_radius", {"kind": "constant", "value": -10.0}, "centimeter")
        with pytest.raises(FunctorError, match="must be >= 0, got -0.1"):
            Environment(config).reset(seed=0)
        config = self.short_config_with("dock_radius", {"kind": "constant", "value": 10.0}, "centimeter")
        env = Environment(config)
        env.reset(seed=0)
        success = env.agents["deputy_agent"].graph.by_name["DockingSuccess"].functor
        assert success.param(env.state, "dock_radius") == pytest.approx(0.1)

    def test_uniform_reference_is_rebound_on_every_reset(self):
        config = self.short_config_with("dock_radius", {"kind": "uniform", "low": 0.05, "high": 0.5}, "meter")
        env = Environment(config)
        graph = env.agents["deputy_agent"].graph
        radii = set()
        for seed in range(8):
            env.reset(seed=seed)
            sampled = env.epp.current_sample["dock_radius"].item
            radii.add(sampled)
            for name in ("DockingSuccess", "DockingFailure"):
                functor = graph.by_name[name].functor
                assert functor.param(env.state, "dock_radius") == sampled
                assert functor.param(env.state, "velocity_limit") == env.epp.current_sample["v_max"].item
        assert len(radii) == 8
