"""One strict reader per kind of config value, over every table that reads one.

A number is a real number that is not a boolean and not NaN; a finite number
is also not an infinity; an integer is not a boolean and not a float; a
string is a string.  Each table reads its values with these readers, so a
value of the wrong kind fails where it enters: as one ``TypeMismatch`` at its
key's path from ``validate``, as the same error from ``Environment(config)``
for a config built in Python, and as ``ValueError`` from a distribution built
in Python.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.config.validate import validate_environment
from envforge.environment import Environment
from envforge.epp import DISTRIBUTION_KINDS, DiscreteChoice, ParameterSpec
from envforge.evaluation import (
    InvalidCase,
    InvalidCaseParameter,
    InvalidMetricEntry,
    InvalidVizEntry,
    TestCase,
    parse_condition_set,
    parse_metric_config,
    parse_viz_config,
)
from envforge.evaluation.evaluate import _case_overrides
from envforge.params import ConfigError, Param, finite, integer, list_of, number, optional, table, value_in
from envforge.simulators.cartpole import CONSTANTS
from envforge.units import METER, UnknownUnit


def constant(value, unit="none"):
    return {"distribution": {"kind": "constant", "value": value}, "unit": unit}


def docking_tree():
    """A docking environment whose config reads every built-in numeric key
    but cart-pole's: each functor, part, simulator and scripted-rule table,
    each distribution kind and an updater."""
    return {
        "simulator": {"name": "Docking1dSimulator", "config": {"frame_rate": 1.0, "mass": 1.0}},
        "platforms": [
            {
                "name": "deputy",
                "platform_type": "Docking1dPlatform",
                "initialization": {"x0": constant(-10.0, "meter"), "v0": constant(0.0, "meter_per_second")},
            }
        ],
        "agents": [
            {
                "agent": "a",
                "platforms": ["deputy"],
                "parts": [
                    {"part": "Sensor_Position"},
                    {"part": "Sensor_Velocity"},
                    {"part": "Controller_Thrust", "config": {"thrust_limit": 1.0}},
                ],
                "glues": [
                    {"functor": "ObserveSensor", "name": "P", "config": {"sensor": "Sensor_Position", "normalize": False}},
                    {"functor": "ObserveSensor", "name": "V", "config": {"sensor": "Sensor_Velocity", "normalize": False}},
                    {"functor": "ControllerGlue", "name": "T", "config": {"controller": "Controller_Thrust"}},
                    {
                        "functor": "TargetValueDifference",
                        "name": "Offset",
                        "config": {"index": 0, "min": -1000.0, "max": 1000.0, "target_value": 0.0},
                        "wrapped": "P",
                    },
                ],
                "dones": [
                    {"functor": "StateBounds", "name": "Bounds", "config": {"min": -500.0, "max": 500.0}, "wrapped": "P"},
                    {"functor": "DockingSuccess", "name": "Docked", "config": {"dock_radius": 0.1, "velocity_limit": 0.2}},
                ],
                "rewards": [
                    {"functor": "ConstantStepReward", "name": "Alive", "config": {"reward": 1.0}},
                    {
                        "functor": "ExponentialDecayFromTargetValue",
                        "name": "Shaping",
                        "config": {"eps": 5.0, "scale": 1.0, "reward_when_farther": 0.0, "target_value": 0.0},
                        "extractor": {"glue": "P"},
                    },
                    {
                        "functor": "DoneStatusReward",
                        "name": "Outcome",
                        "config": {"win": 10.0, "partial_win": 5.0, "draw": 0.0, "partial_loss": -5.0, "loss": -10.0},
                    },
                ],
                "policy": {
                    "name": "scripted",
                    "config": {
                        "rule": "bang_bang_docking",
                        "position_obs": "P/direct_observation",
                        "velocity_obs": "V/direct_observation",
                        "action_glue": "T",
                        "thrust": 0.1,
                        "v_cruise": 0.15,
                        "gain": 0.1,
                        "band": 0.01,
                    },
                },
            }
        ],
        "shared_dones": [{"functor": "EpisodeHorizon", "name": "Deadline", "config": {"horizon": 50}}],
        "horizon": 100,
        "reference_store": {
            "c": constant(1.0),
            "u": {
                "distribution": {"kind": "uniform", "low": 0.0, "high": 1.0},
                "updaters": [{"target": "high", "step": 0.1, "limit": 2.0}],
            },
            "g": {"distribution": {"kind": "truncated_gaussian", "mu": 0.0, "sigma": 1.0, "low": -1.0, "high": 1.0}},
            "d": {"distribution": {"kind": "discrete_choice", "values": [1.0, 2.0], "weights": [1.0, 1.0]}},
        },
    }


def cartpole_tree():
    """A cart-pole environment whose simulator overrides every constant."""
    return {
        "simulator": {
            "name": "CartPoleSimulator",
            "config": {
                "frame_rate": 50.0,
                "constants": {
                    "gravity": 9.8, "mass_cart": 1.0, "mass_pole": 0.1, "pole_half_length": 0.5,
                },
            },
        },
        "platforms": [
            {
                "name": "cart",
                "platform_type": "CartPolePlatform",
                "initialization": {
                    "x0": constant(0.0, "meter"),
                    "xdot0": constant(0.0, "meter_per_second"),
                    "theta0": constant(0.0, "radian"),
                    "thetadot0": constant(0.0, "radian_per_second"),
                },
            }
        ],
        "agents": [
            {
                "agent": "a",
                "platforms": ["cart"],
                "parts": [{"part": "Sensor_State"}, {"part": "Controller_Force", "config": {"force_limit": 10.0}}],
                "glues": [
                    {"functor": "ObserveSensor", "name": "S", "config": {"sensor": "Sensor_State", "normalize": False}},
                    {"functor": "ControllerGlue", "name": "F", "config": {"controller": "Controller_Force"}},
                ],
            }
        ],
        "horizon": 100,
    }


#: every numeric key of the two trees: (tree, path, reader kind, an in-range strategy)
NUMBER, FINITE, INTEGER = "number", "finite", "integer"
REALS = st.floats(-100.0, 100.0)
POSITIVE = st.floats(0.01, 100.0)
_A = "agents/0"
_STORE = "reference_store"
KEYS = [
    (docking_tree, "simulator/config/frame_rate", FINITE, POSITIVE),
    (docking_tree, "simulator/config/mass", FINITE, POSITIVE),
    (docking_tree, f"{_A}/parts/2/config/thrust_limit", FINITE, POSITIVE),
    (docking_tree, f"{_A}/glues/3/config/index", INTEGER, st.just(0)),
    (docking_tree, f"{_A}/glues/3/config/min", NUMBER, st.floats(-1000.0, -500.0)),
    (docking_tree, f"{_A}/glues/3/config/max", NUMBER, st.floats(500.0, 1000.0)),
    (docking_tree, f"{_A}/glues/3/config/target_value", NUMBER, REALS),
    (docking_tree, f"{_A}/dones/0/config/min", NUMBER, st.floats(-1000.0, -500.0)),
    (docking_tree, f"{_A}/dones/0/config/max", NUMBER, st.floats(500.0, 1000.0)),
    (docking_tree, f"{_A}/dones/1/config/dock_radius", FINITE, st.floats(0.0, 1.0)),
    (docking_tree, f"{_A}/dones/1/config/velocity_limit", FINITE, st.floats(0.0, 1.0)),
    (docking_tree, f"{_A}/rewards/0/config/reward", NUMBER, REALS),
    (docking_tree, f"{_A}/rewards/1/config/eps", FINITE, POSITIVE),
    *[(docking_tree, f"{_A}/rewards/1/config/{k}", NUMBER, REALS) for k in ("scale", "reward_when_farther")],
    *[
        (docking_tree, f"{_A}/rewards/2/config/{k}", NUMBER, REALS)
        for k in ("win", "partial_win", "draw", "partial_loss", "loss")
    ],
    *[(docking_tree, f"{_A}/policy/config/{k}", NUMBER, POSITIVE) for k in ("thrust", "v_cruise", "gain", "band")],
    (docking_tree, "shared_dones/0/config/horizon", INTEGER, st.integers(1, 100)),
    (docking_tree, "horizon", INTEGER, st.integers(1, 100)),
    (docking_tree, f"{_STORE}/c/distribution/value", FINITE, REALS),
    (docking_tree, f"{_STORE}/u/distribution/low", FINITE, st.floats(-1.0, 1.0)),
    (docking_tree, f"{_STORE}/u/distribution/high", FINITE, st.floats(0.0, 2.0)),
    (docking_tree, f"{_STORE}/u/updaters/0/step", FINITE, REALS),
    (docking_tree, f"{_STORE}/u/updaters/0/limit", FINITE, REALS),
    (docking_tree, f"{_STORE}/g/distribution/mu", FINITE, REALS),
    (docking_tree, f"{_STORE}/g/distribution/sigma", FINITE, POSITIVE),
    (docking_tree, f"{_STORE}/g/distribution/low", FINITE, st.floats(-10.0, 0.5)),
    (docking_tree, f"{_STORE}/g/distribution/high", FINITE, st.floats(-0.5, 10.0)),
    (docking_tree, f"{_STORE}/d/distribution/values/1", FINITE, REALS),
    (docking_tree, f"{_STORE}/d/distribution/weights/0", FINITE, POSITIVE),
    (cartpole_tree, "simulator/config/frame_rate", FINITE, POSITIVE),
    (cartpole_tree, "simulator/config/constants/gravity", FINITE, st.floats(0.5, 10.0)),
    *[
        (cartpole_tree, f"simulator/config/constants/{k}", FINITE, POSITIVE)
        for k in ("mass_cart", "mass_pole", "pole_half_length")
    ],
    (cartpole_tree, f"{_A}/parts/1/config/force_limit", FINITE, POSITIVE),
]

#: values of the wrong kind for any numeric key, and the infinities a finite or integer key rejects
NOT_NUMBERS = [True, False, "1", "0.5", math.nan]
INFINITIES = [math.inf, -math.inf]


def bad_values(kind: str) -> list:
    return NOT_NUMBERS + (INFINITIES if kind != NUMBER else []) + ([2.5] if kind == INTEGER else [])


def errors_of(tree) -> list[tuple[str, str]]:
    config, report = validate_environment(tree)
    assert (config is None) == (not report.ok)
    return [(e.path, e.code.value) for e in report.errors]


def holder(tree, path: str):
    """The mapping or list in ``tree`` that holds the key at ``path``, and the key."""
    *parents, key = path.split("/")
    for part in parents:
        tree = tree[int(part)] if isinstance(tree, list) else tree[part]
    return tree, int(key) if isinstance(tree, list) else key


def set_at(tree, path: str, value):
    tree = copy.deepcopy(tree)
    parent, key = holder(tree, path)
    parent[key] = value
    return tree


def python_holder(config, path: str):
    """The config mapping of a validated ``config`` that holds the key at
    ``path``, a key of a simulator's, part's, functor's or policy's config."""
    parts = path.split("/")
    if parts[0] == "simulator":
        target = config.simulator_config
    elif parts[0] == "shared_dones":
        target = config.shared_dones[int(parts[1])].config
    else:
        agent = config.agents[int(parts[1])]
        target = agent.policy.config if parts[2] == "policy" else getattr(agent, parts[2])[int(parts[3])].config
    tail = parts[parts.index("config") + 1:]
    for part in tail[:-1]:
        target = target[part]
    return target, tail[-1]


@st.composite
def bad_key(draw):
    tree, path, kind, _ = draw(st.sampled_from(KEYS))
    return tree, path, draw(st.sampled_from(bad_values(kind)))


class TestEveryTable:
    def test_base_trees_build(self):
        for tree in (docking_tree, cartpole_tree):
            config, report = validate_environment(tree())
            assert report.ok, str(report)
            Environment(config).reset(seed=0)

    @settings(max_examples=200, deadline=None)
    @given(bad_key())
    def test_wrong_kind_is_one_type_mismatch_at_its_path(self, case):
        tree, path, value = case
        assert errors_of(set_at(tree(), path, value)) == [(path, "TypeMismatch")]

    @settings(max_examples=100, deadline=None)
    @given(bad_key())
    def test_python_built_config_fails_alike(self, case):
        tree, path, value = case
        parts = path.split("/")
        if "distribution" in parts:
            # a distribution built in Python is checked by its own table
            parent, key = holder(tree(), path)
            if isinstance(parent, list):
                name, index = parts[-2], int(parts[-1])
                hyperparameters = dict(holder(tree(), "/".join(parts[:-2]))[0][parts[-3]])
                hyperparameters[name] = [value if i == index else v for i, v in enumerate(hyperparameters[name])]
            else:
                hyperparameters = {**parent, key: value}
            kind = hyperparameters.pop("kind")
            with pytest.raises(ValueError, match=f"{DISTRIBUTION_KINDS[kind].__name__}: "):
                ParameterSpec("p", DISTRIBUTION_KINDS[kind](**hyperparameters))
            return
        if "config" not in parts:
            return  # a structural section's key: validate alone reads it
        config, report = validate_environment(tree())
        assert report.ok, str(report)
        target, key = python_holder(config, path)
        target[key] = value
        with pytest.raises(ConfigError) as info:
            Environment(config)
        assert [(p, code) for p, code, _ in info.value.errors] == [(path, "TypeMismatch")]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KEYS).flatmap(lambda key: st.tuples(st.just(key), key[3])))
    def test_in_range_value_builds(self, case):
        (tree, path, _, _), value = case
        config, report = validate_environment(set_at(tree(), path, value))
        assert report.ok, str(report)
        Environment(config)

    def test_every_table_is_covered(self):
        # each registered functor with a numeric key, each distribution kind
        # and each cart-pole constant appears in KEYS
        paths = {path for _, path, _, _ in KEYS}
        functors = {f["functor"] for section in ("glues", "dones", "rewards") for f in docking_tree()["agents"][0][section]}
        assert {"TargetValueDifference", "StateBounds", "DockingSuccess", "ConstantStepReward",
                "ExponentialDecayFromTargetValue", "DoneStatusReward"} <= functors
        kinds = {tree["distribution"]["kind"] for tree in docking_tree()["reference_store"].values()}
        assert kinds == set(DISTRIBUTION_KINDS)
        constants = {p for p in paths if p.startswith("simulator/config/constants/")}
        assert constants == {f"simulator/config/constants/{p.name}" for p in CONSTANTS}


#: case, metric and visualization entries: (parse, tree with one entry, key, kind)
STRING = "string"
ENTRIES = [
    (parse_condition_set, {"test_cases": [{"name": "c", "seed": 1}]}, "name", STRING, InvalidCase),
    (parse_condition_set, {"test_cases": [{"name": "c", "seed": 1}]}, "seed", INTEGER, InvalidCase),
    (parse_metric_config, {"metrics": [{"name": "success_rate", "metric": "success_rate"}]}, "name", STRING,
     InvalidMetricEntry),
    (parse_metric_config, {"metrics": [{"name": "success_rate", "metric": "success_rate"}]}, "metric", STRING,
     InvalidMetricEntry),
    (parse_viz_config, {"visualizations": [{"type": "html", "file": "r.html", "title": "t"}]}, "file", STRING,
     InvalidVizEntry),
    (parse_viz_config, {"visualizations": [{"type": "html", "file": "r.html", "title": "t"}]}, "title", STRING,
     InvalidVizEntry),
]
NOT_STRINGS = [True, 1, 1.5, math.nan, ["a"], {"a": 1}]


class TestEveryEntry:
    @pytest.mark.parametrize("parse, tree, key, kind, error", ENTRIES, ids=lambda v: v if isinstance(v, str) else None)
    def test_wrong_kind_names_the_entry_and_key(self, parse, tree, key, kind, error):
        section = next(iter(tree))
        for value in NOT_STRINGS if kind == STRING else bad_values(kind):
            bad = {section: [{**tree[section][0], key: value}]}
            with pytest.raises(error, match=f" 0: {key}: invalid value for '{key}'"):
                parse(bad)
        assert parse(tree)

    @pytest.mark.parametrize("value", bad_values(FINITE))
    def test_case_parameter_of_wrong_kind(self, value, docking_short_config):
        env = Environment(docking_short_config)
        for raw in (value, {"value": value, "unit": "meter"}):
            with pytest.raises(InvalidCaseParameter, match="'c': parameter 'deputy.x0'"):
                _case_overrides(env.epp.specs, TestCase("c", {"deputy.x0": raw}))


class TestReaders:
    @pytest.mark.parametrize("raw", [True, "1", None, [1.0], math.nan])
    def test_number_rejects(self, raw):
        with pytest.raises((TypeError, ValueError)):
            number(raw)

    def test_number_takes_reals_and_infinities(self):
        assert number(3) == 3.0 and type(number(3)) is float
        assert number(math.inf) == math.inf
        with pytest.raises(ValueError, match="finite"):
            finite(-math.inf)
        with pytest.raises(TypeError):
            integer(2.0)

    def test_list_of_reports_each_bad_element_at_its_index(self):
        with pytest.raises(ConfigError) as info:
            list_of(finite)([1.0, "x", math.inf])
        assert [(p, c) for p, c, _ in info.value.errors] == [("1", "TypeMismatch"), ("2", "TypeMismatch")]
        assert optional(list_of(finite))(None) is None

    def test_value_in_reads_through_number(self):
        assert value_in({"value": 50.0, "unit": "centimeter"}, METER) == 0.5
        for raw in (True, {"value": "1", "unit": "meter"}, {"value": math.nan, "unit": "meter"}):
            with pytest.raises((TypeError, ValueError)):
                value_in(raw, METER)
        with pytest.raises(UnknownUnit):
            value_in({"value": 1.0, "unit": "furlong"}, METER)

    def test_table_lists_every_error(self):
        parse = table((Param("a", finite), Param("b", integer, 0)))
        assert parse({"a": 1}) == {"a": 1.0, "b": 0}
        with pytest.raises(ConfigError) as info:
            parse({"b": True, "c": 1})
        assert [(p, c) for p, c, _ in info.value.errors] == [
            ("b", "TypeMismatch"), ("c", "UnknownField"), ("a", "MissingField"),
        ]

    def test_python_built_discrete_choice_without_weights(self):
        ParameterSpec("p", DiscreteChoice([1.0, 2.0]))
        with pytest.raises(ValueError, match="DiscreteChoice: values/0: "):
            ParameterSpec("p", DiscreteChoice(["a"]))
