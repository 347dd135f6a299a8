import math
import re
import sys

import numpy as np
import pytest

from envforge.environment import Environment
from envforge.epp import Constant, EpisodeParameterProvider, ParameterSpec
from envforge.evaluation.evaluate import run_episode
from envforge import params, units
from envforge.functors.base import (
    DoneResult,
    DoneStatusCode,
    EpisodeState,
    ExtractorSpec,
    FunctorError,
    FunctorSpec,
    UnknownExtractorTarget,
)
from envforge.functors.graph import CycleDetected, UnknownFunctor, build_graph, canonical_hash
from envforge.parts import Platform
from envforge.simulators.cartpole import CartPoleState
from envforge.simulators.cartpole import _state_sensor as cartpole_state_sensor
from envforge.simulators.docking import Deputy1d, _position_sensor, _velocity_sensor
from envforge.units import METER, METER_PER_SECOND, NONE, Quantity, get_unit

from conftest import CONFIG_DIR, load_env_config


def cartpole_platform(x=0.0, xdot=0.0, theta=0.0, thetadot=0.0):
    platform = Platform("cart", "CartPolePlatform", CartPoleState(x, xdot, theta, thetadot))
    platform.add_part(cartpole_state_sensor("Sensor_State", {}))
    return {"cart": platform}


def docking_platform(x=0.0, xdot=0.0):
    platform = Platform("deputy", "Docking1dPlatform", Deputy1d(x, xdot, 1.0))
    platform.add_part(_position_sensor("Sensor_Position", {}))
    platform.add_part(_velocity_sensor("Sensor_Velocity", {}))
    return {"deputy": platform}


def make_state(platforms, reference_values=None, horizon=1000, units=None):
    units = units or {}
    epp = EpisodeParameterProvider(
        [ParameterSpec(k, Constant(v), units.get(k, NONE)) for k, v in (reference_values or {}).items()]
    )
    epp.sample_episode(0)
    return EpisodeState(platforms, epp, horizon)


def evaluate_glues(graph, state):
    for node_id in graph.topo_order:
        node = graph.nodes[node_id]
        if node.kind == "glue":
            node.observation = node.functor.get_observation(state)


def observe_state_spec(name="ObserveState"):
    return FunctorSpec(
        "ObserveSensor", name, config={"sensor": "Sensor_State", "normalize": False}
    )


def tvd_done_spec(name, index, bound):
    """StateBounds wrapping a TVD over the shared glue, referenced by name."""
    return FunctorSpec(
        "StateBounds",
        name,
        config={"min": -bound, "max": bound, "status": "LOSS"},
        wrapped={
            "sensor": FunctorSpec(
                "TargetValueDifference",
                config={"index": index, "unit": "N/A"},
                wrapped={"sensor": "ObserveState"},
            )
        },
    )


class TestDeduplication:
    def test_shared_child_yields_three_nodes_not_four(self):
        # Two dones each wrap a TVD over the same named glue.  The glue
        # deduplicates; the TVDs differ (index 0 vs 2), so: 1 glue + 2 TVD
        # + 2 dones = 5 nodes, and the glue appears once.
        platforms = cartpole_platform()
        graph = build_graph(
            platforms,
            glues=[observe_state_spec()],
            dones=[tvd_done_spec("CartBounds", 0, 2.4), tvd_done_spec("PoleBounds", 2, 0.2)],
        )
        glue_nodes = [n for n in graph.nodes.values() if n.functor.spec.functor == "ObserveSensor"]
        assert len(glue_nodes) == 1
        assert graph.node_count == 5

    def test_identical_specs_collapse_to_three_nodes(self):
        # A glue, a done over it, and a second identical done spec: the
        # duplicate collapses, leaving glue + TVD + done = 3 nodes, not 4.
        platforms = cartpole_platform()
        graph = build_graph(
            platforms,
            glues=[observe_state_spec()],
            dones=[tvd_done_spec("Bounds", 0, 2.4), tvd_done_spec("Bounds", 0, 2.4)],
        )
        assert graph.node_count == 3
        assert len(graph.dones) == 1

    def test_specs_doubled_same_node_count(self):
        platforms = cartpole_platform()
        glues = [observe_state_spec()]
        dones = [tvd_done_spec("CartBounds", 0, 2.4)]
        once = build_graph(cartpole_platform(), glues, dones)
        twice = build_graph(platforms, glues + glues, dones + dones)
        assert once.node_count == twice.node_count

    def test_different_config_not_deduplicated(self):
        graph = build_graph(
            cartpole_platform(),
            glues=[
                observe_state_spec("A"),
                FunctorSpec("ObserveSensor", "B", config={"sensor": "Sensor_State", "normalize": True}),
            ],
        )
        assert graph.node_count == 2

    def test_canonical_hash_ignores_name(self):
        a = canonical_hash("F", {"x": 1}, {}, {}, None)
        b = canonical_hash("F", {"x": 1}, {}, {}, None)
        c = canonical_hash("F", {"x": 2}, {}, {}, None)
        assert a == b and a != c

    def test_canonical_hash_key_order_invariant(self):
        a = canonical_hash("F", {"x": 1, "y": 2}, {}, {}, None)
        b = canonical_hash("F", {"y": 2, "x": 1}, {}, {}, None)
        assert a == b


class TestGraphStructure:
    def test_topological_soundness(self):
        graph = build_graph(
            cartpole_platform(),
            glues=[observe_state_spec()],
            dones=[tvd_done_spec("CartBounds", 0, 2.4)],
        )
        for node in graph.nodes.values():
            for child_id in node.children:
                assert graph.order_index(child_id) < graph.order_index(node.id)

    def test_cycle_detected(self):
        # A wraps B and B wraps A, through name references.
        a = FunctorSpec("Norm", "A", wrapped="B")
        b = FunctorSpec("Norm", "B", wrapped="A")
        with pytest.raises(CycleDetected):
            build_graph(cartpole_platform(), glues=[a, b])

    def test_self_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_graph(cartpole_platform(), glues=[FunctorSpec("Norm", "A", wrapped="A")])

    def test_unknown_functor(self):
        with pytest.raises(UnknownFunctor):
            build_graph(cartpole_platform(), glues=[FunctorSpec("NoSuchFunctor", "X")])

    def test_unknown_wrapped_name(self):
        with pytest.raises(UnknownExtractorTarget):
            build_graph(cartpole_platform(), glues=[FunctorSpec("Norm", "A", wrapped="Ghost")])

    def test_extractor_resolves_named_glue(self):
        graph = build_graph(
            docking_platform(),
            glues=[
                FunctorSpec(
                    "ObserveSensor",
                    "ObservePosition",
                    config={"sensor": "Sensor_Position", "normalize": False},
                )
            ],
            rewards=[
                FunctorSpec(
                    "ExponentialDecayFromTargetValue",
                    "Shaping",
                    config={"eps": 1.0},
                    extractor=ExtractorSpec("ObservePosition", "direct_observation"),
                )
            ],
        )
        reward = graph.rewards[0].functor
        assert reward.source is not None
        assert reward.source.key == "direct_observation"

    def test_extractor_unknown_target(self):
        with pytest.raises(UnknownExtractorTarget):
            build_graph(
                docking_platform(),
                glues=[],
                rewards=[
                    FunctorSpec(
                        "ExponentialDecayFromTargetValue",
                        config={"eps": 1.0},
                        extractor=ExtractorSpec("Ghost"),
                    )
                ],
            )

    @pytest.mark.parametrize(
        "key, message",
        [(None, "'Pair' has 2 observations, so a key is needed"), ("ghost", "'Pair' has no observation 'ghost'")],
        ids=["no_key", "unknown_key"],
    )
    def test_extractor_error_names_its_functor(self, key, message):
        observe = {"normalize": False}
        pair = FunctorSpec(
            "Wrapper",
            "Pair",
            wrapped={
                "p": FunctorSpec("ObserveSensor", "P", config={"sensor": "Sensor_Position", **observe}),
                "v": FunctorSpec("ObserveSensor", "V", config={"sensor": "Sensor_Velocity", **observe}),
            },
        )
        shaping = FunctorSpec(
            "ExponentialDecayFromTargetValue",
            "Shaping",
            config={"eps": 1.0},
            extractor=ExtractorSpec("Pair", key),
        )
        expected = f"Shaping (ExponentialDecayFromTargetValue): extractor: {message}"
        with pytest.raises(FunctorError, match=re.escape(expected)):
            build_graph(docking_platform(), glues=[pair], rewards=[shaping])


class TestGlues:
    def test_observe_sensor_direct(self):
        platforms = docking_platform(x=-7.5)
        graph = build_graph(
            platforms,
            glues=[
                FunctorSpec(
                    "ObserveSensor",
                    "ObservePosition",
                    config={"sensor": "Sensor_Position", "normalize": False},
                )
            ],
        )
        state = make_state(platforms)
        evaluate_glues(graph, state)
        obs = graph.glues[0].observation
        assert np.array_equal(obs["direct_observation"], [-7.5])
        assert graph.glues[0].observation_space["direct_observation"].unit == METER

    def test_target_value_difference(self):
        platforms = cartpole_platform(x=0.4)
        tvd = FunctorSpec(
            "TargetValueDifference",
            "TVD",
            config={"index": 0, "unit": "N/A", "target_value": 1.0},
            wrapped={"sensor": observe_state_spec()},
        )
        graph = build_graph(platforms, glues=[tvd])
        state = make_state(platforms)
        evaluate_glues(graph, state)
        obs = graph.by_name["TVD"].observation
        assert obs["target_value_difference"][0] == pytest.approx(1.0 - 0.4)

    def test_norm_and_unit_vector(self):
        platforms = cartpole_platform(x=3.0, xdot=4.0)
        graph = build_graph(
            platforms,
            glues=[
                FunctorSpec("Norm", "N", wrapped={"sensor": observe_state_spec()}),
                FunctorSpec("UnitVector", "U", wrapped={"sensor": observe_state_spec()}),
            ],
        )
        state = make_state(platforms)
        evaluate_glues(graph, state)
        assert graph.by_name["N"].observation["norm"][0] == pytest.approx(5.0)
        uv = graph.by_name["U"].observation["unit_vector"]
        assert np.linalg.norm(uv) == pytest.approx(1.0)

    def test_observation_normalization(self):
        # A bounded sensor normalizes into [-1, 1] by min-max scaling.
        from envforge.parts import Box, Sensor

        platform = Platform("p", "T", state=7.5)
        prop = Box(1, 0.0, 10.0, METER, name="level")
        platform.add_part(Sensor("Sensor_Level", prop, lambda s: np.array([s])))
        platforms = {"p": platform}
        graph = build_graph(
            platforms,
            glues=[FunctorSpec("ObserveSensor", "G", config={"sensor": "Sensor_Level"})],
        )
        state = make_state(platforms)
        evaluate_glues(graph, state)
        value = graph.glues[0].observation["direct_observation"][0]
        assert value == pytest.approx(-1.0 + 2.0 * 7.5 / 10.0)
        box = graph.glues[0].functor.observation_space()["direct_observation"]
        assert box.low[0] == -1.0 and box.high[0] == 1.0


class TestDones:
    def test_state_bounds_inside_and_outside(self):
        platforms = cartpole_platform(x=0.0)
        graph = build_graph(
            platforms, glues=[observe_state_spec()], dones=[tvd_done_spec("B", 0, 2.4)]
        )
        state = make_state(platforms)
        evaluate_glues(graph, state)
        assert graph.dones[0].functor.evaluate(state) is None

        platforms["cart"].state.x = 2.5
        evaluate_glues(graph, state)
        result = graph.dones[0].functor.evaluate(state)
        assert result == DoneResult(DoneStatusCode.LOSS)

    def test_episode_horizon_truncates(self):
        platforms = cartpole_platform()
        graph = build_graph(platforms, glues=[], shared_dones=[FunctorSpec("EpisodeHorizon")])
        state = make_state(platforms, horizon=10)
        state.step_count = 9
        assert graph.shared_dones[0].functor.evaluate(state) is None
        state.step_count = 10
        result = graph.shared_dones[0].functor.evaluate(state)
        assert result.code is DoneStatusCode.DRAW and result.truncation

    def test_docking_success_and_failure(self):
        platforms = docking_platform(x=0.05, xdot=0.1)
        refs = {"dock_radius": 0.1, "v_max": 0.2}
        success = FunctorSpec(
            "DockingSuccess",
            references={"dock_radius": "dock_radius", "velocity_limit": "v_max"},
        )
        failure = FunctorSpec(
            "DockingFailure",
            references={"dock_radius": "dock_radius", "velocity_limit": "v_max"},
        )
        graph = build_graph(platforms, glues=[], dones=[success, failure])
        state = make_state(platforms, refs, units={"dock_radius": METER, "v_max": METER_PER_SECOND})
        graph.reset(state.epp.current_sample)  # binds the referenced values, as Environment.reset does
        assert graph.dones[0].functor.evaluate(state).code is DoneStatusCode.WIN
        assert graph.dones[1].functor.evaluate(state) is None

        platforms["deputy"].state.xdot = 0.5  # too fast: crash
        assert graph.dones[0].functor.evaluate(state) is None
        assert graph.dones[1].functor.evaluate(state).code is DoneStatusCode.LOSS

        platforms["deputy"].state.x = 5.0  # far away: nothing fires
        assert graph.dones[0].functor.evaluate(state) is None
        assert graph.dones[1].functor.evaluate(state) is None


class TestRewards:
    def shaping_graph(self, platforms, **config):
        base = {"eps": 2.0}
        base.update(config)
        return build_graph(
            platforms,
            glues=[
                FunctorSpec(
                    "ObserveSensor",
                    "ObservePosition",
                    config={"sensor": "Sensor_Position", "normalize": False},
                )
            ],
            rewards=[
                FunctorSpec(
                    "ExponentialDecayFromTargetValue",
                    "Shaping",
                    config=base,
                    extractor=ExtractorSpec("ObservePosition"),
                )
            ],
        )

    def test_exponential_decay_at_target_is_scale(self):
        platforms = docking_platform(x=0.0)
        graph = self.shaping_graph(platforms, scale=3.0)
        state = make_state(platforms)
        evaluate_glues(graph, state)
        assert graph.rewards[0].functor.evaluate(state, {}) == pytest.approx(3.0)

    def test_exponential_decay_formula(self):
        platforms = docking_platform(x=-4.0)
        graph = self.shaping_graph(platforms)
        state = make_state(platforms)
        evaluate_glues(graph, state)
        assert graph.rewards[0].functor.evaluate(state, {}) == pytest.approx(math.exp(-4.0 / 2.0))

    def test_moving_farther_pays_nothing_by_default(self):
        platforms = docking_platform(x=-1.0)
        graph = self.shaping_graph(platforms)
        state = make_state(platforms)
        evaluate_glues(graph, state)
        graph.rewards[0].functor.evaluate(state, {})
        platforms["deputy"].state.x = -2.0
        evaluate_glues(graph, state)
        assert graph.rewards[0].functor.evaluate(state, {}) == 0.0

    def test_reward_when_farther_factor(self):
        platforms = docking_platform(x=-1.0)
        graph = self.shaping_graph(platforms, reward_when_farther=0.5)
        state = make_state(platforms)
        evaluate_glues(graph, state)
        graph.rewards[0].functor.evaluate(state, {})
        platforms["deputy"].state.x = -2.0
        evaluate_glues(graph, state)
        assert graph.rewards[0].functor.evaluate(state, {}) == pytest.approx(
            0.5 * math.exp(-2.0 / 2.0)
        )

    def test_reset_clears_previous_distance(self):
        platforms = docking_platform(x=-1.0)
        graph = self.shaping_graph(platforms)
        state = make_state(platforms)
        evaluate_glues(graph, state)
        graph.rewards[0].functor.evaluate(state, {})
        graph.reset(state.epp.current_sample)
        platforms["deputy"].state.x = -2.0
        evaluate_glues(graph, state)
        # After reset there is no previous distance, so no damping.
        assert graph.rewards[0].functor.evaluate(state, {}) == pytest.approx(math.exp(-1.0))

    def test_constant_step_reward_suppressed_on_done(self):
        platforms = docking_platform()
        graph = build_graph(
            platforms, glues=[], rewards=[FunctorSpec("ConstantStepReward", config={"reward": 2.0})]
        )
        state = make_state(platforms)
        functor = graph.rewards[0].functor
        assert functor.evaluate(state, {}) == 2.0
        assert functor.evaluate(state, {"D": DoneResult(DoneStatusCode.WIN)}) == 0.0

    def test_done_status_reward(self):
        platforms = docking_platform()
        graph = build_graph(
            platforms,
            glues=[],
            rewards=[FunctorSpec("DoneStatusReward", config={"win": 10.0, "loss": -10.0})],
        )
        state = make_state(platforms)
        functor = graph.rewards[0].functor
        assert functor.evaluate(state, {}) == 0.0
        assert functor.evaluate(state, {"D": DoneResult(DoneStatusCode.WIN)}) == 10.0
        assert functor.evaluate(state, {"D": DoneResult(DoneStatusCode.LOSS)}) == -10.0
        assert functor.evaluate(state, {"D": DoneResult(DoneStatusCode.DRAW)}) == 0.0


def count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` with a counting wrapper in every envforge module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "envforge" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestSettingsResolvedOnce:
    """Config settings are parsed and converted at build; references per call."""

    # one parse per functor node, scripted policy, simulator and part:
    # docking's 3 glues, 2 dones, 2 rewards, the horizon, its policy, its
    # simulator and 3 parts; cartpole's 2 glues, 2 differences, 2 bounds,
    # 1 reward, the horizon, its simulator and 2 parts
    PARSED = {"docking": 13, "cartpole": 11}

    @pytest.mark.parametrize("task", ["docking", "cartpole"])
    def test_episodes_convert_each_value_once(self, task, monkeypatch):
        config = load_env_config(CONFIG_DIR / task / "environment.yml")
        parses = count_calls(monkeypatch, params.parse_params)
        env = Environment(config)
        assert len(parses) == self.PARSED[task]
        unit_lookups = count_calls(monkeypatch, get_unit)
        for seed in (1, 2, 3):
            artifact = run_episode(env, seed=seed)
            assert artifact.error is None and artifact.steps
            assert all(code is not None for code in artifact.final_outcome.values())
            # every config value was parsed and converted when the
            # environment was built, and none is in an episode
            assert len(parses) == self.PARSED[task]
        assert unit_lookups == []

    def test_references_are_read_per_episode(self, docking_config):
        env = Environment(docking_config)
        success = env.agents["deputy_agent"].graph.by_name["DockingSuccess"]
        start = {
            "deputy.x0": Quantity.scalar(-1.0, METER),
            "deputy.v0": Quantity.scalar(0.0, METER_PER_SECOND),
        }
        for radius, fires in [(2.0, True), (0.5, False), (2.0, True)]:
            env.reset(seed=0, overrides={**start, "dock_radius": Quantity.scalar(radius, METER)})
            assert success.functor.param(env.state, "dock_radius") == radius
            result = success.functor.evaluate(env.state)
            assert (result is not None and result.code is DoneStatusCode.WIN) is fires


def difference_spec(first, second):
    """Difference 'D' of two TargetValueDifferences over the deputy's position,
    each given as (unit, min, max, target_value)."""
    position = FunctorSpec(
        "ObserveSensor", "ObservePosition", config={"sensor": "Sensor_Position", "normalize": False}
    )

    def tvd(unit, low, high, target):
        config = {"unit": unit, "min": low, "max": high, "target_value": target}
        return FunctorSpec("TargetValueDifference", config=config, wrapped=position)

    return FunctorSpec("Difference", "D", wrapped={"first": tvd(*first), "second": tvd(*second)})


class TestDifferenceUnits:
    """``Difference`` is in first's unit: second's bounds and values are converted."""

    def test_bounds_and_value_in_first_unit(self):
        platforms = docking_platform(x=0.5)
        spec = difference_spec(("meter", -1.0, 1.0, 0.0), ("centimeter", -100.0, 100.0, 100.0))
        graph = build_graph(platforms, glues=[spec])
        node = graph.by_name["D"]
        box = node.observation_space["difference"]
        assert box.unit == METER
        assert box.low.tolist() == [-2.0] and box.high.tolist() == [2.0]
        evaluate_glues(graph, make_state(platforms))
        # first: 0 - 0.5 = -0.5 m; second: 100 - 0.5 = 99.5 cm = 0.995 m
        assert node.observation["difference"][0] == pytest.approx(-1.495, abs=1e-12)

    def test_same_unit_is_plain_subtraction(self):
        platforms = docking_platform(x=0.25)
        spec = difference_spec(("meter", -1.0, 1.0, 0.0), ("meter", -3.0, 2.0, 1.0))
        graph = build_graph(platforms, glues=[spec])
        node = graph.by_name["D"]
        box = node.observation_space["difference"]
        assert box.low.tolist() == [-3.0] and box.high.tolist() == [4.0]
        evaluate_glues(graph, make_state(platforms))
        assert node.observation["difference"].tolist() == [-0.25 - 0.75]

    def test_incompatible_units_fail_the_build(self):
        spec = difference_spec(("meter", -1.0, 1.0, 0.0), ("second", -1.0, 1.0, 0.0))
        message = r"^D \(Difference\): wrapped/second: cannot convert between 'second' \(time\) and 'meter' \(length\)$"
        with pytest.raises(FunctorError, match=message):
            build_graph(docking_platform(), glues=[spec])


class TestQuantityOnlyAtTheBoundary:
    """Inside ``step()`` values are bare arrays in their box's unit: the only
    ``Quantity`` built is one per returned observation, and nothing converts."""

    @pytest.mark.parametrize("task", ["docking", "cartpole"])
    def test_step_builds_one_quantity_per_observation(self, task, monkeypatch):
        env = Environment(load_env_config(CONFIG_DIR / task / "environment.yml"))
        built, converted = [], []
        post_init, to = Quantity.__post_init__, Quantity.to

        def counting_post_init(q):
            built.append(q)
            post_init(q)

        def counting_to(q, target):
            converted.append(target)
            return to(q, target)

        monkeypatch.setattr(Quantity, "__post_init__", counting_post_init)
        monkeypatch.setattr(Quantity, "to", counting_to)
        conversions = count_calls(monkeypatch, units.convert)
        for seed in (1, 2, 3):
            observations = env.reset(seed=seed)
            for calls in (built, converted, conversions):
                calls.clear()
            in_step = returned = steps = 0
            while not env.episode_done:
                actions = {
                    name: agent.policy.compute_action(observations.get(name, {}), agent.action_space())
                    for name, agent in env.agents.items()
                }
                before = len(built)
                observations = env.step(actions).observations
                in_step += len(built) - before
                returned += sum(len(obs) for obs in observations.values())
                steps += 1
            assert steps > 1 and returned > 0
            assert in_step == returned
            assert converted == [] and conversions == []
