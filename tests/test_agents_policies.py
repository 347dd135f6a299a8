import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.agents import PolicyPool, attach_parts, build_agent
from envforge.config.schema import AgentConfig, PartConfig, PolicyConfig
from envforge.functors.base import FunctorSpec, PartBindingError
from envforge.parts import Box, Platform
from envforge.policies import (
    POLICY_REGISTRY,
    PolicyError,
    RandomPolicy,
    ReplayPolicy,
    ScriptedPolicy,
)
from envforge.simulators.docking import Deputy1d, Docking1dSimulator
from envforge.units import NEWTON

from conftest import spy_calls


def docking_platforms():
    platform = Platform("deputy", "Docking1dPlatform", Deputy1d(-10.0, 0.0, 1.0))
    return {"deputy": platform}


def docking_agent_config(name="a", policy=None):
    return AgentConfig(
        name=name,
        platform_names=["deputy"],
        parts=[
            PartConfig("Sensor_Position"),
            PartConfig("Sensor_Velocity"),
            PartConfig("Controller_Thrust", {"thrust_limit": 1.0}),
        ],
        glues=[
            FunctorSpec(
                "ObserveSensor",
                "ObservePosition",
                config={"sensor": "Sensor_Position", "normalize": False},
            ),
            FunctorSpec(
                "ObserveSensor",
                "ObserveVelocity",
                config={"sensor": "Sensor_Velocity", "normalize": False},
            ),
            FunctorSpec("ControllerGlue", "ThrustControl", config={"controller": "Controller_Thrust"}),
        ],
        policy=policy or PolicyConfig("random"),
    )


def built_docking_agent(policy=None, pool=None):
    platforms = docking_platforms()
    config = docking_agent_config(policy=policy)
    attach_parts(config, platforms, Docking1dSimulator.simulator_type)
    return build_agent(config, platforms, pool or PolicyPool()), platforms


class TestAgentSpaces:
    def test_observation_space_keys(self):
        agent, _ = built_docking_agent()
        assert set(agent.observation_space()) == {
            "ObservePosition/direct_observation",
            "ObserveVelocity/direct_observation",
        }

    def test_action_space_keyed_by_glue_name(self):
        agent, _ = built_docking_agent()
        space = agent.action_space()
        assert set(space) == {"ThrustControl"}
        box = space["ThrustControl"]
        assert box.low[0] == -1.0 and box.high[0] == 1.0
        assert box.unit is NEWTON

    def test_each_space_is_one_read_only_mapping(self):
        # The recorder and the policies take each observation's unit from it.
        agent, _ = built_docking_agent()
        for space in (agent.observation_space, agent.action_space):
            assert space() is space()
            with pytest.raises(TypeError):
                space()["ObservePosition/direct_observation"] = Box(1, 0.0, 1.0)

    @pytest.mark.parametrize(
        "key, name",
        [("action_glue", "Thrust"), ("position_obs", "meter"), ("velocity_obs", "ObserveVelocity")],
    )
    def test_scripted_rule_names_are_checked_at_build(self, key, name):
        # A name the rule would look up in the step's observations, or
        # return as an action, fails the build at its setting.
        policy = PolicyConfig("scripted", {"rule": "bang_bang_docking", key: name})
        with pytest.raises(PolicyError) as info:
            built_docking_agent(policy)
        assert [(path, code) for path, code, _ in info.value.errors] == [(f"policy/config/{key}", "UnknownReference")]
        assert repr(name) in str(info.value)

    def test_a_default_that_names_nothing_is_reported_at_the_policy_config(self):
        # the config has no action_glue key to report at: the error is at the
        # config that left it out, and names the key and its default
        platforms = docking_platforms()
        agent = docking_agent_config(policy=PolicyConfig("scripted", {"rule": "bang_bang_docking"}))
        agent.glues = [glue for glue in agent.glues if glue.name != "ThrustControl"]
        attach_parts(agent, platforms, Docking1dSimulator.simulator_type)
        with pytest.raises(PolicyError) as info:
            build_agent(agent, platforms, PolicyPool())
        assert [(path, code) for path, code, _ in info.value.errors] == [("policy/config", "UnknownReference")]
        assert "'action_glue' defaults to 'ThrustControl', but the agent has no action glue 'ThrustControl'" in str(
            info.value
        )

    def test_replayed_action_names_are_checked_at_build(self):
        # Each step's unknown name fails at its step; a known one, or a
        # fragment of the wrong length (a run-time ActionShapeMismatch), passes.
        actions = [{"ThrustControl": [0.1]}, {"Thrust": [0.1]}, {}, {"ThrustControl": [0.1, 0.2], "Other": 1.0}]
        with pytest.raises(PolicyError) as info:
            built_docking_agent(PolicyConfig("replay", {"actions": actions}))
        assert [(path, code) for path, code, _ in info.value.errors] == [
            ("policy/config/actions/1/Thrust", "UnknownReference"),
            ("policy/config/actions/3/Other", "UnknownReference"),
        ]
        assert "'Thrust'" in str(info.value)

    def test_unknown_platform_raises(self):
        config = docking_agent_config()
        config.platform_names = ["ghost"]
        with pytest.raises(PartBindingError):
            build_agent(config, docking_platforms(), PolicyPool())


class TestAttachParts:
    def test_parts_attached_to_first_platform(self):
        platforms = docking_platforms()
        config = docking_agent_config()
        attach_parts(config, platforms, Docking1dSimulator.simulator_type)
        assert set(platforms["deputy"].parts) == {
            "Sensor_Position",
            "Sensor_Velocity",
            "Controller_Thrust",
        }

    def test_already_attached_groups_shared(self):
        platforms = docking_platforms()
        config = docking_agent_config()
        attach_parts(config, platforms, Docking1dSimulator.simulator_type)
        first = platforms["deputy"].parts["Sensor_Position"]
        attach_parts(docking_agent_config("b"), platforms, Docking1dSimulator.simulator_type)
        assert platforms["deputy"].parts["Sensor_Position"] is first

    def test_explicit_platform_selection(self):
        platforms = docking_platforms()
        platforms["chief"] = Platform("chief", "Docking1dPlatform", Deputy1d(0.0, 0.0, 1.0))
        config = docking_agent_config()
        config.platform_names = ["chief", "deputy"]
        config.parts = [PartConfig("Sensor_Position", {"platform": "deputy"})]
        attach_parts(config, platforms, Docking1dSimulator.simulator_type)
        assert "Sensor_Position" in platforms["deputy"].parts
        assert "Sensor_Position" not in platforms["chief"].parts


class TestPolicyPool:
    def test_same_declaration_shares_instance(self):
        pool = PolicyPool()
        a = pool.get("random", {})
        b = pool.get("random", {})
        assert a is b

    def test_different_config_distinct_instances(self):
        pool = PolicyPool()
        assert pool.get("replay", {}) is not pool.get("replay", {"actions": [{"G": [1.0]}]})

    @pytest.mark.parametrize(
        "name, config, path",
        [("random", {"tag": 1}, "config/tag"), ("replay", {"actons": [{"G": [1.0]}]}, "config/actons")],
    )
    def test_undeclared_config_key_is_an_error(self, name, config, path):
        with pytest.raises(PolicyError) as info:
            PolicyPool().get(name, config)
        assert info.value.errors == [(path, "UnknownField", info.value.errors[0][2])]

    def test_shared_instance_observable_via_calls_counter(self):
        # Aliasing check: actions computed through either agent reach one
        # shared instance.
        pool = PolicyPool()
        agent_a, _ = built_docking_agent(pool=pool)
        agent_b, _ = built_docking_agent(pool=pool)
        assert agent_a.policy is agent_b.policy
        calls = spy_calls(agent_a.policy)
        space = agent_a.action_space()
        agent_a.policy.compute_action({}, space)
        agent_b.policy.compute_action({}, space)
        assert len(calls) == 2

    def test_unknown_policy(self):
        with pytest.raises(PolicyError):
            PolicyPool().get("telepathy", {})


class TestRandomPolicy:
    def test_actions_within_bounds_10k(self):
        policy = RandomPolicy(seed=1)
        space = {"a": Box(2, -0.5, 1.5), "b": Box(1, -3.0, -1.0)}
        for _ in range(10_000):
            action = policy.compute_action({}, space)
            assert np.all(action["a"] >= -0.5) and np.all(action["a"] <= 1.5)
            assert np.all(action["b"] >= -3.0) and np.all(action["b"] <= -1.0)

    def test_unbounded_dimensions_default_to_unit_interval(self):
        policy = RandomPolicy(seed=2)
        space = {"a": Box(1, -np.inf, np.inf)}
        samples = [policy.compute_action({}, space)["a"][0] for _ in range(100)]
        assert all(-1.0 <= s <= 1.0 for s in samples)

    def test_seeded_reproducibility(self):
        space = {"a": Box(3, -1.0, 1.0)}
        a = RandomPolicy(seed=5).compute_action({}, space)["a"]
        b = RandomPolicy(seed=5).compute_action({}, space)["a"]
        assert np.array_equal(a, b)

    def test_reseed_resets_stream(self):
        space = {"a": Box(1, -1.0, 1.0)}
        policy = RandomPolicy(seed=5)
        first = policy.compute_action({}, space)["a"]
        policy.reseed(5)
        assert np.array_equal(policy.compute_action({}, space)["a"], first)

    def test_draws_equal_generator_uniform_bit_for_bit(self):
        # The draws are those of Generator.uniform over the finite sampling
        # bounds, including after a name's box is replaced.
        wide = {"a": Box(3, [-1.0, -0.3, 2.0], [1.0, 5.0, 2.5]), "b": Box(1, -np.inf, 7.0)}
        narrow = {"a": Box(3, 0.0, [1e-3, 1e3, 0.0]), "b": Box(1, -2.0, np.inf)}
        policy = RandomPolicy(seed=11)
        rng = np.random.default_rng(11)
        for space in [wide, wide, narrow, wide, narrow]:
            action = policy.compute_action({}, space)
            for name, box in space.items():
                low = np.where(np.isfinite(box.low), box.low, -1.0)
                high = np.where(np.isfinite(box.high), box.high, 1.0)
                assert action[name].tobytes() == rng.uniform(low, high).tobytes()

    def test_overflowing_range_rejected(self):
        with pytest.raises(PolicyError, match="'a'"):
            RandomPolicy(seed=0).compute_action({}, {"a": Box(1, -1e308, 1e308)})


class TestScriptedPolicy:
    def obs(self, x, v):
        return {
            "ObservePosition/direct_observation": np.array([x]),
            "ObserveVelocity/direct_observation": np.array([v]),
        }

    def space(self):
        return {"ThrustControl": Box(1, -1.0, 1.0, NEWTON)}

    def test_unknown_rule(self):
        with pytest.raises(PolicyError):
            ScriptedPolicy({"rule": "nope"})

    def test_zero_rule(self):
        policy = ScriptedPolicy({"rule": "zero"})
        action = policy.compute_action({}, self.space())
        assert action["ThrustControl"][0] == 0.0

    def test_bang_bang_accelerates_toward_dock(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking"})
        action = policy.compute_action(self.obs(-10.0, 0.0), self.space())
        assert action["ThrustControl"][0] == pytest.approx(0.1)

    def test_bang_bang_brakes_when_too_fast(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking"})
        action = policy.compute_action(self.obs(-1.0, 0.5), self.space())
        assert action["ThrustControl"][0] == pytest.approx(-0.1)

    def test_bang_bang_coasts_in_deadband(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking"})
        action = policy.compute_action(self.obs(-1.0, 0.1), self.space())
        assert action["ThrustControl"][0] == 0.0

    def test_deterministic(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking"})
        a = policy.compute_action(self.obs(-3.0, 0.2), self.space())
        b = policy.compute_action(self.obs(-3.0, 0.2), self.space())
        assert np.array_equal(a["ThrustControl"], b["ThrustControl"])

    def test_output_clipped_to_action_space(self):
        policy = ScriptedPolicy({"rule": "bang_bang_docking", "thrust": 99.0})
        action = policy.compute_action(self.obs(-10.0, 0.0), self.space())
        assert action["ThrustControl"][0] == 1.0


class TestReplayPolicy:
    def test_plays_back_then_zeros(self):
        space = {"g": Box(1, -1.0, 1.0)}
        policy = ReplayPolicy({"actions": [{"g": [0.3]}, {"g": [-0.7]}]})
        assert policy.compute_action({}, space)["g"][0] == pytest.approx(0.3)
        assert policy.compute_action({}, space)["g"][0] == pytest.approx(-0.7)
        assert policy.compute_action({}, space)["g"][0] == 0.0

    def test_reset_rewinds(self):
        space = {"g": Box(1, -1.0, 1.0)}
        policy = ReplayPolicy({"actions": [{"g": [0.5]}]})
        policy.compute_action({}, space)
        policy.reset()
        assert policy.compute_action({}, space)["g"][0] == pytest.approx(0.5)


ELEMENT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)
BOUND = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
)


@st.composite
def box_and_values(draw):
    n = draw(st.integers(1, 4))
    pairs = [sorted(draw(st.tuples(BOUND, BOUND))) for _ in range(n)]
    box = Box(n, [lo for lo, _ in pairs], [hi for _, hi in pairs])
    return box, np.array([draw(ELEMENT) for _ in range(n)])


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64).tolist()


class TestClamp:
    """Scripted and replayed actions are clamped exactly as ``np.clip`` clamps them."""

    @settings(max_examples=300, deadline=None)
    @given(box_and_values())
    def test_scripted_clamp_equals_np_clip_bit_for_bit(self, case):
        box, values = case
        policy = ScriptedPolicy({"rule": "zero"})
        policy._rule = lambda observation, action_space: {"a": values.tolist()}
        clamped = policy.compute_action({}, {"a": box})["a"]
        assert bits(clamped) == bits(np.clip(values, box.low, box.high))

    @settings(max_examples=300, deadline=None)
    @given(box_and_values())
    def test_replay_clamp_equals_np_clip_bit_for_bit(self, case):
        box, values = case
        if np.isnan(values).any():  # a recorded action is never NaN: the config is rejected
            with pytest.raises(PolicyError, match=r"config/actions/0/a/\d: .*nan"):
                ReplayPolicy({"actions": [{"a": values.tolist()}]})
            return
        policy = ReplayPolicy({"actions": [{"a": values.tolist()}]})
        played = policy.compute_action({}, {"a": box})["a"]
        assert bits(played) == bits(np.clip(values, box.low, box.high))
        zero = policy.compute_action({}, {"a": box})["a"]
        assert bits(zero) == bits(np.clip(np.zeros(box.shape), box.low, box.high))

    def test_signed_zero_and_infinite_bounds(self):
        box = Box(4, [0.0, -0.0, -np.inf, -np.inf], [0.0, -0.0, np.inf, -np.inf])
        values = np.array([-0.0, 0.0, -0.0, 5.0])
        policy = ReplayPolicy({"actions": [{"a": values.tolist()}]})
        played = policy.compute_action({}, {"a": box})["a"]
        assert bits(played) == bits(np.clip(values, box.low, box.high))


def test_policy_registry_contents():
    assert set(POLICY_REGISTRY) == {"random", "scripted", "replay"}
