"""Spaces are compiled once per glue, checked per step, and sensors read once per step."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.environment import Environment, SpaceViolation
from envforge.evaluation.evaluate import run_episode
from envforge.functors.base import FunctorNode, Glue
from envforge.functors.graph import FUNCTOR_REGISTRY
from envforge.parts import Box, Sensor

from conftest import CONFIG_DIR, load_env_config


def count_space_calls(monkeypatch) -> list[tuple[str, str]]:
    """Replace every glue class's space methods with counting wrappers."""
    calls = []
    for cls in {Glue, *FUNCTOR_REGISTRY.values()}:
        for attr in ("observation_space", "action_space"):
            if attr in cls.__dict__:
                original = cls.__dict__[attr]

                def counting(self, _original=original, _attr=attr):
                    calls.append((type(self).__name__, _attr))
                    return _original(self)

                monkeypatch.setattr(cls, attr, counting)
    return calls


class TestSpacesCompiledOnce:
    @pytest.mark.parametrize("task", ["docking", "cartpole"])
    def test_episode_calls_no_space_method(self, task, monkeypatch):
        config = load_env_config(CONFIG_DIR / task / "environment.yml")
        env = Environment(config)
        calls = count_space_calls(monkeypatch)
        artifact = run_episode(env, seed=3)
        assert artifact.error is None and artifact.steps
        assert all(code is not None for code in artifact.final_outcome.values())
        assert calls == []
        # The wrappers do count: building compiles each glue's spaces once.
        fresh = Environment(config)
        glues = sum(
            node.kind == "glue"
            for agent in fresh.agents.values()
            for node in agent.graph.nodes.values()
        )
        assert Counter(attr for _, attr in calls) == {
            "observation_space": glues,
            "action_space": glues,
        }

    def test_agent_action_space_is_one_read_only_mapping(self, docking_config):
        agent = next(iter(Environment(docking_config).agents.values()))
        space = agent.action_space()
        assert space is agent.action_space()
        assert set(space) == {"ThrustControl"}
        with pytest.raises(TypeError):
            space["ThrustControl"] = Box(1, -2.0, 2.0)

    def test_node_spaces_equal_functor_methods(self, docking_config):
        for agent in Environment(docking_config).agents.values():
            for node in agent.graph.glues:
                assert node.observation_space.keys() == node.functor.observation_space().keys()
                for key, box in node.observation_space.items():
                    fresh = node.functor.observation_space()[key]
                    assert box.shape == fresh.shape and box.unit == fresh.unit
                    assert np.array_equal(box.low, fresh.low) and np.array_equal(box.high, fresh.high)
                assert (node.action_space is None) == (node.functor.action_space() is None)


def reference_space_check(entries):
    """The element loop ``_space_check`` ran before spaces were compiled."""
    for name, node, key, box in entries:
        values = node.observation[key]
        for i, v in enumerate(values):
            if v < box.low[i] or v > box.high[i]:
                raise SpaceViolation(name, node.name, i, float(v), float(box.low[i]), float(box.high[i]))


def outcome(check) -> str | None:
    try:
        check()
    except SpaceViolation as exc:
        return str(exc)
    return None


BOUND = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([-np.inf, np.inf, 0.0, -0.0]),
)


@st.composite
def box_and_values(draw):
    n = draw(st.integers(1, 4))
    pairs = [sorted(draw(st.tuples(BOUND, BOUND))) for _ in range(n)]
    low = np.array([lo for lo, _ in pairs])
    high = np.array([hi for _, hi in pairs])
    values = [
        draw(st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([np.nan, np.inf, -np.inf, lo, hi]),
        ))
        for lo, hi in pairs
    ]
    return Box(n, low, high), np.array(values, dtype=float)


INFINITE_PAIR = st.sampled_from(
    [(-np.inf, np.inf), (-np.inf, -np.inf), (np.inf, np.inf), (-np.inf, 0.0), (0.0, np.inf)]
)


@st.composite
def boxes(draw):
    n = draw(st.integers(1, 4))
    pairs = [draw(st.one_of(INFINITE_PAIR, st.tuples(BOUND, BOUND).map(sorted))) for _ in range(n)]
    return Box(n, [lo for lo, _ in pairs], [hi for _, hi in pairs])


class TestUnboundedBox:
    @settings(max_examples=300, deadline=None)
    @given(boxes())
    def test_unbounded_exactly_when_every_low_is_minus_inf_and_every_high_plus_inf(self, box):
        expected = all(lo == -np.inf for lo in box.low) and all(hi == np.inf for hi in box.high)
        assert box.unbounded is expected

    def test_equal_infinite_bounds_are_bounded(self):
        assert Box(2, -np.inf, np.inf).unbounded
        assert not Box(1, -np.inf, -np.inf).unbounded
        assert not Box(1, np.inf, np.inf).unbounded
        assert not Box(2, [-np.inf, -np.inf], [np.inf, 1e308]).unbounded

    def test_flag_takes_no_part_in_equality(self):
        assert Box(1, -np.inf, np.inf) == Box(1, -np.inf, np.inf, name="other")
        assert "unbounded" not in repr(Box(1, -np.inf, np.inf))


class TestSpaceCheck:
    env = None

    @classmethod
    def shared_env(cls) -> Environment:
        if cls.env is None:
            cls.env = Environment(load_env_config(CONFIG_DIR / "docking" / "environment.yml"))
            cls.env.reset(seed=0)
        return cls.env

    @settings(max_examples=300, deadline=None)
    @given(st.lists(box_and_values(), min_size=1, max_size=3))
    def test_same_verdict_and_message_as_element_loop(self, entries):
        env = self.shared_env()
        (agent,) = env.agents.values()
        nodes = [FunctorNode(f"id{i}", "glue", f"Glue{i}", None, ()) for i in range(len(entries))]
        agent.observation_layout = [
            (f"{node.name}/obs", node, "obs", box) for node, (box, _) in zip(nodes, entries)
        ]
        for node, (_, values) in zip(nodes, entries):
            node.observation = {"obs": values}
        reference = [(agent.name, node, "obs", box) for node, (box, _) in zip(nodes, entries)]
        assert outcome(env._space_check) == outcome(lambda: reference_space_check(reference))

    def test_nan_passes_and_bound_values_pass(self):
        env = self.shared_env()
        node = FunctorNode("id", "glue", "G", None, ())
        (agent,) = env.agents.values()
        agent.observation_layout = [("G/obs", node, "obs", Box(3, -1.0, 1.0))]
        node.observation = {"obs": np.array([np.nan, -1.0, 1.0])}
        env._space_check()
        node.observation = {"obs": np.array([np.nan, -1.0, np.inf])}
        with pytest.raises(SpaceViolation, match="element 2: value inf outside"):
            env._space_check()


class TestSensorReads:
    def test_one_read_per_observing_glue_per_step(self, docking_config, monkeypatch):
        env = Environment(docking_config)
        reads = Counter()
        original = Sensor.measure

        def counting(self, platform_state):
            reads[self.name] += 1
            return original(self, platform_state)

        monkeypatch.setattr(Sensor, "measure", counting)
        artifact = run_episode(env, seed=0)
        steps = len(artifact.steps)
        assert artifact.final_outcome == {"deputy_agent": "WIN"} and steps > 10
        # At reset the simulator reads each sensor once and its glue reads it
        # once; every step after that, only the glue reads it.
        assert reads == {"Sensor_Position": 2 + steps, "Sensor_Velocity": 2 + steps}
