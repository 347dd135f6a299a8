"""Spaces are compiled once per glue, checked per step, and sensors read once per step."""

import json
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.config.schema import SpaceCheckMode
from envforge.config.validate import validate_environment
from envforge.environment import Environment, ObservationShapeMismatch, SpaceViolation
from envforge.evaluation.evaluate import run_episode
from envforge.functors.base import SOURCE, Done, FunctorNode, Glue, Reward
from envforge.functors.builtins import ObserveSensor, TargetValueDifference
from envforge.functors.graph import FUNCTOR_REGISTRY
from envforge.parts import Box, InvalidReading, Sensor

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
        assert artifact.error is None and artifact.rows
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
    """The element loop the bounds check ran before spaces were compiled."""
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
    """The bounds ``_evaluate_glues`` checks as each glue returns, against the element loop."""

    env = None

    @classmethod
    def stub_glues(cls, entries) -> list:
        """Make the shared environment's glues one stub per (box, values)
        entry, in order, each returning ``{"obs": values}``; the reference's
        entries."""
        if cls.env is None:
            cls.env = Environment(load_env_config(CONFIG_DIR / "docking" / "environment.yml"))
            cls.env.reset(seed=0)
        (agent,) = cls.env.agents
        nodes = [FunctorNode(f"id{i}", "glue", f"Glue{i}", None, ()) for i in range(len(entries))]
        cls.env._observe = [
            (agent, node, lambda state, obs={"obs": values}: obs, (("obs", values.shape, None if box.unbounded else box),))
            for node, (box, values) in zip(nodes, entries)
        ]
        for node, (_, values) in zip(nodes, entries):
            node.observation = {"obs": values}
        return [(agent, node, "obs", box) for node, (box, _) in zip(nodes, entries)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(box_and_values(), min_size=1, max_size=3))
    def test_same_verdict_and_message_as_element_loop(self, entries):
        reference = self.stub_glues(entries)
        assert outcome(self.env._evaluate_glues) == outcome(lambda: reference_space_check(reference))

    def test_nan_passes_and_bound_values_pass(self):
        box = Box(3, -1.0, 1.0)
        self.stub_glues([(box, np.array([np.nan, -1.0, 1.0]))])
        self.env._evaluate_glues()
        self.stub_glues([(box, np.array([np.nan, -1.0, np.inf]))])
        with pytest.raises(SpaceViolation, match="element 2: value inf outside"):
            self.env._evaluate_glues()


class DrawnValue(Glue):
    """0.0 in a [-1, 1] box, except that the glue named ``leaves[0]`` returns
    ``leaves[2]`` at step count ``leaves[1]`` (0 is the reset)."""

    leaves: tuple[str, int, float] = ("", -1, 0.0)

    def observation_space(self):
        return {"value": Box(1, -1.0, 1.0)}

    def get_observation(self, state):
        name, step, value = DrawnValue.leaves
        return {"value": np.array([value if (self.name, state.step_count) == (name, step) else 0.0])}


#: (functor name, step count, value it read or None) of each done and reward call
READS: list[tuple[str, int, float | None]] = []


class ReadingDone(Done):
    inputs = SOURCE

    def evaluate(self, state):
        READS.append((self.name, state.step_count, float(self.source.value()[0])))
        return None


class CountingReward(Reward):
    def evaluate(self, state, done_results):
        READS.append((self.name, state.step_count, None))
        return 0.0


def drawn_value_tree(mode) -> dict:
    """One agent and the shared dones, each a ReadingDone of its own DrawnValue glue."""
    constant = {"distribution": {"kind": "constant", "value": 0.0}, "unit": "meter"}
    return {
        "simulator": {"name": "Docking1dSimulator", "config": {"frame_rate": 1.0, "mass": 1.0}},
        "platforms": [{
            "name": "deputy",
            "platform_type": "Docking1dPlatform",
            "initialization": {"x0": constant, "v0": {**constant, "unit": "meter_per_second"}},
        }],
        "agents": [{
            "agent": "agent_0",
            "platforms": ["deputy"],
            "glues": [{"functor": "DrawnValue", "name": "AgentValue"}],
            "dones": [{"functor": "ReadingDone", "name": "AgentDone", "wrapped": "AgentValue"}],
            "rewards": [{"functor": "CountingReward", "name": "AgentReward"}],
            "policy": {"name": "random"},
        }],
        "horizon": 20,
        "space_check_mode": mode,
        "shared_dones": [{
            "functor": "ReadingDone",
            "name": "SharedDone",
            "wrapped": {"functor": "DrawnValue", "name": "SharedValue"},
        }],
    }


OUTSIDE = st.one_of(st.floats(min_value=1.0, exclude_min=True), st.floats(max_value=-1.0, exclude_max=True))


class TestBoundsBeforeReaders:
    """A value outside its box raises as its glue returns it, before any done
    or reward reads it, on each reset and step whose mode checks bounds."""

    environments: dict[str, Environment] = {}

    @classmethod
    def environment(cls, mode: str) -> Environment:
        if mode not in cls.environments:
            functors = {"DrawnValue": DrawnValue, "ReadingDone": ReadingDone, "CountingReward": CountingReward}
            with mock.patch.dict(FUNCTOR_REGISTRY, functors):
                config, report = validate_environment(drawn_value_tree(mode))
                assert config is not None, str(report)
                cls.environments[mode] = Environment(config)
        return cls.environments[mode]

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["every_step", "off"]),
        st.sampled_from(["AgentValue", "SharedValue"]),
        st.integers(0, 6),
        OUTSIDE,
    )
    def test_raises_naming_the_owner_before_any_done_or_reward_runs(self, mode, glue, step, value):
        env = self.environment(mode)
        DrawnValue.leaves = (glue, step, value)
        READS.clear()

        def run():
            env.reset(seed=0)
            for _ in range(step):
                env.step({})

        if mode == "off":
            run()
            done = "AgentDone" if glue == "AgentValue" else "SharedDone"
            assert (step > 0) == ((done, step, value) in READS)
            return
        with pytest.raises(SpaceViolation) as caught:
            run()
        error = caught.value
        owner = "agent 'agent_0'" if glue == "AgentValue" else "shared_dones"
        assert (error.agent, error.glue) == ("agent_0" if glue == "AgentValue" else None, glue)
        assert str(error).startswith(f"observation out of bounds: {owner}, glue '{glue}', element 0: ")
        # each done and the reward ran on every step before, and nothing on this one
        assert [s for _, s, _ in READS] == [s for s in range(1, step) for _ in range(3)]


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
        steps = len(artifact.rows)
        assert artifact.final_outcome == {"deputy_agent": "WIN"} and steps > 10
        # Its glue reads each sensor once at reset and once every step.
        assert reads == {"Sensor_Position": 1 + steps, "Sensor_Velocity": 1 + steps}

    def test_bad_first_reading_of_an_observed_sensor_fails_reset(self, docking_config):
        env = Environment(docking_config)
        env.simulator.platforms["deputy"].parts["Sensor_Position"]._read = lambda state: np.array([np.inf])
        with pytest.raises(InvalidReading, match="Sensor_Position"):
            env.reset(seed=0)


def reshaping(get_observation, reshape, on=True):
    """``get_observation`` with each result passed through ``reshape`` while
    ``switch[0]`` is true, and that switch, initially ``on``."""
    switch = [on]

    def patched(self, state):
        observation = get_observation(self, state)
        return reshape(observation) if switch[0] else observation

    return patched, switch


def noting(get_observation, switch):
    """``get_observation`` that appends ``switch[0]`` to a list at each
    call, and that list."""
    notes = []

    def patched(self, state):
        notes.append(switch[0])
        return get_observation(self, state)

    return patched, notes


MODES = list(SpaceCheckMode)
MODE_IDS = [mode.value for mode in MODES]


class TestObservationShape:
    """Each glue's result is checked against its node's boxes as the glue
    returns it, in every space_check_mode; the mode governs the bounds only."""

    @pytest.mark.parametrize("shape", [(2,), (3,), (6,), (2, 2)], ids=["two", "three", "six", "two_by_two"])
    def test_other_shape_raises_naming_agent_glue_and_shapes(self, cartpole_config, monkeypatch, shape):
        patched, switch = reshaping(ObserveSensor.get_observation, lambda obs: {k: np.zeros(shape) for k in obs})
        monkeypatch.setattr(ObserveSensor, "get_observation", patched)
        env = Environment(cartpole_config)
        for call in (lambda: env.reset(seed=0), lambda: env.step({})):
            switch[0] = False
            env.reset(seed=0)
            switch[0] = True
            with pytest.raises(ObservationShapeMismatch) as caught:
                call()
            error = caught.value
            assert (error.agent, error.glue, error.got, error.expected) == (
                "cartpole_agent", "ObserveState", shape, (4,)
            )
            assert str(error) == (
                f"agent 'cartpole_agent', glue 'ObserveState': observation 'direct_observation' "
                f"has shape {shape}, expected (4,)"
            )

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_reset_checks_the_shape_when_a_check_runs(self, cartpole_config, monkeypatch, mode):
        # the shape is checked at the glue, so the check runs in every mode
        patched, _ = reshaping(ObserveSensor.get_observation, lambda obs: {k: np.resize(v, 6) for k, v in obs.items()})
        monkeypatch.setattr(ObserveSensor, "get_observation", patched)
        cartpole_config.space_check_mode = mode
        env = Environment(cartpole_config)
        with pytest.raises(ObservationShapeMismatch, match=r"has shape \(6,\), expected \(4,\)"):
            env.reset(seed=0)

    @pytest.mark.parametrize("phase", ["reset", "step"])
    def test_a_glue_failing_on_a_short_observation_names_the_observation(self, cartpole_config, monkeypatch, phase):
        # the pole-angle TargetValueDifference reads element 2 of ObserveState,
        # so it would raise IndexError on a two-element observation; the
        # check at ObserveState raises first, and TargetValueDifference never
        # reads it
        patched, switch = reshaping(
            ObserveSensor.get_observation, lambda obs: {k: v[:2] for k, v in obs.items()}, on=phase == "reset"
        )
        monkeypatch.setattr(ObserveSensor, "get_observation", patched)
        reading, reads = noting(TargetValueDifference.get_observation, switch)
        monkeypatch.setattr(TargetValueDifference, "get_observation", reading)
        env = Environment(cartpole_config)
        if phase == "step":
            env.reset(seed=0)
            switch[0] = True
        with pytest.raises(ObservationShapeMismatch) as caught:
            env.reset(seed=0) if phase == "reset" else env.step({})
        error = caught.value
        assert (error.agent, error.glue, error.got, error.expected) == ("cartpole_agent", "ObserveState", (2,), (4,))
        assert error.__cause__ is None
        assert True not in reads

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize(
        "result, found",
        [
            (lambda obs: {}, "is missing"),
            (lambda obs: {k: v.tolist() for k, v in obs.items()}, "is a list"),
            (lambda obs: list(obs.values()), "is missing: the glue returned a list"),
        ],
        ids=["empty", "lists", "not_a_mapping"],
    )
    def test_a_missing_or_unarrayed_observation_names_agent_glue_and_key(
        self, cartpole_config, monkeypatch, mode, result, found
    ):
        patched, _ = reshaping(ObserveSensor.get_observation, result)
        monkeypatch.setattr(ObserveSensor, "get_observation", patched)
        cartpole_config.space_check_mode = mode
        with pytest.raises(ObservationShapeMismatch) as caught:
            Environment(cartpole_config).reset(seed=0)
        error = caught.value
        assert (error.agent, error.glue, error.key, error.got, error.expected) == (
            "cartpole_agent", "ObserveState", "direct_observation", found[3:], (4,)
        )
        assert str(error) == (
            f"agent 'cartpole_agent', glue 'ObserveState': observation 'direct_observation' "
            f"{found}, expected an array of shape (4,)"
        )
        assert error.__cause__ is None and error.__suppress_context__

    def test_a_glue_of_the_shared_dones_is_checked_and_named(self, monkeypatch):
        # LeftCorridor wraps an unnamed ObserveSensor of deputy_b's position;
        # the agents' observing glues are all named
        config = load_env_config(CONFIG_DIR / "docking" / "environment_two_agents.yml")
        get_observation = ObserveSensor.get_observation

        def patched(self, state):
            observation = get_observation(self, state)
            return {k: np.resize(v, 3) for k, v in observation.items()} if self.name == "ObserveSensor" else observation

        monkeypatch.setattr(ObserveSensor, "get_observation", patched)
        with pytest.raises(ObservationShapeMismatch) as caught:
            Environment(config).reset(seed=0)
        error = caught.value
        assert (error.agent, error.glue, error.got, error.expected) == (None, "ObserveSensor", (3,), (1,))
        assert str(error).startswith("shared_dones, glue 'ObserveSensor': observation 'direct_observation' ")

    def test_a_glue_failing_on_well_shaped_observations_raises_its_own_error(self, cartpole_config, monkeypatch):
        def failing(self, state):
            raise RuntimeError("sensor offline")

        monkeypatch.setattr(ObserveSensor, "get_observation", failing)
        with pytest.raises(RuntimeError, match="^sensor offline$"):
            Environment(cartpole_config).reset(seed=0)


CARTPOLE = load_env_config(CONFIG_DIR / "cartpole" / "environment.yml")

#: (kind, size) of a glue result: its box's array, one of another length
#: (0 and 4 included), a 2-D one, one without the key, and a list
GLUE_RESULTS = st.one_of(
    st.just(("box", None)),
    st.tuples(st.just("length"), st.integers(0, 8)),
    st.tuples(st.just("2d"), st.tuples(st.integers(1, 3), st.integers(1, 3))),
    st.just(("missing", None)),
    st.just(("list", None)),
)


def glue_result(observation: dict, kind: str, size) -> dict:
    if kind == "length" or kind == "2d":
        return {k: np.resize(v, size) for k, v in observation.items()}
    if kind == "missing":
        return {}
    if kind == "list":
        return {k: v.tolist() for k, v in observation.items()}
    return observation


class TestObservationShapeProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        GLUE_RESULTS,
        st.sampled_from(MODES),
        st.sampled_from(["reset", "step"]),
        st.integers(0, 2**16),
    )
    def test_typed_error_exactly_when_a_result_is_not_its_box_shape(self, result, mode, phase, seed):
        kind, size = result
        well_formed = kind == "box" or (kind == "length" and size == 4)
        patched, switch = reshaping(
            ObserveSensor.get_observation, lambda obs: glue_result(obs, kind, size), on=phase == "reset"
        )
        reading, reads = noting(TargetValueDifference.get_observation, switch)
        with mock.patch.object(ObserveSensor, "get_observation", patched), \
                mock.patch.object(TargetValueDifference, "get_observation", reading):
            env = Environment(replace(CARTPOLE, space_check_mode=mode))
            if phase == "step":
                env.reset(seed=seed)
                switch[0] = True
            if not well_formed:
                with pytest.raises(ObservationShapeMismatch) as caught:
                    env.reset(seed=seed) if phase == "reset" else env.step({})
                error = caught.value
                assert (error.agent, error.glue) == ("cartpole_agent", "ObserveState")
                assert "agent 'cartpole_agent', glue 'ObserveState'" in str(error)
                assert True not in reads  # no glue read the result
                return
            artifact = run_episode(env, seed)
        assert artifact.error is None and artifact.rows
        (agent,) = env.agents.values()
        for layout, values in artifact.rows:
            record = json.loads(layout.line(values))
            for name, fragment in record["actions"]["cartpole_agent"].items():
                assert len(fragment) == agent.action_space()[name].shape
            for name, observation in record["observations"]["cartpole_agent"].items():
                assert len(observation["values"]) == agent.observation_space()[name].shape
