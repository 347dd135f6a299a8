import copy
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge import cli
from envforge.config.loader import load_config
from envforge.config.schema import SpaceCheckMode
from envforge.config.validate import validate_environment, validate_environment_file
from envforge.environment import (
    ActionShapeMismatch,
    Environment,
    EpisodeAlreadyDone,
    InvalidSeed,
    NonFiniteAction,
    SpaceViolation,
    UnknownActionKey,
)
from envforge.epp import (
    Constant, EpisodeParameterProvider, Increment, InvalidOverride, NotYetSampled, ParameterSpec,
    UnsampleableParameter,
)
from envforge.evaluation import TestCase, rollout
from envforge.evaluation.evaluate import run_episode as record_episode
from envforge.functors.base import DoneStatusCode
from envforge.policies import ScriptedPolicy
from envforge.simulators import SimulationDiverged, Simulator
from envforge.units import METER, RADIAN_PER_SECOND, SECOND, Quantity, get_unit

from conftest import (
    CONFIG_DIR, DATA_DIR, PHASES, load_env_config, phases, record_schedule, recorded_steps, spy_calls,
)


def docking_tree(
    horizon=50,
    end_mode="any_agent_done",
    space_check="every_step",
    agents=1,
    policy=None,
    x0=-10.0,
    extra_glues=None,
    dones=True,
):
    agent_trees = []
    for i in range(agents):
        agent_trees.append(
            {
                "agent": f"agent_{i}",
                "platforms": ["deputy"],
                "parts": [
                    {"part": "Sensor_Position"},
                    {"part": "Sensor_Velocity"},
                    {"part": "Controller_Thrust", "config": {"thrust_limit": 1.0}},
                ],
                "glues": [
                    {
                        "functor": "ObserveSensor",
                        "name": "ObservePosition",
                        "config": {"sensor": "Sensor_Position", "normalize": False},
                    },
                    {
                        "functor": "ObserveSensor",
                        "name": "ObserveVelocity",
                        "config": {"sensor": "Sensor_Velocity", "normalize": False},
                    },
                    {
                        "functor": "ControllerGlue",
                        "name": "ThrustControl",
                        "config": {"controller": "Controller_Thrust"},
                    },
                ]
                + (copy.deepcopy(extra_glues) or []),
                "dones": (
                    [
                        {
                            "functor": "DockingSuccess",
                            "name": "DockingSuccess",
                            "references": {"dock_radius": "dock_radius", "velocity_limit": "v_max"},
                        },
                        {
                            "functor": "DockingFailure",
                            "name": "DockingFailure",
                            "references": {"dock_radius": "dock_radius", "velocity_limit": "v_max"},
                        },
                    ]
                    if dones
                    else []
                ),
                "rewards": [
                    {
                        "functor": "ExponentialDecayFromTargetValue",
                        "name": "DistanceShaping",
                        "config": {"eps": 5.0},
                        "extractor": {"glue": "ObservePosition", "key": "direct_observation"},
                    },
                    {
                        "functor": "DoneStatusReward",
                        "name": "OutcomeReward",
                        "config": {"win": 10.0, "loss": -10.0},
                    },
                ],
                "policy": policy or {"name": "scripted", "config": {"rule": "bang_bang_docking"}},
            }
        )
    return {
        "simulator": {"name": "Docking1dSimulator", "config": {"frame_rate": 1.0, "mass": 1.0}},
        "platforms": [
            {
                "name": "deputy",
                "platform_type": "Docking1dPlatform",
                "initialization": {
                    "x0": {"distribution": {"kind": "constant", "value": x0}, "unit": "meter"},
                    "v0": {
                        "distribution": {"kind": "constant", "value": 0.0},
                        "unit": "meter_per_second",
                    },
                },
            }
        ],
        "agents": agent_trees,
        "horizon": horizon,
        "episode_end_mode": end_mode,
        "space_check_mode": space_check,
        "reference_store": {
            "dock_radius": {"distribution": {"kind": "constant", "value": 0.1}, "unit": "meter"},
            "v_max": {
                "distribution": {"kind": "constant", "value": 0.2},
                "unit": "meter_per_second",
            },
        },
    }


SHORT_CONFIG = load_env_config(CONFIG_DIR / "docking" / "environment_short.yml")


def make_env(**kwargs):
    config, report = validate_environment(docking_tree(**kwargs))
    assert config is not None, str(report)
    return Environment(config)


def run_episode(env, seed=0, max_steps=10_000):
    observations = env.reset(seed=seed)
    results = []
    while not env.episode_done and len(results) < max_steps:
        actions = {
            name: agent.policy.compute_action(observations.get(name, {}), agent.action_space())
            for name, agent in env.agents.items()
        }
        result = env.step(actions)
        results.append(result)
        observations = result.observations
    return results


class TestStepSchedule:
    def test_phase_order_over_100_steps(self, monkeypatch):
        # The calls each step makes, recorded on their classes: every step
        # runs the full schedule in declared order, so dones come strictly
        # before rewards.
        calls = record_schedule(monkeypatch)
        env = make_env(horizon=200, x0=-500.0)
        observations = env.reset(seed=0)
        for _ in range(100):
            actions = {
                name: agent.policy.compute_action(observations[name], agent.action_space())
                for name, agent in env.agents.items()
            }
            calls.clear()
            observations = env.step(actions).observations
            assert phases(calls) == PHASES

    def test_rewards_see_same_step_done_results(self):
        # The OutcomeReward pays 10.0 on the exact step DockingSuccess fires.
        env = make_env(horizon=300)
        results = run_episode(env)
        final = results[-1]
        assert final.done_codes["agent_0"] is DoneStatusCode.WIN
        assert final.reward_components["agent_0"]["OutcomeReward"] == 10.0

    def test_reward_is_exact_component_sum(self):
        env = make_env(horizon=300)
        for result in run_episode(env):
            for agent, total in result.rewards.items():
                assert total == sum(result.reward_components[agent].values())

    def test_observations_are_the_glue_arrays(self):
        # A policy reads each array its glue returned, uncopied; the unit is
        # that of its box in the agent's observation space.
        env = make_env(horizon=10, policy={"name": "scripted", "config": {"rule": "zero"}})
        agent = env.agents["agent_0"]
        for step in (lambda: env.reset(seed=0), lambda: env.step({}).observations):
            observations = step()["agent_0"]
            assert list(observations) == list(agent.observation_space())
            for name, node, key, _ in agent.observation_layout:
                assert observations[name] is node.observation[key]

    def test_step_after_done_raises(self):
        env = make_env(horizon=5, dones=False, policy={"name": "scripted", "config": {"rule": "zero"}})
        run_episode(env)
        with pytest.raises(EpisodeAlreadyDone):
            env.step({})

    def test_observations_refreshed_after_sim_step(self):
        env = make_env(horizon=10, x0=-10.0, policy={"name": "scripted", "config": {"rule": "zero"}})
        obs = env.reset(seed=0)
        assert obs["agent_0"]["ObservePosition/direct_observation"].tolist() == [-10.0]
        result = env.step({"agent_0": {"ThrustControl": np.array([1.0])}})
        # One 1 N / 1 kg step from rest moves 0.5 m.
        assert result.observations["agent_0"]["ObservePosition/direct_observation"].tolist() == [-9.5]


class TestEpisodeEnd:
    def test_horizon_draw_and_truncation(self):
        env = make_env(horizon=7, dones=False, policy={"name": "scripted", "config": {"rule": "zero"}})
        results = run_episode(env)
        assert len(results) == 7
        final = results[-1]
        assert final.env_done and final.truncated == {"agent_0": True}
        assert final.done_codes["agent_0"] is DoneStatusCode.DRAW

    def test_win_is_not_truncation(self):
        env = make_env(horizon=300)
        final = run_episode(env)[-1]
        assert final.done_codes["agent_0"] is DoneStatusCode.WIN
        assert final.truncated == {"agent_0": False}

    def test_any_agent_done_ends_episode(self):
        env = make_env(agents=2, end_mode="any_agent_done", horizon=300)
        final = run_episode(env)[-1]
        assert final.env_done

    def test_all_agents_done_waits_for_everyone(self):
        # Both agents share the platform and the same done criteria, so they
        # finish together; the point is that the mode is exercised end to end.
        env = make_env(agents=2, end_mode="all_agents_done", horizon=300)
        final = run_episode(env)[-1]
        assert final.env_done
        assert None not in final.done_codes.values()

    def test_shared_done_ends_episode_for_all(self):
        env = make_env(
            agents=2, end_mode="all_agents_done", horizon=5, dones=False,
            policy={"name": "scripted", "config": {"rule": "zero"}},
        )
        final = run_episode(env)[-1]
        assert final.env_done
        assert env.agent_done_codes["agent_0"] is DoneStatusCode.DRAW
        assert env.agent_done_codes["agent_1"] is DoneStatusCode.DRAW

    # A done is shared because it is listed under shared_dones, not because of its class.

    def test_any_done_under_shared_dones_ends_every_agent(self):
        tree = docking_tree(agents=2, end_mode="all_agents_done", dones=False)
        sensor = {"functor": "ObserveSensor", "config": {"sensor": "Sensor_Position", "normalize": False}}
        bounds = {"functor": "StateBounds", "name": "PastMark", "config": {"max": -9.0, "status": "WIN"}}
        tree["shared_dones"] = [{**bounds, "wrapped": {"sensor": sensor}}]
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        results = run_episode(Environment(config))
        position = [r.observations["agent_0"]["ObservePosition/direct_observation"][0] for r in results]
        fired = results[-1]
        assert 1 < len(results) < 50 and position[-2] <= -9.0 < position[-1]
        assert fired.env_done and fired.truncated == {"agent_0": False, "agent_1": False}
        assert fired.done_codes == {"agent_0": DoneStatusCode.WIN, "agent_1": DoneStatusCode.WIN}
        for name in ("agent_0", "agent_1"):
            assert fired.reward_components[name]["OutcomeReward"] == 10.0
            assert all(r.reward_components[name]["OutcomeReward"] == 0.0 for r in results[:-1])

    def test_episode_horizon_under_an_agents_dones_ends_only_that_agent(self):
        tree = docking_tree(
            agents=2, end_mode="all_agents_done", horizon=20, dones=False,
            policy={"name": "scripted", "config": {"rule": "zero"}},
        )
        tree["agents"][0]["dones"] = [{"functor": "EpisodeHorizon", "name": "Short", "config": {"horizon": 5}}]
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        results = run_episode(Environment(config))
        assert len(results) == 20
        assert results[4].done_codes == {"agent_0": DoneStatusCode.DRAW, "agent_1": None}
        assert results[4].truncated == {"agent_0": True, "agent_1": False} and not results[4].env_done
        assert all(set(r.done_codes) == set(r.truncated) == {"agent_1"} for r in results[5:])
        assert results[-1].env_done and results[-1].done_codes == {"agent_1": DoneStatusCode.DRAW}

    def test_an_agent_truncated_before_the_last_step_leaves_the_episode_untruncated(self, monkeypatch):
        # agent_0 draws at its own horizon on step 5; agent_1 docks later and
        # ends the episode with a WIN, which is no truncation.
        tree = docking_tree(agents=2, end_mode="all_agents_done", horizon=300)
        tree["agents"][0]["dones"] = [{"functor": "EpisodeHorizon", "name": "Short", "config": {"horizon": 5}}]
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        env = Environment(config)
        results = []
        step = env.step
        monkeypatch.setattr(env, "step", lambda actions: results.append(step(actions)) or results[-1])
        artifact = record_episode(env, seed=0)
        assert artifact.final_outcome == {"agent_0": "DRAW", "agent_1": "WIN"}
        assert results[4].done_codes["agent_0"] is DoneStatusCode.DRAW and not results[4].env_done
        assert results[4].truncated == {"agent_0": True, "agent_1": False}
        assert [i for i, r in enumerate(results) if True in r.truncated.values()] == [4]
        assert artifact.truncated is False

    def test_a_win_on_the_horizon_step_is_no_truncation(self, monkeypatch):
        # seed 0's deputy docks on step 77, so with the horizon at 77 the
        # shared horizon fires on the step the agent's own WIN ends it
        tree = load_config(CONFIG_DIR / "docking" / "environment_short.yml")
        tree["horizon"] = 77
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        assert config is not None, str(report)
        env = Environment(config)
        results = []
        step = env.step
        monkeypatch.setattr(env, "step", lambda actions: results.append(step(actions)) or results[-1])
        artifact = record_episode(env, seed=0)
        assert len(results) == 77
        assert results[-1].done_codes == {"deputy_agent": DoneStatusCode.WIN}
        assert results[-1].truncated == {"deputy_agent": False}
        assert artifact.final_outcome == {"deputy_agent": "WIN"}
        assert artifact.truncated is False

    @settings(max_examples=100, deadline=None)
    @given(
        end_mode=st.sampled_from(["any_agent_done", "all_agents_done"]),
        horizon=st.integers(1, 12),
        v0=st.floats(0.5, 2.0),
        agent_ends=st.lists(
            st.tuples(
                st.integers(1, 12),  # the agent's own EpisodeHorizon
                st.floats(-10.0, 10.0),  # where its StateBounds fires
                st.sampled_from(["WIN", "LOSS", "DRAW"]),  # a configured DRAW is no truncation
                st.booleans(),  # whether the horizon is listed first
            ),
            min_size=2, max_size=2,
        ),
    )
    def test_truncated_is_that_of_the_done_that_ended_each_agent(
        self, end_mode, horizon, v0, agent_ends
    ):
        tree = docking_tree(
            agents=2, end_mode=end_mode, horizon=horizon, dones=False,
            policy={"name": "scripted", "config": {"rule": "zero"}},
        )
        tree["platforms"][0]["initialization"]["v0"]["distribution"]["value"] = v0
        for agent, (own_horizon, bound, status, horizon_first) in zip(tree["agents"], agent_ends):
            dones = [
                {"functor": "StateBounds", "name": "Bound", "config": {"max": bound, "status": status},
                 "wrapped": "ObservePosition"},
                {"functor": "EpisodeHorizon", "name": "Own", "config": {"horizon": own_horizon}},
            ]
            agent["dones"] = dones[::-1] if horizon_first else dones
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        env = Environment(config)
        results = []
        step = env.step
        env.step = lambda actions: results.append(step(actions)) or results[-1]
        artifact = record_episode(env, seed=0)
        assert artifact.error is None and results[-1].env_done
        ended = set()
        for result in results:
            assert result.truncated.keys() == result.done_codes.keys()
            assert ended.isdisjoint(result.done_codes)  # an ended agent is absent from later steps
            for name, code in result.done_codes.items():
                if code is None:
                    assert result.truncated[name] is False
                else:
                    assert result.truncated[name] is env._outcome[name].truncation
                    ended.add(name)
        assert artifact.truncated is any(results[-1].truncated.values())


class TestInitializationUnits:
    """A platform initialization declared in another unit of its dimension
    starts the entity at the value converted to the simulator's unit."""

    @staticmethod
    def reset_state(tree, base_dir="."):
        """The entity state of the first platform after a reset."""
        config, report = validate_environment(tree, base_dir)
        assert config is not None, str(report)
        env = Environment(config)
        env.reset(seed=0)
        return env.simulator.platforms[config.platforms[0].name].state

    def test_docking_x0_in_kilometers(self):
        tree = docking_tree()
        tree["platforms"][0]["initialization"]["x0"] = {
            "distribution": {"kind": "constant", "value": -0.01}, "unit": "kilometer",
        }
        assert self.reset_state(tree).x == -10.0

    def test_cartpole_theta0_in_degrees(self, cartpole_env_path):
        tree = load_config(cartpole_env_path)
        tree["platforms"][0]["initialization"]["theta0"] = {
            "distribution": {"kind": "constant", "value": 6}, "unit": "degree",
        }
        assert self.reset_state(tree, cartpole_env_path.parent).theta == 6 * (math.pi / 180)


class TestAgentsOwnObservations:
    def two_platform_tree(self):
        """Agents with identical glue specs, each on its own Docking platform."""
        tree = docking_tree(agents=2, horizon=20, dones=False, policy={"name": "scripted", "config": {"rule": "zero"}})
        (deputy,) = tree["platforms"]
        tree["platforms"] = []
        for name, x0 in (("a", -10.0), ("b", 7.0)):
            platform = copy.deepcopy(deputy)
            platform["name"] = name
            platform["initialization"]["x0"]["distribution"]["value"] = x0
            tree["platforms"].append(platform)
        for agent, platform in zip(tree["agents"], ("a", "b")):
            agent["platforms"] = [platform]
        return tree

    def test_each_agent_observes_its_own_platform(self):
        config, report = validate_environment(self.two_platform_tree())
        assert config is not None, str(report)
        env = Environment(config)
        position = "ObservePosition/direct_observation"
        obs = env.reset(seed=0)
        assert obs["agent_0"][position].tolist() == [-10.0]
        assert obs["agent_1"][position].tolist() == [7.0]
        # Thrust only agent_1's craft: 1 N on 1 kg from rest moves it 0.5 m.
        result = env.step({"agent_1": {"ThrustControl": np.array([1.0])}})
        assert result.observations["agent_0"][position].tolist() == [-10.0]
        assert result.observations["agent_1"][position].tolist() == [7.5]
        for _ in range(3):
            result = env.step({})
        assert result.observations["agent_0"][position].tolist() == [-10.0]
        assert result.observations["agent_1"][position].tolist() == [10.5]


def write_logs(env, seeds, out):
    """Record one episode per seed and write the files `envforge run` writes."""
    out.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(seeds):
        record_episode(env, seed).write_csv(out / f"episode_{i}.csv")
    (out / "run_config.json").write_text(json.dumps(env.run_config(), indent=2, sort_keys=True))


class TestDeterminism:
    def run_and_log(self, tmp_path, tag):
        out = tmp_path / tag
        write_logs(make_env(horizon=300), [7, 8, 9], out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_identical_runs_identical_logs(self, tmp_path):
        assert self.run_and_log(tmp_path, "a") == self.run_and_log(tmp_path, "b")

    def test_seed_changes_episode(self):
        env = make_env(
            horizon=20, dones=False, policy={"name": "random"}, space_check="off"
        )
        first = [r.rewards["agent_0"] for r in run_episode(env, seed=1)]
        env2 = make_env(
            horizon=20, dones=False, policy={"name": "random"}, space_check="off"
        )
        second = [r.rewards["agent_0"] for r in run_episode(env2, seed=1)]
        assert first == second

    def test_reset_overrides(self):
        env = make_env()
        obs = env.reset(seed=0, overrides={"deputy.x0": Quantity.scalar(-42.0, METER)})
        assert obs["agent_0"]["ObservePosition/direct_observation"].tolist() == [-42.0]


class TestResetOverrideErrors:
    """A bad override raises before anything is drawn, naming its key, and
    leaves the episode in progress as it was."""

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("deputy.x00", Quantity.scalar(-7.0, METER),
             "no such parameter; declared: dock_radius, v_max, deputy.x0, deputy.v0"),
            ("deputy.x0", Quantity.scalar(-7.0, SECOND), "cannot convert between 'second' (time) and 'meter' (length)"),
            ("deputy.x0", -7.0, "expected a Quantity, got float"),
            ("deputy.x0", Quantity.scalar(1e308, get_unit("kilometer")), "overflows a float in meter"),
        ],
        ids=["undeclared", "other_dimension", "not_a_quantity", "overflow"],
    )
    def test_bad_override_raises_and_changes_nothing(self, docking_config, key, value, reason):
        env = Environment(docking_config)
        env.reset(seed=0)
        env.step({})
        sample, state, x = env.epp.current_sample, env.state, env.simulator.platforms["deputy"].state.x
        with pytest.raises(InvalidOverride) as caught:
            env.reset(seed=1, overrides={key: value})
        assert caught.value.name == key
        assert str(caught.value).startswith(f"override '{key}': ") and reason in str(caught.value)
        assert env.epp.current_sample is sample and env.state is state
        assert env.simulator.platforms["deputy"].state.x == x and env.state.step_count == 1
        assert not env.step({}).env_done


    def test_initialization_override_a_reader_refuses_raises_and_changes_nothing(self):
        # x0 is declared in kilometer, so the override converts to its unit;
        # the simulator reads it in meters, where -1e306 km is no float
        tree = load_config(CONFIG_DIR / "docking" / "environment_short.yml")
        tree["platforms"][0]["initialization"]["x0"] = {"distribution": {"kind": "constant", "value": -0.01}, "unit": "kilometer"}
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        assert report.ok, str(report)
        env = Environment(config)
        env.reset(seed=0)
        env.step({})
        sample, state, x = env.epp.current_sample, env.state, env.simulator.platforms["deputy"].state.x
        with pytest.raises(InvalidOverride) as caught:
            env.reset(seed=1, overrides={"deputy.x0": Quantity.scalar(-1.0e306, get_unit("kilometer"))})
        assert caught.value.name == "deputy.x0"
        assert str(caught.value) == "override 'deputy.x0': 'x0': a value in kilometer overflows a float in meter"
        assert env.epp.current_sample is sample and env.state is state
        assert env.simulator.platforms["deputy"].state.x == x and env.state.step_count == 1


class TestResetSeedErrors:
    """A seed that is not an integer of zero or more raises before anything
    changes, on a config that draws from no generator as on one that does."""

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"], ids=["negative", "fraction", "text"])
    def test_bad_seed_raises_and_changes_nothing(self, docking_config, seed):
        env = Environment(docking_config)
        env.reset(seed=0)
        env.step({})
        deputy = env.simulator.platforms["deputy"]
        sample, state, entity = env.epp.current_sample, env.state, deputy.state
        with pytest.raises(InvalidSeed) as caught:
            env.reset(seed=seed)
        assert caught.value.seed == seed
        assert str(caught.value).startswith(f"reset: seed {seed!r}: ")
        assert env.epp.current_sample is sample and env.state is state
        assert env.simulator.platforms == {"deputy": deputy} and deputy.state is entity
        assert env.state.step_count == 1 and not env.step({}).env_done

    def test_any_integer_of_zero_or_more_is_a_seed(self, cartpole_config):
        env = Environment(cartpole_config)
        for seed in (0, np.int64(3), 2**70):
            env.reset(seed=seed)
            assert not env.step({}).env_done


#: one step of thrust 0.5 N for the docking deputy, mass 1 kg
PUSH = {"deputy_agent": {"ThrustControl": np.array([0.5])}}


def curriculum_short_env(dock_radius_step=None, x0_step=None) -> Environment:
    """``environment_short.yml`` whose ``dock_radius`` (0.1 m) and
    ``deputy.x0`` (-10 m), each a constant, carry an updater without a limit
    of the given step; a step of None leaves the parameter as the file has it."""
    config = copy.deepcopy(SHORT_CONFIG)
    if dock_radius_step is not None:
        updater = Increment("value", dock_radius_step)
        config.reference_store["dock_radius"] = ParameterSpec("dock_radius", Constant(0.1), METER, [updater])
    if x0_step is not None:
        updater = Increment("value", x0_step)
        config.platforms[0].initialization["x0"] = ParameterSpec("x0", Constant(-10.0), METER, [updater])
    return Environment(config)


def step_outcome(env, actions):
    """What ``env.step(actions)`` gives: its result's fields, or the
    exception it raised, by type and message."""
    try:
        return vars(env.step(actions))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


#: a refused reset: (its arguments, the environment's updater steps, how
#: many training results to apply first, the error it raises)
REFUSED_RESETS = {
    "negative_seed": ({"seed": -1}, {}, 0, InvalidSeed),
    "fractional_seed": ({"seed": 1.5}, {}, 0, InvalidSeed),
    "unknown_override": (
        {"seed": 2, "overrides": {"deputy.x00": Quantity.scalar(-7.0, METER)}}, {}, 0, InvalidOverride,
    ),
    "out_of_range_override": (
        {"seed": 2, "overrides": {"dock_radius": Quantity.scalar(-1.0, METER)}}, {}, 0, InvalidOverride,
    ),
    # -0.1 m, which DockingSuccess and DockingFailure refuse
    "dock_radius_draw": ({"seed": 2}, {"dock_radius_step": -0.2}, 1, UnsampleableParameter),
    # -10 + 1e308 + 1e308 is inf, which the simulator's x0 refuses
    "x0_draw": ({"seed": 2}, {"x0_step": 1e308}, 2, UnsampleableParameter),
}


class TestRefusedResetChangesNothing:
    """A ``reset`` whose seed, override or draw is refused raises before
    anything changes: the episode it interrupted runs on as if it had not
    been called."""

    def test_a_draw_an_updater_moved_out_of_range_leaves_the_episode(self):
        env, twin = curriculum_short_env(dock_radius_step=-0.2), curriculum_short_env(dock_radius_step=-0.2)
        for e in (env, twin):
            e.reset(seed=1)
            for _ in range(5):
                e.step(PUSH)
            e.apply_training_result()
        with pytest.raises(UnsampleableParameter) as caught:
            env.reset(seed=2)
        assert str(caught.value) == (
            "episode parameters: reference_store/dock_radius/distribution: cannot be sampled: "
            "value -0.1 meter: 'dock_radius': must be >= 0, got -0.1"
        )
        deputy = env.simulator.platforms["deputy"].state
        assert env.state.step_count == 5 and (deputy.x, deputy.xdot) == (-3.75, 2.5)
        assert env.epp.current_sample["dock_radius"].item == 0.1 and not env.episode_done
        np.testing.assert_equal(step_outcome(env, PUSH), step_outcome(twin, PUSH))

    @settings(max_examples=30, deadline=None)
    @given(
        refused=st.sampled_from(sorted(REFUSED_RESETS)),
        seed=st.integers(0, 2**32),
        before=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        after=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
    )
    def test_the_steps_after_a_refused_reset_are_those_of_an_untouched_twin(self, refused, seed, before, after):
        arguments, updaters, training_results, error = REFUSED_RESETS[refused]
        env, twin = curriculum_short_env(**updaters), curriculum_short_env(**updaters)
        for e in (env, twin):
            e.reset(seed=seed)
            for thrust in before:
                step_outcome(e, {"deputy_agent": {"ThrustControl": np.array([thrust])}})
            for _ in range(training_results):
                e.apply_training_result()
        sample, state = env.epp.current_sample, env.state
        with pytest.raises(error):
            env.reset(**arguments)
        assert env.epp.current_sample is sample and env.state is state
        for thrust in after:
            actions = {"deputy_agent": {"ThrustControl": np.array([thrust])}}
            np.testing.assert_equal(step_outcome(env, actions), step_outcome(twin, actions))


class TestFailureEndsTheEpisode:
    """An exception in ``reset`` after its draw, or in ``step`` after its
    action checks, ends the episode: ``step`` raises ``EpisodeAlreadyDone``
    until a ``reset``, which runs the episode a fresh environment runs."""

    def test_a_diverged_step_ends_the_episode(self):
        config = load_env_config(DATA_DIR / "diverging" / "cartpole.yml")
        env = Environment(config)
        env.reset(seed=0)
        with pytest.raises(SimulationDiverged):
            env.step({})
        assert env.episode_done
        with pytest.raises(EpisodeAlreadyDone):
            env.step({})
        calm = {"cart.thetadot0": Quantity.scalar(0.0, RADIAN_PER_SECOND)}
        again = record_episode(env, seed=1, overrides=calm)
        fresh = record_episode(Environment(config), seed=1, overrides=calm)
        assert again.error is None and len(again.rows) > 1
        assert again.to_lines() == fresh.to_lines()

    def test_a_reset_whose_first_observation_fails_ends_the_episode(self):
        # deputy_b starts 20 m to 40 m out, so the shared BoundedDelta's [-5, 5] m box refuses it
        config = load_env_config(DATA_DIR / "space_violation" / "two_agents_shared.yml")
        env = Environment(config)
        env.reset(seed=0, overrides={"deputy_b.x0": Quantity.scalar(-3.0, METER)})
        env.step({})
        with pytest.raises(SpaceViolation):
            env.reset(seed=1)
        assert env.episode_done
        with pytest.raises(EpisodeAlreadyDone):
            env.step({})
        near = {"deputy_b.x0": Quantity.scalar(-3.0, METER)}
        again = record_episode(env, seed=1, overrides=near)
        fresh = record_episode(Environment(config), seed=1, overrides=near)
        assert len(again.rows) > 1 and again.to_lines() == fresh.to_lines()


class TestBuild:
    """The build makes the simulator, its platforms and their parts, and
    draws nothing: entity state and the episode's draw exist from the first
    ``reset``."""

    @pytest.mark.parametrize(
        "env_file",
        [
            "docking/environment.yml",
            "docking/environment_short.yml",
            "docking/environment_two_agents.yml",
            "cartpole/environment.yml",
        ],
    )
    def test_platforms_last_the_simulators_life(self, env_file):
        # every declared platform, with its parts, is built once and kept
        # through each reset and step of every episode
        config = load_env_config(CONFIG_DIR / env_file)
        env = Environment(config)
        platforms = env.simulator.platforms
        built = {name: (platform, dict(platform.parts)) for name, platform in platforms.items()}
        assert list(built) == [p.name for p in config.platforms]
        for seed in range(2):
            assert record_episode(env, seed=seed).error is None
            assert env.simulator.platforms is platforms
            assert {name: (platform, platform.parts) for name, platform in platforms.items()} == built

    @pytest.mark.parametrize("env_file", ["docking/environment.yml", "cartpole/environment.yml"])
    def test_build_neither_samples_nor_resets(self, monkeypatch, env_file):
        config = load_env_config(CONFIG_DIR / env_file)
        calls = []
        for cls, method in [(EpisodeParameterProvider, "sample_episode"), (Simulator, "reset")]:
            original = getattr(cls, method)

            def counting(self, *args, _original=original, _method=method, **kwargs):
                calls.append(_method)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counting)
        env = Environment(config)
        assert calls == []
        assert env.epp.current_sample is None
        with pytest.raises(NotYetSampled):
            env.epp.reference_lookup(next(iter(env.epp.specs)))
        assert list(env.simulator.platforms) == [p.name for p in config.platforms]
        for platform in env.simulator.platforms.values():
            assert platform.state is None
            assert set(platform.parts) == {part.group for agent in config.agents for part in agent.parts}
        env.reset(seed=0)
        assert calls == ["sample_episode", "reset"]
        assert all(platform.state is not None for platform in env.simulator.platforms.values())


class TestGenerators:
    """An episode builds a generator only for a stream that something draws
    from: each non-constant parameter and the policy that draws."""

    @pytest.mark.parametrize(
        "env_file, at_build, per_episode",
        [("docking/environment.yml", 0, 0), ("cartpole/environment.yml", 0, 5)],
        ids=["docking", "cartpole"],
    )
    def test_generators_built(self, monkeypatch, env_file, at_build, per_episode):
        config = load_env_config(CONFIG_DIR / env_file)
        built = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            built.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        env = Environment(config)
        assert len(built) == at_build
        for seed in range(3):
            assert record_episode(env, seed).error is None
        assert len(built) == at_build + 3 * per_episode


def bounded_tvd_glue(low, high):
    """A glue list holding one ``TargetValueDifference`` of the deputy's
    position, named ``BoundedDelta`` and boxed to ``[low, high]``."""
    return [
        {
            "functor": "TargetValueDifference",
            "name": "BoundedDelta",
            "config": {"index": 0, "unit": "N/A", "min": low, "max": high},
            "wrapped": {"sensor": "ObservePosition"},
        }
    ]


class TestSpaceChecks:
    def test_violation_identifies_agent_and_glue(self):
        # -x0 = 10 exceeds the declared [-5, 5] observation box immediately.
        tree = docking_tree(extra_glues=bounded_tvd_glue(-5.0, 5.0))
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        env = Environment(config)
        with pytest.raises(SpaceViolation) as excinfo:
            env.reset(seed=0)
        assert excinfo.value.agent == "agent_0"
        assert excinfo.value.glue == "BoundedDelta"

    def test_off_mode_skips_checks(self):
        tree = docking_tree(space_check="off", extra_glues=bounded_tvd_glue(-5.0, 5.0))
        config, _ = validate_environment(tree)
        env = Environment(config)
        env.reset(seed=0)  # no raise

    @pytest.mark.parametrize("mode", list(SpaceCheckMode), ids=[mode.value for mode in SpaceCheckMode])
    def test_build_fixes_which_boxes_are_checked(self, mode):
        # Only BoundedDelta's box is bounded; it alone is checked, and only
        # under every_step.  Changing the mode after the build changes nothing.
        tree = docking_tree(space_check=mode.value, extra_glues=bounded_tvd_glue(-5.0, 5.0))
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        env = Environment(config)
        checked = {(owner, node.name, key) for owner, node, _, entries in env._observe for key, _, box in entries if box}
        expected = {("agent_0", "BoundedDelta", "target_value_difference")} if mode is SpaceCheckMode.EVERY_STEP else set()
        assert checked == expected
        config.space_check_mode = SpaceCheckMode.OFF if mode is SpaceCheckMode.EVERY_STEP else SpaceCheckMode.EVERY_STEP
        if mode is SpaceCheckMode.EVERY_STEP:
            with pytest.raises(SpaceViolation):
                env.reset(seed=0)
        else:
            env.reset(seed=0)  # no raise

    @pytest.mark.parametrize(
        "env_file",
        [
            "docking/environment.yml",
            "docking/environment_short.yml",
            "docking/environment_two_agents.yml",
            "cartpole/environment.yml",
        ],
        ids=["docking", "docking_short", "docking_two_agents", "cartpole"],
    )
    def test_shipped_config_records_the_same_under_each_mode(self, env_file):
        # No shipped config declares a bounded observation, so turning the
        # check off changes no recorded line of a passing episode.
        lines = {}
        for mode in SpaceCheckMode:
            config = load_env_config(CONFIG_DIR / env_file)
            config.space_check_mode = mode
            env = Environment(config)
            artifacts = [record_episode(env, seed) for seed in range(2)]
            assert all(artifact.error is None for artifact in artifacts)
            lines[mode] = [artifact.to_lines() for artifact in artifacts]
        assert lines[SpaceCheckMode.EVERY_STEP] == lines[SpaceCheckMode.OFF]


class TestLogging:
    def test_episode_csv_columns_and_rows(self, tmp_path):
        env = make_env(horizon=300)
        artifact = record_episode(env, seed=0)
        csv_path = artifact.write_csv(tmp_path / "episode_0.csv")
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert "step" in header
        assert "agent_0.reward.DistanceShaping" in header
        assert "agent_0.reward.OutcomeReward" in header
        assert "agent_0.reward_total" in header
        assert "agent_0.done_code" in header
        assert "param.deputy.x0" in header
        assert len(lines) - 1 == env.state.step_count == len(artifact.rows)
        assert lines[-1].split(",")[header.index("agent_0.done_code")] == "WIN"

    def test_run_config_snapshot_revalidates(self, tmp_path):
        env = make_env()
        run_episode(env)
        env.apply_training_result()
        write_logs(env, [], tmp_path)
        snapshot = json.loads((tmp_path / "run_config.json").read_text())
        reparsed, report = validate_environment(snapshot["environment"])
        assert reparsed is not None, str(report)
        assert len(snapshot["epp_state_per_iteration"]) == 2

    def test_one_csv_per_episode(self, tmp_path):
        env_file = CONFIG_DIR / "docking" / "environment_short.yml"
        assert cli.main(["run", "--env", str(env_file), "--episodes", "3", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"episode_0.csv", "episode_1.csv", "episode_2.csv", "run_config.json"}


def curriculum_tree():
    """``docking_tree`` with an updater on a reference-store and a platform parameter."""
    tree = docking_tree()
    tree["reference_store"]["v_max"]["distribution"] = {"kind": "uniform", "low": 0.1, "high": 0.2}
    tree["reference_store"]["v_max"]["updaters"] = [{"target": "low", "step": 0.05}]
    x0 = tree["platforms"][0]["initialization"]["x0"]
    x0["distribution"] = {"kind": "uniform", "low": -10.5, "high": -9.5}
    x0["updaters"] = [{"target": "high", "step": 0.25}]
    return tree


class TestCurriculumLeavesConfig:
    """A curriculum moves the provider's distributions, never the config's."""

    def test_apply_training_result_leaves_the_config(self):
        config, report = validate_environment(curriculum_tree())
        assert config is not None, str(report)
        env = Environment(config)
        before = env.run_config()["environment"]
        env.apply_training_result()
        assert env.run_config()["environment"] == before
        assert config.reference_store["v_max"].distribution.low == 0.1
        assert config.platforms[0].initialization["x0"].distribution.high == -9.5
        states = env.run_config()["epp_state_per_iteration"]
        assert [s["v_max"]["low"] for s in states] == [0.1, 0.15000000000000002]
        assert [s["deputy.x0"]["high"] for s in states] == [-9.5, -9.25]
        # a second environment of the config starts where the first did
        assert Environment(config).run_config()["epp_state_per_iteration"] == states[:1]


class TestPolicyOverride:
    def test_run_config_records_the_override(self, tmp_path):
        # the snapshot of `run --policy random` runs the same episodes without the flag
        env_file = tmp_path / "env.json"
        env_file.write_text(json.dumps(docking_tree(agents=2, horizon=20, dones=False, space_check="off")))
        argv = ["run", "--seed", "5", "--episodes", "2"]
        assert cli.main([*argv, "--env", str(env_file), "--policy", "random", "--out", str(tmp_path / "a")]) == 0
        snapshot = json.loads((tmp_path / "a" / "run_config.json").read_text())
        assert [agent["policy"] for agent in snapshot["environment"]["agents"]] == [{"name": "random"}] * 2
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot["environment"]))
        assert cli.main([*argv, "--env", str(tmp_path / "snapshot.json"), "--out", str(tmp_path / "b")]) == 0
        for name in ["episode_0.csv", "episode_1.csv"]:
            # the snapshot's keys are sorted, so its parameters' columns may come in another order
            rows = [list(csv.DictReader((tmp_path / run / name).read_text().splitlines())) for run in "ab"]
            assert rows[0] == rows[1]
        assert (tmp_path / "a" / "run_config.json").read_bytes() == (tmp_path / "b" / "run_config.json").read_bytes()

    def test_run_and_rollout_share_one_policy_across_agents(self, tmp_path, monkeypatch):
        env = make_env(agents=2, horizon=20, dones=False, space_check="off")
        env_file = tmp_path / "env.yml"
        env_file.write_text(json.dumps(env.run_config()["environment"]))
        recorded = []

        def recording(*args, projection=None):
            # the full record, whose actions are compared below; run itself records only its CSV's columns
            recorded.append(record_episode(*args))
            return recorded[-1]

        monkeypatch.setattr(cli, "run_episode", recording)
        argv = ["run", "--env", str(env_file), "--policy", "random", "--seed", "5", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        ran = recorded[0]
        fresh = make_env(agents=2, horizon=20, dones=False, space_check="off", policy={"name": "random"})
        rolled = rollout(fresh, TestCase("c", {}, 5))
        assert len(ran.rows) == 20
        ran_steps = recorded_steps(ran)
        assert [s["actions"] for s in ran_steps] == [s["actions"] for s in recorded_steps(rolled)]
        # Both agents draw in turn from one shared instance, so their actions
        # differ; two instances seeded alike would act in lockstep.
        first = ran_steps[0]["actions"]
        assert first["agent_0"] != first["agent_1"]


class TestEpisodeFailure:
    def test_run_fails_and_rollout_records_error(self, tmp_path, capsys):
        # -x0 = 10 leaves the declared [-5, 5] box at reset.
        tree = docking_tree(extra_glues=bounded_tvd_glue(-5.0, 5.0))
        env_file = tmp_path / "env.yml"
        env_file.write_text(json.dumps(tree))
        assert cli.main(["run", "--env", str(env_file), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "EpisodeFailed: episode 0 (seed 0): SpaceViolation" in err
        config, _ = validate_environment(tree)
        artifact = rollout(Environment(config), TestCase("c", {}, 0))
        assert artifact.error.startswith("SpaceViolation") and artifact.rows == []

    def test_a_glue_of_the_shared_dones_is_bounds_checked_and_named(self, tmp_path, capsys):
        # LeftCorridor reads a TargetValueDifference boxed to [-5, 5] m whose
        # first observation is 20 m to 40 m
        path = DATA_DIR / "space_violation" / "two_agents_shared.yml"
        config, report = validate_environment_file(path)
        assert str(report) == "0 errors"
        assert cli.main(["run", "--env", str(path), "--episodes", "1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error: EpisodeFailed: episode 0 (seed 0): SpaceViolation: observation out of bounds: "
            "shared_dones, glue 'BoundedDelta', element 0: value "
        )
        with pytest.raises(SpaceViolation) as caught:
            Environment(config).reset(seed=0)
        assert (caught.value.agent, caught.value.glue) == (None, "BoundedDelta")


class TestActionBoundary:
    """Actions are checked where they enter step(): keys first, then values."""

    ZERO = {"name": "scripted", "config": {"rule": "zero"}}

    def test_unknown_agent_raises(self):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        with pytest.raises(UnknownActionKey) as excinfo:
            env.step({"agent_0": {"ThrustControl": np.array([1.0])}, "agent_9": {}})
        assert excinfo.value.agent == "agent_9"
        assert "agent_9" in str(excinfo.value)
        assert env.state.step_count == 0

    def test_unknown_glue_raises_before_any_action_applies(self):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        controller = env.simulator.platforms["deputy"].parts["Controller_Thrust"]
        with pytest.raises(UnknownActionKey) as excinfo:
            env.step({"agent_0": {"ThrustControl": np.array([1.0]), "ThrustControll": np.array([1.0])}})
        assert (excinfo.value.agent, excinfo.value.key) == ("agent_0", "ThrustControll")
        assert "agent_0" in str(excinfo.value) and "ThrustControll" in str(excinfo.value)
        assert controller.pending is None
        assert env.state.step_count == 0

    def test_observation_glue_is_not_an_action_key(self):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        with pytest.raises(UnknownActionKey) as excinfo:
            env.step({"agent_0": {"ObservePosition": np.array([1.0])}})
        assert excinfo.value.key == "ObservePosition"

    @pytest.mark.parametrize("actions", [{}, {"agent_0": {}}], ids=["no_agent", "no_fragment"])
    def test_missing_fragment_is_zero_command(self, actions):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        result = env.step(actions)
        deputy = env.simulator.platforms["deputy"].state
        assert deputy.thrust == 0.0 and deputy.xdot == 0.0
        assert result.observations["agent_0"]["ObservePosition/direct_observation"].tolist() == [-10.0]

    _env = None

    @classmethod
    def shared_env(cls):
        if cls._env is None:
            cls._env = make_env(policy=cls.ZERO)
        return cls._env

    @settings(max_examples=75, deadline=None)
    @given(
        value=st.floats(allow_nan=True, allow_infinity=True),
        form=st.sampled_from(["array", "list", "float", "zero_d"]),
    )
    def test_fragment_applied_clamped_or_rejected(self, value, form):
        # A finite fragment reaches the controller clamped into [-1, 1] N; a
        # NaN or infinite one raises before the controller sees it.
        env = self.shared_env()
        env.reset(seed=0)
        controller = env.simulator.platforms["deputy"].parts["Controller_Thrust"]
        fragment = {"array": np.array([value]), "list": [value], "float": value, "zero_d": np.array(value)}[form]
        actions = {"agent_0": {"ThrustControl": fragment}}
        if np.isfinite(value):
            env.step(actions)
            thrust = env.simulator.platforms["deputy"].state.thrust
            assert thrust == float(np.clip(value, -1.0, 1.0))
            assert controller.clamp_count == (1 if abs(value) > 1.0 else 0)
        else:
            with pytest.raises(NonFiniteAction) as excinfo:
                env.step(actions)
            assert (excinfo.value.agent, excinfo.value.glue) == ("agent_0", "ThrustControl")
            assert controller.pending is None
            assert env.state.step_count == 0

    def test_rollout_records_non_finite_action(self):
        config, report = validate_environment(docking_tree(horizon=20))
        assert config is not None, str(report)
        env = Environment(config)
        # a replay policy rejects NaN in its config, so a scripted rule plays it
        policy = ScriptedPolicy({"rule": "zero"})
        fragments = iter([[0.5], [float("nan")]])
        policy._rule = lambda observation, action_space: {"ThrustControl": next(fragments)}
        env.agents["agent_0"].policy = policy
        artifact = rollout(env, TestCase("c", {}, 0))
        assert artifact.error.startswith("NonFiniteAction")
        assert "agent_0" in artifact.error and "ThrustControl" in artifact.error
        assert len(artifact.rows) == 1


class TestActionShape:
    """A fragment must have its action box's shape; a bare number is one element."""

    ZERO = TestActionBoundary.ZERO

    @pytest.mark.parametrize(
        "fragment",
        [np.array([0.5, 0.9, -1.0]), np.array([[0.2]]), [0.5, 0.9], np.array([])],
        ids=["longer", "two_dimensional", "list", "empty"],
    )
    def test_other_shape_raises_before_any_action_applies(self, fragment):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        controller = env.simulator.platforms["deputy"].parts["Controller_Thrust"]
        with pytest.raises(ActionShapeMismatch) as excinfo:
            env.step({"agent_0": {"ThrustControl": fragment}})
        error = excinfo.value
        assert (error.agent, error.glue, error.expected) == ("agent_0", "ThrustControl", (1,))
        assert error.got == np.atleast_1d(np.asarray(fragment, dtype=float)).shape
        assert "agent_0" in str(error) and "ThrustControl" in str(error)
        assert controller.pending is None and controller.clamp_count == 0
        assert env.state.step_count == 0

    def test_shape_is_checked_before_finiteness(self):
        env = make_env(policy=self.ZERO)
        env.reset(seed=0)
        with pytest.raises(ActionShapeMismatch):
            env.step({"agent_0": {"ThrustControl": np.array([np.nan, 0.5])}})

    def test_rollout_records_shape_mismatch(self):
        actions = [{"ThrustControl": [0.5]}, {"ThrustControl": [0.5, 0.9, -1.0]}]
        env = make_env(horizon=20, policy={"name": "replay", "config": {"actions": actions}})
        artifact = record_episode(env, seed=0)
        assert artifact.error.startswith("ActionShapeMismatch")
        assert "agent_0" in artifact.error and "ThrustControl" in artifact.error
        assert len(artifact.rows) == 1


class TestEndedAgentsDoNotAct:
    @staticmethod
    def leashed_config():
        """Two bang-bang agents on one craft, all_agents_done: agent_1 also
        ends with LOSS when the craft passes x = -9, long before docking."""
        tree = docking_tree(agents=2, end_mode="all_agents_done", horizon=300)
        tree["agents"][1]["dones"].append(
            {"functor": "StateBounds", "name": "Leash", "config": {"min": -20.0, "max": -9.0},
             "extractor": {"glue": "ObservePosition", "key": "direct_observation"}}
        )
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        return config

    def test_episode_runs_on_after_one_agent_ends(self):
        env = Environment(self.leashed_config())
        artifact = record_episode(env, seed=0)
        assert artifact.error is None
        assert artifact.final_outcome == {"agent_0": "WIN", "agent_1": "LOSS"}
        steps = recorded_steps(artifact)
        ended = next(i for i, step in enumerate(steps) if step["done_codes"].get("agent_1"))
        assert 0 < ended < len(steps) - 1
        for step in steps[: ended + 1]:
            assert set(step["actions"]) == {"agent_0", "agent_1"}
        for step in steps[ended + 1:]:
            assert set(step["actions"]) == {"agent_0"}

    def test_ended_agent_policy_is_not_called(self):
        env = Environment(self.leashed_config())
        policy = env.agents["agent_0"].policy
        assert policy is env.agents["agent_1"].policy  # one shared declaration
        calls = spy_calls(policy)
        artifact = record_episode(env, seed=0)
        assert len(calls) == sum(len(step["actions"]) for step in recorded_steps(artifact))

    def test_a_refused_step_and_a_reset_keep_the_active_agents(self):
        env = Environment(self.leashed_config())

        def step(observations):
            return env.step({
                name: env.agents[name].policy.compute_action(obs, env.agents[name].action_space())
                for name, obs in observations.items()
            })

        result = step(env.reset(seed=0))
        while result.done_codes["agent_1"] is None:
            result = step(result.observations)
        assert not result.env_done  # agent_1 ended on this step
        codes, steps, deputy = env.agent_done_codes, env.state.step_count, vars(env.state.platforms["deputy"].state)
        with pytest.raises(UnknownActionKey):
            env.step({"agent_0": {"NoSuchGlue": np.array([0.0])}})
        assert (env.agent_done_codes, env.state.step_count, env.episode_done) == (codes, steps, False)
        assert vars(env.state.platforms["deputy"].state) == deputy
        result = step({"agent_0": result.observations["agent_0"]})
        assert set(result.done_codes) == set(result.truncated) == set(result.rewards) == {"agent_0"}
        assert set(result.observations) == {"agent_0"}
        result = step(env.reset(seed=0))
        assert set(result.done_codes) == set(result.truncated) == set(result.rewards) == {"agent_0", "agent_1"}
        assert set(result.observations) == {"agent_0", "agent_1"}


class TestConfigFiles:
    def test_docking_file_runs_to_win(self, docking_config):
        env = Environment(docking_config)
        final = run_episode(env, seed=0)[-1]
        assert final.done_codes["deputy_agent"] is DoneStatusCode.WIN

    def test_cartpole_file_runs_to_completion(self, cartpole_config):
        env = Environment(cartpole_config)
        final = run_episode(env, seed=0)[-1]
        assert final.env_done
        assert env.agent_done_codes["cartpole_agent"] in {
            DoneStatusCode.LOSS,
            DoneStatusCode.DRAW,
        }

    def test_simulator_swap_same_group_name(self):
        # Sensor_State resolves per simulator through the plugin registry.
        for task in ("docking", "cartpole"):
            config, report = validate_environment_file(CONFIG_DIR / task / "environment.yml")
            assert report.ok, str(report)
