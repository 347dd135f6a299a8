"""One name, one entry: each functor name of an agent's namespace, and each
observation name of an agent, means one functor, whether the config is read
from a file or built in Python.

The graph builder decides which functor a name means: repeats of one spec
are one node, one structure under two names is two nodes, and two
structures under one name are a ``DuplicateName`` at the later spec's path.
"""

import copy
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from envforge.config.schema import AgentConfig, PartConfig
from envforge.config.validate import environment_tree, validate_environment
from envforge.environment import Environment
from envforge.functors.base import FunctorSpec
from envforge.params import ConfigError

from conftest import CONFIG_DIR, load_env_config

DOCKING = CONFIG_DIR / "docking"


def docking_config():
    return load_env_config(DOCKING / "environment.yml")


def build_errors(config) -> list[tuple[str, str]]:
    """(path, code) of each error ``Environment(config)`` raises."""
    with pytest.raises(ConfigError) as caught:
        Environment(config)
    return [(path, code) for path, code, _ in caught.value.errors]


def first_step(env):
    """The result of the step after ``reset(seed=0)``, each agent acting by its policy."""
    observations = env.reset(seed=0)
    actions = {
        name: agent.policy.compute_action(observations[name], agent.action_space())
        for name, agent in env.agents.items()
    }
    return env.step(actions)


class TestRewardNames:
    def test_equal_rewards_under_two_names_are_two_components(self):
        # two ConstantStepReward entries of one config, in the docking agent's file tree
        tree = environment_tree(docking_config())
        bonus = {"functor": "ConstantStepReward", "config": {"reward": 1.0}}
        tree["agents"][0]["rewards"] += [{**bonus, "name": "AliveBonus"}, {**bonus, "name": "TimeBonus"}]
        config, report = validate_environment(tree, base_dir=DOCKING)
        assert report.ok, str(report)
        result = first_step(Environment(config))
        components = result.reward_components["deputy_agent"]
        assert list(components) == ["DistanceShaping", "OutcomeReward", "AliveBonus", "TimeBonus"]
        assert components["AliveBonus"] == components["TimeBonus"] == 1.0
        assert result.rewards["deputy_agent"] == sum(components.values())

    def test_a_different_reward_under_a_taken_name_fails_the_build(self):
        # a config built in Python is held to the rule validate reports for a file
        config = docking_config()
        rewards = config.agents[0].rewards
        rewards.append(FunctorSpec("ConstantStepReward", "DistanceShaping", {"reward": 5.0}, path="agents/0/rewards/2"))
        assert build_errors(config) == [("agents/0/rewards/2", "DuplicateName")]


class TestObservationNames:
    def glues(self):
        """A Wrapper W over {k: ObserveVelocity} and an ObserveSensor glue
        named W/k, to follow the docking agent's three glues: both yield
        W/k/direct_observation."""
        return [
            FunctorSpec("Wrapper", "W", wrapped={"k": "ObserveVelocity"}, path="agents/0/glues/3"),
            FunctorSpec(
                "ObserveSensor", "W/k", {"sensor": "Sensor_Position", "normalize": False}, path="agents/0/glues/4"
            ),
        ]

    def test_a_taken_observation_name_fails_the_build(self):
        config = docking_config()
        config.agents[0].glues += self.glues()
        assert build_errors(config) == [("agents/0/glues/4", "DuplicateName")]

    def test_distinct_observation_names_build(self):
        config = docking_config()
        wrapper, sensor = self.glues()
        # the position glue under a second name is a node of its own
        config.agents[0].glues += [wrapper, replace(sensor, name="Position")]
        observations = Environment(config).reset(seed=0)["deputy_agent"]
        assert observations["W/k/direct_observation"].tolist() == [0.0]  # the velocity, at rest
        assert observations["Position/direct_observation"].tolist() == [-10.0]


class TestPythonBuiltConfigFailsTyped:
    """A config built in Python gets the error ``validate`` reports for its tree."""

    def assert_reported_as_validate_reports(self, config, expected):
        with pytest.raises(ConfigError) as caught:
            Environment(config)
        assert [(path, code) for path, code, _ in caught.value.errors] == [expected]
        _, report = validate_environment(environment_tree(config))
        assert [(e.path, e.code.value, e.message) for e in report.errors] == caught.value.errors

    def test_unknown_simulator(self):
        config = replace(docking_config(), simulator_name="Nope")
        self.assert_reported_as_validate_reports(config, ("simulator/name", "UnknownFunctor"))

    def test_agent_without_platforms(self):
        config = docking_config()
        config.agents[0].platform_names = []
        config.agents[0].path = ""
        self.assert_reported_as_validate_reports(config, ("agents/0/platforms", "TypeMismatch"))


# the pool of entries a property agent draws from: two names for each of two
# structures, so a draw can repeat one spec, give one structure two names,
# or give two structures one name
GLUE_NAMES = ["P", "Q"]
GLUE_CONFIGS = [
    {"sensor": "Sensor_Position", "normalize": False},
    {"sensor": "Sensor_Velocity", "normalize": False},
]
REWARD_NAMES = ["P", "R", "S"]  # P may also name a glue: one namespace
REWARD_CONFIGS = [{"reward": 1.0}, {"reward": 2.5}]


@st.composite
def agent_entries(draw):
    """(glues, rewards), each a list of (name, config index) drawn from the pool."""
    glue = st.tuples(st.sampled_from(GLUE_NAMES), st.integers(0, len(GLUE_CONFIGS) - 1))
    reward = st.tuples(st.sampled_from(REWARD_NAMES), st.integers(0, len(REWARD_CONFIGS) - 1))
    return draw(st.lists(glue, min_size=1, max_size=4)), draw(st.lists(reward, max_size=4))


def python_agent(i: int, glues, rewards) -> AgentConfig:
    """Agent i, on its own deputy, with the drawn entries as specs at their paths."""
    specs = {
        "glues": [
            FunctorSpec("ObserveSensor", name, copy.deepcopy(GLUE_CONFIGS[c]), path=f"agents/{i}/glues/{j}")
            for j, (name, c) in enumerate(glues)
        ],
        "rewards": [
            FunctorSpec("ConstantStepReward", name, dict(REWARD_CONFIGS[c]), path=f"agents/{i}/rewards/{j}")
            for j, (name, c) in enumerate(rewards)
        ],
    }
    parts = [PartConfig("Sensor_Position"), PartConfig("Sensor_Velocity")]
    return AgentConfig(f"agent_{i}", [f"deputy_{i}"], parts, **specs)


def later_duplicates(agent: AgentConfig) -> list[tuple[str, str]]:
    """(path, DuplicateName) of each entry whose name a different earlier entry took."""
    first: dict[str, FunctorSpec] = {}
    return [
        (spec.path, "DuplicateName")
        for spec in [*agent.glues, *agent.rewards]
        if first.setdefault(spec.name, spec) != spec
    ]


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(agent_entries(), min_size=1, max_size=2))
def test_one_name_one_entry(agents):
    base = docking_config()
    (deputy,) = base.platforms
    config = replace(
        base,
        platforms=[replace(deputy, name=f"deputy_{i}") for i in range(len(agents))],
        agents=[python_agent(i, glues, rewards) for i, (glues, rewards) in enumerate(agents)],
    )
    duplicates = [error for agent in config.agents for error in later_duplicates(agent)]
    if duplicates:
        assert build_errors(config) == duplicates
        return
    env = Environment(config)
    observations = env.reset(seed=0)
    result = env.step({})
    for agent in config.agents:
        name = agent.name
        components = result.reward_components[name]
        assert list(components) == list(dict.fromkeys(spec.name for spec in agent.rewards))
        assert result.rewards[name] == sum(components.values())
        glue_names = dict.fromkeys(spec.name for spec in agent.glues)
        expected = [f"{glue}/direct_observation" for glue in glue_names]
        assert list(observations[name]) == list(result.observations[name]) == expected
