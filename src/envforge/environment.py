"""Multi-agent environment: EPP sampling, simulator stepping, and the
glue -> done -> reward schedule, with space sanity checks.  The environment
only steps; recording a trajectory is the caller's job (see
``evaluation.evaluate.run_episode``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .agents import Agent, PolicyPool, attach_parts, build_agent
from .config.schema import EnvironmentConfig, EpisodeEndMode
from .config.serialize import environment_config_to_tree
from .epp import EpisodeParameterProvider
from .functors.base import DoneResult, DoneStatusCode, EpisodeState, FunctorSpec
from .functors.graph import build_graph
from .parts import GLOBAL_REGISTRY, Box
from .simulators import SIMULATORS, PlatformSetup, init_key
from .units import Quantity


class EnvironmentError_(Exception):
    pass


class EpisodeAlreadyDone(EnvironmentError_):
    def __init__(self):
        super().__init__("step() called after the episode ended; call reset()")


class SpaceViolation(EnvironmentError_):
    def __init__(self, agent: str, glue: str, element: int, value: float, low: float, high: float):
        self.agent = agent
        self.glue = glue
        super().__init__(
            f"observation out of bounds: agent '{agent}', glue '{glue}', "
            f"element {element}: value {value} outside [{low}, {high}]"
        )


class UnknownActionKey(EnvironmentError_):
    """``actions`` names an agent the environment lacks, or a glue that takes no action."""

    def __init__(self, agent: str, key: str | None = None):
        self.agent = agent
        self.key = key
        if key is None:
            message = f"actions name unknown agent '{agent}'"
        else:
            message = f"agent '{agent}': '{key}' is not one of its action glues"
        super().__init__(message)


class NonFiniteAction(EnvironmentError_):
    def __init__(self, agent: str, glue: str):
        self.agent = agent
        self.glue = glue
        super().__init__(f"agent '{agent}', glue '{glue}': action fragment is not finite")


@dataclass
class StepResult:
    observations: dict[str, dict[str, Quantity]]
    rewards: dict[str, float]
    dones: dict[str, bool]
    done_codes: dict[str, DoneStatusCode | None]
    env_done: bool
    truncated: bool
    info: dict = field(default_factory=dict)


def episode_parameters(config: EnvironmentConfig) -> EpisodeParameterProvider:
    """A provider of every episode parameter ``config`` declares: the
    reference store, each platform's initialization (keyed
    ``<platform>.<name>``), then each agent's reference store and parameters
    not declared before."""
    epp = EpisodeParameterProvider()
    for spec in config.reference_store.values():
        epp.add(spec)
    for platform in config.platforms:
        for pname, spec in platform.initialization.items():
            epp.add(replace(spec, name=init_key(platform.name, pname)))
    for agent_cfg in config.agents:
        for spec in [*agent_cfg.reference_store.values(), *agent_cfg.parameters.values()]:
            if spec.name not in epp:
                epp.add(spec)
    return epp


class Environment:
    """Owns one simulator, its agents, and the per-step evaluation schedule."""

    def __init__(self, config: EnvironmentConfig, registry=GLOBAL_REGISTRY):
        self.config = config
        self.registry = registry

        self.epp = episode_parameters(config)

        setups = [
            PlatformSetup(p.name, p.platform_type, list(p.initialization))
            for p in config.platforms
        ]
        sim_cls = SIMULATORS[config.simulator_name]
        self.simulator = sim_cls(config.simulator_config, setups)

        # Priming reset so platforms exist for part attachment and glue wiring.
        priming = self.epp.sample_episode(seed=0)
        self.simulator.reset(priming)

        policy_pool = PolicyPool()
        self.agents: dict[str, Agent] = {}
        for agent_cfg in config.agents:
            attach_parts(agent_cfg, self.simulator.platforms, sim_cls.simulator_type, registry)
            agent = build_agent(agent_cfg, self.simulator.platforms, policy_pool)
            self.agents[agent.name] = agent

        shared_specs = list(config.shared_dones)
        shared_specs.append(FunctorSpec(functor="EpisodeHorizon", name="EpisodeHorizon"))
        self.shared_graph = build_graph(
            dict(self.simulator.platforms), glues=[], shared_dones=shared_specs
        )
        # every glue node, each graph's in topological order: the observe phase
        self._glue_nodes = [
            node
            for graph in [*(a.graph for a in self.agents.values()), self.shared_graph]
            for node in map(graph.nodes.__getitem__, graph.topo_order)
            if node.kind == "glue"
        ]

        self.spot_checks_attempted = 0
        self.spot_checks_run = 0

        self.state: EpisodeState | None = None
        self.trace: list[tuple[int, str]] = []  # (step, phase) instrumentation
        self._env_done = True
        self._truncated = False
        # agent name -> the done that ended it, None while it is active
        self._outcome: dict[str, DoneResult | None] = {}
        self._check_rng = np.random.default_rng(0)
        self._epp_history: list[dict] = [self.epp.snapshot_state()]

    # Lifecycle ---------------------------------------------------------

    def reset(self, seed: int = 0, overrides: dict[str, Quantity] | None = None):
        """Start an episode; ``seed`` seeds the parameter draws, every agent's
        policy and the spot checks."""
        sampled = self.epp.sample_episode(seed, overrides)
        self.simulator.reset(sampled)
        for agent in self.agents.values():
            agent.graph.reset(sampled)
            agent.policy.reseed(seed)
        self.shared_graph.reset(sampled)

        self.state = EpisodeState(self.simulator.platforms, self.epp, self.config.horizon)
        self.state.sim_time = self.simulator.sim_time
        self._env_done = False
        self._truncated = False
        self._outcome = dict.fromkeys(self.agents)
        self._check_rng = np.random.default_rng(seed)
        self.trace = []

        self._evaluate_glues()
        self._space_check()
        return self._collect_observations(self.agents.items())

    def step(self, actions: dict[str, dict[str, np.ndarray]]) -> StepResult:
        if self.state is None or self._env_done:
            raise EpisodeAlreadyDone()
        state = self.state
        outcome = self._outcome
        agents = self.agents
        # (name, agent) of each agent without an outcome as the step starts
        active = [(name, agents[name]) for name, result in outcome.items() if result is None]

        # (1) glues push actions to controllers, once every fragment has passed
        # its checks; a missing fragment leaves that controller's zero command
        for name, fragments in actions.items():
            agent = agents.get(name)
            if agent is None:
                raise UnknownActionKey(name)
            if not fragments.keys() <= agent.action_glues.keys():
                unknown = next(k for k in fragments if k not in agent.action_glues)
                raise UnknownActionKey(name, unknown)
        commands = []
        for name, agent in active:
            fragments = actions.get(name)
            if not fragments:
                continue
            for glue, node in agent.action_glues.items():
                if glue in fragments:
                    values = np.atleast_1d(np.asarray(fragments[glue], dtype=float))
                    if not np.isfinite(values).all():
                        raise NonFiniteAction(name, glue)
                    commands.append((node, values))
        for node, values in commands:
            node.functor.apply_action(values, state)
        self.trace.append((state.step_count + 1, "apply_action"))

        # (2) simulator advances one frame
        self.simulator.step()
        state.step_count += 1
        state.sim_time = self.simulator.sim_time
        self.trace.append((state.step_count, "sim_step"))

        # (3) glues compute observations
        self._evaluate_glues()
        self.trace.append((state.step_count, "observe"))

        # (4) dones, including shared dones; an agent's outcome is its first
        # fired done, else PlatformDestroyed, else the first shared done
        platforms = self.simulator.platforms
        fired: dict[str, dict[str, DoneResult]] = {}
        for name, agent in active:
            fired[name] = agent_fired = {}
            first = None
            for node in agent.graph.dones:
                result = node.functor.evaluate(state)
                if result is not None:
                    agent_fired[node.name] = result
                    if first is None:
                        first = result
            if first is None:
                # destruction of an owning platform ends the agent with LOSS
                for pname in agent.platform_names:
                    if pname not in platforms:
                        first = agent_fired["PlatformDestroyed"] = DoneResult(DoneStatusCode.LOSS)
                        break
            outcome[name] = first
        shared_fired: dict[str, DoneResult] = {}
        shared_first: DoneResult | None = None
        for node in self.shared_graph.shared_dones:
            result = node.functor.evaluate(state)
            if result is not None:
                shared_fired[node.name] = result
                if shared_first is None:
                    shared_first = result
        self.trace.append((state.step_count, "dones"))

        # (5) rewards, with this step's done results visible; an agent's
        # reward is the sum of its components, in order
        components: dict[str, dict[str, float]] = {}
        rewards: dict[str, float] = {}
        for name, agent in active:
            agent_dones = {**fired[name], **shared_fired} if shared_fired else fired[name]
            components[name] = agent_components = {}
            total = 0  # an int, as sum() starts: no components is a reward of 0
            for node in agent.graph.rewards:
                agent_components[node.name] = value = float(node.functor.evaluate(state, agent_dones))
                total += value
            rewards[name] = total
        self.trace.append((state.step_count, "rewards"))

        # (6) episode end policy; the shared done ends every agent still active
        truncated = self._truncated
        dones: dict[str, bool] = {}
        done_codes: dict[str, DoneStatusCode | None] = {}
        ended = len(outcome) - len(active)
        for name, _ in active:
            result = outcome[name]
            if result is None:
                result = outcome[name] = shared_first
            if result is None:
                dones[name] = False
                done_codes[name] = None
            else:
                ended += 1
                dones[name] = True
                done_codes[name] = result.code
                truncated = truncated or result.truncation
        if shared_first is not None:
            self._env_done = True
            truncated = truncated or shared_first.truncation
        elif self.config.episode_end_mode is EpisodeEndMode.ANY_AGENT_DONE:
            self._env_done = ended > 0
        else:
            self._env_done = ended == len(outcome)
        self._truncated = truncated

        # (7) observation space sanity checks
        self._space_check()

        return StepResult(
            observations=self._collect_observations(active),
            rewards=rewards,
            dones=dones,
            done_codes=done_codes,
            env_done=self._env_done,
            truncated=truncated,
            info={
                "reward_components": components,
                "done_results": {
                    name: {k: r.code.value for k, r in fired[name].items()} for name, _ in active
                },
                "shared_done_results": {k: r.code.value for k, r in shared_fired.items()},
            },
        )

    @property
    def episode_done(self) -> bool:
        return self._env_done

    @property
    def agent_done_codes(self) -> dict[str, DoneStatusCode | None]:
        return {name: (r.code if r else None) for name, r in self._outcome.items()}

    def apply_training_result(self, result: dict | None = None) -> None:
        self.epp.apply_training_result(result)
        self._epp_history.append(self.epp.snapshot_state())

    def run_config(self) -> dict:
        """Snapshot for run_config.json: the config tree and the EPP state per training iteration."""
        return {
            "environment": environment_config_to_tree(self.config),
            "epp_state_per_iteration": self._epp_history,
        }

    # Schedule internals -------------------------------------------------

    def _evaluate_glues(self) -> None:
        state = self.state
        for node in self._glue_nodes:
            node.observation = node.functor.get_observation(state)

    @staticmethod
    def _collect_observations(agents) -> dict[str, dict[str, Quantity]]:
        """Each of ``agents``' ((name, agent) pairs) observations, keyed
        '<glue name>/<key>', as a ``Quantity`` in its box's unit."""
        return {
            name: {
                obs_name: Quantity(node.observation[key], box.unit)
                for obs_name, node, key, box in agent.observation_layout
            }
            for name, agent in agents
        }

    def _space_check(self) -> None:
        mode = self.config.space_check_mode
        if mode.mode == "off":
            return
        if mode.mode == "spot_check":
            self.spot_checks_attempted += 1
            if self._check_rng.random() >= mode.probability:
                return
            self.spot_checks_run += 1
        for name, agent in self.agents.items():
            for _, node, key, box in agent.observation_layout:
                values = node.observation[key]
                # NaN fails neither comparison, so it passes here as it does in
                # the element loop that words the error, and no value lies
                # outside an unbounded box; a wrong shape goes to that loop as
                # it always did.
                if values.shape != box.low.shape or (
                    not box.unbounded and ((values < box.low) | (values > box.high)).any()
                ):
                    _raise_first_violation(name, node.name, values, box)


def _raise_first_violation(agent: str, glue: str, values: np.ndarray, box: Box) -> None:
    for i, v in enumerate(values):
        if v < box.low[i] or v > box.high[i]:
            raise SpaceViolation(agent, glue, i, float(v), float(box.low[i]), float(box.high[i]))
