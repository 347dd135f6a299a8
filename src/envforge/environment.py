"""Multi-agent environment: EPP sampling, simulator stepping, and the
glue -> done -> reward schedule.  Each observation is checked as its glue
returns it: its shape always, its bounds unless ``space_check_mode`` is off.
The environment only steps; recording a trajectory is the caller's job (see
``evaluation.evaluate.run_episode``).
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .agents import Agent, PolicyPool, attach_parts, build_agent
from .config.schema import HORIZON_DONE, EnvironmentConfig, EpisodeEndMode, SpaceCheckMode
from .config.validate import AGENT_PLATFORMS, SIMULATOR, environment_tree
from .epp import EppError, EpisodeParameterProvider, InvalidOverride, ParameterSpec
from .functors.base import DoneResult, DoneStatusCode, EpisodeState, FunctorSpec
from .functors.graph import FUNCTOR_REGISTRY, build_graph
from .params import (
    PARSE_ERRORS, BuildErrors, ConfigError, Param, ParamError, join_path, nonnegative_int, parse_params,
)
from .parts import Box, all_finite
from .simulators import SIMULATORS, init_key
from .units import DimensionMismatch, Quantity, as_vector


class EnvironmentError_(Exception):
    pass


class EpisodeAlreadyDone(EnvironmentError_):
    def __init__(self):
        super().__init__("step() called after the episode ended; call reset()")


class InvalidSeed(EnvironmentError_):
    """A ``reset`` seed that is not an integer of zero or more."""

    def __init__(self, seed, reason: str):
        self.seed = seed
        super().__init__(f"reset: seed {seed!r}: {reason}")


class SpaceViolation(EnvironmentError_):
    """An observation element outside its box; ``agent`` is None for a glue of the shared dones."""

    def __init__(self, agent: str | None, glue: str, element: int, value: float, low: float, high: float):
        self.agent = agent
        self.glue = glue
        owner = "shared_dones" if agent is None else f"agent '{agent}'"
        super().__init__(
            f"observation out of bounds: {owner}, glue '{glue}', "
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


class ObservationShapeMismatch(EnvironmentError_):
    """A glue's observation that is not an array of its observation box's
    shape.  ``got`` is its shape, or says what the glue returned instead
    ('missing', 'a list'); ``agent`` is None for a glue of the shared dones."""

    def __init__(self, agent: str | None, glue: str, key: str, got: tuple[int, ...] | str, expected: tuple[int, ...]):
        self.agent = agent
        self.glue = glue
        self.key = key
        self.got = got
        self.expected = expected
        owner = "shared_dones" if agent is None else f"agent '{agent}'"
        if isinstance(got, tuple):
            found = f"has shape {got}, expected {expected}"
        else:
            found = f"is {got}, expected an array of shape {expected}"
        super().__init__(f"{owner}, glue '{glue}': observation '{key}' {found}")


class ActionShapeMismatch(EnvironmentError_):
    """An action fragment whose shape is not its action box's (a bare number is one element)."""

    def __init__(self, agent: str, glue: str, got: tuple[int, ...], expected: tuple[int, ...]):
        self.agent = agent
        self.glue = glue
        self.got = got
        self.expected = expected
        super().__init__(
            f"agent '{agent}', glue '{glue}': action fragment has shape {got}, expected {expected}"
        )


@dataclass
class StepResult:
    """Each observation is its glue's array, in its ``observation_space()`` box's unit.

    Each dict is keyed by the agents that acted this step.  An agent ends on
    the step its ``done_codes`` entry is first not None; ``truncated`` is then
    the ``truncation`` of the ``DoneResult`` that ended it (True for an
    ``EpisodeHorizon``'s DRAW), and False while it is active."""

    observations: dict[str, dict[str, np.ndarray]]
    rewards: dict[str, float]
    done_codes: dict[str, DoneStatusCode | None]
    env_done: bool
    truncated: dict[str, bool]
    reward_components: dict[str, dict[str, float]]


def _own_copy(spec: ParameterSpec, name: str) -> ParameterSpec:
    """``spec`` named ``name``, with a copy of its distribution for updaters to move."""
    own = copy.copy(spec)
    own.name, own.distribution = name, copy.copy(spec.distribution)
    return own


def episode_parameters(config: EnvironmentConfig) -> tuple[EpisodeParameterProvider, list[ParamError]]:
    """A provider of every episode parameter ``config`` declares, with the
    readers of each (see ``_readers``), and every error in them.

    The parameters are the reference store, each platform's initialization
    (keyed ``<platform>.<name>``), then each agent's reference store and
    parameters.  A name an earlier spec took is a ``DuplicateName`` outside
    the agents, and a ``ConflictingField`` for an agent's spec unless it is
    identical: an identical repeat, as two agent files that include one
    store give, is one parameter.  The provider holds its own copy of each
    distribution, so a curriculum moves the copy and not ``config``.

    A platform's initialization parameter that the simulator does not read
    is an ``UnknownField``.  A reader of a key no spec declares, or in a
    unit of another dimension, is an error at the reader; a value of a
    spec's ``distribution``.  What ``_entry_errors`` finds raises, as in the build.
    """
    entry_errors = _entry_errors(config)
    if entry_errors:
        raise ConfigError.listing("environment", entry_errors)
    epp = EpisodeParameterProvider()
    errors: list[ParamError] = []
    declared = [(spec.name, spec, join_path("reference_store", key)) for key, spec in config.reference_store.items()]
    reads = [p.name for p in SIMULATORS[config.simulator_name].init_params]
    for i, platform in enumerate(config.platforms):
        for pname, spec in platform.initialization.items():
            path = join_path("platforms", i, "initialization", pname)
            declared.append((init_key(platform.name, pname), spec, path))
            if pname not in reads:
                errors.append((path, "UnknownField", f"unknown field '{pname}' (declared: {sorted(reads)})"))
    for name, spec, path in declared:
        if name in epp:
            errors.append((path, "DuplicateName", f"another parameter is already named '{name}'"))
        else:
            epp.add(_own_copy(spec, name), path)
    for agent_cfg in config.agents:
        for section, store in (
            ("reference_store", agent_cfg.reference_store),
            ("episode_parameter_provider/parameters", agent_cfg.parameters),
        ):
            for key, spec in store.items():
                path = join_path(agent_cfg.path, section, key)
                if spec.name not in epp:
                    epp.add(_own_copy(spec, spec.name), path)
                elif epp.specs[spec.name] != spec:
                    message = f"'{spec.name}' is already declared with another spec"
                    errors.append((path, "ConflictingField", message))
    specs = epp.specs
    for key, path, p, undeclared in _readers(config):
        spec = specs.get(key)
        if spec is None:
            errors.append((path, *undeclared))
        elif p.unit is not None and spec.unit.dimension is not p.unit.dimension:
            message = f"'{key}' is in {spec.unit.name}: {DimensionMismatch(spec.unit, p.unit)}"
            errors.append((path, "DimensionMismatch", message))
        else:
            epp.readers.setdefault(key, []).append(p)
    for key in epp.readers:
        spec = specs[key]
        try:  # a value the spec can yield must pass its readers as an override does
            for value in spec.distribution.support(spec.updaters):
                epp.override(key, Quantity.scalar(value, spec.unit))
        except InvalidOverride as exc:
            message = f"value {value} {spec.unit.name}: {exc.reason}"
            errors.append((join_path(epp.paths[key], "distribution"), "TypeMismatch", message))
    return epp, errors


def _readers(config: EnvironmentConfig) -> list[tuple[str, str, Param, tuple[str, str]]]:
    """(key, config path, param, code and message if no spec declares the
    key) of each param that reads an episode parameter: each initialization
    value the simulator reads, then each reference of a functor (``wrapped``
    ones too) to a param it declares referenceable (its constructor reports
    any other)."""
    found = []
    for i, platform in enumerate(config.platforms):
        for p in SIMULATORS[config.simulator_name].init_params:
            path = join_path("platforms", i, "initialization", p.name)
            missing = ("MissingField", f"missing initialization parameter '{p.name}'")
            found.append((init_key(platform.name, p.name), path, p, missing))

    def walk(item) -> None:
        if isinstance(item, FunctorSpec):
            cls = FUNCTOR_REGISTRY.get(item.functor)
            declared = {p.name: p for p in cls.params if p.referenceable} if cls else {}
            for name, key in item.references.items():
                if name in declared:
                    undeclared = ("UnknownReference", f"reference key '{key}' is not declared")
                    found.append((key, join_path(item.path, "references", name), declared[name], undeclared))
            walk(item.wrapped)
        elif isinstance(item, (list, tuple, dict)):
            for child in item.values() if isinstance(item, dict) else item:
                walk(child)

    walk([config.shared_dones, *([*a.glues, *a.dones, *a.rewards] for a in config.agents)])
    return found


def _entry_errors(config: EnvironmentConfig) -> list[ParamError]:
    """What ``validate`` reports of a config's simulator, platforms and
    agents: an unknown simulator, an agent with no platform (its parts
    attach to its first), and a ``DuplicateName`` for each platform, and each
    agent, whose name an earlier one took: the simulator keys platforms by
    name, and the environment keys agents by name."""
    simulator = {"name": config.simulator_name, "config": config.simulator_config}
    errors = parse_params(SIMULATOR, simulator, "simulator")[1]
    agent_paths = [a.path or f"agents/{i}" for i, a in enumerate(config.agents)]
    for path, agent in zip(agent_paths, config.agents):
        errors += parse_params((AGENT_PLATFORMS,), {"platforms": agent.platform_names}, path)[1]
    entries = [(join_path("platforms", i, "name"), "platform", p.name) for i, p in enumerate(config.platforms)]
    entries += [(join_path(path, "agent"), "agent", a.name) for path, a in zip(agent_paths, config.agents)]
    seen: set[tuple[str, str]] = set()
    for path, kind, name in entries:
        if (kind, name) in seen:
            errors.append((path, "DuplicateName", f"another {kind} is already named '{name}'"))
        seen.add((kind, name))
    return errors


class Environment:
    """Owns one simulator, its agents, and the per-step evaluation schedule.
    The build reads ``space_check_mode`` once, to fix which boxes' bounds
    every reset and step check."""

    def __init__(self, config: EnvironmentConfig):
        """Check every reader of an episode parameter (``episode_parameters``
        raises what ``_entry_errors`` finds before anything is built), build
        the simulator and its platforms, then every agent's parts, then the
        functor graphs and policies; nothing is drawn or reset.  What fails
        is reported at its config path and what depends on it is skipped (a
        functor may read any part); then the first ``ConfigError`` is raised,
        listing every error."""
        self.config = config
        self.epp, parameter_errors = episode_parameters(config)
        errors = BuildErrors()

        sim_cls = SIMULATORS[config.simulator_name]
        self.simulator = errors.attempt(sim_cls, config.simulator_config, config.platforms, path="simulator")
        errors.check()  # nothing builds without the simulator and its platforms

        if parameter_errors:
            errors.add(EppError.listing("episode parameters", parameter_errors))

        platforms = self.simulator.platforms
        for agent_cfg in config.agents:
            errors.attempt(attach_parts, agent_cfg, platforms, sim_cls.simulator_type)
        if errors.first is None:
            policy_pool = PolicyPool()
            agents = [errors.attempt(build_agent, a, platforms, policy_pool) for a in config.agents]
            self.agents: dict[str, Agent] = {agent.name: agent for agent in agents if agent is not None}
            shared_specs = [*config.shared_dones, HORIZON_DONE]
            self.shared_graph = errors.attempt(build_graph, dict(platforms), [], shared_specs)
        errors.check()
        # (owner, node, get_observation, (key, shape, box whose bounds are
        # checked, else None) of each observation it declares) of every glue,
        # each graph's in topological order: the observe phase; the owner is
        # the agent's name, None for the shared graph.  A box is checked if it
        # is bounded and the mode is every_step.
        checks_bounds = config.space_check_mode is SpaceCheckMode.EVERY_STEP
        self._observe = [
            (owner, node, node.functor.get_observation,
             tuple((key, box.low.shape, box if checks_bounds and not box.unbounded else None)
                   for key, box in node.observation_space.items()))
            for owner, graph in [*((a.name, a.graph) for a in self.agents.values()), (None, self.shared_graph)]
            for node in graph.nodes.values()
            if node.kind == "glue"
        ]
        self._shared_dones = [(node.name, node.functor.evaluate) for node in self.shared_graph.dones]
        self._any_agent_done = config.episode_end_mode is EpisodeEndMode.ANY_AGENT_DONE

        self.state: EpisodeState | None = None
        self._env_done = True
        # agent name -> the done that ended it, None while it is active
        self._outcome: dict[str, DoneResult | None] = {}
        # the agents without an outcome: set by reset, replaced by a completed step
        self._active: list[Agent] = []
        self._epp_history: list[dict] = [self.epp.snapshot_state()]

    # Lifecycle ---------------------------------------------------------

    def reset(self, seed: int = 0, overrides: dict[str, Quantity] | None = None):
        """Start an episode; ``seed``, an integer of zero or more, seeds the
        parameter draws and every agent's policy, and ``overrides`` fixes
        named parameters for it.  A bad seed (``InvalidSeed``), override or
        draw (see ``EpisodeParameterProvider.sample_episode``) changes
        nothing; any later exception ends the episode, as in ``step``."""
        try:
            seed = nonnegative_int(seed)
        except PARSE_ERRORS as exc:
            raise InvalidSeed(seed, str(exc)) from exc
        sampled = self.epp.sample_episode(seed, overrides)
        self._env_done = True
        self.simulator.reset(sampled)
        for agent in self.agents.values():
            agent.graph.reset(sampled)
            agent.policy.reseed(seed)
        self.shared_graph.reset(sampled)

        self.state = EpisodeState(self.simulator.platforms, self.config.horizon)
        self.state.sim_time = self.simulator.sim_time
        self._outcome = dict.fromkeys(self.agents)
        self._active = list(self.agents.values())

        self._evaluate_glues()
        self._env_done = False
        return self._collect_observations(self.agents.values())

    def step(self, actions: dict[str, dict[str, np.ndarray]]) -> StepResult:
        """Run one step.  A refused action changes nothing; any later exception
        ends the episode, and ``step`` raises ``EpisodeAlreadyDone`` until ``reset``."""
        if self.state is None or self._env_done:
            raise EpisodeAlreadyDone()
        state = self.state
        outcome = self._outcome
        agents = self.agents
        active = self._active

        # (1) glues push actions to controllers, once every fragment has passed
        # its checks; a missing fragment leaves that controller's zero command
        for name, fragments in actions.items():
            agent = agents.get(name)
            if agent is None:
                raise UnknownActionKey(name)
            if not fragments.keys() <= agent.action_names:
                unknown = next(k for k in fragments if k not in agent.action_names)
                raise UnknownActionKey(name, unknown)
        commands = []
        for agent in active:
            name = agent.name
            fragments = actions.get(name)
            if not fragments:
                continue
            for glue, shape, apply_action in agent.action_calls:
                if glue in fragments:
                    values = as_vector(fragments[glue])
                    if values.shape != shape:
                        raise ActionShapeMismatch(name, glue, values.shape, shape)
                    if not all_finite(values):
                        raise NonFiniteAction(name, glue)
                    commands.append((apply_action, values))
        self._env_done = True  # until the end of the schedule says otherwise
        for apply_action, values in commands:
            apply_action(values, state)

        # (2) simulator advances one frame
        self.simulator.step()
        state.step_count += 1
        state.sim_time = self.simulator.sim_time

        # (3) glues compute observations, each checked as its glue returns it
        self._evaluate_glues()

        # (4) dones, including shared dones; an agent's outcome is its first
        # fired done, else the first shared done; a dict is made where one fires
        fired: dict[str, dict[str, DoneResult]] = {}
        for agent in active:
            name = agent.name
            first = agent_fired = None
            for done, evaluate in agent.done_calls:
                result = evaluate(state)
                if result is not None:
                    if first is None:
                        first = result
                        fired[name] = agent_fired = {}
                    agent_fired[done] = result
            outcome[name] = first
        shared_fired: dict[str, DoneResult] | None = None
        shared_first: DoneResult | None = None
        for done, evaluate in self._shared_dones:
            result = evaluate(state)
            if result is not None:
                if shared_first is None:
                    shared_first = result
                    shared_fired = {}
                shared_fired[done] = result

        # (5) rewards, with this step's done results visible; an agent's
        # reward is the sum of its components, in order
        components: dict[str, dict[str, float]] = {}
        rewards: dict[str, float] = {}
        for agent in active:
            name = agent.name
            agent_dones = fired.get(name, {}) if shared_fired is None else {**fired.get(name, {}), **shared_fired}
            components[name] = agent_components = {}
            total = 0  # an int, as sum() starts: no components is a reward of 0
            for reward, evaluate in agent.reward_calls:
                agent_components[reward] = value = float(evaluate(state, agent_dones))
                total += value
            rewards[name] = total

        # (6) episode end policy; the shared done ends every agent still active
        done_codes: dict[str, DoneStatusCode | None] = {}
        truncated: dict[str, bool] = {}
        still_active = []
        for agent in active:
            name = agent.name
            result = outcome[name]
            if result is None:
                result = outcome[name] = shared_first
            if result is None:
                done_codes[name] = None
                truncated[name] = False
                still_active.append(agent)
            else:
                done_codes[name] = result.code
                truncated[name] = result.truncation
        if shared_first is not None:
            self._env_done = True
        elif self._any_agent_done:
            self._env_done = len(still_active) < len(outcome)
        else:
            self._env_done = not still_active

        self._active = still_active
        return StepResult(
            observations=self._collect_observations(active),
            rewards=rewards,
            done_codes=done_codes,
            env_done=self._env_done,
            truncated=truncated,
            reward_components=components,
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
            "environment": environment_tree(self.config),
            "epp_state_per_iteration": self._epp_history,
        }

    # Schedule internals -------------------------------------------------

    def _evaluate_glues(self) -> None:
        """Evaluate every glue and check each observation it declares before a
        later glue, a done or a reward reads it: its shape always, its bounds
        wherever ``_observe`` holds its box."""
        state = self.state
        for owner, node, get_observation, expected in self._observe:
            observation = node.observation = get_observation(state)
            for key, shape, box in expected:
                try:
                    values = observation[key]
                    got = values.shape
                except (LookupError, TypeError, AttributeError):  # no array under key
                    raise ObservationShapeMismatch(owner, node.name, key, _found(observation, key), shape) from None
                if got != shape:
                    raise ObservationShapeMismatch(owner, node.name, key, got, shape)
                # NaN fails neither comparison, so it passes here as it does in
                # the element loop that words the error
                if box is not None and ((values < box.low) | (values > box.high)).any():
                    _raise_first_violation(owner, node.name, values, box)

    @staticmethod
    def _collect_observations(agents) -> dict[str, dict[str, np.ndarray]]:
        """The observations of each of ``agents``, keyed '<glue name>/<key>':
        each the array its glue returned."""
        return {
            agent.name: {obs_name: node.observation[key] for obs_name, node, key, _ in agent.observation_layout}
            for agent in agents
        }


def _found(observation, key: str) -> str:
    """What a glue's result, ``observation``, holds under ``key`` instead of an array."""
    if not isinstance(observation, Mapping):
        return f"missing: the glue returned a {type(observation).__name__}"
    return f"a {type(observation[key]).__name__}" if key in observation else "missing"


def _raise_first_violation(agent: str | None, glue: str, values: np.ndarray, box: Box) -> None:
    for i, v in enumerate(values):
        if v < box.low[i] or v > box.high[i]:
            raise SpaceViolation(agent, glue, i, float(v), float(box.low[i]), float(box.high[i]))
