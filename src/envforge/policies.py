"""Policy contract and the reference policies: random, scripted, replay.

No RL algorithm ships here; the Policy interface is the seam for external
training libraries.  Scripted rules are registered by name and referenced
from the agent file's policy block.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .params import ConfigError, Param, list_of, mapping_of, number, one_of, parse_params, string
from .parts import Box
from .units import as_vector

ActionDict = dict[str, np.ndarray]
ObservationDict = dict[str, np.ndarray]
ActionSpace = Mapping[str, Box]


class PolicyError(ConfigError):
    pass


class Policy:
    """Maps an agent's observations, bare arrays each in the unit of its box in
    ``Agent.observation_space()``, to an action inside the declared action space."""

    def __init__(self, config: dict | None = None, seed: int = 0):
        self.config = config or {}
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self.__dict__.pop("_rng", None)  # the next draw builds the generator

    @cached_property
    def _rng(self) -> np.random.Generator:
        """``np.random.default_rng(seed)``: a policy that never draws builds none."""
        return np.random.default_rng(self.seed)

    def reseed(self, seed: int) -> None:
        self.seed = seed
        self.reset()

    def compute_action(self, observation: ObservationDict, action_space: ActionSpace) -> ActionDict:
        return self._compute(observation, action_space)

    def _compute(self, observation: ObservationDict, action_space: ActionSpace) -> ActionDict:
        raise NotImplementedError

    def check_spaces(self, observation_space: Mapping[str, Box], action_space: ActionSpace) -> None:
        """Raise ``PolicyError`` if the config names an observation or an
        action glue that an agent of these spaces lacks; called at its build."""


def _settings(context: str, params: tuple[Param, ...], config: Mapping) -> dict[str, Any]:
    """``parse_params`` over a policy's config; raises ``PolicyError`` listing every error."""
    settings, errors = parse_params(params, config, "config")
    if errors:
        raise PolicyError.listing(context, errors)
    return settings


class RandomPolicy(Policy):
    """Uniform per-element sampling inside the action bounds; an infinite
    bound samples at -1 (low) or 1 (high) instead."""

    params: tuple[Param, ...] = ()  # it takes no config

    def __init__(self, config=None, seed: int = 0):
        _settings("random policy", self.params, config or {})
        super().__init__(config, seed)
        # action name -> (box, sampling low, high - low); a Box never changes,
        # so its bounds are recomputed only when the name's box does
        self._bounds: dict[str, tuple[Box, np.ndarray, np.ndarray]] = {}

    def _sampling_bounds(self, name: str, box: Box) -> tuple[np.ndarray, np.ndarray]:
        cached = self._bounds.get(name)
        if cached is None or cached[0] is not box:
            low = np.where(np.isfinite(box.low), box.low, -1.0)
            high = np.where(np.isfinite(box.high), box.high, 1.0)
            with np.errstate(over="ignore"):
                scale = high - low
            if not np.isfinite(scale).all():
                raise PolicyError(f"action '{name}': sampling range overflows")
            cached = self._bounds[name] = (box, low, scale)
        return cached[1], cached[2]

    def _compute(self, observation, action_space):
        action: ActionDict = {}
        for name, box in action_space.items():
            low, scale = self._sampling_bounds(name, box)
            # Generator.uniform(low, high) draws exactly low + (high - low) * u,
            # u from the same stream, after re-checking its arguments per call
            action[name] = low + scale * self._rng.random(low.shape)
        return action


ScriptedRule = Callable[[ObservationDict, ActionSpace], ActionDict]


@dataclass(frozen=True)
class RegisteredRule:
    """A scripted rule's factory, called with the settings its table parses
    from the config; ``observations`` and ``actions`` are its settings that
    name an observation and an action glue."""

    factory: Callable[[dict[str, Any]], ScriptedRule]
    params: tuple[Param, ...]
    observations: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()


SCRIPTED_RULES: dict[str, RegisteredRule] = {}


def register_scripted_rule(
    name: str,
    factory: Callable[[dict[str, Any]], ScriptedRule],
    params: tuple[Param, ...],
    observations: tuple[str, ...] = (),
    actions: tuple[str, ...] = (),
) -> None:
    """Register a rule under name; ``params`` declares every key of its config
    but ``rule``, of which ``observations`` name an observation, and
    ``actions`` an action glue, of the agent (checked at its build)."""
    SCRIPTED_RULES[name] = RegisteredRule(factory, params, observations, actions)


class ScriptedPolicy(Policy):
    """Evaluates a registered deterministic rule over named observations."""

    def __init__(self, config=None, seed: int = 0):
        config = config or {}
        given = {"rule": config["rule"]} if "rule" in config else {}
        name = _settings("scripted policy", (Param("rule", one_of(SCRIPTED_RULES)),), given)["rule"]
        rule_config = {k: v for k, v in config.items() if k != "rule"}
        self._registered = SCRIPTED_RULES[name]
        self._settings = _settings(f"scripted rule '{name}'", self._registered.params, rule_config)
        self._rule = self._registered.factory(self._settings)
        super().__init__(config, seed)

    def check_spaces(self, observation_space, action_space):
        registered = self._registered
        errors = []
        for keys, space, kind in (
            (registered.observations, observation_space, "observation"),
            (registered.actions, action_space, "action glue"),
        ):
            for key in keys:
                value = self._settings[key]
                if value not in space:
                    path, message = f"config/{key}", f"the agent has no {kind} '{value}' (it has: {sorted(space)})"
                    if key not in self.config:  # a default: reported at the config that left its key out
                        path, message = "config", f"'{key}' defaults to '{value}', but {message}"
                    errors.append((path, "UnknownReference", message))
        if errors:
            raise PolicyError.listing(f"scripted rule '{self.config['rule']}'", errors)

    def _compute(self, observation, action_space):
        action = self._rule(observation, action_space)
        return {
            name: action_space[name].clip(as_vector(values)) for name, values in action.items()
        }


def _fragment(raw) -> np.ndarray:
    """A recorded action fragment: a number or a list of numbers."""
    return as_vector(list_of(number)(raw) if isinstance(raw, list) else number(raw))


class ReplayPolicy(Policy):
    """Plays back a recorded action sequence; used by the evaluation pipeline tests."""

    #: each step's actions: the fragment of each action name
    params = (Param("actions", list_of(mapping_of(_fragment)), default=()),)

    def __init__(self, config=None, seed: int = 0):
        self._sequence = _settings("replay policy", self.params, config or {})["actions"]
        super().__init__(config, seed)

    def check_spaces(self, observation_space, action_space):
        errors = []
        for step, action in enumerate(self._sequence):
            for name in action:
                if name not in action_space:
                    message = f"the agent has no action glue '{name}' (it has: {sorted(action_space)})"
                    errors.append((f"config/actions/{step}/{name}", "UnknownReference", message))
        if errors:
            raise PolicyError.listing("replay policy", errors)

    def reset(self):
        super().reset()
        self._cursor = 0

    def _compute(self, observation, action_space):
        if self._cursor < len(self._sequence):
            action = self._sequence[self._cursor]
            self._cursor += 1
            return {n: action_space[n].clip(v) for n, v in action.items()}
        return {n: b.clip(np.zeros(b.shape)) for n, b in action_space.items()}


POLICY_REGISTRY: dict[str, type[Policy]] = {
    "random": RandomPolicy,
    "scripted": ScriptedPolicy,
    "replay": ReplayPolicy,
}


# Built-in scripted rules ----------------------------------------------------


def _zero_rule(settings: dict) -> ScriptedRule:
    def rule(observation, action_space):
        return {n: np.zeros(b.shape) for n, b in action_space.items()}

    return rule


_BANG_BANG_DOCKING_PARAMS = (
    Param("position_obs", string, default="ObservePosition/direct_observation"),
    Param("velocity_obs", string, default="ObserveVelocity/direct_observation"),
    Param("action_glue", string, default="ThrustControl"),
    Param("thrust", default=0.1),
    Param("v_cruise", default=0.15),
    Param("gain", default=0.1),
    Param("band", default=0.01),
)


def _bang_bang_docking(settings: dict) -> ScriptedRule:
    """Bang-off-bang thrust tracking a braking velocity profile toward x = 0.

    Accelerates toward the dock up to a cruise speed, then follows a
    proportional slow-down profile near the dock so arrival speed stays under
    the docking limit.
    """
    position_obs = settings["position_obs"]
    velocity_obs = settings["velocity_obs"]
    action_glue = settings["action_glue"]
    thrust = settings["thrust"]
    v_cruise = settings["v_cruise"]
    gain = settings["gain"]
    band = settings["band"]

    def rule(observation, action_space):
        x = float(observation[position_obs][0])
        v = float(observation[velocity_obs][0])
        v_desired = -np.sign(x) * min(v_cruise, gain * abs(x))
        err = v_desired - v
        if err > band:
            command = thrust
        elif err < -band:
            command = -thrust
        else:
            command = 0.0
        return {action_glue: np.array([command])}

    return rule


register_scripted_rule("zero", _zero_rule, ())
register_scripted_rule(
    "bang_bang_docking", _bang_bang_docking, _BANG_BANG_DOCKING_PARAMS,
    observations=("position_obs", "velocity_obs"), actions=("action_glue",),
)
