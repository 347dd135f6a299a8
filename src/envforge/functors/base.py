"""Functor contracts: Glue, Done, Reward, and the spec/extractor datatypes.

Glues move information between platform parts and agents.  Dones test
termination criteria and emit a status code.  Rewards produce scalar
components, evaluated after dones so they can see the step's done results.
All three compile into a deduplicated DAG (see :mod:`envforge.functors.graph`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Union

import numpy as np

from ..params import Param, parse_params
from ..parts import Box, Platform
from ..units import Quantity, Unit


class FunctorError(Exception):
    pass


class PartBindingError(FunctorError):
    """A glue references a part that is absent from the agent's platforms."""


class UnknownExtractorTarget(FunctorError):
    def __init__(self, target: str):
        super().__init__(f"extractor targets unknown glue '{target}'")


class DoneStatusCode(enum.Enum):
    WIN = "WIN"
    PARTIAL_WIN = "PARTIAL_WIN"
    DRAW = "DRAW"
    PARTIAL_LOSS = "PARTIAL_LOSS"
    LOSS = "LOSS"


@dataclass(frozen=True)
class DoneResult:
    code: DoneStatusCode
    truncation: bool = False


@dataclass(frozen=True)
class ExtractorSpec:
    """Declarative pointer into a compiled glue's observation."""

    glue: str
    key: str | None = None


WrappedSpec = Union["FunctorSpec", str, list, dict, None]


@dataclass
class FunctorSpec:
    """Declarative description of one glue/done/reward instance."""

    functor: str
    name: str | None = None
    config: dict[str, Any] = field(default_factory=dict)
    references: dict[str, str] = field(default_factory=dict)
    wrapped: WrappedSpec = None
    extractor: ExtractorSpec | None = None

    @property
    def display_name(self) -> str:
        return self.name or self.functor


class EpisodeState:
    """Mutable per-step view handed to functors during evaluation."""

    def __init__(self, platforms: dict[str, Platform], epp, horizon: int):
        self.platforms = platforms
        self.epp = epp
        self.horizon = horizon
        self.step_count = 0
        self.sim_time = 0.0
        # node id -> {key: Quantity}, refreshed every step
        self.observations: dict[str, dict[str, Quantity]] = {}

    def reference(self, key: str) -> Quantity:
        return self.epp.reference_lookup(key)


class Functor:
    """Base for all functors; state is episode-local and cleared by reset().

    ``params`` is the functor's table of config keys.  A key it does not
    declare, a value its converter rejects or a missing required key fails
    construction with a ``FunctorError`` naming the functor and the field.
    """

    kind: str = ""
    params: tuple[Param, ...] = ()

    def __init__(
        self,
        spec: FunctorSpec,
        children: dict[str, "FunctorNode"],
        extractor: "Extractor | None",
        platforms: dict[str, Platform],
    ):
        self.spec = spec
        self.name = spec.display_name
        self.settings, errors = parse_params(self.params, spec.config, spec.references)
        if errors:
            path, _, message = errors[0]
            raise FunctorError(f"{self.name} ({spec.functor}): {path}: {message}")
        units = {p.name: p.unit for p in self.params}
        # param name -> (reference-store key, declared unit), for each param sampled per episode
        self._references = {name: (key, units[name]) for name, key in spec.references.items()}
        self.children = children
        self.extractor = extractor
        self.platforms = platforms

    def reset(self) -> None:
        """Clear episode-local state."""

    def param(self, state: EpisodeState, name: str) -> float:
        """A referenceable parameter's value, in its declared unit.

        A referenced parameter is looked up on every call, because each
        episode samples it anew; any other returns its setting.
        """
        reference = self._references.get(name)
        if reference is None:
            return self.settings[name]
        key, unit = reference
        q = state.reference(key)
        return (q if unit is None else q.to(unit)).item

    def child_observation(self, state: EpisodeState, key: str | None = None) -> Quantity:
        """The (single) observation of a wrapped child, by child key."""
        if not self.children:
            raise FunctorError(f"{self.name}: has no wrapped children")
        if key is None:
            if len(self.children) != 1:
                raise FunctorError(f"{self.name}: child key required (multiple children)")
            key = next(iter(self.children))
        node = self.children[key]
        obs = state.observations[node.id]
        if len(obs) != 1:
            raise FunctorError(f"{self.name}: child '{key}' has {len(obs)} observations")
        return next(iter(obs.values()))

    def child_space(self, key: str | None = None) -> Box:
        if key is None:
            key = next(iter(self.children))
        spaces = self.children[key].observation_space
        if len(spaces) != 1:
            raise FunctorError(f"{self.name}: child '{key}' has {len(spaces)} spaces")
        return next(iter(spaces.values()))


class Glue(Functor):
    """Moves information between parts and the agent.

    ``observation_space`` and ``action_space`` are called once, when the graph
    is compiled, and the results are kept on the glue's :class:`FunctorNode`;
    they may depend only on the glue's config and on part properties.
    """

    kind = "glue"

    def observation_space(self) -> dict[str, Box]:
        return {}

    def get_observation(self, state: EpisodeState) -> dict[str, Quantity]:
        return {}

    def action_space(self) -> Box | None:
        return None

    def apply_action(self, fragment: np.ndarray, state: EpisodeState) -> None:
        """Default: sensor-only glues ignore actions."""


class Done(Functor):
    kind = "done"

    def evaluate(self, state: EpisodeState) -> DoneResult | None:
        raise NotImplementedError


class SharedDone(Functor):
    kind = "shared_done"

    def evaluate(self, state: EpisodeState) -> DoneResult | None:
        raise NotImplementedError


class Reward(Functor):
    kind = "reward"

    def evaluate(
        self, state: EpisodeState, done_results: dict[str, DoneResult]
    ) -> float:
        raise NotImplementedError


class Extractor:
    """Resolved accessor into a compiled glue's observation value/space/unit."""

    def __init__(self, node: "FunctorNode", key: str | None):
        spaces = node.observation_space
        if key is None:
            if len(spaces) != 1:
                raise FunctorError(
                    f"extractor on '{node.name}' needs a key ({len(spaces)} observations)"
                )
            key = next(iter(spaces))
        if key not in spaces:
            raise UnknownExtractorTarget(f"{node.name}/{key}")
        self.node = node
        self.key = key

    def value(self, state: EpisodeState) -> Quantity:
        return state.observations[self.node.id][self.key]

    def space(self) -> Box:
        return self.node.observation_space[self.key]

    def unit(self) -> Unit:
        return self.space().unit


@dataclass
class FunctorNode:
    """One deduplicated node of the compiled DAG.

    A glue node carries its observation and action spaces, computed once when
    the graph is compiled; every other node has none.
    """

    id: str
    kind: str
    name: str
    functor: Functor
    children: tuple[str, ...]
    observation_space: dict[str, Box] = field(default_factory=dict)
    action_space: Box | None = None
