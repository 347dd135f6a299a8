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

from ..epp import SampledParameters
from ..params import SOURCE, ConfigError, Param, check_inputs, parse_params, parse_reference, wrapped_path
from ..parts import Box, Platform


class FunctorError(ConfigError):
    pass


class PartBindingError(FunctorError):
    """A functor names a part or platform that is absent from the agent's platforms."""


class UnknownExtractorTarget(FunctorError):
    """A wrapped child or an extractor names no top-level functor."""


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
    """Declarative description of one glue/done/reward instance.

    ``path`` is the config path it was parsed from ('' if built in Python):
    the build reports the spec's errors under it.  It is not compared and
    not serialized.
    """

    functor: str
    name: str | None = None
    config: dict[str, Any] = field(default_factory=dict)
    references: dict[str, str] = field(default_factory=dict)
    wrapped: WrappedSpec = None
    extractor: ExtractorSpec | None = None
    path: str = field(default="", compare=False, repr=False)

    @property
    def display_name(self) -> str:
        return self.name or self.functor

    @property
    def label(self) -> str:
        """'<display name> (<functor>)', as its errors name it."""
        return f"{self.display_name} ({self.functor})"


class EpisodeState:
    """Mutable per-step view handed to functors during evaluation."""

    def __init__(self, platforms: dict[str, Platform], horizon: int):
        self.platforms = platforms
        self.horizon = horizon
        self.step_count = 0
        self.sim_time = 0.0


class Functor:
    """Base for all functors; state is episode-local and cleared by reset().

    ``params`` is the functor's table of config keys.  A key it does not
    declare, a value its converter rejects or a missing required key fails
    construction with a ``FunctorError`` naming the functor and the field,
    which lists every such error and every input error.
    ``values`` holds the settings and, once ``bind`` has run for the
    episode, each referenced param's sample.

    ``inputs`` declares the observations it reads (see ``params.check_inputs``).
    Construction binds a ``SOURCE`` as ``source`` and each key of a tuple as
    ``sources[key]``, each an :class:`Extractor`, the one way to read them; a
    bound child must have exactly one observation.  ``ANY`` children are read
    through ``children``.
    """

    kind: str = ""
    params: tuple[Param, ...] = ()
    inputs: Any = ()

    def __init__(
        self,
        spec: FunctorSpec,
        children: dict[str, "FunctorNode"],
        extractor: "Extractor | None",
        platforms: dict[str, Platform],
    ):
        self.spec = spec
        self.name = spec.display_name
        self.settings, errors = parse_params(self.params, spec.config, "config", spec.references)
        errors += check_inputs(self.inputs, children.keys(), extractor is not None)
        if errors:
            raise FunctorError.listing(spec.label, errors)
        declared = {p.name: p for p in self.params}
        # param name -> (reference-store key, Param), for each param sampled per episode
        self._references = {name: (key, declared[name]) for name, key in spec.references.items()}
        self.values: dict[str, Any] = dict(self.settings)
        self.children = children
        self.platforms = platforms
        if self.inputs is SOURCE:
            self.source = extractor or self._bind_input(*next(iter(children.items())))
        elif isinstance(self.inputs, tuple):
            self.sources = {key: self._bind_input(key, children[key]) for key in self.inputs}

    def _error(self, path: str, message: str, code: str = "TypeMismatch", cls=FunctorError) -> FunctorError:
        return cls.listing(self.spec.label, [(path, code, message)])

    def _bind_input(self, key: str, node: "FunctorNode") -> "Extractor":
        count = len(node.observation_space)
        if count != 1:
            raise self._error(wrapped_path(key), f"'{node.name}' has {count} observations, expected one")
        return Extractor(node, None)

    def reset(self) -> None:
        """Clear episode-local state."""

    def bind(self, sample: SampledParameters) -> None:
        """Bind this episode's referenced values into ``values``, each
        converted to its param's unit and read by its ``parse``, which takes
        it: ``sample_episode`` refused any sample a reader refuses."""
        for name, (key, p) in self._references.items():
            self.values[name] = parse_reference(p, sample[key])


class Glue(Functor):
    """Moves information between parts and the agent.

    ``observation_space`` and ``action_space`` are called once, when the graph
    is compiled, and the results are kept on the glue's :class:`FunctorNode`;
    they may depend only on the glue's config and on part properties.
    ``get_observation`` returns one float64 array per observation key, of its
    box's shape and in its box's unit.  The environment checks each one as
    the glue returns it, before another glue, a done or a reward reads it:
    ``ObservationShapeMismatch`` for an observation that is missing, not an
    array or of another shape, and, when ``space_check_mode`` checks, a
    ``SpaceViolation`` for one outside its box.  ``apply_action`` gets the
    fragment in the action box's unit.
    """

    kind = "glue"

    def observation_space(self) -> dict[str, Box]:
        return {}

    def get_observation(self, state: EpisodeState) -> dict[str, np.ndarray]:
        return {}

    def action_space(self) -> Box | None:
        return None

    def apply_action(self, fragment: np.ndarray, state: EpisodeState) -> None:
        """Default: sensor-only glues ignore actions."""


class Done(Functor):
    kind = "done"

    def evaluate(self, state: EpisodeState) -> DoneResult | None:
        raise NotImplementedError


class SharedDone(Done):
    """A done written to end every agent; a done is shared because it is
    listed under ``shared_dones``, whatever its class."""

    kind = "shared_done"


class Reward(Functor):
    kind = "reward"

    def evaluate(
        self, state: EpisodeState, done_results: dict[str, DoneResult]
    ) -> float:
        raise NotImplementedError


class Extractor:
    """One observation of a compiled glue, bound when the graph is built.

    The graph builder reports a ``FunctorError`` raised here at the
    ``extractor`` of the functor that holds the extractor.
    """

    def __init__(self, node: "FunctorNode", key: str | None):
        spaces = node.observation_space
        if key is None:
            if len(spaces) != 1:
                message = f"'{node.name}' has {len(spaces)} observations, so a key is needed"
                raise FunctorError(message, [("", "MissingField", message)])
            key = next(iter(spaces))
        if key not in spaces:
            message = f"'{node.name}' has no observation '{key}'"
            raise FunctorError(message, [("", "UnknownReference", message)])
        self.node = node
        self.key = key

    def value(self) -> np.ndarray:
        """The observation as of the glue's latest evaluation, in ``space().unit``."""
        return self.node.observation[self.key]

    def space(self) -> Box:
        return self.node.observation_space[self.key]


@dataclass
class FunctorNode:
    """One deduplicated node of the compiled DAG.

    A glue node carries its observation and action spaces, computed once when
    the graph is compiled, and its observation, replaced each time the glue
    is evaluated (arrays in their boxes' units); every other node has none.
    A node belongs to one agent's graph, so its observation is that agent's alone.
    """

    id: str
    kind: str
    name: str
    functor: Functor
    children: tuple[str, ...]
    observation_space: dict[str, Box] = field(default_factory=dict)
    action_space: Box | None = None
    observation: dict[str, np.ndarray] = field(default_factory=dict, compare=False, repr=False)
