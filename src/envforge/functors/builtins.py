"""Built-in glue, done, and reward functors."""

from __future__ import annotations

import math

import numpy as np

from ..params import ANY, SOURCE, Param, boolean, integer, nonnegative, positive, positive_int, string
from ..parts import Box, Controller, Sensor
from ..units import METER, METER_PER_SECOND, NONE, DimensionMismatch, as_vector, check_compatibility, get_unit
from .base import (
    Done,
    DoneResult,
    DoneStatusCode,
    Glue,
    PartBindingError,
    Reward,
    SharedDone,
)
from .graph import register_functor


def _find_part(functor, key: str, part_type):
    """The (platform, part) of the part that ``functor``'s setting ``key``
    names, on its ``platform`` setting or else on any of its platforms."""
    platforms, name, platform_name = functor.platforms, functor.settings[key], functor.settings["platform"]
    if platform_name and platform_name not in platforms:
        message = f"platform '{platform_name}' not found in {sorted(platforms)}"
        raise functor._error("config/platform", message, "UnknownReference", PartBindingError)
    candidates = (
        [platforms[platform_name]] if platform_name else list(platforms.values())
    )
    for platform in candidates:
        part = platform.parts.get(name)
        if isinstance(part, part_type):
            return platform, part
    message = f"part '{name}' not found on platforms {sorted(platforms)}"
    raise functor._error(f"config/{key}", message, "UnknownReference", PartBindingError)


class ObserveSensor(Glue):
    """Exposes a sensor measurement, optionally min-max normalized into [-1, 1]."""

    params = (
        Param("sensor", string),
        Param("platform", string, default=None),
        Param("normalize", boolean, default=True),
    )

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.platform, self.sensor = _find_part(self, "sensor", Sensor)
        self.normalize = self.settings["normalize"]
        prop = self.sensor.property
        self._bounded = np.isfinite(prop.low) & np.isfinite(prop.high)
        span = np.where(self._bounded, prop.high - prop.low, 1.0)
        self._span = np.where(span == 0, 1.0, span)
        self._low = prop.low

    def observation_space(self):
        prop = self.sensor.property
        if not self.normalize:
            return {"direct_observation": prop}
        low = np.where(self._bounded, -1.0, prop.low)
        high = np.where(self._bounded, 1.0, prop.high)
        return {"direct_observation": Box(prop.shape, low, high, prop.unit)}

    def get_observation(self, state):
        measured = self.sensor.measure(self.platform.state)
        if not self.normalize:
            return {"direct_observation": measured}
        scaled = -1.0 + 2.0 * (measured - self._low) / self._span
        return {"direct_observation": np.where(self._bounded, scaled, measured)}


class ControllerGlue(Glue):
    """Forwards an agent action fragment to a controller's pending buffer."""

    params = (Param("controller", string), Param("platform", string, default=None))

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.platform, self.controller = _find_part(self, "controller", Controller)

    def action_space(self):
        return self.controller.property

    def apply_action(self, fragment, state):
        self.controller.apply(fragment)


class TargetValueDifference(Glue):
    """target_value minus one element of the source observation: its
    ``index``-th, counted from 0 and within the source's length."""

    inputs = SOURCE
    params = (
        Param("unit", get_unit, default=NONE),
        Param("index", integer, default=0),
        Param("min", default=-math.inf),
        Param("max", default=math.inf),
        Param("target_value", default=0.0, referenceable=True),
    )

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.unit = self.settings["unit"]
        self.index = self.settings["index"]
        size = self.source.space().shape
        if not 0 <= self.index < size:
            source = self.source.node.name
            message = f"index must be in [0, {size}) ('{source}' has {size} elements), got {self.index}"
            raise self._error("config/index", message)

    def observation_space(self):
        return {
            "target_value_difference": Box(1, self.settings["min"], self.settings["max"], self.unit)
        }

    def get_observation(self, state):
        target = self.values["target_value"]
        return {"target_value_difference": np.array([target - float(self.source.value()[self.index])])}


class UnitVector(Glue):
    """Source observation scaled to unit Euclidean norm (zero stays zero)."""

    inputs = SOURCE

    def observation_space(self):
        return {"unit_vector": Box(self.source.space().shape, -1.0, 1.0, NONE)}

    def get_observation(self, state):
        child = self.source.value()
        norm = float(np.linalg.norm(child))
        return {"unit_vector": child / norm if norm > 0 else np.zeros_like(child)}


class Norm(Glue):
    """Euclidean norm of the source observation."""

    inputs = SOURCE

    def observation_space(self):
        child = self.source.space()
        bound = float(
            np.sqrt(np.sum(np.maximum(np.abs(child.low), np.abs(child.high)) ** 2))
        )
        return {"norm": Box(1, 0.0, bound, child.unit)}

    def get_observation(self, state):
        return {"norm": np.array([float(np.linalg.norm(self.source.value()))])}


def _check_one_shape(functor, first: str, second: str) -> None:
    """Raise a ``TypeMismatch`` at ``wrapped/<second>`` unless ``functor``'s
    sources ``first`` and ``second`` have one shape."""
    a, b = functor.sources[first], functor.sources[second]
    if a.space().shape != b.space().shape:
        shapes = f"'{a.node.name}' ({first}) has {a.space().shape} elements, '{b.node.name}' ({second})"
        raise functor._error(f"wrapped/{second}", f"{shapes} {b.space().shape}: expected one shape")


class Projection(Glue):
    """Scalar projection of child 'value' onto the direction of child 'onto',
    which has value's shape."""

    inputs = ("value", "onto")

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        _check_one_shape(self, "value", "onto")

    def observation_space(self):
        value = self.sources["value"].space()
        bound = float(
            np.sqrt(np.sum(np.maximum(np.abs(value.low), np.abs(value.high)) ** 2))
        )
        return {"projection": Box(1, -bound, bound, value.unit)}

    def get_observation(self, state):
        value = self.sources["value"].value()
        onto = self.sources["onto"].value()
        norm = float(np.linalg.norm(onto))
        direction = onto / norm if norm > 0 else np.zeros_like(onto)
        return {"projection": np.array([float(np.dot(value, direction))])}


class Difference(Glue):
    """Element-wise difference of two wrapped observations of one shape,
    first - second, in first's unit; second is converted to it by one factor
    fixed at build."""

    inputs = ("first", "second")

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        _check_one_shape(self, "first", "second")
        first = self.sources["first"].space().unit
        second = self.sources["second"].space().unit
        if not check_compatibility(first, second):
            raise self._error("wrapped/second", str(DimensionMismatch(second, first)), "DimensionMismatch")
        self._factor = second.scale_to_base / first.scale_to_base

    def observation_space(self):
        first = self.sources["first"].space()
        second = self.sources["second"].space()
        low, high = first.low - second.high * self._factor, first.high - second.low * self._factor
        return {"difference": Box(first.shape, low, high, first.unit)}

    def get_observation(self, state):
        second = self.sources["second"].value()
        return {"difference": self.sources["first"].value() - second * self._factor}


class Wrapper(Glue):
    """Groups child glues, re-exporting their observations namespaced by child key."""

    inputs = ANY

    def observation_space(self):
        out = {}
        for key, node in self.children.items():
            for obs_key, box in node.observation_space.items():
                out[f"{key}/{obs_key}"] = box
        return out

    def get_observation(self, state):
        out = {}
        for key, node in self.children.items():
            for obs_key, value in node.observation.items():
                out[f"{key}/{obs_key}"] = value
        return out


# Dones --------------------------------------------------------------------


class EpisodeHorizon(SharedDone):
    """Truncates the episode (DRAW) once the step counter reaches the horizon:
    ``horizon`` from config, else the environment's."""

    params = (Param("horizon", positive_int, default=None),)

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.horizon = self.settings["horizon"]

    def evaluate(self, state):
        horizon = state.horizon if self.horizon is None else self.horizon
        if state.step_count >= horizon:
            return DoneResult(DoneStatusCode.DRAW, truncation=True)
        return None


class StateBounds(Done):
    """Fires when the source observation leaves [min, max]."""

    inputs = SOURCE
    params = (
        Param("min", default=-math.inf, referenceable=True),
        Param("max", default=math.inf, referenceable=True),
        Param("status", DoneStatusCode.__getitem__, default=DoneStatusCode.LOSS),
    )

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.code = self.settings["status"]

    def evaluate(self, state):
        # numpy's ((value < min) | (value > max)).any(), by an exact test in
        # Python that costs less than numpy's on a few elements: numpy
        # compares each float64 element with the bound converted to float64,
        # and a NaN element, or bound, fails both comparisons.
        values = self.values
        low, high = float(values["min"]), float(values["max"])
        for element in as_vector(self.source.value()).tolist():
            if element < low or element > high:
                return DoneResult(self.code)
        return None


class DockingSuccess(Done):
    """WIN when the craft is within dock_radius at a safe closing speed."""

    params = (
        Param("dock_radius", nonnegative, unit=METER, referenceable=True),
        Param("velocity_limit", nonnegative, unit=METER_PER_SECOND, referenceable=True),
        Param("platform", string, default=None),
    )

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.platform_name = self.settings["platform"] or next(iter(platforms))
        if self.platform_name not in platforms:
            message = f"platform '{self.platform_name}' not found in {sorted(platforms)}"
            raise self._error("config/platform", message, "UnknownReference", PartBindingError)

    def _entity(self, state):
        return state.platforms[self.platform_name].state

    def evaluate(self, state):
        entity = self._entity(state)
        values = self.values
        if abs(entity.x) <= values["dock_radius"] and abs(entity.xdot) <= values["velocity_limit"]:
            return DoneResult(DoneStatusCode.WIN)
        return None


class DockingFailure(DockingSuccess):
    """LOSS (crash) when the craft reaches dock_radius too fast."""

    def evaluate(self, state):
        entity = self._entity(state)
        values = self.values
        if abs(entity.x) <= values["dock_radius"] and abs(entity.xdot) > values["velocity_limit"]:
            return DoneResult(DoneStatusCode.LOSS)
        return None


# Rewards --------------------------------------------------------------------


class ConstantStepReward(Reward):
    """A fixed payment every step on which no done has fired for the agent."""

    params = (Param("reward", default=1.0),)

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.reward = self.settings["reward"]

    def evaluate(self, state, done_results):
        if done_results:
            return 0.0
        return self.reward


class ExponentialDecayFromTargetValue(Reward):
    """scale * exp(-|v - target| / eps), damped when moving away from the target.

    When the current distance to target exceeds the previous step's distance,
    the payment is multiplied by ``reward_when_farther`` (default 0).
    """

    inputs = SOURCE
    params = (
        Param("eps", positive),
        Param("scale", default=1.0),
        Param("reward_when_farther", default=0.0),
        Param("target_value", default=0.0, referenceable=True),
    )

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.eps = self.settings["eps"]
        self.scale = self.settings["scale"]
        self.reward_when_farther = self.settings["reward_when_farther"]
        self._previous_distance: float | None = None

    def reset(self):
        self._previous_distance = None

    def evaluate(self, state, done_results):
        value = float(self.source.value()[0])
        distance = abs(value - self.values["target_value"])
        reward = self.scale * math.exp(-distance / self.eps)
        if self._previous_distance is not None and distance > self._previous_distance:
            reward *= self.reward_when_farther
        self._previous_distance = distance
        return reward


class DoneStatusReward(Reward):
    """Pays configured amounts keyed by the done status codes fired this step."""

    params = tuple(Param(code.value.lower(), default=0.0) for code in DoneStatusCode)

    def __init__(self, spec, children, extractor, platforms):
        super().__init__(spec, children, extractor, platforms)
        self.amounts = {code: self.settings[code.value.lower()] for code in DoneStatusCode}

    def evaluate(self, state, done_results):
        total = 0.0
        for result in done_results.values():
            total += self.amounts[result.code]
        return total


BUILTIN_FUNCTORS = {
    "ObserveSensor": ObserveSensor,
    "ControllerGlue": ControllerGlue,
    "TargetValueDifference": TargetValueDifference,
    "UnitVector": UnitVector,
    "Norm": Norm,
    "Projection": Projection,
    "Difference": Difference,
    "Wrapper": Wrapper,
    "EpisodeHorizon": EpisodeHorizon,
    "StateBounds": StateBounds,
    "DockingSuccess": DockingSuccess,
    "DockingFailure": DockingFailure,
    "ConstantStepReward": ConstantStepReward,
    "ExponentialDecayFromTargetValue": ExponentialDecayFromTargetValue,
    "DoneStatusReward": DoneStatusReward,
}

for _name, _cls in BUILTIN_FUNCTORS.items():
    register_functor(_name, _cls)
