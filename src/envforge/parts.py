"""Platforms, Sensor/Controller parts, and the condition-matched plugin registry.

A platform is a simulator-backed entity with measurable or modifiable state.
Parts attach to platforms with bounded, unit-tagged property spaces: a part's
values are bare float64 vectors in its property's unit.  Part group names in
agent config files resolve through the plugin registry, so swapping
simulators never requires editing agent configs.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .params import ConfigError, Param, string
from .units import FLOAT64, NONE, Unit


class PartError(ConfigError):
    pass


class InvalidReading(PartError):
    def __init__(self, sensor: str, reading: np.ndarray, shape: int):
        super().__init__(f"sensor '{sensor}' read {reading.tolist()}: expected {shape} finite elements")


class UnknownGroup(PartError):
    def __init__(self, group: str):
        self.group = group
        message = f"no part group named '{group}' in the plugin registry"
        super().__init__(message, [("part", "UnknownPartGroup", message)])


class NoMatch(PartError):
    def __init__(self, group: str, simulator_type: str, platform_type: str):
        message = (
            f"part group '{group}' has no entry matching simulator "
            f"'{simulator_type}' and platform '{platform_type}'"
        )
        super().__init__(message, [("part", "UnknownPartGroup", message)])


@dataclass(frozen=True)
class Box:
    """Shape, element-wise bounds and unit of a space: a part's valid values,
    one observation entry of a glue, or an action fragment.

    ``name`` only labels errors (a part's property name, for example).
    ``unbounded`` is derived: every ``low`` is -inf and every ``high`` is
    +inf, so no value of the right shape lies outside the box, and so is
    ``bounds``: each element's (low, high) as Python floats.
    """

    shape: int
    low: np.ndarray
    high: np.ndarray
    unit: Unit = NONE
    name: str = field(default="", compare=False)
    unbounded: bool = field(init=False, compare=False, repr=False)
    bounds: tuple[tuple[float, float], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        low = np.broadcast_to(np.asarray(self.low, dtype=float), (self.shape,)).copy()
        high = np.broadcast_to(np.asarray(self.high, dtype=float), (self.shape,)).copy()
        if np.any(low > high):
            label = f"property '{self.name}'" if self.name else "box"
            raise ValueError(f"{label}: low > high")
        # One box is shared by every reader of a compiled space.
        low.flags.writeable = False
        high.flags.writeable = False
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "unbounded", bool((low == -np.inf).all() and (high == np.inf).all()))
        object.__setattr__(self, "bounds", tuple(zip(low.tolist(), high.tolist())))

    def clip(self, values: np.ndarray) -> np.ndarray:
        """``np.clip(values, low, high)``, bit for bit (signed zeros
        included), without its Python-level dispatch; ``values`` itself when
        it is a float64 vector of the box's shape strictly inside its bounds,
        so a caller that keeps ``values`` must not write to the result."""
        if type(values) is np.ndarray and values.dtype is FLOAT64 and values.shape == self.low.shape:
            for (low, high), value in zip(self.bounds, values.tolist()):
                if not low < value < high:
                    break
            else:
                return values
        return np.minimum(np.maximum(values, self.low), self.high)


def all_finite(values: np.ndarray) -> bool:
    """``bool(np.isfinite(values).all())`` for a one-dimensional array, by
    an exact test in Python that costs less than numpy's on a few elements.

    A NaN or an infinite element makes the sum of the elements non-finite,
    so a finite sum proves every element finite.  A non-finite sum comes
    from such an element or from finite elements whose sum overflows, and
    numpy tells the two apart.
    """
    if math.isfinite(sum(values.tolist())):
        return True
    return bool(np.isfinite(values).all())


class Part:
    def __init__(self, name: str, prop: Box):
        self.name = name
        self.property = prop


class Sensor(Part):
    """Reads platform state as a float64 array in the property's unit; a reading
    of the wrong shape or with a non-finite element raises ``InvalidReading``."""

    def __init__(self, name: str, prop: Box, read: Callable[[Any], np.ndarray]):
        super().__init__(name, prop)
        self._read = read

    def measure(self, platform_state: Any) -> np.ndarray:
        reading = self._read(platform_state)
        if reading.shape == (self.property.shape,) and all_finite(reading):
            return reading
        raise InvalidReading(self.name, reading, self.property.shape)


class Controller(Part):
    """Accepts commands in the property's unit, clamped element-wise into its bounds."""

    def __init__(self, name: str, prop: Box):
        super().__init__(name, prop)
        self.pending: np.ndarray | None = None
        self.clamp_count = 0

    def reset(self) -> None:
        self.pending = None
        self.clamp_count = 0

    def apply(self, command: np.ndarray) -> None:
        clamped = self.property.clip(command)
        # as (clamped != command).any() for a command of the property's
        # shape, NaN and signed zeros included, without numpy's dispatch
        if clamped is not command and clamped.tolist() != command.tolist():
            self.clamp_count += 1
        self.pending = clamped

    def take_pending(self) -> np.ndarray:
        """The command applied this step, or a zero command if none was.

        Taking the command clears it, so each command drives one step.  It
        may be the array passed to ``apply``: a simulator never writes to it.
        """
        command, self.pending = self.pending, None
        if command is None:
            prop = self.property
            return prop.clip(np.zeros(prop.shape))
        return command


class Platform:
    """A named simulator entity carrying parts; it lives as long as its simulator."""

    def __init__(self, name: str, platform_type: str, state: Any = None):
        self.name = name
        self.platform_type = platform_type
        self.state = state
        self.parts: dict[str, Part] = {}
        self._controllers: dict[str, Controller] | None = None

    def add_part(self, part: Part) -> None:
        if part.name in self.parts:
            raise ValueError(f"platform '{self.name}': duplicate part '{part.name}'")
        self.parts[part.name] = part
        self._controllers = None

    def controllers(self) -> dict[str, Controller]:
        """The platform's controllers by name; one dict, rebuilt only after ``add_part``."""
        if self._controllers is None:
            self._controllers = {
                n: p for n, p in self.parts.items() if isinstance(p, Controller)
            }
        return self._controllers


@dataclass(frozen=True)
class Conditions:
    """Match constraints for a plugin registry entry; absent field = wildcard."""

    simulator_type: str | None = None
    platform_type: str | None = None

    def matches(self, simulator_type: str, platform_type: str) -> bool:
        return (self.simulator_type is None or self.simulator_type == simulator_type) and (
            self.platform_type is None or self.platform_type == platform_type
        )


#: makes a part from its group name and the settings its registration's table parses
PartFactory = Callable[[str, dict], Part]

#: the config key every part takes: the platform it attaches to (default: the
#: agent's first platform)
PLATFORM = Param("platform", string, default=None)


@dataclass(frozen=True)
class PartEntry:
    """One registration of a part group: where it applies, its factory, and
    the table of its config keys (``PLATFORM`` first)."""

    conditions: Conditions
    factory: PartFactory
    params: tuple[Param, ...]


class PluginRegistry:
    """Ordered condition-matched mapping from part group names to factories."""

    def __init__(self):
        self._entries: dict[str, list[PartEntry]] = {}

    def register(
        self,
        group: str,
        factory: PartFactory,
        simulator_type: str | None = None,
        platform_type: str | None = None,
        params: tuple[Param, ...] = (),
    ) -> None:
        """Register ``factory`` for ``group``; ``params`` declares every key of
        the part's config but ``platform``."""
        entry = PartEntry(Conditions(simulator_type, platform_type), factory, (PLATFORM, *params))
        self._entries.setdefault(group, []).append(entry)

    @property
    def groups(self) -> Collection[str]:
        """The names of the registered groups."""
        return self._entries.keys()

    def match(self, group: str, simulator_type: str, platform_type: str) -> PartEntry:
        """The first registration of ``group`` whose conditions match."""
        if group not in self._entries:
            raise UnknownGroup(group)
        for entry in self._entries[group]:
            if entry.conditions.matches(simulator_type, platform_type):
                return entry
        raise NoMatch(group, simulator_type, platform_type)


#: process-wide registry populated by the built-in simulators at import time
GLOBAL_REGISTRY = PluginRegistry()
