"""Platforms, Sensor/Controller parts, and the condition-matched plugin registry.

A platform is a simulator-backed entity with measurable or modifiable state.
Parts attach to platforms with bounded, unit-tagged property spaces: a part's
values are bare float64 vectors in its property's unit.  Part group names in
agent config files resolve through the plugin registry, so swapping
simulators never requires editing agent configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .params import Param, string
from .units import NONE, Unit


class PartError(Exception):
    pass


class NoValidMeasurementYet(PartError):
    def __init__(self, sensor: str):
        super().__init__(f"sensor '{sensor}' got an invalid reading before any valid one")


class RegistryFrozen(PartError):
    def __init__(self, group: str):
        super().__init__(f"cannot register '{group}': plugin registry is frozen")


class UnknownGroup(PartError):
    def __init__(self, group: str):
        self.group = group
        super().__init__(f"no part group named '{group}' in the plugin registry")


class NoMatch(PartError):
    def __init__(self, group: str, simulator_type: str, platform_type: str):
        super().__init__(
            f"part group '{group}' has no entry matching simulator "
            f"'{simulator_type}' and platform '{platform_type}'"
        )


@dataclass(frozen=True)
class Box:
    """Shape, element-wise bounds and unit of a space: a part's valid values,
    one observation entry of a glue, or an action fragment.

    ``name`` only labels errors (a part's property name, for example).
    ``unbounded`` is derived: every ``low`` is -inf and every ``high`` is
    +inf, so no value of the right shape lies outside the box.
    """

    shape: int
    low: np.ndarray
    high: np.ndarray
    unit: Unit = NONE
    name: str = field(default="", compare=False)
    unbounded: bool = field(init=False, compare=False, repr=False)

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

    def clip(self, values: np.ndarray) -> np.ndarray:
        """``np.clip(values, low, high)``, bit for bit (signed zeros
        included), without its Python-level dispatch."""
        return np.minimum(np.maximum(values, self.low), self.high)

    def contains(self, values: np.ndarray) -> bool:
        v = np.asarray(values, dtype=float)
        return v.shape == (self.shape,) and bool(
            np.all(v >= self.low) and np.all(v <= self.high)
        )


class Part:
    def __init__(self, name: str, prop: Box):
        self.name = name
        self.property = prop

    def reset(self) -> None:
        pass


class Sensor(Part):
    """Reads platform state as a float64 array in the property's unit; holds the
    last valid value when a reading has the wrong shape or a non-finite element."""

    def __init__(self, name: str, prop: Box, read: Callable[[Any], np.ndarray]):
        super().__init__(name, prop)
        self._read = read
        self.last_valid: np.ndarray | None = None

    def reset(self) -> None:
        self.last_valid = None

    def measure(self, platform_state: Any) -> np.ndarray:
        reading = self._read(platform_state)
        if reading.shape == (self.property.shape,) and np.isfinite(reading).all():
            self.last_valid = reading
            return reading
        if self.last_valid is None:
            raise NoValidMeasurementYet(self.name)
        return self.last_valid


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
        if (clamped != command).any():
            self.clamp_count += 1
        self.pending = clamped

    def take_pending(self) -> np.ndarray:
        """The command applied this step, or a zero command if none was.

        Taking the command clears it, so each command drives one step.
        """
        command, self.pending = self.pending, None
        if command is None:
            prop = self.property
            return prop.clip(np.zeros(prop.shape))
        return command


class Platform:
    """A named simulator entity carrying parts; inoperable platforms ignore controls."""

    def __init__(self, name: str, platform_type: str, state: Any = None):
        self.name = name
        self.platform_type = platform_type
        self.state = state
        self.parts: dict[str, Part] = {}
        self.operable = True
        self._controllers: dict[str, Controller] | None = None

    def add_part(self, part: Part) -> None:
        if part.name in self.parts:
            raise ValueError(f"platform '{self.name}': duplicate part '{part.name}'")
        self.parts[part.name] = part
        self._controllers = None

    def sensors(self) -> dict[str, Sensor]:
        return {n: p for n, p in self.parts.items() if isinstance(p, Sensor)}

    def controllers(self) -> dict[str, Controller]:
        """The platform's controllers by name; one dict, rebuilt only after ``add_part``."""
        if self._controllers is None:
            self._controllers = {
                n: p for n, p in self.parts.items() if isinstance(p, Controller)
            }
        return self._controllers

    def measure_all(self) -> None:
        for sensor in self.sensors().values():
            sensor.measure(self.state)


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
        self._frozen = False

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
        if self._frozen:
            raise RegistryFrozen(group)
        entry = PartEntry(Conditions(simulator_type, platform_type), factory, (PLATFORM, *params))
        self._entries.setdefault(group, []).append(entry)

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def has_group(self, group: str) -> bool:
        return group in self._entries

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
