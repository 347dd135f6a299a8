"""Platforms, Sensor/Controller parts, and the condition-matched plugin registry.

A platform is a simulator-backed entity with measurable or modifiable state.
Parts attach to platforms with bounded, unit-tagged property spaces.  Part
group names in agent config files resolve through the plugin registry, so
swapping simulators never requires editing agent configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .units import NONE, Quantity, Unit, check_compatibility


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
    """Reads platform state; holds the last valid value on malformed readings."""

    def __init__(self, name: str, prop: Box, read: Callable[[Any], Quantity]):
        super().__init__(name, prop)
        self._read = read
        self.last_valid: Quantity | None = None

    def reset(self) -> None:
        self.last_valid = None

    def _is_valid(self, q: Quantity) -> bool:
        v = q.values
        return (
            v.shape == (self.property.shape,)
            and np.isfinite(v).all()
            and check_compatibility(q.unit, self.property.unit)
        )

    def measure(self, platform_state: Any) -> Quantity:
        reading = self._read(platform_state)
        if self._is_valid(reading):
            self.last_valid = reading.to(self.property.unit)
            return self.last_valid
        if self.last_valid is None:
            raise NoValidMeasurementYet(self.name)
        return self.last_valid


class Controller(Part):
    """Accepts commanded values, clamped element-wise into the property bounds."""

    def __init__(self, name: str, prop: Box):
        super().__init__(name, prop)
        self.pending: Quantity | None = None
        self.clamp_count = 0

    def reset(self) -> None:
        self.pending = None
        self.clamp_count = 0

    def apply(self, command: Quantity) -> None:
        prop = self.property
        values = command.to(prop.unit).values
        clamped = prop.clip(values)
        if (clamped != values).any():
            self.clamp_count += 1
        self.pending = Quantity(clamped, prop.unit)

    def take_pending(self) -> Quantity:
        """The command applied this step, or a zero command if none was.

        Taking the command clears it, so each command drives one step.
        """
        command, self.pending = self.pending, None
        if command is None:
            prop = self.property
            return Quantity(prop.clip(np.zeros(prop.shape)), prop.unit)
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


PartFactory = Callable[[str, dict], Part]


@dataclass
class _Entry:
    conditions: Conditions
    factory: PartFactory


class PluginRegistry:
    """Ordered condition-matched mapping from part group names to factories."""

    def __init__(self):
        self._entries: dict[str, list[_Entry]] = {}
        self._frozen = False

    def register(
        self,
        group: str,
        factory: PartFactory,
        simulator_type: str | None = None,
        platform_type: str | None = None,
    ) -> None:
        if self._frozen:
            raise RegistryFrozen(group)
        entry = _Entry(Conditions(simulator_type, platform_type), factory)
        self._entries.setdefault(group, []).append(entry)

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def has_group(self, group: str) -> bool:
        return group in self._entries

    def resolve(self, group: str, simulator_type: str, platform_type: str) -> PartFactory:
        if group not in self._entries:
            raise UnknownGroup(group)
        for entry in self._entries[group]:
            if entry.conditions.matches(simulator_type, platform_type):
                return entry.factory
        raise NoMatch(group, simulator_type, platform_type)


#: process-wide registry populated by the built-in simulators at import time
GLOBAL_REGISTRY = PluginRegistry()
