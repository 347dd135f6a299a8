"""Closed unit library: dimension-checked storage and conversion of measured values.

Sensors, controllers, glues, dones and rewards pass bare float64 vectors, each
in the unit of its ``Box`` (see :mod:`envforge.parts`).  A :class:`Quantity`,
a vector tagged with a :class:`Unit`, is built only where a value enters or
leaves the step: episode parameters, bound references, initialization values
and returned observations.  Conversions are purely multiplicative (no affine
units) and the registry is fixed at import time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class UnitError(Exception):
    """Base class for unit library errors."""


class DimensionMismatch(UnitError):
    """Raised when an operation mixes units of different dimensions."""

    def __init__(self, a: "Unit", b: "Unit"):
        self.a = a
        self.b = b
        super().__init__(
            f"cannot convert between '{a.name}' ({a.dimension.value}) "
            f"and '{b.name}' ({b.dimension.value})"
        )


class UnknownUnit(UnitError):
    """Raised when a unit name is not in the registry."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown unit '{name}'")


class Dimension(enum.Enum):
    LENGTH = "length"
    TIME = "time"
    VELOCITY = "velocity"
    ANGLE = "angle"
    ANGULAR_VELOCITY = "angular_velocity"
    MASS = "mass"
    FORCE = "force"
    DIMENSIONLESS = "dimensionless"
    NONE = "none"


@dataclass(frozen=True)
class Unit:
    """A named unit with a multiplicative factor to its dimension's base unit."""

    name: str
    dimension: Dimension
    scale_to_base: float

    def __post_init__(self):
        if self.scale_to_base <= 0:
            raise ValueError(f"unit '{self.name}': scale_to_base must be positive")

    def __str__(self) -> str:
        return self.name


def _build_registry() -> dict[str, Unit]:
    units = [
        Unit("meter", Dimension.LENGTH, 1.0),
        Unit("centimeter", Dimension.LENGTH, 0.01),
        Unit("kilometer", Dimension.LENGTH, 1000.0),
        Unit("foot", Dimension.LENGTH, 0.3048),
        Unit("second", Dimension.TIME, 1.0),
        Unit("meter_per_second", Dimension.VELOCITY, 1.0),
        Unit("radian", Dimension.ANGLE, 1.0),
        Unit("degree", Dimension.ANGLE, np.pi / 180.0),
        Unit("radian_per_second", Dimension.ANGULAR_VELOCITY, 1.0),
        Unit("kilogram", Dimension.MASS, 1.0),
        Unit("newton", Dimension.FORCE, 1.0),
        Unit("fraction", Dimension.DIMENSIONLESS, 1.0),
        Unit("percent", Dimension.DIMENSIONLESS, 0.01),
        Unit("none", Dimension.NONE, 1.0),
    ]
    return {u.name: u for u in units}


REGISTRY: dict[str, Unit] = _build_registry()

# Config files write "N/A" for unit-less entries.
_ALIASES = {"n/a": "none"}


def get_unit(name: str) -> Unit:
    """Look up a unit by its config-file name (case-insensitive)."""
    if not isinstance(name, str):
        raise TypeError(f"unit name must be a string, got {type(name).__name__}")
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    unit = REGISTRY.get(key)
    if unit is None:
        raise UnknownUnit(name)
    return unit


# Convenient module-level handles for the common units.
METER = REGISTRY["meter"]
SECOND = REGISTRY["second"]
METER_PER_SECOND = REGISTRY["meter_per_second"]
RADIAN = REGISTRY["radian"]
RADIAN_PER_SECOND = REGISTRY["radian_per_second"]
KILOGRAM = REGISTRY["kilogram"]
NEWTON = REGISTRY["newton"]
FRACTION = REGISTRY["fraction"]
PERCENT = REGISTRY["percent"]
NONE = REGISTRY["none"]


def check_compatibility(a: Unit, b: Unit) -> bool:
    """True iff two units share a dimension (NONE only matches NONE)."""
    return a.dimension == b.dimension


_FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class Quantity:
    """A non-empty vector of reals tagged with a unit."""

    values: np.ndarray = field()
    unit: Unit = NONE

    def __post_init__(self):
        v = self.values
        if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1 and v.size:
            return  # already in stored form: the conversion below would return v itself
        arr = np.atleast_1d(np.asarray(v, dtype=float))
        if arr.size == 0:
            raise ValueError("Quantity values must be non-empty")
        object.__setattr__(self, "values", arr)

    @classmethod
    def scalar(cls, value: float, unit: Unit = NONE) -> "Quantity":
        return cls(np.array([float(value)]), unit)

    @property
    def item(self) -> float:
        """The single value of a scalar quantity."""
        if self.values.size != 1:
            raise ValueError(f"quantity has {self.values.size} elements, not 1")
        return float(self.values[0])

    def to(self, target: Unit) -> "Quantity":
        return convert(self, target)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quantity):
            return NotImplemented
        return self.unit == other.unit and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"Quantity({self.values.tolist()}, {self.unit.name})"


def value_in(raw, unit: Unit) -> float:
    """A config value as a number in ``unit``.

    A bare number is taken to be in ``unit``; a ``{value, unit}`` mapping is
    converted to it.  Raises ``TypeError`` or ``ValueError`` for a malformed
    value, ``UnknownUnit`` and ``DimensionMismatch``.
    """
    if isinstance(raw, dict):
        if set(raw) != {"value", "unit"}:
            raise TypeError(f"expected a number or a {{value, unit}} mapping, got keys {list(raw)}")
        return convert(Quantity.scalar(float(raw["value"]), get_unit(raw["unit"])), unit).item
    return float(raw)


def convert(q: Quantity, target: Unit) -> Quantity:
    """Convert a quantity to another unit of the same dimension."""
    if q.unit is target:
        return q
    if not check_compatibility(q.unit, target):
        raise DimensionMismatch(q.unit, target)
    if q.unit == target:
        return q
    factor = q.unit.scale_to_base / target.scale_to_base
    return Quantity(q.values * factor, target)
