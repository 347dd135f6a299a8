"""Closed unit library: dimension-checked storage and conversion of measured values.

Sensors, controllers, glues, dones and rewards pass bare float64 vectors, each
in the unit of its ``Box`` (see :mod:`envforge.parts`), and so do the
observations ``step`` returns: a unit belongs to the space, not the value.  A
:class:`Quantity`, a number tagged with a :class:`Unit`, is built only where a
value enters the system: config values, episode parameter samples, and case
and reset overrides.  Conversions are purely multiplicative (no affine units)
and the registry is fixed at import time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def as_vector(value) -> np.ndarray:
    """``np.atleast_1d(np.asarray(value, dtype=float))``: ``value`` itself
    when it already is a one-dimensional float64 array, which the
    conversion would return unchanged, without numpy's dispatch."""
    if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.ndim == 1:
        return value
    return np.atleast_1d(np.asarray(value, dtype=float))


@dataclass(frozen=True)
class Quantity:
    """A real number, ``item``, tagged with a unit."""

    item: float
    unit: Unit = NONE

    def __post_init__(self):
        object.__setattr__(self, "item", float(self.item))

    @classmethod
    def scalar(cls, value: float, unit: Unit = NONE) -> "Quantity":
        return cls(value, unit)

    def to(self, target: Unit) -> "Quantity":
        return convert(self, target)


def convert(q: Quantity, target: Unit) -> Quantity:
    """Convert a quantity to another unit of the same dimension; raises
    ``DimensionMismatch``, or ``OverflowError`` for a finite value that has
    no finite float in ``target``."""
    if q.unit is target:
        return q
    if not check_compatibility(q.unit, target):
        raise DimensionMismatch(q.unit, target)
    if q.unit == target:
        return q
    item = q.item * (q.unit.scale_to_base / target.scale_to_base)
    if math.isinf(item) and not math.isinf(q.item):
        raise OverflowError(f"a value in {q.unit.name} overflows a float in {target.name}")
    return Quantity(item, target)
