"""Declared parameter tables of functors and scripted rules.

A functor or scripted rule declares its config keys once, as a tuple of
:class:`Param`.  ``validate`` and the constructor both read that tuple through
:func:`parse_params`, so a config that validates also builds.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from .units import DimensionMismatch, Unit, UnknownUnit, value_in


class _Required:
    def __repr__(self) -> str:
        return "REQUIRED"


#: the default of a param that has none: its key must be given
REQUIRED: Any = _Required()


@dataclass(frozen=True)
class Param:
    """One config key of a functor or scripted rule.

    ``parse`` converts the raw config value, raising ``TypeError``,
    ``ValueError``, ``KeyError`` or ``OverflowError`` when it cannot.  A param
    with no default is required.  Only a ``referenceable`` param may be given
    under ``references``.  A param with a ``unit`` holds a number in that
    unit: a bare number is taken to be in it, and a ``{value, unit}`` value or
    a reference is converted to it.
    """

    name: str
    parse: Callable[[Any], Any] = float
    default: Any = REQUIRED
    referenceable: bool = False
    unit: Unit | None = None


def string(raw) -> str:
    """A value that must already be a string (``str`` would accept anything)."""
    if not isinstance(raw, str):
        raise TypeError(f"expected a string, got {type(raw).__name__}")
    return raw


def boolean(raw) -> bool:
    """A value that must already be a boolean (``bool`` would accept anything)."""
    if not isinstance(raw, bool):
        raise TypeError(f"expected a boolean, got {type(raw).__name__}")
    return raw


#: (field path, error code, message); the codes are ``config.validate.ErrorCode`` values
ParamError = tuple[str, str, str]


def parse_params(
    params: tuple[Param, ...], config: Mapping, references: Mapping
) -> tuple[dict[str, Any], list[ParamError]]:
    """The settings that ``config`` gives under the table ``params``, and every error in it.

    Each param given in ``config``, or defaulted, has a setting; a param given
    under ``references`` has none, because each episode samples its value.
    Errors come in document order: config keys, then references, then the
    required params that neither gives.
    """
    declared = {p.name: p for p in params}
    settings: dict[str, Any] = {}
    errors: list[ParamError] = []
    for key, raw in config.items():
        path = f"config/{key}"
        p = declared.get(key)
        if p is None:
            errors.append((path, "UnknownField", f"unknown field '{key}' (declared: {sorted(declared)})"))
            continue
        try:
            settings[key] = p.parse(raw) if p.unit is None else value_in(raw, p.unit)
        except UnknownUnit as exc:
            errors.append((path, "UnknownUnit", str(exc)))
        except DimensionMismatch as exc:
            errors.append((path, "DimensionMismatch", f"'{key}' is in {p.unit.name}: {exc}"))
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            errors.append((path, "TypeMismatch", f"invalid value for '{key}': {exc}"))
    for key in references:
        p = declared.get(key)
        if p is None or not p.referenceable:
            allowed = sorted(name for name, q in declared.items() if q.referenceable)
            errors.append(
                (f"references/{key}", "UnknownField", f"'{key}' cannot be a reference (referenceable: {allowed})")
            )
    for p in params:
        if p.name in config or p.name in references:
            continue
        if p.default is REQUIRED:
            errors.append((f"config/{p.name}", "MissingField", f"missing required field '{p.name}'"))
        else:
            settings[p.name] = p.default
    return settings, errors
