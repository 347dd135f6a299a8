"""Declared parameter tables of functors and scripted rules.

A functor or scripted rule declares its config keys once, as a tuple of
:class:`Param`, and a functor declares the inputs it reads.  ``validate`` and
the constructor both read those declarations through :func:`parse_params` and
:func:`check_inputs`, so a config that validates also builds.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass
from typing import Any

from .units import DimensionMismatch, Quantity, Unit, UnknownUnit, value_in


class _Sentinel:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: the default of a param that has none: its key must be given
REQUIRED: Any = _Sentinel("REQUIRED")


@dataclass(frozen=True)
class Param:
    """One config key of a functor or scripted rule.

    ``parse`` converts the raw config value, raising ``TypeError``,
    ``ValueError``, ``KeyError`` or ``OverflowError`` when it cannot.  A param
    with no default is required.  Only a ``referenceable`` param may be given
    under ``references``, and then not also in config.  A param with a
    ``unit`` holds a number in that unit: a bare number is taken to be in it,
    and a ``{value, unit}`` value is converted to it before ``parse`` checks
    it.  A referenced value is sampled each episode; ``Functor.bind``
    converts it to the unit and checks it with ``parse`` at every ``reset``.
    """

    name: str
    parse: Callable[[Any], Any] = float
    default: Any = REQUIRED
    referenceable: bool = False
    unit: Unit | None = None


#: what a ``Param.parse`` raises for a value it cannot take
PARSE_ERRORS = (TypeError, ValueError, KeyError, OverflowError)


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


def _bounded(convert: Callable[[Any], Any], holds: Callable[[Any], bool], requirement: str):
    def parse(raw):
        value = convert(raw)
        if not holds(value):
            raise ValueError(f"must be {requirement}, got {value}")
        return value

    return parse


#: a float above zero (NaN fails every comparison, so it is rejected too)
positive = _bounded(float, lambda v: v > 0, "> 0")
#: a float of zero or more
nonnegative = _bounded(float, lambda v: v >= 0, ">= 0")
#: an integer of one or more
positive_int = _bounded(int, lambda v: v >= 1, ">= 1")


def parse_reference(p: Param, value: Quantity) -> Any:
    """A referenced param's setting from a sampled ``value``: converted to
    ``p.unit`` (if any), then checked by ``p.parse``.  Raises as ``parse``
    does, or ``UnitError`` for a value of another dimension."""
    return p.parse(value.item if p.unit is None else value.to(p.unit).item)


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
            settings[key] = p.parse(raw if p.unit is None else value_in(raw, p.unit))
        except UnknownUnit as exc:
            errors.append((path, "UnknownUnit", str(exc)))
        except DimensionMismatch as exc:
            errors.append((path, "DimensionMismatch", f"'{key}' is in {p.unit.name}: {exc}"))
        except PARSE_ERRORS as exc:
            errors.append((path, "TypeMismatch", f"invalid value for '{key}': {exc}"))
    for key in references:
        p = declared.get(key)
        if p is None or not p.referenceable:
            allowed = sorted(name for name, q in declared.items() if q.referenceable)
            errors.append(
                (f"references/{key}", "UnknownField", f"'{key}' cannot be a reference (referenceable: {allowed})")
            )
        elif key in config:
            errors.append(
                (f"config/{key}", "ConflictingField", f"'{key}' is given both in config and under references")
            )
    for p in params:
        if p.name in config or p.name in references:
            continue
        if p.default is REQUIRED:
            errors.append((f"config/{p.name}", "MissingField", f"missing required field '{p.name}'"))
        else:
            settings[p.name] = p.default
    return settings, errors


#: ``inputs`` of a functor that reads one observation: its extractor's, else
#: that of its one wrapped child, under any key
SOURCE: Any = _Sentinel("SOURCE")
#: ``inputs`` of a functor that reads one or more wrapped children, under any keys
ANY: Any = _Sentinel("ANY")


def wrapped_path(key: str) -> str:
    """The field path of the wrapped child keyed ``key``; a lone wrapped spec is keyed 'wrapped'."""
    return "wrapped" if key == "wrapped" else f"wrapped/{key}"


def check_inputs(inputs, wrapped_keys: Collection[str], has_extractor: bool) -> list[ParamError]:
    """Every error in giving a functor that declares ``inputs`` the wrapped
    children keyed ``wrapped_keys`` and, if ``has_extractor``, an extractor.

    ``inputs`` is a tuple of the child keys the functor reads (``()`` reads
    none), ``SOURCE`` or ``ANY``.  An input that is not given is
    ``MissingField``; a child or an extractor the functor does not read is
    ``UnknownField``.
    """
    errors: list[ParamError] = []
    if inputs is SOURCE:
        if not has_extractor and not wrapped_keys:
            errors.append(("wrapped", "MissingField", "needs one wrapped child or an extractor"))
        # the extractor, else the first child, is the source
        for key in list(wrapped_keys)[0 if has_extractor else 1:]:
            errors.append((wrapped_path(key), "UnknownField", "reads one source: an extractor, else one wrapped child"))
        return errors
    if inputs is ANY:
        if not wrapped_keys:
            errors.append(("wrapped", "MissingField", "needs at least one wrapped child"))
    else:
        for key in wrapped_keys:
            if key not in inputs:
                declared = f"declared: {list(inputs)}" if inputs else "takes none"
                errors.append((wrapped_path(key), "UnknownField", f"unknown wrapped child '{key}' ({declared})"))
        for key in inputs:
            if key not in wrapped_keys:
                errors.append((f"wrapped/{key}", "MissingField", f"missing wrapped child '{key}'"))
    if has_extractor:
        errors.append(("extractor", "UnknownField", "takes no extractor"))
    return errors
