"""Declared parameter tables: every config section and every config of a
functor, part, policy, scripted rule or simulator.

Each declares its keys once, as a tuple of :class:`Param`, and a functor
declares the inputs it reads.  :func:`parse_params` is the one parser of a
table: ``validate`` runs it over the environment and over each agent, whose
sections are converters in those tables (built from :func:`table`,
:func:`list_of` and :func:`mapping_of`, each reporting an error at its
key), and each constructor runs it over its own config, raising a
:class:`ConfigError` listing every error it found.  ``validate`` builds the
environment, so these are the only checks of a config value, and a config
that validates also builds.
:func:`dump_params` is the one writer of a table, its inverse: the config
sections write ``run_config.json`` with it.
"""

from __future__ import annotations

import copy
import math
import numbers
from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass
from typing import Any

from .units import DimensionMismatch, Quantity, Unit, UnknownUnit, convert, get_unit


class _Sentinel:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: the default of a param that has none: its key must be given
REQUIRED: Any = _Sentinel("REQUIRED")


def number(raw) -> float:
    """A real number that is not a boolean and not NaN, as a float; an
    infinity is one (``float`` would take a boolean, a string or NaN)."""
    if type(raw) is not float:
        if not isinstance(raw, numbers.Real) or isinstance(raw, bool):
            raise TypeError(f"expected a number, got {type(raw).__name__}")
        raw = float(raw)
    if raw != raw:
        raise ValueError("expected a number, got nan")
    return raw


def identity(value):
    """The value itself: the reader, or writer, of a value that is its own setting."""
    return value


@dataclass(frozen=True)
class Param:
    """One config key of a section, functor, part, policy or simulator.

    ``parse`` converts the raw config value, raising ``TypeError``,
    ``ValueError``, ``KeyError`` or ``OverflowError`` when it cannot, or a
    ``ConfigError`` whose codes and paths (relative to the key) are its own,
    as a registry lookup's (see :func:`one_of`).  A param
    with no default is required.  Only a ``referenceable`` param may be given
    under ``references``, and then not also in config.  A param with a
    ``unit`` holds a number in that unit: a bare number is taken to be in it,
    and a ``{value, unit}`` value is converted to it before ``parse`` checks
    it.  A referenced value is sampled each episode; ``Functor.bind``
    converts it to the unit and checks it with ``parse`` at every ``reset``.
    ``dump`` is the inverse of ``parse``: it writes a setting as the config
    value that ``parse`` reads back as it (see :func:`dump_params`).
    """

    name: str
    parse: Callable[[Any], Any] = number
    default: Any = REQUIRED
    referenceable: bool = False
    unit: Unit | None = None
    dump: Callable[[Any], Any] = identity


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


def mapping(raw) -> dict:
    """A mapping; a key written with no value is an empty one."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise TypeError(f"expected a mapping, got {type(raw).__name__}")
    return raw


def sequence(raw) -> list:
    """A list; a key written with no value is an empty one."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise TypeError(f"expected a list, got {type(raw).__name__}")
    return raw


def integer(raw) -> int:
    """A value that must already be an integer, not a boolean (``int`` would truncate a float)."""
    if not isinstance(raw, numbers.Integral) or isinstance(raw, bool):
        raise TypeError(f"expected an integer, got {type(raw).__name__}")
    return int(raw)


def finite(raw) -> float:
    """A number that is finite."""
    value = number(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def optional(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """The converter of a value that ``convert`` takes, or null (None)."""
    return lambda raw: None if raw is None else convert(raw)


def _each(convert: Callable[[Any], Any], items) -> list[tuple]:
    """(key, ``convert(value)``) of each (key, value) of ``items``, or a
    ``ConfigError`` listing each value that ``convert`` rejects at its key."""
    converted, errors = [], []
    for key, raw in items:
        try:
            converted.append((key, convert(raw)))
        except PARSE_ERRORS as exc:
            errors.append((str(key), "TypeMismatch", f"invalid value for '{key}': {exc}"))
        except ConfigError as exc:
            errors += [(join_path(key, sub), code, message) for sub, code, message in exc.errors]
    if errors:
        raise ConfigError(errors[0][2], errors)
    return converted


def list_of(convert: Callable[[Any], Any]) -> Callable[[Any], list]:
    """The converter of a list each of whose elements ``convert`` takes;
    ``parse_params`` reports a bad element at its index."""
    return lambda raw: [value for _, value in _each(convert, enumerate(sequence(raw)))]


def mapping_of(convert: Callable[[Any], Any]) -> Callable[[Any], dict]:
    """The converter of a mapping each of whose values ``convert`` takes,
    keyed by its keys as strings; ``parse_params`` reports a bad value at its key."""
    return lambda raw: dict(_each(convert, [(str(key), value) for key, value in mapping(raw).items()]))


def one_of(choices: Collection, code: str = "TypeMismatch") -> Callable[[Any], Any]:
    """The converter of a value that must be one of ``choices`` (a
    registry's names, say); ``parse_params`` reports any other as ``code``."""

    def parse(raw):
        try:
            if raw in choices:
                return raw
        except TypeError:  # unhashable, so not a registered name
            pass
        message = f"{raw!r} is not one of {sorted(choices)}"
        raise ConfigError(message, [("", code, message)])

    return parse


def _bounded(convert: Callable[[Any], Any], holds: Callable[[Any], bool], requirement: str):
    def parse(raw):
        value = convert(raw)
        if not holds(value):
            raise ValueError(f"must be {requirement}, got {value}")
        return value

    return parse


#: a finite number above zero
positive = _bounded(finite, lambda v: v > 0, "> 0")
#: a finite number of zero or more
nonnegative = _bounded(finite, lambda v: v >= 0, ">= 0")
#: an integer of one or more
positive_int = _bounded(integer, lambda v: v >= 1, ">= 1")
#: an integer of zero or more: an episode's seed
nonnegative_int = _bounded(integer, lambda v: v >= 0, ">= 0")


def nonempty(convert: Callable[[Any], list]) -> Callable[[Any], list]:
    """The converter of a list that ``convert`` takes and that has one or more entries."""
    return _bounded(convert, bool, "non-empty")


def value_in(raw, unit: Unit) -> float:
    """A config value as a number in ``unit``.

    A bare number is taken to be in ``unit``; a ``{value, unit}`` mapping is
    converted to it.  Each number is read by :func:`number`.  Raises
    ``TypeError`` or ``ValueError`` for a malformed value, ``UnknownUnit``
    and ``DimensionMismatch``.
    """
    if isinstance(raw, dict):
        if set(raw) != {"value", "unit"}:
            raise TypeError(f"expected a number or a {{value, unit}} mapping, got keys {list(raw)}")
        return convert(Quantity.scalar(number(raw["value"]), get_unit(raw["unit"])), unit).item
    return number(raw)


def parse_reference(p: Param, value: Quantity) -> Any:
    """A referenced param's setting from a sampled ``value``: converted to
    ``p.unit`` (if any), then checked by ``p.parse``.  Raises as ``parse``
    does, or ``UnitError`` for a value of another dimension."""
    return p.parse(value.item if p.unit is None else value.to(p.unit).item)


#: (field path, error code, message); the codes are ``config.validate.ErrorCode`` values
ParamError = tuple[str, str, str]


def join_path(*parts) -> str:
    """The slash-separated config path of ``parts``; empty parts are skipped."""
    return "/".join(str(p) for p in parts if p != "")


class ConfigError(Exception):
    """A config value that a constructor rejects.  ``errors`` holds every
    ``(path, code, message)`` it found, each path relative to what it was
    given (an error given none lists its message at ''); ``str`` is the first."""

    def __init__(self, message: str, errors: list[ParamError] = ()):
        super().__init__(message)
        self.errors = list(errors) or [("", "TypeMismatch", message)]

    @classmethod
    def listing(cls, context: str, errors: list[ParamError]):
        """The error of ``context`` (what raises it) listing ``errors``, worded as the first."""
        path, _, message = errors[0]
        return cls(f"{context}: {path}: {message}" if path else f"{context}: {message}", errors)


class BuildErrors:
    """What one build rejected: each ``ConfigError`` caught, its paths joined
    to the config path of what failed.  The build skips what depends on a
    failure and goes on; ``check`` then raises the first error caught, its
    ``errors`` extended to every one."""

    def __init__(self):
        self.first: ConfigError | None = None
        self.errors: list[ParamError] = []

    def add(self, exc: ConfigError, path: str = "") -> None:
        self.first = self.first or exc
        self.errors += [(join_path(path, p), code, message) for p, code, message in exc.errors]

    def attempt(self, build: Callable, *args, path: str = ""):
        """``build(*args)``, or None with the ``ConfigError`` it raises added at ``path``."""
        try:
            return build(*args)
        except ConfigError as exc:
            self.add(exc, path)
            return None

    def check(self) -> None:
        if self.first is not None:
            self.first.errors = self.errors
            raise self.first


def parse_params(
    params: tuple[Param, ...], config: Mapping, path: str, references: Collection[str] = ()
) -> tuple[dict[str, Any], list[ParamError]]:
    """The settings that ``config``, found at ``path``, gives under the table
    ``params``, and every error in it.

    Each param given in ``config``, or defaulted, has a setting; a param named
    in ``references`` (a functor's, whose entry holds them beside its
    ``config``) has none, because each episode samples its value.  An error
    is reported at ``path`` joined to its key, a reference's at
    ``references/<key>``.  Errors come in document order: config keys, then
    references, then the required params that neither gives.  A param that
    neither gives takes its default; a mapping or list is copied.
    """
    declared = {p.name: p for p in params}
    settings: dict[str, Any] = {}
    errors: list[ParamError] = []
    for key, raw in config.items():
        key_path = join_path(path, key)
        p = declared.get(key)
        if p is None:
            errors.append((key_path, "UnknownField", f"unknown field '{key}' (declared: {sorted(declared)})"))
            continue
        try:
            settings[key] = p.parse(raw if p.unit is None else value_in(raw, p.unit))
        except UnknownUnit as exc:
            errors.append((key_path, "UnknownUnit", str(exc)))
        except DimensionMismatch as exc:
            errors.append((key_path, "DimensionMismatch", f"'{key}' is in {p.unit.name}: {exc}"))
        except PARSE_ERRORS as exc:
            errors.append((key_path, "TypeMismatch", f"invalid value for '{key}': {exc}"))
        except ConfigError as exc:
            errors += [(join_path(key_path, sub), code, message) for sub, code, message in exc.errors]
    for key in references:
        p = declared.get(key)
        if p is None or not p.referenceable:
            allowed = sorted(name for name, q in declared.items() if q.referenceable)
            errors.append(
                (f"references/{key}", "UnknownField", f"'{key}' cannot be a reference (referenceable: {allowed})")
            )
        elif key in config:
            errors.append(
                (join_path(path, key), "ConflictingField", f"'{key}' is given both in config and under references")
            )
    for p in params:
        if p.name in config or p.name in references:
            continue
        if p.default is REQUIRED:
            errors.append((join_path(path, p.name), "MissingField", f"missing required field '{p.name}'"))
        else:  # a mapping or list default is copied, so no two settings share one
            settings[p.name] = copy.deepcopy(p.default) if isinstance(p.default, (dict, list)) else p.default
    return settings, errors


def dump_params(params: tuple[Param, ...], settings: Mapping[str, Any]) -> dict[str, Any]:
    """The config mapping that :func:`parse_params` reads back under the
    table ``params`` as ``settings``, each setting written by its param's
    ``dump`` (a setting of a param in its ``unit`` is written in it, as a
    bare number).  A key whose setting is missing or None is left out, and
    so is a key that is not required whose written value is an empty mapping
    or list: a param that may take either defaults to it.  Keys come in
    table order."""
    tree: dict[str, Any] = {}
    for p in params:
        value = settings.get(p.name)
        if value is None:
            continue
        written = p.dump(value)
        if p.default is REQUIRED or not (written == {} or written == []):
            tree[p.name] = written
    return tree


def table(params: tuple[Param, ...]) -> Callable[[Any], dict[str, Any]]:
    """The converter of a mapping read with the table ``params``: its
    settings, or a ``ConfigError`` listing every error at its key's path."""

    def parse(raw) -> dict[str, Any]:
        settings, errors = parse_params(params, mapping(raw), "")
        if errors:
            raise ConfigError(errors[0][2], errors)
        return settings

    return parse


def parse_entries(entries: list, params: tuple[Param, ...], invalid: Callable[[int, str], Exception]) -> list[dict]:
    """The settings of each entry of ``entries`` under the table ``params``;
    raises ``invalid(index, reason)`` for the first entry that is not a
    mapping or has an error, naming the error's path."""
    parsed = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise invalid(i, "expected a mapping")
        settings, errors = parse_params(params, entry, "")
        if errors:
            path, _, message = errors[0]
            raise invalid(i, f"{path}: {message}")
        parsed.append(settings)
    return parsed


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
