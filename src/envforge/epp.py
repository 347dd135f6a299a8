"""Episode Parameter Provider: per-episode sampling of named distributions.

Each parameter is a distribution sampled once per episode with a generator
keyed by (episode seed, parameter name), so adding or renaming one parameter
never perturbs another's draws; a constant, which draws nothing, is built no
generator.  Updaters mutate distribution hyperparameters between episodes to
implement curricula.  The Reference Store makes a single sampled value
visible to every functor that references it.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from statistics import NormalDist
from types import MappingProxyType
from typing import Any

import numpy as np

from .params import (
    PARSE_ERRORS, ConfigError, Param, finite, list_of, nonempty, nonnegative, optional, parse_params, parse_reference,
    positive,
)
from .units import NONE, Quantity, Unit, UnitError


class EppError(ConfigError):
    pass


class UnknownHyperparameter(EppError):
    def __init__(self, target: str, distribution: "Distribution"):
        super().__init__(
            f"updater target '{target}' is not a mutable hyperparameter of "
            f"{type(distribution).__name__}"
        )


class UnknownReference(EppError):
    def __init__(self, key: str):
        super().__init__(f"reference store has no key '{key}'")


class InvalidOverride(EppError):
    """An override that names no declared parameter, or whose value is not a
    ``Quantity`` that converts to its parameter's unit and its readers take."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"override '{name}': {reason}")


class UnsampleableParameter(EppError):
    """A parameter whose distribution raised when drawn from, or drew a
    value a reader refuses, reported at that distribution's config path."""

    def __init__(self, path: str, reason: Exception | str):
        message = f"cannot be sampled: {reason}"
        super().__init__(f"episode parameters: {path}: {message}", [(path, "TypeMismatch", message)])


class NotYetSampled(EppError):
    def __init__(self):
        super().__init__("reference store read before the first episode sample")


_STD_NORMAL = NormalDist()


class Distribution:
    """Base distribution; subclasses declare their hyperparameters in
    ``params`` and expose the mutable ones."""

    #: the table of its hyperparameters, each a finite number or a list of them
    params: tuple[Param, ...] = ()
    #: names of hyperparameters an updater may target
    mutable: tuple[str, ...] = ()
    #: names of the hyperparameters that bound what ``sample`` returns
    bounds: tuple[str, ...] = ()
    draws = True  # whether ``sample`` draws from its generator; one that does not is given None

    def sample(self, rng: np.random.Generator | None) -> float:
        raise NotImplementedError

    def support(self, updaters: Iterable["Increment"] = ()) -> list[float]:
        """The values a reader of a draw must take: the ``bounds``, and the
        ``limit`` of each of ``updaters`` that moves one (one with no limit
        may move it anywhere: ``reset`` checks each draw)."""
        limits = [u.limit for u in updaters if u.target in self.bounds and u.limit is not None]
        return [*(getattr(self, name) for name in self.bounds), *limits]

    def validate(self) -> None:
        """Check invariants; ``ParameterSpec`` calls it at construction.  The
        hyperparameters are read with ``params``, which raises ``ValueError``
        naming the first one that fails; a subclass checks the invariants
        between them after this."""
        _, errors = parse_params(self.params, vars(self), "")
        if errors:
            path, _, message = errors[0]
            raise ValueError(f"{type(self).__name__}: {path}: {message}")

    def clamp(self) -> None:
        """Restore invariants after an update, clamping where possible."""


@dataclass
class Constant(Distribution):
    value: float

    params = (Param("value", finite),)
    mutable = ("value",)
    bounds = ("value",)
    draws = False

    def sample(self, rng: np.random.Generator | None) -> float:
        return float(self.value)


@dataclass
class Uniform(Distribution):
    low: float
    high: float

    params = (Param("low", finite), Param("high", finite))
    mutable = ("low", "high")
    bounds = ("low", "high")

    def validate(self) -> None:
        super().validate()
        if self.low > self.high:
            raise ValueError(f"Uniform: low ({self.low}) > high ({self.high})")
        if not math.isfinite(self.high - self.low):  # the generator draws low + (high - low) * u
            raise ValueError(f"Uniform: high - low is not finite (low {self.low}, high {self.high})")

    def clamp(self) -> None:
        if self.low > self.high:
            self.low = self.high

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


@dataclass
class TruncatedGaussian(Distribution):
    mu: float
    sigma: float
    low: float
    high: float

    params = (Param("mu", finite), Param("sigma", positive), Param("low", finite), Param("high", finite))
    mutable = ("mu", "sigma", "low", "high")
    bounds = ("low", "high")

    def validate(self) -> None:
        super().validate()
        if self.low >= self.high:
            raise ValueError(
                f"TruncatedGaussian: low ({self.low}) must be < high ({self.high})"
            )

    def clamp(self) -> None:
        if self.sigma <= 0:
            self.sigma = np.finfo(float).tiny
        if self.low >= self.high:
            self.low = np.nextafter(self.high, -np.inf)

    def sample(self, rng: np.random.Generator) -> float:
        # Inverse-CDF sampling: deterministic cost, exact seed reproducibility.
        a = _STD_NORMAL.cdf((self.low - self.mu) / self.sigma)
        b = _STD_NORMAL.cdf((self.high - self.mu) / self.sigma)
        u = rng.uniform(0.0, 1.0)
        p = a + u * (b - a)
        # Guard the open-interval requirement of inv_cdf at the extremes.
        p = min(max(p, np.finfo(float).tiny), 1.0 - np.finfo(float).epsneg)
        x = self.mu + self.sigma * _STD_NORMAL.inv_cdf(p)
        return float(min(max(x, self.low), self.high))


@dataclass
class DiscreteChoice(Distribution):
    values: list[float]
    weights: list[float] | None = None

    params = (
        Param("values", nonempty(list_of(finite))),
        Param("weights", optional(list_of(nonnegative)), None),
    )
    mutable = ()

    def support(self, updaters: Iterable["Increment"] = ()) -> list[float]:
        return list(self.values)

    def validate(self) -> None:
        super().validate()
        if self.weights is not None:
            if len(self.weights) != len(self.values):
                raise ValueError("DiscreteChoice: weights length != values length")
            if not 0 < sum(self.weights) < math.inf:
                raise ValueError("DiscreteChoice: weights must sum to a finite number > 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.weights is None:
            idx = rng.integers(0, len(self.values))
        else:
            p = np.asarray(self.weights, dtype=float)
            idx = rng.choice(len(self.values), p=p / p.sum())
        return float(self.values[idx])


DISTRIBUTION_KINDS = {
    "constant": Constant,
    "uniform": Uniform,
    "truncated_gaussian": TruncatedGaussian,
    "discrete_choice": DiscreteChoice,
}


@dataclass
class Increment:
    """Add ``step`` to the target hyperparameter each application, clamped at ``limit``."""

    target: str
    step: float
    limit: float | None = None

    def apply(self, dist: Distribution) -> None:
        if self.target not in dist.mutable:
            raise UnknownHyperparameter(self.target, dist)
        value = getattr(dist, self.target) + self.step
        if self.limit is not None:
            if self.step >= 0:
                value = min(value, self.limit)
            else:
                value = max(value, self.limit)
        setattr(dist, self.target, value)
        dist.clamp()


@dataclass
class ParameterSpec:
    """A named distribution with a unit and optional curriculum updaters."""

    name: str
    distribution: Distribution
    unit: Unit = NONE
    updaters: list[Increment] = field(default_factory=list)

    def __post_init__(self):
        self.distribution.validate()


#: one episode's draw, read-only: each parameter's value by name
SampledParameters = Mapping[str, Quantity]


def _parameter_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class EpisodeParameterProvider:
    """Holds parameter specs, samples them per episode, and hosts the
    Reference Store.  ``paths`` holds where the config declares each
    parameter, and ``readers`` the params that read it each episode (a
    functor's reference, a simulator's initialization value), by name."""

    def __init__(self, specs: list[ParameterSpec] | None = None):
        self._specs: dict[str, ParameterSpec] = {}
        self.paths: dict[str, str] = {}
        self.readers: dict[str, list[Param]] = {}
        for spec in specs or []:
            self.add(spec)
        self._current: SampledParameters | None = None

    def add(self, spec: ParameterSpec, path: str = "") -> None:
        """Add ``spec``; ``path`` is where the config declares it (its name
        if not given), for errors."""
        if spec.name in self._specs:
            raise ValueError(f"duplicate parameter name '{spec.name}'")
        self._specs[spec.name] = spec
        self.paths[spec.name] = path or spec.name

    @property
    def specs(self) -> dict[str, ParameterSpec]:
        return dict(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def sample_episode(
        self, seed: int, overrides: dict[str, Quantity] | None = None
    ) -> SampledParameters:
        """Draw every parameter for one episode.

        ``overrides`` replaces named distributions with fixed values for this
        episode only (used by the evaluation pipeline's test cases); each is
        checked by ``override`` before anything is drawn, and each draw by
        its readers as an override is: a distribution that raises when drawn
        from, or a draw a reader refuses, raises ``UnsampleableParameter``.
        Any of these leaves ``current_sample`` as it was.
        """
        fixed = {name: self.override(name, value) for name, value in (overrides or {}).items()}
        values: dict[str, Quantity] = {}
        for name, spec in self._specs.items():
            if name in fixed:
                values[name] = fixed[name]
            else:
                dist = spec.distribution
                try:
                    value = dist.sample(_parameter_rng(seed, name) if dist.draws else None)
                except (ArithmeticError, ValueError) as exc:
                    raise UnsampleableParameter(f"{self.paths[name]}/distribution", exc) from exc
                values[name] = Quantity.scalar(value, spec.unit)
                if refusal := self._refusal(name, values[name]):
                    reason = f"value {value} {spec.unit.name}: {refusal}"
                    raise UnsampleableParameter(f"{self.paths[name]}/distribution", reason)
        self._current = MappingProxyType(values)
        return self._current

    def override(self, name: str, value) -> Quantity:
        """The override ``value`` of parameter ``name`` in its unit, once
        each reader takes it as it would at ``reset``; or ``InvalidOverride``."""
        spec = self._specs.get(name)
        if spec is None:
            raise InvalidOverride(name, f"no such parameter; declared: {', '.join(self._specs)}")
        if not isinstance(value, Quantity):
            raise InvalidOverride(name, f"expected a Quantity, got {type(value).__name__}")
        try:
            value = value.to(spec.unit)
        except (UnitError, OverflowError) as exc:
            raise InvalidOverride(name, str(exc)) from exc
        if refusal := self._refusal(name, value):
            raise InvalidOverride(name, refusal)
        return value

    def _refusal(self, name: str, value: Quantity) -> str | None:
        """Why the first reader of ``name`` to refuse ``value`` refuses it, else None."""
        for p in self.readers.get(name, ()):
            try:
                parse_reference(p, value)
            except PARSE_ERRORS as exc:
                return f"'{p.name}': {exc}"
        return None

    @property
    def current_sample(self) -> SampledParameters | None:
        return self._current

    def apply_training_result(self, result: dict[str, Any] | None = None) -> None:
        """Fire every updater once; built-in Increment ignores the payload."""
        for spec in self._specs.values():
            for updater in spec.updaters:
                updater.apply(spec.distribution)

    def reference_lookup(self, key: str) -> Quantity:
        """The value sampled for ``key`` this episode; stable within an episode."""
        if self._current is None:
            raise NotYetSampled()
        if key not in self._current:
            raise UnknownReference(key)
        return self._current[key]

    def snapshot_state(self) -> dict[str, Any]:
        """Serializable view of the current distribution hyperparameters."""
        out: dict[str, Any] = {}
        for name, spec in self._specs.items():
            dist = spec.distribution
            fields = {k: v for k, v in vars(dist).items()}
            out[name] = {
                "kind": type(dist).__name__,
                "unit": spec.unit.name,
                **fields,
            }
        return out
