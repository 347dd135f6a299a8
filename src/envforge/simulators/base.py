"""Simulator contract: reset/step with frame_rate, sim_time, and platforms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..epp import SampledParameters
from ..params import ConfigError, Param, parse_params, positive
from ..parts import Platform
from ..units import Unit, UnitError


class SimulatorError(ConfigError):
    pass


class InvalidSimulatorConfig(SimulatorError, ValueError):
    """The simulator's ``config`` fails its parameter table."""


class MissingInitParameter(SimulatorError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing initialization parameter '{key}'")


class UnknownPlatform(SimulatorError):
    def __init__(self, name: str):
        super().__init__(f"no platform named '{name}'")


@dataclass
class PlatformSetup:
    """Construction plan for one platform: name, type, and init parameter names."""

    name: str
    platform_type: str
    init_params: list[str] = field(default_factory=list)


def frame_rate(raw) -> float:
    """A positive number of frames per second whose frame time, its
    reciprocal, is finite too (``1 / 1e-320`` is not)."""
    value = positive(raw)
    if not math.isfinite(1.0 / value):
        raise ValueError(f"frame time 1 / {value} s is not finite")
    return value


def init_key(platform_name: str, param: str) -> str:
    """EPP key under which a platform initialization parameter is sampled."""
    return f"{platform_name}.{param}"


class Simulator:
    """Base simulator: owns platforms and advances sim_time at a fixed frame rate.

    Subclasses implement :meth:`_make_entity` and :meth:`_advance`.  ``params``
    declares the keys of the simulator's ``config``; the constructor parses
    it with ``parse_params``, raising ``InvalidSimulatorConfig`` that lists
    every error, and the parsed values are ``settings``.
    """

    simulator_type = "Simulator"
    #: init parameter names each platform of this simulator must declare, and
    #: the only ones it reads
    required_init_params: tuple[str, ...] = ()
    params: tuple[Param, ...] = (Param("frame_rate", frame_rate, default=1.0),)

    def __init__(self, config: dict[str, Any], platform_setups: list[PlatformSetup]):
        self.settings, errors = parse_params(self.params, config, "config")
        if errors:
            raise InvalidSimulatorConfig.listing(self.simulator_type, errors)
        self.frame_rate = self.settings["frame_rate"]
        self.platform_setups = platform_setups
        self.platforms: dict[str, Platform] = {}
        self._persistent: dict[str, Platform] = {}
        self._steps = 0

    @property
    def sim_time(self) -> float:
        return self._steps / self.frame_rate

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    def _init_value(self, sampled: SampledParameters, platform: str, param: str, unit: Unit) -> float:
        """The sampled initialization ``param`` of ``platform``, in ``unit``.
        A value of another dimension fails at its config path."""
        key = init_key(platform, param)
        value = sampled.get(key)
        if value is None:
            raise MissingInitParameter(key)
        try:
            return value.to(unit).item
        except UnitError as exc:
            index = [setup.name for setup in self.platform_setups].index(platform)
            error = (f"platforms/{index}/initialization/{param}", "DimensionMismatch", str(exc))
            raise SimulatorError.listing(self.simulator_type, [error]) from exc

    def reset(self, sampled: SampledParameters) -> dict[str, Platform]:
        """Construct entities from sampled parameters and pair them with platforms.

        Platform objects (and the parts attached to them) persist across
        resets; only their entity state is rebuilt.
        """
        self._steps = 0
        self.platforms = {}
        for setup in self.platform_setups:
            platform = self._persistent.get(setup.name)
            if platform is None:
                platform = Platform(setup.name, setup.platform_type)
                self._persistent[setup.name] = platform
            platform.state = self._make_entity(setup, sampled)
            platform.operable = True
            for part in platform.parts.values():
                part.reset()
            self.platforms[setup.name] = platform
            # Read every sensor once so a bad first reading fails at reset.
            platform.measure_all()
        return self.platforms

    def step(self) -> dict[str, Platform]:
        """Apply pending controls and advance dynamics by one frame.

        No sensor is read here: each glue that observes a sensor reads it
        once per step.
        """
        for platform in self.platforms.values():
            self._advance(platform)
        self._steps += 1
        return self.platforms

    def mark_platform_inoperable(self, name: str) -> None:
        if name not in self.platforms:
            raise UnknownPlatform(name)
        self.platforms[name].operable = False

    def remove_platform(self, name: str) -> None:
        if name not in self.platforms:
            raise UnknownPlatform(name)
        del self.platforms[name]

    # subclass hooks ---------------------------------------------------

    def _make_entity(self, setup: PlatformSetup, sampled: SampledParameters) -> Any:
        raise NotImplementedError

    def _advance(self, platform: Platform) -> None:
        raise NotImplementedError
