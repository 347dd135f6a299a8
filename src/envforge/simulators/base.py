"""Simulator contract: reset/step with frame_rate, sim_time, and platforms."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from ..epp import SampledParameters
from ..params import ConfigError, Param, parse_params, parse_reference, positive
from ..parts import Platform

if TYPE_CHECKING:  # config imports simulators
    from ..config.schema import PlatformConfig


class SimulatorError(ConfigError):
    pass


class InvalidSimulatorConfig(SimulatorError, ValueError):
    """The simulator's ``config`` fails its parameter table."""


class SimulationDiverged(Exception):
    """A platform whose step raised an ``ArithmeticError`` or a ``ValueError``,
    or left a field of its entity state not finite."""

    def __init__(self, platform: Platform, exc: Exception):
        self.platform = platform.name
        super().__init__(f"platform '{platform.name}' diverged: {type(exc).__name__}: {exc}; state {platform.state!r}")


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

    Subclasses declare ``init_params`` and implement :meth:`_make_entity` and
    :meth:`_advance`.  ``params`` declares the keys of the simulator's
    ``config``; the constructor parses it with ``parse_params``, raising
    ``InvalidSimulatorConfig`` that lists every error, and the parsed values
    are ``settings``.  It makes each platform, from its config, once, and the
    platforms are fixed from then on: ``reset`` rebuilds only each one's
    entity state and resets its controllers.
    """

    simulator_type = "Simulator"
    #: the initialization parameters each platform of this simulator must
    #: declare, and the only ones it reads: each param's ``unit`` is the unit
    #: ``_make_entity`` takes it in, and its ``parse`` the values it takes
    init_params: tuple[Param, ...] = ()
    params: tuple[Param, ...] = (Param("frame_rate", frame_rate, default=1.0),)

    def __init__(self, config: dict[str, Any], platforms: list[PlatformConfig]):
        self.settings, errors = parse_params(self.params, config, "config")
        if errors:
            raise InvalidSimulatorConfig.listing(self.simulator_type, errors)
        self.frame_rate = self.settings["frame_rate"]
        self.dt = 1.0 / self.frame_rate
        self.platforms = {p.name: Platform(p.name, p.platform_type) for p in platforms}
        self._steps = 0

    @property
    def sim_time(self) -> float:
        return self._steps / self.frame_rate

    def reset(self, sampled: SampledParameters) -> None:
        """Rebuild every platform's entity from ``sampled`` and reset its
        controllers, each of its ``init_params`` read as ``Functor.bind`` reads a
        reference (``sample_episode`` refused any sample a reader refuses)."""
        self._steps = 0
        for name, platform in self.platforms.items():
            values = {p.name: parse_reference(p, sampled[init_key(name, p.name)]) for p in self.init_params}
            platform.state = self._make_entity(values)
            for controller in platform.controllers().values():
                controller.reset()

    def step(self) -> None:
        """Apply pending controls and advance dynamics by one frame.

        No sensor is read here: each glue that observes a sensor reads it
        once per step.  An ``ArithmeticError`` or ``ValueError`` from
        ``_advance``, or a field of ``vars(platform.state)`` (what an artifact
        records) that it leaves non-finite, raises ``SimulationDiverged``
        naming the platform and its state.
        """
        try:
            for platform in self.platforms.values():
                self._advance(platform)
                # a finite sum proves every field finite, but finite fields may overflow it
                fields = vars(platform.state).values()
                if not math.isfinite(sum(fields)) and not all(map(math.isfinite, fields)):
                    raise ArithmeticError("non-finite state")
        except (ArithmeticError, ValueError) as exc:
            raise SimulationDiverged(platform, exc) from exc
        self._steps += 1

    # subclass hooks ---------------------------------------------------

    def _make_entity(self, values: dict[str, float]) -> Any:
        """A platform's entity from its ``init_params`` values, each in its unit."""
        raise NotImplementedError

    def _advance(self, platform: Platform) -> None:
        raise NotImplementedError
