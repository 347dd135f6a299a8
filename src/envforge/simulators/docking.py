"""1D spacecraft docking: a double integrator driven by thrust.

The deputy craft state is (x, xdot) with dynamics xddot = T/m.  Stepping uses
the exact discrete solution of the linear system, so constant-thrust
trajectories telescope to the analytic solution with no integration error:

    x    <- x + xdot*dt + (T/m)*dt^2/2
    xdot <- xdot + (T/m)*dt
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..epp import SampledParameters
from ..parts import (
    GLOBAL_REGISTRY,
    Box,
    Controller,
    Platform,
    Sensor,
)
from ..units import METER, METER_PER_SECOND, NEWTON, NONE, Quantity
from .base import PlatformSetup, Simulator


@dataclass
class Deputy1d:
    """The docking craft entity: position, velocity, mass, commanded thrust."""

    x: float
    xdot: float
    m: float
    thrust: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("Deputy1d mass must be positive")

    def step(self, dt: float) -> None:
        a = self.thrust / self.m
        self.x += self.xdot * dt + 0.5 * a * dt * dt
        self.xdot += a * dt


class Docking1dSimulator(Simulator):
    simulator_type = "Docking1dSimulator"
    platform_type = "Docking1dPlatform"
    required_init_params = ("x0", "v0")

    @classmethod
    def default_frame_rate(cls) -> float:
        return 1.0

    def _make_entity(self, setup: PlatformSetup, sampled: SampledParameters) -> Deputy1d:
        x0 = self._init_value(sampled, setup.name, "x0").to(METER).item
        v0 = self._init_value(sampled, setup.name, "v0").to(METER_PER_SECOND).item
        mass = float(self.config.get("mass", 1.0))
        return Deputy1d(x=x0, xdot=v0, m=mass)

    def _advance(self, platform: Platform) -> None:
        entity: Deputy1d = platform.state
        entity.thrust = 0.0
        if platform.operable:
            for controller in platform.controllers().values():
                entity.thrust = controller.take_pending().to(NEWTON).item
        entity.step(self.dt)


# Part factories ---------------------------------------------------------

_THRUST_LIMIT = 1.0


def _position_sensor(name: str, config: dict) -> Sensor:
    prop = Box(1, -np.inf, np.inf, METER, name="position")
    return Sensor(name, prop, lambda e: Quantity.scalar(e.x, METER))


def _velocity_sensor(name: str, config: dict) -> Sensor:
    prop = Box(1, -np.inf, np.inf, METER_PER_SECOND, name="velocity")
    return Sensor(name, prop, lambda e: Quantity.scalar(e.xdot, METER_PER_SECOND))


def _state_sensor(name: str, config: dict) -> Sensor:
    # Raw state vector mixes dimensions, so it is reported unit-less.
    prop = Box(2, -np.inf, np.inf, NONE, name="state")
    return Sensor(name, prop, lambda e: Quantity(np.array([e.x, e.xdot]), NONE))


def _thrust_controller(name: str, config: dict) -> Controller:
    limit = float(config.get("thrust_limit", _THRUST_LIMIT))
    prop = Box(1, -limit, limit, NEWTON, name="thrust")
    return Controller(name, prop)


def register_parts(registry=GLOBAL_REGISTRY) -> None:
    sim, plat = Docking1dSimulator.simulator_type, Docking1dSimulator.platform_type
    registry.register("Sensor_Position", _position_sensor, sim, plat)
    registry.register("Sensor_Velocity", _velocity_sensor, sim, plat)
    registry.register("Sensor_State", _state_sensor, sim, plat)
    registry.register("Controller_Thrust", _thrust_controller, sim, plat)
