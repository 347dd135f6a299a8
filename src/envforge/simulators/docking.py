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

from ..params import Param, finite, positive
from ..parts import (
    GLOBAL_REGISTRY,
    Box,
    Controller,
    Platform,
    Sensor,
)
from ..units import METER, METER_PER_SECOND, NEWTON, NONE
from .base import Simulator


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
    init_params = (Param("x0", finite, unit=METER), Param("v0", finite, unit=METER_PER_SECOND))
    params = (*Simulator.params, Param("mass", positive, default=1.0))

    def _make_entity(self, values: dict[str, float]) -> Deputy1d:
        return Deputy1d(x=values["x0"], xdot=values["v0"], m=self.settings["mass"])

    def _advance(self, platform: Platform) -> None:
        entity: Deputy1d = platform.state
        entity.thrust = 0.0
        for controller in platform.controllers().values():
            entity.thrust = float(controller.take_pending()[0])
        entity.step(self.dt)


# Part factories ---------------------------------------------------------


def _position_sensor(name: str, settings: dict) -> Sensor:
    prop = Box(1, -np.inf, np.inf, METER, name="position")
    return Sensor(name, prop, lambda e: np.array([float(e.x)]))


def _velocity_sensor(name: str, settings: dict) -> Sensor:
    prop = Box(1, -np.inf, np.inf, METER_PER_SECOND, name="velocity")
    return Sensor(name, prop, lambda e: np.array([float(e.xdot)]))


def _state_sensor(name: str, settings: dict) -> Sensor:
    # Raw state vector mixes dimensions, so it is reported unit-less.
    prop = Box(2, -np.inf, np.inf, NONE, name="state")
    return Sensor(name, prop, lambda e: np.array([e.x, e.xdot], dtype=float))


def _thrust_controller(name: str, settings: dict) -> Controller:
    limit = settings["thrust_limit"]
    prop = Box(1, -limit, limit, NEWTON, name="thrust")
    return Controller(name, prop)


def register_parts() -> None:
    sim, plat = Docking1dSimulator.simulator_type, Docking1dSimulator.platform_type
    GLOBAL_REGISTRY.register("Sensor_Position", _position_sensor, sim, plat)
    GLOBAL_REGISTRY.register("Sensor_Velocity", _velocity_sensor, sim, plat)
    GLOBAL_REGISTRY.register("Sensor_State", _state_sensor, sim, plat)
    GLOBAL_REGISTRY.register(
        "Controller_Thrust", _thrust_controller, sim, plat, (Param("thrust_limit", positive, default=1.0),)
    )
