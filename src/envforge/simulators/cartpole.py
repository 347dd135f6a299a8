"""Native cart-pole simulator: classic pole-balancing dynamics, explicit Euler.

Constants follow the standard published task (cart mass 1.0 kg, pole mass
0.1 kg, half-length 0.5 m, g = 9.8, force magnitude 10 N, dt = 0.02 s,
failure bounds +-2.4 m and +-12 degrees) and live in one block; the
simulator config's ``constants`` overrides any of them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..epp import SampledParameters
from ..params import Param, positive
from ..parts import GLOBAL_REGISTRY, Box, Controller, Platform, Sensor
from ..units import METER, METER_PER_SECOND, NEWTON, NONE, RADIAN, RADIAN_PER_SECOND
from .base import PlatformSetup, Simulator

DEFAULTS = {
    "gravity": 9.8,
    "mass_cart": 1.0,
    "mass_pole": 0.1,
    "pole_half_length": 0.5,
    "force_mag": 10.0,
    "x_threshold": 2.4,
    "theta_threshold": 12.0 * math.pi / 180.0,
}


def _constants(raw) -> dict[str, float]:
    """``DEFAULTS`` with the overrides of the mapping ``raw``, whose keys must be its names."""
    if not isinstance(raw, dict):
        raise TypeError(f"expected a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown constants {unknown} (known: {sorted(DEFAULTS)})")
    return {**DEFAULTS, **{name: float(value) for name, value in raw.items()}}


@dataclass
class CartPoleState:
    x: float
    xdot: float
    theta: float
    thetadot: float
    force: float = 0.0


class CartPoleSimulator(Simulator):
    simulator_type = "CartPoleSimulator"
    platform_type = "CartPolePlatform"
    required_init_params = ("x0", "xdot0", "theta0", "thetadot0")
    params = (
        Param("frame_rate", positive, default=50.0),
        Param("constants", _constants, default=DEFAULTS),
    )

    def __init__(self, config, platform_setups):
        super().__init__(config, platform_setups)
        self.constants = dict(self.settings["constants"])

    def _make_entity(self, setup: PlatformSetup, sampled: SampledParameters) -> CartPoleState:
        return CartPoleState(
            x=self._init_value(sampled, setup.name, "x0", METER),
            xdot=self._init_value(sampled, setup.name, "xdot0", METER_PER_SECOND),
            theta=self._init_value(sampled, setup.name, "theta0", RADIAN),
            thetadot=self._init_value(sampled, setup.name, "thetadot0", RADIAN_PER_SECOND),
        )

    def _advance(self, platform: Platform) -> None:
        state: CartPoleState = platform.state
        state.force = 0.0
        if platform.operable:
            for controller in platform.controllers().values():
                state.force = float(controller.take_pending()[0])

        c = self.constants
        total_mass = c["mass_cart"] + c["mass_pole"]
        polemass_length = c["mass_pole"] * c["pole_half_length"]
        sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
        temp = (state.force + polemass_length * state.thetadot**2 * sin_t) / total_mass
        theta_acc = (c["gravity"] * sin_t - cos_t * temp) / (
            c["pole_half_length"] * (4.0 / 3.0 - c["mass_pole"] * cos_t**2 / total_mass)
        )
        x_acc = temp - polemass_length * theta_acc * cos_t / total_mass

        dt = self.dt
        state.x += dt * state.xdot
        state.xdot += dt * x_acc
        state.theta += dt * state.thetadot
        state.thetadot += dt * theta_acc


# Part factories ---------------------------------------------------------


def _state_sensor(name: str, settings: dict) -> Sensor:
    prop = Box(4, -np.inf, np.inf, NONE, name="state")
    return Sensor(
        name, prop, lambda s: np.array([s.x, s.xdot, s.theta, s.thetadot], dtype=float)
    )


def _force_controller(name: str, settings: dict) -> Controller:
    limit = settings["force_limit"]
    prop = Box(1, -limit, limit, NEWTON, name="force")
    return Controller(name, prop)


def register_parts(registry=GLOBAL_REGISTRY) -> None:
    sim, plat = CartPoleSimulator.simulator_type, CartPoleSimulator.platform_type
    registry.register("Sensor_State", _state_sensor, sim, plat)
    limit = Param("force_limit", positive, default=DEFAULTS["force_mag"])
    registry.register("Controller_Force", _force_controller, sim, plat, (limit,))
