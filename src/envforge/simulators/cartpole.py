"""Native cart-pole simulator: classic pole-balancing dynamics, explicit Euler.

Constants follow the standard published task (cart mass 1.0 kg, pole mass
0.1 kg, half-length 0.5 m, g = 9.8, force magnitude 10 N, dt = 0.02 s) and
live in one block.  The simulator config's ``constants`` overrides gravity,
the two masses and the half-length by name; the force magnitude is the
default ``force_limit`` of ``Controller_Force``, and the task's failure bounds
(+-2.4 m, +-12 degrees) are ``StateBounds`` dones of the agent's config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..params import Param, finite, positive, table
from ..parts import GLOBAL_REGISTRY, Box, Controller, Platform, Sensor
from ..units import METER, METER_PER_SECOND, NEWTON, NONE, RADIAN, RADIAN_PER_SECOND
from .base import Simulator, frame_rate

DEFAULTS = {
    "gravity": 9.8,
    "mass_cart": 1.0,
    "mass_pole": 0.1,
    "pole_half_length": 0.5,
    "force_mag": 10.0,
}


#: the keys of ``constants``, each defaulting to its value in ``DEFAULTS``:
#: gravity is a finite number, and the masses and the half-length, which the
#: dynamics divide by, are positive
CONSTANTS = (
    Param("gravity", finite, DEFAULTS["gravity"]),
    *(Param(name, positive, DEFAULTS[name]) for name in ("mass_cart", "mass_pole", "pole_half_length")),
)


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
    init_params = (
        Param("x0", finite, unit=METER),
        Param("xdot0", finite, unit=METER_PER_SECOND),
        Param("theta0", finite, unit=RADIAN),
        Param("thetadot0", finite, unit=RADIAN_PER_SECOND),
    )
    params = (
        Param("frame_rate", frame_rate, default=50.0),
        Param("constants", table(CONSTANTS), default={p.name: p.default for p in CONSTANTS}),
    )

    def __init__(self, config, platforms):
        super().__init__(config, platforms)
        self.constants = dict(self.settings["constants"])

    def _make_entity(self, values: dict[str, float]) -> CartPoleState:
        return CartPoleState(values["x0"], values["xdot0"], values["theta0"], values["thetadot0"])

    def _advance(self, platform: Platform) -> None:
        state: CartPoleState = platform.state
        state.force = 0.0
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


def register_parts() -> None:
    sim, plat = CartPoleSimulator.simulator_type, CartPoleSimulator.platform_type
    GLOBAL_REGISTRY.register("Sensor_State", _state_sensor, sim, plat)
    limit = Param("force_limit", positive, default=DEFAULTS["force_mag"])
    GLOBAL_REGISTRY.register("Controller_Force", _force_controller, sim, plat, (limit,))
