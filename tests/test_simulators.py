import math
import time

import numpy as np
import pytest

from envforge.epp import SampledParameters
from envforge.simulators import SIMULATORS
from envforge.simulators.base import MissingInitParameter, PlatformSetup, UnknownPlatform, init_key
from envforge.simulators.cartpole import DEFAULTS, CartPoleSimulator, _force_controller
from envforge.simulators.cartpole import _state_sensor as cartpole_state_sensor
from envforge.simulators.docking import Docking1dSimulator, _thrust_controller
from envforge.units import METER, METER_PER_SECOND, RADIAN, RADIAN_PER_SECOND, Quantity


def docking_sampled(x0=0.0, v0=0.0, name="deputy"):
    return SampledParameters(
        {
            init_key(name, "x0"): Quantity.scalar(x0, METER),
            init_key(name, "v0"): Quantity.scalar(v0, METER_PER_SECOND),
        },
        episode_seed=0,
    )


def make_docking(config=None, x0=0.0, v0=0.0, with_controller=True):
    sim = Docking1dSimulator(
        config or {"frame_rate": 1.0, "mass": 1.0},
        [PlatformSetup("deputy", "Docking1dPlatform", ["x0", "v0"])],
    )
    sim.reset(docking_sampled(x0, v0))
    platform = sim.platforms["deputy"]
    if with_controller:
        platform.add_part(_thrust_controller("Controller_Thrust", {"thrust_limit": 1.0}))
    return sim, platform


def cartpole_sampled(x=0.0, xdot=0.0, theta=0.0, thetadot=0.0, name="cart"):
    return SampledParameters(
        {
            init_key(name, "x0"): Quantity.scalar(x, METER),
            init_key(name, "xdot0"): Quantity.scalar(xdot, METER_PER_SECOND),
            init_key(name, "theta0"): Quantity.scalar(theta, RADIAN),
            init_key(name, "thetadot0"): Quantity.scalar(thetadot, RADIAN_PER_SECOND),
        },
        episode_seed=0,
    )


def make_cartpole(**state):
    sim = CartPoleSimulator(
        {}, [PlatformSetup("cart", "CartPolePlatform", ["x0", "xdot0", "theta0", "thetadot0"])]
    )
    sim.reset(cartpole_sampled(**state))
    platform = sim.platforms["cart"]
    platform.add_part(_force_controller("Controller_Force", {"force_limit": DEFAULTS["force_mag"]}))
    return sim, platform


class TestDockingDynamics:
    def test_constant_thrust_matches_analytic_solution(self):
        # Oracle: closed-form double integrator x(t) = x0 + v0 t + a t^2 / 2.
        x0, v0, thrust, mass, n = -10.0, 0.001, 2e-6, 2.0, 10_000
        sim, platform = make_docking({"frame_rate": 1.0, "mass": mass}, x0=x0, v0=v0)
        ctrl = platform.controllers()["Controller_Thrust"]
        a = thrust / mass
        start = time.perf_counter()
        for k in range(1, n + 1):
            ctrl.apply(np.array([thrust]))
            sim.step()
            t = k * sim.dt
            assert platform.state.x == pytest.approx(x0 + v0 * t + 0.5 * a * t * t, abs=1e-9)
            assert platform.state.xdot == pytest.approx(v0 + a * t, abs=1e-9)
        assert time.perf_counter() - start < 1.0

    def test_zero_thrust_drifts_linearly(self):
        sim, platform = make_docking(x0=5.0, v0=-0.5)
        for _ in range(100):
            sim.step()
        assert platform.state.x == pytest.approx(5.0 - 0.5 * 100, abs=1e-9)
        assert platform.state.xdot == -0.5

    def test_thrust_clamped_to_limit(self):
        sim, platform = make_docking()
        ctrl = platform.controllers()["Controller_Thrust"]
        ctrl.apply(np.array([10.0]))
        sim.step()
        assert platform.state.xdot == pytest.approx(1.0)  # limit 1 N, mass 1 kg
        assert ctrl.clamp_count == 1

    def test_pending_thrust_cleared_after_step(self):
        sim, platform = make_docking()
        ctrl = platform.controllers()["Controller_Thrust"]
        ctrl.apply(np.array([0.5]))
        sim.step()
        sim.step()  # no command: zero thrust
        assert platform.state.xdot == pytest.approx(0.5)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            make_docking({"frame_rate": 1.0, "mass": -1.0})

    def test_missing_init_parameter(self):
        sim = Docking1dSimulator({}, [PlatformSetup("deputy", "Docking1dPlatform", ["x0", "v0"])])
        with pytest.raises(MissingInitParameter):
            sim.reset(SampledParameters({}, episode_seed=0))


class TestTimeBookkeeping:
    def test_sim_time_tracks_steps(self):
        sim, _ = make_docking({"frame_rate": 4.0, "mass": 1.0})
        for k in range(1, 1001):
            sim.step()
            assert sim.sim_time == pytest.approx(k / 4.0, abs=1e-12)

    def test_dt_is_frame_period(self):
        sim, _ = make_docking({"frame_rate": 50.0, "mass": 1.0})
        assert sim.dt == pytest.approx(1.0 / 50.0, abs=1e-15)

    def test_reset_rewinds_clock(self):
        sim, _ = make_docking()
        sim.step()
        sim.reset(docking_sampled())
        assert sim.sim_time == 0.0


class TestPlatformPersistence:
    def test_parts_survive_reset(self):
        sim, platform = make_docking(x0=1.0)
        sim.reset(docking_sampled(x0=-3.0))
        assert sim.platforms["deputy"] is platform
        assert "Controller_Thrust" in platform.parts
        assert platform.state.x == -3.0

    def test_inoperable_platform_ignores_controls(self):
        sim, platform = make_docking()
        sim.mark_platform_inoperable("deputy")
        platform.controllers()["Controller_Thrust"].apply(np.array([1.0]))
        sim.step()
        assert platform.state.xdot == 0.0

    def test_remove_platform(self):
        sim, _ = make_docking()
        sim.remove_platform("deputy")
        assert "deputy" not in sim.platforms
        with pytest.raises(UnknownPlatform):
            sim.remove_platform("deputy")

    def test_unknown_platform_operations(self):
        sim, _ = make_docking()
        with pytest.raises(UnknownPlatform):
            sim.mark_platform_inoperable("ghost")


def cartpole_oracle(state, force, n, dt=0.02):
    """Independent reimplementation of the classic cart-pole Euler update."""
    g, mc, mp, l, _ = 9.8, 1.0, 0.1, 0.5, 10.0
    x, xdot, theta, thetadot = state
    out = []
    for _ in range(n):
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        temp = (force + mp * l * thetadot**2 * sin_t) / (mc + mp)
        theta_acc = (g * sin_t - cos_t * temp) / (l * (4.0 / 3.0 - mp * cos_t**2 / (mc + mp)))
        x_acc = temp - mp * l * theta_acc * cos_t / (mc + mp)
        x += dt * xdot
        xdot += dt * x_acc
        theta += dt * thetadot
        thetadot += dt * theta_acc
        out.append((x, xdot, theta, thetadot))
    return out


class TestCartPole:
    def test_zero_state_zero_force_is_fixed_point(self):
        sim, platform = make_cartpole()
        for _ in range(200):
            sim.step()
        s = platform.state
        assert (s.x, s.xdot, s.theta, s.thetadot) == (0.0, 0.0, 0.0, 0.0)

    def test_fixed_push_sequence_matches_oracle(self):
        # Alternating +-10 N pushes for 100 steps against the independent oracle.
        sim, platform = make_cartpole(theta=0.02)
        ctrl = platform.controllers()["Controller_Force"]
        state = (0.0, 0.0, 0.02, 0.0)
        for k in range(100):
            force = 10.0 if k % 2 == 0 else -10.0
            ctrl.apply(np.array([force]))
            sim.step()
            state = cartpole_oracle(state, force, 1)[-1]
            s = platform.state
            for got, want in zip((s.x, s.xdot, s.theta, s.thetadot), state):
                assert got == pytest.approx(want, abs=1e-9)

    def test_unforced_pole_falls(self):
        sim, platform = make_cartpole(theta=0.01)
        for _ in range(100):
            sim.step()
        assert abs(platform.state.theta) > 0.01  # inverted pendulum is unstable

    def test_constants_config_overridable(self):
        sim = CartPoleSimulator(
            {"constants": {"gravity": 0.0}},
            [PlatformSetup("cart", "CartPolePlatform", ["x0", "xdot0", "theta0", "thetadot0"])],
        )
        sim.reset(cartpole_sampled(theta=0.5))
        for _ in range(50):
            sim.step()
        # Without gravity an unforced pole keeps its angle.
        assert sim.platforms["cart"].state.theta == pytest.approx(0.5, abs=1e-12)

    def test_default_frame_rate_is_50(self):
        sim, _ = make_cartpole()
        assert sim.frame_rate == 50.0

    def test_defaults_match_published_task(self):
        assert DEFAULTS["gravity"] == 9.8
        assert DEFAULTS["mass_cart"] == 1.0
        assert DEFAULTS["mass_pole"] == 0.1
        assert DEFAULTS["pole_half_length"] == 0.5
        assert DEFAULTS["force_mag"] == 10.0
        assert DEFAULTS["x_threshold"] == 2.4
        assert DEFAULTS["theta_threshold"] == pytest.approx(12.0 * math.pi / 180.0)


class TestSensors:
    def test_state_sensor_reads_full_state(self):
        sim, platform = make_cartpole(x=0.1, xdot=0.2, theta=0.3, thetadot=0.4)
        sensor = cartpole_state_sensor("Sensor_State", {})
        platform.add_part(sensor)
        values = sensor.measure(platform.state)
        assert np.allclose(values, [0.1, 0.2, 0.3, 0.4])

    def test_simulator_registry(self):
        assert SIMULATORS["Docking1dSimulator"] is Docking1dSimulator
        assert SIMULATORS["CartPoleSimulator"] is CartPoleSimulator
