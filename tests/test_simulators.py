import math
import time

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.config.schema import PlatformConfig
from envforge.environment import Environment
from envforge.params import ConfigError
from envforge.simulators import SIMULATORS
from envforge.epp import Constant, Increment, ParameterSpec, UnsampleableParameter
from envforge.simulators.base import InvalidSimulatorConfig, SimulationDiverged, init_key
from envforge.simulators.cartpole import DEFAULTS, CartPoleSimulator, _force_controller
from envforge.simulators.cartpole import _state_sensor as cartpole_state_sensor
from envforge.simulators.docking import Docking1dSimulator, _thrust_controller
from envforge.units import METER, METER_PER_SECOND, RADIAN, RADIAN_PER_SECOND, Quantity, get_unit

from envforge import cli
from envforge.config.validate import validate_environment_file
from envforge.evaluation.evaluate import run_episode

from conftest import CONFIG_DIR, DATA_DIR, load_env_config


def docking_sampled(x0=0.0, v0=0.0, name="deputy"):
    return {
        init_key(name, "x0"): Quantity.scalar(x0, METER),
        init_key(name, "v0"): Quantity.scalar(v0, METER_PER_SECOND),
    }


def make_docking(config=None, x0=0.0, v0=0.0, with_controller=True):
    sim = Docking1dSimulator(
        config or {"frame_rate": 1.0, "mass": 1.0},
        [PlatformConfig("deputy", "Docking1dPlatform")],
    )
    sim.reset(docking_sampled(x0, v0))
    platform = sim.platforms["deputy"]
    if with_controller:
        platform.add_part(_thrust_controller("Controller_Thrust", {"thrust_limit": 1.0}))
    return sim, platform


def cartpole_sampled(x=0.0, xdot=0.0, theta=0.0, thetadot=0.0, name="cart"):
    return {
        init_key(name, "x0"): Quantity.scalar(x, METER),
        init_key(name, "xdot0"): Quantity.scalar(xdot, METER_PER_SECOND),
        init_key(name, "theta0"): Quantity.scalar(theta, RADIAN),
        init_key(name, "thetadot0"): Quantity.scalar(thetadot, RADIAN_PER_SECOND),
    }


def make_cartpole(**state):
    sim = CartPoleSimulator(
        {}, [PlatformConfig("cart", "CartPolePlatform")]
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

    def test_missing_init_parameter(self, docking_config):
        # a config built in Python skips validate; the build checks each
        # platform's initialization against the simulator's init_params
        del docking_config.platforms[0].initialization["v0"]
        with pytest.raises(ConfigError) as caught:
            Environment(docking_config)
        assert [(path, code) for path, code, _ in caught.value.errors] == [
            ("platforms/0/initialization/v0", "MissingField")
        ]


class TestInitialValues:
    """``reset`` reads each initialization value with its ``init_params``
    param, as a functor reads a reference.  A draw the param refuses fails
    the environment's ``reset`` at the parameter's distribution path, before
    any platform changes."""

    def test_init_params_are_declared_params(self):
        assert [(p.name, p.unit) for p in Docking1dSimulator.init_params] == [("x0", METER), ("v0", METER_PER_SECOND)]

    @pytest.mark.parametrize(
        "unit, step, moves, reason",
        [
            ("kilometer", 1e306, 1, "value 1e+306 kilometer: 'x0': a value in kilometer overflows a float in meter"),
            ("meter", 1e308, 2, "value inf meter: 'x0': expected a finite number, got inf"),
        ],
        ids=["overflow", "inf"],
    )
    def test_refused_value_names_platform_and_parameter(self, docking_short_config, unit, step, moves, reason):
        # an updater without a limit moves x0 to a value the build never saw
        spec = ParameterSpec("x0", Constant(0.0), get_unit(unit), [Increment("value", step)])
        docking_short_config.platforms[0].initialization["x0"] = spec
        env = Environment(docking_short_config)
        env.reset(seed=0)
        deputy = env.simulator.platforms["deputy"]
        entity = deputy.state
        for _ in range(moves):
            env.apply_training_result()
        with pytest.raises(UnsampleableParameter) as caught:
            env.reset(seed=1)
        path = "platforms/0/initialization/x0/distribution"
        assert str(caught.value) == f"episode parameters: {path}: cannot be sampled: {reason}"
        assert deputy.state is entity and entity.x == 0.0


class TestDivergence:
    """Arithmetic that fails inside a simulator's step raises one typed
    error naming the platform and its entity state, never a bare one."""

    def test_overflow_names_platform_and_state(self):
        sim, platform = make_cartpole(thetadot=-1e308)  # float ** raises on overflow
        with pytest.raises(SimulationDiverged) as caught:
            sim.step()
        message = str(caught.value)
        assert message.startswith("platform 'cart' diverged: OverflowError: ")
        assert "thetadot=-1e+308" in message
        assert caught.value.platform == "cart" and isinstance(caught.value.__cause__, OverflowError)

    def test_domain_error_names_platform_and_state(self):
        sim, platform = make_cartpole()
        platform.state.theta = math.inf  # reset refuses it; a step that overflowed would leave it
        with pytest.raises(SimulationDiverged, match="platform 'cart' diverged: ValueError: math domain error"):
            sim.step()

    def test_diverging_config_validates_and_fails_the_run_naming_the_platform(self, tmp_path, capsys):
        path = DATA_DIR / "diverging" / "cartpole.yml"
        config, report = validate_environment_file(path)
        assert str(report) == "0 errors"
        artifact = run_episode(Environment(config), seed=0)
        assert artifact.error.startswith("SimulationDiverged: platform 'cart' diverged: OverflowError: ")
        capsys.readouterr()
        assert cli.main(["run", "--env", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: EpisodeFailed: episode 0 (seed 0): SimulationDiverged: platform 'cart'")

    def test_diverging_docking_config_validates_and_fails_the_run_naming_the_platform(self, tmp_path, capsys):
        # x + xdot*dt overflows to -inf without raising: the state check catches it
        path = DATA_DIR / "diverging" / "docking.yml"
        config, report = validate_environment_file(path)
        assert str(report) == "0 errors"
        artifact = run_episode(Environment(config), seed=0)
        assert artifact.error.startswith(
            "SimulationDiverged: platform 'deputy' diverged: ArithmeticError: non-finite state; state Deputy1d(x=-inf"
        )
        assert artifact.rows == []
        capsys.readouterr()
        assert cli.main(["run", "--env", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: EpisodeFailed: episode 0 (seed 0): SimulationDiverged: platform 'deputy'")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def docking_short_env(docking_short_env_path):
    return Environment(load_env_config(docking_short_env_path))


@pytest.fixture(scope="module")
def cartpole_env(cartpole_env_path):
    return Environment(load_env_config(cartpole_env_path))


def assert_finite_or_diverged(artifact):
    """Every float a row records is finite, and the episode ends with no
    error or with ``SimulationDiverged``."""
    assert all(math.isfinite(v) for _, values in artifact.rows for v in values if isinstance(v, float))
    assert artifact.error is None or artifact.error.startswith("SimulationDiverged: "), artifact.error


class TestFiniteStates:
    """Over every finite initial value, no recorded row holds a NaN or an
    infinity: a state that stops being finite ends the episode."""

    @settings(max_examples=100, deadline=None)
    @given(x0=FINITE, v0=FINITE)
    def test_docking(self, docking_short_env, x0, v0):
        overrides = {"deputy.x0": Quantity.scalar(x0, METER), "deputy.v0": Quantity.scalar(v0, METER_PER_SECOND)}
        assert_finite_or_diverged(run_episode(docking_short_env, seed=0, overrides=overrides))

    @settings(max_examples=100, deadline=None)
    @given(values=st.tuples(FINITE, FINITE, FINITE, FINITE))
    def test_cartpole(self, cartpole_env, values):
        units = (METER, METER_PER_SECOND, RADIAN, RADIAN_PER_SECOND)
        names = ("x0", "xdot0", "theta0", "thetadot0")
        overrides = {f"cart.{n}": Quantity.scalar(v, u) for n, v, u in zip(names, values, units)}
        assert_finite_or_diverged(run_episode(cartpole_env, seed=0, overrides=overrides))


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

    @pytest.mark.parametrize("make, sampled", [(make_docking, docking_sampled), (make_cartpole, cartpole_sampled)])
    def test_reset_and_step_keep_the_platform_dict(self, make, sampled):
        # the platforms are fixed at build: reset and step return nothing and
        # leave the one dict, with the same platforms, in place
        sim, platform = make()
        platforms = sim.platforms
        assert sim.step() is None
        assert sim.reset(sampled()) is None
        assert sim.platforms is platforms and list(platforms.values()) == [platform]

    def test_every_platform_takes_its_controls(self):
        sim = Docking1dSimulator(
            {"frame_rate": 1.0, "mass": 1.0},
            [PlatformConfig("deputy", "Docking1dPlatform"), PlatformConfig("spare", "Docking1dPlatform")],
        )
        sim.reset({**docking_sampled(), **docking_sampled(name="spare")})
        for name, thrust in [("deputy", 0.5), ("spare", -0.25)]:
            platform = sim.platforms[name]
            platform.add_part(_thrust_controller("Controller_Thrust", {"thrust_limit": 1.0}))
            platform.controllers()["Controller_Thrust"].apply(np.array([thrust]))
        sim.step()
        assert [p.state.xdot for p in sim.platforms.values()] == [0.5, -0.25]


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
            [PlatformConfig("cart", "CartPolePlatform")],
        )
        sim.reset(cartpole_sampled(theta=0.5))
        for _ in range(50):
            sim.step()
        # Without gravity an unforced pole keeps its angle.
        assert sim.platforms["cart"].state.theta == pytest.approx(0.5, abs=1e-12)

    def test_default_frame_rate_is_50(self):
        sim, _ = make_cartpole()
        assert sim.frame_rate == 50.0

    def test_frame_time_must_be_finite(self):
        # 1e-320 is positive and finite, but its frame time 1 / 1e-320 is
        # inf: the first step would fail with a math domain error.
        platforms = [PlatformConfig("cart", "CartPolePlatform")]
        with pytest.raises(InvalidSimulatorConfig) as excinfo:
            CartPoleSimulator({"frame_rate": 1.0e-320}, platforms)
        assert [(path, code) for path, code, _ in excinfo.value.errors] == [("config/frame_rate", "TypeMismatch")]
        sim = CartPoleSimulator({"frame_rate": 1.0e-300}, platforms)
        assert math.isfinite(sim.dt)

    def test_divisor_constants_must_be_positive(self):
        # The dynamics divide by the half-length and the total mass, and with
        # both masses positive 4/3 - m_p cos^2(theta) / (m_c + m_p) stays above 1/3.
        platforms = [PlatformConfig("cart", "CartPolePlatform")]
        constants = {"mass_cart": -5.0, "mass_pole": 0.0, "pole_half_length": -0.5, "gravity": -9.8}
        with pytest.raises(InvalidSimulatorConfig) as excinfo:
            CartPoleSimulator({"constants": constants}, platforms)
        assert [(path, code) for path, code, _ in excinfo.value.errors] == [
            (f"config/constants/{key}", "TypeMismatch") for key in ("mass_cart", "mass_pole", "pole_half_length")
        ]

    def test_defaults_match_published_task(self):
        assert DEFAULTS["gravity"] == 9.8
        assert DEFAULTS["mass_cart"] == 1.0
        assert DEFAULTS["mass_pole"] == 0.1
        assert DEFAULTS["pole_half_length"] == 0.5
        assert DEFAULTS["force_mag"] == 10.0

    def test_baseline_failure_bounds_match_published_task(self):
        # The task's failure bounds are dones of the shipped agent, not constants.
        specs = yaml.safe_load((CONFIG_DIR / "cartpole" / "baseline_dones.yml").read_text())
        bounds = {spec["name"]: (spec["config"]["min"], spec["config"]["max"]) for spec in specs}
        assert bounds["CartPositionBounds"] == (-2.4, 2.4)
        low, high = bounds["PoleAngleBounds"]
        assert -low == high == pytest.approx(12.0 * math.pi / 180.0)


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
