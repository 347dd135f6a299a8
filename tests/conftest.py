import json
from itertools import groupby
from pathlib import Path

import pytest

from envforge.config.validate import validate_environment_file
from envforge.functors.base import Reward
from envforge.functors.builtins import ControllerGlue, ObserveSensor
from envforge.functors.graph import FUNCTOR_REGISTRY
from envforge.simulators.base import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def recorded_steps(artifact) -> list[dict]:
    """An artifact's step records, as ``json`` reads its lines."""
    return [json.loads(line) for line in artifact.to_lines()[1:-1]]


def load_env_config(path):
    config, report = validate_environment_file(path)
    assert config is not None, f"{path} failed validation:\n{report}"
    return config


def spy_calls(policy) -> list[tuple]:
    """Wrap one policy instance's ``compute_action``: each call appends its
    arguments to the returned list."""
    calls: list[tuple] = []
    compute_action = policy.compute_action

    def spying(*args):
        calls.append(args)
        return compute_action(*args)

    policy.compute_action = spying
    return calls


#: the phases of a step, in the order the schedule runs them
PHASES = ["apply_action", "sim_step", "observe", "dones", "rewards"]


def record_schedule(monkeypatch) -> list[str]:
    """Wrap, on their classes, the calls that make up each phase of a step:
    ``ControllerGlue.apply_action``, ``Simulator.step``,
    ``ObserveSensor.get_observation`` and every registered done's and
    reward's ``evaluate``.  An environment built afterwards binds the
    wrappers, and each call appends its phase to the returned list."""
    calls: list[str] = []

    def wrap(cls, method: str, phase: str) -> None:
        original = vars(cls)[method]

        def recording(*args, **kwargs):
            calls.append(phase)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, recording)

    wrap(ControllerGlue, "apply_action", "apply_action")
    wrap(Simulator, "step", "sim_step")
    wrap(ObserveSensor, "get_observation", "observe")
    for cls in FUNCTOR_REGISTRY.values():
        if "evaluate" in vars(cls):
            wrap(cls, "evaluate", "rewards" if issubclass(cls, Reward) else "dones")
    return calls


def phases(calls: list[str]) -> list[str]:
    """The phases of ``calls``, each run of calls of one phase counted once."""
    return [phase for phase, _ in groupby(calls)]


@pytest.fixture(scope="session")
def docking_env_path():
    return CONFIG_DIR / "docking" / "environment.yml"


@pytest.fixture(scope="session")
def docking_short_env_path():
    return CONFIG_DIR / "docking" / "environment_short.yml"


@pytest.fixture(scope="session")
def cartpole_env_path():
    return CONFIG_DIR / "cartpole" / "environment.yml"


@pytest.fixture()
def docking_config(docking_env_path):
    return load_env_config(docking_env_path)


@pytest.fixture()
def docking_short_config(docking_short_env_path):
    return load_env_config(docking_short_env_path)


@pytest.fixture()
def cartpole_config(cartpole_env_path):
    return load_env_config(cartpole_env_path)
