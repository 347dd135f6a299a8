"""Evaluate stage: rollouts from a named set of initial conditions.

Each test case overrides EPP distributions with fixed values and is fully
seeded, and a reused environment acts as a fresh one, so each process runs
all its cases on one environment and N-worker and single-worker runs produce
identical artifacts.  ``run_episode`` is the one episode loop: ``rollout``
and ``envforge run`` both drive it.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config.schema import EnvironmentConfig
from ..config.validate import reference_range_error, referencing_params
from ..environment import Environment, episode_parameters
from ..epp import ParameterSpec
from ..policies import POLICY_REGISTRY
from ..units import Quantity, UnitError, value_in
from .artifact import EpisodeArtifact, StepRecord, artifact_file, write_manifest

log = logging.getLogger(__name__)


class EvaluationError(Exception):
    pass


class UnknownCaseParameter(EvaluationError):
    def __init__(self, case: str, name: str):
        super().__init__(f"test case '{case}': unknown parameter '{name}'")


class InvalidCaseParameter(EvaluationError):
    def __init__(self, case: str, name: str, reason: str):
        super().__init__(f"test case '{case}': parameter '{name}': {reason}")


class InvalidCase(EvaluationError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"test case {index}: {reason}")


@dataclass
class TestCase:
    name: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    __test__ = False  # not a pytest class despite the name


def parse_condition_set(tree) -> list[TestCase]:
    """Parse an initial-condition config tree into ordered test cases.

    Each case names its artifact file, so a name must be unique and may not
    contain a path separator.
    """
    entries = tree.get("test_cases", []) if isinstance(tree, dict) else None
    if not isinstance(entries, list):
        raise EvaluationError("test cases: expected a mapping with a 'test_cases' list")
    cases: list[TestCase] = []
    names: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidCase(i, "expected a mapping")
        name = str(entry.get("name", f"case_{i}"))
        _check_case_name(i, name, names)
        parameters, seed = entry.get("parameters", {}), entry.get("seed", i)
        if not isinstance(parameters, dict):
            raise InvalidCase(i, f"'{name}': parameters must be a mapping")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InvalidCase(i, f"'{name}': seed must be an integer")
        cases.append(TestCase(name=name, parameters=parameters, seed=seed))
    return cases


def _check_case_name(index: int, name: str, names: set[str]) -> None:
    """Each case names its artifact file: ``name`` must be new to ``names``
    (the earlier cases' names, to which it is added) and hold no path separator."""
    if any(sep in name for sep in ("/", "\\", "\0")):
        raise InvalidCase(index, f"name '{name}' contains a path separator")
    if name in names:
        raise InvalidCase(index, f"another case is already named '{name}'")
    names.add(name)


def _case_overrides(specs: Mapping[str, ParameterSpec], case: TestCase) -> dict[str, Quantity]:
    """Fixed, finite per-case values in each declared parameter's unit.

    ``specs`` are the episode parameters by name.  A bare number takes the
    declared unit; a ``{value, unit}`` mapping is converted to it.
    """
    overrides = {}
    for name, raw in case.parameters.items():
        spec = specs.get(name)
        if spec is None:
            raise UnknownCaseParameter(case.name, name)
        try:
            value = value_in(raw, spec.unit)
        except (TypeError, ValueError, UnitError) as exc:
            raise InvalidCaseParameter(case.name, name, str(exc)) from exc
        if not math.isfinite(value):
            raise InvalidCaseParameter(case.name, name, f"value {value} is not finite")
        overrides[name] = Quantity.scalar(value, spec.unit)
    return overrides


def override_policies(env: Environment, override: tuple[str, dict] | None) -> None:
    """Give every agent one shared instance of the named policy, as PolicyPool shares one declaration."""
    if override is None:
        return
    name, pconfig = override
    policy = POLICY_REGISTRY[name](pconfig)
    for agent in env.agents.values():
        agent.policy = policy


def run_episode(
    env: Environment, seed: int, overrides: dict[str, Quantity] | None = None
) -> EpisodeArtifact:
    """Run one seeded episode on env and record every step.

    A failure inside the episode is recorded in the artifact's ``error``,
    after the steps that completed; the caller decides whether it is fatal.
    """
    artifact = EpisodeArtifact(case_id="", seed=seed, parameters={})
    try:
        observations = env.reset(seed=seed, overrides=overrides)
        artifact.parameters = {
            k: {"value": q.item, "unit": q.unit.name}
            for k, q in env.epp.current_sample.values.items()
        }
        while not env.episode_done:
            actions = {
                name: agent.policy.compute_action(
                    observations.get(name, {}), agent.action_space()
                )
                for name, agent in env.agents.items()
            }
            result = env.step(actions)
            artifact.steps.append(
                StepRecord(
                    step=env.state.step_count,
                    sim_time=env.state.sim_time,
                    observations={
                        agent: {
                            key: {"values": q.values.tolist(), "unit": q.unit.name}
                            for key, q in obs.items()
                        }
                        for agent, obs in result.observations.items()
                    },
                    actions={
                        # each fragment as step() reads it: a bare number is one element
                        agent: {
                            glue: np.atleast_1d(np.asarray(frag, dtype=float)).tolist()
                            for glue, frag in acts.items()
                        }
                        for agent, acts in actions.items()
                    },
                    rewards=result.info["reward_components"],
                    reward_totals=result.rewards,
                    done_codes={
                        agent: (code.value if code else None)
                        for agent, code in result.done_codes.items()
                    },
                    platform_states={
                        pname: {k: float(v) for k, v in vars(p.state).items()}
                        for pname, p in env.simulator.platforms.items()
                    },
                )
            )
            observations = result.observations
        artifact.final_outcome = {
            name: (code.value if code else None)
            for name, code in env.agent_done_codes.items()
        }
        artifact.truncated = result.truncated
    except Exception as exc:
        log.debug("episode with seed %d failed", seed, exc_info=True)
        artifact.error = f"{type(exc).__name__}: {exc}"
    return artifact


def rollout(env: Environment, case: TestCase) -> EpisodeArtifact:
    """One fully seeded episode for a test case on env; unknown case parameters raise."""
    artifact = run_episode(env, case.seed, _case_overrides(env.epp.specs, case))
    artifact.case_id = case.name
    return artifact


def _environment(config: EnvironmentConfig, policy_override: tuple[str, dict] | None) -> Environment:
    env = Environment(config)
    override_policies(env, policy_override)
    return env


#: the pool worker's environment, built once by ``_init_worker``
_worker_env: Environment | None = None


def _init_worker(config: EnvironmentConfig, policy_override: tuple[str, dict] | None) -> None:
    global _worker_env
    _worker_env = _environment(config, policy_override)


def _worker_rollout(case: TestCase) -> EpisodeArtifact:
    return rollout(_worker_env, case)


def evaluate(
    config: EnvironmentConfig,
    cases: list[TestCase],
    out_dir: str | Path,
    policy_override: tuple[str, dict] | None = None,
    workers: int = 1,
) -> list[EpisodeArtifact]:
    """Roll out every case and write one artifact file per case, then the manifest.

    Every case's name and parameters are checked before the first rollout, as
    ``parse_condition_set`` and ``rollout`` check them, and so is each value
    given to a reference-store key against the range of every functor param
    that references the key, as ``reset`` checks it.  Each process builds
    one environment and runs its cases on it.  Returns the artifacts in case
    order.
    """
    names: set[str] = set()
    specs = episode_parameters(config).specs
    referencing = referencing_params(config)
    for i, case in enumerate(cases):
        _check_case_name(i, case.name, names)
        for name, value in _case_overrides(specs, case).items():
            reason = reference_range_error(referencing.get(name, ()), value)
            if reason is not None:
                raise InvalidCaseParameter(case.name, name, reason)

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory '{out_dir}' is not writable: {exc}") from exc

    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config, policy_override)
        ) as pool:
            artifacts = list(pool.map(_worker_rollout, cases))
    else:
        env = _environment(config, policy_override)
        artifacts = [rollout(env, case) for case in cases]

    for artifact in artifacts:
        artifact.save(out_dir / artifact_file(artifact.case_id))
    write_manifest(out_dir, [case.name for case in cases])
    return artifacts
