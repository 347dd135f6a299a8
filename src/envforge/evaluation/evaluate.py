"""Evaluate stage: rollouts from a named set of initial conditions.

Each test case overrides EPP distributions with fixed values and is fully
seeded, so N-worker and single-worker runs produce identical artifacts.
``run_episode`` is the one episode loop: ``rollout`` and ``envforge run``
both drive it.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config.schema import EnvironmentConfig
from ..environment import Environment
from ..policies import POLICY_REGISTRY
from ..units import Quantity, UnitError, value_in
from .artifact import EpisodeArtifact, StepRecord, write_atomic

log = logging.getLogger(__name__)


class EvaluationError(Exception):
    pass


class UnknownCaseParameter(EvaluationError):
    def __init__(self, case: str, name: str):
        super().__init__(f"test case '{case}': unknown parameter '{name}'")


class InvalidCaseParameter(EvaluationError):
    def __init__(self, case: str, name: str, reason: str):
        super().__init__(f"test case '{case}': parameter '{name}': {reason}")


@dataclass
class TestCase:
    name: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    __test__ = False  # not a pytest class despite the name


def parse_condition_set(tree) -> list[TestCase]:
    """Parse an initial-condition config tree into ordered test cases."""
    cases = []
    for i, entry in enumerate(tree.get("test_cases", [])):
        cases.append(
            TestCase(
                name=str(entry.get("name", f"case_{i}")),
                parameters=entry.get("parameters", {}),
                seed=int(entry.get("seed", i)),
            )
        )
    return cases


def _case_overrides(env: Environment, case: TestCase) -> dict[str, Quantity]:
    """Fixed, finite per-case values in each declared parameter's unit.

    A bare number takes the declared unit; a ``{value, unit}`` mapping is
    converted to it.
    """
    overrides = {}
    for name, raw in case.parameters.items():
        spec = env.epp.specs.get(name)
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


def rollout(
    config: EnvironmentConfig,
    case: TestCase,
    policy_override: tuple[str, dict] | None = None,
) -> EpisodeArtifact:
    """One fully seeded episode for a test case; unknown case parameters raise."""
    env = Environment(config)
    override_policies(env, policy_override)
    artifact = run_episode(env, case.seed, _case_overrides(env, case))
    artifact.case_id = case.name
    return artifact


def _run_case(args) -> list[str]:
    config, case, policy_override = args
    return rollout(config, case, policy_override).to_lines()


def evaluate(
    config: EnvironmentConfig,
    cases: list[TestCase],
    out_dir: str | Path,
    policy_override: tuple[str, dict] | None = None,
    workers: int = 1,
) -> list[Path]:
    """One artifact file per test case, written under out_dir."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory '{out_dir}' is not writable: {exc}") from exc

    jobs = [(config, case, policy_override) for case in cases]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_lines = list(pool.map(_run_case, jobs))
    else:
        all_lines = [_run_case(job) for job in jobs]

    return [
        write_atomic(out_dir / f"artifact_{case.name}.jsonl", "\n".join(lines) + "\n")
        for case, lines in zip(cases, all_lines)
    ]
