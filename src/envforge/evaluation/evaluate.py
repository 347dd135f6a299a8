"""Evaluate stage: rollouts from a named set of initial conditions.

Each test case overrides EPP distributions with fixed values and is fully
seeded, and a reused environment acts as a fresh one, so each process runs
all its cases on one environment and N-worker and single-worker runs produce
identical artifacts.  ``run_episode`` is the one episode loop: ``rollout``
and ``envforge run`` both drive it.  It records each step as a row, its
values gathered in the order of the step's ``StepShape``, under the layout
compiled from that shape (see ``artifact``).
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from weakref import WeakKeyDictionary

from ..config.schema import EnvironmentConfig
from ..environment import Environment, StepResult, episode_parameters
from ..epp import InvalidOverride
from ..epp import ParameterSpec
from ..functors.base import DoneStatusCode
from ..params import PARSE_ERRORS, Param, finite, mapping, nonnegative_int, parse_entries, string, value_in
from ..units import Quantity, UnitError, as_vector
from .artifact import EpisodeArtifact, RecordLayout, Row, StepShape, artifact_file, case_name, write_manifest

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


#: the keys of a test case; ``name`` defaults to ``case_<index>``, and
#: ``seed``, an integer of zero or more, to the index
CASE = (Param("name", string, None), Param("parameters", mapping, {}), Param("seed", nonnegative_int, None))


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
    for i, settings in enumerate(parse_entries(entries, CASE, InvalidCase)):
        name = f"case_{i}" if settings["name"] is None else settings["name"]
        _check_case_name(i, name, names)
        seed = i if settings["seed"] is None else settings["seed"]
        cases.append(TestCase(name=name, parameters=settings["parameters"], seed=seed))
    return cases


def _check_case_name(index: int, name: str, names: set[str]) -> None:
    """Each case names its artifact file: ``name`` must be a ``case_name``
    new to ``names`` (the earlier cases' names, to which it is added)."""
    try:
        case_name(name)
    except PARSE_ERRORS as exc:
        raise InvalidCase(index, str(exc)) from exc
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
            value = finite(value_in(raw, spec.unit))
        except (*PARSE_ERRORS, UnitError) as exc:
            raise InvalidCaseParameter(case.name, name, str(exc)) from exc
        overrides[name] = Quantity.scalar(value, spec.unit)
    return overrides


#: a done code as a row's text slot holds it
_CODE_TEXT = {None: "null", **{code: json.dumps(code.value) for code in DoneStatusCode}}


class _RowPlan:
    """Reads the steps of one structure into rows of its one layout.

    The structure is the active agents and each agent's fragment names:
    ``run_episode`` files a plan under them and keeps using it while
    ``fits`` holds and no agent has ended.  With what the environment fixes
    at build, the platforms among it, they fix the step's shape, its arrays'
    lengths included: ``step`` refuses a fragment, and a glue an
    observation, that is not of its box's shape.  A ``projection`` of the
    shape leaves sections out, and the plan reads only the sections it keeps.
    """

    def __init__(self, env: Environment, actions: dict, result: StepResult, projection):
        platforms = env.simulator.platforms
        shape = StepShape(
            actions=tuple((agent, tuple(sorted(fragments))) for agent, fragments in sorted(actions.items())),
            done_codes=tuple(sorted(result.done_codes)),
            observations=tuple(
                (agent, tuple((name, env.agents[agent].observation_space()[name].unit.name) for name in sorted(obs)))
                for agent, obs in sorted(result.observations.items())
            ),
            platform_states=tuple((name, tuple(sorted(vars(platforms[name].state)))) for name in sorted(platforms)),
            rewards=tuple((agent, tuple(sorted(c))) for agent, c in sorted(result.reward_components.items())),
        )
        shape = shape if projection is None else projection(shape)
        self._actions = shape.actions or ()
        self._observations = [(agent, name) for agent, names in shape.observations or () for name, _ in names]
        self._platform_states = shape.platform_states or ()
        #: (agent, its fragment names) of each agent whose action the plan reads
        self.fragments = [(agent, frozenset(glues)) for agent, glues in self._actions]
        agents = env.agents
        lengths = [agents[agent].action_space()[glue].shape for agent, glues in self._actions for glue in glues]
        lengths += [agents[agent].observation_space()[name].shape for agent, name in self._observations]
        self.layout = RecordLayout.of(shape._replace(lengths=tuple(lengths)))

    def fits(self, actions: dict) -> bool:
        """Whether a step of the plan's active agents, with ``actions``, has
        the fragments the plan reads."""
        for agent, names in self.fragments:
            if actions[agent].keys() != names:
                return False
        return True

    def row(self, env: Environment, actions: dict, result: StepResult) -> Row:
        # plain loops that append: a step gathers a few values, so a
        # comprehension, a map or an attrgetter costs more than it saves
        shape = self.layout.shape
        values: list = []
        for agent, glues in self._actions:
            fragments = actions[agent]
            for glue in glues:
                values += as_vector(fragments[glue]).tolist()  # as step() reads it: a bare number is one element
        codes = result.done_codes
        for agent in shape.done_codes:
            values.append(_CODE_TEXT[codes[agent]])
        observations = result.observations
        for agent, name in self._observations:
            values += as_vector(observations[agent][name]).tolist()  # as a Quantity would hold the glue's array
        platforms = env.simulator.platforms
        for name, attributes in self._platform_states:
            state = platforms[name].state
            for attribute in attributes:
                values.append(float(getattr(state, attribute)))
        totals = result.rewards
        for agent, _ in shape.rewards:
            values.append(totals[agent])
        components = result.reward_components
        for agent, names in shape.rewards:
            agent_components = components[agent]
            for name in names:
                values.append(agent_components[name])
        state = env.state
        values.append(float(state.sim_time))
        values.append(state.step_count)
        return self.layout, tuple(values)


#: each environment's row plans, by the structure ``run_episode`` selects a
#: plan for: a plan holds for every episode of the environment it was made on
_row_plans: WeakKeyDictionary[Environment, dict[tuple, _RowPlan]] = WeakKeyDictionary()


def run_episode(
    env: Environment, seed: int, overrides: dict[str, Quantity] | None = None, projection: Callable | None = None
) -> EpisodeArtifact:
    """Run one seeded episode on env and record every step as a row.

    Each step asks the policy of every agent that has not ended for its
    action; an agent that has ended records no action.  A ``projection`` of
    the shape (``StepShape.csv_projection``) records only what a caller writes.
    A failure inside the episode is recorded in the artifact's ``error``,
    after the steps that completed; the caller decides whether it is fatal.
    """
    artifact = EpisodeArtifact(case_id="", seed=seed, parameters={})
    plans = _row_plans.setdefault(env, {})
    try:
        observations = env.reset(seed=seed, overrides=overrides)
        artifact.parameters = {
            k: {"value": q.item, "unit": q.unit.name}
            for k, q in env.epp.current_sample.items()
        }
        rows = artifact.rows
        agents = env.agents
        active = list(agents)  # the agents that have not ended: only they act
        plan = None  # the plan of the previous step, while its agents are the active ones
        while not env.episode_done:
            actions = {
                name: agents[name].policy.compute_action(observations[name], agents[name].action_space())
                for name in active
            }
            result = env.step(actions)
            if plan is None or not plan.fits(actions):
                key = (projection, tuple(result.done_codes), tuple(map(tuple, actions.values())))
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = _RowPlan(env, actions, result, projection)
            rows.append(plan.row(env, actions, result))
            active = [name for name, code in result.done_codes.items() if code is None]
            if len(active) < len(result.done_codes):  # an agent ended: the next step's agents differ
                plan = None
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


#: the pool worker's environment, built once by ``_init_worker``
_worker_env: Environment | None = None


def _init_worker(config: EnvironmentConfig) -> None:
    global _worker_env
    _worker_env = Environment(config)


def _worker_rollout(case: TestCase) -> EpisodeArtifact:
    return rollout(_worker_env, case)


def evaluate(
    config: EnvironmentConfig,
    cases: list[TestCase],
    out_dir: str | Path,
    workers: int = 1,
) -> list[EpisodeArtifact]:
    """Roll out every case and write one artifact file per case, then the manifest.

    Every case's name, seed and parameters are checked before the first
    rollout, as ``parse_condition_set``, ``rollout`` and ``reset`` check
    them: each value must pass every reader of its parameter (a functor's
    reference, a simulator's initialization value).  A config the build
    refuses before that (an unknown simulator, say) raises here too.
    Each process builds one environment and runs its cases on it.  Returns
    the artifacts in case order.  ``workers`` must be at least 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    names: set[str] = set()
    epp = episode_parameters(config)[0]
    for i, case in enumerate(cases):
        _check_case_name(i, case.name, names)
        try:
            nonnegative_int(case.seed)
        except PARSE_ERRORS as exc:
            raise InvalidCase(i, f"seed: {exc}") from exc
        for name, value in _case_overrides(epp.specs, case).items():
            try:
                epp.override(name, value)
            except InvalidOverride as exc:
                raise InvalidCaseParameter(case.name, name, exc.reason) from exc

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory '{out_dir}' is not writable: {exc}") from exc

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only by a run that uses it

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(config,)
        ) as pool:
            artifacts = list(pool.map(_worker_rollout, cases))
    else:
        env = Environment(config)
        artifacts = [rollout(env, case) for case in cases]

    for artifact in artifacts:
        artifact.save(out_dir / artifact_file(artifact.case_id))
    write_manifest(out_dir, [case.name for case in cases])
    return artifacts
