"""The benchmark's four workloads.

Each workload is a closed loop: one caller waits for every step or case to
finish before it sends the next.  Work is done in blocks; a block's inputs
are drawn from the workload's seeded generator, the block is timed, and its
outputs are checked before the next block starts.  Checks and input
generation are outside the timed part of a block.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from envforge import cli
from envforge.config.validate import validate_environment_file
from envforge.environment import Environment
from envforge.units import Quantity, get_unit

# Initial deputy positions, metres.  Every start in this range docks within
# the 2000 step horizon of configs/docking/environment.yml.
X0_LOW, X0_HIGH = -150.0, -5.0


@dataclass
class Block:
    steps: int  # environment steps recorded by the block
    seconds: float  # timed wall time
    attempted: int  # episodes or cases
    failed: int
    out_bytes: int
    errors: list[str] = field(default_factory=list)


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, float, str]:
    """cli.main(argv) with its console output captured: (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue().strip()


class Workload:
    name = ""
    why = ""
    env_config = ""  # environment config, relative to the repository root
    operations = ""  # what one attempted operation is, plural

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.blocks_run = 0
        self.inputs_sha256 = ""  # of the first block's generated inputs
        self.outputs_sha256 = ""  # of the first block's outputs

    def path(self, relative: str) -> str:
        return str(self.root / relative)

    def block(self) -> Block:
        raise NotImplementedError

    def finish(self) -> Block | None:
        """Checks that need the whole run; runs untimed after the last block."""
        return None


class DockingSteps(Workload):
    name = "docking_steps"
    why = ("in-process reset/compute_action/step loop of an RL trainer, no file output: "
           "isolates the step schedule (functors, parts, simulator, policy, units)")
    env_config = "configs/docking/environment.yml"
    operations = "episodes"
    episodes_per_block = 16

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.config, report = validate_environment_file(self.path(self.env_config))
        if self.config is None:
            raise RuntimeError(str(report))
        self.meter = get_unit("meter")
        self.episodes = 0

    def block(self) -> Block:
        # A fresh environment per block: Environment keeps every step's log
        # row for its lifetime, so one per run would make peak memory grow
        # with the speed of the code under test.
        env = Environment(self.config)
        x0s = self.rng.uniform(X0_LOW, X0_HIGH, size=self.episodes_per_block).tolist()
        block = Block(0, 0.0, 0, 0, 0)
        records = []
        for x0 in x0s:
            seed = self.episodes
            self.episodes += 1
            block.attempted += 1
            try:
                t0 = time.perf_counter()
                observations = env.reset(seed=seed, overrides={"deputy.x0": Quantity.scalar(x0, self.meter)})
                for agent in env.agents.values():
                    agent.policy.reseed(seed)
                while not env.episode_done:
                    actions = {
                        name: agent.policy.compute_action(observations.get(name, {}), agent.action_space())
                        for name, agent in env.agents.items()
                    }
                    observations = env.step(actions).observations
                block.seconds += time.perf_counter() - t0
            except Exception as exc:  # counted as a failed episode; the run goes on
                block.failed += 1
                block.errors.append(f"episode {seed}: {type(exc).__name__}: {exc}")
                continue
            steps = env.state.step_count
            block.steps += steps
            deputy = env.simulator.platforms["deputy"].state
            codes = {n: (c.value if c else None) for n, c in env.agent_done_codes.items()}
            radius = env.epp.reference_lookup("dock_radius").item
            v_max = env.epp.reference_lookup("v_max").item
            records.append(f"{x0!r} {steps} {deputy.x!r} {deputy.xdot!r} {codes}\n")
            if set(codes.values()) != {"WIN"} or abs(deputy.x) > radius or abs(deputy.xdot) > v_max:
                block.failed += 1
                block.errors.append(f"episode {seed} (x0={x0}): ended {codes} at x={deputy.x}, xdot={deputy.xdot}")
        if self.blocks_run == 0:
            self.inputs_sha256 = _sha256(f"{x0!r}\n" for x0 in x0s)
            self.outputs_sha256 = _sha256(records)
        self.blocks_run += 1
        return block


class CartpoleRun(Workload):
    name = "cartpole_run"
    why = ("envforge run with the random policy: short episodes, so reset and EPP sampling "
           "weigh more, a deeper done DAG, and CSV episode logs written")
    env_config = "configs/cartpole/environment.yml"
    operations = "episodes"
    episodes_per_block = 50

    def block(self) -> Block:
        run_seed = int(self.rng.integers(0, 2**31 - 1))
        out = self.workdir / "run"
        argv = ["--log-level", "WARNING", "run", "--env", self.path(self.env_config),
                "--seed", str(run_seed), "--episodes", str(self.episodes_per_block), "--out", str(out)]
        code, seconds, stderr = _cli(argv)
        block = Block(0, seconds, self.episodes_per_block, 0, 0)
        files = []
        if code != 0:
            block.failed = block.attempted
            block.errors.append(f"envforge run --seed {run_seed} exited {code}: {stderr}")
        else:
            for i in range(self.episodes_per_block):
                path = out / f"episode_{i}.csv"
                files.append(path)
                steps, problem = self._check_episode(path)
                block.steps += steps
                if problem:
                    block.failed += 1
                    block.errors.append(f"run seed {run_seed}, {path.name}: {problem}")
            files.append(out / "run_config.json")
            try:
                json.loads((out / "run_config.json").read_text())
            except (OSError, ValueError) as exc:
                block.failed += 1
                block.errors.append(f"run seed {run_seed}: run_config.json unreadable: {exc}")
        existing = [p for p in files if p.is_file()]
        block.out_bytes = sum(p.stat().st_size for p in existing)
        if self.blocks_run == 0:
            self.inputs_sha256 = _sha256([f"seed {run_seed} episodes {self.episodes_per_block}"])
            self.outputs_sha256 = _sha256(p.read_bytes() for p in existing)
        shutil.rmtree(out, ignore_errors=True)
        self.blocks_run += 1
        return block

    @staticmethod
    def _check_episode(path: Path) -> tuple[int, str | None]:
        """(rows, problem): one row per step, and a done code on the last row only."""
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return 0, f"unreadable: {exc}"
        if not rows:
            return 0, "no rows"
        if [int(r["step"]) for r in rows] != list(range(1, len(rows) + 1)):
            return len(rows), "step column is not 1..n"
        code_columns = [k for k in rows[0] if k.endswith(".done_code")]
        if not code_columns:
            return len(rows), "no done_code column"
        for i, row in enumerate(rows):
            has_code = any(row[k] for k in code_columns)
            if has_code != (i == len(rows) - 1):
                return len(rows), f"row {i + 1} of {len(rows)} {'has' if has_code else 'lacks'} a done code"
        return len(rows), None


class DockingPipeline(Workload):
    name = "docking_pipeline"
    why = ("envforge pipeline over generated docking cases: rollout capture, to_lines, "
           "artifact writes and reads, metrics and the HTML report")
    env_config = "configs/docking/environment_short.yml"
    operations = "cases"
    cases_per_block = 16
    workers = 1

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.first_cases: Path | None = None
        self.first_artifacts: dict[str, bytes] = {}

    def _argv(self, cases: Path, out: Path) -> list[str]:
        argv = ["--log-level", "WARNING", "pipeline", "--env", self.path(self.env_config),
                "--cases", str(cases), "--metrics", self.path("configs/docking/metrics.yml"),
                "--viz", self.path("configs/docking/viz.yml"), "--out", str(out)]
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        return argv

    def block(self) -> Block:
        x0s = self.rng.uniform(X0_LOW, X0_HIGH, size=self.cases_per_block).tolist()
        names = [f"case_{self.blocks_run:04d}_{i:02d}" for i in range(len(x0s))]
        tree = {"test_cases": [
            {"name": name, "parameters": {"deputy.x0": x0}, "seed": i}
            for i, (name, x0) in enumerate(zip(names, x0s))
        ]}
        cases = self.workdir / ("cases_first.yml" if self.blocks_run == 0 else "cases.yml")
        cases.write_text(yaml.safe_dump(tree, sort_keys=False))
        out = self.workdir / "pipeline"

        code, seconds, stderr = _cli(self._argv(cases, out))
        block = Block(0, seconds, len(names), 0, 0)
        if code != 0:
            block.failed = block.attempted
            block.errors.append(f"pipeline on {cases.name} exited {code}: {stderr}")
        artifacts = {}
        for name in names:
            path = out / f"artifact_{name}.jsonl"
            if path.is_file():
                artifacts[name] = path.read_bytes()
        block.out_bytes = sum(len(data) for data in artifacts.values())
        if code == 0:
            self._check(names, artifacts, out, block)
        if self.blocks_run == 0:
            self.first_cases = cases
            self.first_artifacts = artifacts
            self.inputs_sha256 = _sha256([cases.read_bytes()])
            metrics = out / "metrics.json"
            self.outputs_sha256 = _sha256(
                [artifacts[n] for n in names if n in artifacts]
                + ([metrics.read_bytes()] if metrics.is_file() else [])
            )
        shutil.rmtree(out, ignore_errors=True)
        self.blocks_run += 1
        return block

    @staticmethod
    def _check(names, artifacts, out: Path, block: Block) -> None:
        """Outcome record present, no error, and metrics.json agreeing with the artifacts."""
        wins = 0
        lengths = {}
        for name in names:
            data = artifacts.get(name)
            if data is None:
                block.failed += 1
                block.errors.append(f"{name}: no artifact")
                continue
            records = [json.loads(line) for line in data.splitlines() if line.strip()]
            steps = [r for r in records[1:] if r.get("record") == "step"]
            outcome = records[-1] if records else {}
            if (
                len(records) < 2
                or records[0].get("record") != "header"
                or records[0].get("case_id") != name
                or outcome.get("record") != "outcome"
                or outcome.get("error") is not None
                or not outcome.get("final_outcome")
                or len(steps) != len(records) - 2
                or [r["step"] for r in steps] != list(range(1, len(steps) + 1))
            ):
                block.failed += 1
                block.errors.append(f"{name}: malformed artifact or error {outcome.get('error')!r}")
                continue
            block.steps += len(steps)
            lengths[name] = len(steps)
            wins += set(outcome["final_outcome"].values()) == {"WIN"}
        try:
            metrics = json.loads((out / "metrics.json").read_text())
            agree = (
                metrics["success_count"]["value"] == wins
                and metrics["episode_length"]["value"] == lengths
            )
        except (OSError, ValueError, KeyError) as exc:
            agree = False
            block.errors.append(f"metrics.json unreadable: {exc}")
        if not agree:
            block.failed = block.attempted
            block.errors.append(f"metrics.json disagrees with the artifacts ({wins} wins, {len(lengths)} cases)")


class DockingPipelineW2(DockingPipeline):
    name = "docking_pipeline_w2"
    why = ("docking_pipeline's inputs with --workers 2: measures the process-pool path of "
           "evaluate (config pickling per job, result transfer)")
    workers = 2

    def finish(self) -> Block | None:
        """The first block's artifacts must equal a serial evaluate of the same cases."""
        if self.first_cases is None:
            return None
        out = self.workdir / "serial"
        argv = ["--log-level", "WARNING", "evaluate", "--env", self.path(self.env_config),
                "--cases", str(self.first_cases), "--out", str(out)]
        code, _, stderr = _cli(argv)
        check = Block(0, 0.0, 0, 0, 0)
        if code != 0:
            check.failed = 1
            check.errors.append(f"serial evaluate exited {code}: {stderr}")
        else:
            for name, data in self.first_artifacts.items():
                if (out / f"artifact_{name}.jsonl").read_bytes() != data:
                    check.failed += 1
                    check.errors.append(f"{name}: --workers 2 artifact differs from the serial one")
        shutil.rmtree(out, ignore_errors=True)
        return check


WORKLOADS = {w.name: w for w in (DockingSteps, CartpoleRun, DockingPipeline, DockingPipelineW2)}
