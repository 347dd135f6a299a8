"""Command line interface: validate, run, evaluate, metrics, visualize, pipeline.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
The ENVFORGE_LOG environment variable overrides --log-level when set.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import PolicyConfig, loader
from .config.validate import validate_environment_file
from .environment import Environment
from .evaluation import (
    METRICS_FILE,
    StepShape,
    artifact_file,
    evaluate,
    generate_metrics,
    load_artifacts,
    parse_condition_set,
    parse_metric_config,
    parse_viz_config,
    read_metrics,
    run_pipeline,
    visualize,
    write_metrics,
)
from .evaluation.evaluate import run_episode
from .policies import POLICY_REGISTRY, SCRIPTED_RULES

log = logging.getLogger("envforge")


class UsageError(Exception):
    pass


class EpisodeFailed(Exception):
    def __init__(self, index: int, seed: int, error: str):
        super().__init__(f"episode {index} (seed {seed}): {error}")


def _count(text: str) -> int:
    """An integer of 1 or more; argparse reports any other as a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_policy(value: str | None) -> tuple[str, dict] | None:
    """Resolve a --policy value to (registry name, config).

    Accepts a policy name ('random') or a scripted rule name
    ('bang_bang_docking'), which implies the scripted policy.
    """
    if value is None:
        return None
    if value in POLICY_REGISTRY:
        return (value, {})
    if value in SCRIPTED_RULES:
        return ("scripted", {"rule": value})
    raise UsageError(
        f"unknown policy '{value}' (policies: {sorted(POLICY_REGISTRY)}, "
        f"scripted rules: {sorted(SCRIPTED_RULES)})"
    )


def _require_config(args):
    """The validated config, each agent's policy replaced by a ``--policy``
    given: one declaration, so ``PolicyPool`` shares one instance between
    the agents, and ``run_config.json`` records it."""
    config, report = validate_environment_file(args.env, args.agent or ())
    if config is None:
        print(report)
        raise SystemExit(1)
    override = _parse_policy(args.policy)
    if override is not None:
        for agent in config.agents:
            agent.policy = PolicyConfig(*override)
    return config


# Subcommands -----------------------------------------------------------------


def cmd_validate(args) -> int:
    config, report = validate_environment_file(args.env, args.agent or ())
    print(report)
    return 0 if config is not None else 1


def cmd_run(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed: expected an integer >= 0, got {args.seed}")
    config = _require_config(args)
    env = Environment(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.episodes):
        episode_seed = args.seed + i
        artifact = run_episode(env, episode_seed, projection=StepShape.csv_projection)  # what the CSV holds
        if artifact.error is not None:
            raise EpisodeFailed(i, episode_seed, artifact.error)
        log.info("episode %d: %d steps, outcomes %s", i, len(artifact.rows), artifact.final_outcome)
        print(artifact.write_csv(out / f"episode_{i}.csv"))
    config_path = out / "run_config.json"
    config_path.write_text(json.dumps(env.run_config(), indent=2, sort_keys=True))
    print(config_path)
    return 0


def cmd_evaluate(args) -> int:
    config = _require_config(args)
    cases = parse_condition_set(loader.load_config(args.cases))
    evaluate(
        config,
        cases,
        args.out,
        workers=args.workers,
    )
    for case in cases:
        print(Path(args.out) / artifact_file(case.name))
    return 0


def cmd_metrics(args) -> int:
    specs = parse_metric_config(loader.load_config(args.metrics))
    metrics = generate_metrics(load_artifacts(args.out), specs)
    path = write_metrics(metrics, Path(args.out) / METRICS_FILE)
    print(path)
    return 0


def cmd_visualize(args) -> int:
    metrics = read_metrics(Path(args.out) / METRICS_FILE)
    specs = parse_viz_config(loader.load_config(args.viz))
    for path in visualize(metrics, specs, args.out):
        print(path)
    return 0


def cmd_pipeline(args) -> int:
    config = _require_config(args)
    cases = parse_condition_set(loader.load_config(args.cases))
    metric_specs = parse_metric_config(loader.load_config(args.metrics))
    viz_specs = parse_viz_config(loader.load_config(args.viz))
    run_pipeline(
        config,
        cases,
        metric_specs,
        viz_specs,
        args.out,
        workers=args.workers,
    )
    return 0


# Parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envforge",
        description="Composable, configuration-driven multi-agent environments.",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="logging verbosity (ENVFORGE_LOG overrides this)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env(p):
        p.add_argument("--env", required=True, help="environment config file")
        p.add_argument(
            "--agent",
            action="append",
            help="agent config file; repeatable, replaces the agents list",
        )

    p = sub.add_parser("validate", help="validate configs and report every error")
    add_env(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run seeded episodes and write episode logs")
    add_env(p)
    p.add_argument("--policy", help="override every agent's policy")
    p.add_argument("--episodes", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("evaluate", help="roll out a set of test cases to artifacts")
    add_env(p)
    p.add_argument("--cases", required=True, help="initial-condition set file")
    p.add_argument("--policy", help="override every agent's policy")
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("metrics", help="compute metrics over stored artifacts")
    p.add_argument("--metrics", required=True, help="metric config file")
    p.add_argument("--out", default="out", help="directory holding the artifacts")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("visualize", help="render stored metrics to stdout and HTML")
    p.add_argument("--viz", required=True, help="visualization config file")
    p.add_argument("--out", default="out", help="directory holding metrics.json")
    p.set_defaults(fn=cmd_visualize)

    p = sub.add_parser("pipeline", help="evaluate, metrics, and visualize in series")
    add_env(p)
    p.add_argument("--cases", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--viz", required=True)
    p.add_argument("--policy", help="override every agent's policy")
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = os.environ.get("ENVFORGE_LOG", args.log_level).upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), force=True)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:
        log.debug("traceback", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
