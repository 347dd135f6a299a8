"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines even when everything passes).
"""

import itertools
import json
import time

import numpy as np

from envforge.cli import main as cli_main
from envforge.config.validate import validate_environment_file
from envforge.environment import Environment
from envforge.epp import (
    EpisodeParameterProvider,
    Increment,
    ParameterSpec,
    TruncatedGaussian,
    Uniform,
)
from envforge.evaluation import (
    MetricSpec,
    TestCase,
    VizSpec,
    evaluate,
    generate_metrics,
    load_artifacts,
    read_metrics,
    run_pipeline,
    visualize,
    write_metrics,
)
from envforge.functors.base import DoneStatusCode
from envforge.functors.graph import build_graph
from envforge.units import REGISTRY, Quantity

from conftest import CONFIG_DIR, DATA_DIR
from test_functors import cartpole_platform, observe_state_spec, tvd_done_spec
from test_simulators import cartpole_oracle, make_cartpole, make_docking


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}", flush=True)
    assert ok, criterion


def run_scripted(env, seed=0, max_steps=100_000):
    observations = env.reset(seed=seed)
    steps = 0
    while not env.episode_done and steps < max_steps:
        actions = {
            name: agent.policy.compute_action(observations.get(name, {}), agent.action_space())
            for name, agent in env.agents.items()
        }
        result = env.step(actions)
        observations = result.observations
        steps += 1
    return steps, result


def test_docking_dynamics_exactness():
    # 10,000 constant-thrust steps against the closed-form double integrator,
    # every step within 1e-9 absolute, in under a second.
    x0, v0, thrust, mass, n = -10.0, 0.001, 2e-6, 2.0, 10_000
    sim, platform = make_docking({"frame_rate": 1.0, "mass": mass}, x0=x0, v0=v0)
    ctrl = platform.controllers()["Controller_Thrust"]
    a = thrust / mass
    start = time.perf_counter()
    ok = True
    for k in range(1, n + 1):
        ctrl.apply(np.array([thrust]))
        sim.step()
        t = k * sim.dt
        ok = ok and abs(platform.state.x - (x0 + v0 * t + 0.5 * a * t * t)) <= 1e-9
        ok = ok and abs(platform.state.xdot - (v0 + a * t)) <= 1e-9
    elapsed = time.perf_counter() - start
    report(f"docking dynamics: 10k steps analytic within 1e-9 in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_scripted_docking_reaches_win():
    config, rep = validate_environment_file(CONFIG_DIR / "docking" / "environment.yml")
    assert config is not None, str(rep)
    env = Environment(config)
    start = time.perf_counter()
    steps, result = run_scripted(env, seed=0, max_steps=2000)
    elapsed = time.perf_counter() - start
    won = result.done_codes.get("deputy_agent") is DoneStatusCode.WIN
    report(
        f"scripted docking: WIN at step {steps} (<2000) in {elapsed:.3f}s",
        won and steps <= 2000 and elapsed < 5.0,
    )


def test_dag_deduplication():
    # A done wrapping a TargetValueDifference over the named ObserveState glue:
    # the shared glue deduplicates, giving 3 nodes rather than 4.
    glues = [observe_state_spec()]
    dones = [tvd_done_spec("CartBounds", 0, 2.4)]
    graph = build_graph(cartpole_platform(), glues, dones)
    doubled = build_graph(cartpole_platform(), glues + glues, dones + dones)
    report(
        f"functor DAG: {graph.node_count} nodes (not 4); doubled specs still {doubled.node_count}",
        graph.node_count == 3 and doubled.node_count == 3,
    )


def test_unit_round_trips():
    groups = {}
    for unit in REGISTRY.values():
        groups.setdefault(unit.dimension, []).append(unit)
    ok = True
    pairs = 0
    for units in groups.values():
        for a, b in itertools.permutations(units, 2):
            pairs += 1
            back = Quantity.scalar(123.456, a).to(b).to(a).item
            ok = ok and abs(back - 123.456) <= 1e-12 * 123.456
    pct = Quantity.scalar(50.0, REGISTRY["percent"]).to(REGISTRY["fraction"]).item
    ok = ok and abs(pct - 0.5) <= 1e-12
    report(f"units: {pairs} pairwise round trips within 1e-12 relative", ok)


def test_epp_curriculum():
    spec = ParameterSpec(
        "x0", Uniform(0.0, 2.4), updaters=[Increment(target="high", step=0.1, limit=3.0)]
    )
    epp = EpisodeParameterProvider([spec])
    highs = []
    for _ in range(12):
        epp.apply_training_result()
        highs.append(spec.distribution.high)
    curriculum_ok = (
        highs[5] == 3.0
        and all(h < 3.0 for h in highs[:5])
        and all(h == 3.0 for h in highs[5:])
    )

    dist = TruncatedGaussian(mu=1.0, sigma=0.8, low=0.0, high=2.0)
    rng = np.random.default_rng(0)
    samples = np.array([dist.sample(rng) for _ in range(10_000)])
    bounds_ok = bool(np.all(samples >= 0.0) and np.all(samples <= 2.0))
    report(
        "EPP: increment reaches 3.0 after exactly 6 applications and stays "
        "clamped; 10k truncated-Gaussian samples in bounds",
        curriculum_ok and bounds_ok,
    )


def test_validation_corpus():
    expected = json.loads((DATA_DIR / "invalid" / "expected.json").read_text())
    ok = len(expected) >= 10
    for filename, errors in expected.items():
        config, rep = validate_environment_file(DATA_DIR / "invalid" / filename)
        got = [{"code": e.code.value, "path": e.path} for e in rep.errors]
        ok = ok and config is None and got == errors
    _, valid_report = validate_environment_file(CONFIG_DIR / "docking" / "environment.yml")
    ok = ok and str(valid_report) == "0 errors"
    report(
        f"validation: {len(expected)} invalid configs hit expected code+path; "
        "docking config reports 0 errors",
        ok,
    )


def test_step_schedule():
    config, _ = validate_environment_file(CONFIG_DIR / "docking" / "environment_short.yml")
    env = Environment(config)
    observations = env.reset(seed=0, overrides={"deputy.x0": Quantity.scalar(-500.0, REGISTRY["meter"])})
    sums_exact = True
    for _ in range(100):
        actions = {
            name: agent.policy.compute_action(observations.get(name, {}), agent.action_space())
            for name, agent in env.agents.items()
        }
        result = env.step(actions)
        observations = result.observations
        for agent, total in result.rewards.items():
            sums_exact = sums_exact and total == sum(
                result.info["reward_components"][agent].values()
            )
    by_step = {}
    for step, phase in env.trace:
        by_step.setdefault(step, []).append(phase)
    order_ok = len(by_step) >= 100 and all(
        phases.index("dones") < phases.index("rewards") for phases in by_step.values()
    )
    report(
        "step schedule: 100-step trace evaluates dones strictly before rewards; "
        "agent reward equals component sum exactly",
        order_ok and sums_exact,
    )


def test_run_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            [
                "run",
                "--env",
                str(CONFIG_DIR / "docking" / "environment.yml"),
                "--seed",
                "7",
                "--episodes",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = outputs[0] == outputs[1]
    report(
        "determinism: two 'run --seed 7 --episodes 3' invocations produce "
        "identical episode logs",
        identical and "episode_2.csv" in outputs[0],
    )


def test_evaluation_pipeline(tmp_path, capsys):
    config, _ = validate_environment_file(CONFIG_DIR / "docking" / "environment_short.yml")
    cases = [
        TestCase("near_5m", {"deputy.x0": -5.0}, 0),
        TestCase("near_10m", {"deputy.x0": -10.0}, 1),
        TestCase("near_15m", {"deputy.x0": -15.0}, 2),
        TestCase("far_120m", {"deputy.x0": -120.0}, 3),
        TestCase("far_150m", {"deputy.x0": -150.0}, 4),
    ]
    metric_specs = [
        MetricSpec("success_count", "success_count", {}, {}),
        MetricSpec("success_rate", "success_rate", {}, {"count": "success_count"}),
        MetricSpec("episode_length", "episode_length", {}, {}),
    ]
    viz_specs = [VizSpec("table"), VizSpec("html", file="report.html")]

    piped = tmp_path / "piped"
    metrics = run_pipeline(config, cases, metric_specs, viz_specs, piped)
    stdout = capsys.readouterr().out
    rate_ok = metrics["success_rate"].value == 0.6
    table_ok = "success_rate" in stdout and "0.6" in stdout

    html = (piped / "report.html").read_text()
    self_contained = all(
        marker not in html for marker in ("<script", "src=", "href=", "<link", "url(")
    )

    staged = tmp_path / "staged"
    evaluate(config, cases, staged)
    staged_metrics = generate_metrics(load_artifacts(staged), metric_specs)
    write_metrics(staged_metrics, staged / "metrics.json")
    visualize(read_metrics(staged / "metrics.json"), viz_specs, staged)
    capsys.readouterr()
    byte_identical = {p.name: p.read_bytes() for p in staged.iterdir()} == {
        p.name: p.read_bytes() for p in piped.iterdir()
    }
    report(
        "pipeline: 3/5 docking cases solvable, success_rate exactly 0.6 in "
        "stdout table; self-contained HTML; staged run byte-identical",
        rate_ok and table_ok and self_contained and byte_identical,
    )


def test_cartpole_reference():
    sim, platform = make_cartpole()
    for _ in range(100):
        sim.step()
    s = platform.state
    fixed_point = (s.x, s.xdot, s.theta, s.thetadot) == (0.0, 0.0, 0.0, 0.0)

    sim, platform = make_cartpole(theta=0.02)
    ctrl = platform.controllers()["Controller_Force"]
    state = (0.0, 0.0, 0.02, 0.0)
    match = True
    for k in range(100):
        force = 10.0 if k % 2 == 0 else -10.0
        ctrl.apply(np.array([force]))
        sim.step()
        state = cartpole_oracle(state, force, 1)[-1]
        s = platform.state
        match = match and all(
            abs(got - want) <= 1e-9
            for got, want in zip((s.x, s.xdot, s.theta, s.thetadot), state)
        )
    report(
        "cart-pole: zero state is a fixed point; 100-step push sequence matches "
        "the independent oracle within 1e-9",
        fixed_point and match,
    )
