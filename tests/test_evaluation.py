import concurrent.futures
import importlib
import json
import os
import re
from dataclasses import replace

import pytest

from envforge.config.loader import load_config
from envforge.config.validate import validate_environment_file
from envforge.evaluation import (
    MANIFEST,
    ArtifactError,
    EpisodeArtifact,
    EvaluationError,
    InvalidCase,
    InvalidCaseParameter,
    InvalidMetricEntry,
    InvalidVizEntry,
    KindMismatch,
    MetricCycle,
    MetricError,
    MissingArtifact,
    MetricSpec,
    MetricValue,
    TestCase,
    UnknownCaseParameter,
    UnknownMetric,
    UnknownMetricInput,
    VizSpec,
    artifact_file,
    evaluate,
    generate_metrics,
    load_artifacts,
    parse_condition_set,
    parse_metric_config,
    parse_viz_config,
    read_metrics,
    render_html,
    render_table,
    rollout,
    run_pipeline,
    visualize,
    write_metrics,
)
from envforge.config.validate import validate_environment
from envforge.evaluation.artifact import TruncatedArtifact, write_manifest
from envforge.evaluation.evaluate import _case_overrides, run_episode
from envforge.environment import Environment
from envforge.params import ConfigError
from envforge.policies import Policy
from envforge.units import METER, Quantity

from conftest import CONFIG_DIR, recorded_steps
from test_environment import bounded_tvd_glue, docking_tree

# the module, which the package's ``evaluate`` function shadows
evaluate_module = importlib.import_module("envforge.evaluation.evaluate")


def short_config():
    config, report = validate_environment_file(CONFIG_DIR / "docking" / "environment_short.yml")
    assert config is not None, str(report)
    return config


def docking_cases():
    return [
        TestCase("near_5m", {"deputy.x0": -5.0}, seed=0),
        TestCase("near_10m", {"deputy.x0": -10.0}, seed=1),
        TestCase("far_150m", {"deputy.x0": -150.0}, seed=2),
    ]


def sample_artifact(case_id="c", outcome="WIN", steps=2):
    """An artifact built by hand: its lines, as ``json`` writes each record, loaded."""
    header = {"record": "header", "schema_version": 1, "case_id": case_id, "seed": 0,
              "parameters": {"p": {"value": 1.0, "unit": "none"}}}
    records = [
        {
            "record": "step",
            "step": k + 1,
            "sim_time": float(k + 1),
            "observations": {"a": {"O/x": {"values": [0.5], "unit": "meter"}}},
            "actions": {"a": {"G": [0.1]}},
            "rewards": {"a": {"r1": 0.75, "r2": 0.25}},
            "reward_totals": {"a": 1.0},
            "done_codes": {"a": None},
            "platform_states": {"p": {"x": 0.0}},
        }
        for k in range(steps)
    ]
    outcome = {"record": "outcome", "final_outcome": {"a": outcome}, "truncated": False, "error": None}
    return EpisodeArtifact.from_lines([json.dumps(record) for record in [header, *records, outcome]])


class TestArtifact:
    def test_round_trip_is_fixed_point(self, tmp_path):
        artifact = sample_artifact()
        path = artifact.save(tmp_path / "artifact_c.jsonl")
        loaded = EpisodeArtifact.load(path)
        assert loaded == artifact
        # Serialize -> parse -> serialize is byte-stable.
        assert loaded.save(tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_header_carries_schema_version(self, tmp_path):
        path = sample_artifact().save(tmp_path / "artifact_c.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["schema_version"] == 1

    def test_load_artifacts_sorted(self, tmp_path):
        sample_artifact("b").save(tmp_path / "artifact_b.jsonl")
        sample_artifact("a").save(tmp_path / "artifact_a.jsonl")
        write_manifest(tmp_path, ["b", "a"])
        assert [a.case_id for a in load_artifacts(tmp_path)] == ["a", "b"]

    def test_failed_save_leaves_previous_file_whole(self, tmp_path, monkeypatch):
        path = sample_artifact(steps=2).save(tmp_path / "artifact_c.jsonl")
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            sample_artifact(steps=5).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact_c.jsonl"]  # no temp file left

    @pytest.mark.parametrize("kept", [slice(0, -1), slice(0, 1)], ids=["no_outcome", "header_only"])
    def test_missing_outcome_record_raises_naming_file(self, tmp_path, kept):
        # A file cut off before its outcome record must not load as a non-win.
        path = sample_artifact().save(tmp_path / "artifact_c.jsonl")
        path.write_text("\n".join(path.read_text().splitlines()[kept]) + "\n")
        with pytest.raises(TruncatedArtifact, match="artifact_c.jsonl"):
            EpisodeArtifact.load(path)
        write_manifest(tmp_path, ["c"])
        with pytest.raises(TruncatedArtifact, match="artifact_c.jsonl"):
            load_artifacts(tmp_path)

    def test_line_cut_mid_record_raises_naming_file(self, tmp_path):
        path = sample_artifact().save(tmp_path / "artifact_c.jsonl")
        path.write_text(path.read_text()[:-20])
        with pytest.raises(ArtifactError, match="artifact_c.jsonl"):
            EpisodeArtifact.load(path)


class TestRollout:
    def test_parse_condition_set(self):
        cases = parse_condition_set(
            {"test_cases": [{"name": "x", "parameters": {"deputy.x0": -1.0}}, {}]}
        )
        assert cases[0].name == "x" and cases[0].seed == 0
        assert cases[1].name == "case_1" and cases[1].seed == 1

    def test_unknown_case_parameter(self):
        env = Environment(short_config())
        with pytest.raises(UnknownCaseParameter):
            _case_overrides(env.epp.specs, TestCase("bad", {"warp_factor": 9}))

    def test_case_parameters_take_declared_unit(self):
        env = Environment(short_config())
        overrides = _case_overrides(env.epp.specs, TestCase("c", {"deputy.x0": -5.0}))
        assert overrides["deputy.x0"].unit.name == "meter"

    @pytest.mark.parametrize(
        "raw",
        [
            float("nan"),
            float("inf"),
            -float("inf"),
            {"value": -5.0},
            {"value": -5.0, "unit": "second"},
            {"value": -5.0, "unit": "furlong"},
            {"value": float("nan"), "unit": "meter"},
            {"value": True, "unit": "meter"},
            {"value": 1e308, "unit": "kilometer"},  # no finite float in meters
            "far",
            "-5",
            True,
        ],
    )
    def test_invalid_case_value_names_case_and_parameter(self, raw):
        env = Environment(short_config())
        with pytest.raises(InvalidCaseParameter, match="'bad'.*'deputy.x0'"):
            _case_overrides(env.epp.specs, TestCase("bad", {"deputy.x0": raw}))

    def test_rollout_rejects_invalid_case_value_before_the_episode(self):
        with pytest.raises(InvalidCaseParameter):
            rollout(Environment(short_config()), TestCase("bad", {"deputy.x0": float("nan")}))

    def test_case_value_with_unit_is_converted_to_declared_unit(self):
        env = Environment(short_config())
        raw = {"value": -500.0, "unit": "centimeter"}
        overrides = _case_overrides(env.epp.specs, TestCase("c", {"deputy.x0": raw}))
        assert overrides["deputy.x0"] == Quantity.scalar(-5.0, METER)

    def test_rollout_solvable_case_wins(self):
        artifact = rollout(Environment(short_config()), TestCase("near", {"deputy.x0": -5.0}))
        assert artifact.final_outcome == {"deputy_agent": "WIN"}
        assert artifact.error is None
        assert artifact.parameters["deputy.x0"]["value"] == -5.0

    def test_rollout_far_case_times_out(self):
        artifact = rollout(Environment(short_config()), TestCase("far", {"deputy.x0": -150.0}))
        assert artifact.final_outcome == {"deputy_agent": "DRAW"}
        assert artifact.truncated
        assert len(artifact.rows) == 300

    def test_run_episode_records_scalar_fragment(self):
        # step() reads a fragment as np.atleast_1d(np.asarray(frag, float)), so a
        # bare float is a valid one-element command; the recorder must read it
        # the same way.
        class ConstantThrust(Policy):
            def _compute(self, observation, action_space):
                return {"ThrustControl": 0.05}

        env = Environment(short_config())
        for agent in env.agents.values():
            agent.policy = ConstantThrust()
        artifact = run_episode(env, seed=0)
        assert artifact.error is None
        # constant thrust reaches the dock too fast
        assert artifact.rows and artifact.final_outcome == {"deputy_agent": "LOSS"}
        for step in recorded_steps(artifact):
            assert step["actions"] == {"deputy_agent": {"ThrustControl": [0.05]}}
            assert step["platform_states"]["deputy"]["thrust"] == 0.05

    def test_evaluate_writes_one_artifact_per_case(self, tmp_path):
        artifacts = evaluate(short_config(), docking_cases(), tmp_path)
        assert [a.case_id for a in artifacts] == ["near_5m", "near_10m", "far_150m"]
        for artifact in artifacts:
            assert EpisodeArtifact.load(tmp_path / artifact_file(artifact.case_id)) == artifact

    def test_parallel_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        evaluate(short_config(), docking_cases(), serial, workers=1)
        evaluate(short_config(), docking_cases(), parallel, workers=3)
        for name in ["artifact_near_5m.jsonl", "artifact_near_10m.jsonl", "artifact_far_150m.jsonl"]:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_unwritable_output_rejected_before_rollouts(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("")  # a file where the directory should go
        with pytest.raises(IOError):
            evaluate(short_config(), docking_cases(), target)


class TestMetrics:
    def artifacts(self):
        return [
            sample_artifact("a", "WIN"),
            sample_artifact("b", "WIN"),
            sample_artifact("c", "DRAW"),
        ]

    def test_success_rate_two_thirds(self):
        metrics = generate_metrics(
            self.artifacts(),
            [
                MetricSpec("success_count", "success_count", {}, {}),
                MetricSpec("success_rate", "success_rate", {}, {"count": "success_count"}),
            ],
        )
        assert metrics["success_count"].value == 2
        assert metrics["success_rate"].value == 2 / 3
        assert metrics["success_rate"].kind == "terminal"

    def test_success_rate_counts_every_agent_unless_one_is_named(self, tmp_path):
        # README's two-agent example: over configs/docking/cases.yml the first
        # deputy wins 3 of 5 cases and the second all 5
        config, report = validate_environment_file(CONFIG_DIR / "docking" / "environment_two_agents.yml")
        assert config is not None, str(report)
        cases = parse_condition_set(load_config(CONFIG_DIR / "docking" / "cases.yml"))
        metrics = generate_metrics(evaluate(config, cases, tmp_path), [
            MetricSpec("all", "success_rate", {}, {}),
            MetricSpec("second", "success_rate", {"agent": "deputy_b_agent"}, {}),
        ])
        assert (metrics["all"].value, metrics["second"].value) == (0.6, 1.0)

    def test_reward_component_proportions(self):
        metrics = generate_metrics(
            self.artifacts(),
            [MetricSpec("proportions", "reward_component_proportions", {}, {})],
        )
        assert metrics["proportions"].kind == "non_terminal"
        assert metrics["proportions"].value == {"a.r1": 0.75, "a.r2": 0.25}

    def test_episode_length_and_mean(self):
        metrics = generate_metrics(
            self.artifacts(),
            [
                MetricSpec("episode_length", "episode_length", {}, {}),
                MetricSpec("mean_length", "mean_of", {}, {"source": "episode_length"}),
            ],
        )
        assert metrics["episode_length"].value == {"a": 2, "b": 2, "c": 2}
        assert metrics["mean_length"].value == 2.0

    def test_done_code_histogram(self):
        metrics = generate_metrics(
            self.artifacts(), [MetricSpec("h", "done_code_histogram", {}, {})]
        )
        assert metrics["h"].value == {"WIN": 2, "DRAW": 1}

    def test_metric_cycle_detected(self):
        specs = [
            MetricSpec("a", "mean_of", {}, {"source": "b"}),
            MetricSpec("b", "mean_of", {}, {"source": "a"}),
        ]
        with pytest.raises(MetricCycle):
            generate_metrics([], specs)

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            generate_metrics([], [MetricSpec("x", "made_up_metric", {}, {})])

    def test_unknown_metric_input(self):
        with pytest.raises(UnknownMetricInput):
            generate_metrics([], [MetricSpec("x", "mean_of", {}, {"source": "ghost"})])

    def test_write_read_round_trip(self, tmp_path):
        metrics = generate_metrics(
            self.artifacts(), [MetricSpec("success_rate", "success_rate", {}, {})]
        )
        path = write_metrics(metrics, tmp_path / "metrics.json")
        assert read_metrics(path) == metrics

    def test_parse_metric_config_defaults(self):
        specs = parse_metric_config({"metrics": [{"name": "success_rate"}]})
        assert specs[0].metric == "success_rate"


class TestVisualize:
    def metrics(self):
        return {
            "success_rate": MetricValue("terminal", 0.6),
            "episode_length": MetricValue("non_terminal", {"a": 10, "b": 20}),
        }

    def test_table_contains_terminal_metrics(self):
        table = render_table(self.metrics(), VizSpec("table"))
        assert "success_rate" in table and "0.6" in table
        assert "episode_length" not in table

    def test_table_rejects_non_terminal(self):
        with pytest.raises(KindMismatch):
            render_table(self.metrics(), VizSpec("table", metrics=["episode_length"]))

    def test_table_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            render_table(self.metrics(), VizSpec("table", metrics=["ghost"]))

    def test_html_is_self_contained(self, tmp_path):
        paths = visualize(self.metrics(), [VizSpec("html", file="r.html")], tmp_path)
        html = paths[0].read_text()
        assert html.startswith("<!DOCTYPE html>")
        for marker in ("<script", "src=", "href=", "<link", "@import", "url("):
            assert marker not in html
        assert "<svg" in html and "success_rate" in html

    def test_html_escapes_labels(self):
        html = render_html({"a<b": MetricValue("terminal", 1)}, VizSpec("html"))
        assert "a&lt;b" in html and "a<b" not in html.replace("a&lt;b", "")

    @pytest.mark.parametrize(
        "value", [{}, [], {"a": 1.0}, [0.0, 1.0]], ids=["bar_no_data", "line_no_data", "bar", "line"]
    )
    def test_html_escapes_every_chart_title(self, value):
        name = "<img src=x onerror=alert(1)> & co"
        html = render_html({name: MetricValue("non_terminal", value)}, VizSpec("html"))
        assert "&lt;img src=x onerror=alert(1)&gt; &amp; co" in html
        assert "<img" not in html and "> & co" not in html

    def test_series_rendered_as_line_chart(self):
        html = render_html(
            {"trace": MetricValue("non_terminal", [0.0, 1.0, 0.5])}, VizSpec("html")
        )
        assert "polyline" in html


class TestPipeline:
    def specs(self):
        metric_specs = [
            MetricSpec("success_count", "success_count", {}, {}),
            MetricSpec("success_rate", "success_rate", {}, {"count": "success_count"}),
            MetricSpec("episode_length", "episode_length", {}, {}),
        ]
        viz_specs = [VizSpec("table"), VizSpec("html", file="report.html")]
        return metric_specs, viz_specs

    def test_staged_and_pipeline_byte_identical(self, tmp_path, capsys):
        metric_specs, viz_specs = self.specs()
        cases = docking_cases()

        staged = tmp_path / "staged"
        evaluate(short_config(), cases, staged)
        metrics = generate_metrics(load_artifacts(staged), metric_specs)
        write_metrics(metrics, staged / "metrics.json")
        visualize(read_metrics(staged / "metrics.json"), viz_specs, staged)

        piped = tmp_path / "piped"
        run_pipeline(short_config(), cases, metric_specs, viz_specs, piped)

        staged_files = {p.name: p.read_bytes() for p in staged.iterdir()}
        piped_files = {p.name: p.read_bytes() for p in piped.iterdir()}
        assert staged_files == piped_files

    def test_pipeline_success_rate(self, tmp_path, capsys):
        metric_specs, viz_specs = self.specs()
        metrics = run_pipeline(short_config(), docking_cases(), metric_specs, viz_specs, tmp_path)
        assert metrics["success_rate"].value == 2 / 3
        assert "success_rate" in capsys.readouterr().out


class TestRunManifest:
    """Later stages read the artifacts of the latest evaluate run, and only those."""

    def specs(self):
        return TestPipeline().specs()

    def test_second_run_into_one_directory_ignores_the_first(self, tmp_path, capsys):
        metric_specs, viz_specs = self.specs()
        again = [TestCase("again_5m", {"deputy.x0": -5.0}, seed=0)]

        piped = tmp_path / "piped"
        run_pipeline(short_config(), docking_cases(), metric_specs, viz_specs, piped)
        metrics = run_pipeline(short_config(), again, metric_specs, viz_specs, piped)
        assert metrics["success_rate"].value == 1.0
        assert metrics["episode_length"].value.keys() == {"again_5m"}

        staged = tmp_path / "staged"
        for cases in (docking_cases(), again):
            evaluate(short_config(), cases, staged)
            write_metrics(generate_metrics(load_artifacts(staged), metric_specs), staged / "metrics.json")
            visualize(read_metrics(staged / "metrics.json"), viz_specs, staged)
        assert read_metrics(staged / "metrics.json") == metrics

        staged_files = {p.name: p.read_bytes() for p in staged.iterdir()}
        piped_files = {p.name: p.read_bytes() for p in piped.iterdir()}
        assert staged_files == piped_files

    def test_manifest_names_the_cases_in_case_order(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        evaluate(short_config(), docking_cases(), serial)
        evaluate(short_config(), docking_cases(), parallel, workers=2)
        manifest = json.loads((serial / MANIFEST).read_text())
        assert manifest == {"schema_version": 1, "cases": ["near_5m", "near_10m", "far_150m"]}
        assert (parallel / MANIFEST).read_bytes() == (serial / MANIFEST).read_bytes()

    def test_missing_named_artifact_raises_naming_the_file(self, tmp_path):
        evaluate(short_config(), docking_cases(), tmp_path)
        (tmp_path / "artifact_near_10m.jsonl").unlink()
        with pytest.raises(MissingArtifact, match="artifact_near_10m.jsonl"):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_raise(self, tmp_path, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            evaluate(short_config(), docking_cases(), tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[]", "{\"cases\": \"a\"}", "{"], ids=["list", "not_a_list", "cut"])
    def test_malformed_manifest_raises_naming_the_file(self, tmp_path, text):
        (tmp_path / MANIFEST).write_text(text)
        with pytest.raises(ArtifactError, match=MANIFEST):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"schema_version": 99, "cases": ["near_5m"]}, "schema_version: .*unsupported schema_version 99"),
            ({"cases": ["near_5m"]}, "schema_version: missing required field"),
            ({"schema_version": True, "cases": ["near_5m"]}, "schema_version: .*expected an integer, got bool"),
            ({"schema_version": 1, "cases": ["near_5m", "near_5m"]}, "cases: .*names a case more than once"),
            ({"schema_version": 1, "cases": ["../near_5m"]}, "cases/0: .*contains a path separator"),
            ({"schema_version": 1, "cases": [5]}, "cases/0: .*expected a string, got int"),
            ({"schema_version": 1, "cases": [], "extra": 1}, "extra: unknown field"),
        ],
        ids=["v99", "no_version", "bool_version", "repeated_case", "separator", "not_a_string", "undeclared"],
    )
    def test_manifest_is_read_with_its_table(self, tmp_path, document, message):
        evaluate(short_config(), docking_cases(), tmp_path)
        (tmp_path / MANIFEST).write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(tmp_path / MANIFEST))}: {message}"):
            load_artifacts(tmp_path)

    def test_directory_without_manifest_raises_naming_it(self, tmp_path):
        evaluate(short_config(), docking_cases(), tmp_path)
        sample_artifact("older").save(tmp_path / "artifact_older.jsonl")
        assert [a.case_id for a in load_artifacts(tmp_path)] == ["far_150m", "near_10m", "near_5m"]
        (tmp_path / MANIFEST).unlink()
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(tmp_path / MANIFEST))}: no run manifest"):
            load_artifacts(tmp_path)


class TestOnePass:
    """evaluate runs every case of a process on one environment; pipeline
    computes metrics from the artifacts in memory."""

    def test_pipeline_opens_no_artifact_file(self, tmp_path, capsys, monkeypatch):
        def refuse(cls, path):
            raise AssertionError(f"pipeline loaded {path}")

        monkeypatch.setattr(EpisodeArtifact, "load", classmethod(refuse))
        metric_specs, viz_specs = TestPipeline().specs()
        metrics = run_pipeline(short_config(), docking_cases(), metric_specs, viz_specs, tmp_path)
        assert metrics["success_rate"].value == 2 / 3

    def test_metrics_from_memory_equal_metrics_from_disk(self, tmp_path):
        specs = parse_metric_config(
            {"metrics": [{"name": n} for n in (
                "success_count", "episode_length", "total_reward",
                "reward_component_proportions", "done_code_histogram",
            )]}
        )
        artifacts = evaluate(short_config(), docking_cases(), tmp_path)
        in_memory = sorted(artifacts, key=lambda a: artifact_file(a.case_id))
        loaded = load_artifacts(tmp_path)
        assert in_memory == loaded
        assert generate_metrics(in_memory, specs) == generate_metrics(loaded, specs)

    def test_serial_evaluate_builds_one_environment(self, tmp_path, monkeypatch):
        built = []

        class Counting(Environment):
            def __init__(self, config):
                built.append(config)
                super().__init__(config)

        monkeypatch.setattr(evaluate_module, "Environment", Counting)
        evaluate(short_config(), docking_cases(), tmp_path)
        assert len(built) == 1

    def test_each_pool_worker_builds_one_environment(self, tmp_path, monkeypatch):
        log = tmp_path / "builds.txt"

        class Recording(Environment):
            def __init__(self, config):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                super().__init__(config)

        monkeypatch.setattr(evaluate_module, "Environment", Recording)
        cases = docking_cases() + [TestCase("near_15m", {"deputy.x0": -15.0}, seed=3)]
        evaluate(short_config(), cases, tmp_path / "out", workers=2)
        pids = log.read_text().split()
        assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
        assert str(os.getpid()) not in pids

    def test_reused_environment_matches_fresh_after_a_failed_case(self, tmp_path):
        # Two steps of full reverse thrust: from x0 = -4 the bounded glue
        # leaves its [-5, 5] box at step 2 and the episode fails there; from
        # x0 = 4 the craft passes the dock too fast and the episode ends in LOSS.
        replay = {"name": "replay", "config": {"actions": [{"ThrustControl": [-1.0]}] * 2}}
        tree = docking_tree(horizon=30, policy=replay, extra_glues=bounded_tvd_glue(-5.0, 5.0))
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        cases = [
            TestCase("fails", {"deputy.x0": -4.0}, seed=0),
            TestCase("after", {"deputy.x0": 4.0}, seed=1),
            TestCase("again", {"deputy.x0": -4.0}, seed=2),
        ]
        reused = evaluate(config, cases, tmp_path)
        assert reused[0].error.startswith("SpaceViolation") and len(reused[0].rows) == 1
        assert reused[1].error is None and reused[1].final_outcome == {"agent_0": "LOSS"}
        for case, artifact in zip(cases, reused):
            assert rollout(Environment(config), case).to_lines() == artifact.to_lines()


class TestInputChecks:
    """Bad evaluation inputs fail where they are parsed, before any rollout."""

    @staticmethod
    def no_rollouts(monkeypatch):
        """Make building an environment or a pool fail the test: evaluate must
        reject its cases before either."""

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate started rollouts")

        monkeypatch.setattr(evaluate_module, "Environment", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (TestCase("near_5m", {"deputy.x0": -7.0}, seed=3), InvalidCase,
             "test case 3: another case is already named 'near_5m'"),
            (TestCase("a/b", {}, seed=3), InvalidCase, "test case 3: name 'a/b' contains a path separator"),
            (TestCase("far", {"deputy.x0": "far"}, seed=3), InvalidCaseParameter,
             "test case 'far': parameter 'deputy.x0'"),
            (TestCase("warp", {"warp_factor": 9}, seed=3), UnknownCaseParameter,
             "test case 'warp': unknown parameter 'warp_factor'"),
            (TestCase("b", {"v_max": -0.1}, seed=3), InvalidCaseParameter,
             "test case 'b': parameter 'v_max': 'velocity_limit': must be >= 0, got -0.1"),
            (TestCase("b", {"dock_radius": {"value": -10.0, "unit": "centimeter"}}, seed=3), InvalidCaseParameter,
             "test case 'b': parameter 'dock_radius': 'dock_radius': must be >= 0, got -0.1"),
            (TestCase("neg", {}, seed=-3), InvalidCase, "test case 3: seed: must be >= 0, got -3"),
            (TestCase("frac", {}, seed=1.5), InvalidCase, "test case 3: seed: expected an integer, got float"),
        ],
        ids=["duplicate", "separator", "bad_value", "unknown", "reference_range", "reference_range_converted",
             "negative_seed", "fractional_seed"],
    )
    def test_evaluate_checks_every_case_before_the_first_rollout(self, tmp_path, monkeypatch, bad, error, message, workers):
        self.no_rollouts(monkeypatch)
        with pytest.raises(error, match=re.escape(message)):
            evaluate(short_config(), docking_cases() + [bad], tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_simulator_is_reported_as_the_build_reports_it(self, tmp_path, monkeypatch, workers):
        config = replace(short_config(), simulator_name="Nope")
        with pytest.raises(ConfigError) as built:
            Environment(config)
        assert built.value.errors[0][:2] == ("simulator/name", "UnknownFunctor")
        self.no_rollouts(monkeypatch)
        with pytest.raises(ConfigError) as caught:
            evaluate(config, docking_cases(), tmp_path / "out", workers=workers)
        assert (str(caught.value), caught.value.errors) == (str(built.value), built.value.errors)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_case_override_of_an_initialization_key_is_checked_before_the_first_rollout(
        self, tmp_path, monkeypatch, workers
    ):
        # x0 is declared in kilometer; -1e306 km is no float in meters, the unit the simulator reads
        tree = load_config(CONFIG_DIR / "docking" / "environment_short.yml")
        tree["platforms"][0]["initialization"]["x0"] = {"distribution": {"kind": "constant", "value": -0.01}, "unit": "kilometer"}
        config, report = validate_environment(tree, base_dir=CONFIG_DIR / "docking")
        assert report.ok, str(report)
        self.no_rollouts(monkeypatch)
        message = "test case 'big': parameter 'deputy.x0': 'x0': a value in kilometer overflows a float in meter"
        with pytest.raises(InvalidCaseParameter, match=re.escape(message)):
            evaluate(config, docking_cases() + [TestCase("big", {"deputy.x0": -1.0e306}, seed=3)], tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"name": "a"}, {"name": "a"}], "test case 1: another case is already named 'a'"),
            ([{"name": "a/b"}], "test case 0: name 'a/b' contains a path separator"),
            ([{"name": "a\\b"}], "contains a path separator"),
            (["a"], "test case 0: expected a mapping"),
            ([{"name": "a", "parameters": [1.0]}],
             "test case 0: parameters: invalid value for 'parameters': expected a mapping"),
            ([{"name": "a", "seed": 1.5}],
             "test case 0: seed: invalid value for 'seed': expected an integer, got float"),
            ([{"name": "a", "seed": -3}], "test case 0: seed: invalid value for 'seed': must be >= 0, got -3"),
            ([{"name": 5}], "test case 0: name: invalid value for 'name': expected a string, got int"),
            ([{"name": "a", "paramters": {"deputy.x0": -5.0}, "sed": 3}],
             "test case 0: paramters: unknown field 'paramters'"),
        ],
        ids=["duplicate", "slash", "backslash", "not_a_mapping", "parameters", "seed", "negative_seed", "name",
             "undeclared"],
    )
    def test_bad_case_entry(self, entries, message):
        with pytest.raises(InvalidCase, match=re.escape(message)):
            parse_condition_set({"test_cases": entries})

    @pytest.mark.parametrize(
        "entries, error, message",
        [
            ([{"name": "rate", "metric": "success_rte"}], UnknownMetric,
             "metric 'rate': no metric registered under 'success_rte'"),
            ([{"metric": "success_rate"}], InvalidMetricEntry, "metrics entry 0: name: missing required field 'name'"),
            ([{"name": "m", "metric": "mean_of", "inputs": {"source": "ghost"}}], UnknownMetricInput,
             "metric 'm' consumes undefined metric 'ghost'"),
            ([{"name": "a", "metric": "mean_of", "inputs": {"source": "a"}}], MetricCycle, "a -> a"),
            ([{"name": "x"}, {"name": "x", "metric": "success_rate"}], InvalidMetricEntry,
             "metrics entry 1: another metric is already named 'x'"),
            ([{"name": "success_rate", "inputs": ["count"]}], InvalidMetricEntry,
             "metrics entry 0: inputs: invalid value for 'inputs': expected a mapping"),
            ([{"name": "m", "metric": "mean_of", "input": {"source": "rate"}}], InvalidMetricEntry,
             "metrics entry 0: input: unknown field 'input'"),
            ([{"name": 1}], InvalidMetricEntry, "metrics entry 0: name: invalid value for 'name': expected a string"),
            ([{"name": "m", "metric": True}], InvalidMetricEntry,
             "metrics entry 0: metric: invalid value for 'metric': expected a string"),
        ],
        ids=["unknown_metric", "no_name", "undefined_input", "cycle", "duplicate", "inputs", "undeclared", "name", "metric"],
    )
    def test_bad_metric_entry(self, entries, error, message):
        with pytest.raises(error, match=re.escape(message)):
            parse_metric_config({"metrics": entries})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"type": "table"}, {"type": "htm"}],
             "visualizations entry 1: type: 'htm' is not one of ['html', 'table']"),
            ([{"file": "r.html"}], "visualizations entry 0: type: missing required field 'type'"),
            ([{"type": "table", "metrics": "success_rate"}],
             "visualizations entry 0: metrics: invalid value for 'metrics'"),
            ([{"type": "table", "metric": ["success_rate"]}], "visualizations entry 0: metric: unknown field 'metric'"),
            ([{"type": "table", "config": {}}], "visualizations entry 0: config: unknown field 'config'"),
            ([{"type": "table", "metrics": ["success_rate", 3]}],
             "visualizations entry 0: metrics/1: invalid value for '1': expected a string, got int"),
            ([{"type": "html", "file": ["a"]}],
             "visualizations entry 0: file: invalid value for 'file': expected a string, got list"),
            ([{"type": "html", "title": 3}],
             "visualizations entry 0: title: invalid value for 'title': expected a string, got int"),
            ([{"type": "html"}, {"type": "table", "title": "Unused"}],
             "visualizations entry 1: title: only an html entry takes 'title'; a table writes no report"),
        ],
        ids=["unknown_type", "no_type", "metrics", "undeclared", "metric_name", "config", "file", "title", "table_title"],
    )
    def test_bad_viz_entry(self, entries, message):
        with pytest.raises(InvalidVizEntry, match=re.escape(message)):
            parse_viz_config({"visualizations": entries})

    @pytest.mark.parametrize("file", ["", ".", "..", "sub/r.html", "sub\\r.html", "r\0.html"])
    def test_viz_file_names_a_file_in_the_output_directory(self, file):
        # each would fail the report's write after every rollout had run
        with pytest.raises(InvalidVizEntry, match=re.escape("visualizations entry 0: file: ")):
            parse_viz_config({"visualizations": [{"type": "html", "file": file}]})
        assert parse_viz_config({"visualizations": [{"type": "html", "file": "r.html"}]})[0].file == "r.html"

    @pytest.mark.parametrize(
        "parse, tree",
        [(parse_condition_set, {"test_cases": {}}), (parse_metric_config, []), (parse_viz_config, None)],
        ids=["cases", "metrics", "viz"],
    )
    def test_tree_without_its_list(self, parse, tree):
        with pytest.raises((EvaluationError, MetricError), match="expected a mapping with a"):
            parse(tree)
