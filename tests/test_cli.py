import csv
import json
import logging

import pytest

from envforge.cli import main
from envforge.config import PolicyConfig
from envforge.environment import Environment
from envforge.evaluation import TestCase, rollout
from envforge.evaluation.artifact import write_manifest

from conftest import CONFIG_DIR, DATA_DIR, load_env_config

DOCKING = CONFIG_DIR / "docking"


def docking_args(sub, *extra):
    return [sub, "--env", str(DOCKING / "environment.yml"), *extra]


def short_args(sub, *extra):
    return [sub, "--env", str(DOCKING / "environment_short.yml"), *extra]


class TestValidate:
    def test_valid_config_exit_zero(self, capsys):
        assert main(docking_args("validate")) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_invalid_config_exit_one(self, capsys):
        code = main(["validate", "--env", str(DATA_DIR / "invalid" / "unknown_simulator.yml")])
        assert code == 1
        out = capsys.readouterr().out
        assert "UnknownFunctor" in out and "simulator/name" in out

    def test_missing_file_exit_one(self, capsys):
        assert main(["validate", "--env", "no_such_file.yml"]) == 1
        assert "FileNotFound" in capsys.readouterr().out

    def test_agent_flag_replaces_agents(self, capsys):
        code = main(
            [
                "validate",
                "--env",
                str(DOCKING / "environment.yml"),
                "--agent",
                str(DOCKING / "agent.yml"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "env, code",
        [
            (None, "TypeMismatch"),
            ("no_such_file.yml", "FileNotFound"),
            (DATA_DIR / "invalid" / "include_cycle.yml", "IncludeCycle"),
            (DATA_DIR / "invalid" / "parse_error.yml", "ParseError"),
            (DATA_DIR / "invalid" / "not_utf8.yml", "ParseError"),
        ],
        ids=["list", "missing", "include_cycle", "parse_error", "not_utf8"],
    )
    def test_agent_flag_reports_a_load_error(self, tmp_path, capsys, env, code):
        # the environment file fails to load, or holds a list: the report says so at ''
        if env is None:
            env = tmp_path / "list.yml"
            env.write_text("- simulator: {name: Docking1dSimulator}\n")
        assert main(["validate", "--env", str(env), "--agent", str(DOCKING / "agent.yml")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2 and lines[0] == "1 error(s):" and lines[1].startswith(f"  : [{code}] "), lines

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate"])  # missing --env
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--episodes", "-2"],
            ["run", "--episodes", "0"],
            ["run", "--episodes", "1.5"],
            ["evaluate", "--cases", str(DOCKING / "cases.yml"), "--workers", "-3"],
            ["evaluate", "--cases", str(DOCKING / "cases.yml"), "--workers", "0"],
            ["pipeline", "--cases", "c.yml", "--metrics", "m.yml", "--viz", "v.yml", "--workers", "two"],
        ],
        ids=["episodes_negative", "episodes_zero", "episodes_fraction", "workers_negative", "workers_zero",
             "workers_text"],
    )
    def test_count_below_one_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(short_args(*argv, "--out", str(out)))
        assert excinfo.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_run_writes_logs_under_out_only(self, tmp_path, monkeypatch, capsys):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "out"
        code = main(docking_args("run", "--episodes", "2", "--seed", "7", "--out", str(out)))
        assert code == 0
        assert {p.name for p in out.iterdir()} == {
            "episode_0.csv",
            "episode_1.csv",
            "run_config.json",
        }
        assert list(workdir.iterdir()) == []  # nothing written outside --out

    def test_run_deterministic_across_invocations(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(docking_args("run", "--episodes", "3", "--seed", "7", "--out", str(out))) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    def test_policy_override_by_rule_name(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            short_args("run", "--policy", "bang_bang_docking", "--seed", "0", "--out", str(out))
        )
        assert code == 0
        assert (out / "episode_0.csv").exists()

    @pytest.mark.parametrize(
        "env_file, seed, policy",
        [
            (DOCKING / "environment.yml", 7, None),
            (CONFIG_DIR / "cartpole" / "environment.yml", 3, None),
            (DOCKING / "environment_two_agents.yml", 7, None),
            (DOCKING / "environment_short.yml", 5, "random"),
        ],
        ids=["docking", "cartpole", "two_agents", "short_random"],
    )
    def test_run_csv_is_projection_of_rollout(self, tmp_path, env_file, seed, policy):
        # run records only its CSV's columns; evaluate's rollout records the
        # full step, and its CSV must be the same bytes.  run keeps one
        # environment for all episodes, so episodes 1 and 2 match a fresh
        # rollout only if reset reseeds the policies.
        out = tmp_path / "run"
        argv = ["run", "--env", str(env_file), "--seed", str(seed), "--episodes", "3"]
        argv += ["--policy", policy] if policy else []
        assert main(argv + ["--out", str(out)]) == 0
        config = load_env_config(env_file)
        for agent in config.agents if policy else []:
            agent.policy = PolicyConfig(policy, {})
        for k in range(3):
            artifact = rollout(Environment(config), TestCase("c", {}, seed + k))
            assert artifact.error is None
            projected = artifact.write_csv(tmp_path / f"projected_{k}.csv")
            assert (out / f"episode_{k}.csv").read_bytes() == projected.read_bytes()

    def test_two_agent_csv_leaves_an_ended_agents_cells_blank(self, tmp_path):
        # seed 7: deputy_agent docks at step 77, deputy_b_agent at step 231
        out = tmp_path / "run"
        env_file = DOCKING / "environment_two_agents.yml"
        assert main(["run", "--env", str(env_file), "--seed", "7", "--out", str(out)]) == 0
        with open(out / "episode_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ended = [key for key in rows[0] if key.startswith("deputy_agent.")]
        assert len(ended) == 4 and len(rows) == 231
        assert [row["deputy_agent.done_code"] for row in rows[75:77]] == ["", "WIN"]
        assert all(row[key] != "" for row in rows[:77] for key in ended if key != "deputy_agent.done_code")
        assert all(row[key] == "" for row in rows[77:] for key in ended)
        assert rows[-1]["deputy_b_agent.done_code"] == "WIN"

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(docking_args("run", "--seed", "-1", "--out", str(out))) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --seed: expected an integer >= 0, got -1"]
        assert not out.exists()

    def test_unknown_policy_exit_two(self, tmp_path, capsys):
        code = main(docking_args("run", "--policy", "telepathy", "--out", str(tmp_path)))
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err


class TestPipelineStages:
    def run_stages(self, out):
        assert (
            main(short_args("evaluate", "--cases", str(DOCKING / "cases.yml"), "--out", str(out)))
            == 0
        )
        assert main(["metrics", "--metrics", str(DOCKING / "metrics.yml"), "--out", str(out)]) == 0
        assert main(["visualize", "--viz", str(DOCKING / "viz.yml"), "--out", str(out)]) == 0

    def test_staged_pipeline(self, tmp_path, capsys):
        self.run_stages(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert "metrics.json" in names and "report.html" in names
        assert sum(1 for n in names if n.startswith("artifact_")) == 5
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["success_rate"]["value"] == 0.6
        out = capsys.readouterr().out
        assert "success_rate" in out and "0.6" in out

    def test_pipeline_subcommand_matches_stages(self, tmp_path, capsys):
        staged = tmp_path / "staged"
        piped = tmp_path / "piped"
        self.run_stages(staged)
        code = main(
            short_args(
                "pipeline",
                "--cases",
                str(DOCKING / "cases.yml"),
                "--metrics",
                str(DOCKING / "metrics.yml"),
                "--viz",
                str(DOCKING / "viz.yml"),
                "--out",
                str(piped),
            )
        )
        assert code == 0
        staged_files = {p.name: p.read_bytes() for p in staged.iterdir()}
        piped_files = {p.name: p.read_bytes() for p in piped.iterdir()}
        assert staged_files == piped_files

    def test_parallel_workers(self, tmp_path):
        out = tmp_path / "par"
        code = main(
            short_args(
                "evaluate",
                "--cases",
                str(DOCKING / "cases.yml"),
                "--workers",
                "3",
                "--out",
                str(out),
            )
        )
        assert code == 0
        assert len(list(out.glob("artifact_*.jsonl"))) == 5

    def test_metrics_missing_artifacts_dir_is_harmless_but_missing_config_fails(
        self, tmp_path, capsys
    ):
        code = main(["metrics", "--metrics", "no_such_metrics.yml", "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "file, text, error",
        [
            ("cases", "test_cases: [{name: a}, {name: a}]", "InvalidCase: test case 1"),
            ("cases", "test_cases: [{name: a/b}]", "InvalidCase: test case 0"),
            ("metrics", "metrics: [{name: success_rte}]", "UnknownMetric: metric 'success_rte'"),
            ("metrics", "metrics: [{metric: success_rate}]", "InvalidMetricEntry: metrics entry 0"),
            ("viz", "visualizations: [{type: htm}]", "InvalidVizEntry: visualizations entry 0"),
        ],
        ids=["duplicate_case", "case_path", "unknown_metric", "metric_without_name", "viz_type"],
    )
    def test_bad_input_fails_before_the_first_rollout(self, tmp_path, capsys, file, text, error):
        inputs = {"cases": DOCKING / "cases.yml", "metrics": DOCKING / "metrics.yml", "viz": DOCKING / "viz.yml"}
        inputs[file] = tmp_path / f"{file}.yml"
        inputs[file].write_text(text + "\n")
        out = tmp_path / "out"
        argv = [f"--{k}={v}" for k, v in inputs.items()]
        assert main(short_args("pipeline", *argv, "--out", str(out))) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_cases_file_not_utf8_names_the_file(self, tmp_path, capsys):
        cases = tmp_path / "cases.yml"
        cases.write_bytes(b"test_cases:\n  - name: caf\xe9\n")
        out = tmp_path / "out"
        assert main(short_args("evaluate", "--cases", str(cases), "--out", str(out))) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: ParseError: {cases}:2:14: not UTF-8: byte 0xe9"), lines
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted((DATA_DIR / "invalid_pipeline").glob("*.yml")), ids=lambda p: p.stem)
    def test_invalid_pipeline_corpus(self, tmp_path, capsys, path):
        # a file's name starts with the option it is passed to
        option = path.stem.split("_")[0]
        inputs = {"cases": DOCKING / "cases.yml", "metrics": DOCKING / "metrics.yml", "viz": DOCKING / "viz.yml"}
        inputs[option] = path
        out = tmp_path / "out"
        argv = [f"--{k}={v}" for k, v in inputs.items()]
        assert main(short_args("pipeline", *argv, "--out", str(out))) == 1
        error = {"cases": "InvalidCase", "metrics": "InvalidMetricEntry", "viz": "InvalidVizEntry"}[option]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: "), lines
        assert list(out.glob("artifact_*.jsonl")) == []


    @pytest.mark.parametrize(
        "path", sorted((DATA_DIR / "invalid_artifacts").glob("*.json*")), ids=lambda p: p.stem
    )
    def test_invalid_artifacts_corpus(self, tmp_path, capsys, path):
        # each file alone in an output directory: a manifest as manifest.json,
        # an artifact under its own name with a manifest that names its case
        out = tmp_path / "out"
        out.mkdir()
        if path.name.startswith("manifest_"):
            target = out / "manifest.json"
        else:
            target = out / path.name
            write_manifest(out, [path.stem.removeprefix("artifact_")])
        target.write_bytes(path.read_bytes())
        assert main(["metrics", "--metrics", str(DOCKING / "metrics.yml"), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: ArtifactError: {target}"), lines


class TestLogLevel:
    def test_log_level_flag(self, tmp_path):
        main(["--log-level", "DEBUG", "validate", "--env", str(DOCKING / "environment.yml")])
        assert logging.getLogger().level == logging.DEBUG

    def test_envforge_log_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("ENVFORGE_LOG", "ERROR")
        main(["--log-level", "DEBUG", "validate", "--env", str(DOCKING / "environment.yml")])
        assert logging.getLogger().level == logging.ERROR
