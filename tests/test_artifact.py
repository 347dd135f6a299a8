"""The compiled artifact record: rows under a RecordLayout write the lines
``json.dumps(record, sort_keys=True)`` writes, load back to the same rows,
and malformed files fail naming their file and line.  Records are read
through ``json``, which the layouts do not use, as the reference."""

import copy
import csv
import importlib
import json
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.cli import main
from envforge.config.validate import validate_environment
from envforge.environment import Environment
from envforge.evaluation import ArtifactError, EpisodeArtifact, RecordLayout, StepShape, TestCase, evaluate
from envforge.evaluation.artifact import _compile, write_manifest
from envforge.functors.base import Reward
from envforge.functors.graph import FUNCTOR_REGISTRY

from conftest import CONFIG_DIR, load_env_config, recorded_steps
from test_environment import docking_tree

# the module, which the package's ``evaluate`` function shadows
evaluate_module = importlib.import_module("envforge.evaluation.evaluate")

DOCKING = CONFIG_DIR / "docking"

# floats whose repr changes form, the smallest normal and subnormal, and the non-finite
SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
    1e22, 1.7976931348623157e308, -1e-7, math.nan, math.inf, -math.inf,
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
numbers = st.one_of(floats, floats.map(np.float64))
# non-ASCII names, and names holding the characters a %-template or JSON string escapes
names = st.text(alphabet="aZ_/.%é漢\"\\ \n", min_size=1, max_size=4)
vectors = st.lists(numbers, min_size=1, max_size=3)


@st.composite
def step_records(draw) -> dict:
    agents = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    # the agents still active: an agent that ended early has no observations,
    # rewards or done code, but its policy still acts
    active = agents[: draw(st.integers(0, len(agents)))]
    observation = st.fixed_dictionaries({"values": vectors, "unit": names})
    rewards = {agent: draw(st.dictionaries(names, numbers, max_size=3)) for agent in active}
    return {
        "record": "step",
        "step": draw(st.integers(0, 10**6)),
        "sim_time": draw(numbers),
        "observations": {agent: draw(st.dictionaries(names, observation, max_size=2)) for agent in active},
        "actions": {agent: draw(st.dictionaries(names, vectors, max_size=2)) for agent in agents},
        "rewards": rewards,
        # no components total an int 0, as Environment.step sums them
        "reward_totals": {agent: draw(numbers) if rewards[agent] else 0 for agent in active},
        "done_codes": {agent: draw(st.one_of(st.none(), st.sampled_from(["WIN", "LOSS"]), names)) for agent in active},
        "platform_states": draw(st.dictionaries(names, st.dictionaries(names, numbers, max_size=3), max_size=2)),
    }


def lines_of(records: list[dict]) -> list[str]:
    """An artifact's lines, each record as ``json`` writes it."""
    header = {"record": "header", "schema_version": 1, "case_id": "c", "seed": 0,
              "parameters": {"p": {"value": 1.0, "unit": "none"}}}
    outcome = {"record": "outcome", "final_outcome": {"a": "WIN"}, "truncated": False, "error": None}
    return [json.dumps(record, sort_keys=True) for record in [header, *records, outcome]]


def artifact_of(records: list[dict]) -> EpisodeArtifact:
    return EpisodeArtifact.from_lines(lines_of(records))


class TestLayout:
    @settings(max_examples=300, deadline=None)
    @given(step_records())
    def test_line_is_what_json_writes(self, record):
        assert artifact_of([record]).to_lines()[1] == json.dumps(record, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(step_records(), min_size=0, max_size=4))
    def test_round_trip_is_fixed_point(self, records):
        lines = lines_of(records)
        loaded = EpisodeArtifact.from_lines(lines)
        assert loaded.to_lines() == lines
        assert EpisodeArtifact.from_lines(loaded.to_lines()).to_lines() == lines

    @settings(max_examples=100, deadline=None)
    @given(step_records(), st.data())
    def test_lines_of_one_layout_load_alike(self, record, data):
        # every line has the first line's shape, so all load under one layout
        ((layout, values),) = artifact_of([record]).rows
        slots = dict.fromkeys(range(len(values)), st.one_of(floats, st.integers(-(10**20), 10**20)))
        slots[layout.step] = st.integers(0, 10**6)
        for _, slot in layout.done_codes:
            slots[slot] = st.sampled_from(["null", '"WIN"', json.dumps("é"), json.dumps('"%')])
        rows = [(layout, values)] + [(layout, tuple(data.draw(s) for s in slots.values())) for _ in range(3)]
        artifact = artifact_of([])
        artifact.rows = rows
        lines = artifact.to_lines()
        loaded = EpisodeArtifact.from_lines(lines)
        assert loaded.to_lines() == lines
        assert all(loaded_layout is layout for loaded_layout, _ in loaded.rows)

    def test_lines_not_written_by_json_dumps_load_as_json_reads_them(self):
        record = {
            "record": "step", "step": 1, "sim_time": 1.50, "observations": {}, "actions": {"a": {"G": [0.5]}},
            "rewards": {"a": {"r": 1.0}}, "reward_totals": {"a": 1.0}, "done_codes": {"a": "WIN"},
            "platform_states": {},
        }
        lines = lines_of([record, record])
        lines[2] = json.dumps(dict(reversed(record.items())), indent=1).replace("\n", "")
        lines[1] = lines[1].replace('"WIN"', '"W\\u0049N"').replace("1.5", "1.50")
        assert EpisodeArtifact.from_lines(lines).to_lines() == lines_of([record, record])

    def test_records_of_one_shape_share_a_layout(self):
        base = {
            "record": "step", "step": 1, "sim_time": 1.0, "observations": {}, "actions": {"a": {"G": [0.5]}},
            "rewards": {"a": {"r": 1.0}}, "reward_totals": {"a": 1.0}, "done_codes": {"a": None},
            "platform_states": {},
        }
        other = {**base, "step": 2, "done_codes": {"a": "WIN"}, "actions": {"a": {"G": [0.25]}}}
        longer = {**base, "actions": {"a": {"G": [0.5, 0.5]}}}
        (first, _), (second, _), (third, _) = artifact_of([base, other, longer]).rows
        assert first is second and third is not first


# names a CSV cell must quote (a comma, a quote, a line break), that a
# template must escape (%) or that are non-ASCII
csv_names = st.text(alphabet=',"\r\n%é漢 a.', min_size=1, max_size=4)
csv_numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324, 2.5e-320]), st.floats(),
    st.integers(-(10**20), 10**20),
)
done_codes = st.one_of(st.sampled_from(["WIN", "LOSS", ""]), csv_names)


@st.composite
def csv_episodes(draw) -> list[str]:
    """The lines of an episode's artifact: each agent ends at a drawn step,
    whose record has its done code, and is in no later record, so the
    layout switches when an agent ends; the episode ends with its last agent."""
    agents = draw(st.lists(csv_names, min_size=1, max_size=3, unique=True))
    components = {agent: draw(st.lists(csv_names, max_size=2, unique=True)) for agent in agents}
    ends = {agent: draw(st.integers(1, 4)) for agent in agents}
    records = []
    for step in range(1, max(ends.values()) + 1):
        active = [agent for agent in agents if ends[agent] >= step]
        rewards = {agent: {c: draw(csv_numbers) for c in components[agent]} for agent in active}
        records.append({
            "record": "step", "step": step, "sim_time": draw(csv_numbers),
            "observations": {}, "actions": {}, "platform_states": {}, "rewards": rewards,
            # no components total an int 0, as Environment.step sums them
            "reward_totals": {agent: draw(csv_numbers) if rewards[agent] else 0 for agent in active},
            "done_codes": {agent: draw(done_codes) if ends[agent] == step else None for agent in active},
        })
    values = st.one_of(st.floats(), st.integers(), st.sampled_from([math.nan, -0.0, 1e308, 5e-324]))
    parameters = draw(st.dictionaries(csv_names, st.fixed_dictionaries({"value": values, "unit": st.just("meter")})))
    header = {"record": "header", "schema_version": 1, "case_id": "c", "seed": 0, "parameters": parameters}
    outcome = {"record": "outcome", "final_outcome": {}, "truncated": False, "error": None}
    return [json.dumps(record, sort_keys=True) for record in [header, *records, outcome]]


def reference_csv(artifact: EpisodeArtifact, path) -> bytes:
    """The artifact's CSV log as ``csv.DictWriter`` writes it from the step records."""
    params = {f"param.{key}": p["value"] for key, p in artifact.parameters.items()}
    rows = []
    for step in recorded_steps(artifact):
        row = {"step": step["step"]}
        for agent, comps in step["rewards"].items():
            row.update({f"{agent}.reward.{comp}": value for comp, value in comps.items()})
            row[f"{agent}.reward_total"] = step["reward_totals"][agent]
        row.update({f"{agent}.done_code": code or "" for agent, code in step["done_codes"].items()})
        rows.append({**row, **params})
    columns = list(dict.fromkeys(["step", *(key for row in rows for key in row)]))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path.read_bytes()


def csv_projection(artifact: EpisodeArtifact) -> EpisodeArtifact:
    """A copy of the artifact whose rows hold only the CSV projection of their shapes, as ``run`` records them."""
    rows = []
    for layout, values in artifact.rows:
        value_at = {path: value for (path, _), value in zip(_compile(layout.shape)[1], values)}
        shape = layout.shape.csv_projection()
        rows.append((RecordLayout.of(shape), tuple([value_at[path] for path, _ in _compile(shape)[1]])))
    return replace(artifact, rows=rows)


class TestCsvTemplate:
    """``write_csv`` fills a compiled line template per layout; ``csv.DictWriter`` is its reference."""

    @settings(max_examples=200, deadline=None)
    @given(csv_episodes())
    def test_csv_is_what_dict_writer_writes(self, tmp_path_factory, lines):
        directory = tmp_path_factory.mktemp("csv")
        artifact = EpisodeArtifact.from_lines(lines)
        expected = reference_csv(artifact, directory / "reference.csv")
        assert artifact.write_csv(directory / "episode.csv").read_bytes() == expected
        projected = csv_projection(artifact)
        assert projected.write_csv(directory / "projected.csv").read_bytes() == expected

    def test_a_parameter_wins_over_a_step_column_of_its_name(self, tmp_path):
        # agent "param", component "a" and parameter "reward.a" all name the column "param.reward.a"
        record = {
            "record": "step", "step": 1, "sim_time": 1.0, "observations": {}, "actions": {},
            "rewards": {"param": {"a": 1.5}}, "reward_totals": {"param": 1.5}, "done_codes": {"param": "WIN"},
            "platform_states": {},
        }
        lines = lines_of([record])
        header = json.loads(lines[0])
        header["parameters"] = {"reward.a": {"value": 7, "unit": "none"}}
        lines[0] = json.dumps(header, sort_keys=True)
        artifact = EpisodeArtifact.from_lines(lines)
        written = artifact.write_csv(tmp_path / "episode.csv").read_bytes()
        assert written == reference_csv(artifact, tmp_path / "reference.csv")
        assert written.splitlines() == [b"step,param.reward.a,param.reward_total,param.done_code", b"1,7,1.5,WIN"]

    def test_projected_line_is_a_partial_record_that_does_not_load(self):
        record = {
            "record": "step", "step": 1, "sim_time": 1.0, "observations": {}, "actions": {"a": {"G": [0.5]}},
            "rewards": {"a": {"r": 1.0}}, "reward_totals": {"a": 1.0}, "done_codes": {"a": None},
            "platform_states": {},
        }
        artifact = csv_projection(artifact_of([record]))
        partial = {k: v for k, v in record.items() if k not in ("actions", "observations", "platform_states")}
        assert artifact.to_lines()[1] == json.dumps(partial, sort_keys=True)
        with pytest.raises(ArtifactError, match="missing keys \\['actions', 'observations', 'platform_states'\\]"):
            EpisodeArtifact.from_lines(artifact.to_lines())


def step_record(env: Environment, actions: dict, result) -> dict:
    """The step just taken as its artifact line records it."""
    return {
        "record": "step",
        "step": env.state.step_count,
        "sim_time": float(env.state.sim_time),
        "observations": {
            agent: {
                key: {"values": values.tolist(), "unit": env.agents[agent].observation_space()[key].unit.name}
                for key, values in obs.items()
            }
            for agent, obs in result.observations.items()
        },
        "actions": {
            agent: {glue: np.atleast_1d(np.asarray(frag, dtype=float)).tolist() for glue, frag in fragments.items()}
            for agent, fragments in actions.items()
        },
        "rewards": result.reward_components,
        "reward_totals": result.rewards,
        "done_codes": {agent: (code.value if code else None) for agent, code in result.done_codes.items()},
        "platform_states": {
            name: {k: float(v) for k, v in vars(p.state).items()} for name, p in env.simulator.platforms.items()
        },
    }


def spy_records(monkeypatch) -> list[dict]:
    """The record of every step an environment takes, built from the step
    and its result apart from the recorder: the reference for its rows."""
    records = []
    step = Environment.step

    def spying(env, actions):
        result = step(env, actions)
        records.append(step_record(env, actions, result))
        return result

    monkeypatch.setattr(Environment, "step", spying)
    return records


class TestCapture:
    @staticmethod
    def early_ending_config():
        """Two agents on one craft: agent_0 flies it, and agent_1, which only
        observes, ends with LOSS when the craft passes x = -9."""
        tree = docking_tree(agents=2, end_mode="all_agents_done", horizon=300)
        watcher = tree["agents"][1]
        watcher["parts"] = watcher["parts"][:2]
        watcher["glues"] = watcher["glues"][:2]
        watcher["policy"] = {"name": "scripted", "config": {"rule": "zero"}}
        tree["agents"][1]["dones"].append(
            {"functor": "StateBounds", "name": "Leash", "config": {"min": -20.0, "max": -9.0},
             "extractor": {"glue": "ObservePosition", "key": "direct_observation"}}
        )
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        return config

    def test_rows_write_the_records_every_step(self, monkeypatch):
        records = spy_records(monkeypatch)
        env = Environment(self.early_ending_config())
        artifact = evaluate_module.run_episode(env, seed=0)
        assert artifact.error is None
        assert artifact.final_outcome["agent_1"] == "LOSS" and artifact.final_outcome["agent_0"] is not None
        assert len(recorded_steps(artifact)[-1]["done_codes"]) == 1  # agent_1 ended first
        assert artifact.to_lines()[1:-1] == [json.dumps(r, sort_keys=True) for r in records]
        # an agent that ends switches the layout
        layouts = {id(layout) for layout, _ in artifact.rows}
        assert len(layouts) >= 2

    def test_rows_follow_an_omitted_fragment(self, monkeypatch):
        # the replayed policy gives no thrust on its third step, then thrust again
        replay = [{"ThrustControl": [0.5]}, {"ThrustControl": [0.5]}, {}, {"ThrustControl": [-0.2]}]
        tree = docking_tree(horizon=8, policy={"name": "replay", "config": {"actions": replay}})
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        records = spy_records(monkeypatch)
        artifact = evaluate_module.run_episode(Environment(config), seed=0)
        assert artifact.error is None and len(artifact.rows) == 8
        assert [r["actions"]["agent_0"] for r in records[1:4]] == [{"ThrustControl": [0.5]}, {}, {"ThrustControl": [-0.2]}]
        assert artifact.to_lines()[1:-1] == [json.dumps(r, sort_keys=True) for r in records]
        layouts = [layout for layout, _ in artifact.rows]
        assert layouts[2] is not layouts[1] and layouts[3] is layouts[1]

    def test_rows_record_every_declared_platform(self, monkeypatch):
        # a second craft, which no agent owns, is in every step of every episode
        tree = docking_tree(horizon=8)
        tree["platforms"].append({**copy.deepcopy(tree["platforms"][0]), "name": "spare"})
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        records = spy_records(monkeypatch)
        env = Environment(config)
        for seed in range(2):
            del records[:]
            artifact = evaluate_module.run_episode(env, seed=seed)
            assert artifact.error is None and len(artifact.rows) == 8
            assert all(sorted(r["platform_states"]) == ["deputy", "spare"] for r in records)
            assert artifact.to_lines()[1:-1] == [json.dumps(r, sort_keys=True) for r in records]

    def test_later_episodes_reuse_the_layouts(self, monkeypatch):
        records = spy_records(monkeypatch)
        env = Environment(self.early_ending_config())
        first = evaluate_module.run_episode(env, seed=0)
        del records[:]
        second = evaluate_module.run_episode(env, seed=1)
        assert second.to_lines()[1:-1] == [json.dumps(r, sort_keys=True) for r in records]
        assert {id(layout) for layout, _ in second.rows} <= {id(layout) for layout, _ in first.rows}

    def test_recorded_rows_are_their_lines_loaded(self):
        # the recorder's values sit in the slots the loader reads them from,
        # under the layouts the loader compiles for the lines' shapes
        artifact = evaluate_module.run_episode(Environment(self.early_ending_config()), seed=0)
        loaded = EpisodeArtifact.from_lines(artifact.to_lines())
        assert loaded.rows == artifact.rows
        assert all(a is b for (a, _), (b, _) in zip(loaded.rows, artifact.rows))

    def test_cartpole_rows_write_the_records(self, monkeypatch, cartpole_env_path):
        records = spy_records(monkeypatch)
        env = Environment(load_env_config(cartpole_env_path))
        for seed in range(3):
            del records[:]
            artifact = evaluate_module.run_episode(env, seed=seed)
            assert artifact.to_lines()[1:-1] == [json.dumps(r, sort_keys=True) for r in records]

    def test_csv_log_projects_the_step_records(self, tmp_path):
        # the projection as it is made from the step records is the reference
        # for the one made from full rows, and for the rows run records
        env = Environment(self.early_ending_config())
        artifact = evaluate_module.run_episode(env, seed=0)
        written = artifact.write_csv(tmp_path / "episode.csv").read_bytes()
        assert written == reference_csv(artifact, tmp_path / "reference.csv")
        assert b"agent_1.done_code" in written.splitlines()[0]
        projected = evaluate_module.run_episode(env, seed=0, projection=StepShape.csv_projection)
        assert len({id(layout) for layout, _ in projected.rows}) == 2  # agent_1 ends first
        assert projected.write_csv(tmp_path / "projected.csv").read_bytes() == written

    def test_pickled_artifact_writes_the_same_lines(self):
        env = Environment(self.early_ending_config())
        artifact = evaluate_module.run_episode(env, seed=0)
        blob = pickle.dumps(artifact)
        assert pickle.loads(blob).to_lines() == artifact.to_lines()
        # one copy of each layout's template per artifact
        for layout in {id(layout): layout for layout, _ in artifact.rows}.values():
            assert blob.count(layout.fmt.encode()) == 1


HEADER = {"record": "header", "schema_version": 1, "case_id": "c", "seed": 0, "parameters": {}}
STEP = {
    "record": "step", "step": 1, "sim_time": 1.0, "observations": {}, "actions": {},
    "rewards": {"a": {"r": 1.0}}, "reward_totals": {"a": 1.0}, "done_codes": {"a": None}, "platform_states": {},
}
OUTCOME = {"record": "outcome", "final_outcome": {"a": "WIN"}, "truncated": False, "error": None}


def without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


MALFORMED = {
    "step_missing_a_key": (1, without(STEP, "rewards")),
    "step_with_an_extra_key": (1, {**STEP, "extra": 1}),
    "record_is_a_list": (1, [1, 2]),
    "record_is_a_number": (1, 5),
    "step_reward_not_a_number": (1, {**STEP, "rewards": {"a": {"r": "high"}}}),
    "step_totals_for_other_agents": (1, {**STEP, "reward_totals": {"b": 1.0}}),
    "step_done_code_not_a_string": (1, {**STEP, "done_codes": {"a": 3}}),
    "step_number_is_text": (1, {**STEP, "step": "1"}),
    "step_observation_values_not_an_array": (1, {**STEP, "observations": {"a": {"O": {"values": "far", "unit": "m"}}}}),
    "step_observation_with_an_extra_key": (
        1, {**STEP, "observations": {"a": {"O": {"values": [1.0], "unit": "m", "extra": 1}}}}
    ),
    "step_action_element_is_boolean": (1, {**STEP, "actions": {"a": {"G": [True]}}}),
    "step_platform_state_not_a_number": (1, {**STEP, "platform_states": {"p": {"x": "far"}}}),
    "header_without_case_id": (0, without(HEADER, "case_id")),
    "header_seed_not_an_integer": (0, {**HEADER, "seed": True}),
    "header_of_schema_version_99": (0, {**HEADER, "schema_version": 99}),
    "header_without_schema_version": (0, without(HEADER, "schema_version")),
    "header_with_an_extra_key": (0, {**HEADER, "extra": 1}),
    "outcome_error_not_a_string": (2, {**OUTCOME, "error": 3}),
    "outcome_without_final_outcome": (2, without(OUTCOME, "final_outcome")),
}


#: values of the wrong type for a number, the step number and a done code
WRONG_LEAVES = {
    "number": st.one_of(st.booleans(), st.text(max_size=3)),
    "step": st.floats(),
    "code": st.one_of(st.integers(), st.floats()),
}


def leaves(record: dict) -> list[tuple[tuple, str]]:
    """(path, kind of WRONG_LEAVES) of every value of a step record."""
    out = [(("step",), "step"), (("sim_time",), "number")]
    out += [(("done_codes", agent), "code") for agent in record["done_codes"]]
    out += [
        (("actions", agent, glue, i), "number")
        for agent, fragments in record["actions"].items() for glue, fragment in fragments.items()
        for i in range(len(fragment))
    ]
    out += [
        (("observations", agent, name, "values", i), "number")
        for agent, by_name in record["observations"].items() for name, observation in by_name.items()
        for i in range(len(observation["values"]))
    ]
    out += [(("platform_states", p, k), "number") for p, state in record["platform_states"].items() for k in state]
    out += [(("reward_totals", agent), "number") for agent in record["reward_totals"]]
    out += [(("rewards", agent, c), "number") for agent, by_name in record["rewards"].items() for c in by_name]
    return out


class TestMalformed:
    @staticmethod
    def write(tmp_path, index: int, record) -> tuple:
        records = [HEADER, STEP, OUTCOME]
        records[index] = record
        path = tmp_path / "artifact_c.jsonl"
        # a blank line first: line numbers count every line of the file
        path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in records))
        return path, index + 2

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_names_file_and_line(self, tmp_path, case):
        path, line = self.write(tmp_path, *MALFORMED[case])
        with pytest.raises(ArtifactError) as info:
            EpisodeArtifact.load(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert str(info.value).count("artifact_c.jsonl") == 1

    def test_mistyped_step_after_a_step_of_its_shape(self, tmp_path):
        path = tmp_path / "artifact_c.jsonl"
        records = [HEADER, STEP, {**STEP, "step": 2.0}, OUTCOME]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}:3: .*'step' must be an integer"):
            EpisodeArtifact.load(path)

    def test_well_formed_file_loads(self, tmp_path):
        path, _ = self.write(tmp_path, 1, STEP)
        artifact = EpisodeArtifact.load(path)
        assert len(artifact.rows) == 1 and recorded_steps(artifact)[0]["reward_totals"] == {"a": 1.0}

    @settings(max_examples=200, deadline=None)
    @given(step_records(), st.data(), st.booleans())
    def test_mistyped_leaf_names_its_line(self, record, data, earlier):
        # one leaf of a valid line changed to a wrong type; ``earlier`` puts
        # the valid line, of the same shape, before it
        path, kind = data.draw(st.sampled_from(leaves(record)))
        mistyped = copy.deepcopy(record)
        *parents, last = path
        node = mistyped
        for key in parents:
            node = node[key]
        node[last] = data.draw(WRONG_LEAVES[kind])
        records = [record, mistyped] if earlier else [mistyped]
        with pytest.raises(ArtifactError) as info:
            EpisodeArtifact.from_lines(lines_of(records), source="f.jsonl")
        assert str(info.value).startswith(f"f.jsonl:{len(records) + 1}: ")
        assert f"'{'/'.join(map(str, path))}' must be" in str(info.value)

    @pytest.mark.parametrize("case", ["step_missing_a_key", "record_is_a_list", "header_without_case_id"])
    def test_metrics_command_reports_artifact_error(self, tmp_path, capsys, case):
        path, line = self.write(tmp_path, *MALFORMED[case])
        write_manifest(tmp_path, ["c"])
        code = main(["metrics", "--metrics", str(DOCKING / "metrics.yml"), "--out", str(tmp_path)])
        assert code == 1
        assert f"error: ArtifactError: {path}:{line}: " in capsys.readouterr().err


class NaNReward(Reward):
    """A broken reward: NaN on every step."""

    def evaluate(self, state, done_results):
        return math.nan


class TestNonFiniteReward:
    @pytest.fixture()
    def env_file(self, tmp_path, monkeypatch):
        monkeypatch.setitem(FUNCTOR_REGISTRY, "NaNReward", NaNReward)
        tree = docking_tree(horizon=40)
        tree["agents"][0]["rewards"].append({"functor": "NaNReward", "name": "Broken"})
        path = tmp_path / "environment.yml"
        path.write_text(yaml.safe_dump(tree))
        return path

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_staged_run_matches_pipeline(self, tmp_path, capsys, env_file, workers):
        cases = tmp_path / "cases.yml"
        cases.write_text(yaml.safe_dump({"test_cases": [
            {"name": "near", "parameters": {"deputy.x0": -5.0}},
            {"name": "far", "parameters": {"deputy.x0": -150.0}},
        ]}))
        common = ["--env", str(env_file), "--cases", str(cases), "--workers", workers]
        staged, piped = tmp_path / "staged", tmp_path / "piped"
        assert main(["evaluate", *common, "--out", str(staged)]) == 0
        assert main(["metrics", "--metrics", str(DOCKING / "metrics.yml"), "--out", str(staged)]) == 0
        assert main(["visualize", "--viz", str(DOCKING / "viz.yml"), "--out", str(staged)]) == 0
        assert main(["pipeline", *common, "--metrics", str(DOCKING / "metrics.yml"),
                     "--viz", str(DOCKING / "viz.yml"), "--out", str(piped)]) == 0
        staged_files = {p.name: p.read_bytes() for p in staged.iterdir()}
        assert staged_files == {p.name: p.read_bytes() for p in piped.iterdir()}

        lines = (staged / "artifact_near.jsonl").read_text().splitlines()
        step = json.loads(lines[1])
        assert math.isnan(step["rewards"]["agent_0"]["Broken"]) and math.isnan(step["reward_totals"]["agent_0"])
        assert lines[1] == json.dumps(step, sort_keys=True) and '"Broken": NaN' in lines[1]
        metrics = json.loads((staged / "metrics.json").read_text())
        assert math.isnan(metrics["total_reward"]["value"]["near"]["agent_0"])

    def test_rows_hold_the_nan(self, env_file):
        artifact = evaluate(load_env_config(env_file), [TestCase("near", {"deputy.x0": -5.0})], env_file.parent / "o")[0]
        _, values = artifact.rows[0]
        assert any(isinstance(v, float) and math.isnan(v) for v in values)
        line = artifact.to_lines()[1]
        assert line == json.dumps(json.loads(line), sort_keys=True) and "NaN" in line
