import json

import pytest
import yaml

from envforge.config import loader
from envforge.config.serialize import environment_config_to_tree
from envforge.config.validate import (
    ErrorCode,
    validate_environment,
    validate_environment_file,
)
from envforge.epp import Uniform

from conftest import CONFIG_DIR, DATA_DIR

INVALID_DIR = DATA_DIR / "invalid"


class TestLoader:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "c.yml"
        path.write_text("a: 1\nb: [1, 2]\n")
        assert loader.load_config(path) == {"a": 1, "b": [1, 2]}

    def test_include_splices_lists(self, tmp_path):
        (tmp_path / "inner.yml").write_text("- x\n- y\n")
        (tmp_path / "outer.yml").write_text("items:\n  - a\n  - include: inner.yml\n  - b\n")
        assert loader.load_config(tmp_path / "outer.yml") == {"items": ["a", "x", "y", "b"]}

    def test_include_single_document(self, tmp_path):
        (tmp_path / "inner.yml").write_text("k: v\n")
        (tmp_path / "outer.yml").write_text("items:\n  - include: inner.yml\n")
        assert loader.load_config(tmp_path / "outer.yml") == {"items": [{"k": "v"}]}

    def test_nested_includes_resolve_relative(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "leaf.yml").write_text("- leaf\n")
        (sub / "mid.yml").write_text("- include: leaf.yml\n")
        (tmp_path / "root.yml").write_text("items:\n  - include: sub/mid.yml\n")
        assert loader.load_config(tmp_path / "root.yml") == {"items": ["leaf"]}

    def test_missing_file(self, tmp_path):
        with pytest.raises(loader.FileNotFound):
            loader.load_config(tmp_path / "nope.yml")

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.yml"
        path.write_text("a: {b: 1\nc: }\n")
        with pytest.raises(loader.ParseError) as excinfo:
            loader.load_config(path)
        assert excinfo.value.line > 0

    def test_include_cycle(self, tmp_path):
        (tmp_path / "a.yml").write_text("- include: b.yml\n")
        (tmp_path / "b.yml").write_text("- include: a.yml\n")
        with pytest.raises(loader.IncludeCycle):
            loader.load_config(tmp_path / "a.yml")

    def test_self_include_cycle(self, tmp_path):
        (tmp_path / "a.yml").write_text("- include: a.yml\n")
        with pytest.raises(loader.IncludeCycle):
            loader.load_config(tmp_path / "a.yml")

    def test_diamond_include_is_not_a_cycle(self, tmp_path):
        (tmp_path / "shared.yml").write_text("- s\n")
        (tmp_path / "root.yml").write_text(
            "a:\n  - include: shared.yml\nb:\n  - include: shared.yml\n"
        )
        assert loader.load_config(tmp_path / "root.yml") == {"a": ["s"], "b": ["s"]}


def load_expected():
    return json.loads((INVALID_DIR / "expected.json").read_text())


class TestInvalidCorpus:
    def test_corpus_has_at_least_ten_files(self):
        assert len(load_expected()) >= 10

    @pytest.mark.parametrize("filename", sorted(load_expected()))
    def test_expected_error_at_expected_path(self, filename):
        # Golden-file test: every invalid config yields exactly the recorded
        # error codes at the recorded paths.
        expected = load_expected()[filename]
        config, report = validate_environment_file(INVALID_DIR / filename)
        assert config is None
        got = [{"code": e.code.value, "path": e.path} for e in report.errors]
        assert got == expected

    def test_every_corpus_file_is_listed(self):
        listed = set(load_expected())
        present = {p.name for p in INVALID_DIR.glob("*.yml")}
        assert present == listed


class TestValidConfigs:
    def test_docking_environment_zero_errors(self):
        config, report = validate_environment_file(CONFIG_DIR / "docking" / "environment.yml")
        assert str(report) == "0 errors"
        assert config is not None
        assert config.simulator_name == "Docking1dSimulator"
        assert config.horizon == 2000
        agent = config.agents[0]
        assert [g.name for g in agent.glues] == [
            "ObservePosition",
            "ObserveVelocity",
            "ThrustControl",
        ]
        assert {d.name for d in agent.dones} == {"DockingSuccess", "DockingFailure"}
        assert {r.name for r in agent.rewards} == {"DistanceShaping", "OutcomeReward"}
        assert set(config.reference_store) == {"dock_radius", "v_max"}

    def test_cartpole_environment_zero_errors(self):
        config, report = validate_environment_file(CONFIG_DIR / "cartpole" / "environment.yml")
        assert report.ok, str(report)
        assert isinstance(config.platforms[0].initialization["x0"].distribution, Uniform)

    def test_validation_is_total(self):
        # A config with several independent problems reports all of them.
        tree = {
            "simulator": {"name": "WarpDriveSimulator"},
            "platforms": [{"name": "p", "platform_type": "T"}],
            "horizon": 0,
            "agents": [
                {
                    "agent": "a",
                    "platforms": ["ghost"],
                    "parts": [{"part": "Sensor_Nope"}],
                    "glues": [{"functor": "NoSuchGlue"}],
                }
            ],
        }
        config, report = validate_environment(tree)
        assert config is None
        codes = {e.code for e in report.errors}
        assert {
            ErrorCode.UNKNOWN_FUNCTOR,
            ErrorCode.TYPE_MISMATCH,
            ErrorCode.UNKNOWN_PART_GROUP,
        } <= codes
        assert len(report.errors) >= 4

    def test_errors_in_document_order(self):
        # a section's keys in document order, then the required keys it lacks
        tree = {
            "platforms": "not_a_list",
            "horizon": -1,
            "agents": [],
        }
        _, report = validate_environment(tree)
        paths = [e.path for e in report.errors]
        assert paths == ["platforms", "horizon", "simulator"]


class TestDuplicateNames:
    """Two different top-level specs of one agent may not share a display name."""

    def tree(self, glues, dones):
        tree = yaml.safe_load((INVALID_DIR / "duplicate_name.yml").read_text())
        tree["agents"][0]["glues"] = glues
        tree["agents"][0]["dones"] = dones
        return tree

    observe = {"functor": "ObserveSensor", "name": "O", "config": {"sensor": "Sensor_Position"}}

    def bounds(self, name=None, bound=20.0, wrapped="O"):
        spec = {"functor": "StateBounds", "config": {"min": -bound, "max": bound}, "wrapped": wrapped}
        if name is not None:
            spec["name"] = name
        return spec

    def codes(self, tree):
        _, report = validate_environment(tree)
        return [(e.code.value, e.path) for e in report.errors]

    def test_identical_specs_may_repeat(self):
        assert self.codes(self.tree([self.observe], [self.bounds("B"), self.bounds("B")])) == []

    def test_nested_specs_may_share_a_name(self):
        # both wrapped TargetValueDifference specs are displayed under the functor name
        # (the position has one element, so each differs by its target)
        def tvd(target):
            return {"functor": "TargetValueDifference", "config": {"target_value": target}, "wrapped": "O"}

        dones = [self.bounds("A", wrapped=tvd(0.0)), self.bounds("B", wrapped=tvd(1.0))]
        assert self.codes(self.tree([self.observe], dones)) == []

    def test_unnamed_specs_share_the_functor_name(self):
        dones = [self.bounds(), self.bounds(bound=5.0)]
        assert self.codes(self.tree([self.observe], dones)) == [("DuplicateName", "agents/0/dones/1")]

    def test_one_namespace_across_lists(self):
        dones = [self.bounds("O")]
        assert self.codes(self.tree([self.observe], dones)) == [("DuplicateName", "agents/0/dones/0")]


class TestSerialization:
    def test_round_trip_through_validation(self):
        config, _ = validate_environment_file(CONFIG_DIR / "docking" / "environment.yml")
        tree = environment_config_to_tree(config)
        # The tree must be plain-data (JSON and YAML serializable) and
        # revalidate to an equivalent config.
        json.dumps(tree)
        reparsed, report = validate_environment(yaml.safe_load(yaml.safe_dump(tree)))
        assert report.ok, str(report)
        assert environment_config_to_tree(reparsed) == tree
