import json
import math

import pytest
import yaml

from hypothesis import given, settings
from hypothesis import strategies as st

from envforge.config import EpisodeEndMode, PartConfig, SpaceCheckMode, loader
from envforge.config.validate import (
    EPISODE_PARAMETER_PROVIDER,
    FUNCTOR,
    PARAMETER,
    ErrorCode,
    environment_tree,
    validate_environment,
    validate_environment_file,
)
from envforge.environment import Environment
from envforge.epp import DISTRIBUTION_KINDS, Distribution, UnsampleableParameter, Uniform
from envforge.functors.base import FunctorSpec
from envforge.params import dump_params, table
from envforge.units import REGISTRY

from conftest import CONFIG_DIR, DATA_DIR
from test_environment import curriculum_tree, docking_tree

INVALID_DIR = DATA_DIR / "invalid"

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: a unit as a config may write it: a registered name in any case, padded or
#: not, or the alias N/A
WRITTEN_UNITS = st.sampled_from(sorted(REGISTRY)).flatmap(
    lambda name: st.sampled_from([name, name.upper(), f" {name.title()} "])
) | st.sampled_from(["N/A", "n/a"])


@st.composite
def distribution_trees(draw):
    """A ``{kind, ...}`` mapping of each kind, its hyperparameters finite, and
    so is a uniform's width."""
    kind = draw(st.sampled_from(sorted(DISTRIBUTION_KINDS)))
    if kind == "constant":
        return {"kind": kind, "value": draw(FINITE)}
    if kind == "uniform":
        bounds = st.lists(FINITE, min_size=2, max_size=2).map(sorted)
        low, high = draw(bounds.filter(lambda b: math.isfinite(b[1] - b[0])))
        return {"kind": kind, "low": low, "high": high}
    if kind == "truncated_gaussian":
        low, high = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
        sigma = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        return {"kind": kind, "mu": draw(FINITE), "sigma": sigma, "low": low, "high": high}
    values = draw(st.lists(FINITE, min_size=1, max_size=4))
    tree = {"kind": kind, "values": values}
    if draw(st.booleans()):
        weights = st.lists(st.floats(0.0, 1e6), min_size=len(values), max_size=len(values))
        tree["weights"] = draw(weights.filter(lambda w: sum(w) > 0))
    return tree


@st.composite
def parameter_trees(draw):
    """A parameter entry: a bare number, or a distribution with a written
    unit and 0-2 updaters, each with and without ``limit``."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(FINITE)
    distribution = draw(distribution_trees())
    tree = {"distribution": distribution, "unit": draw(WRITTEN_UNITS)}
    mutable = DISTRIBUTION_KINDS[distribution["kind"]].mutable
    updaters = []
    for _ in range(draw(st.integers(0, 2)) if mutable else 0):
        updater = {"target": draw(st.sampled_from(mutable)), "step": draw(FINITE)}
        if draw(st.booleans()):
            updater["limit"] = draw(FINITE)
        updaters.append(updater)
    if updaters or draw(st.booleans()):
        tree["updaters"] = updaters
    return tree


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


#: every YAML file shipped or used by the tests
YAML_FILES = sorted([*CONFIG_DIR.rglob("*.yml"), *DATA_DIR.rglob("*.yml")])
#: malformed YAML that each parser marks at the same line and column, in its own words
MALFORMED = ["a:\n\tb: 1\n", "a: [1, 2\n", "- a\nb: 1\n", "a: &x 1\nb: *y\n", "a: 1\n---\nb: 2\n", "? [1]\n: 2\n"]


def parsed(path, yaml_loader, monkeypatch):
    """What ``load_config`` makes of ``path`` with ``yaml_loader``: the repr
    of its tree (which tells 1 from 1.0 and True), or the class of its error,
    the class of the YAML error under it, and the line and column it marks."""
    with monkeypatch.context() as patch:
        patch.setattr(loader, "SAFE_LOADER", yaml_loader)
        try:
            return repr(loader.load_config(path))
        except loader.ConfigLoadError as exc:
            return type(exc), type(exc.__cause__), getattr(exc, "line", None), getattr(exc, "column", None)


class TestYamlLoaders:
    """The loader's YAML parser builds the trees PyYAML's ``SafeLoader`` builds."""

    def test_libyaml_when_pyyaml_has_it(self):
        assert loader.SAFE_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    @pytest.mark.parametrize("yaml_loader", [loader.SAFE_LOADER, yaml.SafeLoader], ids=["default", "fallback"])
    def test_every_file_loads_as_with_safeloader(self, yaml_loader, monkeypatch, tmp_path):
        malformed = []
        for i, text in enumerate(MALFORMED):
            malformed.append(tmp_path / f"malformed_{i}.yml")
            malformed[-1].write_text(text)
        failed = 0
        for path in [*YAML_FILES, *malformed]:
            got = parsed(path, yaml_loader, monkeypatch)
            assert got == parsed(path, yaml.SafeLoader, monkeypatch), path
            failed += not isinstance(got, str)
        assert failed > len(MALFORMED)  # and the corpus's parse_error.yml


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

    def test_unsampleable_distribution_fails_the_first_reset_at_its_path(self, monkeypatch):
        # the build draws nothing, so a distribution that validates but raises
        # when drawn from builds, and the first reset reports it at its path
        monkeypatch.setattr(Uniform, "validate", Distribution.validate)
        config, report = validate_environment_file(INVALID_DIR / "unsampleable_uniform.yml")
        assert report.ok, str(report)
        env = Environment(config)
        with pytest.raises(UnsampleableParameter, match="cannot be sampled") as caught:
            env.reset(seed=0)
        assert [(path, code) for path, code, _ in caught.value.errors] == [
            ("reference_store/spread/distribution", "TypeMismatch")
        ]


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

    def test_each_config_holds_its_own_sections_left_out(self):
        # docking_tree leaves out shared_dones and each agent's reference_store
        # and episode_parameter_provider: each parse fills them afresh
        first, _ = validate_environment(docking_tree(agents=2))
        first.shared_dones.append(first.agents[0].dones[0])
        first.agents[0].reference_store["gain"] = first.reference_store["v_max"]
        first.agents[0].parameters["gain"] = first.reference_store["v_max"]
        second, report = validate_environment(docking_tree(agents=2))
        assert report.ok, str(report)
        assert second.shared_dones == []
        assert [(a.reference_store, a.parameters) for a in (first.agents[1], *second.agents)] == [({}, {})] * 3

    @pytest.mark.parametrize(
        "mode", ["spot_check", {"spot_check": 0.5}, "EVERY_STEP"], ids=["spot_check", "spot_check_mapping", "member_name"]
    )
    def test_space_check_mode_other_than_every_step_or_off_is_one_error(self, mode):
        config, report = validate_environment(docking_tree(space_check=mode))
        assert config is None
        assert [(e.path, e.code.value) for e in report.errors] == [("space_check_mode", "TypeMismatch")]


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


def assert_round_trip(config):
    """``validate_environment`` reads ``environment_tree(config)``, plain data
    sent through YAML, back as ``config``, which it writes as the same tree."""
    tree = environment_tree(config)
    json.dumps(tree)
    reparsed, report = validate_environment(yaml.safe_load(yaml.safe_dump(tree)))
    assert reparsed == config, str(report)
    assert environment_tree(reparsed) == tree


def shapes_tree():
    """A docking tree with the functor shapes no shipped config uses: a keyed
    ``wrapped`` mapping, a list of wrapped children, a wrapped child given by
    name, an extractor without ``key``, and an empty ``wrapped``, which is none."""
    position = {"functor": "ObserveSensor", "config": {"sensor": "Sensor_Position", "normalize": False}}
    tree = docking_tree(
        extra_glues=[
            {"functor": "Difference", "name": "Gap", "wrapped": {"first": "ObservePosition", "second": position}},
            {"functor": "Wrapper", "name": "Both", "wrapped": ["ObservePosition", "ObserveVelocity"]},
            {"functor": "Norm", "name": "Speed", "extractor": {"glue": "ObserveVelocity"}},
        ]
    )
    tree["agents"][0]["dones"].append(
        {"functor": "StateBounds", "name": "Far", "config": {"min": -100.0, "max": 100.0}, "wrapped": "ObservePosition"}
    )
    tree["agents"][0]["rewards"][1]["wrapped"] = []
    return tree


class TestRoundTrip:
    """``environment_tree`` writes what ``validate_environment`` reads back as the same config."""

    @pytest.mark.parametrize(
        "path", ["docking/environment.yml", "docking/environment_short.yml", "cartpole/environment.yml"]
    )
    def test_shipped_configs(self, path):
        config, report = validate_environment_file(CONFIG_DIR / path)
        assert config is not None, str(report)
        assert_round_trip(config)

    @pytest.mark.parametrize(
        "tree",
        [
            docking_tree(),
            docking_tree(agents=2, end_mode="all_agents_done", policy={"name": "random"}),
            docking_tree(space_check="off", dones=False),
            curriculum_tree(),
            shapes_tree(),
        ],
        ids=["default", "two_agents", "no_dones", "updaters", "functor_shapes"],
    )
    def test_test_trees(self, tree):
        config, report = validate_environment(tree)
        assert config is not None, str(report)
        assert_round_trip(config)

    def test_functor_shapes_are_written_as_given(self):
        config, _ = validate_environment(shapes_tree())
        agent = environment_tree(config)["agents"][0]
        glues = {glue["name"]: glue for glue in agent["glues"]}
        assert glues["Gap"]["wrapped"]["first"] == "ObservePosition"
        assert glues["Gap"]["wrapped"]["second"]["functor"] == "ObserveSensor"
        assert glues["Both"]["wrapped"] == ["ObservePosition", "ObserveVelocity"]
        assert glues["Speed"]["extractor"] == {"glue": "ObserveVelocity"}
        assert agent["dones"][-1]["wrapped"] == "ObservePosition"

    def test_empty_sections_are_left_out(self):
        config, _ = validate_environment(docking_tree(policy={"name": "random", "config": {}}))
        tree = environment_tree(config)
        assert tree["agents"][0]["policy"] == {"name": "random"}
        assert "shared_dones" not in tree
        assert "updaters" not in tree["reference_store"]["v_max"]

    @settings(max_examples=200, deadline=None)
    @given(parameter=parameter_trees())
    def test_parameter_spec_parse_of_dump(self, parameter):
        # a parameter store is read by its section's converter, which raises for any error
        read = table(EPISODE_PARAMETER_PROVIDER)
        spec = read({"parameters": {"p": parameter}})["parameters"]["p"]
        written = json.loads(json.dumps(dump_params(PARAMETER, vars(spec))))
        again = read({"parameters": {"p": written}})["parameters"]["p"]
        assert again == spec
        assert dump_params(PARAMETER, vars(again)) == written

    @settings(max_examples=30, deadline=None)
    @given(
        end_mode=st.sampled_from([mode.value for mode in EpisodeEndMode]),
        space_check=st.sampled_from([mode.value for mode in SpaceCheckMode]),
    )
    def test_modes_parse_of_dump(self, end_mode, space_check):
        config, report = validate_environment(docking_tree(end_mode=end_mode, space_check=space_check))
        assert config is not None, str(report)
        assert_round_trip(config)


def node_at(tree, path: str, base_dir):
    """The node at the config ``path`` of the loaded ``tree``; an agent file
    named on the way is loaded, relative to ``base_dir``."""
    node = tree
    for key in path.split("/"):
        if isinstance(node, str):
            node = loader.load_config(base_dir / node)
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def entries(config):
    """Every functor entry of ``config`` (shared dones, then each agent's
    lists, each followed by its wrapped children) and every part entry."""

    def walk(spec):
        yield spec
        wrapped = spec.wrapped
        children = wrapped if isinstance(wrapped, list) else [wrapped]
        if isinstance(wrapped, dict):
            children = wrapped.values()
        for child in children:
            if isinstance(child, FunctorSpec):
                yield from walk(child)

    agents = config.agents
    for spec in [*config.shared_dones, *(s for a in agents for s in (*a.glues, *a.dones, *a.rewards))]:
        yield from walk(spec)
    yield from (part for agent in agents for part in agent.parts)


def entry_paths_tree():
    """``shapes_tree`` with a part given by its bare group name and a list of
    wrapped children that holds a functor entry."""
    tree = shapes_tree()
    agent = tree["agents"][0]
    agent["parts"][0] = agent["parts"][0]["part"]
    position = {"functor": "ObserveSensor", "config": {"sensor": "Sensor_Position", "normalize": False}}
    agent["glues"].append({"functor": "Wrapper", "name": "Listed", "wrapped": ["ObserveVelocity", position]})
    return tree


class TestEntryPaths:
    """Each functor and part entry that ``validate`` returns carries the config
    path of the entry it was read from, where the build reports its errors."""

    @pytest.mark.parametrize(
        "path",
        [
            "docking/environment.yml",
            "docking/environment_short.yml",
            "docking/environment_two_agents.yml",
            "cartpole/environment.yml",
            None,
        ],
        ids=["docking", "docking_short", "docking_two_agents", "cartpole", "entry_shapes"],
    )
    def test_each_entry_path_names_its_entry(self, path):
        if path is None:
            tree, base_dir = entry_paths_tree(), CONFIG_DIR
            config, report = validate_environment(tree)
        else:
            tree, base_dir = loader.load_config(CONFIG_DIR / path), (CONFIG_DIR / path).parent
            config, report = validate_environment_file(CONFIG_DIR / path)
        assert config is not None, str(report)
        found = list(entries(config))
        paths = [entry.path for entry in found]
        assert len(set(paths)) == len(paths) and "" not in paths, paths
        for entry in found:
            node = node_at(tree, entry.path, base_dir)
            if isinstance(entry, PartConfig):
                written = (node, {}) if isinstance(node, str) else (node["part"], node.get("config", {}))
                assert written == (entry.group, entry.config), entry.path
            else:
                assert FunctorSpec(**table(FUNCTOR)(node)) == entry, entry.path

    def test_every_kind_of_entry_is_covered(self):
        config, report = validate_environment(entry_paths_tree())
        two_agents, _ = validate_environment_file(CONFIG_DIR / "docking" / "environment_two_agents.yml")
        cartpole, _ = validate_environment_file(CONFIG_DIR / "cartpole" / "environment.yml")
        paths = {entry.path for c in (config, two_agents, cartpole) for entry in entries(c)}
        assert {
            "agents/0/parts/0",  # a bare group name
            "agents/0/glues/3/wrapped/second",  # a keyed child
            "agents/0/glues/6/wrapped/1",  # a listed child
            "shared_dones/0/wrapped",  # a single child, of a shared done
            "agents/0/dones/0/wrapped/sensor",  # a keyed child, in an agent file's included list
            "agents/1/rewards/1",  # an entry of a second agent, written inline after an agent file
        } <= paths
