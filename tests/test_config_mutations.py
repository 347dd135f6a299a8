"""Config mutations through `validate`, the build and the first episodes.

Each example takes the `run_config.json` tree of a shipped config and
mutates one node of it: drops a key, repeats or drops a list entry, or sets
the node to a drawn value.  Whatever the mutant, `validate_environment`
returns a report and never raises; every error names a path inside the
tree; and a config with 0 errors builds and runs two seeded episodes whose
artifacts record no error but the ones listed in `ALLOWED_ERRORS`.
"""

import copy
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from envforge.config.validate import environment_tree, validate_environment
from envforge.environment import Environment
from envforge.evaluation.evaluate import run_episode

from conftest import CONFIG_DIR, load_env_config

SHIPPED = [
    "docking/environment.yml",
    "docking/environment_short.yml",
    "docking/environment_two_agents.yml",
    "cartpole/environment.yml",
]
#: the run_config.json tree of each shipped config: agents inlined, defaults written
TREES = {name: environment_tree(load_env_config(CONFIG_DIR / name)) for name in SHIPPED}

#: the values a node is set to: each kind of scalar a config value can be
#: wrongly given, the float edges, and empty containers
VALUES = [
    None, True, False, 0, 1, -1, 1.0e308, -1.0e308, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 1e-310, "", "meter", {}, [],
]

#: the only errors a run of a config that validates may record, each with its reason
ALLOWED_ERRORS = {
    # a drawn value the dynamics cannot carry (thetadot0 near 1e308 makes
    # cart-pole's thetadot**2 overflow): the step names the platform and its state
    "SimulationDiverged: ": "simulator arithmetic left what a float holds",
}


def nodes(tree, path=()):
    """The path, as a tuple of keys and indices, of every node of ``tree``."""
    yield path
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield from nodes(child, (*path, key))


@st.composite
def mutants(draw):
    """(shipped config, its tree with one node dropped, repeated or set)."""
    name = draw(st.sampled_from(SHIPPED))
    tree = copy.deepcopy(TREES[name])
    path = draw(st.sampled_from(list(nodes(tree))[1:]))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    operation = draw(st.sampled_from(["drop", "repeat", "set"] if isinstance(parent, list) else ["drop", "set"]))
    if operation == "drop":
        del parent[key]
    elif operation == "repeat":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(st.sampled_from(VALUES))
    return name, tree


def with_value(name: str, path: tuple, value):
    """(``name``, its tree with the node at ``path`` set to ``value``)."""
    tree = copy.deepcopy(TREES[name])
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return name, tree


def without_action_glue(name: str, agent: int):
    """(``name``, its tree with the agent's scripted policy config cut to its
    rule and its ThrustControl glue dropped): two edits, after which the
    rule's ``action_glue`` defaults to a glue the agent lacks."""
    tree = copy.deepcopy(TREES[name])
    entry = tree["agents"][agent]
    entry["policy"]["config"] = {"rule": "bang_bang_docking"}
    entry["glues"] = [glue for glue in entry["glues"] if glue["name"] != "ThrustControl"]
    return name, tree


def names_a_node(tree, path: str, code: str) -> bool:
    """Whether ``path`` names a node of ``tree``.  A ``MissingField`` names
    a key that a mapping of the tree lacks, or one below it that a section
    left out, and so defaulted to an empty mapping, lacks (``config/<key>``);
    a key written with no value (None) is an empty mapping."""
    parts = path.split("/") if path else []
    node = tree
    for part in parts:
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return code == "MissingField" and (node is None or isinstance(node, dict))
    return True


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
# a drawn value the simulator's arithmetic overflows on: cart-pole's thetadot**2
@example(with_value(
    "cartpole/environment.yml", ("platforms", 0, "initialization", "thetadot0", "distribution", "low"), -1.0e308
))
# a value no float holds once converted to the unit the simulator reads
@example(with_value(
    "docking/environment.yml",
    ("platforms", 0, "initialization", "x0"),
    {"distribution": {"kind": "constant", "value": 1.0e306}, "unit": "kilometer"},
))
# a default that names what the agent lacks: reported at the policy config, which the tree has
@example(without_action_glue("docking/environment_two_agents.yml", 1))
def test_mutated_config_is_reported_at_its_paths_or_builds_and_runs(mutant):
    name, tree = mutant
    config, report = validate_environment(tree, base_dir=(CONFIG_DIR / name).parent)
    assert (config is None) == (not report.ok)
    for error in report.errors:
        assert names_a_node(tree, error.path, error.code.value), f"{name}: {error}"
    if config is None:
        return
    env = Environment(config)
    for seed in (0, 1):
        error = run_episode(env, seed).error
        assert error is None or error.startswith(tuple(ALLOWED_ERRORS)), f"{name}, seed {seed}: {error}"
