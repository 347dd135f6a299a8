"""Agent composition: platform assignments plus wired glue/reward/done maps."""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType

from .config.schema import AgentConfig
from .functors.base import PartBindingError
from .functors.graph import CompiledGraph, build_graph
from .params import parse_params
from .parts import GLOBAL_REGISTRY, Box, PartError, Platform, PluginRegistry
from .policies import POLICY_REGISTRY, Policy, PolicyError


class Agent:
    """A named agent: its platforms, compiled functor graph, and policy handle."""

    def __init__(
        self,
        name: str,
        platform_names: list[str],
        graph: CompiledGraph,
        policy: Policy,
    ):
        self.name = name
        self.platform_names = platform_names
        self.graph = graph
        self.policy = policy
        #: glue name -> node, for the glues that take an action fragment
        self.action_glues = {
            node.name: node for node in graph.glues if node.action_space is not None
        }
        #: (observation name '<glue name>/<key>', glue node, key, box) for
        #: every observation entry of the agent's glues, in glue order
        self.observation_layout = [
            (f"{node.name}/{key}", node, key, box)
            for node in graph.glues
            for key, box in node.observation_space.items()
        ]
        self._action_space = MappingProxyType({
            name: node.action_space for name, node in self.action_glues.items()
        })

    def observation_space(self) -> Mapping[str, Box]:
        """Union of top-level glue observations, keyed '<glue name>/<key>'."""
        return MappingProxyType({name: box for name, _, _, box in self.observation_layout})

    def action_space(self) -> Mapping[str, Box]:
        """Action fragments of controller-backed glues, keyed by glue name.

        The same read-only mapping on every call.
        """
        return self._action_space


def attach_parts(
    agent_config: AgentConfig,
    platforms: dict[str, Platform],
    simulator_type: str,
    registry: PluginRegistry = GLOBAL_REGISTRY,
) -> None:
    """Resolve the agent's part groups and attach them to its platforms.

    A part entry may name its platform in config; otherwise it attaches to the
    agent's first platform.  The entry's config is parsed by the table of the
    group's matching registration, and the factory receives the settings; a
    key the table does not declare, or a value it rejects, raises
    ``PartError``.  Already-attached identical groups are shared (two agents
    on one platform reuse the same part).
    """
    for part in agent_config.parts:
        platform = platforms[agent_config.part_platform(part)]
        if part.group in platform.parts:
            continue
        entry = registry.match(part.group, simulator_type, platform.platform_type)
        settings, errors = parse_params(entry.params, part.config, {})
        if errors:
            path, _, message = errors[0]
            raise PartError(f"part '{part.group}': {path}: {message}")
        platform.add_part(entry.factory(part.group, settings))


class PolicyPool:
    """Shares policy instances between agents that declare the same policy.

    Policies are seeded by ``Environment.reset``, not here.
    """

    def __init__(self):
        self._instances: dict[str, Policy] = {}

    def get(self, name: str, config: dict) -> Policy:
        cls = POLICY_REGISTRY.get(name)
        if cls is None:
            raise PolicyError(f"unknown policy '{name}' (registered: {sorted(POLICY_REGISTRY)})")
        key = json.dumps({"name": name, "config": config}, sort_keys=True, default=repr)
        if key not in self._instances:
            self._instances[key] = cls(config)
        return self._instances[key]


def build_agent(
    agent_config: AgentConfig,
    platforms: dict[str, Platform],
    policy_pool: PolicyPool,
) -> Agent:
    """Wire an agent's glue/done/reward maps into a compiled graph."""
    agent_platforms = {}
    for name in agent_config.platform_names:
        if name not in platforms:
            raise PartBindingError(f"agent '{agent_config.name}': unknown platform '{name}'")
        agent_platforms[name] = platforms[name]
    graph = build_graph(
        agent_platforms,
        glues=agent_config.glues,
        dones=agent_config.dones,
        rewards=agent_config.rewards,
    )
    policy = policy_pool.get(agent_config.policy.name, agent_config.policy.config)
    return Agent(agent_config.name, agent_config.platform_names, graph, policy)
