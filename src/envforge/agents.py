"""Agent composition: platform assignments plus wired glue/reward/done maps."""

from __future__ import annotations

import json
from collections.abc import Mapping
from types import MappingProxyType

from .config.schema import AgentConfig, PartConfig
from .functors.base import PartBindingError
from .functors.graph import CompiledGraph, build_graph, canonical
from .params import BuildErrors, ConfigError, join_path, parse_params
from .parts import GLOBAL_REGISTRY, Box, PartError, Platform
from .policies import POLICY_REGISTRY, Policy, PolicyError


class Agent:
    """A named agent: its compiled functor graph and policy handle, and
    the calls a step makes for it, bound here once.  A glue
    observation whose name an earlier one took is a ``DuplicateName`` at
    the later glue's path: ``step`` keys observations by name."""

    def __init__(self, name: str, graph: CompiledGraph, policy: Policy):
        self.name = name
        self.graph = graph
        self.policy = policy
        # glue name -> node, for the glues that take an action fragment
        action_glues = {node.name: node for node in graph.glues if node.action_space is not None}
        #: the names of the action glues, which ``step`` checks fragments against
        self.action_names = frozenset(action_glues)
        #: (glue name, (its box's shape,), apply_action) per action glue
        self.action_calls = [
            (glue, (node.action_space.shape,), node.functor.apply_action) for glue, node in action_glues.items()
        ]
        #: (name, evaluate) per done, then per reward, in spec order
        self.done_calls = [(node.name, node.functor.evaluate) for node in graph.dones]
        self.reward_calls = [(node.name, node.functor.evaluate) for node in graph.rewards]
        #: (observation name '<glue name>/<key>', glue node, key, box) for
        #: every observation entry of the agent's glues, in glue order
        self.observation_layout = [
            (f"{node.name}/{key}", node, key, box)
            for node in graph.glues
            for key, box in node.observation_space.items()
        ]
        taken: set[str] = set()
        errors = []
        for obs_name, node, _, _ in self.observation_layout:
            if obs_name in taken:
                message = f"another observation is already named '{obs_name}'"
                errors.append((node.functor.spec.path, "DuplicateName", message))
            taken.add(obs_name)
        if errors:
            raise ConfigError.listing(f"agent '{name}'", errors)
        self._observation_space = MappingProxyType({name: box for name, _, _, box in self.observation_layout})
        self._action_space = MappingProxyType({name: node.action_space for name, node in action_glues.items()})

    def observation_space(self) -> Mapping[str, Box]:
        """Union of top-level glue observations, keyed '<glue name>/<key>'.

        The same read-only mapping on every call; each box's unit is that of
        the observation ``step`` returns under its name.
        """
        return self._observation_space

    def action_space(self) -> Mapping[str, Box]:
        """Action fragments of controller-backed glues, keyed by glue name.

        The same read-only mapping on every call.
        """
        return self._action_space


def attach_parts(
    agent_config: AgentConfig,
    platforms: dict[str, Platform],
    simulator_type: str,
) -> None:
    """Resolve the agent's part groups and attach them to its platforms.

    A part entry may name its platform in config; otherwise it attaches to the
    agent's first platform.  The entry's config is parsed by the table of the
    group's matching registration, and the factory receives the settings.
    Already-attached identical groups are shared (two agents on one platform
    reuse the same part).  A part that fails (an undeclared platform, a group
    with no registration for the simulator and platform type, a key the table
    does not declare or a value it rejects) is reported at its ``path`` and
    the others still attach; then the first ``PartError`` is raised, listing
    every error.  An agent on an undeclared platform attaches nothing.
    """
    _agent_platforms(agent_config, platforms)
    errors = BuildErrors()
    for part in agent_config.parts:
        target = agent_config.part_platform(part)
        errors.attempt(_attach_part, part, target, platforms, simulator_type, path=part.path)
    errors.check()


def _agent_platforms(agent_config: AgentConfig, platforms: dict[str, Platform]) -> dict[str, Platform]:
    """The agent's platforms by name; one that ``platforms`` lacks fails with ``PartBindingError``."""
    for j, name in enumerate(agent_config.platform_names):
        if name not in platforms:
            message = f"unknown platform '{name}'"
            error = (join_path(agent_config.path, "platforms", j), "UnknownReference", message)
            raise PartBindingError(f"agent '{agent_config.name}': {message}", [error])
    return {name: platforms[name] for name in agent_config.platform_names}


def _attach_part(part: PartConfig, target, platforms, simulator_type: str) -> None:
    platform = platforms.get(target) if isinstance(target, str) else None
    if platform is None:
        error = ("config/platform", "UnknownReference", f"platform {target!r} is not declared in the environment")
        raise PartError.listing(f"part '{part.group}'", [error])
    if part.group in platform.parts:
        return
    entry = GLOBAL_REGISTRY.match(part.group, simulator_type, platform.platform_type)
    settings, errors = parse_params(entry.params, part.config, "config")
    if errors:
        raise PartError.listing(f"part '{part.group}'", errors)
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
            message = f"unknown policy '{name}' (registered: {sorted(POLICY_REGISTRY)})"
            raise PolicyError(message, [("name", "TypeMismatch", message)])
        key = json.dumps({"name": name, "config": canonical(config)}, sort_keys=True)
        if key not in self._instances:
            self._instances[key] = cls(config)
        return self._instances[key]


def build_agent(
    agent_config: AgentConfig,
    platforms: dict[str, Platform],
    policy_pool: PolicyPool,
) -> Agent:
    """Wire an agent's glue/done/reward maps into a compiled graph, and get
    its policy; if either fails, the first error is raised, listing both's.
    Then the policy's config is checked against the agent's spaces."""
    agent_platforms = _agent_platforms(agent_config, platforms)
    errors = BuildErrors()
    graph = errors.attempt(build_graph, agent_platforms, agent_config.glues, agent_config.dones, agent_config.rewards)
    policy_path = join_path(agent_config.path, "policy")
    policy = errors.attempt(policy_pool.get, agent_config.policy.name, agent_config.policy.config, path=policy_path)
    errors.check()
    agent = Agent(agent_config.name, graph, policy)
    errors.attempt(policy.check_spaces, agent.observation_space(), agent.action_space(), path=policy_path)
    errors.check()
    return agent
