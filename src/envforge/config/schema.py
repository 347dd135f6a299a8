"""Typed construction plans produced by config validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from ..epp import ParameterSpec
from ..functors.base import FunctorSpec


class EpisodeEndMode(enum.Enum):
    ALL_AGENTS_DONE = "all_agents_done"
    ANY_AGENT_DONE = "any_agent_done"


@dataclass(frozen=True)
class SpaceCheckMode:
    """every_step, spot_check(probability), or off."""

    mode: str
    probability: float = 0.0

    @classmethod
    def every_step(cls):
        return cls("every_step")

    @classmethod
    def off(cls):
        return cls("off")

    @classmethod
    def spot_check(cls, probability: float = 0.01):
        return cls("spot_check", probability)


@dataclass
class PartConfig:
    group: str
    config: dict[str, Any] = field(default_factory=dict)


@dataclass
class PolicyConfig:
    name: str
    config: dict[str, Any] = field(default_factory=dict)


@dataclass
class AgentConfig:
    name: str
    platform_names: list[str]
    parts: list[PartConfig]
    glues: list[FunctorSpec]
    dones: list[FunctorSpec] = field(default_factory=list)
    rewards: list[FunctorSpec] = field(default_factory=list)
    parameters: dict[str, ParameterSpec] = field(default_factory=dict)
    reference_store: dict[str, ParameterSpec] = field(default_factory=dict)
    policy: PolicyConfig = field(default_factory=lambda: PolicyConfig("random"))

    def part_platform(self, part: PartConfig):
        """The platform ``part`` attaches to: its ``platform`` setting, else the agent's first."""
        return part.config.get("platform", self.platform_names[0])


@dataclass
class PlatformConfig:
    name: str
    platform_type: str
    initialization: dict[str, ParameterSpec] = field(default_factory=dict)


@dataclass
class EnvironmentConfig:
    simulator_name: str
    simulator_config: dict[str, Any]
    platforms: list[PlatformConfig]
    agents: list[AgentConfig]
    shared_dones: list[FunctorSpec] = field(default_factory=list)
    episode_end_mode: EpisodeEndMode = EpisodeEndMode.ALL_AGENTS_DONE
    horizon: int = 1000
    reference_store: dict[str, ParameterSpec] = field(default_factory=dict)
    space_check_mode: SpaceCheckMode = field(default_factory=SpaceCheckMode.every_step)
