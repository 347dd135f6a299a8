"""envforge: a composable, configuration-driven multi-agent environment framework."""

from . import config, epp, functors, parts, policies, simulators, units
from .agents import Agent, PolicyPool, build_agent
from .environment import (
    Environment,
    EpisodeAlreadyDone,
    NonFiniteAction,
    SpaceViolation,
    StepResult,
    UnknownActionKey,
)

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "Environment",
    "EpisodeAlreadyDone",
    "NonFiniteAction",
    "PolicyPool",
    "SpaceViolation",
    "StepResult",
    "UnknownActionKey",
    "build_agent",
    "config",
    "epp",
    "functors",
    "parts",
    "policies",
    "simulators",
    "units",
]
