from .loader import ConfigLoadError, FileNotFound, IncludeCycle, ParseError, load_config
from .schema import (
    AgentConfig,
    EnvironmentConfig,
    EpisodeEndMode,
    PartConfig,
    PlatformConfig,
    PolicyConfig,
    SpaceCheckMode,
)
from .validate import (
    ErrorCode,
    ValidationError,
    ValidationReport,
    validate_agent,
    validate_environment,
    validate_environment_file,
)

__all__ = [
    "AgentConfig",
    "ConfigLoadError",
    "EnvironmentConfig",
    "EpisodeEndMode",
    "ErrorCode",
    "FileNotFound",
    "IncludeCycle",
    "ParseError",
    "PartConfig",
    "PlatformConfig",
    "PolicyConfig",
    "SpaceCheckMode",
    "ValidationError",
    "ValidationReport",
    "load_config",
    "validate_agent",
    "validate_environment",
    "validate_environment_file",
]
