"""Built-in simulators and the name -> class lookup used by config validation."""

from .base import InvalidSimulatorConfig, SimulationDiverged, Simulator, SimulatorError, init_key
from .cartpole import CartPoleSimulator
from .docking import Deputy1d, Docking1dSimulator

from . import cartpole as _cartpole
from . import docking as _docking

SIMULATORS: dict[str, type[Simulator]] = {
    Docking1dSimulator.simulator_type: Docking1dSimulator,
    CartPoleSimulator.simulator_type: CartPoleSimulator,
}

_docking.register_parts()
_cartpole.register_parts()

__all__ = [
    "CartPoleSimulator",
    "Deputy1d",
    "Docking1dSimulator",
    "InvalidSimulatorConfig",
    "SIMULATORS",
    "SimulationDiverged",
    "Simulator",
    "SimulatorError",
    "init_key",
]
