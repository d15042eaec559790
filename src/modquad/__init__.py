"""Modular multi-rotor modeling, actuation analysis, and closed-loop simulation.

Build modules (`vehicle`), assemble them into rigid structures, analyze
how many degrees of freedom the assembly can control and along which frame
it thrusts best (`actuation`), and fly reference trajectories
(`trajectories`) with the generalized 4/5/6-DOF geometric controller
(`control`) in the rigid-body simulator (`simulation`). `config`,
`telemetry`, and `cli` provide the file formats and the command-line
entry point. The names below are the ones a script needs to build, analyze
and fly a structure; everything else is imported from its submodule.
"""

from .actuation import analyze_structure
from .control import ControllerGains
from .simulation import MotorModel, run_scenario
from .vehicle import assemble_structure, make_t_module

__version__ = "0.1.0"

__all__ = [
    "ControllerGains",
    "MotorModel",
    "analyze_structure",
    "assemble_structure",
    "make_t_module",
    "run_scenario",
]
