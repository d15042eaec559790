"""Modular multi-rotor modeling, actuation analysis, and closed-loop simulation.

Build modules (`vehicle`), assemble them into rigid structures, analyze
how many degrees of freedom the assembly can control and along which frame
it thrusts best (`actuation`), and fly reference trajectories
(`trajectories`) with the generalized 4/5/6-DOF geometric controller
(`control`) in the rigid-body simulator (`simulation`). `config`,
`telemetry`, and `cli` provide the file formats and the command-line
entry point.
"""

from .actuation import (
    ActuationAnalysis,
    analyze,
    analyze_structure,
    applicability,
    design_in_f_frame,
    dimensioning_matrix,
    f_frame,
    pitch_feasibility_limit,
)
from .control import Controller, ControllerGains, Setpoint
from .simulation import (
    MotorModel,
    Telemetry,
    VehicleState,
    accelerations,
    motor_apply,
    run_scenario,
    step,
)
from .vehicle import (
    ModulePlacement,
    ModuleSpec,
    StructureModel,
    TorqueBalanceReport,
    assemble_structure,
    check_torque_balance,
    design_matrix,
    make_r_module,
    make_t_module,
)

__version__ = "0.1.0"

__all__ = [
    "ActuationAnalysis",
    "Controller",
    "ControllerGains",
    "ModulePlacement",
    "ModuleSpec",
    "MotorModel",
    "Setpoint",
    "StructureModel",
    "Telemetry",
    "TorqueBalanceReport",
    "VehicleState",
    "accelerations",
    "analyze",
    "analyze_structure",
    "applicability",
    "assemble_structure",
    "check_torque_balance",
    "design_in_f_frame",
    "design_matrix",
    "dimensioning_matrix",
    "f_frame",
    "make_r_module",
    "make_t_module",
    "motor_apply",
    "pitch_feasibility_limit",
    "run_scenario",
    "step",
]
