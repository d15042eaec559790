"""Module designs, torque-balance checks, structure assembly, and the design matrix.

A module is a quadrotor in a cuboid frame whose four propellers sit in a
square on the frame's xy-plane and may be tilted. Thrust inputs are in
newtons (the thrust coefficient is absorbed into the input), so the drag
torque of each rotor is its thrust times the drag-to-thrust ratio k_m in
meters.

Structures are rigid grids of modules docked face to face. The assembled
model carries the total mass, the inertia tensor about the center of mass
(each module treated as a homogeneous solid cuboid), and the 6x4n design
matrix mapping rotor thrusts to the body wrench.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import EmptyStructure, InvalidParams, OverlappingModules

# Physical defaults for one module: 135 g per module with a payload margin
# that caps each rotor at 0.645 N; 0.016 m is a typical small-rotor
# drag-to-thrust ratio and is config-overridable.
DEFAULT_MASS = 0.135
DEFAULT_ARM = 0.05
DEFAULT_BODY_SIZE = (0.15, 0.15, 0.06)
DEFAULT_K_M = 0.016
DEFAULT_F_MAX = 0.645

GRAVITY = 9.81  # m/s^2; the world z-axis points up

TORQUE_BALANCE_TOL = 1e-9

# Cells are exact integers, positions floats: within +-2**20 cells a module's
# offset from the center of mass errs by under 1e-9 of the body size.
MAX_CELL = 2**20

# Square rotor layout: arm directions and alternating spin signs. The spin
# sign multiplies the drag torque of each rotor.
_ARM_SIGNS = np.array([[1, 1, 0], [1, -1, 0], [-1, -1, 0], [-1, 1, 0]], dtype=float)
_SPIN_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
# Unit arm vectors (the T tilt axes): the same for every arm length, so an
# extreme one cannot under- or overflow their norms.
_UNIT_ARMS = (_ARM_SIGNS / np.linalg.norm(_ARM_SIGNS, axis=1, keepdims=True)).tolist()


@dataclass(frozen=True, eq=False)
class ModuleSpec:
    """One quadrotor module: its rotor table plus mass and frame geometry.

    The rotor table is the layout a StructureModel uses for all its rotors:
    `positions` (4, 3) and `orientations` (4, 3, 3) in the module frame,
    and `spin_signs` (4,) of +1 or -1.
    """

    kind: str
    positions: np.ndarray
    orientations: np.ndarray
    spin_signs: np.ndarray
    mass: float = DEFAULT_MASS
    arm: float = DEFAULT_ARM
    body_size: tuple = DEFAULT_BODY_SIZE
    k_m: float = DEFAULT_K_M

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        o = np.asarray(self.orientations, dtype=float)
        spins = np.asarray(self.spin_signs, dtype=float)
        if self.mass <= 0.0 or self.arm <= 0.0:
            raise InvalidParams("mass and arm half-length must be positive")
        if self.k_m < 0.0:
            raise InvalidParams("k_m must be non-negative")
        if p.shape != (4, 3) or o.shape != (4, 3, 3) or spins.shape != (4,):
            raise InvalidParams("a module has exactly four propellers")
        if any(d <= 0.0 for d in self.body_size):
            raise InvalidParams("body dimensions must be positive")
        if np.abs(p[:, 2]).max() > 1e-12:
            raise InvalidParams("propeller must lie in the module xy-plane")
        if (any(isinstance(s, (bool, np.bool_)) for s in self.spin_signs)
                or not np.all(np.abs(spins) == 1.0)):
            raise InvalidParams(f"spin signs must be +1 or -1, got {self.spin_signs}")
        if not geometry.is_rotation(o):
            raise InvalidParams("propeller orientation is not a rotation matrix")
        if np.abs(p[:2] + p[2:]).max() > 1e-12:
            raise InvalidParams("propellers must form a square (p1 = -p3, p2 = -p4)")
        # hypot, unlike a sum of squares, neither under- nor overflows
        radii = np.hypot(np.hypot(p[:, 0], p[:, 1]), p[:, 2])
        if abs(radii[0] - radii[1]) > 1e-12:
            raise InvalidParams("propellers must form a square (equal arm radii)")
        if self.kind == "R" and np.abs(o - o[0]).max() > 1e-9:
            raise InvalidParams("R modules need one shared rotor orientation")
        if self.kind == "T":
            # rotor i turns by spin_i * eta about its unit arm u_i: it fixes u_i,
            # and its thrust axis a_i = cos(eta) e3 + spin_i sin(eta) (u_i x e3)
            u = p / radii[:, None]
            a = o[:, :, 2]
            lateral = spins * (a[:, 0] * u[:, 1] - a[:, 1] * u[:, 0])
            if (np.abs((o @ u[..., None])[..., 0] - u).max() > 1e-9
                    or np.ptp([a[:, 2], lateral], axis=1).max() > 1e-9):
                raise InvalidParams("T modules need alternating +eta/-eta tilts about the arms")
        if self.kind not in ("R", "T", "custom"):
            raise InvalidParams(f"kind must be R, T or custom, got {self.kind!r}")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "orientations", o)
        object.__setattr__(self, "spin_signs", spins)
        object.__setattr__(self, "body_size", tuple(float(d) for d in self.body_size))

    def cuboid_inertia(self):
        """Inertia tensor of the homogeneous solid cuboid about its center."""
        return _cuboid_inertia(self.mass, self.body_size)


def _cuboid_inertia(masses, body_size):
    """Inertias (..., 3, 3) of solid cuboids of one size about their centers."""
    sx, sy, sz = np.asarray(body_size, dtype=float)  # numpy powers overflow, not raise
    return (np.asarray(masses) / 12.0)[..., None, None] * np.diag(
        [sy**2 + sz**2, sx**2 + sz**2, sx**2 + sy**2])


@dataclass
class TorqueBalanceReport:
    """Net torque of a module when every rotor produces 1 N."""

    balanced: bool
    residual_torque: np.ndarray
    thrust_magnitude: float
    thrust_direction: np.ndarray


def square_positions(arm):
    """Rotor positions of the square layout, (4, 3), in the module frame."""
    return arm * _ARM_SIGNS


def make_r_module(rstar, mass=DEFAULT_MASS, arm=DEFAULT_ARM,
                  body_size=DEFAULT_BODY_SIZE, k_m=DEFAULT_K_M):
    """Module whose four rotors all share the orientation `rstar`."""
    return ModuleSpec("R", square_positions(arm), np.array([rstar] * 4), _SPIN_SIGNS,
                      mass, arm, tuple(body_size), k_m)


def make_t_module(eta, mass=DEFAULT_MASS, arm=DEFAULT_ARM,
                  body_size=DEFAULT_BODY_SIZE, k_m=DEFAULT_K_M):
    """Module whose rotors are tilted about their own arm axes.

    Diagonally opposite rotors tilt the same way: the tilt angles are
    (+eta, -eta, +eta, -eta) around the unit arm vectors, which cancels
    the net torque while adding yaw authority.
    """
    if abs(eta) >= np.pi / 2:
        raise InvalidParams(f"|eta| must be below pi/2, got {eta}")
    tilts = [geometry.rodrigues(u, s * eta) for u, s in zip(_UNIT_ARMS, _SPIN_SIGNS)]
    return ModuleSpec("T", square_positions(arm), np.array(tilts), _SPIN_SIGNS,
                      mass, arm, tuple(body_size), k_m)


def rotor_wrenches(positions, orientations, spin_signs, k_m):
    """Wrench of each rotor at 1 N, as (force, thrust torque, drag torque).

    Each part is (n, 3): the thrust axis a = R e3, the torque p x a of the
    thrust about the origin, and the drag torque s k_m a. `k_m` is one
    drag-to-thrust ratio or one per rotor.
    """
    axes = orientations @ geometry.E3
    return axes, np.cross(positions, axes), (spin_signs * k_m)[:, None] * axes


def design_matrix(positions, orientations, spin_signs, k_m):
    """6xn map from the thrusts (N) of a rotor table to the wrench (N, N.m)
    about the table's origin."""
    axes, thrust_torque, drag_torque = rotor_wrenches(positions, orientations,
                                                      spin_signs, k_m)
    return np.vstack([axes.T, (thrust_torque + drag_torque).T])


def check_torque_balance(module, tol=TORQUE_BALANCE_TOL):
    """Evaluate the module's net torque with every rotor at 1 N.

    Thrust-induced and drag-induced torques are summed separately; the
    module is balanced only when both vanish within `tol`. Also reports
    the net thrust magnitude and direction at unit inputs.
    """
    total_thrust, thrust_torque, drag_torque = (
        part.sum(axis=0) for part in rotor_wrenches(
            module.positions, module.orientations, module.spin_signs, module.k_m))
    magnitude = float(np.linalg.norm(total_thrust))
    direction = total_thrust / magnitude if magnitude > 1e-12 else geometry.E3.copy()
    balanced = (
        np.linalg.norm(thrust_torque) < tol and np.linalg.norm(drag_torque) < tol
    )
    return TorqueBalanceReport(
        balanced=balanced,
        residual_torque=thrust_torque + drag_torque,
        thrust_magnitude=magnitude,
        thrust_direction=direction,
    )


@dataclass(frozen=True, eq=False)
class ModulePlacement:
    """A module at an integer grid cell (row, col, layer) with an optional
    attitude in the structure frame (columns map +x, rows +y, layers +z)."""

    module: ModuleSpec
    cell: tuple
    attitude: np.ndarray = None

    def __post_init__(self):
        att = np.eye(3) if self.attitude is None else np.asarray(self.attitude, dtype=float)
        if att.shape != (3, 3):
            raise InvalidParams("module attitude is not a rotation matrix")
        object.__setattr__(self, "attitude", att)
        object.__setattr__(self, "cell", grid_cell(self.cell))


def grid_cell(value):
    """`value` as a grid cell (row, col, layer): three exact integers within
    +-MAX_CELL, never read through floats, so that every cell keeps its own
    value."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(type(c) is int or isinstance(c, np.integer) for c in value)):
        raise InvalidParams("cell must hold three integers")
    if max(abs(int(c)) for c in value) > MAX_CELL:
        raise InvalidParams(f"grid cells must lie within +-{MAX_CELL}")
    return tuple(map(int, value))


@dataclass(eq=False)
class StructureModel:
    """Rigid assembly of modules, centered on its center of mass.

    `rotor_positions`, `rotor_orientations`, `spin_signs` and `drag_ratios`
    list every propeller in structure coordinates; `design_matrix` is the
    6x4n map from rotor thrusts (N) to the body wrench (N, N.m).
    """

    placements: tuple
    mass: float
    inertia: np.ndarray
    com: np.ndarray
    module_offsets: np.ndarray
    rotor_positions: np.ndarray
    rotor_orientations: np.ndarray
    spin_signs: np.ndarray
    drag_ratios: np.ndarray
    design_matrix: np.ndarray
    inertia_inverse: np.ndarray = field(init=False, repr=False)
    # (inertia, inertia_inverse) as nested lists of Python floats
    inertia_floats: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.inertia_inverse = np.full((3, 3), np.nan)
        if math.isfinite(self.mass * GRAVITY) and np.isfinite(self.inertia).all():
            with contextlib.suppress(np.linalg.LinAlgError):  # a singular inertia
                self.inertia_inverse = np.linalg.inv(self.inertia)
        if not np.isfinite(self.inertia_inverse).all():
            raise InvalidParams("structure weight, inertia and its inverse must be finite")
        self.inertia_floats = (self.inertia.tolist(), self.inertia_inverse.tolist())

    @property
    def n_modules(self):
        return len(self.placements)

    @property
    def n_rotors(self):
        return 4 * len(self.placements)

    @property
    def rotor_axes(self):
        """Thrust directions of every rotor, (4n, 3)."""
        return self.rotor_orientations @ geometry.E3


def module_design_matrix(module):
    """6x4 thrust-to-wrench map of a single module about its own center."""
    return design_matrix(module.positions, module.orientations,
                         module.spin_signs, module.k_m)


def assemble_structure(placements):
    """Build a StructureModel from module placements on the docking grid.

    Grid spacing equals the module edge length, so cells are adjacent
    cuboids docked face to face. Positions are re-expressed relative to
    the assembly's center of mass and the inertia tensor combines each
    module's cuboid inertia with its parallel-axis term. The placement
    attitudes are checked and applied as one (n, 3, 3) stack.
    """
    placements = tuple(
        p if isinstance(p, ModulePlacement) else ModulePlacement(*p)
        for p in placements
    )
    if not placements:
        raise EmptyStructure("structure needs at least one module")
    cells = [p.cell for p in placements]
    if len(set(cells)) != len(cells):
        raise OverlappingModules("two modules share a grid cell")
    modules = [p.module for p in placements]
    if len({m.body_size for m in modules}) != 1:
        raise InvalidParams("all modules in a structure must share body dimensions")
    attitudes = np.array([p.attitude for p in placements])
    if not geometry.is_rotation(attitudes):
        raise InvalidParams("module attitude is not a rotation matrix")

    body_size = modules[0].body_size
    centers = np.array([(col, row, layer) for row, col, layer in cells],
                       dtype=float) * body_size
    masses = np.array([m.mass for m in modules])
    turned = np.swapaxes(attitudes, 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # `StructureModel` rejects overflow
        total_mass = float(masses.sum())
        com = masses @ centers / total_mass
        offsets = centers - com
        inertia = ((attitudes @ _cuboid_inertia(masses, body_size) @ turned).sum(axis=0)
                   + masses @ (offsets * offsets).sum(axis=1) * np.eye(3)
                   - (offsets.T * masses) @ offsets)
    positions = offsets[:, None] + np.array([m.positions for m in modules]) @ turned
    orientations = attitudes[:, None] @ np.array([m.orientations for m in modules])
    table = (positions.reshape(-1, 3), orientations.reshape(-1, 3, 3),
             np.concatenate([m.spin_signs for m in modules]),
             np.repeat([m.k_m for m in modules], 4))
    return StructureModel(placements, total_mass, inertia, com, offsets, *table,
                          design_matrix=design_matrix(*table))
