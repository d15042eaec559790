"""Config ingestion: one canonical YAML schema for structures and scenarios.

Keys carry their units (``eta_rad``, ``mass_kg``); unknown keys are
rejected with their location so typos in scientific configs surface
immediately. A config describes the module grid, physical defaults,
controller gains, and optionally one scenario (trajectory plus timing).

Apart from the module list and the quintic-chain waypoints, every block
is read and written from the fields of its dataclass: a field's metadata
gives the unit suffix of its key and whether it must be positive, and
its default gives its shape (string, number or vector).
"""

import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from . import geometry, trajectories, vehicle
from .control import ControllerGains
from .errors import InvalidParams, ParseError, SchemaError
from .trajectories import (
    AttitudeSineDef,
    HelixDef,
    HoverDef,
    QuinticChainDef,
    RectangleDef,
    Waypoint,
)


class _LocatedDict(dict):
    """Mapping that remembers the line it started on."""

    line = None


class _LineLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


class _ReprDumper(yaml.SafeDumper):
    """Dump floats with repr so render/parse round trips exactly."""


def _construct_located_mapping(loader, node):
    data = _LocatedDict()
    data.line = node.start_mark.line + 1
    yield data
    data.update(loader.construct_mapping(node, deep=True))


_LineLoader.add_constructor("tag:yaml.org,2002:map", _construct_located_mapping)
_ReprDumper.add_representer(
    float,
    lambda dumper, value: dumper.represent_scalar(
        "tag:yaml.org,2002:float", repr(float(value))
    ),
)
# YAML 1.1 reads a float only with a dot and a signed exponent, so `1e-3`
# and `1.5e3` would load as strings; read every exponent form as a float,
# and let the dumper write such floats untagged.
for _cls in (_LineLoader, _ReprDumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )


@dataclass
class ModuleEntry:
    kind: str
    cell: tuple
    yaw_rad: float = 0.0
    tilt_axis: tuple = None
    tilt_angle_rad: float = 0.0
    eta_rad: float = 0.0
    propellers: tuple = None


_POSITIVE = {"positive": True}


@dataclass
class PhysicalParams:
    module_mass_kg: float = field(default=vehicle.DEFAULT_MASS, metadata=_POSITIVE)
    arm_m: float = field(default=vehicle.DEFAULT_ARM, metadata=_POSITIVE)
    body_size_m: tuple = vehicle.DEFAULT_BODY_SIZE
    drag_to_thrust_m: float = vehicle.DEFAULT_K_M
    f_max_n: float = field(default=vehicle.DEFAULT_F_MAX, metadata=_POSITIVE)


@dataclass
class ScenarioParams:
    trajectory: object
    duration_s: float = 30.0  # must be non-negative; checked by the parser
    dt_ctrl_s: float = field(default=0.002, metadata=_POSITIVE)
    dt_sim_s: float = field(default=0.001, metadata=_POSITIVE)
    skip_s: float = 5.0


@dataclass
class StructureConfig:
    modules: tuple
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    scenario: ScenarioParams = None


class _Validator:
    def __init__(self):
        self.problems = []

    def fail(self, path, message, node=None):
        where = f" (line {node.line})" if isinstance(node, _LocatedDict) else ""
        self.problems.append(f"{path}{where}: {message}")

    def check_keys(self, node, path, allowed):
        for key in node:
            if key not in allowed:
                self.fail(path, f"unknown key {key!r}", node)

    def number(self, node, path, key, default, positive=False):
        if key not in node:
            return default
        value = _finite(node[key])
        if value is None:
            self.fail(path, f"{key} must be a finite number", node)
            return 0.0
        if positive and value <= 0:
            self.fail(path, f"{key} must be positive", node)
        return value

    def vector(self, node, path, key, size, default=None):
        if key not in node:
            if default is None:
                self.fail(path, f"missing key {key!r}", node)
                return (0.0,) * size
            return default
        value = node[key]
        values = ([_finite(v) for v in value]
                  if isinstance(value, (list, tuple)) and len(value) == size else [None])
        if None in values:
            self.fail(path, f"{key} must be a list of {size} finite numbers", node)
            return (0.0,) * size
        return tuple(values)

    def mapping(self, value, path):
        if not isinstance(value, dict):
            self.fail(path, "must be a mapping")
            return _LocatedDict()
        return value

    def dataclass(self, cls, node, path, extra_keys=(), **given):
        """Instance of `cls` read field by field from the mapping `node`.

        Fields in `given` were read by the caller. Returns None once a value
        was rejected, so that the constructor does not report it again.
        """
        node = self.mapping(node, path)
        self.check_keys(node, path, {_key(f) for f in fields(cls)} | set(extra_keys))
        problems = len(self.problems)
        kwargs = dict(given)
        for f in fields(cls):
            if f.name in given:
                continue
            key = _key(f)
            default = f.default if f.default is not MISSING else f.default_factory()
            if isinstance(default, str):
                kwargs[f.name] = node.get(key, default)
            elif np.ndim(default) == 0:
                kwargs[f.name] = self.number(node, path, key, default,
                                             positive=f.metadata.get("positive", False))
            else:
                kwargs[f.name] = self.vector(node, path, key, len(default), default)
        if len(self.problems) > problems:
            return None
        try:
            return cls(**kwargs)
        except InvalidParams as exc:
            self.fail(path, str(exc), node)
            return None


def _finite(value):
    """The value as a float when it is a finite int or float, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _key(f):
    """Config key of a dataclass field: its name plus its unit suffix."""
    unit = f.metadata.get("unit")
    return f"{f.name}_{unit}" if unit else f.name


_MODULE_KEYS = {"kind", "cell", "yaw_rad", "tilt_axis", "tilt_angle_rad",
                "eta_rad", "propellers"}
_PROP_KEYS = {"tilt_axis", "tilt_angle_rad", "spin"}
_TRAJECTORIES = {cls.kind: cls for cls in (HelixDef, RectangleDef,
                                           AttitudeSineDef, HoverDef)}


def _parse_module(node, path, v):
    node = v.mapping(node, path)
    v.check_keys(node, path, _MODULE_KEYS)
    kind = node.get("kind")
    if kind not in ("R", "T", "custom"):
        v.fail(path, f"kind must be R, T or custom, got {kind!r}", node)
        kind = "R"
    cell = v.vector(node, path, "cell", 3)
    if any(c != int(c) for c in cell):
        v.fail(path, "cell must hold three integers", node)
    entry = ModuleEntry(
        kind=kind,
        cell=tuple(int(c) for c in cell),
        yaw_rad=v.number(node, path, "yaw_rad", default=0.0),
    )
    if kind == "R":
        entry.tilt_axis = v.vector(node, path, "tilt_axis", 3, default=(0.0, 0.0, 1.0))
        if np.linalg.norm(entry.tilt_axis) == 0.0:
            v.fail(path, "tilt_axis must be a non-zero vector", node)
            entry.tilt_axis = (0.0, 0.0, 1.0)
        entry.tilt_angle_rad = v.number(node, path, "tilt_angle_rad", default=0.0)
        for key in ("eta_rad", "propellers"):
            if key in node:
                v.fail(path, f"{key} is not valid for an R module", node)
    elif kind == "T":
        entry.eta_rad = v.number(node, path, "eta_rad", default=0.0)
        if abs(entry.eta_rad) >= np.pi / 2:
            v.fail(path, "eta_rad magnitude must be below pi/2", node)
        for key in ("tilt_axis", "tilt_angle_rad", "propellers"):
            if key in node:
                v.fail(path, f"{key} is not valid for a T module", node)
    else:
        props = node.get("propellers")
        if not isinstance(props, list) or len(props) != 4:
            v.fail(path, "custom modules need exactly four propellers", node)
            props = []
        parsed = []
        for i, prop in enumerate(props):
            ppath = f"{path}.propellers[{i}]"
            prop = v.mapping(prop, ppath)
            v.check_keys(prop, ppath, _PROP_KEYS)
            axis = v.vector(prop, ppath, "tilt_axis", 3, default=(0.0, 0.0, 1.0))
            if np.linalg.norm(axis) == 0.0:
                v.fail(ppath, "tilt_axis must be a non-zero vector", prop)
                axis = (0.0, 0.0, 1.0)
            angle = v.number(prop, ppath, "tilt_angle_rad", default=0.0)
            spin = prop.get("spin", 1)
            if isinstance(spin, bool) or spin not in (-1, 1):
                v.fail(ppath, "spin must be +1 or -1", prop)
                spin = 1
            parsed.append((axis, angle, int(spin)))
        entry.propellers = tuple(parsed)
    return entry


def _parse_trajectory(node, path, v):
    node = v.mapping(node, path)
    kind = node.get("kind")
    if kind == "quintic_chain":
        return _parse_quintic_chain(node, path, v)
    if not isinstance(kind, str) or kind not in _TRAJECTORIES:
        v.fail(path, f"unknown trajectory kind {kind!r}", node)
        return None
    return v.dataclass(_TRAJECTORIES[kind], node, path, extra_keys={"kind"})


def _parse_quintic_chain(node, path, v):
    v.check_keys(node, path, {"kind", "waypoints", "durations_s"})
    raw_wps = node.get("waypoints")
    if not isinstance(raw_wps, list) or len(raw_wps) < 2:
        v.fail(path, "waypoints must list at least two entries", node)
        return None
    waypoints = []
    for i, wp in enumerate(raw_wps):
        wpath = f"{path}.waypoints[{i}]"
        wp = v.mapping(wp, wpath)
        v.check_keys(wp, wpath, {"position_m", "rotation_rad"})
        waypoints.append(Waypoint(
            position=v.vector(wp, wpath, "position_m", 3),
            rotation=v.vector(wp, wpath, "rotation_rad", 3,
                              default=(0.0, 0.0, 0.0)),
        ))
    durations = node.get("durations_s")
    if not isinstance(durations, list) or len(durations) != len(waypoints) - 1:
        durations = [None]
    durations = [_finite(d) for d in durations]
    if any(d is None or d <= 0 for d in durations):
        v.fail(path, "durations_s must hold one positive number per segment",
               node)
        return None
    try:
        return QuinticChainDef(waypoints=tuple(waypoints),
                               durations=tuple(durations))
    except InvalidParams as exc:
        v.fail(path, str(exc), node)
        return None


def parse_config(text):
    """Parse and validate a config document.

    Raises ParseError on YAML syntax problems and SchemaError carrying
    every schema violation found (with line numbers where available).
    """
    try:
        root = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from exc
    if root is None:
        raise SchemaError(["document is empty"])
    v = _Validator()
    root = v.mapping(root, "$")
    v.check_keys(root, "$", {"modules", "physical", "gains", "scenario"})

    raw_modules = root.get("modules")
    modules = []
    if not isinstance(raw_modules, list) or not raw_modules:
        v.fail("$", "modules must list at least one module")
    else:
        for i, node in enumerate(raw_modules):
            modules.append(_parse_module(node, f"modules[{i}]", v))
        cells = [m.cell for m in modules]
        if len(set(cells)) != len(cells):
            v.fail("$", "two modules share a grid cell")

    physical = PhysicalParams()
    if "physical" in root:
        physical = v.dataclass(PhysicalParams, root["physical"], "physical")

    gains = ControllerGains()
    if "gains" in root:
        gains = v.dataclass(ControllerGains, root["gains"], "gains")

    scenario = None
    if "scenario" in root:
        node = v.mapping(root["scenario"], "scenario")
        traj = None
        if "trajectory" not in node:
            v.fail("scenario", "missing key 'trajectory'", node)
        else:
            traj = _parse_trajectory(node["trajectory"], "scenario.trajectory", v)
        scenario = v.dataclass(ScenarioParams, node, "scenario", trajectory=traj)
        if scenario is not None and scenario.duration_s < 0:
            v.fail("scenario", "duration_s must be non-negative", node)

    if v.problems:
        raise SchemaError(v.problems)
    return StructureConfig(modules=tuple(modules), physical=physical,
                           gains=gains, scenario=scenario)


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def _unit_axis(axis):
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise SchemaError(["tilt_axis must be a non-zero vector"])
    return axis / norm


def build_module(entry, physical):
    """ModuleSpec for one config entry."""
    kwargs = dict(
        mass=physical.module_mass_kg,
        arm=physical.arm_m,
        body_size=tuple(physical.body_size_m),
        k_m=physical.drag_to_thrust_m,
    )
    if entry.kind == "R":
        rstar = geometry.rodrigues(_unit_axis(entry.tilt_axis), entry.tilt_angle_rad)
        return vehicle.make_r_module(rstar, **kwargs)
    if entry.kind == "T":
        return vehicle.make_t_module(entry.eta_rad, **kwargs)
    orientations = [geometry.rodrigues(_unit_axis(axis), angle)
                    for axis, angle, _ in entry.propellers]
    return vehicle.ModuleSpec(
        "custom", vehicle.square_positions(physical.arm_m), orientations,
        [spin for _, _, spin in entry.propellers], **kwargs)


def build_structure(config):
    """Assemble the StructureModel a config describes."""
    placements = []
    for entry in config.modules:
        module = build_module(entry, config.physical)
        attitude = geometry.rot_principal("z", entry.yaw_rad)
        placements.append(vehicle.ModulePlacement(module, entry.cell, attitude))
    return vehicle.assemble_structure(placements)


def build_trajectory(config, dof):
    """Callable t -> Setpoint for the config's scenario."""
    if config.scenario is None or config.scenario.trajectory is None:
        raise SchemaError(["config has no scenario"])
    return trajectories.make_trajectory(config.scenario.trajectory, dof)


def _module_to_dict(entry):
    out = {"kind": entry.kind, "cell": list(entry.cell)}
    if entry.yaw_rad:
        out["yaw_rad"] = entry.yaw_rad
    if entry.kind == "R":
        out["tilt_axis"] = list(entry.tilt_axis)
        out["tilt_angle_rad"] = entry.tilt_angle_rad
    elif entry.kind == "T":
        out["eta_rad"] = entry.eta_rad
    else:
        out["propellers"] = [
            {"tilt_axis": list(axis), "tilt_angle_rad": angle, "spin": spin}
            for axis, angle, spin in entry.propellers
        ]
    return out


def _fields_to_dict(obj):
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _trajectory_to_dict(value)
        elif not isinstance(value, str):
            value = float(value) if np.ndim(value) == 0 else [float(x) for x in value]
        out[_key(f)] = value
    return out


def _trajectory_to_dict(defn):
    if defn.kind == "quintic_chain":
        return {"kind": "quintic_chain",
                "waypoints": [{"position_m": list(wp.position),
                               "rotation_rad": list(wp.rotation)}
                              for wp in defn.waypoints],
                "durations_s": list(defn.durations)}
    return {"kind": defn.kind, **_fields_to_dict(defn)}


def render_config(config):
    """Canonical YAML text that parses back to an equal config."""
    doc = {
        "modules": [_module_to_dict(m) for m in config.modules],
        "physical": _fields_to_dict(config.physical),
        "gains": _fields_to_dict(config.gains),
    }
    if config.scenario is not None:
        doc["scenario"] = _fields_to_dict(config.scenario)
    return yaml.dump(doc, sort_keys=False, default_flow_style=None,
                     Dumper=_ReprDumper)

