"""Config ingestion: one canonical YAML schema for structures and scenarios.

Keys carry their units (``eta_rad``, ``mass_kg``); unknown keys are
rejected with their location so typos in scientific configs surface
immediately. A config describes the module grid, physical defaults,
controller gains, and optionally one scenario (trajectory plus timing).

Every block is read and written from the fields of its dataclass: a
field's metadata gives the unit suffix of its key and whether it must be
positive, its annotation or default gives its shape (see `_plan`), and
the dataclass's `__post_init__` checks the block as a whole. Module entries and trajectories are kind-tagged blocks: one
dataclass per kind, named by the block's `kind` key.
"""

import functools
import math
import re
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from typing import get_args, get_origin

import numpy as np
import yaml

from . import geometry, simulation, trajectories, vehicle
from .control import ControllerGains
from .errors import InvalidParams, ParseError, SchemaError


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
    written = node.value[:]  # `construct_mapping` merges `<<` entries into node.value
    data.update(loader.construct_mapping(node, deep=True))
    if len(data) < len(node.value):  # a key repeated, or one merged in overridden
        written = [key for key, _ in written if key.tag != "tag:yaml.org,2002:merge"]
        keys = [loader.construct_object(key) for key in written]  # built above
        if len(set(keys)) < len(keys):
            i = next(i for i, key in enumerate(keys) if key in keys[:i])
            raise yaml.constructor.ConstructorError(
                None, None, f"found duplicate key {keys[i]!r}", written[i].start_mark)


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


def _key(f):
    """Config key of a dataclass field: its name plus its unit suffix."""
    unit = f.metadata.get("unit")
    return f"{f.name}_{unit}" if unit else f.name


# math.hypot, unlike a sum of squares, neither overflows nor underflows to
# zero for finite axes.
def _tilt(axis, angle):
    """Rotation by `angle` about the non-zero vector `axis`."""
    norm = math.hypot(*axis)
    return geometry.rodrigues([a / norm for a in axis], angle)


def _check_axis(axis):
    if math.hypot(*axis) == 0.0:
        raise InvalidParams("tilt_axis must be a non-zero vector")


@dataclass(frozen=True)
class Propeller:
    """One rotor of a custom module: tilted by `tilt_angle_rad` about
    `tilt_axis`, with drag-torque sign `spin`."""

    tilt_axis: tuple = (0.0, 0.0, 1.0)
    tilt_angle_rad: float = 0.0
    spin: int = 1

    def __post_init__(self):
        _check_axis(self.tilt_axis)
        if isinstance(self.spin, bool) or self.spin not in (-1, 1):
            raise InvalidParams("spin must be +1 or -1")
        object.__setattr__(self, "spin", int(self.spin))


@dataclass(frozen=True)
class _Module:
    """A module entry: its grid cell and its yaw in the structure. Each
    kind adds its design and builds its `vehicle.ModuleSpec`."""

    cell: tuple[int, int, int]
    yaw_rad: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cell", vehicle.grid_cell(self.cell))

    @property
    def design(self):
        """The entry's module design as a hashable key: its class and every
        field but its cell and yaw."""
        return (type(self),
                *(v for k, v in vars(self).items() if k not in ("cell", "yaw_rad")))


@dataclass(frozen=True)
class RModule(_Module):
    """All four rotors share one orientation: `tilt_angle_rad` about `tilt_axis`."""

    tilt_axis: tuple = (0.0, 0.0, 1.0)
    tilt_angle_rad: float = 0.0

    kind = "R"
    label = "an R module"

    def __post_init__(self):
        super().__post_init__()
        _check_axis(self.tilt_axis)

    def build(self, **physical):
        return vehicle.make_r_module(_tilt(self.tilt_axis, self.tilt_angle_rad),
                                     **physical)


@dataclass(frozen=True)
class TModule(_Module):
    """Rotors tilted by +-`eta_rad` about their own arms."""

    eta_rad: float = 0.0

    kind = "T"
    label = "a T module"

    def __post_init__(self):
        super().__post_init__()
        if abs(self.eta_rad) >= np.pi / 2:
            raise InvalidParams("eta_rad magnitude must be below pi/2")

    def build(self, **physical):
        return vehicle.make_t_module(self.eta_rad, **physical)


@dataclass(frozen=True)
class CustomModule(_Module):
    """Four freely tilted propellers, in the order of the square layout."""

    propellers: tuple[Propeller, ...] = ()

    kind = "custom"
    label = "a custom module"

    def __post_init__(self):
        super().__post_init__()
        if len(self.propellers) != 4:
            raise InvalidParams("custom modules need exactly four propellers")

    def build(self, **physical):
        return vehicle.ModuleSpec(
            "custom", vehicle.square_positions(physical["arm"]),
            [_tilt(p.tilt_axis, p.tilt_angle_rad) for p in self.propellers],
            [p.spin for p in self.propellers], **physical)


_POSITIVE = {"positive": True}


@dataclass
class PhysicalParams:
    module_mass_kg: float = field(default=vehicle.DEFAULT_MASS, metadata=_POSITIVE)
    arm_m: float = field(default=vehicle.DEFAULT_ARM, metadata=_POSITIVE)
    body_size_m: tuple = field(default=vehicle.DEFAULT_BODY_SIZE, metadata=_POSITIVE)
    drag_to_thrust_m: float = vehicle.DEFAULT_K_M
    f_max_n: float = field(default=vehicle.DEFAULT_F_MAX, metadata=_POSITIVE)

    def __post_init__(self):
        if self.drag_to_thrust_m < 0:
            raise InvalidParams("drag_to_thrust_m must be non-negative")


@dataclass
class ScenarioParams:
    trajectory: trajectories.Trajectory
    duration_s: float = 30.0
    dt_ctrl_s: float = field(default=simulation.DEFAULT_DT_CTRL, metadata=_POSITIVE)
    dt_sim_s: float = field(default=simulation.DEFAULT_DT_SIM, metadata=_POSITIVE)
    skip_s: float = 5.0

    def __post_init__(self):
        if self.duration_s < 0:
            raise InvalidParams("duration_s must be non-negative")


@dataclass
class StructureConfig:
    modules: tuple[RModule | TModule | CustomModule, ...]
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    gains: ControllerGains = field(default_factory=ControllerGains)
    scenario: ScenarioParams = None

    def __post_init__(self):
        if not self.modules:
            raise InvalidParams("modules must list at least one module")
        cells = [m.cell for m in self.modules]
        if len(set(cells)) != len(cells):
            raise InvalidParams("two modules share a grid cell")


class _Validator:
    def __init__(self):
        self.problems = []

    def fail(self, path, message, node=None):
        line = getattr(node, "line", None)
        where = f" (line {line})" if line else ""
        self.problems.append(f"{path}{where}: {message}")

    def number(self, node, path, key, positive=False):
        value = _finite(node[key])
        if value is None:
            self.fail(path, f"{key} must be a finite number", node)
        elif positive and value <= 0:
            self.fail(path, f"{key} must be positive", node)
        return value

    def vector(self, node, path, key, size=None, positive=False):
        """Tuple of finite numbers: `size` of them, or any number when None."""
        value = node[key]
        values = ([_finite(v) for v in value] if isinstance(value, (list, tuple))
                  and size in (None, len(value)) else [None])
        count = "" if size is None else f"{size} "
        if None in values:
            self.fail(path, f"{key} must be a list of {count}finite numbers", node)
        elif positive and min(values, default=1.0) <= 0:
            self.fail(path, f"{key} must be a list of {count}positive numbers", node)
        return tuple(values)

    def cell(self, node, path, key):
        try:
            return vehicle.grid_cell(node[key])
        except InvalidParams as exc:
            self.fail(path, str(exc), node)

    def nested(self, node, path, key, cls, many=False):
        """Block of the dataclass `cls`, or with `many` a list of them."""
        where = key if path == "$" else f"{path}.{key}"
        if not many:
            return self.block(cls, node[key], where)
        if not isinstance(node[key], list):
            return self.fail(path, f"{key} must be a list", node)
        return tuple(self.block(cls, item, f"{where}[{i}]")
                     for i, item in enumerate(node[key]))

    def block(self, cls, node, path):
        """Instance of the dataclass `cls` read field by field from the
        mapping `node`; for a union of kind-tagged dataclasses, of the one
        that the mapping's `kind` names.

        Returns None once a value was rejected, so that the constructor
        does not report it again.
        """
        problems = len(self.problems)
        if not isinstance(node, dict):
            self.fail(path, "must be a mapping")
            node = {}
        if isinstance(cls, types.UnionType):
            kinds, allowed = _kinds(cls)
            kind = node.get("kind")
            cls = kinds.get(kind) if isinstance(kind, str) else None
            if cls is None:
                *rest, last = kinds
                self.fail(path, f"kind must be {', '.join(rest)} or {last}, got {kind!r}",
                          node)
                # read on, so that shared fields such as `cell` are checked
                cls, own = next(iter(kinds.values())), allowed
            else:
                own = _plan(cls)[0]
        else:
            allowed = own = _plan(cls)[0]
        for key in node:
            if key not in allowed:
                self.fail(path, f"unknown key {key!r}", node)
            elif key not in own:
                self.fail(path, f"{key} is not valid for {cls.label}", node)
        values = {}
        for name, key, required, read in _plan(cls)[1]:
            if key in node:
                values[name] = node[key] if read is None else read(self, node, path, key)
            elif required:
                self.fail(path, f"missing key {key!r}", node)
        if len(self.problems) > problems:
            return None
        try:
            return cls(**values)
        except InvalidParams as exc:
            self.fail(path, str(exc), node)
            return None


@functools.cache
def _plan(cls):
    """How `_Validator.block` reads the dataclass `cls`: the keys its blocks
    may hold, and per field (name, key, required, read), read by
    `read(validator, node, path, key)`. The field's annotation or default
    gives the reader: `tuple[x, ...]` is a list of numbers or of blocks; a
    dataclass or a union of kind-tagged ones is a block; `tuple[int, int,
    int]` is a grid cell; `tuple[float, float, float]` or a sequence default
    is a vector of that size; a string or integer default takes the value as
    written (read is None), for the class to check; any other field is a
    number. Metadata `positive` asks numbers and vectors to be above zero.
    A field without a default is required."""
    plan = []
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        items = get_args(f.type)
        positive = f.metadata.get("positive", False)
        if items[-1:] == (Ellipsis,):
            read = (partial(_Validator.vector, positive=positive) if items[0] is float
                    else partial(_Validator.nested, cls=items[0], many=True))
        elif is_dataclass(f.type) or get_origin(f.type) is types.UnionType:
            read = partial(_Validator.nested, cls=f.type)
        elif items[:1] == (int,):
            read = _Validator.cell
        elif isinstance(default, str) or type(default) is int:
            read = None
        elif items or np.ndim(default):
            read = partial(_Validator.vector, size=len(items or default),
                           positive=positive)
        else:
            read = partial(_Validator.number, positive=positive)
        plan.append((f.name, _key(f), default is MISSING, read))
    keys = {key for _, key, _, _ in plan} | ({"kind"} if hasattr(cls, "kind") else set())
    return frozenset(keys), tuple(plan)


@functools.cache
def _kinds(union):
    """A union's dataclasses by kind, and every key their blocks may hold."""
    kinds = {c.kind: c for c in get_args(union)}
    return kinds, frozenset().union(*(_plan(c)[0] for c in kinds.values()))


def _finite(value):
    """The value as a float when it is a finite int or float, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


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
    config = v.block(StructureConfig, root, "$")
    if v.problems:
        raise SchemaError(v.problems)
    return config


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def build_structure(config):
    """Assemble the StructureModel a config describes, building each module
    design (an entry's kind and fields but its cell and yaw) once."""
    p = config.physical
    physical = dict(mass=p.module_mass_kg, arm=p.arm_m,
                    body_size=tuple(p.body_size_m), k_m=p.drag_to_thrust_m)
    designs = {}
    placements = []
    for entry in config.modules:
        design = entry.design
        if design not in designs:
            designs[design] = entry.build(**physical)
        placements.append(vehicle.ModulePlacement(
            designs[design], entry.cell, geometry.rot_principal("z", entry.yaw_rad)))
    return vehicle.assemble_structure(placements)


def build_trajectory(config, dof):
    """Callable t -> Setpoint for the config's scenario."""
    if config.scenario is None:
        raise SchemaError(["config has no scenario"])
    return trajectories.make_trajectory(config.scenario.trajectory, dof)


def _plain(value):
    """`value` as YAML data keyed like the config; a kind-tagged block
    leads with its kind, and an absent block is left out."""
    if is_dataclass(value):
        out = {"kind": value.kind} if hasattr(value, "kind") else {}
        for f in fields(value):
            if getattr(value, f.name) is not None:
                out[_key(f)] = _plain(getattr(value, f.name))
        return out
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(x) for x in value]
    return value if isinstance(value, (str, int)) else float(value)


def render_config(config):
    """Canonical YAML text that parses back to an equal config."""
    return yaml.dump(_plain(config), sort_keys=False, default_flow_style=None,
                     Dumper=_ReprDumper)
