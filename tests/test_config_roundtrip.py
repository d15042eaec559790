"""Property test: rendering any valid config and parsing it back is the identity.

Every field of every trajectory kind, of every module kind, of `physical`,
`gains` and `scenario` gets a random value that differs from its default,
so a key that the renderer drops or the parser ignores shows up as a
mismatch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquad import config
from modquad.control import ControllerGains
from modquad.trajectories import (
    AttitudeSineDef,
    HelixDef,
    HoverDef,
    QuinticChainDef,
    RectangleDef,
    Waypoint,
)


def number(default, positive=False, bound=None):
    """Finite floats other than `default`, within +-`bound` when given."""
    low = 0.0 if positive else None if bound is None else -bound
    values = st.floats(min_value=low, max_value=bound, exclude_min=positive,
                       allow_nan=False, allow_infinity=False)
    return values.filter(lambda x: x != default)


def vector(size, default=None, positive=False, bound=None):
    values = st.tuples(*[number(None, positive, bound)] * size)
    return values.filter(lambda v: v != default)


# a path's coordinates and lengths, each within +-REACH, keep its farthest
# point inside the simulation's 100 m divergence radius: the farthest, a
# helix's, is sqrt((sqrt(2) REACH + REACH)**2 + REACH**2) = 78 m
REACH = 30.0


# time scales and rotations that the trajectories' arithmetic keeps finite:
# a helix's or attitude sine's (2 pi / period)**2, a rest-to-rest move's
# duration**2 and largest acceleration, and a waypoint's angle**3 (README
# "Configs")
def time_scale(default):
    return st.floats(1e-150, 1e150).filter(lambda x: x != default)


rotation = st.tuples(*[st.floats(-1e100, 1e100)] * 3).filter(any)  # not the default 0


helix = st.builds(
    HelixDef,
    center=vector(2, HelixDef.center, bound=REACH),
    radius=number(HelixDef.radius, positive=True, bound=REACH),
    z_min=number(HelixDef.z_min, bound=REACH),
    z_max=number(HelixDef.z_max, bound=REACH),
    z_period=time_scale(HelixDef.z_period),
    xy_period=time_scale(HelixDef.xy_period),
    yaw_period=time_scale(HelixDef.yaw_period),
)
rectangle = st.builds(
    RectangleDef,
    length=number(RectangleDef.length, positive=True, bound=REACH),
    width=number(RectangleDef.width, positive=True, bound=REACH),
    height=number(RectangleDef.height, bound=REACH),
    lap_time=time_scale(RectangleDef.lap_time),
    pitch_hold=number(RectangleDef.pitch_hold),
    yaw_hold=number(RectangleDef.yaw_hold),
)
attitude_sine = st.builds(
    AttitudeSineDef,
    axis=st.sampled_from(("x", "z")),
    amplitude=number(AttitudeSineDef.amplitude),
    period=time_scale(AttitudeSineDef.period),
    hover_point=vector(3, AttitudeSineDef.hover_point, bound=REACH),
)
hover = st.builds(
    HoverDef,
    point=vector(3, HoverDef.point, bound=REACH),
    yaw=number(HoverDef.yaw),
    pitch=number(HoverDef.pitch),
)
quintic_chain = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.builds(
        QuinticChainDef,
        waypoints=st.tuples(*[st.builds(Waypoint, position=vector(3, bound=REACH),
                                        rotation=rotation)] * n),
        durations=st.tuples(*[time_scale(None)] * (n - 1)),
    )
)
physical = st.builds(
    config.PhysicalParams,
    module_mass_kg=number(config.PhysicalParams.module_mass_kg, positive=True),
    arm_m=number(config.PhysicalParams.arm_m, positive=True),
    body_size_m=vector(3, config.PhysicalParams.body_size_m, positive=True),
    drag_to_thrust_m=st.floats(min_value=0.0, allow_infinity=False).filter(
        lambda x: x != config.PhysicalParams.drag_to_thrust_m),
    f_max_n=number(config.PhysicalParams.f_max_n, positive=True),
)
gains = st.builds(
    ControllerGains,
    k_pos=vector(3, (6.0,) * 3, positive=True),
    k_vel=vector(3, (4.0,) * 3, positive=True),
    k_att=vector(3, (10.0,) * 3, positive=True),
    k_omega=vector(3, (2.0,) * 3, positive=True),
    k_int=vector(3, (0.0,) * 3, positive=True),
    integral_limit=number(2.0, positive=True),
)
scenario = st.builds(
    config.ScenarioParams,
    trajectory=st.one_of(helix, rectangle, attitude_sine, hover, quintic_chain),
    duration_s=number(30.0, positive=True),
    dt_ctrl_s=number(0.002, positive=True),
    dt_sim_s=number(0.001, positive=True),
    skip_s=number(5.0),
)
MODULES = (
    config.RModule(cell=(0, 0, 0), yaw_rad=0.25, tilt_axis=(0.0, 1.0, 0.0),
                   tilt_angle_rad=0.1),
    config.TModule(cell=(0, 1, 0), eta_rad=-0.5),
)

axis = vector(3, (0.0, 0.0, 1.0)).filter(any)
propeller = st.builds(config.Propeller, tilt_axis=axis, tilt_angle_rad=number(0.0),
                      spin=st.sampled_from((-1, 1)))


def module(cell):
    """Any module kind at `cell`, with a non-zero yaw."""
    placed = dict(cell=st.just(cell), yaw_rad=number(0.0))
    return st.one_of(
        st.builds(config.RModule, tilt_axis=axis, tilt_angle_rad=number(0.0), **placed),
        st.builds(config.TModule, eta_rad=st.floats(-np.pi / 2, np.pi / 2, exclude_min=True,
                                                    exclude_max=True).filter(bool),
                  **placed),
        st.builds(config.CustomModule, propellers=st.tuples(*[propeller] * 4), **placed),
    )


modules = st.lists(st.tuples(*[st.integers(-1000, 1000)] * 3), min_size=1, max_size=6,
                   unique=True).flatmap(lambda cells: st.tuples(*map(module, cells)))


def assert_fields_equal(a, b, path="cfg"):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name),
                                f"{path}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert isinstance(b, (tuple, list)) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_fields_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


@settings(max_examples=150, deadline=None)
@given(physical=physical, gains=gains, scenario=scenario)
def test_render_parse_is_identity(physical, gains, scenario):
    cfg = config.StructureConfig(modules=MODULES, physical=physical,
                                 gains=gains, scenario=scenario)
    rendered = config.render_config(cfg)
    again = config.parse_config(rendered)
    assert config.render_config(again) == rendered
    assert_fields_equal(cfg, again)


@settings(max_examples=100, deadline=None)
@given(modules=modules)
def test_module_lists_render_and_parse_back(modules):
    cfg = config.StructureConfig(modules=modules)
    rendered = config.render_config(cfg)
    again = config.parse_config(rendered)
    assert config.render_config(again) == rendered
    assert_fields_equal(cfg, again)


@pytest.mark.parametrize("kind", ["helix", "rectangle", "attitude_sine", "hover"])
def test_defaults_render_and_parse_back(kind):
    text = ("modules:\n  - {kind: T, eta_rad: 0.5, cell: [0, 0, 0]}\n"
            f"scenario:\n  trajectory: {{kind: {kind}}}\n")
    cfg = config.parse_config(text)
    assert_fields_equal(cfg, config.parse_config(config.render_config(cfg)))
