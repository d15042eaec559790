from pathlib import Path

import numpy as np
import pytest

from modquad import actuation, config, geometry, vehicle
from modquad.control import Setpoint
from modquad.errors import ParseError, SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fixture_configs_all_parse():
    for path in sorted(FIXTURES.glob("*.cfg")):
        cfg = config.load_config(path)
        assert cfg.modules


def test_exp4_fixture_has_four_t_modules():
    cfg = config.load_config(FIXTURES / "exp4.cfg")
    assert len(cfg.modules) == 4
    assert all(m.kind == "T" for m in cfg.modules)
    etas = sorted(m.eta_rad for m in cfg.modules)
    assert etas == pytest.approx([-np.pi / 4, -np.pi / 4, np.pi / 4, np.pi / 4])
    # opposite tilt types sit on the two diagonals
    by_cell = {m.cell[:2]: m.eta_rad for m in cfg.modules}
    assert by_cell[(0, 0)] == by_cell[(1, 1)]
    assert by_cell[(0, 1)] == by_cell[(1, 0)]
    assert by_cell[(0, 0)] == -by_cell[(0, 1)]


def test_empty_document_rejected():
    with pytest.raises(SchemaError):
        config.parse_config("")


def test_missing_modules_rejected():
    with pytest.raises(SchemaError) as info:
        config.parse_config("physical:\n  arm_m: 0.05\n")
    assert any("modules" in p for p in info.value.problems)


def test_duplicate_cell_rejected():
    text = """
modules:
  - kind: T
    eta_rad: 0.1
    cell: [0, 0, 0]
  - kind: T
    eta_rad: 0.1
    cell: [0, 0, 0]
"""
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert any("share a grid cell" in p for p in info.value.problems)


def test_fractional_cell_rejected():
    text = "modules:\n  - {kind: T, eta_rad: 0.1, cell: [0.5, 0, 0]}\n"
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert any("cell must hold three integers" in p for p in info.value.problems)


def test_cells_beyond_the_grid_bound_rejected_where_parsed():
    # checked where parsed, so each message names its entry and line;
    # 2**53 + 1 is compared as the exact integer, never through a float
    text = """
modules:
  - {kind: T, eta_rad: 0.1, cell: [1048577, 0, 0]}
  - {kind: T, eta_rad: 0.1, cell: [0, -1048577, 0]}
  - {kind: T, eta_rad: 0.1, cell: [0, 0, 9007199254740993]}
  - {kind: T, eta_rad: 0.1, cell: [1048576, -1048576, 0]}
"""
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert info.value.problems == [
        f"modules[{i}] (line {i + 3}): grid cells must lie within +-1048576"
        for i in range(3)]


@pytest.mark.parametrize("cell", ["[0.5, 0, 0]", "[true, 0, 0]", "[.inf, 0, 0]",
                                  "[1.0, 0, 0]", "[0, 0]", "7"])
def test_cell_must_hold_three_integers(cell):
    text = f"modules:\n  - {{kind: T, eta_rad: 0.1, cell: {cell}}}\n"
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert info.value.problems == ["modules[0] (line 2): cell must hold three integers"]


@pytest.mark.parametrize("line, message", [
    ("body_size_m: [0, 0.15, 0.06]", "body_size_m must be a list of 3 positive numbers"),
    ("drag_to_thrust_m: -0.1", "drag_to_thrust_m must be non-negative"),
])
def test_physical_block_rejects_impossible_bodies(line, message):
    text = f"modules:\n  - {{kind: T, eta_rad: 0.1, cell: [0, 0, 0]}}\nphysical:\n  {line}\n"
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert info.value.problems == [f"physical (line 4): {message}"]


def test_unknown_key_rejected_with_location():
    text = """
modules:
  - kind: T
    eta_rad: 0.1
    cell: [0, 0, 0]
    masse_kg: 1.0
"""
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    message = str(info.value)
    assert "unknown key 'masse_kg'" in message
    assert "line" in message


def test_kind_specific_keys_enforced():
    text = """
modules:
  - kind: R
    eta_rad: 0.3
    cell: [0, 0, 0]
"""
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert any("not valid for an R module" in p for p in info.value.problems)


def test_repeated_key_rejected_but_merged_key_may_be_overridden():
    text = ("modules:\n  - {kind: T, eta_rad: 0.7, cell: [0, 0, 0]}\n"
            "physical:\n  <<: {f_max_n: 0.9, arm_m: 0.04}\n  f_max_n: 0.5\n")
    physical = config.parse_config(text).physical
    assert (physical.f_max_n, physical.arm_m) == (0.5, 0.04)
    with pytest.raises(ParseError, match="duplicate key 'f_max_n'"):
        config.parse_config(text + "  f_max_n: 0.6\n")


def test_invalid_yaml_raises_parse_error():
    with pytest.raises(ParseError):
        config.parse_config("modules: [unclosed")
    # the message names the line and column of the syntax error
    with pytest.raises(ParseError, match="line 4, column 4"):
        config.parse_config("modules:\n  - kind: R\n    cell: [0, 0, 0]\n   bad: 1\n")


def test_multiple_problems_reported_together():
    text = """
modules:
  - kind: Q
    cell: [0, 0]
physical:
  arm_m: -1
"""
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert len(info.value.problems) >= 3


CUSTOM = """
modules:
  - kind: custom
    cell: [0, 0, 0]
    propellers:
      - {tilt_axis: [0.70710678, 0.70710678, 0], tilt_angle_rad: 0.5, spin: 1}
      - {tilt_axis: [0, 0, 1], tilt_angle_rad: 0.0, spin: -1}
      - {tilt_axis: [0, 0, 1], tilt_angle_rad: 0.0, spin: 1}
      - {tilt_axis: [0, 0, 1], tilt_angle_rad: 0.0, spin: -1}
"""


def test_custom_module_roundtrip():
    cfg = config.parse_config(CUSTOM)
    structure = config.build_structure(cfg)
    assert structure.n_rotors == 4
    # one tilted rotor breaks torque balance
    from modquad import vehicle
    report = vehicle.check_torque_balance(structure.placements[0].module)
    assert not report.balanced



@pytest.mark.parametrize("line", ["eta_rad: 0.3", "tilt_axis: [1, 0, 0]",
                                  "tilt_angle_rad: 0.1"])
def test_custom_module_rejects_keys_of_other_kinds(line):
    key = line.split(":")[0]
    text = CUSTOM.replace("    cell:", f"    {line}\n    cell:")
    with pytest.raises(SchemaError) as info:
        config.parse_config(text)
    assert info.value.problems == [
        f"modules[0] (line 3): {key} is not valid for a custom module"]


def test_custom_module_rejects_boolean_spin():
    # `true == 1` in Python, but a spin sign is a number
    with pytest.raises(SchemaError) as info:
        config.parse_config(CUSTOM.replace("spin: 1}", "spin: true}", 1))
    assert info.value.problems == [
        "modules[0].propellers[0] (line 6): spin must be +1 or -1"]

def test_render_parse_roundtrip():
    for name in ("exp1.cfg", "exp4.cfg", "sim3.cfg", "fig5d.cfg"):
        cfg = config.load_config(FIXTURES / name)
        rendered = config.render_config(cfg)
        again = config.parse_config(rendered)
        assert config.render_config(again) == rendered
        assert [m.cell for m in again.modules] == [m.cell for m in cfg.modules]
        assert again.physical == cfg.physical
        assert np.array_equal(again.gains.k_att, cfg.gains.k_att)
        if cfg.scenario is not None:
            assert again.scenario.trajectory == cfg.scenario.trajectory
            assert again.scenario.duration_s == cfg.scenario.duration_s


def test_exponent_floats_without_dot_parse_as_numbers():
    # YAML 1.1 alone loads `1e-3` as a string, which the schema rejected as
    # "dt_sim_s must be a finite number".
    text = (FIXTURES / "exp1.cfg").read_text()
    edited = (text.replace("dt_sim_s: 0.001", "dt_sim_s: 1e-3")
              .replace("k_att: [100, 100, 100]", "k_att: [1e2, 1.0e2, 1E+2]"))
    assert edited.count("e") > text.count("e")
    cfg = config.parse_config(edited)
    assert cfg.scenario.dt_sim_s == 0.001
    assert config.render_config(cfg) == config.render_config(config.parse_config(text))



def test_exponent_floats_render_untagged():
    # a float whose repr has no dot used to render as `!!float '1e-05'`
    cfg = config.load_config(FIXTURES / "exp1.cfg")
    cfg.scenario.dt_sim_s = 1e-5
    rendered = config.render_config(cfg)
    assert "\n  dt_sim_s: 1e-05\n" in rendered
    again = config.parse_config(rendered)
    assert again.scenario.dt_sim_s == 1e-5
    assert config.render_config(again) == rendered

def test_build_structure_matches_fixture_layout():
    cfg = config.load_config(FIXTURES / "sim1.cfg")
    structure = config.build_structure(cfg)
    assert structure.n_modules == 16
    assert structure.mass == pytest.approx(16 * 0.135)
    analysis = actuation.analyze_structure(structure)
    assert analysis.controllable_dof == 6


@pytest.mark.parametrize("name", ["exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "fig5a",
                                  "sim1", "sim2", "sim3"])
def test_build_trajectory_returns_the_configs_definition(name):
    cfg = config.load_config(FIXTURES / f"{name}.cfg")
    analysis = actuation.analyze_structure(config.build_structure(cfg),
                                           f_max=cfg.physical.f_max_n)
    trajectory = config.build_trajectory(cfg, analysis.controllable_dof)
    assert trajectory is cfg.scenario.trajectory
    assert isinstance(trajectory(0.0), Setpoint)


def test_build_trajectory_requires_scenario():
    cfg = config.load_config(FIXTURES / "fig5d.cfg")
    with pytest.raises(SchemaError):
        config.build_trajectory(cfg, 6)


def test_module_yaw_is_applied():
    text = """
modules:
  - kind: R
    tilt_axis: [0, 1, 0]
    tilt_angle_rad: 0.3
    yaw_rad: 1.5707963267948966
    cell: [0, 0, 0]
"""
    cfg = config.parse_config(text)
    structure = config.build_structure(cfg)
    # a quarter-turn yaw moves the lean from +x toward +y
    axis = structure.rotor_axes[0]
    assert axis[1] == pytest.approx(np.sin(0.3), abs=1e-12)
    assert abs(axis[0]) < 1e-12


def test_build_structure_builds_each_design_once(monkeypatch):
    # sim1 holds 16 entries of 2 designs (eta = +-pi/4); a later change must
    # not bring back per-entry module builds or per-placement rotation checks:
    # each check is one stacked determinant, one per design and one for all
    # placements
    cfg = config.load_config(FIXTURES / "sim1.cfg")
    assert len(cfg.modules) == 16 and len({m.design for m in cfg.modules}) == 2
    specs, dets, checks = [], [], []
    post_init, det, is_rotation = (vehicle.ModuleSpec.__post_init__, np.linalg.det,
                                   geometry.is_rotation)
    monkeypatch.setattr(vehicle.ModuleSpec, "__post_init__",
                        lambda self: specs.append(post_init(self)))
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(np.shape(a)) or det(a))
    monkeypatch.setattr(geometry, "is_rotation",
                        lambda r, **kw: checks.append(1) or is_rotation(r, **kw))
    structure = config.build_structure(cfg)
    assert structure.n_modules == 16
    assert len(specs) == 2
    assert [s for s in dets if s != (4, 3, 3)] == [(16, 3, 3)]
    assert len(dets) == 3 and len(checks) == 3
