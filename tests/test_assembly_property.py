"""Property test: the stacked assembly matches a module-by-module one.

`assemble_structure` checks and applies every placement attitude as one
(n, 3, 3) stack. The reference below is the per-module loop it replaced:
each module's rotated cuboid inertia plus its parallel-axis term, and its
rotor table turned by its attitude and moved to its offset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modquad import actuation, geometry, vehicle
from modquad.errors import ModquadError

unit = st.floats(-1.0, 1.0)
angle = st.floats(-np.pi, np.pi)
# tilts mostly below 45 degrees, so that many structures can hover
tilt = st.one_of(st.floats(-0.6, 0.6), angle)
rotation = st.tuples(unit, unit, unit, tilt).filter(
    lambda v: np.linalg.norm(v[:3]) > 1e-3).map(
    lambda v: geometry.rodrigues(np.array(v[:3]) / np.linalg.norm(v[:3]), v[3]))
physical = dict(mass=st.floats(0.05, 0.2), k_m=st.floats(0.0, 0.05))

r_module = st.builds(vehicle.make_r_module, rotation, **physical)
t_module = st.builds(vehicle.make_t_module, st.one_of(st.floats(-0.8, 0.8), st.floats(-1.5, 1.5)),
                     **physical)
custom_module = st.builds(
    lambda orientations, spins, mass, k_m: vehicle.ModuleSpec(
        "custom", vehicle.square_positions(vehicle.DEFAULT_ARM), orientations, spins,
        mass=mass, k_m=k_m),
    st.lists(rotation, min_size=4, max_size=4).map(np.array),
    st.lists(st.sampled_from((-1, 1)), min_size=4, max_size=4), **physical)

cells = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
                 min_size=1, max_size=16, unique=True)
placements = cells.flatmap(lambda cs: st.tuples(*[
    st.builds(vehicle.ModulePlacement, st.one_of(r_module, t_module, custom_module),
              st.just(c), angle.map(lambda yaw: geometry.rot_principal("z", yaw)))
    for c in cs]))


def reference_assembly(placements):
    """StructureModel assembled one module at a time."""
    cells = [tuple(int(c) for c in p.cell) for p in placements]
    sx, sy, sz = placements[0].module.body_size
    centers = np.array([[c[1] * sx, c[0] * sy, c[2] * sz] for c in cells])
    masses = np.array([p.module.mass for p in placements])
    total_mass = float(masses.sum())
    com = masses @ centers / total_mass
    offsets = centers - com

    inertia = np.zeros((3, 3))
    positions = []
    orientations = []
    for placement, d in zip(placements, offsets):
        module, att = placement.module, placement.attitude
        inertia += att @ module.cuboid_inertia() @ att.T
        inertia += module.mass * (np.dot(d, d) * np.eye(3) - np.outer(d, d))
        positions.append(d + module.positions @ att.T)
        orientations.append(att @ module.orientations)
    table = (np.concatenate(positions), np.concatenate(orientations),
             np.concatenate([p.module.spin_signs for p in placements]),
             np.repeat([p.module.k_m for p in placements], 4))
    return vehicle.StructureModel(placements, total_mass, inertia, com, offsets, *table,
                                  design_matrix=vehicle.design_matrix(*table))


ARRAYS = ("inertia", "com", "module_offsets", "rotor_positions", "rotor_orientations",
          "spin_signs", "drag_ratios", "design_matrix")


@settings(max_examples=60, deadline=None)
@given(placements=placements)
def test_stacked_assembly_matches_module_by_module(placements):
    stacked = vehicle.assemble_structure(placements)
    reference = reference_assembly(placements)
    assert abs(stacked.mass - reference.mass) <= 1e-12
    for name in ARRAYS:
        got, want = getattr(stacked, name), getattr(reference, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12, name
    assert verdict(stacked) == verdict(reference)


def verdict(structure):
    """DOF, applicability and tie-break of the analysis, or the error it raised."""
    try:
        a = actuation.analyze_structure(structure)
    except ModquadError as exc:
        return type(exc)
    return a.controllable_dof, a.applicable, a.tie_broken
