import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpos.constants import SPEED_OF_LIGHT
from slpos.propagation import (
    BuildingBox,
    PathKind,
    Pose,
    ScenarioConfig,
    Vec3,
    build_scenario,
    building_facades,
    distance,
    friis_gain,
    sample_trajectory,
    scenario_from_text,
    scenario_horizon,
    scenario_to_text,
    segment_blocked,
    trace_paths,
    wall_reflection_point,
)

WAVELENGTH = SPEED_OF_LIGHT / 5.9e9


# --- scenario construction ---------------------------------------------------

def test_scenario_1_has_rsu_at_intersection_center():
    scn = build_scenario(1)
    assert scn.rsu is not None
    assert scn.rsu.position == Vec3(0.0, 0.0, 10.0)
    assert scn.rsu.velocity == Vec3(0.0, 0.0, 0.0)


def test_scenario_2_has_no_rsu():
    assert build_scenario(2).rsu is None


def test_building_layout():
    scn = build_scenario(1)
    assert len(scn.buildings) == 4
    for box in scn.buildings:
        assert box.half_extents == Vec3(25.0, 25.0, 15.0)
    centers = sorted((b.center.x, b.center.y) for b in scn.buildings)
    assert centers == [(-45.0, -45.0), (-45.0, 45.0), (45.0, -45.0), (45.0, 45.0)]


def test_invalid_scenario_id_rejected():
    with pytest.raises(ValueError):
        build_scenario(3)


def test_scenario_config_validation():
    scn = build_scenario(1)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario_id=1, rsu=None, vehicle_start=scn.vehicle_start,
                       bicycle_start=scn.bicycle_start, vehicle_speed=14.0,
                       bicycle_speed=4.0, buildings=scn.buildings,
                       measurement_interval=0.1)
    with pytest.raises(ValueError):
        BuildingBox(Vec3(0, 0, 0), Vec3(1.0, -1.0, 1.0))


@pytest.mark.parametrize("rsu, accepted", [
    (Vec3(1.6, 0.0, 2.5), True),      # 1 m above the vehicle lane
    (Vec3(1.6, 0.0, 2.4), False),
    (Vec3(1.6, 71.0, 1.5), True),     # 1 m beyond the lane end
    (Vec3(1.6, 70.5, 1.5), False),
    (Vec3(1.6, -71.0, 1.5), True),    # 1 m before the lane start
    (Vec3(-70.5, -7.0, 1.0), False),  # 0.5 m before the bicycle lane start
    (Vec3(0.0, 0.0, 1e-9), True),
    (Vec3(0.0, 0.0, 0.0), False),
])
def test_rsu_clearance_is_measured_to_the_lane_segments(rsu, accepted):
    scn = build_scenario(1)
    if accepted:
        assert dataclasses.replace(scn, rsu=Pose(rsu)).rsu.position == rsu
    else:
        with pytest.raises(ValueError, match="rsu_position"):
            dataclasses.replace(scn, rsu=Pose(rsu))


# --- trajectories ------------------------------------------------------------

def test_scenario_2_start_positions():
    scn = build_scenario(2)
    vehicle, bicycle = sample_trajectory(scn, 0.0)
    assert vehicle.position == Vec3(1.6, -70.0, 1.5)
    assert bicycle.position == Vec3(-16.4, -7.0, 1.0)


def test_scenario_2_collision_at_4_5_seconds():
    scn = build_scenario(2)
    vehicle, bicycle = sample_trajectory(scn, 4.5)
    # Exact up to the binary representation of the 16.4 m start coordinate.
    assert vehicle.position.y == -7.0
    assert bicycle.position.y == -7.0
    assert abs(vehicle.position.x - bicycle.position.x) < 1e-14


def test_scenario_2_vehicle_crosses_center_at_5_seconds():
    scn = build_scenario(2)
    vehicle, _ = sample_trajectory(scn, 5.0)
    assert vehicle.position.y == pytest.approx(0.0, abs=1e-12)


def test_trajectory_outside_horizon_rejected():
    scn = build_scenario(2)
    with pytest.raises(ValueError):
        sample_trajectory(scn, -0.1)
    with pytest.raises(ValueError):
        sample_trajectory(scn, scenario_horizon(scn) + 1.0)


def test_trajectory_clamps_at_lane_end():
    scn = build_scenario(2)
    # Bicycle horizon (21.6 s) exceeds the vehicle's 10 s lane traversal.
    vehicle, bicycle = sample_trajectory(scn, 15.0)
    assert vehicle.position.y == 70.0
    assert vehicle.velocity == Vec3(0.0, 0.0, 0.0)
    assert bicycle.position.x == pytest.approx(-16.4 + 4.0 * 15.0)


# --- blockage ----------------------------------------------------------------

def test_street_canyon_clear_to_rsu():
    scn = build_scenario(1)
    assert not segment_blocked(Vec3(1.6, -70.0, 1.5), Vec3(0.0, 0.0, 10.0),
                               scn.buildings)


def test_cross_canyon_segment_blocked():
    scn = build_scenario(1)
    assert segment_blocked(Vec3(1.6, -70.0, 1.5), Vec3(-60.0, -7.0, 1.0),
                           scn.buildings)


def test_empty_building_list_never_blocks():
    assert not segment_blocked(Vec3(0, 0, 0), Vec3(1, 2, 3), [])


def test_grazing_contact_is_unblocked():
    box = BuildingBox(Vec3(0.0, 0.0, 5.0), Vec3(10.0, 10.0, 5.0))
    # Segment running exactly along the x = 10 face plane.
    assert not segment_blocked(Vec3(10.0, -20.0, 3.0), Vec3(10.0, 20.0, 3.0), [box])


def test_degenerate_segment_rejected():
    with pytest.raises(ValueError):
        segment_blocked(Vec3(1, 1, 1), Vec3(1, 1, 1), [])


# --- free-space gain ---------------------------------------------------------

def test_friis_amplitude_at_70_5_m():
    gain = friis_gain(Vec3(0, 0, 0), Vec3(70.5, 0, 0), 0.05081)
    assert abs(gain) == pytest.approx(5.736e-5, rel=1e-3)


def test_friis_unit_amplitude_fixed_point():
    d = 0.05 / (4 * math.pi)
    gain = friis_gain(Vec3(0, 0, 0), Vec3(d, 0, 0), 0.05)
    assert abs(gain) == pytest.approx(1.0, rel=1e-12)


def test_friis_inverse_distance_law():
    g1 = friis_gain(Vec3(0, 0, 0), Vec3(25.0, 0, 0), 0.05)
    g2 = friis_gain(Vec3(0, 0, 0), Vec3(50.0, 0, 0), 0.05)
    assert abs(g1) == pytest.approx(2 * abs(g2), rel=1e-12)


def test_friis_zero_distance_rejected():
    with pytest.raises(ValueError):
        friis_gain(Vec3(1, 2, 3), Vec3(1, 2, 3), 0.05)


# --- path tracing ------------------------------------------------------------

def test_center_geometry_los_and_ground_bounce():
    scn = build_scenario(1)
    tx = scn.rsu
    rx = Pose(Vec3(1.6, 0.0, 1.5))
    snap = trace_paths(tx, rx, scn, WAVELENGTH)
    assert snap.has_los
    los, ground = snap.paths[0], snap.paths[1]
    assert ground.kind is PathKind.GROUND
    assert los.delay * SPEED_OF_LIGHT == pytest.approx(8.649, abs=1e-3)
    assert ground.delay * SPEED_OF_LIGHT == pytest.approx(math.hypot(1.6, 11.5), rel=1e-12)
    excess = (ground.delay - los.delay) * SPEED_OF_LIGHT
    assert excess > 1.0
    assert excess == pytest.approx(2.96, abs=0.01)


def test_reflections_disabled_leaves_only_los():
    scn = build_scenario(1)
    bare = ScenarioConfig(
        scenario_id=1, rsu=scn.rsu, vehicle_start=scn.vehicle_start,
        bicycle_start=scn.bicycle_start, vehicle_speed=14.0, bicycle_speed=4.0,
        buildings=(), measurement_interval=0.1,
        ground_reflection_coeff=0.0, wall_reflection_coeff=0.0,
    )
    snap = trace_paths(Pose(Vec3(0, 0, 10)), Pose(Vec3(1.6, -30.0, 1.5)), bare, WAVELENGTH)
    assert len(snap.paths) == 1
    assert snap.paths[0].kind is PathKind.LOS


def test_static_endpoints_have_zero_radial_velocity():
    scn = build_scenario(1)
    snap = trace_paths(Pose(Vec3(0, 0, 10)), Pose(Vec3(1.6, -40.0, 1.5)), scn, WAVELENGTH)
    assert snap.paths
    for path in snap.paths:
        assert path.radial_velocity == 0.0


def test_radial_velocity_sign_matches_range_rate():
    scn = build_scenario(1)
    dt = 1e-4
    moving = Pose(Vec3(1.6, -40.0, 1.5), Vec3(0.0, 14.0, 0.0))
    later = Pose(Vec3(1.6, -40.0 + 14.0 * dt, 1.5), Vec3(0.0, 14.0, 0.0))
    rsu = Pose(Vec3(0, 0, 10))
    now = trace_paths(rsu, moving, scn, WAVELENGTH)
    then = trace_paths(rsu, later, scn, WAVELENGTH)
    for p_now, p_then in zip(now.paths, then.paths):
        numeric = (p_then.delay - p_now.delay) * SPEED_OF_LIGHT / dt
        assert p_now.radial_velocity == pytest.approx(numeric, abs=1e-2)


def test_los_delay_matches_distance_exactly():
    scn = build_scenario(1)
    tx, rx = Pose(Vec3(0, 0, 10)), Pose(Vec3(1.6, -55.0, 1.5))
    snap = trace_paths(tx, rx, scn, WAVELENGTH)
    d = distance(tx.position, rx.position)
    assert snap.paths[0].delay == pytest.approx(d / SPEED_OF_LIGHT, rel=1e-15)


def test_wall_reflection_points_lie_on_their_facades():
    scn = build_scenario(1)
    tx = Pose(Vec3(0, 0, 10))
    rx = Pose(Vec3(1.6, -65.0, 1.5))
    snap = trace_paths(tx, rx, scn, WAVELENGTH)
    walls = [p for p in snap.paths if p.kind is PathKind.WALL]
    assert walls, "expected facade reflections at the far end of the lane"
    for path in walls:
        box = scn.buildings[path.wall_index // 4]
        facade = building_facades(box)[path.wall_index % 4]
        point = wall_reflection_point(tx.position, rx.position, facade)
        assert point is not None
        assert abs(point.component(facade.axis) - facade.coord) < 1e-9
        u = point.component(1 - facade.axis)
        assert facade.u_lo - 1e-9 <= u <= facade.u_hi + 1e-9
        assert facade.z_lo - 1e-9 <= point.z <= facade.z_hi + 1e-9
        # Path length through the reflection point equals the image length.
        via = distance(tx.position, point) + distance(point, rx.position)
        assert via == pytest.approx(path.delay * SPEED_OF_LIGHT, rel=1e-12)


def test_full_blockage_yields_empty_path_list():
    wall = BuildingBox(Vec3(5.0, 0.0, 25.0), Vec3(1.0, 50.0, 25.0))
    scn = ScenarioConfig(
        scenario_id=2, rsu=None, vehicle_start=Vec3(0.0, -10.0, 1.5),
        bicycle_start=Vec3(10.0, -10.0, 1.0), vehicle_speed=14.0,
        bicycle_speed=4.0, buildings=(wall,), measurement_interval=0.1,
    )
    snap = trace_paths(Pose(Vec3(0.0, -10.0, 1.5)), Pose(Vec3(10.0, -10.0, 1.0)),
                       scn, WAVELENGTH)
    assert snap.paths == ()


def test_coincident_endpoints_rejected():
    scn = build_scenario(1)
    with pytest.raises(ValueError):
        trace_paths(Pose(Vec3(1, 1, 1)), Pose(Vec3(1, 1, 1)), scn, WAVELENGTH)


# --- properties --------------------------------------------------------------

position_grid = st.tuples(
    st.integers(min_value=-240, max_value=240),
    st.integers(min_value=-240, max_value=240),
    st.integers(min_value=2, max_value=40),
).map(lambda t: Vec3(t[0] * 0.25, t[1] * 0.25, t[2] * 0.25))


@settings(max_examples=60, deadline=None)
@given(a=position_grid, b=position_grid)
def test_reciprocity(a, b):
    if a == b:
        return
    scn = build_scenario(1)
    fwd = trace_paths(Pose(a), Pose(b), scn, WAVELENGTH)
    rev = trace_paths(Pose(b), Pose(a), scn, WAVELENGTH)
    fwd_keys = sorted((p.delay, abs(p.gain), p.kind.value, p.wall_index or -1)
                      for p in fwd.paths)
    rev_keys = sorted((p.delay, abs(p.gain), p.kind.value, p.wall_index or -1)
                      for p in rev.paths)
    assert len(fwd_keys) == len(rev_keys)
    for f, r in zip(fwd_keys, rev_keys):
        assert f[0] == pytest.approx(r[0], rel=1e-12)
        assert f[1] == pytest.approx(r[1], rel=1e-12)
        assert f[2:] == r[2:]


@settings(max_examples=40, deadline=None)
@given(a=position_grid, b=position_grid,
       cx=st.integers(min_value=-50, max_value=50),
       cy=st.integers(min_value=-50, max_value=50))
def test_monotonic_blockage_without_wall_reflections(a, b, cx, cy):
    # With reflections off, an extra opaque box can only remove paths.
    if a == b:
        return
    base = ScenarioConfig(
        scenario_id=2, rsu=None, vehicle_start=Vec3(1.6, -70.0, 1.5),
        bicycle_start=Vec3(-16.4, -7.0, 1.0), vehicle_speed=14.0,
        bicycle_speed=4.0, buildings=(), measurement_interval=0.1,
        ground_reflection_coeff=-0.5, wall_reflection_coeff=0.0,
    )
    extra = BuildingBox(Vec3(float(cx), float(cy), 10.0), Vec3(8.0, 8.0, 10.0))
    more = ScenarioConfig(
        scenario_id=2, rsu=None, vehicle_start=base.vehicle_start,
        bicycle_start=base.bicycle_start, vehicle_speed=14.0, bicycle_speed=4.0,
        buildings=(extra,), measurement_interval=0.1,
        ground_reflection_coeff=-0.5, wall_reflection_coeff=0.0,
    )
    n_before = len(trace_paths(Pose(a), Pose(b), base, WAVELENGTH).paths)
    n_after = len(trace_paths(Pose(a), Pose(b), more, WAVELENGTH).paths)
    assert n_after <= n_before


# --- serialization -----------------------------------------------------------

@pytest.mark.parametrize("scenario_id", [1, 2])
def test_scenario_text_round_trip(scenario_id):
    scn = build_scenario(scenario_id)
    assert scenario_from_text(scenario_to_text(scn)) == scn


def test_scenario_text_rejects_unknown_keys():
    text = scenario_to_text(build_scenario(2)) + "mystery_knob=1\n"
    with pytest.raises(ValueError):
        scenario_from_text(text)


def test_scenario_text_rejects_missing_keys():
    text = "\n".join(line for line in scenario_to_text(build_scenario(2)).splitlines()
                     if not line.startswith("vehicle_speed"))
    with pytest.raises(ValueError):
        scenario_from_text(text)
