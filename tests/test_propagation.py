import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_trajectory
from channels import echo_path, los_path
from slpos.constants import SPEED_OF_LIGHT
from slpos.propagation import (
    _GROUND,
    _IN_PLANE,
    LANE_AXES,
    MAX_COORDINATE_M,
    SCENARIO_RANGES,
    SPEED_RANGE,
    BuildingBox,
    ChannelSnapshot,
    PathKind,
    Pose,
    ScenarioConfig,
    Vec3,
    _reflection_point,
    _xyz,
    build_scenario,
    building_facades,
    distance,
    friis_gain,
    lane_horizon,
    sample_trajectory,
    scenario_from_text,
    scenario_horizon,
    scenario_to_text,
    segment_blocked,
    trace_paths,
    vehicle_horizon,
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


@pytest.mark.parametrize("device", ["vehicle", "bicycle"])
def test_rsu_clearance_names_the_lane_it_is_too_close_to(device):
    # Half a metre above the middle of each lane.
    scn = build_scenario(1)
    start = getattr(scn, f"{device}_start")
    rsu = Vec3(start.x, start.y, start.z + 0.5).with_component(LANE_AXES[device], 0.0)
    with pytest.raises(ValueError, match=f"at least 1 m from the lane of {device}_start, "
                                         f"got 0.5 m"):
        dataclasses.replace(scn, rsu=Pose(rsu))


@pytest.mark.parametrize("bicycle_z, accepted", [
    (1.0, True),     # the default scenario 2: 0.5 m apart at t = 4.5 s
    (1.2, True),     # 0.3 m
    (1.3, False),    # 0.2 m
    (1.5, False),    # the devices meet
])
def test_devices_must_stay_apart_while_both_move(bicycle_z, accepted):
    scn = build_scenario(2)
    start = Vec3(scn.bicycle_start.x, scn.bicycle_start.y, bicycle_z)
    if accepted:
        assert dataclasses.replace(scn, bicycle_start=start).bicycle_start == start
    else:
        with pytest.raises(ValueError, match="vehicle_start and bicycle_start"):
            dataclasses.replace(scn, bicycle_start=start)


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


def _random_lanes(rng, scenario_id):
    """Scenario ``scenario_id`` with random starts along and beside both lanes
    and random speeds, drawn again until the scenario is accepted."""
    while True:
        try:
            return dataclasses.replace(
                build_scenario(scenario_id),
                vehicle_start=Vec3(rng.uniform(-5, 5), rng.uniform(-100, 70), rng.uniform(0.5, 3)),
                bicycle_start=Vec3(rng.uniform(-100, 70), rng.uniform(-12, 12), rng.uniform(0.5, 3)),
                vehicle_speed=rng.uniform(0.5, 30), bicycle_speed=rng.uniform(0.5, 30))
        except ValueError:
            continue


@pytest.mark.parametrize("scenario_id", [1, 2])
def test_lanes_move_the_devices_as_the_per_device_trajectory_did(scenario_id):
    rng = random.Random(scenario_id)
    for _ in range(200):
        scn = _random_lanes(rng, scenario_id)
        ends = (oracle_trajectory.vehicle_horizon(scn), oracle_trajectory.bicycle_horizon(scn))
        assert (lane_horizon(scn, "vehicle"), lane_horizon(scn, "bicycle")) == ends
        assert vehicle_horizon(scn) == ends[0]
        assert scenario_horizon(scn) == max(ends)
        # Random times, each lane end, just beyond it, and the horizon's slack.
        times = [rng.uniform(0, max(ends)) for _ in range(4)]
        times += [t for end in ends for t in (end, math.nextafter(end, math.inf))]
        times += [max(ends) + 1e-9, max(ends) + 1e-6]
        for t in times:
            if t > max(ends) + 1e-9:
                for sample in (sample_trajectory, oracle_trajectory.sample_trajectory):
                    with pytest.raises(ValueError, match="outside scenario horizon"):
                        sample(scn, t)
            else:
                assert sample_trajectory(scn, t) == oracle_trajectory.sample_trajectory(scn, t)


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


@pytest.mark.parametrize("a, b, name", [
    (Vec3(1e308, 0.0, 1.0), Vec3(0.0, 0.0, 1.0), "segment start"),
    (Vec3(0.0, 0.0, 1.0), Vec3(0.0, -1e6 - 1e-9, 1.0), "segment end"),
])
def test_segment_end_beyond_the_coordinate_range_rejected(a, b, name):
    with pytest.raises(ValueError, match=f"{name} must lie within 1e\\+06 m of the origin"):
        segment_blocked(a, b, [])


def test_a_moved_building_blocks_by_its_own_geometry():
    # trace_paths keeps each scenario's building slabs and facades: a
    # scenario parsed with building 0 moved, traced after the stock one in
    # the same process, is tested against its own buildings, and the stock
    # one still against the stock buildings afterwards.
    stock = build_scenario(1)
    text = scenario_to_text(stock)
    assert "building0_center=45.0,45.0,15.0\n" in text
    moved = scenario_from_text(text.replace("building0_center=45.0,45.0,15.0",
                                            "building0_center=55.0,55.0,15.0"))
    # The segment crosses (22.5, 22.5), inside building 0 at x, y in [20, 70]
    # and clear of it at x, y in [30, 80].
    a, b = Pose(Vec3(15.0, 30.0, 1.5)), Pose(Vec3(30.0, 15.0, 1.5))
    for scn, blocked in ((stock, True), (moved, False), (stock, True)):
        assert segment_blocked(a.position, b.position, scn.buildings) is blocked
        assert trace_paths(a, b, scn, WAVELENGTH).has_los is not blocked
        assert trace_paths(b, a, scn, WAVELENGTH).has_los is not blocked


def test_trace_of_overflowing_coordinates_is_rejected():
    # The segment's extent would overflow; the trace rejects its ends on
    # entry, beyond the working range of coordinates.
    with pytest.raises(ValueError, match=r"transmitter must lie within 1e\+06 m of the origin"):
        trace_paths(Pose(Vec3(1e308, 0.0, 1.0)), Pose(Vec3(-1e308, 0.0, 1.0)),
                    build_scenario(2), WAVELENGTH)


@pytest.mark.parametrize("tx, rx, message", [
    (Pose(Vec3(0.0, 0.0, 1.0)), Pose(Vec3(0.0, 1e6 + 1e-9, 1.0)),
     r"receiver must lie within 1e\+06 m of the origin"),
    (Pose(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 150.00000000000003)), Pose(Vec3(1.0, 0.0, 1.0)),
     r"transmitter speed must lie in \[0, 150\] m/s, got 150.00000000000003"),
    (Pose(Vec3(0.0, 0.0, 1.0)), Pose(Vec3(1.0, 0.0, 1.0), Vec3(1e200, 1e200, 0.0)),
     r"receiver speed must lie in \[0, 150\] m/s, got inf"),
], ids=["receiver-position", "transmitter-speed", "receiver-speed-overflow"])
def test_trace_of_a_pose_beyond_the_working_range_is_rejected(tx, rx, message):
    with pytest.raises(ValueError, match=message):
        trace_paths(tx, rx, build_scenario(2), WAVELENGTH)


def test_trace_at_the_edges_of_the_working_range_is_finite():
    # Ends at opposite corners of the coordinate range, each at the top
    # speed, against scenario 1's buildings: every path is finite.
    edge, top = MAX_COORDINATE_M, SPEED_RANGE[1]
    tx = Pose(Vec3(-edge, -edge, edge), Vec3(top, 0.0, 0.0))
    rx = Pose(Vec3(edge, edge, 1e-9), Vec3(0.0, -top, 0.0))
    for a, b in ((tx, rx), (rx, tx)):
        snap = trace_paths(a, b, build_scenario(1), WAVELENGTH)
        assert snap.paths
        for path in snap.paths:
            assert math.isfinite(path.delay) and math.isfinite(path.radial_velocity)
            assert math.isfinite(abs(path.gain)) and abs(path.gain) > 0


@pytest.mark.parametrize("name", list(SCENARIO_RANGES))
def test_scenario_scalar_at_its_edges_builds_and_beyond_them_is_rejected(name):
    lo, hi, unit = SCENARIO_RANGES[name]
    for value in (lo, hi):
        assert getattr(dataclasses.replace(build_scenario(1), **{name: value}), name) == value
    for value in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{name} must lie in "):
            dataclasses.replace(build_scenario(1), **{name: value})


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
        point = _reflection_point(_xyz(tx.position), _xyz(rx.position), facade)
        assert point is not None
        assert point[facade.axis] == facade.coord
        for axis in _IN_PLANE[facade.axis]:
            assert facade.lo[axis] <= point[axis] <= facade.hi[axis]
        point = Vec3(*point)
        # Path length through the reflection point equals the image length.
        via = distance(tx.position, point) + distance(point, rx.position)
        assert via == pytest.approx(path.delay * SPEED_OF_LIGHT, rel=1e-12)


def _reference_ground_point(t, r):
    # The height-weighted ground touch point of the ground bounce, as it was
    # written out before the ground became a reflecting plane.
    if not (t[2] > 0 and r[2] > 0):
        return None
    heights = t[2] + r[2]
    return ((t[0] * r[2] + r[0] * t[2]) / heights, (t[1] * r[2] + r[1] * t[2]) / heights, 0.0)


def _reference_facade_point(t, r, axis, coord, sign, u_lo, u_hi, z_lo, z_hi):
    # A vertical facade's specular point, on its horizontal coordinate u
    # and its height z, as it was written out for vertical faces alone.
    d_tx = sign * (t[axis] - coord)
    d_rx = sign * (r[axis] - coord)
    if d_tx <= 0 or d_rx <= 0:
        return None
    total = d_tx + d_rx
    u_axis = 1 - axis
    u = (t[u_axis] * d_rx + r[u_axis] * d_tx) / total
    z = (t[2] * d_rx + r[2] * d_tx) / total
    if not (u_lo <= u <= u_hi and z_lo <= z <= z_hi):
        return None
    return (coord, u, z) if axis == 0 else (u, coord, z)


def _bits(point):
    return None if point is None else [c.hex() for c in point]


def test_reflection_point_matches_the_ground_and_facade_formulas_bit_for_bit():
    # One rule for every plane gives the two formulas' points exactly, and
    # the same decisions, in both link directions.  Half the pairs lie near
    # the buildings, where facade points land; half anywhere in the working
    # range.
    boxes = build_scenario(1).buildings
    planes = []
    for box in boxes:
        lo, hi = box.min_corner, box.max_corner
        old = [(0, hi.x, +1, lo.y, hi.y, lo.z, hi.z), (0, lo.x, -1, lo.y, hi.y, lo.z, hi.z),
               (1, hi.y, +1, lo.x, hi.x, lo.z, hi.z), (1, lo.y, -1, lo.x, hi.x, lo.z, hi.z)]
        planes += zip(building_facades(box), old)
    rng = random.Random(2026)
    hits = {"ground": 0, "facade": 0}
    for i in range(2000):
        xy, z = (100.0, 40.0) if i % 2 else (MAX_COORDINATE_M, MAX_COORDINATE_M)
        t, r = ((rng.uniform(-xy, xy), rng.uniform(-xy, xy), rng.uniform(-z / 8, z))
                for _ in range(2))
        for a, b in ((t, r), (r, t)):
            ground = _reference_ground_point(a, b)
            assert _bits(_reflection_point(a, b, _GROUND)) == _bits(ground)
            hits["ground"] += ground is not None
            for facade, old in planes:
                point = _reference_facade_point(a, b, *old)
                assert _bits(_reflection_point(a, b, facade)) == _bits(point)
                hits["facade"] += point is not None
    assert min(hits.values()) > 500, hits


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
    # With reflections off, an extra opaque box can only remove paths.  The
    # lanes run above the box (at most 20 m high), which may stand anywhere
    # in the plane, and a lane may not cross a building.
    if a == b:
        return
    base = ScenarioConfig(
        scenario_id=2, rsu=None, vehicle_start=Vec3(1.6, -70.0, 25.5),
        bicycle_start=Vec3(-16.4, -7.0, 25.0), vehicle_speed=14.0,
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
    text = scenario_to_text(scn)
    assert scenario_from_text(text) == scn
    assert scenario_to_text(scenario_from_text(text)) == text


def test_scenario_text_rejects_unknown_keys():
    text = scenario_to_text(build_scenario(2)) + "mystery_knob=1\n"
    with pytest.raises(ValueError):
        scenario_from_text(text)


def test_scenario_text_skips_comments_and_blank_lines():
    text = scenario_to_text(build_scenario(1)).replace("\n", "\n\n  # note\n")
    assert scenario_from_text("# scenario 1\n" + text) == build_scenario(1)


def test_scenario_text_rejects_missing_keys():
    # A plain key, and the second key of a building.
    for missing in ("vehicle_speed", "building0_half_extents"):
        text = "\n".join(line for line in scenario_to_text(build_scenario(2)).splitlines()
                         if not line.startswith(missing))
        with pytest.raises(ValueError, match=missing):
            scenario_from_text(text)


# --- paths and snapshots ------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: los_path(0.0), "path delay must be positive, got 0.0"),
    (lambda: los_path(-1e-9), "path delay must be positive, got -1e-09"),
    (lambda: echo_path(1e-7, 0j), "path gain must be nonzero"),
    (lambda: ChannelSnapshot((los_path(2e-7), echo_path(1e-7, 0.5))),
     "paths must be sorted by ascending delay"),
    (lambda: ChannelSnapshot((echo_path(1e-7, 0.5), los_path(2e-7))),
     "a line-of-sight path must be first"),
], ids=["zero-delay", "negative-delay", "zero-gain", "unsorted", "los-not-first"])
def test_malformed_path_or_snapshot_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
