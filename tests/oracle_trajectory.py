"""Reference lane motion for the propagation tests.

``vehicle_horizon``, ``bicycle_horizon`` and ``sample_trajectory`` are the
trajectory ``slpos.propagation`` first wrote out per device: the vehicle
drives +y, the bicycle +x, each from its start at its speed until it stops
at the lane end.  ``lane_horizon``, ``scenario_horizon`` and
``sample_trajectory`` must give exactly their horizons and poses.
"""

from slpos.propagation import LANE_END_M, Pose, Vec3


def vehicle_horizon(config):
    return (LANE_END_M - config.vehicle_start.y) / config.vehicle_speed


def bicycle_horizon(config):
    return (LANE_END_M - config.bicycle_start.x) / config.bicycle_speed


def sample_trajectory(config, t):
    """Vehicle and bicycle poses at time ``t``."""
    if t < 0 or t > max(vehicle_horizon(config), bicycle_horizon(config)) + 1e-9:
        raise ValueError(f"time {t} outside scenario horizon")
    v, b = config.vehicle_start, config.bicycle_start
    if t < vehicle_horizon(config):
        vehicle = Pose(Vec3(v.x, v.y + config.vehicle_speed * t, v.z),
                       Vec3(0.0, config.vehicle_speed, 0.0))
    else:
        vehicle = Pose(Vec3(v.x, LANE_END_M, v.z))
    if t < bicycle_horizon(config):
        bicycle = Pose(Vec3(b.x + config.bicycle_speed * t, b.y, b.z),
                       Vec3(config.bicycle_speed, 0.0, 0.0))
    else:
        bicycle = Pose(Vec3(LANE_END_M, b.y, b.z))
    return vehicle, bicycle
