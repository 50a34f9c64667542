"""Urban-intersection geometry and deterministic multipath synthesis.

Two fixed crossing scenarios on a street-canyon intersection flanked by four
buildings: scenario 1 has a road-side unit (RSU) at the intersection center,
scenario 2 is the same geometry without the RSU.  Propagation paths are
synthesized with the image method: a direct line-of-sight path subject to
building blockage, a ground bounce, and single-bounce reflections off the
vertical building facades.  All functions are pure and safe to call from
concurrent workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .constants import SPEED_OF_LIGHT

# Lanes run the full width of the modeled intersection, ending at +70 m.
LANE_END_M = 70.0

# Parametric overlap below this fraction of the segment counts as grazing
# contact, not blockage.
_GRAZE_EPS = 1e-12


@dataclass(frozen=True)
class Vec3:
    """Cartesian point or vector in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite vector components: {self}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def component(self, axis: int) -> float:
        return (self.x, self.y, self.z)[axis]


def distance(a: Vec3, b: Vec3) -> float:
    return (b - a).norm()


ZERO_VELOCITY = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Pose:
    """Device state: position and velocity."""

    position: Vec3
    velocity: Vec3 = ZERO_VELOCITY


@dataclass(frozen=True)
class BuildingBox:
    """Axis-aligned opaque box given by center and half extents."""

    center: Vec3
    half_extents: Vec3

    def __post_init__(self) -> None:
        h = self.half_extents
        if not (h.x > 0 and h.y > 0 and h.z > 0):
            raise ValueError(f"half extents must be strictly positive: {h}")

    @property
    def min_corner(self) -> Vec3:
        return self.center - self.half_extents

    @property
    def max_corner(self) -> Vec3:
        return self.center + self.half_extents


@dataclass(frozen=True)
class Facade:
    """One vertical outer face of a building box.

    ``axis`` is 0 for faces on a plane of constant x, 1 for constant y;
    ``sign`` is the outward normal direction along that axis.  ``u_lo`` and
    ``u_hi`` bound the other horizontal coordinate of the rectangle.
    """

    axis: int
    coord: float
    sign: int
    u_lo: float
    u_hi: float
    z_lo: float
    z_hi: float


def building_facades(box: BuildingBox) -> list[Facade]:
    """Four vertical outer faces in fixed (+x, -x, +y, -y) order."""
    lo, hi = box.min_corner, box.max_corner
    return [
        Facade(0, hi.x, +1, lo.y, hi.y, lo.z, hi.z),
        Facade(0, lo.x, -1, lo.y, hi.y, lo.z, hi.z),
        Facade(1, hi.y, +1, lo.x, hi.x, lo.z, hi.z),
        Facade(1, lo.y, -1, lo.x, hi.x, lo.z, hi.z),
    ]


class PathKind(Enum):
    LOS = "los"
    GROUND = "ground"
    WALL = "wall"


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: delay, complex linear gain, radial velocity.

    ``radial_velocity`` is the time derivative of the path length (positive
    for a lengthening path).  For wall paths ``wall_index`` identifies the
    facade as ``4 * building_index + facade_index``.
    """

    delay: float
    gain: complex
    radial_velocity: float
    kind: PathKind
    wall_index: int | None = None

    def __post_init__(self) -> None:
        if not self.delay > 0:
            raise ValueError(f"path delay must be positive, got {self.delay}")
        if not abs(self.gain) > 0:
            raise ValueError("path gain must be nonzero")


@dataclass(frozen=True)
class ChannelSnapshot:
    """Multipath channel at one instant, paths sorted by increasing delay."""

    paths: tuple[PathComponent, ...]
    tx_pose: Pose
    rx_pose: Pose
    time: float = 0.0

    def __post_init__(self) -> None:
        delays = [p.delay for p in self.paths]
        if delays != sorted(delays):
            raise ValueError("paths must be sorted by ascending delay")
        for i, p in enumerate(self.paths):
            if p.kind is PathKind.LOS and i != 0:
                raise ValueError("a line-of-sight path must be first")

    @property
    def has_los(self) -> bool:
        return bool(self.paths) and self.paths[0].kind is PathKind.LOS


@dataclass(frozen=True)
class ScenarioConfig:
    """Intersection scenario: device lanes, buildings, reflection budget."""

    scenario_id: int
    rsu: Pose | None
    vehicle_start: Vec3
    bicycle_start: Vec3
    vehicle_speed: float
    bicycle_speed: float
    buildings: tuple[BuildingBox, ...]
    measurement_interval: float
    ground_reflection_coeff: complex = -0.5
    wall_reflection_coeff: complex = -0.6

    def __post_init__(self) -> None:
        if self.scenario_id not in (1, 2):
            raise ValueError(f"unknown scenario id {self.scenario_id}")
        if self.scenario_id == 1 and self.rsu is None:
            raise ValueError("scenario 1 requires an RSU")
        if self.scenario_id == 2 and self.rsu is not None:
            raise ValueError("scenario 2 has no RSU")
        for name in ("vehicle_speed", "bicycle_speed", "measurement_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("ground_reflection_coeff", "wall_reflection_coeff"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if abs(self.ground_reflection_coeff) > 1 or abs(self.wall_reflection_coeff) > 1:
            raise ValueError("reflection coefficient magnitudes must be <= 1")
        for name, value in (("vehicle_start.y", self.vehicle_start.y),
                            ("bicycle_start.x", self.bicycle_start.x)):
            if not value < LANE_END_M:
                raise ValueError(f"{name} must lie below the lane end {LANE_END_M} m, "
                                 f"got {value}")
        heights = [("vehicle_start.z", self.vehicle_start.z),
                   ("bicycle_start.z", self.bicycle_start.z)]
        if self.rsu is not None:
            heights.append(("rsu_position.z", self.rsu.position.z))
        for name, value in heights:
            if not value > 0:
                raise ValueError(f"{name} must be above ground (> 0 m), got {value}")
        if self.rsu is not None:
            rsu, v, b = self.rsu.position, self.vehicle_start, self.bicycle_start
            nearest = (("vehicle", Vec3(v.x, min(max(rsu.y, v.y), LANE_END_M), v.z)),
                       ("bicycle", Vec3(min(max(rsu.x, b.x), LANE_END_M), b.y, b.z)))
            for lane, point in nearest:
                # 1 m is 20 wavelengths: closer, the far-field Friis gain means nothing.
                if distance(rsu, point) < 1.0:
                    raise ValueError(f"rsu_position must lie at least 1 m from the {lane} "
                                     f"lane, got {distance(rsu, point):.3g} m")


def _default_buildings() -> tuple[BuildingBox, ...]:
    half = Vec3(25.0, 25.0, 15.0)
    return tuple(
        BuildingBox(Vec3(sx * 45.0, sy * 45.0, 15.0), half)
        for sx in (+1, -1)
        for sy in (+1, -1)
    )


def build_scenario(scenario_id: int) -> ScenarioConfig:
    """Construct the fixed intersection scenario 1 (with RSU) or 2 (without).

    The vehicle lane runs along x = 1.6 m from y = -70 m to +70 m with the
    antenna at 1.5 m height; the bicycle lane runs along y = -7 m from
    x = -70 m (scenario 1) or x = -16.4 m (scenario 2) to +70 m at 1 m
    height.  Four 50 x 50 x 30 m buildings occupy the corners.
    """
    if scenario_id == 1:
        return ScenarioConfig(
            scenario_id=1,
            rsu=Pose(Vec3(0.0, 0.0, 10.0)),
            vehicle_start=Vec3(1.6, -70.0, 1.5),
            bicycle_start=Vec3(-70.0, -7.0, 1.0),
            vehicle_speed=14.0,
            bicycle_speed=4.0,
            buildings=_default_buildings(),
            measurement_interval=0.1,
        )
    if scenario_id == 2:
        return ScenarioConfig(
            scenario_id=2,
            rsu=None,
            vehicle_start=Vec3(1.6, -70.0, 1.5),
            bicycle_start=Vec3(-16.4, -7.0, 1.0),
            vehicle_speed=14.0,
            bicycle_speed=4.0,
            buildings=_default_buildings(),
            measurement_interval=0.1,
        )
    raise ValueError(f"unknown scenario id {scenario_id}")


def vehicle_horizon(config: ScenarioConfig) -> float:
    """Time for the vehicle to reach the end of its lane."""
    return (LANE_END_M - config.vehicle_start.y) / config.vehicle_speed


def bicycle_horizon(config: ScenarioConfig) -> float:
    """Time for the bicycle to reach the end of its lane."""
    return (LANE_END_M - config.bicycle_start.x) / config.bicycle_speed


def scenario_horizon(config: ScenarioConfig) -> float:
    """Latest sample time: slower device's lane traversal."""
    return max(vehicle_horizon(config), bicycle_horizon(config))


def sample_trajectory(config: ScenarioConfig, t: float) -> tuple[Pose, Pose]:
    """Vehicle and bicycle poses at time ``t`` under constant-velocity motion.

    The vehicle moves in +y, the bicycle in +x.  A device that has reached
    the end of its lane stays there with zero velocity, so positions remain
    within the lane endpoints for all t in [0, scenario_horizon].
    """
    if t < 0 or t > scenario_horizon(config) + 1e-9:
        raise ValueError(f"time {t} outside scenario horizon")

    if t < vehicle_horizon(config):
        vehicle = Pose(
            Vec3(config.vehicle_start.x, config.vehicle_start.y + config.vehicle_speed * t,
                 config.vehicle_start.z),
            Vec3(0.0, config.vehicle_speed, 0.0),
        )
    else:
        vehicle = Pose(Vec3(config.vehicle_start.x, LANE_END_M, config.vehicle_start.z))

    if t < bicycle_horizon(config):
        bicycle = Pose(
            Vec3(config.bicycle_start.x + config.bicycle_speed * t, config.bicycle_start.y,
                 config.bicycle_start.z),
            Vec3(config.bicycle_speed, 0.0, 0.0),
        )
    else:
        bicycle = Pose(Vec3(LANE_END_M, config.bicycle_start.y, config.bicycle_start.z))

    return vehicle, bicycle


def segment_blocked(a: Vec3, b: Vec3, buildings: tuple[BuildingBox, ...] | list[BuildingBox]) -> bool:
    """True iff the open segment (a, b) crosses any building interior.

    Axis-aligned slab test.  Grazing contact with a face (zero-measure
    overlap) counts as unblocked.  Endpoints are ordered canonically first
    so the decision is bitwise identical for (a, b) and (b, a).
    """
    if a == b:
        raise ValueError("degenerate segment")
    if (b.x, b.y, b.z) < (a.x, a.y, a.z):
        a, b = b, a
    d = b - a
    for box in buildings:
        lo_t, hi_t = 0.0, 1.0
        mn, mx = box.min_corner, box.max_corner
        inside = True
        for axis in range(3):
            av = a.component(axis)
            dv = d.component(axis)
            lo_axis = mn.component(axis)
            hi_axis = mx.component(axis)
            if dv == 0.0:
                if not (lo_axis < av < hi_axis):
                    inside = False
                    break
            else:
                t0 = (lo_axis - av) / dv
                t1 = (hi_axis - av) / dv
                if t0 > t1:
                    t0, t1 = t1, t0
                lo_t = max(lo_t, t0)
                hi_t = min(hi_t, t1)
                if lo_t >= hi_t:
                    inside = False
                    break
        if inside and hi_t - lo_t > _GRAZE_EPS:
            return True
    return False


def friis_gain(tx: Vec3, rx: Vec3, wavelength: float) -> complex:
    """Free-space amplitude lambda/(4 pi d) with phase exp(-j 2 pi d / lambda)."""
    d = distance(tx, rx)
    if d == 0.0:
        raise ValueError("zero-distance link")
    amp = wavelength / (4.0 * math.pi * d)
    phase = -2.0 * math.pi * d / wavelength
    return amp * complex(math.cos(phase), math.sin(phase))


def _radial_velocity(pa: Vec3, va: Vec3, pb: Vec3, vb: Vec3) -> float:
    """d/dt of ||pb - pa|| given endpoint velocities."""
    sep = pb - pa
    return sep.dot(vb - va) / sep.norm()


def _mirror(p: Pose, axis: int, coord: float) -> Pose:
    """Image of a pose in the plane where coordinate ``axis`` equals ``coord``."""
    pos = [p.position.x, p.position.y, p.position.z]
    vel = [p.velocity.x, p.velocity.y, p.velocity.z]
    pos[axis] = 2.0 * coord - pos[axis]
    vel[axis] = -vel[axis]
    return Pose(Vec3(*pos), Vec3(*vel))


def _image_path(tx: Pose, image: Pose, wavelength: float, coeff: complex,
                kind: PathKind, wall_index: int | None = None) -> PathComponent:
    """Path from ``tx`` to the receiver (or its mirror image), its free-space
    gain scaled by the reflection coefficient ``coeff``."""
    return PathComponent(
        delay=distance(tx.position, image.position) / SPEED_OF_LIGHT,
        gain=friis_gain(tx.position, image.position, wavelength) * coeff,
        radial_velocity=_radial_velocity(tx.position, tx.velocity,
                                         image.position, image.velocity),
        kind=kind,
        wall_index=wall_index,
    )


def wall_reflection_point(tx: Vec3, rx: Vec3, facade: Facade) -> Vec3 | None:
    """Specular reflection point of tx -> facade -> rx, or None.

    Requires both endpoints strictly on the outward side of the facade plane
    and the specular point to land on the facade rectangle.  The point
    divides the plane between the two feet in proportion to the opposite
    plane distances; that weighted form is symmetric in (tx, rx), so both
    link directions make bitwise-identical decisions.
    """
    d_tx = facade.sign * (tx.component(facade.axis) - facade.coord)
    d_rx = facade.sign * (rx.component(facade.axis) - facade.coord)
    if d_tx <= 0 or d_rx <= 0:
        return None
    total = d_tx + d_rx
    u_axis = 1 - facade.axis
    u = (tx.component(u_axis) * d_rx + rx.component(u_axis) * d_tx) / total
    z = (tx.z * d_rx + rx.z * d_tx) / total
    if not (facade.u_lo <= u <= facade.u_hi and facade.z_lo <= z <= facade.z_hi):
        return None
    coords = [0.0, 0.0, z]
    coords[facade.axis] = facade.coord
    coords[u_axis] = u
    return Vec3(*coords)


def trace_paths(tx: Pose, rx: Pose, config: ScenarioConfig, wavelength: float,
                time: float = 0.0) -> ChannelSnapshot:
    """Synthesize the multipath channel between two poses with the image method.

    Returns, sorted by delay: the line-of-sight path when no building blocks
    it; a ground bounce via the receiver image mirrored at z = 0, scaled by
    the ground reflection coefficient; and one single-bounce path per facade
    whose specular point lies on the facade with both sub-segments clear.
    An empty path list is legal under full blockage.
    """
    if tx.position == rx.position:
        raise ValueError("transmitter and receiver coincide")
    paths: list[PathComponent] = []
    buildings = config.buildings

    if not segment_blocked(tx.position, rx.position, buildings):
        paths.append(_image_path(tx, rx, wavelength, 1.0, PathKind.LOS))

    if config.ground_reflection_coeff != 0 and tx.position.z > 0 and rx.position.z > 0:
        # Height-weighted ground touch point; symmetric in (tx, rx).
        heights = tx.position.z + rx.position.z
        point = Vec3(
            (tx.position.x * rx.position.z + rx.position.x * tx.position.z) / heights,
            (tx.position.y * rx.position.z + rx.position.y * tx.position.z) / heights,
            0.0,
        )
        if not segment_blocked(tx.position, point, buildings) and \
                not segment_blocked(point, rx.position, buildings):
            paths.append(_image_path(tx, _mirror(rx, 2, 0.0), wavelength,
                                     config.ground_reflection_coeff, PathKind.GROUND))

    if config.wall_reflection_coeff != 0:
        for b_idx, box in enumerate(buildings):
            for f_idx, facade in enumerate(building_facades(box)):
                point = wall_reflection_point(tx.position, rx.position, facade)
                if point is None:
                    continue
                if segment_blocked(tx.position, point, buildings) or \
                        segment_blocked(point, rx.position, buildings):
                    continue
                paths.append(_image_path(tx, _mirror(rx, facade.axis, facade.coord),
                                         wavelength, config.wall_reflection_coeff,
                                         PathKind.WALL, wall_index=4 * b_idx + f_idx))

    paths.sort(key=lambda p: p.delay)
    return ChannelSnapshot(paths=tuple(paths), tx_pose=tx, rx_pose=rx, time=time)


# --- flat key=value serialization -------------------------------------------

def _format_vec(v: Vec3) -> str:
    return f"{v.x!r},{v.y!r},{v.z!r}"


def _parse_vec(s: str) -> Vec3:
    parts = [float(p) for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {s!r}")
    return Vec3(*parts)


def _format_complex(z: complex) -> str:
    return str(complex(z)).strip("()")


def scenario_to_text(config: ScenarioConfig) -> str:
    """Serialize a scenario to the flat key=value format used by the CLI."""
    lines = [f"scenario_id={config.scenario_id}"]
    if config.rsu is not None:
        lines.append(f"rsu_position={_format_vec(config.rsu.position)}")
    lines += [
        f"vehicle_start={_format_vec(config.vehicle_start)}",
        f"vehicle_speed={config.vehicle_speed!r}",
        f"bicycle_start={_format_vec(config.bicycle_start)}",
        f"bicycle_speed={config.bicycle_speed!r}",
        f"measurement_interval={config.measurement_interval!r}",
        f"ground_reflection_coeff={_format_complex(config.ground_reflection_coeff)}",
        f"wall_reflection_coeff={_format_complex(config.wall_reflection_coeff)}",
    ]
    for i, box in enumerate(config.buildings):
        lines.append(f"building{i}_center={_format_vec(box.center)}")
        lines.append(f"building{i}_half_extents={_format_vec(box.half_extents)}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format; inverse of scenario_to_text."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed line (expected key=value): {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()

    def pop(key: str) -> str:
        try:
            return entries.pop(key)
        except KeyError:
            raise ValueError(f"missing scenario key {key!r}") from None

    scenario_id = int(pop("scenario_id"))
    rsu = None
    if "rsu_position" in entries:
        rsu = Pose(_parse_vec(entries.pop("rsu_position")))
    vehicle_start = _parse_vec(pop("vehicle_start"))
    vehicle_speed = float(pop("vehicle_speed"))
    bicycle_start = _parse_vec(pop("bicycle_start"))
    bicycle_speed = float(pop("bicycle_speed"))
    interval = float(pop("measurement_interval"))
    ground_coeff = complex(pop("ground_reflection_coeff"))
    wall_coeff = complex(pop("wall_reflection_coeff"))

    buildings = []
    i = 0
    while f"building{i}_center" in entries:
        center = _parse_vec(entries.pop(f"building{i}_center"))
        half = _parse_vec(entries.pop(f"building{i}_half_extents"))
        buildings.append(BuildingBox(center, half))
        i += 1
    if entries:
        raise ValueError(f"unknown scenario keys: {sorted(entries)}")

    return ScenarioConfig(
        scenario_id=scenario_id,
        rsu=rsu,
        vehicle_start=vehicle_start,
        bicycle_start=bicycle_start,
        vehicle_speed=vehicle_speed,
        bicycle_speed=bicycle_speed,
        buildings=tuple(buildings),
        measurement_interval=interval,
        ground_reflection_coeff=ground_coeff,
        wall_reflection_coeff=wall_coeff,
    )
