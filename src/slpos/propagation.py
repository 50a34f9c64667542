"""Urban-intersection geometry and deterministic multipath synthesis.

Two fixed crossing scenarios on a street-canyon intersection flanked by four
buildings: scenario 1 has a road-side unit (RSU) at the intersection center,
scenario 2 is the same geometry without the RSU.  Propagation paths are
synthesized with the image method: a direct line-of-sight path subject to
building blockage, and one single bounce per reflecting plane (the ground
and each vertical building facade), every specular point found by one
rule.  All functions are pure and safe to call from
concurrent workers.  A scenario reads from and writes to a flat key=value
text through one table of its keys.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

from .constants import SPEED_OF_LIGHT

# Lanes run the full width of the modeled intersection, ending at +70 m.
LANE_END_M = 70.0

# Each device's lane: it drives in + along this axis, from ``<device>_start``
# at ``<device>_speed`` to LANE_END_M; ``sample_trajectory`` keeps this order.
LANE_AXES = {"vehicle": 1, "bicycle": 0}

# Closest the two moving devices may come (5 wavelengths at 5.9 GHz);
# closer, the far-field path gain is meaningless.
MIN_DEVICE_GAP_M = 0.25

# The working range of scenarios and anchor layouts.  Every point and half
# extent lies within MAX_COORDINATE_M of the origin in each coordinate
# (``check_coordinates``), so that every squared distance, mirror image and
# path phase stays finite; and a nonzero reflection coefficient has a
# magnitude of at least MIN_REFLECTION (-240 dB), far below any budget's
# noise, so that no path gain underflows.
MAX_COORDINATE_M = 1e6
MIN_REFLECTION = 1e-12

# Working range (low, high, unit) of each real scalar ScenarioConfig field.
# 150 m/s is above the 500 km/h relative speed of 3GPP TR 37.885's V2X
# evaluations; 0.1 m/s keeps every lane horizon finite and the devices'
# relative speed from underflowing.  1 ms is an LTE sidelink subframe,
# 15 cm of travel at the top speed; 1000 s is 10^4 times the default 0.1 s.
SPEED_RANGE = (0.1, 150.0, "m/s")
SCENARIO_RANGES = {"vehicle_speed": SPEED_RANGE, "bicycle_speed": SPEED_RANGE,
                   "measurement_interval": (1e-3, 1e3, "s")}

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

    def with_component(self, axis: int, value: float) -> "Vec3":
        xyz = [self.x, self.y, self.z]
        xyz[axis] = value
        return Vec3(*xyz)


def distance(a: Vec3, b: Vec3) -> float:
    return (b - a).norm()


def check_coordinates(name: str, point: Vec3) -> None:
    """Reject ``point``, naming it ``name``, beyond MAX_COORDINATE_M in any coordinate."""
    if not max(abs(point.x), abs(point.y), abs(point.z)) <= MAX_COORDINATE_M:
        raise ValueError(f"{name} must lie within {MAX_COORDINATE_M:g} m of the "
                         f"origin in every coordinate, got {point}")


def check_range(name: str, value: float, lo: float, hi: float, unit: str) -> None:
    """Reject ``value``, naming it ``name``, unless finite and in [lo, hi] ``unit``,
    and an integer (a bool is not one) where ``lo`` is an int."""
    if isinstance(lo, int) and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{name} must be an integer in [{lo:g}, {hi:g}] {unit}, got {value}")
    if not (lo <= value <= hi and -math.inf < value < math.inf):
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}] {unit}, got {value}")


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
    """A reflecting plane rectangle: the plane where coordinate ``axis`` (0,
    1 or 2) equals ``coord``, reflecting on its ``sign`` side along that
    axis.  ``lo`` and ``hi`` are coordinate triples whose entries on the two
    in-plane axes bound the rectangle; the entry on ``axis`` is not read.
    """

    axis: int
    coord: float
    sign: int
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]


# The ground: the unbounded plane z = 0, reflecting upwards.
_GROUND = Facade(2, 0.0, +1, (-math.inf,) * 3, (math.inf,) * 3)

# The two in-plane axes of a plane normal to each axis.
_IN_PLANE = ((1, 2), (0, 2), (0, 1))


def building_facades(box: BuildingBox) -> list[Facade]:
    """Four vertical outer faces in fixed (+x, -x, +y, -y) order, each
    bounded by the box's corners."""
    lo, hi = _xyz(box.min_corner), _xyz(box.max_corner)
    return [
        Facade(0, hi[0], +1, lo, hi),
        Facade(0, lo[0], -1, lo, hi),
        Facade(1, hi[1], +1, lo, hi),
        Facade(1, lo[1], -1, lo, hi),
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
        points = [("vehicle_start", self.vehicle_start), ("bicycle_start", self.bicycle_start)]
        if self.rsu is not None:
            points.append(("rsu_position", self.rsu.position))
        for i, box in enumerate(self.buildings):
            points += [(f"building{i}_center", box.center),
                       (f"building{i}_half_extents", box.half_extents)]
        for name, point in points:
            check_coordinates(name, point)
        for name, limits in SCENARIO_RANGES.items():
            check_range(name, getattr(self, name), *limits)
        for name in ("ground_reflection_coeff", "wall_reflection_coeff"):
            value = getattr(self, name)
            # The parts are bounded first: abs() of a huge complex overflows.
            if not (cmath.isfinite(value) and max(abs(value.real), abs(value.imag)) <= 1
                    and (value == 0 or MIN_REFLECTION <= abs(value) <= 1)):
                raise ValueError(f"{name} must be 0 or of magnitude between "
                                 f"{MIN_REFLECTION:g} and 1, got {value}")
        lanes = [(f"{device}_start", getattr(self, f"{device}_start"), axis)
                 for device, axis in LANE_AXES.items()]
        for name, start, axis in lanes:
            if not start.component(axis) < LANE_END_M:
                raise ValueError(f"{name}.{'xyz'[axis]} must lie below the lane end "
                                 f"{LANE_END_M} m, got {start.component(axis)}")
        heights = [(f"{name}.z", start.z) for name, start, _ in lanes]
        if self.rsu is not None:
            heights.append(("rsu_position.z", self.rsu.position.z))
        for name, value in heights:
            if not value > 0:
                raise ValueError(f"{name} must be above ground (> 0 m), got {value}")
        if self.rsu is not None:
            rsu = self.rsu.position
            for name, start, axis in lanes:
                lane_coord = min(max(rsu.component(axis), start.component(axis)), LANE_END_M)
                gap = distance(rsu, start.with_component(axis, lane_coord))
                # 1 m is 20 wavelengths: closer, the far-field Friis gain means nothing.
                if gap < 1.0:
                    raise ValueError(f"rsu_position must lie at least 1 m from the lane of "
                                     f"{name}, got {gap:.3g} m")
            for i, box in enumerate(self.buildings):
                lo, hi = box.min_corner, box.max_corner
                if all(lo.component(a) < rsu.component(a) < hi.component(a) for a in range(3)):
                    raise ValueError(f"rsu_position {rsu} lies inside building {i} "
                                     f"(building{i}_center, building{i}_half_extents)")
        for name, start, axis in lanes:
            lane_end = start.with_component(axis, LANE_END_M)
            for i, box in enumerate(self.buildings):
                if segment_blocked(start, lane_end, (box,)):
                    raise ValueError(f"{name} puts its lane to {lane_end} through building {i} "
                                     f"(building{i}_center, building{i}_half_extents)")
        # Both devices move in straight lines until the first reaches its lane
        # end, so their closest approach before then has a closed form in the
        # vehicle's offset d and velocity u from the bicycle; u is 0 off lane axes a, b.
        # The speed floor keeps |u|^2 from underflowing; max(0.0, ...) turns -0.0 into 0.0.
        vehicle, bicycle = sample_trajectory(self, 0.0)
        d = _xyz(self.vehicle_start - self.bicycle_start)
        u = _xyz(vehicle.velocity - bicycle.velocity)
        a, b = LANE_AXES.values()
        t = min(max(0.0, -(d[a] * u[a] + d[b] * u[b]) / (u[a] * u[a] + u[b] * u[b])),
                min(lane_horizon(self, device) for device in LANE_AXES))
        gap = math.sqrt((d[0] + u[0] * t) ** 2 + (d[1] + u[1] * t) ** 2 + (d[2] + u[2] * t) ** 2)
        if gap < MIN_DEVICE_GAP_M:
            raise ValueError(f"vehicle_start and bicycle_start, at vehicle_speed and "
                             f"bicycle_speed, bring the devices {gap:.3g} m apart at "
                             f"t = {t:.3g} s; they must stay at least {MIN_DEVICE_GAP_M} m apart")

    @functools.cached_property
    def _obstacles(self) -> tuple[tuple, tuple[tuple[int, Facade], ...]]:
        """What ``trace_paths`` tests against, from ``buildings``: each
        building's (min corner, max corner) coordinate triples, and every
        facade with its wall index.  Computed on first use and kept: the
        config and its buildings are frozen."""
        slabs = tuple((_xyz(box.min_corner), _xyz(box.max_corner)) for box in self.buildings)
        facades = tuple((4 * b_idx + f_idx, facade)
                        for b_idx, box in enumerate(self.buildings)
                        for f_idx, facade in enumerate(building_facades(box)))
        return slabs, facades


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
    return ScenarioConfig(
        scenario_id=scenario_id,
        rsu=Pose(Vec3(0.0, 0.0, 10.0)) if scenario_id == 1 else None,
        vehicle_start=Vec3(1.6, -70.0, 1.5),
        bicycle_start=Vec3(-70.0 if scenario_id == 1 else -16.4, -7.0, 1.0),
        vehicle_speed=14.0,
        bicycle_speed=4.0,
        buildings=_default_buildings(),
        measurement_interval=0.1,
    )


def lane_horizon(config: ScenarioConfig, device: str) -> float:
    """Time for ``device``, a key of ``LANE_AXES``, to reach the end of its lane."""
    start = getattr(config, f"{device}_start").component(LANE_AXES[device])
    return (LANE_END_M - start) / getattr(config, f"{device}_speed")


def vehicle_horizon(config: ScenarioConfig) -> float:
    return lane_horizon(config, "vehicle")


def scenario_horizon(config: ScenarioConfig) -> float:
    """Latest sample time: slower device's lane traversal."""
    return max(lane_horizon(config, device) for device in LANE_AXES)


def sample_trajectory(config: ScenarioConfig, t: float) -> tuple[Pose, Pose]:
    """Vehicle and bicycle poses at time ``t`` under constant-velocity motion.

    Each device drives along its lane (``LANE_AXES``).  A device that has
    reached the end of its lane stays there with zero velocity, so positions
    remain within the lane endpoints for all t in [0, scenario_horizon].
    """
    if t < 0 or t > scenario_horizon(config) + 1e-9:
        raise ValueError(f"time {t} outside scenario horizon")
    poses = []
    for device, axis in LANE_AXES.items():
        start, speed = getattr(config, f"{device}_start"), getattr(config, f"{device}_speed")
        if t < lane_horizon(config, device):
            poses.append(Pose(start.with_component(axis, start.component(axis) + speed * t),
                              ZERO_VELOCITY.with_component(axis, speed)))
        else:
            poses.append(Pose(start.with_component(axis, LANE_END_M)))
    return tuple(poses)


def segment_blocked(a: Vec3, b: Vec3, buildings: tuple[BuildingBox, ...] | list[BuildingBox]) -> bool:
    """True iff the open segment (a, b) crosses any building interior.

    Axis-aligned slab test.  Grazing contact with a face (zero-measure
    overlap) counts as unblocked.  Endpoints are ordered canonically first
    so the decision is bitwise identical for (a, b) and (b, a).
    """
    check_coordinates("segment start", a)
    check_coordinates("segment end", b)
    if a == b:
        raise ValueError("degenerate segment")
    return _crosses(_xyz(a), _xyz(b),
                    ((_xyz(box.min_corner), _xyz(box.max_corner)) for box in buildings))


def _xyz(v: Vec3) -> tuple[float, float, float]:
    return (v.x, v.y, v.z)


def _crosses(a: tuple[float, float, float], b: tuple[float, float, float], slabs) -> bool:
    """``segment_blocked`` for distinct coordinate triples, against the
    (min corner, max corner) triples of the buildings."""
    if b < a:
        a, b = b, a
    d = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
    for lo, hi in slabs:
        lo_t, hi_t = 0.0, 1.0
        for av, dv, lo_axis, hi_axis in zip(a, d, lo, hi):
            if dv == 0.0:
                if not (lo_axis < av < hi_axis):
                    break
            else:
                t0 = (lo_axis - av) / dv
                t1 = (hi_axis - av) / dv
                if t0 > t1:
                    t0, t1 = t1, t0
                if t0 > lo_t:
                    lo_t = t0
                if t1 < hi_t:
                    hi_t = t1
                if lo_t >= hi_t:
                    break
        else:  # no axis puts the segment outside the box
            if hi_t - lo_t > _GRAZE_EPS:
                return True
    return False


def friis_gain(tx: Vec3, rx: Vec3, wavelength: float) -> complex:
    """Free-space amplitude lambda/(4 pi d) with phase exp(-j 2 pi d / lambda)."""
    return _free_space(distance(tx, rx), wavelength)


def _free_space(d: float, wavelength: float) -> complex:
    """``friis_gain`` of a link of length ``d``."""
    if d == 0.0:
        raise ValueError("zero-distance link")
    amp = wavelength / (4.0 * math.pi * d)
    phase = -2.0 * math.pi * d / wavelength
    return amp * complex(math.cos(phase), math.sin(phase))


def _mirror(p: Pose, axis: int, coord: float) -> tuple[list[float], list[float]]:
    """Position and velocity coordinates of the image of a pose in the plane
    where coordinate ``axis`` equals ``coord``."""
    pos = [p.position.x, p.position.y, p.position.z]
    vel = [p.velocity.x, p.velocity.y, p.velocity.z]
    pos[axis] = 2.0 * coord - pos[axis]
    vel[axis] = -vel[axis]
    return pos, vel


def _image_path(tx: Pose, pos, vel, wavelength: float, coeff: complex,
                kind: PathKind, wall_index: int | None = None) -> PathComponent:
    """Path from ``tx`` to the receiver (or its mirror image) at coordinates
    ``pos`` moving at ``vel``, its free-space gain scaled by the reflection
    coefficient ``coeff``.  Its radial velocity is the rate of change of the
    length, sep . (vel - tx velocity) / |sep| with sep = pos - tx position."""
    t, v = tx.position, tx.velocity
    sep = (pos[0] - t.x, pos[1] - t.y, pos[2] - t.z)
    d = math.sqrt(sep[0] * sep[0] + sep[1] * sep[1] + sep[2] * sep[2])
    gain = _free_space(d, wavelength) * coeff
    dv = (vel[0] - v.x, vel[1] - v.y, vel[2] - v.z)
    return PathComponent(
        delay=d / SPEED_OF_LIGHT,
        gain=gain,
        radial_velocity=(sep[0] * dv[0] + sep[1] * dv[1] + sep[2] * dv[2]) / d,
        kind=kind,
        wall_index=wall_index,
    )


def _reflection_point(tx: tuple[float, float, float], rx: tuple[float, float, float],
                      plane: Facade) -> tuple[float, float, float] | None:
    """Specular reflection point of tx -> plane -> rx, or None.

    Requires both endpoints strictly on the reflecting side of the plane
    and the specular point to land on its rectangle.  The point divides
    the plane between the two feet in proportion to the opposite plane
    distances; that weighted form is symmetric in (tx, rx), so both link
    directions make bitwise-identical decisions.
    """
    axis = plane.axis
    d_tx = plane.sign * (tx[axis] - plane.coord)
    d_rx = plane.sign * (rx[axis] - plane.coord)
    if d_tx <= 0 or d_rx <= 0:
        return None
    total = d_tx + d_rx
    u, v = _IN_PLANE[axis]
    pu = (tx[u] * d_rx + rx[u] * d_tx) / total
    pv = (tx[v] * d_rx + rx[v] * d_tx) / total
    lo, hi = plane.lo, plane.hi
    if pu < lo[u] or hi[u] < pu or pv < lo[v] or hi[v] < pv:
        return None
    point = [pu, pv]
    point.insert(axis, plane.coord)
    return tuple(point)


def trace_paths(tx: Pose, rx: Pose, config: ScenarioConfig, wavelength: float,
                time: float = 0.0) -> ChannelSnapshot:
    """Synthesize the multipath channel between two poses with the image method.

    Returns, sorted by delay: the line-of-sight path when no building blocks
    it; and one single-bounce path per reflecting plane, the ground (scaled
    by the ground reflection coefficient) and each facade (by the wall
    coefficient), whose specular point lies on the plane with both
    sub-segments clear, via the receiver image mirrored in that plane.  An
    empty path list is legal under full blockage.  Both poses are checked
    on entry against the coordinate and speed ranges, so every path stays
    finite.  The geometry runs on coordinate triples, against the buildings'
    slabs and facades computed once per scenario.
    """
    for name, pose in (("transmitter", tx), ("receiver", rx)):
        check_coordinates(name, pose.position)
        check_range(f"{name} speed", pose.velocity.norm(), 0.0, SPEED_RANGE[1], "m/s")
    if tx.position == rx.position:
        raise ValueError("transmitter and receiver coincide")
    paths: list[PathComponent] = []
    slabs, facades = config._obstacles
    t, r = _xyz(tx.position), _xyz(rx.position)

    if not _crosses(t, r, slabs):
        paths.append(_image_path(tx, r, _xyz(rx.velocity), wavelength, 1.0, PathKind.LOS))

    for coeff, kind, planes in ((config.ground_reflection_coeff, PathKind.GROUND,
                                 ((None, _GROUND),)),
                                (config.wall_reflection_coeff, PathKind.WALL, facades)):
        if coeff == 0:
            continue
        for wall_index, plane in planes:
            point = _reflection_point(t, r, plane)
            if point is None or _crosses(t, point, slabs) or _crosses(point, r, slabs):
                continue
            paths.append(_image_path(tx, *_mirror(rx, plane.axis, plane.coord),
                                     wavelength, coeff, kind, wall_index=wall_index))

    paths.sort(key=lambda p: p.delay)
    return ChannelSnapshot(paths=tuple(paths), time=time)


# --- flat key=value serialization -------------------------------------------

def _format_vec(v: Vec3) -> str:
    return f"{v.x!r},{v.y!r},{v.z!r}"


def parse_vec(s: str) -> Vec3:
    """The finite vector of a comma-separated ``x,y,z`` string."""
    parts = [float(p) for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {s!r}")
    return Vec3(*parts)


def _format_complex(z: complex) -> str:
    return str(complex(z)).strip("()")


# The scalar ScenarioConfig fields as (key, formatter, parser), in file
# order; each key is its field's name.
_SCALAR_KEYS = (
    ("vehicle_start", _format_vec, parse_vec),
    ("vehicle_speed", repr, float),
    ("bicycle_start", _format_vec, parse_vec),
    ("bicycle_speed", repr, float),
    ("measurement_interval", repr, float),
    ("ground_reflection_coeff", _format_complex, complex),
    ("wall_reflection_coeff", _format_complex, complex),
)


def scenario_to_text(config: ScenarioConfig) -> str:
    """Serialize a scenario to the flat key=value format used by the CLI."""
    lines = [f"scenario_id={config.scenario_id}"]
    if config.rsu is not None:
        lines.append(f"rsu_position={_format_vec(config.rsu.position)}")
    lines += [f"{key}={format_value(getattr(config, key))}"
              for key, format_value, _ in _SCALAR_KEYS]
    for i, box in enumerate(config.buildings):
        lines.append(f"building{i}_center={_format_vec(box.center)}")
        lines.append(f"building{i}_half_extents={_format_vec(box.half_extents)}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> ScenarioConfig:
    """Parse the flat key=value scenario format; inverse of scenario_to_text.

    A missing, duplicate or unknown key, and a value that does not parse,
    raise ``ValueError`` naming the key."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed line (expected key=value): {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"duplicate scenario key {key!r}")
        entries[key] = value

    def pop(key: str, parse):
        try:
            value = entries.pop(key)
        except KeyError:
            raise ValueError(f"missing scenario key {key!r}") from None
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"scenario key {key!r}: {exc}") from None

    scenario_id = pop("scenario_id", int)
    rsu = Pose(pop("rsu_position", parse_vec)) if "rsu_position" in entries else None
    scalars = {key: pop(key, parse) for key, _, parse in _SCALAR_KEYS}
    buildings = []
    while f"building{len(buildings)}_center" in entries:
        prefix = f"building{len(buildings)}"
        center = pop(f"{prefix}_center", parse_vec)
        # The box is built here, so that its own check names the key too.
        buildings.append(pop(f"{prefix}_half_extents",
                             lambda value: BuildingBox(center, parse_vec(value))))
    if entries:
        raise ValueError(f"unknown scenario keys: {sorted(entries)}")
    return ScenarioConfig(scenario_id=scenario_id, rsu=rsu, buildings=tuple(buildings),
                          **scalars)
