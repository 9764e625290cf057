"""Simulated sensors: IR range-finder fan and a detection-confidence camera.

Both sensors are modeled as 2D ray fans. The camera additionally reports a
target detection whose confidence decays with distance as conf_scale / d,
clamped to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .world import TWO_PI, Cell, GridWorld, Pose, angle_diff, trace_ray


def rays_per_fov(fov: float) -> int:
    """Default beam count: one ray per degree of fov, never fewer than 2."""
    return max(2, int(round(math.degrees(fov))) + 1)


@dataclass(frozen=True)
class IrConfig:
    """IR fan geometry: total fov (radians), range (m), beam count."""

    fov: float = math.radians(30.0)
    max_range: float = 2.0
    ray_count: int = 0

    def __post_init__(self):
        if not 0.0 < self.fov <= TWO_PI:
            raise ValueError("fov must be in (0, 2*pi]")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        if self.ray_count == 0:
            object.__setattr__(self, "ray_count", rays_per_fov(self.fov))
        if self.ray_count < 2:
            raise ValueError("ray_count must be at least 2")


@dataclass(frozen=True)
class CameraConfig:
    """Camera-as-rangefinder geometry plus the confidence decay constant.

    conf_scale is the distance (m) at which detection confidence saturates
    at 1; confidence at distance d is min(1, conf_scale / d). When left None
    it defaults to 0.19 * max_range, which puts the 0.95-confidence radius at
    20% of the camera range.
    """

    fov: float = math.radians(60.0)
    max_range: float = 2.0
    conf_scale: Optional[float] = None
    ray_count: int = 0

    def __post_init__(self):
        if not 0.0 < self.fov <= TWO_PI:
            raise ValueError("fov must be in (0, 2*pi]")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        if self.conf_scale is None:
            object.__setattr__(self, "conf_scale", 0.19 * self.max_range)
        if self.conf_scale <= 0:
            raise ValueError("conf_scale must be positive")
        if self.ray_count == 0:
            object.__setattr__(self, "ray_count", rays_per_fov(self.fov))
        if self.ray_count < 2:
            raise ValueError("ray_count must be at least 2")


class Beam(NamedTuple):
    angle: float
    distance: float
    hit: bool


class IrScan(NamedTuple):
    origin: Pose
    beams: tuple[Beam, ...]


class Detection(NamedTuple):
    cell: Cell
    distance: float
    conf: float


class CameraObservation(NamedTuple):
    """One camera sweep: cells seen free, cells that blocked a ray, and the
    target detection if the target was in view."""

    origin: Pose
    seen_free: tuple[Cell, ...]
    seen_blocked: tuple[Cell, ...]
    detection: Optional[Detection]


def beam_angles(heading: float, fov: float, count: int) -> list[float]:
    """Evenly spaced angles across [heading - fov/2, heading + fov/2]."""
    start = heading - fov / 2.0
    step = fov / (count - 1)
    return [start + i * step for i in range(count)]


def detection_confidence(distance: float, conf_scale: float) -> float:
    """Distance-decaying detection confidence, clamped into [0, 1]."""
    if distance <= conf_scale:
        return 1.0
    return conf_scale / distance


def ir_scan(world: GridWorld, pose: Pose, cfg: IrConfig) -> IrScan:
    """Sweep the IR fan; beams that strike nothing report max_range, hit=False."""
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("scan pose outside world bounds")
    beams = []
    for angle in beam_angles(pose.heading, cfg.fov, cfg.ray_count):
        _, _, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, angle,
                            cfg.max_range)
        if t <= cfg.max_range:
            beams.append(Beam(angle, t, True))
        else:
            beams.append(Beam(angle, cfg.max_range, False))
    return IrScan(pose, tuple(beams))


def camera_observe(world: GridWorld, pose: Pose, cfg: CameraConfig) -> CameraObservation:
    """Sweep the camera wedge and look for the target.

    Cells traversed before a blocking cell are reported seen-free, blocking
    cells seen-blocked (each cell at most once per observation). The
    detection is `detect`'s.
    """
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("observation pose outside world bounds")
    seen_free: dict[Cell, None] = {}
    seen_blocked: dict[Cell, None] = {}
    for angle in beam_angles(pose.heading, cfg.fov, cfg.ray_count):
        visited, stop, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, angle,
                                     cfg.max_range)
        for cell in visited:
            seen_free.setdefault(cell)
        if t <= cfg.max_range and world.in_bounds(stop):
            seen_blocked.setdefault(stop)
    return CameraObservation(pose, tuple(seen_free), tuple(seen_blocked),
                             detect(world, pose, cfg))


def detect(world: GridWorld, pose: Pose, cfg: CameraConfig) -> Optional[Detection]:
    """The camera's target detection from `pose`, or None.

    The target is detected when its cell center lies inside the wedge, within
    range, and the ray through the cell center reaches it unblocked. This is
    the only part of a camera observation that depends on the target.
    """
    if world.target is None:
        return None
    tx, ty = world.cell_center(world.target)
    d = math.hypot(tx - pose.x, ty - pose.y)
    if d > cfg.max_range:
        return None
    if d < 1e-12:
        return Detection(world.target, 0.0, 1.0)
    bearing = math.atan2(ty - pose.y, tx - pose.x)
    if abs(angle_diff(bearing, pose.heading)) > cfg.fov / 2.0 + 1e-12:
        return None
    _, _, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, bearing, d)
    if t <= d:
        return None
    return Detection(world.target, d, detection_confidence(d, cfg.conf_scale))
