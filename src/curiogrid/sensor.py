"""Simulated sensors: IR range-finder fan and a detection-confidence camera.

Both sensors are modeled as 2D ray fans. The camera additionally reports a
target detection whose confidence decays with distance as conf_scale / d,
clamped to 1.

`fan_walk` is the one fan walk: the IR scan, the camera sweep (also the
prediction of a candidate view), the cells one sense gives evidence on
(`sense_cells`) and the cells of a given IR scan (`scan_cells`) all read it,
and only this module knows its layout. It walks a whole fan as one numpy gather over a memoized table of
every beam's cell offsets and entry distances, stepped exactly as
`world.trace_ray` steps. `trace_ray` is the spec and the test oracle, and the
single rays of `detect` and `world.ray_cast` run on it. The wedge test
(`wedge_cells`) has its one copy here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .world import TWO_PI, Cell, GridWorld, Pose, angle_diff, ray_steps, trace_ray


def rays_per_fov(fov: float) -> int:
    """Default beam count: one ray per degree of fov, never fewer than 2."""
    return max(2, int(round(math.degrees(fov))) + 1)


def _check_fan(cfg: IrConfig | CameraConfig) -> None:
    """The rules of both fans: fov in (0, 2*pi], a positive finite range, and
    a ray count of at least 2, or 0 for `rays_per_fov`."""
    if not 0.0 < cfg.fov <= TWO_PI:
        raise ValueError("fov must be in (0, 2*pi]")
    if not 0.0 < cfg.max_range < math.inf:
        raise ValueError("max_range must be positive and finite")
    if cfg.ray_count == 0:
        object.__setattr__(cfg, "ray_count", rays_per_fov(cfg.fov))
    if cfg.ray_count < 2:
        raise ValueError("ray_count must be at least 2")


@dataclass(frozen=True)
class IrConfig:
    """IR fan geometry: total fov (radians), range (m), beam count."""

    fov: float = math.radians(30.0)
    max_range: float = 2.0
    ray_count: int = 0

    def __post_init__(self):
        _check_fan(self)


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
        _check_fan(self)
        if self.conf_scale is None:
            object.__setattr__(self, "conf_scale", 0.19 * self.max_range)
        if not 0.0 < self.conf_scale < math.inf:
            raise ValueError("conf_scale must be positive and finite")


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


# Cell codes of the grid a fan walks (`_fan_codes`); free cells are 0.
_BLOCKED, _OUTSIDE = 1, 2

# The most beam steps the fan tables hold, over all cell sizes, origins and
# fans (25 bytes each, about 1.6 MB in all); a new table that would pass it
# empties the memo first. A zone run on the packaged maps holds about 31k.
_FAN_TABLE_LIMIT = 1 << 16


class _FanTable(NamedTuple):
    """Every beam's walk from one origin, one row per beam, padded past the
    longest walk: index offsets into the code grid (`pad`) and the lattice
    (`flat`), the entry distance of each step (`t`, inf past the walk) and
    whether it lies beyond the range (`beyond`)."""

    pad: np.ndarray
    flat: np.ndarray
    t: np.ndarray
    beyond: np.ndarray


_FAN_TABLES: dict[tuple, _FanTable] = {}


def _fan_table(cell_size: float, bx1: float, bx0: float, by1: float, by0: float,
               angles: tuple[float, ...], max_range: float, width: int,
               height: int) -> _FanTable:
    """The fan's walks from an origin whose cell boundaries lie bx1/bx0 to the
    right/left and by1/by0 below/above it, each stepped as `trace_ray` steps
    through the first step beyond max_range. A walk from inside a width x
    height lattice leaves it within width + height - 1 steps, so no walk is
    longer than width + height steps.

    Each beam's crossings of the x and of the y boundaries are running sums,
    as `trace_ray` adds them up; a stable sort merges them, an x crossing
    first on a tie, as `trace_ray` steps. The j-th crossing along an axis (from
    0) lies at least j cell sizes out, so int(max_range / cell_size) + 2
    crossings per axis reach past the range; one more absorbs the rounding of
    the running sums.
    """
    limit = width + height
    n = int(min(max_range / cell_size + 3, limit))
    steps = np.array([ray_steps(cell_size, bx1, bx0, by1, by0, a) for a in angles],
                     dtype=float).reshape(-1, 6)
    # per beam: the first crossing, then the spacing, along x and along y
    crossings = np.empty((len(steps), 2, n))
    crossings[:, 0], crossings[:, 1] = steps[:, 2:3], steps[:, 5:6]
    crossings[:, 0, 0], crossings[:, 1, 0] = steps[:, 1], steps[:, 4]
    crossings = np.cumsum(crossings, axis=2).reshape(len(steps), 2 * n)
    order = np.argsort(crossings, axis=1, kind="stable")
    t = np.take_along_axis(crossings, order, axis=1)
    # each walk's step count: through its first step beyond the range
    walked = np.minimum((t <= max_range).sum(axis=1) + 1, limit)
    cols = int(walked.max(initial=0))
    along_x = order[:, :cols] < n
    # the origin, the walk, then at least one column at t = inf past it
    xs = np.zeros((len(steps), cols + 2), dtype=np.intp)
    ys = np.zeros((len(steps), cols + 2), dtype=np.intp)
    xs[:, 1:-1] = np.cumsum(np.where(along_x, steps[:, 0:1], 0.0), axis=1)
    ys[:, 1:-1] = np.cumsum(np.where(along_x, 0.0, steps[:, 3:4]), axis=1)
    t = np.concatenate((np.zeros((len(steps), 1)), t[:, :cols + 1]), axis=1)
    past = np.arange(cols + 2) > walked[:, None]
    xs[past] = ys[past] = 0
    t[past] = math.inf
    return _FanTable(ys * (width + 2) + xs, ys * width + xs, t, t > max_range)


def _fan_codes(blocked: np.ndarray) -> np.ndarray:
    """The grid `fan_walk` reads: each cell of the `blocked` mask coded free
    or blocked, framed by a one-cell border coded outside the lattice."""
    height, width = blocked.shape
    codes = np.full((height + 2, width + 2), _OUTSIDE, dtype=np.uint8)
    codes[1:-1, 1:-1] = blocked
    return codes


class FanWalk(NamedTuple):
    """A ray fan walked over a code grid, one row per beam, one column per step.

    `flat` is the row-major lattice index of the cell each step enters, `t`
    the distance at which it enters it, `code` that cell's code and `stop`
    the step at which each beam stops, as `trace_ray` stops: the first cell
    beyond max_range, outside the lattice or blocked. Steps before the stop
    lie in the lattice; entries after it are meaningless. `cells` is the
    lattice's cell count.
    """

    flat: np.ndarray
    t: np.ndarray
    code: np.ndarray
    stop: np.ndarray
    max_range: float
    cells: int

    def before(self, steps: np.ndarray) -> np.ndarray:
        """Mask of the steps before each beam's step `steps[beam]`."""
        return np.arange(self.t.shape[1]) < steps[:, None]

    def at(self, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat, t, code) of each beam's step `steps[beam]`."""
        rows = np.arange(len(steps))
        return self.flat[rows, steps], self.t[rows, steps], self.code[rows, steps]

    def beam_stops(self) -> tuple[np.ndarray, np.ndarray]:
        """Each beam's IR (distance, hit): the distance at which it stopped,
        and hit, when that is within range; max_range and no hit otherwise."""
        _, t, _ = self.at(self.stop)
        hit = t <= self.max_range
        return np.where(hit, t, self.max_range), hit

    def ir_evidence(self, distance: np.ndarray,
                    hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (row-major) indices of the cells an IR scan passes and hits.

        The walk is the scan's fan, walked to at least its longest beam over
        a grid whose blocked cells stop no beam short of its `distance`. A
        beam passes the cells it enters at t <= nextafter(distance - 1e-9,
        -inf) before it leaves the lattice; a beam that hit marks the next
        cell it enters, when that lies in the lattice and is entered within
        distance + 1e-9. At a lattice corner, that can be a free cell entered
        at the same distance as the blocked one. A hit cell is not passed,
        and neither array repeats a cell.
        """
        reach = np.nextafter(distance - 1e-9, -np.inf)
        end = np.minimum((self.t > reach[:, None]).argmax(axis=1), self.stop)
        flat, t, code = self.at(end)
        marks = np.zeros(self.cells, dtype=np.uint8)
        marks[self.flat[self.before(end)]] = 1
        marks[flat[hit & (t <= distance + 1e-9) & (code != _OUTSIDE)]] = 2
        return (np.flatnonzero(marks == 1).astype(np.int32),
                np.flatnonzero(marks == 2).astype(np.int32))


def fan_walk(codes: np.ndarray, cell_size: float, ox: float, oy: float,
             angles: Sequence[float], max_range: float) -> FanWalk:
    """Walk the rays at `angles` from (ox, oy) over `codes` (see `_fan_codes`).

    Each beam steps, enters and stops exactly as `trace_ray` does. The walks
    come from a table memoized per cell size, the origin's offsets to its
    cell boundaries, angles, range and lattice shape, so any origin at the
    same spot within its cell (every cell centre, for a power-of-two cell
    size) shares one table.
    """
    height, width = codes.shape[0] - 2, codes.shape[1] - 2
    cx = int(math.floor(ox / cell_size))
    cy = int(math.floor(oy / cell_size))
    if not (0 <= cx < width and 0 <= cy < height):
        raise ValueError("fan origin outside the lattice")
    key = (cell_size, (cx + 1) * cell_size - ox, cx * cell_size - ox,
           (cy + 1) * cell_size - oy, cy * cell_size - oy, tuple(angles), max_range,
           width, height)
    table = _FAN_TABLES.get(key)
    if table is None:
        table = _fan_table(*key)
        if sum(t.t.size for t in _FAN_TABLES.values()) + table.t.size > _FAN_TABLE_LIMIT:
            _FAN_TABLES.clear()
        _FAN_TABLES[key] = table
    # Steps up to each beam's stop read their own cell; later steps, which
    # may lie further outside than the border, read whatever the clip gives.
    code = codes.take(table.pad + ((cy + 1) * (width + 2) + cx + 1), mode="clip")
    stop = np.logical_or(code, table.beyond).argmax(axis=1)
    return FanWalk(table.flat + (cy * width + cx), table.t, code, stop, max_range,
                   width * height)


def _fan(codes: np.ndarray, cell_size: float, pose: Pose,
         cfg: IrConfig | CameraConfig) -> FanWalk:
    """The sensor fan of `cfg` from `pose`, walked over `codes`."""
    return fan_walk(codes, cell_size, pose.x, pose.y,
                    beam_angles(pose.heading, cfg.fov, cfg.ray_count), cfg.max_range)


def _cells(flat: np.ndarray, width: int) -> list[Cell]:
    """The (x, y) cells of row-major flat indices, in order."""
    ys, xs = np.divmod(flat, width)
    return list(zip(xs.tolist(), ys.tolist()))


def _in_walk_order(flat: np.ndarray) -> np.ndarray:
    """`flat` without repeats, each index where it first occurs."""
    _, first = np.unique(flat, return_index=True)
    return flat[np.sort(first)]


def ir_scan(world: GridWorld, pose: Pose, cfg: IrConfig) -> IrScan:
    """Sweep the IR fan; beams that strike nothing report max_range, hit=False."""
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("scan pose outside world bounds")
    distance, hit = _fan(_fan_codes(world.occupied), world.cell_size, pose, cfg).beam_stops()
    return IrScan(pose, tuple(map(Beam, beam_angles(pose.heading, cfg.fov, cfg.ray_count),
                                  distance.tolist(), hit.tolist())))


def camera_sweep(blocked: np.ndarray, cell_size: float, pose: Pose,
                 cfg: CameraConfig) -> tuple[list[Cell], list[Cell]]:
    """The camera fan from `pose` walked over the `blocked` mask: the cells
    rays traversed (seen free) and the in-lattice blocked cells that stopped a
    ray within range (seen blocked), each once, in walk order."""
    walk = _fan(_fan_codes(blocked), cell_size, pose, cfg)
    flat, t, code = walk.at(walk.stop)
    width = blocked.shape[1]
    return (_cells(_in_walk_order(walk.flat[walk.before(walk.stop)]), width),
            _cells(_in_walk_order(flat[(code == _BLOCKED) & (t <= cfg.max_range)]), width))


def sense_cells(blocked: np.ndarray, cell_size: float, pose: Pose, ir: IrConfig,
                cam: CameraConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (row-major) indices of the cells one sense at `pose` gives
    evidence on, with the walls of the `blocked` mask: the cells the IR fan
    passes and hits (as `scan_cells` finds them for this pose's `ir_scan`)
    and the cells the camera fan sees free (as `camera_sweep` finds them),
    each array ascending."""
    codes = _fan_codes(blocked)
    beams = _fan(codes, cell_size, pose, ir)
    free, hits = beams.ir_evidence(*beams.beam_stops())
    sweep = _fan(codes, cell_size, pose, cam)
    mask = np.zeros(sweep.cells, dtype=bool)
    mask[sweep.flat[sweep.before(sweep.stop)]] = True
    return free, hits, np.flatnonzero(mask).astype(np.int32)


def scan_cells(width: int, height: int, cell_size: float,
               scan: IrScan) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row-major) indices of the cells of a width x height lattice
    that an IR scan passes and hits.

    A beam passes the cells it enters before its length less 1e-9; a beam
    that hit something marks the cell it enters at its length, within 1e-9.
    A hit cell is not passed, and neither array repeats a cell. The beams are
    walked to the lattice border, so every scan from one origin spot shares
    one table, whatever its beam lengths.
    """
    beams = scan.beams
    walk = fan_walk(_fan_codes(np.zeros((height, width), dtype=bool)), cell_size,
                    scan.origin.x, scan.origin.y, tuple(b.angle for b in beams), math.inf)
    return walk.ir_evidence(np.array([b.distance for b in beams], dtype=float),
                            np.array([b.hit for b in beams], dtype=bool))


def camera_observe(world: GridWorld, pose: Pose, cfg: CameraConfig) -> CameraObservation:
    """`camera_sweep` against the world's walls, plus `detect`'s detection."""
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("observation pose outside world bounds")
    seen_free, seen_blocked = camera_sweep(world.occupied, world.cell_size, pose, cfg)
    return CameraObservation(pose, tuple(seen_free), tuple(seen_blocked),
                             detect(world, pose, cfg))


def wedge_cells(cells: Iterable[Cell], pose: Pose, cfg: IrConfig | CameraConfig,
                cell_size: float) -> list[Cell]:
    """The cells whose centers lie within cfg.max_range of `pose` and within
    cfg.fov / 2 (+1e-12) of its heading; a center at the pose is always in."""
    half = cfg.fov / 2.0 + 1e-12
    out = []
    for cell in cells:
        x, y = (cell[0] + 0.5) * cell_size, (cell[1] + 0.5) * cell_size
        d = math.hypot(x - pose.x, y - pose.y)
        if d > cfg.max_range:
            continue
        if d < 1e-12 or abs(angle_diff(math.atan2(y - pose.y, x - pose.x),
                                       pose.heading)) <= half:
            out.append(cell)
    return out


def detect(world: GridWorld, pose: Pose, cfg: CameraConfig) -> Optional[Detection]:
    """The camera's target detection from `pose`, or None.

    The target is detected when its cell lies in the camera wedge
    (`wedge_cells`) and the ray through the cell center reaches it
    unblocked. This is the only part of a camera observation that depends on
    the target.
    """
    if world.target is None or not wedge_cells((world.target,), pose, cfg, world.cell_size):
        return None
    tx, ty = world.cell_center(world.target)
    d = math.hypot(tx - pose.x, ty - pose.y)
    if d < 1e-12:
        return Detection(world.target, 0.0, 1.0)
    bearing = math.atan2(ty - pose.y, tx - pose.x)
    _, _, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, bearing, d)
    if t <= d:
        return None
    return Detection(world.target, d, detection_confidence(d, cfg.conf_scale))
