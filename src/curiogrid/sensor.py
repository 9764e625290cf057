"""Simulated sensors: IR range-finder fan and a detection-confidence camera.

Both sensors are modeled as 2D ray fans. The camera additionally reports a
target detection whose confidence decays with distance as conf_scale / d,
clamped to 1.

One walk reads the memoized fan tables: `sense_cells`, which the explorer
calls once per sensing-cache miss. A camera sweep (`camera_sweep`, the
prediction of a candidate view through `curiosity.visible_from`) is a sense
with no IR fan, its cells in row-major order. The walk reads one kind of
table (`_fan_table`): every beam's cell offsets from one origin spot in its
cell, stepped exactly as `world.trace_ray` steps, which steps lie beyond the
beam's own range, and each IR beam's evidence for every step at which it may
stop; no distances, since the walk reads none. A table holds the IR beams,
if any, and then the camera beams. The walk is one numpy gather of the table
over a code grid of the walls (`fan_codes`), one stop search and one flag
array over the window of lattice rows and columns the table covers rather
than the whole lattice. The memo is bounded at _FAN_TABLE_LIMIT beam steps.

The per-scan API (`ir_scan`, `scan_cells`, `camera_observe`) is the spec
the walk is tested against, written on `trace_ray`, one walk per beam; so is
the single ray of `detect`. The wedge test (`wedge_cells`) has its one copy
here too. It is the spec of the explorer's local frontiers, and it decides
every candidate the wedge stencil (`wedge_stencil`) keeps: a memoized
boolean superset of a fan's wedge, shared by the poses at one spot of any
cell and one heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .world import (TWO_PI, Cell, GridWorld, Pose, angle_diff, ray_origin, ray_steps,
                    trace_ray)


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


# The code of a cell outside the lattice in the grid a fan walks
# (`fan_codes`); free cells are 0 and blocked ones 1.
_OUTSIDE = 2

# The most beam steps the fan tables hold, over all cell sizes, origins and
# fans (17 to 22 bytes each, about 1.4 MB in all); a new table that would
# pass it empties the memo first.
_FAN_TABLE_LIMIT = 1 << 16


class _FanTable(NamedTuple):
    """Every beam's walk from one origin, one row per beam, padded past the
    longest walk: each step's index offset into the code grid (`pad`) and
    whether it enters its cell beyond the beam's range (`beyond`, True past
    the walk); `rows` is each row's first entry and `steps` is 0, 1, ... per
    column. The entry distances only build `beyond`, `end` and `mark`.

    The first `ir` beams form an IR fan (none for a camera sweep's table).
    A walk fills a flag array of three equal parts: the cells the IR fan
    passes, the cells it hits and the cells the camera sees. Each part is
    the window of the lattice indices the steps reach: the `size`
    consecutive indices from `low`, less the origin cell's, which hold the
    cells in the steps' rows and columns, so a walk marks flags over the
    window, not the whole lattice. `window` is each step's flag in its
    beam's part (the passes' part for an IR beam); the flag f of any part
    stands for the lattice index f % size + low, plus the origin cell's.

    An IR beam's evidence depends only on the step at which it stops, so
    these hold it for every stop step, at row * steps + step (`rows` +
    step): `end`, the step before which the beam passes its cells and at
    which a hit marks one, at row * steps + end; and `mark`, _OUTSIDE if the
    beam marks the cell it enters at `end` as hit, else 0. The cell is
    marked when its code is below `mark`, that is, when the beam hits and
    the cell lies in the lattice.
    """

    pad: np.ndarray
    window: np.ndarray
    beyond: np.ndarray
    rows: np.ndarray
    steps: np.ndarray
    end: np.ndarray
    mark: np.ndarray
    low: int
    size: int
    ir: int


_FAN_TABLES: dict[tuple, _FanTable] = {}


def _fan_table(cell_size: float, bx1: float, bx0: float, by1: float, by0: float,
               width: int, height: int, angles: Sequence[float],
               ranges: Sequence[float], ir: int = 0) -> _FanTable:
    """The walks of the beams at `angles` from an origin whose cell
    boundaries lie bx1/bx0 to the right/left and by1/by0 below/above it, each
    stepped as `trace_ray` steps through the first step beyond its own range
    in `ranges`, the first `ir` beams an IR fan. A walk from inside a width
    x height lattice leaves it within width + height - 1 steps, so no walk
    is longer than width + height steps.

    Each beam's crossings of the x and of the y boundaries are running sums,
    as `trace_ray` adds them up; a stable sort merges them, an x crossing
    first on a tie, as `trace_ray` steps. The j-th crossing along an axis (from
    0) lies at least j cell sizes out, so int(range / cell_size) + 2
    crossings per axis reach past the longest range; one more absorbs the
    rounding of the running sums. More crossings leave the sorted prefix of a
    shorter beam's walk as it is, so beams of any ranges share one table.
    """
    limit = width + height
    ranges = np.asarray(ranges, dtype=float).reshape(-1, 1)
    n = int(min(ranges.max(initial=0.0) / cell_size + 3, limit))
    steps = np.array([ray_steps(cell_size, bx1, bx0, by1, by0, a) for a in angles],
                     dtype=float).reshape(-1, 6)
    # per beam: the first crossing, then the spacing, along x and along y
    crossings = np.empty((len(steps), 2, n))
    crossings[:, 0], crossings[:, 1] = steps[:, 2:3], steps[:, 5:6]
    crossings[:, 0, 0], crossings[:, 1, 0] = steps[:, 1], steps[:, 4]
    # A beam nearly along an axis has a spacing near the float maximum along
    # the other; its sum overflows to the inf that `trace_ray` reaches
    # silently with Python floats.
    with np.errstate(over="ignore"):
        crossings = np.cumsum(crossings, axis=2).reshape(len(steps), 2 * n)
    order = np.argsort(crossings, axis=1, kind="stable")
    t = np.take_along_axis(crossings, order, axis=1)
    # each walk's step count: through its first step beyond the range
    walked = np.minimum((t <= ranges).sum(axis=1) + 1, limit)
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
    low = int(ys.min()) * width + int(xs.min())
    size = int(ys.max()) * width + int(xs.max()) - low + 1
    window = ys * width + xs - low
    window[ir:] += 2 * size
    # per IR beam and stop step: whether the beam hits, and the step `end`
    # before which it passes its cells and at which a hit marks one. A beam
    # reads the distance at which it enters its stop cell, and `end` comes
    # no later, so that cell is always entered within the distance + 1e-9.
    beams, stops = np.arange(len(steps)) * (cols + 2), np.arange(cols + 2)
    hit = t[:ir] <= ranges[:ir]
    reach = np.nextafter(np.where(hit, t[:ir], ranges[:ir]) - 1e-9, -np.inf)
    end = np.minimum((t[:ir, None, :] > reach[:, :, None]).argmax(axis=2), stops)
    return _FanTable(ys * (width + 2) + xs, window, t > ranges, beams, stops,
                     beams[:ir, None] + end, np.where(hit, _OUTSIDE, 0).astype(np.uint8),
                     low, size, ir)


def fan_codes(blocked: np.ndarray) -> np.ndarray:
    """The grid a fan walk reads: each cell of the `blocked` mask coded free
    or blocked, framed by a one-cell border coded outside the lattice."""
    height, width = blocked.shape
    codes = np.full((height + 2, width + 2), _OUTSIDE, dtype=np.uint8)
    codes[1:-1, 1:-1] = blocked
    return codes


def _spot(width: int, height: int, cell_size: float, ox: float,
          oy: float) -> tuple[int, int, tuple]:
    """`world.ray_origin` of a fan origin (ox, oy), which must lie in a width
    x height lattice."""
    cx, cy, spot = ray_origin(cell_size, ox, oy)
    if not (0 <= cx < width and 0 <= cy < height):
        raise ValueError("fan origin outside the lattice")
    return cx, cy, spot


def _keep(memo: dict, key: tuple, item, size: Callable[[object], int], limit: int):
    """Store `item` under `key` in `memo` and return it. An item that would
    take the memo past `limit`, summing `size` over its items, empties it
    first."""
    if sum(map(size, memo.values())) + size(item) > limit:
        memo.clear()
    memo[key] = item
    return item


def _stops(codes: np.ndarray, table: _FanTable, cx: int,
           cy: int) -> tuple[np.ndarray, np.ndarray]:
    """Each step's code, for the walk of `table` from cell (cx, cy) over
    `codes`, and the step at which each beam stops: its first cell beyond
    the range, outside the lattice or blocked."""
    # Steps up to each beam's stop read their own cell; later steps, which
    # may lie further outside than the border, read whatever the clip gives.
    code = codes.take(table.pad + ((cy + 1) * codes.shape[1] + cx + 1), mode="clip")
    return code, np.logical_or(code, table.beyond).argmax(axis=1)


def ir_scan(world: GridWorld, pose: Pose, cfg: IrConfig) -> IrScan:
    """Sweep the IR fan; beams that strike nothing report max_range, hit=False."""
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("scan pose outside world bounds")
    beams = []
    for angle in beam_angles(pose.heading, cfg.fov, cfg.ray_count):
        _, _, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, angle,
                            cfg.max_range)
        hit = bool(t <= cfg.max_range)
        beams.append(Beam(angle, float(t if hit else cfg.max_range), hit))
    return IrScan(pose, tuple(beams))


def camera_sweep(blocked: np.ndarray, cell_size: float, pose: Pose,
                 cfg: CameraConfig) -> list[Cell]:
    """The cells the rays of the camera fan from `pose` (the beams of
    `beam_angles`) traverse over the `blocked` mask (seen free), each once,
    in row-major order: the camera part of a `sense_cells` walk with no IR
    fan, as cells."""
    cells, _, seen_at = sense_cells(fan_codes(blocked), cell_size, pose, None, cfg)
    ys, xs = np.divmod(cells[seen_at:], blocked.shape[1])
    return list(zip(xs.tolist(), ys.tolist()))


def sense_cells(codes: np.ndarray, cell_size: float, pose: Pose, ir: Optional[IrConfig],
                cam: CameraConfig) -> tuple[np.ndarray, int, int]:
    """The cells one sense at `pose` gives evidence on, with the walls of
    the code grid `codes` (see `fan_codes`): the flat (row-major) indices of
    the cells the IR fan passes, then of those it hits (as `scan_cells`
    finds them for this pose's `ir_scan`), then of those the camera fan sees
    free (as `camera_observe` finds them), each part ascending, in one int32
    array; and the offsets of the second and the third part. With `ir`
    None, the two IR parts are empty.

    Both fans are one walk over their memoized `_fan_table`, the IR beams
    first, found by the origin's spot in its cell, the lattice shape and
    each fan's range, first angle, fov and ray count (the camera's, then the
    IR fan's, if any; so a key without an IR fan is shorter). Any origin at
    the same spot (every cell centre, for a power-of-two cell size) and any
    heading whose beams fall on the same angles share one table. A camera
    beam sees the cells of the steps before its stop, an IR beam passes
    those before its `end`.
    """
    height, width = codes.shape[0] - 2, codes.shape[1] - 2
    cx, cy, spot = _spot(width, height, cell_size, pose.x, pose.y)
    key = (*spot, width, height, cam.max_range, pose.heading - cam.fov / 2.0, cam.fov,
           cam.ray_count)
    if ir is not None:
        key += (ir.max_range, pose.heading - ir.fov / 2.0, ir.fov, ir.ray_count)
    table = _FAN_TABLES.get(key)
    if table is None:
        fans = (cam,) if ir is None else (ir, cam)
        table = _keep(_FAN_TABLES, key, _fan_table(
            *spot, width, height,
            [a for fan in fans for a in beam_angles(pose.heading, fan.fov, fan.ray_count)],
            [fan.max_range for fan in fans for _ in range(fan.ray_count)],
            0 if ir is None else ir.ray_count), lambda t: t.beyond.size, _FAN_TABLE_LIMIT)
    code, stop = _stops(codes, table, cx, cy)
    rows = table.rows[:table.ir]
    at = rows + stop[:table.ir]
    end = table.end.take(at)
    limit = np.concatenate((end - rows, stop[table.ir:]))
    size = table.size
    flags = np.zeros(3 * size, dtype=bool)
    flags[table.window[table.steps < limit[:, None]]] = True
    hits = table.window.take(end[code.take(end) < table.mark.take(at)])
    flags[hits] = False
    flags[hits + size] = True
    cells = flags.nonzero()[0]
    hits_at, seen_at = cells.searchsorted((size, 2 * size))
    return ((cells % size + (table.low + cy * width + cx)).astype(np.int32),
            int(hits_at), int(seen_at))


def scan_cells(width: int, height: int, cell_size: float,
               scan: IrScan) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row-major) indices of the cells of a width x height lattice
    that an IR scan passes and hits, each ascending, as int32.

    Each beam is walked over the empty lattice to nextafter(distance - 1e-9,
    -inf): it passes the cells it enters by then, and a beam that hit marks
    the next cell it enters, when that lies in the lattice and is entered
    within distance + 1e-9. At a lattice corner, that can be a free cell
    entered at the same distance as the blocked one. A hit cell is not
    passed, and neither array repeats a cell. An origin outside the lattice
    raises ValueError.
    """
    ox, oy = scan.origin.x, scan.origin.y
    _spot(width, height, cell_size, ox, oy)  # the origin must lie in the lattice
    empty = np.zeros((height, width), dtype=bool)
    passed, hits = set(), set()
    for beam in scan.beams:
        visited, (x, y), t = trace_ray(empty, cell_size, ox, oy, beam.angle,
                                       math.nextafter(beam.distance - 1e-9, -math.inf))
        passed.update(cy * width + cx for cx, cy in visited)
        if (beam.hit and 0 <= x < width and 0 <= y < height
                and t <= beam.distance + 1e-9):
            hits.add(y * width + x)
    return (np.array(sorted(passed - hits), dtype=np.int32),
            np.array(sorted(hits), dtype=np.int32))


def camera_observe(world: GridWorld, pose: Pose, cfg: CameraConfig) -> CameraObservation:
    """The camera fan from `pose` against the world's walls, one `trace_ray`
    per beam: the cells rays traversed (seen free) and the in-lattice blocked
    cells that stopped a ray within range (seen blocked), each once, in walk
    order; plus `detect`'s detection."""
    if not world.contains_point(pose.x, pose.y):
        raise ValueError("observation pose outside world bounds")
    seen_free, seen_blocked = [], []
    for angle in beam_angles(pose.heading, cfg.fov, cfg.ray_count):
        visited, stop, t = trace_ray(world.occupied, world.cell_size, pose.x, pose.y, angle,
                                     cfg.max_range)
        seen_free += visited
        if t <= cfg.max_range and world.in_bounds(stop):
            seen_blocked.append(stop)
    return CameraObservation(pose, tuple(dict.fromkeys(seen_free)),
                             tuple(dict.fromkeys(seen_blocked)), detect(world, pose, cfg))


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


# A wedge stencil's key rounds the origin's offset in its cell (in cells) and
# the heading (in radians) to multiples of _WEDGE_QUANTUM; the stencil widens
# the wedge by _WEDGE_MARGIN of each. The memo holds at most _STENCIL_LIMIT
# cells (bytes); a new stencil that would pass it empties the memo first.
_WEDGE_QUANTUM = 2.0 ** -20
_WEDGE_MARGIN = 2.0 * _WEDGE_QUANTUM
_STENCIL_LIMIT = 1 << 16

_STENCILS: dict[tuple, np.ndarray] = {}


def wedge_stencil(pose: Pose, cell_size: float, cfg: IrConfig | CameraConfig) -> np.ndarray:
    """A superset of the wedge around the cell of `pose`: a read-only boolean
    square of 2 * reach + 1 cells a side, reach = int(cfg.max_range /
    cell_size) + 2, centred on that cell, True at every cell whose centre
    `wedge_cells` may keep from `pose`, and at few others. A cell centre
    within the range lies at most floor(range / cell_size) + 1 cells from the
    pose's cell along each axis, so the square misses none; the one cell more
    absorbs the rounding of range / cell_size.

    The stencil is memoized under the pose's offset in its cell and its
    heading, each rounded to a multiple q of _WEDGE_QUANTUM, the cell size and
    the fan's range and fov, so poses at the same spot of any cell share it.
    It is built for the key's own offset and heading, with a margin m = 2q
    (_WEDGE_MARGIN) wider than any rounding of the key:
      - a pose with that key lies within q / sqrt(2) cells of the key's
        offset, to which the float rounding of `wedge_cells`' absolute
        coordinates adds under q / 4 for a lattice of fewer than 2^28 cells a
        side: within d < q in all;
      - so a centre r cells from the key's offset is within r + d < r + m
        cells of the pose;
      - the pose's heading is within q / 2 of the key's, so its wedge lies
        in the wedge W of half-angle fov / 2 + 1e-12 + m about the key's
        heading, moved by under q cells from the key's offset.
    So the stencil keeps every centre within range + m cells that lies
    within m cells (plus 1e-12 m) of the key's offset or of W from that
    offset. What the margin adds, `wedge_cells` decides.
    """
    u, v = pose.x / cell_size, pose.y / cell_size
    q = _WEDGE_QUANTUM
    key = (round((u - math.floor(u)) / q), round((v - math.floor(v)) / q),
           round(pose.heading / q), cell_size, cfg.max_range, cfg.fov)
    stencil = _STENCILS.get(key)
    if stencil is None:
        stencil = _keep(_STENCILS, key, _wedge_square(*key[:4], cfg), np.size, _STENCIL_LIMIT)
    return stencil


def _wedge_square(kx: int, ky: int, kh: int, cell_size: float,
                  cfg: IrConfig | CameraConfig) -> np.ndarray:
    """The stencil of `wedge_stencil` for the rounded offset (kx, ky) and
    heading kh, in multiples of _WEDGE_QUANTUM."""
    q, m = _WEDGE_QUANTUM, _WEDGE_MARGIN
    reach = int(cfg.max_range / cell_size) + 2
    # a float range: adding 0.5 to an int one runs numpy's int-to-float
    # loop, which nothing else in a run does (64 KB more resident code)
    centres = np.arange(-reach, reach + 1.0) + 0.5
    dx, dy = centres - kx * q, (centres - ky * q)[:, None]
    # Each centre's offset along the heading and across it (a turn t from
    # the heading gives r cos t and r |sin t|), and, for the edge of W at
    # the half-angle w on its side, r sin(t - w) and r cos(t - w): a centre
    # lies in W when the first is not positive, and else within m of W when
    # it is at most m and the second is not negative (the edge's nearest
    # point is not its apex), or when it lies within m of the apex.
    cos, sin = math.cos(kh * q), math.sin(kh * q)
    along, across = dx * cos + dy * sin, np.abs(dy * cos - dx * sin)
    w = min(cfg.fov / 2.0 + 1e-12 + m, math.pi)
    past = across * math.cos(w) - along * math.sin(w)
    r = np.hypot(dx, dy)
    stencil = (r <= cfg.max_range / cell_size + m) & (
        (past <= 0.0) | ((past <= m) & (across * math.sin(w) + along * math.cos(w) >= 0.0))
        | (r <= m + 1e-12 / cell_size))
    stencil.setflags(write=False)
    return stencil


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
