"""Simulated sensors: IR range-finder fan and a detection-confidence camera.

Both sensors are modeled as 2D ray fans. The camera additionally reports a
target detection whose confidence decays with distance as conf_scale / d,
clamped to 1.

One walk reads the memoized fan tables: `sense_cells`, which the explorer
calls once per sensing-cache miss; the camera sweep that predicts a
candidate view (`curiosity.visible_from`) is a sense with no IR fan. The
walk reads one kind of table (`_fan_table`): every beam's cell offsets from
one origin spot in its cell, stepped exactly as `world.trace_ray` steps,
which steps lie beyond the beam's own range, and each IR beam's evidence for
every step at which it may stop; no distances, since the walk reads none. A
table holds the IR beams, if any, and then the camera beams. The walk is one
numpy gather of the table over a code grid of the walls (`fan_codes`), one
stop search and one flag array over the window of lattice rows and columns
the table covers rather than the whole lattice. The memo is bounded at
_FAN_TABLE_LIMIT beam steps.

The per-scan API (`ir_scan`, `scan_cells`, `camera_observe`) is the spec
the walk is tested against, written on `trace_ray`, one walk per beam; so is
the single ray of `detect`. The wedge test (`wedge_cells`, and `_in_wedge`
for one offset, which `detect` shares) has its one copy here too. It is the
spec of the explorer's local frontiers, and it builds the wedge stencil
(`wedge_stencil`): the memoized boolean wedge around a cell, exact by
construction.

Both memos are keyed by an origin's spot in its cell. A ray from a cell
centre meets its cell's boundaries exactly half a cell out, and the wedge
reads offsets from whole cells, so every cell centre is one spot at any
cell size: a run's poses share one table per fan and heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .world import (TWO_PI, Cell, GridWorld, Pose, angle_diff, cell_offset, ray_origin,
                    ray_steps, trace_ray)


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
    the same spot (every cell centre, at any cell size) and any heading
    whose beams fall on the same angles share one table. A camera
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
    cfg.fov / 2 (+1e-12) of its heading; a center at the pose is always in.
    Each offset is taken from whole cells (`world.cell_offset`)."""
    px, py, u, v = cell_offset(cell_size, pose.x, pose.y)
    out = []
    for cell in cells:
        dx, dy = (cell[0] - px) * cell_size - u, (cell[1] - py) * cell_size - v
        if _in_wedge(dx, dy, math.hypot(dx, dy), pose.heading, cfg):
            out.append(cell)
    return out


def _in_wedge(dx: float, dy: float, d: float, heading: float,
              cfg: IrConfig | CameraConfig) -> bool:
    """The wedge rule of `wedge_cells` for one offset (dx, dy) from the pose,
    at distance d = hypot(dx, dy)."""
    return d <= cfg.max_range and (d < 1e-12 or abs(angle_diff(math.atan2(dy, dx), heading))
                                   <= cfg.fov / 2.0 + 1e-12)


# The most cells (bytes) the wedge stencils hold; a new stencil that would
# pass it empties the memo first.
_STENCIL_LIMIT = 1 << 16

_STENCILS: dict[tuple, np.ndarray] = {}


def wedge_stencil(pose: Pose, cell_size: float, cfg: IrConfig | CameraConfig) -> np.ndarray:
    """The wedge around the cell of `pose`: a read-only boolean square of
    2 * reach + 1 cells a side, reach = int(cfg.max_range / cell_size) + 2,
    centred on that cell, True at exactly the cells `wedge_cells` keeps, by
    which it is built. A centre within range lies at most floor(range /
    cell_size) + 1 cells out along each axis; the one cell more absorbs the
    rounding of range / cell_size. `wedge_cells` reads a cell's delta from
    the pose's cell, the pose's offset in it and its heading, so the stencil
    is memoized under those, the cell size and the fan's range and fov.
    """
    cx, cy, u, v = cell_offset(cell_size, pose.x, pose.y)
    key = (u, v, pose.heading, cell_size, cfg.max_range, cfg.fov)
    stencil = _STENCILS.get(key)
    if stencil is None:
        reach = int(cfg.max_range / cell_size) + 2
        stencil = np.zeros((2 * reach + 1, 2 * reach + 1), dtype=bool)
        square = [(cx + i, cy + j) for j in range(-reach, reach + 1)
                  for i in range(-reach, reach + 1)]
        for x, y in wedge_cells(square, pose, cfg, cell_size):
            stencil[y - cy + reach, x - cx + reach] = True
        stencil.setflags(write=False)
        _keep(_STENCILS, key, stencil, np.size, _STENCIL_LIMIT)
    return stencil


def detect(world: GridWorld, pose: Pose, cfg: CameraConfig) -> Optional[Detection]:
    """The camera's target detection from `pose`, or None.

    The target is detected when its cell lies in the camera wedge (the
    rule of `wedge_cells`) and the ray through the cell center reaches it
    unblocked; the one offset to the target gives the wedge test, the
    distance and the bearing. This is the only part of a camera observation
    that depends on the target.
    """
    if world.target is None:
        return None
    cs, (tx, ty) = world.cell_size, world.target
    px, py, u, v = cell_offset(cs, pose.x, pose.y)
    dx, dy = (tx - px) * cs - u, (ty - py) * cs - v
    d = math.hypot(dx, dy)
    if not _in_wedge(dx, dy, d, pose.heading, cfg):
        return None
    if d < 1e-12:
        return Detection(world.target, 0.0, 1.0)
    _, _, t = trace_ray(world.occupied, cs, pose.x, pose.y, math.atan2(dy, dx), d)
    if t <= d:
        return None
    return Detection(world.target, d, detection_confidence(d, cfg.conf_scale))
