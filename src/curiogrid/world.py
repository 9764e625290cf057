"""Ground-truth grid world: map files, zones, and exact ray traversal.

The world is a lattice of square cells, each Free or Occupied. Row 0 is the
top row of the map file; cell coordinates are (x, y) = (column, row). World
coordinates are meters, x growing right and y growing down, so the center of
cell (cx, cy) sits at ((cx + 0.5) * cell_size, (cy + 0.5) * cell_size).
Headings are radians measured from the +x axis toward +y.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

Cell = tuple[int, int]

TWO_PI = 2.0 * math.pi


class MapError(ValueError):
    """Malformed map file."""


class ZoneError(ValueError):
    """Malformed zone file or invalid zone query."""


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return 0.0 if a == TWO_PI else a


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b, in [-pi, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return d


@dataclass(frozen=True)
class Pose:
    """Position in meters (world frame) plus heading in radians."""

    x: float
    y: float
    heading: float


@dataclass(frozen=True, eq=False)
class GridWorld:
    """Immutable ground-truth environment.

    Attributes:
        width, height: lattice dimensions in cells.
        cell_size: edge length of one cell, meters.
        occupied: bool array of shape (height, width), True = Occupied.
        start: start pose (always on a Free cell).
        target: optional cell holding the object to find, always Free.
    """

    width: int
    height: int
    cell_size: float
    occupied: np.ndarray
    start: Pose
    target: Optional[Cell] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MapError("world dimensions must be at least 1x1")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise MapError("cell_size must be a positive finite number")
        if self.occupied.shape != (self.height, self.width):
            raise MapError("occupancy array shape does not match dimensions")
        self.occupied.setflags(write=False)
        start_cell = self.cell_of(self.start.x, self.start.y)
        if not self.in_bounds(start_cell) or not self.is_free(start_cell):
            raise MapError("start must lie on a free cell inside the world")
        if self.target is not None:
            if not self.in_bounds(self.target) or not self.is_free(self.target):
                raise MapError("target must lie on a free cell inside the world")

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def contains_point(self, x: float, y: float) -> bool:
        return 0 <= x < self.width * self.cell_size and 0 <= y < self.height * self.cell_size

    def is_free(self, cell: Cell) -> bool:
        return not bool(self.occupied[cell[1], cell[0]])

    def cell_of(self, x: float, y: float) -> Cell:
        return int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size))

    def cell_center(self, cell: Cell) -> tuple[float, float]:
        return (cell[0] + 0.5) * self.cell_size, (cell[1] + 0.5) * self.cell_size

    def with_target(self, cell: Optional[Cell]) -> "GridWorld":
        """Copy of this world with the object placed at `cell` (or removed)."""
        return GridWorld(self.width, self.height, self.cell_size,
                         np.array(self.occupied), self.start, cell)


_HEADER_RE = re.compile(r"^cellsize=(\S+)\s+heading=(\S+)\s*$")
_CHARS = {"#": True, ".": False, "S": False, "T": False}


def load_map(text: str) -> GridWorld:
    """Parse a map file.

    First line is a header `cellsize=<float> heading=<float>`; the rest is the
    grid, one row per line: '#' occupied, '.' free, 'S' start, 'T' target.
    """
    if not text.strip():
        raise MapError("empty map text")
    lines = text.splitlines()
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise MapError("missing or invalid header (expected 'cellsize=<f> heading=<f>')")
    try:
        cell_size = float(m.group(1))
        heading = float(m.group(2))
    except ValueError as exc:
        raise MapError(f"invalid header value: {exc}") from None
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise MapError(f"cellsize must be a positive finite number, got {m.group(1)!r}")
    if not math.isfinite(heading):
        raise MapError(f"heading must be a finite number, got {m.group(2)!r}")

    rows = lines[1:]
    if not rows:
        raise MapError("map has no grid rows")
    width = len(rows[0])
    if width == 0:
        raise MapError("map rows must be non-empty")
    if any(len(r) != width for r in rows):
        raise MapError("ragged rows")

    height = len(rows)
    occupied = np.zeros((height, width), dtype=bool)
    start_cell: Optional[Cell] = None
    target: Optional[Cell] = None
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch not in _CHARS:
                raise MapError(f"unknown character {ch!r} at row {y}, column {x}")
            occupied[y, x] = _CHARS[ch]
            if ch == "S":
                if start_cell is not None:
                    raise MapError("multiple start markers")
                start_cell = (x, y)
            elif ch == "T":
                if target is not None:
                    raise MapError("multiple targets")
                target = (x, y)
    if start_cell is None:
        raise MapError("no start marker")

    sx = (start_cell[0] + 0.5) * cell_size
    sy = (start_cell[1] + 0.5) * cell_size
    start = Pose(sx, sy, wrap_angle(heading))
    return GridWorld(width, height, cell_size, occupied, start, target)


def ray_origin(cell_size: float, ox: float, oy: float) -> tuple[int, int, tuple]:
    """The cell (cx, cy) of a ray origin (ox, oy) and the origin's spot in
    it: the cell size and the offsets from the origin to the cell's right,
    left, lower and upper boundaries, as `ray_steps` takes them."""
    cx = int(math.floor(ox / cell_size))
    cy = int(math.floor(oy / cell_size))
    return cx, cy, (cell_size, (cx + 1) * cell_size - ox, cx * cell_size - ox,
                    (cy + 1) * cell_size - oy, cy * cell_size - oy)


def ray_steps(cell_size: float, bx1: float, bx0: float, by1: float, by0: float,
              angle: float) -> tuple[int, float, float, int, float, float]:
    """The boundary-stepping state of a ray at `angle` from an origin whose
    cell boundaries lie bx1 / bx0 to its right / left and by1 / by0 below /
    above it: (step_x, t_max_x, t_dx, step_y, t_max_y, t_dy), the cell step
    along each axis, the distance to the first boundary crossed along it and
    the distance between two crossings."""
    dx = math.cos(angle)
    dy = math.sin(angle)
    if dx > 0.0:
        step_x, t_max_x, t_dx = 1, bx1 / dx, cell_size / dx
    elif dx < 0.0:
        step_x, t_max_x, t_dx = -1, bx0 / dx, -cell_size / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0.0:
        step_y, t_max_y, t_dy = 1, by1 / dy, cell_size / dy
    elif dy < 0.0:
        step_y, t_max_y, t_dy = -1, by0 / dy, -cell_size / dy
    else:
        step_y, t_max_y, t_dy = 0, math.inf, math.inf
    return step_x, t_max_x, t_dx, step_y, t_max_y, t_dy


def trace_ray(blocked: np.ndarray, cell_size: float, ox: float, oy: float, angle: float,
              max_range: float) -> tuple[list[Cell], Cell, float]:
    """Walk a ray from (ox, oy) through the lattice of `blocked` until it stops.

    Steps cell boundary by cell boundary (Amanatides & Woo, 1987), so thin
    walls are never tunneled through. Returns (visited, stop, t): stop is the
    first cell entered that lies beyond max_range, lies outside the lattice,
    or is set in `blocked`, tested in that order; t is the exact distance at
    which the ray entered stop (0 for the origin cell); visited lists the
    cells entered before stop, in order. So t > max_range means the ray ran
    out of range; otherwise stop is the lattice border if it lies outside the
    lattice and a blocked cell if inside.
    """
    height, width = blocked.shape
    cx, cy, spot = ray_origin(cell_size, ox, oy)
    step_x, t_max_x, t_dx, step_y, t_max_y, t_dy = ray_steps(*spot, angle)

    visited: list[Cell] = []
    t = 0.0
    while t <= max_range and 0 <= cx < width and 0 <= cy < height and not blocked[cy, cx]:
        visited.append((cx, cy))
        if t_max_x <= t_max_y:
            t = t_max_x
            t_max_x += t_dx
            cx += step_x
        else:
            t = t_max_y
            t_max_y += t_dy
            cy += step_y
    return visited, (cx, cy), t


@dataclass(frozen=True)
class Zone:
    """A labeled set of free cells used for object placement experiments."""

    id: int
    cells: frozenset[Cell]


_ZONE_LINE_RE = re.compile(r"^zone(\d+)\s*=\s*(.+)$")


def load_zones(text: str, world: GridWorld) -> dict[int, Zone]:
    """Parse a zone file: lines `zone<i> = x0,y0,x1,y1 [x0,y0,x1,y1 ...]`.

    Rectangles are inclusive cell-coordinate ranges. Zones must be pairwise
    disjoint and lie entirely on free cells.
    """
    zones: dict[int, Zone] = {}
    claimed: dict[Cell, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _ZONE_LINE_RE.match(line)
        if m is None:
            raise ZoneError(f"line {lineno}: expected 'zone<i> = x0,y0,x1,y1 ...'")
        zone_id = int(m.group(1))
        if not 1 <= zone_id <= 5:
            raise ZoneError(f"line {lineno}: zone id must be 1..5")
        if zone_id in zones:
            raise ZoneError(f"line {lineno}: duplicate zone {zone_id}")
        cells: set[Cell] = set()
        for rect in m.group(2).split():
            parts = rect.split(",")
            if len(parts) != 4:
                raise ZoneError(f"line {lineno}: rectangle {rect!r} is not x0,y0,x1,y1")
            try:
                x0, y0, x1, y1 = (int(p) for p in parts)
            except ValueError:
                raise ZoneError(f"line {lineno}: non-integer rectangle {rect!r}") from None
            if x0 > x1 or y0 > y1:
                raise ZoneError(f"line {lineno}: empty rectangle {rect!r}")
            for y in range(y0, y1 + 1):
                for x in range(x0, x1 + 1):
                    cell = (x, y)
                    if not world.in_bounds(cell):
                        raise ZoneError(f"line {lineno}: cell {cell} outside world")
                    if not world.is_free(cell):
                        raise ZoneError(f"line {lineno}: cell {cell} is occupied")
                    cells.add(cell)
        for cell in cells:
            if cell in claimed:
                raise ZoneError(f"zones {claimed[cell]} and {zone_id} overlap at {cell}")
            claimed[cell] = zone_id
        zones[zone_id] = Zone(zone_id, frozenset(cells))
    if not zones:
        raise ZoneError("zone file defines no zones")
    return zones


def sample_zone_points(zone: Zone, n: int, seed: int) -> list[Cell]:
    """Draw n cells uniformly with replacement from the zone, seeded."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not zone.cells:
        raise ZoneError("empty zone")
    cells = sorted(zone.cells)
    rng = random.Random(seed)
    return [cells[rng.randrange(len(cells))] for _ in range(n)]
