"""Exploration loops: curiosity-driven search and the rapid-frontier baseline.

Both explorers share the same skeleton: sense at every traversed cell, keep
the two belief maps current, and repeatedly commit to a frontier until either
the detector fires above the confidence threshold, the frontiers run out, or
the time budget is gone. They differ only in how the next frontier is picked
from the local set.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Optional

import numpy as np

from .curiosity import CuriosityParams, select_frontier, total_curiosity
from .mapping import Label, MappingConfig, ObjectMap, OccupancyMap
# camera_observe and ir_scan are not called here; they stay importable from
# this module because bench/spans.py wraps them under these names.
from .sensor import (CameraConfig, IrConfig, camera_observe, detect, ir_scan, sense_cells,
                     wedge_cells)
from .world import TWO_PI, Cell, GridWorld, Pose, angle_diff, wrap_angle

SQRT2 = math.sqrt(2.0)

# 8-connected steps in row-major order, with unit step costs.
_STEPS = (
    (-1, -1, SQRT2), (0, -1, 1.0), (1, -1, SQRT2),
    (-1, 0, 1.0), (1, 0, 1.0),
    (-1, 1, SQRT2), (0, 1, 1.0), (1, 1, SQRT2),
)


class InvariantError(RuntimeError):
    """A runtime self-check failed (e.g. the robot entered a wall)."""


@dataclass(frozen=True)
class MotionConfig:
    """Translation speed and the optional cost of turning in place."""

    max_velocity: float = 2.0
    rotation_penalty: float = 0.0  # seconds per full turn; 0 = rotation is free

    def __post_init__(self):
        if self.max_velocity <= 0:
            raise ValueError("max_velocity must be positive")
        if self.rotation_penalty < 0:
            raise ValueError("rotation_penalty must be non-negative")


@dataclass(frozen=True)
class SensorSuite:
    ir: IrConfig
    camera: CameraConfig


@dataclass(frozen=True)
class StepRecord:
    """One planning decision in the exploration loop."""

    step: int
    pose: Pose
    frontier: Cell
    loss: float
    total_curiosity: float
    path_length: float
    elapsed: float
    mode: str  # "curiosity", "heading", "nearest_global", or "rotate"


@dataclass
class ExplorationResult:
    occupancy: OccupancyMap
    objects: ObjectMap
    elapsed: float
    found: bool
    target_estimate: Optional[Cell]
    trajectory: list[Pose] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)


def detect_frontiers(occupancy: OccupancyMap) -> list[Cell]:
    """Free belief cells with at least one unknown 4-neighbor, row-major order."""
    labels = occupancy.classify()
    free = labels == Label.FREE
    unknown = labels == Label.UNKNOWN
    adjacent = np.zeros_like(free)
    adjacent[1:, :] |= unknown[:-1, :]
    adjacent[:-1, :] |= unknown[1:, :]
    adjacent[:, 1:] |= unknown[:, :-1]
    adjacent[:, :-1] |= unknown[:, 1:]
    ys, xs = np.nonzero(free & adjacent)
    return [(int(x), int(y)) for y, x in zip(ys, xs)]


def local_frontiers(frontiers: list[Cell], pose: Pose, ir: IrConfig,
                    cell_size: float) -> list[Cell]:
    """Subset of frontiers whose centers fall inside the IR wedge from `pose`."""
    return wedge_cells(frontiers, pose, ir, cell_size)


def _dijkstra(free: np.ndarray, start: Cell, cell_size: float,
              goals: Collection[Cell] = (), settle: Collection[Cell] = ()
              ) -> tuple[np.ndarray, dict[Cell, Cell], Optional[Cell]]:
    """Uniform-cost search over free cells, 8-connected, from `start`.

    Returns (dist, parents, nearest): dist holds the path cost in meters of
    every cell the search reached (inf elsewhere), parents maps each reached
    cell to its predecessor, and nearest is the first cell of `goals` to be
    settled (None when no goal is reachable).

    The search stops as soon as at least one cell of `goals` and every cell
    of `settle` have been settled; with no goals it runs until the heap is
    empty, i.e. over the whole free component of `start`. Stopping early
    changes nothing already settled. The heap pops in (dist, row-major index)
    order, and every push has a larger cost than the pop that made it, so the
    settled sequence is exactly the prefix of the full search's: each settled
    cell has its final dist and parent (a parent only changes on a strictly
    shorter cost), and `nearest` is the reachable goal with the smallest
    (dist, row-major index), the row-major tie-break of the full search.
    Cells reached but not yet settled may hold a larger-than-final dist.
    """
    height, width = free.shape
    dist = np.full((height, width), np.inf)
    parents: dict[Cell, Cell] = {}
    if not free[start[1], start[0]]:
        return dist, parents, None
    goals = set(goals)
    unsettled = set(settle)
    nearest: Optional[Cell] = None
    dist[start[1], start[0]] = 0.0
    heap: list[tuple[float, int, Cell]] = [(0.0, start[1] * width + start[0], start)]
    settled = np.zeros((height, width), dtype=bool)
    while heap:
        d, _, cell = heapq.heappop(heap)
        cx, cy = cell
        if settled[cy, cx]:
            continue
        settled[cy, cx] = True
        unsettled.discard(cell)
        if nearest is None and cell in goals:
            nearest = cell
        if nearest is not None and not unsettled:
            break
        for dx, dy, step in _STEPS:
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < width and 0 <= ny < height) or not free[ny, nx]:
                continue
            nd = d + step * cell_size
            if nd < dist[ny, nx]:
                dist[ny, nx] = nd
                parents[(nx, ny)] = cell
                heapq.heappush(heap, (nd, ny * width + nx, (nx, ny)))
    return dist, parents, nearest


def _extract_path(parents: dict[Cell, Cell], start: Cell, goal: Cell) -> list[Cell]:
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def plan_path(occupancy: OccupancyMap, start: Cell, goal: Cell,
              force_free: Collection[Cell] = ()) -> Optional[list[Cell]]:
    """Shortest 8-connected path through belief-free cells, or None if unreachable.

    Cells listed in `force_free` (inside the map) count as free whatever the
    belief says, for cells the caller knows to be traversable. The returned
    path includes both endpoints; its cost is the sum of Euclidean step
    lengths in meters.
    """
    free = occupancy.classify() == Label.FREE
    for x, y in force_free:
        free[y, x] = True
    if not (0 <= start[0] < occupancy.width and 0 <= start[1] < occupancy.height):
        raise ValueError("start cell outside map")
    if not free[start[1], start[0]]:
        raise ValueError("start cell is not believed free")
    if not (0 <= goal[0] < occupancy.width and 0 <= goal[1] < occupancy.height):
        return None
    if not free[goal[1], goal[0]]:
        return None
    if start == goal:
        return [start]
    _, parents, nearest = _dijkstra(free, start, occupancy.cell_size, goals=(goal,))
    if nearest is None:
        return None
    return _extract_path(parents, start, goal)


def path_cost(path: list[Cell], cell_size: float) -> float:
    """Sum of Euclidean step lengths along a cell path, meters."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        total += (SQRT2 if x0 != x1 and y0 != y1 else 1.0) * cell_size
    return total


def _row_major(cell: Cell, width: int) -> int:
    return cell[1] * width + cell[0]


# A selector must rank each candidate on a key of its own, independent of the
# other candidates: _decide relies on it to pick before searching.
SelectFn = Callable[[list[Cell], ObjectMap, OccupancyMap, Pose], tuple[Cell, float, str]]


def _cdos_select(params: CuriosityParams, cam: CameraConfig) -> SelectFn:
    def pick(frontiers, objects, occupancy, pose):
        choice = select_frontier(frontiers, objects, occupancy, pose, cam, params)
        return choice.cell, choice.loss, "curiosity"
    return pick


def _heading_select() -> SelectFn:
    def pick(frontiers, objects, occupancy, pose):
        cs = occupancy.cell_size
        best = None
        best_cell = None
        for cell in frontiers:
            x, y = (cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs
            d = math.hypot(x - pose.x, y - pose.y)
            turn = 0.0 if d < 1e-12 else abs(angle_diff(math.atan2(y - pose.y, x - pose.x),
                                                        pose.heading))
            key = (turn, d, _row_major(cell, occupancy.width))
            if best is None or key < best:
                best = key
                best_cell = cell
        return best_cell, 0.0, "heading"
    return pick


def _decide(free: np.ndarray, start: Cell, cell_size: float, frontiers: list[Cell],
            wedge: list[Cell], pick: Callable[[list[Cell]], tuple[Cell, float, str]]
            ) -> Optional[tuple[Cell, float, str, list[Cell]]]:
    """One planning decision: (goal, loss, mode, path), or None when no
    frontier is reachable from `start`.

    The goal is `pick`'s choice among the reachable frontiers of the IR wedge
    or, when none is reachable, the nearest reachable frontier of all. Both
    selectors rank each candidate by a key of its own, so a choice made over
    the whole wedge stands whenever it is reachable. The search therefore
    only runs until that choice is settled (with an empty wedge, until the
    nearest frontier is); only when the choice turns out to be unreachable
    has it covered the whole component, and `pick` chooses again among the
    wedge frontiers it reached.
    """
    choice = pick(wedge) if wedge else None
    dist, parents, nearest = _dijkstra(free, start, cell_size, goals=frontiers,
                                       settle=[choice[0]] if choice is not None else ())
    if nearest is None:
        return None
    if choice is not None and not np.isfinite(dist[choice[0][1], choice[0][0]]):
        local = [c for c in wedge if np.isfinite(dist[c[1], c[0]])]
        choice = pick(local) if local else None
    goal, loss, mode = choice if choice is not None else (nearest, 0.0, "nearest_global")
    return goal, loss, mode, _extract_path(parents, start, goal)


# The most poses the sensing evidence cache holds, over all maps.
_SENSE_CACHE_LIMIT = 1 << 13

# Flat cell indices of one sense: IR passed cells, IR hit cells, then camera
# seen-free cells, in one int32 array; and the offsets of the second and
# third part.
_Evidence = tuple[np.ndarray, int, int]

# Per-process ground-truth sensing evidence: one table per map, from pose to
# the evidence `_sense` fuses. An IR scan and a camera sweep are pure functions
# of the map, the sensor geometry and the pose, so a table's key is the map
# content (shape, cell_size, occupancy dtype and bytes) and the IrConfig and
# CameraConfig, not the target: `_sense` runs `detect` on every sense, and the
# trials that share a map share its table. Once the tables hold
# _SENSE_CACHE_LIMIT poses, the next store empties every table first.
_SENSE_CACHE: dict[tuple, dict[Pose, _Evidence]] = {}


class _Explorer:
    """Shared machinery for one exploration trial."""

    def __init__(self, world: GridWorld, sensors: SensorSuite, motion: MotionConfig,
                 budget: float, select: SelectFn, mapping_cfg: MappingConfig,
                 curiosity_params: CuriosityParams, detection_threshold: float):
        start_cell = world.cell_of(world.start.x, world.start.y)
        if not world.in_bounds(start_cell) or not world.is_free(start_cell):
            raise ValueError("world start is invalid")
        self.world = world
        self.sensors = sensors
        self.motion = motion
        self.budget = budget
        self.select = select
        self.params = curiosity_params
        self.threshold = detection_threshold
        self.occupancy = OccupancyMap(world.width, world.height, world.cell_size, mapping_cfg)
        self.objects = ObjectMap(world.width, world.height, world.cell_size, mapping_cfg)
        occupied = world.occupied
        self.evidence = _SENSE_CACHE.setdefault(
            (occupied.shape, world.cell_size, occupied.dtype.str, occupied.tobytes(),
             sensors.ir, sensors.camera), {})
        self.pose = world.start
        self.elapsed = 0.0
        self.trajectory = [world.start]
        self.steps: list[StepRecord] = []
        self.found = False
        self.estimate: Optional[Cell] = None

    def _sense(self) -> None:
        evidence = self.evidence.get(self.pose)
        if evidence is None:
            free, hits, seen = sense_cells(self.world.occupied, self.world.cell_size, self.pose,
                                           self.sensors.ir, self.sensors.camera)
            evidence = np.concatenate((free, hits, seen)), len(free), len(free) + len(hits)
            if sum(map(len, _SENSE_CACHE.values())) >= _SENSE_CACHE_LIMIT:
                for table in _SENSE_CACHE.values():
                    table.clear()
            self.evidence[self.pose] = evidence
        det = detect(self.world, self.pose, self.sensors.camera)
        cells, hits_at, seen_at = evidence
        self.occupancy.add_scan_evidence(cells[:hits_at], cells[hits_at:seen_at])
        self.objects.add_observation_evidence(cells[seen_at:], det)
        if det is None:
            return
        # Discovered on a single high-confidence sighting, or once the fused
        # object-map probability of the sighted cell crosses the threshold
        # (detection confidence and cell probability share one scale).
        if det.conf > self.threshold:
            self.found = True
            self.estimate = det.cell
        elif self.objects.raw_probabilities()[det.cell[1], det.cell[0]] > self.threshold:
            self.found = True
            self.estimate = det.cell

    def _charge_rotation(self, heading: float) -> None:
        """Add the time of turning in place from the current heading to `heading`."""
        if self.motion.rotation_penalty > 0.0:
            self.elapsed += (self.motion.rotation_penalty
                             * abs(angle_diff(heading, self.pose.heading)) / TWO_PI)

    def _move_to(self, cell: Cell) -> None:
        if self.world.occupied[cell[1], cell[0]]:
            raise InvariantError(f"planned move into occupied cell {cell}")
        x, y = self.world.cell_center(cell)
        dx, dy = x - self.pose.x, y - self.pose.y
        step = math.hypot(dx, dy)
        heading = self.pose.heading if step < 1e-12 else wrap_angle(math.atan2(dy, dx))
        self._charge_rotation(heading)
        self.elapsed += step / self.motion.max_velocity
        self.pose = Pose(x, y, heading)
        self.trajectory.append(self.pose)

    def _rotate_to_face(self, cell: Cell) -> None:
        x, y = self.world.cell_center(cell)
        if math.hypot(x - self.pose.x, y - self.pose.y) < 1e-12:
            return
        heading = wrap_angle(math.atan2(y - self.pose.y, x - self.pose.x))
        self._charge_rotation(heading)
        self.pose = Pose(self.pose.x, self.pose.y, heading)
        self.trajectory.append(self.pose)

    def _unknown_neighbor(self, cell: Cell) -> Optional[Cell]:
        labels = self.occupancy.classify()
        for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            nx, ny = cell[0] + dx, cell[1] + dy
            if 0 <= nx < self.world.width and 0 <= ny < self.world.height:
                if labels[ny, nx] == Label.UNKNOWN:
                    return (nx, ny)
        return None

    def _result(self) -> ExplorationResult:
        if self.found and self.estimate is None:
            raise InvariantError("found flag without a target estimate")
        return ExplorationResult(self.occupancy, self.objects, self.elapsed,
                                 self.found, self.estimate, self.trajectory, self.steps)

    def run(self) -> ExplorationResult:
        self._sense()
        if self.found:
            return self._result()

        # Settle before moving: a single inverse-model update cannot cross the
        # free threshold when p_miss >= p_free_max, so keep scanning in place
        # until the supporting cell resolves (bounded; no time is consumed).
        start_cell = self.world.cell_of(self.pose.x, self.pose.y)
        for _ in range(8):
            labels = self.occupancy.classify()
            if labels[start_cell[1], start_cell[0]] == Label.FREE:
                break
            self._sense()
            if self.found:
                return self._result()

        step_idx = 0
        stalled = 0
        while True:
            frontiers = detect_frontiers(self.occupancy)
            if not frontiers:
                break
            current_cell = self.world.cell_of(self.pose.x, self.pose.y)
            free = self.occupancy.classify() == Label.FREE
            wedge = local_frontiers(frontiers, self.pose, self.sensors.ir,
                                    self.world.cell_size)
            decision = _decide(free, current_cell, self.world.cell_size, frontiers, wedge,
                               lambda cells: self.select(cells, self.objects,
                                                         self.occupancy, self.pose))
            if decision is None:
                break
            goal, loss, mode, path = decision

            curiosity_now = total_curiosity(self.objects, self.params)

            if goal == current_cell:
                # Standing on the frontier: face its unknown neighbor and sense
                # until the evidence resolves it. The stall guard only trips
                # for degenerate sensor geometries that can never resolve it.
                stalled += 1
                if stalled > 64:
                    break
                self.steps.append(StepRecord(step_idx, self.pose, goal, loss,
                                             curiosity_now, 0.0, self.elapsed, "rotate"))
                step_idx += 1
                neighbor = self._unknown_neighbor(goal)
                if neighbor is not None:
                    self._rotate_to_face(neighbor)
                self._sense()
                if self.found or self.elapsed > self.budget:
                    return self._result()
                continue
            stalled = 0

            self.steps.append(StepRecord(step_idx, self.pose, goal, loss, curiosity_now,
                                         path_cost(path, self.world.cell_size),
                                         self.elapsed, mode))
            step_idx += 1

            for i, cell in enumerate(path[1:], start=1):
                self._move_to(cell)
                self._sense()
                if self.found:
                    return self._result()
                if self.elapsed > self.budget:
                    return self._result()
                remaining = path[i + 1:]
                if remaining:
                    labels = self.occupancy.classify()
                    if any(labels[c[1], c[0]] == Label.OCCUPIED for c in remaining):
                        break  # path invalidated by new evidence; replan
        return self._result()


def explore_cdos(world: GridWorld, sensors: SensorSuite,
                 params: CuriosityParams = CuriosityParams(),
                 motion: MotionConfig = MotionConfig(), budget: float = 600.0,
                 mapping_cfg: MappingConfig = MappingConfig(),
                 detection_threshold: float = 0.95) -> ExplorationResult:
    """Curiosity-driven object search: frontiers picked by expected curiosity loss."""
    explorer = _Explorer(world, sensors, motion, budget,
                         _cdos_select(params, sensors.camera), mapping_cfg,
                         params, detection_threshold)
    return explorer.run()


def explore_rapid_frontier(world: GridWorld, sensors: SensorSuite,
                           motion: MotionConfig = MotionConfig(), budget: float = 600.0,
                           mapping_cfg: MappingConfig = MappingConfig(),
                           detection_threshold: float = 0.95,
                           params: CuriosityParams = CuriosityParams()) -> ExplorationResult:
    """Baseline: frontiers picked by minimal heading change, detector unchanged.

    `params` only sets the curve of the total curiosity the step log records;
    the baseline's choices never read it.
    """
    explorer = _Explorer(world, sensors, motion, budget, _heading_select(),
                         mapping_cfg, params, detection_threshold)
    return explorer.run()
