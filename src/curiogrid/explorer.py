"""Exploration loops: curiosity-driven search and the rapid-frontier baseline.

Both explorers share the same skeleton: sense at every traversed cell, keep
the two belief maps current, and repeatedly commit to a frontier until either
the detector fires above the confidence threshold, the frontiers run out, or
the time budget is gone. They differ only in how the next frontier is picked
from the local set.

A decision costs what it reads, not the grid. It reads views the loop keeps
current rather than full-grid passes:
  - the occupancy labels and frontier mask, relabelled at the cells each
    sense touched, off the config's two label edges (`edge_labels`);
  - each cell's curiosity, updated at the cells the senses since the last
    decision gave camera evidence on, off the config's two object edges
    (`mapping._edges`): only cells past the second run the whole chain;
  - the local frontiers, read off the frontier mask within the box the IR
    range can reach and tested against the IR wedge there;
  - the planner's lists (`_Search`), kept from the explorer's first decision
    on, each search resetting only the cells the last one reached.
The full-grid functions (`OccupancyMap.classify` and `occupancy_labels`,
`detect_frontiers`, `curiosity.total_curiosity`, `local_frontiers` over every
frontier, and `_dijkstra` in fresh lists) stay the spec the tests check the
views against. The loop keeps one path, the search's framed indices, and
logs the goal's search distance as its length (`path_cost`, bit for bit).

A sense is one `_fuse` and one `_relabel`. `_fuse` is the one lookup of a
pose's sensing evidence (the map's cache, or one `sense_cells` walk the cache
keeps); it adds the evidence and a detection to both belief maps and takes
the found test.

Trials of one map and settings share their search up to the first sense that
sees the target: before it, `sensor.detect`, a run's only read of the target,
returns None. A per-process tape (`run_taped`) runs that search once without
a target and records the loop state at every sense (`_Explorer._record`). A
trial stands at its first detection without running the loop again: from the
fork stored at or before it, it fuses the cached evidence of the senses in
between, relabels once and restores the recorded state. A cdos trial
finishes alone from there. The baseline's pick reads no object state, so its
moves are the tape's until it finds the target: it reads its run off the
tape, fusing each sense's evidence with its own detection, and logs each
decision's total curiosity over its own object map. A target never seen gets
a copy of the end state. A fork copies every array and list it may change,
so each result equals a solo run (`run_solo`), whatever the process ran
before.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Optional

import numpy as np

# camera_observe, ir_scan and total_curiosity are not called here; they stay
# importable from this module because bench/spans.py wraps them under these names.
from .curiosity import CuriosityParams, curiosity_of, select_frontier, total_curiosity
from .mapping import (FREE, OCCUPIED, UNKNOWN, MappingConfig, ObjectMap, OccupancyMap,
                      classify_object_probabilities, edge_labels, occupancy_labels,
                      probabilities_from_log_odds, _edges)
from .sensor import (CameraConfig, Detection, IrConfig, camera_observe, detect, fan_codes,
                     ir_scan, sense_cells, wedge_cells)
from .world import Cell, GridWorld, Pose, angle_diff, wrap_angle

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
    """Translation speed. Turning in place takes no time."""

    max_velocity: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.max_velocity < math.inf:
            raise ValueError("max_velocity must be positive and finite")


def check_run_limits(budget: float, detection_threshold: float) -> None:
    """Reject a budget (s) that is not positive and finite, or a threshold outside (0, 1)."""
    if not 0.0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    if not 0.0 < detection_threshold < 1.0:
        raise ValueError("detection_threshold must be in (0, 1)")


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


def _frontier_subset(labels: np.ndarray, cells: np.ndarray, width: int) -> np.ndarray:
    """The frontiers among `cells`: FREE cells with at least one UNKNOWN
    4-neighbor, in the given order.

    `labels` is the flat label array of a lattice framed by one non-FREE cell
    on every side, `width` its row length, and `cells` indices into it; only
    FREE cells, which lie inside the frame, have their neighbors read.
    """
    cells = cells[labels[cells] == FREE]
    around = labels[cells[:, None] + (-width, -1, 1, width)]
    return cells[(around == UNKNOWN).any(axis=1)]


def _padded(mask: np.ndarray, fill: int) -> tuple[np.ndarray, int]:
    """A 2D array framed by one `fill` cell on every side, flattened, and its row length."""
    return np.pad(mask, 1, constant_values=fill).ravel(), mask.shape[1] + 2


def _index(cell: Cell, width: int) -> int:
    """The flat index of a cell in a framed lattice of row length `width`."""
    return (cell[1] + 1) * width + cell[0] + 1


def _cell(index: int, width: int) -> Cell:
    y, x = divmod(index, width)
    return x - 1, y - 1


def _cells(indices: np.ndarray, width: int) -> list[Cell]:
    """`_cell` of each of `indices`, in order."""
    rows, cols = np.divmod(indices, width)
    return list(zip((cols - 1).tolist(), (rows - 1).tolist()))


def detect_frontiers(occupancy: OccupancyMap) -> list[Cell]:
    """Free belief cells with at least one unknown 4-neighbor, row-major order."""
    labels, width = _padded(occupancy.classify(), OCCUPIED)
    return _cells(_frontier_subset(labels, np.arange(labels.size), width), width)


def local_frontiers(frontiers: list[Cell], pose: Pose, ir: IrConfig,
                    cell_size: float) -> list[Cell]:
    """Subset of frontiers whose centers fall inside the IR wedge from `pose`."""
    return wedge_cells(frontiers, pose, ir, cell_size)


class _Search:
    """The lists `_dijkstra` writes, kept for the next search over a lattice
    of the same size: each cell's dist and parent, the settled marks, and
    the cells the last search wrote to, which the next one resets."""

    __slots__ = ("dist", "parents", "settled", "touched")

    def __init__(self, size: int):
        self.dist = [math.inf] * size
        self.parents = [-1] * size
        self.settled = bytearray(size)
        self.touched: list[int] = []


def _dijkstra(free: bytes, width: int, start: int, cell_size: float,
              goals: Optional[bytes] = None, settle: Collection[int] = (),
              search: Optional[_Search] = None
              ) -> tuple[list[float], list[int], Optional[int]]:
    """Uniform-cost search over free cells, 8-connected, from `start`.

    The lattice is flat and framed: `free` holds one byte per cell of a grid
    of row length `width` whose border cells are not free, so no step leaves
    it; `start`, the `goals` mask and the `settle` cells are flat indices into
    it. Returns (dist, parents, nearest): dist holds the path cost in meters
    of every cell the search reached (inf elsewhere), parents the index of
    each reached cell's predecessor (-1 elsewhere), and nearest is the first
    cell of `goals` to be settled (None when no goal is reachable).

    The search stops as soon as at least one cell of `goals` and every cell
    of `settle` have been settled; with no goals it runs until the heap is
    empty, i.e. over the whole free component of `start`. Stopping early
    changes nothing already settled. The heap pops in (dist, flat index)
    order, and the flat index of a framed lattice is monotone in row-major
    order; every push has a larger cost than the pop that made it, so the
    settled sequence is exactly the prefix of the full search's: each settled
    cell has its final dist and parent (a parent only changes on a strictly
    shorter cost), and `nearest` is the reachable goal with the smallest
    (dist, row-major index), the row-major tie-break of the full search.
    Cells reached but not yet settled may hold a larger-than-final dist.

    With `search`, a `_Search` of the lattice's size, the search runs in its
    lists, resetting only the cells the last search there wrote to, and the
    dist and parents it returns are those lists: they stay valid until the
    next search in `search`. Without it, the search runs in fresh lists.
    """
    if search is None:
        search = _Search(len(free))
    dist, parents, settled, touched = search.dist, search.parents, search.settled, search.touched
    for i in touched:
        dist[i] = math.inf
        parents[i] = -1
        settled[i] = 0
    touched.clear()
    if not free[start]:
        return dist, parents, None
    steps = [(dy * width + dx, step * cell_size) for dx, dy, step in _STEPS]
    unsettled = set(settle)
    nearest: Optional[int] = None
    dist[start] = 0.0
    heap = [(0.0, start)]
    pop, push, settle_one = heapq.heappop, heapq.heappush, touched.append
    while heap:
        d, i = pop(heap)
        if settled[i]:
            continue
        settled[i] = 1
        settle_one(i)
        unsettled.discard(i)
        if nearest is None and goals is not None and goals[i]:
            nearest = i
        if nearest is not None and not unsettled:
            break
        for offset, cost in steps:
            j = i + offset
            if free[j]:
                nd = d + cost
                if nd < dist[j]:
                    dist[j] = nd
                    parents[j] = i
                    push(heap, (nd, j))
    # every cell written to was pushed, and is settled or still on the heap
    touched.extend(j for _, j in heap)
    return dist, parents, nearest


def _chain(parents: list[int], start: int, goal: int) -> list[int]:
    """The indices from `start` to `goal` along a search's `parents`."""
    chain = [goal]
    while chain[-1] != start:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return chain


def plan_path(occupancy: OccupancyMap, start: Cell, goal: Cell,
              force_free: Collection[Cell] = ()) -> Optional[list[Cell]]:
    """Shortest 8-connected path through belief-free cells, or None if unreachable.

    Cells listed in `force_free` count as free whatever the belief says, for
    cells the caller knows to be traversable; each must lie inside the map.
    The returned path includes both endpoints; its cost is the sum of
    Euclidean step lengths in meters.
    """
    def inside(cell: Cell) -> bool:
        return 0 <= cell[0] < occupancy.width and 0 <= cell[1] < occupancy.height

    free, width = _padded(occupancy.classify() == FREE, False)
    for cell in force_free:
        if not inside(cell):
            raise ValueError(f"force_free cell {tuple(cell)} outside map")
        free[_index(cell, width)] = True
    if not inside(start):
        raise ValueError("start cell outside map")
    if not free[_index(start, width)]:
        raise ValueError("start cell is not believed free")
    if not inside(goal) or not free[_index(goal, width)]:
        return None
    if start == goal:
        return [start]
    goals = bytearray(free.size)
    goals[_index(goal, width)] = 1
    _, parents, nearest = _dijkstra(free.tobytes(), width, _index(start, width),
                                    occupancy.cell_size, goals=goals)
    if nearest is None:
        return None
    return [_cell(i, width) for i in _chain(parents, _index(start, width), nearest)]


def path_cost(path: list[Cell], cell_size: float) -> float:
    """Sum of Euclidean step lengths along a cell path, meters."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        total += (SQRT2 if x0 != x1 and y0 != y1 else 1.0) * cell_size
    return total


def _pick_curiosity(ex: _Explorer, frontiers: list[Cell]) -> tuple[Cell, float, str]:
    """cdos: the frontier of least expected curiosity loss."""
    choice = select_frontier(frontiers, ex.objects, ex.occupancy, ex.pose,
                             ex.sensors.camera, ex.params)
    return choice.cell, choice.loss, "curiosity"


def _pick_heading(ex: _Explorer, frontiers: list[Cell]) -> tuple[Cell, float, str]:
    """Rapid frontier: the frontier of least heading change, then distance."""
    cs, pose = ex.world.cell_size, ex.pose

    def key(cell: Cell) -> tuple[float, float, int]:
        x, y = (cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs
        d = math.hypot(x - pose.x, y - pose.y)
        turn = 0.0 if d < 1e-12 else abs(angle_diff(math.atan2(y - pose.y, x - pose.x),
                                                    pose.heading))
        return turn, d, cell[1] * ex.world.width + cell[0]
    return min(frontiers, key=key), 0.0, "heading"


# The frontier pick of each method, by the name the harness gives it.
_PICKS = {"cdos": _pick_curiosity, "baseline": _pick_heading}


def _decide(free: bytes, width: int, start: int, cell_size: float, goals: bytes,
            wedge: list[Cell], pick: Callable[[list[Cell]], tuple[Cell, float, str]],
            search: Optional[_Search] = None
            ) -> Optional[tuple[Cell, float, str, np.ndarray, float]]:
    """One planning decision: (goal, loss, mode, path, length), or None when
    no frontier is reachable from `start`; the path holds the indices from
    `start` to the goal, and its length is the goal's dist.

    `free`, `width`, `start` and `search` are as for `_dijkstra`, `goals`
    masks the frontiers there, and `wedge` lists the wedge's frontiers as cells.
    The goal is `pick`'s choice among the reachable frontiers of the IR wedge
    or, when none is reachable, the nearest reachable frontier of all. Both
    pick functions rank each candidate by a key of its own, so a choice made over
    the whole wedge stands whenever it is reachable. The search therefore
    only runs until that choice is settled (with an empty wedge, until the
    nearest frontier is); only when the choice turns out to be unreachable
    has it covered the whole component, and `pick` chooses again among the
    wedge frontiers it reached.
    """
    choice = pick(wedge) if wedge else None
    dist, parents, nearest = _dijkstra(
        free, width, start, cell_size, goals=goals,
        settle=[_index(choice[0], width)] if choice is not None else (), search=search)
    if nearest is None:
        return None
    if choice is not None and dist[_index(choice[0], width)] == math.inf:
        local = [c for c in wedge if dist[_index(c, width)] < math.inf]
        choice = pick(local) if local else None
    if choice is None:
        choice = _cell(nearest, width), 0.0, "nearest_global"
    goal, loss, mode = choice
    at = _index(goal, width)
    return goal, loss, mode, np.array(_chain(parents, start, at)), dist[at]


# The most poses the sensing evidence cache holds, over all maps.
_SENSE_CACHE_LIMIT = 1 << 13

# The evidence of one sense (`sense_cells`): flat cell indices of the IR
# passed cells, IR hit cells, then camera seen-free cells, in one int32 array;
# and the offsets of the second and third part.
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
                 budget: float, mapping_cfg: MappingConfig, detection_threshold: float,
                 params: CuriosityParams,
                 pick: Callable[[_Explorer, list[Cell]], tuple[Cell, float, str]]):
        check_run_limits(budget, detection_threshold)
        self.world = world
        self.sensors = sensors
        self.motion = motion
        self.budget = budget
        self.pick = pick
        self.params = params
        self.threshold = detection_threshold
        self.occupancy = OccupancyMap(world.width, world.height, world.cell_size, mapping_cfg)
        self.objects = ObjectMap(world.width, world.height, world.cell_size, mapping_cfg)
        # The occupancy labels and the frontier mask, flat over the lattice
        # framed by OCCUPIED cells (row length `stride`), kept current by
        # `_sense`; `classify()` and `detect_frontiers` are their full-grid spec.
        # The uniform prior gives every cell one label, so no cell is a frontier.
        self.labels, self.stride = _padded(
            occupancy_labels(self.occupancy.log_odds, mapping_cfg), OCCUPIED)
        self.frontier = np.zeros(self.labels.size, dtype=bool)
        # Each cell's curiosity over the classified object map, the total a
        # decision logs; `total_curiosity` is its full-grid spec. A sense only
        # queues the flat indices it gave camera evidence on, and the next
        # decision updates the array there (`_total_curiosity`), reading the
        # curiosity of the classified values 0.0 and 0.5 off the config's
        # object edges (`_curiosity`; nan stands for the cells past the second).
        self.curiosity = curiosity_of(self.objects.classified(), params)
        self.queued: list[np.ndarray] = []
        self.object_edges = _edges(mapping_cfg.lambda1, mapping_cfg.lambda2)
        self.edge_curiosity = curiosity_of(np.array([0.0, 0.5, math.nan]), params)
        # the framed index of each flat map index; the offsets of a cell and
        # its 4-neighbors
        rows, cols = np.divmod(np.arange(world.width * world.height), world.width)
        self.framed = (rows + 1) * self.stride + cols + 1
        self.cross = np.array([0, -self.stride, -1, 1, self.stride])
        occupied = world.occupied
        # the walls as the sensing-cache misses walk them; forks share it
        self.codes = fan_codes(occupied)
        self.evidence = _SENSE_CACHE.setdefault(
            (occupied.shape, world.cell_size, occupied.dtype.str, occupied.tobytes(),
             sensors.ir, sensors.camera), {})
        self.pose = world.start
        self.elapsed = 0.0
        self.trajectory = [world.start]
        self.steps: list[StepRecord] = []
        self.found = False
        self.estimate: Optional[Cell] = None
        # The loop state: senses at the start so far, rotate decisions in a
        # row, and the framed indices of the path being walked and the
        # position along it. A new explorer stands at its first sense.
        self.settles, self.stalled = 1, 0
        self.at, self.along = np.zeros(0, dtype=np.intp), 0
        # the planner's lists, made at the first decision; never shared with a fork
        self.search: Optional[_Search] = None

    def fork(self, world: Optional[GridWorld] = None) -> _Explorer:
        """A copy that runs on independently of this explorer, in `world`
        (the same map, with a target, say) when given."""
        twin = copy.copy(self)
        twin.occupancy, twin.objects = copy.copy(self.occupancy), copy.copy(self.objects)
        twin.occupancy.log_odds = self.occupancy.log_odds.copy()
        twin.objects.log_odds = self.objects.log_odds.copy()
        twin.labels, twin.frontier = self.labels.copy(), self.frontier.copy()
        twin.curiosity, twin.queued = self.curiosity.copy(), list(self.queued)
        twin.trajectory, twin.steps = list(self.trajectory), list(self.steps)
        twin.search = None
        twin.world = self.world if world is None else world
        return twin

    def _record(self) -> tuple:
        """The pose, the elapsed time and the loop state at the pending sense,
        as a tape records it; of the trajectory and steps, which only grow,
        their lengths."""
        return (self.pose, self.elapsed, len(self.trajectory), len(self.steps), self.settles,
                self.stalled, self.at, self.along)

    def _restore(self, record: tuple, trajectory: list[Pose], steps: list[StepRecord]) -> None:
        """Stand at the sense `record` (`_record`) was taken at, in a run whose
        trajectory and steps begin with `trajectory` and `steps`."""
        self.pose, self.elapsed, n, m, self.settles, self.stalled, self.at, self.along = record
        self.trajectory, self.steps = trajectory[:n], steps[:m]

    def _sense(self) -> bool:
        """Sense at the current pose and fuse the evidence; True once the
        search must stop: the target is found or the budget is spent."""
        self._relabel(self._fuse(self.pose, detect(self.world, self.pose,
                                                   self.sensors.camera)))
        return self.found or self.elapsed > self.budget

    def _fuse(self, pose: Pose, det: Optional[Detection]) -> np.ndarray:
        """Fuse the sensing evidence at `pose` with its detection `det` into
        both belief maps, without the relabel, and take the found test;
        returns the IR cells the evidence touched, for `_relabel`.

        The evidence comes from the map's sensing cache, or from one
        `sense_cells` walk that the cache then keeps.
        """
        evidence = self.evidence.get(pose)
        if evidence is None:
            evidence = sense_cells(self.codes, self.world.cell_size, pose,
                                   self.sensors.ir, self.sensors.camera)
            if sum(map(len, _SENSE_CACHE.values())) >= _SENSE_CACHE_LIMIT:
                for table in _SENSE_CACHE.values():
                    table.clear()
            self.evidence[pose] = evidence
        cells, hits_at, seen_at = evidence
        self.occupancy.add_scan_evidence(cells[:hits_at], cells[hits_at:seen_at])
        self._observe(cells[seen_at:], det)
        # Discovered on a single high-confidence sighting, or once the fused
        # object-map probability of the sighted cell crosses the threshold
        # (detection confidence and cell probability share one scale).
        if det is not None:
            x, y = det.cell
            if (det.conf > self.threshold or probabilities_from_log_odds(
                    self.objects.log_odds[y, x]) > self.threshold):
                self.found = True
                self.estimate = det.cell
        return cells[:seen_at]

    def _relabel(self, touched: np.ndarray) -> None:
        """Bring the labels and the frontier mask up to date after evidence
        at the flat map indices `touched`: labels are per-cell functions of
        the log odds, read off the config's two log-odds edges
        (`edge_labels`), and a cell's frontier status reads only its own
        label and its 4-neighbors'."""
        new = edge_labels(self.occupancy.log_odds.ravel()[touched], self.occupancy.cfg)
        framed = self.framed[touched]
        changed = framed[self.labels[framed] != new]
        if not changed.size:
            return
        self.labels[framed] = new
        around = (changed[:, None] + self.cross).ravel()
        self.frontier[around] = False
        self.frontier[_frontier_subset(self.labels, around, self.stride)] = True

    def _observe(self, seen: np.ndarray, det: Optional[Detection]) -> None:
        """Fuse a camera sweep, given as for `ObjectMap.add_observation_evidence`,
        and queue the cells whose object log odds it changed."""
        self.objects.add_observation_evidence(seen, det)
        self.queued.append(seen)
        if det is not None:
            self.queued.append(np.array([det.cell[1] * self.world.width + det.cell[0]]))

    def _total_curiosity(self) -> float:
        """The total curiosity of the classified object map: the per-cell
        array, brought up to date at the queued cells, summed. Curiosity is a
        per-cell function of the log odds, and an array equal element by
        element to the full-grid one, of the same shape, sums to the same bits."""
        if self.queued:
            cells = np.concatenate(self.queued)
            self.queued = []
            self.curiosity.flat[cells] = self._curiosity(self.objects.log_odds.flat[cells])
        return float(self.curiosity.sum())

    def _curiosity(self, log_odds: np.ndarray) -> np.ndarray:
        """`curiosity_of(classify_object_probabilities(probabilities_from_log_odds(
        log_odds)))`, cell by cell: log odds below the first object edge
        classify to 0.0 and those below the second to 0.5, whose curiosity
        `edge_curiosity` holds, and only those past the second go through the
        whole chain."""
        bucket = np.searchsorted(self.object_edges, log_odds, side="right")
        values = self.edge_curiosity[bucket]
        past = bucket == 2
        if past.any():
            cfg = self.objects.cfg
            values[past] = curiosity_of(classify_object_probabilities(
                probabilities_from_log_odds(log_odds[past]), cfg.lambda1, cfg.lambda2),
                self.params)
        return values

    def _wedge(self, cell: Cell) -> list[Cell]:
        """`local_frontiers` of every frontier, the robot standing in `cell`.

        Only the frontiers within int(R / cell_size) + 2 cells of `cell` along
        each axis, R the IR range, are read off the frontier mask, and they
        come in row-major order, as `detect_frontiers` lists them. A cell
        centre within R of a pose in `cell` lies at most floor(R / cell_size)
        + 1 cells from it along each axis, so the box drops no frontier of the
        wedge, and the one cell more absorbs the rounding of R / cell_size.
        """
        reach = int(self.sensors.ir.max_range / self.world.cell_size) + 2
        x0, y0 = max(cell[0] + 1 - reach, 0), max(cell[1] + 1 - reach, 0)
        box = self.frontier.reshape(-1, self.stride)[y0:cell[1] + 2 + reach,
                                                     x0:cell[0] + 2 + reach]
        rows, cols = box.nonzero()
        near = list(zip((cols + (x0 - 1)).tolist(), (rows + (y0 - 1)).tolist()))
        return local_frontiers(near, self.pose, self.sensors.ir, self.world.cell_size)

    def _move_to(self, cell: Cell) -> None:
        if self.world.occupied[cell[1], cell[0]]:
            raise InvariantError(f"planned move into occupied cell {cell}")
        x, y = self.world.cell_center(cell)
        dx, dy = x - self.pose.x, y - self.pose.y
        step = math.hypot(dx, dy)
        heading = self.pose.heading if step < 1e-12 else wrap_angle(math.atan2(dy, dx))
        self.elapsed += step / self.motion.max_velocity
        self.pose = Pose(x, y, heading)
        self.trajectory.append(self.pose)

    def _rotate_to_face(self, cell: Cell) -> None:
        x, y = self.world.cell_center(cell)
        if math.hypot(x - self.pose.x, y - self.pose.y) < 1e-12:
            return
        heading = wrap_angle(math.atan2(y - self.pose.y, x - self.pose.x))
        self.pose = Pose(self.pose.x, self.pose.y, heading)
        self.trajectory.append(self.pose)

    def _unknown_neighbor(self, cell: Cell) -> Cell:
        """The first UNKNOWN 4-neighbor of a frontier cell."""
        at = _index(cell, self.stride)
        for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            if self.labels[at + dy * self.stride + dx] == UNKNOWN:
                return cell[0] + dx, cell[1] + dy
        raise InvariantError(f"frontier {cell} has no unknown neighbor")

    def _result(self) -> ExplorationResult:
        if self.found and self.estimate is None:
            raise InvariantError("found flag without a target estimate")
        return ExplorationResult(self.occupancy, self.objects, self.elapsed,
                                 self.found, self.estimate, self.trajectory, self.steps)

    def _to_next_pose(self) -> bool:
        """Move or turn to the next sensing pose, deciding where to go once
        the path is walked or blocked; False when the run ends without
        another sense: no frontier, none reachable, or the stall guard trips."""
        # Settle before moving: a single inverse-model update cannot cross the
        # free threshold when p_miss >= p_free_max, so keep scanning in place
        # until the start cell resolves (at most 9 senses; no time is consumed).
        if self.settles < 9:
            start = _index(self.world.cell_of(self.pose.x, self.pose.y), self.stride)
            if self.labels[start] != FREE:
                self.settles += 1
                return True
            self.settles = 9
        along = self.along + 1
        if along >= len(self.at) or (self.labels[self.at[along:]] == OCCUPIED).any():
            if not self.frontier.any():
                return False
            if self.search is None:
                self.search = _Search(self.labels.size)
            current_cell = self.world.cell_of(self.pose.x, self.pose.y)
            decision = _decide((self.labels == FREE).tobytes(), self.stride,
                               _index(current_cell, self.stride), self.world.cell_size,
                               self.frontier.tobytes(), self._wedge(current_cell),
                               lambda cells: self.pick(self, cells), self.search)
            if decision is None:
                return False
            goal, loss, mode, at, length = decision
            # Standing on the frontier: face its unknown neighbor and sense
            # until the evidence resolves it. The stall guard only trips for
            # degenerate sensor geometries that can never resolve it.
            self.stalled = self.stalled + 1 if goal == current_cell else 0
            if self.stalled > 64:
                return False
            self.steps.append(StepRecord(len(self.steps), self.pose, goal, loss,
                                         self._total_curiosity(), length, self.elapsed,
                                         "rotate" if self.stalled else mode))
            self.at = at
            if self.stalled:  # the path is the current cell: the next call decides again
                self._rotate_to_face(self._unknown_neighbor(goal))
                return True
            along = 1  # a fresh path is believed free throughout
        self.along = along
        self._move_to(_cell(int(self.at[along]), self.stride))
        return True

    def run(self) -> ExplorationResult:
        """Sense, then go to the next sensing pose, until the search stops
        (`_sense()` or `_to_next_pose()`); a fork resumes where it was made."""
        while not self._sense() and self._to_next_pose():
            pass
        return self._result()


# Senses between two forks a tape stores; about the most bytes the tapes hold
# over all keys, as `_Tape.nbytes` counts them (a trial that finds the bound
# passed empties the table first, and a tape stores no more forks past it).
_TAPE_STRIDE, _TAPE_LIMIT = 64, 1 << 24

# Bytes, about, of one trajectory Pose with its list slot; of one sense's
# record (`_Explorer._record`, 8 slots) with its list slot; and of one
# decision: its StepRecord with its list slot (336) and its path's framed
# indices, which the records keep alive (48). The records and paths were
# fitted with tracemalloc over both methods' tapes on the packaged maps,
# whose paths hold 2.7 cells on average.
_POSE_BYTES, _RECORD_BYTES, _DECISION_BYTES = 176, 168, 336 + 48


def _state_bytes(ex: _Explorer) -> int:
    arrays = (ex.occupancy.log_odds, ex.objects.log_odds, ex.labels, ex.frontier,
              ex.curiosity)
    return sum(a.nbytes for a in arrays) + 8 * (len(ex.trajectory) + len(ex.steps))


class _Tape:
    """The target-free run of one map and settings, taken lazily (see the
    module doc).

    `senses` holds the record of every sense so far (`_Explorer._record`).
    Until the run ends (`done`), `live` stands at the last of them, its
    pending sense. `forks[k]` was made at the pending sense k * _TAPE_STRIDE.
    """

    def __init__(self, explorer: _Explorer):
        self.live = explorer
        self.senses = [explorer._record()]
        self.forks = [explorer.fork()]
        self.done = False
        self.forked = 2 * _state_bytes(explorer)  # `live`'s at the start, and the forks'

    @property
    def nbytes(self) -> int:
        """The bytes the tape holds, about: the forks' and `live`'s arrays and
        list slots, the planner lists `live` makes at its first decision (two
        list slots and a settled byte a cell, `_Search`; a fork makes its own
        only once it decides), the records, and the poses and decisions
        `live`'s lists hold."""
        live = self.live
        return (self.forked + 17 * live.labels.size + _POSE_BYTES * len(live.trajectory)
                + _DECISION_BYTES * len(live.steps) + _RECORD_BYTES * len(self.senses))

    def _advance(self) -> None:
        """Take the pending sense and go to the next one, or end the run."""
        live = self.live
        if live._sense() or not live._to_next_pose():
            self.done = True
            return
        if (len(self.senses) == _TAPE_STRIDE * len(self.forks)
                and sum(t.nbytes for t in _TAPES.values()) < _TAPE_LIMIT):
            self.forks.append(live.fork())
            self.forked += _state_bytes(live)
        self.senses.append(live._record())

    def _at(self, i: int, world: GridWorld) -> _Explorer:
        """An explorer in `world`, the tape's map, standing at sense i as a
        run whose `detect` saw nothing before it. One `_relabel` over every
        cell the fused senses touched stands for theirs: labels are per-cell
        functions of the log odds, and a cell's frontier status reads only its
        own label and its 4-neighbours'."""
        if i == len(self.senses) - 1 and not self.done:
            return self.live.fork(world)
        # a tape that skipped a fork passed the bound and is emptied before its next trial
        ex = self.forks[i // _TAPE_STRIDE].fork(world)
        touched = [ex._fuse(record[0], None)
                   for record in self.senses[i - i % _TAPE_STRIDE:i]]
        if touched:
            ex._relabel(np.concatenate(touched))
        ex._restore(self.senses[i], self.live.trajectory, self.live.steps)
        return ex

    def _read_off(self, i: int, world: GridWorld) -> ExplorationResult:
        """The run in `world` from its first sighting at sense i, for a pick
        that reads no object state: read off the tape, advancing it as far as
        it reads."""
        ex = self._at(i, world)
        camera = ex.sensors.camera
        j = i
        while True:
            if j == len(self.senses) - 1 and not self.done:
                self._advance()
            pose = self.senses[j][0]
            ex._fuse(pose, detect(world, pose, camera))
            if ex.found or j == len(self.senses) - 1:
                break
            j += 1
            for step in self.live.steps[len(ex.steps):self.senses[j][3]]:  # to j's step count
                ex.steps.append(replace(step, total_curiosity=ex._total_curiosity()))
        ex._restore(self.senses[j], self.live.trajectory, ex.steps)
        return ex._result()

    def trial(self, world: GridWorld) -> ExplorationResult:
        """The run in `world`, the tape's map with a target."""
        camera = self.live.sensors.camera
        i = 0
        while i < len(self.senses) and detect(world, self.senses[i][0], camera) is None:
            i += 1
            if i == len(self.senses) and not self.done:
                self._advance()
        if i == len(self.senses):
            return self.live.fork()._result()
        if self.live.pick is _pick_heading:  # the one pick that reads no object state
            return self._read_off(i, world)
        return self._at(i, world).run()


# Per-process tapes, by `run_taped`'s key.
_TAPES: dict[tuple, _Tape] = {}


def run_taped(key: tuple, world: GridWorld) -> ExplorationResult:
    """`run_solo(world, settings)` for key = (map, settings), read off the
    tape of that map without a target; `map` names `world`'s map (by its
    text, say)."""
    if sum(t.nbytes for t in _TAPES.values()) >= _TAPE_LIMIT:
        _TAPES.clear()
    if key not in _TAPES:  # without the target the map may mark
        _TAPES[key] = _Tape(_Explorer(world.with_target(None), *key[1]))
    return _TAPES[key].trial(world)


def run_solo(world: GridWorld, settings: tuple) -> ExplorationResult:
    """The run in `world` under `settings`, what `_Explorer` takes after the
    world, in its order."""
    return _Explorer(world, *settings).run()


def explore_cdos(world: GridWorld, sensors: SensorSuite,
                 motion: MotionConfig = MotionConfig(), budget: float = 600.0,
                 mapping_cfg: MappingConfig = MappingConfig(),
                 detection_threshold: float = 0.95,
                 params: CuriosityParams = CuriosityParams()) -> ExplorationResult:
    """Curiosity-driven object search: frontiers picked by expected curiosity loss."""
    return _Explorer(world, sensors, motion, budget, mapping_cfg, detection_threshold,
                     params, _PICKS["cdos"]).run()


def explore_rapid_frontier(world: GridWorld, sensors: SensorSuite,
                           motion: MotionConfig = MotionConfig(), budget: float = 600.0,
                           mapping_cfg: MappingConfig = MappingConfig(),
                           detection_threshold: float = 0.95,
                           params: CuriosityParams = CuriosityParams()) -> ExplorationResult:
    """Baseline: frontiers picked by minimal heading change, detector unchanged.

    `params` only sets the curve of the total curiosity the step log records;
    the baseline's choices never read it.
    """
    return _Explorer(world, sensors, motion, budget, mapping_cfg, detection_threshold,
                     params, _PICKS["baseline"]).run()
