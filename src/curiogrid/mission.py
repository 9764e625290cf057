"""Mission sequencing: tether-driven mode switching, the phase state machine,
the scripted grab maneuver, and a full simulated mission trace.

The carrier vehicle releases the ground robot on a tether; the released
length alone decides whether the system is flying, landing, or exploring on
the ground. Once on the ground the phase machine walks the robot through
exploration, tracking, grabbing, and retraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .curiosity import CuriosityParams
from .explorer import (ExplorationResult, MotionConfig, SensorSuite, explore_cdos,
                       path_cost, plan_path)
from .mapping import MappingConfig
from .world import Cell, GridWorld, Pose, wrap_angle


# Distance (m) from the object's cell centre at which the gripper can reach it.
GRAB_RANGE = 0.2


class TransitionError(ValueError):
    """Raised when an event is not valid for the current phase."""


class TetherMode(Enum):
    AERIAL = "aerial"
    LANDING = "landing"
    GROUND = "ground"


@dataclass(frozen=True)
class TetherState:
    """Tether geometry: total length, entry offset, released length, hover height."""

    total_length: float    # full string length, m
    entry_offset: float    # carrier center-of-mass to hidden-space entry, m
    released: float        # currently released length, m
    hover_height: float    # carrier center-of-mass height, m

    def __post_init__(self):
        if self.hover_height <= 0:
            raise ValueError("hover_height must be positive")
        if self.entry_offset > self.total_length:
            raise ValueError("entry_offset cannot exceed total_length")
        if not 0.0 <= self.released <= self.total_length:
            raise ValueError("released length must be within [0, total_length]")


def mode_from_tether(state: TetherState) -> TetherMode:
    """Map released tether length to the operating mode.

    Zero means flying; anything at or beyond the entry offset means ground
    operations; everything in between is the landing descent (the sliver
    between hover height and entry offset belongs to landing, since the two
    are assumed nearly equal).
    """
    if state.released == 0.0:
        return TetherMode.AERIAL
    if state.released >= state.entry_offset:
        return TetherMode.GROUND
    return TetherMode.LANDING


class MissionPhase(Enum):
    AERIAL_EXPLORATION = "aerial_exploration"
    LANDING = "landing"
    HIDDEN_EXPLORATION = "hidden_exploration"
    OBJECT_TRACKING = "object_tracking"
    GRABBING = "grabbing"
    RETRACTING = "retracting"
    AERIAL_CONTINUE = "aerial_continue"


class MissionEvent(Enum):
    HIDDEN_SPACE_FOUND = "hidden_space_found"
    TOUCHDOWN = "touchdown"
    DETECTION = "detection"
    FRONTIERS_EXHAUSTED = "frontiers_exhausted"
    WITHIN_GRAB_RANGE = "within_grab_range"
    GRAB_COMPLETE = "grab_complete"
    RETRACT_COMPLETE = "retract_complete"


_TRANSITIONS = {
    (MissionPhase.AERIAL_EXPLORATION, MissionEvent.HIDDEN_SPACE_FOUND): MissionPhase.LANDING,
    (MissionPhase.LANDING, MissionEvent.TOUCHDOWN): MissionPhase.HIDDEN_EXPLORATION,
    (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION): MissionPhase.OBJECT_TRACKING,
    (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.FRONTIERS_EXHAUSTED): MissionPhase.RETRACTING,
    (MissionPhase.OBJECT_TRACKING, MissionEvent.WITHIN_GRAB_RANGE): MissionPhase.GRABBING,
    (MissionPhase.GRABBING, MissionEvent.GRAB_COMPLETE): MissionPhase.RETRACTING,
}


def step_mission(phase: MissionPhase, event: MissionEvent, *,
                 detection_conf: Optional[float] = None,
                 object_aboard: Optional[bool] = None,
                 detection_threshold: float = 0.95) -> Optional[MissionPhase]:
    """Advance the phase machine by one event.

    Returns the next phase, or None when the mission ends (retraction with the
    object aboard). Any (phase, event) pair outside the transition table is
    rejected with TransitionError and the state is left unchanged.
    """
    if event is MissionEvent.DETECTION:
        if phase is not MissionPhase.HIDDEN_EXPLORATION:
            raise TransitionError(f"{event.value} is not valid in {phase.value}")
        if detection_conf is None or detection_conf <= detection_threshold:
            raise TransitionError("detection event requires confidence above threshold")
        return MissionPhase.OBJECT_TRACKING
    if event is MissionEvent.RETRACT_COMPLETE:
        if phase is not MissionPhase.RETRACTING:
            raise TransitionError(f"{event.value} is not valid in {phase.value}")
        if object_aboard is None:
            raise TransitionError("retract_complete event requires object_aboard")
        return None if object_aboard else MissionPhase.AERIAL_CONTINUE
    nxt = _TRANSITIONS.get((phase, event))
    if nxt is None:
        raise TransitionError(f"{event.value} is not valid in {phase.value}")
    return nxt


def grab_maneuver(pose: Pose, target: Cell, motion: MotionConfig,
                  cell_size: float = 1.0) -> tuple[Pose, float]:
    """Scripted grab: spin 180 degrees, trigger the gripper, back into the object.

    Returns the pose at contact and the maneuver's time cost: the backup
    distance over max velocity (the spin takes no time).
    """
    tx = (target[0] + 0.5) * cell_size
    ty = (target[1] + 0.5) * cell_size
    d = math.hypot(tx - pose.x, ty - pose.y)
    if d > GRAB_RANGE + 1e-12:
        raise ValueError(f"target is {d:.3f} m away, beyond grab range {GRAB_RANGE} m")
    cost = d / motion.max_velocity
    final = Pose(tx, ty, wrap_angle(pose.heading + math.pi))
    return final, cost


@dataclass(frozen=True)
class MissionRecord:
    timestamp: float
    phase: MissionPhase
    event: MissionEvent


@dataclass
class MissionTrace:
    records: list[MissionRecord] = field(default_factory=list)
    exploration: Optional[ExplorationResult] = None
    final_phase: Optional[MissionPhase] = None  # None = mission ended with object
    object_retrieved: bool = False
    elapsed: float = 0.0


def run_mission(world: GridWorld, sensors: SensorSuite,
                params: CuriosityParams = CuriosityParams(),
                motion: MotionConfig = MotionConfig(),
                mapping_cfg: MappingConfig = MappingConfig(),
                budget: float = 600.0, detection_threshold: float = 0.95) -> MissionTrace:
    """Run one full simulated mission and return the timestamped trace.

    Aerial phases are scripted (zero-cost events); the hidden-space portion is
    a real curiosity-driven exploration, followed by tracking to within grab
    range, the grab, and the retraction drive back to the start cell.
    """
    trace = MissionTrace()
    phase: Optional[MissionPhase] = MissionPhase.AERIAL_EXPLORATION
    t = 0.0

    def fire(event: MissionEvent, **kwargs) -> None:
        nonlocal phase
        trace.records.append(MissionRecord(t, phase, event))
        phase = step_mission(phase, event, detection_threshold=detection_threshold, **kwargs)

    fire(MissionEvent.HIDDEN_SPACE_FOUND)
    fire(MissionEvent.TOUCHDOWN)

    result = explore_cdos(world, sensors, motion, budget, mapping_cfg, detection_threshold,
                          params)
    trace.exploration = result
    t += result.elapsed

    pose = result.trajectory[-1]
    if result.found:
        fire(MissionEvent.DETECTION, detection_conf=1.0)
        target = result.target_estimate
        tx, ty = world.cell_center(target)
        if math.hypot(tx - pose.x, ty - pose.y) > GRAB_RANGE:
            # The robot's own cell is free by virtue of standing on it, and the
            # object cell was positively sighted by the camera; an early
            # detection can leave both still unknown in the occupancy belief.
            cell = world.cell_of(pose.x, pose.y)
            path = plan_path(result.occupancy, cell, target, force_free=(cell, target))
            if path is not None:
                for step in path[1:]:
                    x, y = world.cell_center(step)
                    d = math.hypot(x - pose.x, y - pose.y)
                    if d < 1e-12:
                        continue
                    t += d / motion.max_velocity
                    pose = Pose(x, y, wrap_angle(math.atan2(y - pose.y, x - pose.x)))
                    if math.hypot(tx - pose.x, ty - pose.y) <= GRAB_RANGE:
                        break
            else:
                # belief too sparse to plan (early detection): servo straight
                # along the verified line of sight, stopping at grab range
                d = math.hypot(tx - pose.x, ty - pose.y)
                travel = d - GRAB_RANGE
                t += travel / motion.max_velocity
                frac = travel / d
                pose = Pose(pose.x + (tx - pose.x) * frac,
                            pose.y + (ty - pose.y) * frac,
                            wrap_angle(math.atan2(ty - pose.y, tx - pose.x)))
        fire(MissionEvent.WITHIN_GRAB_RANGE)
        pose, grab_cost = grab_maneuver(pose, target, motion, world.cell_size)
        t += grab_cost
        fire(MissionEvent.GRAB_COMPLETE)
    else:
        fire(MissionEvent.FRONTIERS_EXHAUSTED)

    home = world.cell_of(world.start.x, world.start.y)
    cell = world.cell_of(pose.x, pose.y)
    back = plan_path(result.occupancy, cell, home, force_free=(cell, home))
    if back is not None:
        t += path_cost(back, world.cell_size) / motion.max_velocity
    fire(MissionEvent.RETRACT_COMPLETE, object_aboard=result.found)
    trace.object_retrieved = result.found
    trace.final_phase = phase
    trace.elapsed = t
    return trace


def mission_log_lines(trace: MissionTrace) -> list[str]:
    """Line-delimited (timestamp, phase, event) records."""
    return [f"{r.timestamp!r} {r.phase.value} {r.event.value}" for r in trace.records]
