"""A reference exploration loop built only from the per-scan spec.

`run` makes the moves `explorer.run_solo` makes, the slow way. A sense is one
`ir_scan` and one `camera_observe`, fused by `integrate_scan` and
`integrate_observation`. A decision classifies the whole occupancy map,
lists every frontier (`detect_frontiers`) and the IR wedge's
(`local_frontiers`), searches the start's whole free component with
`_dijkstra` in fresh lists, picks with `select_frontier` or a heading pick of
its own, and logs `total_curiosity` and the `path_cost` of the cell path.

It imports none of the loop's fast paths: not `_fuse`, `sense_cells`,
`_Search`, `_decide`, `_wedge`, `edge_labels` or `mapping._edges`. So a
test that compares a run with it checks the whole loop against its spec,
not a path against itself.
"""

import math

import numpy as np

from curiogrid.curiosity import select_frontier, total_curiosity
from curiogrid.explorer import (ExplorationResult, InvariantError, StepRecord, _dijkstra,
                                detect_frontiers, local_frontiers, path_cost)
from curiogrid.mapping import (FREE, OCCUPIED, UNKNOWN, ObjectMap, OccupancyMap,
                               probabilities_from_log_odds)
from curiogrid.sensor import camera_observe, ir_scan
from curiogrid.world import Pose, angle_diff, wrap_angle


def outcome(res):
    """What two runs are compared on: the trajectory, the steps, the elapsed
    time, the found flag, the estimate and both log-odds arrays."""
    return (res.trajectory, res.steps, res.elapsed, res.found, res.target_estimate,
            res.occupancy.log_odds.tobytes(), res.objects.log_odds.tobytes())


def _heading_pick(frontiers, world, pose):
    """The baseline's pick: the least heading change, then the least
    distance, then the first in row-major order."""
    def key(cell):
        x, y = world.cell_center(cell)
        d = math.hypot(x - pose.x, y - pose.y)
        turn = 0.0 if d < 1e-12 else abs(angle_diff(math.atan2(y - pose.y, x - pose.x),
                                                    pose.heading))
        return turn, d, cell[1] * world.width + cell[0]
    return min(frontiers, key=key), 0.0, "heading"


def _decide(world, labels, here, pose, sensors, params, objects, occupancy, method):
    """(goal, loss, mode, cell path) of one decision, or None when no
    frontier is reachable: the pick among the reachable frontiers of the IR
    wedge, else the reachable frontier of least (dist, row-major index)."""
    width = world.width + 2

    def index(cell):
        return (cell[1] + 1) * width + cell[0] + 1

    free = np.pad(labels == FREE, 1).ravel().tobytes()
    dist, parents, _ = _dijkstra(free, width, index(here), world.cell_size)
    frontiers = detect_frontiers(occupancy)
    reachable = [c for c in frontiers if dist[index(c)] < math.inf]
    if not reachable:
        return None
    local = [c for c in local_frontiers(frontiers, pose, sensors.ir, world.cell_size)
             if dist[index(c)] < math.inf]
    if not local:
        goal, loss, mode = min(reachable, key=lambda c: (dist[index(c)], index(c))), 0.0, \
            "nearest_global"
    elif method == "cdos":
        goal, loss = select_frontier(local, objects, occupancy, pose, sensors.camera, params)
        mode = "curiosity"
    else:
        goal, loss, mode = _heading_pick(local, world, pose)
    chain = [index(goal)]
    while chain[-1] != index(here):
        chain.append(parents[chain[-1]])
    return goal, loss, mode, [(i % width - 1, i // width - 1) for i in reversed(chain)]


def run(world, method, sensors, motion, budget, mapping_cfg, threshold, params):
    """The `method` run ("cdos" or "baseline") in `world`; the settings are
    those `explorer.run_solo` takes, in its order, without the pick."""
    cs = world.cell_size
    occupancy = OccupancyMap(world.width, world.height, cs, mapping_cfg)
    objects = ObjectMap(world.width, world.height, cs, mapping_cfg)
    pose, elapsed, trajectory, steps = world.start, 0.0, [world.start], []
    found, estimate = False, None
    settles, stalled, path, along = 1, 0, [], 0
    while True:
        occupancy.integrate_scan(ir_scan(world, pose, sensors.ir))
        obs = camera_observe(world, pose, sensors.camera)
        objects.integrate_observation(obs)
        det = obs.detection
        if det is not None and (det.conf > threshold or probabilities_from_log_odds(
                objects.log_odds[det.cell[1], det.cell[0]]) > threshold):
            found, estimate = True, det.cell
        if found or elapsed > budget:
            break
        labels = occupancy.classify()
        here = world.cell_of(pose.x, pose.y)
        if settles < 9:  # sense in place until the start cell is believed free
            if labels[here[1], here[0]] != FREE:
                settles += 1
                continue
            settles = 9
        along += 1
        if along >= len(path) or any(labels[y, x] == OCCUPIED for x, y in path[along:]):
            decision = _decide(world, labels, here, pose, sensors, params, objects,
                               occupancy, method)
            if decision is None:
                break
            goal, loss, mode, path = decision
            stalled = stalled + 1 if goal == here else 0
            if stalled > 64:
                break
            steps.append(StepRecord(len(steps), pose, goal, loss,
                                    total_curiosity(objects, params), path_cost(path, cs),
                                    elapsed, "rotate" if stalled else mode))
            if stalled:  # face the frontier's first unknown 4-neighbour
                x, y = next(((goal[0] + dx, goal[1] + dy)
                             for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1))
                             if 0 <= goal[0] + dx < world.width
                             and 0 <= goal[1] + dy < world.height
                             and labels[goal[1] + dy, goal[0] + dx] == UNKNOWN))
                cx, cy = world.cell_center((x, y))
                pose = Pose(pose.x, pose.y, wrap_angle(math.atan2(cy - pose.y, cx - pose.x)))
                trajectory.append(pose)
                continue
            along = 1
        x, y = path[along]
        if world.occupied[y, x]:
            raise InvariantError(f"planned move into occupied cell {(x, y)}")
        cx, cy = world.cell_center((x, y))
        step = math.hypot(cx - pose.x, cy - pose.y)
        heading = pose.heading if step < 1e-12 else wrap_angle(
            math.atan2(cy - pose.y, cx - pose.x))
        elapsed += step / motion.max_velocity
        pose = Pose(cx, cy, heading)
        trajectory.append(pose)
    return ExplorationResult(occupancy, objects, elapsed, found, estimate, trajectory, steps)
