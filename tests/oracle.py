"""A reference exploration loop built only from the per-scan spec.

`run` makes the moves `explorer.run_solo` makes, the slow way. A sense is one
`ir_scan` and one `camera_observe`, each fused cell by cell here: the IR
scan's cells as `scan_cells` finds them, the camera's as it lists them. A
decision classifies the whole occupancy map, lists every frontier
(`detect_frontiers`) and the IR wedge's (`local_frontiers`), searches the
start's whole free component with `_dijkstra` in fresh lists, picks with a
cdos or heading pick of its own, and logs `total_curiosity` and the
`path_cost` of the cell path. The cdos pick scores each candidate as
`select_frontier` does, over the cells one `trace_ray` per camera beam sees
against the believed walls. Every offset from a pose to a cell centre is
taken from whole cells (`_offset`), as the loop takes it.

It reaches none of the loop's fast paths: not `_fuse`, `sense_cells`,
`add_scan_evidence`, `add_observation_evidence`, `_decide`, `_wedge`, the
wedge stencil, `edge_labels`, `object_classes` or `mapping._edges`
(tests/test_oracle.py patches each to raise): it labels and classifies
through `classify()`, `classified()` and `total_curiosity`. `_dijkstra` in
fresh lists is shared: the loop runs it in reused ones. So a test that
compares a run with it checks the whole loop against its spec, not a path
against itself.

Two smaller references serve several test modules: `brute_force_cost`, a
path cost without `_dijkstra`, and `scored_selection`, the cdos argmax by a
literal sort of every candidate scored in full with `curiosity._loss_over`
over the lead cells of its camera sweep.
"""

import math

import numpy as np

from curiogrid.curiosity import (_loss_over, bayes_fuse, cell_curiosity, predict_observation,
                                 total_curiosity, visible_from)
from curiogrid.explorer import (ExplorationResult, InvariantError, StepRecord, _dijkstra,
                                detect_frontiers, local_frontiers, path_cost)
from curiogrid.mapping import (FREE, LOG_ODDS_CAP, OCCUPIED, UNKNOWN, ObjectMap,
                               OccupancyMap, classify_object_probabilities, logit,
                               probabilities_from_log_odds)
from curiogrid.sensor import beam_angles, camera_observe, ir_scan, scan_cells
from curiogrid.world import Pose, angle_diff, trace_ray, wrap_angle


def outcome(res):
    """What two runs are compared on: the trajectory, the steps, the elapsed
    time, the estimate (which gives the found flag) and both log-odds arrays."""
    return (res.trajectory, res.steps, res.elapsed, res.target_estimate,
            res.occupancy.log_odds.tobytes(), res.objects.log_odds.tobytes())


def _offset(cell_size, pose, cell):
    """The offset from `pose` to the centre of `cell`, from whole cells: the
    cell delta from the pose's cell, less the pose's offset from its centre."""
    px, py = math.floor(pose.x / cell_size), math.floor(pose.y / cell_size)
    return ((cell[0] - px) * cell_size - (pose.x - (px + 0.5) * cell_size),
            (cell[1] - py) * cell_size - (pose.y - (py + 0.5) * cell_size))


def _fuse_scan(occupancy, scan):
    """Add one IR scan's evidence to `occupancy`, cell by cell."""
    passed, hits = scan_cells(occupancy.width, occupancy.height, occupancy.cell_size, scan)
    for cells, p in ((passed, occupancy.cfg.p_miss), (hits, occupancy.cfg.p_hit)):
        for i in cells.tolist():
            occupancy.log_odds[i // occupancy.width, i % occupancy.width] += logit(p)


def _fuse_observation(objects, obs):
    """Add one camera observation's evidence to `objects`, cell by cell:
    a miss at every cell seen free but the detected one, and the detection's
    confidence, clamped to the log-odds cap, at the detected cell."""
    det = obs.detection
    for cx, cy in obs.seen_free:
        if det is None or (cx, cy) != det.cell:
            objects.log_odds[cy, cx] += logit(objects.cfg.p_miss_cam)
    if det is not None:
        low = 1.0 / (1.0 + math.exp(LOG_ODDS_CAP))
        objects.log_odds[det.cell[1], det.cell[0]] += logit(min(max(det.conf, low), 1.0 - low))


def _visible(labels, cell_size, pose, cam):
    """The cells the camera fan from `pose` sees free against the cells
    labelled OCCUPIED, one `trace_ray` per beam, in row-major order."""
    seen = set()
    for angle in beam_angles(pose.heading, cam.fov, cam.ray_count):
        visited, _, _ = trace_ray(labels == OCCUPIED, cell_size, pose.x, pose.y, angle,
                                  cam.max_range)
        seen.update(visited)
    return sorted(seen, key=lambda c: (c[1], c[0]))


def _lead_loss(raw, classified, labels, cfg, cell_size, current, candidate, cam, params):
    """The expected curiosity loss over the lead cells (raw probability above
    0.5) a view from `candidate` would see, summed in row-major order."""
    loss = 0.0
    for cx, cy in _visible(labels, cell_size, candidate, cam):
        p_raw = raw[cy, cx]
        c_now = cell_curiosity(classified[cy, cx], params)
        if not p_raw > 0.5 or c_now <= 0.0:
            continue
        d_now = math.hypot(*_offset(cell_size, current, (cx, cy)))
        d_next = math.hypot(*_offset(cell_size, candidate, (cx, cy)))
        if d_now <= 1e-12:
            continue
        p_evidence = 1.0 if d_next <= 1e-12 else predict_observation(p_raw, d_now, d_next)
        post = classify_object_probabilities(bayes_fuse(p_raw, p_evidence), cfg.lambda1,
                                             cfg.lambda2)
        loss += c_now - cell_curiosity(float(post), params)
    return loss


def _cdos_pick(frontiers, objects, occupancy, pose, cam, params):
    """The cdos pick: the most lead loss, then the least distance, then the
    first in row-major order; with no lead, every loss is 0."""
    raw, classified = objects.raw_probabilities(), objects.classified()
    labels, cs = occupancy.classify(), occupancy.cell_size
    scored = bool((raw > 0.5).any())

    def key(cell):
        dx, dy = _offset(cs, pose, cell)
        dist = math.hypot(dx, dy)
        loss = 0.0
        if scored:
            heading = pose.heading if dist < 1e-12 else math.atan2(dy, dx)
            loss = _lead_loss(raw, classified, labels, objects.cfg, cs, pose,
                              Pose((cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs, heading),
                              cam, params)
        return -loss, dist, cell[1] * occupancy.width + cell[0]
    best = min((key(cell), cell) for cell in frontiers)
    return best[1], -best[0][0]


def _heading_pick(frontiers, world, pose):
    """The baseline's pick: the least heading change, then the least
    distance, then the first in row-major order."""
    def key(cell):
        dx, dy = _offset(world.cell_size, pose, cell)
        d = math.hypot(dx, dy)
        turn = 0.0 if d < 1e-12 else abs(angle_diff(math.atan2(dy, dx), pose.heading))
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
        goal, loss = _cdos_pick(local, objects, occupancy, pose, sensors.camera, params)
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
    estimate = None
    settles, stalled, path, along = 1, 0, [], 0
    while True:
        _fuse_scan(occupancy, ir_scan(world, pose, sensors.ir))
        obs = camera_observe(world, pose, sensors.camera)
        _fuse_observation(objects, obs)
        det = obs.detection
        if det is not None and (det.conf > threshold or probabilities_from_log_odds(
                objects.log_odds[det.cell[1], det.cell[0]]) > threshold):
            estimate = det.cell
        if estimate is not None or elapsed > budget:
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
                dx, dy = _offset(cs, pose, (x, y))
                pose = Pose(pose.x, pose.y, wrap_angle(math.atan2(dy, dx)))
                trajectory.append(pose)
                continue
            along = 1
        x, y = path[along]
        if world.occupied[y, x]:
            raise InvariantError(f"planned move into occupied cell {(x, y)}")
        dx, dy = _offset(cs, pose, (x, y))
        step = math.hypot(dx, dy)
        heading = pose.heading if step < 1e-12 else wrap_angle(math.atan2(dy, dx))
        elapsed += step / motion.max_velocity
        pose = Pose(*world.cell_center((x, y)), heading)
        trajectory.append(pose)
    return ExplorationResult(occupancy, objects, elapsed, estimate, trajectory, steps)


def brute_force_cost(free, start, goal):
    """The least cost of an 8-connected path from `start` to `goal` over the
    `free` mask, or None: plain uniform-cost search with a scan-min
    frontier, no heap."""
    h, w = free.shape
    dist = {start: 0.0}
    done = set()
    while True:
        pending = [(d, c) for c, d in dist.items() if c not in done]
        if not pending:
            return None
        d, cell = min(pending)
        if cell == goal:
            return d
        done.add(cell)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = cell[0] + dx, cell[1] + dy
                if not (0 <= nx < w and 0 <= ny < h) or not free[ny, nx]:
                    continue
                nd = d + (math.sqrt(2.0) if dx and dy else 1.0)
                if nd < dist.get((nx, ny), math.inf):
                    dist[(nx, ny)] = nd


def scored_selection(frontiers, obj, occ, current, cam, params):
    """(cell, loss) of the cdos argmax over `frontiers`, each candidate
    scored in full by `_loss_over` over the lead cells (raw probability above
    0.5) its sweep (`visible_from`) sees, with the documented tie-breaks
    (least distance, then row-major index) by sorting."""
    raw = obj.raw_probabilities()
    classified = obj.classified()
    labels = occ.classify()
    cs = occ.cell_size
    rows = []
    for cell in frontiers:
        dx, dy = _offset(cs, current, cell)
        dist = math.hypot(dx, dy)
        heading = current.heading if dist < 1e-12 else math.atan2(dy, dx)
        candidate = Pose((cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs, heading)
        leads = [(x, y) for x, y in visible_from(labels, cs, candidate, cam) if raw[y, x] > 0.5]
        loss = _loss_over(raw, classified, leads, obj.cfg, cs, current, candidate, params)
        rows.append((-loss, dist, cell[1] * occ.width + cell[0], cell, loss))
    rows.sort()
    return rows[0][3], rows[0][4]
