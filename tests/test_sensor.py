import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curiogrid import sensor
from curiogrid.curiosity import visible_from
from curiogrid.explorer import local_frontiers
from curiogrid.mapping import Label
from curiogrid.sensor import (CameraConfig, IrConfig, beam_angles, camera_observe, detect,
                              detection_confidence, ir_scan, rays_per_fov, sense_cells,
                              wedge_cells)
from curiogrid.world import GridWorld, Pose, angle_diff, load_map, trace_ray, wrap_angle


def make_map(rows, cell_size=1.0, heading=0.0):
    return f"cellsize={cell_size!r} heading={heading!r}\n" + "\n".join(rows) + "\n"


@pytest.fixture
def open_world():
    rows = ["." * 11 for _ in range(11)]
    rows[5] = "." * 5 + "S" + "." * 5
    return load_map(make_map(rows))


@pytest.fixture
def wall_world():
    # flat wall one meter ahead of the start (wall face at x = 7.0)
    rows = ["......#...." for _ in range(11)]
    rows[5] = "....S.#...."
    return load_map(make_map(rows))


class TestConfigs:
    def test_default_ray_count_one_per_degree(self):
        assert IrConfig(math.radians(30), 2.0).ray_count == 31
        assert CameraConfig(math.radians(60), 2.0).ray_count == 61
        assert rays_per_fov(math.radians(1.0)) == 2

    def test_invalid_fov(self):
        with pytest.raises(ValueError):
            IrConfig(0.0, 2.0)
        with pytest.raises(ValueError):
            IrConfig(7.0, 2.0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            CameraConfig(1.0, -2.0)

    def test_default_conf_scale(self):
        cam = CameraConfig(math.radians(60), 2.0)
        assert cam.conf_scale == pytest.approx(0.38)

    def test_beam_angles_even_spacing(self):
        angles = beam_angles(0.0, math.radians(30), 31)
        assert len(angles) == 31
        diffs = np.diff(angles)
        assert np.allclose(diffs, math.radians(1.0))
        assert angles[0] == pytest.approx(-math.radians(15))
        assert angles[-1] == pytest.approx(math.radians(15))


class TestIrScan:
    def test_empty_world_all_misses(self, open_world):
        scan = ir_scan(open_world, open_world.start, IrConfig(math.radians(30), 2.0))
        assert all(not b.hit and b.distance == 2.0 for b in scan.beams)

    def test_wall_ahead_cosine_ranges(self, wall_world):
        cfg = IrConfig(math.radians(30), 2.0)
        scan = ir_scan(wall_world, wall_world.start, cfg)
        for beam in scan.beams:
            assert beam.hit
            want = 1.5 / math.cos(beam.angle)  # wall face 1.5 cells ahead
            assert beam.distance == pytest.approx(want, abs=1e-6)

    def test_wall_behind_not_seen(self, wall_world):
        cfg = IrConfig(math.radians(30), 2.0)
        pose = Pose(wall_world.start.x, wall_world.start.y, math.pi)
        scan = ir_scan(wall_world, pose, cfg)
        assert all(not b.hit for b in scan.beams)

    def test_ranges_never_exceed_max(self, wall_world):
        cfg = IrConfig(math.radians(270), 3.5)
        scan = ir_scan(wall_world, wall_world.start, cfg)
        assert all(b.distance <= 3.5 + 1e-12 for b in scan.beams)

    def test_pose_out_of_bounds(self, open_world):
        with pytest.raises(ValueError):
            ir_scan(open_world, Pose(99.0, 1.0, 0.0), IrConfig(1.0, 2.0))


class TestCameraObserve:
    def test_target_outside_wedge(self, open_world):
        world = open_world.with_target((5, 9))  # directly below the start
        cam = CameraConfig(math.radians(60), 6.0, 1.0)
        obs = camera_observe(world, world.start, cam)
        assert obs.detection is None
        assert obs.seen_free

    def test_conf_clamps_at_scale_distance(self, open_world):
        world = open_world.with_target((7, 5))  # 2 cells ahead
        cam = CameraConfig(math.radians(60), 6.0, conf_scale=2.0)
        obs = camera_observe(world, world.start, cam)
        assert obs.detection is not None
        assert obs.detection.conf == 1.0

    def test_conf_half_at_twice_scale(self, open_world):
        world = open_world.with_target((9, 5))  # 4 cells ahead
        cam = CameraConfig(math.radians(60), 6.0, conf_scale=2.0)
        obs = camera_observe(world, world.start, cam)
        assert obs.detection.conf == pytest.approx(0.5)
        assert obs.detection.distance == pytest.approx(4.0)

    def test_occluded_target_not_detected(self):
        rows = ["...........",
                "....S.#.T..",
                "..........."]
        world = load_map(make_map(rows))
        cam = CameraConfig(math.radians(60), 8.0, 2.0)
        obs = camera_observe(world, world.start, cam)
        assert obs.detection is None
        assert (6, 1) in obs.seen_blocked

    def test_target_beyond_range(self, open_world):
        world = open_world.with_target((9, 5))
        cam = CameraConfig(math.radians(60), 2.0, 1.0)
        assert camera_observe(world, world.start, cam).detection is None

    def test_seen_free_and_blocked_disjoint(self, wall_world):
        cam = CameraConfig(math.radians(120), 5.0, 1.0)
        obs = camera_observe(wall_world, wall_world.start, cam)
        assert not set(obs.seen_free) & set(obs.seen_blocked)
        assert all(wall_world.is_free(c) for c in obs.seen_free)
        assert all(not wall_world.is_free(c) for c in obs.seen_blocked)

    def test_matches_ir_coverage_with_equal_geometry(self, wall_world):
        fov, rng, count = math.radians(45), 3.0, 46
        cam = CameraConfig(fov, rng, 1.0, count)
        obs = camera_observe(wall_world, wall_world.start, cam)
        swept = set(obs.seen_free) | set(obs.seen_blocked)
        ir_cells = set()
        for angle in beam_angles(wall_world.start.heading, fov, count):
            visited, stop, t = trace_ray(wall_world.occupied, wall_world.cell_size,
                                         wall_world.start.x, wall_world.start.y, angle, rng)
            ir_cells.update(visited)
            if t <= rng and wall_world.in_bounds(stop):
                ir_cells.add(stop)
        assert swept == ir_cells

    def test_no_free_cell_beyond_block_on_any_ray(self, wall_world):
        cam = CameraConfig(math.radians(90), 6.0, 1.0)
        for angle in beam_angles(wall_world.start.heading, cam.fov, cam.ray_count):
            visited, stop, hit_dist = trace_ray(wall_world.occupied, wall_world.cell_size,
                                                wall_world.start.x, wall_world.start.y,
                                                angle, cam.max_range)
            if hit_dist > cam.max_range or not wall_world.in_bounds(stop):
                continue
            sx, sy = wall_world.start.x, wall_world.start.y
            for cell in visited:
                cx, cy = wall_world.cell_center(cell)
                assert math.hypot(cx - sx, cy - sy) <= hit_dist + wall_world.cell_size


@given(st.floats(min_value=1e-6, max_value=100.0), st.floats(min_value=1e-3, max_value=10.0))
def test_confidence_monotone_and_bounded(distance, scale):
    conf = detection_confidence(distance, scale)
    assert 0.0 <= conf <= 1.0
    assert detection_confidence(distance * 2.0, scale) <= conf


@st.composite
def sensing_cases(draw, walls=True):
    """A small world, a pose inside one of its free cells, a camera, and
    belief labels that are OCCUPIED exactly at the world's walls."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell_size = draw(st.sampled_from([0.5, 1.0]))
    flat = draw(st.lists(st.booleans() if walls else st.just(False),
                         min_size=width * height, max_size=width * height))
    occupied = np.array(flat, dtype=bool).reshape(height, width)
    sx, sy = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    occupied[sy, sx] = False
    # cell centres (where the explorer senses) and arbitrary offsets
    offset = st.sampled_from([0.5, 0.25]) | st.floats(0.01, 0.99)
    fx, fy = draw(offset), draw(offset)
    heading = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi])
                   | st.floats(0.0, 2 * math.pi, exclude_max=True))
    pose = Pose((sx + fx) * cell_size, (sy + fy) * cell_size, heading)
    cam = CameraConfig(draw(st.floats(math.radians(5.0), 2 * math.pi)),
                       draw(st.floats(0.3, 4.0)))
    unknown = np.array(draw(st.lists(st.booleans(), min_size=width * height,
                                     max_size=width * height))).reshape(height, width)
    labels = np.where(occupied, Label.OCCUPIED,
                      np.where(unknown, Label.UNKNOWN, Label.FREE)).astype(np.int8)
    cells = [(x, y) for y in range(height) for x in range(width) if not occupied[y, x]]
    world = GridWorld(width, height, cell_size, occupied, pose, draw(st.sampled_from(cells)))
    return world, pose, cam, labels


class TestSharedSensingRules:
    """The camera sweep and the wedge test have one owner in curiogrid.sensor;
    the explorer and the curiosity scoring reach the same answers through it."""

    @settings(max_examples=300, deadline=None)
    @given(sensing_cases())
    def test_perfect_belief_predicts_the_camera(self, case):
        world, pose, cam, labels = case
        # the spec walks beam by beam; a sweep lists its cells row-major
        seen = camera_observe(world, pose, cam).seen_free
        assert sorted(seen, key=lambda c: (c[1], c[0])) == visible_from(
            labels, world.cell_size, pose, cam)

    @settings(max_examples=300, deadline=None)
    @given(sensing_cases(walls=False))
    def test_detection_fires_exactly_inside_the_wedge(self, case):
        world, pose, cam, _ = case
        wedge = local_frontiers([world.target], pose, IrConfig(cam.fov, cam.max_range),
                                world.cell_size)
        assert (detect(world, pose, cam) is not None) == bool(wedge)


@st.composite
def wedge_boundary_cases(draw):
    """Cells and an IR fan whose range circle passes exactly through one cell
    center and whose two wedge edges pass through two others, as the scalar
    rule computes distance and bearing."""
    cell_size = draw(st.sampled_from([0.3, 0.5, 1.0]))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          min_size=3, max_size=40))
    pose = Pose(draw(st.floats(0.0, 10 * cell_size)), draw(st.floats(0.0, 10 * cell_size)),
                0.0)

    on_range, left, right = (_offset(draw(st.sampled_from(cells)), pose, cell_size)
                             for _ in range(3))
    max_range = math.hypot(*on_range)
    right_bearing = math.atan2(right[1], right[0])
    spread = wrap_angle(math.atan2(left[1], left[0]) - right_bearing)
    assume(max_range > 0.0 and spread > 2e-12)
    heading = wrap_angle(right_bearing + spread / 2.0)
    # the rule admits bearings up to fov / 2 + 1e-12 off the heading
    return cells, Pose(pose.x, pose.y, heading), IrConfig(spread - 2e-12, max_range), cell_size


def _offset(cell, pose, cell_size):
    """The offset from `pose` to the centre of `cell`, from whole cells: the
    cell delta from the pose's cell, less the pose's offset from its centre."""
    px, py = math.floor(pose.x / cell_size), math.floor(pose.y / cell_size)
    return ((cell[0] - px) * cell_size - (pose.x - (px + 0.5) * cell_size),
            (cell[1] - py) * cell_size - (pose.y - (py + 0.5) * cell_size))


def _wedge_rule(cell, pose, cfg, cell_size):
    """The wedge rule as `wedge_cells` documents it, in scalar math."""
    dx, dy = _offset(cell, pose, cell_size)
    d = math.hypot(dx, dy)
    return d <= cfg.max_range and (
        d < 1e-12 or abs(angle_diff(math.atan2(dy, dx), pose.heading)) <= cfg.fov / 2.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(wedge_boundary_cases())
def test_wedge_cells_match_the_scalar_rule_on_the_boundary(case):
    """Centers exactly on the range circle and on both wedge edges: a wedge
    filter whose distance or bearing differed from math.hypot or math.atan2
    in the last ulp (numpy's, say) would flip some of them."""
    cells, pose, cfg, cell_size = case
    assert wedge_cells(cells, pose, cfg, cell_size) == [
        c for c in cells if _wedge_rule(c, pose, cfg, cell_size)]


@pytest.mark.parametrize("cell_size", [0.25, 0.3])
def test_one_table_memo_serves_every_walk(cell_size, monkeypatch):
    # from one pose, at a cell centre and off it: sense_cells builds one
    # table for both fans, visible_from one, ir_scan none (it walks
    # trace_ray), and a second pass builds nothing
    builds = []
    build = sensor._fan_table
    monkeypatch.setattr(sensor, "_fan_table", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(sensor, "_FAN_TABLES", {})
    rows = ["#" * 12] + ["#" + "." * 10 + "#" for _ in range(10)] + ["#" * 12]
    rows[3] = "#...#..S...#"
    world = load_map(make_map(rows, cell_size))
    ir, cam = IrConfig(math.radians(30.0), 1.9), CameraConfig(math.radians(60.0), 2.0)
    for x, y, heading in ((4.5, 5.5, 0.3), (4.5, 5.5, -2.0), (4.2, 5.9, 0.3)):
        pose = Pose(x * cell_size, y * cell_size, heading)
        for built in (1, 0):
            held = len(builds)
            ir_scan(world, pose, ir)
            assert len(builds) == held
            sense_cells(sensor.fan_codes(world.occupied), cell_size, pose, ir, cam)
            assert len(builds) == held + built
            visible_from(world.occupied, cell_size, pose, cam)
            assert len(builds) == held + 2 * built


def test_sense_tables_share_the_memo_bound(monkeypatch):
    # at 0.3 m each of these origins, off its cell's centre, is a spot of its
    # own and gets its own sense and camera-sweep tables;
    # with a bound of about one spot's tables the memo empties often, never
    # holds more steps than the bound, and each walk equals one over a fresh
    # memo
    limit = 3000
    monkeypatch.setattr(sensor, "_FAN_TABLE_LIMIT", limit)
    rows = ["#" * 12] + ["#" + "." * 10 + "#" for _ in range(10)] + ["#" * 12]
    rows[3] = "#...#..S...#"
    world = load_map(make_map(rows, 0.3))
    codes = sensor.fan_codes(world.occupied)
    ir, cam = IrConfig(math.radians(30.0), 1.9), CameraConfig(math.radians(60.0), 2.0)
    memo, held = {}, set()
    for k in range(24):
        pose = Pose(0.4 + (0.37 * k) % 2.6, 0.4 + 0.11 * k, 0.7 * k)
        monkeypatch.setattr(sensor, "_FAN_TABLES", {})
        fresh = sense_cells(codes, 0.3, pose, ir, cam)
        swept = visible_from(world.occupied, 0.3, pose, cam)
        monkeypatch.setattr(sensor, "_FAN_TABLES", memo)
        cells, hits_at, seen_at = sense_cells(codes, 0.3, pose, ir, cam)
        assert cells.tolist() == fresh[0].tolist() and (hits_at, seen_at) == fresh[1:]
        assert visible_from(world.occupied, 0.3, pose, cam) == swept
        assert sum(t.beyond.size for t in memo.values()) <= limit
        held |= {t.ir for t in memo.values()}
    assert held == {0, ir.ray_count}
