import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curiogrid.sensor import (CameraConfig, IrConfig, beam_angles, camera_observe,
                              detection_confidence, ir_scan, rays_per_fov)
from curiogrid.world import Pose, load_map, trace_ray


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
