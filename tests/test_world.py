import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curiogrid import sensor
from curiogrid.curiosity import visible_from
from curiogrid.explorer import explore_cdos
from curiogrid.harness import default_config, fixture_path
from curiogrid.mapping import Label, OccupancyMap, logit
from curiogrid.sensor import (Beam, CameraConfig, IrConfig, IrScan, beam_angles,
                              camera_observe, ir_scan, scan_cells, sense_cells)
from curiogrid.world import (TWO_PI, GridWorld, MapError, Pose, Zone, ZoneError, load_map,
                             load_zones, sample_zone_points, trace_ray, wrap_angle)


def make_map(rows, cell_size=1.0, heading=0.0):
    return f"cellsize={cell_size!r} heading={heading!r}\n" + "\n".join(rows) + "\n"


def empty_world(size=11, cell_size=1.0):
    rows = ["." * size for _ in range(size)]
    mid = size // 2
    rows[mid] = "." * mid + "S" + "." * (size - mid - 1)
    return load_map(make_map(rows, cell_size))


class TestLoadMap:
    def test_minimal_map(self):
        world = load_map(make_map(["...", ".S.", "..."]))
        assert world.width == 3 and world.height == 3
        assert not world.occupied.any()
        assert world.target is None
        assert world.cell_of(world.start.x, world.start.y) == (1, 1)

    def test_header_values(self):
        world = load_map(make_map([".S."], cell_size=0.25, heading=1.5))
        assert world.cell_size == 0.25
        assert world.start.heading == 1.5

    def test_multiple_targets_rejected(self):
        with pytest.raises(MapError, match="multiple targets"):
            load_map(make_map(["T.T", ".S.", "..."]))

    def test_ragged_rows_rejected(self):
        with pytest.raises(MapError, match="ragged"):
            load_map(make_map([".....", ".S.."]))

    def test_missing_header(self):
        with pytest.raises(MapError, match="header"):
            load_map("....\n.S..\n")

    def test_no_start_rejected(self):
        with pytest.raises(MapError, match="start"):
            load_map(make_map(["...", "...", "..."]))

    def test_multiple_starts_rejected(self):
        with pytest.raises(MapError, match="start"):
            load_map(make_map(["S.S"]))

    def test_unknown_character(self):
        with pytest.raises(MapError, match="unknown character"):
            load_map(make_map([".S.", ".X."]))

    def test_empty_text(self):
        with pytest.raises(MapError):
            load_map("   \n  ")

    @pytest.mark.parametrize("header, key", [
        ("cellsize=nan heading=0.0", "cellsize"),
        ("cellsize=inf heading=0.0", "cellsize"),
        ("cellsize=-0.5 heading=0.0", "cellsize"),
        ("cellsize=0.5 heading=nan", "heading"),
        ("cellsize=0.5 heading=inf", "heading"),
    ])
    def test_non_finite_header_rejected(self, header, key):
        with pytest.raises(MapError, match=key):
            load_map(header + "\n.S.\n")


def _hit_distance(world, origin, angle, max_range):
    """The distance `trace_ray` reports from `origin` to the first blocking
    boundary along `angle`, or None when nothing blocks it within max_range."""
    _, _, t = trace_ray(world.occupied, world.cell_size, origin.x, origin.y, angle, max_range)
    return t if t <= max_range else None


class TestRayCast:
    def test_empty_world_no_hit(self):
        world = empty_world(11)
        for angle in np.linspace(0.0, 2 * math.pi, 17):
            assert _hit_distance(world, world.start, float(angle), 3.0) is None

    def test_wall_ahead_exact_distance(self):
        # start two cells left of a wall: face distance is 2.5 cells
        world = load_map(make_map(["......", ".S..#.", "......"]))
        assert _hit_distance(world, world.start, 0.0, 5.0) == pytest.approx(2.5, abs=1e-12)

    def test_wall_behind_no_hit(self):
        world = load_map(make_map(["......", ".S..#.", "......"]))
        assert _hit_distance(world, world.start, math.pi, 1.0) is None

    def test_border_counts_as_occupied(self):
        world = load_map(make_map(["...", ".S.", "..."]))
        # 1.5 cells from the start center to the right border
        assert _hit_distance(world, world.start, 0.0, 5.0) == pytest.approx(1.5)

    def test_against_fine_step_oracle(self):
        rows = ["##########",
                "#........#",
                "#..##....#",
                "#..##..S.#",
                "#........#",
                "#.#......#",
                "##########"]
        world = load_map(make_map(rows, cell_size=0.5))
        for angle in np.linspace(0.0, 2 * math.pi, 73):
            got = _hit_distance(world, world.start, float(angle), 4.0)
            want = _sampling_oracle(world, world.start.x, world.start.y, float(angle), 4.0)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-6)

    def test_reflection_symmetry(self):
        rows = ["........",
                "..##....",
                "......#.",
                "...S....",
                ".#......",
                "........"]
        world = load_map(make_map(rows, cell_size=0.5))
        mirrored_rows = [r[::-1].replace("S", ".") for r in rows]
        sx = len(rows[0]) - 1 - 3
        mirrored_rows[3] = (mirrored_rows[3][:sx] + "S" + mirrored_rows[3][sx + 1:])
        mirror = load_map(make_map(mirrored_rows, cell_size=0.5))
        # offset keeps rays off exact lattice corners, where the struck cell
        # legitimately depends on tie-breaking
        for angle in np.linspace(0.0, 2 * math.pi, 49) + 0.0137:
            d0 = _hit_distance(world, world.start, float(angle), 5.0)
            d1 = _hit_distance(mirror, mirror.start, math.pi - float(angle), 5.0)
            if d0 is None:
                assert d1 is None
            else:
                assert d1 == pytest.approx(d0, abs=1e-9)

    def test_trace_ray_visits_only_free_cells(self):
        world = load_map(make_map(["....#", ".S...", "#...."], cell_size=0.5))
        visited, stop, t = trace_ray(world.occupied, world.cell_size, world.start.x,
                                     world.start.y, 0.1, 10.0)
        hit = stop if t <= 10.0 and world.in_bounds(stop) else None
        assert all(world.is_free(c) for c in visited)
        assert hit is None or world.occupied[hit[1], hit[0]]


def _sampling_oracle(world, ox, oy, angle, max_range, coarse=1e-4):
    """Scan the ray at fine steps, then bisect the straddling interval."""
    dx, dy = math.cos(angle), math.sin(angle)

    def blocked(t):
        x, y = ox + t * dx, oy + t * dy
        cx = math.floor(x / world.cell_size)
        cy = math.floor(y / world.cell_size)
        if not (0 <= cx < world.width and 0 <= cy < world.height):
            return True
        return bool(world.occupied[int(cy), int(cx)])

    t = 0.0
    prev = 0.0
    while t <= max_range:
        if blocked(t):
            lo, hi = prev, t
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if blocked(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = t
        t += coarse
    return None


class TestZones:
    def zone_world(self):
        rows = ["#####", "#...#", "#S..#", "#...#", "#####"]
        return load_map(make_map(rows))

    def test_parse_rectangles(self):
        world = self.zone_world()
        zones = load_zones("zone1 = 1,1,2,1\nzone2 = 1,2,1,3 3,1,3,3\n", world)
        assert zones[1].cells == frozenset({(1, 1), (2, 1)})
        assert (3, 2) in zones[2].cells

    def test_overlap_rejected(self):
        with pytest.raises(ZoneError, match="overlap"):
            load_zones("zone1 = 1,1,2,2\nzone2 = 2,2,3,3\n", self.zone_world())

    def test_occupied_cell_rejected(self):
        with pytest.raises(ZoneError, match="occupied"):
            load_zones("zone1 = 0,0,1,1\n", self.zone_world())

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ZoneError, match="outside"):
            load_zones("zone1 = 5,1,7,1\n", self.zone_world())

    def test_bad_zone_id(self):
        with pytest.raises(ZoneError, match="1..5"):
            load_zones("zone9 = 1,1,1,1\n", self.zone_world())

    def test_comments_and_blanks(self):
        zones = load_zones("# a comment\n\nzone3 = 1,1,1,1  # trailing\n", self.zone_world())
        assert set(zones) == {3}


class TestSampleZonePoints:
    def test_single_cell_zone(self):
        zone = Zone(1, frozenset({(4, 2)}))
        assert sample_zone_points(zone, 5, seed=3) == [(4, 2)] * 5

    def test_deterministic(self):
        zone = Zone(1, frozenset((x, y) for x in range(10) for y in range(3)))
        assert sample_zone_points(zone, 50, seed=11) == sample_zone_points(zone, 50, seed=11)

    def test_samples_stay_inside_zone(self):
        zone = Zone(2, frozenset((x, 0) for x in range(7)))
        assert set(sample_zone_points(zone, 100, seed=0)) <= set(zone.cells)

    def test_empty_zone_rejected(self):
        with pytest.raises(ZoneError, match="empty"):
            sample_zone_points(Zone(1, frozenset()), 1, seed=0)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            sample_zone_points(Zone(1, frozenset({(0, 0)})), 0, seed=0)

    def test_uniformity_three_sigma(self):
        # 10^4 draws over 100 cells: every count within 3 sigma of 100
        cells = frozenset((x, y) for x in range(10) for y in range(10))
        zone = Zone(1, cells)
        draws = sample_zone_points(zone, 10_000, seed=42)
        counts = {}
        for c in draws:
            counts[c] = counts.get(c, 0) + 1
        sigma = math.sqrt(10_000 * 0.01 * 0.99)
        for cell in cells:
            assert abs(counts.get(cell, 0) - 100) <= 3 * sigma


def test_wrap_angle_range():
    for a in (-7.0, -math.pi, 0.0, math.pi, 9.42, 2 * math.pi):
        w = wrap_angle(a)
        assert 0.0 <= w < 2 * math.pi


def test_with_target_keeps_world_immutable():
    world = empty_world(5)
    placed = world.with_target((1, 1))
    assert placed.target == (1, 1)
    assert world.target is None
    with pytest.raises(ValueError):
        world.occupied[0, 0] = True


def test_with_target_shares_the_wall_grid():
    world = empty_world(5)
    assert world.with_target((1, 1)).occupied is world.occupied
    assert world.with_target((1, 1)).with_target(None).occupied is world.occupied


# Reference oracle for trace_ray: the unbounded boundary-stepping generator and
# the three stop loops that walked it before the bounded walker replaced them.

def _grid_ray(ox, oy, angle, cell_size):
    dx = math.cos(angle)
    dy = math.sin(angle)
    cx = int(math.floor(ox / cell_size))
    cy = int(math.floor(oy / cell_size))
    # the boundaries right/left and below/above the origin: half a cell out
    # along an axis on which it sits at its cell's centre
    right, left = (cell_size / 2, -cell_size / 2) if ox == (cx + 0.5) * cell_size else (
        (cx + 1) * cell_size - ox, cx * cell_size - ox)
    below, above = (cell_size / 2, -cell_size / 2) if oy == (cy + 0.5) * cell_size else (
        (cy + 1) * cell_size - oy, cy * cell_size - oy)
    if dx > 0.0:
        step_x, t_max_x, t_dx = 1, right / dx, cell_size / dx
    elif dx < 0.0:
        step_x, t_max_x, t_dx = -1, left / dx, -cell_size / dx
    else:
        step_x, t_max_x, t_dx = 0, math.inf, math.inf
    if dy > 0.0:
        step_y, t_max_y, t_dy = 1, below / dy, cell_size / dy
    elif dy < 0.0:
        step_y, t_max_y, t_dy = -1, above / dy, -cell_size / dy
    else:
        step_y, t_max_y, t_dy = 0, math.inf, math.inf
    t = 0.0
    while True:
        yield cx, cy, t
        if t_max_x <= t_max_y:
            t = t_max_x
            t_max_x += t_dx
            cx += step_x
        else:
            t = t_max_y
            t_max_y += t_dy
            cy += step_y


def _oracle_trace(occupied, cell_size, ox, oy, angle, max_range):
    """(visited, hit_cell, hit_distance) against ground truth."""
    height, width = occupied.shape
    visited = []
    for cx, cy, t in _grid_ray(ox, oy, angle, cell_size):
        if t > max_range:
            return visited, None, None
        if not (0 <= cx < width and 0 <= cy < height):
            return visited, None, t
        if occupied[cy, cx]:
            return visited, (cx, cy), t
        visited.append((cx, cy))


def _oracle_beam_cells(width, height, cell_size, ox, oy, angle, length):
    """(passed, end) of one IR beam integrated into the occupancy map."""
    tol = 1e-9
    passed = []
    end = None
    for cx, cy, t in _grid_ray(ox, oy, angle, cell_size):
        if t > length + tol:
            break
        if not (0 <= cx < width and 0 <= cy < height):
            break
        if t >= length - tol:
            end = (cx, cy)
            break
        passed.append((cx, cy))
    return passed, end


def _oracle_evidence(width, height, cell_size, scan):
    """(free, hits) cell sets of one IR scan integrated into the occupancy map."""
    free, hits = set(), set()
    for beam in scan.beams:
        passed, end = _oracle_beam_cells(width, height, cell_size, scan.origin.x,
                                         scan.origin.y, beam.angle, beam.distance)
        free.update(passed)
        if beam.hit and end is not None:
            hits.add(end)
    return free - hits, hits


def _oracle_integrate(omap, scan):
    free, hits = _oracle_evidence(omap.width, omap.height, omap.cell_size, scan)
    for cx, cy in free:
        omap.log_odds[cy, cx] += logit(omap.cfg.p_miss)
    for cx, cy in hits:
        omap.log_odds[cy, cx] += logit(omap.cfg.p_hit)


def _oracle_visible(labels, cell_size, pose, cam):
    height, width = labels.shape
    blocked = labels == Label.OCCUPIED
    seen = set()
    for angle in beam_angles(pose.heading, cam.fov, cam.ray_count):
        for cx, cy, t in _grid_ray(pose.x, pose.y, angle, cell_size):
            if t > cam.max_range:
                break
            if not (0 <= cx < width and 0 <= cy < height):
                break
            if blocked[cy, cx]:
                break
            seen.add((cx, cy))
    return sorted(seen, key=lambda c: (c[1], c[0]))  # row-major, as visible_from lists them


@st.composite
def _ray_cases(draw):
    width = draw(st.integers(1, 6))
    height = draw(st.integers(1, 6))
    cell_size = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    codes = np.array(draw(st.lists(st.integers(0, 2), min_size=width * height,
                                   max_size=width * height)), dtype=np.int8)
    labels = codes.reshape(height, width)
    ix, iy = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    offset = st.one_of(st.just(0.5), st.just(0.0), st.floats(0.0, 0.99))
    ox, oy = (ix + draw(offset)) * cell_size, (iy + draw(offset)) * cell_size
    angle = draw(st.one_of(st.integers(-8, 16).map(lambda k: k * math.pi / 4.0),
                           st.integers(-8, 16).map(lambda k: math.radians(45.0 * k)),
                           st.floats(-10.0, 10.0)))
    # Either a free range or exactly the distance at which the walk enters
    # its k-th cell, i.e. a range ending on a cell boundary.
    k = draw(st.integers(1, 12))
    boundary = next(itertools.islice(_grid_ray(ox, oy, angle, cell_size), k, None))[2]
    max_range = draw(st.one_of(st.floats(0.01, 8.0),
                               st.just(boundary if boundary > 0.0 else cell_size)))
    return labels, cell_size, ox, oy, angle, max_range


@settings(max_examples=400, deadline=None)
@given(_ray_cases(), st.booleans())
def test_trace_ray_matches_grid_ray_oracle(case, hit):
    labels, cell_size, ox, oy, angle, max_range = case
    height, width = labels.shape
    occupied = labels == Label.OCCUPIED

    visited, stop, t = trace_ray(occupied, cell_size, ox, oy, angle, max_range)
    want_visited, want_hit, want_dist = _oracle_trace(occupied, cell_size, ox, oy,
                                                      angle, max_range)
    walk = list(itertools.islice(_grid_ray(ox, oy, angle, cell_size), len(visited) + 1))
    assert [(cx, cy) for cx, cy, _ in walk] == visited + [stop]
    assert walk[-1][2] == t
    assert visited == want_visited
    assert (t if t <= max_range else None) == want_dist
    in_bounds = 0 <= stop[0] < width and 0 <= stop[1] < height
    assert (stop if t <= max_range and in_bounds else None) == want_hit

    free_start = occupied.copy()
    free_start[int(math.floor(oy / cell_size)), int(math.floor(ox / cell_size))] = False
    world = GridWorld(width, height, cell_size, free_start, Pose(ox, oy, 0.0))
    assert _hit_distance(world, world.start, angle, max_range) == _oracle_trace(
        free_start, cell_size, ox, oy, angle, max_range)[2]

    pose = Pose(ox, oy, angle)
    cam = CameraConfig(math.radians(50.0), max_range, 1.0, 5)
    assert visible_from(labels, cell_size, pose, cam) == _oracle_visible(
        labels, cell_size, pose, cam)

    scans = [IrScan(pose, tuple(Beam(a, max_range, hit)
                                for a in beam_angles(angle, math.radians(90.0), 7))),
             ir_scan(world, pose, IrConfig(math.radians(90.0), max_range, 7))]
    for scan in scans:
        got = OccupancyMap(width, height, cell_size)
        want = OccupancyMap(width, height, cell_size)
        got.integrate_scan(scan)
        _oracle_integrate(want, scan)
        assert np.array_equal(got.log_odds, want.log_odds)


# Fan walks against the spec: every consumer of the fan walk must equal the
# per-beam trace_ray loop that is its oracle.

def _fan_walk(blocked, cell_size, ox, oy, angles, max_range):
    """The fan table walk of the beams at `angles` from (ox, oy) over the
    `blocked` mask, step by step, as `sense_cells` walks its tables: one
    row per beam, one column per step, the row-major lattice index of the
    cell each step enters and whether it enters it beyond the range; and
    the step at which each beam stops. Entries after the stop are
    meaningless."""
    height, width = blocked.shape
    cx, cy, spot = sensor._spot(width, height, cell_size, ox, oy)
    table = sensor._fan_table(*spot, width, height, angles, [max_range] * len(angles))
    _, stops = sensor._stops(sensor.fan_codes(blocked), table, cx, cy)
    return table.window % table.size + (table.low + cy * width + cx), table.beyond, stops


def _oracle_beams(world, pose, angles, max_range):
    """ir_scan's beams, one `_oracle_trace` walk each: a beam that stops
    within range, at a wall or at the lattice border, hits there."""
    beams = []
    for angle in angles:
        _, _, dist = _oracle_trace(world.occupied, world.cell_size, pose.x, pose.y, angle,
                                   max_range)
        beams.append(Beam(angle, max_range, False) if dist is None
                     else Beam(angle, dist, True))
    return tuple(beams)


def _oracle_sweep(blocked, cell_size, pose, cam):
    """The camera fan's seen-free cells over the `blocked` mask, one
    trace_ray walk per beam, in row-major order."""
    seen_free = set()
    for angle in beam_angles(pose.heading, cam.fov, cam.ray_count):
        visited, _, _ = trace_ray(blocked, cell_size, pose.x, pose.y, angle, cam.max_range)
        seen_free.update(visited)
    return sorted(seen_free, key=lambda c: (c[1], c[0]))


def _flat_set(cells, width):
    return {cy * width + cx for cx, cy in cells}


# Rays at atan2(p, q) from a cell centre cross lattice corners exactly: their
# walks enter two cells at the same distance.
_CORNER_ANGLES = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda pq: pq != (0, 0)).map(lambda pq: math.atan2(*pq))


@st.composite
def _fan_cases(draw):
    width = draw(st.integers(1, 10))
    height = draw(st.integers(1, 10))
    cell_size = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25, 0.1]))
    occupied = np.array(draw(st.lists(st.booleans(), min_size=width * height,
                                      max_size=width * height))).reshape(height, width)
    ix, iy = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    offset = st.one_of(st.just(0.5), st.just(0.0), st.floats(0.0, 0.99))
    ox, oy = (ix + draw(offset)) * cell_size, (iy + draw(offset)) * cell_size
    occupied[int(math.floor(oy / cell_size)), int(math.floor(ox / cell_size))] = False
    heading = draw(st.one_of(st.integers(-8, 16).map(lambda k: k * math.pi / 4.0),
                             _CORNER_ANGLES, st.floats(-10.0, 10.0)))
    fov = draw(st.one_of(st.just(TWO_PI), st.floats(0.01, TWO_PI)))
    count = draw(st.integers(2, 24))
    max_range = draw(st.one_of(st.floats(0.01, 12.0 * cell_size), st.just(1e6)))
    world = GridWorld(width, height, cell_size, occupied, Pose(ox, oy, heading))
    return world, world.start, fov, count, max_range


@settings(max_examples=300, deadline=None)
@given(_fan_cases(), st.data())
def test_fan_walk_matches_trace_ray(case, data):
    world, pose, fov, count, max_range = case
    width, height, cs = world.width, world.height, world.cell_size
    cam = CameraConfig(fov, max_range, 1.0, count)
    ir = IrConfig(fov, max_range, count)

    assert visible_from(world.occupied, cs, pose, cam) == _oracle_sweep(
        world.occupied, cs, pose, cam)
    labels = np.where(world.occupied, Label.OCCUPIED, Label.FREE)
    assert visible_from(labels, cs, pose, cam) == _oracle_visible(labels, cs, pose, cam)
    angles = beam_angles(pose.heading, fov, count)
    assert ir_scan(world, pose, ir).beams == _oracle_beams(world, pose, angles, max_range)

    # The heading itself is walked too, so that corner angles are walked
    # exactly. Besides the measured scan, a made-up one whose beams end on
    # the k-th cell boundary, or up to 1e-9 off it, or at max_range.
    angles = [pose.heading] + angles
    # each beam's cells before its stop, its stop cell and whether it
    # entered it beyond the range, also when it stopped there
    flat, beyond, stops = _fan_walk(world.occupied, cs, pose.x, pose.y, angles, max_range)
    for row, angle in enumerate(angles):
        visited, (sx, sy), t = trace_ray(world.occupied, cs, pose.x, pose.y, angle, max_range)
        stop = stops[row]
        assert flat[row, :stop].tolist() == [y * width + x for x, y in visited]
        assert beyond[row, stop] == (t > max_range)
        if 0 <= sx < width and 0 <= sy < height:
            assert flat[row, stop] == sy * width + sx
    ends = data.draw(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 12)),
                  st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10]), st.booleans()),
        min_size=len(angles), max_size=len(angles)))
    made_up = []
    for angle, (k, delta, hit) in zip(angles, ends):
        if k is None:
            made_up.append(Beam(angle, max_range, hit))
        else:
            t = next(itertools.islice(_grid_ray(pose.x, pose.y, angle, cs), k, None))[2]
            made_up.append(Beam(angle, t + delta, hit))
    for scan in (IrScan(pose, _oracle_beams(world, pose, angles, max_range)),
                 IrScan(pose, tuple(made_up))):
        free, hits = scan_cells(width, height, cs, scan)
        want_free, want_hits = _oracle_evidence(width, height, cs, scan)
        assert sorted(free.tolist()) == sorted(_flat_set(want_free, width))
        assert sorted(hits.tolist()) == sorted(_flat_set(want_hits, width))

    # the explorer's sensing evidence, both fans in one walk
    _assert_sense_cells(world, pose, ir, cam)


def _assert_sense_cells(world, pose, ir, cam):
    """`sense_cells` is the IR fan's `scan_cells` of its `ir_scan`, then the
    camera's seen-free cells, each part ascending, in one int32 array."""
    width, height, cs = world.width, world.height, world.cell_size
    cells, hits_at, seen_at = sense_cells(sensor.fan_codes(world.occupied), cs, pose, ir, cam)
    assert cells.dtype == np.int32
    free, hits = scan_cells(width, height, cs, ir_scan(world, pose, ir))
    assert cells[:hits_at].tolist() == free.tolist()
    assert cells[hits_at:seen_at].tolist() == hits.tolist()
    seen = [y * width + x for x, y in camera_observe(world, pose, cam).seen_free]
    assert cells[seen_at:].tolist() == sorted(seen)


@pytest.mark.parametrize("cell_size", [0.25, 0.3])
def test_sense_cells_match_the_spec_along_a_cdos_run(cell_size):
    # every pose of one cdos run on sparse.map, at a power-of-two cell size
    # and at one that is not
    text = fixture_path("sparse.map").read_text().split("\n", 1)[1]
    world = load_map(f"cellsize={cell_size!r} heading=0.0\n" + text)
    cfg = default_config()
    sensors = cfg.sensor_suite(cfg.alphas[0], cfg.betas[0])
    result = explore_cdos(world, sensors)
    assert len(result.trajectory) > 100
    for pose in result.trajectory:
        _assert_sense_cells(world, pose, sensors.ir, sensors.camera)


@st.composite
def _fan_geometry(draw, cell_size):
    """One fan's fov, range and ray count, drawn on their own."""
    fov = draw(st.one_of(st.just(TWO_PI), st.floats(0.01, TWO_PI)))
    max_range = draw(st.one_of(st.floats(0.01, 12.0 * cell_size), st.just(1e6)))
    return fov, max_range, draw(st.integers(2, 24))


@settings(max_examples=300, deadline=None)
@given(_fan_cases(), st.data())
def test_sense_cells_with_unequal_fans(case, data):
    # the IR and the camera fan of one sense drawn apart, so that the two
    # walks differ in beams, steps and window; each sense also walks the
    # other walls of the same lattice over the tables it left
    world, pose = case[:2]
    cs = world.cell_size
    ir_fov, ir_range, ir_count = data.draw(_fan_geometry(cs))
    cam_fov, cam_range, cam_count = data.draw(_fan_geometry(cs))
    ir = IrConfig(ir_fov, ir_range, ir_count)
    cam = CameraConfig(cam_fov, cam_range, 1.0, cam_count)
    other = world.occupied.copy()
    other[data.draw(st.integers(0, world.height - 1)), :] ^= True
    other[int(math.floor(pose.y / cs)), int(math.floor(pose.x / cs))] = False
    for occupied in (world.occupied, other, world.occupied):
        _assert_sense_cells(GridWorld(world.width, world.height, cs, occupied, pose),
                            pose, ir, cam)


def test_scan_evidence_hit_at_exact_corner_is_the_free_cell():
    # From the centre of (0, 0), the ray at atan2(1, 3) enters a cell by an x
    # step and the next by a y step at exactly the same distance.
    angle = math.atan2(1.0, 3.0)
    walk = list(itertools.islice(_grid_ray(0.5, 0.5, angle, 1.0), 12))
    k = next(i for i in range(1, len(walk)) if walk[i][2] == walk[i - 1][2])
    (ax, ay, _), (bx, by, t) = walk[k - 1], walk[k]
    occupied = np.zeros((by + 2, bx + 2), dtype=bool)
    occupied[by, bx] = True
    world = GridWorld(bx + 2, by + 2, 1.0, occupied, Pose(0.5, 0.5, angle))
    scan = IrScan(world.start, _oracle_beams(world, world.start, [angle], 10.0))
    assert scan.beams[0].distance == t

    free, hits = scan_cells(world.width, world.height, 1.0, scan)
    assert hits.tolist() == [ay * world.width + ax]
    assert ay * world.width + ax not in free.tolist()
    want_free, _ = _oracle_evidence(world.width, world.height, 1.0, scan)
    assert free.tolist() == sorted(_flat_set(want_free, world.width))


def test_fan_table_far_range_capped_at_lattice_extent():
    world = load_map(fixture_path("sparse.map").read_text())
    pose = Pose(world.start.x, world.start.y, 0.3)
    cam = CameraConfig(TWO_PI, 1e6, 1.0, 90)
    sensor._FAN_TABLES.clear()
    assert visible_from(world.occupied, world.cell_size, pose, cam) == _oracle_sweep(
        world.occupied, world.cell_size, pose, cam)
    angles = beam_angles(pose.heading, cam.fov, cam.ray_count)
    assert ir_scan(world, pose, IrConfig(TWO_PI, 1e6, 90)).beams == _oracle_beams(
        world, pose, angles, 1e6)
    (table,) = sensor._FAN_TABLES.values()
    assert table.beyond.shape[0] == 90
    assert table.beyond.shape[1] <= world.width + world.height + 2


@pytest.mark.parametrize("cell_size", [1.0, 0.3])
def test_fan_walk_range_stop_as_trace_ray(cell_size):
    # On an open lattice every beam stops by range: its stop is the step
    # past the range that trace_ray takes, wherever the origin lies in its
    # cell, even when the last step within range nearly reaches it.
    blocked = np.zeros((12, 12), dtype=bool)
    angles = [k * math.pi / 4.0 for k in range(8)] + [0.3, 1.2]
    for fraction in (0.05, 0.5, 0.95):
        origin = (5 + fraction) * cell_size
        for cells in (1.7, 2.2, 3.96):
            max_range = cells * cell_size
            _, beyond, stops = _fan_walk(blocked, cell_size, origin, origin, angles,
                                         max_range)
            for row, angle in enumerate(angles):
                _, _, t = trace_ray(blocked, cell_size, origin, origin, angle, max_range)
                assert t > max_range
                assert beyond[row, stops[row]]


def test_fan_walk_overflowing_crossings_as_trace_ray():
    # a beam 1e-308 off the x axis crosses y boundaries about 1e308 apart, so
    # their running sum overflows to inf, as trace_ray's does, and silently
    blocked = np.zeros((5, 5), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat, beyond, stops = _fan_walk(blocked, 1.0, 2.5, 2.5, [1e-308], 1e6)
    visited, _, t = trace_ray(blocked, 1.0, 2.5, 2.5, 1e-308, 1e6)
    stop = stops[0]
    assert flat[0, :stop].tolist() == [y * 5 + x for x, y in visited]
    assert beyond[0, stop] == (t > 1e6)


@pytest.mark.parametrize("walk", ["scan_cells", "visible_from", "sense_cells"])
def test_fan_origin_outside_lattice_rejected(walk):
    pose = Pose(5.0, 1.0, 0.0)
    blocked = np.zeros((3, 3), dtype=bool)
    ir, cam = IrConfig(math.radians(30.0), 1.0), CameraConfig(math.radians(60.0), 1.0)
    calls = {
        "scan_cells": lambda: scan_cells(3, 3, 1.0, IrScan(pose, (Beam(0.0, 1.0, True),))),
        "visible_from": lambda: visible_from(blocked, 1.0, pose, cam),
        "sense_cells": lambda: sense_cells(sensor.fan_codes(blocked), 1.0, pose, ir, cam),
    }
    with pytest.raises(ValueError, match="fan origin outside the lattice"):
        calls[walk]()
