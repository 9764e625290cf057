import math

import numpy as np
import pytest

from curiogrid.world import (MapError, Pose, Zone, ZoneError, load_map, load_zones,
                             ray_cast, sample_zone_points, serialize_map, trace_ray,
                             wrap_angle)


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

    def test_round_trip_identity(self):
        text = make_map(["#####", "#..T#", "#.S.#", "#####"], cell_size=0.25)
        assert serialize_map(load_map(text)) == text


class TestRayCast:
    def test_empty_world_no_hit(self):
        world = empty_world(11)
        for angle in np.linspace(0.0, 2 * math.pi, 17):
            assert ray_cast(world, world.start, float(angle), 3.0) is None

    def test_wall_ahead_exact_distance(self):
        # start two cells left of a wall: face distance is 2.5 cells
        world = load_map(make_map(["......", ".S..#.", "......"]))
        assert ray_cast(world, world.start, 0.0, 5.0) == pytest.approx(2.5, abs=1e-12)

    def test_wall_behind_no_hit(self):
        world = load_map(make_map(["......", ".S..#.", "......"]))
        assert ray_cast(world, world.start, math.pi, 1.0) is None

    def test_border_counts_as_occupied(self):
        world = load_map(make_map(["...", ".S.", "..."]))
        # 1.5 cells from the start center to the right border
        assert ray_cast(world, world.start, 0.0, 5.0) == pytest.approx(1.5)

    def test_origin_outside_bounds(self):
        world = empty_world(5)
        with pytest.raises(ValueError, match="outside"):
            ray_cast(world, Pose(-1.0, 1.0, 0.0), 0.0, 2.0)

    def test_bad_max_range(self):
        world = empty_world(5)
        with pytest.raises(ValueError, match="max_range"):
            ray_cast(world, world.start, 0.0, 0.0)

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
            got = ray_cast(world, world.start, float(angle), 4.0)
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
            d0 = ray_cast(world, world.start, float(angle), 5.0)
            d1 = ray_cast(mirror, mirror.start, math.pi - float(angle), 5.0)
            if d0 is None:
                assert d1 is None
            else:
                assert d1 == pytest.approx(d0, abs=1e-9)

    def test_trace_ray_visits_only_free_cells(self):
        world = load_map(make_map(["....#", ".S...", "#...."], cell_size=0.5))
        visited, hit, dist = trace_ray(world, world.start.x, world.start.y, 0.1, 10.0)
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
