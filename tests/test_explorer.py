import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curiogrid import explorer, harness, sensor
from curiogrid.curiosity import CuriosityParams, curiosity_of, total_curiosity
from curiogrid.explorer import (MotionConfig, RunSettings, SensorSuite, _cell, _decide,
                                _dijkstra, _index, _padded, detect_frontiers, explore_cdos,
                                explore_rapid_frontier, local_frontiers, path_cost,
                                plan_path)
from curiogrid.harness import default_config, fixture_path, run_zone_experiment, steps_jsonl
from curiogrid.mapping import Label, MappingConfig, ObjectMap, OccupancyMap, logit, quantize
from curiogrid.sensor import CameraConfig, Detection, IrConfig, camera_observe, ir_scan
from curiogrid.world import GridWorld, Pose, load_map

from oracle import brute_force_cost, outcome


def make_map(rows, cell_size=0.5, heading=0.0):
    return f"cellsize={cell_size!r} heading={heading!r}\n" + "\n".join(rows) + "\n"


def suite(beta=30.0, alpha=60.0, rng=2.0, eta=1.9):
    return SensorSuite(IrConfig(math.radians(beta), rng),
                       CameraConfig(math.radians(alpha), rng, eta))


def run_settings(pick, sensors=None, **changes):
    """The settings of a run with `sensors` (else `suite()`) and the method
    whose frontier pick is `pick`."""
    (method,) = [name for name, p in explorer._PICKS.items() if p is pick]
    return RunSettings(sensors or suite(), method=method, **changes)


class TestDetectFrontiers:
    def test_fully_unknown_map(self):
        occ = OccupancyMap(5, 5, 1.0)
        assert detect_frontiers(occ) == []

    def test_fully_explored_map(self):
        occ = OccupancyMap(5, 5, 1.0)
        occ.log_odds[:] = logit(0.05)
        assert detect_frontiers(occ) == []

    def test_free_disk_ring_matches_neighbor_scan(self):
        occ = OccupancyMap(11, 11, 1.0)
        for y in range(11):
            for x in range(11):
                if math.hypot(x - 5, y - 5) <= 3.0:
                    occ.log_odds[y, x] = logit(0.05)
        got = detect_frontiers(occ)
        labels = occ.classify()
        want = []
        for y in range(11):
            for x in range(11):
                if labels[y, x] != Label.FREE:
                    continue
                for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < 11 and 0 <= ny < 11 and labels[ny, nx] == Label.UNKNOWN:
                        want.append((x, y))
                        break
        assert got == want
        assert got  # the ring must be non-empty

    def test_row_major_order(self):
        occ = OccupancyMap(6, 6, 1.0)
        occ.log_odds[2, 1:4] = logit(0.05)
        cells = detect_frontiers(occ)
        assert cells == sorted(cells, key=lambda c: (c[1], c[0]))


class TestLocalFrontiers:
    def test_full_fov_is_range_filter(self):
        frontiers = [(0, 0), (3, 0), (0, 3), (5, 5)]
        pose = Pose(0.5, 0.5, 0.0)
        got = local_frontiers(frontiers, pose, IrConfig(2 * math.pi, 3.0), 1.0)
        want = [c for c in frontiers
                if math.hypot(c[0] + 0.5 - pose.x, c[1] + 0.5 - pose.y) <= 3.0]
        assert got == want

    def test_angular_exclusion_behind(self):
        pose = Pose(5.5, 5.5, 0.0)
        got = local_frontiers([(2, 5)], pose, IrConfig(math.radians(30), 5.0), 1.0)
        assert got == []

    def test_radial_boundary(self):
        pose = Pose(0.5, 0.5, 0.0)
        cfg = IrConfig(math.radians(30), 2.0)
        assert local_frontiers([(2, 0)], pose, cfg, 1.0) == [(2, 0)]   # exactly 2.0 m
        assert local_frontiers([(3, 0)], pose, cfg, 1.0) == []         # 3.0 m away

    def test_own_cell_always_local(self):
        pose = Pose(1.5, 1.5, 2.2)
        assert local_frontiers([(1, 1)], pose, IrConfig(math.radians(10), 1.0), 1.0) == [(1, 1)]


def known_free_map(rows, cell_size=1.0):
    """OccupancyMap whose belief mirrors an ASCII layout ('#' occupied)."""
    h, w = len(rows), len(rows[0])
    occ = OccupancyMap(w, h, cell_size)
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            occ.log_odds[y, x] = logit(0.9) if ch == "#" else logit(0.05)
    return occ


class TestPlanPath:
    def test_identity(self):
        occ = known_free_map(["...", "...", "..."])
        assert plan_path(occ, (1, 1), (1, 1)) == [(1, 1)]

    def test_straight_corridor(self):
        occ = known_free_map(["#####", ".....", "#####"], cell_size=0.5)
        path = plan_path(occ, (0, 1), (4, 1))
        assert path == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
        assert path_cost(path, 0.5) == pytest.approx(4 * 0.5)

    def test_unreachable_returns_none(self):
        occ = known_free_map(["..#..", "..#..", "..#.."])
        assert plan_path(occ, (0, 1), (4, 1)) is None

    def test_start_must_be_free(self):
        occ = known_free_map(["#.."])
        with pytest.raises(ValueError):
            plan_path(occ, (0, 0), (2, 0))

    def test_goal_through_unknown_blocked(self):
        occ = known_free_map(["...", "...", "..."])
        occ.log_odds[1, 1] = 0.0  # unknown cells are not traversable
        occ.log_odds[0, 1] = logit(0.9)
        occ.log_odds[2, 1] = logit(0.9)
        assert plan_path(occ, (0, 1), (2, 1)) is None

    def test_force_free_opens_unknown_endpoints_only(self):
        occ = known_free_map(["....", "....", "...."])
        occ.log_odds[1, 0] = 0.0  # unknown start
        occ.log_odds[1, 3] = 0.0  # unknown goal
        occ.log_odds[:, 2] = 0.0  # unknown wall between them
        with pytest.raises(ValueError):
            plan_path(occ, (0, 1), (3, 1))
        assert plan_path(occ, (0, 1), (3, 1), force_free=[(0, 1), (3, 1)]) is None
        occ.log_odds[:, 2] = logit(0.05)
        assert plan_path(occ, (0, 1), (3, 1), force_free=[(0, 1), (3, 1)]) == [
            (0, 1), (1, 1), (2, 1), (3, 1)]
        assert occ.log_odds[1, 0] == 0.0  # the belief itself is untouched

    @pytest.mark.parametrize("outside", [(-1, 0), (4, 0), (0, 1), (0, -1)])
    def test_force_free_cell_outside_map_rejected(self, outside):
        # (-1, 0) once wrapped around to the unknown goal (3, 0) and opened it
        occ = known_free_map(["...."])
        occ.log_odds[0, 3] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"force_free cell {outside}")):
            plan_path(occ, (0, 0), (3, 0), force_free=[outside])

    def test_cost_matches_uniform_cost_oracle_on_random_maps(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            grid = rng.random((20, 20)) < 0.25
            grid[0, 0] = False
            grid[19, 19] = False
            occ = OccupancyMap(20, 20, 1.0)
            occ.log_odds = np.where(grid, logit(0.9), logit(0.05))
            path = plan_path(occ, (0, 0), (19, 19))
            want = brute_force_cost(~grid, (0, 0), (19, 19))
            if path is None:
                assert want is None
            else:
                assert path_cost(path, 1.0) == pytest.approx(want, abs=1e-9)
                assert all(not grid[y, x] for x, y in path)


@st.composite
def decision_searches(draw):
    """A free mask, a free start cell, row-major frontiers, a wedge subset and
    a score per frontier (few values, so that picks tie)."""
    height = draw(st.integers(1, 8))
    width = draw(st.integers(1, 8))
    flat = draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    free = np.array(flat, dtype=bool).reshape(height, width)
    start = (draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    free[start[1], start[0]] = True
    free_cells = [(x, y) for y in range(height) for x in range(width) if free[y, x]]
    frontiers = [c for c in free_cells if draw(st.booleans())]
    wedge = [c for c in frontiers if draw(st.booleans())]
    scores = {c: draw(st.integers(0, 2)) for c in frontiers}
    return free, start, frontiers, wedge, scores


def _pick_by(scores, width):
    """A selector that, like both explorers', ranks each candidate on its own."""
    def pick(cells):
        best = min(cells, key=lambda c: (scores[c], c[1] * width + c[0]))
        return best, float(scores[best]), "pick"
    return pick


def _framed(free, cells=()):
    """The planner's form of a 2D free mask: flat bytes framed by blocked
    cells, their row length, and the mask of `cells` in the same frame."""
    flat, width = _padded(free, False)
    mask = bytearray(flat.size)
    for c in cells:
        mask[_index(c, width)] = 1
    return flat.tobytes(), width, bytes(mask)


def _search(free, start, cell_size, goals=(), settle=()):
    """`_dijkstra` over a 2D free mask, in cell terms: (dist as a 2D array,
    parents as a dict from cell to cell, nearest goal cell or None)."""
    flat, width, mask = _framed(free, goals)
    dist, parents, nearest = _dijkstra(flat, width, _index(start, width), cell_size,
                                       goals=mask, settle=[_index(c, width) for c in settle])
    return (np.reshape(dist, (-1, width))[1:-1, 1:-1],
            {_cell(j, width): _cell(p, width) for j, p in enumerate(parents) if p >= 0},
            None if nearest is None else _cell(nearest, width))


def _decide_cells(free, start, cell_size, frontiers, wedge, pick):
    """`_decide` over a 2D free mask, with the start, the frontiers and the
    path as cells; the length it returns must be the path's `path_cost`,
    bit for bit."""
    flat, width, goals = _framed(free, frontiers)
    decision = _decide(flat, width, _index(start, width), cell_size, goals, wedge, pick)
    if decision is None:
        return None
    goal, loss, mode, at, length = decision
    path = explorer._cells(at, width)
    assert length == path_cost(path, cell_size)
    return goal, loss, mode, path


def _extract_path(parents, start, goal):
    path = [goal]
    while path[-1] != start:
        path.append(parents[path[-1]])
    return path[::-1]


def _full_search_decision(free, start, cell_size, frontiers, wedge, pick):
    """A whole-component search, then the reachable filter, the pick among
    reachable wedge frontiers and the (dist, row-major) nearest-global
    fallback, applied to its result."""
    dist, parents, _ = _search(free, start, cell_size)
    reachable = [c for c in frontiers if np.isfinite(dist[c[1], c[0]])]
    if not reachable:
        return None
    local = [c for c in wedge if c in reachable]
    if local:
        goal, loss, mode = pick(local)
    else:
        width = free.shape[1]
        goal = min(reachable, key=lambda c: (dist[c[1], c[0]], c[1] * width + c[0]))
        loss, mode = 0.0, "nearest_global"
    return goal, loss, mode, _extract_path(parents, start, goal)


class TestDecisionSearch:
    @settings(max_examples=300, deadline=None)
    @given(decision_searches(), st.sampled_from([0.25, 0.5, 1.0]))
    def test_decision_matches_full_search(self, case, cell_size):
        free, start, frontiers, wedge, scores = case
        pick = _pick_by(scores, free.shape[1])
        assert (_decide_cells(free, start, cell_size, frontiers, wedge, pick)
                == _full_search_decision(free, start, cell_size, frontiers, wedge, pick))

    @settings(max_examples=300, deadline=None)
    @given(decision_searches(), st.sampled_from([0.25, 0.5, 1.0]))
    def test_settling_a_subset_matches_full_search(self, case, cell_size):
        free, start, frontiers, wedge, _ = case
        full_dist, full_parents, _ = _search(free, start, cell_size)
        reachable = [c for c in frontiers if np.isfinite(full_dist[c[1], c[0]])]
        width = free.shape[1]
        want_nearest = min(reachable, default=None,
                           key=lambda c: (full_dist[c[1], c[0]], c[1] * width + c[0]))
        dist, parents, nearest = _search(free, start, cell_size,
                                         goals=frontiers, settle=wedge)
        local = [c for c in wedge if np.isfinite(dist[c[1], c[0]])]
        assert local == [c for c in wedge if c in reachable]
        assert nearest == want_nearest
        for goal in local + ([nearest] if nearest is not None else []):
            assert dist[goal[1], goal[0]] == full_dist[goal[1], goal[0]]
            assert (_extract_path(parents, start, goal)
                    == _extract_path(full_parents, start, goal))

    def test_unreachable_wedge_frontier_searches_whole_component(self):
        free = np.array([[True, True, True, False, True],
                         [True, True, True, False, True],
                         [True, True, True, False, True]])
        start = (0, 1)
        frontiers = [(2, 0), (4, 1), (1, 2)]
        wedge = [(2, 0), (4, 1)]  # (4, 1) lies beyond the wall
        full_dist, full_parents, _ = _search(free, start, 1.0)
        dist, parents, nearest = _search(free, start, 1.0, goals=frontiers, settle=wedge)
        assert np.array_equal(dist, full_dist)
        assert parents == full_parents
        assert nearest == (1, 2)
        # The pick prefers the cut-off frontier, then falls back to the reachable one.
        pick = _pick_by({(2, 0): 1, (4, 1): 0, (1, 2): 2}, 5)
        assert _decide_cells(free, start, 1.0, frontiers, wedge, pick) == (
            (2, 0), 1.0, "pick", [(0, 1), (1, 1), (2, 0)])
        assert _decide_cells(free, start, 1.0, frontiers, [(4, 1)], pick) == (
            (1, 2), 0.0, "nearest_global", [(0, 1), (1, 2)])

    def test_empty_wedge_stops_at_nearest_frontier(self):
        free = np.ones((1, 12), dtype=bool)
        dist, _, nearest = _search(free, (0, 0), 1.0, goals=[(9, 0), (3, 0)])
        assert nearest == (3, 0)
        assert np.isinf(dist[0, 5:]).all()  # the far end was never reached


@st.composite
def search_sequences(draw):
    """Two lattice sizes, and a sequence of searches over random free masks
    of either: each with a start cell (free or not), a goal mask or none, the
    cells to settle, and where it runs: in the lattice's reused `_Search`, in
    fresh lists, or as `plan_path` or `_ground_truth_reachable` between them."""
    sizes = [(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(2)]
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(0, 1))
        width, height = sizes[k]
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        free = rng.random((height, width)) < draw(st.sampled_from([0.3, 0.8, 1.0]))
        start = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        if draw(st.booleans()):
            free[start[1], start[0]] = True
        cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        goals = draw(st.one_of(st.none(), st.lists(cells, max_size=4)))
        settle = draw(st.lists(cells, max_size=3))
        runs = draw(st.sampled_from(["reused", "reused", "fresh", "plan_path", "reachable"]))
        calls.append((k, free, start, goals, settle, runs))
    return calls


class TestSearchReuse:
    """`_dijkstra` in a reused `_Search` returns what a search in fresh lists
    returns, whatever searches ran in it or elsewhere before."""

    @staticmethod
    def _run(free, start, goals, settle, search=None):
        flat, width, mask = _framed(free, goals or ())
        return _dijkstra(flat, width, _index(start, width), 0.5,
                         goals=None if goals is None else mask,
                         settle=[_index(c, width) for c in settle], search=search)

    @settings(max_examples=300, deadline=None)
    @given(search_sequences())
    def test_reused_search_equals_fresh_search(self, calls):
        searches, held = {}, {}
        for k, free, start, goals, settle, runs in calls:
            if runs in ("plan_path", "reachable") and not free[start[1], start[0]]:
                continue
            if runs == "plan_path":
                occ = OccupancyMap(free.shape[1], free.shape[0], 0.5)
                occ.log_odds = np.where(free, logit(0.05), logit(0.9))
                plan_path(occ, start, (0, 0))
            elif runs == "reachable":
                harness._ground_truth_reachable(GridWorld(
                    free.shape[1], free.shape[0], 0.5, ~free,
                    Pose((start[0] + 0.5) * 0.5, (start[1] + 0.5) * 0.5, 0.0)))
            else:
                search = None
                if runs == "reused":
                    size = (free.shape[0] + 2) * (free.shape[1] + 2)
                    search = searches.setdefault(k, explorer._Search(size))
                dist, parents, nearest = self._run(free, start, goals, settle, search)
                want = self._run(free, start, goals, settle)
                assert (list(dist), list(parents), nearest) == want
                if search is not None:
                    held[k] = dist, parents, want
            # each reused search's lists hold its last result until its next search
            for dist, parents, want in held.values():
                assert (list(dist), list(parents)) == want[:2]

    def test_start_not_free_after_a_whole_search(self):
        free = np.ones((5, 6), dtype=bool)
        search = explorer._Search(7 * 8)
        dist, _, _ = self._run(free, (0, 0), None, (), search)
        assert np.isfinite(dist).sum() == 30
        free[2, 3] = False
        dist, parents, nearest = self._run(free, (3, 2), [(0, 0)], [(1, 1)], search)
        assert np.isinf(dist).all() and set(parents) == {-1} and nearest is None
        assert dist is search.dist and parents is search.parents and not search.touched

    @pytest.mark.parametrize("pick", [explorer._pick_curiosity, explorer._pick_heading])
    def test_fork_and_original_deciding_in_turns(self, pick):
        world = load_map(fixture_path("sparse.map").read_text()).with_target(None)

        def fresh():
            return explorer._Explorer(world, run_settings(pick, budget=40.0))
        whole = outcome(fresh().run())
        ex = fresh()
        for _ in range(30):
            assert not ex._sense() and ex._to_next_pose()
        assert ex.search is not None
        twin = ex.fork()
        assert twin.search is None
        going = [ex, twin]
        while going:  # one sense and one move each, in turns
            for one in list(going):
                if one._sense() or not one._to_next_pose():
                    going.remove(one)
        assert twin.search is not None and twin.search is not ex.search
        assert outcome(ex._result()) == outcome(twin._result()) == whole


class TestExplorers:
    def test_immediate_detection_zero_time(self):
        world = load_map(make_map(["......", ".S..T.", "......"]))
        res = explore_cdos(world, suite())
        assert res.found and res.elapsed == 0.0
        assert res.target_estimate == (4, 1)

    def test_no_target_terminates_clean(self):
        world = load_map(make_map(["#####", "#...#", "#S..#", "#####"]))
        res = explore_cdos(world, suite())
        assert not res.found
        assert res.target_estimate is None
        assert (res.objects.classified() <= 0.5).all()

    def test_budget_exhaustion_stops(self):
        rows = ["#" * 20] + ["#" + "." * 18 + "#"] * 8 + ["#" * 20]
        rows[5] = "#S" + "." * 17 + "#"
        world = load_map(make_map(rows))
        res = explore_rapid_frontier(world, suite(), budget=0.25)
        assert not res.found
        assert res.elapsed > 0.25

    def test_bitwise_deterministic(self):
        rows = ["##########",
                "#........#",
                "#..##..T.#",
                "#S.##....#",
                "#........#",
                "##########"]
        world = load_map(make_map(rows))
        for explore in (explore_cdos, explore_rapid_frontier):
            a = explore(world, suite())
            b = explore(world, suite())
            assert steps_jsonl(a) == steps_jsonl(b)
            assert np.array_equal(quantize(a.occupancy.probabilities()),
                                  quantize(b.occupancy.probabilities()))
            assert np.array_equal(quantize(a.objects.raw_probabilities()),
                                  quantize(b.objects.raw_probabilities()))
            assert a.trajectory == b.trajectory
            assert (a.found, a.elapsed, a.target_estimate) == (b.found, b.elapsed, b.target_estimate)

    def test_trajectory_never_enters_walls(self):
        rows = ["############",
                "#..........#",
                "#.###.##.#.#",
                "#S...#...#.#",
                "#.##...#..T#",
                "#..........#",
                "############"]
        world = load_map(make_map(rows))
        for explore in (explore_cdos, explore_rapid_frontier):
            res = explore(world, suite())
            for pose in res.trajectory:
                cell = world.cell_of(pose.x, pose.y)
                assert world.is_free(cell)

    def test_found_estimate_matches_ground_truth(self):
        rows = ["##########",
                "#........#",
                "#.S....T.#",
                "#........#",
                "##########"]
        world = load_map(make_map(rows))
        for explore in (explore_cdos, explore_rapid_frontier):
            res = explore(world, suite())
            assert res.found
            assert res.target_estimate == world.target

    def test_single_corridor_equal_times(self):
        world = load_map(make_map(["#########", "#S.....T#", "#########"]))
        a = explore_cdos(world, suite())
        b = explore_rapid_frontier(world, suite())
        assert a.found and b.found
        assert a.elapsed == pytest.approx(b.elapsed, abs=1e-9)

    def test_elapsed_consistent_with_trajectory(self):
        rows = ["#########",
                "#.......#",
                "#S......#",
                "#..##...#",
                "#......T#",
                "#########"]
        world = load_map(make_map(rows))
        res = explore_cdos(world, suite())
        length = sum(math.hypot(b.x - a.x, b.y - a.y)
                     for a, b in zip(res.trajectory, res.trajectory[1:]))
        assert res.elapsed == pytest.approx(length / 2.0, abs=1e-9)

    def test_step_log_modes_are_known(self):
        rows = ["##########",
                "#........#",
                "#.S..##..#",
                "#....##.T#",
                "#........#",
                "##########"]
        world = load_map(make_map(rows))
        res = explore_cdos(world, suite())
        assert res.steps
        assert {s.mode for s in res.steps} <= {"curiosity", "nearest_global", "rotate"}
        base = explore_rapid_frontier(world, suite())
        assert {s.mode for s in base.steps} <= {"heading", "nearest_global", "rotate"}

    def test_elapsed_monotone_in_step_log(self):
        world = load_map(make_map(["#######", "#S....#", "#.###.#", "#....T#", "#######"]))
        res = explore_cdos(world, suite())
        elapsed = [s.elapsed for s in res.steps]
        assert elapsed == sorted(elapsed)

    def test_equal_sensor_geometry_near_target_within_15_percent(self):
        # equal fovs and ranges with a close-range-only detector: both policies
        # resolve a start-zone placement in essentially the same time
        from curiogrid.harness import fixture_path
        world = load_map(fixture_path("sparse.map").read_text()).with_target((8, 20))
        sensors = suite(beta=30.0, alpha=30.0, rng=2.0, eta=1.425)
        a = explore_cdos(world, sensors)
        b = explore_rapid_frontier(world, sensors)
        assert a.found and b.found
        assert abs(a.elapsed - b.elapsed) <= 0.15 * max(a.elapsed, b.elapsed) + 1e-9


    @pytest.mark.parametrize("explore", [explore_cdos, explore_rapid_frontier])
    def test_stall_guard_bounds_rotations(self, explore):
        # sensors too short to leave the start cell: its unknown neighbors
        # never resolve, so each decision rotates in place until the guard
        world = load_map(make_map(["#####", "#.S.#", "#...#", "#####"], cell_size=0.25))
        res = explore(world, suite(rng=0.1))
        assert not res.found and res.elapsed == 0.0
        assert len(res.steps) == 64
        assert {s.mode for s in res.steps} == {"rotate"}
        assert len(res.trajectory) == 65

    @pytest.mark.parametrize("explore", [explore_cdos, explore_rapid_frontier])
    def test_settle_loop_bounds_senses(self, explore):
        # a miss weaker than p_free_max never turns the start cell FREE: the
        # run senses nine times in place and stops with no frontier
        world = load_map(make_map(["#####", "#.S.#", "#...#", "#####"]))
        res = explore(world, suite(), mapping_cfg=MappingConfig(p_miss=0.49))
        assert res.steps == [] and len(res.trajectory) == 1
        want = 0.0
        for _ in range(9):
            want += logit(0.49)
        x, y = world.cell_of(world.start.x, world.start.y)
        assert res.occupancy.log_odds[y, x] == want


@st.composite
def small_worlds(draw, cell_sizes=(0.25, 0.5)):
    """A walled lattice of up to 9 x 8 cells of one of `cell_sizes` with
    random inner walls, a start on a free cell, and a target on a free cell
    or none."""
    width, height = draw(st.integers(3, 9)), draw(st.integers(3, 8))
    cell_size = draw(st.sampled_from(cell_sizes))
    occupied = np.ones((height, width), dtype=bool)
    inner = draw(st.lists(st.integers(0, 3), min_size=(width - 2) * (height - 2),
                          max_size=(width - 2) * (height - 2)))
    occupied[1:-1, 1:-1] = np.reshape(inner, (height - 2, width - 2)) == 0
    free = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)
            if not occupied[y, x]]
    if not free:
        occupied[1, 1] = False
        free = [(1, 1)]
    sx, sy = draw(st.sampled_from(free))
    start = Pose((sx + 0.5) * cell_size, (sy + 0.5) * cell_size,
                 draw(st.integers(0, 7)) * math.pi / 4.0)
    target = draw(st.one_of(st.none(), st.sampled_from(free)))
    return GridWorld(width, height, cell_size, occupied, start, target)


@st.composite
def evidence_sequences(draw):
    """A small lattice, mapping constants, and a sequence of scan evidence:
    each step a set of flat cell indices split into miss and hit parts."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cfg = draw(st.sampled_from([MappingConfig(), MappingConfig(p_hit=0.9, p_miss=0.2),
                                MappingConfig(p_free_max=0.55, p_occ_min=0.6)]))
    cell = st.integers(0, width * height - 1)
    steps = draw(st.lists(st.tuples(st.sets(cell), st.sets(cell)), max_size=10))
    return width, height, cfg, steps


def _assert_views_current(ex):
    h, w = ex.occupancy.log_odds.shape
    assert np.array_equal(ex.labels.reshape(h + 2, w + 2)[1:-1, 1:-1], ex.occupancy.classify())
    assert explorer._cells(np.flatnonzero(ex.frontier), ex.stride) == \
        detect_frontiers(ex.occupancy)


def _checked_senses(ex):
    """Make every `_sense` of `ex` check the fused sense, and return the
    poses it sensed at: the values `_fuse` returns are the log odds at the
    cells it touched, bit for bit; both belief maps equal the spec fuse
    (`integrate_scan` of `ir_scan`, `integrate_observation` of
    `camera_observe`) of the same scans; and the views equal their spec."""
    world, sensors, cfg = ex.world, ex.settings.sensors, ex.occupancy.cfg
    occupancy = OccupancyMap(world.width, world.height, world.cell_size, cfg)
    objects = ObjectMap(world.width, world.height, world.cell_size, cfg)
    fuse, sense, poses = ex._fuse, ex._sense, []

    def checked_fuse(pose, det):
        touched, values = fuse(pose, det)
        assert values.tobytes() == ex.occupancy.log_odds.take(touched).tobytes()
        occupancy.integrate_scan(ir_scan(world, pose, sensors.ir))
        objects.integrate_observation(camera_observe(world, pose, sensors.camera))
        return touched, values

    def checked_sense():
        stop = sense()
        assert ex.occupancy.log_odds.tobytes() == occupancy.log_odds.tobytes()
        assert ex.objects.log_odds.tobytes() == objects.log_odds.tobytes()
        _assert_views_current(ex)
        poses.append(ex.pose)
        return stop
    ex._fuse, ex._sense = checked_fuse, checked_sense
    return poses


class TestMaintainedViews:
    """The explorer's labels and frontiers, kept current from each sense's
    touched cells and their new log odds, equal `classify()` and
    `detect_frontiers()` recomputed."""

    @settings(max_examples=200, deadline=None)
    @given(evidence_sequences())
    def test_views_match_full_recomputation(self, case):
        width, height, cfg, steps = case
        world = GridWorld(width, height, 1.0, np.zeros((height, width), dtype=bool),
                          Pose(0.5, 0.5, 0.0))
        ex = explorer._Explorer(world, run_settings(explorer._pick_heading, mapping=cfg))
        _assert_views_current(ex)
        for free, hits in steps:
            # as `_sense` passes them: the misses, then the hits, in one array
            cells = np.array(sorted(free) + sorted(hits), dtype=np.int32)
            ex._relabel(cells, ex.occupancy.add_scan_evidence(cells, len(free)))
            _assert_views_current(ex)

    @pytest.mark.parametrize("pick", [explorer._pick_curiosity, explorer._pick_heading])
    def test_views_match_after_a_run(self, pick):
        world = load_map(fixture_path("sparse.map").read_text()).with_target(None)
        ex = explorer._Explorer(world, run_settings(pick, budget=30.0))
        ex.run()
        assert ex.steps
        _assert_views_current(ex)

    @settings(max_examples=40, deadline=None)
    @given(small_worlds((0.25, 0.3)),
           st.sampled_from([explorer._pick_curiosity, explorer._pick_heading]))
    def test_every_sense_fuses_the_spec(self, world, pick):
        ex = explorer._Explorer(world, run_settings(pick))
        poses = _checked_senses(ex)
        ex.run()
        assert poses


class TestPathCheck:
    """The walk goes on along its path unless the sense just taken turned a
    cell of the rest of it OCCUPIED; then the explorer decides again."""

    @pytest.mark.parametrize("pick", [explorer._pick_curiosity, explorer._pick_heading])
    def test_only_a_blocked_rest_of_the_path_replans(self, pick):
        world = load_map(fixture_path("sparse.map").read_text()).with_target(None)
        ex = explorer._Explorer(world, run_settings(pick))
        while len(ex.at) - ex.along < 4:  # stand on a path with 3 cells to go
            assert not ex._sense() and ex._to_next_pose()
        assert not ex._sense()
        for k in range(-ex.along, len(ex.at) - ex.along):  # each cell of the path
            twin = ex.fork()
            x, y = explorer._cell(int(twin.at[twin.along + k]), twin.stride)
            twin.occupancy.log_odds[y, x] = logit(0.9)
            flat = np.array([y * world.width + x])
            twin._relabel(flat, twin.occupancy.log_odds.take(flat))
            decided = len(twin.steps)
            assert twin._to_next_pose()
            assert len(twin.steps) == decided + (k > 0)


@st.composite
def camera_evidence_sequences(draw):
    """A small lattice, mapping constants, a curiosity curve and a sequence
    of camera senses: each the cells seen free, a detection (a cell, seen or
    not, and its confidence) or none, and what follows the sense: nothing, a
    decision, or a fork that goes on in place of its original or beside it."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cfg = draw(st.sampled_from([MappingConfig(), MappingConfig(lambda1=0.45, lambda2=0.55),
                                MappingConfig(p_miss_cam=0.1, lambda1=0.3, lambda2=0.6)]))
    params = draw(st.sampled_from([CuriosityParams(), CuriosityParams(-0.4, 0.2, 0.9)]))
    cell = st.integers(0, width * height - 1)
    detection = st.one_of(st.none(), st.tuples(cell, st.floats(0.0, 1.0)))
    then = st.sampled_from(["sense", "decide", "fork", "fork and switch"])
    senses = draw(st.lists(st.tuples(st.sets(cell), detection, then), max_size=14))
    return width, height, cfg, params, senses


class TestMaintainedCuriosity:
    """The explorer's per-cell curiosity, brought up to date at a decision
    from the cells its senses queued, equals `curiosity_of(classified())`
    element by element, and its sum equals `total_curiosity` bit for bit, also
    across forks."""

    @staticmethod
    def _assert_curiosity_current(ex):
        total = ex._total_curiosity()
        params = ex.settings.params
        assert np.array_equal(ex.curiosity, curiosity_of(ex.objects.classified(), params))
        assert total == total_curiosity(ex.objects, params)

    @settings(max_examples=200, deadline=None)
    @given(camera_evidence_sequences())
    # a confident detection of a cell the sweep did not see, then one of a seen cell
    @example((3, 2, MappingConfig(), CuriosityParams(),
              [({0, 1}, (5, 0.99), "decide"), ({4, 5}, (5, 0.99), "fork")]))
    # cells pushed below lambda1 by misses alone
    @example((2, 1, MappingConfig(), CuriosityParams(),
              [({0}, None, "sense"), ({0, 1}, None, "sense"), ({0}, None, "decide")]))
    def test_curiosity_matches_full_recomputation(self, case):
        width, height, cfg, params, senses = case
        world = GridWorld(width, height, 1.0, np.zeros((height, width), dtype=bool),
                          Pose(0.5, 0.5, 0.0))
        ex = explorer._Explorer(world, run_settings(explorer._pick_heading, mapping=cfg,
                                                    params=params))
        made = [ex]
        self._assert_curiosity_current(ex)
        for seen, det, then in senses:
            if det is not None:
                det = Detection((det[0] % width, det[0] // width), 1.0, det[1])
            ex._observe(np.array(sorted(seen), dtype=np.int32), det)
            if then == "decide":
                self._assert_curiosity_current(ex)
            elif then.startswith("fork"):
                made.append(ex.fork())
                if then == "fork and switch":
                    ex = made[-1]
        # the explorers left behind at a fork were not touched by the one going on
        for ex in made:
            self._assert_curiosity_current(ex)

    @pytest.mark.parametrize("pick", [explorer._pick_curiosity, explorer._pick_heading])
    def test_curiosity_matches_after_a_run(self, pick):
        world = load_map(fixture_path("sparse.map").read_text()).with_target((30, 5))
        ex = explorer._Explorer(world, run_settings(pick, budget=30.0))
        ex.run()
        assert ex.steps
        self._assert_curiosity_current(ex)


@st.composite
def wedge_cases(draw):
    """A belief map of random labels, an IR fan, and a pose anywhere in a
    cell: at its centre, on its corner or off both. Cell sizes include ones
    that are not a power of two, and ranges that are not a multiple of the
    cell size or that pass exactly through a cell centre or end just short
    of it."""
    cell_size, max_range = draw(st.sampled_from(
        [(0.25, 1.9), (0.3, 2.0), (0.3, 0.6), (0.1, 0.3), (0.5, 2.0), (1.0, 2.5), (0.3, None)]))
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.choice(3, size=(height, width), p=[0.5, 0.1, 0.4])
    log_odds = np.choose(labels, [logit(0.05), logit(0.9), 0.0])
    cx, cy = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    at = st.one_of(st.just(0.5), st.just(0.0), st.floats(0.0, 0.999))
    x, y = (cx + draw(at)) * cell_size, (cy + draw(at)) * cell_size
    if max_range is None:  # the range circle through a cell centre, from whole cells
        far = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        px, py = math.floor(x / cell_size), math.floor(y / cell_size)
        max_range = math.hypot((far[0] - px) * cell_size - (x - (px + 0.5) * cell_size),
                               (far[1] - py) * cell_size - (y - (py + 0.5) * cell_size))
        if draw(st.booleans()):
            max_range = math.nextafter(max_range, 0.0)
        max_range = max(max_range, 1e-3)
    fov = draw(st.sampled_from([math.radians(30.0), math.radians(120.0), 2 * math.pi]))
    pose = Pose(x, y, draw(st.floats(-math.pi, math.pi)))
    world = GridWorld(width, height, cell_size, np.zeros((height, width), dtype=bool), pose)
    return world, log_odds, IrConfig(fov, max_range)


def _wedge_explorer(world, log_odds, ir):
    """An explorer in `world` with the IR fan `ir`, its belief set to `log_odds`."""
    ex = explorer._Explorer(world, run_settings(explorer._pick_heading,
                                                SensorSuite(ir, CameraConfig())))
    ex.occupancy.log_odds[...] = log_odds
    ex._relabel(np.arange(log_odds.size), log_odds.ravel())
    return ex


class TestWedge:
    """The explorer's wedge, read through the memoized wedge stencil, equals
    the wedge filter over every frontier."""

    @settings(max_examples=300, deadline=None)
    @given(wedge_cases())
    def test_box_bounded_wedge_matches_full_filter(self, case):
        # the explorer's wedge, read only over the frontiers in the box
        # around its cell, equals the wedge filter over every frontier
        world, log_odds, ir = case
        ex = _wedge_explorer(world, log_odds, ir)
        pose = world.start
        want = local_frontiers(detect_frontiers(ex.occupancy), pose, ir, world.cell_size)
        assert ex._wedge(world.cell_of(pose.x, pose.y)) == want

    @pytest.mark.parametrize("cell_size", [0.25, 0.3, 0.2])
    def test_a_warm_stencil_serves_every_cell(self, cell_size, monkeypatch):
        # The stencil is exact: from the centre of every cell, and from poses
        # off it, the explorer's wedge equals the wedge filter over every
        # frontier. The ranges run through the centres 5 cells away and just
        # short of them. Poses at every centre share the stencil the first
        # one built; a pose off the centre reads one of its own spot.
        monkeypatch.setattr(sensor, "_STENCILS", {})
        rng = np.random.default_rng(5)
        labels = rng.choice(3, size=(16, 18), p=[0.6, 0.05, 0.35])
        log_odds = np.choose(labels, [logit(0.05), logit(0.9), 0.0])
        for max_range in (math.hypot(3 * cell_size, 4 * cell_size), 5 * cell_size - 1e-9):
            ir = IrConfig(math.radians(120.0), max_range)
            world = GridWorld(18, 16, cell_size, np.zeros((16, 18), dtype=bool),
                              Pose(0.5 * cell_size, 0.5 * cell_size, 0.7))
            ex = _wedge_explorer(world, log_odds, ir)
            frontiers = detect_frontiers(ex.occupancy)
            sensor._STENCILS.clear()
            for off in ((0.0, 0.0), (0.3, 0.1), (-0.45, 0.25), (0.2, -0.4)):
                for cy in range(16):
                    for cx in range(18):
                        ex.pose = Pose((cx + 0.5 + off[0]) * cell_size,
                                       (cy + 0.5 + off[1]) * cell_size, 0.7)
                        assert ex._wedge((cx, cy)) == local_frontiers(frontiers, ex.pose, ir,
                                                                      cell_size)
                if off == (0.0, 0.0):
                    assert len(sensor._STENCILS) == 1

    def test_a_zone_run_at_0_3_m_builds_few_stencils(self, tmp_path, monkeypatch):
        # Every move ends on a cell centre and faces one of 8 neighbours, so
        # the packaged zone run at 0.3 m needs one stencil per heading, each
        # built once (one `wedge_cells` call over its square). Every centre
        # is one spot for the fan tables too: the run builds at most twice
        # the tables it builds at 0.25 m (its candidate headings, atan2 of
        # whole-cell offsets that are not exact at 0.3 m, fall on more angles).
        stencils, tables = [], {}
        wedge, table = sensor.wedge_cells, sensor._fan_table
        monkeypatch.setattr(sensor, "wedge_cells",
                            lambda *a: stencils.append((a[1].heading, a[2])) or wedge(*a))
        for cell_size in (0.25, 0.3):
            built = tables[cell_size] = []
            monkeypatch.setattr(sensor, "_fan_table", lambda *a: built.append(a) or table(*a))
            for owner, memo in ((sensor, "_STENCILS"), (sensor, "_FAN_TABLES"),
                                (explorer, "_TAPES"), (explorer, "_SENSE_CACHE")):
                monkeypatch.setattr(owner, memo, {})
            stencils.clear()
            maps = {}
            for name in ("sparse.map", "dense.map"):
                maps[name] = tmp_path / f"{cell_size}-{name}"
                maps[name].write_text(fixture_path(name).read_text()
                                      .replace("cellsize=0.25 ", f"cellsize={cell_size} ", 1))
            cfg = replace(default_config(), map_sparse=str(maps["sparse.map"]),
                          map_dense=str(maps["dense.map"]), samples_per_zone=1)
            run_zone_experiment(cfg, out_dir=tmp_path / f"out-{cell_size}")
        assert 0 < len(stencils) <= 12
        assert len(set(stencils)) == len(stencils) == len(sensor._STENCILS)
        assert 0 < len(tables[0.3]) <= 2 * len(tables[0.25])


class TestSenseCache:
    """A warm sensing evidence cache must change nothing but the work done."""

    @pytest.fixture
    def misses(self, monkeypatch):
        calls = []
        sense = explorer.sense_cells
        monkeypatch.setattr(explorer, "sense_cells", lambda *a: calls.append(a) or sense(*a))
        return calls

    def _warm_then_cold(self, explore, misses):
        world = load_map(fixture_path("sparse.map").read_text())
        # same lattice, start and sensors, other walls: its evidence must not leak
        other = load_map(fixture_path("dense.map").read_text())
        explorer._SENSE_CACHE.clear()
        explore(other.with_target((5, 35)), suite())
        explore(world.with_target((30, 5)), suite())
        misses.clear()
        warm = explore(world.with_target((5, 35)), suite())
        warm_misses = len(misses)
        explorer._SENSE_CACHE.clear()
        misses.clear()
        cold = explore(world.with_target((5, 35)), suite())
        assert warm.steps
        assert outcome(warm) == outcome(cold)
        return warm_misses, len(misses)

    @pytest.mark.parametrize("explore", [explore_cdos, explore_rapid_frontier])
    def test_warm_cache_equals_cold_cache(self, explore, misses):
        warm_misses, cold_misses = self._warm_then_cold(explore, misses)
        assert warm_misses < cold_misses

    @pytest.mark.parametrize("explore", [explore_cdos, explore_rapid_frontier])
    def test_cache_bound_of_one_changes_nothing(self, explore, misses, monkeypatch):
        monkeypatch.setattr(explorer, "_SENSE_CACHE_LIMIT", 1)
        self._warm_then_cold(explore, misses)
        assert sum(map(len, explorer._SENSE_CACHE.values())) == 1

    @pytest.mark.parametrize("cell_size", [0.25, 0.3])
    @pytest.mark.parametrize("pick", [explorer._pick_curiosity, explorer._pick_heading])
    def test_cached_senses_fuse_the_spec(self, cell_size, pick, misses):
        # every sense of a cold run walks its fans, every one of the warm
        # rerun reads the cache, and each fuses what the spec fuses
        text = fixture_path("sparse.map").read_text()
        world = load_map(text.replace("cellsize=0.25", f"cellsize={cell_size}", 1))
        assert world.cell_size == cell_size
        explorer._SENSE_CACHE.clear()
        for warm in (False, True):
            misses.clear()
            ex = explorer._Explorer(world.with_target((5, 35)), run_settings(pick, budget=20.0))
            poses = _checked_senses(ex)
            ex.run()
            assert ex.steps
            assert len(misses) == (0 if warm else len(set(poses)))


def _packaged_world(name, target):
    world = load_map(fixture_path(name).read_text())
    free = np.flatnonzero(~world.occupied.ravel())
    return world.with_target(None if target is None else
                             divmod(int(free[target % free.size]), world.width)[::-1])


class TestFork:
    """A fork made at any sense runs on independently, and both it and the
    explorer it came from end exactly as the uninterrupted run."""

    @staticmethod
    def _check_fork(world, pick, fraction, budget=600.0):
        def fresh():
            return explorer._Explorer(world, run_settings(pick, budget=budget))
        whole = outcome(fresh().run())
        ex = fresh()
        senses = 1
        while not ex._sense() and ex._to_next_pose():
            senses += 1
        ex = fresh()
        for _ in range(int(fraction * senses)):  # each stays short of the last sense
            assert not ex._sense() and ex._to_next_pose()
        twin = ex.fork()
        assert outcome(twin.run()) == whole
        assert outcome(ex.run()) == whole

    @settings(max_examples=150, deadline=None)
    @given(small_worlds(), st.sampled_from([explorer._pick_curiosity, explorer._pick_heading]),
           st.floats(0.0, 0.999), st.sampled_from([600.0, 1.0]))
    def test_fork_on_generated_maps(self, world, pick, fraction, budget):
        self._check_fork(world, pick, fraction, budget)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["sparse.map", "dense.map"]),
           st.one_of(st.none(), st.integers(0, 10 ** 6)),
           st.sampled_from([explorer._pick_curiosity, explorer._pick_heading]),
           st.floats(0.0, 0.999))
    def test_fork_on_packaged_maps(self, name, target, pick, fraction):
        self._check_fork(_packaged_world(name, target), pick, fraction)


def test_explorers_share_one_signature():
    assert (inspect.signature(explore_cdos).parameters
            == inspect.signature(explore_rapid_frontier).parameters)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("settings_type, field", [
    (IrConfig, "max_range"),
    (CameraConfig, "max_range"),
    (CameraConfig, "conf_scale"),
    (MotionConfig, "max_velocity"),
    (CuriosityParams, "offset"),
    (CuriosityParams, "stiffness"),
    (CuriosityParams, "peak"),
])
def test_settings_reject_non_finite(settings_type, field, value):
    with pytest.raises(ValueError, match=field):
        settings_type(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("budget", math.nan), ("budget", math.inf), ("budget", 0.0), ("budget", -1.0),
    ("detection_threshold", math.nan), ("detection_threshold", 0.0),
    ("detection_threshold", 1.0), ("detection_threshold", 1.5),
])
@pytest.mark.parametrize("explore", [explore_cdos, explore_rapid_frontier])
def test_explorers_reject_bad_run_limits(explore, field, value):
    world = load_map(make_map(["#####", "#...#", "#S.T#", "#####"]))
    with pytest.raises(ValueError, match=field):
        explore(world, suite(), **{field: value})
