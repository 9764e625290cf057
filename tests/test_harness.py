import concurrent.futures
import math
import re
import statistics
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curiogrid import explorer, harness
from curiogrid.explorer import SensorSuite, explore_cdos
from curiogrid.harness import (ConfigError, ExperimentConfig, ZoneExperiment, default_config,
                               fixture_path, load_config, parse_config, render_maps,
                               run_fov_sweep, run_trial, run_zone_experiment, steps_jsonl,
                               summarize, summary_csv, trials_csv)
from curiogrid.mapping import ObjectMap, OccupancyMap
from curiogrid.sensor import CameraConfig, IrConfig, detect
from curiogrid.world import MapError, Pose, load_map, load_zones, sample_zone_points

from oracle import outcome

TINY_MAP = """cellsize=0.5 heading=0.0
##########
#........#
#.S......#
#...##..T#
#........#
##########
"""

TINY_ZONES = """zone1 = 2,1,3,2
zone2 = 6,1,8,2
"""


def from_pgm(data: bytes) -> np.ndarray:
    """The byte raster of a binary PGM (P5) as `render_maps` writes it."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError("not a P5 PGM")
    width, height = (int(v) for v in parts[1].split())
    if parts[2] != b"255":
        raise ValueError("unsupported maxval")
    raster = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return raster.reshape((height, width))


@pytest.fixture
def tiny_dir(tmp_path):
    (tmp_path / "tiny.map").write_text(TINY_MAP)
    (tmp_path / "tiny.zones").write_text(TINY_ZONES)
    return tmp_path


def tiny_config(tiny_dir, **overrides):
    base = dict(map_sparse=str(tiny_dir / "tiny.map"),
                zone_file=str(tiny_dir / "tiny.zones"),
                samples_per_zone=2, seed=3, eta=1.9, budget=120.0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_packaged_default_loads(self):
        cfg = default_config()
        assert cfg.samples_per_zone == 20
        assert Path(cfg.map_sparse).exists()
        assert Path(cfg.map_dense).exists()
        assert Path(cfg.zone_file).exists()
        assert cfg.alphas[0] == pytest.approx(math.radians(60))
        assert cfg.betas[0] == pytest.approx(math.radians(30))

    def test_parse_degrees_to_radians(self):
        cfg = parse_config("alphas_deg = 30, 60, 90\nbetas_deg = 15\n")
        assert cfg.alphas == tuple(math.radians(v) for v in (30, 60, 90))
        assert cfg.betas == (math.radians(15),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("warp_speed = 9\n")

    @pytest.mark.parametrize("text, message", [
        ("budget = 10\nbudget = 600\n", "line 2: duplicate key 'budget' (first on line 1)"),
        ("alphas_deg = 30\n# wider\nalphas_deg = 60, 90\n",
         "line 3: duplicate key 'alphas_deg' (first on line 1)"),
    ])
    def test_duplicate_key_rejected(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    def test_key_set(self):
        keys = {"map_sparse", "map_dense", "zone_file", "samples_per_zone", "seed",
                "alphas_deg", "betas_deg", "ir_range", "cam_range", "eta", "lambda1",
                "lambda2", "curiosity_a", "curiosity_b", "curiosity_kappa", "p_hit",
                "p_miss", "p_miss_cam", "p_free_max", "p_occ_min", "max_velocity",
                "budget", "detection_threshold", "ir_ray_count", "cam_ray_count", "workers"}
        lines = [line for line in fixture_path("experiment.cfg").read_text().splitlines()
                 if line and not line.startswith("#")]
        lines += ["ir_ray_count = 0", "cam_ray_count = 0"]
        assert {line.partition("=")[0].strip() for line in lines} == keys
        for line in lines:
            parse_config(line + "\n")
        assert ({f.name for f in fields(ExperimentConfig)} - {"alphas", "betas"}
                == keys - {"alphas_deg", "betas_deg"})
        for key in ("alphas", "betas"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"{key} = 60\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("seed = fast\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(samples_per_zone=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(lambda1=0.99, lambda2=0.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(workers=0)

    @pytest.mark.parametrize("line, key", [
        ("budget = nan", "budget"),
        ("max_velocity = nan", "max_velocity"),
        ("cam_range = nan", "cam_range"),
        ("ir_range = inf", "ir_range"),
        ("eta = nan", "eta"),
        ("detection_threshold = 2", "detection_threshold"),
        ("detection_threshold = 1", "detection_threshold"),
        ("p_hit = 1.5", "p_hit"),
        ("p_free_max = 0.8", "p_free_max"),
        ("alphas_deg = 60 nan", "alphas_deg"),
        ("betas_deg = 400", "betas_deg"),
        ("ir_ray_count = 1", "ir_ray_count"),
        ("cam_ray_count = -3", "cam_ray_count"),
        ("curiosity_a = inf", "curiosity_a"),
        ("curiosity_b = 0", "curiosity_b"),
        ("curiosity_kappa = nan", "curiosity_kappa"),
        ("eta = 0", "eta"),
        ("max_velocity = 0", "max_velocity"),
        ("ir_range = 0", "ir_range"),
        ("cam_range = -1", "cam_range"),
        ("alphas_deg = 0", "alphas_deg"),
        ("budget = 0", "budget"),
        ("budget = inf", "budget"),
        ("lambda1 = 0.99", "lambda1"),
    ])
    def test_out_of_range_value_names_key(self, line, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(line + "\n")

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        (tmp_path / "a.map").write_text(TINY_MAP)
        (tmp_path / "exp.cfg").write_text("map_sparse = a.map\n")
        cfg = load_config(tmp_path / "exp.cfg")
        assert Path(cfg.map_sparse) == tmp_path / "a.map"

    def test_maps_requires_at_least_one(self):
        with pytest.raises(ConfigError, match="no map"):
            ExperimentConfig().maps()

    def test_sensor_suite_uses_eta(self):
        cfg = ExperimentConfig(eta=1.3)
        suite = cfg.sensor_suite(math.radians(60), math.radians(30))
        assert suite.camera.conf_scale == 1.3
        assert suite.ir.fov == pytest.approx(math.radians(30))


class TestZoneExperiment:
    def test_record_count_contract(self, tiny_dir):
        cfg = tiny_config(tiny_dir, samples_per_zone=1)
        exp = run_zone_experiment(cfg)
        # 1 map x 2 zones x 1 placement x 2 methods
        assert len(exp.records) == 4
        assert {r.method for r in exp.records} == {"cdos", "baseline"}

    def test_csv_deterministic(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        a = run_zone_experiment(cfg)
        b = run_zone_experiment(cfg)
        assert trials_csv(a.records) == trials_csv(b.records)
        assert summary_csv(a.summaries) == summary_csv(b.summaries)

    def test_summaries_are_read_off_the_records(self, tiny_dir):
        exp = run_zone_experiment(tiny_config(tiny_dir, samples_per_zone=2))
        assert exp.summaries == summarize(exp.records)
        assert summarize(exp.records[:2]) == ZoneExperiment(exp.records[:2]).summaries
        with pytest.raises(TypeError):
            ZoneExperiment(exp.records, summaries=[])

    def test_csv_row_count(self, tiny_dir):
        cfg = tiny_config(tiny_dir, samples_per_zone=3)
        exp = run_zone_experiment(cfg)
        rows = trials_csv(exp.records).decode().strip().split("\n")
        assert len(rows) == 1 + 1 * 2 * 3 * 2  # header + maps*zones*n*methods

    def test_aggregates_match_recomputation(self, tiny_dir):
        cfg = tiny_config(tiny_dir, samples_per_zone=4)
        exp = run_zone_experiment(cfg)
        for s in exp.summaries:
            times = [r.delta_t for r in exp.records
                     if (r.map_id, r.zone_id, r.method) == (s.map_id, s.zone_id, s.method)
                     and r.found]
            if times:
                assert s.mean_dt == pytest.approx(statistics.fmean(times), abs=1e-9)
                want_std = statistics.pstdev(times) if len(times) > 1 else 0.0
                assert s.std_dt == pytest.approx(want_std, abs=1e-9)
            else:
                assert s.mean_dt == 0.0

    def test_writes_output_files(self, tiny_dir, tmp_path):
        out = tmp_path / "out"
        run_zone_experiment(tiny_config(tiny_dir), out_dir=out)
        assert (out / "trials.csv").exists()
        assert (out / "summary.csv").exists()

    def test_worker_count_does_not_change_bytes(self, tiny_dir):
        serial = run_zone_experiment(tiny_config(tiny_dir, workers=1))
        parallel = run_zone_experiment(tiny_config(tiny_dir, workers=2))
        assert trials_csv(serial.records) == trials_csv(parallel.records)

    def test_pool_runs_each_map_and_method_as_one_task(self, tiny_dir, monkeypatch):
        # so that one worker builds the tape those trials share
        tasks = []

        class InProcess:
            def __init__(self, max_workers):
                assert max_workers == 3

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.extend(items)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        cfg = tiny_config(tiny_dir, map_dense=str(tiny_dir / "tiny.map"), workers=3)
        pooled = run_zone_experiment(cfg)
        groups = [{(trial[0], trial[4]) for trial in task} for task in tasks]
        assert sorted(g.pop() for g in groups if len(g) == 1) == [
            (map_id, method) for map_id in ("dense", "sparse") for method in sorted(harness.METHODS)]
        serial = run_zone_experiment(replace(cfg, workers=1))
        assert trials_csv(pooled.records) == trials_csv(serial.records)

    def test_serial_run_dispatches_the_pool_groups(self, tiny_dir, monkeypatch):
        # a serial run hands `_run_trial_tasks` the same (map, method) groups,
        # in the same order, as a pool gets
        handed = []
        run_group = harness._run_trial_tasks

        def recorded(tasks):
            handed[-1].append([(t[0], t[2], t[3], t[4]) for t in tasks])
            return run_group(tasks)

        class InProcess:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "_run_trial_tasks", recorded)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        cfg = tiny_config(tiny_dir, map_dense=str(tiny_dir / "tiny.map"))
        for workers in (1, 2):
            handed.append([])
            run_zone_experiment(replace(cfg, workers=workers))
        serial, pooled = handed
        assert serial == pooled
        assert [{(t[0], t[3]) for t in group} for group in serial] == [
            {(map_id, method)} for map_id in ("sparse", "dense") for method in harness.METHODS]
        assert sum(map(len, serial)) == 2 * 2 * 2 * len(harness.METHODS)

    def test_missing_zone_file_rejected(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        cfg = replace(cfg, zone_file=None)
        with pytest.raises(ConfigError, match="zone_file"):
            run_zone_experiment(cfg)


class TestFovSweep:
    def test_sweep_needs_two_values(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        with pytest.raises(ConfigError, match="two values"):
            run_fov_sweep(replace(cfg, alphas=(math.radians(60),)), "alpha")

    def test_bad_vary_rejected(self, tiny_dir):
        with pytest.raises(ConfigError, match="vary"):
            run_fov_sweep(tiny_config(tiny_dir), "gamma")

    def test_rows_cover_values_and_methods(self, tiny_dir):
        cfg = tiny_config(tiny_dir, samples_per_zone=1)
        values = (math.radians(40), math.radians(80))
        rows = run_fov_sweep(replace(cfg, alphas=values), "alpha")
        degs = {round(r.value_deg) for r in rows}
        assert degs == {40, 80}
        pooled = [r for r in rows if r.zone_id == 0]
        assert {(round(r.value_deg), r.method) for r in pooled} == {
            (40, "cdos"), (40, "baseline"), (80, "cdos"), (80, "baseline")}

    def test_sweep_csv_written(self, tiny_dir, tmp_path):
        cfg = tiny_config(tiny_dir, samples_per_zone=1)
        out = tmp_path / "sweep"
        run_fov_sweep(replace(cfg, betas=(math.radians(20), math.radians(40))), "beta",
                      out_dir=out)
        text = (out / "sweep.csv").read_text()
        assert text.startswith("vary,value_deg,map,zone,method,found,mean_dt")


class TestRenderMaps:
    def run_once(self):
        world = load_map(TINY_MAP)
        suite = SensorSuite(IrConfig(math.radians(30), 2.0),
                            CameraConfig(math.radians(60), 2.0, 1.9))
        return explore_cdos(world, suite)

    def test_fresh_result_uniform_gray(self):
        from curiogrid.explorer import ExplorationResult
        from curiogrid.mapping import ObjectMap, OccupancyMap
        result = ExplorationResult(OccupancyMap(8, 6, 0.5), ObjectMap(8, 6, 0.5), 0.0, None)
        for name in ("occupancy", "objects"):
            raster = from_pgm(render_maps(result, "pgm")[name])
            assert (raster == 128).all()

    def test_three_artifacts_per_format(self):
        result = self.run_once()
        for fmt in ("pgm", "ascii"):
            art = render_maps(result, fmt)
            assert set(art) == {"occupancy", "objects", "combined"}

    def test_found_is_read_off_the_estimate(self):
        from curiogrid.explorer import ExplorationResult
        from curiogrid.mapping import ObjectMap, OccupancyMap
        maps = OccupancyMap(8, 6, 0.5), ObjectMap(8, 6, 0.5)
        assert not ExplorationResult(*maps, 0.0, None).found
        assert ExplorationResult(*maps, 0.0, (2, 3)).found
        with pytest.raises(TypeError):
            ExplorationResult(*maps, 0.0, found=True, target_estimate=None)

    def test_found_run_marks_target(self):
        result = self.run_once()
        assert result.found
        combined = render_maps(result, "ascii")["combined"]
        assert "T" in combined
        tx, ty = result.target_estimate
        assert combined.splitlines()[ty][tx] == "T"

    def test_ascii_agrees_with_pgm(self):
        result = self.run_once()
        pgm = render_maps(result, "pgm")
        ascii_art = render_maps(result, "ascii")
        # the occupancy glyphs draw the label rule, not a threshold on the bytes
        labels = result.occupancy.classify()
        lines = ascii_art["occupancy"].splitlines()
        for y in range(labels.shape[0]):
            for x in range(labels.shape[1]):
                assert lines[y][x] == ".#?"[labels[y, x]]
        overlay = from_pgm(pgm["combined"])
        glyphs = {0: "#", 255: ".", 128: "?", 200: "F", 64: "*", 32: "T"}
        combined_lines = ascii_art["combined"].splitlines()
        for y in range(overlay.shape[0]):
            for x in range(overlay.shape[1]):
                assert combined_lines[y][x] == glyphs[int(overlay[y, x])]

    def test_unsupported_format(self):
        with pytest.raises(ValueError, match="format"):
            render_maps(self.run_once(), "svg")


# (8, 4) is a free cell walled in on all sides: unreachable, and never seen
POCKET_MAP = """cellsize=0.5 heading=0.0
############
#..........#
#.S..#.....#
#....#.###.#
#....#.#.#.#
#......###.#
#..........#
############
"""
_SOLO: dict = {}

# Tape stride and byte bound: the default; a fork every second sense; no fork
# past the first and a table emptied at each trial; a few forks until the
# bound is passed
_BOUNDS = [(64, 1 << 24), (2, 1 << 24), (3, 1), (2, 20_000)]


def _free_cells(map_text):
    return [(x, y) for y, row in enumerate(map_text.splitlines()[1:])
            for x, ch in enumerate(row) if ch != "#"]


def _solo(placement, method, cfg, map_text=POCKET_MAP):
    """`explore` on a fresh parse of `map_text` with the object at `placement`."""
    key = map_text, placement, method, cfg
    if key not in _SOLO:
        world = load_map(map_text).with_target(placement)
        _SOLO[key] = harness.explore(world, method, math.radians(60), math.radians(30), cfg)
    return _SOLO[key]


def _poses(tape):
    """The pose of each sense the tape recorded."""
    return [record[0] for record in tape.senses]


class TestTape:
    """`run_trial` through a map's shared target-free tape equals a solo run."""

    @pytest.fixture(autouse=True)
    def tapes(self, monkeypatch):
        monkeypatch.setattr(explorer, "_TAPES", {})

    def _trial(self, placement, method, cfg, map_text=POCKET_MAP):
        return run_trial(map_text, placement, method, math.radians(60), math.radians(30), cfg)

    # TINY_MAP marks a target of its own at (8, 3), which the tape must not see
    @pytest.mark.parametrize("map_text, cells", [(POCKET_MAP, [(2, 2), (8, 4)]),
                                                 (TINY_MAP, [(2, 2), (8, 3)])],
                             ids=["pocket", "tiny"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), method=st.sampled_from(harness.METHODS),
           budget=st.sampled_from([120.0, 1.0]), eta=st.sampled_from([1.9, 0.3]),
           bound=st.sampled_from(_BOUNDS))
    def test_tape_equals_solo_runs_in_any_order(self, map_text, cells, data, method, budget,
                                                eta, bound):
        # cells: the start, and the pocket or the map's own 'T'. eta = 0.3
        # makes most sightings too weak to find on their own.
        placements = data.draw(st.lists(st.sampled_from(_free_cells(map_text)),
                                        min_size=1, max_size=10))
        stride, limit = bound
        explorer._TAPES.clear()
        cfg = ExperimentConfig(eta=eta, budget=budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explorer, "_TAPE_STRIDE", stride)
            mp.setattr(explorer, "_TAPE_LIMIT", limit)
            for placement in placements + cells:
                assert outcome(self._trial(placement, method, cfg, map_text)) == \
                    outcome(_solo(placement, method, cfg, map_text))
            assert len(explorer._TAPES) == 1

    def _sighting(self, placement, cfg, tape):
        """The first of the tape's senses whose `detect` sees `placement`."""
        world = load_map(POCKET_MAP).with_target(placement)
        camera = cfg.sensor_suite(math.radians(60), math.radians(30)).camera
        return next(i for i, pose in enumerate(_poses(tape))
                    if detect(world, pose, camera) is not None)

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_weak_sighting_found_past_the_tape_end(self, method):
        # eta = 0.3: (2, 1) is sighted at the second sense but found senses
        # later. A fresh tape stops at the sighting; a baseline trial reads on
        # and advances it, a cdos trial runs alone from there.
        cfg = ExperimentConfig(eta=0.3, budget=120.0)
        res = self._trial((2, 1), method, cfg)
        assert res.found and outcome(res) == outcome(_solo((2, 1), method, cfg))
        tape = next(iter(explorer._TAPES.values()))
        i = self._sighting((2, 1), cfg, tape)
        assert res.trajectory.index(_poses(tape)[i]) < len(res.trajectory) - 2
        if method == "baseline":
            assert res.trajectory[-1] in _poses(tape)[i + 1:]
        else:
            assert len(tape.senses) == i + 1 and not tape.done

    @pytest.mark.parametrize("method", harness.METHODS)
    @pytest.mark.parametrize("budget", [120.0, 1.0], ids=["frontiers", "budget"])
    @pytest.mark.parametrize("bound", _BOUNDS)
    def test_sighted_but_never_found(self, method, budget, bound, monkeypatch):
        # (1, 1) is sighted once, weakly, and the run ends unfound when the
        # frontiers run out, or earlier when the budget is spent. The first
        # trial takes a fresh tape, the second the tape the first left.
        monkeypatch.setattr(explorer, "_TAPE_STRIDE", bound[0])
        monkeypatch.setattr(explorer, "_TAPE_LIMIT", bound[1])
        cfg = ExperimentConfig(eta=0.3, budget=budget)
        solo = _solo((1, 1), method, cfg)
        world = load_map(POCKET_MAP).with_target((1, 1))
        camera = cfg.sensor_suite(math.radians(60), math.radians(30)).camera
        assert not solo.found and any(detect(world, p, camera) for p in solo.trajectory)
        for _ in range(2):
            assert outcome(self._trial((1, 1), method, cfg)) == outcome(solo)

    @staticmethod
    def _packaged(map_id):
        """A short-budget config, the text of a packaged map and one sampled
        placement in each of three of its zones."""
        cfg = replace(default_config(), budget=30.0)
        text = Path(getattr(cfg, f"map_{map_id}")).read_text()
        zones = load_zones(Path(cfg.zone_file).read_text(), load_map(text))
        return cfg, text, [cell for zone_id in (2, 3, 5)
                           for cell in sample_zone_points(zones[zone_id], 1, zone_id)]

    @pytest.mark.parametrize("map_id", ["sparse", "dense"])
    def test_packaged_maps(self, map_id):
        cfg, text, placements = self._packaged(map_id)
        for method in harness.METHODS:
            for placement in placements:
                assert outcome(self._trial(placement, method, cfg, text)) == \
                    outcome(_solo(placement, method, cfg, text))

    @pytest.mark.parametrize("map_id", ["sparse", "dense"])
    def test_a_run_has_at_most_one_lead(self, map_id):
        # Only a detection's cell gets positive object evidence, and `detect`
        # reports only the target, so a run's object log odds are positive at
        # its target alone, if anywhere: a scored decision sums one lead term
        # at most.
        cfg, text, placements = self._packaged(map_id)
        leads = []
        for method in harness.METHODS:
            for placement in placements:
                for res in (self._trial(placement, method, cfg, text),
                            _solo(placement, method, cfg, text)):
                    ys, xs = np.nonzero(res.objects.log_odds > 0.0)
                    leads.append(list(zip(xs.tolist(), ys.tolist())))
                    assert leads[-1] in ([], [placement])
        assert any(leads)

    @pytest.mark.parametrize("method", harness.METHODS)
    @pytest.mark.parametrize("bound", _BOUNDS)
    def test_emptied_sensing_cache(self, method, bound, monkeypatch):
        # the tape is whole before the cache is emptied, and a cache of 8
        # poses is emptied again within the replay of any trial
        monkeypatch.setattr(explorer, "_TAPE_STRIDE", bound[0])
        monkeypatch.setattr(explorer, "_TAPE_LIMIT", bound[1])
        cfg = ExperimentConfig(eta=0.3, budget=120.0)
        self._trial((8, 4), method, cfg)
        for table in explorer._SENSE_CACHE.values():
            table.clear()
        monkeypatch.setattr(explorer, "_SENSE_CACHE_LIMIT", 8)
        for placement in ((2, 1), (1, 1), (10, 6)):
            assert outcome(self._trial(placement, method, cfg)) == \
                outcome(_solo(placement, method, cfg))

    def test_baseline_trial_decides_nothing_of_its_own(self, monkeypatch):
        # found senses after its sighting, sighted and never found, never seen
        cfg = ExperimentConfig(eta=0.3, budget=120.0)
        own = []
        for name in ("_sense", "_to_next_pose"):
            def counted(ex, _call=getattr(explorer._Explorer, name), _name=name):
                if all(ex is not t.live for t in explorer._TAPES.values()):
                    own.append(_name)
                return _call(ex)
            monkeypatch.setattr(explorer._Explorer, name, counted)
        for placement in ((2, 1), (1, 1), (8, 4)):
            assert outcome(self._trial(placement, "baseline", cfg)) == \
                outcome(_solo(placement, "baseline", cfg))
        assert own == []

    def test_cdos_trial_senses_from_its_sighting(self, monkeypatch):
        cfg = ExperimentConfig(eta=0.3, budget=120.0)
        self._trial((8, 4), "cdos", cfg)  # never seen: the whole tape
        tape = next(iter(explorer._TAPES.values()))
        sensed = []
        sense = explorer._Explorer._sense
        monkeypatch.setattr(explorer._Explorer, "_sense",
                            lambda ex: sensed.append(ex.pose) or sense(ex))
        for placement in ((1, 1), (10, 1)):
            sensed.clear()
            world = load_map(POCKET_MAP).with_target(placement)
            solo = harness.explore(world, "cdos", math.radians(60), math.radians(30), cfg)
            solo_senses = len(sensed)
            sensed.clear()
            assert outcome(self._trial(placement, "cdos", cfg)) == outcome(solo)
            i = self._sighting(placement, cfg, tape)
            assert i > 0 and i % explorer._TAPE_STRIDE
            assert sensed[0] == _poses(tape)[i] and len(sensed) == solo_senses - i

    @pytest.mark.parametrize("method", harness.METHODS)
    @pytest.mark.parametrize("map_id", ["sparse", "dense"])
    def test_tape_counts_what_it_holds(self, map_id, method):
        # A whole tape's count against the bytes it allocated, within 10%, on
        # the maps the byte model was fitted on
        cfg = default_config()
        text = Path(getattr(cfg, f"map_{map_id}")).read_text()
        settings_ = harness._settings(method, cfg.alphas[0], cfg.betas[0], cfg)
        explorer._Explorer(load_map(text), *settings_).run()  # fill the sensing cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape = explorer._Tape(explorer._Explorer(load_map(text), *settings_))
            while not tape.done:
                tape._advance()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.forks) > 2
        assert 0.9 * held < tape.nbytes < 1.1 * held

    def test_pocket_is_unreachable_and_never_found(self):
        world = load_map(POCKET_MAP)
        assert not harness._ground_truth_reachable(world)[4, 8]
        for method in harness.METHODS:
            assert not _solo((8, 4), method, ExperimentConfig(eta=1.9, budget=120.0)).found

    def test_eviction_keeps_results(self, monkeypatch):
        cfg = ExperimentConfig(eta=1.9, budget=120.0)
        self._trial((10, 6), "cdos", cfg)
        tape = next(iter(explorer._TAPES.values()))
        monkeypatch.setattr(explorer, "_TAPE_LIMIT", tape.nbytes - 1)
        res = self._trial((10, 1), "cdos", cfg)
        assert next(iter(explorer._TAPES.values())) is not tape
        assert outcome(res) == outcome(_solo((10, 1), "cdos", cfg))

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_undetected_results_share_nothing(self, method):
        cfg = ExperimentConfig(eta=1.9, budget=120.0)
        a = self._trial((8, 4), method, cfg)
        b = self._trial((8, 4), method, cfg)
        assert not a.found and outcome(a) == outcome(b)
        for x, y in ((a.occupancy.log_odds, b.occupancy.log_odds),
                     (a.objects.log_odds, b.objects.log_odds)):
            assert not np.shares_memory(x, y)
        assert a.trajectory is not b.trajectory and a.steps is not b.steps
        # writing into one result changes neither the other nor later trials
        a.occupancy.log_odds += 1.0
        a.objects.log_odds += 1.0
        a.trajectory.clear()
        a.steps.clear()
        assert outcome(b) == outcome(_solo((8, 4), method, cfg))
        assert outcome(self._trial((8, 4), method, cfg)) == outcome(b)


class TestTrialPurity:
    def test_run_trial_is_reproducible(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        a = run_trial(TINY_MAP, (8, 3), "cdos", math.radians(60), math.radians(30), cfg)
        b = run_trial(TINY_MAP, (8, 3), "cdos", math.radians(60), math.radians(30), cfg)
        assert steps_jsonl(a) == steps_jsonl(b)
        assert a.elapsed == b.elapsed

    def test_run_trial_parses_each_map_once(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        harness._parsed_map.cache_clear()
        for placement in ((8, 3), (7, 1)):
            run_trial(TINY_MAP, placement, "baseline", math.radians(60), math.radians(30), cfg)
        assert harness._parsed_map.cache_info().misses == 1

    def test_zone_runs_search_each_map_once(self, tiny_dir, monkeypatch):
        searched = []
        search = harness._ground_truth_reachable
        monkeypatch.setattr(harness, "_ground_truth_reachable",
                            lambda world: searched.append(world) or search(world))
        harness._reachable.cache_clear()
        first = run_zone_experiment(tiny_config(tiny_dir))
        second = run_zone_experiment(tiny_config(tiny_dir, seed=4))
        assert len(searched) == 1
        assert [r.reachable for r in first.records + second.records] == [
            bool(search(load_map(TINY_MAP))[r.placement[1], r.placement[0]])
            for r in first.records + second.records]
        with pytest.raises(ValueError, match="read-only"):
            harness._reachable(TINY_MAP)[0, 0] = True

    def test_run_trial_reports_every_map_error(self, tiny_dir):
        bad = TINY_MAP.replace("#.S", "#?S")
        with pytest.raises(MapError) as first:
            load_map(bad)
        for _ in range(2):  # a failed parse is not cached
            with pytest.raises(MapError, match=re.escape(str(first.value))):
                run_trial(bad, (8, 3), "cdos", math.radians(60), math.radians(30),
                          tiny_config(tiny_dir))

    def test_unknown_method_rejected(self, tiny_dir):
        with pytest.raises(ConfigError, match="method"):
            run_trial(TINY_MAP, (8, 3), "wander", 1.0, 0.5, tiny_config(tiny_dir))

    def test_baseline_step_log_reads_configured_curiosity_constants(self, tiny_dir):
        # Both methods make their first decision after the same sensing at the
        # start, so the step logs' first total curiosity must agree.
        cfg = tiny_config(tiny_dir, curiosity_a=-0.4, curiosity_b=0.2, curiosity_kappa=0.9)
        first = [run_trial(TINY_MAP, (8, 3), method, math.radians(60), math.radians(30),
                           cfg).steps[0].total_curiosity for method in ("cdos", "baseline")]
        default = run_trial(TINY_MAP, (8, 3), "baseline", math.radians(60), math.radians(30),
                            tiny_config(tiny_dir)).steps[0].total_curiosity
        assert first[0] == first[1] != default


def test_path_length_takes_whole_cells():
    # at 0.3 m the absolute centres of neighbouring cells lie 0.3 apart, give
    # or take a few ulps by cell index (cells 1 and 2: 0.30000000000000004);
    # a trial's path length is the path_cost of its cells, wherever the map
    # lies, and a turn in place adds nothing
    cs = 0.3
    for x0 in (0, 1, 3, 8, 40):
        cells = [(x0, 3), (x0 + 1, 3), (x0 + 1, 3), (x0 + 2, 4)]
        trajectory = [Pose((x + 0.5) * cs, (y + 0.5) * cs, 0.0) for x, y in cells]
        result = explorer.ExplorationResult(OccupancyMap(50, 10, cs), ObjectMap(50, 10, cs),
                                            0.0, None, trajectory)
        assert harness._trajectory_length(result) == 0.3 + math.sqrt(2.0) * 0.3
