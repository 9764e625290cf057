import math
import statistics
from dataclasses import replace
from pathlib import Path

import pytest

from curiogrid.explorer import SensorSuite, explore_cdos
from curiogrid.harness import (ConfigError, ExperimentConfig, default_config,
                               load_config, parse_config, render_maps, run_fov_sweep,
                               run_trial, run_zone_experiment, steps_jsonl,
                               summary_csv, trials_csv)
from curiogrid.mapping import from_pgm
from curiogrid.sensor import CameraConfig, IrConfig
from curiogrid.world import load_map

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

    def test_missing_zone_file_rejected(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        cfg = replace(cfg, zone_file=None)
        with pytest.raises(ConfigError, match="zone_file"):
            run_zone_experiment(cfg)


class TestFovSweep:
    def test_sweep_needs_two_values(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        with pytest.raises(ConfigError, match="two values"):
            run_fov_sweep(cfg, "alpha", values=(math.radians(60),))

    def test_bad_vary_rejected(self, tiny_dir):
        with pytest.raises(ConfigError, match="vary"):
            run_fov_sweep(tiny_config(tiny_dir), "gamma")

    def test_rows_cover_values_and_methods(self, tiny_dir):
        cfg = tiny_config(tiny_dir, samples_per_zone=1)
        values = (math.radians(40), math.radians(80))
        rows = run_fov_sweep(cfg, "alpha", values=values)
        degs = {round(r.value_deg) for r in rows}
        assert degs == {40, 80}
        pooled = [r for r in rows if r.zone_id == 0]
        assert {(round(r.value_deg), r.method) for r in pooled} == {
            (40, "cdos"), (40, "baseline"), (80, "cdos"), (80, "baseline")}

    def test_sweep_csv_written(self, tiny_dir, tmp_path):
        cfg = tiny_config(tiny_dir, samples_per_zone=1)
        out = tmp_path / "sweep"
        run_fov_sweep(cfg, "beta", values=(math.radians(20), math.radians(40)), out_dir=out)
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
        result = ExplorationResult(OccupancyMap(8, 6, 0.5), ObjectMap(8, 6, 0.5),
                                   0.0, False, None)
        for name in ("occupancy", "objects"):
            raster = from_pgm(render_maps(result, "pgm")[name])
            assert (raster == 128).all()

    def test_three_artifacts_per_format(self):
        result = self.run_once()
        for fmt in ("pgm", "ascii"):
            art = render_maps(result, fmt)
            assert set(art) == {"occupancy", "objects", "combined"}

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
        raster = from_pgm(pgm["occupancy"])
        cfg = result.occupancy.cfg
        lines = ascii_art["occupancy"].splitlines()
        for y in range(raster.shape[0]):
            for x in range(raster.shape[1]):
                v = raster[y, x] / 255.0
                want = "." if v < cfg.p_free_max else "#" if v > cfg.p_occ_min else "?"
                assert lines[y][x] == want
        overlay = from_pgm(pgm["combined"])
        glyphs = {0: "#", 255: ".", 128: "?", 200: "F", 64: "*", 32: "T"}
        combined_lines = ascii_art["combined"].splitlines()
        for y in range(overlay.shape[0]):
            for x in range(overlay.shape[1]):
                assert combined_lines[y][x] == glyphs[int(overlay[y, x])]

    def test_unsupported_format(self):
        with pytest.raises(ValueError, match="format"):
            render_maps(self.run_once(), "svg")


class TestTrialPurity:
    def test_run_trial_is_reproducible(self, tiny_dir):
        cfg = tiny_config(tiny_dir)
        a = run_trial(TINY_MAP, (8, 3), "cdos", math.radians(60), math.radians(30), cfg)
        b = run_trial(TINY_MAP, (8, 3), "cdos", math.radians(60), math.radians(30), cfg)
        assert steps_jsonl(a) == steps_jsonl(b)
        assert a.elapsed == b.elapsed

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
