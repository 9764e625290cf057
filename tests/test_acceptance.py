"""Acceptance suite: one test per criterion, each printing a pass line.

The experiment-backed criteria (zone ordering, clutter effect, fov sweeps,
determinism) run the packaged arena fixtures end to end with the packaged
configuration; everything is seeded, so results are frozen.
"""

import itertools
import math
import statistics
import sys
from dataclasses import replace

import numpy as np
import pytest

from curiogrid.cli import main as cli_main
from curiogrid.curiosity import CuriosityParams, cell_curiosity, select_frontier
from curiogrid.explorer import path_cost, plan_path
from curiogrid.harness import (default_config, fixture_path, run_fov_sweep,
                               run_zone_experiment, summarize)
from curiogrid.mapping import (Label, MappingConfig, ObjectMap, OccupancyMap,
                               classify_object_probabilities, logit)
from curiogrid.mission import (MissionEvent, MissionPhase, TetherMode, TetherState,
                               TransitionError, mode_from_tether, step_mission)
from curiogrid.sensor import Beam, CameraConfig, IrScan
from curiogrid.world import Pose

from oracle import brute_force_cost, scored_selection


def _report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}", file=sys.__stdout__, flush=True)


# --- criterion 1 -----------------------------------------------------------

def test_criterion_01_curiosity_curve():
    assert cell_curiosity(0.5) == 0.62
    samples = np.concatenate([np.linspace(0.0, 1.0, 500),
                              np.random.default_rng(1).uniform(0.0, 1.0, 500)])
    for p in samples:
        assert abs(cell_curiosity(float(p)) - cell_curiosity(float(1.0 - p))) < 1e-12
    _report("criterion 1 — curiosity curve peak 0.62 and symmetry over 1000 samples")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_02_object_classification():
    out = classify_object_probabilities(np.array([[0.05, 0.50, 0.97]]), 0.10, 0.95)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.5 and out[0, 2] == 0.97
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(0.0, 1.0, size=(8, 8))
        once = classify_object_probabilities(p, 0.10, 0.95)
        twice = classify_object_probabilities(once, 0.10, 0.95)
        assert (once == twice).all()
    _report("criterion 2 — lambda classification cases and idempotence on 100 maps")


# --- criterion 3 -----------------------------------------------------------

def test_criterion_03_update_order_invariance():
    rng = np.random.default_rng(3)
    origin = Pose(0.25, 0.25, 0.0)
    hit_beam = Beam(0.0, 0.25, True)     # strikes cell (1, 0) at its near face
    miss_beam = Beam(0.0, 0.6, False)    # sweeps through cell (1, 0)
    for _ in range(200):
        cfg = MappingConfig(p_hit=float(rng.uniform(0.55, 0.95)),
                            p_miss=float(rng.uniform(0.05, 0.45)))
        n_hits = int(rng.integers(1, 4))
        n_miss = int(rng.integers(1, 4))
        sequence = [hit_beam] * n_hits + [miss_beam] * n_miss
        results = []
        for perm in set(itertools.permutations(sequence)):
            omap = OccupancyMap(2, 1, 0.5, cfg)
            for beam in perm:
                omap.integrate_scan(IrScan(origin, (beam,)))
            results.append(omap.probabilities()[0, 1])
        assert max(results) - min(results) <= 1e-9
    _report("criterion 3 — Bayesian update order-invariant over 200 multisets")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_04_frontier_selection_oracle():
    rng = np.random.default_rng(4)
    cam = CameraConfig(math.radians(60), 3.0, 1.0)
    params = CuriosityParams()
    checked = 0
    while checked < 50:
        size = int(rng.integers(4, 9))
        cfg = MappingConfig()
        occ = OccupancyMap(size, size, 1.0, cfg)
        occ.log_odds = rng.choice([logit(0.05), 0.0, logit(0.9)],
                                  size=(size, size), p=[0.6, 0.3, 0.1])
        obj = ObjectMap(size, size, 1.0, cfg)
        obj.log_odds = rng.choice([0.0, logit(0.75), logit(0.25)],
                                  size=(size, size), p=[0.6, 0.25, 0.15])
        labels = occ.classify()
        free_cells = [(x, y) for y in range(size) for x in range(size)
                      if labels[y, x] == Label.FREE]
        if len(free_cells) < 4:
            continue
        idx = rng.choice(len(free_cells), size=min(4, len(free_cells)), replace=False)
        frontiers = [free_cells[i] for i in idx]
        cx, cy = free_cells[int(rng.integers(len(free_cells)))]
        current = Pose(cx + 0.5, cy + 0.5, float(rng.uniform(0.0, 2 * math.pi)))
        got = select_frontier(frontiers, obj, occ, current, cam, params)
        assert got.cell == scored_selection(frontiers, obj, occ, current, cam, params)[0]
        checked += 1
    _report("criterion 4 — frontier argmax matches exhaustive oracle on 50 maps")


# --- criterion 5 -----------------------------------------------------------

def test_criterion_05_path_planner_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        blocked = rng.random((20, 20)) < 0.25
        blocked[0, 0] = False
        blocked[19, 19] = False
        occ = OccupancyMap(20, 20, 1.0)
        occ.log_odds = np.where(blocked, logit(0.9), logit(0.05))
        path = plan_path(occ, (0, 0), (19, 19))
        want = brute_force_cost(~blocked, (0, 0), (19, 19))
        if path is None:
            assert want is None
        else:
            assert path_cost(path, 1.0) == pytest.approx(want, abs=1e-9)
    _report("criterion 5 — path cost matches uniform-cost oracle on 50 maps")


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_mission_state_machine():
    listed = {
        (MissionPhase.AERIAL_EXPLORATION, MissionEvent.HIDDEN_SPACE_FOUND): MissionPhase.LANDING,
        (MissionPhase.LANDING, MissionEvent.TOUCHDOWN): MissionPhase.HIDDEN_EXPLORATION,
        (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION): MissionPhase.OBJECT_TRACKING,
        (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.FRONTIERS_EXHAUSTED): MissionPhase.RETRACTING,
        (MissionPhase.OBJECT_TRACKING, MissionEvent.WITHIN_GRAB_RANGE): MissionPhase.GRABBING,
        (MissionPhase.GRABBING, MissionEvent.GRAB_COMPLETE): MissionPhase.RETRACTING,
    }
    for phase in MissionPhase:
        for event in MissionEvent:
            if (phase, event) in listed:
                assert step_mission(phase, event, detection_conf=0.99) is listed[(phase, event)]
            elif (phase, event) == (MissionPhase.RETRACTING, MissionEvent.RETRACT_COMPLETE):
                assert step_mission(phase, event, object_aboard=False) is MissionPhase.AERIAL_CONTINUE
                assert step_mission(phase, event, object_aboard=True) is None
            else:
                with pytest.raises(TransitionError):
                    step_mission(phase, event, detection_conf=0.99, object_aboard=True)
    state = lambda lt: TetherState(5.0, 3.0, lt, 2.8)
    assert mode_from_tether(state(0.0)) is TetherMode.AERIAL
    assert mode_from_tether(state(2.8)) is TetherMode.LANDING
    assert mode_from_tether(state(3.0)) is TetherMode.GROUND
    assert mode_from_tether(state(5.0)) is TetherMode.GROUND
    _report("criterion 6 — transition table exhaustive and tether boundaries exact")


# --- criteria 7 and 8 share one full zone experiment -----------------------

@pytest.fixture(scope="module")
def zone_experiment():
    cfg = replace(default_config(), workers=2)
    assert cfg.samples_per_zone == 20
    assert cfg.ir_range == cfg.cam_range  # the evaluation setting: equal ranges
    assert cfg.alphas[0] == pytest.approx(math.radians(60))
    assert cfg.betas[0] == pytest.approx(math.radians(30))
    return run_zone_experiment(cfg)


def _zone_means(experiment, map_id):
    means = {}
    for s in experiment.summaries:
        if s.map_id == map_id:
            means[(s.zone_id, s.method)] = s.mean_dt
    return means


def test_criterion_07_zone_ordering(zone_experiment):
    means = _zone_means(zone_experiment, "sparse")
    for zone in (2, 3, 4, 5):
        assert means[(zone, "cdos")] <= means[(zone, "baseline")] + 1e-9, (
            f"zone {zone}: cdos {means[(zone, 'cdos')]:.3f} "
            f"vs baseline {means[(zone, 'baseline')]:.3f}")
    a, b = means[(1, "cdos")], means[(1, "baseline")]
    assert abs(a - b) <= 0.15 * max(a, b) + 1e-9
    found = [r for r in zone_experiment.records if r.map_id == "sparse"]
    assert all(r.found for r in found)
    _report("criterion 7 — sparse zone ordering: cdos <= baseline in zones 2-5, "
            f"zone 1 means {a:.3f}/{b:.3f}")


def test_criterion_08_clutter_shrinks_advantage(zone_experiment):
    ratios = {}
    for map_id in ("sparse", "dense"):
        pooled = {}
        for method in ("cdos", "baseline"):
            times = [r.delta_t for r in zone_experiment.records
                     if r.map_id == map_id and r.method == method and r.found
                     and r.zone_id in (2, 3, 4, 5)]
            assert times
            pooled[method] = statistics.fmean(times)
        ratios[map_id] = pooled["baseline"] / pooled["cdos"]
    assert ratios["dense"] <= ratios["sparse"] + 1e-9
    _report("criterion 8 — advantage ratio dense "
            f"{ratios['dense']:.3f} <= sparse {ratios['sparse']:.3f}")


# --- criterion 9 ------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_config():
    return replace(default_config(), map_dense=None, workers=2)


def test_criterion_09_fov_sweeps(sweep_config, zone_experiment):
    # The 60 deg alpha point is the (60, 30) run, which no assertion reads
    # from the alpha rows, so it is left out here.
    alphas = (math.radians(30), math.radians(90))
    alpha_rows = run_fov_sweep(replace(sweep_config, alphas=alphas), "alpha")
    pooled = {(round(r.value_deg), r.method): r.mean_dt
              for r in alpha_rows if r.zone_id == 0}
    assert pooled[(90, "cdos")] <= pooled[(30, "cdos")] + 1e-9

    # The beta sweep's 30 deg point is the (60, 30) run on the sparse map that
    # the criterion 7/8 fixture has made with the same seed and map index, so
    # it is pooled from those records as run_fov_sweep pools its own.
    betas = (math.radians(20), math.radians(45))
    beta_rows = run_fov_sweep(replace(sweep_config, betas=betas), "beta")
    pooled_b = {(round(r.value_deg), r.method): r.mean_dt
                for r in beta_rows if r.zone_id == 0}
    sparse = [replace(r, zone_id=0) for r in zone_experiment.records if r.map_id == "sparse"]
    pooled_b.update(((30, s.method), s.mean_dt) for s in summarize(sparse))
    beta_values = sorted({beta for beta, _ in pooled_b})
    for beta in beta_values:
        assert pooled_b[(beta, "cdos")] <= pooled_b[(beta, "baseline")] + 1e-9, (
            f"beta {beta}: cdos {pooled_b[(beta, 'cdos')]:.3f} "
            f"vs baseline {pooled_b[(beta, 'baseline')]:.3f}")
    _report("criterion 9 — camera sweep monotone at 90 vs 30 deg; "
            f"cdos <= baseline for beta in {beta_values}")


# --- criterion 10 -----------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    cfg_text = (fixture_path("experiment.cfg").read_text()
                .replace("samples_per_zone = 20", "samples_per_zone = 2")
                .replace("map_dense = dense.map", "")
                .replace("map_sparse = sparse.map",
                         f"map_sparse = {fixture_path('sparse.map')}")
                .replace("zone_file = arena.zones",
                         f"zone_file = {fixture_path('arena.zones')}"))
    serial_cfg = tmp_path / "serial.cfg"
    serial_cfg.write_text(cfg_text)
    parallel_cfg = tmp_path / "parallel.cfg"
    parallel_cfg.write_text(cfg_text.replace("workers = 1", "workers = 2"))

    outs = [tmp_path / name for name in ("z1", "z2", "z3")]
    assert cli_main(["zones", "--config", str(serial_cfg), "--out", str(outs[0])]) == 0
    assert cli_main(["zones", "--config", str(serial_cfg), "--out", str(outs[1])]) == 0
    assert cli_main(["zones", "--config", str(parallel_cfg), "--out", str(outs[2])]) == 0
    for name in ("trials.csv", "summary.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    renders = [tmp_path / name for name in ("r1", "r2")]
    for out in renders:
        assert cli_main(["explore", "--map", str(fixture_path("sparse.map")),
                         "--method", "cdos", "--config", str(serial_cfg),
                         "--render", str(out)]) == 0
    for name in ("occupancy.pgm", "objects.pgm", "combined.pgm", "steps.jsonl",
                 "trajectory.jsonl"):
        assert (renders[0] / name).read_bytes() == (renders[1] / name).read_bytes()

    missions = [tmp_path / name for name in ("m1", "m2")]
    for out in missions:
        assert cli_main(["mission", "--map", str(fixture_path("sparse.map")),
                         "--config", str(serial_cfg), "--out", str(out)]) == 0
    assert (missions[0] / "mission.log").read_bytes() == (missions[1] / "mission.log").read_bytes()
    _report("criterion 10 — byte-identical reruns, including 2-worker dispatch")
