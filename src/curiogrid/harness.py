"""Experiment harness: zone placements, fov sweeps, CSV output, map rendering.

Every trial is a pure function of (map text, placement, settings), so trials
can be dispatched to a process pool without changing a single output byte:
records are sorted into a canonical order before anything is written. The
trials of one map, method and settings are read off one shared target-free
search, the explorer's tape (`explorer.run_taped`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import statistics
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .curiosity import CuriosityParams
from .explorer import (ExplorationResult, MotionConfig, SensorSuite, check_run_limits,
                       detect_frontiers, run_solo, run_taped, _dijkstra, _index, _padded,
                       _PICKS)
from .mapping import (FREE, OCCUPIED, MappingConfig, glyph_text, occupancy_glyphs,
                      object_glyphs, quantize, raster_pgm)
from .sensor import CameraConfig, IrConfig
from .world import GridWorld, load_map, load_zones, sample_zone_points

METHODS = tuple(_PICKS)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a zone experiment or fov sweep needs, with spec defaults.

    Angles are stored in radians; the config file takes degrees. eta = None
    selects the default confidence scale of 0.19 * cam_range (confidence 0.95
    at 20% of camera range). A bad value raises ConfigError naming its key.
    """

    map_sparse: Optional[str] = None
    map_dense: Optional[str] = None
    zone_file: Optional[str] = None
    samples_per_zone: int = 20
    seed: int = 0
    alphas: tuple[float, ...] = (math.radians(60.0),)
    betas: tuple[float, ...] = (math.radians(30.0),)
    ir_range: float = 2.0
    cam_range: float = 2.0
    eta: Optional[float] = None
    lambda1: float = 0.10
    lambda2: float = 0.95
    curiosity_a: float = -0.5
    curiosity_b: float = 0.1
    curiosity_kappa: float = 0.62
    p_hit: float = 0.7
    p_miss: float = 0.35
    p_miss_cam: float = 0.3
    p_free_max: float = 0.35
    p_occ_min: float = 0.65
    max_velocity: float = 2.0
    budget: float = 600.0
    detection_threshold: float = 0.95
    ir_ray_count: int = 0
    cam_ray_count: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples_per_zone < 1:
            raise ConfigError("samples_per_zone must be at least 1")
        if not self.alphas or not self.betas:
            raise ConfigError("alphas_deg and betas_deg must be non-empty")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        checks = [(key, *owner, getattr(self, key)) for key, owner in _OWNERS.items()]
        checks += [("alphas_deg", CameraConfig, "fov", v) for v in self.alphas]
        checks += [("betas_deg", IrConfig, "fov", v) for v in self.betas]
        for key, owner, name, value in checks:
            try:
                owner(**{name: value})
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        try:  # these rules name their fields, which are the file keys
            self.mapping_config()
            check_run_limits(self.budget, self.detection_threshold)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def maps(self) -> list[tuple[str, str]]:
        out = []
        if self.map_sparse:
            out.append(("sparse", self.map_sparse))
        if self.map_dense:
            out.append(("dense", self.map_dense))
        if not out:
            raise ConfigError("no map files configured")
        return out

    def mapping_config(self) -> MappingConfig:
        return MappingConfig(self.p_hit, self.p_miss, self.p_miss_cam,
                             self.p_free_max, self.p_occ_min, self.lambda1, self.lambda2)

    def curiosity_params(self) -> CuriosityParams:
        return CuriosityParams(self.curiosity_a, self.curiosity_b, self.curiosity_kappa)

    def motion_config(self) -> MotionConfig:
        return MotionConfig(self.max_velocity)

    def sensor_suite(self, alpha: float, beta: float) -> SensorSuite:
        return SensorSuite(
            ir=IrConfig(beta, self.ir_range, self.ir_ray_count),
            camera=CameraConfig(alpha, self.cam_range, self.eta, self.cam_ray_count),
        )


# Each key one other settings type checks, with that type and the field it fills;
# the mapping keys, budget and detection_threshold are named as their fields.
_OWNERS = {
    "ir_range": (IrConfig, "max_range"),
    "ir_ray_count": (IrConfig, "ray_count"),
    "cam_range": (CameraConfig, "max_range"),
    "cam_ray_count": (CameraConfig, "ray_count"),
    "eta": (CameraConfig, "conf_scale"),
    "max_velocity": (MotionConfig, "max_velocity"),
    "curiosity_a": (CuriosityParams, "offset"),
    "curiosity_b": (CuriosityParams, "stiffness"),
    "curiosity_kappa": (CuriosityParams, "peak"),
}


def parse_config(text: str, base_dir: Optional[Path] = None) -> ExperimentConfig:
    """Parse a key = value config file; relative paths resolve against base_dir.
    Keys are ExperimentConfig's fields, but the fov lists are alphas_deg/betas_deg.
    A key given twice raises ConfigError."""
    types = {f"{k}_deg" if k in ("alphas", "betas") else k: t
             for k, t in get_type_hints(ExperimentConfig).items()}
    values: dict = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first on line {first[key]})")
        first[key] = lineno
        try:
            if key in ("alphas_deg", "betas_deg"):
                values[key.removesuffix("_deg")] = tuple(
                    math.radians(float(v)) for v in val.replace(",", " ").split())
            elif types[key] == Optional[str]:
                path = Path(val)
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                values[key] = str(path)
            else:
                values[key] = int(val) if types[key] is int else float(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(), base_dir=path.parent)


def fixture_path(name: str) -> Path:
    """Path of a packaged fixture file (maps, zones, default config)."""
    return Path(str(resources.files("curiogrid") / "fixtures" / name))


def default_config() -> ExperimentConfig:
    """The packaged experiment configuration."""
    return load_config(fixture_path("experiment.cfg"))


@dataclass(frozen=True)
class TrialRecord:
    map_id: str
    zone_id: int
    placement: tuple[int, int]
    method: str
    alpha: float
    beta: float
    seed: int
    delta_t: float
    found: bool
    reachable: bool
    steps: int
    path_length: float

    def sort_key(self):
        return (self.map_id, self.zone_id, self.placement, self.method)


def _trajectory_length(result: ExplorationResult) -> float:
    total = 0.0
    for a, b in zip(result.trajectory, result.trajectory[1:]):
        total += math.hypot(b.x - a.x, b.y - a.y)
    return total


def placement_seed(base_seed: int, map_index: int, zone_id: int) -> int:
    """Stable per-(map, zone) seed for placement sampling."""
    return base_seed * 9973 + map_index * 101 + zone_id


def _ground_truth_reachable(world: GridWorld) -> np.ndarray:
    """Mask of the cells reachable from the start over ground-truth free cells."""
    free, width = _padded(~world.occupied, False)
    start = _index(world.cell_of(world.start.x, world.start.y), width)
    dist = _dijkstra(free.tobytes(), width, start, world.cell_size)[0]
    return np.isfinite(np.reshape(dist, (-1, width))[1:-1, 1:-1])


def _settings(method: str, alpha: float, beta: float, cfg: ExperimentConfig) -> tuple:
    """The settings of a `method` run, as `run_solo` and `run_taped` take them."""
    if method not in _PICKS:
        raise ConfigError(f"unknown method {method!r}")
    return (cfg.sensor_suite(alpha, beta), cfg.motion_config(), cfg.budget,
            cfg.mapping_config(), cfg.detection_threshold, cfg.curiosity_params(),
            _PICKS[method])


def explore(world: GridWorld, method: str, alpha: float, beta: float,
            cfg: ExperimentConfig) -> ExplorationResult:
    """One `method` run on `world`: camera fov alpha, IR fov beta (radians)."""
    return run_solo(world, _settings(method, alpha, beta, cfg))


@functools.lru_cache(maxsize=8)
def _parsed_map(map_text: str) -> GridWorld:
    """`load_map`, once per map text and process; callers must not mutate
    the world (`with_target` copies it). A MapError is raised, not cached."""
    return load_map(map_text)


@functools.lru_cache(maxsize=8)
def _reachable(map_text: str) -> np.ndarray:
    """`_ground_truth_reachable` of the parsed map, once per map text and
    process; the mask is read-only."""
    mask = _ground_truth_reachable(_parsed_map(map_text))
    mask.setflags(write=False)
    return mask


def run_trial(map_text: str, placement: tuple[int, int], method: str,
              alpha: float, beta: float, cfg: ExperimentConfig) -> ExplorationResult:
    """One exploration run with the object at `placement`: `explore` on the
    map with that target, taken from the map's shared tape (`run_taped`)."""
    return run_taped((map_text, _settings(method, alpha, beta, cfg)),
                     _parsed_map(map_text).with_target(placement))


def _run_trial_task(args) -> TrialRecord:
    map_id, map_text, zone_id, placement, method, alpha, beta, cfg, reachable = args
    result = run_trial(map_text, placement, method, alpha, beta, cfg)
    return TrialRecord(map_id, zone_id, placement, method, alpha, beta, cfg.seed,
                       result.elapsed, result.found, reachable, len(result.steps),
                       _trajectory_length(result))


def _run_trial_tasks(tasks: list) -> list[TrialRecord]:
    """`_run_trial_task` of each task of one (map, method), in order: one
    task of a serial or a pooled run, so that one process builds the tape
    its trials share."""
    return [_run_trial_task(t) for t in tasks]


@dataclass
class ZoneSummary:
    map_id: str
    zone_id: int
    method: str
    trials: int
    found: int
    unreachable: int
    mean_dt: float
    std_dt: float


@dataclass
class ZoneExperiment:
    records: list[TrialRecord] = field(default_factory=list)
    summaries: list[ZoneSummary] = field(default_factory=list)


def summarize(records: list[TrialRecord]) -> list[ZoneSummary]:
    """Aggregate trial records per (map, zone, method).

    Means and standard deviations run over found trials only; unreachable
    placements are counted separately and never enter the statistics.
    """
    groups: dict[tuple[str, int, str], list[TrialRecord]] = {}
    for rec in sorted(records, key=TrialRecord.sort_key):
        groups.setdefault((rec.map_id, rec.zone_id, rec.method), []).append(rec)
    out = []
    for (map_id, zone_id, method), recs in groups.items():
        times = [r.delta_t for r in recs if r.found]
        unreachable = sum(1 for r in recs if not r.reachable)
        mean_dt = statistics.fmean(times) if times else 0.0
        std_dt = statistics.pstdev(times) if len(times) > 1 else 0.0
        out.append(ZoneSummary(map_id, zone_id, method, len(recs), len(times),
                               unreachable, mean_dt, std_dt))
    return out


def run_zone_experiment(cfg: ExperimentConfig,
                        out_dir: Optional[Path] = None) -> ZoneExperiment:
    """Place the object at sampled points of every zone of every map and race
    both methods against each placement, with camera fov alphas[0] and IR fov
    betas[0]. Writes trials.csv and summary.csv when out_dir is given."""
    alpha, beta = cfg.alphas[0], cfg.betas[0]
    if cfg.zone_file is None:
        raise ConfigError("zone_file is required for zone experiments")
    zone_text = Path(cfg.zone_file).read_text()

    groups: dict[tuple[str, str], list] = {}  # by map and method: the trials one tape serves
    for map_index, (map_id, map_path) in enumerate(cfg.maps()):
        map_text = Path(map_path).read_text()
        zones = load_zones(zone_text, _parsed_map(map_text))
        reachable_mask = _reachable(map_text)
        for zone_id in sorted(zones):
            seed = placement_seed(cfg.seed, map_index, zone_id)
            placements = sample_zone_points(zones[zone_id], cfg.samples_per_zone, seed)
            for placement in placements:
                reachable = bool(reachable_mask[placement[1], placement[0]])
                for method in METHODS:
                    groups.setdefault((map_id, method), []).append(
                        (map_id, map_text, zone_id, placement, method, alpha, beta, cfg,
                         reachable))

    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(groups))) as pool:
            done = list(pool.map(_run_trial_tasks, groups.values()))
    else:
        done = map(_run_trial_tasks, groups.values())
    records = sorted((r for group in done for r in group), key=TrialRecord.sort_key)

    experiment = ZoneExperiment(records, summarize(records))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trials.csv").write_bytes(trials_csv(records))
        (out_dir / "summary.csv").write_bytes(summary_csv(experiment.summaries))
    return experiment


def _csv(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def trials_csv(records: list[TrialRecord]) -> bytes:
    return _csv(["map", "zone", "placement_x", "placement_y", "method", "alpha_deg",
                 "beta_deg", "seed", "delta_t", "found", "reachable", "steps", "path_length"],
                ([r.map_id, r.zone_id, r.placement[0], r.placement[1], r.method,
                  repr(math.degrees(r.alpha)), repr(math.degrees(r.beta)), r.seed,
                  repr(r.delta_t), int(r.found), int(r.reachable), r.steps,
                  repr(r.path_length)] for r in sorted(records, key=TrialRecord.sort_key)))


def summary_csv(summaries: list[ZoneSummary]) -> bytes:
    return _csv(["map", "zone", "method", "trials", "found", "unreachable", "mean_dt",
                 "std_dt"],
                ([s.map_id, s.zone_id, s.method, s.trials, s.found, s.unreachable,
                  repr(s.mean_dt), repr(s.std_dt)] for s in summaries))


@dataclass
class SweepRow:
    vary: str
    value_deg: float
    map_id: str
    zone_id: int  # 0 = pooled over all zones
    method: str
    found: int
    mean_dt: float


def run_fov_sweep(cfg: ExperimentConfig, vary: str,
                  out_dir: Optional[Path] = None) -> list[SweepRow]:
    """Re-run the zone experiment for each configured fov of the varied sensor.

    vary is "alpha" (each of cfg.alphas, IR fixed at betas[0]) or "beta"
    (each of cfg.betas, camera fixed at alphas[0]). Writes sweep.csv when
    out_dir is given."""
    if vary not in ("alpha", "beta"):
        raise ConfigError("vary must be 'alpha' or 'beta'")
    key = f"{vary}s"
    values = getattr(cfg, key)
    if len(values) < 2:
        raise ConfigError("a sweep needs at least two values")

    rows: list[SweepRow] = []
    for value in values:
        experiment = run_zone_experiment(replace(cfg, **{key: (value,)}))
        pooled = summarize([replace(r, zone_id=0) for r in experiment.records])
        rows.extend(SweepRow(vary, math.degrees(value), s.map_id, s.zone_id, s.method,
                             s.found, s.mean_dt) for s in experiment.summaries + pooled)

    rows.sort(key=lambda r: (r.vary, r.value_deg, r.map_id, r.zone_id, r.method))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_bytes(sweep_csv(rows))
    return rows


def sweep_csv(rows: list[SweepRow]) -> bytes:
    return _csv(["vary", "value_deg", "map", "zone", "method", "found", "mean_dt"],
                ([r.vary, repr(r.value_deg), r.map_id, r.zone_id, r.method, r.found,
                  repr(r.mean_dt)] for r in rows))


# Byte values used in the combined overlay rendering; the ASCII overlay maps
# the same values to glyphs one-to-one.
_OVERLAY_BYTES = {"occupied": 0, "free": 255, "unknown": 128,
                  "frontier": 200, "object": 64, "target": 32}
_OVERLAY_GLYPHS = "".join({0: "#", 255: ".", 128: "?", 200: "F", 64: "*", 32: "T"}.get(b, " ")
                          for b in range(256))


def _overlay_bytes(result: ExplorationResult) -> np.ndarray:
    labels = result.occupancy.classify()
    out = np.full(labels.shape, _OVERLAY_BYTES["unknown"], dtype=np.uint8)
    out[labels == FREE] = _OVERLAY_BYTES["free"]
    out[labels == OCCUPIED] = _OVERLAY_BYTES["occupied"]
    for x, y in detect_frontiers(result.occupancy):
        out[y, x] = _OVERLAY_BYTES["frontier"]
    classified = result.objects.classified()
    out[classified > result.objects.cfg.lambda2] = _OVERLAY_BYTES["object"]
    if result.found and result.target_estimate is not None:
        tx, ty = result.target_estimate
        out[ty, tx] = _OVERLAY_BYTES["target"]
    return out


def render_maps(result: ExplorationResult, fmt: str) -> dict[str, bytes | str]:
    """Three artifacts per run: occupancy map, object map, combined overlay.

    fmt "pgm" yields binary P5 images (probability * 255 for the two belief
    maps); fmt "ascii" yields glyph grids derived from the same quantized
    bytes, so the two formats always agree cell for cell.
    """
    occ_bytes = quantize(result.occupancy.probabilities())
    obj_bytes = quantize(result.objects.classified())
    overlay = _overlay_bytes(result)
    if fmt == "pgm":
        return {"occupancy": raster_pgm(occ_bytes), "objects": raster_pgm(obj_bytes),
                "combined": raster_pgm(overlay)}
    if fmt == "ascii":
        return {
            "occupancy": occupancy_glyphs(occ_bytes, result.occupancy.cfg),
            "objects": object_glyphs(obj_bytes),
            "combined": glyph_text(overlay, _OVERLAY_GLYPHS),
        }
    raise ValueError(f"unsupported render format {fmt!r}")


def steps_jsonl(result: ExplorationResult) -> str:
    """Line-delimited step log for one exploration run."""
    lines = []
    for s in result.steps:
        lines.append(json.dumps({
            "step": s.step,
            "x": s.pose.x, "y": s.pose.y, "heading": s.pose.heading,
            "frontier": list(s.frontier), "loss": s.loss,
            "total_curiosity": s.total_curiosity,
            "path_length": s.path_length, "elapsed": s.elapsed, "mode": s.mode,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def trajectory_jsonl(result: ExplorationResult) -> str:
    """Line-delimited pose trace for one exploration run."""
    lines = [json.dumps({"x": p.x, "y": p.y, "heading": p.heading}, sort_keys=True)
             for p in result.trajectory]
    return "\n".join(lines) + ("\n" if lines else "")
