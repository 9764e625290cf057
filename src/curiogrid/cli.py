"""Command line interface.

Subcommands:
    explore  -- one exploration run on a map, optional rendered maps + step log
    zones    -- the full zone experiment (both methods, all zones, CSV output)
    sweep    -- zone experiment repeated across a list of fov values
    mission  -- one full mission trace including mode switching and the grab

Exit codes: 0 success, 1 configuration or I/O error, 2 invariant violation
detected during a run.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .explorer import InvariantError
from .harness import (METHODS, ConfigError, default_config, explore, load_config, render_maps,
                      run_fov_sweep, run_zone_experiment, steps_jsonl, trajectory_jsonl)
from .world import MapError, ZoneError, load_map


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curiogrid",
                                     description="Curiosity-driven object search simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_explore = sub.add_parser("explore", help="single exploration run")
    p_explore.add_argument("--map", required=True, help="map file path")
    p_explore.add_argument("--method", choices=METHODS, default="cdos")
    p_explore.add_argument("--alpha", type=float, help="camera fov, degrees (default: config)")
    p_explore.add_argument("--beta", type=float, help="IR fov, degrees (default: config)")
    p_explore.add_argument("--config", help="experiment config file (defaults packaged)")
    p_explore.add_argument("--render", help="directory for rendered maps and step log")
    p_explore.add_argument("--format", choices=("ascii", "pgm"), default="pgm")

    p_zones = sub.add_parser("zones", help="full zone experiment")
    p_zones.add_argument("--config", help="experiment config file (defaults packaged)")
    p_zones.add_argument("--out", required=True, help="output directory for CSVs")

    p_sweep = sub.add_parser("sweep", help="fov sweep experiment")
    p_sweep.add_argument("--config", help="experiment config file (defaults packaged)")
    p_sweep.add_argument("--vary", choices=("alpha", "beta"), required=True)
    p_sweep.add_argument("--values", help="comma-separated fov values in degrees")
    p_sweep.add_argument("--out", required=True, help="output directory for CSVs")

    p_mission = sub.add_parser("mission", help="full mission trace")
    p_mission.add_argument("--map", required=True, help="map file path")
    p_mission.add_argument("--config", help="experiment config file (defaults packaged)")
    p_mission.add_argument("--out", help="output directory for the mission log")
    return parser


def _config_from(args) -> "ExperimentConfig":
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _with_fovs(cfg, vary: str, degrees, option: str) -> "ExperimentConfig":
    """`cfg` with its alphas or betas replaced by `degrees`, range-checked as
    alphas_deg/betas_deg are; a bad value raises ConfigError naming `option`."""
    try:
        return replace(cfg, **{f"{vary}s": tuple(math.radians(float(v)) for v in degrees)})
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from None


def _cmd_explore(args) -> int:
    cfg = _config_from(args)
    for vary in ("alpha", "beta"):
        if getattr(args, vary) is not None:
            cfg = _with_fovs(cfg, vary, [getattr(args, vary)], f"--{vary}")
    world = load_map(Path(args.map).read_text())
    result = explore(world, args.method, cfg.alphas[0], cfg.betas[0], cfg)
    print(f"found={result.found} elapsed={result.elapsed:.3f}s "
          f"steps={len(result.steps)} target={result.target_estimate}")
    if args.render:
        out = Path(args.render)
        out.mkdir(parents=True, exist_ok=True)
        ext = "pgm" if args.format == "pgm" else "txt"
        for name, payload in render_maps(result, args.format).items():
            path = out / f"{name}.{ext}"
            if isinstance(payload, bytes):
                path.write_bytes(payload)
            else:
                path.write_text(payload)
        (out / "steps.jsonl").write_text(steps_jsonl(result))
        (out / "trajectory.jsonl").write_text(trajectory_jsonl(result))
        print(f"wrote maps, step log, and trajectory to {out}")
    return 0


def _cmd_zones(args) -> int:
    cfg = _config_from(args)
    experiment = run_zone_experiment(cfg, out_dir=Path(args.out))
    for s in experiment.summaries:
        print(f"{s.map_id} zone {s.zone_id} {s.method}: "
              f"mean_dt={s.mean_dt:.3f}s found={s.found}/{s.trials}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    if args.values:
        cfg = _with_fovs(cfg, args.vary, args.values.split(","), "--values")
    rows = run_fov_sweep(cfg, args.vary, out_dir=Path(args.out))
    for r in rows:
        if r.zone_id == 0:
            print(f"{r.vary}={r.value_deg:.0f}deg {r.map_id} {r.method}: "
                  f"mean_dt={r.mean_dt:.3f}s found={r.found}")
    return 0


def _cmd_mission(args) -> int:
    from .mission import mission_log_lines, run_mission  # only this command loads it
    cfg = _config_from(args)
    world = load_map(Path(args.map).read_text())
    sensors = cfg.sensor_suite(cfg.alphas[0], cfg.betas[0])
    trace = run_mission(world, sensors, cfg.curiosity_params(), cfg.motion_config(),
                        cfg.mapping_config(), cfg.budget, cfg.detection_threshold)
    lines = mission_log_lines(trace)
    for line in lines:
        print(line)
    print(f"object_retrieved={trace.object_retrieved} elapsed={trace.elapsed:.3f}s")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "mission.log").write_text("\n".join(lines) + "\n")
    return 0


_COMMANDS = {"explore": _cmd_explore, "zones": _cmd_zones,
             "sweep": _cmd_sweep, "mission": _cmd_mission}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MapError, ZoneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
