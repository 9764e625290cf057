"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 bench/workload.py --workload zones --seed 1 --inputs DIR --out DIR
        [--trace] [--setup-only]

Run by bench/run.py, once per pass, so that nothing a pass leaves in the
process (a warm per-map cache, say) speeds up the next one, just as each CLI
invocation starts cold. Prints one JSON object: set-up time, pass wall time,
the simulated counts, output digests, output-check results, peak RSS and,
with --trace, the per-layer totals.
"""

import argparse
import hashlib
import heapq
import json
import math
import os
import resource
import signal
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("zones", "zones-par", "coverage-large")

# Host-speed probe. On a shared host the speed of one vCPU drifts by tens of
# percent within a second (identical coverage passes took 12.6 to 24.6 s), far
# more than the changes this benchmark has to resolve. Every PROBE_INTERVAL_S a
# SIGALRM runs a fixed slice of work shaped like the program's hot loops: a
# uniform-cost search over a small numpy grid, with heapq, tuples and numpy
# scalar indexing. A slice's time over REFERENCE_SLICE_S (its time on a quiet
# 2-vCPU Xeon host) is the host's slowdown at that moment. _phase() divides
# each stretch of program time between two slices by the median slowdown of
# the PROBE_WINDOW slices around it, and leaves the slices' own time out.
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW = 9
REFERENCE_SLICE_S = 4.3e-4
_PROBE_FREE = np.array([[not (x == 4 and y < 6) for x in range(9)] for y in range(9)])
_PROBE_STEPS = [(dx, dy, math.hypot(dx, dy)) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                if dx or dy]
_probes: list[tuple[float, float]] = []


def _probe_slice() -> None:
    free = _PROBE_FREE
    height, width = free.shape
    dist = np.full(free.shape, np.inf)
    dist[0, 0] = 0.0
    settled = np.zeros(free.shape, dtype=bool)
    heap = [(0.0, 0, (0, 0))]
    while heap:
        d, _, (cx, cy) = heapq.heappop(heap)
        if settled[cy, cx]:
            continue
        settled[cy, cx] = True
        for dx, dy, step in _PROBE_STEPS:
            nx, ny = cx + dx, cy + dy
            if not (0 <= nx < width and 0 <= ny < height) or not free[ny, nx]:
                continue
            nd = d + step
            if nd < dist[ny, nx]:
                dist[ny, nx] = nd
                heapq.heappush(heap, (nd, ny * width + nx, (nx, ny)))


def _probe(signum, frame):
    start = perf_counter()
    _probe_slice()
    _probes.append((start, perf_counter() - start))


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _setup(args):
    """Import the program and load config, maps and zones: the timed set-up.

    The zone experiment parses its maps and zones again itself; loading them
    here times what a user pays before the first trial, and validates the
    generated zone files against both maps. numpy is imported before the
    clock starts, because the host-speed probe runs on it."""
    from curiogrid import harness, world
    cfg = harness.default_config()
    if args.workload == "coverage-large":
        return cfg, {"arena": world.load_map((args.inputs / "arena.map").read_text())}
    worlds = {}
    for map_id, path in cfg.maps():
        worlds[map_id] = world.load_map(Path(path).read_text())
        for zone_path in sorted(args.inputs.glob("slot-*.zones")):
            world.load_zones(zone_path.read_text(), worlds[map_id])
    return cfg, worlds


def _problems(result, occupied, target) -> list[str]:
    """Output checks shared by every trial: found => estimate is the target;
    no trajectory pose on an occupied cell."""
    out = []
    if result.found and result.target_estimate != target:
        out.append(f"found estimate {result.target_estimate} != target {target}")
    cs = result.occupancy.cell_size
    height, width = occupied.shape
    for pose in result.trajectory:
        cx, cy = math.floor(pose.x / cs), math.floor(pose.y / cs)
        if not (0 <= cx < width and 0 <= cy < height) or occupied[cy, cx]:
            out.append(f"trajectory pose ({pose.x}, {pose.y}) on a blocked cell")
            break
    return out


def _check_zone_trials(harness, log_dir: Path) -> None:
    """Check every zone trial where it runs, serial or in a pool worker, and
    log one line per finished trial."""
    run_trial = harness.run_trial
    occupied = {}

    def checked(map_text, placement, method, alpha, beta, cfg):
        result = run_trial(map_text, placement, method, alpha, beta, cfg)
        if map_text not in occupied:
            occupied[map_text] = harness.load_map(map_text).occupied
        problems = _problems(result, occupied[map_text], tuple(placement))
        with open(log_dir / f"checks-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps({"placement": list(placement), "method": method,
                                "problems": problems}) + "\n")
        return result
    harness.run_trial = checked


def _run_zones(args, cfg):
    from curiogrid import harness
    workers = 2 if args.workload == "zones-par" else 1
    _check_zone_trials(harness, args.out)
    slots = sorted(args.inputs.glob("slot-*.zones"))
    # each slot file holds one single-cell zone per line
    attempted = sum(len(cfg.maps()) * len(p.read_text().splitlines()) * len(harness.METHODS)
                    for p in slots)
    trials_csv, summary_csv = b"", b""
    found = decisions = 0
    sim_s = 0.0
    errors = []
    start = perf_counter()
    for k, zone_path in enumerate(slots):
        slot_cfg = replace(cfg, zone_file=str(zone_path), samples_per_zone=1,
                           seed=args.seed, workers=workers)
        out_dir = args.out / f"slot-{k}"
        try:
            experiment = harness.run_zone_experiment(slot_cfg, out_dir=out_dir)
        except Exception:  # a failed trial fails its slot; keep measuring
            errors.append(f"slot {k}: {traceback.format_exc(limit=-3)}")
            continue
        found += sum(r.found for r in experiment.records)
        decisions += sum(r.steps for r in experiment.records)
        sim_s += sum(r.delta_t for r in experiment.records)
        trials_csv += (out_dir / "trials.csv").read_bytes()
        summary_csv += (out_dir / "summary.csv").read_bytes()
    end = perf_counter()
    checked = []
    for path in args.out.glob("checks-*.jsonl"):
        checked += [json.loads(line) for line in path.read_text().splitlines()]
    bad = [c for c in checked if c["problems"]]
    errors += [f"{c['method']} at {c['placement']}: {p}" for c in bad for p in c["problems"]]
    failed = attempted - (len(checked) - len(bad))
    return {"start": start, "end": end, "workers": workers, "trials": attempted,
            "failed": failed,
            "found": found, "decisions": decisions, "sim_s": sim_s, "errors": errors,
            "digests": {"trials.csv": _sha(trials_csv), "summary.csv": _sha(summary_csv)}}


def _run_coverage(args, cfg, arena, tracer):
    from curiogrid import explorer, harness, mission
    sensors = cfg.sensor_suite(cfg.alphas[0], cfg.betas[0])

    def cdos_mission():
        return mission.run_mission(arena, sensors, cfg.curiosity_params(),
                                   cfg.motion_config(), cfg.mapping_config(), cfg.budget,
                                   cfg.detection_threshold)

    def rapid_frontier():
        return explorer.explore_rapid_frontier(arena, sensors, cfg.motion_config(),
                                               cfg.budget, cfg.mapping_config(),
                                               cfg.detection_threshold)
    if tracer is not None:  # the two searches are this workload's trials
        cdos_mission = tracer.span("harness.trial", cdos_mission)
        rapid_frontier = tracer.span("harness.trial", rapid_frontier)

    start = perf_counter()
    trace = cdos_mission()
    baseline = rapid_frontier()
    end = perf_counter()

    results = (trace.exploration, baseline)
    problems = [_problems(r, arena.occupied, arena.target) for r in results]
    if trace.object_retrieved or trace.final_phase is not mission.MissionPhase.AERIAL_CONTINUE:
        problems[0].append(f"target-less mission ended in {trace.final_phase}")
    errors = [p for ps in problems for p in ps]
    log = "\n".join(mission.mission_log_lines(trace)) + "\n"
    return {"start": start, "end": end, "workers": 1, "trials": 2,
            "failed": sum(map(bool, problems)),
            "found": sum(r.found for r in results),
            "decisions": sum(len(r.steps) for r in results),
            "sim_s": trace.elapsed + baseline.elapsed, "errors": errors,
            "digests": {"mission.log": _sha(log.encode()),
                        "steps.cdos.jsonl": _sha(harness.steps_jsonl(trace.exploration).encode()),
                        "steps.baseline.jsonl": _sha(harness.steps_jsonl(baseline).encode())}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _phase(start: float, end: float) -> dict[str, float]:
    """Program time between two perf_counter readings: `wall_s` as measured,
    `ref_s` at reference host speed, and their ratio, the phase's `slowdown`.
    Probe slices are left out of both; with no probes, ref_s is wall_s."""
    inside = [(t, d) for t, d in _probes if start <= t < end]
    wall_s = end - start - sum(d for _, d in inside)
    if not inside:
        return {"wall_s": wall_s, "ref_s": wall_s, "slowdown": 1.0}
    times = np.array([t for t, _ in inside])
    slices = np.array([d for _, d in inside])
    half = PROBE_WINDOW // 2
    padded = np.pad(slices, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, PROBE_WINDOW)
    slowdown = np.median(windows, axis=1) / REFERENCE_SLICE_S
    # stretch i runs from probe i's start (the phase start for i = 0) to the
    # next probe's start (the phase end for the last), minus probe i's slice
    stretches = np.diff(np.concatenate([[start], times[1:], [end]])) - slices
    ref_s = float((stretches / slowdown).sum())
    return {"wall_s": wall_s, "ref_s": ref_s, "slowdown": wall_s / ref_s}


def main() -> None:
    t0 = perf_counter()
    args = _args()
    cfg, worlds = _setup(args)
    setup = {f"setup_{k}": v for k, v in _phase(t0, perf_counter()).items()}
    if args.setup_only:
        print(json.dumps(setup))
        return
    if args.trace or args.workload == "zones-par":
        # spans time the program raw; pool workers share the probe's vCPUs
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    import curiogrid
    if not Path(curiogrid.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"curiogrid imported from {curiogrid.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        from spans import Tracer  # bench/ is on sys.path as this script's directory
        tracer = Tracer(args.out)
        tracer.install()
    if args.workload == "coverage-large":
        report = _run_coverage(args, cfg, worlds["arena"], tracer)
    else:
        report = _run_zones(args, cfg)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if report["workers"] > 1:
        rss_kb += report["workers"] * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(_phase(report.pop("start"), report.pop("end")), **setup,
                  peak_rss_mb=rss_kb / 1024.0)
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
    print(json.dumps(report))


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        main()
    finally:  # an alarm after the handler is gone at exit would kill the process
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
