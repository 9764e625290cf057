"""The curiogrid benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload zones|coverage-large|zones-par --seed N
        --seconds S --trace 0|1 [--smoke]

Run from the repository root (or a copy of it); the program is imported from
its src/ directory. Workloads:

  zones           the zone experiment on the packaged arenas: both maps, all
                  five zones, both methods, workers = 1. Each run places the
                  object once in every rectangle of every zone (4 slots of 20
                  trials), at seeded cells.
  coverage-large  a target-less exhaustive search on a seeded, generated
                  64 x 64 arena: run_mission (cdos and the retract plan) and
                  explore_rapid_frontier, once each.
  zones-par       the zones trials at workers = 2 (process pool dispatch),
                  after an untimed serial pass whose CSV bytes it must
                  reproduce. Not in BENCHMARK.json: on a 2-vCPU host its
                  timings swing with the load on the second CPU.

Each pass of a workload runs in a fresh interpreter (bench/workload.py).
Passes repeat until --seconds have been measured; metrics are medians over
passes. Times are given at reference host speed: each untraced serial pass
times a fixed probe slice every 20 ms and divides each stretch of its measured
seconds by the slowdown the probes around it saw, because on a shared host
identical passes ran up to 2x apart (bench/workload.py). The measured seconds
are printed on the `measured` line.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs one
untraced pass and then traced passes, and prints per-layer span totals plus
the tracing overhead. Every pass checks its outputs, and all passes of a run
must reproduce the same simulated counts and output digests. The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
full report, with the run context, is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("zones", "zones-par", "coverage-large")
ARENA_SIZE = 64
SMOKE_ARENA_SIZE = 24
SETUP_SAMPLES = 5
DEADLINE_S = 150.0  # start no pass that would likely end after this
OVERRUN = 1.25  # nor one that would likely stretch the run past 1.25 x --seconds

# Spans reported as `<name>.calls` and `<name>.self_s`, and span-side counters.
PER_LAYER_SPANS = (
    "world.trace_ray", "sensor.ir_scan", "sensor.camera_observe",
    "mapping.integrate_scan", "mapping.integrate_observation", "mapping.classify",
    "mapping.classified", "explorer.dijkstra", "explorer.detect_frontiers",
    "explorer.local_frontiers", "curiosity.select_frontier", "curiosity.visible_from",
    "curiosity.total_curiosity",
)
PER_LAYER_COUNTS = (
    "sensor.rays", "sensor.cells_seen", "explorer.dijkstra.cells_reached",
    "curiosity.candidates", "curiosity.visible_from.cells",
)
# Layers only some workloads load: reported, but not part of the JSON metrics.
WORKLOAD_SPANS = ("harness.reachable", "mission.plan_path")


class PassError(RuntimeError):
    """A pass process failed or timed out."""


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one placement per zone and a small arena; for tests")
    return p.parse_args()


def _make_inputs(args, inputs: Path) -> dict:
    """Write the seeded inputs of the run; returns their description."""
    from inputs import generate_arena, slot_count, stratified_zone_files
    inputs.mkdir(parents=True)
    if args.workload == "coverage-large":
        size = SMOKE_ARENA_SIZE if args.smoke else ARENA_SIZE
        text, obstacles = generate_arena(args.seed, size)
        (inputs / "arena.map").write_text(text)
        return {"arena": f"{size}x{size}", "obstacles": obstacles}
    zone_text = (SRC / "curiogrid" / "fixtures" / "arena.zones").read_text()
    slots = 1 if args.smoke else slot_count(zone_text)
    for k, text in enumerate(stratified_zone_files(zone_text, args.seed, slots)):
        (inputs / f"slot-{k}.zones").write_text(text)
    return {"slots": slots}


def _child(argv: list[str], timeout: float) -> dict:
    """Run one bench/workload.py process; its last stdout line is JSON."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "workload.py"), *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassError(f"pass timed out after {timeout:.0f} s") from None
    finally:
        try:  # the pass and anything it left behind, such as pool workers
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _simulated(p: dict) -> dict:
    return {k: p[k] for k in ("trials", "found", "decisions", "sim_s", "digests")}


def _layer_metrics(p: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    layers = p["layers"]
    calls, self_s, total_s, counts = (layers[k] for k in ("calls", "self_s", "total_s",
                                                          "counts"))
    decisions = max(p["decisions"], 1)
    m: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_SPANS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in PER_LAYER_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    m["mapping.classify.per_decision"] = (calls.get("mapping.classify", 0) / decisions,
                                          "count")
    m["explorer.dijkstra.per_decision"] = (calls.get("explorer.dijkstra", 0) / decisions,
                                           "count")
    m["explorer.loop.self_s"] = (self_s.get("explorer.loop", 0.0), "s")
    selects = calls.get("curiosity.select_frontier", 0)
    m["curiosity.select_frontier.useful_frac"] = (
        counts.get("curiosity.select_frontier.useful", 0) / max(selects, 1), "frac")
    busy = total_s.get("harness.trial", 0.0)
    m["harness.trial.busy_s"] = (busy, "s")
    m["harness.dispatch.idle_frac"] = (1.0 - busy / (p["workers"] * p["wall_s"]), "frac")
    m["trace.overhead_s"] = (p["wall_s"] - untraced_wall, "s")
    return m


def _workload_layer_metrics(p: dict) -> dict[str, tuple[float, str]]:
    calls, self_s = p["layers"]["calls"], p["layers"]["self_s"]
    m = {}
    for name in WORKLOAD_SPANS:
        if calls.get(name):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
    if calls.get("mission.run_mission"):
        m["mission.run_mission.self_s"] = (self_s["mission.run_mission"], "s")
    return m


def _median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    return {name: (_median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def _context(args, inputs_desc: dict) -> dict:
    import numpy
    import multiprocessing
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "curiogrid").rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mp_start_method": multiprocessing.get_start_method(),
            "src_lines": src_lines, **inputs_desc}


def run(args) -> tuple[dict, list[str]]:
    """Run the workload; returns the final JSON object and the report lines."""
    started = perf_counter()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs_desc = _make_inputs(args, inputs)
    context = _context(args, inputs_desc)

    def one_pass(workload: str, trace: bool = False, setup_only: bool = False) -> dict:
        out = work / "pass"
        out.mkdir()
        argv = ["--workload", workload, "--seed", str(args.seed), "--inputs", str(inputs),
                "--out", str(out)]
        argv += ["--trace"] if trace else []
        argv += ["--setup-only"] if setup_only else []
        result = _child(argv, 175.0 - (perf_counter() - started))
        shutil.rmtree(out)
        return result

    # zones-par must reproduce the serial bytes; the serial pass is not timed
    reference = _simulated(one_pass("zones")) if args.workload == "zones-par" else None

    passes, traced = [], []
    measure_start = perf_counter()
    while True:
        tracing = bool(args.trace) and bool(passes)
        t = perf_counter()
        (traced if tracing else passes).append(one_pass(args.workload, trace=tracing))
        last = perf_counter() - t
        if args.trace and not traced:
            continue
        now = perf_counter()
        measured = now - measure_start
        if (measured >= args.seconds or measured + last > OVERRUN * args.seconds
                or now - started + last > DEADLINE_S):
            break
    setups = [(p["setup_wall_s"], p["setup_ref_s"]) for p in passes + traced]
    while len(setups) < (2 if args.smoke else SETUP_SAMPLES):
        p = one_pass(args.workload, setup_only=True)
        setups.append((p["setup_wall_s"], p["setup_ref_s"]))

    all_passes = passes + traced
    expected = _simulated(passes[0])
    problems = [e for p in all_passes for e in p["errors"]]
    if any(_simulated(p) != expected for p in all_passes):
        problems.append("passes of one run disagree on simulated counts or digests")
    if reference is not None and reference != expected:
        problems.append("zones-par output differs from the serial zones output")
    attempted = sum(p["trials"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    if problems and failed == 0:
        failed = attempted

    if args.trace:
        untraced_wall = passes[0]["wall_s"]
        metrics = _median_metrics([_layer_metrics(p, untraced_wall) for p in traced])
        extra = _median_metrics([_workload_layer_metrics(p) for p in traced])
    else:
        walls = [p["ref_s"] for p in passes]  # seconds at reference host speed
        metrics = {
            "wall_s": (_median(walls), "s"),
            "trials_per_s": (_median(p["trials"] / w for p, w in zip(passes, walls)), "1/s"),
            "decisions_per_s": (_median(p["decisions"] / w for p, w in zip(passes, walls)),
                                "1/s"),
            "setup_s": (_median(ref for _, ref in setups), "s"),
            "peak_rss_mb": (_median(p["peak_rss_mb"] for p in passes), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        extra = {}
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    lines = [f"context {k}={v}" for k, v in context.items()]
    lines += [f"passes untraced={len(passes)} traced={len(traced)} "
              f"setup_samples={len(setups)}"]
    lines += [f"simulated {k}={v}" for k, v in expected.items() if k != "digests"]
    lines += [f"sha256 {k} {v}" for k, v in expected["digests"].items()]
    lines += [f"measured wall_s={_median(p['wall_s'] for p in passes)!r} "
              f"setup_s={_median(s for s, _ in setups)!r} "
              f"slowdown={_median(p['slowdown'] for p in passes)!r}"]
    lines += [f"metric {k} {v!r} {u}" for k, (v, u) in {**metrics, **extra}.items()]
    lines += [f"problem {p}" for p in problems]
    report = {"context": context, "simulated": expected, "result": result,
              "workload_layers": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "passes": [{k: p[k] for k in ("wall_s", "ref_s", "slowdown", "setup_wall_s",
                                            "setup_ref_s", "peak_rss_mb")}
                         for p in all_passes],
              "setup_samples": setups, "problems": problems}
    (OUT / f"{work.name}.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(work)
    return result, lines


def main() -> int:
    args = _args()
    if not (SRC / "curiogrid" / "__init__.py").is_file():
        print(f"error: no curiogrid sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result, lines = run(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
