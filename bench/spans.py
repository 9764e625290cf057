"""Span tracing around curiogrid's module boundaries, from outside the program.

Each traced entry point is replaced, at the attribute its caller looks up, by
a wrapper that records one span: name, parent span, start and end. Spans stay
in memory (flat arrays) until the workload ends; a span's self time is its
duration minus the time its child spans cover.

Trials dispatched to a forked process pool run under the same wrappers. Each
worker keeps the spans of one trial and writes them to the pass directory when
the trial ends, because a pool worker has no hook that runs when the
experiment is over.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import curiogrid.curiosity
import curiogrid.explorer
import curiogrid.harness
import curiogrid.mapping
import curiogrid.mission
import curiogrid.sensor

TRIAL = "harness.trial"


def _count_ir(counts, args, scan):
    counts["sensor.rays"] += len(scan.beams)


def _count_camera(counts, args, obs):
    counts["sensor.rays"] += args[2].ray_count
    counts["sensor.cells_seen"] += len(obs.seen_free) + len(obs.seen_blocked)


def _count_dijkstra(counts, args, result):
    counts["explorer.dijkstra.cells_reached"] += int(np.isfinite(result[0]).sum())


def _count_select(counts, args, choice):
    counts["curiosity.candidates"] += len(args[0])
    counts["curiosity.select_frontier.useful"] += int(choice.loss > 0.0)


def _count_visible(counts, args, cells):
    counts["curiosity.visible_from.cells"] += len(cells)


# (owner, attribute the caller looks up, span name, counter hook)
TARGETS = (
    (curiogrid.sensor, "trace_ray", "world.trace_ray", None),
    (curiogrid.explorer, "ir_scan", "sensor.ir_scan", _count_ir),
    (curiogrid.explorer, "camera_observe", "sensor.camera_observe", _count_camera),
    (curiogrid.mapping.OccupancyMap, "integrate_scan", "mapping.integrate_scan", None),
    (curiogrid.mapping.ObjectMap, "integrate_observation", "mapping.integrate_observation",
     None),
    (curiogrid.mapping.OccupancyMap, "classify", "mapping.classify", None),
    (curiogrid.mapping.ObjectMap, "classified", "mapping.classified", None),
    (curiogrid.explorer, "_dijkstra", "explorer.dijkstra", _count_dijkstra),
    (curiogrid.explorer, "detect_frontiers", "explorer.detect_frontiers", None),
    (curiogrid.explorer, "local_frontiers", "explorer.local_frontiers", None),
    (curiogrid.explorer._Explorer, "run", "explorer.loop", None),
    (curiogrid.explorer, "select_frontier", "curiosity.select_frontier", _count_select),
    (curiogrid.curiosity, "visible_from", "curiosity.visible_from", _count_visible),
    (curiogrid.explorer, "total_curiosity", "curiosity.total_curiosity", None),
    (curiogrid.harness, "_ground_truth_reachable", "harness.reachable", None),
    (curiogrid.harness, "_run_trial_task", TRIAL, None),
    (curiogrid.mission, "plan_path", "mission.plan_path", None),
    (curiogrid.mission, "run_mission", "mission.run_mission", None),
)


class Tracer:
    """Records spans for every entry point in TARGETS once installed."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.names: list[str] = []
        self.dumps = 0
        self._clear()

    def _clear(self) -> None:
        self.ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def span(self, name: str, fn, count=None):
        """`fn` wrapped so that each call records one span named `name`."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.starts)
            self.ids.append(nid)
            self.parents.append(self.stack[-1])
            self.ends.append(0.0)
            self.stack.append(i)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            traced = self.span(name, getattr(owner, attr), count)
            if name == TRIAL:
                traced = self._worker_boundary(traced)
            setattr(owner, attr, traced)

    def _worker_boundary(self, task):
        """Hand one trial's spans to the pass directory when run in a pool worker.

        The wrapper keeps the task's import path, so the pool still pickles
        it by reference and the forked worker resolves it to this wrapper.
        """
        @functools.wraps(task)
        def boundary(args):
            if os.getpid() == self.pid:
                return task(args)
            self._clear()  # spans inherited from the parent at fork time
            try:
                return task(args)
            finally:
                self._dump()
        return boundary

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"ids": np.frombuffer(self.ids, dtype=np.uint16),
                "parents": np.frombuffer(self.parents, dtype=np.int32),
                "starts": np.frombuffer(self.starts, dtype=np.float64),
                "ends": np.frombuffer(self.ends, dtype=np.float64)}

    def _dump(self) -> None:
        self.dumps += 1
        path = self.out_dir / f"spans-{os.getpid()}-{self.dumps}.npz"
        np.savez(path, names=np.array(self.names), counts=np.array(json.dumps(self.counts)),
                 **self._arrays())
        self._clear()

    def layer_totals(self) -> dict[str, Counter]:
        """Calls, self seconds and total seconds per span name, and the
        counters, over this process and every pool worker dump in the pass
        directory."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        counts: Counter = Counter(self.counts)
        stores = [(self.names, self._arrays())]
        for path in sorted(self.out_dir.glob("spans-*.npz")):
            with np.load(path) as data:
                stores.append((list(data["names"]), {k: data[k] for k in
                                                     ("ids", "parents", "starts", "ends")}))
                counts.update(json.loads(str(data["counts"])))
        for names, a in stores:
            duration = a["ends"] - a["starts"]
            child = a["parents"] >= 0
            covered = np.bincount(a["parents"][child], weights=duration[child],
                                  minlength=len(duration))
            by_name_calls = np.bincount(a["ids"], minlength=len(names))
            by_name_self = np.bincount(a["ids"], weights=duration - covered,
                                       minlength=len(names))
            by_name_total = np.bincount(a["ids"], weights=duration, minlength=len(names))
            for nid, name in enumerate(names):
                calls[name] += int(by_name_calls[nid])
                self_s[name] += float(by_name_self[nid])
                total_s[name] += float(by_name_total[nid])
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "counts": counts}
