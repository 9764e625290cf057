import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from curiogrid import curiosity, explorer, harness, mapping, sensor
from curiogrid.harness import default_config, fixture_path, run_trial
from curiogrid.world import Pose, load_map

import oracle


@st.composite
def walled_maps(draw, cell_sizes=(0.25, 0.3)):
    """The text of a walled map of at most 24 x 24 cells with random inner
    walls and a start on a free cell, at one of `cell_sizes` (m), and a free
    cell for the target or None."""
    width, height = draw(st.integers(6, 24)), draw(st.integers(6, 24))
    inner = draw(st.lists(st.integers(0, 4), min_size=(width - 2) * (height - 2),
                          max_size=(width - 2) * (height - 2)))
    rows = [["#"] * width for _ in range(height)]
    free = []
    for i, v in enumerate(inner):
        x, y = 1 + i % (width - 2), 1 + i // (width - 2)
        if v < 4:
            rows[y][x] = "."
            free.append((x, y))
    if not free:
        rows[1][1] = "."
        free = [(1, 1)]
    sx, sy = draw(st.sampled_from(free))
    rows[sy][sx] = "S"
    cell_size = draw(st.sampled_from(cell_sizes))
    heading = draw(st.sampled_from([0.0, 0.5, math.pi / 4.0, -math.pi / 2.0]))
    text = f"cellsize={cell_size!r} heading={heading!r}\n" + "".join(
        "".join(row) + "\n" for row in rows)
    return text, draw(st.one_of(st.none(), st.sampled_from(free)))


@pytest.fixture(autouse=True)
def tapes(monkeypatch):
    monkeypatch.setattr(explorer, "_TAPES", {})


@settings(max_examples=24, deadline=None)
@given(walled_maps(), st.sampled_from(harness.METHODS), st.sampled_from([None, 0.9]))
def test_loop_equals_the_spec(case, method, p_hit):
    # A solo run and a trial read off the map's tape, each field for field
    # against the reference loop of the per-scan spec. Under the packaged
    # settings no walk is ever blocked. At p_hit = 0.9 one hit turns a cell
    # seen free once OCCUPIED, and a beam's hit at a lattice corner can fall
    # on a free cell, so some walks find their path blocked and replan.
    text, target = case
    cfg = default_config()
    if p_hit is not None:
        cfg = replace(cfg, p_hit=p_hit)
    alpha, beta = cfg.alphas[0], cfg.betas[0]
    world = load_map(text).with_target(target)
    want = oracle.outcome(oracle.run(world, cfg.run_settings(method, alpha, beta)))
    assert oracle.outcome(harness.explore(world, method, alpha, beta, cfg)) == want
    assert oracle.outcome(run_trial(text, target, method, alpha, beta, cfg)) == want


@settings(max_examples=60, deadline=None)
@given(walled_maps(cell_sizes=(0.25, 0.5, 0.3, 0.2)), st.sampled_from(harness.METHODS),
       st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(any))
def test_a_run_does_not_depend_on_where_the_map_lies(case, method, shift):
    # The map padded with k wall columns on the left and j wall rows on top
    # runs the same, shifted by (k, j) cells. Every pose stands at a cell
    # centre, and every offset from it is taken from whole cells, so the
    # run's headings, distances and elapsed time do not depend on where the
    # map lies, at any cell size. A pose's x and y are absolute: at a
    # power-of-two cell size the shifted poses are exact, while at 0.3 m
    # and 0.2 m their cells and headings are compared.
    text, target = case
    k, j = shift
    header, *rows = text.splitlines()
    padded = "\n".join([header] + ["#" * (k + len(rows[0]))] * j
                       + ["#" * k + row for row in rows]) + "\n"
    cfg = default_config()
    alpha, beta = cfg.alphas[0], cfg.betas[0]
    world = load_map(text)
    cs = world.cell_size

    exact = math.frexp(cs)[0] == 0.5

    def cell(c):
        return None if c is None else (c[0] + k, c[1] + j)

    def pose(p, shifted=(0, 0)):
        if exact:
            return Pose(p.x + shifted[0] * cs, p.y + shifted[1] * cs, p.heading)
        return (math.floor(p.x / cs) + shifted[0], math.floor(p.y / cs) + shifted[1]), p.heading

    run = harness.explore(world.with_target(target), method, alpha, beta, cfg)
    moved = harness.explore(load_map(padded).with_target(cell(target)), method, alpha, beta,
                            cfg)
    assert (moved.elapsed, moved.found, moved.target_estimate) == (
        run.elapsed, run.found, cell(run.target_estimate))
    assert [pose(p) for p in moved.trajectory] == [pose(p, shift) for p in run.trajectory]
    # total_curiosity is left out: the padding's unknown cells add curiosity
    assert [replace(s, pose=pose(s.pose), total_curiosity=0.0) for s in moved.steps] == [
        replace(s, pose=pose(s.pose, shift), frontier=cell(s.frontier), total_curiosity=0.0)
        for s in run.steps]


# The loop's fast paths, each by every attribute a caller looks it up at.
FAST_PATHS = {
    "sense_cells": [(sensor, "sense_cells"), (explorer, "sense_cells"),
                    (curiosity, "sense_cells")],
    "add_scan_evidence": [(mapping.OccupancyMap, "add_scan_evidence")],
    "add_observation_evidence": [(mapping.ObjectMap, "add_observation_evidence")],
    "_fuse": [(explorer._Explorer, "_fuse")],
    "_decide": [(explorer, "_decide")],
    "_wedge": [(explorer._Explorer, "_wedge")],
    "wedge_stencil": [(sensor, "wedge_stencil"), (explorer, "wedge_stencil")],
    "edge_labels": [(mapping, "edge_labels"), (explorer, "edge_labels")],
    "_edges": [(mapping, "_edges")],
    "object_classes": [(mapping, "object_classes"), (explorer, "object_classes")],
}


class Reached(Exception):
    """A fast path was called."""


def _patched(patch, names):
    """Make each fast path in `names` raise `Reached`, over empty memos, so
    that a run which needs one cannot read it out of a cache."""
    for name in names:
        for owner, attr in FAST_PATHS[name]:
            def reached(*args, name=name, **kwargs):
                raise Reached(name)
            patch.setattr(owner, attr, reached)
    for owner, attr in ((explorer, "_SENSE_CACHE"), (sensor, "_FAN_TABLES"),
                        (sensor, "_STENCILS")):
        patch.setattr(owner, attr, {})


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_every_patched_fast_path_stops_the_loop(name):
    # each patch is live: a loop run reaches that path
    cfg = default_config()
    world = load_map(fixture_path("sparse.map").read_text())
    with pytest.MonkeyPatch.context() as patch:
        _patched(patch, [name])
        with pytest.raises(Reached, match=name):
            harness.explore(world, "cdos", cfg.alphas[0], cfg.betas[0], cfg)


def _run_patched(text, target, method):
    """The oracle's run on the map `text` with every fast path patched to raise."""
    cfg = default_config()
    world = load_map(text).with_target(target)
    with pytest.MonkeyPatch.context() as patch:
        _patched(patch, FAST_PATHS)
        return oracle.run(world, cfg.run_settings(method, cfg.alphas[0], cfg.betas[0]))


@settings(max_examples=6, deadline=None)
@given(walled_maps(), st.sampled_from(harness.METHODS))
def test_the_oracle_reaches_no_fast_path(case, method):
    assert _run_patched(*case, method).trajectory


def test_the_oracle_scores_without_a_fast_path():
    # a lead makes the cdos pick score its candidates' camera views
    res = _run_patched(fixture_path("sparse.map").read_text(), (12, 22), "cdos")
    assert any(step.loss > 0.0 for step in res.steps)
