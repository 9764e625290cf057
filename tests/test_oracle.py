import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from curiogrid import explorer, harness
from curiogrid.harness import default_config, run_trial
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
@given(walled_maps(), st.sampled_from(harness.METHODS))
def test_loop_equals_the_spec(case, method):
    # a solo run and a trial read off the map's tape, each field for field
    # against the reference loop of the per-scan spec
    text, target = case
    cfg = default_config()
    alpha, beta = cfg.alphas[0], cfg.betas[0]
    world = load_map(text).with_target(target)
    want = oracle.outcome(oracle.run(
        world, method, cfg.sensor_suite(alpha, beta), cfg.motion_config(), cfg.budget,
        cfg.mapping_config(), cfg.detection_threshold, cfg.curiosity_params()))
    assert oracle.outcome(harness.explore(world, method, alpha, beta, cfg)) == want
    assert oracle.outcome(run_trial(text, target, method, alpha, beta, cfg)) == want


@settings(max_examples=30, deadline=None)
@given(walled_maps(cell_sizes=(0.25, 0.5)), st.sampled_from(harness.METHODS),
       st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(any))
def test_a_run_does_not_depend_on_where_the_map_lies(case, method, shift):
    # The map padded with k wall columns on the left and j wall rows on top
    # runs the same, shifted by (k, j) cells. At a power-of-two cell size
    # every centre and every offset between centres is exact, wherever the
    # map lies. At 0.3 m their rounding depends on the cell index, and a
    # shifted run may differ (ROADMAP: lattice-relative geometry).
    text, target = case
    k, j = shift
    header, *rows = text.splitlines()
    padded = "\n".join([header] + ["#" * (k + len(rows[0]))] * j
                       + ["#" * k + row for row in rows]) + "\n"
    cfg = default_config()
    alpha, beta = cfg.alphas[0], cfg.betas[0]
    world = load_map(text)
    cs = world.cell_size

    def cell(c):
        return None if c is None else (c[0] + k, c[1] + j)

    def pose(p):
        return Pose(p.x + k * cs, p.y + j * cs, p.heading)

    run = harness.explore(world.with_target(target), method, alpha, beta, cfg)
    moved = harness.explore(load_map(padded).with_target(cell(target)), method, alpha, beta,
                            cfg)
    assert (moved.elapsed, moved.found, moved.target_estimate) == (
        run.elapsed, run.found, cell(run.target_estimate))
    assert moved.trajectory == [pose(p) for p in run.trajectory]
    # total_curiosity is left out: the padding's unknown cells add curiosity
    assert [replace(s, total_curiosity=0.0) for s in moved.steps] == [
        replace(s, pose=pose(s.pose), frontier=cell(s.frontier), total_curiosity=0.0)
        for s in run.steps]
