"""Curiosity scoring over the object map and curiosity-driven frontier choice.

Cell curiosity is an inverted parabola over object probability, peaking at
p = 0.5 and clamped at zero. It has one formula, `curiosity_of`, which
`cell_curiosity` calls for one cell, so a view's score and the logged total
curiosity read the same bits. A candidate frontier is scored by the expected
drop in total curiosity after simulating what the camera would observe from
there (`visible_from`, the camera sweep): each visible cell's probability is
extrapolated by the ratio of its current distance to its distance from the
candidate, fused as new evidence, re-classified, and re-scored. `_loss_over`
sums that drop over the cells its caller names: `expected_curiosity_loss`
names every visible cell, and the cdos pick (`select_frontier`) the lead
cells the sweep sees, listed once per call. Each distance and bearing to a
cell centre is taken from whole cells (`world.cell_offset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .mapping import (OCCUPIED, MappingConfig, ObjectMap, OccupancyMap,
                      classify_object_probabilities)
from .sensor import CameraConfig, fan_codes, sense_cells
from .world import Cell, Pose, cell_offset


@dataclass(frozen=True)
class CuriosityParams:
    """Constants of the curiosity curve c(p) = max(0, -(p + offset)^2 / (4 * stiffness) + peak)."""

    offset: float = -0.5
    stiffness: float = 0.1
    peak: float = 0.62

    def __post_init__(self):
        for name in ("offset", "stiffness", "peak"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.stiffness <= 0:
            raise ValueError("stiffness must be positive")


class FrontierChoice(NamedTuple):
    cell: Cell
    loss: float


def cell_curiosity(p: float, params: CuriosityParams = CuriosityParams()) -> float:
    """`curiosity_of` of one cell of object probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return float(curiosity_of(p, params))


def curiosity_of(values: np.ndarray, params: CuriosityParams) -> np.ndarray:
    """The curiosity curve over an array of probabilities (or one), squared
    as a product: numpy's `**` squares an array so, but a scalar with `pow`,
    which rounds some values otherwise."""
    shifted = np.asarray(values, dtype=float) + params.offset
    return np.maximum(0.0, -(shifted * shifted) / (4.0 * params.stiffness) + params.peak)


def total_curiosity(objects: ObjectMap, params: CuriosityParams = CuriosityParams()) -> float:
    """Sum of per-cell curiosity over the classified object map."""
    return float(curiosity_of(objects.classified(), params).sum())


def predict_observation(p_now: float, d_now: float, d_next: float) -> float:
    """Extrapolate an observation value by the distance ratio, clamped to 1."""
    if d_now <= 0.0 or d_next <= 0.0:
        raise ValueError("distances must be positive")
    if not 0.0 <= p_now <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return min(1.0, p_now * d_now / d_next)


def bayes_fuse(p_prior: float, p_evidence: float) -> float:
    """Posterior of fusing evidence into a prior under a uniform 0.5 base rate."""
    num = p_prior * p_evidence
    den = num + (1.0 - p_prior) * (1.0 - p_evidence)
    if den == 0.0:
        return p_prior
    return num / den


def visible_from(occ_labels: np.ndarray, cell_size: float, pose: Pose,
                 cam: CameraConfig) -> list[Cell]:
    """The camera sweep: the cells the camera fan from `pose` would see free,
    each once, in row-major order; the camera part of a `sense_cells` walk
    with no IR fan. Cells labeled OCCUPIED block the rays and are not part of
    the result, as blocked cells never receive object evidence; unknown cells
    are transparent."""
    cells, _, seen_at = sense_cells(fan_codes(occ_labels == OCCUPIED), cell_size, pose,
                                    None, cam)
    ys, xs = np.divmod(cells[seen_at:], occ_labels.shape[1])
    return list(zip(xs.tolist(), ys.tolist()))


def expected_curiosity_loss(objects: ObjectMap, occupancy: OccupancyMap,
                            current: Pose, candidate: Pose, cam: CameraConfig,
                            params: CuriosityParams = CuriosityParams()) -> float:
    """Predicted total-curiosity drop if the robot observed from `candidate`.

    Only cells the candidate sweep would update contribute. The distance
    extrapolation runs on the raw cell beliefs (so accumulated detection
    evidence steers the score), while curiosity itself is always evaluated on
    the classified view. Cells at the current position (zero current
    distance) are skipped since the distance ratio is undefined there; a cell
    at the candidate position itself counts as a certain observation.
    """
    return _loss_over(objects.raw_probabilities(), objects.classified(),
                      visible_from(occupancy.classify(), occupancy.cell_size, candidate, cam),
                      objects.cfg, occupancy.cell_size, current, candidate, params)


def _loss_over(raw: np.ndarray, classified: np.ndarray, cells: Iterable[Cell],
               cfg: MappingConfig, cell_size: float, current: Pose, candidate: Pose,
               params: CuriosityParams) -> float:
    """`expected_curiosity_loss` summed over `cells`, in their order."""
    ax, ay, au, av = cell_offset(cell_size, current.x, current.y)
    bx, by, bu, bv = cell_offset(cell_size, candidate.x, candidate.y)
    loss = 0.0
    for cx, cy in cells:
        p_raw = raw[cy, cx]
        c_now = cell_curiosity(classified[cy, cx], params)
        if c_now <= 0.0:
            continue
        d_now = math.hypot((cx - ax) * cell_size - au, (cy - ay) * cell_size - av)
        d_next = math.hypot((cx - bx) * cell_size - bu, (cy - by) * cell_size - bv)
        if d_now <= 1e-12:
            continue
        p_evidence = 1.0 if d_next <= 1e-12 else predict_observation(p_raw, d_now, d_next)
        post = classify_object_probabilities(bayes_fuse(p_raw, p_evidence), cfg.lambda1,
                                             cfg.lambda2)
        c_post = cell_curiosity(float(post), params)
        loss += c_now - c_post
    return loss


def select_frontier(frontiers: Sequence[Cell], objects: ObjectMap,
                    occupancy: OccupancyMap, current: Pose, cam: CameraConfig,
                    params: CuriosityParams = CuriosityParams()) -> FrontierChoice:
    """Frontier with the highest expected curiosity loss over detection leads.

    Candidates are scored only on lead cells, whose raw object probability
    exceeds 0.5 (the argmax side condition): exploring alone never raises a
    cell above the prior, so positive scores always trace back to camera
    evidence. The leads are listed once per call, and a candidate's score
    sums over the leads its camera sweep sees, in the sweep's row-major
    order. A map without leads scores every candidate 0.0, so no candidate
    is scored at all then. When no candidate scores, everything ties at zero
    and the tie-break applies: nearest the current pose, then lowest
    row-major cell index. The candidate's simulated heading faces along the
    travel direction.
    """
    if not frontiers:
        raise ValueError("no frontiers to select from")
    leads: set[Cell] = set()
    # a log odds <= 0 gives a probability <= 0.5: only a positive one can be a lead
    if (objects.log_odds > 0).any():
        raw = objects.raw_probabilities()
        ys, xs = (raw > 0.5).nonzero()
        leads = set(zip(xs.tolist(), ys.tolist()))
    if leads:
        classified = objects.classified()
        labels = occupancy.classify()
    cs = occupancy.cell_size
    px, py, u, v = cell_offset(cs, current.x, current.y)
    best: tuple[float, float, int] | None = None
    best_cell: Cell | None = None
    best_loss = 0.0
    for cell in frontiers:
        dx, dy = (cell[0] - px) * cs - u, (cell[1] - py) * cs - v
        dist = math.hypot(dx, dy)
        loss = 0.0
        if leads:
            heading = current.heading if dist < 1e-12 else math.atan2(dy, dx)
            candidate = Pose((cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs, heading)
            seen = [c for c in visible_from(labels, cs, candidate, cam) if c in leads]
            loss = _loss_over(raw, classified, seen, objects.cfg, cs, current, candidate, params)
        key = (-loss, dist, cell[1] * occupancy.width + cell[0])
        if best is None or key < best:
            best = key
            best_cell = cell
            best_loss = loss
    return FrontierChoice(best_cell, best_loss)
