"""Curiosity scoring over the object map and curiosity-driven frontier choice.

Cell curiosity is an inverted parabola over object probability, peaking at
p = 0.5 and clamped at zero. A candidate frontier is scored by the expected
drop in total curiosity after simulating what the camera would observe from
there: each visible cell's probability is extrapolated by the ratio of its
current distance to its distance from the candidate, fused as new evidence,
re-classified, and re-scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .mapping import OCCUPIED, ObjectMap, OccupancyMap, classify_object_probabilities
from .sensor import CameraConfig, camera_sweep
from .world import Cell, Pose


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
    """Curiosity attached to a single cell of object probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return max(0.0, -((p + params.offset) ** 2) / (4.0 * params.stiffness) + params.peak)


def curiosity_of(values: np.ndarray, params: CuriosityParams) -> np.ndarray:
    """Vectorized curiosity curve over an array of probabilities."""
    arr = np.asarray(values, dtype=float)
    return np.maximum(0.0, -((arr + params.offset) ** 2) / (4.0 * params.stiffness) + params.peak)


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
    """Cells a camera sweep from `pose` would see free, against belief occupancy.

    This is `camera_sweep` over the cells labeled OCCUPIED; unknown cells are
    treated as transparent. Blocking cells themselves are not part of the
    result, which mirrors the fact that blocked cells never receive object
    evidence.
    """
    return camera_sweep(occ_labels == OCCUPIED, cell_size, pose, cam)[0]


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
    raw = objects.raw_probabilities()
    classified = objects.classified()
    labels = occupancy.classify()
    return _loss_over(raw, classified, labels, objects.cfg.lambda1,
                      objects.cfg.lambda2, occupancy.cell_size, current,
                      candidate, cam, params)


def _loss_over(raw: np.ndarray, classified: np.ndarray, occ_labels: np.ndarray,
               lambda1: float, lambda2: float, cell_size: float, current: Pose,
               candidate: Pose, cam: CameraConfig, params: CuriosityParams,
               leads_only: bool = False) -> float:
    loss = 0.0
    for cx, cy in visible_from(occ_labels, cell_size, candidate, cam):
        p_raw = raw[cy, cx]
        if leads_only and not p_raw > 0.5:
            continue
        p_class = classified[cy, cx]
        c_now = cell_curiosity(p_class, params)
        if c_now <= 0.0:
            continue
        x = (cx + 0.5) * cell_size
        y = (cy + 0.5) * cell_size
        d_now = math.hypot(x - current.x, y - current.y)
        d_next = math.hypot(x - candidate.x, y - candidate.y)
        if d_now <= 1e-12:
            continue
        p_evidence = 1.0 if d_next <= 1e-12 else predict_observation(p_raw, d_now, d_next)
        post = classify_object_probabilities(bayes_fuse(p_raw, p_evidence), lambda1, lambda2)
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
    evidence. A map without leads scores every candidate 0.0, so no candidate
    is scored at all then. When no candidate scores, everything ties at zero
    and the tie-break applies: nearest the current pose, then lowest
    row-major cell index. The candidate's simulated heading faces along the
    travel direction.
    """
    if not frontiers:
        raise ValueError("no frontiers to select from")
    raw = objects.raw_probabilities()
    scored = bool((raw > 0.5).any())
    if scored:
        classified = objects.classified()
        labels = occupancy.classify()
    cs = occupancy.cell_size
    best: tuple[float, float, int] | None = None
    best_cell: Cell | None = None
    best_loss = 0.0
    for cell in frontiers:
        x, y = (cell[0] + 0.5) * cs, (cell[1] + 0.5) * cs
        dist = math.hypot(x - current.x, y - current.y)
        loss = 0.0
        if scored:
            heading = (current.heading if dist < 1e-12
                       else math.atan2(y - current.y, x - current.x))
            loss = _loss_over(raw, classified, labels, objects.cfg.lambda1,
                              objects.cfg.lambda2, cs, current, Pose(x, y, heading), cam,
                              params, leads_only=True)
        key = (-loss, dist, cell[1] * occupancy.width + cell[0])
        if best is None or key < best:
            best = key
            best_cell = cell
            best_loss = loss
    return FrontierChoice(best_cell, best_loss)
