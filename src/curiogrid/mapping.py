"""Bayesian belief maps: the IR occupancy grid and the camera object map.

Both maps accumulate evidence as log odds against a uniform 0.5 prior, which
realizes the standard recursive Bayesian filter: fusing an observation with
inverse-model probability p adds log(p / (1 - p)) to the cell. Saturation is
applied when converting back to probability, so the accumulated evidence is
order-invariant. A fusion reads and writes each cell once per map: one `take`,
in-place adds and one `put` (`add_scan_evidence` serves every IR fusion).

`occupancy_labels` is the per-cell label rule and the spec. A label is two
comparisons of the cell's probability, which is monotone in the log odds, so
a config's labels change at two log odds (`MappingConfig.label_edges`),
and `edge_labels` reads labels off them with one search and no exp.
`classify_object_probabilities` is the object rule and the spec: 0.0 below
lambda1, 0.5 up to lambda2 and the probability itself past it. Its class, 0,
1 or 2, changes at two log odds too (`MappingConfig.object_edges`), and
`object_classes` reads it off them the same way. One bisection over the
float64 bit patterns (`_edge`) finds each edge, once per pair of thresholds.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .sensor import CameraObservation, Detection, IrScan, scan_cells

LOG_ODDS_CAP = 20.0
_EV_MIN = 1.0 / (1.0 + math.exp(LOG_ODDS_CAP))
_EV_MAX = 1.0 - _EV_MIN


class Label(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


# The labels as plain ints, for numpy operands: numpy looks up attributes of
# an IntEnum operand on every call, which costs about 5 us each time.
FREE, OCCUPIED, UNKNOWN = int(Label.FREE), int(Label.OCCUPIED), int(Label.UNKNOWN)


@dataclass(frozen=True)
class MappingConfig:
    """Inverse sensor model constants and label thresholds.

    p_hit / p_miss are the IR occupied/free evidence probabilities; p_miss_cam
    is the camera miss evidence for cells swept without a detection. Object
    probabilities are classified free below lambda1 and pass through above
    lambda2, with everything between snapped back to the 0.5 unknown prior.
    """

    p_hit: float = 0.7
    p_miss: float = 0.35
    p_miss_cam: float = 0.3
    p_free_max: float = 0.35
    p_occ_min: float = 0.65
    lambda1: float = 0.10
    lambda2: float = 0.95

    def __post_init__(self):
        for name in ("p_hit", "p_miss", "p_miss_cam", "p_free_max", "p_occ_min",
                     "lambda1", "lambda2"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.lambda1 >= self.lambda2:
            raise ValueError("lambda1 must be below lambda2")
        if self.p_free_max > self.p_occ_min:
            raise ValueError("p_free_max must not exceed p_occ_min")

    # What the settings fix, computed once per config at first use: the
    # log-odds steps of the three evidence probabilities, and the label edges.

    @functools.cached_property
    def miss_step(self) -> float:
        return logit(self.p_miss)

    @functools.cached_property
    def hit_step(self) -> float:
        return logit(self.p_hit)

    @functools.cached_property
    def cam_miss_step(self) -> float:
        return logit(self.p_miss_cam)

    @functools.cached_property
    def label_edges(self) -> np.ndarray:
        """`_edges(p_free_max, p_occ_min)`, the log odds the labels change at."""
        return _edges(self.p_free_max, self.p_occ_min)

    @functools.cached_property
    def object_edges(self) -> np.ndarray:
        """`_edges(lambda1, lambda2)`, the log odds the object classes change at."""
        return _edges(self.lambda1, self.lambda2)


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def probabilities_from_log_odds(log_odds: np.ndarray) -> np.ndarray:
    clipped = np.clip(log_odds, -LOG_ODDS_CAP, LOG_ODDS_CAP)
    return 1.0 / (1.0 + np.exp(-clipped))


def occupancy_labels(log_odds: np.ndarray, cfg: MappingConfig) -> np.ndarray:
    """The label of each cell of `log_odds`, cell by cell: FREE below
    p_free_max, OCCUPIED above p_occ_min, else UNKNOWN (int8)."""
    p = probabilities_from_log_odds(log_odds)
    out = np.full(p.shape, UNKNOWN, dtype=np.int8)
    out[p < cfg.p_free_max] = FREE
    out[p > cfg.p_occ_min] = OCCUPIED
    return out


@functools.lru_cache(maxsize=None)
def _edges(low: float, high: float) -> np.ndarray:
    """The least log odds whose probability (`probabilities_from_log_odds`)
    is at least `low`, and the least whose probability is above `high`, as
    one ascending read-only array shared by every caller.

    Both per-cell rules are those two comparisons: `occupancy_labels` labels
    a cell FREE below `_edges(p_free_max, p_occ_min)[0]`, OCCUPIED from its
    second edge on and UNKNOWN in between, which `edge_labels` reads with
    one search; `classify_object_probabilities` gives 0.0 below
    `_edges(lambda1, lambda2)[0]`, 0.5 from it up to the second edge and
    the cell's probability from the second on, which `object_classes` reads
    the same way. Each edge is found by `_edge` on the probability itself,
    once per pair, at its first use.
    """
    def p(x: float) -> float:
        return probabilities_from_log_odds(np.array([x]))[0]
    edges = np.array([_edge(lambda x: p(x) >= low), _edge(lambda x: p(x) > high)])
    edges.setflags(write=False)
    return edges


def _edge(past: Callable[[float], bool]) -> float:
    """The least float64 log odds that `past`, a per-cell rule monotone in
    the log odds, holds at, found by bisection over the float64 bit patterns
    between -LOG_ODDS_CAP and LOG_ODDS_CAP. The per-cell rules clip the log
    odds to that interval, so the edge is -inf when `past` holds at the cap
    already and inf when it holds nowhere."""
    lo, hi = _float_key(-LOG_ODDS_CAP), _float_key(LOG_ODDS_CAP)
    if past(_float_at(lo)):
        return -math.inf
    if not past(_float_at(hi)):
        return math.inf
    while hi - lo > 1:  # past at hi, not at lo
        mid = (lo + hi) // 2
        if past(_float_at(mid)):
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


def _float_key(x: float) -> int:
    """An int that orders float64s as their values do (both zeros give 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float_at(key: int) -> float:
    """The float64 of a `_float_key`."""
    bits = key if key >= 0 else -key | -0x8000_0000_0000_0000
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# The label of each bucket the label edges split the log odds into.
_EDGE_LABELS = np.array([FREE, UNKNOWN, OCCUPIED], dtype=np.int8)


def edge_labels(log_odds: np.ndarray, cfg: MappingConfig) -> np.ndarray:
    """`occupancy_labels` of finite log odds, read off their two edges
    (`MappingConfig.label_edges`)."""
    return _EDGE_LABELS[cfg.label_edges.searchsorted(log_odds, "right")]


def classify_object_probabilities(p: np.ndarray, lambda1: float, lambda2: float) -> np.ndarray:
    """Snap raw object probabilities into the free / unknown / pass-through view."""
    out = np.asarray(p, dtype=float).copy()
    out[out < lambda1] = 0.0
    out[(out >= lambda1) & (out <= lambda2)] = 0.5
    return out


def object_classes(log_odds: np.ndarray, cfg: MappingConfig) -> np.ndarray:
    """The class of each cell of finite object log odds under
    `classify_object_probabilities`: 0 where it gives 0.0, 1 where it gives
    0.5 and 2 where the probability passes through, read off the two edges
    (`MappingConfig.object_edges`)."""
    return cfg.object_edges.searchsorted(log_odds, "right")


class _BeliefMap:
    """Log odds per cell of a width x height lattice, all at the 0.5 prior."""

    def __init__(self, width: int, height: int, cell_size: float,
                 cfg: MappingConfig = MappingConfig()):
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.cfg = cfg
        self.log_odds = np.zeros((height, width), dtype=float)


class OccupancyMap(_BeliefMap):
    """Free/occupied/unknown belief over the lattice, built from IR scans."""

    def integrate_scan(self, scan: IrScan) -> None:
        """Fuse one IR scan: miss evidence at the cells it passes, hit evidence
        at the cells it hits (see `sensor.scan_cells`), each at most once."""
        free, hits = scan_cells(self.width, self.height, self.cell_size, scan)
        self.add_scan_evidence(np.concatenate((free, hits)), len(free))

    def add_scan_evidence(self, cells: np.ndarray, hits_at: int) -> np.ndarray:
        """Add miss evidence at the flat indices `cells[:hits_at]` and hit
        evidence at `cells[hits_at:]`, which hold a cell at most once, and
        return the cells' new log odds: one `take`, the adds and one `put`,
        which index any memory layout as `.flat` does."""
        values = self.log_odds.take(cells)
        values[:hits_at] += self.cfg.miss_step
        values[hits_at:] += self.cfg.hit_step
        self.log_odds.put(cells, values)
        return values

    def probabilities(self) -> np.ndarray:
        return probabilities_from_log_odds(self.log_odds)

    def classify(self) -> np.ndarray:
        """Label array: FREE below p_free_max, OCCUPIED above p_occ_min, else UNKNOWN."""
        return occupancy_labels(self.log_odds, self.cfg)


class ObjectMap(_BeliefMap):
    """Per-cell probability that the target object occupies the cell."""

    def integrate_observation(self, obs: CameraObservation) -> None:
        """Fuse one camera sweep."""
        seen_free = np.array([cy * self.width + cx for cx, cy in obs.seen_free], dtype=np.int32)
        self.add_observation_evidence(seen_free, obs.detection)

    def add_observation_evidence(self, seen_free: np.ndarray,
                                 det: Optional[Detection]) -> None:
        """Fuse a camera sweep given as the flat indices of its seen-free
        cells (each at most once) and its detection.

        Cells seen free without a detection accumulate miss evidence; a
        detected cell fuses the detection confidence as evidence. Blocked
        cells carry no object evidence either way.
        """
        if det is not None:
            seen_free = seen_free[seen_free != det.cell[1] * self.width + det.cell[0]]
        values = self.log_odds.take(seen_free)
        values += self.cfg.cam_miss_step
        self.log_odds.put(seen_free, values)
        if det is not None:
            ev = min(max(det.conf, _EV_MIN), _EV_MAX)
            self.log_odds[det.cell[1], det.cell[0]] += logit(ev)

    def raw_probabilities(self) -> np.ndarray:
        return probabilities_from_log_odds(self.log_odds)

    def classified(self) -> np.ndarray:
        """The free / unknown / pass-through view consumed by curiosity scoring."""
        return classify_object_probabilities(self.raw_probabilities(),
                                             self.cfg.lambda1, self.cfg.lambda2)


def raster_pgm(raster: np.ndarray) -> bytes:
    """Binary PGM (P5) of a 2D uint8 raster."""
    height, width = raster.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + raster.tobytes()


def quantize(values: np.ndarray) -> np.ndarray:
    """The byte a PGM image draws each value as, clipped to [0, 1]."""
    return np.floor(np.clip(np.asarray(values, dtype=float), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def glyph_text(values: np.ndarray, glyphs: str) -> str:
    """ASCII rows of a 2D array of small non-negative ints, value b drawn as glyphs[b]."""
    table = np.array(list(glyphs))
    return "\n".join(map("".join, table[values].tolist())) + "\n"
