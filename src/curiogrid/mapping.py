"""Bayesian belief maps: the IR occupancy grid and the camera object map.

Both maps accumulate evidence as log odds against a uniform 0.5 prior, which
realizes the standard recursive Bayesian filter: fusing an observation with
inverse-model probability p adds log(p / (1 - p)) to the cell. Saturation is
applied when converting back to probability, so the accumulated evidence is
order-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Optional

import numpy as np

from .sensor import CameraObservation, Detection, IrScan, scan_cells
from .world import Cell

LOG_ODDS_CAP = 20.0
_EV_MIN = 1.0 / (1.0 + math.exp(LOG_ODDS_CAP))
_EV_MAX = 1.0 - _EV_MIN


class Label(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


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


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def probabilities_from_log_odds(log_odds: np.ndarray) -> np.ndarray:
    clipped = np.clip(log_odds, -LOG_ODDS_CAP, LOG_ODDS_CAP)
    return 1.0 / (1.0 + np.exp(-clipped))


def classify_object_probabilities(p: np.ndarray, lambda1: float, lambda2: float) -> np.ndarray:
    """Snap raw object probabilities into the free / unknown / pass-through view."""
    out = np.asarray(p, dtype=float).copy()
    out[out < lambda1] = 0.0
    out[(out >= lambda1) & (out <= lambda2)] = 0.5
    return out


class OccupancyMap:
    """Free/occupied/unknown belief over the lattice, built from IR scans."""

    def __init__(self, width: int, height: int, cell_size: float,
                 cfg: MappingConfig = MappingConfig()):
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.cfg = cfg
        self.log_odds = np.zeros((height, width), dtype=float)

    def integrate_scan(self, scan: IrScan) -> None:
        """Fuse one IR scan; each cell receives at most one evidence bump."""
        self.add_scan_evidence(*self.scan_evidence(scan))

    def scan_evidence(self, scan: IrScan) -> tuple[np.ndarray, np.ndarray]:
        """Flat (row-major) indices of the cells one scan passes and hits, the
        latter occupied (see `sensor.scan_cells`)."""
        return scan_cells(self.width, self.height, self.cell_size, scan)

    def add_scan_evidence(self, free: np.ndarray, hits: np.ndarray) -> None:
        """Add miss evidence at the `free` and hit evidence at the `hits` flat
        indices; each array must hold a cell at most once."""
        self.log_odds.flat[free] += logit(self.cfg.p_miss)
        self.log_odds.flat[hits] += logit(self.cfg.p_hit)

    def probabilities(self) -> np.ndarray:
        return probabilities_from_log_odds(self.log_odds)

    def classify(self) -> np.ndarray:
        """Label array: FREE below p_free_max, OCCUPIED above p_occ_min, else UNKNOWN."""
        p = self.probabilities()
        out = np.full(p.shape, Label.UNKNOWN, dtype=np.int8)
        out[p < self.cfg.p_free_max] = Label.FREE
        out[p > self.cfg.p_occ_min] = Label.OCCUPIED
        return out


class ObjectMap:
    """Per-cell probability that the target object occupies the cell."""

    def __init__(self, width: int, height: int, cell_size: float,
                 cfg: MappingConfig = MappingConfig()):
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.cfg = cfg
        self.log_odds = np.zeros((height, width), dtype=float)

    def integrate_observation(self, obs: CameraObservation) -> None:
        """Fuse one camera sweep."""
        self.add_observation_evidence(self.observation_evidence(obs), obs.detection)

    def observation_evidence(self, obs: CameraObservation) -> np.ndarray:
        """Flat (row-major) indices of the cells one sweep saw free."""
        return _flat_indices(obs.seen_free, self.width)

    def add_observation_evidence(self, seen_free: np.ndarray,
                                 det: Optional[Detection]) -> None:
        """Fuse a camera sweep given as the flat indices of its seen-free
        cells (each at most once) and its detection.

        Cells seen free without a detection accumulate miss evidence; a
        detected cell fuses the detection confidence as evidence. Blocked
        cells carry no object evidence either way.
        """
        if det is None:
            self.log_odds.flat[seen_free] += logit(self.cfg.p_miss_cam)
            return
        det_index = det.cell[1] * self.width + det.cell[0]
        self.log_odds.flat[seen_free[seen_free != det_index]] += logit(self.cfg.p_miss_cam)
        ev = min(max(det.conf, _EV_MIN), _EV_MAX)
        self.log_odds.flat[det_index] += logit(ev)

    def raw_probabilities(self) -> np.ndarray:
        return probabilities_from_log_odds(self.log_odds)

    def classified(self) -> np.ndarray:
        """The free / unknown / pass-through view consumed by curiosity scoring."""
        return classify_object_probabilities(self.raw_probabilities(),
                                             self.cfg.lambda1, self.cfg.lambda2)


def _flat_indices(cells: Iterable[Cell], width: int) -> np.ndarray:
    """Row-major flat indices of `cells`, in iteration order."""
    return np.array([cy * width + cx for cx, cy in cells], dtype=np.int32)


def to_pgm(values: np.ndarray) -> bytes:
    """Serialize probabilities as binary PGM (P5), byte = round(p * 255)."""
    return raster_pgm(quantize(values))


def raster_pgm(raster: np.ndarray) -> bytes:
    """Binary PGM (P5) of a 2D uint8 raster."""
    height, width = raster.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + raster.tobytes()


def from_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM produced by to_pgm back into byte values."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError("not a P5 PGM produced by to_pgm")
    width, height = (int(v) for v in parts[1].split())
    if parts[2] != b"255":
        raise ValueError("unsupported maxval")
    raster = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return raster.reshape((height, width))


def quantize(values: np.ndarray) -> np.ndarray:
    """The byte quantization shared by PGM output and ASCII glyph mapping."""
    return np.floor(np.clip(np.asarray(values, dtype=float), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def glyph_text(byte_values: np.ndarray, glyphs: str) -> str:
    """ASCII rows of a uint8 raster, byte b drawn as glyphs[b] (256 glyphs)."""
    table = np.array(list(glyphs))
    return "\n".join(map("".join, table[byte_values].tolist())) + "\n"


def occupancy_glyphs(byte_values: np.ndarray, cfg: MappingConfig) -> str:
    """ASCII view of occupancy bytes: '.' free, '#' occupied, '?' unknown."""
    return glyph_text(byte_values, "".join(
        "." if b / 255.0 < cfg.p_free_max else "#" if b / 255.0 > cfg.p_occ_min else "?"
        for b in range(256)))


def object_glyphs(byte_values: np.ndarray) -> str:
    """ASCII view of classified object bytes: '.' free, '?' unknown, '*' object."""
    return glyph_text(byte_values, "." * 128 + "?" + "*" * 127)
