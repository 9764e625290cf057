"""Seeded inputs for the benchmark workloads.

The program only ever sees the text these functions return: zone files go
through `load_zones` (via `run_zone_experiment`), arenas through `load_map`.
"""

from __future__ import annotations

import math
import random
import re

_ZONE_LINE_RE = re.compile(r"^zone(\d+)\s*=\s*(.+)$")


def zone_rectangles(zone_text: str) -> dict[int, list[tuple[int, int, int, int]]]:
    """Rectangles (x0, y0, x1, y1) per zone id of a zone file."""
    rects: dict[int, list[tuple[int, int, int, int]]] = {}
    for raw in zone_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        m = _ZONE_LINE_RE.match(line)
        if m is None:
            continue
        rects[int(m.group(1))] = [tuple(int(v) for v in r.split(","))
                                  for r in m.group(2).split()]
    return rects


def stratified_zone_files(zone_text: str, seed: int, slots: int) -> list[str]:
    """One single-cell zone file per slot, drawn from the given zones.

    Slot k places zone i's object in rectangle k mod (number of rectangles of
    zone i), at a seeded cell of that rectangle. Each run therefore visits
    every rectangle (every room) of every zone, and only the cell inside a
    rectangle depends on the seed: which room the object sits in dominates a
    trial's cost, so uniform sampling over whole zones would make run-to-run
    work differ by far more than any code change worth measuring.
    """
    rng = random.Random(seed)
    rects = zone_rectangles(zone_text)
    files = []
    for slot in range(slots):
        lines = []
        for zone_id in sorted(rects):
            x0, y0, x1, y1 = rects[zone_id][slot % len(rects[zone_id])]
            x, y = rng.randint(x0, x1), rng.randint(y0, y1)
            lines.append(f"zone{zone_id} = {x},{y},{x},{y}")
        files.append("\n".join(lines) + "\n")
    return files


def slot_count(zone_text: str) -> int:
    """Slots needed for every rectangle of every zone to get a placement."""
    return max(len(r) for r in zone_rectangles(zone_text).values())


def generate_arena(seed: int, size: int, block: int = 8) -> tuple[str, int]:
    """A walled size x size arena as map text, plus its obstacle count.

    The interior is a lattice of block x block tiles. Every tile but the
    central one holds one rectangular obstacle of 2..4 cells a side at a
    seeded offset, leaving corridors of at least two cells, so every free
    cell is reachable and the amount of exploration work barely depends on
    the seed. The robot starts at the centre of the central tile with a
    seeded axis-aligned heading.
    """
    if size % block or size // block < 3:
        raise ValueError("size must be a multiple of block, at least 3 blocks")
    rng = random.Random(seed)
    occupied = [[x in (0, size - 1) or y in (0, size - 1) for x in range(size)]
                for y in range(size)]
    tiles = size // block
    centre = tiles // 2
    obstacles = 0
    for ty in range(tiles):
        for tx in range(tiles):
            if (tx, ty) == (centre, centre):
                continue
            w, h = rng.randint(2, 4), rng.randint(2, 4)
            x0 = tx * block + rng.randint(2, block - w)
            y0 = ty * block + rng.randint(2, block - h)
            for y in range(y0, min(y0 + h, size - 1)):
                for x in range(x0, min(x0 + w, size - 1)):
                    occupied[y][x] = True
            obstacles += 1
    start = (centre * block + block // 2, centre * block + block // 2)
    heading = rng.randrange(4) * (math.pi / 2.0)
    rows = ["".join("S" if (x, y) == start else "#" if occupied[y][x] else "."
                    for x in range(size)) for y in range(size)]
    return f"cellsize=0.25 heading={heading!r}\n" + "\n".join(rows) + "\n", obstacles
