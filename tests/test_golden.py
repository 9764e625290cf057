"""Golden digests of the simulator's deterministic artifacts.

curiogrid promises byte-identical outputs for identical inputs, so the sha256
of each artifact below is pinned. A change that alters any of these bytes is
a behaviour change: it must say why in CHANGES.md and regenerate the digests
on purpose (run this file with GOLDEN_PRINT=1 to print the new table). A
speedup or a refactor must leave every digest as it is.

The artifacts, all produced through the CLI with the packaged config:
  - trials.csv and summary.csv of a reduced zone run (samples_per_zone = 1,
    both maps, all zones, both methods, workers = 1);
  - trials.csv and summary.csv of the same zone run at samples_per_zone = 2
    and budget = 31: trials of both methods end unfound by budget, one of
    each method after it had sighted the object;
  - trials.csv and summary.csv of the reduced zone run on copies of both
    maps with `cellsize=0.3`: a cell size that is no power of two gives
    nearly every origin spot its own fan table, so the run builds over a
    thousand of them and empties their memo;
  - sweep.csv of `sweep --vary alpha --values 60,30` on the same reduced
    config;
  - steps.jsonl, trajectory.jsonl and the three .pgm maps of
    `explore --render` on sparse.map with the cdos method;
  - the three .txt maps of `explore --format ascii --render` on the same run;
  - the three .pgm and three .txt maps of the same two renders on a copy of
    sparse.map with the object at (34, 20): the cdos run finds it with
    frontiers left, so the combined overlay holds frontier and target glyphs;
  - steps.jsonl and trajectory.jsonl of `explore --render` on a copy of
    sparse.map with header `cellsize=0.3 heading=0.5`: a cell size that is no
    power of two and a start heading off the lattice axes;
  - steps.jsonl and trajectory.jsonl of `explore --method baseline --render`
    on sparse.map: 234 decisions, 81 of them "rotate";
  - mission.log of `mission` on sparse.map, and on the copy with the object at
    (34, 20), whose log runs detection, tracking, grab and retract;
  - steps.jsonl and trajectory.jsonl of `explore --render` with the cdos and
    with the baseline method on fixtures/arena_seed7_64.map, a target-less
    64x64 arena of 63 obstacles (the bench's seed-7 `coverage-large` arena,
    committed as text): a search over the whole lattice.
"""

import hashlib
import os
from pathlib import Path

import pytest

from curiogrid.cli import main as cli_main
from curiogrid.harness import fixture_path

GOLDEN = {
    "zones/trials.csv": "2c2e6c75d4045b795da890bf9072a8f9ec70454b70684fef61ecafa35bb40ec0",
    "zones/summary.csv": "076c93f6566b2cde5772c0922410eca487663706d078a610319d50e8815da695",
    "zones-budget/trials.csv": "2d50e1e01a8521146b6a79d5de261ad9757ccd31a6690e950ebe5c4339206965",
    "zones-budget/summary.csv": "6c19f8fde09b1460f95c767d7f85047a9df7cfa2e2f4668a4b762842be01d192",
    "zones-0.3/trials.csv": "17c24b47eff382db1cc97d5529b737f132b7118f3afd7caa33314afbfea3b29b",
    "zones-0.3/summary.csv": "ffb029daeba8c5ee1691367fac96b18c12658cb55d25b00cb95d40fe6d054301",
    "sweep/sweep.csv": "a57ead25205bd598277757561a38043e6c5c6f5efe19b604095e73ee539b395c",
    "explore/steps.jsonl": "bd5842854ba3f27ebb69089a4cb42bd4b58f0eb074fb5ba7ed84c9c5bd79a98a",
    "explore/trajectory.jsonl": "414ddff6442ed748e1402db51d987146161bfe4879c11c1b499b30687ba36b31",
    "explore/occupancy.pgm": "40b8ae4a20a45a18f5aaf562e02802928468ca8008962db148f1363e139590e3",
    "explore/objects.pgm": "c3ebdd7a7737af7599295206d7d33d440cb2f0597c442e026cfb802ccadebc0a",
    "explore/combined.pgm": "7162afbe7f03f2c9c9bb2de9d7765ef134b7ac87c1fa5d4d0cb31a69c6fcd112",
    "explore-ascii/occupancy.txt": "c64246803bb207978dc8793f00c5abf2c40e43cb80b6bc6e6ef8ed1cc76a4b3e",
    "explore-ascii/objects.txt": "aca39bfb04652d63e4ef6504a223e613420c5e3a4911ed5323df840dcc019e41",
    "explore-ascii/combined.txt": "c64246803bb207978dc8793f00c5abf2c40e43cb80b6bc6e6ef8ed1cc76a4b3e",
    "found/occupancy.pgm": "8e870fc9a4d374cde28af4a48c5388b5bb7673d1b2e2750eeac39caff2890f28",
    "found/objects.pgm": "416ddd4f3ed58a158cd6160e4a4c27a5f3da40989c15595ac4e5283f9d012c9f",
    "found/combined.pgm": "40e70d4c40b55443c20692b7016f114da647eaa1ac54bc643a4f2f56fe5d45b3",
    "found-ascii/occupancy.txt": "e8c4ffca37da61dbf3fa2e86323fca7ef06115eb66e40c1af411970d275a690c",
    "found-ascii/objects.txt": "b48acfd1aa4d67f3a4a69b001dce6478112656440d7c058be1e8ea6e78f0ae6d",
    "found-ascii/combined.txt": "19c46d7611321d0482cd73f481564da3db7e1550e0d5facb071a14d54c8a3f93",
    "offgrid/steps.jsonl": "bef0b4ad38aff1773b41c1b88db0c81a801cb0f133f6e19a3994031781ee1cea",
    "offgrid/trajectory.jsonl": "8bd1f52a74aa084d66e7e03f10e9801e4b7cdd6d09b6f4102aed3e2245bf2512",
    "baseline/steps.jsonl": "7a1d579513624dcaf9384bb29953f67f6b8652127ba87fb1e647a8ff0a7c9a4f",
    "baseline/trajectory.jsonl": "505a0625c64ca634925fb30ba22bfb29c44a036bdf852bf46886a1f63931de43",
    "mission/mission.log": "dd9b072d3b72de8007bfd6fb45fd91d984bc392ad751314a0462f1906b437987",
    "mission-found/mission.log": "d6ca8534390b0f136dac83e432ece696df4a82c3257c06fecb815279ee58d46a",
    "arena64/steps.jsonl": "8ec20ccd28e4414a8ac9a6626eb2ff21394817d00bad655c34ed4ce6eaed5343",
    "arena64/trajectory.jsonl": "392a1130228579be21e9f57259a815c36272d1cd899d54a1d40d0bca6e49fab4",
    "arena64-baseline/steps.jsonl": "4998e5981b5ed1fb6c43e0bade2ef58a8fee630ee950bc836bad691cc261becb",
    "arena64-baseline/trajectory.jsonl": "485f396f275729e410cb2cee3468ed39b5053fd04ac2913d82c21c5b4aba5e9c",
}

ARENA64 = Path(__file__).parent / "fixtures" / "arena_seed7_64.map"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    cfg_text = (fixture_path("experiment.cfg").read_text()
                .replace("samples_per_zone = 20", "samples_per_zone = 1"))
    for key, name in (("map_sparse", "sparse.map"), ("map_dense", "dense.map"),
                      ("zone_file", "arena.zones")):
        cfg_text = cfg_text.replace(f"{key} = {name}", f"{key} = {fixture_path(name)}")
    cfg = tmp / "reduced.cfg"
    cfg.write_text(cfg_text)
    budget_cfg = tmp / "budget.cfg"
    budget_cfg.write_text(cfg_text.replace("samples_per_zone = 1", "samples_per_zone = 2")
                          .replace("budget = 600.0", "budget = 31.0"))
    cell_cfg = tmp / "cell-0.3.cfg"
    cell_text = cfg_text
    for name in ("sparse.map", "dense.map"):
        copy = tmp / f"cell-0.3-{name}"
        copy.write_text(fixture_path(name).read_text()
                        .replace("cellsize=0.25 ", "cellsize=0.3 ", 1))
        cell_text = cell_text.replace(str(fixture_path(name)), str(copy))
    cell_cfg.write_text(cell_text)
    sparse = str(fixture_path("sparse.map"))
    rows = fixture_path("sparse.map").read_text().splitlines()
    offgrid = tmp / "offgrid.map"
    offgrid.write_text("\n".join(["cellsize=0.3 heading=0.5"] + rows[1:]) + "\n")
    rows[21] = rows[21][:34] + "T" + rows[21][35:]  # the object at cell (34, 20)
    found = tmp / "found.map"
    found.write_text("\n".join(rows) + "\n")

    assert cli_main(["zones", "--config", str(cfg), "--out", str(tmp / "zones")]) == 0
    assert cli_main(["zones", "--config", str(budget_cfg),
                     "--out", str(tmp / "zones-budget")]) == 0
    assert cli_main(["zones", "--config", str(cell_cfg), "--out", str(tmp / "zones-0.3")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--vary", "alpha", "--values", "60,30",
                     "--out", str(tmp / "sweep")]) == 0
    assert cli_main(["explore", "--map", sparse, "--method", "cdos",
                     "--render", str(tmp / "explore")]) == 0
    assert cli_main(["explore", "--map", sparse, "--method", "cdos", "--format", "ascii",
                     "--render", str(tmp / "explore-ascii")]) == 0
    for fmt, out in (("pgm", "found"), ("ascii", "found-ascii")):
        assert cli_main(["explore", "--map", str(found), "--method", "cdos", "--format", fmt,
                         "--render", str(tmp / out)]) == 0
    assert cli_main(["explore", "--map", str(offgrid), "--method", "cdos",
                     "--render", str(tmp / "offgrid")]) == 0
    assert cli_main(["explore", "--map", sparse, "--method", "baseline",
                     "--render", str(tmp / "baseline")]) == 0
    assert cli_main(["mission", "--map", sparse, "--out", str(tmp / "mission")]) == 0
    assert cli_main(["mission", "--map", str(found), "--out", str(tmp / "mission-found")]) == 0
    for method, out in (("cdos", "arena64"), ("baseline", "arena64-baseline")):
        assert cli_main(["explore", "--map", str(ARENA64), "--method", method,
                         "--render", str(tmp / out)]) == 0
    digests = {name: hashlib.sha256((tmp / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    if os.environ.get("GOLDEN_PRINT"):
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(artifacts, name):
    assert artifacts[name] == GOLDEN[name], f"{name} bytes changed"
