"""Golden digests of the simulator's deterministic artifacts.

curiogrid promises byte-identical outputs for identical inputs, so the sha256
of each artifact below is pinned. A change that alters any of these bytes is
a behaviour change: it must say why in CHANGES.md and regenerate the digests
on purpose (run this file with GOLDEN_PRINT=1 to print the new table). A
speedup or a refactor must leave every digest as it is.

The artifacts, all produced through the CLI with the packaged config:
  - trials.csv and summary.csv of a reduced zone run (samples_per_zone = 1,
    both maps, all zones, both methods, workers = 1);
  - sweep.csv of `sweep --vary alpha --values 60,30` on the same reduced
    config;
  - steps.jsonl, trajectory.jsonl and the three .pgm maps of
    `explore --render` on sparse.map with the cdos method;
  - mission.log of `mission` on sparse.map.
"""

import hashlib
import os

import pytest

from curiogrid.cli import main as cli_main
from curiogrid.harness import fixture_path

GOLDEN = {
    "zones/trials.csv": "2c2e6c75d4045b795da890bf9072a8f9ec70454b70684fef61ecafa35bb40ec0",
    "zones/summary.csv": "076c93f6566b2cde5772c0922410eca487663706d078a610319d50e8815da695",
    "sweep/sweep.csv": "a57ead25205bd598277757561a38043e6c5c6f5efe19b604095e73ee539b395c",
    "explore/steps.jsonl": "bd5842854ba3f27ebb69089a4cb42bd4b58f0eb074fb5ba7ed84c9c5bd79a98a",
    "explore/trajectory.jsonl": "414ddff6442ed748e1402db51d987146161bfe4879c11c1b499b30687ba36b31",
    "explore/occupancy.pgm": "40b8ae4a20a45a18f5aaf562e02802928468ca8008962db148f1363e139590e3",
    "explore/objects.pgm": "c3ebdd7a7737af7599295206d7d33d440cb2f0597c442e026cfb802ccadebc0a",
    "explore/combined.pgm": "7162afbe7f03f2c9c9bb2de9d7765ef134b7ac87c1fa5d4d0cb31a69c6fcd112",
    "mission/mission.log": "dd9b072d3b72de8007bfd6fb45fd91d984bc392ad751314a0462f1906b437987",
}


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
    sparse = str(fixture_path("sparse.map"))

    assert cli_main(["zones", "--config", str(cfg), "--out", str(tmp / "zones")]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--vary", "alpha", "--values", "60,30",
                     "--out", str(tmp / "sweep")]) == 0
    assert cli_main(["explore", "--map", sparse, "--method", "cdos",
                     "--render", str(tmp / "explore")]) == 0
    assert cli_main(["mission", "--map", sparse, "--out", str(tmp / "mission")]) == 0
    digests = {name: hashlib.sha256((tmp / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    if os.environ.get("GOLDEN_PRINT"):
        for name, digest in digests.items():
            print(f'    "{name}": "{digest}",')
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(artifacts, name):
    assert artifacts[name] == GOLDEN[name], f"{name} bytes changed"
