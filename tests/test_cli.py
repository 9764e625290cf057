import subprocess
import sys

import pytest

from curiogrid import cli
from curiogrid.cli import main
from curiogrid.harness import fixture_path

TINY_MAP = """cellsize=0.5 heading=0.0
##########
#........#
#.S......#
#...##..T#
#........#
##########
"""

TINY_ZONES = "zone1 = 2,1,3,2\nzone2 = 6,1,8,2\n"

TINY_CFG = """map_sparse = tiny.map
zone_file = tiny.zones
samples_per_zone = 2
seed = 3
eta = 1.9
budget = 120.0
"""


@pytest.fixture
def tiny(tmp_path):
    (tmp_path / "tiny.map").write_text(TINY_MAP)
    (tmp_path / "tiny.zones").write_text(TINY_ZONES)
    (tmp_path / "exp.cfg").write_text(TINY_CFG)
    return tmp_path


def test_explore_renders_maps(tiny, capsys):
    out = tiny / "render"
    code = main(["explore", "--map", str(tiny / "tiny.map"), "--method", "cdos",
                 "--config", str(tiny / "exp.cfg"), "--render", str(out)])
    assert code == 0
    assert (out / "occupancy.pgm").exists()
    assert (out / "objects.pgm").exists()
    assert (out / "combined.pgm").exists()
    assert (out / "steps.jsonl").exists()
    assert "found=True" in capsys.readouterr().out


def test_explore_ascii_format(tiny):
    out = tiny / "render_ascii"
    code = main(["explore", "--map", str(tiny / "tiny.map"), "--format", "ascii",
                 "--config", str(tiny / "exp.cfg"), "--render", str(out)])
    assert code == 0
    assert (out / "combined.txt").exists()


def test_zones_writes_csvs(tiny, capsys):
    out = tiny / "zones"
    code = main(["zones", "--config", str(tiny / "exp.cfg"), "--out", str(out)])
    assert code == 0
    assert (out / "trials.csv").exists()
    assert (out / "summary.csv").exists()
    assert "zone 1" in capsys.readouterr().out


def test_zones_byte_identical_reruns(tiny):
    out_a, out_b = tiny / "a", tiny / "b"
    assert main(["zones", "--config", str(tiny / "exp.cfg"), "--out", str(out_a)]) == 0
    assert main(["zones", "--config", str(tiny / "exp.cfg"), "--out", str(out_b)]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_sweep_writes_csv(tiny):
    out = tiny / "sweep"
    code = main(["sweep", "--config", str(tiny / "exp.cfg"), "--vary", "alpha",
                 "--values", "40,80", "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()


@pytest.mark.parametrize("values", ["0,30", "nan,30", "-30,30", "400,30", "30,abc"])
def test_sweep_bad_values_exit_one(tiny, capsys, monkeypatch, values):
    monkeypatch.setattr(cli, "run_fov_sweep", lambda *a, **k: pytest.fail("a trial ran"))
    code = main(["sweep", "--config", str(tiny / "exp.cfg"), "--vary", "beta",
                 f"--values={values}", "--out", str(tiny / "sweep_bad")])
    assert code == 1
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [("--alpha", "0"), ("--alpha", "nan"),
                                          ("--alpha", "400"), ("--alpha", "-30"),
                                          ("--beta", "0"), ("--beta", "nan")])
def test_explore_bad_fov_exit_one(tiny, capsys, monkeypatch, option, value):
    monkeypatch.setattr(cli, "explore", lambda *a, **k: pytest.fail("an exploration ran"))
    code = main(["explore", "--map", str(tiny / "tiny.map"), "--config",
                 str(tiny / "exp.cfg"), f"{option}={value}"])
    assert code == 1
    assert option in capsys.readouterr().err


def test_explore_fovs_default_to_config(tiny):
    (tiny / "wide.cfg").write_text(TINY_CFG + "alphas_deg = 90\nbetas_deg = 45\n")
    steps = []
    for name, flags in (("config", []), ("flags", ["--alpha", "90", "--beta", "45"])):
        out = tiny / name
        assert main(["explore", "--map", str(tiny / "tiny.map"), "--config",
                     str(tiny / "wide.cfg"), "--render", str(out), *flags]) == 0
        steps.append((out / "steps.jsonl").read_bytes())
    assert steps[0] == steps[1]


def test_mission_trace(tiny, capsys):
    out = tiny / "mission"
    code = main(["mission", "--map", str(tiny / "tiny.map"),
                 "--config", str(tiny / "exp.cfg"), "--out", str(out)])
    assert code == 0
    log = (out / "mission.log").read_text()
    assert "hidden_exploration" in log
    assert "object_retrieved=True" in capsys.readouterr().out


def test_missing_map_exits_one(tiny, capsys):
    code = main(["explore", "--map", str(tiny / "nope.map")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_one(tiny, capsys):
    (tiny / "bad.cfg").write_text("flux_capacitor = on\n")
    code = main(["zones", "--config", str(tiny / "bad.cfg"), "--out", str(tiny / "x")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_malformed_map_exits_one(tiny, capsys):
    (tiny / "ragged.map").write_text("cellsize=0.5 heading=0.0\n...\n..\n")
    code = main(["explore", "--map", str(tiny / "ragged.map")])
    assert code == 1
    assert "ragged" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "curiogrid.cli", "explore",
         "--map", str(fixture_path("sparse.map")), "--method", "baseline",
         "--beta", "30", "--alpha", "60"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "found=" in proc.stdout
