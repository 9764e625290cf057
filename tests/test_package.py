"""The package surface: what `import curiogrid` exports, and what it loads.

The package loads each exported name's module on first access. These tests
check, in fresh interpreters run on the same src/ tree, that the zone
experiment's import path never loads `curiogrid.mission`, and that every name
and submodule the package has exported still resolves to its module's own
object.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curiogrid

SRC = Path(curiogrid.__file__).resolve().parent.parent

# Every name `curiogrid` exported when its __init__ imported each module
# eagerly, by home module. Removing one is an API change.
EXPORTED = {
    "curiosity": ["CuriosityParams", "FrontierChoice", "cell_curiosity",
                  "expected_curiosity_loss", "predict_observation", "select_frontier",
                  "total_curiosity"],
    "explorer": ["ExplorationResult", "InvariantError", "MotionConfig", "RunSettings",
                 "SensorSuite", "StepRecord", "detect_frontiers", "explore_cdos",
                 "explore_rapid_frontier", "local_frontiers", "path_cost", "plan_path"],
    "harness": ["ConfigError", "ExperimentConfig", "TrialRecord", "ZoneSummary",
                "default_config", "fixture_path", "load_config", "render_maps",
                "run_fov_sweep", "run_trial", "run_zone_experiment", "steps_jsonl",
                "trajectory_jsonl"],
    "mapping": ["Label", "MappingConfig", "ObjectMap", "OccupancyMap"],
    "mission": ["MissionEvent", "MissionPhase", "MissionTrace", "TetherMode", "TetherState",
                "TransitionError", "grab_maneuver", "mode_from_tether", "run_mission",
                "step_mission"],
    "sensor": ["Beam", "CameraConfig", "CameraObservation", "Detection", "IrConfig", "IrScan",
               "camera_observe", "ir_scan"],
    "world": ["Cell", "GridWorld", "MapError", "Pose", "Zone", "ZoneError", "load_map",
              "load_zones", "sample_zone_points"],
}
SUBMODULES = ["cli", *EXPORTED]


def _fresh(code: str):
    """Run `code` in a new interpreter that imports curiogrid from SRC; the
    JSON it prints last, with `curiogrid.__file__` checked against SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    code = ("import json, sys\n" + code +
            "\nimport curiogrid\nprint(json.dumps([curiogrid.__file__, out]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    where, out = json.loads(proc.stdout.splitlines()[-1])
    assert Path(where).resolve().is_relative_to(SRC)
    return out


def test_the_zone_path_loads_no_mission_module():
    loaded = _fresh(
        "from curiogrid import harness, world\n"
        "def ours(): return sorted(m for m in sys.modules if m.split('.')[0] == 'curiogrid')\n"
        "zone = ours()\n"
        "import curiogrid.cli\n"
        "out = [zone, ours()]\n")
    zone_path = ["curiogrid", *(f"curiogrid.{m}" for m in
                                ("curiosity", "explorer", "harness", "mapping", "sensor", "world"))]
    assert loaded == [zone_path, sorted([*zone_path, "curiogrid.cli"])]


def test_exported_names_and_submodules_resolve_after_a_bare_import():
    # every name is read through the package before any module is
    wrong = _fresh(
        f"exported, submodules = {EXPORTED!r}, {SUBMODULES!r}\n"
        "import curiogrid\n"
        "got = {n: getattr(curiogrid, n) for names in exported.values() for n in names}\n"
        "out = [m for m in submodules\n"
        "       if getattr(curiogrid, m) is not sys.modules['curiogrid.' + m]]\n"
        "out += [n for module, names in exported.items() for n in names\n"
        "        if got[n] is not getattr(sys.modules['curiogrid.' + module], n)]\n"
        "listed = dir(curiogrid)\n"
        "out += [n for n in [*submodules, *got] if n not in curiogrid.__all__ or n not in listed]\n")
    assert wrong == []


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        curiogrid.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from curiogrid import no_such_name  # noqa: F401
