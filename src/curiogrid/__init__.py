"""Curiosity-driven object search in a simulated 2D grid world.

A tethered ground robot explores an enclosed space with a narrow-fov IR
range finder and a wider-fov camera modeled as a detection-confidence range
finder. Two belief maps are maintained (occupancy from IR, per-cell object
probability from the camera) and frontier selection maximizes the expected
drop in total curiosity, with a rapid-frontier baseline for comparison.

Importing the package loads none of its modules. Each exported name, and
each submodule (`curiogrid.harness`, say), is loaded on first access
(PEP 562), so a run compiles only the modules it calls:
`from curiogrid import harness, world`, the zone experiment's import, loads
harness, explorer, curiosity, mapping, sensor and world, and not mission.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "curiosity": ("CuriosityParams", "FrontierChoice", "cell_curiosity",
                  "expected_curiosity_loss", "predict_observation", "select_frontier",
                  "total_curiosity"),
    "explorer": ("ExplorationResult", "InvariantError", "MotionConfig", "RunSettings",
                 "SensorSuite", "StepRecord", "detect_frontiers", "explore_cdos",
                 "explore_rapid_frontier", "local_frontiers", "path_cost", "plan_path"),
    "harness": ("ConfigError", "ExperimentConfig", "TrialRecord", "ZoneSummary",
                "default_config", "fixture_path", "load_config", "render_maps",
                "run_fov_sweep", "run_trial", "run_zone_experiment", "steps_jsonl",
                "trajectory_jsonl"),
    "mapping": ("Label", "MappingConfig", "ObjectMap", "OccupancyMap"),
    "mission": ("MissionEvent", "MissionPhase", "MissionTrace", "TetherMode", "TetherState",
                "TransitionError", "grab_maneuver", "mode_from_tether", "run_mission",
                "step_mission"),
    "sensor": ("Beam", "CameraConfig", "CameraObservation", "Detection", "IrConfig", "IrScan",
               "camera_observe", "ir_scan"),
    "world": ("Cell", "GridWorld", "MapError", "Pose", "Zone", "ZoneError", "load_map",
              "load_zones", "sample_zone_points"),
}
_SUBMODULES = ("cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # the import binds it as a package attribute
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
