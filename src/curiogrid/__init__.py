"""Curiosity-driven object search in a simulated 2D grid world.

A tethered ground robot explores an enclosed space with a narrow-fov IR
range finder and a wider-fov camera modeled as a detection-confidence range
finder. Two belief maps are maintained (occupancy from IR, per-cell object
probability from the camera) and frontier selection maximizes the expected
drop in total curiosity, with a rapid-frontier baseline for comparison.
"""

from .curiosity import (CuriosityParams, FrontierChoice, cell_curiosity,
                        expected_curiosity_loss, predict_observation,
                        select_frontier, total_curiosity)
from .explorer import (ExplorationResult, InvariantError, MotionConfig, SensorSuite,
                       StepRecord, detect_frontiers, explore_cdos,
                       explore_rapid_frontier, local_frontiers, path_cost, plan_path)
from .harness import (ConfigError, ExperimentConfig, TrialRecord, ZoneSummary,
                      default_config, fixture_path, load_config, render_maps,
                      run_fov_sweep, run_trial, run_zone_experiment, steps_jsonl,
                      trajectory_jsonl)
from .mapping import Label, MappingConfig, ObjectMap, OccupancyMap
from .mission import (MissionEvent, MissionPhase, MissionTrace, TetherMode,
                      TetherState, TransitionError, grab_maneuver, mode_from_tether,
                      run_mission, step_mission)
from .sensor import (Beam, CameraConfig, CameraObservation, Detection, IrConfig,
                     IrScan, camera_observe, ir_scan)
from .world import (Cell, GridWorld, MapError, Pose, Zone, ZoneError, load_map,
                    load_zones, sample_zone_points)

__version__ = "0.1.0"
