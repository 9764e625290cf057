import math

import pytest
from hypothesis import given, strategies as st

from curiogrid.explorer import MotionConfig, SensorSuite
from curiogrid.mission import (MissionEvent, MissionPhase, MissionTrace, TetherMode,
                               TetherState, TransitionError, grab_maneuver, mission_log_lines,
                               mode_from_tether, run_mission, step_mission)
from curiogrid.sensor import CameraConfig, IrConfig
from curiogrid.world import Pose, load_map


class TestTetherMode:
    def state(self, released):
        return TetherState(total_length=5.0, entry_offset=3.0, released=released,
                           hover_height=2.8)

    def test_zero_is_aerial(self):
        assert mode_from_tether(self.state(0.0)) is TetherMode.AERIAL

    def test_hover_height_is_landing(self):
        assert mode_from_tether(self.state(2.8)) is TetherMode.LANDING

    def test_entry_offset_is_ground(self):
        assert mode_from_tether(self.state(3.0)) is TetherMode.GROUND

    def test_full_length_is_ground(self):
        assert mode_from_tether(self.state(5.0)) is TetherMode.GROUND

    def test_gap_between_hover_and_entry_is_landing(self):
        assert mode_from_tether(self.state(2.9)) is TetherMode.LANDING

    def test_released_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.state(-0.1)
        with pytest.raises(ValueError):
            self.state(5.1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            TetherState(2.0, 3.0, 1.0, 2.8)   # offset beyond total length
        with pytest.raises(ValueError):
            TetherState(5.0, 3.0, 1.0, 0.0)   # zero hover height

    @given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=2))
    def test_monotone_in_released_length(self, pair):
        order = [TetherMode.AERIAL, TetherMode.LANDING, TetherMode.GROUND]
        lo, hi = sorted(pair)
        m_lo = mode_from_tether(self.state(lo))
        m_hi = mode_from_tether(self.state(hi))
        assert order.index(m_hi) >= order.index(m_lo)


LISTED = {
    (MissionPhase.AERIAL_EXPLORATION, MissionEvent.HIDDEN_SPACE_FOUND): MissionPhase.LANDING,
    (MissionPhase.LANDING, MissionEvent.TOUCHDOWN): MissionPhase.HIDDEN_EXPLORATION,
    (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION): MissionPhase.OBJECT_TRACKING,
    (MissionPhase.HIDDEN_EXPLORATION, MissionEvent.FRONTIERS_EXHAUSTED): MissionPhase.RETRACTING,
    (MissionPhase.OBJECT_TRACKING, MissionEvent.WITHIN_GRAB_RANGE): MissionPhase.GRABBING,
    (MissionPhase.GRABBING, MissionEvent.GRAB_COMPLETE): MissionPhase.RETRACTING,
}


class TestStepMission:
    def test_every_listed_transition_fires(self):
        for (phase, event), want in LISTED.items():
            got = step_mission(phase, event, detection_conf=0.99)
            assert got is want

    def test_retraction_outcomes(self):
        assert step_mission(MissionPhase.RETRACTING, MissionEvent.RETRACT_COMPLETE,
                            object_aboard=False) is MissionPhase.AERIAL_CONTINUE
        assert step_mission(MissionPhase.RETRACTING, MissionEvent.RETRACT_COMPLETE,
                            object_aboard=True) is None

    def test_exhaustive_cross_product(self):
        for phase in MissionPhase:
            for event in MissionEvent:
                if (phase, event) in LISTED:
                    continue
                if (phase, event) == (MissionPhase.RETRACTING, MissionEvent.RETRACT_COMPLETE):
                    continue
                with pytest.raises(TransitionError):
                    step_mission(phase, event, detection_conf=0.99, object_aboard=True)

    def test_detection_above_threshold(self):
        got = step_mission(MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION,
                           detection_conf=0.97)
        assert got is MissionPhase.OBJECT_TRACKING

    def test_low_confidence_detection_rejected(self):
        with pytest.raises(TransitionError):
            step_mission(MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION,
                         detection_conf=0.5)
        with pytest.raises(TransitionError):
            step_mission(MissionPhase.HIDDEN_EXPLORATION, MissionEvent.DETECTION)

    def test_detection_in_wrong_phase_rejected(self):
        with pytest.raises(TransitionError):
            step_mission(MissionPhase.LANDING, MissionEvent.DETECTION, detection_conf=0.99)

    def test_retract_requires_cargo_flag(self):
        with pytest.raises(TransitionError):
            step_mission(MissionPhase.RETRACTING, MissionEvent.RETRACT_COMPLETE)


class TestGrabManeuver:
    def test_examples_at_exact_range(self):
        pose = Pose(0.7, 0.5, 0.0)  # exactly 0.2 m from the (0,0) center of a 1.0 grid
        final, cost = grab_maneuver(pose, (0, 0), MotionConfig(2.0), cell_size=1.0)
        assert cost == pytest.approx(0.1)
        assert (final.x, final.y) == (0.5, 0.5)
        assert final.heading == pytest.approx(math.pi)

    def test_too_far_rejected(self):
        pose = Pose(2.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="beyond grab range"):
            grab_maneuver(pose, (0, 0), MotionConfig(2.0), cell_size=1.0)


def mission_world(rows, cell_size=0.5):
    text = f"cellsize={cell_size!r} heading=0.0\n" + "\n".join(rows) + "\n"
    return load_map(text)


def mission_suite():
    return SensorSuite(IrConfig(math.radians(30), 2.0),
                       CameraConfig(math.radians(60), 2.0, 1.9))


class TestRunMission:
    def test_successful_retrieval_trace(self):
        world = mission_world(["#######", "#.....#", "#S...T#", "#.....#", "#######"])
        trace = run_mission(world, mission_suite())
        assert trace.object_retrieved
        assert trace.final_phase is None
        events = [r.event for r in trace.records]
        assert events == [MissionEvent.HIDDEN_SPACE_FOUND, MissionEvent.TOUCHDOWN,
                          MissionEvent.DETECTION, MissionEvent.WITHIN_GRAB_RANGE,
                          MissionEvent.GRAB_COMPLETE, MissionEvent.RETRACT_COMPLETE]
        phases = [r.phase for r in trace.records]
        assert phases == [MissionPhase.AERIAL_EXPLORATION, MissionPhase.LANDING,
                          MissionPhase.HIDDEN_EXPLORATION, MissionPhase.OBJECT_TRACKING,
                          MissionPhase.GRABBING, MissionPhase.RETRACTING]

    def test_object_absent_continues_aerial(self):
        world = mission_world(["#####", "#...#", "#S..#", "#####"])
        trace = run_mission(world, mission_suite())
        assert not trace.object_retrieved
        assert trace.final_phase is MissionPhase.AERIAL_CONTINUE
        events = [r.event for r in trace.records]
        assert events == [MissionEvent.HIDDEN_SPACE_FOUND, MissionEvent.TOUCHDOWN,
                          MissionEvent.FRONTIERS_EXHAUSTED, MissionEvent.RETRACT_COMPLETE]

    def test_object_retrieved_is_read_off_the_final_phase(self):
        world = mission_world(["#######", "#.....#", "#S...T#", "#.....#", "#######"])
        trace = run_mission(world, mission_suite())
        for final_phase, retrieved in ((None, True), (MissionPhase.AERIAL_CONTINUE, False)):
            built = MissionTrace(trace.records, trace.exploration, final_phase, trace.elapsed)
            assert built.object_retrieved is retrieved
        with pytest.raises(TypeError):
            MissionTrace(trace.records, trace.exploration, None, trace.elapsed,
                         object_retrieved=False)

    def test_timestamps_monotone(self):
        world = mission_world(["#######", "#.....#", "#S...T#", "#.....#", "#######"])
        trace = run_mission(world, mission_suite())
        stamps = [r.timestamp for r in trace.records]
        assert stamps == sorted(stamps)
        assert trace.elapsed >= stamps[-1]

    def test_log_lines_format(self):
        world = mission_world(["#####", "#S.T#", "#####"])
        trace = run_mission(world, mission_suite())
        lines = mission_log_lines(trace)
        assert len(lines) == len(trace.records)
        for line in lines:
            stamp, phase, event = line.split(" ")
            float(stamp)
            assert phase in {p.value for p in MissionPhase}
            assert event in {e.value for e in MissionEvent}
