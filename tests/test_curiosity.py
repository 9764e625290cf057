import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curiogrid.curiosity import (CuriosityParams, bayes_fuse, cell_curiosity, curiosity_of,
                                 expected_curiosity_loss, predict_observation,
                                 select_frontier, total_curiosity, visible_from)
from curiogrid.harness import default_config
from curiogrid.mapping import Label, MappingConfig, ObjectMap, OccupancyMap, logit
from curiogrid.sensor import CameraConfig
from curiogrid.world import Pose

from oracle import scored_selection


def open_maps(size=5, cell_size=1.0, cfg=MappingConfig()):
    """Fully known-free occupancy plus a fresh object map."""
    occ = OccupancyMap(size, size, cell_size, cfg)
    occ.log_odds[:] = logit(0.05)
    obj = ObjectMap(size, size, cell_size, cfg)
    return occ, obj


class TestCellCuriosity:
    def test_peak_at_half(self):
        assert cell_curiosity(0.5) == pytest.approx(0.62, abs=1e-15)

    def test_direct_substitution(self):
        assert cell_curiosity(0.3) == pytest.approx(0.52, abs=1e-12)

    def test_clamped_at_extremes(self):
        # raw curve value at p=1 is -0.005 with the default constants
        params = CuriosityParams()
        raw = -((1.0 + params.offset) ** 2) / (4.0 * params.stiffness) + params.peak
        assert raw == pytest.approx(-0.005)
        assert cell_curiosity(1.0) == 0.0
        assert cell_curiosity(0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cell_curiosity(1.2)
        with pytest.raises(ValueError):
            cell_curiosity(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_about_half(self, p):
        assert abs(cell_curiosity(p) - cell_curiosity(1.0 - p)) < 1e-12

    def test_strictly_decreasing_above_half_until_clamp(self):
        values = [cell_curiosity(p) for p in np.linspace(0.5, 1.0, 101)]
        for a, b in zip(values, values[1:]):
            assert b < a or (a == 0.0 and b == 0.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CuriosityParams(stiffness=0.0)


curve_params = st.builds(CuriosityParams, st.floats(-2.0, 2.0), st.floats(1e-3, 10.0),
                         st.floats(-2.0, 2.0))


class TestOneCurve:
    """`cell_curiosity` is the curve of `curiosity_of`, bit for bit, so a
    view's score and the logged total curiosity agree. Past lambda2, where
    only the score's predicted posterior reaches, a second formula that
    squares with `pow` differs in the last bit for about 0.07% of values."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), curve_params)
    def test_cell_curiosity_is_the_array_curve(self, p, params):
        assert (np.float64(cell_curiosity(p, params)).tobytes()
                == curiosity_of(np.array([p]), params)[:1].tobytes())

    def test_past_lambda2_as_in_an_array(self):
        cfg = default_config()
        params, lambda2 = cfg.curiosity_params(), cfg.lambda2
        p = 1.0 - np.random.default_rng(28).uniform(0.0, 1.0 - lambda2, 20_000)
        assert p.min() > lambda2
        want = curiosity_of(p, params).tobytes()
        assert np.array([cell_curiosity(v, params) for v in p.tolist()]).tobytes() == want
        # as the score passes them: numpy scalars read off the classified map
        assert np.array([cell_curiosity(v, params) for v in p]).tobytes() == want


class TestTotalCuriosity:
    def test_fresh_map(self):
        obj = ObjectMap(4, 5, 1.0)
        assert total_curiosity(obj) == pytest.approx(20 * 0.62)

    def test_fully_resolved_map(self):
        obj = ObjectMap(3, 3, 1.0)
        obj.log_odds[:] = logit(0.01)  # classifies to 0 everywhere
        assert total_curiosity(obj) == 0.0

    def test_matches_per_cell_summation(self):
        rng = np.random.default_rng(21)
        obj = ObjectMap(6, 6, 1.0)
        obj.log_odds = rng.normal(0.0, 2.0, size=(6, 6))
        params = CuriosityParams()
        want = sum(cell_curiosity(float(p), params) for p in obj.classified().ravel())
        assert total_curiosity(obj, params) == pytest.approx(want, abs=1e-9)


class TestPredictObservation:
    def test_direct_substitution(self):
        assert predict_observation(0.4, 2.0, 1.0) == pytest.approx(0.8)

    def test_identity_at_equal_distance(self):
        assert predict_observation(0.37, 1.7, 1.7) == pytest.approx(0.37)

    def test_clamped_at_one(self):
        assert predict_observation(0.6, 4.0, 1.0) == 1.0

    def test_rejects_nonpositive_distances(self):
        with pytest.raises(ValueError):
            predict_observation(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            predict_observation(0.5, 1.0, -2.0)


class TestExpectedCuriosityLoss:
    def test_empty_wedge_zero_loss(self):
        occ, obj = open_maps(5)
        obj.log_odds[:] = logit(0.01)  # nothing left to learn anywhere
        cam = CameraConfig(math.radians(60), 3.0, 1.0)
        loss = expected_curiosity_loss(obj, occ, Pose(0.5, 0.5, 0.0),
                                       Pose(2.5, 2.5, 0.0), cam)
        assert loss == 0.0

    def test_deterministic(self):
        occ, obj = open_maps(5)
        cam = CameraConfig(math.radians(60), 3.0, 1.0)
        args = (obj, occ, Pose(0.5, 0.5, 0.0), Pose(2.5, 2.5, 0.7), cam)
        assert expected_curiosity_loss(*args) == expected_curiosity_loss(*args)

    def test_matches_literal_oracle_on_hand_built_belief(self):
        # full-circle camera covering the whole 5x5 map: the visible set is
        # every cell, so the oracle can walk the update chain literally
        cfg = MappingConfig()
        occ, obj = open_maps(5, cell_size=1.0, cfg=cfg)
        obj.log_odds[1, 2] = logit(0.7)    # teased cell
        obj.log_odds[3, 3] = logit(0.2)    # weakly dismissed cell
        obj.log_odds[0, 0] = logit(0.02)   # resolved free
        cam = CameraConfig(2 * math.pi, 10.0, 1.0, ray_count=721)
        current = Pose(0.5, 2.5, 0.0)
        candidate = Pose(3.5, 1.5, 0.0)
        params = CuriosityParams()

        got = expected_curiosity_loss(obj, occ, current, candidate, cam, params)

        raw = obj.raw_probabilities()
        classified = obj.classified()
        want = 0.0
        for cy in range(5):
            for cx in range(5):
                p_class = classified[cy, cx]
                c_now = max(0.0, -((p_class - 0.5) ** 2) / 0.4 + 0.62)
                if c_now <= 0.0:
                    continue
                x, y = cx + 0.5, cy + 0.5
                d_now = math.hypot(x - current.x, y - current.y)
                d_next = math.hypot(x - candidate.x, y - candidate.y)
                if d_now == 0.0:
                    continue  # documented edge: the observer's own cell is skipped
                p_evidence = 1.0 if d_next == 0.0 else min(1.0, raw[cy, cx] * d_now / d_next)
                num = raw[cy, cx] * p_evidence
                den = num + (1.0 - raw[cy, cx]) * (1.0 - p_evidence)
                fused = num / den if den else raw[cy, cx]
                if fused < cfg.lambda1:
                    post = 0.0
                elif fused <= cfg.lambda2:
                    post = 0.5
                else:
                    post = fused
                want += c_now - max(0.0, -((post - 0.5) ** 2) / 0.4 + 0.62)
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative_on_fresh_belief(self):
        # every prediction moves probabilities off the 0.5 peak, so the
        # expected drop can never be negative on a fresh object map
        occ, obj = open_maps(7)
        cam = CameraConfig(math.radians(90), 4.0, 1.0)
        current = Pose(0.5, 3.5, 0.0)
        for cx, cy in [(3, 3), (5, 1), (6, 6), (1, 5)]:
            loss = expected_curiosity_loss(obj, occ, current,
                                           Pose(cx + 0.5, cy + 0.5, 1.0), cam)
            assert loss >= 0.0

    def test_occlusion_blocks_prediction(self):
        cfg = MappingConfig()
        occ, obj = open_maps(5, cfg=cfg)
        occ.log_odds[2, 2] = logit(0.9)  # believed wall in the middle
        cam = CameraConfig(math.radians(20), 10.0, 1.0)
        # candidate looks east through the wall: cells behind it can't contribute
        visible = visible_from(occ.classify(), 1.0, Pose(0.5, 2.5, 0.0), cam)
        assert (3, 2) not in visible and (4, 2) not in visible
        assert (1, 2) in visible


class TestBayesFuse:
    def test_neutral_evidence_keeps_prior(self):
        assert bayes_fuse(0.7, 0.5) == pytest.approx(0.7)

    def test_agrees_with_odds_product(self):
        for prior, ev in [(0.5, 0.8), (0.3, 0.9), (0.85, 0.2)]:
            odds = (prior / (1 - prior)) * (ev / (1 - ev))
            assert bayes_fuse(prior, ev) == pytest.approx(odds / (1 + odds))

    def test_degenerate_guard(self):
        assert bayes_fuse(0.0, 1.0) == 0.0


class TestSelectFrontier:
    def cam(self):
        return CameraConfig(math.radians(60), 3.0, 1.0)

    def test_singleton(self):
        occ, obj = open_maps(5)
        choice = select_frontier([(3, 2)], obj, occ, Pose(0.5, 2.5, 0.0), self.cam())
        assert choice.cell == (3, 2)

    def test_all_zero_scores_nearest_wins(self):
        occ, obj = open_maps(7)
        # fresh object map has no leads: every candidate scores zero
        choice = select_frontier([(5, 1), (2, 3), (5, 5)], obj, occ,
                                 Pose(0.5, 3.5, 0.0), self.cam())
        assert choice.cell == (2, 3)
        assert choice.loss == 0.0

    def test_row_major_breaks_exact_distance_ties(self):
        occ, obj = open_maps(5)
        choice = select_frontier([(2, 3), (2, 1)], obj, occ, Pose(2.5, 2.5, 0.0), self.cam())
        assert choice.cell == (2, 1)

    def test_lead_attracts_selection(self):
        occ, obj = open_maps(9)
        obj.log_odds[4, 6] = logit(0.8)  # camera lead to the east
        current = Pose(0.5, 4.5, 0.0)
        choice = select_frontier([(5, 4), (1, 1)], obj, occ, current, self.cam())
        assert choice.cell == (5, 4)
        assert choice.loss > 0.0

    def test_matches_exhaustive_oracle_on_random_maps(self):
        rng = np.random.default_rng(77)
        cam = self.cam()
        params = CuriosityParams()
        for _ in range(30):
            size = int(rng.integers(4, 9))
            cfg = MappingConfig()
            occ = OccupancyMap(size, size, 1.0, cfg)
            occ.log_odds = rng.choice([logit(0.05), 0.0, logit(0.9)],
                                      size=(size, size), p=[0.6, 0.3, 0.1])
            obj = ObjectMap(size, size, 1.0, cfg)
            obj.log_odds = rng.choice([0.0, logit(0.75), logit(0.25)],
                                      size=(size, size), p=[0.7, 0.2, 0.1])
            free_cells = [(x, y) for y in range(size) for x in range(size)
                          if occ.classify()[y, x] == Label.FREE]
            if len(free_cells) < 3:
                continue
            idx = rng.choice(len(free_cells), size=3, replace=False)
            frontiers = [free_cells[i] for i in idx]
            cx, cy = free_cells[int(rng.integers(len(free_cells)))]
            current = Pose(cx + 0.5, cy + 0.5, float(rng.uniform(0, 2 * math.pi)))
            got = select_frontier(frontiers, obj, occ, current, cam, params)
            want, _ = scored_selection(frontiers, obj, occ, current, cam, params)
            assert got.cell == want

    def test_rescaling_losses_keeps_choice(self):
        occ, obj = open_maps(9)
        obj.log_odds[4, 6] = logit(0.8)
        current = Pose(0.5, 4.5, 0.0)
        cam = self.cam()
        frontiers = [(5, 4), (1, 1), (4, 6)]
        scored = [(expected_curiosity_loss(obj, occ, current,
                                           Pose(f[0] + 0.5, f[1] + 0.5, 0.0), cam), f)
                  for f in frontiers]
        best_scaled = max((loss * 3.7, f) for loss, f in scored)
        best_plain = max((loss, f) for loss, f in scored)
        assert best_scaled[1] == best_plain[1]

    def test_empty_frontiers_rejected(self):
        occ, obj = open_maps(3)
        with pytest.raises(ValueError):
            select_frontier([], obj, occ, Pose(0.5, 0.5, 0.0), self.cam())


@st.composite
def selection_cases(draw):
    """Small belief maps, with or without a lead (raw object probability
    above 0.5), plus candidate frontiers and a current pose."""
    size = draw(st.integers(3, 7))
    cell_size = draw(st.sampled_from([0.5, 1.0]))
    cells = [(x, y) for y in range(size) for x in range(size)]
    occ = OccupancyMap(size, size, cell_size)
    occ.log_odds = np.array(draw(st.lists(
        st.sampled_from([logit(0.05), 0.0, logit(0.9)]),
        min_size=size * size, max_size=size * size))).reshape(size, size)
    with_leads = draw(st.booleans())
    obj_values = [0.0, logit(0.25), logit(0.02)]
    if with_leads:
        obj_values += [logit(0.75), logit(0.97)]
    obj = ObjectMap(size, size, cell_size)
    obj.log_odds = np.array(draw(st.lists(
        st.sampled_from(obj_values), min_size=size * size,
        max_size=size * size))).reshape(size, size)
    if with_leads:
        x, y = draw(st.sampled_from(cells))
        obj.log_odds[y, x] = logit(0.75)
    frontiers = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6, unique=True))
    cx, cy = draw(st.sampled_from(cells))
    heading = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    current = Pose((cx + 0.5) * cell_size, (cy + 0.5) * cell_size, heading)
    return frontiers, obj, occ, current


class TestSelectFrontierOracle:
    @settings(max_examples=300, deadline=None)
    @given(selection_cases(), st.sampled_from([30.0, 60.0, 360.0]))
    def test_matches_full_scoring(self, case, fov_deg):
        frontiers, obj, occ, current = case
        cam = CameraConfig(math.radians(fov_deg), 2.0, 1.9)
        params = CuriosityParams()
        got = select_frontier(frontiers, obj, occ, current, cam, params)
        want = scored_selection(frontiers, obj, occ, current, cam, params)
        assert (got.cell, got.loss) == want
