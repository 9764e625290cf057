import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curiogrid import explorer
from curiogrid.curiosity import CuriosityParams, curiosity_of
from curiogrid.harness import default_config, render_maps
from curiogrid.mapping import (LOG_ODDS_CAP, Label, MappingConfig, ObjectMap, OccupancyMap,
                               _edges, classify_object_probabilities, edge_labels, logit,
                               object_classes, occupancy_labels, probabilities_from_log_odds,
                               quantize, raster_pgm)
from curiogrid.sensor import Beam, CameraConfig, CameraObservation, Detection, IrConfig, IrScan
from curiogrid.world import GridWorld, Pose


def single_cell_scan(p_hit_cell=(0, 0), hit=True, distance=0.25):
    """A one-beam scan from just left of the grid aimed at cell (0, 0)."""
    pose = Pose(0.05, 0.25, 0.0)
    return IrScan(pose, (Beam(0.0, distance, hit),))


def obs_with_detection(cell, conf, pose=Pose(0.5, 0.5, 0.0)):
    return CameraObservation(pose, (), (), Detection(cell, 1.0, conf))


def obs_with_misses(cells, pose=Pose(0.5, 0.5, 0.0)):
    return CameraObservation(pose, tuple(cells), (), None)


def eq3_product_oracle(evidences):
    """Direct evaluation of the recursive odds-product filter from a 0.5 prior."""
    odds = 1.0
    for p in evidences:
        odds *= p / (1.0 - p)
    return 1.0 / (1.0 + 1.0 / odds)


class TestOccupancyUpdate:
    def test_single_hit_gives_evidence_probability(self):
        omap = OccupancyMap(3, 3, 0.5)
        omap.log_odds[1, 1] += logit(0.7)
        assert omap.probabilities()[1, 1] == pytest.approx(0.7, abs=1e-12)

    def test_two_hits_match_product_oracle(self):
        omap = OccupancyMap(1, 1, 1.0)
        omap.log_odds[0, 0] += logit(0.7)
        omap.log_odds[0, 0] += logit(0.7)
        want = eq3_product_oracle([0.7, 0.7])
        assert want == pytest.approx(49.0 / 58.0)
        assert omap.probabilities()[0, 0] == pytest.approx(want, abs=1e-12)

    def test_opposite_evidence_cancels(self):
        omap = OccupancyMap(1, 1, 1.0)
        omap.log_odds[0, 0] += logit(0.7)
        omap.log_odds[0, 0] += logit(0.3)
        assert omap.probabilities()[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_scan_marks_ray_cells(self):
        omap = OccupancyMap(8, 3, 1.0, MappingConfig())
        pose = Pose(0.5, 1.5, 0.0)
        scan = IrScan(pose, (Beam(0.0, 4.5, True),))
        omap.integrate_scan(scan)
        p = omap.probabilities()
        assert p[1, 0] == pytest.approx(0.35)   # origin cell: miss evidence
        assert p[1, 4] == pytest.approx(0.35)
        assert p[1, 5] == pytest.approx(0.7)    # struck cell (face at 4.5 m)
        assert p[1, 6] == pytest.approx(0.5)    # beyond the hit: untouched

    def test_no_hit_beam_marks_free_only(self):
        omap = OccupancyMap(8, 3, 1.0)
        pose = Pose(0.5, 1.5, 0.0)
        omap.integrate_scan(IrScan(pose, (Beam(0.0, 2.5, False),)))
        p = omap.probabilities()
        assert p[1, 2] == pytest.approx(0.35)
        assert (p[1, 3:] == 0.5).all()

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_scan_evidence_in_any_memory_layout(self, layout):
        # take and put index the cells in row-major order whatever the
        # layout, and write through to the array itself
        rng = np.random.default_rng(3)
        prior = rng.normal(size=(5, 7))
        cells = rng.permutation(35)[:20].astype(np.int32)
        c_order = OccupancyMap(7, 5, 1.0)
        c_order.log_odds = prior.copy()
        other = OccupancyMap(7, 5, 1.0)
        other.log_odds = (np.asfortranarray(prior) if layout == "F"
                          else np.repeat(prior, 2, axis=1)[:, ::2])
        assert not other.log_odds.flags.c_contiguous
        got = other.add_scan_evidence(cells, 12)
        assert got.tobytes() == c_order.add_scan_evidence(cells, 12).tobytes()
        assert other.log_odds.tobytes() == c_order.log_odds.tobytes()
        want = prior.copy()  # one evidence bump per cell, cell by cell
        for k, i in enumerate(cells.tolist()):
            want[i // 7, i % 7] += logit(c_order.cfg.p_miss if k < 12 else c_order.cfg.p_hit)
        assert c_order.log_odds.tobytes() == want.tobytes()
        assert got.tobytes() == want.ravel()[cells].tobytes()

    def test_probabilities_stay_inside_open_interval(self):
        omap = OccupancyMap(1, 1, 1.0)
        for _ in range(10_000):
            omap.log_odds[0, 0] += logit(0.7)
        p = omap.probabilities()[0, 0]
        assert 0.0 < p < 1.0


class TestClassifyOccupancy:
    def test_untouched_map_all_unknown(self):
        omap = OccupancyMap(4, 4, 1.0)
        assert (omap.classify() == Label.UNKNOWN).all()

    def test_threshold_application(self):
        cfg = MappingConfig(p_free_max=0.35, p_occ_min=0.65)
        omap = OccupancyMap(3, 1, 1.0, cfg)
        omap.log_odds[0, 0] = logit(0.9)
        omap.log_odds[0, 1] = logit(0.2)
        labels = omap.classify()
        assert labels[0, 0] == Label.OCCUPIED
        assert labels[0, 1] == Label.FREE
        assert labels[0, 2] == Label.UNKNOWN

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(5)
        omap = OccupancyMap(10, 10, 1.0)
        omap.log_odds = rng.normal(0.0, 3.0, size=(10, 10))
        labels = omap.classify()
        assert set(np.unique(labels)) <= {Label.FREE, Label.OCCUPIED, Label.UNKNOWN}


def _ulps_around(x: float, ulps: int) -> np.ndarray:
    """The float64s up to `ulps` steps from a finite nonzero x, in order."""
    bits = np.array([x]).view(np.int64)[0]
    return np.arange(bits - ulps, bits + ulps + 1, dtype=np.int64).view(np.float64)


@st.composite
def label_configs(draw):
    """Mapping configs whose thresholds may coincide, or lie so close to 0
    or 1 that their log odds pass LOG_ODDS_CAP (1 / (1 + e^20) is 2.06e-9)."""
    p = st.one_of(st.floats(1e-12, 1.0 - 1e-12),
                  st.sampled_from([1e-12, 1e-10, 2.06e-9, 2.07e-9, 0.35, 0.5, 0.65,
                                   1.0 - 2.07e-9, 1.0 - 2.06e-9, 1.0 - 1e-10]))
    low, high = sorted((draw(p), draw(p)))
    if draw(st.booleans()):
        low = high
    return MappingConfig(p_free_max=low, p_occ_min=high)


class TestLabelEdges:
    """The explorer labels cells off two log-odds edges (`edge_labels`);
    `occupancy_labels` is the spec."""

    def test_packaged_edges_bit_equal_to_the_spec(self):
        cfg = default_config().mapping_config()
        edges = _edges(cfg.p_free_max, cfg.p_occ_min)
        # one miss lands on the free edge and stays UNKNOWN
        assert edges[0] == logit(cfg.p_miss) == -0.6190392084062235
        assert occupancy_labels(np.array([logit(cfg.p_miss)]), cfg)[0] == Label.UNKNOWN
        for edge in edges:
            near = _ulps_around(edge, 1 << 20)
            assert (edge_labels(near, cfg) == occupancy_labels(near, cfg)).all()
            below, at = occupancy_labels(np.array([np.nextafter(edge, -np.inf), edge]), cfg)
            assert below != at

    @settings(max_examples=200, deadline=None)
    @given(label_configs(), st.lists(st.floats(-1e3, 1e3), max_size=50))
    def test_edges_match_the_spec_for_any_config(self, cfg, values):
        # log odds are uncapped sums: 40 misses at p_miss 0.35 give -24.8,
        # which an edge clamped to the cap instead of -inf would call FREE
        edges = _edges(cfg.p_free_max, cfg.p_occ_min)
        checks = [np.array(values), np.array([-1e300, -24.8, -20.0, 0.0, 20.0, 24.8, 1e300])]
        checks += [_ulps_around(x, 1 << 10) for x in (-LOG_ODDS_CAP, LOG_ODDS_CAP)]
        checks += [_ulps_around(e, 1 << 10) for e in edges if np.isfinite(e) and e != 0.0]
        x = np.concatenate(checks)
        assert (edge_labels(x, cfg) == occupancy_labels(x, cfg)).all()


@st.composite
def object_configs(draw):
    """Mapping configs whose object thresholds lie one float apart, on either
    side of 0.5 or at it, or so close to 0 or 1 that their log odds pass
    LOG_ODDS_CAP (an edge of -inf or inf)."""
    p = st.one_of(st.floats(1e-12, 1.0 - 1e-12),
                  st.sampled_from([1e-12, 1e-10, 2.06e-9, 2.07e-9, 0.1, 0.3, 0.5, 0.95,
                                   np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                                   1.0 - 2.07e-9, 1.0 - 2.06e-9, 1.0 - 1e-10]))
    low, high = sorted((draw(p), draw(p)))
    if low == high or draw(st.booleans()):
        high = float(np.nextafter(low, 1.0))
    return MappingConfig(lambda1=low, lambda2=high)


def _spec_curiosity(x, cfg, params):
    """The classified object value's curiosity, as the full chain gives it."""
    return curiosity_of(classify_object_probabilities(probabilities_from_log_odds(x),
                                                      cfg.lambda1, cfg.lambda2), params)


def _spec_classes(x, cfg):
    """The class of each log odds in `x` under `classify_object_probabilities`
    (0 where it gives 0.0, 1 where it gives 0.5, 2 where the probability
    passes through), checked against the values the rule gives."""
    p = probabilities_from_log_odds(x)
    classes = (p >= cfg.lambda1).astype(int) + (p > cfg.lambda2)
    values = np.choose(classes, [np.zeros_like(p), np.full_like(p, 0.5), p])
    assert np.array_equal(classify_object_probabilities(p, cfg.lambda1, cfg.lambda2), values)
    return classes


def _edge_curiosity(x, cfg, params):
    """The explorer's curiosity of log odds `x`, read off the object edges."""
    world = GridWorld(1, 1, 1.0, np.zeros((1, 1), dtype=bool), Pose(0.5, 0.5, 0.0))
    ex = explorer._Explorer(world, explorer.RunSettings(
        explorer.SensorSuite(IrConfig(1.0, 1.0), CameraConfig()), mapping=cfg, params=params,
        method="baseline"))
    return ex._curiosity(x)


class TestObjectEdges:
    """`object_classes` reads each cell's object class off two log-odds edges
    (`MappingConfig.object_edges`, `_edges(lambda1, lambda2)`), and the
    explorer each cell's curiosity off the classes; `classify_object_probabilities`
    of `probabilities_from_log_odds(x)`, and the chain `curiosity_of` of it,
    are the spec."""

    def test_packaged_edges_bit_equal_to_the_spec(self):
        cfg = default_config().mapping_config()
        params = default_config().curiosity_params()
        edges = cfg.object_edges
        assert edges is _edges(cfg.lambda1, cfg.lambda2)
        # logit(0.1), and one float past logit(0.95), whose probability is 0.95
        assert list(edges) == [logit(cfg.lambda1), np.nextafter(logit(cfg.lambda2), np.inf)]
        assert list(edges) == [-2.197224577336219, 2.94443897916644]
        for edge in edges:
            near = _ulps_around(edge, 1 << 20)
            assert np.array_equal(object_classes(near, cfg), _spec_classes(near, cfg))
            assert np.array_equal(_edge_curiosity(near, cfg, params),
                                  _spec_curiosity(near, cfg, params))
            below, at = classify_object_probabilities(probabilities_from_log_odds(
                np.array([np.nextafter(edge, -np.inf), edge])), cfg.lambda1, cfg.lambda2)
            assert below != at

    @settings(max_examples=200, deadline=None)
    @given(object_configs(),
           st.sampled_from([CuriosityParams(), CuriosityParams(-0.4, 0.2, 0.9)]),
           st.lists(st.floats(-1e3, 1e3), max_size=50))
    def test_edges_match_the_spec_for_any_config(self, cfg, params, values):
        edges = cfg.object_edges
        assert edges is _edges(cfg.lambda1, cfg.lambda2)
        checks = [np.array(values),
                  np.array([-1e300, -24.8, -20.0, -1e-300, 0.0, 1e-300, 20.0, 24.8, 1e300])]
        # log odds whose probability rounds to 0.5, or to a float next to it
        checks += [np.linspace(-1e-15, 1e-15, 201)]
        checks += [_ulps_around(x, 1 << 10) for x in (-LOG_ODDS_CAP, LOG_ODDS_CAP)]
        checks += [_ulps_around(e, 1 << 10) for e in edges if np.isfinite(e) and e != 0.0]
        x = np.concatenate(checks)
        assert np.array_equal(object_classes(x, cfg), _spec_classes(x, cfg))
        assert np.array_equal(_edge_curiosity(x, cfg, params), _spec_curiosity(x, cfg, params))
        assert edges[0] <= edges[1]


class TestObjectMapUpdate:
    def test_paper_lambda_cases(self):
        # raw 0.05 -> free (0), raw 0.5 -> unknown (0.5), raw 0.97 passes through
        p = np.array([[0.05, 0.5, 0.97]])
        out = classify_object_probabilities(p, 0.10, 0.95)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 0.5
        assert out[0, 2] == 0.97

    def test_boundaries_snap_to_unknown(self):
        p = np.array([[0.10, 0.95]])
        out = classify_object_probabilities(p, 0.10, 0.95)
        assert (out == 0.5).all()

    def test_detection_fuses_confidence(self):
        omap = ObjectMap(3, 3, 1.0)
        omap.integrate_observation(obs_with_detection((1, 1), 0.8))
        assert omap.raw_probabilities()[1, 1] == pytest.approx(0.8, abs=1e-12)

    def test_miss_evidence_decreases(self):
        omap = ObjectMap(3, 3, 1.0)
        omap.integrate_observation(obs_with_misses([(0, 0), (1, 0)]))
        p = omap.raw_probabilities()
        assert p[0, 0] == pytest.approx(0.3)
        assert p[0, 1] == pytest.approx(0.3)
        assert p[2, 2] == 0.5

    def test_detected_cell_skips_miss_evidence(self):
        omap = ObjectMap(3, 3, 1.0)
        obs = CameraObservation(Pose(0.5, 0.5, 0.0), ((1, 1), (2, 1)), (),
                                Detection((1, 1), 1.0, 0.9))
        omap.integrate_observation(obs)
        assert omap.raw_probabilities()[1, 1] == pytest.approx(0.9, abs=1e-12)
        assert omap.raw_probabilities()[1, 2] == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_cell_loop(self, data):
        width, height = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        cells = [(x, y) for y in range(height) for x in range(width)]
        prior = np.array(data.draw(st.lists(
            st.floats(-5.0, 5.0), min_size=width * height,
            max_size=width * height))).reshape(height, width)
        seen = data.draw(st.lists(st.sampled_from(cells), unique=True))
        det = data.draw(st.none() | st.builds(lambda cell, conf: Detection(cell, 1.0, conf),
                                              st.sampled_from(cells), st.floats(0.0, 1.0)))
        got = ObjectMap(width, height, 1.0)
        got.log_odds = prior.copy()
        got.integrate_observation(CameraObservation(Pose(0.5, 0.5, 0.0), tuple(seen), (),
                                                    det))
        want = prior.copy()  # one evidence bump per cell, cell by cell
        lo_miss = logit(got.cfg.p_miss_cam)
        for cx, cy in seen:
            if det is None or (cx, cy) != det.cell:
                want[cy, cx] += lo_miss
        if det is not None:
            ev_min = 1.0 / (1.0 + math.exp(LOG_ODDS_CAP))
            ev = min(max(det.conf, ev_min), 1.0 - ev_min)
            want[det.cell[1], det.cell[0]] += logit(ev)
        assert np.array_equal(got.log_odds, want)

    def test_full_confidence_saturates_not_infinite(self):
        omap = ObjectMap(2, 2, 1.0)
        omap.integrate_observation(obs_with_detection((0, 0), 1.0))
        p = omap.raw_probabilities()[0, 0]
        assert 0.99 < p < 1.0

    def test_classified_view_leaves_raw_intact(self):
        omap = ObjectMap(2, 2, 1.0)
        omap.integrate_observation(obs_with_detection((0, 0), 0.7))
        omap.classified()
        assert omap.raw_probabilities()[0, 0] == pytest.approx(0.7, abs=1e-12)


class TestOrderInvariance:
    def test_permutations_agree(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            size = rng.integers(2, 6)
            confs = rng.uniform(0.05, 0.95, size=size)
            base = None
            for perm in itertools.permutations(confs):
                omap = ObjectMap(1, 1, 1.0)
                for conf in perm:
                    omap.integrate_observation(obs_with_detection((0, 0), float(conf)))
                p = omap.raw_probabilities()[0, 0]
                if base is None:
                    base = p
                else:
                    assert p == pytest.approx(base, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6),
           st.randoms(use_true_random=False))
    def test_shuffled_evidence_matches_oracle(self, confs, rnd):
        shuffled = list(confs)
        rnd.shuffle(shuffled)
        omap = ObjectMap(1, 1, 1.0)
        for conf in shuffled:
            omap.integrate_observation(obs_with_detection((0, 0), conf))
        assert omap.raw_probabilities()[0, 0] == pytest.approx(
            eq3_product_oracle(confs), abs=1e-9)


class TestClassificationIdempotence:
    def test_idempotent_on_random_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0, size=(6, 6))
            once = classify_object_probabilities(p, 0.10, 0.95)
            twice = classify_object_probabilities(once, 0.10, 0.95)
            assert (once == twice).all()

    def test_partition_after_classification(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.0, 1.0, size=(20, 20))
        out = classify_object_probabilities(p, 0.10, 0.95)
        free = out == 0.0
        unknown = out == 0.5
        occupied = out > 0.95
        assert (free | unknown | occupied).all()
        assert not (free & unknown).any()
        assert not (free & occupied).any()
        assert not (unknown & occupied).any()


class TestSerialization:
    def test_pgm_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, size=(5, 7))
        raster = quantize(values)
        assert raster_pgm(raster) == b"P5\n7 5\n255\n" + raster.tobytes()

    def test_fresh_map_uniform_mid_gray(self):
        omap = OccupancyMap(4, 4, 1.0)
        assert (quantize(omap.probabilities()) == 128).all()

    def test_ascii_occupancy_draws_the_labels(self):
        rng = np.random.default_rng(11)
        omap = OccupancyMap(6, 6, 1.0)
        omap.log_odds[:] = rng.uniform(-2.0, 2.0, size=(6, 6))
        labels = omap.classify()
        result = explorer.ExplorationResult(omap, ObjectMap(6, 6, 1.0), 0.0, None)
        lines = render_maps(result, "ascii")["occupancy"].splitlines()
        for y in range(6):
            for x in range(6):
                want = {Label.FREE: ".", Label.OCCUPIED: "#", Label.UNKNOWN: "?"}[labels[y, x]]
                assert lines[y][x] == want

    def test_one_ir_miss_draws_unknown(self):
        # one miss leaves p just above p_free_max, UNKNOWN by the label rule,
        # though its byte (89) lies below p_free_max * 255
        cfg = MappingConfig()
        omap = OccupancyMap(3, 1, 1.0, cfg)
        omap.log_odds[0, 1] += logit(cfg.p_miss)
        assert omap.classify()[0, 1] == Label.UNKNOWN
        assert quantize(omap.probabilities())[0, 1] / 255.0 < cfg.p_free_max
        result = explorer.ExplorationResult(omap, ObjectMap(3, 1, 1.0, cfg), 0.0, None)
        assert render_maps(result, "ascii")["occupancy"] == "???\n"

    def test_object_glyphs(self):
        # raw 0.05, 0.5 and 0.97 classify to 0.0, 0.5 and 0.97
        objects = ObjectMap(3, 1, 1.0)
        objects.log_odds[0] = [logit(0.05), 0.0, logit(0.97)]
        result = explorer.ExplorationResult(OccupancyMap(3, 1, 1.0), objects, 0.0, None)
        assert render_maps(result, "ascii")["objects"] == ".?*\n"
        assert render_maps(result, "pgm")["objects"] == raster_pgm(quantize(objects.classified()))

    def test_both_views_follow_the_classes_below_half(self):
        # lambda2 < 0.5: raw 0.3 is unknown, and 0.45 and 0.5 pass through,
        # so only an object class decides '*', not a value above lambda2
        cfg = MappingConfig(lambda1=0.2, lambda2=0.4)
        objects = ObjectMap(5, 1, 1.0, cfg)
        objects.log_odds[0] = [logit(p) for p in (0.1, 0.3, 0.45, 0.5, 0.9)]
        occupancy = OccupancyMap(5, 1, 1.0, cfg)
        occupancy.log_odds[:] = -5.0  # all FREE, so no frontier
        maps = render_maps(explorer.ExplorationResult(occupancy, objects, 0.0, None), "ascii")
        classes = _spec_classes(objects.log_odds, cfg)
        assert classes.tolist() == [[0, 1, 2, 2, 2]]
        assert maps["objects"] == ".?***\n"
        assert maps["combined"] == "..***\n"
        pgm = render_maps(explorer.ExplorationResult(occupancy, objects, 0.0, None), "pgm")
        assert pgm["combined"].endswith(bytes([255, 255, 64, 64, 64]))


def test_belief_maps_share_one_init():
    assert OccupancyMap.__init__ is ObjectMap.__init__
    cfg = MappingConfig(lambda1=0.2)
    for kind in (OccupancyMap, ObjectMap):
        belief = kind(3, 2, 0.5, cfg)
        assert (belief.width, belief.height, belief.cell_size, belief.cfg) == (3, 2, 0.5, cfg)
        assert belief.log_odds.shape == (2, 3) and belief.log_odds.dtype == float
        assert not belief.log_odds.any()


def test_mapping_config_validation():
    with pytest.raises(ValueError):
        MappingConfig(lambda1=0.9, lambda2=0.2)
    with pytest.raises(ValueError):
        MappingConfig(p_hit=1.5)
