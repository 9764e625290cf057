"""The seeded mutants: each a fault in one file, and the tests that must fail.

Each entry is (file, old text, new text, test ids). `run.py` applies one entry
to a copy of the tree, where the old text must occur exactly once, and runs
the named tests there; the mutant is killed when they fail.
"""

MUTANTS = [
    # Scan fusion (mapping.OccupancyMap.add_scan_evidence).
    ("src/curiogrid/mapping.py",
     "        values[:hits_at] += self.cfg.miss_step\n",
     "        values[:hits_at] += self.cfg.miss_step + self.cfg.hit_step\n",
     ["tests/test_mapping.py::TestOccupancyUpdate::test_scan_marks_ray_cells",
      "tests/test_explorer.py::TestSenseCache::test_cached_senses_fuse_the_spec",
      "tests/test_oracle.py::test_loop_equals_the_spec"]),
    ("src/curiogrid/mapping.py",
     "        values = self.log_odds.take(cells)\n"
     "        values[:hits_at] += self.cfg.miss_step\n"
     "        values[hits_at:] += self.cfg.hit_step\n"
     "        self.log_odds.put(cells, values)\n"
     "        return values\n",
     "        values = self.log_odds.take(cells)\n"
     "        before = values.copy()\n"
     "        values[:hits_at] += self.cfg.miss_step\n"
     "        values[hits_at:] += self.cfg.hit_step\n"
     "        self.log_odds.put(cells, values)\n"
     "        return before\n",
     ["tests/test_explorer.py::TestMaintainedViews::test_every_sense_fuses_the_spec",
      "tests/test_explorer.py::TestMaintainedViews::test_views_match_full_recomputation",
      "tests/test_oracle.py::test_loop_equals_the_spec"]),
    ("src/curiogrid/mapping.py",
     "        self.log_odds.put(cells, values)\n",
     "",
     ["tests/test_mapping.py::TestOccupancyUpdate::test_scan_marks_ray_cells",
      "tests/test_explorer.py::TestSenseCache::test_cached_senses_fuse_the_spec",
      "tests/test_oracle.py::test_loop_equals_the_spec"]),
    # The relabel after a sense (explorer._Explorer._fuse): fed the log odds
    # from before the fuse.
    ("src/curiogrid/explorer.py",
     "        values = self.occupancy.add_scan_evidence(touched, hits_at)\n",
     "        values = self.occupancy.log_odds.take(touched)\n"
     "        self.occupancy.add_scan_evidence(touched, hits_at)\n",
     ["tests/test_explorer.py::TestMaintainedViews::test_every_sense_fuses_the_spec",
      "tests/test_oracle.py::test_loop_equals_the_spec"]),
    # The wedge (sensor.wedge_cells): offsets read from absolute centres,
    # whose rounding at 0.3 m depends on the cell index, so a stencil built
    # at one cell serves others wrongly where a range or an edge runs
    # through centres. (The shift test's runs meet no such centre: it lets
    # this mutant live.)
    ("src/curiogrid/sensor.py",
     "        dx, dy = (cell[0] - px) * cell_size - u, (cell[1] - py) * cell_size - v\n",
     "        dx, dy = (cell[0] + 0.5) * cell_size - pose.x, (cell[1] + 0.5) * cell_size - pose.y\n",
     ["tests/test_explorer.py::TestWedge::test_a_warm_stencil_serves_every_cell[0.3]"]),
    # The ray origin (world.ray_origin): no centre rule, so at 0.3 m each
    # cell centre is its own fan-table spot.
    ("src/curiogrid/world.py",
     "    bx = (half, -half) if u == 0.0 else ((cx + 1) * cell_size - ox, cx * cell_size - ox)\n"
     "    by = (half, -half) if v == 0.0 else ((cy + 1) * cell_size - oy, cy * cell_size - oy)\n",
     "    bx = (cx + 1) * cell_size - ox, cx * cell_size - ox\n"
     "    by = (cy + 1) * cell_size - oy, cy * cell_size - oy\n",
     ["tests/test_explorer.py::TestWedge::test_a_zone_run_at_0_3_m_builds_few_stencils",
      "tests/test_oracle.py::test_a_run_does_not_depend_on_where_the_map_lies"]),
    # The wedge stencil (sensor.wedge_stencil): keyed without the pose's
    # offset in its cell, so an off-centre pose reads a centre's stencil.
    ("src/curiogrid/sensor.py",
     "    key = (u, v, pose.heading, cell_size, cfg.max_range, cfg.fov)\n",
     "    key = (pose.heading, cell_size, cfg.max_range, cfg.fov)\n",
     ["tests/test_explorer.py::TestWedge::test_a_warm_stencil_serves_every_cell[0.25]"]),
    # The path-blocked check (explorer._Explorer._to_next_pose): the rest of
    # the path read one cell late.
    ("src/curiogrid/explorer.py",
     "isdisjoint(self.at[along:].tolist())",
     "isdisjoint(self.at[along + 1:].tolist())",
     ["tests/test_explorer.py::TestPathCheck::test_only_a_blocked_rest_of_the_path_replans"]),
    # The label edges (mapping._edge): the cap returned, not -inf, when the
    # rule holds at the cap already, so uncapped log odds below it go FREE.
    ("src/curiogrid/mapping.py",
     "        return -math.inf\n",
     "        return -LOG_ODDS_CAP\n",
     ["tests/test_mapping.py::TestLabelEdges::test_edges_match_the_spec_for_any_config"]),
    # The label edges (mapping._edges): the free edge one ulp low.
    ("src/curiogrid/mapping.py",
     "    edges = np.array([_edge(lambda x: p(x) >= low), ",
     "    edges = np.array([np.nextafter(_edge(lambda x: p(x) >= low), -np.inf), ",
     ["tests/test_mapping.py::TestLabelEdges::test_packaged_edges_bit_equal_to_the_spec"]),
    # The sense table (sensor.sense_cells): every beam, the camera's too,
    # walked with the first fan's range, the IR range when there is an IR fan.
    ("src/curiogrid/sensor.py",
     "            [fan.max_range for fan in fans for _ in range(fan.ray_count)],\n",
     "            [fans[0].max_range for fan in fans for _ in range(fan.ray_count)],\n",
     ["tests/test_world.py::test_sense_cells_with_unequal_fans"]),
    # The IR hit mark (sensor._fan_table): a hit marked on the cell it enters
    # even when that cell lies outside the lattice.
    ("src/curiogrid/sensor.py",
     "np.where(hit, _OUTSIDE, 0)",
     "np.where(hit, _OUTSIDE + 1, 0)",
     ["tests/test_world.py::test_sense_cells_with_unequal_fans",
      "tests/test_world.py::test_fan_walk_matches_trace_ray"]),
    # The package surface (curiogrid/__init__.py): the mission module
    # imported eagerly, so the zone path loads it.
    ("src/curiogrid/__init__.py",
     "__version__ = \"0.1.0\"\n",
     "__version__ = \"0.1.0\"\nfrom .mission import run_mission  # noqa: E402\n",
     ["tests/test_package.py::test_the_zone_path_loads_no_mission_module"]),
    # The CLI (curiogrid/cli.py): the mission module imported at the top, so
    # `zones`, `sweep` and `explore` load it too.
    ("src/curiogrid/cli.py",
     "from .world import MapError, ZoneError, load_map\n",
     "from .mission import mission_log_lines, run_mission\n"
     "from .world import MapError, ZoneError, load_map\n",
     ["tests/test_package.py::test_the_zone_path_loads_no_mission_module"]),
    # The sense table memo (sensor.sense_cells): tables left out of the memo
    # count, so the memo outgrows its bound.
    ("src/curiogrid/sensor.py",
     "lambda t: t.beyond.size, _FAN_TABLE_LIMIT)",
     "lambda t: 0, _FAN_TABLE_LIMIT)",
     ["tests/test_sensor.py::test_sense_tables_share_the_memo_bound"]),
    # The curiosity curve (curiosity.cell_curiosity): a second formula, which
    # squares with `pow` and so differs from `curiosity_of` in the last bit.
    ("src/curiogrid/curiosity.py",
     "    return float(curiosity_of(p, params))\n",
     "    return max(0.0, -((p + params.offset) ** 2) / (4.0 * params.stiffness) + params.peak)\n",
     ["tests/test_curiosity.py::TestOneCurve::test_past_lambda2_as_in_an_array"]),
    # The camera sweep (curiosity.visible_from): unknown cells block the rays
    # too (FREE is 0).
    ("src/curiogrid/curiosity.py",
     "fan_codes(occ_labels == OCCUPIED)",
     "fan_codes(occ_labels != 0)",
     ["tests/test_world.py::test_trace_ray_matches_grid_ray_oracle"]),
    # The object classes (mapping.object_classes): log odds on an edge put
    # in the class below it.
    ("src/curiogrid/mapping.py",
     "    return cfg.object_edges.searchsorted(log_odds, \"right\")\n",
     "    return cfg.object_edges.searchsorted(log_odds, \"left\")\n",
     ["tests/test_mapping.py::TestObjectEdges::test_packaged_edges_bit_equal_to_the_spec"]),
    # The overlay (harness.render_maps): unknown object cells marked as
    # objects too.
    ("src/curiogrid/harness.py",
     "    overlay[classes == 2] = 4\n",
     "    overlay[classes >= 1] = 4\n",
     ["tests/test_mapping.py::TestSerialization::test_both_views_follow_the_classes_below_half"]),
    # The cdos pick (curiosity.select_frontier): every visible cell scored,
    # not the leads alone.
    ("src/curiogrid/curiosity.py",
     "            seen = [c for c in visible_from(labels, cs, candidate, cam) if c in leads]\n",
     "            seen = visible_from(labels, cs, candidate, cam)\n",
     ["tests/test_curiosity.py::TestSelectFrontierOracle::test_matches_full_scoring"]),
]
