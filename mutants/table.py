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
    # The wedge stencil (sensor.wedge_stencil): no margin at all.
    ("src/curiogrid/sensor.py",
     "_WEDGE_MARGIN = 2.0 * _WEDGE_QUANTUM\n",
     "_WEDGE_MARGIN = 0.0\n",
     ["tests/test_explorer.py::TestWedge::test_a_warm_stencil_serves_every_cell[0.3]",
      "tests/test_explorer.py::TestWedge::test_headings_of_one_key_share_a_stencil"]),
    # The wedge (explorer._Explorer._wedge): the stencil's candidates taken
    # without `wedge_cells` deciding them.
    ("src/curiogrid/explorer.py",
     "        return local_frontiers(near, self.pose, self.sensors.ir, self.world.cell_size)\n",
     "        return near\n",
     ["tests/test_explorer.py::TestWedge::test_box_bounded_wedge_matches_full_filter",
      "tests/test_explorer.py::TestWedge::test_a_warm_stencil_serves_every_cell[0.25]"]),
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
]
