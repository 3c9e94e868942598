"""Tests for the graph partitioner (the ``mor`` engine's atom tiling)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Analysis
from repro.errors import AnalysisError
from repro.grid import GridSpec, generate_power_grid, stamp
from repro.partition import (
    GridPartition,
    coordinate_bisection,
    graph_bisection,
    node_coordinates,
    partition_matrix,
    partition_system,
    system_partition,
    union_structure,
)


@pytest.fixture(scope="module")
def medium_stamped():
    """A 20x20 two-layer grid: big enough for meaningful 8-way partitions."""
    return stamp(generate_power_grid(GridSpec(nx=20, ny=20, seed=3, calibrate=False)))


@pytest.fixture(scope="module")
def partition_session():
    """A small analysis session whose stochastic system gets tiled."""
    return Analysis.from_spec(500, seed=5)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------
class TestPartitioner:
    def test_coordinate_bisection_balances_and_is_deterministic(self):
        coords = np.array([(i, j) for i in range(10) for j in range(10)], dtype=float)
        first = coordinate_bisection(coords, 4)
        second = coordinate_bisection(coords, 4)
        assert np.array_equal(first, second)
        counts = np.bincount(first, minlength=4)
        assert counts.sum() == 100
        assert counts.min() >= 20

    def test_graph_bisection_covers_all_nodes(self, medium_stamped):
        structure = union_structure(medium_stamped.conductance, medium_stamped.capacitance)
        assignments = graph_bisection(structure, 3)
        assert assignments.shape == (medium_stamped.num_nodes,)
        assert set(np.unique(assignments)) == {0, 1, 2}

    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4, 8])
    def test_partition_system_is_a_separator(self, medium_stamped, num_parts):
        partition = partition_system(medium_stamped, num_parts)
        assert partition.num_parts == num_parts
        structure = union_structure(medium_stamped.conductance, medium_stamped.capacitance)
        partition.validate_against(structure)  # raises on a bad separator
        covered = np.sort(np.concatenate([partition.boundary, *partition.interiors]))
        assert np.array_equal(covered, np.arange(medium_stamped.num_nodes))

    def test_single_part_has_empty_interface(self, medium_stamped):
        partition = partition_system(medium_stamped, 1)
        assert partition.boundary.size == 0
        assert partition.interior_sizes == (medium_stamped.num_nodes,)

    def test_node_coordinates_parses_generator_names(self):
        coords = node_coordinates(("n0_1_2", "n1_0_5"))
        assert np.array_equal(coords, np.array([[1.0, 2.0], [0.0, 5.0]]))
        assert node_coordinates(("n0_1_2", "other")) is None

    def test_graph_fallback_for_unparseable_names(self):
        # A ring graph with opaque node names exercises the BFS path.
        n = 24
        rows = np.arange(n)
        cols = (rows + 1) % n
        matrix = sp.coo_matrix((np.ones(n), (rows, cols)), shape=(n, n)) + sp.eye(n)
        matrix = matrix + matrix.T
        partition = partition_matrix(matrix.tocsr(), 2)
        assert partition.num_parts == 2
        partition.validate_against(matrix.tocsr())

    def test_partition_rejects_bad_part_counts(self, medium_stamped):
        with pytest.raises(AnalysisError):
            partition_system(medium_stamped, 0)

    def test_partition_stats_are_json_friendly(self, medium_stamped):
        import json

        stats = partition_system(medium_stamped, 4).stats()
        assert json.loads(json.dumps(stats)) == stats

    def test_grid_partition_rejects_partial_cover(self):
        with pytest.raises(AnalysisError):
            GridPartition(
                num_nodes=4,
                interiors=(np.array([0, 1]),),
                boundary=np.array([2]),
                assignments=np.zeros(4, dtype=int),
            )

    def test_system_partition_respects_sensitivity_structure(self, partition_session):
        partition = system_partition(partition_session.system, 2)
        structure = union_structure(
            partition_session.system.g_nominal, partition_session.system.c_nominal
        )
        partition.validate_against(structure)


# ---------------------------------------------------------------------------
# Sweep artifacts
# ---------------------------------------------------------------------------
class TestWiring:
    def test_old_records_without_partitions_still_match(self):
        from repro.sweep import BenchRecord

        legacy_case = {
            "name": "opera-n100-o2-paper",
            "engine": "opera",
            "nodes": 100,
            "num_nodes": 104,
            "corner": "paper",
            "order": 2,
            "samples": None,
            "seed": 1,
            "wall_time_s": 0.1,
            "worst_drop_v": 0.05,
            "max_std_v": 0.01,
            "speedup_vs_mc": None,
        }
        record = BenchRecord(cases=(legacy_case,))
        (key,) = record.case_map().keys()
        assert key == ("opera", 100, 2, None, "paper")
