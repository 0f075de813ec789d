"""Hypervolume, reference points, correlation, and result tables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from overfly import (
    FrontSummary,
    MetricError,
    hypervolume_2d,
    nondominated,
    pearson,
    relative_hv_table,
    shared_reference,
    table_csv,
    table_text,
)

from helpers import raster_hv


class TestHypervolume:
    def test_worked_example(self):
        assert hypervolume_2d([(1, 3), (2, 2), (3, 1)], (4, 4)) == 6.0

    def test_empty_front(self):
        assert hypervolume_2d([], (1, 1)) == 0.0

    def test_single_point(self):
        assert hypervolume_2d([(1.0, 1.0)], (3.0, 4.0)) == 6.0

    def test_dominated_points_do_not_change_volume(self):
        base = hypervolume_2d([(1, 3), (2, 2)], (4, 4))
        assert hypervolume_2d([(1, 3), (2, 2), (2.5, 2.5)], (4, 4)) == base

    def test_duplicates_do_not_change_volume(self):
        base = hypervolume_2d([(1, 3), (2, 2)], (4, 4))
        assert hypervolume_2d([(1, 3), (2, 2), (2, 2)], (4, 4)) == base

    def test_points_outside_reference_warn_and_are_excluded(self):
        with pytest.warns(UserWarning, match="1"):
            hv = hypervolume_2d([(1, 1), (5, 0.5)], (2, 2))
        assert hv == 1.0

    def test_point_on_reference_boundary_excluded(self):
        with pytest.warns(UserWarning):
            assert hypervolume_2d([(2.0, 1.0)], (2.0, 2.0)) == 0.0

    def test_matches_raster_oracle_on_random_fronts(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            ref = (1.2, 1.2)
            fast = hypervolume_2d([tuple(p) for p in pts], ref)
            slow = raster_hv([tuple(p) for p in pts], ref)
            assert abs(fast - slow) <= 1e-9 * max(1.0, slow)

    def test_scales_with_reference(self):
        pts = [(0.5, 0.5)]
        assert hypervolume_2d(pts, (1.5, 1.5)) == 1.0
        assert hypervolume_2d(pts, (2.5, 2.5)) == 4.0


def _brute_force_nondominated(points):
    """O(n^2) reference: the earliest copy of each point no other point
    weakly dominates, in input order."""
    return [
        i
        for i, p in enumerate(points)
        if points.index(p) == i
        and not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points)
    ]


class TestNondominated:
    @given(
        st.integers(2, 3).flatmap(
            lambda dims: st.lists(
                st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * dims), max_size=30
            )
        )
    )
    def test_matches_brute_force(self, points):
        assert nondominated(points) == _brute_force_nondominated(points)

    def test_mixed_or_wrong_dimensions_rejected(self):
        with pytest.raises(MetricError):
            nondominated([(1.0, 2.0, 3.0, 4.0)])
        with pytest.raises(MetricError):
            nondominated([(1.0, 2.0), (1.0, 2.0, 3.0)])


class TestSharedReference:
    def test_componentwise_max_scaled(self):
        fronts = [[(1.0, 5.0), (2.0, 3.0)], [(10.0, 1.0)]]
        ref = shared_reference(fronts)
        assert ref[0] == pytest.approx(11.0, rel=1e-12)
        assert ref[1] == pytest.approx(5.5, rel=1e-12)

    def test_zero_component_gets_epsilon(self):
        ref = shared_reference([[(0.0, 0.0)]])
        assert ref[0] > 0.0 and ref[1] > 0.0

    def test_every_point_strictly_dominates_reference(self):
        rng = np.random.default_rng(1)
        fronts = [rng.uniform(0.0, 10.0, size=(20, 2)) for _ in range(5)]
        ref = shared_reference(fronts)
        for front in fronts:
            for x, y in front:
                assert x < ref[0] and y < ref[1]

    def test_empty_raises(self):
        with pytest.raises(MetricError):
            shared_reference([])
        with pytest.raises(MetricError):
            shared_reference([[]])


class TestPearson:
    def test_perfect_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 6.0, 8.0]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=200)
        ys = 0.6 * xs + rng.normal(size=200)
        assert pearson(list(xs), list(ys)) == pytest.approx(
            float(np.corrcoef(xs, ys)[0, 1]), abs=1e-12
        )

    def test_errors(self):
        with pytest.raises(MetricError):
            pearson([1.0], [1.0])
        with pytest.raises(MetricError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # zero variance


def summary(instance, algo, tuned, hv):
    return FrontSummary(instance_id=instance, algorithm=algo, tuned=tuned, hypervolume=hv)


class TestTables:
    def test_exactly_one_hundred_per_instance(self):
        rows = relative_hv_table(
            [
                summary("T1-1", "nsga2", False, 0.8),
                summary("T1-1", "spea2", False, 0.9),
                summary("T1-2", "nsga2", False, 0.5),
                summary("T1-2", "spea2", False, 0.25),
            ]
        )
        by_inst = {}
        for s in rows:
            by_inst.setdefault(s.instance_id, []).append(s.relative_pct)
        assert sorted(by_inst["T1-1"]) == [pytest.approx(100 * 0.8 / 0.9), 100.0]
        assert sorted(by_inst["T1-2"]) == [50.0, 100.0]

    def test_degenerate_row_flagged(self):
        rows = relative_hv_table([summary("T9-1", "nsga2", False, 0.0)])
        assert rows[0].degenerate and rows[0].relative_pct == 0.0

    def test_csv_two_decimals_and_column_order(self):
        text = table_csv(
            [
                summary("T1-1", "nsga2", False, 0.755),
                summary("T1-1", "spea2", False, 0.9),
                summary("T1-1", "nsga2", True, 0.9),
            ]
        )
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "instance"
        # Full algorithm x tuned cross product, tuned first, canonical algo order.
        assert header[1:] == [
            "spea2_tuned_pct",
            "nsga2_tuned_pct",
            "spea2_untuned_pct",
            "nsga2_untuned_pct",
        ]
        row = lines[1].split(",")
        assert row[0] == "T1-1"
        assert row[1] == ""  # spea2 tuned never ran
        assert row[2] == "100.00"
        assert row[4] == f"{100 * 0.755 / 0.9:.2f}"

    def test_csv_missing_cell_blank(self):
        text = table_csv(
            [
                summary("T1-1", "nsga2", False, 0.8),
                summary("T1-1", "spea2", False, 0.9),
                summary("T1-2", "nsga2", False, 0.5),
            ]
        )
        lines = text.strip().split("\n")
        t12 = [ln for ln in lines if ln.startswith("T1-2")][0]
        assert t12.split(",")[1] == ""  # spea2 column empty

    def test_text_table_alignment_and_percent(self):
        text = table_text(
            [
                summary("T1-1", "nsga2", False, 0.8),
                summary("T1-1", "spea2", False, 0.9),
            ]
        )
        lines = text.strip().split("\n")
        assert "100.00%" in text and "88.89%" in text
        assert lines[1].startswith("---")

    def test_instance_rows_sorted_numerically(self):
        text = table_csv(
            [
                summary("T10-1", "nsga2", False, 0.5),
                summary("T2-1", "nsga2", False, 0.5),
            ]
        )
        lines = text.strip().split("\n")
        assert lines[1].startswith("T2-1") and lines[2].startswith("T10-1")

    def test_exactly_one_exact_hundred_with_close_scores(self):
        rows = relative_hv_table(
            [
                summary("T1-1", "nsga2", False, 0.899999),
                summary("T1-1", "spea2", False, 0.9),
            ]
        )
        exact = [s for s in rows if s.relative_pct == 100.0]
        assert len(exact) == 1 and exact[0].algorithm == "spea2"
