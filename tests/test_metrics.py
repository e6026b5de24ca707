"""Verification tests for stratified reports, deltas, and rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drotrain import metrics
from drotrain.metrics import (
    CELL_NAMES,
    compare_reports,
    percentile_report,
    render_comparison_json,
    render_comparison_text,
    render_delta,
    render_json,
    render_text,
    render_value,
)
from drotrain.scores import ScoreRow, ScoreTable, load_scores, write_scores
from oracles import percentile_report_walk, percentile_sort_oracle


def _table(rows):
    return ScoreTable([ScoreRow(*r) for r in rows])


def _random_table(rng, n_cases, groups=("majority", "minority"), regions=("left", "right")):
    rows = []
    for i in range(n_cases):
        group = groups[int(rng.integers(len(groups)))]
        for region in regions:
            rows.append(ScoreRow(f"case_{i:03d}", group, region, float(rng.random())))
    return ScoreTable(rows)


class TestPercentileReport:
    def test_singleton_stratum(self):
        report = percentile_report(_table([("c0", "g", "r", 0.8)]))
        assert len(report.groups) == 1
        block = report.groups[0]
        assert block.name == "g"
        assert block.cases == 1
        region, stats = block.regions[0]
        assert region == "r"
        assert stats.count == 1
        # one sample: every statistic collapses to that score, in percent
        assert stats.std == 0.0
        for cell in (stats.mean, stats.p50, stats.p25, stats.p10, stats.p5):
            assert cell == 100.0 * 0.8

    def test_uniform_grid_percentiles(self):
        rows = [(f"c{i:03d}", "g", "r", i / 100.0) for i in range(1, 101)]
        _, stats = percentile_report(_table(rows)).groups[0].regions[0]
        rendered = [render_value(v) for v in stats.cells()]
        assert rendered == ["50.5", "28.9", "50.0", "25.0", "10.0", "5.0"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(37)
        table = _random_table(rng, 37)
        report = percentile_report(table)
        by_stratum = {}
        for row in table:
            by_stratum.setdefault((row.group, row.region), []).append(row.score)
        for block in report.groups:
            for region, stats in block.regions:
                scores = by_stratum[(block.name, region)]
                assert stats.count == len(scores)
                assert np.isclose(stats.mean, 100.0 * sum(scores) / len(scores), atol=1e-10)
                for name, alpha in (("p50", 0.50), ("p25", 0.25), ("p10", 0.10), ("p5", 0.05)):
                    assert getattr(stats, name) == 100.0 * percentile_sort_oracle(scores, alpha)

    def test_column_table_reports_like_row_table(self, tmp_path):
        """Tables built from columns, from rows and read back from a file
        render the same bytes, with groups and regions in first-seen order."""
        rng = np.random.default_rng(41)
        n = 700
        ids = [f"case_{i // 2:03d}" for i in range(n)]
        case_groups = rng.choice(["majority", "minority", "rare"], size=n // 2, p=[0.8, 0.15, 0.05])
        groups = [str(case_groups[i // 2]) for i in range(n)]
        regions = ["right" if i % 2 else "left" for i in range(n)]
        values = rng.random(n)
        by_rows = ScoreTable([ScoreRow(*row) for row in zip(ids, groups, regions, values.tolist())])
        by_columns = ScoreTable.from_columns(ids, groups, regions, values)
        path = tmp_path / "scores.csv"
        write_scores(by_columns, path)
        expected = percentile_report(by_rows)
        assert [g.name for g in expected.groups] == list(dict.fromkeys(groups))
        assert [r for r, _ in expected.groups[0].regions] == ["left", "right"]
        for table in (by_columns, load_scores(path)):
            report = percentile_report(table)
            assert render_json(report) == render_json(expected)
            assert render_text(report) == render_text(expected)
        # Each stratum's scores are summed in row order, as a per-row pass would.
        for block in expected.groups:
            for region, stats in block.regions:
                rows = [v for v, g, r in zip(values.tolist(), groups, regions) if (g, r) == (block.name, region)]
                assert stats.mean == 100.0 * float(np.asarray(rows).mean())
                assert stats.std == 100.0 * float(np.asarray(rows).std())

    def test_percentiles_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = _random_table(rng, int(rng.integers(3, 60)))
            for block in percentile_report(table).groups:
                for _, stats in block.regions:
                    assert stats.p5 <= stats.p10 <= stats.p25 <= stats.p50

    def test_values_permutation_invariant(self):
        rng = np.random.default_rng(5)
        table = _random_table(rng, 40)
        shuffled_rows = list(table.rows)
        rng.shuffle(shuffled_rows)
        a = percentile_report(table)
        b = percentile_report(ScoreTable(shuffled_rows))
        cells_a = {(g.name, r): s.cells() for g in a.groups for r, s in g.regions}
        cells_b = {(g.name, r): s.cells() for g in b.groups for r, s in g.regions}
        assert cells_a.keys() == cells_b.keys()
        for key in cells_a:
            assert np.allclose(cells_a[key], cells_b[key], rtol=0, atol=1e-10)

    def test_cases_counts_distinct_ids(self):
        report = percentile_report(
            _table(
                [
                    ("c0", "g", "left", 0.5),
                    ("c0", "g", "right", 0.6),
                    ("c1", "g", "left", 0.7),
                ]
            )
        )
        block = report.groups[0]
        assert block.cases == 2
        counts = {region: stats.count for region, stats in block.regions}
        assert counts == {"left": 2, "right": 1}

    def test_first_encounter_ordering(self):
        report = percentile_report(
            _table(
                [
                    ("c0", "zebra", "tail", 0.1),
                    ("c1", "ant", "head", 0.2),
                    ("c0", "zebra", "head", 0.3),
                ]
            )
        )
        assert [g.name for g in report.groups] == ["zebra", "ant"]
        assert [r for r, _ in report.groups[0].regions] == ["tail", "head"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            percentile_report(ScoreTable([]))


def _assert_same_report(table):
    """The report equals the row-by-row walk's, down to every bit."""
    report, walked = percentile_report(table), percentile_report_walk(table)
    assert report == walked
    assert render_json(report) == render_json(walked)


class TestReportMatchesWalk:
    def test_mixed_strata(self):
        """Several groups; one group's regions first seen in another order
        than the table's; a case id in two regions; a one-row stratum."""
        _assert_same_report(
            _table(
                [
                    ("c0", "b", "r1", 0.25),
                    ("c1", "a", "r2", 0.5),
                    ("c1", "a", "r1", 0.125),
                    ("c2", "b", "r1", 0.75),
                    ("c3", "a", "r2", 0.375),
                    ("c3", "c", "r3", 1.0),
                    ("c4", "a", "r1", 0.0),
                    ("c0", "b", "r2", 0.875),
                ]
            )
        )

    def test_large_random_table(self):
        rng = np.random.default_rng(20)
        _assert_same_report(_random_table(rng, 700, groups=("majority", "minority", "rare"), regions=("a", "b", "c")))

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.sampled_from(["g0", "g1", "g2"]),
                st.sampled_from(["overall", "r1", "r2"]),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda row: (row[0], row[2]),
        )
    )
    def test_matches_the_walk(self, rows):
        _assert_same_report(_table([(f"c{i}", g, r, score) for i, g, r, score in rows]))


class TestNumpyStatistics:
    """The plain-Python mean and std are numpy's, bit for bit: the report's
    mean and std cells are ``100 * np.mean`` and ``100 * np.std``."""

    @staticmethod
    def _assert_numpy_stats(values: np.ndarray):
        assert repr(metrics._sum(values.tolist())) == repr(float(np.add.reduce(values)))
        n = values.size
        table = ScoreTable.from_columns([f"c{i}" for i in range(n)], ["g"] * n, ["r"] * n, values)
        ((_, stats),) = percentile_report(table).groups[0].regions
        assert repr(stats.mean) == repr(100.0 * float(np.mean(values)))
        assert repr(stats.std) == repr(100.0 * float(np.std(values)))

    def test_uniform_scores_of_every_size_to_300(self):
        for n in range(1, 301):
            self._assert_numpy_stats(np.random.default_rng(n).random(n))

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 100_001])
    def test_uniform_scores(self, n):
        self._assert_numpy_stats(np.random.default_rng(n).random(n))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 300, 8193])
    def test_scores_spanning_decades(self, n):
        rng = np.random.default_rng([n, 1])
        self._assert_numpy_stats(rng.random(n) * 10.0 ** rng.integers(-300, 1, n))

    @pytest.mark.parametrize("n", [1, 5, 8, 20, 129, 300, 8192])
    @pytest.mark.parametrize("value", [-0.0, 0.0, 1.0])
    def test_constant_scores(self, n, value):
        """A stratum of ``-0.0`` only sums from ``+0.0``, as numpy's does."""
        self._assert_numpy_stats(np.full(n, value))

    @pytest.mark.parametrize("n", [9, 136, 8193])
    def test_exact_zeros_and_ones_among_scores(self, n):
        rng = np.random.default_rng([n, 2])
        values = rng.random(n)
        values[rng.random(n) < 0.3] = 0.0
        values[rng.random(n) < 0.3] = 1.0
        values[rng.random(n) < 0.1] = -0.0
        self._assert_numpy_stats(values)

    def test_left_to_right_sum_differs(self):
        """Values spanning decades tell summation orders apart: adding them
        left to right does not give numpy's sum."""
        values = np.random.default_rng(5).random(1000) * 10.0 ** np.arange(-5, 5).repeat(100)
        left_to_right = 0.0
        for v in values.tolist():
            left_to_right += v
        assert left_to_right != metrics._sum(values.tolist()) == float(np.add.reduce(values))


class TestCompareReports:
    def test_identity_deltas_render_plus_zero(self):
        rng = np.random.default_rng(3)
        table = _random_table(rng, 12)
        comparison = compare_reports(percentile_report(table), percentile_report(table))
        for block in comparison.groups:
            for _, deltas in block.regions:
                assert all(render_delta(d) == "+0.0" for d in deltas)

    def test_low_percentile_gain(self):
        # ten cases each; p10 and p5 pick the minimum, so the reports
        # differ by exactly the gap between the two worst scores
        base = [0.139] + [0.5 + 0.01 * i for i in range(9)]
        improved = [0.404] + [0.5 + 0.01 * i for i in range(9)]
        a = percentile_report(_table([(f"c{i}", "g", "r", v) for i, v in enumerate(base)]))
        b = percentile_report(_table([(f"c{i}", "g", "r", v) for i, v in enumerate(improved)]))
        deltas = dict(zip(CELL_NAMES, compare_reports(a, b).groups[0].regions[0][1]))
        assert render_delta(deltas["p10"]) == "+26.5"
        assert render_delta(deltas["p5"]) == "+26.5"
        assert render_delta(deltas["p50"]) == "+0.0"

    def test_small_regression_renders_minus(self):
        base = [0.768] + [0.9] * 9
        nudged = [0.767] + [0.9] * 9
        a = percentile_report(_table([(f"c{i}", "g", "r", v) for i, v in enumerate(base)]))
        b = percentile_report(_table([(f"c{i}", "g", "r", v) for i, v in enumerate(nudged)]))
        deltas = dict(zip(CELL_NAMES, compare_reports(a, b).groups[0].regions[0][1]))
        assert render_delta(deltas["p5"]) == "-0.1"

    def test_ordered_like_first_report(self):
        a = percentile_report(_table([("c0", "g1", "r", 0.5), ("c1", "g2", "r", 0.6)]))
        b = percentile_report(_table([("c1", "g2", "r", 0.7), ("c0", "g1", "r", 0.8)]))
        comparison = compare_reports(a, b)
        assert [g.name for g in comparison.groups] == ["g1", "g2"]

    def test_key_mismatch_rejected(self):
        a = percentile_report(_table([("c0", "g1", "r", 0.5)]))
        b = percentile_report(_table([("c0", "g2", "r", 0.5)]))
        with pytest.raises(ValueError, match="strata"):
            compare_reports(a, b)


class TestRendering:
    def test_render_value_half_away_from_zero(self):
        assert render_value(80.25) == "80.3"
        assert render_value(13.25) == "13.3"
        assert render_value(-13.25) == "-13.3"
        assert render_value(0.0) == "0.0"
        assert render_value(-0.04) == "0.0"
        assert render_value(99.96) == "100.0"

    def test_render_delta_signs(self):
        assert render_delta(0.0) == "+0.0"
        assert render_delta(-0.04) == "+0.0"
        assert render_delta(0.06) == "+0.1"
        assert render_delta(-0.06) == "-0.1"
        assert render_delta(26.500000000000004) == "+26.5"

    def test_text_byte_stable(self):
        rng = np.random.default_rng(9)
        table = _random_table(rng, 20)
        first = render_text(percentile_report(table))
        second = render_text(percentile_report(table))
        assert first == second
        assert "Region" in first
        assert first.endswith("\n")

    def test_text_layout_adapts_to_region_names(self):
        table = _table(
            [
                ("c0", "g", "a_rather_long_region_name", 0.5),
                ("c1", "g", "tiny", 0.6),
            ]
        )
        text = render_text(percentile_report(table))
        lines = [ln for ln in text.splitlines() if ln.startswith("  ")]
        assert len({len(ln) for ln in lines}) == 1

    def test_json_full_precision(self):
        table = _table([("c0", "g", "r", 0.123456789012345)])
        doc = json.loads(render_json(percentile_report(table)))
        region = doc["groups"][0]["regions"][0]
        assert region["mean"] == 100.0 * 0.123456789012345
        assert region["count"] == 1
        assert set(CELL_NAMES) <= set(region)

    def test_comparison_renderers_cover_all_strata(self):
        rng = np.random.default_rng(21)
        table = _random_table(rng, 15)
        comparison = compare_reports(percentile_report(table), percentile_report(table))
        text = render_comparison_text(comparison)
        doc = json.loads(render_comparison_json(comparison))
        keys = {(g.name, r) for g in comparison.groups for r, _ in g.regions}
        assert {(g["name"], r["name"]) for g in doc["groups"] for r in g["regions"]} == keys
        for name, _ in keys:
            assert name in text
