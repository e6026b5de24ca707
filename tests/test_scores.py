"""Verification tests for score-table parsing, validation, and round-trip."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import first_repeat_walk, write_scores_rows

from drotrain._files import BLOCK_ROWS
from drotrain.scores import ScoreRow, ScoreTable, _first_repeat, load_scores, write_scores

HEADER = "case_id,group,region,score\n"


def _write(tmp_path, body, name="scores.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


class TestLoadScores:
    def test_minimal_file(self, tmp_path):
        path = _write(tmp_path, "c0,majority,overall,0.5\nc1,minority,overall,0.75\n")
        table = load_scores(path)
        assert len(table) == 2
        assert table.rows[0] == ScoreRow("c0", "majority", "overall", 0.5)
        assert table.rows[1].score == 0.75

    def test_row_order_preserved(self, tmp_path):
        path = _write(tmp_path, "z,g,r,0.1\na,g,r2,0.2\nm,g,r,0.3\n")
        table = load_scores(path)
        assert [r.case_id for r in table] == ["z", "a", "m"]

    def test_out_of_range_score_names_line(self, tmp_path):
        path = _write(tmp_path, "c0,g,r,0.5\nc1,g,r,1.2\n")
        with pytest.raises(ValueError, match=":3:"):
            load_scores(path)

    def test_negative_score_rejected(self, tmp_path):
        path = _write(tmp_path, "c0,g,r,-0.01\n")
        with pytest.raises(ValueError, match=":2:"):
            load_scores(path)

    def test_duplicate_case_region_names_both_lines(self, tmp_path):
        path = _write(tmp_path, "c0,g,r,0.5\nc1,g,r,0.6\nc0,g,r,0.7\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(path)

    def test_same_case_different_regions_allowed(self, tmp_path):
        path = _write(tmp_path, "c0,g,left,0.5\nc0,g,right,0.6\n")
        assert len(load_scores(path)) == 2

    def test_unparseable_score(self, tmp_path):
        path = _write(tmp_path, "c0,g,r,abc\n")
        with pytest.raises(ValueError, match=":2:"):
            load_scores(path)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path, "c0,g,0.5\n")
        with pytest.raises(ValueError, match=":2:"):
            load_scores(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,group,region,score\nc0,g,r,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            load_scores(path)

    def test_no_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError):
            load_scores(path)


class TestCarriageReturns:
    """A case id, group or region holding ``\\r`` is rejected naming its
    line: csv on Python 3.10-3.12 writes such a field unquoted, and the
    file would not read back."""

    @pytest.mark.parametrize("text", ["a\rb", "a\r\nb", "\r"])
    @pytest.mark.parametrize("column", [0, 1, 2], ids=["case_id", "group", "region"])
    def test_quoted_carriage_return_names_line(self, tmp_path, text, column):
        cells = ["c1", "g", "overall"]
        cells[column] = '"' + text + '"'
        path = tmp_path / "scores.csv"
        path.write_bytes((HEADER + "c0,g,overall,0.5\n" + ",".join(cells) + ",0.25\n").encode())
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}:3: carriage return in case_id, group or region$"
        ):
            load_scores(path)

    def test_in_second_block_after_a_fault(self, tmp_path):
        """Of a carriage return and a later faulty row, the earlier line is
        reported."""
        lines = [f"c{i},g,r,0.5" for i in range(2 * BLOCK_ROWS)]
        lines[BLOCK_ROWS + 1] = 'c,g,"r\rs",0.5'
        lines[BLOCK_ROWS + 2] = "cx,g,r,abc"
        path = _write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":{BLOCK_ROWS + 3}: carriage return in case_id, group or region$"):
            load_scores(path)


# Case ids from a small alphabet, so that pairs often repeat, and ints
# among them, which cannot be ordered against strings.
CASE_IDS = st.one_of(st.text(alphabet="ab", max_size=2), st.integers(-1, 2))


class TestFirstRepeat:
    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.lists(st.tuples(CASE_IDS, st.sampled_from(["overall", "r1", "r2"])), max_size=30),
        st.sampled_from(["as drawn", "one region", "str ids", "sorted str ids"]),
    )
    def test_matches_the_dict_walk(self, rows, variant):
        case_ids = [c for c, _ in rows]
        regions = [r for _, r in rows]
        if variant == "one region":
            regions = ["overall"] * len(rows)
        if variant.endswith("str ids"):
            case_ids = [str(c) for c in case_ids]
        if variant == "sorted str ids":
            case_ids.sort()
        assert _first_repeat(case_ids, regions) == first_repeat_walk(case_ids, regions)

    def test_unique_and_repeated_generated_ids(self):
        ids = [f"case_{i:05d}" for i in range(3000)]
        assert _first_repeat(ids, ["overall"] * 3000) is None
        ids[2500] = ids[17]
        assert _first_repeat(ids, ["overall"] * 3000) == (2500, 17)


class TestWriteScores:
    def test_roundtrip_bytes(self, tmp_path):
        table = ScoreTable(
            [
                ScoreRow("c0", "majority", "overall", 0.123456789012345),
                ScoreRow("c1", "minority", "overall", 1.0),
                ScoreRow("c2", "majority", "overall", 0.0),
            ]
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_scores(table, p1)
        write_scores(load_scores(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_exactly(self, tmp_path):
        values = [0.1, 0.2, 0.30000000000000004, 0.9999999999999999]
        table = ScoreTable([ScoreRow(f"c{i}", "g", "r", v) for i, v in enumerate(values)])
        path = tmp_path / "s.csv"
        write_scores(table, path)
        back = load_scores(path)
        assert [r.score for r in back] == values


class TestScoreTableValidation:
    def test_range_checked(self):
        with pytest.raises(ValueError):
            ScoreTable([ScoreRow("c", "g", "r", 1.5)])

    def test_duplicates_checked(self):
        with pytest.raises(ValueError):
            ScoreTable([ScoreRow("c", "g", "r", 0.5), ScoreRow("c", "g2", "r", 0.6)])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^row 1: score nan outside"):
            ScoreTable.from_columns(["a", "b"], ["g", "g"], ["r", "r"], [0.5, float("nan")])

    def test_column_messages_match_row_messages(self):
        columns = (["a", "b", "a"], ["g", "g", "g"], ["r", "r", "r"])
        rows = [ScoreRow(c, g, r, 0.5) for c, g, r in zip(*columns)]
        with pytest.raises(ValueError) as from_rows:
            ScoreTable(rows)
        with pytest.raises(ValueError) as from_columns:
            ScoreTable.from_columns(*columns, np.full(3, 0.5))
        assert str(from_rows.value) == str(from_columns.value)
        assert str(from_rows.value) == "row 2: duplicate (case_id, region) pair ('a', 'r')"

    def test_pairs_not_case_ids_must_be_unique(self):
        table = ScoreTable.from_columns(["a", "a", "b"], ["g"] * 3, ["left", "right", "left"], [0.1, 0.2, 0.3])
        assert len(table) == 3
        with pytest.raises(ValueError, match="^row 3: duplicate .* \\('a', 'right'\\)"):
            ScoreTable.from_columns(["a", "a", "b", "a"], ["g"] * 4, ["left", "right", "left", "right"], [0.1] * 4)

    @pytest.mark.parametrize(
        "ids, values, message",
        [
            (["a", "a", "b"], [0.5, 0.5, float("nan")], "row 1: duplicate (case_id, region) pair ('a', 'r')"),
            (["a", "b", "a"], [0.5, float("nan"), 0.5], "row 1: score nan outside [0, 1]"),
            (["a", "a"], [0.5, 1.5], "row 1: score 1.5 outside [0, 1]"),
        ],
        ids=["duplicate-first", "range-first", "same-row"],
    )
    def test_first_faulty_row_wins(self, ids, values, message):
        """A row's score is checked before its pair, and rows in order."""
        columns = (ids, ["g"] * len(ids), ["r"] * len(ids))
        with pytest.raises(ValueError) as from_columns:
            ScoreTable.from_columns(*columns, values)
        with pytest.raises(ValueError) as from_rows:
            ScoreTable([ScoreRow(*fields) for fields in zip(*columns, values)])
        assert str(from_columns.value) == str(from_rows.value) == message

    def test_string_scores_rejected(self):
        with pytest.raises(TypeError, match="real numbers"):
            ScoreTable([ScoreRow("a", "g", "r", 0.25), ScoreRow("b", "g", "r", "0.5")])
        with pytest.raises(TypeError, match="real numbers"):
            ScoreTable.from_columns(["a"], ["g"], ["r"], ["0.5"])

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            ScoreTable.from_columns(["a", "b"], ["g"], ["r", "r"], [0.1, 0.2])


class TestScoreTableColumns:
    def test_rows_round_trip(self):
        rows = [ScoreRow(f"c{i}", "g" if i % 3 else "h", "r", i / 10) for i in range(7)]
        table = ScoreTable(rows)
        assert len(table) == 7
        assert table.rows == rows == list(table)
        assert table.case_ids == [r.case_id for r in rows]
        assert table.scores.typecode == "d"
        assert table.scores.tolist() == [r.score for r in rows]

    @pytest.mark.parametrize(
        "values",
        [
            np.array([-0.0, 5e-324, 0.1 + 0.2, 1.0, 0.0, 0.9999999999999999, 1e-300]),
            np.linspace(0.0, 1.0, 15)[::2],
            np.array([0.1, 0.5, 1.0, 0.0, 0.3, 0.7, 0.9], dtype=">f8"),
            np.array([0.1, 0.5, 1.0, 0.0, 0.3, 0.7, 0.9], dtype=np.float32),
            np.array([True, False, True, True, False, False, True]),
        ],
        ids=["f64", "strided", "big-endian", "f32", "bool"],
    )
    def test_numpy_column_keeps_its_bits(self, values):
        """A numpy column becomes the f64 column of its values, bit for bit."""
        n = values.size
        table = ScoreTable.from_columns([f"c{i}" for i in range(n)], ["g"] * n, ["r"] * n, values)
        assert table.scores.typecode == "d"
        assert table.scores.tobytes() == values.astype(float).tobytes()
        assert np.asarray(table.scores).tobytes() == values.astype(float).tobytes()

    def test_column_and_row_tables_agree(self):
        rng = np.random.default_rng(3)
        values = rng.random(40)
        ids = [f"c{i}" for i in range(40)]
        groups = ["g" if v < 0.7 else "h" for v in values]
        by_columns = ScoreTable.from_columns(ids, groups, ["r"] * 40, values)
        by_rows = ScoreTable([ScoreRow(c, g, "r", float(v)) for c, g, v in zip(ids, groups, values)])
        assert by_columns.rows == by_rows.rows


def _adversarial_rows():
    """Rows a CSV writer must quote or format with care."""
    values = [-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1.0, 0.0, 0.9999999999999999]
    ids = ["case,with,commas", 'say "hi"', "café_ñ_✓", "plain", "a\nb", " lead", "trail "]
    return [ScoreRow(c, "grp,1" if i % 2 else 'g"2', "overall", v) for i, (c, v) in enumerate(zip(ids, values))]


class TestWriteScoresMatchesRowOracle:
    """The column writer emits the bytes of a one-row-at-a-time writer."""

    def _write_both(self, table, rows, tmp_path):
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_scores(table, ours)
        write_scores_rows(rows, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        return ours

    def _assert_same_bytes(self, table, rows, tmp_path):
        return load_scores(self._write_both(table, rows, tmp_path))

    def test_table_longer_than_a_block(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [
            ScoreRow(f"case_{i:04d}", "minority" if i % 7 == 0 else "majority", "overall", float(v))
            for i, v in enumerate(rng.random(2 * BLOCK_ROWS + 11))
        ]
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.rows == rows

    def test_adversarial_rows(self, tmp_path):
        rows = _adversarial_rows()
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.rows == rows
        assert np.signbit(back.scores[0])

    def test_any_iterable_of_rows(self, tmp_path):
        """A table built from a one-pass iterator of rows writes them all."""
        rows = _adversarial_rows()
        self._assert_same_bytes(ScoreTable(iter(rows)), rows, tmp_path)

    def test_adversarial_scores_with_nothing_to_quote(self, tmp_path):
        """-0.0, 5e-324 and 1e-05 in blocks joined as text (1e16 is no score)."""
        rows = [ScoreRow(f"c{i}", "g", "overall", r.score) for i, r in enumerate(_adversarial_rows())]
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.scores.tobytes() == np.array([r.score for r in rows]).tobytes()

    @pytest.mark.parametrize("text", ["a\rb", "a\r\nb", "a\rb\r", "\r"])
    def test_carriage_returns_as_the_running_csv_writes_them(self, tmp_path, text):
        """Python 3.13 quotes a field holding a bare CR and 3.12 does not;
        either way the bytes are csv's."""
        rows = [ScoreRow("c0", "g", "overall", 0.5), ScoreRow(text, "g", "o", 0.25), ScoreRow("c2", text, text, 1.0)]
        self._write_both(ScoreTable(rows), rows, tmp_path)

    @pytest.mark.parametrize("text", ["c,7", 'c"7', "c\n7"])
    def test_only_the_middle_block_needs_quoting(self, tmp_path, text):
        rows = [ScoreRow(f"c{i}", "g", "overall", i / (3 * BLOCK_ROWS)) for i in range(3 * BLOCK_ROWS)]
        rows[BLOCK_ROWS + 7] = ScoreRow("c", text, "overall", 0.5)
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.rows == rows

    def test_non_str_case_id(self, tmp_path):
        rows = [ScoreRow(f"c{i}", "g", "overall", 0.5) for i in range(BLOCK_ROWS + 3)]
        rows[BLOCK_ROWS + 1] = ScoreRow(7, "g", "overall", 0.75)
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.case_ids[BLOCK_ROWS + 1] == "7"

    @pytest.mark.parametrize("n", [BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_boundary(self, tmp_path, n):
        rows = [ScoreRow(f"c{i}", "g", "overall", i / n) for i in range(n)]
        back = self._assert_same_bytes(ScoreTable(rows), rows, tmp_path)
        assert back.rows == rows


class TestLoadScoresAcrossBlocks:
    """Line numbers stay right past the first block of rows."""

    @pytest.fixture
    def lines(self):
        return [f"c{i},g,r,0.5" for i in range(2 * BLOCK_ROWS)]

    def _load(self, tmp_path, lines):
        path = _write(tmp_path, "\n".join(lines) + "\n")
        return path, lambda: load_scores(path)

    def test_bad_score_in_second_block(self, tmp_path, lines):
        line = BLOCK_ROWS + 5
        lines[line - 2] = "cx,g,r,abc"
        path, load = self._load(tmp_path, lines)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: unparseable score 'abc'$"):
            load()

    def test_duplicate_spanning_blocks(self, tmp_path, lines):
        line = BLOCK_ROWS + 9
        lines[line - 2] = "c3,g,r,0.25"
        path, load = self._load(tmp_path, lines)
        with pytest.raises(ValueError, match=f":{line}: duplicate .* first seen on line 5$"):
            load()

    def test_first_faulty_row_of_a_block_wins(self, tmp_path, lines):
        lines[BLOCK_ROWS + 3] = "c,g,r"
        lines[BLOCK_ROWS + 2] = "cx,g,r,1.5"
        path, load = self._load(tmp_path, lines)
        with pytest.raises(ValueError, match=f":{BLOCK_ROWS + 4}: score 1.5 outside"):
            load()

    @pytest.mark.parametrize("line", [4, BLOCK_ROWS + 5])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("cx,g,r,2.0", re.escape("score 2.0 outside [0, 1]")),
            ("c0,g,r,0.5", "duplicate .* first seen on line 2"),
            ("cx,g,r", "expected 4 fields, got 3"),
            (None, None),
        ],
        ids=["range", "duplicate", "fields", "none"],
    )
    def test_fault_before_a_non_utf8_line_wins(self, tmp_path, lines, line, row, message):
        """A faulty row on the line before one with a byte that is not
        UTF-8 is reported, in the first block or past it; the UTF-8 error
        is reported when the rows before it are sound."""
        if row is not None:
            lines[line - 3] = row
        lines[line - 2] = "c\udcff,g,r,0.5"
        path = tmp_path / "scores.csv"
        path.write_bytes((HEADER + "\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        expected = f"{line - 1}: {message}" if row is not None else f"{line}: not UTF-8 text"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{expected}$"):
            load_scores(path)

    def test_non_utf8_byte_in_a_quoted_field_spanning_lines(self, tmp_path):
        """The row holding the bad byte is not checked as a row cut short."""
        path = tmp_path / "scores.csv"
        path.write_bytes(HEADER.encode() + b'c0,g,r,0.5\nc1,"g\nh\xff",r,0.5\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: not UTF-8 text$"):
            load_scores(path)

    def test_empty_group_in_second_block(self, tmp_path, lines):
        lines[BLOCK_ROWS] = "cx,,r,0.5"
        path, load = self._load(tmp_path, lines)
        with pytest.raises(ValueError, match=f":{BLOCK_ROWS + 2}: empty case_id or group$"):
            load()

    @pytest.mark.parametrize("fault", ["cx,g,r,abc", "cx,g,r,1.5", "cx,g", "cx,,r,0.5"])
    def test_duplicate_before_a_fault_wins(self, tmp_path, lines, fault):
        """Of a repeated pair and a faulty row, the earlier line is reported,
        whether or not they share a block."""
        for dup_line, fault_line in [(6, BLOCK_ROWS + 6), (BLOCK_ROWS + 3, BLOCK_ROWS + 6)]:
            rows = list(lines)
            rows[dup_line - 2] = "c2,g,r,0.5"
            rows[fault_line - 2] = fault
            path, load = self._load(tmp_path, rows)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{dup_line}: duplicate .* first seen on line 4$"):
                load()

    @pytest.mark.parametrize("dup_line", [BLOCK_ROWS + 8, 2 * BLOCK_ROWS])
    def test_fault_before_a_duplicate_wins(self, tmp_path, lines, dup_line):
        fault_line = BLOCK_ROWS + 6
        lines[dup_line - 2] = "c2,g,r,0.5"
        lines[fault_line - 2] = "cx,g,r,abc"
        path, load = self._load(tmp_path, lines)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{fault_line}: unparseable score 'abc'$"):
            load()
