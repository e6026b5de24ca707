"""Verification tests for the stratified generator, CSV round-trip, and folds."""

import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from oracles import write_csv_rows

from drotrain import datasets
from drotrain._files import BLOCK_ROWS
from drotrain.datasets import (
    MAJORITY,
    MINORITY,
    Dataset,
    SyntheticConfig,
    generate,
    kfold_indices,
    read_csv,
    twin_path,
    write_csv,
    write_twin,
)

# Floats whose text form is easy to get wrong: a signed zero, the smallest
# subnormal, exponent forms on both sides, and a sum that is not 0.3.
ADVERSARIAL_FEATURES = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2]

# Parts of a dataset's binary twin, in file order.
TWIN_SECTIONS = [
    "magic", "csv-digest", "payload-digest", "meta-length", "meta-length-top",
    "meta", "labels", "features", "codes", "ids", "last",
]

# Central 99% interval for Binomial(2000, 0.05), from the exact quantile
# function (ppf at 0.005 and 0.995): [76, 126].
BINOM_2000_005_99 = (76, 126)


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SyntheticConfig(minority_fraction=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(minority_fraction=1.0)

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            SyntheticConfig(minority_radius=3.0, majority_radius=2.0)
        with pytest.raises(ValueError):
            SyntheticConfig(minority_radius=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"majority_radius": math.inf},
            {"minority_radius": math.inf, "majority_radius": math.inf},
            {"shift": math.inf},
            {"shift": math.nan},
        ],
    )
    def test_radii_and_shift_finite(self, kwargs):
        """An infinite centre would give the generated dataset non-finite
        features, which reading it back rejects."""
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)

    def test_feature_dim_holds_class_centres(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_features=3, n_classes=4)

    def test_noise_rates_bounded(self):
        with pytest.raises(ValueError):
            SyntheticConfig(noise_minority=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(noise_majority=-0.1)


class TestGenerate:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_samples=300, n_features=6, n_classes=3)
        a = generate(cfg, 17)
        b = generate(cfg, 17)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.groups == b.groups
        assert a.case_ids == b.case_ids

    def test_shapes_and_tags(self):
        cfg = SyntheticConfig(n_samples=120, n_features=5, n_classes=4)
        ds = generate(cfg, 3)
        assert ds.features.shape == (120, 5)
        assert ds.labels.shape == (120,)
        assert set(ds.groups) <= {MAJORITY, MINORITY}
        assert ds.labels.min() >= 0 and ds.labels.max() < 4
        assert len(set(ds.case_ids)) == 120

    def test_minority_count_within_binomial_interval(self):
        """Group assignment is i.i.d. with the configured prevalence, so the
        minority count must land in the central 99% binomial interval."""
        cfg = SyntheticConfig(n_samples=2000, n_features=6, n_classes=3, minority_fraction=0.05)
        for seed in (0, 1, 2):
            ds = generate(cfg, seed)
            count = sum(1 for g in ds.groups if g == MINORITY)
            assert BINOM_2000_005_99[0] <= count <= BINOM_2000_005_99[1]

    def test_prevalence_map(self):
        cfg = SyntheticConfig(n_samples=500, minority_fraction=0.3, n_features=6, n_classes=3)
        ds = generate(cfg, 5)
        prev = ds.prevalence()
        assert abs(sum(prev.values()) - 1.0) < 1e-12
        assert prev[MINORITY] == ds.groups.count(MINORITY) / 500

    def test_group_independent_when_unshifted(self):
        """With shift 0 and equal radii the two groups are generated from
        identical cluster centres: regenerating with the same seed but a
        different minority fraction changes only the group tags, never the
        features or labels.  Group assignment is therefore exactly
        independent of everything the model sees."""
        base = dict(n_samples=400, n_features=6, n_classes=3, shift=0.0,
                    majority_radius=2.0, minority_radius=2.0)
        a = generate(SyntheticConfig(minority_fraction=0.2, **base), 23)
        b = generate(SyntheticConfig(minority_fraction=0.8, **base), 23)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.groups != b.groups

    def test_minority_clusters_shifted_and_tighter(self):
        """Minority class centres sit in a translated, more compact region."""
        cfg = SyntheticConfig(
            n_samples=6000, n_features=6, n_classes=3, minority_fraction=0.5,
            majority_radius=3.0, minority_radius=1.0, shift=6.0,
        )
        ds = generate(cfg, 9)
        is_min = np.array([g == MINORITY for g in ds.groups])
        maj_mean = ds.features[~is_min].mean(axis=0)
        min_mean = ds.features[is_min].mean(axis=0)
        # The translation dominates: group means separated by roughly the
        # shift magnitude (6), far beyond sampling noise.
        assert np.linalg.norm(min_mean - maj_mean) > 4.0
        # Tighter radius: minority class centres are closer to each other.
        def centre_spread(mask):
            centres = [ds.features[mask & (ds.labels == c)].mean(axis=0) for c in range(3)]
            return max(
                np.linalg.norm(ci - cj) for i, ci in enumerate(centres) for cj in centres[:i]
            )
        assert centre_spread(is_min) < centre_spread(~is_min)

    def test_full_label_noise_flips_every_label(self):
        """Noise rate 1 replaces each label with a different class; the RNG
        drawing order keeps features identical to the noise-free run."""
        base = dict(n_samples=200, n_features=6, n_classes=3, minority_fraction=0.25)
        clean = generate(SyntheticConfig(noise_majority=0.0, noise_minority=0.0, **base), 31)
        noisy = generate(SyntheticConfig(noise_majority=1.0, noise_minority=1.0, **base), 31)
        np.testing.assert_array_equal(clean.features, noisy.features)
        assert np.all(clean.labels != noisy.labels)


class TestCsvRoundTrip:
    def test_bytes_stable(self, tmp_path):
        cfg = SyntheticConfig(n_samples=50, n_features=4, n_classes=3)
        ds = generate(cfg, 13)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_csv(ds, p1)
        write_csv(read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_exact(self, tmp_path):
        cfg = SyntheticConfig(n_samples=40, n_features=5, n_classes=3)
        ds = generate(cfg, 14)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = read_csv(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)
        assert ds.groups == back.groups
        assert ds.case_ids == back.case_ids

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case,group,label,f0\nc0,majority,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_field_count_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,group,label,f0\nc0,majority,0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("case_id,group,label,f0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(path)


    def test_group_names_shared(self, tmp_path):
        """Each distinct group name is held as one string object."""
        path = tmp_path / "ds.csv"
        write_csv(generate(SyntheticConfig(n_samples=600, n_features=4, n_classes=3), 2), path)
        groups = read_csv(path).groups
        assert len({id(g) for g in groups}) == len(set(groups)) == 2


def _adversarial_dataset():
    """Rows a CSV writer must quote or format with care."""
    features = np.array([ADVERSARIAL_FEATURES, [1.5, -2.0, 1e300, -1e-300, 0.0], [7.0, 8.0, 9.0, 10.0, 11.0]])
    return Dataset(
        features,
        np.array([12, 0, 10], dtype=np.int64),
        ["minority", 'grp "q"', "majority"],
        ["case,with,commas", 'say "hi"', "café_ñ_✓"],
    )


class TestCsvBytesMatchRowOracle:
    """The column writer emits the bytes of a one-row-at-a-time writer."""

    def _write_both(self, dataset, tmp_path):
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_csv(dataset, ours)
        write_csv_rows(dataset, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        return ours

    def _assert_same_bytes(self, dataset, tmp_path):
        return read_csv(self._write_both(dataset, tmp_path))

    def test_generated_dataset_longer_than_a_block(self, tmp_path):
        n = 2 * BLOCK_ROWS + 37
        ds = generate(SyntheticConfig(n_samples=n, n_features=6, n_classes=4), 21)
        back = self._assert_same_bytes(ds, tmp_path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.case_ids == ds.case_ids and back.groups == ds.groups

    def test_adversarial_rows(self, tmp_path):
        ds = _adversarial_dataset()
        back = self._assert_same_bytes(ds, tmp_path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.signbit(back.features[0, 0])
        assert back.labels.tolist() == [12, 0, 10]
        assert back.case_ids == ds.case_ids and back.groups == ds.groups

    def test_adversarial_floats_with_nothing_to_quote(self, tmp_path):
        ds = _adversarial_dataset()
        ds = Dataset(ds.features, ds.labels, ["minority", "majority", "majority"], ["a", "b", "c"])
        back = self._assert_same_bytes(ds, tmp_path)
        assert back.features.tobytes() == ds.features.tobytes()

    @pytest.mark.parametrize("text", ["a\rb", "a\r\nb", "a\rb\r", "\r"])
    def test_carriage_returns_as_the_running_csv_writes_them(self, tmp_path, text):
        """Python 3.13 quotes a field holding a bare CR and 3.12 does not;
        either way the bytes are csv's."""
        ds = generate(SyntheticConfig(n_samples=5, n_features=2, n_classes=2), 3)
        ds.case_ids[1] = text
        ds.groups[3] = text
        self._write_both(ds, tmp_path)

    @pytest.mark.parametrize("text", ["case,7", 'case"7', "case\n7"])
    def test_only_the_middle_block_needs_quoting(self, tmp_path, text):
        ds = generate(SyntheticConfig(n_samples=3 * BLOCK_ROWS, n_features=3, n_classes=3), 5)
        ds.case_ids[BLOCK_ROWS + 7] = text
        back = self._assert_same_bytes(ds, tmp_path)
        assert back.case_ids == ds.case_ids

    def test_non_str_case_id(self, tmp_path):
        ds = generate(SyntheticConfig(n_samples=BLOCK_ROWS + 3, n_features=2, n_classes=2), 6)
        ds.case_ids[BLOCK_ROWS + 1] = 7
        back = self._assert_same_bytes(ds, tmp_path)
        assert back.case_ids[BLOCK_ROWS + 1] == "7"

    @pytest.mark.parametrize("n", [BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_boundary(self, tmp_path, n):
        ds = generate(SyntheticConfig(n_samples=n, n_features=3, n_classes=3), 8)
        back = self._assert_same_bytes(ds, tmp_path)
        np.testing.assert_array_equal(back.features, ds.features)
        assert back.case_ids == ds.case_ids


def _corrupt(path, line: int, column: int, text: str) -> None:
    """Replace one field of a written CSV; ``line`` counts the header as 1."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _at(path, line: int) -> str:
    """Regex for the start of an error message naming ``path`` and ``line``."""
    return f"^{re.escape(str(path))}:{line}: "


class TestCsvParseErrors:
    """Every malformed value is reported with the file and its line."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_csv(generate(SyntheticConfig(n_samples=3 * BLOCK_ROWS, n_features=4, n_classes=3), 4), path)
        return path

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (2, "x", "unparseable label 'x'"),
            (2, "1.0", "unparseable label '1.0'"),
            (5, "abc", "unparseable feature f2 'abc'"),
            (3, "", "unparseable feature f0 ''"),
            (2, "99999999999999999999", "label 99999999999999999999 does not fit in 64 bits"),
        ],
    )
    def test_bad_value_names_file_and_line(self, path, column, text, message):
        _corrupt(path, 3, column, text)
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("line", [BLOCK_ROWS + 1, BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 9])
    def test_line_counted_across_blocks(self, path, line):
        """Line 2 starts the first block, so BLOCK_ROWS + 2 starts the second."""
        _corrupt(path, line, 4, "abc")
        with pytest.raises(ValueError, match=_at(path, line) + "unparseable feature f1 'abc'$"):
            read_csv(path)

    def test_field_count_in_second_block(self, path):
        line = BLOCK_ROWS + 7
        _corrupt(path, line, 4, "1.0,2.0")
        with pytest.raises(ValueError, match=_at(path, line) + "expected 7 fields, got 8$"):
            read_csv(path)

    def test_first_faulty_row_of_a_block_wins(self, path):
        """A block's faults are reported in row order, whatever their kind."""
        _corrupt(path, 6, 4, "1.0,2.0")
        _corrupt(path, 5, 3, "abc")
        with pytest.raises(ValueError, match=_at(path, 5) + "unparseable feature f0"):
            read_csv(path)

    @pytest.mark.parametrize("line", [3, 2 * BLOCK_ROWS + 9])
    @pytest.mark.parametrize("label", ["x", None])
    def test_fault_before_a_non_utf8_line_wins(self, path, line, label):
        """Label ``x`` on the line before one with a byte that is not UTF-8
        is reported, in the first block or past it; without it the UTF-8
        error names its line."""
        if label is not None:
            _corrupt(path, line - 1, 2, label)
        raw = path.read_bytes().split(b"\n")
        raw[line - 1] = raw[line - 1].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(raw))
        expected = f"{line - 1}: unparseable label 'x'" if label else f"{line}: not UTF-8 text"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{expected}$"):
            read_csv(path)

    def test_non_finite_names_line(self, path):
        _corrupt(path, BLOCK_ROWS + 4, 6, "inf")
        with pytest.raises(ValueError, match=_at(path, BLOCK_ROWS + 4) + "non-finite feature value$"):
            read_csv(path)

    def test_negative_label_names_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("case_id,group,label,f0\na,majority,0,1.0\nb,majority,-1,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=_at(path, 3) + "negative label -1$"):
            read_csv(path)

    @pytest.mark.parametrize("twin", [False, True], ids=["parsed", "twin"])
    def test_first_repeat_in_row_order_named(self, tmp_path, twin):
        """Of the repeated ids z and a, z repeats first, though a sorts first."""
        ds = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=np.int64), [MAJORITY] * 4, ["z", "z", "a", "a"])
        path = tmp_path / "dup.csv"
        write_csv(ds, path)
        if twin:
            write_twin(ds, path)
            assert datasets._read_twin(path) is not None
        with pytest.raises(ValueError, match=_at(path, 3) + "case_id 'z' repeats line 2$"):
            read_csv(path)


class TestCarriageReturns:
    """A case id or group holding ``\\r`` is rejected naming its line: csv on
    Python 3.10-3.12 writes such a field unquoted, and a score file written
    from it would not read back."""

    HEADER = b"case_id,group,label,f0,f1\n"

    def _write(self, tmp_path, rows):
        path = tmp_path / "cr.csv"
        path.write_bytes(self.HEADER + b"".join(rows))
        return path

    @pytest.mark.parametrize("text", ["a\rb", "a\r\nb", "\r", "ab\r"])
    @pytest.mark.parametrize("column", [0, 1], ids=["case_id", "group"])
    def test_quoted_carriage_return_names_line(self, tmp_path, text, column):
        cells = ["c1", "majority"]
        cells[column] = '"' + text + '"'
        path = self._write(tmp_path, [b"c0,majority,0,1.0,2.0\n", (",".join(cells) + ",1,3.0,4.0\n").encode()])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: carriage return in case_id or group$"):
            read_csv(path)

    def test_line_counted_across_blocks(self, tmp_path):
        rows = [f"c{i},majority,0,1.0,2.0\n".encode() for i in range(2 * BLOCK_ROWS)]
        rows[BLOCK_ROWS + 3] = b'"c\rx",majority,0,1.0,2.0\n'
        path = self._write(tmp_path, rows)
        with pytest.raises(ValueError, match=f":{BLOCK_ROWS + 5}: carriage return in case_id or group$"):
            read_csv(path)

    def test_first_faulty_row_of_a_block_wins(self, tmp_path):
        """A block's faults are reported in row order, a carriage return
        among them."""
        rows = [f"c{i},majority,0,1.0,2.0\n".encode() for i in range(6)]
        rows[2], rows[3] = b'c2,"g\rh",0,1.0,2.0\n', b"c3,majority,0,abc,2.0\n"
        with pytest.raises(ValueError, match=":4: carriage return"):
            read_csv(self._write(tmp_path, rows))
        rows[1] = b"c1,majority,x,1.0,2.0\n"
        with pytest.raises(ValueError, match=":3: unparseable label 'x'$"):
            read_csv(self._write(tmp_path, rows))


class TestCsvRowBound:
    """Rows are parsed into arrays sized by the file's line-ending bytes."""

    @pytest.mark.parametrize(
        "body",
        [b"c0,g,0,1.0\r\nc1,g,1,2.0\r\n", b"c0,g,0,1.0\rc1,g,1,2.0", b'"c\n0",g,0,1.0\nc1,g,1,2.0\n'],
        ids=["crlf", "cr-no-final-newline", "quoted-newline"],
    )
    def test_line_endings(self, tmp_path, body):
        path = tmp_path / "ds.csv"
        path.write_bytes(b"case_id,group,label,f0\n" + body)
        back = read_csv(path)
        assert back.features.tolist() == [[1.0], [2.0]] and back.labels.tolist() == [0, 1]
        assert back.case_ids[1] == "c1"

    def test_parse_holds_little_beyond_the_dataset(self, tmp_path):
        """Reading 20k rows of 8 features traces under 1 MiB more than the
        dataset it returns holds; per-block arrays joined at the end traced
        1.6 MiB more."""
        path = tmp_path / "ds.csv"
        write_csv(generate(SyntheticConfig(n_samples=20_000, n_features=8, n_classes=3), 2), path)
        tracemalloc.start()
        try:
            back = read_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 20_000
        assert peak - held < 1 << 20


def _one_feature_dataset():
    features = np.array([[0.5], [-0.0], [5e-324]])
    return Dataset(features, np.array([1, 0, 1], dtype=np.int64), [MAJORITY] * 3, ["a", "b", "c"])


def _minority_of_one():
    ds = generate(SyntheticConfig(n_samples=300, n_features=4, n_classes=3), 7)
    ds.groups = [MAJORITY] * len(ds)
    ds.groups[123] = MINORITY
    return ds


def _twin_and_parse(path):
    """The dataset read from ``path``'s twin, and from parsing ``path``."""
    twin = datasets._read_twin(path)
    assert twin is not None
    return twin, datasets._parse_csv(path)


def _assert_same(a, b):
    """Equal datasets, bit for bit, sharing one string per group name."""
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()
    assert a.case_ids == b.case_ids and a.groups == b.groups
    assert len({id(g) for g in a.groups}) == len(set(a.groups))


class TestBinaryTwin:
    """The twin that ``generate`` writes beside ``dataset.csv`` reads as the
    CSV parses, and is ignored unless it stands for the CSV's bytes."""

    @pytest.fixture
    def path(self, tmp_path):
        """A written dataset CSV with its twin."""
        path = tmp_path / "ds.csv"
        ds = generate(SyntheticConfig(n_samples=2 * BLOCK_ROWS + 5, n_features=5, n_classes=3), 4)
        write_csv(ds, path)
        write_twin(ds, path)
        return path

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate(SyntheticConfig(n_samples=1, n_features=2, n_classes=2), 0),
            lambda: generate(SyntheticConfig(n_samples=3, n_features=2, n_classes=2), 1),
            _one_feature_dataset,
            lambda: generate(SyntheticConfig(n_samples=500, n_features=12, n_classes=12), 2),
            _minority_of_one,
            lambda: generate(SyntheticConfig(n_samples=BLOCK_ROWS + 1, noise_minority=0.5), 3),
            _adversarial_dataset,
        ],
        ids=["n1", "n3", "one-feature", "many-classes", "minority-of-one", "noisy", "quoted-fields"],
    )
    def test_twin_reads_as_the_csv_parses(self, tmp_path, make):
        ds = make()
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        write_twin(ds, path)
        twin, parsed = _twin_and_parse(path)
        _assert_same(twin, parsed)
        assert twin.features.tobytes() == ds.features.tobytes()
        _assert_same(read_csv(path), parsed)

    @pytest.mark.parametrize("quoted", [False, True], ids=["joined-blocks", "csv-writer-block"])
    def test_first_digest_is_the_csvs(self, tmp_path, quoted):
        """The digest ``write_csv`` returns, which the twin stores first, is
        the SHA-256 of the CSV's bytes, also with a block that ``csv.writer``
        writes; the twin is the one a read-back digest gives."""
        ds = generate(SyntheticConfig(n_samples=2 * BLOCK_ROWS + 5, n_features=3, n_classes=3), 5)
        if quoted:
            ds.case_ids[BLOCK_ROWS + 2] = 'id,"q"'
        path = tmp_path / "ds.csv"
        digest = write_csv(ds, path)
        assert digest == hashlib.sha256(path.read_bytes()).digest()
        write_twin(ds, path, digest)
        twin = twin_path(path).read_bytes()
        assert twin[8:40] == digest
        write_twin(ds, path)
        assert twin_path(path).read_bytes() == twin
        assert datasets._read_twin(path) is not None

    def test_twin_sits_beside_the_csv(self, path):
        assert twin_path(path) == path.parent / "ds.bin"
        assert twin_path(path).read_bytes()[:8] == datasets.TWIN_MAGIC

    def test_no_twin_for_a_case_id_holding_newline(self, tmp_path):
        ds = generate(SyntheticConfig(n_samples=5, n_features=2, n_classes=2), 3)
        ds.case_ids[2] = "a\nb"
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        write_twin(ds, path)
        assert not twin_path(path).exists()
        assert read_csv(path).case_ids == ds.case_ids

    def test_shared_checks_run_on_the_twin(self, tmp_path):
        """A twin's columns face the checks a parse does, naming the CSV's line."""
        ds = generate(SyntheticConfig(n_samples=20, n_features=2, n_classes=2), 3)
        ds.labels[6] = -2
        path = tmp_path / "neg.csv"
        write_csv(ds, path)
        write_twin(ds, path)
        assert datasets._read_twin(path) is not None
        with pytest.raises(ValueError, match=_at(path, 8) + "negative label -2$"):
            read_csv(path)

    @pytest.mark.parametrize("mtime", [True, False], ids=["mtime-kept", "mtime-new"])
    def test_csv_edited_to_the_same_length(self, path, mtime):
        """Size and mtime can match another file's (``cp -p``); the content
        digest cannot, so the edited CSV is parsed."""
        stat = path.stat()
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[BLOCK_ROWS + 4].split(",")
        cells[4] = cells[4][:-1] + str((int(cells[4][-1]) + 1) % 10)  # a repr ends in a digit
        lines[BLOCK_ROWS + 4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if mtime:
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert datasets._read_twin(path) is None
        back = read_csv(path)
        assert back.features[BLOCK_ROWS + 3, 1] == float(cells[4])
        _assert_same(back, datasets._parse_csv(path))
        _corrupt(path, BLOCK_ROWS + 5, 5, "x" * len(lines[BLOCK_ROWS + 4].split(",")[5]))
        assert path.stat().st_size == stat.st_size
        with pytest.raises(ValueError, match=_at(path, BLOCK_ROWS + 5) + "unparseable feature f2 'x+'$"):
            read_csv(path)

    @staticmethod
    def _offset(path, section: str) -> int:
        """Where ``section`` of ``path``'s twin starts; meta-length-top is
        the meta length's highest byte."""
        raw = twin_path(path).read_bytes()
        n, d = 2 * BLOCK_ROWS + 5, 5
        labels = datasets.TWIN_HEAD + int.from_bytes(raw[72:80], "little")
        codes = labels + 8 * n + 8 * n * d
        return {
            "magic": 0, "csv-digest": 8, "payload-digest": 40, "meta-length": 72, "meta-length-top": 79,
            "meta": 80, "labels": labels, "features": labels + 8 * n, "codes": codes, "ids": codes + 4 * n,
            "last": len(raw) - 1,
        }[section]

    @pytest.mark.parametrize("section", TWIN_SECTIONS)
    def test_flipped_byte_ignored(self, path, section):
        raw = bytearray(twin_path(path).read_bytes())
        raw[self._offset(path, section)] ^= 0x10
        twin_path(path).write_bytes(bytes(raw))
        assert datasets._read_twin(path) is None
        _assert_same(read_csv(path), datasets._parse_csv(path))

    @pytest.mark.parametrize("section", TWIN_SECTIONS)
    def test_truncated_twin_ignored(self, path, section):
        """The twin cut just before ``section`` starts."""
        raw = twin_path(path).read_bytes()
        twin_path(path).write_bytes(raw[: self._offset(path, section)])
        assert datasets._read_twin(path) is None
        _assert_same(read_csv(path), datasets._parse_csv(path))

    def test_twin_not_a_file_ignored(self, path):
        twin_path(path).unlink()
        twin_path(path).mkdir()
        assert datasets._read_twin(path) is None
        _assert_same(read_csv(path), datasets._parse_csv(path))

    def test_read_holds_little_beyond_the_dataset(self, tmp_path):
        """Reading a 20k-row twin traces under 1 MiB more than the arrays
        and ids it returns: each column is read into its final buffer."""
        path = tmp_path / "ds.csv"
        ds = generate(SyntheticConfig(n_samples=20_000, n_features=8, n_classes=3), 2)
        write_csv(ds, path)
        write_twin(ds, path)
        tracemalloc.start()
        try:
            back = datasets._read_twin(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back is not None and len(back) == 20_000
        assert peak - held < 1 << 20


class TestKfoldIndices:
    def test_exact_division(self):
        splits = kfold_indices(10, 5, seed=0)
        assert len(splits) == 5
        val_sizes = [len(val) for _, val in splits]
        assert val_sizes == [2, 2, 2, 2, 2]
        all_val = np.concatenate([val for _, val in splits])
        assert sorted(all_val.tolist()) == list(range(10))

    def test_remainder_spread(self):
        splits = kfold_indices(7, 5, seed=1)
        sizes = sorted(len(val) for _, val in splits)
        assert sizes == [1, 1, 1, 2, 2]

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, min(n, 9)))
            splits = kfold_indices(n, k, seed=int(rng.integers(1 << 30)))
            all_val = np.concatenate([val for _, val in splits])
            assert sorted(all_val.tolist()) == list(range(n))
            for train, val in splits:
                assert set(train) | set(val) == set(range(n))
                assert not set(train) & set(val)
                assert max(len(v) for _, v in splits) - min(len(v) for _, v in splits) <= 1

    def test_single_fold_holdout(self):
        (train, val), = kfold_indices(50, 1, seed=3)
        assert len(val) == 10
        assert len(train) == 40
        assert not set(train) & set(val)
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(50))

    def test_deterministic(self):
        a = kfold_indices(33, 4, seed=9)
        b = kfold_indices(33, 4, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(1, 1, seed=0)


class TestDatasetContainer:
    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), ["a"] * 3, ["c"] * 3)
