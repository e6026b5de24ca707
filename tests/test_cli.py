"""End-to-end tests for the command line front door, run in-process."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drotrain import cli, datasets, training
from drotrain.cli import main
from drotrain.mlp import predict_proba
from drotrain.scores import load_scores

BASE_CONFIG = {
    "data": {
        "n_samples": 60,
        "n_features": 4,
        "n_classes": 3,
        "minority_fraction": 0.2,
        "shift": 2.0,
        "seed": 1,
    },
    "hidden": [8],
    "train": {
        "erm": {"epochs": 2, "batch_size": 8, "folds": 3},
        "dro": {"epochs": 2, "batch_size": 8, "folds": 3},
    },
    "seeds": [0],
}

# SHA-256 of report's outputs in TestReport.test_report_bytes_are_pinned.
PINNED_REPORT_DIGESTS = {
    "text": "c9f64f034ce595fc1861c5eef4f5411b98c2add72b30793ea72688ab871d7abb",
    "text --baseline": "5e8e843eeb69ddf94edbbef999b2d941f353728a5a5143a54612d81811137091",
    "json": "f7c6f2e76d1aeb5cfd37e3c65c0e9bda49da9dd3548d3ebbce9fbd0fa4bceb21",
    "json --baseline": "b4e30673a39ca8293ee66d04c52e99d12892d5c85bf348174a237868776fa5e8",
    "comparison.json": "bc69646b3784d0a4ec55bafa83ac669c8a5af3bbebc112a2a265eee0cec06993",
    "comparison.txt": "e67f10f30556e807dafbf24914351efbb5be3787d4721d8ecf5e8bbc3cfec5d4",
    "report.json": "f7c6f2e76d1aeb5cfd37e3c65c0e9bda49da9dd3548d3ebbce9fbd0fa4bceb21",
    "report.txt": "c9f64f034ce595fc1861c5eef4f5411b98c2add72b30793ea72688ab871d7abb",
}

# SHA-256 of BASE_CONFIG's artifacts in TestTrain.test_artifact_bytes_are_pinned,
# recorded before CSV rows were joined as text instead of written by csv.writer
# (the binary twin, dataset.bin, when it was added).
# The training digests hold where numpy's float arithmetic gives the same bits
# (recorded with numpy 2.4.6 and OpenBLAS on x86-64).
PINNED_ARTIFACT_DIGESTS = {
    "dataset.csv": "b4b2e22e3ff4fe401e50f3fb4ab69a6548c620ca972497367798526a69fbfac5",
    "dataset.bin": "3bf1656480a2984efe68c3e3398faf2f5a52842bb6c23edfc2b1a05e88833139",
    "dro/seed_0/scores.csv": "4003a25182e0234cc904756714a93948a9720be44a7e2b814d92322de313efe1",
    "dro/seed_0/fold_0.ckpt": "5fedde5297ef8666d7b27195c16371a03989a570461217cda0ad89bb451255be",
}


def _scores_written(out) -> list:
    return [p for p in out.rglob("scores.csv") if p.is_file()]


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("DRO_SEED", raising=False)


def _write_config(tmp_path, out_dir, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["out"] = str(out_dir)
    for key, value in overrides.items():
        doc[key] = value
    path = tmp_path / f"config_{out_dir.name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run_pipeline(tmp_path, name, arms=("erm",)):
    out = tmp_path / name
    config = _write_config(tmp_path, out)
    assert main(["generate", "--config", str(config)]) == 0
    for arm in arms:
        assert main(["train", "--config", str(config), "--arm", arm]) == 0
    return out


class TestGenerate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        assert (out / "dataset.csv").exists()
        stdout = capsys.readouterr().out
        assert "n=60" in stdout

    def test_deterministic_bytes(self, tmp_path):
        a = _run_pipeline(tmp_path, "a", arms=())
        b = _run_pipeline(tmp_path, "b", arms=())
        assert sorted(p.name for p in a.iterdir()) == ["dataset.bin", "dataset.csv"]
        for name in ("dataset.csv", "dataset.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_directory_at_dataset_path_rejected_before_drawing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        (out / "dataset.csv").mkdir(parents=True)
        monkeypatch.setattr(datasets, "generate", lambda *a: pytest.fail("data drawn"))
        assert main(["generate", "--config", str(config)]) == 2
        assert f"cannot write {out / 'dataset.csv'}: it is a directory" in capsys.readouterr().err
        assert not any((out / "dataset.csv").iterdir())

    def test_directory_at_twin_path_rejected_before_drawing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        (out / "dataset.bin").mkdir(parents=True)
        monkeypatch.setattr(datasets, "generate", lambda *a: pytest.fail("data drawn"))
        assert main(["generate", "--config", str(config)]) == 2
        assert f"cannot write {out / 'dataset.bin'}: it is a directory" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["dataset.bin"]
        assert not any((out / "dataset.bin").iterdir())

    def test_unknown_data_field(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", data={"n_samples": 60, "sigma": 2})
        assert main(["generate", "--config", str(config)]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "config needs a 'data' object"),
            (dict(BASE_CONFIG["data"], n_samples=0), "data: n_samples must be >= 1, got 0"),
            (dict(BASE_CONFIG["data"], n_classes=1), "data: n_classes must be >= 2, got 1"),
        ],
        ids=["not-an-object", "n_samples-0", "n_classes-1"],
    )
    def test_bad_data_block_rejected_writing_nothing(self, tmp_path, capsys, data, message):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, data=data)
        assert main(["generate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_top_level_field(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", extra={"x": 1})
        assert main(["generate", "--config", str(config)]) == 2
        assert "extra" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate"], ["train", "--arm", "erm"]], ids=["generate", "train"])
    @pytest.mark.parametrize(
        "raw, message",
        [(b"[]", "JSON object"), (b'{"seeds": [0], "out": "\xff"}', "UTF-8")],
        ids=["list", "latin-1"],
    )
    def test_config_must_be_a_utf8_json_object(self, tmp_path, capsys, command, raw, message):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main([*command, "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_no_out_dir_anywhere(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", "--config", str(path)]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_seed_env_redirects_generation(self, tmp_path, monkeypatch):
        out_a = _run_pipeline(tmp_path, "a", arms=())
        monkeypatch.setenv("DRO_SEED", "99")
        out_b = _run_pipeline(tmp_path, "b", arms=())
        assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()

    def test_seed_env_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DRO_SEED", "abc")
        config = _write_config(tmp_path, tmp_path / "o")
        assert main(["generate", "--config", str(config)]) == 2
        assert "DRO_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate"], ["train", "--arm", "erm"]], ids=["generate", "train"])
    def test_negative_seed_env_rejected(self, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        before = (out / "dataset.csv").read_bytes()
        monkeypatch.setenv("DRO_SEED", "-1")
        assert main([*command, "--config", str(config)]) == 2
        assert "DRO_SEED must be >= 0" in capsys.readouterr().err
        assert (out / "dataset.csv").read_bytes() == before
        assert not (out / "erm").exists()


class TestTrain:
    def test_requires_generated_dataset(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "empty")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "generate first" in capsys.readouterr().err

    def test_no_dataset_creates_no_output_directory(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "new" / "deep")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "generate first" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "empty dataset file"),
            (b"case_id,group,label,f1\nc0,majority,0,1.0\n", "malformed feature columns in header"),
            (None, "Is a directory"),
        ],
        ids=["empty", "feature-columns", "directory"],
    )
    def test_unreadable_dataset_exits_2(self, tmp_path, capsys, content, message):
        """A ``dataset.csv`` without a twin that is empty, whose header names
        its feature columns wrongly, or that is a directory, exits 2 naming it."""
        out = tmp_path / "o"
        path = out / "dataset.csv"
        if content is None:
            path.mkdir(parents=True)
        else:
            out.mkdir()
            path.write_bytes(content)
        config = _write_config(tmp_path, out)
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err
        assert not (out / "erm").exists()

    def test_carriage_return_in_a_twins_case_id_rejected_before_training(self, tmp_path, capsys):
        """A twin that matches its CSV faces the checks a parse does: line 5's
        case id holds a ``\\r``."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        path = out / "dataset.csv"
        dataset = datasets.read_csv(path)
        dataset.case_ids[3] = "a\rb"
        datasets.write_twin(dataset, path, datasets.write_csv(dataset, path))
        assert datasets._read_twin(path) is not None
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert capsys.readouterr().err == f"error: {path}:5: carriage return in case_id or group\n"
        assert not (out / "erm").exists()

    def test_writes_scores_and_checkpoints(self, tmp_path):
        out = _run_pipeline(tmp_path, "run")
        run_dir = out / "erm" / "seed_0"
        assert (run_dir / "scores.csv").exists()
        for f in range(3):
            assert (run_dir / f"fold_{f}.ckpt").exists()
        table = load_scores(run_dir / "scores.csv")
        assert len(table) == 60

    def test_arms_score_identical_case_sets(self, tmp_path):
        out = _run_pipeline(tmp_path, "run", arms=("erm", "dro"))
        erm = load_scores(out / "erm" / "seed_0" / "scores.csv")
        dro = load_scores(out / "dro" / "seed_0" / "scores.csv")
        assert [r.case_id for r in erm] == [r.case_id for r in dro]
        assert [r.group for r in erm] == [r.group for r in dro]

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("generate", {"data": dict(BASE_CONFIG["data"], seed="abc")}, "data.seed"),
            ("generate", {"data": dict(BASE_CONFIG["data"], n_samples=60.0)}, "data.n_samples"),
            ("generate", {"data": dict(BASE_CONFIG["data"], seed=-1)}, "data.seed"),
            ("generate", {"data": dict(BASE_CONFIG["data"], shift=True)}, "data.shift"),
            ("generate", {"data": dict(BASE_CONFIG["data"], shift=float("inf"))}, "shift"),
            ("generate", {"data": dict(BASE_CONFIG["data"], majority_radius=float("inf"))}, "majority_radius"),
            ("generate", {"data": dict(BASE_CONFIG["data"], n_samples=10**20)}, "numpy can index"),
            ("generate", {"out": 5}, "'out'"),
            ("train", {"train": {"erm": {"epochs": "8", "batch_size": 8}}}, "train.erm.epochs"),
            ("train", {"train": {"erm": {"epochs": 2, "batch_size": True}}}, "train.erm.batch_size"),
            ("train", {"train": {"erm": {"epochs": 2, "batch_size": 8, "folds": 2.5}}}, "train.erm.folds"),
            ("train", {"train": {"erm": {"epochs": 2, "learning_rate": "fast"}}}, "train.erm"),
            ("train", {"train": {"erm": {"epochs": 2, "learning_rate": float("inf")}}}, "learning_rate"),
            ("train", {"train": {"erm": {"epochs": 2, "learning_rate": True}}}, "train.erm.learning_rate"),
            ("train", {"train": {"erm": {"epochs": 2, "sampler": {"beta": True}}}}, "train.erm.sampler.beta"),
            ("train", {"train": {"erm": {"epochs": 2, "sampler": {"beta": 1e308, "init_loss": 1e308}}}}, "init_loss"),
            ("train", {"train": {"erm": {"epochs": 2, "sampler": {"beta": 1e307, "init_loss": 1.0}}}}, "MAX_LOSS"),
            ("train", {"train": {"erm": {"epochs": 2, "momentum": 0.9}}}, "train.erm: unknown fields ['momentum']"),
            (
                "train",
                {"train": {"erm": {"epochs": 2, "sampler": {"beta": 2.0, "tau": 1.0}}}},
                "train.erm.sampler: unknown fields ['tau']",
            ),
            ("train", {"train": {"erm": {"epochs": 2, "sampler": [1, 2, 3]}}}, "train.erm.sampler must be an object"),
            ("train", {"train": {"erm": {"epochs": 2, "sampler": {"beta": 2.0}}}}, "train.erm: only mode 'dro'"),
            ("train", {"test_dataset": 7}, "test_dataset"),
            ("train", {"test_dataset": True}, "test_dataset"),
            ("train", {"test_dataset": 0}, "test_dataset"),
            ("train", {"seeds": ["x"]}, "seeds"),
            ("train", {"seeds": [0, True]}, "seeds"),
            ("train", {"hidden": ["a"]}, "hidden"),
            ("train", {"hidden": [10**19]}, "numpy can index"),
            ("train", {"seeds": [0, 3, 0]}, "'seeds' must be distinct, got [0] more than once"),
        ],
        ids=[
            "data-seed-str",
            "data-n_samples-float",
            "data-seed-negative",
            "data-shift-bool",
            "data-shift-inf",
            "data-majority_radius-inf",
            "data-n_samples-unindexable",
            "out-int",
            "epochs-str",
            "batch_size-bool",
            "folds-float",
            "learning_rate-str",
            "learning_rate-inf",
            "learning_rate-bool",
            "sampler-beta-bool",
            "sampler-beta-init_loss-overflow",
            "sampler-beta-loss-ceiling-overflow",
            "train-unknown-key",
            "sampler-unknown-key",
            "sampler-not-object",
            "erm-sampler",
            "test_dataset-int",
            "test_dataset-bool",
            "test_dataset-zero",
            "seeds-str",
            "seeds-bool",
            "hidden-str",
            "hidden-unindexable",
            "seeds-repeated",
        ],
    )
    def test_bad_values_rejected_before_work(self, tmp_path, capsys, command, overrides, message):
        out = tmp_path / "o"
        assert main(["generate", "--config", str(_write_config(tmp_path, out))]) == 0
        config = _write_config(tmp_path, out, **overrides)
        arm = ["--arm", "erm"] if command == "train" else []
        assert main([command, "--config", str(config)] + arm) == 2
        assert message in capsys.readouterr().err
        assert not (out / "erm").exists()

    @pytest.mark.parametrize(
        "erm, message", [({"batch_size": 41}, "batch_size"), ({"folds": 61}, "folds")], ids=["batch", "folds"]
    )
    def test_folds_that_cannot_train_rejected_before_training(self, tmp_path, capsys, erm, message):
        """60 cases in 3 folds leave 40 training cases per fold."""
        train = {"erm": dict(BASE_CONFIG["train"]["erm"], **erm)}
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, train=train)
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "erm").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_before_training(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[4] = value
        lines[4] = ",".join(cells)
        (out / "dataset.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--arm", "dro"]) == 2
        assert "dataset.csv:5: non-finite" in capsys.readouterr().err
        assert not (out / "dro").exists()

    @pytest.mark.parametrize(
        "column, value, message",
        [(2, "x", "unparseable label 'x'"), (4, "abc", "unparseable feature f1 'abc'")],
    )
    def test_unparseable_value_rejected_before_training(self, tmp_path, capsys, column, value, message):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[column] = value
        lines[4] = ",".join(cells)
        (out / "dataset.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert f"dataset.csv:5: {message}" in capsys.readouterr().err
        assert not (out / "erm").exists()

    @pytest.mark.parametrize(
        "line, column, value, message",
        [
            (3, 0, "case_0001", "dataset.csv:4: case_id 'case_0001' repeats line 3"),
            (3, 1, "", "dataset.csv:4: empty group"),
            (3, 0, "", "dataset.csv:4: empty case_id"),
        ],
        ids=["repeated-id", "empty-group", "empty-id"],
    )
    def test_bad_case_ids_rejected_before_training(self, tmp_path, capsys, line, column, value, message):
        """Line 3 holds case_0001; the edit is made on line 4."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        assert lines[2].startswith("case_0001,")
        cells = lines[line].split(",")
        cells[column] = value
        lines[line] = ",".join(cells)
        (out / "dataset.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "erm").exists()

    def test_repeated_test_dataset_id_rejected_before_training(self, tmp_path, capsys):
        held_out = datasets.generate(datasets.SyntheticConfig(n_samples=25, n_features=4, n_classes=3), seed=9)
        held_out.case_ids[7] = held_out.case_ids[2]
        held_out_path = tmp_path / "held_out.csv"
        datasets.write_csv(held_out, held_out_path)
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "test_dataset: " + f"{held_out_path}:9: case_id 'case_0002' repeats line 4" in capsys.readouterr().err
        assert not (out / "erm").exists()

    @pytest.mark.parametrize("column", [0, 1], ids=["case_id", "group"])
    def test_carriage_return_in_dataset_rejected_before_training(self, tmp_path, capsys, column):
        """Line 4's case id or group, quoted, holds a ``\\r``."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[column] = '"a\rb"'
        lines[3] = ",".join(cells)
        (out / "dataset.csv").write_bytes(("\n".join(lines) + "\n").encode())
        assert main(["train", "--config", str(config), "--arm", "dro"]) == 2
        assert f"{out / 'dataset.csv'}:4: carriage return in case_id or group" in capsys.readouterr().err
        assert not (out / "dro").exists()

    def test_non_utf8_dataset_rejected_naming_the_line(self, tmp_path, capsys):
        """Without its twin, a ``dataset.csv`` with a byte that is not UTF-8
        on line 4 exits 2 naming the file and line."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        (out / "dataset.bin").unlink()
        lines = (out / "dataset.csv").read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"majority", b"major\xffity").replace(b"minority", b"minor\xffity")
        (out / "dataset.csv").write_bytes(b"\n".join(lines))
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert capsys.readouterr().err == f"error: {out / 'dataset.csv'}:4: not UTF-8 text\n"
        assert not (out / "erm").exists()

    def test_fault_before_a_non_utf8_line_of_the_dataset_named_first(self, tmp_path, capsys):
        """Without its twin, a ``dataset.csv`` whose line 2 holds label ``x``
        and line 3 a byte that is not UTF-8 exits 2 naming line 2."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        (out / "dataset.bin").unlink()
        lines = (out / "dataset.csv").read_bytes().split(b"\n")
        cells = lines[1].split(b",")
        cells[2] = b"x"
        lines[1] = b",".join(cells)
        lines[2] = lines[2].replace(b"majority", b"major\xffity").replace(b"minority", b"minor\xffity")
        (out / "dataset.csv").write_bytes(b"\n".join(lines))
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert capsys.readouterr().err == f"error: {out / 'dataset.csv'}:2: unparseable label 'x'\n"
        assert not (out / "erm").exists()

    @pytest.mark.parametrize("label", [None, "x"], ids=["alone", "after-a-bad-label"])
    def test_unreadable_dataset_row_rejected_before_training(self, tmp_path, capsys, monkeypatch, label):
        """Without its twin, a ``dataset.csv`` whose line 3 holds a case id
        longer than ``csv``'s field size limit exits 2 before any seed
        trains, naming line 3, or line 2 when it holds label ``x``."""
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["generate", "--config", str(config)]) == 0
        (out / "dataset.bin").unlink()
        lines = (out / "dataset.csv").read_bytes().split(b"\n")
        if label is not None:
            cells = lines[1].split(b",")
            cells[2] = label.encode()
            lines[1] = b",".join(cells)
        lines[2] = b"c" * 200_000 + lines[2][lines[2].index(b",") :]
        (out / "dataset.csv").write_bytes(b"\n".join(lines))
        monkeypatch.setattr(training, "cross_validate_seeds", lambda *a: pytest.fail("a seed trained"))
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        path = out / "dataset.csv"
        expected = f"{path}:2: unparseable label 'x'" if label else f"{path}:3: field larger than field limit"
        assert capsys.readouterr().err.startswith(f"error: {expected}")
        assert not (out / "erm").exists()

    def test_fault_before_a_non_utf8_line_of_the_test_dataset_named_first(self, tmp_path, capsys):
        held_out_path = tmp_path / "held_out.csv"
        held_out_path.write_bytes(
            b"case_id,group,label,f0,f1,f2,f3\nc0,majority,x,0.0,0.0,0.0,0.0\nc\xe9,majority,0,0.0,0.0,0.0,0.0\n"
        )
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert capsys.readouterr().err == f"error: test_dataset: {held_out_path}:2: unparseable label 'x'\n"
        assert not (out / "erm").exists()

    def test_non_utf8_test_dataset_rejected_naming_the_line(self, tmp_path, capsys):
        held_out_path = tmp_path / "held_out.csv"
        held_out_path.write_bytes(b"case_id,group,label,f0,f1,f2,f3\nc\xe9,majority,0,0.0,0.0,0.0,0.0\n")
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert capsys.readouterr().err == f"error: test_dataset: {held_out_path}:2: not UTF-8 text\n"
        assert not (out / "erm").exists()

    def test_carriage_return_in_test_dataset_rejected_before_training(self, tmp_path, capsys):
        held_out_path = tmp_path / "held_out.csv"
        held_out_path.write_bytes(b'case_id,group,label,f0,f1,f2,f3\n"a\rb",majority,0,0.0,0.0,0.0,0.0\n')
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert f"test_dataset: {held_out_path}:2: carriage return in case_id or group" in capsys.readouterr().err
        assert not (out / "erm").exists()

    @pytest.mark.parametrize("arm", ["erm", "dro"])
    def test_diverging_run_exits_2_naming_where(self, tmp_path, capsys, arm):
        """A step size that overflows stops the seed in its first epoch,
        before its score files are written; the first seed's stay."""
        train = {a: dict(BASE_CONFIG["train"][a]) for a in ("erm", "dro")}
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, train=train, seeds=[0, 1])
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", arm]) == 0
        train[arm]["learning_rate"] = 1e308
        config = _write_config(tmp_path, out, train=train, seeds=[4, 5])
        assert main(["train", "--config", str(config), "--arm", arm]) == 2
        err = capsys.readouterr().err
        assert f"error: train.{arm}: seed 4, folds 0, 1, 2, epoch 1: training diverged (overflow" in err
        assert not (out / arm / "seed_4" / "scores.csv").exists()
        assert not (out / arm / "seed_5").exists()
        assert (out / arm / "seed_1" / "scores.csv").exists()

    @pytest.mark.parametrize("command", [["generate"], ["train", "--arm", "erm"]], ids=["generate", "train"])
    def test_out_naming_a_file_rejected_before_work(self, tmp_path, capsys, command):
        run = _run_pipeline(tmp_path, "run")
        config = _write_config(tmp_path, run)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        assert main([command[0], "--config", str(config), "--out", str(taken)] + command[1:]) == 2
        assert f"cannot use {taken} as the output directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize(
        "arm, taken, kind",
        [
            ("erm", "erm", "file"),
            ("dro", "dro/seed_1", "file"),
            ("erm", "erm/seed_1/scores.csv", "directory"),
            ("dro", "dro/seed_0/fold_2.ckpt", "directory"),
            ("erm", "erm/seed_1/scores_test.csv", "directory"),
        ],
    )
    def test_path_in_the_way_rejected_before_training(self, tmp_path, capsys, monkeypatch, arm, taken, kind):
        """A file where a run directory must go, or a directory where an
        output file must go, exits 2 naming it before any seed trains."""
        held_out_path = tmp_path / "held_out.csv"
        held_out = datasets.generate(datasets.SyntheticConfig(n_samples=25, n_features=4, n_classes=3), seed=9)
        datasets.write_csv(held_out, held_out_path)
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, seeds=[0, 1], test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        path = out / taken
        if kind == "file":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("in the way\n", encoding="utf-8")
            message = f"cannot use {path} as a run directory: it is a file"
        else:
            path.mkdir(parents=True)
            message = f"cannot write {path}: it is a directory"
        monkeypatch.setattr(training, "cross_validate_seeds", lambda *a: pytest.fail("a seed trained"))
        assert main(["train", "--config", str(config), "--arm", arm]) == 2
        assert message in capsys.readouterr().err
        assert _scores_written(out) == []

    @pytest.mark.parametrize("n_features, n_classes", [(5, 3), (4, 4)])
    def test_mismatched_test_dataset_rejected_before_training(self, tmp_path, capsys, n_features, n_classes):
        held_out = datasets.generate(
            datasets.SyntheticConfig(n_samples=25, n_features=n_features, n_classes=n_classes), seed=9
        )
        held_out_path = tmp_path / "held_out.csv"
        datasets.write_csv(held_out, held_out_path)
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "test_dataset" in capsys.readouterr().err
        assert not (out / "erm").exists()

    def test_mode_key_rejected_with_pointer(self, tmp_path, capsys):
        train = {"erm": {"epochs": 2, "batch_size": 8, "mode": "erm"}, "dro": {}}
        config = _write_config(tmp_path, tmp_path / "o", train=train)
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "--arm" in capsys.readouterr().err

    def test_seed_key_rejected_with_pointer(self, tmp_path, capsys):
        train = {"erm": {"epochs": 2, "batch_size": 8, "seed": 4}, "dro": {}}
        config = _write_config(tmp_path, tmp_path / "o", train=train)
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "seeds list" in capsys.readouterr().err

    def test_missing_arm_block(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", train={"erm": {"epochs": 2}})
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "dro"]) == 2
        assert "train.dro" in capsys.readouterr().err

    def test_empty_seeds_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", seeds=[])
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_infinite_w_max_rejected(self, tmp_path, capsys):
        dro = dict(BASE_CONFIG["train"]["dro"], sampler={"w_max": float("inf")})
        train = dict(BASE_CONFIG["train"], dro=dro)
        config = _write_config(tmp_path, tmp_path / "o", train=train)
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "dro"]) == 2
        assert "w_max" in capsys.readouterr().err

    def test_integers_accepted_in_float_fields(self, tmp_path):
        data = dict(BASE_CONFIG["data"], minority_fraction=0.2, shift=2, majority_radius=3)
        dro = {"epochs": 1, "batch_size": 8, "folds": 3, "learning_rate": 1, "sampler": {"beta": 10, "w_max": 5}}
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, data=data, train=dict(BASE_CONFIG["train"], dro=dro))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "dro"]) == 0
        assert (out / "dro" / "seed_0" / "scores.csv").exists()

    def test_bad_hidden_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", hidden=[])
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "hidden" in capsys.readouterr().err

    def test_seed_env_overrides_seeds_list(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, seeds=[0, 1])
        assert main(["generate", "--config", str(config)]) == 0
        monkeypatch.setenv("DRO_SEED", "7")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 0
        assert (out / "erm" / "seed_7").exists()
        assert not (out / "erm" / "seed_0").exists()

    @pytest.mark.parametrize(
        "arm, block, digest",
        [
            (
                "erm",
                {"epochs": 2, "batch_size": 8, "folds": 3},
                "0caa057a0da50bf7321f0e5c88e4dbf23834942206edc44d8ff996d1f72292e6",
            ),
            (
                "dro",
                {
                    "epochs": 2,
                    "batch_size": 8,
                    "folds": 3,
                    "learning_rate": 0.01,
                    "sampler": {"beta": 50.0, "w_min": 0.2, "init_loss": 3.5},
                },
                "dc290635a346cfeb4028cb01dc2e28d9a3f21f23e79da23f53f78d299b896595",
            ),
            (
                "dro",
                {"epochs": 2, "batch_size": 8, "folds": 3},
                "d864fbd35c3919c564a00e7c5efc4ca4ab0ed1c4c7ac84a9de79525b9c28c8cb",
            ),
        ],
        ids=["erm", "dro", "dro-default-sampler"],
    )
    def test_config_digest_is_pinned(self, arm, block, digest):
        """A train block builds the config it always built: checkpoints
        written before keep loading under it."""
        config = cli._arm_config({"train": {arm: block}}, arm, 7)
        assert training.config_digest(config, (4, 8, 3)).hex() == digest

    def test_test_dataset_scores_equal_ensemble_oracle(self, tmp_path):
        """Each test case's score is the mean, over the fold models loaded
        from their checkpoints, of the probabilities each assigns to the
        classes, read at the true class; 4200 cases span two score blocks."""
        held_out = datasets.generate(datasets.SyntheticConfig(n_samples=4200, n_features=4, n_classes=3), seed=9)
        held_out_path = tmp_path / "held_out.csv"
        datasets.write_csv(held_out, held_out_path)
        out = tmp_path / "run"
        config_path = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path), "--arm", "dro"]) == 0
        config = cli._arm_config(BASE_CONFIG, "dro", 0)
        run_dir = out / "dro" / "seed_0"
        models = [
            training.load_checkpoint(run_dir / f"fold_{f}.ckpt", replace(config, seed=training._fold_seed(0, f))).params
            for f in range(config.folds)
        ]
        probs = np.stack([predict_proba(m, held_out.features) for m in models]).mean(axis=0)
        table = load_scores(run_dir / "scores_test.csv")
        assert table.case_ids == held_out.case_ids
        assert table.groups == held_out.groups
        np.testing.assert_array_equal(table.scores, probs[np.arange(len(held_out)), held_out.labels])

    def test_artifact_bytes_are_pinned(self, tmp_path):
        """generate's dataset and one dro seed's scores and checkpoint keep
        the SHA-256 they had when every CSV row went through csv.writer."""
        out = _run_pipeline(tmp_path, "run", arms=("dro",))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_ARTIFACT_DIGESTS}
        assert digests == PINNED_ARTIFACT_DIGESTS

    @pytest.mark.parametrize("damage", ["deleted", "corrupt"])
    def test_twin_changes_no_artifact(self, tmp_path, monkeypatch, damage):
        """Both arms, with a test_dataset that also has a twin, write the
        same bytes whether the twins are read or the CSVs parsed; a damaged
        twin is parsed around, never an internal error."""

        def generate(name):
            """(run directory, its twins and its test_dataset's, config)."""
            held_out = tmp_path / f"held_out_{name}"
            held_out_config = _write_config(tmp_path, held_out, data=dict(BASE_CONFIG["data"], seed=9))
            assert main(["generate", "--config", str(held_out_config)]) == 0
            out = tmp_path / name
            config = _write_config(tmp_path, out, test_dataset=str(held_out / "dataset.csv"))
            assert main(["generate", "--config", str(config)]) == 0
            return out, [out / "dataset.bin", held_out / "dataset.bin"], config

        def train(out, config) -> dict:
            for arm in ("erm", "dro"):
                assert main(["train", "--config", str(config), "--arm", arm]) == 0
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.glob("*/seed_0/*")}

        out, _, config = generate("twin")
        with monkeypatch.context() as m:
            m.setattr(datasets, "_parse_csv", lambda path: pytest.fail(f"{path} parsed"))
            with_twins = train(out, config)
        out, twins, config = generate(damage)
        for twin in twins:
            if damage == "deleted":
                twin.unlink()
            else:
                raw = bytearray(twin.read_bytes())
                raw[-3] ^= 1
                twin.write_bytes(bytes(raw))
        assert len(with_twins) == 2 * (BASE_CONFIG["train"]["erm"]["folds"] + 2)
        assert train(out, config) == with_twins

    def test_test_dataset_scored_by_ensemble(self, tmp_path):
        held_out = datasets.generate(datasets.SyntheticConfig(n_samples=25, n_features=4, n_classes=3), seed=9)
        held_out_path = tmp_path / "held_out.csv"
        datasets.write_csv(held_out, held_out_path)
        out = tmp_path / "run"
        config = _write_config(tmp_path, out, test_dataset=str(held_out_path))
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 0
        table = load_scores(out / "erm" / "seed_0" / "scores_test.csv")
        assert len(table) == 25


class TestReport:
    def _scores_path(self, tmp_path):
        out = _run_pipeline(tmp_path, "run")
        return out / "erm" / "seed_0" / "scores.csv"

    def test_text_report(self, tmp_path, capsys):
        path = self._scores_path(tmp_path)
        assert main(["report", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert "Region" in stdout
        assert "majority" in stdout and "minority" in stdout

    def test_json_report_parses(self, tmp_path, capsys):
        path = self._scores_path(tmp_path)
        capsys.readouterr()  # drop pipeline chatter, keep only the report
        assert main(["report", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {g["name"] for g in doc["groups"]} == {"majority", "minority"}

    def test_out_dir_gets_both_renderings(self, tmp_path):
        path = self._scores_path(tmp_path)
        report_dir = tmp_path / "report"
        assert main(["report", str(path), "--out", str(report_dir)]) == 0
        assert (report_dir / "report.txt").exists()
        assert (report_dir / "report.json").exists()

    def test_baseline_against_itself_is_flat(self, tmp_path, capsys):
        path = self._scores_path(tmp_path)
        report_dir = tmp_path / "report"
        code = main(["report", str(path), "--baseline", str(path), "--out", str(report_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "deltas vs baseline" in stdout
        comparison = (report_dir / "comparison.txt").read_text(encoding="utf-8")
        assert "+0.0" in comparison
        assert (report_dir / "comparison.json").exists()

    def test_failed_report_write_keeps_previous_files(self, tmp_path, monkeypatch):
        path = self._scores_path(tmp_path)
        report_dir = tmp_path / "report"
        assert main(["report", str(path), "--baseline", str(path), "--out", str(report_dir)]) == 0
        before = {p.name: p.read_bytes() for p in report_dir.iterdir()}
        # A lone surrogate cannot be encoded as UTF-8, so writing report.json fails.
        monkeypatch.setattr(cli, "render_json", lambda report: "{" * 100_000 + "\udc80")
        assert main(["report", str(path), "--baseline", str(path), "--out", str(report_dir)]) == 1
        assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == before

    def test_report_bytes_are_pinned(self, tmp_path, capsys):
        """Every stdout form and every --out file of a fixed score pair keeps
        the SHA-256 it had before the renderers shared one JSON builder."""
        dro, erm = tmp_path / "dro.csv", tmp_path / "erm.csv"
        for path, shift in ((dro, 0.0), (erm, 0.0125)):
            rows = ["case_id,group,region,score"]
            for i in range(90):
                group = ("majority", "minority", "rare")[i % 3 if i < 84 else 2]
                score = (37 * i % 101) / 100 if group != "majority" else 0.5 + (i % 7) * 0.0625
                for region, bump in (("overall", shift), ("edge", -shift if i % 2 else 0.0004)):
                    rows.append(f"c{i:03d},{group},{region},{min(max(score + bump, 0.0), 1.0)!r}")
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        forms = {
            "text": [],
            "text --baseline": ["--baseline", str(erm)],
            "json": ["--format", "json"],
            "json --baseline": ["--baseline", str(erm), "--format", "json"],
        }
        digests = {}
        for form, flags in forms.items():
            assert main(["report", str(dro), *flags]) == 0
            digests[form] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        report_dir = tmp_path / "report"
        assert main(["report", str(dro), "--baseline", str(erm), "--out", str(report_dir)]) == 0
        assert capsys.readouterr().out.encode() == (report_dir / "report.txt").read_bytes() + (
            b"\ndeltas vs baseline (percent points)\n" + (report_dir / "comparison.txt").read_bytes()
        )
        for path in sorted(report_dir.iterdir()):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == PINNED_REPORT_DIGESTS

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        path = self._scores_path(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        assert main(["report", str(path), "--out", str(taken)]) == 2
        assert f"cannot use {taken} as the output directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("taken", ["report.json", "comparison.txt"])
    def test_directory_at_an_out_file_exit_2_writing_nothing(self, tmp_path, capsys, taken):
        path = self._scores_path(tmp_path)
        report_dir = tmp_path / "report"
        (report_dir / taken).mkdir(parents=True)
        assert main(["report", str(path), "--baseline", str(path), "--out", str(report_dir)]) == 2
        assert f"cannot write {report_dir / taken}: it is a directory" in capsys.readouterr().err
        assert [p.name for p in report_dir.iterdir()] == [taken]

    def test_malformed_scores_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,group,region,score\nc0,g,r,2.0\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [None, "--baseline"])
    def test_non_utf8_scores_exit_2_naming_the_line(self, tmp_path, capsys, flag):
        good = tmp_path / "good.csv"
        good.write_text("case_id,group,region,score\nc0,g,r,0.5\nc1,g,r,0.25\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"case_id,group,region,score\nc0,g,r,0.5\nc1,g\xff,r,0.25\n")
        argv = ["report", str(good), "--baseline", str(bad)] if flag else ["report", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: not UTF-8 text\n"

    def test_fault_before_a_non_utf8_line_named_first(self, tmp_path, capsys):
        path = tmp_path / "order.csv"
        path.write_bytes(b"case_id,group,region,score\nc0,g,r,2.0\nc1,g\xff,r,0.25\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: score 2.0 outside [0, 1]\n"

    @pytest.mark.parametrize("fault", [None, "c0,g,r,2.0"], ids=["alone", "after-a-range-fault"])
    def test_unreadable_score_row_exits_2_naming_the_first_fault(self, tmp_path, capsys, fault):
        """A case id longer than ``csv``'s field size limit on line 3 is
        named by its line, after a range fault on line 2."""
        path = tmp_path / "long.csv"
        path.write_text(f"case_id,group,region,score\n{fault or 'c0,g,r,0.5'}\n{'c' * 200_000},g,r,0.5\n", "utf-8")
        assert main(["report", str(path)]) == 2
        expected = f"{path}:2: score 2.0 outside [0, 1]" if fault else f"{path}:3: field larger than field limit"
        assert capsys.readouterr().err.startswith(f"error: {expected}")

    def test_nul_byte_in_scores_read_or_named_by_its_line(self, tmp_path, capsys):
        """Python 3.11 and later read a NUL byte; on 3.10 ``csv`` cannot read
        its row, which is named by its line."""
        path = tmp_path / "nul.csv"
        path.write_bytes(b"case_id,group,region,score\nc0,g,r,0.5\nc\x001,g,r,0.25\n")
        if sys.version_info >= (3, 11):
            assert main(["report", str(path)]) == 0
        else:
            assert main(["report", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {path}:3: line contains NUL\n"

    def test_missing_scores_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2

    def test_mismatched_baseline_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("case_id,group,region,score\nc0,g1,r,0.5\n", encoding="utf-8")
        b.write_text("case_id,group,region,score\nc0,g2,r,0.5\n", encoding="utf-8")
        assert main(["report", str(a), "--baseline", str(b)]) == 2
        assert "strata" in capsys.readouterr().err


# The modules that only generate and train use.
TRAINING_STACK = ["drotrain.datasets", "drotrain.mlp", "drotrain.sampler", "drotrain.training"]


@pytest.mark.parametrize(
    "command, loaded",
    [("", []), ("generate", ["drotrain.datasets"])],
    ids=["import", "generate"],
)
def test_training_stack_loaded_only_by_the_commands_that_run_it(tmp_path, command, loaded):
    """A fresh interpreter that imports the CLI, and one that runs
    ``generate`` too, loads none of the training stack but what it uses."""
    config = _write_config(tmp_path, tmp_path / "run")
    run = f"drotrain.cli.main({['generate', '--config', str(config)]!r}); " if command else ""
    code = f"import sys, drotrain.cli; {run}print(sorted(m for m in {TRAINING_STACK!r} if m in sys.modules))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr(loaded)


def test_report_runs_without_numpy(tmp_path):
    """A fresh interpreter that imports the CLI, then runs a whole
    ``report`` with a baseline through ``main``, never loads numpy."""
    path = tmp_path / "scores.csv"
    path.write_text("case_id,group,region,score\nc0,g,r,0.5\nc1,h,r,0.25\n", encoding="utf-8")
    report = ["report", str(path), "--baseline", str(path), "--format", "json", "--out", str(tmp_path / "r")]
    code = (
        "import sys, drotrain.cli; imported = 'numpy' in sys.modules; "
        f"code = drotrain.cli.main({report!r}); "
        "print(imported, code, 'numpy' in sys.modules)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False 0 False"
    assert (tmp_path / "r" / "comparison.json").exists()
