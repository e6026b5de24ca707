"""End-to-end tests for the command line front door, run in-process."""

import json

import pytest

from drotrain import cli, datasets
from drotrain.cli import main
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
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()

    def test_unknown_data_field(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "o", data={"n_samples": 60, "sigma": 2})
        assert main(["generate", "--config", str(config)]) == 2
        assert "sigma" in capsys.readouterr().err

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


class TestTrain:
    def test_requires_generated_dataset(self, tmp_path, capsys):
        config = _write_config(tmp_path, tmp_path / "empty")
        assert main(["train", "--config", str(config), "--arm", "erm"]) == 2
        assert "generate first" in capsys.readouterr().err

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
            ("train", {"train": {"erm": {"epochs": "8", "batch_size": 8}}}, "train.erm.epochs"),
            ("train", {"train": {"erm": {"epochs": 2, "batch_size": True}}}, "train.erm.batch_size"),
            ("train", {"train": {"erm": {"epochs": 2, "batch_size": 8, "folds": 2.5}}}, "train.erm.folds"),
            ("train", {"train": {"erm": {"epochs": 2, "learning_rate": "fast"}}}, "train.erm"),
            ("train", {"train": {"erm": {"epochs": 2, "learning_rate": float("inf")}}}, "learning_rate"),
            ("train", {"seeds": ["x"]}, "seeds"),
            ("train", {"seeds": [0, True]}, "seeds"),
            ("train", {"hidden": ["a"]}, "hidden"),
        ],
        ids=[
            "data-seed-str",
            "data-n_samples-float",
            "data-seed-negative",
            "epochs-str",
            "batch_size-bool",
            "folds-float",
            "learning_rate-str",
            "learning_rate-inf",
            "seeds-str",
            "seeds-bool",
            "hidden-str",
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

    def test_malformed_scores_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,group,region,score\nc0,g,r,2.0\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_scores_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2

    def test_mismatched_baseline_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("case_id,group,region,score\nc0,g1,r,0.5\n", encoding="utf-8")
        b.write_text("case_id,group,region,score\nc0,g2,r,0.5\n", encoding="utf-8")
        assert main(["report", str(a), "--baseline", str(b)]) == 2
        assert "strata" in capsys.readouterr().err
