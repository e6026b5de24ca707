"""Verification tests for the training loops, cross-validation, checkpoints."""

import json
import re
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from oracles import checkpoint_bytes, replacement_sgd_oracle, subset

from drotrain import scores, training
from drotrain._files import BLOCK_ROWS
from drotrain.datasets import Dataset, SyntheticConfig, generate, write_csv
from drotrain.mlp import (
    MAX_LOSS,
    MLPParams,
    init_params,
    predict_proba,
    true_class_prob,
    weighted_loss_gradient,
)
from drotrain.sampler import HardnessWeightedSampler, SamplerConfig
from drotrain.training import (
    CHECKPOINT_SLICE,
    SCORE_REGION,
    TrainConfig,
    cross_validate,
    cross_validate_seeds,
    init_state,
    load_checkpoint,
    run_epochs,
    TrainingDiverged,
    init_stack,
    save_checkpoint,
    train_dro,
    train_erm,
    train_replacement_erm,
)


def _blob_dataset(n, d=2, n_classes=2, seed=0, spread=2.0):
    """Linearly separable blobs: class c centred at spread * e_c."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(n_classes, size=n)
    centres = spread * np.eye(n_classes, d)
    features = centres[labels] + 0.3 * rng.standard_normal((n, d))
    groups = np.where(np.arange(n) % 5 == 0, "minority", "majority")
    case_ids = np.array([f"case_{i:04d}" for i in range(n)])
    return Dataset(features, labels, groups, case_ids)


def _accuracy(params, dataset):
    preds = predict_proba(params, dataset.features).argmax(axis=1)
    return float((preds == dataset.labels).mean())


def _meta_set(**fields):
    """A checkpoint meta edit that sets top-level fields."""
    return lambda meta: json.dumps({**json.loads(meta), **fields}).encode()


# Edits of a fresh dro checkpoint's JSON meta that leave it unloadable.
META_CORRUPTIONS = {
    "epoch-key-renamed": lambda meta: meta.replace(b'"epoch"', b'"epoc"'),
    "meta-not-json": lambda meta: meta[:-1],
    "meta-not-utf8": lambda meta: meta.replace(b'"dims"', b'"\xffims"'),
    "meta-nested-too-deep": lambda meta: b"[" * 100_000 + b"]" * 100_000,
    "negative-draw-count": lambda meta: meta.replace(b'"draw_counts":[0', b'"draw_counts":[-1'),
    "negative-epoch": _meta_set(epoch=-1),
    "epoch-not-int": _meta_set(epoch="2"),
    "mode-not-config": _meta_set(mode="erm"),
    "no-rng": _meta_set(sampler=None),
    "both-rngs": _meta_set(rng_state={"bit_generator": "PCG64"}),
    "bad-rng-state": _meta_set(rng_state={"bit_generator": "PCG64"}, sampler=None),
}


MiB = 1 << 20


def _traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` (which sees numpy's buffers) traces
    while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _params_equal(a, b):
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)) and all(
        np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases)
    )


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.mode == "erm"
        assert config.sampler is None

    def test_dro_fills_sampler_with_loss_ceiling(self):
        config = TrainConfig(mode="dro")
        assert config.sampler == SamplerConfig(init_loss=MAX_LOSS)

    def test_explicit_sampler_kept(self):
        sampler = SamplerConfig(beta=5.0, init_loss=2.0)
        assert TrainConfig(mode="dro", sampler=sampler).sampler == sampler

    def test_erm_takes_no_sampler(self):
        with pytest.raises(ValueError, match="only mode 'dro' takes a sampler"):
            TrainConfig(sampler=SamplerConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"mode": "adversarial"},
            {"folds": 0},
            {"learning_rate": float("inf")},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainingLoops:
    def test_zero_epochs_returns_init(self):
        dataset = _blob_dataset(40)
        dims = (2, 8, 2)
        for mode in ("erm", "dro"):
            config = TrainConfig(epochs=0, batch_size=8, mode=mode, seed=3)
            trained = (train_erm if mode == "erm" else train_dro)(dataset, dims, config)
            fresh = init_state(len(dataset), dims, config).params
            assert _params_equal(trained, fresh)

    def test_deterministic_per_seed(self):
        dataset = _blob_dataset(60)
        dims = (2, 8, 2)
        for mode, train in (("erm", train_erm), ("dro", train_dro)):
            config = TrainConfig(epochs=3, batch_size=10, mode=mode, seed=5)
            assert _params_equal(train(dataset, dims, config), train(dataset, dims, config))

    def test_seed_changes_outcome(self):
        dataset = _blob_dataset(60)
        a = train_erm(dataset, (2, 8, 2), TrainConfig(epochs=2, batch_size=10, seed=0))
        b = train_erm(dataset, (2, 8, 2), TrainConfig(epochs=2, batch_size=10, seed=1))
        assert not _params_equal(a, b)

    def test_mode_mismatch_rejected(self):
        dataset = _blob_dataset(40)
        with pytest.raises(ValueError):
            train_erm(dataset, (2, 4, 2), TrainConfig(mode="dro"))
        with pytest.raises(ValueError):
            train_dro(dataset, (2, 4, 2), TrainConfig(mode="erm"))
        with pytest.raises(ValueError):
            train_replacement_erm(dataset, (2, 4, 2), TrainConfig(mode="dro"))

    def test_batch_larger_than_dataset_rejected(self):
        dataset = _blob_dataset(10)
        with pytest.raises(ValueError, match="batch_size"):
            train_erm(dataset, (2, 4, 2), TrainConfig(epochs=1, batch_size=11))

    def test_dims_must_match_data(self):
        dataset = _blob_dataset(20, d=3, n_classes=3)
        with pytest.raises(ValueError, match="input"):
            train_erm(dataset, (2, 4, 3), TrainConfig(epochs=1, batch_size=5))
        with pytest.raises(ValueError, match="outputs"):
            train_erm(dataset, (3, 4, 2), TrainConfig(epochs=1, batch_size=5))

    def test_full_batch_epoch_is_one_mean_gradient_step(self):
        dataset = _blob_dataset(6)
        dims = (2, 4, 2)
        config = TrainConfig(epochs=1, batch_size=6, learning_rate=0.1, seed=2)
        trained = train_erm(dataset, dims, config)
        init = init_state(len(dataset), dims, config).params
        _, grad = weighted_loss_gradient(init, dataset.features, dataset.labels, np.ones(6))
        for w, gw, tw in zip(init.weights, grad.weights, trained.weights):
            assert np.allclose(tw, w - 0.1 * gw, rtol=0, atol=1e-12)

    def test_separable_data_is_learned(self):
        dataset = _blob_dataset(200, seed=4)
        dims = (2, 16, 2)
        erm = train_erm(dataset, dims, TrainConfig(epochs=50, batch_size=20, seed=1))
        dro = train_dro(dataset, dims, TrainConfig(epochs=50, batch_size=20, mode="dro", seed=1))
        assert _accuracy(erm, dataset) >= 0.97
        assert _accuracy(dro, dataset) >= 0.97

    def test_replacement_erm_learns_too(self):
        dataset = _blob_dataset(200, seed=4)
        params = train_replacement_erm(
            dataset, (2, 16, 2), TrainConfig(epochs=50, batch_size=20, seed=1)
        )
        assert _accuracy(params, dataset) >= 0.97

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replacement_erm_equals_plain_reference_loop(self, seed):
        """The one loop over a flat buffer takes the steps of a per-layer
        loop over uniform draws, bit for bit."""
        dataset = _blob_dataset(90, d=3, n_classes=3, seed=seed)
        dims = (3, 7, 5, 3)
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.5, seed=seed)
        init_ss, loop_ss = np.random.SeedSequence(seed).spawn(2)
        start = init_params(dims, init_ss)
        sampler = HardnessWeightedSampler(len(dataset), seed=loop_ss)
        weights, biases = replacement_sgd_oracle(
            dataset.features,
            dataset.labels,
            start.weights,
            start.biases,
            lambda: sampler.draw(config.batch_size)[0],
            config.epochs * (len(dataset) // config.batch_size),
            config.learning_rate,
            MAX_LOSS,
        )
        trained = train_replacement_erm(dataset, dims, config)
        assert _params_equal(trained, MLPParams(weights, biases))

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_overflowing_step_raises_diverged(self, mode):
        """A step whose arithmetic overflows stops the stack in that epoch,
        naming every model of it, under any warnings filter."""
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e308, mode=mode, seed=0)
        state = init_stack([30, 30], (2, 4, 2), config, [1, 2])
        with pytest.raises(TrainingDiverged, match="overflow") as caught:
            run_epochs(state, dataset, config, 3, rows=[np.arange(30), np.arange(10, 40)])
        assert (caught.value.epoch, caught.value.models) == (1, [0, 1])

    def test_non_finite_model_named_at_epoch_end(self):
        """A NaN spreads through its own model without a floating-point
        error; the end-of-epoch check names that model alone."""
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=3, batch_size=8, seed=0)
        state = init_stack([30, 30, 30], (2, 4, 2), config, [1, 2, 3])
        state.params.theta[1, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="not finite") as caught:
            run_epochs(state, dataset, config, 3, rows=[np.arange(30), np.arange(10, 40), np.arange(5, 35)])
        assert (caught.value.epoch, caught.value.models) == (1, [1])

    def test_diverged_stack_names_its_folds(self, monkeypatch):
        """49 cases in 5 folds train as two stacks, folds 0-3 on 39 cases
        and fold 4 on 40; a NaN planted in the second is named fold 4."""
        real_init_stack = training.init_stack

        def planted(sizes, *args):
            state = real_init_stack(sizes, *args)
            if list(sizes) == [40]:
                state.params.theta[0, 0] = np.nan
            return state

        monkeypatch.setattr(training, "init_stack", planted)
        with pytest.raises(TrainingDiverged) as caught:
            cross_validate(_blob_dataset(49), (4,), TrainConfig(epochs=2, batch_size=8, folds=5, seed=0))
        assert (caught.value.epoch, caught.value.models) == (1, [4])

    def test_dro_updates_stale_losses_for_drawn_cases(self):
        dataset = _blob_dataset(64)
        config = TrainConfig(epochs=1, batch_size=32, mode="dro", seed=0)
        state = init_state(len(dataset), (2, 4, 2), config)
        run_epochs(state, dataset, config, 1)
        assert (state.sampler.stale_losses != MAX_LOSS).any()


class TestCrossValidate:
    def test_every_case_scored_once(self):
        dataset = _blob_dataset(50)
        config = TrainConfig(epochs=2, batch_size=8, folds=5, seed=0)
        result = cross_validate(dataset, (8,), config)
        assert len(result.table) == 50
        assert sorted(r.case_id for r in result.table) == sorted(dataset.case_ids)
        assert {r.region for r in result.table} == {SCORE_REGION}

    def test_scores_come_from_held_out_fold_model(self):
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=2, batch_size=8, folds=4, seed=1)
        result = cross_validate(dataset, (8,), config)
        by_case = {r.case_id: r.score for r in result.table}
        for f, (_, val_idx) in enumerate(result.splits):
            expected = true_class_prob(
                result.states[f].params, dataset.features[val_idx], dataset.labels[val_idx]
            )
            for i, p in zip(val_idx, expected):
                assert by_case[dataset.case_ids[i]] == p

    def test_arms_share_splits_and_case_order(self):
        dataset = _blob_dataset(45)
        erm = cross_validate(dataset, (8,), TrainConfig(epochs=1, batch_size=8, seed=7))
        dro = cross_validate(dataset, (8,), TrainConfig(epochs=1, batch_size=8, mode="dro", seed=7))
        for (tr_a, va_a), (tr_b, va_b) in zip(erm.splits, dro.splits):
            assert np.array_equal(tr_a, tr_b)
            assert np.array_equal(va_a, va_b)
        assert [r.case_id for r in erm.table] == [r.case_id for r in dro.table]

    def test_single_fold_holds_out_a_fifth(self):
        dataset = _blob_dataset(50)
        result = cross_validate(dataset, (4,), TrainConfig(epochs=1, batch_size=5, folds=1, seed=0))
        assert len(result.splits) == 1
        train_idx, val_idx = result.splits[0]
        assert len(val_idx) == 10
        assert len(train_idx) == 40
        X, y = dataset.features[val_idx], dataset.labels[val_idx]
        expected = dict(zip(val_idx.tolist(), true_class_prob(result.states[0].params, X, y)))
        assert [(r.case_id, r.score) for r in result.table] == [
            (dataset.case_ids[i], expected[i]) for i in sorted(expected)
        ]


class TestBlockScoring:
    @pytest.mark.parametrize("dims", [(10, 16, 3), (8, 32, 32, 3)])
    def test_blocks_equal_one_call_bit_for_bit(self, dims):
        """A fold of more than two blocks, scored in blocks and in one call."""
        rng = np.random.default_rng(len(dims))
        n = 2 * training.SCORE_BLOCK + 1000
        dataset = Dataset(
            3.0 * rng.standard_normal((n, dims[0])),
            rng.integers(dims[-1], size=n),
            np.full(n, "majority"),
            np.array([f"case_{i}" for i in range(n)]),
        )
        params = init_params(dims, 5)
        rows = rng.permutation(n)[: n - 7]
        whole = true_class_prob(params, dataset.features[rows], dataset.labels[rows])
        blocks = training._score_rows(params, dataset, rows)
        assert blocks.tobytes() == whole.tobytes()


class TestLockstepFolds:
    """Folds trained as stacks against each fold trained alone on its subset."""

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("mode", ["erm", "dro"])
    @pytest.mark.parametrize("n", [47, 49, 100])
    def test_each_fold_equals_training_it_alone(self, n, mode, runs, monkeypatch):
        """With 3 folds of batch 8, n = 47 gives 3/3/4 steps per epoch and
        n = 49 gives sampler trees of 2/3/3 blocks, so folds land in two
        stacks; n = 100 gives training sizes 66/67/67, one step count and
        one tree shape, so its folds of unequal size train as one stack.
        Every fold ends bit-identical to a lone run.  With runs = 2
        cross_validate is called twice on the same inputs, and the second
        call must carry nothing over from the first."""
        dataset = _blob_dataset(n, seed=n)
        config = TrainConfig(epochs=3, batch_size=8, mode=mode, folds=3, seed=4)
        stacks, init_stack = [], training.init_stack

        def spy(sizes, *args):
            stacks.append(sizes)
            return init_stack(sizes, *args)

        monkeypatch.setattr(training, "init_stack", spy)
        for _ in range(runs):
            stacks.clear()
            result = cross_validate(dataset, (6,), config)
            assert len(stacks) == {47: 2, 49: 2, 100: 1}[n]
            assert sorted(n for sizes in stacks for n in sizes) == sorted(t.size for t, _ in result.splits)
            for f, (train_idx, _) in enumerate(result.splits):
                fold_config = result.fold_configs[f]
                alone = init_state(len(train_idx), result.dims, fold_config)
                run_epochs(alone, subset(dataset, train_idx), fold_config, fold_config.epochs)
                state = result.states[f]
                assert state.epoch == alone.epoch == 3
                assert _params_equal(state.params, alone.params)
                if mode == "dro":
                    assert state.sampler.state_dict() == alone.sampler.state_dict()
                else:
                    assert state.rng.bit_generator.state == alone.rng.bit_generator.state

    def test_stack_needs_one_step_count(self):
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=1, batch_size=8, seed=0)
        state = training.init_stack([16, 24], (2, 4, 2), config, [0, 1])
        with pytest.raises(ValueError, match="step count"):
            run_epochs(state, dataset, config, 1, rows=[np.arange(16), np.arange(16, 40)])

    def test_stack_sampler_must_fit_rows(self):
        dataset = _blob_dataset(100)
        config = TrainConfig(epochs=1, batch_size=8, mode="dro", seed=0)
        state = training.init_stack([66, 67], (2, 4, 2), config, [0, 1])
        with pytest.raises(ValueError, match="do not fit"):
            run_epochs(state, dataset, config, 1, rows=[np.arange(67), np.arange(33, 99)])

    def test_stacked_gradient_equals_single_calls(self):
        rng = np.random.default_rng(23)
        models = [init_params((5, 7, 6, 3), seed) for seed in range(4)]
        stacked = MLPParams(
            [np.stack(ws) for ws in zip(*(m.weights for m in models))],
            [np.stack(bs) for bs in zip(*(m.biases for m in models))],
        )
        X = 3.0 * rng.standard_normal((4, 9, 5))
        y = rng.integers(0, 3, size=(4, 9))
        w = rng.uniform(0.1, 10.0, size=(4, 9))
        losses, grad = weighted_loss_gradient(stacked, X, y, w)
        assert losses.shape == (4, 9)
        for k, model in enumerate(models):
            lk, gk = weighted_loss_gradient(model, X[k], y[k], w[k])
            np.testing.assert_array_equal(losses[k], lk)
            for a, b in zip(grad.weights + grad.biases, gk.weights + gk.biases):
                np.testing.assert_array_equal(a[k], b)

    def test_stacked_gradient_rejects_mismatched_stack(self):
        stacked = MLPParams([np.zeros((2, 3, 4))], [np.zeros((2, 3))])
        with pytest.raises(ValueError):
            weighted_loss_gradient(stacked, np.zeros((3, 5, 4)), np.zeros((3, 5), dtype=int), np.ones((3, 5)))
        with pytest.raises(ValueError):
            weighted_loss_gradient(stacked, np.zeros((5, 4)), np.zeros(5, dtype=int), np.ones(5))


class TestLockstepSeeds:
    """The seeds of a run trained together against each seed trained alone."""

    SEEDS = [5, 2, 9]

    def _configs(self, mode):
        return [TrainConfig(epochs=2, batch_size=8, mode=mode, folds=3, seed=s) for s in self.SEEDS]

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_erm_stacks_every_seed_dro_one_seed_at_a_time(self, mode, monkeypatch):
        """n = 100 in 3 folds trains each seed as one stack (see
        TestLockstepFolds): ERM puts all 3 seeds in one stack of 9 models,
        DRO makes one stack of 3 per seed."""
        stacks, init_stack = [], training.init_stack

        def spy(sizes, *args):
            stacks.append(len(sizes))
            return init_stack(sizes, *args)

        monkeypatch.setattr(training, "init_stack", spy)
        results = list(cross_validate_seeds(_blob_dataset(100, seed=100), (6,), self._configs(mode)))
        assert len(results) == 3
        assert stacks == ([9] if mode == "erm" else [3, 3, 3])

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_each_seed_equals_cross_validating_it_alone(self, mode):
        """Every fold of every seed ends bit-identical to cross_validate of
        that seed alone, and the results come in config order.  n = 47
        gives folds of 3 and 4 steps, so a run has more than one stack."""
        dataset = _blob_dataset(47, seed=47)
        configs = self._configs(mode)
        for config, result in zip(configs, cross_validate_seeds(dataset, (6,), configs), strict=True):
            alone = cross_validate(dataset, (6,), config)
            assert result.fold_configs == alone.fold_configs
            assert [f.seed for f in result.fold_configs] == [training._fold_seed(config.seed, f) for f in range(3)]
            for (tr, va), (tr_alone, va_alone) in zip(result.splits, alone.splits, strict=True):
                assert np.array_equal(tr, tr_alone) and np.array_equal(va, va_alone)
            for state, lone in zip(result.states, alone.states, strict=True):
                assert state.epoch == lone.epoch == 2
                assert state.params.theta.tobytes() == lone.params.theta.tobytes()
                if mode == "dro":
                    assert state.sampler.state_dict() == lone.sampler.state_dict()
                else:
                    assert state.rng.bit_generator.state == lone.rng.bit_generator.state
            table, lone_table = result.table, alone.table
            assert table.case_ids == lone_table.case_ids and table.groups == lone_table.groups
            assert table.regions == lone_table.regions
            assert table.scores.tobytes() == lone_table.scores.tobytes()

    @pytest.mark.parametrize(
        "change", [{"epochs": 3}, {"folds": 2}, {"mode": "dro"}, {"learning_rate": 0.1}], ids=str
    )
    def test_configs_differing_beyond_seed_refused(self, change):
        configs = self._configs("erm")
        configs[1] = replace(configs[1], **change)
        with pytest.raises(ValueError, match="differ only in seed"):
            cross_validate_seeds(_blob_dataset(40), (4,), configs)

    def test_diverged_seed_stack_names_the_seed_and_its_fold(self, monkeypatch):
        """A NaN planted in seed 2's fold 1 of a three-seed ERM stack is
        named as seed 2, fold 1, and no seed's result is yielded."""
        real_init_stack = training.init_stack

        def planted(sizes, dims, config, seeds):
            state = real_init_stack(sizes, dims, config, seeds)
            state.params.theta[list(seeds).index(training._fold_seed(2, 1)), 0] = np.nan
            return state

        monkeypatch.setattr(training, "init_stack", planted)
        configs = [TrainConfig(epochs=2, batch_size=8, folds=3, seed=s) for s in (0, 1, 2)]
        results = cross_validate_seeds(_blob_dataset(60), (4,), configs)
        with pytest.raises(TrainingDiverged) as caught:
            next(results)
        assert (caught.value.seed, caught.value.models, caught.value.epoch) == (2, [1], 1)

    def test_erm_epoch_holds_one_order_array_of_the_stack(self):
        """A 20-model ERM epoch on 1999 rows each traces about the one
        (models, steps * batch) order it walks, 0.32 MB; a padded row
        table, the stacked permutations and their gathered copy traced
        1.03 MB."""
        n, m, b = 2000, 20, 8
        rng = np.random.default_rng(0)
        dataset = _blob_dataset(n)
        rows = [rng.permutation(n)[: n - 1] for _ in range(m)]
        config = TrainConfig(epochs=1, batch_size=b, seed=0)
        state = init_stack([r.size for r in rows], (2, 4, 2), config, list(range(m)))
        order_bytes = m * ((n - 1) // b) * b * np.dtype(np.intp).itemsize
        peak = _traced_peak(lambda: run_epochs(state, dataset, config, 1, rows=rows))
        assert peak < 1.5 * order_bytes

    def test_dro_epoch_maps_each_models_draws_through_its_own_rows(self):
        """A 3-model DRO epoch on about 20 000 rows each traces 0.14 MB,
        under half the 0.48 MB of its rows; with a padded (models, max n)
        copy of the rows, gathered with one index, it traced 0.62 MB."""
        n, m, b = 20003, 3, 64  # sizes that share one tree shape
        rng = np.random.default_rng(0)
        dataset = _blob_dataset(n)
        rows = [rng.permutation(n)[: n - k] for k in range(m)]
        config = TrainConfig(epochs=1, batch_size=b, mode="dro", seed=0)
        state = init_stack([r.size for r in rows], (2, 4, 2), config, list(range(m)))
        peak = _traced_peak(lambda: run_epochs(state, dataset, config, 1, rows=rows))
        assert peak < sum(r.nbytes for r in rows) / 2

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_a_yielded_result_is_held_by_its_caller_alone(self, mode):
        """Once the caller drops a result, its fold states are freed before
        the next result is asked for."""
        results = cross_validate_seeds(_blob_dataset(60), (4,), self._configs(mode))
        for _ in self.SEEDS:
            states = [weakref.ref(state) for state in next(results).states]
            assert [ref() for ref in states] == [None] * 3


class TestCheckpoint:
    def test_blob_is_per_layer_concatenation(self):
        models = [init_params((3, 5, 4, 2), seed) for seed in range(3)]

        def per_layer(params):
            arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
            return b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)

        assert training._params_blob(models[0]) == per_layer(models[0])
        stacked = MLPParams.from_theta(np.stack([m.theta for m in models]), models[0].dims)
        assert training._params_blob(stacked) == b"".join(per_layer(m) for m in models)

    @pytest.mark.parametrize("cut", [0, 5, 20, 47, 48, 60, -9, -8, -5, -1, *META_CORRUPTIONS])
    def test_truncated_file_rejected_naming_path(self, tmp_path, cut):
        """A file cut at ``cut`` bytes, or whose meta is edited as
        :data:`META_CORRUPTIONS` names, raises ``ValueError`` naming it."""
        config = TrainConfig(epochs=1, batch_size=6, mode="dro", seed=0)
        path = tmp_path / "fold_0.ckpt"
        save_checkpoint(path, init_state(30, (2, 4, 2), config), config)
        raw = path.read_bytes()
        if isinstance(cut, int):
            raw = raw[:cut]
        else:
            meta_len = int.from_bytes(raw[40:48], "little")
            meta = META_CORRUPTIONS[cut](raw[48 : 48 + meta_len])
            raw = raw[:40] + struct.pack("<Q", len(meta)) + meta + raw[48 + meta_len :]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path, config)

    def test_roundtrip_preserves_state(self, tmp_path):
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=2, batch_size=8, mode="dro", seed=3)
        state = init_state(len(dataset), (2, 6, 2), config)
        run_epochs(state, dataset, config, 2)
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, state, config)
        loaded = load_checkpoint(path, config)
        assert loaded.epoch == 2
        assert _params_equal(loaded.params, state.params)

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_resume_equals_straight_run(self, tmp_path, mode):
        dataset = _blob_dataset(48)
        dims = (2, 6, 2)
        config = TrainConfig(epochs=4, batch_size=8, mode=mode, seed=6)
        straight = init_state(len(dataset), dims, config)
        run_epochs(straight, dataset, config, 4)

        half = init_state(len(dataset), dims, config)
        run_epochs(half, dataset, config, 2)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half, config)
        resumed = load_checkpoint(path, config)
        run_epochs(resumed, dataset, config, 2)

        assert resumed.epoch == 4
        assert _params_equal(resumed.params, straight.params)

    def test_replacement_resume_equals_straight_run(self, tmp_path, monkeypatch):
        """A with-replacement mean-loss run saved after 2 epochs, loaded and
        run 2 more ends bit-identical to 4 epochs straight: the loaded
        sampler stays unfed, as the saved one was."""
        dataset = _blob_dataset(48)
        dims = (2, 6, 2)
        config = TrainConfig(epochs=4, batch_size=8, seed=6)
        straight = train_replacement_erm(dataset, dims, config)

        states = []

        def spy(state, *args):
            states.append(state)
            return run_epochs(state, *args)

        monkeypatch.setattr(training, "run_epochs", spy)
        train_replacement_erm(dataset, dims, replace(config, epochs=2))
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, states[0], config)
        resumed = load_checkpoint(path, config)
        run_epochs(resumed, dataset, config, 2)

        assert resumed.epoch == 4
        assert _params_equal(resumed.params, straight)
        np.testing.assert_array_equal(resumed.sampler.stale_losses, np.ones(len(dataset)))

    def test_config_mismatch_rejected(self, tmp_path):
        dataset = _blob_dataset(30)
        config = TrainConfig(epochs=1, batch_size=6, seed=0)
        state = init_state(len(dataset), (2, 4, 2), config)
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, state, config)
        with pytest.raises(ValueError, match="configuration"):
            load_checkpoint(path, TrainConfig(epochs=1, batch_size=6, learning_rate=0.01, seed=0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path, TrainConfig())


class TestCheckpointMeta:
    """The meta written a slice of sampler leaves at a time is byte for
    byte the one ``json.dumps`` of the whole meta that the oracle writes."""

    # Stale losses whose text is easy to get wrong: the smallest subnormal,
    # an exponent form, a signed zero and the loss ceiling.
    STALE = [5e-324, 1e-05, -0.0, MAX_LOSS, 0.1 + 0.2]
    COUNTS = [0, 1, 2**31, 2**40 + 7, 3]

    def _assert_oracle_bytes(self, tmp_path, state, config):
        path = tmp_path / "fold_0.ckpt"
        save_checkpoint(path, state, config)
        assert path.read_bytes() == checkpoint_bytes(state, config)
        return path

    @pytest.mark.parametrize(
        "n", [1, CHECKPOINT_SLICE - 1, CHECKPOINT_SLICE, CHECKPOINT_SLICE + 1, 2 * CHECKPOINT_SLICE + 123]
    )
    def test_sampler_sizes_around_the_slice(self, tmp_path, n):
        config = TrainConfig(epochs=1, batch_size=1, mode="dro", seed=0)
        state = init_state(n, (2, 3, 2), config)
        snapshot = state.sampler.state_dict()
        snapshot["stale_losses"] = [self.STALE[i % len(self.STALE)] for i in range(n)]
        snapshot["draw_counts"] = [self.COUNTS[i % len(self.COUNTS)] for i in range(n)]
        state.sampler = HardnessWeightedSampler.from_state_dict(snapshot)
        path = self._assert_oracle_bytes(tmp_path, state, config)
        loaded = load_checkpoint(path, config)
        assert loaded.sampler.stale_losses.tobytes() == np.array(snapshot["stale_losses"]).tobytes()
        assert loaded.sampler.draw_counts.tolist() == snapshot["draw_counts"]

    def test_negative_init_loss(self, tmp_path):
        config = TrainConfig(epochs=1, batch_size=1, mode="dro", sampler=SamplerConfig(init_loss=-2.5), seed=0)
        self._assert_oracle_bytes(tmp_path, init_state(CHECKPOINT_SLICE + 5, (2, 3, 2), config), config)

    @pytest.mark.parametrize("mode", ["erm", "dro"])
    def test_trained_states(self, tmp_path, mode):
        dataset = _blob_dataset(40)
        config = TrainConfig(epochs=2, batch_size=8, mode=mode, seed=3)
        state = run_epochs(init_state(len(dataset), (2, 6, 2), config), dataset, config, 2)
        self._assert_oracle_bytes(tmp_path, state, config)

    def test_peak_memory_of_a_large_sampler(self, tmp_path):
        """A 50k-leaf sampler's checkpoint traces under 2 MiB; encoding its
        meta as one JSON string traced 6.9 MiB."""
        config = TrainConfig(epochs=1, batch_size=32, mode="dro", seed=0)
        state = init_state(50_000, (8, 32, 3), config)
        peak = _traced_peak(lambda: save_checkpoint(tmp_path / "fold_0.ckpt", state, config))
        assert peak < 2 * MiB


class TestScoreTablePeakMemory:
    def test_score_table_of_100k_rows(self):
        """The table of 100k unique ids traces under 5 MiB, its own three
        columns included; a list of row ints and a set of the ids traced
        12.1 MiB."""
        n = 100_000
        dataset = Dataset(
            np.zeros((n, 1)), np.zeros(n, dtype=np.int64), ["majority"] * n, [f"case_{i:06d}" for i in range(n)]
        )
        rows, values = np.arange(n), np.full(n, 0.5)
        tables = []
        peak = _traced_peak(lambda: tables.append(training._score_table(dataset, rows, values)))
        assert peak < 5 * MiB
        assert tables[0].case_ids == dataset.case_ids and tables[0].groups == dataset.groups


class TestCrashSafeWrites:
    """A write that fails part-way leaves the previous file and no temp file."""

    def test_failed_checkpoint_keeps_previous_file(self, tmp_path, monkeypatch):
        config = TrainConfig(epochs=1, batch_size=6, seed=0)
        state = init_state(30, (2, 4, 2), config)
        path = tmp_path / "fold_0.ckpt"
        save_checkpoint(path, state, config)
        before = path.read_bytes()

        def fail(params):
            raise RuntimeError("disk full")

        monkeypatch.setattr(training, "_params_blob", fail)
        state.epoch = 5
        with pytest.raises(RuntimeError, match="disk full"):
            save_checkpoint(path, state, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fold_0.ckpt"]

    def test_failed_score_table_write_keeps_previous_file(self, tmp_path):
        n = 3 * BLOCK_ROWS
        table = scores.ScoreTable.from_columns(
            [f"c{i}" for i in range(n)], ["g"] * n, [SCORE_REGION] * n, np.full(n, 0.5)
        )
        path = tmp_path / "scores.csv"
        scores.write_scores(table, path)
        before = path.read_bytes()

        class Unwritable:
            def __str__(self):
                raise RuntimeError("killed")

        # Rows of the first block are emitted before the second block fails.
        table.case_ids[BLOCK_ROWS + 3] = Unwritable()
        with pytest.raises(RuntimeError, match="killed"):
            scores.write_scores(table, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scores.csv"]

    def test_failed_dataset_write_keeps_previous_file(self, tmp_path):
        dataset = generate(SyntheticConfig(n_samples=3 * BLOCK_ROWS, n_features=4, n_classes=3), 1)
        path = tmp_path / "dataset.csv"
        write_csv(dataset, path)
        before = path.read_bytes()

        class Unwritable:
            def __str__(self):
                raise RuntimeError("killed")

        # Rows of the first block are emitted before the second block fails.
        dataset.case_ids[BLOCK_ROWS + 3] = Unwritable()
        with pytest.raises(RuntimeError, match="killed"):
            write_csv(dataset, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]
