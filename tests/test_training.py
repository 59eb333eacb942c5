"""Training protocol: schedule state machines, determinism, learning sanity."""

from dataclasses import replace

import numpy as np
import pytest

from peftseg.autodiff import Tensor
from peftseg.decoders import DecoderConfig
from peftseg.data import normalize, subset_bands
from peftseg.errors import ConfigError, DataError, TrainingDivergedError
from peftseg.model import build_model
from peftseg.synthetic import SyntheticConfig, generate_synthetic
from peftseg.training import (AdamW, EarlyStopping, ReduceOnPlateau, RunConfig,
                              aggregate_values, assemble_batch, evaluate, lr_search,
                              run_replicates, train, write_history_csv)

from conftest import tiny_backbone


@pytest.fixture(scope="module")
def mini_manifest(tmp_path_factory):
    cfg = SyntheticConfig(regions=("p", "q", "h"), samples_per_region=10,
                          ghos_samples=4, extent=32, seed=13)
    return generate_synthetic(cfg, tmp_path_factory.mktemp("mini"))


def mini_run(manifest, **overrides) -> RunConfig:
    bb = tiny_backbone(image=(32, 32))
    base = RunConfig(backbone=bb, decoder=DecoderConfig("linear", 2), manifest=manifest,
                     method="full_finetune", learning_rate=3e-3, batch_size=4,
                     max_epochs=5, seed=0)
    return replace(base, **overrides)


# ---------------------------------------------------------------------------
# schedule state machines (pure, scripted sequences)


class _FakeOpt:
    def __init__(self, lr):
        self.lr = lr


def test_plateau_trace_on_monotone_degradation():
    # degradation from epoch 1: reductions land after epochs 5 and 9
    opt = _FakeOpt(1.0)
    sched = ReduceOnPlateau(opt, patience=4, factor=0.5)
    lrs = []
    for epoch, metric in enumerate([50.0, 49, 48, 47, 46, 45, 44, 43, 42, 41], start=1):
        sched.step(metric)
        lrs.append((epoch, opt.lr))
    assert lrs[3] == (4, 1.0)
    assert lrs[4] == (5, 0.5)
    assert lrs[7] == (8, 0.5)
    assert lrs[8] == (9, 0.25)


def test_plateau_resets_on_improvement():
    opt = _FakeOpt(1.0)
    sched = ReduceOnPlateau(opt, patience=2, factor=0.5)
    for metric in [10.0, 9.0, 11.0, 10.5, 11.5]:
        sched.step(metric)
    assert opt.lr == 1.0  # never two consecutive bad epochs thanks to new bests
    sched.step(11.0)
    sched.step(11.2)
    assert opt.lr == 0.5


def test_early_stop_after_15_bad_epochs():
    stopper = EarlyStopping(patience=15)
    assert stopper.step(50.0) is False
    outcomes = [stopper.step(50.0 - i) for i in range(1, 16)]
    assert outcomes[:-1] == [False] * 14
    assert outcomes[-1] is True


def test_early_stop_counter_resets():
    stopper = EarlyStopping(patience=3)
    seq = [1.0, 0.9, 0.8, 1.1, 1.0, 0.9, 0.8]
    outcomes = [stopper.step(m) for m in seq]
    assert outcomes == [False, False, False, False, False, False, True]


def test_schedulers_share_metric_independently():
    # LR halves twice before the early stop fires
    opt = _FakeOpt(1.0)
    sched = ReduceOnPlateau(opt, patience=4, factor=0.5)
    stopper = EarlyStopping(patience=15)
    stopped_at = None
    for epoch in range(1, 40):
        metric = 100.0 - epoch
        sched.step(metric)
        if stopper.step(metric):
            stopped_at = epoch
            break
    assert stopped_at == 16
    assert opt.lr == pytest.approx(1.0 / 8)  # reductions at epochs 5, 9, 13


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_moves_only_given_params():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW([("a", a)], lr=0.1)
    a.grad = np.ones(3, dtype=np.float32)
    b.grad = np.ones(3, dtype=np.float32)
    opt.step()
    assert not np.array_equal(a.data, np.ones(3))
    assert np.array_equal(b.data, np.ones(3))


def test_adamw_decoupled_weight_decay_shrinks_without_gradient_signal():
    p = Tensor(np.full(4, 10.0, dtype=np.float32), requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(4, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, np.full(4, 10.0 - 0.1 * 0.5 * 10.0), rtol=1e-6)


def test_adamw_first_step_size_is_lr():
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    opt = AdamW([("p", p)], lr=0.01, weight_decay=0.0)
    p.grad = np.array([1.0, -3.0], dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-4)


# ---------------------------------------------------------------------------
# the loop


def test_same_seed_identical_history(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=3)
    a = train(cfg)
    b = train(cfg)
    for ra, rb in zip(a.history, b.history):
        assert ra["train_loss"] == rb["train_loss"]
        assert ra["val_loss"] == rb["val_loss"]
        assert ra["val_miou"] == rb["val_miou"]
        assert ra["lr"] == rb["lr"]


def test_different_seed_different_history(mini_manifest):
    a = train(mini_run(mini_manifest, max_epochs=2, seed=0))
    b = train(mini_run(mini_manifest, max_epochs=2, seed=1))
    assert a.history[0]["train_loss"] != b.history[0]["train_loss"]


def test_loss_decreases_on_separable_data(mini_manifest):
    result = train(mini_run(mini_manifest, max_epochs=5))
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_loss_decreases_for_every_peft_method(mini_manifest):
    from peftseg.peft import VitAdapterConfig
    for method in ("full_finetune", "linear_probe", "lora", "vpt", "vit_adapter"):
        cfg = mini_run(mini_manifest, method=method, max_epochs=5)
        cfg = replace(cfg, adapter=VitAdapterConfig(channels=(16, 16, 16)))
        result = train(cfg)
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"], method


def test_best_checkpoint_is_max_val_miou(mini_manifest):
    result = train(mini_run(mini_manifest, max_epochs=5))
    best = max(result.history, key=lambda row: row["val_miou"])
    assert result.best_epoch == best["epoch"]
    assert result.best_val_miou == best["val_miou"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_loss_aborts_with_context(mini_manifest):
    cfg = mini_run(mini_manifest, learning_rate=1e6, max_epochs=8)
    with pytest.raises(TrainingDivergedError) as err:
        train(cfg)
    assert err.value.epoch is not None and err.value.batch is not None


def test_non_finite_gradient_aborts_before_the_step(mini_manifest, monkeypatch):
    from peftseg import training
    built, poisoned, real_backward = [], [], training.backward

    def capture_model(*args, **kwargs):
        built.append(build_model(*args, **kwargs))
        return built[-1]

    def poisoned_backward(loss):
        grads = real_backward(loss)
        name, tensor = list(built[0].trainable_parameters())[-1]
        tensor.grad[(0,) * tensor.grad.ndim] = np.nan
        poisoned.append((name, tensor.data.copy()))
        return grads

    monkeypatch.setattr(training, "build_model", capture_model)
    monkeypatch.setattr(training, "backward", poisoned_backward)
    with pytest.raises(TrainingDivergedError) as err:
        train(mini_run(mini_manifest))
    (name, before), = poisoned
    assert f"non-finite gradient for {name} " in str(err.value)
    assert (err.value.epoch, err.value.batch) == (1, 0)
    params = dict(built[0].trainable_parameters())
    np.testing.assert_array_equal(params[name].data, before)  # no step was taken


def test_empty_train_split_rejected(mini_manifest):
    import copy
    manifest = copy.copy(mini_manifest)
    manifest.splits = {sid: ("val" if s in ("train", "val") else s)
                       for sid, s in mini_manifest.splits.items()}
    with pytest.raises(DataError):
        train(mini_run(manifest))


def test_class_count_mismatch_rejected(mini_manifest):
    cfg = mini_run(mini_manifest)
    cfg = replace(cfg, decoder=DecoderConfig("linear", 5))
    with pytest.raises(ConfigError):
        train(cfg)


def test_invalid_run_config_values():
    bb = tiny_backbone()
    with pytest.raises(ConfigError):
        RunConfig(backbone=bb, decoder=DecoderConfig("linear", 2), manifest=None,
                  learning_rate=0.0)
    with pytest.raises(ConfigError):
        RunConfig(backbone=bb, decoder=DecoderConfig("linear", 2), manifest=None,
                  plateau_factor=1.5)


def test_history_csv_layout(tmp_path, mini_manifest):
    result = train(mini_run(mini_manifest, max_epochs=2))
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_miou,lr,seconds"
    assert len(lines) == 3


def test_metadata_enabled_training_runs(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=2)
    cfg = replace(cfg, backbone=tiny_backbone(image=(32, 32), metadata=True))
    result = train(cfg)
    assert len(result.history) == 2
    meta_names = [n for n, t in result.model.named_parameters()
                  if n.startswith("encoder.meta.")]
    assert meta_names and all(t.requires_grad for n, t in result.model.named_parameters()
                              if n.startswith("encoder.meta."))


def test_evaluate_smaller_extent_padded(mini_manifest):
    """Samples narrower than the model extent are reflect-padded; padding is
    ignore-labeled so it never enters the confusion matrix."""
    cfg = mini_run(mini_manifest, max_epochs=1)
    cfg = replace(cfg, backbone=tiny_backbone(image=(40, 40)))
    result = train(cfg)
    metrics = evaluate(result.model, mini_manifest, "val", batch_size=4)
    assert 0 <= metrics["miou"] <= 100


def test_band_subset_order_does_not_matter(mini_manifest):
    """Subsets keep the dataset's channel order, so a subset named in either
    order pairs each channel with its own patch-embedding slab."""
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2),
                        "full_finetune", seed=0)
    a = evaluate(model, mini_manifest, "val", batch_size=4, bands=("swir1", "red"))
    b = evaluate(model, mini_manifest, "val", batch_size=4, bands=("red", "swir1"))
    assert a == b


def test_batch_mixing_band_orders_rejected(mini_manifest):
    sid = mini_manifest.split_ids("train")[0]
    sample = normalize(mini_manifest.load_sample(sid), mini_manifest.band_stats)
    samples = [sample, subset_bands(sample, ("red", "nir"))]
    assert assemble_batch(samples, [0], metadata=False)[3] == sample.bands
    with pytest.raises(DataError):
        assemble_batch(samples, [0, 1], metadata=False)


# ---------------------------------------------------------------------------
# sweep and replicates


def test_lr_search_single_trial_returns_it(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=1)
    best, table = lr_search(cfg, trials=1, lr_range=(1e-3, 1e-3), budget_epochs=1)
    assert best == pytest.approx(1e-3)
    assert len(table) == 1


def test_lr_search_deterministic(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=1)
    a = lr_search(cfg, trials=3, budget_epochs=1, seed=5)
    b = lr_search(cfg, trials=3, budget_epochs=1, seed=5)
    assert a == b


def test_lr_search_rates_within_range(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=1)
    _, table = lr_search(cfg, trials=4, lr_range=(1e-4, 1e-2), budget_epochs=1, seed=2)
    assert all(1e-4 <= row["lr"] <= 1e-2 for row in table)


def test_lr_search_close_to_grid_oracle(mini_manifest):
    """The random 16-trial sweep lands within 2 mIoU points of a small grid."""
    cfg = mini_run(mini_manifest, max_epochs=1)
    budget = 6
    best_lr, table = lr_search(cfg, trials=16, lr_range=(1e-4, 1e-2),
                               budget_epochs=budget, seed=0)
    sweep_best = max(row["val_miou"] for row in table)
    grid_scores = []
    for lr in np.geomspace(1e-4, 1e-2, 5):
        result = train(replace(cfg, learning_rate=float(lr), max_epochs=budget))
        grid_scores.append(result.best_val_miou)
    assert sweep_best >= max(grid_scores) - 2.0


def test_replicates_identical_seeds_zero_std(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=2)
    result = run_replicates(cfg, seeds=(3, 3))
    assert result.aggregates["val_miou"]["std"] == 0.0


def test_aggregate_closed_form():
    agg = aggregate_values([1, 2, 3, 4, 5])
    assert agg["mean"] == 3.0
    assert agg["std"] == pytest.approx(1.5811, abs=1e-4)


def test_replicates_aggregate_schema_and_permutation_invariance(mini_manifest):
    cfg = mini_run(mini_manifest, max_epochs=2)
    fwd = run_replicates(cfg, seeds=(0, 1, 2))
    rev = run_replicates(cfg, seeds=(2, 1, 0))
    for row in fwd.rows():
        assert set(row) == {"metric", "mean", "std", "values"}
    for key in fwd.aggregates:
        assert fwd.aggregates[key]["mean"] == pytest.approx(rev.aggregates[key]["mean"])
        assert fwd.aggregates[key]["std"] == pytest.approx(rev.aggregates[key]["std"])
