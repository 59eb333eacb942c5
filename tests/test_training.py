"""Training protocol: schedule state machines, determinism, learning sanity."""

from dataclasses import replace

import numpy as np
import pytest

from peftseg.autodiff import Tensor, no_grad
from peftseg.decoders import DecoderConfig
from peftseg.data import IGNORE_INDEX, normalize, subset_bands
from peftseg.errors import ConfigError, DataError, MetricError, ShapeError, TrainingDivergedError
from peftseg.model import build_model
from peftseg.synthetic import SyntheticConfig, generate_synthetic
from peftseg.training import (ADAM_EPS, BETA1, BETA2, AdamW, EarlyStopping, ReduceOnPlateau, RunConfig,
                              aggregate_values, assemble_batch, evaluate, lr_search,
                              run_replicates, train, write_history_csv)

from conftest import tiny_backbone, traced_peak, with_split


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


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_keeps_the_bits_of_the_textbook_formula(dtype, weight_decay):
    """The in-place update equals the reference expression, one temporary per
    operation, bit for bit over several steps."""
    rng = np.random.default_rng(3)
    start = rng.normal(size=(37, 11)).astype(dtype)
    grads = [rng.normal(size=start.shape).astype(dtype) for _ in range(5)]
    p = Tensor(start.copy(), requires_grad=True)
    opt = AdamW([("p", p)], lr=3e-3, weight_decay=weight_decay)
    want, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for step, g in enumerate(grads, start=1):
        p.grad = g
        opt.step()
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        update = (m / (1.0 - BETA1 ** step)) / (np.sqrt(v / (1.0 - BETA2 ** step)) + ADAM_EPS)
        if weight_decay:
            update = update + weight_decay * want
        want -= (3e-3 * update).astype(dtype)
        assert p.data.dtype == dtype and p.data.tobytes() == want.tobytes(), step


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


def test_final_val_metrics_are_the_best_epochs_pass(mini_manifest):
    """final_metrics["val"] is the best epoch's own validation pass, and the
    restored weights reproduce it."""
    result = train(mini_run(mini_manifest, max_epochs=5, early_stop_patience=2))
    row = result.history[result.best_epoch - 1]
    final = result.final_metrics["val"]
    assert final["loss"] == row["val_loss"]
    assert final["miou"] == row["val_miou"]
    assert evaluate(result.model, mini_manifest, "val", batch_size=4) == final


def test_one_validation_pass_per_epoch(mini_manifest, monkeypatch):
    from peftseg import training
    val_ids = mini_manifest.split_ids("val")
    passes, real_eval_pass = [], training._eval_pass

    def counting(model, samples, *args):
        passes.append([s.sample_id for s in samples] == val_ids)
        return real_eval_pass(model, samples, *args)

    monkeypatch.setattr(training, "_eval_pass", counting)
    result = train(mini_run(mini_manifest, max_epochs=3))
    assert passes == [True] * len(result.history) + [False, False]  # then test and ghos


# ---------------------------------------------------------------------------
# the frozen-encoder cache


def _encode_counts(events):
    """Encoder calls (before the first step, after it outside evaluate(),
    inside evaluate()) in a recorded event list."""
    first = events.index("step")
    depth, outside, inside = 0, 0, 0
    for event in events[first:]:
        depth += {"evaluate": 1, "done": -1}.get(event, 0)
        if event == "encode":
            inside += depth > 0
            outside += depth == 0
    return events[:first].count("encode"), outside, inside


@pytest.mark.parametrize("method", ["linear_probe", "lora"])
def test_frozen_encoder_runs_once_per_sample(mini_manifest, monkeypatch, method):
    from peftseg import training
    from peftseg.backbone import ViTBackbone
    events = []
    real_stem, real_backward, real_evaluate = ViTBackbone.stem, training.backward, evaluate

    def stem(self, *args, **kwargs):  # once per encoder pass
        events.append("encode")
        return real_stem(self, *args, **kwargs)

    def step(loss):
        events.append("step")
        return real_backward(loss)

    def evaluating(*args, **kwargs):
        events.append("evaluate")
        out = real_evaluate(*args, **kwargs)
        events.append("done")
        return out

    monkeypatch.setattr(ViTBackbone, "stem", stem)
    monkeypatch.setattr(training, "backward", step)
    monkeypatch.setattr(training, "evaluate", evaluating)
    result = train(mini_run(mini_manifest, method=method, max_epochs=3))
    n = {split: -(-len(mini_manifest.split_ids(split)) // 4)
         for split in ("train", "val", "test", "ghos")}
    per_epoch = n["train"] + n["val"]
    held_out = n["test"] + n["ghos"]
    if method == "linear_probe":
        assert _encode_counts(events) == (per_epoch, 0, held_out)
    else:
        assert _encode_counts(events) == (1, len(result.history) * per_epoch - 1, held_out)


def _frozen_model(kind, method):
    from peftseg.peft import VitAdapterConfig
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig(kind, 2), method,
                        adapter_cfg=VitAdapterConfig(channels=(16, 16, 16)))
    for _, t in model.backbone.named_parameters():  # a frozen adapter also feeds the cache
        t.requires_grad = False
    return model


@pytest.mark.parametrize("kind,method", [("linear", "linear_probe"), ("unet", "linear_probe"),
                                         ("unet", "vit_adapter")])
def test_head_on_cached_taps_equals_forward(mini_manifest, kind, method):
    from peftseg.training import _batch_loss, _frozen_features, load_split
    model = _frozen_model(kind, method)
    samples = load_split(mini_manifest, "train", None, (32, 32))
    features = _frozen_features(model, samples, 5)
    idx = [7, 0, 11, 3]
    logits, masks, _, _ = _batch_loss(model, samples, features, idx, False)
    images, _, meta, bands = assemble_batch(samples, idx)
    with no_grad():
        expected = model.forward(images, bands=bands, meta=meta, training=False)
    assert np.array_equal(logits.data, expected.data)


@pytest.mark.parametrize("kind,method,n_arrays", [("linear", "linear_probe", 1),
                                                  ("unet", "linear_probe", 4),
                                                  ("unet", "vit_adapter", 2),
                                                  ("linear", "vit_adapter", 1)])
def test_cache_holds_one_array_per_head_input(mini_manifest, kind, method, n_arrays):
    """Row i of each cached array is bit-equal to encoding sample i alone: the
    final tap for a single-scale head, the four taps for a pyramid head, the
    final tap and the adapter tokens for a pyramid head over an adapter."""
    from peftseg.training import _frozen_features, load_split
    model = _frozen_model(kind, method)
    samples = load_split(mini_manifest, "train", None, (32, 32))
    features = _frozen_features(model, samples, 4)
    assert len(features) == n_arrays
    assert all(len(a) == len(samples) for a in features)
    with no_grad():
        for i in range(len(samples)):
            images, _, meta, bands = assemble_batch(samples, [i])
            tokens, adapter_tokens = model.backbone.stem(images, bands, meta)
            taps = model.backbone.forward_features(tokens, adapter_tokens)
            if kind == "linear":
                alone = [taps[-1]]
            elif adapter_tokens is not None:
                alone = [taps[-1], adapter_tokens]
            else:
                alone = taps
            assert all(np.array_equal(a[i], b.data[0]) for a, b in zip(features, alone))


@pytest.mark.parametrize("kind", ["linear", "upernet"])
def test_linear_probe_cache_keeps_training_bits(mini_manifest, monkeypatch, kind):
    from peftseg import training
    cfg = mini_run(mini_manifest, method="linear_probe", decoder=DecoderConfig(kind, 2),
                   learning_rate=2e-2, max_epochs=3)
    cached = train(cfg)
    monkeypatch.setattr(training, "_frozen_features", lambda *args: None)
    uncached = train(cfg)
    strip = [{k: v for k, v in row.items() if k != "seconds"} for row in cached.history]
    assert strip == [{k: v for k, v in row.items() if k != "seconds"} for row in uncached.history]
    assert cached.final_metrics == uncached.final_metrics
    theirs = uncached.model.state_dict()
    assert all(np.array_equal(a, theirs[name]) for name, a in cached.model.state_dict().items())


# ---------------------------------------------------------------------------
# ignore-labelled masks


def _blank_masks(manifest, root, blank_ids):
    """A copy of ``manifest`` under ``root`` whose ``blank_ids`` masks are all ignore."""
    import copy
    out = copy.copy(manifest)
    out.root = root
    for info in manifest.samples:
        sample = manifest.load_sample(info.sample_id)
        if info.sample_id in blank_ids:
            sample = replace(sample, mask=np.full_like(sample.mask, IGNORE_INDEX))
        out.save_sample(sample)
    return out


def test_all_ignored_batch_leaves_out_its_loss_term(mini_manifest, tmp_path):
    from peftseg.training import _eval_pass, _metrics, load_split
    val_ids = mini_manifest.split_ids("val")
    manifest = _blank_masks(mini_manifest, tmp_path, val_ids[:2])
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "linear_probe")
    rest = load_split(mini_manifest, "val", None, (32, 32))[2:]
    assert evaluate(model, manifest, "val", batch_size=2) == _metrics(*_eval_pass(model, rest, 2, 2))
    result = train(mini_run(manifest, method="linear_probe", batch_size=2, max_epochs=1))
    assert np.isfinite(result.history[0]["val_loss"])


def test_split_without_a_labelled_pixel_raises_metric_error(mini_manifest, tmp_path):
    manifest = _blank_masks(mini_manifest, tmp_path, set(mini_manifest.split_ids("val")))
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "linear_probe")
    with pytest.raises(MetricError):
        evaluate(model, manifest, "val", batch_size=2)
    with pytest.raises(MetricError):
        train(mini_run(manifest, max_epochs=1))


def test_all_ignored_training_batch_takes_no_step(mini_manifest, tmp_path, monkeypatch):
    from peftseg import training
    train_ids = mini_manifest.split_ids("train")
    manifest = _blank_masks(mini_manifest, tmp_path, train_ids[:4])
    steps, real_backward = [], training.backward

    def counting(loss):
        steps.append(1)
        return real_backward(loss)

    monkeypatch.setattr(training, "backward", counting)
    result = train(mini_run(manifest, method="linear_probe", batch_size=1, max_epochs=2))
    assert all(np.isfinite(v) for row in result.history for v in row.values())
    assert len(steps) == len(result.history) * (len(train_ids) - 4)


def test_train_split_without_a_labelled_pixel_raises_data_error(mini_manifest, tmp_path):
    manifest = _blank_masks(mini_manifest, tmp_path, set(mini_manifest.split_ids("train")))
    with pytest.raises(DataError, match="'train'"):
        train(mini_run(manifest, method="linear_probe", max_epochs=1))


@pytest.mark.parametrize("field,value", [("lat", np.nan), ("lon", np.nan),
                                         ("day_of_year", np.nan), ("year", np.inf)])
def test_non_finite_sample_metadata_raises_shape_error(mini_manifest, tmp_path, field, value):
    """One test sample's sidecar holds a non-finite metadata value; with metadata
    on, evaluation stops instead of scoring the NaN logits it would make."""
    import copy
    manifest = copy.copy(mini_manifest)
    manifest.root = tmp_path
    bad = mini_manifest.split_ids("test")[0]
    for info in mini_manifest.samples:
        sample = mini_manifest.load_sample(info.sample_id)
        manifest.save_sample(replace(sample, **{field: value}) if info.sample_id == bad else sample)
    model = build_model(tiny_backbone(image=(32, 32), metadata=True), DecoderConfig("linear", 2),
                        "lora")
    with pytest.raises(ShapeError, match="finite"):
        evaluate(model, manifest, "test")


@pytest.fixture(scope="module")
def cropped_manifest(mini_manifest, tmp_path_factory):
    """mini_manifest with samples cropped to 20-32 pixels a side, so reflect
    padding to 32x32 ignores a different pixel count in each sample."""
    import copy
    manifest = copy.copy(mini_manifest)
    manifest.root = tmp_path_factory.mktemp("cropped")
    for k, info in enumerate(mini_manifest.samples):
        sample = mini_manifest.load_sample(info.sample_id)
        side = 32 - 4 * (k % 4)
        manifest.save_sample(replace(sample, image=sample.image[:, :side, :side],
                                     mask=sample.mask[:side, :side]))
    return manifest


def test_train_loss_is_pixel_weighted(cropped_manifest, monkeypatch):
    """train_loss weights each batch's mean loss by its valid pixels, as
    val_loss does, so ignored padding counts for nothing."""
    from peftseg.autodiff import functional as F
    seen, real_cross_entropy = [], F.cross_entropy

    def recording(logits, masks, **kwargs):
        loss = real_cross_entropy(logits, masks, **kwargs)
        seen.append((loss.item(), int((masks != IGNORE_INDEX).sum()), len(masks)))
        return loss

    monkeypatch.setattr(F, "cross_entropy", recording)
    result = train(mini_run(cropped_manifest, max_epochs=1))
    n_batches = -(-len(cropped_manifest.split_ids("train")) // 4)
    losses, pixels, sizes = map(np.array, zip(*seen[:n_batches]))
    per_pixel = (losses * pixels).sum() / pixels.sum()
    assert per_pixel != pytest.approx((losses * sizes).sum() / sizes.sum(), rel=1e-9)
    assert result.history[0]["train_loss"] == pytest.approx(per_pixel, rel=1e-12)


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


def test_evaluate_checks_the_class_count_before_reading_a_sample(mini_manifest, monkeypatch):
    from peftseg.data import DatasetManifest
    reads, real_load = [], DatasetManifest.load_sample

    def counting(self, sample_id):
        reads.append(sample_id)
        return real_load(self, sample_id)

    monkeypatch.setattr(DatasetManifest, "load_sample", counting)
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 5), "linear_probe")
    with pytest.raises(ConfigError, match="5 classes"):
        evaluate(model, mini_manifest, "val")
    assert reads == []


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_a_batch_size_below_one_before_reading_a_sample(mini_manifest, monkeypatch,
                                                                          batch_size):
    """0 used to die in ``range()``; -1 read no batch and raised a MetricError."""
    from peftseg.data import DatasetManifest
    reads, real_load = [], DatasetManifest.load_sample

    def counting(self, sample_id):
        reads.append(sample_id)
        return real_load(self, sample_id)

    monkeypatch.setattr(DatasetManifest, "load_sample", counting)
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "linear_probe")
    with pytest.raises(ConfigError, match="batch size"):
        evaluate(model, mini_manifest, "val", batch_size=batch_size)
    assert reads == []


def test_evaluate_names_an_empty_split_and_a_corrupt_sample(mini_manifest, tmp_path):
    import copy
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "linear_probe")
    with pytest.raises(DataError, match="split 'test' is empty"):
        evaluate(model, with_split(mini_manifest, "val", 4), "test")
    manifest = copy.copy(mini_manifest)
    manifest.root = tmp_path
    for info in mini_manifest.samples:
        manifest.save_sample(mini_manifest.load_sample(info.sample_id))
    bad = mini_manifest.split_ids("test")[-1]
    img_path = manifest._paths(bad)[0]
    img_path.write_bytes(img_path.read_bytes()[:-4])
    with pytest.raises(DataError, match=repr(bad)):
        evaluate(model, manifest, "test", batch_size=2)


def test_evaluate_memory_does_not_grow_with_the_split(stream_manifest):
    """Four batches peak less than one batch of images above one batch: the
    split is read a batch at a time, and each batch's arrays are freed before
    the next batch loads."""
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "lora")
    batch = 8
    one, four = (with_split(stream_manifest, "test", n) for n in (batch, 4 * batch))
    growth = (traced_peak(lambda: evaluate(model, four, "test", batch))
              - traced_peak(lambda: evaluate(model, one, "test", batch)))
    assert growth < batch * 6 * 32 * 32 * 4


@pytest.mark.parametrize("path", ["evaluate", "split_embeddings"])
def test_the_batch_is_freed_before_the_first_block(mini_manifest, monkeypatch, path):
    """A forward-only pass hands the stacked images to the model as a
    temporary, so they are freed once the stem has run."""
    import weakref
    from peftseg import diagnostics, training
    from peftseg.backbone import TransformerBlock
    stacked, alive = [], []
    real_assemble, real_block = training.assemble_batch, TransformerBlock.__call__

    def assemble(samples, idx):
        batch = real_assemble(samples, idx)
        stacked.append(weakref.ref(batch[0]))
        return batch

    def block(self, *args, **kwargs):
        alive.append(stacked[-1]() is not None)
        return real_block(self, *args, **kwargs)

    for module in (training, diagnostics):
        monkeypatch.setattr(module, "assemble_batch", assemble)
    monkeypatch.setattr(TransformerBlock, "__call__", block)
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "lora")
    if path == "evaluate":
        evaluate(model, mini_manifest, "test", batch_size=4)
    else:
        diagnostics.split_embeddings(model, mini_manifest, "test")
    assert stacked and alive and not any(alive)


def test_masks_keep_the_samples_dtype(mini_manifest):
    from peftseg.training import load_split
    samples = load_split(mini_manifest, "val", None, (32, 32))
    assert assemble_batch(samples, [0, 1])[1].dtype == np.uint8


def test_invalid_run_config_values():
    bb = tiny_backbone()
    with pytest.raises(ConfigError):
        RunConfig(backbone=bb, decoder=DecoderConfig("linear", 2), manifest=None,
                  learning_rate=0.0)
    with pytest.raises(ConfigError):
        RunConfig(backbone=bb, decoder=DecoderConfig("linear", 2), manifest=None,
                  plateau_factor=1.5)


@pytest.mark.parametrize("field,value", [("weight_decay", -1.0),
                                         ("learning_rate", float("nan")),
                                         ("learning_rate", float("inf"))])
def test_non_finite_or_negative_optimizer_values_rejected(field, value):
    with pytest.raises(ConfigError):
        RunConfig(backbone=tiny_backbone(), decoder=DecoderConfig("linear", 2), manifest=None,
                  **{field: value})


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
    assert assemble_batch(samples, [0])[3] == sample.bands
    with pytest.raises(DataError):
        assemble_batch(samples, [0, 1])


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


def test_lr_search_trial_is_the_fit_alone(mini_manifest, monkeypatch):
    """A trial runs no test or GHOS pass and copies no weights, and its score
    is the bits of the best validation mIoU that ``train()`` reaches at the
    same rate and budget."""
    from peftseg import training
    from peftseg.model import SegmentationModel

    def refuse(what):
        def run(*args, **kwargs):
            raise AssertionError(f"lr_search ran {what}")
        return run

    monkeypatch.setattr(training, "evaluate", refuse("evaluate()"))
    monkeypatch.setattr(SegmentationModel, "snapshot", refuse("snapshot()"))
    cfg = mini_run(mini_manifest)
    _, table = lr_search(cfg, trials=3, budget_epochs=2, seed=4)
    monkeypatch.undo()
    assert len(table) == 3
    for row in table:
        result = train(replace(cfg, learning_rate=row["lr"], max_epochs=2))
        assert row["val_miou"] == result.best_val_miou


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
