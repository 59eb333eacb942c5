"""Fine-tuning loop, optimizer, schedules, evaluation, LR sweep, replicates.

The protocol: AdamW (beta1 0.9, beta2 0.999) on the freeze policy's trainable
set, ReduceLROnPlateau on validation mIoU (patience 4, factor 0.5), early
stopping after 15 epochs without improvement, up to 100 epochs, best-epoch
weights kept. A sweep trial is that fit alone, ranked by its best validation
mIoU, with no best-epoch restore and no test or GHOS pass. Runs are
deterministic given the seed; the wall-clock column in the history is the only
non-reproducible field.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, functional as F, no_grad
from .backbone import BackboneConfig
from .data import DatasetManifest, IGNORE_INDEX, normalize, reflect_pad_to, subset_bands
from .decoders import DecoderConfig
from .errors import ConfigError, DataError, TrainingDivergedError
from .metrics import ConfusionMatrix, miou, per_class_iou, pixel_accuracy
from .model import SegmentationModel, build_model
from .peft import LoraConfig, VitAdapterConfig, VptConfig, count_parameters, normalize_policy


@dataclass(frozen=True)
class RunConfig:
    backbone: BackboneConfig
    decoder: DecoderConfig
    manifest: DatasetManifest
    method: str = "full_finetune"
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 100
    early_stop_patience: int = 15
    plateau_patience: int = 4
    plateau_factor: float = 0.5
    weight_decay: float = 0.05
    seed: int = 0
    bands: tuple[str, ...] | None = None
    lora: LoraConfig | None = None
    vpt: VptConfig | None = None
    adapter: VitAdapterConfig | None = None

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight decay must be non-negative and finite, got {self.weight_decay}")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not 0 < self.plateau_factor < 1:
            raise ConfigError(f"plateau factor must lie in (0, 1), got {self.plateau_factor}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch size and max epochs must be >= 1")
        normalize_policy(self.method)
        if self.bands is not None:
            object.__setattr__(self, "bands", tuple(self.bands))


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled weight decay; touches only the tensors it was given."""

    def __init__(self, named_params, lr: float, weight_decay: float = 0.05):
        self.params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, t in self.params:
            g = t.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * t.data
            t.data -= (self.lr * update).astype(t.data.dtype)


class EarlyStopping:
    """Track the best metric (maximized) and the epoch it came from; signal a
    stop after ``patience`` consecutive epochs without improvement."""

    def __init__(self, patience: int = 15):
        self.patience = patience
        self.best = None
        self.best_epoch = 0
        self.epochs = 0
        self.bad_epochs = 0

    def step(self, metric: float) -> bool:
        self.epochs += 1
        if self.best is None or metric > self.best:
            self.best = metric
            self.best_epoch = self.epochs
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience


class ReduceOnPlateau(EarlyStopping):
    """Multiply the optimizer LR by ``factor`` after ``patience`` consecutive
    epochs without metric improvement, then start counting again."""

    def __init__(self, optimizer: AdamW, patience: int = 4, factor: float = 0.5):
        super().__init__(patience)
        self.optimizer = optimizer
        self.factor = factor

    def step(self, metric: float) -> bool:
        if not super().step(metric):
            return False
        self.optimizer.lr *= self.factor
        self.bad_epochs = 0
        return True


@dataclass
class RunResult:
    best_epoch: int
    best_val_miou: float
    history: list[dict]
    final_metrics: dict[str, dict]
    wall_seconds: float
    parameter_report: object
    model: SegmentationModel


HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss", "val_miou", "lr", "seconds")


def write_history_csv(history: list[dict], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"],
                             *(f"{row[c]:.10g}" for c in HISTORY_COLUMNS[1:])])


class SplitView:
    """A split's samples, read when indexed: each read loads one sample,
    normalizes it, cuts it to ``bands`` (None keeps all) and reflect-pads it
    to ``pad_to``. Nothing is kept, so a pass holds only what its caller does."""

    def __init__(self, manifest: DatasetManifest, split: str, bands, pad_to):
        self.ids = manifest.split_ids(split)
        if not self.ids:
            raise DataError(f"split {split!r} is empty")
        self.manifest = manifest
        self.bands = None if bands is None else tuple(bands)
        self.pad_to = tuple(pad_to)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int):
        sample = normalize(self.manifest.load_sample(self.ids[i]), self.manifest.band_stats)
        if self.bands is not None and self.bands != sample.bands:
            sample = subset_bands(sample, self.bands)
        if sample.mask.shape != self.pad_to:
            sample = reflect_pad_to(sample, self.pad_to)
        return sample

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def load_split(manifest: DatasetManifest, split: str, bands, pad_to) -> list:
    """Every sample of a split, read now: the ``SplitView`` listed."""
    return list(SplitView(manifest, split, bands, pad_to))


def batches(indices, batch_size):
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]


def assemble_batch(samples, idx) -> list:
    """Stack one batch: [images, masks, metadata arrays, the batch's band order].

    A list, so a forward's caller can hand the images on as ``batch.pop(0)``:
    a temporary argument that the model frees once its stem has run, where a
    name in the caller's frame would keep the batch alive to the end."""
    batch = [samples[i] for i in idx]
    band_orders = {s.bands for s in batch}
    if len(band_orders) != 1:
        raise DataError(f"batch mixes band orders {sorted(band_orders)}")
    images = np.stack([s.image for s in batch])
    masks = np.stack([s.mask for s in batch])  # the samples' own integer dtype
    meta = {key: np.array([getattr(s, key) for s in batch])
            for key in ("lat", "lon", "day_of_year", "year")}
    return [images, masks, meta, band_orders.pop()]


def _frozen_features(model: SegmentationModel, samples, batch_size: int) -> list | None:
    """What ``model.encode`` returns, one array per head input with a row per
    sample, or None while any backbone tensor trains.

    A frozen encoder gives an image the same bits in any batch, so encoding
    each sample once under ``no_grad`` and taking a batch's rows later is exact.
    """
    if any(t.requires_grad for _, t in model.backbone.named_parameters()):
        return None
    chunks = []
    with no_grad():
        for idx in batches(list(range(len(samples))), batch_size):
            batch = assemble_batch(samples, idx)
            _, meta, bands = batch[1:]
            chunks.append([t.data for t in model.encode(batch.pop(0), bands, meta)])
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _batch_loss(model: SegmentationModel, samples, features, idx, training: bool):
    """(logits, masks, loss, n_valid) of one batch: the head on the cached encoder
    output when ``features`` holds it, else the full forward; ``loss`` is the mean
    over the ``n_valid`` labelled pixels, or None when there are none."""
    batch = assemble_batch(samples, idx)  # also rejects mixed band orders
    masks, meta, bands = batch[1:]
    if features is None:
        logits = model.forward(batch.pop(0), bands=bands, meta=meta, training=training)
    else:
        logits = model.head([Tensor(a[idx]) for a in features], training)
    n_valid = int((masks != IGNORE_INDEX).sum())
    loss = F.cross_entropy(logits, masks, ignore_index=IGNORE_INDEX) if n_valid else None
    return logits, masks, loss, n_valid


def _eval_batch(model: SegmentationModel, samples, features, idx, cm: ConfusionMatrix):
    """Count one batch into ``cm`` and return its (loss, n_valid); the batch's
    logits, masks and predictions die with this frame."""
    logits, masks, loss, n_valid = _batch_loss(model, samples, features, idx, False)
    cm.update(masks, logits.data.argmax(axis=1), ignore_index=IGNORE_INDEX)
    return loss, n_valid


def _eval_pass(model: SegmentationModel, samples, batch_size: int, num_classes: int,
               features=None) -> tuple[float, ConfusionMatrix]:
    """(mean loss, confusion matrix) of one forward-only pass over ``samples``,
    a list or a ``SplitView``, one batch alive at a time."""
    cm = ConfusionMatrix(num_classes)
    loss_total = 0.0
    weight_total = 0
    with no_grad():
        for idx in batches(list(range(len(samples))), batch_size):
            loss, n_valid = _eval_batch(model, samples, features, idx, cm)
            if loss is not None:
                loss_total += loss.item() * n_valid
                weight_total += n_valid
    return loss_total / max(weight_total, 1), cm


def _metrics(loss: float, cm: ConfusionMatrix) -> dict:
    """The metrics row of one evaluation pass."""
    return {
        "miou": miou(cm),
        "per_class_iou": per_class_iou(cm).tolist(),
        "pixel_accuracy": pixel_accuracy(cm),
        "loss": loss,
        "confusion": cm.matrix.tolist(),
    }


def evaluate(model: SegmentationModel, manifest: DatasetManifest, split: str,
             batch_size: int = 8, bands=None) -> dict:
    """Confusion-matrix metrics over a whole split, read one batch at a time
    through a ``SplitView``, so memory does not grow with the split."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if model.decoder_cfg.num_classes != manifest.num_classes:
        raise ConfigError(f"model has {model.decoder_cfg.num_classes} classes, "
                          f"dataset has {manifest.num_classes}")
    samples = SplitView(manifest, split, bands, model.backbone.cfg.image_size)
    return _metrics(*_eval_pass(model, samples, batch_size, manifest.num_classes))


class _Fit:
    """A run between epochs: the checked config, samples, model, frozen-feature
    caches, AdamW, plateau scheduler, early stopper, shuffle RNG, history, and the
    last epoch's validation pass as (val_loss, confusion matrix)."""

    def __init__(self, cfg: RunConfig):
        manifest = cfg.manifest
        if manifest.num_classes != cfg.decoder.num_classes:
            raise ConfigError(f"decoder expects {cfg.decoder.num_classes} classes, "
                              f"dataset has {manifest.num_classes}")
        self.cfg = cfg
        self.train_samples = load_split(manifest, "train", cfg.bands, cfg.backbone.image_size)
        if all((s.mask == IGNORE_INDEX).all() for s in self.train_samples):
            raise DataError("split 'train' has no labelled pixel")
        self.val_samples = load_split(manifest, "val", cfg.bands, cfg.backbone.image_size)
        self.model = build_model(cfg.backbone, cfg.decoder, cfg.method, seed=cfg.seed,
                                 lora_cfg=cfg.lora, vpt_cfg=cfg.vpt, adapter_cfg=cfg.adapter)
        self.train_features = _frozen_features(self.model, self.train_samples, cfg.batch_size)
        self.val_features = _frozen_features(self.model, self.val_samples, cfg.batch_size)
        self.optimizer = AdamW(list(self.model.trainable_parameters()), lr=cfg.learning_rate,
                               weight_decay=cfg.weight_decay)
        self.scheduler = ReduceOnPlateau(self.optimizer, cfg.plateau_patience, cfg.plateau_factor)
        self.stopper = EarlyStopping(patience=cfg.early_stop_patience)
        self.shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17]))
        self.history: list[dict] = []
        self.done = False

    def step(self) -> dict:
        """Run the next epoch, append its history row and return it; ``done``
        turns true once early stopping fires or the epoch budget is spent."""
        cfg, model, optimizer = self.cfg, self.model, self.optimizer
        epoch = len(self.history) + 1
        t_epoch = time.perf_counter()
        order = self.shuffle_rng.permutation(len(self.train_samples)).tolist()
        loss_total = 0.0
        weight_total = 0
        for batch_no, idx in enumerate(batches(order, cfg.batch_size)):
            _, _, loss, n_valid = _batch_loss(model, self.train_samples, self.train_features,
                                              idx, True)
            if loss is None:  # a batch with no labelled pixel takes no step
                continue
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at epoch {epoch}, batch {batch_no}",
                    epoch=epoch, batch=batch_no)
            optimizer.zero_grad()
            backward(loss)
            bad = next((name for name, t in optimizer.params
                        if t.grad is not None and not np.isfinite(t.grad).all()), None)
            if bad is not None:
                raise TrainingDivergedError(
                    f"non-finite gradient for {bad} at epoch {epoch}, batch {batch_no}",
                    epoch=epoch, batch=batch_no)
            optimizer.step()
            loss_total += loss_value * n_valid
            weight_total += n_valid

        val_loss, cm = _eval_pass(model, self.val_samples, cfg.batch_size,
                                  cfg.manifest.num_classes, self.val_features)
        row = {
            "epoch": epoch,
            "train_loss": loss_total / max(weight_total, 1),
            "val_loss": val_loss,
            "val_miou": miou(cm),
            "lr": optimizer.lr,
            "seconds": time.perf_counter() - t_epoch,
        }
        self.history.append(row)
        self.val_pass = (val_loss, cm)
        self.done = self.stopper.step(row["val_miou"]) or epoch == cfg.max_epochs
        self.scheduler.step(row["val_miou"])
        return row


def train(cfg: RunConfig, verbose: bool = False) -> RunResult:
    """Run the full fine-tuning protocol and return the best-epoch model; its
    validation metrics are that epoch's own pass, kept with its weights."""
    fit = _Fit(cfg)
    t_start = time.perf_counter()
    while not fit.done:
        row = fit.step()
        if fit.stopper.best_epoch == row["epoch"]:
            best_state, best_val = fit.model.snapshot(), fit.val_pass
        if verbose:
            print(f"epoch {row['epoch']:3d}  train {row['train_loss']:.4f}  "
                  f"val {row['val_loss']:.4f}  mIoU {row['val_miou']:.2f}  lr {row['lr']:.2e}")

    model, manifest = fit.model, cfg.manifest
    model.load_state_dict(best_state)
    final = {"val": _metrics(*best_val)}
    for split in ("test", "ghos"):
        if manifest.has_split(split):
            final[split] = evaluate(model, manifest, split, cfg.batch_size, cfg.bands)

    return RunResult(
        best_epoch=fit.stopper.best_epoch,
        best_val_miou=fit.stopper.best,
        history=fit.history,
        final_metrics=final,
        wall_seconds=time.perf_counter() - t_start,
        parameter_report=count_parameters(model),
        model=model,
    )


def lr_search(cfg: RunConfig, trials: int = 16, lr_range=(1e-5, 1e-2),
              budget_epochs: int = 10, seed: int = 0) -> tuple[float, list[dict]]:
    """Log-uniform random sweep of fit-only trials, which copy no weights;
    the best validation mIoU wins."""
    if trials < 1:
        raise ConfigError("need at least one trial")
    lo, hi = lr_range
    if not 0 < lo <= hi:
        raise ConfigError(f"invalid lr range {lr_range}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    rates = np.exp(rng.uniform(np.log(lo), np.log(hi), size=trials))
    table = []
    for trial, lr in enumerate(rates):
        fit = _Fit(replace(cfg, learning_rate=float(lr), max_epochs=budget_epochs))
        while not fit.done:
            fit.step()
        table.append({"trial": trial, "lr": float(lr), "val_miou": fit.stopper.best})
    best = max(table, key=lambda row: row["val_miou"])
    return best["lr"], table


@dataclass
class ReplicateResult:
    per_seed: list[RunResult]
    seeds: list[int]
    aggregates: dict[str, dict] = field(default_factory=dict)

    def rows(self) -> list[dict]:
        return [{"metric": name, "mean": agg["mean"], "std": agg["std"], "values": agg["values"]}
                for name, agg in self.aggregates.items()]


def aggregate_values(values) -> dict:
    values = [float(v) for v in values]
    arr = np.array(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(values) > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std, "values": values}


def run_replicates(cfg: RunConfig, seeds=(0, 1, 2, 3, 4)) -> ReplicateResult:
    """Repeat the run across seeds and aggregate mean +/- unbiased std."""
    seeds = list(seeds)
    results = [train(replace(cfg, seed=s)) for s in seeds]
    aggregates = {}
    for split in ("val", "test", "ghos"):
        values = [r.final_metrics[split]["miou"] for r in results if split in r.final_metrics]
        if values:
            aggregates[f"{split}_miou"] = aggregate_values(values)
    aggregates["best_epoch"] = aggregate_values([r.best_epoch for r in results])
    return ReplicateResult(per_seed=results, seeds=seeds, aggregates=aggregates)
