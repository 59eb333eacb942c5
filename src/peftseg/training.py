"""Fine-tuning loop, optimizer, schedules, evaluation, LR sweep, replicates.

The protocol: AdamW (beta1 0.9, beta2 0.999) on the freeze policy's trainable
set, ReduceLROnPlateau on validation mIoU (patience 4, factor 0.5), early
stopping after 15 epochs without improvement, up to 100 epochs, best-epoch
weights kept. Runs are deterministic given the seed; the wall-clock column in
the history is the only non-reproducible field.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import backward, functional as F, no_grad
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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not 0 < self.plateau_factor < 1:
            raise ConfigError(f"plateau factor must lie in (0, 1), got {self.plateau_factor}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch size and max epochs must be >= 1")
        normalize_policy(self.method)
        if self.bands is not None:
            object.__setattr__(self, "bands", tuple(self.bands))


class AdamW:
    """Decoupled weight decay; touches only the tensors it was given."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.05):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
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
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
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


def load_split(manifest: DatasetManifest, split: str, bands, pad_to) -> list:
    """Every sample of a split, normalized, cut to ``bands`` (None keeps all)
    and reflect-padded to ``pad_to``."""
    samples = []
    for sid in manifest.split_ids(split):
        sample = normalize(manifest.load_sample(sid), manifest.band_stats)
        if bands is not None and tuple(bands) != sample.bands:
            sample = subset_bands(sample, bands)
        if sample.mask.shape != tuple(pad_to):
            sample = reflect_pad_to(sample, pad_to)
        samples.append(sample)
    if not samples:
        raise DataError(f"split {split!r} is empty")
    return samples


def batches(indices, batch_size):
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]


def assemble_batch(samples, idx, metadata: bool):
    """Stack one batch: (images, masks, metadata or None, the batch's band order)."""
    batch = [samples[i] for i in idx]
    band_orders = {s.bands for s in batch}
    if len(band_orders) != 1:
        raise DataError(f"batch mixes band orders {sorted(band_orders)}")
    images = np.stack([s.image for s in batch])
    masks = np.stack([s.mask for s in batch]).astype(np.int64)
    meta = None
    if metadata:
        meta = {key: np.array([getattr(s, key) for s in batch])
                for key in ("lat", "lon", "day_of_year", "year")}
    return images, masks, meta, band_orders.pop()


def _eval_pass(model: SegmentationModel, samples, batch_size: int,
               num_classes: int) -> tuple[float, ConfusionMatrix]:
    cm = ConfusionMatrix(num_classes)
    loss_total = 0.0
    weight_total = 0
    metadata = model.backbone.cfg.metadata_enabled
    with no_grad():
        for idx in batches(list(range(len(samples))), batch_size):
            images, masks, meta, bands = assemble_batch(samples, idx, metadata)
            logits = model.forward(images, bands=bands, meta=meta, training=False)
            loss = F.cross_entropy(logits, masks, ignore_index=IGNORE_INDEX)
            n_valid = int((masks != IGNORE_INDEX).sum())
            loss_total += loss.item() * n_valid
            weight_total += n_valid
            pred = logits.data.argmax(axis=1)
            cm.update(masks, pred, ignore_index=IGNORE_INDEX)
    return loss_total / max(weight_total, 1), cm


def _split_metrics(model: SegmentationModel, samples, batch_size: int, num_classes: int) -> dict:
    """Confusion-matrix metrics over loaded samples."""
    loss, cm = _eval_pass(model, samples, batch_size, num_classes)
    return {
        "miou": miou(cm),
        "per_class_iou": per_class_iou(cm).tolist(),
        "pixel_accuracy": pixel_accuracy(cm),
        "loss": loss,
        "confusion": cm.matrix.tolist(),
    }


def evaluate(model: SegmentationModel, manifest: DatasetManifest, split: str,
             batch_size: int = 8, bands=None) -> dict:
    """Confusion-matrix metrics over a whole split."""
    samples = load_split(manifest, split, bands, model.backbone.cfg.image_size)
    if model.decoder_cfg.num_classes != manifest.num_classes:
        raise ConfigError(f"model has {model.decoder_cfg.num_classes} classes, "
                          f"dataset has {manifest.num_classes}")
    return _split_metrics(model, samples, batch_size, manifest.num_classes)


def train(cfg: RunConfig, verbose: bool = False) -> RunResult:
    """Run the full fine-tuning protocol and return the best-epoch model."""
    manifest = cfg.manifest
    if manifest.num_classes != cfg.decoder.num_classes:
        raise ConfigError(f"decoder expects {cfg.decoder.num_classes} classes, "
                          f"dataset has {manifest.num_classes}")
    train_samples = load_split(manifest, "train", cfg.bands, cfg.backbone.image_size)
    val_samples = load_split(manifest, "val", cfg.bands, cfg.backbone.image_size)

    model = build_model(cfg.backbone, cfg.decoder, cfg.method, seed=cfg.seed,
                        lora_cfg=cfg.lora, vpt_cfg=cfg.vpt, adapter_cfg=cfg.adapter)
    optimizer = AdamW(list(model.trainable_parameters()), lr=cfg.learning_rate,
                      weight_decay=cfg.weight_decay)
    scheduler = ReduceOnPlateau(optimizer, patience=cfg.plateau_patience, factor=cfg.plateau_factor)
    stopper = EarlyStopping(patience=cfg.early_stop_patience)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17]))
    metadata = cfg.backbone.metadata_enabled

    history: list[dict] = []
    t_start = time.perf_counter()

    for epoch in range(1, cfg.max_epochs + 1):
        t_epoch = time.perf_counter()
        order = shuffle_rng.permutation(len(train_samples)).tolist()
        loss_total = 0.0
        weight_total = 0
        for batch_no, idx in enumerate(batches(order, cfg.batch_size)):
            images, masks, meta, bands = assemble_batch(train_samples, idx, metadata)
            logits = model.forward(images, bands=bands, meta=meta, training=True)
            loss = F.cross_entropy(logits, masks, ignore_index=IGNORE_INDEX)
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
            loss_total += loss_value * len(idx)
            weight_total += len(idx)
        train_loss = loss_total / weight_total

        val_loss, cm = _eval_pass(model, val_samples, cfg.batch_size, manifest.num_classes)
        val_miou = miou(cm)
        lr_now = optimizer.lr
        history.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "val_miou": val_miou,
            "lr": lr_now,
            "seconds": time.perf_counter() - t_epoch,
        })
        if verbose:
            print(f"epoch {epoch:3d}  train {train_loss:.4f}  val {val_loss:.4f}  "
                  f"mIoU {val_miou:.2f}  lr {lr_now:.2e}")

        stop = stopper.step(val_miou)
        if stopper.best_epoch == epoch:
            best_state = model.snapshot()
        scheduler.step(val_miou)
        if stop:
            break

    model.restore(best_state)
    final = {"val": _split_metrics(model, val_samples, cfg.batch_size, manifest.num_classes)}
    if manifest.has_split("test"):
        final["test"] = evaluate(model, manifest, "test", cfg.batch_size, cfg.bands)
    if manifest.has_split("ghos"):
        final["ghos"] = evaluate(model, manifest, "ghos", cfg.batch_size, cfg.bands)

    return RunResult(
        best_epoch=stopper.best_epoch,
        best_val_miou=stopper.best,
        history=history,
        final_metrics=final,
        wall_seconds=time.perf_counter() - t_start,
        parameter_report=count_parameters(model),
        model=model,
    )


def lr_search(cfg: RunConfig, trials: int = 16, lr_range=(1e-5, 1e-2),
              budget_epochs: int = 10, seed: int = 0) -> tuple[float, list[dict]]:
    """Log-uniform random sweep; each trial is a shortened-budget run and the
    best validation mIoU wins."""
    if trials < 1:
        raise ConfigError("need at least one trial")
    lo, hi = lr_range
    if not 0 < lo <= hi:
        raise ConfigError(f"invalid lr range {lr_range}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    rates = np.exp(rng.uniform(np.log(lo), np.log(hi), size=trials))
    table = []
    for trial, lr in enumerate(rates):
        result = train(replace(cfg, learning_rate=float(lr), max_epochs=budget_epochs))
        table.append({"trial": trial, "lr": float(lr), "val_miou": result.best_val_miou})
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
