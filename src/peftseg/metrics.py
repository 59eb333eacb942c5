"""Segmentation metrics from an aggregated confusion matrix."""

from __future__ import annotations

import numpy as np

from .data import IGNORE_INDEX
from .errors import MetricError, ShapeError


class ConfusionMatrix:
    """K x K counts, rows = reference class, columns = predicted class.
    Ignore-labeled reference pixels are excluded entirely."""

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise MetricError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.matrix = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, reference: np.ndarray, prediction: np.ndarray,
               ignore_index: int = IGNORE_INDEX) -> None:
        reference = np.asarray(reference)
        prediction = np.asarray(prediction)
        if reference.shape != prediction.shape:
            raise ShapeError(f"reference {reference.shape} vs prediction {prediction.shape}")
        valid = reference != ignore_index
        ref = reference[valid].astype(np.int64)
        pred = prediction[valid].astype(np.int64)
        k = self.num_classes
        if ref.size and (ref.min() < 0 or ref.max() >= k):
            raise MetricError(f"reference ids outside [0, {k})")
        if pred.size and (pred.min() < 0 or pred.max() >= k):
            raise MetricError(f"prediction ids outside [0, {k})")
        self.matrix += np.bincount(ref * k + pred, minlength=k * k).reshape(k, k)

    def total(self) -> int:
        return int(self.matrix.sum())


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """IoU per class; NaN where the union is empty (class absent on both sides)."""
    m = cm.matrix.astype(np.float64)
    diag = np.diag(m)
    union = m.sum(axis=1) + m.sum(axis=0) - diag
    out = np.full(cm.num_classes, np.nan)
    present = union > 0
    out[present] = diag[present] / union[present]
    return out


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU in percent; classes with zero union are excluded from the mean."""
    ious = per_class_iou(cm)
    valid = ~np.isnan(ious)
    if not valid.any():
        raise MetricError("every class has zero union; nothing was evaluated")
    return float(ious[valid].mean() * 100.0)


def pixel_accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total()
    if total == 0:
        raise MetricError("confusion matrix is empty")
    return float(np.trace(cm.matrix) / total)
