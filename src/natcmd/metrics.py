"""Confusion matrices and the six evaluation metrics.

Metrics: training time, accuracy (correct / total), macro precision, macro
recall, F1 (harmonic mean, 2PR/(P+R)), and mean per-input prediction time.
Macro averages are unweighted over classes; a class with a zero denominator
contributes 0 and still counts toward the mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .classifiers import GestureModel, predict_batch
from .dataset import LabeledDataset
from .errors import MetricError


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """K x K counts; rows index the true label, columns the predicted one."""

    counts: np.ndarray
    label_set: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.label_set)
        if counts.shape != (k, k):
            raise MetricError(f"counts must be ({k}, {k}), got {counts.shape}")
        if np.any(counts < 0):
            raise MetricError("confusion counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "label_set", tuple(self.label_set))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(true_labels, predicted_labels, label_set) -> ConfusionMatrix:
    true_labels = list(true_labels)
    predicted_labels = list(predicted_labels)
    if len(true_labels) != len(predicted_labels):
        raise MetricError(
            f"{len(true_labels)} true labels vs {len(predicted_labels)} predictions"
        )
    label_set = tuple(label_set)
    k = len(label_set)
    index = {label: i for i, label in enumerate(label_set)}
    n = len(true_labels)
    t = np.fromiter(map(index.get, true_labels, repeat(-1)), dtype=np.int64, count=n)
    p = np.fromiter(map(index.get, predicted_labels, repeat(-1)), dtype=np.int64, count=n)
    bad = (t < 0) | (p < 0)
    if bad.any():
        i = int(bad.argmax())
        unknown = true_labels[i] if t[i] < 0 else predicted_labels[i]
        raise MetricError(f"label {unknown!r} not in label_set")
    counts = np.bincount(t * k + p, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(counts=counts, label_set=label_set)


def _require_nonempty(cm: ConfusionMatrix) -> None:
    if cm.total == 0:
        raise MetricError("metric undefined for an empty confusion matrix")


def accuracy(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    return float(np.trace(cm.counts)) / cm.total


def macro_precision(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    diag = np.diag(cm.counts).astype(np.float64)
    col_sums = cm.counts.sum(axis=0).astype(np.float64)
    per_class = np.divide(diag, col_sums, out=np.zeros_like(diag), where=col_sums > 0)
    return float(per_class.mean())


def macro_recall(cm: ConfusionMatrix) -> float:
    _require_nonempty(cm)
    diag = np.diag(cm.counts).astype(np.float64)
    row_sums = cm.counts.sum(axis=1).astype(np.float64)
    per_class = np.divide(diag, row_sums, out=np.zeros_like(diag), where=row_sums > 0)
    return float(per_class.mean())


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    f1: float
    mean_prediction_time_ms: float
    confusion: ConfusionMatrix
    training_time_ms: float | None = None  # None for methods with no training


def evaluate_model(model: GestureModel, test: LabeledDataset) -> EvaluationReport:
    """Run the model over a held-out dataset and compute every metric."""
    if len(test) == 0:
        raise MetricError("evaluation dataset is empty")
    unknown = set(test.label_set) - set(model.label_set)
    if unknown:
        raise MetricError(f"test labels unknown to the model: {sorted(unknown)}")
    predictions = predict_batch(model, test.frames)
    cm = confusion_matrix(
        test.labels, [p.label for p in predictions], model.label_set
    )
    p = macro_precision(cm)
    r = macro_recall(cm)
    return EvaluationReport(
        accuracy=accuracy(cm),
        macro_precision=p,
        macro_recall=r,
        f1=f1(p, r),
        # predict_batch charges each frame the batch time divided by N
        mean_prediction_time_ms=predictions[0].elapsed_ms,
        confusion=cm,
        training_time_ms=model.training_time_ms,
    )


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready form: the six metrics plus the confusion matrix as nested ints."""
    doc = {
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "f1": report.f1,
        "mean_prediction_time_ms": report.mean_prediction_time_ms,
        "labels": list(report.confusion.label_set),
        "confusion": report.confusion.counts.tolist(),
    }
    if report.training_time_ms is not None:
        doc["training_time_ms"] = report.training_time_ms
    return doc


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report))


def render_report(report: EvaluationReport) -> str:
    """Plain-text table of the metrics, for terminals."""
    rows = [
        ("accuracy", f"{report.accuracy:.4f}"),
        ("macro precision", f"{report.macro_precision:.4f}"),
        ("macro recall", f"{report.macro_recall:.4f}"),
        ("f1", f"{report.f1:.4f}"),
        ("mean prediction time", f"{report.mean_prediction_time_ms:.3f} ms"),
    ]
    if report.training_time_ms is not None:
        rows.insert(0, ("training time", f"{report.training_time_ms:.1f} ms"))
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {value}" for name, value in rows]
    lines.append("")
    lines.append("confusion matrix (rows = true, columns = predicted):")
    labels = report.confusion.label_set
    label_w = max(len(x) for x in labels)
    col_w = max(5, *(len(x) for x in labels))
    header = " " * (label_w + 2) + " ".join(x.rjust(col_w) for x in labels)
    lines.append(header)
    for label, row in zip(labels, report.confusion.counts):
        cells = " ".join(str(int(v)).rjust(col_w) for v in row)
        lines.append(f"{label.ljust(label_w)}  {cells}")
    return "\n".join(lines)
