"""Confusion counts, the accuracy/precision/recall/F1 suite, and report artifacts.

The positive class is tumor (label 1). Ratios with a zero denominator
are reported as 0 and flagged in ``undefined`` so reports stay totally
ordered without NaNs.
"""

import json
from dataclasses import dataclass, field

from .errors import GapnetError


@dataclass
class ConfusionMatrix:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def confusion(predictions, labels):
    if len(predictions) != len(labels):
        raise GapnetError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not len(predictions):
        raise GapnetError("no samples to score")
    cm = ConfusionMatrix()
    for pred, label in zip(predictions, labels):
        if label == 1:
            if pred == 1:
                cm.tp += 1
            else:
                cm.fn += 1
        else:
            if pred == 1:
                cm.fp += 1
            else:
                cm.tn += 1
    return cm


@dataclass
class MetricValues:
    accuracy: float
    precision: float
    recall: float
    f1: float
    undefined: list = field(default_factory=list)


def metrics(cm):
    """Accuracy, precision, recall, F1 from the confusion counts."""
    if cm.total == 0:
        raise GapnetError("confusion matrix has no samples")
    undefined = []
    accuracy = (cm.tp + cm.tn) / cm.total
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
        undefined.append("precision")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
        undefined.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        undefined.append("f1")
    return MetricValues(accuracy, precision, recall, f1, undefined)


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix
    seconds_per_epoch: float
    test_ms_per_image: float
    model: str
    config_fingerprint: str
    seed: int
    undefined_metrics: list = field(default_factory=list)

    def to_json(self):
        obj = {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": {"TP": self.confusion.tp, "TN": self.confusion.tn,
                          "FP": self.confusion.fp, "FN": self.confusion.fn},
            "seconds_per_epoch": self.seconds_per_epoch,
            "test_ms_per_image": self.test_ms_per_image,
            "model": self.model,
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
            "undefined_metrics": self.undefined_metrics,
        }
        return json.dumps(obj, indent=2) + "\n"


def build_report(cm, model_name, fingerprint, seed, seconds_per_epoch=0.0,
                 test_ms_per_image=0.0):
    vals = metrics(cm)
    return MetricsReport(
        accuracy=vals.accuracy, precision=vals.precision, recall=vals.recall,
        f1=vals.f1, confusion=cm, seconds_per_epoch=seconds_per_epoch,
        test_ms_per_image=test_ms_per_image, model=model_name,
        config_fingerprint=fingerprint, seed=seed, undefined_metrics=vals.undefined,
    )


# ------------------------------------------------------- artifacts

def render_confusion_csv(cm):
    """Counts laid out [actual x predicted], positives first."""
    return f"{cm.tp},{cm.fn}\n{cm.fp},{cm.tn}\n"


def _row_pct(a, b):
    total = a + b
    return (100.0 * a / total, 100.0 * b / total) if total else (0.0, 0.0)


def render_confusion_svg(cm):
    """Deterministic 2x2 grid with counts and row-normalized percentages."""
    tp_pct, fn_pct = _row_pct(cm.tp, cm.fn)
    fp_pct, tn_pct = _row_pct(cm.fp, cm.tn)
    cells = [
        (60, 40, cm.tp, tp_pct), (180, 40, cm.fn, fn_pct),
        (60, 140, cm.fp, fp_pct), (180, 140, cm.tn, tn_pct),
    ]
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="320" height="280">',
             '<text x="150" y="20" text-anchor="middle">predicted: tumor | no tumor</text>',
             '<text x="20" y="150" text-anchor="middle" transform="rotate(-90 20 150)">'
             'actual: tumor | no tumor</text>']
    for x, y, count, pct in cells:
        parts.append(f'<rect x="{x}" y="{y}" width="110" height="90" '
                     'fill="none" stroke="black"/>')
        parts.append(f'<text x="{x + 55}" y="{y + 40}" text-anchor="middle">{count}</text>')
        parts.append(f'<text x="{x + 55}" y="{y + 62}" text-anchor="middle">{pct:.1f}%</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

