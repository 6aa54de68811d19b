"""Confusion counts, the accuracy/precision/recall/F1 suite, and confusion artifacts.

The positive class is tumor (label 1). Ratios with a zero denominator
are reported as 0 and flagged in ``undefined`` so reports stay totally
ordered without NaNs.
"""

from dataclasses import dataclass

import numpy as np

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
    pos, tumor = np.asarray(predictions) == 1, np.asarray(labels) == 1
    return ConfusionMatrix(tp=int(np.sum(pos & tumor)), tn=int(np.sum(~pos & ~tumor)),
                           fp=int(np.sum(pos & ~tumor)), fn=int(np.sum(~pos & tumor)))


def metrics(cm):
    """{accuracy, precision, recall, f1, undefined} from the confusion counts;
    ``undefined`` lists the ratios whose denominator is zero."""
    if cm.total == 0:
        raise GapnetError("confusion matrix has no samples")
    undefined = []

    def ratio(name, num, den):
        if den > 0:
            return num / den
        undefined.append(name)
        return 0.0

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    recall = ratio("recall", cm.tp, cm.tp + cm.fn)
    f1 = ratio("f1", 2.0 * precision * recall, precision + recall)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1,
            "undefined": undefined}


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

