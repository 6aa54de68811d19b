import numpy as np
import pytest

from gapnet.errors import GapnetError
from gapnet.metrics import (
    ConfusionMatrix,
    confusion,
    metrics,
    render_confusion_csv,
    render_confusion_svg,
)


def brute_force_metrics(preds, labels):
    """Independent per-pair recount, then the published formulas."""
    tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
    tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
    fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
    acc = (tp + tn) / len(preds)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return (tp, tn, fp, fn), (acc, prec, rec, f1)


def test_confusion_hand_counts():
    cm = confusion([1, 1, 1], [1, 1, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 0, 0, 0)
    cm = confusion([1, 1, 0, 0, 1, 0], [1, 0, 0, 0, 1, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 1, 1)
    with pytest.raises(GapnetError, match="no samples to score"):
        confusion([], [])
    with pytest.raises(GapnetError, match="1 predictions vs 2 labels"):
        confusion([1], [1, 0])


def loop_confusion(predictions, labels):
    """The per-sample branch loop ``confusion`` once was: the reference for its counts."""
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


def test_confusion_counts_match_the_loop():
    rng = np.random.default_rng(7)
    cases = [(np.zeros(9, np.int64), rng.integers(0, 2, 9)),  # no predicted positives
             (rng.integers(0, 2, 9), np.zeros(9, np.int64)),  # no positives
             (np.zeros(4, np.int64), np.zeros(4, np.int64)), (np.ones(3, np.int64), [1, 1, 1])]
    cases += [(rng.integers(0, 2, n), rng.integers(0, 2, n))
              for n in rng.integers(1, 200, 100)]
    for preds, labels in cases:
        want = loop_confusion(preds, labels)
        assert confusion(preds, labels) == want
        assert confusion(list(preds), list(labels)) == want
        assert type(confusion(preds, labels).tp) is int


def test_metric_formulas():
    vals = metrics(ConfusionMatrix(tp=2, tn=3, fp=1, fn=0))
    assert abs(vals["accuracy"] - 5 / 6) < 1e-12
    assert abs(vals["precision"] - 2 / 3) < 1e-12
    assert vals["recall"] == 1.0
    assert abs(vals["f1"] - 0.8) < 1e-12
    assert vals["undefined"] == []


def test_degenerate_ratios_flagged():
    vals = metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
    assert vals["precision"] == 0.0 and "precision" in vals["undefined"]
    assert "recall" in vals["undefined"] and "f1" in vals["undefined"]
    with pytest.raises(GapnetError, match="confusion matrix has no samples"):
        metrics(ConfusionMatrix())


def test_metrics_match_brute_force_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        cm = confusion(preds, labels)
        vals = metrics(cm)
        counts, (acc, prec, rec, f1) = brute_force_metrics(preds, labels)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == counts
        assert [vals[k] for k in ("accuracy", "precision", "recall", "f1")] == [acc, prec, rec, f1]


def test_metric_invariants():
    rng = np.random.default_rng(1)
    for _ in range(200):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 20, 4)))
        if cm.total == 0:
            continue
        vals = metrics(cm)
        assert 0.0 <= vals["accuracy"] <= 1.0
        assert (vals["accuracy"] == 1.0) == (cm.fp == 0 and cm.fn == 0)
        prec, rec = vals["precision"], vals["recall"]
        if prec + rec > 0:
            assert abs(vals["f1"] - 2 * prec * rec / (prec + rec)) < 1e-15
        # swapping the positive-class convention swaps counts, accuracy unchanged
        swapped = metrics(ConfusionMatrix(tp=cm.tn, tn=cm.tp, fp=cm.fn, fn=cm.fp))
        assert swapped["accuracy"] == vals["accuracy"]


def test_render_confusion():
    cm = ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)
    assert render_confusion_csv(cm) == "1,0\n0,1\n"
    cm = ConfusionMatrix(tp=40, tn=30, fp=10, fn=20)
    svg1 = render_confusion_svg(cm)
    svg2 = render_confusion_svg(cm)
    assert svg1 == svg2  # deterministic bytes
    assert "66.7%" in svg1  # tp row-normalized: 40 / 60

