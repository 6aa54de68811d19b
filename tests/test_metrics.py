import json

import numpy as np
import pytest

from gapnet.errors import EmptyInput, EmptyMatrix, LengthMismatch
from gapnet.metrics import (
    ConfusionMatrix,
    build_report,
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
    with pytest.raises(EmptyInput):
        confusion([], [])
    with pytest.raises(LengthMismatch):
        confusion([1], [1, 0])


def test_metric_formulas():
    vals = metrics(ConfusionMatrix(tp=2, tn=3, fp=1, fn=0))
    assert abs(vals.accuracy - 5 / 6) < 1e-12
    assert abs(vals.precision - 2 / 3) < 1e-12
    assert vals.recall == 1.0
    assert abs(vals.f1 - 0.8) < 1e-12
    assert vals.undefined == []


def test_degenerate_ratios_flagged():
    vals = metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=0))
    assert vals.precision == 0.0 and "precision" in vals.undefined
    assert "recall" in vals.undefined and "f1" in vals.undefined
    with pytest.raises(EmptyMatrix):
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
        assert (vals.accuracy, vals.precision, vals.recall, vals.f1) == (acc, prec, rec, f1)


def test_metric_invariants():
    rng = np.random.default_rng(1)
    for _ in range(200):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 20, 4)))
        if cm.total == 0:
            continue
        vals = metrics(cm)
        assert 0.0 <= vals.accuracy <= 1.0
        assert (vals.accuracy == 1.0) == (cm.fp == 0 and cm.fn == 0)
        if vals.precision + vals.recall > 0:
            expected = 2 * vals.precision * vals.recall / (vals.precision + vals.recall)
            assert abs(vals.f1 - expected) < 1e-15
        # swapping the positive-class convention swaps counts, accuracy unchanged
        swapped = metrics(ConfusionMatrix(tp=cm.tn, tn=cm.tp, fp=cm.fn, fn=cm.fp))
        assert swapped.accuracy == vals.accuracy


def test_report_fields_recompute(tmp_path):
    cm = ConfusionMatrix(tp=12, tn=30, fp=2, fn=1)
    report = build_report(cm, "dfn", "abc123", seed=7,
                          seconds_per_epoch=1.5, test_ms_per_image=19.0)
    obj = json.loads(report.to_json())
    assert obj["confusion"] == {"TP": 12, "TN": 30, "FP": 2, "FN": 1}
    assert abs(obj["accuracy"] - 42 / 45) < 1e-9
    assert abs(obj["precision"] - 12 / 14) < 1e-9
    assert abs(obj["recall"] - 12 / 13) < 1e-9
    assert obj["model"] == "dfn" and obj["seed"] == 7
    assert obj["config_fingerprint"] == "abc123"


def test_render_confusion():
    cm = ConfusionMatrix(tp=1, tn=1, fp=0, fn=0)
    assert render_confusion_csv(cm) == "1,0\n0,1\n"
    cm = ConfusionMatrix(tp=40, tn=30, fp=10, fn=20)
    svg1 = render_confusion_svg(cm)
    svg2 = render_confusion_svg(cm)
    assert svg1 == svg2  # deterministic bytes
    assert "66.7%" in svg1  # tp row-normalized: 40 / 60

