"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import time

import numpy as np
import pytest

from gapnet import kernels
from gapnet.cli import main
from gapnet.data import ManifestRecord, load_manifest, save_manifest, split
from gapnet.metrics import confusion, metrics
from gapnet.nn import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    ReLU,
    Sequential,
    Sigmoid,
)
from gapnet.pipeline import Model, ModelSpec, decide
from gapnet.tensor import mean_over_spatial
from gapnet.train import (
    Dataset,
    EarlyStopState,
    TrainConfig,
    early_stop_update,
    lr_on_plateau,
    train_loop,
    write_epoch_csv,
)
from gradcheck import gradient_check
from synth import as_model_input, as_records, blob_dataset

HEADS = ("dfn", "fcnn", "cnn1d")


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------------ 1

B = 3  # rows per checked batch: every layer takes a leading batch axis

LAYER_TABLE = {
    "dense": (lambda r: Sequential([Dense(4, 3, r)]),
              lambda r: r.standard_normal((B, 4))),
    "conv1d": (lambda r: Sequential([Conv1D(2, 3, r)]),
               lambda r: r.standard_normal((B, 8))),
    "conv2d": (lambda r: Sequential([Conv2D(2, 3, 2, 2, 1, r)]),
               lambda r: r.standard_normal((B, 4, 4, 2))),
    "gap": (lambda r: Sequential([GlobalAvgPool()]),
            lambda r: r.standard_normal((B, 3, 3, 2))),
    "sigmoid": (lambda r: Sequential([Sigmoid()]),
                lambda r: r.standard_normal((B, 5))),
    # keep relu inputs clear of the kink so h=1e-3 differences stay one-sided
    "relu": (lambda r: Sequential([ReLU()]),
             lambda r: r.uniform(0.1, 1.0, (B, 6)) * r.choice([-1.0, 1.0], (B, 6))),
    "dropout": (None, lambda r: r.standard_normal((B, 6))),
}


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for offset, (name, (build, make_x)) in enumerate(LAYER_TABLE.items()):
        for i in range(20):
            r = np.random.default_rng(1000 * offset + i)
            if name == "dropout":
                layer = Dropout(0.5, seed=i)
                layer.fixed_mask = r.random((B, 6)) >= 0.5
                frag = Sequential([layer])
            else:
                frag = build(r)
            x = make_x(r).astype(np.float32)
            rep = gradient_check(frag, x, tolerance=1e-3, abs_tol=1e-4, h=1e-3,
                                 rng=np.random.default_rng(i))
            assert rep.passed, (name, i, rep.per_param)
            assert "input" in rep.per_param, (name, i)
            worst = max(worst, rep.max_mixed_error)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (gradient fidelity)", elapsed < 30.0,
           f"7 layer types x 20 instances of {B}-row batches, worst mixed error {worst:.2e}, "
           f"{elapsed:.1f}s (< 30s)")


# ------------------------------------------------------------------ 2

def brute_gap(x):
    h, w, c = x.shape
    out = np.zeros(c)
    for i in range(h):
        for j in range(w):
            for k in range(c):
                out[k] += float(x[i, j, k])
    return out / (h * w)


def brute_conv1d(x, kern, b):
    n, k = len(x), len(kern)
    return np.array([sum(float(kern[j]) * float(x[t + j]) for j in range(k)) + b
                     for t in range(n - k + 1)])


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        shape = tuple(int(v) for v in rng.integers(1, 5, 3))
        x = rng.standard_normal(shape).astype(np.float32)
        assert np.allclose(mean_over_spatial(x), brute_gap(x), atol=1e-6)
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(1, n + 1))
        x = rng.standard_normal(n).astype(np.float32)
        kern = rng.standard_normal(k).astype(np.float32)
        b = float(rng.standard_normal())
        out = kernels.conv1d_forward(x, kern.reshape(1, -1), np.array([b], np.float32))
        assert np.allclose(out[0], brute_conv1d(x, kern, b), atol=1e-6)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        cm = confusion(preds, labels)
        tp = sum(p == 1 and y == 1 for p, y in zip(preds, labels))
        tn = sum(p == 0 and y == 0 for p, y in zip(preds, labels))
        fp = sum(p == 1 and y == 0 for p, y in zip(preds, labels))
        fn = sum(p == 0 and y == 1 for p, y in zip(preds, labels))
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
        vals = metrics(cm)
        assert vals.accuracy == (tp + tn) / n  # bitwise: same int operands
        assert vals.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert vals.recall == (tp / (tp + fn) if tp + fn else 0.0)
        pr = vals.precision + vals.recall
        assert vals.f1 == (2 * vals.precision * vals.recall / pr if pr else 0.0)
    elapsed = time.perf_counter() - t0
    report("criterion 2 (oracle equivalence)", elapsed < 10.0,
           f"GAP/conv1d within 1e-6 and metrics bitwise over 1000 instances each, "
           f"{elapsed:.1f}s (< 10s)")


# ------------------------------------------------------------------ 3

def test_criterion_3_overfit_single_sample():
    t0 = time.perf_counter()
    model = Model(ModelSpec(head_input_channels=64), seed=5)
    x = np.random.default_rng(6).standard_normal((7, 7, 64)).astype(np.float32)
    z = model.encode(x)  # the GAP vector every epoch trains on
    ds = Dataset(train=[(z, 1)] * 32, val=[(z, 1)])
    config = TrainConfig(seed=7, learning_rate=1e-4, max_epochs=200,
                         early_stop_patience=200)
    result = train_loop(model, ds, config)
    hit = next((e.epoch for e in result.epochs if e.train_acc == 1.0), None)
    elapsed = time.perf_counter() - t0
    report("criterion 3 (overfit check)", hit is not None and elapsed < 60.0,
           f"train accuracy 1.0 at epoch {hit} (<= 200), lr 1e-4, {elapsed:.1f}s (< 60s)")


# ------------------------------------------------------------------ 4 and 6

def run_synthetic_end_to_end(tmp_path, tag):
    """400 seeded blob/noise images -> frozen toy backbone + GAP -> three heads."""
    samples = blob_dataset(n_subjects=40, per_subject=10, size=224, seed=123)
    records = split(as_records(samples), (0.8, 0.2), seed=31, level="subject")
    specs = {h: ModelSpec(backbone="toy_cnn", head_input_channels=16, classifier=h)
             for h in HEADS}
    models = {h: Model(specs[h], seed=5) for h in HEADS}
    # all models share seed 5, so one frozen prefix (backbone + GAP) serves them all
    encode = models["dfn"].encode
    ds = Dataset()
    for rec, (_, label, img) in zip(records, samples):
        getattr(ds, rec.split).append((encode(as_model_input(img)), label))

    out = {}
    for head in HEADS:
        config = TrainConfig(seed=5, learning_rate=3e-3, batch_size=32, max_epochs=30)
        result = train_loop(models[head], ds, config)
        csv_path = tmp_path / f"{tag}_{head}.csv"
        write_epoch_csv(result.epochs, csv_path)
        out[head] = (max(e.val_acc for e in result.epochs), len(result.epochs),
                     csv_path.read_text())
    return out


@pytest.fixture(scope="module")
def first_e2e_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    runs = run_synthetic_end_to_end(tmp, "a")
    return runs, time.perf_counter() - t0, tmp


def test_criterion_4_synthetic_end_to_end(first_e2e_run):
    runs, elapsed, _ = first_e2e_run
    ok = all(best >= 0.95 for best, _, _ in runs.values()) and elapsed < 600.0
    detail = ", ".join(f"{h} val acc {best:.3f} in {n} epochs"
                       for h, (best, n, _) in runs.items())
    report("criterion 4 (synthetic end-to-end)", ok, f"{detail}, {elapsed:.0f}s (< 600s)")


def strip_timing(csv_text):
    return "\n".join(",".join(line.split(",")[:6]) for line in csv_text.splitlines())


def test_criterion_6_determinism(first_e2e_run):
    runs_a, _, tmp = first_e2e_run
    runs_b = run_synthetic_end_to_end(tmp, "b")
    same = all(strip_timing(runs_a[h][2]) == strip_timing(runs_b[h][2]) for h in HEADS)
    report("criterion 6 (determinism)", same,
           "two seeded single-threaded runs give bitwise-identical epoch CSVs "
           "(timing column excluded)")


# ------------------------------------------------------------------ 5

def test_criterion_5_balancing_arithmetic(tmp_path):
    t0 = time.perf_counter()
    recs = [ManifestRecord(f"t{i}", f"t{i}.pgm", 1, f"ts{i % 63}") for i in range(3671)]
    recs += [ManifestRecord(f"n{i}", f"n{i}.pgm", 0, f"ns{i % 146}") for i in range(13273)]
    mock = tmp_path / "mock.jsonl"
    save_manifest(recs, mock)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"balanced_{run}.jsonl"
        rc = main(["prepare", str(mock), str(out), "--seed", "17",
                   "--balance-to", "13252", "--manifest-only"])
        assert rc == 0
        outs.append(out)
    records = load_manifest(outs[0])
    tumor = sum(r.label == 1 for r in records)
    clean = sum(r.label == 0 for r in records)
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    elapsed = time.perf_counter() - t0
    ok = tumor == 13252 and clean == 13273 and identical and elapsed < 5.0
    report("criterion 5 (balancing arithmetic)", ok,
           f"3671/13273 -> {tumor}/{clean} after augmentation, deterministic={identical}, "
           f"{elapsed:.1f}s (< 5s)")


# ------------------------------------------------------------------ 7

def test_criterion_7_decision_rule():
    ulp_down = np.nextafter(0.5, 0.0)
    ulp_up = np.nextafter(0.5, 1.0)
    grid = [0.0, ulp_down, 0.5, ulp_up, 1.0]
    got = [decide(p, 0.5) for p in grid]
    report("criterion 7 (decision rule)", got == [0, 0, 0, 1, 1],
           f"p in {{0, 0.5-ulp, 0.5, 0.5+ulp, 1}} -> {got}")


# ------------------------------------------------------------------ 8

def test_criterion_8_policy_traces():
    config = TrainConfig(seed=1, learning_rate=1e-4, lr_plateau_patience=3)
    lr_ok = (lr_on_plateau([1.0, 0.9, 0.8], config) == 1e-4
             and lr_on_plateau([1.0, 1.0, 1.0, 1.0], config) == 5e-5)

    state = EarlyStopState()
    decisions = [early_stop_update(state, loss, patience=5)
                 for loss in [0.5, 0.6, 0.6, 0.6, 0.6, 0.6]]
    stop_ok = decisions.index("stop") == 5 and state.best_val_loss == 0.5

    report("criterion 8 (early-stop/scheduler traces)", lr_ok and stop_ok,
           f"lr halved to {lr_on_plateau([1.0] * 4, config):.0e} after epoch 4; "
           f"stop at epoch 6 with restored loss {state.best_val_loss}")
