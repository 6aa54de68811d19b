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
)
from gapnet.pipeline import Model, ModelSpec, decide
from gapnet.train import (
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
    # the model's last layer, checked through the BCE-on-logits objective
    "logit_bce": (lambda r: Sequential([Dense(4, 1, r)]),
                  lambda r: r.standard_normal((B, 4))),
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
            loss = "bce" if name == "logit_bce" else "proj"
            rep = gradient_check(frag, x, loss=loss, y=r.integers(0, 2, B), tolerance=1e-3,
                                 abs_tol=1e-4, h=1e-3, rng=np.random.default_rng(i))
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


def brute_conv2d(x, w, b, g, stride):
    """Explicit window loops over one (N, H, W, C) stack: the output, dL/dx, dW and db."""
    kh, kw = w.shape[:2]
    h2, w2 = g.shape[1:3]
    out = np.zeros(g.shape)
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    for n in range(x.shape[0]):
        for i in range(h2):
            for j in range(w2):
                rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
                window = x[n, rows, cols, :, None]
                out[n, i, j] = (window * w).sum(axis=(0, 1, 2)) + b
                dx[n, rows, cols] += (w * g[n, i, j]).sum(axis=3)
                dw += window * g[n, i, j]
    return out, dx, dw, g.sum(axis=(0, 1, 2))


def conv2d_oracle_cases():
    """(x, w, b, g, stride) over channels x strides x leading axes, with the oracle's
    (out, dx, dw, db) for the stack of x's leading axes."""
    rng = np.random.default_rng(2025)
    for c in (1, 3, 8):
        for stride in (1, 2, 3):
            for lead in ((), (2,), (2, 3)):
                kh, kw = (int(v) for v in rng.integers(1, 4, 2))
                # extents that leave (H - k) % stride rows the stride never reaches
                height = kh + stride * int(rng.integers(1, 4)) + stride - 1
                width = kw + stride * int(rng.integers(1, 4)) + int(rng.integers(0, stride))
                x = rng.standard_normal(lead + (height, width, c)).astype(np.float32)
                w = rng.standard_normal((kh, kw, c, 3)).astype(np.float32)
                b = rng.standard_normal(3).astype(np.float32)
                out = kernels.conv2d_forward(x, w, b, stride)
                g = rng.standard_normal(out.shape).astype(np.float32)
                want = brute_conv2d(x.reshape((-1,) + x.shape[-3:]).astype(np.float64),
                                    w.astype(np.float64), b,
                                    g.reshape((-1,) + g.shape[-3:]).astype(np.float64), stride)
                yield x, w, b, g, stride, want


def assert_matches_oracle(got, want):
    for got_one, ref in zip(got, want):
        assert got_one.shape == ref.shape
        assert np.abs(got_one - ref).max() <= 1e-5 * np.abs(ref).max()


def test_conv2d_kernels_match_brute_force_windows():
    for x, w, b, g, stride, want in conv2d_oracle_cases():
        out = kernels.conv2d_forward(x, w, b, stride)
        assert out.shape == x.shape[:-3] + want[0].shape[1:]
        dx, dw, db = kernels.conv2d_backward(x, w, g, stride)
        assert dx.shape == x.shape
        assert_matches_oracle((out.reshape(want[0].shape), dx.reshape(want[1].shape), dw, db),
                              want)
        assert_matches_oracle(kernels.conv2d_weight_grads(x, w, g, stride), want[2:])


def test_conv2d_layer_matches_brute_force_windows():
    # the layer path: dW from the window matrix its train-mode forward kept
    for x, w, b, g, stride, want in conv2d_oracle_cases():
        x, g = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
        layer = Conv2D(w.shape[2], 3, w.shape[0], w.shape[1], stride, np.random.default_rng(0))
        layer.params["w"], layer.params["b"] = w, b
        out = layer.forward(x, train=True)
        dx = layer.backward(g, input_grad=True)
        assert_matches_oracle((out, dx, layer.grads["w"], layer.grads["b"]), want)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        shape = tuple(int(v) for v in rng.integers(1, 5, 3))
        x = rng.standard_normal(shape).astype(np.float32)
        assert np.allclose(GlobalAvgPool().forward(x[None])[0], brute_gap(x), atol=1e-6)
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
        assert vals["accuracy"] == (tp + tn) / n  # bitwise: same int operands
        assert vals["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
        assert vals["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
        pr = vals["precision"] + vals["recall"]
        assert vals["f1"] == (2 * vals["precision"] * vals["recall"] / pr if pr else 0.0)
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
    config = TrainConfig(seed=7, learning_rate=1e-4, max_epochs=200,
                         early_stop_patience=200)
    logs = train_loop(model, [(z, 1)] * 32, [(z, 1)], config)
    hit = next((e.epoch for e in logs if e.train_acc == 1.0), None)
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
    ds = {"train": [], "val": []}
    for rec, (_, label, img) in zip(records, samples):
        ds[rec.split].append((encode(as_model_input(img)), label))

    out = {}
    for head in HEADS:
        config = TrainConfig(seed=5, learning_rate=3e-3, batch_size=32, max_epochs=30)
        logs = train_loop(models[head], ds["train"], ds["val"], config)
        csv_path = tmp_path / f"{tag}_{head}.csv"
        write_epoch_csv(logs, csv_path)
        out[head] = (max(e.val_acc for e in logs), len(logs), csv_path.read_text())
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
