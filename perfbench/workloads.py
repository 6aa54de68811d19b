"""Seeded inputs and the gapnet command plan of each benchmark workload.

Every workload is a directory of generated files plus a list of gapnet
CLI invocations (a "round") that turns them into a prepared manifest,
trained checkpoints, extracted vectors and eval metrics. The program
sees only the generated files; nothing here imports gapnet.

Why these workloads:
- toy_frozen: the only workload that runs the data layer (PGM load,
  histogram equalisation, resize from 256x256, augmentation for the
  minority class) and the frozen conv2d forward pass at scale. Training
  is per-sample Python dispatch around a small 16->512 Dense.
- imported_2048: the paper's frozen-ResNet shape, 7x7x2048 maps read from
  BTFT files. No images and no conv2d; time goes to tensor reads, GAP over
  2048 channels, the 2048->512 projection and Adam on it.
- toy_finetune: the only workload with a trainable backbone, so the only
  one that runs conv2d backward. It bypasses extract-once, so an
  optimisation of the frozen path should show no change here.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BATCH_SIZE = 32
PROJECTION_DIM = 512  # the ModelSpec default, checked on every extracted vector


@dataclass(frozen=True)
class Workload:
    name: str
    heads: tuple
    epochs: int
    mode: str  # gapnet dataset.mode
    expected_records: int  # records in the prepared manifest
    learning_rate: float
    # Short commands may run more than once a round (each run writes the
    # same outputs), so their rates rest on enough samples: interpreter
    # start-up alone varies by about 12% from one process to the next on a
    # 2-core VM.
    prepare_runs: int
    extract_eval_runs: int
    # Train processes per head and round: host speed differs from one
    # process to the next, so a one-head workload trains more than once.
    train_runs: int
    model: dict = field(default_factory=dict)  # ModelSpec fields besides the classifier


WORKLOADS = {
    w.name: w for w in (
        Workload("toy_frozen", heads=("dfn", "fcnn", "cnn1d"), epochs=14, mode="images",
                 expected_records=400, learning_rate=0.003,
                 prepare_runs=2, extract_eval_runs=1, train_runs=1,
                 model={"backbone": "toy_cnn", "head_input_channels": 16}),
        Workload("imported_2048", heads=("dfn", "fcnn", "cnn1d"), epochs=3, mode="features",
                 expected_records=400, learning_rate=1e-4,
                 prepare_runs=2, extract_eval_runs=2, train_runs=1,
                 model={"backbone": "imported_features", "head_input_channels": 2048}),
        Workload("toy_finetune", heads=("dfn",), epochs=2, mode="images",
                 expected_records=96, learning_rate=0.003,
                 prepare_runs=1, extract_eval_runs=1, train_runs=2,
                 model={"backbone": "toy_cnn", "head_input_channels": 16,
                        "backbone_trainable": True}),
    )
}


# ------------------------------------------------------------------ inputs

def _write_pgm(img, path):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def _write_btft(arr, path):
    """The BTFT layout documented in the gapnet README: magic, version 1,
    dtype code 1 (float32), rank, u32 extents, row-major payload."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = struct.pack("<4sIBB", b"BTFT", 1, 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def _blob_images(raw_dir, rng, subjects, per_subject, size=256):
    """Noise images named <subject>_<plane>_<index>.pgm; tumor ones get a
    bright Gaussian blob. ``subjects`` is a list of (subject_id, label)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    lo, hi = size * 0.27, size * 0.73
    for sub in ("tumor", "non_tumor"):
        (raw_dir / sub).mkdir(parents=True, exist_ok=True)
    planes = ("axial", "coronal", "sagittal")
    for s, (subject, label) in enumerate(subjects):
        for i in range(per_subject):
            img = rng.normal(100.0, 20.0, (size, size))
            if label == 1:
                cy, cx = rng.uniform(lo, hi, 2)
                sig = rng.uniform(size * 0.08, size * 0.13)
                amp = rng.uniform(70.0, 110.0)
                img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig ** 2))
            img = np.clip(img, 0, 255).astype(np.uint8)
            sub = "tumor" if label == 1 else "non_tumor"
            _write_pgm(img, raw_dir / sub / f"{subject}_{planes[(s + i) % 3]}_{i:02d}.pgm")


def _imported_maps(in_dir, rng, per_class=200, shape=(7, 7, 2048), signal_channels=256):
    """Non-negative ReLU-like maps; tumor maps are shifted up on a seeded
    subset of channels, so GAP vectors separate the classes."""
    maps_dir = in_dir / "maps"
    maps_dir.mkdir(parents=True)
    shifted = rng.choice(shape[2], size=signal_channels, replace=False)
    shift = np.zeros(shape[2], dtype=np.float32)
    shift[shifted] = 0.5
    lines = []
    for k in range(2 * per_class):
        label = k % 2
        x = rng.standard_normal(shape, dtype=np.float32)
        if label:
            x += shift
        np.maximum(x, 0, out=x)
        sample_id = f"m{k:04d}"
        path = maps_dir / f"{sample_id}.btft"
        _write_btft(x, path)
        lines.append(json.dumps({"sample_id": sample_id, "path": str(path.resolve()),
                                 "label": label, "subject_id": sample_id}))
    (in_dir / "maps.jsonl").write_text("\n".join(lines) + "\n")


def make_inputs(workload, seed, in_dir):
    """Write the workload's inputs for ``seed`` into ``in_dir``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    in_dir = Path(in_dir)
    if workload.name == "toy_frozen":
        # 20 non-tumor and 15 tumor subjects of 10 slices; --balance-to 200
        # tops the tumor class up with 50 augmented records.
        subjects = [(f"n{s:03d}", 0) for s in range(20)] + [(f"t{s:03d}", 1) for s in range(15)]
        _blob_images(in_dir / "raw", rng, subjects, per_subject=10)
    elif workload.name == "toy_finetune":
        # 12 non-tumor and 10 tumor subjects of 4 slices, balanced to 48 each.
        subjects = [(f"n{s:03d}", 0) for s in range(12)] + [(f"t{s:03d}", 1) for s in range(10)]
        _blob_images(in_dir / "raw", rng, subjects, per_subject=4)
    else:
        _imported_maps(in_dir, rng)


# ------------------------------------------------------------------ rounds

@dataclass
class Step:
    kind: str  # prepare | train | extract | eval
    head: str | None
    argv: list


def head_config(workload, seed, manifest, run_dir, head):
    return {
        "seed": seed,
        "dataset": {"manifest": str(manifest), "mode": workload.mode},
        "model": dict(workload.model, classifier=head),
        "train": {"learning_rate": workload.learning_rate, "batch_size": BATCH_SIZE,
                  "max_epochs": workload.epochs,
                  # patience >= max_epochs: every run trains exactly max_epochs
                  "early_stop_patience": workload.epochs},
        "output_dir": str(run_dir),
    }


def make_round(workload, seed, in_dir, round_dir):
    """Write the configs of one round into ``round_dir``; return its steps.

    All paths are absolute, so the steps run from any working directory.
    """
    in_dir = Path(in_dir).resolve()
    round_dir = Path(round_dir).resolve()
    round_dir.mkdir(parents=True)
    manifest = round_dir / "manifest.jsonl"
    if workload.name == "imported_2048":
        prepare = [str(in_dir / "maps.jsonl"), str(manifest), "--seed", str(seed),
                   "--split", "0.8,0.2", "--level", "sample", "--manifest-only"]
    elif workload.name == "toy_frozen":
        prepare = [str(in_dir / "raw"), str(manifest), "--seed", str(seed),
                   "--balance-to", "200", "--split", "0.8,0.2", "--level", "sample"]
    else:
        prepare = [str(in_dir / "raw"), str(manifest), "--seed", str(seed),
                   "--balance-to", "48", "--split", "0.6666666667,0.3333333333",
                   "--level", "sample"]
    steps = [Step("prepare", None, ["prepare"] + prepare)] * workload.prepare_runs
    configs = {}
    for head in workload.heads:
        cfg = round_dir / f"{head}.json"
        cfg.write_text(json.dumps(head_config(workload, seed, manifest,
                                              round_dir / head, head), indent=2))
        configs[head] = cfg
        steps += [Step("train", head, ["train", str(cfg)])] * workload.train_runs
    for _ in range(workload.extract_eval_runs):
        for head in workload.heads:
            ckpt = str(round_dir / head / "checkpoint")
            steps.append(Step("extract", head, ["extract", str(configs[head]), "--out-dir",
                                                str(round_dir / "vectors" / head),
                                                "--checkpoint", ckpt]))
            steps.append(Step("eval", head, ["eval", str(configs[head]), ckpt,
                                             "--split", "val"]))
    return steps
