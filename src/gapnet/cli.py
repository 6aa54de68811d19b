"""Experiment driver: prepare | extract | train | eval | report.

Configs are JSON with a mandatory seed. Exit codes: 0 success, 1
contract violation in the inputs, 2 missing resource. GAPNET_THREADS
caps preprocessing workers (default 1, which also guarantees
deterministic single-threaded runs).
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from .backbone import load_feature_map, save_tensor
from .errors import ConfigInvalid, GapnetError
from .metrics import (
    build_report,
    confusion,
    render_confusion_csv,
    render_confusion_svg,
)
from .pipeline import Model, ModelSpec, decide, load_checkpoint, save_checkpoint
from .train import Dataset, TrainConfig, predict, train_loop, write_epoch_csv


@dataclass
class ExperimentConfig:
    seed: int
    manifest: Path
    model: ModelSpec
    train: TrainConfig
    output_dir: Path

    @classmethod
    def load(cls, path):
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigInvalid(f"{path}: not valid JSON: {e}") from e
        if "seed" not in obj:
            raise ConfigInvalid(f"{path}: an explicit seed is required")
        try:
            seed = int(obj["seed"])
        except (TypeError, ValueError) as e:
            raise ConfigInvalid(f"{path}: seed must be an integer, got {obj['seed']!r}") from e
        dataset = obj.get("dataset", {})
        if not isinstance(dataset, dict) or "manifest" not in dataset:
            raise ConfigInvalid(f"{path}: dataset.manifest is required")
        manifest = (path.parent / dataset["manifest"]).resolve()
        if not manifest.exists():
            raise FileNotFoundError(f"manifest not found: {manifest}")
        try:
            spec = ModelSpec.from_dict(obj.get("model", {}))
            train = TrainConfig(seed=seed, **obj.get("train", {})).validate()
        except (TypeError, ValueError) as e:
            raise ConfigInvalid(f"{path}: {e}") from e
        output_dir = (path.parent / obj.get("output_dir", "run")).resolve()
        return cls(seed=seed, manifest=manifest, model=spec, train=train,
                   output_dir=output_dir)


def _worker_count():
    try:
        n = int(os.environ.get("GAPNET_THREADS", "1"))
    except ValueError as e:
        raise ConfigInvalid(f"GAPNET_THREADS must be an integer: {e}") from e
    return max(1, n)


def _map_records(fn, records):
    workers = _worker_count()
    if workers == 1:
        return [fn(r) for r in records]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, records))


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


class OutputLock:
    """One training run per output directory at a time.

    The lock file holds the PID of the run that took it; it appears with
    that content in place (a hard link of a private file), so it is never
    seen empty. A lock whose process has ended, such as one a killed run
    left behind, is taken over; one whose content is not a PID is kept.
    Two runs that find the same dead lock at the same instant may both
    take it over.
    """

    def __init__(self, directory):
        self.path = Path(directory) / ".lock"

    def _holder(self):
        """PID of the live run holding the lock, or None if it can be taken."""
        try:
            pid = int(self.path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return "unknown"
        if pid > 0 and not _pid_alive(pid):
            self.path.unlink(missing_ok=True)
            return None
        return pid

    def __enter__(self):
        mine = self.path.with_name(f".lock.{os.getpid()}")
        mine.write_text(f"{os.getpid()}\n")
        try:
            while True:
                try:
                    os.link(mine, self.path)
                    return self
                except FileExistsError:
                    holder = self._holder()
                    if holder is not None:
                        raise GapnetError(f"output directory is locked by another run "
                                          f"(pid {holder}): {self.path}") from None
        finally:
            mine.unlink()

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


# ------------------------------------------------------------ prepare

def _scan_raw_dir(raw_dir):
    raw_dir = Path(raw_dir)
    records = []
    for sub, label in (("non_tumor", 0), ("tumor", 1)):
        class_dir = raw_dir / sub
        if not class_dir.is_dir():
            raise GapnetError(f"expected class directory {class_dir} (tumor/ and non_tumor/)")
        for p in sorted(class_dir.glob("*.pgm")):
            stem = p.stem
            tokens = stem.split("_")
            plane = next((t for t in tokens if t in ("axial", "coronal", "sagittal")),
                         "unknown")
            records.append(datamod.ManifestRecord(
                sample_id=stem, path=str(p.resolve()), label=label,
                subject_id=tokens[0], plane=plane,
            ))
    ids = [r.sample_id for r in records]
    if len(ids) != len(set(ids)):
        raise GapnetError(f"{raw_dir}: duplicate sample ids across class directories")
    return records


def _preprocess_image(img, size):
    img = datamod.histogram_equalize(img)
    img = datamod.resize_bilinear(img, size, size)
    return datamod.replicate_channels(datamod.normalize(img))


def cmd_prepare(args):
    src = Path(args.input)
    if not src.exists():
        raise FileNotFoundError(f"input path not found: {src}")
    out_manifest = Path(args.out)
    out_manifest.parent.mkdir(parents=True, exist_ok=True)

    if src.is_dir():
        records = _scan_raw_dir(src)
    else:
        records = datamod.load_manifest(src)

    aug_transforms = {}

    def note_transform(src_rec, transform, new_id):
        aug_transforms[new_id] = transform
        return src_rec.path

    if args.balance_to is not None:
        records = datamod.balance_classes(records, args.balance_to, args.seed,
                                          materialize=note_transform)

    fractions = tuple(float(f) for f in args.split.split(","))
    records = datamod.split(records, fractions, args.seed, level=args.level)

    if not args.manifest_only:
        tensor_dir = out_manifest.parent / "tensors"
        tensor_dir.mkdir(parents=True, exist_ok=True)

        def process(rec):
            img = datamod.load_pgm(rec.path)
            if rec.sample_id in aug_transforms:
                img = datamod.augment(img, aug_transforms[rec.sample_id])
            tens = _preprocess_image(img, args.image_size)
            save_tensor(tens, tensor_dir / f"{rec.sample_id}.btft")
            return f"tensors/{rec.sample_id}.btft"

        paths = _map_records(process, records)
        records = [replace(r, path=p) for r, p in zip(records, paths)]

    datamod.save_manifest(records, out_manifest)
    counts = {0: 0, 1: 0}
    for r in records:
        counts[r.label] += 1
    print(f"prepared {len(records)} records "
          f"(tumor {counts[1]}, non-tumor {counts[0]}) -> {out_manifest}")
    return 0


# ------------------------------------------------------------ datasets

def _resolve(manifest_path, rec_path):
    p = Path(rec_path)
    return p if p.is_absolute() else manifest_path.parent / p


def _load_input(config, rec):
    return load_feature_map(_resolve(config.manifest, rec.path))


def build_dataset(config, splits=("train", "val", "test"), encode=None):
    """(input, label) pairs of the wanted splits. ``encode`` runs on each
    input as it loads, so only what it returns stays in memory."""
    records = datamod.load_manifest(config.manifest)
    dataset = Dataset()
    wanted = [r for r in records if r.split in splits]
    encode = encode or (lambda x: x)
    xs = _map_records(lambda r: encode(_load_input(config, r)), wanted)
    for rec, x in zip(wanted, xs):
        getattr(dataset, rec.split).append((x, rec.label))
    return dataset


# ------------------------------------------------------------ subcommands

def cmd_train(args):
    config = ExperimentConfig.load(args.config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    with OutputLock(config.output_dir):
        model = Model(config.model, seed=config.seed)
        # extract-once: the frozen prefix runs a single time per sample
        dataset = build_dataset(config, splits=("train", "val"), encode=model.encode)
        result = train_loop(model, dataset, config.train)
        write_epoch_csv(result.epochs, config.output_dir / "epochs.csv")
        save_checkpoint(model, config.output_dir / "checkpoint")
        timing = {"seconds_per_epoch": result.seconds_per_epoch}
        (config.output_dir / "timing.json").write_text(json.dumps(timing, indent=2) + "\n")
    last = result.epochs[-1]
    print(f"trained {config.model.classifier} for {last.epoch} epochs: "
          f"val_loss {last.val_loss:.4f}, val_acc {last.val_acc:.4f} "
          f"-> {config.output_dir}")
    return 0


def cmd_eval(args):
    config = ExperimentConfig.load(args.config)
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt, expected_spec=config.model)
    dataset = build_dataset(config, splits=(args.split,))
    samples = getattr(dataset, args.split)
    if not samples:
        raise GapnetError(f"split {args.split!r} is empty in {config.manifest}")

    t0 = time.perf_counter()
    probs = predict(model, [model.encode(x) for x, _ in samples], config.train.batch_size)
    preds = decide(probs, model.spec.decision_threshold)
    test_ms_per_image = (time.perf_counter() - t0) * 1000.0 / len(samples)
    cm = confusion(preds, [y for _, y in samples])

    seconds_per_epoch = 0.0
    timing_file = config.output_dir / "timing.json"
    if timing_file.exists():
        seconds_per_epoch = json.loads(timing_file.read_text()).get("seconds_per_epoch", 0.0)
    report = build_report(
        cm, model_name=config.model.classifier,
        fingerprint=config.model.fingerprint(), seed=config.seed,
        seconds_per_epoch=seconds_per_epoch,
        test_ms_per_image=test_ms_per_image,
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    (config.output_dir / "metrics.json").write_text(report.to_json())
    (config.output_dir / "confusion.csv").write_text(render_confusion_csv(cm))
    (config.output_dir / "confusion.svg").write_text(render_confusion_svg(cm))
    print(f"{config.model.classifier}: accuracy {report.accuracy:.4f}, "
          f"precision {report.precision:.4f}, recall {report.recall:.4f}, "
          f"f1 {report.f1:.4f} -> {config.output_dir / 'metrics.json'}")
    return 0


def cmd_extract(args):
    config = ExperimentConfig.load(args.config)
    if args.checkpoint:
        model = load_checkpoint(Path(args.checkpoint), expected_spec=config.model)
    else:
        model = Model(config.model, seed=config.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = datamod.load_manifest(config.manifest)
    # one projection GEMM per chunk of encoded records, as predict() runs them
    step = model.rows_per_pass(config.train.batch_size)
    for start in range(0, len(records), step):
        chunk = records[start:start + step]
        vecs = model.features(np.stack([model.encode(_load_input(config, rec))
                                        for rec in chunk]))
        for rec, vec in zip(chunk, vecs):
            save_tensor(vec, out_dir / f"{rec.sample_id}.btft")
    print(f"extracted {len(records)} feature vectors "
          f"(dim {config.model.projection_dim}) -> {out_dir}")
    return 0


def cmd_report(args):
    rows = []
    for run_dir in args.run_dirs:
        metrics_file = Path(run_dir) / "metrics.json"
        if not metrics_file.exists():
            raise FileNotFoundError(f"metrics file not found: {metrics_file}")
        obj = json.loads(metrics_file.read_text())
        rows.append((obj["model"], obj["accuracy"], obj["precision"],
                     obj["recall"], obj["f1"]))
    lines = ["Model,Accuracy,Precision,Recall,F1"]
    for name, acc, prec, rec, f1 in rows:
        lines.append(f"{name},{100 * acc:.2f},{100 * prec:.2f},{100 * rec:.2f},{100 * f1:.2f}")
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


# ------------------------------------------------------------ entry point

def build_parser():
    parser = argparse.ArgumentParser(prog="gapnet",
                                     description="GAP feature-head tumor classifier harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="preprocess a raw dir (or rebalance a manifest)")
    p.add_argument("input", help="raw image directory with tumor/ and non_tumor/, "
                                 "or an existing manifest file")
    p.add_argument("out", help="output manifest path")
    p.add_argument("--balance-to", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--split", default="0.8,0.2", metavar="a,b[,c]")
    p.add_argument("--level", choices=("subject", "sample"), default="subject")
    p.add_argument("--image-size", type=int, default=224)
    p.add_argument("--manifest-only", action="store_true",
                   help="skip pixel work; only balance/split the manifest")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("extract", help="run the feature head, write per-sample vectors")
    p.add_argument("config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="train a model from a config")
    p.add_argument("config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, emit metrics artifacts")
    p.add_argument("config")
    p.add_argument("checkpoint")
    p.add_argument("--split", choices=("train", "val", "test"), default="val")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="aggregate run metrics into a comparison table")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GapnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
