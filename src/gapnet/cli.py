"""Experiment driver: prepare | extract | train | eval | report.

Configs are JSON with a mandatory seed. Exit codes: 0 success, 1
contract violation in the inputs, 2 missing resource. GAPNET_THREADS
caps preprocessing workers (default 1, which also guarantees
deterministic single-threaded runs).
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from .backbone import load_feature_map, save_tensor
from .errors import ConfigInvalid, GapnetError, IoFailure, ParseError
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
        obj = _read_json_object(path)
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


CACHE_DIR = ".gapnet-cache"
CACHE_FORMAT = "gapnet encode cache 1"


def _tag(*parts):
    return hashlib.sha256("\0".join(map(str, parts)).encode()).hexdigest()[:32]


class _EncodeCache:
    """The frozen prefix's output for each input file, kept on disk.

    The entries of one frozen prefix live in ``<manifest dir>/.gapnet-cache/
    <prefix tag>/``. The prefix tag hashes the frozen weights, so every head
    built from one seed (or its checkpoint) shares it. An entry is keyed by
    a path tag, hashing the input's absolute path, and a stat tag, hashing
    the stat data git's index uses, which changes whenever the file is
    rewritten; so a hit never reads the input. An entry holds the float32
    bits ``encode`` returned.

    Entries are stored as segments: ``<name>.keys``, one ``<path tag> <stat
    tag>`` line per entry, named for the hash of its text so that a torn
    one shows, beside ``<name>.btft``, one row per line. A run that encodes
    anything writes one segment of every entry it knows, an input's new
    entry replacing its old one, and deletes the segments it read: two
    files per run rather than one per input, because creating hundreds of
    small files right after ``prepare`` costs the first head more than a
    tenth of its set-up time. A missing, torn or wrong-shaped segment is a
    miss for each of its entries; a cache that cannot be written leaves
    the run uncached, with one warning.
    """

    def __init__(self, config, model):
        self.config, self.model = config, model
        h = hashlib.sha256(f"{CACHE_FORMAT}\0{model.spec.backbone}\0"
                           f"{model.spec.head_input_channels}".encode())
        for name, layer, pname in (model.backbone.parameters() if model.backbone else ()):
            value = np.ascontiguousarray(layer.params[pname], dtype="<f4")
            h.update(f"\0{name}\0{value.shape}\0".encode() + value.tobytes())
        self.dir = config.manifest.parent / CACHE_DIR / h.hexdigest()[:32]
        self.known = {}  # path tag -> (stat tag, vector)
        self.lock = threading.Lock()  # build_dataset may call from several threads
        self.encoded = False
        try:
            self.listed = {n for n in os.listdir(self.dir) if not n.startswith(".")}
        except OSError:  # no cache yet, or none possible: everything misses
            self.listed = set()
        width = model.spec.head_input_channels
        for keys in sorted(n for n in self.listed if n.endswith(".keys")):
            try:
                text = (self.dir / keys).read_text()
                rows = load_feature_map(self.dir / f"{keys[:-5]}.btft")
            except (OSError, ValueError, GapnetError):
                continue  # a missing or torn segment: its entries miss
            lines = [line.split() for line in text.splitlines()]
            if _tag(text) == keys[:-5] and rows.shape == (len(lines), width):
                for (path_tag, stat_tag), row in zip(lines, rows):
                    self.known[path_tag] = (stat_tag, row)

    def __call__(self, rec):
        path = _resolve(self.config.manifest, rec.path)
        try:
            st = os.stat(path)
        except OSError:  # reading the input reports it
            return self.model.encode(_load_input(self.config, rec))
        path_tag = _tag(path)
        stat_tag = _tag(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        with self.lock:
            entry = self.known.get(path_tag)
        if entry is not None and entry[0] == stat_tag:
            return entry[1]
        vec = self.model.encode(_load_input(self.config, rec))
        with self.lock:
            self.known[path_tag] = (stat_tag, vec)
            self.encoded = True
        return vec

    def save(self):
        """Write every known entry as one segment, if this run encoded any."""
        if not self.encoded:
            return
        tags = sorted(self.known)
        text = "".join(f"{t} {self.known[t][0]}\n" for t in tags)
        name = _tag(text)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            save_tensor(np.stack([self.known[t][1] for t in tags]), self.dir / f"{name}.btft")
            (self.dir / f"{name}.keys").write_text(text)
            for old in self.listed - {f"{name}.btft", f"{name}.keys"}:
                (self.dir / old).unlink(missing_ok=True)
        except (OSError, IoFailure) as e:
            print(f"warning: not caching encoded inputs: {e}", file=sys.stderr)


@contextlib.contextmanager
def _encoded_inputs(config, model):
    """Yields rec -> the row ``model.forward`` takes for it. With a frozen
    prefix the row comes from the on-disk cache where it can, and what was
    encoded is cached on exit; a trainable backbone's rows are its raw
    inputs, which are never cached."""
    if model.spec.backbone_trainable:
        yield lambda rec: model.encode(_load_input(config, rec))
        return
    cache = _EncodeCache(config, model)
    yield cache
    cache.save()


def build_dataset(config, splits=("train", "val", "test"), load=None):
    """(input, label) pairs of the wanted splits. ``load`` maps a record to
    what is kept of it (by default its raw input), so only that stays in
    memory."""
    records = datamod.load_manifest(config.manifest)
    dataset = Dataset()
    wanted = [r for r in records if r.split in splits]
    xs = _map_records(load or (lambda r: _load_input(config, r)), wanted)
    for rec, x in zip(wanted, xs):
        getattr(dataset, rec.split).append((x, rec.label))
    return dataset


# ------------------------------------------------------------ subcommands

def _read_json_object(path):
    try:
        obj = json.loads(path.read_text())
    except ValueError as e:  # not JSON, or not UTF-8
        raise ParseError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def cmd_train(args):
    config = ExperimentConfig.load(args.config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    with OutputLock(config.output_dir):
        model = Model(config.model, seed=config.seed)
        # extract-once: the frozen prefix runs at most once per input file
        with _encoded_inputs(config, model) as load:
            dataset = build_dataset(config, splits=("train", "val"), load=load)
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
        seconds_per_epoch = _read_json_object(timing_file).get("seconds_per_epoch", 0.0)
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
    with _encoded_inputs(config, model) as load:
        for start in range(0, len(records), step):
            chunk = records[start:start + step]
            vecs = model.features(np.stack([load(rec) for rec in chunk]))
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
        obj = _read_json_object(metrics_file)
        try:
            rows.append((obj["model"], *(float(obj[k]) for k in
                                         ("accuracy", "precision", "recall", "f1"))))
        except KeyError as e:
            raise ParseError(f"{metrics_file}: lacks {e}") from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"{metrics_file}: a metric is not a number: {e}") from e
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
