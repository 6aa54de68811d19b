"""Experiment driver: prepare | extract | train | eval | report.

Configs are JSON with a mandatory seed. Exit codes: 0 success, 1
contract violation in the inputs, 2 missing resource.
"""

import argparse
import contextlib
import ctypes
import fcntl
import functools
import hashlib
import json
import numbers
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from .backbone import load_feature_map, rewrite_tensor, save_tensor, stat_key, write_atomic
from .errors import GapnetError, json_object, require_counts, require_object
from .metrics import confusion, metrics, render_confusion_csv, render_confusion_svg
from .pipeline import (CLASSIFIERS, Model, ModelSpec, decide, load_checkpoint, save_checkpoint,
                       sigmoid)
from .train import (
    TrainConfig,
    mean_seconds_per_epoch,
    passes,
    predict,
    train_loop,
    write_epoch_csv,
)


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
        obj = json_object(path.read_bytes(), path)
        if "seed" not in obj:
            raise GapnetError(f"{path}: an explicit seed is required")
        seed = obj["seed"]
        require_counts(least=0, seed=seed)  # the seeds numpy accepts
        dataset = obj.get("dataset", {})
        if not isinstance(dataset, dict) or "manifest" not in dataset:
            raise GapnetError(f"{path}: dataset.manifest is required")
        output_dir = obj.get("output_dir", "run")
        for name, value in (("dataset.manifest", dataset["manifest"]), ("output_dir", output_dir)):
            if not isinstance(value, str):
                raise GapnetError(f"{path}: {name} must be a path string, got {value!r}")
            if "\0" in value:
                raise GapnetError(f"{path}: {name} {value!r} contains a NUL byte")
        manifest = (path.parent / dataset["manifest"]).resolve()
        if not manifest.exists():
            raise FileNotFoundError(f"manifest not found: {manifest}")
        model, train = (require_object(obj.get(k, {}), f"{path}: {k}") for k in ("model", "train"))
        try:
            spec = ModelSpec.from_dict(model)
            train = TrainConfig(seed=seed, **train).validate()
        except (TypeError, ValueError) as e:
            raise GapnetError(f"{path}: {e}") from e
        output_dir = (path.parent / output_dir).resolve()
        return cls(seed=seed, manifest=manifest, model=spec, train=train,
                   output_dir=output_dir)


class OutputLock:
    """One run per output directory at a time: ``train``'s, ``extract``'s, or
    ``prepare``'s on its ``tensors/``.

    The run holds an exclusive ``flock`` on ``<output_dir>/.lock``, which
    the kernel drops however the run ends, a kill included. The file names
    the holder's PID, for the error message only; it is removed on exit.
    """

    def __init__(self, directory):
        self.path = Path(directory) / ".lock"

    def __enter__(self):
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                here = None
                with contextlib.suppress(FileNotFoundError):
                    here = os.stat(self.path)
                if here is not None and os.path.samestat(os.fstat(fd), here):
                    os.ftruncate(fd, 0)
                    os.write(fd, f"{os.getpid()}\n".encode())
                    self.fd, fd = fd, None
                    return self
                # the run that held this file removed it on exit: lock the one now there
            except BlockingIOError:
                holder = os.read(fd, 32).decode(errors="replace").strip() or "unknown"
                raise GapnetError(f"output directory is locked by another run "
                                  f"(pid {holder}): {self.path}") from None
            finally:
                if fd is not None:
                    os.close(fd)

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        os.close(self.fd)
        return False


def _records(manifest, splits=None):
    """The records of a manifest (those in ``splits``, if given), each with
    its ``path`` joined onto the manifest's directory: the one rule for
    where a record's file lives. An absolute path is kept as it is."""
    base = Path(manifest).absolute().parent
    return [replace(rec, path=str(base / rec.path)) for rec in datamod.load_manifest(manifest)
            if splits is None or rec.split in splits]


# ------------------------------------------------------------ prepare

def _scan_raw_dir(raw_dir):
    raw_dir = Path(raw_dir)
    records = []
    for sub, label in (("non_tumor", 0), ("tumor", 1)):
        class_dir = raw_dir / sub
        if not class_dir.is_dir():
            raise GapnetError(f"expected class directory {class_dir} (tumor/ and non_tumor/)")
        for p in sorted(class_dir.glob("*.pgm")):
            tokens = p.stem.split("_")
            plane = next((t for t in tokens if t in ("axial", "coronal", "sagittal")),
                         "unknown")
            rec = datamod.ManifestRecord(sample_id=p.stem, path=str(p.resolve()), label=label,
                                         subject_id=tokens[0], plane=plane)
            try:
                records.append(rec.validate())
            except GapnetError as e:
                raise GapnetError(f"{p}: {e}") from e
    ids = [r.sample_id for r in records]
    if len(ids) != len(set(ids)):
        raise GapnetError(f"{raw_dir}: duplicate sample ids across class directories")
    return records


# what each of prepare's tensors was made from, beside the manifest: a dot-file, so outside
# the benchmark's digest, tensors/ and the encode cache's directory
PREPARE_RECORD = ".gapnet-prepare.json"
PREPARE_FORMAT = "gapnet prepare 1"


def _stat_key(path):
    """``path``'s ``stat_key``, or None when it cannot be stat'ed. The encode
    cache, prepare's record and a trainable backbone's rows all trust it."""
    try:
        return stat_key(os.stat(path))
    except (OSError, ValueError):  # ValueError: a NUL in a path a record names
        return None


def _made_from(record, image_size):
    """{sample id: [source path, augmented_from, source stat key, tensor stat key]}
    of gapnet's own prepare record for ``image_size``, and the record's mtime;
    nothing for a missing, torn or foreign record."""
    try:
        with open(record, "rb") as fh:
            recorded_at = os.fstat(fh.fileno()).st_mtime_ns
            obj = json_object(fh.read(), record)
    except (OSError, GapnetError):
        return {}, None
    entries = obj.get("entries")
    if (obj.get("format") != PREPARE_FORMAT or obj.get("image_size") != image_size
            or not isinstance(entries, dict)):
        return {}, None
    return entries, recorded_at


def _vouched(made, sample_id, entry, recorded_at):
    """Whether the record read as ``made`` holds ``entry`` for ``sample_id``, with both
    files' times strictly older than the record's mtime ``recorded_at``."""
    return made.get(sample_id) == entry and all(
        key is not None and max(key[3:]) < recorded_at for key in entry[2:])


def _prepare_tensors(records, tensor_dir, image_size, record):
    """Writes each record's tensor, unless ``record`` shows it made from the same
    source with neither file changed since, and records what each was made from;
    returns the records, each naming its tensor.

    An entry is trusted only when both files' times are strictly older than the
    record's mtime, as git trusts its index: a file rewritten within the tick of
    its stat could keep every field of its key. The entries of ids the records do
    not have, another manifest's in the same directory, are kept while the record
    could still vouch for them."""
    made, recorded_at = _made_from(record, image_size)
    entries = {}
    prepared = []
    for rec in records:
        tensor = tensor_dir / f"{rec.sample_id}.btft"
        entry = [rec.path, rec.augmented_from, _stat_key(rec.path), _stat_key(tensor)]
        if not _vouched(made, rec.sample_id, entry, recorded_at):
            img = datamod.histogram_equalize(datamod.load_image(rec))
            img = datamod.resize_bilinear(img, image_size, image_size)
            # a re-run keeps an unchanged tensor's file, and so its encode cache entries
            save_tensor(datamod.normalize(img), tensor, keep_same=True)
            entry[3] = _stat_key(tensor)
        entries[rec.sample_id] = entry
        prepared.append(replace(rec, path=f"tensors/{rec.sample_id}.btft"))
    for sample_id, old in made.items():
        if (sample_id not in entries and datamod.plain_name(sample_id) and isinstance(old, list)
                and len(old) == 4 and isinstance(old[0], str)):
            keys = [_stat_key(old[0]), _stat_key(tensor_dir / f"{sample_id}.btft")]
            if _vouched(made, sample_id, old[:2] + keys, recorded_at):
                entries[sample_id] = old
    text = json.dumps({"format": PREPARE_FORMAT, "image_size": image_size, "entries": entries})
    try:
        write_atomic(record, (text + "\n").encode())
    except OSError as e:  # the next run then recomputes what it cannot trust
        print(f"warning: not recording what the tensors were made from: {e}", file=sys.stderr)
    return prepared


def cmd_prepare(args):
    require_counts(least=0, seed=args.seed)
    balance = {} if args.balance_to is None else {"balance_to": args.balance_to}
    require_counts(**balance, image_size=args.image_size)
    try:
        fractions = tuple(float(f) for f in args.split.split(","))
    except ValueError as e:
        raise GapnetError(f"--split takes comma-separated numbers, got {args.split!r}") from e
    src = Path(args.input)
    if not src.exists():
        raise FileNotFoundError(f"input path not found: {src}")
    out_manifest = Path(args.out)
    out_manifest.parent.mkdir(parents=True, exist_ok=True)

    records = _scan_raw_dir(src) if src.is_dir() else _records(src)

    if args.balance_to is not None:
        records = datamod.balance_classes(records, args.balance_to, args.seed)

    records = datamod.split(records, fractions, args.seed, level=args.level)

    if args.manifest_only:
        datamod.save_manifest(records, out_manifest)
    else:
        tensor_dir = out_manifest.parent / "tensors"
        tensor_dir.mkdir(parents=True, exist_ok=True)
        # no other run changes a tensor between its write and its stat
        with OutputLock(tensor_dir):
            records = _prepare_tensors(records, tensor_dir, args.image_size,
                                       out_manifest.parent / PREPARE_RECORD)
            datamod.save_manifest(records, out_manifest)
    tumor = sum(r.label for r in records)
    print(f"prepared {len(records)} records "
          f"(tumor {tumor}, non-tumor {len(records) - tumor}) -> {out_manifest}")
    return 0


# ------------------------------------------------------------ datasets

CACHE_DIR = ".gapnet-cache"
CACHE_FORMAT = "gapnet encode cache 1"
# prefix directories kept per cache: a 10-seed sweep of one manifest, each seed its own
# frozen prefix, hits in any order of heads, with room for six fine-tuned checkpoints
CACHE_PREFIXES = 16


def _encode(model, rec, key=None):
    """``model.encode`` of ``rec``'s input file, which must have the stat ``key``
    if one is given; a bad input's error names the file."""
    x = load_feature_map(rec.path, key)  # whose errors name it already
    try:
        return model.encode(x)
    except GapnetError as e:
        raise GapnetError(f"{rec.path}: {e}") from e


def _reread(model, rec):
    """A trainable backbone's row: a reference to its input file, not the image.

    The file is read and checked once here, after its ``_stat_key`` is taken,
    and read and checked again (``_encode``) each time a pass calls the row,
    so training holds one image at a time rather than all of them. A file whose
    stat key has changed since is refused, naming it: it is no longer the input
    that was checked. A file gone since reports itself as missing."""
    key = _stat_key(rec.path)
    _encode(model, rec)
    return functools.partial(_encode, model, rec, key)


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

    A run that only hits touches its prefix directory, and a run that
    writes a segment removes every other prefix directory but the
    ``CACHE_PREFIXES - 1`` touched or written last, so the cache keeps the
    prefixes in use and no more.
    """

    def __init__(self, manifest, model):
        self.model = model
        h = hashlib.sha256(f"{CACHE_FORMAT}\0{model.spec.backbone}\0"
                           f"{model.spec.head_input_channels}\0".encode())
        h.update(model.flat_params[:model.n_frozen].astype("<f4", copy=False))
        self.dir = manifest.parent / CACHE_DIR / h.hexdigest()[:32]
        self.known = {}  # path tag -> (stat tag, vector)
        self.hits = 0
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
        key = _stat_key(rec.path)
        if key is None:  # reading the input reports it
            return _encode(self.model, rec)
        path_tag = _tag(rec.path)
        stat_tag = _tag(*key)
        entry = self.known.get(path_tag)
        if entry is not None and entry[0] == stat_tag:
            self.hits += 1
            return entry[1]
        vec = _encode(self.model, rec)
        self.known[path_tag] = (stat_tag, vec)
        self.encoded = True
        return vec

    def save(self):
        """Write every known entry as one segment, if this run encoded any,
        and drop the least recently used prefix directories; a run that only
        hit marks its prefix used."""
        if not self.encoded:
            if self.hits:
                with contextlib.suppress(OSError):  # a read-only cache still serves hits
                    os.utime(self.dir)
            return
        tags = sorted(self.known)
        text = "".join(f"{t} {self.known[t][0]}\n" for t in tags)
        name = _tag(text)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            save_tensor(np.stack([self.known[t][1] for t in tags]), self.dir / f"{name}.btft")
            write_atomic(self.dir / f"{name}.keys", text.encode())
            for old in self.listed - {f"{name}.btft", f"{name}.keys"}:
                (self.dir / old).unlink(missing_ok=True)
        except (OSError, GapnetError) as e:
            print(f"warning: not caching encoded inputs: {e}", file=sys.stderr)
            return
        try:
            with os.scandir(self.dir.parent) as listing:
                others = [e for e in listing
                          if e.name != self.dir.name and e.is_dir(follow_symlinks=False)]
            others.sort(key=lambda e: e.stat(follow_symlinks=False).st_mtime_ns, reverse=True)
            for stale in others[CACHE_PREFIXES - 1:]:
                shutil.rmtree(stale.path)
        except OSError as e:
            print(f"warning: not removing old encode cache prefixes: {e}", file=sys.stderr)


@contextlib.contextmanager
def _encoded_inputs(manifest, model):
    """Yields rec -> its row, for the records of ``manifest``: the one
    place that decides what a row is. With a frozen prefix the row is the
    encoded input ``model.forward`` takes, from the on-disk cache where it
    can, and what was encoded is cached on exit. A backbone that trains
    (only ever in a model built to train, never in a loaded checkpoint)
    takes raw inputs, which are never cached: its row, from ``_reread``,
    reads the input's file again at each pass that calls it."""
    if not model.frozen.layers:
        yield functools.partial(_reread, model)
        return
    cache = _EncodeCache(manifest, model)
    yield cache
    cache.save()


def build_dataset(config, model, splits):
    """{split: (row, label) pairs} of ``splits``, and how many inputs came
    from the encode cache (None when nothing is frozen, so nothing is
    cached). With a frozen prefix a row is the encoded input, the frozen
    prefix run once per file and only its output kept; with none it is a
    reference that re-reads the input at each pass (``_reread``), so
    memory holds no image between passes. Either way every input is read
    and checked here, before training starts."""
    dataset = {split: [] for split in splits}
    with _encoded_inputs(config.manifest, model) as load:
        for rec in _records(config.manifest, splits):
            dataset[rec.split].append((load(rec), rec.label))
    return dataset, getattr(load, "hits", None)


def _cache_note(hits, n):
    """The end of a summary line: how many of ``n`` inputs the encode cache
    served, or nothing when nothing is frozen."""
    return "" if hits is None else f", {hits} of {n} inputs from the encode cache"


# ------------------------------------------------------------ subcommands

# extract's commit record, written last: the ids in manifest order and one sha256 over
# their vector files' bytes in that order; written first without the sha256, it lists
# every id whose vector the run may change or remove, and vouches for none of them
EXTRACT_RECORD = "extract.json"
EXTRACT_FORMAT = "gapnet extract 1"

# glibc's mallopt parameters (malloc.h) and train's values; 4 MiB is numpy's huge-page cutoff
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD_BYTES, MMAP_THRESHOLD_BYTES = 64 << 20, 4 << 20


def _keep_heap():
    """Stop glibc trimming the heap top between batches, so a batch's temporaries
    (cnn1d's 510 KiB products) reuse pages instead of faulting fresh ones in; arrays
    of 4 MiB and more keep their own mappings. Does nothing without ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def cmd_train(args):
    _keep_heap()
    config = ExperimentConfig.load(args.config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    with OutputLock(config.output_dir):
        model = Model(config.model, seed=config.seed)
        dataset, hits = build_dataset(config, model, ("train", "val"))
        logs = train_loop(model, dataset["train"], dataset["val"], config.train)
        write_epoch_csv(logs, config.output_dir / "epochs.csv")
        save_checkpoint(model, config.output_dir / "checkpoint")
    last = logs[-1]
    print(f"trained {config.model.classifier} for {last.epoch} epochs: "
          f"val_loss {last.val_loss:.4f}, val_acc {last.val_acc:.4f} "
          f"-> {config.output_dir}"
          + _cache_note(hits, len(dataset["train"]) + len(dataset["val"])))
    return 0


def cmd_eval(args):
    config = ExperimentConfig.load(args.config)
    model = load_checkpoint(Path(args.checkpoint), expected_spec=config.model)
    t0 = time.perf_counter()  # the first record read: a cache hit skips the backbone
    dataset, hits = build_dataset(config, model, (args.split,))
    samples = dataset[args.split]
    if not samples:
        raise GapnetError(f"split {args.split!r} is empty in {config.manifest}")
    probs = sigmoid(predict(model, [z for z, _ in samples], config.train.batch_size))
    preds = decide(probs, model.spec.decision_threshold)
    test_ms_per_image = (time.perf_counter() - t0) * 1000.0 / len(samples)
    cm = confusion(preds, [y for _, y in samples])

    epochs = config.output_dir / "epochs.csv"  # train's log, if it trained here
    report = metrics(cm)
    undefined = report.pop("undefined")
    report.update(confusion={"TP": cm.tp, "TN": cm.tn, "FP": cm.fp, "FN": cm.fn},
                  seconds_per_epoch=mean_seconds_per_epoch(epochs) if epochs.exists() else 0.0,
                  test_ms_per_image=test_ms_per_image, model=config.model.classifier,
                  config_fingerprint=config.model.fingerprint(), seed=config.seed,
                  undefined_metrics=undefined)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    # metrics.json last: until it is replaced, the directory reads as the previous eval's
    write_atomic(config.output_dir / "confusion.csv", render_confusion_csv(cm).encode())
    write_atomic(config.output_dir / "confusion.svg", render_confusion_svg(cm).encode())
    write_atomic(config.output_dir / "metrics.json",
                 (json.dumps(report, indent=2) + "\n").encode())
    print(f"{config.model.classifier}: accuracy {report['accuracy']:.4f}, "
          f"precision {report['precision']:.4f}, recall {report['recall']:.4f}, "
          f"f1 {report['f1']:.4f} -> {config.output_dir / 'metrics.json'}"
          + _cache_note(hits, len(samples)))
    return 0


def _listed_ids(record):
    """The ids of gapnet's own extract record, finished or not, whose every id is a
    plain file name; none for a missing or foreign record."""
    try:
        obj = json_object(record.read_bytes(), record)
    except (OSError, GapnetError):
        return set()
    ids = obj.get("ids")
    if obj.get("format") == EXTRACT_FORMAT and isinstance(ids, list) and all(
            map(datamod.plain_name, ids)):
        return set(ids)
    return set()


def cmd_extract(args):
    config = ExperimentConfig.load(args.config)
    model = load_checkpoint(Path(args.checkpoint), expected_spec=config.model)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = _records(config.manifest)
    ids = [rec.sample_id for rec in records]
    commit = out_dir / EXTRACT_RECORD
    with OutputLock(out_dir):
        # from here until the new record is written, the directory is no finished extract,
        # and its record still names every vector a cut could leave behind
        stale = sorted(_listed_ids(commit).difference(ids))
        write_atomic(commit, (json.dumps({"format": EXTRACT_FORMAT, "ids": ids + stale},
                                         indent=2) + "\n").encode())
        for sample_id in stale:
            (out_dir / f"{sample_id}.btft").unlink(missing_ok=True)
        digest = hashlib.sha256()
        # one projection GEMM per chunk of encoded records, as predict() runs them
        with _encoded_inputs(config.manifest, model) as load:
            for chunk in passes(model, records, config.train.batch_size):
                vecs = model.features(np.stack([load(rec) for rec in chunk]))
                for rec, vec in zip(chunk, vecs):
                    digest.update(rewrite_tensor(vec, out_dir / f"{rec.sample_id}.btft"))
        record = {"format": EXTRACT_FORMAT, "config_fingerprint": config.model.fingerprint(),
                  "ids": ids, "sha256": digest.hexdigest()}
        write_atomic(commit, (json.dumps(record, indent=2) + "\n").encode())
    print(f"extracted {len(records)} feature vectors "
          f"(dim {config.model.projection_dim}) -> {out_dir}")
    return 0


def cmd_report(args):
    reported = ("accuracy", "precision", "recall", "f1")
    rows = []
    for run_dir in args.run_dirs:
        metrics_file = Path(run_dir) / "metrics.json"
        if not metrics_file.exists():
            raise FileNotFoundError(f"metrics file not found: {metrics_file}")
        obj = json_object(metrics_file.read_bytes(), metrics_file)
        try:
            row = [obj[k] for k in ("model", *reported)]
        except KeyError as e:
            raise GapnetError(f"{metrics_file}: lacks {e}") from e
        if row[0] not in CLASSIFIERS:
            raise GapnetError(f"{metrics_file}: model {row[0]!r} is not one of {CLASSIFIERS}")
        for key, value in zip(reported, row[1:]):  # a bool, a string and NaN all fail
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 <= value <= 1):
                raise GapnetError(f"{metrics_file}: {key} is not a number in [0, 1]: {value!r}")
        rows.append(row)
    lines = ["Model,Accuracy,Precision,Recall,F1"]
    for name, acc, prec, rec, f1 in rows:
        lines.append(f"{name},{100 * acc:.2f},{100 * prec:.2f},{100 * rec:.2f},{100 * f1:.2f}")
    text = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, text.encode())
    print(text, end="")
    return 0


# ------------------------------------------------------------ entry point

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``GapnetError``, so ``main`` prints it as one
    line and exits 1; its subcommand parsers are of this class too."""

    def error(self, message):
        raise GapnetError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="gapnet", description="GAP feature-head tumor classifier harness")
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

    p = sub.add_parser("extract", help="run a checkpoint's feature head, write per-sample vectors")
    p.add_argument("config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint", required=True)
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's names the allocation it could not make
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (GapnetError, OSError) as e:  # any other OSError: a path of the wrong kind
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
