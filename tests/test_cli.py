import ctypes
import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gapnet import backbone, cli, kernels
from gapnet import train as train_mod
from gapnet import data as datamod
from gapnet.backbone import load_feature_map, save_tensor
from gapnet.cli import main
from gapnet.data import ManifestRecord, load_manifest, save_manifest
from gapnet.pipeline import Model, ModelSpec, load_checkpoint, save_checkpoint
from gapnet.train import TrainConfig, train_loop
from synth import blob_dataset, save_pgm


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    (root / "tumor").mkdir()
    (root / "non_tumor").mkdir()
    for subj, label, img in blob_dataset(n_subjects=10, per_subject=3, size=64, seed=21):
        sub = "tumor" if label else "non_tumor"
        n = len(list((root / sub).glob(f"{subj}_*")))
        save_pgm(img, root / sub / f"{subj}_axial_{n}.pgm")
    return root


def write_config(path, manifest, out_dir, classifier="dfn", seed=21, **train):
    cfg = {
        "seed": seed,
        "dataset": {"manifest": str(manifest), "mode": "images"},
        "model": {"backbone": "toy_cnn", "head_input_channels": 16,
                  "classifier": classifier},
        "train": {"max_epochs": 4, "batch_size": 8, **train},
        "output_dir": str(out_dir),
    }
    path.write_text(json.dumps(cfg, indent=1))
    return path


def seeded_checkpoint(cfg, directory):
    """Saves the untrained model of config file ``cfg``, drawn from its seed, as a
    checkpoint in ``directory``; returns the directory as a string."""
    obj = json.loads(cfg.read_text())
    save_checkpoint(Model(ModelSpec.from_dict(obj["model"]), seed=obj["seed"]), directory)
    return str(directory)


def test_prepare_builds_manifest_and_tensors(raw_dir, tmp_path):
    out = tmp_path / "work" / "manifest.jsonl"
    rc = main(["prepare", str(raw_dir), str(out), "--seed", "3",
               "--split", "0.8,0.2", "--level", "subject", "--image-size", "64"])
    assert rc == 0
    records = load_manifest(out)
    assert len(records) == 30
    assert all((out.parent / r.path).exists() for r in records)
    planes = {r.plane for r in records}
    assert planes == {"axial"}
    subjects_by_split = {}
    for r in records:
        assert subjects_by_split.setdefault(r.subject_id, r.split) == r.split


def test_prepare_idempotent_bytes(raw_dir, tmp_path):
    args = ["--seed", "5", "--balance-to", "18", "--split", "0.75,0.25",
            "--image-size", "64"]
    a = tmp_path / "a" / "m.jsonl"
    b = tmp_path / "b" / "m.jsonl"
    assert main(["prepare", str(raw_dir), str(a)] + args) == 0
    assert main(["prepare", str(raw_dir), str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()
    ta = sorted((a.parent / "tensors").iterdir())
    tb = sorted((b.parent / "tensors").iterdir())
    assert [t.name for t in ta] == [t.name for t in tb]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(ta, tb))


def test_prepare_manifest_only_balances_without_pixels(tmp_path):
    from gapnet.data import ManifestRecord

    recs = [ManifestRecord(f"t{i}", f"t{i}.pgm", 1, f"ts{i%5}") for i in range(20)]
    recs += [ManifestRecord(f"n{i}", f"n{i}.pgm", 0, f"ns{i%9}") for i in range(50)]
    src = tmp_path / "mock.jsonl"
    save_manifest(recs, src)
    out = tmp_path / "balanced.jsonl"
    rc = main(["prepare", str(src), str(out), "--seed", "7",
               "--balance-to", "50", "--manifest-only"])
    assert rc == 0
    records = load_manifest(out)
    assert sum(r.label == 1 for r in records) == 50
    assert sum(r.label == 0 for r in records) == 50
    assert not (tmp_path / "tensors").exists()


def test_balancing_as_its_own_step_augments_the_pixels(raw_dir, tmp_path):
    args = ["--seed", "5", "--split", "0.75,0.25", "--image-size", "64"]
    one = tmp_path / "one" / "m.jsonl"
    assert main(["prepare", str(raw_dir), str(one), "--balance-to", "18"] + args) == 0
    balanced = tmp_path / "balanced.jsonl"
    assert main(["prepare", str(raw_dir), str(balanced), "--balance-to", "18",
                 "--manifest-only"] + args) == 0
    two = tmp_path / "two" / "m.jsonl"
    assert main(["prepare", str(balanced), str(two)] + args) == 0
    assert one.read_bytes() == two.read_bytes()
    records = load_manifest(two)
    assert sum(r.augmented_from is not None for r in records) == 36 - 30

    for rec in records:
        prepared = (two.parent / rec.path).read_bytes()
        assert prepared == (one.parent / rec.path).read_bytes()
        if rec.augmented_from is not None:  # a transform of its source, not a copy
            source = two.parent / "tensors" / f"{rec.augmented_from}.btft"
            assert prepared != source.read_bytes()


def test_prepare_reads_record_paths_from_the_manifests_directory(tmp_path, monkeypatch):
    a = tmp_path / "a"
    a.mkdir()
    recs = []
    for i in range(4):
        save_pgm(np.full((8, 8), 40 * i, np.uint8), a / f"p{i}.pgm")
        recs.append(ManifestRecord(f"p{i}", f"p{i}.pgm", i % 2, f"s{i}"))
    save_manifest(recs, a / "m.jsonl")
    args = ["--seed", "0", "--balance-to", "3", "--level", "sample", "--image-size", "8"]
    for cwd, manifest, out in ((a, "m.jsonl", "inside"), (tmp_path, "a/m.jsonl", "outside")):
        monkeypatch.chdir(cwd)  # the input's relative paths name files in a/ either way
        assert main(["prepare", manifest, str(tmp_path / out / "m.jsonl")] + args) == 0
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    assert (inside / "m.jsonl").read_bytes() == (outside / "m.jsonl").read_bytes()
    assert len(_extracted(inside / "tensors")) == 6  # two of them augmented
    assert _extracted(inside / "tensors") == _extracted(outside / "tensors")


def test_manifest_only_output_in_another_directory_trains(raw_dir, tmp_path):
    manifest = _prepared(raw_dir, tmp_path)  # its records name tensors/*.btft beside it
    moved = tmp_path / "elsewhere" / "m.jsonl"
    assert main(["prepare", str(manifest), str(moved), "--seed", "3", "--manifest-only"]) == 0
    records = load_manifest(moved)
    assert len(records) == 30 and all(os.path.isabs(r.path) for r in records)
    cfg = write_config(tmp_path / "c.json", moved, tmp_path / "run", seed=0, max_epochs=1)
    assert main(["train", str(cfg)]) == 0


def test_extract_with_a_checkpoint_writes_its_trained_features(raw_dir, tmp_path):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn",
                       max_epochs=2, learning_rate=3e-3)
    assert main(["train", str(cfg)]) == 0
    ckpt = tmp_path / "run" / "checkpoint"
    seed_ckpt = seeded_checkpoint(cfg, tmp_path / "seed_ckpt")
    for out, source in (("trained", str(ckpt)), ("seeded", seed_ckpt)):
        assert main(["extract", str(cfg), "--out-dir", str(tmp_path / out),
                     "--checkpoint", source]) == 0
    model = load_checkpoint(ckpt)
    records = load_manifest(manifest)
    assert len(list((tmp_path / "trained").glob("*.btft"))) == len(records) == 30
    assert _committed(tmp_path / "trained") == [rec.sample_id for rec in records]
    for rec in records:
        want = model.features(model.encode(load_feature_map(manifest.parent / rec.path))[None])[0]
        got = load_feature_map(tmp_path / "trained" / f"{rec.sample_id}.btft")
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
        seeded = load_feature_map(tmp_path / "seeded" / f"{rec.sample_id}.btft")
        assert np.linalg.norm(seeded - want) > 1e-3 * np.linalg.norm(want)


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["prepare", str(tmp_path / "nope"), str(tmp_path / "m.jsonl"), "--seed", "1"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_running_out_of_memory_exits_2_with_one_line(raw_dir, tmp_path, monkeypatch, capsys):
    def no_room(*args, **kwargs):  # numpy's MemoryError, without the huge allocation
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    monkeypatch.setattr(cli.datamod, "resize_bilinear", no_room)
    rc = main(["prepare", str(raw_dir), str(tmp_path / "m.jsonl"), "--seed", "1",
               "--image-size", "100000"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: out of memory: Unable to allocate 74.5 GiB")
    assert len(err.splitlines()) == 1

    monkeypatch.setattr(cli, "Model", no_room)
    (tmp_path / "m.jsonl").write_text("")
    cfg = write_config(tmp_path / "big.json", tmp_path / "m.jsonl", tmp_path / "run")
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and len(err.splitlines()) == 1


def test_train_eval_report_cycle(raw_dir, tmp_path):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0

    runs = []
    for clf in ("dfn", "fcnn"):
        cfg = write_config(tmp_path / f"{clf}.json", manifest, tmp_path / "runs" / clf,
                           classifier=clf, learning_rate=3e-3)
        assert main(["train", str(cfg)]) == 0
        run_dir = tmp_path / "runs" / clf
        assert (run_dir / "checkpoint" / "model.json").exists()
        # no timing.json: eval takes seconds_per_epoch from epochs.csv
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoint", "epochs.csv"]
        assert main(["eval", str(cfg), str(run_dir / "checkpoint")]) == 0
        obj = json.loads((run_dir / "metrics.json").read_text())
        assert list(obj) == ["accuracy", "precision", "recall", "f1", "confusion",
                             "seconds_per_epoch", "test_ms_per_image", "model",
                             "config_fingerprint", "seed", "undefined_metrics"]
        epochs = (run_dir / "epochs.csv").read_text().splitlines()[1:]
        assert obj["seconds_per_epoch"] == float(np.mean([float(line.split(",")[6])
                                                          for line in epochs]))
        cm = obj["confusion"]
        assert list(cm) == ["TP", "TN", "FP", "FN"]
        assert obj["accuracy"] == (cm["TP"] + cm["TN"]) / sum(cm.values())
        assert obj["precision"] == (cm["TP"] / (cm["TP"] + cm["FP"]) if cm["TP"] + cm["FP"]
                                    else 0.0)
        assert obj["recall"] == cm["TP"] / (cm["TP"] + cm["FN"])
        spec = ModelSpec.from_dict(json.loads(cfg.read_text())["model"])
        assert (obj["model"], obj["config_fingerprint"], obj["seed"]) == (
            clf, spec.fingerprint(), 21)
        assert (run_dir / "confusion.csv").exists()
        assert (run_dir / "confusion.svg").exists()
        runs.append(run_dir)

    # an output directory train never wrote has no epochs.csv, so no time per epoch
    cfg = write_config(tmp_path / "fresh.json", manifest, tmp_path / "fresh")
    assert main(["eval", str(cfg), str(runs[0] / "checkpoint")]) == 0
    assert json.loads((tmp_path / "fresh" / "metrics.json").read_text())["seconds_per_epoch"] == 0

    table = tmp_path / "comparison.csv"
    assert main(["report"] + [str(r) for r in runs] + ["--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "Model,Accuracy,Precision,Recall,F1"
    assert len(lines) == 3 and lines[1].startswith("dfn,")


def test_eval_checkpoint_mismatch_exits_1(raw_dir, tmp_path, capsys):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0
    cfg_dfn = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    assert main(["train", str(cfg_dfn)]) == 0
    cfg_fcnn = write_config(tmp_path / "fcnn.json", manifest, tmp_path / "run2", "fcnn")
    rc = main(["eval", str(cfg_fcnn), str(tmp_path / "run" / "checkpoint")])
    assert rc == 1
    assert "fingerprint" in capsys.readouterr().err


class Killed(Exception):
    """Stands in for a kill in the middle of eval's file writes."""


def test_an_interrupted_eval_keeps_the_last_whole_metrics(tmp_path, monkeypatch):
    # checkpoint b evaluated over checkpoint a's output directory, the eval cut at each
    # of its file writes in turn: metrics.json, written last, stays a's until b's
    # confusion files are in place, and no temp file is left behind
    model = {"head_input_channels": 8, "projection_dim": 6, "classifier": "fcnn",
             "hidden_widths": [4]}
    cfg = _config(tmp_path, model=model)
    rng = np.random.default_rng(41)
    records = []
    for k in range(8):
        save_tensor(rng.standard_normal((3, 3, 8)).astype(np.float32), tmp_path / f"m{k}.btft")
        records.append(ManifestRecord(f"m{k}", f"m{k}.btft", k % 2, f"s{k}", split="val"))
    save_manifest(records, tmp_path / "m.jsonl")
    for seed in (1, 2):
        save_checkpoint(Model(ModelSpec.from_dict(model), seed=seed), tmp_path / f"ckpt{seed}")
    run = tmp_path / "run"
    assert main(["eval", cfg, str(tmp_path / "ckpt2")]) == 0  # b's output, whole
    second = _scored(run)
    real_replace = os.replace  # every file write ends in one, atomically
    for cut in itertools.count(1):
        assert main(["eval", cfg, str(tmp_path / "ckpt1")]) == 0
        assert _scored(run) != second  # the two checkpoints score apart
        first = (run / "metrics.json").read_bytes()
        writes = []

        def replace(src, dst):
            writes.append(dst)
            if len(writes) == cut:
                raise Killed(dst)
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        try:
            main(["eval", cfg, str(tmp_path / "ckpt2")])
        except Killed:
            pass
        finally:
            monkeypatch.undo()
        assert sorted(p.name for p in run.iterdir()) == ["confusion.csv", "confusion.svg",
                                                         "metrics.json"]
        if len(writes) < cut:  # the eval ran to its end
            break
        assert (run / "metrics.json").read_bytes() == first, cut
    assert cut == 4 and [os.path.basename(w) for w in writes] == [
        "confusion.csv", "confusion.svg", "metrics.json"]
    assert _scored(run) == second


def test_extract_writes_projection_vectors(raw_dir, tmp_path):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    out_dir = tmp_path / "features"
    assert main(["extract", str(cfg), "--out-dir", str(out_dir),
                 "--checkpoint", seeded_checkpoint(cfg, tmp_path / "ckpt")]) == 0
    from gapnet.backbone import load_feature_map

    files = sorted(out_dir.glob("*.btft"))
    assert len(files) == 30
    assert all(load_feature_map(f).shape == (512,) for f in files)


def test_config_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"manifest": "m.jsonl"}}))
    assert main(["train", str(cfg)]) == 1
    assert "seed" in capsys.readouterr().err


def test_output_lock_blocks_concurrent_runs(tmp_path):
    from gapnet.cli import OutputLock
    from gapnet.errors import GapnetError

    with OutputLock(tmp_path):
        with pytest.raises(GapnetError, match="locked"):
            with OutputLock(tmp_path):
                pass
    with OutputLock(tmp_path):  # released after exit
        pass


def test_output_lock_takes_over_a_dead_runs_lock(tmp_path):
    from gapnet.cli import OutputLock

    ended = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    lock = tmp_path / ".lock"
    lock.write_text(ended.stdout)  # what a killed run leaves behind
    with OutputLock(tmp_path):
        assert int(lock.read_text()) == os.getpid()
    assert not any(tmp_path.iterdir())  # the lock file goes on exit


def test_output_lock_ignores_a_live_pid_that_holds_no_lock(tmp_path):
    from gapnet.cli import OutputLock

    lock = tmp_path / ".lock"
    for pid in (1, os.getpid()):  # a reused PID: the process is alive but holds no lock
        lock.write_text(f"{pid}\n")
        with OutputLock(tmp_path):
            assert int(lock.read_text()) == os.getpid()
        assert not lock.exists()


def test_output_lock_is_free_once_its_holder_is_killed(tmp_path):
    from gapnet.cli import OutputLock
    from gapnet.errors import GapnetError

    hold = ("import sys, time\nfrom gapnet.cli import OutputLock\n"
            "with OutputLock(sys.argv[1]):\n    print('held', flush=True)\n    time.sleep(60)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-c", hold, str(tmp_path)], env=env,
                          stdout=subprocess.PIPE, text=True) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            with pytest.raises(GapnetError, match=f"pid {holder.pid}"):
                with OutputLock(tmp_path):
                    pass
        finally:
            holder.kill()  # SIGKILL: the holder runs no exit code
    assert (tmp_path / ".lock").read_text() == f"{holder.pid}\n"  # left behind
    with OutputLock(tmp_path):
        assert int((tmp_path / ".lock").read_text()) == os.getpid()
    assert not any(tmp_path.iterdir())


def test_output_lock_retries_when_its_file_was_removed_before_the_flock(tmp_path, monkeypatch):
    from gapnet import cli
    from gapnet.errors import GapnetError

    real_flock = cli.fcntl.flock
    removed = []

    def flock(fd, operation):
        if not removed:  # the run that held the opened file ends and removes it
            (tmp_path / ".lock").unlink()
            removed.append(fd)
        return real_flock(fd, operation)

    monkeypatch.setattr(cli.fcntl, "flock", flock)
    with cli.OutputLock(tmp_path) as lock:
        assert os.path.samestat(os.fstat(lock.fd), os.stat(tmp_path / ".lock"))
        with pytest.raises(GapnetError, match="locked"):
            with cli.OutputLock(tmp_path):
                pass


def test_train_into_a_locked_directory_exits_1(tmp_path, capsys):
    from gapnet.cli import OutputLock

    cfg = _config(tmp_path)
    (tmp_path / "run").mkdir()
    with OutputLock(tmp_path / "run"):
        assert main(["train", cfg]) == 1
    assert capsys.readouterr().err == (f"error: output directory is locked by another run "
                                       f"(pid {os.getpid()}): {tmp_path / 'run' / '.lock'}\n")


# ------------------------------------------------------------ extract's record

SMALL_HEAD = {"head_input_channels": 8, "projection_dim": 6, "classifier": "fcnn",
              "hidden_widths": [4]}


def _small_extract(tmp_path, name, ids, seed):
    """The argv, less ``--out-dir``, of an extract of 3x3x8 maps ``m<k>`` for ``k`` in
    ``ids``, in that order, through a seed-``seed`` head; writes what it reads."""
    records = []
    for k in ids:
        path = tmp_path / f"m{k}.btft"
        if not path.exists():
            save_tensor(np.random.default_rng(k).standard_normal((3, 3, 8)), path)
        records.append(ManifestRecord(f"m{k}", path.name, k % 2, f"s{k}", split="val"))
    save_manifest(records, tmp_path / f"{name}.jsonl")
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"seed": seed, "dataset": {"manifest": f"{name}.jsonl"},
                               "model": SMALL_HEAD}))
    save_checkpoint(Model(ModelSpec.from_dict(SMALL_HEAD), seed=seed), tmp_path / f"ckpt{seed}")
    return ["extract", str(cfg), "--checkpoint", str(tmp_path / f"ckpt{seed}")]


def _committed(out_dir):
    """The ids ``extract.json`` lists, once its sha256 is checked against their files'
    bytes in that order; None when there is no record or only an unfinished one, which
    has no sha256."""
    record = out_dir / "extract.json"
    if not record.exists():
        return None
    obj = json.loads(record.read_text())
    if "sha256" not in obj:
        return None
    digest = hashlib.sha256()
    for sample_id in obj["ids"]:
        digest.update((out_dir / f"{sample_id}.btft").read_bytes())
    assert obj["sha256"] == digest.hexdigest()
    return obj["ids"]


def test_extract_rewrites_its_vectors_in_place_and_commits_them_last(tmp_path):
    ids = [5, 2, 7, 0, 3, 6, 1, 4]
    extract = _small_extract(tmp_path, "a", ids, seed=1)
    out = tmp_path / "v"
    assert main(extract + ["--out-dir", str(out)]) == 0
    assert _committed(out) == [f"m{k}" for k in ids]  # in manifest order
    record = json.loads((out / "extract.json").read_text())
    assert record["config_fingerprint"] == ModelSpec.from_dict(SMALL_HEAD).fingerprint()
    assert str(tmp_path) not in (out / "extract.json").read_text()
    inodes = {p.name: p.stat().st_ino for p in out.iterdir() if p.suffix == ".btft"}
    with open(out / "m0.btft", "ab") as fh:  # a longer file is cut to length
        fh.write(b"tail")
    assert main(extract + ["--out-dir", str(out)]) == 0
    assert {p.name: p.stat().st_ino for p in out.iterdir() if p.suffix == ".btft"} == inodes
    assert main(extract + ["--out-dir", str(tmp_path / "fresh")]) == 0
    assert _extracted(out) == _extracted(tmp_path / "fresh")


@pytest.mark.parametrize("kind", ["symlink", "hard-link", "fifo", "fifo-with-a-reader"])
def test_extract_replaces_a_link_or_fifo_at_a_vectors_name(tmp_path, kind):
    extract = _small_extract(tmp_path, "a", range(4), seed=1)
    out = tmp_path / "v"
    assert main(extract + ["--out-dir", str(out)]) == 0
    want = _extracted(out)
    other, name = tmp_path / "other", out / "m2.btft"
    other.write_bytes(b"not a vector")
    name.unlink()
    if kind == "symlink":
        name.symlink_to(other)
    elif kind == "hard-link":
        os.link(other, name)
    else:
        os.mkfifo(name)
    reader = os.open(name, os.O_RDONLY | os.O_NONBLOCK) if kind == "fifo-with-a-reader" else None

    def blocked(signum, frame):
        raise AssertionError("extract blocked on a FIFO")
    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(20)
    try:
        assert main(extract + ["--out-dir", str(out)]) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if reader is not None:
            os.close(reader)
    assert other.read_bytes() == b"not a vector" and os.stat(other).st_nlink == 1
    assert name.is_file() and not name.is_symlink()
    assert _extracted(out) == want


def test_extract_removes_only_the_stale_vectors_its_last_record_listed(tmp_path):
    out = tmp_path / "v"
    a = _small_extract(tmp_path, "a", range(8), seed=1) + ["--out-dir", str(out)]
    b = _small_extract(tmp_path, "b", range(2, 10), seed=2) + ["--out-dir", str(out)]
    assert main(b[:-1] + [str(tmp_path / "fresh")]) == 0
    assert main(a) == 0
    (out / "mine.btft").write_bytes(b"the user's")
    assert main(b) == 0  # m0 and m1 left b's manifest
    assert _extracted(out) == sorted(_extracted(tmp_path / "fresh")
                                     + [("mine.btft", b"the user's")])
    # a record gapnet did not write names nothing to remove
    for foreign in ({"ids": ["mine"]},
                    {"format": cli.EXTRACT_FORMAT, "ids": ["mine", "../m0"]}):
        (out / "extract.json").write_text(json.dumps(foreign))
        assert main(a) == 0
        assert {"mine.btft", "m8.btft", "m9.btft"} <= {p.name for p in out.iterdir()}
        assert main(b) == 0


def test_an_extract_after_a_cut_one_removes_what_the_cut_run_wrote(tmp_path, monkeypatch):
    # a, then b cut after its last vector's write began, then c: the vectors of ids that
    # only b had are c's to remove, and the directory ends as a fresh extract of c
    out = tmp_path / "v"
    a = _small_extract(tmp_path, "a", range(8), seed=1) + ["--out-dir", str(out)]
    b = _small_extract(tmp_path, "b", range(2, 10), seed=2) + ["--out-dir", str(out)]
    c = _small_extract(tmp_path, "c", range(5), seed=3) + ["--out-dir", str(out)]
    assert main(c[:-1] + [str(tmp_path / "fresh")]) == 0
    assert main(a) == 0
    real_rewrite = cli.rewrite_tensor

    def rewrite(t, path):
        data = real_rewrite(t, path)
        if Path(path).name == "m9.btft":
            os.truncate(path, len(data) // 2)  # a torn write
            raise Killed(path)
        return data
    monkeypatch.setattr(cli, "rewrite_tensor", rewrite)
    with pytest.raises(Killed):
        main(b)
    monkeypatch.undo()
    assert {"m8.btft", "m9.btft"} <= {p.name for p in out.iterdir()}
    assert _committed(out) is None
    assert main(c) == 0
    assert _extracted(out) == _extracted(tmp_path / "fresh")


def test_extract_into_a_locked_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "v"
    out.mkdir()
    with cli.OutputLock(out):
        assert main(_small_extract(tmp_path, "a", range(4), seed=1)
                    + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: output directory is locked by another run "
                                       f"(pid {os.getpid()}): {out / '.lock'}\n")
    assert not any(out.iterdir())


def test_an_interrupted_extract_never_commits_mixed_vectors(tmp_path, monkeypatch):
    # generation b extracted over generation a, cut at each of its file operations in
    # turn: an unfinished record replaces a's first and b's finished one comes last, so
    # the directory holds a's finished record, b's, or none; a re-run gives b's bytes and
    # nothing else; no temp file is left behind
    out = tmp_path / "v"
    a = _small_extract(tmp_path, "a", range(8), seed=1) + ["--out-dir", str(out)]
    b = _small_extract(tmp_path, "b", range(2, 10), seed=2) + ["--out-dir", str(out)]
    assert main(b[:-1] + [str(tmp_path / "fresh")]) == 0
    want = _extracted(tmp_path / "fresh")
    real_replace, real_unlink, real_rewrite = os.replace, os.unlink, cli.rewrite_tensor
    for cut in itertools.count(1):
        assert main(a) == 0
        assert _committed(out) == [f"m{k}" for k in range(8)]
        ops = []

        def op(kind, path):
            path = Path(path)
            if path.parent == out and not path.name.startswith("."):  # not the lock or a temp
                ops.append((kind, path.name))
                if len(ops) == cut:
                    raise Killed(path)

        def replace(src, dst):
            op("replace", dst)
            real_replace(src, dst)

        def unlink(path, *args, **kwargs):
            op("unlink", path)
            real_unlink(path, *args, **kwargs)

        def rewrite(t, path):
            data = real_rewrite(t, path)
            try:
                op("write", path)
            except Killed:
                os.truncate(path, len(data) // 2)  # a torn write
                raise
            return data
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        monkeypatch.setattr(cli, "rewrite_tensor", rewrite)
        try:
            main(b)
        except Killed:
            pass
        finally:
            monkeypatch.undo()
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
        if len(ops) < cut:  # the extract ran to its end
            break
        assert _committed(out) in (None, [f"m{k}" for k in range(8)])
        assert main(b) == 0
        # the unfinished record still names every stale vector a cut left behind
        assert _extracted(out) == want
    assert _committed(out) == [f"m{k}" for k in range(2, 10)]
    assert cut == 13 and ops == [("replace", "extract.json"), ("unlink", "m0.btft"),
                                 ("unlink", "m1.btft"),
                                 *[("write", f"m{k}.btft") for k in range(2, 10)],
                                 ("replace", "extract.json")]
    assert _extracted(out) == want


# ------------------------------------------------------------ encode cache

def _prepared(raw_dir, tmp_path, seed="3"):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", seed,
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0
    return manifest


def _cache_files(manifest):
    return sorted(p for p in (manifest.parent / ".gapnet-cache").rglob("*") if p.is_file())


def _one_segment(manifest, entries):
    """The cache holds a single segment of ``entries`` inputs; returns its two files."""
    rows, keys = _cache_files(manifest)
    assert (rows.suffix, keys.suffix) == (".btft", ".keys") and rows.stem == keys.stem
    lines = keys.read_text().splitlines()
    assert len(lines) == entries == len({line.split()[0] for line in lines})
    assert load_feature_map(rows).shape == (entries, 16)
    return keys, rows


@pytest.fixture
def conv_calls(monkeypatch):
    """Counts conv2d_forward calls: two (stage 1 and 2) per encoded image."""
    calls = []
    real = kernels.conv2d_forward

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "conv2d_forward", spy)
    return calls


def _run_bytes(run_dir):
    lines = (run_dir / "epochs.csv").read_text().splitlines()
    return ([line.rsplit(",", 1)[0] for line in lines],  # timing column stripped
            (run_dir / "checkpoint" / "params.btft").read_bytes())


def _extracted(out_dir):
    return [(p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())]


def _scored(run_dir):
    """The bytes of what eval wrote, ``test_ms_per_image``'s line stripped."""
    metrics = [line for line in (run_dir / "metrics.json").read_text().splitlines()
               if '"test_ms_per_image"' not in line]
    return metrics, [(run_dir / name).read_bytes() for name in ("confusion.csv", "confusion.svg")]


def test_second_head_trains_on_cached_gap_vectors(raw_dir, tmp_path, capsys, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "dfn", "dfn")
    capsys.readouterr()
    assert main(["train", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(", 0 of 30 inputs from the encode cache\n")
    _one_segment(manifest, 30)

    conv_calls.clear()
    cfg = write_config(tmp_path / "hit.json", manifest, tmp_path / "hit", "fcnn")
    assert main(["train", str(cfg)]) == 0
    assert conv_calls == []  # every input came from the cache
    assert capsys.readouterr().out.endswith(", 30 of 30 inputs from the encode cache\n")

    shutil.rmtree(manifest.parent / ".gapnet-cache")
    cfg = write_config(tmp_path / "miss.json", manifest, tmp_path / "miss", "fcnn")
    assert main(["train", str(cfg)]) == 0
    assert len(conv_calls) == 2 * 30
    assert _run_bytes(tmp_path / "hit") == _run_bytes(tmp_path / "miss")

    # eval scores the checkpoint's cached GAP vectors: its frozen backbone is the seed's
    conv_calls.clear()
    capsys.readouterr()
    evaluate = ["eval", str(cfg), str(tmp_path / "miss" / "checkpoint")]
    assert main(evaluate) == 0
    assert conv_calls == []
    assert capsys.readouterr().out.endswith(", 6 of 6 inputs from the encode cache\n")
    hit = _scored(tmp_path / "miss")

    shutil.rmtree(manifest.parent / ".gapnet-cache")
    assert main(evaluate) == 0
    assert len(conv_calls) == 2 * 6
    assert capsys.readouterr().out.endswith(", 0 of 6 inputs from the encode cache\n")
    _one_segment(manifest, 6)
    assert _scored(tmp_path / "miss") == hit


def test_eval_of_a_split_train_never_read_caches_it(raw_dir, tmp_path, conv_calls):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.6,0.2,0.2", "--image-size", "224"]) == 0
    tests = sum(rec.split == "test" for rec in load_manifest(manifest))
    assert tests > 0
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn", max_epochs=1)
    assert main(["train", str(cfg)]) == 0
    _one_segment(manifest, 30 - tests)

    evaluate = ["eval", str(cfg), str(tmp_path / "run" / "checkpoint"), "--split", "test"]
    conv_calls.clear()
    assert main(evaluate) == 0
    assert len(conv_calls) == 2 * tests
    _one_segment(manifest, 30)
    scored = _scored(tmp_path / "run")
    conv_calls.clear()
    assert main(evaluate) == 0
    assert conv_calls == []
    assert _scored(tmp_path / "run") == scored


def test_extract_cache_hits_match_misses(raw_dir, tmp_path, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    extract = ["extract", str(cfg), "--checkpoint", seeded_checkpoint(cfg, tmp_path / "ckpt")]
    assert main(extract + ["--out-dir", str(tmp_path / "miss")]) == 0
    assert len(conv_calls) == 2 * 30
    conv_calls.clear()
    assert main(extract + ["--out-dir", str(tmp_path / "hit")]) == 0
    assert conv_calls == []
    assert _extracted(tmp_path / "hit") == _extracted(tmp_path / "miss")


def test_rewritten_inputs_and_another_backbone_miss(raw_dir, tmp_path, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    extract = ["extract", str(cfg), "--out-dir", str(tmp_path / "vectors"),
               "--checkpoint", seeded_checkpoint(cfg, tmp_path / "ckpt")]
    assert main(extract) == 0
    before = _extracted(tmp_path / "vectors")

    # one input rewritten with the same bytes and its mtime restored: ctime still moves
    tensor = sorted((manifest.parent / "tensors").iterdir())[4]
    st = tensor.stat()
    tensor.write_bytes(tensor.read_bytes())
    os.utime(tensor, ns=(st.st_atime_ns, st.st_mtime_ns))
    conv_calls.clear()
    assert main(extract) == 0
    assert len(conv_calls) == 2

    segment = _one_segment(manifest, 30)  # one entry per input, the old ones replaced
    _prepared(raw_dir, tmp_path)  # same pixels: prepare leaves every tensor file alone
    conv_calls.clear()
    assert main(extract) == 0
    assert conv_calls == []
    assert _one_segment(manifest, 30) == segment
    assert _extracted(tmp_path / "vectors") == before

    other = write_config(tmp_path / "seed.json", manifest, tmp_path / "run", "dfn", seed=22)
    conv_calls.clear()
    assert main(["extract", str(other), "--out-dir", str(tmp_path / "other"),
                 "--checkpoint", seeded_checkpoint(other, tmp_path / "ckpt22")]) == 0
    assert len(conv_calls) == 2 * 30
    assert len({p.parent for p in _cache_files(manifest)}) == 2


def _tensor_stats(manifest):
    """{tensor file name: (st_ino, st_mtime_ns)} of a prepared manifest's tensors."""
    return {e.name: (e.inode(), e.stat().st_mtime_ns)
            for e in os.scandir(manifest.parent / "tensors")}


def test_prepare_again_keeps_every_tensor_file_and_the_encode_cache(raw_dir, tmp_path, capsys):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "dfn", "dfn", max_epochs=1)
    assert main(["train", str(cfg)]) == 0
    kept = _tensor_stats(manifest)
    capsys.readouterr()

    _prepared(raw_dir, tmp_path)
    assert _tensor_stats(manifest) == kept
    cfg = write_config(tmp_path / "fcnn.json", manifest, tmp_path / "fcnn", "fcnn", max_epochs=1)
    assert main(["train", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(", 30 of 30 inputs from the encode cache\n")


@pytest.mark.parametrize("change", [["--seed", "4"], ["--level", "sample"]], ids=["seed", "level"])
def test_prepare_with_another_seed_or_level_keeps_the_shared_ids_files(raw_dir, tmp_path,
                                                                     change):
    manifest = tmp_path / "work" / "manifest.jsonl"
    args = ["prepare", str(raw_dir), str(manifest), "--balance-to", "18", "--image-size", "32"]
    assert main(args + ["--seed", "3"]) == 0
    first = {rec.sample_id for rec in load_manifest(manifest)}
    before = _tensor_stats(manifest)
    assert main(args + ["--seed", "3"] + change) == 0
    records = load_manifest(manifest)
    shared = {f"{rec.sample_id}.btft" for rec in records if rec.sample_id in first}
    assert len(shared) >= 30
    after = _tensor_stats(manifest)
    assert {name: after[name] for name in shared} == {name: before[name] for name in shared}
    for rec in records:
        assert load_feature_map(manifest.parent / rec.path).shape == (32, 32, 1)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-7]), id="truncated"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-1] + b"\x7f"), id="last-byte"),
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[:5] + b"\x09" + p.read_bytes()[6:]),
                 id="header-byte"),
    pytest.param(lambda p: p.unlink(), id="deleted"),
])
def test_prepare_rewrites_a_damaged_tensor_and_keeps_the_rest(raw_dir, tmp_path, damage):
    manifest = tmp_path / "work" / "manifest.jsonl"
    args = ["prepare", str(raw_dir), str(manifest), "--seed", "3", "--image-size", "32"]
    assert main(args) == 0
    tensors = sorted((manifest.parent / "tensors").iterdir())
    good = {p.name: p.read_bytes() for p in tensors}
    damaged = tensors[7]
    damage(damaged)
    assert not damaged.exists() or damaged.read_bytes() != good[damaged.name]
    before = _tensor_stats(manifest)
    before.pop(damaged.name, None)

    assert main(args) == 0
    assert {p.name: p.read_bytes() for p in tensors} == good  # save_tensor's bytes
    after = _tensor_stats(manifest)
    assert after.pop(damaged.name) != before.get(damaged.name)
    assert after == before
    assert sorted(p.name for p in (manifest.parent / "tensors").iterdir()) == sorted(good)


# ------------------------------------------------------------ prepare's record

@pytest.fixture
def pixel_work(monkeypatch):
    """The ids of the records whose pixels prepare computes, and the PGM files it reads."""
    done = SimpleNamespace(ids=[], pgms=[])
    load_image, load_pgm = datamod.load_image, datamod.load_pgm

    def image(rec):
        done.ids.append(rec.sample_id)
        return load_image(rec)

    def pgm(path):
        done.pgms.append(path)
        return load_pgm(path)
    monkeypatch.setattr(datamod, "load_image", image)
    monkeypatch.setattr(datamod, "load_pgm", pgm)
    return done


def _prepare_settled(argv):
    """Runs ``argv``, a prepare, twice: the second time once the file system's clock
    has passed every time the first run left on its tensors. The second run's record
    is then strictly newer than every file it names, so it can vouch for them all."""
    assert main(argv) == 0
    work = Path(argv[2]).parent
    newest = max(max(e.stat().st_mtime_ns, e.stat().st_ctime_ns)
                 for e in os.scandir(work / "tensors"))
    probe = work / "probe"
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            break
        time.sleep(0.001)
    probe.unlink()
    assert main(argv) == 0


def _same_arguments(raw, record, args):
    return args


def _another_seed(raw, record, args):
    return args + ["--seed", "4"]


def _another_image_size(raw, record, args):
    return args + ["--image-size", "48"]


REWRITTEN = "subj001_axial_1"  # a tumor image of raw_dir's


def _source_rewritten(raw, record, args):
    """One source PGM rewritten with the same bytes and its mtime put back: its ctime moves."""
    pgm = raw / "tumor" / f"{REWRITTEN}.pgm"
    st = pgm.stat()
    pgm.write_bytes(pgm.read_bytes())
    os.utime(pgm, ns=(st.st_atime_ns, st.st_mtime_ns))
    return args


def _record_deleted(raw, record, args):
    record.unlink()
    return args


def _record_truncated(raw, record, args):
    record.write_bytes(record.read_bytes()[:len(record.read_bytes()) // 2])
    return args


def _record_foreign(raw, record, args):
    record.write_text(json.dumps({**json.loads(record.read_text()), "format": "another"}))
    return args


def _record_set_back(raw, record, args):
    """The racy case: the record's mtime set back to its oldest tensor's, so no entry's
    files are strictly older than the record."""
    oldest = min(e.stat().st_mtime_ns for e in os.scandir(record.parent / "tensors"))
    os.utime(record, ns=(record.stat().st_atime_ns, oldest))
    return args


def _source_set_racy(raw, record, args):
    """The racy case for one source: its ctime moved after its tensor was written, a
    run recorded its new key, and the record's mtime was set back to that ctime."""
    _source_rewritten(raw, record, args)
    prepare = ["prepare", str(raw), str(record.parent / "m.jsonl"), "--balance-to", "18"]
    assert main(prepare + args) == 0
    ctime = (raw / "tumor" / f"{REWRITTEN}.pgm").stat().st_ctime_ns
    os.utime(record, ns=(record.stat().st_atime_ns, ctime))
    return args


def _new_ids(records, before):
    return [rec.sample_id for rec in records if rec.sample_id not in before]


def _from_the_rewritten_source(records, before):
    return [rec.sample_id for rec in records
            if (rec.augmented_from or rec.sample_id) == REWRITTEN]


def _every_id(records, before):
    return [rec.sample_id for rec in records]


@pytest.mark.parametrize("change, computed", [
    pytest.param(_same_arguments, lambda records, before: [], id="same-arguments"),
    pytest.param(_another_seed, _new_ids, id="another-seed"),
    pytest.param(_source_rewritten, _from_the_rewritten_source, id="source-rewritten"),
    pytest.param(_another_image_size, _every_id, id="another-image-size"),
    pytest.param(_record_deleted, _every_id, id="record-deleted"),
    pytest.param(_record_truncated, _every_id, id="record-truncated"),
    pytest.param(_record_foreign, _every_id, id="record-foreign"),
    pytest.param(_record_set_back, _every_id, id="record-racy"),
    pytest.param(_source_set_racy, _from_the_rewritten_source, id="source-racy"),
])
def test_prepare_computes_only_what_its_record_cannot_vouch_for(raw_dir, tmp_path, pixel_work,
                                                                 change, computed):
    raw = tmp_path / "raw"
    shutil.copytree(raw_dir, raw)
    manifest = tmp_path / "work" / "m.jsonl"
    prepare = ["prepare", str(raw), str(manifest), "--balance-to", "18"]
    args = ["--seed", "3", "--image-size", "32"]
    _prepare_settled(prepare + args)
    before = {rec.sample_id for rec in load_manifest(manifest)}
    kept, text = _tensor_stats(manifest), manifest.read_bytes()

    args = change(raw, manifest.parent / cli.PREPARE_RECORD, args)
    pixel_work.ids.clear()
    pixel_work.pgms.clear()
    assert main(prepare + args) == 0
    records = load_manifest(manifest)
    assert pixel_work.ids == computed(records, before)
    assert pixel_work.ids or change is _same_arguments
    assert len(pixel_work.pgms) == len(pixel_work.ids)

    fresh = tmp_path / "fresh" / "m.jsonl"
    assert main(prepare[:2] + [str(fresh)] + prepare[3:] + args) == 0
    assert manifest.read_bytes() == fresh.read_bytes()
    assert [(manifest.parent / rec.path).read_bytes() for rec in records] == [
        (fresh.parent / rec.path).read_bytes() for rec in records]
    if change is not _another_image_size:  # the same pixels: every shared tensor file kept
        after = _tensor_stats(manifest)
        assert {n: after[n] for n in kept if n in after} == kept
    if change is _same_arguments:
        assert manifest.read_bytes() == text


def test_prepare_keeps_another_manifests_entries_while_their_tensors_are_unchanged(
        raw_dir, tmp_path, pixel_work):
    # manifests a and b, of other seeds, prepared in turn into one directory: each keeps
    # the other's entries, so a re-run of either computes nothing, until a tensor
    # only the other names is rewritten
    work = tmp_path / "work"
    a = ["prepare", str(raw_dir), str(work / "a.jsonl"), "--balance-to", "18", "--seed", "1",
         "--image-size", "32"]
    b = a[:2] + [str(work / "b.jsonl")] + a[3:5] + ["--seed", "2"] + a[7:]
    _prepare_settled(a)
    _prepare_settled(b)
    a_ids, b_ids = ({rec.sample_id for rec in load_manifest(work / f"{n}.jsonl")} for n in "ab")
    assert a_ids - b_ids and b_ids - a_ids
    for argv in (a, b):
        pixel_work.ids.clear()
        assert main(argv) == 0
        assert pixel_work.ids == []
    rewritten = sorted(b_ids - a_ids)[0]
    tensor = work / "tensors" / f"{rewritten}.btft"
    tensor.write_bytes(tensor.read_bytes())
    assert main(a) == 0
    assert rewritten not in json.loads((work / cli.PREPARE_RECORD).read_text())["entries"]
    pixel_work.ids.clear()
    assert main(b) == 0
    assert pixel_work.ids == [rewritten]

    # entries gapnet did not write, for ids no manifest has, are dropped, not followed
    record = json.loads((work / cli.PREPARE_RECORD).read_text())
    odd = {"../x": record["entries"][rewritten], "nul": ["a\0b", None, None, None],
           "short": [], "text": "entry", "number": [1, None, None, None]}
    (work / cli.PREPARE_RECORD).write_text(json.dumps({**record,
                                                       "entries": {**record["entries"], **odd}}))
    assert main(a) == 0
    assert not odd.keys() & json.loads((work / cli.PREPARE_RECORD).read_text())["entries"].keys()


def test_a_record_that_cannot_be_written_warns_once_and_the_run_succeeds(raw_dir, tmp_path,
                                                                        capsys, pixel_work):
    manifest = tmp_path / "work" / "m.jsonl"
    (tmp_path / "work" / cli.PREPARE_RECORD).mkdir(parents=True)
    argv = ["prepare", str(raw_dir), str(manifest), "--seed", "3", "--image-size", "32"]
    for _ in range(2):  # and the next run, finding no record, computes every record
        pixel_work.ids.clear()
        assert main(argv) == 0
        assert len(pixel_work.ids) == 30
        err = capsys.readouterr().err
        assert err.startswith("warning: not recording what the tensors were made from: ")
        assert err.count("\n") == 1
    assert len(load_manifest(manifest)) == 30


def test_prepare_into_a_locked_tensor_directory_exits_1(raw_dir, tmp_path, capsys):
    work = tmp_path / "work"
    (work / "tensors").mkdir(parents=True)
    argv = ["prepare", str(raw_dir), str(work / "m.jsonl"), "--seed", "3", "--image-size", "32"]
    with cli.OutputLock(work / "tensors"):
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: output directory is locked by another run "
                                           f"(pid {os.getpid()}): {work / 'tensors' / '.lock'}\n")
        assert [p.name for p in work.iterdir()] == ["tensors"]
        assert main(argv + ["--manifest-only"]) == 0  # takes no lock and writes no record
    assert sorted(p.name for p in work.iterdir()) == ["m.jsonl", "tensors"]
    assert not any((work / "tensors").iterdir())


def _prepared_files(manifest):
    return manifest.read_bytes(), _extracted(manifest.parent / "tensors")


def test_an_interrupted_prepare_reruns_to_the_bytes_of_an_uncut_one(tmp_path, monkeypatch):
    # generation b (48x48) prepared over generation a (32x32), cut at each of its
    # os.replace calls in turn: each tensor, the record, the manifest
    raw = tmp_path / "raw"
    for k in range(6):
        sub = raw / ("tumor" if k % 2 else "non_tumor")
        sub.mkdir(parents=True, exist_ok=True)
        img = np.random.default_rng(k).integers(0, 256, (40, 40)).astype(np.uint8)
        save_pgm(img, sub / f"s{k}_axial_0.pgm")
    manifest = tmp_path / "work" / "m.jsonl"
    a = ["prepare", str(raw), str(manifest), "--seed", "1", "--image-size", "32"]
    b = a[:-1] + ["48"]
    fresh = tmp_path / "fresh" / "m.jsonl"
    assert main(b[:2] + [str(fresh)] + b[3:]) == 0
    want = _prepared_files(fresh)
    real_replace = os.replace
    for cut in itertools.count(1):
        assert main(a) == 0
        old = dict(_prepared_files(manifest)[1])
        replaces = []

        def replace(src, dst):
            replaces.append(os.path.basename(dst))
            if len(replaces) == cut:
                raise Killed(dst)
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        try:
            main(b)
        except Killed:
            pass
        finally:
            monkeypatch.undo()
        assert not [p for p in manifest.parent.rglob("*") if p.name.endswith(".tmp")]
        if len(replaces) < cut:  # the prepare ran to its end
            break
        assert main(b) == 0
        assert _prepared_files(manifest) == want
        assert not any(old[name] == data for name, data in want[1])
    ids = [rec.sample_id for rec in load_manifest(fresh)]
    assert cut == 9 and replaces == [f"{i}.btft" for i in ids] + [cli.PREPARE_RECORD, "m.jsonl"]
    assert _prepared_files(manifest) == want


def _prefix_dirs(manifest):
    return {p.name for p in (manifest.parent / ".gapnet-cache").iterdir()}


def _fake_prefixes(manifest, names, mtime_s):
    """Cache prefix directories ``names``, each with one file, touched at ``mtime_s[i]``."""
    for name, when in zip(names, mtime_s):
        d = manifest.parent / ".gapnet-cache" / name
        d.mkdir()
        (d / "0.keys").write_text("")
        os.utime(d, (when, when))


def test_cache_keeps_the_most_recently_used_prefixes(raw_dir, tmp_path, conv_calls):
    n = cli.CACHE_PREFIXES
    manifest = _prepared(raw_dir, tmp_path)
    models = {}
    for seed in (21, 22, 23):
        cfg = write_config(tmp_path / f"s{seed}.json", manifest, tmp_path / "run", seed=seed)
        models[seed] = ["extract", str(cfg), "--out-dir", str(tmp_path / f"v{seed}"),
                        "--checkpoint", seeded_checkpoint(cfg, tmp_path / f"ckpt{seed}")]
    assert main(models[21]) == 0
    (read,) = _prefix_dirs(manifest)
    now = time.time()
    fakes = [f"{k:032x}" for k in range(n)]
    _fake_prefixes(manifest, fakes, [now - 100 + k for k in range(n)])
    os.utime(manifest.parent / ".gapnet-cache" / read, (now - 1000, now - 1000))

    conv_calls.clear()
    assert main(models[21]) == 0  # all hits: marks its prefix used, removes nothing
    assert conv_calls == []
    assert _prefix_dirs(manifest) == {read, *fakes}
    assert main(models[22]) == 0  # n + 2 prefixes: the two least recently used go
    (written,) = _prefix_dirs(manifest) - {read, *fakes}
    assert _prefix_dirs(manifest) == {read, written, *fakes[2:]}

    # every other prefix used after the one written now: the current one still stays
    later = sorted(_prefix_dirs(manifest))
    for k, name in enumerate(later):
        os.utime(manifest.parent / ".gapnet-cache" / name, (now + 1000 + k,) * 2)
    assert main(models[23]) == 0
    (current,) = _prefix_dirs(manifest) - set(later)
    assert _prefix_dirs(manifest) == {current, *later[1:]}
    assert len(_prefix_dirs(manifest)) == n


def test_a_failed_prefix_removal_warns_once_and_the_run_succeeds(raw_dir, tmp_path, capsys,
                                                                 monkeypatch):
    manifest = _prepared(raw_dir, tmp_path)
    (manifest.parent / ".gapnet-cache").mkdir()
    _fake_prefixes(manifest, [f"{k:032x}" for k in range(cli.CACHE_PREFIXES + 3)],
                   [1000] * (cli.CACHE_PREFIXES + 3))

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(shutil, "rmtree", refuse)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run")
    capsys.readouterr()
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "v"),
                 "--checkpoint", seeded_checkpoint(cfg, tmp_path / "ckpt")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert len(_prefix_dirs(manifest)) == cli.CACHE_PREFIXES + 4
    assert len(list((tmp_path / "v").glob("*.btft"))) == 30
    assert _committed(tmp_path / "v") == [rec.sample_id for rec in load_manifest(manifest)]


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda keys, rows: rows.write_bytes(rows.read_bytes()[:-5]), id="truncated"),
    pytest.param(lambda keys, rows: save_tensor(np.zeros((30, 3), np.float32), rows),
                 id="wrong-shape"),
    pytest.param(lambda keys, rows: keys.write_text(keys.read_text()[:-40]), id="torn-keys"),
    pytest.param(lambda keys, rows: rows.unlink(), id="rows-missing"),
])
def test_bad_cache_segment_is_recomputed_and_rewritten(raw_dir, tmp_path, capsys, conv_calls,
                                                       corrupt):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    extract = ["extract", str(cfg), "--checkpoint", seeded_checkpoint(cfg, tmp_path / "ckpt")]
    assert main(extract + ["--out-dir", str(tmp_path / "a")]) == 0
    keys, rows = _one_segment(manifest, 30)
    good = keys.read_bytes(), rows.read_bytes()
    corrupt(keys, rows)
    conv_calls.clear()
    capsys.readouterr()
    assert main(extract + ["--out-dir", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    assert len(conv_calls) == 2 * 30
    assert _one_segment(manifest, 30) == (keys, rows)
    assert (keys.read_bytes(), rows.read_bytes()) == good
    assert _extracted(tmp_path / "a") == _extracted(tmp_path / "b")


def _cache_is_a_file(manifest, monkeypatch):
    (manifest.parent / ".gapnet-cache").write_text("")


def _cache_writes_denied(manifest, monkeypatch):
    real_open = open

    def read_only_cache(path, *args, **kwargs):
        if ".gapnet-cache" in str(path):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(backbone, "open", read_only_cache, raising=False)


@pytest.mark.parametrize("block", [_cache_is_a_file, _cache_writes_denied])
def test_unwritable_cache_runs_uncached_with_one_warning(raw_dir, tmp_path, capsys,
                                                         monkeypatch, block):
    manifest = _prepared(raw_dir, tmp_path)
    block(manifest, monkeypatch)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn", max_epochs=1)
    capsys.readouterr()
    assert main(["train", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert _cache_files(manifest) == []


@pytest.mark.parametrize("block", [_cache_is_a_file, _cache_writes_denied])
def test_unwritable_cache_evals_uncached_with_one_warning(raw_dir, tmp_path, capsys,
                                                          monkeypatch, block):
    scored = []
    for name in ("cached", "blocked"):
        manifest = _prepared(raw_dir, tmp_path / name)
        cfg = write_config(tmp_path / name / "dfn.json", manifest, tmp_path / name / "run")
        spec = ModelSpec.from_dict(json.loads(cfg.read_text())["model"])
        save_checkpoint(Model(spec, seed=21), tmp_path / name / "ckpt")
        if name == "blocked":
            block(manifest, monkeypatch)
        capsys.readouterr()
        assert main(["eval", str(cfg), str(tmp_path / name / "ckpt")]) == 0
        scored.append(_scored(tmp_path / name / "run"))
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert _cache_files(manifest) == []
    assert scored[0] == scored[1]


def _trainable_config(manifest, tmp_path, **train):
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn", **train)
    obj = json.loads(cfg.read_text())
    obj["model"]["backbone_trainable"] = True
    cfg.write_text(json.dumps(obj))
    return cfg


def test_trainable_backbone_trains_uncached_and_its_checkpoint_scores_cached(
        raw_dir, tmp_path, capsys, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = _trainable_config(manifest, tmp_path, max_epochs=1)
    capsys.readouterr()
    assert main(["train", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(f"-> {tmp_path / 'run'}\n")  # no cache to report
    assert not (manifest.parent / ".gapnet-cache").exists()

    # the loaded checkpoint's backbone is frozen: extract encodes each input once,
    # under the fine-tuned weights' own tag, not the seed's
    ckpt = str(tmp_path / "run" / "checkpoint")
    conv_calls.clear()
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "vectors"),
                 "--checkpoint", ckpt]) == 0
    assert len(conv_calls) == 2 * 30
    keys, _ = _one_segment(manifest, 30)
    seed_model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16), seed=21)
    assert keys.parent.name != cli._EncodeCache(manifest, seed_model).dir.name

    conv_calls.clear()
    capsys.readouterr()
    assert main(["eval", str(cfg), ckpt]) == 0
    assert conv_calls == []
    assert capsys.readouterr().out.endswith(", 6 of 6 inputs from the encode cache\n")
    hit = _scored(tmp_path / "run")

    shutil.rmtree(manifest.parent / ".gapnet-cache")
    assert main(["eval", str(cfg), ckpt]) == 0
    assert len(conv_calls) == 2 * 6
    assert _scored(tmp_path / "run") == hit


def test_a_trainable_backbone_holds_one_input_image_not_all_of_them(tmp_path):
    # tracemalloc sees numpy's buffers and Python's objects alike. Images are full
    # size: a record's own objects (its record, stat key, per-pass loss) take about
    # 2.5 KB, more than a 13x13 image's 676 bytes, so those would hide an O(N)
    image = 4 * int(np.prod(backbone.TOY_INPUT_SHAPE))
    spec = ModelSpec(backbone="toy_cnn", head_input_channels=16, backbone_trainable=True,
                     projection_dim=8, hidden_widths=(4,), dropout_rates=(0.0,))
    peaks = {}
    for n in (40, 8):  # 40 first, so one-time allocations count against it
        manifest = tmp_path / f"n{n}" / "m.jsonl"
        (manifest.parent / "tensors").mkdir(parents=True)
        rng = np.random.default_rng(n)
        records = []
        for i in range(n):
            save_tensor(rng.standard_normal(backbone.TOY_INPUT_SHAPE).astype(np.float32),
                        manifest.parent / "tensors" / f"s{i}.btft")
            records.append(ManifestRecord(f"s{i}", f"tensors/s{i}.btft", i % 2, f"p{i}",
                                          split="val" if i % 4 == 0 else "train"))
        save_manifest(records, manifest)
        model = Model(spec, seed=3)
        config = SimpleNamespace(manifest=manifest)
        tracemalloc.start()
        try:
            dataset, hits = cli.build_dataset(config, model, ("train", "val"))
            train_loop(model, dataset["train"], dataset["val"],
                       TrainConfig(seed=5, max_epochs=2, batch_size=4))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits is None
    assert peaks[40] - peaks[8] < 2 * image, (
        f"traced peak grew {(peaks[40] - peaks[8]) / image:.1f} images from 8 to 40 inputs")


@pytest.mark.parametrize("change, code", [("replace", 1), ("delete", 2)])
def test_an_input_changed_between_epochs_stops_train_with_one_line(
        raw_dir, tmp_path, capsys, monkeypatch, change, code):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = _trainable_config(manifest, tmp_path, max_epochs=3)
    victim = manifest.parent / load_manifest(manifest)[0].path
    real_update, epochs = train_mod.early_stop_update, []

    def early_stop_update(*args, **kwargs):  # runs after each epoch's val pass
        epochs.append(1)
        if len(epochs) == 1 and change == "replace":
            new = victim.with_name("new.btft")
            save_tensor(load_feature_map(victim) + np.float32(1), new)
            os.replace(new, victim)
        elif len(epochs) == 1:
            victim.unlink()
        return real_update(*args, **kwargs)

    monkeypatch.setattr(train_mod, "early_stop_update", early_stop_update)
    capsys.readouterr()
    assert main(["train", str(cfg)]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: epoch 2: ") and str(victim) in err
    assert len(epochs) == 1
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []  # no checkpoint, no lock
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def test_train_idempotent_checkpoints(raw_dir, tmp_path):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0
    csvs, ckpts = [], []
    for run in ("r1", "r2"):
        cfg = write_config(tmp_path / f"{run}.json", manifest, tmp_path / run)
        assert main(["train", str(cfg)]) == 0
        lines = (tmp_path / run / "epochs.csv").read_text().splitlines()
        csvs.append([",".join(line.split(",")[:6]) for line in lines])
        ckpts.append((tmp_path / run / "checkpoint" / "params.btft").read_bytes())
    assert csvs[0] == csvs[1]  # timing column excluded
    assert ckpts[0] == ckpts[1]


def _config(tmp_path, **fields):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    cfg = write_config(tmp_path / "c.json", manifest, tmp_path / "run")
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **fields}))
    return str(cfg)


def _bad_config(**fields):
    return lambda tmp_path: ["train", _config(tmp_path, **fields)]


def _bad_checkpoint(model_json):
    def setup(tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "model.json").write_text(model_json)
        return ["eval", _config(tmp_path), str(tmp_path / "ckpt")]
    return setup


def _pgm_path(make):
    def setup(tmp_path):
        raw = tmp_path / "raw"
        (raw / "non_tumor").mkdir(parents=True)
        (raw / "tumor").mkdir()
        for i in range(4):
            save_pgm(np.zeros((8, 8), np.uint8), raw / "non_tumor" / f"n{i}_axial_0.pgm")
        make(raw / "tumor" / "t0_axial_0.pgm")
        return ["prepare", str(raw), str(tmp_path / "m.jsonl"), "--seed", "1",
                "--level", "sample", "--image-size", "8"]
    return setup


def _dangling_symlink(path):
    path.symlink_to(path.with_name("missing.pgm"))


def _config_text(text):
    def setup(tmp_path):
        (tmp_path / "c.json").write_text(text)
        return ["train", str(tmp_path / "c.json")]
    return setup


def _bad_metrics(text):
    def setup(tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "metrics.json").write_text(text)
        return ["report", str(tmp_path / "run"), "--out", str(tmp_path / "table.csv")]
    return setup


def _bad_epochs(rows):
    def setup(tmp_path):
        save_tensor(np.zeros((224, 224, 1), np.float32), tmp_path / "x.btft")
        save_manifest([ManifestRecord("x", "x.btft", 1, "s", split="val")], tmp_path / "m.jsonl")
        cfg = write_config(tmp_path / "c.json", tmp_path / "m.jsonl", tmp_path / "run")
        spec = ModelSpec.from_dict(json.loads(cfg.read_text())["model"])
        save_checkpoint(Model(spec, seed=21), tmp_path / "ckpt")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "epochs.csv").write_text(
            "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds_per_epoch\n"
            "1,0.5,0.75,0.6,0.7,0.0001,0.01\n" + rows)
        return ["eval", str(cfg), str(tmp_path / "ckpt")]
    return setup


def _unknown_transform(tmp_path):
    save_pgm(np.zeros((8, 8), np.uint8), tmp_path / "a.pgm")
    save_manifest([ManifestRecord("a", str(tmp_path / "a.pgm"), 1, "s"),
                   ManifestRecord("a.blur", str(tmp_path / "a.pgm"), 1, "s",
                                  augmented_from="a")], tmp_path / "in.jsonl")
    return ["prepare", str(tmp_path / "in.jsonl"), str(tmp_path / "m.jsonl"), "--seed", "1",
            "--level", "sample", "--image-size", "8"]


def _missing_record_tensor(tmp_path):
    save_manifest([ManifestRecord("x", "x.btft", 1, "s", split="train")], tmp_path / "m.jsonl")
    return ["train", str(write_config(tmp_path / "c.json", tmp_path / "m.jsonl",
                                      tmp_path / "run"))]


def _three_channel_record_tensor(tmp_path):
    args = _missing_record_tensor(tmp_path)
    save_tensor(np.zeros((224, 224, 3), np.float32), tmp_path / "x.btft")
    return args


def _nan_record_tensor(tmp_path):
    save_tensor(np.full((224, 224, 1), np.nan, np.float32), tmp_path / "nan.btft")
    save_manifest([ManifestRecord("nan", "nan.btft", 1, "s", split="train")],
                  tmp_path / "m.jsonl")
    return ["train", str(write_config(tmp_path / "c.json", tmp_path / "m.jsonl",
                                      tmp_path / "run"))]


def _checkpoint_seed(seed):
    def setup(tmp_path):
        args = _missing_record_tensor(tmp_path)
        spec = ModelSpec.from_dict(json.loads((tmp_path / "c.json").read_text())["model"])
        save_checkpoint(Model(spec, seed=21), tmp_path / "ckpt")
        model_json = tmp_path / "ckpt" / "model.json"
        model_json.write_text(json.dumps({**json.loads(model_json.read_text()), "seed": seed}))
        return ["eval", args[1], str(tmp_path / "ckpt")]
    return setup


def _non_utf8_manifest(command):
    def setup(tmp_path):
        if command == "train":
            args = ["train", _config(tmp_path)]
            manifest = tmp_path / "m.jsonl"
        else:
            manifest = tmp_path / "in.jsonl"
            args = ["prepare", str(manifest), str(tmp_path / "m.jsonl"), "--seed", "1",
                    "--manifest-only"]
        manifest.write_bytes(b'{"sample_id": "a\xff"}\n')
        return args
    return setup


def _missing_checkpoint_param(tmp_path):
    args = _missing_record_tensor(tmp_path)
    spec = ModelSpec.from_dict(json.loads((tmp_path / "c.json").read_text())["model"])
    save_checkpoint(Model(spec, seed=21), tmp_path / "ckpt")
    (tmp_path / "ckpt" / "params.btft").unlink()
    return ["eval", args[1], str(tmp_path / "ckpt")]


def _a_file(tmp_path):
    (tmp_path / "afile").write_text("")
    return str(tmp_path / "afile")


def _prepare_manifest(args, seed="1"):
    def setup(tmp_path):
        (tmp_path / "in.jsonl").write_text("")
        return ["prepare", str(tmp_path / "in.jsonl"), *args(tmp_path), "--seed", seed,
                "--manifest-only"]
    return setup


def _extract_checkpoint(make, out_dir=lambda t: str(t / "vectors")):
    def setup(tmp_path):
        make(tmp_path / "ckpt")
        return ["extract", _config(tmp_path), "--out-dir", out_dir(tmp_path),
                "--checkpoint", str(tmp_path / "ckpt")]
    return setup


def _toy_checkpoint(classifier):
    def make(path):
        spec = ModelSpec.from_dict({"backbone": "toy_cnn", "head_input_channels": 16,
                                    "classifier": classifier})
        save_checkpoint(Model(spec, seed=21), path)
    return make


def _three_channel_toy_checkpoint(path):
    spec = ModelSpec.from_dict({"backbone": "toy_cnn", "head_input_channels": 16,
                                "classifier": "dfn"})
    model = Model(spec, seed=21)
    save_checkpoint(model, path)
    # the vector of a stage-1 conv built for 3 input channels: 5*5*2*8 more weights
    save_tensor(np.zeros(model.flat_params.size + 5 * 5 * 2 * 8, np.float32),
                path / "params.btft")


def _escaping_sample_id(tmp_path):
    save_manifest([ManifestRecord("../../escaped", "x.pgm", 1, "s")], tmp_path / "in.jsonl")
    return ["prepare", str(tmp_path / "in.jsonl"), str(tmp_path / "out" / "sub" / "m.jsonl"),
            "--seed", "1", "--level", "sample", "--image-size", "8"]


def _bad_record_to_prepare(*args, **fields):
    def setup(tmp_path):
        record = {"sample_id": "a", "path": "a.pgm", "label": 1, "subject_id": "s", **fields}
        (tmp_path / "in.jsonl").write_text(json.dumps(record) + "\n")
        return ["prepare", str(tmp_path / "in.jsonl"), str(tmp_path / "m.jsonl"), "--seed", "1",
                "--manifest-only", *args]
    return setup


def _bad_record(line):
    def setup(tmp_path):
        cfg = _config(tmp_path)
        (tmp_path / "m.jsonl").write_text(line + "\n")
        return ["train", cfg]
    return setup


def _narrow_map_among_wide(tmp_path):
    args = ["train", _config(tmp_path, model={"head_input_channels": 8})]
    records = []
    for k, channels in enumerate((8, 8, 4, 8)):
        save_tensor(np.ones((3, 3, channels), np.float32), tmp_path / f"m{k}.btft")
        records.append(ManifestRecord(f"m{k}", f"m{k}.btft", k % 2, f"s{k}", split="train"))
    save_manifest(records, tmp_path / "m.jsonl")
    return args


def _metrics_with(**fields):
    row = {"model": "dfn", "accuracy": 1, "precision": 1, "recall": 1, "f1": 1, **fields}
    return _bad_metrics(json.dumps(row))


def _report_to_a_directory(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "metrics.json").write_text(
        '{"model": "dfn", "accuracy": 1, "precision": 1, "recall": 1, "f1": 1}')
    return ["report", str(tmp_path / "run"), "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("setup, code, needle", [
    pytest.param(_bad_config(seed="abc"), 1, "seed must be an integer", id="seed-not-int"),
    pytest.param(_bad_config(seed=-1), 1, "seed must be an integer >= 0", id="seed-negative"),
    pytest.param(_bad_config(seed=True), 1, "seed must be an integer", id="seed-is-bool"),
    pytest.param(_bad_config(seed=1.7), 1, "seed must be an integer", id="seed-not-whole"),
    pytest.param(_prepare_manifest(lambda t: [str(t / "m.jsonl")], seed="-1"), 1,
                 "seed must be an integer >= 0", id="prepare-seed-negative"),
    pytest.param(_bad_config(dataset=["manifest"]), 1, "dataset.manifest",
                 id="dataset-not-object"),
    pytest.param(_bad_config(model="ab"), 1, "c.json", id="model-not-object"),
    pytest.param(_bad_config(model={"backbone": "imported_features",
                                    "backbone_trainable": True}),
                 1, "backbone_trainable", id="trainable-without-backbone"),
    pytest.param(_bad_checkpoint("{not json"), 1, "model.json", id="corrupt-model-json"),
    pytest.param(_bad_checkpoint('{"seed": 1}'), 1, "model_spec", id="model-json-without-spec"),
    pytest.param(_bad_checkpoint("[1]"), 1, "model.json: expected a JSON object, got list",
                 id="model-json-is-list"),
    pytest.param(_bad_config(train=[1]), 1, "c.json: train: expected a JSON object, got list",
                 id="train-not-object"),
    pytest.param(_bad_config(model=None), 1,
                 "c.json: model: expected a JSON object, got NoneType", id="model-is-null"),
    pytest.param(_bad_record("[1]"), 1, "m.jsonl: line 1: expected a JSON object, got list",
                 id="record-is-list"),
    pytest.param(_pgm_path(lambda p: save_pgm(np.zeros((8, 8), np.uint8), p.with_name("..pgm"))),
                 1, "..pgm: sample_id '.' is not a plain file name", id="raw-file-named-dot"),
    pytest.param(_pgm_path(lambda p: p.mkdir()), 1, "t0_axial_0.pgm", id="pgm-is-directory"),
    pytest.param(_pgm_path(_dangling_symlink), 2, "missing.pgm", id="pgm-missing"),
    pytest.param(_pgm_path(lambda p: p.write_bytes(b"P5\n-5 -5\n255\n" + bytes(25))), 1,
                 "bad PGM header", id="pgm-negative-extents"),
    pytest.param(_config_text("{not json"), 1, "not valid JSON", id="config-not-json"),
    pytest.param(_config_text("5"), 1, "expected a JSON object", id="config-not-object"),
    pytest.param(_bad_metrics("{not json"), 1, "metrics.json", id="metrics-json-not-json"),
    pytest.param(_bad_metrics('{"model": "dfn"}'), 1, "accuracy",
                 id="metrics-json-without-accuracy"),
    pytest.param(_bad_metrics("[1, 2]"), 1, "list", id="metrics-json-is-list"),
    pytest.param(_bad_metrics('{"model": "dfn", "accuracy": "high", "precision": 1,'
                              ' "recall": 1, "f1": 1}'), 1, "not a number",
                 id="metrics-json-accuracy-not-number"),
    pytest.param(_metrics_with(model="a,b\nx"), 1,
                 "metrics.json: model 'a,b\\nx' is not one of", id="metrics-json-model-not-a-head"),
    pytest.param(_metrics_with(accuracy=True), 1,
                 "metrics.json: accuracy is not a number in [0, 1]: True",
                 id="metrics-json-accuracy-is-bool"),
    pytest.param(_metrics_with(precision="0.5"), 1,
                 "metrics.json: precision is not a number in [0, 1]: '0.5'",
                 id="metrics-json-precision-is-string"),
    pytest.param(_metrics_with(recall=float("nan")), 1,
                 "metrics.json: recall is not a number in [0, 1]: nan",
                 id="metrics-json-recall-nan"),
    pytest.param(_metrics_with(f1=1e9), 1,
                 "metrics.json: f1 is not a number in [0, 1]: 1000000000.0",
                 id="metrics-json-f1-above-1"),
    pytest.param(_bad_epochs("2,0.4,0.8,0.55,0.75,0.0001,fast\n"), 1, "epochs.csv",
                 id="epochs-csv-seconds-not-a-number"),
    pytest.param(_bad_epochs("2,0.4,0.8\n"), 1, "epochs.csv", id="epochs-csv-short-row"),
    pytest.param(lambda t: ["train", _config(t, output_dir=_a_file(t))], 1, "afile",
                 id="output-dir-is-a-file"),
    pytest.param(_prepare_manifest(lambda t: [_a_file(t) + "/m.jsonl"]), 1, "afile",
                 id="prepare-out-under-a-file"),
    pytest.param(_extract_checkpoint(_toy_checkpoint("dfn"), out_dir=_a_file), 1, "afile",
                 id="extract-out-dir-is-a-file"),
    pytest.param(lambda t: ["extract", _config(t), "--out-dir", str(t / "vectors")], 1,
                 "the following arguments are required: --checkpoint",
                 id="extract-without-checkpoint"),
    pytest.param(_report_to_a_directory, 1, "run", id="report-out-is-a-directory"),
    pytest.param(lambda t: ["train", str(t)], 1, "directory", id="config-is-a-directory"),
    pytest.param(_bad_config(output_dir=5), 1, "output_dir", id="output-dir-not-string"),
    pytest.param(_bad_config(dataset={"manifest": 5}), 1, "dataset.manifest",
                 id="manifest-not-string"),
    pytest.param(_bad_config(dataset={"manifest": "m\0.jsonl"}), 1,
                 "dataset.manifest 'm\\x00.jsonl' contains a NUL byte", id="manifest-has-nul"),
    pytest.param(_bad_config(output_dir="run\0"), 1,
                 "output_dir 'run\\x00' contains a NUL byte", id="output-dir-has-nul"),
    pytest.param(_bad_record_to_prepare(sample_id="a\0b"), 1,
                 "in.jsonl: line 1: sample_id 'a\\x00b' contains a NUL byte",
                 id="record-sample-id-has-nul"),
    pytest.param(_bad_record_to_prepare(path="a\0.pgm"), 1,
                 "in.jsonl: line 1: path 'a\\x00.pgm' contains a NUL byte",
                 id="record-path-has-nul"),
    pytest.param(_bad_config(model={"head_input_channels": 2.5}), 1, "head_input_channels",
                 id="head-input-channels-not-int"),
    pytest.param(_bad_config(model={"hidden_widths": [256, 1.5]}), 1, "hidden_widths",
                 id="hidden-width-not-int"),
    pytest.param(_bad_config(model={"classifier": "cnn1d", "conv_filters": 2.5}), 1,
                 "conv_filters", id="conv-filters-not-int"),
    pytest.param(_bad_config(model={"classifier": "cnn1d", "conv_kernel": True}), 1,
                 "conv_kernel", id="conv-kernel-is-bool"),
    pytest.param(_bad_config(model={"backbone": "toy_cnn", "head_input_channels": 16,
                                    "backbone_trainable": "no"}),
                 1, "backbone_trainable", id="backbone-trainable-not-bool"),
    pytest.param(_bad_config(train={"batch_size": 2.5}), 1, "batch_size",
                 id="batch-size-not-int"),
    pytest.param(_bad_config(train={"max_epochs": 2.5}), 1, "max_epochs",
                 id="max-epochs-not-int"),
    pytest.param(_bad_config(train={"early_stop_patience": 1.5}), 1, "early_stop_patience",
                 id="early-stop-patience-not-int"),
    pytest.param(_bad_config(train={"lr_plateau_patience": "3"}), 1, "lr_plateau_patience",
                 id="lr-plateau-patience-not-int"),
    pytest.param(_bad_config(train={"learning_rate": float("nan")}), 1, "learning_rate nan",
                 id="learning-rate-nan"),
    pytest.param(_bad_config(train={"learning_rate": float("inf")}), 1, "learning_rate inf",
                 id="learning-rate-infinite"),
    pytest.param(_bad_config(train={"min_lr": float("nan")}), 1, "min_lr nan", id="min-lr-nan"),
    pytest.param(_bad_config(train={"learning_rate": True}), 1,
                 "learning_rate must be a number, got True", id="learning-rate-is-bool"),
    pytest.param(_bad_config(train={"min_lr": "1e-6"}), 1,
                 "min_lr must be a number, got '1e-6'", id="min-lr-is-string"),
    pytest.param(_bad_config(model={"decision_threshold": True}), 1,
                 "decision_threshold must be a number, got True", id="decision-threshold-is-bool"),
    pytest.param(_bad_config(model={"hidden_widths": 5}), 1,
                 "hidden_widths must be a list, got 5", id="hidden-widths-not-list"),
    pytest.param(_bad_config(model={"dropout_rates": 0.5}), 1,
                 "dropout_rates must be a list, got 0.5", id="dropout-rates-not-list"),
    pytest.param(_bad_config(model={"dropout_rates": [0.5, "0.3"]}), 1,
                 "dropout_rates[1] must be a number, got '0.3'", id="dropout-rate-is-string"),
    pytest.param(_bad_config(train={"learning_rate": 1e-4, "min_lr": 1e-2}), 1,
                 "min_lr 0.01 exceeds learning_rate 0.0001", id="min-lr-above-learning-rate"),
    pytest.param(_prepare_manifest(lambda t: [str(t / "m.jsonl"), "--split", "a,b"]), 1,
                 "'a,b'", id="split-not-numbers"),
    pytest.param(_unknown_transform, 1, "unknown transform 'blur'",
                 id="augmented-id-names-no-transform"),
    pytest.param(_missing_record_tensor, 2, "x.btft", id="record-tensor-missing"),
    pytest.param(_missing_checkpoint_param, 2, "params.btft", id="checkpoint-param-missing"),
    pytest.param(_checkpoint_seed("x"), 1, "model.json: not a checkpoint manifest: seed must be "
                 "an integer >= 0, got 'x'", id="checkpoint-seed-not-int"),
    pytest.param(_checkpoint_seed(-1), 1, "model.json: not a checkpoint manifest: seed must be "
                 "an integer >= 0, got -1", id="checkpoint-seed-negative"),
    pytest.param(_checkpoint_seed(1.5), 1, "model.json: not a checkpoint manifest: seed must be "
                 "an integer >= 0, got 1.5", id="checkpoint-seed-not-whole"),
    pytest.param(_non_utf8_manifest("prepare"), 1, "in.jsonl: line 1: 'utf-8' codec can't decode",
                 id="prepare-manifest-not-utf8"),
    pytest.param(_non_utf8_manifest("train"), 1, "m.jsonl: line 1: 'utf-8' codec can't decode",
                 id="train-manifest-not-utf8"),
    pytest.param(_nan_record_tensor, 1, "non-finite values produced by ", id="record-tensor-has-nan"),
    pytest.param(_narrow_map_among_wide, 1,
                 "m2.btft: input (3, 3, 4) is not an HxWx8 feature map",
                 id="imported-map-of-another-width"),
    pytest.param(_three_channel_record_tensor, 1,
                 "toy backbone expects (224, 224, 1), got (224, 224, 3)",
                 id="record-tensor-has-three-channels"),
    pytest.param(_extract_checkpoint(_three_channel_toy_checkpoint), 1,
                 "params.btft: checkpoint shape (176881,) != model shape (176481,)",
                 id="toy-checkpoint-three-channels"),
    pytest.param(_extract_checkpoint(_toy_checkpoint("fcnn")), 1, "fingerprint",
                 id="extract-checkpoint-of-another-spec"),
    pytest.param(_extract_checkpoint(lambda path: None), 2, "ckpt",
                 id="extract-checkpoint-missing"),
    pytest.param(lambda t: ["eval", _config(t), str(t / "ckpt")], 2, "ckpt",
                 id="eval-checkpoint-missing"),
    pytest.param(_escaping_sample_id, 1, "sample_id '../../escaped' is not a plain file name",
                 id="sample-id-escapes-its-directory"),
    pytest.param(_bad_record('{"sample_id": "a", "path": "a.btft", "label": 2, '
                             '"subject_id": "s"}'),
                 1, "m.jsonl: line 1: a: label must be 0 or 1, got 2", id="record-label-2"),
    pytest.param(_bad_record('{"sample_id": "a", "path": "a.btft", "label": 0.9, '
                             '"subject_id": "s"}'),
                 1, "m.jsonl: line 1: a: label must be 0 or 1, got 0.9", id="record-label-0.9"),
    pytest.param(_bad_record('{"sample_id": "a", "path": "a.btft", "label": true, '
                             '"subject_id": "s"}'),
                 1, "m.jsonl: line 1: a: label must be 0 or 1, got True", id="record-label-true"),
    pytest.param(_bad_record('{"sample_id": "..", "path": "a.btft", "label": 1, '
                             '"subject_id": "s"}'),
                 1, "m.jsonl: line 1: sample_id '..' is not a plain file name",
                 id="record-sample-id-not-a-file-name"),
    pytest.param(_bad_record_to_prepare(subject_id=["s"]), 1,
                 "in.jsonl: line 1: subject_id must be a string, got ['s']",
                 id="record-subject-id-not-string"),
    pytest.param(_bad_record_to_prepare(sample_id=["a"]), 1,
                 "in.jsonl: line 1: sample_id must be a string, got ['a']",
                 id="record-sample-id-not-string"),
    pytest.param(_bad_record_to_prepare(path=5), 1,
                 "in.jsonl: line 1: path must be a string, got 5", id="record-path-not-string"),
    pytest.param(_bad_record_to_prepare("--level", "sample", augmented_from=["b"]), 1,
                 "in.jsonl: line 1: augmented_from must be a string, got ['b']",
                 id="record-augmented-from-not-string"),
    pytest.param(_prepare_manifest(lambda t: [str(t / "m.jsonl")], seed="1.7"), 1,
                 "gapnet prepare: argument --seed: invalid int value: '1.7'",
                 id="prepare-seed-not-int"),
    pytest.param(lambda t: ["fit"], 1, "gapnet: argument command: invalid choice: 'fit'",
                 id="unknown-subcommand"),
    pytest.param(_prepare_manifest(lambda t: [str(t / "m.jsonl"), "--balance-to", "-5"]), 1,
                 "balance_to must be an integer >= 1, got -5", id="balance-to-negative"),
    pytest.param(_prepare_manifest(lambda t: [str(t / "m.jsonl"), "--image-size", "0"]), 1,
                 "image_size must be an integer >= 1, got 0", id="image-size-zero"),
])
def test_bad_inputs_exit_with_one_error_line(tmp_path, capsys, setup, code, needle):
    assert main(setup(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    if needle.startswith("non-finite"):  # the message names the file that holds the NaN
        assert err.endswith(f"{tmp_path / 'nan.btft'}\n")


def test_report_creates_the_directory_of_its_table(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "metrics.json").write_text(
        '{"model": "dfn", "accuracy": 1, "precision": 0.5, "recall": 1, "f1": 0.75}')
    table = tmp_path / "nodir" / "sub" / "table.csv"
    assert main(["report", str(tmp_path / "run"), "--out", str(table)]) == 0
    assert table.read_text().splitlines() == ["Model,Accuracy,Precision,Recall,F1",
                                              "dfn,100.00,50.00,100.00,75.00"]
    assert [p.name for p in table.parent.iterdir()] == ["table.csv"]


@pytest.mark.parametrize("argv", [["--help"], ["prepare", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gapnet")


TRAIN_FAULTS = """
import resource
import sys
from gapnet.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(["train", sys.argv[1]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_training_a_cnn1d_head_faults_in_few_fresh_pages_per_epoch(tmp_path):
    # A fresh process, as a `train` command is. cnn1d's (32, 4080) float32
    # temporaries are 510 KiB each; while glibc trimmed the heap top after each
    # batch they faulted back in on the next, about 5,400 faults an epoch.
    pytest.importorskip("resource")
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    rng = np.random.default_rng(5)
    records = []
    for i in range(400):  # toy_frozen's rows: 320 train and 80 val of 16 GAP channels
        save_tensor(rng.standard_normal((1, 1, 16)).astype(np.float32), tmp_path / f"m{i}.btft")
        records.append(ManifestRecord(f"m{i}", f"m{i}.btft", i % 2, f"s{i}",
                                      split="train" if i < 320 else "val"))
    save_manifest(records, tmp_path / "m.jsonl")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}

    def faults(epochs):
        cfg = tmp_path / f"c{epochs}.json"
        cfg.write_text(json.dumps({
            "seed": 7, "dataset": {"manifest": "m.jsonl"},
            "model": {"backbone": "imported_features", "head_input_channels": 16,
                      "projection_dim": 512, "classifier": "cnn1d"},
            "train": {"max_epochs": epochs, "batch_size": 32, "early_stop_patience": epochs},
            "output_dir": f"run{epochs}"}))
        child = subprocess.run([sys.executable, "-c", TRAIN_FAULTS, str(cfg)], env=env,
                               check=True, capture_output=True, text=True)
        return int(child.stdout.split()[-1])

    faults(1)  # writes the encode cache, which both measured runs then read
    per_epoch = (faults(6) - faults(2)) / 4
    assert per_epoch < 100, f"{per_epoch:.0f} minor page faults per epoch"


def test_keep_heap_does_nothing_where_libc_has_no_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    cli._keep_heap()
