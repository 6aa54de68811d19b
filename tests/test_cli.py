import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gapnet import backbone, kernels
from gapnet.backbone import load_feature_map, save_tensor
from gapnet.cli import main
from gapnet.data import ManifestRecord, load_manifest, save_manifest
from gapnet.pipeline import Model, ModelSpec, save_checkpoint
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


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["prepare", str(tmp_path / "nope"), str(tmp_path / "m.jsonl"), "--seed", "1"])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


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
        assert (run_dir / "epochs.csv").exists()
        assert (run_dir / "checkpoint" / "model.json").exists()
        assert main(["eval", str(cfg), str(run_dir / "checkpoint")]) == 0
        obj = json.loads((run_dir / "metrics.json").read_text())
        assert set(obj) >= {"accuracy", "precision", "recall", "f1", "confusion",
                            "seconds_per_epoch", "test_ms_per_image", "model",
                            "config_fingerprint", "seed"}
        assert (run_dir / "confusion.csv").exists()
        assert (run_dir / "confusion.svg").exists()
        runs.append(run_dir)

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


def test_extract_writes_projection_vectors(raw_dir, tmp_path):
    manifest = tmp_path / "work" / "manifest.jsonl"
    assert main(["prepare", str(raw_dir), str(manifest), "--seed", "3",
                 "--split", "0.8,0.2", "--image-size", "224"]) == 0
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    out_dir = tmp_path / "features"
    assert main(["extract", str(cfg), "--out-dir", str(out_dir)]) == 0
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
    assert not any(tmp_path.iterdir())  # neither the lock nor its private file is left


def _live_lock(tmp_path):
    cfg = _config(tmp_path)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / ".lock").write_text(f"{os.getpid()}\n")
    return ["train", cfg]


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
    params = sorted((run_dir / "checkpoint" / "params").iterdir())
    return ([line.rsplit(",", 1)[0] for line in lines],  # timing column stripped
            [(p.name, p.read_bytes()) for p in params])


def _extracted(out_dir):
    return [(p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())]


def test_second_head_trains_on_cached_gap_vectors(raw_dir, tmp_path, monkeypatch, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    monkeypatch.setenv("GAPNET_THREADS", "4")
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "dfn", "dfn")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave often: a lost update drops an entry
    try:
        assert main(["train", str(cfg)]) == 0
    finally:
        sys.setswitchinterval(interval)
    _one_segment(manifest, 30)
    monkeypatch.delenv("GAPNET_THREADS")

    conv_calls.clear()
    cfg = write_config(tmp_path / "hit.json", manifest, tmp_path / "hit", "fcnn")
    assert main(["train", str(cfg)]) == 0
    assert conv_calls == []  # every input came from the cache

    shutil.rmtree(manifest.parent / ".gapnet-cache")
    cfg = write_config(tmp_path / "miss.json", manifest, tmp_path / "miss", "fcnn")
    assert main(["train", str(cfg)]) == 0
    assert len(conv_calls) == 2 * 30
    assert _run_bytes(tmp_path / "hit") == _run_bytes(tmp_path / "miss")

    conv_calls.clear()
    assert main(["eval", str(cfg), str(tmp_path / "miss" / "checkpoint")]) == 0
    assert len(conv_calls) == 2 * 6  # eval times the whole network, backbone included


def test_extract_cache_hits_match_misses(raw_dir, tmp_path, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "miss")]) == 0
    assert len(conv_calls) == 2 * 30
    conv_calls.clear()
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "hit")]) == 0
    assert conv_calls == []
    assert _extracted(tmp_path / "hit") == _extracted(tmp_path / "miss")


def test_rewritten_inputs_and_another_backbone_miss(raw_dir, tmp_path, conv_calls):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn")
    extract = ["extract", str(cfg), "--out-dir", str(tmp_path / "vectors")]
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

    _prepared(raw_dir, tmp_path)  # same pixels, every file rewritten
    conv_calls.clear()
    assert main(extract) == 0
    assert len(conv_calls) == 2 * 30
    _one_segment(manifest, 30)  # one entry per input, the old ones replaced
    assert _extracted(tmp_path / "vectors") == before

    other = write_config(tmp_path / "seed.json", manifest, tmp_path / "run", "dfn", seed=22)
    conv_calls.clear()
    assert main(["extract", str(other), "--out-dir", str(tmp_path / "other")]) == 0
    assert len(conv_calls) == 2 * 30
    assert len({p.parent for p in _cache_files(manifest)}) == 2


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
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    keys, rows = _one_segment(manifest, 30)
    good = keys.read_bytes(), rows.read_bytes()
    corrupt(keys, rows)
    conv_calls.clear()
    capsys.readouterr()
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
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
    monkeypatch.setenv("GAPNET_THREADS", "4")
    assert main(["train", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert _cache_files(manifest) == []


def test_trainable_backbone_creates_no_cache(raw_dir, tmp_path):
    manifest = _prepared(raw_dir, tmp_path)
    cfg = write_config(tmp_path / "dfn.json", manifest, tmp_path / "run", "dfn", max_epochs=1)
    obj = json.loads(cfg.read_text())
    obj["model"]["backbone_trainable"] = True
    cfg.write_text(json.dumps(obj))
    assert main(["train", str(cfg)]) == 0
    assert main(["extract", str(cfg), "--out-dir", str(tmp_path / "vectors")]) == 0
    assert not (manifest.parent / ".gapnet-cache").exists()


def test_prepare_threads_env_matches_single_thread(raw_dir, tmp_path, monkeypatch):
    one = tmp_path / "one" / "m.jsonl"
    many = tmp_path / "many" / "m.jsonl"
    args = ["--seed", "4", "--split", "0.8,0.2", "--image-size", "64"]
    assert main(["prepare", str(raw_dir), str(one)] + args) == 0
    monkeypatch.setenv("GAPNET_THREADS", "4")
    assert main(["prepare", str(raw_dir), str(many)] + args) == 0
    assert one.read_bytes() == many.read_bytes()
    for a, b in zip(sorted((one.parent / "tensors").iterdir()),
                    sorted((many.parent / "tensors").iterdir())):
        assert a.read_bytes() == b.read_bytes()


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
        params = sorted((tmp_path / run / "checkpoint" / "params").iterdir())
        ckpts.append([p.read_bytes() for p in params])
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


def _bad_timing(text):
    def setup(tmp_path):
        save_tensor(np.zeros((224, 224, 3), np.float32), tmp_path / "x.btft")
        save_manifest([ManifestRecord("x", "x.btft", 1, "s", split="val")], tmp_path / "m.jsonl")
        cfg = write_config(tmp_path / "c.json", tmp_path / "m.jsonl", tmp_path / "run")
        spec = ModelSpec.from_dict(json.loads(cfg.read_text())["model"])
        save_checkpoint(Model(spec, seed=21), tmp_path / "ckpt")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "timing.json").write_text(text)
        return ["eval", str(cfg), str(tmp_path / "ckpt")]
    return setup


@pytest.mark.parametrize("setup, code, needle", [
    pytest.param(_bad_config(seed="abc"), 1, "seed must be an integer", id="seed-not-int"),
    pytest.param(_bad_config(dataset=["manifest"]), 1, "dataset.manifest",
                 id="dataset-not-object"),
    pytest.param(_bad_config(model="ab"), 1, "c.json", id="model-not-object"),
    pytest.param(_bad_config(model={"backbone": "imported_features",
                                    "backbone_trainable": True}),
                 1, "backbone_trainable", id="trainable-without-backbone"),
    pytest.param(_bad_checkpoint("{not json"), 1, "model.json", id="corrupt-model-json"),
    pytest.param(_bad_checkpoint('{"seed": 1}'), 1, "model_spec", id="model-json-without-spec"),
    pytest.param(_pgm_path(lambda p: p.mkdir()), 1, "t0_axial_0.pgm", id="pgm-is-directory"),
    pytest.param(_pgm_path(_dangling_symlink), 2, "missing.pgm", id="pgm-missing"),
    pytest.param(_live_lock, 1, "locked by another run", id="live-lock"),
    pytest.param(_config_text("{not json"), 1, "not valid JSON", id="config-not-json"),
    pytest.param(_config_text("5"), 1, "expected a JSON object", id="config-not-object"),
    pytest.param(_bad_metrics("{not json"), 1, "metrics.json", id="metrics-json-not-json"),
    pytest.param(_bad_metrics('{"model": "dfn"}'), 1, "accuracy",
                 id="metrics-json-without-accuracy"),
    pytest.param(_bad_metrics("[1, 2]"), 1, "list", id="metrics-json-is-list"),
    pytest.param(_bad_metrics('{"model": "dfn", "accuracy": "high", "precision": 1,'
                              ' "recall": 1, "f1": 1}'), 1, "not a number",
                 id="metrics-json-accuracy-not-number"),
    pytest.param(_bad_timing("{not json"), 1, "timing.json", id="timing-json-not-json"),
    pytest.param(_bad_timing("[]"), 1, "timing.json", id="timing-json-is-list"),
])
def test_bad_inputs_exit_with_one_error_line(tmp_path, capsys, setup, code, needle):
    assert main(setup(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
