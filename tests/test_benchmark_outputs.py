"""The benchmark's own output checks and output digest, run on small rounds.

``perfbench/checks.py`` counts a round's failed operations, and
``scripts/round_digest.py`` is the digest every byte-identity claim rests
on. Both are imported as they are, with ``perfbench/`` on the path as
``round_digest.py`` puts it there; this test edits neither.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from gapnet.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def harness():
    # round_digest.py sets the BLAS thread variables and puts src/ and perfbench/
    # first on the path as it loads; both are put back once it and checks.py have
    with pytest.MonkeyPatch.context() as mp, mock.patch.dict(os.environ):
        mp.syspath_prepend(str(ROOT / "perfbench"))
        spec = importlib.util.spec_from_file_location("round_digest",
                                                      ROOT / "scripts" / "round_digest.py")
        round_digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(round_digest)
        import checks
        import workloads
    return SimpleNamespace(round_digest=round_digest, checks=checks, workloads=workloads)


def test_a_small_imported_round_passes_the_benchmark_checks(tmp_path, harness):
    workloads = harness.workloads
    in_dir, round_dir = tmp_path / "in", tmp_path / "round"
    # 16 maps of 3x3x8 in imported_2048's layout; make_round picks the
    # prepare command by the workload's name, so the name stays
    workloads._imported_maps(in_dir, np.random.default_rng(7), per_class=8,
                             shape=(3, 3, 8), signal_channels=4)
    workload = dataclasses.replace(
        workloads.WORKLOADS["imported_2048"], heads=("dfn",), epochs=2, expected_records=16,
        prepare_runs=1, extract_eval_runs=1, train_runs=1,
        model={"backbone": "imported_features", "head_input_channels": 8})
    steps = workloads.make_round(workload, 7, in_dir, round_dir)
    results = [(step, main(step.argv)) for step in steps]
    rc = harness.checks.check_round(workload, round_dir, results)
    assert [op for op in rc.ops if not op[1]] == []
    names = {name for name, _, _ in rc.ops}
    assert {"checkpoint dfn", "extract vectors dfn", "metrics.json dfn"} <= names
    assert len(rc.ops) == 9  # 4 exits, the records, epochs.csv and the three above
    assert rc.records == {"prepare": 16, "extract": 16}


def test_a_small_finetune_round_passes_the_benchmark_checks(tmp_path, harness):
    workloads = harness.workloads
    in_dir, round_dir = tmp_path / "in", tmp_path / "round"
    # 2+2 subjects of 4 slices: 8 images a class, which five transforms top up to
    # the 48 a class that toy_finetune's prepare balances to
    subjects = [("n000", 0), ("n001", 0), ("t000", 1), ("t001", 1)]
    workloads._blob_images(in_dir / "raw", np.random.default_rng(7), subjects, per_subject=4)
    workload = dataclasses.replace(workloads.WORKLOADS["toy_finetune"], epochs=1, train_runs=1)
    steps = workloads.make_round(workload, 7, in_dir, round_dir)
    results = [(step, main(step.argv)) for step in steps]
    # the checks load the fine-tuned checkpoint with no spec, whose backbone loads
    # frozen, and count one vector file per record of what extract scored from it
    rc = harness.checks.check_round(workload, round_dir, results)
    assert [op for op in rc.ops if not op[1]] == []
    assert len(rc.ops) == 9  # 4 exits, the records, epochs.csv, checkpoint, vectors, metrics
    assert rc.records == {"prepare": 96, "extract": 96}


def test_a_round_prepared_twice_digests_as_one_prepared_once(tmp_path, harness):
    # the second prepare skips the pixel work its record vouches for; the record and
    # the lock it holds meanwhile are dot-files, which the digest leaves out
    workloads, in_dir = harness.workloads, tmp_path / "in"
    subjects = [("n000", 0), ("n001", 0), ("t000", 1), ("t001", 1)]
    workloads._blob_images(in_dir / "raw", np.random.default_rng(7), subjects, per_subject=4)
    digests = []
    for runs in (1, 2):
        workload = dataclasses.replace(workloads.WORKLOADS["toy_finetune"], prepare_runs=runs)
        round_dir = tmp_path / f"round{runs}"
        steps = workloads.make_round(workload, 7, in_dir, round_dir)
        assert [main(step.argv) for step in steps if step.kind == "prepare"] == [0] * runs
        assert (round_dir / ".gapnet-prepare.json").is_file()
        digests.append(harness.round_digest.round_digest(round_dir, in_dir))
    assert digests[0] == digests[1]


EPOCHS_CSV = ("epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds_per_epoch\n"
              "1,0.5,0.75,0.6,0.7,0.0001,{seconds}\n")


def hand_built_round(root, seconds, dot_text):
    """A round directory under ``root`` as a benchmark round lays it out, with
    ``seconds`` in every timing field and ``dot_text`` in its dot-files."""
    in_dir, round_dir = root / "in", root / "round"
    in_dir.mkdir(parents=True)
    (round_dir / "dfn" / "checkpoint").mkdir(parents=True)
    (round_dir / "dfn.json").write_text(json.dumps({"dataset": {"manifest": str(in_dir)},
                                                    "output_dir": str(round_dir / "dfn")}))
    (round_dir / "dfn" / "epochs.csv").write_text(EPOCHS_CSV.format(seconds=seconds))
    (round_dir / "dfn" / "metrics.json").write_text(json.dumps(
        {"accuracy": 0.75, "test_ms_per_image": seconds, "seconds_per_epoch": seconds}))
    (round_dir / "dfn" / "checkpoint" / "params.btft").write_bytes(bytes(range(30)))
    (round_dir / "dfn" / ".lock").write_text(dot_text)
    (round_dir / ".gapnet-cache").mkdir()
    (round_dir / ".gapnet-cache" / "segment.keys").write_text(dot_text)
    return in_dir, round_dir


def test_round_digest_drops_timings_paths_and_dot_files(tmp_path, harness):
    rd = harness.round_digest
    in_dir, round_dir = hand_built_round(tmp_path / "one", 0.25, "123\n")
    read = {name: rd.file_bytes(round_dir / name, in_dir, round_dir).decode()
            for name in ("dfn.json", "dfn/epochs.csv", "dfn/metrics.json")}
    assert read["dfn/epochs.csv"] == ("epoch,train_loss,train_acc,val_loss,val_acc,lr\n"
                                      "1,0.5,0.75,0.6,0.7,0.0001\n")
    assert json.loads(read["dfn/metrics.json"]) == {"accuracy": 0.75}
    assert json.loads(read["dfn.json"]) == {"dataset": {"manifest": "<in>"},
                                            "output_dir": "<round>/dfn"}
    digest = rd.round_digest(round_dir, in_dir)

    # other timings, other absolute paths and other dot-files: the same digest
    other_in, other_round = hand_built_round(tmp_path / "two", 9.5, "456 and more\n")
    assert rd.round_digest(other_round, other_in) == digest

    # one flipped byte of a checkpoint's parameters: another digest
    params = other_round / "dfn" / "checkpoint" / "params.btft"
    data = bytearray(params.read_bytes())
    data[17] ^= 1
    params.write_bytes(bytes(data))
    assert rd.round_digest(other_round, other_in) != digest


def test_round_digest_of_all_workloads_prints_what_bench_record_takes(harness, monkeypatch,
                                                                        capsys):
    rd = harness.round_digest
    fake = {name: hashlib.sha256(name.encode()).hexdigest() for name in rd.WORKLOADS}
    seen = []

    def workload_digest(name, seed):  # a round per workload is the slow part, not the format
        seen.append((name, seed))
        return fake[name]

    monkeypatch.setattr(rd, "workload_digest", workload_digest)
    assert rd.main(["--workload", "all", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert seen == [(name, 7) for name in sorted(rd.WORKLOADS)]
    assert lines == [f"{name}={fake[name]}" for name in sorted(rd.WORKLOADS)]
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    assert bench_record.digests(lines, "--parent-digest") == fake

    # one workload: the digest alone, as before
    assert rd.main(["--workload", "toy_frozen", "--seed", "7"]) == 0
    assert capsys.readouterr().out == fake["toy_frozen"] + "\n"
