"""Output checks on one round of gapnet commands.

Each check is one attempted operation; a failed check counts against
``ops_failed`` exactly like a command that exits non-zero. Accuracy is
recorded as information only: on some seeds a head stays at the
constant predictor, and gating on it would mean choosing seeds.
"""

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import PROJECTION_DIM


@dataclass
class RoundCheck:
    ops: list = field(default_factory=list)  # (name, ok, detail)
    info: dict = field(default_factory=dict)  # head -> accuracy facts, not gated
    fingerprint: dict = field(default_factory=dict)  # head -> what must repeat exactly
    records: dict = field(default_factory=dict)  # prepare/extract -> records written
    scored: dict = field(default_factory=dict)  # head -> images scored by eval

    def op(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), detail))
        return ok


def read_btft(path):
    raw = Path(path).read_bytes()
    if len(raw) < 10 or raw[:4] != b"BTFT" or len(raw) < 10 + 4 * raw[9]:
        raise ValueError(f"{path}: not a BTFT file")
    _, dtype, rank = struct.unpack_from("<IBB", raw, 4)
    shape = struct.unpack_from(f"<{rank}I", raw, 10)
    payload = raw[10 + 4 * rank:]
    if dtype != 1 or len(payload) != 4 * math.prod(shape):
        raise ValueError(f"{path}: dtype {dtype} or payload size does not match {shape}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


def read_epochs(run_dir):
    """The rows of the ``epochs.csv`` a train command wrote into ``run_dir``."""
    with open(Path(run_dir) / "epochs.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _manifest_count(path):
    return sum(1 for line in Path(path).read_text().splitlines() if line.strip())


def check_round(workload, round_dir, step_results):
    """``step_results``: list of (Step, return code). Returns a RoundCheck."""
    round_dir = Path(round_dir)
    rc = RoundCheck()
    for step, code in step_results:
        label = step.kind + (f":{step.head}" if step.head else "")
        rc.op(f"exit {label}", code == 0, f"exit code {code}")

    manifest = round_dir / "manifest.jsonl"
    try:
        n = _manifest_count(manifest)
    except OSError as e:
        n = 0
        rc.op("prepare records", False, str(e))
    else:
        rc.records["prepare"] = n
        rc.op("prepare records", n == workload.expected_records,
              f"{n} records, expected {workload.expected_records}")

    for head in workload.heads:
        run_dir = round_dir / head
        try:
            rows = read_epochs(run_dir)
            finite = all(math.isfinite(float(r["train_loss"])) and
                         math.isfinite(float(r["val_loss"])) for r in rows)
        except (OSError, KeyError, ValueError) as e:
            rc.op(f"epochs.csv {head}", False, str(e))
        else:
            rc.op(f"epochs.csv {head}", len(rows) == workload.epochs and finite,
                  f"{len(rows)} rows (expected {workload.epochs}), finite losses {finite}")
            accs = [float(r["val_acc"]) for r in rows]
            rc.info[head] = {
                "best_val_acc": max(accs),
                "first_epoch_val_acc_ge_0.95": next(
                    (int(r["epoch"]) for r in rows if float(r["val_acc"]) >= 0.95), None),
            }
            rc.fingerprint[head] = {"epochs": [{k: v for k, v in r.items()
                                                if k != "seconds_per_epoch"} for r in rows]}
        try:
            from gapnet.pipeline import load_checkpoint

            model = load_checkpoint(run_dir / "checkpoint")
            ok = model.spec.classifier == head
            rc.op(f"checkpoint {head}", ok, f"loads as {model.spec.classifier}")
        except Exception as e:  # any failure to load is the finding
            rc.op(f"checkpoint {head}", False, f"{type(e).__name__}: {e}")

    for head in workload.heads:
        try:
            vecs = [read_btft(p) for p in sorted((round_dir / "vectors" / head).glob("*.btft"))]
        except (OSError, ValueError) as e:
            rc.op(f"extract vectors {head}", False, str(e))
            continue
        ok = (len(vecs) == rc.records.get("prepare", -1)
              and all(v.shape == (PROJECTION_DIM,) and np.all(np.isfinite(v)) for v in vecs))
        rc.records["extract"] = len(vecs)
        rc.op(f"extract vectors {head}", ok,
              f"{len(vecs)} vectors for {rc.records.get('prepare')} records")

    for head in workload.heads:
        try:
            obj = json.loads((round_dir / head / "metrics.json").read_text())
            cm = obj["confusion"]
            total = cm["TP"] + cm["TN"] + cm["FP"] + cm["FN"]
            ok = total > 0 and obj["accuracy"] == (cm["TP"] + cm["TN"]) / total
        except (OSError, KeyError, ValueError, TypeError) as e:
            rc.op(f"metrics.json {head}", False, str(e))
        else:
            rc.scored[head] = total
            rc.info.setdefault(head, {})["eval_accuracy"] = obj["accuracy"]
            rc.fingerprint.setdefault(head, {})["confusion"] = cm
            rc.op(f"metrics.json {head}", ok,
                  f"accuracy {obj['accuracy']} vs (TP+TN)/total over {total}")
    return rc
