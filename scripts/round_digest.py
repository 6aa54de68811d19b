#!/usr/bin/env python3
"""One sha256 over everything a seeded benchmark round writes, timings left out.

    python3 scripts/round_digest.py --workload imported_2048 --seed 7
    python3 scripts/round_digest.py --workload all --seed 7

The inputs and the round (prepare, train per head, extract and eval)
come from ``perfbench/workloads.py``, which this script imports and does
not change. Each step runs through ``gapnet.cli.main`` in this process,
in a temporary directory, with the benchmark's single-threaded BLAS.
Standard output is the digest alone; with ``--workload all`` it is one
``W=HEX`` line per workload, in name order, the form ``bench_record.py``'s
``--parent-digest`` and ``--change-digest`` take. A failing step prints its
output to standard error and exits 1.

The digest covers every file of the round directory except dot-files
(the encode cache and the output locks), each under its relative path:
the prepared manifest, the configs, the tensors, each head's checkpoint
(``model.json`` and ``params.btft``), the extracted vectors,
``epochs.csv`` without its ``seconds_per_epoch`` column, ``metrics.json``
without ``test_ms_per_image`` and ``seconds_per_epoch``, and both
confusion files. The absolute paths of the input and round directories
are replaced by ``<in>`` and ``<round>`` in every text file first, so
two checkouts, or two temporary directories, digest alike when their
outputs match byte for byte.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# the benchmark's thread settings, before numpy is first imported
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gapnet.cli import main as gapnet_main  # noqa: E402
from workloads import WORKLOADS, make_inputs, make_round  # noqa: E402

TIMING_FIELDS = {"epochs.csv": {"seconds_per_epoch"},
                 "metrics.json": {"test_ms_per_image", "seconds_per_epoch"}}
TEXT_SUFFIXES = {".json", ".jsonl", ".csv", ".svg"}


def file_bytes(path, in_dir, round_dir):
    """``path``'s bytes as digested: timing fields dropped, absolute paths normalised."""
    data = path.read_bytes()
    if path.suffix not in TEXT_SUFFIXES:
        return data
    text = data.decode()
    drop = TIMING_FIELDS.get(path.name, set())
    if path.suffix == ".csv" and drop:
        rows = [line.split(",") for line in text.splitlines()]
        keep = [i for i, field in enumerate(rows[0]) if field not in drop]
        text = "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"
    elif path.suffix == ".json" and drop:
        record = {k: v for k, v in json.loads(text).items() if k not in drop}
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    text = text.replace(str(round_dir), "<round>").replace(str(in_dir), "<in>")
    return text.encode()


def round_digest(round_dir, in_dir):
    h = hashlib.sha256()
    for path in sorted(p for p in round_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(round_dir)
        if any(part.startswith(".") for part in rel.parts):
            continue
        data = file_bytes(path, in_dir, round_dir)
        h.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def workload_digest(name, seed):
    """The digest of one seeded round of workload ``name``; None, its failing
    step's output on standard error, when a step fails."""
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="gapnet-digest-") as tmp:
        in_dir, round_dir = Path(tmp).resolve() / "in", Path(tmp).resolve() / "round"
        make_inputs(workload, seed, in_dir)
        for step in make_round(workload, seed, in_dir, round_dir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = gapnet_main(step.argv)
            if code != 0:
                sys.stderr.write(out.getvalue())
                print(f"error: {name} {step.kind} exited {code}", file=sys.stderr)
                return None
        return round_digest(round_dir, in_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        digest = workload_digest(name, args.seed)
        if digest is None:
            return 1
        print(f"{name}={digest}" if args.workload == "all" else digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
