"""Traced run of one workload: gapnet.cli.main called in this process.

Each round runs the workload's commands twice, once untraced and once
with the tracer installed, in two fresh directories. The untraced pass
gives the tracing overhead and a determinism reference. Spans stay in memory
until the end, when the per-layer metrics are written as JSON.

Usage (run.py starts it with the pinned child environment):
    python3 perfbench/traced_child.py WORKLOAD SEED INPUT_DIR WORK_DIR SECONDS OUT_JSON
"""

import json
import shutil
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import tracer as tracing
from checks import check_round
from workloads import WORKLOADS, make_round


def run_step(cli, step):
    t0 = perf_counter()
    try:
        rc = cli.main(step.argv)
    except SystemExit as e:  # argparse rejects a command line this way
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc()
        rc = -1
    return rc, perf_counter() - t0


def main(argv):
    name, seed, in_dir, work, seconds, out_json = argv
    workload = WORKLOADS[name]
    seed, seconds, work = int(seed), float(seconds), Path(work)
    import gapnet.cli as cli

    tracer = tracing.Tracer()
    rounds = []
    scored = 0
    t_start = perf_counter()
    while True:
        k = len(rounds)
        plans = {mode: (work / f"r{k}_{mode}", []) for mode in ("untraced", "traced")}
        steps = {mode: make_round(workload, seed, in_dir, d) for mode, (d, _) in plans.items()}
        for i in range(len(steps["untraced"])):
            # each command runs untraced and traced back to back, on the same
            # warm inputs; which goes first alternates
            order = ("untraced", "traced") if (i + k) % 2 == 0 else ("traced", "untraced")
            for mode in order:
                if mode == "traced":
                    tracer.install()
                try:
                    plans[mode][1].append(run_step(cli, steps[mode][i]))
                finally:
                    tracer.uninstall()
        record = {}
        for mode, (pass_dir, results) in plans.items():
            check = check_round(workload, pass_dir,
                                [(s, rc) for s, (rc, _) in zip(steps[mode], results)])
            if mode == "traced":
                scored += sum(check.scored.get(s.head, 0) for s in steps[mode] if s.kind == "eval")
            shutil.rmtree(pass_dir, ignore_errors=True)
            record[mode] = {
                "steps": [{"kind": s.kind, "head": s.head, "rc": rc, "wall_s": wall}
                          for s, (rc, wall) in zip(steps[mode], results)],
                "check": asdict(check),
            }
        rounds.append(record)
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(rounds) > seconds:
            break

    untraced = sum(st["wall_s"] for r in rounds for st in r["untraced"]["steps"])
    traced = sum(st["wall_s"] for r in rounds for st in r["traced"]["steps"])
    per_command = {}
    for r in rounds:
        for a, b in zip(r["untraced"]["steps"], r["traced"]["steps"]):
            key = a["kind"] + (f":{a['head']}" if a["head"] else "")
            u, t = per_command.get(key, (0.0, 0.0))
            per_command[key] = (u + a["wall_s"], t + b["wall_s"])
    overhead = {k: 100.0 * (t / u - 1.0) for k, (u, t) in per_command.items()}
    metrics, spans = tracing.analyse(tracer, len(rounds), scored, 100.0 * (traced / untraced - 1.0))
    Path(out_json).write_text(json.dumps({
        "rounds": rounds, "per_layer": metrics, "spans": spans,
        "overhead_pct_per_command": overhead, "span_count": len(tracer.name),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
