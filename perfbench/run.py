#!/usr/bin/env python3
"""gapnet benchmark: seeded workloads through the real CLI.

    python3 perfbench/run.py --workload toy_frozen --seed 1 --seconds 35 --trace 0

``--trace 0`` runs every command of a round (prepare, train per head,
extract, eval per head) as its own ``python -m gapnet`` child process,
exactly as a user would, and reports the end-to-end metrics. Rounds
repeat, at least twice, until ``--seconds`` is spent. Each rate is the
run's total time over its total work (``eval_ms_per_image`` the median
over heads of that), ``setup_s`` is a median over rounds and heads, and
every time is scaled by the speed probe of ``speedprobe.py`` to a
reference host speed; the measured times are printed and stored beside
them. Every round is checked, including that its results repeat those of
the first round bit for bit.

``--trace 1`` instead runs the rounds in one child that calls
``gapnet.cli.main`` in-process, each command untraced and traced, and
reports the per-layer metrics of ``tracer.py``. A per-layer time metric
whose layer is never called on the workload reads 0 and is printed as
absent.

``--workload all`` (the default) runs every workload in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
of each run, with provenance, per-round samples, every check and the
span table, goes to ``perfbench/results/``. Inputs are generated under
``.bench_work/`` and deleted afterwards.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

# The same on every commit: single-threaded preprocessing and BLAS, in the
# children and in this process, which runs the speed probe and the checks.
THREAD_ENV = {"GAPNET_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is first imported

import speedprobe  # noqa: E402
from checks import check_round, read_epochs  # noqa: E402
from workloads import WORKLOADS, make_inputs, make_round  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_ROUNDS = 2  # the determinism check needs a second round
DEADLINE_S = 160  # every run ends well within 180 s, whatever --seconds says


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class Deadline:
    def __init__(self, seconds):
        self.at = perf_counter() + seconds

    def left(self):
        return self.at - perf_counter()


def run_child(cmd, env, cwd, log, deadline):
    """Run ``cmd`` to completion; return (exit code, wall s, peak RSS MB).

    The peak RSS is the child's own, from the rusage that wait4 returns.
    """
    with open(log, "ab") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def log_tail(log, lines=15):
    try:
        return "\n".join(Path(log).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ------------------------------------------------------------------ provenance

def provenance(seed):
    import numpy as np

    from gapnet import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "gapnet").rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "gapnet_backend": kernels.BACKEND,
        "have_numba": kernels.HAVE_NUMBA,
        "child_thread_env": THREAD_ENV,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ------------------------------------------------------------------ end to end

def median_over_heads(per_head, unit_scale, column):
    """Median over heads of each head's pooled time (``column`` 0: scaled,
    1: measured) per unit of work."""
    return median(unit_scale * t[column] / t[2] for t in per_head.values() if t[2])


def determinism_ops(checks):
    """One op per head and later pass: its epochs.csv (timing column
    stripped) and confusion counts equal those of the first pass."""
    ops = []
    first = checks[0]["fingerprint"]
    for k, c in enumerate(checks[1:], start=1):
        for head, fp in first.items():
            ops.append((f"determinism {head} pass {k}", c["fingerprint"].get(head) == fp, ""))
    return ops


def epoch_seconds(run_dir):
    """The seconds_per_epoch column a train child just wrote, or None."""
    try:
        return [float(r["seconds_per_epoch"]) for r in read_epochs(run_dir)]
    except (OSError, KeyError, ValueError):
        return None


def run_e2e(workload, seed, in_dir, work, seconds, deadline):
    env = child_env()
    log = work / "children.log"
    # metric -> head (None where heads are pooled) -> [scaled s, measured s,
    # units of work], summed over rounds: each rate is total time over total
    # work of the run
    pooled = {"train_s_per_epoch": {}, "prepare_ms_per_image": {},
              "extract_ms_per_image": {}, "eval_ms_per_image": {}}
    setup = {}  # head -> (scaled, measured) set-up seconds of each train process
    peak_rss = []  # per round, max over heads
    probes = []  # seconds per probe iteration, around every child
    rounds = []
    t0 = perf_counter()

    def add(name, head, secs, scale, amount):
        total = pooled[name].setdefault(head, [0.0, 0.0, 0])
        total[0] += scale * secs
        total[1] += secs
        total[2] += amount

    while True:
        round_dir = work / f"round{len(rounds)}"
        steps = make_round(workload, seed, in_dir, round_dir)
        results = []
        round_probes = [speedprobe.probe()]
        for step in steps:
            code, wall, rss = run_child([sys.executable, "-m", "gapnet"] + step.argv,
                                        env, work, log, deadline)
            # read now: a later train of the same head rewrites the file
            secs = epoch_seconds(round_dir / step.head) if step.kind == "train" else None
            round_probes.append(speedprobe.probe())
            # each child's times are scaled by the probes just before and after it
            scale = 2 * speedprobe.REFERENCE_S / (round_probes[-2] + round_probes[-1])
            results.append((step, code, wall, rss, scale, secs))
        probes += round_probes
        check = check_round(workload, round_dir, [(r[0], r[1]) for r in results])
        shutil.rmtree(round_dir, ignore_errors=True)
        rss_max = None
        for step, code, wall, rss, scale, secs in results:
            if code != 0:
                continue
            if step.kind == "prepare" and check.records.get("prepare"):
                add("prepare_ms_per_image", None, wall, scale, check.records["prepare"])
            elif step.kind == "extract" and check.records.get("extract"):
                add("extract_ms_per_image", None, wall, scale, check.records["extract"])
            elif step.kind == "train" and secs:
                setup.setdefault(step.head, []).append(
                    (scale * (wall - sum(secs)), wall - sum(secs)))
                # pooled over heads: every head trains the same number of
                # epochs, so this is the mean over heads, and it rests on
                # every train process of the run rather than on one head's
                add("train_s_per_epoch", None, sum(secs), scale, len(secs))
                rss_max = max(rss_max or 0.0, rss)
            elif step.kind == "eval" and check.scored.get(step.head):
                add("eval_ms_per_image", step.head, wall, scale, check.scored[step.head])
        if rss_max is not None:
            peak_rss.append(rss_max)
        rounds.append({"steps": [{"kind": s.kind, "head": s.head, "rc": c, "wall_s": w,
                                  "peak_rss_mb": r, "host_scale": k, "epoch_s": e}
                                 for s, c, w, r, k, e in results],
                       "probe_s_per_iteration": round_probes,
                       "check": asdict(check)})
        if any(r[1] != 0 for r in results):
            print(f"[{workload.name}] a command failed; last output:\n{log_tail(log)}",
                  file=sys.stderr)
        elapsed = perf_counter() - t0
        if deadline.left() < 2 * elapsed / len(rounds):
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break

    metrics = {}
    if any(setup.values()):
        scaled, measured = (median(median(x[i] for x in v) for v in setup.values() if v)
                            for i in (0, 1))
        metrics["setup_s"] = {"value": scaled, "unit": "s", "measured": measured,
                              "n": sum(map(len, setup.values())), "heads": len(setup)}
    for name, per_head in pooled.items():
        if not any(t[2] for t in per_head.values()):
            continue
        unit = "s" if name.endswith("_s_per_epoch") else "ms"
        to_unit = 1.0 if unit == "s" else 1000.0
        metrics[name] = {"value": median_over_heads(per_head, to_unit, 0), "unit": unit,
                         "measured": median_over_heads(per_head, to_unit, 1),
                         "work": sum(t[2] for t in per_head.values())}
        if None not in per_head:
            metrics[name]["heads"] = len(per_head)
    if peak_rss:
        metrics["peak_rss_mb"] = {"value": median(peak_rss), "unit": "MB", "n": len(peak_rss)}
    probe_s = sum(probes) / len(probes)
    return metrics, rounds, {"probe_ms": 1000 * probe_s, "probes": len(probes),
                             "scale": speedprobe.REFERENCE_S / probe_s}


# ------------------------------------------------------------------ traced

def run_traced(workload, seed, in_dir, work, seconds, deadline):
    out = work / "traced.json"
    log = work / "traced.log"
    cmd = [sys.executable, str(HERE / "traced_child.py"), workload.name, str(seed),
           str(in_dir), str(work), str(seconds), str(out)]
    code, _, _ = run_child(cmd, child_env(), work, log, deadline)
    if code != 0 or not out.exists():
        print(f"[{workload.name}] traced run failed (exit {code}):\n{log_tail(log)}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


# ------------------------------------------------------------------ report

def count_ops(rounds_checks, extra_ops):
    ops = [op for c in rounds_checks for op in c["ops"]] + extra_ops
    return len(ops), [op for op in ops if not op[1]]


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        detail = ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                           for k, v in m.items() if k not in ("value", "unit"))
        if m.get("calls") == 0:
            print(f"  {name:44s} absent (0 calls)")
        else:
            print(f"  {name:44s} {m['value']:12.6g} {m['unit']:8s} {detail}")


def run_workload(workload, seed, seconds, traces, work_root, deadline):
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        in_dir = work / "inputs"
        make_inputs(workload, seed, in_dir)
        # compile gapnet's bytecode and fault numpy into the page cache
        # before anything is timed
        run_child([sys.executable, "-c", "import gapnet.cli"], child_env(), work,
                  work / "warmup.log", deadline)
        results = {}
        for trace in traces:
            t0 = perf_counter()
            if trace == 0:
                metrics, rounds, host = run_e2e(workload, seed, in_dir, work, seconds,
                                                deadline)
                checks = [r["check"] for r in rounds]
            else:
                traced = run_traced(workload, seed, in_dir, work, seconds, deadline)
                if traced is None:
                    results[trace] = {"metrics": {}, "attempted": 1, "failed": 1,
                                      "failures": [("traced run", False, "no result")]}
                    continue
                metrics, rounds = traced["per_layer"], traced["rounds"]
                checks = [r[mode]["check"] for r in rounds for mode in ("untraced", "traced")]
            attempted, failures = count_ops(checks, determinism_ops(checks))
            info = checks[0]["info"] if checks else {}
            results[trace] = {"metrics": metrics, "attempted": attempted,
                              "failed": len(failures), "failures": failures,
                              "rounds": rounds, "info": info,
                              "wall_s": perf_counter() - t0}
            if trace == 0:
                results[trace]["host"] = host
            else:
                results[trace]["spans"] = traced["spans"]
                results[trace]["overhead_pct_per_command"] = traced["overhead_pct_per_command"]
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args(argv)

    if not (SRC / "gapnet" / "cli.py").is_file():
        print(f"error: no gapnet sources under {SRC}; run from a gapnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    deadline = Deadline(DEADLINE_S * len(names) * len(traces))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    prov = provenance(args.seed)
    # This process, its speed probe and every child share one CPU: the
    # children run one at a time, and the probe sees the CPU they run on.
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    print("provenance: " + json.dumps(prov))

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            results = run_workload(WORKLOADS[name], args.seed, args.seconds, traces, work_root,
                                   deadline)
            RESULTS.mkdir(exist_ok=True)
            for trace, res in results.items():
                title = (f"== {name} seed {args.seed} "
                         f"{'traced (per layer)' if trace else 'end to end'}: "
                         f"{len(res.get('rounds', []))} rounds, {res.get('wall_s', 0):.1f} s")
                print_metrics(title, res["metrics"])
                ratio = res["failed"] / res["attempted"]
                print(f"  {'ops_failed':44s} {ratio:12.6g} {'ratio':8s} "
                      f"{res['failed']} of {res['attempted']} commands and checks")
                if "host" in res:
                    print(f"  host: probe {res['host']['probe_ms']:.4g} ms per iteration, "
                          f"mean of {res['host']['probes']} probes; times are scaled to a "
                          f"{1000 * speedprobe.REFERENCE_S:g} ms host, about measured * "
                          f"{res['host']['scale']:.4g}")
                for op in res["failures"]:
                    print(f"  FAILED {op[0]}: {op[2]}")
                for head, facts in res.get("info", {}).items():
                    print(f"  info {head}: {json.dumps(facts)}")
                out = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
                out.write_text(json.dumps(dict(res, provenance=prov, workload=name), indent=1))
                final["attempted"] += res["attempted"]
                final["failed"] += res["failed"]
                prefix = f"{name}/" if len(names) > 1 else ""
                for key, m in res["metrics"].items():
                    final["metrics"][prefix + key] = {"value": m["value"], "unit": m["unit"]}
    finally:
        try:
            work_root.rmdir()
        except OSError:  # another run still works there
            pass
    final["correct"] = final["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
