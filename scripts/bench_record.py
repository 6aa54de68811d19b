#!/usr/bin/env python3
"""Append one parent/change entry to ``BENCH_<workload>.json`` from benchmark results files.

    python3 scripts/bench_record.py --workload imported_2048 \\
        --parent PARENT_DIR --change CHANGE_DIR --note "what the change does" \\
        --parent-digest imported_2048=HEX --change-digest imported_2048=HEX

It times nothing. ``PARENT_DIR`` and ``CHANGE_DIR`` each hold the
``<workload>-seed<S>-trace0.json`` files that ``perfbench/run.py
--workload W --seed S --trace 0`` wrote into one checkout's
``perfbench/results/``, copied out after each run, since both checkouts
write the same file names. Runs pair by seed. The protocol is
alternating pairs: the parent runs first on odd seeds and second on
even ones.

For each end-to-end metric of ``BENCHMARK.json`` (read, never written)
the entry keeps each side's runs (the scaled ``value``), their median
and quartiles (``statistics.quantiles``, inclusive) and IQR, and the
median of the unscaled ``measured`` values; then the median's shift in
percent, the pairs in which the change was better (ties count for
neither), whether the shift lies inside both sides' IQRs, whether the
change is worse than the parent by more than the metric's bound, and a
verdict. The claim rule: at least ten pairs, the change better in at
least nine tenths of them, the medians further apart than the parent's
IQR, and no larger share of failed operations on the change's side.

Every run's operations count in ``ops``. A run that gave no value for
some metric (a failed run writes ``"metrics": {}``) drops its pair from
the summaries, and the entry names that seed under ``dropped_seeds``.
The seed-7 output digests (``scripts/round_digest.py``) are recorded as
given; each side's digest of the workload is required.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
VALUES = ("scaled by perfbench/speedprobe.py to a 1 ms-probe host; median and quartiles over "
          "the runs of one side (statistics.quantiles, inclusive)")
FLAGS = ("shift_inside_both_iqrs: |change median - parent median| is no larger than either "
         "side's IQR, so the run-to-run spread covers the shift")
ABOUT = ("One entry per change that measured this workload against its parent: alternating "
         "pairs of perfbench/run.py, end-to-end metrics only.")
DIGEST_TOOL = "python3 scripts/round_digest.py --workload W --seed 7"


class RecordError(Exception):
    pass


def load_runs(directory, workload):
    """{seed: results record} of ``directory``'s trace-0 results files of ``workload``."""
    pattern = re.compile(rf"{re.escape(workload)}-seed(\d+)-trace0\.json")
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        match = pattern.fullmatch(path.name)
        if match:
            runs[int(match.group(1))] = json.loads(path.read_text())
    if not runs:
        raise RecordError(f"{directory}: no {workload}-seed<S>-trace0.json files")
    return runs


def one(values, what):
    """The one value every run gives for ``what``."""
    distinct = {json.dumps(v, sort_keys=True) for v in values}
    if len(distinct) != 1:
        raise RecordError(f"the runs disagree on {what}: {sorted(distinct)}")
    return values[0]


def side_summary(runs, measured):
    """Median, quartiles and IQR of one side's runs, and the median of their ``measured``."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "measured_median": statistics.median(measured), "runs": runs}


def rounded(side):
    return {k: [round(v, 6) for v in x] if k == "runs" else round(x, 6) for k, x in side.items()}


def more_failures(ops):
    """Whether a larger share of the change's operations failed than of the parent's."""
    p, c = ops["parent"], ops["change"]
    return c["failed"] * p["attempted"] > p["failed"] * c["attempted"]


def metric_summary(spec, parent, change, parent_measured=None, change_measured=None,
                   failed_more=False):
    """One metric's entry from the two sides' runs, listed in pair order.

    ``failed_more`` (see ``more_failures``) withholds the claim."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p = side_summary(parent, parent_measured or parent)
    c = side_summary(change, change_measured or change)
    shift = c["median"] - p["median"]
    better_pairs = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    inside = abs(shift) <= p["iqr"] and abs(shift) <= c["iqr"]
    worse_beyond = sign * shift > spec["bound"] * abs(p["median"])
    if worse_beyond:
        verdict = "worse beyond bound"
    elif (sign * shift < 0 and len(parent) >= 10 and 10 * better_pairs >= 9 * len(parent)
          and abs(shift) > p["iqr"] and not failed_more):
        verdict = "better (claim rule met)"
    elif inside:
        verdict = "no change resolved (shift inside both IQRs)"
    elif sign * shift < 0 and failed_more:
        verdict = "better, claim rule not met (a larger share of operations failed)"
    elif sign * shift < 0:
        verdict = "better, claim rule not met"
    else:
        verdict = "worse within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": rounded(p), "change": rounded(c),
            "shift_pct": round(100.0 * shift / p["median"], 2),
            "change_better_pairs": better_pairs,
            "shift_inside_both_iqrs": inside,
            "worse_beyond_bound": worse_beyond,
            "verdict": verdict}


def digests(pairs, flag):
    out = {}
    for item in pairs:
        workload, sep, hexdigest = item.partition("=")
        if not sep or not re.fullmatch(r"[0-9a-f]{64}", hexdigest):
            raise RecordError(f"{flag} wants WORKLOAD=SHA256, got {item!r}")
        out[workload] = hexdigest
    return out


def build_entry(workload, parent_dir, change_dir, note, parent_digests, change_digests):
    if workload not in parent_digests or sorted(parent_digests) != sorted(change_digests):
        raise RecordError(f"give each side's {workload} digest, and every other workload's "
                          "for both sides or for neither")
    sides = {"parent": load_runs(parent_dir, workload), "change": load_runs(change_dir, workload)}
    all_seeds = sorted(sides["parent"])
    if sorted(sides["change"]) != all_seeds:
        raise RecordError(f"unpaired seeds: parent has {all_seeds}, change has "
                          f"{sorted(sides['change'])}")
    specs = json.loads(BENCHMARK.read_text())["end_to_end"]
    dropped = {}
    for seed in all_seeds:
        missing = [f"{side} has no {spec['name']}" for side in sides for spec in specs
                   if "value" not in sides[side][seed]["metrics"].get(spec["name"], {})]
        if missing:
            dropped[str(seed)] = "; ".join(missing)
    seeds = [seed for seed in all_seeds if str(seed) not in dropped]
    if len(seeds) < 2:
        raise RecordError(f"quartiles need at least two pairs with every metric; "
                          f"dropped: {dropped}")
    everything = [sides[s][seed] for s in sides for seed in all_seeds]
    prov = [run["provenance"] for run in everything]
    blas = [p["blas"].get("openblas configuration", p["blas"].get("name"))
            if isinstance(p["blas"], dict) else p["blas"] for p in prov]
    host = {key: one([p[key] for p in prov], key) for key in ("nproc", "python", "numpy")}
    host["pinned_cpu"] = one([p.get("pinned_cpu") for p in prov], "pinned_cpu")
    host["blas"] = one(blas, "blas")
    entry = {"change": note}
    for key, field in (("sha", "git_sha"), ("src_sha256", "src_sha256")):
        for side in sides:
            entry[f"{side}_{key}"] = one([sides[side][seed]["provenance"][field]
                                          for seed in all_seeds], f"the {side}'s {field}")
    odd, even = [s for s in all_seeds if s % 2], [s for s in all_seeds if not s % 2]
    entry.update({
        "command": f"python3 perfbench/run.py --workload {workload} --seed S --trace 0",
        "seeds": seeds,
        "pairs": len(seeds),
        "order": (f"alternating: the parent ran first on seeds {', '.join(map(str, odd))} "
                  f"and second on {', '.join(map(str, even))}"),
        "host": host,
        "values": VALUES,
        "flags": FLAGS,
        "ops": {side: {key: sum(sides[side][seed][key] for seed in all_seeds)
                       for key in ("attempted", "failed")} for side in sides},
    })
    if dropped:
        entry["dropped_seeds"] = dropped
    entry["metrics"] = {}
    failed_more = more_failures(entry["ops"])
    for spec in specs:
        name = spec["name"]
        columns = {}
        for side in sides:
            records = [sides[side][seed]["metrics"][name] for seed in seeds]
            columns[side] = ([r["value"] for r in records],
                             [r.get("measured", r["value"]) for r in records])
        entry["metrics"][name] = metric_summary(spec, columns["parent"][0], columns["change"][0],
                                                columns["parent"][1], columns["change"][1],
                                                failed_more)
    entry["output_digest_seed7"] = {"tool": DIGEST_TOOL, **change_digests,
                                    "parent_equals_change": parent_digests == change_digests}
    if parent_digests != change_digests:
        entry["output_digest_seed7"]["parent"] = parent_digests
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="the parent's results files")
    parser.add_argument("--change", required=True, help="the change's results files")
    parser.add_argument("--note", required=True, help="what the change does, in one line")
    parser.add_argument("--parent-digest", action="append", required=True, metavar="W=SHA256",
                        help="the parent's seed-7 digest of a workload; the workload's own is "
                             "required")
    parser.add_argument("--change-digest", action="append", required=True, metavar="W=SHA256",
                        help="the change's, likewise")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.workload}.json"
    try:
        entry = build_entry(args.workload, args.parent, args.change, args.note,
                            digests(args.parent_digest, "--parent-digest"),
                            digests(args.change_digest, "--change-digest"))
    except (RecordError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    bench = (json.loads(out.read_text()) if out.exists()
             else {"workload": args.workload, "about": ABOUT, "entries": []})
    if bench.get("workload") != args.workload:
        print(f"error: {out} records {bench.get('workload')!r}, not {args.workload!r}",
              file=sys.stderr)
        return 1
    bench["entries"].append(entry)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, m in entry["metrics"].items():
        print(f"{name:22s} {m['parent']['median']:>12.6g} -> {m['change']['median']:<12.6g} "
              f"{m['shift_pct']:+7.2f}%  better in {m['change_better_pairs']}/{entry['pairs']}"
              f"  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
