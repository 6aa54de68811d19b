import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def close6(got, stored):
    """Equal to within one unit of the sixth decimal: the stored runs are rounded,
    the stored summaries were taken before rounding."""
    return abs(got - stored) <= 1e-6 + 1e-12


COMMITTED = [(path.stem, entry) for path in sorted(ROOT.glob("BENCH_*.json"))
             for entry in json.loads(path.read_text())["entries"]]


def entry_id(name, entry):
    """A test id: the change's commit, or its source digest when the runs came from a
    copy that is not a git work tree (``change_sha`` null)."""
    return f"{name}-{(entry['change_sha'] or entry['change_src_sha256'])[:7]}"


@pytest.mark.parametrize("entry", [entry for _, entry in COMMITTED],
                         ids=[entry_id(name, entry) for name, entry in COMMITTED])
def test_committed_entries_rebuild_from_their_own_runs(entry):
    assert sorted(entry["metrics"]) == sorted(spec["name"] for spec in END_TO_END)
    for name, stored in entry["metrics"].items():
        spec = {k: stored[k] for k in ("unit", "better", "bound")}
        got = bench_record.metric_summary(spec, stored["parent"]["runs"],
                                          stored["change"]["runs"],
                                          failed_more=bench_record.more_failures(entry["ops"]))
        for side in ("parent", "change"):
            assert len(stored[side]["runs"]) == entry["pairs"] == len(entry["seeds"])
            assert got[side]["runs"] == stored[side]["runs"]
            for key in ("median", "q1", "q3", "iqr"):
                assert close6(got[side][key], stored[side][key]), (name, side, key)
        assert abs(got["shift_pct"] - stored["shift_pct"]) <= 0.01 + 1e-9, name
        for key in ("change_better_pairs", "shift_inside_both_iqrs", "worse_beyond_bound",
                    "verdict", "unit", "better", "bound"):
            assert got[key] == stored[key], (name, key)


def write_runs(directory, sha, values, failed=0, src_sha=None):
    """One fake results file per seed: metric i reads values[seed] + i; a value of
    None writes the record of a run whose commands all failed. The source digest is
    ``src_sha``, or ``sha`` twice."""
    directory.mkdir()
    for seed, value in values.items():
        metrics = {spec["name"]: {"value": value + i, "unit": spec["unit"],
                                  "measured": 2 * (value + i)}
                   for i, spec in enumerate(END_TO_END)} if value is not None else {}
        record = {"metrics": metrics, "attempted": 10,
                  "failed": failed if value is not None else 10,
                  "provenance": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                                 "blas": {"name": "scipy-openblas",
                                          "openblas configuration": "OpenBLAS test"},
                                 "git_sha": sha, "src_sha256": src_sha or sha * 2, "seed": seed,
                                 "pinned_cpu": 0}}
        (directory / f"w-seed{seed}-trace0.json").write_text(json.dumps(record))
    (directory / "w-seed1-trace1.json").write_text("{}")  # a traced run is not read
    (directory / "other-seed1-trace0.json").write_text("{}")


@pytest.fixture
def root(tmp_path, monkeypatch):
    """The recorder's repository root, where it appends to BENCH_<workload>.json."""
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    return tmp_path


def argv(tmp_path, digest="1" * 64):
    return ["--workload", "w", "--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
            "--note", "a faster thing", "--parent-digest", "w=" + "1" * 64,
            "--change-digest", "w=" + digest]


def test_synthetic_pairs_append_one_entry(root, capsys):
    parent = {1: 1.0, 2: 1.2, 3: 1.1, 4: 0.9}
    change = {1: 0.8, 2: 1.0, 3: 0.85, 4: 0.95}
    write_runs(root / "p", "a" * 20, parent)
    write_runs(root / "c", "b" * 20, change, failed=1)
    assert bench_record.main(argv(root)) == 0
    assert bench_record.main(argv(root, digest="2" * 64)) == 0  # appends
    bench = json.loads((root / "BENCH_w.json").read_text())
    assert bench["workload"] == "w" and len(bench["entries"]) == 2
    entry = bench["entries"][0]
    assert list(entry) == ["change", "parent_sha", "change_sha", "parent_src_sha256",
                           "change_src_sha256", "command", "seeds", "pairs", "order", "host",
                           "values", "flags", "ops", "metrics", "output_digest_seed7"]
    assert bench["entries"][1]["output_digest_seed7"] == {
        "tool": bench_record.DIGEST_TOOL, "w": "2" * 64, "parent_equals_change": False,
        "parent": {"w": "1" * 64}}
    assert entry["change"] == "a faster thing"
    assert (entry["parent_sha"], entry["change_src_sha256"]) == ("a" * 20, "b" * 40)
    assert entry["seeds"] == [1, 2, 3, 4] and entry["pairs"] == 4
    assert entry["order"] == ("alternating: the parent ran first on seeds 1, 3 "
                              "and second on 2, 4")
    assert entry["host"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "pinned_cpu": 0,
                             "blas": "OpenBLAS test"}
    assert entry["ops"] == {"parent": {"attempted": 40, "failed": 0},
                            "change": {"attempted": 40, "failed": 4}}
    assert entry["output_digest_seed7"] == {"tool": bench_record.DIGEST_TOOL, "w": "1" * 64,
                                            "parent_equals_change": True}
    setup = entry["metrics"]["setup_s"]  # END_TO_END[0]: values as written
    assert setup["parent"]["runs"] == [1.0, 1.2, 1.1, 0.9]
    assert setup["parent"]["median"] == 1.05 and setup["change"]["median"] == 0.9
    assert setup["parent"]["q1"] == 0.975 and setup["parent"]["q3"] == 1.125
    assert setup["parent"]["iqr"] == 0.15
    assert setup["parent"]["measured_median"] == 2.1
    assert setup["shift_pct"] == round(100 * (0.9 - 1.05) / 1.05, 2)
    assert setup["change_better_pairs"] == 3  # seed 4 got slower
    assert setup["change"]["iqr"] == 0.125  # narrower than the 0.15 shift
    assert not setup["shift_inside_both_iqrs"] and not setup["worse_beyond_bound"]
    # 3 of 4 pairs would miss the claim anyway; the change's 4 failures name the reason
    assert setup["verdict"] == "better, claim rule not met (a larger share of operations failed)"
    rss = entry["metrics"]["peak_rss_mb"]  # +5 on both sides: the same shift, in MB
    assert rss["bound"] == 0.1 and rss["parent"]["median"] == 6.05
    out_text = capsys.readouterr().out
    assert "setup_s" in out_text and "better in 3/4" in out_text


def test_runs_from_outside_a_work_tree_record_null_shas_and_get_an_id(root):
    # a copy that is not a git work tree gives the runs a git_sha of None
    write_runs(root / "p", None, {1: 1.0, 2: 1.2}, src_sha="a" * 64)
    write_runs(root / "c", None, {1: 0.8, 2: 1.0}, src_sha="b" * 64)
    assert bench_record.main(argv(root)) == 0
    entry = json.loads((root / "BENCH_w.json").read_text())["entries"][0]
    assert entry["parent_sha"] is None and entry["change_sha"] is None
    assert entry_id("BENCH_w", entry) == "BENCH_w-bbbbbbb"


def test_a_failed_run_drops_its_pair_and_counts_its_failures(root):
    write_runs(root / "p", "a", {1: 1.0, 2: 1.2, 3: 1.1})
    write_runs(root / "c", "b", {1: 0.8, 2: None, 3: 0.9})
    assert bench_record.main(argv(root)) == 0
    entry = json.loads((root / "BENCH_w.json").read_text())["entries"][0]
    assert entry["seeds"] == [1, 3] and entry["pairs"] == 2
    assert entry["order"] == "alternating: the parent ran first on seeds 1, 3 and second on 2"
    assert list(entry["dropped_seeds"]) == ["2"]
    assert entry["dropped_seeds"]["2"].startswith("change has no setup_s; ")
    assert entry["ops"] == {"parent": {"attempted": 30, "failed": 0},
                            "change": {"attempted": 30, "failed": 10}}
    assert entry["metrics"]["setup_s"]["change"]["runs"] == [0.8, 0.9]


def test_unpaired_or_missing_runs_exit_1_and_write_nothing(root, capsys):
    write_runs(root / "p", "a", {1: 1.0, 2: 1.0})
    write_runs(root / "c", "b", {1: 1.0, 3: 1.0})
    assert bench_record.main(argv(root)) == 1
    assert "unpaired seeds" in capsys.readouterr().err
    base = argv(root)[:4] + argv(root)[6:]  # no --change
    assert bench_record.main(base + ["--change", str(root / "nowhere")]) == 1
    assert bench_record.main(base + ["--change", str(root / "p"),
                                     "--change-digest", "w=abc"]) == 1
    assert "WORKLOAD=SHA256" in capsys.readouterr().err
    other = [a.replace("w=", "v=") for a in base]  # no digest of the workload itself
    assert bench_record.main(other + ["--change", str(root / "p")]) == 1
    assert "give each side's w digest" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # the digests are required
        bench_record.main(base[:-4] + ["--change", str(root / "p")])
    write_runs(root / "q", "a", {1: None, 2: 1.0})
    assert bench_record.main(argv(root)[:2] + ["--parent", str(root / "q"), "--change",
                                               str(root / "p")] + argv(root)[6:]) == 1
    assert "at least two pairs" in capsys.readouterr().err
    assert not (root / "BENCH_w.json").exists()


PARENT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]  # IQR 0.035


@pytest.mark.parametrize("better,parent,change,verdict,failed_more", [
    ("lower", PARENT, [2.0] * 10, "worse beyond bound", False),
    ("lower", PARENT, [1.1] * 10, "worse within bound", False),
    ("lower", PARENT, [0.5] * 10, "better (claim rule met)", False),
    ("lower", PARENT, [0.5] * 10,
     "better, claim rule not met (a larger share of operations failed)", True),
    ("lower", PARENT, [0.5] * 8 + [1.5] * 2, "better, claim rule not met", False),  # 8 of 10
    ("lower", PARENT[:6], [0.5] * 6, "better, claim rule not met", False),  # < 10 pairs
    ("lower", PARENT, PARENT[::-1], "no change resolved (shift inside both IQRs)", False),
    ("higher", PARENT, [0.5] * 10, "worse beyond bound", False),
    ("higher", PARENT, [1.1] * 10, "better (claim rule met)", False),
])
def test_verdicts(better, parent, change, verdict, failed_more):
    spec = {"unit": "x", "better": better, "bound": 0.25}
    got = bench_record.metric_summary(spec, parent, change, failed_more=failed_more)
    assert got["verdict"] == verdict


@pytest.mark.parametrize("parent,change,more", [
    ((10, 0), (10, 1), True),
    ((10, 1), (10, 1), False),
    ((10, 1), (20, 2), False),  # the same share
    ((10, 1), (20, 3), True),
    ((10, 2), (10, 0), False),
])
def test_more_failures_compares_shares(parent, change, more):
    ops = {side: {"attempted": a, "failed": f}
           for side, (a, f) in (("parent", parent), ("change", change))}
    assert bench_record.more_failures(ops) is more
