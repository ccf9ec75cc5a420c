"""tools/ab_bench.py: op totals per side, and no output from wrong runs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def run(correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}


def record(*pairs):
    return {"workloads": {"stride_series": {"runs": [
        {"seed": 2500 + i, "first": "parent", "parent": p, "change": c}
        for i, (p, c) in enumerate(pairs)]}}}


def test_op_totals_sum_each_side():
    rec = record((run(attempted=10, failed=1), run(attempted=12)),
                 (run(attempted=9), run(attempted=11, failed=2)))
    runs = rec["workloads"]["stride_series"]["runs"]
    assert ab_bench.op_totals(runs) == {"parent": {"attempted": 19, "failed": 1},
                                        "change": {"attempted": 23, "failed": 2}}


def test_wrong_runs_are_named():
    rec = record((run(), run()), (run(), run(correct=False)))
    assert ab_bench.wrong_runs(rec) == [("stride_series", 2501, "change")]
    assert ab_bench.wrong_runs(record((run(), run()))) == []


def test_no_output_from_a_wrong_run(tmp_path, monkeypatch):
    # a change side that reads "correct": false gets exit 1 and no file,
    # however fast it ran
    monkeypatch.setattr(ab_bench, "unpack", lambda commit, dest: "0" * 40)
    monkeypatch.setattr(ab_bench, "run_once",
                        lambda root, w, seed, s: run(correct=root != ab_bench.ROOT))
    monkeypatch.setattr(ab_bench.subprocess, "run",
                        lambda *a, **k: type("P", (), {"stdout": "abc\n"})())
    out = tmp_path / "bench.json"
    code = ab_bench.main(["--parent", "HEAD", "--out", str(out),
                          "--workload", "stride_series=2"])
    assert code == 1
    assert not out.exists()
