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


LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "ops_per_s", "better": "higher", "bound": 0.25}


def judged(metric, pairs):
    """The verdict summarize gives ``metric`` over (parent, change) pairs."""
    runs = [{"parent": {"metrics": {metric["name"]: {"value": p}}},
             "change": {"metrics": {metric["name"]: {"value": c}}}} for p, c in pairs]
    return ab_bench.summarize(runs, [metric])[metric["name"]]["verdict"]


class TestVerdict:
    PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]

    def test_nine_of_ten_wins_past_the_iqr_is_better(self):
        change = [0.7] * 9 + [1.5]
        assert judged(LATENCY, list(zip(self.PARENT, change))) == "better"
        assert judged(THROUGHPUT, [(p, 2 - c) for p, c in zip(self.PARENT, change)]) \
            == "better"

    def test_eight_of_ten_wins_is_not_better(self):
        change = [0.7] * 8 + [1.5, 1.5]
        assert judged(LATENCY, list(zip(self.PARENT, change))) == "within_bound"

    def test_ties_count_for_neither_side(self):
        # nine runs tie with their parent and one wins: one win in ten
        change = self.PARENT[:9] + [0.5]
        assert judged(LATENCY, list(zip(self.PARENT, change))) == "within_bound"

    def test_wins_inside_the_parent_iqr_are_not_better(self):
        parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
        change = [p - 0.01 for p in parent]
        assert judged(LATENCY, list(zip(parent, change))) == "within_bound"

    def test_wide_parent_spread_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        change = [1.1, 1.9, 1.0, 2.0, 1.2, 1.8, 1.0, 2.1, 0.9, 2.0]
        assert judged(LATENCY, list(zip(parent, change))) == "unresolved"

    def test_wide_spread_with_every_run_better_is_resolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        change = [0.9, 0.95, 0.9, 0.95, 0.9, 0.95, 0.9, 0.95, 0.9, 0.95]
        # every change run beats every parent run, but the median gap (0.575)
        # is not past the parent's IQR (1.0)
        assert judged(LATENCY, list(zip(parent, change))) == "within_bound"
        assert judged(LATENCY, list(zip(parent, [0.1] * 10))) == "better"

    def test_regression_past_the_bound_is_worse(self):
        change = [1.3] * 10
        assert judged(LATENCY, list(zip(self.PARENT, change))) == "worse"
        assert judged(THROUGHPUT, list(zip(self.PARENT, [0.7] * 10))) == "worse"
        assert judged(LATENCY, list(zip(self.PARENT, [1.2] * 10))) == "within_bound"
