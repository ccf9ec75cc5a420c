"""A/B benchmark: this checkout against a parent commit, in alternating pairs.

    python3 tools/ab_bench.py --parent <commit> --out BENCH_x.json \\
        --workload stride_series=5 --workload theorem_sweep=3

Run from the root of a checkout.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the ``run_seconds`` of BENCHMARK.json, once in this checkout and
once in a ``git archive`` copy of the parent commit, unpacked in a temporary
directory that is removed at the end.  The side that runs first alternates
pair by pair; pair i of a workload uses the seed ``--seed-base + i``, the
same on both sides.  The JSON written to
``--out`` holds, per workload, every run's summary line and, per end-to-end
metric of BENCHMARK.json, both sides' values, medians, quartiles and IQRs,
the per-pair ratios (change / parent), the number of pairs in which the
change was better and the verdict of the claim rule (see ``verdict``), and
each side's attempted and failed op totals.  A run
that reads ``"correct": false`` (``run.py`` still exits 0 then) makes the
tool exit 1 without writing ``--out``: a speedup from wrong results is no
speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS",
                   help="workload and number of pairs; may be repeated")
    p.add_argument("--seed-base", type=int, default=2500)
    args = p.parse_args(argv)
    try:
        args.pairs = [(w, int(n)) for w, n in (x.split("=") for x in args.workload)]
    except ValueError:
        p.error("--workload takes NAME=PAIRS, e.g. stride_series=5")
    if any(n < 1 for _, n in args.pairs):
        p.error("every workload needs at least one pair")
    return args


def unpack(commit: str, dest: Path) -> str:
    """Unpack ``git archive`` of ``commit`` into ``dest``; return its full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", full],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {full} failed")
    return full


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench run failed in {root} ({workload}, seed {seed}): "
                           f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(metric: dict, parent: dict, change: dict, wins: int, pairs: int) -> str:
    """The claim rule on one metric, from both sides' spreads and the pairs
    the change won (a tie counts for neither side):

    - ``better``: the change won at least 9 in 10 pairs and its median is
      better than the parent's by more than the parent's IQR;
    - ``worse``: the change median is worse than the parent's by more than
      the metric's bound (a fraction of the parent median);
    - ``unresolved``: the parent's IQR is more than the bound times its
      median, and not every change run beats every parent run;
    - ``within_bound`` otherwise.
    """
    sign = 1 if metric["better"] == "higher" else -1   # sign * (x - y) > 0: x beats y
    gain = sign * (change["median"] - parent["median"])
    if 10 * wins >= 9 * pairs and gain > parent["iqr"]:
        return "better"
    if -gain > metric["bound"] * abs(parent["median"]):
        return "worse"
    beats_all = all(sign * (c - p) > 0 for c in change["values"] for p in parent["values"])
    if parent["iqr"] > metric["bound"] * abs(parent["median"]) and not beats_all:
        return "unresolved"
    return "within_bound"


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: both sides' spread, per-pair ratios, the pairs won and the
    verdict of the claim rule."""
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [tuple(r[side]["metrics"].get(name, {}).get("value")
                       for side in ("parent", "change")) for r in runs]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        parent, change = [a for a, _ in pairs], [b for _, b in pairs]
        higher = m["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in pairs)
        out[name] = {
            "better": m["better"],
            "parent": spread(parent),
            "change": spread(change),
            "ratios": [b / a if a else None for a, b in pairs],
            "change_better_in": wins,
            "pairs": len(pairs),
        }
        out[name]["verdict"] = verdict(m, out[name]["parent"], out[name]["change"],
                                       wins, len(pairs))
    return out


def op_totals(runs: list) -> dict:
    """Per side, the attempted and failed ops summed over the runs."""
    return {side: {key: sum(r[side].get(key, 0) for r in runs)
                   for key in ("attempted", "failed")}
            for side in ("parent", "change")}


def wrong_runs(record: dict) -> list:
    """(workload, seed, side) of every run that does not read "correct": true."""
    return [(w, pair["seed"], side)
            for w, entry in record["workloads"].items() for pair in entry["runs"]
            for side in ("parent", "change") if pair[side].get("correct") is not True]


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, check=True, capture_output=True,
                                text=True).stdout.strip())
    work = Path(tempfile.mkdtemp(prefix="ab_bench_"))
    try:
        parent_root = work / "parent"
        parent_root.mkdir()
        parent = unpack(args.parent, parent_root)
        record = {
            "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {seconds:g} --trace 0",
            "parent": parent,
            "change": {"head": head, "uncommitted_changes": dirty},
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "workloads": {},
        }
        sides = {"parent": parent_root, "change": ROOT}
        for workload, n_pairs in args.pairs:
            runs = []
            for i in range(n_pairs):
                seed = args.seed_base + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                    values = {k: round(v["value"], 4)
                              for k, v in pair[side]["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {values}", flush=True)
                runs.append(pair)
            record["workloads"][workload] = {
                "runs": runs,
                "ops": op_totals(runs),
                "metrics": summarize(runs, metrics) if n_pairs > 1 else {},
            }
        wrong = wrong_runs(record)
        if wrong:
            print("runs not correct, no output written: "
                  + ", ".join(f"{w} seed {seed} {side}" for w, seed, side in wrong),
                  file=sys.stderr)
            return 1
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
