"""Benchmark of hypersum: one command for every workload.

    python3 perfbench/run.py --workload theorem_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` times the workload's operation list with tracing off and
prints the end-to-end metrics; ``--trace 1`` prints the per-layer metrics
of a traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
record (and, with tracing, the spans) is also written to ``.perfbench_out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    sys.path.insert(0, str(SRC))
    import hypersum
    import hypersum.cli  # noqa: F401  (binds hypersum.cli)
    return hypersum


def _runner(hs, wl):
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    return wl.Runner(hs, ROOT, tmp)


def _warm(runner, wl, workload):
    for op in wl.WORKLOADS[workload].warmup:
        runner.execute(op)


def setup_child(workload: str) -> int:
    """Body of one set-up measurement: import the program, warm up, exit."""
    import workloads as wl
    hs = _import_program()
    _warm(_runner(hs, wl), wl, workload)
    return 0


def setup_once(wl, workload: str) -> float:
    """Wall time of one fresh interpreter that imports hypersum and runs the
    workload's warm-up."""
    t0 = time.perf_counter()
    proc = wl.run_child([sys.executable, str(Path(__file__)), "--setup-child", workload],
                        cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return elapsed


def check_all(wl, hs, runner, ops, results):
    """Outcomes of ``ops``; references are computed once per distinct op."""
    refs = {}
    outcomes = []
    for op, res in zip(ops, results):
        key = (op.kind, op.prec, op.args)
        if key not in refs:
            refs[key] = wl.reference(op)
        outcomes.append(wl.check(op, res, refs[key], hs, runner))
    return outcomes


def _tally(ops, outcomes):
    """(correct, failed count, failed list): a run is correct when every
    failed op is one of the fixed-input ops known to fail (see README.md)."""
    failed = [(op, o) for op, o in zip(ops, outcomes) if not o.ok]
    correct = all(op.fixed for op, _ in failed)
    return correct, len(failed), [[op.ident, op.kind, op.prec, repr(op.args), o.note]
                                  for op, o in failed]


def _meta(workload, args):
    import mpmath
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, math.ceil(q * len(values)) - 1)]


def timed_run(args, wl):
    ops = wl.op_list(args.workload, args.seed, wl.cycles_for(args.workload, args.seconds))
    hs = _import_program()
    runner = _runner(hs, wl)
    _warm(runner, wl, args.workload)
    for op in ops:
        runner.prepare(op)
    runner.child_rss_mb = 0.0
    # One set-up child runs before each of SETUP_REPEATS equal slices of the
    # op list, so that set-up is sampled over the same stretch of time as the
    # ops; the children are not part of the ops' wall time.
    setup_times, results, lat, wall = [], [], [], 0.0
    for i in range(SETUP_REPEATS):
        setup_times.append(setup_once(wl, args.workload))
        part = ops[i * len(ops) // SETUP_REPEATS:(i + 1) * len(ops) // SETUP_REPEATS]
        part_results, part_lat, part_wall = tracing.run_ops(runner, part)
        results += part_results
        lat += part_lat
        wall += part_wall
    setup_s = statistics.median(setup_times)
    if args.workload == "cli_calls":   # the timed CLI children only
        peak_rss_mb = runner.child_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = check_all(wl, hs, runner, ops, results)
    correct, n_failed, failed = _tally(ops, outcomes)
    bits = [o.bits for o in outcomes if o.ok and o.bits is not None]
    metrics = {
        "setup_s": tracing.metric(setup_s, "s"),
        "ops_per_s": tracing.metric(len(ops) / wall, "1/s"),
        "latency_p50_ms": tracing.metric(statistics.median(lat) * 1e3, "ms"),
        "correct_bits_p50": tracing.metric(statistics.median(bits) if bits else 0.0, "bits"),
        "peak_rss_mb": tracing.metric(peak_rss_mb, "MB"),
    }
    record = {
        "latency_p90_ms": _percentile(lat, 0.9) * 1e3, "latency_samples": len(lat),
        "wall_s": wall,
        "setup_samples_s": setup_times,
        "latencies_ms": [round(x * 1e3, 3) for x in lat],
        "failed_ops": failed,
    }
    return correct, len(ops), n_failed, metrics, record, None


def traced_run(args, wl):
    import layers
    hs = _import_program()
    runner = _runner(hs, wl)
    _warm(runner, wl, args.workload)
    # the first half of the cycles, untraced and then traced
    part = wl.op_list(args.workload, args.seed,
                      math.ceil(wl.cycles_for(args.workload, args.seconds) / 2))
    for op in part:
        runner.prepare(op)

    results_u, _, wall_u = tracing.run_ops(runner, part)
    tracer = tracing.Tracer()
    tracer.install(hs)
    tracer.active = True
    results_t, lat_t, wall_t = tracing.run_ops(runner, part, tracer)
    tracer.active = False
    own_spans = list(tracer.spans)
    info = {"gamma_share_of_op_time": layers.gamma_share(own_spans),
            "span_vs_latency_max_gap_ms": tracer.check_ops(own_spans, lat_t) * 1e3}

    panel = layers.Panel(wl, hs, runner, tracer, args.seed)
    panel.run()
    tracer.uninstall()
    metrics = panel.metrics(layers.probes(hs, wl, args.seed, ROOT, SRC))
    metrics["trace.overhead_pct"] = tracing.metric((wall_t / wall_u - 1) * 100, "%")

    both = part + part
    outcomes = check_all(wl, hs, runner, both, results_u + results_t)
    correct, n_failed, failed = _tally(both, outcomes)
    correct = correct and panel.check()
    record = {
        "ops_per_s_untraced": len(part) / wall_u, "ops_per_s_traced": len(part) / wall_t,
        "failed_ops": failed,
        **info,
    }
    return correct, len(both), n_failed, metrics, record, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_child:
        return setup_child(args.setup_child)
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "hypersum" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'hypersum'}", file=sys.stderr)
        return 2
    try:
        run = traced_run if args.trace else timed_run
        correct, attempted, failed, metrics, record, tracer = run(args, wl)
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = _meta(args.workload, args)
    (out / f"run-{stem}.json").write_text(json.dumps(
        {"meta": meta, **record, "result": result}, indent=1))
    if tracer is not None:
        (out / f"trace-{stem}.json").write_text(json.dumps(tracer.to_json()))
    print(f"# meta: {json.dumps(meta)}")
    for key, value in record.items():
        if key not in ("failed_ops", "latencies_ms"):
            print(f"# {key}: {value}")
    for ident, kind, prec, op_args, note in record["failed_ops"][:5]:
        print(f"# failed {ident} {kind}@{prec} {op_args}: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
