"""Make the parameter pool of the ``stride_series`` workload anew.

    python3 perfbench/stride_pool.py

Run from the root of a checkout.  Writes ``perfbench/stride_pool.json``.

The experimental route of ``s_direct`` doubles its cutoff until Richardson
extrapolation settles, so an op costs 1024, 2048 or 4096 terms depending on
its parameters (about 1.3, 2.6 or 5.2 s).  With eight to ten ops in a run,
one op of another class moves the run's throughput by a tenth with the
seed.  The pool therefore holds only parameter sets that take 2048 terms
at the commit that made it; ``stride_series`` draws its ops from the pool
without replacement, so every run does the same amount of work whatever
its seed.  Candidates come in a fixed order from
``random.Random("stride_pool/<i>")`` with the same ranges as the other S
operations, so this command gives the same pool again on the same program.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hypersum as hs  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SIZE = 64
TERMS = 2048
PREC = 53


def candidate(i: int):
    rng = random.Random(f"stride_pool/{i}")
    return (*wl._s_params(rng), wl._frac(rng, 0.2, 3.0))


def main() -> int:
    kept, seen, i = [], Counter(), 0
    while len(kept) < POOL_SIZE:
        params = candidate(i)
        try:
            terms = hs.s_direct(hs.RamanujanParams(*params),
                                hs.EvalContext(precision=PREC)).terms_used
        except Exception as exc:  # noqa: BLE001  (recorded, never kept)
            terms = type(exc).__name__
        seen[str(terms)] += 1
        if terms == TERMS:
            kept.append([i, *(str(x) for x in params)])
        i += 1
        print(f"candidate {i}: {terms} terms, {len(kept)} kept", file=sys.stderr)
    out = {"command": "python3 perfbench/stride_pool.py", "precision": PREC,
           "terms": TERMS, "candidates": i, "terms_seen": dict(seen),
           "params": kept}
    (HERE / "stride_pool.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
