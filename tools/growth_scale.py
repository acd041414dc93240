"""
Time family growth in-process on fixed seeded S_4 instances with
|Sub(t, w)| = 8..14 and write the curve to a JSON file: per size, the best
of three wall times of `orderalg.algorithm2` and of `orderalg.algorithm1`,
both given the one enumerated `Sub(t, w)` (`sub=`), with each run's outcome
and total number of families over all steps.  At the two smallest sizes
both runs are repeated with `orderalg.closeness` replaced by the
brute-force `oracle.closeness` of `tests/oracle.py`, and the results must
be equal.  The file also records the commit of the imported `bsbimod`,
whether the package had uncommitted changes, a SHA-256 over its source
files, the Python version and the machine (`provenance.py`).

    PYTHONPATH=src python3 tools/growth_scale.py [OUT]

OUT defaults to BENCH_growth.json.
"""

import json
import os
import random
import sys
import time

from bsbimod import orderalg
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.subexpr import Subexpr, enumerate_sub
from provenance import provenance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
import oracle  # noqa: E402

SIZES = range(8, 15)
ORACLE_SIZES = SIZES[:2]
REPEATS = 3
# algorithm1 runs second on each enumerated set, so it finds the analysis
# that algorithm2 built
ALGOS = (("algo2", orderalg.algorithm2), ("algo1", orderalg.algorithm1))


def instances() -> dict:
    """The first drawn (t, w) of each size: t a random S_4 expression of
    length 8..12, w the target of a random subexpression of it."""
    rng = random.Random("growth-scale")
    found = {}
    while len(found) < len(SIZES):
        m = rng.randint(8, 12)
        t = ReflExpr(4, tuple(Reflection(*sorted(rng.sample(range(1, 5), 2)), 4)
                              for _ in range(m)))
        w = Subexpr(t, [rng.randint(0, 1) for _ in range(m)]).target()
        size = len(enumerate_sub(t, w))
        if size in SIZES and size not in found:
            found[size] = (t, w)
    return found


def main(out_path: str) -> None:
    rows = []
    for size, (t, w) in sorted(instances().items()):
        walls = {"algo2": [], "algo1": []}
        for _ in range(REPEATS):
            sub = enumerate_sub(t, w)
            results = []
            for label, algo in ALGOS:
                start = time.perf_counter()
                results.append(algo(t, w, sub=sub))
                walls[label].append(time.perf_counter() - start)
        if size in ORACLE_SIZES:
            fast = orderalg.closeness
            orderalg.closeness = oracle.closeness
            try:
                sub = enumerate_sub(t, w)
                slow = [algo(t, w, sub=sub) for _, algo in ALGOS]
            finally:
                orderalg.closeness = fast
            if slow != results:
                raise SystemExit(f"|Sub| = {size}: growth differs from the "
                                 "oracle-driven growth")
        row = {"size": size, "length": len(t), "t": "".join(f"({r.i},{r.j})" for r in t.entries),
               "w": list(w.images), "oracle_checked": size in ORACLE_SIZES}
        for (label, _), res in zip(ALGOS, results):
            row[label] = {"wall_s": round(min(walls[label]), 4),
                          "outcome": res.outcome, "step": res.step,
                          "families": sum(map(len, res.trace))}
        rows.append(row)
        print(f"|Sub|={size}: algo2 {row['algo2']['wall_s']:.4f} s, "
              f"algo1 {row['algo1']['wall_s']:.4f} s, "
              f"{row['algo2']['families']}/{row['algo1']['families']} "
              "families", flush=True)
    result = {
        "what": "in-process wall time of orderalg.algorithm2 and "
                "orderalg.algorithm1 on one enumerated Sub(t, w) each, best "
                f"of {REPEATS} runs per size",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_growth.json")
