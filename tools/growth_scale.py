"""
Time family growth in-process on fixed seeded S_4 instances with
|Sub(t, w)| = 8..14 and write the curve to a JSON file: per size, the
median process time over REPEATS interleaved repeats (`timing.py`) of
`orderalg.algorithm2` and of `orderalg.algorithm1`, both given the one
`Sub(t, w)` enumerated afresh for the repeat (`sub=`), with each run's
outcome and total number of families over all steps.  At the two smallest
sizes both results must equal those of `oracle.family_growth` in
`tests/oracle.py`, the family loop on frozensets driven by the brute-force
closeness.  The file also records the provenance of the measurement
(`provenance.py`).  With --parent, a result file written by this script for
another checkout of the package (the parent commit, say, run with that
checkout's `src` on PYTHONPATH) is embedded under "parent", so the two
curves travel together.

    PYTHONPATH=src python3 tools/growth_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_growth.json.
"""

import argparse
import json
import os
import random
import sys
import time

from bsbimod import orderalg
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.subexpr import Subexpr, enumerate_sub
from provenance import provenance
from timing import interleaved_medians

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
import oracle  # noqa: E402

SIZES = range(8, 15)
ORACLE_SIZES = SIZES[:2]
REPEATS = 15
# algorithm1 runs second on each enumerated set, so it finds the analysis
# that algorithm2 built
ALGOS = (("algo2", orderalg.algorithm2, "con"),
         ("algo1", orderalg.algorithm1, "plain"))


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


def main(out_path: str, parent_path) -> None:
    cases = instances()
    results = {}

    def growth_time(size: int) -> dict:
        t, w = cases[size]
        sub = enumerate_sub(t, w)
        times, results[size] = {}, []
        for label, algo, _ in ALGOS:
            start = time.process_time()
            results[size].append(algo(t, w, sub=sub))
            times[label] = time.process_time() - start
        return times

    medians = interleaved_medians(growth_time, SIZES, REPEATS)
    rows = []
    for size in SIZES:
        t, w = cases[size]
        if size in ORACLE_SIZES and results[size] != [
                oracle.family_growth(t, w, mode) for _, _, mode in ALGOS]:
            raise SystemExit(f"|Sub| = {size}: growth differs from the "
                             "oracle family growth")
        row = {"size": size, "length": len(t),
               "t": "".join(f"({r.i},{r.j})" for r in t.entries),
               "w": list(w.images), "oracle_checked": size in ORACLE_SIZES}
        for (label, _, _), res in zip(ALGOS, results[size]):
            row[label] = {"process_s": medians[size][label],
                          "outcome": res.outcome, "step": res.step,
                          "families": sum(map(len, res.trace))}
        rows.append(row)
        print(f"|Sub|={size}: algo2 {row['algo2']['process_s']:.4f} s, "
              f"algo1 {row['algo1']['process_s']:.4f} s, "
              f"{row['algo2']['families']}/{row['algo1']['families']} "
              "families", flush=True)
    result = {
        "what": "in-process process time of orderalg.algorithm2 and "
                "orderalg.algorithm1 on one enumerated Sub(t, w) each, median "
                f"of {REPEATS} interleaved repeats per size",
        **provenance(),
        "runs": rows,
    }
    if parent_path:
        with open(parent_path) as fh:
            result["parent"] = json.load(fh)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", default="BENCH_growth.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
