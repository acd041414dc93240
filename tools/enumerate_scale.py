"""
Time the enumeration of Sub(D(1..n), 1) in-process for n = 10..18 and
write the curve to a JSON file: per n, the median process time of
`subexpr.enumerate_sub(t, identity)` over REPEATS repeats, interleaved
over n (`timing.py`), with t = D(1, ..., n) of length 2n - 1, and a check
that the set has its 2n - 1 members.  The file names that statistic and
records the provenance of the measurement (`provenance.py`).  With
--parent, a result file written by this script for another checkout of
the package (the parent commit, say, run with that checkout's `src` on
PYTHONPATH) is embedded under "parent", so the two curves travel together.

    PYTHONPATH=src python3 tools/enumerate_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_enumerate.json.
"""

import argparse
import json
import time

from bsbimod.coxeter import Permutation, make_sequence
from bsbimod.subexpr import enumerate_sub
from provenance import provenance
from timing import interleaved_medians

N_RANGE = range(10, 19)
REPEATS = 7


def enumerate_time(n: int) -> dict:
    """The process time of one enumeration at n."""
    t = make_sequence("D", tuple(range(1, n + 1)), n)
    e = Permutation.identity(n)
    start = time.process_time()
    sub = enumerate_sub(t, e)
    elapsed = time.process_time() - start
    if len(sub) != 2 * n - 1:
        raise SystemExit(f"n={n}: {len(sub)} members, expected {2 * n - 1}")
    return {"enumerate_s": elapsed}


def main(out_path: str, parent_path) -> None:
    medians = interleaved_medians(enumerate_time, N_RANGE, REPEATS)
    rows = []
    for n in N_RANGE:
        rows.append({"n": n, "length": 2 * n - 1, "members": 2 * n - 1,
                     **medians[n]})
        print(f"n={n}: {medians[n]['enumerate_s']:.4f} s", flush=True)
    result = {
        "what": "in-process process time of "
                "subexpr.enumerate_sub(D(1..n), 1)",
        "statistic": f"median process time of {REPEATS} repeats per n, "
                     f"interleaved over n",
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
    ap.add_argument("out", nargs="?", default="BENCH_enumerate.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
