"""
Time the enumeration of Sub(D(1..n), 1) in-process for n = 10..18 and
write the curve to a JSON file: per n, the best of three wall times of
`subexpr.enumerate_sub(t, identity)`, with t = D(1, ..., n) of length
2n - 1, and a check that the set has its 2n - 1 members.  The file also
records the commit of the imported `bsbimod`, whether the package had
uncommitted changes, a SHA-256 over its source files, the Python version
and the machine (`provenance.py`).

    PYTHONPATH=src python3 tools/enumerate_scale.py [OUT]

OUT defaults to BENCH_enumerate.json.
"""

import json
import sys
import time

from bsbimod.coxeter import Permutation, make_sequence
from bsbimod.subexpr import enumerate_sub
from provenance import provenance

N_RANGE = range(10, 19)
REPEATS = 3


def main(out_path: str) -> None:
    rows = []
    for n in N_RANGE:
        t = make_sequence("D", tuple(range(1, n + 1)), n)
        e = Permutation.identity(n)
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            sub = enumerate_sub(t, e)
            walls.append(time.perf_counter() - start)
        if len(sub) != 2 * n - 1:
            raise SystemExit(f"n={n}: {len(sub)} members, expected {2 * n - 1}")
        rows.append({"n": n, "length": len(t), "members": len(sub),
                     "wall_s": round(min(walls), 4)})
        print(f"n={n}: {min(walls):.4f} s ({len(sub)} members)", flush=True)
    result = {
        "what": "in-process wall time of subexpr.enumerate_sub(D(1..n), 1), "
                f"best of {REPEATS} runs per n",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_enumerate.json")
