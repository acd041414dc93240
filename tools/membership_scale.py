"""
Time X(t) membership in-process for m = 5..10 and write the curve to a JSON
file: per m, the best of three wall times of `locmod.membership(g, "X(t)")`
on the accept path, with g the localization `res_tensor(t, a)` of the
seeded instance of `res_tensor_scale.py` (the first m entries of one S_4
expression and m + 1 linear factors), which lies in X(t).  Each run is on
a freshly enumerated Sub(t) whose analysis is built before the clock
starts, so a run times the condition stream and the divisibility checks.
The file also records the provenance of the measurement
(`provenance.py`).

    PYTHONPATH=src python3 tools/membership_scale.py [OUT]

OUT defaults to BENCH_membership.json.
"""

import json
import sys
import time

from bsbimod import locmod
from bsbimod.subexpr import enumerate_sub
from provenance import provenance
from res_tensor_scale import N, instance

M_RANGE = range(5, 11)
REPEATS = 3


def main(out_path: str) -> None:
    rows = []
    for m in M_RANGE:
        t, a = instance(m)
        values = locmod.res_tensor(t, a).values
        walls = []
        for _ in range(REPEATS):
            g = locmod.FnOnSub(enumerate_sub(t, "all"), values)
            g.domain.analysis()
            start = time.perf_counter()
            ok, _ = locmod.membership(g, "X(t)")
            walls.append(time.perf_counter() - start)
            if not ok:
                raise SystemExit(f"m={m}: the localization is not in X(t)")
        rows.append({"m": m, "members": len(values),
                     "wall_s": round(min(walls), 4)})
        print(f"m={m}: {min(walls):.4f} s ({len(values)} members)",
              flush=True)
    result = {
        "what": f"in-process wall time of locmod.membership(g, 'X(t)') on "
                f"the localization of a pure tensor on S_{N}, accept path, "
                f"best of {REPEATS} runs per m",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_membership.json")
