"""
Time the localization of a pure tensor in-process for m = 4..12 and write
the curve to a JSON file: per m, the best of three wall times of
`locmod.res_tensor(t, a)`, with t the first m entries of one fixed seeded
S_4 expression and a its m + 1 seeded linear factors e_i + c e_j.  The
file also records the commit of the imported `bsbimod`, whether the
package had uncommitted changes, a SHA-256 over its source files, the
Python version and the machine (`provenance.py`).

    PYTHONPATH=src python3 tools/res_tensor_scale.py [OUT]

OUT defaults to BENCH_res_tensor.json.
"""

import json
import random
import sys
import time

from bsbimod import locmod
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.polyring import Polynomial
from provenance import provenance

N = 4
M_RANGE = range(4, 13)
REPEATS = 3
SEED = 0


def instance(m: int):
    """(t, a): the first m entries of the seeded expression, and the first
    m + 1 seeded factors."""
    rng = random.Random(SEED)
    m_max = max(M_RANGE)
    entries = tuple(Reflection(*sorted(rng.sample(range(1, N + 1), 2)), N)
                    for _ in range(m_max))
    factors = []
    for _ in range(m_max + 1):
        i, j = rng.sample(range(1, N + 1), 2)
        factors.append(Polynomial.var(N, i)
                       + Polynomial.var(N, j).scale(rng.choice((-2, -1, 1, 2))))
    return ReflExpr(N, entries[:m]), factors[:m + 1]


def main(out_path: str) -> None:
    rows = []
    for m in M_RANGE:
        t, a = instance(m)
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            g = locmod.res_tensor(t, a)
            walls.append(time.perf_counter() - start)
        rows.append({"m": m, "members": len(g.values),
                     "wall_s": round(min(walls), 4)})
        print(f"m={m}: {min(walls):.4f} s ({len(g.values)} members)",
              flush=True)
    result = {
        "what": f"in-process wall time of locmod.res_tensor on S_{N}, "
                f"best of {REPEATS} runs per m",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_res_tensor.json")
