"""
Time the localization of a pure tensor in-process for m = 4..12 and write
the curve to a JSON file: per m, the median process time of
`locmod.res_tensor(t, a)` over REPEATS repeats, interleaved over m
(`timing.py`), with t the first m entries of one fixed seeded S_4
expression and a its m + 1 seeded linear factors e_i + c e_j.  The file
names that statistic and records the provenance of the measurement
(`provenance.py`).  With --parent, a result file written by this script
for another checkout of the package (the parent commit, say, run with that
checkout's `src` on PYTHONPATH) is embedded under "parent", so the two
curves travel together.

    PYTHONPATH=src python3 tools/res_tensor_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_res_tensor.json.
"""

import argparse
import json
import random
import time

from bsbimod import locmod
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.polyring import Polynomial
from provenance import provenance
from timing import interleaved_medians

N = 4
M_RANGE = range(4, 13)
REPEATS = 7
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


def localize(m: int) -> dict:
    """The process time of one localization at m."""
    t, a = instance(m)
    start = time.process_time()
    g = locmod.res_tensor(t, a)
    elapsed = time.process_time() - start
    if len(g.values) != 2 ** m:
        raise SystemExit(f"m={m}: {len(g.values)} members, not 2^{m}")
    return {"res_tensor_s": elapsed}


def main(out_path: str, parent_path) -> None:
    medians = interleaved_medians(localize, M_RANGE, REPEATS)
    rows = []
    for m in M_RANGE:
        rows.append({"m": m, "members": 2 ** m, **medians[m]})
        print(f"m={m}: {medians[m]['res_tensor_s']:.4f} s", flush=True)
    result = {
        "what": f"in-process process time of locmod.res_tensor on S_{N}",
        "statistic": f"median process time of {REPEATS} repeats per m, "
                     f"interleaved over m",
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
    ap.add_argument("out", nargs="?", default="BENCH_res_tensor.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
