"""
Time the basis round trip in-process for m = 4..10 and write the curve to
a JSON file: per m, the best of three wall times of
`locmod.express_in_basis(g)` with g = `locmod.res_tensor(t, a)` on the
instance of `res_tensor_scale.py` (the first m entries of one fixed seeded
S_4 expression and m + 1 seeded linear factors).  g is built afresh and
untimed before each run, so every run also builds the root table of its
domain.  The file also records the commit of the imported `bsbimod`,
whether the package had uncommitted changes, a SHA-256 over its source
files, the Python version and the machine (`provenance.py`).

    PYTHONPATH=src python3 tools/basis_scale.py [OUT]

OUT defaults to BENCH_basis.json.
"""

import json
import sys
import time

from bsbimod import locmod
from provenance import provenance
from res_tensor_scale import N, instance

M_RANGE = range(4, 11)
REPEATS = 3


def main(out_path: str) -> None:
    rows = []
    for m in M_RANGE:
        t, a = instance(m)
        walls = []
        for _ in range(REPEATS):
            g = locmod.res_tensor(t, a)
            start = time.perf_counter()
            coeffs = locmod.express_in_basis(g)
            walls.append(time.perf_counter() - start)
        rows.append({"m": m, "coefficients": len(coeffs),
                     "wall_s": round(min(walls), 4)})
        print(f"m={m}: {min(walls):.4f} s ({len(coeffs)} coefficients)",
              flush=True)
    result = {
        "what": f"in-process wall time of locmod.express_in_basis on "
                f"res_tensor values on S_{N}, best of {REPEATS} runs per m",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_basis.json")
