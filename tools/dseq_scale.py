"""
Time the D-sequence dichotomy report in-process for n = 8..15 and write
the curve to a JSON file: per n, the wall time of `dseq.dichotomy_report`
(one run, shift k = 1), pd of the residual string module and pd of its
dual.  The file also records the commit of the imported `bsbimod`, whether
the package had uncommitted changes, a SHA-256 over its source files, the
Python version and the machine, so that every figure names the code and
hardware it came from.

    PYTHONPATH=src python3 tools/dseq_scale.py [OUT]

OUT defaults to BENCH_dseq_scale.json.
"""

import json
import sys
import time

from bsbimod import dseq
from provenance import provenance

N_RANGE = range(8, 16)
K = 1


def main(out_path: str) -> None:
    rows = []
    for n in N_RANGE:
        start = time.perf_counter()
        report = dseq.dichotomy_report(n, K)
        wall = time.perf_counter() - start
        rows.append({"n": n, "k": K, "wall_s": round(wall, 3),
                     "pd_string": report["pd_string"],
                     "pd_dual": report["dual"]["pd"]})
        print(f"n={n}: {wall:.3f} s, pd(string) = {report['pd_string']}, "
              f"pd(dual) = {report['dual']['pd']}", flush=True)
    result = {
        "what": "in-process wall time of dseq.dichotomy_report(n, k), "
                "one run per n",
        **provenance(),
        "runs": rows,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_dseq_scale.json")
