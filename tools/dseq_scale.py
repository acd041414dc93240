"""
Time the D-sequence dichotomy report in-process for n = 8..15 and write
the curve to a JSON file: per n, the median process time of
`dseq.dichotomy_report` (shift k = 1) over REPEATS interleaved repeats
(`timing.py`), pd of the residual string module and pd of its dual.  The
file also records the provenance of the measurement (`provenance.py`).
With --parent, a result file written by this script for another checkout
of the package (the parent commit, say, run with that checkout's `src` on
PYTHONPATH) is embedded under "parent", so the two curves travel together.

    PYTHONPATH=src python3 tools/dseq_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_dseq_scale.json.
"""

import argparse
import json
import time

from bsbimod import dseq
from provenance import provenance
from timing import interleaved_medians

N_RANGE = range(8, 16)
K = 1
REPEATS = 5


def main(out_path: str, parent_path) -> None:
    reports = {}

    def report_time(n: int) -> dict:
        start = time.process_time()
        reports[n] = dseq.dichotomy_report(n, K)
        return {"report_s": time.process_time() - start}

    medians = interleaved_medians(report_time, N_RANGE, REPEATS)
    rows = []
    for n in N_RANGE:
        report = reports[n]
        rows.append({"n": n, "k": K, **medians[n],
                     "pd_string": report["pd_string"],
                     "pd_dual": report["dual"]["pd"]})
        print("  ".join(f"{k}={v}" for k, v in rows[-1].items()), flush=True)
    result = {
        "what": f"in-process process time of dseq.dichotomy_report(n, {K}), "
                f"median of {REPEATS} interleaved repeats per n",
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
    ap.add_argument("out", nargs="?", default="BENCH_dseq_scale.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
