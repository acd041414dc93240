"""
Time the D-sequence dichotomy report in-process for n = 8..20 and write
the curve to a JSON file: per n, the median process time of
`dseq.dichotomy_report` (shift k = 1) over REPEATS interleaved repeats
(`timing.py`), pd of the residual string module and pd of its dual.  The
file names that statistic and records the provenance of the measurement
(`provenance.py`).  --max-n stops the curve early: a checkout that takes
seconds per report at n = 15 is timed with --max-n 15.  With --parent, a
result file written by this script for another checkout of the package
(the parent commit, say, run with that checkout's `src` on PYTHONPATH) is
embedded under "parent", so the two curves travel together.

    PYTHONPATH=src python3 tools/dseq_scale.py [OUT] [--max-n N]
        [--parent PARENT_JSON]

OUT defaults to BENCH_dseq_scale.json.
"""

import argparse
import json
import time

from bsbimod import dseq
from provenance import provenance
from timing import interleaved_medians

N_MIN, N_MAX = 8, 20   # the tail table of Sub(D(i)[k], 1) fits ALL_CAP to n = 20
K = 1
REPEATS = 5


def main(out_path: str, max_n: int, parent_path) -> None:
    n_range = range(N_MIN, max_n + 1)
    reports = {}

    def report_time(n: int) -> dict:
        start = time.process_time()
        reports[n] = dseq.dichotomy_report(n, K)
        return {"report_s": time.process_time() - start}

    medians = interleaved_medians(report_time, n_range, REPEATS)
    rows = []
    for n in n_range:
        report = reports[n]
        rows.append({"n": n, "k": K, **medians[n],
                     "pd_string": report["pd_string"],
                     "pd_dual": report["dual"]["pd"]})
        print("  ".join(f"{k}={v}" for k, v in rows[-1].items()), flush=True)
    result = {
        "what": f"in-process process time of dseq.dichotomy_report(n, {K})",
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
    ap.add_argument("out", nargs="?", default="BENCH_dseq_scale.json")
    ap.add_argument("--max-n", type=int, default=N_MAX,
                    help=f"the last n timed ({N_MIN}..{N_MAX})")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    if not N_MIN <= args.max_n <= N_MAX:
        ap.error(f"--max-n must lie in {N_MIN}..{N_MAX}")
    main(args.out, args.max_n, args.parent)
