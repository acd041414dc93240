"""
Time X(t) membership in-process for m = 5..10 and write the curve to a JSON
file: per m, the median process time of `locmod.membership(g, "X(t)")` on
the accept path over REPEATS repeats, interleaved over m (`timing.py`),
with g the localization `res_tensor(t, a)` of the seeded instance of
`res_tensor_scale.py` (the first m entries of one S_4 expression and
m + 1 linear factors), which lies in X(t).  Each run is on a freshly
enumerated Sub(t) and takes two times: `membership_s` starts after the
analysis is built, so it times the condition stream and the divisibility
checks; `fresh_s` starts before the enumeration, so it times a one-off
call as `bsbimod membership --fn` makes it: `enumerate_sub`, the
`FnOnSub`, the analysis and membership.  The file names that statistic
and records the provenance of the measurement (`provenance.py`).  With
--parent, a result file written by this script for another checkout of
the package (the parent commit, say, run with that checkout's `src` on
PYTHONPATH) is embedded under "parent", so the two curves travel
together.

    PYTHONPATH=src python3 tools/membership_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_membership.json.
"""

import argparse
import json
import time

from bsbimod import locmod
from bsbimod.subexpr import enumerate_sub
from provenance import provenance
from res_tensor_scale import N, instance
from timing import interleaved_medians

M_RANGE = range(5, 11)
REPEATS = 7


def main(out_path: str, parent_path) -> None:
    values = {}
    for m in M_RANGE:
        t, a = instance(m)
        values[m] = (t, locmod.res_tensor(t, a).values)

    def membership_time(m: int) -> dict:
        t, vals = values[m]
        start = time.process_time()
        g = locmod.FnOnSub(enumerate_sub(t, "all"), vals)
        g.domain.analysis()
        built = time.process_time()
        ok, _ = locmod.membership(g, "X(t)")
        end = time.process_time()
        if not ok:
            raise SystemExit(f"m={m}: the localization is not in X(t)")
        return {"membership_s": end - built, "fresh_s": end - start}

    medians = interleaved_medians(membership_time, M_RANGE, REPEATS)
    rows = []
    for m in M_RANGE:
        rows.append({"m": m, "members": len(values[m][1]), **medians[m]})
        print(f"m={m}: {medians[m]['membership_s']:.4f} s, fresh "
              f"{medians[m]['fresh_s']:.4f} s", flush=True)
    result = {
        "what": f"in-process process time of locmod.membership(g, 'X(t)') "
                f"on the localization of a pure tensor on S_{N}, accept path: "
                f"membership_s after the analysis is built, fresh_s from "
                f"the enumeration of Sub(t) on",
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
    ap.add_argument("out", nargs="?", default="BENCH_membership.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
