"""
Time the criterion-6 basis round trip in-process for m = 4..9 and write the
curve to a JSON file.  The instance for m is the one of
`res_tensor_scale.py`: the first m entries of one fixed seeded S_4
expression.  Per m, each phase is timed on its own:

  basis_s       `locmod.basis(t)`, the 2^m elements B(L);
  membership_s  `locmod.membership(B(L), "X(t)")` for all 2^m elements;
  combine_s     g = sum_L c_L B(L) by `left_mul` by a constant and `+`,
                with seeded integer c_L in -3..3;
  express_s     `locmod.express_in_basis(g)`, checked to give back c_L;
  pair_s        as the basis workload pairs: <mu_b | r> by `locmod.mu` and
                `locmod.inner` for 4 seeded elements B(L) restricted to
                Sub(t, w), w the target of a seeded member, and up to 3
                seeded members b of Sub(t, w), with a fresh Sub(t, w) per
                mu_b; each pairing is checked to be r(b).

Each phase, and the total of the five, reports the median process time
over REPEATS interleaved repeats (`timing.py`).  The file also records
the provenance of the measurement (`provenance.py`).  With --parent, a
result file written by this script for another checkout of the package
(the parent commit, say, run with that checkout's `src` on PYTHONPATH) is
embedded under "parent", so the two curves travel together.

    PYTHONPATH=src python3 tools/basis_scale.py [OUT] [--parent PARENT_JSON]

OUT defaults to BENCH_basis.json.
"""

import argparse
import json
import random
import time

from bsbimod import locmod
from bsbimod.polyring import Polynomial
from bsbimod.subexpr import Subexpr, enumerate_sub
from provenance import provenance
from res_tensor_scale import N, instance
from timing import interleaved_medians

M_RANGE = range(4, 10)
REPEATS = 7
PHASES = ("basis_s", "membership_s", "combine_s", "express_s", "pair_s")


def round_trip(m: int) -> dict:
    """One round trip at m: the process time of each phase, and their
    total."""
    t, _ = instance(m)
    rng = random.Random(m)
    clock = time.process_time
    c0 = clock()
    B = locmod.basis(t)
    c1 = clock()
    if not all(locmod.membership(B[L], "X(t)")[0] for L in B):
        raise SystemExit(f"m={m}: a basis element is not in X(t)")
    c2 = clock()
    want = {L: Polynomial.const(N, rng.randint(-3, 3)) for L in B}
    g = locmod.FnOnSub(next(iter(B.values())).domain, {})
    for L, c in want.items():
        g = g + B[L].left_mul(c)
    c3 = clock()
    coeffs = locmod.express_in_basis(g)
    c4 = clock()
    if coeffs != want:
        raise SystemExit(f"m={m}: express_in_basis missed the coefficients")
    pick = random.Random(f"pair-{m}")
    subw = enumerate_sub(t, Subexpr(t, [pick.randint(0, 1)
                                        for _ in range(m)]).target())
    rs = [B[L].restrict_to(subw) for L in pick.sample(sorted(B), 4)]
    members = pick.sample(subw.members, min(3, len(subw)))
    c5 = clock()
    pairings = [[locmod.inner(locmod.mu(Subexpr(t, b)), r) for r in rs]
                for b in members]
    c6 = clock()
    for b, row in zip(members, pairings):
        if any(not v.in_R() or v.as_poly() != r(b) for v, r in zip(row, rs)):
            raise SystemExit(f"m={m}: a pairing <mu_b | r> is not r(b)")
    times = (c1 - c0, c2 - c1, c3 - c2, c4 - c3, c6 - c5)
    return {**dict(zip(PHASES, times)), "total_s": sum(times)}


def main(out_path: str, parent_path) -> None:
    medians = interleaved_medians(round_trip, M_RANGE, REPEATS)
    rows = []
    for m in M_RANGE:
        row = {"m": m, "elements": 2 ** m, **medians[m]}
        rows.append(row)
        print("  ".join(f"{k}={v}" for k, v in row.items()), flush=True)
    result = {
        "what": f"in-process process time of the basis round trip on S_{N} "
                f"(basis, X(t) membership of every element, combination, "
                f"express_in_basis, mu/inner pairings on Sub(t, w)), median "
                f"of {REPEATS} interleaved repeats per m",
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
    ap.add_argument("out", nargs="?", default="BENCH_basis.json")
    ap.add_argument("--parent", help="a result of this script to embed")
    args = ap.parse_args()
    main(args.out, args.parent)
