"""
Time family growth in-process on fixed seeded S_4 instances with
|Sub(t, w)| = 8..14 and write the curve to a JSON file: per size, the
median process time over REPEATS interleaved repeats (`timing.py`) of
`orderalg.algorithm2` and of `orderalg.algorithm1`, both given the one
`Sub(t, w)` enumerated afresh for the repeat (`sub=`), with each run's
outcome and total number of families over all steps.  At the two smallest
sizes both results must equal those of `oracle.family_growth` in
`tests/oracle.py`, the family loop on frozensets driven by the brute-force
closeness.  The file also records the provenance of the measurement
(`provenance.py`).

With --parent-src DIR, another checkout of the package, whose `bsbimod`
lies in DIR (the parent commit's `src`, say), is timed alongside: a child
process runs this script with PYTHONPATH set to DIR and times the same
instance right before or after this checkout does, the order alternating
from one repeat to the next, so that a drift in machine speed touches
both alike.  Its medians and provenance go under "parent" in each row and
in the file; every run of the child must give the same traces,
increments, last additions and outcomes as this checkout, and its
`bsbimod` must be DIR's, or the script stops.

    PYTHONPATH=src python3 tools/growth_scale.py [OUT] [--parent-src DIR]

OUT defaults to BENCH_growth.json.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

from bsbimod import orderalg
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.subexpr import Subexpr, enumerate_sub
from provenance import provenance
from timing import interleaved_medians

SIZES = range(8, 15)
ORACLE_SIZES = SIZES[:2]
REPEATS = 15
# algorithm1 runs second on each enumerated set, so it finds the analysis
# that algorithm2 built
ALGOS = (("algo2", orderalg.algorithm2, "con"),
         ("algo1", orderalg.algorithm1, "plain"))


def instances() -> dict:
    """The first drawn (t, w) of each size: t a random S_4 expression of
    length 8..12, w the target of a random subexpression of it."""
    rng = random.Random("growth-scale")
    found = {}
    while len(found) < len(SIZES):
        m = rng.randint(8, 12)
        t = ReflExpr(4, tuple(Reflection(*sorted(rng.sample(range(1, 5), 2)), 4)
                              for _ in range(m)))
        w = Subexpr(t, [rng.randint(0, 1) for _ in range(m)]).target()
        size = len(enumerate_sub(t, w))
        if size in SIZES and size not in found:
            found[size] = (t, w)
    return found


def digest(res) -> str:
    """A hash of the outcome, step, traces (each level's families in dict
    order, members sorted), increments and last additions of a result."""
    def fam(phi):
        return sorted(map(list, phi))
    return hashlib.sha256(json.dumps([
        res.outcome, res.step,
        [[(fam(phi), str(rank)) for phi, rank in level.items()]
         for level in res.trace],
        [[(fam(phi), sorted(d)) for phi, d in level.items()]
         for level in res.increments],
        [(fam(phi), list(b), d) for phi, b, d in res.last_additions],
    ]).encode()).hexdigest()


def time_growth(t, w) -> tuple:
    """({label: process seconds}, [result per algorithm]) of one run."""
    sub = enumerate_sub(t, w)
    times, results = {}, []
    for label, algo, _ in ALGOS:
        start = time.process_time()
        results.append(algo(t, w, sub=sub))
        times[label] = time.process_time() - start
    return times, results


def serve() -> None:
    """The child of --parent-src: its provenance, with the directory of the
    `bsbimod` it imported as "package", as one JSON line, then, per size
    read from stdin, one line of {label: [seconds, digest]}."""
    cases = instances()
    package = os.path.dirname(os.path.abspath(orderalg.__file__))
    print(json.dumps(dict(provenance(), package=package)), flush=True)
    for line in sys.stdin:
        times, results = time_growth(*cases[int(line)])
        print(json.dumps({label: [times[label], digest(res)]
                          for (label, _, _), res in zip(ALGOS, results)}),
              flush=True)


def main(out_path: str, parent_src) -> None:
    # imported here, not at the top, so that the --serve child, which runs
    # another checkout's bsbimod, never imports this checkout's oracle
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests"))
    import oracle

    cases = instances()
    results = {}
    child = None
    if parent_src:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            env=dict(os.environ, PYTHONPATH=parent_src),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        parent_provenance = json.loads(child.stdout.readline() or "{}")
        package = parent_provenance.pop("package", None)
        if not package or os.path.realpath(package) != os.path.realpath(
                os.path.join(parent_src, "bsbimod")):
            child.kill()
            raise SystemExit(f"--parent-src {parent_src}: the child's "
                             f"bsbimod is {package}, not the one in DIR")
    runs = [0]

    def parent_run(size: int) -> dict:
        child.stdin.write(f"{size}\n")
        child.stdin.flush()
        return json.loads(child.stdout.readline())

    def growth_time(size: int) -> dict:
        parent_first = runs[0] // len(SIZES) % 2    # odd repeats
        runs[0] += 1
        got = parent_run(size) if child and parent_first else None
        times, results[size] = time_growth(*cases[size])
        if child is None:
            return times
        got = got or parent_run(size)
        for (label, _, _), res in zip(ALGOS, results[size]):
            if got[label][1] != digest(res):
                raise SystemExit(f"|Sub| = {size}: {label} of the parent "
                                 "checkout gives other results")
            times[f"parent_{label}"] = got[label][0]
        return times

    try:
        medians = interleaved_medians(growth_time, SIZES, REPEATS)
    finally:
        if child is not None:
            child.stdin.close()
            child.wait(timeout=60)
    rows = []
    for size in SIZES:
        t, w = cases[size]
        if size in ORACLE_SIZES and results[size] != [
                oracle.family_growth(t, w, mode) for _, _, mode in ALGOS]:
            raise SystemExit(f"|Sub| = {size}: growth differs from the "
                             "oracle family growth")
        row = {"size": size, "length": len(t),
               "t": "".join(f"({r.i},{r.j})" for r in t.entries),
               "w": list(w.images), "oracle_checked": size in ORACLE_SIZES}
        for (label, _, _), res in zip(ALGOS, results[size]):
            row[label] = {"process_s": medians[size][label],
                          "outcome": res.outcome, "step": res.step,
                          "families": sum(map(len, res.trace))}
        line = (f"|Sub|={size}: algo2 {row['algo2']['process_s']:.4f} s, "
                f"algo1 {row['algo1']['process_s']:.4f} s, "
                f"{row['algo2']['families']}/{row['algo1']['families']} "
                "families")
        if child is not None:
            row["parent"] = {label: {"process_s": medians[size]["parent_" +
                                                                label]}
                             for label, _, _ in ALGOS}
            line += "; parent " + " / ".join(
                f"{row['parent'][label]['process_s']:.4f}"
                for label, _, _ in ALGOS) + " s"
        rows.append(row)
        print(line, flush=True)
    result = {
        "what": "in-process process time of orderalg.algorithm2 and "
                "orderalg.algorithm1 on one enumerated Sub(t, w) each, median "
                f"of {REPEATS} interleaved repeats per size"
                + ("" if child is None else
                   "; each size's run of the parent checkout, in a child "
                   "process, right before or after this checkout's, "
                   "alternating by repeat, with equal results"),
        **provenance(),
        "runs": rows,
    }
    if child is not None:
        result["parent"] = parent_provenance
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
        sys.exit()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", default="BENCH_growth.json")
    ap.add_argument("--parent-src", metavar="DIR",
                    help="time the package in DIR alongside, interleaved")
    args = ap.parse_args()
    main(args.out, args.parent_src)
