"""
Time one scale curve in-process and write it to a JSON file: per
parameter, the median process time of each phase over the curve's
repeats, interleaved over the parameters (repeat r runs every parameter
before repeat r + 1 starts, so a drift in machine speed touches all
alike), rounded to 0.1 ms, next to what the curve records of the results.
The file also names the code and hardware of the measurement: the commit
of the imported `bsbimod`, whether its source had uncommitted changes, a
SHA-256 over its source files, the Python version and the machine.

    PYTHONPATH=src python3 tools/scale.py CURVE [OUT] [--parent-src DIR]
        [--max-n N]

CURVE is dseq, enumerate, res_tensor, membership, basis or growth: the
table `CURVES` gives each one's parameters, repeats and output file (OUT
overrides it), and the functions that run, check and record it.  --max-n
(dseq only) stops the curve early: a checkout that takes seconds per
report at n = 15 is timed with --max-n 15.

With --parent-src DIR, another checkout of the package, whose `bsbimod`
lies in DIR (the parent commit's `src`, say), is timed alongside: a child
process runs this script with PYTHONPATH set to DIR alone and times each
parameter right before (odd repeats) or after (even repeats) this
checkout does.  Every run of the child must give the same digest of the
results as this checkout's run, and the child's `bsbimod` must be DIR's,
or the script stops.  The child's medians go under "parent" in each row,
its provenance under "parent" in the file.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import cache
from typing import Callable, NamedTuple

import bsbimod
from bsbimod import dseq, locmod, orderalg
from bsbimod.coxeter import Permutation, Reflection, ReflExpr, make_sequence
from bsbimod.polyring import Polynomial
from bsbimod.subexpr import Subexpr, enumerate_sub

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tests")


class Curve(NamedTuple):
    param: str          # the row key of the parameter
    params: range
    repeats: int
    out: str
    what: str
    run: Callable       # p -> ({phase: process seconds}, result)
    row: Callable       # (p, {phase: median}, result) -> row; may check
    digest: Callable    # result -> JSON data of what the curve checks


DSEQ_K = 1


def dseq_run(n: int):
    start = time.process_time()
    report = dseq.dichotomy_report(n, DSEQ_K)
    return {"report_s": time.process_time() - start}, report


def dseq_row(n: int, medians: dict, report: dict) -> dict:
    return {"n": n, "k": DSEQ_K, **medians, "pd_string": report["pd_string"],
            "pd_dual": report["dual"]["pd"]}


def dseq_digest(report: dict):
    return [report["outcome"], report["step"], report["pd_string"],
            report["dual"]["pd"], [str(r) for r in report["residual_roots"]]]


def enumerate_run(n: int):
    t = make_sequence("D", tuple(range(1, n + 1)), n)
    e = Permutation.identity(n)
    start = time.process_time()
    sub = enumerate_sub(t, e)
    elapsed = time.process_time() - start
    if len(sub) != 2 * n - 1:
        raise SystemExit(f"n={n}: {len(sub)} members, expected {2 * n - 1}")
    return {"enumerate_s": elapsed}, sub


N = 4


def instance(m: int):
    """(t, a): the first m entries of one seeded S_4 expression of length
    12 and the first m + 1 of its 13 seeded linear factors e_i + c e_j."""
    rng = random.Random(0)
    entries = tuple(Reflection(*sorted(rng.sample(range(1, N + 1), 2)), N)
                    for _ in range(12))
    factors = []
    for _ in range(13):
        i, j = rng.sample(range(1, N + 1), 2)
        factors.append(Polynomial.var(N, i)
                       + Polynomial.var(N, j).scale(rng.choice((-2, -1, 1, 2))))
    return ReflExpr(N, entries[:m]), factors[:m + 1]


def res_tensor_run(m: int):
    t, a = instance(m)
    start = time.process_time()
    g = locmod.res_tensor(t, a)
    elapsed = time.process_time() - start
    if len(g.values) != 2 ** m:
        raise SystemExit(f"m={m}: {len(g.values)} members, not 2^{m}")
    return {"res_tensor_s": elapsed}, g


@cache
def localization(m: int):
    """(t, the values of res_tensor(t, a)) of the instance at m."""
    t, a = instance(m)
    return t, locmod.res_tensor(t, a).values


def membership_run(m: int):
    t, vals = localization(m)
    start = time.process_time()
    g = locmod.FnOnSub(enumerate_sub(t, "all"), vals)
    g.domain.analysis()
    built = time.process_time()
    ok, _ = locmod.membership(g, "X(t)")
    end = time.process_time()
    if not ok:
        raise SystemExit(f"m={m}: the localization is not in X(t)")
    return {"membership_s": end - built, "fresh_s": end - start}, len(vals)


def basis_run(m: int):
    """One round trip at m: the process time of each phase and their
    total, and (coefficients, pairings)."""
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
    phases = ("basis_s", "membership_s", "combine_s", "express_s", "pair_s")
    return ({**dict(zip(phases, times)), "total_s": sum(times)},
            (coeffs, pairings))


def basis_digest(result):
    coeffs, pairings = result
    return [[["".join(L), str(c)] for L, c in coeffs.items()],
            [[str(v) for v in row] for row in pairings]]


GROWTH_SIZES = range(8, 15)
GROWTH_ORACLE_SIZES = GROWTH_SIZES[:2]
# algorithm1 runs second on each enumerated set, so it finds the analysis
# that algorithm2 built
GROWTH_ALGOS = (("algo2", orderalg.algorithm2, "con"),
                ("algo1", orderalg.algorithm1, "plain"))


@cache
def growth_instances() -> dict:
    """The first drawn (t, w) of each size: t a random S_4 expression of
    length 8..12, w the target of a random subexpression of it."""
    rng = random.Random("growth-scale")
    found = {}
    while len(found) < len(GROWTH_SIZES):
        m = rng.randint(8, 12)
        t = ReflExpr(4, tuple(Reflection(*sorted(rng.sample(range(1, 5), 2)), 4)
                              for _ in range(m)))
        w = Subexpr(t, [rng.randint(0, 1) for _ in range(m)]).target()
        size = len(enumerate_sub(t, w))
        if size in GROWTH_SIZES and size not in found:
            found[size] = (t, w)
    return found


def growth_run(size: int):
    """Both algorithms on one Sub(t, w), enumerated afresh."""
    t, w = growth_instances()[size]
    sub = enumerate_sub(t, w)
    times, results = {}, []
    for label, algo, _ in GROWTH_ALGOS:
        start = time.process_time()
        results.append(algo(t, w, sub=sub))
        times[label] = time.process_time() - start
    return times, results


def growth_row(size: int, medians: dict, results: list) -> dict:
    t, w = growth_instances()[size]
    checked = size in GROWTH_ORACLE_SIZES
    if checked:
        # imported here, so that the child of --parent-src, which runs
        # another checkout's bsbimod, never imports this checkout's oracle
        if TESTS not in sys.path:
            sys.path.insert(0, TESTS)
        import oracle
        if results != [oracle.family_growth(t, w, mode)
                       for _, _, mode in GROWTH_ALGOS]:
            raise SystemExit(f"|Sub| = {size}: growth differs from the "
                             "oracle family growth")
    row = {"size": size, "length": len(t),
           "t": "".join(f"({r.i},{r.j})" for r in t.entries),
           "w": list(w.images), "oracle_checked": checked}
    for (label, _, _), res in zip(GROWTH_ALGOS, results):
        row[label] = {"process_s": medians[label], "outcome": res.outcome,
                      "step": res.step, "families": sum(map(len, res.trace))}
    return row


def growth_digest(results: list):
    """Per algorithm the outcome, step, traces (each level's families in
    dict order, members sorted), increments and last additions."""
    def fam(phi):
        return sorted(map(list, phi))
    return [[res.outcome, res.step,
             [[(fam(phi), str(rank)) for phi, rank in level.items()]
              for level in res.trace],
             [[(fam(phi), sorted(d)) for phi, d in level.items()]
              for level in res.increments],
             [(fam(phi), list(b), d) for phi, b, d in res.last_additions]]
            for res in results]


CURVES = {
    "dseq": Curve("n", range(8, 21), 5, "BENCH_dseq_scale.json",
                  f"in-process process time of dseq.dichotomy_report(n, "
                  f"{DSEQ_K})", dseq_run, dseq_row, dseq_digest),
    "enumerate": Curve("n", range(10, 19), 7, "BENCH_enumerate.json",
                       "in-process process time of "
                       "subexpr.enumerate_sub(D(1..n), 1)", enumerate_run,
                       lambda n, medians, sub: {"n": n, "length": 2 * n - 1,
                                                "members": 2 * n - 1, **medians},
                       lambda sub: [list(b) for b in sub.members]),
    "res_tensor": Curve("m", range(4, 13), 7, "BENCH_res_tensor.json",
                        f"in-process process time of locmod.res_tensor on "
                        f"S_{N}", res_tensor_run,
                        lambda m, medians, g: {"m": m, "members": 2 ** m,
                                               **medians},
                        lambda g: [[b, str(v)] for b, v in g.values.items()]),
    "membership": Curve("m", range(5, 11), 7, "BENCH_membership.json",
                        f"in-process process time of locmod.membership(g, "
                        f"'X(t)') on the localization of a pure tensor on "
                        f"S_{N}, accept path: membership_s after the "
                        f"analysis is built, fresh_s from the enumeration "
                        f"of Sub(t) on", membership_run,
                        lambda m, medians, members: {"m": m, "members": members,
                                                     **medians},
                        lambda members: members),
    "basis": Curve("m", range(4, 10), 7, "BENCH_basis.json",
                   f"in-process process time of the basis round trip on "
                   f"S_{N} (basis, X(t) membership of every element, "
                   f"combination, express_in_basis, mu/inner pairings on "
                   f"Sub(t, w))", basis_run,
                   lambda m, medians, _: {"m": m, "elements": 2 ** m,
                                          **medians}, basis_digest),
    "growth": Curve("size", GROWTH_SIZES, 15, "BENCH_growth.json",
                    "in-process process time of orderalg.algorithm2 and "
                    "orderalg.algorithm1 on one enumerated Sub(t, w) each",
                    growth_run, growth_row, growth_digest),
}


def _git(src_dir: str, *args: str):
    try:
        out = subprocess.run(["git", "-C", src_dir, *args], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.strip()


def provenance() -> dict:
    src_dir = os.path.dirname(os.path.abspath(bsbimod.__file__))
    commit = _git(src_dir, "rev-parse", "HEAD")
    status = _git(src_dir, "status", "--porcelain", "--", ".")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(),
                    "cpu_count": os.cpu_count()},
    }


def digest(curve: Curve, result) -> str:
    return hashlib.sha256(json.dumps(curve.digest(result)).encode()).hexdigest()


def serve(name: str) -> None:
    """The child of --parent-src: its provenance, with the directories of
    the `bsbimod` modules it imported as "package", as one JSON line, then,
    per parameter read from stdin, one line of [{phase: seconds}, digest]."""
    curve = CURVES[name]
    package = sorted({os.path.dirname(os.path.realpath(module.__file__))
                      for name, module in sys.modules.items()
                      if name.partition(".")[0] == "bsbimod"})
    print(json.dumps(dict(provenance(), package=package)), flush=True)
    for line in sys.stdin:
        times, result = curve.run(int(line))
        print(json.dumps([times, digest(curve, result)]), flush=True)


class Parent:
    """The child process of --parent-src, running the package in DIR."""

    def __init__(self, name: str, src: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), name, "--serve"],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.provenance = json.loads(self.proc.stdout.readline() or "{}")
        package = self.provenance.pop("package", None)
        if package != [os.path.realpath(os.path.join(src, "bsbimod"))]:
            self.close()
            raise SystemExit(f"--parent-src {src}: the child's bsbimod is "
                             f"{package}, not the one in DIR")

    def run(self, p: int) -> list:
        self.proc.stdin.write(f"{p}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{p}: the parent checkout's child stopped")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _medians(runs: list) -> dict:
    return {phase: round(statistics.median(run[phase] for run in runs), 4)
            for phase in runs[0]}


def measure(name: str, params, repeats: int, parent_src=None) -> dict:
    """The curve `name` at `params`, each the median of `repeats`
    interleaved repeats; with parent_src, alongside the package in that
    directory (see the module docstring)."""
    curve = CURVES[name]
    parent = Parent(name, parent_src) if parent_src else None
    own = {p: [] for p in params}
    theirs = {p: [] for p in params}
    results = {}
    try:
        for r in range(repeats):
            for p in params:
                got = parent.run(p) if parent and r % 2 else None
                times, results[p] = curve.run(p)
                own[p].append(times)
                if parent is None:
                    continue
                got = got or parent.run(p)
                if got[1] != digest(curve, results[p]):
                    raise SystemExit(f"{curve.param} = {p}: the parent "
                                     "checkout gives other results")
                theirs[p].append(got[0])
            print(f"repeat {r + 1}/{repeats} done", flush=True)
    finally:
        if parent is not None:
            parent.close()
    rows = []
    for p in params:
        row = curve.row(p, _medians(own[p]), results[p])
        if parent is not None:
            row["parent"] = _medians(theirs[p])
        rows.append(row)
        print("  ".join(f"{k}={v}" for k, v in row.items()), flush=True)
    result = {"what": curve.what,
              "statistic": f"median process time of {repeats} repeats per "
                           f"{curve.param}, interleaved over {curve.param}",
              **provenance(), "runs": rows}
    if parent is not None:
        result["statistic"] += ("; each run of the parent checkout, in a "
                                "child process, right before or after this "
                                "checkout's, alternating by repeat, with "
                                "equal digests")
        result["parent"] = parent.provenance
    return result


def main() -> None:
    if sys.argv[2:] == ["--serve"]:
        serve(sys.argv[1])
        return
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("curve", choices=CURVES)
    ap.add_argument("out", nargs="?",
                    help="the JSON file written (the curve's BENCH_*.json)")
    ap.add_argument("--parent-src", metavar="DIR",
                    help="time the package in DIR alongside, interleaved")
    ap.add_argument("--max-n", type=int,
                    help="dseq only: the last n timed (8..20)")
    args = ap.parse_args()
    curve = CURVES[args.curve]
    params = curve.params
    if args.max_n is not None:
        if args.curve != "dseq" or args.max_n not in params:
            ap.error("--max-n N takes the dseq curve and N in 8..20")
        params = range(params[0], args.max_n + 1)
    result = measure(args.curve, params, curve.repeats, args.parent_src)
    with open(args.out or curve.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
