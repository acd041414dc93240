"""
Command-line front end: enumeration, graphs, membership and basis tooling,
the two family-growth algorithms, the balanced and acyclic shortcuts, the
string-module calculator, the D-sequence reports, and the built-in
verification suite.  All outputs are deterministic.
"""

__all__ = ["main"]

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .polyring import Polynomial, GradedRank
from .coxeter import Permutation, Reflection, ReflExpr
from .subexpr import enumerate_sub, graph, components
from .locmod import FnOnSub, DecoTree, membership, basis, express_in_basis
from .orderalg import (algorithm1, algorithm2, chain_run, balanced_order,
                       acyclic_rank)
from . import strmod, dseq


class CheckFailure(AssertionError):
    pass


class UsageError(ValueError):
    """Bad command-line input; exits with code 2."""


# -- input parsing -----------------------------------------------------------

def parse_expr(text: str, n: Optional[int] = None) -> ReflExpr:
    """A reflection expression from a JSON file or an inline pair list like
    "(1,3),(2,4),(1,2)"."""
    try:
        with open(text) as fh:
            return ReflExpr.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError):
        pass
    pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", text)
    if not pairs:
        raise UsageError(f"cannot read reflection expression from {text!r}")
    pairs = [(int(a), int(b)) for a, b in pairs]
    if n is None:
        n = max(max(p) for p in pairs)
    try:
        return ReflExpr(n, tuple(Reflection(min(a, b), max(a, b), n)
                                 for a, b in pairs))
    except ValueError as exc:
        raise UsageError(f"bad reflection expression {text!r}: {exc}")


def parse_perm(text: str, n: int):
    if text in ("all", "*"):
        return "all"
    if text in ("id", "1"):
        return Permutation.identity(n)
    try:
        images = tuple(int(x) for x in re.split(r"[,\s]+", text.strip()) if x)
    except ValueError:
        images = ()
    if sorted(images) != list(range(1, n + 1)):
        raise UsageError(f"{text!r} is not a permutation of 1..{n}")
    return Permutation(images)


_TERM = re.compile(r"([+-]?)\s*(\d+)?\s*\*?\s*e(\d+)")


def parse_root(text: str, n: int) -> Polynomial:
    """A degree-2 linear form like "e1-e2" or "2*e1-e3"."""
    pos = 0
    out = Polynomial.zero(n)
    for m in _TERM.finditer(text.replace(" ", "")):
        if m.start() != pos:
            raise UsageError(f"cannot parse root {text!r}")
        pos = m.end()
        coeff = Fraction(int(m.group(2) or 1))
        if m.group(1) == "-":
            coeff = -coeff
        out = out + Polynomial.var(n, int(m.group(3))).scale(coeff)
    if pos != len(text.replace(" ", "")):
        raise UsageError(f"cannot parse root {text!r}")
    return out


def parse_roots(text: str, n: int) -> List[Polynomial]:
    chunks = [c for c in re.split(r"[;,](?![^()]*\))", text) if c.strip()]
    return [parse_root(c, n) for c in chunks]


# -- output helpers ----------------------------------------------------------

def _emit_json(obj, path: Optional[str]):
    blob = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def _emit_dot(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _bits_str(bits) -> str:
    return "".join(map(str, bits))


# -- subcommands -------------------------------------------------------------

def cmd_enumerate(args) -> int:
    t = parse_expr(args.expr, args.n)
    w = parse_perm(args.target, t.n)
    sub = enumerate_sub(t, w)
    for b in sub.members:
        print(_bits_str(b))
    if args.json:
        _emit_json(sub.to_json(), args.json)
    return 0


def cmd_graph(args) -> int:
    t = parse_expr(args.expr, args.n)
    w = parse_perm(args.target, t.n)
    sub = enumerate_sub(t, w)
    G = graph(sub)
    print(f"vertices: {len(sub)}  edges: {len(G.edges)}  "
          f"components: {len(components(sub))}")
    _emit_dot(G.to_dot(), args.dot)
    if args.json:
        _emit_json({"vertices": [_bits_str(b) for b in sub.members],
                    "edges": [{"a": _bits_str(a), "b": _bits_str(b),
                               "p": [p.i, p.j], "Y": list(Y)}
                              for a, b, p, Y in G.edges]}, args.json)
    return 0


def cmd_membership(args) -> int:
    with open(args.fn_file) as fh:
        g = FnOnSub.from_json(json.load(fh))
    Phi = None
    if args.phi:
        names = [b.strip() for b in args.phi.split(",")]
        domain = {_bits_str(b) for b in g.domain.members}
        unknown = [b for b in names if b not in domain]
        if unknown:
            raise UsageError(f"--phi: not in the domain: {', '.join(unknown)}")
        Phi = g.domain.restrict(tuple(map(int, b)) for b in names)
    ok, cert = membership(g, args.variant, Phi)
    print("member" if ok else "not a member")
    if cert is not None:
        eps, p, X = cert
        print(f"witness: eps={_bits_str(eps.bits)} p={p} X={X}")
    if args.json:
        _emit_json({"variant": args.variant, "member": ok}, args.json)
    return 0 if ok else 1


def cmd_basis(args) -> int:
    t = parse_expr(args.expr, args.n)
    B = basis(t, DecoTree.default(len(t.entries)))
    out = {}
    for L in sorted(B):
        key = "".join(L)
        out[key] = B[L].to_json()
        support = [_bits_str(b) for b in B[L].support()]
        print(f"{key}: support {{{','.join(support)}}}")
    if args.json:
        _emit_json(out, args.json)
    return 0


def cmd_express(args) -> int:
    with open(args.fn_file) as fh:
        g = FnOnSub.from_json(json.load(fh))
    coeffs = express_in_basis(g, DecoTree.default(len(g.domain.expr.entries)))
    out = {}
    for L in sorted(coeffs):
        if not coeffs[L].is_zero():
            print(f"{''.join(L)}: {coeffs[L]}")
        out["".join(L)] = coeffs[L].to_json()
    if args.json:
        _emit_json(out, args.json)
    return 0


def _run_algo(args, which: int) -> int:
    t = parse_expr(args.expr, args.n)
    w = parse_perm(args.target, t.n)
    algo = algorithm1 if which == 1 else algorithm2
    res = algo(t, w, max_family=args.max_family, greedy=args.greedy)
    print(f"outcome: {res.outcome}  step: {res.step}")
    if res.P is not None:
        print(f"P = {res.P}")
    if args.json:
        obj = {"outcome": res.outcome, "step": res.step,
               "families_per_step": [len(d) for d in res.trace]}
        if res.P is not None:
            obj["P"] = res.P.to_json()
        _emit_json(obj, args.json)
    return 0 if res.outcome == "completed" else 1


def cmd_algo1(args) -> int:
    return _run_algo(args, 1)


def cmd_algo2(args) -> int:
    return _run_algo(args, 2)


def cmd_balanced(args) -> int:
    t = parse_expr(args.expr, args.n)
    w = parse_perm(args.target, t.n)
    res = balanced_order(t, w)
    if res[0] == "NotBalanced":
        print(f"NotBalanced: witness {_bits_str(res[1].bits)}")
        return 1
    order, dists = res
    certs, P = chain_run(t, w, order)
    for eps, d in zip(order, dists):
        print(f"{_bits_str(eps.bits)}: dist {d}")
    print(f"P = {P}")
    if args.json:
        _emit_json({"order": [_bits_str(e.bits) for e in order],
                    "dists": list(dists), "P": P.to_json()}, args.json)
    return 0


def cmd_acyclic(args) -> int:
    t = parse_expr(args.expr, args.n)
    w = parse_perm(args.target, t.n)
    res = acyclic_rank(t, w)
    if isinstance(res, tuple):
        print(f"NotForest: cycle {[_bits_str(b) for b in res[1]]}")
        return 1
    print(f"P = {res}")
    if args.json:
        _emit_json({"P": res.to_json()}, args.json)
    return 0


def cmd_st(args) -> int:
    if args.roots:
        amb_n = args.ambient or 0
        if not amb_n:
            # infer the ambient variable count from the roots
            probe = max((int(x) for x in re.findall(r"e(\d+)", args.roots)),
                        default=0)
            amb_n = probe
        roots = parse_roots(args.roots, amb_n)
        n_roots, _, _ = strmod.coordinate_change(roots)
        extra = amb_n - n_roots
    else:
        n_roots = args.nroots or 4
        extra = args.extra
    gens = strmod.st_generators(n_roots, extra=extra)
    _, order = strmod.st_ambient(n_roots, extra=extra)
    if args.action == "pd":
        p, degrees = strmod.pd(gens, order)
        print(f"pd = {p}")
        print(f"resolution degrees: {degrees}")
        if args.json:
            _emit_json({"pd": p, "degrees": degrees,
                        "ranks": [str(r)
                                  for r in strmod.resolution_ranks(degrees)]},
                       args.json)
        return 0
    # resolve
    if args.dual:
        report = strmod.dual_toolkit(n_roots, extra=extra)
        print(f"dual resolution degrees: {report['resolution_degrees']}")
        print(f"pd(dual) = {report['pd']}  shape_ok = {report['shape_ok']}")
        if args.json:
            _emit_json({k: v for k, v in report.items()}, args.json)
        return 0 if report["shape_ok"] else 1
    degrees, diffs = strmod.free_resolution(gens, order)
    degrees, diffs = strmod.minimize_resolution(degrees, diffs)
    print(f"resolution degrees: {degrees}")
    if args.json:
        _emit_json({"degrees": degrees}, args.json)
    return 0


def cmd_dseq(args) -> int:
    n = args.n
    perm = tuple(int(x) for x in args.perm.split(",")) if args.perm else None
    report = dseq.dichotomy_report(n, args.k, perm)
    table = report["table"]
    checks = dseq.structure_checks(table)
    if not checks["ok"]:
        raise CheckFailure(f"structural identity failed: {checks}")
    print(f"n={n} k={table.k} i={table.i}")
    print(f"outcome: {report['outcome']} at step {report['step']}")
    print(f"P = {report['P']}")
    if report["outcome"] == "premature":
        roots = ", ".join(str(r) for r in report["residual_roots"])
        print(f"residual string module on roots: {roots}")
        print(f"pd(string module) = {report['pd_string']}")
        print(f"pd(dual) = {report['dual']['pd']}")
    if args.dot:
        _emit_dot(graph(table.sub).to_dot(), args.dot)
    if args.json:
        obj = {"n": n, "k": table.k, "i": list(table.i),
               "outcome": report["outcome"], "step": report["step"],
               "P": report["P"].to_json(),
               "structure_checks": {k: bool(v) for k, v in checks.items()}}
        if report["outcome"] == "premature":
            obj["residual_roots"] = [r.to_json()
                                     for r in report["residual_roots"]]
            obj["pd_string"] = report["pd_string"]
        _emit_json(obj, args.json)
    return 0


# -- the built-in verification suite ----------------------------------------

def _check(cond, label):
    print(("PASS " if cond else "FAIL ") + label)
    if not cond:
        raise CheckFailure(label)


def check_two_solution() -> None:
    n = 4
    pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
    t = ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))
    w = Permutation.identity(n)
    sub = enumerate_sub(t, w)
    _check(set(sub.members) == {(0,) * 6, (1,) * 6},
           "two-solution enumeration")
    r1 = algorithm1(t, w)
    _check(r1.outcome == "premature" and r1.step == 1,
           "plain growth stops at step 1")
    r2 = algorithm2(t, w)
    _check(r2.outcome == "completed" and r2.P == GradedRank({0: 2}),
           "con growth completes with rank 2")


def check_dseq(n: int, k: int = 0, perm=None) -> None:
    report = dseq.dichotomy_report(n, k, perm)
    if n == 3:
        _check(report["outcome"] == "completed"
               and report["P"] == GradedRank({0: 1, -2: 3, -4: 1}),
               f"n=3 k={k} complete growth")
    else:
        _check(report["outcome"] == "premature"
               and report["step"] == n + 1
               and report["pd_string"] == n - 3,
               f"n={n} k={k} premature stop and pd {n - 3}")


def cmd_selfcheck(args) -> int:
    todo = []
    if args.two_solution or not (args.two_solution or args.all):
        todo.append(("two-solution instance", check_two_solution))
    if args.all:
        todo.append(("two-solution instance", check_two_solution))
        for n in (3, 4):
            for k in (0, 1 - n):
                todo.append((f"dseq n={n} k={k}",
                             lambda n=n, k=k: check_dseq(n, k)))
    for label, fn in todo:
        print(f"== {label}")
        fn()
    print("all checks passed")
    return 0


# -- dispatch ----------------------------------------------------------------

def _add_common(p, expr=False, target=False):
    if expr:
        p.add_argument("--expr", required=True,
                       help="JSON file or inline pairs like '(1,3),(2,4)'")
        p.add_argument("--n", type=int, default=None,
                       help="ambient symmetric group size")
    if target:
        p.add_argument("--target", default="all",
                       help="one-line permutation, 'id', or 'all'")
    p.add_argument("--json", default=None, metavar="OUT")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsbimod",
        description="Exact tools for subexpression calculus, family-growth "
                    "freeness certificates, and string modules.")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("enumerate", help="list Sub(t, w)")
    _add_common(p, expr=True, target=True)
    p.set_defaults(handler=cmd_enumerate)

    p = sp.add_parser("graph", help="the graph Gr(Sub(t, w))")
    _add_common(p, expr=True, target=True)
    p.add_argument("--dot", default=None, metavar="OUT")
    p.set_defaults(handler=cmd_graph)

    p = sp.add_parser("membership", help="variant membership with witness")
    _add_common(p)
    p.add_argument("--fn", dest="fn_file", required=True,
                   help="FnOnSub JSON file")
    p.add_argument("--variant", default="Xw",
                   choices=["X(t)", "Xw", "X^w", "XwPhi"])
    p.add_argument("--phi", default=None,
                   help="comma-separated bit strings for the XwPhi variant")
    p.set_defaults(handler=cmd_membership)

    p = sp.add_parser("basis", help="the 2^m basis of X(t)")
    _add_common(p, expr=True)
    p.set_defaults(handler=cmd_basis)

    p = sp.add_parser("express", help="exact coefficients in the basis")
    _add_common(p)
    p.add_argument("--fn", dest="fn_file", required=True,
                   help="FnOnSub JSON file")
    p.set_defaults(handler=cmd_express)

    for which in (1, 2):
        p = sp.add_parser(f"algo{which}",
                          help="family growth (plain / con closeness)")
        _add_common(p, expr=True, target=True)
        p.add_argument("--max-family", type=int, default=None)
        p.add_argument("--greedy", action="store_true")
        p.set_defaults(handler=cmd_algo1 if which == 1 else cmd_algo2)

    p = sp.add_parser("balanced", help="the balanced-order shortcut")
    _add_common(p, expr=True, target=True)
    p.set_defaults(handler=cmd_balanced)

    p = sp.add_parser("acyclic", help="the forest-graph rank formula")
    _add_common(p, expr=True, target=True)
    p.set_defaults(handler=cmd_acyclic)

    p = sp.add_parser("st", help="string modules: pd and resolutions")
    p.add_argument("action", choices=["pd", "resolve"])
    p.add_argument("--roots", default=None,
                   help="comma-separated linear forms, e.g. 'e1-e2,e2-e3'")
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--nroots", type=int, default=None)
    p.add_argument("--extra", type=int, default=1)
    p.add_argument("--dual", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_st)

    p = sp.add_parser("dseq", help="D-sequence counterexample reports")
    p.add_argument("action", choices=["report"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--perm", default=None,
                   help="rearrangement of 1..n, comma separated")
    p.add_argument("--dot", default=None, metavar="OUT")
    _add_common(p)
    p.set_defaults(handler=cmd_dseq)

    p = sp.add_parser("selfcheck", help="built-in verification suite")
    p.add_argument("--two-solution", action="store_true")
    p.add_argument("--all", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_selfcheck)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
