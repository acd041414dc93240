"""
The decision core: closeness and con-closeness certificates, the two
family-growing algorithms with graded-rank tracking, the balanced-case
perfect order, the acyclic-case rank formula, and residual-constraint
extraction for non-free outcomes.
"""

__all__ = [
    "ClosenessCert", "AlgoResult", "InvariantError",
    "closeness", "algorithm1", "algorithm2", "chain_run", "step_generator",
    "balanced_order", "acyclic_rank", "residual_constraints",
]

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .polyring import Polynomial, GradedRank, InvariantError
from .coxeter import Permutation, Reflection, ReflExpr
from .subexpr import (Subexpr, SubSet, SubAnalysis, enumerate_sub, components,
                      con_component, balance, _indices, _mask, _positions)
from .locmod import FnOnSub, indicator, _nabla_product

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class ClosenessCert:
    """Certificate that eps is (con-)close to Phi: the index set Y, the
    per-reflection data (M_p, n_p, Y cap M_p), and dist = 2|Y|."""
    Y: Tuple[int, ...]
    per_p: Tuple[Tuple[Reflection, Tuple[int, ...], int, Tuple[int, ...]], ...]
    dist: int
    mode: str


@dataclass
class AlgoResult:
    outcome: str                 # "completed" | "premature" | "cap"
    step: int                    # last step with a nonempty family
    trace: List[Dict[FrozenSet[Bits], GradedRank]]
    P: Optional[GradedRank] = None
    # increments[k] maps Phi (at step k) -> set of cdists used to reach it
    increments: List[Dict[FrozenSet[Bits], set]] = field(default_factory=list)
    last_additions: List[Tuple[FrozenSet[Bits], Bits, int]] = field(default_factory=list)


def _candidates_plain(F: List[int], np: int, Mp: Tuple[int, ...]
                      ) -> List[Tuple[int, ...]]:
    """Subsets cotransversal to F: size np-1, contained in a maximum member
    Z with every X in F satisfying |X \\ Z| <= 1, and containing the core
    union of X cap Z over X not inside Z.  F holds submasks of M_p."""
    out = set()
    for Z in F:
        if Z.bit_count() != np:
            continue
        if any((X & ~Z).bit_count() > 1 for X in F):
            continue
        core = 0
        for X in F:
            if X & ~Z:
                core |= X & Z
        for b in _indices(Z & ~core):
            out.add(_positions(Mp, Z & ~(1 << b)))
    return sorted(out)


def _candidates_con(Mp: Tuple[int, ...], np: int) -> List[Tuple[int, ...]]:
    return [tuple(sorted(c)) for c in combinations(sorted(Mp), np - 1)]


def closeness(sub: SubSet, Phi, eps: Subexpr, mode: str = "plain"
              ) -> Optional[ClosenessCert]:
    """
    Whether eps (in Sub(t,w), not in Phi) is close ("plain") or con-close
    ("con") to Phi.  Condition (a): |Y cap M_p(eps)| = n_p(Phi,eps) - 1 for
    every p with M_p nonempty; condition (b)/(b'): the frozen set (or its
    connected component through eps) avoids Phi.  Returns the first valid
    certificate in canonical order, or None.

    Phi_p(eps) is the set of X inside M_p(eps) whose unfrozen set
    {f_Y eps : Y even inside X} lies in Phi u {eps}; it is read from the
    cached analysis of `sub`, as is the graph the con mode searches.
    """
    an = sub.analysis()
    i = an.require(eps)
    phi_bits = frozenset(tuple(b) for b in
                         (Phi.members if isinstance(Phi, SubSet) else Phi))
    if eps.bits in phi_bits:
        raise ValueError("eps must not lie in Phi")
    phi = an.mask_of(phi_bits)
    allowed = phi | 1 << i
    per_p_choices = []
    for p, Mp, reach in an.reach(i):
        F = [S for S, r in enumerate(reach)
             if r is not None and not r & ~allowed]
        np = max(S.bit_count() for S in F)
        if mode == "plain":
            cands = _candidates_plain(F, np, Mp)
        else:
            cands = _candidates_con(Mp, np)
        if not cands:
            return None
        per_p_choices.append((p, Mp, np, cands))

    for combo in product(*(c[3] for c in per_p_choices)):
        Y = tuple(sorted(set().union(*map(set, combo)))) if combo else ()
        reach = an.frozen(i, _mask(Y))
        if mode == "con" and reach & phi:
            reach = an.component(i, reach)
        if reach & phi:
            continue
        per_p = tuple((p, Mp, np, Yp)
                      for (p, Mp, np, _), Yp in zip(per_p_choices, combo))
        return ClosenessCert(Y=Y, per_p=per_p, dist=2 * len(Y), mode=mode)
    return None


def step_generator(sub: SubSet, Phi, eps: Subexpr, cert: ClosenessCert) -> FnOnSub:
    """The module generator the certificate provides: nabla_eps^Y restricted
    to Sub(t,w), times the indicator of the connected component in con mode."""
    g = _nabla_product(sub, {i: eps.bits[i - 1] for i in cert.Y})
    if cert.mode == "con":
        comp = con_component(sub, eps, cert.Y)
        g = g * indicator(sub, comp.members)
    return g


def _run_family_algorithm(t: ReflExpr, w: Permutation, mode: str,
                          max_family: Optional[int] = None,
                          greedy: bool = False) -> AlgoResult:
    sub = enumerate_sub(t, w)
    subexprs = sub.subexprs()
    msub = len(sub)
    trace: List[Dict[FrozenSet[Bits], GradedRank]] = [
        {frozenset(): GradedRank.constant(0)}]
    increments: List[Dict[FrozenSet[Bits], set]] = [{frozenset(): set()}]
    last_additions: List[Tuple[FrozenSet[Bits], Bits, int]] = []
    k = 0
    while k < msub:
        nxt: Dict[FrozenSet[Bits], GradedRank] = {}
        incs: Dict[FrozenSet[Bits], set] = {}
        for phi, P in sorted(trace[k].items(), key=lambda kv: sorted(kv[0])):
            for eps in subexprs:
                bits = eps.bits
                if bits in phi:
                    continue
                cert = closeness(sub, phi, eps, mode)
                if cert is None:
                    continue
                newphi = phi | {bits}
                newP = P + GradedRank.v_power(-cert.dist)
                if newphi in nxt:
                    # equal families must carry equal graded ranks
                    if nxt[newphi] != newP:
                        raise InvariantError(
                            f"rank mismatch at {sorted(newphi)}: "
                            f"{nxt[newphi]} vs {newP}")
                else:
                    nxt[newphi] = newP
                incs.setdefault(newphi, set()).add(cert.dist)
                if k == msub - 1:
                    last_additions.append((phi, bits, cert.dist))
                if greedy:
                    break
            if greedy and nxt:
                break
        if not nxt:
            return AlgoResult("premature", k, trace, None, increments,
                              last_additions)
        if max_family is not None and len(nxt) > max_family:
            return AlgoResult("cap", k + 1, trace + [nxt], None,
                              increments + [incs], last_additions)
        trace.append(nxt)
        increments.append(incs)
        k += 1
    final = trace[-1]
    P = next(iter(final.values()))
    return AlgoResult("completed", msub, trace, P, increments, last_additions)


def algorithm1(t: ReflExpr, w: Permutation, max_family: Optional[int] = None,
               greedy: bool = False) -> AlgoResult:
    """Family growth by plain closeness; completion certifies graded
    freeness (the families are exactly the perfectly orderable subsets)."""
    res = _run_family_algorithm(t, w, "plain", max_family, greedy)
    if res.outcome == "completed":
        res.P = None  # plain algorithm does not report ranks
    return res


def algorithm2(t: ReflExpr, w: Permutation, max_family: Optional[int] = None,
               greedy: bool = False) -> AlgoResult:
    """Family growth by con-closeness with graded-rank tracking."""
    return _run_family_algorithm(t, w, "con", max_family, greedy)


def chain_run(t: ReflExpr, w: Permutation, order: Sequence[Subexpr],
              mode: str = "con"):
    """
    Run a single chain of the family algorithm along a prescribed order of
    all of Sub(t, w).  Returns (certs, P); raises if some step is not
    (con-)close to its predecessors.  A successful chain run is a
    completing execution of the corresponding algorithm.
    """
    sub = enumerate_sub(t, w)
    if sorted(eps.bits for eps in order) != sorted(sub.members):
        raise ValueError("order must list Sub(t, w) exactly")
    phi: set = set()
    certs = []
    P = GradedRank.constant(0)
    for eps in order:
        cert = closeness(sub, phi, eps, mode)
        if cert is None:
            raise InvariantError(f"chain step failed at {eps}")
        certs.append(cert)
        P = P + GradedRank.v_power(-cert.dist)
        phi.add(eps.bits)
    return certs, P


# -- balanced case -----------------------------------------------------------

def balanced_order(t: ReflExpr, w: Permutation):
    """
    If Sub(t, w) is balanced, the order with delta before eps whenever the
    maximal differing index is positive for eps is perfect; returns
    (ordered list of Subexpr, list of dists).  Otherwise returns the string
    "NotBalanced" together with a witness subexpression.
    """
    sub = enumerate_sub(t, w)
    if len(sub) == 0:
        raise ValueError("empty Sub(t, w)")
    infos = {}
    for bits in sub.members:
        eps = Subexpr(t, bits)
        pos, neg, bal = balance(eps)
        if not bal:
            return "NotBalanced", eps
        infos[bits] = set(pos)

    import functools

    def cmp(a: Bits, b: Bits) -> int:
        if a == b:
            return 0
        i = max(k + 1 for k in range(len(a)) if a[k] != b[k])
        # b <<< a iff i is positive for a
        return 1 if i in infos[a] else -1

    ordered_bits = sorted(sub.members, key=functools.cmp_to_key(cmp))
    ordered = [Subexpr(t, b) for b in ordered_bits]
    dists = []
    phi: set = set()
    for eps in ordered:
        cert = closeness(sub, phi, eps, "plain")
        if cert is None:
            raise InvariantError(f"perfect-order step failed at {eps}")
        expected = 2 * len(infos[eps.bits])
        if cert.dist != expected:
            raise InvariantError(
                f"dist {cert.dist} != 2*#positive {expected} at {eps}")
        dists.append(cert.dist)
        phi.add(eps.bits)
    return ordered, dists


# -- acyclic case ------------------------------------------------------------

def _find_cycle(an: SubAnalysis) -> Optional[List[Bits]]:
    """A cycle of the graph of the analysed set, or None: a depth-first
    search from each unvisited member, neighbours in index order."""
    parent: Dict[int, Optional[int]] = {}
    for start in range(len(an.members)):
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, None)]
        while stack:
            v, par = stack.pop()
            for u in _indices(an.adj[v]):
                if u == par:
                    continue
                if u in parent:
                    # reconstruct the cycle through v .. u
                    path_v = [v]
                    while parent[path_v[-1]] is not None:
                        path_v.append(parent[path_v[-1]])
                    path_u = [u]
                    while parent[path_u[-1]] is not None:
                        path_u.append(parent[path_u[-1]])
                    common = set(path_v) & set(path_u)
                    iv = next(i for i, x in enumerate(path_v) if x in common)
                    iu = next(i for i, x in enumerate(path_u) if x in common)
                    cycle = path_v[:iv + 1] + list(reversed(path_u[:iu]))
                    return [an.members[x] for x in cycle]
                parent[u] = v
                stack.append((u, v))
    return None


def acyclic_rank(t: ReflExpr, w: Permutation):
    """If Gr(Sub(t,w)) is a forest with m vertices and l components, return
    the graded rank l + (m - l) v^{-2}; otherwise ("NotForest", cycle)."""
    sub = enumerate_sub(t, w)
    if len(sub) == 0:
        raise ValueError("empty Sub(t, w)")
    an = sub.analysis()
    m, l = len(sub), len(components(sub))
    if sum(a.bit_count() for a in an.adj) // 2 != m - l:
        return "NotForest", _find_cycle(an)
    return GradedRank({0: l, -2: m - l})


# -- residual constraints ----------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    kind: str                  # "zero" | "pair" | "multi"
    members: Tuple[Bits, ...]  # the free positions involved
    signs: Tuple[int, ...]
    root: Polynomial
    power: int
    source: Tuple              # (eps bits, p, X)


@dataclass(frozen=True)
class ResidualReport:
    free: Tuple[Bits, ...]
    congruences: Tuple[Congruence, ...]
    is_string_pattern: bool
    roots: Tuple[Polynomial, ...]        # ordered x_1..x_n when pattern found
    path: Tuple[Bits, ...]               # free positions in path order
    independent: Optional[bool]


def _roots_independent(roots: Sequence[Polynomial]) -> bool:
    """Rank check over Q for degree-2 linear forms."""
    if not roots:
        return True
    n = roots[0].n
    rows = []
    for r in roots:
        row = [Fraction(0)] * n
        for exp, c in r.terms.items():
            idx = [i for i, k in enumerate(exp) if k]
            if sum(exp) != 1:
                raise ValueError("not a linear form")
            row[idx[0]] = c
        rows.append(row)
    # Gaussian elimination
    rank = 0
    cols = list(range(n))
    for col in cols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank == len(roots)


def residual_constraints(sub: SubSet, Phi) -> ResidualReport:
    """
    The constraint system cutting out X_w(t, Phi) on the free positions
    sub \\ Phi, sub = Sub(t,w), with every binding even-variant
    divisibility condition reduced to a congruence; detects the
    string-module pattern (a path of pairwise congruences modulo distinct
    roots with both ends forced to 0).
    """
    phi_bits = frozenset(tuple(b) for b in
                         (Phi.members if isinstance(Phi, SubSet) else Phi))
    free = tuple(b for b in sub.members if b not in phi_bits)

    an = sub.analysis()
    phi = an.mask_of(phi_bits)
    congs: List[Congruence] = []
    for i, p, X, terms in an.conditions(even=True):
        if len(X) < 2:
            continue
        kept = [(j, sign) for j, sign in terms if not phi >> j & 1]
        if not kept:
            continue
        members = tuple(an.members[j] for j, _ in kept)
        signs = tuple(sign for _, sign in kept)
        kind = {1: "zero", 2: "pair"}.get(len(kept), "multi")
        congs.append(Congruence(kind, members, signs, p.root(),
                                len(X) - 1, (an.members[i], p, X)))

    # -- string-module pattern detection
    pattern, roots, path, independent = _detect_string(free, congs)
    return ResidualReport(free, tuple(congs), pattern, roots, path, independent)


def _detect_string(free: Tuple[Bits, ...], congs: Sequence[Congruence]):
    nothing = (False, (), (), None)
    if not free:
        return nothing
    pair_adj: Dict[Bits, list] = {b: [] for b in free}
    zero_roots: Dict[Bits, list] = {b: [] for b in free}
    for c in congs:
        if c.power != 1 or c.kind == "multi":
            return nothing
        if c.kind == "zero":
            zero_roots[c.members[0]].append(c.root)
        else:
            a, b = c.members
            pair_adj[a].append((b, c.root))
            pair_adj[b].append((a, c.root))
    degrees = {b: len(v) for b, v in pair_adj.items()}
    ends = [b for b in free if degrees[b] <= 1]
    if len(free) == 1:
        zr = zero_roots[free[0]]
        if len(zr) == 2:
            roots = tuple(zr)
            return True, roots, (free[0],), _roots_independent(roots)
        return nothing
    if sum(1 for b in free if degrees[b] == 1) != 2 or \
            any(degrees[b] > 2 for b in free):
        return nothing
    # walk the path
    start = min(b for b in free if degrees[b] == 1)
    path = [start]
    roots: List[Polynomial] = []
    prev = None
    while True:
        nxts = [(nb, r) for nb, r in pair_adj[path[-1]] if nb != prev]
        if not nxts:
            break
        if len(nxts) > 1:
            return nothing
        nb, r = nxts[0]
        roots.append(r)
        prev = path[-1]
        path.append(nb)
    if set(path) != set(free):
        return nothing
    z0, z1 = zero_roots[path[0]], zero_roots[path[-1]]
    if len(z0) != 1 or len(z1) != 1:
        return nothing
    for mid in path[1:-1]:
        if zero_roots[mid]:
            return nothing
    full = tuple([z0[0]] + roots + [z1[0]])
    return True, full, tuple(path), _roots_independent(full)
