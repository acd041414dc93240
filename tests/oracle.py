"""
Brute-force reference implementations of the subexpression graph, frozen
sets, connected components, closeness, the forest rank and its cycle
witness, the divisibility conditions behind membership and sigma, the
residual constraints, root-power divisibility by repeated exact division, and
the Delta/nabla elements (basis, nabla_X, mu) built by climbing the
copy/concentration ladder one position at a time.  They fold `Subexpr`
objects, rebuild graphs and edge-list adjacencies, divide polynomials and
enumerate a prefix domain per ladder step on every call, as the library did
before it read these from the cached `SubSet.analysis()`, tested
divisibility by substitution and evaluated the nabla products in closed
form; the differential tests compare the two.
"""

from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from bsbimod.coxeter import Reflection, ReflExpr, truncate
from bsbimod.locmod import DecoTree, FnOnSub, copy_up, unit, _extend_domain
from bsbimod.orderalg import (ClosenessCert, Congruence, ResidualReport,
                              _detect_string)
from bsbimod.polyring import GradedRank, Polynomial, try_exact_div
from bsbimod.subexpr import (Subexpr, SubSet, SubGraph, enumerate_sub,
                             rel_card, _even_subsets, _all_subsets)

Bits = Tuple[int, ...]


def graph(Phi: SubSet) -> SubGraph:
    members = set(Phi.members)
    edges: Dict[Tuple[Bits, Bits], Tuple[Reflection, Tuple[int, ...]]] = {}
    for bits in Phi.members:
        eps = Subexpr(Phi.expr, bits)
        for p, Mp in sorted(eps.all_M().items(), key=lambda kv: (kv[0].i, kv[0].j)):
            if len(Mp) < 2:
                continue
            for Y in _even_subsets(Mp):
                if len(Y) < 2:
                    continue
                other = eps.fold(Y).bits
                if other == bits or other not in members:
                    continue
                key = (min(bits, other), max(bits, other))
                if key not in edges or (p.i, p.j, Y) < (
                        edges[key][0].i, edges[key][0].j, edges[key][1]):
                    edges[key] = (p, Y)
    edge_list = tuple((a, b, p, Y) for (a, b), (p, Y) in sorted(edges.items()))
    return SubGraph(Phi, edge_list)


def components(G: SubGraph) -> Tuple[Tuple[Bits, ...], ...]:
    adj: Dict[Bits, set] = {b: set() for b in G.vertices.members}
    for a, b, _, _ in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for start in G.vertices.members:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps, key=lambda c: c[0]))


def _find_cycle(G: SubGraph):
    adj: Dict[Bits, list] = {b: [] for b in G.vertices.members}
    for a, b, _, _ in G.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent: Dict[Bits, Optional[Bits]] = {}
    for start in G.vertices.members:
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, None)]
        while stack:
            v, par = stack.pop()
            for u in adj[v]:
                if u == par:
                    continue
                if u in parent:
                    path_v = [v]
                    while parent[path_v[-1]] is not None:
                        path_v.append(parent[path_v[-1]])
                    path_u = [u]
                    while parent[path_u[-1]] is not None:
                        path_u.append(parent[path_u[-1]])
                    common = set(path_v) & set(path_u)
                    iv = next(i for i, x in enumerate(path_v) if x in common)
                    iu = next(i for i, x in enumerate(path_u) if x in common)
                    return path_v[:iv + 1] + list(reversed(path_u[:iu]))
                parent[u] = v
                stack.append((u, v))
    return None


def acyclic_rank(t, w):
    sub = enumerate_sub(t, w)
    if len(sub) == 0:
        raise ValueError("empty Sub(t, w)")
    G = graph(sub)
    m, l = len(sub), len(components(G))
    if len(G.edges) != m - l:
        return "NotForest", _find_cycle(G)
    return GradedRank({0: l, -2: m - l})


def _require_member(sub: SubSet, eps: Subexpr):
    if eps.bits not in set(sub.members):
        raise ValueError("subexpression not in the given set")


def frozen_set(sub: SubSet, eps: Subexpr, X: Sequence[int]) -> SubSet:
    _require_member(sub, eps)
    Xs = set(X)
    keep = [b for b in sub.members
            if all(b[i - 1] == eps.bits[i - 1] for i in Xs)]
    return SubSet(sub.expr, sub.target, tuple(keep))


def unfrozen_set(sub: SubSet, eps: Subexpr, X: Sequence[int]) -> SubSet:
    _require_member(sub, eps)
    Xs = set(X)
    keep = [b for b in sub.members
            if all(i in Xs for i in range(1, len(b) + 1)
                   if b[i - 1] != eps.bits[i - 1])]
    return SubSet(sub.expr, sub.target, tuple(keep))


def con_component(sub: SubSet, eps: Subexpr, Y: Sequence[int]) -> SubSet:
    frozen = frozen_set(sub, eps, Y)
    for comp in components(graph(frozen)):
        if eps.bits in comp:
            return SubSet(sub.expr, sub.target, comp)
    raise AssertionError("eps not found in its own frozen set")


def phi_p(sub: SubSet, phi_bits: FrozenSet[Bits], eps: Subexpr,
          Mp: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Phi_p(eps): all X inside M_p(eps) whose unfrozen set sits inside
    Phi u {eps}."""
    allowed = set(phi_bits) | {eps.bits}
    sub_members = set(sub.members)
    out = []
    for r in range(len(Mp) + 1):
        for X in combinations(Mp, r):
            if all(eps.fold(Y).bits in sub_members
                   and eps.fold(Y).bits in allowed
                   for Y in _even_subsets(X)):
                out.append(X)
    return out


def _candidates_plain(F: List[Tuple[int, ...]], np: int) -> List[Tuple[int, ...]]:
    out = set()
    for Z in F:
        if len(Z) != np:
            continue
        Zs = set(Z)
        if any(len(set(X) - Zs) > 1 for X in F):
            continue
        core = set()
        for X in F:
            if not set(X) <= Zs:
                core |= set(X) & Zs
        for drop in Zs - core:
            out.add(tuple(sorted(Zs - {drop})))
    return sorted(out)


def closeness(sub: SubSet, Phi, eps: Subexpr, mode: str = "plain"):
    phi_bits = frozenset(tuple(b) for b in
                         (Phi.members if isinstance(Phi, SubSet) else Phi))
    if eps.bits in phi_bits:
        raise ValueError("eps must not lie in Phi")
    allM = sorted(eps.all_M().items(), key=lambda kv: (kv[0].i, kv[0].j))
    per_p_choices = []
    for p, Mp in allM:
        F = phi_p(sub, phi_bits, eps, Mp)
        np = max(len(X) for X in F)
        if mode == "plain":
            cands = _candidates_plain(F, np)
        else:
            cands = [tuple(c) for c in combinations(sorted(Mp), np - 1)]
        if not cands:
            return None
        per_p_choices.append((p, Mp, np, cands))
    for combo in product(*(c[3] for c in per_p_choices)):
        Y = tuple(sorted(set().union(*map(set, combo)))) if combo else ()
        if mode == "plain":
            reach = frozen_set(sub, eps, Y)
        else:
            reach = con_component(sub, eps, Y)
        if any(b in phi_bits for b in reach.members):
            continue
        per_p = tuple((p, Mp, np, Yp)
                      for (p, Mp, np, _), Yp in zip(per_p_choices, combo))
        return ClosenessCert(Y=Y, per_p=per_p, dist=2 * len(Y), mode=mode)
    return None


def sigma(g: FnOnSub, eps: Subexpr, X: Sequence[int], variant: str = "full"
          ) -> Polynomial:
    X = sorted(set(X))
    if X:
        ps = {eps.refl_at(x) for x in X}
        if len(ps) > 1:
            raise ValueError("X must lie inside a single M_p(eps)")
    gen = _all_subsets(X) if variant == "full" else _even_subsets(X)
    out = Polynomial.zero(eps.expr.n)
    for Y in gen:
        term = g(eps.fold(Y))
        if rel_card(Y, X) % 2:
            term = -term
        out = out + term
    return out


def condition_stream(g: FnOnSub, variant: str):
    """(eps, p, X) with X a nonempty subset of M_p(eps), deduplicated across
    the =._p class action, in lexicographic order."""
    seen = set()
    for bits in g.domain.members:
        eps = Subexpr(g.domain.expr, bits)
        for p, Mp in sorted(eps.all_M().items(), key=lambda kv: (kv[0].i, kv[0].j)):
            for X in _all_subsets(Mp):
                if not X:
                    continue
                folds = (_all_subsets(X) if variant == "full"
                         else _even_subsets(X))
                rep = min(eps.fold(Y).bits for Y in folds)
                key = (p, X, rep)
                if key in seen:
                    continue
                seen.add(key)
                yield eps, p, X


def divisible_by_power(f: Polynomial, alpha: Polynomial, k: int) -> bool:
    """Whether alpha^k divides f, by k rounds of exact division."""
    if k <= 0 or f.is_zero():
        return True
    cur = f
    for _ in range(k):
        q = try_exact_div(cur, alpha)
        if q is None:
            return False
        cur = q
    return True


def membership(g: FnOnSub, kind: str, Phi=None):
    variant = "full" if kind == "X(t)" else "even"
    excess = -1 if kind in ("Xw", "XwPhi") else 0
    if kind == "XwPhi":
        for bits in Phi.members:
            if not g.values[tuple(bits)].is_zero():
                return False, (Subexpr(g.domain.expr, bits), "vanish", None)
    for eps, p, X in condition_stream(g, variant):
        k = len(X) + excess
        if k <= 0:
            continue
        val = sigma(g, eps, X, variant)
        if not divisible_by_power(val, p.root(), k):
            return False, (eps, p, X)
    return True, None


def residual_constraints(t, w, Phi) -> ResidualReport:
    sub = enumerate_sub(t, w)
    phi_bits = frozenset(tuple(b) for b in
                         (Phi.members if isinstance(Phi, SubSet) else Phi))
    free = tuple(b for b in sub.members if b not in phi_bits)
    seen = set()
    congs: List[Congruence] = []
    for bits in sub.members:
        eps = Subexpr(t, bits)
        for p, Mp in sorted(eps.all_M().items(), key=lambda kv: (kv[0].i, kv[0].j)):
            for X in _all_subsets(Mp):
                if len(X) < 2:
                    continue
                rep = min(eps.fold(Y).bits for Y in _even_subsets(X))
                key = (p, X, rep)
                if key in seen:
                    continue
                seen.add(key)
                terms = []
                for Y in _even_subsets(X):
                    fb = eps.fold(Y).bits
                    sign = -1 if rel_card(Y, X) % 2 else 1
                    if fb not in phi_bits:
                        terms.append((fb, sign))
                if not terms:
                    continue
                power = len(X) - 1
                members = tuple(tb for tb, _ in terms)
                signs = tuple(s for _, s in terms)
                if len(terms) == 1:
                    kind = "zero"
                elif len(terms) == 2:
                    kind = "pair"
                else:
                    kind = "multi"
                congs.append(Congruence(kind, members, signs, p.root(),
                                        power, (bits, p, X)))
    pattern, roots, path, independent = _detect_string(free, congs)
    return ResidualReport(free, tuple(congs), pattern, roots, path, independent)


def conc_up(g: FnOnSub, t: ReflExpr, e: int) -> FnOnSub:
    """(g nabla_e)(eps) = eps^{->m} g(eps') if eps_m = e, else 0."""
    dom = _extend_domain(g, t)
    m = len(t)
    values = {}
    for b in dom.members:
        if b[-1] == e:
            eps = Subexpr(t, b)
            values[b] = eps.root_before(m) * g.values[b[:-1]]
    return FnOnSub(dom, values)


def basis(t: ReflExpr, tree: Optional[DecoTree] = None) -> Dict[Tuple[str, ...], FnOnSub]:
    """B(L) with last letter Delta is B'(L') followed by the copy; with last
    letter nabla it is B'(L') followed by concentration at the label of the
    current path."""
    if tree is None:
        tree = DecoTree.default(len(t))

    def build(expr: ReflExpr, path: Tuple[str, ...]):
        if len(expr) == 0:
            return {(): unit(enumerate_sub(expr, "all"))}
        e = tree.label(path)
        subD = build(truncate(expr), path + ("D",))
        subN = build(truncate(expr), path + ("N",))
        out = {}
        for L, g in subD.items():
            out[L + ("D",)] = copy_up(g, expr)
        for L, g in subN.items():
            out[L + ("N",)] = conc_up(g, expr, e)
        return out

    return build(t, ())


def nabla_X(eps: Subexpr, X: Sequence[int]) -> FnOnSub:
    """Copy at positions off X, concentration at eps_i on X."""
    t = eps.expr
    Xs = set(X)
    g = unit(enumerate_sub(ReflExpr(t.n, ()), "all"))
    for i in range(1, len(t) + 1):
        expr = ReflExpr(t.n, t.entries[:i])
        if i in Xs:
            g = conc_up(g, expr, eps.bits[i - 1])
        else:
            g = copy_up(g, expr)
    return g


def mu(eps: Subexpr, sub: Optional[SubSet] = None) -> FnOnSub:
    """nabla at every position, restricted to Sub(t, target(eps))."""
    if sub is None:
        sub = enumerate_sub(eps.expr, eps.target())
    return nabla_X(eps, range(1, len(eps) + 1)).restrict_to(sub)
