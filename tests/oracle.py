"""
Brute-force reference implementations of the subexpression graph, frozen
sets, connected components and closeness.  They fold `Subexpr` objects and
rebuild graphs on every call, as the library did before it read these from
the cached `SubSet.analysis()`; the differential tests compare the two.
"""

from itertools import combinations, product
from typing import Dict, FrozenSet, List, Sequence, Tuple

from bsbimod.coxeter import Reflection
from bsbimod.orderalg import ClosenessCert
from bsbimod.subexpr import (Subexpr, SubSet, SubGraph, components,
                             _even_subsets)

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
