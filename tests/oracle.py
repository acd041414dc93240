"""
Reference implementations: the prefix data of a `Subexpr` (its prefixes,
reflections eps^i, roots, M_p sets, positive indices and =._p classes) from
a chain of `Permutation` products, with positivity tested by Coxeter
length; the depth-first enumerator of Sub(t, w) pruned by suffix
reachability, and the meet in the middle on tuples that builds
every head product and inverts it; the M_p and fold tables of `SubAnalysis`
built from one `Subexpr` per member; brute-force versions of the
subexpression graph, frozen sets, connected components, closeness and the
family growth it drives on frozensets of bits, the forest rank and its
cycle witness, the divisibility conditions behind membership and sigma
(raising where a fold leaves a restricted domain), the condition stream
with each submask's folds found by scanning 0..S, the residual constraints,
exact division with two `Polynomial`s per long-division step, root-power
divisibility by repeated exact division, and the substitution test on
exponent tuples after summing the signed parts; module division that scans
every basis element for a divisor and subtracts one new element per step,
with a dense quotient list; the Delta/nabla elements (basis, nabla_X, mu)
built by climbing the copy/concentration ladder one position at a time, and
the basis coefficients found by descending the
copy/restriction/divided-difference ladder; the pairing summed over every
member, with the roots of one `Subexpr` each; the localization of a pure
tensor member by member, the polynomial product with exponents summed by a
generator, the whole polynomial ring on exponent tuples (`TuplePoly`), the
row reduction of linear forms on `Fraction` rows; and
Buchberger completion with dense representation tracking followed by a
second pass that reduces every S-pair of the finished basis again for its
syzygies, and the free resolution on those dense syzygies, minimised by
unit cancellation on dense matrices that rescans from the lowest level
after every pivot; and the Hilbert-series numerator of a leading-term
module by the colon-ideal recursion, which any resolution's graded Euler
characteristic must equal, however it was built; pd from the library's
frame with every S-pair reduced and then minimised, the chord labels
of a D-sequence table from each row's `all_M`, the closeness
entry (n_p and candidates) of an M_p row computed afresh for each row and
allowed mask, the frozen mask of `SubAnalysis.frozen` by a loop over every
member, the pairing that multiplies g(eps) h(eps) before `RationalFn`
cancels the roots, and the triple relations of the dual toolkit checked on
every triple.
They multiply `Permutation`s, scan every prefix, fold `Subexpr` objects,
rebuild graphs and edge-list adjacencies, divide polynomials, build a
`Polynomial` per division step, enumerate a prefix domain per ladder step
and reduce every S-pair twice on every call, as the library did before it
keyed polynomials by packed monomials, read prefix data from one walk of
one-line images, enumerated by meet
in the middle, keyed the heads by left action on `bytes` words, found M_p
by one prefix walk per member, grew families on member masks, paired and
checked membership on supports, read these from the cached
`SubSet.analysis()`, tested divisibility by substitution on packed
monomials, listed conditions from per-size fold templates, divided
polynomials and module elements on one coefficient dict, divided by a root
in one linear pass, addressed the values of the basis recursion by member
index, evaluated the nabla products in closed form, read the syzygies from
Buchberger's own reductions, kept the differentials as those sparse rows,
walked the prefix tree once per localization, found pivots
fraction-free, read pd off the frame's shape where no two consecutive
levels share a degree, read the chord labels from the analysis,
read row entries from one table of row shapes per analysis, found frozen
sets by one AND per position, cancelled roots from the factors of a
pairing before multiplying them and skipped the triples that a theta^(h)
without h cannot break; the differential tests compare the two.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, lcm
from operator import add
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from bsbimod import strmod
from bsbimod.coxeter import Permutation, Reflection, ReflExpr, truncate
from bsbimod.dseq import all_chords
from bsbimod.locmod import DecoTree, FnOnSub, unit
from bsbimod.orderalg import (AlgoResult, ClosenessCert, Congruence,
                              ResidualReport, _detect_string)
from bsbimod.polyring import (GradedRank, InvariantError, NotDivisible,
                              Polynomial, RationalFn, act, _clean, _exact,
                              _ratio)
from bsbimod.strmod import (FreeModElem, FreeModule, ModOrder, _mono_lcm,
                            _mono_sub)
from bsbimod.subexpr import (Subexpr, SubSet, SubGraph, enumerate_sub,
                             rel_card, _indices, _positions, _prefix_walk,
                             _root)

Bits = Tuple[int, ...]


def prefixes(eps: Subexpr) -> Tuple[Permutation, ...]:
    """(eps^{<1}, ..., eps^{<m+1}) as a chain of `Permutation` products."""
    out = [Permutation.identity(eps.expr.n)]
    for r, bit in zip(eps.expr.entries, eps.bits):
        out.append(out[-1] * r.as_permutation() if bit else out[-1])
    return tuple(out)


def refls(eps: Subexpr) -> Tuple[Reflection, ...]:
    """(eps^1, ..., eps^m), eps^i = eps^{<i} t_i (eps^{<i})^{-1}."""
    return tuple(u.conjugate_reflection(r)
                 for u, r in zip(prefixes(eps), eps.expr.entries))


def roots_before(eps: Subexpr) -> Tuple[Polynomial, ...]:
    """(eps^{->1}, ..., eps^{->m}), eps^{->i} = eps^{<i}(alpha_{t_i})."""
    return tuple(act(u.images, r.root())
                 for u, r in zip(prefixes(eps), eps.expr.entries))


def roots_after(eps: Subexpr) -> Tuple[Polynomial, ...]:
    """(eps^{<-1}, ..., eps^{<-m}), eps^{<-i} = eps^{<=i}(alpha_{t_i})."""
    return tuple(act(u.images, r.root())
                 for u, r in zip(prefixes(eps)[1:], eps.expr.entries))


def all_M(eps: Subexpr) -> Dict[Reflection, Tuple[int, ...]]:
    """Every nonempty M_p(eps), keyed by p in the order p first occurs."""
    out: Dict[Reflection, Tuple[int, ...]] = {}
    for i, p in enumerate(refls(eps), 1):
        out[p] = out.get(p, ()) + (i,)
    return out


def sorted_M(eps: Subexpr) -> List[Tuple[Reflection, Tuple[int, ...]]]:
    """The items of `all_M`, sorted by p."""
    return sorted(all_M(eps).items(), key=lambda kv: (kv[0].i, kv[0].j))


def balance(eps: Subexpr):
    """`subexpr.balance` with each index tested by the definition: i is
    positive iff (eps^{<i} t_i).length() < eps^{<i}.length()."""
    pos, neg = [], []
    for i, (u, r) in enumerate(zip(prefixes(eps), eps.expr.entries), 1):
        drop = (u * r.as_permutation()).length() < u.length()
        (pos if drop else neg).append(i)
    balanced = all(min(Mp) not in pos for Mp in all_M(eps).values())
    return tuple(pos), tuple(neg), balanced


def _even_subsets(X: Sequence[int]):
    X = sorted(X)
    k = len(X)
    for mask in range(2 ** k):
        if bin(mask).count("1") % 2 == 0:
            yield tuple(X[i] for i in range(k) if (mask >> i) & 1)


def _all_subsets(X: Sequence[int]):
    X = sorted(X)
    k = len(X)
    for mask in range(2 ** k):
        yield tuple(X[i] for i in range(k) if (mask >> i) & 1)


def equiv_class(eps: Subexpr, p: Reflection, target_restricted: bool
                ) -> SubSet:
    """`subexpr.equiv_class` from the subsets of M_p listed one by one."""
    Mp = all_M(eps).get(p, ())
    gen = _even_subsets(Mp) if target_restricted else _all_subsets(Mp)
    tgt = prefixes(eps)[-1] if target_restricted else None
    return SubSet(eps.expr, tgt, sorted({eps.fold(X).bits for X in gen}))


def target_members(t: ReflExpr, w) -> Tuple[Bits, ...]:
    """
    The members of Sub(t, w), in lexicographic order, by a depth-first scan
    over the 2^m bit choices pruned with suffix reachability: the prefix u
    extends to w iff u^{-1} w is a product of some subset of the remaining
    reflections.
    """
    n, m = t.n, len(t)
    trans = [(r.i - 1, r.j - 1) for r in t.entries]
    target = tuple(v - 1 for v in w.images)
    identity = tuple(range(n))

    # reachable[i] = set of products of subsets of trans[i:], as tuples
    reachable = [None] * (m + 1)
    reachable[m] = {identity}
    for i in range(m - 1, -1, -1):
        a, b = trans[i]
        cur = set(reachable[i + 1])
        for s in reachable[i + 1]:
            # left-multiply by the transposition (a b): swap the values a, b
            cur.add(tuple(b if x == a else a if x == b else x for x in s))
        reachable[i] = cur

    out = []
    prefix = list(range(n))  # running prefix product, one-line
    bits = []

    def residual():
        # (prefix^{-1} target) as a tuple
        inv = [0] * n
        for x in range(n):
            inv[prefix[x]] = x
        return tuple(inv[target[x]] for x in range(n))

    def dfs(i):
        if i == m:
            if residual() == identity:
                out.append(tuple(bits))
            return
        if residual() not in reachable[i]:
            return
        # bit 0 first for lexicographic output order
        bits.append(0)
        dfs(i + 1)
        a, b = trans[i]
        # right-multiply the prefix by (a b): swap the entries at a and b
        prefix[a], prefix[b] = prefix[b], prefix[a]
        bits[-1] = 1
        dfs(i + 1)
        prefix[a], prefix[b] = prefix[b], prefix[a]
        bits.pop()

    dfs(0)
    return tuple(out)


def _subproducts(n: int, trans) -> list:
    """(bits, product) over all 0/1 choices on `trans`, in lexicographic
    order on bits.  `trans` lists 0-based (i, j) pairs; the product
    t_1^{b_1} ... t_k^{b_k} is a 0-based one-line image tuple."""
    out = [((), tuple(range(n)))]
    for a, b in trans:
        nxt = []
        for bits, p in out:
            nxt.append((bits + (0,), p))
            q = list(p)
            q[a], q[b] = q[b], q[a]  # right-multiply by (a b)
            nxt.append((bits + (1,), tuple(q)))
        out = nxt
    return out


def meet_in_the_middle(n: int, trans, target) -> list:
    """
    The bit tuples, in lexicographic order, whose subproduct of `trans` is
    `target` (a 0-based one-line image tuple), by meet in the middle on
    tuples: the tail half's choices are grouped by product, and each head
    choice u, in order, is completed by the tails whose product is
    u^{-1} target, found by multiplying out u and inverting it.
    """
    k = len(trans) // 2
    tails: Dict[Tuple[int, ...], list] = {}
    for bits, p in _subproducts(n, trans[k:]):
        tails.setdefault(p, []).append(bits)
    out = []
    inv = [0] * n
    for head, p in _subproducts(n, trans[:k]):
        for x, y in enumerate(p):
            inv[y] = x
        for tail in tails.get(tuple(inv[y] for y in target), ()):
            out.append(head + tail)
    return out


def analysis_tables(sub: SubSet):
    """(per_p, adj) of `SubAnalysis`: one `Subexpr` per member, its M_p
    sets from `all_M` through `Permutation` products and
    conjugated reflections, and the folds looked up by position mask."""
    masks = tuple(sum(1 << k for k, b in enumerate(bits) if b)
                  for bits in sub.members)
    by_mask = {mk: i for i, mk in enumerate(masks)}
    adj = [0] * len(sub.members)
    per_p = []
    for i, bits in enumerate(sub.members):
        rows = []
        for p, Mp in sorted_M(Subexpr(sub.expr, bits)):
            size = 1 << len(Mp)
            pos = [0] * size
            folds = [-1] * size
            for S in range(1, size):
                low = S & -S
                pos[S] = pos[S ^ low] | 1 << (Mp[low.bit_length() - 1] - 1)
                j = folds[S] = by_mask.get(masks[i] ^ pos[S], -1)
                if j >= 0 and not S.bit_count() % 2:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            folds[0] = i
            rows.append((p, Mp, tuple(folds)))
        per_p.append(tuple(rows))
    return tuple(per_p), tuple(adj)


def graph(Phi: SubSet) -> SubGraph:
    members = set(Phi.members)
    edges: Dict[Tuple[Bits, Bits], Tuple[Reflection, Tuple[int, ...]]] = {}
    for bits in Phi.members:
        eps = Subexpr(Phi.expr, bits)
        for p, Mp in sorted_M(eps):
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


def frozen_mask(an, i: int, X: int) -> int:
    """`SubAnalysis.frozen` by a loop over every member: the members whose
    position mask agrees with member i's on the positions of X."""
    out = 0
    for j, mj in enumerate(an.masks):
        if not (an.masks[i] ^ mj) & X:
            out |= 1 << j
    return out


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


def _mask_candidates_plain(F: List[int], np: int, Mp: Tuple[int, ...]
                           ) -> Tuple[Tuple[int, ...], ...]:
    """`_candidates_plain` on the submasks F of M_p, giving positions."""
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
    return tuple(sorted(out))


def row_entry(p, Mp: Tuple[int, ...], reach, allowed: int, mode: str):
    """(p, M_p, n_p, candidates) of one M_p row with `reach` as
    `SubAnalysis.reach` gives it, given `allowed`, the members Phi u {eps}
    may fold into, computed for this row and mask alone."""
    F = [S for S, r in enumerate(reach) if r is not None and not r & ~allowed]
    np = max(S.bit_count() for S in F)
    if mode == "plain":
        return p, Mp, np, _mask_candidates_plain(F, np, Mp)
    return p, Mp, np, tuple(tuple(sorted(c))
                            for c in combinations(sorted(Mp), np - 1))


def closeness(sub: SubSet, Phi, eps: Subexpr, mode: str = "plain"):
    phi_bits = frozenset(tuple(b) for b in
                         (Phi.members if isinstance(Phi, SubSet) else Phi))
    if eps.bits in phi_bits:
        raise ValueError("eps must not lie in Phi")
    allM = sorted_M(eps)
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


def family_growth(t: ReflExpr, w, mode: str, max_family: Optional[int] = None,
                  greedy: bool = False) -> AlgoResult:
    """The family growth of `algorithm1` ("plain") or `algorithm2` ("con")
    on frozensets of bits, driven by `closeness` above: the families of a
    step visited in sorted order, each member tried in lexicographic order,
    with the same trace, increments, last additions, rank-mismatch check,
    greedy stop and family cap."""
    sub = enumerate_sub(t, w)
    subexprs = sub.subexprs()
    msub = len(sub)
    trace = [{frozenset(): GradedRank.constant(0)}]
    increments = [{frozenset(): set()}]
    last_additions = []
    for k in range(msub):
        nxt, incs = {}, {}
        for phi, P in sorted(trace[k].items(), key=lambda kv: sorted(kv[0])):
            for eps in subexprs:
                if eps.bits in phi:
                    continue
                cert = closeness(sub, phi, eps, mode)
                if cert is None:
                    continue
                newphi = phi | {eps.bits}
                rank = P + GradedRank.v_power(-cert.dist)
                if nxt.setdefault(newphi, rank) != rank:
                    raise InvariantError(f"rank mismatch at {sorted(newphi)}")
                incs.setdefault(newphi, set()).add(cert.dist)
                if k == msub - 1:
                    last_additions.append((phi, eps.bits, cert.dist))
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
    P = next(iter(trace[-1].values())) if mode == "con" else None
    return AlgoResult("completed", msub, trace, P, increments, last_additions)


def sigma(g: FnOnSub, eps: Subexpr, X: Sequence[int], variant: str = "full"
          ) -> Polynomial:
    X = sorted(set(X))
    if X:
        at = refls(eps)
        ps = {at[x - 1] for x in X}
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
    the =._p class action, in lexicographic order.  ValueError at the first
    (eps, p, X) one of whose folds leaves the domain."""
    seen = set()
    for bits in g.domain.members:
        eps = Subexpr(g.domain.expr, bits)
        for p, Mp in sorted_M(eps):
            for X in _all_subsets(Mp):
                if not X:
                    continue
                folds = (_all_subsets(X) if variant == "full"
                         else _even_subsets(X))
                reached = [eps.fold(Y).bits for Y in folds]
                if any(b not in g.domain for b in reached):
                    raise ValueError("a fold of the subexpression leaves "
                                     "the set")
                rep = min(reached)
                key = (p, X, rep)
                if key in seen:
                    continue
                seen.add(key)
                yield eps, p, X


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g by long division with two new `Polynomial`s per
    step, the quotient term times g and the new remainder; raises
    NotDivisible."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    n = f.n
    gexp, gc = g.leading()
    quo: dict = {}
    rem = f
    while not rem.is_zero():
        rexp, rc = rem.leading()
        diff = tuple(a - b for a, b in zip(rexp, gexp))
        if any(d < 0 for d in diff):
            raise NotDivisible(f"{f} is not divisible by {g}")
        c = Fraction(rc, gc)
        quo[diff] = quo.get(diff, Fraction(0)) + c
        rem = rem - Polynomial(n, {diff: c}) * g
    return Polynomial(n, quo)


def try_exact_div(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


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


def fold_terms(folds: Sequence[int], S: int, even: bool
               ) -> Tuple[Tuple[int, int], ...]:
    """(j, sign) over the submasks Y of S, found by scanning 0..S,
    increasing and even only if `even`: j is folds[Y] and sign is
    (-1)^{|Y|_S}.  ValueError if a fold leaves the set."""
    odd = sum(1 << b for b in list(_indices(S))[::-2])  # from the top
    out = []
    for Y in range(S + 1):
        if Y & ~S or even and Y.bit_count() % 2:
            continue
        j = folds[Y]
        if j < 0:
            raise ValueError("a fold of the subexpression leaves the set")
        out.append((j, -1 if (Y & odd).bit_count() % 2 else 1))
    return tuple(out)


def generate_conditions(per_p, even: bool):
    """`SubAnalysis.conditions` from the analysis's `per_p`, with the terms
    and X of every submask built on their own."""
    seen = set()
    for i, rows in enumerate(per_p):
        for p, Mp, folds in rows:
            for S in range(1, len(folds)):
                terms = fold_terms(folds, S, even)
                X = _positions(Mp, S)
                key = (p, X, min(j for j, _ in terms))
                if key not in seen:
                    seen.add(key)
                    yield i, p, X, terms


def integer_terms(polys: Sequence[Polynomial]) -> list:
    """The coefficient dicts of `polys`, all scaled by the lcm of their
    denominators, so that every coefficient is an int."""
    den = lcm(*(c.denominator for f in polys for c in f.terms.values()))
    return [{x: c.numerator * (den // c.denominator)
             for x, c in f.exp_terms().items()} for f in polys]


def root_power_divides(terms: Dict[tuple, int], a: int, b: int,
                       k: int) -> bool:
    """Whether (e_a - e_b)^k divides the polynomial with integer
    coefficients `terms` (0-based a != b), by substituting e_a = e_b + s on
    exponent tuples: the s^r coefficient of c*e^x is comb(x_a, r)*c times
    e^x with x_a -> 0, x_b -> x_b + x_a - r, keyed by (r, tuple)."""
    sums: dict = {}
    for x, c in terms.items():
        xa, xb = x[a], x[b]
        rest = list(x)
        rest[a] = 0
        for r in range(min(k, xa + 1)):
            rest[b] = xb + xa - r
            key = (r, tuple(rest))
            sums[key] = sums.get(key, 0) + comb(xa, r) * c
    return not any(sums.values())


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
        for p, Mp in sorted_M(eps):
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


def _extend_domain(g: FnOnSub, t: ReflExpr) -> SubSet:
    if truncate(t) != g.domain.expr:
        raise ValueError("expression is not a one-step extension")
    if g.domain.target is not None:
        raise ValueError("lifting operators act on full domains Sub(t)")
    return enumerate_sub(t, "all")


def copy_up(g: FnOnSub, t: ReflExpr) -> FnOnSub:
    """(g Delta)(eps) = g(eps')."""
    dom = _extend_domain(g, t)
    return FnOnSub(dom, {b: g.values[b[:-1]] for b in dom.members})


def restrict_down(g: FnOnSub, e: int) -> FnOnSub:
    """g|_e(eps') = g(eps' u e)."""
    if g.domain.target is not None:
        raise ValueError("restriction acts on full domains Sub(t)")
    dom = enumerate_sub(truncate(g.domain.expr), "all")
    return FnOnSub(dom, {b: g.values[b + (e,)] for b in dom.members})


def divdiff_down(g: FnOnSub, e: int) -> FnOnSub:
    """g down_e(eps') = (g(eps' u e) - g(eps' u ebar)) / (eps' u e)^{->m},
    by long division (`exact_div`), with the root from `roots_before`."""
    t = g.domain.expr
    if g.domain.target is not None:
        raise ValueError("divided difference acts on full domains Sub(t)")
    dom = enumerate_sub(truncate(t), "all")
    values = {}
    for b in dom.members:
        diff = g.values[b + (e,)] - g.values[b + (1 - e,)]
        values[b] = exact_div(diff, roots_before(Subexpr(t, b + (e,)))[-1])
    return FnOnSub(dom, values)


def express_in_basis(g: FnOnSub, tree: Optional[DecoTree] = None
                     ) -> Dict[Tuple[str, ...], Polynomial]:
    """The existence recursion on the ladder: the Delta-branch coefficients
    expand g|_{ebar}, the nabla-branch ones (g - (g|_{ebar})Delta) down_e,
    one enumerated prefix domain and one `FnOnSub` per step."""
    if g.domain.target is not None:
        raise ValueError("express_in_basis needs the full domain Sub(t)")
    if tree is None:
        tree = DecoTree.default(len(g.domain.expr))

    def run(h: FnOnSub, path: Tuple[str, ...]):
        expr = h.domain.expr
        if len(expr) == 0:
            return {(): h.values[()]}
        e = tree.label(path)
        hbar = restrict_down(h, 1 - e)
        coeffsD = run(hbar, path + ("D",))
        v = divdiff_down(h - copy_up(hbar, expr), e)
        coeffsN = run(v, path + ("N",))
        out = {}
        for L, c in coeffsD.items():
            out[L + ("D",)] = c
        for L, c in coeffsN.items():
            out[L + ("N",)] = c
        return out

    return run(g, ())


def conc_up(g: FnOnSub, t: ReflExpr, e: int) -> FnOnSub:
    """(g nabla_e)(eps) = eps^{->m} g(eps') if eps_m = e, else 0."""
    dom = _extend_domain(g, t)
    values = {}
    for b in dom.members:
        if b[-1] == e:
            values[b] = roots_before(Subexpr(t, b))[-1] * g.values[b[:-1]]
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
        sub = enumerate_sub(eps.expr, prefixes(eps)[-1])
    return nabla_X(eps, range(1, len(eps) + 1)).restrict_to(sub)


def inner(g: FnOnSub, h: FnOnSub) -> RationalFn:
    """<g|h> summed over every member: g(eps) h(eps) / o(eps), with the
    roots of o(eps) from `roots_before` of one `Subexpr` per member."""
    total = RationalFn(Polynomial.zero(g.domain.expr.n))
    for bits in g.domain.members:
        num = g.values[bits] * h.values[bits]
        if not num.is_zero():
            eps = Subexpr(g.domain.expr, bits)
            total = total + RationalFn(num, list(roots_before(eps)))
    return total


def inner_by_product(g: FnOnSub, h: FnOnSub) -> RationalFn:
    """`locmod.inner` multiplying g(eps) h(eps) first and leaving the roots
    of o(eps) that divide the product to `RationalFn` to cancel."""
    g._check(h)
    if g.domain.target is None:
        raise ValueError("the inner product lives on Sub(t, w)")
    n = g.domain.expr.n
    common = [b for b, v in g.values.items() if v.terms and h.values[b].terms]
    terms = [RationalFn(g.values[b] * h.values[b],
                        [_root(n, x, y) for x, y in pairs])
             for b, pairs in zip(common, _prefix_walk(g.domain.expr, common))]
    return reduce(add, terms) if terms else RationalFn(Polynomial.zero(n))


def res_tensor(t: ReflExpr, a: Sequence[Polynomial]) -> FnOnSub:
    """prod_i eps^{<i}(a_i), one `Subexpr` and its m + 1 `prefixes` per
    member, the whole product again for each member."""
    m = len(t)
    if len(a) != m + 1:
        raise ValueError(f"need {m + 1} tensor factors, got {len(a)}")
    dom = enumerate_sub(t, "all")
    values = {}
    for bits in dom.members:
        val = Polynomial.one(t.n)
        for u, f in zip(prefixes(Subexpr(t, bits)), a):
            val = val * act(u.images, f)
        values[bits] = val
    return FnOnSub(dom, values)


class TuplePoly:
    """The polynomial ring on exponent tuples, as `polyring.Polynomial` kept
    it before its keys were packed: `terms` maps exponent tuples to nonzero
    ints and non-integral `Fraction`s, a product sums exponents over zip,
    and `exact_div` divides by a root in one pass over groups of terms and
    by anything else with the graded-lex long division."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = n
        self.terms = {tuple(e): _exact(c) for e, c in terms.items()
                      if _exact(c)}

    @staticmethod
    def _of(n: int, terms: dict) -> "TuplePoly":
        return TuplePoly(n, _clean(terms))

    def is_constant(self) -> bool:
        return len(self.terms) < 2 and not any(next(iter(self.terms), ()))

    def leading(self) -> tuple:
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, self.terms[exp]

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return TuplePoly._of(self.n, terms)

    def __neg__(self) -> "TuplePoly":
        return TuplePoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TuplePoly") -> "TuplePoly":
        return self + -other

    def __mul__(self, other: "TuplePoly") -> "TuplePoly":
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return TuplePoly._of(self.n, terms)

    def scale(self, c) -> "TuplePoly":
        return TuplePoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms,
                          key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exp]
            mono = "*".join(f"e{i+1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(exp) if k)
            body = (str(abs(c)) if not mono else mono if abs(c) == 1
                    else f"{abs(c)}*{mono}")
            parts.append(("-" if c < 0 else "+", body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return out + "".join(f" {sign} {body}" for sign, body in parts[1:])

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda i: (sum(i[0]), i[0]),
                       reverse=True)
        return {"n": self.n,
                "terms": [{"exp": list(e), "num": str(c.numerator),
                           "den": str(c.denominator)} for e, c in items]}


def tuple_act(images: Sequence[int], f: TuplePoly) -> TuplePoly:
    terms = {}
    for exp, c in f.terms.items():
        new = [0] * f.n
        for i, k in enumerate(exp):
            new[images[i] - 1] = k
        terms[tuple(new)] = c
    return TuplePoly(f.n, terms)


def tuple_exact_div(f: TuplePoly, g: TuplePoly) -> TuplePoly:
    """f/g on exponent tuples: a root by groups of terms (the sum over a
    group e_x^a e_y^{d-a} must vanish), anything else by the graded-lex
    long division; NotDivisible otherwise."""
    if len(g.terms) == 2:
        (xe, xc), (ye, yc) = g.terms.items()
        if xc == -yc and sum(xe) == 1 and sum(ye) == 1:
            x, y = xe.index(1), ye.index(1)
            groups: dict = {}
            for exp, v in f.terms.items():
                key = list(exp)
                a, key[x], key[y] = key[x], 0, key[x] + key[y]
                groups.setdefault(tuple(key), {})[a] = v
            quo: dict = {}
            for key, col in groups.items():
                exp, d, low, s = list(key), key[y], min(col), 0
                for a in range(max(col), low, -1):
                    s += col.get(a, 0)
                    if s:
                        exp[x], exp[y] = a - 1, d - a
                        quo[tuple(exp)] = _ratio(s, xc)
                if s + col[low]:
                    raise NotDivisible(f"{f} is not divisible by {g}")
            return TuplePoly(f.n, quo)
    gexp, gc = g.leading()
    rest = [(e, c) for e, c in g.terms.items() if e != gexp]
    rem, quo = dict(f.terms), {}
    while rem:
        rexp = max(rem, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(rexp, gexp))
        if any(d < 0 for d in diff):
            raise NotDivisible(f"{f} is not divisible by {g}")
        c = quo[diff] = _ratio(rem.pop(rexp), gc)
        for e, ce in rest:
            x = tuple(a + b for a, b in zip(diff, e))
            v = rem.get(x, 0) - c * ce
            if v:
                rem[x] = v
            else:
                del rem[x]
    return TuplePoly(f.n, quo)


def tuple_divisible_by_power(f: TuplePoly, alpha: TuplePoly, k: int) -> bool:
    """Whether alpha^k divides f, by `root_power_divides` on f's terms
    scaled to ints."""
    (xa, _), (xb, _) = alpha.terms.items()
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = {x: c.numerator * (den // c.denominator)
            for x, c in f.terms.items()}
    return k <= 0 or root_power_divides(ints, xa.index(1), xb.index(1), k)


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """The product term by term, exponents summed by a generator over zip."""
    f._check(g)
    terms: dict = {}
    for e1, c1 in f.exp_terms().items():
        for e2, c2 in g.exp_terms().items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            terms[exp] = terms.get(exp, 0) + c1 * c2
    return Polynomial(f.n, terms)


def linear_rows(forms: Sequence[Polynomial], error: str):
    """The linear forms as `Fraction` rows and the pivot columns of their
    full row reduction over Q."""
    n = forms[0].n if forms else 0
    rows = []
    for f in forms:
        row = [Fraction(0)] * n
        for exp, c in f.exp_terms().items():
            if sum(exp) != 1:
                raise ValueError(error)
            row[exp.index(1)] = Fraction(c)
        rows.append(row)
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pr[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], pr)]
        pivots.append(col)
    return rows, pivots


def reduce_elem(f: FreeModElem, G: Sequence[FreeModElem], order: ModOrder):
    """Full division one coordinate `Polynomial` at a time: the leading
    term of the current element is divided by the first G_k in index order
    whose leading term divides it, and the quotient term times G_k is
    subtracted as a new element.  Returns (dense quotient list, remainder)."""
    n = f.ambient.n_vars
    lead = [(g.leading(order) if not g.is_zero() else None) for g in G]
    qs: List[Dict[tuple, Fraction]] = [dict() for _ in G]
    rem = FreeModElem(f.ambient, {})
    cur = f
    while not cur.is_zero():
        g0, exp0, c0 = cur.leading(order)
        hit = None
        for k, ld in enumerate(lead):
            if ld is None:
                continue
            lg, lexp, lc = ld
            if lg == g0 and all(x <= y for x, y in zip(lexp, exp0)):
                hit = (k, lexp, lc)
                break
        if hit is None:
            # move the leading term to the remainder
            t = FreeModElem(f.ambient, {g0: Polynomial(n, {exp0: c0})})
            rem = rem + t
            cur = cur - t
        else:
            k, lexp, lc = hit
            diff = _mono_sub(exp0, lexp)
            coef = Fraction(c0, lc)
            qs[k][diff] = qs[k].get(diff, 0) + coef
            cur = cur - G[k].mono_mul(diff, coef)
    return [Polynomial(n, q) for q in qs], rem


# S-pairs one level of `free_resolution` may reduce.  The `modules()` draws
# whose resolution ends within five levels reduce at most about ten per
# level; one that reduced 15, 56, 224 and 757 at levels 1-4 ran for
# minutes.
PAIR_BUDGET = 200


@dataclass
class TrackedBasis:
    elements: List[FreeModElem]
    order: ModOrder
    # dense representations of the elements in the original generators
    reps: List[List[Polynomial]]
    n_new: int = 0


def buchberger(gens: Sequence[FreeModElem], order: ModOrder,
               budget: Optional[int] = None) -> TrackedBasis:
    """Buchberger completion keeping the input generators, with a dense
    |G| x len(gens) representation matrix.  RuntimeError once more than
    `budget` S-pairs would be reduced (no limit for None)."""
    gens = [g for g in gens]
    if not gens:
        return TrackedBasis([], order, [], 0)
    n = gens[0].ambient.n_vars
    nz = [k for k, g in enumerate(gens) if not g.is_zero()]
    G = [gens[k] for k in nz]
    reps: List[List[Polynomial]] = []
    for k in nz:
        row = [Polynomial.zero(n) for _ in gens]
        row[k] = Polynomial.one(n)
        reps.append(row)

    def spair_data(i: int, j: int):
        gi, ei, ci = G[i].leading(order)
        gj, ej, cj = G[j].leading(order)
        if gi != gj:
            return None
        lcm = _mono_lcm(ei, ej)
        ui = (_mono_sub(lcm, ei), Fraction(1) / ci)
        uj = (_mono_sub(lcm, ej), Fraction(1) / cj)
        return ui, uj

    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    n_new = reduced = 0
    while pairs:
        i, j = pairs.pop(0)
        sd = spair_data(i, j)
        if sd is None:
            continue
        reduced += 1
        if budget is not None and reduced > budget:
            raise RuntimeError(f"more than {budget} S-pairs to reduce")
        (mi, ci), (mj, cj) = sd
        s = G[i].mono_mul(mi, ci) - G[j].mono_mul(mj, cj)
        quots, rem = reduce_elem(s, G, order)
        if rem.is_zero():
            continue
        # normalize monic
        _, _, lc = rem.leading(order)
        rem = rem.scale_poly(Polynomial.const(n, Fraction(1) / lc))
        row = [Polynomial.zero(n) for _ in gens]
        for col in range(len(gens)):
            mi_p = Polynomial(n, {mi: ci})
            mj_p = Polynomial(n, {mj: cj})
            acc = mi_p * reps[i][col] - mj_p * reps[j][col]
            for k, q in enumerate(quots):
                acc = acc - q * reps[k][col]
            row[col] = acc.scale(Fraction(1) / lc)
        reps.append(row)
        for k in range(len(G)):
            pairs.append((k, len(G)))
        G.append(rem)
        n_new += 1
    return TrackedBasis(G, order, reps, n_new)


def syzygies(gb: TrackedBasis, n_gens: int) -> List[List[Polynomial]]:
    """Every same-position S-pair of the completed basis reduced again; the
    relation is transported densely along the tracked representations.
    Raises InvariantError if the basis fails to reduce an S-pair."""
    G, order, reps = gb.elements, gb.order, gb.reps
    if not G:
        return []
    n = G[0].ambient.n_vars
    out: List[List[Polynomial]] = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            gi, ei, ci = G[i].leading(order)
            gj, ej, cj = G[j].leading(order)
            if gi != gj:
                continue
            lcm = _mono_lcm(ei, ej)
            mi, ui = _mono_sub(lcm, ei), Fraction(1) / ci
            mj, uj = _mono_sub(lcm, ej), Fraction(1) / cj
            s = G[i].mono_mul(mi, ui) - G[j].mono_mul(mj, uj)
            quots, rem = reduce_elem(s, G, order)
            if not rem.is_zero():
                raise InvariantError(
                    "completed basis failed to reduce an S-pair")
            # syzygy of G: ui E_i - uj E_j - sum quots_k E_k
            coeffs = [Polynomial.zero(n) for _ in G]
            coeffs[i] = coeffs[i] + Polynomial(n, {mi: ui})
            coeffs[j] = coeffs[j] - Polynomial(n, {mj: uj})
            for k, q in enumerate(quots):
                coeffs[k] = coeffs[k] - q
            # transport to the original generators
            row = [Polynomial.zero(n) for _ in range(n_gens)]
            for k, ck in enumerate(coeffs):
                if ck.is_zero():
                    continue
                for col in range(n_gens):
                    row[col] = row[col] + ck * reps[k][col]
            out.append(row)
    return [row for row in out if not all(p.is_zero() for p in row)]


def free_resolution(gens: Sequence[FreeModElem], order: ModOrder,
                    max_len: int = 12):
    """The resolution built from the two-pass `buchberger`/`syzygies`
    above: (degrees, diffs), diffs[k] the dense matrix of F_{k+1} -> F_k
    (rows = F_k generators, columns = F_{k+1} generators).  RuntimeError
    after `max_len` levels, or when one level's completion would reduce
    more than `PAIR_BUDGET` S-pairs: on some redundant inputs a level's
    basis grows far beyond anything the checks can wait for."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [[]], []
    n = gens[0].ambient.n_vars
    degrees = [[g.homogeneous_degree() for g in gens]]
    diffs: List[List[List[Polynomial]]] = []
    current = list(gens)
    cur_order = order
    for _ in range(max_len):
        rows = syzygies(buchberger(current, cur_order, PAIR_BUDGET),
                        len(current))
        if not rows:
            return degrees, diffs
        amb = FreeModule(n, tuple(degrees[-1]))
        syz_elems = [FreeModElem(amb, {i: p for i, p in enumerate(row)})
                     for row in rows]
        degrees.append([e.homogeneous_degree() for e in syz_elems])
        diffs.append([[e.coord(i) for e in syz_elems]
                      for i in range(amb.rank)])
        current = syz_elems
        cur_order = ModOrder.standard(amb.rank, n)
    raise RuntimeError(f"resolution not finished within {max_len} steps")


def minimize_resolution(degrees, diffs):
    """Cancel unit entries of the dense matrices above (Gaussian elimination
    for complexes), rescanning from the lowest level after every pivot;
    returns the minimized (degrees, diffs) with no unit entry in any
    differential."""
    degrees = [list(d) for d in degrees]
    diffs = [[list(row) for row in M] for M in diffs]

    def find_unit(M):
        for i, row in enumerate(M):
            for j, p in enumerate(row):
                if not p.is_zero() and p.is_constant():
                    return i, j
        return None

    changed = True
    while changed:
        changed = False
        for k in range(len(diffs)):
            M = diffs[k]
            hit = find_unit(M)
            if hit is None:
                continue
            i0, j0 = hit
            u = M[i0][j0].constant_value()
            n_rows, n_cols = len(M), len(M[0]) if M else 0
            # corrected differential on the complement
            newM = []
            for i in range(n_rows):
                if i == i0:
                    continue
                row = []
                for j in range(n_cols):
                    if j == j0:
                        continue
                    corr = M[i][j] - M[i][j0] * M[i0][j].scale(Fraction(1, u))
                    row.append(corr)
                newM.append(row)
            diffs[k] = newM
            degrees[k] = [d for i, d in enumerate(degrees[k]) if i != i0]
            degrees[k + 1] = [d for j, d in enumerate(degrees[k + 1]) if j != j0]
            # upstream differential: drop row j0
            if k + 1 < len(diffs):
                diffs[k + 1] = [row for j, row in enumerate(diffs[k + 1])
                                if j != j0]
            # downstream differential: drop column i0
            if k - 1 >= 0:
                diffs[k - 1] = [[p for i, p in enumerate(row) if i != i0]
                                for row in diffs[k - 1]]
            changed = True
            break
    # drop trailing empty levels
    while degrees and not degrees[-1]:
        degrees.pop()
        if diffs:
            diffs.pop()
    return degrees, diffs


def hilbert_numerator(basis: Sequence[FreeModElem], order: ModOrder):
    """The numerator, over (1 - t^2)^n_vars, of the Hilbert series of the
    module generated by the leading terms of `basis`, as {degree:
    coefficient} with no zero coefficient; the term m E_g has degree
    2 deg(m) + shift of E_g.  For a Groebner basis this is the Hilbert
    series of the module it generates (Macaulay), so it equals the graded
    Euler characteristic of any graded free resolution of that module.
    The leading monomials of each position generate a monomial ideal I,
    and I contributes 1 minus the numerator of R/I, found by the recursion
    K(J + (m)) = K(J) - t^deg(m) K(J : m)."""
    ideals: Dict[int, List[tuple]] = {}
    for f in basis:
        g, exp, _ = f.leading(order)
        ideals.setdefault(g, []).append(exp)
    total: Dict[int, int] = {}
    for g, monos in ideals.items():
        shift = basis[0].ambient.gen_degrees[g]
        part = {d: -c for d, c in _quotient_numerator(monos).items()}
        part[0] = part.get(0, 0) + 1
        for d, c in part.items():
            total[d + shift] = total.get(d + shift, 0) + c
    return {d: c for d, c in total.items() if c}


def _quotient_numerator(monos: Sequence[tuple]) -> Dict[int, int]:
    """The Hilbert-series numerator of R/I, I generated by `monos`."""
    gens = []
    for m in sorted(set(monos), key=sum):
        if not any(all(a <= b for a, b in zip(u, m)) for u in gens):
            gens.append(m)
    if not gens:
        return {0: 1}
    *rest, m = gens
    out = dict(_quotient_numerator(rest))
    colon = [tuple(max(a - b, 0) for a, b in zip(u, m)) for u in rest]
    for d, c in _quotient_numerator(colon).items():
        d += 2 * sum(m)
        out[d] = out.get(d, 0) - c
    return {d: c for d, c in out.items() if c}


def densify(degrees, diffs, n_vars: int) -> List[List[List[Polynomial]]]:
    """The sparse columns of `strmod.free_resolution` as dense matrices."""
    zero = Polynomial.zero(n_vars)
    return [[[col.get(i, zero) for col in cols] for i in range(len(level))]
            for level, cols in zip(degrees, diffs)]


def pd(gens: Sequence[FreeModElem], order: ModOrder):
    """`strmod.pd` without the degree certificate: every S-pair of every
    level of the library's Schreyer frame reduced
    (`strmod.free_resolution`), then minimised
    (`strmod.minimize_resolution`)."""
    resolution = strmod.free_resolution(gens, order)
    degrees, _ = strmod.minimize_resolution(*resolution)
    return len(degrees) - 1, [sorted(level) for level in degrees]


def triple_relations(thetas: Sequence[FreeModElem], n: int) -> bool:
    """Whether x_k th_{i,j} + x_i th_{j,k} = x_j th_{i,k} holds for every
    theta of `strmod.dual_toolkit` and every triple i < j < k, with each x_v
    built anew for each use."""
    nv = thetas[0].ambient.n_vars
    pairs = list(combinations(range(1, n + 1), 2))
    zero = Polynomial.zero(nv)
    ok = True
    for th in thetas:
        coords = th.coords
        entry = {p: coords.get(k, zero) for k, p in enumerate(pairs)}
        for i, j, k in combinations(range(1, n + 1), 3):
            lhs = (Polynomial.var(nv, k) * entry[(i, j)]
                   + Polynomial.var(nv, i) * entry[(j, k)])
            if lhs != Polynomial.var(nv, j) * entry[(i, k)]:
                ok = False
    return ok


def chord_labels(table):
    """(label_first, label_second, t_of, alpha) of `dseq.chord_label` on
    the solution table `table`, with each row's two doubled reflections
    found through `all_M`."""
    N = 2 * table.n - 1
    chords = {c.members(): c for c in all_chords(table.n)}
    first, second, t_of = {}, {}, {}
    for l, eps in table.rows.items():
        (A, p), (B, q) = [(chords[frozenset(x % N for x in M)], p)
                          for p, M in all_M(eps).items() if len(M) == 2]
        if (A + 1).members() != B.members():
            (A, p), (B, q) = (B, q), (A, p)
        first[A], second[B], t_of[A], t_of[B] = l, l, p, q
    return first, second, t_of, {A: p.root() for A, p in t_of.items()}
