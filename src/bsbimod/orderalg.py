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
from functools import cmp_to_key
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .polyring import Polynomial, GradedRank, InvariantError, _linear_rows
from .coxeter import Permutation, Reflection, ReflExpr
from .subexpr import (Subexpr, SubSet, SubAnalysis, enumerate_sub, components,
                      con_component, balance, _indices)
from .locmod import FnOnSub, indicator, _nabla_product

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class ClosenessCert:
    """Certificate that eps is (con-)close to Phi: the index set Y, the
    per-reflection data (M_p, n_p, Y cap M_p), and dist = 2|Y|.  Built from
    a `_closeness` entry for the callers that return it, not in growth."""
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


def _candidates_plain(F: List[int], np: int) -> List[int]:
    """Submasks cotransversal to F: size np-1, contained in a maximum member
    Z with every X in F satisfying |X \\ Z| <= 1, and containing the core
    union of X cap Z over X not inside Z."""
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
            out.add(Z & ~(1 << b))
    return sorted(out, key=lambda S: list(_indices(S)))


def _row_entry(shapes: dict, p, Mp: Tuple[int, ...], reach, allowed: int,
               mode: str) -> tuple:
    """(p, M_p, n_p, candidates) of one M_p row, given `allowed`, the
    members Phi u {eps} may fold into.  n_p and the candidates as submasks
    depend only on |M_p|, the mode and the mask F of the S with reach[S]
    inside `allowed`; they come from `shapes` (`SubAnalysis.row_shapes`),
    with M_p's table of position masks (bit x - 1 for x) to map them."""
    F = sum(1 << S for S, r in enumerate(reach)
            if r is not None and not r & ~allowed)
    shape = shapes.get((F, len(Mp), mode))
    if shape is None:
        subs = list(_indices(F))
        np = max(S.bit_count() for S in subs)
        shape = shapes[F, len(Mp), mode] = np, tuple(
            _candidates_plain(subs, np) if mode == "plain" else
            (sum(1 << b for b in c)
             for c in combinations(range(len(Mp)), np - 1)))
    np, cands = shape
    pos = shapes.get(Mp)
    if pos is None:     # pos[S]: the position mask of the submask S
        pos = shapes[Mp] = [0]
        for x in Mp:
            pos += [q | 1 << (x - 1) for q in pos]
    return p, Mp, np, tuple([pos[S] for S in cands])


def _closeness_memo(an: SubAnalysis, i: int, mode: str) -> tuple:
    """The memo of member i in `mode`, stored in `an.closeness_memo`:

    - U, the members that the even folds of i reach;
    - per M_p row of `an.per_p[i]`, (U_row, p, M_p, reach, entries):
      reach[S] is the mask of the members f_Y eps over even Y inside S, or
      None when one of them leaves the set, U_row is the part of U that row
      reaches, and entries maps a row mask allowed & U_row to its
      `_row_entry`;
    - the `_closeness_table` per key allowed & U.

    `an.row_shapes` maps (F, |M_p|, mode), F a row's admissible submasks,
    to (n_p, candidates as submasks), and M_p to the position masks of its
    submasks.
    """
    outside = 1 << len(an.members)     # marks a fold leaving the set
    rows = []
    U = 0
    for p, Mp, folds in an.per_p[i]:
        reach = [0 if S.bit_count() % 2 else outside if j < 0 else 1 << j
                 for S, j in enumerate(folds)]
        for b in range(len(Mp)):       # OR over the subsets of S
            bit = 1 << b
            for S in range(len(reach)):
                if S & bit:
                    reach[S] |= reach[S ^ bit]
        U_row = 0
        for S, r in enumerate(reach):
            if r & outside:
                reach[S] = None
            else:
                U_row |= r
        rows.append((U_row, p, Mp, tuple(reach), {}))
        U |= U_row
    memo = an.closeness_memo[(i, mode)] = (U, tuple(rows), {})
    return memo


def _closeness_table(shapes: dict, memo: tuple, key: int, mode: str) -> tuple:
    """The table of key = allowed & U, built from the rows' entries on
    first use: (choices, tried, source).  choices lists the row entries;
    tried holds the candidate products taken from the iterator `source` so
    far as `_closeness` entries, the mask being the frozen set of the
    product, or its connected component through the member in con mode."""
    _, rows, tables = memo
    choices = []
    for U_row, p, Mp, reach, entries in rows:
        rk = key & U_row
        entry = entries.get(rk)
        if entry is None:
            entry = entries[rk] = _row_entry(shapes, p, Mp, reach, rk, mode)
        choices.append(entry)
    table = tables[key] = (choices, [],
                           product(*(entry[3] for entry in choices)))
    return table


def closeness(sub: SubSet, Phi, eps: Subexpr, mode: str = "plain"
              ) -> Optional[ClosenessCert]:
    """
    Whether eps (in Sub(t,w), not in Phi) is close ("plain") or con-close
    ("con") to Phi.  Condition (a): |Y cap M_p(eps)| = n_p(Phi,eps) - 1 for
    every p with M_p nonempty; condition (b)/(b'): the frozen set (or its
    connected component through eps) avoids Phi.  Returns the first valid
    certificate in canonical order, or None.  ValueError if mode is neither
    "plain" nor "con", or if eps or a member of Phi is not in Sub(t, w);
    `_closeness` decides on member indices.
    """
    _check_mode(mode)
    an = sub.analysis()
    i = an.require(eps)
    phi = an.mask_of(Phi.members if isinstance(Phi, SubSet) else Phi)
    if phi >> i & 1:
        raise ValueError("eps must not lie in Phi")
    return _cert(_closeness(an, i, phi, mode), mode)


def _check_mode(mode: str):
    if mode not in ("plain", "con"):
        raise ValueError(f"unknown mode {mode!r}: 'plain' or 'con'")


def _cert(entry: Optional[tuple], mode: str) -> Optional[ClosenessCert]:
    """The certificate of an entry of `_closeness`; None for None."""
    return entry and ClosenessCert(
        Y=tuple(b + 1 for b in _indices(sum(entry[3]))), dist=entry[1],
        per_p=tuple((p, Mp, np, tuple(b + 1 for b in _indices(Yp)))
                    for (p, Mp, np, _), Yp in zip(entry[2], entry[3])),
        mode=mode)


def _closeness(an: SubAnalysis, i: int, phi: int, mode: str
               ) -> Optional[tuple]:
    """`closeness` of member i of `an` to the member mask phi, without i, as
    the entry (mask, dist, row entries, their disjoint position masks, whose
    sum is Y) of the first valid product, or None.  Phi_p(eps), the X inside
    M_p(eps) whose unfrozen set {f_Y eps : Y even inside X} lies in
    Phi u {eps}, is read from `an`, as is the graph the con mode searches.
    An M_p row's candidates depend on Phi only through the members that
    row's folds reach, so they are looked up once per intersection with
    those, and computed once per row shape of the analysis; the candidate
    products, with the entries tried so far, are kept once per
    intersection of Phi u {eps} with the members that i's folds reach
    (`_closeness_memo`)."""
    memo = an.closeness_memo.get((i, mode)) or _closeness_memo(an, i, mode)
    U, _, tables = memo
    key = (phi | 1 << i) & U
    choices, tried, source = (tables.get(key) or _closeness_table(
        an.row_shapes, memo, key, mode))
    for entry in tried:
        if not entry[0] & phi:
            return entry
    for combo in source:
        Y = sum(combo)
        mask = an.frozen(i, Y)
        if mode == "con":
            mask = an.component(i, mask)
        entry = (mask, 2 * Y.bit_count(), choices, combo)
        tried.append(entry)
        if not mask & phi:
            return entry
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
                          greedy: bool = False,
                          sub: Optional[SubSet] = None) -> AlgoResult:
    if max_family is not None and max_family < 0:
        raise ValueError(f"max_family {max_family} must not be negative")
    if sub is None:
        sub = enumerate_sub(t, w)
    elif sub.expr != t or sub.target != w:
        raise ValueError("sub is not Sub(t, w)")
    an = sub.analysis()
    msub = len(sub)
    trace: List[Dict[FrozenSet[Bits], GradedRank]] = [
        {frozenset(): GradedRank.constant(0)}]
    increments: List[Dict[FrozenSet[Bits], set]] = [{frozenset(): set()}]
    last_additions: List[Tuple[FrozenSet[Bits], Bits, int]] = []
    level = {0: (frozenset(), {}, set())}  # mask: (Phi, P.coeffs, cdists)
    width = f"0{msub}b"
    for k in range(msub):
        nxt: Dict[int, Tuple[FrozenSet[Bits], dict, set]] = {}
        # sorted(phi), as members are in lexicographic order and a level's
        # families have one size: decreasing reversed binary masks
        for phi_mask in sorted(level, key=lambda mk: format(mk, width)[::-1],
                               reverse=True):
            phi, base, _ = level[phi_mask]
            for i in _indices(~phi_mask & (1 << msub) - 1):
                entry = _closeness(an, i, phi_mask, mode)
                if entry is None:
                    continue
                dist = entry[1]
                coeffs = dict(base)         # P + v^{-dist}
                coeffs[-dist] = coeffs.get(-dist, 0) + 1
                old = nxt.get(phi_mask | 1 << i)
                if old is None:
                    old = nxt[phi_mask | 1 << i] = (phi | {an.members[i]},
                                                    coeffs, set())
                elif old[1] != coeffs:
                    # equal families must carry equal graded ranks
                    raise InvariantError(
                        f"rank mismatch at {sorted(old[0])}: "
                        f"{GradedRank(old[1])} vs {GradedRank(coeffs)}")
                old[2].add(dist)
                if k == msub - 1:
                    last_additions.append((phi, an.members[i], dist))
                if greedy:
                    break
            if greedy and nxt:
                break
        if not nxt:
            return AlgoResult("premature", k, trace, None, increments,
                              last_additions)
        ranks = {}
        for fam, coeffs, _ in nxt.values():  # positive ints, taken uncopied
            ranks[fam] = rank = object.__new__(GradedRank)
            rank.coeffs = coeffs
        incs = {fam: dists for fam, _, dists in nxt.values()}
        if max_family is not None and len(nxt) > max_family:
            return AlgoResult("cap", k + 1, trace + [ranks], None,
                              increments + [incs], last_additions)
        trace.append(ranks)
        increments.append(incs)
        level = nxt
    final = trace[-1]
    P = next(iter(final.values()))
    return AlgoResult("completed", msub, trace, P, increments, last_additions)


def algorithm1(t: ReflExpr, w: Permutation, max_family: Optional[int] = None,
               greedy: bool = False, sub: Optional[SubSet] = None
               ) -> AlgoResult:
    """Family growth by plain closeness, on sub = Sub(t, w) when it is
    already enumerated; completion certifies graded freeness (the families
    are exactly the perfectly orderable subsets)."""
    res = _run_family_algorithm(t, w, "plain", max_family, greedy, sub)
    if res.outcome == "completed":
        res.P = None  # plain algorithm does not report ranks
    return res


def algorithm2(t: ReflExpr, w: Permutation, max_family: Optional[int] = None,
               greedy: bool = False, sub: Optional[SubSet] = None
               ) -> AlgoResult:
    """Family growth by con-closeness with graded-rank tracking, on
    sub = Sub(t, w) when it is already enumerated."""
    return _run_family_algorithm(t, w, "con", max_family, greedy, sub)


def chain_run(t: ReflExpr, w: Permutation, order: Sequence[Subexpr],
              mode: str = "con"):
    """
    Run a single chain of the family algorithm along a prescribed order of
    all of Sub(t, w).  Returns (certs, P); raises if some step is not
    (con-)close to its predecessors, and ValueError if mode is neither
    "plain" nor "con".  A successful chain run is a completing execution of
    the corresponding algorithm.
    """
    _check_mode(mode)
    sub = enumerate_sub(t, w)
    if sorted(eps.bits for eps in order) != sorted(sub.members):
        raise ValueError("order must list Sub(t, w) exactly")
    an = sub.analysis()
    phi = 0
    certs = []
    P = GradedRank.constant(0)
    for eps in order:
        i = an.require(eps)
        entry = _closeness(an, i, phi, mode)
        if entry is None:
            raise InvariantError(f"chain step failed at {eps}")
        certs.append(_cert(entry, mode))
        P = P + GradedRank.v_power(-entry[1])
        phi |= 1 << i
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
    subexprs, infos = {}, {}
    for bits in sub.members:
        eps = subexprs[bits] = Subexpr(t, bits)
        pos, _, bal = balance(eps)
        if not bal:
            return "NotBalanced", eps
        infos[bits] = set(pos)

    def cmp(a: Bits, b: Bits) -> int:
        if a == b:
            return 0
        i = max(k + 1 for k in range(len(a)) if a[k] != b[k])
        # b <<< a iff i is positive for a
        return 1 if i in infos[a] else -1

    ordered = [subexprs[b] for b in sorted(sub.members, key=cmp_to_key(cmp))]
    an = sub.analysis()
    dists = []
    phi = 0
    for eps in ordered:
        entry = _closeness(an, an.index[eps.bits], phi, "plain")
        if entry is None:
            raise InvariantError(f"perfect-order step failed at {eps}")
        expected = 2 * len(infos[eps.bits])
        if entry[1] != expected:
            raise InvariantError(
                f"dist {entry[1]} != 2*#positive {expected} at {eps}")
        dists.append(entry[1])
        phi |= 1 << an.index[eps.bits]
    return ordered, dists


# -- acyclic case ------------------------------------------------------------

def _find_cycle(an: SubAnalysis) -> Optional[List[Bits]]:
    """A cycle of the graph of the analysed set, or None: a depth-first
    search from each unvisited member, neighbours in index order."""
    parent: Dict[int, Optional[int]] = {}
    adj = an.adj
    for start in range(len(an.members)):
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, None)]
        while stack:
            v, par = stack.pop()
            for u in _indices(adj[v]):
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
    _, pivots = _linear_rows(roots, "not a linear form")
    return len(pivots) == len(roots)


def residual_constraints(sub: SubSet, Phi) -> ResidualReport:
    """
    The constraint system cutting out X_w(t, Phi) on the free positions
    sub \\ Phi, sub = Sub(t,w), with every binding even-variant
    divisibility condition reduced to a congruence; detects the
    string-module pattern (a path of pairwise congruences modulo distinct
    roots with both ends forced to 0).  ValueError if a member of Phi is
    not in Sub(t, w).
    """
    an = sub.analysis()
    phi = an.mask_of(Phi.members if isinstance(Phi, SubSet) else Phi)
    free = tuple(b for j, b in enumerate(an.members) if not phi >> j & 1)
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
