"""
Subexpressions of a reflection expression: prefix products, position sets
M_p, folding, enumeration of Sub(t) and Sub(t, w), relative cardinality,
the per-reflection equivalence classes, the graphs Gr(Phi), frozen and
unfrozen subexpression sets, and balancedness.

Sub(t, w) is enumerated by meet in the middle: the subproducts of the tail
half of t are grouped by permutation, and each choice u on the head half,
in lexicographic order, is completed by the tails whose product is
u^{-1} w.  The key u^{-1} w is computed by left action on w, one
transposition of the head at a time, with no product u and no inversion.
Members come out as bit tuples in lexicographic order.  Sets the library
builds from members it ordered itself (enumeration, `restrict`, the
equivalence classes, frozen sets and components) skip the order check of
the public `SubSet` constructor (`SubSet._of`).

A `SubSet` is analysed once, on first use (`SubSet.analysis`): member
indices and bit masks, each member's M_p sets and their folds, and the
adjacency of its full graph.  The graph, frozen-set and connected-component
functions, closeness in `orderalg`, and the divisibility conditions that
membership and the residual constraints check, read from that analysis as
integer bitmasks over member indices.  The roots eps^{->k} of every
member have their own cached table (`SubSet.roots`), which does not build
the analysis; both read one walk of the one-line prefix products per
member (`_prefix_walk`).  A `Subexpr` reads eps^i, its roots, M_p sets,
dotted expression and `balance` signs from that walk too, and `prefix` and
`target` (`locmod.mu`'s) swap one-line images per set bit; the chain of
`Permutation` products is only the tests' reference (`tests/oracle.py`).

A subexpression is a 0/1 sequence bound to its reflection expression; two
subexpressions over different expressions are never equal.
"""

__all__ = [
    "Subexpr", "SubSet", "SubAnalysis", "SubGraph", "ALL_CAP",
    "GRAPH_CAP", "rel_card", "enumerate_sub", "equiv_class", "graph",
    "components", "frozen_set", "unfrozen_set", "con_component", "balance",
    "balanced_set", "ENUM_IMPLEMENTATION",
]

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from typing import Dict, Optional, Sequence, Tuple, Union

from .polyring import Polynomial
from .coxeter import Permutation, Reflection, ReflExpr, _root

ENUM_IMPLEMENTATION = "python"

ALL_CAP = 2 ** 20  # cap on the members of Sub(t), and on the tail table
GRAPH_CAP = 1024  # cap on the vertices of a graph

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class Subexpr:
    """A 0/1 sequence bound to a reflection expression."""
    expr: ReflExpr
    bits: Bits

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.bits) != len(self.expr):
            raise ValueError("bits length mismatch")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")

    def __len__(self) -> int:
        return len(self.bits)

    def __repr__(self) -> str:
        return f"Subexpr({''.join(map(str, self.bits))})"

    # -- prefix data -------------------------------------------------------

    def _pair(self, i: int) -> Tuple[int, int]:
        """The i-th pair (x, y) of `_prefix_walk`, walked once and cached:
        eps^i = (x y) and eps^{->i} = e_x - e_y, 0-based."""
        if not 1 <= i <= len(self.bits):
            raise IndexError(i)
        cached = getattr(self, "_pair_cache", None)
        if cached is None:
            cached = next(_prefix_walk(self.expr, [self.bits]))
            object.__setattr__(self, "_pair_cache", cached)
        return cached[i - 1]

    def prefix(self, i: int) -> Permutation:
        """eps^{<i} = t_1^{eps_1} ... t_{i-1}^{eps_{i-1}}: one swap of the
        one-line images per set bit before i."""
        if not 1 <= i <= len(self.bits) + 1:
            raise IndexError(i)
        w = list(range(1, self.expr.n + 1))
        for r, bit in zip(self.expr.entries[:i - 1], self.bits):
            if bit:
                w[r.i - 1], w[r.j - 1] = w[r.j - 1], w[r.i - 1]
        return Permutation(tuple(w))

    def refl_at(self, i: int) -> Reflection:
        """eps^i = eps^{<i} t_i (eps^{<i})^{-1}."""
        x, y = self._pair(i)
        return Reflection(min(x, y) + 1, max(x, y) + 1, self.expr.n)

    def root_before(self, i: int) -> Polynomial:
        """eps^{->i} = eps^{<i}(alpha_{t_i})."""
        return _root(self.expr.n, *self._pair(i))

    def root_after(self, i: int) -> Polynomial:
        """eps^{<-i} = eps^{<=i}(alpha_{t_i}): -eps^{->i} where eps_i = 1."""
        x, y = self._pair(i)
        return _root(self.expr.n, *((y, x) if self.bits[i - 1] else (x, y)))

    def target(self) -> Permutation:
        """eps^max: the full product."""
        return self.prefix(len(self) + 1)

    def M(self, p: Reflection) -> Tuple[int, ...]:
        """M_p(eps): positions i with eps^i = p."""
        return tuple(i for i in range(1, len(self) + 1) if self.refl_at(i) == p)

    def all_M(self) -> Dict[Reflection, Tuple[int, ...]]:
        """All nonempty M_p(eps), keyed by reflection."""
        out: Dict[Reflection, list] = {}
        for i in range(1, len(self) + 1):
            out.setdefault(self.refl_at(i), []).append(i)
        return {p: tuple(v) for p, v in out.items()}

    def fold(self, X: Sequence[int]) -> "Subexpr":
        """f_X eps: flip the bits at X."""
        Xs = set(X)
        if any(not 1 <= x <= len(self) for x in Xs):
            raise ValueError("fold positions out of range")
        return Subexpr(self.expr, tuple(
            1 - b if i + 1 in Xs else b for i, b in enumerate(self.bits)))

    def dotted(self) -> ReflExpr:
        """eps^dot: the expression whose i-th entry is eps^i."""
        return ReflExpr(self.expr.n, tuple(
            self.refl_at(i) for i in range(1, len(self) + 1)))

    def weight(self) -> Polynomial:
        """o(eps) = prod_i eps^{->i}, from the first root on."""
        roots = [self.root_before(i) for i in range(1, len(self) + 1)]
        return (reduce(Polynomial.__mul__, roots) if roots
                else Polynomial.one(self.expr.n))


@dataclass(frozen=True)
class SubSet:
    """A set of subexpressions of one expression, its members in strictly
    increasing lexicographic order: on Sub(t) the index of a member is its
    bits read as a binary number."""
    expr: ReflExpr
    target: Optional[Permutation]  # None means "all"
    members: Tuple[Bits, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(tuple(b) for b in self.members))
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("members must be distinct and in lexicographic "
                             "order")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def _of(cls, expr: ReflExpr, target: Optional[Permutation],
            members: Tuple[Bits, ...]) -> "SubSet":
        """`members`, a tuple of bit tuples in strictly increasing order,
        taken unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "expr", expr)
        object.__setattr__(out, "target", target)
        object.__setattr__(out, "members", members)
        return out

    def __contains__(self, eps) -> bool:
        members = getattr(self, "_member_cache", None)
        if members is None:
            members = frozenset(self.members)
            object.__setattr__(self, "_member_cache", members)
        if isinstance(eps, Subexpr):
            return eps.expr == self.expr and eps.bits in members
        return tuple(eps) in members

    def subexprs(self) -> Tuple[Subexpr, ...]:
        return tuple(Subexpr(self.expr, b) for b in self.members)

    def analysis(self) -> "SubAnalysis":
        """The analysis of this set, built on first use and cached here."""
        cached = getattr(self, "_analysis_cache", None)
        if cached is None:
            cached = SubAnalysis(self)
            object.__setattr__(self, "_analysis_cache", cached)
        return cached

    def roots(self) -> Tuple[Tuple[Polynomial, ...], ...]:
        """roots()[i][k-1] is eps^{->k} = eps^{<k}(alpha_{t_k}) for member
        eps = i, built on first use from the prefix walk (`_prefix_walk`)
        and cached here; it does not build the analysis."""
        cached = getattr(self, "_roots_cache", None)
        if cached is None:
            n = self.expr.n
            cached = tuple(tuple(_root(n, x, y) for x, y in pairs)
                           for pairs in _prefix_walk(self.expr, self.members))
            object.__setattr__(self, "_roots_cache", cached)
        return cached

    def restrict(self, bits_set) -> "SubSet":
        keep = {tuple(b) for b in bits_set}
        return SubSet._of(self.expr, self.target,
                          tuple(b for b in self.members if b in keep))

    def to_json(self) -> dict:
        obj = {"expr": self.expr.to_json(),
               "members": ["".join(map(str, b)) for b in self.members]}
        if self.target is not None:
            obj["target"] = list(self.target.images)
        return obj

    def __repr__(self) -> str:
        body = ",".join("".join(map(str, b)) for b in self.members)
        return f"SubSet[{body}]"


def _prefix_walk(expr: ReflExpr, members: Sequence[Bits]):
    """For each member eps, in order, the pairs (eps^{<k}(a), eps^{<k}(b))
    over the positions k, with t_k = (a b), all 0-based: eps^{<k}(alpha_{t_k})
    is e_x - e_y and eps^k is (x y) for the k-th pair (x, y).  The one-line
    prefix product eps^{<k} is extended one position at a time."""
    n = expr.n
    trans = [(r.i - 1, r.j - 1) for r in expr.entries]
    for bits in members:
        prefix = list(range(n))
        pairs = []
        for (a, b), bit in zip(trans, bits):
            x, y = prefix[a], prefix[b]
            pairs.append((x, y))
            if bit:
                prefix[a], prefix[b] = y, x
        yield pairs


def _mask(positions: Sequence[int]) -> int:
    """A set of positions as an integer: position i is bit i - 1."""
    out = 0
    for i in positions:
        out |= 1 << (i - 1)
    return out


def _positions(Mp: Sequence[int], S: int) -> Tuple[int, ...]:
    """The positions of Mp picked by the submask S (bit b picks Mp[b])."""
    return tuple(x for b, x in enumerate(Mp) if S >> b & 1)


def _indices(mask: int):
    """The indices of the set bits of mask, increasing."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _fold_template(S: int, even: bool) -> Tuple[tuple, tuple, tuple]:
    """(bits, Ys, signs) for the nonempty submask S of an M_p row: the
    indices of the set bits of S, the submasks Y of S, increasing and even
    only if `even`, and the sign (-1)^{|Y|_S} of each.  The condition on
    X = M_p[bits] sums sign * g(f_Y eps) over these Y; cached per process."""
    bits = tuple(_indices(S))
    odd = sum(1 << b for b in bits[::-2])  # odd positions, from the top
    Ys, signs = [], []
    Y = 0
    while True:
        if not (even and Y.bit_count() % 2):
            Ys.append(Y)
            signs.append(-1 if (Y & odd).bit_count() % 2 else 1)
        if Y == S:
            return bits, tuple(Ys), tuple(signs)
        Y = (Y - S) & S  # the next submask of S


def _fold_members(folds: Sequence[int], Ys: Sequence[int]) -> list:
    """folds[Y] over Y in Ys; ValueError if one of these folds leaves the
    set."""
    js = [folds[Y] for Y in Ys]
    if min(js) < 0:
        raise ValueError("a fold of the subexpression leaves the set")
    return js


def _generate_conditions(per_p, even: bool, full: bool):
    """The stream behind `SubAnalysis.conditions`.  The folds by subsets of
    X keep M_p, so the members they reach share the (p, X) condition: it is
    emitted at the least of them.  In the full variant on a full Sub(t)
    every such fold stays in the set, and the least member has a 0 at every
    position of X: f_S eps = i ^ bits(X) must not share a set bit with i."""
    closed = full and not even
    for i, rows in enumerate(per_p):
        for p, Mp, folds in rows:
            for S in range(1, len(folds)):
                if closed and (folds[S] ^ i) & i:
                    continue
                bits, Ys, signs = _fold_template(S, even)
                js = ([folds[Y] for Y in Ys] if closed else
                      _fold_members(folds, Ys))
                if closed or min(js) == i:
                    X = tuple([Mp[b] for b in bits])
                    yield i, p, X, tuple(zip(js, signs))


class SubAnalysis:
    """
    A set of subexpressions analysed once.  Member i is `members[i]`, with
    position mask `masks[i]`; `index` maps bits back to i.  Sets of members
    are bitmasks over member indices.

    `per_p[i]` lists (p, M_p, folds) over the nonempty M_p(eps) of member
    eps = i, sorted by p.  A subset of M_p is a submask S, whose bit b picks
    M_p[b].  folds[S] is the index of f_S eps, or -1 when that fold leaves
    the set.  Odd folds change the target, so they leave Sub(t, w); on
    Sub(t) they stay, and the full-variant conditions read them.  On a full
    Sub(t) (`full`: 2^m members, however built) f_S eps is i XOR flip[S],
    one flip list per M_p tuple; elsewhere folds are looked up by position
    mask, on a set with a target the even ones only.

    `adj[i]`, built on first use, is the mask of the neighbours of member
    i in the graph of the whole set, whose edges are the even folds.  The
    graph on a subset Phi is the subgraph induced on Phi, since whether
    two members are joined depends on them alone.  The graph reads even
    folds only.

    The M_p sets come from one walk of the prefix products per member
    (`_prefix_walk`, shared with `SubSet.roots`): the k-th pair (x, y) of
    member eps gives eps^k = (x y), one `Reflection` per pair.
    `closeness_memo` and `row_shapes` are `orderalg.closeness`'s, which
    documents them; neither refers back to the analysis.
    """

    def __init__(self, sub: SubSet):
        self.expr = sub.expr
        self.members = sub.members
        self.masks = tuple(_mask([i + 1 for i, b in enumerate(bits) if b])
                           for bits in sub.members)
        self.index = {bits: i for i, bits in enumerate(sub.members)}
        m, n = len(self.expr), self.expr.n
        full = self.full = len(self.members) == 1 << m
        flips: Dict[Tuple[int, ...], list] = {}  # per M_p, on a full set
        get = None if full else {mk: i for i, mk in enumerate(self.masks)}.get
        odd_leave = sub.target is not None     # odd folds change a target
        refl: Dict[Tuple[int, int], Reflection] = {}
        per_p = []
        for i, pairs in enumerate(_prefix_walk(self.expr, self.members)):
            mi = self.masks[i]
            allM: Dict[Tuple[int, int], list] = {}
            for k, (x, y) in enumerate(pairs, 1):
                allM.setdefault((x, y) if x < y else (y, x), []).append(k)
            rows = []
            for key in sorted(allM):
                p = refl.get(key)
                if p is None:
                    p = refl[key] = Reflection(key[0] + 1, key[1] + 1, n)
                Mp = tuple(allM[key])
                if full:    # position k is bit m - k of the index
                    flip = flips.get(Mp)
                    if flip is None:    # flip[S]: the bits of S's positions
                        flip = flips[Mp] = [0]
                        for x in Mp:
                            flip += [f | 1 << (m - x) for f in flip]
                    rows.append((p, Mp, tuple([i ^ f for f in flip])))
                    continue
                size = 1 << len(Mp)
                pos = [0] * size
                folds = [-1] * size
                for S in range(1, size):
                    low = S & -S
                    pos[S] = pos[S ^ low] | 1 << (Mp[low.bit_length() - 1] - 1)
                    if not (odd_leave and S.bit_count() % 2):
                        folds[S] = get(mi ^ pos[S], -1)
                folds[0] = i
                rows.append((p, Mp, tuple(folds)))
            per_p.append(tuple(rows))
        self.per_p = tuple(per_p)
        self._adj: Optional[Tuple[int, ...]] = None
        self._at: Optional[Tuple[Tuple[int, int], ...]] = None  # `frozen`
        self._tables: Dict[bool, Optional[tuple]] = {}  # condition_table
        self.closeness_memo: Dict[Tuple[int, str], tuple] = {}
        self.row_shapes: Dict[tuple, tuple] = {}

    @property
    def adj(self) -> Tuple[int, ...]:
        """adj[i], the mask of the neighbours of member i, from the even
        folds of `per_p`, built on first use.  (Not a `cached_property`: its
        `__dict__` write slows every attribute read on CPython 3.11.)"""
        if self._adj is None:
            adj = [0] * len(self.members)
            for i, rows in enumerate(self.per_p):
                for _, _, folds in rows:
                    for S in range(3, len(folds)):
                        j = folds[S]
                        if j >= 0 and not S.bit_count() % 2:
                            adj[i] |= 1 << j
            self._adj = tuple(adj)
        return self._adj

    def conditions(self, even: bool):
        """(i, p, X, terms) for the conditions Sigma_X^eps, eps = member i,
        X a nonempty subset of M_p(eps): members in order, then p, then X as
        increasing submasks.  Only the first (eps, X) of those whose folds
        by subsets of X give the same members is kept.  Once
        `condition_table` holds the variant's list, a call iterates over
        it; until then each call reads a fresh stream, which stores that
        table if it is read to its end.  A fold leaving the set is a
        ValueError where the stream meets it."""
        table = self._tables.get(even)
        return iter(table[0]) if table else self._listing(even)

    def _listing(self, even: bool):
        listed = []
        for item in _generate_conditions(self.per_p, even, self.full):
            listed.append(item)
            yield item
        touching = [[] for _ in self.members]
        for k, (_, _, _, terms) in enumerate(listed):
            for j, _ in terms:
                touching[j].append(k)
        self._tables[even] = listed, touching

    def condition_table(self, even: bool) -> Optional[tuple]:
        """(all of `conditions(even)`, per member j the indices of those that
        read j), built once; None if a fold leaves the set."""
        if even not in self._tables:
            try:
                for _ in self.conditions(even):
                    pass
            except ValueError:
                self._tables[even] = None
        return self._tables[even]

    def require(self, eps: Subexpr) -> int:
        """The index of eps; ValueError if eps is not a member."""
        i = self.index.get(eps.bits) if eps.expr == self.expr else None
        if i is None:
            raise ValueError(f"{eps!r} is not in Sub(t, w)")
        return i

    def mask_of(self, bits_set) -> int:
        """The members bits_set lists, as a mask; ValueError if one of them
        is not a member."""
        out = 0
        for bits in bits_set:
            i = self.index.get(tuple(bits))
            if i is None:
                raise ValueError(f"{''.join(map(str, bits))} is not in the "
                                 "set of subexpressions")
            out |= 1 << i
        return out

    def bits_of(self, mask: int) -> Tuple[Bits, ...]:
        return tuple(self.members[i] for i in _indices(mask))

    def frozen(self, i: int, X: int) -> int:
        """The members agreeing with member i at the positions of mask X;
        with X = ~mask, the members differing from it only inside mask.  One
        AND per position of X: the members with i's bit there, built once."""
        m, out = len(self.expr), (1 << len(self.members)) - 1
        if self._at is None:    # at[k]: (members with 0, with 1 at k)
            ones = [0] * m
            for j, mj in enumerate(self.masks):
                for k in _indices(mj):
                    ones[k] |= 1 << j
            self._at = tuple((out ^ o, o) for o in ones)
        at, mi = self._at, self.masks[i]
        for k in _indices(X & (1 << m) - 1):
            out &= at[k][mi >> k & 1]
        return out

    def component(self, i: int, within: int) -> int:
        """The connected component of member i in the graph induced on the
        members of `within`, which must contain i."""
        adj = self.adj
        comp = frontier = 1 << i
        while frontier:
            nxt = 0
            for j in _indices(frontier):
                nxt |= adj[j]
            frontier = nxt & within & ~comp
            comp |= frontier
        return comp


@dataclass(frozen=True)
class SubGraph:
    """The graph Gr(Phi): vertices Phi, edges {eps, delta} with eps =._p delta,
    labeled by the reflection p and the least even fold set Y realizing it."""
    vertices: SubSet
    edges: Tuple[Tuple[Bits, Bits, Reflection, Tuple[int, ...]], ...]

    def to_dot(self) -> str:
        lines = ["graph sub {"]
        for b in self.vertices.members:
            name = "".join(map(str, b))
            lines.append(f'  "{name}";')
        for a, b, p, Y in self.edges:
            sa, sb = "".join(map(str, a)), "".join(map(str, b))
            ys = ",".join(map(str, Y))
            lines.append(f'  "{sa}" -- "{sb}" [label="p=({p.i},{p.j});Y={{{ys}}}"];')
        lines.append("}")
        return "\n".join(lines)


def rel_card(Y, X) -> int:
    """
    |Y|_X: the number of elements of Y sitting at odd positions of X, with
    positions counted decreasingly (the largest element of X has position 1).

    >>> rel_card({2, 3, 9}, {1, 2, 3, 4, 7, 9})
    2
    """
    X = sorted(set(X), reverse=True)
    Y = set(Y)
    if not Y <= set(X):
        raise ValueError("Y must be a subset of X")
    return sum(1 for pos, x in enumerate(X, start=1) if pos % 2 == 1 and x in Y)


def _target_members(n: int, trans, target) -> list:
    """
    The bit tuples, in lexicographic order, whose subproduct of `trans` (a
    list of 0-based (i, j) pairs) is `target` (a 0-based one-line image
    tuple), by meet in the middle: each head choice u on the first half, in
    order, is completed by the tails whose product is u^{-1} target.

    Every subproduct fixes the points that `trans` does not move, so a
    target moving one of them has no members; the rest is computed on the
    moved points, relabelled 0..s-1 (s <= 2m, at most 80 under the cap of
    `enumerate_sub`).  A permutation is then a `bytes` one-line word, and
    left-multiplying it by (a b), which swaps the values a and b, is one
    `bytes.translate`.  The head key u^{-1} target = t_k^{b_k} ...
    t_1^{b_1} target takes the head factors in turn from the target, each
    step interleaving bit 0 before bit 1.  A tail product takes its factors
    from the last one, each step doubling the list by concatenation, so the
    factor taken last is the leading bit.  Both lists are thus in
    lexicographic order, as are the bit tuples of `itertools.product` they
    are zipped with.  Only the tails whose product is some head's key are
    grouped.
    """
    support = sorted({x for pair in trans for x in pair})
    if any(target[x] != x for x in set(range(n)).difference(support)):
        return []
    label = {x: i for i, x in enumerate(support)}
    tables = []
    for a, b in trans:
        ab = bytes((label[a], label[b]))
        tables.append(bytes.maketrans(ab, ab[::-1]))  # swaps the values
    k = len(trans) // 2
    keys = [bytes(label[target[x]] for x in support)]
    for table in tables[:k]:
        doubled = [b""] * (2 * len(keys))
        doubled[::2] = keys
        doubled[1::2] = [p.translate(table) for p in keys]
        keys = doubled
    products = [bytes(range(len(support)))]
    for table in reversed(tables[k:]):
        products += [p.translate(table) for p in products]
    wanted = set(keys)
    tails: Dict[bytes, list] = {}
    for tail, p in itertools.compress(
            zip(itertools.product((0, 1), repeat=len(trans) - k), products),
            map(wanted.__contains__, products)):
        tails.setdefault(p, []).append(tail)
    out = []
    for head, key in itertools.compress(
            zip(itertools.product((0, 1), repeat=k), keys),
            map(tails.__contains__, keys)):
        out.extend([head + tail for tail in tails[key]])
    return out


def enumerate_sub(t: ReflExpr, w: Union[Permutation, str, None] = "all"
                  ) -> SubSet:
    """Sub(t) (w = "all"/None) or Sub(t, w), canonically (lexicographically)
    ordered by bits.  ValueError if Sub(t) would have more than ALL_CAP
    members, if meet in the middle would store more than ALL_CAP tail
    subproducts (2^ceil(m/2) for length m), or if w is not in S_n for t's n.
    """
    m = len(t)
    if w is None or w == "all":
        if 2 ** m > ALL_CAP:
            raise ValueError(f"Sub(t) has 2^{m} members, more than the cap "
                             f"ALL_CAP = {ALL_CAP}")
        return SubSet._of(t, None, tuple(itertools.product((0, 1), repeat=m)))
    if not isinstance(w, Permutation):
        raise TypeError("target must be a Permutation or 'all'")
    if w.n != t.n:
        raise ValueError(f"target in S_{w.n}, expression in S_{t.n}")
    if 2 ** (m - m // 2) > ALL_CAP:
        raise ValueError(f"the tail table of Sub(t, w) would hold "
                         f"2^{m - m // 2} subproducts, more than the cap "
                         f"ALL_CAP = {ALL_CAP}")
    trans = [(r.i - 1, r.j - 1) for r in t.entries]
    target = tuple(v - 1 for v in w.images)
    return SubSet._of(t, w, tuple(_target_members(t.n, trans, target)))


def equiv_class(eps: Subexpr, p: Reflection, target_restricted: bool) -> SubSet:
    """The =._p class of eps: all f_X eps over X subset of M_p(eps), with X
    even when restricted to Sub(t, target)."""
    Mp = eps.M(p)
    Ys = _fold_template((1 << len(Mp)) - 1, target_restricted)[1]
    seen = sorted({eps.fold(_positions(Mp, Y)).bits for Y in Ys})
    tgt = eps.target() if target_restricted else None
    return SubSet._of(eps.expr, tgt, tuple(seen))


def graph(Phi: SubSet) -> SubGraph:
    """Gr(Phi): edges {eps, delta} with delta = f_Y eps, Y an even subset of
    some M_p(eps) with |Y| >= 2, both endpoints in Phi.  ValueError if Phi
    has more than GRAPH_CAP members."""
    if len(Phi) > GRAPH_CAP:
        raise ValueError(f"graph on {len(Phi)} vertices exceeds the cap "
                         f"GRAPH_CAP = {GRAPH_CAP}")
    an = Phi.analysis()
    edges: Dict[Tuple[Bits, Bits], Tuple[Reflection, Tuple[int, ...]]] = {}
    for bits, rows in zip(an.members, an.per_p):
        for p, Mp, folds in rows:
            for S, j in enumerate(folds):
                if j < 0 or not S or S.bit_count() % 2:
                    continue
                Y = _positions(Mp, S)
                other = an.members[j]
                key = (min(bits, other), max(bits, other))
                if key not in edges or (p.i, p.j, Y) < (
                        edges[key][0].i, edges[key][0].j, edges[key][1]):
                    edges[key] = (p, Y)
    edge_list = tuple((a, b, p, Y) for (a, b), (p, Y) in sorted(edges.items()))
    return SubGraph(Phi, edge_list)


def components(Phi: SubSet) -> Tuple[Tuple[Bits, ...], ...]:
    """The connected components of Gr(Phi), each sorted, ordered by least
    member."""
    an = Phi.analysis()
    left = (1 << len(an.members)) - 1
    comps = []
    while left:
        comp = an.component((left & -left).bit_length() - 1, left)
        left &= ~comp
        comps.append(tuple(sorted(an.bits_of(comp))))
    return tuple(sorted(comps))


def _checked_mask(sub: SubSet, X: Sequence[int]) -> int:
    if any(not 1 <= x <= len(sub.expr) for x in X):
        raise ValueError(f"positions {tuple(X)} not in 1..{len(sub.expr)}")
    return _mask(X)


def frozen_set(sub: SubSet, eps: Subexpr, X: Sequence[int]) -> SubSet:
    """Sub^X(t, w, eps): members agreeing with eps at every position of X."""
    an = sub.analysis()
    keep = an.frozen(an.require(eps), _checked_mask(sub, X))
    return SubSet._of(sub.expr, sub.target, an.bits_of(keep))


def unfrozen_set(sub: SubSet, eps: Subexpr, X: Sequence[int]) -> SubSet:
    """Sub_X(t, w, eps): members differing from eps only inside X."""
    an = sub.analysis()
    keep = an.frozen(an.require(eps), ~_checked_mask(sub, X))
    return SubSet._of(sub.expr, sub.target, an.bits_of(keep))


def con_component(sub: SubSet, eps: Subexpr, Y: Sequence[int]) -> SubSet:
    """Sub^Y_con(t, w, eps): the connected component of the frozen set
    containing eps, in the graph induced on the frozen set."""
    an = sub.analysis()
    i = an.require(eps)
    comp = an.component(i, an.frozen(i, _checked_mask(sub, Y)))
    return SubSet._of(sub.expr, sub.target, an.bits_of(comp))


def balance(eps: Subexpr):
    """(positive indices, negative indices, balanced?).  Index i is positive
    iff eps^{<i} t_i is shorter than eps^{<i} (a Bruhat drop): iff x > y for
    the i-th pair (x, y) = (eps^{<i}(a), eps^{<i}(b)), t_i = (a b), a < b."""
    positive, negative = [], []
    for i in range(1, len(eps) + 1):
        x, y = eps._pair(i)
        (positive if x > y else negative).append(i)
    pos = tuple(positive)
    balanced = all(min(Mp) not in pos for Mp in eps.all_M().values())
    return pos, tuple(negative), balanced


def balanced_set(Phi: SubSet) -> bool:
    return all(balance(eps)[2] for eps in Phi.subexprs())


if __name__ == "__main__":
    import doctest
    doctest.testmod()
