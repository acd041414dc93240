"""
Graded free modules over a polynomial ring with module orders in
Schreyer's form: division, Buchberger completion, graded free resolutions
with minimization, projective dimension, and the string modules St_R(x)
together with their duals.  Buchberger is a completion only: it reduces
each S-pair once and keeps no relation.

A resolution completes once, for F_0; every level above is Schreyer's,
ordered as the level below induces, with at most as many levels as
variables.  Its shape (which S-pairs each level reduces, their leading
terms and degrees) comes from leading monomials alone.  Its columns, those
S-pairs reduced once each, are already a Groebner basis of the next
syzygies; they are the sparse differentials, and minimization cancels
units on them.  A unit joins two generators of one degree at consecutive
levels, so where no two consecutive levels share a degree, `pd` reads the
minimal degrees off the shape and reduces no S-pair above F_0.  The first
level is the one place where syzygies are built: `syzygies` of a Groebner
basis reads it, mapped back to input order.

A module element is immutable and stored as one coefficient dict
{(generator index, exponent): coefficient}, with `Polynomial` coordinate
views built on demand, and it caches its leading term per order.  A
module order gives each generator a rank and a shift monomial, and one key
per term serves every leading-term choice and every division.  Division
runs on one such dict: the leading term is popped from a sorted list of
its terms and divided by the first basis element, in index order, whose
leading term is in the same position and divides it, and quotients come
back sparse, {k: Polynomial}.  Buchberger keeps its basis bucketed by
leading position across all of its reductions, and forms S-pairs per
bucket.

The ring here is F[x_1..x_n, y_1..y_m] in fresh variables (the images of
the chosen roots under an invertible change of coordinates): variable k of
the underlying Polynomial type is x_k for k <= n and y_{k-n} above.  The
term order is lex with y_m > ... > y_1 > x_n > ... > x_1, i.e. plain
descending variable index.
"""

__all__ = [
    "FreeModule", "FreeModElem", "ModOrder", "GroebnerBasis",
    "reduce_elem", "buchberger", "syzygies", "free_resolution", "pd",
    "coordinate_change", "st_generators", "st_membership", "st_ambient",
    "check_st_frame",
    "q_generators", "theta_generators", "dual_toolkit", "certified_pd",
    "minimize_resolution", "resolution_ranks",
]

from collections import abc
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from bisect import insort
from itertools import combinations
from operator import add, le, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .polyring import (Polynomial, GradedRank, InvariantError, Scalar, _exact,
                       _linear_rows, _ratio)
from .subexpr import ALL_CAP

Mono = Tuple[int, ...]


@dataclass(frozen=True)
class FreeModule:
    """R^{+shifts}: a free module with generator degree shifts."""
    n_vars: int
    gen_degrees: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)


@dataclass(frozen=True)
class ModOrder:
    """
    A module order in Schreyer's form.  Generator g has a rank rank[g] and
    a shift monomial shift[g], and the term m E_g is keyed by (rank[g],
    m shift[g] read lexicographically in descending variable index, g): the
    greater key, the greater term.  A position-over-term order has zero
    shifts and distinct ranks.  Schreyer's induced order on a free module
    mapped to F, E_j -> f_j (m E_j > m' E_i iff lead(m f_j) > lead(m' f_i),
    ties to the greater index), gives E_j the rank of lead(f_j)'s position
    and the shift lead(f_j) times that position's shift; the index breaks
    the ties as long as the E_j are numbered in ascending order of their
    leading positions.
    """
    rank: Tuple[int, ...]
    shift: Tuple[Mono, ...]

    @staticmethod
    def standard(rank: int, n_vars: int) -> "ModOrder":
        """e_rank > ... > e_1, with zero shifts."""
        return ModOrder(tuple(range(rank)), ((0,) * n_vars,) * rank)

    @cached_property
    def key(self):
        """The sort key of a term x = (generator, exponent)."""
        rank, shift = self.rank, self.shift

        def key(x: Tuple[int, Mono]):
            g, exp = x
            return rank[g], tuple(map(add, exp, shift[g]))[::-1], g
        return key

    @cached_property
    def _hash(self) -> int:
        return hash((self.rank, self.shift))

    def __hash__(self) -> int:
        # an element caches its leading term per order: hash each order once
        return self._hash


class FreeModElem:
    """Immutable element of a graded free module, stored as one coefficient
    dict `terms` {(generator index, exponent): coefficient} with no zero
    entries; coefficients are `int`s, and `Fraction`s with denominator
    above 1, as `Polynomial` stores them.  The leading term is cached per
    order."""

    __slots__ = ("ambient", "terms", "_leads")

    def __init__(self, ambient: FreeModule, coords: Mapping[int, Polynomial]):
        terms = {}
        for g, p in dict(coords).items():
            if not 0 <= g < ambient.rank:
                raise ValueError(f"generator index {g} out of range")
            if p.n != ambient.n_vars:
                raise ValueError("coordinate rank mismatch")
            for exp, c in p.terms.items():
                terms[(g, exp)] = c
        self.ambient = ambient
        self.terms = terms
        self._leads = {}

    @staticmethod
    def _raw(ambient: FreeModule, terms: Dict[Tuple[int, Mono], Scalar]
             ) -> "FreeModElem":
        """The element with the coefficient dict `terms`, taken as it is:
        no zero and no integral `Fraction` coefficient."""
        elem = FreeModElem.__new__(FreeModElem)
        elem.ambient = ambient
        elem.terms = terms
        elem._leads = {}
        return elem

    @property
    def coords(self) -> Dict[int, Polynomial]:
        """{generator index: coordinate}, the nonzero coordinates only."""
        by_gen: Dict[int, Dict[Mono, Scalar]] = {}
        for (g, exp), c in self.terms.items():
            by_gen.setdefault(g, {})[exp] = c
        n = self.ambient.n_vars
        return {g: Polynomial(n, by_gen[g]) for g in sorted(by_gen)}

    def is_zero(self) -> bool:
        return not self.terms

    def coord(self, g: int) -> Polynomial:
        return Polynomial(self.ambient.n_vars,
                          {exp: c for (h, exp), c in self.terms.items()
                           if h == g})

    def _plus(self, other: "FreeModElem", sign: int) -> "FreeModElem":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        terms = dict(self.terms)
        for x, c in other.terms.items():
            _accumulate(terms, x, sign * c)
        return FreeModElem._raw(self.ambient, terms)

    def __add__(self, other: "FreeModElem") -> "FreeModElem":
        return self._plus(other, 1)

    def __sub__(self, other: "FreeModElem") -> "FreeModElem":
        return self._plus(other, -1)

    def scale_poly(self, p: Polynomial) -> "FreeModElem":
        if p.n != self.ambient.n_vars:
            raise ValueError("coordinate rank mismatch")
        terms: Dict[Tuple[int, Mono], Scalar] = {}
        for (g, exp), c in self.terms.items():
            for pexp, pc in p.terms.items():
                _accumulate(terms, (g, tuple(map(add, exp, pexp))), c * pc)
        return FreeModElem._raw(self.ambient, terms)

    def mono_mul(self, exp: Mono, c: Scalar) -> "FreeModElem":
        c = _exact(c)
        terms: Dict[Tuple[int, Mono], Scalar] = {}
        for (g, e), v in self.terms.items():
            _accumulate(terms, (g, tuple(map(add, e, exp))), c * v)
        return FreeModElem._raw(self.ambient, terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeModElem)
                and self.ambient == other.ambient
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("FreeModElem is unhashable")

    def homogeneous_degree(self) -> Optional[int]:
        shifts = self.ambient.gen_degrees
        degs = {2 * sum(exp) + shifts[g] for g, exp in self.terms}
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("not homogeneous")
        return degs.pop()

    def leading(self, order: ModOrder):
        """(gen, exponent, coefficient) of the leading term: the term with
        the greatest `order.key`.  Computed once per order."""
        lead = self._leads.get(order)
        if lead is None:
            if not self.terms:
                raise ValueError("zero element has no leading term")
            g, exp = max(self.terms, key=order.key)
            lead = self._leads[order] = (g, exp, self.terms[(g, exp)])
        return lead

    def __repr__(self) -> str:
        body = " + ".join(f"({p})*E{g}" for g, p in self.coords.items())
        return f"FreeModElem[{body or '0'}]"


def _accumulate(terms: dict, x, c: Scalar) -> None:
    """terms[x] += c in a coefficient dict, dropping a zero sum and storing
    an integral one as an int."""
    v = terms.get(x, 0) + c
    if not v:
        terms.pop(x, None)
    elif type(v) is int or v.denominator != 1:
        terms[x] = v
    else:
        terms[x] = v.numerator


def _spair(f: FreeModElem, u: Mono, x: Scalar,
           g: FreeModElem, v: Mono, y: Scalar) -> FreeModElem:
    """x m^u f + y m^v g, built in one coefficient dict."""
    terms: Dict[Tuple[int, Mono], Scalar] = {}
    for h, w, z in ((f, u, x), (g, v, y)):
        for (k, e), c in h.terms.items():
            _accumulate(terms, (k, tuple(map(add, e, w))), z * c)
    return FreeModElem._raw(f.ambient, terms)


def _mono_sub(b: Mono, a: Mono) -> Mono:
    return tuple(map(sub, b, a))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


class _LeadIndex(abc.Sequence):
    """A sequence of basis elements that also holds their leading terms
    under one order, bucketed by position: {position: [(exponent, index,
    coefficient)]}, each bucket in index order.  Only a leading term in the
    same position can divide, or make an S-pair."""

    def __init__(self, elems: Sequence[FreeModElem], order: ModOrder):
        self.order = order
        self.elems: List[FreeModElem] = []
        self.buckets: Dict[int, List[Tuple[Mono, int, Scalar]]] = {}
        for g in elems:
            self.append(g)

    def __len__(self) -> int:
        return len(self.elems)

    def __getitem__(self, k):
        return self.elems[k]

    def append(self, g: FreeModElem) -> None:
        if g.terms:
            lg, lexp, lc = g.leading(self.order)
            self.buckets.setdefault(lg, []).append((lexp, len(self.elems), lc))
        self.elems.append(g)


def reduce_elem(f: FreeModElem, G: Sequence[FreeModElem], order: ModOrder):
    """
    Full division: f = sum q_k G_k + r with no term of r divisible by any
    leading monomial of G.  Returns ({k: q_k} for the nonzero quotients,
    r).  Division runs on one coefficient dict: its leading term is popped
    from a sorted list of its terms and divided by the first G_k, in index
    order, whose leading term divides it, and the quotient term times G_k
    is subtracted term by term; a term no G_k divides goes to r.
    `buchberger` passes its growing basis as a `_LeadIndex`, so the leading
    terms are bucketed once per basis rather than once per call.
    """
    index = G if isinstance(G, _LeadIndex) and G.order == order \
        else _LeadIndex(G, order)
    buckets, elems, key = index.buckets, index.elems, order.key
    cur = dict(f.terms)
    # the keys of cur, the leading term last; a subtraction only adds terms
    # below the leading one
    todo = sorted((key(x), x) for x in cur)
    qs: Dict[int, Dict[Mono, Scalar]] = {}
    rem: Dict[Tuple[int, Mono], Scalar] = {}
    while todo:
        x0 = todo.pop()[1]
        g0, exp0 = x0
        c0 = cur[x0]
        if not c0:   # cancelled after it was listed
            del cur[x0]
            continue
        for lexp, k, lc in buckets.get(g0, ()):
            if all(map(le, lexp, exp0)):
                break
        else:
            del cur[x0]
            _accumulate(rem, x0, c0)
            continue
        diff = tuple(map(sub, exp0, lexp))
        # the leading terms strictly decrease, so each (k, diff) comes once
        coef = qs.setdefault(k, {})[diff] = _ratio(c0, lc)
        for (g, e), c in elems[k].terms.items():
            x = (g, tuple(map(add, diff, e)))
            v = cur.get(x)
            if v is None:
                cur[x] = -coef * c
                insort(todo, (key(x), x))
            else:
                cur[x] = v - coef * c
        del cur[x0]   # cancelled by the leading term of G_k
    n = f.ambient.n_vars
    quotients = {k: Polynomial(n, q) for k, q in qs.items()}
    return quotients, FreeModElem._raw(f.ambient, rem)


@dataclass
class GroebnerBasis:
    """A Groebner basis under `order`: the nonzero inputs, in input order,
    then the elements the completion added."""
    elements: List[FreeModElem]
    order: ModOrder
    n_new: int = 0   # how many elements were added beyond the input


def buchberger(gens: Sequence[FreeModElem], order: ModOrder) -> GroebnerBasis:
    """
    Buchberger completion keeping the input generators: each same-position
    S-pair s = u_i m_i G_i - u_j m_j G_j is reduced once, to s = sum q_k G_k
    + r, and a nonzero r joins the basis as r / lc(r).  The relations the
    reductions give are not kept: the syzygies of a Groebner basis are the
    first level of Schreyer's frame (`syzygies`, `free_resolution`).
    """
    G = _LeadIndex([g for g in gens if not g.is_zero()], order)
    # the same-position pairs in (i, j) scan order; the list grows while it
    # is walked, a new element's pairs appended
    pairs = [(i, j) for bucket in G.buckets.values()
             for a, (_, i, _) in enumerate(bucket) for _, j, _ in bucket[a + 1:]]
    pairs.sort()
    n_new = 0
    for i, j in pairs:
        _, ei, ci = G[i].leading(order)
        _, ej, cj = G[j].leading(order)
        lcm = _mono_lcm(ei, ej)
        _, rem = reduce_elem(_spair(G[i], _mono_sub(lcm, ei), _ratio(1, ci),
                                    G[j], _mono_sub(lcm, ej), _ratio(-1, cj)),
                             G, order)
        if rem.is_zero():
            continue
        new = rem.mono_mul((0,) * rem.ambient.n_vars,
                           _ratio(1, rem.leading(order)[2]))
        m = len(G)
        pairs.extend((k, m) for _, k, _ in
                     G.buckets.get(new.leading(order)[0], ()))
        G.append(new)
        n_new += 1
    return GroebnerBasis(G.elems, order, n_new)


def syzygies(gb: GroebnerBasis, n_gens: int) -> List[List[Polynomial]]:
    """
    Generators of the syzygies of the n_gens inputs `gb` was completed
    from, as dense rows of n_gens coefficients: the first level of
    Schreyer's frame over them (Schreyer's theorem), each column mapped
    back to input order.  The inputs must be nonzero and already a Groebner
    basis (gb.n_new == 0); otherwise, or if n_gens is not the number of
    inputs, ValueError.  Syzygies of other inputs are not computed here.
    """
    G = gb.elements
    if gb.n_new or len(G) != n_gens:
        raise ValueError("syzygies needs nonzero inputs that are already a "
                         f"Groebner basis: {n_gens} inputs, {len(G)} basis "
                         f"elements, {gb.n_new} of them new")
    if not G:
        return []
    perm = _position_first(G, gb.order)
    elems = [G[k] for k in perm]
    cols, _ = _schreyer_level(elems, gb.order, _frame_pairs(
        [f.leading(gb.order)[:2] for f in elems]))
    zero = Polynomial.zero(G[0].ambient.n_vars)
    rows = [{perm[i]: p for i, p in col.coords.items()} for col in cols]
    return [[row.get(k, zero) for k in range(n_gens)] for row in rows]


def free_resolution(gens: Sequence[FreeModElem], order: ModOrder):
    """
    Schreyer's graded free resolution ... -> F_1 -> F_0 (-> M -> 0) of the
    module M generated by `gens`.  Returns (degrees, diffs): degrees[k] is
    the list of generator degrees of F_k; diffs[k] is the map F_{k+1} ->
    F_k as one sparse column {F_k index: Polynomial} per generator of
    F_{k+1}, with no zero entries.

    F_0 is free on the Groebner basis that `buchberger` completes `gens`
    to, the one completion; every level above is one `_schreyer_level` on
    the pairs of `_frame_shape`.  In the order of that step level k's
    leading monomials miss the top k variables, so there are at most n_vars
    levels after F_0 (Eisenbud, Commutative Algebra, Cor. 15.11).
    """
    gb = buchberger(gens, order)
    return _schreyer_frame(
        [gb.elements[k] for k in _position_first(gb.elements, order)], order)


def _position_first(elems: Sequence[FreeModElem], order: ModOrder
                    ) -> List[int]:
    """The indices of `elems` in ascending order of leading position and
    then of leading monomial, the order in which Schreyer's frame lists
    them."""
    def key(k: int):
        g, exp, _ = elems[k].leading(order)
        return g, exp[::-1]
    return sorted(range(len(elems)), key=key)


def _frame_pairs(leads: Sequence[Tuple[int, Mono]]):
    """
    The pairs (a, ua, b, ub) whose S-pairs give one level of Schreyer's
    frame, in column order, over leading terms [(position, exponent)]
    `leads`: for a < b in one position and m the lcm of their monomials,
    ua = m/m_a and ub = m/m_b.  Per b, the ub that minimally generate are
    enough (Schreyer's theorem), each from its first a, in ascending order.
    """
    buckets: Dict[int, List[Tuple[Mono, int]]] = {}
    for k, (g, e) in enumerate(leads):
        buckets.setdefault(g, []).append((e, k))
    out = []
    # positions and indices ascend together, so b ascends
    for bucket in buckets.values():
        for t, (mb, b) in enumerate(bucket):
            pairs: Dict[Mono, Tuple[Mono, int]] = {}
            for ma, a in bucket[:t]:
                pairs.setdefault(_mono_sub(_mono_lcm(ma, mb), mb), (ma, a))
            kept: List[Mono] = []
            # ascending, so a divisor of ub comes before ub
            for ub in sorted(pairs, key=lambda u: u[::-1]):
                if any(all(map(le, v, ub)) for v in kept):
                    continue
                kept.append(ub)
                ma, a = pairs[ub]
                out.append((a, _mono_sub(tuple(map(add, mb, ub)), ma), b, ub))
    return out


def _frame_cap(size: int) -> None:
    """ValueError if a frame of `size` generators would top ALL_CAP."""
    if size > ALL_CAP:
        raise ValueError(f"the frame tops ALL_CAP = {ALL_CAP} generators")


def _frame_shape(elems: Sequence[FreeModElem], order: ModOrder):
    """(degrees, levels): the degrees of every F_k of `_schreyer_frame`
    over `elems`, and the `_frame_pairs` of every F_k above F_0, with no
    column built: the column of (a, ua, b, ub) leads with ub E_b.
    ValueError before a level takes the frame past ALL_CAP generators."""
    degrees = [[f.homogeneous_degree() for f in elems]] if elems else []
    levels = []
    pairs = _frame_pairs([f.leading(order)[:2] for f in elems])
    while pairs:
        _frame_cap(len(pairs) + sum(map(len, degrees)))
        levels.append(pairs)
        degrees.append([2 * sum(ub) + degrees[-1][b] for _, _, b, ub in pairs])
        pairs = _frame_pairs([(b, ub) for _, _, b, ub in pairs])
    return degrees, levels


def _schreyer_level(elems: Sequence[FreeModElem], order: ModOrder, pairs):
    """
    (cols, upper): the columns of one level of Schreyer's frame over the
    Groebner basis `elems` under `order`, one per pair of `_frame_pairs`,
    and the order `upper` that `elems` induce, under which they are again a
    Groebner basis.  With c the leading coefficients, the S-pair ua f_a /
    c_a - ub f_b / c_b reduces to sum q_k f_k, and the syzygy ua E_a / c_a
    - ub E_b / c_b - sum q_k E_k leads with ub E_b.
    """
    index = _LeadIndex(elems, order)
    leads = [f.leading(order) for f in elems]
    shifts = elems[0].ambient.gen_degrees
    amb = FreeModule(elems[0].ambient.n_vars,
                     tuple(2 * sum(e) + shifts[g] for g, e, _ in leads))
    upper = ModOrder(tuple(order.rank[g] for g, _, _ in leads),
                     tuple(tuple(map(add, e, order.shift[g]))
                           for g, e, _ in leads))
    cols = []
    for a, ua, b, ub in pairs:
        xa, xb = _ratio(1, leads[a][2]), _ratio(-1, leads[b][2])
        quots, rem = reduce_elem(
            _spair(elems[a], ua, xa, elems[b], ub, xb), index, order)
        if rem.terms:
            raise InvariantError("an S-pair of a Groebner basis left a "
                                 "remainder")
        # every q_k E_k is below both pair terms: no key repeats
        terms = {(a, ua): xa, (b, ub): xb}
        for k, q in quots.items():
            for e, c in q.terms.items():
                terms[(k, e)] = -c
        col = FreeModElem._raw(amb, terms)
        col._leads[upper] = (b, ub, xb)
        cols.append(col)
    return cols, upper


def _schreyer_frame(elems: Sequence[FreeModElem], order: ModOrder, shape=None):
    """The resolution of `free_resolution` over its basis `elems`, listed
    by `_position_first`, on `shape` (`_frame_shape` when None)."""
    if not elems:
        return [[]], []
    degrees, levels = shape or _frame_shape(elems, order)
    diffs: List[List[Dict[int, Polynomial]]] = []
    for pairs in levels:
        elems, order = _schreyer_level(elems, order, pairs)
        diffs.append([f.coords for f in elems])
    return degrees, diffs


def minimize_resolution(degrees, diffs):
    """
    Cancel unit entries (Gaussian elimination for complexes) in the sparse
    columns of `free_resolution`; returns the minimized (degrees, diffs) in
    the same format, with no unit entry in any differential and the
    surviving generators renumbered in order.  Pivots are taken as dense
    elimination takes them: the lowest level with a unit first (a
    cancellation never puts a unit into a lower level, so each level is
    finished before the next), and within it the first unit in row-major
    order of the current matrix.
    """
    degs = [dict(enumerate(level)) for level in degrees]
    cols = [dict(enumerate(dict(col) for col in level)) for level in diffs]
    for k, M in enumerate(cols):
        while True:
            units = [(i, j) for j, col in M.items()
                     for i, p in col.items() if p.is_constant()]
            if not units:
                break
            i0, j0 = min(units)
            pivot = M.pop(j0)
            inv = Fraction(1, pivot.pop(i0).constant_value())
            # corrected differential on the complement of row i0, column j0
            for col in M.values():
                if i0 not in col:
                    continue
                a = col.pop(i0).scale(inv)
                for i, p in pivot.items():
                    corr = col[i] - p * a if i in col else -(p * a)
                    if corr.is_zero():
                        del col[i]
                    else:
                        col[i] = corr
            del degs[k][i0], degs[k + 1][j0]
            if k + 1 < len(cols):   # upstream differential: drop row j0
                for col in cols[k + 1].values():
                    col.pop(j0, None)
            if k > 0:               # downstream differential: drop column i0
                del cols[k - 1][i0]
    pos = [{i: r for r, i in enumerate(level)} for level in degs]
    degrees = [list(level.values()) for level in degs]
    diffs = [[{pos[k][i]: p for i, p in col.items()} for col in M.values()]
             for k, M in enumerate(cols)]
    # drop trailing empty levels
    while degrees and not degrees[-1]:
        degrees.pop()
        if diffs:
            diffs.pop()
    return degrees, diffs


def resolution_ranks(degrees) -> List[GradedRank]:
    """One GradedRank per homological degree: a generator of degree d
    contributes v^{-d}."""
    out = []
    for level in degrees:
        gr = GradedRank.constant(0)
        for d in level:
            gr = gr + GradedRank.v_power(-d)
        out.append(gr)
    return out


def pd(gens: Sequence[FreeModElem], order: ModOrder):
    """(pd, degrees of the minimal resolution, each level in ascending
    order), as `certified_pd` finds them."""
    return certified_pd(gens, order)[:2]


def certified_pd(gens: Sequence[FreeModElem], order: ModOrder):
    """(pd, degrees, certified): certified when no two consecutive levels
    of the frame's shape share a degree, so the frame is minimal and no
    column is built; otherwise the shape's columns are minimized."""
    gb = buchberger(gens, order)
    elems = [gb.elements[k] for k in _position_first(gb.elements, order)]
    shape = degrees, _ = _frame_shape(elems, order)
    certified = not any(set(a) & set(b) for a, b in zip(degrees, degrees[1:]))
    if not certified:
        degrees = minimize_resolution(*_schreyer_frame(elems, order, shape))[0]
    return len(degrees) - 1, [sorted(level) for level in degrees], certified


# -- string modules ----------------------------------------------------------

def coordinate_change(roots: Sequence[Polynomial]):
    """
    Check linear independence of the degree-2 forms and return
    (n, matrix rows as Fraction lists, completion size m) describing the
    invertible substitution sending root i to the fresh variable x_i,
    completed by m standard coordinates y_1..y_m.
    """
    if not roots:
        raise ValueError("no roots")
    rows, pivots = _linear_rows(roots, "roots must be linear forms")
    if len(pivots) != len(roots):
        raise ValueError("roots are linearly dependent")
    return len(roots), rows, roots[0].n - len(pivots)


def st_ambient(n: int, extra: int) -> Tuple[FreeModule, ModOrder]:
    """Ambient R^{n-1} for St on n roots with `extra` spare variables, with
    the order e_{n-1} > ... > e_1 and lex on y_m > ... > y_1 > x_n > ... > x_1."""
    if n < 2:
        raise ValueError("need at least two roots")
    nv = n + extra
    amb = FreeModule(nv, (0,) * (n - 1))
    order = ModOrder.standard(n - 1, nv)
    return amb, order


def st_generators(n: int, extra: int = 0) -> List[FreeModElem]:
    """The p_{i,j} = x_i x_j (e_i + ... + e_{j-1}), 1 <= i < j <= n."""
    amb, _ = st_ambient(n, extra)
    nv = amb.n_vars
    out = []
    for i, j in combinations(range(1, n + 1), 2):
        prod = Polynomial.var(nv, i) * Polynomial.var(nv, j)
        out.append(FreeModElem(amb, {k - 1: prod for k in range(i, j)}))
    return out


def check_st_frame(n: int) -> None:
    """`_frame_cap` on the frame of `st_generators(n)`, with nothing built:
    it has 2^n - 1 - n generators, as `_frame_shape` counts them.  An n
    two past the cap's bit length is refused without forming 2^n."""
    _frame_cap(ALL_CAP + 1 if n > ALL_CAP.bit_length() + 1
               else 2 ** n - 1 - n)


def st_membership(f: FreeModElem, n: int) -> bool:
    """The defining congruences: x_1 | f_1, x_k | (f_k - f_{k-1}) for
    1 < k < n, and x_n | f_{n-1}."""
    from .polyring import try_exact_div
    nv = f.ambient.n_vars
    if f.ambient.rank != n - 1:
        raise ValueError("rank mismatch")

    def divides(var: int, p: Polynomial) -> bool:
        return p.is_zero() or try_exact_div(p, Polynomial.var(nv, var)) is not None

    if not divides(1, f.coord(0)):
        return False
    for k in range(2, n):
        if not divides(k, f.coord(k - 1) - f.coord(k - 2)):
            return False
    return divides(n, f.coord(n - 2))


def _pair_index(n: int):
    pairs = list(combinations(range(1, n + 1), 2))
    return pairs, {p: k for k, p in enumerate(pairs)}


def _pair_order(n: int, n_vars: int) -> ModOrder:
    """POT order with e_{i,j} > e_{k,l} iff j > l, or j = l and i < k."""
    pairs, _ = _pair_index(n)
    # i < j <= n, so n j - i orders by j first and then by -i
    return ModOrder(tuple(n * j - i for i, j in pairs),
                    ((0,) * n_vars,) * len(pairs))


def q_generators(n: int, extra: int = 0):
    """The q_{i,j,k} = x_j e_{i,k} - x_k e_{i,j} - x_i e_{j,k} inside the
    free module on the e_{i,j} (degree 4), generating ker(e_{i,j} -> p_{i,j})."""
    nv = n + extra
    pairs, idx = _pair_index(n)
    amb = FreeModule(nv, (4,) * len(pairs))
    order = _pair_order(n, nv)
    out = []
    for i, j, k in combinations(range(1, n + 1), 3):
        out.append(FreeModElem(amb, {
            idx[(i, k)]: Polynomial.var(nv, j),
            idx[(i, j)]: -Polynomial.var(nv, k),
            idx[(j, k)]: -Polynomial.var(nv, i),
        }))
    return out, amb, order


def theta_generators(n: int, extra: int = 0):
    """The theta^(h) generating the dual of St, inside the free module on
    the coordinate functionals e*_{i,j} (degree -4)."""
    if n < 3:
        raise ValueError("the dual Groebner basis needs n >= 3")
    nv = n + extra
    pairs, idx = _pair_index(n)
    amb = FreeModule(nv, (-4,) * len(pairs))
    order = _pair_order(n, nv)
    out = []
    for h in range(1, n + 1):
        coords = {}
        for i in range(1, h):
            coords[idx[(i, h)]] = Polynomial.var(nv, i)
        for k in range(h + 1, n + 1):
            coords[idx[(h, k)]] = -Polynomial.var(nv, k)
        out.append(FreeModElem(amb, coords))
    return out, amb, order


def dual_toolkit(n: int, extra: int = 0) -> dict:
    """
    Construct the theta^(h) and w = sum x_h eps_h and verify: the triple
    relations hold for every theta^(h); sum_h x_h theta^(h) = 0; the
    theta^(h) are already a Groebner basis; the syzygy module of the
    theta^(h) is generated by w; and the two-term resolution
    0 -> R -> R(2)^n -> dual -> 0 is minimal.
    """
    thetas, amb, order = theta_generators(n, extra)
    nv = amb.n_vars
    pairs, idx = _pair_index(n)
    report = {"n": n, "extra": extra}

    # triple relations x_k th_{i,j} + x_i th_{j,k} = x_j th_{i,k}; theta^(h)
    # is zero on the pairs without h, so a triple without h reads 0 = 0
    ok = True
    zero = Polynomial.zero(nv)
    x = [None] + [Polynomial.var(nv, v) for v in range(1, n + 1)]
    for h, th in enumerate(thetas, start=1):
        coords = th.coords
        entry = {p: coords.get(idx[p], zero) for p in pairs}
        for a, b in combinations([v for v in range(1, n + 1) if v != h], 2):
            i, j, k = sorted((a, b, h))
            if (x[k] * entry[(i, j)] + x[i] * entry[(j, k)]
                    != x[j] * entry[(i, k)]):
                ok = False
    report["triple_relations"] = ok

    # sum x_h theta^(h) = 0
    acc = FreeModElem(amb, {})
    for h, th in enumerate(thetas, start=1):
        acc = acc + th.scale_poly(Polynomial.var(nv, h))
    report["sum_zero"] = acc.is_zero()

    # Groebner: completion adds nothing
    gb = buchberger(thetas, order)
    report["theta_groebner"] = gb.n_new == 0

    # the one resolution, from the one completion gb; when the thetas are
    # the basis, its first level, read in theta order, generates their
    # syzygies, and each must reduce to a multiple of w
    perm = _position_first(gb.elements, order)
    resolution = _schreyer_frame([gb.elements[k] for k in perm], order)
    eps_amb = FreeModule(nv, (-2,) * n)
    eps_order = ModOrder.standard(n, nv)
    w = FreeModElem(eps_amb, {h: Polynomial.var(nv, h + 1) for h in range(n)})
    all_in_w = report["theta_groebner"] and all(
        reduce_elem(FreeModElem(eps_amb, {perm[i]: p for i, p in col.items()}),
                    [w], eps_order)[1].is_zero()
        for level in resolution[1][:1] for col in level)
    # and w is itself a syzygy (sum_zero already says so)
    report["kernel_is_w"] = all_in_w and report["sum_zero"]

    # minimal resolution shape 0 -> R -> R(2)^n -> dual -> 0
    degrees = [sorted(level) for level in minimize_resolution(*resolution)[0]]
    report["resolution_degrees"] = degrees
    report["pd"] = len(degrees) - 1
    report["shape_ok"] = (degrees[0] == [-2] * n
                          and len(degrees) == 2 and degrees[1] == [0])
    return report
