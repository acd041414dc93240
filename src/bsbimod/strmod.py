"""
Graded free modules over a polynomial ring with position-over-term monomial
orders: division, Buchberger completion, graded free resolutions with
minimization, projective dimension, and the string modules St_R(x) together
with their duals.  Buchberger reduces each S-pair once, and its reductions
to zero, written through sparse representations of the basis elements in
the input generators, are the syzygies each resolution step is free on
(Schreyer's theorem).  Those sparse rows are the differentials, and
minimization cancels units on them.

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
    "q_generators", "theta_generators", "dual_toolkit",
    "minimize_resolution", "resolution_ranks",
]

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .polyring import (Polynomial, GradedRank, InvariantError, Scalar,
                       _linear_rows)

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
    """POT order: compare the generator (by priority) first, then the
    monomial lexicographically in descending variable index."""
    gen_priority: Tuple[int, ...]   # 0-based generator indices, greatest first

    @cached_property
    def rank(self) -> Dict[int, int]:
        """{generator: rank}; smaller rank = greater generator."""
        return {g: r for r, g in enumerate(self.gen_priority)}

    @staticmethod
    def mono_key(exp: Mono) -> Mono:
        return exp[::-1]

    @staticmethod
    def standard(rank: int) -> "ModOrder":
        """e_rank > ... > e_1."""
        return ModOrder(tuple(range(rank - 1, -1, -1)))


class FreeModElem:
    """Element of a graded free module, coordinates by generator index."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: FreeModule, coords: Mapping[int, Polynomial]):
        clean = {}
        for g, p in dict(coords).items():
            if not 0 <= g < ambient.rank:
                raise ValueError(f"generator index {g} out of range")
            if p.n != ambient.n_vars:
                raise ValueError("coordinate rank mismatch")
            if not p.is_zero():
                clean[g] = p
        self.ambient = ambient
        self.coords = clean

    def is_zero(self) -> bool:
        return not self.coords

    def coord(self, g: int) -> Polynomial:
        return self.coords.get(g, Polynomial.zero(self.ambient.n_vars))

    def __add__(self, other: "FreeModElem") -> "FreeModElem":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        coords = dict(self.coords)
        for g, p in other.coords.items():
            coords[g] = coords.get(g, Polynomial.zero(p.n)) + p
        return FreeModElem(self.ambient, coords)

    def __sub__(self, other: "FreeModElem") -> "FreeModElem":
        return self + other.scale_poly(Polynomial.const(self.ambient.n_vars, -1))

    def scale_poly(self, p: Polynomial) -> "FreeModElem":
        return FreeModElem(self.ambient,
                           {g: p * q for g, q in self.coords.items()})

    def mono_mul(self, exp: Mono, c: Scalar) -> "FreeModElem":
        mono = Polynomial(self.ambient.n_vars, {tuple(exp): c})
        return self.scale_poly(mono)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeModElem)
                and self.ambient == other.ambient
                and self.coords == other.coords)

    def __hash__(self):
        raise TypeError("FreeModElem is unhashable")

    def homogeneous_degree(self) -> Optional[int]:
        degs = set()
        for g, p in self.coords.items():
            degs.add(p.homogeneous_degree() + self.ambient.gen_degrees[g])
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("not homogeneous")
        return degs.pop()

    def leading(self, order: ModOrder):
        """(gen, exponent, coefficient) of the leading term: the greatest
        monomial of the top-ranked coordinate."""
        if not self.coords:
            raise ValueError("zero element has no leading term")
        g = min(self.coords, key=order.rank.__getitem__)
        terms = self.coords[g].terms
        exp = max(terms, key=order.mono_key)
        return g, exp, terms[exp]

    def __repr__(self) -> str:
        body = " + ".join(f"({p})*E{g}" for g, p in sorted(self.coords.items()))
        return f"FreeModElem[{body or '0'}]"


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(b: Mono, a: Mono) -> Mono:
    return tuple(y - x for x, y in zip(a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_elem(f: FreeModElem, G: Sequence[FreeModElem], order: ModOrder):
    """Full division: f = sum q_k G_k + r with no term of r divisible by any
    leading monomial of G.  Returns (quotients list, remainder)."""
    n = f.ambient.n_vars
    lead = [(g.leading(order) if not g.is_zero() else None) for g in G]
    qs: List[Dict[Mono, Scalar]] = [dict() for _ in G]
    rem = FreeModElem(f.ambient, {})
    cur = f
    while not cur.is_zero():
        g0, exp0, c0 = cur.leading(order)
        hit = None
        for k, ld in enumerate(lead):
            if ld is None:
                continue
            lg, lexp, lc = ld
            if lg == g0 and _mono_divides(lexp, exp0):
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
    quotients = [Polynomial(n, q) for q in qs]
    return quotients, rem


@dataclass
class GroebnerBasis:
    elements: List[FreeModElem]
    order: ModOrder
    n_new: int = 0   # how many elements were added beyond the input
    # generators of the syzygies of the input, rows {input index: coefficient}
    syzygies: List[Dict[int, Polynomial]] = field(default_factory=list)


def _combine(terms, reps) -> Dict[int, Polynomial]:
    """sum c * reps[k] over the (k, c) in `terms`, zero entries dropped."""
    row: Dict[int, Polynomial] = {}
    for k, c in terms:
        for col, p in reps[k].items():
            row[col] = row[col] + c * p if col in row else c * p
    return {col: p for col, p in row.items() if not p.is_zero()}


def buchberger(gens: Sequence[FreeModElem], order: ModOrder) -> GroebnerBasis:
    """
    Buchberger completion keeping the input generators, which reduces each
    S-pair s = u_i m_i G_i - u_j m_j G_j once, to s = sum q_k G_k + r.
    Every element carries its representation in the inputs, a row
    {input index: coefficient}.  If r = 0, the relation u_i m_i E_i -
    u_j m_j E_j - sum q_k E_k, written through those rows, is a syzygy of
    the inputs; otherwise r / lc(r) joins the basis with that relation over
    lc(r) as its row.  The syzygies so found generate them all (Schreyer's
    theorem; the relation of a pair that added an element transports to
    zero, and the inputs are among the basis).
    """
    nz = [k for k, g in enumerate(gens) if not g.is_zero()]
    G = [gens[k] for k in nz]
    if not G:
        return GroebnerBasis([], order)
    n = G[0].ambient.n_vars
    reps = [{k: Polynomial.one(n)} for k in nz]
    lead = [g.leading(order) for g in G]
    syz: List[Dict[int, Polynomial]] = []
    # only leading terms in the same position make an S-pair; the list grows
    # while it is walked
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))
             if lead[i][0] == lead[j][0]]
    n_new = 0
    for i, j in pairs:
        _, ei, ci = lead[i]
        _, ej, cj = lead[j]
        lcm = _mono_lcm(ei, ej)
        mi = Polynomial(n, {_mono_sub(lcm, ei): Fraction(1, ci)})
        mj = Polynomial(n, {_mono_sub(lcm, ej): Fraction(-1, cj)})
        quots, rem = reduce_elem(G[i].scale_poly(mi) + G[j].scale_poly(mj),
                                 G, order)
        terms = [(i, mi), (j, mj)]
        terms += [(k, -q) for k, q in enumerate(quots) if not q.is_zero()]
        row = _combine(terms, reps)
        if rem.is_zero():
            if row:
                syz.append(row)
            continue
        inv = Fraction(1, rem.leading(order)[2])
        G.append(rem.scale_poly(Polynomial.const(n, inv)))
        reps.append({col: p.scale(inv) for col, p in row.items()})
        lead.append(G[-1].leading(order))
        pairs.extend((k, len(G) - 1) for k in range(len(G) - 1)
                     if lead[k][0] == lead[-1][0])
        n_new += 1
    return GroebnerBasis(G, order, n_new, syz)


def syzygies(gb: GroebnerBasis, n_gens: int) -> List[List[Polynomial]]:
    """The syzygies of the n_gens generators `gb` was completed from, as
    recorded by `buchberger`: dense rows of n_gens coefficients."""
    if not gb.syzygies:
        return []
    zero = Polynomial.zero(gb.elements[0].ambient.n_vars)
    return [[row.get(k, zero) for k in range(n_gens)] for row in gb.syzygies]


def free_resolution(gens: Sequence[FreeModElem], order: ModOrder,
                    max_len: int = 12):
    """
    A graded free resolution ... -> F_1 -> F_0 (-> M -> 0) of the module
    generated by `gens`.  Returns (degrees, diffs): degrees[k] is the list
    of generator degrees of F_k; diffs[k] is the map F_{k+1} -> F_k as one
    sparse column {F_k index: Polynomial} per generator of F_{k+1}, with no
    zero entries.  F_{k+1} is free on the syzygies `buchberger` records for
    the generators of F_k, and those records are the columns.  Raises if
    max_len is reached before they vanish.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [[]], []
    n = gens[0].ambient.n_vars
    degrees = [[g.homogeneous_degree() for g in gens]]
    diffs: List[List[Dict[int, Polynomial]]] = []
    current = list(gens)
    cur_order = order
    for _ in range(max_len):
        cols = buchberger(current, cur_order).syzygies
        if not cols:
            return degrees, diffs
        amb = FreeModule(n, tuple(degrees[-1]))
        current = [FreeModElem(amb, col) for col in cols]
        degrees.append([e.homogeneous_degree() for e in current])
        diffs.append(cols)
        cur_order = ModOrder.standard(amb.rank)
    raise RuntimeError(f"resolution not finished within {max_len} steps")


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


def pd(gens: Sequence[FreeModElem], order: ModOrder, max_len: int = 12):
    """Projective dimension via the minimized resolution.  Returns
    (pd, degrees of the minimal resolution)."""
    degrees, diffs = free_resolution(gens, order, max_len)
    degrees, diffs = minimize_resolution(degrees, diffs)
    return len(degrees) - 1, degrees


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
    order = ModOrder.standard(n - 1)
    return amb, order


def st_generators(n: int, extra: int = 0) -> List[FreeModElem]:
    """The p_{i,j} = x_i x_j (e_i + ... + e_{j-1}), 1 <= i < j <= n."""
    amb, _ = st_ambient(n, extra)
    nv = amb.n_vars
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi = Polynomial.var(nv, i)
            xj = Polynomial.var(nv, j)
            prod = xi * xj
            coords = {k - 1: prod for k in range(i, j)}
            out.append(FreeModElem(amb, coords))
    return out


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
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    idx = {p: k for k, p in enumerate(pairs)}
    return pairs, idx


def _pair_order(n: int) -> ModOrder:
    """POT order with e_{i,j} > e_{k,l} iff j > l, or j = l and i < k."""
    pairs, idx = _pair_index(n)
    ranked = sorted(pairs, key=lambda p: (-p[1], p[0]))
    return ModOrder(tuple(idx[p] for p in ranked))


def q_generators(n: int, extra: int = 0):
    """The q_{i,j,k} = x_j e_{i,k} - x_k e_{i,j} - x_i e_{j,k} inside the
    free module on the e_{i,j} (degree 4), generating ker(e_{i,j} -> p_{i,j})."""
    nv = n + extra
    pairs, idx = _pair_index(n)
    amb = FreeModule(nv, (4,) * len(pairs))
    order = _pair_order(n)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
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
    order = _pair_order(n)
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

    # triple relations x_k th_{i,j} + x_i th_{j,k} = x_j th_{i,k}
    ok = True
    for th in thetas:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    lhs = (Polynomial.var(nv, k) * th.coord(idx[(i, j)])
                           + Polynomial.var(nv, i) * th.coord(idx[(j, k)]))
                    rhs = Polynomial.var(nv, j) * th.coord(idx[(i, k)])
                    if lhs != rhs:
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

    # syzygies reduce to multiples of w
    eps_amb = FreeModule(nv, (-2,) * n)
    eps_order = ModOrder.standard(n)
    w = FreeModElem(eps_amb, {h: Polynomial.var(nv, h + 1) for h in range(n)})
    all_in_w = all(
        reduce_elem(FreeModElem(eps_amb, row), [w], eps_order)[1].is_zero()
        for row in gb.syzygies)
    # and w is itself a syzygy (sum_zero already says so)
    report["kernel_is_w"] = all_in_w and report["sum_zero"]

    # minimal resolution shape 0 -> R -> R(2)^n -> dual -> 0
    degrees, diffs = free_resolution(thetas, order)
    degrees, diffs = minimize_resolution(degrees, diffs)
    report["resolution_degrees"] = degrees
    report["pd"] = len(degrees) - 1
    report["shape_ok"] = (degrees[0] == [-2] * n
                          and len(degrees) == 2 and degrees[1] == [0])
    return report
