"""
Functions on subexpression sets valued in the polynomial ring: the
localization image, signed divisibility sums, membership tests for the
X-modules, the Delta/nabla bases in closed form, exact coefficient
extraction by divided differences, and the weighted inner product.
"""

__all__ = [
    "FnOnSub", "DecoTree",
    "res_tensor", "sigma", "membership",
    "basis", "nabla_X", "mu", "express_in_basis",
    "inner", "pairing_matrix",
]

from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import add
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .polyring import (Polynomial, RationalFn, exact_div, try_exact_div,
                       _clean, _pack, _power_divides)
from .coxeter import Permutation, ReflExpr
from .subexpr import (ALL_CAP, Subexpr, SubSet, enumerate_sub,
                      _fold_members, _fold_template, _indices, _prefix_walk,
                      _root)

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class FnOnSub:
    """A function from a subexpression set to polynomials, keyed by every
    member in member order."""
    domain: SubSet
    values: Mapping[Bits, Polynomial]

    def __post_init__(self):
        n = self.domain.expr.n
        vals = {tuple(b): v for b, v in dict(self.values).items()}
        if any(v.n != n for v in vals.values()):
            raise ValueError(f"a value is not in the rank-{n} polynomial "
                             "ring of the domain")
        extra = sorted(b for b in vals if b not in self.domain)
        if extra:
            raise ValueError(f"values off the domain: {extra[:3]}")
        zero = Polynomial.zero(n)
        object.__setattr__(self, "values", {b: vals.get(b, zero)
                                            for b in self.domain.members})

    @classmethod
    def _of(cls, domain: SubSet, values: Dict[Bits, Polynomial]) -> "FnOnSub":
        """`values`, keyed by `domain.members`, taken unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "values", values)
        return out

    # -- access ------------------------------------------------------------

    def __call__(self, eps) -> Polynomial:
        bits = eps.bits if isinstance(eps, Subexpr) else tuple(eps)
        return self.values[bits]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def support(self) -> Tuple[Bits, ...]:
        return tuple(b for b in self.domain.members if not self.values[b].is_zero())

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of the nonzero values (None if zero);
        raises if values are inhomogeneous or of unequal degree."""
        degs = {v.homogeneous_degree() for v in self.values.values()
                if not v.is_zero()}
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("values of different degrees")
        return degs.pop()

    # -- module operations ---------------------------------------------------

    def _check(self, other: "FnOnSub"):
        if self.domain != other.domain:
            raise ValueError("domain mismatch")

    def __add__(self, other: "FnOnSub") -> "FnOnSub":
        self._check(other)
        return self._of(self.domain, {
            b: v + w if w.terms else v
            for (b, v), w in zip(self.values.items(), other.values.values())})

    def __sub__(self, other: "FnOnSub") -> "FnOnSub":
        self._check(other)
        return self._of(self.domain, {b: self.values[b] - other.values[b]
                                      for b in self.domain.members})

    def left_mul(self, r: Polynomial) -> "FnOnSub":
        if r.n != self.domain.expr.n:
            raise ValueError(f"rank mismatch: {self.domain.expr.n} != {r.n}")
        return self._of(self.domain, {b: r * v if v.terms else v
                                      for b, v in self.values.items()})

    def __mul__(self, other: "FnOnSub") -> "FnOnSub":
        self._check(other)
        return self._of(self.domain, {b: self.values[b] * other.values[b]
                                      for b in self.domain.members})

    def restrict_to(self, sub: SubSet) -> "FnOnSub":
        """Restriction to a smaller domain over the same expression."""
        if not set(sub.members) <= set(self.domain.members):
            raise ValueError("not a subdomain")
        return FnOnSub(sub, {b: self.values[b] for b in sub.members})

    def __eq__(self, other) -> bool:
        return (isinstance(other, FnOnSub) and self.domain == other.domain
                and self.values == other.values)

    def __hash__(self):
        raise TypeError("FnOnSub is unhashable")

    def to_json(self) -> dict:
        obj = {"expr": self.domain.expr.to_json(),
               "values": [{"bits": "".join(map(str, b)),
                           "poly": self.values[b].to_json()}
                          for b in self.domain.members]}
        if self.domain.target is not None:
            obj["target"] = list(self.domain.target.images)
        return obj

    @staticmethod
    def from_json(obj: dict) -> "FnOnSub":
        expr = ReflExpr.from_json(obj["expr"])
        tgt = Permutation(tuple(obj["target"])) if "target" in obj else "all"
        dom = enumerate_sub(expr, tgt)
        vals = {tuple(int(c) for c in item["bits"]):
                Polynomial.from_json(item["poly"]) for item in obj["values"]}
        return FnOnSub(dom, vals)


def unit(domain: SubSet) -> FnOnSub:
    one = Polynomial.one(domain.expr.n)
    return FnOnSub(domain, {b: one for b in domain.members})


def indicator(domain: SubSet, bits_set) -> FnOnSub:
    keep = {tuple(b) for b in bits_set}
    one = Polynomial.one(domain.expr.n)
    return FnOnSub(domain, {b: one for b in domain.members if b in keep})


def res_tensor(t: ReflExpr, a: Sequence[Polynomial]) -> FnOnSub:
    """The localization of the pure tensor a_1 x ... x a_{m+1}: the value at
    eps is prod_i eps^{<i}(a_i), with eps^{<m+1} the full product.  One
    depth-first walk of the prefix tree of Sub(t), bit 0 before bit 1: a
    node at depth i holds the one-line prefix eps^{<i+1}, updated by one
    swap, and the partial product over l <= i+1, shared by every member
    below it.  A partial product is a dict on exponents packed as
    `polyring._pack` packs them, with w the bit length of the sum D of
    the factors' top total degrees: D bounds every exponent, so nothing
    carries, and the image of a factor under the prefix shifts each of its
    exponents into the permuted field.  Each distinct packed monomial of
    the leaves is unpacked once, into one exponent tuple that every leaf
    shares."""
    m, n = len(t), t.n
    if len(a) != m + 1:
        raise ValueError(f"need {m + 1} tensor factors, got {len(a)}")
    for f in a:
        if f.n != n:
            raise ValueError(f"rank mismatch: {n} != {f.n}")
    dom = enumerate_sub(t, "all")
    w = sum(max(map(sum, f.terms), default=0) for f in a).bit_length() or 1
    one = {(0,) * n: 1}
    # per factor: None for the constant 1, else its terms as
    # ((variable, exponent) pairs, coefficient)
    factors = [None if f.terms == one else
               [(tuple((j, k) for j, k in enumerate(x) if k), c)
                for x, c in f.terms.items()] for f in a]
    fractional = any(type(c) is not int for f in a for c in f.terms.values())
    trans = [(r.i - 1, r.j - 1) for r in t.entries]
    shifts = range(0, w * n, w)
    pos = list(shifts)   # pos[j]: the field of eps^{<i+1}(e_j)
    leaves = []

    def walk(i: int, val: dict):
        if factors[i] is not None:
            image = [(sum(k << pos[j] for j, k in x), c)
                     for x, c in factors[i]]
            out: dict = {}
            get = out.get
            for x, c1 in val.items():
                for y, c2 in image:
                    z = x + y
                    out[z] = get(z, 0) + c1 * c2
            val = _clean(out) if fractional or 0 in out.values() else out
        if i == m:
            leaves.append(val)
            return
        walk(i + 1, val)
        x, y = trans[i]
        pos[x], pos[y] = pos[y], pos[x]
        walk(i + 1, val)
        pos[x], pos[y] = pos[y], pos[x]

    walk(0, {0: 1})
    mask = (1 << w) - 1
    exps = {x: tuple(x >> s & mask for s in shifts)
            for x in set().union(*leaves)}
    return FnOnSub._of(dom, {
        b: Polynomial._of(n, {exps[x]: c for x, c in leaf.items()})
        for b, leaf in zip(dom.members, leaves)})


def _signed_sum(g: FnOnSub, terms) -> Polynomial:
    """The sum of sign * g(member j) over (j, sign) in terms."""
    members = g.domain.members
    out = Polynomial.zero(g.domain.expr.n)
    for j, sign in terms:
        value = g.values[members[j]]
        out = out + value if sign > 0 else out - value
    return out


def sigma(g: FnOnSub, eps: Subexpr, X: Sequence[int], variant: str = "full"
          ) -> Polynomial:
    """Sigma_X^eps(g) = sum over Y subset X of (-1)^{|Y|_X} g(f_Y eps),
    over all subsets ("full") or only even ones ("even").  ValueError for
    any other variant, for eps outside the domain, or for X not inside a
    single M_p(eps)."""
    if variant not in ("full", "even"):
        raise ValueError(f"unknown variant {variant!r}: 'full' or 'even'")
    an = g.domain.analysis()
    i, X = an.require(eps), set(X)
    if not X:
        return g(eps)
    for _, Mp, folds in an.per_p[i]:
        if X <= set(Mp):
            S = sum(1 << b for b, x in enumerate(Mp) if x in X)
            _, Ys, signs = _fold_template(S, variant != "full")
            return _signed_sum(g, zip(_fold_members(folds, Ys), signs))
    raise ValueError("X must lie inside a single M_p(eps)")


def membership(g: FnOnSub, kind: str, Phi=None):
    """
    Membership with certificate.  Kinds:
      "X(t)" : full-variant divisibility by alpha_p^{|X|} over Sub(t);
      "Xw"   : even-variant divisibility by alpha_p^{|X|-1} over Sub(t,w);
      "X^w"  : even-variant divisibility by alpha_p^{|X|} over Sub(t,w);
      "XwPhi": "Xw" plus vanishing on Phi, a `SubSet` or bit tuples.
    Returns (True, None) or (False, (eps, p, X)) with the lexicographically
    least violation ((eps, "vanish", None) for a Phi violation).
    ValueError for an unknown kind, a domain the kind does not apply to,
    Phi missing for "XwPhi" or given for another kind, a Phi over another
    expression, or a member of Phi outside the domain.  The nonzero
    values are scaled to int coefficients and packed once per call
    (`polyring._pack`), and each condition is one `_power_divides` call on
    the packed values its signed sum reads, skipping those on zero values
    alone when some value is zero (`SubAnalysis.condition_table`).
    """
    if kind == "X(t)":
        if g.domain.target is not None:
            raise ValueError("X(t) needs the full domain Sub(t)")
        variant, excess = "full", 0
    elif kind in ("Xw", "XwPhi"):
        if g.domain.target is None:
            raise ValueError(f"{kind} needs a target-restricted domain")
        variant, excess = "even", -1
    elif kind == "X^w":
        if g.domain.target is None:
            raise ValueError("X^w needs a target-restricted domain")
        variant, excess = "even", 0
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if kind == "XwPhi" and Phi is None:
        raise ValueError("XwPhi needs Phi")
    if kind != "XwPhi" and Phi is not None:
        raise ValueError(f"Phi applies to XwPhi, not {kind}")
    an, even = g.domain.analysis(), variant == "even"
    if Phi is not None:
        if isinstance(Phi, SubSet):
            if Phi.expr != g.domain.expr:
                raise ValueError("Phi is a set of subexpressions of another "
                                 "expression")
            Phi = Phi.members
        for i in _indices(an.mask_of(Phi)):
            if not g.values[an.members[i]].is_zero():
                return False, (Subexpr(g.domain.expr, an.members[i]),
                               "vanish", None)

    # one common denominator for the nonzero values: a nonzero scalar does
    # not change divisibility
    polys = list(g.values.values())
    table = None if all(f.terms for f in polys) else an.condition_table(even)
    if table is None:   # no zero value, or a fold leaves the set
        w, values = _pack(polys)
        conds = an.conditions(even)
    else:
        listed, touching = table
        w, packed = _pack([f for f in polys if f.terms])
        packed = iter(packed)
        values = [next(packed) if f.terms else {} for f in polys]
        conds = [listed[k] for k in sorted(set().union(
            *[touching[j] for j, f in enumerate(polys) if f.terms]))]
    for i, p, X, terms in conds:
        if not _power_divides(values, terms, w, p.i - 1, p.j - 1,
                              len(X) + excess):
            return False, (Subexpr(g.domain.expr, an.members[i]), p, X)
    return True, None


# -- bases -------------------------------------------------------------------

@dataclass(frozen=True)
class DecoTree:
    """
    The decoration data the basis consumes: a 0/1 label for every
    Delta/nabla path of length < m, where the path records the choices made
    from the last position of the expression downwards.
    """
    m: int
    labels: Mapping[Tuple[str, ...], int]

    def __post_init__(self):
        labels = {tuple(k): int(v) for k, v in dict(self.labels).items()}
        object.__setattr__(self, "labels", labels)
        for path in _paths(self.m):
            if path not in labels:
                raise ValueError(f"missing label for path {path}")
            if labels[path] not in (0, 1):
                raise ValueError("labels must be 0/1")

    @staticmethod
    def default(m: int) -> "DecoTree":
        return DecoTree(m, {path: 0 for path in _paths(m)})

    def label(self, path: Tuple[str, ...]) -> int:
        return self.labels[tuple(path)]


def _paths(m: int):
    """Every Delta/nabla path of length < m."""
    return (path for depth in range(m) for path in product("DN", repeat=depth))


def _concentrate(f: FnOnSub, j: int, e: int) -> FnOnSub:
    """[delta_j = e] delta^{->j} times f: one product per nonzero value of f
    at a member with bit e at position j, and zero elsewhere."""
    zero = Polynomial.zero(f.domain.expr.n)
    return FnOnSub._of(f.domain, {
        b: v * roots[j - 1] if v.terms and b[j - 1] == e else zero
        for (b, v), roots in zip(f.values.items(), f.domain.roots())})


def _nabla_product(dom: SubSet, conc: Mapping[int, int]) -> FnOnSub:
    """The product over positions i in conc of [delta_i = conc[i]] delta^{->i},
    evaluated at every delta of dom: the closed form of the ladder that
    concentrates at conc[i] on the positions in conc and copies elsewhere."""
    f = unit(dom)
    for i, e in conc.items():
        f = _concentrate(f, i, e)
    return f


def basis(t: ReflExpr, tree: Optional[DecoTree] = None) -> Dict[Tuple[str, ...], FnOnSub]:
    """
    The 2^m basis elements, indexed by words L in {D, N}^m read along the
    positions 1..m.  B(L) copies at every Delta position and concentrates at
    every nabla position j, at the label e_j(L) of the path
    (L_m, ..., L_{j+1}): B(L)(delta) is the product over the nabla positions
    j of [delta_j = e_j(L)] delta^{->j}.  All elements share one domain
    Sub(t).  B(L) is the element with a Delta at L's lowest nabla position
    j, whose labels above j agree, concentrated at e_j(L) on j.  ValueError,
    before anything is built, if the elements would hold more than ALL_CAP
    values in all (4^m > ALL_CAP, so m > 10).
    """
    m = len(t)
    if 4 ** m > ALL_CAP:
        raise ValueError(f"the basis of a length-{m} expression holds 4^{m} "
                         f"values, more than the cap ALL_CAP = {ALL_CAP}")
    if tree is None:
        tree = DecoTree.default(m)
    out = {("D",) * m: unit(enumerate_sub(t, "all"))}
    # rev = (L_m, ..., L_1) lists the words in the order of the recursive
    # construction, and rev[:m - j] is the path above position j
    for rev in islice(product("DN", repeat=m), 1, None):
        L = rev[::-1]
        j = L.index("N") + 1
        out[L] = _concentrate(out[L[:j - 1] + ("D",) + L[j:]], j,
                              tree.label(rev[:m - j]))
    return out


def nabla_X(eps: Subexpr, X: Sequence[int]) -> FnOnSub:
    """nabla_eps^X on Sub(t): copy at positions off X, concentration at
    eps_i on X."""
    m = len(eps)
    if not all(1 <= i <= m for i in X):
        raise ValueError(f"positions must lie in 1..{m}")
    return _nabla_product(enumerate_sub(eps.expr, "all"),
                          {i: eps.bits[i - 1] for i in sorted(set(X))})


def mu(eps: Subexpr, sub: Optional[SubSet] = None) -> FnOnSub:
    """mu_eps: nabla at every position, on Sub(t, target(eps)) unless sub is
    given; nonzero only at eps (when eps lies in the domain), with value
    o(eps)."""
    if sub is None:
        sub = enumerate_sub(eps.expr, eps.target())
    elif sub.expr != eps.expr:
        raise ValueError("sub is a set of subexpressions of another expression")
    zero = Polynomial.zero(eps.expr.n)
    return FnOnSub._of(sub, {b: eps.weight() if b == eps.bits else zero
                             for b in sub.members})


def express_in_basis(g: FnOnSub, tree: Optional[DecoTree] = None
                     ) -> Dict[Tuple[str, ...], Polynomial]:
    """
    Exact coefficients r_L with g = sum_L r_L B(L); NotDivisible if g is
    not in X(t).  Follows the existence recursion: with e the label at the
    current path, the Delta-branch coefficients expand g|_{ebar}; the
    function u = g - (g|_{ebar})Delta vanishes wherever the last bit is
    ebar, so u = (u down_e) nabla_e and the nabla-branch coefficients expand
    u down_e.  On Sub(t_{<=j}), h lists the values by member index i, the
    last bit i & 1 over the prefix i >> 1, which is member i << (m - j) of
    Sub(t) up to position j.
    """
    t = g.domain.expr
    if g.domain.target is not None:
        raise ValueError("express_in_basis needs the full domain Sub(t)")
    m = len(t)
    if tree is None:
        tree = DecoTree.default(m)
    roots = g.domain.roots()

    def run(h: list, j: int, path: Tuple[str, ...]):
        if j == 0:
            return {(): h[0]}
        e = tree.label(path)
        out = {L + ("D",): c
               for L, c in run(h[1 - e::2], j - 1, path + ("D",)).items()}
        v = [exact_div(d, roots[i << (m - j)][j - 1])
             if (d := h[i] - h[i ^ 1]).terms else d
             for i in range(e, len(h), 2)]
        out.update((L + ("N",), c)
                   for L, c in run(v, j - 1, path + ("N",)).items())
        return out

    return run([g.values[b] for b in g.domain.members], m, ())


# -- inner product ----------------------------------------------------------

def inner(g: FnOnSub, h: FnOnSub) -> RationalFn:
    """<g|h> = sum over eps of g(eps) h(eps) / o(eps), on the common support.
    A root of o(eps) is prime: it is cancelled from the factor it divides
    before they multiply, the reduction `RationalFn` makes of the product."""
    g._check(h)
    if g.domain.target is None:
        raise ValueError("the inner product lives on Sub(t, w)")
    n = g.domain.expr.n
    common = [b for b, v in g.values.items() if v.terms and h.values[b].terms]
    terms = []
    for b, pairs in zip(common, _prefix_walk(g.domain.expr, common)):
        u, v, left = g.values[b], h.values[b], []
        for x, y in pairs:
            root = _root(n, x, y)
            if (q := try_exact_div(u, root)) is not None:
                u = q
            elif (q := try_exact_div(v, root)) is not None:
                v = q
            else:
                left.append(root)
        term = object.__new__(RationalFn)       # reduced already
        term.num, term.den_factors, term.den_scalar = u * v, tuple(left), 1
        terms.append(term)
    return reduce(add, terms) if terms else RationalFn(Polynomial.zero(n))


def pairing_matrix(A: Sequence[FnOnSub], B: Sequence[FnOnSub]):
    return [[inner(a, b) for b in B] for a in A]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
