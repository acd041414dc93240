"""
Functions on subexpression sets valued in the polynomial ring: the
localization image, signed divisibility sums, membership tests for the
X-modules, the copy/restriction/divided-difference calculus behind exact
coefficient extraction, the Delta/nabla bases in closed form, and the
weighted inner product.
"""

__all__ = [
    "FnOnSub", "DecoTree",
    "res_tensor", "sigma", "membership",
    "copy_up", "restrict_down", "divdiff_down",
    "basis", "nabla_X", "mu", "express_in_basis",
    "inner", "pairing_matrix",
]

from dataclasses import dataclass
from itertools import product
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .polyring import (Polynomial, RationalFn, act, exact_div,
                       _integer_terms, _root_power_divides)
from .coxeter import Permutation, ReflExpr, truncate
from .subexpr import Subexpr, SubSet, enumerate_sub, _fold_terms

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class FnOnSub:
    """A function from a subexpression set to polynomials."""
    domain: SubSet
    values: Mapping[Bits, Polynomial]

    def __post_init__(self):
        vals = {tuple(b): v for b, v in dict(self.values).items()}
        missing = set(self.domain.members) - set(vals)
        zero = Polynomial.zero(self.domain.expr.n)
        for b in missing:
            vals[b] = zero
        extra = set(vals) - set(self.domain.members)
        if extra:
            raise ValueError(f"values off the domain: {sorted(extra)[:3]}")
        object.__setattr__(self, "values", vals)

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
        return FnOnSub(self.domain, {b: self.values[b] + other.values[b]
                                     for b in self.domain.members})

    def __sub__(self, other: "FnOnSub") -> "FnOnSub":
        self._check(other)
        return FnOnSub(self.domain, {b: self.values[b] - other.values[b]
                                     for b in self.domain.members})

    def left_mul(self, r: Polynomial) -> "FnOnSub":
        return FnOnSub(self.domain, {b: r * v for b, v in self.values.items()})

    def __mul__(self, other: "FnOnSub") -> "FnOnSub":
        self._check(other)
        return FnOnSub(self.domain, {b: self.values[b] * other.values[b]
                                     for b in self.domain.members})

    def restrict_to(self, sub: SubSet) -> "FnOnSub":
        """Restriction to a smaller domain over the same expression."""
        if not set(sub.members) <= set(self.domain.members):
            raise ValueError("not a subdomain")
        return FnOnSub(sub, {b: self.values[b] for b in sub.members})

    def __eq__(self, other) -> bool:
        return (isinstance(other, FnOnSub) and self.domain == other.domain
                and all(self.values[b] == other.values[b]
                        for b in self.domain.members))

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
    eps is prod_i eps^{<i}(a_i), with eps^{<m+1} the full product."""
    m = len(t)
    if len(a) != m + 1:
        raise ValueError(f"need {m + 1} tensor factors, got {len(a)}")
    dom = enumerate_sub(t, "all")
    values = {}
    for bits in dom.members:
        eps = Subexpr(t, bits)
        val = Polynomial.one(t.n)
        for i in range(1, m + 2):
            val = val * act(eps.prefix(i).images, a[i - 1])
        values[bits] = val
    return FnOnSub(dom, values)


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
    over all subsets ("full") or only even ones ("even")."""
    an = g.domain.analysis()
    i, X = an.require(eps), set(X)
    if not X:
        return g(eps)
    for _, Mp, folds in an.per_p[i]:
        if X <= set(Mp):
            S = sum(1 << b for b, x in enumerate(Mp) if x in X)
            return _signed_sum(g, _fold_terms(folds, S, variant != "full"))
    raise ValueError("X must lie inside a single M_p(eps)")


def membership(g: FnOnSub, kind: str, Phi: Optional[SubSet] = None):
    """
    Membership with certificate.  Kinds:
      "X(t)" : full-variant divisibility by alpha_p^{|X|} over Sub(t);
      "Xw"   : even-variant divisibility by alpha_p^{|X|-1} over Sub(t,w);
      "X^w"  : even-variant divisibility by alpha_p^{|X|} over Sub(t,w);
      "XwPhi": "Xw" plus vanishing on Phi.
    Returns (True, None) or (False, (eps, p, X)) with the lexicographically
    least violation ((eps, "vanish", None) for a Phi violation).
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

    if kind == "XwPhi":
        if Phi is None:
            raise ValueError("XwPhi needs Phi")
        for bits in Phi.members:
            if not g.values[tuple(bits)].is_zero():
                return False, (Subexpr(g.domain.expr, bits), "vanish", None)

    # one common denominator for all values: a nonzero scalar does not
    # change divisibility
    ints = _integer_terms([g.values[b] for b in g.domain.members])
    an = g.domain.analysis()
    for i, p, X, terms in an.conditions(variant == "even"):
        k = len(X) + excess
        if k <= 0:
            continue
        total: dict = {}
        for j, sign in terms:
            for x, c in ints[j].items():
                total[x] = total.get(x, 0) + sign * c
        if not _root_power_divides(total, p.i - 1, p.j - 1, k):
            return False, (Subexpr(g.domain.expr, an.members[i]), p, X)
    return True, None


# -- copy / restriction / divided difference --------------------------------

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
    t = g.domain.expr
    if g.domain.target is not None:
        raise ValueError("restriction acts on full domains Sub(t)")
    tp = truncate(t)
    dom = enumerate_sub(tp, "all")
    return FnOnSub(dom, {b: g.values[b + (e,)] for b in dom.members})


def divdiff_down(g: FnOnSub, e: int) -> FnOnSub:
    """g down_e(eps') = (g(eps' u e) - g(eps' u ebar)) / (eps' u e)^{->m}."""
    t = g.domain.expr
    if g.domain.target is not None:
        raise ValueError("divided difference acts on full domains Sub(t)")
    m = len(t)
    tp = truncate(t)
    dom = enumerate_sub(tp, "all")
    values = {}
    for b in dom.members:
        diff = g.values[b + (e,)] - g.values[b + (1 - e,)]
        root = Subexpr(t, b + (e,)).root_before(m)
        values[b] = exact_div(diff, root)
    return FnOnSub(dom, values)


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


def _nabla_product(dom: SubSet, conc: Mapping[int, int]) -> FnOnSub:
    """The product over positions i in conc of [delta_i = conc[i]] delta^{->i},
    evaluated at every delta of dom: the closed form of the ladder that
    concentrates at conc[i] on the positions in conc and copies elsewhere."""
    t = dom.expr
    one = Polynomial.one(t.n)
    values = {}
    for b in dom.members:
        if all(b[i - 1] == e for i, e in conc.items()):
            delta = Subexpr(t, b)
            val = one
            for i in conc:
                val = val * delta.root_before(i)
            values[b] = val
    return FnOnSub(dom, values)


def basis(t: ReflExpr, tree: Optional[DecoTree] = None) -> Dict[Tuple[str, ...], FnOnSub]:
    """
    The 2^m basis elements, indexed by words L in {D, N}^m read along the
    positions 1..m.  B(L) copies at every Delta position and concentrates at
    every nabla position j, at the label e_j(L) of the path
    (L_m, ..., L_{j+1}): B(L)(delta) is the product over the nabla positions
    j of [delta_j = e_j(L)] delta^{->j}.  All elements share one domain
    Sub(t), so its analysis is built once for all of them.
    """
    m = len(t)
    if tree is None:
        tree = DecoTree.default(m)
    dom = enumerate_sub(t, "all")
    out = {}
    # rev = (L_m, ..., L_1) lists the words in the order of the recursive
    # construction, and rev[:m - j] is the path above position j
    for rev in product("DN", repeat=m):
        L = rev[::-1]
        out[L] = _nabla_product(dom, {j: tree.label(rev[:m - j])
                                      for j in range(1, m + 1)
                                      if L[j - 1] == "N"})
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
    return FnOnSub(sub, {eps.bits: eps.weight()} if eps in sub else {})


def express_in_basis(g: FnOnSub, tree: Optional[DecoTree] = None
                     ) -> Dict[Tuple[str, ...], Polynomial]:
    """
    Exact coefficients r_L with g = sum_L r_L B(L).  Follows the existence
    recursion: with e the label at the current path, the Delta-branch
    coefficients expand g|_{ebar}; the function u = g - (g|_{ebar})Delta
    vanishes wherever the last bit is ebar, so u = (u down_e) nabla_e and
    the nabla-branch coefficients expand u down_e.
    """
    t = g.domain.expr
    if g.domain.target is not None:
        raise ValueError("express_in_basis needs the full domain Sub(t)")
    if tree is None:
        tree = DecoTree.default(len(t))

    def run(h: FnOnSub, path: Tuple[str, ...]):
        expr = h.domain.expr
        if len(expr) == 0:
            return {(): h.values[()]}
        e = tree.label(path)
        hbar = restrict_down(h, 1 - e)
        coeffsD = run(hbar, path + ("D",))
        u = h - copy_up(hbar, expr)
        v = divdiff_down(u, e)
        coeffsN = run(v, path + ("N",))
        out = {}
        for L, c in coeffsD.items():
            out[L + ("D",)] = c
        for L, c in coeffsN.items():
            out[L + ("N",)] = c
        return out

    return run(g, ())


# -- inner product ----------------------------------------------------------

def inner(g: FnOnSub, h: FnOnSub) -> RationalFn:
    """<g|h> = sum over eps of g(eps) h(eps) / o(eps)."""
    g._check(h)
    if g.domain.target is None:
        raise ValueError("the inner product lives on Sub(t, w)")
    n = g.domain.expr.n
    total = RationalFn(Polynomial.zero(n))
    for bits in g.domain.members:
        eps = Subexpr(g.domain.expr, bits)
        num = g.values[bits] * h.values[bits]
        if num.is_zero():
            continue
        factors = [eps.root_before(i) for i in range(1, len(eps) + 1)]
        total = total + RationalFn(num, factors)
    return total


def pairing_matrix(A: Sequence[FnOnSub], B: Sequence[FnOnSub]):
    return [[inner(a, b) for b in B] for a in A]


if __name__ == "__main__":
    import doctest
    doctest.testmod()
