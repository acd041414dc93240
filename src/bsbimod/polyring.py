"""
Exact graded polynomial arithmetic over the rationals.

The ring is Q[e_1, ..., e_n] with deg e_i = 2.  The symmetric group acts by
permuting variables, so the linear form e_i - e_j is the root of the
transposition (i j).  Everything is exact: coefficients are `Fraction`s and
division only succeeds when it is exact in the polynomial ring.

>>> n = 3
>>> e1, e2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
>>> print((e1 - e2) * (e1 + e2))
e1^2 - e2^2
>>> print(demazure((1, 2), e1 * e1))
e1 + e2
"""

__all__ = [
    "Polynomial", "RationalFn", "GradedRank", "NotDivisible", "InvariantError",
    "act", "exact_div", "divisible_by_power", "demazure", "wp",
]

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class NotDivisible(Exception):
    """Raised when an exact polynomial division fails."""


class InvariantError(AssertionError):
    """A broken internal invariant.  Raised explicitly, so the check also
    runs under `python -O`."""


def _exact(c) -> Fraction:
    """c as a Fraction; a float would be stored inexactly, so it is refused."""
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
    return Fraction(c)


def _glex_key(item):
    exp, _ = item
    return (sum(exp), exp)


class Polynomial:
    """Immutable multivariate polynomial over Q in e_1..e_n."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple, Scalar]):
        clean = {}
        for exp, c in terms.items():
            if type(c) is not Fraction:
                c = _exact(c)
            if c:
                clean[tuple(exp)] = c
        self.n = n
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def const(n: int, c: Scalar) -> "Polynomial":
        return Polynomial(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial.const(n, 1)

    @staticmethod
    def var(n: int, i: int) -> "Polynomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return Polynomial(n, {tuple(exp): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def degree(self) -> Optional[int]:
        """Top degree (deg e_i = 2), or None for the zero polynomial."""
        if not self.terms:
            return None
        return 2 * max(sum(exp) for exp in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> Optional[int]:
        """Degree if homogeneous and nonzero, None if zero; error otherwise."""
        if not self.terms:
            return None
        degs = {sum(exp) for exp in self.terms}
        if len(degs) != 1:
            raise ValueError("not homogeneous")
        return 2 * degs.pop()

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, self.terms[exp]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return Polynomial(self.n, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
        return Polynomial(self.n, terms)

    def scale(self, c: Scalar) -> "Polynomial":
        if type(c) is not Fraction:
            c = _exact(c)
        return Polynomial(self.n, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    # -- display / serialization ------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[exp]
            mono = "*".join(
                f"e{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exp) if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self})"

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=_glex_key, reverse=True)
        return {"n": self.n,
                "terms": [{"exp": list(e),
                           "num": str(c.numerator),
                           "den": str(c.denominator)} for e, c in items]}

    @staticmethod
    def from_json(obj: dict) -> "Polynomial":
        return Polynomial(obj["n"], {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj["terms"]
        })


def act(images: Sequence[int], f: Polynomial) -> Polynomial:
    """Apply the permutation with the given 1-based images: e_i -> e_{w(i)}."""
    if len(images) != f.n:
        raise ValueError(f"rank mismatch: {len(images)} != {f.n}")
    terms = {}
    for exp, c in f.terms.items():
        new = [0] * f.n
        for i, k in enumerate(exp):
            new[images[i] - 1] = k
        terms[tuple(new)] = c
    return Polynomial(f.n, terms)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g in the polynomial ring; raises NotDivisible."""
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
            # single-divisor division: any term escaping the leading monomial
            # certifies non-membership in the principal ideal (g)
            raise NotDivisible(f"{f} is not divisible by {g}")
        c = rc / gc
        quo[diff] = quo.get(diff, Fraction(0)) + c
        rem = rem - Polynomial(n, {diff: c}) * g
    return Polynomial(n, quo)


def try_exact_div(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


def _integer_terms(polys: Sequence[Polynomial]) -> list:
    """The coefficient dicts of `polys`, all scaled by the lcm of their
    denominators, so that every coefficient is an int."""
    den = lcm(*(c.denominator for f in polys for c in f.terms.values()))
    return [{x: c.numerator * (den // c.denominator)
             for x, c in f.terms.items()} for f in polys]


def _root_power_divides(terms: Mapping[tuple, int], a: int, b: int,
                        k: int) -> bool:
    """Whether (e_a - e_b)^k divides the polynomial with integer coefficients
    `terms` (0-based a != b).  Substituting e_a = e_b + s, it does exactly
    when the coefficients of s^0..s^{k-1} vanish; the s^r coefficient of
    c*e^x is comb(x_a, r)*c times e^x with x_a -> 0, x_b -> x_b + x_a - r."""
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


def divisible_by_power(f: Polynomial, alpha: Polynomial, k: int) -> bool:
    """Whether alpha^k divides f, for alpha = c*(e_a - e_b) with c a nonzero
    rational.  Always true for k <= 0 or f = 0; ValueError for any other
    alpha or a rank mismatch."""
    f._check(alpha)
    items = list(alpha.terms.items())
    if not (len(items) == 2 and items[0][1] == -items[1][1]
            and all(sum(x) == 1 for x, _ in items)):
        raise ValueError(f"{alpha} is not a multiple of a root e_a - e_b")
    (xa, _), (xb, _) = items
    return _root_power_divides(_integer_terms([f])[0], xa.index(1),
                               xb.index(1), k)


def _transposition_images(n: int, i: int, j: int) -> tuple:
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def _refl_pair(t) -> tuple:
    """Accept a Reflection-like object or a plain (i, j) pair."""
    if hasattr(t, "i") and hasattr(t, "j"):
        return t.i, t.j
    i, j = t
    return (i, j) if i < j else (j, i)


def demazure(t, f: Polynomial) -> Polynomial:
    """Demazure operator: f -> (f - tf)/alpha_t; lowers degree by 2."""
    i, j = _refl_pair(t)
    tf = act(_transposition_images(f.n, i, j), f)
    alpha = Polynomial.var(f.n, i) - Polynomial.var(f.n, j)
    return exact_div(f - tf, alpha)


def wp(t, f: Polynomial) -> Polynomial:
    """The averaging operator: f -> (f + tf)/2; lands in the t-invariants."""
    i, j = _refl_pair(t)
    tf = act(_transposition_images(f.n, i, j), f)
    return (f + tf).scale(Fraction(1, 2))


class RationalFn:
    """
    Quotient of polynomials with the denominator tracked as a product of
    linear-form factors times a rational scalar, as arises from the weights
    o(eps).  Reduction cancels factors that divide the numerator exactly.
    """

    __slots__ = ("num", "den_factors", "den_scalar")

    def __init__(self, num: Polynomial, den_factors: Iterable[Polynomial] = (),
                 den_scalar: Scalar = 1):
        den_scalar = Fraction(den_scalar)
        if den_scalar == 0:
            raise ZeroDivisionError("zero denominator scalar")
        factors = []
        for fac in den_factors:
            if fac.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if fac.is_constant():
                den_scalar *= fac.constant_value()
            else:
                factors.append(fac)
        # reduce: cancel factors dividing the numerator
        for fac in list(factors):
            if num.is_zero():
                factors = []
                break
            q = try_exact_div(num, fac)
            if q is not None:
                num = q
                factors.remove(fac)
        self.num = num
        self.den_factors = tuple(factors)
        self.den_scalar = den_scalar

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFn":
        return RationalFn(p)

    def denominator(self) -> Polynomial:
        den = Polynomial.const(self.num.n, self.den_scalar)
        for fac in self.den_factors:
            den = den * fac
        return den

    def in_R(self) -> bool:
        return not self.den_factors

    def as_poly(self) -> Polynomial:
        if not self.in_R():
            raise ValueError("not a polynomial")
        return self.num.scale(1 / self.den_scalar)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        num = self.num.scale(other.den_scalar) * _prod(other.den_factors, self.num.n) \
            + other.num.scale(self.den_scalar) * _prod(self.den_factors, self.num.n)
        return RationalFn(num, self.den_factors + other.den_factors,
                          self.den_scalar * other.den_scalar)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        lhs = self.num.scale(other.den_scalar) * _prod(other.den_factors, self.num.n)
        rhs = other.num.scale(self.den_scalar) * _prod(self.den_factors, self.num.n)
        return lhs == rhs

    def __hash__(self):
        raise TypeError("RationalFn is unhashable")

    def __str__(self) -> str:
        if self.in_R():
            return str(self.as_poly())
        return f"({self.num}) / ({self.denominator()})"


def _prod(polys: Iterable[Polynomial], n: int) -> Polynomial:
    out = Polynomial.one(n)
    for p in polys:
        out = out * p
    return out


class GradedRank:
    """Laurent polynomial in v with nonnegative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        clean = {}
        for k, c in dict(coeffs).items():
            if c < 0:
                raise ValueError("negative graded-rank coefficient")
            if c:
                clean[int(k)] = int(c)
        self.coeffs = clean

    @staticmethod
    def zero() -> "GradedRank":
        return GradedRank({})

    @staticmethod
    def v_power(k: int, c: int = 1) -> "GradedRank":
        return GradedRank({k: c})

    @staticmethod
    def constant(c: int) -> "GradedRank":
        return GradedRank({0: c})

    def __add__(self, other: "GradedRank") -> "GradedRank":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return GradedRank(coeffs)

    def shift(self, k: int) -> "GradedRank":
        """Multiply by v^k."""
        return GradedRank({e + k: c for e, c in self.coeffs.items()})

    def total(self) -> int:
        return sum(self.coeffs.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedRank) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                vk = f"v^{k}" if k != 1 else "v"
                parts.append(vk if c == 1 else f"{c}*{vk}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GradedRank({self})"

    def to_json(self) -> dict:
        return {"coeffs": {str(k): c for k, c in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(obj: dict) -> "GradedRank":
        return GradedRank({int(k): c for k, c in obj["coeffs"].items()})


if __name__ == "__main__":
    import doctest
    doctest.testmod()
