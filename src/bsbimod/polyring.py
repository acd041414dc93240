"""
Exact graded polynomial arithmetic over the rationals.

The ring is Q[e_1, ..., e_n] with deg e_i = 2.  The symmetric group acts by
permuting variables, so the linear form e_i - e_j is the root of the
transposition (i j).  Everything is exact: an integral coefficient is stored
as an `int` and any other as a `Fraction` (a float is refused), every
coefficient division goes through `Fraction`, and polynomial division only
succeeds when it is exact in the polynomial ring.

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
from math import comb, gcd, lcm
from operator import add, lshift
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


class NotDivisible(Exception):
    """Raised when an exact polynomial division fails."""


class InvariantError(AssertionError):
    """A broken internal invariant.  Raised explicitly, so the check also
    runs under `python -O`."""


def _exact(c) -> Scalar:
    """c as an int if integral, else as a Fraction; a float would be stored
    inexactly, so it is refused."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ratio(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, stored as `_exact` stores it."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _clean(terms: dict) -> dict:
    """`terms` with zeros dropped and integral `Fraction`s stored as ints,
    the rule `strmod._accumulate` applies; `terms` itself if it is clean.
    An all-int dict without zeros is recognised by two C-level scans."""
    vals = terms.values()
    if 0 not in vals and Fraction not in map(type, vals):
        return terms
    for c in vals:
        if not c or type(c) is not int and c.denominator == 1:
            return {e: c if type(c) is int or c.denominator != 1
                    else c.numerator for e, c in terms.items() if c}
    return terms


def _glex_key(item):
    exp, _ = item
    return (sum(exp), exp)


class Polynomial:
    """Immutable multivariate polynomial over Q in e_1..e_n.  `terms` maps
    exponent tuples to nonzero coefficients: `int`s, and `Fraction`s with
    denominator above 1."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple, Scalar]):
        clean = {}
        for exp, c in terms.items():
            if type(c) is not int and (type(c) is not Fraction
                                       or c.denominator == 1):
                c = _exact(c)
            if c:
                clean[tuple(exp)] = c
        self.n = n
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, n: int, terms: dict) -> "Polynomial":
        """`terms`, exponent tuples to nonzero ints and non-integral
        `Fraction`s, taken unchecked and uncopied: the constructor of every
        ring result, clean by construction or by `_clean`."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        out._hash = None
        return out

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
        return Polynomial(n, {tuple(exp): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return len(self.terms) < 2 and not any(next(iter(self.terms), ()))

    def constant_value(self) -> Scalar:
        if not self.terms:
            return 0
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
        if not self.terms or not other.terms:
            return self if self.terms else other
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial._of(self.n, _clean(terms))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) - c
        return Polynomial._of(self.n, _clean(terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if other.is_constant():
            return self.scale(other.constant_value())
        if self.is_constant():
            return other.scale(self.constant_value())
        terms: dict = {}
        items = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                exp = tuple(map(add, e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return Polynomial._of(self.n, _clean(terms))

    def scale(self, c: Scalar) -> "Polynomial":
        if type(c) is not int:
            c = _exact(c)
        if c == 1:
            return self
        return Polynomial._of(self.n, _clean(
            {e: c * v for e, v in self.terms.items()}) if c else {})

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
        """The inverse of `to_json`; ValueError on an exponent list whose
        length is not n, an exponent that is not a nonnegative int, or a
        zero denominator."""
        n = obj["n"]
        terms = {}
        for t in obj["terms"]:
            exp, den = tuple(t["exp"]), int(t["den"])
            if len(exp) != n or not den or any(type(k) is not int or k < 0
                                               for k in exp):
                raise ValueError(f"term {t}: need {n} nonnegative integer "
                                 "exponents and a nonzero denominator")
            terms[exp] = Fraction(int(t["num"]), den)
        return Polynomial(n, terms)


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
    return Polynomial._of(f.n, terms)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g in the polynomial ring; raises NotDivisible.  A
    root is divided by `_root_quotient`, any other g by long division on
    one coefficient dict: the graded-lex leading term of the remainder is
    popped, divided by that of g, and the quotient term times the rest of
    g is subtracted term by term."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g.terms) == 2:
        (xe, xc), (ye, yc) = g.terms.items()
        if xc == -yc and sum(xe) == 1 and sum(ye) == 1:
            return _root_quotient(f, g, xe.index(1), ye.index(1), xc)
    gexp, gc = g.leading()
    rest = [(e, c) for e, c in g.terms.items() if e != gexp]
    rem = dict(f.terms)
    quo: dict = {}
    while rem:
        rexp = max(rem, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(rexp, gexp))
        if any(d < 0 for d in diff):
            # single-divisor division: any term escaping the leading monomial
            # certifies non-membership in the principal ideal (g)
            raise NotDivisible(f"{f} is not divisible by {g}")
        # the leading terms strictly decrease, so each diff comes up once
        c = quo[diff] = _ratio(rem.pop(rexp), gc)
        for e, ce in rest:
            x = tuple(a + b for a, b in zip(diff, e))
            v = rem.get(x, 0) - c * ce
            if v:
                rem[x] = v
            else:
                del rem[x]
    return Polynomial._of(f.n, quo)


def _root_quotient(f: Polynomial, g: Polynomial, x: int, y: int,
                   c: Scalar) -> Polynomial:
    """f/g for g = c(e_x - e_y), in one pass: the group of f's terms
    sum_a c_a e_x^a e_y^{d-a} (equal in the other exponents) divides
    exactly when its c_a sum to 0, with quotient coefficient
    (1/c) sum_{b>a} c_b at e_x^a e_y^{d-1-a}."""
    groups: dict = {}
    for exp, v in f.terms.items():
        key = list(exp)
        a, key[x], key[y] = key[x], 0, key[x] + key[y]
        groups.setdefault(tuple(key), {})[a] = v
    quo: dict = {}
    for key, col in groups.items():
        exp, d = list(key), key[y]
        low = min(col)
        s = 0  # sum of c_b over b >= a, the quotient coefficient at a - 1
        for a in range(max(col), low, -1):
            s += col.get(a, 0)
            if s:
                exp[x], exp[y] = a - 1, d - a
                quo[tuple(exp)] = (s if c == 1 and type(s) is int
                                   else _ratio(s, c))
        if s + col[low]:
            raise NotDivisible(f"{f} is not divisible by {g}")
    return Polynomial._of(f.n, quo)


def try_exact_div(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


def _linear_rows(forms: Sequence[Polynomial], error: str):
    """The degree-2 linear forms as rows of `Fraction` coefficients, and the
    pivot columns of their row reduction over Q (one per independent form);
    raises ValueError(error) on a form that is not linear.  The pivots come
    from fraction-free forward elimination on the rows scaled to integers:
    scaling a row by a nonzero integer moves no pivot."""
    n = forms[0].n if forms else 0
    rows, mat = [], []
    for f in forms:
        row = [Fraction(0)] * n
        for exp, c in f.terms.items():
            if sum(exp) != 1:
                raise ValueError(error)
            row[exp.index(1)] = Fraction(c)
        rows.append(row)
        den = lcm(*(c.denominator for c in row))
        mat.append([c.numerator * (den // c.denominator) for c in row])
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        p = pr[col]
        for i in range(rank + 1, len(mat)):
            c = mat[i][col]
            if c:
                row = [p * x - c * y for x, y in zip(mat[i], pr)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return rows, pivots


def _pack(polys: Sequence[Polynomial]) -> Tuple[int, list]:
    """(w, dicts): the terms of `polys` scaled by the lcm of all their
    denominators to int coefficients, each exponent vector x packed as the
    int sum of x_i * 2^{w*i}, so that field i of w bits holds x_i.  The
    field width w is the bit length of the largest total degree: a field
    then holds x_a + x_b with no carry.  (A byte per field packs faster,
    but its wider keys slow `_power_divides` down.)  Each distinct exponent
    vector is packed once, by one `map` over the field shifts."""
    monos = set().union(*[f.terms for f in polys])
    w = max(map(sum, monos), default=0).bit_length() or 1
    shifts = range(0, w * len(next(iter(monos), ())), w)
    code = {x: sum(map(lshift, x, shifts)) for x in monos}
    den = lcm(*{c.denominator for f in polys for c in f.terms.values()})
    return w, [dict(zip(map(code.__getitem__, f.terms),
                        f.terms.values() if den == 1 else
                        [c.numerator * (den // c.denominator)
                         for c in f.terms.values()]))
               for f in polys]


def _power_divides(values: Sequence[dict], terms, w: int, a: int, b: int,
                   k: int) -> bool:
    """Whether (e_a - e_b)^k divides the sum of sign * values[j] over the
    (j, sign) in terms, for `_pack`ed values of field width w (0-based
    a != b).  Substituting e_a = e_b + s, it does exactly when the
    coefficients of s^0..s^{k-1} vanish; the s^r coefficient of c*e^x is
    comb(x_a, r)*c times e^x with x_a -> 0, x_b -> x_b + x_a - r.  Every
    r < k is accumulated in one dict: the key
    x + (x_a - r)*(2^{w*b} - 2^{w*a}) moves x_a - r into field b and leaves
    r in field a, and the field width keeps both from carrying.  For k = 1
    the parts are substituted and summed in one pass; for k >= 2 they are
    summed first, so that each monomial left in the sum is expanded once
    rather than once per part."""
    if k <= 0:
        return True
    shift, mask = w * a, (1 << w) - 1
    step = (1 << w * b) - (1 << shift)
    sums: dict = {}
    get = sums.get
    if k == 1:
        for j, sign in terms:
            for x, c in values[j].items():
                key = x + (x >> shift & mask) * step
                sums[key] = get(key, 0) + sign * c
        return not any(sums.values())
    for j, sign in terms:
        for x, c in values[j].items():
            sums[x] = get(x, 0) + sign * c
    total, sums = sums, {}
    get = sums.get
    for x, c in total.items():
        if not c:
            continue
        xa = x >> shift & mask
        key = x + xa * step
        sums[key] = get(key, 0) + c
        if xa:
            key -= step
            sums[key] = get(key, 0) + xa * c
            for r in range(2, k if k <= xa else xa + 1):
                key -= step
                sums[key] = get(key, 0) + comb(xa, r) * c
    return not any(sums.values())


def divisible_by_power(f: Polynomial, alpha: Polynomial, k: int) -> bool:
    """Whether alpha^k divides f, for alpha = c*(e_a - e_b) with c a nonzero
    rational: f is scaled to int coefficients and packed (`_pack`), and one
    pass of `_power_divides` checks the coefficients of s^0..s^{k-1} after
    e_a = e_b + s.  Always true for k <= 0 or f = 0; ValueError for any
    other alpha or a rank mismatch."""
    f._check(alpha)
    items = list(alpha.terms.items())
    if not (len(items) == 2 and items[0][1] == -items[1][1]
            and all(sum(x) == 1 for x, _ in items)):
        raise ValueError(f"{alpha} is not a multiple of a root e_a - e_b")
    (xa, _), (xb, _) = items
    w, values = _pack([f])
    return _power_divides(values, ((0, 1),), w, xa.index(1), xb.index(1), k)


def _transposition_images(n: int, i: int, j: int) -> tuple:
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def _refl_pair(t, n: int) -> tuple:
    """(i, j) of a Reflection-like object or a plain pair in either order;
    ValueError unless 1 <= i < j <= n."""
    i, j = (t.i, t.j) if hasattr(t, "i") and hasattr(t, "j") else sorted(t)
    if not 1 <= i < j <= n:
        raise ValueError(f"bad reflection ({i},{j}) for n={n}")
    return i, j


def demazure(t, f: Polynomial) -> Polynomial:
    """Demazure operator: f -> (f - tf)/alpha_t; lowers degree by 2."""
    from .coxeter import _root   # imported here: coxeter imports this module
    i, j = _refl_pair(t, f.n)
    tf = act(_transposition_images(f.n, i, j), f)
    return exact_div(f - tf, _root(f.n, i - 1, j - 1))


def wp(t, f: Polynomial) -> Polynomial:
    """The averaging operator: f -> (f + tf)/2; lands in the t-invariants."""
    i, j = _refl_pair(t, f.n)
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
        den_scalar = _exact(den_scalar)
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
        return self.num.scale(Fraction(1, self.den_scalar))

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
            if isinstance(c, float) or c != int(c):
                raise TypeError(f"graded-rank coefficient {c!r} is not an "
                                "integer")
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
