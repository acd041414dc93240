"""
Exact graded polynomial arithmetic over the rationals.

The ring is Q[e_1, ..., e_n] with deg e_i = 2.  The symmetric group acts by
permuting variables, so the linear form e_i - e_j is the root of the
transposition (i j).  Everything is exact: an integral coefficient is stored
as an `int` and any other as a `Fraction` (a float is refused), every
coefficient division goes through `Fraction`, and polynomial division only
succeeds when it is exact in the polynomial ring.

A monomial is one int key, the exponent of e_{i+1} in field i of a width
fixed by the polynomial's content (`Polynomial`), so a product adds keys,
the constant term has key 0, and a product by a root, a division by one
and the root-power test shift keys between two fields.  Exponent tuples
are read and written only at the edges: the constructor, `from_json`,
`exp_terms`, `leading`, `degree`, `__str__` and `to_json`.

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
from functools import cache, reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import lshift, or_
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


# -- packed monomials -------------------------------------------------------

@cache
def _layout(n: int) -> Tuple[int, int, dict]:
    """(W(n), guards, linear): the base field width of the ring in n
    variables, 30 // n bits and at least 4, so that a key in n <= 6
    variables stays below 2^30 (one CPython digit); the guard bit of each
    field at that width; and {key of e_{i+1} at that width: i}, which
    reads only keys of that width.  ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"a polynomial ring needs n >= 1 variables, got {n}")
    w = max(30 // n, 4)
    return w, _guards(n, w), {1 << w * i: i for i in range(n)}


@cache
def _guards(n: int, w: int) -> int:
    """The top bit of each of the n fields of width w."""
    return sum(1 << s for s in range(w - 1, w * n, w))


@cache
def _codec(n: int, w: int):
    """(key, exps): the functions from an exponent tuple of length n to its
    packed key of width w, and back."""
    shifts, mask = range(0, w * n, w), (1 << w) - 1
    return (lambda x: sum(map(lshift, x, shifts)),
            lambda x: tuple([x >> s & mask for s in shifts]))


def _encode(n: int, terms: dict) -> Tuple[dict, int]:
    """(packed terms, w): the coefficient dict `terms` on exponent tuples
    of length n, keyed by packed ints at the width their content fixes
    (`_fit`); the coefficients are taken as they are."""
    base = _layout(n)[0]
    if not terms:
        return terms, base
    top = max(chain(*terms))
    w = base if top >> base - 1 == 0 else top.bit_length() + 1
    return dict(zip(map(_codec(n, w)[0], terms), terms.values())), w


def _repack(terms: dict, n: int, w: int, new: int) -> dict:
    """The packed `terms` of width w at width `new`."""
    exps, key = _codec(n, w)[1], _codec(n, new)[0]
    return {key(exps(x)): c for x, c in terms.items()}


def _fit(n: int, terms: dict, w: int) -> "Polynomial":
    """The polynomial of the packed `terms` of width w (guard bits may be
    set), repacked at the width its content fixes: W(n), or one bit more
    than its largest exponent has, whichever is wider."""
    orr, mask = reduce(or_, terms, 0), (1 << w) - 1
    fit = max(_layout(n)[0], 1 + max((orr >> s & mask).bit_length()
                                     for s in range(0, w * n, w)))
    if fit != w:
        terms, w = _repack(terms, n, w, fit), fit
    return Polynomial._of(n, terms, w)


def _refit(n: int, terms: dict, w: int) -> "Polynomial":
    """The polynomial of the packed `terms` of width w, none of whose
    exponents reaches a guard bit: taken as it is at the base width, else
    refitted (`_fit`), since a cancellation or a division may have left
    the content narrower than w."""
    if w == _layout(n)[0]:
        return Polynomial._of(n, terms, w)
    return _fit(n, terms, w)


def _degrees(terms: dict, n: int, w: int) -> int:
    """The degree of the packed `terms` of width w in each variable, as one
    packed key."""
    exps = _codec(n, w)[1]
    return sum(map(lshift, map(max, zip(*map(exps, terms))),
                   range(0, w * n, w)))


def _common(f: "Polynomial", g: "Polynomial") -> Tuple[int, dict, dict]:
    """(w, f's terms, g's terms), both at the wider of their widths."""
    w = max(f.w, g.w)
    return w, *(p.terms if p.w == w else _repack(p.terms, p.n, p.w, w)
                for p in (f, g))


class Polynomial:
    """Immutable multivariate polynomial over Q in e_1..e_n.  `terms` maps
    packed monomial keys to nonzero coefficients: `int`s, and `Fraction`s
    with denominator above 1.  The key of e_1^x_1 ... e_n^x_n is the int
    sum of x_i * 2^{w(i-1)}: field i - 1 of w bits holds x_i, with its top
    bit, the guard bit, clear.  The width w is W(n) = max(30 // n, 4)
    unless some exponent needs more, and then one bit more than the largest
    exponent has, so it depends on the content alone and equal polynomials
    have equal widths and keys; one key stands for other monomials at other
    widths, so equality and hashing compare widths too.  A product adds
    keys; a field never carries into the next, as the guard bit takes a
    sum of two exponents, and a product that sets a guard bit is repacked
    wider.  `exp_terms` reads the terms keyed by exponent tuples."""

    __slots__ = ("n", "w", "terms", "_hash")

    def __init__(self, n: int, terms: Mapping[tuple, Scalar]):
        """The polynomial with the coefficients `terms` {exponent tuple:
        coefficient}; ValueError for n < 1, an exponent tuple of another
        length or a negative exponent, TypeError for a float."""
        _layout(n)
        clean = {}
        for exp, c in terms.items():
            if type(c) is not int and (type(c) is not Fraction
                                       or c.denominator == 1):
                c = _exact(c)
            if c:
                clean[tuple(exp)] = c
        if not {n}.issuperset(map(len, clean)) or clean and min(
                chain(*clean)) < 0:
            raise ValueError(f"need {n} nonnegative exponents per term")
        self.n = n
        self.terms, self.w = _encode(n, clean)
        self._hash = None

    @classmethod
    def _of(cls, n: int, terms: dict, w: int) -> "Polynomial":
        """`terms`, packed keys of width w to nonzero ints and non-integral
        `Fraction`s, taken unchecked and uncopied: the constructor of every
        ring result, clean by construction or by `_clean`, at the width its
        content fixes (`_fit`)."""
        out = object.__new__(cls)
        out.n = n
        out.w = w
        out.terms = terms
        out._hash = None
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial._of(n, {}, _layout(n)[0])

    @staticmethod
    def const(n: int, c: Scalar) -> "Polynomial":
        c = _exact(c)
        return Polynomial._of(n, {0: c} if c else {}, _layout(n)[0])

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial.const(n, 1)

    @staticmethod
    def var(n: int, i: int) -> "Polynomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        w = _layout(n)[0]
        return Polynomial._of(n, {1 << w * (i - 1): 1}, w)

    # -- basic queries -----------------------------------------------------

    def exp_terms(self) -> dict:
        """The terms keyed by exponent tuples (x_1, ..., x_n), in the order
        of `terms`."""
        exps = _codec(self.n, self.w)[1]
        return dict(zip(map(exps, self.terms), self.terms.values()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or len(t) == 1 and 0 in t

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms.get(0, 0)

    def _total_degrees(self) -> set:
        return set(map(sum, map(_codec(self.n, self.w)[1], self.terms)))

    def degree(self) -> Optional[int]:
        """Top degree (deg e_i = 2), or None for the zero polynomial."""
        if not self.terms:
            return None
        return 2 * max(self._total_degrees())

    def is_homogeneous(self) -> bool:
        return len(self._total_degrees()) <= 1

    def homogeneous_degree(self) -> Optional[int]:
        """Degree if homogeneous and nonzero, None if zero; error otherwise."""
        if not self.terms:
            return None
        degs = self._total_degrees()
        if len(degs) != 1:
            raise ValueError("not homogeneous")
        return 2 * degs.pop()

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.exp_terms().items(), key=_glex_key)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} != {other.n}")

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other: the sums of equal keys, in self's order."""
        self._check(other)
        n, w, a, b = self.n, self.w, self.terms, other.terms
        if w != other.w:
            w, a, b = _common(self, other)
        terms = dict(a)
        get = terms.get
        if sign > 0:
            for x, c in b.items():
                terms[x] = get(x, 0) + c
        else:
            for x, c in b.items():
                terms[x] = get(x, 0) - c
        return _refit(n, _clean(terms), w)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self.terms or not other.terms:
            self._check(other)
            return self if self.terms else other
        return self._plus(other, 1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.n, {e: -c for e, c in self.terms.items()},
                              self.w)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return other if a else self
        if len(b) == 1 and 0 in b:
            return self.scale(b[0])
        if len(a) == 1 and 0 in a:
            return other.scale(a[0])
        n, w = self.n, self.w
        if w != other.w:
            w, a, b = _common(self, other)
        terms: dict = {}
        get = terms.get
        if len(b) == 2:
            # a binomial, a root say: each key of a shifts by both of b's
            (y1, d1), (y2, d2) = b.items()
            for x, c in a.items():
                z = x + y1
                terms[z] = get(z, 0) + c * d1
                z = x + y2
                terms[z] = get(z, 0) + c * d2
        else:
            items = b.items()
            for x, c1 in a.items():
                for y, c2 in items:
                    z = x + y
                    terms[z] = get(z, 0) + c1 * c2
        terms = _clean(terms)
        base, guards, _ = _layout(n)
        if w == base and not reduce(or_, terms, 0) & guards:
            return Polynomial._of(n, terms, w)
        return _fit(n, terms, w)

    def scale(self, c: Scalar) -> "Polynomial":
        if type(c) is not int:
            c = _exact(c)
        if c == 1:
            return self
        if not c:
            return Polynomial._of(self.n, {}, _layout(self.n)[0])
        return Polynomial._of(self.n, _clean(
            {e: c * v for e, v in self.terms.items()}), self.w)

    def __eq__(self, other) -> bool:
        """Equal ranks, widths and terms: a key means a monomial only at its
        width (e_2^16 at width 6 and e_3 at width 5 share one key), and
        equal polynomials have equal widths, which their content fixes."""
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.w == other.w and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.w, frozenset(self.terms.items())))
        return self._hash

    # -- display / serialization ------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        terms = self.exp_terms()
        parts = []
        for exp in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = terms[exp]
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
        items = sorted(self.exp_terms().items(), key=_glex_key, reverse=True)
        return {"n": self.n,
                "terms": [{"exp": list(e),
                           "num": str(c.numerator),
                           "den": str(c.denominator)} for e, c in items]}

    @staticmethod
    def from_json(obj: dict) -> "Polynomial":
        """The inverse of `to_json`; ValueError on n < 1, an exponent list
        whose length is not n, an exponent that is not a nonnegative int,
        or a zero denominator."""
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
    """Apply the permutation with the given 1-based images: e_i -> e_{w(i)}.
    Field i - 1 of each key moves to field w(i) - 1.  ValueError if images
    is not a permutation of 1..n."""
    n, w = f.n, f.w
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"{tuple(images)} is not a permutation of 1..{n}")
    mask = (1 << w) - 1
    moves = [(w * i, w * (k - 1)) for i, k in enumerate(images)]
    return Polynomial._of(n, {sum((x >> s & mask) << d for s, d in moves): c
                              for x, c in f.terms.items()}, w)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g in the polynomial ring; raises NotDivisible.  A
    root is divided by `_root_quotient`, any other g by long division on
    one coefficient dict, in the lex order of the packed keys (e_n first),
    a monomial order since a product adds keys: the greatest key of the
    remainder is popped, divided by that of g, and the quotient term times
    the rest of g is subtracted term by term.  A field of the divided key
    below g's, or a quotient term that would take some e_i past its degree
    in f, proves f not divisible."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    base, _, linear = _layout(g.n)
    if len(g.terms) == 2 and g.w == base:
        (xk, xc), (yk, yc) = g.terms.items()
        if xc == -yc and xk in linear and yk in linear:
            return _root_quotient(f, g, linear[xk], linear[yk], xc)
    n, w, a, b = f.n, f.w, f.terms, g.terms
    if w != g.w:
        w, a, b = _common(f, g)
    guards = _guards(n, w)
    room, need = _degrees(a, n, w) | guards, _degrees(b, n, w)
    gkey = max(b)
    gc = b[gkey]
    rest = [(x, c) for x, c in b.items() if x != gkey]
    rem = dict(a)
    quo: dict = {}
    while rem:
        rkey = max(rem)
        # (rkey | guards) - gkey keeps every guard bit iff no field borrows
        diff = (rkey | guards) - gkey
        if diff & guards != guards:
            raise NotDivisible(f"{f} is not divisible by {g}")
        diff ^= guards
        # a term of f/g times g stays within f's degree in each variable
        top = diff + need
        if top & guards or (room - top) & guards != guards:
            raise NotDivisible(f"{f} is not divisible by {g}")
        # the leading terms strictly decrease, so each diff comes up once
        c = quo[diff] = _ratio(rem.pop(rkey), gc)
        for x, cx in rest:
            x += diff
            v = rem.get(x, 0) - c * cx
            if v:
                rem[x] = v
            else:
                del rem[x]
    return _refit(n, quo, w)


def _root_quotient(f: Polynomial, g: Polynomial, x: int, y: int,
                   c: Scalar) -> Polynomial:
    """f/g for g = c(e_x - e_y) (0-based x, y), in one pass: the group of
    f's terms sum_a c_a e_x^a e_y^{d-a} (equal in the other exponents)
    divides exactly when its c_a sum to 0, with quotient coefficient
    (1/c) sum_{b>a} c_b at e_x^a e_y^{d-1-a}.  A key moves to its group
    by adding a * (2^{w*y} - 2^{w*x}), which empties field x into field y
    (the guard bit takes d), and back to a quotient key by the inverse
    shift."""
    n, w = f.n, f.w
    sx, mask = w * x, (1 << w) - 1
    step, unit = (1 << w * y) - (1 << sx), 1 << sx
    groups: dict = {}
    for key, v in f.terms.items():
        a = key >> sx & mask
        groups.setdefault(key + a * step, {})[a] = v
    quo: dict = {}
    for key, col in groups.items():
        low = min(col)
        s = 0  # sum of c_b over b >= a, the quotient coefficient at a - 1
        for a in range(max(col), low, -1):
            s += col.get(a, 0)
            if s:
                quo[key - a * step - unit] = (s if c == 1 and type(s) is int
                                              else _ratio(s, c))
        if s + col[low]:
            raise NotDivisible(f"{f} is not divisible by {g}")
    return _refit(n, quo, w)


def try_exact_div(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    try:
        return exact_div(f, g)
    except NotDivisible:
        return None


def _linear_rows(forms: Sequence[Polynomial], error: str):
    """The degree-2 linear forms as rows of `Fraction` coefficients, and the
    pivot columns of their row reduction over Q (one per independent form);
    raises ValueError(error) on a form that is not linear.  The variable of
    a linear term is the bit position of its key over the field width.
    The pivots come from fraction-free forward elimination on the rows
    scaled to integers: scaling a row by a nonzero integer moves no
    pivot."""
    n = forms[0].n if forms else 0
    base, _, linear = _layout(n) if forms else (0, 0, {})
    rows, mat = [], []
    for f in forms:
        if f.w != base:   # a linear form is at the base width
            raise ValueError(error)
        row, irow = [Fraction(0)] * n, [0] * n
        den = lcm(*[c.denominator for c in f.terms.values()
                    if type(c) is not int])
        for x, c in f.terms.items():
            if x not in linear:
                raise ValueError(error)
            i = linear[x]
            row[i] = Fraction(c)
            irow[i] = (c * den if type(c) is int
                       else c.numerator * (den // c.denominator))
        rows.append(row)
        mat.append(irow)
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
    """(w, dicts): the packed terms of `polys` at w, the widest of their
    widths, scaled by the lcm of all their denominators to int
    coefficients.  A term dict that is already at width w with int
    coefficients, as every dict is when all of them are, is passed through
    uncopied."""
    w = max((f.w for f in polys), default=1)
    den = 1
    for f in polys:
        vals = f.terms.values()
        if Fraction in map(type, vals):
            den = lcm(den, *{c.denominator for c in vals})
    out = []
    for f in polys:
        terms = f.terms if f.w == w else _repack(f.terms, f.n, f.w, w)
        out.append(terms if den == 1 else
                   {x: c.numerator * (den // c.denominator)
                    for x, c in terms.items()})
    return w, out


def _power_divides(values: Sequence[dict], terms, w: int, a: int, b: int,
                   k: int) -> bool:
    """Whether (e_a - e_b)^k divides the sum of sign * values[j] over the
    (j, sign) in terms, for `_pack`ed values of field width w (0-based
    a != b).  Substituting e_a = e_b + s, it does exactly when the
    coefficients of s^0..s^{k-1} vanish; the s^r coefficient of c*e^x is
    comb(x_a, r)*c times e^x with x_a -> 0, x_b -> x_b + x_a - r.  Every
    r < k is accumulated in one dict: the key
    x + (x_a - r)*(2^{w*b} - 2^{w*a}) moves x_a - r into field b and leaves
    r in field a, and the guard bit of field b takes x_a + x_b.  For k = 1
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
    rational: f is scaled to int coefficients (`_pack`), and one pass of
    `_power_divides` checks the coefficients of s^0..s^{k-1} after
    e_a = e_b + s.  Always true for k <= 0 or f = 0; ValueError for any
    other alpha or a rank mismatch."""
    f._check(alpha)
    base, _, linear = _layout(f.n)
    roots = [linear.get(x) for x in alpha.terms]
    coeffs = list(alpha.terms.values())
    if (alpha.w != base or len(roots) != 2 or None in roots
            or coeffs[0] != -coeffs[1]):
        raise ValueError(f"{alpha} is not a multiple of a root e_a - e_b")
    w, values = _pack([f])
    return _power_divides(values, ((0, 1),), w, *roots, k)


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
