"""
Symmetric groups as Coxeter systems of type A: permutations in one-line
notation (1-based images), transpositions as reflections, roots, inversion
lengths, cycle decompositions, and the cyclic sequence calculus on
reflection expressions.

Composition convention: (ab)(i) = a(b(i)).

>>> p = Permutation((2, 1, 3)); q = Permutation((3, 2, 1))
>>> (p * q).images
(3, 1, 2)
>>> make_sequence("D", (1, 2, 3), 3)
ReflExpr(n=3, [(1,2),(1,3),(1,2),(2,3),(1,3)])
"""

__all__ = [
    "Permutation", "Reflection", "ReflExpr",
    "shift", "reverse", "shift1", "ddot", "concat", "truncate",
    "fold_expr", "make_sequence", "positions_of",
]

from dataclasses import dataclass
from functools import cache
from typing import Sequence, Tuple

from .polyring import Polynomial


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1,...,n} stored by its tuple of images."""
    images: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1]
                                 for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        im = self.images
        return sum(1 for a in range(self.n) for b in range(a + 1, self.n)
                   if im[a] > im[b])

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Decomposition into independent cycles; fixed points omitted.
        Each cycle starts at its least element; cycles sorted by least element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            cur = self(start)
            while cur != start:
                cyc.append(cur)
                seen.add(cur)
                cur = self(cur)
            out.append(tuple(cyc))
        return tuple(out)

    def conjugate_reflection(self, t: "Reflection") -> "Reflection":
        """w t w^{-1} for a transposition t, normalized to i < j."""
        a, b = self(t.i), self(t.j)
        if a > b:
            a, b = b, a
        return Reflection(a, b, self.n)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


@cache
def _root(n: int, x: int, y: int) -> Polynomial:
    """e_x - e_y, 0-based: one shared, immutable object per (n, x, y), so
    at most n(n - 1) per rank are ever built."""
    return Polynomial.var(n, x + 1) - Polynomial.var(n, y + 1)


@dataclass(frozen=True)
class Reflection:
    """The transposition (i j), i < j, in S_n."""
    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i < self.j <= self.n):
            raise ValueError(f"bad reflection ({self.i},{self.j}) for n={self.n}")

    def as_permutation(self) -> Permutation:
        images = list(range(1, self.n + 1))
        images[self.i - 1], images[self.j - 1] = self.j, self.i
        return Permutation(tuple(images))

    def root(self) -> Polynomial:
        """The root alpha_{ij} = e_i - e_j."""
        return _root(self.n, self.i - 1, self.j - 1)

    def is_simple(self) -> bool:
        return self.j == self.i + 1

    def __repr__(self) -> str:
        return f"({self.i},{self.j})"


@dataclass(frozen=True)
class ReflExpr:
    """A finite sequence of reflections in a fixed S_n, n >= 1 (ValueError
    otherwise)."""
    n: int
    entries: Tuple[Reflection, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"S_n needs n >= 1, got n = {self.n}")
        object.__setattr__(self, "entries", tuple(self.entries))
        for t in self.entries:
            if t.n != self.n:
                raise ValueError("entry rank mismatch")

    @staticmethod
    def from_pairs(n: int, pairs: Sequence[Tuple[int, int]]) -> "ReflExpr":
        return ReflExpr(n, tuple(Reflection(min(a, b), max(a, b), n)
                                 for a, b in pairs))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Reflection:
        """1-based access: t[i] = t_i."""
        if not 1 <= i <= len(self.entries):
            raise IndexError(i)
        return self.entries[i - 1]

    def __repr__(self) -> str:
        body = ",".join(f"({t.i},{t.j})" for t in self.entries)
        return f"ReflExpr(n={self.n}, [{body}])"

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[t.i, t.j] for t in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "ReflExpr":
        return ReflExpr.from_pairs(obj["n"], obj["entries"])


# -- cyclic sequence calculus ---------------------------------------------
# A length-m sequence is identified with the m-periodic two-sided sequence
# it generates; shifts and reversals act on the periodic model.

def shift(t: ReflExpr, k: int) -> ReflExpr:
    """t[k]: the cyclic shift x'_i = x_{k+i}."""
    m = len(t)
    if m == 0:
        return t
    return ReflExpr(t.n, tuple(t.entries[(k + i) % m] for i in range(m)))


def reverse(t: ReflExpr) -> ReflExpr:
    """The reversal y_i = x_{1-i}; on one period this is plain reversal."""
    return ReflExpr(t.n, tuple(reversed(t.entries)))


def truncate(t: ReflExpr) -> ReflExpr:
    """Drop the last entry."""
    if len(t) == 0:
        raise ValueError("empty sequence")
    return ReflExpr(t.n, t.entries[:-1])


def concat(t: ReflExpr, u: ReflExpr) -> ReflExpr:
    if t.n != u.n:
        raise ValueError("rank mismatch")
    return ReflExpr(t.n, t.entries + u.entries)


def shift1(t: ReflExpr, k: int) -> ReflExpr:
    """t<k>: keep the first entry, cyclically shift the tail by k."""
    if len(t) == 0:
        raise ValueError("empty sequence")
    tail = ReflExpr(t.n, t.entries[1:])
    return ReflExpr(t.n, (t.entries[0],) + shift(tail, k).entries)


def ddot(t: ReflExpr) -> ReflExpr:
    """First entry followed by the reversed tail."""
    if len(t) == 0:
        raise ValueError("empty sequence")
    return ReflExpr(t.n, (t.entries[0],) + tuple(reversed(t.entries[1:])))


def fold_expr(t: ReflExpr, X: Sequence[int]) -> ReflExpr:
    """
    Fold the expression at the positions X = {x_1 < ... < x_l}, all of which
    must carry the same reflection p.  Entries strictly between x_{2j-1} and
    x_{2j} are conjugated by p; for odd l the last interval is (x_l, +inf),
    so the whole tail after x_l is conjugated.
    """
    X = sorted(set(X))
    if not X:
        return t
    m = len(t)
    if X[0] < 1 or X[-1] > m:
        raise ValueError("fold positions out of range")
    p = t[X[0]]
    for x in X:
        if t[x] != p:
            raise ValueError("fold positions carry different reflections")
    pw = p.as_permutation()
    entries = list(t.entries)
    padded = X + [m + 1] if len(X) % 2 else X
    for j in range(0, len(padded), 2):
        lo, hi = padded[j], padded[j + 1]
        for pos in range(lo + 1, min(hi, m + 1)):
            entries[pos - 1] = pw.conjugate_reflection(entries[pos - 1])
    return ReflExpr(t.n, tuple(entries))


def make_sequence(kind: str, i: Sequence[int], n: int) -> ReflExpr:
    """
    The a/b/c/D constructors on a sequence i of distinct indices in 1..n:
      a(i) = ((i1 i2), (i1 i3), ..., (i1 im))       length m-1
      b(i) = ((i1 i2), (i2 i3), ..., (i_{m-1} im))  length m-1
      c(i) = b(i) followed by (im i1)               length m
      D(i) = a(i) ++ c(i)                           length 2m-1
    """
    i = tuple(i)
    if len(set(i)) != len(i):
        raise ValueError("repeated entries")
    if any(not 1 <= v <= n for v in i):
        raise ValueError("entries out of range")
    m = len(i)

    def refl(a, b):
        return Reflection(min(a, b), max(a, b), n)

    if kind == "a":
        if m < 2:
            raise ValueError("a-sequence needs length >= 2")
        return ReflExpr(n, tuple(refl(i[0], i[k]) for k in range(1, m)))
    if kind == "b":
        if m < 2:
            raise ValueError("b-sequence needs length >= 2")
        return ReflExpr(n, tuple(refl(i[k], i[k + 1]) for k in range(m - 1)))
    if kind == "c":
        if m < 2:
            raise ValueError("c-sequence needs length >= 2")
        return ReflExpr(n, tuple(refl(i[k], i[k + 1]) for k in range(m - 1))
                        + (refl(i[m - 1], i[0]),))
    if kind == "D":
        if m < 2:
            raise ValueError("D-sequence needs length >= 2")
        return concat(make_sequence("a", i, n), make_sequence("c", i, n))
    raise ValueError(f"unknown kind {kind!r}")


def positions_of(t: ReflExpr, p: Reflection) -> tuple:
    """Positions i with t_i = p (the M_p of the all-zero subexpression)."""
    return tuple(i for i in range(1, len(t) + 1) if t[i] == p)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
