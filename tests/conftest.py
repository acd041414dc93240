import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bsbimod.coxeter import Permutation, Reflection, ReflExpr


def random_expr(rng: random.Random, n: int, m: int,
                simple_only: bool = False) -> ReflExpr:
    entries = []
    for _ in range(m):
        if simple_only:
            i = rng.randrange(1, n)
            j = i + 1
        else:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
        entries.append(Reflection(i, j, n))
    return ReflExpr(n, tuple(entries))


def reachable_targets(t: ReflExpr):
    """All products of subsequences of t (small m only)."""
    seen = {Permutation.identity(t.n)}
    for p in t.entries:
        seen |= {w * p.as_permutation() for w in seen}
    return sorted(seen, key=lambda w: w.images)


def exact_coefficients(f) -> bool:
    """Every coefficient of the Polynomial f is an int or a Fraction with
    denominator above 1."""
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in f.terms.values())


# int and Fraction coefficients, zero included
scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def typed_terms(f) -> list:
    """The terms of the Polynomial f in dict order, each coefficient with
    its type, so that equal lists mean identical term dicts."""
    return [(exp, c, type(c)) for exp, c in f.terms.items()]


@pytest.fixture
def rng():
    return random.Random(20240824)
