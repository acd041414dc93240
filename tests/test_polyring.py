import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bsbimod.polyring import (Polynomial, RationalFn, GradedRank, NotDivisible,
                              act, exact_div, try_exact_div,
                              divisible_by_power, demazure, wp)
import oracle


def e(i, n=4):
    return Polynomial.var(n, i)


def random_poly(rng, n=4, terms=3, deg=2):
    out = Polynomial.zero(n)
    for _ in range(terms):
        mono = Polynomial.const(n, Fraction(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, deg)):
            mono = mono * e(rng.randint(1, n), n)
        out = out + mono
    return out


@st.composite
def divisibility_cases(draw):
    """(f, alpha, k): f a random polynomial on n = 3, 4 with denominators
    1-3, times (e_a - e_b)^j for j = 0..3, sometimes plus noise; alpha is
    c(e_a - e_b) for c in {1, -1, 2, 1/3}, with a and b in either order."""
    n = draw(st.sampled_from([3, 4]))
    a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                         unique=True))
    root = e(a, n) - e(b, n)

    def poly():
        out = Polynomial.zero(n)
        for _ in range(draw(st.integers(0, 4))):
            exp = tuple(draw(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n)))
            c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            out = out + Polynomial(n, {exp: c})
        return out

    f = poly()
    for _ in range(draw(st.integers(0, 3))):
        f = f * root
    if draw(st.booleans()):
        f = f + poly()
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    return f, root.scale(c), draw(st.integers(0, 5))


def random_transposition(rng, n=4):
    return tuple(sorted(random.Random(rng.random()).sample(range(1, n + 1), 2)))


class TestArithmetic:
    def test_ring_oracles(self):
        a, b = e(1), e(2)
        assert (a + b) * (a - b) == a * a - b * b
        assert (a - b).scale(Fraction(1, 2)) + (a - b).scale(Fraction(1, 2)) \
            == a - b
        assert Polynomial.one(4) * a == a
        assert (a - a).is_zero()

    def test_graded_lex_leading(self):
        # e1^2 beats e1*e2 beats e2^2 beats e1 (degree first, then lex)
        f = e(1) * e(2) + e(2) * e(2) + e(1)
        exp, c = f.leading()
        assert exp == (1, 1, 0, 0) and c == 1
        g = f + e(1) * e(1)
        assert g.leading()[0] == (2, 0, 0, 0)

    def test_degrees(self):
        f = e(1) * e(2)
        # generators sit in degree 2, so a quadratic monomial has degree 4
        assert f.degree() == 4
        assert f.is_homogeneous() and f.homogeneous_degree() == 4
        assert not (f + e(1)).is_homogeneous()

    def test_json_round_trip(self, rng):
        for _ in range(20):
            f = random_poly(rng)
            assert Polynomial.from_json(f.to_json()) == f


class TestFloatCoefficients:
    # a float would be stored as its binary expansion, so it is refused
    def test_init(self):
        with pytest.raises(TypeError):
            Polynomial(2, {(1, 0): 0.1})

    def test_const(self):
        with pytest.raises(TypeError):
            Polynomial.const(2, 0.1)
        assert Polynomial.const(2, Fraction(1, 10)).constant_value() == \
            Fraction(1, 10)

    def test_scale(self):
        p = Polynomial.var(2, 1)
        with pytest.raises(TypeError):
            p.scale(0.1)
        assert p.scale(3) == Polynomial(2, {(1, 0): 3})


class TestAction:
    def test_act_moves_variables(self):
        f = e(1) - e(2)
        assert act((2, 1, 3, 4), f) == e(2) - e(1)

    @given(st.permutations(list(range(1, 5))),
           st.permutations(list(range(1, 5))),
           st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_act_is_an_action(self, u, v, seed):
        f = random_poly(random.Random(seed))
        uv = tuple(u[v[i] - 1] for i in range(4))
        assert act(uv, f) == act(tuple(u), act(tuple(v), f))


class TestDivision:
    def test_exact_div(self):
        f = (e(1) - e(2)) * (e(1) + e(3))
        assert exact_div(f, e(1) - e(2)) == e(1) + e(3)
        with pytest.raises(NotDivisible):
            exact_div(e(1), e(1) - e(2))
        assert try_exact_div(e(1), e(1) - e(2)) is None

    def test_divisible_by_power(self):
        alpha = e(1) - e(3)
        assert divisible_by_power(alpha * alpha * e(2), alpha, 2)
        assert not divisible_by_power(alpha * e(2), alpha, 2)
        assert divisible_by_power(Polynomial.zero(4), alpha, 5)

    @settings(max_examples=300, deadline=None)
    @given(divisibility_cases())
    def test_divisible_by_power_against_oracle(self, case):
        f, alpha, k = case
        assert divisible_by_power(f, alpha, k) == \
            oracle.divisible_by_power(f, alpha, k)

    @pytest.mark.parametrize("alpha", [
        e(1), e(1) + e(2), e(1) - e(2).scale(2), (e(1) - e(2)) * (e(1) - e(2)),
        e(1) - Polynomial.one(4), Polynomial.zero(4),
    ])
    def test_divisible_by_power_needs_a_root(self, alpha):
        with pytest.raises(ValueError, match="not a multiple of a root"):
            divisible_by_power(e(1) * e(2), alpha, 1)

    def test_divisible_by_power_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            divisible_by_power(e(1, 3), e(1) - e(2), 1)


class TestDemazure:
    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=80, deadline=None)
    def test_leibniz(self, s1, s2):
        rng = random.Random(s1)
        f, g = random_poly(rng), random_poly(random.Random(s2))
        t = tuple(sorted(rng.sample(range(1, 5), 2)))
        tf = act(_images(t), f)
        lhs = demazure(t, f * g)
        rhs = demazure(t, f) * g + tf * demazure(t, g)
        assert lhs == rhs

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_square_zero_and_invariance(self, seed):
        rng = random.Random(seed)
        f = random_poly(rng)
        t = tuple(sorted(rng.sample(range(1, 5), 2)))
        d = demazure(t, f)
        assert demazure(t, d).is_zero()
        assert act(_images(t), d) == d

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_splitting(self, seed):
        rng = random.Random(seed)
        f = random_poly(rng)
        t = tuple(sorted(rng.sample(range(1, 5), 2)))
        alpha = e(t[0]) - e(t[1])
        assert wp(t, f) + (demazure(t, f) * alpha).scale(Fraction(1, 2)) == f


def _images(t):
    images = list(range(1, 5))
    images[t[0] - 1], images[t[1] - 1] = t[1], t[0]
    return tuple(images)


class TestRationalFn:
    def test_cancellation(self):
        a = e(1) - e(2)
        r = RationalFn(a * e(3), (a,))
        assert r.in_R() and r.as_poly() == e(3)

    def test_addition_common_denominator(self):
        a, b = e(1) - e(2), e(2) - e(3)
        r = RationalFn(b, (a, b)) + RationalFn(a, (a, b))
        assert not RationalFn(b, (a, b)).in_R()
        # (b + a)/(ab) stays rational, but multiplying back clears it
        total = r + RationalFn(-(a + b), (a, b))
        assert total.in_R() and total.as_poly().is_zero()

    def test_equality_cross_multiplied(self):
        a = e(1) - e(2)
        assert RationalFn(a * a, (a,)) == RationalFn(a)


class TestGradedRank:
    def test_str_and_arithmetic(self):
        P = GradedRank({0: 1, -2: 3})
        assert str(P) == "1 + 3*v^-2"
        assert P + GradedRank.v_power(-2) == GradedRank({0: 1, -2: 4})
        assert P.shift(-2) == GradedRank({-2: 1, -4: 3})
        assert GradedRank.constant(2).coeffs == {0: 2}

    def test_json_round_trip(self):
        P = GradedRank({0: 1, -2: 3, -4: 1})
        assert GradedRank.from_json(P.to_json()) == P
