import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bsbimod.polyring import (Polynomial, RationalFn, GradedRank, NotDivisible,
                              act, exact_div, try_exact_div,
                              divisible_by_power, demazure, wp,
                              _linear_rows, _pack, _power_divides)
from bsbimod.coxeter import Reflection, ReflExpr
from bsbimod.locmod import res_tensor
import oracle
from conftest import exact_coefficients, scalars, typed_terms


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


def polys(draw, n, max_terms=4, min_terms=0):
    """A random polynomial in e_1..e_n with coefficients of denominator
    1-3 and exponents up to 3."""
    out = Polynomial.zero(n)
    for _ in range(draw(st.integers(min_terms, max_terms))):
        exp = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        c = Fraction(draw(st.integers(-4, 4).filter(bool)),
                     draw(st.integers(1, 3)))
        out = out + Polynomial(n, {exp: c})
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
    f = polys(draw, n)
    for _ in range(draw(st.integers(0, 3))):
        f = f * root
    if draw(st.booleans()):
        f = f + polys(draw, n)
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    return f, root.scale(c), draw(st.integers(0, 5))


@st.composite
def signed_sums(draw):
    """(parts, terms, a, b, k): 1-8 random polynomials on n = 2..6 with
    int and Fraction coefficients, all times (e_a - e_b)^j for one j in
    0..5, sometimes one of them plus noise; terms lists (index, sign)
    pairs, an index possibly twice; 0-based a != b in either order."""
    n = draw(st.integers(2, 6))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    root = e(a + 1, n) - e(b + 1, n)
    power = Polynomial.one(n)
    for _ in range(draw(st.integers(0, 5))):
        power = power * root
    parts = [polys(draw, n) * power for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        parts[-1] = parts[-1] + polys(draw, n, max_terms=2)
    terms = draw(st.lists(st.tuples(st.integers(0, len(parts) - 1),
                                    st.sampled_from([1, -1])),
                          min_size=1, max_size=8))
    return parts, terms, a, b, draw(st.integers(1, 5))


@st.composite
def division_cases(draw):
    """(f * g, g) or (f * g + r, g) for a random nonzero g: a root, a
    non-monic multiple of a root, or a polynomial of up to four terms."""
    n = draw(st.sampled_from([2, 3, 4]))
    a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                         unique=True))
    kind = draw(st.sampled_from(["root", "non-monic", "multi"]))
    if kind == "root":
        g = e(a, n) - e(b, n)
    elif kind == "non-monic":
        g = (e(a, n) - e(b, n)).scale(
            draw(st.sampled_from([2, -3, Fraction(2, 3)])))
    else:
        g = Polynomial.zero(n)
        while g.is_zero():
            g = polys(draw, n, min_terms=1)
    f = polys(draw, n) * g
    if draw(st.booleans()):
        f = f + polys(draw, n, max_terms=2)
    return f, g


@st.composite
def root_division_cases(draw):
    """(f, c(e_a - e_b)) for c in {1, -1, 2, -2, 1/3}, a and b in either
    order: f is q times the root, sometimes plus noise (then mostly not
    divisible), or a random polynomial; q and the noise have int and
    Fraction coefficients, and q sometimes high powers of e_a and e_b."""
    n = draw(st.sampled_from([2, 3, 4]))
    a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                         unique=True))
    root = (e(a, n) - e(b, n)).scale(
        draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 3)])))
    kind = draw(st.sampled_from(["multiple", "noisy", "random"]))
    if kind == "random":
        return polys(draw, n, max_terms=6), root
    q = polys(draw, n)
    for _ in range(draw(st.integers(0, 3))):
        q = q * e(draw(st.sampled_from([a, b])), n)
    f = q * root
    if kind == "noisy":
        f = f + polys(draw, n, max_terms=2)
    return f, root


@st.composite
def linear_form_sets(draw):
    """Linear forms in n = 1..6 variables with int and Fraction
    coefficients: up to n random forms, combinations of them (dependent,
    sometimes zero) and zero forms, shuffled."""
    n = draw(st.integers(1, 6))
    base = [Polynomial(n, {tuple(int(k == i) for k in range(n)):
                           draw(scalars) for i in range(n)})
            for _ in range(draw(st.integers(0, n)))]
    forms = list(base)
    for _ in range(draw(st.integers(0, 3))):
        f = Polynomial.zero(n)
        for b in base:
            f = f + b.scale(draw(scalars))
        forms.append(f)
    forms += [Polynomial.zero(n)] * draw(st.integers(0, 1))
    return draw(st.permutations(forms))


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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mul_against_oracle(self, data):
        # the same term dict, in the same order and with the same
        # coefficient types, as the product summing exponents over zip
        n = data.draw(st.integers(0, 4))
        f, g = polys(data.draw, n), polys(data.draw, n)
        assert typed_terms(f * g) == typed_terms(oracle.poly_mul(f, g))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sub_is_adding_the_negation(self, data):
        # one copy of f's terms, in the same order and with the same
        # coefficient types as f + (-g)
        n = data.draw(st.integers(0, 4))
        f, g = polys(data.draw, n), polys(data.draw, n)
        assert typed_terms(f - g) == typed_terms(f + (-g))
        with pytest.raises(ValueError):
            f - Polynomial.zero(n + 1)

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

    @pytest.mark.parametrize("term", [
        {"exp": [1, 0], "num": "1", "den": "1"},
        {"exp": [1, 0, 0, 0, 0], "num": "1", "den": "1"},
        {"exp": [-1, 1, 0, 0], "num": "1", "den": "1"},
        {"exp": [1.0, 0, 0, 0], "num": "1", "den": "1"},
        {"exp": ["1", 0, 0, 0], "num": "1", "den": "1"},
        {"exp": [1, 0, 0, 0], "num": "1", "den": "0"},
    ])
    def test_from_json_refuses_malformed_terms(self, term):
        with pytest.raises(ValueError):
            Polynomial.from_json({"n": 4, "terms": [term]})


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

    def test_rational_fn_den_scalar(self):
        with pytest.raises(TypeError):
            RationalFn(Polynomial.one(2), den_scalar=0.1)
        r = RationalFn(Polynomial.one(2), den_scalar=Fraction(1, 10))
        assert r.as_poly() == Polynomial.const(2, 10)


class TestCoefficientTypes:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arithmetic(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        f, g = polys(data.draw, n), polys(data.draw, n)
        c = data.draw(st.sampled_from([0, 3, -1, Fraction(4, 2),
                                       Fraction(-1, 3), True]))
        for h in (f + g, f - g, f * g, -f, f.scale(c), g.scale(c)):
            assert exact_coefficients(h)
        k = Polynomial.const(n, Fraction(6, 3))
        assert exact_coefficients(k) and type(k.constant_value()) is int

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_no_zero_or_integral_fraction(self, data):
        # every ring result is built unchecked (`Polynomial._of`), the
        # constant factors and zero summands on their fast paths: each must
        # hold the terms the public constructor would make of it, in order
        n = data.draw(st.sampled_from([2, 3]))
        f, g = polys(data.draw, n), polys(data.draw, n)
        c = data.draw(scalars)
        const = Polynomial.const(n, c)
        half = Polynomial(n, {exp: Fraction(1, 2) * v
                              for exp, v in f.terms.items()})
        pairs = data.draw(st.lists(st.lists(st.integers(1, n), min_size=2,
                                            max_size=2, unique=True),
                                   max_size=3))
        t = ReflExpr(n, tuple(Reflection(min(p), max(p), n) for p in pairs))
        pool = [f, g, f.scale(c), -g, f - g, Polynomial.one(n)]
        a = [data.draw(st.sampled_from(pool)) for _ in range(len(t) + 1)]
        images = tuple(data.draw(st.permutations(range(1, n + 1))))
        loc = res_tensor(t, a)
        results = [f + g, f - g, f * g, -f, f.scale(c), f + f.scale(c),
                   f - f.scale(c), act(images, f),
                   f * const, const * f, f.scale(0), f.scale(1),
                   f.scale(Fraction(2, 2)), f.scale(Fraction(-1, 3)),
                   f + (-f), f - f, half + half, half - half.scale(-1),
                   half + half.scale(3), (half + half) - f,
                   *loc.values.values(),
                   *loc.left_mul(const).values.values(),
                   *loc.left_mul(Polynomial.const(n, Fraction(1, 2)))
                   .values.values()]
        for h in results:
            assert exact_coefficients(h) and all(h.terms.values()), h.terms
            assert typed_terms(h) == typed_terms(Polynomial(n, h.terms))
        assert (half + half) == f and f.scale(1) == f

    @settings(max_examples=150, deadline=None)
    @given(division_cases())
    def test_exact_div_and_as_poly(self, case):
        f, g = case
        try:
            q = exact_div(f, g)
        except NotDivisible:
            return
        assert exact_coefficients(q)
        r = RationalFn(f, (g,), den_scalar=Fraction(3, 2))
        assert r.in_R() and exact_coefficients(r.as_poly())
        assert r.as_poly() == q.scale(Fraction(2, 3))

    def test_linear_rows(self):
        # the rank check divides row entries, so they must be Fractions:
        # an int row entry would make the division a float
        forms = [e(1) - e(2), e(2).scale(3) - e(3),
                 e(1) + e(2).scale(2) - e(3)]
        rows, pivots = _linear_rows(forms, "not linear")
        assert pivots == [0, 1]
        assert all(type(x) is Fraction for row in rows for x in row)

    @settings(max_examples=300, deadline=None)
    @given(linear_form_sets())
    def test_linear_rows_against_oracle(self, forms):
        # fraction-free pivots equal those of the Fraction row reduction
        rows, pivots = _linear_rows(forms, "not linear")
        expect_rows, expect_pivots = oracle.linear_rows(forms, "not linear")
        assert pivots == expect_pivots
        assert rows == expect_rows
        assert all(type(x) is Fraction for row in rows for x in row)

    @pytest.mark.parametrize("f, text, blob", [
        (Polynomial(3, {(2, 0, 0): 3, (1, 1, 0): Fraction(-1, 2),
                        (0, 0, 1): -1, (0, 0, 0): Fraction(4, 2)}),
         "3*e1^2 - 1/2*e1*e2 - e3 + 2",
         '{"n": 3, "terms": [{"exp": [2, 0, 0], "num": "3", "den": "1"}, '
         '{"exp": [1, 1, 0], "num": "-1", "den": "2"}, '
         '{"exp": [0, 0, 1], "num": "-1", "den": "1"}, '
         '{"exp": [0, 0, 0], "num": "2", "den": "1"}]}'),
        (Polynomial(2, {(1, 0): Fraction(-3, 4), (0, 1): 1}),
         "-3/4*e1 + e2",
         '{"n": 2, "terms": [{"exp": [1, 0], "num": "-3", "den": "4"}, '
         '{"exp": [0, 1], "num": "1", "den": "1"}]}'),
    ])
    def test_golden_output(self, f, text, blob):
        # the same strings as when every coefficient was a Fraction
        assert str(f) == text
        assert json.dumps(f.to_json()) == blob
        assert Polynomial.from_json(json.loads(blob)) == f


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
    @given(division_cases())
    def test_exact_div_against_oracle(self, case):
        f, g = case
        try:
            want = oracle.exact_div(f, g)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                exact_div(f, g)
            assert try_exact_div(f, g) is None
        else:
            assert exact_div(f, g) == want

    @settings(max_examples=300, deadline=None)
    @given(root_division_cases())
    def test_root_kernel_against_oracle(self, case):
        # a root divisor takes the one-pass kernel; the quotient and the
        # type of every coefficient match the long division's
        f, root = case
        try:
            want = oracle.exact_div(f, root)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                exact_div(f, root)
            return
        got = exact_div(f, root)
        assert sorted(typed_terms(got)) == sorted(typed_terms(want))

    @settings(max_examples=300, deadline=None)
    @given(divisibility_cases())
    def test_divisible_by_power_against_oracle(self, case):
        f, alpha, k = case
        assert divisible_by_power(f, alpha, k) == \
            oracle.divisible_by_power(f, alpha, k)

    @settings(max_examples=300, deadline=None)
    @given(signed_sums())
    def test_packed_kernel_against_oracle(self, case):
        parts, terms, a, b, k = case
        ints = oracle.integer_terms(parts)
        total: dict = {}
        for j, sign in terms:
            for x, c in ints[j].items():
                total[x] = total.get(x, 0) + sign * c
        w, values = _pack(parts)
        assert _power_divides(values, terms, w, a, b, k) == \
            oracle.root_power_divides(total, a, b, k)

    @pytest.mark.parametrize("da, db", [(200, 100), (200, 52), (200, 53),
                                        (255, 0), (0, 300)])
    def test_divisible_by_power_high_degree(self, da, db):
        # (e1 - e2)^3 e1^da e2^db: x_a + x_b runs up to the total degree
        # (255 and 256 at the edge of an 8-bit field), past a byte
        n = 3
        alpha = e(1, n) - e(2, n)
        f = alpha * alpha * alpha
        for _ in range(da):
            f = f * e(1, n)
        for _ in range(db):
            f = f * e(2, n)
        for g in (f, f * e(3, n) + e(1, n) * f, f + e(3, n)):
            for root in (alpha, -alpha):
                for k in range(6):
                    assert divisible_by_power(g, root, k) == \
                        oracle.divisible_by_power(g, root, k)
        assert divisible_by_power(f, alpha, 3)
        assert not divisible_by_power(f, alpha, 4)

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

    @pytest.mark.parametrize("t", [(1, 1), (0, 2), (1, 5)])
    def test_refuses_a_non_reflection(self, t):
        with pytest.raises(ValueError, match="bad reflection"):
            demazure(t, e(1) * e(2))


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

    def test_non_integer_coefficient(self):
        # int(c) would store {0: 0} for 0.5 and print 1 for 1.5
        for c in (0.5, 1.5, 2.0, Fraction(1, 2)):
            with pytest.raises(TypeError):
                GradedRank({0: c})
        assert GradedRank({0: Fraction(4, 2)}).coeffs == {0: 2}

    def test_json_round_trip(self):
        P = GradedRank({0: 1, -2: 3, -4: 1})
        assert GradedRank.from_json(P.to_json()) == P
