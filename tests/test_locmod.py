import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bsbimod.coxeter import Permutation, Reflection, ReflExpr, make_sequence
from bsbimod import locmod, subexpr
from bsbimod.polyring import NotDivisible, Polynomial, RationalFn, act
from bsbimod.subexpr import Subexpr, SubSet, enumerate_sub, con_component
from bsbimod.locmod import (FnOnSub, unit, indicator, res_tensor, sigma,
                            membership, DecoTree, basis, nabla_X, mu,
                            express_in_basis, inner, pairing_matrix)
from bsbimod.orderalg import closeness, step_generator
import oracle
from oracle import conc_up, copy_up, divdiff_down, restrict_down
from conftest import exact_coefficients, random_expr, scalars, typed_terms


def e(i, n=3):
    return Polynomial.var(n, i)


def s12(n=3):
    return Reflection(1, 2, n)


def small_expr(n=3):
    return ReflExpr(n, (Reflection(1, 2, n), Reflection(2, 3, n)))


@st.composite
def tensor_factors(draw, n):
    """A constant, a linear form c_a e_a + c_b e_b, or an inhomogeneous
    polynomial (a product of two linear forms plus one plus a constant),
    with int and Fraction coefficients."""
    def linear():
        a, b = draw(st.integers(1, n)), draw(st.integers(1, n))
        return (Polynomial.var(n, a).scale(draw(scalars))
                + Polynomial.var(n, b).scale(draw(scalars)))
    kind = draw(st.sampled_from(["constant", "linear", "inhomogeneous"]))
    const = Polynomial.const(n, draw(scalars))
    if kind == "constant":
        return const
    if kind == "linear":
        return linear()
    return linear() * linear() + linear() + const


@st.composite
def tensor_cases(draw, ranks=(2, 5), max_len=7):
    """(t, factors): a random S_n expression, n in `ranks` (2..5 by
    default), of length 0..max_len and its m + 1 tensor factors."""
    n = draw(st.integers(*ranks))
    m = draw(st.integers(0, max_len))
    pairs = draw(st.lists(st.lists(st.integers(1, n), min_size=2,
                                   max_size=2, unique=True),
                          min_size=m, max_size=m))
    t = ReflExpr(n, tuple(Reflection(min(a, b), max(a, b), n)
                          for a, b in pairs))
    return t, [draw(tensor_factors(n)) for _ in range(m + 1)]


def random_fn(rng, sub):
    vals = {}
    for b in sub.members:
        f = Polynomial.zero(sub.expr.n)
        for _ in range(2):
            mono = Polynomial.const(sub.expr.n, rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                mono = mono * e(rng.randint(1, sub.expr.n), sub.expr.n)
            f = f + mono
        vals[b] = f
    return FnOnSub(sub, vals)


class TestFnOnSub:
    def test_pointwise_algebra(self, rng):
        sub = enumerate_sub(small_expr(), "all")
        g, h = random_fn(rng, sub), random_fn(rng, sub)
        for b in sub.members:
            assert (g + h)(b) == g(b) + h(b)
            assert (g * h)(b) == g(b) * h(b)
            assert g.left_mul(e(1))(b) == e(1) * g(b)

    def test_values_in_member_order(self):
        # the constructor keys every member in member order, whatever order
        # its values come in, so pointwise operations can pair two
        # functions' values in turn; zero values pass through them
        sub = enumerate_sub(small_expr(), "all")
        first, last = sub.members[0], sub.members[-1]
        g = FnOnSub(sub, {last: e(1), first: e(2)})
        h = FnOnSub(sub, {first: e(3)})
        for f in (g, h, g + h, h + g, g.left_mul(e(1))):
            assert list(f.values) == list(sub.members)
        assert (g + h).values == {**g.values, first: e(2) + e(3)}
        assert (h + g).values == (g + h).values
        with pytest.raises(ValueError, match="rank mismatch"):
            FnOnSub(sub, {}).left_mul(Polynomial.var(4, 1))

    def test_json_round_trip(self, rng):
        sub = enumerate_sub(small_expr(), Permutation.identity(3))
        g = random_fn(rng, sub)
        assert FnOnSub.from_json(g.to_json()) == g

    def test_homogeneity(self):
        sub = enumerate_sub(small_expr(), "all")
        assert unit(sub).homogeneous_degree() == 0
        assert unit(sub).left_mul(e(1)).homogeneous_degree() == 2


class TestResTensor:
    def test_values_are_prefix_images(self):
        t = small_expr()
        sub = enumerate_sub(t, "all")
        a = [e(1), e(2), Polynomial.one(3)]
        g = res_tensor(t, a)
        for b in sub.members:
            eps = Subexpr(t, b)
            expect = Polynomial.one(3)
            for i in range(1, 4):
                expect = expect * act(eps.prefix(i).images, a[i - 1])
            assert g(b) == expect

    @settings(max_examples=150, deadline=None)
    @given(tensor_cases())
    def test_against_oracle(self, case):
        # the prefix walk gives every value the term dict, in order and
        # with coefficient types, of the per-member product
        t, a = case
        g, expect = res_tensor(t, a), oracle.res_tensor(t, a)
        assert g.domain == expect.domain
        assert list(g.values) == list(expect.values)
        for b in expect.domain.members:
            assert typed_terms(g.values[b]) == typed_terms(expect.values[b])

    @staticmethod
    def assert_oracle(t, a):
        g, expect = res_tensor(t, a), oracle.res_tensor(t, a)
        assert list(g.values) == list(expect.values)
        for b in expect.domain.members:
            assert typed_terms(g.values[b]) == typed_terms(expect.values[b])
        return g

    @pytest.mark.parametrize("total", [3, 4, 7, 8, 15, 16])
    def test_field_width_boundary(self, total):
        # all degree on e_1, summing to 2^k - 1 or 2^k: a field of the
        # packed walk is filled exactly, or one bit wider
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 3, 3)))
        degs = [total // 3, total // 3, total - 2 * (total // 3)]
        a = [Polynomial(3, {(d, 0, 0): c}) for d, c in zip(degs, (1, -2, 3))]
        g = self.assert_oracle(t, a)
        assert g((0, 0)) == Polynomial(3, {(total, 0, 0): -6})

    @settings(max_examples=25, deadline=None)
    @given(tensor_cases(ranks=(6, 8), max_len=5))
    def test_against_oracle_high_rank(self, case):
        self.assert_oracle(*case)

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("special", ["zero", "one"])
    def test_zero_and_unit_factor(self, at, special):
        t = ReflExpr(4, tuple(Reflection(i, j, 4) for i, j in
                              ((1, 2), (2, 4), (1, 3), (3, 4))))
        a = [e(1, 4) - e(3, 4).scale(2), e(2, 4) + e(4, 4),
             e(3, 4).scale(Fraction(1, 2)) - e(1, 4), e(4, 4) - e(2, 4),
             e(1, 4) + e(2, 4)]
        a[at] = (Polynomial.zero(4) if special == "zero"
                 else Polynomial.one(4))
        g = self.assert_oracle(t, a)
        assert g.is_zero() == (special == "zero")

    def test_fractions_cancel_at_inner_node(self):
        # (1/2) e_1 times 2 e_2 is e_1 e_2 with int coefficient 1 at the
        # depth-1 nodes, before the last factor is applied
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(2, 3, 3)))
        a = [e(1).scale(Fraction(1, 2)), e(2).scale(2),
             e(3).scale(Fraction(1, 3)) + e(1)]
        g = self.assert_oracle(t, a)
        assert typed_terms(g((0, 0))) == [
            ((1, 1, 1), Fraction(1, 3), Fraction), ((2, 1, 0), 1, int)]

    def test_factor_count(self):
        t = small_expr()
        for k in (0, 2, 4):
            with pytest.raises(ValueError, match="need 3 tensor factors"):
                res_tensor(t, [Polynomial.one(3)] * k)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_factor_rank(self, at):
        a = [Polynomial.one(3)] * 3
        a[at] = Polynomial.var(4, 1)
        with pytest.raises(ValueError, match="rank mismatch"):
            res_tensor(small_expr(), a)

    def test_oracle_transposition(self):
        # over the length-1 expression ((1 2)), e_1 (x) 1 localizes to
        # e_1 on the empty subexpression and e_2 on the full one
        t = ReflExpr(3, (s12(),))
        g = res_tensor(t, [e(1), Polynomial.one(3)])
        assert g((0,)) == e(1) and g((1,)) == e(1)
        h = res_tensor(t, [Polynomial.one(3), e(1)])
        assert h((0,)) == e(1) and h((1,)) == e(2)


class TestMembership:
    def test_res_tensor_in_Xt(self, rng):
        for _ in range(10):
            t = random_expr(rng, 3, rng.randint(1, 4))
            a = [Polynomial.var(3, rng.randint(1, 3))
                 for _ in range(len(t.entries) + 1)]
            g = res_tensor(t, a)
            ok, cert = membership(g, "X(t)")
            assert ok, cert

    def test_unit_fails_when_congruence_broken(self):
        # an indicator of a single subexpression breaks the even-fold
        # congruence as soon as some M_p has two or more elements
        t = ReflExpr(3, (s12(), s12()))
        sub = enumerate_sub(t, "all")
        g = indicator(sub, [(0, 0)])
        ok, cert = membership(g, "X(t)")
        assert not ok and cert is not None

    def test_Xw_variants(self):
        t = ReflExpr(3, (s12(), s12()))
        w = Permutation.identity(3)
        subw = enumerate_sub(t, w)
        assert set(subw.members) == {(0, 0), (1, 1)}
        g = indicator(subw, [(0, 0)])
        # even-variant exponent is |X|-1 = 1: difference must be divisible
        # by alpha once; the constant difference 1 is not
        ok, _ = membership(g, "Xw")
        assert not ok
        h = FnOnSub(subw, {(0, 0): e(1) - e(2)})
        assert membership(h, "Xw")[0]
        # X^w needs divisibility by alpha^2
        assert not membership(h, "X^w")[0]
        h2 = FnOnSub(subw, {(0, 0): (e(1) - e(2)) * (e(1) - e(2))})
        assert membership(h2, "X^w")[0]

    def test_XwPhi_vanishing(self):
        t = ReflExpr(3, (s12(), s12()))
        w = Permutation.identity(3)
        subw = enumerate_sub(t, w)
        h = FnOnSub(subw, {(0, 0): e(1) - e(2)})
        Phi = subw.restrict([(0, 0)])
        ok, cert = membership(h, "XwPhi", Phi)
        assert not ok and cert[1] == "vanish"
        # bit tuples, as closeness takes them, read as that SubSet
        assert membership(h, "XwPhi", [[0, 0]]) == (ok, cert)
        h2 = FnOnSub(subw, {(1, 1): e(1) - e(2)})
        assert membership(h2, "XwPhi", Phi)[0]

    def test_bad_Phi_is_refused(self):
        # Phi is read by XwPhi alone, over the domain's own expression and
        # as members of the domain; anything else is a ValueError
        t = ReflExpr(3, (s12(), s12()))
        w = Permutation.identity(3)
        subw = enumerate_sub(t, w)
        h = FnOnSub(subw, {(0, 0): e(1) - e(2)})
        Phi = subw.restrict([(0, 0)])
        for kind in ("Xw", "X^w"):
            with pytest.raises(ValueError, match="Phi applies to XwPhi"):
                membership(h, kind, Phi)
        full = enumerate_sub(t, "all")
        with pytest.raises(ValueError, match="Phi applies to XwPhi"):
            membership(indicator(full, [(0, 0)]), "X(t)",
                       full.restrict([(0, 0)]))
        with pytest.raises(ValueError, match="XwPhi needs Phi"):
            membership(h, "XwPhi")
        # the same bit tuples over another expression
        s23 = Reflection(2, 3, 3)
        other = enumerate_sub(ReflExpr(3, (s23, s23)), w)
        assert other.members == subw.members
        with pytest.raises(ValueError, match="another expression"):
            membership(h, "XwPhi", other.restrict([(0, 0)]))
        # a bit tuple of the right length that is not a member
        for outside in (SubSet(t, w, [(0, 1)]), {(0, 1)}):
            with pytest.raises(ValueError, match="01 is not in the set"):
                membership(h, "XwPhi", outside)

    @pytest.mark.parametrize("variant", ["fulll", "Even", ""])
    def test_sigma_unknown_variant_is_refused(self, variant):
        t = ReflExpr(3, (s12(), s12()))
        g = indicator(enumerate_sub(t, "all"), [(0, 0)])
        with pytest.raises(ValueError, match="unknown variant"):
            sigma(g, Subexpr(t, (0, 0)), (1, 2), variant)


class TestLadder:
    def test_copy_restrict_adjunction(self, rng):
        t = small_expr()
        tp = ReflExpr(3, t.entries[:-1])
        subp = enumerate_sub(tp, "all")
        g = random_fn(rng, subp)
        up = copy_up(g, t)
        for eb in (0, 1):
            down = restrict_down(up, eb)
            assert down == g

    def test_conc_divdiff(self, rng):
        t = small_expr()
        tp = ReflExpr(3, t.entries[:-1])
        subp = enumerate_sub(tp, "all")
        g = random_fn(rng, subp)
        for eb in (0, 1):
            up = conc_up(g, t, eb)
            # conc at e vanishes on the other branch
            assert restrict_down(up, 1 - eb).is_zero()
            back = divdiff_down(up, eb)
            assert back == g


class TestBasis:
    def test_worked_example(self):
        t = small_expr()
        B = basis(t, DecoTree.default(2))
        supp = {"".join(L): set("".join(map(str, b)) for b in B[L].support())
                for L in B}
        assert supp[("DD")] == {"00", "01", "10", "11"}
        assert supp[("NN")] == {"00"}
        assert supp[("DN")] <= {"00", "10"} and "00" in supp[("DN")]
        assert supp[("ND")] <= {"00", "01"} and "00" in supp[("ND")]

    def test_all_elements_in_Xt(self, rng):
        for _ in range(5):
            t = random_expr(rng, 3, rng.randint(1, 3))
            B = basis(t, DecoTree.default(len(t.entries)))
            assert len(B) == 2 ** len(t.entries)
            for L, g in B.items():
                assert membership(g, "X(t)")[0], L

    def test_one_shared_domain(self):
        # all 2^m elements share one SubSet, so membership analyses it once
        B = basis(make_sequence("D", (1, 2, 3), 3))
        dom = B[("D",) * 5].domain
        assert len(B) == 32
        assert all(g.domain is dom for g in B.values())
        assert dom == enumerate_sub(dom.expr, "all")

    def test_express_round_trip(self, rng):
        t = small_expr()
        tree = DecoTree.default(2)
        B = basis(t, tree)
        sub = enumerate_sub(t, "all")
        for _ in range(10):
            coeffs = {L: Polynomial.const(3, rng.randint(-3, 3))
                      for L in B}
            g = FnOnSub(sub, {})
            for L, c in coeffs.items():
                g = g + B[L].left_mul(c)
            got = express_in_basis(g, tree)
            assert got == coeffs

    def test_homogeneous_degrees(self):
        t = small_expr()
        B = basis(t, DecoTree.default(2))
        for L, g in B.items():
            d = g.homogeneous_degree()
            assert d == 2 * sum(1 for x in L if x == "N")

    def test_cap_refused_before_building(self, monkeypatch):
        # m = 11: Sub(t) is within ALL_CAP, but the 2^11 elements would hold
        # 4^11 values; refused before Sub(t) is even enumerated
        t = ReflExpr(2, (Reflection(1, 2, 2),) * 11)
        monkeypatch.setattr(locmod, "enumerate_sub", None)
        with pytest.raises(ValueError, match="4\\^11 values.*ALL_CAP = 1048576"):
            basis(t)


class TestMuInner:
    def test_mu_evaluation(self, rng):
        t = small_expr()
        suball = enumerate_sub(t, "all")
        for b in suball.members:
            eps = Subexpr(t, b)
            m = mu(eps)
            subw = m.domain
            g = random_fn(rng, subw)
            r = inner(m, g)
            assert r.in_R() and r.as_poly() == g(b)

    def test_pairing_matrix_identity_block(self):
        t = small_expr()
        suball = enumerate_sub(t, "all")
        mus = {b: mu(Subexpr(t, b)) for b in suball.members}
        for b in suball.members:
            for c in suball.members:
                if mus[b].domain.target != mus[c].domain.target:
                    continue
                r = inner(mus[b], mus[c])
                assert r.in_R()
                expect = mus[c](b)
                assert r.as_poly() == expect


class TestNabla:
    def test_nabla_support_and_signs(self):
        t = ReflExpr(3, (s12(), s12()))
        sub = enumerate_sub(t, Permutation.identity(3))
        eps = Subexpr(t, (0, 0))
        g = nabla_X(eps, (1, 2)).restrict_to(sub)
        # supported on the even folds of {1,2} inside Sub(t,1)
        assert g((0, 0)) is not None
        vals = {b: g(b) for b in sub.members}
        assert not all(v.is_zero() for v in vals.values())


@st.composite
def exprs(draw, max_len=6):
    """A random S_3/S_4 expression of length at most max_len."""
    n = draw(st.sampled_from([3, 4]))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    entries = draw(st.lists(st.sampled_from(pairs), max_size=max_len))
    return ReflExpr(n, tuple(Reflection(i, j, n) for i, j in entries))


@st.composite
def trees(draw, m):
    """A DecoTree with a random 0/1 label on every path of length < m."""
    paths = [path for depth in range(m)
             for path in itertools.product("DN", repeat=depth)]
    return DecoTree(m, {path: draw(st.integers(0, 1)) for path in paths})


def draw_member(data, t):
    return Subexpr(t, tuple(data.draw(st.lists(
        st.integers(0, 1), min_size=len(t), max_size=len(t)))))


class TestNablaAgainstLadder:
    """The closed-form nabla products against the copy/concentration
    ladder of the oracle, and the index recursion of `express_in_basis`
    against the copy/restriction/divided-difference ladder."""

    @settings(max_examples=40, deadline=None)
    @given(exprs(), st.data())
    def test_basis(self, t, data):
        # m <= 6, on random labels and on the default tree.  Every member
        # is keyed, in member order, zeros included, and no value holds an
        # integral Fraction
        tree = data.draw(trees(len(t)))
        for got, want in ((basis(t, tree), oracle.basis(t, tree)),
                          (basis(t), oracle.basis(t))):
            assert list(got) == list(want)
            for L in want:
                assert got[L] == want[L], L
                assert list(got[L].values) == list(got[L].domain.members)
                assert all(map(exact_coefficients, got[L].values.values()))

    @settings(max_examples=60, deadline=None)
    @given(exprs(max_len=5), st.data())
    def test_membership_on_sparse_functions(self, t, data):
        # a basis element on Sub(t) for X(t) and restricted to Sub(t, w)
        # for Xw, each also with a nonzero value put at a member off its
        # support, and the zero function: most conditions then read only
        # zero values, and membership skips them
        assume(len(t) >= 2)
        n = t.n
        B = basis(t, data.draw(trees(len(t))))
        g = B[data.draw(st.sampled_from(sorted(B)))]
        sub = enumerate_sub(t, draw_member(data, t).target())
        for kind, h in (("X(t)", g), ("Xw", g.restrict_to(sub))):
            cases = [h, FnOnSub(h.domain, {})]
            off = [b for b in h.domain.members if h.values[b].is_zero()]
            if off:
                extra = data.draw(st.sampled_from([
                    Polynomial.const(n, data.draw(scalars.filter(bool))),
                    Polynomial.var(n, 1),
                    Polynomial.var(n, 1) - Polynomial.var(n, 2)]))
                cases.append(FnOnSub(h.domain, {
                    **h.values, data.draw(st.sampled_from(off)): extra}))
            for f in cases:
                assert membership(f, kind) == oracle.membership(f, kind)

    @settings(max_examples=25, deadline=None)
    @given(exprs(max_len=5), st.data())
    def test_express_with_random_tree(self, t, data):
        tree = data.draw(trees(len(t)))
        assume(any(tree.labels.values()))
        B = basis(t, tree)
        n = t.n
        coeffs = {L: data.draw(st.one_of(
            st.integers(-3, 3).map(lambda c: Polynomial.const(n, c)),
            st.integers(1, n).map(lambda i: Polynomial.var(n, i))))
            for L in B}
        g = FnOnSub(enumerate_sub(t, "all"), {})
        for L, c in coeffs.items():
            g = g + B[L].left_mul(c)
        assert express_in_basis(g, tree) == coeffs

    @settings(max_examples=40, deadline=None)
    @given(exprs(max_len=4), st.data())
    def test_express_against_ladder(self, t, data):
        # sum r_L B(L) with polynomial r_L, sometimes plus a nonzero
        # constant at one member, which puts it outside X(t) when m >= 1
        tree = data.draw(trees(len(t)))
        B = basis(t, tree)
        n = t.n
        g = FnOnSub(enumerate_sub(t, "all"), {})
        for L in B:
            r = (Polynomial.const(n, data.draw(scalars))
                 + Polynomial.var(n, data.draw(st.integers(1, n)))
                 .scale(data.draw(scalars)))
            g = g + B[L].left_mul(r)
        if len(t) and data.draw(st.booleans()):
            eps = draw_member(data, t)
            c = data.draw(scalars.filter(bool))
            g = g + indicator(g.domain, [eps.bits]).left_mul(
                Polynomial.const(n, c))
        try:
            want = oracle.express_in_basis(g, tree)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                express_in_basis(g, tree)
            return
        got = express_in_basis(g, tree)
        assert list(got) == list(want)
        for L in want:
            assert sorted(typed_terms(got[L])) == \
                sorted(typed_terms(want[L])), L

    def test_express_reads_no_prefix_domain(self, monkeypatch):
        # the recursion works on value lists: no enumeration of a prefix
        # domain and no FnOnSub, checked or not, along the way
        t = make_sequence("D", (1, 2, 3), 3)
        g = res_tensor(t, [Polynomial.var(3, 1 + i % 3)
                           for i in range(len(t) + 1)])
        calls = {"enumerate_sub": 0, "FnOnSub": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (locmod, subexpr):
            monkeypatch.setattr(mod, "enumerate_sub",
                                counted("enumerate_sub", mod.enumerate_sub))
        monkeypatch.setattr(FnOnSub, "__post_init__",
                            counted("FnOnSub", FnOnSub.__post_init__))
        monkeypatch.setattr(FnOnSub, "_of", classmethod(
            counted("FnOnSub", FnOnSub._of.__func__)))
        coeffs = express_in_basis(g)
        assert len(coeffs) == 2 ** len(t)
        assert calls == {"enumerate_sub": 0, "FnOnSub": 0}

    @settings(max_examples=100, deadline=None)
    @given(exprs(), st.data())
    def test_nabla_X(self, t, data):
        eps = draw_member(data, t)
        X = data.draw(st.sets(st.integers(1, len(t)) if len(t) else st.nothing()))
        assert nabla_X(eps, X) == oracle.nabla_X(eps, X)

    @settings(max_examples=100, deadline=None)
    @given(exprs(), st.data())
    def test_mu(self, t, data):
        eps = draw_member(data, t)
        assert mu(eps) == oracle.mu(eps)
        # on a given domain; eps lies outside it unless the targets agree
        other = draw_member(data, t)
        sub = enumerate_sub(t, data.draw(st.sampled_from(
            [other.target(), "all"])))
        assert mu(eps, sub) == oracle.mu(eps, sub)

    @settings(max_examples=100, deadline=None)
    @given(exprs(), st.data())
    def test_mu_domain_target(self, t, data):
        # mu walks eps^max once; it is the last of eps's prefix products
        eps = draw_member(data, t)
        assert mu(eps).domain.target == eps.target()

    @settings(max_examples=60, deadline=None)
    @given(exprs(), st.sampled_from(["plain", "con"]), st.data())
    def test_step_generator(self, t, mode, data):
        sub = enumerate_sub(t, draw_member(data, t).target())
        phi = frozenset(b for b in sub.members if data.draw(st.booleans()))
        for bits in sub.members:
            if bits in phi:
                continue
            eps = Subexpr(t, bits)
            cert = closeness(sub, phi, eps, mode)
            if cert is None:
                continue
            want = oracle.nabla_X(eps, cert.Y).restrict_to(sub)
            if mode == "con":
                comp = con_component(sub, eps, cert.Y)
                want = want * indicator(sub, comp.members)
            assert step_generator(sub, phi, eps, cert) == want

    def test_bad_arguments(self):
        t = small_expr()
        eps = Subexpr(t, (0, 1))
        with pytest.raises(ValueError):
            nabla_X(eps, (3,))
        with pytest.raises(ValueError):
            mu(eps, enumerate_sub(ReflExpr(3, t.entries[:1]), "all"))


@st.composite
def sparse_fns(draw, sub):
    """A function on sub, zero off a random subset of its members, with
    constant, linear and inhomogeneous nonzero values."""
    factors = tensor_factors(sub.expr.n).filter(lambda f: not f.is_zero())
    return FnOnSub(sub, {b: draw(factors) for b in sub.members
                         if draw(st.booleans())})


def same_rational(got, want) -> bool:
    """Equal numerators, denominator factors and scalars, not just equal
    values."""
    return (got.num, got.den_factors, got.den_scalar) == \
        (want.num, want.den_factors, want.den_scalar)


class TestSupportsAgainstOracle:
    """The pairing on the common support against the all-member sum of the
    oracle, and membership on the conditions a support touches against the
    oracle's scan of every condition."""

    @settings(max_examples=60, deadline=None)
    @given(exprs(max_len=5), st.data())
    def test_inner_on_sparse_functions(self, t, data):
        # two sparse functions, a function on the members where the first
        # is zero (disjoint supports), and the zero function
        sub = enumerate_sub(t, draw_member(data, t).target())
        g, h = data.draw(sparse_fns(sub)), data.draw(sparse_fns(sub))
        off = FnOnSub(sub, {b: v for b, v in h.values.items()
                            if g.values[b].is_zero()})
        zero = FnOnSub(sub, {})
        for a, b in ((g, h), (h, g), (g, g), (g, off), (off, g), (g, zero),
                     (zero, zero)):
            assert same_rational(inner(a, b), oracle.inner(a, b))
        assert inner(g, off).num.is_zero() and inner(g, zero).num.is_zero()

    @settings(max_examples=80, deadline=None)
    @given(exprs(max_len=5).filter(len), st.data())
    def test_inner_cancels_before_it_multiplies(self, t, data):
        # values built from the member's own roots, some negated or
        # repeated, so that roots of o(eps) divide g(eps), h(eps), both or
        # neither: each term, and the sum, equal the pairing that
        # multiplies first, factor for factor and in order
        sub = enumerate_sub(t, draw_member(data, t).target())

        def rooty():
            values = {}
            for b in sub.members:
                eps = Subexpr(t, b)
                v = data.draw(tensor_factors(t.n).filter(
                    lambda f: not f.is_zero()))
                for k in data.draw(st.lists(st.integers(1, len(t)),
                                            max_size=4)):
                    v = v * eps.root_before(k).scale(data.draw(
                        st.sampled_from([1, -1, Fraction(1, 2)])))
                values[b] = v
            return FnOnSub(sub, values)
        g, h = rooty(), rooty()
        for b in sub.members:
            one = FnOnSub(sub, {b: g.values[b]})
            assert same_rational(inner(one, h),
                                 oracle.inner_by_product(one, h))
        assert same_rational(inner(g, h), oracle.inner_by_product(g, h))

    @settings(max_examples=40, deadline=None)
    @given(exprs(max_len=5), st.data())
    def test_mu_against_restricted_basis_element(self, t, data):
        B = basis(t, data.draw(trees(len(t))))
        eps = draw_member(data, t)
        sub = enumerate_sub(t, eps.target())
        r = B[data.draw(st.sampled_from(sorted(B)))].restrict_to(sub)
        got = inner(mu(eps), r)
        assert same_rational(got, oracle.inner(oracle.mu(eps), r))
        assert got.in_R() and got.as_poly() == r(eps)

    @settings(max_examples=60, deadline=None)
    @given(exprs(max_len=5), st.data())
    def test_membership_with_a_perturbed_member(self, t, data):
        # a sparse combination of basis elements on Sub(t), and restricted to
        # Sub(t, w), each with one member perturbed, on or off the support
        n = t.n
        B = basis(t, data.draw(trees(len(t))))
        g = FnOnSub(enumerate_sub(t, "all"), {})
        for L in data.draw(st.lists(st.sampled_from(sorted(B)), min_size=1,
                                    max_size=3)):
            g = g + B[L].left_mul(Polynomial.var(
                n, data.draw(st.integers(1, n))))
        sub = enumerate_sub(t, draw_member(data, t).target())
        for kind, h in (("X(t)", g), ("Xw", g.restrict_to(sub)),
                        ("X^w", g.restrict_to(sub))):
            b = data.draw(st.sampled_from(h.domain.members))
            extra = data.draw(st.sampled_from([
                Polynomial.const(n, data.draw(scalars.filter(bool))),
                Polynomial.var(n, 1),
                Polynomial.var(n, 1) - Polynomial.var(n, 2)]))
            f = FnOnSub(h.domain, {**h.values, b: h.values[b] + extra})
            for x in (h, f):
                assert membership(x, kind) == oracle.membership(x, kind)

    def test_first_failure_is_not_the_first_condition(self):
        # B(NNN) is nonzero at member 000 alone; a constant added at member
        # 111 breaks only conditions that read 111, and the first of them
        # comes after conditions that read 000
        t = ReflExpr(3, (s12(), Reflection(2, 3, 3), s12()))
        g = basis(t)[("N", "N", "N")]
        assert [b for b, v in g.values.items() if v.terms] == [(0, 0, 0)]
        f = FnOnSub(g.domain, {**g.values, (1, 1, 1): Polynomial.one(3)})
        got = membership(f, "X(t)")
        assert got == oracle.membership(f, "X(t)")
        first = next(g.domain.analysis().conditions(False))
        assert not got[0] and got[1][0].bits != g.domain.members[first[0]]
        assert membership(g, "X(t)") == (True, None)

    @settings(max_examples=80, deadline=None)
    @given(exprs(max_len=5), st.booleans(), st.data())
    def test_membership_on_restricted_domains(self, t, on_all, data):
        # a SubSet.restrict-built domain need not be closed under folds: a
        # fold leaving it raises ValueError where the scan meets it, unless
        # an earlier condition fails
        sub = enumerate_sub(t, "all" if on_all else
                            draw_member(data, t).target())
        sub = sub.restrict([b for b in sub.members if data.draw(st.booleans())])
        f = data.draw(sparse_fns(sub))
        kind = "X(t)" if on_all else data.draw(st.sampled_from(["Xw", "X^w"]))
        try:
            want = oracle.membership(f, kind)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                membership(f, kind)
        else:
            assert membership(f, kind) == want

    def test_fold_leaving_a_restricted_domain_raises(self):
        # on {00, 01} of Sub((1,2)(1,2)) the fold of 00 at position 1 leaves
        # the set, in the first condition: a function with a zero value
        # raises there as one without
        t = ReflExpr(2, (Reflection(1, 2, 2), Reflection(1, 2, 2)))
        sub = enumerate_sub(t, "all").restrict([(0, 0), (0, 1)])
        one = Polynomial.one(2)
        for values in ({(0, 0): one}, {(0, 1): one}, {(0, 0): one, (0, 1): one}):
            for _ in range(2):
                with pytest.raises(ValueError, match="leaves the set"):
                    membership(FnOnSub(sub, values), "X(t)")
