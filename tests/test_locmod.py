import random

import pytest

from bsbimod.coxeter import Permutation, Reflection, ReflExpr, make_sequence
from bsbimod.polyring import Polynomial, RationalFn, act
from bsbimod.subexpr import Subexpr, enumerate_sub
from bsbimod.locmod import (FnOnSub, unit, indicator, res_tensor, sigma,
                            membership, copy_up, conc_up, restrict_down,
                            divdiff_down, DecoTree, basis, nabla_X, mu,
                            express_in_basis, inner, pairing_matrix)
from conftest import random_expr


def e(i, n=3):
    return Polynomial.var(n, i)


def s12(n=3):
    return Reflection(1, 2, n)


def small_expr(n=3):
    return ReflExpr(n, (Reflection(1, 2, n), Reflection(2, 3, n)))


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
        h2 = FnOnSub(subw, {(1, 1): e(1) - e(2)})
        assert membership(h2, "XwPhi", Phi)[0]


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
