import random

import pytest
from hypothesis import given, settings, strategies as st

from bsbimod.coxeter import (Permutation, Reflection, ReflExpr, shift, reverse,
                             truncate, concat, shift1, ddot, fold_expr,
                             make_sequence, positions_of)
from bsbimod.polyring import Polynomial
from conftest import random_expr


class TestPermutation:
    def test_composition_and_inverse(self):
        a = Permutation((2, 3, 1))
        b = Permutation((2, 1, 3))
        assert (a * b).images == (3, 2, 1)
        assert (a * a.inverse()).images == (1, 2, 3)

    def test_length_is_inversions(self):
        assert Permutation((1, 2, 3)).length() == 0
        assert Permutation((3, 2, 1)).length() == 3
        assert Permutation((2, 1, 3)).length() == 1

    def test_cycles(self):
        w = Permutation((2, 3, 1, 4))
        assert w.cycles() == ((1, 2, 3),)

    @given(st.permutations(list(range(1, 6))),
           st.permutations(list(range(1, 6))))
    @settings(max_examples=60, deadline=None)
    def test_length_subadditive(self, u, v):
        pu, pv = Permutation(tuple(u)), Permutation(tuple(v))
        assert (pu * pv).length() <= pu.length() + pv.length()


class TestReflection:
    def test_as_permutation_and_root(self):
        t = Reflection(1, 3, 4)
        assert t.as_permutation().images == (3, 2, 1, 4)
        assert str(t.root()) == "e1 - e3"
        assert not t.is_simple() and Reflection(2, 3, 4).is_simple()

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_root_terms_in_order(self, n):
        # the cached root has e_i - e_j's term dict, in the same order
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                want = Polynomial.var(n, i) - Polynomial.var(n, j)
                got = Reflection(i, j, n).root()
                assert list(got.terms.items()) == list(want.terms.items())
                assert got is Reflection(i, j, n).root()

    def test_validation(self):
        with pytest.raises(ValueError):
            Reflection(3, 1, 4)


class TestSeqCalculus:
    def setup_method(self):
        self.t = ReflExpr(4, (Reflection(1, 2, 4), Reflection(2, 3, 4),
                              Reflection(3, 4, 4), Reflection(1, 4, 4)))

    def test_shift(self):
        assert shift(self.t, 1).entries == self.t.entries[1:] + \
            self.t.entries[:1]
        assert shift(self.t, -1).entries == self.t.entries[-1:] + \
            self.t.entries[:-1]
        assert shift(self.t, 4) == self.t

    def test_shift_composition(self, rng):
        for _ in range(30):
            t = random_expr(rng, 4, rng.randint(1, 6))
            k, l = rng.randint(-9, 9), rng.randint(-9, 9)
            assert shift(shift(t, k), l) == shift(t, k + l)

    def test_rev_shift(self, rng):
        for _ in range(30):
            t = random_expr(rng, 4, rng.randint(1, 6))
            k = rng.randint(-9, 9)
            assert reverse(shift(t, k)) == shift(reverse(t), -k)

    def test_shift1_and_ddot(self):
        a, b, c, d = self.t.entries
        assert shift1(self.t, 1).entries == (a, c, d, b)
        assert ddot(self.t).entries == (a, d, c, b)
        assert truncate(self.t).entries == (a, b, c)
        assert concat(truncate(self.t), ReflExpr(4, (d,))) == self.t

    def test_empty_guards(self):
        empty = ReflExpr(4, ())
        with pytest.raises(ValueError):
            shift1(empty, 1)
        with pytest.raises(ValueError):
            ddot(empty)


class TestFoldExpr:
    def test_conjugates_between(self):
        # folding a paired interval conjugates the strictly-inner entries
        n = 4
        p = Reflection(1, 2, n)
        t = ReflExpr(n, (p, Reflection(2, 3, n), p))
        out = fold_expr(t, (1, 3))
        assert out.entries[0] == p and out.entries[2] == p
        assert out.entries[1] == Reflection(1, 3, n)

    def test_singleton_pairs_with_infinity(self):
        # an odd fold set is padded with the virtual position m+1
        n = 3
        p = Reflection(1, 2, n)
        t = ReflExpr(n, (p, Reflection(2, 3, n)))
        out = fold_expr(t, (1,))
        assert out.entries[0] == p
        assert out.entries[1] == Reflection(1, 3, n)


class TestMakeSequence:
    def test_oracles(self):
        n = 4
        b = make_sequence("b", (1, 2, 3, 4), n)
        assert [(r.i, r.j) for r in b.entries] == [(1, 2), (2, 3), (3, 4)]
        a = make_sequence("a", (1, 2, 3, 4), n)
        assert [(r.i, r.j) for r in a.entries] == [(1, 2), (1, 3), (1, 4)]
        c = make_sequence("c", (1, 2, 3, 4), n)
        assert [(r.i, r.j) for r in c.entries] == \
            [(1, 2), (2, 3), (3, 4), (1, 4)]
        D = make_sequence("D", (1, 2, 3, 4), n)
        assert D == concat(a, c) and len(D) == 2 * n - 1

    def test_splitting_relations(self, rng):
        n = 6
        for _ in range(20):
            m = rng.randint(3, n)
            i = tuple(rng.sample(range(1, n + 1), m))
            k = rng.randint(2, m - 1)
            a = make_sequence("a", i, n)
            assert a == concat(make_sequence("a", i[:k], n),
                               make_sequence("a", (i[0],) + i[k:], n))
            b = make_sequence("b", i, n)
            assert b == concat(make_sequence("b", i[:k], n),
                               make_sequence("b", i[k - 1:], n))
            if k > 1:
                c = make_sequence("c", i, n)
                assert c == concat(make_sequence("b", i[:k], n),
                                   make_sequence("b", i[k - 1:] + (i[0],), n))

    def test_conjugation_equivariance(self, rng):
        n = 5
        for _ in range(20):
            m = rng.randint(2, n)
            i = tuple(rng.sample(range(1, n + 1), m))
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            si = tuple(sigma(x) for x in i)
            for kind in ("a", "b"):
                plain = make_sequence(kind, i, n)
                conj = ReflExpr(n, tuple(sigma.conjugate_reflection(r)
                                         for r in plain.entries))
                assert conj == make_sequence(kind, si, n)

    def test_D_doubled_entries_only(self, rng):
        n = 6
        for _ in range(20):
            m = rng.randint(3, n)
            i = tuple(rng.sample(range(1, n + 1), m))
            D = make_sequence("D", i, n)
            special = {Reflection(*sorted((i[0], i[1])), n),
                       Reflection(*sorted((i[0], i[-1])), n)}
            for p in set(D.entries):
                count = len(positions_of(D, p))
                assert count == (2 if p in special else 1)
