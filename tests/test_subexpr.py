import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bsbimod.coxeter import Permutation, Reflection, ReflExpr, make_sequence
from bsbimod.polyring import Polynomial
from bsbimod.subexpr import (Subexpr, SubSet, enumerate_sub, graph, components,
                             frozen_set, unfrozen_set, con_component, balance,
                             balanced_set, rel_card, equiv_class,
                             ENUM_IMPLEMENTATION)
import oracle
from conftest import random_expr, reachable_targets, typed_terms


def brute_force_sub(t, w):
    m = len(t.entries)
    out = []
    for bits in itertools.product((0, 1), repeat=m):
        prod = Permutation.identity(t.n)
        for b, p in zip(bits, t.entries):
            if b:
                prod = prod * p.as_permutation()
        if w == "all" or prod == w:
            out.append(bits)
    return out


@st.composite
def targeted_exprs(draw, max_n=6, max_len=14):
    """An S_3..S_{max_n} expression of length 0..max_len and a target: the
    identity, the product of a random subexpression, or a random
    permutation, which is often not reachable."""
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(0, max_len))
    pairs = draw(st.lists(st.lists(st.integers(1, n), min_size=2,
                                   max_size=2, unique=True),
                          min_size=m, max_size=m))
    t = ReflExpr(n, tuple(Reflection(min(a, b), max(a, b), n)
                          for a, b in pairs))
    kind = draw(st.sampled_from(["identity", "reachable", "random"]))
    if kind == "identity":
        return t, Permutation.identity(n)
    if kind == "reachable":
        bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        return t, Subexpr(t, bits).target()
    return t, Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


def _t(n, *pairs):
    return ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))


class TestEnumeration:
    def test_kernel_selected(self):
        assert ENUM_IMPLEMENTATION == "python"

    def test_against_brute_force(self, rng):
        for _ in range(25):
            t = random_expr(rng, 4, rng.randint(1, 8))
            for w in ("all", Permutation.identity(4),
                      rng.choice(reachable_targets(t))):
                sub = enumerate_sub(t, w)
                assert list(sub.members) == brute_force_sub(t, w)

    @settings(max_examples=150, deadline=None)
    @given(targeted_exprs())
    @example((_t(3), Permutation.identity(3)))
    @example((_t(3), Permutation((2, 1, 3))))
    @example((_t(4, (1, 3)), Permutation((3, 2, 1, 4))))
    @example((_t(4, (1, 3)), Permutation((2, 1, 3, 4))))
    @example((_t(5, (1, 2), (2, 3)), Permutation.identity(5)))
    def test_against_dfs_oracle(self, case):
        t, w = case
        assert enumerate_sub(t, w).members == oracle.target_members(t, w)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_meet_in_the_middle_oracle(self, n):
        # m = 0 and m = 1 leave the head half empty
        rng = random.Random(n)
        for m in range(15):
            for _ in range(3):
                t = random_expr(rng, n, m)
                bits = [rng.randint(0, 1) for _ in range(m)]
                moved = Permutation(tuple(rng.sample(range(1, n + 1), n)))
                trans = [(r.i - 1, r.j - 1) for r in t.entries]
                for w in (Permutation.identity(n), Subexpr(t, bits).target(),
                          moved):
                    target = tuple(v - 1 for v in w.images)
                    assert enumerate_sub(t, w).members == tuple(
                        oracle.meet_in_the_middle(n, trans, target))

    def test_rank_beyond_one_byte(self):
        # the kernel works on the points that t moves, whatever n is
        t = _t(300, (1, 300), (2, 299), (1, 300), (2, 299), (1, 2))
        for w in reachable_targets(t) + [Permutation.identity(300)]:
            assert list(enumerate_sub(t, w).members) == brute_force_sub(t, w)
        off = list(range(1, 301))
        off[2], off[3] = 4, 3   # (3 4) is no product of t's entries
        assert enumerate_sub(t, Permutation(tuple(off))).members == ()

    def test_m22_identity_target(self):
        # the DFS oracle takes seconds here; the count is checked against
        # the number of subsets per product, propagated over the entries
        t = random_expr(random.Random(22), 4, 22)
        e = Permutation.identity(4)
        start = time.perf_counter()
        members = enumerate_sub(t, e).members
        elapsed = time.perf_counter() - start
        assert all(a < b for a, b in zip(members, members[1:]))
        counts = {e: 1}
        for r in t.entries:
            s = r.as_permutation()
            nxt = dict(counts)
            for p, c in counts.items():
                q = p * s
                nxt[q] = nxt.get(q, 0) + c
            counts = nxt
        assert len(members) == counts[e] > 0
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [3, 5])
    def test_target_of_wrong_rank_refused(self, n):
        t = _t(4, (1, 2), (3, 4))
        with pytest.raises(ValueError, match=f"target in S_{n}"):
            enumerate_sub(t, Permutation.identity(n))

    def test_all_refused_above_size_cap(self):
        # Sub(t) for m = 21 has 2^21 members: refused before any is built
        t = ReflExpr(2, (Reflection(1, 2, 2),) * 21)
        with pytest.raises(ValueError, match="ALL_CAP = 1048576"):
            enumerate_sub(t, "all")

    def test_d_sequence_of_length_25(self):
        # the n = 13 D-sequence has m = 25 entries and 2n - 1 = 25 members
        # of Sub(t, 1); meet in the middle stores 2^13 tail subproducts
        t = make_sequence("D", tuple(range(1, 14)), 13)
        assert len(t) == 25
        assert len(enumerate_sub(t, Permutation.identity(13)).members) == 25

    def test_target_refused_above_table_cap(self):
        # m = 41: the tail table would hold 2^21 entries, refused at once
        t = ReflExpr(2, (Reflection(1, 2, 2),) * 41)
        start = time.monotonic()
        with pytest.raises(ValueError, match="ALL_CAP = 1048576"):
            enumerate_sub(t, Permutation.identity(2))
        assert time.monotonic() - start < 1.0

    def test_members_sorted_lex(self, rng):
        t = random_expr(rng, 4, 7)
        sub = enumerate_sub(t, "all")
        assert list(sub.members) == sorted(sub.members)

    def test_two_solution_oracle(self):
        n = 4
        pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
        t = ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))
        sub = enumerate_sub(t, Permutation.identity(n))
        assert set(sub.members) == {(0,) * 6, (1,) * 6}


class TestSubexpr:
    def setup_method(self):
        self.t = make_sequence("D", (1, 2, 3), 3)
        self.eps = Subexpr(self.t, (1, 0, 1, 0, 0))

    def test_prefixes(self):
        # eps^{<1} = 1; eps^{<i} multiplies in the chosen entries only
        assert self.eps.prefix(1) == Permutation.identity(3)
        assert self.eps.prefix(2).images == (2, 1, 3)
        assert self.eps.prefix(6) == self.eps.target()

    def test_refl_at_conjugates(self):
        # eps^i = eps^{<i} t_i (eps^{<i})^{-1}
        for i in range(1, 6):
            u = self.eps.prefix(i)
            expect = u * self.t[i].as_permutation() * u.inverse()
            assert self.eps.refl_at(i).as_permutation() == expect

    def test_M_partitions_positions(self):
        allM = self.eps.all_M()
        got = sorted(x for Mp in allM.values() for x in Mp)
        assert got == [1, 2, 3, 4, 5]
        for p, Mp in allM.items():
            assert all(self.eps.refl_at(i) == p for i in Mp)

    def test_roots(self):
        # eps^{->i} = eps^{<i}(alpha_{t_i}) is the root of eps^i up to sign
        from bsbimod.polyring import act
        for i in range(1, 6):
            r = self.eps.refl_at(i).root()
            got = self.eps.root_before(i)
            assert got in (r, r.scale(-1))
            assert got == act(self.eps.prefix(i).images, self.t[i].root())

    @settings(max_examples=150, deadline=None)
    @given(targeted_exprs(max_n=5, max_len=8), st.booleans())
    def test_root_table(self, case, on_all):
        # SubSet.roots() against Subexpr.root_before, without the analysis
        t, w = case
        sub = enumerate_sub(t, "all" if on_all else w)
        roots = sub.roots()
        assert len(roots) == len(sub) and sub.roots() is roots
        for bits, row in zip(sub.members, roots):
            eps = Subexpr(t, bits)
            assert row == tuple(eps.root_before(k)
                                for k in range(1, len(t) + 1))
        assert getattr(sub, "_analysis_cache", None) is None

    @settings(max_examples=150, deadline=None)
    @given(targeted_exprs(max_n=5, max_len=8), st.data())
    def test_weight(self, case, data):
        # o(eps) from the prefix walk: the same terms, in the same order and
        # with the same coefficient types, as the product of root_before(i)
        t, _ = case
        eps = Subexpr(t, data.draw(st.lists(st.integers(0, 1),
                                            min_size=len(t),
                                            max_size=len(t))))
        expect = Polynomial.one(t.n)
        for i in range(1, len(t) + 1):
            expect = expect * eps.root_before(i)
        assert typed_terms(eps.weight()) == typed_terms(expect)

    def test_dotted(self):
        dot = self.eps.dotted()
        assert dot.entries == tuple(self.eps.refl_at(i) for i in range(1, 6))


@st.composite
def subexprs(draw, max_n=6, max_len=10):
    """A subexpression of an S_2..S_{max_n} expression of length
    0..max_len."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_len))
    pairs = draw(st.lists(st.lists(st.integers(1, n), min_size=2,
                                   max_size=2, unique=True),
                          min_size=m, max_size=m))
    t = ReflExpr.from_pairs(n, pairs)
    return Subexpr(t, draw(st.lists(st.integers(0, 1), min_size=m,
                                    max_size=m)))


class TestPrefixWalkAgainstOracle:
    """The prefix data of a `Subexpr`, read from one walk of one-line
    images, against the oracle's chain of `Permutation` products."""

    @settings(max_examples=300, deadline=None)
    @given(subexprs())
    def test_prefix_data(self, eps):
        t, m, n = eps.expr, len(eps), eps.expr.n
        prefixes = oracle.prefixes(eps)
        assert tuple(eps.prefix(i) for i in range(1, m + 2)) == prefixes
        assert eps.target() == prefixes[-1]
        refls = oracle.refls(eps)
        assert tuple(eps.refl_at(i) for i in range(1, m + 1)) == refls
        assert eps.dotted() == ReflExpr(n, refls)
        assert tuple(eps.root_before(i) for i in range(1, m + 1)) \
            == oracle.roots_before(eps)
        assert tuple(eps.root_after(i) for i in range(1, m + 1)) \
            == oracle.roots_after(eps)
        allM = oracle.all_M(eps)
        assert list(eps.all_M().items()) == list(allM.items())
        for i, j in itertools.combinations(range(1, n + 1), 2):
            p = Reflection(i, j, n)
            assert eps.M(p) == allM.get(p, ())
        for bad in (0, m + 1):
            with pytest.raises(IndexError):
                eps.refl_at(bad)
            with pytest.raises(IndexError):
                eps.root_before(bad)
        with pytest.raises(IndexError):
            eps.prefix(m + 2)

    @settings(max_examples=300, deadline=None)
    @given(subexprs())
    def test_balance(self, eps):
        pos, neg, balanced = balance(eps)
        assert (pos, neg, balanced) == oracle.balance(eps)
        # positive means a Bruhat drop, by the definition
        for i, u in enumerate(oracle.prefixes(eps)[:-1], 1):
            drop = (u * eps.expr[i].as_permutation()).length() < u.length()
            assert (i in pos) == drop != (i in neg)

    @settings(max_examples=200, deadline=None)
    @given(subexprs(max_len=8), st.data())
    def test_equiv_class(self, eps, data):
        # mostly a reflection with M_p nonempty, sometimes (1 2) with
        # M_p possibly empty
        p = data.draw(st.sampled_from(list(oracle.all_M(eps))
                                      + [Reflection(1, 2, eps.expr.n)]))
        for restricted in (True, False):
            got = equiv_class(eps, p, restricted)
            assert got == oracle.equiv_class(eps, p, restricted)
            assert eps.bits in got.members


class TestFold:
    def test_flip_bits(self):
        t = make_sequence("D", (1, 2, 3), 3)
        eps = Subexpr(t, (0, 0, 0, 0, 0))
        assert eps.fold((1, 3)).bits == (1, 0, 1, 0, 0)

    def test_involution_and_composition(self, rng):
        for _ in range(40):
            t = random_expr(rng, 4, 6)
            eps = Subexpr(t, tuple(rng.randint(0, 1) for _ in range(6)))
            X = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 4))))
            Y = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 4))))
            assert eps.fold(X).fold(X).bits == eps.bits
            sym = tuple(sorted(set(X) ^ set(Y)))
            assert eps.fold(X).fold(Y).bits == eps.fold(sym).bits

    def test_fold_preserves_target_on_even_M_subsets(self, rng):
        for _ in range(40):
            t = random_expr(rng, 4, 6)
            eps = Subexpr(t, tuple(rng.randint(0, 1) for _ in range(6)))
            for p, Mp in eps.all_M().items():
                for r in range(0, len(Mp) + 1, 2):
                    for X in itertools.combinations(Mp, r):
                        assert eps.fold(X).target() == eps.target()


class TestRelCard:
    def test_oracle(self):
        assert rel_card({2, 3, 9}, {1, 2, 3, 4, 7, 9}) == 2

    def test_parity_identities(self, rng):
        for _ in range(200):
            X = sorted(rng.sample(range(1, 15), rng.randint(1, 8)))
            Y = set(rng.sample(X, rng.randint(0, len(X))))
            # sum_{x in X} |Y^{<x}| + |Y| = |Y|_X (mod 2)
            s = sum(len([y for y in Y if y < x]) for x in X) + len(Y)
            assert s % 2 == rel_card(Y, X) % 2

    def test_requires_subset(self):
        with pytest.raises(ValueError):
            rel_card({5}, {1, 2})


class TestGraph:
    def test_D3_cycle(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        G = graph(sub)
        assert len(sub) == 5 and len(G.edges) == 5
        assert len(components(sub)) == 1
        deg = {b: 0 for b in sub.members}
        for a, b, _, _ in G.edges:
            deg[a] += 1
            deg[b] += 1
        assert set(deg.values()) == {2}

    def test_edge_labels_in_dot(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        dot = graph(sub).to_dot()
        assert "--" in dot and "p=(" in dot and "Y={" in dot

    def test_two_solution_graph_disconnected(self):
        n = 4
        pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
        t = ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))
        sub = enumerate_sub(t, Permutation.identity(n))
        G = graph(sub)
        assert len(G.edges) == 0 and len(components(sub)) == 2


    def test_vertex_cap(self):
        t = ReflExpr(2, (Reflection(1, 2, 2),) * 11)
        sub = enumerate_sub(t, "all")
        with pytest.raises(ValueError, match="GRAPH_CAP = 1024"):
            graph(sub)
        assert getattr(sub, "_analysis_cache", None) is None


class TestFrozenSets:
    def test_frozen_and_unfrozen(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        eps = Subexpr(t, sub.members[0])
        fro = frozen_set(sub, eps, (1,))
        assert all(b[0] == eps.bits[0] for b in fro.members)
        unf = unfrozen_set(sub, eps, (1, 2))
        for b in unf.members:
            assert all(b[i] == eps.bits[i] for i in range(2, 5))

    def test_positions_out_of_range(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        eps = Subexpr(t, sub.members[0])
        for fn in (frozen_set, unfrozen_set, con_component):
            for X in ((0,), (len(t) + 1,)):
                with pytest.raises(ValueError, match="not in 1.."):
                    fn(sub, eps, X)

    def test_con_component_within_frozen(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        eps = Subexpr(t, sub.members[0])
        comp = con_component(sub, eps, (1,))
        assert eps.bits in comp.members
        fro = set(frozen_set(sub, eps, (1,)).members)
        assert set(comp.members) <= fro


class TestBalance:
    def test_balance_flags(self, rng):
        for _ in range(30):
            t = random_expr(rng, 4, 5, simple_only=True)
            for b in enumerate_sub(t, "all").members[:8]:
                eps = Subexpr(t, b)
                pos, neg, _ = balance(eps)
                assert sorted(pos + neg) == [1, 2, 3, 4, 5]
                for i in pos:
                    u = eps.prefix(i)
                    assert (u * t[i].as_permutation()).length() < u.length()

    def test_balanced_set_on_two_solutions(self):
        n = 4
        pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
        t = ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))
        sub = enumerate_sub(t, Permutation.identity(n))
        # the all-ones solution has no Bruhat drop at its first position
        assert isinstance(balanced_set(sub), bool)


class TestSubSet:
    @pytest.mark.parametrize("members", [
        [(0, 1), (0, 0), (1, 0), (1, 1)], [(0, 0), (0, 0)]])
    def test_members_distinct_and_ordered(self, members):
        # divdiff_down reads Sub(t) by index, so the order is enforced
        with pytest.raises(ValueError, match="lexicographic order"):
            SubSet(_t(3, (1, 2), (2, 3)), None, members)


    def test_contains(self):
        t = make_sequence("D", (1, 2, 3), 3)
        other = make_sequence("D", (1, 3, 2), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        inside = set(sub.members)
        for bits in itertools.product((0, 1), repeat=len(t)):
            assert (Subexpr(t, bits) in sub) == (bits in inside)
            assert (bits in sub) == (list(bits) in sub) == (bits in inside)
            assert Subexpr(other, bits) not in sub
        cache = sub._member_cache
        assert sub.members[0] in sub and sub._member_cache is cache

    def test_internal_sets_pass_the_public_check(self, rng):
        # every set built with the unchecked SubSet._of is one the public
        # constructor accepts as it stands
        for _ in range(20):
            t = random_expr(rng, 4, 7)
            sub = enumerate_sub(t, Permutation.identity(4))
            eps = Subexpr(t, rng.choice(sub.members))
            X = sorted(rng.sample(range(1, 8), 3))
            p = rng.choice(list(eps.all_M()))
            built = [enumerate_sub(t, "all"), sub,
                     enumerate_sub(t, rng.choice(reachable_targets(t))),
                     sub.restrict(rng.sample(sub.members, len(sub) // 2)),
                     equiv_class(eps, p, True), equiv_class(eps, p, False),
                     frozen_set(sub, eps, X), unfrozen_set(sub, eps, X),
                     con_component(sub, eps, X)]
            for s in built:
                assert SubSet(s.expr, s.target, s.members) == s


class TestJson:
    def test_subset_json(self):
        t = make_sequence("D", (1, 2, 3), 3)
        sub = enumerate_sub(t, Permutation.identity(3))
        obj = sub.to_json()
        assert obj["members"] == ["".join(map(str, b)) for b in sub.members]
        assert obj["target"] == [1, 2, 3]
