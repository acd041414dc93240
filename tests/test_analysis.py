"""
Differential tests: the analysis-backed graph, frozen sets, connected
components, closeness, family growth, membership, sigma and residual
constraints against the brute-force reference implementations in
`oracle.py`.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bsbimod.coxeter import Permutation, Reflection, ReflExpr
from bsbimod.locmod import FnOnSub, membership, res_tensor, sigma
from bsbimod.polyring import Polynomial
from bsbimod.subexpr import (Subexpr, enumerate_sub, graph, components,
                             frozen_set, unfrozen_set, con_component,
                             _indices)
from bsbimod import orderalg
from bsbimod.orderalg import (closeness, algorithm1, algorithm2,
                              acyclic_rank, residual_constraints)
import oracle
from conftest import random_expr


@st.composite
def exprs(draw, n, m):
    """A random S_n expression of length m."""
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda ab: ab[0] != ab[1]),
                          min_size=m, max_size=m))
    return ReflExpr(n, tuple(Reflection(min(a, b), max(a, b), n)
                             for a, b in pairs))


@st.composite
def sub_sets(draw, max_len=7):
    """Sub(t, w) for a random S_3/S_4 expression t, with w the target of a
    random subexpression, so that the set is never empty."""
    n = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(1, max_len))
    t = draw(exprs(n, m))
    bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return enumerate_sub(t, Subexpr(t, bits).target())


@st.composite
def closeness_cases(draw):
    """(Sub(t, w), Phi, eps) with Phi a random subset and eps outside it."""
    sub = draw(sub_sets())
    eps_bits = draw(st.sampled_from(sub.members))
    phi = frozenset(b for b in sub.members
                    if b != eps_bits and draw(st.booleans()))
    return sub, phi, Subexpr(sub.expr, eps_bits)


@st.composite
def analysed_sets(draw):
    """Sub(t), Sub(t, w) or a random subset of either, for a random
    S_3-S_6 expression t of length at most 8."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 8))
    t = draw(exprs(n, m))
    if draw(st.booleans()):
        sub = enumerate_sub(t, "all")
    else:
        bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        sub = enumerate_sub(t, Subexpr(t, bits).target())
    if draw(st.booleans()):
        sub = sub.restrict(b for b in sub.members if draw(st.booleans()))
    return sub


def memo(an, i, mode="plain"):
    """The closeness memo of member i in mode, built if no call built it."""
    return (an.closeness_memo.get((i, mode)) or
            orderalg._closeness_memo(an, i, mode))


def fold_reach(an, i):
    """The members that the even folds of member i reach."""
    out = 0
    for _, _, _, reach, _ in memo(an, i)[1]:
        for r in reach:
            if r is not None:
                out |= r
    return out


def listed(stream):
    """The items of a condition stream, then the message of the ValueError
    that ends it, if one does."""
    out = []
    try:
        out.extend(stream)
    except ValueError as exc:
        out.append(str(exc))
    return out


positions = st.sets(st.integers(1, 7))


@st.composite
def linear_forms(draw, n):
    """e_a + c e_b with c in -2..2, or the constant 1."""
    a, b = draw(st.integers(1, n)), draw(st.integers(1, n))
    if a == b:
        return Polynomial.one(n)
    return Polynomial.var(n, a) + Polynomial.var(n, b).scale(
        draw(st.integers(-2, 2)))


@st.composite
def functions(draw, sub):
    """A random function on sub: the localization of a random pure tensor
    (which meets many conditions), zero on a random part of sub, plus a
    random linear form at a few members."""
    t, n = sub.expr, sub.expr.n
    g = res_tensor(t, draw(st.lists(linear_forms(n), min_size=len(t) + 1,
                                    max_size=len(t) + 1)))
    values = {}
    for b in sub.members:
        choice = draw(st.integers(0, 5))
        if choice == 0:
            values[b] = Polynomial.zero(n)
        elif choice == 1:
            values[b] = g.values[b] + draw(linear_forms(n))
        else:
            values[b] = g.values[b]
    return FnOnSub(sub, values)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(closeness_cases(), st.sampled_from(["plain", "con"]))
    def test_closeness(self, case, mode):
        sub, phi, eps = case
        assert closeness(sub, phi, eps, mode) == \
            oracle.closeness(sub, phi, eps, mode)

    @settings(max_examples=100, deadline=None)
    @given(sub_sets(max_len=6), st.data())
    def test_closeness_memo_reuse(self, sub, data):
        # one domain, many calls: the memo is filled by the first calls and
        # read by later ones, among them Phi that grow an earlier Phi and Phi
        # that differ from one only outside the members eps folds into.
        # (m <= 6: at m = 7 one brute-force oracle call can take 0.3 s.)
        an = sub.analysis()
        full = (1 << len(sub)) - 1
        masks = [0]
        for _ in range(data.draw(st.integers(3, 10))):
            eps_bits = data.draw(st.sampled_from(sub.members))
            i = an.index[eps_bits]
            base = data.draw(st.sampled_from(masks))
            extra = data.draw(st.integers(0, full))
            kind = data.draw(st.sampled_from(["any", "grow", "outside"]))
            if kind == "any":
                phi = extra
            elif kind == "grow":
                phi = base | extra
            else:
                U = fold_reach(an, i)
                phi = base & U | extra & ~U
            phi &= ~(1 << i)
            masks.append(phi)
            bits = an.bits_of(phi)
            Phi = data.draw(st.sampled_from(
                [frozenset(bits), set(bits), list(bits), sub.restrict(bits)]))
            eps = Subexpr(sub.expr, eps_bits)
            for mode in data.draw(st.permutations(["plain", "con"])):
                assert closeness(sub, Phi, eps, mode) == \
                    oracle.closeness(sub, frozenset(bits), eps, mode)

    def test_closeness_on_every_phi_shuffled(self):
        # every (eps, mode, Phi inside Sub minus eps) on one analysis per set,
        # in shuffled order, so that row entries and tables are built by one
        # key and read by others; one frozenset per Phi, so that consecutive
        # calls sometimes pass the same object
        rng = random.Random(20261019)
        sizes = []
        while len(sizes) < 3:
            t = random_expr(rng, 4, rng.randint(5, 7))
            bits = tuple(rng.randint(0, 1) for _ in range(len(t)))
            sub = enumerate_sub(t, Subexpr(t, bits).target())
            if not 6 <= len(sub) <= 8 or len(sub) in sizes:
                continue
            sizes.append(len(sub))
            an = sub.analysis()
            phis = [frozenset(an.bits_of(m)) for m in range(1 << len(sub))]
            calls = [(i, m, mode) for i in range(len(sub))
                     for m in range(1 << len(sub)) if not m >> i & 1
                     for mode in ("plain", "con")]
            rng.shuffle(calls)
            for i, m, mode in calls:
                eps = Subexpr(t, sub.members[i])
                assert closeness(sub, phis[m], eps, mode) == \
                    oracle.closeness(sub, phis[m], eps, mode)

    @staticmethod
    def check_row_entries(an, calls):
        """Each (i, allowed, mode) of calls, entry by entry against the
        oracle, on the one row-shape table of `an`; returns the (i, p,
        |M_p|, mode, n_p, candidates) seen."""
        seen = set()
        for i, allowed, mode in calls:
            for _, p, Mp, reach, _ in memo(an, i, mode)[1]:
                entry = orderalg._row_entry(an.row_shapes, p, Mp, reach,
                                            allowed | 1 << i, mode)
                # candidates come as position masks: bit x - 1 for x
                cands = tuple(tuple(b + 1 for b in _indices(c))
                              for c in entry[3])
                assert entry[:3] + (cands,) == oracle.row_entry(
                    p, Mp, reach, allowed | 1 << i, mode)
                seen.add((i, p, len(Mp), mode, entry[2], cands))
        return seen

    @settings(max_examples=150, deadline=None)
    @given(analysed_sets(), st.data())
    def test_row_entries(self, sub, data):
        # random members, allowed masks and modes, in any order, on one
        # analysis, so that later calls read shapes that earlier ones built
        if not len(sub):
            return
        full = (1 << len(sub)) - 1
        calls = data.draw(st.lists(st.tuples(
            st.integers(0, len(sub) - 1), st.integers(0, full),
            st.sampled_from(["plain", "con"])), min_size=1, max_size=12))
        self.check_row_entries(sub.analysis(), calls)

    def test_row_entries_every_mask(self):
        # every member, every part of the members its rows reach, both
        # modes; the rows of three positions give candidates that vary with
        # the admissible submasks in plain mode
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 3, 3),
                         Reflection(1, 2, 3), Reflection(2, 3, 3),
                         Reflection(1, 2, 3)))
        an = enumerate_sub(t, "all").analysis()
        calls = []
        for i in range(len(an.members)):
            U = fold_reach(an, i)
            part = U
            while True:
                calls += [(i, part, "plain"), (i, part, "con")]
                if not part:
                    break
                part = (part - 1) & U
        seen = self.check_row_entries(an, calls)
        varying = [row for row in seen if row[2:4] == (3, "plain") and
                   any(other[:5] == row[:5] and other != row
                       for other in seen)]
        assert varying     # one row, one n_p, two sets of candidates
        assert len(an.row_shapes) < len(calls)

    @settings(max_examples=100, deadline=None)
    @given(analysed_sets(), st.data())
    def test_closeness_entries(self, sub, data):
        # random members and Phi masks, both modes, on one analysis: the
        # certificate built from an entry is the oracle's, and the entry's
        # mask is the frozen set of its Y, or its component in con mode
        if not len(sub):
            return
        an, full = sub.analysis(), (1 << len(sub)) - 1
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(sub) - 1))
            phi = data.draw(st.integers(0, full)) & ~(1 << i)
            Phi, eps = an.bits_of(phi), Subexpr(sub.expr, sub.members[i])
            for mode in data.draw(st.permutations(["plain", "con"])):
                cert = closeness(sub, Phi, eps, mode)
                assert cert == oracle.closeness(sub, Phi, eps, mode)
                entry = orderalg._closeness(an, i, phi, mode)
                assert orderalg._cert(entry, mode) == cert
                if cert is not None:
                    reach = (oracle.frozen_set if mode == "plain" else
                             oracle.con_component)(sub, eps, cert.Y)
                    assert entry[0] == an.mask_of(reach.members)
                    assert entry[1] == cert.dist

    @settings(max_examples=150, deadline=None)
    @given(analysed_sets(), st.data())
    def test_frozen_masks(self, sub, data):
        # the per-position ANDs against the loop over every member, for
        # position masks and for the complements `unfrozen_set` passes
        if not len(sub):
            return
        an, m = sub.analysis(), len(sub.expr)
        for _ in range(data.draw(st.integers(1, 6))):
            i = data.draw(st.integers(0, len(sub) - 1))
            X = data.draw(st.integers(0, (1 << m) - 1))
            for mask in (X, ~X):
                assert an.frozen(i, mask) == oracle.frozen_mask(an, i, mask)

    @settings(max_examples=150, deadline=None)
    @given(analysed_sets())
    def test_per_p_and_adjacency(self, sub):
        an = sub.analysis()
        assert (an.per_p, an.adj) == oracle.analysis_tables(sub)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 5), st.integers(1, 7), st.data())
    def test_restricted_full_sets(self, n, m, data):
        # Sub(t) restricted to all but one member, and to every member: the
        # second is a full set again, whatever built it
        t = data.draw(exprs(n, m))
        full = enumerate_sub(t, "all")
        drop = data.draw(st.sampled_from(full.members))
        for sub in (full.restrict(b for b in full.members if b != drop),
                    full.restrict(full.members)):
            an = sub.analysis()
            per_p, adj = oracle.analysis_tables(sub)
            assert (an.per_p, an.adj) == (per_p, adj)
            for even in (False, True):
                assert listed(an.conditions(even)) == \
                    listed(oracle.generate_conditions(per_p, even))

    @settings(max_examples=150, deadline=None)
    @given(sub_sets(), st.data())
    def test_sets_and_components(self, sub, data):
        eps = Subexpr(sub.expr, data.draw(st.sampled_from(sub.members)))
        X = sorted(x for x in data.draw(positions) if x <= len(eps))
        assert frozen_set(sub, eps, X) == oracle.frozen_set(sub, eps, X)
        assert unfrozen_set(sub, eps, X) == oracle.unfrozen_set(sub, eps, X)
        assert con_component(sub, eps, X) == oracle.con_component(sub, eps, X)

    @settings(max_examples=150, deadline=None)
    @given(sub_sets(), st.data())
    def test_graph_of_subsets(self, sub, data):
        assert graph(sub) == oracle.graph(sub)
        keep = [b for b in sub.members if data.draw(st.booleans())]
        Phi = sub.restrict(keep)
        assert graph(Phi) == oracle.graph(Phi)

    @settings(max_examples=150, deadline=None)
    @given(sub_sets(), st.data())
    def test_components(self, sub, data):
        assert components(sub) == oracle.components(oracle.graph(sub))
        keep = [b for b in sub.members if data.draw(st.booleans())]
        Phi = sub.restrict(keep)
        assert components(Phi) == oracle.components(oracle.graph(Phi))

    @settings(max_examples=150, deadline=None)
    @given(sub_sets())
    def test_acyclic_rank(self, sub):
        # the same rank, or the same cycle witness
        assert acyclic_rank(sub.expr, sub.target) == \
            oracle.acyclic_rank(sub.expr, sub.target)

    @settings(max_examples=40, deadline=None)
    @given(sub_sets(max_len=5))
    def test_graph_of_all_subexpressions(self, sub):
        full = enumerate_sub(sub.expr, "all")
        assert graph(full) == oracle.graph(full)

    def test_family_growth(self):
        # against the frozenset family loop driven by the brute-force
        # closeness, which shares no code with the mask-level loop
        rng = random.Random(20261018)
        cases = []
        while len(cases) < 12:
            t = random_expr(rng, 4, rng.randint(5, 8))
            bits = tuple(rng.randint(0, 1) for _ in range(len(t)))
            w = Subexpr(t, bits).target()
            if 3 <= len(enumerate_sub(t, w)) <= 10:
                cases.append((t, w))
        for (t, w), options in product(cases, [{}, {"greedy": True},
                                               {"max_family": 3}]):
            assert algorithm1(t, w, **options) == \
                oracle.family_growth(t, w, "plain", **options)
            assert algorithm2(t, w, **options) == \
                oracle.family_growth(t, w, "con", **options)


class TestConditionsAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(sub_sets(max_len=6), st.sampled_from(["X(t)", "Xw", "X^w", "XwPhi"]),
           st.data())
    def test_membership(self, sub, kind, data):
        if kind == "X(t)":
            sub = enumerate_sub(sub.expr, "all")
        g = data.draw(functions(sub))
        Phi = None
        if kind == "XwPhi":
            # mostly where g vanishes, so the divisibility conditions run
            Phi = sub.restrict(b for b in sub.members
                               if data.draw(st.booleans())
                               and (g.values[b].is_zero()
                                    or data.draw(st.integers(0, 4)) == 0))
        assert membership(g, kind, Phi) == oracle.membership(g, kind, Phi)

    @settings(max_examples=100, deadline=None)
    @given(sub_sets(max_len=6), st.sampled_from(["X(t)", "Xw", "X^w"]),
           st.data())
    def test_membership_fractional(self, sub, kind, data):
        # values scaled per member by 1/2, -3/2 or 1/3 (or kept), so the
        # common-denominator scaling meets non-integer coefficients
        if kind == "X(t)":
            sub = enumerate_sub(sub.expr, "all")
        g = data.draw(functions(sub))
        scales = st.sampled_from([1, Fraction(1, 2), Fraction(-3, 2),
                                  Fraction(1, 3)])
        g = FnOnSub(sub, {b: v.scale(data.draw(scales))
                          for b, v in g.values.items()})
        assert membership(g, kind) == oracle.membership(g, kind)

    @settings(max_examples=150, deadline=None)
    @given(sub_sets(max_len=6), st.booleans(), st.data())
    def test_sigma(self, sub, on_all, data):
        # on Sub(t) both variants, and the full one reads odd folds
        if on_all:
            sub = enumerate_sub(sub.expr, "all")
        variants = ["full", "even"] if on_all else ["even"]
        g = data.draw(functions(sub))
        eps = Subexpr(sub.expr, data.draw(st.sampled_from(sub.members)))
        Mp = data.draw(st.sampled_from(sorted(eps.all_M().values())))
        X = sorted(x for x in Mp if data.draw(st.booleans()))
        for variant in variants:
            assert sigma(g, eps, X, variant) == \
                oracle.sigma(g, eps, X, variant)
        if not on_all and X:
            # an odd fold changes the target
            with pytest.raises(ValueError, match="leaves the set"):
                sigma(g, eps, X, "full")

    @settings(max_examples=150, deadline=None)
    @given(analysed_sets(), st.booleans())
    def test_conditions(self, sub, even):
        # a fold leaving the set raises where the reference raises: on
        # Sub(t, w) at the first odd fold, on a subset of Sub(t) anywhere
        an = sub.analysis()
        assert listed(an.conditions(even)) == \
            listed(oracle.generate_conditions(an.per_p, even))

    @settings(max_examples=60, deadline=None)
    @given(sub_sets(max_len=6), st.sampled_from(["X(t)", "Xw", "X^w", "XwPhi"]),
           st.data())
    def test_membership_degree_9(self, sub, kind, data):
        # every value times one product of two linear forms, which may
        # hold roots: degree up to 9
        if kind == "X(t)":
            sub = enumerate_sub(sub.expr, "all")
        n = sub.expr.n
        g = data.draw(functions(sub)).left_mul(
            data.draw(linear_forms(n)) * data.draw(linear_forms(n)))
        Phi = None
        if kind == "XwPhi":
            Phi = sub.restrict(b for b in sub.members
                               if g.values[b].is_zero()
                               and data.draw(st.booleans()))
        assert membership(g, kind, Phi) == oracle.membership(g, kind, Phi)

    @settings(max_examples=150, deadline=None)
    @given(sub_sets(), st.data())
    def test_residual_constraints(self, sub, data):
        phi = frozenset(b for b in sub.members if data.draw(st.booleans()))
        got = residual_constraints(sub, phi)
        assert got == oracle.residual_constraints(sub.expr, sub.target, phi)


class TestCachedConditions:
    """`SubAnalysis.conditions` iterates over the variant's finished list
    once `condition_table` holds it, and otherwise starts a fresh stream;
    a stream read to its end stores that table, one abandoned part way or
    ended by a fold leaving the set stores nothing."""

    @staticmethod
    def fresh(sub, even):
        return list(enumerate_sub(sub.expr, sub.target or "all")
                    .analysis().conditions(even))

    @settings(max_examples=100, deadline=None)
    @given(sub_sets(max_len=6), st.sampled_from(["X(t)", "Xw"]), st.data())
    def test_replay_after_reject(self, sub, kind, data):
        if kind == "X(t)":
            sub = enumerate_sub(sub.expr, "all")
        g = data.draw(functions(sub))
        # a constant added at one member: X(t) rejects it part way
        bad = data.draw(st.sampled_from(sub.members))
        one = Polynomial.one(sub.expr.n)
        h = FnOnSub(sub, {**g.values, bad: g.values[bad] + one})
        assert membership(h, kind) == oracle.membership(h, kind)
        assert membership(g, kind) == oracle.membership(g, kind)
        even = kind != "X(t)"
        assert list(sub.analysis().conditions(even)) == self.fresh(sub, even)

    @settings(max_examples=100, deadline=None)
    @given(sub_sets(max_len=6), st.booleans(), st.data())
    def test_interleaved(self, sub, on_all, data):
        if on_all:
            sub = enumerate_sub(sub.expr, "all")
        even = not on_all or data.draw(st.booleans())
        an = sub.analysis()
        seen = ([], [])
        its = (an.conditions(even), an.conditions(even))
        live = [0, 1]
        while live:
            k = data.draw(st.sampled_from(live))
            item = next(its[k], None)
            if item is None:
                live.remove(k)
            else:
                seen[k].append(item)
        want = self.fresh(sub, even)
        assert seen[0] == seen[1] == want

    def test_freed_without_the_cycle_collector(self):
        # neither the cached stream nor the closeness memo may refer back to
        # its analysis, or every domain would wait for the cycle collector
        t = ReflExpr(3, tuple(Reflection(1, 2, 3) for _ in range(4)))
        an = enumerate_sub(t, "all").analysis()
        next(an.conditions(False))
        t = ReflExpr(4, (Reflection(1, 2, 4), Reflection(2, 3, 4),
                         Reflection(1, 2, 4), Reflection(2, 3, 4),
                         Reflection(1, 3, 4)))
        sub = enumerate_sub(t, Permutation.identity(4))
        for eps in sub.subexprs():
            for mode in ("plain", "con"):
                closeness(sub, frozenset(), eps, mode)
                closeness(sub, [b for b in sub.members if b != eps.bits][:2],
                          eps, mode)
        assert {mode for _, mode in sub.analysis().closeness_memo} == \
            {"plain", "con"}
        refs = (weakref.ref(an), weakref.ref(sub.analysis()))
        gc.disable()
        try:
            del an, sub
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_table_filled_only_by_a_finished_stream(self):
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(2, 3, 3),
                         Reflection(1, 2, 3)))
        want = listed(oracle.generate_conditions(
            enumerate_sub(t, "all").analysis().per_p, False))
        # read to its end: the table holds the list, and later calls read it
        an = enumerate_sub(t, "all").analysis()
        assert list(an.conditions(False)) == want
        assert an._tables[False][0] == want
        assert list(an.conditions(False)) == want
        # abandoned part way: no table, and the next call starts afresh
        an = enumerate_sub(t, "all").analysis()
        stream = an.conditions(False)
        assert next(stream) == want[0]
        del stream
        assert False not in an._tables
        assert list(an.conditions(False)) == want
        # ended by a fold leaving the set: no table, and the next call
        # raises after the same items
        sub = enumerate_sub(t, "all")
        an = sub.restrict(sub.members[:5]).analysis()
        want = listed(oracle.generate_conditions(an.per_p, False))
        assert want[-1] == "a fold of the subexpression leaves the set"
        for _ in range(2):
            assert listed(an.conditions(False)) == want
            assert False not in an._tables
        assert an.condition_table(False) is None
        assert listed(an.conditions(False)) == want

    def test_fold_leaving_the_set_raises_every_time(self):
        # on the subset {00, 01} of Sub((1,2)(1,2)) the odd fold of 00 at
        # position 1 leaves the set
        t = ReflExpr(2, (Reflection(1, 2, 2), Reflection(1, 2, 2)))
        an = enumerate_sub(t, "all").restrict([(0, 0), (0, 1)]).analysis()
        for _ in range(2):
            with pytest.raises(ValueError, match="leaves the set"):
                list(an.conditions(False))

    @settings(max_examples=100, deadline=None)
    @given(analysed_sets(), st.booleans(), st.integers(2, 4))
    def test_calls_after_exhaustion(self, sub, even, calls):
        # once a stream has ended, every later call yields the same
        # conditions; a stream that ends in a fold leaving the set raises
        # after the same items on every call
        an = sub.analysis()
        want = listed(oracle.generate_conditions(an.per_p, even))
        for _ in range(calls):
            assert listed(an.conditions(even)) == want


class TestAnalysis:
    def test_cached_per_instance(self):
        t = ReflExpr(3, tuple(Reflection(1, 2, 3) for _ in range(4)))
        sub = enumerate_sub(t, "all")
        assert getattr(sub, "_analysis_cache", None) is None  # lazy
        assert sub.analysis() is sub.analysis()
        assert enumerate_sub(t, "all").analysis() is not sub.analysis()

    def test_membership_leaves_the_graph_unbuilt(self):
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(2, 3, 3),
                         Reflection(1, 2, 3), Reflection(1, 3, 3)))
        g = res_tensor(t, [Polynomial.var(3, 1)] * 5)
        an = g.domain.analysis()
        assert membership(g, "X(t)") == (True, None)
        assert an._adj is None
        assert an.adj == oracle.analysis_tables(g.domain)[1]
        assert an.adj is an.adj

    def test_fold_reach_marks_leaving_folds(self):
        # t = (1,2)(1,2): M_p(00) = (1, 2) and f_{1,2} 00 = 11, which lies in
        # Sub(t) but not in the subset {00, 01}
        t = ReflExpr(2, (Reflection(1, 2, 2), Reflection(1, 2, 2)))
        sub = enumerate_sub(t, "all")
        an = sub.analysis()
        i, j = an.index[(0, 0)], an.index[(1, 1)]
        (p, Mp, folds), = an.per_p[i]
        (_, _, _, reach, _), = memo(an, i)[1]
        assert Mp == (1, 2) and folds[0b11] == j
        # odd folds stay in Sub(t) and are recorded, but reach skips them
        assert folds[0b01] == an.index[(1, 0)]
        assert reach[0b01] == 1 << i
        assert reach[0b11] == (1 << i) | (1 << j)
        part = sub.restrict([(0, 0), (0, 1)]).analysis()
        k = part.index[(0, 0)]
        (_, _, folds), = part.per_p[k]
        (_, _, _, reach, _), = memo(part, k)[1]
        assert folds[0b11] == -1 and reach[0b11] is None
        assert reach[0b01] == 1 << k

    def test_mask_of_refuses_non_members(self):
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 2, 3)))
        an = enumerate_sub(t, Permutation.identity(3)).analysis()
        assert an.mask_of([(1, 1), (0, 0)]) == 0b11
        for bad in ((0, 1), (0, 0, 0)):
            with pytest.raises(ValueError, match="not in the set"):
                an.mask_of([(0, 0), bad])

    def test_closeness_refuses_phi_outside_the_set(self):
        # (0, 1) lies in Sub(t) but not in Sub(t, e)
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 2, 3)))
        sub = enumerate_sub(t, Permutation.identity(3))
        eps = Subexpr(t, (1, 1))
        assert closeness(sub, [(0, 0)], eps, "plain") is not None
        for mode in ("plain", "con"):
            with pytest.raises(ValueError, match="not in the set"):
                closeness(sub, [(0, 0), (0, 1)], eps, mode)

    def test_residual_constraints_refuse_phi_outside_the_set(self):
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 2, 3)))
        sub = enumerate_sub(t, Permutation.identity(3))
        assert residual_constraints(sub, [(0, 0)]).free == ((1, 1),)
        with pytest.raises(ValueError, match="not in the set"):
            residual_constraints(sub, [(0, 0), (0, 1)])

    def test_sigma_needs_one_position_set(self):
        # t = (1,2)(2,3): M_(1,2)(00) = (1,) and M_(2,3)(00) = (2,)
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(2, 3, 3)))
        g = res_tensor(t, [Polynomial.one(3)] * 3)
        eps = Subexpr(t, (0, 0))
        assert sigma(g, eps, [1]) == Polynomial.zero(3)
        for X in ([1, 2], [3]):
            with pytest.raises(ValueError, match="single M_p"):
                sigma(g, eps, X)
