"""End-to-end acceptance suite.

Each test here pins one externally-promised behaviour of the package:
the worked two-solution example, the cyclic-sequence solution tables,
the completion/obstruction dichotomy of the family-growth algorithms,
the string-module homological invariants, the localization basis and
duality pairings, the acyclic and balanced shortcuts, the last-step
distance law, and a large randomized identity-fuzzing block.  All
arithmetic is exact; there are no tolerances anywhere.
"""

import itertools
import random
import time

import pytest

from bsbimod.coxeter import (Permutation, Reflection, ReflExpr, shift,
                             reverse, make_sequence, positions_of)
from bsbimod.polyring import (Polynomial, GradedRank, NotDivisible, act,
                              demazure, wp, exact_div)
from bsbimod.subexpr import (Subexpr, enumerate_sub, graph, components,
                             rel_card, balance)
from bsbimod.locmod import (FnOnSub, indicator, res_tensor, membership,
                            DecoTree, basis, express_in_basis, mu, inner)
from bsbimod.orderalg import (algorithm1, algorithm2, chain_run,
                              balanced_order, acyclic_rank,
                              residual_constraints)
from bsbimod.strmod import (FreeModElem, buchberger, reduce_elem, syzygies,
                            q_generators, st_ambient, st_generators, pd,
                            coordinate_change, dual_toolkit)
from bsbimod.dseq import e_table, verify_solutions, dichotomy_report
from conftest import random_expr, reachable_targets


S4_PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]


def two_solution_expr():
    n = 4
    pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
    return ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))


def last_step_law_holds(t, bits, dist):
    """dist at the final join must be twice (length minus the number of
    distinct reflections whose position set is non-empty)."""
    ell = len(Subexpr(t, bits).all_M())
    return dist == 2 * (len(t.entries) - ell)


class TestCriterion1TwoSolutionExample:
    def test_two_solution_full_reproduction(self):
        start = time.monotonic()
        t = two_solution_expr()
        w = Permutation.identity(4)
        sub = enumerate_sub(t, w)
        assert set(sub.members) == {(0,) * 6, (1,) * 6}

        r1 = algorithm1(t, w)
        assert r1.outcome == "premature" and r1.step == 1
        r2 = algorithm2(t, w)
        assert r2.outcome == "completed" and r2.P == GradedRank({0: 2})

        # the indicator of one solution is a section over Sub(t, 1) but not
        # a global section: its zero-extension breaks the even-fold
        # congruence, so it fails global membership and cannot be written
        # in the basis, while genuine localized tensors can
        suball = enumerate_sub(t, "all")
        g = indicator(suball, [(0,) * 6])
        ok, cert = membership(g, "X(t)")
        assert not ok and cert is not None
        with pytest.raises(NotDivisible):
            express_in_basis(g, DecoTree.default(6))

        gw = indicator(sub, [(0,) * 6])
        assert membership(gw, "Xw")[0]

        h = res_tensor(t, [Polynomial.one(4)] * 7)
        assert membership(h, "X(t)")[0]
        coeffs = express_in_basis(h, DecoTree.default(6))
        assert len(coeffs) == 64
        assert time.monotonic() - start < 1.0


class TestCriterion2SolutionTables:
    def test_all_shifts_and_rearrangements(self):
        start = time.monotonic()
        rng = random.Random(20240824)
        for n in range(3, 8):
            perms = [tuple(range(1, n + 1))]
            perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
            for k in range(1 - n, n):
                for i in perms:
                    assert verify_solutions(e_table(n, k, i)), (n, k, i)
        assert time.monotonic() - start < 30.0


class TestCriterion3SmallCycleCompletes:
    def test_n3_all_shifts(self):
        expected = GradedRank({0: 1, -2: 3, -4: 1})
        for k in range(-2, 3):
            rep = dichotomy_report(3, k)
            assert rep["outcome"] == "completed"
            assert rep["P"] == expected, k


class TestCriterion4CounterexampleFamily:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_premature_with_string_pattern(self, n):
        start = time.monotonic()
        rep = dichotomy_report(n)
        assert rep["outcome"] == "premature" and rep["step"] == n + 1
        assert rep["P"] == GradedRank({0: 1, -2: n})
        roots = rep["residual_roots"]
        assert len(roots) == n - 1
        k, _, _ = coordinate_change(roots)
        assert k == n - 1  # certified linearly independent
        assert rep["pd_string"] == n - 3
        dual = rep["dual"]
        assert dual["shape_ok"] and dual["pd"] == 1
        assert dual["resolution_degrees"] == [[-2] * (n - 1), [0]]
        assert time.monotonic() - start < 120.0


class TestCriterion5StringModules:
    @pytest.mark.parametrize("nx", [2, 3, 4, 5])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_homological_suite(self, nx, extra, rng):
        gens = st_generators(nx, extra=extra)
        amb, order = st_ambient(nx, extra)
        gb = buchberger(gens, order)
        assert gb.n_new == 0  # the quadratic generators are already Groebner

        # random members reduce to zero
        nv = nx + extra
        for _ in range(5):
            f = None
            for g in rng.sample(gens, min(3, len(gens))):
                c = Polynomial.var(nv, rng.randint(1, nv))
                term = g.scale_poly(c)
                f = term if f is None else f + term
            _, rem = reduce_elem(f, gb.elements, order)
            assert rem.is_zero()

        # the first-syzygy generators span all syzygies
        syz = syzygies(gb, len(gens))
        qs, qamb, qorder = q_generators(nx, extra)
        qgb = buchberger(qs, qorder) if qs else None
        for s in syz:
            if isinstance(s, list):
                s = FreeModElem(qamb, {k: c for k, c in enumerate(s)
                                       if not c.is_zero()})
            assert qgb is not None
            _, rem = reduce_elem(s, qgb.elements, qorder)
            assert rem.is_zero()

        p, degrees = pd(gens, order)
        assert p == max(nx - 2, 0)
        if nx == 2:
            assert degrees == [[4]]  # free of graded rank v^-4
        if nx >= 3:
            rep = dual_toolkit(nx, extra)
            assert rep["triple_relations"] and rep["sum_zero"]
            assert rep["theta_groebner"] and rep["kernel_is_w"]
            assert rep["pd"] == 1 and rep["shape_ok"]


class TestCriterion6BasisDuality:
    def test_fifty_random_instances(self, rng):
        for case in range(50):
            m = rng.randint(1, 6)
            t = ReflExpr(4, tuple(Reflection(*rng.choice(S4_PAIRS), 4)
                                  for _ in range(m)))
            tree = DecoTree.default(m)
            B = basis(t, tree)
            assert len(B) == 2 ** m
            for L, g in B.items():
                assert membership(g, "X(t)")[0], (case, L)

            # exact round trip of a random combination
            suball = enumerate_sub(t, "all")
            coeffs = {L: Polynomial.const(4, rng.randint(-3, 3)) for L in B}
            g = FnOnSub(suball, {})
            for L, c in coeffs.items():
                g = g + B[L].left_mul(c)
            assert express_in_basis(g, tree) == coeffs

            # pick a target and exercise the duality pairings there
            w = Subexpr(t, rng.choice(suball.members)).target()
            subw = enumerate_sub(t, w)
            picks = rng.sample(list(B), min(4, len(B)))
            restrictions = []
            for L in picks:
                r = B[L].restrict_to(subw)
                assert membership(r, "Xw")[0], (case, L)
                restrictions.append(r)
            for b in rng.sample(subw.members, min(3, len(subw))):
                mfn = mu(Subexpr(t, b))
                for r in restrictions:
                    val = inner(mfn, r)
                    assert val.in_R()  # pairings land in the polynomial ring
                    assert val.as_poly() == r(b)


class TestCriterion7AcyclicCase:
    def test_thirty_forest_instances(self, rng):
        instances = []
        while len(instances) < 30:
            t = random_expr(rng, 4, rng.randint(1, 5))
            for w in reachable_targets(t):
                sub = enumerate_sub(t, w)
                if not 0 < len(sub) <= 8:
                    continue
                res = acyclic_rank(t, w)
                if isinstance(res, tuple):  # has a cycle
                    continue
                out = algorithm2(t, w)
                assert out.outcome == "completed"
                assert out.P == res
                coeffs = dict(out.P.coeffs)
                assert set(coeffs) <= {0, -2}
                assert sum(coeffs.values()) == len(sub)
                instances.append((t, out))
                if len(instances) >= 30:
                    break
        TestCriterion9LastStepLaw.forest_runs = instances


class TestCriterion8BalancedCase:
    def test_thirty_balanced_instances(self, rng):
        instances = []
        while len(instances) < 30:
            t = random_expr(rng, 4, rng.randint(1, 6), simple_only=True)
            for w in reachable_targets(t):
                sub = enumerate_sub(t, w)
                if len(sub) == 0:
                    continue
                res = balanced_order(t, w)
                if res[0] == "NotBalanced":
                    continue
                order, dists = res
                certs, P = chain_run(t, w, order, "plain")
                assert [c.dist for c in certs] == list(dists)
                expected = GradedRank({})
                for eps, d in zip(order, dists):
                    pos, _, _ = balance(eps)
                    assert d == 2 * len(pos)
                    expected = expected + GradedRank.v_power(-2 * len(pos))
                assert P == expected
                instances.append((t, order, certs))
                if len(instances) >= 30:
                    break
        TestCriterion9LastStepLaw.balanced_runs = instances


class TestCriterion9LastStepLaw:
    forest_runs = None
    balanced_runs = None

    def test_forest_final_increments(self, rng):
        if self.forest_runs is None:
            TestCriterion7AcyclicCase().test_thirty_forest_instances(rng)
        checked = 0
        for t, out in self.forest_runs:
            for phi, bits, dist in out.last_additions:
                assert last_step_law_holds(t, bits, dist), (t, bits)
                checked += 1
        assert checked > 0

    def test_balanced_final_increments(self, rng):
        if self.balanced_runs is None:
            TestCriterion8BalancedCase().test_thirty_balanced_instances(rng)
        checked = 0
        for t, order, certs in self.balanced_runs:
            eps, cert = order[-1], certs[-1]
            assert last_step_law_holds(t, eps.bits, cert.dist)
            checked += 1
        assert checked == 30


def random_poly(rng, nv, max_terms=3, max_exp=2):
    f = Polynomial.zero(nv)
    for _ in range(rng.randint(1, max_terms)):
        mono = Polynomial.const(nv, rng.randint(-4, 4))
        for _ in range(rng.randint(0, max_exp)):
            mono = mono * Polynomial.var(nv, rng.randint(1, nv))
        f = f + mono
    return f


def random_sets(rng):
    X = sorted(rng.sample(range(1, 15), rng.randint(1, 8)))
    Y = set(rng.sample(X, rng.randint(0, len(X))))
    return X, Y


N_FUZZ = 1000


class TestCriterion10Fuzzing:
    def test_relcard_drop_max(self, rng):
        done = 0
        while done < N_FUZZ:
            X, Y = random_sets(rng)
            Y.add(max(X))  # so that Y is not contained in X minus its max
            Yp = Y - {max(Y)}
            assert rel_card(Y, X) == rel_card(Yp, X) + 1
            done += 1

    def test_relcard_complement_split(self, rng):
        done = 0
        while done < N_FUZZ:
            X, _ = random_sets(rng)
            if len(X) < 2:
                continue
            Xp = sorted(set(X) - {max(X)})
            Y = set(rng.sample(Xp, rng.randint(0, len(Xp))))
            assert rel_card(Y, X) + rel_card(Y, Xp) == len(Y)
            done += 1

    def test_relcard_symmetric_difference(self, rng):
        for _ in range(N_FUZZ):
            X, Y = random_sets(rng)
            Z = set(rng.sample(X, rng.randint(0, len(X))))
            lhs = rel_card(Y ^ Z, X)
            assert lhs % 2 == (rel_card(Y, X) + rel_card(Z, X)) % 2

    def test_relcard_prefix_parity(self, rng):
        for _ in range(N_FUZZ):
            X, Y = random_sets(rng)
            s = sum(len([y for y in Y if y < x]) for x in X) + len(Y)
            assert s % 2 == rel_card(Y, X) % 2

    def test_fold_composition(self, rng):
        for _ in range(N_FUZZ):
            m = rng.randint(1, 6)
            t = random_expr(rng, 4, m)
            eps = Subexpr(t, tuple(rng.randint(0, 1) for _ in range(m)))
            X = tuple(sorted(rng.sample(range(1, m + 1),
                                        rng.randint(0, m))))
            Y = tuple(sorted(rng.sample(range(1, m + 1),
                                        rng.randint(0, m))))
            sym = tuple(sorted(set(X) ^ set(Y)))
            assert eps.fold(X).fold(Y).bits == eps.fold(sym).bits

    def test_fold_prefix_product(self, rng):
        done = 0
        while done < N_FUZZ:
            m = rng.randint(1, 6)
            t = random_expr(rng, 4, m)
            eps = Subexpr(t, tuple(rng.randint(0, 1) for _ in range(m)))
            X = sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
            folded = eps.fold(tuple(X))
            for k in range(1, m + 2):
                lhs = folded.prefix(k)
                rhs = Permutation.identity(4)
                for x in X:
                    if x < k:
                        rhs = rhs * eps.refl_at(x).as_permutation()
                rhs = rhs * eps.prefix(k)
                assert lhs == rhs
                done += 1

    def test_fold_inside_one_position_set(self, rng):
        done = 0
        while done < N_FUZZ:
            m = rng.randint(2, 6)
            t = random_expr(rng, 4, m)
            eps = Subexpr(t, tuple(rng.randint(0, 1) for _ in range(m)))
            allM = eps.all_M()
            p = rng.choice(list(allM))
            Mp = allM[p]
            X = sorted(rng.sample(Mp, rng.randint(1, len(Mp))))
            folded = eps.fold(tuple(X))
            pp = p.as_permutation()
            for k in range(1, m + 1):
                odd = len([x for x in X if x < k]) % 2 == 1
                expect_pref = (pp * eps.prefix(k)) if odd else eps.prefix(k)
                assert folded.prefix(k) == expect_pref
                r = eps.root_before(k)
                expect_root = act(pp.images, r) if odd else r
                assert folded.root_before(k) == expect_root
                odd_le = len([x for x in X if x <= k]) % 2 == 1
                r2 = eps.root_after(k)
                expect2 = act(pp.images, r2) if odd_le else r2
                assert folded.root_after(k) == expect2
                done += 1

    def test_reverse_of_shift(self, rng):
        for _ in range(N_FUZZ):
            t = random_expr(rng, 4, rng.randint(1, 6))
            k = rng.randint(-9, 9)
            assert reverse(shift(t, k)) == shift(reverse(t), -k)

    def test_shift_preserves_identity_target(self, rng):
        done = 0
        while done < N_FUZZ:
            m = rng.randint(1, 6)
            t = random_expr(rng, 4, m)
            k = rng.randint(-9, 9)
            tk = shift(t, k)
            for bits in enumerate_sub(t, Permutation.identity(4)).members:
                shifted = tuple(bits[(i + k) % m] for i in range(m))
                assert Subexpr(tk, shifted).target() == \
                    Permutation.identity(4)
                done += 1

    def test_position_sets_shift(self, rng):
        done = 0
        while done < N_FUZZ:
            m = rng.randint(1, 6)
            t = random_expr(rng, 4, m)
            k = rng.randint(-9, 9)
            tk = shift(t, k)
            for p in set(t.entries):
                got = set(positions_of(tk, p))
                want = {((x - k - 1) % m) + 1 for x in positions_of(t, p)}
                assert got == want
                done += 1

    def test_demazure_leibniz(self, rng):
        for _ in range(N_FUZZ):
            nv = rng.randint(2, 4)
            tpair = tuple(sorted(rng.sample(range(1, nv + 1), 2)))
            tr = Reflection(*tpair, nv)
            f, g = random_poly(rng, nv), random_poly(rng, nv)
            tf = act(tr.as_permutation().images, f)
            lhs = demazure(tr, f * g)
            assert lhs == demazure(tr, f) * g + tf * demazure(tr, g)

    def test_demazure_square_zero_and_invariance(self, rng):
        for _ in range(N_FUZZ):
            nv = rng.randint(2, 4)
            tr = Reflection(*sorted(rng.sample(range(1, nv + 1), 2)), nv)
            f = random_poly(rng, nv)
            d = demazure(tr, f)
            assert demazure(tr, d).is_zero()
            assert act(tr.as_permutation().images, d) == d

    def test_demazure_splitting(self, rng):
        from fractions import Fraction
        for _ in range(N_FUZZ):
            nv = rng.randint(2, 4)
            tr = Reflection(*sorted(rng.sample(range(1, nv + 1), 2)), nv)
            f = random_poly(rng, nv)
            alpha = tr.root()
            back = wp(tr, f) + (demazure(tr, f) * alpha).scale(Fraction(1, 2))
            assert back == f
