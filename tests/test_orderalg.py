import ast
import glob
import os
import random
import subprocess
import sys
import textwrap

import pytest

from bsbimod import orderalg
from bsbimod.coxeter import Permutation, Reflection, ReflExpr, make_sequence
from bsbimod.polyring import GradedRank
from bsbimod.subexpr import (Subexpr, enumerate_sub, graph, components,
                             _indices)
from bsbimod.orderalg import (closeness, step_generator, algorithm1,
                              algorithm2, chain_run, balanced_order,
                              acyclic_rank, residual_constraints)
from bsbimod.locmod import membership
from conftest import random_expr, reachable_targets
import oracle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def two_solution_expr():
    n = 4
    pairs = [(1, 3), (2, 4), (1, 2), (3, 4), (1, 4), (2, 3)]
    return ReflExpr(n, tuple(Reflection(a, b, n) for a, b in pairs))


class TestCloseness:
    def test_two_solution_first_step(self):
        t = two_solution_expr()
        w = Permutation.identity(4)
        sub = enumerate_sub(t, w)
        zero, one = (0,) * 6, (1,) * 6
        # the first element joins either way (nothing to avoid yet)
        assert closeness(sub, frozenset(), Subexpr(t, zero), "plain") \
            is not None
        # plain closeness then fails: the frozen set always reaches the
        # other solution, because no M_p has two elements to freeze
        assert closeness(sub, frozenset({zero}), Subexpr(t, one), "plain") \
            is None
        # con closeness succeeds: the graph is edgeless, so the connected
        # component through the new element is a singleton
        cert = closeness(sub, frozenset({zero}), Subexpr(t, one), "con")
        assert cert is not None and cert.Y == () and cert.dist == 0

    def test_rejects_member(self):
        t = two_solution_expr()
        sub = enumerate_sub(t, Permutation.identity(4))
        zero = (0,) * 6
        with pytest.raises(ValueError):
            closeness(sub, frozenset({zero}), Subexpr(t, zero))

    def test_rejects_non_member(self):
        t = two_solution_expr()
        sub = enumerate_sub(t, Permutation.identity(4))
        outside = Subexpr(t, (1, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match=r"Subexpr\(100000\) is not in "
                                             r"Sub\(t, w\)"):
            closeness(sub, frozenset(), outside)

    @pytest.mark.parametrize("mode", ["bogus", "Con", ""])
    def test_unknown_mode_is_refused(self, mode):
        # a mode other than "plain" or "con" is an error, not a certificate
        # mixing the two
        t = make_sequence("D", (1, 2, 3), 3)
        w = Permutation.identity(3)
        sub = enumerate_sub(t, w)
        eps = Subexpr(t, sub.members[0])
        with pytest.raises(ValueError, match="unknown mode"):
            closeness(sub, frozenset(), eps, mode)
        with pytest.raises(ValueError, match="unknown mode"):
            chain_run(t, w, sub.subexprs(), mode)

    def test_step_generator_membership(self):
        t = two_solution_expr()
        w = Permutation.identity(4)
        sub = enumerate_sub(t, w)
        eps = Subexpr(t, (0,) * 6)
        cert = closeness(sub, frozenset(), eps, "con")
        g = step_generator(sub, frozenset(), eps, cert)
        assert membership(g, "Xw")[0]


class TestAlgorithms:
    def test_two_solution(self):
        t = two_solution_expr()
        w = Permutation.identity(4)
        r1 = algorithm1(t, w)
        assert r1.outcome == "premature" and r1.step == 1
        r2 = algorithm2(t, w)
        assert r2.outcome == "completed"
        assert r2.P == GradedRank({0: 2})

    def test_D3_complete(self):
        t = make_sequence("D", (1, 2, 3), 3)
        res = algorithm2(t, Permutation.identity(3))
        assert res.outcome == "completed"
        assert res.P == GradedRank({0: 1, -2: 3, -4: 1})

    def test_D4_premature(self):
        t = make_sequence("D", (1, 2, 3, 4), 4)
        res = algorithm2(t, Permutation.identity(4))
        assert res.outcome == "premature" and res.step == 5
        expected = GradedRank({0: 1, -2: 4})
        assert all(P == expected for P in res.trace[5].values())

    def test_on_an_enumerated_sub(self):
        t = make_sequence("D", (1, 2, 3, 4), 4)
        w = Permutation.identity(4)
        sub = enumerate_sub(t, w)
        assert algorithm2(t, w, sub=sub) == algorithm2(t, w)
        other = make_sequence("D", (1, 2, 4, 3), 4)
        for bad in (enumerate_sub(other, w), enumerate_sub(t, "all")):
            with pytest.raises(ValueError, match="not Sub"):
                algorithm2(t, w, sub=bad)

    def test_max_family_cap(self):
        t = make_sequence("D", (1, 2, 3), 3)
        res = algorithm2(t, Permutation.identity(3), max_family=1)
        assert res.outcome in ("cap", "completed")

    @pytest.mark.parametrize("algo", [algorithm1, algorithm2])
    def test_negative_max_family_is_refused(self, algo):
        t = make_sequence("D", (1, 2, 3), 3)
        with pytest.raises(ValueError, match="must not be negative"):
            algo(t, Permutation.identity(3), max_family=-1)

    def test_greedy_completes_when_full_run_does(self):
        t = make_sequence("D", (1, 2, 3), 3)
        res = algorithm2(t, Permutation.identity(3), greedy=True)
        assert res.outcome == "completed"
        assert res.P == GradedRank({0: 1, -2: 3, -4: 1})


class TestRankInvariant:
    def test_checked_under_optimize(self):
        # closeness entries whose distances grow with every call give two
        # paths to the same family two different ranks
        script = textwrap.dedent("""
            import itertools, sys
            from bsbimod import orderalg
            from bsbimod.cli import parse_expr
            from bsbimod.coxeter import Permutation
            assert not __debug__
            real, calls = orderalg._closeness, itertools.count()
            def skewed(*args):
                entry = real(*args)
                return entry and (entry[0], entry[1] + 2 * next(calls),
                                  *entry[2:])
            orderalg._closeness = skewed
            t = parse_expr("(1,3)(2,4)(1,2)(3,4)(1,4)(2,3)")
            try:
                orderalg.algorithm2(t, Permutation.identity(4))
            except orderalg.InvariantError as exc:
                assert isinstance(exc, AssertionError)
                print("rank mismatch:", exc)
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.startswith("rank mismatch: rank mismatch at")


    def test_no_assert_in_library_code(self):
        # `python -O` strips assert statements, so library invariants raise
        # InvariantError instead, and never a bare AssertionError
        def bare(node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return isinstance(exc, ast.Name) and exc.id == "AssertionError"

        found = []
        for path in sorted(glob.glob(os.path.join(SRC, "bsbimod", "*.py"))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found += [f"{os.path.basename(path)}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Raise) and bare(node)]
        assert found == []

    def test_one_invariant_error(self):
        from bsbimod import orderalg, polyring, strmod, dseq
        assert orderalg.InvariantError is polyring.InvariantError
        assert strmod.InvariantError is dseq.InvariantError \
            is polyring.InvariantError


class TestClosenessCount:
    @pytest.mark.parametrize("algo, mode", [(algorithm1, "plain"),
                                            (algorithm2, "con")])
    def test_one_evaluation_per_family_and_member(self, algo, mode,
                                                  monkeypatch):
        # each step the growth scans evaluates closeness once per family
        # and member outside it, and each certificate is one addition
        rng = random.Random(20261019)
        cases = [(two_solution_expr(), Permutation.identity(4)),
                 (make_sequence("D", (1, 2, 3), 3), Permutation.identity(3)),
                 (make_sequence("D", (1, 2, 3, 4), 4), Permutation.identity(4))]
        while len(cases) < 8:
            t = random_expr(rng, 4, rng.randint(5, 8))
            w = Subexpr(t, [rng.randint(0, 1) for _ in range(len(t))]).target()
            if 4 <= len(enumerate_sub(t, w)) <= 8:
                cases.append((t, w))
        real = orderalg._closeness
        for t, w in cases:
            certs, visited = [], {}

            def counted(an, i, phi, mode):
                certs.append(real(an, i, phi, mode))
                visited.setdefault(phi.bit_count(), {})[phi] = None
                return certs[-1]
            monkeypatch.setattr(orderalg, "_closeness", counted)
            res = algo(t, w)
            sub = enumerate_sub(t, w)
            scanned = res.trace[:len(sub)]   # the full families end the scan
            assert len(certs) == sum(len(fams) * (len(sub) - k)
                                     for k, fams in enumerate(scanned))
            additions = sum(oracle.closeness(sub, phi, eps, mode) is not None
                            for fams in scanned for phi in fams
                            for eps in sub.subexprs() if eps.bits not in phi)
            assert sum(c is not None for c in certs) == additions
            # each level's families are visited in sorted order, and every
            # rank is one the checking constructor gives back unchanged
            for level in visited.values():
                assert list(level) == sorted(
                    level, key=lambda mk: list(_indices(mk)))
            for fams in res.trace:
                for rank in fams.values():
                    assert rank == GradedRank(rank.coeffs)
                    assert all(type(c) is int and c > 0
                               for c in rank.coeffs.values())


class TestChainRun:
    def test_chain_matches_algorithm(self):
        t = make_sequence("D", (1, 2, 3), 3)
        w = Permutation.identity(3)
        res = algorithm2(t, w)
        # reconstruct one completing order from the trace
        final = next(iter(res.trace[-1]))
        order_bits = []
        phi = frozenset()
        for k in range(1, len(res.trace)):
            for fam in res.trace[k]:
                if phi < fam and fam <= final:
                    order_bits.append(next(iter(fam - phi)))
                    phi = fam
                    break
        order = [Subexpr(t, b) for b in order_bits]
        certs, P = chain_run(t, w, order, "con")
        assert P == res.P

    def test_chain_rejects_partial_order(self):
        t = make_sequence("D", (1, 2, 3), 3)
        w = Permutation.identity(3)
        sub = enumerate_sub(t, w)
        with pytest.raises(ValueError):
            chain_run(t, w, [Subexpr(t, sub.members[0])])


class TestBalanced:
    def test_simple_expression(self, rng):
        found = 0
        for _ in range(40):
            t = random_expr(rng, 4, rng.randint(1, 5), simple_only=True)
            for w in reachable_targets(t):
                if len(enumerate_sub(t, w)) == 0:
                    continue
                res = balanced_order(t, w)
                if res[0] == "NotBalanced":
                    continue
                order, dists = res
                found += 1
                certs, P = chain_run(t, w, order, "plain")
                assert [c.dist for c in certs] == list(dists)
        assert found > 10

    def test_dist_counts_positive_positions(self):
        from bsbimod.subexpr import balance
        t = ReflExpr(3, (Reflection(1, 2, 3), Reflection(1, 2, 3)))
        w = Permutation.identity(3)
        res = balanced_order(t, w)
        assert res[0] != "NotBalanced"
        order, dists = res
        for eps, d in zip(order, dists):
            assert d == 2 * len(balance(eps)[0])


class TestAcyclic:
    def test_two_solutions(self):
        t = two_solution_expr()
        res = acyclic_rank(t, Permutation.identity(4))
        assert res == GradedRank({0: 2})

    def test_not_forest(self):
        t = make_sequence("D", (1, 2, 3), 3)
        w = Permutation.identity(3)
        res = acyclic_rank(t, w)
        assert res[0] == "NotForest" and len(res[1]) >= 3
        # the witness is a real cycle: distinct vertices, consecutive ones
        # joined, and the last joined to the first
        cycle = res[1]
        assert len(set(cycle)) == len(cycle)
        edges = {frozenset((a, b))
                 for a, b, _, _ in graph(enumerate_sub(t, w)).edges}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert frozenset((a, b)) in edges

    def test_matches_algorithm2_on_forests(self, rng):
        checked = 0
        for _ in range(60):
            t = random_expr(rng, 4, rng.randint(1, 5))
            for w in reachable_targets(t):
                sub = enumerate_sub(t, w)
                if not 0 < len(sub) <= 8:
                    continue
                res = acyclic_rank(t, w)
                if isinstance(res, tuple):
                    continue
                out = algorithm2(t, w)
                assert out.outcome == "completed"
                assert out.P == res
                checked += 1
                if checked >= 12:
                    return
        assert checked > 0


class TestResidual:
    def test_D4_string_pattern(self):
        t = make_sequence("D", (1, 2, 3, 4), 4)
        w = Permutation.identity(4)
        res = algorithm2(t, w)
        phi = next(iter(res.trace[res.step]))
        rr = residual_constraints(enumerate_sub(t, w), phi)
        assert rr.is_string_pattern
        assert len(rr.roots) == 3 and rr.independent
        assert len(rr.free) == 2 and len(rr.path) == 2

    def test_no_pattern_for_complete_instance(self):
        t = make_sequence("D", (1, 2, 3), 3)
        w = Permutation.identity(3)
        sub = enumerate_sub(t, w)
        rr = residual_constraints(sub, frozenset(sub.members[:2]))
        # whatever the verdict, the report is well-formed
        assert len(rr.free) == len(sub) - 2
