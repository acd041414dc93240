import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from bsbimod import strmod
from bsbimod.polyring import Polynomial, GradedRank
from bsbimod.strmod import (FreeModule, ModOrder, FreeModElem, reduce_elem,
                            buchberger, syzygies, free_resolution,
                            minimize_resolution, resolution_ranks, pd,
                            coordinate_change, st_ambient, st_generators,
                            st_membership, q_generators, theta_generators,
                            dual_toolkit, _mono_lcm, _mono_sub)
import oracle
from conftest import exact_coefficients


def x(i, nv):
    return Polynomial.var(nv, i)


def _assert_complex(degrees, diffs, nv):
    """Sparse columns with entries in range and nonzero, no empty column,
    and d_k o d_{k+1} = 0 composed on the columns."""
    zero = Polynomial.zero(nv)
    for k, cols in enumerate(diffs):
        assert [len(col) for col in cols]  # no empty column
        assert all(0 <= i < len(degrees[k]) and not p.is_zero()
                   for col in cols for i, p in col.items())
        if k + 1 == len(diffs):
            continue
        for col in diffs[k + 1]:
            total = {}
            for j, q in col.items():
                for i, p in cols[j].items():
                    total[i] = total.get(i, zero) + q * p
            assert all(p.is_zero() for p in total.values())


def _euler(degrees):
    """The graded Euler characteristic sum_k (-1)^k sum_d t^d of the
    generator degrees of a resolution, as {degree: coefficient}."""
    total = {}
    for k, level in enumerate(degrees):
        for d in level:
            total[d] = total.get(d, 0) + (-1) ** k
    return {d: c for d, c in total.items() if c}


class TestOrders:
    def test_leading_of_p_generators(self):
        # lm(p_{i,j}) = x_i x_j e_{j-1} under the stated order
        for n in (3, 4, 5):
            amb, order = st_ambient(n, 0)
            gens = st_generators(n)
            idx = 0
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    rank, exp, c = gens[idx].leading(order)
                    assert rank == j - 2  # e_{j-1}, zero-based
                    expect = [0] * n
                    expect[i - 1] += 1
                    expect[j - 1] += 1
                    assert list(exp) == expect and c == 1
                    idx += 1

    def test_term_order_prefers_higher_gen(self):
        amb = FreeModule(2, (0, 0))
        order = ModOrder.standard(2, 2)
        f = FreeModElem(amb, {0: x(1, 2), 1: x(1, 2)})
        rank, _, _ = f.leading(order)
        assert rank == 1  # e_2 > e_1


class TestReduction:
    def test_reduce_to_zero_in_module(self):
        n = 4
        gens = st_generators(n)
        _, order = st_ambient(n, 0)
        gb = buchberger(gens, order)
        # x_1 * p_{2,3} reduces to zero
        f = gens[3].scale_poly(x(1, n))
        _, rem = reduce_elem(f, gb.elements, order)
        assert rem.is_zero()

    def test_nontrivial_remainder(self):
        n = 3
        gens = st_generators(n)
        _, order = st_ambient(n, 0)
        gb = buchberger(gens, order)
        amb = FreeModule(n, (0,) * (n - 1))
        f = FreeModElem(amb, {0: x(1, n)})
        _, rem = reduce_elem(f, gb.elements, order)
        assert not rem.is_zero()


class TestGroebner:
    def test_p_set_is_groebner(self):
        for n in (2, 3, 4, 5):
            gens = st_generators(n)
            _, order = st_ambient(n, 0)
            gb = buchberger(gens, order)
            assert gb.n_new == 0, f"n={n}"

    def test_q_are_syzygies(self):
        for n in (3, 4):
            gens = st_generators(n)
            _, order = st_ambient(n, 0)
            qs, _, _ = q_generators(n, 0)
            # each q row combines the p's to zero
            for q in qs:
                total = None
                for k, coef in q.coords.items():
                    term = gens[k].scale_poly(coef)
                    total = term if total is None else total + term
                assert total is None or total.is_zero()

    def test_syzygies_lie_in_q_span(self):
        for n in (3, 4):
            gens = st_generators(n)
            _, order = st_ambient(n, 0)
            gb = buchberger(gens, order)
            syz = syzygies(gb, len(gens))
            qs, qamb, qorder = q_generators(n, 0)
            qgb = buchberger(qs, qorder)
            for s in syz:
                if isinstance(s, list):
                    s = FreeModElem(qamb, {k: c for k, c in enumerate(s)
                                           if not c.is_zero()})
                _, rem = reduce_elem(s, qgb.elements, qorder)
                assert rem.is_zero()


class TestMembership:
    def test_p_generators_are_members(self):
        for n in (3, 4):
            for g in st_generators(n):
                assert st_membership(g, n)

    def test_non_member(self):
        n = 3
        amb = FreeModule(n, (0,) * (n - 1))
        f = FreeModElem(amb, {0: Polynomial.one(n)})
        assert not st_membership(f, n)


class TestResolution:
    def test_pd_table(self):
        expected = {2: (0, [[4]]),
                    3: (1, [[4, 4, 4], [6]]),
                    4: (2, [[4] * 6, [6] * 4, [8]])}
        for n, (want_pd, want_deg) in expected.items():
            gens = st_generators(n)
            _, order = st_ambient(n, 0)
            p, degrees = pd(gens, order)
            assert p == want_pd and degrees == want_deg, f"n={n}"

    def test_extra_variables_do_not_change_pd(self):
        for extra in (1, 2):
            gens = st_generators(3, extra=extra)
            _, order = st_ambient(3, extra)
            p, degrees = pd(gens, order)
            assert p == 1 and degrees == [[4, 4, 4], [6]]

    def test_resolution_is_a_complex(self):
        for n, extra in ((4, 0), (5, 1)):
            gens = st_generators(n, extra)
            _, order = st_ambient(n, extra)
            degrees, diffs = free_resolution(gens, order)
            assert len(diffs) == n - 2
            _assert_complex(degrees, diffs, n + extra)

    @pytest.mark.parametrize("r", range(3, 11))
    def test_minimised_ranks_are_binomial(self, r):
        # level k of St on r roots has rank C(r, k + 2), all in degree 2k + 4
        gens = st_generators(r, extra=1)
        _, order = st_ambient(r, 1)
        p, degrees = pd(gens, order)
        assert p == r - 2
        assert degrees == [[2 * k + 4] * comb(r, k + 2) for k in range(r - 1)]

    def test_resolution_ranks(self):
        assert [str(r) for r in resolution_ranks([[4, 4, 4], [6]])] \
            == ["3*v^-4", "v^-6"]

    def test_n2_is_free_of_rank_v4(self):
        gens = st_generators(2)
        _, order = st_ambient(2, 0)
        p, degrees = pd(gens, order)
        assert p == 0 and degrees == [[4]]
        assert str(resolution_ranks(degrees)[0]) == "v^-4"


class TestCoordinateChange:
    def test_counts_and_independence(self):
        n = 4
        r12 = Polynomial.var(n, 1) - Polynomial.var(n, 2)
        r23 = Polynomial.var(n, 2) - Polynomial.var(n, 3)
        r34 = Polynomial.var(n, 3) - Polynomial.var(n, 4)
        k, rows, extra = coordinate_change([r12, r23, r34])
        assert k == 3 and extra == 1
        assert all(type(c) is Fraction for row in rows for c in row)
        with pytest.raises(ValueError):
            coordinate_change([r12, r23, r12 + r23])


class TestDual:
    def test_dual_toolkit(self):
        for n in (3, 4):
            rep = dual_toolkit(n)
            assert rep["triple_relations"] and rep["sum_zero"]
            assert rep["theta_groebner"] and rep["kernel_is_w"]
            assert rep["pd"] == 1 and rep["shape_ok"]
            assert rep["resolution_degrees"] == [[-2] * n, [0]]

    def test_one_completion(self, monkeypatch):
        calls = []

        def counting(gens, order):
            calls.append(len(gens))
            return buchberger(gens, order)

        monkeypatch.setattr(strmod, "buchberger", counting)
        rep = dual_toolkit(5)
        assert calls == [5] and rep["pd"] == 1 and rep["shape_ok"]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_report_matches_a_fresh_resolution(self, n):
        # the resolution from the toolkit's own completion is the one that
        # pd finds by completing the thetas again
        thetas, _, order = theta_generators(n, 0)
        rep = dual_toolkit(n)
        assert (rep["pd"], rep["resolution_degrees"]) == pd(thetas, order)
        assert rep == {"n": n, "extra": 0, "triple_relations": True,
                       "sum_zero": True, "theta_groebner": True,
                       "kernel_is_w": True, "resolution_degrees":
                       [[-2] * n, [0]], "pd": 1, "shape_ok": True}

    @pytest.mark.parametrize("extra", range(3))
    @pytest.mark.parametrize("n", range(3, 9))
    def test_triple_relations_against_every_triple(self, n, extra,
                                                   monkeypatch):
        # the toolkit checks only the triples that contain h; every triple
        # gives the same verdict, on the thetas as built and with one entry
        # of theta^(n) doubled
        thetas, amb, order = theta_generators(n, extra)
        assert dual_toolkit(n, extra) == {
            "n": n, "extra": extra, "triple_relations": True,
            "sum_zero": True, "theta_groebner": True, "kernel_is_w": True,
            "resolution_degrees": [[-2] * n, [0]], "pd": 1, "shape_ok": True}
        assert oracle.triple_relations(thetas, n) is True
        coords = dict(thetas[-1].coords)
        coords[n - 2] = coords[n - 2].scale(2)   # the pair (1, n)
        bad = thetas[:-1] + [FreeModElem(amb, coords)]
        monkeypatch.setattr(strmod, "theta_generators",
                            lambda *_: (bad, amb, order))
        assert oracle.triple_relations(bad, n) is False
        assert dual_toolkit(n, extra)["triple_relations"] is False

    def test_theta_requires_three_roots(self):
        with pytest.raises(ValueError):
            theta_generators(2, 0)


@st.composite
def modules(draw, max_gens=4, min_gens=1):
    """Homogeneous generators of a random submodule of a graded free module:
    2-3 variables, rank 1-3 with shifts 0 or 2, min_gens..max_gens generators of
    degree 2 or 4, each coordinate with at most two terms and coefficients
    in -2..2 (so some coordinates are constants and some generators zero)."""
    nv = draw(st.integers(2, 3))
    shifts = tuple(draw(st.lists(st.sampled_from((0, 2)), min_size=1,
                                 max_size=3)))
    amb = FreeModule(nv, shifts)
    gens = []
    for _ in range(draw(st.integers(min_gens, max_gens))):
        deg = draw(st.sampled_from((2, 4)))
        coords = {}
        for g, shift in enumerate(shifts):
            if shift > deg:
                continue
            monos = [e for e in product(range(deg // 2 + 1), repeat=nv)
                     if 2 * sum(e) == deg - shift]
            coords[g] = Polynomial(nv, draw(st.dictionaries(
                st.sampled_from(monos), st.integers(-2, 2), max_size=2)))
        gens.append(FreeModElem(amb, coords))
    return gens, ModOrder.standard(len(shifts), nv)


def _grows():
    """(x_2^2, x_2 x_1 + x_1^2) in lex x_2 > x_1: the S-pair leaves x_1^3,
    so Buchberger adds an element."""
    x1, x2 = x(1, 2), x(2, 2)
    amb = FreeModule(2, (0,))
    return ([FreeModElem(amb, {0: x2 * x2}),
             FreeModElem(amb, {0: x2 * x1 + x1 * x1})],
            ModOrder.standard(1, 2))


def _pivots_matter():
    """(2 e3^2 - 2 e2^2, -2 e1^2, 2 e3) in lex e3 > e2 > e1: the raw
    resolution has several units at a level, and cancelling them in
    another order than row-major can give the minimised degrees
    [8, 6, 6] instead of [6, 8, 6] at level 1."""
    e1, e2, e3 = x(1, 3), x(2, 3), x(3, 3)
    amb = FreeModule(3, (0,))
    c = Polynomial.const(3, 2)
    return ([FreeModElem(amb, {0: c * (e3 * e3 - e2 * e2)}),
             FreeModElem(amb, {0: -c * e1 * e1}),
             FreeModElem(amb, {0: c * e3})],
            ModOrder.standard(1, 3))


def _redundant_ideal():
    """(x^2, xy, y^2) in Q[e1, e2] presented by 2e1^2 + 2e2^2, e1e2 - e2^2,
    2e1e2 and -e1e2 + 2e2^2: pd 1, but a resolution free on every
    syzygy of the level below grows level by level."""
    e1, e2 = x(1, 2), x(2, 2)
    amb = FreeModule(2, (0,))
    two = Polynomial.const(2, 2)
    return ([FreeModElem(amb, {0: two * (e1 * e1 + e2 * e2)}),
             FreeModElem(amb, {0: e1 * e2 - e2 * e2}),
             FreeModElem(amb, {0: two * e1 * e2}),
             FreeModElem(amb, {0: two * e2 * e2 - e1 * e2})],
            ModOrder.standard(1, 2))


def _seed7():
    """-2e1^2 - e2^2, e1e2 - 2e2^2 and -e1^2 times E1 in Q[e1, e2]^2, the
    draw of `modules()` under --hypothesis-seed=7 on which the plain
    position-over-term resolution grew without end."""
    e1, e2 = x(1, 2), x(2, 2)
    amb = FreeModule(2, (0, 0))
    two = Polynomial.const(2, 2)
    return ([FreeModElem(amb, {0: -(two * e1 * e1) - e2 * e2}),
             FreeModElem(amb, {0: e1 * e2 - two * e2 * e2}),
             FreeModElem(amb, {0: -(e1 * e1)})],
            ModOrder.standard(2, 2))


def _seed1028():
    """(2e3^2, 2e1e2 - 2e1e3, -e1 - 2e3) in Q[e1, e2, e3], the draw of
    `modules()` under --hypothesis-seed=1028 on which the plain
    position-over-term reference resolution ran for minutes at its fourth
    and fifth levels."""
    e1, e2, e3 = x(1, 3), x(2, 3), x(3, 3)
    amb = FreeModule(3, (0,))
    two = Polynomial.const(3, 2)
    return ([FreeModElem(amb, {0: two * e3 * e3}),
             FreeModElem(amb, {0: two * e1 * e2 - two * e1 * e3}),
             FreeModElem(amb, {0: -e1 - two * e3})],
            ModOrder.standard(1, 3))


def _found_module():
    """(2e1^2 + 2e3^2, 2e3, 2e1e2), (e2e3, 0, 2e2^2 + 2e3^2), (e2^2, e3,
    2e1^2 + 2e2^2) and (2e2, 2, 0) in Q[e1, e2, e3]^3 with shifts (0, 2,
    0): the completion adds 13 elements, so its S-pairs are most of the
    work of the resolution."""
    e1, e2, e3 = x(1, 3), x(2, 3), x(3, 3)
    amb = FreeModule(3, (0, 2, 0))
    two = Polynomial.const(3, 2)
    return ([FreeModElem(amb, {0: two * (e1 * e1 + e3 * e3), 1: two * e3,
                               2: two * e1 * e2}),
             FreeModElem(amb, {0: e2 * e3, 2: two * (e2 * e2 + e3 * e3)}),
             FreeModElem(amb, {0: e2 * e2, 1: e3,
                               2: two * (e1 * e1 + e2 * e2)}),
             FreeModElem(amb, {0: two * e2, 1: two})],
            ModOrder.standard(3, 3))


def _combination(row, gens):
    total = FreeModElem(gens[0].ambient, {})
    for k, c in row.items():
        total = total + gens[k].scale_poly(c)
    return total


class TestCoefficientTypes:
    @settings(max_examples=100, deadline=None)
    @given(modules(max_gens=3))
    @example(_grows())
    def test_reduce_and_buchberger(self, case):
        # reduction, completion and the resolution divide by leading
        # coefficients
        gens, order = case
        gb = buchberger(gens, order)
        out = [p for g in gb.elements for p in g.coords.values()]
        _, diffs = free_resolution(gens, order)
        out += [p for level in diffs for col in level for p in col.values()]
        third = Polynomial.const(gens[0].ambient.n_vars, Fraction(1, 3))
        for f in gens:
            quots, rem = reduce_elem(f.scale_poly(third), gb.elements, order)
            out += list(quots.values()) + list(rem.coords.values())
        assert all(exact_coefficients(p) for p in out)


@st.composite
def divisions(draw):
    """(f, G, order) for one division: G from `modules()` with every
    element scaled by a drawn rational, so that leading coefficients are
    non-unit and fractional; f a combination of the G_k with monomial and
    rational multipliers plus one term of its own."""
    gens, order = draw(modules())
    amb = gens[0].ambient
    nv = amb.n_vars
    one = (0,) * nv
    rationals = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                          st.sampled_from((1, 2, 3)))
    G = [g.mono_mul(one, draw(rationals)) for g in gens]
    monos = st.tuples(*[st.integers(0, 1)] * nv)
    f = FreeModElem(amb, {draw(st.integers(0, amb.rank - 1)):
                          Polynomial(nv, {draw(monos): draw(rationals)})})
    for g in G:
        f = f + g.mono_mul(draw(monos), draw(rationals))
    return f, G, order


def _typed(terms):
    """The items of a coefficient dict, each coefficient with its type."""
    return sorted((x, type(c), c) for x, c in terms.items())


class TestReduceAgainstOracle:
    """`reduce_elem` divides on one coefficient dict; the oracle divides
    one coordinate `Polynomial` at a time, with the same divisor rule."""

    @settings(max_examples=200, deadline=None)
    @given(divisions())
    @example((st_generators(4)[3].scale_poly(x(1, 4)), st_generators(4),
              st_ambient(4, 0)[1]))
    def test_quotients_and_remainder(self, case):
        f, G, order = case
        quots, rem = reduce_elem(f, G, order)
        want_q, want_rem = oracle.reduce_elem(f, G, order)
        n = f.ambient.n_vars
        assert all(not q.is_zero() for q in quots.values())
        got_q = [quots.get(k, Polynomial.zero(n)) for k in range(len(G))]
        assert [_typed(q.terms) for q in got_q] \
            == [_typed(q.terms) for q in want_q]
        # the oracle's remainder as `Polynomial` coordinates stores them
        assert _typed(rem.terms) == _typed(
            {(g, e): c for g, p in want_rem.coords.items()
             for e, c in p.terms.items()})

    def test_lead_is_cached_per_order(self):
        amb = FreeModule(2, (0, 0))
        f = FreeModElem(amb, {0: x(1, 2), 1: x(2, 2)})
        up, down = ModOrder.standard(2, 2), ModOrder((1, 0), ((0, 0),) * 2)
        lead_up = f.leading(up)
        assert lead_up == (1, (0, 1), 1)
        assert f.leading(down) == (0, (1, 0), 1)
        assert f.leading(up) is lead_up
        assert f.leading(ModOrder.standard(2, 2)) is lead_up   # equal orders share


def _row_module(rows, n_gens, nv):
    """The rows (dense lists of n_gens coefficients) as elements of a free
    module of rank n_gens, with the position-over-term order there."""
    amb = FreeModule(nv, (0,) * n_gens)
    elems = [FreeModElem(amb, dict(enumerate(row))) for row in rows]
    return elems, ModOrder.standard(n_gens, nv)


def _generates(rows, others, n_gens, nv):
    """Every row of `others` lies in the module the `rows` generate."""
    elems, order = _row_module(rows, n_gens, nv)
    basis = buchberger(elems, order).elements
    return all(reduce_elem(f, basis, order)[1].is_zero()
               for f in _row_module(others, n_gens, nv)[0])


class TestSyzygiesAgainstOracle:
    """`buchberger` is a completion only, and `syzygies` reads the first
    level of Schreyer's frame over a Groebner basis; the oracle completes
    the basis with dense representations and reduces every S-pair of it a
    second time, transporting each relation to the inputs."""

    @settings(max_examples=150, deadline=None)
    @given(modules())
    @example(_grows())
    def test_basis_and_syzygies(self, case):
        gens, order = case
        gb = buchberger(gens, order)
        ob = oracle.buchberger(gens, order)
        assert gb.elements == ob.elements and gb.n_new == ob.n_new
        if gb.n_new == 0 and len(gb.elements) == len(gens):
            for row in syzygies(gb, len(gens)):
                assert _combination(dict(enumerate(row)), gens).is_zero()
        else:
            with pytest.raises(ValueError):
                syzygies(gb, len(gens))
        G = gb.elements
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                gi, ei, ci = G[i].leading(order)
                gj, ej, cj = G[j].leading(order)
                if gi != gj:
                    continue
                lcm = _mono_lcm(ei, ej)
                s = (G[i].mono_mul(_mono_sub(lcm, ei), Fraction(1, ci))
                     - G[j].mono_mul(_mono_sub(lcm, ej), Fraction(1, cj)))
                assert reduce_elem(s, G, order)[1].is_zero()

    @settings(max_examples=100, deadline=None)
    @given(modules(max_gens=3))
    @example(_grows())
    @example(_seed7())
    @example(_seed1028())
    @example(_found_module())
    def test_resolution(self, case):
        # The minimal graded Betti numbers are unique, so their graded
        # Euler characteristic is the Hilbert-series numerator, which the
        # oracle's leading terms give on every draw.  The plain
        # position-over-term reference resolution grows without end on
        # some redundant inputs; where it ends within five levels and
        # `oracle.PAIR_BUDGET` S-pairs per level, the minimised degrees
        # agree level by level as multisets.
        gens, order = case
        p, degrees = pd(gens, order)
        assert p == len(degrees) - 1
        assert all(level == sorted(level) for level in degrees)
        assert _euler(degrees) == oracle.hilbert_numerator(
            oracle.buchberger(gens, order).elements, order)
        try:
            want = oracle.minimize_resolution(
                *oracle.free_resolution(gens, order, max_len=5))[0]
        except RuntimeError:
            want = None
        if want is not None:
            assert degrees == [sorted(level) for level in want]
        # the first level of the frame, read in basis order, generates
        # every syzygy of the basis that the oracle finds
        G = buchberger(gens, order).elements
        _, diffs = free_resolution(gens, order)
        perm = strmod._position_first(G, order)
        n = gens[0].ambient.n_vars
        zero = Polynomial.zero(n)
        first = [{perm[i]: p for i, p in col.items()}
                 for level in diffs[:1] for col in level]
        first = [[row.get(k, zero) for k in range(len(G))] for row in first]
        assert _generates(first, oracle.syzygies(oracle.buchberger(G, order),
                                                 len(G)), len(G), n)

    @settings(max_examples=100, deadline=None)
    @given(modules(max_gens=3))
    @example(_grows())
    @example(_pivots_matter())
    @example(_redundant_ideal())
    @example((st_generators(3), st_ambient(3, 0)[1]))
    def test_sparse_resolution(self, case):
        # The raw resolution is a complex of length at most n_vars, and the
        # dense oracle minimiser, run on the densified raw resolution,
        # gives what the sparse minimiser gives and leaves the raw
        # resolution as it was.
        gens, order = case
        n = gens[0].ambient.n_vars
        degrees, diffs = free_resolution(gens, order)
        assert len(degrees) - 1 <= n
        _assert_complex(degrees, diffs, n)
        raw = oracle.densify(degrees, diffs, n)
        mdeg, mdiffs = minimize_resolution(degrees, diffs)
        assert (mdeg, oracle.densify(mdeg, mdiffs, n)) \
            == oracle.minimize_resolution(degrees, raw)
        assert oracle.densify(degrees, diffs, n) == raw

    @settings(max_examples=100, deadline=None)
    @given(modules(max_gens=5, min_gens=4))
    def test_four_or_five_generators(self, case):
        gens, order = case
        n = gens[0].ambient.n_vars
        degrees, diffs = free_resolution(gens, order)
        assert len(degrees) - 1 <= n
        _assert_complex(degrees, diffs, n)
        mdeg, _ = minimize_resolution(degrees, diffs)
        assert _euler(mdeg) == _euler(degrees) == oracle.hilbert_numerator(
            oracle.buchberger(gens, order).elements, order)

    def test_grows(self):
        # the inputs are not a Groebner basis, so syzygies refuses them
        gens, order = _grows()
        gb = buchberger(gens, order)
        assert gb.n_new == 1
        with pytest.raises(ValueError):
            syzygies(gb, len(gens))

    @pytest.mark.parametrize("n_gens", [3, 8])
    def test_syzygies_refuse_another_count(self, n_gens):
        # rows for 3 of the 6 inputs are not syzygies, and rows padded to 8
        # name inputs that do not exist
        gens = st_generators(4)
        gb = buchberger(gens, st_ambient(4, 0)[1])
        assert gb.n_new == 0 and len(gens) == 6
        with pytest.raises(ValueError):
            syzygies(gb, n_gens)

    def _same_module(self, gens, order):
        n_gens, nv = len(gens), gens[0].ambient.n_vars
        gb = buchberger(gens, order)
        assert gb.n_new == 0
        rows = syzygies(gb, n_gens)
        want = oracle.syzygies(oracle.buchberger(gens, order), n_gens)
        assert all(len(row) == n_gens for row in rows)
        assert _generates(rows, want, n_gens, nv)
        assert _generates(want, rows, n_gens, nv)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_syzygies_of_st(self, n, extra):
        self._same_module(st_generators(n, extra), st_ambient(n, extra)[1])

    @settings(max_examples=100, deadline=None)
    @given(modules())
    @example(_grows())
    def test_syzygies_of_a_completion(self, case):
        # the completion of a draw is a Groebner basis, input to syzygies
        gens, order = case
        G = buchberger(gens, order).elements
        if G:
            self._same_module(G, order)


class TestSchreyer:
    """`free_resolution` completes once, at level 0, and every level above
    is Schreyer's: its length is at most the number of variables."""

    @pytest.mark.parametrize("case", [_redundant_ideal, _seed7])
    def test_redundant_input(self, case):
        # pd 1 in under a second, where free resolutions on every syzygy
        # of the level below grew without end
        gens, order = case()
        start = time.perf_counter()
        p, degrees = pd(gens, order)
        assert time.perf_counter() - start < 1
        assert (p, degrees) == (1, [[4, 4, 4], [6, 6]])
        raw, diffs = free_resolution(gens, order)
        assert len(raw) - 1 <= 2
        _assert_complex(raw, diffs, 2)

    def test_one_completion(self, monkeypatch):
        calls = []

        def counting(gens, order):
            calls.append(len(gens))
            return buchberger(gens, order)

        monkeypatch.setattr(strmod, "buchberger", counting)
        gens = st_generators(5)
        degrees, _ = free_resolution(gens, st_ambient(5, 0)[1])
        assert len(degrees) == 4 and calls == [len(gens)]

    def test_found_module(self):
        gens, order = _found_module()
        assert buchberger(gens, order).n_new == 13
        assert pd(gens, order) == (1, [[2, 4, 4, 4], [12]])

    def test_zero_module(self):
        amb = FreeModule(2, (0,))
        gens = [FreeModElem(amb, {})]
        assert free_resolution(gens, ModOrder.standard(1, 2)) == ([[]], [])
        assert strmod.certified_pd(gens, ModOrder.standard(1, 2)) \
            == (-1, [], True)
        assert oracle.pd(gens, ModOrder.standard(1, 2)) == (-1, [])


class TestCertifiedPd:
    """Where no two consecutive levels of the frame's shape share a degree,
    `pd` reads the minimal degrees off the shape; elsewhere it minimises
    the shape's columns.  Both against the reduce-and-minimise path."""

    @settings(max_examples=100, deadline=None)
    @given(modules())
    @example(_redundant_ideal())
    @example(_seed7())
    @example(_found_module())
    def test_against_reduce_and_minimise(self, case):
        gens, order = case
        assert pd(gens, order) == oracle.pd(gens, order)

    @pytest.mark.parametrize("case", [_redundant_ideal, _seed7,
                                      _found_module])
    def test_certificate_fails(self, case):
        # a redundant basis puts a unit into the first differential
        assert strmod.certified_pd(*case())[2] is False

    def test_certified_pd_reduces_nothing_above_level_0(self, monkeypatch):
        completions, above = [], []
        inside = [False]

        def counting_buchberger(gens, order):
            completions.append(len(gens))
            inside[0] = True
            try:
                return buchberger(gens, order)
            finally:
                inside[0] = False

        def counting_reduce(f, G, order):
            if not inside[0]:
                above.append(f)
            return reduce_elem(f, G, order)

        monkeypatch.setattr(strmod, "buchberger", counting_buchberger)
        monkeypatch.setattr(strmod, "reduce_elem", counting_reduce)
        gens = st_generators(6)
        _, order = st_ambient(6, 0)
        assert strmod.certified_pd(gens, order) \
            == (4, [[2 * k + 4] * comb(6, k + 2) for k in range(5)], True)
        assert completions == [len(gens)] and above == []
        # the columns of the same frame are reductions above level 0
        free_resolution(gens, order)
        assert len(completions) == 2 and above

    @pytest.mark.parametrize("cap, refused", [(25, True), (26, False)])
    def test_frame_cap(self, monkeypatch, cap, refused):
        # St on 5 roots has a frame of 2^5 - 6 = 26 generators, of which
        # the last level adds one: a cap of 25 refuses it before that level
        monkeypatch.setattr(strmod, "ALL_CAP", cap)
        gens = st_generators(5)
        _, order = st_ambient(5, 0)
        if refused:
            with pytest.raises(ValueError, match="ALL_CAP = 25 generators"):
                strmod.certified_pd(gens, order)
        else:
            assert strmod.certified_pd(gens, order)[0] == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_st_frame_count(self, monkeypatch, n):
        # check_st_frame counts 2^n - 1 - n generators without building
        # the frame: the count `_frame_shape` finds, refused one above it
        gens = st_generators(n)
        _, order = st_ambient(n, 0)
        size = sum(map(len, strmod._frame_shape(gens, order)[0]))
        assert size == 2 ** n - 1 - n
        monkeypatch.setattr(strmod, "ALL_CAP", size)
        strmod.check_st_frame(n)
        monkeypatch.setattr(strmod, "ALL_CAP", size - 1)
        with pytest.raises(ValueError, match=f"ALL_CAP = {size - 1} gen"):
            strmod.check_st_frame(n)
