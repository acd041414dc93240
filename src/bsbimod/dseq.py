"""
The counterexample factory built on D-sequences: solution tables for
identity-target subexpressions, chord calculus on Z/(2n-1)Z, the two chord
labelings with their reflections and roots, structural identity checks, and
the end-to-end non-freeness pipeline (premature stop, string-module
residual, projective dimensions).
"""

__all__ = [
    "Chord", "SolutionTable",
    "e_table", "verify_solutions", "chord_label", "structure_checks",
    "dichotomy_report",
]

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .polyring import Polynomial, GradedRank, InvariantError
from .coxeter import (Permutation, Reflection, ReflExpr, make_sequence,
                      shift, reverse, fold_expr)
from .subexpr import Subexpr, SubSet, enumerate_sub, components, con_component
from .orderalg import algorithm2, residual_constraints, _roots_independent
from . import strmod

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class Chord:
    """A maximal chord {a, n-1+a} of Z/(2n-1)Z."""
    n: int
    a: int  # normalized representative

    def __post_init__(self):
        # a |-> {a, a+n-1} is injective mod 2n-1, so a mod 2n-1 is canonical
        object.__setattr__(self, "a", self.a % (2 * self.n - 1))

    @property
    def modulus(self) -> int:
        return 2 * self.n - 1

    def members(self) -> frozenset:
        return frozenset({self.a % self.modulus,
                          (self.a + self.n - 1) % self.modulus})

    def __add__(self, j: int) -> "Chord":
        return Chord(self.n, (self.a + j) % self.modulus)

    def positions(self) -> Tuple[int, ...]:
        """The two positions in 1..2n-1 whose residues form the chord
        (position 2n-1 has residue 0)."""
        N = self.modulus
        return tuple(sorted(N if r == 0 else r for r in self.members()))

    def endpoints(self) -> Tuple[int, int]:
        """(A_1, A_2) = (a, n-1+a) as residues."""
        return self.a % self.modulus, (self.a + self.n - 1) % self.modulus

    def __repr__(self) -> str:
        a, b = sorted(self.members())
        return f"Chord{{{a},{b}}}"


def all_chords(n: int) -> List[Chord]:
    seen = {}
    for a in range(2 * n - 1):
        c = Chord(n, a)
        seen[c.members()] = c
    return sorted(seen.values(), key=lambda c: min(c.members()))


def _seq_shift(i: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    m = len(i)
    return tuple(i[(k + j) % m] for j in range(m))


def e_base_bits(n: int, l: int) -> Bits:
    """The solution e^(l) of the identity-target equation over D(i), as a
    bit string of length 2n-1; extended (2n-1)-periodically in l."""
    N = 2 * n - 1
    l %= N
    ones = set()
    if l < n:
        ones |= set(range(1, l + 1))
        ones |= set(range(n, n + l))
    else:
        ones |= set(range(l - n + 1, n))
        ones |= set(range(l + 1, 2 * n))
    return tuple(1 if i in ones else 0 for i in range(1, N + 1))


@dataclass
class SolutionTable:
    n: int
    k: int
    i: Tuple[int, ...]
    expr: ReflExpr                       # D(i)[k]
    rows: Dict[int, Subexpr]             # l -> e^(l)[k]
    sub: SubSet                          # Sub(D(i)[k], 1), enumerated
    label_first: Dict[Chord, int] = field(default_factory=dict)   # A -> l with e^{A,.}
    label_second: Dict[Chord, int] = field(default_factory=dict)  # A -> l with e^{.,A}
    t_of: Dict[Chord, Reflection] = field(default_factory=dict)
    alpha: Dict[Chord, Polynomial] = field(default_factory=dict)

    def row(self, l: int) -> Subexpr:
        return self.rows[l % (2 * self.n - 1)]

    def e_first(self, A: Chord) -> Subexpr:
        """e^{A, .}"""
        return self.rows[self.label_first[A]]

    def e_second(self, A: Chord) -> Subexpr:
        """e^{., A}"""
        return self.rows[self.label_second[A]]


def e_table(n: int, k: int = 0, i: Optional[Sequence[int]] = None) -> SolutionTable:
    if n < 3:
        raise ValueError("need n >= 3")
    if i is None:
        i = tuple(range(1, n + 1))
    i = tuple(i)
    # everything is (2n-1)-periodic in k; use the window 1-n <= k <= n-1
    k = (k + n - 1) % (2 * n - 1) - (n - 1)
    t = shift(make_sequence("D", i, n), k)
    rows = {l: Subexpr(t, _seq_shift(e_base_bits(n, l), k))
            for l in range(2 * n - 1)}
    return SolutionTable(n, k, i, t, rows,
                         enumerate_sub(t, Permutation.identity(t.n)))


def verify_solutions(table: SolutionTable) -> bool:
    """The enumerated Sub(D(i)[k], 1) equals the table rows, cardinality 2n-1."""
    row_bits = {eps.bits for eps in table.rows.values()}
    return (len(row_bits) == 2 * table.n - 1
            and set(table.sub.members) == row_bits)


def chord_label(table: SolutionTable) -> SolutionTable:
    """Attach the two chord labelings: for each row there are exactly two
    doubled reflections p, q with residue sets A and 1+A; the row is
    e^{A, .} = e^{., 1+A}, with t(A) = p and alpha^A the root of p.  The
    M_p sets are read from the analysis of `table.sub`."""
    n, N = table.n, 2 * table.n - 1
    chords = {c.members(): c for c in all_chords(n)}
    an = table.sub.analysis()
    for l, eps in table.rows.items():
        doubled = [(p, M) for p, M, _ in an.per_p[an.index[eps.bits]]
                   if len(M) == 2]
        if len(doubled) != 2:
            raise InvariantError(f"row {l}: expected two doubled reflections")
        data = []
        for p, M in doubled:
            residues = frozenset(x % N for x in M)
            if residues not in chords:
                raise InvariantError(f"row {l}: positions {M} are not a chord")
            data.append((chords[residues], p))
        (C1, p1), (C2, p2) = data
        if (C1 + 1).members() == C2.members():
            A, p, q = C1, p1, p2
        elif (C2 + 1).members() == C1.members():
            A, p, q = C2, p2, p1
        else:
            raise InvariantError(f"row {l}: chords are not consecutive")
        B = A + 1
        if A in table.label_first or B in table.label_second:
            raise InvariantError("labeling is not a bijection")
        table.label_first[A] = l
        table.label_second[B] = l
        table.t_of[A] = p
        table.t_of[B] = q
        table.alpha[A] = p.root()
        table.alpha[B] = q.root()
    # both labelings must be bijections onto the rows
    if len(table.label_first) != N or len(table.label_second) != N:
        raise InvariantError("labeling is not a bijection")
    # f_A e^{A,.} = e^{.,A}
    for A, l in table.label_first.items():
        eps = table.rows[l]
        folded = eps.fold(A.positions())
        if folded.bits != table.e_second(A).bits:
            raise InvariantError(f"f_A failed at {A}")
    return table


def _cyc(x: int, m: int) -> int:
    """Map an integer to the position range 1..m cyclically."""
    return (x - 1) % m + 1


def _seq_shift1(i: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    return (i[0],) + _seq_shift(i[1:], k)


def _seq_ddot(i: Tuple[int, ...]) -> Tuple[int, ...]:
    return (i[0],) + tuple(reversed(i[1:]))


def structure_checks(table: SolutionTable) -> dict:
    """Direct verification of the structural identities: the reversal
    formula, the two one-step folding formulas, the closed forms for the
    dotted rows, the four frozen-component formulas, and that the
    subexpression graph is a single (2n-1)-cycle."""
    n, k, i = table.n, table.k, table.i
    N = 2 * n - 1
    rep: dict = {}
    D = make_sequence("D", i, n)

    # reversal: reverse(D(i)[k]) = D(i ddot)[n-1-k], since reversing
    # a(i) cup c(i) gives c(i ddot) cup a(i ddot) and |a| = n-1
    rep["reverse"] = (reverse(shift(D, k))
                      == shift(make_sequence("D", _seq_ddot(i), n), n - 1 - k))

    # one-step row folding: f_{l, l+n-1} e^(l-1) = e^(l), cyclically
    # (positions taken in the unshifted table, then moved by -k)
    rep["row_folding"] = all(
        table.row(l - 1).fold((_cyc(l - k, N), _cyc(l + n - 1 - k, N))).bits
        == table.row(l).bits for l in range(N))

    # folding formulas on expressions; the first is valid for
    # 1-n <= k <= n-1 (all of the canonical window), the second for
    # -n <= k <= n-2, so at k = n-1 use the equivalent k - (2n-1) = -n
    tk = shift(D, k)
    posA = tuple(sorted({_cyc(1 - k, N), _cyc(n - k, N)}))
    if k <= 0:
        exp1 = shift(make_sequence("D", _seq_shift(i, 1), n), k - 1)
    else:
        exp1 = shift(make_sequence("D", _seq_shift1(i, 1), n), k - 1)
    rep["fold_down"] = (fold_expr(tk, posA) == exp1)
    k2 = k if k <= n - 2 else k - N
    posB = tuple(sorted({_cyc(-k2, N), _cyc(n - 1 - k2, N)}))
    if k2 < 0:
        exp2 = shift(make_sequence("D", _seq_shift(i, -1), n), k2 + 1)
    else:
        exp2 = shift(make_sequence("D", _seq_shift1(i, -1), n), k2 + 1)
    rep["fold_up"] = (fold_expr(tk, posB) == exp2)

    # closed forms for the dotted rows
    ok = True
    for l0 in range(N):
        found = False
        for l in (l0 + off * N for off in (-2, -1, 0, 1, 2)):
            if k > 0 and k <= l <= n + k - 1:
                expect = shift(make_sequence(
                    "D", _seq_shift(_seq_shift1(i, k), l - k), n), k - l)
            elif k > 0 and 1 - n + k <= l <= k:
                expect = shift(make_sequence("D", _seq_shift1(i, l), n), k - l)
            elif k <= 0 and k <= l <= n + k - 1:
                expect = shift(make_sequence("D", _seq_shift(i, l), n), k - l)
            elif k <= 0 and 1 - n + k <= l <= k:
                expect = shift(make_sequence(
                    "D", _seq_shift1(_seq_shift(i, k), l - k), n), k - l)
            else:
                continue
            found = True
            if table.row(l0).dotted() != expect:
                ok = False
            break
        if not found:
            ok = False
    rep["dotted_closed_forms"] = ok

    # frozen connected components (four formulas)
    sub = table.sub
    ok = True
    for A in table.label_first:
        A1, A2 = A.endpoints()
        p1 = _cyc(A1 if A1 else N, N)
        p2 = _cyc(A2 if A2 else N, N)
        expect = {
            (p1, "first"): {table.e_first(A + j).bits for j in range(0, n)},
            (p2, "first"): {table.e_first(A + j).bits for j in range(0, n - 1)},
            (p1, "second"): {table.e_second(A + j).bits for j in range(-n + 2, 1)},
            (p2, "second"): {table.e_second(A + j).bits for j in range(-n + 1, 1)},
        }
        for (pos, which), want in expect.items():
            eps = table.e_first(A) if which == "first" else table.e_second(A)
            got = set(con_component(sub, eps, (pos,)).members)
            if got != want:
                ok = False
    rep["frozen_components"] = ok

    # the graph is one (2n-1)-cycle: connected, every vertex of degree 2
    rep["cycle"] = (len(sub) == N and len(components(sub)) == 1
                    and all(a.bit_count() == 2 for a in sub.analysis().adj))

    # linear independence of alpha^{1+A}..alpha^{n-1+A}
    rep["roots_independent"] = all(
        _roots_independent([table.alpha[A + j] for j in range(1, n)])
        for A in table.label_first)

    rep["ok"] = all(bool(v) for v in rep.values())
    return rep


def dichotomy_report(n: int, k: int = 0, i: Optional[Sequence[int]] = None) -> dict:
    """
    The end-to-end pipeline over Sub(D(i)[k], 1): for n = 3 the growth
    algorithm completes with rank 1 + 3v^-2 + v^-4; for n >= 4 it stops
    prematurely at step n+1 with every surviving rank 1 + n v^-2, the
    residual constraints form the string-module pattern on n-1 linearly
    independent roots, the string module on those roots has projective
    dimension n-3, and its dual has the two-term resolution
    0 -> R -> R(2)^{n-1} -> dual -> 0.  The chord-labelled solution table
    is returned under "table".
    """
    table = chord_label(e_table(n, k, i))
    if not verify_solutions(table):
        raise InvariantError("solution table mismatch")
    t = table.expr
    w = Permutation.identity(t.n)
    res = algorithm2(t, w, sub=table.sub)
    report: dict = {"n": n, "k": k, "i": table.i, "outcome": res.outcome,
                    "step": res.step, "table": table}
    if n == 3:
        if res.outcome != "completed":
            raise InvariantError(res.outcome)
        if res.P != GradedRank({0: 1, -2: 3, -4: 1}):
            raise InvariantError(str(res.P))
        report["P"] = res.P
        return report

    if not (res.outcome == "premature" and res.step == n + 1):
        raise InvariantError((res.outcome, res.step))
    survivors = res.trace[res.step]
    expected_P = GradedRank({0: 1, -2: n})
    if not all(P == expected_P for P in survivors.values()):
        raise InvariantError([str(P) for P in survivors.values()])
    report["P"] = expected_P

    # residual constraints: string pattern on n-1 independent roots, and the
    # roots are alpha^A, ..., alpha^{n-2+A} for some chord A
    alpha_sets = {frozenset(table.alpha[A + j] for j in range(n - 1))
                  for A in table.label_first}
    for phi in survivors:
        rr = residual_constraints(table.sub, phi)
        if not (rr.is_string_pattern and rr.independent
                and len(rr.roots) == n - 1
                and frozenset(rr.roots) in alpha_sets):
            raise InvariantError("residual is not the expected string pattern")
    last_roots = list(rr.roots)
    report["residual_roots"] = last_roots

    # string module on those roots: pd = n-3; dual resolution two-term
    n_roots, _, extra = strmod.coordinate_change(last_roots)
    gens = strmod.st_generators(n_roots, extra=t.n - n_roots)
    _, order = strmod.st_ambient(n_roots, extra=t.n - n_roots)
    p, degs = strmod.pd(gens, order)
    if p != n - 3:
        raise InvariantError((p, n - 3))
    report["pd_string"] = p
    dual = strmod.dual_toolkit(n_roots, extra=t.n - n_roots)
    if not (dual["shape_ok"] and dual["kernel_is_w"]
            and dual["theta_groebner"]):
        raise InvariantError("the dual string module has the wrong shape")
    report["dual"] = dual
    return report
