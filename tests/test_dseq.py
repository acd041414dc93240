import random

import pytest

import oracle
from bsbimod.polyring import GradedRank
from bsbimod.dseq import (Chord, all_chords, e_base_bits, e_table,
                          verify_solutions, chord_label, structure_checks,
                          dichotomy_report)


class TestChord:
    def test_normalization(self):
        assert Chord(3, 6) == Chord(3, 1)
        assert Chord(3, -1) == Chord(3, 4)

    def test_members_and_positions(self):
        c = Chord(3, 1)
        assert c.members() == frozenset({1, 3})
        assert c.positions() == (1, 3)
        # residue 0 sits at position 2n-1
        z = Chord(3, 0)
        assert 5 in z.positions()

    def test_shift(self):
        assert (Chord(3, 1) + 2) == Chord(3, 3)
        assert (Chord(3, 4) + 1) == Chord(3, 0)

    def test_all_chords_distinct(self):
        for n in (3, 4, 5):
            cs = all_chords(n)
            assert len(cs) == 2 * n - 1
            assert len(set(cs)) == 2 * n - 1


class TestBaseBits:
    def test_oracle_n3(self):
        rows = [e_base_bits(3, l) for l in range(5)]
        assert rows == [(0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (1, 1, 1, 1, 0),
                        (1, 1, 0, 1, 1), (0, 1, 0, 0, 1)]

    def test_row_weights(self):
        # row l selects 2*min(l, 2n-1-l) entries
        for n in (3, 4, 5):
            for l in range(2 * n - 1):
                bits = e_base_bits(n, l)
                assert len(bits) == 2 * n - 1
                assert sum(bits) == 2 * min(l, 2 * n - 1 - l)


class TestTable:
    def test_rows_are_solutions(self):
        for n in (3, 4):
            for k in (0, 1, -2, 2 * n, 7 * n + 3):
                assert verify_solutions(e_table(n, k))

    def test_rearranged_indices(self, rng):
        for n in (3, 4):
            i = tuple(rng.sample(range(1, n + 1), n))
            assert verify_solutions(e_table(n, 0, i))

    def test_periodic_in_k(self):
        n = 4
        a = e_table(n, 1)
        b = e_table(n, 1 + (2 * n - 1))
        assert all(a.rows[l].bits == b.rows[l].bits for l in a.rows)

    def test_chord_labels_biject(self):
        for n in (3, 4):
            T = chord_label(e_table(n, 0))
            cs = set(all_chords(n))
            assert set(T.label_first.keys()) == cs
            assert set(T.label_second.keys()) == cs
            # each row carries exactly one first label and one second label
            assert sorted(T.label_first.values()) == list(range(2 * n - 1))
            assert sorted(T.label_second.values()) == list(range(2 * n - 1))

    def test_fold_links_the_two_labelled_rows(self):
        for n in (3, 4):
            T = chord_label(e_table(n, 0))
            for A in all_chords(n):
                e1 = T.e_first(A)
                e2 = T.e_second(A)
                assert e1.fold(A.positions()).bits == e2.bits

    @pytest.mark.parametrize("n", range(3, 9))
    def test_labels_match_all_M(self, n):
        # the labels read from the analysis are those of each row's all_M
        for k in range(2 * n - 1):
            T = chord_label(e_table(n, k))
            assert (T.label_first, T.label_second, T.t_of, T.alpha) \
                == oracle.chord_labels(e_table(n, k)), f"n={n} k={k}"

    def test_t_of_and_alpha(self):
        T = chord_label(e_table(3, 0))
        for A in all_chords(3):
            t = T.t_of[A]
            assert T.alpha[A] in (t.root(), t.root().scale(-1))


class TestStructure:
    @pytest.mark.parametrize("n,k", [(3, 0), (3, 2), (3, -2), (4, 0),
                                     (4, 3), (4, -3), (4, 9)])
    def test_checks_pass(self, n, k):
        rep = structure_checks(chord_label(e_table(n, k)))
        assert rep["ok"], {k2: v for k2, v in rep.items() if v is not True}

    def test_checks_pass_rearranged(self, rng):
        n = 4
        i = tuple(rng.sample(range(1, n + 1), n))
        rep = structure_checks(chord_label(e_table(n, 1, i)))
        assert rep["ok"]

    def test_report_keys(self):
        rep = structure_checks(chord_label(e_table(3, 0)))
        for key in ("reverse", "row_folding", "fold_down", "fold_up",
                    "dotted_closed_forms", "frozen_components", "cycle",
                    "roots_independent", "ok"):
            assert key in rep


class TestDichotomy:
    def test_n3_completes(self):
        rep = dichotomy_report(3)
        assert rep["outcome"] == "completed"
        assert rep["P"] == GradedRank({0: 1, -2: 3, -4: 1})

    def test_n4_premature(self):
        rep = dichotomy_report(4)
        assert rep["outcome"] == "premature"
        assert rep["step"] == 5
        assert rep["P"] == GradedRank({0: 1, -2: 4})
        assert rep["pd_string"] == 1
        assert len(rep["residual_roots"]) == 3
        assert rep["dual"]["shape_ok"] and rep["dual"]["pd"] == 1
