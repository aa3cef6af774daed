import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from identity_forge.catalog import CatalogEntry, all_entries, catalog_ids, entry
from identity_forge.engine import (
    descriptor_eval,
    rewrite_scale,
    theorem1_descriptor,
    theorem2_descriptor,
)
from identity_forge.numeric import rat_pow
from identity_forge.sequences import (
    A015530,
    FIBONACCI,
    LUCAS,
    PELL,
    SequenceDef,
    subsequence_def,
    term,
)
from identity_forge.serialize import to_json, to_latex
from identity_forge.verifier import verify

from oracles import a015530, bronze, fib, luc, pell, pell_lucas


def evals_match(d1, d2, n_hi=32):
    for n in range(n_hi + 1):
        if descriptor_eval(d1, n) != descriptor_eval(d2, n):
            return False
    return True


class TestInventory:
    def test_at_least_sixty_entries(self):
        assert len(all_entries()) >= 60

    def test_exactly_one_sury_entry(self):
        assert sum(1 for e in all_entries() if e.id == "eq1") == 1

    def test_every_citation_is_nonempty(self):
        assert all(e.citation for e in all_entries())

    def test_labels_are_unique_and_deterministic(self):
        first = [e.label for e in all_entries()]
        second = [e.label for e in all_entries()]
        assert first == second
        assert len(first) == len(set(first))

    def test_entries_round_trip_through_entry(self):
        for e in all_entries():
            again = entry(e.id, **e.params)
            assert again.descriptor == e.descriptor

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown catalog id"):
            entry("eq99")

    def test_out_of_grid_parameters(self):
        with pytest.raises(ValueError, match="outside the grid"):
            entry("eq5", t=Fraction(7))
        with pytest.raises(ValueError, match="outside the grid"):
            entry("eq44", j=3, k=3)
        with pytest.raises(ValueError, match="outside the grid"):
            entry("eq1", j=1)

    def test_parameter_aliases_compare_equal(self):
        # integer-valued parameters may arrive as int or Fraction
        assert entry("eq5", t=2).descriptor == entry("eq5", t=Fraction(2)).descriptor


class TestSpotValues:
    """Frozen values computed with the independent recurrence oracles."""

    def test_sury_at_two(self):
        lhs, rhs = descriptor_eval(entry("eq1").descriptor, 2)
        expected = sum(2 ** i * luc(i) for i in range(3))
        assert lhs == rhs == expected == 16

    def test_martinjak_at_three(self):
        lhs, rhs = descriptor_eval(entry("eq2").descriptor, 3)
        expected = sum(Fraction(-1, 2) ** i * luc(i + 1) for i in range(4))
        assert lhs == rhs == expected == Fraction(-3, 8)

    def test_marques_at_two(self):
        lhs, rhs = descriptor_eval(entry("eq4").descriptor, 2)
        expected = sum(3 ** i * (luc(i) + fib(i + 1)) for i in range(3))
        assert lhs == rhs == expected == 54

    def test_edgar_at_five(self):
        t = Fraction(5)
        lhs, rhs = descriptor_eval(entry("eq5", t=t).descriptor, 1)
        expected = sum(t ** i * (luc(i) + (t - 2) * fib(i + 1)) for i in range(2))
        assert lhs == rhs == expected == 25

    def test_aez_family_value(self):
        a, b, t = Fraction(3), Fraction(1), Fraction(-1, 2)
        lhs, rhs = descriptor_eval(entry("eq7", a=a, b=b, t=t).descriptor, 1)
        u = lambda n: (0, 1, 3, 10)[n]
        v = lambda n: (2, 3, 11, 36)[n]
        expected = sum(t ** i * (v(i) + (a * t - 2) * u(i + 1)) for i in range(2)) / a
        assert lhs == rhs == expected == Fraction(3, 4)

    def test_favorites_m6_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq8", m=6).descriptor, 1)
        assert lhs == rhs == 9 ** 2 * fib(6) + 8 == 656

    def test_favorites_m9_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq8", m=9).descriptor, 1)
        expected = 17 * sum((-38) ** i * luc(9 * i) for i in range(2))
        assert lhs == rhs == expected == -49062

    def test_reciprocal_companion_j3_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq8b", j=3).descriptor, 1)
        expected = fib(3) / 2 * sum(Fraction(2, 4) ** i * luc(3 * i) for i in range(2))
        assert lhs == rhs == expected == 4

    def test_steps_lucas_j4_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq9", j=4, summand="lucas").descriptor, 1)
        expected = 3 * ((-4) * luc(1) + luc(5))
        assert lhs == rhs == expected == fib(8) == 21

    def test_pell_steps_weights(self):
        for k, t in ((2, Fraction(-1, 2)), (3, Fraction(-2, 5)), (4, Fraction(-5, 12))):
            d = entry("eq10", k=k).descriptor
            assert d.rhs.outer_ratio == t
            assert d.rhs.outer_coef == 1 / pell(k)

    def test_pell_steps_value(self):
        lhs, rhs = descriptor_eval(entry("eq10", k=2).descriptor, 1)
        expected = Fraction(1, 2) * (Fraction(-1, 2) * pell(2) + pell(3))
        assert lhs == rhs == expected == pell(2) == 2

    def test_pell_lucas_identity_sides(self):
        # display arrangement: (1/3)^{n+1} Q_{n+1} = 1 - (2/3) sum (1/3)^i P_{i-1}
        for n in range(8):
            display_lhs = Fraction(1, 3) ** (n + 1) * pell_lucas(n + 1)
            display_rhs = 1 - Fraction(2, 3) * sum(
                Fraction(1, 3) ** i * pell(i - 1) for i in range(n + 1)
            )
            assert display_lhs == display_rhs
        assert descriptor_eval(entry("eq11").descriptor, 0) == (Fraction(2, 3), Fraction(2, 3))

    def test_bronze_j3_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq12", j=3).descriptor, 1)
        expected = 10 * (3 * bronze(1) + bronze(4))
        assert lhs == rhs == expected == bronze(6) == 360

    def test_lucas_offset_weights(self):
        for k, t in ((1, Fraction(-2)), (2, Fraction(-1, 3)),
                     (3, Fraction(-3, 4)), (4, Fraction(-4, 7))):
            d = entry("eq19", k=k).descriptor
            assert d.rhs.outer_ratio == t
            assert d.rhs.outer_coef == 1 / luc(k)

    def test_jstep_fib_j2_at_two(self):
        lhs, rhs = descriptor_eval(entry("eq23", j=2).descriptor, 2)
        expected = 3 * fib(2) + 9 * fib(4)
        assert lhs == rhs == expected == 30

    def test_jstep_lucas_j2_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq33", j=2).descriptor, 1)
        expected = luc(0) + Fraction(3, 2) * luc(2)
        assert lhs == rhs == expected == Fraction(13, 2)

    def test_offset_lucas_j3_k1_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq45", j=3, k=1).descriptor, 1)
        expected = 2 * ((-3) * luc(1) + luc(4))
        assert lhs == rhs == expected == fib(6) == 8

    def test_offset_fib_j3_km2_at_one(self):
        lhs, rhs = descriptor_eval(entry("eq44", j=3, k=-2).descriptor, 1)
        expected = Fraction(2, -1) * (5 * fib(-2) + fib(1))
        assert lhs == rhs == expected == fib(6) == 8

    def test_dresden_tulskikh_j2_at_one(self):
        lhs, rhs = descriptor_eval(entry("eqDT", j=2).descriptor, 1)
        expected = fib(0) + Fraction(1, 3) * fib(2)
        assert lhs == rhs == expected == Fraction(1, 3)

    def test_pell_negative_offset_at_two(self):
        lhs, rhs = descriptor_eval(entry("eqPP").descriptor, 2)
        expected = sum(2 ** (2 - i) * pell(i - 1) for i in range(3))
        assert lhs == rhs == expected == pell(3) == 5

    def test_pell_companion_at_one(self):
        lhs, rhs = descriptor_eval(entry("eqPP2").descriptor, 1)
        assert lhs == rhs == pell(3) - 4 == 1

    def test_a015530_k3_at_one(self):
        lhs, rhs = descriptor_eval(entry("eqA", k=3).descriptor, 1)
        expected = Fraction(1, 19) * (Fraction(-12, 19) * a015530(3) + a015530(4))
        assert lhs == rhs == expected == a015530(2) == 4


class TestVerification:
    def test_every_entry_verifies_to_32(self):
        for e in all_entries():
            report = verify(e.descriptor, e.descriptor.n_min, 32)
            assert report.passed, f"{e.label}: {report.first_failure}"

    def test_jstep_fib_degenerates_cleanly_at_j1(self):
        assert verify(entry("eq23", j=1).descriptor, 0, 48).passed

    def test_lucas_offset_k0_included(self):
        # offset zero is valid for Lucas summands (L_0 = 2 != 0)
        assert verify(entry("eq45", j=1, k=0).descriptor, 0, 48).passed


class TestDerivations:
    """Polished catalog forms against raw generator output, by exact evaluation."""

    def test_eq3_is_scaled_lucas_offset_one(self):
        raw = rewrite_scale(theorem2_descriptor(LUCAS, 1), Fraction(1, 5), 1)
        assert evals_match(raw, entry("eq3").descriptor)

    def test_eq10_is_scaled_pell_generator(self):
        for k in (2, 3, 4):
            raw = rewrite_scale(theorem2_descriptor(PELL, k), -1, 1)
            assert evals_match(raw, entry("eq10", k=k).descriptor)

    def test_eq19_is_scaled_lucas_generator(self):
        for k in (1, 2, 3, 4):
            raw = rewrite_scale(theorem2_descriptor(LUCAS, k), Fraction(1, 5), 1)
            assert evals_match(raw, entry("eq19", k=k).descriptor)

    def test_eqA_is_scaled_a015530_generator(self):
        for k in (2, 3):
            raw = rewrite_scale(theorem2_descriptor(A015530, k), -1, 1)
            assert evals_match(raw, entry("eqA", k=k).descriptor)

    def test_eqPP_is_scaled_pell_negative_offset(self):
        raw = rewrite_scale(theorem2_descriptor(PELL, -1), -1, 1)
        assert evals_match(raw, entry("eqPP").descriptor)

    @pytest.mark.parametrize("j,k", [(2, 1), (3, -2), (4, 2), (5, 3), (6, -5)])
    def test_eq44_matches_normalized_generator(self, j, k):
        sub = subsequence_def(FIBONACCI, j, k)
        normalized = SequenceDef(sub.c1, sub.c2, 1, sub.x1 / sub.x0)
        sigma = term(FIBONACCI, k) ** 2 / (rat_pow(-1, k + 1) * term(FIBONACCI, j))
        raw = rewrite_scale(theorem1_descriptor(normalized), sigma, 1)
        assert evals_match(raw, entry("eq44", j=j, k=k).descriptor, 20)

    @pytest.mark.parametrize("j,k", [(1, 0), (2, 0), (3, 1), (4, -3), (6, 5)])
    def test_eq45_matches_normalized_generator(self, j, k):
        sub = subsequence_def(LUCAS, j, k)
        normalized = SequenceDef(sub.c1, sub.c2, 1, sub.x1 / sub.x0)
        sigma = term(LUCAS, k) ** 2 / (5 * rat_pow(-1, k) * term(FIBONACCI, j))
        raw = rewrite_scale(theorem1_descriptor(normalized), sigma, 1)
        assert evals_match(raw, entry("eq45", j=j, k=k).descriptor, 20)

    def test_edgar_at_minus_half_recovers_martinjak(self):
        scaled = rewrite_scale(entry("eq5", t=Fraction(-1, 2)).descriptor, -2, 1)
        assert evals_match(scaled, entry("eq2").descriptor)

    def test_geometric_rescaling_of_eq2_still_verifies(self):
        scaled = rewrite_scale(entry("eq2").descriptor, 1, -2)
        assert verify(scaled, 0, 32).passed

    def test_lzero_forms_match_eq8(self):
        assert evals_match(entry("lzero3").descriptor, entry("eq8", m=3).descriptor)
        assert evals_match(entry("lzero6").descriptor, entry("eq8", m=6).descriptor)

    def test_eq8_is_scaled_eq33(self):
        for m in (3, 6, 9):
            sign = rat_pow(-1, m)
            scaled = rewrite_scale(
                entry("eq33", j=m).descriptor, term(FIBONACCI, m) / 2, sign
            )
            assert evals_match(scaled, entry("eq8", m=m).descriptor)


def test_catalog_ids_cover_the_table():
    expected = {
        "eq1", "eq2", "eq3", "eq4", "eq5", "eq7", "eq8", "eq8b", "eq9",
        "eq10", "eq11", "eq12", "eq19", "eq23", "eq33", "lzero3", "lzero6",
        "eq44", "eq45", "eqDT", "eqPP", "eqPP2", "eqA",
    }
    assert set(catalog_ids()) == expected


def test_entry_type_shape():
    e = entry("eq8", m=3)
    assert isinstance(e, CatalogEntry)
    assert e.id == "eq8"
    assert e.params == {"m": 3}
    assert e.label == "eq8[m=3]"


def test_every_form_matches_the_golden():
    # one line per entry: label, to_latex and the sha256 of its compact JSON,
    # so any change to a built descriptor, however small, shows here
    lines = []
    for e in all_entries():
        d = e.descriptor
        digest = hashlib.sha256(to_json(d, indent=None).encode()).hexdigest()
        lines.append(f"{d.id}\t{to_latex(d)}\t{digest}\n")
    golden = (Path(__file__).parent / "golden" / "catalog_forms.txt").read_text()
    assert lines == golden.splitlines(keepends=True)
