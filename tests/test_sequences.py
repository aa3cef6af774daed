import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_forge.verifier import DEFAULT_POOL
from identity_forge.sequences import (
    A015530,
    BRONZE,
    FIBONACCI,
    LUCAS,
    MAX_INDEX,
    PELL,
    PELL_LUCAS,
    SequenceDef,
    generalized_u,
    generalized_v,
    generalized_v_def,
    named_def,
    subsequence_def,
    term,
    walk,
    window,
)

from oracles import (
    KNOWN_A015530,
    KNOWN_BRONZE,
    KNOWN_FIBONACCI,
    KNOWN_LUCAS,
    KNOWN_PELL,
    KNOWN_PELL_LUCAS,
    brute_term,
)

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3
)


def random_def(rng):
    pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    nonzero = [q for q in pool if q != 0]
    return SequenceDef(
        rng.choice(pool), rng.choice(nonzero), rng.choice(pool), rng.choice(pool)
    )


class TestTerm:
    def test_fibonacci_ten(self):
        assert term(FIBONACCI, 10) == 55

    def test_pell_backward_one(self):
        assert term(PELL, -1) == 1

    def test_fibonacci_backward_five(self):
        assert term(FIBONACCI, -5) == 5

    @pytest.mark.parametrize(
        "seq, known",
        [
            (FIBONACCI, KNOWN_FIBONACCI),
            (LUCAS, KNOWN_LUCAS),
            (PELL, KNOWN_PELL),
            (PELL_LUCAS, KNOWN_PELL_LUCAS),
            (BRONZE, KNOWN_BRONZE),
            (A015530, KNOWN_A015530),
        ],
    )
    def test_against_hand_typed_anchors(self, seq, known):
        assert [term(seq, n) for n in range(len(known))] == known

    def test_cache_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(25):
            seq = random_def(rng)
            for n in list(range(-8, 12)) + [20, -10]:
                assert term(seq, n) == brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n)
                assert window(seq, n) == (
                    brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n),
                    brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n + 1),
                )

    def test_integer_walk_matches_brute_force(self):
        # the int walk clears denominators by lcm scaling; every pool value as
        # c1 and as c2, fractions in all four fields, c1 = 0 (backward c1 is
        # then 0) and c2 with numerator not +-1 (1/c2 is then not an integer)
        half, third = Fraction(1, 2), Fraction(2, 3)
        seqs = [SequenceDef(c1, Fraction(-3, 2), half, -third) for c1 in DEFAULT_POOL]
        seqs += [SequenceDef(third, c2, Fraction(3, 2), Fraction(1, 3))
                 for c2 in DEFAULT_POOL if c2 != 0]
        seqs += [
            SequenceDef(Fraction(-1, 2), third, Fraction(5, 7), Fraction(-4, 9)),
            SequenceDef(0, third, half, -3),
            SequenceDef(0, Fraction(-3, 2), 1, Fraction(1, 5)),
        ]
        for seq in seqs:
            x = {n: brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n) for n in range(-60, 62)}
            for n in range(-60, 61):
                assert window(seq, n) == (x[n], x[n + 1]), (seq, n)

    @pytest.mark.parametrize("seq", [A015530, SequenceDef(Fraction(1, 2), Fraction(-1, 3), 1, 2)])
    @pytest.mark.parametrize("n", [3000, -3000])
    def test_integer_walk_far_index(self, seq, n):
        assert window(seq, n) == (
            brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n),
            brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n + 1),
        )

    def test_walk_skip_is_capped(self):
        one, zero = Fraction(1), Fraction(0)
        assert next(walk(one, zero, one, one, MAX_INDEX)) == 1
        with pytest.raises(ValueError, match="beyond the limit"):
            next(walk(one, zero, one, one, MAX_INDEX + 1))

    def test_concurrent_calls_share_no_state(self):
        # threads evaluating one fresh definition must not see each other's work
        seq = SequenceDef(Fraction(1, 2), Fraction(-1, 3), 1, 2)
        expected = brute_term(Fraction(1, 2), Fraction(-1, 3), 1, 2, 3000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(term, seq, 3000) for _ in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4

    def test_backward_forward_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            seq = random_def(rng)
            m = rng.randint(1, 10)
            lo, hi = term(seq, -m), term(seq, -m + 1)
            for _ in range(m):
                lo, hi = hi, seq.c1 * hi + seq.c2 * lo
            assert (lo, hi) == (seq.x0, seq.x1)

    def test_fibonacci_sign_law(self):
        for n in range(51):
            assert term(FIBONACCI, -n) == (-1) ** (n + 1) * term(FIBONACCI, n)

    def test_lucas_sign_law(self):
        for n in range(51):
            assert term(LUCAS, -n) == (-1) ** n * term(LUCAS, n)

    def test_fibonacci_doubling(self):
        for j in range(41):
            assert term(FIBONACCI, 2 * j) == term(FIBONACCI, j) * term(LUCAS, j)

    def test_huge_index_has_no_overflow(self):
        value = term(FIBONACCI, 585)
        assert value.denominator == 1
        assert len(str(value.numerator)) > 120


class TestDefinitions:
    def test_c2_zero_rejected(self):
        with pytest.raises(ValueError, match="c2 must be nonzero"):
            SequenceDef(1, 0, 0, 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            SequenceDef(1.0, 1, 0, 1)

    def test_named_families(self):
        assert named_def("fibonacci") is FIBONACCI
        assert named_def("Pell-Lucas") is PELL_LUCAS
        assert named_def("a015530") is A015530

    def test_generalized_lookup(self):
        u = named_def("generalized_u", a=1, b=1)
        assert (u.c1, u.c2, u.x0, u.x1) == (1, 1, 0, 1)
        v = named_def("generalized_v", a=3, b=1)
        assert (v.c1, v.c2, v.x0, v.x1) == (3, 1, 2, 3)

    def test_generalized_requires_parameters(self):
        with pytest.raises(ValueError, match="requires parameters"):
            named_def("generalized_u")

    def test_generalized_b_zero_invalid(self):
        with pytest.raises(ValueError, match="c2 must be nonzero"):
            generalized_u(2, 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown sequence family"):
            named_def("tribonacci")

    def test_bronze_first_terms(self):
        assert [term(BRONZE, n) for n in range(6)] == [0, 1, 3, 10, 33, 109]

    def test_pell_lucas_first_terms(self):
        assert [term(PELL_LUCAS, n) for n in range(5)] == [1, 1, 3, 7, 17]

    def test_generalized_u_matches_fibonacci(self):
        u = generalized_u(1, 1)
        assert [term(u, n) for n in range(12)] == [term(FIBONACCI, n) for n in range(12)]

    def test_v_def_matches_lucas(self):
        v = generalized_v_def(1, 1)
        assert [term(v, n) for n in range(12)] == [term(LUCAS, n) for n in range(12)]


class TestGeneralizedV:
    def test_lucas_value(self):
        assert generalized_v(1, 1, 3) == 4

    def test_bronze_doubling_coefficient(self):
        assert generalized_v(3, 1, 2) == 11

    def test_initial_value(self):
        assert generalized_v(Fraction(5, 2), Fraction(-1, 3), 0) == 2

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            generalized_v(1, 1, -1)


class TestSubsequence:
    def test_fibonacci_three_step(self):
        sub = subsequence_def(FIBONACCI, 3, 0)
        assert (sub.c1, sub.c2, sub.x0, sub.x1) == (4, 1, 0, 2)

    def test_bronze_two_step_offset_one(self):
        sub = subsequence_def(BRONZE, 2, 1)
        assert (sub.c1, sub.c2, sub.x0, sub.x1) == (11, -1, 1, 10)

    def test_unit_step_is_same_sequence(self):
        sub = subsequence_def(PELL, 1, 0)
        assert (sub.c1, sub.c2, sub.x0, sub.x1) == (PELL.c1, PELL.c2, PELL.x0, PELL.x1)

    def test_j_zero_rejected(self):
        with pytest.raises(ValueError):
            subsequence_def(FIBONACCI, 0, 0)

    def test_subsequence_matches_strided_terms_seeded(self):
        rng = random.Random(23)
        for _ in range(30):
            seq = random_def(rng)
            j = rng.randint(1, 6)
            k = rng.randint(-4, 4)
            sub = subsequence_def(seq, j, k)
            for n in range(-5, 13):
                assert term(sub, n) == term(seq, j * n + k)

    @settings(max_examples=60, deadline=None)
    @given(
        small_rationals,
        small_rationals.filter(lambda q: q != 0),
        small_rationals,
        small_rationals,
        st.integers(1, 6),
        st.integers(-4, 4),
        st.integers(-5, 12),
    )
    def test_subsequence_property(self, c1, c2, x0, x1, j, k, n):
        seq = SequenceDef(c1, c2, x0, x1)
        sub = subsequence_def(seq, j, k)
        assert term(sub, n) == term(seq, j * n + k)
