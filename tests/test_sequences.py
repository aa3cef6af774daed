import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

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
    int_walk,
    int_window,
    named_def,
    stride_recurrence,
    subsequence_def,
    term,
    window,
)

from oracles import (
    KNOWN_A015530,
    KNOWN_BRONZE,
    KNOWN_FIBONACCI,
    KNOWN_LUCAS,
    KNOWN_PELL,
    KNOWN_PELL_LUCAS,
    backward_window,
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
        # then 0), c2 with numerator not +-1 (1/c2 is then not an integer), and
        # den(c2) a perfect square (D takes its root; 9/2 walks backward with
        # c2 = 2/9) or not (1/8 needs more than sqrt(8) rounded down)
        half, third = Fraction(1, 2), Fraction(2, 3)
        seqs = [SequenceDef(c1, Fraction(-3, 2), half, -third) for c1 in DEFAULT_POOL]
        seqs += [SequenceDef(third, c2, Fraction(3, 2), Fraction(1, 3))
                 for c2 in DEFAULT_POOL if c2 != 0]
        seqs += [
            SequenceDef(Fraction(-1, 2), third, Fraction(5, 7), Fraction(-4, 9)),
            SequenceDef(0, third, half, -3),
            SequenceDef(0, Fraction(-3, 2), 1, Fraction(1, 5)),
        ]
        seqs += [SequenceDef(third, c2, half, -third) for c2 in (
            Fraction(1, 4), Fraction(-9, 4), Fraction(4, 9), Fraction(9, 2),
            Fraction(1, 8), Fraction(1, 12), Fraction(1, 18),
        )]
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

    def test_int_walk_matches_a_plain_int_loop(self):
        # the kernel on its own: a = 0, b = 0, negative steps and seeds, and
        # seeded random ints of either sign, from skips of 0, 1, 2 and 50
        rng = random.Random(23)
        steps = [(0, 0), (0, -3), (5, 0), (-2, -7)]
        steps += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(20)]
        for a, b in steps:
            lo, hi = rng.randint(-99, 99), rng.randint(-99, 99)
            values = [lo, hi]
            while len(values) < 60:
                values.append(a * values[-1] + b * values[-2])
            for m in (0, 1, 2, 50):
                assert list(islice(int_walk(a, b, lo, hi, m), 8)) == values[m:m + 8], (a, b, lo, hi, m)

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


class TestIntWindow:
    """int_window at n < 0 against the Fraction-built reference."""

    def test_backward_ints_match_the_fraction_reference(self):
        rng = random.Random(41)
        # the pool's c2, negative ones among them, then square and non-square
        # denominators and numerators past it (den(1/c2) = |num(c2)|)
        c2s = [q for q in DEFAULT_POOL if q != 0]
        c2s += [Fraction(1, 4), Fraction(-9, 4), Fraction(4, 9), Fraction(-4), Fraction(-5, 8)]
        for c2 in c2s:
            for _ in range(3):
                seq = SequenceDef(rng.choice(DEFAULT_POOL), c2, rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL))
                for n in range(-40, 0):
                    assert int_window(seq, n) == backward_window(seq, n), (seq, n)

    def test_limit_at_the_backward_boundary(self):
        ones = SequenceDef(0, 1, 1, 1)  # X_n = 1 at every n, so the far walk stays small
        assert int_window(ones, -MAX_INDEX - 1) == (1, 1, 1, 1)
        refusal = f"^a walk of {MAX_INDEX + 1} steps is beyond the limit of {MAX_INDEX}$"
        with pytest.raises(ValueError, match=refusal):
            int_window(ones, -MAX_INDEX - 2)

    def test_limit_at_the_forward_boundary(self):
        ones = SequenceDef(0, 1, 1, 1)
        assert int_window(ones, MAX_INDEX) == (1, 1, 1, 1)
        refusal = f"^a walk of {MAX_INDEX + 1} steps is beyond the limit of {MAX_INDEX}$"
        with pytest.raises(ValueError, match=refusal):
            int_window(ones, MAX_INDEX + 1)


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

    def test_c2_zero_rejected(self):
        with pytest.raises(ValueError, match="c2 must be nonzero"):
            generalized_v(1, 0, 2)


class TestStrideRecurrence:
    @pytest.mark.parametrize("seq", [
        None,
        FIBONACCI,
        A015530,
        SequenceDef(0, Fraction(-3, 2), 1, Fraction(1, 5)),  # c1 = 0
        SequenceDef(Fraction(2, 3), Fraction(1, 4), Fraction(1, 2), Fraction(-2, 3)),  # den(c2) = 2^2
        SequenceDef(Fraction(2, 3), Fraction(1, 12), Fraction(1, 2), Fraction(-2, 3)),
    ])
    @pytest.mark.parametrize("j", [0, 1, 2, 3, 7])
    def test_ints_walk_the_element(self, seq, j):
        # Y_n = X_{j*n+k} from (y0, y1) by (a, b), X = 1 with no sequence;
        # (a, b) are in lowest terms, as the class keys of recurrences need
        def x(n):
            return 1 if seq is None else brute_term(seq.c1, seq.c2, seq.x0, seq.x1, n)

        for k in range(-6, 7):
            pairs = stride_recurrence(seq, j, k)
            a, b, y0, y1 = (Fraction(*pair) for pair in pairs)
            assert [a.as_integer_ratio(), b.as_integer_ratio()] == list(pairs[:2])
            assert (y0, y1) == (x(k), x(j + k))
            assert a * y1 + b * y0 == x(2 * j + k)
            assert a * x(2 * j + k) + b * y1 == x(3 * j + k)


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

    def test_labels(self):
        assert subsequence_def(FIBONACCI, 3, 0).label == "Fibonacci[3n+0]"
        assert subsequence_def(BRONZE, 1, -2).label == "bronze[1n-2]"
        assert subsequence_def(SequenceDef(1, 2, 0, 1), 2, 5).label == "X[2n+5]"

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
