import random
from fractions import Fraction

import pytest

from identity_forge.engine import (
    DegenerateRatioError,
    GeometricTerm,
    IdentityDescriptor,
    OffsetInvalidError,
    SumSide,
    Summand,
    cassini_general,
    classical_eval,
    descriptor_eval,
    docagne_general,
    pair_sum,
    rewrite_scale,
    theorem1_descriptor,
    theorem2_descriptor,
)
from identity_forge.numeric import Mat2, companion, mat2_det, mat2_mul, mat2_pow, rat_pow
from identity_forge.sequences import (
    A015530,
    BRONZE,
    FIBONACCI,
    LUCAS,
    MAX_INDEX,
    PELL,
    PELL_LUCAS,
    SequenceDef,
    stride_recurrence,
    term,
)
from identity_forge.verifier import DEFAULT_POOL, verify

from oracles import brute_sides, brute_term, fib, luc, pell


def random_def(rng, force_x0_one=False):
    pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    nonzero = [q for q in pool if q != 0]
    return SequenceDef(
        rng.choice(pool),
        rng.choice(nonzero),
        Fraction(1) if force_x0_one else rng.choice(pool),
        rng.choice(pool),
    )


class TestTheorem1:
    def test_half_lucas_example(self):
        a = SequenceDef(1, 1, 1, Fraction(1, 2), label="L/2")
        d = theorem1_descriptor(a)
        assert d.rhs.outer_ratio == Fraction(1, 2)
        lhs, rhs = descriptor_eval(d, 1)
        assert lhs == rhs == Fraction(5, 4)

    def test_shifted_fibonacci_is_degenerate(self):
        # c1 equals x1, so the weight collapses to zero
        with pytest.raises(DegenerateRatioError):
            theorem1_descriptor(SequenceDef(1, 1, 1, 1))

    def test_pell_lucas_base_case(self):
        d = theorem1_descriptor(SequenceDef(2, 1, 1, 1, label="Q"))
        lhs, rhs = descriptor_eval(d, 0)
        assert lhs == rhs == 2

    def test_requires_normalized_first_term(self):
        with pytest.raises(ValueError, match="x0 must equal 1"):
            theorem1_descriptor(SequenceDef(1, 1, 2, 1))

    def test_soundness_sweep(self):
        rng = random.Random(101)
        produced = 0
        attempts = 0
        while produced < 500 and attempts < 5000:
            attempts += 1
            a = random_def(rng, force_x0_one=True)
            try:
                d = theorem1_descriptor(a)
            except DegenerateRatioError:
                continue
            produced += 1
            assert verify(d, 0, 32).passed
        assert produced == 500


class TestTheorem2:
    def test_lucas_offset_one(self):
        d = theorem2_descriptor(LUCAS, 1)
        assert d.rhs.outer_ratio == -2
        assert d.rhs.outer_coef == 5
        assert d.rhs.summands == (Summand(1, LUCAS, 1, 1),)
        # LHS is 2*L_{n+2} - L_{n+1}
        lhs, rhs = descriptor_eval(d, 3)
        assert lhs == rhs == 2 * luc(5) - luc(4)

    def test_lucas_offset_two(self):
        d = theorem2_descriptor(LUCAS, 2)
        assert d.rhs.outer_ratio == Fraction(-1, 3)
        assert d.rhs.outer_coef == Fraction(5, 3)
        lhs, rhs = descriptor_eval(d, 1)
        assert lhs == rhs == 5 * fib(2)

    def test_fibonacci_offset_two(self):
        d = theorem2_descriptor(FIBONACCI, 2)
        assert d.rhs.outer_ratio == -1
        assert d.rhs.outer_coef == -1
        lhs, rhs = descriptor_eval(d, 1)
        assert lhs == rhs == -fib(2)

    def test_fibonacci_offset_one_invalid(self):
        with pytest.raises(OffsetInvalidError, match="X_\\(k-1\\) = 0"):
            theorem2_descriptor(FIBONACCI, 1)

    def test_fibonacci_offset_zero_invalid(self):
        with pytest.raises(OffsetInvalidError, match="X_k = 0"):
            theorem2_descriptor(FIBONACCI, 0)

    def test_soundness_sweep_every_offset(self):
        rng = random.Random(202)
        instances = 0
        defs = 0
        while instances < 500 and defs < 400:
            defs += 1
            x = random_def(rng)
            for k in range(-4, 6):
                try:
                    d = theorem2_descriptor(x, k)
                except OffsetInvalidError:
                    continue
                instances += 1
                assert verify(d, 0, 32).passed
        assert instances >= 500

    @pytest.mark.parametrize("k", [14003, -14003])
    def test_far_weight_and_outer_coefficient(self, k):
        # t = -c2*X_{k-1}/X_k and (X_0*X_2 - X_1^2)/X_k from brute_term; a
        # backward brute walk reduces a 3^m denominator at every step (about
        # 8 s per value on a 2-vCPU VM), so X_{-m} comes from the forward X_m by
        # X_{-m} = -(-3)^(-m) * X_m, which holds for A015530 = U(4, 3) and is
        # checked against the backward walk at a few m up to 300 first
        x = A015530

        def x_at(j):
            if j >= 0:
                return brute_term(x.c1, x.c2, x.x0, x.x1, j)
            return -Fraction(-3) ** j * brute_term(x.c1, x.c2, x.x0, x.x1, -j)

        assert all(x_at(-m) == brute_term(x.c1, x.c2, x.x0, x.x1, -m) for m in (1, 2, 3, 299, 300))
        xk1, xk, x2 = x_at(k - 1), x_at(k), x_at(2)
        rhs = theorem2_descriptor(x, k).rhs
        assert rhs.outer_ratio == -x.c2 * xk1 / xk
        assert rhs.beta == 1 / rhs.outer_ratio
        assert rhs.outer_coef == (x.x0 * x2 - x.x1 * x.x1) / xk


class TestPairSum:
    def test_sury_identity(self):
        # 0*F_{n+2} - F_{n+1} = -(1/2) * sum (1/2)^(n-i) L_i, i.e. sum 2^i L_i = 2^(n+1) F_{n+1}
        lhs, rhs = pair_sum(FIBONACCI, LUCAS, 1, 0)
        assert lhs == (GeometricTerm(0, 1, FIBONACCI, 1, 2), GeometricTerm(-1, 1, FIBONACCI, 1, 1))
        assert rhs == SumSide(Fraction(-1, 2), Fraction(1, 2), 2, (Summand(1, LUCAS, 1, 0),))

    def test_random_pairs_hold_exactly_when_built(self):
        # X_0 != 0 at j >= 2 reaches the X_{2j} term, which neither theorem2
        # (j = 1) nor the catalog (X_0 = 0) uses
        rng = random.Random(7)
        nonzero = [q for q in DEFAULT_POOL if q != 0]
        built = skipped = far_x2j = 0
        for _ in range(2000):
            c1, c2 = rng.choice(DEFAULT_POOL), rng.choice(nonzero)
            x = SequenceDef(c1, c2, rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL))
            y = SequenceDef(c1, c2, rng.choice(DEFAULT_POOL), rng.choice(DEFAULT_POOL))
            j, k = rng.randint(1, 4), rng.randint(-4, 5)
            y_k, y_kj = (brute_term(c1, c2, y.x0, y.x1, m) for m in (k, k - j))
            if y_k == 0 or y_kj == 0:
                with pytest.raises(OffsetInvalidError):
                    pair_sum(x, y, j, k)
                skipped += 1
                continue
            d = IdentityDescriptor("pair", *pair_sum(x, y, j, k))
            # the closed form's t^n remainder vanishes: t = a - v_1/v_0 for v_i = Y_{ji+k}
            (an, ad), _, (u, p), (v, q) = stride_recurrence(y, j, k)
            assert d.rhs.outer_ratio == Fraction(an * q * u - ad * v * p, ad * q * u), (x, y, j, k)
            assert verify(d, 0, 32).passed, (x, y, j, k)
            lhs, rhs = brute_sides(d, 3)
            assert lhs == rhs, (x, y, j, k)
            built += 1
            far_x2j += j >= 2 and x.x0 != 0
        assert (built, skipped, far_x2j) == (1892, 108, 1275)

    def test_refusal_names_the_zero_term(self):
        with pytest.raises(OffsetInvalidError, match=r"^X_k = 0 at k=0: offset"):
            pair_sum(LUCAS, FIBONACCI, 2, 0)
        with pytest.raises(OffsetInvalidError, match=r"^X_\(k-2\) = 0 at k=2: offset"):
            pair_sum(LUCAS, FIBONACCI, 2, 2)

    def test_rejects_mixed_recurrences_and_stride_zero(self):
        with pytest.raises(ValueError, match="one recurrence"):
            pair_sum(FIBONACCI, PELL, 1, 1)
        with pytest.raises(ValueError, match="j must be >= 1"):
            pair_sum(FIBONACCI, LUCAS, 0, 1)


class TestProductIdentities:
    def test_docagne_fibonacci_example(self):
        assert docagne_general(FIBONACCI, 2, 1) == (-1, -1)

    def test_docagne_collapses_at_k_zero(self):
        for x in (FIBONACCI, LUCAS, PELL, BRONZE):
            lhs, rhs = docagne_general(x, 0, 0)
            expected = term(x, 2) * x.x0 - term(x, 1) * x.x1
            assert lhs == rhs == expected

    def test_docagne_pell_negative_offset(self):
        lhs, rhs = docagne_general(PELL, -1, 2)
        expected = brute_term(2, 1, 0, 1, 3) * brute_term(2, 1, 0, 1, -1) \
            - brute_term(2, 1, 0, 1, 0) * brute_term(2, 1, 0, 1, 2)
        assert lhs == rhs == expected

    def test_cassini_fibonacci_example(self):
        assert cassini_general(FIBONACCI, 3) == (1, 1)

    def test_cassini_at_k_zero(self):
        lhs, rhs = cassini_general(PELL_LUCAS, 0)
        assert lhs == rhs

    def test_cassini_bronze_negative(self):
        lhs, rhs = cassini_general(BRONZE, -2)
        assert lhs == rhs

    def test_matrix_transport_equation(self):
        # the k-th companion power carries the (n+2, n+1) window to (n+k+2, n+k+1)
        rng = random.Random(303)
        for _ in range(30):
            x = random_def(rng)
            c = companion(x.c1, x.c2)
            for k in range(-6, 7):
                n = rng.randint(0, 6)
                lifted = mat2_mul(
                    mat2_pow(c, k),
                    Mat2(term(x, n + 2), x.x1, term(x, n + 1), x.x0),
                )
                assert lifted == Mat2(
                    term(x, n + k + 2),
                    term(x, k + 1),
                    term(x, n + k + 1),
                    term(x, k),
                )

    def test_docagne_matches_matrix_determinant_oracle(self):
        rng = random.Random(404)
        for _ in range(40):
            x = random_def(rng)
            c = companion(x.c1, x.c2)
            for k in range(-8, 9):
                n = rng.randint(0, 8)
                lhs, _ = docagne_general(x, k, n)
                oracle = mat2_det(mat2_pow(c, k)) * (
                    term(x, n + 2) * x.x0 - term(x, n + 1) * x.x1
                )
                assert lhs == oracle

    def test_cassini_is_docagne_at_n_zero(self):
        rng = random.Random(505)
        for _ in range(40):
            x = random_def(rng)
            for k in range(-8, 9):
                assert cassini_general(x, k) == docagne_general(x, k, 0)


class TestClassical:
    def test_ruggles_example(self):
        assert classical_eval("ruggles", 5, 3) == (21, 21)

    def test_lucas_lucas_example(self):
        assert classical_eval("lucas_lucas", 4, 3, 2) == (-10, -10)

    def test_catalan_degenerate_shift(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                lhs, rhs = classical_eval("catalan_fib", a, b, 0)
                assert lhs == rhs == 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown classical identity"):
            classical_eval("vajda", 1, 2, 3)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="takes 2 integer arguments"):
            classical_eval("ruggles", 1, 2, 3)

    @pytest.mark.parametrize("name", ["ruggles", "lucas_add"])
    def test_two_argument_grid(self, name):
        for a in range(-6, 11):
            for b in range(-6, 11):
                lhs, rhs = classical_eval(name, a, b)
                assert lhs == rhs

    @pytest.mark.parametrize("name", ["catalan_fib", "lucas_fib_mixed", "lucas_lucas"])
    def test_three_argument_spot_grid(self, name):
        for a in range(-6, 11, 2):
            for b in range(-5, 11, 2):
                for c in range(-6, 11, 3):
                    lhs, rhs = classical_eval(name, a, b, c)
                    assert lhs == rhs

    def test_koshy55_grid(self):
        for j in range(1, 9):
            for n in range(0, 9):
                lhs, rhs = classical_eval("koshy55", j, n)
                assert lhs == rhs


class TestRewriteScale:
    def _sample(self):
        return theorem2_descriptor(LUCAS, 2)

    def test_zero_factors_rejected(self):
        d = self._sample()
        with pytest.raises(ValueError):
            rewrite_scale(d, 0, 1)
        with pytest.raises(ValueError):
            rewrite_scale(d, 1, 0)

    def test_identity_scale_evaluates_identically(self):
        d = self._sample()
        scaled = rewrite_scale(d, 1, 1)
        for n in range(0, 12):
            assert descriptor_eval(scaled, n) == descriptor_eval(d, n)

    def test_truth_preservation(self):
        rng = random.Random(606)
        pool = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2)]
        nonzero = [q for q in pool if q != 0]
        d = self._sample()
        assert verify(d, 0, 24).passed
        for _ in range(20):
            sigma, lam = rng.choice(nonzero), rng.choice(nonzero)
            assert verify(rewrite_scale(d, sigma, lam), 0, 24).passed

    def test_scaling_multiplies_values(self):
        d = self._sample()
        sigma, lam = Fraction(-3, 2), Fraction(2)
        scaled = rewrite_scale(d, sigma, lam)
        for n in range(6):
            lhs, rhs = descriptor_eval(d, n)
            factor = sigma * rat_pow(lam, n)
            assert descriptor_eval(scaled, n) == (lhs * factor, rhs * factor)


class TestDescriptorEval:
    def test_below_n_min_rejected(self):
        d = IdentityDescriptor(
            id="shifted",
            lhs=(GeometricTerm(1, 1, FIBONACCI, 1, 0),),
            rhs=SumSide(1, 1, 1, (Summand(1, FIBONACCI, 1, 0),)),
            n_min=2,
        )
        with pytest.raises(ValueError, match="below the descriptor's n_min"):
            descriptor_eval(d, 1)

    def test_past_max_index_rejected(self):
        # the sum side steps n from 0, so a far n must fail before any step
        d = IdentityDescriptor(
            "far", (GeometricTerm(1, 2),), SumSide(1, 1, 2, (Summand(1, FIBONACCI, 0, 1),))
        )
        with pytest.raises(ValueError, match="beyond the limit"):
            descriptor_eval(d, MAX_INDEX + 1)

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            GeometricTerm(1, 1, FIBONACCI, -1, 0)
        with pytest.raises(ValueError, match="stride"):
            Summand(1, FIBONACCI, -2, 0)

    def test_constant_term_value(self):
        t = GeometricTerm(Fraction(3, 2), -2)
        d = IdentityDescriptor("constant", (t,), SumSide(0, 0, 0, ()))
        assert descriptor_eval(d, 3)[0] == Fraction(3, 2) * (-8)
