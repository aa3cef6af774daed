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
    rewrite_scale,
    theorem1_descriptor,
    theorem2_descriptor,
)
from identity_forge.numeric import Mat2, companion, mat2_det, mat2_mul, mat2_pow, rat_pow
from identity_forge.sequences import (
    BRONZE,
    FIBONACCI,
    LUCAS,
    MAX_INDEX,
    PELL,
    PELL_LUCAS,
    SequenceDef,
    term,
)
from identity_forge.verifier import verify

from oracles import brute_term, fib, luc, pell


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
