import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identity_forge.catalog import all_entries, entry
from identity_forge.engine import descriptor_eval, recurrences, theorem1_descriptor, theorem2_descriptor
from identity_forge.engine import GeometricTerm, IdentityDescriptor, Summand, SumSide, rewrite_scale
from identity_forge.engine import DegenerateRatioError, OffsetInvalidError
from identity_forge import engine, verifier
from identity_forge.numeric import format_rational
from identity_forge.sequences import A015530, FIBONACCI, LUCAS, MAX_INDEX, SequenceDef, int_walk, term
from identity_forge.verifier import (
    DEFAULT_POOL,
    MAX_TOTAL_REACH,
    FuzzConfig,
    VerificationReport,
    fuzz_theorem1,
    fuzz_theorem2,
    report_line,
    theorem1_instances,
    theorem2_instances,
    verify,
    verify_catalog,
)

from oracles import brute_class_sides, brute_first_failure, brute_sides, swept_first_failure


RATIONAL = SequenceDef(Fraction(1, 2), Fraction(-1, 3), 1, 2)
ZERO_RATIO = IdentityDescriptor(
    "zero-ratio",
    lhs=(GeometricTerm(6, 0),),
    rhs=SumSide(3, 0, Fraction(5, 2), (Summand(2, FIBONACCI, 2, 1),)),
)
# not an identity: stride-0 terms with a sequence, a geometric term of ratio
# -3/2 (a (r, 0) walk whose denominators need D > 1), and a stride-0 summand
MIXED = IdentityDescriptor(
    "mixed",
    lhs=(
        GeometricTerm(Fraction(2, 5), Fraction(-3, 2)),
        GeometricTerm(-3, Fraction(1, 3), RATIONAL, 0, -4),
        GeometricTerm(1, 2, FIBONACCI, 3, -2),
    ),
    rhs=SumSide(
        Fraction(1, 7), Fraction(-3, 2), Fraction(2, 3),
        (Summand(5, RATIONAL, 0, 3), Summand(-1, FIBONACCI, 2, 1)),
    ),
)


def corrupt_lhs_coefficient(descriptor, value):
    first = replace(descriptor.lhs[0], coef=Fraction(value))
    return replace(descriptor, lhs=(first,) + descriptor.lhs[1:])


class TestVerify:
    def test_sury_full_sweep(self):
        assert verify(entry("eq1").descriptor, 0, 64).passed

    def test_corrupted_sury_fails_at_zero(self):
        broken = corrupt_lhs_coefficient(entry("eq1").descriptor, 3)
        report = verify(broken, 0, 8)
        assert report.status == "fail"
        assert report.first_failure == (0, Fraction(3), Fraction(2))

    def test_single_point_range(self):
        report = verify(entry("eq11").descriptor, 0, 0)
        assert report.passed
        assert (report.n_lo, report.n_hi) == (0, 0)

    def test_bad_range_rejected(self):
        d = entry("eq1").descriptor
        with pytest.raises(ValueError, match="bad range"):
            verify(d, 5, 3)

    def test_range_below_n_min_rejected(self):
        d = replace(entry("eq1").descriptor, n_min=2)
        with pytest.raises(ValueError, match="bad range"):
            verify(d, 0, 8)

    def test_incremental_sum_matches_pointwise_eval(self):
        # both sides at every n from n_min must agree with an independent
        # brute-force evaluation (strides > 1, ratios != 1, a negative offset
        # and a pure geometric term among the cases); a corrupted descriptor
        # pins the witness values to the brute-force ones
        cases = (
            entry("eq8", m=3),
            entry("eq23", j=3),
            entry("eq4"),
            entry("eqDT", j=2),
            entry("eq44", j=3, k=-2),
            entry("eq11"),
        )
        for e in cases:
            d = e.descriptor
            assert verify(d, d.n_min, 24).passed
            for n in range(d.n_min, 25):
                assert descriptor_eval(d, n) == brute_sides(d, n), (e.label, n)
        broken = corrupt_lhs_coefficient(entry("eq4").descriptor, 5)
        report = verify(broken, 0, 16)
        n, lhs, rhs = report.first_failure
        assert (lhs, rhs) == brute_sides(broken, n)

    def test_horner_sum_side_matches_pointwise_eval(self):
        # the sum side is carried as R_n = r*R_{n-1} + c*g^n*u_n, g = r*beta
        # walked inside each summand: r != 1 with g != 1, g = -1/2 (eq2), 1/2
        # (eq8b), 3/2 (eq33) and -2/3, r = 0, and far offsets where r = t and
        # beta = 1/t are huge and g = 1
        identities = (
            (rewrite_scale(entry("eq4").descriptor, 3, Fraction(2, 3)), (0, 1, 5, 9)),
            (ZERO_RATIO, (0, 1, 2, 7)),
            (theorem2_descriptor(A015530, 2000), (0, 1, 4)),
            (theorem2_descriptor(RATIONAL, -1500), (0, 1, 4)),
            (entry("eq2").descriptor, (0, 1, 5, 9)),
            (entry("eq8b", j=3).descriptor, (0, 1, 5, 9)),
            (entry("eq33", j=2).descriptor, (0, 1, 5, 9)),
            (rewrite_scale(entry("eq8b", j=3).descriptor, 1, Fraction(-4, 3)), (0, 1, 5, 9)),
        )
        for d, _ in identities:
            assert verify(d, 0, 32).passed, d.id
        for d, ns in identities + ((MIXED, (0, 1, 2, 9)),):
            for n in ns:
                assert descriptor_eval(d, n) == brute_sides(d, n), (d.id, n)
            for n_lo in (5, 17):
                # Delta carried n_lo steps and each LHS walk skipped n_lo steps, and one more
                for n in (n_lo, n_lo + 1):
                    assert descriptor_eval(d, n) == brute_sides(d, n), (d.id, n)
        far = theorem2_descriptor(A015530, 2000)
        broken = replace(far, rhs=replace(far.rhs, outer_coef=far.rhs.outer_coef + 1))
        report = verify(broken, 0, 32)
        assert report.first_failure == (0, *brute_sides(broken, 0))

    @pytest.mark.parametrize("n_lo", [0, 5, 17])
    def test_sides_of_failing_descriptors(self, n_lo):
        # every mutant's sides differ at n = 0, so a nonzero difference is
        # carried up to n_lo and on past it
        for d in (entry("eq2").descriptor, entry("eq10", k=2).descriptor, ZERO_RATIO, MIXED):
            for m in coefficient_mutants(d):
                for n in range(n_lo, n_lo + 3):
                    assert descriptor_eval(m, n) == brute_sides(m, n), (m.id, n)

    def test_descriptor_with_no_terms(self):
        # no classes, so no residual walk: both sides are 0 at every n
        d = IdentityDescriptor("empty", (), SumSide(1, 1, 1, ()))
        assert [descriptor_eval(d, n) for n in (2, 3, 4)] == [(0, 0)] * 3
        assert verify(d, 0, 5).passed and verify(d, 3, 5).passed

    def test_nonzero_start_matches_full_sweep(self):
        d = entry("eq12", j=2).descriptor
        assert verify(d, 5, 20).passed


def coefficient_mutants(d):
    """d with one coefficient raised by 1: each LHS coef, outer_coef, each summand coef."""
    for i, t in enumerate(d.lhs):
        yield replace(d, lhs=d.lhs[:i] + (replace(t, coef=t.coef + 1),) + d.lhs[i + 1:])
    yield replace(d, rhs=replace(d.rhs, outer_coef=d.rhs.outer_coef + 1))
    summands = d.rhs.summands
    for i, s in enumerate(summands):
        changed = summands[:i] + (replace(s, coef=s.coef + 1),) + summands[i + 1:]
        yield replace(d, rhs=replace(d.rhs, summands=changed))


def eq4_ones():
    """eq4 with its F_{i+1} summand swapped for the constant sequence 1, which
    equals F_{i+1} only at i = 0, 1: the sides first differ at n = 2."""
    d = entry("eq4").descriptor
    lucas, fib = d.rhs.summands
    assert (lucas.seq, fib.seq, fib.offset) == (LUCAS, FIBONACCI, 1)
    ones = Summand(1, SequenceDef(2, -1, 1, 1), 1, 0)
    return replace(d, rhs=replace(d.rhs, summands=(lucas, ones)))


def assert_matches_reference(d, n_lo, n_hi):
    report = verify(d, n_lo, n_hi)
    expected = brute_first_failure(d, n_lo, n_hi)
    assert report.first_failure == expected, (d.id, n_lo)
    assert report.status == ("pass" if expected is None else "fail"), (d.id, n_lo)
    return report


def geometric_ones():
    """sum_{i<=n} 2^i = 2^{n+1} - 1 in three recurrence classes, padded with
    two LHS Fibonacci terms that cancel exactly: the classes of 2^{n+1} and of
    -1 are the LHS's alone, that of the summand 2^i * 1 the sum side's alone."""
    ones = SequenceDef(2, -1, 1, 1)
    return IdentityDescriptor(
        "geometric-ones",
        lhs=(
            GeometricTerm(3, 1, FIBONACCI, 1, 2),
            GeometricTerm(2, 2),
            GeometricTerm(-1, 1),
            GeometricTerm(-3, 1, FIBONACCI, 1, 2),
        ),
        rhs=SumSide(1, 1, 2, (Summand(1, ones, 1, 0),)),
    )


def horner_inputs():
    far = theorem2_descriptor(A015530, 2000)
    return (
        rewrite_scale(entry("eq4").descriptor, 3, Fraction(2, 3)),
        ZERO_RATIO,
        replace(far, rhs=replace(far.rhs, outer_coef=far.rhs.outer_coef + 1)),
        entry("eq2").descriptor,
        entry("eq8b", j=3).descriptor,
        entry("eq33", j=2).descriptor,
        rewrite_scale(entry("eq8b", j=3).descriptor, 1, Fraction(-4, 3)),
        MIXED,
    )


class TestResidualSweep:
    """verify's residual check against the first n where brute_sides differ."""

    def test_classes_that_cancel_or_belong_to_one_side(self):
        d = geometric_ones()
        scale, _, classes = recurrences(d)
        assert len(classes) == 4
        fib = [seeds for a, b, seeds, _ in classes if (Fraction(a, scale), Fraction(b, scale**2)) == (1, 1)]
        assert fib == [(0, 0)]  # the two Fibonacci terms cancel in their seeds
        for m in (d, *coefficient_mutants(d)):
            for n_lo in (0, 1, 3):
                for n_hi in (n_lo, n_lo + 1, n_lo + 2, n_lo + 8):
                    assert_matches_reference(m, n_lo, n_hi)
        assert verify(d, 0, 64).passed

    @pytest.mark.parametrize("n_lo", [0, 5, 17])
    def test_range_ends_before_the_residual_seeds(self, n_lo):
        # the residual walk is seeded at n_lo + 1 and n_lo + 2, past n_hi here
        for d in (*horner_inputs(), eq4_ones(), geometric_ones()):
            for n_hi in (n_lo, n_lo + 1, n_lo + 2):
                assert_matches_reference(d, n_lo, n_hi)

    def test_class_counts(self):
        for x, k in ((A015530, 2000), (RATIONAL, -1500), (FIBONACCI, 2), (LUCAS, -3)):
            assert len(recurrences(theorem2_descriptor(x, k))[2]) == 1
        assert len(recurrences(theorem1_descriptor(SequenceDef(3, 2, 1, 1)))[2]) == 1
        assert sum(len(recurrences(e.descriptor)[2]) for e in all_entries()) == 161

    def test_catalog_coefficient_mutants(self):
        past_lo = 0
        for e in all_entries():
            for m in coefficient_mutants(e.descriptor):
                report = assert_matches_reference(m, m.n_min, m.n_min + 6)
                past_lo += report.first_failure[0] > m.n_min
        assert past_lo > 0  # some witnesses come from the residual step itself

    @pytest.mark.parametrize("n_lo", [0, 1, 2, 3])
    def test_witness_past_n_lo(self, n_lo):
        # the range ends at the witness itself, or well past it
        for n_hi in (max(n_lo, 2), 12):
            report = assert_matches_reference(eq4_ones(), n_lo, n_hi)
            assert report.first_failure[0] == max(n_lo, 2)

    @pytest.mark.parametrize("n_lo", [0, 5, 17])
    def test_horner_inputs_from_any_start(self, n_lo):
        for d in horner_inputs():
            assert_matches_reference(d, n_lo, n_lo + 4)
        # the brute sums walk about 2000 steps per i here, so one residual step
        for d in (theorem2_descriptor(A015530, 2000), theorem2_descriptor(RATIONAL, -1500)):
            assert_matches_reference(d, n_lo, n_lo + 1)


# two sequences equal to 2^n at every integer n, of the recurrences (3, -2)
# and (1, 2), whose roots {1, 2} and {2, -1} share the root 2
POWERS_OF_TWO = (SequenceDef(3, -2, 1, 2), SequenceDef(1, 2, 1, 2))
# Fibonacci and Jacobsthal, equal at n = 0, 1, 2 only
NEAR_MISS = (FIBONACCI, SequenceDef(1, 2, 0, 1))
TERM_SEQS = (*POWERS_OF_TWO, FIBONACCI, RATIONAL)
small_coefs = st.sampled_from([Fraction(v) for v in (-1, 1, 2, Fraction(-3, 2))])
ratios = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))])
strides = st.integers(0, 3)
offsets = st.integers(-2, 2)
lhs_terms = st.builds(GeometricTerm, small_coefs, ratios, st.sampled_from((None, *TERM_SEQS)), strides, offsets)
summands = st.builds(Summand, small_coefs, st.sampled_from(TERM_SEQS), strides, offsets)


@st.composite
def drawn_descriptors(draw):
    """1-3 terms on either side, maybe two of them a pair of LHS terms that
    are equal but for sign: at every n on POWERS_OF_TWO, and at the first
    few n at most on NEAR_MISS, so that the sides may first differ past n_lo."""
    lhs, sums = [], []
    pair = draw(st.sampled_from((None, POWERS_OF_TWO, NEAR_MISS)))
    if pair is not None:
        coef, ratio, stride, offset = draw(small_coefs), draw(ratios), draw(strides), draw(offsets)
        lhs += [GeometricTerm(sign * coef, ratio, x, stride, offset) for sign, x in zip((1, -1), pair)]
    for _ in range(draw(st.integers(0 if lhs else 1, 3 - len(lhs)))):
        if draw(st.booleans()):
            lhs.append(draw(lhs_terms))
        else:
            sums.append(draw(summands))
    side = SumSide(draw(small_coefs), draw(ratios), draw(ratios), sums)
    return IdentityDescriptor("drawn", lhs, side)


def fuzz_descriptors(seed):
    """Every descriptor that fuzz --seed SEED --count 1000 --theorem both verifies."""
    cfg = FuzzConfig(seed=seed, instance_count=1000)
    for _, x, k in theorem2_instances(cfg):
        try:
            yield theorem2_descriptor(x, k)
        except OffsetInvalidError:
            pass
    for _, a in theorem1_instances(cfg):
        try:
            yield theorem1_descriptor(a)
        except DegenerateRatioError:
            pass


def class_sides(d, m):
    """{(c1, c2): [L, S]} at m, read off the int steps (a, b) = (c1*D, c2*D^2)
    and int seeds of recurrences(d)."""
    scale, e, classes = recurrences(d)
    values = {
        (Fraction(a, scale), Fraction(b, scale * scale)): [
            Fraction(next(int_walk(a, b, *seeds, m)), e * scale ** m) for seeds in (lhs, sums)
        ]
        for a, b, lhs, sums in classes
    }
    assert len(values) == len(classes)  # no recurrence is split over two classes
    return values


class TestClassSetUp:
    """recurrences' int seeds against brute element values, class by class."""

    def assert_classes_match(self, d, n_lo):
        for m in (n_lo, n_lo + 1, n_lo + 2):
            assert class_sides(d, m) == brute_class_sides(d, m), (d.id, m)

    def test_catalog_and_coefficient_mutants(self):
        count = 0
        for e in all_entries():
            for d in (e.descriptor, *coefficient_mutants(e.descriptor)):
                for n_lo in (d.n_min, d.n_min + 5):
                    self.assert_classes_match(d, n_lo)
                count += 1
        assert count == 574

    def test_hand_built_descriptors(self):
        for d in (*horner_inputs(), eq4_ones(), geometric_ones(), MIXED):
            self.assert_classes_match(d, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fuzz_stream(self, seed):
        for d in fuzz_descriptors(seed):
            self.assert_classes_match(d, 0)

    def test_far_theorem2(self):
        for x, k in ((A015530, 2000), (RATIONAL, -1500)):
            self.assert_classes_match(theorem2_descriptor(x, k), 0)

    @settings(max_examples=200, deadline=None)
    @given(drawn_descriptors(), st.integers(0, 3))
    def test_drawn_descriptors(self, d, n_lo):
        # ratio 0, strides 0-3, rational coefficients, geometric and shared-root terms
        self.assert_classes_match(d, n_lo)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_theorem1_is_theorem2_at_zero(self, seed):
        for _, a in theorem1_instances(FuzzConfig(seed=seed, instance_count=1000)):
            try:
                d = theorem1_descriptor(a)
            except DegenerateRatioError:
                with pytest.raises(OffsetInvalidError):
                    theorem2_descriptor(a, 0)
                continue
            assert d == replace(
                theorem2_descriptor(a, 0),
                id=f"theorem1[{a.label}]",
                citation="generated: normalized-sequence weighted sum",
            )

    @pytest.mark.parametrize("d, n_lo", [
        (entry("eq12", j=2).descriptor, 5),  # passes
        (eq4_ones(), 5),  # fails at n_lo
        (eq4_ones(), 1),  # fails past n_lo, in the residual sweep
    ])
    def test_classes_built_once(self, monkeypatch, d, n_lo):
        calls = []

        def counted(d):
            calls.append(d)
            return recurrences(d)

        monkeypatch.setattr(engine, "recurrences", counted)
        verify(d, n_lo, 40)
        assert len(calls) == 1


def shared_root():
    """2^n - 2^n = 0 with each 2^n on its own recurrence: the two classes'
    residuals are nonzero, 2^(n-1) and -2^(n-1), and cancel."""
    a, b = POWERS_OF_TWO
    return IdentityDescriptor(
        "shared-root", (GeometricTerm(1, 1, a, 1, 0), GeometricTerm(-1, 1, b, 1, 0)), SumSide(1, 1, 1, ())
    )


def late_failure(n_lo, geometric=False):
    """A descriptor whose sides agree on [n_lo, n_lo + B - 1] and differ
    first at n_lo + B, B its proof bound.

    The sum side sums S_i = sum_j a_j*lam_j^i over the B roots lam of its
    summands' classes, with a_j = lam_j^-(n_lo+1) / prod_{k != j}
    (lam_j - lam_k), so that S_{n_lo+1+m} is the complete homogeneous
    symmetric polynomial h_{m-B+1} of the roots: 0 for m < B - 1 and 1 for
    m = B - 1. The LHS is the constant sum_{i <= n_lo} S_i, in a class of
    root 1. By default the roots are 1, 2 of (3, -2) and 3, 4 of (7, -12),
    two order-2 classes (B = 4), and the LHS is a walk of (3, -2). With
    geometric, they are 2, 3 of (5, -6) and the root 1 of a stride-0
    summand, whose class (1, 0) is also that of the LHS, a geometric term
    of ratio 1: one order-2 class and one of order 1 (B = 3).
    """
    pairs = ((2, 3),) if geometric else ((1, 2), (3, 4))
    lams = [Fraction(v) for pair in pairs for v in pair] + ([Fraction(1)] if geometric else [])
    a = []
    for j, lam in enumerate(lams):
        den = lam ** (n_lo + 1)
        for k, other in enumerate(lams):
            if k != j:
                den *= lam - other
        a.append(1 / den)
    seqs = [
        SequenceDef(x + y, -x * y, a[2 * i] + a[2 * i + 1], x * a[2 * i] + y * a[2 * i + 1])
        for i, (x, y) in enumerate(pairs)
    ]
    summands = [Summand(1, x, 1, 0) for x in seqs]
    if geometric:  # the constant a[2], X_0 of any sequence at stride 0
        summands.append(Summand(a[2], FIBONACCI, 0, 2))
    head = sum(a[j] * lam ** i for i in range(n_lo + 1) for j, lam in enumerate(lams))
    if geometric:
        constant = GeometricTerm(head, 1)
    else:
        constant = GeometricTerm(1, 1, SequenceDef(3, -2, head, head), 1, 0)
    return IdentityDescriptor(f"late-failure[{n_lo}]", (constant,), SumSide(1, 1, 1, summands))


def proof_bound(d):
    return sum(1 if b == 0 else 2 for _, b, _, _ in recurrences(d)[2])


class TestProofBound:
    """The sweep stops at n_lo + B, B = 2 per class or 1 per class with
    c2 = 0, with the verdict and witness of a sweep of the whole range."""

    def test_catalog_and_coefficient_mutants(self):
        count = 0
        for e in all_entries():
            for d in (e.descriptor, *coefficient_mutants(e.descriptor)):
                for n_lo in sorted({d.n_min, d.n_min + 1, d.n_min + 3, 40}):
                    # the first failure on [n_lo, 120], if any, is the first on each shorter range
                    longest = swept_first_failure(d, n_lo, 120)
                    for n_hi in sorted({n_lo, n_lo + 1, n_lo + 2, n_lo + 5, 120}):
                        expected = longest if longest is not None and longest[0] <= n_hi else None
                        assert verify(d, n_lo, n_hi).first_failure == expected, (d.id, n_lo, n_hi)
                        count += 1
        assert count == 11_480

    def test_swept_oracle_is_the_brute_one(self):
        # the one-pass oracle against brute_first_failure, on ranges short enough for it
        for e in all_entries():
            for d in (e.descriptor, *coefficient_mutants(e.descriptor)):
                for n_lo in (d.n_min, d.n_min + 2):
                    assert swept_first_failure(d, n_lo, n_lo + 3) == brute_first_failure(d, n_lo, n_lo + 3)
        late = (late_failure(1), late_failure(1, geometric=True))
        for d in (ZERO_RATIO, eq4_ones(), geometric_ones(), MIXED, shared_root(), *late):
            for n_lo in (0, 1, 3):
                assert swept_first_failure(d, n_lo, n_lo + 7) == brute_first_failure(d, n_lo, n_lo + 7), d.id

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fuzz_stream(self, seed):
        for d in fuzz_descriptors(seed):
            assert verify(d, 0, 32).first_failure == swept_first_failure(d, 0, 32), d.id

    @settings(max_examples=200, deadline=None)
    @given(drawn_descriptors(), st.integers(0, 3), st.integers(0, 8))
    def test_drawn_descriptors(self, d, n_lo, width):
        assert_matches_reference(d, n_lo, n_lo + width)

    def test_shared_root_classes_cancel(self):
        d = shared_root()
        scale, e, classes = recurrences(d)
        assert [(Fraction(a, scale), Fraction(b, scale * scale)) for a, b, _, _ in classes] == [(3, -2), (1, 2)]
        # each class's own residual at n = 1 is L_1 - L_0 = +-1, not 0
        for _, _, (l0, l1), _ in classes:
            assert abs(Fraction(l1, e * scale) - Fraction(l0, e)) == 1
        for n_lo in (0, 2):
            assert verify(d, n_lo, 512).passed
        for m in coefficient_mutants(d):
            for n_lo, n_hi in ((0, 6), (2, 9)):
                assert_matches_reference(m, n_lo, n_hi)

    @pytest.mark.parametrize("n_lo", [0, 2, 5])
    def test_first_failure_at_the_bound(self, n_lo):
        # two order-2 classes, and one order-2 class with one geometric class
        for d, bound in ((late_failure(n_lo), 4), (late_failure(n_lo, geometric=True), 3)):
            assert proof_bound(d) == bound
            assert verify(d, n_lo, n_lo + bound - 1).passed
            for n_hi in (n_lo + bound, n_lo + bound + 1, 64):
                report = assert_matches_reference(d, n_lo, n_hi)
                assert report.first_failure[0] == n_lo + bound

    def test_passing_sweep_draws_at_most_b_residuals(self, monkeypatch):
        residuals = engine._residuals
        drawn = []

        def counted(d, rec):
            delta, rhos = residuals(d, rec)
            return delta, (drawn.append(rho) or rho for rho in rhos)

        monkeypatch.setattr(engine, "_residuals", counted)
        descriptors = [e.descriptor for e in all_entries()] + [shared_root(), geometric_ones()]
        descriptors += list(islice(fuzz_descriptors(1), 50))
        for d in descriptors:
            drawn.clear()
            assert verify(d, d.n_min, 512).passed, d.id
            # the n_min residuals up to n_lo are carried, and the sweep draws at most B
            assert len(drawn) <= d.n_min + proof_bound(d), d.id

    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_point_evaluation_draws_exactly_n_residuals(self, monkeypatch, n):
        residuals, built, drawn = engine._residuals, [], []

        def counted_classes(d):
            built.append(d)
            return recurrences(d)

        def counted(d, rec):
            delta, rhos = residuals(d, rec)
            return delta, (drawn.append(rho) or rho for rho in rhos)

        monkeypatch.setattr(engine, "recurrences", counted_classes)
        monkeypatch.setattr(engine, "_residuals", counted)
        descriptors = [e.descriptor for e in all_entries() if e.descriptor.n_min <= n] + [ZERO_RATIO, MIXED]
        for d in descriptors:
            built.clear()
            drawn.clear()
            descriptor_eval(d, n)
            # Delta is carried to n whether it is 0 or not, and stepped no further
            assert (len(built), len(drawn)) == (1, n), d.id


class TestTotalReach:
    """The reaches of a descriptor's terms add up to at most MAX_TOTAL_REACH."""

    def test_limit_is_inclusive(self):
        # 2 + 1 = 3*1 with beta = 0: three terms, each of reach n_hi, whose
        # walks stay small however far they step
        d = IdentityDescriptor(
            "threes", (GeometricTerm(1, 1), GeometricTerm(2, 1)), SumSide(3, 1, 0, (Summand(1, FIBONACCI, 0, 1),))
        )
        assert MAX_TOTAL_REACH == 3 * MAX_INDEX
        assert verify(d, 0, MAX_INDEX).passed
        more = replace(d, lhs=(*d.lhs, GeometricTerm(0, 1)))
        with pytest.raises(ValueError, match="4 terms reach 400000 indices in all, beyond the limit of 300000"):
            verify(more, 0, MAX_INDEX)

    @pytest.mark.parametrize("k, n_hi", [(0, MAX_INDEX - 2), (MAX_INDEX, 0), (-MAX_INDEX, 0), (-50_000, 50_000)])
    def test_theorem2_on_its_widest_ranges(self, k, n_hi):
        # X_n = X_{n-2}: every value is 1, so the far walks cost little
        d = theorem2_descriptor(SequenceDef(0, 1, 1, 1), k)
        assert verify(d, 0, n_hi).passed

    def test_stride_past_the_limit_at_n_hi_zero(self):
        # at n_hi = 0 no term reaches past MAX_INDEX, but the seed X_stride
        # of the LHS term is a walk of stride steps, which is refused
        ones = SequenceDef(0, 1, 1, 1)
        d = IdentityDescriptor(
            "far", (GeometricTerm(1, 1, ones, MAX_INDEX + 5, 0),), SumSide(1, 1, 1, (Summand(1, ones, 0, 0),))
        )
        with pytest.raises(ValueError, match=f"^a walk of {MAX_INDEX + 5} steps is beyond the limit of {MAX_INDEX}$"):
            verify(d, 0, 0)


class TestVerifyCatalog:
    def test_base_cases(self):
        reports = verify_catalog(0)
        assert all(r.passed for r in reports)

    def test_report_count_matches_entries(self):
        assert len(verify_catalog(0)) == len(all_entries())

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_catalog(-1)


class TestFuzz:
    def test_theorem2_no_failures(self):
        cfg = FuzzConfig(seed=1, instance_count=150, n_range=(0, 16))
        reports = fuzz_theorem2(cfg)
        assert len(reports) == 150
        assert sum(1 for r in reports if r.status == "fail") == 0

    def test_theorem1_no_failures(self):
        cfg = FuzzConfig(seed=2, instance_count=150, n_range=(0, 16))
        reports = fuzz_theorem1(cfg)
        assert len(reports) == 150
        assert sum(1 for r in reports if r.status == "fail") == 0

    def test_same_seed_same_reports(self):
        cfg = FuzzConfig(seed=39, instance_count=60, n_range=(0, 8))
        assert fuzz_theorem2(cfg) == fuzz_theorem2(cfg)
        assert fuzz_theorem1(cfg) == fuzz_theorem1(cfg)

    def test_different_seeds_differ(self):
        a = fuzz_theorem2(FuzzConfig(seed=1, instance_count=40, n_range=(0, 4)))
        b = fuzz_theorem2(FuzzConfig(seed=2, instance_count=40, n_range=(0, 4)))
        assert a != b

    def test_skips_partition_hypothesis_violations_theorem2(self):
        cfg = FuzzConfig(seed=5, instance_count=200, n_range=(0, 4))
        reports = fuzz_theorem2(cfg)
        for report, (label, seq, k) in zip(reports, theorem2_instances(cfg)):
            assert report.id == label
            hypotheses_hold = term(seq, k) != 0 and term(seq, k - 1) != 0
            if hypotheses_hold:
                assert report.status == "pass"
            else:
                assert report.status == "skipped"
                assert "nonzero hypothesis" in report.reason

    def test_skips_partition_hypothesis_violations_theorem1(self):
        cfg = FuzzConfig(seed=6, instance_count=200, n_range=(0, 4))
        reports = fuzz_theorem1(cfg)
        for report, (label, seq) in zip(reports, theorem1_instances(cfg)):
            assert report.id == label
            if seq.c1 - seq.x1 != 0:
                assert report.status == "pass"
            else:
                assert report.status == "skipped"
                assert "c1 - x1 = 0" in report.reason

    def test_instance_stream_is_reproducible(self):
        cfg = FuzzConfig(seed=123, instance_count=30)
        first = [(label, seq, k) for label, seq, k in theorem2_instances(cfg)]
        second = [(label, seq, k) for label, seq, k in theorem2_instances(cfg)]
        assert first == second

    def test_pool_respects_nonzero_constraints(self):
        cfg = FuzzConfig(seed=9, instance_count=300)
        for _, seq, _ in theorem2_instances(cfg):
            assert seq.c2 != 0
            assert seq.c1 in DEFAULT_POOL and seq.x0 in DEFAULT_POOL

    def test_generators_raise_cleanly_outside_fuzz(self):
        from identity_forge.sequences import FIBONACCI, SequenceDef

        with pytest.raises(OffsetInvalidError):
            theorem2_descriptor(FIBONACCI, 1)
        with pytest.raises(DegenerateRatioError):
            theorem1_descriptor(SequenceDef(2, 1, 1, 2))

    def test_n_range_start_above_zero(self):
        cfg = FuzzConfig(seed=14, instance_count=60, n_range=(3, 12))
        reports = fuzz_theorem1(cfg)
        assert all(r.status != "fail" for r in reports)
        assert all((r.n_lo, r.n_hi) == (3, 12) for r in reports)


def reference_labels(cfg, theorem):
    """The report ids of fuzz_theorem1/2 as the draw loops first built them:
    the pool's values drawn in the same order, formatted per instance."""
    rng = random.Random(cfg.seed)
    pool = tuple(cfg.coefficient_pool)
    nonzero = tuple(q for q in pool if q != 0)
    labels = []
    for idx in range(cfg.instance_count):
        c1 = rng.choice(pool)
        c2 = rng.choice(nonzero)
        if theorem == 1:
            x1 = rng.choice(pool)
            labels.append(f"t1#{idx}(c1={format_rational(c1)},c2={format_rational(c2)},x1={format_rational(x1)})")
            continue
        x0 = rng.choice(pool)
        x1 = rng.choice(pool)
        k = rng.randint(*cfg.k_range)
        labels.append(
            f"t2#{idx}(c1={format_rational(c1)},c2={format_rational(c2)},"
            f"x0={format_rational(x0)},x1={format_rational(x1)},k={k})"
        )
    return labels


class TestFuzzLabels:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_report_ids_match_the_formatted_draws(self, seed):
        cfg = FuzzConfig(seed=seed, instance_count=1000)
        assert [r.id for r in fuzz_theorem2(cfg)] == reference_labels(cfg, 2)
        assert [r.id for r in fuzz_theorem1(cfg)] == reference_labels(cfg, 1)


class TestReportLine:
    def test_pass_line(self):
        line = report_line(verify(entry("eq1").descriptor, 0, 4))
        assert line.startswith("PASS")
        assert "eq1" in line

    def test_fail_line_shows_witness(self):
        broken = corrupt_lhs_coefficient(entry("eq1").descriptor, 3)
        line = report_line(verify(broken, 0, 4))
        assert "n=0" in line and "lhs=3" in line and "rhs=2" in line

    def test_skip_line_shows_reason(self):
        report = VerificationReport("x", 0, 4, "skipped", reason="X_k = 0")
        assert "X_k = 0" in report_line(report)
