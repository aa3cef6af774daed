from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from identity_forge.catalog import all_entries, entry
from identity_forge.engine import descriptor_eval, recurrences, sides, theorem1_descriptor, theorem2_descriptor
from identity_forge.engine import GeometricTerm, IdentityDescriptor, Summand, SumSide, rewrite_scale
from identity_forge.engine import DegenerateRatioError, OffsetInvalidError
from identity_forge import engine, verifier
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

from oracles import brute_class_sides, brute_first_failure, brute_sides


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
        # the side stream, seeded at n_min and at every n, must agree with an
        # independent brute-force evaluation (strides > 1, ratios != 1, a
        # negative offset and a pure geometric term among the cases); a
        # corrupted descriptor pins the witness values to the brute-force ones
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
            for n, lhs, rhs in islice(sides(d, d.n_min), 25 - d.n_min):
                assert (lhs, rhs) == brute_sides(d, n), (e.label, n)
                assert descriptor_eval(d, n) == (lhs, rhs), (e.label, n)
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
            stream = list(islice(sides(d, 0), max(ns) + 1))
            for n in ns:
                assert stream[n][1:] == brute_sides(d, n), (d.id, n)
                assert descriptor_eval(d, n) == brute_sides(d, n), (d.id, n)
            for n_lo in (5, 17):
                # a stream started at n_lo skips n_lo steps, then steps on
                head = [item[1:] for item in islice(sides(d, n_lo), 2)]
                assert head == [brute_sides(d, n_lo), brute_sides(d, n_lo + 1)], (d.id, n_lo)
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
                head = [item[1:] for item in islice(sides(m, n_lo), 3)]
                assert head == [brute_sides(m, n) for n in range(n_lo, n_lo + 3)], (m.id, n_lo)

    def test_descriptor_with_no_terms(self):
        # no classes, so no residual walk: both sides are 0 at every n
        d = IdentityDescriptor("empty", (), SumSide(1, 1, 1, ()))
        assert list(islice(sides(d, 2), 3)) == [(n, 0, 0) for n in (2, 3, 4)]
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
        _, _, classes = recurrences(d)
        assert len(classes) == 4
        fib = [seeds for c1, c2, seeds, _ in classes if (c1, c2) == (1, 1)]
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
    """{(c1, c2): [L, S]} at m, read off the int seeds of recurrences(d)."""
    scale, e, classes = recurrences(d)
    values = {
        (c1, c2): [Fraction(next(int_walk(c1, c2, scale, *seeds, m)), e * scale ** m) for seeds in (lhs, sums)]
        for c1, c2, lhs, sums in classes
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

        def unused(*args):
            raise AssertionError("verify evaluates through sides")

        monkeypatch.setattr(engine, "recurrences", counted)
        monkeypatch.setattr(engine, "sides", unused)
        verify(d, n_lo, 40)
        assert len(calls) == 1


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
