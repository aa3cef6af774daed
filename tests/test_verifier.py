from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from identity_forge.catalog import all_entries, entry
from identity_forge.engine import descriptor_eval, sides, theorem1_descriptor, theorem2_descriptor
from identity_forge.engine import GeometricTerm, IdentityDescriptor, Summand, SumSide, rewrite_scale
from identity_forge.engine import DegenerateRatioError, OffsetInvalidError
from identity_forge.sequences import A015530, FIBONACCI, SequenceDef, term
from identity_forge.verifier import (
    DEFAULT_POOL,
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

from oracles import brute_sides


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
        rational = SequenceDef(Fraction(1, 2), Fraction(-1, 3), 1, 2)
        zero_ratio = IdentityDescriptor(
            "zero-ratio",
            lhs=(GeometricTerm(6, 0),),
            rhs=SumSide(3, 0, Fraction(5, 2), (Summand(2, FIBONACCI, 2, 1),)),
        )
        identities = (
            (rewrite_scale(entry("eq4").descriptor, 3, Fraction(2, 3)), (0, 1, 5, 9)),
            (zero_ratio, (0, 1, 2, 7)),
            (theorem2_descriptor(A015530, 2000), (0, 1, 4)),
            (theorem2_descriptor(rational, -1500), (0, 1, 4)),
            (entry("eq2").descriptor, (0, 1, 5, 9)),
            (entry("eq8b", j=3).descriptor, (0, 1, 5, 9)),
            (entry("eq33", j=2).descriptor, (0, 1, 5, 9)),
            (rewrite_scale(entry("eq8b", j=3).descriptor, 1, Fraction(-4, 3)), (0, 1, 5, 9)),
        )
        for d, _ in identities:
            assert verify(d, 0, 32).passed, d.id
        # not an identity: stride-0 terms with a sequence, a geometric term
        # of ratio -3/2 (a (r, 0) walk whose denominators need D > 1), and a
        # stride-0 summand
        mixed = IdentityDescriptor(
            "mixed",
            lhs=(
                GeometricTerm(Fraction(2, 5), Fraction(-3, 2)),
                GeometricTerm(-3, Fraction(1, 3), rational, 0, -4),
                GeometricTerm(1, 2, FIBONACCI, 3, -2),
            ),
            rhs=SumSide(
                Fraction(1, 7), Fraction(-3, 2), Fraction(2, 3),
                (Summand(5, rational, 0, 3), Summand(-1, FIBONACCI, 2, 1)),
            ),
        )
        for d, ns in identities + ((mixed, (0, 1, 2, 9)),):
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

    def test_nonzero_start_matches_full_sweep(self):
        d = entry("eq12", j=2).descriptor
        assert verify(d, 5, 20).passed


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
