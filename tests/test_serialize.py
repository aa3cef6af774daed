import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from identity_forge.catalog import all_entries, entry
from identity_forge.engine import theorem2_descriptor
from identity_forge.serialize import ParseError, from_json, to_json, to_latex
from identity_forge.verifier import FuzzConfig, theorem2_instances, verify
from identity_forge.engine import OffsetInvalidError
from identity_forge.numeric import format_rational, parse_rational

rationals = st.fractions(
    min_value=Fraction(-99), max_value=Fraction(99), max_denominator=40
)


def fuzz_descriptors(count, seed=81):
    """First `count` generator outputs from the seeded instance stream."""
    produced = []
    cfg = FuzzConfig(seed=seed, instance_count=count * 4)
    for _, seq, k in theorem2_instances(cfg):
        try:
            produced.append(theorem2_descriptor(seq, k))
        except OffsetInvalidError:
            continue
        if len(produced) == count:
            break
    assert len(produced) == count
    return produced


class TestJsonRoundTrip:
    def test_catalog_round_trips_exactly(self):
        for e in all_entries():
            assert from_json(to_json(e.descriptor)) == e.descriptor

    def test_fuzz_descriptors_round_trip(self):
        for d in fuzz_descriptors(100):
            assert from_json(to_json(d)) == d

    def test_parsed_document_still_verifies(self):
        d = from_json(to_json(entry("eq8", m=3).descriptor))
        assert verify(d, 0, 32).passed

    def test_key_order_is_deterministic(self):
        d = entry("eq1").descriptor
        assert to_json(d) == to_json(d)
        doc = json.loads(to_json(d))
        assert list(doc) == ["schema_version", "id", "n_min", "citation", "lhs", "rhs"]

    def test_eq3_outer_ratio_renders_minus_two(self):
        doc = json.loads(to_json(entry("eq3").descriptor))
        assert doc["rhs"]["outer_ratio"] == "-2"

    @given(rationals)
    def test_rational_text_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestJsonErrors:
    def _doc(self, **overrides):
        doc = json.loads(to_json(entry("eq1").descriptor))
        doc.update(overrides)
        return doc

    def test_unknown_schema_version(self):
        with pytest.raises(ParseError, match="unsupported schema_version"):
            from_json(json.dumps(self._doc(schema_version=2)))

    def test_zero_denominator(self):
        doc = self._doc()
        doc["rhs"]["beta"] = "1/0"
        with pytest.raises(ParseError, match="zero denominator"):
            from_json(json.dumps(doc))

    def test_non_canonical_rational_is_reduced(self):
        doc = self._doc()
        doc["rhs"]["beta"] = "2/4"
        parsed = from_json(json.dumps(doc))
        assert parsed.rhs.beta == Fraction(1, 2)

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown field"):
            from_json(json.dumps(self._doc(extra=1)))

    def test_missing_field(self):
        doc = self._doc()
        del doc["citation"]
        with pytest.raises(ParseError, match="missing field"):
            from_json(json.dumps(doc))

    def test_syntax_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            from_json("{not json")

    def test_deep_nesting_is_a_parse_error(self):
        # the decoder's RecursionError would otherwise escape as a traceback
        with pytest.raises(ParseError) as info:
            from_json("[" * 200_000)
        assert info.value.location == "$"

    def test_error_carries_location(self):
        doc = self._doc()
        doc["lhs"][0]["coef"] = "x"
        with pytest.raises(ParseError, match=r"\$\.lhs\[0\]\.coef"):
            from_json(json.dumps(doc))

    def test_zero_c2_rejected_with_location(self):
        doc = self._doc()
        doc["lhs"][0]["seq"]["c2"] = "0"
        with pytest.raises(ParseError, match=r"lhs\[0\]\.seq"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "pick, where",
        [
            (lambda doc: doc["lhs"][0], r"\$\.lhs\[0\]"),
            (lambda doc: doc["rhs"]["summands"][0], r"\$\.rhs\.summands\[0\]"),
        ],
        ids=["lhs", "summand"],
    )
    def test_negative_stride_rejected_with_location(self, pick, where):
        doc = self._doc()
        pick(doc)["stride"] = -1
        with pytest.raises(ParseError, match=rf"stride must be >= 0 \(at {where}\)"):
            from_json(json.dumps(doc))

    def test_summand_requires_sequence(self):
        doc = self._doc()
        doc["rhs"]["summands"][0]["seq"] = None
        with pytest.raises(ParseError, match="summands require a sequence"):
            from_json(json.dumps(doc))

    def test_float_typed_fields_rejected(self):
        doc = self._doc(n_min=0.0)
        with pytest.raises(ParseError, match="expected an integer"):
            from_json(json.dumps(doc))


class TestLatex:
    def test_sury_shape(self):
        text = to_latex(entry("eq1").descriptor)
        assert "2^{n+1}F_{n+1}" in text
        assert "\\sum_{i=0}^{n}" in text
        assert "2^{i}L_{i}" in text

    def test_favorites_shape(self):
        text = to_latex(entry("eq8", m=3).descriptor)
        assert "(-2)^{i}L_{3i}" in text
        assert "(-2)^{n+1}F_{3n}" in text

    def test_classical_weight_presentation(self):
        # beta * outer_ratio == 1 switches to the t^(n-i) form
        text = to_latex(entry("eq3").descriptor)
        assert "(-2)^{n-i}" in text
        assert "L_{i+1}" in text

    def test_generic_sequence_fallback(self):
        from identity_forge.sequences import SequenceDef

        d = theorem2_descriptor(SequenceDef(4, 3, 0, 1, label="demo"), 2)
        text = to_latex(d)
        assert "X_{i+2}" in text
        assert "% X: demo" in text

    def test_multiple_generic_sequences_get_distinct_letters(self):
        from identity_forge.engine import GeometricTerm, IdentityDescriptor, Summand, SumSide
        from identity_forge.sequences import generalized_u, generalized_v_def

        u, v = generalized_u(5, 1), generalized_v_def(5, 1)
        d = IdentityDescriptor(
            id="demo",
            lhs=(GeometricTerm(5, 5, u, 1, 1),),
            rhs=SumSide(1, 1, 5, (Summand(1, v, 1, 0), Summand(3, u, 1, 1))),
        )
        text = to_latex(d)
        assert "X_" in text and "Y_" in text
        assert "% X: U(5,1), Y: V(5,1)" in text

    def test_named_letters(self):
        assert "P_{i+2}" in to_latex(entry("eq10", k=2).descriptor)
        assert "Q_{n+1}" in to_latex(entry("eq11").descriptor)
        assert "B_{2i+1}" in to_latex(entry("eq12", j=2).descriptor)

    def test_output_is_stable(self):
        for e in (entry("eq1"), entry("eq33", j=5), entry("eq44", j=4, k=-3)):
            assert to_latex(e.descriptor) == to_latex(e.descriptor)

    def test_fractional_coefficient_uses_frac(self):
        text = to_latex(entry("eq10", k=3).descriptor)
        assert "\\frac{1}{5}" in text
