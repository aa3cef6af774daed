import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from identity_forge.catalog import all_entries, entry
from identity_forge.engine import (
    DegenerateRatioError,
    GeometricTerm,
    IdentityDescriptor,
    Summand,
    SumSide,
    rewrite_scale,
    theorem1_descriptor,
    theorem2_descriptor,
)
from identity_forge.serialize import ParseError, from_json, to_json, to_latex
from identity_forge.verifier import FuzzConfig, theorem1_instances, theorem2_instances, verify
from identity_forge.engine import OffsetInvalidError
from identity_forge.numeric import format_rational, parse_rational
from identity_forge.sequences import FIBONACCI, LUCAS, PELL, SequenceDef, term

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


# one document per shape: one LHS term; a `seq: null` constant term; two
# summands; a theorem2 descriptor at a negative offset
FAULT_DOCUMENTS = (
    ("eq1", lambda: entry("eq1").descriptor),
    ("eq8[m=3]", lambda: entry("eq8", m=3).descriptor),
    ("eq5[t=3]", lambda: entry("eq5", t=3).descriptor),
    (
        "theorem2[k=-4]",
        lambda: theorem2_descriptor(SequenceDef(Fraction(1, 2), Fraction(-1, 3), 1, 2), -4),
    ),
)
FAULT_VALUES = (None, True, 1.5, 7, -1, "x", "1/0", "2/4", [], {}, "0")


def _paths(value, steps=()):
    """The key path of value itself and of every value inside it, in document order."""
    yield steps
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, (*steps, key))


def _faulted(text: str, steps: tuple, fault: str):
    """text's document with one fault at steps: a JSON value, "delete" or "unknown key"."""
    doc = json.loads(text)
    if not steps:
        return json.loads(fault) if fault != "unknown key" else {**doc, "zz": 0}
    parent = doc
    for key in steps[:-1]:
        parent = parent[key]
    if fault == "delete":
        del parent[steps[-1]]
    elif fault == "unknown key":
        parent[steps[-1]]["zz"] = 0
    else:
        parent[steps[-1]] = json.loads(fault)
    return doc


def single_fault_lines() -> list[str]:
    """One line per single-fault document: its name, the location, the fault
    and the ParseError text, or ok.

    Each value in every document takes each of FAULT_VALUES in its place;
    each key is also deleted, and each object also gets an unknown key.
    Rewrite the golden with
    PYTHONPATH=src:tests python -c "import test_serialize as t;
    open('tests/golden/json_faults.txt', 'w').writelines(t.single_fault_lines())"
    """
    lines = []
    for name, build in FAULT_DOCUMENTS:
        text = to_json(build())
        doc = json.loads(text)
        for steps in _paths(doc):
            node = doc
            for key in steps:
                node = node[key]
            faults = [json.dumps(v) for v in FAULT_VALUES]
            if steps and isinstance(steps[-1], str):
                faults.append("delete")
            if isinstance(node, dict):
                faults.append("unknown key")
            where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in steps)
            for fault in faults:
                try:
                    from_json(json.dumps(_faulted(text, steps, fault)))
                    outcome = "ok"
                except ParseError as exc:
                    outcome = str(exc)
                lines.append(f"{name}\t{where}\t{fault}\t{outcome}\n")
    return lines


def test_single_faults_match_the_golden():
    # every refusal's text and location, one fault at a time
    golden = (Path(__file__).parent / "golden" / "json_faults.txt").read_text()
    assert single_fault_lines() == golden.splitlines(keepends=True)


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


def _built(cfg: FuzzConfig, count: int):
    """(name, descriptor) for the first count theorem1 and theorem2
    descriptors of cfg's streams that build, each followed by its reduced
    form where generate --reduced gives one."""
    streams = (
        (theorem1_instances(cfg), theorem1_descriptor),
        (theorem2_instances(cfg), theorem2_descriptor),
    )
    for instances, build in streams:
        built = 0
        for label, seq, *k in instances:
            if built == count:
                break
            try:
                d = build(seq, *k)
            except (DegenerateRatioError, OffsetInvalidError):
                continue
            built += 1
            yield label, d
            front = seq.x0 * term(seq, 2) - seq.x1 * seq.x1
            if front:  # generate --reduced scales by 1/(X_0*X_2 - X_1^2)
                yield f"{label} reduced", rewrite_scale(d, 1 / front, 1)


def _hand_built():
    """(name, descriptor) for each branch of the renderer."""
    T, S = GeometricTerm, Summand
    one = SumSide(1, 1, 1, (S(1, FIBONACCI, 1, 0),))
    f2 = (T(1, 1, FIBONACCI, 1, 2),)
    unnamed = [SequenceDef(5, 1, 0, m) for m in range(1, 6)]
    third = Fraction(-1, 3)
    cases = {
        "every lhs coef 0": ((T(0, 2, FIBONACCI, 1, 1), T(0, 1)), one),
        "no lhs term": ((), one),
        "constants 1, -1, 3/4": ((T(1, 1), T(-1, 1), T(Fraction(3, 4), 1)), one),
        "leading -1 constant": ((T(-1, 1), T(-7, 1, LUCAS, 1, 0)), one),
        "geometric constants": ((T(1, 2), T(2, 2), T(-2, 2), T(5, third)), one),
        "coef = ratio": ((T(2, 2, FIBONACCI, 1, 1), T(third, third, LUCAS, 2, 0)), one),
        "coef = -ratio": ((T(-2, 2, FIBONACCI, 1, 1), T(-third, third, LUCAS, 2, -1)), one),
        "leading coef = -ratio": ((T(-3, 3, PELL, 3, 2), T(1, -1, PELL, 1, 0)), one),
        "coef = ratio = -1": ((T(-1, -1, FIBONACCI, 1, 0), T(1, -1, LUCAS, 1, 0)), one),
        "fraction coef and ratio": (
            (T(Fraction(-5, 7), Fraction(2, 9), FIBONACCI, 4, -3), T(3, Fraction(1, 2))),
            one,
        ),
        "ratio 0": ((T(4, 0, FIBONACCI, 1, 0),), one),
        "stride 0 at negative offsets": (
            (T(1, 1, FIBONACCI, 0, -3), T(-2, 3, LUCAS, 0, -1)),
            SumSide(1, 1, 1, (S(1, LUCAS, 0, -2), S(-1, FIBONACCI, 0, 0))),
        ),
        "five unnamed": (
            tuple(T(1, 1, seq, 1, 0) for seq in unnamed[:3]),
            SumSide(1, 1, 1, tuple(S(m, seq, 2, m) for m, seq in enumerate(unnamed[1:], 1))),
        ),
        "six unnamed, summands first": (
            (T(1, 1, FIBONACCI, 1, 0),),
            SumSide(1, 1, 1, tuple(S(1, seq, 1, 0) for seq in (*unnamed, SequenceDef(6, 1, 0, 1)))),
        ),
        "unnamed repeated": (
            (T(1, 1, unnamed[0], 1, 2), T(1, 1, unnamed[1], 1, 1)),
            SumSide(1, 1, 1, (S(1, unnamed[1], 1, 0), S(1, unnamed[0], 1, 1))),
        ),
        "labelled and empty label": (
            (T(1, 1, SequenceDef(4, 3, 0, 1, label="A015530"), 1, 0),),
            SumSide(1, 1, 1, (S(1, SequenceDef(4, 3, 1, 1), 1, 0),)),
        ),
        "custom equal to Fibonacci": (
            (T(1, 1, SequenceDef(1, 1, 0, 1, label="custom"), 1, 2),),
            SumSide(1, 1, 1, (S(1, SequenceDef(Fraction(2, 2), 1, 0, 1, label="mine"), 1, 0),)),
        ),
        "outer_coef -1": (f2, SumSide(-1, 1, 1, (S(1, LUCAS, 1, 0),))),
        "outer_coef -1 classical": (f2, SumSide(-1, third, -3, (S(1, LUCAS, 1, 0),))),
        "outer_coef -1 with outer_ratio": (f2, SumSide(-1, 2, Fraction(1, 3), (S(1, LUCAS, 1, 0),))),
        "beta 1, outer_ratio 2": ((T(1, 2, FIBONACCI, 1, 2),), SumSide(1, 2, 1, (S(1, LUCAS, 1, 0),))),
        "beta 1, outer_ratio -1/3, outer_coef 5/2": (
            (T(1, 2, FIBONACCI, 1, 2),),
            SumSide(Fraction(5, 2), third, 1, (S(1, LUCAS, 1, 0), S(-2, FIBONACCI, 3, -1))),
        ),
        "beta -2, outer_ratio 1": (
            (T(1, 2, FIBONACCI, 1, 2),),
            SumSide(-4, 1, -2, (S(Fraction(-1, 2), LUCAS, 1, 0), S(Fraction(3, 2), PELL, 1, 5))),
        ),
        "classical at t = 1": (f2, one),
        "no summands": (f2, SumSide(2, 3, 5, ())),
        "summand coefs -1, 0, 1, 2, -3/4": (
            f2,
            SumSide(1, 1, Fraction(1, 2), tuple(
                S(c, LUCAS, 1, m) for m, c in enumerate((-1, 0, 1, 2, Fraction(-3, 4)))
            )),
        ),
    }
    for name, (lhs, rhs) in cases.items():
        yield name, IdentityDescriptor("hand", lhs, rhs)


def latex_form_lines() -> list[str]:
    """One line per rendering: its name and to_latex's output.

    The catalog rescaled by -3/7 * (-2/5)^n, the first 200 theorem1 and 200
    theorem2 descriptors of fuzz seed 1 that build, each also reduced as
    generate --reduced does, and one hand-built descriptor per branch of the
    renderer. Rewrite the golden with
    PYTHONPATH=src:tests python -c "import test_serialize as t;
    open('tests/golden/latex_forms.txt', 'w').writelines(t.latex_form_lines())"
    """
    rendered = [
        (e.descriptor.id, rewrite_scale(e.descriptor, Fraction(-3, 7), Fraction(-2, 5)))
        for e in all_entries()
    ]
    rendered += _built(FuzzConfig(seed=1, instance_count=1000), 200)
    rendered += _hand_built()
    return [f"{name}\t{to_latex(d)}\n" for name, d in rendered]


def test_latex_forms_match_the_golden():
    golden = (Path(__file__).parent / "golden" / "latex_forms.txt").read_text()
    assert latex_form_lines() == golden.splitlines(keepends=True)
