"""JSON wire format and LaTeX rendering for identity descriptors.

Rationals travel as canonical "p/q" text (never floating point), so a
descriptor survives a round trip field for field. The LaTeX renderer emits
one display equation per descriptor: recognizable families get their
conventional letters (F, L, P, Q, B) and anything else falls back to
X, Y, ... with the labels in a trailing comment. When beta * outer_ratio = 1
the sum is rendered in the classical t^(n-i) presentation.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .engine import GeometricTerm, IdentityDescriptor, Summand, SumSide
from .numeric import format_rational, parse_int, parse_rational, quote
from .sequences import SequenceDef

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed descriptor document; carries the offending location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{message} (at {location})")
        self.location = location


def _seq_doc(seq: SequenceDef | None):
    if seq is None:
        return None
    return {
        "c1": format_rational(seq.c1),
        "c2": format_rational(seq.c2),
        "x0": format_rational(seq.x0),
        "x1": format_rational(seq.x1),
        "label": seq.label,
    }


def to_json(d: IdentityDescriptor, indent: int | None = 2) -> str:
    """Serialize with a fixed key order; output is deterministic."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "id": d.id,
        "n_min": d.n_min,
        "citation": d.citation,
        "lhs": [
            {
                "coef": format_rational(t.coef),
                "ratio": format_rational(t.ratio),
                "seq": _seq_doc(t.seq),
                "stride": t.stride,
                "offset": t.offset,
            }
            for t in d.lhs
        ],
        "rhs": {
            "outer_coef": format_rational(d.rhs.outer_coef),
            "outer_ratio": format_rational(d.rhs.outer_ratio),
            "beta": format_rational(d.rhs.beta),
            "summands": [
                {
                    "coef": format_rational(s.coef),
                    "seq": _seq_doc(s.seq),
                    "stride": s.stride,
                    "offset": s.offset,
                }
                for s in d.rhs.summands
            ],
        },
    }
    return json.dumps(doc, indent=indent)


def _need(obj: dict, keys: tuple, where: str):
    extra = set(obj) - set(keys)
    if extra:
        raise ParseError(f"unknown field {quote(sorted(extra)[0])}", where)
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing field {key!r}", where)


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected an object", where)
    return value


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", where)
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError("expected a string", where)
    return value


def _rational(value, where: str) -> Fraction:
    text = _as_str(value, where)
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def _build(cls, where: str, *args, **kwargs):
    """cls(*args, **kwargs), with a rejected value reported as a ParseError at where."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def _seq_from(doc, where: str) -> SequenceDef | None:
    if doc is None:
        return None
    obj = _as_object(doc, where)
    _need(obj, ("c1", "c2", "x0", "x1", "label"), where)
    return _build(
        SequenceDef,
        where,
        _rational(obj["c1"], f"{where}.c1"),
        _rational(obj["c2"], f"{where}.c2"),
        _rational(obj["x0"], f"{where}.x0"),
        _rational(obj["x1"], f"{where}.x1"),
        label=_as_str(obj["label"], f"{where}.label"),
    )


def from_json(text: str) -> IdentityDescriptor:
    """Parse a descriptor document, re-canonicalizing any unreduced rationals."""
    try:
        doc = json.loads(text, parse_int=parse_int)
    except (ValueError, RecursionError) as exc:  # bad syntax, an overlong int, deep nesting
        raise ParseError(f"invalid JSON: {exc}", "$") from None
    obj = _as_object(doc, "$")
    _need(obj, ("schema_version", "id", "n_min", "citation", "lhs", "rhs"), "$")
    version = _as_int(obj["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}", "$.schema_version")
    if not isinstance(obj["lhs"], list):
        raise ParseError("expected a list", "$.lhs")
    lhs = []
    for pos, item in enumerate(obj["lhs"]):
        where = f"$.lhs[{pos}]"
        t = _as_object(item, where)
        _need(t, ("coef", "ratio", "seq", "stride", "offset"), where)
        lhs.append(
            _build(
                GeometricTerm,
                where,
                _rational(t["coef"], f"{where}.coef"),
                _rational(t["ratio"], f"{where}.ratio"),
                _seq_from(t["seq"], f"{where}.seq"),
                _as_int(t["stride"], f"{where}.stride"),
                _as_int(t["offset"], f"{where}.offset"),
            )
        )
    rhs_obj = _as_object(obj["rhs"], "$.rhs")
    _need(rhs_obj, ("outer_coef", "outer_ratio", "beta", "summands"), "$.rhs")
    if not isinstance(rhs_obj["summands"], list):
        raise ParseError("expected a list", "$.rhs.summands")
    summands = []
    for pos, item in enumerate(rhs_obj["summands"]):
        where = f"$.rhs.summands[{pos}]"
        s = _as_object(item, where)
        _need(s, ("coef", "seq", "stride", "offset"), where)
        seq = _seq_from(s["seq"], f"{where}.seq")
        if seq is None:
            raise ParseError("summands require a sequence", f"{where}.seq")
        summands.append(
            _build(
                Summand,
                where,
                _rational(s["coef"], f"{where}.coef"),
                seq,
                _as_int(s["stride"], f"{where}.stride"),
                _as_int(s["offset"], f"{where}.offset"),
            )
        )
    rhs = SumSide(
        _rational(rhs_obj["outer_coef"], "$.rhs.outer_coef"),
        _rational(rhs_obj["outer_ratio"], "$.rhs.outer_ratio"),
        _rational(rhs_obj["beta"], "$.rhs.beta"),
        tuple(summands),
    )
    n_min = _as_int(obj["n_min"], "$.n_min")
    if n_min < 0:
        raise ParseError("n_min must be >= 0", "$.n_min")
    return IdentityDescriptor(
        id=_as_str(obj["id"], "$.id"),
        lhs=tuple(lhs),
        rhs=rhs,
        n_min=n_min,
        citation=_as_str(obj["citation"], "$.citation"),
    )


_KNOWN_SYMBOLS = {
    (Fraction(1), Fraction(1), Fraction(0), Fraction(1)): "F",
    (Fraction(1), Fraction(1), Fraction(2), Fraction(1)): "L",
    (Fraction(2), Fraction(1), Fraction(0), Fraction(1)): "P",
    (Fraction(2), Fraction(1), Fraction(1), Fraction(1)): "Q",
    (Fraction(3), Fraction(1), Fraction(0), Fraction(1)): "B",
}

_FALLBACK_SYMBOLS = ("X", "Y", "Z", "W")


class _SymbolTable:
    """Stable sequence-letter assignment across one rendering."""

    def __init__(self):
        self._generic: dict[tuple, tuple[str, str]] = {}

    def symbol(self, seq: SequenceDef) -> str:
        key = (seq.c1, seq.c2, seq.x0, seq.x1)
        known = _KNOWN_SYMBOLS.get(key)
        if known is not None:
            return known
        if key not in self._generic:
            pos = len(self._generic)
            letter = (
                _FALLBACK_SYMBOLS[pos]
                if pos < len(_FALLBACK_SYMBOLS)
                else f"X_{{({pos})}}"
            )
            self._generic[key] = (letter, seq.label or "unnamed")
        return self._generic[key][0]

    def comment(self) -> str:
        if not self._generic:
            return ""
        assignments = ", ".join(
            f"{letter}: {label}" for letter, label in self._generic.values()
        )
        return f"  % {assignments}"


def _coef_latex(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    if q.denominator == 1:
        return f"{sign}{format_rational(q)}"
    return f"{sign}\\frac{{{format_rational(q.numerator)}}}{{{format_rational(q.denominator)}}}"


def _base_latex(q: Fraction) -> str:
    """Power base: parenthesized when negative or fractional."""
    if q < 0 or q.denominator != 1:
        return f"({format_rational(q)})"
    return format_rational(q)


def _index_latex(stride: int, offset: int, var: str) -> str:
    if stride == 0:
        return str(offset)
    head = var if stride == 1 else f"{stride}{var}"
    if offset == 0:
        return head
    return f"{head}+{offset}" if offset > 0 else f"{head}{offset}"


def _power_latex(coef: Fraction, ratio: Fraction, var: str) -> tuple[str, str]:
    """Split coef*ratio^var into (sign, body); body empty means bare 1."""
    if ratio != 1 and coef == ratio:
        return "+", f"{_base_latex(ratio)}^{{{var}+1}}"
    if ratio != 1 and coef == -ratio:
        return "-", f"{_base_latex(ratio)}^{{{var}+1}}"
    sign = "-" if coef < 0 else "+"
    coef = abs(coef)
    if ratio == 1:
        body = "" if coef == 1 else _coef_latex(coef)
        return sign, body
    power = f"{_base_latex(ratio)}^{{{var}}}"
    if coef == 1:
        return sign, power
    return sign, f"{_coef_latex(coef)} \\cdot {power}"


def _term_latex(t: GeometricTerm, symbols: _SymbolTable) -> tuple[str, str]:
    sign, body = _power_latex(t.coef, t.ratio, "n")
    if t.seq is not None:
        seq_part = f"{symbols.symbol(t.seq)}_{{{_index_latex(t.stride, t.offset, 'n')}}}"
        body = f"{body}{seq_part}" if body else seq_part
    elif not body:
        body = "1"
    return sign, body


def _join_signed(parts: list[tuple[str, str]]) -> str:
    out = []
    for pos, (sign, body) in enumerate(parts):
        if pos == 0:
            out.append(f"-{body}" if sign == "-" else body)
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"


def _summand_latex(s: Summand, symbols: _SymbolTable) -> tuple[str, str]:
    sign = "-" if s.coef < 0 else "+"
    coef = abs(s.coef)
    seq_part = f"{symbols.symbol(s.seq)}_{{{_index_latex(s.stride, s.offset, 'i')}}}"
    if coef == 1:
        return sign, seq_part
    return sign, f"{_coef_latex(coef)}{seq_part}"


def _sum_latex(rhs: SumSide, symbols: _SymbolTable) -> str:
    inner = _join_signed([_summand_latex(s, symbols) for s in rhs.summands])
    if len(rhs.summands) > 1:
        inner = f"\\big({inner}\\big)"
    prefix = ""
    if rhs.outer_coef == -1:
        prefix = "-"
    elif rhs.outer_coef != 1:
        prefix = _coef_latex(rhs.outer_coef)
    if rhs.beta * rhs.outer_ratio == 1:
        # classical presentation: outer_ratio^n * beta^i == t^(n-i)
        weight = f"{_base_latex(rhs.outer_ratio)}^{{n-i}} "
    else:
        outer = (
            ""
            if rhs.outer_ratio == 1
            else f"{_base_latex(rhs.outer_ratio)}^{{n}} \\cdot "
        )
        beta = "" if rhs.beta == 1 else f"{_base_latex(rhs.beta)}^{{i}}"
        prefix = f"{prefix}{outer}" if prefix or outer else ""
        weight = beta
    return f"{prefix}\\sum_{{i=0}}^{{n}} {weight}{inner}".replace("  ", " ")


def to_latex(d: IdentityDescriptor) -> str:
    """One display equation; output bytes depend only on the descriptor."""
    symbols = _SymbolTable()
    lhs = _join_signed([_term_latex(t, symbols) for t in d.lhs if t.coef != 0])
    rhs = _sum_latex(d.rhs, symbols)
    return f"{lhs} = {rhs}{symbols.comment()}"
