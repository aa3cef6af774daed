"""JSON wire format and LaTeX rendering for identity descriptors.

The wire format is stated once, as one field table per wire object, which
to_json and from_json both read. Rationals travel as canonical "p/q" text
(never floating point), so a descriptor survives a round trip field for
field. The LaTeX renderer emits one display equation per descriptor, and
one term renderer draws both of its sides: each LHS term and each summand
is coef * ratio^v * X_{stride*v + offset}, at v = n and at v = i with ratio
1. Recognizable families get their conventional letters (F, L, P, Q, B), read
from :data:`sequences.NAMED_FAMILIES`, and anything else falls back to X, Y,
Z, W, then X^{(4)}, ... in order of first use, with the labels in a trailing
comment. When beta * outer_ratio = 1 the sum is rendered in the classical
t^(n-i) presentation.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import GeometricTerm, IdentityDescriptor, Summand, SumSide
from .numeric import format_rational, parse_int, parse_rational, quote
from .sequences import NAMED_FAMILIES, SequenceDef

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed descriptor document; carries the offending location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{message} (at {location})")
        self.location = location


def _value(cls, expected: str, convert=None, encode=lambda value: value):
    """The field kind of a JSON value of type cls, decoded by convert.

    A field kind is a pair (encode, decode): encode(value) gives the field's
    JSON value, and decode(value, where) the field's value from a JSON value,
    or raises a ParseError at the field's location where.
    """

    def decode(value, where: str):
        if type(value) is not cls:  # a bool is no int here
            raise ParseError(f"expected {expected}", where)
        if convert is None:
            return value
        try:
            return convert(value)
        except ValueError as exc:
            raise ParseError(str(exc), where) from None

    return encode, decode


def _object(build, **fields):
    """The field kind of a wire object, from its field table: each field's
    name and kind, in document order, and the type that build makes of the
    decoded values, in that order. The first fault in document order is the
    one reported, and a value the type refuses is reported at the object."""
    names = fields.keys()
    table = tuple((name, enc, dec) for name, (enc, dec) in fields.items())

    def encode(obj) -> dict:
        doc = {}
        for name, enc, _ in table:
            # schema_version is no attribute of a descriptor; its kind writes the constant
            doc[name] = enc(getattr(obj, name, None))
        return doc

    def decode(value, where: str):
        if type(value) is not dict:
            raise ParseError("expected an object", where)
        if value.keys() != names:
            extra = value.keys() - names
            if extra:
                raise ParseError(f"unknown field {quote(min(extra))}", where)
            missing = next(name for name in names if name not in value)
            raise ParseError(f"missing field {missing!r}", where)
        args = [dec(value[name], f"{where}.{name}") for name, _, dec in table]
        try:
            return build(*args)
        except ValueError as exc:  # a value the type itself refuses
            raise ParseError(str(exc), where) from None

    return encode, decode


def _list_of(kind):
    """The field kind of a list of one kind's values, decoded as a tuple."""
    encode, decode = kind

    def decode_list(value, where: str) -> tuple:
        if type(value) is not list:
            raise ParseError("expected a list", where)
        return tuple([decode(item, f"{where}[{pos}]") for pos, item in enumerate(value)])

    return (lambda items: [encode(item) for item in items]), decode_list


def _or_null(kind, refusal: str | None = None):
    """kind, with null for None; a null is refused with refusal, if one is given."""
    encode, decode = kind

    def decode_or_null(value, where: str):
        if value is None and refusal is not None:
            raise ParseError(refusal, where)
        return None if value is None else decode(value, where)

    return (lambda value: None if value is None else encode(value)), decode_or_null


def _version(version: int) -> int:
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")
    return version


def _n_min(n_min: int) -> int:
    if n_min < 0:
        raise ValueError("n_min must be >= 0")
    return n_min


_RATIONAL = _value(str, "a string", parse_rational, format_rational)
_INT = _value(int, "an integer")
_STRING = _value(str, "a string")
_SEQUENCE = _object(SequenceDef, c1=_RATIONAL, c2=_RATIONAL, x0=_RATIONAL, x1=_RATIONAL, label=_STRING)
_TERM = _object(
    GeometricTerm, coef=_RATIONAL, ratio=_RATIONAL, seq=_or_null(_SEQUENCE), stride=_INT, offset=_INT
)
_SUMMAND_SEQUENCE = _or_null(_SEQUENCE, "summands require a sequence")
_SUMMAND = _object(Summand, coef=_RATIONAL, seq=_SUMMAND_SEQUENCE, stride=_INT, offset=_INT)
_SUM_SIDE = _object(
    SumSide, outer_coef=_RATIONAL, outer_ratio=_RATIONAL, beta=_RATIONAL, summands=_list_of(_SUMMAND)
)
_encode_document, _decode_document = _object(
    lambda _, id, n_min, citation, lhs, rhs: IdentityDescriptor(id, lhs, rhs, n_min, citation),
    schema_version=_value(int, "an integer", _version, lambda _: SCHEMA_VERSION),
    id=_STRING,
    n_min=_value(int, "an integer", _n_min),
    citation=_STRING,
    lhs=_list_of(_TERM),
    rhs=_SUM_SIDE,
)


def to_json(d: IdentityDescriptor, indent: int | None = 2) -> str:
    """Serialize in the field tables' key order; output is deterministic."""
    import json  # imported here, not at module level: only the --json paths use it

    return json.dumps(_encode_document(d), indent=indent)


def from_json(text: str) -> IdentityDescriptor:
    """Parse a descriptor document, re-canonicalizing any unreduced rationals."""
    import json  # imported here, not at module level: only the --json paths use it

    try:
        doc = json.loads(text, parse_int=parse_int)
    except (ValueError, RecursionError) as exc:  # bad syntax, an overlong int, deep nesting
        raise ParseError(f"invalid JSON: {exc}", "$") from None
    return _decode_document(doc, "$")


_KNOWN_SYMBOLS = {
    (seq.c1, seq.c2, seq.x0, seq.x1): letter for seq, letter, _ in NAMED_FAMILIES.values() if letter
}

_FALLBACK_SYMBOLS = ("X", "Y", "Z", "W")


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


def _term_latex(t: GeometricTerm | Summand, ratio, var: str, letters: dict) -> tuple[str, str]:
    """(sign, body) of t.coef * ratio^var * X_{t.stride*var + t.offset}.

    An LHS term renders at var = n with its own ratio, a summand at var = i
    with ratio 1. X is the letter of a named family, else the next generic
    letter in order of first use, which letters records with its label.
    """
    coef = t.coef
    if ratio != 1 and abs(coef) == abs(ratio):
        sign = "+" if coef == ratio else "-"
        body = f"{_base_latex(ratio)}^{{{var}+1}}"
    else:
        sign = "-" if coef < 0 else "+"
        body = "" if abs(coef) == 1 else _coef_latex(abs(coef))
        if ratio != 1:
            power = f"{_base_latex(ratio)}^{{{var}}}"
            body = f"{body} \\cdot {power}" if body else power
    seq = t.seq
    if seq is None:
        return sign, body or "1"
    key = seq.c1, seq.c2, seq.x0, seq.x1
    letter = _KNOWN_SYMBOLS.get(key)
    if letter is None:
        if key not in letters:
            pos = len(letters)
            generic = _FALLBACK_SYMBOLS[pos] if pos < len(_FALLBACK_SYMBOLS) else f"X^{{({pos})}}"
            letters[key] = generic, seq.label or "unnamed"
        letter = letters[key][0]
    if t.stride == 0:
        index = str(t.offset)
    else:
        index = var if t.stride == 1 else f"{t.stride}{var}"
        if t.offset:
            index += f"{t.offset:+d}"
    return sign, f"{body}{letter}_{{{index}}}"


def _join_signed(parts: list[tuple[str, str]]) -> str:
    out = []
    for pos, (sign, body) in enumerate(parts):
        if pos == 0:
            out.append(f"-{body}" if sign == "-" else body)
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"


def to_latex(d: IdentityDescriptor) -> str:
    """One display equation; output bytes depend only on the descriptor."""
    letters = {}  # generic letter and label per sequence value, in order of first use
    lhs = _join_signed([_term_latex(t, t.ratio, "n", letters) for t in d.lhs if t.coef != 0])
    rhs = d.rhs
    inner = _join_signed([_term_latex(s, 1, "i", letters) for s in rhs.summands])
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
        if rhs.outer_ratio != 1:
            base = _base_latex(rhs.outer_ratio)
            if prefix[-1:].isdigit() and base[0].isdigit():  # 2 and 3^{n} must not read as 23^{n}
                prefix += " \\cdot "
            prefix += f"{base}^{{n}} \\cdot "
        weight = "" if rhs.beta == 1 else f"{_base_latex(rhs.beta)}^{{i}}"
    equation = f"{lhs} = {prefix}\\sum_{{i=0}}^{{n}} {weight}{inner}"
    comment = ", ".join(f"{letter}: {label}" for letter, label in letters.values())
    return f"{equation}  % {comment}" if comment else equation
