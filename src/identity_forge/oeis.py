"""OEIS b-file cross-checks for the named sequence families.

Each supported family maps to an OEIS id whose b-file lists the same terms
(index map a_n = X_n, starting at the b-file's own offset); the ids are
those of :data:`sequences.NAMED_FAMILIES`. ``oeis-check`` fetches the b-file
live first, caches it back into the fixtures directory and falls back to the
fixture when the fetch fails; with ``--offline`` or IDENTITY_FORGE_OFFLINE=1
it reads the fixture alone (bundled copies ship with the package).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .numeric import format_rational, parse_int, quote
from .sequences import NAMED_FAMILIES, named_def, term

FAMILY_TO_OEIS = {key: oeis_id for key, (_, _, oeis_id) in NAMED_FAMILIES.items()}

OEIS_URL = "https://oeis.org/{id}/b{digits}.txt"


class OeisUnavailableError(RuntimeError):
    """Neither the network nor a local fixture could supply the terms."""


@dataclass
class OeisFixture:
    """Parsed b-file: (index, value) pairs with consecutive indices."""

    sequence_id: str
    terms: list[tuple[int, int]]
    source: str  # "live" | "cached"


def parse_bfile(text: str, sequence_id: str, source: str) -> OeisFixture:
    """Parse "index value" lines, ignoring blanks and '#' comments."""
    terms: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{sequence_id} line {lineno}: expected 'index value', got {quote(raw)}")
        index, value = parse_int(fields[0]), parse_int(fields[1])
        if terms and index != terms[-1][0] + 1:
            raise ValueError(
                f"{sequence_id} line {lineno}: non-consecutive index {quote(index)} "
                f"after {quote(terms[-1][0])}"
            )
        terms.append((index, value))
    if not terms:
        raise ValueError(f"{sequence_id}: b-file holds no terms")
    return OeisFixture(sequence_id, terms, source)


def bundled_fixtures_dir() -> Path:
    from importlib import resources  # imported here: only oeis-check reads fixtures

    return Path(resources.files("identity_forge") / "fixtures")


def load_fixture(sequence_id: str, fixtures_dir: Path) -> OeisFixture:
    path = Path(fixtures_dir) / f"{sequence_id}.txt"
    if not path.is_file():
        raise FileNotFoundError(f"no fixture for {sequence_id} under {fixtures_dir}")
    return parse_bfile(path.read_text(), sequence_id, "cached")


def fetch_bfile(sequence_id: str, timeout: float = 30.0) -> str:
    # imported here, not at module level: urllib.request loads http.client,
    # ssl and email, which only a live fetch uses
    import urllib.request

    url = OEIS_URL.format(id=sequence_id, digits=sequence_id[1:])
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def get_terms(
    sequence_id: str,
    offline: bool,
    fixtures_dir: Path,
    cache_dir: Path | None = None,
) -> OeisFixture:
    """Fixture terms for one id; live mode falls back to the fixture on failure."""
    if offline:
        try:
            return load_fixture(sequence_id, fixtures_dir)
        except (FileNotFoundError, ValueError) as exc:
            raise OeisUnavailableError(str(exc)) from None
    try:
        fixture = parse_bfile(fetch_bfile(sequence_id), sequence_id, "live")
    except Exception as exc:  # noqa: BLE001 - any transport failure falls back
        try:
            return load_fixture(sequence_id, fixtures_dir)
        except (FileNotFoundError, ValueError):
            raise OeisUnavailableError(
                f"fetch failed for {sequence_id} ({exc}) and no fixture is available"
            ) from None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        lines = [f"# {sequence_id} b-file (cached from oeis.org)"]
        lines += [f"{format_rational(i)} {format_rational(v)}" for i, v in fixture.terms]
        (cache_dir / f"{sequence_id}.txt").write_text("\n".join(lines) + "\n")
    return fixture


def compare_terms(family: str, fixture: OeisFixture, count: int):
    """First (index, expected, computed) mismatch within count terms, else None."""
    seq = named_def(family)
    for index, value in fixture.terms[:count]:
        computed = term(seq, index)
        if computed != value:
            return index, value, computed
    return None
