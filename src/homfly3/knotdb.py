"""Knot catalog: braid words and golden reduced polynomials for r = 1..4.

Nineteen 3-strand knots are bundled, each with its braid word and four
reference polynomials h_[1]..h_[4] stored as text fixtures under
``homfly3/tables/``.  Fixture format: line 1 is ``<name> <r> <braid word>``,
line 2 is the polynomial in the canonical Laurent string format of
:mod:`homfly3.qpoly`.  A SHA-256 manifest covers every fixture file;
:func:`verify_checksums` fails loudly on any drift.

Two entries are *quarantined*: the upstream table set prints, for those two
slots, a byte-for-byte duplicate of a different knot's polynomial.  The
stored golden value is the recomputed one (cross-checked by the q = 1
factorization property and the r = 1 Jones specialization), and the literal
printed reading is preserved alongside as ``<name>_r<r>.printed.txt`` so the
misprint identification itself stays machine-checkable.  See ``QUARANTINED``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from .braid import Braid3Word
from .qpoly import LaurentQA

__all__ = [
    "KnotEntry",
    "UnknownKnot",
    "MissingFixture",
    "TableIntegrityError",
    "KNOT_NAMES",
    "GOLDEN_RANKS",
    "ALTERNATE_WORDS",
    "QUARANTINED",
    "AMPHICHIRAL",
    "lookup",
    "golden",
    "printed",
    "braid_word",
    "fixture_text",
    "verify_checksums",
]


class UnknownKnot(KeyError):
    """The requested name is not one of the bundled knots."""


class MissingFixture(KeyError):
    """No golden fixture is bundled for the requested (knot, r)."""


class TableIntegrityError(RuntimeError):
    """A bundled fixture file is missing, unlisted, or fails its checksum."""


#: Catalog rows: (Rolfsen label, braid word) in table order.
_CATALOG = (
    ("3_1", "-1,-1|-1,-1"),
    ("4_1", "1,-1|1,-1"),
    ("5_2", "1,-1|1,3"),
    ("6_2", "1,-1|1,-3"),
    ("6_3", "2,-1|1,-2"),
    ("7_3", "1,-1|1,5"),
    ("7_5", "-2,1|-1,-4"),
    ("8_2", "1,-1|1,-5"),
    ("8_5", "-1,3|-1,3"),
    ("8_7", "-2,1|-1,4"),
    ("8_9", "3,-1|1,-3"),
    ("8_10", "-2,2|-1,3"),
    ("8_16", "1,-1|1,-2|1,-2"),
    ("8_17", "2,-1|1,-1|1,-2"),
    ("8_18", "1,-1|1,-1|1,-1|1,-1"),
    ("8_19", "1,3|1,3"),
    ("8_20", "-1,-3|-1,3"),
    ("8_21", "-2,2|-1,-3"),
    ("10_139", "2,3|1,4"),
)

#: Names in catalog order.
KNOT_NAMES = tuple(name for name, _ in _CATALOG)

#: Ranks r with a bundled golden fixture, for every knot.
GOLDEN_RANKS = (1, 2, 3, 4)

_WORDS = dict(_CATALOG)

#: Knots listed with more than one braid word; all words of a knot must give
#: the same reduced polynomial (checked by the test suite).
ALTERNATE_WORDS = MappingProxyType(
    {"8_19": ("1,1|1,1|1,1|1,1",)}
)

#: Quarantined golden slots: (name, r) -> (other name, other r) whose
#: polynomial the upstream table prints in this slot.  The golden fixture
#: for a quarantined slot is the recomputed value; the literal printed
#: reading is available via :func:`printed` and must equal
#: ``golden(other, other_r)`` exactly (re-verified by tests).
QUARANTINED = MappingProxyType(
    {
        ("8_7", 4): ("8_10", 4),
        ("8_20", 3): ("8_5", 3),
    }
)

#: Amphichiral knots in the catalog: the reduced polynomial is invariant
#: under A -> 1/A, q -> 1/q.
AMPHICHIRAL = ("4_1", "6_3", "8_9", "8_17", "8_18")


@dataclass(frozen=True)
class KnotEntry:
    """One catalog row: name, braid word, and the golden polynomials."""

    name: str
    word: Braid3Word
    golden: MappingProxyType  # {r: LaurentQA}


def _tables_root():
    return resources.files(__package__).joinpath("tables")


def _read_table(fname):
    node = _tables_root().joinpath(fname)
    try:
        return node.read_text(encoding="ascii")
    except (FileNotFoundError, OSError):
        raise MissingFixture(fname)


def fixture_text(name, r):
    """Raw two-line fixture text for (name, r)."""
    _check_name(name)
    _check_rank(name, r)
    return _read_table("%s_r%d.txt" % (name, r))


def _check_name(name):
    if name not in _WORDS:
        raise UnknownKnot(name)


def _check_rank(name, r):
    if r not in GOLDEN_RANKS:
        raise MissingFixture("%s r=%r (bundled fixtures cover r=1..4)" % (name, r))


def _parse_fixture(name, r, text):
    fname = "%s_r%d.txt" % (name, r)
    lines = text.splitlines()
    if len(lines) != 2:
        raise TableIntegrityError("fixture %s must have exactly two lines" % fname)
    head = lines[0].split()
    if len(head) != 3 or head[0] != name or head[1] != str(r):
        raise TableIntegrityError(
            "fixture %s has a malformed header line: %r" % (fname, lines[0]))
    if _read(Braid3Word.parse, head[2], fname) != Braid3Word.parse(_WORDS[name]):
        raise TableIntegrityError(
            "fixture %s carries braid word %r, catalog says %r"
            % (fname, head[2], _WORDS[name])
        )
    poly = _read(LaurentQA.parse, lines[1], fname)
    if poly.render() != lines[1]:
        raise TableIntegrityError("fixture %s is not in canonical form" % fname)
    return poly


def _read(parse, text, fname):
    """parse(text), a fault in the text raised as TableIntegrityError
    naming the fixture file."""
    try:
        return parse(text)
    except ValueError as exc:
        raise TableIntegrityError("fixture %s cannot be read: %s" % (fname, exc)) from exc


@lru_cache(maxsize=None)
def golden(name, r):
    """Golden reduced polynomial h_[r] of the named knot, as LaurentQA.

    Raises UnknownKnot for names outside the catalog and MissingFixture for
    ranks without a bundled fixture (r must be 1..4).
    """
    return _parse_fixture(name, r, fixture_text(name, r))


@lru_cache(maxsize=None)
def printed(name, r):
    """Literal printed reading for a quarantined slot, as LaurentQA.

    Only quarantined (name, r) slots have a printed file; for everything
    else the printed table IS the golden fixture and this raises
    MissingFixture.
    """
    _check_name(name)
    if (name, r) not in QUARANTINED:
        raise MissingFixture(
            "%s r=%r is not quarantined; use golden()" % (name, r)
        )
    fname = "%s_r%d.printed.txt" % (name, r)
    return _read(LaurentQA.parse, _read_table(fname).splitlines()[1], fname)


def braid_word(name):
    """The catalog braid word of the named knot."""
    _check_name(name)
    return Braid3Word.parse(_WORDS[name])


@lru_cache(maxsize=None)
def lookup(name):
    """Catalog entry for the named knot; raises UnknownKnot otherwise."""
    _check_name(name)
    table = {r: golden(name, r) for r in GOLDEN_RANKS}
    return KnotEntry(
        name=name,
        word=braid_word(name),
        golden=MappingProxyType(table),
    )


def verify_checksums():
    """Re-hash every bundled table file against MANIFEST.sha256.

    Returns the number of files verified.  Raises TableIntegrityError if
    the manifest is missing, any listed file is absent or altered (even by
    a single character), or an unlisted file sits in the tables directory.
    """
    root = _tables_root()
    try:
        manifest = root.joinpath("MANIFEST.sha256").read_text(encoding="ascii")
    except (FileNotFoundError, OSError):
        raise TableIntegrityError("MANIFEST.sha256 is missing")

    listed = {}
    for line in manifest.splitlines():
        if not line.strip():
            continue
        digest, _, fname = line.partition("  ")
        if len(digest) != 64 or not fname:
            raise TableIntegrityError("malformed manifest line: %r" % line)
        listed[fname] = digest

    present = {
        node.name
        for node in root.iterdir()
        if node.name != "MANIFEST.sha256" and not node.name.startswith(".")
    }
    missing = sorted(set(listed) - present)
    unlisted = sorted(present - set(listed))
    if missing:
        raise TableIntegrityError("files in manifest but absent: %s" % missing)
    if unlisted:
        raise TableIntegrityError("files present but unlisted: %s" % unlisted)

    for fname, digest in sorted(listed.items()):
        blob = root.joinpath(fname).read_bytes()
        actual = hashlib.sha256(blob).hexdigest()
        if actual != digest:
            raise TableIntegrityError(
                "checksum mismatch for %s: manifest %s, actual %s"
                % (fname, digest, actual)
            )
    return len(listed)
