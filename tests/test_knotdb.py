"""Bundled reference tables: integrity, round-trips, and the quarantined slots."""

import pathlib
import shutil

import pytest

from homfly3 import knotdb
from homfly3.braid import Braid3Word, reduced_homfly, special_polynomial
from homfly3.knotdb import (
    ALTERNATE_WORDS,
    AMPHICHIRAL,
    GOLDEN_RANKS,
    KNOT_NAMES,
    QUARANTINED,
    MissingFixture,
    TableIntegrityError,
    UnknownKnot,
    golden,
    lookup,
    printed,
    verify_checksums,
)
from homfly3.qpoly import LaurentQA, substitute


# ---------------------------------------------------------------------------
# catalog shape

def test_catalog_lists_nineteen_knots():
    assert len(KNOT_NAMES) == 19
    assert len(set(KNOT_NAMES)) == 19
    assert GOLDEN_RANKS == (1, 2, 3, 4)


def test_lookup_entries():
    e = lookup("3_1")
    assert e.name == "3_1"
    assert e.word == Braid3Word.parse("-1,-1|-1,-1")
    assert set(e.golden) == {1, 2, 3, 4}
    assert e.golden[1].render() == "-A^4 + A^2*q^2 + A^2*q^-2"
    assert lookup("3_1") is e  # cached


def test_all_76_fixtures_parse_canonically():
    count = 0
    for name in KNOT_NAMES:
        for r in GOLDEN_RANKS:
            poly = golden(name, r)
            assert isinstance(poly, LaurentQA)
            assert not poly.is_zero()
            count += 1
    assert count == 76


def test_unknown_and_missing():
    with pytest.raises(UnknownKnot):
        lookup("9_99")
    with pytest.raises(UnknownKnot):
        golden("nonsense", 1)
    with pytest.raises(MissingFixture):
        golden("3_1", 5)
    with pytest.raises(MissingFixture):
        printed("3_1", 1)  # only quarantined slots ship a printed variant


def test_catalog_word_is_parsed_once_per_name():
    # the frozen word is shared by every request for its knot; an unknown
    # name raises every time and leaves nothing cached
    assert knotdb.braid_word("4_1") is knotdb.braid_word("4_1")
    assert knotdb.braid_word("4_1") == Braid3Word.parse(knotdb._WORDS["4_1"])
    entries = knotdb.braid_word.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UnknownKnot):
            knotdb.braid_word("9_99")
    assert knotdb.braid_word.cache_info().currsize == entries


# ---------------------------------------------------------------------------
# checksums

def test_verify_checksums_counts_all_files():
    assert verify_checksums() == 78


def _copy_tables(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "homfly3" / "tables"
    dst = tmp_path / "tables"
    shutil.copytree(src, dst)
    return dst


def test_verify_checksums_detects_tampering(tmp_path, monkeypatch):
    dst = _copy_tables(tmp_path)
    target = dst / "3_1_r1.txt"
    blob = bytearray(target.read_bytes())
    blob[-2] ^= 0x01  # flip one bit inside the polynomial line
    target.write_bytes(bytes(blob))
    monkeypatch.setattr(knotdb, "_tables_root", lambda: dst)
    with pytest.raises(TableIntegrityError, match="checksum mismatch"):
        verify_checksums()


def test_verify_checksums_detects_unlisted_file(tmp_path, monkeypatch):
    dst = _copy_tables(tmp_path)
    (dst / "extra.txt").write_text("stray\n")
    monkeypatch.setattr(knotdb, "_tables_root", lambda: dst)
    with pytest.raises(TableIntegrityError, match="unlisted"):
        verify_checksums()


def test_verify_checksums_detects_missing_file(tmp_path, monkeypatch):
    dst = _copy_tables(tmp_path)
    (dst / "4_1_r2.txt").unlink()
    monkeypatch.setattr(knotdb, "_tables_root", lambda: dst)
    with pytest.raises(TableIntegrityError, match="absent"):
        verify_checksums()


# ---------------------------------------------------------------------------
# fixture-format strictness

def test_parse_fixture_rejects_bad_header():
    with pytest.raises(TableIntegrityError, match="malformed header"):
        knotdb._parse_fixture("3_1", 1, "4_1 1 -1,-1|-1,-1\n-A^4\n")


def test_parse_fixture_rejects_wrong_word():
    with pytest.raises(TableIntegrityError, match="braid word"):
        knotdb._parse_fixture("3_1", 1, "3_1 1 1,1|1,1\n-A^4\n")


def test_parse_fixture_rejects_noncanonical_poly():
    # same polynomial, terms deliberately out of canonical order
    text = "3_1 1 -1,-1|-1,-1\nA^2*q^2 - A^4 + A^2*q^-2\n"
    with pytest.raises(TableIntegrityError, match="canonical"):
        knotdb._parse_fixture("3_1", 1, text)


@pytest.mark.parametrize("text", [
    "3_1 1 -1,-1|-1,-1\n-A^4 + A^^2\n",  # an unreadable polynomial
    "3_1 1 -1,-1|-1,x\n-A^4\n",  # an unreadable braid word
    "3_1 1 -1,-1|-1,-1\nq^(1/4)\n",  # an exponent off the 1/6 lattice
])
def test_parse_fixture_rejects_unreadable_fields(text):
    with pytest.raises(TableIntegrityError, match="fixture 3_1_r1.txt cannot be read"):
        knotdb._parse_fixture("3_1", 1, text)


@pytest.mark.parametrize("text,match", [
    ("8_7 4 -2,1|-1,4\n", "exactly two lines"),
    ("3_1 9 x\n-A^4\n", "malformed header"),
    ("8_7 4 -2,1|-1,4\nA^2*q^2 - A^4 + A^2*q^-2\n", "canonical"),
], ids=["one-line", "wrong-header", "non-canonical"])
def test_printed_fixture_gets_the_golden_checks(monkeypatch, text, match):
    monkeypatch.setattr(knotdb, "_read_table", lambda fname: text)
    knotdb.printed.cache_clear()
    with pytest.raises(TableIntegrityError, match="fixture 8_7_r4.printed.txt .*" + match):
        printed("8_7", 4)


# ---------------------------------------------------------------------------
# engine agreement spot-checks (the acceptance suite covers all 19 x 4)

@pytest.mark.parametrize("r", [1, 2, 3])
def test_engine_matches_golden_trefoil(r):
    e = lookup("3_1")
    assert reduced_homfly(e.word, r) == e.golden[r]


@pytest.mark.parametrize("r", [1, 2])
def test_alternate_word_same_invariant(r):
    (alt,) = ALTERNATE_WORDS["8_19"]
    assert reduced_homfly(Braid3Word.parse(alt), r) == golden("8_19", r)


@pytest.mark.parametrize("name", AMPHICHIRAL)
def test_amphichiral_tables_invert_invariant(name):
    h = golden(name, 1)
    assert substitute(h, "invert") == h


# ---------------------------------------------------------------------------
# quarantined printed slots

def test_quarantine_map_contents():
    assert dict(QUARANTINED) == {
        ("8_7", 4): ("8_10", 4),
        ("8_20", 3): ("8_5", 3),
    }


@pytest.mark.parametrize("slot,dup", sorted(QUARANTINED.items()))
def test_printed_slot_duplicates_other_knot(slot, dup):
    name, r = slot
    other, other_r = dup
    assert printed(name, r) == golden(other, other_r)
    assert printed(name, r) != golden(name, r)


@pytest.mark.parametrize("slot,dup", sorted(QUARANTINED.items()))
def test_quarantine_special_factorization_evidence(slot, dup):
    # at q = 1 the rank-r table must be the r-th power of the rank-1 table;
    # the corrected value passes with its own knot, the printed duplicate
    # passes with the OTHER knot's rank-1 special instead
    name, r = slot
    other, _ = dup
    own_base = special_polynomial(golden(name, 1))
    other_base = special_polynomial(golden(other, 1))

    corrected = special_polynomial(golden(name, r))
    assert corrected == own_base ** r
    assert corrected != other_base ** r

    duplicate = special_polynomial(printed(name, r))
    assert duplicate == other_base ** r
    assert duplicate != own_base ** r
