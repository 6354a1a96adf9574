"""Command-line front end: modes, exit codes, formats, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfly3 import cli
from homfly3.braid import TRACE_BYTES
from homfly3.cli import run
from homfly3.knotdb import KNOT_NAMES, golden
from homfly3.qpoly import substitute


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# compute

def test_compute_reduced_trefoil():
    code, out, err = invoke(
        "compute", "--braid", "-1,-1|-1,-1", "--rep", "1", "--out", "reduced"
    )
    assert code == 0
    assert out == "-A^4 + A^2*q^2 + A^2*q^-2\n"
    assert err == ""


def test_compute_by_knot_name():
    code, out, _ = invoke("compute", "--knot", "6_2", "--rep", "2", "--out", "reduced")
    assert code == 0
    assert out.strip() == golden("6_2", 2).render()


def test_compute_whitespace_insensitive():
    code, out, _ = invoke(
        "compute", "--braid", " -1 , -1 | -1 , -1 ", "--rep", "1", "--out", "reduced"
    )
    assert code == 0
    assert out == "-A^4 + A^2*q^2 + A^2*q^-2\n"


def test_compute_multiple_outputs_labelled():
    code, out, _ = invoke(
        "compute", "--braid", "-1,-1|-1,-1", "--rep", "1",
        "--out", "reduced,special",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reduced: -A^4 + A^2*q^2 + A^2*q^-2"
    assert lines[1] == "special: -A^4 + 2*A^2"


def test_compute_antisymmetric_rep():
    code, out, _ = invoke(
        "compute", "--knot", "4_1", "--rep", "1^2", "--out", "reduced"
    )
    assert code == 0
    assert out.strip() == substitute(golden("4_1", 2), "q->-1/q").render()


def test_compute_json_schema_keys():
    code, out, _ = invoke(
        "compute", "--braid", "-1,-1|-1,-1", "--rep", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "braid", "r", "writhe", "coefficients", "reduced", "special", "jones",
    ]
    assert payload["braid"] == "-1,-1|-1,-1"
    assert payload["r"] == 1
    assert payload["writhe"] == -4
    assert payload["reduced"] == "-A^4 + A^2*q^2 + A^2*q^-2"


def test_compute_is_deterministic():
    first = invoke("compute", "--knot", "5_2", "--rep", "2", "--format", "json")
    second = invoke("compute", "--knot", "5_2", "--rep", "2", "--format", "json")
    assert first == second


# In a fresh interpreter: import the command line and answer one braid
# request, printing every module loaded since the first line; then import
# every homfly3 module, answer two requests, one of them verify (whose
# checksum count is printed), and print every module loaded by then.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
print(*sorted(before))
import io, homfly3.cli
assert homfly3.cli.run(["compute", "--braid", "1,-1|1,-1", "--rep", "2"],
                       io.StringIO(), io.StringIO()) == 0
print(*sorted(set(sys.modules) - before))
import pkgutil, homfly3
for info in pkgutil.iter_modules(homfly3.__path__):
    __import__("homfly3." + info.name)
checked = []
real = homfly3.knotdb.verify_checksums
homfly3.knotdb.verify_checksums = lambda: checked.append(real()) or checked[-1]
for argv in (["compute", "--knot", "3_1", "--rep", "2", "--out", "extended"],
             ["verify", "--knot", "4_1"]):
    assert homfly3.cli.run(argv, io.StringIO(), io.StringIO()) == 0, argv
print(homfly3.__file__)
print(*sorted(set(sys.modules) - before))
print(*checked)
"""

# loaded only by what a braid compute request never runs: dataclasses and
# importlib.resources (knotdb's tables) bring inspect, hashlib (verify's
# checksums) loads OpenSSL, and racah_eigen is the eigenvalue cross-check
_COLD_START_EXCLUDED = ("dataclasses", "inspect", "hashlib", "_hashlib",
                        "homfly3.racah_eigen")


def test_runtime_imports_only_the_standard_library():
    # an accidental third-party import would pass every other test on a host
    # that has the package installed
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bare, request, where, loaded, checked = done.stdout.splitlines()
    assert Path(where).resolve().parent == src / "homfly3"
    foreign = [name for name in loaded.split()
               if name.partition(".")[0] not in sys.stdlib_module_names | {"homfly3"}]
    assert "homfly3.qpoly" in loaded.split() and foreign == []
    # a compute request imports none of them, unless the bare interpreter
    # had (site hooks may); verify still hashes every table file
    assert "homfly3.cli" in request.split() and "homfly3.racah_eigen" in loaded.split()
    assert set(request.split()) & set(_COLD_START_EXCLUDED) == set()
    assert "hashlib" in bare.split() + loaded.split()
    assert int(checked) >= 76


def test_extended_text_is_pinned():
    # compute --out extended for every catalog knot at r = 1..4, recorded
    # while the extended polynomial was still summed as C_Q * S_Q products
    texts = []
    for name in KNOT_NAMES:
        for r in (1, 2, 3, 4):
            code, out, err = invoke("compute", "--knot", name, "--rep", str(r),
                                    "--out", "extended")
            assert (code, err) == (0, "")
            texts.append(out)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "00e39c1534dc7f8bc0a285bcbf8d97604b580e148e71e33e2889ac9743db6f0f")


# a usage error, no mode, a braid word starting with '-', --out given twice
# (each twice, so state left behind by one parse would show in the next)
PARSER_SEQUENCE = [
    ("compute", "--braid", "-1,-1|-1,-1", "--out", "reduced", "--out", "special"),
    ("compute", "--knot", "3_1", "--rep", "2", "--bogus"),
    (),
    ("verify", "--knot", "4_1", "--knot", "3_1", "--rep", "1"),
    ("compute", "--braid", "-1,-1|-1,-1", "--out", "reduced", "--out", "special"),
    ("compute", "--knot", "4_1", "--rep", "1^2", "--format", "json"),
    ("compute", "--knot", "3_1", "--rep", "2", "--bogus"),
    (),
    ("compute", "--rep", "2"),
    ("compute", "--knot", "4_1", "--out", "coefficients"),
    ("racah-dump", "--dim", "2", "--p", "1"),
    ("table", "--rep", "2", "--format", "json"),
]


def test_cached_parser_behaves_like_a_fresh_one():
    cli._build_parser.cache_clear()
    shared = [invoke(*argv) for argv in PARSER_SEQUENCE]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(invoke(*argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_compute_link_note_on_stderr():
    code, out, err = invoke(
        "compute", "--braid", "1,1|1,1|1,1", "--rep", "1", "--out", "coefficients"
    )
    assert code == 0
    assert "components!=1 unverified" in err
    assert "[2,1]: 2" in out


def test_compute_link_reduced_fails_cleanly():
    code, _, err = invoke(
        "compute", "--braid", "1,1|1,1|1,1", "--rep", "1", "--out", "reduced"
    )
    assert code == 2
    assert "multi-component" in err


# ---------------------------------------------------------------------------
# exit codes on malformed / unsupported requests

# more digits than int() converts by default (4,300 since Python 3.11)
NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--braid", "1,2,3", "--rep", "1"),
        ("compute", "--rep", "1"),  # neither braid nor knot
        ("compute", "--braid", "1,1", "--knot", "3_1", "--rep", "1"),  # both
        ("compute", "--knot", "9_99", "--rep", "1"),
        ("compute", "--braid", "1,1", "--rep", "0"),
        ("table",),  # table requires --rep
        ("racah-dump", "--dim", "3", "--p", "1"),  # degenerate denominator
        ("racah-dump", "--dim", "5", "--p", "0"),  # p must be positive
        ("racah-dump", "--dim", "2", "--p", "-1"),
        ("verify", "--rep", "0..100000000000"),
        # numbers are ASCII digit strings, nothing else that int() takes
        ("racah-dump", "--dim", "1_0", "--p", "2"),
        ("racah-dump", "--dim", "+3", "--p", "2"),
        ("racah-dump", "--dim", " 3", "--p", "2"),
        ("racah-dump", "--dim", "3", "--p", "-" + NINES),
        ("racah-dump", "--dim", "3", "--p", "\u0663"),  # an Arabic-Indic three
        ("compute", "--braid", "1,1", "--rep", "\u0663"),
        ("table", "--rep", "\u0663"),
        ("verify", "--knot", "3_1", "--rep", "1..\u0662"),
        # braid exponents are an optional '-' and ASCII digits
        ("compute", "--braid", "+1,1", "--rep", "1"),
        ("compute", "--braid", "1_0,1", "--rep", "1"),
        ("compute", "--braid", "\u0663,1", "--rep", "1"),
    ],
)
def test_parse_errors_exit_1(argv):
    code, _, err = invoke(*argv)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--braid", "1,1", "--rep", "5"),
        ("compute", "--braid", "1,1", "--rep", "1^5"),
        ("racah-dump", "--dim", "6", "--p", "6"),
        ("verify", "--rep", "1..100000000000"),  # refused before the range is built
        # over the cap at any length, before int() converts it
        ("racah-dump", "--dim", NINES, "--p", "2"),
        ("racah-dump", "--dim", "2", "--p", NINES),
        ("racah-dump", "--dim", "0" * 5000 + "6", "--p", "2"),
        ("racah-dump", "--dim", "99999", "--p", "2"),
    ],
)
def test_unsupported_exit_3(argv):
    code, _, err = invoke(*argv)
    assert code == 3
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--braid", "1,1", "--rep", NINES),
        ("verify", "--rep", "1.." + NINES),
        ("table", "--rep", NINES),
    ],
)
def test_rank_of_any_length_exits_3_with_a_short_message(argv):
    code, out, err = invoke(*argv)
    assert (code, out) == (3, "")
    assert "unsupported" in err and len(err) < 200


# a value of 5,000 characters in each message that echoes user text
LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--knot", LONG),
        ("verify", "--knot", LONG),
        ("compute", "--knot", "3_1", "--out", LONG),
        ("compute", "--knot", "3_1", "--format", LONG),  # argparse: invalid choice
        ("compute", "--knot", "3_1", LONG),  # argparse: unrecognized arguments
        ("racah-dump", "--dim", LONG, "--p", "2"),
        ("racah-dump", "--dim", "2", "--p", LONG),
        (LONG,),  # argparse: invalid mode
        ("compute", "--help=" + LONG),  # argparse: ignored explicit argument
        ("-h" + LONG,),
    ],
)
def test_echoed_user_text_is_clipped(argv):
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert 0 < len(err) < 200


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("compute", "-h")])
def test_help_goes_to_out_and_exits_0(argv, capsys):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: homfly3")
    assert capsys.readouterr() == ("", "")


def test_main_prints_help_and_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: homfly3")
    # the rank range is formatted from the cap, however the text wraps
    assert "ranks 1..%d)." % cli.MAX_RANK in " ".join(out.split())


def test_braid_exponent_of_any_length_gets_a_short_message():
    code, out, err = invoke("compute", "--braid", NINES + ",1", "--rep", "1")
    assert len(err) < 200
    # int() refuses the exponent under a digit limit; without one the
    # trace budget refuses the word
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < len(NINES):
        assert (code, out) == (1, "") and "bad integer" in err
    else:
        assert (code, out) == (3, "")


def test_braid_exponent_of_4300_digits_exits_3_with_a_short_message():
    # int() converts it, but the packed size has more than 4,300 digits
    code, out, err = invoke("compute", "--braid", "9" * 4300 + ",1", "--rep", "1")
    assert (code, out) == (3, "")
    assert "needs over 2^" in err and len(err) < 200


def test_oversized_braid_word_exits_3_before_packing():
    # refused before any power of a block's pair is formed, at every rank
    for rep in ("1", "3", "4"):
        code, out, err = invoke("compute", "--braid", "99999999999,1", "--rep", rep)
        assert (code, out) == (3, "")
        m = re.search(r"needs (\d+) bytes", err)
        assert m and int(m.group(1)) > TRACE_BYTES


# ---------------------------------------------------------------------------
# verify

def test_verify_single_knot_all_ranks():
    code, out, _ = invoke("verify", "--knot", "4_1", "--rep", "1..4")
    assert code == 0
    assert "4/4 pass" in out


def test_verify_json_single_pair():
    code, out, _ = invoke("verify", "--knot", "3_1", "--rep", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == 1
    assert payload["total"] == 1
    assert payload["results"][0] == {"knot": "3_1", "r": 1, "pass": True}


def test_verify_checks_a_repeated_knot_once():
    argv = ("verify", "--knot", "4_1", "--knot", "3_1", "--knot", "4_1", "--rep", "1,1")
    code, out, _ = invoke(*argv)
    assert code == 0
    assert out == "4_1 r=1: PASS\n3_1 r=1: PASS\n2/2 pass\n"
    code, out, _ = invoke(*argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["passed"], payload["total"]) == (2, 2)
    assert [(x["knot"], x["r"]) for x in payload["results"]] == [("4_1", 1), ("3_1", 1)]


# ---------------------------------------------------------------------------
# table

def test_table_r3_matches_block_census():
    code, out, _ = invoke("table", "--rep", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["Q", "j_min", "j_max", "mult"]
    assert len(lines) == 13  # header + 12 blocks
    assert lines[1].split() == ["[9]", "0", "0", "1"]
    assert lines[5].split() == ["[6,3]", "0", "3", "4"]
    assert lines[12].split() == ["[3,3,3]", "3", "3", "1"]


def test_table_json():
    code, out, _ = invoke("table", "--rep", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 2
    rows = {row["Q"]: row["multiplicity"] for row in payload["rows"]}
    assert rows["[4,2]"] == 3
    assert rows["[2,2,2]"] == 1


# ---------------------------------------------------------------------------
# racah-dump

def test_racah_dump_2x2():
    code, out, _ = invoke("racah-dump", "--dim", "2", "--p", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "U(2|1):"
    assert lines[1] == "[0][0] = (q)/(q^2 + 1)"
    assert len(lines) == 5


def test_racah_dump_refuses_p_past_the_cap_before_building(monkeypatch):
    def unbuilt(n, p):
        raise AssertionError("U(%d|%d) was built" % (n, p))

    with monkeypatch.context() as m:
        m.setattr(cli, "racah_su2", unbuilt)
        code, out, err = invoke("racah-dump", "--dim", "5", "--p", str(cli.MAX_P + 1))
    assert (code, out) == (3, "")
    assert "unsupported" in err and "p <= %d" % cli.MAX_P in err
    code, out, err = invoke("racah-dump", "--dim", "2", "--p", str(cli.MAX_P))
    assert (code, err) == (0, "")
    assert out.startswith("U(2|%d):\n" % cli.MAX_P)


# sha256 of the text and the --format json output of racah-dump for every
# (N, p) with N = 2..5 and p = N-1..6, recorded from the transcribed closed
# forms that built U before the recoupling sum did
RACAH_DUMP_SHA256 = {
    (2, 1): ("1c03322baf35da1d627e46df1ef3b616327b084df96b31e4a4cd1ed6b6006376",
             "47d4b79738fd52767592c0eaf4d65814521d2ab103e76f7c68e8f4d4544779eb"),
    (2, 2): ("cfa4c8bcd8dc2c511bdac3449681ef1069f0d595e1aa8a7449bd29c895fb3653",
             "d1ab8f25a7581ed25d8db38062e69af392584a9d8975d9732d732c6b95c5a230"),
    (2, 3): ("e7d0cea1fa147ea5dd9ec1970be9a4cf5d733f1e8ae4f6873d6a99aeab298785",
             "384aaa79140b4bb2e7cdcdc9b5658afdea327d91d0824d7343dbd10faa975b65"),
    (2, 4): ("d223c2b7adcfbca5eac242534d7d5d762a9dd1f98c692aba6421c249500ed01f",
             "bbb8c10b6a8ae3c440bfcc74a7c6e56aedc66cdb637293983a2f9b15dd8b2013"),
    (2, 5): ("045fcb240f4355b889a1f473127fb1cf7da4f23fd1a3d6fc38da014fa6914da7",
             "a39aec80d6f7c09f1278ce7b358d1a2e429ca9ad7c2a0e01a31ed6c4e47814b2"),
    (2, 6): ("bc73d0ad438ddd60d3fc97401a2668b21671d780b753e2071c5b311265d4e902",
             "b9b6bbe2657b365ddec92344f9e350281b44c52dd8d02308516450b6b68b9709"),
    (3, 2): ("5eb15eb50764924f49be56517c01145c7b5013e8255b8ac5b70b709688c32623",
             "e921af892fa4e2b2bf89ea3429028e3d29a67d28f065e430de5e422272470948"),
    (3, 3): ("5776339320d5f6293cbfb007e495dbda1621381765f27dafdb48cc9fe0a834f8",
             "2e225f2d390e52e6e6608418dddcf2ec72e72c9519bb23b86047c642587969dd"),
    (3, 4): ("a741321c87ef6889eb5bafa44157893107d527a4c5c794c80252d7a204148995",
             "f7b08feb48bb52b744c4a5f9887553df0893464d6485102ac954c2b45f6a0007"),
    (3, 5): ("9e4f026a36ea189d206f03eff0e78291717c484458b460a2d34f0d0043d0060a",
             "3fa32e0240fbc855dbb8cffbe15c741ed1cf08e680581e943c4e773b34a4a570"),
    (3, 6): ("7a3304c1e0861022a5aa90066d4bcb3913e5f12bddd71dfe18b85d341e3fcffe",
             "dd25587be6b3c187e1831d9e2378263e7c33bdab0c198e4d5fea242cbbf9faa4"),
    (4, 3): ("672e80d12ca1c3014bd95c094383ff580759275b0c8aa779cf563ec493177a2c",
             "d29905a33d2108e9f0a450d8eb4870500d91419cfa8da535cede44128e1c4953"),
    (4, 4): ("d9fedd55289b697baad0966a7032c3401a6d0d18250a8b8906c687ce4e912639",
             "8d1c583634d1325ac7991c70000859902f9e40ad0168f108de50f7671b801eb1"),
    (4, 5): ("007d835b0a6771a796487a0a4c9251a9c8f79f896e3634e6a0073708c33b1f2a",
             "b1b5e757e71457087953d74477c16b00860e4af8f4d7f88a15e792c3c0bea40c"),
    (4, 6): ("e7825e79ae10a472907893bfa8aabed499e94f4e9fd5de3b0e4bd12e4cb79273",
             "1151c4e456efe62d71768880b3bd22143286a6108c3e596ccea0496aa692a49a"),
    (5, 4): ("d18829bfaef20b0bbb148a7b225b244c5b621477b153131aedf1eff79811538c",
             "564dc6047bb159aceebdaf82a127d976e87099a8c76d6cd1b7d687b9b516c462"),
    (5, 5): ("2ff15de108ac9baf68cc1e5eb91ee4ea9fc021427945e2c0ac4b5dbd6460a169",
             "fe82e9ac63ed820ca21395ff673df86001fd02e0d4616becc18144bc40fc306f"),
    (5, 6): ("11923d25ccacc52954b3551134dfd8c5fd4fd9a78f74404a8c2db9b4ee0f4c51",
             "43af4efa5180628c7da63050fc9ea9f407e8ab7a1b52ff78f3714aea2c7d5636"),
}


@pytest.mark.parametrize("N,p", sorted(RACAH_DUMP_SHA256))
def test_racah_dump_output_is_pinned(N, p):
    digests = []
    for fmt in ("text", "json"):
        code, out, err = invoke(
            "racah-dump", "--dim", str(N), "--p", str(p), "--format", fmt
        )
        assert code == 0 and err == ""
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == RACAH_DUMP_SHA256[N, p]


# ---------------------------------------------------------------------------
# grammar-driven fuzz: hostile values for every mode's flags

# text with no ASCII digit, so it never spells a rank, a size or a p
TEXT = st.text(max_size=6).filter(lambda t: not any("0" <= c <= "9" for c in t))
# integers that no flag supports, and digit strings of any length
HUGE = st.one_of(
    st.integers(max_value=-1).map(str),
    st.integers(min_value=10**6).map(str),
    st.sampled_from([NINES, "-" + NINES, "0" * 5000 + "7"]),
)
HOSTILE = st.one_of(HUGE, TEXT, st.sampled_from(
    ["", "1_0", "+2", "0x2", "1e2", "\u0663", "\u0662..\u0661", "-h", "--help"]
))


def mostly(*values):
    """One of the values two times in three, else a hostile value."""
    return st.sampled_from([st.sampled_from(values)] * 2 + [HOSTILE]).flatmap(
        lambda strategy: strategy
    )


# the ranks that compute stay <= 2, so every example is cheap
RANK = mostly("0", "1", "2", " 2 ", "1^2", "1^1", "2^2", "1^", "5", "1^5")
ENDS = st.sampled_from(["0", "1", "2"]) | HUGE
RANKS = st.one_of(RANK, st.tuples(ENDS, ENDS).map("..".join), st.sampled_from(
    ["1..2", "2..1", "1,2", "2,,1", "1.." + NINES]
))
BLOCK = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map("%d,%d".__mod__)
WORD = st.one_of(
    st.lists(BLOCK, min_size=1, max_size=3).map("|".join),
    mostly("|", "1,", "1,1|", "1,2,3", "a,b", " , ", NINES + ",1", "99999999999,1"),
    # non-ASCII digits: Arabic-Indic, fullwidth, superscript
    st.sampled_from(["\u0663,1", "1,1|\u0661,\u0662", "\uff11,1", "\u00b2,1"]),
)
KNOT = mostly("3_1", "4_1", "8_19", "9_99", "3_1 ")
FORMAT = mostly("text", "json")

# every mode's flags and their values, written out here
FUZZ_FLAGS = {
    "compute": {
        "--braid": WORD,
        "--knot": KNOT,
        "--rep": RANK,
        "--out": mostly("reduced", "extended,special", "jones,coefficients", ",", "x"),
        "--format": FORMAT,
    },
    "verify": {"--format": FORMAT},  # --knot and --rep are always given
    "table": {"--rep": RANK, "--format": FORMAT},
    "racah-dump": {
        "--dim": mostly("1", "2", "3", "4", "5", "6", " 3"),
        "--p": mostly("0", "1", "2", "3", "4", "6", "51"),
        "--format": FORMAT,
    },
}
STRAY = st.one_of(
    mostly("-h", "--help", "--dim", "--braid", "--bogus", "x"),
    # a hostile value glued to a flag that takes none
    HOSTILE.map("-h".__add__),
    HOSTILE.map("--help=".__add__),
)


@st.composite
def requests(draw):
    mode = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[mode]
    argv = [mode]
    if mode == "verify":
        argv += ["--knot", draw(KNOT), "--rep", draw(RANKS)]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)):
        argv += [flag, draw(flags[flag])]
    # a stray token anywhere, a hostile mode included
    for token in draw(st.lists(STRAY, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    if draw(st.integers(0, 9)) == 0:
        argv.pop()  # the last flag may lose its value
    return argv


@settings(max_examples=200, deadline=5000)
@given(requests())
def test_run_never_raises_and_answers_briefly(argv):
    code, _, err = invoke(*argv)
    assert type(code) is int and 0 <= code <= 3
    assert len(err) < 400
