"""Workloads: the requests each one sends, and how each output is checked.

A request is a zero-argument callable that drives homfly3 through a public
entry point.  Its expected value is computed before the timed region, from
the bundled golden tables, the r = 1 polynomial or the hook-content product,
and its checker turns an output into an error message, or None when
correct.  Each request also carries a checker built on a deliberately wrong
expectation, which must reject the real output: the checker's self-test.

The request lists are fixed, in a fixed order, except for the random words
of long-words, which the seed draws.  A pass takes 5-7 s at run.py's
reference speed, so that one run repeats it at least three times and every
request is timed more than once.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from homfly3 import braid, cli, knotdb, symfun
from homfly3.qpoly import LaurentQA
from homfly3.young import FractionQA, YoungDiagram, hook_content_dimension

# catalog: the whole bundled table at r = 1..3 (about 7 s), and 4_1 at r = 4
# (about 0.8 s); the full r = 4 column alone takes about 40 s.
CATALOG_R4 = ("4_1",)

# unreduced: every knot at r = 2 (about 3.5 s), and two at r = 3, where one
# locus substitution takes 1.5-3 s.
UNREDUCED_R3 = ("3_1", "5_2")

# long-words: torus knots (sigma1 sigma2)^n, n >= 4 not divisible by 3, and
# random 6-block words whose exponents are a seeded arrangement of this
# multiset.  Fixing the multiset fixes the writhe and the total crossing
# count, so the work of a pass changes little from seed to seed.  The two
# random words (24 crossings) are nearly always slower than
# (sigma1 sigma2)^7, which is then the median request whatever the seed.
TORUS_N = (4, 5, 7)
RANDOM_WORDS = 2
RANDOM_EXPONENTS = (1, 1, -1, -1, 2, 2, -2, -2, 3, 3, -3, -3)

NAMES = ("catalog", "long-words", "unreduced")


@dataclass
class Request:
    label: str
    send: Callable[[], object]
    check: Callable[[object], "str | None"]
    wrong_check: Callable[[object], "str | None"]  # built on a wrong expectation


@dataclass
class Workload:
    requests: list
    details: dict  # reported with the results, e.g. the generated words


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(output):
    code, _, err = output
    if code != 0:
        return "exit code %d: %s" % (code, err.strip())
    return None


# -- catalog ---------------------------------------------------------------

def check_catalog(expected, output):
    """The JSON answer must carry the golden polynomial and its
    specializations, bit-exactly."""
    failure = _cli_failure(output)
    if failure:
        return failure
    payload = json.loads(output[1])
    for key, want in expected.items():
        if payload.get(key) != want:
            return "%s differs from the golden value" % key
    return None


def _catalog_expected(golden):
    return {
        "reduced": golden.render(),
        "special": braid.special_polynomial(golden).render(),
        "jones": braid.jones_polynomial(golden).render(),
    }


def _catalog(rng):
    pairs = [(k, r) for k in knotdb.KNOT_NAMES for r in (1, 2, 3)]
    pairs += [(k, 4) for k in CATALOG_R4]
    requests = []
    for knot, r in pairs:
        golden = knotdb.golden(knot, r)
        expected = _catalog_expected(golden)
        wrong = _catalog_expected(golden + LaurentQA.one())
        argv = ["compute", "--knot", knot, "--rep", str(r), "--format", "json"]
        requests.append(Request(
            "%s r=%d" % (knot, r),
            lambda argv=argv: _cli(argv),
            lambda out, e=expected: check_catalog(e, out),
            lambda out, e=wrong: check_catalog(e, out),
        ))
    return requests, {}


# -- long-words ------------------------------------------------------------

def random_words(rng, count):
    """Seeded 6-block knot words over RANDOM_EXPONENTS."""
    words = []
    while len(words) < count:
        ex = list(RANDOM_EXPONENTS)
        rng.shuffle(ex)
        word = braid.Braid3Word(tuple(zip(ex[0::2], ex[1::2])))
        if braid.closure_components(word) == 1 and word not in words:
            words.append(word)
    return words


def check_special_cube(expected, output):
    """q = 1 factorization: special(h_3) must equal special(h_1)^3."""
    failure = _cli_failure(output)
    if failure:
        return failure
    h3 = LaurentQA.parse(output[1].strip())
    if braid.special_polynomial(h3) != expected:
        return "special(h_3) != special(h_1)^3"
    return None


def _long_words(rng):
    torus = [braid.Braid3Word(((1, 1),) * n) for n in TORUS_N]
    randoms = random_words(rng, RANDOM_WORDS)
    words = [w for pair in zip(torus, randoms) for w in pair]
    words += torus[len(randoms):]
    requests = []
    for word in words:
        h1 = braid.reduced_homfly(word, 1)
        expected = braid.special_polynomial(h1) ** 3
        wrong = expected + LaurentQA.one()
        argv = ["compute", "--braid", word.render(), "--rep", "3"]
        requests.append(Request(
            word.render(),
            lambda argv=argv: _cli(argv),
            lambda out, e=expected: check_special_cube(e, out),
            lambda out, e=wrong: check_special_cube(e, out),
        ))
    return requests, {"words": [w.render() for w in words]}


# -- unreduced -------------------------------------------------------------

def unreduced_expected(golden, word, r):
    """golden * S_[r]* * framing^-1 as a fraction, from the hook-content
    product; shares no code with the locus substitution."""
    dim = hook_content_dimension(YoungDiagram([r]))
    w = word.writhe
    unframe = LaurentQA.monomial(1, a=r * w, qexp=2 * r * (r - 1) * w)
    return FractionQA(golden * dim.num * unframe, dim.den)


def check_fraction(expected, output):
    if not output.same_value(expected):
        return "locus value differs from golden * S_[r]* / framing"
    return None


def _unreduced(rng):
    pairs = [(k, r) for k in knotdb.KNOT_NAMES for r in (2, 3)
             if r == 2 or k in UNREDUCED_R3]
    requests = []
    for knot, r in pairs:
        word = knotdb.braid_word(knot)
        golden = knotdb.golden(knot, r)
        expected = unreduced_expected(golden, word, r)
        wrong = unreduced_expected(golden + LaurentQA.one(), word, r)
        requests.append(Request(
            "%s r=%d" % (knot, r),
            lambda word=word, r=r: symfun.topological_locus(
                braid.extended_homfly(word, r)),
            lambda out, e=expected: check_fraction(e, out),
            lambda out, e=wrong: check_fraction(e, out),
        ))
    return requests, {}


_BUILDERS = {"catalog": _catalog, "long-words": _long_words, "unreduced": _unreduced}


def build(name, seed):
    """The workload's requests; only long-words uses the seed."""
    requests, details = _BUILDERS[name](random.Random(seed))
    return Workload(requests, details)
