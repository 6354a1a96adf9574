"""Command-line interface: compute, verify, table, racah-dump.

Exit codes: 0 success (`-h` prints help to stdout and exits 0), 1 malformed
request (bad flags, bad braid word, unknown knot, a number that is not an
ASCII digit string), 2 verification failure (a golden mismatch, a checksum
mismatch, or a closure whose reduced polynomial does not exist), 3
well-formed but unsupported request (rank r >= 5, racah-dump --dim above
MAX_MATRIX = 5, or --p above MAX_P = 50, each refused at any number of
digits before it is converted, or a braid word whose block trace would
pack integers over braid.TRACE_BYTES, refused before anything is packed).

Every mode and its flags are declared once, in _MODES; the numbers of
--rep, --dim and --p are ASCII digit strings read by one bounded parser,
and run() is the one writer of stdout.  Identical requests produce
byte-identical output: every iteration below runs in a fixed, sorted order
and no timestamps or machine state enter the output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import knotdb
from .braid import (
    Braid3Word, NonPolynomialResult, TraceTooLarge, antisymmetric_dual,
    character_coefficients, closure_components, expansion_polynomial,
    jones_polynomial, reduce_expansion, reduced_homfly, special_polynomial,
)
from .racah import MAX_SIZE, racah_su2
from .young import SUPPORTED_R, cube_blocks

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_UNSUPPORTED = 3

MAX_RANK = max(SUPPORTED_R)
MAX_MATRIX = MAX_SIZE
# the largest p racah-dump builds U(N|p) for: its cost grows steeply with p
# (seconds at p = 50 for N = 5, minutes past p = 500)
MAX_P = 50

_OUTPUTS = ("reduced", "extended", "special", "jones", "coefficients")


class _CliError(Exception):
    """Internal: carries an exit code and its message (help text for code 0)."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _clip(text):
    """User text for a message, cut after 40 characters."""
    if len(text) <= 40:
        return text
    return "%s... (%d characters)" % (text[:40], len(text))


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of printing or exiting.

    Usage errors carry exit code 1, help carries exit code 0, and the user
    text argparse echoes is clipped.
    """

    def error(self, message):
        # argparse echoes in full a value glued to a flag that takes none
        head, glued, value = message.partition("ignored explicit argument ")
        raise _CliError(EXIT_PARSE, "%s: error: %s%s%s"
                        % (self.prog, head, glued, _clip(value)))

    def print_help(self, file=None):
        raise _CliError(EXIT_OK, self.format_help())

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: %s" % _clip(" ".join(extra)))
        return args

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, "invalid choice: %r (choose from %s)"
                                         % (_clip(value), choices))


def _number(flag, digits, cap, noun, handles):
    """The number 0..cap spelled by `digits`, an ASCII digit string of flag.

    Anything but ASCII digits exits 1; a number over cap exits 3.  The
    string's length is compared before int() runs, so a number of any
    length is refused without being converted.
    """
    if not (digits.isascii() and digits.isdigit()):
        raise _CliError(EXIT_PARSE, "cannot parse %s %r (digits 0-9 only)"
                        % (flag, _clip(digits)))
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(cap)) and int(digits) <= cap:
        return int(digits)
    raise _CliError(EXIT_UNSUPPORTED, "%s%s is unsupported (this build handles %s)"
                    % (noun, _clip(digits), handles))


def _rank(digits, text):
    """The rank 1..MAX_RANK spelled by a digit string of --rep text."""
    r = _number("--rep", digits, MAX_RANK, "rank r=", "r <= %d" % MAX_RANK)
    if r < 1:
        raise _CliError(EXIT_PARSE, "--rep %r: rank must be positive" % _clip(text))
    return r


def _parse_rep(text):
    """'3' -> (3, False); '1^3' -> (3, True).  Ranks 1..4 only."""
    m = re.fullmatch(r"\s*([0-9]+)\s*(?:\^\s*([0-9]+)\s*)?", text)
    if not m:
        raise _CliError(EXIT_PARSE, "cannot parse --rep %r" % _clip(text))
    if m.group(2) is None:
        return _rank(m.group(1), text), False
    if m.group(1) != "1":
        raise _CliError(EXIT_PARSE, "--rep %r: only single-column reps '1^r' "
                        "take a power" % _clip(text))
    return _rank(m.group(2), text), True


def _parse_rep_range(text):
    """'1..4' | '2' | '1,3' -> sorted tuple of ranks."""
    m = re.fullmatch(r"\s*([0-9]+)\s*\.\.\s*([0-9]+)\s*", text)
    if m:
        # check the ends before the range is built
        lo, hi = (_rank(d, text) for d in m.groups())
        ranks = range(lo, hi + 1)
    else:
        parts = [re.fullmatch(r"\s*([0-9]+)\s*", p) for p in text.split(",")]
        if not all(parts):
            raise _CliError(EXIT_PARSE, "cannot parse --rep range %r" % _clip(text))
        ranks = [_rank(p.group(1), text) for p in parts]
    if not ranks:
        raise _CliError(EXIT_PARSE, "--rep range %r selects nothing" % _clip(text))
    return tuple(sorted(set(ranks)))


def _parse_outputs(values):
    """The --out names in first-given order; reduced when none is given."""
    if not values:
        return ("reduced",)
    parts = (part.strip() for value in values for part in value.split(","))
    chosen = tuple(dict.fromkeys(part for part in parts if part))
    for part in chosen:
        if part not in _OUTPUTS:
            raise _CliError(EXIT_PARSE, "unknown --out %r (choose from %s)"
                            % (_clip(part), ", ".join(_OUTPUTS)))
    if not chosen:
        raise _CliError(EXIT_PARSE, "--out selected nothing")
    return chosen


def _knot_word(name):
    """The catalog braid word of a knot; an unknown name exits 1."""
    try:
        return knotdb.braid_word(name)
    except knotdb.UnknownKnot:
        raise _CliError(EXIT_PARSE, "unknown knot %r (catalog: %s)"
                        % (_clip(name), ", ".join(knotdb.KNOT_NAMES)))


# --------------------------------------------------------------------------
# the modes: each takes the parsed arguments and the stderr stream, and
# returns (exit code, stdout) with stdout a text or a JSON payload

def _cmd_compute(args, err):
    r, antisym = _parse_rep(args.rep)
    if (args.braid is None) == (args.knot is None):
        raise _CliError(EXIT_PARSE, "compute needs exactly one of --braid or --knot")
    if args.knot is not None:
        word = _knot_word(args.knot)
    else:
        try:
            word = Braid3Word.parse(args.braid)
        except ValueError as exc:
            raise _CliError(EXIT_PARSE, "bad braid word: %s" % exc)
    outputs = _parse_outputs(args.out)

    components = closure_components(word)
    if components != 1:
        err.write(
            "note: closure has %d components; components!=1 unverified "
            "(the bundled reference tables cover knots only)\n" % components
        )

    # each request traces the word at most once and reduces at most once
    @lru_cache(maxsize=None)
    def expansion():
        try:
            return character_coefficients(word, r)
        except TraceTooLarge as exc:
            raise _CliError(EXIT_UNSUPPORTED, "braid word too large: %s" % exc)

    @lru_cache(maxsize=None)
    def reduced():
        try:
            h = reduce_expansion(expansion(), word.writhe)
        except NonPolynomialResult as exc:
            raise _CliError(
                EXIT_VERIFY,
                "reduced polynomial does not exist for this closure "
                "(the quantum-dimension division is not exact; "
                "multi-component closures generally do this): %s" % exc,
            )
        return antisymmetric_dual(h) if antisym else h

    if args.format == "json":
        h = reduced()
        return EXIT_OK, {
            "braid": word.render(),
            "r": r,
            "writhe": word.writhe,
            "coefficients": {Q.render(): c.render()
                             for Q, c in expansion().coefficients.items()},
            "reduced": h.render(),
            "special": special_polynomial(h).render(),
            "jones": jones_polynomial(h).render(),
        }

    render = {
        "reduced": lambda: reduced().render(),
        "extended": lambda: expansion_polynomial(expansion()).render(),
        "special": lambda: special_polynomial(reduced()).render(),
        "jones": lambda: jones_polynomial(reduced()).render(),
        # one indented line per block, under the label
        "coefficients": lambda: "".join(
            "\n  %s: %s" % (Q.render(), c.render())
            for Q, c in expansion().coefficients.items()
        ),
    }
    # a lone polynomial prints bare; anything else is labelled
    if len(outputs) == 1 and outputs[0] != "coefficients":
        return EXIT_OK, render[outputs[0]]() + "\n"
    return EXIT_OK, "".join(
        "%s:%s%s\n" % (name, "" if name == "coefficients" else " ", render[name]())
        for name in outputs
    )


def _cmd_verify(args, err):
    names = knotdb.KNOT_NAMES if args.knot is None else dict.fromkeys(args.knot)  # once each
    words = [(name, _knot_word(name)) for name in names]
    ranks = _parse_rep_range(args.rep) if args.rep else knotdb.GOLDEN_RANKS

    try:
        knotdb.verify_checksums()
    except knotdb.TableIntegrityError as exc:
        raise _CliError(EXIT_VERIFY, "table integrity: %s" % exc)

    results = []
    for name, word in words:
        for r in ranks:
            ok = reduced_homfly(word, r) == knotdb.golden(name, r)
            note = ""
            if (name, r) in knotdb.QUARANTINED:
                note = (" [golden is the recomputed value; the upstream print "
                        "duplicates %s r=%d]" % knotdb.QUARANTINED[(name, r)])
            results.append((name, r, ok, note))
    passed = sum(ok for _, _, ok, _ in results)
    code = EXIT_OK if passed == len(results) else EXIT_VERIFY

    if args.format == "json":
        return code, {
            "results": [{"knot": name, "r": r, "pass": ok}
                        for name, r, ok, _ in results],
            "passed": passed,
            "total": len(results),
        }
    lines = ["%s r=%d: %s%s\n" % (name, r, "PASS" if ok else "FAIL", note)
             for name, r, ok, note in results]
    return code, "".join(lines) + "%d/%d pass\n" % (passed, len(results))


def _cmd_table(args, err):
    r, antisym = _parse_rep(args.rep)
    if antisym:
        raise _CliError(EXIT_PARSE, "table mode takes a plain rank, e.g. --rep 3")
    blocks = cube_blocks(r)
    if args.format == "json":
        return EXIT_OK, {"r": r, "rows": [
            {"Q": spec.Q.render(), "j_min": spec.j_min, "j_max": spec.j_max,
             "multiplicity": spec.multiplicity} for spec in blocks]}
    width = max(len(spec.Q.render()) for spec in blocks)
    rows = ["%-*s  %5d  %5d  %4d\n"
            % (width, spec.Q.render(), spec.j_min, spec.j_max, spec.multiplicity)
            for spec in blocks]
    return EXIT_OK, "%-*s  j_min  j_max  mult\n" % (width, "Q") + "".join(rows)


def _cmd_racah_dump(args, err):
    n = _number("--dim", args.dim, MAX_MATRIX, "matrix size ",
                "sizes 2..%d" % MAX_MATRIX)
    if n < 2:
        raise _CliError(EXIT_PARSE, "--dim must be at least 2")
    p = _number("--p", args.p, MAX_P, "p = ", "p <= %d" % MAX_P)
    try:
        u = racah_su2(n, p)
    except ValueError as exc:  # p < 1, or a degenerate p < N - 1
        raise _CliError(EXIT_PARSE, str(exc))
    if args.format == "json":
        return EXIT_OK, {"N": n, "p": p, "entries": [list(row) for row in u]}
    entries = ["[%d][%d] = %s\n" % (i, j, entry)
               for i, row in enumerate(u) for j, entry in enumerate(row)]
    return EXIT_OK, "U(%d|%d):\n" % (n, p) + "".join(entries)


# --------------------------------------------------------------------------
# entry points

# mode -> (help, handler, flags with their argparse keywords); every flag
# takes a value, and every mode also takes --format text|json
_MODES = {
    "compute": (
        "compute polynomials for a braid word or a catalog knot",
        _cmd_compute,
        {
            "--braid": {"help": "word 'a1,b1|a2,b2|...'"},
            "--knot": {"help": "catalog name, e.g. 4_1"},
            "--rep": {"default": "1",
                      "help": "rank 1..4, or '1^r' for the transposed color"},
            "--out": {"action": "append", "help": "comma-separated subset of %s "
                      "(default: reduced)" % ",".join(_OUTPUTS)},
        },
    ),
    "verify": (
        "recompute golden polynomials and report pass/fail",
        _cmd_verify,
        {
            "--knot": {"action": "append",
                       "help": "catalog name (repeatable; default all)"},
            "--rep": {"help": "rank selection: '3', '1..4', or '1,3' (default 1..4)"},
        },
    ),
    "table": (
        "print the block table (Q, j-range, multiplicity) for a rank",
        _cmd_table,
        {"--rep": {"required": True, "help": "rank 1..4"}},
    ),
    "racah-dump": (
        "print the mixing matrix U(N|p)",
        _cmd_racah_dump,
        {
            "--dim": {"required": True, "help": "matrix size N (2..5)"},
            "--p": {"required": True, "help": "family argument p (N-1..%d)" % MAX_P},
        },
    ),
}

# the flags whose next token is their value, in any mode
_TAKES_VALUE = frozenset({"--format"}.union(*(f for _, _, f in _MODES.values())))


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="homfly3",
        description="Colored reduced/extended polynomial engine for "
        "3-strand braids (symmetric colors, ranks 1..4).",
    )
    sub = parser.add_subparsers(dest="mode")
    for mode, (help_text, _, flags) in _MODES.items():
        mode_parser = sub.add_parser(mode, help=help_text)
        for flag, keywords in flags.items():
            mode_parser.add_argument(flag, **keywords)
        mode_parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _join_flag_values(argv):
    """Rewrite ['--braid', '-1,-1|...'] as ['--braid=-1,-1|...'].

    Braid words legitimately start with '-', which argparse would otherwise
    read as the next option.
    """
    rest, joined = argv[::-1], []
    while rest:
        tok = rest.pop()
        if tok in _TAKES_VALUE and rest:
            tok = "%s=%s" % (tok, rest.pop())
        joined.append(tok)
    return joined


def run(argv, out=None, err=None):
    """Run one CLI request; returns the exit code (never raises SystemExit).

    Help goes to out with exit code 0; errors go to err.  This is the one
    place that writes stdout.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_flag_values(list(argv)))
        if args.mode is None:
            raise _CliError(EXIT_PARSE, parser.format_usage().rstrip())
        code, text = _MODES[args.mode][1](args, err)
    except _CliError as exc:
        if exc.code != EXIT_OK:
            err.write(str(exc) + "\n")
            return exc.code
        code, text = EXIT_OK, str(exc)
    if not isinstance(text, str):
        text = json.dumps(text, indent=2) + "\n"
    out.write(text)
    return code


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
