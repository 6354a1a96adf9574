"""Command-line interface: compute, verify, table, racah-dump.

Exit codes: 0 success, 1 malformed request (bad flags, bad braid word,
unknown knot), 2 verification failure (a golden mismatch, a checksum
mismatch, or a closure whose reduced polynomial does not exist), 3
well-formed but unsupported request (rank r >= 5, mixing-matrix size >= 6,
or a braid word whose block trace would pack integers over
braid.TRACE_BYTES, refused before anything is packed).

Identical requests produce byte-identical output: every iteration below
runs in a fixed, sorted order and no timestamps or machine state enter the
output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import knotdb
from .braid import (
    Braid3Word,
    NonPolynomialResult,
    TraceTooLarge,
    antisymmetric_dual,
    character_coefficients,
    closure_components,
    expansion_polynomial,
    jones_polynomial,
    reduce_expansion,
    reduced_homfly,
    special_polynomial,
)
from .racah import racah_su2
from .young import cube_blocks

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_UNSUPPORTED = 3

MAX_RANK = 4
MAX_MATRIX = 5

_OUTPUTS = ("reduced", "extended", "special", "jones", "coefficients")


class _CliError(Exception):
    """Internal: carries an exit code and a stderr message."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        raise _CliError(EXIT_PARSE, "%s: error: %s" % (self.prog, message))


def _clip(text):
    """User text for a message, cut after 40 characters."""
    if len(text) <= 40:
        return text
    return "%s... (%d characters)" % (text[:40], len(text))


def _rank(digits, text):
    """The rank 1..MAX_RANK spelled by a digit string of --rep text.

    The digit string's length is compared before int() runs, so a rank of
    any length is refused without being converted.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) <= len(str(MAX_RANK)):
        r = int(digits)
        if r < 1:
            raise _CliError(EXIT_PARSE, "--rep %r: rank must be positive" % _clip(text))
        if r <= MAX_RANK:
            return r
    raise _CliError(
        EXIT_UNSUPPORTED,
        "rank r=%s is unsupported (this build handles r <= %d)"
        % (_clip(digits), MAX_RANK),
    )


def _parse_rep(text):
    """'3' -> (3, False); '1^3' -> (3, True).  Ranks 1..4 only."""
    m = re.fullmatch(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?", text)
    if not m:
        raise _CliError(EXIT_PARSE, "cannot parse --rep %r" % _clip(text))
    if m.group(2) is None:
        return _rank(m.group(1), text), False
    if m.group(1) != "1":
        raise _CliError(
            EXIT_PARSE,
            "--rep %r: only single-column reps '1^r' take a power" % _clip(text),
        )
    return _rank(m.group(2), text), True


def _parse_rep_range(text):
    """'1..4' | '2' | '1,3' -> sorted tuple of ranks."""
    m = re.fullmatch(r"\s*(\d+)\s*\.\.\s*(\d+)\s*", text)
    if m:
        # check the ends before the range is built
        lo, hi = (_rank(d, text) for d in m.groups())
        ranks = range(lo, hi + 1)
    else:
        parts = [re.fullmatch(r"\s*(\d+)\s*", p) for p in text.split(",")]
        if not all(parts):
            raise _CliError(EXIT_PARSE, "cannot parse --rep range %r" % _clip(text))
        ranks = [_rank(p.group(1), text) for p in parts]
    if not ranks:
        raise _CliError(EXIT_PARSE, "--rep range %r selects nothing" % _clip(text))
    return tuple(sorted(set(ranks)))


def _parse_outputs(values):
    if not values:
        return ("reduced",)
    chosen = []
    for value in values:
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            if part not in _OUTPUTS:
                raise _CliError(
                    EXIT_PARSE,
                    "unknown --out %r (choose from %s)" % (part, ", ".join(_OUTPUTS)),
                )
            if part not in chosen:
                chosen.append(part)
    if not chosen:
        raise _CliError(EXIT_PARSE, "--out selected nothing")
    return tuple(chosen)


def _resolve_word(args):
    if (args.braid is None) == (args.knot is None):
        raise _CliError(
            EXIT_PARSE, "compute needs exactly one of --braid or --knot"
        )
    if args.braid is not None:
        try:
            return Braid3Word.parse(args.braid)
        except ValueError as exc:
            raise _CliError(EXIT_PARSE, "bad braid word: %s" % exc)
    try:
        return knotdb.braid_word(args.knot)
    except knotdb.UnknownKnot:
        raise _CliError(
            EXIT_PARSE,
            "unknown knot %r (catalog: %s)"
            % (args.knot, ", ".join(knotdb.KNOT_NAMES)),
        )


# --------------------------------------------------------------------------
# compute

def _cmd_compute(args, out, err):
    r, antisym = _parse_rep(args.rep)
    word = _resolve_word(args)
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
        payload = {
            "braid": word.render(),
            "r": r,
            "writhe": word.writhe,
            "coefficients": {
                Q.render(): c.render()
                for Q, c in expansion().coefficients.items()
            },
            "reduced": h.render(),
            "special": special_polynomial(h).render(),
            "jones": jones_polynomial(h).render(),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    sections = []
    for name in outputs:
        if name == "reduced":
            sections.append((name, reduced().render()))
        elif name == "special":
            sections.append((name, special_polynomial(reduced()).render()))
        elif name == "jones":
            sections.append((name, jones_polynomial(reduced()).render()))
        elif name == "extended":
            sections.append(
                (name, expansion_polynomial(expansion()).render()))
        elif name == "coefficients":
            lines = [
                "%s: %s" % (Q.render(), c.render())
                for Q, c in expansion().coefficients.items()
            ]
            sections.append((name, "\n".join(lines)))

    if len(sections) == 1 and sections[0][0] != "coefficients":
        out.write(sections[0][1] + "\n")
    else:
        for name, body in sections:
            if name == "coefficients":
                out.write("coefficients:\n")
                for line in body.splitlines():
                    out.write("  " + line + "\n")
            else:
                out.write("%s: %s\n" % (name, body))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _cmd_verify(args, out, err):
    if args.knot is None:
        names = knotdb.KNOT_NAMES
    else:
        for name in args.knot:
            if name not in knotdb.KNOT_NAMES:
                raise _CliError(
                    EXIT_PARSE,
                    "unknown knot %r (catalog: %s)"
                    % (name, ", ".join(knotdb.KNOT_NAMES)),
                )
        names = tuple(args.knot)
    ranks = _parse_rep_range(args.rep) if args.rep else knotdb.GOLDEN_RANKS

    try:
        knotdb.verify_checksums()
    except knotdb.TableIntegrityError as exc:
        raise _CliError(EXIT_VERIFY, "table integrity: %s" % exc)

    results = []
    passed = 0
    for name in names:
        word = knotdb.braid_word(name)
        for r in ranks:
            got = reduced_homfly(word, r)
            want = knotdb.golden(name, r)
            ok = got == want
            passed += ok
            note = ""
            if (name, r) in knotdb.QUARANTINED:
                other = knotdb.QUARANTINED[(name, r)]
                note = (
                    " [golden is the recomputed value; the upstream print "
                    "duplicates %s r=%d]" % other
                )
            results.append((name, r, ok, note))

    if args.format == "json":
        payload = {
            "results": [
                {"knot": name, "r": r, "pass": ok}
                for name, r, ok, _ in results
            ],
            "passed": passed,
            "total": len(results),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        for name, r, ok, note in results:
            out.write(
                "%s r=%d: %s%s\n" % (name, r, "PASS" if ok else "FAIL", note)
            )
        out.write("%d/%d pass\n" % (passed, len(results)))
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


# --------------------------------------------------------------------------
# table

def _cmd_table(args, out, err):
    r, antisym = _parse_rep(args.rep)
    if antisym:
        raise _CliError(EXIT_PARSE, "table mode takes a plain rank, e.g. --rep 3")
    blocks = cube_blocks(r)
    if args.format == "json":
        payload = {
            "r": r,
            "rows": [
                {
                    "Q": spec.Q.render(),
                    "j_min": spec.j_min,
                    "j_max": spec.j_max,
                    "multiplicity": spec.multiplicity,
                }
                for spec in blocks
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    width = max(len(spec.Q.render()) for spec in blocks)
    out.write("%-*s  j_min  j_max  mult\n" % (width, "Q"))
    for spec in blocks:
        out.write(
            "%-*s  %5d  %5d  %4d\n"
            % (width, spec.Q.render(), spec.j_min, spec.j_max, spec.multiplicity)
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# racah-dump

def _cmd_racah_dump(args, out, err):
    n, p = args.dim, args.p
    if n < 2:
        raise _CliError(EXIT_PARSE, "--dim must be at least 2")
    if n > MAX_MATRIX:
        raise _CliError(
            EXIT_UNSUPPORTED,
            "matrix size %d is unsupported (this build handles sizes 2..%d)"
            % (n, MAX_MATRIX),
        )
    try:
        u = racah_su2(n, p)
    except ValueError as exc:  # p < 1, or a degenerate p < N - 1
        raise _CliError(EXIT_PARSE, str(exc))
    if args.format == "json":
        payload = {
            "N": n,
            "p": p,
            "entries": [list(row) for row in u],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out.write("U(%d|%d):\n" % (n, p))
    for i, row in enumerate(u):
        for j, entry in enumerate(row):
            out.write("[%d][%d] = %s\n" % (i, j, entry))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry points

@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="homfly3",
        description="Colored reduced/extended polynomial engine for "
        "3-strand braids (symmetric colors, ranks 1..4).",
    )
    sub = parser.add_subparsers(dest="mode")

    p_compute = sub.add_parser(
        "compute",
        help="compute polynomials for a braid word or a catalog knot",
    )
    p_compute.add_argument("--braid", help="word 'a1,b1|a2,b2|...'")
    p_compute.add_argument("--knot", help="catalog name, e.g. 4_1")
    p_compute.add_argument(
        "--rep", default="1", help="rank 1..4, or '1^r' for the transposed color"
    )
    p_compute.add_argument(
        "--out",
        action="append",
        help="comma-separated subset of %s (default: reduced)"
        % ",".join(_OUTPUTS),
    )
    p_compute.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    p_verify = sub.add_parser(
        "verify", help="recompute golden polynomials and report pass/fail"
    )
    p_verify.add_argument(
        "--knot", action="append", help="catalog name (repeatable; default all)"
    )
    p_verify.add_argument(
        "--rep", help="rank selection: '3', '1..4', or '1,3' (default 1..4)"
    )
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    p_table = sub.add_parser(
        "table", help="print the block table (Q, j-range, multiplicity) for a rank"
    )
    p_table.add_argument("--rep", required=True, help="rank 1..4")
    p_table.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    p_dump = sub.add_parser(
        "racah-dump", help="print the mixing matrix U(N|p)"
    )
    p_dump.add_argument("--dim", type=int, required=True, help="matrix size N (2..5)")
    p_dump.add_argument("--p", type=int, required=True, help="family argument p (>= N-1)")
    p_dump.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "racah-dump": _cmd_racah_dump,
}


_VALUE_FLAGS = ("--braid", "--knot", "--rep", "--out", "--format", "--dim", "--p")


def _join_flag_values(argv):
    """Rewrite ['--braid', '-1,-1|...'] as ['--braid=-1,-1|...'].

    Braid words legitimately start with '-', which argparse would otherwise
    read as the next option.
    """
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            joined.append("%s=%s" % (tok, argv[i + 1]))
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def run(argv, out=None, err=None):
    """Run one CLI request; returns the exit code (never raises SystemExit)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_flag_values(list(argv)))
        if args.mode is None:
            raise _CliError(EXIT_PARSE, parser.format_usage().rstrip())
        return _COMMANDS[args.mode](args, out, err)
    except _CliError as exc:
        err.write(str(exc) + "\n")
        return exc.code


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
