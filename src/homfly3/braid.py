"""Evaluator for 3-strand braid closures in symmetric representations.

The pipeline: a braid word {a_1,b_1 | a_2,b_2 | ...} is traced block by
block,

    C_Q = Tr prod_i A_Q^{a_i} B_Q^{b_i},

the coefficients C_Q are Laurent polynomials in q, and the invariants are
assembled from them: the extended polynomial as a symmetric function, and
the reduced two-variable polynomial on the topological locus after
framing and division by the quantum dimension.

The engine runs on eigenvalues alone, as the paper's weaker conjecture
proposes.  (A_Q, B_Q) is the block's triangular pair from
racah.triangular_pair: sigma_1 upper and sigma_2 lower triangular, every
entry a Laurent polynomial in the block's twist eigenvalues, certified
once per block against the recoupling sum's mixing matrix
(racah.certify_pair).  There is no mixing matrix, no radical and no
division on the trace path.

Per block, A, B, A^-1 and B^-1 are kept as qpoly.laurent_matrix (the
inverses by back substitution), the only block state the trace reads, and
per block and exponent pair (x, y) the factor A^x B^y itself, in the same
form plus its highest exponent: formed once by integer powers and products
of A^+-1 and B^+-1 packed at a width that bounds its entries, and unpacked
once.  Per word, the width comes from the factors' l1 norms: the trace of
the product of their norm matrices bounds every digit of the trace.  Each
factor is packed once per width (pack_matrix: entries at q^step ->
2^(8 width), its lowest exponent shifted out) and kept per (block, x, y,
width), and the trace of the integer product is unpacked once per block.
A trace whose packed integers would exceed TRACE_BYTES is refused with
TraceTooLarge: first, before any power is formed, on a lower bound of its
digit count, 1 plus a span bound per factor read off its exponents (three
entries of A^x B^y are known in closed form) and kept per (block, x, y),
then on its exact size, read off the cached factors, before any is packed.
The exact size is read off the trace of the factors' norm matrices,
which also sets the width; a word that is not traced as given (below)
first tries the upper bound d prod_k (largest row sum of N_k) on that
trace, and forms the trace only when the bound is over.

A block of size > 1 traces the word's canonical form (_canonical) when
the word holds a full twist: an occurrence of (sigma_1 sigma_2)^{+-3} or
(sigma_2 sigma_1)^{+-3}, read cyclically on its generators' runs.  That
is Delta^{+-2}, central in B_3, so on each block it is one scalar
lambda_Q^{+-1}, and each one taken out is one shift and one sign of C_Q's
keys.  The canonical form takes out every full twist, merging the runs
that meet across zero exponents and around the end.  lambda_Q is made
once per block by the first word that needs it: (AB)^3 is formed on
packed integers and refused unless it is a signed monomial times the
identity (_full_twist).  A word with no full twist is traced as given.
Blocks of size 1, the writhe, the framing, closure_components and the
budget all read the word as given, so the budget refuses exactly the
words it would refuse if no twist were taken out; a block forms the
canonical factors only once the given word is within it, and traces the
given word after all should the canonical trace pack more bytes than the
size the given word passed on.  The canonical form is read off the runs
on one stack: each run is pushed once, plus at most five pushes for each
merge or twist across the end, so it takes time linear in the number of
runs.

The extended polynomial sum_Q C_Q S_Q is assembled by power-sum
monomial: with S_Q = sum_lam chi_Q(lam)/z_lam p_lam, the coefficient of
p_lam is the integer character sum sum_Q chi_Q(lam) C_Q over the C_Q's
terms, divided once by z_lam, an int where that is exact.  The characters
are read once per color off symfun.schur_in_powersums, and no LaurentQ
product is formed.

The reduction divides sum_Q C_Q S_Q* by S_[r]* with the atoms of S_[r]*
cancelled up front: each S_Q* already holds the content atoms of [r], and
the common hook denominator the hooks of [r].  What depends on the color
alone, the C_Q's remaining curly-bracket atoms and the remaining hooks,
is planned once per color, the atoms as one program that factors out the
atoms the C_Q share (qpoly.atom_plan).  One qpoly.curly_atom_quotient
then forms the sum of the C_Q times their atoms on one packed integer, by
shifts and subtractions, divides the sum once, as one integer, by the product of the remaining
{q^h}, and unpacks the quotient once.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from functools import lru_cache
from itertools import chain, cycle
from math import prod
from operator import index, mul

from .qpoly import (
    EXP_DEN,
    InexactDivision,
    LaurentQ,
    LaurentQA,
    _accumulate,
    _div_coeff,
    _new,
    _support_step,
    atom_plan,
    curly_atom_quotient,
    int_matmul,
    laurent_matrix,
    pack_matrix,
    signed_width,
    substitute,
    unpack_signed,
)
from .young import YoungDiagram, cube_blocks
from .racah import NotIntertwined, build_block
from .symfun import PowerSumPoly, schur_in_powersums, z_of

__all__ = [
    "Braid3Word",
    "CharacterExpansion",
    "NonPolynomialResult",
    "TRACE_BYTES",
    "TraceTooLarge",
    "character_coefficients",
    "closure_components",
    "extended_homfly",
    "expansion_polynomial",
    "reduced_homfly",
    "reduce_expansion",
    "antisymmetric_dual",
    "special_polynomial",
    "jones_polynomial",
]


class NonPolynomialResult(ArithmeticError):
    """Division by the quantum dimension left a nontrivial denominator."""


# the most bytes one packed integer of a block trace may take; a word
# needing half of it (128 blocks of exponents up to 3, at r = 4) traces for
# nearly two minutes (the heaviest Tier-1 and benchmark words need under
# 9 KB)
TRACE_BYTES = 1 << 20


class TraceTooLarge(Exception):
    """A block trace would pack integers over TRACE_BYTES."""


class _Record:
    """An immutable record over its __slots__, compared, hashed and
    printed by its fields in order, as a frozen dataclass is."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._values()


class Braid3Word(_Record):
    """A 3-strand braid word as alternating generator exponents.

    ``blocks`` is a nonempty sequence of pairs (a_i, b_i): the braid is
    sigma_1^{a_1} sigma_2^{b_1} sigma_1^{a_2} sigma_2^{b_2} ...; zero
    exponents are allowed, so any 3-strand braid fits this shape.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple((index(a), index(b)) for (a, b) in blocks)
        if not blocks:
            raise ValueError("a braid word needs at least one (a, b) block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def writhe(self):
        return sum(a + b for a, b in self.blocks)

    @classmethod
    def parse(cls, text):
        """Parse 'a1,b1|a2,b2|...' (spaces tolerated); each exponent is an
        optional '-' and ASCII digits, not '+1', '1_0' or non-ASCII digits."""
        blocks = []
        for chunk in text.split("|"):
            parts = [p.strip() for p in chunk.split(",")]
            # a block of thousands of digits is cut in the message
            shown = chunk if len(chunk) <= 40 else chunk[:40] + "..."
            if len(parts) != 2:
                raise ValueError(
                    "each |-separated block needs exactly two integers, "
                    "got %r" % (shown,)
                )
            try:
                if not all(re.fullmatch("-?[0-9]+", p) for p in parts):
                    raise ValueError
                blocks.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError("bad integer in braid word: %r" % (shown,))
        return cls(tuple(blocks))

    def render(self):
        return "|".join("%d,%d" % ab for ab in self.blocks)

    def __str__(self):
        return self.render()


class CharacterExpansion(_Record):
    """Character-expansion coefficients C_Q of one braid word at color r."""

    __slots__ = ("r", "coefficients")

    def __init__(self, r, coefficients):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coefficients", coefficients)

    def __iter__(self):
        return iter(sorted(self.coefficients, key=lambda Q: Q.rows))


# --------------------------------------------------------------------------
# radical-free trace engine

def _block_trace(spec, word, blocks=None, twists=0):
    """C_Q for one block: Tr prod_i A^{a_i} B^{b_i} of its triangular pair.

    A block of size 1 is xi^w on the word as given.  Any other block
    passes the budget on the word as given; with twists, it then traces
    ``blocks`` and multiplies the trace by lambda_Q^twists (_full_twist),
    ``blocks`` and ``twists`` as from _canonical, unless that trace would
    pack more bytes than the given one's."""
    step, gens = _generators(spec)
    if len(gens[0][1][1]) == 1:
        # xi^w for the eigenvalue xi = c q^e, c = +-1
        ((e, c),) = gens[0][1][1][0][0].items()
        return _new(LaurentQ, {e * word.writhe: c if word.writhe % 2 else 1})
    _check_budget(spec, _digits_at_least(spec, word), " or more")
    trace = word.blocks
    factors = {ab: _factor(spec, *ab) for ab in set(trace)}
    count = _digit_count(step, factors, trace)
    # the factors' digit spans add up in the product: no packed integer of
    # a trace is longer than its width times its digit count.  A word with
    # twists is not traced as given, so the trace of its norm matrices is
    # formed only when d prod_k (largest row sum of N_k), which bounds it,
    # is over the budget
    if twists:
        rows = {ab: max(map(sum, f[2])) for ab, (f, _) in factors.items()}
        size = signed_width(len(gens[0][1][1]) * prod(map(rows.get, trace))) * count
    if not twists or size > TRACE_BYTES:
        width = _norm_width(factors, trace)
        size = width * count
    _check_budget(spec, size, "")
    if twists:
        canonical = {ab: _factor(spec, *ab) for ab in set(blocks)}
        narrow = _norm_width(canonical, blocks)
        if narrow * _digit_count(step, canonical, blocks) <= size:
            trace, factors, width = blocks, canonical, narrow
        else:
            twists, width = 0, _norm_width(factors, trace)
    digits = unpack_signed(_trace_of_product(
        trace, {ab: _packed_factor(spec, *ab, width) for ab in factors}), width)
    base = sum(factors[ab][0][0] for ab in trace)
    if twists:
        e, c = _full_twist(spec)
        base += twists * e
        if c < 0 and twists % 2:
            digits = {k: -d for k, d in digits.items()}
    return _new(LaurentQ, {base + step * k: d for k, d in digits.items()})


def _norm_width(factors, blocks):
    """The signed width that holds every coefficient of the trace along
    blocks: that of the trace of the factors' norm matrices."""
    return signed_width(_trace_of_product(
        blocks, {ab: f[2] for ab, (f, _) in factors.items()}))


def _digit_count(step, factors, blocks):
    """The packed trace's digit count along blocks: 1 + the sum of the
    factors' digit spans."""
    return 1 + sum((hi - f[0]) // step for f, hi in map(factors.get, blocks))


def _check_budget(spec, nbytes, qualifier):
    if nbytes > TRACE_BYTES:
        # a size past 2^64 is named by its bit length: str() of an int is
        # itself refused past 4,300 digits
        size = ("%d bytes%s" % (nbytes, qualifier) if nbytes < 1 << 64
                else "over 2^%d bytes" % (nbytes.bit_length() - 1))
        raise TraceTooLarge("block %s: the packed trace needs %s, over the budget of %d"
                            % (spec.Q, size, TRACE_BYTES))


def _digits_at_least(spec, word):
    """A lower bound on the packed trace's digit count, before any power:
    1 + the sum of the factors' span bounds (_span_at_least)."""
    return 1 + sum(_span_at_least(spec, x, y) for x, y in word.blocks)


# bounded like _factor: one entry per block and distinct exponent pair
@lru_cache(maxsize=1024)
def _span_at_least(spec, x, y):
    """A lower bound on the digit span of the factor F = A^x B^y, from its
    exponents alone.

    Three entries of F (indices 1..d) are known in closed form: F_dd =
    xi_d^x xi_1^y, F_(d-1)d = A_(d-1)d h_x(xi_(d-1), xi_d) xi_1^y and
    F_d(d-1) = xi_d^x B_d(d-1) h_y(xi_2, xi_1), where h_n(u, v) = (u^n -
    v^n)/(u - v) has |n| terms of distinct exponents.  Their extreme
    exponents bound the factor's span from below.
    """
    step, gens = _generators(spec)
    a, b = (g[1][1] for g in gens)
    e = [next(iter(a[i][i])) for i in range(len(a))]
    corners = ((a[-2][-1], e[-2], e[-1]), (b[-1][-2], e[1], e[0]))
    known = [x * e[-1] + y * e[0]]
    for n, (t, u, v), shift in zip((x, y), corners, (y * e[0], x * e[-1])):
        if n and t:
            # h_n(q^u, q^v) spans (|n| - 1) min(u, v) .. (|n| - 1)
            # max(u, v), shifted by -|n| (u + v) when n < 0
            k = abs(n) - 1
            shift -= abs(n) * (u + v) if n < 0 else 0
            known += [min(t) + shift + k * min(u, v),
                      max(t) + shift + k * max(u, v)]
    return (max(known) - min(known)) // step


@lru_cache(maxsize=None)
def _generators(spec):
    """(step, ({1: A, -1: A^-1}, {1: B, -1: B^-1})) of one block, once,
    each generator a qpoly.laurent_matrix, A's diagonal the eigenvalues.

    Each of A, B has all its exponents in one class modulo step, and so
    then have A^-1, B^-1 and every factor A^x B^y.
    """
    block = build_block(spec)
    a, b = (tuple(tuple(x._t for x in row) for row in m) for m in (block.upper, block.lower))
    step = _support_step(*({e for row in m for t in row for e in t} for m in (a, b)))
    return step, tuple({1: laurent_matrix(m), -1: laurent_matrix(_inverse(m))} for m in (a, b))


def _inverse(m):
    """The inverse of a triangular matrix of term dicts, by back
    substitution; a lower triangular one through its transpose.  The
    diagonal holds signed monomials, c q^e with c = +-1, so 1/m_ii =
    c q^-e and the inverse keeps integer coefficients."""
    size = len(m)
    if any(m[i][j] for i in range(size) for j in range(i)):
        return tuple(zip(*_inverse(tuple(zip(*m)))))
    inv = [[{}] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, -1, -1):
            (e, c), = m[i][i].items()
            inv[i][j] = {-e: c} if i == j else _accumulate(
                (e1 + e2 - e, -c * c1 * c2) for k in range(i + 1, j + 1)
                for e1, c1 in m[i][k].items() for e2, c2 in inv[k][j].items())
    return tuple(map(tuple, inv))


# bounded: every distinct exponent pair of every word adds an entry (the 19
# catalog knots at r = 1..3 and 4_1 at r = 4 add 199 entries, 600 KB)
@lru_cache(maxsize=1024)
def _factor(spec, x, y):
    """(F, hi) of the factor F = A^x B^y of one block: F as a
    qpoly.laurent_matrix (lowest exponent, rows of term dicts, rows of l1
    norms) and hi its highest exponent.

    F is formed once on packed integers, at a width that bounds the
    entries of |A^+-1|^|x| |B^+-1|^|y|, and unpacked once.
    """
    step, gens = _generators(spec)
    mats = [g[1 if n > 0 else -1] for g, n in zip(gens, (x, y))]
    width = signed_width(max(chain(*_product(x, y, *(m[2] for m in mats)))))
    packed = _product(x, y, *(pack_matrix(m, width, step) for m in mats))
    # every entry of the packed product is shifted by the lowest exponents
    base = abs(x) * mats[0][0] + abs(y) * mats[1][0]
    rows = tuple(tuple({base + step * k: d for k, d in unpack_signed(v, width).items()}
                       for v in row) for row in packed)
    return laurent_matrix(rows), max(max(t) for row in rows for t in row if t)


# bounded: one entry per factor and trace width (of the 199 factors of the
# catalog words above, 194 are packed at one width and 5 at two)
@lru_cache(maxsize=1024)
def _packed_factor(spec, x, y, width):
    """pack_matrix of the factor A^x B^y of one block at width, rows as
    tuples."""
    return tuple(map(tuple, pack_matrix(_factor(spec, x, y)[0], width, _generators(spec)[0])))


def _product(x, y, a, b):
    """a^|x| b^|y| for square matrices a, b of Python ints."""
    return int_matmul(_power(a, abs(x)), _power(b, abs(y)))


def _power(m, n):
    """m^n, n >= 0, for a square matrix m of Python ints, by squaring."""
    if not n:
        return [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    half = _power(m, n // 2)
    square = int_matmul(half, half)
    return int_matmul(square, m) if n % 2 else square


def _trace_of_product(keys, mats):
    """Tr prod_k mats[k] over keys: halves recursively, equal runs once."""
    memo = {}

    def product(ks):
        if len(ks) == 1:
            return mats[ks[0]]
        if ks not in memo:
            memo[ks] = int_matmul(product(ks[:len(ks) // 2]), product(ks[len(ks) // 2:]))
        return memo[ks]

    if len(keys) == 1:
        return sum(row[j] for j, row in enumerate(mats[keys[0]]))
    left = product(keys[:len(keys) // 2])
    right = product(keys[len(keys) // 2:])
    return sum(map(mul, chain(*left), chain(*zip(*right))))


# one entry per block of size > 1, made by the first word that takes out a
# full twist there
@lru_cache(maxsize=None)
def _full_twist(spec):
    """(e, c) with the full twist (AB)^3 = c q^e times the identity on one
    block, c = +-1.

    Delta^2 = (sigma_1 sigma_2)^3 is central in B_3, so it acts on every
    irreducible block as one scalar; (AB)^3 is formed exactly, as the cube
    of the factor AB on packed integers at a width that bounds its entries,
    and checked to be one signed monomial times the identity.
    """
    step = _generators(spec)[0]
    f = _factor(spec, 1, 1)[0]
    width = signed_width(max(chain(*_power(f[2], 3))))
    cube = _power(pack_matrix(f, width, step), 3)
    # equal packed entries are equal polynomials: all share the lowest
    # exponent 3 lo shifted out
    scalar = unpack_signed(cube[0][0], width)
    if len(scalar) != 1 or abs(sum(scalar.values())) != 1 or any(
            cube[i][j] != (cube[0][0] if i == j else 0)
            for i in range(len(cube)) for j in range(len(cube))):
        raise NotIntertwined("block %s: the full twist (AB)^3 is not a signed "
                             "monomial times the identity" % (spec.Q,))
    ((k, c),) = scalar.items()
    return 3 * f[0] + step * k, c


def _canonical(blocks):
    """(blocks, twists): the canonical blocks of a word and the number of
    full twists taken out of it, Delta^-2 counting -1; the blocks
    themselves and 0 when the word holds no full twist, whatever runs it
    could merge.

    The word is read as the cyclic sequence of its generators' runs: runs
    of one generator merge across zero exponents and around the end, and
    each occurrence of (sigma_i sigma_j)^{+-3}, six runs whose inner four
    are one letter of one sign s and whose outer two hold at least one
    letter of sign s, is taken out (_push).  Delta^2 is central, so it
    leaves the rest of the word where it was, and the trace is cyclic.
    The canonical blocks start with sigma_1 where they can; the empty word
    is the one block (0, 0).
    """
    # a full twist is six alternating runs, so it needs three blocks; with
    # no zero exponent the runs are the exponents, and it holds four equal
    # exponents +-1 in a row, cyclically
    if len(blocks) < 3:
        return blocks, 0
    exps = list(chain.from_iterable(blocks))
    if 0 not in exps and (exps.count(1) < 4 > exps.count(-1) or not any(
            a == b == c == d and a in (1, -1) for a, b, c, d in zip(
                exps, exps[1:] + exps[:1], exps[2:] + exps[:2], exps[3:] + exps[:3]))):
        return blocks, 0
    runs = deque()
    twists = _push(runs, zip(cycle((0, 1)), exps), 0)
    # the word is cyclic: while its last run merges with its first, or a
    # full twist crosses its end, the first run is pushed again at the
    # end, so each run and each twist costs O(1) more
    while len(runs) > 1 and (runs[0][0] == runs[-1][0] or len(runs) >= 6 and any(
            _twist_sign(runs, end) for end in range(1, 6))):
        twists = _push(runs, [runs.popleft()], twists)
    if not twists:
        return blocks, 0
    if len(runs) > 1 and runs[0][0]:
        runs.rotate(-1)
    pairs = []
    for g, e in runs:
        if not g:
            pairs.append([e, 0])
        elif pairs:
            pairs[-1][1] = e
        else:
            pairs.append([0, e])
    return tuple(map(tuple, pairs)) or ((0, 0),), twists


def _push(runs, pairs, twists):
    """Push the sequence of pairs (generator, exponent) onto the stack of
    runs; return twists plus the full twists taken out.

    A run of the generator on top merges into it and a zero run is
    dropped.  Whenever the six runs on top are a full twist of sign s,
    one letter of each outer run and the four inner ones are taken out
    and the outer runs' remains are pushed again, so no six runs on the
    stack are ever a full twist.
    """
    pending = []
    for pair in pairs:
        pending.append(pair)
        while pending:
            g, e = pending.pop()
            if runs and runs[-1][0] == g:
                e += runs.pop()[1]
            if e:
                runs.append((g, e))
                s = len(runs) >= 6 and _twist_sign(runs, 0)
                if s:
                    (g0, e0), (g5, e5) = runs[-6], runs[-1]
                    for _ in range(6):
                        runs.pop()
                    twists += s
                    pending += [(g5, e5 - s), (g0, e0 - s)]
    return twists


def _twist_sign(runs, end):
    """s = +-1 when the six alternating runs runs[end - 6], ...,
    runs[end - 1] (negative indices from the last run) hold Delta^{2s}:
    the inner four one letter of sign s each, the outer two at least one
    letter of sign s; else 0."""
    (_, first), (_, s), (_, b), (_, c), (_, d), (_, last) = (
        runs[i] for i in range(end - 6, end))
    return s if s in (1, -1) and b == c == d == s and first * s > 0 and last * s > 0 else 0


def character_coefficients(word, r):
    """Trace every cube block of color r along the braid word, each block
    of size > 1 on the word's canonical blocks (_canonical).

    Each coefficient is certified radical-free with unit denominator; the
    result is a plain Laurent polynomial per diagram Q.
    """
    blocks, twists = _canonical(word.blocks)
    return CharacterExpansion(r=r, coefficients={
        spec.Q: _block_trace(spec, word, blocks, twists) for spec in cube_blocks(r)})


# --------------------------------------------------------------------------
# assembly

def extended_homfly(word, r):
    """The character expansion sum_Q C_Q * S_Q as a power-sum polynomial."""
    return expansion_polynomial(character_coefficients(word, r))


def expansion_polynomial(expansion):
    """sum_Q C_Q * S_Q for an expansion from character_coefficients.

    With S_Q = sum_lam chi_Q(lam)/z_lam p_lam, the coefficient of p_lam is
    (sum_Q chi_Q(lam) C_Q)/z_lam: one integer character sum over the C_Q's
    term dicts, then one division by z_lam per term, which leaves an int
    when it is exact and a Fraction only when it is not.
    """
    terms = {Q: c._t for Q, c in expansion.coefficients.items()}
    out = {}
    for lam, z, chars in _character_table(tuple(terms)):
        acc = _accumulate((e, chi * c) for Q, chi in chars for e, c in terms[Q].items())
        if acc:
            out[lam] = _new(LaurentQ, {e: _div_coeff(c, z) for e, c in acc.items()})
    return _new(PowerSumPoly, out)


# bounded: one entry per tuple of diagrams, in practice one per color
@lru_cache(maxsize=16)
def _character_table(diagrams):
    """((lam, z_lam, ((Q, chi_Q(lam)), ...)), ...) over every power-sum
    monomial lam of the diagrams' Schur functions, lam ascending; chi_Q(lam)
    is z_lam times the coefficient of p_lam in schur_in_powersums(Q)."""
    chars = {}
    for Q in diagrams:
        for lam, c in schur_in_powersums(Q)._t.items():
            chars.setdefault(lam, []).append((Q, int(c * z_of(lam))))
    return tuple((lam, z_of(lam), tuple(qc)) for lam, qc in sorted(chars.items()))


def reduced_homfly(word, r):
    """Reduced polynomial of the closure of ``word`` in color [r]."""
    return reduce_expansion(character_coefficients(word, r), word.writhe)


def reduce_expansion(expansion, writhe):
    """Reduced polynomial: framing times sum C_Q S_Q* over S_[r]*.

    ``expansion`` comes from character_coefficients and ``writhe`` is its
    word's writhe.  S_Q* is the hook-content product of the atoms
    {A q^c}, c in contents(Q), over the atoms {q^h}, h in hooks(Q).
    Every block Q has first row >= r, so its contents contain those of
    [r], and the block [3r] puts the hooks of [r] into the common hook
    denominator: both cancel before anything is packed.  The numerator

        sum_Q C_Q * prod_{c in contents Q - contents [r]} {A q^c}
                  * prod_{h in common - hooks Q} {q^h}

    over the remaining prod {q^h}, h in common - hooks [r], both planned
    once per color, is one qpoly.curly_atom_quotient: packed once, each
    atom one shift and one subtraction for all the C_Q that share it,
    divided once as one integer by the packed prod {q^h}, and the quotient
    unpacked once.  A division that is not exact raises NonPolynomialResult
    naming the lowest A-slice it does not divide (multi-component closures
    genuinely do this; for knots it would signal a bug).
    """
    r = expansion.r
    plan, hooks = _reduction_plan(r, tuple(expansion.coefficients))
    try:
        quotient = curly_atom_quotient([c._t for c in expansion.coefficients.values()],
                                       plan, hooks)
    except InexactDivision as exc:
        raise NonPolynomialResult("quantum-dimension denominator does not divide "
                                  "the character sum (%s)" % exc) from None
    # framing A^(-r w) q^(-2r(r-1)w), a monomial: one shift of the keys
    da, de = -r * writhe, -2 * EXP_DEN * r * (r - 1) * writhe
    return _new(LaurentQA, {(a + da, e + de): c for (a, e), c in quotient.items()})


# bounded: one entry per tuple of diagrams, in practice one per color
@lru_cache(maxsize=16)
def _reduction_plan(r, diagrams):
    """(plan, hooks) of the reduction at color r: the qpoly.atom_plan of the
    diagrams' atom lists, per diagram Q {A q^c}, c in contents Q - contents
    [r], and {q^h}, h in common - hooks Q; and the remaining hooks, common -
    hooks [r]."""
    hooks = {Q: Counter(Q.hooks()) for Q in diagrams}
    common = Counter()
    for hq in hooks.values():
        common |= hq
    color = YoungDiagram([r])
    contents_r = Counter(color.contents())
    plan = atom_plan([[(1, k) for k in (Counter(Q.contents()) - contents_r).elements()]
                      + [(0, h) for h in (common - hooks[Q]).elements()] for Q in diagrams])
    return plan, tuple((common - Counter(color.hooks())).elements())


def closure_components(word):
    """Number of components of the braid closure (cycles of the permutation).

    Only crossing parity matters: each generator contributes its exponent's
    parity to the strand permutation.
    """
    perm = (0, 1, 2)
    for a, b in word.blocks:
        if a % 2:
            perm = (perm[1], perm[0], perm[2])
        if b % 2:
            perm = (perm[0], perm[2], perm[1])
    seen = [False, False, False]
    cycles = 0
    for start in range(3):
        if seen[start]:
            continue
        cycles += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
    return cycles


def antisymmetric_dual(h):
    """Transpose the color: the [1^r] polynomial from the [r] one (q -> -1/q)."""
    return substitute(h, "q->-1/q")


def special_polynomial(h):
    """q = 1 specialization of a reduced polynomial (a polynomial in A)."""
    return substitute(h, "q->1")


def jones_polynomial(h):
    """A = q^2 specialization of a reduced polynomial."""
    return substitute(h, "A->q^2").pure_q()
