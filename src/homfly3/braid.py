"""Evaluator for 3-strand braid closures in symmetric representations.

The pipeline: a braid word {a_1,b_1 | a_2,b_2 | ...} is traced block by
block through the mixing data of :mod:`homfly3.racah`,

    C_Q = Tr prod_i R_Q^{a_i} U_Q R_Q^{b_i} U_Q^T,

the coefficients C_Q are certified radical-free Laurent polynomials, and the
invariants are assembled from them: the extended polynomial as a symmetric
function, and the reduced two-variable polynomial on the topological locus
after framing and division by the quantum dimension.

The trace never touches radicals.  Each block carries its mixing matrix as
the certified integer triple of :func:`homfly3.racah.twisted_basis`,
U = S (V/c) S with S = diag(sqrt(rho_j)), which turns every factor into
D_a V D_b V^T / c^2 with D_x = diag(rho_j xi_j^x): plain Laurent
arithmetic, and the rho-conjugation cancels cyclically, so the trace is
exactly the original one.

Every xi_j is a signed q-monomial, so entry (i, j) of D_a V D_b V^T is
sum_t +-q^(a e_i + b e_t) T_ijt with T_ijt = rho_i rho_t V_it V_jt: the
factors are shifted, sign-flipped sums of the products
racah.trace_products caches once per mixing matrix, with no polynomial
product per word.  Each factor is packed once into an integer matrix of
signed digits (its entries at q^step -> 2^(8 width), its lowest exponent
shifted out) and the trace of the integer product is unpacked once per
block.  The width is bounded by the trace of the product of the entrywise
l1-norm matrices; dividing by c^(2L), of leading coefficient +-1, stays
in Z.  A trace whose packed integers would exceed TRACE_BYTES is refused
with TraceTooLarge before anything is packed.

The reduction divides sum_Q C_Q S_Q* by S_[r]* with the atoms of S_[r]*
cancelled up front: each S_Q* already holds the content atoms of [r], and
the common hook denominator the hooks of [r].  The numerator is one
qpoly.curly_atom_sum, each C_Q times its remaining curly-bracket atoms
on one packed integer, by shifts and subtractions; one exact division by
the remaining pure-q denominator, one synthetic pass per atom, is left.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import mul

from .qpoly import (
    EXP_DEN,
    LaurentQ,
    LaurentQA,
    curly_atom_sum,
    laurent_divexact,
    pack_signed,
    signed_width,
    substitute,
    unpack_signed,
)
from .young import YoungDiagram, cube_blocks
from .racah import build_block, trace_products
from .symfun import PowerSumPoly, schur_in_powersums

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
# needing 1 MiB already traces for minutes (the heaviest Tier-1 and
# benchmark words need under 18 KiB)
TRACE_BYTES = 1 << 20


class TraceTooLarge(Exception):
    """A block trace would pack integers over TRACE_BYTES."""


@dataclass(frozen=True)
class Braid3Word:
    """A 3-strand braid word as alternating generator exponents.

    ``blocks`` is a nonempty sequence of pairs (a_i, b_i): the braid is
    sigma_1^{a_1} sigma_2^{b_1} sigma_1^{a_2} sigma_2^{b_2} ...; zero
    exponents are allowed, so any 3-strand braid fits this shape.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(
            (int(a), int(b)) for (a, b) in self.blocks
        )
        if not blocks:
            raise ValueError("a braid word needs at least one (a, b) block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def writhe(self):
        return sum(a + b for a, b in self.blocks)

    @classmethod
    def parse(cls, text):
        """Parse 'a1,b1|a2,b2|...' (spaces tolerated)."""
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
                blocks.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError("bad integer in braid word: %r" % (shown,))
        return cls(tuple(blocks))

    def render(self):
        return "|".join("%d,%d" % ab for ab in self.blocks)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class CharacterExpansion:
    """Character-expansion coefficients C_Q of one braid word at color r."""

    r: int
    coefficients: dict

    def __iter__(self):
        return iter(sorted(self.coefficients, key=lambda Q: Q.rows))


# --------------------------------------------------------------------------
# radical-free trace engine

def _block_trace(block, word):
    """C_Q for one mixing block: Tr prod_i R^{a_i} U R^{b_i} U^T.

    The factor of each distinct word block (a, b) is D_a V D_b V^T, whose
    entry (i, j) is sum_t xi_i^a xi_t^b T_ijt, a sum of shifted and
    sign-flipped copies of the cached T_ijt (racah.trace_products).
    """
    xi = block.eigenvalues
    size = len(xi)
    if size == 1:
        return xi[0] ** word.writhe
    products = trace_products(block.rho, block.V)
    # xi_j = sign_j q^(e_j / 6), so xi_j^x = sign_j^x q^(x e_j / 6)
    monos = [next(iter(x._t.items())) for x in xi]
    factors = {}
    for a, b in set(word.blocks):
        ta = [(a * e, s if a % 2 else 1) for e, s in monos]
        tb = [(b * e, s if b % 2 else 1) for e, s in monos]
        factors[a, b] = [[_shifted_sum(ta[i], tb, products[i][j])
                          for j in range(size)] for i in range(size)]
    lo = {ab: min(min(t) for row in m for t in row if t)
          for ab, m in factors.items()}
    hi = {ab: max(max(t) for row in m for t in row if t)
          for ab, m in factors.items()}
    step = gcd(*(e - lo[ab] for ab, m in factors.items()
                 for row in m for t in row for e in t)) or 1
    norms = {ab: [[sum(map(abs, t.values())) for t in row] for row in m]
             for ab, m in factors.items()}
    width = signed_width(_trace_of_product(word.blocks, norms))
    # the factors' digit spans add up in the product: no packed integer
    # below is longer than the trace's
    nbytes = width * (1 + sum((hi[ab] - lo[ab]) // step for ab in word.blocks))
    if nbytes > TRACE_BYTES:
        # a size past 2^64 is named by its bit length: str() of an int is
        # itself refused past 4,300 digits
        size = nbytes if nbytes < 1 << 64 else "over 2^%d" % (nbytes.bit_length() - 1)
        raise TraceTooLarge(
            "block %s: the packed trace needs %s bytes, over the budget of %d"
            % (block.spec.Q, size, TRACE_BYTES))
    packed = {ab: [[pack_signed(t, lo[ab], width, step) if t else 0
                    for t in row] for row in m] for ab, m in factors.items()}
    digits = unpack_signed(_trace_of_product(word.blocks, packed), width)
    base = sum(lo[ab] for ab in word.blocks)
    trace = LaurentQ({base + step * k: d for k, d in digits.items()})
    return laurent_divexact(trace, block.c ** (2 * len(word.blocks)))


def _shifted_sum(ta, tb, row):
    """Terms of sum_t xi_i^a xi_t^b T_ijt, from (shift, sign) of each power."""
    da, sa = ta
    acc = {}
    for (db, sb), (exps, coeffs) in zip(tb, row):
        d = da + db
        if sa == sb:
            for e, c in zip(exps, coeffs):
                acc[e + d] = acc.get(e + d, 0) + c
        else:
            for e, c in zip(exps, coeffs):
                acc[e + d] = acc.get(e + d, 0) - c
    return {e: c for e, c in acc.items() if c}


def _trace_of_product(keys, mats):
    """Tr prod_k mats[k] over keys: halves recursively, equal runs once."""
    memo = {}

    def product(ks):
        if len(ks) == 1:
            return mats[ks[0]]
        if ks not in memo:
            cols = list(zip(*product(ks[len(ks) // 2:])))
            memo[ks] = [[sum(map(mul, row, col)) for col in cols]
                        for row in product(ks[:len(ks) // 2])]
        return memo[ks]

    if len(keys) == 1:
        return sum(row[j] for j, row in enumerate(mats[keys[0]]))
    left = product(keys[:len(keys) // 2])
    right = product(keys[len(keys) // 2:])
    return sum(map(mul, chain(*left), chain(*zip(*right))))


def character_coefficients(word, r):
    """Trace every cube block of color r along the braid word.

    Each coefficient is certified radical-free with unit denominator; the
    result is a plain Laurent polynomial per diagram Q.
    """
    coeffs = {}
    for spec in cube_blocks(r):
        coeffs[spec.Q] = _block_trace(build_block(spec), word)
    return CharacterExpansion(r=r, coefficients=coeffs)


# --------------------------------------------------------------------------
# assembly

def extended_homfly(word, r):
    """The character expansion sum_Q C_Q * S_Q as a power-sum polynomial."""
    return expansion_polynomial(character_coefficients(word, r))


def expansion_polynomial(expansion):
    """sum_Q C_Q * S_Q for an expansion from character_coefficients."""
    acc = PowerSumPoly.zero()
    for Q, c in expansion.coefficients.items():
        acc = acc + c * schur_in_powersums(Q)
    return acc


def _divide_curly_q(terms, hooks):
    """Exact division of {(a, e): c} by prod_h {q^h}, one A-slice at a time.

    On a slice's dense digits (X = q^step) each atom is q^-h (X^k - 1)
    with k = 12 h / step: one synthetic-division pass, which must leave
    the k lowest digits zero.
    """
    slices = {}
    for (a, e), c in terms.items():
        slices.setdefault(a, {})[e] = c
    out = {}
    for a, s in slices.items():
        lo = min(s)
        step = gcd(*(e - lo for e in s), *(2 * EXP_DEN * h for h in hooks)) or 1
        dense = [0] * ((max(s) - lo) // step + 1)
        for e, c in s.items():
            dense[(e - lo) // step] = c
        for h in hooks:
            k = 2 * EXP_DEN * h // step
            for i in range(len(dense) - 1, k - 1, -1):
                dense[i - k] += dense[i]
            if any(dense[:k]):
                raise NonPolynomialResult(
                    "quantum-dimension denominator does not divide the "
                    "character sum (A-slice %d)" % a
                )
            del dense[:k]
        lo += EXP_DEN * sum(hooks)
        out.update(((a, lo + i * step), c) for i, c in enumerate(dense) if c)
    return out


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

    is one qpoly.curly_atom_sum: packed once, each atom one shift and one
    subtraction, unpacked once.  Its division by the remaining
    denominator, prod {q^h} over h in common - hooks [r], must clear
    exactly, otherwise NonPolynomialResult is raised (multi-component
    closures genuinely do this; for knots it would signal a bug).
    """
    r = expansion.r
    color = YoungDiagram([r])
    hooks = {Q: Counter(Q.hooks()) for Q in expansion.coefficients}
    common = Counter()
    for hq in hooks.values():
        common |= hq
    contents_r = Counter(color.contents())
    numerator = curly_atom_sum(
        (c._t, [(1, k) for k in (Counter(Q.contents()) - contents_r).elements()]
         + [(0, h) for h in (common - hooks[Q]).elements()])
        for Q, c in expansion.coefficients.items())
    quotient = _divide_curly_q(
        numerator, list((common - Counter(color.hooks())).elements()))

    # framing A^(-r w) q^(-2r(r-1)w), a monomial: one shift
    da, de = -r * writhe, -2 * EXP_DEN * r * (r - 1) * writhe
    return LaurentQA({(a + da, e + de): c for (a, e), c in quotient.items()})


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
