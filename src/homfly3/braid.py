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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .qpoly import (
    InexactDivision,
    LaurentQ,
    LaurentQA,
    curly_q,
    laurent_divexact,
    substitute,
)
from .young import YoungDiagram, cube_blocks, hook_content_dimension
from .racah import build_block
from .symfun import PowerSumPoly, schur_in_powersums

__all__ = [
    "Braid3Word",
    "CharacterExpansion",
    "NonPolynomialResult",
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
            if len(parts) != 2:
                raise ValueError(
                    "each |-separated block needs exactly two integers, "
                    "got %r" % (chunk,)
                )
            try:
                blocks.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError("bad integer in braid word: %r" % (chunk,))
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

def _lq_matmul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = LaurentQ.zero()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _block_trace(block, word):
    """C_Q for one mixing block: Tr prod_i R^{a_i} U R^{b_i} U^T."""
    xi = block.eigenvalues
    size = len(xi)
    if size == 1:
        return xi[0] ** word.writhe
    rho, v, c = block.rho, block.V, block.c
    vt = tuple(tuple(v[j][i] for j in range(size)) for i in range(size))

    prod = None
    for a, b in word.blocks:
        da = [rho[j] * xi[j] ** a for j in range(size)]
        db = [rho[j] * xi[j] ** b for j in range(size)]
        w1 = tuple(tuple(da[i] * x for x in v[i]) for i in range(size))
        w2 = tuple(tuple(db[i] * x for x in vt[i]) for i in range(size))
        m = _lq_matmul(w1, w2)
        prod = m if prod is None else _lq_matmul(prod, m)

    trace = LaurentQ.zero()
    for i in range(size):
        trace = trace + prod[i][i]
    return laurent_divexact(trace, c ** (2 * len(word.blocks)))


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


def _curly_product(atoms):
    """prod_h {q^h}^atoms[h] for a Counter of hook lengths h."""
    acc = LaurentQ.one()
    for h, n in atoms.items():
        acc = acc * curly_q(h) ** n
    return acc


def _divide_pure_q(f, d):
    """Exact division of a two-variable polynomial by a pure-q polynomial."""
    slices = f.a_slices()
    out = {}
    for a, s in slices.items():
        try:
            out[a] = laurent_divexact(s, d)
        except InexactDivision:
            raise NonPolynomialResult(
                "quantum-dimension denominator does not divide the "
                "character sum (A-slice %d)" % a
            )
    return LaurentQA.from_slices(out)


def _divide_curly_atom(f, content):
    """Exact synthetic division by (A q^c - A^{-1} q^{-c})."""
    if f.is_zero():
        return f
    slices = {a: s for a, s in f.a_slices().items()}
    span = max(slices) - min(slices)
    out = {}
    steps = 0
    while slices:
        steps += 1
        if steps > span + 1:
            raise NonPolynomialResult(
                "quantum-dimension atom {A q^%d} does not divide the "
                "character sum" % content
            )
        k = max(slices)
        top = slices.pop(k)
        g = top.shift6(-6 * content)
        out[k - 1] = out.get(k - 1, LaurentQ.zero()) + g
        lower = g.shift6(-6 * content)
        prev = slices.get(k - 2, LaurentQ.zero()) + lower
        if prev.is_zero():
            slices.pop(k - 2, None)
        else:
            slices[k - 2] = prev
    return LaurentQA.from_slices(out)


def reduced_homfly(word, r):
    """Reduced polynomial of the closure of ``word`` in color [r]."""
    return reduce_expansion(character_coefficients(word, r), word.writhe)


def reduce_expansion(expansion, writhe):
    """Reduced polynomial: framing times sum C_Q S_Q* over S_[r]*.

    ``expansion`` comes from character_coefficients and ``writhe`` is its
    word's writhe.  The topological-locus values S_Q* enter through their
    hook/content product form; the division by the quantum dimension of
    [r] must clear exactly, otherwise NonPolynomialResult is raised
    (multi-component closures genuinely do this; for knots it would
    signal a bug).
    """
    r = expansion.r
    dims = {Q: hook_content_dimension(Q) for Q in expansion.coefficients}
    dim_r = hook_content_dimension(YoungDiagram([r]))

    # common pure-q denominator: max multiset of hook atoms across blocks
    common = Counter()
    for d in dims.values():
        common |= Counter(d.den_atoms)

    total = LaurentQA.zero()
    for Q, c in expansion.coefficients.items():
        d = dims[Q]
        fill = _curly_product(common - Counter(d.den_atoms))
        total = total + d.num * LaurentQA.from_q(c * fill)

    # multiply by the hooks of [r] (numerator of 1/S_[r]*), then divide by
    # the common q-denominator and by the content atoms of [r]
    total = total * LaurentQA.from_q(_curly_product(Counter(dim_r.den_atoms)))
    total = _divide_pure_q(total, _curly_product(common))
    for content in dim_r.num_atoms:
        total = _divide_curly_atom(total, content)

    framing = LaurentQA.monomial(
        1, a=-r * writhe, qexp=-2 * r * (r - 1) * writhe)
    return total * framing


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
