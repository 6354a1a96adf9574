"""Symmetric functions in the power-sum basis.

This module is the oracle subsystem: Schur functions expanded through
symmetric-group characters (Murnaghan-Nakayama rim-hook recursion), the
Adams substitution p_k -> p_mk, the inverse Schur expansion through the
inner product <p_lam, p_mu> = z_lam delta, the topological-locus
substitution p_k -> {A^k}/{q^k}, and the cut-and-join operator whose
eigenvalue on S_T is kappa(T).  Everything here is independent of the
mixing matrices, so it can arbitrate the braid engine's output.

PowerSumPoly runs on qpoly's shared sparse-polynomial operators and
supplies only its partition keys, its product and its rendering.  Its
coefficients are ints, Fractions or LaurentQ; the LaurentQ ones are how
the character expansion carries q-dependence through these functions.
topological_locus works in Z on exactly these three kinds and raises
TypeError on any other coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import index

from .qpoly import (LaurentQ, LaurentQA, _accumulate, _div_coeff, _new, _Sparse,
                    atom_list, curly_atom_quotient, curly_q_product)
from .young import SUPPORTED_R, FractionQA, YoungDiagram, kappa  # noqa: F401  (kappa re-exported for tests)

# ---------------------------------------------------------------------------
# partitions and centralizer sizes
# ---------------------------------------------------------------------------


def partitions_of(n: int):
    """All partitions of n as weakly decreasing tuples (memoized)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partitions_cached(n, n)


@lru_cache(maxsize=None)
def _partitions_cached(n, maxpart):
    if n == 0:
        return ((),)
    acc = []
    for first in range(min(maxpart, n), 0, -1):
        for rest in _partitions_cached(n - first, min(first, n - first)):
            acc.append((first,) + rest)
    return tuple(acc)


def z_of(mu) -> int:
    """Centralizer size z_mu = prod k^(m_k) m_k! over part multiplicities."""
    z = 1
    mult = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= k ** m * factorial(m)
    return z


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters
# ---------------------------------------------------------------------------

def murnaghan_nakayama(Q, mu) -> int:
    """Symmetric-group character chi_Q(mu) by rim-hook recursion.

    >>> murnaghan_nakayama((2, 1), (3,))
    -1
    >>> murnaghan_nakayama((1, 1, 1), (3,))
    1
    >>> murnaghan_nakayama((2, 1), (1, 1, 1))
    2
    """
    rows = tuple(Q.rows) if isinstance(Q, YoungDiagram) else tuple(Q)
    mu = tuple(sorted((m for m in mu if m), reverse=True))
    if sum(rows) != sum(mu):
        raise ValueError("size mismatch: |Q|=%d but |mu|=%d" % (sum(rows), sum(mu)))
    n = len(rows)
    betas = tuple(sorted((rows[i] + (n - 1 - i) for i in range(n)), reverse=True))
    return _mn(betas, mu)


@lru_cache(maxsize=None)
def _mn(betas, mu) -> int:
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in betas if nb < c < b)
        child = tuple(sorted((nb if c == b else c for c in betas), reverse=True))
        term = _mn(child, rest)
        total += -term if height % 2 else term
    return total


# ---------------------------------------------------------------------------
# PowerSumPoly
# ---------------------------------------------------------------------------

def _norm_partition(lam):
    return tuple(sorted((index(x) for x in lam if x), reverse=True))


class PowerSumPoly(_Sparse):
    """Polynomial in the power sums: map {partition: coefficient}.

    The partition (3, 1, 1) keys the monomial p3*p1*p1.  Coefficients may
    be ints, Fractions, or LaurentQ (topological_locus refuses any other).
    The operators shared with LaurentQ and LaurentQA are qpoly._Sparse's.
    """

    __slots__ = ()

    _key = staticmethod(_norm_partition)
    _check = staticmethod(lambda c: c)  # any coefficient passes

    @staticmethod
    def _scale_key(lam, n):
        if n < 0:
            raise ValueError("a power-sum monomial has no inverse")
        return tuple(sorted(lam * n, reverse=True))

    _unit_key = ()

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, PowerSumPoly) else None

    @staticmethod
    def zero() -> "PowerSumPoly":
        return PowerSumPoly()

    @staticmethod
    def one() -> "PowerSumPoly":
        return PowerSumPoly({(): 1})

    @staticmethod
    def p(k: int) -> "PowerSumPoly":
        if k < 1:
            raise ValueError("p_k needs k >= 1")
        return PowerSumPoly({(k,): 1})

    def coeff(self, lam):
        return self._t.get(_norm_partition(lam), 0)

    def degrees(self):
        return sorted({sum(lam) for lam in self._t})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def __mul__(self, other):
        if isinstance(other, PowerSumPoly):
            return _new(PowerSumPoly, _accumulate(
                (tuple(sorted(l1 + l2, reverse=True)), c1 * c2)
                for l1, c1 in self._t.items() for l2, c2 in other._t.items()))
        # scalar
        if not other:
            return PowerSumPoly.zero()
        return _new(PowerSumPoly, {k: c * other for k, c in self._t.items()})

    __rmul__ = __mul__

    def render(self) -> str:
        if not self._t:
            return "0"
        chunks = []
        for lam in sorted(self._t, reverse=True):
            c = self._t[lam]
            mono = "*".join("p%d" % a for a in lam) if lam else "1"
            chunks.append("(%s)*%s" % (c, mono))
        return " + ".join(chunks)


# ---------------------------------------------------------------------------
# Schur expansion and its inverse
# ---------------------------------------------------------------------------

# the largest |Q| Schur functions are expanded for: the blocks of
# [r]^(x3) at the largest supported rank
MAX_GRADING = 3 * max(SUPPORTED_R)


def schur_in_powersums(Q) -> PowerSumPoly:
    """S_Q = sum over mu of chi_Q(mu)/z_mu * p_mu, each coefficient an int
    where it is integral.

    >>> schur_in_powersums((2, 1)).coeff((3,))
    Fraction(-1, 3)
    """
    rows = tuple(Q.rows) if isinstance(Q, YoungDiagram) else _norm_partition(Q)
    return _schur_in_powersums(rows)


@lru_cache(maxsize=None)
def _schur_in_powersums(rows) -> PowerSumPoly:
    n = sum(rows)
    if n > MAX_GRADING:
        raise ValueError("|Q| = %d exceeds the supported grading %d" % (n, MAX_GRADING))
    out = {}
    for mu in partitions_of(n):
        chi = murnaghan_nakayama(rows, mu)
        if chi:
            out[mu] = _div_coeff(chi, z_of(mu))
    return _new(PowerSumPoly, out)


def expand_in_schur(f: PowerSumPoly, degree: int):
    """Coefficients c_Q with f = sum c_Q S_Q, via <p_lam, p_mu> = z delta.

    The input must be homogeneous of the given degree; the result maps
    YoungDiagram to coefficient (zero coefficients omitted).
    """
    if not f.is_homogeneous() or (f._t and f.degrees() != [degree]):
        raise ValueError("input is not homogeneous of degree %d" % degree)
    out = {}
    for Qrows in partitions_of(degree):
        acc = None
        for mu, c in f._t.items():
            chi = murnaghan_nakayama(Qrows, mu)
            if chi:
                term = c * chi
                acc = term if acc is None else acc + term
        if acc is not None and acc:
            out[YoungDiagram(Qrows)] = acc
    return out


def adams(f: PowerSumPoly, m: int) -> PowerSumPoly:
    """The substitution p_k -> p_mk applied to every monomial.

    >>> adams(PowerSumPoly.p(1), 3) == PowerSumPoly.p(3)
    True
    """
    if m < 1:
        raise ValueError("Adams degree must be >= 1")
    if m == 1:
        return f
    return _new(PowerSumPoly, {tuple(m * a for a in lam): c for lam, c in f._t.items()})


# ---------------------------------------------------------------------------
# topological locus
# ---------------------------------------------------------------------------

def topological_locus(f: PowerSumPoly) -> FractionQA:
    """Substitute p_k -> {A^k}/{q^k} and combine over a common denominator.

    Returns a FractionQA; equality of two results is cross-multiplication,
    avoiding any need for bivariate reduction.  The denominator is the
    product of {q^v} over each part value v, repeated as often as it
    occurs in any one partition.  The numerator is

        sum_lam c_lam * prod_{v in lam} {A^v} * prod_{v missing} {q^v},

    computed in Z on one packed integer by qpoly.curly_atom_quotient, which
    documents the layout and the width bound.  What depends on the
    monomials alone, each lam's qpoly.atom_list and the denominator, is
    planned once per tuple of monomials (_locus_plan); a request collects
    the coefficients' term dicts, each checked first, and packs them.
    """
    if not f._t:
        return FractionQA(LaurentQA.zero(), LaurentQA.one())
    polys = [_coefficient_terms(c) for c in f._t.values()]
    atoms, den = _locus_plan(tuple(f._t))
    # curly_atom_quotient's terms are canonical: int keys, nonzero
    # coefficients, ints when integral
    return FractionQA(_new(LaurentQA, curly_atom_quotient(list(zip(polys, atoms)), ())), den)


# bounded: one entry per tuple of monomials (the extended polynomials of the
# 19 catalog knots at r = 2 and of 3_1 and 5_2 at r = 3 share 3 entries)
@lru_cache(maxsize=256)
def _locus_plan(monomials):
    """(atoms, den) of the locus over the monomials: per lam the
    qpoly.atom_list of {q^v}, v in common - lam, and {A^v}, v in lam, where
    common is the multiset union of the monomials' parts; and den = prod
    {q^v}, v in common, as a LaurentQA."""
    common = Counter()
    for lam in monomials:
        common |= Counter(lam)
    atoms = tuple(atom_list([(0, v) for v in (common - Counter(lam)).elements()]
                            + [(v, 0) for v in lam]) for lam in monomials)
    return atoms, LaurentQA.from_q(curly_q_product(sorted(common.elements())))


def _coefficient_terms(c):
    """{q-exponent: coefficient} of an int, Fraction or LaurentQ coefficient."""
    if isinstance(c, LaurentQ):
        return c._t
    if isinstance(c, (int, Fraction)):
        return {0: c}
    raise TypeError("topological_locus needs int, Fraction or LaurentQ "
                    "coefficients, got %s" % type(c).__name__)


# ---------------------------------------------------------------------------
# cut-and-join
# ---------------------------------------------------------------------------

def cut_and_join(f: PowerSumPoly) -> PowerSumPoly:
    """Apply the degree-preserving operator
    (1/2) sum_{a,b>=1} [ (a+b) p_a p_b d/dp_{a+b} + a b p_{a+b} d^2/(dp_a dp_b) ].

    Schur functions are its eigenvectors with eigenvalue kappa.
    """
    pairs = []
    for lam, c in f._t.items():
        mult = {}
        for v in lam:
            mult[v] = mult.get(v, 0) + 1
        # cut term: remove one part s, insert (a, b) with a+b = s
        for s, ms in mult.items():
            once = list(lam)
            once.remove(s)
            for a in range(1, s):
                b = s - a
                key = tuple(sorted(once + [a, b], reverse=True))
                pairs.append((key, c * Fraction(s * ms, 2)))
        # join term: remove parts a and b, insert a+b
        for a, ma in mult.items():
            for b, mb in mult.items():
                cnt = ma * (ma - 1) if a == b else ma * mb
                if not cnt:
                    continue
                twice = list(lam)
                twice.remove(a)
                twice.remove(b)
                key = tuple(sorted(twice + [a + b], reverse=True))
                pairs.append((key, c * Fraction(a * b * cnt, 2)))
    return _new(PowerSumPoly, _accumulate(pairs))
