"""Symmetric functions in the power-sum basis.

This module is the oracle subsystem: Schur functions expanded through
symmetric-group characters (Murnaghan-Nakayama rim-hook recursion), the
Adams substitution p_k -> p_mk, the inverse Schur expansion through the
inner product <p_lam, p_mu> = z_lam delta, the topological-locus
substitution p_k -> {A^k}/{q^k}, and the cut-and-join operator whose
eigenvalue on S_T is kappa(T).  Everything here is independent of the
mixing matrices, so it can arbitrate the braid engine's output.

Coefficients are ints, Fractions or LaurentQ; the LaurentQ ones are how
the character expansion carries q-dependence through these functions.
topological_locus works in Z on exactly these three kinds and raises
TypeError on any other coefficient.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm

from .qpoly import (
    EXP_DEN,
    LaurentQ,
    LaurentQA,
    curly_q,
    pack_signed,
    signed_width,
    unpack_signed,
)
from .young import FractionQA, YoungDiagram, kappa  # noqa: F401  (kappa re-exported for tests)

# ---------------------------------------------------------------------------
# partitions and centralizer sizes
# ---------------------------------------------------------------------------


def partitions_of(n: int):
    """All partitions of n as weakly decreasing tuples (memoized)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partitions_cached(n, n)


_PARTS_CACHE = {}


def _partitions_cached(n, maxpart):
    key = (n, min(maxpart, n))
    got = _PARTS_CACHE.get(key)
    if got is not None:
        return got
    if n == 0:
        out = ((),)
    else:
        acc = []
        for first in range(min(maxpart, n), 0, -1):
            for rest in _partitions_cached(n - first, first):
                acc.append((first,) + rest)
        out = tuple(acc)
    _PARTS_CACHE[key] = out
    return out


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

_MN_CACHE = {}


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


def _mn(betas, mu) -> int:
    if not mu:
        return 1
    key = (betas, mu)
    got = _MN_CACHE.get(key)
    if got is not None:
        return got
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
    _MN_CACHE[key] = total
    return total


# ---------------------------------------------------------------------------
# PowerSumPoly
# ---------------------------------------------------------------------------

def _norm_partition(lam):
    return tuple(sorted((int(x) for x in lam if x), reverse=True))


class PowerSumPoly:
    """Polynomial in the power sums: map {partition: coefficient}.

    The partition (3, 1, 1) keys the monomial p3*p1*p1.  Coefficients may
    be ints, Fractions, or LaurentQ.
    """

    __slots__ = ("_t", "_h")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for lam, c in terms.items():
                if c:
                    t[_norm_partition(lam)] = c
        self._t = t
        self._h = None

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

    @property
    def terms(self):
        return dict(self._t)

    def coeff(self, lam):
        return self._t.get(_norm_partition(lam), 0)

    def is_zero(self) -> bool:
        return not self._t

    def degrees(self):
        return sorted({sum(lam) for lam in self._t})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, PowerSumPoly):
            if self._t.keys() != other._t.keys():
                return False
            return all(other._t[k] == c for k, c in self._t.items())
        return NotImplemented

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset((k, _hashable_coeff(c)) for k, c in self._t.items()))
        return self._h

    def __neg__(self):
        return _mkps({k: -c for k, c in self._t.items()})

    def __add__(self, other):
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        out = dict(self._t)
        for k, c in other._t.items():
            v = out.get(k)
            v = c if v is None else v + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return _mkps(out)

    def __sub__(self, other):
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, PowerSumPoly):
            out = {}
            for l1, c1 in self._t.items():
                for l2, c2 in other._t.items():
                    k = tuple(sorted(l1 + l2, reverse=True))
                    c = c1 * c2
                    v = out.get(k)
                    v = c if v is None else v + c
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
            return _mkps(out)
        # scalar
        if not other:
            return PowerSumPoly.zero()
        return _mkps({k: c * other for k, c in self._t.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = PowerSumPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def render(self) -> str:
        if not self._t:
            return "0"
        chunks = []
        for lam in sorted(self._t, reverse=True):
            c = self._t[lam]
            mono = "*".join("p%d" % a for a in lam) if lam else "1"
            chunks.append("(%s)*%s" % (c, mono))
        return " + ".join(chunks)

    def __repr__(self):
        return "PowerSumPoly(%s)" % self.render()


def _mkps(t) -> PowerSumPoly:
    f = PowerSumPoly.__new__(PowerSumPoly)
    f._t = t
    f._h = None
    return f


def _hashable_coeff(c):
    return c if getattr(c, "__hash__", None) else str(c)


# ---------------------------------------------------------------------------
# Schur expansion and its inverse
# ---------------------------------------------------------------------------

_SCHUR_CACHE = {}


def schur_in_powersums(Q) -> PowerSumPoly:
    """S_Q = sum over mu of chi_Q(mu)/z_mu * p_mu.

    >>> schur_in_powersums((2, 1)).coeff((3,))
    Fraction(-1, 3)
    """
    rows = tuple(Q.rows) if isinstance(Q, YoungDiagram) else _norm_partition(Q)
    got = _SCHUR_CACHE.get(rows)
    if got is not None:
        return got
    n = sum(rows)
    if n > 12:
        raise ValueError("|Q| = %d exceeds the supported grading 12" % n)
    out = {}
    for mu in partitions_of(n):
        chi = murnaghan_nakayama(rows, mu)
        if chi:
            out[mu] = Fraction(chi, z_of(mu))
    poly = _mkps(out)
    _SCHUR_CACHE[rows] = poly
    return poly


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
    return _mkps({tuple(m * a for a in lam): c for lam, c in f._t.items()})


# ---------------------------------------------------------------------------
# topological locus
# ---------------------------------------------------------------------------

def topological_locus(f: PowerSumPoly) -> FractionQA:
    """Substitute p_k -> {A^k}/{q^k} and combine over a common denominator.

    Returns a FractionQA; equality of two results is cross-multiplication,
    avoiding any need for bivariate reduction.  The denominator is the
    product of {q^v} over ``den_atoms``: each part value v repeated as often
    as it occurs in any one partition.  The numerator is

        sum_lam c_lam * prod_{v in lam} {A^v} * prod_{v missing} {q^v},

    computed in Z on one packed integer.  Every coefficient is scaled by L,
    the lcm of all coefficient denominators, and each L*c_lam is packed once
    (qpoly.pack_signed) in the bivariate Kronecker layout

        digit index = (a + n) * qspan + (e - qlo) / step,

    for the term A^a q^(e/6), where n is the largest degree |lam|, qlo the
    lowest q-exponent any term reaches, step the gcd of all q-exponent
    offsets and atom shifts, and qspan the number of q-digits.  With
    X = 2^(8 width) per digit, an atom is a monomial times X^k - 1, so
    multiplying by it is one shift and one subtraction.  Each atom at most
    doubles the l1 norm, so no coefficient of the sum exceeds
    sum_lam |L*c_lam|_1 * 2^(len lam + #missing atoms), and the width is
    taken from that bound.  The shifted terms are summed, unpacked once
    (qpoly.unpack_signed) and divided by L.
    """
    if not f._t:
        return FractionQA(LaurentQA.zero(), LaurentQA.one(), (), ())
    scale, polys = _integer_coefficients(f._t)
    den_mult = Counter()
    for lam in polys:
        den_mult |= Counter(lam)
    den_atoms = sorted(den_mult.elements())
    missing = {lam: den_mult - Counter(lam) for lam in polys}
    # prod over the missing atoms {q^v} = q^(-lift/6) * prod (q^(2v) - 1)
    lift = {lam: EXP_DEN * sum(m.elements()) for lam, m in missing.items()}
    n = max(sum(lam) for lam in polys)
    qlo = min(min(p) - lift[lam] for lam, p in polys.items())
    qhi = max(max(p) + lift[lam] for lam, p in polys.items())
    step = gcd(*(2 * EXP_DEN * v for v in den_mult),
               *(e - lift[lam] - qlo for lam, p in polys.items() for e in p)) or 1
    qspan = (qhi - qlo) // step + 1
    width = signed_width(sum(
        sum(map(abs, p.values())) << (len(lam) + sum(missing[lam].values()))
        for lam, p in polys.items()))
    bits = 8 * width
    slot = qspan * bits
    total = 0
    for lam, p in polys.items():
        x = pack_signed(p, qlo + lift[lam], width, step)
        for v in missing[lam].elements():
            x = (x << (2 * EXP_DEN * v // step * bits)) - x
        for v in lam:
            x = (x << (2 * v * slot)) - x
        total += x << ((n - sum(lam)) * slot)
    num = {}
    for k, d in unpack_signed(total, width).items():
        a, j = divmod(k, qspan)
        num[(a - n, qlo + j * step)] = d // scale if d % scale == 0 else Fraction(d, scale)
    den = LaurentQ.one()
    for v in den_atoms:
        den = den * curly_q(v)
    return FractionQA(LaurentQA(num), LaurentQA.from_q(den), None, den_atoms)


def _integer_coefficients(terms):
    """(L, {lam: {q-exponent: L*c}}) with L the lcm of all denominators."""
    polys = {}
    for lam, c in terms.items():
        if isinstance(c, LaurentQ):
            polys[lam] = c._t
        elif isinstance(c, (int, Fraction)):
            polys[lam] = {0: c}
        else:
            raise TypeError("topological_locus needs int, Fraction or LaurentQ "
                            "coefficients, got %s" % type(c).__name__)
    scale = lcm(*(c.denominator for p in polys.values() for c in p.values()))
    return scale, {lam: {e: c.numerator * (scale // c.denominator) for e, c in p.items()}
                   for lam, p in polys.items()}


# ---------------------------------------------------------------------------
# cut-and-join
# ---------------------------------------------------------------------------

def cut_and_join(f: PowerSumPoly) -> PowerSumPoly:
    """Apply the degree-preserving operator
    (1/2) sum_{a,b>=1} [ (a+b) p_a p_b d/dp_{a+b} + a b p_{a+b} d^2/(dp_a dp_b) ].

    Schur functions are its eigenvectors with eigenvalue kappa.
    """
    out = {}

    def bump(lam, c):
        v = out.get(lam)
        v = c if v is None else v + c
        if v:
            out[lam] = v
        elif lam in out:
            del out[lam]

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
                bump(key, c * Fraction(s * ms, 2))
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
                bump(key, c * Fraction(a * b * cnt, 2))
    return _mkps(out)
