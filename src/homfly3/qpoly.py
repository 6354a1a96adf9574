"""Exact Laurent-polynomial arithmetic in q and in the pair (A, q).

Everything in this package lives over the ring Q[q^(1/6), q^(-1/6)]
(optionally extended by A, A^(-1)).  q-exponents are rational numbers
with denominator dividing 6, stored as integer numerators over the
fixed denominator 6.  The sixth-integer lattice is the coarsest one
that accommodates both the normalized braiding eigenvalues (whose
exponents involve thirds) and square roots of odd q-powers (halves),
while keeping the A -> q^2 substitution exact.

Coefficients are exact rationals; no floating point is used anywhere.
Internally a coefficient may be held as a plain ``int`` when it happens
to be integral -- ints and ``Fraction``s mix transparently and integer
arithmetic is considerably faster on the hot paths.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd

EXP_DEN = 6  # fixed denominator of the q-exponent lattice

# Maximum len(a)*len(b) for which schoolbook dict multiplication is used;
# larger products go through Kronecker substitution into integer multiply.
_NAIVE_MUL_CUTOFF = 1024


class PolyParseError(ValueError):
    """A laurent-string did not parse in the canonical format."""


class InexactDivision(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


def _coeff(c):
    """Validate and normalize a coefficient (int or Fraction)."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError("exact rational coefficient expected, got %s" % type(c).__name__)


def _lattice6(e) -> int:
    """Convert an exponent (int or Fraction) to sixths, checking the lattice."""
    if isinstance(e, int):
        return EXP_DEN * e
    e6 = Fraction(e) * EXP_DEN
    if e6.denominator != 1:
        raise ValueError("q-exponent %s is off the 1/%d lattice" % (e, EXP_DEN))
    return int(e6)


# ---------------------------------------------------------------------------
# raw term-dict arithmetic ({exponent: coefficient}, exponents in sixths)
# ---------------------------------------------------------------------------

def _add_dicts(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _scale_dict(a, c):
    if not c:
        return {}
    if c == 1:
        return dict(a)
    return {e: v * c for e, v in a.items()}


def _mul_naive(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _int_content(d):
    """Return (den, ints) with d == (1/den) * ints and ints integer-valued."""
    den = 1
    for c in d.values():
        cd = c.denominator
        if cd != 1:
            den = den * cd // _int_gcd(den, cd)
    if den == 1:
        return 1, {e: int(c) for e, c in d.items()}
    return den, {e: int(c * den) for e, c in d.items()}


def signed_width(bound):
    """Bytes per signed digit for digits of absolute value at most bound."""
    return (bound.bit_length() + 8) // 8


def pack_signed(terms, emin, width, step=1):
    """Pack {exponent: int} into one integer, width bytes per signed digit.

    Exponent e fills digit (e - emin) // step: the polynomial evaluated at
    2^(8 width), for |coefficients| below 2^(8 width - 1).  Positive and
    negative coefficients go into separate carry-free buffers, subtracted
    once at the end, so packing is linear in the number of digits.
    """
    span = (max(terms) - emin) // step + 1
    pos = bytearray(span * width)
    neg = bytearray(span * width)
    for e, c in terms.items():
        k = (e - emin) // step * width
        buf = pos if c > 0 else neg
        c = abs(c)
        n = c.bit_length() // 8 + 1
        buf[k:k + n] = c.to_bytes(n, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack_signed(value, width):
    """Inverse of pack_signed: {digit index: nonzero digit} of value.

    The digits are read back one byte slice at a time, carrying a borrow.
    """
    half = 1 << (8 * width - 1)
    full = half << 1
    slots = abs(value).bit_length() // (8 * width) + 1
    buf = value.to_bytes(slots * width, "little", signed=True)
    out = {}
    carry = 0
    for k in range(slots):
        d = int.from_bytes(buf[k * width:(k + 1) * width], "little") + carry
        carry = d >= half
        if carry:
            d -= full
        if d:
            out[k] = d
    return out


def _mul_kronecker(a, b):
    """Multiply two term dicts by packing into big integers.

    Coefficients are packed into fixed-width signed digits of one huge
    integer per operand; a single big-int multiplication then performs the
    whole convolution exactly.  Digit width is chosen from an a-priori bound
    on the result's coefficients, so unpacking is unambiguous.
    """
    dena, ia = _int_content(a)
    denb, ib = _int_content(b)
    amin, bmin = min(ia), min(ib)
    suma = sum(abs(c) for c in ia.values())
    maxb = max(abs(c) for c in ib.values())
    width = signed_width(suma * maxb)
    prod = pack_signed(ia, amin, width) * pack_signed(ib, bmin, width)
    base = amin + bmin
    digits = unpack_signed(prod, width)
    if dena * denb == 1:
        return {base + k: d for k, d in digits.items()}
    scale = Fraction(1, dena * denb)
    return {base + k: _coeff(d * scale) for k, d in digits.items()}


def _mul_dicts(a, b):
    if not a or not b:
        return {}
    if len(a) * len(b) <= _NAIVE_MUL_CUTOFF:
        return _mul_naive(a, b)
    # Kronecker packing needs a bounded span; fall back for pathological gaps.
    span = (max(a) - min(a)) + (max(b) - min(b))
    if span > 1 << 22:
        return _mul_naive(a, b)
    return _mul_kronecker(a, b)


# ---------------------------------------------------------------------------
# LaurentQ
# ---------------------------------------------------------------------------

class LaurentQ:
    """Laurent polynomial in q, exponents on the 1/6 lattice.

    The term map sends the integer numerator e (actual exponent e/6) to a
    nonzero rational coefficient.  Instances are immutable; all operators
    return fresh objects.
    """

    __slots__ = ("_t", "_h")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if c:
                    t[int(e)] = c
        self._t = t
        self._h = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentQ":
        return _LQ_ZERO

    @staticmethod
    def one() -> "LaurentQ":
        return _LQ_ONE

    @staticmethod
    def monomial(coeff=1, qexp=0) -> "LaurentQ":
        """coeff * q^qexp, with qexp an int or Fraction on the lattice."""
        c = _coeff(coeff)
        if not c:
            return _LQ_ZERO
        return _mk({_lattice6(qexp): c})

    @staticmethod
    def const(c) -> "LaurentQ":
        return LaurentQ.monomial(c, 0)

    @classmethod
    def parse(cls, s: str) -> "LaurentQ":
        qa = LaurentQA.parse(s)
        if any(a for (a, _) in qa._t):
            raise PolyParseError("unexpected variable A in a q-only polynomial")
        return _mk({e: c for (_, e), c in qa._t.items()})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        """Term map {exponent numerator over 6: coefficient} (a copy)."""
        return dict(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._t) == 1

    def min6(self) -> int:
        return min(self._t)

    # -- ring operations ----------------------------------------------------

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, LaurentQ):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self._t == ({0: c} if c else {})
        return NotImplemented

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset(self._t.items()))
        return self._h

    def __neg__(self):
        return _mk({e: -c for e, c in self._t.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.const(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return _mk(_add_dicts(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.const(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return _mk(_add_dicts(self._t, {e: -c for e, c in other._t.items()}))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _mk(_scale_dict(self._t, _coeff(other)))
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return _mk(_mul_dicts(self._t, other._t))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse_monomial() ** (-n)
        if len(self._t) == 1:
            ((e, c),) = self._t.items()
            return _mk({e * n: _coeff(c ** n)})
        result = _LQ_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse_monomial(self) -> "LaurentQ":
        """Inverse, defined only for monomials (the units of the ring)."""
        if len(self._t) != 1:
            raise InexactDivision("only monomials are invertible in the Laurent ring")
        ((e, c),) = self._t.items()
        return _mk({-e: _coeff(Fraction(1, 1) / c)})

    def shift6(self, d: int) -> "LaurentQ":
        """Multiply by q^(d/6)."""
        if not d:
            return self
        return _mk({e + d: c for e, c in self._t.items()})

    # -- substitutions ------------------------------------------------------

    def subs_q_neg_inv(self) -> "LaurentQ":
        """q -> -q^(-1); requires all exponents integral."""
        out = {}
        for e, c in self._t.items():
            if e % EXP_DEN:
                raise ValueError(
                    "fractional q-exponent %s/6 under a parity-sensitive substitution" % e)
            out[-e] = c if (e // EXP_DEN) % 2 == 0 else -c
        return _mk(out)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        return _render_terms([(0, e, c) for e, c in self._t.items()])

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "LaurentQ(%s)" % self.render()


def _mk(d) -> LaurentQ:
    p = LaurentQ.__new__(LaurentQ)
    p._t = d
    p._h = None
    return p


_LQ_ZERO = _mk({})
_LQ_ONE = _mk({0: 1})


def quantum_int(n: int) -> LaurentQ:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1) as a Laurent polynomial.

    >>> str(quantum_int(2))
    'q + q^-1'
    >>> str(quantum_int(3))
    'q^2 + 1 + q^-2'
    """
    if n == 0:
        return _LQ_ZERO
    s = 1 if n > 0 else -1
    m = abs(n)
    return _mk({EXP_DEN * k: s for k in range(m - 1, -m, -2)})


def curly_q(k: int) -> LaurentQ:
    """{q^k} = q^k - q^-k."""
    if k == 0:
        return _LQ_ZERO
    return _mk({EXP_DEN * k: 1, -EXP_DEN * k: -1})


# ---------------------------------------------------------------------------
# dense helpers (ordinary polynomials over Q, index = degree)
# ---------------------------------------------------------------------------

def _support_step(*dicts) -> int:
    """gcd of all exponent offsets from each dict's minimum (0 if all trivial)."""
    g = 0
    for d in dicts:
        lo = min(d)
        for e in d:
            g = _int_gcd(g, e - lo)
    return g


def _to_dense(t, step):
    lo = min(t)
    arr = [0] * ((max(t) - lo) // step + 1)
    for e, c in t.items():
        arr[(e - lo) // step] = c
    return lo, arr


def _strip_high(u):
    while u and not u[-1]:
        u.pop()
    return u


def _div_coeff(x, y):
    """x / y, kept an int when both are ints and y divides x."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
    return Fraction(x) / y


def _dense_divmod(u, v):
    """Quotient and remainder of ordinary polynomials (coefficient lists).

    Integer operands over a divisor with lead +-1 never leave Z.
    """
    u = list(u)
    vlead = v[-1]
    n = len(v)
    quot = [0] * max(len(u) - n + 1, 0)
    while len(u) >= n:
        c = _div_coeff(u[-1], vlead)
        off = len(u) - n
        quot[off] = c
        if c:
            for i in range(n - 1):
                u[off + i] -= c * v[i]
        u.pop()
    return quot, _strip_high(u)


def _dense_gcd(u, v):
    """Monic gcd of ordinary polynomials over Q (Euclid)."""
    u = _strip_high([Fraction(c) for c in u])
    v = _strip_high([Fraction(c) for c in v])
    while v:
        _, r = _dense_divmod(u, v)
        u, v = v, r
    if not u:
        return u
    lead = u[-1]
    return [c / lead for c in u]


def laurent_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """gcd in the Laurent ring, canonical representative.

    Computed by clearing the minimal exponent (a unit shift into the
    ordinary polynomial ring), running polynomial gcd there, and shifting
    back.  The result is normalized so its minimal exponent is zero and the
    lowest-exponent coefficient is +1.
    """
    if a.is_zero():
        return _canon_unit(b)
    if b.is_zero():
        return _canon_unit(a)
    step = _support_step(a._t, b._t)
    if step == 0:  # both monomials
        return _LQ_ONE
    _, ua = _to_dense(a._t, step)
    _, ub = _to_dense(b._t, step)
    g = _dense_gcd(ua, ub)
    out = {}
    for i, c in enumerate(g):
        if c:
            out[i * step] = _coeff(c)
    return _canon_unit(_mk(out))


def _canon_unit(p: LaurentQ) -> LaurentQ:
    """Normalize by a unit: minimal exponent 0, lowest coefficient +1."""
    if p.is_zero():
        return p
    lo = p.min6()
    c = p._t[lo]
    if lo == 0 and c == 1:
        return p
    inv = Fraction(1, 1) / c
    return _mk({e - lo: _coeff(v * inv) for e, v in p._t.items()})


def laurent_divexact(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """a / b when the division is exact; raises InexactDivision otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return _LQ_ZERO
    if len(b._t) == 1:
        ((e, c),) = b._t.items()
        return _mk({ea - e: _coeff(_div_coeff(ca, c)) for ea, ca in a._t.items()})
    step = _support_step(a._t, b._t)
    amin, ua = _to_dense(a._t, step)
    bmin, ub = _to_dense(b._t, step)
    quot, rem = _dense_divmod(ua, ub)
    if rem:
        raise InexactDivision("polynomial division left a remainder")
    out = {}
    base = amin - bmin
    for i, c in enumerate(quot):
        if c:
            out[base + i * step] = _coeff(c)
    return _mk(out)


def _dense_mul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[i + j] += a * b
    return _strip_high(out)


def _dense_deriv(u):
    return _strip_high([i * u[i] for i in range(1, len(u))])


def _dense_sub(u, v):
    n = max(len(u), len(v))
    return _strip_high([(u[k] if k < len(u) else Fraction(0)) -
                        (v[k] if k < len(v) else Fraction(0)) for k in range(n)])


def _yun_factors(f):
    """Yun's squarefree factorization: f = lead * prod a_i^i.

    Returns the list [(a_i, i)] with each a_i monic squarefree and the a_i
    pairwise coprime (factors with a_i = 1 omitted).  Characteristic zero.
    """
    f = _strip_high([Fraction(c) for c in f])
    df = _dense_deriv(f)
    a0 = _dense_gcd(f, df)
    if len(a0) <= 1:
        return [(f, 1)]
    b, r = _dense_divmod(f, a0)
    assert not r
    c, r = _dense_divmod(df, a0)
    assert not r
    d = _dense_sub(c, _dense_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        ai = _dense_gcd(b, d)
        if len(ai) > 1:
            out.append((ai, i))
        b, r = _dense_divmod(b, ai)
        assert not r
        cnext, r = _dense_divmod(d, ai)
        assert not r
        d = _dense_sub(cnext, _dense_deriv(b))
        i += 1
    return out


def _sqfree_dense(u):
    """Split u = lead * c^2 * d (dense lists), d monic squarefree."""
    c = [Fraction(1)]
    d = [Fraction(1)]
    for ai, i in _yun_factors(u):
        for _ in range(i // 2):
            c = _dense_mul(c, ai)
        if i % 2:
            d = _dense_mul(d, ai)
    return c, d


def squarefree_decompose(p: LaurentQ):
    """Split p = unit * c^2 * d with d squarefree, canonically.

    Returns (unit, c, d): ``unit`` is a monomial carrying the residual sign,
    scalar and q-power; c is a Laurent polynomial; d is the canonical
    squarefree part (minimal exponent 0, lowest coefficient +1, gcd(d, d')
    a unit).  Squarefreeness is taken in the variable x = q^(1/6) after the
    support is compressed to its exponent lattice; extracting perfect
    squares commutes with that compression, so the split is well defined.
    """
    if p.is_zero():
        raise ValueError("zero has no squarefree decomposition")
    if len(p._t) == 1:
        ((e, c),) = p._t.items()
        return _mk({e: c}), _LQ_ONE, _LQ_ONE
    step = _support_step(p._t)
    _, u = _to_dense(p._t, step)
    c_dense, d_dense = _sqfree_dense(u)
    cpoly = _mk({i * step: _coeff(v) for i, v in enumerate(c_dense) if v})
    dpoly = _mk({i * step: _coeff(v) for i, v in enumerate(d_dense) if v})
    dcan = _canon_unit(dpoly)
    recon = cpoly * cpoly * dcan
    unit = laurent_divexact(p, recon)
    if not unit.is_monomial():
        raise AssertionError("squarefree decomposition lost a unit factor")
    return unit, cpoly, dcan


# ---------------------------------------------------------------------------
# LaurentQA: Laurent polynomials in A and q
# ---------------------------------------------------------------------------

class LaurentQA:
    """Laurent polynomial in A and q; q-exponents on the 1/6 lattice.

    Term map: (A-exponent, q-exponent numerator over 6) -> coefficient.
    """

    __slots__ = ("_t", "_h")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (a, e), c in terms.items():
                c = _coeff(c)
                if c:
                    t[(int(a), int(e))] = c
        self._t = t
        self._h = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentQA":
        return _QA_ZERO

    @staticmethod
    def one() -> "LaurentQA":
        return _QA_ONE

    @staticmethod
    def monomial(coeff=1, a: int = 0, qexp=0) -> "LaurentQA":
        c = _coeff(coeff)
        if not c:
            return _QA_ZERO
        return _mkqa({(a, _lattice6(qexp)): c})

    @staticmethod
    def from_q(p: LaurentQ) -> "LaurentQA":
        return _mkqa({(0, e): c for e, c in p._t.items()})

    @staticmethod
    def from_slices(slices) -> "LaurentQA":
        """Build from {A-exponent: LaurentQ}."""
        out = {}
        for a, p in slices.items():
            for e, c in p._t.items():
                out[(a, e)] = c
        return _mkqa(out)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self):
        return dict(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def a_slices(self):
        """Decompose as {A-exponent: LaurentQ coefficient}."""
        out = {}
        for (a, e), c in self._t.items():
            out.setdefault(a, {})[e] = c
        return {a: _mk(d) for a, d in sorted(out.items())}

    def pure_q(self) -> LaurentQ:
        """Forget A, requiring that no term actually involves A."""
        if any(a for (a, _) in self._t):
            raise ValueError("polynomial still involves A")
        return _mk({e: c for (_, e), c in self._t.items()})

    # -- ring operations -----------------------------------------------------

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, LaurentQA):
            return self._t == other._t
        if isinstance(other, LaurentQ):
            return self._t == {(0, e): c for e, c in other._t.items()}
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self._t == ({(0, 0): c} if c else {})
        return NotImplemented

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset(self._t.items()))
        return self._h

    def __neg__(self):
        return _mkqa({k: -c for k, c in self._t.items()})

    def _coerce(self, other):
        if isinstance(other, LaurentQA):
            return other
        if isinstance(other, LaurentQ):
            return LaurentQA.from_q(other)
        if isinstance(other, (int, Fraction)):
            return LaurentQA.monomial(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mkqa(_add_dicts(self._t, o._t))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mkqa(_add_dicts(self._t, {k: -c for k, c in o._t.items()}))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _mkqa(_scale_dict(self._t, _coeff(other)))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._t or not o._t:
            return _QA_ZERO
        # multiply A-slice-wise so the q-direction can use the fast path
        sa = self.a_slices()
        sb = o.a_slices()
        acc = {}
        for a1, p1 in sa.items():
            for a2, p2 in sb.items():
                k = a1 + a2
                prod = p1 * p2
                acc[k] = acc[k] + prod if k in acc else prod
        out = {}
        for a, p in acc.items():
            for e, c in p._t.items():
                out[(a, e)] = c
        return _mkqa(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._t) != 1:
                raise InexactDivision("only monomials are invertible")
            ((key, c),) = self._t.items()
            a, e = key
            inv = _mkqa({(-a, -e): _coeff(Fraction(1, 1) / c)})
            return inv ** (-n)
        result = _QA_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitutions -------------------------------------------------------

    def subs_A_to_q2(self) -> "LaurentQA":
        """A -> q^2."""
        out = {}
        for (a, e), c in self._t.items():
            k = (0, e + 12 * a)
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return _mkqa(out)

    def subs_q_neg_inv(self) -> "LaurentQA":
        """q -> -q^(-1) (A untouched); all q-exponents must be integral."""
        out = {}
        for (a, e), c in self._t.items():
            if e % EXP_DEN:
                raise ValueError(
                    "fractional q-exponent %s/6 under a parity-sensitive substitution" % e)
            out[(a, -e)] = c if (e // EXP_DEN) % 2 == 0 else -c
        return _mkqa(out)

    def subs_q_one(self) -> "LaurentQA":
        """q -> 1, leaving a Laurent polynomial in A."""
        out = {}
        for (a, e), c in self._t.items():
            k = (a, 0)
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return _mkqa(out)

    def subs_invert(self) -> "LaurentQA":
        """A -> A^(-1) together with q -> q^(-1) (the mirror map)."""
        return _mkqa({(-a, -e): c for (a, e), c in self._t.items()})

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        return _render_terms([(a, e, c) for (a, e), c in self._t.items()])

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "LaurentQA(%s)" % self.render()

    @classmethod
    def parse(cls, s: str) -> "LaurentQA":
        return _parse_terms(s)


def _mkqa(d) -> LaurentQA:
    p = LaurentQA.__new__(LaurentQA)
    p._t = d
    p._h = None
    return p


_QA_ZERO = _mkqa({})
_QA_ONE = _mkqa({(0, 0): 1})


def curly_bracket(x: LaurentQA) -> LaurentQA:
    """{x} = x - x^(-1) for a monomial x.

    >>> str(curly_bracket(LaurentQA.monomial(1, 1, 2)))
    'A*q^2 - A^-1*q^-2'
    """
    if isinstance(x, LaurentQ):
        x = LaurentQA.from_q(x)
    if len(x._t) != 1:
        raise ValueError("curly bracket is defined for monomials only")
    ((key, c),) = x._t.items()
    a, e = key
    inv = _coeff(Fraction(1, 1) / c)
    return _mkqa(_add_dicts({(a, e): c}, {(-a, -e): -inv}))


def curly_Aq(cont: int) -> LaurentQA:
    """{A q^cont} = A q^cont - A^-1 q^-cont."""
    return _mkqa({(1, EXP_DEN * cont): 1, (-1, -EXP_DEN * cont): -1})


SUBSTITUTION_RULES = ("A->q^2", "q->-1/q", "q->1", "invert")


def substitute(poly: LaurentQA, rule: str) -> LaurentQA:
    """Apply one of the supported ring endomorphisms.

    Rules: "A->q^2" (Jones-direction specialization), "q->-1/q" (transposed
    representation), "q->1" (topological locus section), "invert"
    (A -> A^-1 and q -> q^-1 simultaneously, the mirror map).
    """
    if rule == "A->q^2":
        return poly.subs_A_to_q2()
    if rule == "q->-1/q":
        return poly.subs_q_neg_inv()
    if rule == "q->1":
        return poly.subs_q_one()
    if rule == "invert":
        return poly.subs_invert()
    raise ValueError("unknown substitution rule %r (expected one of %s)"
                     % (rule, ", ".join(SUBSTITUTION_RULES)))


# ---------------------------------------------------------------------------
# RationalQ
# ---------------------------------------------------------------------------

class RationalQ:
    """Ratio of two LaurentQ, kept in canonical reduced form.

    After normalization gcd(num, den) is a unit, the denominator's minimal
    exponent is zero and its lowest-exponent coefficient is +1.  Equality is
    then a structural comparison.  A value is a Laurent polynomial exactly
    when den == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = _LQ_ONE if den is None else _as_laurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self_num, self_den = _LQ_ZERO, _LQ_ONE
        else:
            g = laurent_gcd(num, den)
            if not g.is_one():
                num = laurent_divexact(num, g)
                den = laurent_divexact(den, g)
            lo = den.min6()
            c = den._t[lo]
            if lo or c != 1:
                inv = Fraction(1, 1) / c
                den = _mk({e - lo: _coeff(v * inv) for e, v in den._t.items()})
                num = _mk({e - lo: _coeff(v * inv) for e, v in num._t.items()})
            self_num, self_den = num, den
        self.num = self_num
        self.den = self_den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RationalQ":
        return RationalQ(_LQ_ZERO)

    @staticmethod
    def one() -> "RationalQ":
        return RationalQ(_LQ_ONE)

    @staticmethod
    def of(x) -> "RationalQ":
        return x if isinstance(x, RationalQ) else RationalQ(x)

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentQ:
        """The value as a Laurent polynomial; raises if the denominator survives."""
        if not self.den.is_one():
            raise InexactDivision("value is not a Laurent polynomial: den = %s" % self.den)
        return self.num

    # -- arithmetic ------------------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentQ)):
            other = RationalQ(_as_laurent(other))
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        r = RationalQ.__new__(RationalQ)
        r.num = -self.num
        r.den = self.den
        return r

    def __add__(self, other):
        o = RationalQ.of(_as_ratq_operand(other))
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalQ(self.num + o.num, self.den)
        return RationalQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-RationalQ.of(_as_ratq_operand(other)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _as_ratq_operand(other)
        if o is None:
            return NotImplemented
        o = RationalQ.of(o)
        return RationalQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RationalQ.of(_as_ratq_operand(other))
        if o.is_zero():
            raise ZeroDivisionError("division by zero RationalQ")
        return RationalQ(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RationalQ.of(_as_ratq_operand(other)).__truediv__(self)

    def __pow__(self, n: int):
        if n < 0:
            return (RationalQ.one() / self) ** (-n)
        out = RationalQ.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "RationalQ(%s)" % self.render()


def _as_laurent(x) -> LaurentQ:
    if isinstance(x, LaurentQ):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentQ.const(x)
    raise TypeError("cannot interpret %s as LaurentQ" % type(x).__name__)


def _as_ratq_operand(x):
    if isinstance(x, RationalQ):
        return x
    if isinstance(x, (int, Fraction, LaurentQ)):
        return RationalQ(_as_laurent(x))
    return None


# ---------------------------------------------------------------------------
# canonical rendering / parsing
# ---------------------------------------------------------------------------

def _render_exp(e6: int) -> str:
    if e6 % EXP_DEN == 0:
        return str(e6 // EXP_DEN)
    f = Fraction(e6, EXP_DEN)
    return "(%d/%d)" % (f.numerator, f.denominator)


def _render_terms(triples) -> str:
    """Render [(A-exp, q-exp6, coeff)] canonically.

    Terms are sorted by A-exponent descending, then q-exponent descending;
    integer exponents print bare (A^4*q^-2), off-integer q-exponents print
    as parenthesized fractions (q^(2/3)).
    """
    if not triples:
        return "0"
    triples = sorted(triples, key=lambda t: (-t[0], -t[1]))
    chunks = []
    for a, e6, c in triples:
        neg = c < 0
        mag = -c if neg else c
        parts = []
        if a:
            parts.append("A" if a == 1 else "A^%d" % a)
        if e6:
            parts.append("q" if e6 == EXP_DEN else "q^%s" % _render_exp(e6))
        if mag != 1 or not parts:
            num = mag.numerator
            den = mag.denominator
            parts.insert(0, str(num) if den == 1 else "%d/%d" % (num, den))
        body = "*".join(parts)
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


_TERM_RE = re.compile(
    r"""^
    (?:(?P<coeff>\d+(?:/\d+)?)\*?)?
    (?:(?P<A>A)(?:\^(?P<aexp>-?\d+))?\*?)?
    (?:(?P<q>q)(?:\^(?:(?P<qi>-?\d+)|\((?P<qf>-?\d+(?:/\d+)?)\)))?)?
    $""",
    re.X,
)


def _split_signed_chunks(s: str):
    """Split a polynomial string into (sign, term-body) pairs."""
    chunks = []
    depth = 0
    start = 0
    prev_sig = ""  # previous non-space character
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses in %r" % s)
        elif ch in "+-" and depth == 0 and i > start:
            if prev_sig and prev_sig not in "^(*+-/":
                chunks.append(s[start:i])
                start = i
        if not ch.isspace():
            prev_sig = ch
    if depth:
        raise PolyParseError("unbalanced parentheses in %r" % s)
    chunks.append(s[start:])
    return chunks


def _parse_terms(s: str) -> LaurentQA:
    text = s.strip()
    if not text:
        raise PolyParseError("empty polynomial string")
    if text == "0":
        return _QA_ZERO
    acc = {}
    for chunk in _split_signed_chunks(text):
        body = chunk.strip()
        sign = 1
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        body = body.replace(" ", "")
        if not body:
            raise PolyParseError("dangling sign in %r" % s)
        m = _TERM_RE.match(body)
        if not m or not (m.group("coeff") or m.group("A") or m.group("q")):
            raise PolyParseError("cannot parse term %r" % chunk.strip())
        cs = m.group("coeff")
        coeff = Fraction(cs) if cs else Fraction(1)
        if m.group("A"):
            a = int(m.group("aexp")) if m.group("aexp") is not None else 1
        else:
            a = 0
        if m.group("q"):
            if m.group("qi") is not None:
                e6 = EXP_DEN * int(m.group("qi"))
            elif m.group("qf") is not None:
                e6 = _lattice6(Fraction(m.group("qf")))
            else:
                e6 = EXP_DEN
        else:
            e6 = 0
        key = (a, e6)
        v = acc.get(key, 0) + sign * coeff
        if v:
            acc[key] = _coeff(v)
        elif key in acc:
            del acc[key]
    return _mkqa(acc)
