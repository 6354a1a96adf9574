"""Square-root extension scalars over the rational-function field in q.

Scalars are sums  c0 + c1*sqrt(P1) + c2*sqrt(P2) + ...  where the ci
are rational functions of q and the Pi are canonical radicands.  They are
the entries of the mixing matrices as :func:`homfly3.racah.racah_su2` and
the eigenvalue reconstruction hand them out; the trace engine works on
the integer form of :func:`homfly3.racah.twisted_basis` instead.

A radicand is kept in the factored shape

    sign_unit * content * body

with sign_unit in {+1, -1}, content a positive squarefree integer and
body a squarefree Laurent polynomial normalized to minimal exponent
zero and lowest coefficient +1.  Keying radicands by this canonical
form guarantees that sqrt(P)*sqrt(P) always collapses into the rational
part and that distinct radicands never alias.

The unit -1 inside a root is kept as a formal factor (never expanded
into a complex unit); for the sign conventions used by the mixing
matrices every entry is real and any -1 radicand surviving a
computation that must be rational is reported as an error.

``assert_rational`` is a radical-freeness certificate: it returns the
rational part when every radical part has cancelled, and raises
``NonVanishingRadical`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .qpoly import (
    LaurentQ,
    RationalQ,
    laurent_divexact,
    laurent_gcd,
    squarefree_decompose,
)


class NonVanishingRadical(ArithmeticError):
    """A value that had to be rational still carries square roots."""


def _sq_split_int(n: int):
    """n = s^2 * m with m squarefree; returns (s, m) for n > 0."""
    s, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    return s, m * n


class Radicand:
    """Canonical key for a square root: sign_unit * content * body."""

    __slots__ = ("body", "sign_unit", "content", "_h")

    def __init__(self, body: LaurentQ, sign_unit: int = 1, content: int = 1):
        if sign_unit not in (1, -1):
            raise ValueError("sign_unit must be +1 or -1")
        if content < 1:
            raise ValueError("content must be a positive integer")
        if body.is_one() and content == 1 and sign_unit == 1:
            raise ValueError("trivial radicand: that is the rational part")
        self.body = body
        self.sign_unit = sign_unit
        self.content = content
        self._h = None

    def value(self) -> LaurentQ:
        """The polynomial under the root, sign and content included."""
        return self.body * (self.sign_unit * self.content)

    def __eq__(self, other):
        return (isinstance(other, Radicand)
                and self.sign_unit == other.sign_unit
                and self.content == other.content
                and self.body == other.body)

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.sign_unit, self.content, self.body))
        return self._h

    def render(self) -> str:
        return self.value().render()

    def __repr__(self):
        return "Radicand(%s)" % self.render()


def _mul_radicands(r1: Radicand, r2: Radicand):
    """sqrt(r1)*sqrt(r2) = factor * sqrt(key); key None when fully rational.

    Uses gcd extraction: identical factors of the two radicands leave the
    root pairwise, so the result's radicand is again squarefree canonical.
    """
    if r1 is r2 or r1 == r2:
        return None, RationalQ(r1.value())
    sign = r1.sign_unit * r2.sign_unit
    g = _int_gcd(r1.content, r2.content)
    content = (r1.content // g) * (r2.content // g)
    e = laurent_gcd(r1.body, r2.body)
    if e.is_one():
        body = r1.body * r2.body
        factor = RationalQ(LaurentQ.const(g))
    else:
        body = laurent_divexact(r1.body, e) * laurent_divexact(r2.body, e)
        factor = RationalQ(e * g)
    if body.is_one() and content == 1 and sign == 1:
        return None, factor
    return Radicand(body, sign, content), factor


class RadicalScalar:
    """Finite sum of rational multiples of canonical square roots."""

    __slots__ = ("_parts", "_h")

    def __init__(self, parts=None):
        p = {}
        if parts:
            for key, c in parts.items():
                c = RationalQ.of(c)
                if not c.is_zero():
                    p[key] = c
        self._parts = p
        self._h = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RadicalScalar":
        return _RS_ZERO

    @staticmethod
    def one() -> "RadicalScalar":
        return _RS_ONE

    @staticmethod
    def rational(x) -> "RadicalScalar":
        c = RationalQ.of(_to_rational(x))
        return _mkrs({None: c}) if not c.is_zero() else _RS_ZERO

    # -- inspection -----------------------------------------------------------

    @property
    def parts(self):
        """{Radicand or None: RationalQ} (a copy; None keys the rational part)."""
        return dict(self._parts)

    def is_zero(self) -> bool:
        return not self._parts

    def is_rational(self) -> bool:
        return all(k is None for k in self._parts)

    def radicands(self):
        return [k for k in self._parts if k is not None]

    # -- certificate -----------------------------------------------------------

    def assert_rational(self) -> RationalQ:
        """Return the value as a RationalQ, certifying no root survived."""
        bad = [k for k in self._parts if k is not None]
        if bad:
            raise NonVanishingRadical(
                "radical parts survive: %s" % ", ".join(
                    "sqrt(%s)" % k.render() for k in bad))
        return self._parts.get(None, RationalQ.zero())

    # -- ring operations ---------------------------------------------------------

    def __bool__(self):
        return bool(self._parts)

    def __eq__(self, other):
        o = _coerce_rs(other)
        if o is None:
            return NotImplemented
        return self._parts == o._parts

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset(self._parts.items()))
        return self._h

    def __neg__(self):
        return _mkrs({k: -c for k, c in self._parts.items()})

    def __add__(self, other):
        o = _coerce_rs(other)
        if o is None:
            return NotImplemented
        out = dict(self._parts)
        for k, c in o._parts.items():
            v = out.get(k)
            v = c if v is None else v + c
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v
        return _mkrs(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_rs(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _coerce_rs(other)
        if o is None:
            return NotImplemented
        out = {}
        for k1, c1 in self._parts.items():
            for k2, c2 in o._parts.items():
                c = c1 * c2
                if k1 is None:
                    key, extra = k2, None
                elif k2 is None:
                    key, extra = k1, None
                else:
                    key, extra = _mul_radicands(k1, k2)
                if extra is not None:
                    c = c * extra
                v = out.get(key)
                v = c if v is None else v + c
                if v.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = v
        return _mkrs(out)

    __rmul__ = __mul__

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self._parts:
            return "0"
        chunks = []
        if None in self._parts:
            chunks.append(self._parts[None].render())
        for k in sorted((k for k in self._parts if k is not None),
                        key=lambda r: r.render()):
            c = self._parts[k]
            cs = c.render()
            if cs == "1":
                chunks.append("sqrt(%s)" % k.render())
            else:
                chunks.append("(%s)*sqrt(%s)" % (cs, k.render()))
        return " + ".join(chunks)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "RadicalScalar(%s)" % self.render()


def _mkrs(parts) -> RadicalScalar:
    s = RadicalScalar.__new__(RadicalScalar)
    s._parts = parts
    s._h = None
    return s


_RS_ZERO = _mkrs({})
_RS_ONE = _mkrs({None: RationalQ.one()})


def _to_rational(x) -> RationalQ:
    if isinstance(x, RationalQ):
        return x
    if isinstance(x, (int, Fraction, LaurentQ)):
        return RationalQ.of(x)
    raise TypeError("cannot interpret %s as RationalQ" % type(x).__name__)


def _coerce_rs(x):
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, (int, Fraction, LaurentQ, RationalQ)):
        return RadicalScalar.rational(x)
    return None


def sqrt_of(r) -> RadicalScalar:
    """Square root of a rational function, squares fully extracted.

    Returns c*sqrt(d) with r = c^2*d and d squarefree canonical; in
    particular sqrt_of(x*x) has only a rational part.  The zero input
    yields zero.

    >>> from homfly3.qpoly import quantum_int
    >>> str(sqrt_of(RationalQ(quantum_int(3) * quantum_int(3))))
    'q^2 + 1 + q^-2'
    """
    r = _to_rational(r)
    if r.is_zero():
        return _RS_ZERO
    # sqrt(num/den) = sqrt(num*den)/den
    p = r.num * r.den
    unit, c, body = squarefree_decompose(p)
    ((e6, u),) = unit.terms.items()
    if e6 % 2:
        raise ValueError(
            "radicand needs q^(1/12), which is off the exponent lattice")
    sign = 1 if u > 0 else -1
    mag = Fraction(abs(u))
    s_num, m_num = _sq_split_int(mag.numerator)
    s_den, m_den = _sq_split_int(mag.denominator)
    # sqrt(a/b) = (sa*sb*g) * sqrt(m) / b  with m = (ma/g)*(mb/g)
    g = _int_gcd(m_num, m_den)
    m = (m_num // g) * (m_den // g)
    coeff = RationalQ(
        c * LaurentQ.monomial(Fraction(s_num * s_den * g, mag.denominator),
                              Fraction(e6, 12)),
        r.den)
    if m == 1 and sign == 1 and body.is_one():
        return _mkrs({None: coeff})
    return _mkrs({Radicand(body, sign, m): coeff})
