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

LaurentQ, LaurentQA and symfun.PowerSumPoly share one implementation of
their operators (_Sparse); a power is square and multiply through the
ring's own product.  An (A, q) product runs on the q-kernel under
A -> q^S, one packed integer product once the operands are large.  Each
substitution rule is one table entry: the image of a term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, repeat
from math import comb, gcd as _int_gcd, lcm
from operator import index, mul

EXP_DEN = 6  # fixed denominator of the q-exponent lattice

# Maximum len(a)*len(b) for which schoolbook dict multiplication is used;
# larger products go through Kronecker substitution into integer multiply.
_NAIVE_MUL_CUTOFF = 1024


class PolyParseError(ValueError):
    """A string is not one signed _TERM after another, or has a zero
    denominator or a number of more digits than int() reads."""


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
    """Convert an exponent (an integer or a Fraction) to sixths, checking the lattice."""
    if not isinstance(e, Fraction):
        return EXP_DEN * index(e)
    e6 = e * EXP_DEN
    if e6.denominator != 1:
        raise ValueError("q-exponent %s is off the 1/%d lattice" % (e, EXP_DEN))
    return e6.numerator


# ---------------------------------------------------------------------------
# raw term-dict arithmetic ({exponent: coefficient}, exponents in sixths)
# ---------------------------------------------------------------------------

# a missing key is tested by `is None`: with LaurentQ coefficients,
# get(k, 0) + c would build a LaurentQ for every new key

def _add_dicts(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        v = out.get(e)
        if v is not None:
            c = v + c
            if not c:
                del out[e]
                continue
        out[e] = c
    return out


def _accumulate(pairs):
    """The term dict of (key, coefficient) pairs: equal keys merge, zeros drop."""
    out = {}
    for k, c in pairs:
        v = out.get(k)
        if v is not None:
            c = v + c
        if c:
            out[k] = c
        elif v is not None:
            del out[k]
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
    if any(isinstance(c, Fraction) for c in chain(a.values(), b.values())):
        # an integral Fraction becomes an int, as in the packed product
        return {e: _coeff(c) for e, c in out.items() if c}
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
    once at the end, so packing is linear in the number of digits.  A
    coefficient too wide for its digit raises ValueError.
    """
    span = (max(terms) - emin) // step + 1
    pos = bytearray(span * width)
    neg = bytearray(span * width)
    limit = 1 << (8 * width - 1)
    for e, c in terms.items():
        k = (e - emin) // step * width
        buf = pos if c > 0 else neg
        c = abs(c)
        if c >= limit:
            raise ValueError("a coefficient of %d bits does not fit a signed digit of %d bytes"
                             % (c.bit_length(), width))
        n = c.bit_length() // 8 + 1
        buf[k:k + n] = c.to_bytes(n, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack_digits(value, width):
    """Inverse of pack_signed: the list of value's signed digits, lowest
    first.

    Half a digit's range is added to every slot first, so each slot of the
    biased integer holds its digit plus that half with no borrow between
    slots, and every slot is read on its own.
    """
    half = 1 << (8 * width - 1)
    slots = abs(value).bit_length() // (8 * width) + 1
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    buf = (value + bias).to_bytes(slots * width, "little")
    biased = map(int.from_bytes, [buf[i:i + width] for i in range(0, len(buf), width)],
                 repeat("little"))
    return [d - half for d in biased]


def unpack_signed(value, width):
    """{digit index: nonzero digit} of value: unpack_digits, sparse."""
    return {k: d for k, d in enumerate(unpack_digits(value, width)) if d}


def laurent_matrix(rows):
    """(lo, rows, norms) of a matrix of term dicts {exponent: int}: its
    lowest exponent, its rows and its rows of the entries' l1 norms, the
    form pack_matrix packs."""
    lo = min(min(t) for row in rows for t in row if t)
    return lo, rows, tuple(tuple(sum(map(abs, t.values())) for t in row) for row in rows)


def pack_matrix(m, width, step, memo=None):
    """pack_signed of every entry of the laurent_matrix m, lowest exponent
    lo shifted out (0 for a zero entry); memo keeps each (entry, lo) once."""
    lo, rows, _ = m
    memo = {} if memo is None else memo
    for t in chain.from_iterable(rows):
        if t and (id(t), lo) not in memo:
            memo[id(t), lo] = pack_signed(t, lo, width, step)
    return [[memo[id(t), lo] if t else 0 for t in row] for row in rows]


def int_matmul(x, y):
    """The product of two matrices (sequences of rows) of Python ints."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _support_step(*dicts) -> int:
    """gcd of all exponent offsets from each dict's minimum (0 if all trivial)."""
    g = 0
    for d in dicts:
        lo = min(d)
        for e in d:
            g = _int_gcd(g, e - lo)
    return g


def atom_list(atoms):
    """(atoms, alpha, lift, reach, bound) of atoms (alpha, beta), checked:
    their tuple, sum of alphas, EXP_DEN times the sums of beta and |beta|,
    and C(k, k // 2) for k atoms, all that curly_atom_quotient reads."""
    atoms = tuple(atoms)
    for alpha, beta in atoms:
        if alpha < 0 or (alpha == 0 and beta <= 0):
            raise ValueError("atom {A^%d q^%d} needs alpha > 0, or alpha = 0 "
                             "and beta > 0" % (alpha, beta))
    return (atoms, sum(alpha for alpha, _ in atoms), EXP_DEN * sum(beta for _, beta in atoms),
            EXP_DEN * sum(abs(beta) for _, beta in atoms), comb(len(atoms), len(atoms) // 2))


def curly_atom_sum(terms):
    """sum_i p_i * prod_{(alpha, beta) in atoms_i} {A^alpha q^beta}, in Z:
    curly_atom_quotient of the pairs (p, atom_list(atoms)), with no hooks."""
    return curly_atom_quotient([(p, atom_list(atoms)) for p, atoms in terms], ())


def curly_atom_quotient(terms, hooks):
    """sum_i p_i * prod_{(alpha, beta) in atoms_i} {A^alpha q^beta} over
    prod_{h in hooks} {q^h}, in Z.

    ``terms`` holds pairs (p, atoms): p a term dict {q-exponent in sixths:
    int or Fraction}, atoms an atom_list of pairs (alpha, beta), each
    standing for the atom {A^alpha q^beta} = A^alpha q^beta - A^-alpha
    q^-beta; ``hooks`` holds positive integers.  Returns the quotient as a
    term dict {(A-exponent, q-exponent in sixths): coefficient}; an inexact
    division raises InexactDivision naming the A-slice.

    Every coefficient is scaled by L, the lcm of all denominators, and each
    L*p_i is packed once (pack_signed) in the bivariate Kronecker layout

        digit index = (a + n) / astep * qspan + (e - qlo) / step,

    for the term A^a q^(e/6), where n is the largest sum of alphas, qlo
    (qhi) the lowest (highest) q-exponent any term can reach, step the gcd
    of all q-exponent offsets, atom shifts and 12 h, astep that of the
    A-offsets and atom shifts, and qspan = (qhi - qlo) / step + 1.  With X =
    2^(8 width) per digit, an atom is the monomial A^-alpha q^-beta times
    X^s - 1 with s = 2 alpha / astep * qspan + 12 beta / step > 0, so
    multiplying by it is one shift and one subtraction.  A coefficient of a
    product of k such binomials counts, with signs, the subsets of shifts
    with one sum, at most C(k, k // 2) of them (Erdos's Littlewood-Offord
    bound, all s >= 1), so no coefficient of the sum exceeds
    sum_i |L*p_i|_1 * C(k_i, k_i // 2), k_i = #atoms_i, and the width is
    taken from that bound.
    The shifted terms are summed into one integer and unpacked once
    (unpack_digits), qspan digits per A-slice.  A slice's zero digits at
    both ends are stripped (X^k - 1 is prime to X, so the low ones only
    shift the quotient), and on the rest each {q^h} is q^-h (X^k - 1) with
    k = 12 h / step: one synthetic pass, which must leave the k lowest
    digits zero.  The quotient is divided by L.
    """
    terms = [(p, atoms) for p, atoms in terms if p]
    if not terms:
        return {}
    dens = [c.denominator for p, _ in terms for c in p.values() if type(c) is not int]
    scale = lcm(*dens)
    polys = [{e: c.numerator * (scale // c.denominator) for e, c in p.items()} if dens else p
             for p, _ in terms]
    atoms, alphas, lifts, reach, bounds = zip(*(a for _, a in terms))
    n = max(alphas)
    qlo = min(min(p) - r for p, r in zip(polys, reach))
    qhi = max(max(p) + r for p, r in zip(polys, reach))
    step = _int_gcd(*(2 * EXP_DEN * abs(beta) for pairs in atoms for _, beta in pairs),
                    *(2 * EXP_DEN * h for h in hooks),
                    *(e - lift - qlo for p, lift in zip(polys, lifts) for e in p)) or 1
    astep = _int_gcd(*(2 * alpha for pairs in atoms for alpha, _ in pairs),
                     *(n - a for a in alphas)) or 1
    qspan = (qhi - qlo) // step + 1
    width = signed_width(sum(sum(map(abs, p.values())) * b for p, b in zip(polys, bounds)))
    bits = 8 * width
    total = 0
    for p, pairs, a, lift in zip(polys, atoms, alphas, lifts):
        x = pack_signed(p, qlo + lift, width, step)
        for alpha, beta in pairs:
            x = (x << ((2 * alpha // astep * qspan + 2 * EXP_DEN * beta // step) * bits)) - x
        total += x << ((n - a) // astep * qspan * bits)
    digits = unpack_digits(total, width)
    shifts = [2 * EXP_DEN * h // step for h in hooks]
    lo = qlo + EXP_DEN * sum(hooks)
    out = {}
    for i in range(0, len(digits), qspan):
        end = min(i + qspan, len(digits))
        while end > i and not digits[end - 1]:
            end -= 1
        if end == i:
            continue
        low = i
        while not digits[low]:
            low += 1
        dense = digits[low:end]
        a = i // qspan * astep - n
        for k in shifts:
            for j in range(len(dense) - 1, k - 1, -1):
                dense[j - k] += dense[j]
            if any(dense[:k]):
                raise InexactDivision("A-slice %d" % a)
            del dense[:k]
        base = lo + (low - i) * step
        out.update(((a, base + j * step), d // scale if d % scale == 0 else Fraction(d, scale))
                   for j, d in enumerate(dense) if d)
    return out


def curly_q_product(values):
    """prod_v {q^v} over a sequence of positive integers v (1 if empty)."""
    return _new(LaurentQ, {e: c for (_, e), c in
                           curly_atom_sum([({0: 1}, [(0, v) for v in values])]).items()})


def _mul_dicts(a, b):
    """Product of two term dicts {exponent: coefficient}.

    Small products are schoolbook.  A larger one packs each operand into
    fixed-width signed digits of one integer, exponent e at digit
    (e - min) / step with step the common exponent step of both operands,
    so that one big-int multiplication performs the whole convolution
    exactly; the width comes from an a-priori bound on the result's
    coefficients, so unpacking is unambiguous.
    """
    if not a or not b:
        return {}
    if len(a) * len(b) <= _NAIVE_MUL_CUTOFF:
        return _mul_naive(a, b)
    step = _support_step(a, b)
    # Kronecker packing needs a bounded number of digits; fall back for pathological gaps.
    if (max(a) - min(a) + max(b) - min(b)) // step > 1 << 22:
        return _mul_naive(a, b)
    dena, ia = _int_content(a)
    denb, ib = _int_content(b)
    amin, bmin = min(ia), min(ib)
    width = signed_width(sum(map(abs, ia.values())) * max(map(abs, ib.values())))
    digits = unpack_signed(
        pack_signed(ia, amin, width, step) * pack_signed(ib, bmin, width, step), width)
    den = dena * denb
    return {amin + bmin + step * k: d if den == 1 else _coeff(Fraction(d, den))
            for k, d in digits.items()}


def _on_q_kernel(*dicts):
    """The product of two nonempty (A, q) term dicts, run on the q-kernel
    under A -> q^S.

    Each key (a, e) becomes the q-exponent a*S + e, where S is the least
    multiple of the q-exponents' common step that exceeds the q-span of
    the result, so no two A-slices of the result meet and the packed
    kernel keeps that step.  A result exponent f decodes as
    a = (f - lo) // S, e = f - a*S, with lo the result's lowest q-exponent.
    """
    qs = [[e for _, e in d] for d in dicts]
    lo = sum(map(min, qs))
    span = sum(map(max, qs)) - lo
    step = _support_step(*qs) or 1
    S = (span // step + 1) * step
    out = {}
    for f, c in _mul_dicts(*({a * S + e: c for (a, e), c in d.items()} for d in dicts)).items():
        a = (f - lo) // S
        out[a, f - a * S] = c
    return out


# ---------------------------------------------------------------------------
# the shared operators, and LaurentQ
# ---------------------------------------------------------------------------

def _new(cls, d):
    """An element of ring cls around the term dict d (nonzero coefficients)."""
    p = object.__new__(cls)
    p._t = d
    p._h = None
    return p


class _Sparse:
    """Sparse polynomial over exact coefficients: the shared operators.

    The term map ``_t`` sends a key to a nonzero coefficient.  Each ring
    supplies its key type (``_key``, and ``_scale_key`` for the key of a
    monomial's n-th power), its coefficient check (``_check``), the
    operands it accepts (``_coerce``), its product (``__mul__``/``__rmul__``,
    written in its own body) and its rendering (``render``, or
    ``_triples``).  A power of a polynomial of two or more terms is square
    and multiply through that product; a monomial's is one term.
    Instances are immutable.
    """

    __slots__ = ("_t", "_h")

    _check = staticmethod(_coeff)

    def __init__(self, terms=None):
        t = {}
        if terms:
            key, check = self._key, self._check
            for k, c in terms.items():
                c = check(c)
                if c:
                    t[key(k)] = c
        self._t = t
        self._h = None

    @property
    def terms(self):
        """Term map {key: coefficient} (a copy)."""
        return dict(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        # equal values hash equally: a constant (zero too) as its
        # coefficient, so as the int or Fraction it equals; any other value
        # by its terms
        if self._h is None:
            t = self._t
            c = 0 if not t else t.get(self._unit_key) if len(t) == 1 else None
            self._h = hash(c) if c is not None else hash(frozenset(self._hashed_terms()))
        return self._h

    def _hashed_terms(self):
        return self._t.items()

    def __neg__(self):
        return _new(type(self), {k: -c for k, c in self._t.items()})

    def __add__(self, other):
        cls = type(self)
        if type(other) is not cls:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _new(cls, _add_dicts(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if len(self._t) == 1:
            ((k, c),) = self._t.items()
            return _new(type(self), {self._scale_key(k, n): self._check(
                c ** n if n >= 0 else Fraction(1, c ** -n))})
        if n < 0:
            raise InexactDivision("only monomials are invertible")
        if not n:
            return self.one()
        base, out = self, None
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def inverse_monomial(self):
        """Inverse, defined only for monomials (the units of the ring)."""
        return self ** -1

    def render(self) -> str:
        return _render_terms(self._triples())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())


class LaurentQ(_Sparse):
    """Laurent polynomial in q, exponents on the 1/6 lattice.

    The term map sends the integer numerator e (actual exponent e/6) to a
    nonzero rational coefficient.
    """

    __slots__ = ()

    # a key is the q-exponent in sixths
    _key = staticmethod(index)
    _unit_key = 0
    _scale_key = staticmethod(mul)

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentQ.const(other)
        return None

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
        return _new(LaurentQ, {_lattice6(qexp): c})

    @staticmethod
    def const(c) -> "LaurentQ":
        return LaurentQ.monomial(c, 0)

    @classmethod
    def parse(cls, s: str) -> "LaurentQ":
        qa = LaurentQA.parse(s)
        if any(a for (a, _) in qa._t):
            raise PolyParseError("unexpected variable A in a q-only polynomial")
        return _new(LaurentQ, {e: c for (_, e), c in qa._t.items()})

    # -- inspection ---------------------------------------------------------

    def is_one(self) -> bool:
        return self._t == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._t) == 1

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _new(LaurentQ, _scale_dict(self._t, _coeff(other)))
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return _new(LaurentQ, _mul_dicts(self._t, other._t))

    __rmul__ = __mul__

    def shift6(self, d: int) -> "LaurentQ":
        """Multiply by q^(d/6)."""
        if not d:
            return self
        return _new(LaurentQ, {e + d: c for e, c in self._t.items()})

    def _triples(self):
        return [(0, e, c) for e, c in self._t.items()]


_LQ_ZERO = _new(LaurentQ, {})
_LQ_ONE = _new(LaurentQ, {0: 1})


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
    return _new(LaurentQ, {EXP_DEN * k: s for k in range(m - 1, -m, -2)})


def curly_q(k: int) -> LaurentQ:
    """{q^k} = q^k - q^-k.

    The engine forms products of these atoms on the packed kernel
    (curly_atom_sum, curly_q_product); this single atom stays as the tests'
    independent reference for them.
    """
    if k == 0:
        return _LQ_ZERO
    return _new(LaurentQ, {EXP_DEN * k: 1, -EXP_DEN * k: -1})


# ---------------------------------------------------------------------------
# dense helpers (ordinary polynomials over Q, index = degree)
# ---------------------------------------------------------------------------

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
    """x / y: an int when it is integral, a Fraction only when it is not."""
    if type(x) is int:
        return x // y if not x % y else Fraction(x, y)
    return _coeff(Fraction(x, y))


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
    lowest-exponent coefficient is +1.  The engine does not call it; the
    benchmark's tracer (perfbench/tracer.py) looks it up by name.
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
    return _canon_unit(_new(LaurentQ, out))


def _canon_unit(p: LaurentQ) -> LaurentQ:
    """Normalize by a unit: minimal exponent 0, lowest coefficient +1."""
    if p.is_zero():
        return p
    lo = min(p._t)
    c = p._t[lo]
    if lo == 0 and c == 1:
        return p
    inv = Fraction(1, 1) / c
    return _new(LaurentQ, {e - lo: _coeff(v * inv) for e, v in p._t.items()})


def laurent_divexact(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """a / b when the division is exact; raises InexactDivision otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return _LQ_ZERO
    if len(b._t) == 1:
        ((e, c),) = b._t.items()
        return _new(LaurentQ, {ea - e: _div_coeff(ca, c) for ea, ca in a._t.items()})
    step = _support_step(a._t, b._t)
    amin, ua = _to_dense(a._t, step)
    bmin, ub = _to_dense(b._t, step)
    quot, rem = _dense_divmod(ua, ub)
    if rem:
        raise InexactDivision("polynomial division left a remainder")
    base = amin - bmin
    return _new(LaurentQ, {base + i * step: c for i, c in enumerate(quot) if c})


# ---------------------------------------------------------------------------
# LaurentQA: Laurent polynomials in A and q
# ---------------------------------------------------------------------------

class LaurentQA(_Sparse):
    """Laurent polynomial in A and q; q-exponents on the 1/6 lattice.

    Term map: (A-exponent, q-exponent numerator over 6) -> coefficient.
    Products run on the q-kernel under A -> q^S (_on_q_kernel).
    """

    __slots__ = ()

    @staticmethod
    def _key(key):
        """(A-exponent, q-exponent in sixths)."""
        a, e = key
        return index(a), index(e)

    @staticmethod
    def _scale_key(key, n):
        return key[0] * n, key[1] * n

    _unit_key = (0, 0)

    def _hashed_terms(self):
        # free of A, it equals a LaurentQ and hashes as one
        if any(a for a, _ in self._t):
            return self._t.items()
        return ((e, c) for (_, e), c in self._t.items())

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentQA):
            return other
        if isinstance(other, LaurentQ):
            return LaurentQA.from_q(other)
        if isinstance(other, (int, Fraction)):
            return LaurentQA.monomial(other)
        return None

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
        return _new(LaurentQA, {(index(a), _lattice6(qexp)): c})

    @staticmethod
    def from_q(p: LaurentQ) -> "LaurentQA":
        return _new(LaurentQA, {(0, e): c for e, c in p._t.items()})

    @classmethod
    def parse(cls, s: str) -> "LaurentQA":
        """Read one _TERM after another; whitespace is ignored, equal terms merge."""
        text = "".join(s.split())
        if not text:
            raise PolyParseError("empty polynomial string")
        terms, pos = [], 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            if m is None:
                # the text up to 20 characters past the fault, of which a
                # long one keeps its last 40
                shown = text[:pos + 20]
                shown = shown if len(shown) <= 40 else "..." + shown[-40:]
                raise PolyParseError("cannot read %r at character %d of %r"
                                     % (text[pos], pos, shown))
            terms.append(m)
            pos = m.end()
        return LaurentQA(_accumulate(map(_read_term, terms)))

    # -- inspection ----------------------------------------------------------

    def pure_q(self) -> LaurentQ:
        """Forget A, requiring that no term actually involves A."""
        if any(a for (a, _) in self._t):
            raise ValueError("polynomial still involves A")
        return _new(LaurentQ, {e: c for (_, e), c in self._t.items()})

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _new(LaurentQA, _scale_dict(self._t, _coeff(other)))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._t or not o._t:
            return _QA_ZERO
        return _new(LaurentQA, _on_q_kernel(self._t, o._t))

    __rmul__ = __mul__

    # -- rendering -----------------------------------------------------------

    def _triples(self):
        return [(a, e, c) for (a, e), c in self._t.items()]


_QA_ZERO = _new(LaurentQA, {})
_QA_ONE = _new(LaurentQA, {(0, 0): 1})


def curly_bracket(x: LaurentQA) -> LaurentQA:
    """{x} = x - x^(-1) for a monomial x.

    >>> str(curly_bracket(LaurentQA.monomial(1, 1, 2)))
    'A*q^2 - A^-1*q^-2'
    """
    if isinstance(x, LaurentQ):
        x = LaurentQA.from_q(x)
    if len(x._t) != 1:
        raise ValueError("curly bracket is defined for monomials only")
    return x - x ** -1


def _q_to_neg_inv(a, e, c):
    """q -> -q^(-1), A untouched; the sign (-1)^e needs an integral e."""
    if e % EXP_DEN:
        raise ValueError(
            "fractional q-exponent %s/6 under a parity-sensitive substitution" % e)
    return (a, -e), -c if e // EXP_DEN % 2 else c


# rule -> the image ((A-exponent, q-exponent in sixths), coefficient) of the
# term c*A^a*q^(e/6)
_SUBSTITUTIONS = {
    "A->q^2": lambda a, e, c: ((0, e + 2 * EXP_DEN * a), c),  # the Jones direction
    "q->-1/q": _q_to_neg_inv,  # the transposed representation
    "q->1": lambda a, e, c: ((a, 0), c),  # the topological locus section
    "invert": lambda a, e, c: ((-a, -e), c),  # A -> 1/A, q -> 1/q: the mirror map
}
SUBSTITUTION_RULES = tuple(_SUBSTITUTIONS)


def substitute(poly: LaurentQA, rule: str) -> LaurentQA:
    """Apply one of the ring endomorphisms in SUBSTITUTION_RULES.

    Images of equal keys merge; "q->-1/q" refuses fractional q-exponents.
    """
    image = _SUBSTITUTIONS.get(rule)
    if image is None:
        raise ValueError("unknown substitution rule %r (expected one of %s)"
                         % (rule, ", ".join(SUBSTITUTION_RULES)))
    return _new(LaurentQA, _accumulate([image(a, e, c) for (a, e), c in poly._t.items()]))


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


# One signed term: a run of signs, required except before the first term
# (where "^" matches), a lookahead that refuses an empty term, then an
# optional n or n/d, A or A^k, and q, q^k or q^(n/d).  The coefficient and
# the A may each carry one "*" that no sign follows.
_TERM = re.compile(
    r"""(?P<sign>[+-]+|^)(?=[\dAq])
    (?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?![+-]))?)?
    (?P<A>A(?:\^(?P<aexp>-?\d+))?(?:\*(?![+-]))?)?
    (?P<q>q(?:\^(?P<qexp>-?\d+|\(-?\d+(?:/\d+)?\)))?)?""",
    re.X,
)


def _read_term(m):
    """((A-exponent, q-exponent in sixths), coefficient) of one _TERM match."""
    # a term of thousands of digits is cut in the message
    shown = m[0] if len(m[0]) <= 40 else m[0][:40] + "..."
    try:
        coeff = Fraction(m["coeff"] or 1)
        qexp = Fraction((m["qexp"] or "1").strip("()")) if m["q"] else 0
        a = int(m["aexp"] or 1) if m["A"] else 0
    except ZeroDivisionError:
        raise PolyParseError("zero denominator in term %r" % shown) from None
    except ValueError:
        # int() refuses a string of more digits than sys.get_int_max_str_digits()
        raise PolyParseError("too many digits in term %r" % shown) from None
    return (a, _lattice6(qexp)), -coeff if m["sign"].count("-") % 2 else coeff
