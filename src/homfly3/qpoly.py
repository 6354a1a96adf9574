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
their operators (_Sparse) and one schoolbook product (_mul_terms), to
which each ring passes its own sum of keys; a power is square and multiply
through that product.  Two kernels run on packed integers: products and
quotients of quantum numbers (curly_atom_quotient), and the integer matrix
products of the trace and the certificates (pack_matrix, int_matmul).
Each substitution rule is one table entry: the image of a term.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, compress, repeat
from math import comb, gcd as _int_gcd, lcm, prod
from operator import add, index, mul, sub
from typing import NamedTuple

EXP_DEN = 6  # fixed denominator of the q-exponent lattice


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


def _mul_terms(a, b, add):
    """Schoolbook product of two term dicts {key: coefficient}; add sums
    two keys.  An integral Fraction becomes an int, as every ring keeps its
    coefficients."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = add(k1, k2)
            v = out.get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2
    return {k: int(c) if type(c) is Fraction and c.denominator == 1 else c
            for k, c in out.items() if c}


def _add_pairs(x, y):
    """The sum of two (A-exponent, q-exponent) keys."""
    return x[0] + y[0], x[1] + y[1]


# A memoryview cast reads and writes each slot in the host's byte order, so
# its buffer is one integer in that order, whose first slot is the highest
# digit on a big-endian host: there the slots are walked in reverse.  _CAST
# maps a digit width in bytes to the signed format of that itemsize.
_ORDER = sys.byteorder
_DIR = 1 if _ORDER == "little" else -1
_CAST = {memoryview(bytes(8)).cast(f).itemsize: f for f in "bhiq"}


def signed_width(bound):
    """Bytes per signed digit for digits of absolute value at most bound."""
    return (bound.bit_length() + 8) // 8


def pack_signed(terms, emin, width, step=1):
    """Pack {exponent: int} into one integer, width bytes per signed digit.

    Exponent e fills digit (e - emin) // step: the polynomial evaluated at
    2^(8 width), for |coefficients| below 2^(8 width - 1).  Each digit is
    written in two's complement into its slot of one zeroed buffer, which
    reads as one integer T; flipping each slot's top bit adds half a
    digit's range to it, so the value is (T ^ bias) - bias, bias the
    integer whose slots all hold that half (_half_slots).  A width of 1, 2,
    4 or 8 bytes writes the slots through one memoryview cast, any other
    width slot by slot.  A coefficient too wide for its digit raises
    ValueError.
    """
    widest = abs(max(terms.values(), key=abs))
    if widest >> (8 * width - 1):
        raise ValueError("a coefficient of %d bits does not fit a signed digit of %d bytes"
                         % (widest.bit_length(), width))
    span = (max(terms) - emin) // step + 1
    buf = bytearray(span * width)
    fmt = _CAST.get(width)
    if fmt:
        slots = memoryview(buf).cast(fmt)[::_DIR]
        for e, c in terms.items():
            slots[(e - emin) // step] = c
        order = _ORDER
    else:
        for e, c in terms.items():
            k = (e - emin) // step * width
            buf[k:k + width] = c.to_bytes(width, "little", signed=True)
        order = "little"
    bias = _half_slots(width, span)
    return (int.from_bytes(buf, order) ^ bias) - bias


def unpack_digits(value, width):
    """Inverse of pack_signed: the list of value's signed digits, lowest
    first.

    Half a digit's range is added to every slot first, so each slot of the
    biased integer holds its digit plus that half with no borrow between
    slots; flipping each slot's top bit leaves the digit in two's
    complement, read at a width of 1, 2, 4 or 8 bytes through one
    memoryview cast, at any other width slot by slot.
    """
    slots = abs(value).bit_length() // (8 * width) + 1
    bias = _half_slots(width, slots)
    biased = (value + bias) ^ bias
    fmt = _CAST.get(width)
    if fmt:
        return memoryview(biased.to_bytes(slots * width, _ORDER)).cast(fmt)[::_DIR].tolist()
    buf = biased.to_bytes(slots * width, "little")
    return [int.from_bytes(buf[i:i + width], "little", signed=True)
            for i in range(0, len(buf), width)]


def _half_slots(width, slots):
    """The integer of slots digits of width bytes, each 2^(8 width - 1)."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * slots, "little")


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


class AtomPlan(NamedTuple):
    """atom_plan's program over a tuple of atom lists, and each list's
    constants, all that curly_atom_quotient reads."""
    atoms: tuple      # the distinct atoms (alpha, beta), in order of first use
    alphas: tuple     # per list: the sum of alphas
    lifts: tuple      # per list: EXP_DEN times the sum of betas
    reach: tuple      # per list: EXP_DEN times the sum of |beta|
    bounds: tuple     # per list: C(k, k // 2) for its k atoms
    agcds: tuple      # per list: the gcd of its atoms' 2 alpha
    qgcds: tuple      # per list: the gcd of its atoms' 2 EXP_DEN beta
    program: tuple    # steps (dst, chain, src), see atom_plan
    root: int         # the slot that holds the sum once the program ran


def atom_plan(lists):
    """The AtomPlan of a sequence of atom lists, each of pairs (alpha,
    beta) standing for {A^alpha q^beta}, checked.

    Its program computes sum_i x_i * prod_{a in list_i} (X^s_a - 1) from
    slots x_i, one per list, by greedy factoring (_factor_group).  A step
    (dst, chain, src) sets slot dst to x_dst * prod_{a in chain} (X^s_a -
    1), plus slot src unless src is None; chain holds indices into atoms.
    The whole sum ends in slot root.  Each factor is one shift and one
    subtraction, and one applied to a group stands for one per list in it,
    so the program applies at most as many as the lists hold, and a single
    list is its own chain.
    """
    lists = [tuple(atoms) for atoms in lists]
    index = {atom: k for k, atom in enumerate(dict.fromkeys(chain.from_iterable(lists)))}
    for alpha, beta in index:
        if alpha < 0 or (alpha == 0 and beta <= 0):
            raise ValueError("atom {A^%d q^%d} needs alpha > 0, or alpha = 0 "
                             "and beta > 0" % (alpha, beta))
    program = []
    root, pending = _factor_group(range(len(lists)),
                                  [Counter(map(index.get, atoms)) for atoms in lists], program)
    if pending:
        program.append((root, tuple(pending), None))
    columns = tuple(zip(*map(_list_constants, lists))) or ((),) * 6
    return AtomPlan(tuple(index), *columns, tuple(program), root)


def _list_constants(atoms):
    """An atom list's (alpha, lift, reach, bound, agcd, qgcd) of AtomPlan."""
    alphas, betas = zip(*atoms) if atoms else ((), ())
    return (sum(alphas), EXP_DEN * sum(betas), EXP_DEN * sum(map(abs, betas)),
            comb(len(atoms), len(atoms) // 2), 2 * _int_gcd(*alphas),
            2 * EXP_DEN * _int_gcd(*betas))


def _factor_group(members, held, program):
    """Append to program the steps that sum the group members (slots,
    held[i] a Counter of the atoms slot i has left, which this call
    consumes); return (slot, chain): the group's sum is the slot times the
    chain's factors, still to be applied.

    The greedy choice is the atom that the most members hold, ties going
    to the lowest index (the first used).  Its holders give up one copy
    each and are summed with it pending, and the rest's sum is added to
    theirs; with no rest, the atom stays pending for the caller.  Once no
    atom is held twice, each member applies its own atoms and the members
    are added up in order; a lone member's atoms stay pending.
    """
    counts = Counter(chain.from_iterable(held[i] for i in members))
    atom = min(counts, key=lambda a: (-counts[a], a), default=None)
    if atom is None or counts[atom] < 2:
        # an empty group (no lists at all) is an empty slot 0
        return reduce(partial(_add_step, program),
                      [(i, list(held[i].elements())) for i in members] or [(0, [])])
    holders = [i for i in members if atom in held[i]]
    rest = [i for i in members if atom not in held[i]]
    for i in holders:
        held[i][atom] -= 1
        if not held[i][atom]:
            del held[i][atom]
    slot, pending = _factor_group(holders, held, program)
    pending.append(atom)
    if not rest:
        return slot, pending
    return _add_step(program, (slot, pending), _factor_group(rest, held, program))


def _add_step(program, left, right):
    """Append the steps that add the pending sum right into left; return
    left's slot, with nothing pending."""
    (dst, chain_left), (src, chain_right) = left, right
    if chain_right:
        program.append((src, tuple(chain_right), None))
    program.append((dst, tuple(chain_left), src))
    return dst, []


def _run_program(program, root, slots, shifts):
    """Run an AtomPlan's program on the packed slots, at the atoms' shifts
    in bits; return the root slot.  A zero slot skips its factors: an atom
    that only zero terms hold gets a shift from the layout of the others,
    which may be below 1."""
    for dst, factors, src in program:
        x = slots[dst]
        if x:
            for a in factors:
                x = (x << shifts[a]) - x
        if src is not None:
            x += slots[src]
        slots[dst] = x
    return slots[root]


def curly_atom_sum(terms):
    """sum_i p_i * prod_{(alpha, beta) in atoms_i} {A^alpha q^beta}, in Z:
    curly_atom_quotient of the pairs (p, atoms), with no hooks."""
    terms = list(terms)
    return curly_atom_quotient([p for p, _ in terms], atom_plan([a for _, a in terms]), ())


def curly_atom_quotient(polys, plan, hooks):
    """sum_i p_i * prod_{(alpha, beta) in atoms_i} {A^alpha q^beta} over
    prod_{h in hooks} {q^h}, in Z.

    ``polys`` holds term dicts p_i {q-exponent in sixths: int or
    Fraction}, one for each atom list of ``plan``, an atom_plan; an atom
    (alpha, beta) stands for {A^alpha q^beta} = A^alpha q^beta - A^-alpha
    q^-beta, and ``hooks`` holds positive integers.  Returns the quotient
    as a term dict {(A-exponent, q-exponent in sixths): coefficient}; an
    inexact division raises InexactDivision naming the lowest A-slice that
    the divisor does not divide.

    Every coefficient is scaled by L, the lcm of all denominators, and each
    nonzero L*p_i is packed once (pack_signed) in the bivariate Kronecker
    layout

        digit index = (a + n) / astep * qspan + (e - qlo) / step,

    for the term A^a q^(e/6), where n is the largest sum of alphas, qlo
    (qhi) the lowest (highest) q-exponent any term can reach, all over the
    nonzero p_i, step the gcd
    of all q-exponent offsets, atom shifts and 12 h, astep that of the
    A-offsets and atom shifts, and qspan = (qhi - qlo) / step + 1.  With X =
    2^(8 width) per digit, an atom is the monomial A^-alpha q^-beta times
    X^s - 1 with s = 2 alpha / astep * qspan + 12 beta / step > 0, so
    multiplying by it is one shift and one subtraction.  The plan's program
    applies them (_run_program): the atoms the p_i share are factored out
    of their sum, so each such atom is one shift and one subtraction for
    the group, not one per term.  The sum is exact integer arithmetic and
    only its bracketing differs from term by term, so the packed sum P is
    the same integer either way, and so is the bound below, which is
    taken from P's terms, not from the program.  A coefficient of a product of k such
    binomials counts, with signs, the subsets of shifts with one sum, at
    most C(k, k // 2) of them (Erdos's Littlewood-Offord bound, all s >=
    1), so no coefficient of P exceeds B = sum_i |L*p_i|_1 * C(k_i, k_i //
    2), k_i = #atoms_i, and the width is taken from that bound, rounded up
    to a width unpack_digits casts.

    Each {q^h} is q^-h (X^k - 1) with k = 12 h / step, so the packed sum is
    divided once, as one integer, by D = prod_h (X^k - 1) (_hook_product,
    cached per hook list and width).  The integer quotient Q is unpacked
    once and taken for the polynomial quotient only when three checks pass:
    the remainder is zero; every digit d of Q has |d| |D|_1 < 2^(8 width -
    1), |D|_1 the l1 norm of D's coefficients (at most 2^#hooks), so that
    every coefficient of Q*D fits its digit and Q*D = P holds for the
    polynomials, not only at X; and the top sum(k) digits of every A-slice
    of Q are zero, so that each slice's quotient times D stays inside its
    slice and D divides every slice of P on its own.  A quotient too wide
    for the digit bound is divided again at a wider width, the sum's digits
    (exact at the first width) spread to it as they are, up to one that
    holds every true quotient: B * prod_k (qspan // k + 1) *
    |D|_1 bounds one, as each division by X^k - 1 sums at most qspan // k +
    1 digits of its dividend.  Any other failure, or one at that width, is
    an inexact division, and the sum's digits are then divided slice by
    slice (_lowest_inexact_slice) to name the lowest A-slice that does not
    divide.  The quotient is divided by L.
    """
    live = list(map(bool, polys))
    if not any(live):
        return {}
    scale = 1
    if not {int}.issuperset(chain.from_iterable(map(type, p.values()) for p in polys)):
        scale = lcm(*(c.denominator for p in polys for c in p.values()))
        polys = [{e: c.numerator * (scale // c.denominator) for e, c in p.items()} for p in polys]
    alphas, lifts = plan.alphas, plan.lifts
    n = max(compress(alphas, live))
    lows = [min(p) if p else 0 for p in polys]
    qlo = min(compress(map(sub, lows, plan.reach), live))
    qhi = max(max(p) + r for p, r in zip(polys, plan.reach) if p)
    step = _int_gcd(*compress(plan.qgcds, live), *(2 * EXP_DEN * h for h in hooks),
                    *compress((lo - lift - qlo for lo, lift in zip(lows, lifts)), live),
                    *chain.from_iterable(map(sub, p, repeat(lo)) for p, lo in zip(polys, lows))) or 1
    astep = _int_gcd(*compress(plan.agcds, live), *(n - a for a in compress(alphas, live))) or 1
    qspan = (qhi - qlo) // step + 1
    bound = sum(sum(map(abs, p.values())) * b for p, b in zip(polys, plan.bounds))
    shifts = tuple(sorted(2 * EXP_DEN * h // step for h in hooks))
    norm = sum(map(abs, _hook_divisor(shifts)))
    widest = signed_width(bound * prod(qspan // k + 1 for k in shifts) * norm)
    width = _cast_width(signed_width(bound))
    bits = 8 * width
    slots = [pack_signed(p, qlo + lift, width, step) << ((n - a) // astep * qspan * bits)
             if p else 0 for p, a, lift in zip(polys, alphas, lifts)]
    total = _run_program(plan.program, plan.root, slots,
                         [(2 * alpha // astep * qspan + 2 * EXP_DEN * beta // step) * bits
                          for alpha, beta in plan.atoms])
    while True:
        quotient, rest = divmod(total, _hook_product(shifts, width))
        digits = unpack_digits(quotient, width)
        fits = max(max(digits), -min(digits)) * norm < 1 << (8 * width - 1)
        if rest or fits or width >= widest:
            break
        # the sum's digits are exact at the first width: they are spread
        # to the wider one, not packed and summed again
        wider = _cast_width(min(2 * width, widest))
        total, width = pack_signed(unpack_signed(total, width), 0, wider), wider
    cut = max(qspan - sum(shifts), 0)
    if rest or not fits or any(any(digits[i + cut:i + qspan])
                               for i in range(0, len(digits), qspan)):
        a = _lowest_inexact_slice(total, width, qspan, shifts)
        raise InexactDivision("A-slice %d" % (a * astep - n))
    lo = qlo + EXP_DEN * sum(hooks)
    out = {}
    for i in range(0, len(digits), qspan):
        row = digits[i:i + cut]
        keys = zip(repeat(i // qspan * astep - n), range(lo, lo + cut * step, step))
        out.update(zip(compress(keys, row), filter(None, row)))
    if scale == 1:
        return out
    return {k: d // scale if d % scale == 0 else Fraction(d, scale) for k, d in out.items()}


def _cast_width(width):
    """The least digit width of 1, 2, 4 or 8 bytes at least width, or
    width past 8 bytes."""
    return min((w for w in _CAST if w >= width), default=width)


# bounded: one entry per hook list and width, a handful per color
@lru_cache(maxsize=64)
def _hook_product(shifts, width):
    """prod_k (X^k - 1) over the shifts k, at X = 2^(8 width)."""
    return prod((1 << 8 * width * k) - 1 for k in shifts)


# bounded: one entry per hook list, one or two per color
@lru_cache(maxsize=64)
def _hook_divisor(shifts):
    """The coefficients of prod_k (X^k - 1) over the shifts k, lowest first."""
    divisor = [1]
    for k in shifts:
        divisor = [x - y for x, y in zip([0] * k + divisor, divisor + [0] * k)]
    return tuple(divisor)


def _lowest_inexact_slice(total, width, qspan, shifts):
    """The index of the lowest qspan-digit slice of total that prod_k
    (X^k - 1) does not divide: curly_atom_quotient's failure path."""
    digits = unpack_digits(total, width)
    for i in range(0, len(digits), qspan):
        if _dense_divmod(digits[i:i + qspan], _hook_divisor(shifts))[1]:
            return i // qspan
    raise AssertionError("every slice divides, yet the packed quotient failed its checks")


def curly_q_product(values):
    """prod_v {q^v} over a sequence of positive integers v (1 if empty)."""
    return _new(LaurentQ, {e: c for (_, e), c in
                           curly_atom_sum([({0: 1}, [(0, v) for v in values])]).items()})


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
        return _new(LaurentQ, _mul_terms(self._t, other._t, add))

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
    A product is _mul_terms over the pairwise sum of keys.
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
        return _new(LaurentQA, _mul_terms(self._t, o._t, _add_pairs))

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

def _a_power(a: int) -> str:
    """The factor A^a of a rendered term ('A' for a = 1)."""
    return "A" if a == 1 else "A^%d" % a


def _q_power(e6: int) -> str:
    """The factor q^(e6/6) of a rendered term: 'q' for an exponent of 1, a
    bare integer exponent (q^-2), or an off-integer one as a parenthesized
    fraction (q^(2/3))."""
    if e6 == EXP_DEN:
        return "q"
    if e6 % EXP_DEN == 0:
        return "q^%d" % (e6 // EXP_DEN)
    f = Fraction(e6, EXP_DEN)
    return "q^(%d/%d)" % (f.numerator, f.denominator)


# bounded: one entry per key rendered, a few thousand over the catalog
@lru_cache(maxsize=8192)
def _monomial(a: int, e6: int) -> str:
    """'*A^a*q^(e6/6)' of a rendered term, each factor of exponent 0 left
    out ('' for the constant term)."""
    return ("*" + _a_power(a) if a else "") + ("*" + _q_power(e6) if e6 else "")


def _render_terms(triples) -> str:
    """Render [(A-exp, q-exp6, coeff)] canonically.

    Terms are sorted by A-exponent descending, then q-exponent descending
    (the keys (A-exp, q-exp6) are distinct, so a plain reverse sort of the
    triples never compares coefficients); integer exponents print bare
    (A^4*q^-2), off-integer q-exponents print as parenthesized fractions
    (q^(2/3)).  A coefficient of 1 or -1 prints as its sign alone, unless
    the term is constant.
    """
    if not triples:
        return "0"
    chunks = []
    for a, e6, c in sorted(triples, reverse=True):
        monomial = _monomial(a, e6)
        sign = " - " if c < 0 else " + "
        if monomial and (c == 1 or c == -1):
            chunks.append(sign + monomial[1:])
        else:
            chunks.append("%s%s%s" % (sign, abs(c), monomial))
    text = "".join(chunks)
    return text[3:] if text[1] == "+" else "-" + text[3:]


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
