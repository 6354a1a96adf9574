"""Factored quantum numbers: sign * q^(u6/6) * prod_d Phi_d(q^2)^e.

A factored value is a triple (sign, u6, exps): sign is +1 or -1, u6 the
q-exponent in sixths and exps a dict {d: e} of nonzero exponents of the
cyclotomic polynomials Phi_d(q^2).  Since

    [k] = q^-(k-1) * prod_{d | k, d > 1} Phi_d(q^2),

products, quotients and square roots of quantum integers are exponent
arithmetic (``_fprod``, ``sqrt_of``); only sums need polynomials, which are
expanded (``_expand``) and divided back by the Phi_d they share with a
denominator (``divide_out``).  ``factor`` goes the other way: it writes an
integer Laurent polynomial in this form by exact trial division, or
raises.  Every Phi_d(x) is positive for x > 1, so the sign of a factored
value at every q > 1 is its sign field.

These are the scalars of both mixing-matrix constructions in
:mod:`homfly3.racah`: the recoupling sum and the eigenvalue formulas.
"""

from __future__ import annotations

from functools import lru_cache

from .qpoly import EXP_DEN, InexactDivision, LaurentQ, laurent_divexact

# q^2 in sixths: the exponent step of Phi_d(q^2)
_Q2 = 2 * EXP_DEN


class NotCyclotomic(ArithmeticError):
    """A polynomial is not a signed monomial times a product of Phi_d(q^2)."""


class NotASquare(ArithmeticError):
    """A factored value has an odd exponent or a negative sign under a root."""


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d(q^2): x^d - 1 divided by Phi_k(x) for every k | d, k < d."""
    phi = LaurentQ({_Q2 * d: 1, 0: -1})
    for k in range(1, d):
        if d % k == 0:
            phi = laurent_divexact(phi, _cyclotomic(k))
    return phi


@lru_cache(maxsize=None)
def _totient(d):
    """Euler's phi(d), the degree of Phi_d."""
    n, out, k = d, d, 2
    while k * k <= n:
        if n % k == 0:
            out -= out // k
            while n % k == 0:
                n //= k
        k += 1
    return out - out // n if n > 1 else out


def _qint(k):
    """[k] for k >= 1, factored."""
    return 1, -EXP_DEN * (k - 1), {d: 1 for d in range(2, k + 1) if k % d == 0}


def _fprod(num, den=()):
    """prod(num) / prod(den) of factored values."""
    sign, u6, exps = 1, 0, {}
    for power, values in ((1, num), (-1, den)):
        for s, u, ex in values:
            sign *= s
            u6 += power * u
            for d, e in ex.items():
                exps[d] = exps.get(d, 0) + power * e
    return sign, u6, {d: e for d, e in exps.items() if e}


@lru_cache(maxsize=None)
def _qfactorial(n):
    """[n]! for n >= 0, factored."""
    return _fprod([_qint(k) for k in range(1, n + 1)])


def _expand(exps, sign=1, u6=0):
    """sign * q^(u6/6) * prod_d Phi_d(q^2)^exps[d], exps >= 0, as a LaurentQ.

    ``exps`` may also be a set of d, standing for exponents 1.
    """
    if not isinstance(exps, dict):
        exps = dict.fromkeys(exps, 1)
    acc = LaurentQ({u6: sign})
    for d in sorted(exps):
        acc = acc * _cyclotomic(d) ** exps[d]
    return acc


def divide_out(poly, exps):
    """poly / prod_d Phi_d(q^2)^exps[d] in lowest terms.

    Divides poly by each Phi_d as often as the division is exact and
    returns (quotient, {d: exponent left in the denominator}).
    """
    left = {}
    for d, e in exps.items():
        while e:
            try:
                poly = laurent_divexact(poly, _cyclotomic(d))
            except InexactDivision:
                break
            e -= 1
        if e:
            left[d] = e
    return poly, left


def factor(poly):
    """An integer Laurent polynomial as a factored value, by trial division.

    Shifts out the lowest power of q, then divides by Phi_d(q^2) for
    d = 1, 2, ... as often as each division is exact, stopping once the
    cofactor is a constant.  A Phi_d of degree at most D has d <= 2 D^2,
    since phi(d) >= sqrt(d/2), so the search is finite.  Raises
    NotCyclotomic if poly is zero, is not a monomial times a polynomial in
    q^2, or leaves a cofactor other than +-1.
    """
    if not poly:
        raise NotCyclotomic("zero has no factored form")
    terms = poly.terms
    lo = min(terms)
    if any((e - lo) % _Q2 for e in terms):
        raise NotCyclotomic("%s is not a monomial times a polynomial in q^2"
                            % poly)
    rest = poly.shift6(-lo)
    degree = (max(terms) - lo) // _Q2
    exps = {}
    d = 1
    while degree and d <= 2 * degree * degree:
        if _totient(d) <= degree:
            while True:
                try:
                    rest = laurent_divexact(rest, _cyclotomic(d))
                except InexactDivision:
                    break
                exps[d] = exps.get(d, 0) + 1
                degree -= _totient(d)
        d += 1
    if degree or rest.terms[0] not in (1, -1):
        raise NotCyclotomic("%s leaves the cofactor %s" % (poly, rest))
    return rest.terms[0], lo, exps


def sqrt_of(value):
    """The square root of a factored value: every exponent halved.

    Raises NotASquare on a negative sign or an odd exponent of q^(1/6) or
    of some Phi_d, so the root is the positive one at every q > 1.
    """
    sign, u6, exps = value
    if sign < 0 or u6 % 2 or any(e % 2 for e in exps.values()):
        raise NotASquare("%d * q^(%d/6) * %s is not a square" % (sign, u6, exps))
    return 1, u6 // 2, {d: e // 2 for d, e in exps.items()}
