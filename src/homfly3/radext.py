"""Factored quantum numbers: sign * q^(u6/6) * prod_d Phi_d(q^2)^e.

A factored value is a triple (sign, u6, exps): sign is +1 or -1, u6 the
q-exponent in sixths and exps a dict {d: e} of nonzero exponents of the
cyclotomic polynomials Phi_d(q^2).  Since

    [k] = q^-(k-1) * prod_{d | k, d > 1} Phi_d(q^2),

products, quotients and square roots of quantum integers are exponent
arithmetic (``_fprod``, ``sqrt_of``); only sums need polynomials.  A
polynomial times a factored value is expanded (``_expand``) on the atom
kernel of :mod:`homfly3.qpoly`: Moebius inversion writes prod_d
Phi_d(q^2)^e as a monomial times atoms {q^k} over hooks {q^k}, which
``curly_atom_quotient`` multiplies and divides as one packed integer.  A
sum is divided back by the Phi_d it shares with a denominator
(``divide_out``).  The one sum written in this form directly
is a binomial +-q^(2n) - 1, in closed form over the divisors of n or 2n
(``binomial``).  Every Phi_d(x) is positive for x > 1, so the sign of a
factored value at every q > 1 is its sign field.

These are the scalars of both mixing-matrix constructions: the
recoupling sum of :mod:`homfly3.racah` and the eigenvalue formulas of
:mod:`homfly3.racah_eigen`.
"""

from __future__ import annotations

from functools import lru_cache

from .qpoly import (EXP_DEN, InexactDivision, LaurentQ, _new, atom_plan, curly_atom_quotient,
                    laurent_divexact)

# q^2 in sixths: the exponent step of Phi_d(q^2)
_Q2 = 2 * EXP_DEN


class NotCyclotomic(ArithmeticError):
    """A polynomial is not a signed monomial times a product of Phi_d(q^2)."""


class NotASquare(ArithmeticError):
    """A factored value has an odd exponent or a negative sign under a root."""


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


def _expand(exps, sign=1, u6=0, poly=None):
    """poly * sign * q^(u6/6) * prod_d Phi_d(q^2)^exps[d], exps >= 0, as a
    LaurentQ; poly is a LaurentQ, 1 if omitted, and exps may be a set of d,
    standing for exponents 1.

    A poly of two or more terms takes one qpoly.curly_atom_quotient
    (_times_cyclotomic); a monomial scales the product of the Phi_d, which
    is formed once per exponent tuple (_cyclotomic_product).
    """
    if not isinstance(exps, dict):
        exps = dict.fromkeys(exps, 1)
    exps = tuple(sorted((d, e) for d, e in exps.items() if e))
    if poly is not None:
        if len(poly._t) != 1:
            return _times_cyclotomic(exps, {e + u6: sign * c for e, c in poly._t.items()})
        ((e, c),) = poly._t.items()
        sign, u6 = sign * c, u6 + e
    return (_cyclotomic_product(exps) * sign).shift6(u6)


# bounded: 62 exponent tuples after the set-up of r <= 4, 137 after
# racah-dump at N = 5, p = 50 on top of it
@lru_cache(maxsize=1024)
def _cyclotomic_product(exps):
    """prod_d Phi_d(q^2)^e over the pairs (d, e) of exps, d ascending."""
    return _times_cyclotomic(exps, {0: 1})


def _times_cyclotomic(exps, terms):
    """The term dict terms times prod_d Phi_d(q^2)^e over the pairs (d, e)
    of exps, as a LaurentQ: one qpoly.curly_atom_quotient.

    Phi_d(q^2) divides q^2k - 1 = q^k {q^k} once for each multiple k of d,
    so the product is q^(sum_k k m_k) prod_k {q^k}^m_k, where m solves
    e_d = sum_{d | k} m_k from the largest d down (the Moebius inversion
    m_k = sum_{k | d} mu(d/k) e_d): an atom {q^k} for each m_k > 0, a hook
    {q^k} for each m_k < 0.
    """
    exps = dict(exps)
    top = max(exps, default=0)
    m = {}
    for k in range(top, 0, -1):
        m[k] = exps.get(k, 0) - sum(m[j] for j in range(2 * k, top + 1, k))
    atoms = [(0, k) for k, x in m.items() for _ in range(x)]
    hooks = [k for k, x in m.items() for _ in range(-x)]
    if atoms or hooks:
        shift = EXP_DEN * sum(k * x for k, x in m.items())
        terms = {e + shift: c for (_, e), c in
                 curly_atom_quotient([terms], atom_plan([atoms]), hooks).items()}
    return _new(LaurentQ, terms)


def divide_out(poly, exps):
    """poly / prod_d Phi_d(q^2)^exps[d] in lowest terms.

    Divides poly by each Phi_d as often as the division is exact and
    returns (quotient, {d: exponent left in the denominator}).
    """
    left = {}
    for d, e in exps.items():
        while e:
            try:
                poly = laurent_divexact(poly, _expand({d: 1}))
            except InexactDivision:
                break
            e -= 1
        if e:
            left[d] = e
    return poly, left


def binomial(monomial):
    """y - 1 for a factored signed monomial y = +-q^(u6/6), factored.

    With x = q^2 and y = +-x^n: x^n - 1 is the product of Phi_d(x) over the
    d | n, x^n + 1 = (x^2n - 1) / (x^n - 1) the product over the d | 2n
    that do not divide n, and a negative n first takes out -x^n.  Raises
    NotCyclotomic off the q^2 lattice and where y - 1 is 0 or -2.
    """
    sign, u6, _ = monomial
    n, rest = divmod(u6, _Q2)
    if rest or not n:
        raise NotCyclotomic("%s is not a monomial times a product of "
                            "Phi_d(q^2)" % (LaurentQ({u6: sign}) - 1))
    m = abs(n)
    if sign > 0:
        exps = {d: 1 for d in range(1, m + 1) if m % d == 0}
    else:
        exps = {d: 1 for d in range(1, 2 * m + 1) if 2 * m % d == 0 and m % d}
    return (sign, 0, exps) if n > 0 else (-1, u6, exps)


def sqrt_of(value):
    """The square root of a factored value: every exponent halved.

    Raises NotASquare on a negative sign or an odd exponent of q^(1/6) or
    of some Phi_d, so the root is the positive one at every q > 1.
    """
    sign, u6, exps = value
    if sign < 0 or u6 % 2 or any(e % 2 for e in exps.values()):
        raise NotASquare("%d * q^(%d/6) * %s is not a square" % (sign, u6, exps))
    return 1, u6 // 2, {d: e // 2 for d, e in exps.items()}
