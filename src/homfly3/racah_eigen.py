"""The mixing triple from the twist eigenvalues alone: the cross-check of
:func:`homfly3.racah.twisted_basis`.

``racah_from_eigenvalues`` builds (rho, V, c) from nothing but the
normalized eigenvalue list of :func:`normalized_eigenvalues`, with squared
entries given by rational expressions in the eigenvalues, every factor a
monomial or a binomial factored in closed form by
:func:`homfly3.radext.binomial`, and interior signs fixed row by row by
exact orthogonality.  It returns what the recoupling sum returns on the
matching eigenvalue set, certified by :func:`homfly3.racah.certify_basis`
before it is returned.

No request runs it: the blocks are certified against the recoupling sum
alone, so the command line never imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from .qpoly import LaurentQ
from .racah import NonOrthogonal, UnsupportedMultiplicity, _triple, certify_basis
from .radext import NotASquare, NotCyclotomic, _fprod, binomial, divide_out, sqrt_of

__all__ = [
    "RepeatedEigenvalue",
    "normalized_eigenvalues",
    "racah_from_eigenvalues",
]


class RepeatedEigenvalue(ValueError):
    """Eigenvalue-based construction needs pairwise distinct eigenvalues."""


# Pinned dressing per size, chosen so that the eigenvalue-based triple
# coincides with twisted_basis on the matching eigenvalue set.
_EV_DRESS = {
    2: (1, 1),
    3: (1, -1, -1),
    4: (1, 1, -1, 1),
    5: (1, 1, 1, 1, 1),
}


def normalized_eigenvalues(N, p):
    """Twist eigenvalues scaled so their product is a plain sign.

    Returns the list xi~_j = (-1)^j q^{(N-1-2j)p + j(j-1) - c_N} with
    c_N = (N-1)(N-2)/3, as LaurentQ monomials on the 1/6 exponent lattice.
    """
    c = Fraction((N - 1) * (N - 2), 3)
    out = []
    for j in range(N):
        exp = Fraction((N - 1 - 2 * j) * p + j * (j - 1)) - c
        out.append(LaurentQ.monomial((-1) ** j, exp))
    return out


# the factors of the eigenvalue formulas, with eigenvalues as factored
# signed monomials (sign, u6, {}): every factor is a monomial or a binomial
# y - 1, which radext.binomial factors in closed form

_NEG = (-1, 0, {})


def _plus_one(y):
    """y + 1 = -((-y) - 1)."""
    return _fprod([_NEG, binomial(_fprod([_NEG, y]))])


def _balanced(y, sign):
    """y + s + 1/y for s = sign = +-1, as (s y^3 - 1) / (y (s y - 1))."""
    s = (sign, 0, {})
    return _fprod([binomial(_fprod([s, y, y, y]))], [y, binomial(_fprod([s, y]))])


def _minus(x, y):
    """x - y = y (x/y - 1)."""
    return _fprod([y, binomial(_fprod([x], [y]))])


def _ev_offdiag_square(ms, i, j):
    """Squared off-diagonal entry U_ij^2, factored.

    ``ms`` holds the eigenvalues as factored monomials.  U_ij^2 is a ratio
    of products of eigenvalue monomials and binomials in them.
    """
    xi, xj = ms[i], ms[j]
    others = [x for k, x in enumerate(ms) if k != i and k != j]
    if len(ms) == 2:
        # xi^2 + 1 + xj^2 = y + 1 + 1/y with y = xi^2, since xi xj = +-1
        num = [_balanced(_fprod([xi, xi]), 1)]
    elif len(ms) == 3:
        num = [_NEG, binomial(_fprod([xi] * 3)), binomial(_fprod([xj] * 3)),
               _fprod([], [xi, xj])]
    elif len(ms) == 4:
        num = [_NEG, binomial(_fprod([xi, xi])), binomial(_fprod([xj, xj]))]
        num += [_balanced(_fprod([xi, x]), -1) for x in others]
    else:
        num = [_NEG, xi, xj, _balanced(xi, 1), _balanced(xj, 1)]
        num += [_plus_one(_fprod([y, x])) for y in (xi, xj) for x in others]
    den = [_minus(xi, xj), _minus(xi, xj)]
    den += [_minus(y, x) for y in (xi, xj) for x in others]
    return _fprod(num, den)


def _ev_diag(xs, ms, i):
    """Signed diagonal entry U_ii restored from orthogonality.

    Returns (numerator as a LaurentQ in the eigenvalues ``xs``, factored
    denominator from their factored monomials ``ms``).
    """
    n = len(xs)
    xi = xs[i]
    others = [xs[k] for k in range(n) if k != i]
    one = LaurentQ.one()
    if n == 2:
        fac = one
    elif n == 3:
        fac = -(xi * (others[0] + others[1]))
    elif n == 4:
        e1 = others[0] + others[1] + others[2]
        e2 = (others[0] * others[1] + others[0] * others[2]
              + others[1] * others[2])
        fac = xi * (xi * e2 - e1)
    else:
        s1 = LaurentQ.zero()
        for x in others:
            s1 = s1 + x + x.inverse_monomial()
        s2 = LaurentQ.zero()
        for a in range(4):
            for b in range(a + 1, 4):
                s2 = s2 + (others[a] * others[b]).inverse_monomial()
        fac = xi * ((xi + one) * (one + s1) + s2)
    if i % 2:
        fac = -fac
    return fac, _fprod([_minus(ms[i], x) for k, x in enumerate(ms) if k != i])


def _orthogonal(a, b, rho):
    """Whether rows a and b of V are orthogonal: sum_t a_t rho_t b_t = 0."""
    return not sum((x * r * y for x, r, y in zip(a, rho, b)), LaurentQ.zero())


def racah_from_eigenvalues(xi):
    """Build the mixing triple (rho, V, c) from normalized twist eigenvalues.

    ``xi`` must be pairwise-distinct signed q-monomials (coefficients +-1)
    on the 1/6 exponent lattice with product +-1, as
    :func:`normalized_eigenvalues` returns them.  The squared entries
    U_ij^2 (i < j) are closed rational expressions in the eigenvalues,
    factored into Phi_d(q^2); rho_j is the odd part of U_0j^2, and
    U_ij / sqrt(rho_i rho_j) their exact square root, positive at q > 1.
    The diagonal U_ii is a signed rational expression in lowest terms.
    With the first row positive and the alternating transpose rule, the
    interior signs (i, j >= 1) are fixed row by row, each row orthogonal
    to the rows above; exactly one assignment may survive.  The dressing
    is pinned per size so the result equals :func:`twisted_basis` on
    matching eigenvalue sets; it is certified once before it is returned.
    """
    xs = [x if isinstance(x, LaurentQ) else LaurentQ.const(x) for x in xi]
    n = len(xs)
    if n not in _EV_DRESS:
        raise UnsupportedMultiplicity("no eigenvalue formulas for size %r" % (n,))
    ms = []
    for x in xs:
        if not x.is_monomial():
            raise ValueError("eigenvalues must be signed q-monomials: %s" % x)
        ((u6, c),) = x.terms.items()
        if c not in (1, -1):
            raise ValueError("eigenvalue coefficient must be +-1: %s" % x)
        ms.append((c, u6, {}))
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise RepeatedEigenvalue(
                    "eigenvalues %d and %d coincide: %s" % (i, j, xs[i])
                )

    outside = "; eigenvalue set is outside the formulas' validity"
    sign, u6, _ = _fprod(ms)
    if u6:
        raise NonOrthogonal("the eigenvalues multiply to %s, not +-1"
                            % LaurentQ({u6: sign}) + outside)
    try:
        squares = {(i, j): _ev_offdiag_square(ms, i, j)
                   for i in range(n) for j in range(i + 1, n)}
        diags = [_ev_diag(xs, ms, i) for i in range(n)]
    except NotCyclotomic as exc:
        raise NonOrthogonal(str(exc) + outside)
    for (i, j), (sign, _, _) in squares.items():
        if sign < 0:
            raise NonOrthogonal(
                "squared entry (%d,%d) is negative-valued" % (i, j) + outside)

    # U_ij = W_ij sqrt(rho_i rho_j) with W_ij = nums / prod Phi_d^dens
    odd = [{}] + [{d: 1 for d, e in squares[0, j][2].items() if e % 2}
                  for j in range(1, n)]
    nums, dens = {}, {}
    for (i, j), square in squares.items():
        try:
            sign, u6, exps = sqrt_of(
                _fprod([square], [(1, 0, odd[i]), (1, 0, odd[j])]))
        except NotASquare:
            raise NonOrthogonal(
                "U_%d%d^2 is not rho_%d rho_%d times a square" % (i, j, i, j)
                + outside)
        nums[i, j] = LaurentQ.one(), (sign, u6, {d: e for d, e in exps.items() if e > 0})
        dens[i, j] = {d: -e for d, e in exps.items() if e < 0}
    for i, (fac, (sign, u6, exps)) in enumerate(diags):
        poly, dens[i, i] = divide_out(
            fac.shift6(-u6) * sign, _fprod([(1, 0, exps), (1, 0, odd[i])])[2])
        nums[i, i] = poly, (1, 0, {})

    for i in range(n):
        for j in range(i):
            poly, factored = nums[j, i]
            nums[i, j] = poly * (-1) ** (i + j), factored
            dens[i, j] = dens[j, i]
    rho, v, c = _triple(odd, nums, dens)

    # interior signs, row by row: row i takes the signs of its entries
    # right of the diagonal, the transpose rule gives those left of it from
    # the rows above, and a partial assignment survives only while its
    # rows are pairwise orthogonal
    partial = [(v[0],)]
    for i in range(1, n):
        tails = [()]
        for x in v[i][i + 1:]:
            tails = [tail + (y,) for tail in tails for y in (x, -x)]
        grown = []
        for rows in partial:
            left = tuple(rows[t][i] if (i + t) % 2 == 0 else -rows[t][i]
                         for t in range(i)) + (v[i][i],)
            grown += [rows + (left + tail,) for tail in tails
                      if all(_orthogonal(left + tail, above, rho)
                             for above in rows)]
        partial = grown
    if not partial:
        raise NonOrthogonal(
            "no sign assignment makes the matrix orthogonal" + outside)
    if len(partial) > 1:
        raise NonOrthogonal("sign assignment is ambiguous for this input")
    dress = _EV_DRESS[n]
    v = tuple(
        tuple(x if dress[i] == dress[j] else -x for j, x in enumerate(row))
        for i, row in enumerate(partial[0])
    )
    certify_basis(rho, v, c)
    return rho, v, c
