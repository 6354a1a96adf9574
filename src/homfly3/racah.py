"""Twist eigenvalues, mixing matrices and triangular pairs for 3-strand closures.

Every irreducible block of the 3-strand transfer algebra has signed twist
eigenvalues xi_j = (-1)^j q^{kappa} and an orthogonal change of basis U
between the two fusion channels.  U is handed out as the integer Laurent
triple (rho, V, c) with U = S (V/c) S and S = diag(sqrt(rho_j)); it
certifies the pair that the trace of :mod:`homfly3.braid` reads (below).
Two constructions produce it, both in the factored quantum numbers of
:mod:`homfly3.radext`:

- ``twisted_basis``: the recoupling sum for three equal spins (the q-6j
  formula of Kirillov and Reshetikhin), the one ``build_block`` certifies
  each pair against;
- ``racah_from_eigenvalues``: from nothing but the normalized eigenvalue
  list, with squared entries given by rational expressions in the
  eigenvalues, every factor a monomial or a binomial factored in closed
  form, and interior signs fixed row by row by exact orthogonality.

Every triple is certified once before it is returned (``certify_basis``):
V diag(rho) V^T = c^2 diag(1/rho), which is U U^T = I conjugated by S, and
the sign layout V_ji = (-1)^(i+j) V_ij, which is sigma U sigma = U^T with
sigma = diag(+1, -1, +1, ...).  Construction fails loudly rather than
returning an uncertified matrix.  ``racah_su2`` renders U entry by entry
for display.

The trace engine reads none of this.  As the paper's weaker conjecture
proposes, each block's sigma_1 and sigma_2 are written in its eigenvalues
alone: ``triangular_pair`` evaluates, for sizes 2..5, the normal form of
Tuba and Wenzl (Pacific J. Math. 197, 2001), A upper triangular with
diagonal xi_1..xi_d and B lower triangular, B = J A J up to a diagonal
dressing (J the reversal), every entry a Laurent polynomial in the
eigenvalues and one root of their product.  ``certify_pair`` certifies
the pair once per block against the recoupling triple: ABA = BAB
exactly, and an exact intertwiner with (diag(xi), S U diag(xi) U^T
S^-1), so a wrong root or a wrong entry fails loudly.  ``build_block``
caches the certified block: its eigenvalues and its pair, nothing of the
triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod

from .qpoly import (
    InexactDivision,
    LaurentQ,
    _support_step,
    int_matmul,
    laurent_divexact,
    laurent_matrix,
    pack_matrix,
    signed_width,
)
from .radext import (
    NotASquare,
    NotCyclotomic,
    _cyclotomic,
    _expand,
    _fprod,
    _qfactorial,
    _qint,
    binomial,
    divide_out,
    sqrt_of,
)
from .young import BlockSpec, pair_exponent

__all__ = [
    "MAX_SIZE",
    "DegenerateP",
    "RepeatedEigenvalue",
    "NonOrthogonal",
    "NotIntertwined",
    "UnsupportedMultiplicity",
    "MixingBlock",
    "twisted_basis",
    "certify_basis",
    "triangular_pair",
    "certify_pair",
    "racah_su2",
    "racah_from_eigenvalues",
    "build_block",
    "normalized_eigenvalues",
]


class DegenerateP(ValueError):
    """A denominator quantum integer [k] vanishes for this (N, p)."""


class RepeatedEigenvalue(ValueError):
    """Eigenvalue-based construction needs pairwise distinct eigenvalues."""


class NonOrthogonal(ArithmeticError):
    """Certification failed: no exact orthogonal sign assignment exists."""


class NotIntertwined(ArithmeticError):
    """Certification failed: a triangular pair is not the block's braiding."""


class UnsupportedMultiplicity(ValueError):
    """Mixing matrices of sizes above MAX_SIZE are not implemented."""


# --------------------------------------------------------------------------
# the recoupling sum, straight to the twisted basis

def _row_radicand(p, k, j):
    """f_j: the part of an entry's radicand that depends on its row alone.

    Spin dictionary: three coupled copies of spin p/2, total spin
    (3p - 2k)/2, intermediate spin j; f_j is [2j+1] times the two triangle
    coefficients of j.
    """
    f = _qfactorial
    return _fprod(
        [_qint(2 * j + 1), f(j), f(j), f(p - j),
         f(p - k + j), f(k - p + j), f(2 * p - k - j)],
        [f(p + j + 1), f(2 * p - k + j + 1)],
    )


def _alternating_sum(p, k, j, jp):
    """The recoupling sum over s as (common factored part, remaining terms).

    Every term is +-[s+1]! over seven factorials; the per-d minimum of the
    terms' exponents is pulled out, so the remaining polynomial is a plain
    sum of products of cyclotomic polynomials.
    """
    terms = []
    for s in range(3 * p - k + 1):
        args = (s - p - j, s - 2 * p + k - j, s - 2 * p + k - jp, s - p - jp,
                3 * p - k - s, p + j + jp - s, 2 * p - k + j + jp - s)
        if min(args) >= 0:
            sign, u6, exps = _fprod([_qfactorial(s + 1)],
                                    [_qfactorial(a) for a in args])
            terms.append((-sign if s % 2 else sign, u6, exps))
    common = {}
    for d in set().union(*(exps for _, _, exps in terms)):
        common[d] = min(exps.get(d, 0) for _, _, exps in terms)
    total = LaurentQ.zero()
    for sign, u6, exps in terms:
        rest = {d: exps.get(d, 0) - e for d, e in common.items()}
        total = total + _expand(rest, sign, u6)
    return common, total


# The bare sum carries its own row and column signs; U keeps the pinned
# layout of the paper's displayed matrices, U = eps * D_N * sum * D_N with
# D_N = diag(_SUM_DRESS[N]) and eps = (-1)^p, or (-1)^(p+1) for N = 4.
# Any such dressing leaves every trace unchanged.
_SUM_DRESS = {
    2: (1, 1),
    3: (1, -1, -1),
    4: (1, -1, 1, -1),
    5: (1, 1, 1, 1, 1),
}

# the largest mixing matrix either construction builds; every block of
# the ranks young.SUPPORTED_R fits
MAX_SIZE = max(_SUM_DRESS)


@lru_cache(maxsize=None)
def _recoupling(N, p):
    """U(N|p) in factored form: (odd, nums, dens).

    U_ij = nums[i, j] / prod_d Phi_d(q^2)^dens[i, j][d]
           * sqrt(rho_i rho_j),   rho_j = prod_d Phi_d(q^2)^odd[j][d],
    with each ratio in lowest terms.  Row i carries the intermediate spin
    j = p - i of the recoupling sum.
    """
    k = N - 1
    spins = [p - i for i in range(N)]
    f = [_row_radicand(p, k, j) for j in spins]
    # rho_j is the odd part of f_0 f_j, so f_i f_j / (rho_i rho_j) is a
    # square whose root joins the rational part of the entry
    odd = [{d: 1 for d, e in _fprod([f[0], fj])[2].items() if e % 2}
           for fj in f]
    eps = -1 if (p + (N == 4)) % 2 else 1
    dress = _SUM_DRESS[N]
    nums, dens = {}, {}
    for i in range(N):
        for jj in range(N):
            try:
                root = sqrt_of(_fprod([f[i], f[jj]],
                                      [(1, 0, odd[i]), (1, 0, odd[jj])]))
            except NotASquare:
                raise NonOrthogonal(
                    "radicand of entry (%d,%d) is not rho_i rho_j times a "
                    "square" % (i, jj))
            common, total = _alternating_sum(p, k, spins[i], spins[jj])
            sign = eps * dress[i] * dress[jj] * (-1) ** ((k + i) % 2)
            sign, u6, exps = _fprod([(sign, 0, {}), root, (1, 0, common)])
            total, den = divide_out(
                total, {d: -e for d, e in exps.items() if e < 0})
            pos = {d: e for d, e in exps.items() if e > 0}
            nums[i, jj] = total * _expand(pos, sign, u6)
            dens[i, jj] = den
    return odd, nums, dens


@lru_cache(maxsize=None)
def twisted_basis(N, p):
    """The mixing matrix U(N|p) as the certified triple (rho, V, c).

    U = S (V/c) S with S = diag(sqrt(rho_j)); rho_j, the entries of V and c
    are integer Laurent polynomials, rho_0 = 1, every rho_j is squarefree
    and c is the least common denominator of V/c.  Certified by
    :func:`certify_basis` before it is returned.
    """
    if not isinstance(N, int) or not isinstance(p, int):
        raise TypeError("mixing matrices need integer N and p")
    if not 2 <= N <= MAX_SIZE:
        raise UnsupportedMultiplicity("no mixing matrix for size %r" % (N,))
    if p < 1:
        raise ValueError("p must be a positive integer, got %r" % (p,))
    if p < N - 1:
        raise DegenerateP(
            "size %d needs p >= %d (a denominator [k] vanishes at p = %d)"
            % (N, N - 1, p)
        )
    rho, v, c = _triple(*_recoupling(N, p))
    certify_basis(rho, v, c)
    return rho, v, c


def _triple(odd, nums, dens):
    """(rho, V, c) from factored rho_j and entries U_ij / sqrt(rho_i rho_j)
    = nums[i, j] / prod_d Phi_d(q^2)^dens[i, j][d]; c is their least common
    denominator."""
    n = len(odd)
    rho = tuple(_expand(o) for o in odd)
    c_exps = {}
    for den in dens.values():
        for d, e in den.items():
            c_exps[d] = max(c_exps.get(d, 0), e)
    c = _expand(c_exps)
    v = tuple(
        tuple(
            nums[i, j] * _expand(
                {d: e - dens[i, j].get(d, 0) for d, e in c_exps.items()})
            for j in range(n)
        )
        for i in range(n)
    )
    return rho, v, c


def certify_basis(rho, v, c):
    """Certify (rho, V, c) as an orthogonal U = S (V/c) S.

    Checks the sign layout V_ji = (-1)^(i+j) V_ij and diag(rho) V
    diag(rho) V^T = c^2 I, which is V diag(rho) V^T = c^2 diag(1/rho), on
    packed integers; raises NonOrthogonal on the first failure.
    """
    n = len(rho)
    for i in range(n):
        for j in range(i, n):
            if v[j][i] != (v[i][j] if (i + j) % 2 == 0 else -v[i][j]):
                raise NonOrthogonal(
                    "sign layout breaks the alternating transpose rule at "
                    "(%d,%d)" % (i, j)
                )
    bad = _mismatches((rho, v, rho, tuple(zip(*v))), ((c * c,) * n,))
    if bad:
        raise NonOrthogonal(
            "rows %d and %d of V diag(rho) V^T break U U^T = I" % min(bad))


def _mismatches(left, right):
    """The entries (i, j) where the products of two chains of factors differ.

    A factor is an n x n matrix (a sequence of rows) or a diagonal (a
    sequence of n entries), every entry a LaurentQ.  Each distinct factor
    is made once into a qpoly.laurent_matrix, a diagonal as its diagonal
    matrix, and packed at q^step = 2^(8 width), each distinct entry once
    per lowest exponent, step the exponents' common step and width from
    the l1 bound of every entry of both products, so that the evaluation
    is injective on both.  Both chains are multiplied as integer matrices
    and compared entrywise, aligned by their total shifts.
    """
    n = len(left[0])
    mats = {}
    for f in [*left, *right]:
        if id(f) not in mats:
            mats[id(f)] = laurent_matrix(
                [[f[i]._t if i == j else {} for j in range(n)] for i in range(n)]
                if isinstance(f[0], LaurentQ) else [[x._t for x in row] for row in f])
    step = _support_step(*({e for row in m[1] for t in row for e in t}
                           for m in mats.values())) or 1
    chains = [[mats[id(f)] for f in c] for c in (left, right)]
    width = signed_width(max(max(map(max, reduce(int_matmul, [m[2] for m in c])))
                             for c in chains))
    memo = {}
    packed = {key: pack_matrix(m, width, step, memo) for key, m in mats.items()}
    left, right = (reduce(int_matmul, [packed[id(f)] for f in c]) for c in (left, right))
    shift, rest = divmod(sum(m[0] for m in chains[0]) - sum(m[0] for m in chains[1]), step)
    if rest:
        return [(i, j) for i in range(n) for j in range(n) if left[i][j] or right[i][j]]
    bits = 8 * width * abs(shift)
    return [(i, j) for i in range(n) for j in range(n)
            if (left[i][j] << bits if shift > 0 else left[i][j])
            != (right[i][j] << bits if shift < 0 else right[i][j])]


def racah_su2(N, p):
    """The mixing matrix U(N|p) rendered entry by entry, for display.

    U_ij = (V_ij / c) * sqrt(rho_i rho_j) is written as r * sqrt(P): the
    Phi_d that rho_i and rho_j share leave the root, P is the product of
    those in exactly one of them, and r is rendered as a Laurent polynomial
    or as (numerator)/(denominator) in lowest terms.  Read off the factored
    data of :func:`twisted_basis`; the trace engine never builds this view.
    """
    twisted_basis(N, p)  # checks (N, p) and certifies the matrix
    odd, nums, dens = _recoupling(N, p)
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            num, den = nums[i, j], dict(dens[i, j])
            for d in odd[i].keys() & odd[j].keys():
                if den.get(d):
                    den[d] -= 1
                else:
                    num = num * _cyclotomic(d)
            text = num.render()
            den = _expand(den)
            if num and not den.is_one():
                text = "(%s)/(%s)" % (text, den.render())
            radical = odd[i].keys() ^ odd[j].keys()
            if num and radical:
                root = "sqrt(%s)" % _expand(radical).render()
                text = root if text == "1" else "(%s)*%s" % (text, root)
            row.append(text)
        rows.append(tuple(row))
    return tuple(rows)


# --------------------------------------------------------------------------
# eigenvalue-based construction

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
        nums[i, j] = _expand({d: e for d, e in exps.items() if e > 0},
                             sign, u6)
        dens[i, j] = {d: -e for d, e in exps.items() if e < 0}
    for i, (fac, (sign, u6, exps)) in enumerate(diags):
        nums[i, i], dens[i, i] = divide_out(
            fac.shift6(-u6) * sign, _fprod([(1, 0, exps), (1, 0, odd[i])])[2])

    for i in range(n):
        for j in range(i):
            nums[i, j] = nums[j, i] * (-1) ** (i + j)
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


# --------------------------------------------------------------------------
# the triangular pair: sigma_1 and sigma_2 from the eigenvalues alone

def _root(x, n):
    """The real n-th root of the signed q-monomial x, positive for even n."""
    ((e6, c),) = x._t.items()
    if e6 % n or c not in (1, -1) or (c < 0 and n % 2 == 0):
        raise NotIntertwined("%s has no real %d-th root on the lattice" % (x, n))
    return LaurentQ({e6 // n: c})


def _upper_form(xi, root):
    """A and the dressing w of B_ij = A_(d-1-i)(d-1-j) w_j / w_i, sizes 2..5.

    Tuba and Wenzl's normal form, up to a diagonal gauge chosen so that
    every entry is a Laurent polynomial, homogeneous of degree 1 in the
    eigenvalues (x and g of degree 1, s of degree 2), which keeps the
    packed digits narrow.  ``root`` is x with x^2 = -xi_1 xi_2 (size 2),
    s with s^2 = xi_1 xi_2 xi_3 xi_4 (size 4) or g with g^5 = xi_1 ... xi_5
    (size 5); size 3 needs none.  The two choices of s give inequivalent
    representations, those of x equivalent ones.
    """
    n = len(xi)
    one, zero = LaurentQ.one(), LaurentQ.zero()
    a = [[xi[i] if i == j else zero for j in range(n)] for i in range(n)]
    w = [one] * n
    if n == 2:
        a[0][1] = root
    elif n == 3:
        x1, x2, x3 = xi
        a[0][1], a[0][2] = x1, -x2
        a[1][2] = -(x3 + x2 * x2 * x1 ** -1)
    elif n == 4:
        x1, x2, x3, x4 = xi
        s, v = root, x2 * x3
        h = (s * s - s * v + v * v) * (x1 * v) ** -1
        a[0][1], a[0][2], a[0][3] = x1, -x1 * x3 * x2 ** -1, x3
        a[1][2], a[1][3], a[2][3] = (s - v) * x2 ** -1, h, -h
        w = [one, one] + [s * x2 ** -2] * 2
    else:
        x1, x2, x3, x4, x5 = xi
        g = root
        g2 = g * g
        gi = g ** -1
        p, q, r = g2 + x2 * x4, g2 * g + x2 * x3 * x4, g2 + g * x3 + x3 * x3
        a[0][1], a[0][2], a[0][3] = g, x4, -x3 * x4 * gi
        a[0][4] = x2 * x3 * x4 * gi * gi
        a[1][2], a[1][3] = p * gi, -(q + g2 * x3) * gi * gi
        a[1][4] = p * q * (g2 * g * x4) ** -1
        a[2][3], a[2][4] = -r * gi, q * r * (g2 * x3 * x4) ** -1
        a[3][4] = -p * q * (x2 * x3 * x4 * g) ** -1
    return a, w


def triangular_pair(xi):
    """(A, B): sigma_1 and sigma_2 of a block of size 2..5, from xi alone.

    A is upper triangular with diagonal xi, B lower triangular with
    diagonal xi reversed; every entry is a Laurent polynomial in the
    eigenvalues and the positive (size 5: the real) root of _upper_form,
    the one every block of the supported ranks needs.  Uncertified:
    build_block certifies it with certify_pair.
    """
    n = len(xi)
    if not 2 <= n <= MAX_SIZE:
        raise UnsupportedMultiplicity("no triangular pair for size %r" % (n,))
    root = None if n == 3 else _root(
        -(xi[0] * xi[1]) if n == 2 else prod(xi), 5 if n == 5 else 2)
    return _pair(xi, root)


def _pair(xi, root):
    """A = _upper_form(xi, root) and its dressed reversal B."""
    a, w = _upper_form(xi, root)
    n = len(xi)
    b = tuple(tuple(a[n - 1 - i][n - 1 - j] * w[j] * w[i] ** -1
                    for j in range(n)) for i in range(n))
    return tuple(map(tuple, a)), b


def certify_pair(xi, upper, lower, rho, v, c):
    """Certify (A, B) = (upper, lower) as the braiding of the block (rho, V, c).

    The triple is certified first (certify_basis: NonOrthogonal).  Then,
    raising NotIntertwined on the first failure: A is upper and B lower
    triangular with diagonals xi and xi reversed, ABA = BAB, and an exact
    intertwiner P with Sigma_1 P = P A and Sigma_2 P = P B, where Sigma_1 =
    diag(xi) and c^2 Sigma_2 = W = diag(rho) V diag(rho xi) V^T are the
    block's sigma_1 and sigma_2 conjugated by S = diag(sqrt(rho)).
    P = E P~: the upper triangular P~ solves Sigma_1 P~ = P~ A row by row,
    row m scaled by prod_(k>m) (xi_m - xi_k) so that each step divides
    exactly.  The diagonal E sends B's xi_1-eigenvector, the last basis
    vector, to Sigma_2's, diag(rho) V e_1: E_k = rho_k V_k1 / P~_kd, which
    the check W E' P~ = c^2 E' P~ B takes times prod_k P~_kd, free of
    division.
    """
    certify_basis(rho, v, c)
    n = len(xi)
    a, b = upper, lower
    for i in range(n):
        if (a[i][i] != xi[i] or b[i][i] != xi[n - 1 - i]
                or any(a[i][:i]) or any(b[i][i + 1:])):
            raise NotIntertwined("row %d breaks the triangular shape" % i)
    if _mismatches((a, b, a), (b, a, b)):
        raise NotIntertwined("the pair breaks the braid relation ABA = BAB")
    p = []
    for m in range(n):
        row = [LaurentQ.zero()] * n
        row[m] = prod((xi[m] - xi[k] for k in range(m + 1, n)), start=LaurentQ.one())
        if not row[m]:
            raise NotIntertwined("eigenvalue %d is repeated" % m)
        for k in range(m + 1, n):
            try:
                row[k] = laurent_divexact(
                    sum(row[i] * a[i][k] for i in range(m, k)), xi[m] - xi[k])
            except InexactDivision:
                raise NotIntertwined("no intertwiner of sigma_1 at (%d,%d)" % (m, k))
        p.append(row)
    ends = [row[n - 1] for row in p]
    heads = [r * row[0] for r, row in zip(rho, v)]
    if not all(ends) or not all(heads):
        raise NotIntertwined("the intertwiner would be singular")
    # E' = diag(heads) times n - 1 diagonals, each holding one other row's end
    others = [[ends[j] for j in range(n) if j != k] for k in range(n)]
    scale = (heads,) + tuple(zip(*others))
    if _mismatches((rho, v, rho, xi, tuple(zip(*v))) + scale + (p,),
                   ((c * c,) * n,) + scale + (p, b)):
        raise NotIntertwined("the pair is not the block's braiding")


# --------------------------------------------------------------------------
# block assembly

@dataclass(frozen=True)
class MixingBlock:
    """One irreducible block of the 3-strand transfer algebra.

    ``eigenvalues`` are the signed twist monomials xi_j in j-ascending
    order; ``upper`` and ``lower`` are sigma_1 and sigma_2 as the
    certified triangular pair of :func:`triangular_pair` (both (xi,) at
    size 1).  The mixing triple that certified the pair is
    ``twisted_basis(len(eigenvalues), spec.p)``.
    """

    spec: BlockSpec
    eigenvalues: tuple
    upper: tuple
    lower: tuple


@lru_cache(maxsize=None)
def build_block(spec):
    """Twist eigenvalues and certified triangular pair of one
    young.cube_blocks block, built once per block; each pair of size >= 2
    is certified against twisted_basis."""
    size = spec.multiplicity
    if size > MAX_SIZE:
        raise UnsupportedMultiplicity(
            "block %s has multiplicity %d; sizes >= %d are not implemented"
            % (spec.Q, size, MAX_SIZE + 1)
        )
    eigenvalues = tuple(
        LaurentQ.monomial((-1) ** j, pair_exponent(spec.r, j))
        for j in range(spec.j_min, spec.j_max + 1)
    )
    if size == 1:
        return MixingBlock(spec, eigenvalues, (eigenvalues,), (eigenvalues,))
    pair = triangular_pair(eigenvalues)
    certify_pair(eigenvalues, *pair, *twisted_basis(size, spec.p))
    return MixingBlock(spec, eigenvalues, *pair)
