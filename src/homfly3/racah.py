"""Twist eigenvalues, mixing matrices and triangular pairs for 3-strand closures.

Every irreducible block of the 3-strand transfer algebra has signed twist
eigenvalues xi_j = (-1)^j q^{kappa} and an orthogonal change of basis U
between the two fusion channels.  U is handed out as the integer Laurent
triple (rho, V, c) with U = S (V/c) S and S = diag(sqrt(rho_j)); it
certifies the pair that the trace of :mod:`homfly3.braid` reads (below).
``twisted_basis`` produces it from the recoupling sum for three equal
spins (the q-6j formula of Kirillov and Reshetikhin), in the factored
quantum numbers of :mod:`homfly3.radext`; ``build_block`` certifies each
pair against it.  :mod:`homfly3.racah_eigen` cross-checks it from the
eigenvalues alone.

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
a pair against the recoupling triple: ABA = BAB exactly, and an exact
intertwiner with (diag(xi), S U diag(xi) U^T S^-1), so a wrong root or a
wrong entry fails loudly.  ``build_block`` runs these checks of the pair
alone, as twisted_basis has certified the triple once, and caches the
certified block: its eigenvalues and its pair, nothing of the triple.

A block's mixing matrix is fixed by its eigenvalues, literally so here:
divided by its first eigenvalue mu, a signed monomial, a block's pair is
its eigenvalue class's pair (p, xi/mu, A/mu, B/mu), and the checks are
homogeneous in it.  ABA = BAB is homogeneous of degree 3 in the pair, and
both Sigma_1 = diag(xi) and Sigma_2 = diag(rho) V diag(rho xi) V^T / c^2
are linear in xi, so one intertwiner serves every member of a class.
``build_block`` therefore certifies each class once, keyed by exact
equality of the normalized pairs, never by the eigenvalue pattern alone:
the 23 blocks of size >= 2 at r <= 4 fall into 13 classes, against 10
triples.  At size 2 a negative mu flips the positive root of the pair,
so those blocks form classes of their own.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod
from typing import NamedTuple

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
    _expand,
    _fprod,
    _qfactorial,
    _qint,
    divide_out,
    sqrt_of,
)
from .young import BlockSpec, pair_exponent

__all__ = [
    "MAX_SIZE",
    "DegenerateP",
    "NonOrthogonal",
    "NotIntertwined",
    "UnsupportedMultiplicity",
    "MixingBlock",
    "twisted_basis",
    "certify_basis",
    "triangular_pair",
    "certify_pair",
    "racah_su2",
    "build_block",
]


class DegenerateP(ValueError):
    """A denominator quantum integer [k] vanishes for this (N, p)."""


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

    U_ij = num_ij / prod_d Phi_d(q^2)^dens[i, j][d]
           * sqrt(rho_i rho_j),   rho_j = prod_d Phi_d(q^2)^odd[j][d],
    with each ratio in lowest terms; nums[i, j] = (poly, factored) holds
    num_ij as a LaurentQ times a factored value, which radext._expand
    multiplies out.  Row i carries the intermediate spin j = p - i of the
    recoupling sum.
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
            nums[i, jj] = total, (sign, u6, {d: e for d, e in exps.items() if e > 0})
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
    = num_ij / prod_d Phi_d(q^2)^dens[i, j][d], nums[i, j] = (poly,
    factored) as _recoupling writes them; c is their least common
    denominator, and each V_ij one radext._expand."""
    n = len(odd)
    rho = tuple(_expand(o) for o in odd)
    c_exps = {}
    for den in dens.values():
        for d, e in den.items():
            c_exps[d] = max(c_exps.get(d, 0), e)
    c = _expand(c_exps)
    v = tuple(tuple(_entry(nums[i, j], {d: e - dens[i, j].get(d, 0) for d, e in c_exps.items()})
                    for j in range(n)) for i in range(n))
    return rho, v, c


def _entry(num, extra):
    """poly * factored * prod_d Phi_d(q^2)^extra[d] of num = (poly,
    factored): one radext._expand."""
    poly, (sign, u6, exps) = num
    exps = dict(exps)
    for d, e in extra.items():
        exps[d] = exps.get(d, 0) + e
    return _expand(exps, sign, u6, poly)


def certify_basis(rho, v, c):
    """Certify (rho, V, c) as an orthogonal U = S (V/c) S.

    Checks the sign layout V_ji = (-1)^(i+j) V_ij and diag(rho) V
    diag(rho) V^T = c^2 I, which is V diag(rho) V^T = c^2 diag(1/rho), on
    packed integers, c^2 I as the chain (c I)(c I); raises NonOrthogonal on
    the first failure.
    """
    n = len(rho)
    for i in range(n):
        for j in range(i, n):
            if v[j][i] != (v[i][j] if (i + j) % 2 == 0 else -v[i][j]):
                raise NonOrthogonal(
                    "sign layout breaks the alternating transpose rule at "
                    "(%d,%d)" % (i, j)
                )
    cs = (c,) * n
    bad = _mismatches((rho, v, rho, tuple(zip(*v))), (cs, cs))
    if bad:
        raise NonOrthogonal(
            "rows %d and %d of V diag(rho) V^T break U U^T = I" % min(bad))


def _mismatches(left, right):
    """The entries (i, j) where the products of two chains of factors differ.

    A factor is an n x n matrix (a sequence of rows) or a diagonal (a
    sequence of n entries), every entry a LaurentQ; a diagonal is taken as
    its n x n matrix.  Each distinct factor is made once into a
    qpoly.laurent_matrix and packed at q^step = 2^(8 width), each distinct
    entry once per lowest exponent, step the exponents' common step and
    width from the l1 bound of every entry of both products, so that the
    evaluation is injective on both.  Both chains are multiplied as integer
    matrices (int_matmul) and compared entrywise, aligned by their total
    shifts.
    """
    n = len(left[0])
    mats = {}
    for f in [*left, *right]:
        if id(f) not in mats:
            rows = ([[x._t if i == j else {} for j in range(n)] for i, x in enumerate(f)]
                    if isinstance(f[0], LaurentQ) else [[x._t for x in row] for row in f])
            mats[id(f)] = laurent_matrix(rows)
    step = _support_step(*({e for row in m[1] for t in row for e in t}
                           for m in mats.values())) or 1
    chains = [[mats[id(f)] for f in c] for c in (left, right)]
    norms = [reduce(int_matmul, [m[2] for m in c]) for c in chains]
    width = signed_width(max(max(map(max, m)) for m in norms))
    memo = {}
    left, right = (reduce(int_matmul, [pack_matrix(m, width, step, memo) for m in c])
                   for c in chains)
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
            den, shared = dict(dens[i, j]), {}
            for d in odd[i].keys() & odd[j].keys():
                if den.get(d):
                    den[d] -= 1
                else:
                    shared[d] = 1
            num = _entry(nums[i, j], shared)
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
    build_block certifies it as certify_pair does.
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
    division, as the one diagonal E'_k = rho_k V_k1 prod_(j!=k) P~_jd.
    """
    certify_basis(rho, v, c)
    _certify_braiding(xi, upper, lower, rho, v, c)


def _certify_braiding(xi, upper, lower, rho, v, c):
    """certify_pair past certify_basis, for a triple already certified
    (twisted_basis certifies each one it returns)."""
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
    # E'_k = heads_k times every other row's end
    scale = tuple(h * prod((e for j, e in enumerate(ends) if j != k), start=LaurentQ.one())
                  for k, h in enumerate(heads))
    cs = (c,) * n
    if _mismatches((rho, v, rho, xi, tuple(zip(*v)), scale, p), (cs, cs, scale, p, b)):
        raise NotIntertwined("the pair is not the block's braiding")


# --------------------------------------------------------------------------
# block assembly

class MixingBlock(NamedTuple):
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
    young.cube_blocks block, built once per block.

    A pair of size >= 2 is certified once per eigenvalue class: divided by
    its first eigenvalue mu = xi_1, a signed monomial, it is certified as
    (p, xi/mu, A/mu, B/mu) by _certify_class, against twisted_basis(size,
    p) as certify_pair does, less the check of the triple that
    twisted_basis has made.  That certifies the block's own pair (A, B),
    which it keeps: ABA = BAB is homogeneous in the pair, and Sigma_1 =
    diag(xi) and Sigma_2 = diag(rho) V diag(rho xi) V^T / c^2 are linear
    in xi, so the class's intertwiner P gives Sigma_1 P = P A and Sigma_2
    P = P B.  The 23 blocks of size >= 2 at r <= 4 fall into 13 classes,
    decided by exact equality of the normalized pairs; at size 2 a
    negative mu flips the positive root x, so those blocks form classes of
    their own.
    """
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
    upper, lower = triangular_pair(eigenvalues)
    unit = eigenvalues[0] ** -1
    _certify_class(spec.p, tuple(x * unit for x in eigenvalues),
                   *(tuple(tuple(x * unit for x in row) for row in m) for m in (upper, lower)))
    return MixingBlock(spec, eigenvalues, upper, lower)


# bounded: one entry per eigenvalue class, 13 at r <= 4
@lru_cache(maxsize=None)
def _certify_class(p, xi, upper, lower):
    """_certify_braiding of the normalized pair (upper, lower), eigenvalues
    xi, against twisted_basis(len(xi), p): once per eigenvalue class."""
    _certify_braiding(xi, upper, lower, *twisted_basis(len(xi), p))
