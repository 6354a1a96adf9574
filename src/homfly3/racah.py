"""Diagonal twist blocks and orthogonal mixing matrices for 3-strand closures.

Every irreducible block of the 3-strand transfer algebra is described by a
pair (R, U): R is diagonal and holds the signed twist eigenvalues
xi_j = (-1)^j q^{kappa}, and U is the orthogonal change of basis between the
two fusion channels.  U is built one way, by the recoupling sum for three
equal spins (the q-6j formula of Kirillov and Reshetikhin), evaluated in
factored quantum integers, and is handed out in two shapes:

- ``twisted_basis``: the integer Laurent triple (rho, V, c) with
  U = S (V/c) S and S = diag(sqrt(rho_j)), which the trace engine of
  :mod:`homfly3.braid` consumes;
- ``racah_su2``: the same matrix entry by entry over the radical-extension
  scalars of :mod:`homfly3.radext`, U_ij = (V_ij/c) sqrt(rho_i rho_j).

``racah_from_eigenvalues`` rebuilds U independently, from nothing but the
normalized eigenvalue list, with off-diagonal magnitudes given by rational
expressions in the eigenvalues and signs pinned by exact orthogonality.

Every construction is certified at build time: U * U^T must equal the
identity exactly, and the sign layout must satisfy sigma U sigma = U^T with
sigma = diag(+1, -1, +1, ...).  Construction fails loudly rather than
returning an uncertified matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iterproduct

from .qpoly import (
    EXP_DEN,
    InexactDivision,
    LaurentQ,
    RationalQ,
    laurent_divexact,
)
from .radext import Radicand, RadicalScalar, sqrt_of
from .young import BlockSpec, pair_exponent

__all__ = [
    "DegenerateP",
    "RepeatedEigenvalue",
    "NonOrthogonal",
    "UnsupportedMultiplicity",
    "MixingBlock",
    "twisted_basis",
    "trace_products",
    "racah_su2",
    "racah_from_eigenvalues",
    "build_block",
    "normalized_eigenvalues",
    "mat_mul",
    "mat_transpose",
    "certify_orthogonal",
]


class DegenerateP(ValueError):
    """A denominator quantum integer [k] vanishes for this (N, p)."""


class RepeatedEigenvalue(ValueError):
    """Eigenvalue-based construction needs pairwise distinct eigenvalues."""


class NonOrthogonal(ArithmeticError):
    """Certification failed: no exact orthogonal sign assignment exists."""


class UnsupportedMultiplicity(ValueError):
    """Mixing matrices of size >= 6 are not implemented."""


# --------------------------------------------------------------------------
# small matrix helpers (tuples of tuples of RadicalScalar)

def mat_transpose(m):
    return tuple(tuple(row[i] for row in m) for i in range(len(m[0])))


def mat_mul(a, b):
    bt = mat_transpose(b)
    return tuple(
        tuple(_dot(row, col) for col in bt)
        for row in a
    )


def _dot(u, v):
    acc = RadicalScalar.zero()
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def certify_orthogonal(u):
    """Raise NonOrthogonal unless u * u^T is exactly the identity."""
    n = len(u)
    one = RadicalScalar.one()
    for i in range(n):
        for j in range(i, n):
            d = _dot(u[i], u[j])
            want = one if i == j else RadicalScalar.zero()
            if d != want:
                raise NonOrthogonal(
                    "row products (%d,%d) = %s, expected %s" % (i, j, d, want)
                )


def _certify_sigma(u):
    n = len(u)
    for i in range(n):
        for j in range(n):
            lhs = u[j][i]
            rhs = u[i][j] if (i + j) % 2 == 0 else -u[i][j]
            if lhs != rhs:
                raise NonOrthogonal(
                    "sign layout breaks the alternating transpose rule at "
                    "(%d,%d)" % (i, j)
                )


def _apply_diag_flips(u, signs):
    n = len(u)
    return tuple(
        tuple(
            u[i][j] if signs[i] * signs[j] > 0 else -u[i][j]
            for j in range(n)
        )
        for i in range(n)
    )


# --------------------------------------------------------------------------
# factored quantum numbers
#
# A factored value (sign, u6, exps) stands for
#     sign * q^(u6/6) * prod_d Phi_d(q^2)^exps[d],
# Phi_d the d-th cyclotomic polynomial.  Since
#     [k] = q^-(k-1) * prod_{d | k, d > 1} Phi_d(q^2),
# products, quotients and square roots of quantum integers are exponent
# arithmetic, and only sums need polynomials, which are divided back by
# the Phi_d they share with the denominators.

@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d(q^2): x^d - 1 divided by Phi_k(x) for every k | d, k < d."""
    phi = LaurentQ({2 * EXP_DEN * d: 1, 0: -1})
    for k in range(1, d):
        if d % k == 0:
            phi = laurent_divexact(phi, _cyclotomic(k))
    return phi


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
            _, u6, exps = _fprod([f[i], f[jj]],
                                 [(1, 0, odd[i]), (1, 0, odd[jj])])
            if u6 % 2 or any(e % 2 for e in exps.values()):
                raise NonOrthogonal(
                    "radicand of entry (%d,%d) is not rho_i rho_j times a "
                    "square" % (i, jj))
            common, total = _alternating_sum(p, k, spins[i], spins[jj])
            sign = eps * dress[i] * dress[jj] * (-1) ** ((k + i) % 2)
            sign, u6, exps = _fprod(
                [(sign, u6 // 2, {d: e // 2 for d, e in exps.items()}),
                 (1, 0, common)])
            den = {d: -e for d, e in exps.items() if e < 0} if total else {}
            for d in den:
                while den[d]:
                    try:
                        total = laurent_divexact(total, _cyclotomic(d))
                    except InexactDivision:
                        break
                    den[d] -= 1
            pos = {d: e for d, e in exps.items() if e > 0}
            nums[i, jj] = total * _expand(pos, sign, u6)
            dens[i, jj] = {d: e for d, e in den.items() if e}
    return odd, nums, dens


@lru_cache(maxsize=None)
def twisted_basis(N, p):
    """The mixing matrix U(N|p) as the certified triple (rho, V, c).

    U = S (V/c) S with S = diag(sqrt(rho_j)); rho_j, the entries of V and c
    are integer Laurent polynomials, rho_0 = 1, every rho_j is squarefree
    and c is the least common denominator of V/c.  Certified before it is
    returned: V diag(rho) V^T = c^2 diag(1/rho), which is U U^T = I
    conjugated by S, and V_ji = (-1)^(i+j) V_ij.
    """
    if not isinstance(N, int) or not isinstance(p, int):
        raise TypeError("mixing matrices need integer N and p")
    if not 2 <= N <= 5:
        raise UnsupportedMultiplicity("no mixing matrix for size %r" % (N,))
    if p < 1:
        raise ValueError("p must be a positive integer, got %r" % (p,))
    if p < N - 1:
        raise DegenerateP(
            "size %d needs p >= %d (a denominator [k] vanishes at p = %d)"
            % (N, N - 1, p)
        )
    odd, nums, dens = _recoupling(N, p)
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
            for j in range(N)
        )
        for i in range(N)
    )
    _certify_basis(rho, v, c)
    return rho, v, c


def _certify_basis(rho, v, c):
    _certify_sigma(v)
    n = len(rho)
    c2 = c * c
    for i in range(n):
        for j in range(i, n):
            acc = LaurentQ.zero()
            for t in range(n):
                acc = acc + v[i][t] * rho[t] * v[j][t]
            if acc * rho[i] != (c2 if i == j else LaurentQ.zero()):
                raise NonOrthogonal(
                    "rows %d and %d of V diag(rho) V^T break U U^T = I"
                    % (i, j)
                )


@lru_cache(maxsize=None)
def trace_products(rho, v):
    """T[i][j][t] = rho_i rho_t V_it V_jt for a triple of twisted_basis.

    Entry (i, j) of D_a V D_b V^T is sum_t xi_i^a xi_t^b T[i][j][t], with
    D_x = diag(rho_j xi_j^x): the trace engine builds its block factors
    from these by shifts alone.  rho_t V_it V_jt is symmetric in (i, j), so
    it is formed for i <= j only.  Each T[i][j][t] is stored compactly as a
    pair of tuples (q-exponents in sixths, coefficients), every exponent
    and coefficient one shared int object.  Cached per triple, so once per
    (N, p).
    """
    n = len(rho)
    ints = {}
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            half = [rho[t] * v[i][t] * v[j][t] for t in range(n)]
            for a, b in ((i, j), (j, i)):
                terms = [(rho[a] * h)._t for h in half]
                out[a][b] = tuple(
                    (tuple(ints.setdefault(e, e) for e in t),
                     tuple(ints.setdefault(c, c) for c in t.values()))
                    for t in terms)
    return tuple(map(tuple, out))


def racah_su2(N, p):
    """The mixing matrix U(N|p) entry by entry over radical scalars.

    U_ij = (V_ij / c) * sqrt(rho_i rho_j), read off the certified triple of
    :func:`twisted_basis` in factored form; the trace engine never builds
    this view.
    """
    twisted_basis(N, p)  # checks (N, p) and certifies the matrix
    odd, nums, dens = _recoupling(N, p)
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            # sqrt(rho_i rho_j) = prod_{both} Phi_d * sqrt(prod_{one} Phi_d)
            den = dict(dens[i, j])
            extra = set()
            for d in odd[i].keys() & odd[j].keys():
                if den.get(d):
                    den[d] -= 1
                else:
                    extra.add(d)
            coeff = RationalQ(nums[i, j] * _expand(extra), _expand(den))
            radical = odd[i].keys() ^ odd[j].keys()
            key = Radicand(_expand(radical)) if radical else None
            row.append(RadicalScalar({key: coeff}))
        rows.append(tuple(row))
    return tuple(rows)


# --------------------------------------------------------------------------
# eigenvalue-based construction

# Pinned dressing per size, chosen so that the eigenvalue-based matrix
# coincides entrywise with racah_su2 on the matching eigenvalue set.
_EV_DRESS = {
    2: (1, 1),
    3: (1, -1, -1),
    4: (1, 1, -1, 1),
    5: (1, 1, 1, 1, 1),
}

_SAMPLE_T = Fraction(6, 5)  # sample value of t = q^(1/6), generic q > 1


def _value_at_sample(f):
    acc = Fraction(0)
    for e6, c in f.terms.items():
        acc += Fraction(c) * _SAMPLE_T ** e6
    return acc


def _sign_at_sample(r):
    num = _value_at_sample(r.num)
    den = _value_at_sample(r.den)
    if num == 0:
        return 0
    return 1 if (num > 0) == (den > 0) else -1


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


def _ev_offdiag_square(xs, i, j):
    """Squared off-diagonal entry as a ratio of eigenvalue polynomials."""
    n = len(xs)
    xi, xj = xs[i], xs[j]
    one = LaurentQ.one()
    if n == 2:
        num = xi ** 2 + one + xj ** 2
    elif n == 3:
        num = -(xi ** 3 - one) * (xj ** 3 - one) * (xi * xj).inverse_monomial()
    elif n == 4:
        num = -(xi ** 2 - one) * (xj ** 2 - one)
        for k in range(n):
            if k != i and k != j:
                m = xi * xs[k]
                num = num * (m - one + m.inverse_monomial())
    else:
        num = -(xi * xj)
        num = num * (xi + one + xi.inverse_monomial())
        num = num * (xj + one + xj.inverse_monomial())
        for k in range(n):
            if k != i and k != j:
                num = num * (xi * xs[k] + one) * (xj * xs[k] + one)
    den = (xs[i] - xs[j]) ** 2
    for k in range(n):
        if k != i and k != j:
            den = den * (xs[i] - xs[k]) * (xs[j] - xs[k])
    return RationalQ(num, den)


def _ev_diag(xs, i):
    """Signed diagonal entry restored from orthogonality."""
    n = len(xs)
    xi = xs[i]
    others = [xs[k] for k in range(n) if k != i]
    one = LaurentQ.one()
    if n == 2:
        fac = one
    elif n == 3:
        s = LaurentQ.zero()
        for x in others:
            s = s + x
        fac = -(xi * s)
    elif n == 4:
        e1 = LaurentQ.zero()
        e2 = LaurentQ.zero()
        for a in range(3):
            e1 = e1 + others[a]
            for b in range(a + 1, 3):
                e2 = e2 + others[a] * others[b]
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
    den = one
    for k in range(n):
        if k != i:
            den = den * (xs[i] - xs[k])
    return RationalQ(fac, den)


def racah_from_eigenvalues(xi, N=None):
    """Reconstruct the mixing matrix from its normalized twist eigenvalues.

    ``xi`` must be pairwise-distinct signed q-monomials (coefficients +-1)
    on the 1/6 exponent lattice, already scaled so that no residual root of
    unity appears.  Off-diagonal magnitudes come from closed rational
    expressions in the eigenvalues; interior signs are found by demanding
    exact orthogonality, with the first row taken positive and the rest of
    the layout forced by the alternating transpose rule.  The diagonal
    dressing is pinned per size so the result coincides entrywise with
    racah_su2 on matching eigenvalue sets.
    """
    xs = [x if isinstance(x, LaurentQ) else LaurentQ.const(x) for x in xi]
    n = len(xs) if N is None else N
    if n != len(xs):
        raise ValueError("got %d eigenvalues for size %d" % (len(xs), n))
    if n not in _EV_DRESS:
        raise UnsupportedMultiplicity("no eigenvalue formulas for size %r" % (n,))
    for x in xs:
        if not x.is_monomial():
            raise ValueError("eigenvalues must be signed q-monomials: %s" % x)
        ((_, c),) = x.terms.items()
        if c not in (1, -1):
            raise ValueError("eigenvalue coefficient must be +-1: %s" % x)
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j]:
                raise RepeatedEigenvalue(
                    "eigenvalues %d and %d coincide: %s" % (i, j, xs[i])
                )

    # magnitudes and fixed diagonal
    squares = {}
    mags = {}
    for i in range(n):
        for j in range(i + 1, n):
            sq = _ev_offdiag_square(xs, i, j)
            if _sign_at_sample(sq) < 0:
                raise NonOrthogonal(
                    "squared entry (%d,%d) is negative-valued; eigenvalue "
                    "set is outside the formulas' validity" % (i, j)
                )
            squares[(i, j)] = sq
            root = sqrt_of(sq)
            coeff_sign = _rs_sign_at_sample(root)
            if coeff_sign < 0:
                root = -root
            mags[(i, j)] = root
    diag = [RadicalScalar.rational(_ev_diag(xs, i)) for i in range(n)]

    # row norms are sign-independent; certify them before searching signs
    for i in range(n):
        acc = _ev_diag(xs, i) ** 2
        for k in range(n):
            if k == i:
                continue
            acc = acc + squares[(min(i, k), max(i, k))]
        if not (acc - RationalQ.one()).is_zero():
            raise NonOrthogonal(
                "row %d has norm %s, expected 1; eigenvalue set is outside "
                "the formulas' validity" % (i, acc)
            )

    interior = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    solutions = []
    for choice in _iterproduct((1, -1), repeat=len(interior)):
        cand = _assemble(n, mags, diag, dict(zip(interior, choice)))
        try:
            certify_orthogonal(cand)
        except NonOrthogonal:
            continue
        solutions.append(cand)
    if not solutions:
        raise NonOrthogonal(
            "no sign assignment makes the matrix orthogonal; eigenvalue "
            "set is outside the formulas' validity"
        )
    distinct = [s for k, s in enumerate(solutions) if s not in solutions[:k]]
    if len(distinct) > 1:
        raise NonOrthogonal("sign assignment is ambiguous for this input")
    u = distinct[0]
    _certify_sigma(u)
    return _apply_diag_flips(u, _EV_DRESS[n])


def _rs_sign_at_sample(scalar):
    parts = scalar.parts
    if len(parts) != 1:
        raise NonOrthogonal("magnitude is not a single radical term")
    ((_, coeff),) = parts.items()
    return _sign_at_sample(coeff)


def _assemble(n, mags, diag, interior_signs):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(diag[i])
                continue
            a, b = (i, j) if i < j else (j, i)
            e = mags[(a, b)]
            if a > 0 and interior_signs[(a, b)] < 0:
                e = -e
            if i > j and (i + j) % 2:
                e = -e
            row.append(e)
        rows.append(tuple(row))
    return tuple(rows)


# --------------------------------------------------------------------------
# block assembly

@dataclass(frozen=True)
class MixingBlock:
    """One irreducible block of the 3-strand transfer algebra.

    ``eigenvalues`` are the signed twist monomials xi_j in j-ascending
    order; ``R`` is the same data viewed as the diagonal of the twist
    matrix.  ``rho``, ``V`` and ``c`` are the certified mixing matrix U as
    the triple of :func:`twisted_basis`, U = S (V/c) S.
    """

    spec: BlockSpec
    eigenvalues: tuple
    rho: tuple
    V: tuple
    c: LaurentQ

    @property
    def R(self):
        zero = LaurentQ.zero()
        n = len(self.eigenvalues)
        return tuple(
            tuple(self.eigenvalues[i] if i == j else zero for j in range(n))
            for i in range(n)
        )

    @property
    def size(self):
        return len(self.eigenvalues)


def build_block(spec):
    """Twist eigenvalues and mixing triple of one young.cube_blocks block."""
    size = spec.multiplicity
    if size >= 6:
        raise UnsupportedMultiplicity(
            "block %s has multiplicity %d; sizes >= 6 are not implemented"
            % (spec.Q, size)
        )
    eigenvalues = tuple(
        LaurentQ.monomial((-1) ** j, pair_exponent(spec.r, j))
        for j in range(spec.j_min, spec.j_max + 1)
    )
    if size == 1:
        one = LaurentQ.one()
        basis = ((one,), ((one,),), one)
    else:
        basis = twisted_basis(size, spec.p)
    return MixingBlock(spec, eigenvalues, *basis)
