"""Mixing matrices: the recoupling sum, its certificates, the eigenvalue
reconstruction."""

import hashlib
import json
from dataclasses import replace

import pytest

from homfly3.braid import Braid3Word, _block_trace, character_coefficients
from homfly3.qpoly import LaurentQ, RationalQ, quantum_int
from homfly3.racah import (
    DegenerateP,
    MixingBlock,
    NonOrthogonal,
    RepeatedEigenvalue,
    UnsupportedMultiplicity,
    _certify_basis,
    build_block,
    certify_orthogonal,
    mat_mul,
    mat_transpose,
    normalized_eigenvalues,
    racah_from_eigenvalues,
    racah_su2,
    twisted_basis,
)
from homfly3.radext import RadicalScalar, sqrt_of
from homfly3.young import cube_blocks

# sha256 of the triples (rho, V, c) of U(N|p) for N = 2..5, p = N-1..6, as
# the earlier construction from transcribed closed forms produced them
TWISTED_BASIS_SHA256 = (
    "3ea65961d43591978b555409ca7f5057c014e30ecc13e9ae2bbdafc97bdedb2d"
)

FAST_GRID = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]


def as_radical(lq):
    return RadicalScalar.rational(RationalQ(lq, LaurentQ.one()))


def qint_ratio(num, den):
    """prod [k] over num divided by prod [k] over den, as a RationalQ."""
    acc = RationalQ.one()
    for k in num:
        acc = acc * quantum_int(k)
    for k in den:
        acc = acc / quantum_int(k)
    return acc


# ---------------------------------------------------------------------------
# certification and error modes

@pytest.mark.parametrize("N,p", FAST_GRID)
def test_closed_forms_certified(N, p):
    u = racah_su2(N, p)
    certify_orthogonal(u)
    # sigma U sigma = U^T with sigma = diag(+1, -1, +1, ...)
    for i in range(N):
        for j in range(N):
            want = u[i][j] if (i + j) % 2 == 0 else -u[i][j]
            assert u[j][i] == want


def test_degenerate_p_raises():
    with pytest.raises(DegenerateP):
        racah_su2(3, 1)
    with pytest.raises(DegenerateP):
        racah_su2(5, 3)


def test_bad_sizes_raise():
    with pytest.raises(UnsupportedMultiplicity):
        racah_su2(6, 6)
    with pytest.raises(UnsupportedMultiplicity):
        racah_su2(1, 1)
    with pytest.raises(ValueError):
        racah_su2(2, 0)


def test_twisted_basis_refuses_like_racah_su2():
    with pytest.raises(DegenerateP):
        twisted_basis(4, 2)
    with pytest.raises(UnsupportedMultiplicity):
        twisted_basis(6, 6)


@pytest.mark.parametrize("N,p", FAST_GRID)
def test_twisted_basis_is_the_radical_view(N, p):
    # U_ij = (V_ij / c) sqrt(rho_i rho_j), with rho_0 = 1
    rho, v, c = twisted_basis(N, p)
    u = racah_su2(N, p)
    assert rho[0] == LaurentQ.one()
    for i in range(N):
        for j in range(N):
            want = RadicalScalar.rational(RationalQ(v[i][j], c))
            assert u[i][j] == want * sqrt_of(rho[i] * rho[j]), (i, j)


@pytest.mark.parametrize("N,p", FAST_GRID)
def test_closed_forms_match_recoupling_sum(N, p):
    # the corner entries of U(N|p) have closed product forms in [k], written
    # here without the factored arithmetic that evaluates the sum
    n = N - 1
    u = racah_su2(N, p)
    top = [p - k for k in range(n)]
    corner = -1 if N == 4 else 1
    assert u[0][0] == corner * RadicalScalar.rational(
        qint_ratio(top, [2 * p - k for k in range(n)]))
    assert u[n][n] == corner * RadicalScalar.rational(
        qint_ratio(top, [2 * p - k for k in range(n - 1, 2 * n - 1)]))
    radicand = qint_ratio(
        top + [3 * p - k for k in range(n - 1, 2 * n - 1)],
        [2 * p - k for k in range(2 * n - 1) if k != n - 1])
    off = RadicalScalar.rational(qint_ratio([], [2 * p - n + 1]))
    assert u[0][n] == (-1 if N == 3 else 1) * off * sqrt_of(radicand)


def test_twisted_basis_is_pinned():
    # also pins c as the least common denominator: a triple scaled by a
    # common factor passes the certificate but changes the digest
    def terms(x):
        return sorted((e, str(c)) for e, c in x.terms.items())

    triples = {}
    for N in (2, 3, 4, 5):
        for p in range(N - 1, 7):
            rho, v, c = twisted_basis(N, p)
            triples["%d,%d" % (N, p)] = [
                [terms(x) for x in rho],
                [[terms(x) for x in row] for row in v],
                terms(c),
            ]
    blob = json.dumps(triples, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TWISTED_BASIS_SHA256


def test_basis_certificate_rejects_broken_triples():
    rho, v, c = twisted_basis(3, 2)
    _certify_basis(rho, v, c)
    rows = [list(row) for row in v]
    rows[1][2] = -rows[1][2]
    rows[2][1] = -rows[2][1]  # keeps the sign layout, breaks orthogonality
    with pytest.raises(NonOrthogonal):
        _certify_basis(rho, tuple(map(tuple, rows)), c)
    rows = [list(row) for row in v]
    rows[0][1] = -rows[0][1]  # breaks the sign layout
    with pytest.raises(NonOrthogonal):
        _certify_basis(rho, tuple(map(tuple, rows)), c)
    with pytest.raises(NonOrthogonal):
        _certify_basis(rho, v, c * 2)


# ---------------------------------------------------------------------------
# eigenvalue-based reconstruction vs the recoupling sum

@pytest.mark.parametrize("N,p", [(2, 1), (2, 3), (3, 2), (3, 4)])
def test_eigenvalue_reconstruction_entrywise(N, p):
    u = racah_su2(N, p)
    v = racah_from_eigenvalues(normalized_eigenvalues(N, p), N)
    assert u == v


@pytest.mark.parametrize("N,p", [(4, 3), (5, 4)])
def test_eigenvalue_reconstruction_squared(N, p):
    # sizes 4 and 5 agree entrywise too, which implies agreement of the
    # diagonals and of the squared off-diagonals this test is named after
    u = racah_su2(N, p)
    v = racah_from_eigenvalues(normalized_eigenvalues(N, p), N)
    assert u == v


def test_normalized_eigenvalues_product_is_sign():
    one = LaurentQ.one()
    for N in (2, 3, 4, 5):
        for p in range(N - 1, 6):
            prod = LaurentQ.one()
            for x in normalized_eigenvalues(N, p):
                prod = prod * x
            assert prod == one or prod == -one, (N, p)


def test_repeated_eigenvalue_rejected():
    q = LaurentQ.monomial(1, 1)
    with pytest.raises(RepeatedEigenvalue):
        racah_from_eigenvalues([q, q], 2)


# ---------------------------------------------------------------------------
# block assembly

def test_build_block_r1():
    specs = {spec.Q: spec for spec in cube_blocks(1)}
    blocks = {Q: build_block(spec) for Q, spec in specs.items()}
    sizes = {Q.rows: b.size for Q, b in blocks.items()}
    assert sizes == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    b = blocks[[Q for Q in blocks if Q.rows == (2, 1)][0]]
    assert b.eigenvalues == (LaurentQ.monomial(1, 1), LaurentQ.monomial(-1, -1))
    assert isinstance(b, MixingBlock)
    assert b.R[0][1] == LaurentQ.zero()


def test_braid_relation_cube_root_block():
    # In the 2-dimensional r=1 block, M = R U R U^T satisfies M^2 + M + 1 = 0:
    # the two twist eigenvalues q and -1/q multiply to -1, so M has unit
    # determinant and trace -1.
    (spec,) = [s for s in cube_blocks(1) if s.multiplicity == 2]
    block = build_block(spec)
    u = racah_su2(2, spec.p)
    r_mat = tuple(tuple(as_radical(e) for e in row) for row in block.R)
    m = mat_mul(mat_mul(mat_mul(r_mat, u), r_mat), mat_transpose(u))
    m2 = mat_mul(m, m)
    one = RadicalScalar.one()
    zero = RadicalScalar.zero()
    for i in range(2):
        for j in range(2):
            ident = one if i == j else zero
            assert m2[i][j] + m[i][j] + ident == zero


def test_character_coefficients_invariant_under_dressing():
    # a diagonal +-1 dressing D V D of a block's mixing matrix leaves its
    # trace unchanged, so the signs pinned in racah are cosmetic
    word = Braid3Word.parse("-1,-1|-1,-1")
    base = character_coefficients(word, 2).coefficients
    for spec in cube_blocks(2):
        block = build_block(spec)
        signs = [-1 if k == 1 else 1 for k in range(block.size)]
        dressed = tuple(
            tuple(x if signs[i] == signs[j] else -x for j, x in enumerate(row))
            for i, row in enumerate(block.V)
        )
        assert _block_trace(replace(block, V=dressed), word) == base[spec.Q]
