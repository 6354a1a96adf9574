"""Mixing matrices: the recoupling sum, its certificates, the eigenvalue
reconstruction, the factored quantum numbers both are built from, and the
triangular pairs they certify."""

import hashlib
import json
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homfly3 import racah, young
from homfly3.qpoly import LaurentQ, quantum_int
from homfly3.racah import (
    DegenerateP,
    MixingBlock,
    NonOrthogonal,
    NotIntertwined,
    RepeatedEigenvalue,
    UnsupportedMultiplicity,
    build_block,
    certify_basis,
    certify_pair,
    normalized_eigenvalues,
    racah_from_eigenvalues,
    racah_su2,
    triangular_pair,
    twisted_basis,
)
from homfly3.radext import (
    NotASquare,
    NotCyclotomic,
    _expand,
    _fprod,
    _qint,
    binomial,
    divide_out,
    sqrt_of,
)
from homfly3.young import cube_blocks

# sha256 of the triples (rho, V, c) of U(N|p) for N = 2..5, p = N-1..6, as
# the earlier construction from transcribed closed forms produced them
TWISTED_BASIS_SHA256 = (
    "3ea65961d43591978b555409ca7f5057c014e30ecc13e9ae2bbdafc97bdedb2d"
)

FAST_GRID = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]


def qint_product(ks):
    """prod [k] over ks, as a plain LaurentQ."""
    acc = LaurentQ.one()
    for k in ks:
        acc = acc * quantum_int(k)
    return acc


def lead_sign(x):
    """Sign of x at q -> infinity: the sign of its top coefficient."""
    terms = x.terms
    return 1 if terms[max(terms)] > 0 else -1


def same_root(x, p, y, r):
    """x sqrt(p) == y sqrt(r) at every q > 1, for p, r positive there.

    Equal squares x^2 p = y^2 r make the two sides agree up to one global
    sign, because the Laurent ring has unique factorization; the top
    coefficients fix that sign.
    """
    return x * x * p == y * y * r and (not x or lead_sign(x) == lead_sign(y))


def mat_mul(a, b):
    n = len(b)
    return [[sum((a[i][t] * b[t][j] for t in range(n)), LaurentQ.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def diag(entries):
    zero = LaurentQ.zero()
    return [[x if i == j else zero for j, x in enumerate(entries)]
            for i, _ in enumerate(entries)]


def transpose(m):
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# certification and error modes

@pytest.mark.parametrize("N,p", FAST_GRID)
def test_closed_forms_certified(N, p):
    rho, v, c = twisted_basis(N, p)
    certify_basis(rho, v, c)
    # sigma U sigma = U^T with sigma = diag(+1, -1, +1, ...)
    for i in range(N):
        for j in range(N):
            want = v[i][j] if (i + j) % 2 == 0 else -v[i][j]
            assert v[j][i] == want


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


def parse_entry(text):
    """(num, den, radicand) of a rendered entry (num/den) * sqrt(radicand)."""
    one = LaurentQ.one()
    root = one
    if text.endswith(")") and "sqrt(" in text:
        k = text.index("sqrt(")
        text, root = text[:k], LaurentQ.parse(text[k + 5:-1])
        text = "1" if not text else text[1:-2]  # "(r)*" around the ratio
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return LaurentQ.parse(num), LaurentQ.parse(den), root
    return LaurentQ.parse(text), one, root


@pytest.mark.parametrize("N,p", FAST_GRID)
def test_twisted_basis_is_the_radical_view(N, p):
    # racah_su2 renders U_ij = (V_ij / c) sqrt(rho_i rho_j), with rho_0 = 1
    rho, v, c = twisted_basis(N, p)
    u = racah_su2(N, p)
    assert rho[0] == LaurentQ.one()
    for i in range(N):
        for j in range(N):
            num, den, root = parse_entry(u[i][j])
            assert same_root(num * c, root, v[i][j] * den, rho[i] * rho[j]), (i, j)


@pytest.mark.parametrize("N,p", FAST_GRID)
def test_closed_forms_match_recoupling_sum(N, p):
    # the corner entries of U(N|p) have closed product forms in [k], written
    # here with plain quantum integers, cross-multiplied against V/c and rho
    rho, v, c = twisted_basis(N, p)
    n = N - 1
    top = qint_product(p - k for k in range(n))
    corner = -1 if N == 4 else 1
    # U_00 = corner * prod [p-k] / prod_{k < n} [2p-k]
    assert v[0][0] * qint_product(2 * p - k for k in range(n)) == corner * c * top
    # U_nn = V_nn rho_n / c = corner * prod [p-k] / prod_{n-1 <= k < 2n-1} [2p-k]
    assert (v[n][n] * rho[n] * qint_product(2 * p - k for k in range(n - 1, 2 * n - 1))
            == corner * c * top)
    # U_0n = V_0n sqrt(rho_n) / c = sign * sqrt(radicand) / [2p-n+1]
    rad_num = top * qint_product(3 * p - k for k in range(n - 1, 2 * n - 1))
    rad_den = qint_product(2 * p - k for k in range(2 * n - 1) if k != n - 1)
    sign = -1 if N == 3 else 1
    assert same_root(v[0][n] * quantum_int(2 * p - n + 1), rho[n] * rad_den,
                     sign * c, rad_num)


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
    # every entry point that reads a triple certifies it: the certificate
    # itself and the triangular pair's certificate, which builds a block
    (spec,) = [s for s in cube_blocks(2) if s.multiplicity == 3]
    block = build_block(spec)
    entry_points = [
        certify_basis,
        lambda rho, v, c: certify_pair(
            block.eigenvalues, block.upper, block.lower, rho, v, c),
    ]
    rho, v, c = twisted_basis(3, 2)
    assert triple(block) == (rho, v, c)
    keeps_layout = [list(row) for row in v]
    keeps_layout[1][2] = -keeps_layout[1][2]
    keeps_layout[2][1] = -keeps_layout[2][1]  # breaks orthogonality only
    breaks_layout = [list(row) for row in v]
    breaks_layout[0][1] = -breaks_layout[0][1]
    for check in entry_points:
        check(rho, v, c)
        for rows in (keeps_layout, breaks_layout):
            with pytest.raises(NonOrthogonal):
                check(rho, tuple(map(tuple, rows)), c)
        with pytest.raises(NonOrthogonal):
            check(rho, v, c * 2)


def test_build_block_certifies_its_pair_against_the_triple(monkeypatch):
    # the record keeps no triple, but each pair is certified against
    # twisted_basis(size, p) before it is kept: another p's triple (the
    # same size, orthogonal, another braiding) refuses the block
    (spec,) = [s for s in cube_blocks(2) if s.multiplicity == 3]
    real = racah.twisted_basis
    monkeypatch.setattr(racah, "twisted_basis", lambda n, p: real(n, p + 1))
    with pytest.raises(NotIntertwined):
        build_block.__wrapped__(spec)
    monkeypatch.undo()
    assert build_block.__wrapped__(spec) == build_block(spec)


def blocks_of_size(size):
    return [build_block(spec) for r in young.SUPPORTED_R for spec in cube_blocks(r)
            if spec.multiplicity == size]


def triple(block):
    """The mixing triple (rho, V, c) that certified a block's pair."""
    return twisted_basis(len(block.eigenvalues), block.spec.p)


def test_triangular_pairs_are_certified_on_every_block():
    # the pairs' shape: B = J A J up to a diagonal dressing, every entry of
    # at most five terms with coefficients of at most 2 in absolute value
    checked = 0
    for size in range(2, racah.MAX_SIZE + 1):
        for block in blocks_of_size(size):
            a, b = block.upper, block.lower
            certify_pair(block.eigenvalues, a, b, *triple(block))
            for i in range(size):
                for j in range(size):
                    x, y = a[size - 1 - i][size - 1 - j], b[i][j]
                    assert bool(x) == bool(y)
                    assert len(x.terms) <= 5
                    assert all(abs(k) <= 2 for k in x.terms.values())
            checked += 1
    assert checked == 23


def test_pair_certificate_rejects_a_sign_flipped_entry():
    for size in range(2, racah.MAX_SIZE + 1):
        block = blocks_of_size(size)[-1]
        for i, j in [(0, 1), (size - 2, size - 1), (0, size - 1)]:
            flipped = [list(row) for row in block.upper]
            flipped[i][j] = -flipped[i][j]
            with pytest.raises(NotIntertwined):
                certify_pair(block.eigenvalues, flipped, block.lower, *triple(block))


def test_pair_certificate_rejects_the_wrong_root():
    # size 4: s = -sqrt(xi_1 xi_2 xi_3 xi_4) gives a braid-group
    # representation with the same eigenvalues that is not the block's, so
    # only the intertwiner can tell; size 5: -g is a fifth root of minus
    # the eigenvalues' product
    for size, degree in ((4, 2), (5, 5)):
        for block in blocks_of_size(size):
            xi = block.eigenvalues
            a, b = racah._pair(xi, -racah._root(prod(xi), degree))
            with pytest.raises(NotIntertwined):
                certify_pair(xi, a, b, *triple(block))
            if size == 4:
                ab = mat_mul(a, b)
                assert mat_mul(ab, a) == mat_mul(b, ab)
                with pytest.raises(NotIntertwined, match="not the block's braiding"):
                    certify_pair(xi, a, b, *triple(block))


# ---------------------------------------------------------------------------
# the certificates' chain comparison against schoolbook products

def poly(lo, grain, terms):
    """sum_k c q^((lo + grain k)/6) over terms {k: c}."""
    return LaurentQ({lo + grain * k: c for k, c in terms.items()})


@st.composite
def factors(draw, n, diagonal=None, nonzero=False):
    """An n x n matrix (rows of LaurentQ) or a diagonal (n LaurentQ), its
    exponents on lo + grain Z: a factor's lowest exponent is free, so two
    chains' total shifts may differ by a non-multiple of the common step."""
    lo, grain = draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 6)))
    terms = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool),
                            min_size=int(nonzero), max_size=3)
    if diagonal is None:
        diagonal = draw(st.booleans())
    shape = [terms] * n if diagonal else [st.lists(terms, min_size=n, max_size=n)] * n
    entries = draw(st.tuples(*shape))
    # a factor needs one nonzero entry to have a lowest exponent
    assume(any(entries) if diagonal else any(map(any, entries)))
    if diagonal:
        return tuple(poly(lo, grain, t) for t in entries)
    return tuple(tuple(poly(lo, grain, t) for t in row) for row in entries)


def schoolbook(chain):
    return reduce(mat_mul, [diag(f) if isinstance(f[0], LaurentQ) else f for f in chain])


def differing(a, b):
    return [(i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x != b[i][j]]


def chains(n):
    return st.lists(factors(n), min_size=1, max_size=4).map(tuple)


q6 = LaurentQ.monomial


@settings(max_examples=25)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(chains(n), chains(n))))
# a side of diagonals only, as certify_basis's c^2 I
@example(((((q6(1, 2), q6(-1, 1)), (q6(3, 0), LaurentQ.zero())),
           (q6(1, 2), q6(1, -1))), ((q6(1, 3), q6(2, 1)), (q6(1, -1), q6(1, 1)))))
# total shifts 1/6 apart at a common step of 1/3: the products never agree
@example(((((q6(1, Fraction(1, 6)), q6(1, Fraction(1, 2))),
            (q6(-1, Fraction(1, 6)), q6(2, Fraction(5, 6)))),),
          ((q6(1, 0), q6(1, Fraction(1, 3))),)))
def test_mismatches_are_the_schoolbook_differences(pair):
    left, right = pair
    assert racah._mismatches(left, right) == differing(schoolbook(left), schoolbook(right))


@settings(max_examples=15)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    factors(n, True, True), factors(n, False), factors(n, True, True),
    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-9, 9))))
def test_mismatches_find_exactly_a_perturbed_entry(case):
    d1, m, d2, i, j, e = case
    product = schoolbook((d1, m, d2))
    assume(any(x for row in product for x in row))
    assert racah._mismatches((d1, m, d2), (product,)) == []
    bumped = [list(row) for row in product]
    bumped[i][j] = bumped[i][j] + LaurentQ({e: 1})
    assume(any(x for row in bumped for x in row))
    assert racah._mismatches((d1, m, d2), (bumped,)) == [(i, j)]


# ---------------------------------------------------------------------------
# eigenvalue-based reconstruction vs the recoupling sum

@pytest.mark.parametrize("N,p", [(2, 1), (2, 3), (3, 2), (3, 4)])
def test_eigenvalue_reconstruction_entrywise(N, p):
    # equal triples: (rho, V, c) determines U = S (V/c) S
    assert racah_from_eigenvalues(normalized_eigenvalues(N, p)) == \
        twisted_basis(N, p)


@pytest.mark.parametrize("N,p", [(4, 3), (5, 4)])
def test_eigenvalue_reconstruction_squared(N, p):
    # sizes 4 and 5 agree as triples too, which implies agreement of the
    # diagonals and of the squared off-diagonals this test is named after
    assert racah_from_eigenvalues(normalized_eigenvalues(N, p)) == \
        twisted_basis(N, p)


@pytest.mark.parametrize("N,p", [(2, 2), (3, 3), (4, 3), (5, 4)])
def test_eigenvalue_reconstruction_rejects_corrupted_lists(N, p):
    xs = normalized_eigenvalues(N, p)
    flipped = list(xs)
    flipped[1] = -flipped[1]
    with pytest.raises(NonOrthogonal):
        racah_from_eigenvalues(flipped)
    # the reversed list passes every certificate but is another matrix
    assert racah_from_eigenvalues(xs[::-1]) != twisted_basis(N, p)
    # so do the formulas only for eigenvalues whose product is +-1
    q = LaurentQ.monomial(1, 1)
    with pytest.raises(NonOrthogonal, match="outside the formulas' validity"):
        racah_from_eigenvalues([x * q for x in xs])


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
        racah_from_eigenvalues([q, q])


def test_sign_search_refuses_ambiguity(monkeypatch):
    # were every row orthogonal to every other, no interior sign choice
    # would be preferred
    monkeypatch.setattr(racah, "_orthogonal", lambda a, b, rho: True)
    with pytest.raises(NonOrthogonal, match="ambiguous"):
        racah_from_eigenvalues(normalized_eigenvalues(3, 2))


# ---------------------------------------------------------------------------
# factored quantum numbers

@pytest.mark.parametrize("sign", [1, -1])
def test_binomial_closed_form(sign):
    # sign * q^(u/6) - 1 on every exponent in sixths from -360 to 360:
    # factored exactly on the q^2 lattice, refused off it and at 0 or -2
    refused = 0
    for u6 in range(-360, 361):
        value = LaurentQ({u6: sign}) - 1
        if u6 % 12 or u6 == 0:
            with pytest.raises(NotCyclotomic):
                binomial((sign, u6, {}))
            refused += 1
            continue
        s, u, exps = binomial((sign, u6, {}))
        assert _expand(exps, s, u) == value, u6
        assert all(e == 1 for e in exps.values())
    assert refused == 721 - 60
    # [k] = q^-(k-1) (q^2k - 1) / (q^2 - 1)
    for k in range(1, 12):
        assert _fprod([binomial((1, 12 * k, {}))],
                      [(1, 6 * (k - 1), {}), binomial((1, 12, {}))]) == _qint(k)


def test_sqrt_of_perfect_square():
    x = _fprod([_qint(3), _qint(5)], [_qint(4)])
    assert sqrt_of(_fprod([x, x])) == x
    with pytest.raises(NotASquare):
        sqrt_of(_fprod([x, _qint(3)]))       # odd exponent of Phi_3
    with pytest.raises(NotASquare):
        sqrt_of((-1, 0, {}))                 # negative
    with pytest.raises(NotASquare):
        sqrt_of((1, 3, {}))                  # q^(1/4) is off the 1/6 lattice


def test_divide_out_reaches_lowest_terms():
    # [6] = q^-5 Phi_2 Phi_3 Phi_6, so [6] / (Phi_2^2 Phi_3) keeps one Phi_2
    # below the line
    num = quantum_int(6)
    poly, left = divide_out(num, {2: 2, 3: 1})
    assert left == {2: 1}
    assert poly * _expand({2: 1, 3: 1}) == num


# ---------------------------------------------------------------------------
# block assembly

def test_build_block_r1():
    specs = {spec.Q: spec for spec in cube_blocks(1)}
    blocks = {Q: build_block(spec) for Q, spec in specs.items()}
    sizes = {Q.rows: len(b.eigenvalues) for Q, b in blocks.items()}
    assert sizes == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    b = blocks[[Q for Q in blocks if Q.rows == (2, 1)][0]]
    assert b.eigenvalues == (LaurentQ.monomial(1, 1), LaurentQ.monomial(-1, -1))
    assert isinstance(b, MixingBlock)
    assert [f.name for f in fields(MixingBlock)] == ["spec", "eigenvalues", "upper", "lower"]
    assert b.upper[1][0] == b.lower[0][1] == LaurentQ.zero()
    for block in blocks.values():
        if len(block.eigenvalues) == 1:
            assert block.upper == block.lower == (block.eigenvalues,)


def test_size_cap_covers_the_supported_ranks(monkeypatch):
    # one size cap for both constructions, met by every block of every
    # supported rank and missed by one block of the next rank
    assert set(racah._EV_DRESS) == set(racah._SUM_DRESS) == set(
        range(2, racah.MAX_SIZE + 1))
    top = max(young.SUPPORTED_R)
    assert max(spec.multiplicity for r in young.SUPPORTED_R
               for spec in cube_blocks(r)) == racah.MAX_SIZE
    monkeypatch.setattr(young, "SUPPORTED_R", young.SUPPORTED_R + (top + 1,))
    too_big = [spec for spec in cube_blocks(top + 1)
               if spec.multiplicity > racah.MAX_SIZE]
    assert too_big
    with pytest.raises(UnsupportedMultiplicity):
        build_block(too_big[0])


def twisted_factors(eigenvalues, rho, v):
    """D = diag(xi_j), rho D = diag(rho_j xi_j), V and V^T as lists."""
    return (diag(eigenvalues), diag([r * x for r, x in zip(rho, eigenvalues)]),
            [list(row) for row in v], transpose(v))


def test_braid_relation_cube_root_block():
    # In the 2-dimensional r=1 block, M = R U R U^T satisfies M^2 + M + 1 = 0:
    # the two twist eigenvalues q and -1/q multiply to -1, so M has unit
    # determinant and trace -1.  With U = S (V/c) S, M = S K S / c^2 for
    # K = D V rhoD V^T, and the identity becomes
    # rho K rho K + c^2 rho K + c^4 = 0 in integer Laurent polynomials.
    (spec,) = [s for s in cube_blocks(1) if s.multiplicity == 2]
    block = build_block(spec)
    rho, v, c = triple(block)
    d, rd, v, vt = twisted_factors(block.eigenvalues, rho, v)
    rk = mat_mul(diag(rho), mat_mul(mat_mul(d, v), mat_mul(rd, vt)))
    rkrk = mat_mul(rk, rk)
    c2 = c * c
    for i in range(2):
        for j in range(2):
            ident = c2 * c2 if i == j else LaurentQ.zero()
            assert rkrk[i][j] + c2 * rk[i][j] + ident == LaurentQ.zero()


def braid_relation_holds(eigenvalues, rho, v, c):
    """R1 R2 R1 = R2 R1 R2 for R1 = D, R2 = U D U^T in twisted integer form:
    c^2 D V rhoD V^T D = V rhoD V^T rhoD V rhoD V^T."""
    d, rd, v, vt = twisted_factors(eigenvalues, rho, v)
    w = mat_mul(mat_mul(v, rd), vt)  # V rhoD V^T
    lhs = mat_mul(mat_mul(d, w), d)
    rhs = mat_mul(mat_mul(w, rd), w)
    c2 = c * c
    return all(c2 * x == y for lrow, rrow in zip(lhs, rhs)
               for x, y in zip(lrow, rrow))


def test_braid_relation_twisted_form():
    checked = 0
    for r in (1, 2, 3, 4):
        for spec in cube_blocks(r):
            if spec.multiplicity < 2:
                continue
            b = build_block(spec)
            rho, v, c = triple(b)
            assert braid_relation_holds(b.eigenvalues, rho, v, c), spec.Q
            flipped = [list(row) for row in v]
            flipped[0][1] = -flipped[0][1]
            assert not braid_relation_holds(b.eigenvalues, rho, flipped, c)
            # a 2x2 block satisfies the relation with its eigenvalues swapped
            # as well, so reversal is a mutation from size 3 on
            if spec.multiplicity > 2:
                assert not braid_relation_holds(b.eigenvalues[::-1], rho, v, c)
            checked += 1
    assert checked == 23


def test_dressed_triple_certifies_the_same_pair():
    # a diagonal +-1 dressing D V D of a block's mixing matrix is another
    # orthogonal U with the same braiding: it passes the pair's certificate,
    # and the pair, built from the eigenvalues alone, is the same
    for spec in cube_blocks(2):
        block = build_block(spec)
        size = len(block.eigenvalues)
        if size == 1:
            continue
        rho, v, c = triple(block)
        signs = [-1 if k == 1 else 1 for k in range(size)]
        dressed = tuple(
            tuple(x if signs[i] == signs[j] else -x for j, x in enumerate(row))
            for i, row in enumerate(v)
        )
        assert dressed != v
        pair = triangular_pair(block.eigenvalues)
        assert pair == (block.upper, block.lower)
        certify_pair(block.eigenvalues, *pair, rho, dressed, c)
