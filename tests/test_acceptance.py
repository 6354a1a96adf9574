"""Acceptance matrix: the seven end-to-end criteria, all exact arithmetic.

Each test records one summary line (printed after the run by conftest) and
then asserts, so a red criterion is visible both as a failing test and as a
FAIL line in the final report.  Zero tolerance throughout: every comparison
is exact polynomial equality, never numeric approximation.
"""

import time
from fractions import Fraction
from functools import lru_cache

from conftest import record_acceptance

from homfly3.braid import (
    Braid3Word,
    NonPolynomialResult,
    character_coefficients,
    extended_homfly,
    reduced_homfly,
    special_polynomial,
)
from homfly3.knotdb import (
    GOLDEN_RANKS,
    KNOT_NAMES,
    QUARANTINED,
    golden,
    lookup,
    printed,
    verify_checksums,
)
from homfly3.qpoly import LaurentQ, LaurentQA, substitute
from homfly3.racah import certify_basis, twisted_basis
from homfly3.racah_eigen import normalized_eigenvalues, racah_from_eigenvalues
from homfly3.symfun import (
    adams,
    cut_and_join,
    expand_in_schur,
    partitions_of,
    schur_in_powersums,
    topological_locus,
)
from homfly3.young import YoungDiagram, hook_content_dimension, kappa

AMPHICHIRAL_CHECKS = ("4_1", "6_3", "8_9", "8_17", "8_18")
UNKNOT_WORDS = ("1,1", "-1,-1", "1,-1", "-1,1", "1,1|-1,-1")


@lru_cache(maxsize=None)
def engine(name, r):
    return reduced_homfly(lookup(name).word, r)


def diagrams_up_to(max_size):
    for n in range(1, max_size + 1):
        for rows in partitions_of(n):
            yield YoungDiagram(rows)


# ---------------------------------------------------------------------------

def test_criterion_1_golden_tables():
    assert verify_checksums() == 78

    mismatches = []
    worst = 0.0
    t_suite = time.perf_counter()
    for name in KNOT_NAMES:
        for r in GOLDEN_RANKS:
            t0 = time.perf_counter()
            h = engine(name, r)
            worst = max(worst, time.perf_counter() - t0)
            if h != golden(name, r):
                mismatches.append((name, r))
    total = time.perf_counter() - t_suite

    # the two quarantined printed slots are duplicates of another knot's
    # table; prove that identification rather than asserting against them
    quarantine_ok = all(
        printed(name, r) == golden(other, other_r)
        for (name, r), (other, other_r) in QUARANTINED.items()
    )

    ok = not mismatches and quarantine_ok and worst <= 10.0 and total <= 600.0
    record_acceptance(
        1,
        "golden tables",
        ok,
        "76/76 reduced polynomials match bit-exactly "
        "(74 printed entries verbatim; 2 quarantined misprints match the "
        "corrected tables and each misprint is machine-identified as a "
        "duplicate of another knot's row); "
        "worst pair %.2fs, suite %.1fs" % (worst, total),
    )
    assert not mismatches, mismatches
    assert quarantine_ok
    assert worst <= 10.0 and total <= 600.0, (worst, total)


def test_criterion_2_racah_certificates():
    # U = S (V/c) S with S = diag(sqrt(rho_j)): V diag(rho) V^T =
    # c^2 diag(1/rho) is U U^T = I conjugated by the invertible S, and
    # V_ji = (-1)^(i+j) V_ij is sigma U sigma = U^T
    checked = 0
    for N in (2, 3, 4, 5):
        for p in range(N - 1, 7):
            rho, v, c = twisted_basis(N, p)
            certify_basis(rho, v, c)
            for i in range(N):
                for j in range(N):
                    want = v[i][j] if (i + j) % 2 == 0 else -v[i][j]
                    assert v[j][i] == want, (N, p, i, j)
            checked += 1
    record_acceptance(
        2,
        "mixing-matrix certificates",
        checked == 18,
        "U U^T = I and sigma U sigma = U^T exact for %d matrices "
        "(N=2..5, p=N-1..6), as V diag(rho) V^T = c^2 diag(1/rho) and "
        "V_ji = (-1)^(i+j) V_ij on the integer triples" % checked,
    )
    assert checked == 18


def test_criterion_3_conjecture_form_equivalence():
    # the triple (rho, V, c) determines U = S (V/c) S, so equal triples
    # are equal matrices
    equal = 0
    for N in (2, 3, 4, 5):
        for p in range(N - 1, 6):
            assert twisted_basis(N, p) == racah_from_eigenvalues(
                normalized_eigenvalues(N, p)
            ), (N, p)
            equal += 1
    record_acceptance(
        3,
        "recoupling sum vs eigenvalue forms",
        equal == 14,
        "equal certified triples (rho, V, c) for %d matrices "
        "(N=2..5, p=N-1..5)" % equal,
    )
    assert equal == 14


def test_criterion_4_torus_oracle():
    fitted = 0
    for r in (1, 2):
        c_adams = expand_in_schur(
            adams(schur_in_powersums(YoungDiagram([r])), 3), 3 * r
        )
        top = YoungDiagram([3 * r])
        assert c_adams[top] == 1
        for n in (1, 2, 4, 5):
            word = Braid3Word.parse("|".join(["1,1"] * n))
            cs = character_coefficients(word, r).coefficients
            g = cs[top] * LaurentQ.monomial(1, Fraction(-2 * n * kappa(top), 3))
            for Q, got in cs.items():
                c = int(c_adams.get(Q, Fraction(0)))
                want = (
                    g
                    * LaurentQ.monomial(1, Fraction(2 * n * kappa(Q), 3))
                    * LaurentQ.const(c)
                )
                assert got == want, (n, r, Q)
            fitted += 1

    # r=1 normalized traces of the 2x2 block: -1 for n = 3k +- 1, 2 for n = 3k
    pattern_ok = True
    for n in (1, 2, 4, 5):
        word = Braid3Word.parse("|".join(["1,1"] * n))
        c21 = character_coefficients(word, 1).coefficients[YoungDiagram([2, 1])]
        expect = LaurentQ.const(-1 if n % 3 else 2)
        pattern_ok = pattern_ok and c21 == expect

    record_acceptance(
        4,
        "torus-word oracle",
        fitted == 8 and pattern_ok,
        "Adams-rule fit exact for all Q simultaneously, %d (n, r) words; "
        "2x2-block traces follow the -1/2 pattern" % fitted,
    )
    assert fitted == 8 and pattern_ok


def test_criterion_5_special_factorization():
    failures = []
    for name in KNOT_NAMES:
        base = special_polynomial(engine(name, 1))
        for r in GOLDEN_RANKS:
            if special_polynomial(engine(name, r)) != base ** r:
                failures.append((name, r))
    record_acceptance(
        5,
        "special-polynomial factorization",
        not failures,
        "h_r(q=1) = h_1(q=1)^r exact for all 19 knots, r = 1..4",
    )
    assert not failures, failures


def test_criterion_6_structural_properties():
    # unknot words reduce to 1 for every rank
    one = LaurentQA.one()
    unknots_ok = all(
        reduced_homfly(Braid3Word.parse(w), r) == one
        for w in UNKNOT_WORDS
        for r in (1, 2, 3, 4)
    )

    # identity braid: the character sum collapses to the Schur cube, so at
    # the topological locus the ratio by one quantum dimension is (S_[r]*)^2;
    # exact polynomial division genuinely fails (3-component closure)
    identity_ok = True
    for r in (1, 2, 3, 4):
        ext = topological_locus(extended_homfly(Braid3Word.parse("0,0"), r))
        s = topological_locus(schur_in_powersums(YoungDiagram([r])))
        # ext / s == s^2  <=>  ext.num * s.den^3 == s.num^3 * ext.den
        lhs = ext.num * (s.den * s.den * s.den)
        rhs = (s.num * s.num * s.num) * ext.den
        identity_ok = identity_ok and lhs == rhs
        try:
            reduced_homfly(Braid3Word.parse("0,0"), r)
            identity_ok = False
        except NonPolynomialResult:
            pass

    # locus cross-check: power-sum substitution vs hook/content product
    locus_ok = all(
        topological_locus(schur_in_powersums(d)).same_value(
            hook_content_dimension(d)
        )
        for d in diagrams_up_to(12)
    )

    # cut-and-join eigenvalue property
    cutjoin_ok = True
    for d in diagrams_up_to(8):
        s = schur_in_powersums(d)
        k = kappa(d)
        w2 = cut_and_join(s)
        cutjoin_ok = cutjoin_ok and (w2.is_zero() if k == 0 else w2 == s * k)

    # every computed trace is a radical-free Laurent polynomial: the trace
    # routine returns plain LaurentQ and raises on inexact division, so one
    # sweep over all catalog words pins the property
    traces_ok = all(
        isinstance(c, LaurentQ)
        for name in KNOT_NAMES
        for r in (1, 2)
        for c in character_coefficients(lookup(name).word, r).coefficients.values()
    )

    ok = unknots_ok and identity_ok and locus_ok and cutjoin_ok and traces_ok
    record_acceptance(
        6,
        "structural properties",
        ok,
        "unknot words = 1 (r<=4); identity braid = (S*)^2 at the locus with "
        "exact division refused; locus = hook/content for all |Q| <= 12; "
        "cut-and-join eigenvalue for |T| <= 8; all traces radical-free Laurent",
    )
    assert unknots_ok
    assert identity_ok
    assert locus_ok
    assert cutjoin_ok
    assert traces_ok


def test_criterion_7_amphichirality():
    failures = []
    for name in AMPHICHIRAL_CHECKS:
        for r in GOLDEN_RANKS:
            h = golden(name, r)
            if substitute(h, "invert") != h:
                failures.append((name, r))
    record_acceptance(
        7,
        "amphichirality",
        not failures,
        "A -> 1/A, q -> 1/q fixes the tables of 4_1, 6_3, 8_9, 8_17, 8_18 "
        "for r = 1..4",
    )
    assert not failures, failures
