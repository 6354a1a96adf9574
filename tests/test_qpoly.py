"""Exact Laurent arithmetic in q and (A, q)."""

import re
from fractions import Fraction
from itertools import chain
from math import comb

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from homfly3 import qpoly
from homfly3.braid import Braid3Word
from homfly3.qpoly import (
    InexactDivision,
    LaurentQ,
    LaurentQA,
    PolyParseError,
    curly_bracket,
    curly_q,
    laurent_divexact,
    laurent_gcd,
    laurent_matrix,
    pack_matrix,
    pack_signed,
    quantum_int,
    signed_width,
    substitute,
    unpack_signed,
)
from homfly3.symfun import PowerSumPoly
from homfly3.young import YoungDiagram

# ---------------------------------------------------------------------------
# strategies

coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def laurent_q(draw, max_terms=5, max_exp=6):
    poly = LaurentQ.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        e = draw(st.integers(-max_exp, max_exp))
        poly = poly + LaurentQ.monomial(c, e)
    return poly


@st.composite
def laurent_qa(draw, max_terms=5, max_exp=5):
    poly = LaurentQA.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        a = draw(st.integers(-max_exp, max_exp))
        e = draw(st.integers(-max_exp, max_exp))
        poly = poly + LaurentQA.monomial(c, a=a, qexp=e)
    return poly


# ---------------------------------------------------------------------------
# quantum integers

def test_quantum_int_anchors():
    assert quantum_int(0) == LaurentQ.zero()
    assert quantum_int(1) == LaurentQ.one()
    assert quantum_int(2) == LaurentQ.monomial(1, 1) + LaurentQ.monomial(1, -1)
    assert (
        quantum_int(3)
        == LaurentQ.monomial(1, 2) + LaurentQ.one() + LaurentQ.monomial(1, -2)
    )


@pytest.mark.parametrize("n", range(-50, 51))
def test_quantum_int_definition(n):
    lhs = quantum_int(n) * (LaurentQ.monomial(1, 1) - LaurentQ.monomial(1, -1))
    rhs = LaurentQ.monomial(1, n) - LaurentQ.monomial(1, -n)
    assert lhs == rhs


@given(st.integers(-50, 50))
def test_quantum_int_odd(n):
    assert quantum_int(-n) == -quantum_int(n)


def test_curly_bracket():
    A = LaurentQA.monomial(1, a=1)
    assert curly_bracket(A) == A - LaurentQA.monomial(1, a=-1)
    q = LaurentQA.monomial(1, qexp=1)
    assert curly_bracket(q) == q - LaurentQA.monomial(1, qexp=-1)
    Aq2 = LaurentQA.monomial(1, a=1, qexp=2)
    assert curly_bracket(Aq2) == Aq2 - LaurentQA.monomial(1, a=-1, qexp=-2)
    with pytest.raises(ValueError):
        curly_bracket(A + q)


# ---------------------------------------------------------------------------
# ring laws

@given(laurent_qa(), laurent_qa(), laurent_qa())
def test_ring_laws_qa(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * LaurentQA.zero() == LaurentQA.zero()
    assert x * LaurentQA.one() == x
    assert x - x == LaurentQA.zero()


def test_equal_values_hash_equally():
    # a constant hashes as the int or Fraction it equals, in either ring
    assert 2 in {LaurentQ.const(2)}
    assert Fraction(1, 2) in {LaurentQA.monomial(Fraction(1, 2))}
    assert 0 in {LaurentQ.zero()} and 0 in {LaurentQA.zero()}
    # a power-sum polynomial whose coefficient is 2 or the constant 2
    assert len({PowerSumPoly({(1,): 2}), PowerSumPoly({(1,): LaurentQ.const(2)})}) == 1
    # an (A, q) polynomial free of A equals, and hashes as, its LaurentQ
    x = LaurentQ.parse("q^2 - 3*q^-1")
    assert LaurentQA.from_q(x) == x and hash(LaurentQA.from_q(x)) == hash(x)


@given(laurent_q(), laurent_q())
def test_ring_laws_q(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x * LaurentQ.zero() == LaurentQ.zero()


# ---------------------------------------------------------------------------
# Kronecker multiplication and the signed-digit format

def schoolbook(a, b, add=lambda x, y: x + y):
    """Product of plain term dicts; add combines two keys."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = add(e1, e2)
            out[k] = out.get(k, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def add_pairs(x, y):
    return x[0] + y[0], x[1] + y[1]


# coefficients at and next to the byte boundaries of the packed digits
boundary = st.sampled_from(
    [s * (2 ** (8 * k) + d) for k in (1, 2, 3) for d in (-1, 0, 1) for s in (1, -1)]
)
big_coeffs = st.one_of(
    st.integers(-9, 9).filter(bool),
    boundary,
    st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12)),
)
wide_terms = st.dictionaries(
    st.integers(-400, 400), big_coeffs, min_size=40, max_size=80
)


# shrinking 40-80-term operands takes minutes; a failure shows as drawn
@settings(phases=[Phase.explicit, Phase.generate])
@given(wide_terms, wide_terms)
def test_kronecker_product_matches_schoolbook(a, b):
    assert len(a) * len(b) > qpoly._NAIVE_MUL_CUTOFF
    assert (LaurentQ(a) * LaurentQ(b)).terms == schoolbook(a, b)


power_bases = st.dictionaries(
    st.integers(-40, 40),  # exponents in sixths: the whole 1/6 lattice
    st.one_of(st.integers(-9, 9).filter(bool), boundary,
              st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))),
    min_size=2, max_size=8,
).map(LaurentQ)


@given(power_bases, st.integers(0, 9))
def test_packed_power_matches_repeated_multiplication(p, n):
    expect = LaurentQ.one()
    for _ in range(n):
        expect = expect * p
    got = p ** n
    assert got.terms == expect.terms
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


@given(power_bases, power_bases)
@example(LaurentQ({1: Fraction(1, 2), 0: 1}), LaurentQ({1: Fraction(1, 2), 0: 1}))
def test_small_products_hold_int_coefficients_where_integral(a, b):
    # the schoolbook product normalizes as the packed product and ** do
    assert len(a.terms) * len(b.terms) <= qpoly._NAIVE_MUL_CUTOFF
    got = a * b
    assert got.terms == schoolbook(a.terms, b.terms)
    qa = LaurentQA.from_q(a) * LaurentQA.from_q(b)
    for c in chain(got.terms.values(), qa.terms.values()):
        assert type(c) is int or c.denominator != 1


# (A, q) keys: negative A-exponents, q-exponents in sixths on the whole
# lattice or on a coarser step of it (integral q-powers are step 6)
@st.composite
def wide_qa_terms(draw):
    step = draw(st.sampled_from([1, 2, 3, 6]))
    keys = st.integers(0, 13 * 81 - 1).map(lambda i: (i // 81 - 6, step * (i % 81 - 40)))
    return draw(st.dictionaries(keys, big_coeffs, min_size=33, max_size=60))


@settings(phases=[Phase.explicit, Phase.generate])
@given(wide_qa_terms(), wide_qa_terms())
def test_packed_qa_product_matches_schoolbook(a, b):
    assert len(a) * len(b) > qpoly._NAIVE_MUL_CUTOFF
    assert (LaurentQA(a) * LaurentQA(b)).terms == schoolbook(a, b, add_pairs)


qa_power_bases = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-40, 40)),
    st.one_of(st.integers(-9, 9).filter(bool), boundary,
              st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))),
    min_size=1, max_size=6,
)


@given(qa_power_bases, st.integers(0, 6))
def test_packed_qa_power_matches_repeated_multiplication(t, n):
    expect = {(0, 0): 1}
    for _ in range(n):
        expect = schoolbook(expect, t, add_pairs)
    p = LaurentQA(t)
    assert (p ** n).terms == expect
    if len(t) == 1:
        (((a, e), c),) = t.items()
        assert (p ** -n).terms == {(-n * a, -n * e): 1 / Fraction(c) ** n}
        assert p ** -n * p ** n == LaurentQA.one()
    else:
        with pytest.raises(InexactDivision):
            p ** -max(n, 1)


def test_power_of_a_wide_gap_is_the_product():
    # square and multiply through the product: the gap of 10^7 q is never
    # packed digit by digit
    p = LaurentQ({0: 1, 6: 1, 6 * 10 ** 7: 1})
    assert (p ** 2).terms == (p * p).terms
    qa = LaurentQA({(0, 0): 1, (1, 6): 1, (0, 6 * 10 ** 7): 1})
    assert (qa ** 3).terms == (qa * qa * qa).terms


def test_power_edge_cases():
    assert LaurentQ.zero() ** 0 == LaurentQ.one()
    assert LaurentQ.zero() ** 3 == LaurentQ.zero()
    assert LaurentQA.zero() ** 0 == LaurentQA.one()
    assert LaurentQA.zero() ** 2 == LaurentQA.zero()
    with pytest.raises(InexactDivision):
        LaurentQA.zero() ** -1
    assert (quantum_int(2) ** 0).is_one()
    assert (q(Fraction(1, 6)) - 1) ** 2 == q(Fraction(1, 3)) - 2 * q(Fraction(1, 6)) + 1
    with pytest.raises(InexactDivision):
        quantum_int(2) ** -1


def test_curly_atom_sum_refuses_a_nonpositive_shift():
    for atom in ((0, 0), (0, -2), (-1, 3)):
        with pytest.raises(ValueError):
            qpoly.curly_atom_sum([({0: 1}, [atom])])
    # {A q^-2} is fine: the A-shift dominates
    assert qpoly.curly_atom_sum([({0: 1}, [(1, -2)])]) == {(1, -12): 1, (-1, 12): -1}


def test_curly_atom_quotient_names_the_first_slice_that_does_not_divide():
    # (A - A^-1) {q} + 1: {q} divides A-slices -1 and 1, not A-slice 0
    terms = [({6: 1, -6: -1}, qpoly.atom_list([(1, 0)])), ({0: 1}, qpoly.atom_list([]))]
    assert qpoly.curly_atom_quotient(terms[:1], (1,)) == {(1, 0): 1, (-1, 0): -1}
    with pytest.raises(InexactDivision, match="^A-slice 0$"):
        qpoly.curly_atom_quotient(terms, (1,))


def test_curly_atom_quotient_takes_ints_as_they_come_and_scales_fractions():
    # c {q} {A} / {q} = c {A}: all-int term dicts are packed untouched; an
    # integral Fraction (as in symfun.schur_in_powersums([1])) or a proper
    # one goes through the lcm, and the quotient holds ints where integral
    atoms = qpoly.atom_list([(1, 0)])
    p = {6: 3, -6: -3}
    assert qpoly.curly_atom_quotient([(p, atoms)], (1,)) == {(1, 0): 3, (-1, 0): -3}
    assert p == {6: 3, -6: -3}
    for c in (Fraction(3, 2), Fraction(3, 1)):
        got = qpoly.curly_atom_quotient([({6: c, -6: -3}, atoms), ({6: -c, -6: 3}, atoms),
                                         ({6: c, -6: -c}, atoms)], (1,))
        assert got == {(1, 0): c, (-1, 0): -c}
        assert all(type(x) is int or x.denominator != 1 for x in got.values())


def test_curly_atom_quotient_strips_zero_digits_and_skips_empty_slices():
    # ({A}{q} + {q^3}) / {q} = {A} + q^2 + 1 + q^-2: the {q^3} term pulls
    # the lowest q-exponent to -3, so A-slices -1 and 1 start with zero
    # digits; (A^2 + A^-2) {q} = {A}^2 {q} + 2 {q} leaves A-slice 0 all zero
    terms = [({0: 1}, qpoly.atom_list([(1, 0), (0, 1)])), ({0: 1}, qpoly.atom_list([(0, 3)]))]
    assert qpoly.curly_atom_quotient(terms, (1,)) == {
        (1, 0): 1, (-1, 0): -1, (0, 12): 1, (0, 0): 1, (0, -12): 1}
    terms = [({6: 1, -6: -1}, qpoly.atom_list([(1, 0), (1, 0)])),
             ({6: 2, -6: -2}, qpoly.atom_list([]))]
    assert qpoly.curly_atom_quotient(terms, (1,)) == {(2, 0): 1, (-2, 0): 1}
    # a slice with digits left below the divisor's degree does not divide
    with pytest.raises(InexactDivision, match="^A-slice 0$"):
        qpoly.curly_atom_quotient(terms + [({0: 1}, qpoly.atom_list([]))], (1,))


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("atom", [(0, 1), (1, 0), (1, -2)])
def test_curly_atom_sum_width_at_the_littlewood_offord_bound(k, atom):
    # {X}^k = X^-k (X^2 - 1)^k: its largest coefficient is C(k, k // 2), the
    # bound the width is taken from, so c * {X}^k puts a digit at (or just
    # past) a byte boundary
    top = comb(k, k // 2)
    cs = [s * (2 ** (8 * w - 1) // top + d)
          for w in (1, 2, 3) for d in (-1, 0, 1) for s in (1, -1)]
    cs += [s * (2 ** (8 * w) + d) for w in (1, 2) for d in (-1, 0, 1) for s in (1, -1)]
    alpha, beta = atom
    bracket = {(alpha, 6 * beta): 1, (-alpha, -6 * beta): -1}
    for c in cs:
        expect = {(0, 0): c}
        for _ in range(k):
            expect = schoolbook(expect, bracket, add_pairs)
        assert qpoly.curly_atom_sum([({0: c}, [atom] * k)]) == expect


@pytest.mark.parametrize("width", [1, 2, 5])
def test_signed_digits_round_trip_at_the_extremes(width):
    top = 2 ** (8 * width - 1) - 1
    digits = {0: -top, 1: -top, 2: -1, 3: -top, 5: top, 6: -top, 7: top,
              8: -1, 9: -1, 10: -1, 11: top}
    packed = pack_signed(digits, 0, width)
    assert packed == sum(d << (8 * width * k) for k, d in digits.items())
    assert unpack_signed(packed, width) == digits


def test_pack_signed_refuses_a_coefficient_wider_than_its_digit():
    # a coefficient of 2^(8 width - 1) or more would spill into the next
    # digit (200 at width 1 once read back as -56 and a stray 2)
    for c in (200, -200, 128, -128, 2 ** 15):
        with pytest.raises(ValueError, match="does not fit"):
            pack_signed({0: c, 6: 1}, 0, 1, 6)
    assert unpack_signed(pack_signed({0: 127, 6: -127}, 0, 1, 6), 1) == {0: 127, 1: -127}
    assert unpack_signed(pack_signed({0: 200, 6: 1}, 0, 2, 6), 2) == {0: 200, 1: 1}


@given(st.integers(1, 3).flatmap(lambda w: st.tuples(
    st.just(w),
    st.lists(st.integers(-(2 ** (8 * w - 1) - 1), 2 ** (8 * w - 1) - 1),
             min_size=1, max_size=30),
)))
def test_signed_digits_round_trip(case):
    width, digits = case
    value = sum(d << (8 * width * k) for k, d in enumerate(digits))
    expect = {k: d for k, d in enumerate(digits) if d}
    assert unpack_signed(value, width) == expect
    if expect:
        # exponents on a step-6 lattice starting at -12 pack to the same value
        terms = {6 * k - 12: d for k, d in expect.items()}
        assert pack_signed(terms, -12, width, 6) == value


@given(st.integers(1, 6), st.integers(-12, 12), st.integers(0, 1), st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.dictionaries(st.integers(0, 8), st.integers(-300, 300)
                                                .filter(bool), max_size=4),
                                min_size=n, max_size=n), min_size=1, max_size=3)))
def test_packed_laurent_matrix_round_trips(step, shift, extra, digits):
    assume(any(map(any, digits)))  # a lowest exponent needs one nonzero entry
    rows = tuple(tuple({shift + step * k: c for k, c in t.items()} for t in row)
                 for row in digits)
    m = laurent_matrix(rows)
    lo, terms, norms = m
    assert lo == min(e for row in rows for t in row for e in t)
    assert terms is rows
    assert norms == tuple(tuple(sum(abs(c) for c in t.values()) for t in row) for row in rows)
    width = extra + signed_width(max(abs(c) for row in rows for t in row for c in t.values()))
    packed = pack_matrix(m, width, step)
    assert [[{lo + step * k: d for k, d in unpack_signed(v, width).items()} for v in row]
            for row in packed] == [list(row) for row in rows]


# ---------------------------------------------------------------------------
# exact division

def q(e):
    return LaurentQ.monomial(1, e)


def test_divexact_stays_integral_over_unit_leads():
    sixth = Fraction(1, 6)
    quotient = 3 * q(-7 * sixth) - 5 * q(Fraction(-5, 3)) + q(4) - 2
    for b in (quantum_int(3) * curly_q(2) * q(sixth),
              -(quantum_int(4) * q(-2)) + q(-5),
              q(Fraction(-1, 2)) - 1):
        got = laurent_divexact(quotient * b, b)
        assert got == quotient
        assert all(type(c) is int for c in got.terms.values())
    # the long division itself never leaves Z over a lead of +-1
    for lead in (1, -1):
        quot, rem = qpoly._dense_divmod([5, -7, 0, 3, 11, -2], [4, -1, lead])
        assert all(type(c) is int for c in quot + rem)


def test_divexact_non_unit_lead_divides_over_q():
    b = 2 * q(1) + 1
    assert laurent_divexact(b * (q(2) - 3), b) == q(2) - 3
    assert laurent_divexact(q(1) + 2, 2 * q(1) + 4) == LaurentQ.const(Fraction(1, 2))
    half = LaurentQ.const(Fraction(1, 2))
    assert laurent_divexact(b * (half * q(-1) + 7), b) == half * q(-1) + 7
    assert laurent_divexact(3 * q(2), 2 * q(1)) == LaurentQ.monomial(Fraction(3, 2), 1)


def test_divexact_refuses_a_remainder():
    with pytest.raises(InexactDivision):
        laurent_divexact(q(2) + 1, q(1) + 1)
    with pytest.raises(InexactDivision):
        laurent_divexact(curly_q(3) + 1, curly_q(1))


# ---------------------------------------------------------------------------
# gcd (not used by the engine; kept for the benchmark's tracer)

def test_laurent_gcd_basic():
    a = quantum_int(2) * quantum_int(6)
    b = quantum_int(2) * quantum_int(4)
    g = laurent_gcd(a, b)
    # [2] divides both; the gcd must make both quotients exact
    laurent_divexact(a, g)
    laurent_divexact(b, g)
    # and [2] must divide the gcd
    laurent_divexact(g, quantum_int(2))


# ---------------------------------------------------------------------------
# substitutions are ring homomorphisms

@pytest.mark.parametrize("rule", ["A->q^2", "q->-1/q", "q->1", "invert"])
@given(x=laurent_qa(max_terms=4), y=laurent_qa(max_terms=4))
def test_substitution_is_homomorphism(rule, x, y):
    phi = lambda t: substitute(t, rule)
    assert phi(x + y) == phi(x) + phi(y)
    assert phi(x * y) == phi(x) * phi(y)
    assert phi(LaurentQA.one()) == LaurentQA.one()


def test_substitution_examples():
    h31 = LaurentQA.parse("-A^4 + A^2*q^2 + A^2*q^-2")
    assert substitute(h31, "q->1").render() == "-A^4 + 2*A^2"
    assert substitute(h31, "A->q^2").render() == "-q^8 + q^6 + q^2"
    even = LaurentQA.parse("q^2 + q^-2")
    assert substitute(even, "q->-1/q") == even


def test_substitution_mirror_involution():
    h = LaurentQA.parse("A^2 - q^2 + 1 - q^-2 + A^-2")
    assert substitute(substitute(h, "invert"), "invert") == h
    assert substitute(h, "invert") == h  # this one is palindromic


def test_substitution_refusals():
    with pytest.raises(ValueError, match="unknown substitution rule") as info:
        substitute(LaurentQA.one(), "q->q^2")
    for rule in ("A->q^2", "q->-1/q", "q->1", "invert"):
        assert rule in str(info.value)
    # the sign (-1)^e of q -> -1/q needs an integral exponent
    with pytest.raises(ValueError, match="fractional q-exponent"):
        substitute(LaurentQA.monomial(1, qexp=Fraction(1, 3)), "q->-1/q")


# ---------------------------------------------------------------------------
# rendering and parsing

def test_render_canonical_order():
    # sorted by A-exponent descending, then q-exponent descending
    p = (
        LaurentQA.monomial(1, a=2, qexp=-2)
        + LaurentQA.monomial(-1, a=4)
        + LaurentQA.monomial(1, a=2, qexp=2)
    )
    assert p.render() == "-A^4 + A^2*q^2 + A^2*q^-2"


def test_render_units():
    assert LaurentQA.one().render() == "1"
    assert LaurentQA.zero().render() == "0"
    assert LaurentQA.monomial(-1).render() == "-1"
    assert LaurentQA.monomial(1, a=1, qexp=1).render() == "A*q"
    assert LaurentQA.monomial(-3, a=0, qexp=-1).render() == "-3*q^-1"


@given(laurent_qa())
def test_parse_render_roundtrip(p):
    assert LaurentQA.parse(p.render()) == p


def test_parse_rejects_garbage():
    for bad in ["A^", "q^^2", "A+*q", "+", "A^2**q", "B^2",
                "1/0", "q^(1/0)", "2*-q", "q^+2", "q+", "(q)", ""]:
        with pytest.raises(PolyParseError):
            LaurentQA.parse(bad)


def test_parse_error_kinds():
    # a zero denominator is a parse error naming its term
    with pytest.raises(PolyParseError, match="zero denominator in term '\\+2/0\\*q'"):
        LaurentQA.parse("q + 2/0*q")
    # an exponent off the 1/6 lattice keeps the lattice's ValueError ...
    with pytest.raises(ValueError, match="off the 1/6 lattice") as info:
        LaurentQA.parse("q^(1/4)")
    assert not isinstance(info.value, PolyParseError)
    # ... but a string outside the grammar is a parse error naming the first
    # character it cannot read, whatever else it holds
    with pytest.raises(PolyParseError, match="cannot read '\\^' at character 9"):
        LaurentQA.parse("q^(1/4) + q^+2")
    # a coefficient, exponent or denominator past int()'s 4,300-digit limit
    # is a parse error naming its term, cut to 40 characters
    for text in ["1" * 5000 + "*q", "q^" + "9" * 5000, "A^" + "9" * 5000,
                 "q^(1/" + "7" * 5000 + ")", "2 - 3/" + "4" * 5000 + "*A"]:
        with pytest.raises(PolyParseError, match="too many digits in term '[^']{40}\\.\\.\\.'$"):
            LaurentQA.parse(text)
    # a fault far into a long string is quoted with at most the 40
    # characters before and around it
    for text in ["1" * 5000 + "^", "q+" * 3000 + "^"]:
        with pytest.raises(PolyParseError, match="cannot read '[+^]' at character") as info:
            LaurentQA.parse(text)
        assert len(str(info.value)) < 100
        assert str(info.value).endswith(repr("..." + text[-40:]))


@st.composite
def qa_with_fractions(draw):
    keys = st.tuples(st.integers(-4, 4), st.integers(-18, 18))  # q-exponent in sixths
    values = st.fractions(-9, 9, max_denominator=4).filter(bool)
    return LaurentQA(draw(st.dictionaries(keys, values, max_size=5)))


@given(qa_with_fractions(), st.data())
def test_parse_accepts_the_documented_variations(p, data):
    # shuffled terms, whitespace between tokens, "-" written "+-", a leading
    # "+", and a "*" after a coefficient or an A dropped
    terms = data.draw(st.permutations([LaurentQA({k: c}).render() for k, c in p.terms.items()]))
    gap = st.sampled_from(["", " ", "  ", "\t", "\n"])
    text = ""
    for k, term in enumerate(terms):
        sign, body = ("-", term[1:]) if term.startswith("-") else ("+", term)
        if sign == "-" and data.draw(st.booleans()):
            sign = "+-"
        if k == 0 and sign == "+" and data.draw(st.booleans()):
            sign = ""
        for token in re.findall(r"\d+|.", sign + body):
            if token != "*" or data.draw(st.booleans()):
                text += token + data.draw(gap)
    assert LaurentQA.parse(text or "0") == p


@pytest.mark.parametrize("build", [
    lambda: LaurentQ({0.5: 1}),
    lambda: LaurentQ({Fraction(7, 2): 1}),
    lambda: LaurentQA({(1.5, 0): 1}),
    lambda: LaurentQA.monomial(1, a=1.5),
    lambda: PowerSumPoly({(2.5, 1): 1}),
    lambda: Braid3Word(((1.7, 1),)),
    lambda: YoungDiagram([2.5, 1]),
    lambda: LaurentQ.monomial(1, 0.5),
], ids=["LaurentQ-float-key", "LaurentQ-Fraction-key", "LaurentQA-float-key",
        "LaurentQA.monomial-float-a", "PowerSumPoly-float-part", "Braid3Word-float",
        "YoungDiagram-float-row", "LaurentQ.monomial-float-exp"])
def test_non_integer_exponents_and_rows_are_refused(build):
    # read through operator.index: nothing is truncated to an integer
    with pytest.raises(TypeError):
        build()


def test_parse_requires_a_before_q():
    assert LaurentQA.parse("A^2*q^2") == LaurentQA.monomial(1, a=2, qexp=2)
    with pytest.raises(PolyParseError):
        LaurentQA.parse("q^2*A^2")
