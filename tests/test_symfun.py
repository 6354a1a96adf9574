"""Schur polynomials in power sums, Adams maps, cut-and-join, locus values."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from homfly3 import symfun
from homfly3.braid import extended_homfly
from homfly3.knotdb import KNOT_NAMES, braid_word
from homfly3.qpoly import InexactDivision, LaurentQ, LaurentQA, curly_q
from homfly3.symfun import (
    PowerSumPoly,
    adams,
    cut_and_join,
    expand_in_schur,
    murnaghan_nakayama,
    partitions_of,
    schur_in_powersums,
    topological_locus,
    z_of,
)
from homfly3.young import YoungDiagram, cube_blocks, hook_content_dimension, kappa


def diagrams_up_to(max_size):
    for n in range(1, max_size + 1):
        for rows in partitions_of(n):
            yield YoungDiagram(rows)


# ---------------------------------------------------------------------------
# basics

def test_z_of():
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    assert z_of((3,)) == 3
    assert z_of((2, 2)) == 8


def test_murnaghan_nakayama_anchors():
    # characters of S_3: chi^[3] = (1,1,1), chi^[21] = (2,0,-1),
    # chi^[111] = (1,-1,1) on classes (1^3), (2,1), (3)
    for Q, vals in [
        ([3], (1, 1, 1)),
        ([2, 1], (2, 0, -1)),
        ([1, 1, 1], (1, -1, 1)),
    ]:
        got = tuple(
            murnaghan_nakayama(YoungDiagram(Q), mu)
            for mu in ((1, 1, 1), (2, 1), (3,))
        )
        assert got == vals


def test_schur_small():
    s1 = schur_in_powersums(YoungDiagram([1]))
    s2 = schur_in_powersums(YoungDiagram([2]))
    s11 = schur_in_powersums(YoungDiagram([1, 1]))
    # S2 + S11 = p1^2, S2 - S11 = p2
    assert s2 + s11 == s1 * s1
    two = LaurentQA.monomial(2)
    assert (s2 - s11) * two == adams(s1, 2) * two  # p2 = psi_2(p1)


def test_schur_coefficients_are_ints_where_integral():
    assert schur_in_powersums(YoungDiagram([1])).terms == {(1,): 1}
    for d in diagrams_up_to(8):
        for c in schur_in_powersums(d).terms.values():
            assert type(c) is int or c.denominator != 1, (d, c)


def test_expand_in_schur_inverts_schur():
    for d in diagrams_up_to(6):
        exp = expand_in_schur(schur_in_powersums(d), d.size)
        assert exp == {d: Fraction(1)}


# ---------------------------------------------------------------------------
# Adams (plethysm by power sums)

def test_adams_degree1_anchor():
    # S_[1]{p_3k} = p3 = S_[3] - S_[21] + S_[111]
    got = expand_in_schur(adams(schur_in_powersums(YoungDiagram([1])), 3), 3)
    assert got == {
        YoungDiagram([3]): Fraction(1),
        YoungDiagram([2, 1]): Fraction(-1),
        YoungDiagram([1, 1, 1]): Fraction(1),
    }


def test_cube_of_s1_anchor():
    # S_[1]^3 = S_[3] + 2 S_[21] + S_[111]
    s1 = schur_in_powersums(YoungDiagram([1]))
    got = expand_in_schur(s1 * s1 * s1, 3)
    assert got == {
        YoungDiagram([3]): Fraction(1),
        YoungDiagram([2, 1]): Fraction(2),
        YoungDiagram([1, 1, 1]): Fraction(1),
    }


@pytest.mark.parametrize("R", [[1], [2], [1, 1]])
def test_adams3_coefficients_small(R):
    d = YoungDiagram(R)
    got = expand_in_schur(adams(schur_in_powersums(d), 3), 3 * d.size)
    assert got  # nonempty
    for Q, c in got.items():
        assert c in (Fraction(-1), Fraction(1), Fraction(2)) or c == 0


def test_adams_multiplicativity():
    # psi_m is a ring homomorphism: psi_3(S2 * S1) = psi_3(S2) * psi_3(S1)
    s1 = schur_in_powersums(YoungDiagram([1]))
    s2 = schur_in_powersums(YoungDiagram([2]))
    assert adams(s2 * s1, 3) == adams(s2, 3) * adams(s1, 3)


def test_adams_composition():
    # psi_2(psi_3(f)) = psi_6(f)
    s2 = schur_in_powersums(YoungDiagram([2]))
    assert adams(adams(s2, 3), 2) == adams(s2, 6)


# ---------------------------------------------------------------------------
# the shared operators on PowerSumPoly, against plain dicts

# small ranges, so that sums often cancel a key to zero
ps_coeffs = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    st.dictionaries(st.integers(-1, 1), st.integers(-1, 1), max_size=2).map(LaurentQ),
)
ps_terms = st.dictionaries(
    st.lists(st.integers(1, 2), max_size=2).map(lambda lam: tuple(sorted(lam, reverse=True))),
    ps_coeffs, max_size=4)


def dict_sum(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return nonzero(out)


def nonzero(a):
    return {k: c for k, c in a.items() if c}


@given(x=ps_terms, y=ps_terms, s=ps_coeffs)
@example(x={(1,): 1, (): Fraction(1, 2)}, y={(1,): -1, (2,): LaurentQ({1: 1})},
         s=LaurentQ({0: 2}))
def test_power_sum_operators_match_dict_reference(x, y, s):
    X, Y = PowerSumPoly(x), PowerSumPoly(y)
    rx, ry = nonzero(x), nonzero(y)
    assert X.terms == rx and Y.terms == ry
    neg = {k: -c for k, c in ry.items()}
    assert (-Y).terms == neg
    for got, want in [(X + Y, dict_sum(rx, ry)), (X - Y, dict_sum(rx, neg)),
                      (X * s, nonzero({k: c * s for k, c in rx.items()}))]:
        assert got.terms == want
        assert got == PowerSumPoly(want)
        assert hash(got) == hash(PowerSumPoly(want))
    assert s * X == X * s
    assert (X == Y) == (rx == ry)
    assert (X + Y) - Y == X
    assert not X - X and (X + -X).terms == {}


def test_power_sum_powers(monkeypatch):
    p1, p2 = PowerSumPoly.p(1), PowerSumPoly.p(2)
    with pytest.raises(ValueError):
        p1 ** -1
    with pytest.raises(InexactDivision):
        (p1 + p2) ** -1
    assert p1 ** 0 == PowerSumPoly.one()
    m, f = 2 * p1, p1 + p2
    cube, square = m * m * m, f * f
    products = []
    mul = PowerSumPoly.__mul__
    monkeypatch.setattr(PowerSumPoly, "__mul__",
                        lambda x, y: products.append(1) or mul(x, y))
    assert m ** 3 == cube == PowerSumPoly({(1, 1, 1): 8})
    assert products == []  # a monomial's power is one term
    assert f ** 2 == square
    assert products == [1]


# ---------------------------------------------------------------------------
# cut-and-join eigenvalue property

def test_cut_and_join_eigenvalue_up_to_8():
    for d in diagrams_up_to(8):
        s = schur_in_powersums(d)
        k = kappa(d)
        lhs = cut_and_join(s)
        if k == 0:
            assert lhs.is_zero(), d
        else:
            assert lhs == s * k, d


# ---------------------------------------------------------------------------
# topological locus vs hook/content product

def test_locus_matches_hook_content_small():
    # the acceptance suite runs the full |Q| <= 12 sweep; spot up to 7 here
    for d in diagrams_up_to(7):
        assert topological_locus(schur_in_powersums(d)).same_value(
            hook_content_dimension(d)
        ), d


def schoolbook_locus(f):
    """(num, den, den_atoms) of the locus value, one LaurentQA product per atom."""
    if f.is_zero():
        return LaurentQA.zero(), LaurentQA.one(), ()
    den_mult = {}
    for lam in f.terms:
        for v in set(lam):
            den_mult[v] = max(den_mult.get(v, 0), lam.count(v))
    den_atoms = tuple(v for v in sorted(den_mult) for _ in range(den_mult[v]))
    num = LaurentQA.zero()
    for lam, c in f.terms.items():
        term = LaurentQA.one() * c
        for v in lam:
            term = term * LaurentQA({(v, 0): 1, (-v, 0): -1})
        for v in den_mult:
            for _ in range(den_mult[v] - lam.count(v)):
                term = term * LaurentQA.from_q(curly_q(v))
        num = num + term
    den = LaurentQA.one()
    for v in den_atoms:
        den = den * LaurentQA.from_q(curly_q(v))
    return num, den, den_atoms


# small ints, ints next to the byte boundaries of the packed digits, and
# Fractions of either sign
locus_ints = st.one_of(st.integers(-9, 9), st.sampled_from(
    [s * (2 ** (8 * k - 1) + d) for k in (1, 2, 3) for d in (-1, 0, 1) for s in (1, -1)]))
locus_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12))
locus_laurents = st.dictionaries(
    st.integers(-30, 30), st.one_of(locus_ints, locus_fractions), min_size=1, max_size=6
).map(LaurentQ)  # exponents in sixths: the whole 1/6 lattice
locus_polys = st.dictionaries(
    st.lists(st.integers(1, 5), max_size=5).map(tuple),  # () and mixed degrees
    st.one_of(locus_ints, locus_fractions, locus_laurents),
    max_size=6,
).map(PowerSumPoly)


@given(locus_polys)
@example(PowerSumPoly.zero())
@example(PowerSumPoly({(): Fraction(-7, 6)}))
@example(PowerSumPoly({(): LaurentQ({-1: 2, 5: -3}), (3, 1, 1): 1}))
def test_locus_matches_schoolbook(f):
    num, den, den_atoms = schoolbook_locus(f)
    got = topological_locus(f)
    assert got.num.terms == num.terms
    assert got.den.terms == den.terms
    # coefficients in canonical form: a Fraction only when not integral
    assert all(type(c) is int or c.denominator != 1 for c in got.num.terms.values())


def test_locus_refuses_other_coefficients(monkeypatch):
    # a bad coefficient anywhere in the polynomial is refused before the
    # monomials are planned or anything is packed
    calls = []
    monkeypatch.setattr(symfun, "_locus_plan", lambda *args: calls.append(args))
    monkeypatch.setattr(symfun, "curly_atom_quotient", lambda *args: calls.append(args))
    for f in (PowerSumPoly({(1,): LaurentQA.monomial(1, a=1)}),
              PowerSumPoly({(2,): 1, (1, 1): 0.5}),
              PowerSumPoly({(1,): 0.5, (2,): LaurentQ({6: 1})})):
        with pytest.raises(TypeError):
            topological_locus(f)
    assert calls == []


def test_second_locus_over_the_same_monomials_plans_nothing(monkeypatch):
    # the atom lists and the denominator are planned once per tuple of
    # monomials: another polynomial over the same monomials reuses them
    f = extended_homfly(braid_word("5_2"), 3)
    g = PowerSumPoly({lam: 7 * c for lam, c in f.terms.items()})
    assert tuple(g.terms) == tuple(f.terms)
    first = [topological_locus(h).render() for h in (f, g)]
    calls = []
    monkeypatch.setattr(symfun, "atom_list", lambda atoms: calls.append(atoms))
    second = [topological_locus(h).render() for h in (f, g)]
    monkeypatch.undo()
    assert calls == []
    assert second == first


def _sha256_of_renders(values):
    return hashlib.sha256("\n".join(v.render() for v in values).encode()).hexdigest()


def test_locus_of_schur_polynomials_is_pinned():
    # recorded from the term-by-term substitution (one bivariate product per atom)
    got = _sha256_of_renders(
        topological_locus(schur_in_powersums(d)) for d in diagrams_up_to(9))
    assert got == "a89ea7836ef7cbdfd35518ed8b1ffc394e590e25d3da8fe78c9a8e75c5044884"


def test_locus_of_extended_polynomials_is_pinned():
    # the knots at r = 2, and 3_1 and 5_2 at r = 3, recorded as above
    pairs = [(k, 2) for k in KNOT_NAMES] + [("3_1", 3), ("5_2", 3)]
    got = _sha256_of_renders(
        topological_locus(extended_homfly(braid_word(k), r)) for k, r in pairs)
    assert got == "538b25c15e29b9cf37ca92859d4f096a2492477aef90cab4eb114ef15cb52fdf"


# ---------------------------------------------------------------------------
# cube identity

@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cube_identity(r):
    sr = schur_in_powersums(YoungDiagram([r]))
    cube = expand_in_schur(sr * sr * sr, 3 * r)
    blocks = {spec.Q: spec.multiplicity for spec in cube_blocks(r)}
    assert {Q: int(c) for Q, c in cube.items() if c} == blocks
