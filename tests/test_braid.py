"""Braid words, character traces, and the reduced/extended assembly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfly3.braid import (
    Braid3Word,
    NonPolynomialResult,
    antisymmetric_dual,
    character_coefficients,
    closure_components,
    extended_homfly,
    jones_polynomial,
    reduced_homfly,
    special_polynomial,
)
from homfly3.qpoly import LaurentQ, LaurentQA, substitute
from homfly3.symfun import adams, expand_in_schur, schur_in_powersums
from homfly3.young import YoungDiagram, kappa

UNKNOT_WORDS = ["1,1", "-1,-1", "1,-1", "-1,1", "1,1|-1,-1"]


def torus_word(n):
    return Braid3Word.parse("|".join(["1,1"] * n))


# ---------------------------------------------------------------------------
# word handling

def test_parse_render_roundtrip():
    w = Braid3Word.parse(" 1 , -1 | 1 , 3 ")
    assert w.blocks == ((1, -1), (1, 3))
    assert w.render() == "1,-1|1,3"
    assert str(w) == "1,-1|1,3"
    assert w.writhe == 4


def test_parse_rejects_malformed():
    for bad in ["1", "1,2,3", "1,a", "", "1,2|"]:
        with pytest.raises(ValueError):
            Braid3Word.parse(bad)


def test_closure_components():
    assert closure_components(Braid3Word.parse("1,1")) == 1
    assert closure_components(Braid3Word.parse("0,0")) == 3
    assert closure_components(Braid3Word.parse("1,0")) == 2
    assert closure_components(Braid3Word.parse("2,0")) == 3
    assert closure_components(torus_word(3)) == 3
    assert closure_components(Braid3Word.parse("2,-1|1,-2")) == 1


# ---------------------------------------------------------------------------
# unknots and invariance

@pytest.mark.parametrize("word", UNKNOT_WORDS)
@pytest.mark.parametrize("r", [1, 2])
def test_unknot_words_reduce_to_one(word, r):
    assert reduced_homfly(Braid3Word.parse(word), r) == LaurentQA.one()


@pytest.mark.parametrize("r", [3, 4])
def test_unknot_higher_rank(r):
    assert reduced_homfly(Braid3Word.parse("1,-1"), r) == LaurentQA.one()


@pytest.mark.parametrize("r", [1, 2])
def test_markov_stabilized_word(r):
    base = reduced_homfly(Braid3Word.parse("1,1"), r)
    padded = reduced_homfly(Braid3Word.parse("1,1|0,0"), r)
    assert base == padded


@pytest.mark.parametrize("r", [1, 2])
def test_mirror_is_invert(r):
    left = reduced_homfly(Braid3Word.parse("-1,-1|-1,-1"), r)
    right = reduced_homfly(Braid3Word.parse("1,1|1,1"), r)
    assert left == substitute(right, "invert")


def test_r1_polynomial_symmetric_under_dual():
    # [1] is its own transpose, so q -> -1/q must fix the r=1 polynomial
    h = reduced_homfly(Braid3Word.parse("-1,-1|-1,-1"), 1)
    assert antisymmetric_dual(h) == h


def test_specializations_are_substitutions():
    h = reduced_homfly(Braid3Word.parse("-1,-1|-1,-1"), 1)
    assert special_polynomial(h) == substitute(h, "q->1")
    assert jones_polynomial(h) == substitute(h, "A->q^2").pure_q()
    assert special_polynomial(h).render() == "-A^4 + 2*A^2"


# ---------------------------------------------------------------------------
# identity braid: the full character sum is the Schur cube

@pytest.mark.parametrize("r", [1, 2])
def test_identity_braid_extended_is_schur_cube(r):
    sr = schur_in_powersums(YoungDiagram([r]))
    assert extended_homfly(Braid3Word.parse("0,0"), r) == sr * sr * sr


def test_identity_braid_reduced_fails():
    with pytest.raises(NonPolynomialResult):
        reduced_homfly(Braid3Word.parse("0,0"), 1)


def test_three_component_torus_closure_fails_reduction():
    with pytest.raises(NonPolynomialResult):
        reduced_homfly(torus_word(3), 1)


# ---------------------------------------------------------------------------
# torus words: Adams-rule coefficients and the normalized trace pattern

@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_torus_character_coefficients_fit_adams_rule(n, r):
    # C_Q = G * q^(2 n kappa(Q) / 3) * c_Q with one global monomial G fixed
    # by the Q = [3r] slot; the acceptance suite extends this to n = 4, 5
    cs = character_coefficients(torus_word(n), r).coefficients
    c_adams = expand_in_schur(adams(schur_in_powersums(YoungDiagram([r])), 3), 3 * r)
    top = YoungDiagram([3 * r])
    assert c_adams[top] == 1
    g = cs[top] * LaurentQ.monomial(1, Fraction(-2 * n * kappa(top), 3))
    for Q, got in cs.items():
        c = c_adams.get(Q, Fraction(0))
        want = (
            g
            * LaurentQ.monomial(1, Fraction(2 * n * kappa(Q), 3))
            * LaurentQ.const(int(c))
        )
        assert got == want, (n, r, Q)


@pytest.mark.parametrize("n,expect", [(1, -1), (2, -1), (3, 2), (4, -1), (5, -1), (6, 2)])
def test_torus_mixed_block_trace_pattern(n, expect):
    # the 2x2 block at r=1 has twist eigenvalues q and -1/q, so the trace of
    # the n-th transfer power is -1 for n = 3k +- 1 and 2 for n = 3k
    cs = character_coefficients(torus_word(n), 1).coefficients
    assert cs[YoungDiagram([2, 1])] == LaurentQ.const(expect)


# ---------------------------------------------------------------------------
# random knot words: independent oracles for the packed block trace

@st.composite
def knot_words(draw):
    """4-8 blocks with |exponent| <= 4, nudged to a one-component closure."""
    exps = st.integers(-4, 4)
    (a, b), *rest = draw(st.lists(st.tuples(exps, exps), min_size=4, max_size=8))

    def nudge(x, d):
        return x + d if x + d <= 4 else x - d

    # flipping the parities of the first block reaches every coset of the
    # rest's strand permutation that holds a 3-cycle
    for da, db in ((0, 0), (1, 0), (0, 1), (1, 1)):
        word = Braid3Word(((nudge(a, da), nudge(b, db)), *rest))
        if closure_components(word) == 1:
            return word
    raise AssertionError("no parity choice closes to a knot")


@pytest.mark.parametrize("r,examples", [(2, 25), (3, 12)])
def test_random_knot_words_against_oracles(r, examples):
    @settings(max_examples=examples)
    @given(knot_words(), st.integers(1, 7))
    def check(word, k):
        h = reduced_homfly(word, r)
        h1 = reduced_homfly(word, 1)
        assert special_polynomial(h) == special_polynomial(h1) ** r
        k %= len(word.blocks)
        rotated = Braid3Word(word.blocks[k:] + word.blocks[:k])
        assert reduced_homfly(rotated, r) == h
        mirror = Braid3Word(tuple((-a, -b) for a, b in word.blocks))
        assert reduced_homfly(mirror, r) == substitute(h, "invert")

    check()
