"""Braid words, character traces, and the reduced/extended assembly."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homfly3.braid import (
    Braid3Word,
    CharacterExpansion,
    NonPolynomialResult,
    antisymmetric_dual,
    character_coefficients,
    closure_components,
    extended_homfly,
    jones_polynomial,
    reduce_expansion,
    reduced_homfly,
    special_polynomial,
)
from homfly3.qpoly import (
    InexactDivision,
    LaurentQ,
    LaurentQA,
    curly_q,
    laurent_divexact,
    substitute,
)
from homfly3.racah import build_block
from homfly3.symfun import adams, expand_in_schur, schur_in_powersums
from homfly3.young import YoungDiagram, cube_blocks, hook_content_dimension, kappa

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


# ---------------------------------------------------------------------------
# schoolbook references for the shift-built factors and the packed reduction

def reference_coefficients(word, r):
    """C_Q with every factor D_a V D_b V^T built entry by entry by products."""
    out = {}
    for spec in cube_blocks(r):
        block = build_block(spec)
        xi, rho, v, c = block.eigenvalues, block.rho, block.V, block.c
        n = len(xi)
        if n == 1:
            out[spec.Q] = xi[0] ** word.writhe
            continue
        acc = None
        for a, b in word.blocks:
            da = [rho[j] * xi[j] ** a for j in range(n)]
            db = [rho[j] * xi[j] ** b for j in range(n)]
            f = [[da[i] * sum((v[i][t] * db[t] * v[j][t] for t in range(n)),
                              LaurentQ.zero()) for j in range(n)] for i in range(n)]
            acc = f if acc is None else [
                [sum((acc[i][t] * f[t][j] for t in range(n)), LaurentQ.zero())
                 for j in range(n)] for i in range(n)]
        trace = sum((acc[i][i] for i in range(n)), LaurentQ.zero())
        den = LaurentQ.one()
        for _ in range(2 * len(word.blocks)):
            den = den * c
        out[spec.Q] = laurent_divexact(trace, den)
    return out


def _curly_product(atoms):
    acc = LaurentQ.one()
    for h in atoms.elements():
        acc = acc * curly_q(h)
    return acc


def _slices(f):
    """f as {A-exponent: LaurentQ coefficient}."""
    out = {}
    for (a, e), c in f.terms.items():
        out.setdefault(a, {})[e] = c
    return {a: LaurentQ(d) for a, d in out.items()}


def _from_slices(slices):
    return LaurentQA({(a, e): c for a, p in slices.items() for e, c in p.terms.items()})


def _divide_pure_q(f, d):
    """Exact division of a two-variable polynomial by a pure-q polynomial."""
    out = {}
    for a, s in _slices(f).items():
        try:
            out[a] = laurent_divexact(s, d)
        except InexactDivision:
            raise NonPolynomialResult("A-slice %d" % a)
    return _from_slices(out)


def _divide_curly_atom(f, content):
    """Exact synthetic division by (A q^c - A^{-1} q^{-c})."""
    if f.is_zero():
        return f
    slices = _slices(f)
    span = max(slices) - min(slices)
    out = {}
    steps = 0
    while slices:
        steps += 1
        if steps > span + 1:
            raise NonPolynomialResult("atom {A q^%d}" % content)
        k = max(slices)
        g = slices.pop(k).shift6(-6 * content)
        out[k - 1] = out.get(k - 1, LaurentQ.zero()) + g
        prev = slices.get(k - 2, LaurentQ.zero()) + g.shift6(-6 * content)
        if prev.is_zero():
            slices.pop(k - 2, None)
        else:
            slices[k - 2] = prev
    return _from_slices(out)


def reference_reduce(expansion, writhe):
    """The slice-wise reduction: one LaurentQA product per diagram and atom group.

    It keeps the full common hook denominator and the content atoms of
    [r], and divides them out again: first by prod {q^h}, one long
    division per A-slice, then by each {A q^c} synthetically.
    """
    r = expansion.r
    color = YoungDiagram([r])
    dims = {Q: hook_content_dimension(Q) for Q in expansion.coefficients}
    common = Counter()
    for Q in dims:
        common |= Counter(Q.hooks())
    total = LaurentQA.zero()
    for Q, c in expansion.coefficients.items():
        fill = _curly_product(common - Counter(Q.hooks()))
        total = total + dims[Q].num * LaurentQA.from_q(c * fill)
    total = total * LaurentQA.from_q(_curly_product(Counter(color.hooks())))
    total = _divide_pure_q(total, _curly_product(common))
    for content in color.contents():
        total = _divide_curly_atom(total, content)
    return total * LaurentQA.monomial(1, a=-r * writhe, qexp=-2 * r * (r - 1) * writhe)


def short_words(max_blocks):
    exps = st.integers(-3, 3)
    return st.lists(st.tuples(exps, exps), min_size=1, max_size=max_blocks).map(
        lambda blocks: Braid3Word(tuple(blocks)))


@pytest.mark.parametrize("r,examples", [(1, 25), (2, 20), (3, 10), (4, 4)])
def test_character_coefficients_match_product_built_factors(r, examples):
    @settings(max_examples=examples)
    @given(short_words(3))
    @example(Braid3Word.parse("0,-2|-1,0"))
    @example(Braid3Word.parse("0,0|-3,1"))
    def check(word):
        got = character_coefficients(word, r).coefficients
        want = reference_coefficients(word, r)
        assert {Q: p.terms for Q, p in got.items()} == {Q: p.terms for Q, p in want.items()}
        assert all(type(x) is int for p in got.values() for x in p.terms.values())

    check()


# a common factor keeps every division exact; 2^k +- 1 moves the packed
# digits across the byte boundaries of the kernel's width
scales = st.one_of(
    st.just(1),
    st.builds(lambda k, d, s: s * (2 ** k + d), st.integers(1, 40),
              st.sampled_from((-1, 0, 1)), st.sampled_from((1, -1))),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9)),
)


@pytest.mark.parametrize("r,examples", [(1, 40), (2, 20), (3, 10)])
def test_reduce_expansion_matches_slice_wise_reference(r, examples):
    @settings(max_examples=examples)
    @given(short_words(6), scales)
    @example(Braid3Word.parse("-1,-1|-1,-1"), 1)  # a knot
    @example(Braid3Word.parse("1,1|1,1|1,1"), 1)  # three components
    @example(Braid3Word.parse("2,0|-1,3"), 1)  # two components
    # at r = 1 these put the packed sum's largest digit in the top byte
    @example(Braid3Word.parse("-1,-1|-1,-1"), 65)
    @example(Braid3Word.parse("2,0|-1,3"), -(2 ** 15 + 1))
    def check(word, scale):
        expansion = character_coefficients(word, r)
        expansion = CharacterExpansion(
            r, {Q: c * scale for Q, c in expansion.coefficients.items()})
        try:
            want = reference_reduce(expansion, word.writhe)
        except NonPolynomialResult:
            with pytest.raises(NonPolynomialResult):
                reduce_expansion(expansion, word.writhe)
            return
        assert reduce_expansion(expansion, word.writhe).terms == want.terms

    check()
