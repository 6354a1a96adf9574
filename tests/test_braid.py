"""Braid words, character traces, and the reduced/extended assembly."""

import copy
import pickle
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homfly3 import braid
from homfly3.braid import (
    Braid3Word,
    CharacterExpansion,
    NonPolynomialResult,
    _block_trace,
    _canonical,
    _digits_at_least,
    _digit_count,
    _factor,
    _full_twist,
    _norm_width,
    _reduction_plan,
    _trace_of_product,
    antisymmetric_dual,
    character_coefficients,
    closure_components,
    expansion_polynomial,
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
    _support_step,
    curly_q,
    laurent_divexact,
    pack_matrix,
    pack_signed,
    signed_width,
    substitute,
    unpack_signed,
)
from homfly3.knotdb import KNOT_NAMES, braid_word
from homfly3.racah import NotIntertwined, build_block, twisted_basis
from homfly3.symfun import (
    PowerSumPoly,
    adams,
    expand_in_schur,
    schur_in_powersums,
    topological_locus,
)
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


def test_records_are_immutable_values():
    # ==, hash, repr, immutability and copying by field, as a frozen
    # dataclass has them
    w = Braid3Word([(1, -1), (1, 3)])
    assert w == Braid3Word(blocks=((1, -1), (1, 3)))
    assert hash(w) == hash(Braid3Word.parse("1,-1|1,3"))
    assert w != Braid3Word(((1, -1),)) and w != ((1, -1), (1, 3))
    assert repr(w) == "Braid3Word(blocks=((1, -1), (1, 3)))"
    assert copy.deepcopy(w) == pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(ValueError):
        Braid3Word(())
    expansion = character_coefficients(w, 1)
    assert expansion == CharacterExpansion(1, dict(expansion.coefficients))
    assert repr(expansion).startswith("CharacterExpansion(r=1, coefficients={")
    for record, name in ((w, "blocks"), (expansion, "r")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError):
        hash(expansion)


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
    # by the Q = [3r] slot; the acceptance suite extends this to n = 4, 5,
    # 7, 8, 16 and 49 at r = 1..4
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
        xi = build_block(spec).eigenvalues
        n = len(xi)
        if n == 1:
            out[spec.Q] = xi[0] ** word.writhe
            continue
        rho, v, c = twisted_basis(n, spec.p)
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


def short_words(max_blocks, bound=3):
    exps = st.integers(-bound, bound)
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


@pytest.mark.parametrize("r,examples", [(1, 40), (2, 20), (3, 10), (4, 3)])
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


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_three_component_closure_names_its_lowest_a_slice(r):
    expansion = character_coefficients(Braid3Word.parse("1,1|1,1|1,1"), r)
    with pytest.raises(NonPolynomialResult) as err:
        reduce_expansion(expansion, 6)
    assert str(err.value) == ("quantum-dimension denominator does not divide "
                              "the character sum (A-slice %d)" % (-2 * r))


def test_a_slice_that_divides_does_not_stop_the_one_that_does_not():
    # at r = 1 the numerator of this two-component closure divides in
    # A-slice -2 and not in A-slice 0: the error names slice 0
    word = Braid3Word.parse("1,-1|-2,3")
    assert closure_components(word) == 2
    with pytest.raises(NonPolynomialResult, match=r"\(A-slice 0\)$"):
        reduced_homfly(word, 1)


def _program_length(r):
    expansion = character_coefficients(braid_word("4_1"), r)
    plan, _ = _reduction_plan(r, tuple(expansion.coefficients))
    return sum(len(factors) for _, factors, _ in plan.program)


@pytest.mark.parametrize("r, most", [(1, 9), (2, 40), (3, 90), (4, 180)])
def test_reduction_program_shares_the_atoms_of_the_c_q(r, most):
    # term by term the C_Q's atoms take 9, 56, 156 and 342 shift-subtractions
    # at r = 1..4; factoring out the atoms they share takes at most 9, 40,
    # 90 and 180
    assert _program_length(r) <= most


@pytest.mark.parametrize("r, most", [(1, 8), (2, 38), (3, 86), (4, 176)])
def test_greedy_reduction_program_is_shorter(r, most):
    # the greedy factoring of the shared atoms takes 8, 38, 86 and 176
    assert _program_length(r) <= most


def test_second_request_at_a_color_makes_no_new_plan():
    reduced_homfly(braid_word("4_1"), 3)
    misses = _reduction_plan.cache_info().misses
    reduced_homfly(braid_word("5_2"), 3)
    assert _reduction_plan.cache_info().misses == misses


def reference_expansion_polynomial(expansion):
    """sum_Q C_Q * S_Q as written: a LaurentQ-by-Fraction product per
    diagram and power-sum monomial, summed in Fractions."""
    acc = PowerSumPoly.zero()
    for Q, c in expansion.coefficients.items():
        acc = acc + c * schur_in_powersums(Q)
    return acc


@pytest.mark.parametrize("r,examples", [(1, 8), (2, 5), (3, 3)])
def test_expansion_polynomial_is_the_product_sum(r, examples):
    @settings(max_examples=examples)
    @given(knot_words(), st.booleans(), st.sampled_from((1, Fraction(-2, 3))))
    @example(Braid3Word.parse("0,0"), False, 1)
    @example(braid_word("4_1"), True, 1)
    def check(word, zero, scale):
        coeffs = {Q: c * scale for Q, c in character_coefficients(word, r).coefficients.items()}
        if zero:  # a zero C_Q, at [3r]
            coeffs[max(coeffs)] = LaurentQ.zero()
        expansion = CharacterExpansion(r, coeffs)
        got, want = expansion_polynomial(expansion), reference_expansion_polynomial(expansion)
        assert got == want
        assert got.render() == want.render()
        assert all(type(x) is int or x.denominator > 1
                   for c in got.terms.values() for x in c.terms.values())

    check()


# ---------------------------------------------------------------------------
# the recoupling trace: the triangular engine's independent oracle

def _recoupling_products(rho, v):
    """T[i][j][t] = rho_i rho_t V_it V_jt as (exponents, coefficients)."""
    n = len(rho)
    return [[[tuple(zip(*(rho[i] * rho[t] * v[i][t] * v[j][t]).terms.items())) or ((), ())
              for t in range(n)] for j in range(n)] for i in range(n)]


def _shifted_sum(ta, tb, row):
    """Terms of sum_t xi_i^a xi_t^b T_ijt, from (shift, sign) of each power."""
    da, sa = ta
    acc = {}
    for (db, sb), (exps, coeffs) in zip(tb, row):
        d = da + db
        if sa == sb:
            for e, c in zip(exps, coeffs):
                acc[e + d] = acc.get(e + d, 0) + c
        else:
            for e, c in zip(exps, coeffs):
                acc[e + d] = acc.get(e + d, 0) - c
    return {e: c for e, c in acc.items() if c}


def recoupling_trace(block, word):
    """C_Q = Tr prod_i R^{a_i} U R^{b_i} U^T from the mixing triple.

    Each factor is D_a V D_b V^T with D_x = diag(rho_j xi_j^x), a sum of
    shifted, sign-flipped T_ijt, packed once; the trace of the packed
    product is divided by c^(2L).  This is the engine the triangular pairs
    replaced, kept here as their reference.
    """
    xi = block.eigenvalues
    size = len(xi)
    if size == 1:
        return xi[0] ** word.writhe
    rho, v, c = twisted_basis(size, block.spec.p)
    products = _recoupling_products(rho, v)
    # xi_j = sign_j q^(e_j / 6), so xi_j^x = sign_j^x q^(x e_j / 6)
    monos = [next(iter(x.terms.items())) for x in xi]
    factors = {}
    for a, b in set(word.blocks):
        ta = [(a * e, s if a % 2 else 1) for e, s in monos]
        tb = [(b * e, s if b % 2 else 1) for e, s in monos]
        factors[a, b] = [[_shifted_sum(ta[i], tb, products[i][j])
                          for j in range(size)] for i in range(size)]
    lo = {ab: min(min(t) for row in m for t in row if t) for ab, m in factors.items()}
    step = gcd(*(e - lo[ab] for ab, m in factors.items()
                 for row in m for t in row for e in t)) or 1
    norms = {ab: [[sum(map(abs, t.values())) for t in row] for row in m]
             for ab, m in factors.items()}
    width = signed_width(_trace_of_product(word.blocks, norms))
    packed = {ab: [[pack_signed(t, lo[ab], width, step) if t else 0
                    for t in row] for row in m] for ab, m in factors.items()}
    digits = unpack_signed(_trace_of_product(word.blocks, packed), width)
    base = sum(lo[ab] for ab in word.blocks)
    trace = LaurentQ({base + step * k: d for k, d in digits.items()})
    return laurent_divexact(trace, c ** (2 * len(word.blocks)))


def assert_engine_is_the_recoupling_trace(word, r):
    # both the trace of the word as given and the coefficient traced on its
    # canonical blocks, full twists taken out
    coefficients = character_coefficients(word, r).coefficients
    for spec in cube_blocks(r):
        block = build_block(spec)
        got, want = _block_trace(spec, word), recoupling_trace(block, word)
        assert got.terms == want.terms, (word.render(), r, spec.Q)
        assert coefficients[spec.Q].terms == want.terms, (word.render(), r, spec.Q)
        assert all(type(x) is int for x in got.terms.values())


@pytest.mark.parametrize("r,examples", [(1, 30), (2, 20), (3, 12)])
def test_triangular_engine_is_the_recoupling_trace(r, examples):
    @settings(max_examples=examples)
    @given(short_words(8, 4))
    @example(Braid3Word.parse("4,-4|-4,4|4,-4|-4,4|4,-4|-4,4|4,-4|-4,4"))
    @example(Braid3Word.parse("0,0|0,-1"))
    def check(word):
        assert_engine_is_the_recoupling_trace(word, r)

    check()


# the benchmark's long-words requests at its default seed
LONG_WORDS = ["|".join(["1,1"] * n) for n in (4, 5, 7)] + [
    "-1,-2|-3,-3|3,1|-1,-2|2,2|1,3", "-1,1|-2,2|-3,-3|3,-2|-1,3|2,1"]


@pytest.mark.parametrize("words,r", [
    (LONG_WORDS, 3),
    (["|".join(["1,1"] * n) for n in range(4, 17)], 3),
    ([braid_word(name).render() for name in KNOT_NAMES], 4),
], ids=["long-words", "torus-r3", "catalog-r4"])
def test_triangular_engine_is_the_recoupling_trace_on_the_grid(words, r):
    # catalog-r4 reaches block [8,4], the one pair of size 5
    for text in words:
        assert_engine_is_the_recoupling_trace(Braid3Word.parse(text), r)


# ---------------------------------------------------------------------------
# the factors A^x B^y formed in LaurentQ: the reference for the packed ones

def _mat_mul(x, y):
    zero = LaurentQ.zero()
    cols = list(zip(*y))
    return [[sum((s * t for s, t in zip(row, col) if s and t), zero)
             for col in cols] for row in x]


def _power(cache, n):
    """m^n for the triangular m = cache[1], by squaring; cache keeps every
    power formed, m^-1 and its powers under negative keys."""
    if n not in cache:
        if n == 0:
            one, zero = LaurentQ.one(), LaurentQ.zero()
            size = len(cache[1])
            cache[0] = [[one if i == j else zero for j in range(size)]
                        for i in range(size)]
        elif n == -1:
            cache[-1] = _triangular_inverse(cache[1])
        else:
            unit = 1 if n > 0 else -1
            half = _power(cache, unit * (abs(n) // 2))
            square = _mat_mul(half, half)
            cache[n] = _mat_mul(square, _power(cache, unit)) if n % 2 else square
    return cache[n]


def _triangular_inverse(m):
    """Inverse of a triangular matrix with monomial diagonal."""
    size = len(m)
    if any(m[i][j] for i in range(size) for j in range(i)):
        # lower triangular: the transpose of the upper inverse
        return [list(col) for col in zip(*_triangular_inverse(list(zip(*m))))]
    zero = LaurentQ.zero()
    inv = [[zero] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = m[j][j] ** -1
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum((m[i][k] * inv[k][j] for k in range(i + 1, j + 1)),
                             zero) * inv[i][i]
    return inv


def reference_factor(block, x, y):
    """A^x B^y of the block's triangular pair, formed in LaurentQ."""
    return _mat_mul(_power({1: block.upper}, x), _power({1: block.lower}, y))


def pair_step(block):
    return _support_step(*({e for row in m for x in row for e in x.terms}
                           for m in (block.upper, block.lower)))


@pytest.mark.parametrize("r,examples", [(1, 40), (2, 30), (3, 20), (4, 10)])
def test_packed_factors_are_the_reference_factors_packed(r, examples):
    # every block of size > 1 at r = 4 includes [8,4], the one of size 5
    blocks = [build_block(spec) for spec in cube_blocks(r) if spec.multiplicity > 1]
    exps = st.integers(-4, 4)

    @settings(max_examples=examples)
    @given(st.lists(st.tuples(exps, exps), min_size=1, max_size=4), st.integers(0, 2))
    @example([(0, 0), (0, -3), (-2, 0), (2, 2), (2, 2)], 0)
    @example([(-4, -4), (4, -1)], 1)
    def check(pairs, extra):
        for block in blocks:
            step = pair_step(block)
            refs = {ab: reference_factor(block, *ab) for ab in pairs}
            width = extra + max(signed_width(sum(map(abs, t.terms.values())))
                                for f in refs.values() for row in f for t in row)
            for (x, y), f in refs.items():
                exps = [e for row in f for t in row for e in t.terms]
                norms = tuple(tuple(sum(map(abs, t.terms.values())) for t in row) for row in f)
                got, hi = _factor(block.spec, x, y)
                assert (got[0], hi, got[2]) == (min(exps), max(exps), norms)
                assert pack_matrix(got, width, step) == [
                    [pack_signed(t.terms, min(exps), width, step) if t else 0 for t in row]
                    for row in f], (block.spec.Q, x, y)

    check()


def test_factors_hold_term_dicts_of_ints():
    def term_dict(t):
        return type(t) is dict and all(type(v) is int for v in chain(t, t.values()))

    for r in (1, 2, 3, 4):
        for spec in cube_blocks(r):
            if spec.multiplicity > 1:
                for ab in ((0, 0), (3, -2), (-1, 4)):
                    (lo, rows, norms), hi = _factor(spec, *ab)
                    assert type(lo) is int and type(hi) is int, (spec.Q, ab)
                    assert all(term_dict(t) for row in rows for t in row), (spec.Q, ab)
                    assert _factor(spec, *ab) is _factor(spec, *ab)


def test_warm_trace_makes_no_laurent_product(monkeypatch):
    word = Braid3Word.parse("-2,1|3,3|-1,-3|0,2|-2,1")
    first = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(LaurentQ, name)
        monkeypatch.setattr(LaurentQ, name,
                            lambda self, other, real=real: calls.append(1) or real(self, other))
    second = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    monkeypatch.undo()
    assert calls == []
    assert second == first


def test_warm_trace_reads_only_the_generators(monkeypatch):
    # build_block runs on a _generators miss only; a warm request reads no
    # block record, and a size-1 trace at negative writhe keeps int signs
    word = Braid3Word.parse("-1,-1|-1,-1|0,-1")
    first = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    calls = []
    monkeypatch.setattr(braid, "build_block", lambda spec: calls.append(spec))
    second = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    monkeypatch.undo()
    assert calls == []
    assert second == first
    for r, coeffs in first.items():
        for spec in cube_blocks(r):
            c = coeffs[spec.Q]
            assert all(type(x) is int for x in c.terms.values()), spec.Q
            (xi, *rest) = build_block(spec).eigenvalues
            if not rest:
                assert c.terms == (xi ** word.writhe).terms, spec.Q


def test_warm_trace_builds_no_factor(monkeypatch):
    # the integer powers run on a _factor miss only, and each factor is
    # packed once per trace width: a warm request forms no power and packs
    # nothing
    word = Braid3Word.parse("-2,1|3,3|-1,-3|0,2|-2,1|3,3")
    first = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    calls = []
    monkeypatch.setattr(braid, "_power", lambda m, n: calls.append(n))
    monkeypatch.setattr(braid, "pack_matrix", lambda *args: calls.append(args))
    second = {r: character_coefficients(word, r).coefficients for r in (1, 2, 3, 4)}
    monkeypatch.undo()
    assert calls == []
    assert second == first


def test_warm_locus_of_the_extended_polynomial_makes_no_laurent_product(monkeypatch):
    word = braid_word("8_19")
    first = topological_locus(extended_homfly(word, 2))
    calls = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(LaurentQ, name)
        monkeypatch.setattr(LaurentQ, name,
                            lambda self, other, real=real: calls.append(1) or real(self, other))
    second = topological_locus(extended_homfly(word, 2))
    monkeypatch.undo()
    assert calls == []
    assert second.render() == first.render()


@pytest.mark.parametrize("r,examples", [(1, 30), (2, 20), (3, 15), (4, 5)])
def test_budget_lower_bound_is_below_the_packed_size(r, examples):
    # the digit count refused before any power is formed never exceeds the
    # packed trace's: 1 + the factors' exponent spans over the common step
    blocks = [build_block(spec) for spec in cube_blocks(r) if spec.multiplicity > 1]

    @settings(max_examples=examples)
    @given(short_words(8, 4))
    @example(Braid3Word.parse("4,4"))
    @example(Braid3Word.parse("-4,0|0,-4"))
    def check(word):
        for block in blocks:
            step = pair_step(block)
            digits = 1
            for x, y in word.blocks:
                f = reference_factor(block, x, y)
                exps = [e for row in f for t in row for e in t.terms]
                digits += (max(exps) - min(exps)) // step
            assert _digits_at_least(block.spec, word) <= digits

    check()


# ---------------------------------------------------------------------------
# canonical words: runs merged, full twists taken out

@pytest.mark.parametrize("text,blocks,twists", [
    ("|".join(["1,1"] * 7), ((1, 1),), 2),
    ("|".join(["1,1"] * 48), ((0, 0),), 16),
    # (sigma2 sigma1)^3 and Delta^-2 next to a run it leaves behind
    ("0,1|1,1|1,1|1,0", ((0, 0),), 1),
    ("-1,-1|-1,-1|-1,-1|2,0", ((2, 0),), -1),
    # a twist that takes one letter from each outer run
    ("2,1|1,1|1,2", ((1, 1),), 1),
    # a twist across the end of the word: sigma1 Delta^2, cyclically
    ("1,1|1,1|2,1", ((1, 0),), 1),
    # with a twist taken out, runs merge across zero exponents, cancel,
    # and close around the end
    ("1,1|1,0|0,1|1,1|2,0|1,3", ((3, 3),), 1),
    ("1,0|-1,2|1,1|1,1|1,1", ((0, 2),), 1),
    ("1,2|1,1|1,1|1,1|1,0", ((2, 2),), 1),
    ("-1,1|0,-1|1,0|-1,-1|-1,-1|-1,-1", ((0, 0),), -1),
])
def test_canonical_blocks(text, blocks, twists):
    assert _canonical(Braid3Word.parse(text).blocks) == (blocks, twists)


@pytest.mark.parametrize("text", [
    "2,0|1,3", "1,0|-1,2", "1,2|1,0", "1,2|-1,0", "-1,1|0,-1|1,0",
    "|".join(["1,0"] * 20),
])
def test_a_word_without_full_twists_keeps_its_runs(text):
    # runs that could merge across zero exponents or around the end are
    # left as given when no full twist comes out
    blocks = Braid3Word.parse(text).blocks
    got, twists = _canonical(blocks)
    assert got is blocks and twists == 0


def test_twists_across_the_end_cost_each_run_once(monkeypatch):
    # (sigma1 sigma2 sigma1)^k sigma1^3 sigma2^3 (sigma2 sigma1 sigma2)^k
    # nests k full twists across the end of the word: closing the cycle
    # pushes O(1) runs per twist, not the whole word again per twist
    k = 1000
    word = Braid3Word.parse("|".join(["1,1|1,0"] * k + ["3,3"] + ["0,1|1,1"] * k))
    pushed, push = [], braid._push

    def counting(runs, pairs, twists):
        pairs = list(pairs)
        pushed.append(len(pairs))
        return push(runs, pairs, twists)

    monkeypatch.setattr(braid, "_push", counting)
    assert _canonical(word.blocks) == (((3, 3),), k)
    assert sum(pushed) < 3 * len(word.blocks) * 2


def test_a_word_with_nothing_to_rewrite_keeps_its_blocks():
    for name in KNOT_NAMES:
        word = braid_word(name)
        got, twists = _canonical(word.blocks)
        assert got is word.blocks and twists == 0, name


def letters_word(letters):
    """The word of a sequence of letters (generator 0 or 1, sign), one
    block per run of sigma_1 letters and the sigma_2 letters after it."""
    blocks = [[0, 0]]
    for g, s in letters:
        if g == 0 and blocks[-1][1]:
            blocks.append([0, 0])
        blocks[-1][g] += s
    return Braid3Word(map(tuple, blocks))


@st.composite
def twisted_knot_words(draw):
    """A knot word, rotated by a whole number of letters, with one to three
    full twists (sigma_i sigma_j)^{+-3} put in at letter positions."""
    letters = [(g, 1 if e > 0 else -1) for ab in draw(knot_words()).blocks
               for g, e in enumerate(ab) for _ in range(abs(e))]
    turn = draw(st.integers(0, len(letters)))
    letters = letters[turn:] + letters[:turn]
    for _ in range(draw(st.integers(1, 3))):
        s, first = draw(st.sampled_from([1, -1])), draw(st.integers(0, 1))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [(first, s), (1 - first, s)] * 3
    return letters_word(letters)


@pytest.mark.parametrize("r,examples", [(1, 40), (2, 25), (3, 10)])
def test_full_twists_come_out_of_the_trace(r, examples):
    # the coefficient on the canonical blocks times lambda_Q^k is the
    # product-path trace of the word as given
    @settings(max_examples=examples)
    @given(twisted_knot_words())
    @example(letters_word([(0, 1), (1, 1)] * 3 + [(0, -1), (1, -1)] * 3 + [(0, 1), (1, 1)]))
    def check(word):
        coefficients = character_coefficients(word, r).coefficients
        blocks, twists = _canonical(word.blocks)
        for spec in cube_blocks(r):
            assert coefficients[spec.Q].terms == _block_trace(spec, word).terms, \
                (word.render(), r, spec.Q)
            # the canonical trace packs no more bytes than the given one,
            # so the budget on the word as given bounds it; and d prod_k
            # (largest row sum of N_k) bounds the given word's norm trace
            if twists and spec.multiplicity > 1:
                step = braid._generators(spec)[0]
                factors = {ab: _factor(spec, *ab) for ab in set(blocks + word.blocks)}
                norms = {ab: f[2] for ab, (f, _) in factors.items()}
                given = _norm_width(factors, word.blocks) * _digit_count(
                    step, factors, word.blocks)
                assert _norm_width(factors, blocks) * _digit_count(
                    step, factors, blocks) <= given, (word.render(), r, spec.Q)
                assert _trace_of_product(word.blocks, norms) <= spec.multiplicity * prod(
                    max(map(sum, norms[ab])) for ab in word.blocks)

    check()


def test_a_canonical_trace_longer_than_the_given_one_is_not_taken(monkeypatch):
    # should the canonical word's packed trace ever be longer than the
    # word's as given, the block traces the word as given, with no twist
    word = torus_word(7)
    blocks, twists = _canonical(word.blocks)
    count = braid._digit_count

    def longer(step, factors, bs):
        return count(step, factors, bs) + (10 ** 6 if bs is blocks else 0)

    monkeypatch.setattr(braid, "_digit_count", longer)
    monkeypatch.setattr(braid, "_full_twist", lambda spec: pytest.fail("lambda_Q formed"))
    for r in (1, 2, 3):
        for spec in cube_blocks(r):
            assert _block_trace(spec, word, blocks, twists).terms == \
                _block_trace(spec, word).terms == recoupling_trace(build_block(spec), word).terms


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_full_twists_alone_trace_as_the_identity(r):
    # Delta^2k is lambda_Q^k times the identity on a block of size d, so
    # its trace is d lambda_Q^k; lambda_Q^d is the determinant of Delta^2,
    # the product of the eigenvalues to the sixth
    for k in (1, 2, -1):
        word = Braid3Word(((1, 1),) * (3 * k) if k > 0 else ((-1, -1),) * (-3 * k))
        coefficients = character_coefficients(word, r).coefficients
        for spec in cube_blocks(r):
            xi = build_block(spec).eigenvalues
            if len(xi) == 1:
                continue
            e, c = _full_twist(spec)
            got = coefficients[spec.Q].terms
            assert got == {k * e: len(xi) * c ** abs(k)} == _block_trace(spec, word).terms
            det = LaurentQ.one()
            for x in xi:
                det = det * x
            assert (det ** 6).terms == {len(xi) * e: c ** len(xi)}, spec.Q


def test_a_non_central_full_twist_is_refused(monkeypatch):
    # a pair whose (AB)^3 is not a scalar: block [2,1]'s pair at r = 1
    # with its off-diagonal entry of A doubled
    spec = next(s for s in cube_blocks(1) if s.multiplicity > 1)
    step, (a, b) = braid._generators(spec)
    rows = [list(row) for row in a[1][1]]
    rows[0][1] = {e: 2 * c for e, c in rows[0][1].items()}
    bent = tuple(map(tuple, rows))
    fake = spec._replace(j_min=spec.j_min - 1000)  # a key no cache holds
    monkeypatch.setattr(braid, "_generators", lambda s: (step, (
        {1: braid.laurent_matrix(bent), -1: braid.laurent_matrix(braid._inverse(bent))}, b)))
    with pytest.raises(NotIntertwined, match="not a signed monomial times the identity"):
        _full_twist(fake)
    with pytest.raises(NotIntertwined):
        _block_trace(fake, torus_word(4), ((1, 1),), 1)
    # a scalar that is no monomial: AB = (1 + q^step) times the identity
    scalar = {0: 1, step: 1}
    monkeypatch.setattr(braid, "_factor", lambda s, x, y: (
        braid.laurent_matrix(((scalar, {}), ({}, scalar))), step))
    with pytest.raises(NotIntertwined, match="not a signed monomial"):
        _full_twist(fake)


def test_a_word_without_full_twists_certifies_none(monkeypatch):
    # the unknot set-up, and any word with nothing to take out, forms no
    # (AB)^3
    monkeypatch.setattr(braid, "_full_twist", lambda spec: pytest.fail("lambda_Q formed"))
    for r in (1, 2, 3, 4):
        character_coefficients(Braid3Word.parse("1,-1"), r)
        character_coefficients(braid_word("8_19"), r)


def test_torus_reduction_widens_without_running_the_atoms_again(monkeypatch):
    # (sigma1 sigma2)^7 at r = 3: its quotient needs 4-byte digits where
    # its packed sum needs 2, and the sum's digits are spread to the wider
    # width, not packed and summed by the atom program again
    from homfly3 import qpoly
    runs, widths = [], []
    program, product = qpoly._run_program, qpoly._hook_product
    monkeypatch.setattr(qpoly, "_run_program",
                        lambda *args: runs.append(1) or program(*args))
    monkeypatch.setattr(qpoly, "_hook_product",
                        lambda shifts, width: widths.append(width) or product(shifts, width))
    word = torus_word(7)
    h = reduce_expansion(character_coefficients(word, 3), word.writhe)
    monkeypatch.undo()
    assert (runs, widths) == ([1], [2, 4])
    assert h == reduced_homfly(word, 3)
