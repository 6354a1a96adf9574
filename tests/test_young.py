"""Young diagrams, framing weights, block bookkeeping."""

from collections import Counter

import pytest

from homfly3.qpoly import LaurentQA, curly_bracket
from homfly3.young import (
    BlockSpec,
    YoungDiagram,
    cube_blocks,
    hook_content_dimension,
    kappa,
    pair_decomposition,
    pair_exponent,
)


def partitions(n, max_part=None):
    """All partitions of n as weakly-decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# diagrams

def test_diagram_basics():
    d = YoungDiagram([4, 2, 1])
    assert d.size == 7
    assert len(d) == 3
    assert tuple(d) == (4, 2, 1)
    assert d.transpose() == YoungDiagram([3, 2, 1, 1])
    assert d.transpose().transpose() == d
    assert YoungDiagram.parse("[4,2,1]") == d
    assert YoungDiagram.parse(d.render()) == d


def test_diagram_rejects_bad_rows():
    with pytest.raises(ValueError):
        YoungDiagram([1, 2])  # not weakly decreasing
    with pytest.raises(ValueError):
        YoungDiagram([2, -1])


def test_contents_and_hooks():
    d = YoungDiagram([2, 1])
    assert sorted(d.contents()) == [-1, 0, 1]
    assert sorted(d.hooks()) == [1, 1, 3]
    row = YoungDiagram([4])
    assert sorted(row.contents()) == [0, 1, 2, 3]
    assert sorted(row.hooks()) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# kappa (cut-and-join weight)

def test_kappa_anchors():
    assert kappa(YoungDiagram([4, 2])) == 5
    assert kappa(YoungDiagram([6])) == 15
    assert kappa(YoungDiagram([1])) == 0
    assert kappa(YoungDiagram([3])) == 3
    assert kappa(YoungDiagram([1, 1, 1])) == -3


def test_kappa_transpose_antisymmetry():
    for n in range(13):
        for rows in partitions(n):
            if not rows:
                continue
            d = YoungDiagram(rows)
            assert kappa(d) + kappa(d.transpose()) == 0


# ---------------------------------------------------------------------------
# pair decomposition (two-strand eigenvalues)

@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_pair_decomposition_structure(r):
    rows = pair_decomposition(r)
    assert len(rows) == r + 1
    for j, (T, sign, exp) in enumerate(rows):
        assert T == YoungDiagram([2 * r - j, j] if j else [2 * r])
        assert sign == (-1) ** j
        assert exp == kappa(T)
        assert exp == 2 * r * r - (2 * j + 1) * r + j * (j - 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_eigenvalue_exponents_strictly_decreasing(r):
    for spec in cube_blocks(r):
        exps = [pair_exponent(r, j) for j in range(spec.j_min, spec.j_max + 1)]
        assert all(a > b for a, b in zip(exps, exps[1:]))


# ---------------------------------------------------------------------------
# cube blocks vs the printed block table

# (l, m, n) -> (j_min, j_max, multiplicity), transcribed from the source
# table; the r=2 column there omits [2,2,2], which the selection rules
# produce (j = 2 only) and the full decomposition requires.
PRINTED_TABLE = {
    2: {
        (6, 0, 0): (0, 0, 1),
        (5, 1, 0): (0, 1, 2),
        (4, 2, 0): (0, 2, 3),
        (4, 1, 1): (1, 1, 1),
        (3, 3, 0): (1, 1, 1),
        (3, 2, 1): (1, 2, 2),
    },
    3: {
        (9, 0, 0): (0, 0, 1),
        (8, 1, 0): (0, 1, 2),
        (7, 2, 0): (0, 2, 3),
        (7, 1, 1): (1, 1, 1),
        (6, 3, 0): (0, 3, 4),
        (6, 2, 1): (1, 2, 2),
        (5, 4, 0): (1, 2, 2),
        (5, 3, 1): (1, 3, 3),
        (5, 2, 2): (2, 2, 1),
        (4, 4, 1): (2, 2, 1),
        (4, 3, 2): (2, 3, 2),
        (3, 3, 3): (3, 3, 1),
    },
    4: {
        (12, 0, 0): (0, 0, 1),
        (11, 1, 0): (0, 1, 2),
        (10, 2, 0): (0, 2, 3),
        (10, 1, 1): (1, 1, 1),
        (9, 3, 0): (0, 3, 4),
        (9, 2, 1): (1, 2, 2),
        (8, 4, 0): (0, 4, 5),
        (8, 3, 1): (1, 3, 3),
        (8, 2, 2): (2, 2, 1),
        (7, 5, 0): (1, 3, 3),
        (7, 4, 1): (1, 4, 4),
        (7, 3, 2): (2, 3, 2),
        (6, 6, 0): (2, 2, 1),
        (6, 5, 1): (2, 3, 2),
        (6, 4, 2): (2, 4, 3),
        (6, 3, 3): (3, 3, 1),
        (5, 5, 2): (3, 3, 1),
        (5, 4, 3): (3, 4, 2),
        (4, 4, 4): (4, 4, 1),
    },
}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_block_table_matches_printed(r):
    blocks = {
        tuple(spec.Q.padded(3)): (spec.j_min, spec.j_max, spec.multiplicity)
        for spec in cube_blocks(r)
    }
    for q, triple in PRINTED_TABLE[r].items():
        assert blocks[q] == triple, (r, q)
    extra = set(blocks) - set(PRINTED_TABLE[r])
    assert extra == ({(2, 2, 2)} if r == 2 else set())


def test_cube_blocks_r1():
    blocks = {
        tuple(spec.Q.padded(3)): (spec.j_min, spec.j_max, spec.multiplicity)
        for spec in cube_blocks(1)
    }
    assert blocks == {
        (3, 0, 0): (0, 0, 1),
        (2, 1, 0): (0, 1, 2),
        (1, 1, 1): (1, 1, 1),
    }


def test_cube_blocks_rejects_unsupported_rank():
    with pytest.raises(ValueError):
        cube_blocks(5)
    with pytest.raises(ValueError):
        cube_blocks(0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_blockspec_p_relation(r):
    for spec in cube_blocks(r):
        assert spec.p == r - spec.j_min
        assert spec.multiplicity == spec.j_max - spec.j_min + 1
        assert 1 <= spec.multiplicity <= r + 1


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cube_blocks_hold_the_color_atoms(r):
    # braid.reduce_expansion cancels S_[r]*'s atoms before packing: every
    # block's contents contain those of [r], and the common hook
    # denominator contains the hooks of [r]
    common = Counter()
    for spec in cube_blocks(r):
        assert not Counter(range(r)) - Counter(spec.Q.contents()), spec.Q
        common |= Counter(spec.Q.hooks())
    assert not Counter(range(1, r + 1)) - common


# ---------------------------------------------------------------------------
# hook/content dimension factors

def _curly_A_q(c):
    return curly_bracket(LaurentQA.monomial(1, a=1, qexp=c))


def test_hook_content_dimension_row():
    d = hook_content_dimension(YoungDiagram([1]))
    assert d.num == _curly_A_q(0)

    d2 = hook_content_dimension(YoungDiagram([2]))
    assert d2.num == _curly_A_q(0) * _curly_A_q(1)


def test_hook_content_dimension_hook_shape():
    d = hook_content_dimension(YoungDiagram([2, 1]))
    assert d.num == _curly_A_q(-1) * _curly_A_q(0) * _curly_A_q(1)
