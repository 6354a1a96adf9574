"""Young-diagram combinatorics for the 3-strand character expansion.

Covers the framing/twist weights kappa, the two-strand pair decomposition
[r] x [r] = (+) [2r-j, j], the selection rules carving [r]^(x3) into
irreducible blocks with their multiplicities, and the hook-content product
form of the quantum dimension on the topological locus.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import NamedTuple

from .qpoly import LaurentQA, curly_atom_sum, curly_q_product

SUPPORTED_R = (1, 2, 3, 4)


class YoungDiagram:
    """A partition, stored as a weakly decreasing tuple of positive rows."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(index(x) for x in rows if x != 0)
        for a, b in zip(rows, rows[1:]):
            if b > a:
                raise ValueError("rows must be weakly decreasing: %r" % (rows,))
        if any(x < 0 for x in rows):
            raise ValueError("rows must be positive: %r" % (rows,))
        self.rows = rows

    # -- basic structure ------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.rows)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if isinstance(other, YoungDiagram):
            return self.rows == other.rows
        if isinstance(other, tuple):
            return self.rows == other
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        return self.rows < other.rows

    def transpose(self) -> "YoungDiagram":
        if not self.rows:
            return YoungDiagram(())
        cols = [0] * self.rows[0]
        for row in self.rows:
            for j in range(row):
                cols[j] += 1
        return YoungDiagram(cols)

    def cells(self):
        """All cells as (row, col), 1-based."""
        for i, row in enumerate(self.rows, start=1):
            for j in range(1, row + 1):
                yield (i, j)

    def contents(self):
        """col - row over all cells, row by row."""
        return [j - i for (i, j) in self.cells()]

    def hooks(self):
        """Hook lengths over all cells, row by row."""
        t = self.transpose().rows
        out = []
        for i, row in enumerate(self.rows, start=1):
            for j in range(1, row + 1):
                out.append(row - j + t[j - 1] - i + 1)
        return out

    def padded(self, n: int):
        """Rows padded with zeros to length n."""
        if len(self.rows) > n:
            raise ValueError("diagram has more than %d rows" % n)
        return self.rows + (0,) * (n - len(self.rows))

    # -- text format -----------------------------------------------------------

    def render(self) -> str:
        return "[%s]" % ",".join(str(x) for x in self.rows)

    @staticmethod
    def parse(s: str) -> "YoungDiagram":
        body = s.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("diagram must look like [l,m,n]: %r" % s)
        inner = body[1:-1].strip()
        if not inner:
            return YoungDiagram(())
        return YoungDiagram(int(x) for x in inner.split(","))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return "YoungDiagram(%s)" % (self.rows,)


def kappa(T: YoungDiagram) -> int:
    """Sum of (col - row) over the cells: the twist/framing weight.

    >>> kappa(YoungDiagram([2]))
    1
    >>> kappa(YoungDiagram([4, 2]))
    5
    >>> kappa(YoungDiagram([6]))
    15
    """
    if not isinstance(T, YoungDiagram):
        T = YoungDiagram(T)
    return sum(j - i for (i, j) in T.cells())


def pair_exponent(r: int, j: int) -> int:
    """kappa of [2r-j, j]: the two-strand eigenvalue exponent 2r^2-(2j+1)r+j(j-1)."""
    return 2 * r * r - (2 * j + 1) * r + j * (j - 1)


def pair_decomposition(r: int):
    """[r] x [r] on two strands: [(diagram [2r-j, j], sign (-1)^j, exponent)].

    The eigenvalue attached to [2r-j, j] is sign * q^exponent with
    exponent = kappa([2r-j, j]).  The engine reads the exponents from
    pair_exponent alone; this function stays as the tests' reference that
    the closed form is kappa of the two-strand diagrams.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    out = []
    for j in range(r + 1):
        T = YoungDiagram([2 * r - j, j])
        sign = -1 if j % 2 else 1
        exp = pair_exponent(r, j)
        assert exp == kappa(T)
        out.append((T, sign, exp))
    return out


class BlockSpec(NamedTuple):
    """One irreducible block Q of [r]^(x3) with its j-range."""

    Q: YoungDiagram
    r: int
    j_min: int
    j_max: int

    @property
    def multiplicity(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def p(self) -> int:
        """The argument of the equal-argument mixing-matrix family."""
        return self.r - self.j_min


def _partitions_3rows(total: int):
    for l in range(total, (total + 2) // 3 - 1, -1):
        for m in range(min(l, total - l), -1, -1):
            n = total - l - m
            if 0 <= n <= m:
                yield (l, m, n)


def cube_blocks(r: int):
    """All blocks Q of [r]^(x3), r <= 4, with j-ranges from the selection rules.

    For Q = [l, m, n] (padded with zeros) the allowed j run from
    j_min = max(2r - l, n) to j_max = min(m, r, 2r - m); diagrams with an
    empty range do not occur.  The tuple is built once per color and shared.
    """
    if r not in SUPPORTED_R:
        raise ValueError("r = %r is outside the supported range %s" % (r, SUPPORTED_R))
    return _cube_blocks(r)


@lru_cache(maxsize=None)
def _cube_blocks(r):
    out = []
    for (l, m, n) in _partitions_3rows(3 * r):
        j_min = max(2 * r - l, n, 0)
        j_max = min(m, r, 2 * r - m)
        if j_min <= j_max:
            out.append(BlockSpec(Q=YoungDiagram((l, m, n)), r=r, j_min=j_min, j_max=j_max))
    return tuple(out)


class FractionQA:
    """A fraction over the (A, q) Laurent ring, kept unreduced.

    Equality is cross-multiplication, so no bivariate gcd is ever needed.
    The reduced polynomial does not go through this class: braid cancels
    the hook-content atoms of S_Q* and S_[r]* itself.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQA, den: LaurentQA):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def same_value(self, other: "FractionQA") -> bool:
        return self.num * other.den == other.num * self.den

    def __eq__(self, other):
        if not isinstance(other, FractionQA):
            return NotImplemented
        return self.same_value(other)

    def __hash__(self):
        raise TypeError("FractionQA is not hashable (equality is by value)")

    def render(self) -> str:
        return "(%s)/(%s)" % (self.num.render(), self.den.render())

    def __repr__(self):
        return "FractionQA(%s)" % self.render()


def hook_content_dimension(Q: YoungDiagram) -> FractionQA:
    """S_Q on the topological locus, as the hook-content product.

    Numerator: prod over cells of {A q^(col-row)}; denominator: prod over
    cells of {q^hook}.  The power-sum substitution in symfun reproduces the
    same value; the two paths cross-check each other.  The value depends on
    the rows only and is computed once per diagram; callers share the
    returned FractionQA and must not modify it.
    """
    if not isinstance(Q, YoungDiagram):
        Q = YoungDiagram(Q)
    return _hook_content_dimension(Q.rows)


@lru_cache(maxsize=None)
def _hook_content_dimension(rows) -> FractionQA:
    Q = YoungDiagram(rows)
    num = curly_atom_sum([({0: 1}, [(1, c) for c in Q.contents()])])
    return FractionQA(LaurentQA(num), LaurentQA.from_q(curly_q_product(Q.hooks())))
