"""homfly3: exact colored HOMFLY polynomials for 3-strand braids.

The package computes extended and reduced HOMFLY polynomials of knots
presented as 3-strand braid words, colored by symmetric representations
[r] with r <= 4 (and their antisymmetric duals), through the character
expansion of the braid-group image: per irreducible block a triangular
pair in its eigenvalues alone, certified by its mixing matrix, assembled
into exact Laurent polynomials in A and q.  All arithmetic is exact;
nothing here ever touches a float.

Submodules
----------
qpoly   exact Laurent polynomial arithmetic in q and (A, q)
radext  factored quantum numbers +-q^(u/6) prod Phi_d(q^2)^e: products,
        quotients and square roots as exponent arithmetic
young   Young diagrams, framing weights, block bookkeeping
symfun  Schur polynomials in power sums, Adams maps, cut-and-join
racah   each block's triangular pair, certified by its mixing matrix
        (rho, V, c) from the recoupling sum
racah_eigen
        the mixing matrix from the eigenvalues alone, the recoupling
        sum's cross-check
braid   character expansion and the polynomial invariants themselves
knotdb  the bundled table of verified polynomials
cli     the ``homfly3`` command-line tool
"""

__version__ = "0.1.0"

from .qpoly import (  # noqa: F401
    LaurentQ,
    LaurentQA,
    quantum_int,
    curly_bracket,
    substitute,
)
from .braid import (  # noqa: F401
    Braid3Word,
    NonPolynomialResult,
    antisymmetric_dual,
    character_coefficients,
    expansion_polynomial,
    extended_homfly,
    jones_polynomial,
    reduce_expansion,
    reduced_homfly,
    special_polynomial,
)
