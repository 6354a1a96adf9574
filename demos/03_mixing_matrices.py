"""Orthogonal mixing matrices from two independent constructions.

Each multiplicity-N block carries a diagonal twist matrix with eigenvalues
(-1)^j q^(...) and an orthogonal matrix U that switches between the two
bracketing orders of the triple tensor product.  U is built here twice:

- ``racah_su2(N, p)``: the recoupling sum (the q-6j formula of Kirillov
  and Reshetikhin) evaluated in factored quantum integers [n], shown here
  entry by entry over radical-extension scalars;
- ``racah_from_eigenvalues(xi, N)``: reconstructed from nothing but the
  normalized twist eigenvalues, with signs pinned by exact orthogonality.

Both are certified exactly: U U^T = I, entry by entry, with no numerics
anywhere.
"""

from homfly3.racah import (
    certify_orthogonal,
    mat_mul,
    mat_transpose,
    normalized_eigenvalues,
    racah_from_eigenvalues,
    racah_su2,
)

N, p = 2, 1
u = racah_su2(N, p)
print("recoupling-sum U(%d|%d):" % (N, p))
for i, row in enumerate(u):
    for j, entry in enumerate(row):
        print("  [%d][%d] = %s" % (i, j, entry.render()))
print()

certify_orthogonal(u)
print("orthogonality certificate: U U^T = I holds exactly")
identity = mat_mul(u, mat_transpose(u))
print("  top-left entry of U U^T:", identity[0][0].render())
print()

xi = normalized_eigenvalues(N, p)
print("normalized twist eigenvalues:", ", ".join(x.render() for x in xi))
v = racah_from_eigenvalues(xi, N)
print("eigenvalue reconstruction equals the recoupling sum:", u == v)
print()

# a bigger block: the 3x3 mixing matrix at p = 2
u3 = racah_su2(3, 2)
certify_orthogonal(u3)
print("U(3|2) row 0:")
for j, entry in enumerate(u3[0]):
    print("  [0][%d] = %s" % (j, entry.render()))
print()
print("sign rule: U[j][i] = (-1)^(i+j) U[i][j]")
print("  U[1][0] = %s" % u3[1][0].render())
print("  U[0][1] = %s" % u3[0][1].render())
