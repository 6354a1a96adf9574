"""Orthogonal mixing matrices from two independent constructions.

Each multiplicity-N block carries a diagonal twist matrix with eigenvalues
(-1)^j q^(...) and an orthogonal matrix U that switches between the two
bracketing orders of the triple tensor product.  U is kept as an integer
triple (rho, V, c), U = S (V/c) S with S = diag(sqrt(rho_j)), and built
here twice:

- ``twisted_basis(N, p)``: the recoupling sum (the q-6j formula of
  Kirillov and Reshetikhin) evaluated in factored quantum integers [n];
- ``racah_from_eigenvalues(xi)``: from nothing but the normalized twist
  eigenvalues (their product is a plain sign), each squared entry a ratio
  of eigenvalue binomials factored in closed form, and the signs fixed row
  by row by exact orthogonality.

Both are certified exactly, with no numerics anywhere:
V diag(rho) V^T = c^2 diag(1/rho) is U U^T = I, and
V_ji = (-1)^(i+j) V_ij is the sign rule U_ji = (-1)^(i+j) U_ij.
"""

from homfly3.racah import certify_basis, racah_su2, twisted_basis
from homfly3.racah_eigen import normalized_eigenvalues, racah_from_eigenvalues

N, p = 2, 1
rho, v, c = twisted_basis(N, p)
print("recoupling-sum triple for U(%d|%d):" % (N, p))
print("  rho =", ", ".join(x.render() for x in rho))
for i, row in enumerate(v):
    for j, entry in enumerate(row):
        print("  V[%d][%d] = %s" % (i, j, entry.render()))
print("  c =", c.render())
print()

certify_basis(rho, v, c)
print("orthogonality certificate: V diag(rho) V^T = c^2 diag(1/rho) holds exactly")
print("so U = S (V/c) S, entry by entry:")
for i, row in enumerate(racah_su2(N, p)):
    for j, entry in enumerate(row):
        print("  U[%d][%d] = %s" % (i, j, entry))
print()

xi = normalized_eigenvalues(N, p)
print("normalized twist eigenvalues:", ", ".join(x.render() for x in xi))
print("eigenvalue triple equals the recoupling triple:",
      racah_from_eigenvalues(xi) == (rho, v, c))
print()

# a bigger block: the 3x3 mixing matrix at p = 2
rho3, v3, c3 = twisted_basis(3, 2)
certify_basis(rho3, v3, c3)
print("U(3|2): rho =", ", ".join(x.render() for x in rho3), "; c =", c3.render())
print("row 0 of V:")
for j, entry in enumerate(v3[0]):
    print("  V[0][%d] = %s" % (j, entry.render()))
print()
print("sign rule: V[j][i] = (-1)^(i+j) V[i][j]")
print("  V[1][0] = %s" % v3[1][0].render())
print("  V[0][1] = %s" % v3[0][1].render())
print("eigenvalue triple equals the recoupling triple:",
      racah_from_eigenvalues(normalized_eigenvalues(3, 2)) == (rho3, v3, c3))
