#!/usr/bin/env python3
# The extra-special group of an additive polynomial and the symplectic module
# its commutators cut out on the kernel space.

from wildinv import AdditivePoly, analyze, build, commutator, field_create, multiply
from wildinv.espgroup import GroupContext
from wildinv.linalg import mat_mul, transpose

F3 = field_create(3, 1)
R = AdditivePoly.from_ints(F3, [0, 1])  # x^3

# the group lives on triples (scaling root, kernel vector, Artin-Schreier
# coordinate); with the scaling root frozen to 1 it is extra-special
ctx = GroupContext(R, 1)
H = ctx.h_elements()
print("|H| =", len(H), " (p^(2e+1) = 27)")

g, h = H[5], H[16]
print("a product:", multiply(g, h))
c = commutator(g, h)
print("a commutator (central, scalar gamma):", c)

info = analyze(ctx)
print("analysis:", info)

# the same data seen linearly: kernel space with Gram matrix and two actions
M = build(R, 1)
print("\nmodule dimension:", M.dim)
print("Gram matrix over F_3:\n", M.gram)
print("scaling action T:\n", M.T)
print("Frobenius action S:\n", M.S)

# the commutator pairing and the module pairing are the same numbers
b0, b1 = M.basis
print("\nomega(b0, b1) =", M.context.omega(b0, b1))
print("commutator gamma between lifted basis vectors matches:",
      ctx.context.omega(b0, b1) == M.context.omega(b0, b1))

# both actions preserve the pairing: A^t G A = G for A = T, S (matrices are
# lists of int rows)
p = M.p
print("T preserves omega:", mat_mul(transpose(M.T), mat_mul(M.gram, M.T, p), p) == M.gram)
print("S preserves omega:", mat_mul(transpose(M.S), mat_mul(M.gram, M.S, p), p) == M.gram)
