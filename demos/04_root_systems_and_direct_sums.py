#!/usr/bin/env python3
# Root systems of monomial inputs, their A/B/C symplectic types, and the
# Legendre-symbol dichotomy for direct sums.

from wildinv import build, classify, field_create, monomial_root_system
from wildinv.addpoly import AdditivePoly
from wildinv.rootsys import matches_module, nu_label
from wildinv.sympmod import build_pair, completely_anisotropic, direct_sum

# a monomial input pins a pair (alpha, beta) of roots of unity up to twist;
# the five integer invariants decide which symplectic type the module has
for (f, e) in [(1, 1), (2, 1), (2, 3), (4, 2)]:
    F = field_create(3, f)
    W, inv = monomial_root_system(3, f, e, F.one(), 1)
    label, structures = classify(W)
    print(f"f={f} e={e}: a={inv.a} b={inv.b} c={inv.c} "
          f"type {label} ({structures} symplectic structure(s)), label {nu_label(label)}")

# the degree-2 case over F_3 realizes its root system on the actual module
F3 = field_create(3, 1)
M = build(AdditivePoly.from_ints(F3, [0, 1]), 1)
W, inv = monomial_root_system(3, 1, 1, 1, 1)
print("\nmodule realizes the defining relations:", matches_module(M, W))
print("dimension equals a*b:", M.dim == inv.a * inv.b)

# direct sums: two e = f = 1 monomials with equal twisted scaling order p+1;
# whether the sum stays completely anisotropic is a Legendre symbol
print("\nLegendre dichotomy for p = 5, m2 = 7:")
p = 5
Fp = field_create(p, 1)
for a in range(1, p):
    R1 = AdditivePoly.from_ints(Fp, [0, 1])
    R2 = AdditivePoly.from_ints(Fp, [0, a])
    A, B = build_pair(R1, 1, R2, 7)
    anis, _ = completely_anisotropic(direct_sum(A, B))
    symbol = pow(-a % p, (p - 1) // 2, p)
    symbol = 1 if symbol == 1 else -1
    print(f"  a={a}: (-a/p) = {symbol:+d}  direct sum "
          f"{'completely anisotropic' if anis else 'has an isotropic submodule'}")
