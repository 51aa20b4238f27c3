#!/usr/bin/env python3
# The primitivity pipeline: anisotropy of the module, the equivalent skew
# decomposition of the E-polynomial, and the explicit descent datum that
# witnesses an induced structure.

from wildinv import (
    AdditivePoly,
    build,
    completely_anisotropic,
    decomposition_witness,
    field_create,
    iterated_quotient,
    primitivity,
    verify_morphism,
)
from wildinv.quotient import nonzero_terms

F9 = field_create(3, 2)
R = AdditivePoly(F9, [F9.zero(), F9.one()])  # x^3 over F_9

# m = 1 keeps the full scaling group mu_4 and the module has no isotropic
# stable submodule: the attached structure is primitive
M1 = build(R, 1)
print("m = 1:", "anisotropic" if completely_anisotropic(M1)[0] else "not anisotropic")

# m = 2 halves the scaling group; a stable isotropic line appears and the
# E-polynomial factors accordingly
M2 = build(R, 2)
ok, witness = completely_anisotropic(M2)
print("m = 2:", "anisotropic" if ok else f"witness line, basis {witness.field_elements()}")

f1, f2, _ = decomposition_witness(M2)
print("skew factorization of E: outer", f1, " inner", f2)

# the descent datum rewrites x R(x) through the degree-3 map r and produces
# the smaller polynomial R1, with every identity checked symbolically
ind = iterated_quotient(witness)
print("\ndescent map r:", ind.r)
print("descended polynomial R1:", ind.R1)
print("correction Delta terms:", nonzero_terms(ind.delta))
print("index of the induced-from extension:", ind.index)
ok, reasons = verify_morphism(R, ind.R1, ind.r, ind.delta, 2)
print("independent re-verification:", ok, reasons)

# the orchestrator scans once and checks the witness by decomposition and descent
res = primitivity(R, 2)
print("\nverdict:", res.kind)

# a primitive-but-unstable case: over the base the verdict is primitive, yet
# a small unramified extension flips it
F3 = field_create(3, 1)
res2 = primitivity(AdditivePoly.from_ints(F3, [0, 1]), 2)
print("x^3 over F_3, m = 2:", res2.kind, " degree:", res2.unramified_degree)
