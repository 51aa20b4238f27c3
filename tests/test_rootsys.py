from math import gcd, lcm

import pytest

from wildinv.addpoly import AdditivePoly
from wildinv.errors import ValidationError
from wildinv.ff import canonical_root_of_unity, field_create
from wildinv.numth import multiplicative_order, v2
from wildinv.rootsys import (
    RootSystem,
    belongs,
    classify,
    detect_doubled_type_a,
    invariants,
    matches_module,
    monomial_root_system,
    nu_label,
    same_root_system,
)
from wildinv.sympmod import anisotropic_of, build, build_pair, direct_sum


def test_trivial_system():
    F3 = field_create(3, 1)
    W = RootSystem(F3.one(), F3.one(), 1)
    inv = invariants(W)
    assert (inv.a, inv.b, inv.c, inv.e_prime, inv.f_prime) == (1, 1, 0, 1, 1)
    assert belongs(W, 1, 1)
    assert belongs(W, 4, 2)


def test_monomial_31_invariants():
    F9 = field_create(3, 2)
    alpha = canonical_root_of_unity(F9, 4)
    W = RootSystem(alpha, -F9.one(), 1)
    inv = invariants(W)
    assert (inv.a, inv.b, inv.c) == (2, 1, 1)
    label, count = classify(W)
    assert label == "A" and count == 2


def test_invariants_orbit_independent():
    F9 = field_create(3, 2)
    W = RootSystem(canonical_root_of_unity(F9, 4), -F9.one(), 1)
    base = invariants(W)
    for i in range(4):
        for j in range(2):
            assert invariants(W.translate(i, j)) == base
    assert same_root_system(W, W.translate(3, 1))


@pytest.mark.parametrize("p,f,e", [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (5, 1, 1), (2, 1, 3)])
def test_translate_carries_the_orbit_orders(p, f, e):
    # translates skip element_order; the orders they carry must be the real ones
    from wildinv.ff import element_order

    W, _ = monomial_root_system(p, f, e, 1, 1)
    ordp = multiplicative_order(p, lcm(W.e_prime, W.f_prime))
    for i in range(ordp + 1):
        for j in range(invariants(W).a + 1):
            t = W.translate(i, j)
            assert (t.e_prime, t.f_prime) == (element_order(t.alpha), element_order(t.beta))
            assert (t.p, t.f, t.q) == (W.p, W.f, W.q)


def test_belongs_divisibility():
    F9 = field_create(3, 2)
    W = RootSystem(canonical_root_of_unity(F9, 4), -F9.one(), 1)
    assert not belongs(W, 2, 8)  # e' = 4 does not divide 2
    assert belongs(W, 4, 4)
    with pytest.raises(ValidationError):
        belongs(W, 4, 3)  # q^r != 1 mod d


def test_not_symplectic_case():
    # alpha = 1, beta of order 13: a = 1 odd, b = 3 odd: no case matches
    F27 = field_create(3, 3)
    beta = canonical_root_of_unity(F27, 13)
    W = RootSystem(F27.one(), beta, 1)
    label, count = classify(W)
    assert label == "none" and count == 0


@pytest.mark.parametrize("f", [1, 2, 4])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_monomial_formulas_match_brute_force(f, e):
    Ff = field_create(3, f)
    vals = [Ff.one()]
    if f > 1:
        vals.append(Ff.gen())
    else:
        vals.append(Ff.constant(2))
    for a_e in vals:
        W, inv = monomial_root_system(3, f, e, a_e, 1)
        e1 = gcd(f, 2 * e)
        assert inv.a == 2 * e // e1
        assert inv.b == e1
        assert (f * inv.c - e1) % (2 * e) == 0
        assert inv.a * inv.b == 2 * e
        label, _ = classify(W)
        if v2(e) >= v2(f):
            assert label == "A"
        else:
            assert inv.a % 2 == 1 and inv.b % 2 == 0 and e % (inv.b // 2) == 0
            assert label == ("B" if inv.c % 2 == 0 else "C")


def test_monomial_beta_is_minus_one_when_v2e_ge_v2f():
    # v2(e) >= v2(f) forces the second entry to -1
    for (f, e) in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        Ff = field_create(3, f)
        W, _ = monomial_root_system(3, f, e, Ff.one(), 1)
        assert W.beta == -W.beta.field.one()


def test_monomial_precondition_reported():
    # m sharing a factor with p^e + 1 can shrink the scaling group below 2e
    with pytest.raises(ValidationError):
        monomial_root_system(3, 1, 1, 1, 2)  # d = 2: F_3(mu_2) = F_3 != F_9


def test_matches_module():
    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 1])
    M = build(R, 1)
    W, inv = monomial_root_system(3, 1, 1, 1, 1)
    assert matches_module(M, W)
    assert M.dim == inv.a * inv.b
    assert belongs(W, M.d, M.r)
    # non-monomial rejected
    M2 = build(AdditivePoly.from_ints(F3, [1, 1]), 1)
    with pytest.raises(ValidationError):
        matches_module(M2, W)


@pytest.mark.parametrize("f,e", [(2, 1), (1, 2), (2, 2)])
def test_matches_module_larger_bases(f, e):
    F = field_create(3, f)
    R = AdditivePoly(F, [F.zero()] * e + [F.one()])
    M = build(R, 1)
    W, inv = monomial_root_system(3, f, e, F.one(), 1)
    assert matches_module(M, W)
    assert M.dim == inv.a * inv.b


def test_nu_labels_and_doubled_detection():
    assert nu_label("B") == "(M(W),0)"
    assert nu_label("C") == "(M(W),0)"
    assert nu_label("A") == "n/a"
    assert nu_label("A", doubled=True) == "(M(W),2)"
    assert nu_label("none") == "n/a"
    # doubled type-A configuration from the Legendre pair with -a a non-residue
    p = 3
    Fp = field_create(p, 1)
    R1 = AdditivePoly.from_ints(Fp, [0, 1])
    R2 = AdditivePoly.from_ints(Fp, [0, 1])  # a = 1: -1 non-residue mod 3
    A, B = build_pair(R1, 1, R2, 5)
    DS = direct_sum(A, B)
    assert anisotropic_of(DS)
    W1, _ = monomial_root_system(p, 1, 1, 1, 1)
    W2, _ = monomial_root_system(p, 1, 1, 1, 5)
    assert detect_doubled_type_a(W1, W2, True) == "(M(W),2)"


def _matches_on_every_vector(M, W):
    # the definition, on all p^dim - 1 nonzero kernel vectors
    import itertools
    from math import lcm

    import numpy as np

    from wildinv.ff import embed
    from wildinv.numth import multiplicative_order

    ctx = M.context
    inv = invariants(W)
    if M.dim != inv.a * inv.b:
        return False
    for i in range(multiplicative_order(W.p, lcm(W.e_prime, W.f_prime))):
        for j in range(inv.a):
            t = W.translate(i, j)
            if embed(t.alpha, M.ambient) != ctx.alpha:
                continue
            beta = embed(t.beta, M.ambient)
            if all(
                M.element(v).frobenius(ctx.base.n * inv.a) == beta * M.element(v)
                and M.element((np.array(M.T) @ np.array(v)) % M.p) == ctx.alpha * M.element(v)
                for v in itertools.product(range(M.p), repeat=M.dim)
                if any(v)
            ):
                return True
    return False


class _AlteredModule:
    """A module's data with its kernel basis or scaling matrix replaced."""

    def __init__(self, M, basis=None, T=None):
        self.context, self.dim, self.ambient, self.p = M.context, M.dim, M.ambient, M.p
        self.basis = list(M.basis) if basis is None else basis
        self.T = M.T if T is None else T

    def element(self, coords):
        out = self.ambient.zero()
        for c, b in zip(coords, self.basis):
            out = out + b * int(c)
        return out


def test_matches_module_basis_check_agrees_with_every_vector():
    # modules over F_9 for several leading coefficients against the root
    # systems of other coefficients, plus modules whose last basis vector or
    # scaling matrix is broken: both answers occur, and always agree
    import numpy as np

    F9 = field_create(3, 2)
    coeffs = [F9.one(), F9.gen(), F9.gen() + 1]
    answers = []
    for a in coeffs:
        M = build(AdditivePoly(F9, [F9.zero(), a]), 1)
        broken_basis = list(M.basis[:-1]) + [M.basis[-1] + M.ambient.one()]
        broken_T = np.array(M.T)
        broken_T[:, -1] = (broken_T[:, -1] + 1) % M.p
        broken_T = broken_T.tolist()
        variants = [M, _AlteredModule(M, basis=broken_basis), _AlteredModule(M, T=broken_T)]
        for b in coeffs:
            W, _ = monomial_root_system(3, 2, 1, b, 1)
            for V in variants:
                got = matches_module(V, W)
                assert got == _matches_on_every_vector(V, W), (a, b)
                answers.append(got)
            assert not matches_module(variants[1], W) and not matches_module(variants[2], W)
    assert True in answers and False in answers


def test_scan_bound_check_raises(monkeypatch):
    # the b-scan's bound check is a raise, so it survives python -O
    from wildinv import rootsys
    from wildinv.errors import TheoremViolation

    F9 = field_create(3, 2)
    W = RootSystem(canonical_root_of_unity(F9, 4), -F9.one(), 1)
    monkeypatch.setattr(rootsys, "lcm", lambda *args: 0)
    with pytest.raises(TheoremViolation, match="b-scan"):
        invariants(W)
