import functools
import json
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from wildinv import ff, rootsys
from wildinv.addpoly import AdditivePoly
from wildinv.cli import parse_additive_poly
from wildinv.errors import AmbientGuardError, ValidationError
from wildinv.ff import canonical_root_of_unity, field_create
from wildinv.numth import multiplicative_order
from wildinv.rootsys import (
    RootSystem,
    belongs,
    classify,
    invariants,
    matches_module,
    monomial_root_system,
    nu_label,
    same_root_system,
)
from wildinv.sympmod import build, build_pair, completely_anisotropic, direct_sum

from reference import detect_doubled_type_a, least_root_matches_module, v2


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
    assert nu_label("none") == "n/a"
    # doubled type-A configuration from the Legendre pair with -a a non-residue
    p = 3
    Fp = field_create(p, 1)
    R1 = AdditivePoly.from_ints(Fp, [0, 1])
    R2 = AdditivePoly.from_ints(Fp, [0, 1])  # a = 1: -1 non-residue mod 3
    A, B = build_pair(R1, 1, R2, 5)
    DS = direct_sum(A, B)
    assert completely_anisotropic(DS)[0]
    W1, _ = monomial_root_system(p, 1, 1, 1, 1)
    W2, _ = monomial_root_system(p, 1, 1, 1, 5)
    assert detect_doubled_type_a(W1, W2, True) == "(M(W),2)"


def test_matches_module_refuses_a_direct_sum():
    from test_sympmod import x3_sum_with_witness

    DS, _ = x3_sum_with_witness()
    W, _ = monomial_root_system(3, 1, 1, 1, 1)  # any W: the module is refused first
    with pytest.raises(ValidationError, match="direct sum"):
        matches_module(DS, W)


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


# ---------------------------------------------------------------------------
# matches_module against the least-root reference

ROOT = Path(__file__).parent.parent


def _batch_inputs():
    """The 200 frozen inputs of the benchmark's batch workload."""
    doc = json.loads((ROOT / "perfbench" / "batch_inputs.json").read_text())
    return doc["timed"] + doc["warmup"]


@functools.lru_cache(maxsize=None)
def _sweep():
    """(key, module, its own root system) for the monomial a_e x^{p^e} with
    p <= 7, f <= 3, e <= 3, m <= 8, p^{4ef} <= 2^40 and a_e in {1, -1, the
    generator of F_{p^f}}, wherever the monomial formulas apply."""
    out = []
    for p in (2, 3, 5, 7):
        for f in (1, 2, 3):
            for e in (1, 2, 3):
                if p ** (4 * e * f) > 2 ** 40:
                    continue
                F = field_create(p, f)
                for a in dict.fromkeys([F.one(), -F.one(), F.gen()]):
                    for m in range(1, 9):
                        if m % p == 0:
                            continue
                        try:
                            W, _ = monomial_root_system(p, f, e, a, m)
                            M = build(AdditivePoly(F, [F.zero()] * e + [a]), m)
                        except (ValidationError, AmbientGuardError):
                            continue
                        out.append(((p, f, e, a.coords, m), M, W))
    return out


def _branch(M, W):
    """Which test decides matches_module: "match", or the first failing one."""
    if matches_module(M, W):
        return "match"
    inv = invariants(W)
    if M.dim != inv.a * inv.b:
        return "dimension"
    if rootsys._beta_image(W, M.context.alpha) is None:
        return "minimal polynomial"
    if any(
        M.element([row[col] for row in M.T]) != M.context.alpha * eta
        for col, eta in enumerate(M.basis)
    ):
        return "scaling"
    return "eigenvalue"


def test_matches_module_agrees_with_the_reference_on_the_sweep():
    # each module against its own root system, and against the root systems
    # of the other a_e with the same (p, f, e, m), which differ in beta
    cases = _sweep()
    assert len(cases) == 291
    by_input = {}
    for key, M, W in cases:
        by_input.setdefault((key[:3], key[4]), []).append((M, W))
    branches = {}
    for (pfe, m), group in by_input.items():
        for M, _ in group:
            for _, W in group:
                got = matches_module(M, W)
                assert got == least_root_matches_module(M, W), (pfe, m)
                f, e = pfe[1], pfe[2]
                key = (_branch(M, W), (2 * e) % f != 0)
                branches[key] = branches.get(key, 0) + 1
    # both verdicts and each False branch that a sweep module reaches; f !| 2e
    # makes f odd, so beta = -1 and every eigenvalue failure has f | 2e
    assert set(branches) == {
        ("match", False), ("match", True),
        ("minimal polynomial", False), ("minimal polynomial", True),
        ("eigenvalue", False),
    }


def test_matches_module_agrees_with_the_reference_on_the_batch_inputs():
    seen = 0
    for spec in _batch_inputs():
        p, f, e, m = spec["p"], spec["f"], spec["e"], spec["m"]
        R = parse_additive_poly(spec["R"], p, f, e)
        if e < 1 or any(not c.is_zero() for c in R.coeffs[:-1]):
            continue
        try:
            W, _ = monomial_root_system(p, f, e, R.coeffs[-1], m)
        except ValidationError:
            continue
        M = build(R, m)
        assert matches_module(M, W) == least_root_matches_module(M, W), spec["name"]
        seen += 1
    assert seen == 69


def _golden_cases():
    for path in sorted((ROOT / "tests" / "golden").glob("g[1-4]_*.json")):
        doc = json.loads(path.read_text())
        inp = doc["input"]
        p, f, e, m = inp["p"], inp["f"], inp["e"], inp["m"]
        coeffs = [ff.parse_element(c) for c in inp["R"]["coeffs"]]
        if doc["root_system"]["applicable"]:
            W, _ = monomial_root_system(p, f, e, coeffs[-1], m)
            M = build(AdditivePoly(coeffs[0].field, coeffs), m)
            yield path.name, M, W, doc["root_system"]["matches_module"]


def test_matches_module_keeps_the_golden_verdicts_without_a_least_root(monkeypatch):
    cases = list(_golden_cases())
    assert [name[:2] for name, *_ in cases] == ["g1", "g4"]
    for name, M, W, want in cases:
        assert least_root_matches_module(M, W) == want, name

    def no_root(*args):
        raise AssertionError("matches_module must not find an embedding root")

    monkeypatch.setattr(rootsys, "_BETA_IMAGES", {})
    monkeypatch.setattr(ff, "_least_root", no_root)
    monkeypatch.setattr(ff, "_embedding_matrix", no_root)
    monkeypatch.setattr(ff, "embed", no_root)
    for name, M, W, want in cases:
        assert matches_module(M, W) == want, name


@pytest.mark.parametrize("e,want", [(5, False), (6, False)])
def test_matches_module_keeps_the_recorded_p3_verdicts(e, want):
    # recorded from `report -p 3 -f 1 -R 1 -e 5|6 -m 1` with the least-root check
    F3 = field_create(3, 1)
    W, _ = monomial_root_system(3, 1, e, 1, 1)
    M = build(AdditivePoly(F3, [F3.zero()] * e + [F3.one()]), 1)
    assert matches_module(M, W) is want
    # the verdict is the minimal polynomial's: the module's alpha is not a
    # conjugate of W's alpha
    assert rootsys._beta_image(W, M.context.alpha) is None


def test_matches_module_false_branches():
    cases = {key: (M, W) for key, M, W in _sweep()}
    # minimal polynomial: the module's alpha is not a conjugate of W's
    M, W = cases[7, 1, 1, (1,), 1]
    assert _branch(M, W) == "minimal polynomial" and not least_root_matches_module(M, W)
    # eigenvalue, with the module's own root system and with another a_e's
    M, W = cases[5, 2, 1, (0, 1), 1]
    assert _branch(M, W) == "eigenvalue" and not least_root_matches_module(M, W)
    M, _ = cases[3, 2, 1, (1, 0), 1]
    _, W = cases[3, 2, 1, (0, 1), 1]
    assert _branch(M, W) == "eigenvalue" and not least_root_matches_module(M, W)
    # dimension: a root system of another e
    M, _ = cases[3, 1, 1, (1,), 1]
    _, W = cases[3, 1, 2, (1,), 1]
    assert _branch(M, W) == "dimension" and not least_root_matches_module(M, W)
    # scaling: a broken T, against a root system the module matches
    M, W = cases[3, 2, 1, (1, 0), 1]
    assert matches_module(M, W)
    T = [list(row) for row in M.T]
    T[0][-1] = (T[0][-1] + 1) % M.p
    V = _AlteredModule(M, T=T)
    assert _branch(V, W) == "scaling" and not least_root_matches_module(V, W)


def test_matches_module_uses_the_twisted_translates():
    # W = (zeta_3, zeta_3) over F_4 with q = 2: a = b = 2. Under iota the
    # translate (i, j) = (1, 1) has alpha^{2 * 2^-1} = alpha and eigenvalue
    # iota(beta)^2, which only the pair with j = 1 reaches. The four basis
    # vectors, eta and alpha eta twice over, are eigenvectors for the
    # eigenvalue lam; a kernel basis could not be, as its eigenvalue is
    # fixed by Frob^f
    F2, F4, F64 = field_create(2, 1), field_create(2, 2), field_create(2, 6)
    z4 = canonical_root_of_unity(F4, 3)
    W = RootSystem(z4, z4, 1)
    assert (invariants(W).a, invariants(W).b) == (2, 2)
    alpha = canonical_root_of_unity(F64, 3)
    ctx = SimpleNamespace(R=AdditivePoly(F2, [F2.zero(), F2.one()]), alpha=alpha, base=F2)
    block = [[0, 1], [1, 1]]  # alpha * alpha = alpha + 1 on (eta, alpha eta)
    T = [row + [0, 0] for row in block] + [[0, 0] + row for row in block]
    for lam_power, want in [(2, True), (1, True), (0, False)]:
        lam = alpha ** lam_power
        eta = next(x for x in F64.elements() if not x.is_zero() and x ** 3 == lam)
        M = SimpleNamespace(context=ctx, dim=4, ambient=F64, p=2, T=T)
        M.basis = [eta, alpha * eta, eta, alpha * eta]
        M.element = functools.partial(_AlteredModule.element, M)
        assert matches_module(M, W) is want, lam_power
        assert least_root_matches_module(M, W) is want, lam_power


def test_matches_module_needs_beta_in_the_field_of_alpha():
    # alpha = 1 and beta of order 8: F_p(alpha) = F_3 does not hold beta
    F9 = field_create(3, 2)
    M, _ = {key: (M, W) for key, M, W in _sweep()}[3, 1, 1, (1,), 1]
    W = RootSystem(F9.one(), canonical_root_of_unity(F9, 8), 1)
    assert invariants(W).a * invariants(W).b == 2 == M.dim
    with pytest.raises(ValidationError, match="F_p\\(alpha\\)"):
        matches_module(M, W)
