"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here (symbolic checks are zero-tolerance,
the one floating point check is the 1e-9 relative Weil bound).
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from wildinv import addpoly, counts, espgroup, invariants, quotient, rootsys, sympmod
from wildinv.addpoly import AdditivePoly
from wildinv.ambient import required_degree
from wildinv.errors import AmbientGuardError
from wildinv.ff import field_create
from wildinv.numth import v2

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_INPUTS = {
    "g1_p3_f1_x3_m1_curve": ["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve"],
    "g2_p3_f2_x3_m2": ["report", "-p", "3", "-f", "2", "-R", "1", "-e", "1", "-m", "2"],
    "g3_p3_f1_x3_m2": ["report", "-p", "3", "-f", "1", "-R", "1", "-e", "1", "-m", "2"],
    "g4_p5_f1_x5_m1_curve": ["report", "-p", "5", "-f", "1", "-R", "1", "-e", "1", "-m", "1", "--curve"],
    "g5_p2_f2_x2x8_m1_curve": ["report", "-p", "2", "-f", "2", "-R", "0;1;0;1", "-e", "3", "-m", "1", "--curve"],
    "g6_p3_f1_x_x3_m1": ["report", "-p", "3", "-f", "1", "-R", "1;1", "-e", "1", "-m", "1"],
}


def _ok(n, msg):
    print(f"\n[criterion {n}] PASS: {msg}")


def random_nonzero_poly(F, e, rng):
    while True:
        cs = [F.el([rng.randrange(F.p) for _ in range(F.n)]) for _ in range(e + 1)]
        f = AdditivePoly(F, cs)
        if not f.is_zero() and f.p_degree == e:
            return f


# ---------------------------------------------------------------------------


def test_criterion_1_pairing_identity():
    """Exact bivariate identity of the pairing, 100+ random instances, < 10 s."""
    t0 = time.time()
    rng = random.Random(1001)
    checked = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            F = field_create(p, n)
            for _ in range(12):
                e = rng.randint(1 if p == 2 else 0, 3)
                R = random_nonzero_poly(F, e, rng)
                assert addpoly.pairing_identity_residual(R) == {}, (p, n, e, R)
                checked += 1
    took = time.time() - t0
    assert checked >= 100
    assert took < 10, f"criterion 1 runtime {took:.1f}s exceeds 10s"
    _ok(1, f"pairing identity exact on {checked} random instances in {took:.2f}s")


def test_criterion_2_extra_special_structure():
    """Full enumeration of the group for (3,1), (5,1), (3,2), < 30 s."""
    t0 = time.time()
    cases = [
        (3, 1, AdditivePoly.from_ints(field_create(3, 1), [0, 1])),
        (5, 1, AdditivePoly.from_ints(field_create(5, 1), [0, 1])),
        (3, 2, AdditivePoly.from_ints(field_create(3, 1), [0, 0, 1])),
        (3, 2, AdditivePoly.from_ints(field_create(3, 1), [0, 1, 1])),
    ]
    for p, e, R in cases:
        ctx = espgroup.GroupContext(R, 1)
        res = espgroup.analyze(ctx)
        assert res["order"] == p ** (2 * e + 1), (p, e)
        assert res["center_order"] == p, (p, e)
        assert res["commutator_order"] == p, (p, e)
        assert res["is_extra_special"], (p, e)
        # the quotient by the center has the kernel-space size
        assert res["order"] // res["center_order"] == p ** (2 * e)
    took = time.time() - t0
    assert took < 30, f"criterion 2 runtime {took:.1f}s exceeds 30s"
    _ok(2, f"extra-special structure confirmed for (3,1), (5,1), (3,2) in {took:.2f}s")


def test_criterion_3_swan():
    """Closed-form conductor values, and degree x max jump identity, exact."""
    for m in (1, 2, 3):
        assert invariants.swan_conductor(3, 1, 4, m) == m
    rng = random.Random(1003)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        e = rng.randint(1 if p == 2 else 0, 3)
        divisors = [d for d in range(1, p ** e + 2) if (p ** e + 1) % d == 0]
        d_R = rng.choice(divisors)
        m = rng.randint(1, 40)
        prof = invariants.ramification_profile(p, e, d_R, m)
        assert p ** e * prof.jumps[-1] == invariants.swan_conductor(p, e, d_R, m)
        assert prof.jumps[-1] == Fraction((p ** e + 1) * m, p ** e * d_R)
    _ok(3, "conductor formula exact for m in {1,2,3} and 20 random profiles")


def _criterion4_instances():
    """All e = 1 inputs over F_3 plus 20 deterministic e = 2 samples."""
    F3 = field_create(3, 1)
    F9 = field_create(3, 2)
    out = []
    for a0 in range(3):
        for a1 in range(1, 3):
            R = AdditivePoly.from_ints(F3, [a0, a1])
            for m in (1, 2, 4):  # m = 3 is excluded: it is not prime to p
                out.append((R, m))
    rng = random.Random(1004)
    sampled = 0
    while sampled < 20:
        F = F9 if rng.random() < 0.5 else F3
        R = random_nonzero_poly(F, 2, rng)
        m = rng.choice([1, 2, 4, 5, 7])
        try:
            if required_degree(R, m) > 25:
                continue
        except AmbientGuardError:
            continue
        out.append((R, m))
        sampled += 1
    return out


@pytest.fixture(scope="module")
def criterion4_results():
    results = []
    for R, m in _criterion4_instances():
        M = sympmod.build(R, m)
        anis, witness = sympmod.completely_anisotropic(M)
        oracle = sympmod.all_stable_submodules(M)
        dec = sympmod.decomposition_witness(R, m, module=M)
        results.append((R, m, M, anis, witness, oracle, dec))
    return results


def test_criterion_4_route_equivalence(criterion4_results):
    """The scan verdict matches the exhaustive lattice oracle; imprimitive
    witnesses give an exact skew decomposition and a verified descent, < 5 min."""
    t0 = time.time()
    n_imprimitive = 0
    for R, m, M, anis, witness, oracle, dec in criterion4_results:
        isotropic = [s for s in oracle if s.isotropic]
        assert anis == (not isotropic), f"scan and lattice oracle disagree at (R={R}, m={m})"
        if not anis:
            n_imprimitive += 1
            assert witness.dim == min(s.dim for s in isotropic), (R, m)
            f1, f2, sub = dec
            assert addpoly.compose(f1, f2) == M.context.E_amb, (R, m)
            assert sub.signature() == witness.signature() and f2.p_degree == witness.dim, (R, m)
            ind = quotient.iterated_quotient(R, m, witness)
            ok, reasons = quotient.verify_morphism(R, ind.R1, ind.r, ind.delta, m)
            assert ok, f"descent route failed at (R={R}, m={m}): {reasons}"
    took = time.time() - t0
    assert took < 300, f"criterion 4 runtime {took:.1f}s exceeds 5 min"
    total = len(criterion4_results)
    assert n_imprimitive > 0, "sample must exercise the imprimitive branch"
    _ok(
        4,
        f"scan matches the lattice oracle on {total} instances; decomposition and "
        f"descent verified on {n_imprimitive} imprimitive ones in {took:.1f}s",
    )


def test_criterion_5_legendre_example():
    """Direct-sum anisotropy tracks the Legendre symbol, exact, < 1 min."""
    t0 = time.time()
    for p in (3, 5, 7):
        Fp = field_create(p, 1)
        m2 = next(
            m for m in range(2, 30) if m % p != 0 and gcd(m, p + 1) == 1 and m != 1
        )
        for a in range(1, p):
            R1 = AdditivePoly.from_ints(Fp, [0, 1])
            R2 = AdditivePoly.from_ints(Fp, [0, a])
            assert addpoly.twisted_scaling_order(R1, 1) == p + 1
            assert addpoly.twisted_scaling_order(R2, m2) == p + 1
            A, B = sympmod.build_pair(R1, 1, R2, m2)
            DS = sympmod.direct_sum(A, B)
            anis = sympmod.anisotropic_of(DS)
            legendre_minus_a = pow(-a % p, (p - 1) // 2, p)
            assert anis == (legendre_minus_a == p - 1), (p, a)
    took = time.time() - t0
    assert took < 60, f"criterion 5 runtime {took:.1f}s exceeds 1 min"
    _ok(5, f"Legendre dichotomy exact for p in (3,5,7), all units, in {took:.1f}s")


def test_criterion_6_monomial_criterion():
    """gcd(p^e + 1, m) = 1 forces a primitive verdict, found by search, < 2 min."""
    t0 = time.time()
    p = 3
    n_checked = 0
    for e in (1, 2):
        for f in (1, 2):
            F = field_create(p, f)
            units = [F.one(), F.constant(2)] if f == 1 else [F.one(), F.gen(), F.gen() + 1]
            ms = [m for m in (1, 5, 7, 11) if gcd(p ** e + 1, m) == 1 and m % p != 0][:2]
            for a_e in units:
                R = AdditivePoly(F, [F.zero()] * e + [a_e])
                for m in ms:
                    M = sympmod.build(R, m)
                    anis, _ = sympmod.completely_anisotropic(M)
                    assert anis, (e, f, a_e, m)
                    n_checked += 1
    took = time.time() - t0
    assert took < 120, f"criterion 6 runtime {took:.1f}s exceeds 2 min"
    _ok(6, f"monomial coprime-m inputs all primitive by search ({n_checked} cases) in {took:.1f}s")


def test_criterion_7_quotient_identities(criterion4_results):
    """Every imprimitive instance yields a descent datum passing all exact checks."""
    n = 0
    for R, m, M, anis, witness, *_ in criterion4_results:
        if anis:
            continue
        ind = quotient.iterated_quotient(R, m, witness)
        ok, reasons = quotient.verify_morphism(R, ind.R1, ind.r, ind.delta, m)
        assert ok, reasons
        assert ind.R1.degree == R.p ** ind.e_prime
        assert addpoly.is_reduced(ind.r)
        assert addpoly.is_rational_over(ind.r, R.base.n)
        assert addpoly.is_rational_over(ind.R1, R.base.n)
        d_Rm = addpoly.twisted_scaling_order(R, m)
        assert addpoly.scaling_order(ind.R1) % d_Rm == 0
        assert addpoly.mu_scaling(ind.r, d_Rm)
        n += 1
    assert n > 0
    _ok(7, f"descent data verified symbolically on {n} imprimitive instances")


def test_criterion_8_root_systems():
    """Monomial invariants: closed forms equal brute-force scans; types follow
    the 2-adic dichotomy and the parity of c. Exact."""
    p = 3
    n_checked = 0
    for f in (1, 2, 4):
        F = field_create(p, f)
        units = [F.one()] if f == 4 else [F.one(), F.constant(2) if f == 1 else F.gen()]
        if f == 4:
            units.append(F.gen())
        for e in (1, 2, 3):
            for a_e in units:
                W, inv = rootsys.monomial_root_system(p, f, e, a_e, 1)
                # closed forms (re-derived here) against the scan route
                brute = rootsys.invariants(W)
                e1 = gcd(f, 2 * e)
                assert brute == inv
                assert inv.a == 2 * e // e1 and inv.b == e1
                assert (f * inv.c - e1) % (2 * e) == 0
                label, _ = rootsys.classify(W)
                if v2(e) >= v2(f):
                    assert label == "A", (f, e)
                else:
                    assert inv.a % 2 == 1 and inv.b % 2 == 0 and e % (inv.b // 2) == 0
                    assert label == ("B" if inv.c % 2 == 0 else "C"), (f, e)
                n_checked += 1
    _ok(8, f"root-system closed forms and type predictions exact on {n_checked} monomials")


def test_criterion_9_curve_verification():
    """Zeta degree, integrality, exact Weil bound, Kronecker supersingularity
    and character L-degrees for three curves, < 3 min."""
    t0 = time.time()
    cases = [
        (3, 1, [0, 1]),
        (3, 2, [0, 1]),
        (5, 1, [0, 1]),
    ]
    for p, f, ints in cases:
        F = field_create(p, f)
        R = AdditivePoly.from_ints(F, ints)
        e = R.p_degree
        Z = counts.zeta_numerator(R)
        assert len(Z.coeffs) - 1 == (p - 1) * p ** e
        assert all(isinstance(c, int) for c in Z.coeffs)
        assert Z.weil_bounds_ok(), (p, f)
        assert counts.check_supersingular(Z), (p, f)
        for c in range(1, p):
            L = counts.psi_l_polynomial(R, c)
            assert L.degree == p ** e, (p, f, c)
        assert counts.psi_l_product_equals_zeta(R, Z)
    took = time.time() - t0
    assert took < 180, f"criterion 9 runtime {took:.1f}s exceeds 3 min"
    _ok(9, f"curve data exact (3 curves, Weil at 1e-9, Kronecker) in {took:.1f}s")


def _run_cli_capture(argv):
    import contextlib
    import io

    from wildinv.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code == 0, argv
    return buf.getvalue()


def test_criterion_10_determinism_goldens():
    """Six pinned reports byte-identical: in-process and across two fresh runs."""
    assert GOLDEN_DIR.is_dir()
    for name, argv in GOLDEN_INPUTS.items():
        pinned = (GOLDEN_DIR / f"{name}.json").read_bytes()
        got = _run_cli_capture(argv).encode()
        assert got == pinned, f"golden drift for {name}"
    # two fresh interpreter runs agree with the pin for a representative input
    name = "g2_p3_f2_x3_m2"
    argv = GOLDEN_INPUTS[name]
    outs = []
    for _ in range(2):
        r = subprocess.run(
            [sys.executable, "-m", "wildinv.cli", *argv],
            capture_output=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        outs.append(r.stdout)
    assert outs[0] == outs[1] == (GOLDEN_DIR / f"{name}.json").read_bytes()
    _ok(10, f"{len(GOLDEN_INPUTS)} golden reports byte-identical across runs")
