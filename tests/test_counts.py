import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildinv.addpoly import AdditivePoly
from wildinv.counts import (
    Cyc,
    ZetaNumerator,
    character_sum,
    check_supersingular,
    curve_summary,
    genus,
    point_count,
    psi_l_polynomial,
    value_distribution,
    zeta_numerator,
)
from wildinv.errors import TheoremViolation, ValidationError
from wildinv.ff import field_create

from reference import (
    brute_force_count,
    circulant_form_data,
    cyclotomic_polynomial,
    field_form_data,
    galois,
    hankel_blocks,
    psi_l_product,
    root_power,
    supersingular_by_cyclotomic_factors,
    zeta_from_conjugates,
)


def poly(p, f, ints):
    F = field_create(p, f)
    return AdditivePoly.from_ints(F, ints)


def test_point_count_example():
    R = poly(3, 1, [0, 1])
    assert point_count(R, 1) == 3


@pytest.mark.parametrize(
    "p,f,ints,kmax",
    [
        (3, 1, [0, 1], 6),
        (3, 2, [0, 1], 3),
        (5, 1, [0, 1], 3),
        (2, 2, [0, 1, 0, 1], 3),
        (2, 1, [0, 1], 6),
        (3, 1, [1], 5),
        (3, 1, [1, 1], 4),
        (3, 1, [2, 0, 1], 3),
        (7, 1, [0, 1], 2),
    ],
)
def test_counts_match_brute_force(p, f, ints, kmax):
    R = poly(p, f, ints)
    for k in range(1, kmax + 1):
        assert point_count(R, k) == brute_force_count(R, k)


def test_counts_divisible_by_p():
    for R in [poly(3, 1, [0, 1]), poly(5, 1, [0, 1]), poly(2, 2, [0, 1, 0, 1])]:
        for k in range(1, 4):
            assert point_count(R, k) % R.p == 0


def test_value_distribution_sums():
    R = poly(3, 1, [1, 1])
    for k in (1, 2, 3):
        dist = value_distribution(R, k)
        assert sum(dist.values()) == 3 ** k
        # brute force the full distribution
        from wildinv.addpoly import evaluate
        from wildinv.ff import field_create as fc, norm_trace

        F = fc(3, k)
        Rk = R.embed_to(F)
        got = {0: 0, 1: 0, 2: 0}
        for x in F.elements():
            _, t = norm_trace(x * evaluate(Rk, x), 1)
            got[t.coords[0]] += 1
        assert got == dist


def test_genus():
    assert genus(poly(3, 1, [0, 1])) == 3
    assert genus(poly(3, 1, [1])) == 1
    assert genus(poly(5, 1, [0, 1])) == 10
    assert genus(poly(2, 2, [0, 1, 0, 1])) == 4
    with pytest.raises(ValidationError):
        genus(poly(2, 1, [1]))


def test_zeta_331():
    R = poly(3, 1, [0, 1])
    Z = zeta_numerator(R)
    assert Z.coeffs[0] == 1 and len(Z.coeffs) == 7
    assert Z.weil_bounds_ok()
    assert Z.functional_equation_sign() in (1, -1)
    assert check_supersingular(Z)


def test_psi_l_polynomials_331():
    R = poly(3, 1, [0, 1])
    Z = zeta_numerator(R)
    L1 = psi_l_polynomial(R, 1)
    L2 = psi_l_polynomial(R, 2)
    assert L1.degree == L2.degree == 3
    # the L(psi_c), each from its own character sums, multiply out to Z
    assert psi_l_product([L1, L2]) == Z.coeffs
    # Galois conjugates under zeta -> zeta^2
    for k in range(4):
        assert galois(L1.coeffs[k], 2) == L2.coeffs[k]


def test_character_sum_trivial_bound():
    R = poly(3, 1, [0, 1])
    for k in (1, 2, 3):
        S = character_sum(R, 1, k)
        # coefficients of the cyclotomic vector are bounded by the point total
        assert all(abs(c) <= 3 ** k for c in S.vec)


def test_character_sum_is_the_sum_of_root_powers():
    for R in [poly(3, 1, [0, 1]), poly(5, 1, [2, 1]), poly(7, 1, [1]), poly(2, 2, [0, 1, 0, 1])]:
        p = R.p
        for c in range(1, p):
            for k in (1, 2):
                want = Cyc(p)
                for t, cnt in value_distribution(R, k).items():
                    want = want + root_power(p, c * t) * cnt
                assert character_sum(R, c, k) == want


def test_supersingular_controls():
    # ordinary elliptic curve over F_3 (trace 1): not supersingular
    assert not check_supersingular(ZetaNumerator(3, 1, [1, -1, 3]))
    # trace 0: supersingular
    assert check_supersingular(ZetaNumerator(3, 1, [1, 0, 3]))
    # trace p: also supersingular (eigenvalue ratio is a sixth root of unity)
    assert check_supersingular(ZetaNumerator(3, 1, [1, -3, 3]))
    # pure polynomials (1 -/+ q T^2)^g: eigenvalue ratios +-1
    assert check_supersingular(ZetaNumerator(3, 1, [1, 0, -3]))
    assert check_supersingular(ZetaNumerator(3, 2, [1, 0, -6, 0, 9]))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


@st.composite
def _zeta_numerators(draw):
    """A ZetaNumerator of one of three kinds: prod Phi_n(s T) with q = s^2,
    half the time multiplied by some 1 - a T + q T^2; c_j drawn for j <= g
    with c_{2g-j} = eps q^{g-j} c_j imposed, eps = +-1 (c_g = 0 for eps = -1);
    or a lambda-polynomial from Weil-type factors (`_random_weil_case`)."""
    import random

    kind = draw(st.sampled_from(["cyclotomic", "functional", "weil"]))
    if kind == "weil":
        q, P, _ = _random_weil_case(random.Random(draw(st.integers(0, 2 ** 32))))
        return ZetaNumerator(q, (len(P) - 1) // 2, P)
    if kind == "functional":
        q, g, eps = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])), draw(st.integers(1, 4)), draw(st.sampled_from([1, -1]))
        c = [1] + [draw(st.integers(-2 * q ** j, 2 * q ** j)) for j in range(1, g + 1)]
        if eps == -1:
            c[g] = 0
        return ZetaNumerator(q, g, c + [eps * q ** (g - j) * c[j] for j in range(g - 1, -1, -1)])
    s = draw(st.integers(2, 5))
    Z = [1]
    for n in draw(st.lists(st.integers(1, 30), min_size=1, max_size=3)):
        Z = _poly_mul(Z, [c * s ** j for j, c in enumerate(cyclotomic_polynomial(n))])
    if len(Z) % 2 == 0:
        Z = _poly_mul(Z, [1, s])  # Phi_2(s T), so the degree is even
    if draw(st.booleans()):
        Z = _poly_mul(Z, [1, -draw(st.integers(-2 * s, 2 * s)), s * s])
    return ZetaNumerator(s * s, (len(Z) - 1) // 2, [c * Z[0] for c in Z])  # Z[0] = +-1


@settings(max_examples=300, deadline=None)
@given(_zeta_numerators())
def test_check_supersingular_matches_the_cyclotomic_factor_search(Z):
    # Kronecker through integrality and the Weil test against stripping
    # cyclotomic factors from D(z) = prod (z - lambda^2 / q)
    assert check_supersingular(Z) == supersingular_by_cyclotomic_factors(Z)


def test_check_supersingular_on_cyclotomic_products_times_an_elliptic_factor():
    seen = set()
    # every Phi_n(s T) product is supersingular; with 1 - a T + q T^2 it is
    # exactly when a^2 / q is 0, 1, 2, 3 or 4
    for n in range(1, 25):
        for s in (2, 3):
            Z = [c * s ** j for j, c in enumerate(cyclotomic_polynomial(n))]
            if len(Z) % 2 == 0:
                Z = _poly_mul(Z, [1, s])
            for a in range(-2 * s, 2 * s + 1):
                W = _poly_mul(Z, [1, -a, s * s])
                got = check_supersingular(ZetaNumerator(s * s, (len(W) - 1) // 2, [c * W[0] for c in W]))
                assert got == (a * a in (0, s * s, 2 * s * s, 3 * s * s, 4 * s * s)), (n, s, a)
                seen.add(got)
    assert seen == {True, False}


def test_curve_summary_q9():
    R = poly(3, 2, [0, 1])
    out = curve_summary(R)
    assert out["genus"] == 3
    assert out["supersingular"]
    assert out["psi_L_degrees"] == [3, 3]
    assert len(out["counts"]) == 6
    assert out["counts"][0] == point_count(R, 1)


def test_curve_summary_product_check_raises(monkeypatch):
    # a wrong coefficient c_j of L(psi_1) changes the power sums read from
    # it: a raise, not a report, so it survives python -O. p23e0 is past the
    # Newton bound. On p3e1 a change in c_1 or c_3 shifts S_6 by -S_5 or
    # -S_3, whose traces vanish, so Z and the report would not change.
    from wildinv import counts

    real = counts._psi_l_coefficients
    for p, f, ints, j in [(3, 1, [0, 1], 2), (23, 1, [1], 1)]:
        R = poly(p, f, ints)
        S = _frobenius(R)

        def corrupted(R, c, j=j):
            coeffs = real(R, c)
            coeffs[j] = coeffs[j] + counts.Cyc.integer(R.p, 1)
            return coeffs

        with monkeypatch.context() as m:
            m.setattr(counts, "_psi_l_coefficients", corrupted)
            with pytest.raises(TheoremViolation):
                curve_summary(R, frobenius=S)


def test_p2_full_path():
    R = poly(2, 2, [0, 1, 0, 1])
    out = curve_summary(R)
    assert out["genus"] == 4
    assert out["supersingular"]
    assert out["psi_L_degrees"] == [8]


def test_value_distribution_memo_returns_fresh_dicts():
    from wildinv import counts

    R = poly(3, 1, [0, 1])
    first = value_distribution(R, 3)
    want = dict(first)
    first[0] = -1
    first.clear()
    assert value_distribution(R, 3) == want
    assert value_distribution(R, 3) is not value_distribution(R, 3)
    assert counts._DISTRIBUTION_CACHE[(R, 3)][0] == want


def test_value_distribution_is_computed_once_per_r_and_k(monkeypatch):
    from wildinv import counts

    R = poly(5, 1, [2, 1])
    calls = []
    real = counts._form_data
    monkeypatch.setattr(counts, "_form_data", lambda R, k: calls.append(k) or real(R, k))
    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    curve_summary(R)
    assert sorted(calls) == list(range(1, 2 * genus(R) + 1))


def test_exhaust_check_runs_before_the_memo_stores(monkeypatch):
    from wildinv import counts

    R = poly(3, 1, [0, 1])
    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    monkeypatch.setattr(counts, "_classify", lambda p, n, B, q: ({0: 1}, 0))
    with pytest.raises(TheoremViolation):
        value_distribution(R, 2)
    assert counts._DISTRIBUTION_CACHE == {}


def test_the_largest_admitted_max_k_passes_the_digit_check():
    # the pre-flight check admits K only when q^K + 2g q^{K/2}, a bound on
    # N_K, fits in the digits Python converts, and refuses K + 1 only when
    # q^{K+1} does not; tested on the bounds, without counting
    import sys

    from wildinv import counts

    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("this Python converts ints of any length")
    R = poly(3, 1, [0, 1])
    g = genus(R)

    def admitted(K):
        try:
            counts.check_max_k(R, K)
        except ValidationError:
            return False
        return True

    assert admitted(9000) and not admitted(10000)
    K = next(K for K in range(10000, 0, -1) if admitted(K))
    assert 3 ** K + 2 * g * 3 ** ((K + 1) // 2) < 10 ** digits <= 3 ** (K + 1)


def test_psi_l_coefficients_are_ints():
    # Z[zeta_p] coordinates stay Python ints through the Newton recursion
    R = poly(5, 1, [0, 1])
    L = psi_l_polynomial(R, 2)
    assert all(type(c) is int for cf in L.coeffs for c in cf.vec)


def test_curve_summary_computes_each_psi_l_once(monkeypatch):
    # Z and the degrees all come from L(psi_1), computed once; the other
    # characters share its degree. Every call hands out a fresh list.
    from wildinv import counts

    computed = []
    real = counts._psi_l_coefficients

    def counting(R, c):
        computed.append(c)
        return real(R, c)

    monkeypatch.setattr(counts, "_psi_l_coefficients", counting)
    R = poly(5, 1, [0, 1])
    out = curve_summary(R)
    assert out["psi_L_degrees"] == [5, 5, 5, 5]
    assert computed == [1]
    L = psi_l_polynomial(R, 1)
    L.coeffs.clear()
    assert psi_l_polynomial(R, 1).degree == 5


# ---------------------------------------------------------------------------
# Z from the traced power sums of L(psi_1), against the product of its Galois
# conjugates


@st.composite
def small_curves(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(st.integers(1, 2))
    e = draw(st.integers(0, 2))
    assume(not (p == 2 and e == 0))
    assume((p ** f) ** ((p - 1) * p ** e) <= 3 ** 24)
    F = field_create(p, f)
    coord = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    coeffs = [F.el(draw(coord)) for _ in range(e)]
    lead = draw(coord)
    assume(any(lead))
    return AdditivePoly(F, coeffs + [F.el(lead)])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_curves())
def test_zeta_from_conjugates_matches_newton_and_direct_sums(R):
    from wildinv import counts

    g = genus(R)
    L1 = psi_l_polynomial(R, 1)
    Z = counts._zeta_from_psi_1(R, L1)
    assert Z.coeffs == zeta_from_conjugates(L1) == zeta_numerator(R).coeffs
    assert counts.counts_from_zeta(Z, 2 * g) == counts.point_counts(R, 2 * g)
    # L(psi_c) from its own character sums is sigma_c(L(psi_1))
    for c in range(2, R.p):
        assert psi_l_polynomial(R, c).coeffs == [galois(cf, c) for cf in L1.coeffs]


@pytest.mark.parametrize("p", [23, 101, 113])
def test_zeta_from_psi_1_matches_the_conjugate_product_past_the_newton_bound(p):
    from wildinv import counts

    R = poly(p, 1, [1])
    assert not counts._newton_check_runs(R)
    L1 = psi_l_polynomial(R, 1)
    assert counts._zeta_from_psi_1(R, L1).coeffs == zeta_from_conjugates(L1)


@st.composite
def _integer_polys(draw):
    n = draw(st.integers(0, 8))
    return [1] + draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(_integer_polys(), st.integers(0, 12))
def test_newton_log_and_exp_are_inverse(c, extra):
    from wildinv import counts

    n = len(c) - 1 + extra
    sums = counts._newton_log(c, n)
    assert counts._newton_exp(sums, 1, counts._divide_int) == c + [0] * extra
    # a known prefix is kept, and the rest follows from the coefficients
    assert counts._newton_log(c, n, sums[: n // 2]) == sums
    # the same over Z[zeta_p]: c_j times zeta^{2j}
    cyc = [Cyc.integer(5, a) * root_power(5, 2 * j) for j, a in enumerate(c)]
    cyc_sums = counts._newton_log(cyc, n)
    assert counts._newton_exp(cyc_sums, cyc[0], Cyc.divide) == cyc + [Cyc(5)] * extra


def test_inexact_newton_step_raises():
    # 2 c_2 = a_1 c_1 + a_2 = 1 has no integral solution, over Z and Z[zeta_p]
    from wildinv import counts

    with pytest.raises(TheoremViolation):
        counts._newton_exp([1, 0], 1, counts._divide_int)
    with pytest.raises(TheoremViolation):
        counts._newton_exp([Cyc.integer(3, 1), Cyc(3)], Cyc.integer(3, 1), Cyc.divide)


def test_counts_from_zeta_past_2g_match_direct_counts():
    # past k = 2g the power sums come from the recurrence Z imposes
    from wildinv import counts

    for R, kmax in [(poly(3, 1, [0, 1]), 10), (poly(5, 1, [1]), 9), (poly(2, 1, [0, 1]), 8)]:
        Z = counts._zeta_from_psi_1(R, psi_l_polynomial(R, 1))
        assert counts.counts_from_zeta(Z, kmax) == counts.point_counts(R, kmax)
        assert counts.counts_from_zeta(Z, 0) == []


def _frobenius(R):
    from wildinv import sympmod

    return sympmod.build(R, 1).S


def test_large_q_builds_only_the_fields_of_psi_1(monkeypatch):
    # p23e0: q^{2g} = 23^22 is past NEWTON_CHECK_BOUND, so no Newton counts;
    # L(psi_1) has degree 1 and needs F_23, F_23^2 and F_23^3 only
    from wildinv import counts

    R = poly(23, 1, [1])
    assert 23 ** 22 > counts.NEWTON_CHECK_BOUND
    calls = []
    real = counts._form_data
    monkeypatch.setattr(counts, "_form_data", lambda R, k: calls.append(k) or real(R, k))
    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    monkeypatch.setattr(counts, "zeta_numerator", lambda R: pytest.fail("Newton route ran"))
    out = curve_summary(R, frobenius=_frobenius(R))
    assert sorted(calls) == [1, 2, 3]
    assert len(out["counts"]) == 22
    assert out["counts"][:3] == counts.point_counts(R, 3)
    assert out["psi_L_degrees"] == [1] * 22


def test_report_counts_equal_direct_counts():
    # the Frobenius only adds the radical check; the counts read from Z are
    # the direct counts
    from wildinv import counts

    for R in [poly(3, 1, [0, 1]), poly(5, 1, [2, 1]), poly(2, 2, [0, 1, 0, 1])]:
        S = _frobenius(R)
        assert curve_summary(R, frobenius=S) == curve_summary(R)
        assert curve_summary(R, max_k=3, frobenius=S) == curve_summary(R, max_k=3)
        assert curve_summary(R)["counts"] == counts.point_counts(R, 2 * genus(R))


def test_conjugate_product_must_be_rational(monkeypatch):
    # with sigma_c replaced by the identity, the reference product is
    # L(psi_1)^{p-1}, whose coefficients leave Z; the report route, whose
    # traces then count only the rational coordinate p - 1 times, gets power
    # sums that are not Z's: a raise, not a report, on both
    import reference
    from wildinv import counts

    for p, f, ints in [(3, 1, [0, 1]), (23, 1, [1])]:
        R = poly(p, f, ints)
        S = _frobenius(R)
        L1 = psi_l_polynomial(R, 1)
        with monkeypatch.context() as m:
            m.setattr(reference, "galois", lambda x, c: x)
            with pytest.raises(TheoremViolation):
                reference.zeta_from_conjugates(L1)
            m.setattr(counts.Cyc, "trace", lambda self: (self.p - 1) * self.vec[0])
            with pytest.raises(TheoremViolation):
                curve_summary(R, frobenius=S)


def test_zeta_mismatch_with_newton_raises(monkeypatch):
    from wildinv import counts

    R = poly(3, 1, [0, 1])
    Z = zeta_numerator(R)
    wrong = ZetaNumerator(Z.q, Z.g, [1] + [-c for c in Z.coeffs[1:-1]] + [Z.coeffs[-1]])
    monkeypatch.setattr(counts, "zeta_numerator", lambda R: wrong)
    with pytest.raises(TheoremViolation):
        curve_summary(R)


def test_galois_matches_the_power_by_power_definition():
    # the reference's sigma_c against zeta^i -> zeta^{ic}, and Cyc.trace
    # against the sum of the p - 1 conjugates
    for p in (2, 3, 5, 7, 11):
        x = Cyc(p, [(3 * i * i + 1) % 7 - 3 for i in range(p - 1)])
        total = Cyc(p)
        for c in range(1, p):
            want = Cyc(p)
            for i, a in enumerate(x.vec):
                want = want + root_power(p, i * c) * a
            assert galois(x, c) == want
            total = total + want
        assert total == Cyc.integer(p, x.trace())


# ---------------------------------------------------------------------------
# radical of the polar form against the module's Frobenius


@pytest.mark.parametrize(
    "p,f,ints",
    [(3, 1, [0, 1]), (3, 2, [0, 1]), (5, 1, [2, 1]), (3, 1, [1, 0, 1]), (2, 2, [0, 1, 0, 1]), (7, 1, [1]), (2, 1, [1, 1])],
)
def test_radical_is_the_rational_part_of_ker_e(p, f, ints):
    import numpy as np

    from wildinv import counts, linalg

    R = poly(p, f, ints)
    S = _frobenius(R)
    curve_summary(R, frobenius=S)  # checks every built k
    dim = np.array(S).shape[0]
    for k in range(1, 2 * genus(R) + 1):
        Sk = np.array(linalg.mat_pow(S, k, p)) if dim else S
        fixed = dim - linalg.rank((Sk - np.eye(dim, dtype=np.int64)) % p, p) if dim else 0
        assert counts.radical_dimension(R, k) == fixed
        if R.p_degree == 0:
            assert fixed == 0


def test_radical_check_forms_fixed_spaces_only_up_to_the_order_of_s(monkeypatch):
    # S^k depends on k mod the order s of S: s fixed spaces, every k <= top
    # still compared
    from wildinv import counts, linalg

    R = poly(3, 1, [0, 0, 1])
    S = _frobenius(R)
    s = next(k for k in range(1, 100) if linalg.mat_pow(S, k, 3) == linalg.identity(len(S)))
    top = counts.check_curve_work(R)[1]
    assert s < top
    calls = []
    real_fixed = linalg.fixed_space
    monkeypatch.setattr(linalg, "fixed_space", lambda A, p: calls.append(A) or real_fixed(A, p))
    counts._check_radicals(R, S, top)
    assert len(calls) == s
    real = counts.radical_dimension
    for bad in (s + 1, top):
        monkeypatch.setattr(counts, "radical_dimension", lambda R, k, bad=bad: real(R, k) + (k == bad))
        with pytest.raises(TheoremViolation):
            counts._check_radicals(R, S, top)


def test_radical_mismatch_raises(monkeypatch):
    from wildinv import counts

    R = poly(3, 1, [0, 1])
    S = _frobenius(R)
    real = counts.radical_dimension
    monkeypatch.setattr(counts, "radical_dimension", lambda R, k: real(R, k) + (k == 4))
    with pytest.raises(TheoremViolation):
        curve_summary(R, frobenius=S)


# ---------------------------------------------------------------------------
# pre-flight guard


def test_curve_guard_refuses_before_any_field(monkeypatch):
    from wildinv import counts
    from wildinv.errors import AmbientGuardError

    monkeypatch.setattr(counts, "_form_data", lambda R, k: pytest.fail("a form was built"))
    with pytest.raises(AmbientGuardError):
        R = poly(10007, 1, [1])
        curve_summary(R, frobenius=_frobenius(R))  # the work in Z[zeta_p]
    with pytest.raises(AmbientGuardError):
        R = poly(3, 1, [0, 0, 0, 0, 0, 1])
        curve_summary(R, frobenius=_frobenius(R))  # F_3^245
    with pytest.raises(AmbientGuardError):
        curve_summary(poly(3, 1, [0, 0, 0, 0, 0, 1]))  # without the Frobenius, as count calls it


def test_newton_check_runs_is_the_exact_comparison():
    from wildinv import counts

    # the exponent test decides before q^{2g} is formed; where both decide,
    # they agree with the exact comparison
    for p, f, ints in [(3, 1, [0, 0, 1]), (3, 2, [0, 1]), (2, 1, [0, 0, 0, 0, 0, 1]), (2, 1, [0, 0, 0, 0, 0, 0, 1]),
                       (5, 1, [0, 1]), (23, 1, [1]), (3, 1, [0, 0, 0, 1]), (2, 4, [0, 1, 0, 1])]:
        R = poly(p, f, ints)
        want = R.base.order ** (2 * genus(R)) <= counts.NEWTON_CHECK_BOUND
        assert counts._newton_check_runs(R) == want


def test_curve_guard_admits_the_benchmark_inputs():
    import json
    from pathlib import Path

    from wildinv import counts
    from wildinv.cli import parse_additive_poly

    doc = json.loads((Path(__file__).parent.parent / "perfbench" / "batch_inputs.json").read_text())
    specs = [(s["p"], s["f"], s["R"], s["e"]) for s in doc["timed"] + doc["warmup"]]
    assert len(specs) == 200
    specs += [
        (3, 1, "1", 1), (5, 1, "1", 1), (2, 2, "0;1;0;1", 3), (3, 2, "1", 1), (3, 1, "1;1", 1),
        (3, 1, "1", 2), (3, 1, "1", 3), (2, 1, "1", 4), (2, 1, "1", 5), (5, 1, "1", 2),
        (3, 1, "1;0;1", 2), (3, 1, "1;1;1", 2), (23, 1, "1", 0),
        (7, 1, "1", 1), (11, 1, "1", 1), (101, 1, "1", 0),
        (2, 1, "1", 6), (3, 1, "1", 4), (2, 1, "1", 7),
    ]
    for p, f, rspec, e in specs:
        counts.check_curve_work(parse_additive_poly(rspec, p, f, e))
    # with max_k = 2g given, as count may pass it; the counts are read from
    # Z, so no field past F_{q^top} is needed
    for p, f, e in [(5, 1, 2), (3, 2, 3), (2, 1, 6)]:
        R = parse_additive_poly("1", p, f, e)
        assert counts.check_curve_work(R, 2 * genus(R))[0] == 2 * genus(R)


def test_the_product_guard_refuses_nothing_the_former_estimate_admitted():
    # the former estimate (2g (p - 1))^2 / 2 is at least the present
    # (p - 1)^3 p^{2e} for p >= 3 and half of it for p = 2, where both admit
    # e <= 13; at e = 0 the bound 10^8 now admits every p <= 463
    from wildinv import counts
    from wildinv.errors import AmbientGuardError
    from wildinv.numth import is_prime

    checked = newly = 0
    for p in [q for q in range(2, 480) if is_prime(q)]:
        for f in (1, 2, 3) if p < 50 else (1,):
            for e in range(0 if p > 2 else 1, 4):
                R = poly(p, f, [0] * e + [1])
                former = (2 * genus(R) * (p - 1)) ** 2 // 2 <= counts.CYC_PRODUCT_BOUND
                try:
                    counts.check_curve_work(R)
                except AmbientGuardError as exc:
                    assert not former or "field guard" in str(exc), (p, f, e)
                    assert (e, f) != (0, 1) or p > 463, p
                    continue
                checked += 1
                newly += not former
    assert checked > 100 and newly > 50


# ---------------------------------------------------------------------------
# exact Weil check against a floating-point reference


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_squarefree(f):
    """Square-free part of a leading-first integer polynomial, by Euclid over
    the rationals, with its leading coefficient made 1."""
    from fractions import Fraction

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[0] / b[0]
            a = [x - c * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
            while a and a[0] == 0:
                a.pop(0)
        return a

    a = [Fraction(c) for c in f]
    g, b = a, [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]
    while b:
        g, b = b, rem(g, b)
    quo, r = [], list(a)
    while len(r) >= len(g):
        c = r[0] / g[0]
        quo.append(c)
        r = [x - c * y for x, y in zip(r, g + [0] * (len(r) - len(g)))][1:]
    return [float(c / quo[0]) for c in quo]


def _weil_reference(coeffs, q):
    """numpy's roots of the square-free part, |lambda|^2 = q to 1e-9 relative."""
    import numpy as np

    lams = np.roots(_fraction_squarefree(coeffs))
    return bool(np.all(np.abs(np.abs(lams) ** 2 - q) < 1e-9 * q))


def _random_weil_case(rng):
    """(q, lambda-polynomial leading-first, kind): x^h H(x + q/x) for H a
    product of real-rooted factors y - a (a^2 <= 4q) and y^2 - b (0 <= b <=
    4q), some repeated, times x^2 - q at times; 'bad' swaps in a factor with
    a root off the bound, 'perturbed' moves one symmetric coefficient pair."""
    q = rng.choice((2, 3, 4, 5, 7, 8, 9, 25))
    kind = rng.choice(("weil", "repeated", "bad", "perturbed"))
    factors = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            a = rng.randint(-int((4 * q) ** 0.5), int((4 * q) ** 0.5))
            factors.append([1, -a, q])
        else:
            b = rng.randint(0, 4 * q)
            factors.append([1, 0, 2 * q - b, 0, q * q])
    if kind == "repeated":
        factors += [rng.choice(factors)] * rng.randint(1, 2)
    if kind == "bad":
        a = rng.choice((-1, 1)) * (int((4 * q) ** 0.5) + rng.randint(1, 3))
        b = rng.choice((-rng.randint(1, 9), 4 * q + rng.randint(1, 9)))
        factors.append(rng.choice(([1, -a, q], [1, 0, 2 * q - b, 0, q * q])))
    if rng.random() < 0.3:
        factors.append([1, 0, -q])
    P = [1]
    for f in factors:
        P = _poly_mul(P, f)
    if kind == "perturbed":
        g = (len(P) - 1) // 2
        j = rng.randint(1, g)
        d = rng.choice((-2, -1, 1, 2))
        sign = 1 if P[2 * g - j] == q ** (g - j) * P[j] else -1
        P[j] += d
        if j != g:
            P[2 * g - j] += sign * q ** (g - j) * d
    return q, P, kind


def test_weil_check_matches_numpy_roots_reference():
    import random

    rng = random.Random(20231)
    seen = {}
    for _ in range(400):
        q, P, kind = _random_weil_case(rng)
        Z = ZetaNumerator(q, (len(P) - 1) // 2, P)
        got = Z.weil_bounds_ok()
        assert got == _weil_reference(P, q), (q, P, kind)
        seen.setdefault(kind, set()).add(got)
    assert seen["weil"] == seen["repeated"] == {True}
    assert seen["bad"] == {False}
    assert seen["perturbed"] == {True, False}


def test_weil_check_edges():
    # roots +-sqrt(q) and +-i sqrt(q), at the endpoints y^2 = 4q and y^2 = 0,
    # and one root just past the bound
    assert ZetaNumerator(3, 1, [1, 0, -3]).weil_bounds_ok()
    assert ZetaNumerator(3, 1, [1, 0, 3]).weil_bounds_ok()
    assert ZetaNumerator(4, 1, [1, 4, 4]).weil_bounds_ok()
    assert ZetaNumerator(4, 2, [1, 8, 24, 32, 16]).weil_bounds_ok()
    assert not ZetaNumerator(4, 1, [1, 5, 4]).weil_bounds_ok()
    assert not ZetaNumerator(3, 1, [1, 1, -3]).weil_bounds_ok()


@st.composite
def _brute_force_cases(draw):
    """A random R over F_{p^f} and a degree k with at most 3^8 points of
    F_{q^k} to enumerate; R's lower coefficients may vanish or not. Half the
    draws have R's coefficients in F_p, which counts with no extension field
    built (but F_{2^m} at p = 2 with 4 | fk); the others draw R over F_{p^2},
    whose coefficients lie in F_p only by chance."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    prime_field = draw(st.booleans())
    f = draw(st.integers(1, 2)) if prime_field else 2
    k = draw(st.integers(1, 4))
    assume(p ** (f * k) <= 3 ** 8)
    e = draw(st.integers(0, 2))
    assume(not (p == 2 and e == 0))
    F = field_create(p, f)
    width = 1 if prime_field else f
    coord = st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(lambda c: c + [0] * (f - width))
    lead = draw(coord.filter(any))
    return AdditivePoly(F, [F.el(draw(coord)) for _ in range(e)] + [F.el(lead)]), k


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_brute_force_cases())
def test_point_counts_match_brute_force_on_random_curves(case):
    # the count from the quadratic form Tr(x R(x)) against the double loop
    # over F_{q^k}
    R, k = case
    assert point_count(R, k) == brute_force_count(R, k)


# ---------------------------------------------------------------------------
# the classifier against enumeration of Q(x) = sum q_i x_i^2 + sum_{i<j} B_ij x_i x_j


def _enumerated(p, B, qvec):
    """{t: #{x in F_p^n : Q(x) = t}}, one coordinate at a time:
    Q(x', a) = Q(x') + a (sum_{i<m} B_im x_i + q_m a)."""
    points = [((), 0)]
    for m, q in enumerate(qvec):
        grown = []
        for x, v in points:
            lin = sum(B[i][m] * xi for i, xi in enumerate(x))
            grown.extend((x + (a,), v + a * (lin + q * a)) for a in range(p))
        points = grown
    out = dict.fromkeys(range(p), 0)
    for _, v in points:
        out[v % p] += 1
    return out


def _form(p, qvec, upper):
    """The polar matrix with B_ii = 2 q_i and the given B_ij, i < j."""
    n = len(qvec)
    B = [[2 * qvec[i] % p if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), b in upper.items():
        B[i][j] = B[j][i] = b
    return B


def _check_classify(p, B, qvec):
    from wildinv import counts, linalg

    got = counts._classify(p, len(qvec), B, qvec)
    assert got == (_enumerated(p, B, qvec), len(linalg.nullspace(B, p)))
    return got


_ENUMERABLE = {2: 12, 3: 7, 5: 5, 7: 4}  # the largest n with p^n <= 4096


@st.composite
def _forms(draw):
    """(p, B, qvec) with p^n <= 4096: dense, sparse (a radical is likely) or,
    for p odd, with a zero diagonal, so that the first steps split planes."""
    p = draw(st.sampled_from(sorted(_ENUMERABLE)))
    n = draw(st.integers(1, _ENUMERABLE[p]))
    shape = draw(st.sampled_from(["dense", "sparse", "zero diagonal"]))
    entry = st.integers(0, p - 1)
    if shape == "sparse":
        entry = st.sampled_from([0, 0, 0, 1, p - 1])
    qvec = [0] * n if shape == "zero diagonal" and p != 2 else draw(st.lists(entry, min_size=n, max_size=n))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i + 1, n)}
    return p, _form(p, qvec, upper), qvec


@settings(max_examples=150, deadline=None)
@given(_forms())
def test_classify_matches_enumeration(form):
    # value counts and radical dimension against the p^n values of Q and the
    # nullspace of B; neither depends on the congruence reduction
    _check_classify(*form)


# (p, qvec, {(i, j): B_ij for i < j}, value counts, radical dimension)
_CLASSIFY_CASES = {
    "zero form": (3, [0, 0, 0], {}, {0: 27, 1: 0, 2: 0}, 3),
    "odd rank": (5, [1, 2, 3, 0], {}, {0: 125, 1: 150, 2: 100, 3: 100, 4: 150}, 1),
    "p odd, zero diagonal": (3, [0, 0, 0, 0], {(0, 1): 1, (2, 3): 2, (0, 3): 1}, {0: 33, 1: 24, 2: 24}, 0),
    "p = 2, Arf 1": (2, [1, 1, 0, 0], {(0, 1): 1, (2, 3): 1, (1, 2): 1}, {0: 6, 1: 10}, 0),
    "p = 2, Q nonzero on the radical": (2, [0, 0, 1], {(0, 1): 1}, {0: 4, 1: 4}, 1),
}


@pytest.mark.parametrize("name", sorted(_CLASSIFY_CASES))
def test_classify_on_each_kind_of_step(name):
    p, qvec, upper, want, rad = _CLASSIFY_CASES[name]
    assert _check_classify(p, _form(p, qvec, upper), qvec) == (want, rad)


@pytest.mark.parametrize(
    "p,B,qvec",
    [
        (3, [[2, 1], [1, 0]], [0, 0]),  # B_00 = 2 but Q(e_0) = 0
        (5, [[0]], [1]),
        (2, [[1, 0], [0, 0]], [1, 0]),  # an odd diagonal at p = 2
    ],
)
def test_classify_refuses_a_polar_matrix_inconsistent_with_q(p, B, qvec):
    from wildinv import counts

    with pytest.raises(TheoremViolation, match="2 Q"):
        counts._classify(p, len(qvec), B, qvec)


# ---------------------------------------------------------------------------
# the form in a normal basis against the form in the canonical field


def _classified(data):
    """(value distribution, radical dimension) of _form_data's output."""
    from wildinv import counts

    return counts._classify(*data)


# every (p, n = fk) with p odd dividing an even n <= 20, and three n = 2
# mod 4 for p = 2
_NORMAL_FORM_EXAMPLES = [
    (3, 1, 6, [1, 2, 0, 1]), (3, 2, 6, [2, 1]), (3, 1, 18, [0, 0, 1]),
    (5, 1, 10, [3, 0, 1]), (5, 2, 10, [1, 4]), (7, 1, 14, [3, 1]),
    (2, 1, 6, [1, 1, 0, 1]), (2, 2, 5, [0, 1, 0, 1]), (2, 1, 18, [0, 1]),
]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_normal_basis_form_matches_the_field_form(data):
    # the form in the basis x^j beta^{p^l} of F_{p^a} (x) F_{p^b} classifies
    # like the Hankel form in the canonical F_{q^k}: the same value counts and
    # the same radical, for every n = fk (p = 2 with 4 | n too) and for R
    # with coefficients in F_p or outside it
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    f = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 20 // f))
    e = data.draw(st.integers(1 if p == 2 else 0, 3))
    width = data.draw(st.sampled_from([1, f]))
    coord = st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(lambda c: c + [0] * (f - width))
    coeffs = data.draw(st.lists(coord, min_size=e, max_size=e)) + [data.draw(coord.filter(any))]
    F = field_create(p, f)
    _check_normal_form(AdditivePoly(F, [F.el(c) for c in coeffs]), k)


@pytest.mark.parametrize("p,f,k,ints", _NORMAL_FORM_EXAMPLES)
def test_normal_basis_form_matches_the_field_form_where_p_divides_n(p, f, k, ints):
    assert (f * k % p == 0 and f * k % 2 == 0) or (p == 2 and f * k % 4 == 2)
    _check_normal_form(poly(p, f, ints), k)


def _check_normal_form(R, k):
    # n = fk = a b, a the full powers in n of the primes of f (1 for R over
    # F_p) and of 2 when p = 2 and 4 | n: the form classifies like the
    # canonical field's; it is that form itself when b = 1, and the
    # circulant in a normal basis when a = 1
    from wildinv import counts

    n = R.base.n * k
    form = counts._form_data(R, k)
    field_form = field_form_data(R, k)
    assert _classified(form) == _classified(field_form)
    radix = 1 if all(not any(c.coords[1:]) for c in R.coeffs) else R.base.n
    if R.p == 2 and n % 4 == 0:
        radix *= 2
    if radix ** n % n == 0:  # every prime of n divides radix: b = 1
        assert form == field_form
    elif radix == 1:
        assert form == circulant_form_data(R, n)


# (p, n) for the search of a normal element with the synthetic traces: every
# p odd with n even up to 3^6, 5^4, 7^4, 11^2 and 13^2, a few odd n, and p = 2
# with n odd or n = 2 mod 4
NORMAL_TRACE_FIELDS = [
    (3, 2), (3, 4), (3, 6), (5, 2), (5, 4), (7, 2), (7, 4), (11, 2), (13, 2),
    (3, 3), (3, 5), (3, 7), (5, 3),
    (2, 2), (2, 3), (2, 5), (2, 6), (2, 7), (2, 9), (2, 10),
]


@pytest.mark.parametrize("p,n", NORMAL_TRACE_FIELDS)
def test_synthetic_traces_belong_to_a_normal_basis(p, n):
    # some beta in the canonical F_{p^n} has Tr(beta beta^{p^d}) = T_d for
    # every d < n; the circulant of the T_d is nonsingular, so the conjugates
    # of such a beta are independent and beta is normal
    from wildinv import counts, linalg

    T = counts._normal_traces(p, n)
    _, piv = linalg.rref([[T[(j - i) % n] for j in range(n)] for i in range(n)], p)
    assert len(piv) == n
    F = field_create(p, n)
    tau = F.power_traces()[:n]

    def trace(x):
        return sum(a * b for a, b in zip(x.coords, tau)) % p

    for beta in F.elements():
        if trace(beta * beta) != T[0]:
            continue
        conj = beta
        for d in range(1, n):
            conj = conj.frobenius()
            if trace(beta * conj) != T[d]:
                break
        else:
            return
    pytest.fail(f"no normal element of F_{p}^{n} has the traces {T}")


@pytest.mark.parametrize(
    "p,n,T",
    [
        (3, 1, [2]),  # t(1) = 2, a nonsquare mod 3
        (5, 3, [0, 0, 0]),  # t(1) = 0
        (5, 4, [1, 0, 0, 0]),  # the self-dual sequence for n even: t(-1) = 1 is a square
        (7, 3, [1, 1, 0]),  # not symmetric
    ],
)
def test_normal_form_refuses_a_trace_sequence_of_no_normal_basis(monkeypatch, p, n, T):
    from wildinv import counts

    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    monkeypatch.setattr(counts, "_normal_traces", lambda p, n: list(T))
    with pytest.raises(TheoremViolation, match="normal basis"):
        value_distribution(poly(p, 1, [1, 1]), n)


def test_prime_field_coefficients_build_no_extension_field(monkeypatch):
    # a guard on the form's route: with every extension of F_q refused,
    # value_distribution still works wherever R's coefficients lie in F_p,
    # except for p = 2 with 4 | n, which builds F_{2^m}, m the 2-part of n
    from wildinv import counts, ff

    class FieldBuilt(Exception):
        pass

    cases = [
        (poly(5, 1, [0, 1]), range(1, 21)),
        (poly(3, 1, [1, 1, 1]), range(1, 21)),
        (poly(2, 2, [0, 1, 0, 1]), range(1, 21, 2)),  # g5
    ]
    real = ff.field_create

    def refuse_extensions(f):
        def create(p, n):
            if n > f:
                raise FieldBuilt(p, n)
            return real(p, n)

        monkeypatch.setattr(ff, "field_create", create)

    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    for R, ks in cases:
        refuse_extensions(R.base.n)
        for k in ks:
            assert sum(value_distribution(R, k).values()) == R.base.order ** k
    for R, k in ((cases[2][0], 2), (poly(2, 1, [1, 1]), 4)):
        refuse_extensions(R.base.n)
        with pytest.raises(FieldBuilt):
            value_distribution(R, k)


def test_the_form_builds_only_the_field_of_a(monkeypatch):
    # n = fk = a b and only F_{p^a} is built: R over F_2 at n = 12 has a = 4,
    # the 2-part of n, so F_2^4 and no F_2^12; R over F_9 with a coefficient
    # outside F_3 at k = 3 has n = 6 and a = 2, so F_9 and no F_3^6
    from wildinv import counts, ff

    F9 = field_create(3, 2)
    cases = [
        (poly(2, 1, [1, 1]), 12, (2, 4)),
        (AdditivePoly(F9, [F9.gen(), F9.one()]), 3, (3, 2)),
    ]
    real = ff.field_create
    monkeypatch.setattr(counts, "_DISTRIBUTION_CACHE", {})
    for R, k, field in cases:
        built = []
        monkeypatch.setattr(ff, "field_create", lambda p, n: built.append((p, n)) or real(p, n))
        assert sum(value_distribution(R, k).values()) == R.base.order ** k
        assert built == [field]


# ---------------------------------------------------------------------------
# Hankel blocks of R from the trace sequence


def _check_hankel_blocks(p, f, a, coeffs):
    # R over F_{p^f}, f | a, its coefficients given by their coordinates
    from wildinv import counts

    base, F = field_create(p, f), field_create(p, a)
    R = AdditivePoly(base, [base.el(c) for c in coeffs])
    assert counts._hankel_blocks(R, F) == hankel_blocks(R, F)


@pytest.mark.parametrize("p,a,i", [(2, 8, 3), (2, 16, 7), (3, 9, 2), (2, 64, 7), (2, 128, 7)])
def test_hankel_blocks_from_the_trace_sequence_match_the_matrix_products(p, a, i):
    _check_hankel_blocks(p, 1, a, [[(t + 1) % p] for t in range(i)] + [[1]])


@pytest.mark.parametrize("p,f,a,i", [(2, 2, 8, 3), (2, 4, 16, 2), (3, 3, 9, 2), (5, 2, 4, 1)])
def test_hankel_blocks_outside_f_p_match_the_matrix_products(p, f, a, i):
    # coefficients with every coordinate nonzero, so each block sums f terms
    _check_hankel_blocks(p, f, a, [[(t + u) % (p - 1) + 1 for u in range(f)] for t in range(i + 1)])


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    f=st.integers(1, 3),
    m=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_hankel_blocks_from_the_trace_sequence_match_on_small_fields(p, f, m, data):
    assume(f * m <= 12)
    coord = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    coeffs = data.draw(st.lists(coord, min_size=1, max_size=4))
    assume(any(map(any, coeffs)))
    _check_hankel_blocks(p, f, f * m, coeffs)
