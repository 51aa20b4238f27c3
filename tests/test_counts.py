import pytest

from wildinv.addpoly import AdditivePoly
from wildinv.counts import (
    ZetaNumerator,
    brute_force_count,
    character_sum,
    check_supersingular,
    curve_summary,
    cyclotomic_polynomial,
    genus,
    point_count,
    psi_l_polynomial,
    psi_l_product_equals_zeta,
    value_distribution,
    zeta_numerator,
)
from wildinv.errors import TheoremViolation, ValidationError
from wildinv.ff import field_create


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
    assert psi_l_product_equals_zeta(R, Z)
    # Galois conjugates under zeta -> zeta^2
    for k in range(4):
        assert L1.coeffs[k].galois(2) == L2.coeffs[k]


def test_character_sum_trivial_bound():
    R = poly(3, 1, [0, 1])
    for k in (1, 2, 3):
        S = character_sum(R, 1, k)
        # coefficients of the cyclotomic vector are bounded by the point total
        assert all(abs(c) <= 3 ** k for c in S.vec)


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


def test_curve_summary_q9():
    R = poly(3, 2, [0, 1])
    out = curve_summary(R)
    assert out["genus"] == 3
    assert out["supersingular"]
    assert out["psi_L_degrees"] == [3, 3]
    assert len(out["counts"]) == 6
    assert out["counts"][0] == point_count(R, 1)


def test_curve_summary_product_check_raises(monkeypatch):
    # the L-polynomial product check is a raise, so it survives python -O
    from wildinv import counts

    monkeypatch.setattr(counts, "psi_l_product_equals_zeta", lambda R, Z: False)
    with pytest.raises(TheoremViolation):
        curve_summary(poly(3, 1, [0, 1]))


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
    assert counts._DISTRIBUTION_CACHE[(R, 3)] == want


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
    monkeypatch.setattr(counts, "_distribution_odd", lambda p, n, B, q: {0: 1})
    with pytest.raises(TheoremViolation):
        value_distribution(R, 2)
    assert counts._DISTRIBUTION_CACHE == {}


def test_psi_l_coefficients_are_ints():
    # Z[zeta_p] coordinates stay Python ints through the Newton recursion
    R = poly(5, 1, [0, 1])
    L = psi_l_polynomial(R, 2)
    assert all(type(c) is int for cf in L.coeffs for c in cf.vec)


def test_curve_summary_computes_each_psi_l_once(monkeypatch):
    # the degrees and the product check read the same L(psi_c): one
    # computation per (R, c), and every call hands out a fresh list
    from wildinv import counts

    monkeypatch.setattr(counts, "_PSI_L_CACHE", {})
    computed = []
    real = counts._psi_l_coefficients

    def counting(R, c, slack):
        computed.append(c)
        return real(R, c, slack)

    monkeypatch.setattr(counts, "_psi_l_coefficients", counting)
    R = poly(5, 1, [0, 1])
    out = curve_summary(R)
    assert out["psi_L_degrees"] == [5, 5, 5, 5]
    assert sorted(computed) == [1, 2, 3, 4]
    L = psi_l_polynomial(R, 1)
    L.coeffs.clear()
    assert psi_l_polynomial(R, 1).degree == 5
    assert sorted(computed) == [1, 2, 3, 4]
