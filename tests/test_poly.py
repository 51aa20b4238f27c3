"""The polynomial core over F_{p^n}, the rationals and Z[zeta_p].

Products are checked against a schoolbook double loop written here, and
against values at every field element; division, gcd and powmod against
the identities that define them; poly_roots against a brute-force zero set.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wildinv import poly
from wildinv.counts import Cyc
from wildinv.ff import field_create

from reference import poly_roots

FIELDS = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


def schoolbook(a, b, zero):
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly.trim(out)


@st.composite
def field_polys(draw, count=2, max_len=7):
    p, n = draw(st.sampled_from(FIELDS))
    F = field_create(p, n)
    coeffs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(F.el)
    polys = [poly.trim(draw(st.lists(coeffs, max_size=max_len))) for _ in range(count)]
    return F, polys


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
rational_polys = st.lists(fractions, max_size=7).map(poly.trim)


def check_division(a, b):
    q, r = poly.divmod(a, b)
    assert len(r) < len(b)
    assert poly.add(poly.mul(q, b), r) == poly.trim(list(a))


def check_gcd(a, b):
    g = poly.gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == 1
    assert poly.divmod(a, g)[1] == [] and poly.divmod(b, g)[1] == []


@settings(max_examples=60, deadline=None)
@given(field_polys(count=3))
def test_core_over_finite_fields(data):
    F, (a, b, c) = data
    zero = F.zero()
    assert poly.mul(a, b) == schoolbook(a, b, zero)
    # values at every element: a product evaluates to the product of values
    for x in F.elements():
        assert poly.horner(poly.mul(a, b), x) == poly.horner(a, x) * poly.horner(b, x)
        assert poly.horner(poly.sub(a, b), x) == poly.horner(a, x) - poly.horner(b, x)
    assert poly.derivative(poly.mul(a, b)) == poly.add(
        poly.mul(poly.derivative(a), b), poly.mul(a, poly.derivative(b))
    )
    if b:
        check_division(a, b)
    check_gcd(a, b)
    if c:
        # a common factor c divides the gcd
        g = poly.gcd(poly.mul(a, c), poly.mul(b, c))
        assert poly.divmod(g, c)[1] == []


@settings(max_examples=50, deadline=None)
@given(field_polys(count=2), st.integers(0, 40))
def test_powmod_is_repeated_product_over_finite_fields(data, e):
    F, (a, m) = data
    if not m:
        m = [F.one()]
    want = poly.divmod([F.one()], m)[1]
    for _ in range(e):
        want = poly.divmod(poly.mul(want, a), m)[1]
    assert poly.powmod(a, e, m) == want


@settings(max_examples=60, deadline=None)
@given(rational_polys, rational_polys, st.integers(0, 12))
def test_core_over_the_rationals(a, b, e):
    assert poly.mul(a, b) == schoolbook(a, b, Fraction(0))
    for x in (Fraction(0), Fraction(-3, 2), Fraction(7)):
        assert poly.horner(poly.mul(a, b), x) == poly.horner(a, x) * poly.horner(b, x)
    if b:
        check_division(a, b)
        want = poly.divmod([Fraction(1)], b)[1]
        for _ in range(e):
            want = poly.divmod(poly.mul(want, a), b)[1]
        assert poly.powmod(a, e, b) == want
    check_gcd(a, b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=8).map(poly.trim), st.lists(st.integers(-9, 9), max_size=4))
def test_division_by_a_monic_integer_polynomial_stays_in_the_integers(a, b):
    b = b + [1]
    q, r = poly.divmod(a, b)
    assert all(type(c) is int for c in q + r)
    check_division(a, b)


@st.composite
def cyc_polys(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    cyc = st.lists(st.integers(-3, 3), min_size=p - 1, max_size=p - 1).map(lambda v: Cyc(p, v))
    return p, [poly.trim(draw(st.lists(cyc, max_size=5))) for _ in range(2)]


@settings(max_examples=50, deadline=None)
@given(cyc_polys())
def test_mul_over_cyclotomic_integers(data):
    p, (a, b) = data
    assert poly.mul(a, b) == schoolbook(a, b, Cyc(p))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_poly_roots_of_distinct_linear_factors(field, data):
    F = field_create(*field)
    elements = list(F.elements())
    roots = data.draw(st.sets(st.sampled_from(elements), max_size=min(len(elements), 6)))
    lead = data.draw(st.sampled_from(elements[1:]))
    f = [lead]
    for r in roots:
        f = poly.mul(f, [-r, F.one()])
    brute = [x for x in elements if not poly.horner(f, x)]
    assert poly_roots(f, F) == brute
    assert set(brute) == roots
