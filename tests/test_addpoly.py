import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildinv.addpoly import (
    AdditivePoly,
    action_matrix,
    classical_is_irreducible,
    coeff_transport,
    coeff_transport_inverse,
    compose,
    e_poly,
    evaluate,
    is_prime,
    is_rational_over,
    is_reciprocal,
    is_reduced,
    kernel_basis,
    kernel_poly,
    mu_scaling,
    pairing_identity_residual,
    pairing_in_x,
    pairing_poly,
    pairing_value,
    right_divmod,
    scaling_order,
    skew_right_gcd,
    split_kernel,
    splitting_degree,
    twisted_scaling_order,
)
from wildinv.errors import ValidationError
from wildinv.ambient import required_degree
from wildinv.ff import embed, field_create, roots_of_unity
from wildinv.linalg import mat_vec, rref

from test_ambient import _contexts


def random_poly(F, emax, rng, nonzero=True):
    e = rng.randint(0, emax)
    cs = [F.el([rng.randrange(F.p) for _ in range(F.n)]) for _ in range(e + 1)]
    f = AdditivePoly(F, cs)
    if nonzero and f.is_zero():
        return random_poly(F, emax, rng, nonzero)
    return f


def random_element(F, rng):
    return F.el([rng.randrange(F.p) for _ in range(F.n)])


def test_evaluate_examples():
    F3 = field_create(3, 1)
    xp = AdditivePoly.from_ints(F3, [0, 1])
    assert evaluate(xp, F3.zero()).is_zero()
    f = AdditivePoly.from_ints(F3, [1, 1])  # x + x^3
    assert evaluate(f, F3.one()) == F3.constant(2)


def test_evaluate_is_additive():
    rng = random.Random(2)
    for p in (2, 3, 5):
        F = field_create(p, 2)
        for _ in range(25):
            f = random_poly(F, 3, rng)
            x, y = random_element(F, rng), random_element(F, rng)
            assert evaluate(f, x + y) == evaluate(f, x) + evaluate(f, y)
            lam = rng.randrange(p)
            assert evaluate(f, x * lam) == evaluate(f, x) * lam


def test_compose_examples_and_cross_check():
    F3 = field_create(3, 1)
    xp = AdditivePoly.from_ints(F3, [0, 1])
    assert compose(xp, xp) == AdditivePoly.from_ints(F3, [0, 0, 1])
    a = AdditivePoly.from_ints(F3, [2])
    b = AdditivePoly.from_ints(F3, [2])
    assert compose(a, b) == AdditivePoly.from_ints(F3, [1])
    rng = random.Random(4)
    for p in (2, 3, 5):
        F = field_create(p, 2)
        for _ in range(25):
            f, g = random_poly(F, 3, rng), random_poly(F, 3, rng)
            x = random_element(F, rng)
            assert evaluate(compose(f, g), x) == evaluate(f, evaluate(g, x))


def test_compose_associative():
    rng = random.Random(6)
    F = field_create(3, 2)
    for _ in range(25):
        f, g, h = (random_poly(F, 2, rng) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_right_divmod():
    rng = random.Random(8)
    count = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            F = field_create(p, n)
            for _ in range(35):
                f = random_poly(F, 3, rng)
                g = random_poly(F, 2, rng)
                h, r = right_divmod(f, g)
                assert compose(h, g) + r == f
                if not r.is_zero():
                    assert r.p_degree < g.p_degree
                count += 1
    assert count >= 200
    F3 = field_create(3, 1)
    f = AdditivePoly.from_ints(F3, [1, 2, 1])
    h, r = right_divmod(f, f)
    assert h == AdditivePoly.identity(F3) and r.is_zero()
    g = AdditivePoly.from_ints(F3, [1, 0, 0, 1])
    h, r = right_divmod(f, g)
    assert h.is_zero() and r == f
    with pytest.raises(ValidationError):
        right_divmod(f, AdditivePoly.zero(F3))


def test_skew_factorization_example():
    # x^9 + x = (x^3 + a x) o (x^3 + b x) over F_9 when b^4 = -1, a = -b^3
    F9 = field_create(3, 2)
    E = AdditivePoly.from_ints(F9, [1, 0, 1])
    bs = [b for b in F9.elements() if not b.is_zero() and b ** 4 == -F9.one()]
    assert bs
    for b in bs:
        g = AdditivePoly(F9, [b, F9.one()])
        h, r = right_divmod(E, g)
        assert r.is_zero()
        assert compose(h, g) == E
        assert h.coeffs[0] == -(b ** 3)


def test_e_poly_examples():
    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 1])
    assert e_poly(R) == AdditivePoly.from_ints(F3, [1, 0, 1])
    F9 = field_create(3, 2)
    a = F9.gen()
    Rm = AdditivePoly(F9, [F9.zero(), a])
    E = e_poly(Rm)
    assert E.coeffs[0] == a and E.coeffs[2] == a ** 3 and E.coeffs[1].is_zero()
    F4 = field_create(2, 2)
    R48 = AdditivePoly(F4, [F4.zero(), F4.one(), F4.zero(), F4.one()])
    E48 = e_poly(R48)
    assert E48.p_degree == 6 and E48.coeffs[0] == F4.one()
    with pytest.raises(ValidationError):
        e_poly(AdditivePoly.from_ints(field_create(2, 1), [1]))  # (p,e) = (2,0)


def test_e_poly_always_reduced():
    rng = random.Random(9)
    for p in (2, 3, 5):
        F = field_create(p, 2)
        for _ in range(20):
            R = random_poly(F, 3, rng)
            if p == 2 and R.p_degree == 0:
                continue
            assert is_reduced(e_poly(R))


def test_scaling_orders():
    F3 = field_create(3, 1)
    F2 = field_create(2, 1)
    assert scaling_order(AdditivePoly.from_ints(F3, [0, 0, 1])) == 10  # x^{p^e} -> p^e+1
    R28 = AdditivePoly.from_ints(F2, [0, 1, 0, 1])  # x^2 + x^8
    assert scaling_order(R28) == 3
    R = AdditivePoly.from_ints(F3, [0, 1])
    assert scaling_order(R) == 4
    assert twisted_scaling_order(R, 2) == 2
    assert twisted_scaling_order(R, 1) == 4
    with pytest.raises(ValidationError):
        twisted_scaling_order(R, 3)


def test_pairing_e1_closed_form():
    F5 = field_create(5, 1)
    a0, a1 = F5.constant(2), F5.constant(3)
    T = pairing_poly(AdditivePoly(F5, [a0, a1]))
    assert T[(0, 0)] == -(a0 + a0)
    assert T[(0, 1)] == -a1
    assert set(T) == {(0, 0), (0, 1)}


def test_pairing_zero_when_e0():
    F3 = field_create(3, 1)
    assert pairing_poly(AdditivePoly.from_ints(F3, [2])) == {}


def test_pairing_identity_exact():
    rng = random.Random(10)
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            F = field_create(p, n)
            for _ in range(12):
                R = random_poly(F, 3, rng)
                if p == 2 and R.p_degree == 0:
                    continue
                assert pairing_identity_residual(R) == {}


def test_pairing_bilinear():
    rng = random.Random(12)
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.one(), F9.gen()])
    for _ in range(20):
        x, y, z = (random_element(F9, rng) for _ in range(3))
        assert pairing_value(R, x + z, y) == pairing_value(R, x, y) + pairing_value(R, z, y)
        assert pairing_value(R, x, y + z) == pairing_value(R, x, y) + pairing_value(R, x, z)


@st.composite
def _pairing_cases(draw):
    # dense or sparse R, e = 0 included, and x, y from the base field, the
    # ambient of R or a degree-2 extension of that ambient
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, draw(st.integers(1, 2)))
    coord = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    e = draw(st.integers(0, {2: 3, 3: 2, 5: 1, 7: 1}[p]))
    sparse = draw(st.booleans())
    low = [[0] * F.n if sparse and draw(st.booleans()) else draw(coord) for _ in range(e)]
    R = AdditivePoly(F, [F.el(c) for c in low + [draw(coord.filter(any))]])
    M = F.n if p == 2 and e == 0 else required_degree(R, 1)
    degree = draw(st.sampled_from((F.n, M, 2 * M)))
    assume(p ** degree <= 2 ** 24)
    G = field_create(p, degree)
    x, y = (G.el(draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))) for _ in range(2))
    return R, x, y


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_pairing_cases())
def test_pairing_value_and_pairing_in_x_match_the_monomial_expansion(case):
    # pairing_value and pairing_in_x each read the term list; the reference
    # sums c x^{p^a} y^{p^b} over the monomials of pairing_poly
    R, x, y = case
    G = x.field
    terms = [(a, b, c if c.field is G else embed(c, G)) for (a, b), c in pairing_poly(R).items()]
    want = sum((c * x.frobenius(a) * y.frobenius(b) for a, b, c in terms), G.zero())
    assert pairing_value(R, x, y) == want
    assert evaluate(pairing_in_x(R, y), x) == want


def test_mu_scaling():
    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 1])
    E = e_poly(R)
    assert mu_scaling(E, 1)
    assert mu_scaling(E, scaling_order(R))
    xp = AdditivePoly.from_ints(F3, [0, 1])
    assert not mu_scaling(xp, 4)
    # spot check by evaluation on a primitive 4th root
    F81 = field_create(3, 4)
    for z in roots_of_unity(F81, 4):
        Ez = E.embed_to(F81)
        for x in [F81.gen(), F81.gen() + 1]:
            assert evaluate(Ez, z * x) == z * evaluate(Ez, x)


def test_kernel_poly():
    F27 = field_create(3, 3)
    with pytest.raises(ValidationError):
        kernel_poly([])  # the zero space has no nonempty basis
    W = [F27.one()]
    assert kernel_poly(W) == AdditivePoly(F27, [F27.constant(-1), F27.one()])
    # the line through an eighth root of -1 gives x^3 - beta^2 x
    F81 = field_create(3, 4)
    beta = next(b for b in F81.elements() if not b.is_zero() and b ** 8 == -F81.one())
    line = [beta * 2]
    assert kernel_poly(line) == AdditivePoly(F81, [-(beta ** 2), F81.one()])
    with pytest.raises(ValidationError):
        kernel_poly([F27.one(), F27.constant(2)])  # not a basis
    # kernel poly of a full kernel vanishes exactly on it, scaling-stable case
    F81 = field_create(3, 4)
    E = e_poly(AdditivePoly.from_ints(field_create(3, 1), [0, 1])).embed_to(F81)
    kb = kernel_basis(E, F81)
    span = {F81.zero()}
    for b in kb:
        span = {s + b * c for s in span for c in range(3)}
    f = kernel_poly(kb)
    zeros = [x for x in F81.elements() if evaluate(f, x).is_zero()]
    assert set(zeros) == span
    # stable under x -> x^3 (base field F_3): coefficients rational over F_3
    assert is_rational_over(f, 1)
    # mu_d stable kernel gives scaling equivariance
    assert mu_scaling(f, 4)


def test_is_reduced_and_rationality():
    F3 = field_create(3, 1)
    xp = AdditivePoly.from_ints(F3, [0, 1])
    assert not is_reduced(xp)
    assert is_reduced(e_poly(xp))
    F9 = field_create(3, 2)
    f = AdditivePoly(F9, [F9.gen(), F9.one()])
    assert is_rational_over(f, 2)
    assert not is_rational_over(f, 1)


def test_splitting_degree():
    F3 = field_create(3, 1)
    E = e_poly(AdditivePoly.from_ints(F3, [0, 1]))
    assert splitting_degree(E) == 4  # kernel has order-16 elements: 16 | 3^4 - 1
    assert splitting_degree(AdditivePoly.from_ints(F3, [1])) == 1
    # frobenius right factors do not change the splitting field: f = g o x^p
    fr = AdditivePoly.from_ints(F3, [0, 1, 0, 1])
    assert splitting_degree(fr) == splitting_degree(AdditivePoly.from_ints(F3, [1, 0, 1]))
    # a unit and a pure Frobenius have p-degree 0 once peeled
    F9 = field_create(3, 2)
    assert splitting_degree(AdditivePoly(F9, [F9.gen()])) == 1
    assert splitting_degree(AdditivePoly.monomial(F9, 3, F9.gen())) == 1


def test_skew_right_gcd():
    F3 = field_create(3, 1)
    E = e_poly(AdditivePoly.from_ints(F3, [0, 1]))
    frob4 = AdditivePoly(F3, [-F3.one()] + [F3.zero()] * 3 + [F3.one()])
    g = skew_right_gcd(frob4, E)
    # x^{3^4} - x contains the full kernel of E
    assert g.p_degree == 2


def test_is_prime():
    F3 = field_create(3, 1)
    F9 = field_create(3, 2)
    assert is_prime(AdditivePoly.from_ints(F3, [1, 0, 1]))
    assert not is_prime(AdditivePoly.from_ints(F9, [1, 0, 1]))
    assert not is_prime(AdditivePoly.from_ints(F3, [0, 0, 1]))  # x^{p^2}
    assert is_prime(AdditivePoly.from_ints(F3, [0, 1]))  # x^p is prime
    with pytest.raises(ValidationError):
        is_prime(AdditivePoly.from_ints(F3, [2]))


def test_coeff_transport():
    F3 = field_create(3, 1)
    E = e_poly(AdditivePoly.from_ints(F3, [0, 1]))
    cs = coeff_transport(E, 1)
    assert [c.coords[0] for c in cs] == [1, 0, 1]
    assert classical_is_irreducible(cs)
    assert is_reciprocal(cs)
    assert coeff_transport_inverse(cs, 1) == E
    assert coeff_transport(AdditivePoly.from_ints(F3, [0, 1]), 1) == [F3.zero(), F3.one()]
    with pytest.raises(ValidationError):
        coeff_transport(AdditivePoly.from_ints(F3, [1, 1]), 2)  # exponent shape


def test_transport_agrees_with_is_prime_and_reciprocal():
    # random R with d_R = p^t + 1 and f | t: transported E is reciprocal;
    # a reducible transport always certifies a decomposition, and for t = f
    # the equivalence is two-way (for t > f it can fail: factors may live
    # outside the p^t-power subring, e.g. x + x^81 over F_3)
    rng = random.Random(13)
    from wildinv.addpoly import scaling_order as d_of

    checked = both_ways = 0
    for p in (2, 3):
        F = field_create(p, 1)
        for _ in range(40):
            R = random_poly(F, 2, rng)
            if p == 2 and R.p_degree == 0:
                continue
            d = d_of(R)
            k, x = 0, d - 1
            while x % p == 0 and x > 0:
                x //= p
                k += 1
            if x != 1 or k < 1:
                continue
            E = e_poly(R)
            try:
                cs = coeff_transport(E, k)
            except ValidationError:
                continue
            assert is_reciprocal(cs)
            irr = classical_is_irreducible(cs)
            prime = is_prime(E)
            if not irr:
                assert not prime
            if k == F.n:
                assert irr == prime
                both_ways += 1
            checked += 1
    assert checked >= 5 and both_ways >= 3


def test_text_form_roundtrip():
    from wildinv.addpoly import format_additive_poly, parse_additive_poly_text

    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.gen(), F9.one()])
    s = format_additive_poly(R)
    assert s.startswith("q=3^2; coeffs=[")
    assert parse_additive_poly_text(s) == R
    with pytest.raises(ValidationError):
        parse_additive_poly_text("nonsense")


def test_transport_counterexample_beyond_base_degree():
    # the one-way-ness is real: x + x^81 over F_3 transports to the
    # irreducible y^2 + 1 yet decomposes through mixed p-power factors
    F3 = field_create(3, 1)
    E = e_poly(AdditivePoly.from_ints(F3, [0, 0, 1]))
    cs = coeff_transport(E, 2)
    assert classical_is_irreducible(cs)
    assert not is_prime(E)
    f2 = AdditivePoly.from_ints(F3, [2, 1, 1])
    f1 = AdditivePoly.from_ints(F3, [2, 2, 1])
    assert compose(f1, f2) == E


# ---------------------------------------------------------------------------
# Kernel polynomials and the primality scan against brute force


def _span(elems, F):
    """Every F_p-combination of elems, enumerated: the reference span."""
    span = {F.zero()}
    for b in elems:
        span = {s + b * c for s in span for c in range(F.p)}
    return span


@st.composite
def _element_lists(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    F = field_create(p, draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p])))
    coords = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    return F, [F.el(c) for c in draw(st.lists(coords, min_size=1, max_size=3))]


@settings(max_examples=80, deadline=None)
@given(_element_lists())
def test_kernel_poly_vanishes_exactly_on_the_brute_force_span(case):
    F, elems = case
    span = _span(elems, F)
    if len(span) < F.p ** len(elems):
        with pytest.raises(ValidationError):
            kernel_poly(elems)
        return
    f = kernel_poly(elems)
    assert f.degree == len(span) and f.coeffs[-1] == F.one()
    assert {x for x in F.elements() if evaluate(f, x).is_zero()} == span
    # the sum of a basis is in its span, so appending it leaves no basis
    total = sum(elems, F.zero())
    with pytest.raises(ValidationError):
        kernel_poly(elems + [total])


def _all_vector_scan_is_prime(f):
    """The scan over every vector of F_p^n: f is prime iff no vector has a
    proper nonzero Frobenius-stable closure. Each closure is grown by
    re-reducing the rows with their images until it stops growing."""
    base, p, n = f.base, f.p, f.p_degree
    field, basis = split_kernel(f, base.n * splitting_degree(f))
    S = action_matrix([b.as_vector() for b in basis], lambda x: x.frobenius(base.n), field)
    for v in itertools.product(range(p), repeat=n):
        rows = rref([v], p)[0]
        while True:
            grown = rref(rows + [mat_vec(S, r, p) for r in rows], p)[0]
            if grown == rows:
                break
            rows = grown
        if 0 < len(rows) < n:
            return False
    return True


@st.composite
def _reduced_polys(draw):
    """A reduced additive polynomial of p-degree >= 2 over F_{p^f}, either
    random or the E-polynomial of a random R, with at most 81 kernel
    vectors."""
    p = draw(st.sampled_from((2, 3, 5)))
    F = field_create(p, draw(st.integers(1, 2)))
    coord = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    nonzero = coord.filter(any)
    if draw(st.booleans()):
        e = draw(st.integers(1, {2: 2, 3: 2, 5: 1}[p]))
        R = AdditivePoly(F, [F.el(draw(coord)) for _ in range(e)] + [F.el(draw(nonzero))])
        return e_poly(R)
    n = draw(st.integers(2, {2: 4, 3: 3, 5: 2}[p]))
    mid = [F.el(draw(coord)) for _ in range(n - 1)]
    return AdditivePoly(F, [F.el(draw(nonzero))] + mid + [F.el(draw(nonzero))])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_reduced_polys())
def test_is_prime_on_projective_points_matches_the_all_vector_scan(f):
    assert is_prime(f) == _all_vector_scan_is_prime(f)


# ---------------------------------------------------------------------------
# The module build's routines against their former versions (tests/reference.py)

_GCD_KMAX = 40


@st.composite
def _splitting_polys(draw):
    """A random f over F_{p^f}, p <= 7, f <= 2, p-degree <= 4: a nonzero
    x-slot or some Frobenius right factors x^{p^s}, and p-degree 0 too."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, draw(st.integers(1, 2)))
    coord = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    e = draw(st.integers(0, 4))
    s = draw(st.integers(0, e))
    mid = [F.el(draw(coord)) for _ in range(e - s)]
    lead = F.el(draw(coord.filter(any)))
    if s < e:
        mid[0] = F.el(draw(coord.filter(any)))
    return AdditivePoly(F, [F.zero()] * s + mid + [lead])


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_splitting_polys())
def test_splitting_degree_matches_the_gcd_per_k_reference(f):
    # one remainder sequence tau^N mod_right g against a skew right gcd with
    # x^{q^k} - x per k; past _GCD_KMAX the reference costs too much, and the
    # new route must then agree that no k <= _GCD_KMAX splits f
    from reference import splitting_degree_by_gcds

    want = splitting_degree_by_gcds(f, _GCD_KMAX)
    got = splitting_degree(f)
    if want is None:
        assert got > _GCD_KMAX
    else:
        assert got == want


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contexts())
def test_action_matrix_matches_the_solve_per_vector_reference(ctx):
    # coordinates read at the pivots of the echelon kernel basis against one
    # linear solve per image, for the scaling and Frobenius actions
    from reference import action_matrix_by_solves

    B, F = ctx.kernel_rows, ctx.ambient
    for fn in (lambda x: ctx.alpha * x, lambda x: x.frobenius(ctx.base.n)):
        assert action_matrix(B, fn, F) == action_matrix_by_solves(B, fn, F)


def test_action_matrix_raises_on_a_non_stable_span_and_a_non_echelon_basis():
    from wildinv.errors import TheoremViolation

    F = field_create(3, 4)
    E = e_poly(AdditivePoly.from_ints(field_create(3, 1), [0, 1])).embed_to(F)
    B = [b.as_vector() for b in kernel_basis(E, F)]
    assert len(B) == 2
    frob = lambda x: x.frobenius(1)  # noqa: E731
    action_matrix(B, frob, F)
    # the span of the first kernel vector alone is not Frobenius-stable
    with pytest.raises(TheoremViolation, match="not stable"):
        action_matrix(B[:1], frob, F)
    # F_3 in F_81 is stable, so only the echelon check can refuse these
    one = F.one().as_vector()
    two = F.constant(2).as_vector()
    both = [x + y for x, y in zip(B[0], B[1])]
    for bad in ([two], [one, one], [[0] * 4], B[::-1], [B[0], both], [both, B[1]]):
        with pytest.raises(ValidationError, match="echelon"):
            action_matrix(bad, lambda x: x, F)
