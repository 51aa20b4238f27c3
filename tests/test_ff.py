import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildinv.errors import ValidationError
from wildinv.ff import (
    artin_schreier_root,
    canonical_root_of_unity,
    element_order,
    embed,
    field_create,
    format_element,
    frobenius,
    multiplicative_order,
    norm_trace,
    parse_element,
    project_to_subfield,
    roots_of_unity,
)
from wildinv.numth import prime_factors


def test_prime_field_modulus_convention():
    F = field_create(3, 1)
    assert F.modulus == (0, 1)


def test_lex_least_moduli():
    # enumerate monic quadratics over F_3 in lex order: first irreducible is x^2+1
    assert field_create(3, 2).modulus == (1, 0, 1)
    # unique irreducible quadratic over F_2
    assert field_create(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_modulus_is_irreducible(p, n):
    # gcd conditions against x^{p^k} - x certify irreducibility
    from wildinv.ff import _fp_is_irreducible

    F = field_create(p, n)
    assert _fp_is_irreducible(list(F.modulus), p)


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,max_n", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducible_count_is_gauss_formula(p, max_n):
    # the number of monic irreducibles of degree n is (1/n) sum_{d|n} mu(d) p^(n/d)
    from wildinv.ff import _fp_is_irreducible

    for n in range(1, max_n + 1):
        got = sum(
            _fp_is_irreducible([*tail, 1], p) for tail in itertools.product(range(p), repeat=n)
        )
        want = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert got == want, (p, n)


# Reference test for the least-modulus check: Rabin's criterion, x^(p^n) = x
# mod m and gcd(x^(p^(n/l)) - x, m) = 1 for every prime l | n, computed by
# square and multiply with its own polynomial helpers. A candidate of degree
# >= 2 with a root in F_p is reducible, so only root-free ones reach it.


def _rabin_mulmod(a, b, m, p):
    n = len(m) - 1
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for top in range(2 * n - 2, n - 1, -1):
        c = out[top] % p
        if c:
            for i in range(n):
                out[top - n + i] -= c * m[i]
    return [c % p for c in out[:n]]


def _rabin_x_power(e, m, p):
    n = len(m) - 1
    result, base = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
    while e:
        if e & 1:
            result = _rabin_mulmod(result, base, m, p)
        base = _rabin_mulmod(base, base, m, p)
        e >>= 1
    return result


def _rabin_gcd_degree(a, b, p):
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for i, bi in enumerate(b):
                a[off + i] = (a[off + i] - c * bi) % p
            trim(a)
        a, b = b, a
    return len(a) - 1


def _rabin_is_irreducible(m, p):
    n = len(m) - 1
    if any(sum(c * pow(a, i, p) for i, c in enumerate(m)) % p == 0 for a in range(p)):
        return False
    x = [0, 1] + [0] * (n - 2)
    if _rabin_x_power(p ** n, m, p) != x:
        return False
    for ell in prime_factors(n):
        h = _rabin_x_power(p ** (n // ell), m, p)
        h[1] = (h[1] - 1) % p
        if _rabin_gcd_degree(m, h, p) != 0:
            return False
    return True


@pytest.mark.parametrize("p,max_n", [(23, 22), (7, 24)])
def test_least_irreducible_matches_rabin_reference(p, max_n):
    # same enumeration order (constant term from 1, then the tail in lex
    # order), so the same least modulus as before the switch to Ben-Or
    from wildinv.ff import _least_irreducible

    for n in range(2, max_n + 1):
        want = next(
            m
            for c0 in range(1, p)
            for tail in itertools.product(range(p), repeat=n - 1)
            for m in [(c0, *tail, 1)]
            if _rabin_is_irreducible(m, p)
        )
        assert _least_irreducible(p, n) == want, (p, n)


def test_elements_are_lazy():
    # enumerating F_p must not build range(p) up front: for p above 2^32 that
    # is a MemoryError (tests/test_cli.py runs that case under a memory cap)
    import tracemalloc

    F = field_create(1000003, 1)
    tracemalloc.start()
    it = F.elements()
    first = [next(it).coords for _ in range(3)]
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert first == [(0,), (1,), (2,)]
    assert peak < 1 << 20
    # and the order is still the coordinate-lex order of itertools.product
    F9 = field_create(3, 2)
    assert [x.coords for x in F9.elements()] == list(itertools.product(range(3), repeat=2))


def test_field_create_validation():
    with pytest.raises(ValidationError):
        field_create(4, 2)
    with pytest.raises(ValidationError):
        field_create(3, 0)


def test_field_axioms_random():
    rng = random.Random(11)
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        F = field_create(p, n)
        for _ in range(40):
            a = F.el([rng.randrange(p) for _ in range(n)])
            b = F.el([rng.randrange(p) for _ in range(n)])
            c = F.el([rng.randrange(p) for _ in range(n)])
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == F.one()


def test_frobenius_is_homomorphism_and_order():
    F = field_create(3, 2)
    for x in F.elements():
        assert frobenius(x, 2) == x
        for y in F.elements():
            assert frobenius(x + y, 1) == frobenius(x, 1) + frobenius(y, 1)
    assert frobenius(F.zero(), 5) == F.zero()
    g = F.gen()
    # cube by repeated squaring equals naive cube
    assert frobenius(g + 1, 1) == (g + 1) * (g + 1) * (g + 1)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 4)])
def test_frobenius_fixed_fields(p, n):
    # frobenius(., k) fixes exactly F_{p^gcd(k,n)}, on full enumeration (<= 81)
    from math import gcd

    F = field_create(p, n)
    for k in range(1, n + 1):
        fixed = [x for x in F.elements() if frobenius(x, k) == x]
        assert len(fixed) == p ** gcd(k, n)


def test_norm_trace_examples():
    F9 = field_create(3, 2)
    F3 = field_create(3, 1)
    nr, tr = norm_trace(F9.one(), 1)
    assert nr == F3.one() and tr == F3.constant(2)
    nr0, tr0 = norm_trace(F9.zero(), 1)
    assert nr0.is_zero() and tr0.is_zero()
    g = canonical_root_of_unity(F9, 8)
    nr, _ = norm_trace(g, 1)
    assert nr == F3.constant(2)  # g^{(9-1)/(3-1)} generates F_3^x
    with pytest.raises(ValidationError):
        norm_trace(field_create(3, 4).one(), 3)


def test_trace_additive_norm_multiplicative_and_surjective():
    rng = random.Random(5)
    for p, n in [(3, 2), (3, 3)]:
        F = field_create(p, n)
        for _ in range(30):
            x = F.el([rng.randrange(p) for _ in range(n)])
            y = F.el([rng.randrange(p) for _ in range(n)])
            _, tx = norm_trace(x, 1)
            _, ty = norm_trace(y, 1)
            _, txy = norm_trace(x + y, 1)
            assert txy == tx + ty
            nx, _ = norm_trace(x, 1)
            ny, _ = norm_trace(y, 1)
            nxy, _ = norm_trace(x * y, 1)
            assert nxy == nx * ny
        traces = {norm_trace(x, 1)[1] for x in F.elements()}
        assert len(traces) == p


def test_roots_of_unity():
    F9 = field_create(3, 2)
    assert roots_of_unity(F9, 1) == [F9.one()]
    mu4 = roots_of_unity(F9, 4)
    assert len(mu4) == 4
    for z in mu4:
        assert z ** 4 == F9.one()
        assert z * z == F9.one() or z * z == -F9.one()
    F3 = field_create(3, 1)
    assert {z.coords[0] for z in roots_of_unity(F3, 2)} == {1, 2}
    z = canonical_root_of_unity(F9, 4)
    assert element_order(z) == 4
    with pytest.raises(ValidationError):
        roots_of_unity(F9, 5)


def test_embed_is_canonical_ring_hom():
    rng = random.Random(3)
    F9 = field_create(3, 2)
    F81 = field_create(3, 4)
    one = embed(F9.one(), F81)
    assert one == F81.one()
    c = embed(F9.constant(2), F81)
    assert c == F81.constant(2)
    for _ in range(20):
        x = F9.el([rng.randrange(3) for _ in range(2)])
        y = F9.el([rng.randrange(3) for _ in range(2)])
        assert embed(x + y, F81) == embed(x, F81) + embed(y, F81)
        assert embed(x * y, F81) == embed(x, F81) * embed(y, F81)
        # embed commutes with frobenius
        assert embed(frobenius(x, 1), F81) == frobenius(embed(x, F81), 1)
        assert project_to_subfield(embed(x, F81), F9) == x
    # injectivity on full enumeration
    imgs = {embed(x, F81) for x in F9.elements()}
    assert len(imgs) == 9


def test_embed_requires_divisibility():
    with pytest.raises(ValidationError):
        embed(field_create(3, 2).one(), field_create(3, 3))


def test_multiplicative_order_examples():
    assert multiplicative_order(3, 4) == 2
    assert multiplicative_order(3, 1) == 1
    assert multiplicative_order(3, 10) == 4
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def test_artin_schreier_root():
    F9 = field_create(3, 2)
    t = F9.gen()
    r = artin_schreier_root(t)
    if r is not None:
        assert r ** 3 - r == t
    _, tr = norm_trace(t, 1)
    assert (r is None) == (not tr.is_zero())


def test_text_form_roundtrip():
    F9 = field_create(3, 2)
    x = F9.gen() + 1
    s = format_element(x)
    assert s == "3^2:1,0,1:1,1"
    assert parse_element(s) == x
    with pytest.raises(ValidationError):
        parse_element("3^2:9,9,9:1,1")


# ---------------------------------------------------------------------------
# Canonical field data: roots of unity, element orders, embedding roots


def _small_fields(bound):
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= bound:
            yield field_create(p, n)
            n += 1


def test_canonical_root_is_first_element_of_order_d():
    # mu_d by enumeration (elements() is already in canonical order), and the
    # canonical root by its definition: the first element of mu_d whose order
    # is exactly d
    for F in _small_fields(3 ** 6):
        N = F.order - 1
        divisors = [k for k in range(1, N + 1) if N % k == 0]
        # least divisor k of N with x^k = 1, trying the divisors in turn
        order = {x: next(k for k in divisors if x ** k == F.one()) for x in F.elements() if x}
        for d in divisors:
            mu = [x for x, o in order.items() if d % o == 0]
            assert roots_of_unity(F, d) == mu, (F, d)
            want = next(x for x in mu if order[x] == d)
            assert canonical_root_of_unity(F, d) == want, (F, d)


def test_roots_of_unity_are_searched_once_per_field_and_d(monkeypatch):
    from wildinv import ff

    F = field_create(3, 4)
    monkeypatch.setattr(F, "_mu", {})
    searches = []
    real = ff._root_of_unity_generator

    def counting(G, d):
        searches.append((G, d))
        return real(G, d)

    def no_order(x):
        raise AssertionError("canonical_root_of_unity must not compute orders")

    monkeypatch.setattr(ff, "_root_of_unity_generator", counting)
    monkeypatch.setattr(ff, "element_order", no_order)
    first = roots_of_unity(F, 16)
    want = list(first)
    first.clear()
    assert roots_of_unity(F, 16) == want and len(want) == 16
    assert roots_of_unity(F, 16) is not roots_of_unity(F, 16)
    z = canonical_root_of_unity(F, 16)
    assert canonical_root_of_unity(F, 5) == canonical_root_of_unity(F, 5)
    assert searches == [(F, 16), (F, 5)]
    assert z in want and z ** 8 != F.one()


def test_mu_data_from_a_cached_multiple_matches_a_fresh_search(monkeypatch):
    # mu_d taken from zeta_D^{D/d} for a cached D with d | D, against mu_d
    # from its own generator search, on random (F, D, d)
    from wildinv import ff

    rng = random.Random(11)
    real = ff._root_of_unity_generator
    fields = [(2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (3, 6), (5, 2), (5, 3), (7, 2), (13, 1)]
    for _ in range(60):
        F = field_create(*rng.choice(fields))
        N = F.order - 1
        D = rng.choice([x for x in range(2, N + 1) if N % x == 0])
        d = rng.choice([x for x in range(1, D) if D % x == 0])
        monkeypatch.setattr(F, "_mu", {})
        fresh = ff._mu_data(F, d)
        monkeypatch.setattr(F, "_mu", {})
        ff._mu_data(F, D)
        monkeypatch.setattr(ff, "_root_of_unity_generator", None)  # no search
        assert ff._mu_data(F, d) == fresh, (F, D, d)
        monkeypatch.setattr(ff, "_root_of_unity_generator", real)


def _mu_pairs(bound=3 ** 12, dmax=400):
    for p in (2, 3, 5, 7):
        n = 1
        while p ** n <= bound:
            yield from ((p, n, d) for d in range(2, dmax + 1) if (p ** n - 1) % d == 0)
            n += 1


def test_mu_data_matches_the_whole_field_generator_search(monkeypatch):
    # the generator drawn from F_{p^a}, a = ord_d(p), against the first
    # generator of the whole field: every (F, d) with p <= 7, p^n <= 3^12,
    # 2 <= d <= 400, each from a fresh cache so neither route reuses a mu_D
    from reference import root_of_unity_generator_in_the_whole_field

    from wildinv import ff

    real = ff._root_of_unity_generator
    pairs = list(_mu_pairs())
    assert len(pairs) == 362
    for p, n, d in pairs:
        F = field_create(p, n)
        monkeypatch.setattr(F, "_mu", {})
        got = ff._mu_data(F, d)
        monkeypatch.setattr(F, "_mu", {})
        monkeypatch.setattr(ff, "_root_of_unity_generator", root_of_unity_generator_in_the_whole_field)
        assert ff._mu_data(F, d) == got, (p, n, d)
        monkeypatch.setattr(ff, "_root_of_unity_generator", real)
        z = real(F, d)
        assert z.frobenius(multiplicative_order(p, d)) == z, (p, n, d)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (3, 4), (5, 2), (7, 2), (13, 1)])
def test_element_order_matches_brute_force(p, n):
    F = field_create(p, n)
    for x in F.elements():
        if x.is_zero():
            continue
        k, y = 1, x
        while y != F.one():
            y, k = y * x, k + 1
        assert element_order(x) == k, x


def _embedding_pairs(bound):
    for p in (2, 3, 5, 7):
        n = 2
        while p ** n <= bound:
            for s in range(2, n):
                if n % s == 0:
                    yield p, s, n
            n += 1


@pytest.mark.parametrize("p,s,n", list(_embedding_pairs(2 ** 16)))
def test_embedding_root_is_least_root_from_poly_roots(monkeypatch, p, s, n):
    # the embedding sends the generator of F_{p^s} to the least root of its
    # modulus in F_{p^n}: Cantor-Zassenhaus over the whole target is the
    # reference for the split inside the degree-s subfield
    from reference import poly_roots
    from wildinv.ff import _embedding_matrix

    S, T = field_create(p, s), field_create(p, n)
    roots = poly_roots([T.constant(c) for c in S.modulus], T)
    assert len(roots) == s
    monkeypatch.setattr(T, "_embed_cache", {})
    M = _embedding_matrix(S, T)
    assert tuple(int(row[1]) for row in M) == roots[0].coords
    assert T._embed_cache[(p, s)] is M


def test_ff_checks_raise(monkeypatch):
    # the checks behind projections, embeddings and roots of unity are raises,
    # so they survive python -O
    from wildinv import ff
    from wildinv.errors import TheoremViolation

    F9, F81 = field_create(3, 2), field_create(3, 4)
    x = embed(F9.gen(), F81)
    with monkeypatch.context() as mp:
        mp.setattr(ff, "_solve_mod", lambda A, b, p: None)
        with pytest.raises(TheoremViolation, match="projection"):
            project_to_subfield(x, F9)
    with monkeypatch.context() as mp:
        mp.setattr(F81, "_embed_cache", {})
        mp.setattr(ff, "_one_root", lambda g, K_rows, T: T.one())
        with pytest.raises(TheoremViolation, match="root of the modulus"):
            embed(F9.gen(), F81)
    with monkeypatch.context() as mp:
        mp.setattr(F81, "_mu", {})
        mp.setattr(ff, "_root_of_unity_generator", lambda F, d: F.one())
        with pytest.raises(TheoremViolation, match="order exactly d"):
            roots_of_unity(F81, 5)


# ---------------------------------------------------------------------------
# The lean Ben-Or against the former one (tests/reference.py)


def _random_monic(rng, p, n):
    return [rng.randrange(p) for _ in range(n)] + [1]


def _random_irreducible(rng, p, n):
    from reference import ben_or_is_irreducible

    while True:
        m = _random_monic(rng, p, n)
        if ben_or_is_irreducible(m, p):
            return m


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(0, 2 ** 32),
    st.sampled_from(["random", "irreducible", "product", "square", "square times"]),
)
def test_ben_or_verdict_matches_the_reference(p, seed, kind):
    # random monic polynomials of degree <= 12, irreducible ones, products of
    # two irreducibles and squares of one (times another): the verdict is the
    # former Ben-Or's, and m is left as it was
    from reference import ben_or_is_irreducible
    from wildinv.ff import _fp_is_irreducible

    rng = random.Random(seed)
    n = rng.randint(0, 12)
    if kind == "random":
        m = _random_monic(rng, p, n)
    elif kind == "irreducible":
        m = _random_irreducible(rng, p, max(n, 1))
    elif kind == "product":
        k = rng.randint(1, 11)
        m = _poly_mul(_random_irreducible(rng, p, k), _random_irreducible(rng, p, rng.randint(1, 12 - k)), p)
    else:
        k = rng.randint(1, 6)
        g = _random_irreducible(rng, p, k)
        m = _poly_mul(g, g, p)
        if kind == "square times" and 2 * k < 12:
            m = _poly_mul(m, _random_irreducible(rng, p, rng.randint(1, 12 - 2 * k)), p)
    given_m = list(m)
    assert _fp_is_irreducible(m, p) == ben_or_is_irreducible(list(m), p), (m, p)
    assert m == given_m
    if kind == "irreducible":
        assert _fp_is_irreducible(m, p)
    elif kind != "random":
        assert not _fp_is_irreducible(m, p)


def _dense_irreducible(rng, p, n):
    """A random monic irreducible of degree n; for p > 2 every coefficient
    is nonzero."""
    from wildinv.ff import _fp_is_irreducible

    low = range(1, p) if p > 2 else range(p)
    while True:
        m = [rng.choice(low) for _ in range(n)] + [1]
        if _fp_is_irreducible(m, p):
            return m


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 16), st.booleans(), st.integers(0, 2 ** 32))
def test_field_products_and_power_traces_match_the_references(p, n, canonical, seed):
    # a product is poly.mul folded by the nonzero low terms of the modulus;
    # the canonical moduli have 1 to 5 of them, so dense random moduli test
    # the fold too. Tr(x^k) is the sum of the powers r^k over the conjugates
    # r = x^{p^i}, all formed with the reference products.
    from reference import _mod, _mul
    from wildinv.ff import Field
    from wildinv.linalg import mat_vec

    rng = random.Random(seed)
    F = field_create(p, n) if canonical else Field(p, n, _dense_irreducible(rng, p, n))
    m = list(F.modulus)

    def padded(c):
        return tuple(c) + (0,) * (n - len(c))

    for _ in range(4):
        a, b = (F.el([rng.randrange(p) for _ in range(n)]) for _ in range(2))
        want = padded(_mod(_mul(list(a.coords), list(b.coords), p), m, p))
        assert F._mul(a.coords, b.coords) == want
        assert tuple(mat_vec(F.mult_matrix(a), b.coords, p)) == want

    r, sums = _mod([0, 1], m, p), [[0] * n for _ in range(2 * n - 1)]
    for _ in range(n):  # r runs over the conjugates x^{p^i}
        power = [1]
        for total in sums:
            total[:] = [(t + c) % p for t, c in zip(total, padded(power))]
            power = _mod(_mul(power, r, p), m, p)
        conjugate = [1]
        for _ in range(p):
            conjugate = _mod(_mul(conjugate, r, p), m, p)
        r = conjugate
    assert F.power_traces() == [total[0] for total in sums]
    assert all(not any(total[1:]) for total in sums)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 23, 101]), st.integers(0, 2 ** 32))
def test_cyc_product_matches_the_former_convolution(p, seed):
    # Cyc.__mul__ takes its convolution from poly.mul, which skips zero
    # coordinates and trims; the reference convolves every pair
    from reference import cyc_mul
    from wildinv.counts import Cyc

    rng = random.Random(seed)

    def draw():
        bound = rng.choice([1, 3, 10 ** 6, 10 ** 40])
        density = rng.choice([0.0, 0.3, 1.0])
        return Cyc(p, [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(p - 1)])

    x, y = draw(), draw()
    assert x * y == cyc_mul(x, y)
    assert y * x == cyc_mul(y, x)


LEAST_MODULUS_RANGES = [(2, 32), (3, 24), (5, 20), (23, 8)]


@pytest.mark.parametrize("p,max_n", LEAST_MODULUS_RANGES)
def test_field_modulus_matches_the_reference_search(p, max_n):
    from reference import least_irreducible

    for n in range(1, max_n + 1):
        assert field_create(p, n).modulus == least_irreducible(p, n), (p, n)


@pytest.mark.parametrize("p,max_n", LEAST_MODULUS_RANGES)
def test_frobenius_matrix_matches_powers_of_the_generator(p, max_n):
    # the columns come from Ben-Or's rows x^{jp} mod m, not from gen() ** p
    from reference import frobenius_matrix_by_powers

    for n in range(1, max_n + 1):
        F = field_create(p, n)
        assert F.frobenius_matrix(1) == frobenius_matrix_by_powers(F), (p, n)


@pytest.mark.parametrize("p", [65537, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [2, 3])
def test_least_irreducible_for_a_large_prime_is_fast(p, n):
    # x^p comes from square and multiply: no step costs p shifts
    import time

    from reference import ben_or_is_irreducible
    from wildinv.ff import _least_irreducible

    t0 = time.perf_counter()
    m = _least_irreducible(p, n)
    assert time.perf_counter() - t0 < 1.0
    assert len(m) == n + 1 and m[-1] == 1 and ben_or_is_irreducible(list(m), p)
