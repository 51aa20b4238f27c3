"""ambient: the context's Gram matrix and kernel coordinates, and, on its
kernel basis, espgroup's Artin-Schreier extension test against the full span
with the polar-form fact that makes the basis enough."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildinv import ambient, espgroup
from wildinv.addpoly import AdditivePoly, evaluate, omega_values, pairing_value
from wildinv.errors import AmbientGuardError, TheoremViolation
from wildinv.ff import artin_schreier_root, embed, field_create


def _needs_extension_on_the_full_span(R, kernel_elems):
    """Enumerate every F_p-combination of the kernel basis and ask each x
    whether y^p - y = x R(x) has a root: the reference verdict."""
    F = kernel_elems[0].field
    span = {F.zero()}
    for b in kernel_elems:
        span = {s + b * c for s in span for c in range(F.p)}
    return any(artin_schreier_root(x * evaluate(R, x)) is None for x in span)


@st.composite
def _contexts(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    F = field_create(p, draw(st.integers(1, 2)))
    coord = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    e = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p]))
    lead = draw(coord.filter(any))
    R = AdditivePoly(F, [F.el(draw(coord)) for _ in range(e)] + [F.el(lead)])
    m = draw(st.sampled_from([m for m in range(1, 9) if m % p]))
    try:
        return ambient.build_context(R, m)
    except AmbientGuardError:
        assume(False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contexts())
def test_basis_artin_schreier_verdict_matches_the_full_span(ctx):
    want = _needs_extension_on_the_full_span(ctx.R, ctx.kernel_elems)
    assert espgroup._needs_artin_schreier_extension(ctx.R, ctx.kernel_elems) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contexts())
def test_polar_form_has_trace_zero_on_kernel_pairs(ctx):
    # x R(y) + y R(x) = f(x, y)^p - f(x, y) on ker E, so it always has an
    # Artin-Schreier root; with y = x this makes Q vanish for p odd
    R, kb = ctx.R, ctx.kernel_elems
    for x, y in itertools.combinations_with_replacement(kb, 2):
        assert artin_schreier_root(x * evaluate(R, y) + y * evaluate(R, x)) is not None
    if ctx.ambient.p > 2:
        assert not espgroup._needs_artin_schreier_extension(R, kb)


@pytest.mark.parametrize(
    "p, f, coeffs, m, needs",
    [
        (2, 2, [(0, 1), (1, 0)], 7, True),
        (2, 1, [(1,), (0,), (1,)], 3, True),
        (3, 1, [(0,), (1,)], 1, False),
    ],
)
def test_artin_schreier_verdict_examples(p, f, coeffs, m, needs):
    F = field_create(p, f)
    R = AdditivePoly(F, [F.el(c) for c in coeffs])
    ctx = ambient.build_context(R, m)
    assert _needs_extension_on_the_full_span(R, ctx.kernel_elems) == needs
    assert espgroup._needs_artin_schreier_extension(R, ctx.kernel_elems) == needs
    # the group's context is the one built at p times the least degree
    # exactly when needed, and else the least one
    gamma = espgroup.GroupContext(R, m).context
    wide = ambient.build_context(R, m, degree=p * ctx.ambient.n)
    assert (_context_data(gamma) == _context_data(wide)) == needs
    assert (_context_data(gamma) == _context_data(ctx)) == (not needs)


def _context_data(ctx):
    return (
        ctx.ambient.p,
        ctx.ambient.n,
        [b.coords for b in ctx.kernel_elems],
        ctx.kernel_rows,
        ctx.alpha.coords,
        ctx.splitting_degree,
        ctx.d_R,
        ctx.d_Rm,
    )


def test_kernel_vector_to_element_matches_the_field_sum():
    # scaled and summed coordinates give the element that sum c_i b_i made
    # with field products, on the 56 monomial modules of the timed batch
    # list that have a root system: unit vectors, the columns of T (the
    # root-system check's vectors) and random coordinates outside 0..p-1
    import random

    from wildinv.cli import parse_additive_poly
    from wildinv.errors import ValidationError
    from wildinv.rootsys import monomial_root_system
    from wildinv.sympmod import build

    from test_rootsys import _batch_inputs

    rng = random.Random(11)
    checked = 0
    for spec in _batch_inputs()[:160]:
        R = parse_additive_poly(spec["R"], spec["p"], spec["f"], spec["e"])
        if spec["e"] == 0 or any(not c.is_zero() for c in R.coeffs[:-1]):
            continue
        try:
            monomial_root_system(spec["p"], spec["f"], spec["e"], R.coeffs[-1], spec["m"])
        except ValidationError:
            continue
        M = build(R, spec["m"])
        ctx, p = M.context, spec["p"]
        vectors = [[int(i == j) for j in range(M.dim)] for i in range(M.dim)]
        vectors += [list(col) for col in zip(*M.T)]
        vectors += [[rng.randrange(-p, 2 * p) for _ in range(M.dim)] for _ in range(4)]
        for v in vectors:
            want = ctx.ambient.zero()
            for c, b in zip(v, ctx.kernel_elems):
                want = want + b * c
            assert ctx.kernel_vector_to_element(v) == want, (spec["name"], v)
        checked += 1
    assert checked == 56


# ---------------------------------------------------------------------------
# The Gram matrix from the antisymmetric table against the former matrix of
# pairing values (tests/reference.py)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contexts(), st.randoms(use_true_random=False))
def test_gram_matches_the_pairing_values_reference(ctx, rng):
    # on the kernel basis and on random kernel vectors, as the descent passes
    from reference import gram_from_pairing_values

    kb = ctx.kernel_elems
    assert ctx.gram(kb) == gram_from_pairing_values(ctx, kb)
    vectors = [ctx.kernel_vector_to_element([rng.randrange(ctx.ambient.p) for _ in kb]) for _ in range(3)]
    assert ctx.gram(vectors) == gram_from_pairing_values(ctx, vectors)


@pytest.mark.parametrize(
    "coeffs, m",
    [
        ([(1,), (1,)], 1),
        ([(1,), (0,), (1,)], 3),
        ([(0,), (1,), (1,)], 1),
        ([(1,), (1,), (0,), (1,)], 1),
        ([(1, 1), (0, 1)], 3),
        ([(0, 1), (1, 0), (1, 1)], 1),
    ],
)
def test_gram_matches_the_pairing_values_reference_for_p_2(coeffs, m):
    # p = 2 and non-monomial R: d_ab = c_ab + c_ba
    from reference import gram_from_pairing_values

    F = field_create(2, len(coeffs[0]))
    ctx = ambient.build_context(AdditivePoly(F, [F.el(c) for c in coeffs]), m)
    assert ctx.dim >= 2
    assert ctx.gram(ctx.kernel_elems) == gram_from_pairing_values(ctx, ctx.kernel_elems)


def test_gram_raises_on_a_non_scalar_table(monkeypatch):
    # the scalar check survives python -O. gram reads R_amb: scaling it by
    # the generator g of the ambient scales omega by g, which is not a
    # scalar on a kernel pair with omega != 0, while pairs of scalars still
    # pair to 0
    F9 = field_create(3, 2)
    ctx = ambient.build_context(AdditivePoly(F9, [F9.zero(), F9.one()]), 1)
    F, kb = ctx.ambient, ctx.kernel_elems
    assert F.n > 1 and any(any(row) for row in ctx.gram(kb))
    monkeypatch.setattr(ctx, "R_amb", ctx.R_amb.scale(F.gen()))
    with pytest.raises(TheoremViolation, match="scalars"):
        ctx.gram(kb)
    assert ctx.gram([F.one(), F.constant(2)]) == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------------
# The Gram matrix from x R(y) - y R(x) under partial Frobenius traces against
# the antisymmetrized pairing value, on kernel elements and on any others


@st.composite
def _dense_or_sparse_contexts(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, draw(st.integers(1, 2)))
    coord = st.lists(st.integers(0, p - 1), min_size=F.n, max_size=F.n)
    e = draw(st.integers(1, {2: 3, 3: 2, 5: 1, 7: 1}[p]))
    sparse = draw(st.booleans())
    low = [[0] * F.n if sparse and draw(st.booleans()) else draw(coord) for _ in range(e)]
    R = AdditivePoly(F, [F.el(c) for c in low + [draw(coord.filter(any))]])
    m = draw(st.sampled_from([m for m in range(1, 9) if m % p]))
    try:
        return ambient.build_context(R, m)
    except AmbientGuardError:
        assume(False)


def _omega_matrix(ctx, xs):
    # f_R evaluated on each order of one pair, not through the Gram route
    def omega(x, y):
        return ambient._scalar((pairing_value(ctx.R, x, y) - pairing_value(ctx.R, y, x)).coords)

    return [[omega(x, y) for y in xs] for x in xs]


def _or_violation(fn, *args):
    try:
        return fn(*args)
    except TheoremViolation:
        return TheoremViolation


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_dense_or_sparse_contexts(), st.randoms(use_true_random=False), st.booleans())
def test_gram_matches_pairwise_omega_on_kernel_and_other_elements(ctx, rng, extend):
    # the reference evaluates f_R pointwise; the identity is algebraic, so the
    # values agree on every coordinate for any elements, in the ambient or
    # in a degree-2 extension of it (R embedded straight from its base, so
    # for f = 2 the embedded kernel need not pair to scalars)
    F, p, kb = ctx.ambient, ctx.ambient.p, ctx.kernel_elems
    kernel = kb + [ctx.kernel_vector_to_element([rng.randrange(p) for _ in kb]) for _ in range(2)]
    assert ctx.gram(kernel) == _omega_matrix(ctx, kernel)
    others = [F.el([rng.randrange(p) for _ in range(F.n)]) for _ in range(4)]
    if extend and p ** (2 * F.n) <= 2 ** 24:
        G = field_create(p, 2 * F.n)
        others = [embed(x, G) for x in kernel + others] + [G.el([rng.randrange(p) for _ in range(G.n)])]
    assert _or_violation(ctx.gram, others) == _or_violation(_omega_matrix, ctx, others)
    want = {
        (i, j): list((pairing_value(ctx.R, x, y) - pairing_value(ctx.R, y, x)).coords)
        for i, x in enumerate(others)
        for j, y in enumerate(others)
        if i < j
    }
    assert omega_values(ctx.R.embed_to(others[0].field), others) == want


@pytest.mark.parametrize(
    "p, f, coeffs, m, want",
    [
        (2, 1, [(0,)] * 5 + [(1,)], 1, 65),  # p2e5: n = 10, one term
        (2, 2, [(0, 0), (1, 0), (0, 0), (1, 0)], 1, 54),  # g5's R: n = 6, two terms
        (3, 2, [(1, 2), (2, 1), (1, 1)], 2, 28),  # dense: n = 4, two terms
    ],
)
def test_gram_makes_one_field_product_per_pair_and_term(monkeypatch, p, f, coeffs, m, want):
    # n (n - 1) / 2 + n products per term, plus a_i x^{p^i} for every
    # nonzero a_i with i >= 1 (the a_0 terms cancel in omega, so a_0 x is
    # never formed); one product per exponent and pair would make several
    # times as many
    from wildinv import ff

    F = field_create(p, f)
    R = AdditivePoly(F, [F.el(c) for c in coeffs])
    ctx = ambient.build_context(R, m)
    n, e = ctx.dim, R.p_degree
    nonzero = [i for i, c in enumerate(R.coeffs) if c]
    terms = 1 + sum(0 < i < e for i in nonzero)
    calls = []
    real = ff.Field._mul

    def counting(field, a, b):
        calls.append(field.n)
        return real(field, a, b)

    monkeypatch.setattr(ff.Field, "_mul", counting)
    ctx.gram(ctx.kernel_elems)
    assert len(calls) == terms * (n * (n - 1) // 2 + n) + n * sum(i >= 1 for i in nonzero) == want
