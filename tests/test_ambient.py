"""ambient: the Artin-Schreier extension test from the kernel basis against
the full span, and the polar-form fact that makes the basis enough."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildinv import ambient
from wildinv.addpoly import AdditivePoly, evaluate
from wildinv.errors import AmbientGuardError
from wildinv.ff import artin_schreier_root, field_create


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
    assert ambient._needs_artin_schreier_extension(ctx.R, ctx.kernel_elems) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contexts())
def test_polar_form_has_trace_zero_on_kernel_pairs(ctx):
    # x R(y) + y R(x) = f(x, y)^p - f(x, y) on ker E, so it always has an
    # Artin-Schreier root; with y = x this makes Q vanish for p odd
    R, kb = ctx.R, ctx.kernel_elems
    for x, y in itertools.combinations_with_replacement(kb, 2):
        assert artin_schreier_root(x * evaluate(R, y) + y * evaluate(R, x)) is not None
    if ctx.ambient.p > 2:
        assert not ambient._needs_artin_schreier_extension(R, kb)


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
    assert ambient._needs_artin_schreier_extension(R, ctx.kernel_elems) == needs
    # the gamma context grows the ambient by a factor p exactly when needed
    gamma = ambient.build_context(R, m, need_gamma=True)
    assert gamma.ambient.n == ctx.ambient.n * (p if needs else 1)
