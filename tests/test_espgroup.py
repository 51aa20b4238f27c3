import random

import pytest

from wildinv.addpoly import AdditivePoly, evaluate
from wildinv.errors import ValidationError
from wildinv.espgroup import (
    GroupContext,
    analyze,
    commutator,
    inverse,
    multiply,
)
from wildinv.ff import field_create

from reference import frobenius_twist


@pytest.fixture(scope="module")
def ctx31():
    F3 = field_create(3, 1)
    return GroupContext(AdditivePoly.from_ints(F3, [0, 1]), 1)


def test_h_size_and_membership(ctx31):
    H = ctx31.h_elements()
    assert len(H) == 27
    for g in H[:9]:
        assert g.in_h()
        # defining equations hold by construction; re-assert one explicitly
        t = g.beta * evaluate(ctx31.context.R_amb, g.beta)
        assert g.gamma ** 3 - g.gamma == t


def test_identity_and_inverse(ctx31):
    rng = random.Random(1)
    H = ctx31.h_elements()
    e = ctx31.identity()
    for _ in range(20):
        g = rng.choice(H)
        assert multiply(g, e) == g and multiply(e, g) == g
        assert multiply(g, inverse(g)) == e
        assert multiply(inverse(g), g) == e


def test_associativity_500_random_triples(ctx31):
    rng = random.Random(2)
    H = ctx31.h_elements()
    for _ in range(500):
        g1, g2, g3 = (rng.choice(H) for _ in range(3))
        assert multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))


def test_commutator_properties(ctx31):
    rng = random.Random(3)
    H = ctx31.h_elements()
    one = ctx31.context.ambient.one()
    for g in H[:6]:
        assert commutator(g, g) == ctx31.identity()
    for _ in range(40):
        g, h = rng.choice(H), rng.choice(H)
        c = commutator(g, h)
        assert c.alpha == one and c.beta.is_zero()
        # gamma coordinate is a prime field scalar equal to the pairing value
        assert all(x == 0 for x in c.gamma.coords[1:])
        assert c.gamma.coords[0] == ctx31.context.omega(g.beta, h.beta)


def test_full_gamma_scalar_enumeration(ctx31):
    # commutator gamma lies in the prime field on full enumeration for (3,1)
    H = ctx31.h_elements()
    for g in H:
        for h in H[::3]:
            c = commutator(g, h)
            assert all(x == 0 for x in c.gamma.coords[1:])


def test_analyze_31(ctx31):
    res = analyze(ctx31)
    assert res == {
        "order": 27,
        "center_order": 3,
        "commutator_order": 3,
        "is_extra_special": True,
        "degenerate": False,
    }


def test_analyze_51():
    F5 = field_create(5, 1)
    ctx = GroupContext(AdditivePoly.from_ints(F5, [0, 1]), 1)
    res = analyze(ctx)
    assert res["order"] == 125 and res["center_order"] == 5
    assert res["is_extra_special"]


def test_analyze_32_random_R():
    F3 = field_create(3, 1)
    ctx = GroupContext(AdditivePoly.from_ints(F3, [0, 0, 1]), 1)
    res = analyze(ctx)
    assert res["order"] == 3 ** 5 and res["center_order"] == 3
    assert res["is_extra_special"]


def test_associativity_500_triples_q9():
    # same shape of check with base field F_9
    F9 = field_create(3, 2)
    ctx = GroupContext(AdditivePoly(F9, [F9.zero(), F9.one()]), 1)
    H = ctx.h_elements()
    rng = random.Random(9)
    for _ in range(500):
        g1, g2, g3 = (rng.choice(H) for _ in range(3))
        assert multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))


def test_group_axioms_full_enumeration():
    # all of H for (3,1) in exact arithmetic: 27^3 ordered triples
    F3 = field_create(3, 1)
    ctx = GroupContext(AdditivePoly.from_ints(F3, [0, 1]), 1)
    H = ctx.h_elements()
    prods = {}
    for g in H:
        for h in H:
            prods[(g, h)] = multiply(g, h)
    for g in H:
        for h in H:
            gh = prods[(g, h)]
            for k in H:
                assert prods.get((gh, k)) == multiply(g, prods[(h, k)])


def test_group_cocycle_full_enumeration_32():
    # associativity for (3,2) through the integer encoding: the gamma
    # corrections must satisfy the cocycle identity on all 81^3 triples
    import numpy as np

    from wildinv.espgroup import _index_tables

    F3 = field_create(3, 1)
    ctx = GroupContext(AdditivePoly.from_ints(F3, [0, 0, 1]), 1)
    add_idx, delta = map(np.array, _index_tables(ctx))
    nb = add_idx.shape[0]
    a = np.arange(nb)
    lhs = delta[a[:, None, None], a[None, :, None]] + delta[
        add_idx[a[:, None, None], a[None, :, None]], a[None, None, :]
    ]
    rhs = delta[a[None, :, None], a[None, None, :]] + delta[
        a[:, None, None], add_idx[a[None, :, None], a[None, None, :]]
    ]
    assert ((lhs - rhs) % 3 == 0).all()


def test_degenerate_e0():
    F3 = field_create(3, 1)
    ctx = GroupContext(AdditivePoly.from_ints(F3, [2]), 1)
    res = analyze(ctx)
    assert res["degenerate"] and not res["is_extra_special"]
    assert res["order"] == 3


def test_quotient_by_center_is_kernel_space(ctx31):
    # H modulo its center has order p^{2e}, matching the kernel space
    res = analyze(ctx31)
    assert res["order"] // res["center_order"] == 3 ** 2 == len(ctx31.betas)


def test_restricted_subgroup_index():
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    ctx = GroupContext(R, 2)
    c = ctx.context
    assert c.d_R == 4 and c.d_Rm == 2
    assert ctx.q_size() // ctx.q_size(restricted=True) == c.d_R // c.d_Rm


def test_frobenius_twist_is_automorphism(ctx31):
    rng = random.Random(4)
    H = ctx31.h_elements()
    for _ in range(60):
        g, h = rng.choice(H), rng.choice(H)
        assert frobenius_twist(multiply(g, h)) == multiply(
            frobenius_twist(g), frobenius_twist(h)
        )
    # alpha coordinates twist too
    alpha = ctx31.mu[-1]
    g = ctx31.element(alpha, ctx31.context.ambient.zero(), ctx31.context.ambient.zero())
    tw = frobenius_twist(g)
    assert tw.alpha ** ctx31.context.d_R == ctx31.context.ambient.one()


def test_group_law_alpha_twist():
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    ctx = GroupContext(R, 1)
    z = ctx.context.ambient.zero()
    alphas = [a for a in ctx.mu if a != ctx.context.ambient.one()]
    a = alphas[0]
    g1 = ctx.element(a, z, z)
    H = ctx.h_elements()
    g2 = H[7]
    prod = multiply(g1, g2)
    assert prod.alpha == a and prod.beta == a * g2.beta


def test_element_validation(ctx31):
    amb = ctx31.context.ambient
    with pytest.raises(ValidationError):
        ctx31.element(amb.gen(), amb.zero(), amb.zero())  # alpha not a scaling root
    with pytest.raises(ValidationError):
        ctx31.element(amb.one(), amb.one(), amb.zero())  # beta not in kernel
