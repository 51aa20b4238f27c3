import pytest

from wildinv.addpoly import AdditivePoly, compose, e_poly, evaluate
from wildinv.errors import ValidationError
from wildinv.ff import field_create
from wildinv import poly
from wildinv.quotient import (
    IsotropicDatum,
    classical,
    iterated_quotient,
    pth_power,
    push_element,
    single_quotient,
    verify_morphism,
)
from wildinv.sympmod import build, completely_anisotropic, perp


def imprimitive_module(q_deg=2, m=2):
    F = field_create(3, q_deg)
    R = AdditivePoly(F, [F.zero(), F.one()])
    M = build(R, m)
    ok, wit = completely_anisotropic(M)
    assert not ok
    return R, M, wit


def test_single_quotient_shape_and_identity():
    R, M, wit = imprimitive_module()
    ctx = M.context
    beta = wit.field_elements()[0]
    datum = IsotropicDatum.make(ctx.R_amb, beta)
    # the symmetric gamma satisfies its Artin-Schreier equation by construction
    assert datum.gamma ** 3 - datum.gamma == beta * evaluate(ctx.R_amb, beta)
    step = single_quotient(ctx.R_amb, datum)
    assert step.P1.p_degree == ctx.e - 1
    assert not step.delta0 or step.delta0[0].is_zero()
    # the defining identity, re-assembled here from scratch
    lhs = [ctx.ambient.zero()] + classical(ctx.R_amb)
    rhs = poly.add(
        poly.mul(classical(step.u), classical(compose(step.P1, step.u))),
        poly.sub(pth_power(step.delta0), step.delta0),
    )
    assert lhs == rhs


def test_single_quotient_kills_datum():
    R, M, wit = imprimitive_module()
    ctx = M.context
    beta = wit.field_elements()[0]
    datum = IsotropicDatum.make(ctx.R_amb, beta)
    step = single_quotient(ctx.R_amb, datum)
    assert evaluate(step.u, beta).is_zero()


def test_push_element_central_image():
    R, M, wit = imprimitive_module()
    ctx = M.context
    beta = wit.field_elements()[0]
    datum = IsotropicDatum.make(ctx.R_amb, beta)
    step = single_quotient(ctx.R_amb, datum)
    # pushing the datum itself gives image with u(beta) = 0
    nb, ng = push_element(step, datum.beta, datum.gamma)
    assert nb.is_zero()


def test_iterated_quotient_single_line():
    R, M, wit = imprimitive_module()
    ind = iterated_quotient(wit)
    assert ind.e_prime == 0
    assert ind.r.degree == 3
    assert ind.index == 3
    ok, reasons = verify_morphism(R, ind.R1, ind.r, ind.delta, 2)
    assert ok, reasons


def test_iterated_quotient_lagrangian():
    # x^9 over F_3, m = 5: twisted scaling order 2; a 2-dim isotropic stable
    # submodule exists, so the descent runs two steps down to e' = 0
    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 0, 1])
    M = build(R, 5)
    ok, wit = completely_anisotropic(M)
    assert not ok and wit.dim == 2
    ind = iterated_quotient(wit)
    assert ind.e_prime == 0 and ind.r.degree == 9
    ok2, reasons = verify_morphism(R, ind.R1, ind.r, ind.delta, 5)
    assert ok2, reasons
    # kernel of the descent map is exactly the submodule
    span = {F3.zero()}
    killed = [b for b in wit.field_elements()]
    for b in killed:
        assert evaluate(ind.r, b).is_zero()


def test_kernel_containments():
    # the preimage space of the descended kernel sits inside the
    # witness's orthogonal complement
    R, M, wit = imprimitive_module()
    ind = iterated_quotient(wit)
    E1 = e_poly(ind.R1).embed_to(M.ambient)
    import itertools

    import numpy as np

    inside = []
    for coords in itertools.product(range(3), repeat=M.dim):
        x = M.element(coords)
        if evaluate(E1, evaluate(ind.r, x)).is_zero():
            inside.append(coords)
    pp = perp(M, wit)
    for coords in inside:
        stacked = np.vstack([np.array(pp.rows), np.array(coords, dtype=np.int64)])
        from wildinv.linalg import rank

        assert rank(stacked, 3) == pp.dim  # coords already in the perp


def test_verify_morphism_negative_controls():
    R, M, wit = imprimitive_module()
    ind = iterated_quotient(wit)
    F = ind.r.base
    bad = poly.add(ind.delta, [F.zero(), F.one()])
    ok, reasons = verify_morphism(R, ind.R1, ind.r, bad, 2)
    assert not ok and "identity" in " ".join(reasons)
    triv = AdditivePoly.identity(ind.r.base)
    ok2, reasons2 = verify_morphism(R, ind.R1, triv, ind.delta, 2)
    assert not ok2


def test_p2_rejected():
    F4 = field_create(2, 2)
    R = AdditivePoly(F4, [F4.zero(), F4.one(), F4.zero(), F4.one()])
    M = build(R, 1)
    ok, wit = completely_anisotropic(M)
    assert not ok
    with pytest.raises(ValidationError):
        iterated_quotient(wit)


def test_non_isotropic_input_rejected():
    import numpy as np

    R, M, wit = imprimitive_module()
    full = M.submodule(np.eye(M.dim, dtype=np.int64))
    assert not full.isotropic
    with pytest.raises(ValidationError):
        iterated_quotient(full)


def test_linear_defect_check_raises(monkeypatch):
    # the datum check is a raise, so it survives python -O: a gamma that is
    # off by one leaves P(beta) = 2 beta^{-p} != 0
    from wildinv import quotient
    from wildinv.errors import TheoremViolation

    R, M, wit = imprimitive_module()
    make = IsotropicDatum.make

    def off_by_one(R_amb, beta):
        d = make(R_amb, beta)
        return IsotropicDatum(beta=d.beta, gamma=d.gamma + 1)

    monkeypatch.setattr(quotient.IsotropicDatum, "make", off_by_one)
    with pytest.raises(TheoremViolation, match="linear defect"):
        iterated_quotient(wit)


def test_iterated_quotient_refuses_a_direct_sum():
    from test_sympmod import x3_sum_with_witness

    _, wit = x3_sum_with_witness()
    with pytest.raises(ValidationError, match="direct sum"):
        iterated_quotient(wit)
