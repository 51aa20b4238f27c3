import json
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from wildinv.errors import AmbientGuardError, ValidationError
from wildinv.invariants import (
    full_report,
    herbrand_function,
    primitivity,
    ramification_profile,
    swan_conductor,
    valuations,
)


def test_swan_examples():
    assert swan_conductor(3, 1, 4, 1) == 1
    assert swan_conductor(3, 1, 4, 2) == 2
    assert swan_conductor(3, 1, 4, 4) == 4
    with pytest.raises(ValidationError):
        swan_conductor(3, 1, 4, 3)  # m must be prime to p
    with pytest.raises(ValidationError):
        swan_conductor(3, 1, 3, 1)  # 3 does not divide p^e + 1 = 4


def test_herbrand_pieces():
    assert herbrand_function(3, 1, 4, 1, Fraction(-7, 2)) == Fraction(-7, 2)
    assert herbrand_function(3, 1, 4, 1, 0) == 0
    # at the first jump the value is m
    assert herbrand_function(3, 1, 4, 2, Fraction(2, 4)) == 2
    prof = ramification_profile(3, 1, 4, 1)
    assert prof.jumps == [Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1, 3)]
    assert prof.subgroups[0] == "full" and prof.subgroups[-1] == "trivial"


def test_swan_equals_degree_times_max_jump_random():
    import random

    rng = random.Random(21)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        e = rng.randint(0 if p != 2 else 1, 3)
        divisors = [d for d in range(1, p ** e + 2) if (p ** e + 1) % d == 0]
        d_R = rng.choice(divisors)
        m = rng.randint(1, 30)
        prof = ramification_profile(p, e, d_R, m)
        if m % p == 0:  # no input has such an m
            with pytest.raises(ValidationError):
                swan_conductor(p, e, d_R, m)
            continue
        assert p ** e * prof.jumps[-1] == swan_conductor(p, e, d_R, m)


def test_valuations_examples():
    v = valuations(3, 1, 4, 1)
    assert v["alpha"] == Fraction(1, 4)
    assert v["beta"] == Fraction(-1, 36)
    assert v["gamma"] == Fraction(-1, 27)
    # linear scaling in m, and the cross identity of the three formulas
    for m in (1, 2, 5):
        vm = valuations(3, 1, 4, m)
        assert vm["beta"] == m * v["beta"] and vm["gamma"] == m * v["gamma"]
        p, e = 3, 1
        assert vm["gamma"] * p == vm["beta"] * (p ** e + 1)


def test_primitivity_verdicts():
    from wildinv.addpoly import AdditivePoly
    from wildinv.ff import field_create

    F3 = field_create(3, 1)
    F9 = field_create(3, 2)
    res = primitivity(AdditivePoly.from_ints(F3, [0, 1]), 1)
    assert res.kind == "primitive"
    res2 = primitivity(AdditivePoly(F9, [F9.zero(), F9.one()]), 2)
    assert res2.kind == "imprimitive"
    assert res2.induction is not None and res2.induction.e_prime == 0
    assert res2.decomposition is not None
    res3 = primitivity(AdditivePoly.from_ints(F3, [0, 1]), 2)
    assert res3.kind == "primitive_unramified_unstable"
    assert res3.unramified_degree == 2
    # p = 2 imprimitive: witness without induction data
    F4 = field_create(2, 2)
    res4 = primitivity(AdditivePoly(F4, [F4.zero(), F4.one(), F4.zero(), F4.one()]), 1)
    assert res4.kind == "imprimitive"
    assert res4.witness is not None and res4.induction is None


def test_prime_e_gives_primitive_any_m():
    # when the E-polynomial is prime over the base, every valid m is primitive
    from wildinv.addpoly import AdditivePoly, e_poly, is_prime
    from wildinv.ff import field_create

    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 1])
    assert is_prime(e_poly(R))
    for m in (1, 2, 4, 5):
        assert primitivity(R, m).kind in ("primitive", "primitive_unramified_unstable")


def test_full_report_structure():
    rep = full_report(3, 1, [0, 1], 1)
    doc = rep.to_json()
    assert doc["degree"] == 3
    assert doc["swan"] == {"num": 1, "den": 1}
    assert doc["d_R"] == 4 and doc["d_Rm"] == 4
    assert doc["verdict"]["kind"] == "primitive"
    assert doc["root_system"]["type"] == "A"
    assert doc["root_system"]["matches_module"]
    assert doc["module"]["dim"] == 2


def test_full_report_validation():
    with pytest.raises(ValidationError):
        full_report(4, 1, [0, 1], 1)
    with pytest.raises(ValidationError):
        full_report(3, 1, [0, 1], 3)
    with pytest.raises(ValidationError):
        full_report(3, 1, [0, 0], 1)
    with pytest.raises(ValidationError):
        full_report(2, 1, [1], 1)


def test_full_report_deterministic():
    a = json.dumps(full_report(3, 1, [0, 1], 1).to_json(), sort_keys=True)
    b = json.dumps(full_report(3, 1, [0, 1], 1).to_json(), sort_keys=True)
    assert a == b


def test_full_report_oracle_mode():
    rep = full_report(3, 2, [(0, 0), (1, 0)], 2, oracle=True)
    assert rep.verdict.kind == "imprimitive"
    assert rep.verdict.induction.index == 3


def test_full_report_with_curve():
    rep = full_report(3, 1, [0, 1], 1, curve=True)
    assert rep.curve["supersingular"]
    assert rep.curve["genus"] == 3
    assert rep.curve["psi_L_degrees"] == [3, 3]


def test_e0_report():
    rep = full_report(3, 1, [2], 1)
    assert rep.degree == 1
    assert rep.verdict.kind == "primitive"
    assert rep.verdict.unramified_degree is None
    assert rep.module_summary["dim"] == 0


def test_conductor_jump_check_raises(monkeypatch):
    # the conductor / extreme-jump identity is a raise, so it survives python -O
    from wildinv import invariants
    from wildinv.errors import TheoremViolation

    real = invariants.ramification_profile

    def shifted(p, e, d_R, m):
        prof = real(p, e, d_R, m)
        prof.jumps[-1] += 1
        return prof

    monkeypatch.setattr(invariants, "ramification_profile", shifted)
    with pytest.raises(TheoremViolation, match="extreme jump"):
        full_report(3, 1, [0, 1], 1)


@st.composite
def _scaled_pair(draw):
    """A batch-sized (p, f, R, m, curve), drawn as perfbench's batch list
    draws its inputs, and a c in F_q^x."""
    from wildinv.ff import field_create

    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.sampled_from((1, 2)))
    e = draw(st.sampled_from([e for e in (0, 1, 2) if (p, e) != (2, 0) and p ** (2 * e) <= 81]))
    curve = draw(st.booleans()) and p ** f <= 9 and (p - 1) * p ** e // 2 <= 4
    m = draw(st.sampled_from([m for m in range(1, 9) if m % p]))
    F = field_create(p, f)

    def element(low):
        k = draw(st.integers(low, p ** f - 1))
        return F.el([k // p ** j % p for j in range(f)])

    return p, f, [element(0) for _ in range(e)] + [element(1)], m, curve, element(1)


@settings(max_examples=200, deadline=None)
@given(_scaled_pair())
def test_scaling_x_by_c_keeps_the_invariants(data):
    # R_c(x) = c R(c x) = sum a_i c^(p^i + 1) x^(p^i) for c in F_q^x: x -> c x
    # carries the pairing, the module and the curve y^p - y = x R(x) of R_c
    # onto those of R, so every invariant below must agree
    p, f, coeffs, m, curve, c = data
    scaled = [a * c ** (p ** i + 1) for i, a in enumerate(coeffs)]
    try:
        first = full_report(p, f, coeffs, m, curve=curve).to_json()
    except AmbientGuardError:
        reject()  # the batch list leaves these out too
    docs = [first, full_report(p, f, scaled, m, curve=curve).to_json()]
    keys = ["degree", "d_R", "d_Rm", "swan", "valuations", "ramification"] + (["curve"] if curve else [])
    for key in keys:
        assert docs[0][key] == docs[1][key], key
    kept = [
        (doc["verdict"]["kind"], doc["module"]["dim"], doc["module"]["sigma_order"],
         len(doc["verdict"].get("witness_basis", ())))
        for doc in docs
    ]
    assert kept[0] == kept[1]
