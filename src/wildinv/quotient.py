"""Curve quotients by isotropic subgroups, p odd.

One degree-p step substitutes u = x^p - b^{p-1} x and rewrites x R(x) as
u P1(u) plus an Artin-Schreier coboundary; iterating over a basis of a
totally isotropic stable submodule produces the full descent datum
(r, R1, Delta) with x R(x) = r R1(r) + Delta^p - Delta, all verified as exact
polynomial identities, never numerically.
"""

from . import addpoly, poly
from .errors import TheoremViolation, ValidationError


# Classical polynomials here are the dense constant-first lists of `poly`.


def classical(f: addpoly.AdditivePoly) -> list:
    """The additive polynomial f as a classical coefficient list."""
    out = [f.base.zero()] * (f.degree + 1 if f.coeffs else 0)
    for i, c in enumerate(f.coeffs):
        out[f.p ** i] = c
    return out


def pth_power(t: list) -> list:
    """t^p: Frobenius on the coefficients, exponents times p."""
    if not t:
        return []
    p = t[0].field.p
    out = [t[0].field.zero()] * (p * (len(t) - 1) + 1)
    for k, c in enumerate(t):
        if c:
            out[k * p] = c.frobenius(1)
    return out


def compose_additive(t: list, g: addpoly.AdditivePoly) -> list:
    """t(g(x)) by Horner's rule."""
    gt, out = classical(g), []
    for c in reversed(t):
        out = poly.add(poly.mul(out, gt), [c])
    return out


def nonzero_terms(t: list) -> list:
    """The nonzero (exponent, coefficient) pairs, by exponent."""
    return [(k, c) for k, c in enumerate(t) if c]


def descent_identity_holds(R, r, R1, delta) -> bool:
    """x R(x) = r(x) R1(r(x)) + Delta^p - Delta, over the field of r."""
    lhs = [r.base.zero()] + classical(R)
    rR1r = poly.mul(classical(r), classical(addpoly.compose(R1, r)))
    return lhs == poly.add(rR1r, poly.sub(pth_power(delta), delta))


# ---------------------------------------------------------------------------


class IsotropicDatum:
    """A kernel vector with the symmetric gamma choice pairing(b, b)/2."""

    __slots__ = ("beta", "gamma")

    def __init__(self, beta, gamma):
        self.beta = beta
        self.gamma = gamma

    @classmethod
    def make(cls, R_amb: addpoly.AdditivePoly, beta):
        p = beta.field.p
        if p == 2:
            raise ValidationError("quotient steps need p odd")
        if beta.is_zero():
            raise ValidationError("datum needs a nonzero kernel vector")
        half = pow(2, -1, p)
        gamma = addpoly.pairing_value(R_amb, beta, beta) * half
        datum = cls(beta=beta, gamma=gamma)
        if gamma ** p - gamma != beta * addpoly.evaluate(R_amb, beta):
            raise TheoremViolation("symmetric gamma fails its Artin-Schreier equation")
        return datum


class QuotientStep:
    """u of degree p, the coboundary part Delta0, and the descended P1."""

    __slots__ = ("u", "delta0", "P1")

    def __init__(self, u, delta0, P1):
        self.u = u
        self.delta0 = delta0
        self.P1 = P1


def single_quotient(R_amb: addpoly.AdditivePoly, datum: IsotropicDatum) -> QuotientStep:
    """One degree-p descent along the cyclic subgroup of the datum.

    Returns (u, Delta0, P1) with x R(x) = u P1(u) + Delta0^p - Delta0 checked
    as an exact identity, and Delta0(0) = 0.
    """
    F = datum.beta.field
    p = F.p
    if p == 2:
        raise ValidationError("quotient steps need p odd")
    e = R_amb.p_degree
    if e < 1:
        raise ValidationError("descent needs degree at least p")
    beta, gamma = datum.beta, datum.gamma
    if not addpoly.evaluate(addpoly.e_poly(R_amb), beta).is_zero():
        raise ValidationError("datum vector is not in the kernel space")

    binv = beta.inverse()
    u = addpoly.AdditivePoly(F, [-(beta ** (p - 1)), F.one()])

    # P = beta^{-p} ( -beta R + beta^{1-p} R(beta) x^p + gamma((x/beta)^p + x/beta) - pairing(x, beta) )
    fxb = addpoly.pairing_in_x(R_amb, beta)
    Rb = addpoly.evaluate(R_amb, beta)
    terms = R_amb.scale(-beta)
    terms = terms + addpoly.AdditivePoly(F, [F.zero(), binv ** (p - 1) * Rb])
    terms = terms + addpoly.AdditivePoly(F, [gamma * binv, gamma * (binv ** p)])
    terms = terms - fxb
    P = terms.scale(binv ** p)
    if not addpoly.evaluate(P, beta).is_zero():
        raise TheoremViolation("datum choice must kill the linear defect")

    P1, rem = addpoly.right_divmod(P, u)
    if not rem.is_zero():
        raise TheoremViolation("descent polynomial must be composed through u")
    if P1.p_degree != e - 1:
        raise TheoremViolation("one descent step must lower the p-degree by one")

    # Delta0 = -(x/beta)(gamma (x/beta) - pairing(x, beta))
    zero = F.zero()
    delta0 = poly.sub([zero] + classical(fxb.scale(binv)), [zero, zero, gamma * binv * binv])
    if delta0 and delta0[0]:
        raise TheoremViolation("Delta0 must have no constant term")
    if not descent_identity_holds(R_amb, u, P1, delta0):
        raise TheoremViolation("degree-p descent identity failed symbolically")
    return QuotientStep(u=u, delta0=delta0, P1=P1)


def push_element(step: QuotientStep, beta2, gamma2):
    """Image (u(beta'), gamma' - Delta0(beta')) of a commuting datum downstairs.

    The pushed pair satisfies the symmetric-gamma condition for P1 and its
    vector is killed by the E-polynomial of P1; both are asserted.
    """
    F = beta2.field
    p = F.p
    nb = addpoly.evaluate(step.u, beta2)
    ng = gamma2 - poly.horner(step.delta0, beta2)
    if not addpoly.evaluate(addpoly.e_poly(step.P1), nb).is_zero():
        raise TheoremViolation("pushed vector must be in the descended kernel space")
    if addpoly.pairing_value(step.P1, nb, nb) != ng + ng:
        raise TheoremViolation("pushed gamma fails the symmetric condition")
    if ng ** p - ng != nb * addpoly.evaluate(step.P1, nb):
        raise TheoremViolation("pushed gamma fails its Artin-Schreier equation")
    return nb, ng


class InductionData:
    """Descent datum (r, R1, Delta, e') witnessing an induced structure."""

    __slots__ = ("r", "R1", "delta", "e_prime")

    def __init__(self, r, R1, delta, e_prime):
        self.r = r
        self.R1 = R1
        self.delta = delta
        self.e_prime = e_prime

    @property
    def index(self):
        """Degree of the extension the structure is induced from."""
        return self.r.degree


def iterated_quotient(U) -> InductionData:
    """Descend along a nonzero totally isotropic stable submodule U.

    U is a sympmod Submodule of a module built from (R, m), which are read
    from its context; the basis is taken in canonical row order. All
    invariants of the returned datum are verified symbolically: the defining
    identity, rationality over the base, reducedness of r, scaling
    equivariance, and divisibility of the scaling orders.
    """
    ctx = U.module.context
    if ctx is None:
        raise ValidationError("descent needs a module built from (R, m), not a direct sum")
    if ctx.ambient.p == 2:
        raise ValidationError("descent needs p odd")
    if U.dim == 0:
        raise ValidationError("U must be nonzero")
    if not (U.t_stable and U.s_stable and U.isotropic):
        raise ValidationError("U must be a totally isotropic stable submodule")

    betas = U.field_elements()
    data = [IsotropicDatum.make(ctx.R_amb, b) for b in betas]
    if any(any(row) for row in ctx.gram(betas)):
        raise ValidationError("submodule is not totally isotropic")

    R_cur = ctx.R_amb
    r = addpoly.AdditivePoly.identity(ctx.ambient)
    delta = []
    while data:
        datum, rest = data[0], data[1:]
        step = single_quotient(R_cur, datum)
        new_data = []
        for d2 in rest:
            b1, b2 = datum.beta, d2.beta
            if addpoly.pairing_value(R_cur, b1, b2) != addpoly.pairing_value(R_cur, b2, b1):
                raise TheoremViolation("descent data stopped commuting")
            nb, ng = push_element(step, d2.beta, d2.gamma)
            if nb.is_zero():
                raise TheoremViolation("independent basis vector collapsed in descent")
            new_data.append(IsotropicDatum(beta=nb, gamma=ng))
        delta = poly.add(delta, compose_additive(step.delta0, r))
        r = addpoly.compose(step.u, r)
        R_cur = step.P1
        data = new_data

    out = InductionData(r=r, R1=R_cur, delta=delta, e_prime=R_cur.p_degree)
    ok, reasons = verify_morphism(ctx.R, out.R1, out.r, out.delta, ctx.m)
    if not ok:
        raise TheoremViolation(f"descent datum failed verification: {reasons}")
    if out.e_prime != ctx.e - U.dim:
        raise TheoremViolation("descent must lower the p-degree by dim U")
    _check_kernel_facts(ctx, out, U)
    return out


def _check_kernel_facts(ctx, out, U):
    """Descent side facts: E_{R1}(r(x)) right-divides the original
    E-polynomial, and the descent map kills exactly the submodule."""
    E_R = ctx.E_amb
    big = addpoly.compose(addpoly.e_poly(out.R1).embed_to(ctx.ambient), out.r)
    _, rem = addpoly.right_divmod(E_R, big)
    if not rem.is_zero():
        raise TheoremViolation("descended E-polynomial does not right-divide the original")
    for b in U.field_elements():
        if not addpoly.evaluate(out.r, b).is_zero():
            raise TheoremViolation("descent map must kill the submodule")


def verify_morphism(R: addpoly.AdditivePoly, R1, r, delta, m: int):
    """Independent recheck of a claimed descent datum.

    Conditions: the exact identity x R(x) = r(x) R1(r(x)) + Delta^p - Delta,
    nontriviality, reducedness of r, rationality over the base field,
    divisibility of scaling orders, scaling equivariance of r, Delta(0) = 0.
    Returns (ok, list of failed conditions).
    """
    reasons = []
    base = R.base
    if not descent_identity_holds(R.embed_to(r.base), r, R1, delta):
        reasons.append("defining identity fails")
    if r.p_degree < 1:
        reasons.append("r is trivial")
    if not addpoly.is_reduced(r):
        reasons.append("r is not reduced")
    if not addpoly.is_rational_over(r, base.n):
        reasons.append("r has coefficients outside the base field")
    if not addpoly.is_rational_over(R1, base.n):
        reasons.append("R1 has coefficients outside the base field")
    if not addpoly.is_rational_over(delta, base.n):
        reasons.append("Delta has coefficients outside the base field")
    if delta and delta[0]:
        reasons.append("Delta(0) != 0")
    d_Rm = addpoly.twisted_scaling_order(R, m)
    if addpoly.scaling_order(R1) % d_Rm != 0:
        reasons.append("twisted scaling order does not divide the descended one")
    if not addpoly.mu_scaling(r, d_Rm):
        reasons.append("r is not scaling-equivariant")
    return (not reasons), reasons
