"""Root systems: orbits of pairs of roots of unity under p-power and
inverse-Frobenius twists, their integer invariants, and the symplectic type
classification (A / B / C) used to label irreducible module summands.
"""

from collections import namedtuple
from math import gcd, lcm

from . import addpoly, ff, linalg
from .errors import TheoremViolation, ValidationError
from .numth import multiplicative_order


class RootSystem:
    """Orbit representative (alpha, beta) in some field, with (p, q) recorded."""

    __slots__ = ("alpha", "beta", "p", "f", "e_prime", "f_prime")

    def __init__(self, alpha, beta, f):
        if alpha.is_zero() or beta.is_zero():
            raise ValidationError("root system entries must be nonzero")
        if alpha.field is not beta.field:
            raise ValidationError("both entries must live in one field")
        self._set(alpha, beta, f, ff.element_order(alpha), ff.element_order(beta))

    def _set(self, alpha, beta, f, e_prime, f_prime):
        self.alpha = alpha
        self.beta = beta
        self.p = alpha.field.p
        self.f = f
        self.e_prime = e_prime
        self.f_prime = f_prime

    @property
    def q(self):
        return self.p ** self.f

    def translate(self, i, j):
        """The orbit element theta^i sigma^j (alpha, beta).

        Raising to p^i, or alpha to a unit mod e', keeps both orders, so the
        translate carries them over instead of recomputing them.
        """
        a = self.alpha ** (self.p ** i)
        b = self.beta ** (self.p ** i)
        if j:
            a = a ** pow(self.q, -j, self.e_prime)
        out = RootSystem.__new__(RootSystem)
        out._set(a, b, self.f, self.e_prime, self.f_prime)
        return out


RSInvariants = namedtuple("RSInvariants", "a b c e_prime f_prime")


def invariants(W: RootSystem) -> RSInvariants:
    """Minimal-exponent invariants, by direct minimality scans.

    All conditions are congruences on the orders, so the scans are exact:
    a: least a >= 1 with q^a = 1 mod ord(alpha);
    b: least b >= 1 with p^b = q^x mod ord(alpha) solvable and p^b = 1 mod ord(beta);
    c: least c >= 0 with p^b = q^c mod ord(alpha).
    """
    p, q = W.p, W.q
    ea, fb = W.e_prime, W.f_prime
    a = multiplicative_order(q, ea)
    qa_residues = {pow(q, x, ea) for x in range(a)}
    cap = lcm(multiplicative_order(p, ea), multiplicative_order(p, fb))
    b = None
    for cand in range(1, cap + 1):
        if pow(p, cand, fb) % fb == 1 % fb and pow(p, cand, ea) in qa_residues:
            b = cand
            break
    if b is None:
        raise TheoremViolation("b-scan bound must contain a solution")
    target = pow(p, b, ea)
    c = None
    for cand in range(a):
        if pow(q, cand, ea) == target:
            c = cand
            break
    if c is None:
        raise TheoremViolation("c-scan must find p^b among the powers of q")
    return RSInvariants(a=a, b=b, c=c, e_prime=ea, f_prime=fb)


def belongs(W: RootSystem, d: int, r: int) -> bool:
    """Membership test for the twist group with parameters (d, r)."""
    if r < 1 or d < 1 or pow(W.q, r, d) != 1 % d:
        raise ValidationError("need q^r = 1 mod d for a well-formed twist group")
    inv = invariants(W)
    return d % inv.e_prime == 0 and r % (inv.a * inv.f_prime) == 0


def classify(W: RootSystem):
    """First matching symplectic type among A, B, C, else "none".

    Returns (label, count of symplectic structures: 2 for type A with p odd,
    1 otherwise, 0 when not symplectic).
    """
    inv = invariants(W)
    p, q = W.p, W.q
    a, b, c = inv.a, inv.b, inv.c
    ea, fb = inv.e_prime, inv.f_prime
    minus_one_order = 1 if p == 2 else 2
    if a % 2 == 0 and (q ** (a // 2) + 1) % ea == 0 and fb == minus_one_order:
        return "A", (2 if p != 2 else 1)
    if b % 2 == 0 and c % 2 == 0:
        if (p ** (b // 2) + q ** (c // 2)) % ea == 0 and (p ** (b // 2) + 1) % fb == 0:
            return "B", 1
    if b % 2 == 0 and (c - a) % 2 == 0:
        if (p ** (b // 2) + q ** ((a + c) // 2)) % ea == 0 and (p ** (b // 2) + 1) % fb == 0:
            return "C", 1
    return "none", 0


def same_root_system(W1: RootSystem, W2: RootSystem) -> bool:
    """Same orbit: enumerate twists of one pair and compare."""
    if (W1.p, W1.f) != (W2.p, W2.f):
        return False
    if (W1.e_prime, W1.f_prime) != (W2.e_prime, W2.f_prime):
        return False
    inv = invariants(W1)
    ordp = multiplicative_order(W1.p, lcm(W1.e_prime, W1.f_prime))
    for i in range(ordp):
        for j in range(inv.a):
            t = W1.translate(i, j)
            if t.alpha == W2.alpha and t.beta == W2.beta:
                return True
    return False


# ---------------------------------------------------------------------------
# The monomial case


def monomial_root_system(p: int, f: int, e: int, a_e, m: int):
    """Root system of a monomial a_e x^{p^e}, with its closed-form invariants.

    Requires the scaling roots to generate F_{p^{2e}} (equivalently the order
    of p mod the twisted scaling order is 2e); the closed forms are checked
    against the brute-force scans before returning.
    """
    base = ff.field_create(p, f)
    if isinstance(a_e, int):
        a_e = base.constant(a_e)
    if a_e.field is not base:
        raise ValidationError("a_e must be an element of F_{p^f}")
    if a_e.is_zero():
        raise ValidationError("a_e must be nonzero")
    if e < 1:
        raise ValidationError("monomial analysis needs e >= 1")
    R = addpoly.AdditivePoly(base, [base.zero()] * e + [a_e])
    d = addpoly.twisted_scaling_order(R, m)
    if multiplicative_order(p, d) != 2 * e:
        raise ValidationError(
            f"scaling roots of order {d} generate F_{p}^{multiplicative_order(p, d)}, "
            f"not F_{p}^{2 * e}; the monomial formulas do not apply"
        )
    e1 = gcd(f, 2 * e)
    joint = ff.field_create(p, lcm(2 * e, f))
    alpha = ff.embed(ff.canonical_root_of_unity(ff.field_create(p, 2 * e), d), joint)
    val = -(a_e ** (-(p ** e - 1)))
    beta_sub, _ = ff.norm_trace(val, e1)
    beta = ff.embed(beta_sub, joint)
    # alpha is the canonical root of order exactly d, and embedding keeps
    # orders, so only beta's order is computed, in its own subfield
    W = RootSystem.__new__(RootSystem)
    W._set(alpha, beta, f, d, ff.element_order(beta_sub))

    inv = invariants(W)
    a_formula = 2 * e // e1
    b_formula = e1
    c_formula = next(c for c in range(2 * e + 1) if (f * c - e1) % (2 * e) == 0)
    formula = RSInvariants(
        a=a_formula, b=b_formula, c=c_formula, e_prime=inv.e_prime, f_prime=inv.f_prime
    )
    if formula != inv:
        raise TheoremViolation(f"closed-form invariants {formula} disagree with scans {inv}")
    return W, inv


def monomial_summary(p: int, f: int, e: int, a_e, m: int):
    """The root system W of a_e x^{p^e} and its JSON summary: the invariants
    a, b, c, e1 (which is b = gcd(f, 2e)), e' and f', the type, its number
    of symplectic structures and its nu label."""
    W, inv = monomial_root_system(p, f, e, a_e, m)
    label, count = classify(W)
    return W, {
        "a": inv.a,
        "b": inv.b,
        "c": inv.c,
        "e1": inv.b,
        "e_prime": inv.e_prime,
        "f_prime": inv.f_prime,
        "type": label,
        "symplectic_structures": count,
        "nu_label": nu_label(label),
    }


# (W.alpha, W.beta, module's alpha) -> image of W.beta, or None when no
# embedding of F_p(W.alpha) sends W.alpha to the module's alpha
_BETA_IMAGES = {}


def _beta_image(W: RootSystem, alpha):
    """W.beta's image under the embedding F_p(W.alpha) -> alpha's field that
    sends W.alpha to alpha, or None when alpha is not a root of W.alpha's
    minimal polynomial, so that there is no such embedding.

    One reduction in W's field writes W.alpha^s (s = ord_{e'}(p), the degree
    of W.alpha) and W.beta in the power basis of W.alpha; both relations are
    then read at alpha. No root is found: the generator's image is given.
    """
    key = (W.alpha, W.beta, alpha)
    if key in _BETA_IMAGES:
        return _BETA_IMAGES[key]
    T, p = alpha.field, W.p
    if T.p != p:
        raise ValidationError(f"no embedding F_{p}(alpha) -> F_{T.p}^{T.n}")
    s = multiplicative_order(p, W.e_prime)
    powers = [W.alpha.field.one()]
    for _ in range(s):
        powers.append(powers[-1] * W.alpha)
    R, pivots = linalg.rref(linalg.transpose([x.coords for x in powers] + [W.beta.coords]), p)
    if pivots[-1] == s + 1:
        raise ValidationError("the root system's beta must lie in F_p(alpha)")
    if pivots != list(range(s)):
        raise TheoremViolation("alpha must have degree ord_{e'}(p) over F_p")
    images = [T.one()]
    for _ in range(s):
        images.append(images[-1] * alpha)
    P = linalg.transpose([x.coords for x in images[:s]])
    image = None
    if linalg.mat_vec(P, [row[s] for row in R], p) == list(images[s].coords):
        image = T.el(linalg.mat_vec(P, [row[s + 1] for row in R], p))
    _BETA_IMAGES[key] = image
    return image


def matches_module(M, W: RootSystem) -> bool:
    """Does a monomial module realize the defining relations of the root system?

    Some orbit translate (alpha_t, beta_t) of W must satisfy, over the
    module's ambient: the scaling action is literal multiplication by
    alpha_t, every nonzero kernel element is a beta_t-eigenvector of the a-th
    Frobenius power, and the dimension is a*b. Both conditions are F_p-linear
    in the kernel element, so they are checked on the kernel basis.

    W.beta must lie in K = F_p(W.alpha), as it does for every monomial root
    system, so each translate lies in K: its alpha_t = alpha^{p^i q^{-j}} is
    a conjugate of alpha, q^{-j} being a power of p mod e'. The module's
    alpha must then be a root of alpha's minimal polynomial, and the
    embedding iota: K -> ambient with iota(alpha) = the module's alpha
    exists. Every embedding of K is iota o Frob^k, and the translates run
    over a full Frobenius period, so their images under any one embedding
    are the same set and iota gives the verdict that any other would.
    Translate (i, j) has iota(alpha_t) = iota(alpha)^u with
    u = p^i q^{-j} mod e', so only the pairs with p^i = q^j mod e' can
    match, each with eigenvalue iota(beta_t) = Frob^i(iota(beta)). The
    scaling check does not depend on the translate and is made once.
    """
    ctx = M.context
    if ctx is None:
        raise ValidationError("module comparison needs a module built from (R, m), not a direct sum")
    if any(not c.is_zero() for c in ctx.R.coeffs[:-1]):
        raise ValidationError("module comparison applies to monomial R only")
    inv = invariants(W)
    if M.dim != inv.a * inv.b:
        return False
    beta = _beta_image(W, ctx.alpha)
    if beta is None:
        return False
    if any(
        M.element([row[col] for row in M.T]) != ctx.alpha * eta for col, eta in enumerate(M.basis)
    ):
        return False
    ea = W.e_prime
    q_powers = {pow(W.q, j, ea) for j in range(inv.a)}
    images = [eta.frobenius(ctx.base.n * inv.a) for eta in M.basis]
    for i in range(multiplicative_order(W.p, ea)):
        if pow(W.p, i, ea) in q_powers:
            eigenvalue = beta.frobenius(i)
            if all(x == eigenvalue * eta for x, eta in zip(images, M.basis)):
                return True
    return False


def nu_label(type_label: str) -> str:
    """Primary-module label: the unique structure for types B and C; a single
    type-A summand is ambiguous."""
    return "(M(W),0)" if type_label in ("B", "C") else "n/a"
