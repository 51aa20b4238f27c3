"""The finite groups attached to an additive polynomial R.

Elements are triples (alpha, beta, gamma) with alpha a scaling root of unity,
beta in the kernel of the E-polynomial and gamma an Artin-Schreier coordinate
over beta R(beta); the product twists beta by alpha and corrects gamma by the
bilinear pairing. The alpha = 1 subgroup is an extra-special p-group whose
commutators realize the symplectic form.
"""

import itertools

from . import addpoly, ff, linalg
from .ambient import build_context
from .errors import TheoremViolation, ValidationError


class GroupContext:
    """Everything needed for exact group arithmetic over (R, m): the field
    data of build_context, and what the group adds to it."""

    def __init__(self, R, m=1):
        context = build_context(R, m)
        # gamma coordinates solve y^p - y = b R(b); one degree-p extension
        # makes every absolute trace vanish, so at most one enlargement
        if _needs_artin_schreier_extension(R, context.kernel_elems):
            context = build_context(R, m, degree=R.p * context.ambient.n)
        self.context = context
        self.mu = ff.roots_of_unity(context.ambient, context.d_R)  # mu_{d_R}, canonical order
        # full kernel space enumerated by basis coordinates (mixed radix order)
        self.beta_coords = list(itertools.product(range(R.p), repeat=2 * context.e))
        self.betas = [context.kernel_vector_to_element(c) for c in self.beta_coords]
        # one gamma per beta (deterministic linear solve); index 0 is beta = 0
        if not self.betas[0].is_zero():
            raise TheoremViolation("the first kernel vector must be zero")
        self.gamma0 = []
        for b in self.betas:
            g = ff.artin_schreier_root(b * addpoly.evaluate(context.R_amb, b))
            if g is None:
                raise TheoremViolation("ambient was built to contain gamma coordinates")
            self.gamma0.append(g)
        if not self.gamma0[0].is_zero():
            raise TheoremViolation("the reference gamma of beta = 0 must be 0")

    def identity(self):
        F = self.context.ambient
        return GroupElement(self, F.one(), F.zero(), F.zero())

    def element(self, alpha, beta, gamma):
        return GroupElement(self, alpha, beta, gamma)

    def h_elements(self):
        """All of the alpha = 1 subgroup, |.| = p^{2e+1}, in canonical order."""
        one = self.context.ambient.one()
        out = []
        for i, b in enumerate(self.betas):
            g0 = self.gamma0[i]
            for c in range(self.context.ambient.p):
                out.append(GroupElement(self, one, b, g0 + c, check=False))
        return out

    def q_size(self, restricted=False):
        c = self.context
        d = c.d_Rm if restricted else c.d_R
        return d * c.ambient.p ** (2 * c.e + 1)


def _needs_artin_schreier_extension(R, kernel_elems):
    """Does y^p - y = x R(x) lack a root for some x in the span of kernel_elems?

    It has one iff Q(x) = Tr(x R(x)) vanishes. On ker E the pairing identity
    x R(y) + y R(x) = f(x, y)^p - f(x, y) makes the polar form of Q trace
    zero, so Q(sum c_i b_i) = sum c_i^2 Q(b_i): Q vanishes on the span iff
    it vanishes on the basis.
    """
    return any(ff.artin_schreier_root(x * addpoly.evaluate(R, x)) is None for x in kernel_elems)


class GroupElement:
    """(alpha, beta, gamma) with the three defining membership equations checked."""

    __slots__ = ("ctx", "alpha", "beta", "gamma")

    def __init__(self, ctx, alpha, beta, gamma, check=True):
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        if check:
            c = ctx.context
            if alpha ** c.d_R != c.ambient.one():
                raise ValidationError("alpha is not a scaling root of unity")
            if not addpoly.evaluate(c.E_amb, beta).is_zero():
                raise ValidationError("beta is not in the kernel space")
            if gamma ** c.ambient.p - gamma != beta * addpoly.evaluate(c.R_amb, beta):
                raise ValidationError("gamma fails its Artin-Schreier equation")

    def in_h(self):
        return self.alpha == self.ctx.context.ambient.one()

    def tuple(self):
        return (self.alpha, self.beta, self.gamma)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.ctx is other.ctx
            and self.tuple() == other.tuple()
        )

    def __hash__(self):
        return hash((self.alpha, self.beta, self.gamma))

    def __repr__(self):
        return f"({self.alpha}, {self.beta}, {self.gamma})"


def multiply(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """(a1 a2, b1 + a1 b2, c1 + c2 + pairing(b1, a1 b2))."""
    if g1.ctx is not g2.ctx:
        raise ValidationError("elements from different group contexts")
    ctx = g1.ctx
    a = g1.alpha * g2.alpha
    ab2 = g1.alpha * g2.beta
    b = g1.beta + ab2
    c = g1.gamma + g2.gamma + addpoly.pairing_value(ctx.context.R_amb, g1.beta, ab2)
    return GroupElement(ctx, a, b, c)


def inverse(g: GroupElement) -> GroupElement:
    ctx = g.ctx
    ai = g.alpha.inverse()
    b = -(ai * g.beta)
    c = -g.gamma + addpoly.pairing_value(ctx.context.R_amb, g.beta, g.beta)
    out = GroupElement(ctx, ai, b, c, check=False)
    if multiply(g, out) != ctx.identity():
        raise TheoremViolation("g times its inverse must be the identity")
    return out


def commutator(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 g2 g1^{-1} g2^{-1}; for alpha = 1 this is central with scalar gamma."""
    out = multiply(multiply(g1, g2), multiply(inverse(g1), inverse(g2)))
    if g1.in_h() and g2.in_h():
        if out.alpha != g1.ctx.context.ambient.one() or not out.beta.is_zero():
            raise TheoremViolation("commutator in H must be central")
        if any(c != 0 for c in out.gamma.coords[1:]):
            raise TheoremViolation("commutator gamma must be scalar")
    return out


ENUMERATION_GUARD = 10 ** 6


def _index_tables(ctx: GroupContext):
    """Integer encoding of the alpha = 1 subgroup: (beta index, gamma offset).

    add_idx is the beta index addition; delta[i][j] in F_p is what the gamma
    coordinate of a product exceeds the reference gamma of its beta by. Both
    tables are filled from exact field arithmetic, then everything downstream
    is plain integer work.
    """
    c = ctx.context
    p, dim = c.ambient.p, 2 * c.e
    U = ctx.beta_coords
    # mixed radix index of coordinatewise sums
    weights = [p ** (dim - 1 - k) for k in range(dim)]
    add_idx = [[sum((a + b) % p * w for a, b, w in zip(u, v, weights)) for v in U] for u in U]

    # A[l] has column k = pairing(b_k, b_l)
    A = [
        linalg.transpose([addpoly.pairing_value(c.R_amb, b, b_l).coords for b in c.kernel_elems])
        for b_l in c.kernel_elems
    ]
    G0 = [g.coords for g in ctx.gamma0]
    delta = []
    for i, u in enumerate(U):
        # column l of W is pairing(beta_i, b_l), so W U[j] = pairing(beta_i, beta_j)
        W = linalg.transpose([linalg.mat_vec(Al, u, p) for Al in A])
        row = []
        for j, v in enumerate(U):
            f = linalg.mat_vec(W, v, p)
            full = [(a + b + c - d) % p for a, b, c, d in zip(G0[i], G0[j], f, G0[add_idx[i][j]])]
            if any(full[1:]):
                raise TheoremViolation("group law must close over reference gammas")
            row.append(full[0])
        delta.append(row)
    return add_idx, delta


def analyze(ctx: GroupContext) -> dict:
    """Center, commutator subgroup and the extra-special verdict, by enumeration."""
    p, e = ctx.context.ambient.p, ctx.context.e
    size = p ** (2 * e + 1)
    if size > ENUMERATION_GUARD:
        raise ValidationError(f"group of size {size} exceeds the enumeration guard")
    if e == 0:
        return {
            "order": p,
            "center_order": p,
            "commutator_order": 1,
            "is_extra_special": False,
            "degenerate": True,
        }
    nb = len(ctx.betas)
    add_idx, delta = _index_tables(ctx)

    def mul(x, y):
        return (add_idx[x[0]][y[0]], (x[1] + y[1] + delta[x[0]][y[0]]) % p)

    central_betas = [i for i in range(nb) if delta[i] == [row[i] for row in delta]]
    center = [(i, c) for i in central_betas for c in range(p)]

    # every commutator, from all pairs: beta part cancels, gamma is the
    # antisymmetrized delta; the set is central so closure is cheap
    comms = {(0, (a - b) % p) for row, col in zip(delta, zip(*delta)) for a, b in zip(row, col)}
    commutator_subgroup = _close_under(comms, mul, (0, 0))

    center_is_scalars = sorted(center) == [(0, c) for c in range(p)]
    extra_special = (
        center_is_scalars
        and len(center) == p
        and sorted(commutator_subgroup) == sorted(center)
    )
    return {
        "order": nb * p,
        "center_order": len(center),
        "commutator_order": len(commutator_subgroup),
        "is_extra_special": extra_special,
        "degenerate": False,
    }


def _close_under(seed, mul, identity):
    out = set(seed)
    out.add(identity)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                c = mul(a, b)
                if c not in out:
                    out.add(c)
                    nxt.append(c)
        frontier = nxt
    return out
