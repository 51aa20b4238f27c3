"""Independent references that no report path uses, kept for the tests.

poly_roots: all roots in F of a polynomial, by Cantor-Zassenhaus over the
whole field; the reference for ff's least embedding root.

least_root_matches_module: the root-system check through ff.embed, the
canonical least-root embedding of W's whole field, with every orbit
translate built; the reference for rootsys.matches_module, which embeds
F_p(alpha) by the image of alpha instead.
"""

import random
from math import lcm

from wildinv import ff, poly
from wildinv.errors import ValidationError
from wildinv.numth import multiplicative_order
from wildinv.rootsys import invariants


def poly_roots(coeffs, F):
    """All roots in F of a nonzero squarefree polynomial with coefficients in F.

    Cantor-Zassenhaus equal-degree splitting with a fixed-seed generator, so
    results are reproducible.
    """
    rng = random.Random(0x5EED ^ (F.p * 1000003 + F.n))
    f = poly.gcd(coeffs, [])  # the monic associate
    if not f:
        raise ValidationError("zero polynomial")
    # strip to the product of distinct linear factors: gcd(f, x^order - x)
    xq = poly.powmod([F.zero(), F.one()], F.order, f)
    lin = poly.gcd(f, poly.sub(xq, [F.zero(), F.one()]))
    out = []
    _cz_split(lin, F, rng, out)
    return sorted(out, key=lambda r: r.coords)


def _cz_split(f, F, rng, out):
    deg = len(f) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append(-f[0] / f[1])
        return
    p = F.p
    while True:
        a = F.el([rng.randrange(p) for _ in range(F.n)])
        # for p = 2, y = d x + a with d random nonzero: the multiplier is
        # what separates roots with equal absolute trace
        d = F.zero() if p == 2 else F.one()
        while d.is_zero():
            d = F.el([rng.randrange(p) for _ in range(F.n)])
        g = poly.gcd(f, ff._split_poly([a, d], f, F.n, F))
        if 0 < len(g) - 1 < deg:
            _cz_split(g, F, rng, out)
            _cz_split(poly.divmod(f, g)[0], F, rng, out)
            return


def least_root_matches_module(M, W):
    """rootsys.matches_module as it was before the embedding by alpha's image."""
    ctx = M.context
    if any(not c.is_zero() for c in ctx.R.coeffs[:-1]):
        raise ValidationError("module comparison applies to monomial R only")
    inv = invariants(W)
    if M.dim != inv.a * inv.b:
        return False
    amb = M.ambient
    ordp = multiplicative_order(W.p, lcm(W.e_prime, W.f_prime))
    for i in range(ordp):
        for j in range(inv.a):
            t = W.translate(i, j)
            if ff.embed(t.alpha, amb) != ctx.alpha:
                continue
            beta_amb = ff.embed(t.beta, amb)
            if all(
                eta.frobenius(ctx.base.n * inv.a) == beta_amb * eta
                and M.element([row[col] for row in M.T]) == ctx.alpha * eta
                for col, eta in enumerate(M.basis)
            ):
                return True
    return False
