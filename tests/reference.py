"""Independent references that no report path uses, kept for the tests.

poly_roots: all roots in F of a polynomial, by Cantor-Zassenhaus over the
whole field; the reference for ff's least embedding root.

least_root_matches_module: the root-system check through ff.embed, the
canonical least-root embedding of W's whole field, with every orbit
translate built; the reference for rootsys.matches_module, which embeds
F_p(alpha) by the image of alpha instead.

ben_or_is_irreducible, least_irreducible, frobenius_matrix_by_powers: the
irreducibility test, the least-modulus search and the Frobenius matrix as
ff had them before its lean Ben-Or (generic divmod and gcd helpers, the
rows x^{jp} mod m all built at the second step, x^p powered in the field);
the references for ff._fp_is_irreducible, ff.field_create and
Field.frobenius_matrix(1).

splitting_degree_by_gcds, root_of_unity_generator_in_the_whole_field,
gram_from_pairing_values, action_matrix_by_solves: the module build's
routines as they were before it made fewer field products (a skew right gcd
with x^{q^k} - x per k, a generator search over all of F_{p^n}, every
pairing value c x^{p^a} y^{p^b} summed for both orders of each pair, one
linear solve per image); the references for addpoly.splitting_degree,
ff._root_of_unity_generator, Context.gram and addpoly.action_matrix.

cyc_mul: the product in Z[zeta_p] with its own convolution of the
coordinate vectors, as counts.Cyc had it; the reference for Cyc.__mul__,
which takes its convolution from poly.mul. _mul and _mod, the products and
remainders of the former Ben-Or, are also the references for Field._mul.

root_power, galois, psi_l_product, zeta_from_conjugates: zeta^j in
counts.Cyc's basis, the reference for counts.character_sum; the zeta numerator as the
product in Z[zeta_p] of the p - 1 Galois conjugates of L(psi_1), or of any
list of character L-polynomials; the reference for counts' route through the
traced power sums of L(psi_1).

cyclotomic_polynomial, supersingular_by_cyclotomic_factors: Phi_n by exact
division of x^n - 1, and the supersingularity test that strips cyclotomic
factors from D(z) = prod (z - lambda^2 / q), as counts had it; the
reference for counts.check_supersingular, which applies Kronecker's theorem
through integrality and the Weil test instead.

field_form_data, circulant_form_data: the Gram data of Tr(x R(x)) as
counts had it on its two routes, in the power basis of the canonical
F_{q^k} (the Hankel matrix of the power traces times the matrix of R) and,
for R over F_p, as the circulant in the normal basis of
counts._normal_traces; the references for counts._form_data, which is the
second when a = 1 and the first when b = 1.

hankel_blocks: the blocks H_i = Tr(x^j a_i (x^{j'})^{p^i}) of R on
F = F_{p^a} as counts._form_data had them, the Hankel matrix of F's power
traces times the matrices of a_i and Frob^i; the reference for
counts._hankel_blocks, which reads them from the trace sequence.

matrix_order: the multiplicative order of a matrix mod p by repeated
products, as linalg had it; the reference for the module's sigma order,
which sympmod reads from the splitting degree of E.

brute_force_count, frobenius_twist, detect_doubled_type_a, v2: helpers
that only tests read: the point count of y^p - y = x R(x) by a double loop
over the field (the small-field oracle for counts.point_count), the outer
Z-action on the group of (alpha, beta, gamma), the doubled type-A label of
a direct sum of two monomial modules, and the 2-adic valuation.
"""

import itertools
import random
from math import lcm

from wildinv import addpoly, counts, ff, poly
from wildinv.counts import Cyc, PsiLPolynomial
from wildinv.ambient import _scalar
from wildinv.errors import TheoremViolation, ValidationError
from wildinv.linalg import coords_in_rows, identity, mat_add, mat_mul, transpose
from wildinv.espgroup import GroupElement
from wildinv.numth import multiplicative_order, prime_factors
from wildinv.rootsys import classify, invariants, same_root_system


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


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _mod(a, m, p):
    """Remainder of a by a nonzero trimmed m."""
    dm = len(m) - 1
    a = list(a)
    inv = pow(m[-1], -1, p)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] * inv % p
        if c:
            for i, mi in enumerate(m[:-1]):
                a[top - dm + i] -= c * mi
    return _trim([c % p for c in a[:dm]])


def _gcd_is_one(a, b, p):
    while b:
        a, b = b, _mod(a, b, p)
    return len(a) == 1


def _powmod_x(e, m, p):
    """x^e mod m by square and multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mod(_mul(result, result, p), m, p)
        if bit == "1":
            result = _mod([0] + result, m, p)
    return result


def ben_or_is_irreducible(m, p):
    """Ben-Or's test for a monic m of degree n over F_p: gcd(x^{p^i} - x, m)
    = 1 for every i <= n/2, each x^{p^i} the previous one composed with x^p
    through the rows x^{jp} mod m."""
    n = len(m) - 1
    if n <= 1:
        return n == 1
    xp = _powmod_x(p, m, p)
    h, rows = xp, None
    for i in range(1, n // 2 + 1):
        if i > 1:
            if rows is None:
                rows = [[1]]
                for _ in range(n - 1):
                    rows.append(_mod(_mul(rows[-1], xp, p), m, p))
            acc = [0] * n
            for hj, row in zip(h, rows):
                for t, r in enumerate(row):
                    acc[t] += hj * r
            h = _trim([c % p for c in acc])
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if not _gcd_is_one(m, _trim(diff), p):
            return False
    return True


def least_irreducible(p, n):
    """The least monic irreducible of degree n, the constant term from 1 and
    then the tail in lexicographic order."""
    if n == 1:
        return (0, 1)
    return next(
        m
        for c0 in range(1, p)
        for tail in itertools.product(range(p), repeat=n - 1)
        for m in [(c0, *tail, 1)]
        if ben_or_is_irreducible(list(m), p)
    )


def frobenius_matrix_by_powers(F):
    """Columns (x^j)^p = (x^p)^j, with x^p = gen() ** p in the field."""
    gp = F.gen() ** F.p
    cols = [F.one().coords]
    cur = gp
    for _ in range(1, F.n):
        cols.append(cur.coords)
        cur = cur * gp
    return [list(row) for row in zip(*cols)]


def splitting_degree_by_gcds(f, kmax=9999):
    """Least k with ker(f) inside F_{q^k}: the first k whose right gcd of
    x^{q^k} - x and f, Frobenius right factors peeled, has f's p-degree;
    None if no k <= kmax is."""
    coeffs = list(f.coeffs)
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
    g = addpoly.AdditivePoly(f.base, coeffs)
    target = g.p_degree
    if target == 0:
        return 1
    n0 = f.base.n
    for k in range(1, kmax + 1):
        frob_poly = [f.base.zero()] * (n0 * k + 1)
        frob_poly[0] = -f.base.one()
        frob_poly[-1] = f.base.one()
        h = addpoly.skew_right_gcd(addpoly.AdditivePoly(f.base, frob_poly), g)
        if not h.is_zero() and h.p_degree == target:
            return k
    return None


def root_of_unity_generator_in_the_whole_field(F, d):
    """The first y^((p^n - 1)/d) of order d, y over all of F in lex order."""
    cof = (F.order - 1) // d
    ells = [ell for ell in prime_factors(F.order - 1) if d % ell == 0]
    for y in F.elements():
        if y.is_zero():
            continue
        z = y ** cof
        if z == F.one():
            continue
        if all(z ** (d // ell) != F.one() for ell in ells):
            return z
    raise TheoremViolation("no generator of mu_d found (impossible)")


def gram_from_pairing_values(ctx, elems):
    """omega on elems from the whole matrix of pairing values P[i][j] =
    pairing(x_i, x_j), each entry summed over every monomial of
    addpoly.pairing_poly."""
    F, p, n = elems[0].field, elems[0].field.p, len(elems)
    table = addpoly.pairing_poly(ctx.R)
    terms = [(a, b, c if c.field is F else ff.embed(c, F)) for (a, b), c in table.items()]
    xp = [{k: x.frobenius(k) for a, b, _ in terms for k in (a, b)} for x in elems]
    P = [[sum((c * u[a] * v[b] for a, b, c in terms), F.zero()) for v in xp] for u in xp]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = _scalar((P[i][j] - P[j][i]).coords)
            gram[i][j] = w
            gram[j][i] = (-w) % p
    return gram


def action_matrix_by_solves(B, fn, field):
    """Matrix (columns) of a linear map in the row-basis coordinates of any
    basis B, one linear solve per image."""
    cols = []
    for row in B:
        c = coords_in_rows(B, fn(field.el(row)).coords, field.p)
        if c is None:
            raise TheoremViolation("space not stable under the action")
        cols.append(c)
    return transpose(cols)


def cyc_mul(x, y):
    """x y in Z[zeta_p]: the convolution of the coordinate vectors, then
    zeta^k = zeta^{k-p} for k >= p and zeta^{p-1} = -(1 + ... + zeta^{p-2})."""
    p = x.p
    conv = [0] * (2 * p - 2)  # degrees up to 2p - 4, and p - 1 when p = 2
    for i, a in enumerate(x.vec):
        for j, b in enumerate(y.vec):
            conv[i + j] += a * b
    for k in range(p, 2 * p - 3):
        conv[k - p] += conv[k]
    top = conv[p - 1]
    return Cyc(p, [c - top for c in conv[: p - 1]])


def root_power(p, j):
    """zeta^j reduced into the basis 1..zeta^{p-2}."""
    j %= p
    if j <= p - 2:
        return Cyc(p, [int(i == j) for i in range(p - 1)])
    # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    return Cyc(p, [-1] * (p - 1))


def galois(x, c):
    """sigma_c: zeta -> zeta^c on a Cyc: permute the powers, then fold
    zeta^{p-1} back."""
    p = x.p
    full = [0] * p
    for i, a in enumerate(x.vec):
        full[i * c % p] += a
    top = full[p - 1]
    return Cyc(p, [a - top for a in full[: p - 1]])


def psi_l_product(Ls):
    """Integer coefficients of the product of the given L-polynomials, which
    must lie in Z."""
    prod = [Cyc.integer(Ls[0].p, 1)]
    for L in Ls:
        prod = poly.mul(prod, L.coeffs)
    if any(any(cf.vec[1:]) for cf in prod):
        raise TheoremViolation("the product of the L-polynomials must have integer coefficients")
    return [cf.vec[0] for cf in prod]


def zeta_from_conjugates(L1):
    """Z = prod_{c=1}^{p-1} sigma_c(L(psi_1)), multiplied out in Z[zeta_p]."""
    conjugates = [PsiLPolynomial(L1.p, c, [galois(cf, c) for cf in L1.coeffs]) for c in range(2, L1.p)]
    return psi_l_product([L1, *conjugates])


_CYCLOTOMIC = {}


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, constant term first: x^n - 1 divided
    by every Phi_d with d | n, d < n."""
    if n not in _CYCLOTOMIC:
        phi = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                phi, r = poly.divmod(phi, cyclotomic_polynomial(d))
                if r:
                    raise TheoremViolation("integer polynomial division must be exact")
        _CYCLOTOMIC[n] = tuple(phi)
    return list(_CYCLOTOMIC[n])


def _totient(n):
    for ell in prime_factors(n):
        n = n // ell * (ell - 1)
    return n


def supersingular_by_cyclotomic_factors(Z):
    """All lambda^2 / q roots of unity: D(z) = prod (z - lambda^2 / q) must
    be integral and, once every Phi_n that fits is stripped as often as it
    divides, nothing must be left (Kronecker)."""
    g, q, A = Z.g, Z.q, Z.coeffs[::-1]
    C = poly.mul(A, [c * (-1) ** i for i, c in enumerate(A)])[::2]  # A(x) A(-x) = C(x^2)
    if any(c * q ** j % q ** (2 * g) for j, c in enumerate(C)):
        return False
    remaining = [c * q ** j // q ** (2 * g) for j, c in enumerate(C)]
    deg = len(remaining) - 1
    # phi(n) >= sqrt(n/2), so factors of degree <= deg have n <= 2 deg^2 + 1
    for n in range(1, 2 * deg * deg + 3):
        if len(remaining) == 1:
            break
        if _totient(n) >= len(remaining):
            continue
        phi = cyclotomic_polynomial(n)
        while len(phi) <= len(remaining):
            quotient, r = poly.divmod(remaining, phi)
            if r:
                break
            remaining = quotient
    return remaining == [1]


def field_form_data(R, k):
    """(p, n, B, qvec) of Tr(x R(x)) in the power basis of the canonical
    F_{q^k}: Tr(x^i R(x^j)) = sum_k R(x^j)_k Tr(x^{i+k}), the Hankel matrix
    of the power traces of x times the matrix of R."""
    p = R.p
    n = R.base.n * k
    F = ff.field_create(p, n)
    tau = F.power_traces()
    hankel = [tau[i:i + n] for i in range(n)]
    half = mat_mul(hankel, R.embed_to(F).operator_matrix(F), p)
    qvec = [half[j][j] for j in range(n)]
    return p, n, mat_add(half, transpose(half), p), qvec


def circulant_form_data(R, n):
    """(p, n, B, qvec) of Tr(x R(x)) on F_{p^n} for R with coefficients in
    F_p, in the normal basis b_j = beta^{p^j} of counts._normal_traces(p, n):
    H[j][j'] = h[j' - j], h[d] = sum_i a_i T_{i+d} (indices mod n), so B =
    H + H^T and every Q(b_j) = h[0]."""
    p = R.p
    T = counts._normal_traces(p, n)
    a = [c.coords[0] for c in R.coeffs]
    h = [sum(ai * T[(i + d) % n] for i, ai in enumerate(a)) for d in range(n)]
    b = [(h[d] + h[-d]) % p for d in range(n)]
    return p, n, [b[n - j:] + b[:n - j] for j in range(n)], [h[0] % p] * n


def hankel_blocks(R, F):
    """(i, H_i) for each nonzero a_i of R, whose base field embeds in F: the
    Hankel matrix of the power traces of F's generator times the matrices of
    a_i and Frob^i."""
    p, a = F.p, F.n
    tau = F.power_traces()
    hankel = [tau[j:j + a] for j in range(a)]
    return [(i, mat_mul(hankel, mat_mul(F.mult_matrix(ff.embed(c, F)), F.frobenius_matrix(i), p), p))
            for i, c in enumerate(R.coeffs) if c]


def matrix_order(A, p, cap=10 ** 6):
    """Multiplicative order of an invertible matrix mod p, by repeated products."""
    I = identity(len(A))
    M = B = [[x % p for x in row] for row in A]
    for k in range(1, cap + 1):
        if M == I:
            return k
        M = mat_mul(M, B, p)
    raise TheoremViolation("matrix order exceeds cap")


BRUTE_FORCE_GUARD = 2 ** 20


def brute_force_count(R, k):
    """Affine points of y^p - y = x R(x) over F_{q^k} by a double loop over
    (y, x); the small-field oracle."""
    base = R.base
    n = base.n * k
    if base.p ** n > BRUTE_FORCE_GUARD:
        raise ValidationError("field too large for brute-force enumeration")
    F = ff.field_create(base.p, n)
    Rk = R.embed_to(F)
    values = {}
    for x in F.elements():
        t = x * addpoly.evaluate(Rk, x)
        values[t] = values.get(t, 0) + 1
    return sum(values.get(y ** base.p - y, 0) for y in F.elements())


def frobenius_twist(g):
    """The generator of the outer Z-action: coordinatewise inverse q-Frobenius."""
    c = g.ctx.context
    k = (-c.base.n) % c.ambient.n
    return GroupElement(g.ctx, g.alpha.frobenius(k), g.beta.frobenius(k), g.gamma.frobenius(k))


def detect_doubled_type_a(W1, W2, direct_sum_anisotropic):
    """The doubled type-A configuration: equal-orbit type-A summands whose
    direct sum stays completely anisotropic."""
    if classify(W1)[0] == classify(W2)[0] == "A" and direct_sum_anisotropic and same_root_system(W1, W2):
        return "(M(W),2)"
    return "n/a"


def v2(n):
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is infinite")
    n = abs(n)
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v
