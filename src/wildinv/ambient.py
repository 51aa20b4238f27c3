"""One working field per computation.

Every group/module computation over (R, m) happens inside a single field
F_{p^M} chosen large enough for the kernel of the E-polynomial, the scaling
roots of unity, and (when asked) the Artin-Schreier coordinates. M is the
lcm of the required degrees; a size guard rejects p^M beyond 2^40, which is
far above anything the constructions here need.
"""

from functools import reduce
from math import lcm

from . import addpoly, ff
from .errors import AmbientGuardError, TheoremViolation, ValidationError
from .linalg import coords_in_rows, mat_add, mat_vec
from .numth import multiplicative_order

SIZE_GUARD_BITS = 40


class Context:
    """Ambient field together with the kernel space of R, the splitting degree
    of E over F_q and alpha, the canonical root of unity of order d_Rm."""

    __slots__ = (
        "R",
        "m",
        "base",
        "ambient",
        "R_amb",
        "E_amb",
        "e",
        "d_R",
        "d_Rm",
        "splitting_degree",
        "kernel_elems",
        "kernel_rows",
        "alpha",
        "pairing",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def dim(self):
        return len(self.kernel_elems)

    def kernel_vector_to_element(self, coords):
        """Field element from F_p-coordinates in the canonical kernel basis."""
        out = [0] * self.ambient.n
        for c, b in zip(coords, self.kernel_elems):
            if c % self.ambient.p:
                out = [x + int(c) * y for x, y in zip(out, b.coords)]
        return self.ambient.el(out)

    def element_to_kernel_vector(self, x):
        c = coords_in_rows(self.kernel_rows, x.coords, self.ambient.p)
        if c is None:
            raise ValidationError("element is not in the kernel space")
        return c

    def omega(self, x, y) -> int:
        """Antisymmetrized pairing, a prime-field scalar."""
        return _scalar((self.pairing.eval(x, y) - self.pairing.eval(y, x)).coords)

    def gram(self, elems):
        """Matrix of omega on elems, at one field product per pair and term.

        The values come from _omega_values, each checked to be a scalar on
        every coordinate. omega is alternating: the diagonal is zero and the
        entries below it are the negated ones above.
        """
        n = len(elems)
        if not n:
            return []
        F = elems[0].field
        if any(x.field is not F for x in elems):
            raise ValidationError("pairing arguments in different fields")
        gram = [[0] * n for _ in range(n)]
        if self.e == 0:  # the table is empty
            return gram
        R = self.R_amb if F is self.ambient else self.R.embed_to(F)
        p = F.p
        for (i, j), w in _omega_values(R, elems).items():
            gram[i][j] = _scalar(w)
            gram[j][i] = (-gram[i][j]) % p
        return gram


def _omega_values(R, elems):
    """Coordinates of omega(x_i, x_j) for i < j, for any elements of R's base.

    With T_k = sum_{j<k} Frob^j the table of addpoly.pairing_poly is
    f(x, y) = -sum_{i<e} T_{e-i}(a_i x^{p^i} y) - T_e(x R(y)), and its i = 0
    term cancels in omega(x, y) = f(x, y) - f(y, x), so
    omega(x, y) = -sum_t T_{k_t}(u_t(x) v_t(y) - u_t(y) v_t(x)) over the terms
    (k, u, v) = (e, id, R) and (e - i, a_i Frob^i, id) for 0 < i < e with
    a_i != 0. Each difference is (u(x) - u(y))(v(x) + v(y)) - u(x) v(x)
    + u(y) v(y), so once the diagonal products are made a pair costs one
    product per term, and the sum over the terms is one product with the
    stacked matrix [T_{k_1} ... T_{k_t}].
    """
    F, e = R.base, R.p_degree
    p = F.p
    # a_i x^{p^i} for every nonzero a_i; their sum is R(x)
    scaled = [{i: c * x.frobenius(i) for i, c in enumerate(R.coeffs) if c} for x in elems]
    terms = [(e, elems, [sum(s.values(), F.zero()) for s in scaled])]
    terms += [(e - i, [s[i] for s in scaled], elems) for i in range(1, e) if R.coeffs[i]]
    stacked = [[] for _ in range(F.n)]
    for k, _, _ in terms:
        T = reduce(lambda A, B: mat_add(A, B, p), (F.frobenius_matrix(j) for j in range(k)))
        for row, t in zip(stacked, T):
            row.extend(t)

    # omega(x_i, x_j) = S(D_i - D_j - P_ij) with P_ij = (u(x_i) - u(x_j))(v(x_i) + v(x_j))
    # and D_i = u(x_i) v(x_i) per term, S the stacked matrix
    diag = [[(u[i] * v[i]).coords for _, u, v in terms] for i in range(len(elems))]
    out = {}
    for i, di in enumerate(diag):
        for j in range(i + 1, len(elems)):
            vec = []
            for (_, u, v), a, b in zip(terms, di, diag[j]):
                P = ((u[i] - u[j]) * (v[i] + v[j])).coords
                vec += [x - y - z for x, y, z in zip(a, b, P)]
            out[i, j] = mat_vec(stacked, vec, p)
    return out


def _scalar(coords) -> int:
    if any(coords[1:]):
        raise TheoremViolation("pairing values must be scalars")
    return coords[0]


def validate_input(R: addpoly.AdditivePoly, m: int):
    if R.is_zero():
        raise ValidationError("R must be a nonzero additive polynomial")
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if m % R.p == 0:
        raise ValidationError(f"m = {m} must be prime to p = {R.p}")
    if R.p == 2 and R.p_degree == 0:
        raise ValidationError("the pair (p, e) = (2, 0) is excluded")


def build_context(
    R: addpoly.AdditivePoly, m: int, need_gamma: bool = False, degree: int = None
) -> Context:
    """Assemble the ambient field and canonical data for (R, m).

    The ambient is F_{p^degree} when a degree is given (it must split the
    E-polynomial and hold the scaling roots), else the least such field.
    """
    validate_input(R, m)
    base = R.base
    p = base.p
    e = R.p_degree
    d_R = addpoly.scaling_order(R)
    d_Rm = addpoly.twisted_scaling_order(R, m)
    E = addpoly.e_poly(R)
    s = addpoly.splitting_degree(E)
    M = _least_degree(R, d_R, s) if degree is None else degree
    _guard(p, M)
    ambient, kernel_elems = addpoly.split_kernel(E, M)

    pairing = addpoly.pairing_poly(R)
    if need_gamma and e >= 1:
        # gamma coordinates solve y^p - y = b R(b); one degree-p extension
        # makes every absolute trace vanish, so at most one enlargement
        if _needs_artin_schreier_extension(R, kernel_elems):
            M *= p
            _guard(p, M)
            ambient, kernel_elems = addpoly.split_kernel(E, M)

    alpha = ff.canonical_root_of_unity(ambient, d_Rm)
    return Context(
        R=R,
        m=m,
        base=base,
        ambient=ambient,
        R_amb=R.embed_to(ambient),
        E_amb=E.embed_to(ambient),
        e=e,
        d_R=d_R,
        d_Rm=d_Rm,
        splitting_degree=s,
        kernel_elems=kernel_elems,
        kernel_rows=[b.as_vector() for b in kernel_elems],
        alpha=alpha,
        pairing=pairing,
    )


def required_degree(R: addpoly.AdditivePoly, m: int) -> int:
    """The ambient degree build_context would use before any gamma extension."""
    validate_input(R, m)
    return _least_degree(R, addpoly.scaling_order(R), addpoly.splitting_degree(addpoly.e_poly(R)))


def _least_degree(R, d_R, s):
    """Least degree over F_p of a field holding ker E (in F_{q^s}) and mu_{d_R}."""
    return lcm(R.base.n * s, multiplicative_order(R.p, d_R))


def _guard(p, M):
    if M * p.bit_length() > 4096:
        raise AmbientGuardError(f"ambient degree {M} is structurally oversized")
    if p ** M > 2 ** SIZE_GUARD_BITS:
        raise AmbientGuardError(
            f"ambient field F_{p}^{M} exceeds the 2^{SIZE_GUARD_BITS} size guard"
        )


def _needs_artin_schreier_extension(R, kernel_elems):
    """Does y^p - y = x R(x) lack a root for some x in the span of kernel_elems?

    It has one iff Q(x) = Tr(x R(x)) vanishes. On ker E the pairing identity
    x R(y) + y R(x) = f(x, y)^p - f(x, y) makes the polar form of Q trace
    zero, so Q(sum c_i b_i) = sum c_i^2 Q(b_i): Q vanishes on the span iff
    it vanishes on the basis.
    """
    return any(ff.artin_schreier_root(x * addpoly.evaluate(R, x)) is None for x in kernel_elems)
