"""Additive (linearized) polynomials over finite fields.

An additive polynomial sum a_i x^{p^i} is stored by its p-power coefficient
vector (a_0, ..., a_e); composition is the twisted (Ore) product and right
division with remainder always exists, which is the engine behind every
decomposition question in this library.
"""

from functools import reduce
from math import gcd

from . import ff, poly
from .errors import AmbientGuardError, TheoremViolation, ValidationError
from .linalg import (
    cyclic_closure,
    identity,
    line_points,
    mat_add,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    transpose,
)
from .numth import prime_factors


class AdditivePoly:
    """sum_{i=0}^{e} a_i x^{p^i} with a_e != 0; the zero polynomial has no terms."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.base = base
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            if c.field is not base:
                raise ValidationError("coefficient outside the declared base field")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ints(cls, base, ints):
        return cls(base, [base.constant(c) for c in ints])

    @classmethod
    def zero(cls, base):
        return cls(base, [])

    @classmethod
    def identity(cls, base):
        return cls(base, [base.one()])

    @classmethod
    def monomial(cls, base, e, coeff=None):
        c = base.one() if coeff is None else coeff
        return cls(base, [base.zero()] * e + [c])

    # -- basics ---------------------------------------------------------------

    @property
    def p(self):
        return self.base.p

    def is_zero(self):
        return not self.coeffs

    @property
    def p_degree(self):
        """e with deg = p^e."""
        if self.is_zero():
            raise ValidationError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def degree(self):
        return self.p ** self.p_degree

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.base.zero()

    def __eq__(self, other):
        return (
            isinstance(other, AdditivePoly)
            and self.base is other.base
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base.p, self.base.n, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "AdditivePoly(0)"
        terms = [f"({c})x^{self.p}^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return "AdditivePoly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AdditivePoly(
            self.base, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AdditivePoly(
            self.base, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self):
        return AdditivePoly(self.base, [-c for c in self.coeffs])

    def scale(self, c):
        """Left scalar multiple c * f."""
        if isinstance(c, int):
            c = self.base.constant(c)
        return AdditivePoly(self.base, [c * a for a in self.coeffs])

    def _check(self, other):
        if not isinstance(other, AdditivePoly) or other.base is not self.base:
            raise ValidationError("additive polynomials over different fields")

    def embed_to(self, field):
        """Same polynomial with coefficients pushed into an extension field."""
        if field is self.base:
            return self
        return AdditivePoly(field, [ff.embed(c, field) for c in self.coeffs])

    def operator_matrix(self, F):
        """Matrix of f as an F_p-linear operator on the field F."""
        f = self.embed_to(F)
        n = F.n
        p = F.p
        M = [[0] * n for _ in range(n)]
        for i, c in enumerate(f.coeffs):
            if not c.is_zero():
                P = F.frobenius_matrix(i)
                M = mat_add(M, P if c == F.one() else mat_mul(F.mult_matrix(c), P, p), p)
        return M


def evaluate(f: AdditivePoly, x) -> "ff.FieldElement":
    """f(x) by iterated Frobenius; x may live in an extension of f's base."""
    F = x.field
    if F is not f.base:
        if F.p != f.base.p or F.n % f.base.n != 0:
            raise ValidationError("argument field is not an extension of the base")
        f = f.embed_to(F)
    out = F.zero()
    xp = x
    for i, c in enumerate(f.coeffs):
        if i > 0:
            xp = xp.frobenius(1)
        if not c.is_zero():
            out = out + c * xp
    return out


def compose(f: AdditivePoly, g: AdditivePoly) -> AdditivePoly:
    """f(g(x)): the twisted product with coefficient rule a_i * b_j^{p^i}."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        return AdditivePoly.zero(f.base)
    base = f.base
    out = [base.zero()] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b.frobenius(i)
    return AdditivePoly(base, out)


def right_divmod(f: AdditivePoly, g: AdditivePoly):
    """(h, r) with f = h o g + r and deg r < deg g, in the skew polynomial ring."""
    if g.is_zero():
        raise ValidationError("right division by zero")
    base = f.base
    g._check(f)
    if f.is_zero():
        return AdditivePoly.zero(base), AdditivePoly.zero(base)
    dg = g.p_degree
    lead_inv = g.coeffs[dg].inverse()
    rem = list(f.coeffs)
    h = [base.zero()] * max(len(f.coeffs) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        if rem[i].is_zero():
            continue
        t = rem[i] * lead_inv.frobenius(i - dg)
        h[i - dg] = t
        for k, b in enumerate(g.coeffs):
            if not b.is_zero():
                rem[k + i - dg] = rem[k + i - dg] - t * b.frobenius(i - dg)
        if not rem[i].is_zero():
            raise TheoremViolation("right division must clear the leading term")
    return AdditivePoly(base, h), AdditivePoly(base, rem[:dg])


def skew_right_gcd(f: AdditivePoly, g: AdditivePoly) -> AdditivePoly:
    """Monic right gcd; its kernel is the intersection of the two kernels."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, right_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(a.coeffs[a.p_degree].inverse())


# ---------------------------------------------------------------------------
# The E-polynomial, scaling orders, and the bilinear pairing


def e_poly(R: AdditivePoly) -> AdditivePoly:
    """The degree-p^{2e} additive polynomial R(x)^{p^e} + sum (a_i x)^{p^{e-i}}.

    Its coefficient of x is a_e, so it is always reduced; its root space is
    the 2e-dimensional symplectic space attached to R.
    """
    if R.is_zero():
        raise ValidationError("R must be nonzero")
    e = R.p_degree
    if R.p == 2 and e == 0:
        raise ValidationError("the pair (p, e) = (2, 0) is excluded")
    base = R.base
    out = [base.zero()] * (2 * e + 1)
    for i, a in enumerate(R.coeffs):
        if a.is_zero():
            continue
        out[e + i] = out[e + i] + a.frobenius(e)  # from R(x)^{p^e}
        out[e - i] = out[e - i] + a.frobenius(e - i)  # from (a_i x)^{p^{e-i}}
    E = AdditivePoly(base, out)
    if e >= 1:
        if E.coeff(0) != R.coeffs[e]:
            raise TheoremViolation("x-slot coefficient must equal a_e")
    else:
        # e = 0 collapses both sums onto the x slot: coefficient 2 a_0, p odd
        if E.coeff(0).is_zero():
            raise TheoremViolation("e = 0 needs the x-slot coefficient 2 a_0 nonzero")
    return E


def scaling_order(R: AdditivePoly) -> int:
    """d_R = gcd{p^i + 1 : a_i != 0}; always divides p^e + 1."""
    if R.is_zero():
        raise ValidationError("R must be nonzero")
    d = 0
    for i, a in enumerate(R.coeffs):
        if not a.is_zero():
            d = gcd(d, R.p ** i + 1)
    if (R.p ** R.p_degree + 1) % d != 0:
        raise TheoremViolation("d_R must divide p^e + 1")
    return d


def twisted_scaling_order(R: AdditivePoly, m: int) -> int:
    """d_{R,m} = d_R / gcd(d_R, m)."""
    if m < 1 or m % R.p == 0:
        raise ValidationError("m must be a positive integer prime to p")
    d = scaling_order(R)
    return d // gcd(d, m)


def _pairing_terms(R: AdditivePoly) -> list:
    """The pairing of R as f_R(x, y) = -sum T_k(c x^{p^i} y^{p^j}) over the
    returned (k, c, i, j), with T_k = sum_{t<k} Frob^t.

    This is -sum_{i<e} T_{e-i}(a_i x^{p^i} y) - T_e(x R(y)): the terms
    (e - i, a_i, i, 0) for a_i != 0 with i < e and (e, a_i, 0, i) for
    a_i != 0, the two i = 0 terms collected into one. Every view of the
    pairing below reads this list. f_R is biadditive, and on ker E its
    antisymmetrization omega takes values in the prime field.
    """
    e = R.p_degree
    terms = {}
    for i, a in enumerate(R.coeffs):
        if a:
            if i < e:
                terms[e - i, i, 0] = a
            terms[e, 0, i] = terms.get((e, 0, i), R.base.zero()) + a
    return [(k, c, i, j) for (k, i, j), c in terms.items() if k and c]


def _orbit(w, k):
    """w, w^p, ..., w^{p^{k-1}}: the summands of T_k(w)."""
    out = [w]
    for _ in range(k - 1):
        out.append(out[-1].frobenius(1))
    return out


def pairing_poly(R: AdditivePoly) -> dict:
    """The pairing expanded into monomials: {(a, b): c} for c x^{p^a} y^{p^b}."""
    out = {}
    for k, c, i, j in _pairing_terms(R):
        for t, w in enumerate(_orbit(c, k)):
            out[i + t, j + t] = out.get((i + t, j + t), R.base.zero()) - w
    return {ab: c for ab, c in out.items() if c}


def pairing_value(R: AdditivePoly, x, y):
    """f_R(x, y) for x, y in one extension of R's base, one T_k per distinct k."""
    F = x.field
    if y.field is not F:
        raise ValidationError("pairing arguments in different fields")
    sums = {}
    for k, c, i, j in _pairing_terms(R.embed_to(F)):
        sums[k] = sums.get(k, F.zero()) + c * x.frobenius(i) * y.frobenius(j)
    return -sum((w for k, s in sums.items() for w in _orbit(s, k)), F.zero())


def pairing_in_x(R: AdditivePoly, y) -> AdditivePoly:
    """x -> f_R(x, y), an additive polynomial over y's field."""
    F = y.field
    terms = _pairing_terms(R.embed_to(F))
    out = [F.zero()] * max((i + k for k, _, i, _ in terms), default=0)
    for k, c, i, j in terms:
        for t, w in enumerate(_orbit(c * y.frobenius(j), k)):
            out[i + t] = out[i + t] - w
    return AdditivePoly(F, out)


def omega_values(R: AdditivePoly, elems) -> dict:
    """Coordinates of omega(x_i, x_j) = f_R(x_i, x_j) - f_R(x_j, x_i) for
    i < j, for any elements of R's base.

    A term with i = j is symmetric and cancels. Every other term carries its
    Frobenius in one slot; grouped by k and by that slot, a group adds
    -T_k(u(x) v(y) - u(y) v(x)) with (u, v) = (sum c Frob^i, id), or
    (id, sum c Frob^j) for the y slot. Each difference is
    (u(x) - u(y))(v(x) + v(y)) - u(x) v(x) + u(y) v(y), so once the
    diagonal products are made a pair costs one product per group, and the
    sum over the groups is one product with the stacked matrix
    [T_{k_1} ... T_{k_t}].
    """
    F = R.base
    p = F.p
    # a group lists its terms c Frob^h as indices into keys, so a c x^{p^h}
    # that two groups carry is made once per element
    groups, keys = {}, {}
    for k, c, i, j in _pairing_terms(R):
        if i != j:
            groups.setdefault((k, j > 0), []).append(keys.setdefault((c, i + j), len(keys)))
    scaled = [[c * x.frobenius(h) for c, h in keys] for x in elems]
    sides = []
    for (k, y_slot), g in groups.items():
        w = [sum((s[t] for t in g), F.zero()) for s in scaled]
        sides.append((k, elems, w) if y_slot else (k, w, elems))
    stacked = [[] for _ in range(F.n)]
    for k, _, _ in sides:
        T = reduce(lambda A, B: mat_add(A, B, p), (F.frobenius_matrix(t) for t in range(k)))
        for row, t in zip(stacked, T):
            row.extend(t)

    # omega(x_i, x_j) = S(D_i - D_j - P_ij) with P_ij = (u(x_i) - u(x_j))(v(x_i) + v(x_j))
    # and D_i = u(x_i) v(x_i) per group, S the stacked matrix
    diag = [[(u[i] * v[i]).coords for _, u, v in sides] for i in range(len(elems))]
    out = {}
    for i, di in enumerate(diag):
        for j in range(i + 1, len(elems)):
            vec = []
            for (_, u, v), a, b in zip(sides, di, diag[j]):
                P = ((u[i] - u[j]) * (v[i] + v[j])).coords
                vec += [x - y - z for x, y, z in zip(a, b, P)]
            out[i, j] = mat_vec(stacked, vec, p)
    return out


def pairing_identity_residual(R: AdditivePoly) -> dict:
    """Exact residual of f^p - f + x^{p^e} E(y) - x R(y) - y R(x); empty iff the
    defining identity of the pairing holds term for term."""
    e = R.p_degree
    table = pairing_poly(R)
    acc = {}

    def put(a, b, c):
        key = (a, b)
        cur = acc.get(key)
        acc[key] = c if cur is None else cur + c
        if acc[key].is_zero():
            del acc[key]

    for (a, b), c in table.items():
        put(a + 1, b + 1, c.frobenius(1))
        put(a, b, -c)
    E = e_poly(R)
    for j, c in enumerate(E.coeffs):
        if not c.is_zero():
            put(e, j, c)  # + x^{p^e} E(y)
    for i, a in enumerate(R.coeffs):
        if not a.is_zero():
            put(0, i, -a)  # - x R(y)
            put(i, 0, -a)  # - y R(x)
    return acc


def mu_scaling(f: AdditivePoly, d: int) -> bool:
    """Does f(ax) = a f(x) hold for every a in mu_d?

    Equivalent to d | p^i - 1 at every index with a nonzero coefficient;
    d | 0 counts as true for the i = 0 slot.
    """
    if d < 1 or gcd(d, f.p) != 1:
        raise ValidationError("d must be a positive integer prime to p")
    if f.is_zero():
        return True
    for i, c in enumerate(f.coeffs):
        if not c.is_zero() and (f.p ** i - 1) % d != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Kernels and kernel polynomials


def kernel_poly(basis) -> AdditivePoly:
    """Monic additive polynomial vanishing exactly on the F_p-span of basis.

    Built as a tower of degree-p steps x^p - v^{p-1} x, v the image of the
    next basis element under the steps so far, which keeps the result
    visibly additive. An element the earlier steps kill lies in the span of
    the earlier ones, so the list is not a basis.
    """
    basis = list(basis)
    if not basis:
        raise ValidationError("a kernel polynomial needs a nonempty basis")
    F = basis[0].field
    f = AdditivePoly.identity(F)
    for b in basis:
        v = evaluate(f, b)
        if v.is_zero():
            raise ValidationError("the basis elements are not F_p-independent")
        f = compose(AdditivePoly(F, [-(v ** (F.p - 1)), F.one()]), f)
    return f


def kernel_basis(f: AdditivePoly, field) -> list:
    """Canonical F_p-basis (as field elements) of ker(f) inside the given field."""
    M = f.operator_matrix(field)
    rows = nullspace(M, field.p)
    return [field.el(r) for r in rows]


def split_kernel(f: AdditivePoly, degree: int):
    """F_{p^degree} and the canonical basis of ker(f) in it; the field must
    hold the whole kernel."""
    field = ff.field_create(f.p, degree)
    basis = kernel_basis(f, field)
    if len(basis) != f.p_degree:
        raise TheoremViolation("ambient does not split the additive polynomial")
    return field, basis


def splitting_degree(f: AdditivePoly) -> int:
    """Least k with ker(f) fully inside F_{q^k}, q the base field order.

    With f's Frobenius right factors peeled, g is separable, so its kernel
    lies in F_{q^k} exactly when g right-divides tau^{n0 k} - 1, tau = x^p
    and q = p^{n0}: when r_N = tau^N mod_right g is 1 at N = n0 k. One
    remainder sequence serves every k, as r_{N+1} = (tau o r_N) mod_right g
    is a shift, a Frobenius on each coefficient and one reduction step by
    the monic g; no extension field is built.
    """
    if f.is_zero():
        raise ValidationError("zero polynomial")
    # kernel size is blind to Frobenius right-factors
    coeffs = list(f.coeffs)
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
    if len(coeffs) == 1:
        return 1
    F, n0 = f.base, f.base.n
    lead_inv = coeffs[-1].inverse()
    low = [c * lead_inv for c in coeffs[:-1]]  # tau^e = -sum low_i tau^i mod g
    one = [F.one()] + [F.zero()] * (len(low) - 1)
    r, cap = one, 10000
    for N in range(1, n0 * cap):
        top = r[-1].frobenius(1)
        r = [F.zero()] + [c.frobenius(1) for c in r[:-1]]
        if not top.is_zero():
            r = [x - top * y for x, y in zip(r, low)]
        if N % n0 == 0 and r == one:
            return N // n0
    raise AmbientGuardError(
        f"the splitting degree is at least {cap}, so the kernel lies past the structural cap F_p^{ff.MAX_DEGREE}"
    )


# ---------------------------------------------------------------------------
# Reducedness, rationality, primality


def is_reduced(f: AdditivePoly) -> bool:
    """Separable kernel: nonzero coefficient in the x slot."""
    if f.is_zero():
        raise ValidationError("zero polynomial")
    return not f.coeff(0).is_zero()


def is_rational_over(f, sub_degree: int) -> bool:
    """Are all coefficients fixed by the degree-sub_degree subfield Frobenius?"""
    if isinstance(f, AdditivePoly):
        coeffs = f.coeffs
    else:
        coeffs = list(f)
    return all(c.frobenius(sub_degree) == c for c in coeffs)


def is_prime(f: AdditivePoly) -> bool:
    """No nontrivial decomposition f = f1 o f2 over the base field.

    Frobenius right-factors are peeled first; for reduced f every minimal
    right factor over the base is the kernel polynomial of a base-Frobenius
    stable subspace of ker(f), so cyclic-submodule witnesses decide the
    question. Each witness is confirmed by exact right division.
    """
    if f.is_zero():
        raise ValidationError("zero polynomial")
    if f.p_degree == 0:
        raise ValidationError("degree p^0 polynomials are units for composition")
    if f.coeff(0).is_zero():
        return f.p_degree == 1
    base = f.base
    p = base.p
    n = f.p_degree
    if n == 1:
        return True
    field, basis = split_kernel(f, base.n * splitting_degree(f))
    B = [b.as_vector() for b in basis]
    # base-field Frobenius action in kernel coordinates
    S = action_matrix(B, lambda x: x.frobenius(base.n), field)
    f_amb = f.embed_to(field)
    for v in line_points([[e] for e in identity(n)], p):
        rows = cyclic_closure(v, [S], p)
        if len(rows) < n:
            f2 = kernel_poly(field.el(r) for r in mat_mul(rows, B, p))
            if not right_divmod(f_amb, f2)[1].is_zero():
                raise TheoremViolation("kernel-subspace factor must divide exactly")
            if not is_rational_over(f2, base.n):
                raise TheoremViolation("stable subspace must give a rational factor")
            return False
    return True


def action_matrix(B, fn, field):
    """Matrix (columns) of a linear map in the row-basis coordinates of B.

    B must be in reduced echelon form, as nullspace returns it: then the
    coordinates of a vector of the span are its entries at the pivots of B,
    and an image is in the span iff those coordinates give it back.
    """
    p = field.p
    R, pivots = rref(B, p)
    if R != [list(row) for row in B]:
        raise ValidationError("the basis must be in reduced row echelon form")
    Bt = transpose(B)
    cols = []
    for row in B:
        v = list(fn(field.el(row)).coords)
        c = [v[k] for k in pivots]
        if mat_vec(Bt, c, p) != v:
            raise TheoremViolation("space not stable under the action")
        cols.append(c)
    return transpose(cols)


# ---------------------------------------------------------------------------
# Coefficient transport (additive polys in p^t-powers <-> classical polys)


def coeff_transport(f: AdditivePoly, t: int):
    """Map sum c_i x^{p^{ti}} to the classical polynomial sum c_i y^i.

    Requires base degree | t and every exponent of f a multiple of t. Under
    those hypotheses composition goes to ordinary multiplication, so primality
    of f matches irreducibility of the image; the image of an E-polynomial
    with full scaling order is additionally reciprocal.
    """
    base = f.base
    if t < 1 or t % base.n != 0:
        raise ValidationError("transport needs base degree | t")
    if f.is_zero():
        return []
    out = [base.zero()] * (f.p_degree // t + 1)
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        if i % t != 0:
            raise ValidationError(f"exponent p^{i} is not a power of p^{t}")
        out[i // t] = c
    return out


def coeff_transport_inverse(coeffs, t: int) -> AdditivePoly:
    """Inverse map sum c_i y^i to sum c_i x^{p^{ti}}."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValidationError("empty polynomial")
    base = coeffs[0].field
    if t < 1 or t % base.n != 0:
        raise ValidationError("transport needs base degree | t")
    out = [base.zero()] * ((len(coeffs) - 1) * t + 1)
    for i, c in enumerate(coeffs):
        out[i * t] = c
    return AdditivePoly(base, out)


def is_reciprocal(coeffs) -> bool:
    """c_i == c_{r-i} for a classical coefficient list."""
    cs = poly.trim(list(coeffs))
    return all(cs[i] == cs[len(cs) - 1 - i] for i in range(len(cs)))


def format_additive_poly(f: AdditivePoly) -> str:
    """Text form "q=p^f; coeffs=[c_0; c_1; ...; c_e]" with elements in the
    field text form."""
    base = f.base
    body = "; ".join(ff.format_element(c) for c in f.coeffs)
    return f"q={base.p}^{base.n}; coeffs=[{body}]"


def parse_additive_poly_text(s: str) -> AdditivePoly:
    """Inverse of format_additive_poly."""
    s = s.strip()
    try:
        head, body = s.split(";", 1)
        if not head.startswith("q="):
            raise ValidationError("missing q=")
        p, n = (int(t) for t in head[2:].split("^"))
        body = body.strip()
        if not (body.startswith("coeffs=[") and body.endswith("]")):
            raise ValidationError("missing coeffs=[...]")
        inner = body[len("coeffs=") + 1 : -1]
    except Exception as exc:
        raise ValidationError(f"malformed additive polynomial {s!r}") from exc
    base = ff.field_create(p, n)
    coeffs = []
    if inner.strip():
        for tok in inner.split(";"):
            c = ff.parse_element(tok)
            if c.field is not base:
                raise ValidationError("coefficient field differs from the declared base")
            coeffs.append(c)
    return AdditivePoly(base, coeffs)


def classical_is_irreducible(coeffs) -> bool:
    """Irreducibility of a classical polynomial over its coefficient field."""
    cs = poly.trim(list(coeffs))
    if len(cs) < 3:
        return len(cs) == 2
    F = cs[0].field
    q, n, x = F.order, len(cs) - 1, [F.zero(), F.one()]
    if poly.sub(poly.powmod(x, q ** n, cs), x):
        return False
    for ell in prime_factors(n):
        h = poly.powmod(x, q ** (n // ell), cs)
        if len(poly.gcd(cs, poly.sub(h, x))) != 1:
            return False
    return True


__all__ = [
    "AdditivePoly",
    "evaluate",
    "compose",
    "right_divmod",
    "skew_right_gcd",
    "e_poly",
    "scaling_order",
    "twisted_scaling_order",
    "pairing_poly",
    "pairing_value",
    "pairing_in_x",
    "omega_values",
    "pairing_identity_residual",
    "mu_scaling",
    "kernel_poly",
    "kernel_basis",
    "split_kernel",
    "action_matrix",
    "splitting_degree",
    "is_reduced",
    "is_rational_over",
    "is_prime",
    "coeff_transport",
    "coeff_transport_inverse",
    "is_reciprocal",
    "classical_is_irreducible",
    "format_additive_poly",
    "parse_additive_poly_text",
]
