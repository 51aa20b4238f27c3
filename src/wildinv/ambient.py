"""One working field per computation.

Every group/module computation over (R, m) happens inside a single field
F_{p^M} chosen large enough for the kernel of the E-polynomial and the scaling
roots of unity; M is the lcm of the required degrees, or a multiple of it
the caller gives (espgroup's Artin-Schreier coordinates). A size guard
rejects p^M beyond 2^40, which is far above anything the constructions here
need.
"""

from math import lcm

from . import addpoly, ff
from .errors import AmbientGuardError, TheoremViolation, ValidationError
from .linalg import coords_in_rows
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
        return self.gram([x, y])[0][1]

    def gram(self, elems):
        """Matrix of omega on elems, at one field product per pair and group.

        The values come from addpoly.omega_values, each checked to be a
        scalar on every coordinate. omega is alternating: the diagonal is
        zero and the entries below it are the negated ones above.
        """
        n = len(elems)
        if not n:
            return []
        F = elems[0].field
        if any(x.field is not F for x in elems):
            raise ValidationError("pairing arguments in different fields")
        gram = [[0] * n for _ in range(n)]
        R = self.R_amb if F is self.ambient else self.R.embed_to(F)
        for (i, j), w in addpoly.omega_values(R, elems).items():
            gram[i][j] = _scalar(w)
            gram[j][i] = (-gram[i][j]) % F.p
        return gram


def _scalar(coords) -> int:
    if any(coords[1:]):
        raise TheoremViolation("pairing values must be scalars")
    return coords[0]


def check_p_degree(e: int):
    """0 <= 2e <= ff.MAX_DEGREE: ker E has p^{2e} elements, so every field
    that holds it has degree at least 2e over F_p."""
    if e < 0:
        raise ValidationError("e must be >= 0")
    if 2 * e > ff.MAX_DEGREE:
        raise ValidationError(f"e = {e} is too large: ker E needs a field of degree 2e > {ff.MAX_DEGREE}")


def validate_input(R: addpoly.AdditivePoly, m: int):
    """The one admission check of an input (R, m), for every caller."""
    if R.is_zero():
        raise ValidationError("R must be a nonzero additive polynomial")
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if m % R.p == 0:
        raise ValidationError(f"m = {m} must be prime to p = {R.p}")
    if R.p == 2 and R.p_degree == 0:
        raise ValidationError("the pair (p, e) = (2, 0) is excluded")
    check_p_degree(R.p_degree)


def build_context(R: addpoly.AdditivePoly, m: int, degree: int = None) -> Context:
    """Assemble the ambient field and canonical data for (R, m).

    The ambient is F_{p^degree} when a degree is given (it must split the
    E-polynomial and hold the scaling roots), else the least such field.
    """
    validate_input(R, m)
    base = R.base
    p = base.p
    d_R = addpoly.scaling_order(R)
    d_Rm = addpoly.twisted_scaling_order(R, m)
    E = addpoly.e_poly(R)
    s = _guarded_splitting_degree(R, E)
    M = _least_degree(R, d_R, s) if degree is None else degree
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
        e=R.p_degree,
        d_R=d_R,
        d_Rm=d_Rm,
        splitting_degree=s,
        kernel_elems=kernel_elems,
        kernel_rows=[b.as_vector() for b in kernel_elems],
        alpha=alpha,
    )


def required_degree(R: addpoly.AdditivePoly, m: int) -> int:
    """The ambient degree build_context uses when no degree is given."""
    validate_input(R, m)
    return _least_degree(R, addpoly.scaling_order(R), _guarded_splitting_degree(R, addpoly.e_poly(R)))


def _guarded_splitting_degree(R, E):
    """addpoly.splitting_degree(E), searched only when ker E fits the size
    guard: it has p^{2e} elements, and the ambient holds it."""
    p, two_e = R.p, 2 * R.p_degree
    if two_e * (p.bit_length() - 1) > SIZE_GUARD_BITS or p ** two_e > 2 ** SIZE_GUARD_BITS:
        raise AmbientGuardError(f"ker E has {p}^{two_e} elements, beyond the 2^{SIZE_GUARD_BITS} size guard")
    return addpoly.splitting_degree(E)


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

