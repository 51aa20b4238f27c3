"""One working field per computation.

Every group/module computation over (R, m) happens inside a single field
F_{p^M} chosen large enough for the kernel of the E-polynomial, the scaling
roots of unity, and (when asked) the Artin-Schreier coordinates. M is the
lcm of the required degrees; a size guard rejects p^M beyond 2^40, which is
far above anything the constructions here need.
"""

from math import lcm

from . import addpoly, ff
from .errors import AmbientGuardError, TheoremViolation, ValidationError
from .linalg import coords_in_rows
from .numth import multiplicative_order

SIZE_GUARD_BITS = 40


class Context:
    """Ambient field together with the kernel space and scaling roots of R."""

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
        "kernel_elems",
        "kernel_rows",
        "mu",
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
        out = self.ambient.zero()
        for c, b in zip(coords, self.kernel_elems):
            if c % self.ambient.p:
                out = out + b * int(c)
        return out

    def element_to_kernel_vector(self, x):
        c = coords_in_rows(self.kernel_rows, x.coords, self.ambient.p)
        if c is None:
            raise ValidationError("element is not in the kernel space")
        return c

    def omega(self, x, y) -> int:
        """Antisymmetrized pairing, a prime-field scalar."""
        v = self.pairing.eval(x, y) - self.pairing.eval(y, x)
        if any(v.coords[1:]):
            raise TheoremViolation("pairing values must be scalars")
        return v.coords[0]


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
    M = required_degree(R, m) if degree is None else degree
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

    mu = ff.roots_of_unity(ambient, d_R)
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
        kernel_elems=kernel_elems,
        kernel_rows=[b.as_vector() for b in kernel_elems],
        mu=mu,
        alpha=alpha,
        pairing=pairing,
    )


def required_degree(R: addpoly.AdditivePoly, m: int) -> int:
    """The ambient degree build_context would use before any gamma extension."""
    validate_input(R, m)
    d_R = addpoly.scaling_order(R)
    s = addpoly.splitting_degree(addpoly.e_poly(R))
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
