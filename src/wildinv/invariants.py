"""Per-input invariant bundle: conductor, ramification data, valuations, the
primitivity verdict with its witness or descent datum, root-system data for
monomials, and optionally the curve summary.

The primitivity verdict comes from one anisotropy scan. Its witness is
checked by an exact skew decomposition of the E-polynomial and, for p odd,
by a descent datum whose defining identity, rationality and equivariance
are checked as it is built; a failed check surfaces as a loud error rather
than a report.
"""

import math
import sys
from fractions import Fraction

from . import addpoly, ambient, counts, ff, numth, quotient, rootsys, sympmod
from .errors import TheoremViolation, ValidationError


def swan_conductor(p: int, e: int, d_R: int, m: int) -> Fraction:
    """m (p^e + 1) / d_R; an integer since d_R divides p^e + 1.

    A conductor that would have more decimal digits than Python converts to
    a string (sys.get_int_max_str_digits(), 0 for no limit) is refused before
    p^e is formed, on the estimate e log10 p + log10 m - log10 d_R of its
    log10, and exactly once it is formed."""
    if not numth.is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if e < 0:
        raise ValidationError("e must be >= 0")
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if m % p == 0:
        raise ValidationError(f"m = {m} must be prime to p = {p}")
    if d_R < 1:
        raise ValidationError("d_R must divide p^e + 1")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    too_long = f"the Swan conductor would have more than {digits} digits"
    if digits and e * math.log10(p) + math.log10(m) - math.log10(d_R) > digits + 1:
        raise ValidationError(too_long)
    if (p ** e + 1) % d_R != 0:
        raise ValidationError("d_R must divide p^e + 1")
    out = Fraction(m * (p ** e + 1), d_R)
    if out.denominator != 1:
        raise TheoremViolation("the Swan conductor must be an integer")
    if digits:
        # 10^digits has floor(digits log2 10) + 1 bits, so the bit length
        # settles the comparison unless it is within 2 of digits log2 10
        bits, bound = out.numerator.bit_length(), digits * math.log2(10)
        if bits > bound + 2 or (bits > bound - 2 and out >= 10 ** digits):
            raise ValidationError(too_long)
    return out


def _herbrand_pieces(p: int, e: int, d_R: int, m: int):
    """Breakpoints 0 < j1 < j2 and the four (slope, intercept) affine pieces."""
    breaks = (Fraction(0), Fraction(m, d_R), Fraction((p ** e + 1) * m, p ** e * d_R))
    pieces = [
        (1, 0),
        (d_R, 0),
        (p ** (2 * e) * d_R, -(p ** (2 * e) - 1) * m),
        (p ** (2 * e + 1) * d_R, -(p ** e + 1) * (p ** (e + 1) - 1) * m),
    ]
    return breaks, pieces


def herbrand_function(p: int, e: int, d_R: int, m: int, t) -> Fraction:
    """The four-piece change-of-numbering function of the attached extension."""
    t = Fraction(t)
    breaks, pieces = _herbrand_pieces(p, e, d_R, m)
    slope, intercept = pieces[sum(t > b for b in breaks)]
    return slope * t + intercept


class RamificationProfile:
    """Upper-numbering jumps with subgroup labels, and the piecewise data."""

    __slots__ = ("jumps", "subgroups", "slopes")

    def __init__(self, jumps, subgroups, slopes):
        self.jumps = jumps
        self.subgroups = subgroups
        self.slopes = slopes

    def to_json(self):
        return {
            "jumps": [_frac_json(j) for j in self.jumps],
            "subgroups": self.subgroups,
            "slopes": [_frac_json(s) for s in self.slopes],
        }


def ramification_profile(p: int, e: int, d_R: int, m: int) -> RamificationProfile:
    breaks, pieces = _herbrand_pieces(p, e, d_R, m)
    # adjacent pieces agree exactly at each breakpoint
    for bp, (a0, b0), (a1, b1) in zip(breaks, pieces, pieces[1:]):
        if a0 * bp + b0 != a1 * bp + b1:
            raise TheoremViolation("profile must be continuous")
    return RamificationProfile(
        jumps=[Fraction(-1), *breaks],
        subgroups=["full", "inertia", "wild_inertia", "wild_center", "trivial"],
        slopes=[Fraction(a) for a, _ in pieces],
    )


def valuations(p: int, e: int, d_R: int, m: int) -> dict:
    """Depths of the three coordinate generators of the attached extension."""
    return {
        "alpha": Fraction(1, d_R),
        "beta": Fraction(-m, p ** (2 * e) * d_R),
        "gamma": Fraction(-m * (p ** e + 1), p ** (2 * e + 1) * d_R),
    }


# ---------------------------------------------------------------------------


class PrimitivityResult:
    """kind is "primitive", "imprimitive" or "primitive_unramified_unstable";
    witness is a sympmod.Submodule, induction a quotient.InductionData and
    decomposition the pair (f1, f2), each None when the kind has none."""

    __slots__ = ("kind", "module", "witness", "induction", "decomposition", "unramified_degree")

    def __init__(self, kind, module, witness=None, induction=None, decomposition=None,
                 unramified_degree=None):
        self.kind = kind
        self.module = module
        self.witness = witness
        self.induction = induction
        self.decomposition = decomposition
        self.unramified_degree = unramified_degree


def primitivity(R: addpoly.AdditivePoly, m: int) -> PrimitivityResult:
    """Verdict over the base field from one anisotropy scan.

    A witness of isotropy is turned into a skew decomposition E = f1 o f2,
    checked by exact right division, rationality and scaling equivariance.
    When p is odd the descent datum is also constructed; iterated_quotient
    checks it with verify_morphism before it returns. For p = 2 the witness
    is reported without a descent datum.
    """
    M = sympmod.build(R, m)
    found = sympmod.decomposition_witness(M)
    if found is None:
        if M.d <= 2 and M.dim > 0:
            t = sympmod.minimal_imprimitive_unramified_degree(M, _anisotropic=True)
            return PrimitivityResult(
                kind="primitive_unramified_unstable", module=M, unramified_degree=t
            )
        return PrimitivityResult(kind="primitive", module=M)
    f1, f2, witness = found
    induction = None
    if R.p != 2:
        induction = quotient.iterated_quotient(witness)
    return PrimitivityResult(
        kind="imprimitive",
        module=M,
        witness=witness,
        induction=induction,
        decomposition=(f1, f2),
    )


# ---------------------------------------------------------------------------
# Full report


class Report:
    __slots__ = (
        "input",
        "degree",
        "d_R",
        "d_Rm",
        "swan",
        "valuations",
        "profile",
        "verdict",
        "module_summary",
        "root_system",
        "curve",
    )

    def __init__(self, input, degree, d_R, d_Rm, swan, valuations, profile, verdict,
                 module_summary, root_system, curve=None):
        self.input = input
        self.degree = degree
        self.d_R = d_R
        self.d_Rm = d_Rm
        self.swan = swan
        self.valuations = valuations
        self.profile = profile
        self.verdict = verdict
        self.module_summary = module_summary
        self.root_system = root_system
        self.curve = curve

    def to_json(self):
        out = {
            "input": self.input,
            "degree": self.degree,
            "d_R": self.d_R,
            "d_Rm": self.d_Rm,
            "swan": _frac_json(self.swan),
            "valuations": {k: _frac_json(v) for k, v in self.valuations.items()},
            "ramification": self.profile.to_json(),
            "module": self.module_summary,
            "verdict": _verdict_json(self.verdict),
            "root_system": self.root_system,
            "curve": self.curve,
        }
        return out


def _frac_json(x) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _poly_json(f: addpoly.AdditivePoly) -> dict:
    return {
        "q": f"{f.base.p}^{f.base.n}",
        "coeffs": [ff.format_element(c) for c in f.coeffs],
    }


def _project_poly(f: addpoly.AdditivePoly, base) -> addpoly.AdditivePoly:
    """Rewrite a provably base-rational polynomial over the base field itself."""
    if f.base is base:
        return f
    if not addpoly.is_rational_over(f, base.n):
        raise TheoremViolation("descent data must be base-rational")
    return addpoly.AdditivePoly(base, [ff.project_to_subfield(c, base) for c in f.coeffs])


def _verdict_json(v: PrimitivityResult) -> dict:
    out = {"kind": v.kind}
    base = v.module.context.base
    if v.unramified_degree is not None:
        out["unramified_degree"] = v.unramified_degree
    if v.witness is not None:
        out["witness_basis"] = [ff.format_element(x) for x in v.witness.field_elements()]
    if v.induction is not None:
        ind = v.induction
        out["induction"] = {
            "r": _poly_json(_project_poly(ind.r, base)),
            "R1": _poly_json(_project_poly(ind.R1, base)),
            "Delta": [
                [k, ff.format_element(ff.project_to_subfield(c, base))]
                for k, c in quotient.nonzero_terms(ind.delta)
            ],
            "e_prime": ind.e_prime,
            "F_prime_degree": ind.index,
        }
    if v.decomposition is not None:
        f1, f2 = v.decomposition
        out["decomposition"] = {
            "f1": _poly_json(_project_poly(f1, base)),
            "f2": _poly_json(_project_poly(f2, base)),
        }
    return out


def full_report(
    p: int,
    f: int,
    R_coeffs: list,
    m: int,
    curve: bool = False,
    max_k: int = None,
    oracle: bool = False,
) -> Report:
    """Assemble every invariant for one input (p, f, R, m).

    R_coeffs is the low-to-high list of coefficients in F_{p^f}, either
    FieldElements or coordinate tuples/ints. The curve section is optional
    (it is the costliest part); oracle enables exhaustive cross-checks.
    """
    base = ff.field_create(p, f)
    coeffs = []
    for c in R_coeffs:
        if isinstance(c, ff.FieldElement):
            if c.field is not base:
                raise ValidationError("R coefficient outside F_{p^f}")
            coeffs.append(c)
        elif isinstance(c, int):
            coeffs.append(base.constant(c))
        else:
            coeffs.append(base.el(c))
    R = addpoly.AdditivePoly(base, coeffs)
    ambient.validate_input(R, m)
    if len(coeffs) != len(R.coeffs):
        raise ValidationError("leading coefficient a_e must be nonzero")
    if max_k is not None and max_k < 0:
        raise ValidationError(f"max_k must be >= 0, got {max_k}")
    e = R.p_degree
    if curve:
        counts.check_curve_work(R, max_k)

    d_R = addpoly.scaling_order(R)
    d_Rm = addpoly.twisted_scaling_order(R, m)
    sw = swan_conductor(p, e, d_R, m)
    prof = ramification_profile(p, e, d_R, m)
    if p ** e * prof.jumps[-1] != sw:
        raise TheoremViolation("conductor must match the extreme jump")
    verdict = primitivity(R, m)
    M = verdict.module

    if oracle and M.dim > 0 and M.p ** M.dim <= sympmod.ORACLE_BOUND:
        subs = sympmod.all_stable_submodules(M)
        oracle_fail = any(s.isotropic for s in subs)
        if oracle_fail != (verdict.kind == "imprimitive"):
            raise TheoremViolation("exhaustive oracle disagrees with the cyclic scan")

    module_summary = {
        "dim": M.dim,
        "d": M.d,
        "sigma_order": M.r,
        "gram": [list(row) for row in M.gram],
        "anisotropic": verdict.kind != "imprimitive",
        "ambient": f"{p}^{M.ambient.n}" if M.dim else None,
    }

    root_system = {"applicable": False, "reason": "R is not a monomial"}
    if e >= 1 and all(c.is_zero() for c in R.coeffs[:-1]):
        try:
            W, root_system = rootsys.monomial_summary(p, f, e, R.coeffs[-1], m)
            root_system.update(
                applicable=True,
                belongs=rootsys.belongs(W, M.d, M.r),
                matches_module=rootsys.matches_module(M, W) if M.dim else False,
            )
        except ValidationError as exc:
            root_system = {"applicable": False, "reason": str(exc)}

    curve_data = None
    if curve:
        # the module's Frobenius checks every polar radical
        curve_data = counts.curve_summary(R, max_k=max_k, frobenius=M.S)

    return Report(
        input={
            "p": p,
            "f": f,
            "q": f"{p}^{f}",
            "m": m,
            "e": e,
            "R": _poly_json(R),
        },
        degree=p ** e,
        d_R=d_R,
        d_Rm=d_Rm,
        swan=sw,
        valuations=valuations(p, e, d_R, m),
        profile=prof,
        verdict=verdict,
        module_summary=module_summary,
        root_system=root_system,
        curve=curve_data,
    )
