"""wildinv: exact invariants of wildly ramified data attached to additive
polynomials over finite fields.

The library computes, for a prime power q = p^f, a nonzero additive
polynomial R over F_q and a positive integer m prime to p: the conductor and
ramification profile of the attached extension, the symplectic module on the
kernel of the E-polynomial with a primitivity verdict from one scan of its
cyclic submodules, explicit descent data when the verdict is imprimitive,
root-system classification for monomials, and exact point counts / zeta data
of the curve y^p - y = x R(x).
"""

from .addpoly import (
    AdditivePoly,
    compose,
    e_poly,
    evaluate,
    is_prime,
    is_reduced,
    kernel_poly,
    mu_scaling,
    pairing_poly,
    pairing_value,
    right_divmod,
    scaling_order,
    twisted_scaling_order,
)
from .counts import (
    check_supersingular,
    curve_summary,
    genus,
    point_count,
    psi_l_polynomial,
    zeta_numerator,
)
from .errors import AmbientGuardError, TheoremViolation, ValidationError
from .ff import (
    Field,
    FieldElement,
    embed,
    field_create,
    frobenius,
    multiplicative_order,
    norm_trace,
    roots_of_unity,
)
from .invariants import (
    full_report,
    herbrand_function,
    primitivity,
    ramification_profile,
    swan_conductor,
    valuations,
)
from .quotient import InductionData, iterated_quotient, verify_morphism
from .rootsys import RootSystem, belongs, classify, invariants as root_invariants, monomial_root_system
from .sympmod import (
    SymplecticModule,
    build,
    build_pair,
    completely_anisotropic,
    decomposition_witness,
    direct_sum,
    minimal_imprimitive_unramified_degree,
    perp,
    restrict_frobenius,
)

__version__ = "0.1.0"

# The group law is on no report's path, so `espgroup` loads on first use of
# it or of one of these names (PEP 562).
_ESPGROUP_NAMES = ("GroupContext", "analyze", "commutator", "multiply")


def __getattr__(name):
    if name == "espgroup" or name in _ESPGROUP_NAMES:
        # `from . import espgroup` would ask this hook for the name again
        import wildinv.espgroup as espgroup

        return espgroup if name == "espgroup" else getattr(espgroup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
