"""The symplectic module of an additive polynomial.

The kernel of the E-polynomial carries the antisymmetrized pairing (values in
the prime field), a scaling action by a canonical root of unity, and the base
field Frobenius. Complete anisotropy of this module is decided by one scan
over the cyclic submodules generated by one vector per F_p(alpha)-line: T is
multiplication by the scaling root alpha, so F_p[T] is the field F_p(alpha)
and a cyclic submodule is a union of such lines. A witness of
isotropy is then turned into an exact skew decomposition of the E-polynomial,
checked by right division, rationality over the base and scaling
equivariance; a failed check is raised, never papered over.
"""

import itertools
from math import gcd, lcm
from operator import mul

from . import addpoly, ff, linalg
from .ambient import build_context, required_degree
from .errors import TheoremViolation, ValidationError
from .numth import multiplicative_order

# all_stable_submodules walks the whole subspace lattice, so only p^dim up to this
ORACLE_BOUND = 4000


class SymplecticModule:
    """The symplectic module (p, dim, gram, T, S, d, r) on column coordinates.

    T is multiplication by the canonical primitive scaling root, S the base
    field Frobenius; the recorded sigma-order r never enters stability
    tests. A module built from (R, m) and its unramified restrictions carry
    the context of its kernel space, so coordinates map to field elements;
    a direct sum has context None.
    """

    __slots__ = ("p", "dim", "gram", "T", "S", "d", "r", "context")

    def __init__(self, p, dim, gram, T, S, d, r, context):
        self.p = p
        self.dim = dim
        self.gram = gram
        self.T = T
        self.S = S
        self.d = d
        self.r = r
        self.context = context

    @property
    def _kernel_context(self):
        if self.context is None:
            raise ValidationError("a direct sum has no kernel context, so no field elements")
        return self.context

    @property
    def ambient(self):
        return self._kernel_context.ambient

    @property
    def basis(self):
        return self._kernel_context.kernel_elems

    def element(self, coords):
        return self._kernel_context.kernel_vector_to_element(coords)

    def coords(self, x):
        return self._kernel_context.element_to_kernel_vector(x)

    def zero_module(self):
        return self.dim == 0

    def submodule(self, rows):
        return Submodule(self, rows)


class Submodule:
    """Row-span subspace; isotropy is recomputed on build, stability on read."""

    __slots__ = ("module", "rows", "isotropic")

    def __init__(self, module, rows):
        p = module.p
        rows, _ = linalg.rref(rows, p)
        self.module = module
        self.rows = rows
        G = linalg.mat_mul(rows, module.gram, p)
        self.isotropic = not any(any(linalg.mat_vec(G, r, p)) for r in rows)

    @property
    def t_stable(self):
        return _stable_under(self.rows, self.module.T, self.module.p)

    @property
    def s_stable(self):
        return _stable_under(self.rows, self.module.S, self.module.p)

    @property
    def dim(self):
        return len(self.rows)

    def field_elements(self):
        """Basis of the subspace as actual field elements."""
        return [self.module.element(r) for r in self.rows]

    def signature(self):
        return tuple(map(tuple, self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.module is other.module
            and self.signature() == other.signature()
        )

    def __hash__(self):
        return hash(self.signature())


def _stable_under(rows, M, p):
    """Is the span of the rref rows stable under the column action of M?"""
    return linalg.rank(rows + [linalg.mat_vec(M, r, p) for r in rows], p) == len(rows)


def build(R: addpoly.AdditivePoly, m: int) -> SymplecticModule:
    """Construct the module for (R, m); the zero module when e = 0."""
    return _module_from_context(build_context(R, m))


def _module_from_context(context) -> SymplecticModule:
    p = context.ambient.p
    dim = context.dim
    if dim == 0:
        return SymplecticModule(p, 0, [], [], [], context.d_Rm, 1, context)
    gram = context.gram(context.kernel_elems)
    B, F = context.kernel_rows, context.ambient
    T = addpoly.action_matrix(B, lambda x: context.alpha * x, F)
    S = addpoly.action_matrix(B, lambda x: x.frobenius(context.base.n), F)
    _check_module_axioms(gram, T, S, context)
    # S^k = 1 exactly when ker E lies in F_{q^k}, so S has order s, the
    # splitting degree of E over F_q
    if linalg.mat_pow(S, context.splitting_degree, p) != linalg.identity(dim):
        raise TheoremViolation("the q-Frobenius must fix ker E at the splitting degree of E")
    r = lcm(context.splitting_degree, multiplicative_order(context.base.order, context.d_Rm))
    return SymplecticModule(p, dim, gram, T, S, context.d_Rm, r, context)


def _check_module_axioms(gram, T, S, context):
    p = context.ambient.p
    if linalg.rank(gram, p) != len(gram):
        raise TheoremViolation("pairing must be nondegenerate on the kernel space")
    for A in (T, S):
        if linalg.mat_mul(linalg.transpose(A), linalg.mat_mul(gram, A, p), p) != gram:
            raise TheoremViolation("actions must preserve the pairing")
    q = context.base.order
    lhs = linalg.mat_mul(linalg.mat_mul(S, T, p), linalg.mat_inv(S, p), p)
    if lhs != linalg.mat_pow(T, q, p):
        raise TheoremViolation("twisting relation S T S^-1 = T^q fails")


# ---------------------------------------------------------------------------
# Anisotropy


def _scaling_blocks(T, p):
    """A T-cyclic basis: blocks v, Tv, ..., T^{a-1} v, each v the first
    standard basis vector not yet spanned.

    a and mu are read from T itself: the closure of e_0 under T and the
    relation T^a e_0 = sum c_i T^i e_0 that closes it. Raises unless mu is
    irreducible, T^a v satisfies the same relation on every block (so each
    block is T-stable and mu(T) = 0: mu is the minimal polynomial of T and
    F_p[T] = F_p[x]/mu is a field), and the blocks form a basis.
    """
    unit = linalg.identity(len(T))
    powers = [unit[0]]
    for _ in unit:
        powers.append(linalg.mat_vec(T, powers[-1], p))
    # the pivots of the powers as columns are 0, ..., a - 1, and column a
    # holds the c_i
    R, pivots = linalg.rref(linalg.transpose(powers), p)
    c = [row[len(pivots)] for row in R]
    if not ff._fp_is_irreducible([-x % p for x in c] + [1], p):
        raise TheoremViolation("the scaling action must have an irreducible minimal polynomial")
    blocks, span, pivots = [], [], []
    for k, e in enumerate(unit):
        # a reduced echelon span holds e_k iff its row at pivot k is e_k
        if k in pivots and span[pivots.index(k)] == e:
            continue
        block = [e]
        for _ in c[1:]:
            block.append(linalg.mat_vec(T, block[-1], p))
        closing = [sum(map(mul, c, col)) % p for col in zip(*block)]
        if linalg.mat_vec(T, block[-1], p) != closing:
            raise TheoremViolation("each block v, Tv, ... must be T-stable, T acting through mu")
        blocks.append(block)
        span, pivots = linalg.rref(span + block, p)
    # every e_k lies in the span by construction; a basis needs no overlap
    if len(c) * len(blocks) != len(unit):
        raise TheoremViolation("the T-cyclic blocks must form a basis of the module")
    return blocks


def _least_isotropic_cyclic(M, blocks=None):
    """Least (dim, signature) totally isotropic cyclic submodule, or None.

    One vector per F_p(alpha)-line is visited. C(v), the closure of v under
    T and S, is T-stable, so it contains u(T) v for every u in F_p[T]; for a
    unit u, v = u^{-1}(T) u(T) v likewise lies in C(u(T) v), so
    C(u(T) v) = C(v). As F_p[T] is a field, every nonzero vector is such a
    multiple of exactly one vector of linalg.line_points over the T-cyclic
    blocks, and the scan sees every cyclic submodule of the module. A closure
    is abandoned at its first non-isotropic pair, since it can then never be
    the witness. blocks, if given, are _scaling_blocks(M.T, M.p), which
    modules sharing T can share.
    """
    if M.zero_module():
        return None
    p = M.p
    mats = [M.T, M.S]
    best = None
    if blocks is None:
        blocks = _scaling_blocks(M.T, p)
    for coords in linalg.line_points(blocks, p):
        rows = linalg.cyclic_closure(coords, mats, p, gram=M.gram)
        if rows is not None:
            key = (len(rows), rows)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    sub = Submodule(M, best[1])
    if not sub.isotropic:
        raise TheoremViolation("cyclic scan returned a non-isotropic witness")
    return sub


def completely_anisotropic(M):
    """(verdict, witness): witness is a least-dimension nonzero totally
    isotropic stable submodule, or None.

    Scanning cyclic submodules is complete: a nonzero isotropic submodule
    contains the cyclic closure of each of its nonzero vectors, and a
    least-dimension witness is inclusion-minimal, hence cyclic. The closures
    of v and u(T) v agree for every unit u of F_p[T] = F_p(alpha), so one
    generator per F_p(alpha)-line reaches them all: (p^dim - 1)/(p^a - 1)
    closures, a = [F_p(alpha) : F_p], where a scan of projective points
    would take (p^dim - 1)/(p - 1).
    """
    w = _least_isotropic_cyclic(M)
    return (w is None), w


def all_stable_submodules(M):
    """Exhaustive oracle: every nonzero proper T,S-stable subspace.

    Walks the full subspace lattice, so only usable for small coordinate
    spaces; kept as an independent check on the cyclic scan. Each subspace is
    visited once, as its reduced row echelon matrix: a set of pivot columns,
    then every value of the entries right of a pivot outside pivot columns.
    """
    p, dim = M.p, M.dim
    if p ** dim > ORACLE_BOUND:
        raise ValidationError("subspace lattice too large for the exhaustive oracle")
    out = []
    for rank in range(1, dim):
        for pivots in itertools.combinations(range(dim), rank):
            free = [
                (i, j) for i, c in enumerate(pivots) for j in range(c + 1, dim) if j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == c) for j in range(dim)] for c in pivots]
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                sub = Submodule(M, rows)
                if sub.t_stable and sub.s_stable:
                    out.append(sub)
    return sorted(out, key=Submodule.signature)


def decomposition_witness(M: SymplecticModule):
    """A decomposition E = f1 o f2 with f2 scaling-equivariant and isotropic
    kernel, or None. The kernel of f2 is the witness of the cyclic scan; the
    factors are verified by exact right division, rationality and the scaling
    congruence.
    """
    found = _least_isotropic_cyclic(M)
    if found is None:
        return None
    f1, f2 = _decomposition_from_submodule(M, found)
    return f1, f2, found


def _decomposition_from_submodule(M: SymplecticModule, sub: Submodule):
    ctx = M.context
    f2 = addpoly.kernel_poly(sub.field_elements())
    if not addpoly.is_rational_over(f2, ctx.base.n):
        raise TheoremViolation("stable isotropic kernel gave a non-rational factor")
    if not addpoly.mu_scaling(f2, ctx.d_Rm):
        raise TheoremViolation("stable isotropic kernel gave a non-equivariant factor")
    f1, rem = addpoly.right_divmod(ctx.E_amb, f2)
    if not rem.is_zero():
        raise TheoremViolation("kernel polynomial of an isotropic submodule must divide exactly")
    if addpoly.compose(f1, f2) != ctx.E_amb:
        raise TheoremViolation("quotient and kernel polynomial do not compose back to E")
    return f1, f2


def perp(M, sub: Submodule) -> Submodule:
    """Orthogonal complement; dimensions add up by nondegeneracy."""
    if M.zero_module():
        return M.submodule([])
    if sub.dim == 0:
        return M.submodule(linalg.identity(M.dim))
    rows = linalg.nullspace(linalg.mat_mul(sub.rows, M.gram, M.p), M.p)
    out = M.submodule(rows)
    if out.dim + sub.dim != M.dim:
        raise TheoremViolation("orthogonal complement dimensions must add up to the module's")
    return out


# ---------------------------------------------------------------------------
# Direct sums and Frobenius restriction


def build_pair(R1, m1, R2, m2):
    """Two modules in one common ambient field, so their scaling roots agree;
    each is built once, at the lcm of the degrees the two need."""
    if addpoly.twisted_scaling_order(R1, m1) != addpoly.twisted_scaling_order(R2, m2):
        raise ValidationError("direct summands need equal twisted scaling orders")
    deg = lcm(required_degree(R1, m1), required_degree(R2, m2))
    return tuple(_module_from_context(build_context(R, m, degree=deg)) for R, m in ((R1, m1), (R2, m2)))


def direct_sum(M1: SymplecticModule, M2: SymplecticModule) -> SymplecticModule:
    """Block-diagonal sum of two modules sharing one ambient and one scaling root.

    A sum has no kernel context to compare, so it cannot be a summand again.
    """
    if M1.p != M2.p:
        raise ValidationError("direct sum needs a common prime field")
    if M1.d != M2.d:
        raise ValidationError("direct sum needs equal twisted scaling orders")
    if M1.dim and M2.dim:
        if M1.context is None or M2.context is None:
            raise ValidationError("direct sums do not nest: each summand must be built from (R, m)")
        if M1.ambient is not M2.ambient:
            raise ValidationError("build the summands with build_pair first")
        if M1.context.alpha != M2.context.alpha:
            raise ValidationError("summands disagree on the canonical scaling root")
    n1, n2 = M1.dim, M2.dim
    gram, T, S = (
        [list(row) + [0] * n2 for row in A] + [[0] * n1 + list(row) for row in B]
        for A, B in ((M1.gram, M2.gram), (M1.T, M2.T), (M1.S, M2.S))
    )
    return SymplecticModule(M1.p, n1 + n2, gram, T, S, M1.d, lcm(M1.r, M2.r), None)


def restrict_frobenius(M: SymplecticModule, t: int) -> SymplecticModule:
    """Module seen over the degree-t unramified extension: S becomes S^t."""
    if t < 1:
        raise ValidationError("t must be >= 1")
    S = linalg.mat_pow(M.S, t, M.p) if M.dim else M.S
    return SymplecticModule(M.p, M.dim, M.gram, M.T, S, M.d, M.r // gcd(M.r, t), M.context)


def minimal_imprimitive_unramified_degree(M: SymplecticModule, *, _anisotropic=False) -> int:
    """Least t >= 1 such that the degree-t restriction stops being anisotropic.

    Only meaningful for twisted scaling order 1 or 2, where prime-field lines
    are scaling-stable; finite because the line through any kernel vector is
    Frobenius-stable over the field that vector generates. The least such
    field, the least orbit length of a nonzero vector under S, is the least
    t with ker(S^t - 1) != 0, and it bounds the search. Every restriction
    keeps T, so the T-cyclic blocks of the scan are built once. After a
    scan of M itself found no witness, _anisotropic starts the search at 2.
    """
    if M.d > 2:
        raise ValidationError("criterion applies only when the scaling order is 1 or 2")
    if M.zero_module():
        raise ValidationError("the zero module has no nonzero vector to restrict to")
    bound, St = 1, M.S
    while not linalg.fixed_space(St, M.p):
        bound, St = bound + 1, linalg.mat_mul(St, M.S, M.p)
    blocks = _scaling_blocks(M.T, M.p)
    for t in range(2 if _anisotropic else 1, bound + 1):
        if _least_isotropic_cyclic(restrict_frobenius(M, t), blocks) is not None:
            return t
    raise TheoremViolation("restriction bound reached without an isotropic line")
