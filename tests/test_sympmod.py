import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildinv import ff, invariants, sympmod
from wildinv.addpoly import AdditivePoly, compose, pairing_value
from wildinv.ambient import build_context, required_degree
from wildinv.errors import TheoremViolation, ValidationError
from wildinv.ff import field_create
from wildinv.linalg import cyclic_closure, identity, mat_pow, rank, rref
from wildinv.numth import multiplicative_order
from wildinv.sympmod import (
    Submodule,
    all_stable_submodules,
    build,
    build_pair,
    completely_anisotropic,
    decomposition_witness,
    direct_sum,
    minimal_imprimitive_unramified_degree,
    perp,
    restrict_frobenius,
)

from test_linalg import _projective_points


@pytest.fixture(scope="module")
def m_q9():
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    return build(R, 1)


def test_zero_module_for_e0():
    F3 = field_create(3, 1)
    M = build(AdditivePoly.from_ints(F3, [1]), 1)
    assert M.zero_module()
    ok, wit = completely_anisotropic(M)
    assert ok and wit is None


def test_build_q9(m_q9):
    M = m_q9
    assert M.dim == 2 and M.d == 4
    assert rank(M.gram, 3) == 2
    # gram consistent with pointwise pairing on all basis pairs
    for i, bi in enumerate(M.basis):
        for j, bj in enumerate(M.basis):
            assert M.context.omega(bi, bj) == np.array(M.gram)[i, j]
            assert M.context.omega(bi, bj) == (-M.context.omega(bj, bi)) % 3
        assert M.context.omega(bi, bi) == 0


def test_actions_preserve_gram(m_q9):
    from wildinv.linalg import mat_inv

    M = m_q9
    p = M.p
    T, S, gram = np.array(M.T), np.array(M.S), np.array(M.gram)
    assert ((T.T @ gram @ T) % p == gram).all()
    assert ((S.T @ gram @ S) % p == gram).all()
    q = M.context.base.order
    assert ((S @ T @ np.array(mat_inv(M.S, p))) % p == np.array(mat_pow(M.T, q, p))).all()


def test_splitting_found_automatically_for_q3():
    # q = 3, R = x^3: kernel not inside F_3; the working field grows to fit
    F3 = field_create(3, 1)
    M = build(AdditivePoly.from_ints(F3, [0, 1]), 1)
    assert M.dim == 2
    assert M.ambient.n == 4


def test_anisotropy_examples(m_q9):
    ok, wit = completely_anisotropic(m_q9)
    assert ok and wit is None
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    M2 = build(R, 2)
    ok2, wit2 = completely_anisotropic(M2)
    assert not ok2
    assert wit2.dim == 1 and wit2.isotropic and wit2.t_stable and wit2.s_stable
    F3 = field_create(3, 1)
    M3 = build(AdditivePoly.from_ints(F3, [0, 1]), 1)
    assert completely_anisotropic(M3)[0]


def test_decomposition_route(m_q9):
    # prime E gives none
    assert decomposition_witness(m_q9) is None
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    M2 = build(R, 2)
    out = decomposition_witness(M2)
    assert out is not None
    f1, f2, sub = out
    assert compose(f1, f2) == M2.context.E_amb
    assert f2.p_degree == sub.dim == 1


def test_route_equivalence_small_sweep():
    # for all nonzero R over F_3 with e = 1 and several m: the scan verdict
    # matches the exhaustive lattice oracle, and a decomposition exists
    # exactly when the module is imprimitive, with the scan witness as kernel
    F3 = field_create(3, 1)
    for a0 in range(3):
        for a1 in range(1, 3):
            R = AdditivePoly.from_ints(F3, [a0, a1])
            for m in (1, 2, 4):
                M = build(R, m)
                anis, wit = completely_anisotropic(M)
                assert anis == (not any(s.isotropic for s in all_stable_submodules(M)))
                dec = decomposition_witness(M)
                if anis:
                    assert dec is None
                else:
                    f1, f2, sub = dec
                    assert compose(f1, f2) == M.context.E_amb
                    assert sub.signature() == wit.signature()


def _lattice_walk_stable_submodules(M):
    # reference for all_stable_submodules: span every set of nonzero vectors
    # (deduplicated by rref signature) and keep the stable proper ones
    p, dim = M.p, M.dim
    vectors = [v for v in itertools.product(range(p), repeat=dim) if any(v)]
    spans = {}

    def rec(start, rows):
        R, _ = rref(np.array(rows, dtype=np.int64), p)
        R = np.array(R, dtype=np.int64).reshape(-1, dim)
        sig = tuple(map(tuple, R.tolist()))
        if sig in spans:
            return
        spans[sig] = R
        if R.shape[0] < dim:
            for k in range(start, len(vectors)):
                rec(k + 1, rows + [vectors[k]])

    for k in range(len(vectors)):
        rec(k + 1, [vectors[k]])
    subs = [M.submodule(R) for sig, R in sorted(spans.items()) if 0 < R.shape[0] < dim]
    return [s for s in subs if s.t_stable and s.s_stable]


def test_stable_submodule_oracle_matches_lattice_walk():
    # the oracle visits each subspace once as an rref matrix; the walk
    # reaches each one from spanning sets
    F3 = field_create(3, 1)
    mods = [build(AdditivePoly.from_ints(F3, [a0, 1]), m) for a0 in range(3) for m in (1, 2, 4)]
    mods.append(build(AdditivePoly.from_ints(F3, [0, 1, 1]), 1))
    mods.append(build(AdditivePoly.from_ints(field_create(2, 1), [0, 1, 1]), 1))
    assert {M.dim for M in mods} == {2, 4}
    for M in mods:
        got = [s.signature() for s in all_stable_submodules(M)]
        assert got == [s.signature() for s in _lattice_walk_stable_submodules(M)]


def test_exhaustive_oracle_agreement():
    # full sweep of e = 1 over F_3 with every valid m, plus q = 9 cases and
    # one e = 2 sample: lattice walk and cyclic scan must always agree
    F3 = field_create(3, 1)
    F9 = field_create(3, 2)
    mods = []
    for a0 in range(3):
        for a1 in range(1, 3):
            for m in (1, 2, 4):
                mods.append(build(AdditivePoly.from_ints(F3, [a0, a1]), m))
    mods.append(build(AdditivePoly(F9, [F9.zero(), F9.one()]), 1))
    mods.append(build(AdditivePoly(F9, [F9.zero(), F9.one()]), 2))
    mods.append(build(AdditivePoly.from_ints(F3, [0, 0, 1]), 5))
    for M in mods:
        subs = all_stable_submodules(M)
        oracle = any(s.isotropic for s in subs)
        cyc_ok, wit = completely_anisotropic(M)
        assert oracle == (not cyc_ok)
        if wit is not None:
            # the reported witness is minimal against the full lattice
            best = min(s.dim for s in subs if s.isotropic)
            assert wit.dim == best


def test_perp(m_q9):
    M = m_q9
    full = M.submodule(np.eye(M.dim, dtype=np.int64))
    assert perp(M, full).dim == 0
    zero = M.submodule(np.zeros((0, M.dim), dtype=np.int64))
    assert perp(M, zero).dim == M.dim
    line = Submodule(M, cyclic_closure([1, 0], [M.T, M.S], M.p))
    pp = perp(M, line)
    assert pp.dim + line.dim == M.dim
    assert perp(M, pp).signature() == line.signature()


def test_direct_sum_with_zero_is_original(m_q9):
    F3 = field_create(3, 1)
    Z = build(AdditivePoly.from_ints(F3, [1]), 1)
    # give the zero summand a compatible scaling order by twisting m
    # (d = 2 for e = 0); instead check shape-level behaviour with equal d
    M2 = build(AdditivePoly(field_create(3, 2), [field_create(3, 2).zero(), field_create(3, 2).one()]), 2)
    Z2 = build(AdditivePoly.from_ints(F3, [1]), 1)
    assert Z2.d == 2 == M2.d
    DS = direct_sum(M2, Z2)
    assert DS.dim == M2.dim
    assert completely_anisotropic(DS)[0] == completely_anisotropic(M2)[0]


def test_direct_sums_do_not_nest():
    # a sum has no kernel context, so using it as a summand is refused by name
    F5 = field_create(5, 1)
    A, B = build_pair(AdditivePoly.from_ints(F5, [0, 1]), 1, AdditivePoly.from_ints(F5, [0, 2]), 7)
    with pytest.raises(ValidationError, match="do not nest"):
        direct_sum(direct_sum(A, B), A)
    with pytest.raises(ValidationError, match="do not nest"):
        direct_sum(A, direct_sum(A, B))


def x3_sum_with_witness():
    """The sum of two copies of x^3 over F_9 at m = 2, and its isotropic
    witness: a module with no kernel context and a submodule of it."""
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    DS = direct_sum(*build_pair(R, 2, R, 2))
    ok, wit = completely_anisotropic(DS)
    assert not ok and DS.context is None
    return DS, wit


def test_a_direct_sum_has_no_field_elements():
    DS, wit = x3_sum_with_witness()
    with pytest.raises(ValidationError, match="direct sum"):
        wit.field_elements()
    for read in (lambda: DS.ambient, lambda: DS.basis, lambda: DS.coords(field_create(3, 2).one())):
        with pytest.raises(ValidationError, match="direct sum"):
            read()


def test_decomposition_witness_refuses_a_direct_sum():
    DS, _ = x3_sum_with_witness()
    with pytest.raises(ValidationError, match="direct sum"):
        decomposition_witness(DS)


def test_build_pair_builds_each_summand_once_at_the_common_degree(monkeypatch):
    # x^3 + x^9 and x^3 + 2 x^9 over F_3 need F_3^18 and F_3^9: each summand
    # is built once, at 18, and is the module of its context there
    F3 = field_create(3, 1)
    R1, R2 = AdditivePoly.from_ints(F3, [0, 1, 1]), AdditivePoly.from_ints(F3, [0, 1, 2])
    assert (required_degree(R1, 1), required_degree(R2, 1)) == (18, 9)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_context(*args, **kwargs)

    monkeypatch.setattr(sympmod, "build_context", counted)
    pair = build_pair(R1, 1, R2, 1)
    assert len(calls) == 2
    monkeypatch.undo()
    for M, R in zip(pair, (R1, R2)):
        want = sympmod._module_from_context(build_context(R, 1, 18))
        assert M.ambient is want.ambient and M.basis == want.basis
        assert (M.p, M.dim, M.gram, M.T, M.S, M.d, M.r) == (want.p, want.dim, want.gram, want.T, want.S, want.d, want.r)


def test_legendre_configuration():
    # e = f = 1 pairs: anisotropy of the sum tracks the Legendre symbol of -a
    for p in (3, 5):
        Fp = field_create(p, 1)
        m2 = {3: 5, 5: 7}[p]
        for a in range(1, p):
            R1 = AdditivePoly.from_ints(Fp, [0, 1])
            R2 = AdditivePoly.from_ints(Fp, [0, a])
            A, B = build_pair(R1, 1, R2, m2)
            assert A.d == B.d == p + 1
            DS = direct_sum(A, B)
            expect = pow(-a % p, (p - 1) // 2, p) == p - 1
            assert completely_anisotropic(DS)[0] == expect


def test_restrict_frobenius_identity(m_q9):
    M1 = restrict_frobenius(m_q9, 1)
    assert (np.array(M1.S) == np.array(m_q9.S)).all()
    assert completely_anisotropic(M1)[0] == completely_anisotropic(m_q9)[0]


def test_minimal_unramified_degree():
    F3 = field_create(3, 1)
    M = build(AdditivePoly.from_ints(F3, [0, 1]), 2)  # d = 2, primitive
    assert completely_anisotropic(M)[0]
    t = minimal_imprimitive_unramified_degree(M)
    assert t == 2
    assert not completely_anisotropic(restrict_frobenius(M, t))[0]
    # already failing module reports 1
    F9 = field_create(3, 2)
    M2 = build(AdditivePoly(F9, [F9.zero(), F9.one()]), 2)
    assert not completely_anisotropic(M2)[0]
    assert minimal_imprimitive_unramified_degree(M2) == 1
    with pytest.raises(ValidationError):
        minimal_imprimitive_unramified_degree(build(AdditivePoly(F9, [F9.zero(), F9.one()]), 1))


def test_ambient_guard():
    # x^9 + x^27 over F_3 needs a degree-30 working field: past the 2^40 guard
    from wildinv.errors import AmbientGuardError

    F3 = field_create(3, 1)
    R = AdditivePoly.from_ints(F3, [0, 0, 1, 1])
    with pytest.raises(AmbientGuardError):
        build(R, 1)


def test_p2_known_isotropic_subspace():
    # x^2 + x^8 over F_4: the constant subfield sits isotropically inside the
    # kernel space, so the verdict is imprimitive with a dim-2 witness
    # (scaling order 3 rules out stable lines)
    from wildinv.addpoly import evaluate
    from wildinv.ff import embed

    F4 = field_create(2, 2)
    R = AdditivePoly(F4, [F4.zero(), F4.one(), F4.zero(), F4.one()])
    M = build(R, 1)
    assert M.dim == 6 and M.d == 3
    ok, wit = completely_anisotropic(M)
    assert not ok and wit.dim == 2
    amb = M.ambient
    f4 = [embed(x, amb) for x in F4.elements()]
    for x in f4:
        assert evaluate(M.context.E_amb, x).is_zero()
    rows = np.array([M.coords(x) for x in f4 if not x.is_zero()], dtype=np.int64)
    sub = M.submodule(rows)
    assert sub.dim == 2 and sub.isotropic and sub.t_stable and sub.s_stable


def test_canonical_generator_choice_is_immaterial():
    # different generators of the scaling group give the same verdict
    F9 = field_create(3, 2)
    R = AdditivePoly(F9, [F9.zero(), F9.one()])
    M = build(R, 1)
    from wildinv.ff import element_order
    from wildinv.addpoly import action_matrix
    from wildinv.sympmod import Submodule

    ctx = M.context
    others = [z for z in ff.roots_of_unity(ctx.ambient, ctx.d_R) if element_order(z) == ctx.d_Rm and z != ctx.alpha]
    for z in others:
        T2 = action_matrix(ctx.kernel_rows, lambda x: z * x, ctx.ambient)

        class Twin:
            p = M.p
            dim = M.dim
            gram = M.gram
            T = T2
            S = M.S

            def zero_module(self):
                return False

            def submodule(self, rows):
                return Submodule(self, rows)

        assert completely_anisotropic(Twin())[0] == completely_anisotropic(M)[0]


def _naive_closure(M, v):
    """Cyclic closure by re-reducing [rows; rows T^t; rows S^t] until it stops growing."""
    p = M.p
    T, S = np.array(M.T), np.array(M.S)
    rows = np.array(rref(np.array([v], dtype=np.int64), p)[0])
    while True:
        nxt = np.array(rref(np.vstack([rows, rows @ T.T % p, rows @ S.T % p]), p)[0])
        if nxt.shape[0] == rows.shape[0]:
            return nxt
        rows = nxt


def _naive_least_isotropic(M):
    """Reference scan: every nonzero vector, full flags on every closure.

    Also checks that the incremental closure returns the same canonical rows.
    """
    best = None
    for v in itertools.product(range(M.p), repeat=M.dim):
        if not any(v):
            continue
        sub = M.submodule(_naive_closure(M, v))
        assert sub.t_stable and sub.s_stable
        assert Submodule(M, cyclic_closure(v, [M.T, M.S], M.p)).signature() == sub.signature()
        if sub.isotropic:
            key = (sub.dim, sub.signature())
            if best is None or key < best:
                best = key
    return best


WITNESS_CASES = [
    (2, 1, [0, 1], 1),
    (2, 1, [1, 1], 1),
    (2, 1, [0, 0, 1], 1),
    (2, 1, [0, 0, 1], 5),
    (2, 1, [0, 1, 1], 1),
    (2, 2, [0, 1], 3),
    (2, 2, [0, 0, 1], 1),
    (2, 2, [0, 0, 1], 5),
    (3, 1, [0, 1], 2),
    (3, 1, [1, 1], 1),
    (3, 1, [0, 0, 1], 1),
    (3, 1, [0, 0, 1], 5),
    (3, 1, [1, 0, 1], 1),
    (3, 1, [1, 1, 1], 2),
    (3, 2, [0, 1], 1),
    (3, 2, [0, 1], 2),
    (3, 2, [0, 0, 1], 1),
    (5, 1, [0, 1], 1),
    (5, 1, [0, 1], 3),
    (5, 1, [1, 1], 1),
    (5, 1, [0, 0, 1], 2),
    (5, 1, [0, 0, 1], 13),
    (5, 2, [0, 1], 3),
]


@pytest.mark.parametrize("p,f,ints,m", WITNESS_CASES)
def test_scan_matches_naive_reference(p, f, ints, m):
    # projective points, incremental closures and the early exit leave the
    # verdict and the least (dim, signature) witness unchanged
    M = build(AdditivePoly.from_ints(field_create(p, f), ints), m)
    best = _naive_least_isotropic(M)
    anis, wit = completely_anisotropic(M)
    assert anis == (best is None)
    if wit is not None:
        assert (wit.dim, wit.signature()) == best


def test_scan_matches_naive_reference_on_sums_and_restrictions():
    F3 = field_create(3, 1)
    A, B = build_pair(AdditivePoly.from_ints(F3, [0, 1]), 1, AdditivePoly.from_ints(F3, [0, 1]), 5)
    R = build(AdditivePoly.from_ints(F3, [0, 1]), 2)
    for N in (direct_sum(A, B), restrict_frobenius(R, 2)):
        best = _naive_least_isotropic(N)
        wit = sympmod._least_isotropic_cyclic(N)
        assert (wit is None) == (best is None)
        if wit is not None:
            assert (wit.dim, wit.signature()) == best


def test_primitivity_scans_once(monkeypatch):
    calls = []
    scan = sympmod._least_isotropic_cyclic

    def counting(M):
        calls.append(M)
        return scan(M)

    monkeypatch.setattr(sympmod, "_least_isotropic_cyclic", counting)
    F9 = field_create(3, 2)
    x3 = AdditivePoly(F9, [F9.zero(), F9.one()])
    for m, kind in ((2, "imprimitive"), (1, "primitive")):
        calls.clear()
        res = invariants.primitivity(x3, m)
        assert res.kind == kind
        assert len(calls) == 1


def test_stability_flags_are_computed_on_read(m_q9):
    # no line of the q = 9 module is stable under the scaling action
    line = m_q9.submodule([[1, 0]])
    assert not line.t_stable and line.s_stable
    # x^9 over F_3 with m = 5: T = -1 fixes every line, Frobenius moves e_1
    M = build(AdditivePoly.from_ints(field_create(3, 1), [0, 0, 1]), 5)
    sub = M.submodule([[1, 0, 0, 0]])
    assert sub.t_stable and not sub.s_stable


def test_decomposition_check_raises(monkeypatch):
    # the composition check is a raise, so it survives python -O
    F9 = field_create(3, 2)
    M = build(AdditivePoly(F9, [F9.zero(), F9.one()]), 2)
    _, wit = completely_anisotropic(M)
    divmod_ = sympmod.addpoly.right_divmod

    def wrong_quotient(f, g):
        q, r = divmod_(f, g)
        return (AdditivePoly.identity(q.base) if f is M.context.E_amb else q), r

    monkeypatch.setattr(sympmod.addpoly, "right_divmod", wrong_quotient)
    with pytest.raises(TheoremViolation):
        sympmod._decomposition_from_submodule(M, wit)


def test_perp_dimension_check_raises(m_q9, monkeypatch):
    line = m_q9.submodule([[1, 0]])
    monkeypatch.setattr(
        sympmod.linalg, "nullspace", lambda A, p: np.zeros((0, m_q9.dim), dtype=np.int64)
    )
    with pytest.raises(TheoremViolation):
        perp(m_q9, line)


def test_omega_scalar_check_raises(m_q9, monkeypatch):
    # Context.omega's check that the pairing is a scalar is a raise, so it
    # survives python -O. omega reads R_amb: scaling it by the generator g
    # of the ambient scales omega by g, which is no scalar on a kernel pair
    # with omega != 0
    ctx = m_q9.context
    assert ctx.ambient.n > 1
    b0, b1 = ctx.kernel_elems
    assert ctx.omega(b0, b1) != 0
    monkeypatch.setattr(ctx, "R_amb", ctx.R_amb.scale(ctx.ambient.gen()))
    with pytest.raises(TheoremViolation, match="scalars"):
        ctx.omega(b0, b1)


@pytest.mark.parametrize("p,f,ints,m", WITNESS_CASES)
def test_gram_matches_the_pointwise_pairing(p, f, ints, m):
    # the gram comes from the grouped partial traces of omega_values; the
    # reference evaluates f_R itself on each order of one pair
    M = build(AdditivePoly.from_ints(field_create(p, f), ints), m)
    R = M.context.R
    for i, x in enumerate(M.basis):
        for j, y in enumerate(M.basis):
            w = (pairing_value(R, x, y) - pairing_value(R, y, x)).coords
            assert not any(w[1:]) and M.gram[i][j] == w[0]


def _orbit_walk_bound(M):
    # the former bound: walk every nonzero kernel element through the base
    # field Frobenius until it comes back, and keep the least orbit length
    q_deg = M.context.base.n
    bound = None
    for coords in itertools.product(range(M.p), repeat=M.dim):
        if not any(coords):
            continue
        x = M.element(coords)
        t, y = 1, x.frobenius(q_deg)
        while y != x:
            t, y = t + 1, y.frobenius(q_deg)
        bound = t if bound is None else min(bound, t)
    return bound


def test_minimal_unramified_degree_matches_the_orbit_walk():
    # every module of scaling order <= 2 in a small sweep: the bound from
    # ker(S^t - 1) is the least orbit length, and the degree it bounds is the
    # least t whose restriction has an isotropic stable line
    from wildinv.errors import AmbientGuardError
    from wildinv.linalg import fixed_space, mat_pow

    mods = []
    for p, f in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
        F = field_create(p, f)
        for ints in ([0, 1], [1, 1], [0, 0, 1], [1, 0, 1], [0, 1, 1]):
            if p ** (2 * (len(ints) - 1)) > 625:
                continue
            R = AdditivePoly.from_ints(F, ints)
            for m in range(1, 9):
                if m % p and sympmod.addpoly.twisted_scaling_order(R, m) <= 2:
                    try:
                        mods.append(build(R, m))
                    except AmbientGuardError:
                        continue
    assert len(mods) >= 20 and {M.d for M in mods} == {1, 2}
    for M in mods:
        bound = _orbit_walk_bound(M)
        t = next(t for t in range(1, bound + 1) if fixed_space(mat_pow(M.S, t, M.p), M.p))
        assert t == bound
        want = next(t for t in range(1, bound + 1) if not completely_anisotropic(restrict_frobenius(M, t))[0])
        assert minimal_imprimitive_unramified_degree(M) == want


def _subspace_count(p, n):
    """Number of subspaces of F_p^n: the sum of the Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


# the exhaustive oracle walks every subspace of F_p^dim, so dim is kept to
# at most this many subspaces (dim 4 for p = 2, 3 and 5, dim 2 for p = 7)
_ORACLE_SUBSPACES = 1200


def _max_e(p, used=0):
    return max(e for e in range(4) if _subspace_count(p, 2 * (used + e)) <= _ORACLE_SUBSPACES)


@st.composite
def _small_additive(draw, F, emax):
    p, f = F.p, F.n
    coord = st.lists(st.integers(0, p - 1), min_size=f, max_size=f)
    e = draw(st.integers(1, emax))
    lead = draw(coord)
    assume(any(lead))
    return AdditivePoly(F, [F.el(draw(coord)) for _ in range(e)] + [F.el(lead)])


@st.composite
def _small_modules(draw):
    """A module of a random small (p, f, R, m) with p^dim <= 4000, one of its
    unramified restrictions, or its direct sum with a second module of the
    same twisted scaling order."""
    from wildinv.addpoly import scaling_order, twisted_scaling_order
    from wildinv.errors import AmbientGuardError

    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, draw(st.integers(1, 2)))
    kind = draw(st.sampled_from(("module", "restriction") + ("sum",) * (_max_e(p) >= 2)))
    R1 = draw(_small_additive(F, _max_e(p) - (kind == "sum")))
    units = [m for m in range(1, 9) if m % p]
    try:
        if kind == "sum":
            R2 = draw(_small_additive(F, _max_e(p, R1.p_degree)))
            d_R2 = scaling_order(R2)
            # m1 = d_R1 gives twisted order 1, which every d_R2 allows
            m1 = draw(st.sampled_from(
                [m for m in units if d_R2 % twisted_scaling_order(R1, m) == 0] + [scaling_order(R1)]
            ))
            M = direct_sum(*build_pair(R1, m1, R2, d_R2 // twisted_scaling_order(R1, m1)))
        else:
            M = build(R1, draw(st.sampled_from(units)))
            if kind == "restriction":
                M = restrict_frobenius(M, draw(st.integers(1, 4)))
    except AmbientGuardError:
        assume(False)
    return M


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_small_modules())
def test_scan_verdict_and_witness_match_the_exhaustive_oracle(M):
    # a least-dimension isotropic stable submodule is cyclic, so the scan's
    # witness is the least (dim, rref rows) isotropic one of the whole lattice
    iso = [s for s in all_stable_submodules(M) if s.isotropic]
    anis, wit = completely_anisotropic(M)
    assert anis == (not iso)
    if iso:
        best = min(iso, key=lambda s: (s.dim, s.signature()))
        assert (wit.dim, wit.signature()) == (best.dim, best.signature())


# ---------------------------------------------------------------------------
# The scan by F_p(alpha)-lines against the former scan by projective points


def _projective_point_scan(M):
    """The former scan: one closure per F_p-line; least (dim, signature) or None."""
    best = None
    for v in _projective_points(M.p, M.dim):
        rows = cyclic_closure(v, [M.T, M.S], M.p, gram=M.gram)
        if rows is not None:
            key = (len(rows), tuple(map(tuple, rows)))
            if best is None or key < best:
                best = key
    return best


class _Twin:
    """A module whose T is the action of another primitive d-th root z."""

    def __init__(self, M, z):
        from wildinv.addpoly import action_matrix

        self.p, self.dim, self.gram, self.S, self.d = M.p, M.dim, M.gram, M.S, M.d
        self.T = action_matrix(M.context.kernel_rows, lambda x: z * x, M.context.ambient)

    def zero_module(self):
        return self.dim == 0

    def submodule(self, rows):
        return sympmod.Submodule(self, rows)


@contextlib.contextmanager
def _counting_closures():
    """Collect the start vector of every linalg.cyclic_closure call the scan makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return cyclic_closure(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sympmod.linalg, "cyclic_closure", counting)
        yield calls


# p^dim <= 3^6 keeps the reference scan to at most 364 projective points
# for p = 3 (2^8 = 256 vectors for p = 2)
_SCAN_VECTORS = 729


@st.composite
def _scan_modules(draw):
    """A module of a random small (p, f, R, m) with p^dim <= 729, one of its
    unramified restrictions, a build_pair direct sum, or a _Twin of it."""
    from wildinv.addpoly import scaling_order, twisted_scaling_order
    from wildinv.errors import AmbientGuardError
    from wildinv.ff import element_order

    p = draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, draw(st.integers(1, 2)))
    emax = max(e for e in range(1, 5) if p ** (2 * e) <= _SCAN_VECTORS)
    kind = draw(st.sampled_from(("module", "restriction", "twin") + ("sum",) * (emax >= 2)))
    # monomials have scaling order p^e + 1, so a > 1 for most m
    monomials = draw(st.booleans())

    def additive(emax):
        R = draw(_small_additive(F, emax))
        return AdditivePoly(F, [F.zero()] * R.p_degree + [R.coeffs[-1]]) if monomials else R

    R1 = additive(emax - (kind == "sum"))
    units = [m for m in range(1, 9) if m % p]
    try:
        if kind == "sum":
            R2 = additive(emax - R1.p_degree)
            d_R2 = scaling_order(R2)
            m1 = draw(st.sampled_from(
                [m for m in units if d_R2 % twisted_scaling_order(R1, m) == 0] + [scaling_order(R1)]
            ))
            return direct_sum(*build_pair(R1, m1, R2, d_R2 // twisted_scaling_order(R1, m1)))
        M = build(R1, draw(st.sampled_from(units)))
    except AmbientGuardError:
        assume(False)
    if kind == "restriction":
        return restrict_frobenius(M, draw(st.integers(1, 4)))
    if kind == "twin" and M.dim:
        ctx = M.context
        others = [z for z in ff.roots_of_unity(ctx.ambient, ctx.d_R) if element_order(z) == ctx.d_Rm and z != ctx.alpha]
        if others:
            return _Twin(M, draw(st.sampled_from(others)))
    return M


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(_scan_modules())
def test_line_scan_matches_the_projective_point_scan(M):
    # the closures of v and u(T) v agree for every unit u of F_p[T], so one
    # generator per F_p(alpha)-line finds the same least witness; an
    # anisotropic module costs one closure per line, (p^dim - 1)/(p^a - 1)
    # of them with a = [F_p(alpha) : F_p] = ord_d(p)
    want = _projective_point_scan(M)
    with _counting_closures() as calls:
        anis, wit = completely_anisotropic(M)
    assert anis == (want is None)
    if wit is not None:
        assert (wit.dim, wit.signature()) == want
    else:
        a = multiplicative_order(M.p, M.d)
        assert len(calls) == (M.p ** M.dim - 1) // (M.p ** a - 1)


def test_line_scan_matches_the_projective_point_scan_on_legendre_sums():
    # the sums of test_legendre_configuration have d = p + 1, so a = 2, and
    # half of them are isotropic: witnesses of dimension 2 spanned by F_{p^2}-lines
    seen = set()
    for p, m2 in ((3, 5), (5, 7)):
        Fp = field_create(p, 1)
        for a in range(1, p):
            A, B = build_pair(
                AdditivePoly.from_ints(Fp, [0, 1]), 1, AdditivePoly.from_ints(Fp, [0, a]), m2
            )
            M = direct_sum(A, B)
            assert multiplicative_order(p, M.d) == 2
            want = _projective_point_scan(M)
            anis, wit = completely_anisotropic(M)
            assert anis == (want is None)
            if wit is not None:
                assert (wit.dim, wit.signature()) == want
            seen.add(anis)
    assert seen == {True, False}


class _BareModule:
    """A duck-typed module over F_3 with a given T; the scan must refuse it
    before S or the pairing play any part."""

    def __init__(self, T):
        self.p, self.dim, self.T = 3, len(T), T
        self.S = identity(len(T))
        self.gram = [[0] * len(T) for _ in T]

    def zero_module(self):
        return False

    def submodule(self, rows):
        return sympmod.Submodule(self, rows)


def test_scaling_action_with_reducible_minimal_polynomial_gets_no_verdict():
    # diag(1, 2): e_0 gives mu = x - 1, which T does not satisfy on e_1
    with pytest.raises(TheoremViolation, match="acting through mu"):
        completely_anisotropic(_BareModule([[1, 0], [0, 2]]))
    # the swap: the closure of e_0 is closed by mu = x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(TheoremViolation, match="irreducible"):
        completely_anisotropic(_BareModule([[0, 1], [1, 0]]))


def test_block_that_is_not_T_stable_gets_no_verdict():
    # (1) + the companion matrix of x^2 + 1: e_0 gives a = 1, and T carries
    # the block {e_1} to e_2, outside it
    with pytest.raises(TheoremViolation, match="T-stable"):
        completely_anisotropic(_BareModule([[1, 0, 0], [0, 0, 2], [0, 1, 0]]))


@pytest.mark.parametrize("e", [5, 6])
def test_p3_monomial_scan_is_one_closure(e):
    # x^{3^e} over F_3: alpha has degree ord_d(3) = 2e = dim, so the whole
    # module is one F_p(alpha)-line and the scan makes one closure
    M = build(AdditivePoly.from_ints(field_create(3, 1), [0] * e + [1]), 1)
    assert M.dim == 2 * e == multiplicative_order(3, M.d)
    with _counting_closures() as calls:
        assert completely_anisotropic(M) == (True, None)
    assert len(calls) == 1


# the gram of `wildinv report -p 3 -f 1 -R 1 -e 6 -m 1` as the projective
# point scan produced it, one string of entries per row
P3E6_GRAM = [
    "010212012210", "200220202121", "000002000202", "110020200200",
    "210100211202", "101000021121", "010110022022", "200021100220",
    "110022100110", "121112012000", "210001112001", "021012100020",
]


def test_p3e6_full_report_keeps_the_recorded_verdict_and_gram():
    doc = invariants.full_report(3, 1, [0] * 6 + [1], 1).to_json()
    assert doc["verdict"] == {"kind": "primitive"}
    assert doc["module"]["anisotropic"] and doc["module"]["dim"] == 12
    assert ["".join(map(str, row)) for row in doc["module"]["gram"]] == P3E6_GRAM


def test_shared_scaling_blocks_keep_the_restriction_verdicts(monkeypatch):
    # batch modules with d <= 2: every restriction scanned with the blocks of
    # the module's T gives the witness of a scan that builds its own, and
    # minimal_imprimitive_unramified_degree builds the blocks once
    from wildinv.cli import parse_additive_poly
    from wildinv.linalg import fixed_space, mat_pow

    from test_rootsys import _batch_inputs

    mods = {}
    for spec in _batch_inputs():
        R = parse_additive_poly(spec["R"], spec["p"], spec["f"], spec["e"])
        if sympmod.addpoly.twisted_scaling_order(R, spec["m"]) <= 2:
            M = build(R, spec["m"])
            if M.dim:
                mods[spec["p"], spec["f"], spec["R"], spec["e"], spec["m"]] = M
    assert len(mods) >= 20 and {M.d for M in mods.values()} == {1, 2}
    real = sympmod._scaling_blocks
    calls = []

    def counting(T, p):
        calls.append(T)
        return real(T, p)

    for key, M in mods.items():
        blocks = real(M.T, M.p)
        bound = next(t for t in itertools.count(1) if fixed_space(mat_pow(M.S, t, M.p), M.p))
        want = None
        for t in range(1, bound + 1):
            Mt = restrict_frobenius(M, t)
            fresh = sympmod._least_isotropic_cyclic(Mt)
            shared = sympmod._least_isotropic_cyclic(Mt, blocks)
            assert (fresh is None) == (shared is None), (key, t)
            assert fresh is None or fresh.signature() == shared.signature(), (key, t)
            if want is None and fresh is not None:
                want = t
        calls.clear()
        monkeypatch.setattr(sympmod, "_scaling_blocks", counting)
        assert minimal_imprimitive_unramified_degree(M) == want, key
        monkeypatch.setattr(sympmod, "_scaling_blocks", real)
        assert calls == [M.T], key


def test_unramified_degree_after_the_scan_skips_t_1(monkeypatch):
    # primitive batch modules with d <= 2: started at t = 2 because the
    # caller's scan of M found no witness, the search gives the degree a
    # search from t = 1 gives, with one _least_isotropic_cyclic call fewer;
    # primitivity's verdict makes exactly the calls of the search from t = 1
    from wildinv.cli import parse_additive_poly

    from test_rootsys import _batch_inputs

    real = sympmod._least_isotropic_cyclic
    calls = []

    def counting(M, blocks=None):
        calls.append(M)
        return real(M, blocks)

    monkeypatch.setattr(sympmod, "_least_isotropic_cyclic", counting)
    seen = 0
    for spec in _batch_inputs()[:160]:
        R = parse_additive_poly(spec["R"], spec["p"], spec["f"], spec["e"])
        if sympmod.addpoly.twisted_scaling_order(R, spec["m"]) > 2 or spec["e"] == 0:
            continue
        M = build(R, spec["m"])
        if real(M) is not None:
            continue
        calls.clear()
        t = minimal_imprimitive_unramified_degree(M)
        from_one = len(calls)
        calls.clear()
        assert minimal_imprimitive_unramified_degree(M, _anisotropic=True) == t, spec["name"]
        assert len(calls) == from_one - 1, spec["name"]
        calls.clear()
        res = invariants.primitivity(R, spec["m"])
        assert (res.kind, res.unramified_degree) == ("primitive_unramified_unstable", t), spec["name"]
        assert len(calls) == from_one, spec["name"]
        seen += 1
    assert seen == 20


# Field._mul calls of one sympmod.build with every field cache empty, at the
# Gram matrix from x R(y) - y R(x) under partial Frobenius traces (one
# product per pair), the one remainder sequence of splitting_degree and
# mu_d's generator drawn from F_{p^a}. Per-exponent pairing products or a
# gcd per k would each exceed them by far more than the 10 % allowed.
MUL_BUDGET = {(3, 3): 98, (2, 5): 166, (3, 6): 915}


@pytest.mark.parametrize("p,e", sorted(MUL_BUDGET))
def test_module_build_stays_within_its_field_product_budget(monkeypatch, p, e):
    from wildinv import ff

    monkeypatch.setattr(ff, "_FIELD_CACHE", {})
    calls = []
    real = ff.Field._mul

    def counting(F, a, b):
        calls.append(F.n)
        return real(F, a, b)

    monkeypatch.setattr(ff.Field, "_mul", counting)
    M = build(AdditivePoly.monomial(field_create(p, 1), e), 1)
    assert M.dim == 2 * e
    assert len(calls) <= MUL_BUDGET[p, e] * 1.1, len(calls)


# ---------------------------------------------------------------------------
# the sigma order from the splitting degree of E


def _sigma_order_reference(M):
    """lcm of the order of S by repeated products and ord_{d_Rm}(q); 1 for
    the zero module."""
    from math import lcm

    from reference import matrix_order

    if not M.dim:
        return 1
    return lcm(matrix_order(M.S, M.p), multiplicative_order(M.context.base.order, M.d))


def test_sigma_order_matches_the_matrix_order_on_the_goldens():
    from wildinv.cli import parse_additive_poly

    from test_acceptance import GOLDEN_INPUTS

    seen = 0
    for argv in GOLDEN_INPUTS.values():
        flags = dict(zip(argv[1:-1:2], argv[2::2]))
        R = parse_additive_poly(flags["-R"], int(flags["-p"]), int(flags["-f"]), int(flags["-e"]))
        M = build(R, int(flags["-m"]))
        assert M.r == _sigma_order_reference(M), argv
        seen += M.dim > 0
    assert seen == 8


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_sigma_order_matches_the_matrix_order_on_random_modules(data):
    from wildinv.errors import AmbientGuardError

    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    F = field_create(p, data.draw(st.integers(1, 2)))
    R = data.draw(_small_additive(F, 2))
    m = data.draw(st.sampled_from([m for m in range(1, 9) if m % p]))
    try:
        M = build(R, m)
    except AmbientGuardError:
        assume(False)
    assert M.r == _sigma_order_reference(M)


_SPLITTING_PATCH = """
import sys
from wildinv import addpoly, sympmod
from wildinv.addpoly import AdditivePoly
from wildinv.errors import TheoremViolation
from wildinv.ff import field_create

R = AdditivePoly.from_ints(field_create(2, 1), [0, 1])
real = addpoly.splitting_degree
s = real(addpoly.e_poly(R))
addpoly.splitting_degree = lambda f: real(f) + 1
try:
    sympmod.build(R, 1)
except TheoremViolation as exc:
    print(s, exc)
else:
    print(s, "no violation")
"""


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
def test_frobenius_order_check_raises_on_a_wrong_splitting_degree(optimize):
    # x^2 over F_2 has s = 2 and d_R = 3, so the ambient degree lcm(s + 1,
    # ord_2(3)) = 6 still splits E; S^{s+1} = S is not the identity, so a
    # splitting degree one too large must fail the S^s = 1 check, also
    # under python -O
    import subprocess
    import sys

    from test_cli import _module_env

    r = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", _SPLITTING_PATCH],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert r.returncode == 0, r.stderr
    s, message = r.stdout.strip().split(" ", 1)
    assert s == "2"
    assert message == "the q-Frobenius must fix ker E at the splitting degree of E"
