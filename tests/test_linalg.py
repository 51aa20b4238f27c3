"""linalg against a reference elimination written here, for small and large p.

The reference is fraction-free: a row is cleared by cross-multiplying it with
the pivot row, r <- a r - b s, so it needs no inverse mod p and shares no code
path with linalg's normalized elimination.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildinv import linalg

PRIMES = (2, 3, 5, 7, 2 ** 31 - 1, 2 ** 61 - 1)


def ref_rank(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            b = rows[i][c]
            if b:
                rows[i] = [(a * x - b * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def apply(A, x, p):
    return [sum(a * b for a, b in zip(row, x)) % p for row in A]


@st.composite
def matrices(draw, square=False):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(p - 3, p + 3),
        st.integers(-(2 ** 70), 2 ** 70),
    )
    # low-rank matrices too: some rows are combinations of the others
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            c = draw(entry)
            rows[i] = [c * x for x in rows[draw(st.integers(0, i - 1))]]
    return p, rows


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_is_reduced_and_spans_the_same_rows(case):
    p, A = case
    R, piv = linalg.rref(A, p)
    n = len(A[0])
    assert len(R) == len(piv) == ref_rank(A, p)
    assert piv == sorted(set(piv))
    for i, (row, c) in enumerate(zip(R, piv)):
        assert all(0 <= x < p for x in row) and len(row) == n
        assert row[c] == 1 and not any(row[:c])
        assert all(other[c] == 0 for k, other in enumerate(R) if k != i)
    assert ref_rank(A + R, p) == len(R)
    assert linalg.rank(A, p) == len(R)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_nullspace_has_dimension_n_minus_rank_and_is_killed_by_A(case):
    p, A = case
    n = len(A[0])
    N = linalg.nullspace(A, p)
    assert len(N) == n - ref_rank(A, p)
    assert ref_rank(N, p) == len(N)
    for x in N:
        assert len(x) == n and not any(apply(A, x, p))
    assert linalg.rref(N, p)[0] == N


@settings(max_examples=120, deadline=None)
@given(matrices(), st.data())
def test_solve_solves_or_returns_none_exactly_when_inconsistent(case, data):
    p, A = case
    if data.draw(st.booleans()):
        # a right-hand side in the column span
        x0 = data.draw(st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=len(A[0]), max_size=len(A[0])))
        b = apply(A, x0, p)
    else:
        b = data.draw(st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=len(A), max_size=len(A)))
    x = linalg.solve(A, b, p)
    solvable = ref_rank([row + [y] for row, y in zip(A, b)], p) == ref_rank(A, p)
    if solvable:
        assert x is not None and apply(A, x, p) == [y % p for y in b]
    else:
        assert x is None


@settings(max_examples=120, deadline=None)
@given(matrices(square=True))
def test_mat_inv_times_A_is_the_identity(case):
    p, A = case
    n = len(A)
    if ref_rank(A, p) < n:
        with pytest.raises(ValueError):
            linalg.mat_inv(A, p)
        return
    Ainv = linalg.mat_inv(A, p)
    cols = list(zip(*A))
    prod = [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in Ainv]
    assert prod == linalg.identity(n)


def test_large_prime_example():
    # int64 arithmetic overflowed here: the result was not even in echelon form
    p = 2 ** 61 - 1
    A = [[3 << 40, 5], [7, (1 << 60) + 11]]
    R, piv = linalg.rref(A, p)
    assert R == [[1, 0], [0, 1]] and piv == [0, 1]
    x = linalg.solve(A, [1, 2], p)
    assert apply(A, x, p) == [1, 2]


def _projective_points(p, dim):
    """Nonzero vectors of F_p^dim whose first nonzero coordinate is 1."""
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


@pytest.mark.parametrize("p,dim", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_line_points_on_unit_blocks_are_the_projective_points(p, dim):
    blocks = [[row] for row in linalg.identity(dim)]
    got = [tuple(v) for v in linalg.line_points(blocks, p)]
    assert got == list(_projective_points(p, dim))


def test_line_points_meet_every_f9_line_once():
    # F_3^4 as F_9^2: T acts on each coordinate pair by the companion matrix
    # of x^2 + 1, and the units of F_3[T] carry the points onto every nonzero
    # vector exactly once
    p = 3
    T = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    e = linalg.identity(4)
    blocks = [[e[0], apply(T, e[0], p)], [e[2], apply(T, e[2], p)]]
    points = list(linalg.line_points(blocks, p))
    assert len(points) == (p ** 4 - 1) // (p ** 2 - 1)
    multiples = [
        tuple((c0 * x + c1 * y) % p for x, y in zip(v, apply(T, v, p)))
        for v in points
        for c0, c1 in itertools.product(range(p), repeat=2)
        if (c0, c1) != (0, 0)
    ]
    assert sorted(multiples) == [v for v in itertools.product(range(p), repeat=4) if any(v)]
