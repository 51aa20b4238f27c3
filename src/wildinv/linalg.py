"""Dense linear algebra mod p on rows of Python ints.

A matrix is a list of rows and a vector a list, both of Python ints, which
never overflow, so every result is exact whatever the size of p; results are
reduced into range(p). Row convention: a subspace is the row span of a
matrix; rref output is the unique reduced row echelon form, so it doubles as
a canonical signature.
"""

import itertools
from operator import mul

from .errors import TheoremViolation


def rref(A, p):
    """Reduced row echelon form mod p. Returns (R, pivot_columns)."""
    rows = [[int(x) % p for x in row] for row in A]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        pr = rows[r] = [x * inv % p for x in rows[r]]
        for j in range(m):
            a = rows[j][c]
            if a and j != r:
                rows[j] = [(x - a * y) % p for x, y in zip(rows[j], pr)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(A, p):
    return len(rref(A, p)[0])


def nullspace(A, p):
    """Canonical basis (rows, rref'd) of the right kernel {x : A x = 0}."""
    n = len(A[0]) if len(A) else 0
    R, piv = rref(A, p)
    basis = []
    for c in range(n):
        if c not in piv:
            x = [0] * n
            x[c] = 1
            for row, pc in zip(R, piv):
                x[pc] = -row[c] % p
            basis.append(x)
    return rref(basis, p)[0]


def fixed_space(A, p):
    """Canonical basis of {x : A x = x}, the right kernel of A - 1."""
    return nullspace([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)], p)


def solve(A, b, p):
    """One solution of A x = b mod p, or None. Deterministic (free vars = 0)."""
    n = len(A[0]) if len(A) else 0
    R, piv = rref([list(row) + [y] for row, y in zip(A, b)], p)
    if piv and piv[-1] == n:
        return None
    x = [0] * n
    for row, c in zip(R, piv):
        x[c] = row[n]
    return x


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_add(A, B, p):
    return [[(x + y) % p for x, y in zip(a, b)] for a, b in zip(A, B)]


def mat_mul(A, B, p):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in A]


def mat_vec(A, v, p):
    """A v for a column vector v."""
    return [sum(map(mul, row, v)) % p for row in A]


def mat_inv(A, p):
    n = len(A)
    R, piv = rref([list(row) + e for row, e in zip(A, identity(n))], p)
    if piv != list(range(n)):
        raise ValueError("matrix not invertible mod p")
    return [row[n:] for row in R]


def mat_pow(A, k, p):
    if k < 0:
        return mat_pow(mat_inv(A, p), -k, p)
    out = identity(len(A))
    B = [[x % p for x in row] for row in A]
    while k:
        if k & 1:
            out = mat_mul(out, B, p)
        B = mat_mul(B, B, p)
        k >>= 1
    return out


def mat_order(A, p, cap=10 ** 6):
    """Multiplicative order of an invertible matrix mod p."""
    I = identity(len(A))
    M = B = [[x % p for x in row] for row in A]
    for k in range(1, cap + 1):
        if M == I:
            return k
        M = mat_mul(M, B, p)
    raise TheoremViolation("matrix order exceeds cap")


def coords_in_rows(B, v, p):
    """Coefficients c with c B = v, or None."""
    if not len(B):
        return None if any(x % p for x in v) else []
    return solve(transpose(B), v, p)


def projective_points(p, dim):
    """Nonzero vectors of F_p^dim whose first nonzero coordinate is 1."""
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def cyclic_closure(v, mats, p, gram=None):
    """RREF basis of the smallest subspace containing v stable under all mats.

    mats (and gram) act on column vectors. Each new image is reduced against
    the fully reduced basis found so far, so a closure costs one reduction
    per image. Given the Gram matrix of an alternating form, return None as
    soon as a new basis vector pairs nonzero with an earlier one: such a span
    is not totally isotropic. As omega(r, r) = 0 and omega(r, b) =
    -omega(b, r), a closure that completes under a Gram matrix is totally
    isotropic.
    """
    basis = {}  # pivot column -> row with 1 there and 0 at every other pivot
    todo = [[int(x) % p for x in v]]
    while todo:
        r = todo.pop()
        for c, b in basis.items():
            a = r[c]
            if a:
                r = [(x - a * y) % p for x, y in zip(r, b)]
        c = next((i for i, x in enumerate(r) if x), None)
        if c is None:
            continue
        inv = pow(r[c], p - 2, p)
        r = [x * inv % p for x in r]
        if gram is not None:
            Gr = mat_vec(gram, r, p)
            if any(sum(map(mul, b, Gr)) % p for b in basis.values()):
                return None
        for k, b in basis.items():
            a = b[c]
            if a:
                basis[k] = [(x - a * y) % p for x, y in zip(b, r)]
        basis[c] = r
        todo.extend(mat_vec(M, r, p) for M in mats)
    return [basis[c] for c in sorted(basis)]
