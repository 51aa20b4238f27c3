"""Dense linear algebra mod p on numpy int64 arrays.

Row convention: a subspace is the row span of a matrix; rref output is the
unique reduced row echelon form, so it doubles as a canonical signature.
"""

import numpy as np


def rref(A, p):
    """Reduced row echelon form mod p. Returns (R, pivot_columns)."""
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        rows = np.nonzero(A[r:, c])[0]
        if rows.size == 0:
            continue
        i = r + int(rows[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        for j in range(m):
            if j != r and A[j, c]:
                A[j] = (A[j] - A[j, c] * A[r]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(A, p):
    return rref(A, p)[0].shape[0]


def nullspace(A, p):
    """Canonical basis (rows, rref'd) of the right kernel {x : A x = 0}."""
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    R, piv = rref(A, p)
    free = [c for c in range(n) if c not in piv]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(piv):
            basis[k, pc] = (-R[i, c]) % p
    if basis.size:
        basis, _ = rref(basis, p)
    return basis


def solve(A, b, p):
    """One solution of A x = b mod p, or None. Deterministic (free vars = 0)."""
    A = np.array(A, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    m, n = A.shape
    aug = np.hstack([A, b.reshape(m, 1)])
    R, piv = rref(aug, p)
    x = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(piv):
        if c == n:
            return None
        x[c] = R[i, n]
    return x


def mat_inv(A, p):
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[0]
    aug = np.hstack([A, np.eye(n, dtype=np.int64)])
    R, piv = rref(aug, p)
    if piv != list(range(n)):
        raise ValueError("matrix not invertible mod p")
    return R[:, n:]


def mat_pow(A, k, p):
    n = A.shape[0]
    if k < 0:
        return mat_pow(mat_inv(A, p), -k, p)
    out = np.eye(n, dtype=np.int64)
    B = np.array(A, dtype=np.int64) % p
    while k:
        if k & 1:
            out = out @ B % p
        B = B @ B % p
        k >>= 1
    return out


def mat_order(A, p, cap=10 ** 6):
    """Multiplicative order of an invertible matrix mod p."""
    n = A.shape[0]
    I = np.eye(n, dtype=np.int64)
    B = np.array(A, dtype=np.int64) % p
    M = B
    for k in range(1, cap + 1):
        if np.array_equal(M, I):
            return k
        M = M @ B % p
    raise AssertionError("matrix order exceeds cap")


def in_row_span(B, v, p):
    """Is the vector v in the row span of B?"""
    if B.shape[0] == 0:
        return not np.any(np.array(v) % p)
    M = np.vstack([B, np.array(v, dtype=np.int64) % p])
    return rank(M, p) == rank(B, p)


def coords_in_rows(B, v, p):
    """Coefficients c with c @ B = v, or None."""
    return solve(B.T, v, p)
