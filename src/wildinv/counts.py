"""Point counts, zeta numerator and character L-polynomials of the curve
y^p - y = x R(x).

Counting reduces to the value distribution of the prime-field quadratic form
Q(x) = Tr(x R(x)) on F_{q^k}: fibers of the cover have size p exactly on the
trace-zero locus. The distribution is computed exactly by classifying Q
(rank and discriminant for p odd, radical behaviour and the Arf invariant for
p = 2), so counts over F_{q^k} cost O((fk)^3) instead of O(q^k); a brute
force enumeration loop is kept as the independent oracle for small fields.

Character sums then live in the p-th cyclotomic integers, represented as
coefficient vectors modulo 1 + x + ... + x^{p-1}; the zeta numerator must
come out with integer coefficients, which is checked, not assumed.
"""

from fractions import Fraction

import numpy as np

from . import addpoly, ff, linalg
from .errors import TheoremViolation, ValidationError

BRUTE_FORCE_GUARD = 2 ** 20


def genus(R: addpoly.AdditivePoly) -> int:
    """(p-1) p^e / 2: one totally ramified point at infinity since the degree
    of x R(x) is p^e + 1, prime to p."""
    if R.is_zero():
        raise ValidationError("R must be nonzero")
    p, e = R.p, R.p_degree
    if p == 2 and e == 0:
        raise ValidationError("the pair (p, e) = (2, 0) is excluded")
    two_g = (p - 1) * p ** e
    if two_g % 2:
        raise TheoremViolation("2g = (p-1) p^e must be even")
    return two_g // 2


# ---------------------------------------------------------------------------
# Exact value distribution of Q(x) = Tr_{F_{q^k}/F_p}(x R(x))


def _form_data(R: addpoly.AdditivePoly, k: int):
    """Gram data of the quadratic form on F_{q^k} as an F_p-space.

    Returns (p, n, B, qvec): B the polar (symmetric) matrix B(x,y) =
    Tr(x R(y) + y R(x)), qvec the diagonal values Q(basis)."""
    base = R.base
    p = base.p
    n = base.n * k
    F = ff.field_create(p, n)
    Rk = R.embed_to(F)
    Rcols = Rk.operator_matrix(F) % p
    # absolute trace functional: first coordinate row of sum of Frobenius powers
    total = sum(F.frobenius_matrix(j) for j in range(n)) % p
    if total[1:, :].any():
        raise TheoremViolation("absolute trace must be scalar-valued")
    tr = total[0, :]
    B = np.zeros((n, n), dtype=np.int64)
    qvec = np.zeros(n, dtype=np.int64)
    for j in range(n):
        Mj = F.mult_matrix(F.el(Rcols[:, j]))  # multiplication by R(e_j)
        B[:, j] = tr @ Mj % p  # entry i: Tr(e_i R(e_j))
        qvec[j] = int(B[j, j])
    B = (B + B.T) % p
    return p, n, B, qvec


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _distribution_odd(p, n, B, qvec):
    """Value counts of the form with symmetric matrix A = B/2 (p odd)."""
    inv2 = pow(2, -1, p)
    A = (B * inv2 % p).copy()
    # symmetric congruence diagonalization
    diag = []
    M = A
    size = A.shape[0]
    while size > 0:
        # find a nonzero diagonal entry, or make one
        piv = next((i for i in range(size) if M[i, i] % p), None)
        if piv is None:
            pos = next(
                ((i, j) for i in range(size) for j in range(size) if M[i, j] % p),
                None,
            )
            if pos is None:
                break  # zero block: radical
            i, j = pos
            M[i, :] = (M[i, :] + M[j, :]) % p
            M[:, i] = (M[:, i] + M[:, j]) % p
            piv = i
        if piv != 0:
            M[[0, piv], :] = M[[piv, 0], :]
            M[:, [0, piv]] = M[:, [piv, 0]]
        d = int(M[0, 0]) % p
        diag.append(d)
        dinv = pow(d, -1, p)
        for i in range(1, size):
            c = M[i, 0] * dinv % p
            if c:
                M[i, :] = (M[i, :] - c * M[0, :]) % p
                M[:, i] = (M[:, i] - c * M[:, 0]) % p
        M = M[1:, 1:]
        size -= 1
    r = len(diag)
    rad = n - r
    det = 1
    for d in diag:
        det = det * d % p
    counts = {}
    if r == 0:
        counts = {0: p ** n}
        return counts
    if r % 2 == 0:
        eps = _legendre(pow(-1, r // 2, p) * det, p)
        n0 = p ** (r - 1) + (p - 1) * eps * p ** (r // 2 - 1)
        for t in range(p):
            counts[t] = n0 if t == 0 else p ** (r - 1) - eps * p ** (r // 2 - 1)
    else:
        chi = _legendre(pow(-1, (r - 1) // 2, p) * det, p)
        for t in range(p):
            if t == 0:
                counts[t] = p ** (r - 1)
            else:
                counts[t] = p ** (r - 1) + chi * _legendre(t, p) * p ** ((r - 1) // 2)
    return {t: c * p ** rad for t, c in counts.items()}


def _distribution_char2(n, B, qvec):
    """Value counts over F_2 via the radical and the Arf invariant."""
    p = 2
    rad = linalg.nullspace(B, p)

    def qval(vec):
        # Q(sum x_i e_i) = sum x_i Q(e_i) + sum_{i<j} x_i x_j B(i,j)
        idxs = [i for i, c in enumerate(vec) if c % 2]
        v = sum(int(qvec[i]) for i in idxs)
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                v += int(B[idxs[a], idxs[b]])
        return v % 2

    if any(qval(row) for row in rad):
        return {0: 2 ** (n - 1), 1: 2 ** (n - 1)}
    # complement of the radical: complete B-nondegenerate part
    comp = _complement_rows(rad, n, p)
    pairs = _symplectic_pairs(comp, B, p)
    arf = 0
    for u, w in pairs:
        arf ^= qval(u) & qval(w)
    h = len(pairs)
    sign = -1 if arf else 1
    n0 = 2 ** (2 * h - 1) + sign * 2 ** (h - 1) if h else 1
    n1 = 2 ** (2 * h) - n0
    radsize = 2 ** (n - 2 * h)
    return {0: n0 * radsize, 1: n1 * radsize}


def _complement_rows(rad, n, p):
    rows = [r for r in rad]
    comp = []
    cur = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    for i in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        if not linalg.in_row_span(np.vstack([cur, np.array(comp).reshape(-1, n)]) if comp else cur, v, p):
            comp.append(v)
    return comp


def _symplectic_pairs(comp, B, p):
    """Hyperbolic pairs of the restriction of B to the span of comp (char 2)."""
    vecs = [np.array(v, dtype=np.int64) for v in comp]
    pairs = []
    while vecs:
        u = vecs.pop(0)
        j = next(i for i, w in enumerate(vecs) if int(u @ B @ w) % p)
        w = vecs.pop(j)
        if int(u @ B @ w) % p != 1:
            raise TheoremViolation("hyperbolic pair must pair to 1")
        rest = []
        for v in vecs:
            a = int(v @ B @ w) % p
            b = int(v @ B @ u) % p
            rest.append((v + a * u + b * w) % p)
        vecs = rest
        pairs.append((u, w))
    return pairs


_DISTRIBUTION_CACHE = {}


def value_distribution(R: addpoly.AdditivePoly, k: int) -> dict:
    """Exact counts {t: #{x in F_{q^k} : Tr(x R(x)) = t}} for t in F_p.

    Memoized per (R, k): one curve report asks for the same k from the
    counts, the zeta numerator and every character sum. Each call returns a
    fresh dict, so a caller may change it without touching the memo.
    """
    if R.is_zero():
        raise ValidationError("R must be nonzero")
    if k < 1:
        raise ValidationError("k must be >= 1")
    key = (R, k)
    if key not in _DISTRIBUTION_CACHE:
        p, n, B, qvec = _form_data(R, k)
        if p == 2:
            out = _distribution_char2(n, B, qvec)
        else:
            out = _distribution_odd(p, n, B, qvec)
        out = {t: int(out.get(t, 0)) for t in range(p)}
        if sum(out.values()) != p ** n:
            raise TheoremViolation("value counts must exhaust the space")
        _DISTRIBUTION_CACHE[key] = out
    return dict(_DISTRIBUTION_CACHE[key])


def point_count(R: addpoly.AdditivePoly, k: int) -> int:
    """Affine points of y^p - y = x R(x) over F_{q^k}: p per trace-zero x."""
    return R.p * value_distribution(R, k)[0]


def point_counts(R: addpoly.AdditivePoly, kmax: int) -> list:
    return [point_count(R, k) for k in range(1, kmax + 1)]


def brute_force_count(R: addpoly.AdditivePoly, k: int) -> int:
    """Direct double loop over (y, x); the small-field oracle."""
    base = R.base
    n = base.n * k
    if base.p ** n > BRUTE_FORCE_GUARD:
        raise ValidationError("field too large for brute-force enumeration")
    F = ff.field_create(base.p, n)
    Rk = R.embed_to(F)
    count = 0
    values = {}
    for x in F.elements():
        t = x * addpoly.evaluate(Rk, x)
        values.setdefault(t, 0)
        values[t] += 1
    for y in F.elements():
        t = y ** base.p - y
        count += values.get(t, 0)
    return count


# ---------------------------------------------------------------------------
# Zeta numerator


class ZetaNumerator:
    """Integer polynomial with constant term 1 whose reciprocal roots are the
    Frobenius eigenvalues of the smooth projective model."""

    __slots__ = ("q", "g", "coeffs")

    def __init__(self, q, g, coeffs):
        self.q = q
        self.g = g
        self.coeffs = list(coeffs)
        if self.coeffs[0] != 1:
            raise ValidationError("numerator must have constant term 1")
        if len(self.coeffs) != 2 * g + 1:
            raise ValidationError("numerator must have degree 2g")

    def reciprocal_roots(self):
        """Distinct reciprocal roots, to full floating precision.

        sum c_j T^j with c_0 = 1 has lambda-polynomial sum c_j x^{2g-j}, read
        leading-first as the list stands. Repeated roots wreck the accuracy of
        numpy's companion-matrix solver, so the exact square-free part is
        taken first; the Weil bound is about values, not multiplicities.
        """
        return np.roots(_squarefree_part(self.coeffs))

    def functional_equation_sign(self):
        """epsilon with c_{2g-j} = epsilon q^{g-j} c_j, or None."""
        g, q = self.g, self.q
        for eps in (1, -1):
            if all(
                self.coeffs[2 * g - j] == eps * q ** (g - j) * self.coeffs[j]
                for j in range(0, g + 1)
            ):
                return eps
        return None

    def weil_bounds_ok(self, rel_tol=1e-9):
        lams = self.reciprocal_roots()
        return bool(np.all(np.abs(np.abs(lams) ** 2 - self.q) < rel_tol * self.q))


def _squarefree_part(coeffs_leading_first):
    """Exact square-free part of an integer polynomial (rational Euclid gcd)."""
    a = [Fraction(c) for c in coeffs_leading_first]
    da = [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]
    g = _frac_poly_gcd(a, da)
    q = _frac_poly_div(a, g)
    lead = q[0]
    return [float(c / lead) for c in q]


def _frac_poly_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(b):
        a, b = b, _frac_poly_mod(a, b)
    return a


def _frac_poly_mod(a, b):
    a = list(a)
    while a and a[0] == 0:
        a.pop(0)
    b = list(b)
    while b and b[0] == 0:
        b.pop(0)
    while len(a) >= len(b):
        c = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= c * b[i]
        a.pop(0)
        while a and a[0] == 0:
            a.pop(0)
    return a


def _frac_poly_div(a, b):
    a = [Fraction(c) for c in a]
    b = list(b)
    while b and b[0] == 0:
        b.pop(0)
    out = []
    while len(a) >= len(b):
        c = a[0] / b[0]
        out.append(c)
        for i in range(len(b)):
            a[i] -= c * b[i]
        a.pop(0)
    if any(c != 0 for c in a):
        raise TheoremViolation("square-free division must be exact")
    return out


def zeta_numerator(R: addpoly.AdditivePoly) -> ZetaNumerator:
    """Reconstruct the numerator from counts N_1..N_{2g} by Newton's identities.

    Power sums are s_k = q^k - N_k (one point at infinity); every division in
    the recursion must be exact over the integers.
    """
    g = genus(R)
    q = R.base.order
    Ns = point_counts(R, 2 * g)
    s = [q ** (k + 1) - Ns[k] for k in range(2 * g)]
    coeffs = [Fraction(1)]
    for j in range(1, 2 * g + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += s[i - 1] * coeffs[j - i]
        cj = -acc / j
        coeffs.append(cj)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ValidationError("non-integral zeta coefficient: counting bug")
        out.append(int(c))
    Z = ZetaNumerator(q, g, out)
    if Z.functional_equation_sign() is None:
        raise ValidationError("zeta numerator fails its functional equation")
    return Z


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[zeta_p] and character L-polynomials


class Cyc:
    """Element of Q(zeta_p) as a coordinate vector in the basis 1..zeta^{p-2}.

    Coordinates are Python ints; only `divide` can leave a Fraction, and only
    when the quotient is not an algebraic integer.
    """

    __slots__ = ("p", "vec")

    def __init__(self, p, vec=None):
        self.p = p
        v = [0] * (p - 1)
        if vec is not None:
            for i, c in enumerate(vec):
                v[i] = c
        self.vec = v

    @classmethod
    def root_power(cls, p, j):
        """zeta^j reduced into the basis."""
        j %= p
        if j <= p - 2:
            out = cls(p)
            out.vec[j] = 1
            return out
        # zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
        return cls(p, [-1] * (p - 1))

    @classmethod
    def integer(cls, p, n):
        return cls(p, [n])

    def __add__(self, other):
        return Cyc(self.p, [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other):
        return Cyc(self.p, [a - b for a, b in zip(self.vec, other.vec)])

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyc(self.p, [a * other for a in self.vec])
        p = self.p
        conv = [0] * (2 * p - 2)  # degrees up to 2p - 4, and p - 1 when p = 2
        b_terms = [(j, b) for j, b in enumerate(other.vec) if b]
        for i, a in enumerate(self.vec):
            if a:
                for j, b in b_terms:
                    conv[i + j] += a * b
        # zeta^k = zeta^{k-p} for k >= p, then zeta^{p-1} = -(1 + ... + zeta^{p-2})
        for k in range(p, 2 * p - 3):
            conv[k - p] += conv[k]
        top = conv[p - 1]
        return Cyc(p, [c - top for c in conv[: p - 1]])

    __rmul__ = __mul__

    def divide(self, n):
        """self / n; a coordinate stays an int whenever n divides it."""
        return Cyc(self.p, [a // n if a % n == 0 else Fraction(a, n) for a in self.vec])

    def __eq__(self, other):
        return isinstance(other, Cyc) and self.p == other.p and self.vec == other.vec

    def __repr__(self):
        return f"Cyc{tuple(str(c) for c in self.vec)}"

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    def is_rational_integer(self):
        return all(c == 0 for c in self.vec[1:]) and self.vec[0].denominator == 1

    def galois(self, c):
        """zeta -> zeta^c."""
        out = Cyc(self.p)
        for i, a in enumerate(self.vec):
            if a:
                out = out + Cyc.root_power(self.p, i * c) * a
        return out


class PsiLPolynomial:
    """L-polynomial of one nontrivial additive character, coefficients in Z[zeta_p]."""

    __slots__ = ("p", "c", "coeffs")

    def __init__(self, p, c, coeffs):
        self.p = p
        self.c = c
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1


def character_sum(R: addpoly.AdditivePoly, c: int, k: int) -> Cyc:
    """S_k = sum over x in F_{q^k} of zeta_p^{c Tr(x R(x))}, exactly."""
    p = R.p
    dist = value_distribution(R, k)
    out = Cyc(p)
    for t, cnt in dist.items():
        out = out + Cyc.root_power(p, c * t) * cnt
    return out


_PSI_L_CACHE = {}


def psi_l_polynomial(R: addpoly.AdditivePoly, c: int, slack: int = 2) -> PsiLPolynomial:
    """L(psi_c, T) = exp(sum_k S_k T^k / k), which must terminate at degree p^e.

    Computed through degree p^e + slack; the extra coefficients must vanish
    and every kept coefficient must be an algebraic integer. Memoized per
    (R, c, slack): `curve_summary` reads the degrees and the product check
    multiplies the same polynomials. Each call returns a fresh coefficient
    list.
    """
    p = R.p
    if not (1 <= c <= p - 1):
        raise ValidationError("character index must be a unit mod p")
    key = (R, c, slack)
    if key not in _PSI_L_CACHE:
        _PSI_L_CACHE[key] = _psi_l_coefficients(R, c, slack)
    return PsiLPolynomial(p, c, list(_PSI_L_CACHE[key]))


def _psi_l_coefficients(R, c, slack):
    p = R.p
    e = R.p_degree
    deg = p ** e
    upto = deg + slack
    S = [character_sum(R, c, k) for k in range(1, upto + 1)]
    coeffs = [Cyc.integer(p, 1)]
    for nn in range(1, upto + 1):
        acc = Cyc(p)
        for i in range(1, nn + 1):
            acc = acc + S[i - 1] * coeffs[nn - i]
        coeffs.append(acc.divide(nn))
    for j in range(deg + 1, upto + 1):
        if not coeffs[j].is_zero():
            raise ValidationError("L-series does not terminate at degree p^e")
    kept = coeffs[: deg + 1]
    for cf in kept:
        if any(x.denominator != 1 for x in cf.vec):
            raise ValidationError("L-polynomial coefficient is not an algebraic integer")
    if kept[-1].is_zero():
        raise ValidationError("L-polynomial has degree below p^e")
    return kept


def psi_l_product_equals_zeta(R: addpoly.AdditivePoly, Z: ZetaNumerator = None) -> bool:
    """Product over nontrivial characters of L(psi_c) equals the zeta numerator."""
    p = R.p
    Z = Z or zeta_numerator(R)
    prod = [Cyc.integer(p, 1)]
    for c in range(1, p):
        L = psi_l_polynomial(R, c)
        new = [Cyc(p) for _ in range(len(prod) + L.degree)]
        for i, a in enumerate(prod):
            for j, b in enumerate(L.coeffs):
                new[i + j] = new[i + j] + a * b
        prod = new
    if len(prod) != len(Z.coeffs):
        return False
    for got, want in zip(prod, Z.coeffs):
        if not got.is_rational_integer() or got.vec[0] != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Supersingularity: eigenvalue ratios must be roots of unity (exact test)


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n: int) -> list:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    if n in _CYCLOTOMIC_CACHE:
        return list(_CYCLOTOMIC_CACHE[n])
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_exact_div(poly, cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[n] = tuple(poly)
    return poly


def _int_poly_exact_div(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        q, r = divmod(a[-1], b[-1])
        if r:
            raise TheoremViolation("integer polynomial division must be exact")
        d = len(a) - len(b)
        out[d] = q
        for i, bi in enumerate(b):
            a[d + i] -= q * bi
        a.pop()
    if any(a):
        raise TheoremViolation("integer polynomial division must be exact")
    return out


def check_supersingular(Z: ZetaNumerator) -> bool:
    """All lambda^2 / q roots of unity: the monic integer polynomial with those
    roots must be a product of cyclotomic polynomials (Kronecker)."""
    g, q = Z.g, Z.q
    # A(x) = prod (x - lambda): reversed coefficient order
    A = list(reversed(Z.coeffs))
    # C(y) with roots lambda^2: A(x) A(-x) = C(x^2)
    Aneg = [c if i % 2 == 0 else -c for i, c in enumerate(A)]
    prod = [0] * (len(A) + len(Aneg) - 1)
    for i, a in enumerate(A):
        for j, b in enumerate(Aneg):
            prod[i + j] += a * b
    if any(c for c in prod[1::2]):
        raise TheoremViolation("A(x) A(-x) must be even")
    C = prod[::2]
    # D(z) with roots lambda^2 / q: D(z) = C(q z) / q^{2g}
    D = []
    for j, cj in enumerate(C):
        num = cj * q ** j
        if num % q ** (2 * g) != 0:
            return False
        D.append(num // q ** (2 * g))
    if D[-1] != 1:
        raise TheoremViolation("the squared eigenvalue polynomial must be monic")
    # strip cyclotomic factors until nothing is left
    deg = len(D) - 1
    n = 1
    remaining = D
    # phi(n) >= sqrt(n/2), so factors of degree <= deg have n <= 2 deg^2 + 1
    while len(remaining) > 1 and n <= 2 * deg * deg + 2:
        phi = cyclotomic_polynomial(n)
        while len(phi) <= len(remaining) and _divides_int_poly(remaining, phi):
            remaining = _int_poly_exact_div(remaining, phi)
        n += 1
    return len(remaining) == 1 and remaining[0] == 1


def _divides_int_poly(a, b):
    a = list(a)
    while len(a) >= len(b):
        if a[-1] % b[-1] != 0:
            return False
        q = a[-1] // b[-1]
        d = len(a) - len(b)
        for i, bi in enumerate(b):
            a[d + i] -= q * bi
        if a[-1] != 0:
            raise TheoremViolation("leading term must cancel")
        a.pop()
    return not any(a)


def curve_summary(R: addpoly.AdditivePoly, max_k: int = None) -> dict:
    """Counts, genus, zeta numerator, supersingularity and character degrees."""
    g = genus(R)
    kmax = max_k if max_k is not None else 2 * g
    Z = zeta_numerator(R)
    psi_degrees = []
    for c in range(1, R.p):
        L = psi_l_polynomial(R, c)
        psi_degrees.append(L.degree)
    if not psi_l_product_equals_zeta(R, Z):
        raise TheoremViolation("product of the character L-polynomials differs from the zeta numerator")
    return {
        "counts": point_counts(R, kmax),
        "genus": g,
        "zeta_numerator": Z.coeffs,
        "functional_equation_sign": Z.functional_equation_sign(),
        "weil_bounds_ok": Z.weil_bounds_ok(),
        "supersingular": check_supersingular(Z),
        "psi_L_degrees": psi_degrees,
    }
