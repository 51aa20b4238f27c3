"""Point counts, zeta numerator and character L-polynomials of the curve
y^p - y = x R(x).

Counting reduces to the value distribution of the prime-field quadratic form
Q(x) = Tr(x R(x)) on F_{q^k}: fibers of the cover have size p exactly on the
trace-zero locus. The distribution is computed exactly by classifying Q with
one symmetric congruence reduction for every p, which splits off lines,
hyperbolic or Arf-1 planes and the radical, so counts over F_{q^k} cost
O((fk)^3) instead of O(q^k).
The classification is an isometry invariant, so Q may be written in any
F_p-basis of F_{q^k}, and one rule picks it for every R. Write n = fk = a b
with gcd(a, b) = 1, a the full powers in n of the primes of f (f = 1 when
R's coefficients lie in F_p) and of 2 when p = 2 and 4 | n. Then F_{p^n} =
F_{p^a} (x) F_{p^b}, and Q is written in the basis x^j beta^{p^l}: x
generates the canonical F_{p^a}, the only field built, and beta is a normal
element of F_{p^b} known only through its traces Tr(beta beta^{p^d}). These
need no field: for b odd, or p = 2 with 4 not dividing b, a self-dual normal
basis exists (Lempel and Weinberger); for p odd and b even, Stickelberger's
discriminant theorem fixes the square class that the traces must have at
x = -1. So R over F_p builds no extension field but F_{2^m}, m the 2-part
of n, when p = 2 and 4 | n. a = 1 gives a circulant, and b = 1 the Hankel
form of the canonical F_{q^k}.

Character sums then live in the p-th cyclotomic integers, represented as
coefficient vectors modulo 1 + x + ... + x^{p-1}. Newton's identities, written
once in each direction, turn power sums into coefficients and back. L(psi_1)
has degree p^e, so only the forms on F_{q^k} with k <= p^e + PSI_SLACK are
needed for it; its further power sums follow from its coefficients. The zeta
numerator is the product of the p - 1 Galois conjugates of L(psi_1), so its
power sums are the traces to Q of those of L(psi_1), and Newton's identities
over the integers give its coefficients; every division must be exact, which
is checked, not assumed. Small curves are cross-checked against Newton's
identities on all 2g direct counts.

Supersingularity, every lambda^2 / q a root of unity, needs no search for
cyclotomic factors: the monic D(z) = prod (z - lambda^2 / q) has only roots
of unity as roots exactly when it is integral and all its roots lie on the
unit circle (Kronecker), and the exact Weil test decides the latter.
"""

import math
import sys
from fractions import Fraction

from . import addpoly, ff, linalg, poly
from .errors import AmbientGuardError, TheoremViolation, ValidationError

PSI_SLACK = 2  # L(psi_c) is expanded this far past its degree p^e
# Z is cross-checked against Newton's identities on all 2g direct counts
# while q^{2g} stays within this bound
NEWTON_CHECK_BOUND = 3 ** 40
# pre-flight bounds of a curve summary, see `check_curve_work`
CURVE_FIELD_BITS_BOUND = 256
CYC_PRODUCT_BOUND = 10 ** 8


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


def _normal_traces(p, n):
    """T_d = Tr(beta beta^{p^d}), d < n, for some normal element beta of
    F_{p^n}/F_p; p = 2 needs 4 not dividing n.

    For n odd, or p = 2 with 4 not dividing n, a self-dual normal basis
    exists (Lempel and Weinberger), so T_d = [d = 0]. For p odd and n = n' p^s
    even with p not dividing n', a change of normal element multiplies t =
    sum_d T_d x^d in F_p[x]/(x^n - 1) by g(x) g(1/x), and these products are
    the symmetric units whose values at x = 1 and x = -1 are squares. t(1) = Tr(beta)^2 is
    a nonzero square, and t(-1) lies in the square class of the discriminant,
    a nonsquare for n even (Stickelberger). So t = 1 + (nu - 1) e is realized,
    nu the least nonsquare and e(x) = (1/n') sum_{j<n'} (-1)^j x^{j p^s} the
    idempotent at x = -1: t(-1) = nu, and t = 1 at every other root."""
    T = [1] + [0] * (n - 1)
    if p != 2 and n % 2 == 0:
        step = 1  # p^s
        while n // step % p == 0:
            step *= p
        nu = next(a for a in range(2, p) if _legendre(a, p) == -1)
        c = (nu - 1) * pow(n // step, -1, p)
        for j in range(n // step):
            T[j * step] = (T[j * step] + (-1) ** j * c) % p
    return T


def _form_data(R: addpoly.AdditivePoly, k: int):
    """Gram data (p, n, B, qvec) of Q on F_{q^k}: B the polar matrix B(x, y) =
    Tr(x R(y) + y R(x)), qvec the values Q(basis), in the basis x^j beta^{p^l}
    of F_{p^a} (x) F_{p^b} of the module docstring, ordered by l first. As
    Tr(u v) = Tr(u) Tr(v) across the factors, R = sum_i a_i x^{p^i} gives
    Tr(x^j beta^{p^l} R(x^{j'} beta^{p^{l'}})) = g_{jj'}[l' - l], g_{jj'}[d] =
    sum_i H_i[j][j'] T_{d+i}, H_i[j][j'] = Tr(x^j a_i (x^{j'})^{p^i}) on
    F_{p^a}, read from its trace sequence by `_hankel_blocks`. T must be symmetric with t(1) = sum_d T_d
    a nonzero square and, for p odd and b even, t(-1) a nonsquare."""
    p = R.p
    n = R.base.n * k
    f = R.base.n if any(any(c.coords[1:]) for c in R.coeffs) else 1
    a, r = 1, math.gcd(n, 2 * f if p == 2 and n % 4 == 0 else f)
    while r > 1:
        a *= r
        r = math.gcd(n // a, r)
    b = n // a
    T = _normal_traces(p, b)
    if (
        any(T[d] != T[-d] for d in range(b))
        or _legendre(sum(T), p) != 1
        or (p != 2 and b % 2 == 0 and _legendre(sum(T[::2]) - sum(T[1::2]), p) != -1)
    ):
        raise TheoremViolation("the trace sequence must belong to a normal basis")
    H = _hankel_blocks(R, ff.field_create(p, a))
    g = [[[sum(Hi[j][jj] * T[(d + i) % b] for i, Hi in H) % p for d in range(b)]
          for jj in range(a)] for j in range(a)]
    # B = half + half^T has entry g_{jj'}[d] + g_{j'j}[-d] at ((l, j), (l + d, j')):
    # row (l, j) is the slice at a (b - l) of E_j, these entries (d < b, j' < a) twice
    E = [[(g[j][jj][d] + g[jj][j][-d]) % p for d in range(b) for jj in range(a)] * 2 for j in range(a)]
    B = [Ej[s:s + n] for s in range(n, 0, -a) for Ej in E]
    return p, n, B, [g[j][j][0] for j in range(a)] * b


def _hankel_blocks(R: addpoly.AdditivePoly, F):
    """(i, H_i) for each nonzero a_i of R: H_i[j][j'] = Tr(x^j a_i
    (x^{j'})^{p^i}) on F = F_{p^a}, x its generator. With a_i = sum_u c_u x^u
    in F (c_0 = a_i for a_i in F_p) that is sum_u c_u s_{j + u + j' p^i},
    s_m = Tr(x^m), read from the trace sequence with j' p^i reduced mod
    p^a - 1 (x = 0 only when a = 1, where j' = 0)."""
    p, a = F.p, F.n
    period = p ** a - 1
    terms = []
    for i, c in enumerate(R.coeffs):
        if c:
            cu = ff.embed(c, F).coords if any(c.coords[1:]) else c.coords[:1]
            shifts = [jj * pow(p, i, period) % period for jj in range(a)]
            terms.append((i, [(u, x) for u, x in enumerate(cu) if x], shifts))
    s = F.power_traces(2 * a - 1 + max(max(shifts) for _, _, shifts in terms))
    return [(i, [[sum(x * s[j + u + t] for u, x in cu) % p for t in shifts] for j in range(a)])
            for i, cu, shifts in terms]


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _classify(p, n, B, qvec):
    """(value counts, radical dimension) of the form Q with polar matrix B
    and Q(e_i) = qvec[i], by symmetric congruence reduction of B for every p.

    A nonzero diagonal entry of B splits off a line (p odd only, as B(x, x)
    = 2 Q(x)); else a nonzero B(e_u, e_w) splits off a plane, hyperbolic
    unless Q(e_u) Q(e_w) != 0 (the Arf-1 plane, p = 2 only). Q is carried to
    each new basis vector. Once B is zero the rest is the radical, where Q is
    additive: if it is nonzero there (p = 2 only), each value is taken p^{n-1}
    times. Else, with s lines of Q-values d_i and the planes' signs
    multiplied into sign, eps = sign eta((-1)^{s//2} prod d_i), and a form of
    rank r takes each value t N_t times, N_t = p^{n-1} + eps p^{n-1-r//2}
    (p [t = 0] - 1) for r even and p^{n-1} + eps p^{n-1-r//2} eta(t) for r
    odd (Lidl and Niederreiter, Finite Fields, 6.2). The one assumption is
    B(e_i, e_i) = 2 Q(e_i) for every i; TheoremViolation otherwise."""
    if any((2 * qvec[i] - B[i][i]) % p for i in range(n)):
        raise TheoremViolation("the polar matrix must have B(e_i, e_i) = 2 Q(e_i)")
    M = [[x % p for x in row] for row in B]
    Q = [x % p for x in qvec]
    lines, sign = [], 1
    while M:
        piv = next(([i] for i in range(len(M)) if M[i][i]), None)
        if piv is None:
            u = next((i for i, row in enumerate(M) if any(row)), None)
            if u is None:
                break  # B is zero: the radical
            piv = [u, next(j for j, x in enumerate(M[u]) if x)]
        # swap the pivots to the front
        for slot, i in enumerate(piv):
            M[slot], M[i] = M[i], M[slot]
            Q[slot], Q[i] = Q[i], Q[slot]
            for row in M:
                row[slot], row[i] = row[i], row[slot]
        k = len(piv)
        if k == 1:
            dinv = pow(M[0][0], -1, p)
            lines.append(Q[0])
            for j in range(1, len(M)):
                t = M[j][0] * dinv % p
                if t:
                    # e_j - t e_0
                    Q[j] = (Q[j] - t * M[j][0] + t * t * Q[0]) % p
                    M[j] = [(x - t * y) % p for x, y in zip(M[j], M[0])]
        else:
            b = M[0][1]
            binv = pow(b, -1, p)
            if Q[0] * Q[1] % p:
                sign = -sign
            for j in range(2, len(M)):
                a, c = M[j][1] * binv % p, M[j][0] * binv % p
                if a or c:
                    # e_j - a e_0 - c e_1, orthogonal to both
                    Q[j] = (Q[j] + a * a * Q[0] + c * c * Q[1] - a * c * b) % p
                    M[j] = [(x - a * y - c * z) % p for x, y, z in zip(M[j], M[0], M[1])]
        M = [row[k:] for row in M[k:]]
        Q = Q[k:]
    rad = len(M)
    r = n - rad
    eps = sign * _legendre((-1) ** (len(lines) // 2) * math.prod(lines), p)
    w = 0 if any(Q) else eps * p ** (n - 1 - r // 2)
    counts = {t: p ** (n - 1) + w * (_legendre(t, p) if r % 2 else p * (t == 0) - 1) for t in range(p)}
    return counts, rad


_DISTRIBUTION_CACHE = {}


def value_distribution(R: addpoly.AdditivePoly, k: int) -> dict:
    """Exact counts {t: #{x in F_{q^k} : Tr(x R(x)) = t}} for t in F_p.

    Memoized per (R, k), with the dimension of the polar form's radical
    beside it: one curve report asks for the same k from the counts, the
    zeta numerator, every character sum and the radical check. Each call
    returns a fresh dict, so a caller may change it without touching the memo.
    """
    if R.is_zero():
        raise ValidationError("R must be nonzero")
    if k < 1:
        raise ValidationError("k must be >= 1")
    key = (R, k)
    if key not in _DISTRIBUTION_CACHE:
        p, n, B, qvec = _form_data(R, k)
        out, rad = _classify(p, n, B, qvec)
        if sum(out.values()) != p ** n:
            raise TheoremViolation("value counts must exhaust the space")
        _DISTRIBUTION_CACHE[key] = out, rad
    return dict(_DISTRIBUTION_CACHE[key][0])


def radical_dimension(R: addpoly.AdditivePoly, k: int) -> int:
    """F_p-dimension of the radical of B(x, y) = Tr(x R(y) + y R(x)) on F_{q^k}."""
    value_distribution(R, k)
    return _DISTRIBUTION_CACHE[(R, k)][1]


def point_count(R: addpoly.AdditivePoly, k: int) -> int:
    """Affine points of y^p - y = x R(x) over F_{q^k}: p per trace-zero x."""
    return R.p * value_distribution(R, k)[0]


def point_counts(R: addpoly.AdditivePoly, kmax: int) -> list:
    return [point_count(R, k) for k in range(1, kmax + 1)]


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

    def weil_bounds_ok(self):
        """Whether every reciprocal root lambda has |lambda|^2 = q, decided exactly.

        The lambda-polynomial P(x) = sum c_j x^{2g-j} is the list read
        leading-first. Under the Weil bounds its roots pair off as lambda and
        q/lambda, so P satisfies the functional equation, and a sign -1 forces
        the factor x^2 - q, whose quotient has sign +1. With sign +1, P(x) =
        x^h H(x + q/x) for H in Z[y] of degree h, and both roots of
        x^2 - y x + q have |x|^2 = q exactly when y is real with y^2 <= 4q:
        when y^2 is a real number in [0, 4q]. The values y^2 are the roots of
        K(y^2) = H(y) H(-y), so one Sturm count over the rationals decides.
        """
        sign = self.functional_equation_sign()
        if sign is None:
            return False
        q, P = self.q, self.coeffs[::-1]
        if sign == -1:
            P, r = poly.divmod(P, [-q, 0, 1])
            if r:
                raise TheoremViolation("a functional equation of sign -1 needs the factor x^2 - q")
        h = (len(P) - 1) // 2
        # x^-h P(x) = b_0 + sum_k b_k (x^k + (q/x)^k) with b_k = P[h + k],
        # and x^k + (q/x)^k = D_k(y), D_{k+1} = y D_k - q D_{k-1}
        H, D0, D1 = [P[h]], [2], [0, 1]
        for k in range(1, h + 1):
            H = poly.add(H, [P[h + k] * c for c in D1])
            D0, D1 = D1, poly.sub([0] + D1, [q * c for c in D0])
        HH = poly.mul(H, [c * (-1) ** j for j, c in enumerate(H)])
        K = _squarefree([Fraction(c) for c in HH[::2]])
        for r in (0, 4 * q):
            if poly.horner(K, r) == 0:
                K = poly.divmod(K, [-r, 1])[0]
        return _sturm_count(K, 0, 4 * q) == len(K) - 1


def _squarefree(f):
    """Exact square-free part of a rational polynomial (Euclid's gcd)."""
    return poly.divmod(f, poly.gcd(f, poly.derivative(f)))[0]


def _sturm_count(f, a, b):
    """Distinct roots in (a, b) of a square-free rational f with
    f(a) f(b) != 0 (Sturm's theorem)."""
    seq, r = [f], poly.derivative(f)
    while r:
        seq.append(r)
        r = [-c for c in poly.divmod(seq[-2], seq[-1])[1]]

    def changes(x):
        signs = [v > 0 for v in (poly.horner(s, x) for s in seq) if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def _newton_exp(sums, one, divide):
    """Coefficients c_0 = one, c_1, ..., c_n of exp(sum_k a_k T^k / k) from
    the power sums a_1..a_n (Newton's identities: n c_n = sum_{i<=n} a_i
    c_{n-i}). divide(x, n) is the caller's exact division by n, which raises
    when n does not divide x."""
    coeffs = [one]
    for n in range(1, len(sums) + 1):
        acc = sums[0] * coeffs[n - 1]
        for i in range(2, n + 1):
            acc = acc + sums[i - 1] * coeffs[n - i]
        coeffs.append(divide(acc, n))
    return coeffs


def _newton_log(coeffs, n, known=()):
    """Power sums a_1..a_n of the polynomial sum_j c_j T^j with c_0 = 1, that
    is log(sum_j c_j T^j) = sum_k a_k T^k / k (Newton's identities: a_k =
    k c_k - sum_{i<k} a_i c_{k-i}, with c_j = 0 past the degree). The power
    sums in the prefix known are taken as given."""
    deg = len(coeffs) - 1
    sums = list(known[:n])
    for k in range(len(sums) + 1, n + 1):
        acc = k * coeffs[k] if k <= deg else coeffs[0] * 0  # zero of the ring
        for i in range(max(1, k - deg), k):
            acc = acc - sums[i - 1] * coeffs[k - i]
        sums.append(acc)
    return sums


def _divide_int(a, n):
    if a % n:
        raise TheoremViolation("a Newton step must divide exactly: non-integral zeta coefficient")
    return a // n


def zeta_numerator(R: addpoly.AdditivePoly) -> ZetaNumerator:
    """Reconstruct the numerator from counts N_1..N_{2g} by Newton's identities.

    Its power sums are N_k - q^k, log Z = sum_k (N_k - q^k) T^k / k (one
    point at infinity); every division in the recursion must be exact over
    the integers.
    """
    g = genus(R)
    q = R.base.order
    sums = [N - q ** k for k, N in enumerate(point_counts(R, 2 * g), start=1)]
    Z = ZetaNumerator(q, g, _newton_exp(sums, 1, _divide_int))
    if Z.functional_equation_sign() is None:
        raise ValidationError("zeta numerator fails its functional equation")
    return Z


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[zeta_p] and character L-polynomials


class Cyc:
    """Element of Z[zeta_p] as a coordinate vector of Python ints in the basis
    1..zeta^{p-2}."""

    __slots__ = ("p", "vec")

    def __init__(self, p, vec=None):
        self.p = p
        v = [] if vec is None else list(vec)
        if len(v) > p - 1:
            raise ValidationError("too many coordinates for Q(zeta_p)")
        self.vec = v + [0] * (p - 1 - len(v))

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
        conv = poly.mul(self.vec, other.vec)
        conv += [0] * (2 * p - 2 - len(conv))  # degrees up to 2p - 4, and p - 1 when p = 2
        # zeta^k = zeta^{k-p} for k >= p, then zeta^{p-1} = -(1 + ... + zeta^{p-2})
        for k in range(p, 2 * p - 3):
            conv[k - p] += conv[k]
        top = conv[p - 1]
        return Cyc(p, [c - top for c in conv[: p - 1]])

    __rmul__ = __mul__

    def divide(self, n):
        """self / n, which must lie in Z[zeta_p]: n divides every coordinate."""
        if any(a % n for a in self.vec):
            raise TheoremViolation("a Newton step must divide exactly: L-polynomial coefficient is not an algebraic integer")
        return Cyc(self.p, [a // n for a in self.vec])

    def __eq__(self, other):
        return isinstance(other, Cyc) and self.p == other.p and self.vec == other.vec

    def __repr__(self):
        return f"Cyc{tuple(str(c) for c in self.vec)}"

    def is_zero(self):
        return all(c == 0 for c in self.vec)

    def __bool__(self):
        return not self.is_zero()

    def trace(self):
        """Tr to Q, the sum of the p - 1 conjugates: Tr(1) = p - 1 and
        Tr(zeta^j) = -1 for 0 < j < p."""
        return self.p * self.vec[0] - sum(self.vec)


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
    """S_k = sum over x in F_{q^k} of zeta_p^{c Tr(x R(x))}, exactly: each
    count of a value t goes to the power c t, and zeta^{p-1} folds back."""
    p = R.p
    full = [0] * p
    for t, cnt in value_distribution(R, k).items():
        full[c * t % p] += cnt
    return Cyc(p, [a - full[p - 1] for a in full[: p - 1]])


def psi_l_polynomial(R: addpoly.AdditivePoly, c: int) -> PsiLPolynomial:
    """L(psi_c, T) = exp(sum_k S_k T^k / k), which must terminate at degree p^e.

    Computed through degree p^e + PSI_SLACK; the extra coefficients must
    vanish and every coefficient must be an algebraic integer.
    """
    p = R.p
    if not (1 <= c <= p - 1):
        raise ValidationError("character index must be a unit mod p")
    return PsiLPolynomial(p, c, _psi_l_coefficients(R, c))


def _psi_l_coefficients(R, c):
    p = R.p
    deg = p ** R.p_degree
    S = [character_sum(R, c, k) for k in range(1, deg + PSI_SLACK + 1)]
    coeffs = _newton_exp(S, Cyc.integer(p, 1), Cyc.divide)
    if any(coeffs[deg + 1:]):
        raise ValidationError("L-series does not terminate at degree p^e")
    if coeffs[deg].is_zero():
        raise ValidationError("L-polynomial has degree below p^e")
    return coeffs[: deg + 1]


# ---------------------------------------------------------------------------
# Supersingularity: eigenvalue ratios must be roots of unity (exact test)


def _ratio_polynomial_is_integral(Z: ZetaNumerator) -> bool:
    """Whether D(z) = prod (z - lambda^2 / q), which is monic, lies in Z[z]."""
    q, A = Z.q, Z.coeffs[::-1]  # A(x) = prod (x - lambda)
    # C(y) with roots lambda^2: A(x) A(-x) = C(x^2)
    prod = poly.mul(A, [c * (-1) ** i for i, c in enumerate(A)])
    if any(prod[1::2]):
        raise TheoremViolation("A(x) A(-x) must be even")
    C = prod[::2]
    if C[-1] != 1:
        raise TheoremViolation("the squared eigenvalue polynomial must be monic")
    # D(z) = C(q z) / q^{2g}
    return all(c * q ** j % q ** (2 * Z.g) == 0 for j, c in enumerate(C))


def check_supersingular(Z: ZetaNumerator) -> bool:
    """All lambda^2 / q roots of unity, decided exactly (Kronecker, see the
    module docstring): D(z) must be integral and every |lambda|^2 must be q.

    curve_summary checks the Weil bounds itself and reads only the first
    test; this whole test is for a library user holding a ZetaNumerator
    from elsewhere, as demo 05 does with zeta_numerator's."""
    return _ratio_polynomial_is_integral(Z) and Z.weil_bounds_ok()


def _newton_check_runs(R: addpoly.AdditivePoly) -> bool:
    """Whether q^{2g} <= NEWTON_CHECK_BOUND, tested on the exponent first:
    q^{2g} >= 2^{2gf} > NEWTON_CHECK_BOUND once 2gf > 64, so q^{2g} is formed
    only when it has at most 64 log2(p) bits."""
    two_g = 2 * genus(R)
    return two_g * R.base.n <= 64 and R.base.order ** two_g <= NEWTON_CHECK_BOUND


def check_curve_work(R: addpoly.AdditivePoly, max_k: int = None):
    """Pre-flight guard of a curve summary, before any field is built.

    Returns (kmax, top): kmax = max_k, or 2g by default, and top the largest
    k whose form the summary builds, p^e + PSI_SLACK for L(psi_1) or 2g when
    the Newton cross-check runs. `check_max_k` runs on max_k first and on
    kmax last; between them, AmbientGuardError is raised when F_{q^top} has
    more than 2^CURVE_FIELD_BITS_BOUND elements, or when the work in
    Z[zeta_p] exceeds CYC_PRODUCT_BOUND coordinate products: the power sums
    of L(psi_1) up to 2g take 2g p^e products of p - 1 coordinates by p - 1,
    (p - 1)^3 p^{2e} in all.
    """
    check_max_k(R, max_k)
    g = genus(R)
    p = R.p
    top = p ** R.p_degree + PSI_SLACK
    if _newton_check_runs(R):
        top = max(top, 2 * g)
    q = R.base.order
    # the exponent test refuses before q^top is formed; past it, q^top has
    # at most 2 CURVE_FIELD_BITS_BOUND bits
    if top * (q.bit_length() - 1) > CURVE_FIELD_BITS_BOUND or q ** top > 2 ** CURVE_FIELD_BITS_BOUND:
        # top past 64 bits is p^e + PSI_SLACK, named without printing p^e
        degree = R.base.n * top if top.bit_length() <= 64 else f"k with k = {R.base.n} ({p}^{R.p_degree} + {PSI_SLACK})"
        raise AmbientGuardError(
            f"the curve section needs F_{p}^{degree}, beyond the "
            f"2^{CURVE_FIELD_BITS_BOUND}-element curve field guard"
        )
    products = (p - 1) ** 3 * p ** (2 * R.p_degree)
    if products > CYC_PRODUCT_BOUND:
        raise AmbientGuardError(
            f"L(psi_1) and its power sums in Z[zeta_{p}] are estimated at "
            f"{products:.2e} coordinate products, beyond the "
            f"{CYC_PRODUCT_BOUND:.0e} curve product guard"
        )
    kmax = 2 * g if max_k is None else max_k
    check_max_k(R, kmax)
    return kmax, top


def check_max_k(R: addpoly.AdditivePoly, max_k: int) -> None:
    """Refuses a max_k below 0, or one whose last count N_K <= q^K + 2g
    q^{K/2} could have more decimal digits than Python converts to a string
    (sys.get_int_max_str_digits(), 0 for no limit). The test is on the log10
    of that bound, K log10 q + log10(1 + 2g q^{-K/2}), before q^K is formed."""
    if max_k is None:
        return
    if max_k < 0:
        raise ValidationError(f"max_k must be >= 0, got {max_k}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    q = R.base.order
    if digits and max_k * math.log10(q) + math.log10(1 + 2 * genus(R) * q ** (-max_k / 2)) > digits - 1e-9:
        raise ValidationError(f"max_k = {max_k} is too large: N_{max_k} could have more than {digits} digits")


def _zeta_from_psi_1(R: addpoly.AdditivePoly, L1: PsiLPolynomial) -> ZetaNumerator:
    """Z = prod_{c=1}^{p-1} sigma_c(L(psi_1)), so log Z = sum_k Tr(S_k) T^k / k
    with S_k the power sums of L(psi_1): the character sums for k <= p^e +
    PSI_SLACK, and Newton's identities on L(psi_1)'s coefficients past them."""
    two_g = 2 * genus(R)
    near = R.p ** R.p_degree + PSI_SLACK
    S = _newton_log(L1.coeffs, two_g, [character_sum(R, 1, k) for k in range(1, near + 1)])
    return ZetaNumerator(R.base.order, two_g // 2, _newton_exp([s.trace() for s in S], 1, _divide_int))


def counts_from_zeta(Z: ZetaNumerator, kmax: int) -> list:
    """Affine counts N_k = q^k + a_k for k <= kmax, a_k the power sums of Z,
    log Z = sum_k a_k T^k / k (Newton's identities read backwards)."""
    return [Z.q ** k + a for k, a in enumerate(_newton_log(Z.coeffs, kmax), start=1)]


def _check_radicals(R, S, top):
    """Radical of the polar form on F_{q^k} = ker E cap F_{q^k} = ker(S^k - 1),
    S the q-Frobenius on the module ker E, for every k <= top. S^k depends
    only on k mod the order s of S, so only the fixed spaces of S, ..., S^s
    (or S^top, if that comes first) are formed."""
    unit, Sk, fixed = linalg.identity(len(S)), S, []
    while True:
        fixed.append(len(linalg.fixed_space(Sk, R.p)))
        if Sk == unit or len(fixed) == top:
            break
        Sk = linalg.mat_mul(Sk, S, R.p)
    for k in range(1, top + 1):
        if radical_dimension(R, k) != fixed[(k - 1) % len(fixed)]:
            raise TheoremViolation(f"the polar form on F_q^{k} must have ker E cap F_q^{k} as its radical")


def curve_summary(R: addpoly.AdditivePoly, max_k: int = None, frobenius=None) -> dict:
    """Counts, genus, zeta numerator, supersingularity and character degrees.

    Z is the product of the p - 1 Galois conjugates of L(psi_1), formed from
    the traces of L(psi_1)'s power sums, so only the fields F_{q^k} with
    k <= p^e + PSI_SLACK are needed. While q^{2g} <= NEWTON_CHECK_BOUND, Z
    must also equal the numerator Newton's identities give from the direct
    counts N_1..N_{2g}. Z must satisfy its functional equation and the Weil
    bounds, and its power sums must give the direct counts for
    k <= p^e + PSI_SLACK. The counts N_1..N_{max_k} are read from Z's power
    sums. Given the matrix S of the q-Frobenius on the module ker E, every
    radical of a polar form built is also checked against ker(S^k - 1).
    """
    kmax, top = check_curve_work(R, max_k)
    L1 = psi_l_polynomial(R, 1)
    Z = _zeta_from_psi_1(R, L1)
    sign = Z.functional_equation_sign()
    if sign is None:
        raise TheoremViolation("zeta numerator fails its functional equation")
    weil = Z.weil_bounds_ok()
    if not weil:
        raise TheoremViolation("zeta numerator fails the Weil bounds")
    if _newton_check_runs(R) and zeta_numerator(R).coeffs != Z.coeffs:
        raise TheoremViolation("L(psi_1) and the direct counts give different zeta numerators")
    near = R.p ** R.p_degree + PSI_SLACK
    if counts_from_zeta(Z, near) != point_counts(R, near):
        raise TheoremViolation("the power sums of Z disagree with the direct counts")
    if frobenius is not None:
        _check_radicals(R, frobenius, top)
    return {
        "counts": counts_from_zeta(Z, kmax),
        "genus": Z.g,
        "zeta_numerator": Z.coeffs,
        "functional_equation_sign": sign,
        "weil_bounds_ok": weil,
        # the Weil bounds hold, so Kronecker leaves integrality to decide
        "supersingular": _ratio_polynomial_is_integral(Z),
        "psi_L_degrees": [L1.degree] * (R.p - 1),
    }
