"""Exact arithmetic in finite fields F_{p^n}.

Every field is a quotient F_p[x]/(modulus) where the modulus is the
lexicographically least monic irreducible of its degree (coefficient tuple
ordered constant-first), so all descriptions are reproducible across runs
with no stored tables. The search tries candidates in that order with
Ben-Or's test (Ben-Or 1981; von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 14) on int lists; it rejects most candidates after one or two
Frobenius steps, and its rows x^{jp} mod m are the field's Frobenius matrix.
Elements are coordinate vectors in the power basis. The product of two is
poly.mul of their coordinate lists folded by the nonzero low terms of the
modulus (_fp_fold): this module reduces by p and by a modulus, and has no
polynomial product of its own. Subfield embeddings map the source generator
to the lexicographically least root of the source modulus in the target,
which makes them canonical too.

Nothing in this module rounds: coordinates are Python ints mod p.
"""

import itertools
import random
from math import gcd

from . import poly
from .errors import TheoremViolation, ValidationError
from .linalg import fixed_space, identity, mat_mul, mat_vec, transpose
from .linalg import solve as _solve_mod
from .numth import is_prime, multiplicative_order, prime_factors

# Structural cap on extension degrees; the per-computation 2^40 ambient
# guard lives in ambient.py where whole contexts are assembled.
MAX_DEGREE = 512


# ---------------------------------------------------------------------------
# Reductions of int coefficient lists (constant first) by p and by a
# modulus; products come from poly.mul, whose int coefficients they reduce

def _fp_divmod(a, m, p):
    """Quotient and remainder of a by a nonzero trimmed m; coefficients are
    reduced mod p only where they are read, so the inner loop does no
    division."""
    dm = len(m) - 1
    if len(a) <= dm:
        return [], poly.trim([c % p for c in a])
    a = list(a)
    inv = pow(m[-1], -1, p)
    low = m[:-1]
    q = [0] * (len(a) - dm)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] * inv % p
        if c:
            off = top - dm
            q[off] = c
            for i, mi in enumerate(low):
                a[off + i] -= c * mi
    return poly.trim(q), poly.trim([c % p for c in a[:dm]])


def _fp_fold(a, n, terms, p):
    """a mod a monic m of degree n, as n coefficients mod p; terms are the
    nonzero (i, m_i) with i < n (least moduli are sparse). The coefficients
    of a may be any ints, such as poly.mul's unreduced products: each is
    reduced where it is read. a is consumed."""
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top] % p
        if c:
            for i, mi in terms:
                a[top - n + i] -= c * mi
    return [x % p for x in a[:n]] + [0] * (n - len(a))


def _frobenius_rows(m, p):
    """x^{jp} mod the monic m for j = 0, 1, ..., lazily, n coefficients each.
    While p < n the next row is a shift by p and p folds; else a product
    with x^p mod m from square and multiply, so no p ever costs p shifts."""
    n, terms = len(m) - 1, [(i, c) for i, c in enumerate(m[:-1]) if c]
    row = xp = [1] + [0] * (n - 1)
    yield row
    while p < n:
        row = _fp_fold([0] * p + row, n, terms, p)
        yield row
    for bit in bin(p)[2:]:
        xp = _fp_fold(poly.mul(xp, xp), n, terms, p)
        if bit == "1":
            xp = _fp_fold([0] + xp, n, terms, p)
    while True:
        row = _fp_fold(poly.mul(row, xp), n, terms, p)
        yield row


def _fp_coprime(a, b, p):
    """Whether gcd(a, b) = 1 for trimmed a, b, by Euclid in one loop; a
    quotient of degree 1, the usual case, is one pass over the remainder."""
    while len(b) > 1:
        db, inv = len(b) - 1, pow(b[-1], -1, p)
        if len(a) == db + 2:
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * b[-2]) * inv % p
            a = [(x - q1 * y - q0 * z) % p for x, y, z in zip(a, [0] + b, b[:-1])]
        else:
            for top in range(len(a) - 1, db - 1, -1):
                c = a[top] * inv % p
                if c:
                    a[top - db:top] = [x - c * y for x, y in zip(a[top - db:top], b)]
            a = [x % p for x in a[:db]]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return bool(b)


def _fp_is_irreducible(m, p):
    """Ben-Or's test for a monic m of degree n over F_p: gcd(x^{p^i} - x, m)
    = 1 for every i <= n/2, since a factor of degree d divides x^{p^d} - x.

    While P = p^i < n, x^P is reduced already and m mod (x^P - x) is a fold.
    After that each step is h <- h^p = h(x^p), one product with the rows
    x^{jp} mod m that h reads. Most reducible m stop at a small i, where the
    Rabin test would always raise x to the p^n-th power.
    """
    n = len(m) - 1
    if n <= 1:
        return n == 1
    P, i = p, 1
    while P < n and i <= n // 2:
        xP = [0, p - 1] + [0] * (P - 2) + [1]
        if not _fp_coprime(xP, poly.trim(_fp_fold(list(m), P, [(1, p - 1)], p)), p):
            return False
        P, i = P * p, i + 1
    rows, made, h = _frobenius_rows(m, p), [], [0] * n
    h[P // p] = 1  # x^{P/p}, reduced as P/p < n
    for _ in range(i, n // 2 + 1):
        made.extend(itertools.islice(rows, max(len(poly.trim(h[:])) - len(made), 0)))
        acc = [0] * n
        for hj, row in zip(h, made):
            if hj:
                acc = [a + hj * r for a, r in zip(acc, row)]
        h = [c % p for c in acc]
        if not _fp_coprime(list(m), poly.trim([h[0], (h[1] - 1) % p, *h[2:]]), p):
            return False
    return True


def _least_irreducible(p, n):
    """Lexicographically least monic irreducible of degree n (constant first).

    Zero constant term never happens for n >= 2, so that whole block of the
    lexicographic order is skipped rather than enumerated.
    """
    if n == 1:
        return (0, 1)
    for c0 in range(1, p):
        for tail in _coordinate_tuples(p, n - 1):
            m = [c0, *tail, 1]
            if _fp_is_irreducible(m, p):
                return tuple(m)
    raise TheoremViolation("no irreducible found (impossible)")


def _coordinate_tuples(p, n):
    """All n-tuples over 0..p-1 in lexicographic order, lazily: unlike
    itertools.product it never builds range(p), so stopping early costs
    nothing whatever the size of p."""
    if n == 0:
        yield ()
        return
    for head in _coordinate_tuples(p, n - 1):
        for c in range(p):
            yield head + (c,)


# ---------------------------------------------------------------------------

_FIELD_CACHE = {}


def field_create(p: int, n: int) -> "Field":
    """The canonical description of F_{p^n} (interned per (p, n))."""
    key = (p, n)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if n < 1:
        raise ValidationError(f"extension degree must be >= 1, got {n}")
    if n > MAX_DEGREE:
        raise ValidationError(f"extension degree {n} exceeds structural cap {MAX_DEGREE}")
    F = Field(p, n, _least_irreducible(p, n))
    _FIELD_CACHE[key] = F
    return F


class Field:
    """Immutable description of F_{p^n}: the modulus, its nonzero low terms,
    which fold every product, and cached Frobenius and embedding tables."""

    __slots__ = (
        "p", "n", "modulus", "_terms", "_frob", "_zero", "_one", "_embed_cache", "_mu",
        "_order_primes",
    )

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.modulus = tuple(modulus)
        # the nonzero low terms of the modulus, which fold every product
        self._terms = [(i, c) for i, c in enumerate(modulus[:-1]) if c]
        self._frob = {}
        self._zero = FieldElement(self, (0,) * n)
        self._one = FieldElement(self, tuple([1] + [0] * (n - 1)))
        self._embed_cache = {}
        self._mu = {}  # d -> (sorted mu_d, canonical root of order d)
        self._order_primes = None  # prime factors of p^n - 1, on first use

    @property
    def order(self):
        return self.p ** self.n

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def el(self, coords) -> "FieldElement":
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != self.n:
            raise ValidationError(f"need {self.n} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def constant(self, c: int) -> "FieldElement":
        return FieldElement(self, tuple([c % self.p] + [0] * (self.n - 1)))

    def gen(self) -> "FieldElement":
        if self.n == 1:
            return self._one
        return FieldElement(self, tuple([0, 1] + [0] * (self.n - 2)))

    def elements(self):
        """All elements in canonical (coordinate-lex) order, made one at a time."""
        for coords in _coordinate_tuples(self.p, self.n):
            yield FieldElement(self, coords)

    # -- raw coordinate arithmetic ------------------------------------------

    def _mul(self, a, b):
        if self.n == 1:
            return (a[0] * b[0] % self.p,)
        return tuple(_fp_fold(poly.mul(a, b), self.n, self._terms, self.p))

    def _inv(self, a):
        # extended Euclid in F_p[x] against the modulus
        p = self.p
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = list(self.modulus), poly.trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r2 = _fp_divmod(r0, r1, p)
            r0, r1 = r1, r2
            s2 = [(x - y) % p for x, y in itertools.zip_longest(s0, poly.mul(q, s1), fillvalue=0)]
            s0, s1 = s1, poly.trim(s2)
        c = pow(r0[-1], p - 2, p)
        inv = [x * c % p for x in s0]
        inv += [0] * (self.n - len(inv))
        return tuple(inv[: self.n])

    def frobenius_matrix(self, k: int):
        """Matrix (columns) of x -> x^{p^k} as an F_p-linear map. A power not
        cached yet is the product of its two halves, which are cached too."""
        k %= self.n
        if k not in self._frob:
            if k == 0:
                M = identity(self.n)
            elif k == 1:
                # columns are images of the basis, (x^j)^p = x^{jp}: Ben-Or's rows
                M = transpose(itertools.islice(_frobenius_rows(list(self.modulus), self.p), self.n))
            else:
                h = k // 2
                M = mat_mul(self.frobenius_matrix(h), self.frobenius_matrix(k - h), self.p)
            self._frob[k] = M
        return self._frob[k]

    def power_traces(self, count=None):
        """Absolute traces Tr(x^m), m < count (default 2n - 1, at least n),
        of the powers of the generator.

        For m < n they are the power sums of the roots of the modulus, by
        Newton's identities, and must equal the traces of the multiplication
        matrices of x^m, read off the rows x^{n+j} mod modulus (j <= n - 2);
        past them the modulus recurrence s_m = -sum_t c_t s_{m-n+t} gives
        the rest.
        """
        p, n, c = self.p, self.n, self.modulus
        s = [n % p]
        for i in range(1, n):
            s.append(-(i * c[n - i] + sum(c[n - k] * s[i - k] for k in range(1, i))) % p)
        red = [_fp_fold([0] * (n + j) + [1], n, self._terms, p) for j in range(n - 1)]
        diag = [sum(red[i + k - n][k] for k in range(n - i, n)) % p for i in range(1, n)]
        if s[1:] != diag:
            raise TheoremViolation("Newton's identities and the multiplication matrices disagree on a trace")
        for m in range(n, 2 * n - 1 if count is None else count):
            s.append(-sum(ct * s[m - n + t] for t, ct in self._terms) % p)
        return s

    def mult_matrix(self, a: "FieldElement"):
        """Matrix (columns) of multiplication by a."""
        cols = [list(a.coords)]
        for _ in range(1, self.n):
            cols.append(_fp_fold([0] + cols[-1], self.n, self._terms, self.p))  # times x
        return transpose(cols)

    def __repr__(self):
        return f"F_{self.p}^{self.n}"

    def __reduce__(self):  # keep interning through pickling
        return (field_create, (self.p, self.n))


class FieldElement:
    """One element of a Field, as a power-basis coordinate tuple."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    # -- basics --------------------------------------------------------------

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coords == other.coords
        if isinstance(other, int):
            return self == self.field.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.coords))

    def __repr__(self):
        return format_element(self)

    def as_vector(self):
        return list(self.coords)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValidationError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.coords, o.coords))

    __rmul__ = __mul__

    def inverse(self):
        return FieldElement(self.field, self.field._inv(self.coords))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.field.constant(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def frobenius(self, k: int = 1):
        """x^{p^k}, computed by the cached Frobenius matrix."""
        F = self.field
        k %= F.n
        if k == 0:
            return self
        return FieldElement(F, tuple(mat_vec(F.frobenius_matrix(k), self.coords, F.p)))


# ---------------------------------------------------------------------------
# Field maps


def frobenius(x: FieldElement, k: int) -> FieldElement:
    """x^{p^k} (an additive and multiplicative homomorphism)."""
    if k < 0:
        raise ValidationError("frobenius exponent must be >= 0")
    return x.frobenius(k % x.field.n)


def norm_trace(x: FieldElement, sub_degree: int):
    """Norm and trace of x down to F_{p^sub_degree}, returned in that field."""
    F = x.field
    if sub_degree < 1 or F.n % sub_degree != 0:
        raise ValidationError(f"{sub_degree} does not divide field degree {F.n}")
    steps = F.n // sub_degree
    tr = x
    nr = x
    cur = x
    for _ in range(steps - 1):
        cur = cur.frobenius(sub_degree)
        tr = tr + cur
        nr = nr * cur
    sub = field_create(F.p, sub_degree)
    return project_to_subfield(nr, sub), project_to_subfield(tr, sub)


def embed(x: FieldElement, target: Field) -> FieldElement:
    """Canonical ring embedding of x's field into target (least-root rule)."""
    S, T = x.field, target
    if S is T:
        return x
    if S.p != T.p or T.n % S.n != 0:
        raise ValidationError(f"no embedding F_{S.p}^{S.n} -> F_{T.p}^{T.n}")
    return FieldElement(T, tuple(mat_vec(_embedding_matrix(S, T), x.coords, T.p)))


def project_to_subfield(x: FieldElement, sub: Field) -> FieldElement:
    """Inverse of embed on its image; x must be fixed by the subfield Frobenius."""
    F = x.field
    if sub is F:
        return x
    if x.frobenius(sub.n) != x:
        raise ValidationError("element is not in the requested subfield")
    M = _embedding_matrix(sub, F)
    c = _solve_mod(M, x.coords, F.p)
    if c is None:
        raise TheoremViolation("subfield projection must be solvable")
    return sub.el(c)


def _embedding_matrix(S: Field, T: Field):
    """Columns rho^j (j < S.n) for the least root rho of S.modulus in T."""
    key = (S.p, S.n)
    if key in T._embed_cache:
        return T._embed_cache[key]
    if S.n == 1:
        M = [[int(i == 0)] for i in range(T.n)]
    else:
        rho = _least_root(S, T)
        cols = []
        cur = T.one()
        for _ in range(S.n):
            cols.append(cur.coords)
            cur = cur * rho
        M = transpose(cols)
    T._embed_cache[key] = M
    return M


# A proper factor turns up with probability about 1/2 per draw, so a
# correct split never comes near this cap; it only stops a broken one.
_SPLIT_ATTEMPTS = 128


def _least_root(S: Field, T: Field) -> FieldElement:
    """Least root (by coords) in T of g = S.modulus, of degree s = S.n.

    The roots of g are one Frobenius orbit rho0^{p^i} (i < s) inside the
    degree-s subfield K = ker(Frob^s - 1) of T, so one root gives them all.
    That root comes from equal-degree splitting with parameters a, d in K:
    for a root r of g, d r + a lies in K, so (d r + a)^((p^s - 1)/2) is 0 or
    +-1 (p odd) and sum_{i<s} (d r + a)^{2^i} is 0 or 1 (p = 2), and a gcd
    with g splits the roots by that value. g splits completely in T, so there
    is no strip to linear factors, and only the smaller factor is followed.
    """
    p, s = T.p, S.n
    g = [T.constant(c) for c in S.modulus]
    K = fixed_space(T.frobenius_matrix(s), p)
    if len(K) != s:
        raise TheoremViolation("the fixed field of Frob^s must have degree s")
    rho0 = _one_root(g, K, T)
    if poly.horner(g, rho0):
        raise TheoremViolation("splitting must end at a root of the modulus")
    orbit = {rho0}
    cur = rho0
    for _ in range(s - 1):
        cur = cur.frobenius(1)
        orbit.add(cur)
    if len(orbit) != s:
        raise TheoremViolation("irreducible modulus must have s distinct roots in the target")
    return min(orbit, key=lambda r: r.coords)


def _one_root(g, K_rows, T: Field) -> FieldElement:
    """One root in T of the monic g, whose roots all lie in the subfield
    spanned by K_rows; the parameters come from that span under a seed
    fixed per (p, T.n), so the split is reproducible."""
    p, s = T.p, len(K_rows)
    rng = random.Random(0x5EED ^ (p * 1000003 + T.n))

    def draw():
        cs = [rng.randrange(p) for _ in K_rows]
        return T.el([sum(c * row[j] for c, row in zip(cs, K_rows)) for j in range(T.n)])

    while len(g) > 2:
        for _ in range(_SPLIT_ATTEMPTS):
            a, d = draw(), draw()
            if d.is_zero():
                continue
            h = poly.gcd(g, _split_poly([a, d], g, s, T))
            if 0 < len(h) - 1 < len(g) - 1:
                break
        else:
            raise TheoremViolation("equal-degree splitting found no proper factor")
        other = poly.divmod(g, h)[0]
        g = h if len(h) <= len(other) else other
    return -g[0] / g[1]


def _split_poly(y, g, s, T):
    """The splitting map of y mod g over a degree-s field inside T: the trace
    sum_{i<s} y^{2^i} for p = 2, else y^((p^s - 1)/2) - 1."""
    if T.p != 2:
        return poly.sub(poly.powmod(y, (T.p ** s - 1) // 2, g), [T.one()])
    acc = poly.divmod(y, g)[1]
    w = acc
    for _ in range(s - 1):
        acc = poly.divmod(poly.mul(acc, acc), g)[1]
        w = poly.add(w, acc)
    return w


def roots_of_unity(F: Field, d: int):
    """All of mu_d in F, sorted canonically (a fresh list). d must divide p^n - 1."""
    return list(_mu_data(F, d)[0])


def canonical_root_of_unity(F: Field, d: int) -> FieldElement:
    """First element of mu_d (canonical order) whose order is exactly d."""
    return _mu_data(F, d)[1]


def _mu_data(F: Field, d: int):
    """(sorted mu_d, its canonical root of order d), computed once per (F, d).

    The elements of order d are the powers zeta^k with gcd(k, d) = 1 of any
    generator zeta, so the canonical root is the least of those and needs no
    order computation, and is the same whichever generator is used. A root
    zeta_D of order D already found, with d | D, gives zeta_D^{D/d}, so the
    search for a generator runs only when no such D is cached.
    """
    if d in F._mu:
        return F._mu[d]
    if d < 1:
        raise ValidationError("d must be >= 1")
    if gcd(d, F.p) != 1 or (F.order - 1) % d != 0:
        raise ValidationError(f"{d} does not divide {F.p}^{F.n} - 1")
    zeta = next((z ** (D // d) for D, (_, z) in F._mu.items() if D % d == 0), None)
    if zeta is None:
        zeta = F.one() if d == 1 else _root_of_unity_generator(F, d)
    powers = []
    cur = F.one()
    for _ in range(d):
        powers.append(cur)
        cur = cur * zeta
    if cur != F.one() or len(set(powers)) != d:
        raise TheoremViolation("a generator of mu_d must have order exactly d")
    canonical = min((z for k, z in enumerate(powers) if gcd(k, d) == 1), key=lambda z: z.coords)
    F._mu[d] = (tuple(sorted(powers, key=lambda z: z.coords)), canonical)
    return F._mu[d]


def _root_of_unity_generator(F: Field, d: int):
    """A generator of mu_d, which lies in the subfield F_{p^a}, a = ord_d(p):
    the first y of the fixed space of Frob^a, in lex order of its
    coordinates, whose power y^((p^a - 1)/d) has order d (d > 1)."""
    p = F.p
    a = multiplicative_order(p, d)
    K = transpose(fixed_space(F.frobenius_matrix(a), p))
    cof = (p ** a - 1) // d
    ells = prime_factors(d)
    for cs in _coordinate_tuples(p, a):
        if any(cs):
            z = F.el(mat_vec(K, cs, p)) ** cof
            if all(z ** (d // ell) != F.one() for ell in ells):
                return z
    raise TheoremViolation("no generator of mu_d found (impossible)")


def _group_order_primes(F: Field):
    """Prime factors of p^n - 1, factored once per field."""
    if F._order_primes is None:
        F._order_primes = prime_factors(F.order - 1)
    return F._order_primes


def element_order(x: FieldElement) -> int:
    """Multiplicative order of a nonzero element."""
    if x.is_zero():
        raise ValidationError("zero has no multiplicative order")
    N = x.field.order - 1
    o = N
    for q in _group_order_primes(x.field):
        while o % q == 0 and x ** (o // q) == x.field.one():
            o //= q
    return o


def artin_schreier_root(t: FieldElement):
    """Some y with y^p - y = t, or None when the absolute trace of t is nonzero.

    Deterministic: the particular solution from the canonical linear solve.
    """
    F = t.field
    A = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(F.frobenius_matrix(1))]
    y = _solve_mod(A, t.coords, F.p)
    if y is None:
        return None
    return F.el(y)


# ---------------------------------------------------------------------------
# Text form "p^n:modulus_csv:coords_csv"


def format_element(x: FieldElement) -> str:
    F = x.field
    mod = ",".join(str(c) for c in F.modulus)
    co = ",".join(str(c) for c in x.coords)
    return f"{F.p}^{F.n}:{mod}:{co}"


def parse_element(s: str) -> FieldElement:
    try:
        head, mod, co = s.strip().split(":")
        p, n = (int(t) for t in head.split("^"))
    except Exception as exc:
        raise ValidationError(f"malformed element {s!r}") from exc
    F = field_create(p, n)
    modulus = tuple(int(c) % p for c in mod.split(","))
    if modulus != F.modulus:
        raise ValidationError(
            f"modulus mismatch for F_{p}^{n}: expected {F.modulus}, got {modulus}"
        )
    coords = [int(c) for c in co.split(",")]
    return F.el(coords)


__all__ = [
    "Field",
    "FieldElement",
    "field_create",
    "frobenius",
    "norm_trace",
    "embed",
    "project_to_subfield",
    "roots_of_unity",
    "canonical_root_of_unity",
    "element_order",
    "artin_schreier_root",
    "multiplicative_order",
    "format_element",
    "parse_element",
]
