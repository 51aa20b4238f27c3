"""Dense polynomials over one exact coefficient ring.

A polynomial is a constant-first list of coefficients, trimmed so that its
last entry is nonzero; the zero polynomial is []. Coefficients are any exact
ring elements with +, -, * and truth as "nonzero": FieldElement, Fraction,
counts.Cyc and int all qualify. mul is the library's one polynomial
product: on int lists it is the product of field coordinates, which ff
reduces by the modulus and p, and of counts.Cyc vectors, which Cyc folds by
zeta^p = 1. gcd, and divmod and powmod by a divisor that is
not monic, also divide by a leading coefficient, so they need a field
(FieldElement or Fraction); a monic divisor needs no inverse, so division
by it is exact over the integers too. Every function but trim returns fresh
lists and leaves its arguments alone.
"""


def trim(a):
    """Drop trailing zero coefficients in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return trim([x + y if y else x for x, y in zip(a, b)] + a[len(b):])


def sub(a, b):
    n = min(len(a), len(b))
    return trim([x - y for x, y in zip(a, b)] + a[n:] + [-y for y in b[n:]])


def mul(a, b):
    """Schoolbook product; zero coefficients of either factor are skipped."""
    if not a or not b:
        return []
    zero = a[-1] * 0
    out = [zero] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] = out[i + j] + x * y
    return trim(out)


def divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(list(a))
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    inv = b[-1] if b[-1] == 1 else 1 / b[-1]
    q = [None] * (len(r) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = q[top - db] = r[top] * inv
        if c:
            off = top - db
            for i in range(db):
                r[off + i] = r[off + i] - c * b[i]
    return trim(q), trim(r[:db])


def gcd(a, b):
    """Monic greatest common divisor ([] when both are zero)."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, divmod(a, b)[1]
    if not a:
        return a
    inv = 1 / a[-1]
    return [c * inv for c in a]


def powmod(a, e, m):
    """a^e mod m by square and multiply."""
    out, base = divmod([m[-1] ** 0], m)[1], divmod(a, m)[1]  # out = 1 mod m
    while e:
        if e & 1:
            out = divmod(mul(out, base), m)[1]
        e >>= 1
        if e:
            base = divmod(mul(base, base), m)[1]
    return out


def horner(a, x):
    """The value a(x)."""
    v = x * 0
    for c in reversed(a):
        v = v * x + c
    return v


def derivative(a):
    return trim([c * i for i, c in enumerate(a)][1:])
