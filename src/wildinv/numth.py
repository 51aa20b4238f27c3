"""Elementary integer arithmetic: primality, factoring, orders, valuations.

Everything here is exact and deterministic; sizes stay below 2^64 in practice
(group orders p^M - 1 with p^M <= 2^40), so trial division plus a
deterministic Miller-Rabin is plenty.
"""

from math import gcd

from .errors import TheoremViolation

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond 2^64)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}. Exact for any n >= 1."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 7
    # trial division; a Miller-Rabin test of each new cofactor (run only when
    # a division has changed n) stops early at a large prime cofactor
    changed = True
    while f * f <= n:
        if changed and is_prime(n):
            break
        changed = False
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
            changed = True
        else:
            f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> list:
    return sorted(factorize(n))


def multiplicative_order(a: int, d: int) -> int:
    """Least k >= 1 with a^k = 1 mod d; ord of anything mod 1 is 1."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    if gcd(a, d) != 1:
        raise ValueError(f"gcd({a}, {d}) != 1, order undefined")
    if d == 1:
        return 1
    k, x = 1, a % d
    while x != 1:
        x = x * a % d
        k += 1
        if k > d:
            raise TheoremViolation("order search exceeded modulus")
    return k
