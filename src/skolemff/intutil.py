"""Integer and cyclotomic utilities: primality, factoring, totient, Phi_k, and
the raw Z[x] / F_p[x] polynomial kernel shared by the field and factor code.

Everything here is exact big-integer arithmetic.  Integer factoring is trial
division up to 10^6 backed by a Miller-Rabin test that is deterministic below
3.3e24 (plenty for the 64-bit inputs this library promises to handle); a
surviving composite cofactor raises FactorizationTooHard instead of guessing.
"""

from __future__ import annotations

import functools
from math import gcd, lcm

from .errors import FactorizationTooHard

__all__ = [
    "gcd",
    "lcm",
    "is_prime",
    "is_probable_prime",
    "next_prime",
    "factorize",
    "euler_phi",
    "divisors",
    "valuation_int",
    "cyclotomic_poly",
    "base_digits",
    "fp_trim",
    "fp_sub",
    "fp_mul",
    "fp_divmod",
    "fp_monic",
    "fp_gcd",
    "fp_powmod",
    "fp_deriv",
    "zx_div_exact",
    "zx_primitive",
]

_TRIAL_LIMIT = 10**6

# Sprp bases making Miller-Rabin deterministic for n < 3_317_044_064_679_887_385_961_981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
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


def is_prime(n: int) -> bool:
    """Deterministic primality for n below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BELOW:
        raise FactorizationTooHard(f"primality of {n} exceeds the deterministic range")
    return _miller_rabin(n, _MR_BASES)


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test; deterministic below 3.3e24, 30 extra rounds above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if not _miller_rabin(n, _MR_BASES):
        return False
    if n < _MR_DETERMINISTIC_BELOW:
        return True
    # Fixed pseudo-random extra bases keep the test deterministic per input.
    extra = []
    x = n
    for _ in range(30):
        x = (x * 6364136223846793005 + 1442695040888963407) % (2**64)
        extra.append(2 + x % (n - 3))
    return _miller_rabin(n, extra)


def next_prime(n: int) -> int:
    """Smallest probable prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_probable_prime(k):
        k += 2
    return k


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p <= _TRIAL_LIMIT and p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorizationTooHard(f"composite cofactor {n} beyond trial division")
    return out


def euler_phi(n: int) -> int:
    """Euler totient via factorization."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def valuation_int(n: int, p: int) -> int:
    """Largest v with p^v | n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def base_digits(n: int, base: int, length: int) -> list[int]:
    """The first `length` little-endian base-`base` digits of n >= 0."""
    out = []
    for _ in range(length):
        n, r = divmod(n, base)
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# Raw polynomials: little-endian int lists, the zero polynomial is [].
# F_p[x] helpers take reduced coefficients, for any prime p (also above 2^61).
# ---------------------------------------------------------------------------


def fp_trim(a: list[int]) -> list[int]:
    """Drop trailing zeros in place and return a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return fp_trim([(x - y) % p for x, y in zip(a, b)])


def fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return fp_trim([c % p for c in out])


def fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b over F_p."""
    n = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - n)
    inv = pow(b[-1], -1, p)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] % p * inv % p
        if c:
            q[i - n] = c
            for j in range(n):
                r[i - n + j] -= c * b[j]
    return fp_trim(q), fp_trim([c % p for c in r[:n]])


def fp_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p ([] when both are zero)."""
    a, b = fp_trim(list(a)), fp_trim(list(b))
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return fp_monic(a, p) if a else a


def fp_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e modulo mod over F_p, e >= 0."""
    out = [1]
    a = fp_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            out = fp_divmod(fp_mul(out, a, p), mod, p)[1]
        e >>= 1
        if e:
            a = fp_divmod(fp_mul(a, a, p), mod, p)[1]
    return out


def fp_deriv(a: list[int], p: int) -> list[int]:
    return fp_trim([c * i % p for i, c in enumerate(a)][1:])


def zx_div_exact(num: list[int], den: list[int]) -> list[int] | None:
    """Quotient num / den in Z[x] (den trimmed, nonzero), or None when inexact."""
    n = len(den) - 1
    if len(num) <= n:
        return None
    num = list(num)
    out = [0] * (len(num) - n)
    for i in range(len(num) - 1, n - 1, -1):
        q, r = divmod(num[i], den[-1])
        if r:
            return None
        out[i - n] = q
        if q:
            for j in range(n):
                num[i - n + j] -= q * den[j]
    if any(num[:n]):
        return None
    return out


def zx_primitive(coeffs) -> list[int]:
    """Primitive part of a nonzero Z[x] or Q[x] vector: integral, content 1, lead > 0."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    v = [int(c * den) for c in coeffs]
    g = gcd(*v)
    if v[-1] < 0:
        g = -g
    return [c // g for c in v]


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k (little-endian, integer), by iterated exact division.

    Phi_k = (x^k - 1) / prod_{d | k, d < k} Phi_d.
    """
    if k < 1:
        raise ValueError("cyclotomic_poly expects k >= 1")
    if k == 1:
        return (-1, 1)
    num = [0] * (k + 1)
    num[0], num[k] = -1, 1
    for d in divisors(k):
        if d < k:
            num = zx_div_exact(num, list(cyclotomic_poly(d)))
            assert num is not None
    return tuple(num)
