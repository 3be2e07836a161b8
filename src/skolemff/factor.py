"""Exact factorization of polynomials over the constant field F.

Three backends behind one entry point:

* F_q            -- squarefree split, distinct-degree, then Cantor-Zassenhaus
                    equal-degree splitting with a deterministic seed;
* Q              -- primitive integer form, then a big-prime variant of
                    Zassenhaus: one prime above twice the Landau-Mignotte bound,
                    modular factors recombined by exact trial division over Z;
* Q(zeta_M), M>1 -- Trager norm descent: factor the norm of A(x - s*zeta), the
                    product of its Galois conjugates zeta -> zeta^k, over Q,
                    pull factors back through gcds over Q(zeta).

The environment variable SKOLEMFF_MAX_DEGREE (default 64) caps the degree any
backend will attempt, including the descent norm; beyond it the answer is an
honest FactorizationTooHard, never a silent approximation.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from math import isqrt

from .constants import ConstantValue, Field, FieldSpec, field_for
from .errors import FactorizationTooHard, ZeroInput
from .intutil import (
    fp_deriv,
    fp_divmod,
    fp_gcd,
    fp_monic,
    fp_mul,
    fp_powmod,
    fp_sub,
    fp_trim,
    is_probable_prime,
    zx_div_exact,
    zx_primitive,
)
from .funfield import Polynomial, _poly, poly_gcd, squarefree_decomposition

__all__ = ["factor_poly", "roots_in_F", "max_degree_cap", "monic_divisors"]

_CZ_SEED = 0x5EEDF00D
_MAX_DIVISORS = 4096  # monic_divisors enumerates at most this many


def max_degree_cap() -> int:
    return int(os.environ.get("SKOLEMFF_MAX_DEGREE", "64"))


def factor_poly(p: Polynomial) -> tuple[ConstantValue, list[tuple[Polynomial, int]]]:
    """Factor p = unit * prod factor^mult into monic irreducibles over F.

    A linear p is its own factorization: it goes through no squarefree pass
    and no backend.  The power t^k of t comes off the zero bottom rows
    (`divide_out` by t) before the squarefree pass, which runs on the rest
    only, so c t^k factors with no gcd.
    """
    if p.is_zero:
        raise ZeroInput("factorization of 0")
    unit = p.lc()
    mon = p.monic()
    if mon.degree == 0:
        return unit, []
    if mon.degree > max_degree_cap():
        raise FactorizationTooHard(f"degree {mon.degree} exceeds the configured cap")
    if mon.degree == 1:
        return unit, [(mon, 1)]
    fld = p.field
    t = Polynomial.t(fld)
    rest, k = mon.divide_out(t)
    out: list[tuple[Polynomial, int]] = [(t, k)] if k else []
    if rest.degree == 1:
        out.append((rest, 1))
    elif rest.degree > 1:
        for g, mult in squarefree_decomposition(rest):
            if fld.char > 0:
                parts = _factor_sqfree_gf(g)
            elif fld.M == 1:
                parts = _factor_sqfree_q(g)
            else:
                parts = _factor_sqfree_cyclo(g)
            out.extend((h, mult) for h in parts)
    if len(out) > 1:
        out.sort(key=lambda fm: (fm[0].degree, tuple(str(c) for c in fm[0].coeffs)))
    return unit, out


def roots_in_F(p: Polynomial) -> list[tuple[ConstantValue, int]]:
    """Roots of p lying in F, with multiplicities (complete)."""
    out = []
    for g, m in factor_poly(p)[1]:
        if g.degree == 1:
            out.append((-g.coeffs[0], m))
    return out


def monic_divisors(p: Polynomial) -> list[Polynomial]:
    """All monic divisors of p (including 1); FactorizationTooHard past _MAX_DIVISORS of them."""
    _, factors = factor_poly(p)
    count = 1
    for _, m in factors:
        count *= m + 1
        if count > _MAX_DIVISORS:
            raise FactorizationTooHard("too many divisors to enumerate")
    divs = [Polynomial.one(p.field)]
    for g, m in factors:
        new = []
        for d in divs:
            cur = d
            for _ in range(m + 1):
                new.append(cur)
                cur = cur * g
        divs = new
    return divs


# ---------------------------------------------------------------------------
# Finite fields: distinct-degree + Cantor-Zassenhaus
# ---------------------------------------------------------------------------


def _pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    out = Polynomial.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _factor_sqfree_gf(f: Polynomial) -> list[Polynomial]:
    fld = f.field
    q = fld.p**fld.d
    out: list[Polynomial] = []
    x = Polynomial.t(fld)
    h = x
    d = 0
    rest = f
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = _pow_mod(h, q, rest)
        g = poly_gcd(h - x, rest)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d))
            rest = rest.exact_div(g)
            h = h % rest
    if rest.degree > 0:
        out.append(rest.monic())
    return out


def _random_poly(fld: Field, degree: int, rng: random.Random) -> Polynomial:
    rows = [tuple(rng.randrange(fld.p) for _ in range(fld.d)) for _ in range(degree + 1)]
    return _poly(fld, *fld.poly_normal(rows))


def _equal_degree_split(f: Polynomial, d: int) -> list[Polynomial]:
    """Split a product of distinct irreducibles all of degree d (CZ, seeded)."""
    fld = f.field
    if f.degree == d:
        return [f.monic()]
    q = fld.p**fld.d
    rng = random.Random(_CZ_SEED ^ hash((f.degree, d)))
    one = Polynomial.one(fld)
    while True:
        h = _random_poly(fld, f.degree - 1, rng)
        if h.is_zero or h.degree < 1:
            continue
        if fld.p == 2:
            # trace map over F_2
            acc = Polynomial.zero(fld)
            cur = h % f
            for _ in range(fld.d * d):
                acc = (acc + cur) % f
                cur = (cur * cur) % f
            g = poly_gcd(acc, f)
        else:
            g = poly_gcd(h, f)
            if g.degree == 0:
                z = _pow_mod(h, (q**d - 1) // 2, f) - one
                g = poly_gcd(z, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(f.exact_div(g), d)


# ---------------------------------------------------------------------------
# Q: big-prime Zassenhaus on primitive integer polynomials
# ---------------------------------------------------------------------------


def _factor_mod_p(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """Monic squarefree f over F_p into monic irreducibles (distinct-degree + CZ)."""
    out: list[list[int]] = []
    x = [0, 1]
    h = list(x)
    d = 0
    rest = list(f)
    while len(rest) - 1 > 2 * (d + 1) - 1:
        d += 1
        h = fp_powmod(h, p, rest, p)
        g = fp_gcd(rest, fp_sub(h, x, p), p)
        if len(g) > 1:
            out.extend(_m_equal_degree(g, d, p, rng))
            rest = fp_divmod(rest, g, p)[0]
            h = fp_divmod(h, rest, p)[1]
    if len(rest) > 1:
        out.append(fp_monic(rest, p))
    return out


def _m_equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    if len(f) - 1 == d:
        return [fp_monic(f, p)]
    while True:
        h = fp_trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if not h:
            continue
        g = fp_gcd(f, h, p)
        if len(g) == 1:
            g = fp_gcd(f, fp_sub(fp_powmod(h, (p**d - 1) // 2, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            quo = fp_divmod(f, g, p)[0]
            return _m_equal_degree(g, d, p, rng) + _m_equal_degree(quo, d, p, rng)


def _mignotte_prime(f: list[int]) -> int:
    """A probable prime exceeding twice the factor-coefficient bound, squarefree for f."""
    n = len(f) - 1
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = (1 << n) * norm2 * abs(f[-1])
    p = 2 * bound + 1
    while True:
        while not is_probable_prime(p):
            p += 1
        if f[-1] % p != 0:
            fp = [c % p for c in f]
            if len(fp_gcd(fp, fp_deriv(fp, p), p)) == 1:
                return p
        p += 1


def _sym_lift(c: int, p: int) -> int:
    c %= p
    return c - p if c > p // 2 else c


def _factor_sqfree_q(f: Polynomial) -> list[Polynomial]:
    fld = f.field
    if f.degree == 1:
        return [f.monic()]
    F = zx_primitive([r[0] for r in f.rows])
    p = _mignotte_prime(F)
    rng = random.Random(_CZ_SEED ^ len(F))
    mods = _factor_mod_p(fp_monic([c % p for c in F], p), p, rng)
    mods.sort(key=lambda m: (len(m), m))
    found: list[list[int]] = []
    s = 1
    while 2 * s <= len(mods):
        restart = True
        while restart:
            restart = False
            for combo in combinations(range(len(mods)), s):
                prod = [F[-1] % p]
                for i in combo:
                    prod = fp_mul(prod, mods[i], p)
                cand = zx_primitive([_sym_lift(c, p) for c in prod])
                quo = zx_div_exact(F, cand)
                if quo is not None:
                    found.append(cand)
                    F = zx_primitive(quo)
                    mods = [m for i, m in enumerate(mods) if i not in combo]
                    restart = 2 * s <= len(mods)
                    break
        s += 1
    if len(F) > 1:
        found.append(F)
    # g / lead(g) is monic, and canonical since g is primitive with lead > 0
    return [_poly(fld, tuple((c,) for c in g), g[-1]) for g in found]


# ---------------------------------------------------------------------------
# Q(zeta_M): Trager norm descent
# ---------------------------------------------------------------------------


def _norm_to_q(a: Polynomial) -> Polynomial:
    """Norm from Q(zeta)[x] down to Q[x]: the product of the conjugates sigma_k(a), k in (Z/M)^*.

    sigma_k maps an int row to an int row and keeps its content, so it acts on the rows of a.
    """
    fld = a.field
    norm = a
    for k in fld.conjugate_exponents:
        norm = norm * _poly(fld, tuple(fld.conjugate_raw(r, k) for r in a.rows), a.den)
    return _poly(field_for(FieldSpec(0, 1)), tuple(r[:1] for r in norm.rows), norm.den)


def _factor_sqfree_cyclo(f: Polynomial) -> list[Polynomial]:
    fld = f.field
    f = f.monic()
    if f.degree == 1:
        return [f]
    if f.degree * fld.degree > max_degree_cap():
        raise FactorizationTooHard("norm descent degree exceeds the configured cap")
    zeta = ConstantValue(fld, fld._zeta_raw())
    s = 0
    while True:
        s = -s + (1 if s <= 0 else 0)
        shift = Polynomial(fld, [-(zeta * s), 1])  # x - s*zeta
        a_s = f.compose(shift)
        normp = _norm_to_q(a_s)
        # usable iff the norm keeps full degree and is squarefree
        if normp.degree != a_s.degree * fld.degree:
            continue
        if poly_gcd(normp, normp.derivative()).degree == 0:
            break
    rational_factors = _factor_sqfree_q(normp.monic())
    unshift = Polynomial(fld, [zeta * s, 1])  # x + s*zeta
    out = []
    pad = fld.zero_raw[1:]
    for nf in rational_factors:
        lifted = _poly(fld, tuple(r + pad for r in nf.rows), nf.den)
        h = poly_gcd(a_s, lifted)
        if h.degree > 0:
            out.append(h.compose(unshift).monic())
    return out
