"""Complete root finding in K = F(t) for polynomials in K[X].

Clearing denominators gives a primitive polynomial over the UFD F[t]; any root
c*u/v in lowest terms must have u dividing the trailing and v the leading
coefficient.  For each monic divisor pair the scalar c solves an exact system
over F: substituting X = c*u/v and collecting by powers of t yields polynomials
in c whose gcd is factored over F, so the search is complete for every
supported field.  A nonzero remainder therefore has no roots in K at all; it
is reported as such (splitting it would need a finite extension of K, which is
out of scope here).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FactorizationTooHard, ZeroInput
from .factor import monic_divisors, roots_in_F
from .funfield import KPolynomial, Polynomial, RationalFunction, clear_denominators, poly_gcd

__all__ = ["RootSearch", "find_roots_in_K"]


@dataclass(frozen=True)
class RootSearch:
    """Roots of P in K with multiplicities, plus the rootless monic remainder."""

    roots: tuple[tuple[RationalFunction, int], ...]
    zero_multiplicity: int
    remainder: KPolynomial  # monic, no roots in K (when complete)
    complete: bool


def find_roots_in_K(P: KPolynomial) -> RootSearch:
    """All roots of P in K (with multiplicities); complete unless flagged."""
    if P.is_zero:
        raise ZeroInput("root search on the zero polynomial")
    fld = P.field
    zero_mult = 0
    coeffs = list(P.coeffs)
    while coeffs and coeffs[0].is_zero:
        zero_mult += 1
        coeffs.pop(0)
    rem = KPolynomial(fld, coeffs).monic()
    if rem.degree == 0:
        return RootSearch((), zero_mult, rem, True)

    polys = clear_denominators(coeffs)
    a0, ad = polys[0], polys[-1]
    one = RationalFunction.one(fld)
    candidates: list[RationalFunction] = []
    try:
        us = monic_divisors(a0)
        vs = monic_divisors(ad)
        for u in us:
            for v in vs:
                if u.degree > 0 and v.degree > 0 and poly_gcd(u, v).degree > 0:
                    continue
                cs = _scalar_solutions(polys, u, v)
                for c in cs:
                    candidates.append(RationalFunction(u * c, v))
        complete = True
    except FactorizationTooHard:
        complete = False

    roots: list[tuple[RationalFunction, int]] = []
    for beta in candidates:
        rem, mult = rem.divide_out(KPolynomial(fld, (-beta, one)))
        if mult:
            roots.append((beta, mult))
    roots.sort(key=lambda rm: (str(rm[0]),))
    return RootSearch(tuple(roots), zero_mult, rem, complete)


def _scalar_solutions(polys: list[Polynomial], u: Polynomial, v: Polynomial) -> list:
    """Nonzero c in F with sum_j a_j (c*u/v)^j = 0, solved exactly."""
    fld = polys[0].field
    d = len(polys) - 1
    # e_j = a_j * u^j * v^(d-j); the root condition is sum_j e_j(t) c^j = 0 in F[t]
    ej = []
    upow = Polynomial.one(fld)
    for j in range(d + 1):
        ej.append(polys[j] * upow * v ** (d - j))
        upow = upow * u
    cols = [p.coeffs for p in ej]
    rows = max(len(col) for col in cols)
    gcd_c = Polynomial.zero(fld)
    for i in range(rows):
        row = Polynomial(fld, [col[i] if i < len(col) else 0 for col in cols])
        gcd_c = poly_gcd(gcd_c, row)
        if gcd_c.degree == 0 and not gcd_c.is_zero:
            return []
    if gcd_c.is_zero:
        return []
    return [c for c, _ in roots_in_F(gcd_c) if not c.is_zero]
