"""Multiplicative structure of K*: independence tests and dependence exponents.

Dependence is measured modulo torsion: a and b are dependent when some
a^m b^n with (m, n) != (0, 0) is a root of unity.  Divisors (for two rational
constants, their prime-exponent vectors) turn the question into one primitive
relation m*va + n*vb = 0 between two integer vectors, solved by `_relation`;
the leftover constant is then tested for torsion, which is decidable in every
supported field.  For two nonconstant functions that test is
`dependence_exponents`, which `is_mult_independent` reads; its witness's
`power` is the exact power test, the case q = 1 with trivial torsion.  It
factors only f, and not f when the caller passes div(f), as the callers
that know f to be an S-unit do (its divisor is then its valuations at S).
A relation forces supp(beta) = supp(f), so beta's valuations are read at
f's places by trial division, and the torsion constant is a ratio of
leading coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .constants import ConstantValue, RootOfUnity
from .errors import ConstantInput, UnsupportedConstantPair, ZeroInput
from .funfield import INFINITY, Place, RationalFunction, divisor
from .intutil import factorize

__all__ = ["DependenceWitness", "is_mult_independent", "dependence_exponents"]


@dataclass(frozen=True)
class DependenceWitness:
    """beta^q = torsion.value * f^r with q minimal positive."""

    q: int
    r: int
    torsion: RootOfUnity

    @property
    def exact_q(self) -> int:
        """Smallest exponent with beta^exact_q an exact power of f (torsion folded in)."""
        return self.q * self.torsion.order

    @property
    def exact_r(self) -> int:
        return self.r * self.torsion.order

    @property
    def power(self) -> int | None:
        """n with beta = f^n exactly, when q = 1 and the torsion is 1; else None."""
        return self.r if self.q == 1 and self.torsion.value.is_one else None


def _as_root_of_unity(c: ConstantValue) -> RootOfUnity:
    return RootOfUnity(order=c.order(), value=c)


def _relation(va: dict, vb: dict) -> tuple[int, int] | None:
    """The primitive (m, n) with m > 0 and m*va + n*vb = 0, or None; vb must be nonzero."""
    pivot = next(k for k, v in vb.items() if v)
    m, n = vb[pivot], -va.get(pivot, 0)
    g = gcd(m, n)
    m, n = m // g, n // g
    if m < 0:
        m, n = -m, -n
    if any(m * va.get(k, 0) + n * vb.get(k, 0) for k in va.keys() | vb.keys()):
        return None
    return m, n


def _rational_exponent_vector(c: ConstantValue) -> dict[int, int]:
    q = c.as_fraction()
    out = dict(factorize(abs(q.numerator)))
    for p, e in factorize(q.denominator).items():
        out[p] = -e
    return out


def is_mult_independent(a: RationalFunction, b: RationalFunction, div_b: dict[Place, int] | None = None) -> bool:
    """True iff no (m, n) != (0, 0) makes a^m * b^n a torsion constant.

    div_b, when given, is div(b) (zero valuations omitted); for two
    nonconstant functions it goes to `dependence_exponents`, and b is not factored.
    """
    if a.is_zero or b.is_zero:
        raise ZeroInput("multiplicative independence of 0")
    for x in (a, b):
        if x.is_constant and x.constant_value().is_torsion():
            return False
    if a.is_constant and b.is_constant:
        # neither is torsion, so the field has characteristic 0
        ca, cb = a.constant_value(), b.constant_value()
        if not (ca.is_rational() and cb.is_rational()):
            raise UnsupportedConstantPair(
                "dependence of two non-torsion cyclotomic constants is out of scope"
            )
        return _relation(_rational_exponent_vector(ca), _rational_exponent_vector(cb)) is None
    if a.is_constant or b.is_constant:
        return True  # non-torsion constant vs nonconstant: no relation possible
    return dependence_exponents(a, b, div_b) is None


def dependence_exponents(
    beta: RationalFunction, f: RationalFunction, div_f: dict[Place, int] | None = None
) -> DependenceWitness | None:
    """Minimal q > 0 with beta^q = eps * f^r for torsion eps, or None.

    Only f is factored, and not even f when the caller passes its divisor
    div_f (zero valuations omitted), as `powersum.split_dep_ind` does for
    g = f^e from the valuations of f at S.  For nonconstant beta, a relation
    q div(beta) = r div(f) with q > 0 has div(beta) != 0, so r != 0, and then
    every place of supp(beta) lies in supp(f) and conversely: supp(beta) =
    supp(f).  So beta's valuations are read at f's finite places by
    `divide_out`, and at infinity from degrees; a numerator or denominator of
    beta with degree left after that has a zero or pole off supp(f), and
    there is no relation.  With the relation, beta^q / f^r is a constant; the
    denominators are monic, so it is lc(num beta)^q / lc(num f)^r, and no
    quotient is built in K.
    """
    if beta.is_zero or f.is_zero:
        raise ZeroInput("dependence exponents of 0")
    if f.is_constant:
        raise ConstantInput("f must be nonconstant")
    if beta.is_constant:
        cv = beta.constant_value()
        if cv.is_torsion():
            return DependenceWitness(q=1, r=0, torsion=_as_root_of_unity(cv))
        return None
    if div_f is None:
        div_f = divisor(f)
    div_beta = {}
    num, den = beta.num, beta.den
    for place in div_f:
        if place.is_infinite:
            continue
        num, m = num.divide_out(place.poly)
        den, k = den.divide_out(place.poly)
        if m != k:
            div_beta[place] = m - k
    if num.degree > 0 or den.degree > 0:
        return None
    v_inf = beta.den.degree - beta.num.degree
    if v_inf:
        div_beta[INFINITY] = v_inf
    rel = _relation(div_beta, div_f)
    if rel is None:
        return None
    q, r = rel[0], -rel[1]
    cv = beta.num.lc() ** q / f.num.lc() ** r
    if not cv.is_torsion():
        return None
    return DependenceWitness(q=q, r=r, torsion=_as_root_of_unity(cv))

