"""Complete root finding in K = F(t) for polynomials in K[X].

The search reads the primitive associate sum_j a_j X^j of A over the UFD
F[t] (`KPolynomial.primitive_part`: the stored numerators over the monic
gcd of them, which is A with its denominators cleared and its content
divided out); write a root in lowest terms as c*u/v with c in F* and u, v
monic and coprime.  The candidates (u, v) come from the Newton polygons of the a_j, the
non-archimedean argument of the paper: at every place w the terms a_j X^j of a
vanishing sum cannot have a unique least valuation, so s = v_w(u/v) satisfies
    min_j (v_w(a_j) + j s) is attained at least twice.
At a finite place pi every v_pi(a_j) >= 0, which confines s to
[-v_pi(a_d), v_pi(a_0)]; s = 0 passes at every pi dividing neither end
coefficient, so u | a_0 and v | a_d: only the factors of a_0 * a_d are
places to choose, each with the exponents s that pass, and u, v collect pi^s
for s > 0 and pi^(-s) for s < 0, so they are coprime by construction.  At
infinity, v_inf(a_j) = -deg a_j and s = deg v - deg u prunes the combinations
by degree.  A dropped pair fails the test at some place, so it carries no
root: the search keeps every root that trying all divisor pairs would find.

For each surviving pair the scalar c solves an exact system over F: write
h(C) = v^d A(C*u/v) = sum_i t^i h_i(C) for the cleared A = sum_j a_j X^j; the
roots c of the row gcd of the h_i in F[C], found by factoring it over F, are
the roots c*u/v of A, so the search is complete for every supported field.
The gcd also carries each root's multiplicity, in every characteristic: u/v
is a unit of K, so (X - c*u/v)^m divides A exactly when (C - c)^m divides h
in K[C], and since (C - c)^m is monic over F that holds exactly when it
divides every row h_i, that is, their gcd.  The row gcd is taken on ints:
the t^i rows of the e_j = a_j u^j v^(d-j) over their lcm denominator, read
across j, are the coefficients of a nonzero multiple of h_i, which has the
same monic gcd.  It starts from the first and last nonzero rows, and a row
it already divides (a zero remainder; no quotient is built) takes no further
gcd.  What is left of A, of degree deg A - sum m, has no roots in K at all;
only its degree is reported (splitting it would need a finite extension of K,
which is out of scope here).  More than _MAX_PAIRS candidate pairs give an
incomplete search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import FactorizationTooHard, ZeroInput
from .factor import factor_poly, roots_in_F
from .funfield import KPolynomial, Polynomial, RationalFunction, _poly, poly_gcd

__all__ = ["RootSearch", "find_roots_in_K"]

_MAX_PAIRS = 4096  # candidate pairs (u, v) tried at most


@dataclass(frozen=True)
class RootSearch:
    """Roots of P in K with multiplicities, plus the degree of the rootless rest.

    The multiplicities are those of the scalars c in the row gcd of
    v^d A(C*u/v) (module docstring); remainder_degree = deg A - sum m counts
    the roots of P outside K once the root 0 is stripped.
    """

    roots: tuple[tuple[RationalFunction, int], ...]
    zero_multiplicity: int
    remainder_degree: int  # no roots in K (when complete)
    complete: bool


def find_roots_in_K(P: KPolynomial) -> RootSearch:
    """All roots of P in K (with multiplicities); complete unless flagged."""
    if P.is_zero:
        raise ZeroInput("root search on the zero polynomial")
    rows = P.primitive_part()
    zero_mult = 0
    while rows[zero_mult].is_zero:
        zero_mult += 1
    polys = list(rows[zero_mult:])
    degree = len(polys) - 1
    if degree == 0:
        return RootSearch((), zero_mult, 0, True)

    roots: list[tuple[RationalFunction, int]] = []
    try:
        for u, v in _newton_pairs(polys):
            roots += [(RationalFunction._reduced(u * c, v), m) for c, m in _scalar_solutions(polys, u, v)]
        complete = True
    except FactorizationTooHard:
        complete = False
    roots.sort(key=lambda rm: (str(rm[0]),))
    return RootSearch(tuple(roots), zero_mult, degree - sum(m for _, m in roots), complete)


def _attained_twice(vals: list[tuple[int, int]], s: int) -> bool:
    """Whether min_j (v_j + j s) over the pairs (j, v_j) is attained at least twice."""
    terms = sorted(v + j * s for j, v in vals)
    return terms[0] == terms[1]


def _newton_pairs(polys: list[Polynomial]) -> list[tuple[Polynomial, Polynomial]]:
    """The coprime monic (u, v) whose v_w(u/v) passes the Newton test at every place w."""
    d = len(polys) - 1
    ends: dict[Polynomial, list[int]] = {}  # pi -> [v_pi(a_0), v_pi(a_d)]
    for end, a in enumerate((polys[0], polys[d])):
        for pi, m in factor_poly(a)[1]:
            ends.setdefault(pi, [0, 0])[end] = m
    one = Polynomial.one(polys[0].field)
    pairs = [(one, one, 0)]  # (u, v, deg u - deg v), extended place by place
    for pi, (v0, vd) in ends.items():
        middle = [(j, a.divide_out(pi)[1]) for j, a in enumerate(polys[1:d], 1) if not a.is_zero]
        vals = [(0, v0), *middle, (d, vd)]
        exps = [s for s in range(-vd, v0 + 1) if _attained_twice(vals, s)]
        if len(pairs) * len(exps) > _MAX_PAIRS:
            raise FactorizationTooHard("too many candidate roots to try")
        grown = []
        for s in exps:
            step, power = s * pi.degree, pi ** abs(s)
            if s > 0:
                grown += [(u * power, v, k + step) for u, v, k in pairs]
            elif s < 0:
                grown += [(u, v * power, k + step) for u, v, k in pairs]
            else:
                grown += pairs
        pairs = grown
    at_inf = [(j, -a.degree) for j, a in enumerate(polys) if not a.is_zero]
    return [(u, v) for u, v, k in pairs if _attained_twice(at_inf, -k)]


def _scalar_solutions(polys: list[Polynomial], u: Polynomial, v: Polynomial) -> list:
    """(c, m) for the nonzero c in F with sum_j a_j (c*u/v)^j = 0, m its multiplicity, solved exactly.

    The rows h_i of v^d A(C*u/v) are read off the int rows of the e_j over
    their lcm denominator, a nonzero multiple of h_i that has the same monic
    gcd.  The gcd starts from the first and last nonzero rows; another row
    takes a gcd only when it leaves a remainder (module docstring).
    """
    fld = polys[0].field
    d = len(polys) - 1
    # e_j = a_j * u^j * v^(d-j); the root condition is sum_j e_j(t) c^j = 0 in F[t]
    ej = []
    upow = Polynomial.one(fld)
    for j in range(d + 1):
        ej.append(polys[j] * upow * v ** (d - j))
        upow = upow * u
    L = lcm(*(e.den for e in ej))
    cols = [e.rows if e.den == L else [tuple(x * (L // e.den) for x in r) for r in e.rows] for e in ej]
    zero = fld.zero_raw
    rows = [
        _poly(fld, *fld.poly_normal([col[i] if i < len(col) else zero for col in cols]))
        for i in range(max(map(len, cols)))
    ]
    rows = [h for h in rows if not h.is_zero]
    gcd_c = poly_gcd(rows[0], rows[-1]) if len(rows) > 1 else rows[0].monic()
    for h in rows[1:-1]:
        if gcd_c.degree == 0:
            return []
        if not (h % gcd_c).is_zero:
            gcd_c = poly_gcd(gcd_c, h)
    if gcd_c.degree == 0:
        return []
    return [(c, m) for c, m in roots_in_F(gcd_c) if not c.is_zero]
