"""Seeded random instance generation: gen profiles and suite raw material.

Everything is driven by random.Random(seed), so identical (seed, profile)
always produces the identical instance.  Generated instances are constructed
through PowerSumInstance and therefore always satisfy the full invariant set.

The dep-heavy profile builds its companion polynomial as prod(X - beta_i) with
beta_i = +-c * t^(s_i) deliberately chosen multiplicatively dependent on (but
never an exact power of) f = t^j, keeping S = {(t), inf}: chi_S = 0, so the
certification exponent a = p^l q stays small and the full pipeline is cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .constants import ConstantValue, Field, FieldSpec, RootOfUnity, field_for, zeta
from .errors import InvalidInstance
from .funfield import INFINITY, KPolynomial, Place, PlaceSet, Polynomial, RationalFunction, is_s_integer
from .powersum import PowerSumInstance, decide_global_zero

__all__ = [
    "generate_instance",
    "instance_from_roots",
    "PROFILES",
    "rand_const",
    "rand_poly",
    "rand_ratfunc",
    "place_pool",
]

PROFILES = ("small", "dep-heavy", "charp")


def rand_const(rng: random.Random, fld: Field, nonzero: bool = False) -> ConstantValue:
    """A small random constant of F."""
    while True:
        if fld.char == 0:
            if fld.M == 1:
                c = ConstantValue.from_rationals(fld, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))])
            else:
                c = ConstantValue.from_rationals(fld, [rng.randint(-3, 3) for _ in range(min(2, fld.degree))])
        else:
            c = ConstantValue(fld, tuple(rng.randrange(fld.p) for _ in range(fld.d)))
        if not (nonzero and c.is_zero):
            return c


def rand_poly(rng: random.Random, fld: Field, max_deg: int, nonzero: bool = True) -> Polynomial:
    deg = rng.randint(0, max_deg)
    while True:
        coeffs = [rand_const(rng, fld) for _ in range(deg + 1)]
        p = Polynomial(fld, coeffs)
        if not (nonzero and p.is_zero):
            return p


def rand_ratfunc(rng: random.Random, fld: Field, max_deg: int, nonconstant: bool = False) -> RationalFunction:
    for _ in range(100):
        num = rand_poly(rng, fld, max_deg)
        den = rand_poly(rng, fld, max(0, max_deg - 1))
        f = RationalFunction(num, den)
        if not f.is_zero and (not nonconstant or not f.is_constant):
            return f
    raise InvalidInstance("random function generation failed")


def place_pool(fld: Field) -> list[Place]:
    """Small deterministic pool of places (degree 1 and one degree 2)."""
    t = Polynomial.t(fld)
    one = Polynomial.one(fld)
    pool = [Place(t), Place(t - one), Place(t + one)]
    if fld.char == 0 and fld.M == 1:
        pool.append(Place(t * t + one))
    elif fld.char == 3:
        pool.append(Place(t * t + one))
    elif fld.char == 5:
        pool.append(Place(t * t + one * 2))
    pool.append(INFINITY)
    return pool


def _one_ru(fld: Field) -> RootOfUnity:
    return RootOfUnity(1, ConstantValue(fld, fld.one_raw))


def _neg_ru(fld: Field) -> RootOfUnity:
    return RootOfUnity(2, ConstantValue(fld, fld.from_int(-1)))


def instance_from_roots(roots, f: RationalFunction, S: PlaceSet, shift: int = 0) -> PowerSumInstance:
    """The instance B(n) = f^{shift n} prod_beta (f^n - beta): its companion is prod(X - beta).

    Every nonzero coefficient of prod(X - beta) becomes one term with eps = 1.
    """
    fld = f.field
    P = KPolynomial.from_roots(fld, roots)
    terms = [(coeff, i + shift) for i, coeff in enumerate(P.coeffs) if not coeff.is_zero]
    return PowerSumInstance(
        tuple(coeff for coeff, _ in terms), (_one_ru(fld),) * len(terms), tuple(r for _, r in terms), f, S
    )


def _rand_epsilon(rng: random.Random, fld: Field) -> RootOfUnity:
    if fld.char == 0 and fld.M == 4 and rng.random() < 0.5:
        z = zeta(fld, 4)
        j = rng.choice([1, 3])
        return RootOfUnity(4, z**j)
    return rng.choice([_one_ru(fld), _neg_ru(fld)])


def _s_unit_monomial(rng: random.Random, fld: Field, S: PlaceSet, max_deg: int) -> RationalFunction:
    """A random S-unit built from the finite places of S."""
    out = RationalFunction.constant(fld, rand_const(rng, fld, nonzero=True))
    for p in S:
        if p.is_infinite:
            continue
        e = rng.randint(-max_deg, max_deg)
        out = out * RationalFunction(p.poly) ** e
    return out


def _s_integer(rng: random.Random, fld: Field, S: PlaceSet, max_deg: int) -> RationalFunction:
    den = Polynomial.one(fld)
    for p in S:
        if p.is_infinite:
            continue
        if rng.random() < 0.5:
            den = den * p.poly
    # without infinity in S the numerator degree may not exceed the denominator's
    num_deg = max_deg if S.has_infinity else min(max_deg, den.degree)
    num = rand_poly(rng, fld, num_deg)
    return RationalFunction(num, den)


def generate_instance(seed: int, profile: str) -> tuple[PowerSumInstance, dict]:
    """Deterministic instance for (seed, profile); returns (instance, metadata)."""
    if profile not in PROFILES:
        raise InvalidInstance(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = random.Random((seed, profile).__repr__())
    if profile == "small":
        inst = _gen_small(rng)
    elif profile == "dep-heavy":
        inst = _gen_dep_heavy(rng)
    else:
        inst = _gen_charp(rng)
    return inst, {"profile": profile, "seed": str(seed)}


def _gen_small(rng: random.Random) -> PowerSumInstance:
    spec = rng.choice([FieldSpec(0, 1), FieldSpec(0, 4)])
    fld = field_for(spec)
    t = Polynomial.t(fld)
    S = PlaceSet([Place(t), INFINITY] + ([Place(t - Polynomial.one(fld))] if rng.random() < 0.4 else []))
    f = _s_unit_monomial(rng, fld, S, 2)
    while f.is_constant:
        f = _s_unit_monomial(rng, fld, S, 2)
    m = rng.randint(1, 4)
    lambdas, epsilons, exponents = [], [], []
    rs = rng.sample(range(-3, 4), m)
    for i in range(m):
        lam = _s_integer(rng, fld, S, rng.randint(0, 3))
        while lam.is_zero:
            lam = _s_integer(rng, fld, S, 2)
        lambdas.append(lam)
        epsilons.append(_rand_epsilon(rng, fld))
        exponents.append(rs[i])
    # sometimes plant a global zero at n0 by solving for the last coefficient
    if m >= 2 and rng.random() < 0.4:
        n0 = rng.randint(-3, 3)
        acc = RationalFunction.zero(fld)
        for lam, eps, r in zip(lambdas[:-1], epsilons[:-1], exponents[:-1]):
            acc = acc + lam * (eps.value ** (n0 % eps.order)) * f ** (r * n0)
        eps_m, r_m = epsilons[-1], exponents[-1]
        cand = -acc / ((RationalFunction.constant(fld, eps_m.value ** (n0 % eps_m.order))) * f ** (r_m * n0))
        if not cand.is_zero and is_s_integer(cand, S):
            lambdas[-1] = cand
    return PowerSumInstance(tuple(lambdas), tuple(epsilons), tuple(exponents), f, S)


def _gen_dep_heavy(rng: random.Random) -> PowerSumInstance:
    spec = rng.choice([FieldSpec(0, 1), FieldSpec(0, 4)])
    fld = field_for(spec)
    t_poly = Polynomial.t(fld)
    S = PlaceSet([Place(t_poly), INFINITY])
    t = RationalFunction.t(fld)
    j = rng.randint(1, 3)
    f = t**j
    nroots = rng.randint(1, 3)
    roots = []
    for _ in range(nroots):
        s = rng.choice([x for x in range(-4, 5) if x != 0])
        sign = rng.choice([1, -1])
        if sign == 1 and s % j == 0:
            sign = -1  # keep beta off the power lattice of f
        roots.append(RationalFunction.constant(fld, sign) * t**s)
    if rng.random() < 0.3:
        roots.append(RationalFunction.constant(fld, -1))  # constant torsion root
    inst = instance_from_roots(roots, f, S, shift=rng.randint(-1, 2))
    if decide_global_zero(inst) is not None:
        raise AssertionError("dep-heavy generator produced a global zero")
    return inst


def _gen_charp(rng: random.Random) -> PowerSumInstance:
    p = rng.choice([3, 5])
    fld = field_for(FieldSpec(p, 1, 1))
    t_poly = Polynomial.t(fld)
    S = PlaceSet([Place(t_poly), INFINITY])
    t = RationalFunction.t(fld)
    j = rng.choice([x for x in (1, 2, 4) if x % p])
    f = t ** (j * p)  # a p-th power, not a p^2-th power
    m = rng.randint(1, 3)
    lambdas, epsilons, exponents = [], [], []
    rs = rng.sample(range(-2, 3), m)
    for i in range(m):
        lam = _s_integer(rng, fld, S, 2)
        while lam.is_zero:
            lam = _s_integer(rng, fld, S, 2)
        lambdas.append(lam)
        epsilons.append(rng.choice([_one_ru(fld), _neg_ru(fld)]))
        exponents.append(rs[i])
    return PowerSumInstance(tuple(lambdas), tuple(epsilons), tuple(exponents), f, S)
