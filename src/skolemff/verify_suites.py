"""Seeded randomized suites behind `skolemff verify <suite>`.

Every suite is a generator `_run_<suite>(rng, count, res)` that draws its
instances from random.Random(seed) and yields, for each instance it checks,
whether the proved inequality or lemma holds and a thunk building the
replayable reproducer.  `run_suite` counts the checks and violations.  Zero
violations is the only acceptable outcome; the first violation embeds its
(for smt greedily minimized) reproducer in the result.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .constants import ConstantValue, FieldSpec, field_for, roots_of_unity
from .errors import InvalidInstance, MultiplicativelyDependent, SkolemffError
from .funfield import (
    INFINITY,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    divisor,
    height,
    poly_height,
    poly_valuation,
)
from .generate import _s_integer, generate_instance, instance_from_roots, place_pool, rand_const, rand_ratfunc
from .powersum import (
    choose_p,
    choose_q,
    decide_global_zero,
    lemma_claimD_check,
    lemma_claimI_check,
    split_dep_ind,
)
from .vd_theorems import verify_cz_gcd, verify_smt, verify_sunit_count

__all__ = ["SuiteResult", "run_suite", "SUITES"]

SUITES = ("smt", "czgcd", "gauss", "sunit", "claimD", "claimI")

MAX_DEG = 12  # degree scale of the random polynomials and functions the suites draw

_CHAR0_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4)]
_ALL_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(3, 1, 1), FieldSpec(5, 1, 1)]

# what a suite yields per checked instance: whether the check holds, and a thunk building its reproducer
_Checks = Iterator[tuple[bool, Callable[[], dict]]]


@dataclass
class SuiteResult:
    suite: str
    seed: int
    count: int
    checked: int = 0
    violations: int = 0
    skipped_dependent: int = 0
    reproducer: dict | None = None
    notes: list[str] = dc_field(default_factory=list)


def run_suite(suite: str, seed: int, count: int) -> SuiteResult:
    """Drive one suite's instance generator and count its checks, violations and first reproducer."""
    if suite not in SUITES:
        raise SkolemffError(f"unknown suite {suite!r}; choose from {SUITES}")
    if count < 1:
        raise InvalidInstance(f"count must be positive, got {count}")
    runner = {
        "smt": _run_smt,
        "czgcd": _run_czgcd,
        "gauss": _run_gauss,
        "sunit": _run_sunit,
        "claimD": _run_claimD,
        "claimI": _run_claimI,
    }[suite]
    res = SuiteResult(suite, seed, count)
    # the thunk runs before the generator resumes, so it reads this instance's variables
    for holds, reproducer in runner(random.Random(seed), count, res):
        res.checked += 1
        if not holds:
            res.violations += 1
            if res.reproducer is None:
                res.reproducer = reproducer()
    return res


def _distinct_consts(rng: random.Random, fld, how_many: int) -> list[ConstantValue]:
    if fld.char:
        how_many = min(how_many, fld.p**fld.d)  # F_{p^d} has no more
    out: list[ConstantValue] = []
    tries = 0
    while len(out) < how_many and tries < 200:
        c = rand_const(rng, fld)
        tries += 1
        if c not in out:
            out.append(c)
    return out


def _rand_S(rng: random.Random, fld) -> PlaceSet:
    pool = place_pool(fld)
    size = rng.randint(1, len(pool))
    return PlaceSet(rng.sample(pool, size))


def _run_smt(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    for i in range(count):
        fld = field_for(_ALL_SPECS[i % len(_ALL_SPECS)])
        f = rand_ratfunc(rng, fld, MAX_DEG // 2, nonconstant=True)
        S = _rand_S(rng, fld)
        b = _distinct_consts(rng, fld, rng.randint(1, 8))
        yield verify_smt(f, S, b).holds, lambda: _shrink_smt(f, S, b)


def _shrink_smt(f, S, b) -> dict:
    # drop targets while the violation persists
    keep = list(b)
    changed = True
    while changed and len(keep) > 1:
        changed = False
        for i in range(len(keep)):
            cand = keep[:i] + keep[i + 1 :]
            try:
                if not verify_smt(f, S, cand).holds:
                    keep = cand
                    changed = True
                    break
            except SkolemffError:
                continue
    return {
        "f": repr(f),
        "S": repr(S),
        "b": [repr(c) for c in keep],
    }


def _run_sunit(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    for i in range(count):
        spec = _ALL_SPECS[i % len(_ALL_SPECS)]
        fld = field_for(spec)
        S = _rand_S(rng, fld)
        for _ in range(51):  # up to 51 draws for a nonconstant f; the instance is skipped without one
            f = _s_integer(rng, fld, S, MAX_DEG // 3)
            if not (f.is_zero or f.is_constant):
                break
        else:
            continue
        candidates = _distinct_consts(rng, fld, rng.randint(1, 6))
        holds = verify_sunit_count(f, S, candidates).holds
        # restatement: among all a-th roots of unity xi, at most 2g + |S|
        # translates f - xi are S-units
        if fld.char == 0:
            a = rng.choice([1, 2] if fld.M == 1 else [1, 2, 4])
        else:
            a = rng.choice([d for d in (1, 2) if (fld.p**fld.d - 1) % d == 0])
        roots = [r.value for r in roots_of_unity(a, spec)]
        yield holds and verify_sunit_count(f, S, roots).holds, lambda: {"f": repr(f), "S": repr(S), "a": a}


def _unit(rng: random.Random, fld, monos) -> RationalFunction:
    out = RationalFunction.constant(fld, rng.choice([1, -1, 2]))
    for mono in monos:
        out = out * mono ** rng.randint(-3, 3)
    return out


def _anchored(rng: random.Random, fld, monos) -> RationalFunction:
    # scale so the unit takes value 1 at t = 3: then 1 - a vanishes
    # there and the gcd count is nontrivially positive for pairs
    e = [rng.randint(-2, 2) for _ in range(3)]
    c = Fraction(1) / (Fraction(3) ** e[0] * Fraction(2) ** e[1] * Fraction(4) ** e[2])
    out = RationalFunction.constant(fld, c)
    for mono, k in zip(monos, e):
        out = out * mono**k
    return out


def _doubly_anchored(rng: random.Random, fld, monos) -> RationalFunction:
    # value 1 at both t = 3 and t = -3 needs i even and j = k
    i2 = rng.choice([0, 2])
    j = rng.choice([1, 2])
    c = Fraction(1) / (Fraction(3) ** i2 * Fraction(2) ** j * Fraction(4) ** j)
    return RationalFunction.constant(fld, c) * monos[0] ** i2 * monos[1] ** j * monos[2] ** j


def _run_czgcd(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    nontrivial = 0
    for i in range(count):
        fld = field_for(_CHAR0_SPECS[i % 2])
        t = Polynomial.t(fld)
        one = Polynomial.one(fld)
        S = PlaceSet([Place(t), Place(t - one), Place(t + one), INFINITY])
        monos = [RationalFunction(t), RationalFunction(t - one), RationalFunction(t + one)]
        draw = _doubly_anchored if i % 7 == 3 else _anchored if i % 3 == 1 else _unit
        a, b = draw(rng, fld, monos), draw(rng, fld, monos)
        try:
            rep = verify_cz_gcd(a, b, S)  # a constant pair is dependent too
        except MultiplicativelyDependent:
            res.skipped_dependent += 1
            continue
        nontrivial += rep.lhs > 0
        yield rep.holds, lambda: {"a": repr(a), "b": repr(b), "S": repr(S)}
    if nontrivial:
        res.notes.append(f"nontrivial_counts:{nontrivial}")


def _rand_kpoly(rng: random.Random, fld, deg: int, coeff_deg: int) -> KPolynomial:
    while True:
        coeffs = []
        for _ in range(deg + 1):
            if rng.random() < 0.15:
                coeffs.append(RationalFunction.zero(fld))
            else:
                coeffs.append(rand_ratfunc(rng, fld, coeff_deg))
        P = KPolynomial(fld, coeffs)
        if not P.is_zero:
            return P


def _orders(P: KPolynomial) -> list[dict[Place, int]]:
    """The divisor of each nonzero coefficient of P, from the factors of its num and den."""
    return [divisor(c) for c in P.coeffs if not c.is_zero]


def _run_gauss(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    for i in range(count):
        fld = field_for(_ALL_SPECS[i % len(_ALL_SPECS)])
        A = _rand_kpoly(rng, fld, rng.randint(1, 3), MAX_DEG // 6)
        B = _rand_kpoly(rng, fld, rng.randint(1, 3), MAX_DEG // 6)
        roots = [rand_ratfunc(rng, fld, MAX_DEG // 6) for _ in range(rng.randint(1, 3))]
        C = A * B
        # v(A) = min over the coefficients of A, read off their divisors; infinity is always tested
        orders_A, orders_B = _orders(A), _orders(B)
        places = dict.fromkeys(v for d in orders_A + orders_B for v in d if not v.is_infinite)
        holds = (
            poly_height(C) == poly_height(A) + poly_height(B)
            and all(
                poly_valuation(C, v) == min(d.get(v, 0) for d in orders_A) + min(d.get(v, 0) for d in orders_B)
                for v in [*places, INFINITY]
            )
            # product of linear factors: h(prod (X - beta_i)) = sum h(beta_i)
            and poly_height(KPolynomial.from_roots(fld, roots)) == sum(height(b) for b in roots)
        )
        yield holds, lambda: {"A": repr(A), "B": repr(B), "roots": [repr(r) for r in roots]}


def _q_and_p(split) -> tuple[int, int]:
    weights = [w for _, _, w in split.dep]
    q = choose_q(weights)
    return q, choose_p(weights, q)


def _run_claimD(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    for i in range(count):
        inst_seed = res.seed * 10_000 + i
        inst, _ = generate_instance(inst_seed, "dep-heavy")
        split = split_dep_ind(inst, 0)
        q, p = _q_and_p(split)
        ell = rng.choice([1, 2])
        n = rng.randint(-8, 8)
        rep = lemma_claimD_check(inst, split, n, p, ell, q)
        yield rep.holds, lambda: {"seed": inst_seed, "profile": "dep-heavy", "n": n, "p": p, "ell": ell, "q": q}


def _run_claimI(rng: random.Random, count: int, res: SuiteResult) -> _Checks:
    fld = field_for(FieldSpec(0, 1))
    t = RationalFunction.t(fld)
    S = PlaceSet([Place(Polynomial.t(fld)), INFINITY])
    pool = [t - 1, t + 1, t - 2, t + 2]
    for _ in range(count):
        j = rng.randint(1, 2)
        f = t**j
        roots = rng.sample(pool, rng.randint(1, 2))
        if rng.random() < 0.5:
            s = rng.choice([x for x in range(-3, 4) if x != 0])
            sign = -1 if (s % j == 0) else rng.choice([1, -1])
            roots.append(RationalFunction.constant(fld, sign) * t**s)
        inst = instance_from_roots(roots, f, S)
        if decide_global_zero(inst) is not None:
            continue
        split = split_dep_ind(inst, 0)
        q, p = _q_and_p(split)
        ell = 1 if p >= 5 else rng.choice([1, 2])
        n = rng.randint(0, 8)
        rep = lemma_claimI_check(inst, split, n, p, ell, q)
        yield rep.holds, lambda: {"roots": [repr(r) for r in roots], "f": repr(f), "n": n, "p": p, "ell": ell, "q": q}
