"""The small-coefficients regime: explicit e and a bounds, all characteristics.

When sum h(lambda_i) <= rho h(f)/deg_ins(f) for some rho < 1, a single local
witness k for an admissible modulus a already forces the identical-vanishing
dichotomy: either e | k and lambda_1 + ... + lambda_m = 0, or e does not
divide k and the Laurent polynomial sum lambda_i eps_i^k X^{r_i} is zero.
All bounds are exact rationals; nothing is rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInstance
from .funfield import PlaceSet, RationalFunction, deg_ins, height
from .intutil import factorize, valuation_int
from .powersum import PowerSumInstance, find_local_witness

__all__ = [
    "gamma_bound",
    "growth_check",
    "min_e",
    "admissible_a",
    "conclude_from_witness",
    "smallcoef_end_to_end",
    "ConcludeReport",
    "SmallCoefReport",
]


def gamma_bound(rho: Fraction, S: PlaceSet) -> Fraction:
    """Gamma = (2 - rho)/(1 - rho) * (2g + |S|) with g = 0, an exact rational."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise InvalidInstance("rho must satisfy 0 < rho < 1")
    return (2 - rho) / (1 - rho) * S.weighted_size


def growth_check(inst: PowerSumInstance, rho: Fraction) -> bool:
    """Exact comparison sum h(lambda_i) <= rho * h(f) / deg_ins(f)."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise InvalidInstance("rho must satisfy 0 < rho < 1")
    total = sum(height(lam) for lam in inst.lambdas)
    return Fraction(total) <= rho * height(inst.f) / deg_ins(inst.f)


def min_e(inst: PowerSumInstance, gamma: Fraction) -> int:
    """Smallest e > Gamma killing every eps_i (and coprime to p in char p), for Gamma = `gamma_bound`."""
    base = inst.e
    ch = inst.field.char
    e = base
    while e <= gamma or (ch and e % ch == 0):
        e += base
    return e


def admissible_a(e: int, N: int, gamma: Fraction) -> int:
    """Smallest a with q^(1 + ord_q a - ord_q e) > N + Gamma for every prime q | e, for Gamma = `gamma_bound`."""
    target = N + gamma
    a = 1
    for qp, _ in factorize(e).items():
        ordq_e = valuation_int(e, qp)
        x = ordq_e
        while qp ** (1 + x - ordq_e) <= target:
            x += 1
        a *= qp**x
    return a


@dataclass(frozen=True)
class ConcludeReport:
    branch: str  # "e_divides_k" | "e_not_divides_k"
    verified: bool
    theorem_violation: bool
    distinct_exponents: bool
    detail: dict


def conclude_from_witness(inst: PowerSumInstance, k: int, e: int) -> ConcludeReport:
    """Verify the dichotomy for a local witness k at an admissible a."""
    distinct = len(set(inst.exponents)) == len(inst.exponents)
    if k % e == 0:
        total = RationalFunction.zero(inst.field)
        for lam in inst.lambdas:
            total = total + lam
        ok = total.is_zero
        return ConcludeReport(
            branch="e_divides_k",
            verified=ok,
            theorem_violation=not ok,
            distinct_exponents=distinct,
            detail={"sum_lambda": repr(total)},
        )
    # the coefficients of sum lambda_i eps_i^k X^{r_i}, grouped by exponent, are
    # the mu_{c,j} of the class c = k mod e(inst), which keeps only the nonzero ones
    ok = not inst.mus[k % inst.e]
    return ConcludeReport(
        branch="e_not_divides_k",
        verified=ok,
        theorem_violation=not ok,
        distinct_exponents=distinct,
        detail={"coefficient_exponents": sorted(set(inst.exponents))},
    )


@dataclass(frozen=True)
class SmallCoefReport:
    status: str  # rejected_growth | consistent_no_witness | witness_verified | theorem_violation
    rho: Fraction
    e: int | None = None
    a: int | None = None
    gamma: Fraction | None = None
    witness: int | None = None
    conclusion: ConcludeReport | None = None
    k_bound: int = 0


def smallcoef_end_to_end(inst: PowerSumInstance, rho: Fraction, k_bound: int = 100) -> SmallCoefReport:
    """Growth check, (e, a) bounds, witness scan, then the dichotomy verification."""
    if k_bound < 1:
        raise InvalidInstance("k_bound must be positive")
    rho = Fraction(rho)
    if not growth_check(inst, rho):
        return SmallCoefReport(status="rejected_growth", rho=rho, k_bound=k_bound)
    gamma = gamma_bound(rho, inst.places)
    e = min_e(inst, gamma)
    a = admissible_a(e, inst.N, gamma)
    witness = find_local_witness(inst, a, k_bound)
    if witness is None:
        return SmallCoefReport(
            status="consistent_no_witness", rho=rho, e=e, a=a, gamma=gamma, k_bound=k_bound
        )
    conclusion = conclude_from_witness(inst, witness, e)
    status = "theorem_violation" if conclusion.theorem_violation else "witness_verified"
    return SmallCoefReport(
        status=status,
        rho=rho,
        e=e,
        a=a,
        gamma=gamma,
        witness=witness,
        conclusion=conclusion,
        k_bound=k_bound,
    )
