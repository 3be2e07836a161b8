"""Executable verifiers for the value-distribution inequalities on F(t).

Each verifier computes both sides of its inequality exactly (cube-root bounds
are compared by cubing, so everything stays in integers) and returns an
InequalityReport.  On valid input `holds` must come back True: a False report
signals an implementation bug, never a counterexample.  A failing report
carries lhs, rhs and detail; the `verify` suites carry the replayable
reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constants import ConstantValue
from .errors import (
    BadChiS,
    CharPUnsupported,
    ConstantInput,
    InvalidInstance,
    MultiplicativelyDependent,
    NotSInteger,
    NotSUnit,
)
from .funfield import (
    PlaceSet,
    RationalFunction,
    chi_S,
    gcd_counting,
    deg_ins,
    height,
    is_s_integer,
    is_s_unit,
    truncated_counting,
)
from .multstruct import is_mult_independent

__all__ = ["InequalityReport", "verify_smt", "verify_sunit_count", "verify_cz_gcd"]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one exact inequality check."""

    lhs: int
    rhs: int
    holds: bool
    comparison: str = "lhs <= rhs"
    detail: dict = field(default_factory=dict)


def verify_smt(f: RationalFunction, S: PlaceSet, b: list[ConstantValue]) -> InequalityReport:
    """Truncated second main theorem: (q-2) h(f)/deg_ins <= sum N_S(f - b_i) + chi_S."""
    if f.is_constant:
        raise ConstantInput("second main theorem needs nonconstant f")
    if len(set(b)) != len(b):
        raise InvalidInstance("target constants must be pairwise distinct")
    di = deg_ins(f)
    q = len(b)
    counts = [truncated_counting(f - bi, S) for bi in b]
    lhs = (q - 2) * height(f)
    rhs = di * (sum(counts) + chi_S(S))
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        comparison="(q-2)*h(f) <= deg_ins * (sum + chi_S)",
        detail={"q": q, "height": height(f), "deg_ins": di, "counts": counts},
    )


def verify_sunit_count(f: RationalFunction, S: PlaceSet, candidates: list[ConstantValue]) -> InequalityReport:
    """At most 2g + |S| = |S| constants c can make f - c an S-unit (g = 0 on P^1)."""
    if f.is_constant:
        raise ConstantInput("S-unit count needs nonconstant f")
    if not is_s_integer(f, S):
        raise NotSInteger("f must be an S-integer")
    if len(set(candidates)) != len(candidates):
        raise InvalidInstance("candidates must be pairwise distinct")
    unit_cs = [c for c in candidates if is_s_unit(f - c, S)]
    lhs = len(unit_cs)
    rhs = S.weighted_size
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        comparison="#(S-unit translates) <= 2g + |S|",
        detail={"unit_candidates": [str(c) for c in unit_cs], "tested": len(candidates)},
    )


def verify_cz_gcd(a: RationalFunction, b: RationalFunction, S: PlaceSet) -> InequalityReport:
    """gcd bound: N_S(gcd(1-a, 1-b))^3 <= 54 * h(a) h(b) chi_S for independent S-units."""
    if a.field.char != 0:
        raise CharPUnsupported("the gcd theorem holds in characteristic 0")
    for x in (a, b):
        if not is_s_unit(x, S):
            raise NotSUnit("arguments must be S-units")
    if a.is_constant and b.is_constant:
        raise MultiplicativelyDependent("constant pair rejected: bound is vacuous")
    # b is an S-unit, so div(b) is its valuations at S, read off the record
    # the S-unit test filled, and b is not factored
    div_b = {pl: v for pl, v in zip(S, S.valuations(b)) if v}
    if not is_mult_independent(a, b, div_b):
        raise MultiplicativelyDependent("arguments are multiplicatively dependent")
    chi = chi_S(S)
    if chi < 0:
        raise BadChiS("the gcd bound needs chi_S >= 0")
    N = gcd_counting(1 - a, 1 - b, S)
    ha = height(a)
    hb = height(b)
    rhs = 54 * ha * hb * chi
    return InequalityReport(
        lhs=N,
        rhs=rhs,
        holds=N**3 <= rhs,
        comparison="N^3 <= 54*h(a)*h(b)*chi_S",
        detail={"h_a": ha, "h_b": hb, "chi_S": chi, "lhs_cubed": N**3},
    )
