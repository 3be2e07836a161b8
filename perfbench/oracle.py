"""Independent checks of benchmark answers, without the companion-polynomial machinery.

B(n) is declared identically zero only after it vanishes at more points of F
than the degree of its numerator can allow (exact arithmetic, so this is a
proof); one nonzero value disproves it.  Only characteristic 0 is handled,
which covers every field the solve workload declares.
"""

from __future__ import annotations

from skolemff.constants import ConstantValue
from skolemff.funfield import height


def _points(fld):
    """0, 1, -1, 2, -2, ... as constants of F."""
    k = 0
    while True:
        yield ConstantValue(fld, fld.from_int(k))
        k = -k + (1 if k <= 0 else 0)


def _value_at(inst, n: int, x: ConstantValue) -> ConstantValue:
    fx = inst.f.evaluate(x)
    acc = ConstantValue(inst.field, inst.field.zero_raw)
    for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
        acc = acc + lam.evaluate(x) * eps.value ** (n % eps.order) * fx ** (r * n)
    return acc


def vanishes_identically(inst, n: int) -> bool:
    """True iff B(n) = 0 in K, decided by point evaluation."""
    if inst.field.char:
        raise ValueError("point-evaluation oracle needs characteristic 0")
    degree_bound = sum(
        height(lam) + abs(r * n) * height(inst.f) for lam, r in zip(inst.lambdas, inst.exponents)
    )
    need, found = degree_bound + 2, 0
    points = _points(inst.field)
    for _ in range(6 * need + 40):
        try:
            value = _value_at(inst, n, next(points))
        except ZeroDivisionError:
            continue  # the point is a pole of some lambda_i or of f
        if not value.is_zero:
            return False
        found += 1
        if found >= need:
            return True
    raise RuntimeError("oracle ran out of evaluation points")


def first_zero(inst, bound: int) -> int | None:
    """Smallest-|n| zero with |n| <= bound, ties toward positive n; else None."""
    for n in sorted(range(-bound, bound + 1), key=lambda v: (abs(v), v < 0)):
        if vanishes_identically(inst, n):
            return n
    return None


def check_solve_answer(inst, global_zero: int | None, bound: int = 8) -> str | None:
    """None when the solve answer agrees with the oracle, else the disagreement."""
    expected = first_zero(inst, bound)
    if global_zero is None:
        return None if expected is None else f"oracle zero at n={expected}, solve found none"
    if abs(global_zero) <= bound:
        return None if expected == global_zero else f"solve zero n={global_zero}, oracle first zero {expected}"
    if expected is not None:
        return f"oracle zero at n={expected} precedes solve zero n={global_zero}"
    return None if vanishes_identically(inst, global_zero) else f"B({global_zero}) is not zero"
