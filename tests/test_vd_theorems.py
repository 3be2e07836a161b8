import dataclasses
import random
import sys
from collections import Counter

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    divisor,
    field_for,
    height,
    valuation,
    verify_cz_gcd,
    verify_smt,
    verify_sunit_count,
)
from skolemff.errors import (
    ConstantInput,
    MultiplicativelyDependent,
    NotSInteger,
    NotSUnit,
)
from skolemff import factor, funfield, verify_suites
from skolemff.generate import rand_ratfunc
from skolemff.verify_suites import run_suite
from oracles import coeffwise_kmul, kpoly_from_roots, projective_height


def c_of(fld, k):
    return ConstantValue(fld, fld.from_int(k))


def test_smt_examples(Q, F3):
    t = RationalFunction.t(Q)
    S_inf = PlaceSet([INFINITY])
    rep = verify_smt(t, S_inf, [c_of(Q, 0), c_of(Q, 1), c_of(Q, -1)])
    assert (rep.lhs, rep.rhs, rep.holds) == (1, 2, True)
    rep = verify_smt(t, S_inf, [c_of(Q, 0)])
    assert (rep.lhs, rep.rhs, rep.holds) == (-1, 0, True)
    t3 = RationalFunction.t(F3)
    rep = verify_smt(t3**3, PlaceSet([INFINITY]), [c_of(F3, 0), c_of(F3, 1), c_of(F3, 2)])
    # multiplied through by deg_ins = 3: lhs = (3-2)*h(t^3) = 3, rhs = 3*(3-1) = 6
    assert rep.holds and rep.lhs == 3 and rep.rhs == 6 and rep.detail["deg_ins"] == 3
    with pytest.raises(ConstantInput):
        verify_smt(RationalFunction.constant(Q, 1), S_inf, [c_of(Q, 0)])


def test_sunit_count_examples(Q):
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S3 = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    f = (t**2) * (t - 1)
    rep = verify_sunit_count(f, S3, [c_of(Q, 0), c_of(Q, 1), c_of(Q, -1), c_of(Q, 2)])
    assert rep.lhs == 1 and rep.rhs == 3 and rep.holds
    assert rep.detail["unit_candidates"] == ["0"]
    rep = verify_sunit_count(t * (t - 1), S3, [c_of(Q, 0)])
    assert rep.lhs == 1 and rep.holds
    S2 = PlaceSet([Place(tp), INFINITY])
    rep = verify_sunit_count(t, S2, [c_of(Q, 0), c_of(Q, 1), c_of(Q, 2)])
    assert rep.lhs <= 2 and rep.holds
    with pytest.raises(NotSInteger):
        verify_sunit_count(RationalFunction(one, tp - one), S2, [c_of(Q, 0)])


def test_cz_gcd_examples(Q):
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S3 = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    rep = verify_cz_gcd(t, t - 1, S3)
    assert rep.lhs == 0 and rep.rhs == 54 and rep.holds
    rep = verify_cz_gcd(t, 1 - t, S3)
    assert rep.lhs == 0 and rep.holds
    with pytest.raises(MultiplicativelyDependent):
        verify_cz_gcd(t**2, t**3, S3)
    with pytest.raises(NotSUnit):
        verify_cz_gcd(t + 2, t, S3)
    # chi_S < 0 cannot occur for nonconstant S-units (zeros and poles both lie
    # in S), so the S-unit check fires first on any undersized S
    with pytest.raises(NotSUnit):
        verify_cz_gcd(t, t - 1, PlaceSet([Place(tp), Place(tp - one)]))


def test_cz_gcd_nontrivial_count(Q):
    # a = t^2, b = 1 - (1-t)^3... keep it concrete: common zeros of 1-a and 1-b
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S = PlaceSet([Place(tp), Place(tp - one), Place(tp + one), INFINITY])
    a = t**2
    b = (t - 1) ** 2 * t ** (-1)
    rep = verify_cz_gcd(a, b, S)
    assert rep.holds
    assert rep.lhs**3 <= rep.rhs


def test_charp_rejected(F3):
    t = RationalFunction.t(F3)
    tp = Polynomial.t(F3)
    S = PlaceSet([Place(tp), INFINITY])
    from skolemff.errors import CharPUnsupported

    with pytest.raises(CharPUnsupported):
        verify_cz_gcd(t, t + 1, S)


def test_small_suites_clean():
    for suite, seed, count in [("smt", 1, 60), ("sunit", 2, 40), ("czgcd", 3, 40), ("gauss", 4, 40)]:
        res = run_suite(suite, seed, count)
        assert res.violations == 0, (suite, res.reproducer)
        assert res.checked > 0


def test_gauss_reduces_no_coefficient(monkeypatch):
    """C = A * B and the from_roots product stay in numerator form: heights and
    valuations read one content gcd, and no coefficient is reduced on seeds 0-9."""
    calls = []
    real = funfield._over
    monkeypatch.setattr(funfield, "_over", lambda num, den: calls.append(1) or real(num, den))
    for seed in range(10):
        assert run_suite("gauss", seed, 4).violations == 0
    assert calls == []


def test_gauss_suite_matches_its_oracle_replay():
    """The suite's draws replayed with the oracle height of the coefficient vector, the
    per-coefficient valuation min and the coefficientwise products give its counts."""

    def v_min(P, v):
        return min(valuation(c, v) for c in P.coeffs if not c.is_zero)

    for seed in range(50):
        rng, checked, violations = random.Random(seed), 0, 0
        for i in range(4):
            fld = field_for(verify_suites._ALL_SPECS[i % len(verify_suites._ALL_SPECS)])
            A = verify_suites._rand_kpoly(rng, fld, rng.randint(1, 3), verify_suites.MAX_DEG // 6)
            B = verify_suites._rand_kpoly(rng, fld, rng.randint(1, 3), verify_suites.MAX_DEG // 6)
            roots = [rand_ratfunc(rng, fld, verify_suites.MAX_DEG // 6) for _ in range(rng.randint(1, 3))]
            C = coeffwise_kmul(A, B)
            places = {v for c in A.coeffs + B.coeffs if not c.is_zero for v in divisor(c)} | {INFINITY}
            holds = (
                projective_height(C.coeffs) == projective_height(A.coeffs) + projective_height(B.coeffs)
                and all(v_min(C, v) == v_min(A, v) + v_min(B, v) for v in places)
                and projective_height(kpoly_from_roots(fld, roots).coeffs) == sum(height(b) for b in roots)
            )
            checked, violations = checked + 1, violations + (not holds)
        res = run_suite("gauss", seed, 4)
        assert (res.checked, res.violations) == (checked, violations), seed


def test_suite_determinism():
    a = run_suite("smt", 99, 25)
    b = run_suite("smt", 99, 25)
    assert (a.checked, a.violations) == (b.checked, b.violations)


def test_run_suite_keeps_the_first_failing_instance(monkeypatch):
    # the harness builds the reproducer before it draws the next instance
    seen = []
    real = verify_suites.verify_cz_gcd

    def fails_from_the_second(a, b, S):
        seen.append({"a": repr(a), "b": repr(b), "S": repr(S)})
        return dataclasses.replace(real(a, b, S), holds=len(seen) < 2)

    monkeypatch.setattr(verify_suites, "verify_cz_gcd", fails_from_the_second)
    res = run_suite("czgcd", 3, 5)
    assert (res.checked, res.violations, res.skipped_dependent) == (5, 4, 0)
    assert res.reproducer == seen[1] != seen[-1]


def test_cz_gcd_reads_b_at_S_and_factors_nothing(monkeypatch, Q):
    """b is an S-unit, so its divisor is read at S: no factor_poly call runs, and dependence is still found."""
    calls = []
    real = factor.factor_poly
    monkeypatch.setattr(factor, "factor_poly", lambda p: calls.append(p) or real(p))
    reports = [run_suite("czgcd", seed, 8) for seed in range(6)]
    assert sum(r.checked for r in reports) > 0 and sum(r.skipped_dependent for r in reports) > 0
    t = RationalFunction.t(Q)
    tp, one = Polynomial.t(Q), Polynomial.one(Q)
    S = PlaceSet([Place(tp), Place(tp - one), Place(tp + one), INFINITY])
    a = t**2 * (t - 1) / (t + 1) ** 3
    for b in (a**3, a**-2, -a * a, (-a) ** 5):
        with pytest.raises(MultiplicativelyDependent):
            verify_cz_gcd(a, b, S)
    # 5 a^3 has a divisor relation with a, but the constant 5 is not torsion
    for b in (a**3 * 5, t * (t - 1), t - 1, (t + 1) ** 3 / t, (a * (t + 1)) ** 2 / (t - 1)):
        assert verify_cz_gcd(a, b, S).holds
    assert calls == []


def test_cz_gcd_divides_by_a_place_of_S_once(monkeypatch):
    """The S-unit tests, div(b) and gcd_counting's S-integer tests read one record of S:
    on czgcd seeds 0-9 at most 521 divide_out calls run (1231 when each reader divided
    again), and within one verify_cz_gcd call only dependence_exponents' trial division
    of b at supp(a) repeats a (polynomial, place) pair."""
    real = Polynomial.divide_out
    pairs, repeats, total = Counter(), Counter(), [0]

    def counted(self, p):
        key = (self.rows, self.den, p.rows, p.den)
        if pairs[key]:
            repeats[sys._getframe(1).f_code.co_name] += 1
        pairs[key] += 1
        total[0] += 1
        return real(self, p)

    def one_call(a, b, S):
        pairs.clear()
        return verify_cz_gcd(a, b, S)

    monkeypatch.setattr(Polynomial, "divide_out", counted)
    monkeypatch.setattr(verify_suites, "verify_cz_gcd", one_call)
    for seed in range(10):
        assert run_suite("czgcd", seed, 4).violations == 0
    assert 0 < total[0] <= 521
    assert set(repeats) <= {"dependence_exponents"}, repeats
