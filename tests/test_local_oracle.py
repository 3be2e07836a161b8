"""Cross-check the modular local checker against a direct definition oracle.

The oracle computes B(k) symbolically, factors the numerator of f^a - 1, and
tests v_p(B(k)) >= 1 place by place - no radicals, no modular tables.
"""

import random
from math import lcm

from skolemff import (
    INFINITY,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    local_vanishing_check,
    valuation,
)
from skolemff.generate import generate_instance
from skolemff.powersum import LocalChecker, _poly_invmod, eval_B, find_local_witness
from conftest import example1_instance, neg_ru, one_ru
from oracles import brute_local_check


def test_local_checker_matches_brute_oracle():
    checked = 0
    for seed in range(14):
        inst, _ = generate_instance(seed, "small" if seed % 2 else "dep-heavy")
        for a in (1, 2, 3, 4, 6):
            for k in range(-4, 5):
                got, _ = local_vanishing_check(inst, k, a)
                expect = brute_local_check(inst, k, a)
                assert got == expect, (seed, a, k)
                checked += 1
    assert checked > 500


def test_local_checker_matches_oracle_nonmonomial_f(Q):
    # f with a quadratic zero place and a pole at infinity
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    quad = tp * tp + one
    S = PlaceSet([Place(tp), Place(quad), INFINITY])
    f = RationalFunction(quad, tp)
    t = RationalFunction.t(Q)
    inst_kwargs = dict(epsilons=(one_ru(Q),) * 2, exponents=(1, 0), f=f, places=S)
    from skolemff import PowerSumInstance

    inst = PowerSumInstance(lambdas=(t, -RationalFunction.one(Q)), **inst_kwargs)
    for a in (1, 2, 3):
        for k in range(-3, 4):
            got, _ = local_vanishing_check(inst, k, a)
            assert got == brute_local_check(inst, k, a), (a, k)


def test_local_checker_matches_oracle_charp(F3, F5):
    rng = random.Random(107)
    for fld in (F3, F5):
        t = RationalFunction.t(fld)
        S = PlaceSet([Place(Polynomial.t(fld)), INFINITY])
        from skolemff import PowerSumInstance

        for trial in range(4):
            m = rng.randint(1, 2)
            lams = tuple(
                RationalFunction(Polynomial(fld, [rng.randrange(fld.p) for _ in range(3)]) + Polynomial.one(fld))
                for _ in range(m)
            )
            rs = tuple(rng.sample(range(-2, 3), m))
            inst = PowerSumInstance(lams, (one_ru(fld),) * m, rs, t ** rng.randint(1, 2), S)
            for a in (1, 2, 3, 6):
                for k in range(-3, 4):
                    got, _ = local_vanishing_check(inst, k, a)
                    assert got == brute_local_check(inst, k, a), (fld.p, trial, a, k)


def test_witness_scan_matches_oracle_on_example1(Q):
    inst = example1_instance(Q)
    for a in (2, 4, 6, 8, 10):
        got = find_local_witness(inst, a, 12)
        expect = None
        for k in list(range(0, 13)) + [x for x in range(-1, -13, -1)]:
            if brute_local_check(inst, k, a):
                expect = k
                break
        assert got == expect, a


def test_reused_checker_matches_oracle_over_residue_windows(Q):
    # One checker answers every k of a window longer than 2 lcm(d, e), negative
    # k included, so each memoised result is read back for other k.  Each
    # condition's sum must equal B(k) reduced modulo G_d and the test at
    # infinity must match v_inf(B(k)) >= 1, whether or not check reaches them;
    # check(k) must match the definition oracle.
    tp, one = Polynomial.t(Q), Polynomial.one(Q)
    f = RationalFunction(tp + one * 2, tp - one)  # f(inf) = 1, whose order 1 is below e = 2
    S = PlaceSet([Place(tp - one), Place(tp + one * 2)])
    inf_inst = PowerSumInstance((RationalFunction.one(Q),) * 2, (neg_ru(Q), one_ru(Q)), (1, 0), f, S)
    # a repeated exponent whose mu_{1,1} = 1 - 1 cancels: B(k) = (1 + (-1)^k) t^k - 2 t^2
    t, one = RationalFunction.t(Q), RationalFunction.one(Q)
    repeated = PowerSumInstance(
        (one, one, -2 * t**2), (one_ru(Q), neg_ru(Q), one_ru(Q)), (1, 1, 0), t, PlaceSet([Place(tp), INFINITY])
    )
    assert [j for j, _ in repeated.mus[1]] == [0]
    cases = [
        (generate_instance(0, "small")[0], 6),  # Q, e = 2
        (generate_instance(9, "small")[0], 2),  # Q(i), e = 4
        (generate_instance(2, "charp")[0], 4),  # F_3, e = 2
        (generate_instance(6, "charp")[0], 3),  # F_5, e = 2
        (inf_inst, 2),
        (repeated, 4),
    ]
    repeated_passes = 0
    at_infinity = set()
    for inst, a in cases:
        assert inst.e >= 2 and any(inst.exponents)
        checker = LocalChecker(inst, a)
        W = lcm(checker.a, inst.e) + 1
        for k in range(-W, W + 1):
            repeated_passes += inst is repeated and checker.check(k)
            assert checker.check(k) == brute_local_check(inst, k, a), (inst.field.spec, a, k)
            B = eval_B(inst, k)
            for cond in checker.conditions:
                G = cond["G"]
                assert checker._residue_sum(cond, k) == B.num * _poly_invmod(B.den % G, G) % G, (a, k, cond["d"])
            if checker.inf_condition is not None:
                vanishes = B.is_zero or valuation(B, INFINITY) >= 1
                assert checker.check_infinity(k) == vanishes, (a, k)
                at_infinity.add(vanishes)
    assert at_infinity == {True, False}
    assert repeated_passes > 0  # the repeated exponent passes at k = 2 mod 4
