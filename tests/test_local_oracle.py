"""Cross-check the modular local checker against a direct definition oracle.

The oracle computes B(k) symbolically, factors the numerator of f^a - 1, and
tests v_p(B(k)) >= 1 place by place - no radicals, no modular tables.
"""

import random
import sys
from itertools import chain
from math import lcm

from skolemff import (
    INFINITY,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    valuation,
)
from skolemff.constants import zeta
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
                got = LocalChecker(inst, a).check(k)
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
            got = LocalChecker(inst, a).check(k)
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
                    got = LocalChecker(inst, a).check(k)
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
    # condition's sum must equal B(k) reduced modulo G_d, and the one at
    # infinity (in F, held as constants mod t) B(k)(inf), whether or not check
    # reaches them; check(k) must match the definition oracle.
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
            for key in checker.keys:
                cond = checker.condition(key)
                if cond is None:
                    continue
                got = checker._residue_sum(cond, k)
                if key == INFINITY:
                    vanishes = B.is_zero or valuation(B, INFINITY) >= 1
                    assert got == Polynomial(inst.field, (B.value_at_infinity(),)), (a, k)
                    assert got.is_zero == vanishes, (a, k)
                    at_infinity.add(vanishes)
                else:
                    G = cond["G"]
                    assert got == B.num * _poly_invmod(B.den % G, G) % G, (a, k, key)
    assert at_infinity == {True, False}
    assert repeated_passes > 0  # the repeated exponent passes at k = 2 mod 4


def test_witness_scan_checks_each_residue_of_the_period_once(Q, monkeypatch):
    # check(k) depends only on k mod lcm(a, e), so the scan skips a residue it
    # has seen fail and stops once every residue has failed; it must return the
    # witness of the full window scan, also for a above the window's width and
    # with the test at infinity (f(inf) = 1 off S)
    tp, one = Polynomial.t(Q), Polynomial.one(Q)
    f = RationalFunction(tp + one * 2, tp - one)
    S = PlaceSet([Place(tp - one), Place(tp + one * 2)])
    inf_inst = PowerSumInstance((RationalFunction.one(Q),) * 2, (neg_ru(Q), one_ru(Q)), (1, 0), f, S)
    # B(k) = t^k - t^-2 vanishes at the primitive a-th roots of unity exactly when k = -2 mod a
    t = RationalFunction.t(Q)
    S_t = PlaceSet([Place(tp), INFINITY])
    shifted = PowerSumInstance((RationalFunction.one(Q), -(t**-2)), (one_ru(Q),) * 2, (1, 0), t, S_t)
    cases = [(inf_inst, a, k_bound) for a in (1, 2, 4, 6) for k_bound in (1, 2, 5)]
    ex1 = example1_instance(Q)
    cases += [(shifted, 7, 2), (shifted, 7, 5), (shifted, 3, 3), (ex1, 2, 3), (ex1, 6, 4)]
    cases += [
        (generate_instance(seed, profile)[0], a, k_bound)
        for profile in ("small", "charp") for seed in range(4) for a, k_bound in ((1, 4), (2, 3), (12, 2), (6, 8))
    ]
    calls = []
    check = LocalChecker.check
    monkeypatch.setattr(LocalChecker, "check", lambda self, k: calls.append(k) or check(self, k))
    stopped_early, witnesses = 0, set()
    for inst, a, k_bound in cases:
        full = LocalChecker(inst, a)
        window = list(chain(range(k_bound + 1), range(-1, -k_bound - 1, -1)))
        want = next((k for k in window if check(full, k)), None)
        calls.clear()
        assert find_local_witness(inst, a, k_bound) == want, (inst.field.spec, a, k_bound)
        assert full.period == lcm(full.a, inst.e)
        assert len(calls) <= min(full.period, len(window)), (a, k_bound, calls)
        assert len({k % full.period for k in calls}) == len(calls)
        stopped_early += want is None and len(calls) < len(window)
        witnesses.add(want)
    assert stopped_early > 0 and {-2, 0, 1, 5} <= witnesses


def _order_above_one_cases(Q, Qi, F5):
    """Instances with S = {t, t - 1}, off infinity, and f(inf) of order 2 or 4.

    f = -t/(t - 1) over Q and F_5, f = i t/(t - 1) over Q(i).  B(k)(inf) is
    f(inf)^k + 1, (-1)^k f(inf)^{2k} - 1 and f(inf)^{2k} - 1, which vanish
    for some k and not for others.  B(k) = f^k - 1/(2t) never vanishes at
    infinity but does at t = 1/2, where f = 1 over Q and F_5, so at a = 2
    there infinity alone decides check(k).
    """
    out = []
    for fld, c in ((Q, -1), (F5, -1), (Qi, zeta(Qi, 4))):
        tp, t, one = Polynomial.t(fld), RationalFunction.t(fld), RationalFunction.one(fld)
        S = PlaceSet([Place(tp), Place(tp - Polynomial.one(fld))])
        f = RationalFunction.constant(fld, c) * t / (t - 1)
        out += [
            PowerSumInstance((one, one), (one_ru(fld),) * 2, (1, 0), f, S),
            PowerSumInstance((one, -one), (neg_ru(fld), one_ru(fld)), (2, 0), f, S),
            PowerSumInstance((t / (t - 1), -one, 1 / (t - 1)), (one_ru(fld),) * 3, (2, 0, 1), f, S),
            PowerSumInstance((one, -one / (2 * t)), (one_ru(fld),) * 2, (1, 0), f, S),
        ]
    return out


def test_infinity_condition_of_order_above_one_matches_oracle(Q, Qi, F5):
    # f(inf) of order d = 2 or 4 off S: infinity is a zero of f^a - 1 exactly
    # when d | a, and its condition has d = ord f(inf) and period lcm(d, e)
    outcomes, orders = set(), set()
    for inst in _order_above_one_cases(Q, Qi, F5):
        order = inst.f.value_at_infinity().order()
        assert order in (2, 4) and not inst.places.has_infinity
        for a in (1, 2, 4):
            checker = LocalChecker(inst, a)
            cond = checker.condition(INFINITY)
            assert (cond is not None) == (a % order == 0), (inst.field.spec, a)
            if cond is not None:
                assert cond["d"] == order and cond["period"] == lcm(order, inst.e)
                orders.add(order)
            W = 2 * lcm(a, inst.e) + 1
            for k in range(-W, W + 1):
                assert checker.check(k) == brute_local_check(inst, k, a), (inst.field.spec, a, k)
                if cond is not None:
                    outcomes.add(checker._residue_sum(cond, k).is_zero)
    assert outcomes == {True, False} and orders == {2, 4}


def test_local_layer_factors_nothing(monkeypatch):
    # find_local_witness builds its conditions from radicals and reductions
    # alone: no factor_poly call, reached through any module
    insts = [generate_instance(seed, profile)[0] for profile in ("small", "dep-heavy", "charp") for seed in range(20)]

    def refuse(*args, **kwargs):
        raise AssertionError("the local layer called factor_poly")

    for name, module in list(sys.modules.items()):
        if name.startswith("skolemff") and hasattr(module, "factor_poly"):
            monkeypatch.setattr(module, "factor_poly", refuse)
    witnesses = 0
    for inst in insts:
        for a in (1, 2, 6, 12):
            witnesses += find_local_witness(inst, a, 20) is not None
    assert witnesses > 0
