"""Cross-check the modular local checker against a direct definition oracle.

The oracle computes B(k) symbolically, factors the numerator of f^a - 1, and
tests v_p(B(k)) >= 1 place by place - no radicals, no modular tables.
"""

import random
import sys
from collections import Counter
from itertools import chain
from math import lcm

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    FieldSpec,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    field_for,
    valuation,
)
from skolemff import funfield, powersum
from skolemff.constants import zeta
from skolemff.errors import FactorizationTooHard
from skolemff.funfield import radical
from skolemff.generate import generate_instance
from skolemff.intutil import cyclotomic_poly, euler_phi
from skolemff.powersum import LocalChecker, _poly_invmod, eval_B, find_local_witness
from conftest import example1_instance, neg_ru, one_ru
from oracles import brute_local_check, strip_places


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


# -- G_d of a monomial f -------------------------------------------------------


def _monomial_cases():
    """(f, S, ds) over F_9, F_25, F_3, F_5, Q and Q(i): f = c t^s with s > 0, s < 0, p | s and
    p^2 | s, c = 1, c != 1 (over Q with a denominator, over F_9 and F_25 outside the prime
    field), S = {(t), inf}, and ds the d <= 60 prime to p with phi(d) |s| <= 80."""
    for spec, extra in (
        (FieldSpec(3, 1, 2), ((0, 1), 1)),  # x, outside F_3
        (FieldSpec(5, 1, 2), ((2, 1), 1)),  # 2 + x, outside F_5
        (FieldSpec(3, 1, 1), None),
        (FieldSpec(5, 1, 1), None),
        (FieldSpec(0, 1), ((1,), 3)),  # 1/3
        (FieldSpec(0, 4), ((1, 1), 1)),  # 1 + i
    ):
        fld = field_for(spec)
        p = fld.char
        t = RationalFunction.t(fld)
        S = PlaceSet([Place(Polynomial.t(fld)), INFINITY])
        cs = [ConstantValue(fld, fld.from_int(k)) for k in (1, 2)] + ([ConstantValue(fld, *extra)] if extra else [])
        ss = (1, -1, 3, -2) if not p else (2, -1, p, -p, -p * p)
        for c in cs:
            for s in ss:
                f = c * t**s
                ds = [d for d in range(1, 61) if d % (p or 61) and euler_phi(d) * abs(s) <= 80]
                yield f, S, ds


def _horner_numerator(d: int, f):
    """den^phi(d) Phi_d(num/den) by homogeneous Horner over F[t]."""
    acc = denpow = Polynomial.one(f.field)
    for cj in reversed(cyclotomic_poly(d)[:-1]):
        denpow = denpow * f.den
        acc = acc * f.num + denpow * cj
    return acc


def _monomial_mismatches():
    """Yield each (what, f, d) where the numerator or G_d that `powersum` builds differs from the
    oracle (homogeneous Horner for the numerator, S-stripped `radical` of it for G_d), or where
    building G_d raises (fbar's order is asserted on every build)."""
    for f, S, ds in _monomial_cases():
        inst = PowerSumInstance((RationalFunction.one(f.field),), (one_ru(f.field),), (1,), f, S)
        for d in ds:
            A = _horner_numerator(d, f)
            if powersum._phi_numerator(d, f) != A:
                yield "numerator", f, d
            try:
                cond = LocalChecker(inst, d).condition(d)
            except Exception:
                yield "raised", f, d
                continue
            G = cond["G"] if cond else Polynomial.one(f.field)
            if G != strip_places(radical(A), S):
                yield "G", f, d


def _root_by_definition(f, rooted=True, strip_p=True):
    """c' t^s' from f = c t^s by the definition: s = p^k s', c' = c^(p^(k(deg F - 1)))."""
    fld, c = f.field, f.num.lc()
    s, k, p = f.num.degree - f.den.degree, 0, fld.char
    while strip_p and p and s % p == 0:
        s, k = s // p, k + 1
    if rooted and k:
        c = c ** (p ** (k * (fld.d - 1)))
    return c * RationalFunction.t(fld) ** s


def test_monomial_G_matches_horner_and_radical():
    assert list(_monomial_mismatches()) == []
    roots = [(powersum._monomial_root(f), _root_by_definition(f)) for f, _, _ in _monomial_cases()]
    assert all(got == want for got, want in roots)


def test_monomial_oracle_catches_mutations(monkeypatch):
    numerator = powersum._phi_numerator

    def drop_b(d, f):
        return numerator(d, RationalFunction._reduced(f.num, Polynomial.one(f.field)))

    mutants = {
        "wrong p^k-th root of c": ("_monomial_root", lambda f: _root_by_definition(f, rooted=False)),
        "k ignored": ("_monomial_root", lambda f: _root_by_definition(f, strip_p=False)),
        "b dropped when s < 0": ("_phi_numerator", drop_b),
    }
    for name, (attr, mutant) in mutants.items():
        with monkeypatch.context() as m:
            m.setattr(powersum, attr, mutant)
            assert next(_monomial_mismatches(), None) is not None, name


def test_monomial_conditions_build_without_squarefree_pass_or_products(Q, monkeypatch):
    """For a monomial f no condition runs `squarefree_decomposition`, and `_phi_numerator` multiplies
    no polynomials; a non-monomial f still takes `radical`."""
    calls, inside = Counter(), [False]
    numerator, mul, sqfree, rad = (
        powersum._phi_numerator, Polynomial.__mul__, funfield.squarefree_decomposition, powersum.radical,
    )

    def counted(name, fn):
        def wrapped(*args):
            calls[name, inside[0]] += 1
            return fn(*args)
        return wrapped

    def in_numerator(d, f):
        calls["numerator", False] += 1
        inside[0] = True
        try:
            return numerator(d, f)
        finally:
            inside[0] = False

    monkeypatch.setattr(powersum, "_phi_numerator", in_numerator)
    monkeypatch.setattr(Polynomial, "__mul__", counted("mul", mul))
    monkeypatch.setattr(Polynomial, "__rmul__", counted("mul", mul))
    monkeypatch.setattr(funfield, "squarefree_decomposition", counted("sqfree", sqfree))
    monkeypatch.setattr(powersum, "radical", counted("radical", rad))
    for profile in ("charp", "dep-heavy"):
        for seed in range(20):
            inst = generate_instance(seed, profile)[0]
            assert inst.f.num.is_monomial and inst.f.den.is_monomial
            for a in (1, 2, 6, 12):
                find_local_witness(inst, a, 20)
    assert calls["numerator", False] > 50
    assert not any(n for (name, _), n in calls.items() if name in ("sqfree", "radical"))
    assert calls["mul", True] == 0

    tp, one = Polynomial.t(Q), Polynomial.one(Q)
    f = RationalFunction(tp * tp + one, tp)
    S = PlaceSet([Place(tp), Place(tp * tp + one), INFINITY])
    inst = PowerSumInstance((RationalFunction.t(Q), -RationalFunction.one(Q)), (one_ru(Q),) * 2, (1, 0), f, S)
    LocalChecker(inst, 6).check(1)
    assert calls["radical", False] > 0


def test_local_checker_matches_oracle_on_high_degree_monomial_f(Q, F5):
    """f = c t^20 over F_5 at a = 3 and f = 2 t^-3 over Q at a = 12, where f^a - 1 has degree 60
    and 36, under the factoring cap of the oracle.  Over F_5, Phi_3(f) has a numerator of degree
    40 and G_3 = Phi_3(c' t^4) degree 8."""
    cases = [(F5, c * RationalFunction.t(F5) ** 20, 3, {1: 4, 3: 8}) for c in (1, 2)]
    cases.append((Q, 2 * RationalFunction.t(Q) ** -3, 12, {1: 3, 2: 3, 3: 6, 4: 6, 6: 6, 12: 12}))
    for fld, f, a, degrees in cases:
        t = RationalFunction.t(fld)
        S = PlaceSet([Place(Polynomial.t(fld)), INFINITY])
        inst = PowerSumInstance((t, -t), (one_ru(fld), neg_ru(fld)), (1, 0), f, S)
        checker = LocalChecker(inst, a)
        assert {key: cond["G"].degree for key in checker.keys if (cond := checker.condition(key))} == degrees
        outcomes = [checker.check(k) for k in range(checker.period)]
        assert outcomes == [brute_local_check(inst, k, a) for k in range(checker.period)], fld.spec
        assert set(outcomes) == {True, False}


def test_local_cap_counts_the_degree_of_the_monomial_root(F5, monkeypatch):
    """f = t^10 over F_5 at a = 6: every G_d comes from Phi_d(t^2), of degree at most a h(t^2) = 12,
    so a cap of 40 admits the checker though a h(f) = 60; a cap of 11 still refuses it, naming 12."""
    t = RationalFunction.t(F5)
    S = PlaceSet([Place(Polynomial.t(F5)), INFINITY])
    inst = PowerSumInstance((t, -t), (one_ru(F5), neg_ru(F5)), (1, 0), t**10, S)
    monkeypatch.setenv("SKOLEMFF_MAX_LOCAL_DEGREE", "40")
    checker = LocalChecker(inst, 6)
    outcomes = [checker.check(k) for k in range(checker.period)]
    assert outcomes == [brute_local_check(inst, k, 6) for k in range(checker.period)]
    assert set(outcomes) == {True, False}
    monkeypatch.setenv("SKOLEMFF_MAX_LOCAL_DEGREE", "11")
    with pytest.raises(FactorizationTooHard, match=r"f\^6-1: degree 12 exceeds SKOLEMFF_MAX_LOCAL_DEGREE=11"):
        LocalChecker(inst, 6)
