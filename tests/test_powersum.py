import random
import re
from collections import Counter
from math import lcm

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    RootOfUnity,
    certify_local_global,
    choose_p,
    choose_q,
    decide_global_zero,
    ell_bound,
    eval_B,
    find_local_witness,
    height,
    lemma_claimD_check,
    lemma_claimI_check,
    local_vanishing_check,
    poly_height,
    split_dep_ind,
)
from skolemff.errors import (
    CharPUnsupported,
    ConstantInput,
    FactorizationTooHard,
    InvalidInstance,
    QEqualsOne,
    ZeroInput,
)
from skolemff import powersum
from skolemff.generate import generate_instance
from skolemff.intutil import divisors
from skolemff.multstruct import DependenceWitness
from skolemff.powersum import LocalChecker, class_reduction
from conftest import example1_instance, neg_ru, one_ru


from oracles import brute_zero_scan, horner_phi


# -- instances and eval ---------------------------------------------------------


def test_instance_validation(Q):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    with pytest.raises(ConstantInput):
        PowerSumInstance((t,), (one_ru(Q),), (1,), RationalFunction.constant(Q, 2), S)
    with pytest.raises(InvalidInstance):
        PowerSumInstance((t,), (one_ru(Q),), (1,), t - 1, S)  # f not an S-unit
    with pytest.raises(ZeroInput):
        PowerSumInstance((RationalFunction.zero(Q),), (one_ru(Q),), (1,), t, S)
    with pytest.raises(InvalidInstance):
        PowerSumInstance((RationalFunction(Polynomial.one(Q), Polynomial.t(Q) - Polynomial.one(Q)),),
                         (one_ru(Q),), (1,), t, S)  # lambda not an S-integer


def test_eval_B_examples(Q, ex1):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    simple = PowerSumInstance((RationalFunction.one(Q),) * 2, (one_ru(Q),) * 2, (0, 1), t, S)
    assert eval_B(simple, 2) == 1 + t**2
    assert eval_B(ex1, 1) == t * (t + 1) * (t**2 - 1)
    assert eval_B(ex1, 0) == 4


def test_companion_examples(Q, ex1):
    one = RationalFunction.one(Q)
    t = RationalFunction.t(Q)
    P0, g = class_reduction(ex1, 0)
    assert P0 == KPolynomial(Q, (one, one, one, one)) and g == t**2
    # class 1 carries the twist eps_i f^{r_i}
    P1, _ = class_reduction(ex1, 1)
    assert P1 == KPolynomial(Q, (-t, -(t**2), t**3, t**4))
    # single-term instance: the companion is a monomial
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    m1 = PowerSumInstance((t,), (neg_ru(Q),), (3,), t, S)
    assert class_reduction(m1, 1)[0] == KPolynomial(Q, (-(t**4),))


def test_companion_identity_random(Q):
    checked = 0
    for seed in range(10):
        inst, _ = generate_instance(seed, "small")
        reductions = [class_reduction(inst, c) for c in range(inst.e)]
        for n in range(-20, 21):
            m, c = divmod(n, inst.e)
            P, g = reductions[c]
            lhs = eval_B(inst, n)
            rhs = (g ** (inst.r_min * m)) * P.evaluate(g**m)
            assert lhs == rhs
            checked += 1
    assert checked > 300


def test_class_reduction_identity(Q, ex1):
    # B(c + e m) = g^{r_min m} * P'_c(g^m); the f^{r_i c} twist sits inside P'_c
    for c in range(ex1.e):
        P, g = class_reduction(ex1, c)
        for m in range(-3, 4):
            n = c + ex1.e * m
            expect = (g ** (ex1.r_min * m)) * P.evaluate(g**m)
            assert eval_B(ex1, n) == expect


# -- local checks ------------------------------------------------------------------


def test_local_vanishing_examples(ex1):
    ok, _ = local_vanishing_check(ex1, 1, 2)
    assert ok
    ok, witnesses = local_vanishing_check(ex1, 2, 4)
    assert not ok and witnesses
    # identically zero B(k) passes every a
    Q = ex1.field
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    zero_inst = PowerSumInstance((t, -t), (one_ru(Q),) * 2, (1, 1), t, S)
    for a in (1, 2, 3, 8):
        ok, _ = local_vanishing_check(zero_inst, 5, a)
        assert ok


def test_find_local_witness_examples(ex1, ex2):
    assert find_local_witness(ex2, 3, 50) == 2
    assert find_local_witness(ex2, 5, 50) == 4
    assert find_local_witness(ex1, 72, 200) is None
    assert find_local_witness(ex1, 2, 50) == 1


def test_each_residue_sum_computed_once(ex1, monkeypatch):
    # B(k) mod G_d depends only on k mod lcm(d, e): a scan over 401 k computes
    # each condition's sum at most once per residue.
    seen = Counter()
    class_sum = LocalChecker._class_sum

    def counted(self, cond, k):
        seen[id(cond), k % lcm(cond["d"], ex1.e)] += 1
        return class_sum(self, cond, k)

    monkeypatch.setattr(LocalChecker, "_class_sum", counted)
    assert find_local_witness(ex1, 72, 200) is None
    assert seen and max(seen.values()) == 1


def _count_built_conditions(monkeypatch) -> list[int]:
    """Record d each time a LocalChecker builds the numerator of Phi_d(f)."""
    built, phi_numerator = [], powersum._phi_numerator

    def counted(d, f):
        built.append(d)
        return phi_numerator(d, f)

    monkeypatch.setattr(powersum, "_phi_numerator", counted)
    return built


def test_checker_builds_only_the_conditions_its_checks_read(ex1, monkeypatch):
    # Every k of the scan fails at a small d, so the larger divisors of 72
    # are never built.
    nontrivial = len(LocalChecker(ex1, 72).conditions)
    built = _count_built_conditions(monkeypatch)
    assert find_local_witness(ex1, 72, 200) is None
    assert len(built) == len(set(built)) and 0 < len(built) < nontrivial == 12


def test_witness_scan_builds_every_condition(ex1, ex2, monkeypatch):
    # A witness passes every condition, so every divisor has been built once.
    built = _count_built_conditions(monkeypatch)
    for inst, a, witness in ((ex2, 3, 2), (ex2, 5, 4), (ex2, 6, 5), (ex1, 2, 1), (ex1, 6, 3)):
        built.clear()
        assert find_local_witness(inst, a, 50) == witness
        assert sorted(built) == divisors(a), (a, built)


def test_order_assertion_runs_when_a_condition_is_first_read(ex1, monkeypatch):
    checker = LocalChecker(ex1, 6)
    assert not checker.check(0)  # fails at d = 1 and builds nothing else
    invmod = powersum._poly_invmod
    monkeypatch.setattr(powersum, "_poly_invmod", lambda p, mod: invmod(p, mod) * 2 % mod)
    corrupted = LocalChecker(ex1, 6)  # fbar = 2t mod G_d, built on first read only
    with pytest.raises(AssertionError, match="order dividing d"):
        checker.check(1)  # passes d = 1, then builds d = 2
    with pytest.raises(AssertionError, match="order dividing d"):
        corrupted.check(0)


def test_failing_places_raises_when_a_place_cannot_be_factored(ex1, monkeypatch):
    t = Polynomial.t(ex1.field)
    one = Polynomial.one(ex1.field)
    assert local_vanishing_check(ex1, 1, 6) == (False, (Place(t * t - t + one), Place(t * t + t + one)))
    monkeypatch.setenv("SKOLEMFF_MAX_DEGREE", "1")
    with pytest.raises(FactorizationTooHard):
        local_vanishing_check(ex1, 1, 6)


def test_local_cap_reports_degree_and_cap(ex2, monkeypatch):
    monkeypatch.setenv("SKOLEMFF_MAX_LOCAL_DEGREE", "8")
    msg = "local check at f^6-1: degree 12 exceeds SKOLEMFF_MAX_LOCAL_DEGREE=8"
    with pytest.raises(FactorizationTooHard, match=re.escape(msg)):
        LocalChecker(ex2, 6)


def test_local_monotone_in_a(ex1, ex2):
    # for a | a2, a witness for a2 is a witness for a
    for inst in (ex1, ex2):
        for a, a2 in ((2, 4), (2, 6), (3, 9), (1, 5)):
            if a2 % a:
                continue
            for k in range(-6, 7):
                ok2, _ = local_vanishing_check(inst, k, a2)
                if ok2:
                    ok1, _ = local_vanishing_check(inst, k, a)
                    assert ok1, (a, a2, k)


def test_local_check_charp_strips_p_part(F3):
    # zeros of f^6 - 1 and f^2 - 1 coincide in characteristic 3
    t = RationalFunction.t(F3)
    S = PlaceSet([Place(Polynomial.t(F3)), INFINITY])
    inst = PowerSumInstance(
        (RationalFunction.one(F3), -RationalFunction.one(F3)),
        (one_ru(F3),) * 2,
        (1, 2),
        t**3,
        S,
    )
    for k in range(-6, 7):
        ok6, _ = local_vanishing_check(inst, k, 6)
        ok2, _ = local_vanishing_check(inst, k, 2)
        assert ok6 == ok2
    # B(k) = f^k(1 - f^k) vanishes at all zeros of f^a - 1 iff a | k
    ok, _ = local_vanishing_check(inst, 4, 4)
    assert ok
    ok, _ = local_vanishing_check(inst, 3, 4)
    assert not ok


def test_local_check_at_infinity(Q):
    # S without infinity: f = t/(t-1) has f(inf) = 1, so infinity is a zero of
    # f^a - 1 for every a and the check must test B(k) there
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(tp), Place(tp - one)])
    f = t / (t - 1)
    inst = PowerSumInstance(
        (RationalFunction.constant(Q, 2), RationalFunction.constant(Q, -1)),
        (one_ru(Q),) * 2,
        (1, 0),
        f,
        S,
    )
    ok, witnesses = local_vanishing_check(inst, 1, 1)
    assert not ok and INFINITY in witnesses
    balanced = PowerSumInstance(
        (RationalFunction.one(Q), RationalFunction.constant(Q, -1)),
        (one_ru(Q),) * 2,
        (1, 0),
        f,
        S,
    )
    # B(k) = f^k - 1 vanishes at every zero of f^a - 1 whenever a | k
    ok, _ = local_vanishing_check(balanced, 4, 4)
    assert ok


# -- global decision -----------------------------------------------------------------


def test_decide_global_zero_examples(Q, ex1, ex2):
    assert decide_global_zero(ex2) == -1
    assert eval_B(ex2, -1).is_zero
    assert decide_global_zero(ex1) is None
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    triv = PowerSumInstance((RationalFunction.one(Q), -t), (one_ru(Q),) * 2, (1, 0), t, S)
    assert decide_global_zero(triv) == 1


def test_decide_handles_identically_zero_class(Q):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((t, -t), (one_ru(Q),) * 2, (1, 1), t, S)
    assert decide_global_zero(inst) == 0
    # only odd n vanish: lambda (t, t), eps (1, -1), same exponent
    inst2 = PowerSumInstance((t, t), (one_ru(Q), neg_ru(Q)), (1, 1), t, S)
    assert decide_global_zero(inst2) == 1


def test_decide_agrees_with_brute_oracle():
    rng = random.Random(79)
    agreements = 0
    seed = 0
    while agreements < 40:
        inst, _ = generate_instance(seed, "small")
        seed += 1
        windows = []
        for c in range(inst.e):
            P, g = class_reduction(inst, c)
            if P.is_zero:
                windows.append(0)
            else:
                windows.append(poly_height(P) // height(g))
        if max(windows) > 50:
            continue
        got = decide_global_zero(inst)
        expect = brute_zero_scan(inst, 50)
        if got is not None and abs(got) > 50:
            got = None  # outside the oracle window (cannot happen with window <= 50)
        assert got == expect, (seed - 1, got, expect)
        agreements += 1


def test_decide_found_zero_passes_local_checks(Q, ex2):
    n = decide_global_zero(ex2)
    for a in range(1, 21):
        ok, _ = local_vanishing_check(ex2, n, a)
        assert ok


def test_collision_bound_regression(Q):
    # exponent collisions overflow the naive (N+1)*2*max-height window; the
    # poly_height window must still find the zero at n = 1
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    lams = [RationalFunction(one, tp - Polynomial(Q, (i,))) for i in range(1, 6)]
    f = -sum(lams[1:], lams[0])
    from skolemff.funfield import divisor

    S = PlaceSet(set(divisor(f)) | {Place(tp - Polynomial(Q, (i,))) for i in range(1, 6)} | {INFINITY})
    inst = PowerSumInstance(
        tuple(lams) + (RationalFunction.one(Q),),
        (one_ru(Q),) * 6,
        (0, 0, 0, 0, 0, 1),
        f,
        S,
    )
    assert decide_global_zero(inst) == 1
    assert eval_B(inst, 1).is_zero


def test_root_heights_bounded_by_poly_height(Q):
    # ledger validation: every root of P'_c satisfies h(beta) <= h(P'_c)
    from skolemff.kroots import find_roots_in_K

    for seed in range(10):
        inst, _ = generate_instance(seed, "dep-heavy")
        for c in range(inst.e):
            P, g = class_reduction(inst, c)
            if P.is_zero:
                continue
            hp = poly_height(P)
            for beta, _ in find_roots_in_K(P).roots:
                assert height(beta) <= hp


# -- split / choose / ell ---------------------------------------------------------------


def test_split_examples(Q):
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    lam0 = (t**3) * (t - 1)
    lam1 = -(t**3 + t - 1)
    inst = PowerSumInstance((lam0, lam1, RationalFunction.one(Q)), (one_ru(Q),) * 3, (0, 1, 2), t**2, S)
    sp = split_dep_ind(inst, 0)
    assert [(str(b), m, (w.q, w.r)) for b, m, w in sp.dep] == [("t^3", 1, (2, 3))]
    assert [(str(b), m) for b, m in sp.ind] == [("t + -1", 1)]
    assert sp.p_dep.evaluate(t**3).is_zero
    assert sp.poly == sp.p_dep * sp.p_ind

    S2 = PlaceSet([Place(tp), INFINITY])
    inst2 = PowerSumInstance((RationalFunction.one(Q),) * 2, (one_ru(Q),) * 2, (0, 1), t, S2)
    sp2 = split_dep_ind(inst2, 0)
    assert len(sp2.dep) == 1 and (sp2.dep[0][2].q, sp2.dep[0][2].r) == (2, 0)

    inst3 = PowerSumInstance((-t, RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 2), t, S2)
    sp3 = split_dep_ind(inst3, 0)
    assert not sp3.dep and not sp3.ind and sp3.remainder.degree == 2 and sp3.complete


def test_split_zero_poly_raises(Q):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((t, -t), (one_ru(Q),) * 2, (1, 1), t, S)
    with pytest.raises(ZeroInput):
        split_dep_ind(inst, 0)


def test_choose_q(Q):
    triv = RootOfUnity(1, ConstantValue(Q, Q.one_raw))
    assert choose_q([]) == 2
    assert choose_q([DependenceWitness(2, 3, triv)]) == 2
    assert choose_q([DependenceWitness(2, 3, triv), DependenceWitness(3, 1, triv)]) == 6
    with pytest.raises(QEqualsOne):
        choose_q([DependenceWitness(1, 4, triv)])
    assert choose_q([DependenceWitness(1, 4, triv)], global_zero_absent=False) == 1


def test_choose_p(Q):
    triv = RootOfUnity(1, ConstantValue(Q, Q.one_raw))
    assert choose_p([], 2) == 3
    # r-differences {3}: witnesses with exact r 3 and 0 at q = 2
    ws = [DependenceWitness(2, 3, triv), DependenceWitness(2, 0, triv)]
    assert choose_p(ws, 2) == 5
    # q = 6 excludes 2 and 3; difference 5 excludes 5
    ws = [DependenceWitness(6, 5, triv), DependenceWitness(6, 0, triv)]
    assert choose_p(ws, 6) == 7


def test_choose_p_never_divides(Q):
    triv = RootOfUnity(1, ConstantValue(Q, Q.one_raw))
    rng = random.Random(83)
    for _ in range(30):
        q = rng.choice([2, 3, 4, 6])
        ws = [DependenceWitness(q, rng.randint(-6, 6), triv) for _ in range(rng.randint(1, 4))]
        p = choose_p(ws, q)
        assert q % p
        rbetas = [w.exact_r * (q // w.exact_q) for w in ws]
        for x in rbetas:
            for y in rbetas:
                if x != y:
                    assert (x - y) % p


def _ell_oracle(p, q, hf, degp, hp, chi):
    ell = 1
    while True:
        phi = p**ell - p ** (ell - 1)
        L = (phi - 2) * hf - chi
        if L > 0 and L**3 > 54 * degp**3 * chi * (p**ell * q * hf + hp) ** 2:
            return ell
        ell += 1


def test_ell_bound_examples(Q):
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S_chi1 = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    S_chi0 = PlaceSet([Place(tp), INFINITY])
    P_deg1 = KPolynomial(Q, (RationalFunction.one(Q), RationalFunction.one(Q)))  # X + 1
    assert ell_bound(P_deg1, t, S_chi1, 5, 2) == 4 == _ell_oracle(5, 2, 1, 1, 0, 1)
    assert ell_bound(P_deg1, t, S_chi0, 5, 2) == 1
    # third example: p=3, q=2, h(f)=2, deg P=2, h(P)=3, chi=1; oracle computes it
    P3 = KPolynomial(Q, (t**3, RationalFunction.zero(Q), RationalFunction.one(Q)))
    assert poly_height(P3) == 3 and P3.degree == 2
    expect = _ell_oracle(3, 2, 2, 2, 3, 1)
    assert ell_bound(P3, t**2, S_chi1, 3, 2) == expect == 8


# -- lemma checks and certification ------------------------------------------------------


def test_lemma_claimD_examples(Q):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((RationalFunction.one(Q), -(t**3)), (one_ru(Q),) * 2, (1, 0), t**2, S)
    rep = lemma_claimD_check(inst, split_dep_ind(inst, 0), 1, 5, 1, 2)
    assert rep.holds and rep.lhs == 0
    # trivial case: no dependent roots
    inst2 = PowerSumInstance((-(t - 1), RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 1), t,
                             PlaceSet([Place(Polynomial.t(Q)), Place(Polynomial.t(Q) - Polynomial.one(Q)), INFINITY]))
    rep2 = lemma_claimD_check(inst2, split_dep_ind(inst2, 0), 3, 3, 1, 2)
    assert rep2.holds and rep2.detail.get("trivial")


def test_lemma_claimD_precondition(Q, ex2):
    from skolemff.errors import PreconditionGlobalZeroExists

    with pytest.raises(PreconditionGlobalZeroExists):
        lemma_claimD_check(ex2, split_dep_ind(ex2, 0), 1, 3, 1, 2)


def test_lemma_claimI_examples(Q):
    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    S = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    inst = PowerSumInstance((-(t - 1), RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 1), t, S)
    split = split_dep_ind(inst, 0)
    rep = lemma_claimI_check(inst, split, 1, 3, 1, 2)
    assert rep.holds and rep.lhs == 0
    rep2 = lemma_claimI_check(inst, split, 4, 3, 1, 2)
    assert rep2.holds


def test_claimI_count_is_the_sum_over_the_phi_pair(Q):
    """N_S(gcd(x, y1 y2)) = N_S(gcd(x, y1)) + N_S(gcd(x, y2)): y1, y2 have disjoint zeros."""
    from skolemff import gcd_counting, valuation
    from skolemff.powersum import _phi_pair, _working_S

    t = RationalFunction.t(Q)
    tp = Polynomial.t(Q)
    rng = random.Random(61)
    positive = at_infinity = 0
    S0, S1 = PlaceSet([Place(tp)]), PlaceSet([Place(tp), INFINITY])
    for g, S in ((-(t + 1) / t, S0), ((t + 1) / t, S0), (t, S1), ((t**2 - 3) / t, S1)):
        for p, ell, q in ((2, 1, 3), (3, 1, 2), (2, 2, 3)):
            y1, y2 = _phi_pair(g, p, ell, q)
            for _ in range(4):
                num = y1.num ** rng.randint(0, 2) * y2.num ** rng.randint(0, 2)
                num = num * (tp - Polynomial(Q, (rng.randint(2, 9),))) ** rng.randint(0, 1)
                x = RationalFunction(num, tp ** (num.degree + rng.randint(0, 2)))
                count = gcd_counting(x, y1, S) + gcd_counting(x, y2, S)
                assert gcd_counting(x, y1 * y2, S) == count, (g, p, ell, q, x)
                positive += count > 0
                at_infinity += not S.has_infinity and valuation(x, INFINITY) > 0 and valuation(y1, INFINITY) > 0
    assert positive >= 10 and at_infinity >= 1
    # the lemma check itself: x = t^n - t + 1 meets Phi_6(t) exactly when n = 2 mod 6
    S = PlaceSet([Place(tp), Place(tp - Polynomial.one(Q)), INFINITY])
    inst = PowerSumInstance((-(t - 1), RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 1), t, S)
    split = split_dep_ind(inst, 0)
    S_work = _working_S(inst, [split])
    lhs = []
    for p, ell, q in ((3, 1, 2), (2, 1, 3)):
        y1, y2 = _phi_pair(split.g, p, ell, q)
        for n in range(6):
            rep = lemma_claimI_check(inst, split, n, p, ell, q)
            x = split.p_ind.evaluate(split.g**n)
            assert rep.lhs == gcd_counting(x, y1 * y2, S_work)
            lhs.append(rep.lhs)
    assert lhs == [0, 0, 2, 0, 0, 0] * 2


def test_lemma_checks_reuse_the_callers_split(monkeypatch):
    # each claimD / claimI suite instance is split once and decided once
    import sys

    from skolemff import powersum
    from skolemff.verify_suites import run_suite

    calls = dict.fromkeys(("decide_global_zero", "split_dep_ind"), 0)
    for name in calls:
        orig = getattr(powersum, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.partition(".")[0] == "skolemff" and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    for suite in ("claimD", "claimI"):
        for name in calls:
            calls[name] = 0
        res = run_suite(suite, 0, 4)
        assert res.checked == 4 and res.violations == 0
        assert calls == {"decide_global_zero": 4, "split_dep_ind": 4}, suite


def test_phi_pair_matches_horner(Q):
    from skolemff.powersum import _phi_pair

    # the lemma targets of every certified dep-heavy class
    pairs = 0
    for seed in range(10):
        inst, _ = generate_instance(seed, "dep-heavy")
        rep = certify_local_global(inst, k_bound=1)
        for cc in rep.per_class:
            _, g = class_reduction(inst, cc.residue)
            y1, y2 = _phi_pair(g, cc.p, cc.ell, cc.q)
            assert y1 == horner_phi(cc.p**cc.ell, g)
            assert y2 == horner_phi(cc.p**cc.ell * cc.q, g)
            pairs += 2
    assert pairs >= 20
    # dep-heavy has g = t^j with denominator 1; cover nontrivial denominators too
    t = RationalFunction.t(Q)
    for g in ((t + 2) / (t**2 - 3), t**-3):
        for d in range(1, 13):
            assert _phi_pair(g, d, 1, 1) == (horner_phi(d, g),) * 2


def test_certify_examples(Q, Qi):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    triv = PowerSumInstance((RationalFunction.one(Q), -t), (one_ru(Q),) * 2, (1, 0), t, S)
    rep = certify_local_global(triv)
    assert rep.verdict == "GlobalZeroFound" and rep.global_zero == 1

    inst4 = PowerSumInstance((RationalFunction.one(Q), -(t**3)), (one_ru(Q),) * 2, (1, 0), t**2, S)
    rep4 = certify_local_global(inst4)
    assert rep4.verdict == "LocalObstruction" and not rep4.theorem_violation
    cc = rep4.per_class[0]
    assert cc.q == 2 and cc.p == 3 and cc.a == cc.p**cc.ell * cc.q
    assert rep4.a == 18
    assert all(chk.holds for chk in rep4.lemma_checks)

    ex1g = example1_instance(Qi)
    rep1 = certify_local_global(ex1g, k_bound=100)
    assert rep1.verdict == "LocalObstruction" and rep1.a == 72
    assert not rep1.theorem_violation
    assert all(chk.holds for chk in rep1.lemma_checks)


def test_certify_charp_rejected(F3):
    t = RationalFunction.t(F3)
    S = PlaceSet([Place(Polynomial.t(F3)), INFINITY])
    inst = PowerSumInstance((RationalFunction.one(F3),), (one_ru(F3),), (1,), t**3, S)
    with pytest.raises(CharPUnsupported):
        certify_local_global(inst)


def test_certify_nonsplit_is_inconclusive(Q, ex1):
    rep = certify_local_global(ex1, k_bound=30)
    assert rep.verdict == "InconclusiveWithinBounds"
    assert any("split" in note or "incomplete" in note for note in rep.notes)


def test_certify_never_violates_on_dep_heavy():
    for seed in range(10):
        inst, _ = generate_instance(seed, "dep-heavy")
        rep = certify_local_global(inst, k_bound=40)
        assert rep.verdict == "LocalObstruction", (seed, rep.verdict, rep.notes)
        assert not rep.theorem_violation
        assert rep.local_witness is None
