import contextlib
import io
import json
import random
import re
import time
from collections import Counter
from math import gcd, lcm

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    FieldSpec,
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
    field_for,
    find_local_witness,
    height,
    lemma_claimD_check,
    lemma_claimI_check,
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
from skolemff import cli, powersum
from skolemff.constants import zeta
from skolemff.funfield import valuation
from skolemff.generate import generate_instance
from skolemff.intutil import divisors, euler_phi
from skolemff.multstruct import DependenceWitness
from skolemff.powersum import LocalChecker, class_reduction
from skolemff.serialize import instance_from_json, instance_to_json, save_instance
from conftest import example1_instance, neg_ru, one_ru


from oracles import brute_zero_scan, horner_phi, kpoly_divmod, strip_places, window_zero_scan


def _phi_pair(g, p, ell, q):
    """Phi_{p^l}(g) and Phi_{p^l q}(g) in K, from the numerators A_d the lemma counts build.

    A_d = den^phi(d) Phi_d(num/den) is prime to den, so A_d / den^phi(d) is taken as reduced.
    """
    return tuple(
        RationalFunction._reduced(powersum._phi_numerator(d, g), g.den ** euler_phi(d)) for d in (p**ell, p**ell * q)
    )


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


def test_validation_rejects_in_order_with_its_messages(Q):
    """f constant, then f not an S-unit, then per lambda_i in turn: zero, then not an S-integer."""
    t, zero = RationalFunction.t(Q), RationalFunction.zero(Q)
    S, S_fin = PlaceSet([Place(Polynomial.t(Q)), INFINITY]), PlaceSet([Place(Polynomial.t(Q))])
    pole = 1 / (t - 1)
    cases = [
        ((zero, pole), RationalFunction.constant(Q, 2), S, ConstantInput, "f must be nonconstant"),
        ((zero, pole), t - 1, S, InvalidInstance, "f must be an S-unit"),  # a zero off S
        ((zero, pole), t / (t - 1), S, InvalidInstance, "f must be an S-unit"),  # a pole off S
        ((zero, pole), t, S_fin, InvalidInstance, "f must be an S-unit"),  # a zero at infinity, not in S
        ((t, zero, pole), t, S, ZeroInput, "lambda_i must be nonzero"),
        ((t, pole, zero), t, S, InvalidInstance, "lambda_i must be an S-integer"),
        ((t, zero), t / (t + 1), PlaceSet([Place(Polynomial.t(Q)), Place((t + 1).num)]), InvalidInstance,
         "lambda_i must be an S-integer"),  # a pole at infinity, not in S
    ]
    for lambdas, f, places, exc, message in cases:
        m = len(lambdas)
        with pytest.raises(exc, match=f"^{message}$"):
            PowerSumInstance(lambdas, (one_ru(Q),) * m, tuple(range(m)), f, places)


def _s_record_hand_instances():
    """Over Q(i), with a place of degree 2 and infinity in S; over F_9, with S = three finite places."""
    Qi = field_for(FieldSpec(0, 4))
    i, t = zeta(Qi, 4), RationalFunction.t(Qi)
    a, b, c = t - i, t + 1, t**2 + 2  # t^2 + 2 is irreducible over Q(i)
    S = PlaceSet([Place(a.num), Place(b.num), Place(c.num), INFINITY])
    z4 = RootOfUnity(4, i)
    yield PowerSumInstance(
        (c**2 * (t + i) / a**3, b * (t - 2), RationalFunction.one(Qi), a * c),
        (one_ru(Qi), z4, neg_ru(Qi), one_ru(Qi)),
        (2, 1, 1, 0),
        a**2 * b / c,
        S,
    )
    F9 = field_for(FieldSpec(3, 1, 2))
    g, t = ConstantValue(F9, F9.torsion_generator_raw()), RationalFunction.t(F9)
    S = PlaceSet([Place(t.num), Place((t - g).num), Place((t - g**2).num)])
    yield PowerSumInstance(
        ((t - 1) * (t - g) / (t**2 * (t - g**2)), (t + g) ** 2 / (t - g) ** 2, RationalFunction.one(F9)),
        (one_ru(F9), RootOfUnity(4, g**2), one_ru(F9)),
        (0, 1, 1),
        t**2 / ((t - g) * (t - g**2)),
        S,
    )


def _s_record_instances():
    for profile in ("small", "dep-heavy", "charp"):
        for seed in range(40):
            yield f"{profile} {seed}", instance_from_json(instance_to_json(generate_instance(seed, profile)[0]))
    for inst in _s_record_hand_instances():
        yield repr(inst.field), inst


def test_s_record_matches_the_valuation_oracle():
    """The orders and off-S parts that validation leaves in S's record are valuation() and strip_places() of the same polynomials."""
    seen_no_infinity = 0
    for label, inst in _s_record_instances():
        S, records = inst.places, inst.places._record
        finite = [v for v in S if not v.is_infinite]
        seen_no_infinity += not S.has_infinity
        # validation records f's numerator and denominator, each lambda_i's denominator and
        # the quotient of each division that takes out a factor: no lambda_i numerator
        reached = set()
        for rest in (inst.f.num, inst.f.den, *(lam.den for lam in inst.lambdas)):
            reached.add((rest.rows, rest.den))
            for v in finite:
                q, m = rest.divide_out(v.poly)
                if m:
                    rest = q
                    reached.add((rest.rows, rest.den))
        assert set(records) == {(rows, den) for rows, den in reached if len(rows) > 1}, label
        for x in (inst.f, *inst.lambdas):
            for poly in (x.num, x.den):
                orders, rest = S.orders(poly)
                want = tuple(poly.divide_out(v.poly)[1] for v in finite)
                assert (orders, rest) == (want, strip_places(poly, S)), (label, poly)
            assert S.valuations(x) == [valuation(x, v) for v in S], (label, x)
        assert list(inst.f_valuations) == [valuation(inst.f, v) for v in S], label
        # e is a plain attribute, set by validation; the record and the finite places are S's
        assert "e" in vars(inst), label
        assert S._finite == tuple(finite), label
        assert inst.e == lcm(*(eps.order for eps in inst.epsilons)), label
        # every row of class_valuations, lone or not, against the oracle
        decide_global_zero(inst)
        for c in range(inst.e):
            for (j, x, _), (j2, vals, v_inf, num) in zip(inst._class_shape[c], inst.class_valuations[c]):
                assert (j2, vals, v_inf) == (j, [valuation(x, v) for v in S], valuation(x, INFINITY)), (label, c)
                assert num == x.num
    assert seen_no_infinity


def test_load_and_solve_divide_no_polynomial_by_a_place_twice(tmp_path, monkeypatch):
    """Validation's divisions are the ones decide_global_zero reads; smallcoef, which reads
    no valuation at S, makes no more divisions than the 171 it made before validation kept them."""
    paths = {}
    for profile in ("small", "charp"):
        for seed in range(40):
            paths[profile, seed] = str(tmp_path / f"{profile}-{seed}.json")
            save_instance(generate_instance(seed, profile)[0], paths[profile, seed], {})
    seen = Counter()
    real = Polynomial.divide_out
    monkeypatch.setattr(Polynomial, "divide_out", lambda self, p: seen.update([(self, p)]) or real(self, p))
    total = 0
    for seed in range(40):
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", paths["small", seed]]) == 0
        assert max(seen.values(), default=1) == 1, (seed, [k for k, v in seen.items() if v > 1])
        total += sum(seen.values())
    assert total
    seen.clear()
    for seed in range(40):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["smallcoef", paths["charp", seed], "--rho", "1/2"])
    assert 0 < sum(seen.values()) <= 171


def test_eval_B_examples(Q, ex1):
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    simple = PowerSumInstance((RationalFunction.one(Q),) * 2, (one_ru(Q),) * 2, (0, 1), t, S)
    assert eval_B(simple, 2) == 1 + t**2
    assert eval_B(ex1, 1) == t * (t + 1) * (t**2 - 1)
    assert eval_B(ex1, 0) == 4
    # one normalisation of the sum over one cleared denominator gives the reduced
    # fraction of the term-by-term sum in K
    def term_by_term(inst, n):
        terms = [lam * eps.value ** (n % eps.order) * inst.f ** (r * n)
                 for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents)]
        return sum(terms[1:], terms[0])

    for profile in ("small", "dep-heavy", "charp"):
        for seed in range(50):
            inst, _ = generate_instance(seed, profile)
            for n in range(-3, 4):
                assert eval_B(inst, n) == term_by_term(inst, n), (profile, seed, n)
    # lambdas that share a denominator, one that does not, and f = (t + 1) / t,
    # whose numerator is no monomial, on S = {t, t + 1, inf}
    for fld in (Q, field_for(FieldSpec(3, 1, 1))):
        t, u = RationalFunction.t(fld), RationalFunction.t(fld) + 1
        S2 = PlaceSet([Place(t.num), Place(u.num), INFINITY])
        ru = (one_ru(fld), neg_ru(fld))
        for lambdas, f in (((1 / t, u / t, 2 / t**2, t / u), u / t), ((u / t, 1 / t, u**2), t * t / u)):
            m = len(lambdas)
            inst = PowerSumInstance(lambdas, (ru * 2)[:m], (0, 1, -2, 3)[:m], f, S2)
            for n in range(-4, 5):
                assert eval_B(inst, n) == term_by_term(inst, n), (fld, lambdas, f, n)


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
    assert LocalChecker(ex1, 2).check(1)
    assert not LocalChecker(ex1, 4).check(2)
    # identically zero B(k) passes every a
    Q = ex1.field
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    zero_inst = PowerSumInstance((t, -t), (one_ru(Q),) * 2, (1, 1), t, S)
    for a in (1, 2, 3, 8):
        assert LocalChecker(zero_inst, a).check(5)


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
    checker = LocalChecker(ex1, 72)
    nontrivial = sum(checker.condition(key) is not None for key in checker.keys)
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


def _failing_conditions(checker, k) -> dict:
    """key -> G of each condition whose image of B(k) is nonzero, building every condition."""
    conds = ((key, checker.condition(key)) for key in checker.keys)
    return {key: c["G"] for key, c in conds if c is not None and not checker._residue_sum(c, k).is_zero}


def test_failing_conditions_need_no_factoring(ex1, monkeypatch):
    # B(1) of ex1 fails at a = 6 exactly at d = 3 and d = 6, whose G_d are the
    # places t^2 + t + 1 and t^2 - t + 1; no place is factored to say so
    t = Polynomial.t(ex1.field)
    one = Polynomial.one(ex1.field)
    monkeypatch.setenv("SKOLEMFF_MAX_DEGREE", "1")
    checker = LocalChecker(ex1, 6)
    assert not checker.check(1)
    assert _failing_conditions(checker, 1) == {3: t * t + t + one, 6: t * t - t + one}


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
                if LocalChecker(inst, a2).check(k):
                    assert LocalChecker(inst, a).check(k), (a, a2, k)


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
        assert LocalChecker(inst, 6).check(k) == LocalChecker(inst, 2).check(k)
    # B(k) = f^k(1 - f^k) vanishes at all zeros of f^a - 1 iff a | k
    assert LocalChecker(inst, 4).check(4)
    assert not LocalChecker(inst, 4).check(3)


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
    checker = LocalChecker(inst, 1)
    assert not checker.check(1)
    assert list(_failing_conditions(checker, 1)) == [INFINITY]
    assert checker._residue_sum(checker.condition(INFINITY), 1) == Polynomial.one(Q)  # B(1)(inf) = 2 - 1
    balanced = PowerSumInstance(
        (RationalFunction.one(Q), RationalFunction.constant(Q, -1)),
        (one_ru(Q),) * 2,
        (1, 0),
        f,
        S,
    )
    # B(k) = f^k - 1 vanishes at every zero of f^a - 1 whenever a | k
    assert LocalChecker(balanced, 4).check(4)


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
    # over F_p the oracle's powers f^(r n) grow in degree fast, and charp windows are at most 2
    for profile, bound in (("small", 50), ("charp", 12)):
        agreements = 0
        seed = 0
        while agreements < 40:
            inst, _ = generate_instance(seed, profile)
            seed += 1
            windows = []
            for P, g in inst.classes:
                if P.is_zero:
                    windows.append(0)
                else:
                    windows.append(poly_height(P) // height(g))
            if max(windows) > bound:
                continue
            got = decide_global_zero(inst)
            expect = brute_zero_scan(inst, bound)
            if got is not None and abs(got) > bound:
                got = None  # outside the oracle window
            assert got == expect, (profile, seed - 1, got, expect)
            agreements += 1


def test_newton_polygon_sends_at_most_terms_minus_one_exponents_to_the_exact_test(monkeypatch):
    # only breakpoints of the lower envelope of one line per nonzero term, at one
    # place of S, reach the exact test
    exact = Counter()
    orig = KPolynomial.evaluate
    monkeypatch.setattr(KPolynomial, "evaluate", lambda P, x: exact.update([id(P)]) or orig(P, x))
    for profile in ("small", "dep-heavy", "charp"):
        for seed in range(20):
            inst, _ = generate_instance(seed, profile)
            exact.clear()
            zero = decide_global_zero(inst)
            for (P, _), terms in zip(inst.classes, inst.mus):
                assert exact[id(P)] <= max(len(terms) - 1, 0), (profile, seed)
            if profile == "dep-heavy":
                assert zero is None and not exact, seed


def test_decide_expands_P_only_when_an_exponent_passes_the_prefilter(monkeypatch):
    calls = []
    orig = powersum.class_reduction
    monkeypatch.setattr(powersum, "class_reduction", lambda inst, c: calls.append(c) or orig(inst, c))
    for seed in range(20):
        inst, _ = generate_instance(seed, "dep-heavy")
        assert decide_global_zero(inst) is None
        assert not calls and "classes" not in vars(inst), seed
    # small seed 12 has a planted zero at n = 2
    inst, _ = generate_instance(12, "small")
    assert decide_global_zero(inst) == brute_zero_scan(inst, 3) == 2
    assert calls == [2 % inst.e]  # only the class of the surviving candidate is expanded


def _root(F, w, k):
    """w^k as a RootOfUnity, for w of order p - 1 in F_p."""
    n = F.char - 1
    return RootOfUnity(n // gcd(n, k), w ** (k % n))


def _crafted_torsion_instances():
    """(instance, its smallest-|n| zero, the group period E) over F_101 and F_103 with an eps of order p - 1."""
    out = []
    for p, n0 in ((101, 37), (103, 40)):
        F = field_for(FieldSpec(p, 1, 1))
        w, t, one = zeta(F, p - 1), RationalFunction.t(F), RationalFunction.one(F)
        S = PlaceSet([Place(Polynomial.t(F)), INFINITY])
        u, neg = _root(F, w, 1), _root(F, w, (p - 1) // 2)
        # lone terms: B(n) = 1 - (w t)^(n - n0), zero at n0 in class n0 mod e; and no zero
        out.append((PowerSumInstance((one, -(w ** -n0) * t**-n0), (one_ru(F), u), (0, 1), t, S), n0, 1))
        out.append((PowerSumInstance((one, 2 * t**-3), (one_ru(F), u), (0, 1), t, S), None, 1))
        # a group whose mu_{c,1} = 1 + (-1)^c cancels in the odd classes (E = 2 < e):
        # B(n) = (1 + (-1)^n) t^n - 2 w^(n-4) t^4, zero at n = 4
        out.append((PowerSumInstance((one, one, -2 * w**-4 * t**4), (one_ru(F), neg, u), (1, 1, 0), t, S), 4, 2))
        # two groups that both cancel in the odd classes: P'_c = 0 there, and B(1) = 0
        epsilons = (u, _root(F, w, 1 + (p - 1) // 2), one_ru(F), neg)
        out.append((PowerSumInstance((t**2, t**2, one, one), epsilons, (0, 0, 1, 1), t, S), 1, p - 1))
        # S without infinity: f = t/(t-1), B(n) = 1 - (w f)^(n - 9)
        tp, onep = Polynomial.t(F), Polynomial.one(F)
        f = RationalFunction(tp, tp - onep)
        S_fin = PlaceSet([Place(tp), Place(tp - onep)])
        out.append((PowerSumInstance((one, -(w**-9) * f**-9), (one_ru(F), u), (0, 1), f, S_fin), 9, 1))
    return out


def test_decide_iterates_the_group_period_and_agrees_with_brute_scan():
    # e = p - 1 is far above E; each candidate lands in the one class n mod e
    for inst, zero, E in _crafted_torsion_instances():
        assert inst.e == inst.field.char - 1 and inst.group_period == E, inst
        got = decide_global_zero(inst)
        assert got == zero == brute_zero_scan(inst, 45 if zero is None else abs(zero) + 3), (inst, got)


def test_decide_builds_no_lambda_eps_product_on_distinct_exponents(monkeypatch):
    # a lone term keeps lambda_i's valuations and leading coefficient; only the
    # class a surviving candidate lands in is expanded, with one product per term
    insts = [generate_instance(seed, profile)[0] for profile in ("small", "dep-heavy", "charp") for seed in range(15)]
    insts += [inst for inst, _, E in _crafted_torsion_instances() if E == 1]
    products, calls = [], []
    mul, reduce_class = RationalFunction.__mul__, powersum.class_reduction

    def counted(x, y):
        if isinstance(y, ConstantValue):
            products.append(x)
        return mul(x, y)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    monkeypatch.setattr(powersum, "class_reduction", lambda inst, c: calls.append(c) or reduce_class(inst, c))
    expanded = 0
    for inst in insts:
        assert len(set(inst.exponents)) == len(inst.exponents)
        products.clear()
        calls.clear()
        decide_global_zero(inst)
        assert len(products) == len(inst.lambdas) * len(calls) and len(calls) <= 1, inst
        expanded += len(calls)
    assert 0 < expanded < len(insts)


def _order_p_minus_1_instance(lam2):
    """f = t, S = {t, inf}, lambdas (1, lam2), eps (1, w) with w of order p - 1, r = (0, 1), over F_1000003."""
    p = 1000003
    F = field_for(FieldSpec(p, 1, 1))
    S = PlaceSet([Place(Polynomial.t(F)), INFINITY])
    lambdas = (RationalFunction.one(F), RationalFunction.constant(F, lam2))
    return PowerSumInstance(lambdas, (one_ru(F), RootOfUnity(p - 1, zeta(F, p - 1))), (0, 1), RationalFunction.t(F), S)


def test_solve_over_F_1000003_does_not_grow_with_e(tmp_path, monkeypatch):
    calls = []
    reduce_class = powersum.class_reduction
    monkeypatch.setattr(powersum, "class_reduction", lambda inst, c: calls.append(c) or reduce_class(inst, c))
    for lam2, zero in ((2, None), (-1, "0")):
        path = str(tmp_path / f"order-p-1-{lam2}.json")
        save_instance(_order_p_minus_1_instance(lam2), path, {})
        calls.clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["solve", path])
        elapsed = time.perf_counter() - start
        result = json.loads(out.getvalue())["result"]
        assert code == 0 and result["global_zero"] == zero and elapsed < 1.0, (lam2, result, elapsed)
        # B(n) = 1 + lam2 (w t)^n: the one breakpoint n = 0 survives only for lam2 = -1
        assert calls == ([] if zero is None else [0]), lam2


def _repeated_exponent_instance(Q):
    # generated profiles have distinct exponents; the repeated exponent 1 has
    # mu_{1,1} = 1 - 1 = 0, so mus[1] loses its j = 1 term
    t, one = RationalFunction.t(Q), RationalFunction.one(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    return PowerSumInstance((one, one, t), (one_ru(Q), neg_ru(Q), one_ru(Q)), (1, 1, 0), t, S)


def test_repeated_exponent_drops_the_cancelled_term(Q):
    repeated = _repeated_exponent_instance(Q)
    assert [j for j, _ in repeated.mus[0]] == [0, 1] and [j for j, _ in repeated.mus[1]] == [0]
    assert [len(terms) for terms in repeated.class_valuations] == [2, 1]


def _f3_instances(F3):
    """(instance, planted zero) over F_3: g = t vanishes at 0 and lambda has poles at 1 and 2."""
    tp = Polynomial.t(F3)
    one = Polynomial.one(F3)
    poles = [tp - Polynomial(F3, (i,)) for i in (1, 2)]
    den = poles[0] * poles[1]
    S = PlaceSet([Place(tp), INFINITY] + [Place(q) for q in poles])
    lam = RationalFunction(one, den)
    return [
        (PowerSumInstance((lam, -RationalFunction(other, den)), (one_ru(F3),) * 2, (1, 0), RationalFunction.t(F3), S), planted)
        for other, planted in ((tp * tp, 2), (tp * tp * Polynomial(F3, (2,)), None))
    ]


def test_decide_over_F3_with_a_pole_or_zero_at_every_point(F3):
    for inst, planted in _f3_instances(F3):
        (P, g), = inst.classes
        assert poly_height(P) // height(g) <= 20
        assert decide_global_zero(inst) == brute_zero_scan(inst, 20) == planted


def test_decide_matches_window_and_brute_oracles(Q, F3):
    # the Newton-polygon decision against the unfiltered height window and the
    # point-evaluation scan, on seeded profiles, the height-formula cases,
    # planted zeros and classes with P'_c = 0
    insts = [generate_instance(seed, profile)[0] for profile in ("small", "dep-heavy", "charp") for seed in range(30)]
    insts += _height_cases() + [inst for inst, _ in _f3_instances(F3)] + [_repeated_exponent_instance(Q)]
    checked, zeros, zero_classes = 0, 0, 0
    for inst in insts:
        windows = [0 if P.is_zero else poly_height(P) // height(g) for P, g in inst.classes]
        if max(windows) > 60:
            continue
        got = decide_global_zero(inst)
        assert got == window_zero_scan(inst), inst
        bound = min(inst.e * (max(windows) + 1), 12)
        assert (None if got is None or abs(got) > bound else got) == brute_zero_scan(inst, bound), inst
        checked += 1
        zeros += got is not None
        zero_classes += any(P.is_zero for P, _ in inst.classes)
    assert checked > 80 and zeros > 10 and zero_classes >= 5, (checked, zeros, zero_classes)


def test_decide_found_zero_passes_local_checks(Q, ex2):
    n = decide_global_zero(ex2)
    for a in range(1, 21):
        assert LocalChecker(ex2, a).check(n)


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


def _height_cases():
    """Crafted instances for the valuation formula of h(P'_c)."""
    out = []
    for spec in (FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(3, 1, 2), FieldSpec(5, 1, 1)):
        fld = field_for(spec)
        one, tp = Polynomial.one(fld), Polynomial.t(fld)
        t, u = RationalFunction.t(fld), RationalFunction(tp + one)
        order = 4 if spec.characteristic else spec.cyclotomic_order * (2 if spec.cyclotomic_order % 2 else 1)
        z = RootOfUnity(order, zeta(fld, order)) if order > 2 else neg_ru(fld)
        with_inf = PlaceSet([Place(tp), Place(tp + one), INFINITY])
        without_inf = PlaceSet([Place(tp), Place(tp + one)])
        out += [
            # a repeated exponent: t - t vanishes in the odd classes, 2t survives in the even ones
            PowerSumInstance((t, t, u**2), (one_ru(fld), neg_ru(fld), z), (2, 2, 0), t * u, with_inf),
            # the same alone: P'_c = 0 in the odd classes
            PowerSumInstance((t, t), (one_ru(fld), neg_ru(fld)), (2, 2), t * u, with_inf),
            # negative exponents and poles at both finite places of S
            PowerSumInstance((t**-2 * u, u**-1, t + 3), (z, one_ru(fld), neg_ru(fld)), (-2, 1, 3), t**2 / u, with_inf),
            # S without infinity: every lambda vanishes there, so the inf term is positive
            PowerSumInstance((1 / (t * u), 1 / u, t / u**2), (one_ru(fld), z, neg_ru(fld)), (-1, 0, 2), t / u, without_inf),
            # a common zero (t - 1)^2 outside S, in every class
            PowerSumInstance(
                ((t - 1) ** 2 * t, (t - 1) ** 2 / u, (t - 1) ** 3), (z, one_ru(fld), neg_ru(fld)), (3, 1, 0), t**3, with_inf
            ),
        ]
    return out


def test_class_heights_formula_is_exact():
    # the valuation formula equals the projective height of the expanded P'_c
    insts = [generate_instance(seed, profile)[0] for profile in ("small", "dep-heavy", "charp") for seed in range(25)]
    cases = _height_cases()
    insts += cases
    zero_classes = inf_terms = 0
    for inst in insts:
        for c in range(inst.e):
            P, _ = class_reduction(inst, c)
            want = None if P.is_zero else poly_height(P)
            assert inst.class_heights[c] == want, (inst, c)
            zero_classes += P.is_zero
        inf_terms += not inst.places.has_infinity
    assert inf_terms == 5 and zero_classes == 5
    # the repeated exponent drops out of the odd classes
    assert all(len(rep.mus[c]) == 2 - c % 2 for rep in cases[::5] for c in range(rep.e))


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
    # the root -1 carries dependence_exponents' minimal form: q = 1 with torsion -1 of order 2
    w = sp2.dep[0][2]
    assert len(sp2.dep) == 1 and (w.q, w.r, w.torsion.order, w.exact_q, w.exact_r) == (1, 0, 2, 2, 0)

    inst3 = PowerSumInstance((-t, RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 2), t, S2)
    sp3 = split_dep_ind(inst3, 0)
    assert not sp3.dep and not sp3.ind and sp3.remainder_degree == 2 and sp3.complete


def test_claimI_rejects_a_rootless_rest(Q):
    # P'_0 = X^2 - t over S = {t, inf}: the root search is complete, but the
    # roots +-t^(1/2) lie outside K and depend on g = t, so claim I, which
    # counts the roots independent of g, does not run
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((-t, RationalFunction.one(Q)), (one_ru(Q),) * 2, (0, 2), t, S)
    split = split_dep_ind(inst, 0)
    assert split.complete and split.remainder_degree == 2
    with pytest.raises(FactorizationTooHard, match="degree 2 remainder"):
        lemma_claimI_check(inst, split, 1, 3, 1, 2)


def test_p_ind_from_roots_is_the_exact_quotient(Q, monkeypatch):
    """P_ind built from its roots equals P'_c / P_dep by the long-division oracle, with remainder 0."""
    from skolemff import verify_suites

    splits = []
    for seed in range(20):
        inst, _ = generate_instance(seed, "dep-heavy")
        splits += [split_dep_ind(inst, c) for c in range(inst.e)]
    real = verify_suites.lemma_claimI_check

    def recorded(inst, split, *args):
        splits.append(split)
        return real(inst, split, *args)

    monkeypatch.setattr(verify_suites, "lemma_claimI_check", recorded)
    for seed in range(5):
        verify_suites.run_suite("claimI", seed, 4)
    # B(n) = 1 + (-1)^n + (1 - t^2) t^n + (t + 1) t^2n has P'_1 = (1 - t^2) t X + (t + 1) t^2 X^2:
    # the root 0, and a leading coefficient outside F
    t, tp, one = RationalFunction.t(Q), Polynomial.t(Q), Polynomial.one(Q)
    S = PlaceSet([Place(tp), Place(tp - one), Place(tp + one), INFINITY])
    inst = PowerSumInstance(
        (RationalFunction.one(Q), RationalFunction.one(Q), 1 - t**2, t + 1),
        (one_ru(Q), neg_ru(Q), one_ru(Q), one_ru(Q)),
        (0, 0, 1, 2),
        t,
        S,
    )
    splits.append(split_dep_ind(inst, 1))
    shapes = Counter()
    for split in splits:
        assert split.remainder_degree == 0, split
        q, r = kpoly_divmod(split.poly, split.p_dep)
        assert r.is_zero and split.p_ind == q, split
        assert split.poly == split.p_dep * split.p_ind
        shapes["ind"] += bool(split.ind)
        shapes["dep"] += bool(split.dep)
        shapes["root 0"] += split.p_ind.coeffs[0].is_zero
        shapes["lc outside F"] += not split.poly.coeffs[-1].is_constant
    assert len(splits) > 40 and min(shapes.values()) > 0, shapes


def test_working_S_reads_only_the_independent_roots():
    """On small and dep-heavy seeds 0-19, S_work from split.ind equals S_work from every root."""
    from skolemff import dependence_exponents, divisor
    from skolemff.funfield import chi_S
    from skolemff.powersum import _working_S

    def all_roots_S(inst, splits):
        S = inst.places.union(
            {v for sp in splits for beta, *_ in sp.dep + sp.ind if not beta.is_constant for v in divisor(beta)}
        )
        if chi_S(S) < 0:
            S = S.union({INFINITY})
        if chi_S(S) < 0:
            S = S.union({Place(Polynomial.t(inst.field))})
        return S

    dep_nonconstant = ind_nonconstant = 0
    for profile in ("small", "dep-heavy"):
        for seed in range(20):
            inst, _ = generate_instance(seed, profile)
            splits = [split_dep_ind(inst, c) for c in range(inst.e) if inst.mus[c]]
            assert list(_working_S(inst, splits)) == list(all_roots_S(inst, splits))
            for sp in splits:
                assert list(_working_S(inst, [sp])) == list(all_roots_S(inst, [sp]))
                for beta, _, w in sp.dep:
                    # the split's witness decides the lemma precondition as a fresh power test would
                    fresh = dependence_exponents(beta, sp.g)
                    assert fresh is not None and w.power == fresh.power
                    if not beta.is_constant:
                        dep_nonconstant += 1
                        assert set(divisor(beta)) <= set(inst.places), beta
                ind_nonconstant += sum(not beta.is_constant for beta, _ in sp.ind)
    assert dep_nonconstant >= 20 and ind_nonconstant >= 5


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
    h1 = poly_height(P_deg1)
    assert ell_bound(h1, P_deg1.degree, t, S_chi1, 5, 2) == 4 == _ell_oracle(5, 2, 1, 1, 0, 1)
    assert ell_bound(h1, P_deg1.degree, t, S_chi0, 5, 2) == 1
    # third example: p=3, q=2, h(f)=2, deg P=2, h(P)=3, chi=1; oracle computes it
    P3 = KPolynomial(Q, (t**3, RationalFunction.zero(Q), RationalFunction.one(Q)))
    assert poly_height(P3) == 3 and P3.degree == 2
    expect = _ell_oracle(3, 2, 2, 2, 3, 1)
    assert ell_bound(poly_height(P3), P3.degree, t**2, S_chi1, 3, 2) == expect == 8


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
    from skolemff.powersum import _working_S

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
    # each claimD / claimI suite instance is reduced once, split once and decided once
    import sys

    from skolemff import powersum
    from skolemff.verify_suites import run_suite

    calls = dict.fromkeys(("class_reduction", "decide_global_zero", "split_dep_ind"), 0)
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
        assert calls == {"class_reduction": 4, "decide_global_zero": 4, "split_dep_ind": 4}, suite


def test_phi_pair_matches_horner(Q):
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


# The four fields of the lemma-count comparison; F_7 always builds A_d (the fallback).
LEMMA_FIELDS = {"Q": FieldSpec(0, 1), "Q(i)": FieldSpec(0, 4), "Q(zeta_3)": FieldSpec(0, 3), "F_7": FieldSpec(7, 1, 1)}


def _lemma_cases(fld):
    """(g, S) pairs: g an S-unit with S = {t, t - 1} and infinity, or without it, or S = {t, t + 1, inf}.

    Off S infinity forces v_inf(g) = 0, and g(inf) runs through roots of unity
    of orders 2..6 where F has them (and the constant 2, which is none).  On {t, t + 1, inf}
    the place t + 1 of S is a zero of Phi_2(t).  g = +-t^2 / (4(t - 1)) takes
    the value +-1 at t = 2 twice: Phi_1(g) and Phi_2(g) have the double zero t = 2.
    """
    t, tp, one = RationalFunction.t(fld), Polynomial.t(fld), Polynomial.one(fld)
    with_inf = PlaceSet([Place(tp), Place(tp - one), INFINITY])
    no_inf = PlaceSet([Place(tp), Place(tp - one)])
    unit = t / (t - 1)
    tors = [zeta(fld, k) for k in (2, 3, 4, 6) if fld.torsion_exponent % k == 0]
    return (
        [(g, with_inf) for g in (t, -t, t**2, (t - 1) ** 2 / t**3, unit * 2, t * unit / 4, -t * unit / 4)]
        + [(unit * c, no_inf) for c in tors]
        + [(-(unit**2), no_inf), (unit * 2, no_inf), (t, PlaceSet([Place(tp), Place(tp + one), INFINITY]))]
    )


@pytest.mark.parametrize("name", LEMMA_FIELDS)
def test_lemma_counts_match_gcd_counting(name):
    """`_LemmaTargets.counts` equals gcd_counting against Phi_d(g) by Horner, and builds A_d only for a nonzero count.

    x shares zeros with Phi_d(g) and with Phi_e(g) for e | d, e < d (zeros
    where g has order e, which u^d - 1 keeps and the prime refinement must
    drop), takes S-places and, off S infinity, a zero there.
    """
    from skolemff import gcd_counting, valuation
    from skolemff.powersum import _LemmaTargets

    fld = field_for(LEMMA_FIELDS[name])
    rng = random.Random(2014)
    tp = Polynomial.t(fld)
    seen = Counter()
    for g, S in _lemma_cases(fld):
        poles = [pl.poly for pl in S if not pl.is_infinite]
        for p, ell, q in ((2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 1, 4)):
            targets = _LemmaTargets(g, p, ell, q)
            ds = targets.ds
            phis = {e: horner_phi(e, g) for e in divisors(ds[1])}
            for _ in range(3):
                num = Polynomial(fld, (rng.randint(1, 5),))
                for e in rng.sample(sorted(phis), 2):
                    num = num * phis[e].num ** rng.randint(0, 1)
                num = num * (tp - Polynomial(fld, (rng.randint(2, 5),))) ** rng.randint(0, 1)
                num = num * poles[-1] ** rng.randint(0, 1)  # a zero on S
                if S.has_infinity:
                    den = rng.choice(poles) ** rng.randint(0, 2)
                else:  # no pole at infinity off S, and sometimes a zero there
                    den = Polynomial.one(fld)
                    while den.degree < num.degree + rng.randint(0, 2):
                        den = den * rng.choice(poles)
                x = RationalFunction(num, den)
                before = set(targets._numerators)
                got = targets.counts(x, S)
                assert got == tuple(gcd_counting(x, phis[d], S) for d in ds), (name, g, S, ds, x)
                built = set(targets._numerators) - before
                if fld.char:  # no image test: A_d is built for every x with a finite zero off S
                    assert strip_places(x.num, S).degree == 0 or set(targets._numerators) == set(ds)
                else:
                    assert built == {d for d, c in zip(ds, got) if c} - before, (name, g, ds, x)
                seen["positive"] += any(got)
                seen["zero"] += not any(got)
                if not S.has_infinity and valuation(x, INFINITY) > 0:
                    seen["inf"] += any(valuation(phis[d], INFINITY) > 0 for d in ds)
                seen["proper divisor"] += any(
                    gcd_counting(x, phis[e], S) > 0 for e in phis if e not in ds and ds[1] % e == 0
                ) and got == (0, 0)
    assert seen["positive"] >= 10 and seen["zero"] >= 10, seen
    assert seen["proper divisor"] >= 5, seen
    if fld.torsion_exponent % 4 == 0 or fld.torsion_exponent % 3 == 0:
        assert seen["inf"] >= 1, seen


def test_lemma_counts_fall_back_at_an_unusable_or_unlucky_prime(Q, monkeypatch):
    """A patched prime: 7 takes 7t - 2's leading coefficient, 3 divides d, and mod 5 the
    image of t - 2 meets Phi_4(t) (2^2 + 1 = 5) though t - 2 and t^2 + 1 are coprime."""
    from skolemff import gcd_counting
    from skolemff.powersum import _LemmaTargets

    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    assert _LemmaTargets(t, 2, 2, 3).counts(t - 2, S) == (0, 0)
    for rho, x, built in ((7, 7 * t - 2, {4, 12}), (3, t - 2, {4, 12}), (5, t - 2, {4})):
        monkeypatch.setattr(powersum, "_gcd_prime", lambda M, i, rho=rho: (rho, ((1,),), ((1,),)))
        targets = _LemmaTargets(t, 2, 2, 3)
        assert targets.counts(x, S) == (0, 0) == tuple(gcd_counting(x, horner_phi(d, t), S) for d in targets.ds)
        assert set(targets._numerators) == built, rho
    # a nonzero count is exact behind any prime: t^4 - 1 meets Phi_4(t) = t^2 + 1 twice
    targets = _LemmaTargets(t, 2, 2, 3)
    assert targets.counts(t**4 - 1, S) == (2, 0) and set(targets._numerators) == {4}


def test_an_open_lemma_count_is_counted_by_gcd_counting(Q, monkeypatch):
    """Each count the prime image leaves open is `funfield.gcd_counting` against Phi_d(g), reduced as
    A_d / b^phi(d); a count the image proves 0 calls it not at all."""
    from skolemff import funfield
    from skolemff.powersum import _LemmaTargets

    calls = []
    monkeypatch.setattr(
        powersum, "gcd_counting", lambda x, y, S: calls.append(y) or funfield.gcd_counting(x, y, S)
    )
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    targets = _LemmaTargets(t, 2, 2, 3)
    assert targets.counts(t - 2, S) == (0, 0) and calls == []
    assert targets.counts(t**4 - 1, S) == (2, 0)
    assert calls == [horner_phi(4, t)]
    g = t**3 / (t - 1)  # b = t - 1 is no monomial, and A_d is prime to it
    S = PlaceSet([Place(Polynomial.t(Q)), Place(Polynomial.t(Q) - Polynomial.one(Q)), INFINITY])
    x = horner_phi(2, g).num * horner_phi(6, g).num
    calls.clear()
    assert _LemmaTargets(g, 2, 1, 3).counts(RationalFunction(x), S) == (3, 6)
    assert calls == [horner_phi(2, g), horner_phi(6, g)]
    assert [y.den for y in calls] == [Polynomial.t(Q) - Polynomial.one(Q), (Polynomial.t(Q) - Polynomial.one(Q)) ** 2]


def test_lemma_fallback_keeps_the_local_degree_cap(Q, monkeypatch):
    from skolemff.errors import NotSInteger
    from skolemff.powersum import _LemmaTargets

    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    # the input checks of gcd_counting come first
    with pytest.raises(NotSInteger):
        _LemmaTargets(t, 2, 1, 3).counts(1 / (t - 1), S)
    with pytest.raises(ZeroInput):
        _LemmaTargets(t, 2, 1, 3).counts(RationalFunction.zero(Q), S)
    monkeypatch.setenv("SKOLEMFF_MAX_LOCAL_DEGREE", "3")
    targets = _LemmaTargets(t**2, 2, 1, 3)
    assert targets.counts(t**3 - 2, S) == (0, 0)  # proved 0 without a build
    with pytest.raises(FactorizationTooHard, match=r"Phi_6\(g\): degree 4 exceeds SKOLEMFF_MAX_LOCAL_DEGREE=3"):
        targets.counts(t**4 - t**2 + 1, S)  # Phi_6(t^2) itself


def test_certify_notes_a_lemma_target_above_the_cap(monkeypatch):
    # dep-heavy seed 0 meets Phi_8(t^3) (degree 12) in a nonzero count: the class is noted and inconclusive
    inst, _ = generate_instance(0, "dep-heavy")
    monkeypatch.setenv("SKOLEMFF_MAX_LOCAL_DEGREE", "11")
    rep = certify_local_global(inst, k_bound=100)
    note = "class 0: lemma checks skipped: lemma target Phi_8(g): degree 12 exceeds SKOLEMFF_MAX_LOCAL_DEGREE=11"
    assert note in rep.notes and rep.verdict == "InconclusiveWithinBounds"
    assert rep.per_class[0].split_complete and rep.per_class[0].lemma_checks == ()


def test_certify_builds_phi_only_for_nonzero_counts(monkeypatch):
    """On dep-heavy seeds 0-19 a lemma target A_d is built once per class and d, and only for a
    nonzero count; `LocalChecker` builds its own Phi_d(f) numerators, told apart by the caller."""
    lemma, checker, inside = [], [], [False]
    phi_numerator, condition = powersum._phi_numerator, LocalChecker.condition

    def counted(d, f):
        (checker if inside[0] else lemma).append((d, f))
        return phi_numerator(d, f)

    def in_checker(self, d):
        inside[0] = True
        try:
            return condition(self, d)
        finally:
            inside[0] = False

    monkeypatch.setattr(powersum, "_phi_numerator", counted)
    monkeypatch.setattr(LocalChecker, "condition", in_checker)
    builds = 0
    for seed in range(20):
        inst, _ = generate_instance(seed, "dep-heavy")
        lemma.clear()
        rep = certify_local_global(inst, k_bound=100)
        nonzero = set()
        for cc in rep.per_class:
            d1, d2 = cc.p**cc.ell, cc.a
            for r in cc.lemma_checks:
                # claim D reports both counts; claim I only their sum
                if "N1" in r.detail:
                    nonzero.update(d for d, n in ((d1, r.detail["N1"]), (d2, r.detail["N2"])) if n)
                elif r.lhs:
                    nonzero.update((d1, d2))
        assert len(lemma) == len(set(lemma)) and {d for d, _ in lemma} <= nonzero, (seed, lemma, nonzero)
        assert all(f == inst.g for _, f in lemma)
        builds += len(lemma)
    assert 0 < builds < 10 and len(checker) > 0


def _claimD_cases():
    """(label, inst, split, triples) for dep-heavy seeds 0-39, the claimD-suite instances at seeds 0-9
    and the small seeds 0-59 with g = f^e for e > 1 (over Q and Q(i), eps of order 2 and 4).

    triples are a few small (p, l, q) and, on dep-heavy, the one certify
    chooses for the class (on small its Phi_{p^l}(g) is too large for the
    Horner oracle); classes with a global zero or an incomplete split are left
    out, as the lemma's precondition excludes them.
    """
    from skolemff.powersum import _working_S

    insts = [(f"dep-heavy/{s}", generate_instance(s, "dep-heavy")[0]) for s in range(40)]
    insts += [(f"claimD/{s}/{i}", generate_instance(s * 10_000 + i, "dep-heavy")[0]) for s in range(10) for i in range(4)]
    insts += [(f"small/{s}", inst) for s in range(60) if (inst := generate_instance(s, "small")[0]).e > 1]
    for label, inst in insts:
        for c in range(inst.e):
            split = split_dep_ind(inst, c)
            if not split.dep or not split.complete or any(w.power is not None for _, _, w in split.dep):
                continue
            triples = [(2, 1, 3), (3, 1, 2), (2, 2, 3)]
            if not label.startswith("small"):
                witnesses = [w for _, _, w in split.dep]
                q = choose_q(witnesses)
                p = choose_p(witnesses, q)
                triples.append((p, ell_bound(split.height, split.poly.degree, split.g, _working_S(inst, [split]), p, q), q))
            yield f"{label}/{c}", inst, split, triples


def test_claimD_witness_test_matches_gcd_counting(monkeypatch):
    """N1 and N2 of claim D equal gcd_counting(P_dep(g^n), Phi_d(g) by Horner, S_work), for n in -8..8.

    The witnesses leave d open when it divides some nonzero |n q - r| ord(eps);
    x = P_dep(g^n) is built, and the image test runs, exactly then.
    """
    from skolemff import gcd_counting
    from skolemff.powersum import _claimD_impl, _LemmaTargets, _working_S

    built = []
    evaluate = KPolynomial.evaluate
    monkeypatch.setattr(KPolynomial, "evaluate", lambda P, x: built.append(x) or evaluate(P, x))
    seen = Counter()
    for label, inst, split, triples in _claimD_cases():
        g, S = split.g, _working_S(inst, [split])
        phis = {}
        for p, ell, q in triples:
            targets = _LemmaTargets(g, p, ell, q)
            for n in range(-8, 9):
                x = RationalFunction.one(inst.field)
                for beta, m, _ in split.dep:
                    x = x * (g**n - beta) ** m
                want = []
                for d in targets.ds:
                    if d not in phis:
                        phis[d] = horner_phi(d, g)
                    want.append(gcd_counting(x, phis[d], S))
                ms = [abs(n * w.q - w.r) * w.torsion.order for _, _, w in split.dep]
                open_ = [d for d in targets.ds if any(m and m % d == 0 for m in ms)]
                built.clear()
                rep = _claimD_impl(split, S, n, p, ell, q, targets)
                assert (rep.detail["N1"], rep.detail["N2"]) == tuple(want), (label, n, p, ell, q)
                assert len(built) == (1 if open_ else 0), (label, n, p, ell, q, open_)
                seen["nonzero"] += any(want)
                seen["open"] += bool(open_)
                seen["open, zero"] += bool(open_) and not any(want)
                seen["closed"] += not open_
                seen["e > 1, nonzero"] += inst.e > 1 and any(want)
    assert seen["nonzero"] >= 10 and seen["open, zero"] >= 10 and seen["closed"] >= 100, seen
    assert seen["e > 1, nonzero"] >= 10, seen


def test_claimD_witness_counts_a_common_zero(Q, monkeypatch):
    """B(n) = t^n + 1 has the dependent root -1 (q = 1, r = 0, eps = -1): g^n + 1 meets Phi_2(t) at t = -1 for odd n."""
    from skolemff import gcd_counting
    from skolemff.powersum import _claimD_impl, _LemmaTargets, _working_S

    t = RationalFunction.t(Q)
    inst = PowerSumInstance((RationalFunction.one(Q),) * 2, (one_ru(Q),) * 2, (1, 0), t, PlaceSet([Place(t.num), INFINITY]))
    split = split_dep_ind(inst, 0)
    (beta, _, w), = split.dep
    assert beta == -RationalFunction.one(Q) and (w.q, w.r, w.torsion.order) == (1, 0, 2)
    S = _working_S(inst, [split])
    counts = []
    real = _LemmaTargets.counts
    monkeypatch.setattr(_LemmaTargets, "counts", lambda self, x, S: counts.append(x) or real(self, x, S))
    targets = _LemmaTargets(split.g, 2, 1, 3)
    got = []
    for n in range(-3, 4):
        rep = _claimD_impl(split, S, n, 2, 1, 3, targets)
        x = t**n + 1
        assert (rep.detail["N1"], rep.detail["N2"]) == (gcd_counting(x, t + 1, S), gcd_counting(x, horner_phi(6, t), S))
        got.append(rep.detail["N1"])
    # m_beta = 2|n|: d = 2 is open for every n != 0, d = 6 when 3 | n
    assert got == [1, 0, 1, 0, 1, 0, 1] and len(counts) == 6


def test_claimD_raises_from_the_witness_power(Q):
    """A dependent root g^m: P_dep(g^n) = 0 exactly at n = m, which the witness's power tells."""
    from skolemff.errors import PreconditionGlobalZeroExists
    from skolemff.powersum import _claimD_impl, _LemmaTargets, _working_S

    t = RationalFunction.t(Q)
    inst = PowerSumInstance((RationalFunction.one(Q), -(t**2)), (one_ru(Q),) * 2, (1, 0), t, PlaceSet([Place(t.num), INFINITY]))
    split = split_dep_ind(inst, 0)
    assert [w.power for _, _, w in split.dep] == [2]
    S, targets = _working_S(inst, [split]), _LemmaTargets(split.g, 3, 1, 2)
    with pytest.raises(PreconditionGlobalZeroExists, match="P_dep"):
        _claimD_impl(split, S, 2, 3, 1, 2, targets)
    for n in (-1, 0, 1, 3):
        assert _claimD_impl(split, S, n, 3, 1, 2, targets).holds


def test_claimD_in_characteristic_p_counts_through_the_image_path(monkeypatch):
    """Over F_5, Phi_10(t) = (t + 1)^4: t + 1 meets it though 10 divides no m_beta = 2, so the witnesses decide nothing."""
    from skolemff import gcd_counting
    from skolemff.powersum import _claimD_impl, _LemmaTargets, _working_S

    F5 = field_for(FieldSpec(5, 1, 1))
    t = RationalFunction.t(F5)
    inst = PowerSumInstance((RationalFunction.one(F5),) * 2, (one_ru(F5),) * 2, (1, 0), t, PlaceSet([Place(t.num), INFINITY]))
    split = split_dep_ind(inst, 0)
    S = _working_S(inst, [split])
    counts = []
    real = _LemmaTargets.counts
    monkeypatch.setattr(_LemmaTargets, "counts", lambda self, x, S: counts.append(x) or real(self, x, S))
    targets = _LemmaTargets(split.g, 5, 1, 2)
    rep = _claimD_impl(split, S, 1, 5, 1, 2, targets)
    want = tuple(gcd_counting(t + 1, horner_phi(d, t), S) for d in (5, 10))
    assert (rep.detail["N1"], rep.detail["N2"]) == want == (0, 1) and counts == [t + 1]
    rep = _claimD_impl(split, S, 2, 5, 1, 2, targets)
    assert (rep.detail["N1"], rep.detail["N2"]) == (0, 0) and len(counts) == 2


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


def test_certify_reduces_each_class_once(Qi, monkeypatch):
    calls = []
    orig = powersum.class_reduction
    monkeypatch.setattr(powersum, "class_reduction", lambda inst, c: calls.append(c) or orig(inst, c))
    inst = example1_instance(Qi)
    assert certify_local_global(inst).verdict == "LocalObstruction"
    assert sorted(calls) == list(range(inst.e)) and inst.e == 2


def test_certify_computes_each_class_height_and_g_once(Qi, monkeypatch):
    calls = []
    orig = powersum._class_height
    monkeypatch.setattr(powersum, "_class_height", lambda inst, c: calls.append(c) or orig(inst, c))
    inst = example1_instance(Qi)
    rep = certify_local_global(inst)
    assert rep.verdict == "LocalObstruction" and rep.lemma_checks
    assert sorted(calls) == list(range(inst.e)) and inst.e == 2
    assert inst.classes[0][1] is inst.classes[1][1] is inst.g


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
