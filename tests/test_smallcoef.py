from fractions import Fraction

import pytest

from skolemff import (
    INFINITY,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    admissible_a,
    conclude_from_witness,
    growth_check,
    min_e,
    smallcoef_end_to_end,
)
from skolemff.errors import InvalidInstance
from skolemff.smallcoef import gamma_bound
from conftest import neg_ru, one_ru


def S2_of(fld):
    return PlaceSet([Place(Polynomial.t(fld)), INFINITY])


def test_growth_check_examples(Q):
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    const_lams = PowerSumInstance((RationalFunction.one(Q), RationalFunction.constant(Q, 2)),
                                  (one_ru(Q),) * 2, (0, 1), t, S)
    for rho in (Fraction(1, 100), Fraction(1, 2), Fraction(99, 100)):
        assert growth_check(const_lams, rho)
    # lambda = (t, 1/t), f = t^5: sum h = 2 <= rho*5 iff rho >= 2/5
    inst = PowerSumInstance((t, t**-1), (one_ru(Q),) * 2, (0, 1), t**5, S)
    assert growth_check(inst, Fraction(1, 2))
    assert not growth_check(inst, Fraction(1, 3))
    # lambda = (t^2), f = t^3: 2 <= rho*3 fails at rho = 1/2
    inst2 = PowerSumInstance((t**2,), (one_ru(Q),), (1,), t**3, S)
    assert not growth_check(inst2, Fraction(1, 2))
    with pytest.raises(InvalidInstance):
        growth_check(inst2, Fraction(3, 2))


def test_growth_check_uses_deg_ins(F3):
    # char p: the bound is rho h(f)/deg_ins(f)
    t = RationalFunction.t(F3)
    S = S2_of(F3)
    inst = PowerSumInstance((t,), (one_ru(F3),), (1,), t**3, S)  # h(f)=3, deg_ins=3
    assert not growth_check(inst, Fraction(1, 2))  # 1 <= rho*1 fails
    tp = Polynomial.t(F3)
    S_big = PlaceSet([Place(tp), Place(tp * tp + Polynomial.one(F3)), INFINITY])
    inst2 = PowerSumInstance((t,), (one_ru(F3),), (1,), t**3 + t, S_big)  # deg_ins=1
    assert growth_check(inst2, Fraction(1, 2))  # 1 <= 3/2


def test_gamma_bound_exact_rational(Q):
    S = S2_of(Q)
    assert gamma_bound(Fraction(1, 10), S) == Fraction(38, 9)
    assert gamma_bound(Fraction(1, 2), S) == 6


def test_min_e_examples(Q, F3):
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    # all eps = 1, rho = 1/2, |S| = 2 -> Gamma = 6, e = 7
    inst = PowerSumInstance((t,), (one_ru(Q),), (1,), t, S)
    assert min_e(inst, gamma_bound(Fraction(1, 2), S)) == 7
    # eps in {+-1}: e must be even and > 6 -> 8
    inst2 = PowerSumInstance((t, t), (one_ru(Q), neg_ru(Q)), (0, 1), t, S)
    assert min_e(inst2, gamma_bound(Fraction(1, 2), S)) == 8
    # char 3: Gamma = 6 but 3 does not divide e -> 7
    t3 = RationalFunction.t(F3)
    inst3 = PowerSumInstance((t3,), (one_ru(F3),), (1,), t3**2, S2_of(F3))
    assert min_e(inst3, gamma_bound(Fraction(1, 2), S2_of(F3))) == 7


def test_min_e_minimality(Q):
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    inst = PowerSumInstance((t, t), (one_ru(Q), neg_ru(Q)), (0, 1), t, S)
    for rho in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        gamma = gamma_bound(rho, S)
        e = min_e(inst, gamma)
        assert Fraction(e) > gamma
        assert all((e % eps.order) == 0 for eps in inst.epsilons)
        # one step back violates a condition
        prev = e - 2  # previous multiple of lcm(orders) = 2
        assert prev <= 0 or Fraction(prev) <= gamma


def _brute_admissible_a(e, N, gamma):
    from skolemff.intutil import factorize, valuation_int

    a = 0
    while True:
        a += 1
        ok = True
        for qp in factorize(e):
            lhs = Fraction(qp ** (1 + valuation_int(a, qp) - valuation_int(e, qp)))
            if lhs <= N + gamma:
                ok = False
                break
        if ok:
            return a


def test_admissible_a_table(Q):
    S2 = S2_of(Q)
    S1 = PlaceSet([INFINITY])
    # (Gamma=6, e=7, N=3) -> 49, via rho=1/2 and |S|=2
    assert admissible_a(7, 3, gamma_bound(Fraction(1, 2), S2)) == 49 == _brute_admissible_a(7, 3, Fraction(6))
    # (Gamma=6, e=8, N=3) -> 64
    assert admissible_a(8, 3, gamma_bound(Fraction(1, 2), S2)) == 64 == _brute_admissible_a(8, 3, Fraction(6))
    # (Gamma=4, e=6, N=0) -> 72, via rho=2/3 and |S|=1
    assert gamma_bound(Fraction(2, 3), S1) == 4
    assert admissible_a(6, 0, gamma_bound(Fraction(2, 3), S1)) == 72 == _brute_admissible_a(6, 0, Fraction(4))


def test_admissible_a_satisfies_conditions(Q):
    from skolemff.intutil import factorize, valuation_int

    S = S2_of(Q)
    for e, N, rho in [(6, 2, Fraction(1, 3)), (12, 5, Fraction(1, 2)), (7, 0, Fraction(1, 10))]:
        gamma = gamma_bound(rho, S)
        a = admissible_a(e, N, gamma)
        assert a % e == 0  # e | a comes for free
        for qp in factorize(e):
            assert Fraction(qp ** (1 + valuation_int(a, qp) - valuation_int(e, qp))) > N + gamma


def test_conclude_from_witness_branches(Q):
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    # e | k branch: B(n) = 0 for all n; sum lambda = 0
    inst = PowerSumInstance((RationalFunction.one(Q), -RationalFunction.one(Q)),
                            (one_ru(Q),) * 2, (1, 1), t, S)
    rep = conclude_from_witness(inst, 0, 2)
    assert rep.branch == "e_divides_k" and rep.verified and not rep.theorem_violation
    # e does not divide k: lambda (t, t), eps (1, -1), r = (2, 2): odd k kill the polynomial
    inst2 = PowerSumInstance((t, t), (one_ru(Q), neg_ru(Q)), (2, 2), t, S)
    rep2 = conclude_from_witness(inst2, 1, 2)
    assert rep2.branch == "e_not_divides_k" and rep2.verified
    assert not rep2.distinct_exponents
    # even k on the same instance land in the e | k branch and fail: B(0) = 2t != 0
    rep3 = conclude_from_witness(inst2, 2, 2)
    assert rep3.branch == "e_divides_k" and not rep3.verified and rep3.theorem_violation


def test_conclude_regroups_the_class_of_k(Q, Qi):
    """The e-not-dividing-k branch against sum lambda_i eps_i^k X^{r_i} regrouped by exponent."""
    import random

    from skolemff import RootOfUnity
    from skolemff.constants import zeta

    rng = random.Random(17)
    outcomes = set()
    for fld in (Q, Qi):
        t = RationalFunction.t(fld)
        orders = (1, 2) if fld is Q else (1, 2, 4)
        for _ in range(30):
            m = rng.randint(1, 4)
            lams = tuple(rng.choice([t, -t, t + 1, RationalFunction.constant(fld, 2)]) for _ in range(m))
            eps = []
            for _ in range(m):
                d = rng.choice(orders)
                eps.append(RootOfUnity(d, zeta(fld, d)))
            rs = tuple(rng.choice([0, 1, 1, 2]) for _ in range(m))
            inst = PowerSumInstance(lams, tuple(eps), rs, t, S2_of(fld))
            for k in range(-5, 6):
                if k % inst.e == 0:
                    continue
                sums = {}
                for lam, ep, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
                    sums[r] = sums.get(r, RationalFunction.zero(fld)) + lam * ep.value ** (k % ep.order)
                ok = all(v.is_zero for v in sums.values())
                rep = conclude_from_witness(inst, k, 2 * inst.e)
                assert rep.branch == "e_not_divides_k"
                assert (rep.verified, rep.theorem_violation) == (ok, not ok)
                assert rep.detail == {"coefficient_exponents": sorted(sums)}
                outcomes.add(ok)
    assert outcomes == {True, False}


def test_smallcoef_pipeline_example1(Q, ex1):
    rep = smallcoef_end_to_end(ex1, Fraction(1, 10), k_bound=200)
    assert rep.status == "consistent_no_witness"
    assert rep.e == 6 and rep.a == 72 and rep.gamma == Fraction(38, 9)
    rep2 = smallcoef_end_to_end(ex1, Fraction(1, 2), k_bound=200)
    assert rep2.status == "consistent_no_witness"
    assert rep2.e == 8 and rep2.a == 64


def test_smallcoef_pipeline_identically_zero(Q):
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    inst = PowerSumInstance((RationalFunction.one(Q), -RationalFunction.one(Q)),
                            (one_ru(Q),) * 2, (1, 1), t, S)
    rep = smallcoef_end_to_end(inst, Fraction(1, 2), k_bound=50)
    assert rep.status == "witness_verified"
    assert rep.witness == 0 and rep.conclusion.branch == "e_divides_k"


def test_smallcoef_pipeline_growth_rejection(Q, ex2):
    # sum h(lambda) = 2, h(f) = 2: fails for every rho < 1
    for rho in (Fraction(1, 2), Fraction(99, 100)):
        rep = smallcoef_end_to_end(ex2, rho, k_bound=20)
        assert rep.status == "rejected_growth"


def test_smallcoef_pipeline_charp_end_to_end(F3):
    t = RationalFunction.t(F3)
    S = S2_of(F3)
    inst = PowerSumInstance((RationalFunction.one(F3), -RationalFunction.one(F3)),
                            (one_ru(F3),) * 2, (1, 2), t**3, S)
    rep = smallcoef_end_to_end(inst, Fraction(1, 2), k_bound=40)
    # e must dodge the characteristic: Gamma = 6 and 3 does not divide e = 7
    assert rep.e == 7 and rep.e % 3 != 0
    assert rep.status == "witness_verified"
    assert rep.witness == 0 and rep.conclusion.branch == "e_divides_k" and rep.conclusion.verified


def test_smallcoef_pipeline_never_violates_on_random_constant_lambdas(Q):
    import random

    rng = random.Random(91)
    t = RationalFunction.t(Q)
    S = S2_of(Q)
    for _ in range(25):
        m = rng.randint(1, 4)
        lams = tuple(RationalFunction.constant(Q, rng.choice([1, -1, 2, 3, -2])) for _ in range(m))
        eps = tuple(rng.choice([one_ru(Q), neg_ru(Q)]) for _ in range(m))
        rs = tuple(rng.sample(range(-4, 5), m))
        inst = PowerSumInstance(lams, eps, rs, t ** rng.randint(1, 3), S)
        rep = smallcoef_end_to_end(inst, Fraction(1, 2), k_bound=30)
        assert rep.status != "theorem_violation", inst
