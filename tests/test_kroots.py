import random

import pytest

from skolemff import FieldSpec, KPolynomial, RationalFunction, field_for, kroots
from skolemff.errors import ZeroInput
from skolemff.generate import generate_instance, rand_const, rand_ratfunc
from skolemff.kroots import find_roots_in_K
from skolemff.powersum import certify_local_global
from oracles import divisor_pair_roots


def test_construct_then_recover(Q):
    rng = random.Random(61)
    for _ in range(15):
        roots = []
        for _ in range(rng.randint(1, 3)):
            b = rand_ratfunc(rng, Q, 2)
            roots.append(b)
        lead = rand_ratfunc(rng, Q, 1)
        P = KPolynomial.from_roots(Q, roots) * lead
        got = find_roots_in_K(P)
        assert got.complete
        found = []
        for b, m in got.roots:
            found.extend([b] * m)
        found_zero = [RationalFunction.zero(Q)] * got.zero_multiplicity
        expect = sorted(roots, key=repr)
        assert sorted(found + found_zero, key=repr) == expect
        assert got.remainder_degree == 0


def test_multiplicities(Q):
    t = RationalFunction.t(Q)
    P = KPolynomial.from_roots(Q, [t, t, t - 1])
    got = find_roots_in_K(P)
    as_dict = {repr(b): m for b, m in got.roots}
    assert as_dict == {repr(t): 2, repr(t - 1): 1}


def test_no_roots(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    # X^2 - t has no root in Q(t)
    P = KPolynomial(Q, [-t, RationalFunction.zero(Q), one])
    got = find_roots_in_K(P)
    assert got.complete and not got.roots and got.remainder_degree == 2


def test_zero_roots_stripped(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    # X^2 (X - t)
    P = KPolynomial.from_roots(Q, [RationalFunction.zero(Q), RationalFunction.zero(Q), t])
    got = find_roots_in_K(P)
    assert got.zero_multiplicity == 2
    assert got.roots == ((t, 1),)


def test_mixed_rootless_factor(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    # (X - t)(X^2 - t): only the linear root is in K
    P = KPolynomial.from_roots(Q, [t]) * KPolynomial(Q, [-t, RationalFunction.zero(Q), one])
    got = find_roots_in_K(P)
    assert got.roots == ((t, 1),)
    assert got.remainder_degree == 2


def test_cyclotomic_coefficients(Qi):
    from skolemff.constants import zeta

    z = zeta(Qi, 4)
    t = RationalFunction.t(Qi)
    beta = RationalFunction.constant(Qi, z) * t**2
    P = KPolynomial.from_roots(Qi, [beta, t - 1])
    got = find_roots_in_K(P)
    assert got.complete
    assert sorted(repr(b) for b, _ in got.roots) == sorted([repr(beta), repr(t - 1)])


def test_constant_roots(Q):
    one = RationalFunction.one(Q)
    minus_one = -one
    P = KPolynomial.from_roots(Q, [minus_one, RationalFunction.constant(Q, 2)])
    got = find_roots_in_K(P)
    assert sorted(repr(b) for b, _ in got.roots) == sorted([repr(minus_one), repr(RationalFunction.constant(Q, 2))])


def test_zero_polynomial_raises(Q):
    with pytest.raises(ZeroInput):
        find_roots_in_K(KPolynomial(Q, ()))


ORACLE_FIELDS = {
    "Q": FieldSpec(0, 1),
    "Q(i)": FieldSpec(0, 4),
    "Q(zeta_3)": FieldSpec(0, 3),
    "F_3": FieldSpec(3, 1, 1),
    "F_9": FieldSpec(3, 1, 2),
    "F_5": FieldSpec(5, 1, 1),
}


def _planted(rng, fld):
    """lead * prod (X - beta_i) * extra, roots supported at t, t - 1 and t^2 + 1.

    Some roots repeat, some are constant; extra is 1, a rootless factor, or
    X^n - gamma^n (zero middle coefficients), whose other roots need more
    roots of unity than F may hold.
    """
    t = RationalFunction.t(fld)
    one = RationalFunction.one(fld)
    zero = RationalFunction.zero(fld)
    support = (t, t - 1, t**2 + 1)

    def rand_root():
        beta = RationalFunction.constant(fld, rand_const(rng, fld, nonzero=True))
        if rng.random() < 0.25:
            return beta  # a constant root
        for s in support:
            beta = beta * s ** rng.randint(-1, 1)
        return beta

    roots = []
    for _ in range(rng.randint(0, 2)):
        roots += [rand_root()] * rng.choice((1, 1, 2))
    P = KPolynomial.from_roots(fld, roots)
    kind = rng.randrange(3)
    if kind == 1:
        rootless = support[rng.randrange(3)] * t
        P = P * KPolynomial(fld, (-rootless, zero, one))  # X^2 - t * s(t)
    elif kind == 2:
        n = rng.randint(2, 3)
        P = P * KPolynomial(fld, (-(rand_root() ** n), *[zero] * (n - 1), one))
    if P.degree < 1:
        P = P * KPolynomial(fld, (-rand_root(), one))
    return P * rand_ratfunc(rng, fld, 1)


def _past_the_characteristic(name, fld):
    """Inputs whose root multiplicities reach or pass the characteristic 3 or 5, each with its roots' total multiplicity."""
    t, one = RationalFunction.t(fld), RationalFunction.one(fld)
    zero, two = RationalFunction.zero(fld), RationalFunction.constant(fld, 2)
    cases = [(KPolynomial.from_roots(fld, [t] * 4) * KPolynomial(fld, (-t, zero, one)), 4)]  # (X - t)^4 (X^2 - t)
    if name in ("F_3", "F_9"):
        cases += [(KPolynomial.from_roots(fld, [t] * 3), 3), (KPolynomial.from_roots(fld, [two] * 3 + [t] * 6), 9)]
    if name in ("F_3", "F_5", "Q"):
        cases.append((KPolynomial.from_roots(fld, [t**2 / (t + one)] * 9), 9))
    return cases


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_newton_pairs_match_the_divisor_pair_oracle(name):
    fld = field_for(ORACLE_FIELDS[name])
    rng = random.Random(f"kroots-oracle-{name}")
    for _ in range(14):
        P = _planted(rng, fld)
        assert find_roots_in_K(P) == divisor_pair_roots(P), P
    # the scalar gcd's multiplicities agree with trial division in K[X]
    for P, total in _past_the_characteristic(name, fld):
        got = find_roots_in_K(P)
        assert got == divisor_pair_roots(P), P
        assert got.complete and sum(m for _, m in got.roots) == total, P


def test_certify_runs_no_trial_division_in_K_X():
    # every multiplicity of the root search comes from the scalar gcd, and
    # P_dep and P_ind are built from their roots: K[X] has no division at all
    for name in ("divide_out", "divmod", "exact_div"):
        assert not hasattr(KPolynomial, name), name
    found = checks = 0
    for seed in range(10):
        inst, _ = generate_instance(seed, "dep-heavy")
        rep = certify_local_global(inst, k_bound=100)
        found += sum(cc.dep_roots + cc.ind_roots for cc in rep.per_class)
        checks += len(rep.lemma_checks)
    assert found > 0 and checks > 0


def test_every_pair_tried_yields_a_root(monkeypatch, Q):
    # on dep-heavy seeds 0-19 the Newton polygons leave no candidate pair
    # (u, v) without a scalar c; their roots are c t^k, which the polygon at t
    # pins down.  In (X - (t - 1))(X - (t + 1)) both u = t - 1 and u = t + 1
    # pass at the finite places, so u runs over 1, t - 1, t + 1 and t^2 - 1,
    # and only the degree test at infinity rejects u = 1 and u = t^2 - 1.
    real, yields = kroots._scalar_solutions, []

    def counted(polys, u, v):
        out = real(polys, u, v)
        yields.append(len(out))
        return out

    monkeypatch.setattr(kroots, "_scalar_solutions", counted)
    for seed in range(20):
        inst, _ = generate_instance(seed, "dep-heavy")
        for P, _ in inst.classes:
            if not P.is_zero:
                find_roots_in_K(P)
    assert yields and min(yields) > 0, (len(yields), yields.count(0))
    yields.clear()
    t = RationalFunction.t(Q)
    got = find_roots_in_K(KPolynomial.from_roots(Q, [t - 1, t + 1]))
    assert len(got.roots) == 2 and yields == [1, 1], yields


@pytest.mark.parametrize("name", ["Q", "Q(i)", "F_3"])
def test_row_gcd_fallback_matches_the_divisor_pair_oracle(name, monkeypatch):
    # A = (X - 1)^2 ((X - 2)(1 + t^2) + t X): at the pair u = v = 1 the rows are
    # h_0 = h_2 = (C - 1)^2 (C - 2) and h_1 = (C - 1)^2 C, so the gcd of the first
    # and last rows keeps C - 2, which the middle row does not divide
    fld = field_for(ORACLE_FIELDS[name])
    t = RationalFunction.t(fld)
    one, two = RationalFunction.one(fld), RationalFunction.constant(fld, 2)
    # the second factor is (1 + t + t^2) X - 2 (1 + t^2)
    A = KPolynomial.from_roots(fld, [one, one]) * KPolynomial(fld, (-two * (one + t * t), one + t + t * t))
    real_gcd, real_solve, gcds, per_pair = kroots.poly_gcd, kroots._scalar_solutions, [], []

    def counted_gcd(a, b):
        gcds.append((a, b))
        return real_gcd(a, b)

    def counted_solve(polys, u, v):
        gcds.clear()
        out = real_solve(polys, u, v)
        per_pair.append((u.degree, v.degree, len(gcds)))
        return out

    monkeypatch.setattr(kroots, "poly_gcd", counted_gcd)
    monkeypatch.setattr(kroots, "_scalar_solutions", counted_solve)
    got = find_roots_in_K(A)
    assert (0, 0, 2) in per_pair, per_pair  # the first-and-last gcd, then the fallback
    assert got == divisor_pair_roots(A)
    assert got.complete and (one, 2) in got.roots and got.remainder_degree == 0
    # B = (X - 1)^2 ((X - 2) + t (X + 1) + t^2 X) has the rows (C - 1)^2 times C - 2,
    # C + 1 and C: the middle row is a multiple of the gcd (C - 1)^2 of the outer two
    # and takes no gcd of its own
    # the second factor is (1 + t + t^2) X + t - 2
    B = KPolynomial.from_roots(fld, [one, one]) * KPolynomial(fld, (t - two, one + t + t * t))
    per_pair.clear()
    got = find_roots_in_K(B)
    assert (0, 0, 1) in per_pair, per_pair
    assert got == divisor_pair_roots(B) and (one, 2) in got.roots
