import random
from fractions import Fraction

import pytest

from skolemff import (
    RationalFunction,
    dependence_exponents,
    is_mult_independent,
    is_power_of,
)
from skolemff.errors import ConstantInput, UnsupportedConstantPair, ZeroInput
from skolemff.generate import rand_ratfunc


def t_func(fld):
    return RationalFunction.t(fld)


def test_independent_examples(Q):
    t = t_func(Q)
    assert is_mult_independent(t, t - 1)
    assert not is_mult_independent(t**2, t**3)  # (t^2)^3 = (t^3)^2
    # parallel divisors but non-torsion constant ratio 2/3
    assert is_mult_independent(2 * t, 3 * t)


def test_torsion_shortcuts(Q):
    t = t_func(Q)
    assert not is_mult_independent(RationalFunction.constant(Q, 1), t)
    assert not is_mult_independent(RationalFunction.constant(Q, -1), t)
    assert is_mult_independent(RationalFunction.constant(Q, 2), t)


def test_constant_pairs(Q, Qi, F5):
    two = RationalFunction.constant(Q, 2)
    three = RationalFunction.constant(Q, 3)
    four = RationalFunction.constant(Q, 4)
    assert is_mult_independent(two, three)
    assert not is_mult_independent(two, four)  # 2^2 = 4
    six = RationalFunction.constant(Q, 6)
    assert is_mult_independent(four, six)
    # char p: every nonzero constant is torsion
    a5 = RationalFunction.constant(F5, 2)
    b5 = RationalFunction.constant(F5, 3)
    assert not is_mult_independent(a5, b5)
    # irrational cyclotomic non-torsion pair is out of scope
    from skolemff.constants import zeta

    z = zeta(Qi, 4)
    u = RationalFunction.constant(Qi, z + 2)
    v = RationalFunction.constant(Qi, z + 3)
    with pytest.raises(UnsupportedConstantPair):
        is_mult_independent(u, v)


def test_rational_constant_pairs(Q):
    # denominators enter the prime-exponent vectors with negative exponents
    def c(x):
        return RationalFunction.constant(Q, Fraction(x))

    assert not is_mult_independent(c(4), c("1/2"))  # 4 * (1/2)^2 = 1
    assert not is_mult_independent(c("9/4"), c("2/3"))  # 9/4 * (2/3)^2 = 1
    assert is_mult_independent(c("2/3"), c(3))
    assert is_mult_independent(c("1/2"), c("1/3"))


def test_discovered_relation_reevaluates(Q):
    rng = random.Random(47)
    for _ in range(20):
        base = rand_ratfunc(rng, Q, 2, nonconstant=True)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a, b = base**m, base**n
        assert not is_mult_independent(a, b)
        # the minimal relation makes a^x b^y a torsion constant; recheck directly
        w = dependence_exponents(a, b)
        assert w is not None
        assert a**w.q == RationalFunction.constant(Q, w.torsion.value) * b**w.r


def test_dependence_exponents_examples(Q):
    t = t_func(Q)
    w = dependence_exponents(-(t**3), t**2)
    assert (w.q, w.r) == (2, 3) and w.torsion.value.is_one
    w = dependence_exponents(t, t**2)
    assert (w.q, w.r) == (2, 1) and w.torsion.value.is_one
    assert dependence_exponents(t - 1, t) is None
    # honest nontrivial torsion: beta^2 = -1 * f^1 for beta = i*t over Q(i)
    with pytest.raises(ZeroInput):
        dependence_exponents(RationalFunction.zero(Q), t)
    with pytest.raises(ConstantInput):
        dependence_exponents(t, RationalFunction.constant(Q, 2))


def test_dependence_with_torsion_constant(Qi):
    from skolemff.constants import zeta

    t = t_func(Qi)
    z = zeta(Qi, 4)
    beta = RationalFunction.constant(Qi, z) * t
    w = dependence_exponents(beta, t)
    assert w is not None and (w.q, w.r) == (1, 1)
    assert w.torsion.value == z and w.torsion.order == 4
    assert w.exact_q == 4 and w.exact_r == 4
    assert beta**4 == t**4


def test_constant_beta(Q):
    t = t_func(Q)
    w = dependence_exponents(RationalFunction.constant(Q, -1), t)
    assert w is not None and (w.q, w.r) == (1, 0) and w.torsion.order == 2
    assert dependence_exponents(RationalFunction.constant(Q, 5), t) is None


def test_is_power_of_examples(Q):
    t = t_func(Q)
    assert is_power_of(t**6, t**2) == 3
    assert is_power_of(t**3, t**2) is None
    assert is_power_of(RationalFunction.constant(Q, -1), t) is None
    assert is_power_of(RationalFunction.one(Q), t) == 0


def test_is_power_of_round_trip(Q, F3):
    rng = random.Random(53)
    for fld in (Q, F3):
        for _ in range(8):
            f = rand_ratfunc(rng, fld, 2, nonconstant=True)
            for n in range(-30, 31):
                assert is_power_of(f**n, f) == n or (n == 0)


def test_agreement_power_implies_witness(Q):
    t = t_func(Q)
    f = (t + 1) / t
    for n in (-3, 2, 5):
        w = dependence_exponents(f**n, f)
        assert w is not None and (w.q, w.r) == (1, n) and w.torsion.value.is_one



def test_dependence_matches_brute_force(Q, Qi, F3):
    """dependence_exponents and is_power_of against a direct search over (q, r)."""
    from oracles import brute_dependence, brute_power
    from skolemff import FieldSpec, field_for, roots_of_unity

    F25 = field_for(FieldSpec(5, 1, 2))
    rng = random.Random(59)
    seen = {"dependent": 0, "independent": 0, "power": 0, "torsion": 0, "constant_numerator": 0}
    for fld in (Q, Qi, F3, F25):
        roots = [x.value for x in roots_of_unity(fld.torsion_exponent, fld.spec)]
        for _ in range(10):
            base = rand_ratfunc(rng, fld, 1, nonconstant=True)
            if base.num.degree and rng.random() < 0.4:
                base = RationalFunction.one(fld) / RationalFunction(base.num)  # pivot valuation < 0
            f = base ** rng.choice((-3, -2, -1, 1, 2, 3))
            kind = rng.randrange(4)
            if kind == 0:
                beta = RationalFunction.constant(fld, rng.choice(roots)) * base ** rng.randint(-4, 4)
            elif kind == 1:
                beta = RationalFunction.constant(fld, 2) * base ** rng.randint(-3, 3)
            elif kind == 2:
                beta = rand_ratfunc(rng, fld, 2, nonconstant=True)
            else:
                beta = f ** rng.randint(-2, 2)
            want = brute_dependence(beta, f)
            w = dependence_exponents(beta, f)
            assert (None if w is None else (w.q, w.r, w.torsion.value)) == want, (fld, beta, f)
            power = brute_power(beta, f)
            assert is_power_of(beta, f) == power, (fld, beta, f)
            seen["dependent" if want else "independent"] += 1
            seen["power"] += power is not None
            seen["torsion"] += bool(want and not want[2].is_one)
            seen["constant_numerator"] += f.num.degree == 0
    assert all(seen.values()), seen
