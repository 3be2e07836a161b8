import random
from collections import Counter
from fractions import Fraction

import pytest

from skolemff import (
    INFINITY,
    FieldSpec,
    Place,
    PlaceSet,
    RationalFunction,
    dependence_exponents,
    field_for,
    is_mult_independent,
    roots_of_unity,
    valuation,
)
from skolemff.errors import ConstantInput, UnsupportedConstantPair, ZeroInput
from skolemff.funfield import divisor
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


def _power(beta, f):
    """The n with beta = f^n, read off the dependence witness; None without one."""
    w = dependence_exponents(beta, f)
    return None if w is None else w.power


def test_witness_power_examples(Q):
    t = t_func(Q)
    assert _power(t**6, t**2) == 3
    assert _power(t**3, t**2) is None
    assert _power(RationalFunction.constant(Q, -1), t) is None
    assert _power(RationalFunction.one(Q), t) == 0


def test_witness_power_round_trip(Q, F3):
    rng = random.Random(53)
    for fld in (Q, F3):
        for _ in range(8):
            f = rand_ratfunc(rng, fld, 2, nonconstant=True)
            for n in range(-30, 31):
                assert _power(f**n, f) == n or (n == 0)


def test_agreement_power_implies_witness(Q):
    t = t_func(Q)
    f = (t + 1) / t
    for n in (-3, 2, 5):
        w = dependence_exponents(f**n, f)
        assert w is not None and (w.q, w.r) == (1, n) and w.torsion.value.is_one



def test_dependence_matches_brute_force(Q, Qi, F3):
    """dependence_exponents and its witness's power against a direct search over (q, r)."""
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
            assert _power(beta, f) == power, (fld, beta, f)
            seen["dependent" if want else "independent"] += 1
            seen["power"] += power is not None
            seen["torsion"] += bool(want and not want[2].is_one)
            seen["constant_numerator"] += f.num.degree == 0
    assert all(seen.values()), seen


DEP_FIELDS = {"Q": FieldSpec(0, 1), "Q(i)": FieldSpec(0, 4), "F_3": FieldSpec(3, 1, 1), "F_9": FieldSpec(3, 1, 2)}


def _witness(w):
    return None if w is None else (w.q, w.r, w.torsion.value, w.torsion.order)


def _dependence_cases(rng, fld):
    """(kind, beta, f): f = c base^k on the places t and t - 1; beta dependent on it
    or off supp(f) by a zero, a pole or its order at infinity, or constant."""
    t = RationalFunction.t(fld)
    one = RationalFunction.one(fld)

    def const(v):
        return RationalFunction.constant(fld, v)

    torsion = [x.value for x in roots_of_unity(fld.torsion_exponent, fld.spec)]
    off = (t + 1, t**2 + 1)  # coprime to t and t - 1 over every field here
    out = []
    for _ in range(6):
        x, y = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (-1, 1)))
        base = t**x * (t - 1) ** y
        f = const(rng.choice((1, 2))) * base ** rng.choice((-2, -1, 1, 2))
        m, s = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1))
        out += [
            ("dependent", const(rng.choice(torsion)) * base**m, f),
            ("scaled", const(rng.choice((1, 2, 4))) * base**m, f),
            ("zero_off", base**s * rng.choice(off), f),
            ("pole_off", base**s / rng.choice(off), f),
            ("random", rand_ratfunc(rng, fld, 2, nonconstant=True), f),
        ]
    # v_inf(f) = 0, while beta has the finite places of f and a pole or zero at infinity
    f = t / (t - 1)
    out += [("v_inf_off", t**2 / (t - 1), f), ("v_inf_off", t / (t - 1) ** 2, f), ("dependent", one / f**2, f)]
    out += [("constant", const(c), f) for c in (*torsion[:3], 2, 3) if not const(c).is_zero]
    return out


@pytest.mark.parametrize("name", sorted(DEP_FIELDS))
def test_dependence_matches_the_divisor_and_brute_oracles(name):
    """Reading beta's valuations at f's places gives the factor-both-sides witness and the searched one."""
    from oracles import brute_dependence, divisor_dependence

    fld = field_for(DEP_FIELDS[name])
    rng = random.Random(f"dependence-{name}")
    seen = Counter()
    for kind, beta, f in _dependence_cases(rng, fld):
        w = dependence_exponents(beta, f)
        assert _witness(w) == _witness(divisor_dependence(beta, f)), (kind, beta, f)
        assert _witness(dependence_exponents(beta, f, divisor(f))) == _witness(w), (kind, beta, f)
        assert (None if w is None else (w.q, w.r, w.torsion.value)) == brute_dependence(beta, f), (kind, beta, f)
        if kind in ("zero_off", "pole_off", "v_inf_off"):
            assert w is None, (kind, beta, f)
        seen[kind] += 1
        if w is not None:
            seen["r < 0"] += w.r < 0
            seen["torsion -1"] += w.torsion.order == 2
            seen["torsion i"] += w.torsion.order == 4
    assert seen["dependent"] and seen["r < 0"] and seen["torsion -1"], seen
    if name in ("Q(i)", "F_9"):
        assert seen["torsion i"], seen


def test_split_factors_no_root(monkeypatch, Q):
    """split_dep_ind factors what the root search factors and nothing more: no root's numerator or
    denominator, and not g, whose divisor e div(f) it reads off the valuations of f at S."""
    from skolemff import factor
    from skolemff.generate import generate_instance, instance_from_roots
    from skolemff.kroots import find_roots_in_K
    from skolemff.powersum import split_dep_ind

    real, calls = factor.factor_poly, []

    def recorder(p):
        calls.append(p.monic())
        return real(p)

    monkeypatch.setattr(factor, "factor_poly", recorder)
    t = RationalFunction.t(Q)
    f = t / (t + 1)
    S = PlaceSet([Place(t.num), Place((t + 1).num), INFINITY])
    built = instance_from_roots([t**2 / (t + 1) ** 2, -(t + 1) / t, t - 2, 3 * t / (t + 1)], f, S)
    instances = [generate_instance(seed, "dep-heavy")[0] for seed in range(8)] + [built]
    roots = 0
    for inst in instances:
        for c in range(inst.e):
            P, g = inst.classes[c]
            if P.is_zero:
                continue
            calls.clear()
            find_roots_in_K(P)
            search = Counter(calls)
            calls.clear()
            split = split_dep_ind(inst, c)
            assert Counter(calls) == search, (inst, c)
            parts = {p for beta, *_ in (*split.dep, *split.ind) for p in (beta.num.monic(), beta.den) if p.degree > 0}
            roots += len(parts - {g.num.monic(), g.den}) > 0
    assert roots >= 8, roots


def test_split_witnesses_match_the_divisor_oracle():
    """On dep-heavy seeds 0-39, and small seeds 0-59 with g = f^e for e > 1, every root's witness, taken
    with div(g) from f's valuations at S, is the one from factoring both sides; the independent roots have none."""
    from oracles import divisor_dependence

    from skolemff.generate import generate_instance
    from skolemff.powersum import split_dep_ind

    insts = [generate_instance(seed, "dep-heavy")[0] for seed in range(40)]
    insts += [inst for seed in range(60) if (inst := generate_instance(seed, "small")[0]).e > 1]
    seen = Counter()
    for inst in insts:
        for c in range(inst.e):
            split = split_dep_ind(inst, c)
            for beta, _, w in split.dep:
                assert _witness(w) == _witness(divisor_dependence(beta, split.g)), (inst, c, beta)
                seen["dep"] += 1
                seen["nonconstant"] += not beta.is_constant
                seen["e > 1"] += inst.e > 1 and not beta.is_constant
            for beta, _ in split.ind:
                assert divisor_dependence(beta, split.g) is None, (inst, c, beta)
    assert seen["dep"] >= 40 and seen["nonconstant"] >= 20 and seen["e > 1"] >= 10, seen


def test_independence_with_b_read_at_S_matches_the_factored_divisor(Q, Qi):
    """For S-units a, b, div(b) read at S (valuations) gives the answer that factoring b gives."""
    rng = random.Random(83)
    seen = Counter()
    for fld in (Q, Qi):
        t = t_func(fld)
        S = PlaceSet([Place(t.num), Place((t - 1).num), Place((t + 1).num), INFINITY])
        monos = [t, t - 1, t + 1]

        def unit():
            out = RationalFunction.constant(fld, rng.choice([1, -1, 2, Fraction(1, 3)]))
            for m in monos:
                out = out * m ** rng.randint(-2, 2)
            return out

        for _ in range(40):
            a, b = unit(), unit()
            if rng.random() < 0.4 and not a.is_constant:
                b = a ** rng.choice([-2, -1, 2, 3]) * rng.choice([1, -1, 2])
            if a.is_constant or b.is_constant:
                continue
            div_b = {v: x for v in S if (x := valuation(b, v))}
            assert div_b == divisor(b)
            got = is_mult_independent(a, b, div_b)
            assert got == is_mult_independent(a, b), (a, b)
            seen[got] += 1
    assert seen[True] and seen[False], seen
