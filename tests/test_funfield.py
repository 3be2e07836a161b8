import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, inf

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    FieldSpec,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    chi_S,
    deg_ins,
    divisor,
    field_for,
    gcd_counting,
    height,
    is_s_integer,
    is_s_unit,
    poly_height,
    poly_valuation,
    projective_height,
    truncated_counting,
    valuation,
)
from skolemff import funfield
from skolemff.constants import Field, zeta
from skolemff.errors import ConstantInput, InvalidInstance, NotSInteger, ZeroInput
from skolemff.funfield import poly_gcd, radical, squarefree_decomposition
from skolemff.generate import rand_const, rand_poly, rand_ratfunc
from oracles import (
    coeffwise_divmod,
    coeffwise_kmul,
    coeffwise_mul,
    euclid_gcd,
    horner_k,
    kpoly_divmod,
    kpoly_from_roots,
    strip_places,
    trial_divide_out,
)


def t_of(fld):
    return Polynomial.t(fld)


# -- polynomial layer ---------------------------------------------------------


def test_poly_arithmetic_round_trip(Q):
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, Q, 5)
        b = rand_poly(rng, Q, 4)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_poly_gcd_properties(Q, F5):
    rng = random.Random(13)
    for fld in (Q, F5):
        for _ in range(25):
            a, b, c = (rand_poly(rng, fld, 3) for _ in range(3))
            g = poly_gcd(a * c, b * c)
            # c divides the gcd of (ac, bc)
            q, r = g.divmod(c.monic())
            assert r.is_zero


CYCLOTOMIC_ORDERS = (1, 3, 4, 8, 12)


def _rand_cyclo_poly(rng, fld, deg, height=4):
    """Degree-deg polynomial with random small rationals in every power-basis slot."""
    while True:
        coeffs = [
            ConstantValue.from_rationals(
                fld, [Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(fld.degree)]
            )
            for _ in range(deg + 1)
        ]
        p = Polynomial(fld, coeffs)
        if p.degree == deg:
            return p


def _limit_primes(monkeypatch, limit):
    """Make the modular gcd fail once it asks for more than `limit` primes; return the indices asked for."""
    real, asked = funfield._gcd_prime, []

    def limited(M, i):
        asked.append(i)
        assert i < limit, f"modular gcd needed more than {limit} primes"
        return real(M, i)

    monkeypatch.setattr(funfield, "_gcd_prime", limited)
    return asked


def test_poly_gcd_matches_euclid(monkeypatch):
    """The modular gcd over Q(zeta_M) equals monic Euclid, coprime or not."""
    asked = _limit_primes(monkeypatch, 8)
    rng = random.Random(61)
    for M in CYCLOTOMIC_ORDERS:
        fld = field_for(FieldSpec(0, M))
        t, one = Polynomial.t(fld), Polynomial.one(fld)
        for _ in range(6):
            a, b = (_rand_cyclo_poly(rng, fld, rng.randint(1, 4)) for _ in range(2))
            c = _rand_cyclo_poly(rng, fld, rng.randint(1, 3))
            for x, y in ((a, b), (a * c, b * c), (a * c * c, c * b), (c, c * c)):
                assert poly_gcd(x, y) == euclid_gcd(x, y), (M, x, y)
        # a planted gcd with coefficients above 2^70 needs several primes and the CRT
        big = [
            ConstantValue.from_rationals(
                fld, [Fraction(2**71 + rng.randint(1, 99), 2**70 + rng.randint(1, 99)) for _ in range(fld.degree)]
            )
            for _ in range(2)
        ]
        h = Polynomial(fld, big + [1])
        a, b = h * (t + one), h * (t * t - one * 3)
        asked.clear()
        assert poly_gcd(a, b) == euclid_gcd(a, b) == h, M
        assert max(asked) >= 2, asked
        # p1, the first prime: a leading coefficient or a denominator that vanishes
        # mod p1 makes the gcd skip it, and p1 is unlucky for (t+1)t and (t+1)(t-p1)
        p1 = funfield._gcd_prime(M, 0)[0]
        for a in (t * p1 + one, t + Polynomial(fld, [Fraction(1, p1)])):
            asked.clear()
            assert poly_gcd(a, a * (t + one * 2)) == a.monic(), (M, a)
            assert max(asked) >= 1
        a, b = (t + one) * t, (t + one) * (t - one * p1)
        assert poly_gcd(a, b) == euclid_gcd(a, b) == t + one, M


def test_t_powers_split_off_before_the_modular_gcd(monkeypatch):
    """gcd(t^i a', t^j b') = t^min(i, j) gcd(a', b'): the gcd and both cofactors match Euclid.

    With a' or b' constant (a monomial argument) no gcd prime is asked for.
    """
    asked = _limit_primes(monkeypatch, 8)
    rng = random.Random(71)

    def t_free(deg):
        p = _rand_cyclo_poly(rng, fld, deg)
        return p if not p.constant_coeff().is_zero else p + one

    for M in (1, 4, 3, 8):
        fld = field_for(FieldSpec(0, M))
        t, one = Polynomial.t(fld), Polynomial.one(fld)
        for i in range(4):
            for j in range(4):
                c = t_free(rng.randint(0, 2))
                pairs = [
                    (t_free(rng.randint(1, 3)) * c, t_free(rng.randint(1, 3)) * c, False),
                    (t_free(0), t_free(rng.randint(1, 3)), True),
                    (t_free(rng.randint(1, 3)), t_free(0), True),
                    (t_free(0), t_free(0), True),
                ]
                for a1, b1, monomial in pairs:
                    a, b = t**i * a1, t**j * b1
                    asked.clear()
                    g, qa, qb = funfield._gcd_cofactors(a, b)
                    assert g == euclid_gcd(a, b) == poly_gcd(a, b), (M, a, b)
                    assert (qa, Polynomial.zero(fld)) == coeffwise_divmod(a, g), (M, a, b)
                    assert (qb, Polynomial.zero(fld)) == coeffwise_divmod(b, g), (M, a, b)
                    assert not (monomial and asked), (M, a, b)


def test_poly_gcd_matches_sympy():
    """The modular gcd agrees with sympy.gcd over QQ<zeta_M>, in the same power basis."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(67)
    for M in CYCLOTOMIC_ORDERS:
        fld = field_for(FieldSpec(0, M))
        K = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / M))

        def to_sympy(f):
            return sympy.Poly.from_list(
                [K([sympy.QQ(v, c.den) for v in reversed(c.raw)]) for c in reversed(f.coeffs)],
                x,
                domain=K,
            )

        for _ in range(4):
            a, b, c = (_rand_cyclo_poly(rng, fld, rng.randint(1, 3)) for _ in range(3))
            for u, v in ((a, b), (a * c, b * c)):
                assert to_sympy(poly_gcd(u, v)) == sympy.gcd(to_sympy(u), to_sympy(v)).monic(), (M, u, v)


def test_squarefree_decomposition(Q, F3):
    t = t_of(Q)
    one = Polynomial.one(Q)
    f = (t - one) ** 3 * (t * t + one) * 5
    parts = squarefree_decomposition(f)
    assert sorted(m for _, m in parts) == [1, 3]
    assert radical(f) == ((t - one) * (t * t + one)).monic()
    # char p: p-th powers are transparent to the decomposition
    t3 = t_of(F3)
    f3 = (t3 + Polynomial.one(F3)) ** 3 * t3**2
    parts3 = squarefree_decomposition(f3)
    got = {(str(g), m) for g, m in parts3}
    assert got == {("t + 1", 3), ("t", 2)}


def test_squarefree_decomposition_matches_sympy(Q, Qi):
    """The one squarefree loop agrees with sympy.sqf_list over Q and Q(i)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def to_sympy(c):
        return sum(sympy.Rational(v, c.den) * sympy.I**j for j, v in enumerate(c.raw))

    def from_sympy(fld, g):
        coeffs = []
        for c in reversed(sympy.Poly(g, x).monic().all_coeffs()):
            coeffs.append([Fraction(str(sympy.re(c))), Fraction(str(sympy.im(c)))][: fld.degree])
        return Polynomial(fld, [ConstantValue.from_rationals(fld, v) for v in coeffs])

    rng = random.Random(89)
    for fld in (Q, Qi):
        for _ in range(12):
            f = rand_poly(rng, fld, 1)
            for m in range(1, 4):
                for _ in range(rng.randint(0, 2)):
                    f = f * rand_poly(rng, fld, rng.randint(1, 2)) ** m
            if f.is_constant:
                continue
            ours = sorted((str(g), m) for g, m in squarefree_decomposition(f))
            expr = sum(to_sympy(c) * x**i for i, c in enumerate(f.coeffs))
            _, parts = sympy.sqf_list(expr, x, gaussian=fld is Qi)
            theirs = sorted((str(from_sympy(fld, g)), m) for g, m in parts)
            assert ours == theirs, f


KERNEL_SPECS = (
    FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(0, 8),
    FieldSpec(3, 1, 1), FieldSpec(3, 1, 2), FieldSpec(5, 1, 2),
)


def _rand_kernel_elem(rng, fld):
    """A random element: zero, small, with a denominator sharing factors with its numerators, or above 2^64."""
    kind = rng.randrange(5)
    if kind == 0:
        return ConstantValue(fld, fld.zero_raw)
    if fld.char:
        return ConstantValue(fld, tuple(rng.randrange(fld.p) for _ in range(fld.degree)))
    if kind == 1:
        vals = [Fraction(6 * rng.randint(-3, 3), 4 * rng.randint(1, 3)) for _ in range(fld.degree)]
    elif kind == 2:
        vals = [Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 2**66)) for _ in range(fld.degree)]
    else:
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(fld.degree)]
    return ConstantValue.from_rationals(fld, vals)


def _rand_kernel_poly(rng, fld, deg):
    """Degree <= deg, or zero for deg < 0; the top coefficient is often not 1."""
    coeffs = [_rand_kernel_elem(rng, fld) for _ in range(deg + 1)]
    return Polynomial(fld, coeffs)


def test_kernels_match_coefficientwise_oracles():
    # the int-row kernels against the per-coefficient ConstantValue product and
    # long division, and the stored form against the one built from coefficients
    rng = random.Random(137)
    for spec in KERNEL_SPECS:
        fld = field_for(spec)
        polys = [_rand_kernel_poly(rng, fld, rng.randint(-1, 6)) for _ in range(40)]
        polys += [Polynomial.zero(fld), Polynomial.one(fld), Polynomial(fld, [_rand_kernel_elem(rng, fld)])]
        assert any(p.degree > 0 and not p.lc().is_one for p in polys)
        for a in polys:
            rebuilt = Polynomial(fld, a.coeffs)
            assert rebuilt == a and hash(rebuilt) == hash(a), (spec, a)
            assert a.den > 0 and all(len(r) == fld.degree for r in a.rows)
            assert not a.rows or any(a.rows[-1])
            if fld.char:
                assert a.den == 1 and all(0 <= x < fld.p for r in a.rows for x in r), (spec, a)
            else:
                assert gcd(a.den, *(x for r in a.rows for x in r)) == 1, (spec, a)
            assert a.monic() == (a * a.lc().inverse() if not a.is_zero else a), (spec, a)
            x = _rand_kernel_elem(rng, fld)
            horner = ConstantValue(fld, fld.zero_raw)
            for c in reversed(a.coeffs):
                horner = horner * x + c
            assert a.evaluate(x) == horner, (spec, a, x)
        for _ in range(60):
            a, b = rng.choice(polys), rng.choice(polys)
            assert a * b == coeffwise_mul(a, b), (spec, a, b)
            assert a + b == Polynomial(fld, [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])
            assert -a == Polynomial(fld, [-c for c in a.coeffs])
            if b.is_zero:
                continue
            q, r = a.divmod(b)
            assert (q, r) == coeffwise_divmod(a, b), (spec, a, b)
            assert q * b + r == a and (r.is_zero or r.degree < b.degree), (spec, a, b)


def test_power_matches_repeated_products(Q, Qi, F3):
    # monomials c t^k take the power without products, and must give the same canonical rows
    rng = random.Random(97)
    for fld in (Q, Qi, F3):
        t = Polynomial.t(fld)
        monomials = [RationalFunction(t**k * rand_const(rng, fld, nonzero=True)) for k in (1, 2, 3)]
        for f in [rand_ratfunc(rng, fld, 2) for _ in range(6)] + monomials:
            if f.is_zero:
                continue
            prod = RationalFunction.one(fld)
            for e in range(7):
                assert f**e == prod and f ** (-e) == RationalFunction.one(fld) / prod, (f, e)
                assert (f.num**e).rows == prod.num.rows and (f.num**e).den == prod.num.den, (f, e)
                prod = prod * f


def test_powers_skip_the_gcd_and_match_the_normalising_constructor(Q, Qi, F3, monkeypatch):
    # powers of a reduced fraction stay reduced; a negative power only rescales
    # num and den by the inverse of the new denominator's leading coefficient
    F9 = field_for(FieldSpec(3, 1, 2))
    rng = random.Random(211)
    cases = []
    for fld in (Q, Qi, F3, F9):
        fs = [RationalFunction.zero(fld), RationalFunction.constant(fld, rand_const(rng, fld, nonzero=True))]
        fs += [rand_ratfunc(rng, fld, 3) for _ in range(6)]
        for f in fs:
            for e in (-3, -1, 0, 1, 2, 5):
                if f.is_zero and e < 0:
                    with pytest.raises(ZeroDivisionError):
                        f**e
                    continue
                num, den = (f.num, f.den) if e >= 0 else (f.den, f.num)
                cases.append((f, e, RationalFunction(num ** abs(e), den ** abs(e))))
    assert any(e < 0 and not f.num.lc().is_one and not f.num.is_constant for f, e, _ in cases)

    def no_gcd(*args):
        raise AssertionError("_gcd_cofactors called")

    monkeypatch.setattr(funfield, "_gcd_cofactors", no_gcd)
    for f, e, want in cases:
        got = f**e
        assert (got.num, got.den) == (want.num, want.den) and got.den.lc().is_one, (f, e)


def test_constant_products_skip_the_gcd_and_match_the_normalising_constructor(Q, Qi, F3, monkeypatch):
    # a nonzero constant times a reduced fraction with a monic denominator is
    # reduced, so products with a constant and negation take no gcd; each must
    # equal the normal form that RationalFunction(num, den) computes
    F9 = field_for(FieldSpec(3, 1, 2))
    rng = random.Random(131)
    cases = []
    for fld in (Q, Qi, F3, F9):
        for trial in range(10):
            f = RationalFunction.zero(fld) if trial == 0 else rand_ratfunc(rng, fld, 3)
            consts = [ConstantValue(fld, fld.zero_raw), rand_const(rng, fld), rand_const(rng, fld, nonzero=True)]
            for c in consts + [0, 2, 3]:  # 3 is zero in F_3 and F_9
                cases.append((f, c, RationalFunction.constant(fld, c), RationalFunction(f.num * c, f.den)))
            cases.append((f, None, None, RationalFunction(-f.num, f.den)))
    assert any(not f.den.is_constant for f, *_ in cases)

    def no_gcd(*args):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(funfield, "poly_gcd", no_gcd)
    for f, c, k, expect in cases:
        if c is None:
            assert -f == expect, f
            continue
        for got in (f * c, c * f, f * k, k * f):
            assert got == expect and got.den.lc().is_one, (f, c)


# -- valuations / divisors -----------------------------------------------------


def test_valuation_examples(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    f = RationalFunction(t**3 * (t + one), t - 2 * one)
    assert valuation(f, Place(t)) == 3
    assert valuation(RationalFunction(t * t, t - one), INFINITY) == -1
    assert valuation(RationalFunction.one(Q), Place(t)) == 0
    assert valuation(RationalFunction.zero(Q), Place(t)) == inf


def test_divisor_examples(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    d = divisor(RationalFunction(t * t, t - one))
    assert d == {Place(t): 2, Place(t - one): -1, INFINITY: -1}
    assert divisor(RationalFunction.constant(Q, 7)) == {}
    d2 = divisor(RationalFunction(t * t + one))
    assert d2 == {Place(t * t + one): 1, INFINITY: -2}
    with pytest.raises(ZeroInput):
        divisor(RationalFunction.zero(Q))


def test_degree_zero_principal_divisors(Q, Qi, F5):
    rng = random.Random(17)
    for fld in (Q, Qi, F5):
        for _ in range(12):
            f = rand_ratfunc(rng, fld, 4)
            total = sum(p.degree * v for p, v in divisor(f).items())
            assert total == 0


# -- heights -------------------------------------------------------------------


def test_height_examples(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    f = RationalFunction(t * t, t - one)
    assert height(f) == 2
    assert height(f**-1) == 2
    assert height(RationalFunction.constant(Q, 9)) == 0
    with pytest.raises(ZeroInput):
        height(RationalFunction.zero(Q))


def test_height_equals_place_sum(Q, F3):
    # independent oracle: h(f) = sum of degree-weighted pole orders
    rng = random.Random(19)
    for fld in (Q, F3):
        for _ in range(15):
            f = rand_ratfunc(rng, fld, 4)
            oracle = sum(p.degree * max(0, -v) for p, v in divisor(f).items())
            assert height(f) == oracle
            assert height(f) == max(f.num.degree, f.den.degree)


def test_projective_height_examples(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    assert projective_height([one, t]) == 1
    assert projective_height([t, t]) == 0
    assert projective_height([t, t * t + 1, t]) == 2


def test_projective_height_scaling_invariance(Q):
    rng = random.Random(23)
    for _ in range(15):
        xs = [rand_ratfunc(rng, Q, 3) for _ in range(3)]
        scale = rand_ratfunc(rng, Q, 3)
        assert projective_height(xs) == projective_height([x * scale for x in xs])


def test_projective_height_place_sum_oracle(Q):
    # independent oracle via the valuation definition
    rng = random.Random(29)
    for _ in range(10):
        xs = [rand_ratfunc(rng, Q, 3) for _ in range(3)]
        support = set()
        for x in xs:
            support.update(divisor(x))
        support.add(INFINITY)
        oracle = -sum(p.degree * min(valuation(x, p) for x in xs) for p in support)
        assert projective_height(xs) == oracle


# -- K[X] layer ------------------------------------------------------------------


def test_poly_valuation_examples(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    pt = Place(t_of(Q))
    A = KPolynomial(Q, [one, t])  # tX + 1
    assert poly_valuation(A, pt) == 0
    A2 = KPolynomial(Q, [t**3, t])  # tX + t^3... coefficients (t^3, t)
    assert poly_valuation(A2, pt) == 1
    A3 = KPolynomial(Q, [one, one / t])  # X/t + 1
    assert poly_valuation(A3, pt) == -1


def test_poly_height_examples(Q):
    t = RationalFunction.t(Q)
    one = RationalFunction.one(Q)
    A = KPolynomial(Q, [one, t])
    B = KPolynomial(Q, [t, one])
    assert poly_height(A) == 1
    assert poly_height(A * B) == 2  # h(AB) = h(A) + h(B)
    assert poly_height(KPolynomial(Q, [RationalFunction.constant(Q, 3)])) == 0


def test_gauss_identities_randomized(Q, Qi, F3):
    rng = random.Random(31)
    for fld in (Q, Qi, F3):
        for _ in range(12):
            A = KPolynomial(fld, [rand_ratfunc(rng, fld, 2) for _ in range(rng.randint(2, 4))])
            B = KPolynomial(fld, [rand_ratfunc(rng, fld, 2) for _ in range(rng.randint(2, 4))])
            if A.is_zero or B.is_zero:
                continue
            C = A * B
            assert poly_height(C) == poly_height(A) + poly_height(B)
            support = set()
            for P in (A, B):
                for cf in P.coeffs:
                    if not cf.is_zero:
                        support.update(divisor(cf))
            support.add(INFINITY)
            for place in support:
                assert poly_valuation(C, place) == poly_valuation(A, place) + poly_valuation(B, place)


def test_height_of_linear_factor_products(Q):
    rng = random.Random(37)
    for _ in range(12):
        roots = [rand_ratfunc(rng, Q, 3) for _ in range(rng.randint(1, 4))]
        A = KPolynomial.from_roots(Q, roots)
        assert poly_height(A) == sum(height(b) for b in roots)


KX_FIELDS = {"Q": FieldSpec(0, 1), "Q(i)": FieldSpec(0, 4), "F_3": FieldSpec(3, 1, 1), "F_9": FieldSpec(3, 1, 2)}


def _lacunary_kpoly(rng, fld, deg):
    """A K[X] polynomial of degree <= deg whose coefficients are often zero and have various denominators."""
    zero = RationalFunction.zero(fld)
    return KPolynomial(fld, [rand_ratfunc(rng, fld, 2) if rng.random() < 0.5 else zero for _ in range(deg + 1)])


@pytest.mark.parametrize("name", sorted(KX_FIELDS))
def test_kpoly_products_and_evaluation_match_the_coefficientwise_oracles(name):
    """from_roots, * and evaluate over one denominator against the per-term loops in K."""
    fld = field_for(KX_FIELDS[name])
    rng = random.Random(f"kx-{name}")
    t, zero = RationalFunction.t(fld), RationalFunction.zero(fld)
    c = RationalFunction.constant(fld, rand_const(rng, fld, nonzero=True))
    g = (t**2 + 1) / (t - 1)
    points = [zero, c, (t + 2) / (t**2 + t + 2), g**-2, g**3]
    for _ in range(6):
        roots = [rand_ratfunc(rng, fld, 2) for _ in range(rng.randint(0, 3))]
        roots += roots[:1] * rng.randint(0, 2) + [zero] * rng.randint(0, 1)  # repeated roots, the root 0
        P = KPolynomial.from_roots(fld, roots)
        assert P == kpoly_from_roots(fld, roots), roots
        A, B = _lacunary_kpoly(rng, fld, rng.randint(0, 5)), _lacunary_kpoly(rng, fld, rng.randint(0, 3))
        for a, b in ((A, B), (P, A), (B, P)):
            assert a * b == coeffwise_kmul(a, b), (a, b)
        for a in (A, B, P):
            for x in points:
                assert a.evaluate(x) == horner_k(a, x), (a, x)
    sparse = KPolynomial(fld, [c, *[zero] * 6, g, zero, t])  # gaps of 6 and 1
    for x in points:
        assert sparse.evaluate(x) == horner_k(sparse, x), x


def test_kpoly_reduces_each_coefficient_once(monkeypatch, Q, F3):
    """from_roots of k roots takes at most k + 1 normalising gcds, evaluate one (no term takes its own)."""
    calls = []
    real = funfield._gcd_cofactors

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    for fld in (Q, F3):
        t = RationalFunction.t(fld)
        roots = [(t + 1) / t, t**2 / (t - 1), (t + 1) / t, RationalFunction.zero(fld), 1 / (t**2 + 1)]
        x = (t**2 + 2) / (t + 1)
        monkeypatch.setattr(funfield, "_gcd_cofactors", counted)
        for k in range(1, len(roots) + 1):
            calls.clear()
            P = KPolynomial.from_roots(fld, roots[:k])
            assert len(calls) <= k + 1, (k, len(calls))
            calls.clear()
            value = P.evaluate(x)
            assert len(calls) <= 1, (k, len(calls))
            calls.clear()
            assert horner_k(P, x) == value
            if k > 2:
                # the per-term Horner reduces each of its k - 1 products of two nonconstant factors
                assert len(calls) >= k - 1
        monkeypatch.setattr(funfield, "_gcd_cofactors", real)


# -- sums in K: Henrici's rule ------------------------------------------------------


def _full_gcd_sum(x, y, sign):
    """x + sign * y over the product of the denominators, reduced by one gcd of the full products."""
    return RationalFunction(x.num * y.den + (y.num * x.den) * sign, x.den * y.den)


HENRICI_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)]


@pytest.mark.parametrize("spec", HENRICI_SPECS, ids=["Q", "Qi", "Qzeta3", "F3", "F9"])
def test_henrici_sums_match_the_full_gcd_sum(spec):
    fld = field_for(spec)
    rng = random.Random(f"henrici-{spec}")
    t, one = t_of(fld), Polynomial.one(fld)
    shared = [t, t - one, t * t + one]

    def element():
        # denominators drawn from a few shared factors, so pairs often share some
        den = rand_poly(rng, fld, 1)
        for p in shared:
            den = den * p ** rng.randint(0, 2)
        return RationalFunction(rand_poly(rng, fld, 4), den)

    seen = Counter()
    xs = [element() for _ in range(24)]
    xs += [RationalFunction(rand_poly(rng, fld, 3)) for _ in range(4)]  # denominator 1
    xs += [RationalFunction(one, t * (t - one)), RationalFunction(one, t * (t + one))]  # their sum cancels t
    pairs = [(x, y) for x in xs for y in rng.sample(xs, 5)]
    pairs += [(x, rng.choice(xs) - x) for x in xs]  # x + y cancels to a shorter denominator
    pairs += [(x, x) for x in xs[:6]] + [(x, -x) for x in xs[:6]]  # x - x and x + (-x) are 0
    pairs.append((xs[-2], xs[-1]))
    for x, y in pairs:
        for got, sign in ((x + y, 1), (x - y, -1), (y.__rsub__(x), -1)):
            want = _full_gcd_sum(x, y, sign)
            assert (got.num, got.den) == (want.num, want.den), (x, y, sign)
            assert got.den.is_monic
        g = poly_gcd(x.den, y.den)
        seen["den 1"] += x.den.degree == 0 or y.den.degree == 0
        seen["shared"] += g.degree > 0
        seen["zero"] += (x + y).is_zero
        # the sum's denominator is below lcm(b, d) = b d / g: gcd(t, g) cancelled
        seen["cancels in g"] += (x + y).den.degree < x.den.degree + y.den.degree - g.degree
    assert all(seen[k] for k in ("den 1", "shared", "zero", "cancels in g")), seen


def test_sums_over_a_denominator_of_one_take_no_gcd(monkeypatch, Q, F3):
    calls = []
    real = funfield._gcd_cofactors

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    for fld in (Q, F3):
        t = RationalFunction.t(fld)
        f = (t**3 + 2) / (t**2 - 1)
        p = t_of(fld) ** 2 + Polynomial.one(fld)
        P, c = RationalFunction(p), ConstantValue(fld, fld.from_int(2))
        want = [_full_gcd_sum(f, RationalFunction.constant(fld, c), -1), _full_gcd_sum(f, P, 1),
                _full_gcd_sum(P, f, 1), _full_gcd_sum(RationalFunction.one(fld), f, -1), _full_gcd_sum(f, P, -1)]
        monkeypatch.setattr(funfield, "_gcd_cofactors", counted)
        got = [f - c, f + p, P + f, 1 - f, f - P]
        monkeypatch.setattr(funfield, "_gcd_cofactors", real)
        assert calls == []
        assert got == want


# -- division: F[t] and the K[X] oracle --------------------------------------------


def _rand_kpoly(rng, fld, deg):
    """A K[X] polynomial of exact degree deg (rand_ratfunc never returns 0)."""
    return KPolynomial(fld, [rand_ratfunc(rng, fld, 2) for _ in range(deg + 1)])


def _power(p, k, one):
    out = one
    for _ in range(k):
        out = out * p
    return out


def _kpoly_sum(a, b):
    """a + b in K[X], coefficient by coefficient (K[X] itself has no sums)."""
    zero = RationalFunction.zero(a.field)
    return KPolynomial(a.field, [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=zero)])


def test_kpoly_division_with_remainder(Q, Qi, F3):
    # the long-division oracle the divisor-pair root search reads multiplicities from
    rng = random.Random(41)
    for fld in (Q, Qi, F3):
        inexact = 0
        for _ in range(6):
            a = _rand_kpoly(rng, fld, rng.randint(2, 4))
            b = _rand_kpoly(rng, fld, rng.randint(1, 2))
            q, r = kpoly_divmod(a, b)
            assert _kpoly_sum(q * b, r) == a
            assert r.is_zero or r.degree < b.degree
            inexact += not r.is_zero
            assert kpoly_divmod(a * b, b) == (a, KPolynomial(fld, ()))
        assert inexact > 0, fld.spec


def test_divide_out_matches_repeated_exact_div(Q, Qi, F3):
    rng = random.Random(43)
    for fld in (Q, Qi, F3):
        cases = []
        for _ in range(10):
            k = rng.randint(0, 3)
            p = rand_poly(rng, fld, 2)
            if p.degree > 0:
                cases.append((rand_poly(rng, fld, 3) * p**k, p, k))
        assert len(cases) >= 5, fld
        for a, p, k in cases:
            oracle_q, oracle_m = _divide_out_oracle(a, p)
            assert a.divide_out(p) == (oracle_q, oracle_m) and oracle_m >= k
        with pytest.raises(ZeroInput):
            Polynomial.zero(fld).divide_out(t_of(fld))


def test_trial_divide_out_in_K_X_matches_repeated_exact_div(Q, Qi, F3):
    # the K[X] trial division that the divisor-pair root oracle reads multiplicities from
    rng = random.Random(43)
    for fld in (Q, Qi, F3):
        one_k = KPolynomial(fld, (RationalFunction.one(fld),))
        for _ in range(5):
            k = rng.randint(0, 3)
            p = _rand_kpoly(rng, fld, 1)
            a = _rand_kpoly(rng, fld, rng.randint(0, 2)) * _power(p, k, one_k)
            q, m = trial_divide_out(a, p)
            # a = p^m q, and one more exact division by p fails
            assert _power(p, m, one_k) * q == a and m >= k
            assert not kpoly_divmod(q, p)[1].is_zero


def _divide_out_oracle(a, p):
    """(q, m) with a = p^m q, p not dividing q, by repeated exact division."""
    q, m = a, 0
    while True:
        try:
            q = q.exact_div(p)
        except ArithmeticError:
            return q, m
        m += 1


def test_divide_out_by_a_constant_is_rejected(Q, F3):
    # a unit divides everything, so the trial divisions never stopped
    for fld in (Q, F3):
        for divisor in (Polynomial(fld, (2,)), Polynomial.one(fld), Polynomial.zero(fld)):
            with pytest.raises(InvalidInstance):
                t_of(fld).divide_out(divisor)


def _frac_poly(rng, fld, deg):
    """A polynomial of exact degree deg; in characteristic 0 its coefficients have denominators."""
    def const():
        if fld.char:
            return rand_const(rng, fld)
        return ConstantValue.from_rationals(fld, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(fld.degree)])

    cs = [const() for _ in range(deg + 1)]
    while cs[-1].is_zero:
        cs[-1] = const()
    return Polynomial(fld, cs)


_KERNEL_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)]


@pytest.mark.parametrize("spec", _KERNEL_SPECS, ids=["Q", "Qi", "Qzeta3", "F3", "F9"])
def test_remainder_and_divide_out_kernels_match_the_oracles(spec):
    # F_9 runs the characteristic-p branch of the kernel for rows of length 2
    fld = field_for(spec)
    rng = random.Random(53 + spec.cyclotomic_order + 7 * spec.characteristic + spec.extension_degree)
    t, one = t_of(fld), Polynomial.one(fld)
    # a degree-2 place: t^2 - 2 over Q, Q(i) and Q(zeta_3), t^2 - c for a generator c of F*
    c = Polynomial(fld, (2,)) if fld.char == 0 else Polynomial(fld, (ConstantValue(fld, fld.torsion_generator_raw()),))
    places = [t, t - one, t * t - c]
    assert all(len(squarefree_decomposition(p)) == 1 for p in places)
    cases = [(t, k) for k in range(41)] + [(p, k) for p in places[1:] for k in (0, 1, 2, rng.randint(3, 12))]
    # a degree-5 divisor: each remainder entry takes several updates before it is read
    cases += [(places[2] ** 2 * (t - one), k) for k in (1, 2, 3)]
    dens_seen = m0_seen = 0
    for p, k in cases:
        g = _frac_poly(rng, fld, rng.randint(0, 4))
        a = p**k * g
        dens_seen += a.den != 1
        q, m = _divide_out_oracle(a, p)
        m0_seen += m == 0
        assert a.divide_out(p) == (q, m) and m >= k
        for b in (p, _frac_poly(rng, fld, rng.randint(1, 3)), a * t + one):
            assert a % b == a.divmod(b)[1]
        if p in places:
            h = p ** rng.randint(0, 3) * _frac_poly(rng, fld, rng.randint(0, 3))
            f = RationalFunction(a, h)
            want = _divide_out_oracle(f.num, p)[1] - _divide_out_oracle(f.den, p)[1]
            assert valuation(f, Place(p)) == want
    assert m0_seen > 0
    assert dens_seen > 0 or fld.char


def test_t_place_and_remainders_skip_the_division_kernels(monkeypatch, Q, F3):
    cases = []
    for fld in (Q, F3):
        t, one = t_of(fld), Polynomial.one(fld)
        g = t**3 + t + Polynomial(fld, (2,))
        cases.append((t, g, t**400 * g, RationalFunction(t**400 * g), (t - one) ** 3 * g, (t - one) * t**2))
    calls = Counter()
    for name in ("poly_divmod", "poly_rem", "poly_divide_out"):
        def counted(self, *args, _kernel=getattr(Field, name), _name=name):
            calls[_name] += 1
            return _kernel(self, *args)

        monkeypatch.setattr(Field, name, counted)
    for t, g, f, f_k, a, b in cases:
        calls.clear()
        S = PlaceSet([Place(t), INFINITY])
        assert strip_places(f, S) == g and S.orders(f) == ((400,), g)
        assert valuation(f_k, Place(t)) == 400
        assert not calls
        # Euclid in characteristic p reads remainders only
        if t.field.char:
            assert poly_gcd(a, b) == t - Polynomial.one(t.field)
            assert calls["poly_rem"] > 0 and calls["poly_divmod"] == 0
            # a constant argument answers 1 before Euclid, as in characteristic 0
            calls.clear()
            assert RationalFunction(f) == f_k
            assert poly_gcd(f, Polynomial(t.field, (2,))) == Polynomial.one(t.field)
            assert not calls


def test_kpoly_divmod_over_constants_matches_polynomial_divmod(Q, Qi, F3):
    # a polynomial in F[t] read as one in K[X] with constant coefficients, X for t
    rng = random.Random(47)
    for fld in (Q, Qi, F3):
        def embed(a):
            return KPolynomial(fld, [RationalFunction.constant(fld, c) for c in a.coeffs])

        for _ in range(10):
            a, b = rand_poly(rng, fld, 5), rand_poly(rng, fld, 3)
            q, r = a.divmod(b)
            assert kpoly_divmod(embed(a), embed(b)) == (embed(q), embed(r))


# -- counting functions -----------------------------------------------------------


def test_truncated_counting_examples(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    S_inf = PlaceSet([INFINITY])
    assert truncated_counting(RationalFunction(t * t - one), S_inf) == 2
    assert truncated_counting(RationalFunction((t - one) ** 3), S_inf) == 1
    S2 = PlaceSet([Place(t), INFINITY])
    assert truncated_counting(RationalFunction.t(Q), S2) == 0


@pytest.mark.parametrize("spec", HENRICI_SPECS, ids=["Q", "Qi", "Qzeta3", "F3", "F9"])
def test_truncated_counting_matches_the_radical_first_count(spec):
    """Stripping S before the radical counts the same distinct zeros off S as the radical stripped after."""
    fld = field_for(spec)
    rng = random.Random(f"truncated-{spec}")
    t, one = t_of(fld), Polynomial.one(fld)
    # t^2 - c is irreducible: c = 2 in characteristic 0, a generator of F* in characteristic p
    c = Polynomial(fld, (2,)) if fld.char == 0 else Polynomial(fld, (ConstantValue(fld, fld.torsion_generator_raw()),))
    places = [Place(t), Place(t - one), Place(t + one), Place(t * t - c)]
    stripped = 0
    for _ in range(30):
        S = PlaceSet(rng.sample(places, rng.randint(0, 3)) + [INFINITY] * (rng.random() < 0.5))
        num = rand_poly(rng, fld, 3) ** rng.randint(1, 2)
        for pl in places:
            num = num * pl.poly ** rng.choice((0, 0, 1, 3))
        b = RationalFunction(num, rand_poly(rng, fld, 4))
        old = strip_places(radical(b.num), S).degree if b.num.degree > 0 else 0
        old += not S.has_infinity and b.den.degree > b.num.degree
        assert truncated_counting(b, S) == old, (b, S)
        stripped += strip_places(b.num, S) != b.num
    assert stripped > 5


def test_place_set_order_is_the_sort_key_order(Q, F3):
    # at most one finite place is listed first and infinity last without building keys
    for fld in (Q, F3):
        t, one = t_of(fld), Polynomial.one(fld)
        pool = [Place(t), Place(t - one), Place(t + one), Place(t * t + one), INFINITY]
        for size in range(len(pool) + 1):
            for places in combinations(pool, size):
                S = PlaceSet(reversed(places))
                assert list(S) == sorted(places, key=Place.sort_key)


def test_truncated_counting_bounded_by_height(Q):
    rng = random.Random(41)
    S = PlaceSet([INFINITY])
    for _ in range(20):
        b = rand_ratfunc(rng, Q, 4)
        assert truncated_counting(b, S) <= height(b)


def test_gcd_counting_examples(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    S_inf = PlaceSet([INFINITY])
    f = RationalFunction(t * t - one)
    g = RationalFunction(t**3 - one)
    assert gcd_counting(f, g, S_inf) == 1
    a = RationalFunction((t - one) ** 2)
    b = RationalFunction((t - one) ** 3)
    assert gcd_counting(a, b, S_inf) == 2
    assert gcd_counting(RationalFunction(t), RationalFunction(t + one), S_inf) == 0
    with pytest.raises(NotSInteger):
        gcd_counting(RationalFunction(one, t), f, S_inf)


def test_gcd_counting_bounded_by_zero_counts(Q):
    # N_S(gcd(f,g)) never exceeds either individual zero count outside S
    rng = random.Random(59)
    S = PlaceSet([INFINITY])
    for _ in range(20):
        f = RationalFunction(rand_poly(rng, Q, 4))
        g = RationalFunction(rand_poly(rng, Q, 4))
        if f.is_zero or g.is_zero:
            continue
        n = gcd_counting(f, g, S)
        zf = strip_places(f.num, S).degree
        zg = strip_places(g.num, S).degree
        assert n <= min(zf, zg)


def test_gcd_counting_at_infinity(Q):
    t = t_of(Q)
    S = PlaceSet([Place(t)])  # infinity outside S
    f = RationalFunction(Polynomial.one(Q), t)  # zero of order 1 at infinity
    g = RationalFunction(Polynomial.one(Q), t * t)
    assert gcd_counting(f, g, S) == 1


def test_deg_ins(Q, F3):
    t3 = RationalFunction.t(F3)
    assert deg_ins(t3**3) == 3
    assert deg_ins(t3**3 + t3) == 1
    assert deg_ins(t3**9) == 9
    assert deg_ins(RationalFunction.t(Q) ** 2) == 1
    with pytest.raises(ConstantInput):
        deg_ins(RationalFunction.constant(Q, 2))


def test_deg_ins_divides_divisor_exponents(F3):
    rng = random.Random(43)
    t = RationalFunction.t(F3)
    for _ in range(10):
        base = rand_ratfunc(rng, F3, 2, nonconstant=True)
        f = base**3
        di = deg_ins(f)
        assert di % 3 == 0
        for v in divisor(f).values():
            assert v % di == 0


def test_chi_S(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    assert chi_S(PlaceSet([INFINITY])) == -1
    assert chi_S(PlaceSet([Place(t), INFINITY])) == 0
    assert chi_S(PlaceSet([Place(t), Place(t - one), INFINITY])) == 1
    # degree weighting: a quadratic place counts twice
    assert chi_S(PlaceSet([Place(t * t + one)])) == 0


OPS_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)]


@pytest.mark.parametrize("spec", OPS_SPECS, ids=["Q", "Qi", "F3", "F9"])
def test_polynomial_ops_with_a_rational_function_defer_to_it(spec):
    """p + x, p - x and p * x for p in F[t] and x in K give RationalFunction(p) op x; p + 1 is no sum."""
    fld = field_for(spec)
    t, one = t_of(fld), Polynomial.one(fld)
    x = RationalFunction(t, t + one)
    for p in (t, t * t + one, Polynomial(fld, (2,)), Polynomial.zero(fld)):
        P = RationalFunction(p)
        for got, want in ((p + x, P + x), (p - x, P - x), (p * x, P * x)):
            assert type(got) is RationalFunction and (got.num, got.den) == (want.num, want.den), (p, x)
    assert t + x == RationalFunction(t * t + t * 2, t + one)
    for op in (lambda: t + 1, lambda: t - 1, lambda: 1 - t):
        with pytest.raises(TypeError):
            op()
    # constants keep multiplying
    c = ConstantValue(fld, fld.from_int(2))
    assert t * 2 == 2 * t == t * c == c * t == t + t


def _s_record_sets():
    """(S, polynomials to read) over Q with {t, t-1, inf}, over Q(i) with the degree-2 place
    t^2 + 2, and over F_9 with three finite places and no infinity."""
    Q = field_for(FieldSpec(0, 1))
    t, one = t_of(Q), Polynomial.one(Q)
    yield PlaceSet([Place(t), Place(t - one), INFINITY]), [
        t**3 * (t - one) ** 2 * (t + one), (t - one) * Polynomial(Q, (Fraction(1, 2), 3)), t + one * 5, t**2,
    ]
    Qi = field_for(FieldSpec(0, 4))
    t, one, i = t_of(Qi), Polynomial.one(Qi), Polynomial(Qi, (zeta(Qi, 4),))
    quad = t * t + one * 2  # irreducible over Q(i)
    yield PlaceSet([Place(t - i), Place(quad), INFINITY]), [
        (t - i) ** 2 * quad**3 * (t + i), quad * (t - one), (t - i) * (t + one), t + one * 5, quad**2,
    ]
    F9 = field_for(FieldSpec(3, 1, 2))
    t, one = t_of(F9), Polynomial.one(F9)
    g = Polynomial(F9, (ConstantValue(F9, F9.torsion_generator_raw()),))
    yield PlaceSet([Place(t), Place(t - g), Place(t - g * g)]), [
        t * (t - g) ** 4 * (t - g * g) * (t + one), (t - g * g) ** 3 * t**2, (t + g) ** 2, t**5,
    ]


def test_place_set_orders_and_valuations_match_the_per_place_oracles(monkeypatch):
    """orders/valuations against strip_places and valuation: constants are not recorded, each
    division that takes out a factor records its quotient, a second read divides nothing, a
    place longer than what is left is not tried, and a union starts with an empty record."""
    sets = list(_s_record_sets())
    real = Polynomial.divide_out
    calls = []
    monkeypatch.setattr(Polynomial, "divide_out", lambda self, p: calls.append((self, p)) or real(self, p))
    for S, polys in sets:
        finite = [v for v in S if not v.is_infinite]
        fld, read = finite[0].poly.field, set()
        calls.clear()
        for c in (Polynomial(fld, (3,)), Polynomial.one(fld)):
            assert S.orders(c) == ((0,) * len(finite), c)
            assert S.valuations(RationalFunction(c)) == [0] * len(S)
        assert S._record == {} and calls == []
        xs = [RationalFunction(a, b.monic()) for a in polys for b in polys[:2]]
        for x in xs:
            for poly in (x.num, x.den):
                read.add((poly.rows, poly.den))
                calls.clear()
                orders, rest = S.orders(poly)
                # a place of degree above what is left is not tried
                assert all(len(p.rows) <= len(a.rows) for a, p in calls), (S, poly)
                want = tuple(valuation(RationalFunction(poly), v) for v in finite)
                assert (orders, rest) == (want, strip_places(poly, S)), (S, poly)
            assert S.valuations(x) == [valuation(x, v) for v in S], (S, x)
        # the record holds each polynomial read and the quotient of each division that
        # took out a factor, from the next place on
        reached = set()
        for x in xs:
            for rest in (x.num, x.den):
                reached.add((rest.rows, rest.den))
                for v in finite:
                    q, m = real(rest, v.poly)
                    if m:
                        rest = q
                        reached.add((rest.rows, rest.den))
        assert set(S._record) == {(rows, den) for rows, den in reached if len(rows) > 1}, S
        assert set(S._record) - read, S  # some quotient was recorded
        # a second read divides nothing
        calls.clear()
        for x in xs:
            S.orders(x.num)
            S.valuations(x)
        assert calls == [], S
        # a union is a new set with an empty record, which its own reads fill
        record, extra = dict(S._record), Place(finite[0].poly + Polynomial.one(fld))
        U = S.union([extra])
        assert U._record == {} and U == PlaceSet(S.places | {extra})
        for x in xs:
            assert U.valuations(x) == [valuation(x, v) for v in U], (U, x)
        assert calls and set(U._record) >= {(x.num.rows, x.num.den) for x in xs if x.num.degree > 0}
        assert S._record == record


def test_s_integers_and_units(Q):
    t = t_of(Q)
    one = Polynomial.one(Q)
    S = PlaceSet([Place(t), INFINITY])
    inv_t = RationalFunction(one, t)
    assert is_s_integer(inv_t, S) and is_s_unit(inv_t, S)
    tm1 = RationalFunction(t - one)
    assert is_s_integer(tm1, S) and not is_s_unit(tm1, S)
    assert not is_s_integer(RationalFunction(one, t - one), S)
    # infinity matters
    S_no_inf = PlaceSet([Place(t)])
    assert not is_s_integer(RationalFunction(t), S_no_inf)
    assert is_s_integer(RationalFunction(one, t), S_no_inf)
