import random
from fractions import Fraction
from math import gcd

import pytest

from skolemff.constants import ConstantValue, Field, FieldSpec, RootOfUnity, _defining_poly, field_for, roots_of_unity, zeta
from skolemff.errors import FieldTooSmall, InvalidInstance
from oracles import fraction_vector, vector_inv, vector_mul, vector_repr


def rand_elem(rng, fld):
    if fld.char == 0:
        return ConstantValue.from_rationals(
            fld, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(fld.degree)]
        )
    return ConstantValue(fld, tuple(rng.randrange(fld.p) for _ in range(fld.d)))


@pytest.mark.parametrize("spec", [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 12), FieldSpec(3, 1, 3), FieldSpec(7, 1, 2)])
def test_field_axioms_randomized(spec):
    fld = field_for(spec)
    rng = random.Random(20240 + spec.characteristic * 100 + spec.cyclotomic_order + spec.extension_degree)
    for _ in range(60):
        a, b, c = (rand_elem(rng, fld) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a + (-a) == 0 * a
        if not b.is_zero:
            assert (a / b) * b == a
            assert (b * b.inverse()).is_one


def test_fieldspec_validation():
    with pytest.raises(InvalidInstance):
        FieldSpec(4, 1, 1)  # not prime
    with pytest.raises(InvalidInstance):
        FieldSpec(0, 0, 1)
    with pytest.raises(InvalidInstance):
        FieldSpec(3, 1, 0)


def test_roots_of_unity_over_Q():
    got = roots_of_unity(2, FieldSpec(0, 1))
    assert [(r.order, str(r.value)) for r in got] == [(1, "1"), (2, "-1")]


def test_roots_of_unity_over_Q_zeta4():
    got = roots_of_unity(4, FieldSpec(0, 4))
    assert sorted(r.order for r in got) == [1, 2, 4, 4]
    for r in got:
        assert (r.value**r.order).is_one
        for e in range(1, r.order):
            assert not (r.value**e).is_one


def test_roots_of_unity_over_F7():
    got = roots_of_unity(3, FieldSpec(7, 1, 1))
    vals = sorted(r.value.raw[0] for r in got)
    # brute-force powers in F_7: cubes of everything -> {1, 2, 4}
    brute = sorted({x for x in range(1, 7) if pow(x, 3, 7) == 1})
    assert vals == brute == [1, 2, 4]
    assert sorted(r.order for r in got) == [1, 3, 3]


def test_field_too_small():
    with pytest.raises(FieldTooSmall):
        roots_of_unity(3, FieldSpec(0, 1))
    with pytest.raises(FieldTooSmall):
        roots_of_unity(5, FieldSpec(7, 1, 1))  # 5 does not divide 6
    with pytest.raises(FieldTooSmall):
        roots_of_unity(7, FieldSpec(7, 1, 1))  # p | a never has roots


def test_order_is_minimal():
    fld = field_for(FieldSpec(0, 12))
    z = zeta(fld, 12)
    for e in (1, 2, 3, 4, 6):
        assert not (z**e).is_one
    assert (z**12).is_one
    assert z.order() == 12
    assert (z**2).order() == 6
    assert (z**8).order() == 3


def test_root_of_unity_validation():
    fld = field_for(FieldSpec(0, 1))
    one = ConstantValue(fld, fld.one_raw)
    with pytest.raises(InvalidInstance):
        RootOfUnity(2, one)  # declared order not minimal
    with pytest.raises(InvalidInstance):
        RootOfUnity(3, ConstantValue(fld, fld.from_int(-1)))  # (-1)^3 != 1
    RootOfUnity(1, one)


def test_torsion_detection():
    fld = field_for(FieldSpec(0, 4))
    z = zeta(fld, 4)
    assert z.is_torsion() and (-z).is_torsion()
    assert not ConstantValue(fld, fld.from_int(2)).is_torsion()
    two_thirds = ConstantValue.from_rationals(fld, [Fraction(2, 3)])
    assert not two_thirds.is_torsion()
    f5 = field_for(FieldSpec(5, 1, 2))
    g = ConstantValue(f5, f5.torsion_generator_raw())
    assert g.is_torsion() and g.order() == 24


def test_serialization_round_trip():
    rng = random.Random(5)
    for spec in (FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(5, 1, 2)):
        fld = field_for(spec)
        for _ in range(20):
            c = rand_elem(rng, fld)
            back = ConstantValue.from_strings(fld, c.to_strings())
            assert back == c


def test_serialization_format():
    fld = field_for(FieldSpec(0, 4))
    c = ConstantValue.from_rationals(fld, [Fraction(-3, 4), 2])
    assert c.to_strings() == ["-3/4", "2"]
    assert ConstantValue.from_strings(fld, ["-3/4", "2"]) == c
    f3 = field_for(FieldSpec(3, 1, 1))
    with pytest.raises(InvalidInstance):
        ConstantValue.from_strings(f3, ["4"])  # outside [0, p)


def test_constructor_takes_int_vectors():
    # an element is an int vector over a positive int, made canonical; rationals go through from_rationals
    fld = field_for(FieldSpec(0, 4))
    assert ConstantValue(fld, (3, 4), 5) == ConstantValue.from_rationals(fld, [Fraction(3, 5), Fraction(4, 5)])
    c = ConstantValue(fld, (2, 4), 6)
    assert (c.raw, c.den) == ((1, 2), 3)
    for raw, den in (((Fraction(1, 2), 0), 1), ((1, 0), 0), ((1, 0), -2)):
        with pytest.raises(InvalidInstance):
            ConstantValue(fld, raw, den)


def _monic_polys(p, d):
    """Monic degree-d polynomials over F_p, little-endian, lower coefficients read as base-p digits."""
    for idx in range(p**d):
        low = []
        for _ in range(d):
            low.append(idx % p)
            idx //= p
        yield low + [1]


def _divides(g, f, p):
    r = list(f)
    for i in range(len(r) - 1, len(g) - 2, -1):
        c = r[i]
        for j, gj in enumerate(g):
            r[i - len(g) + 1 + j] = (r[i - len(g) + 1 + j] - c * gj) % p
    return not any(r)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_defining_poly_is_first_irreducible(p):
    # the defining polynomial fixes the F_{p^d} element encoding of every report
    for d in range(1, 5):
        expect = next(
            f for f in _monic_polys(p, d)
            if not any(_divides(g, f, p) for k in range(1, d // 2 + 1) for g in _monic_polys(p, k))
        )
        assert list(_defining_poly(p, d)) == expect, (p, d)


ORACLE_SPECS = [FieldSpec(0, M) for M in (1, 4, 3, 5, 8, 12)] + [
    FieldSpec(3, 1, 1), FieldSpec(3, 1, 2), FieldSpec(5, 1, 2), FieldSpec(3, 1, 3), FieldSpec(7, 1, 2),
]


def _oracle_elems(rng, fld):
    """0, 1, roots of unity and random elements: entries above 2^64 and denominators sharing factors with them."""
    n = fld.degree
    out = [ConstantValue(fld, fld.zero_raw), ConstantValue(fld, fld.one_raw), ConstantValue(fld, fld.from_int(-1))]
    g = ConstantValue(fld, fld.torsion_generator_raw())
    out += [g, g**3, -(g**2)]
    if fld.char:
        out += [ConstantValue(fld, tuple(rng.randrange(fld.p) for _ in range(n))) for _ in range(4)]
        return out
    out += [
        ConstantValue.from_rationals(fld, [Fraction(6 * rng.randint(-3, 3), 4 * rng.randint(1, 3)) for _ in range(n)]),
        ConstantValue.from_rationals(
            fld, [Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**66)) for _ in range(n)]
        ),
        ConstantValue.from_rationals(fld, [rng.randint(2**64, 2**66) for _ in range(n)]),
        ConstantValue.from_rationals(fld, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]),
    ]
    if fld.M == 4:
        out.append(ConstantValue.from_rationals(fld, [Fraction(3, 5), Fraction(4, 5)]))  # |.| = 1, not torsion
    return out


def _vector_pow(fld, v, e):
    out = fld.one_raw
    if e < 0:
        v, e = vector_inv(fld, v), -e
    for _ in range(e):
        out = vector_mul(fld, out, v)
    return out


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_element_arithmetic_matches_fraction_vector_oracle(spec):
    """Int vectors over one denominator against the Fraction-vector product and extended-Euclid inverse."""
    fld = field_for(spec)
    rng = random.Random(4400 + 100 * spec.characteristic + spec.cyclotomic_order + spec.extension_degree)
    elems = _oracle_elems(rng, fld)
    one = fraction_vector(ConstantValue(fld, fld.one_raw))
    E = fld.torsion_exponent

    def check(c, want):
        assert fraction_vector(c) == tuple(want), (c, want)
        assert c.den > 0 and gcd(c.den, *c.raw) == 1  # canonical: the content pass ran
        if fld.char:
            assert c.den == 1 and all(0 <= x < fld.p for x in c.raw)
        assert repr(c) == vector_repr(fld, want)
        strings = [str(x) for x in want]
        while strings and strings[-1] == "0":
            strings.pop()
        assert c.to_strings() == strings

    def entrywise(op, u, v):
        out = [op(x, y) for x, y in zip(u, v)]
        return [x % fld.p for x in out] if fld.char else out

    for a in elems:
        va = fraction_vector(a)
        check(a, va)
        check(-a, entrywise(lambda x, _: -x, va, va))
        for e in (0, 1, 2, 5):
            check(a**e, _vector_pow(fld, va, e))
        for b in elems:
            vb = fraction_vector(b)
            check(a + b, entrywise(lambda x, y: x + y, va, vb))
            check(a - b, entrywise(lambda x, y: x - y, va, vb))
            check(a * b, vector_mul(fld, va, vb))
            if b.is_zero:
                with pytest.raises(ZeroDivisionError):
                    a / b
            else:
                q = a / b
                check(q, vector_mul(fld, va, vector_inv(fld, vb)))
                # the same value reached another way is == and hashes alike
                back = q * b
                assert back == a and hash(back) == hash(a)
        if a.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            assert not a.is_torsion()
            continue
        check(a.inverse(), vector_inv(fld, va))
        for e in (-1, -2, -3):
            check(a**e, _vector_pow(fld, va, e))
        torsion = _vector_pow(fld, va, E) == one
        assert a.is_torsion() == torsion, a
        if torsion:
            assert a.order() == next(e for e in range(1, E + 1) if _vector_pow(fld, va, e) == one)
        else:
            with pytest.raises(InvalidInstance):
                a.order()
        # the other conjugates: zeta -> zeta^k for k in (Z/M)^*, the Frobenius powers over F_{p^d}
        if fld.char:
            assert fld.conjugate_exponents == tuple(fld.p**i for i in range(1, fld.d))
            for k in fld.conjugate_exponents:
                assert fld.conjugate_raw(a.raw, k) == _vector_pow(fld, va, k)
        else:
            assert fld.conjugate_exponents == tuple(k for k in range(2, fld.M) if gcd(k, fld.M) == 1)
            x = (0, 1) + fld.zero_raw[2:]
            for k in fld.conjugate_exponents:
                want = [0] * fld.degree
                for j, c in enumerate(a.raw):
                    want = [u + c * w for u, w in zip(want, _vector_pow(fld, x, j * k))]
                assert fld.conjugate_raw(a.raw, k) == tuple(want)


# -- inverting 1 and dividing by a monic polynomial cost no product --------------------

KERNEL_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 5), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)]


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_inverting_one_builds_no_conjugate_product(spec, monkeypatch):
    fld = field_for(spec)
    products = []
    for name in ("mul_raw", "conjugate_raw"):
        real = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, *a, real=real, name=name: products.append(name) or real(self, *a))
    assert fld.inv_raw(fld.one_raw) == (fld.one_raw, 1)
    assert products == []
    two = fld.from_int(2)
    w, N = fld.inv_raw(two)  # every other element still takes the norm
    assert fld.mul_raw(two, w) == fld.from_int(N)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_pseudo_division_by_a_monic_divisor_scales_no_row(spec, monkeypatch):
    """B monic: the inverse of its top row is 1, so its lower rows are used as they
    stand and the one step of dividing B by itself multiplies only its top row into
    them (inline, with no product call, when F has degree 1)."""
    fld = field_for(spec)
    two = fld.from_int(2)
    B = ((0, 1) + fld.zero_raw[2:] if fld.degree > 1 else fld.from_int(3), two, fld.one_raw)
    calls = []
    real = Field.mul_raw
    monkeypatch.setattr(Field, "mul_raw", lambda self, a, b: calls.append(1) or real(self, a, b))
    tops, R, w, d = fld._pseudo_divide(B, B)
    assert (w, d) == (fld.one_raw, 1) and not any(map(any, R))
    assert len(calls) == (0 if fld.degree == 1 else len(B) - 1)
    if spec == FieldSpec(0, 1):  # over Q the inverse of any int c is 1 / c: w = 1 for every top row
        calls.clear()
        B2 = B[:-1] + (two,)
        assert fld._pseudo_divide(B2, B2)[2:] == (fld.one_raw, 2) and not calls
