import random
from fractions import Fraction

import pytest

from skolemff.constants import ConstantValue, FieldSpec, RootOfUnity, _defining_poly, field_for, roots_of_unity, zeta
from skolemff.errors import FieldTooSmall, InvalidInstance


def rand_elem(rng, fld):
    if fld.char == 0:
        return ConstantValue(
            fld,
            fld.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(fld.degree)]),
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
    two_thirds = ConstantValue(fld, fld.from_fraction(Fraction(2, 3)))
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
    c = ConstantValue(fld, fld.from_coeffs([Fraction(-3, 4), Fraction(2)]))
    assert c.to_strings() == ["-3/4", "2"]
    assert ConstantValue.from_strings(fld, ["-3/4", "2"]) == c
    f3 = field_for(FieldSpec(3, 1, 1))
    with pytest.raises(InvalidInstance):
        ConstantValue.from_strings(f3, ["4"])  # outside [0, p)


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
