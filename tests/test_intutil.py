import random

import pytest

from skolemff import FieldSpec, Polynomial, field_for
from skolemff.errors import FactorizationTooHard
from skolemff.funfield import poly_gcd
from skolemff.intutil import (
    cyclotomic_poly,
    divisors,
    euler_phi,
    factorize,
    fp_deriv,
    fp_divmod,
    fp_gcd,
    fp_monic,
    fp_mul,
    fp_powmod,
    is_prime,
    is_probable_prime,
    valuation_int,
    zx_div_exact,
    zx_primitive,
)


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    # derived by dividing x^12 - 1 by the proper-divisor cyclotomics
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod_{d | n} Phi_d = x^n - 1 for all n <= 200
    for n in range(1, 201):
        prod = [1]
        for d in divisors(n):
            phi = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expect = [0] * (n + 1)
        expect[0], expect[n] = -1, 1
        assert prod == expect, n


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in (5, 15, 36, 105):
        ours = cyclotomic_poly(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    # p^l - p^(l-1) for (p, l) = (5, 2), cross-checked by brute count
    from math import gcd

    brute = sum(1 for k in range(1, 26) if gcd(k, 25) == 1)
    assert euler_phi(25) == brute == 20


def test_phi_divisor_sum():
    for n in range(1, 10001):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_primality_and_factoring():
    assert is_prime(2) and is_prime(97) and is_prime((1 << 61) - 1)
    assert not is_prime(1) and not is_prime(561)  # Carmichael
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert valuation_int(720, 2) == 4
    with pytest.raises(FactorizationTooHard):
        # product of two Mersenne primes, far beyond trial division
        factorize(((1 << 89) - 1) * ((1 << 107) - 1))


def test_divisors_sorted():
    assert divisors(72) == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]


def _ints(P: Polynomial) -> list[int]:
    return [c.raw[0] for c in P.coeffs]


@pytest.mark.parametrize("p", [5, 7, (1 << 61) - 1])
def test_fp_kernel_matches_polynomial(p):
    fld = field_for(FieldSpec(p, 1, 1))
    rng = random.Random(9000 + p)

    def rand(max_deg):
        # trimmed, so the zero polynomial comes out as []
        return _ints(Polynomial(fld, [rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))]))

    for _ in range(100):
        a, b = rand(8), rand(6)
        A, B = Polynomial(fld, a), Polynomial(fld, b)
        assert fp_mul(a, b, p) == _ints(A * B)
        assert fp_deriv(a, p) == _ints(A.derivative())
        if not b:
            continue
        Qt, Rm = A.divmod(B)
        assert fp_divmod(a, b, p) == (_ints(Qt), _ints(Rm))
        assert fp_monic(b, p) == _ints(B.monic())
        assert fp_gcd(a, b, p) == _ints(poly_gcd(A, B))
        if len(b) > 1:
            e, power = rng.randrange(40), Polynomial.one(fld) % B
            for _ in range(e):
                power = power * A % B
            assert fp_powmod(a, e, b, p) == _ints(power)


def test_fp_kernel_above_2_61():
    # big-prime Zassenhaus runs the kernel modulo primes beyond the field cap
    p = (1 << 64) + 13  # the least prime above 2^64
    assert is_probable_prime(p)
    rng = random.Random(64)
    for _ in range(20):
        a = [rng.randrange(p) for _ in range(7)]
        b = [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)]
        q, r = fp_divmod(a, b, p)
        qb = fp_mul(q, b, p)
        assert len(r) < len(b) and [(x + y) % p for x, y in zip(qb, r + [0] * len(qb))] == a
        g = fp_gcd(fp_mul(a, b, p), b, p)
        assert g == fp_monic(b, p)
    # Euler's criterion: x^p = -x (mod x^2 - 3) exactly when 3 is a non-residue
    assert fp_powmod([0, 1], p, [p - 3, 0, 1], p) == [0, pow(3, (p - 1) // 2, p)]


def test_zx_div_exact_and_primitive():
    rng = random.Random(77)
    for _ in range(100):
        a = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [rng.choice([-3, -1, 1, 2])]
        b = [rng.randint(-20, 20) for _ in range(rng.randint(0, 5))] + [rng.choice([-2, 1, 5])]
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        assert zx_div_exact(prod, b) == a
    assert zx_div_exact([1, 0, 1], [1, 1]) is None  # x^2 + 1 over x + 1: nonzero remainder
    assert zx_div_exact([1, 1], [0, 2]) is None  # lead 1 not divisible by 2
    assert zx_div_exact([2], [1, 1]) is None  # degree too small
    assert zx_primitive([4, -6, -2]) == [-2, 3, 1]
    assert zx_primitive([-3, 2]) == [-3, 2]
