import random
from itertools import product

import pytest

from skolemff import ConstantValue, FieldSpec, Polynomial, factor, field_for, funfield
from skolemff.errors import FactorizationTooHard, ZeroInput
from skolemff.factor import factor_poly, max_degree_cap, monic_divisors, roots_in_F
from skolemff.funfield import squarefree_decomposition
from skolemff.generate import rand_const, rand_poly


def reassemble(fld, unit, factors):
    out = Polynomial(fld, (unit,))
    for g, m in factors:
        out = out * g**m
    return out


def test_factor_over_Q_known(Q):
    t = Polynomial.t(Q)
    one = Polynomial.one(Q)
    p = (t * t + one) * (t - one) ** 3 * (t + 2 * one) * 6
    unit, fs = factor_poly(p)
    assert reassemble(Q, unit, fs) == p
    assert sorted((g.degree, m) for g, m in fs) == [(1, 1), (1, 3), (2, 1)]


def test_factor_t12_minus_1(Q):
    t = Polynomial.t(Q)
    p = t**12 - Polynomial.one(Q)
    unit, fs = factor_poly(p)
    assert len(fs) == 6  # one irreducible per divisor of 12
    assert reassemble(Q, unit, fs) == p
    assert all(m == 1 for _, m in fs)


def test_factor_over_Q_matches_sympy(Q):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(71)
    for _ in range(15):
        deg = rng.randint(2, 10)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = Polynomial(Q, coeffs)
        unit, fs = factor_poly(f)
        assert reassemble(Q, unit, fs) == f
        sy = sympy.Poly(list(reversed(coeffs)), x).factor_list()[1]
        assert sorted(m for _, m in sy) == sorted(m for _, m in fs)
        assert sorted(g.degree(x) for g, _ in sy) == sorted(g.degree for g, _ in fs)


def test_factor_over_cyclotomic(Qi):
    t = Polynomial.t(Qi)
    one = Polynomial.one(Qi)
    unit, fs = factor_poly(t * t + one)
    assert len(fs) == 2 and all(g.degree == 1 for g, _ in fs)
    assert reassemble(Qi, unit, fs) == t * t + one
    # t^4 - 1 splits into four linear factors over Q(i)
    unit, fs = factor_poly(t**4 - one)
    assert len(fs) == 4 and all(g.degree == 1 and m == 1 for g, m in fs)
    # t^2 - 2 stays irreducible over Q(i)
    unit, fs = factor_poly(t * t - 2 * one)
    assert len(fs) == 1 and fs[0][0].degree == 2


def test_factor_over_finite_fields(F3, F5):
    rng = random.Random(73)
    for fld in (F3, F5):
        for _ in range(12):
            f = rand_poly(rng, fld, 7)
            if f.degree < 1:
                continue
            unit, fs = factor_poly(f)
            assert reassemble(fld, unit, fs) == f
            for g, _ in fs:
                assert g.lc().is_one


def test_irreducible_counts_match_necklace_formula(F3):
    # number of monic irreducible quadratics/cubics over F_q: (q^2-q)/2, (q^3-q)/3
    q = 3
    count2 = count3 = 0
    for idx in range(q * q):
        f = Polynomial(F3, [idx % q, idx // q, 1])
        _, fs = factor_poly(f)
        if len(fs) == 1 and fs[0] == (f.monic(), 1) and f.degree == 2:
            count2 += 1
    assert count2 == (q * q - q) // 2
    for idx in range(q**3):
        f = Polynomial(F3, [idx % q, (idx // q) % q, idx // (q * q), 1])
        _, fs = factor_poly(f)
        if len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == 3:
            count3 += 1
    assert count3 == (q**3 - q) // 3


def _has_monic_divisor(f, elems, max_degree):
    """Brute force: some monic g of degree 1..max_degree over F divides f."""
    one = ConstantValue(f.field, f.field.one_raw)
    return any(
        (f % Polynomial(f.field, [*tail, one])).is_zero
        for j in range(1, max_degree + 1)
        for tail in product(elems, repeat=j)
    )


# (degree of each irreducible, how many) per F_{2^d}: the product must reach
# the equal-degree split with more than one factor, in the trace-map branch
_CHAR2_PRODUCTS = {1: [(3, 2), (4, 3)], 2: [(1, 3), (2, 3), (3, 2)], 3: [(1, 4), (2, 3)]}


@pytest.mark.parametrize("d", sorted(_CHAR2_PRODUCTS))
def test_cantor_zassenhaus_splits_products_over_char_2(d, monkeypatch):
    fld = field_for(FieldSpec(2, 1, d))
    elems = [ConstantValue(fld, raw) for raw in product(range(2), repeat=d)]
    one = ConstantValue(fld, fld.one_raw)
    real, splits = factor._equal_degree_split, []

    def recording(f, k):
        splits.append(f.degree > k)
        return real(f, k)

    monkeypatch.setattr(factor, "_equal_degree_split", recording)
    rng = random.Random(2 + d)
    for k, n in _CHAR2_PRODUCTS[d]:
        irreducibles = []
        while len(irreducibles) < n:
            g = Polynomial(fld, [rng.choice(elems) for _ in range(k)] + [one])
            if g not in irreducibles and not _has_monic_divisor(g, elems, k // 2):
                irreducibles.append(g)
        f = Polynomial(fld, [rng.choice(elems[1:])])
        for g in irreducibles:
            f = f * g
        splits.clear()
        unit, fs = factor_poly(f)
        assert reassemble(fld, unit, fs) == f, (k, n)
        assert sorted(map(repr, irreducibles)) == sorted(repr(g) for g, _ in fs), (k, n)
        assert all(m == 1 and not _has_monic_divisor(g, elems, g.degree // 2) for g, m in fs), (k, n)
        assert any(splits), (k, n)


def test_factor_gf_extension(Qi):
    f9 = field_for(FieldSpec(3, 1, 2))
    t = Polynomial.t(f9)
    one = Polynomial.one(f9)
    # t^2 + 1 splits over F_9
    unit, fs = factor_poly(t * t + one)
    assert len(fs) == 2 and all(g.degree == 1 for g, _ in fs)


def test_roots_in_F(Q):
    t = Polynomial.t(Q)
    one = Polynomial.one(Q)
    r = roots_in_F((t - 3 * one) ** 2 * (t + one) * (t * t + one))
    assert sorted((str(c), m) for c, m in r) == [("-1", 1), ("3", 2)]


def test_monic_divisors(Q):
    t = Polynomial.t(Q)
    one = Polynomial.one(Q)
    divs = monic_divisors((t - one) ** 2 * t)
    assert len(divs) == 6  # (2+1)*(1+1)
    assert Polynomial.one(Q) in divs


def test_degree_cap(Q, monkeypatch):
    monkeypatch.setenv("SKOLEMFF_MAX_DEGREE", "8")
    assert max_degree_cap() == 8
    t = Polynomial.t(Q)
    with pytest.raises(FactorizationTooHard):
        factor_poly(t**9 - Polynomial.one(Q))
    monkeypatch.delenv("SKOLEMFF_MAX_DEGREE")
    assert max_degree_cap() == 64


def test_factor_zero_raises(Q):
    with pytest.raises(ZeroInput):
        factor_poly(Polynomial.zero(Q))


def test_norm_matches_sympy_resultant():
    """The conjugate-product norm equals Res_y(Phi_M(y), A(x, y)), sign included."""
    sympy = pytest.importorskip("sympy")
    from skolemff import ConstantValue
    from skolemff.factor import _norm_to_q

    x, y = sympy.symbols("x y")
    rng = random.Random(83)
    for M in (3, 4, 8, 12):
        fld = field_for(FieldSpec(0, M))
        for _ in range(4):
            deg = rng.randint(1, 3)
            raws = [[rng.randint(-4, 4) for _ in range(fld.degree)] for _ in range(deg + 1)]
            raws[-1][rng.randrange(fld.degree)] = rng.choice((-3, -1, 2))  # not always monic
            A = Polynomial(fld, [ConstantValue.from_rationals(fld, r) for r in raws])
            A_xy = sum(x**i * sum(c * y**j for j, c in enumerate(r)) for i, r in enumerate(raws))
            res = sympy.Poly(sympy.resultant(sympy.cyclotomic_poly(M, y), A_xy, y), x)
            want = [sympy.Rational(c) for c in reversed(res.all_coeffs())]
            assert [sympy.Rational(c.as_fraction()) for c in _norm_to_q(A).coeffs] == want, (M, raws)


@pytest.mark.parametrize("spec", [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)])
def test_linear_polynomial_is_its_own_factorization(spec, monkeypatch):
    """A degree-1 p gives (lc, [(p / lc, 1)]), as the squarefree pass and the backend did, and runs neither."""
    fld = field_for(spec)
    backend = factor._factor_sqfree_gf if fld.char else factor._factor_sqfree_q if fld.M == 1 else factor._factor_sqfree_cyclo
    rng = random.Random(f"linear-{spec}")
    cases = []
    for _ in range(8):
        p = Polynomial(fld, (rand_const(rng, fld), rand_const(rng, fld, nonzero=True)))
        old = [(h, m) for g, m in squarefree_decomposition(p.monic()) for h in backend(g)]
        cases.append((p, (p.lc(), old)))
    assert sum(not p.lc().is_one for p, _ in cases) >= 3
    assert fld.degree == 1 or any(any(p.lc().raw[1:]) for p, _ in cases)  # outside the prime field
    for name in ("_factor_sqfree_gf", "_factor_sqfree_q", "_factor_sqfree_cyclo", "squarefree_decomposition"):
        monkeypatch.setattr(factor, name, lambda *a, _name=name: pytest.fail(f"{_name} ran on a linear polynomial"))
    for p, want in cases:
        assert factor_poly(p) == want, p


def _factor_whole(p):
    """factor_poly's former path: one squarefree pass over all of monic p, then the backend per part."""
    fld = p.field
    backend = factor._factor_sqfree_gf if fld.char else factor._factor_sqfree_q if fld.M == 1 else factor._factor_sqfree_cyclo
    out = [(h, m) for g, m in squarefree_decomposition(p.monic()) for h in backend(g)]
    out.sort(key=lambda fm: (fm[0].degree, tuple(str(c) for c in fm[0].coeffs)))
    return p.lc(), out


T_POWER_SPECS = [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(3, 1, 1), FieldSpec(3, 1, 2)]


@pytest.mark.parametrize("spec", T_POWER_SPECS, ids=["Q", "Qi", "Qzeta3", "F3", "F9"])
def test_power_of_t_comes_off_before_the_squarefree_pass(spec, monkeypatch):
    fld = field_for(spec)
    rng = random.Random(f"t-power-{spec}")
    t = Polynomial.t(fld)
    for _ in range(12):
        a, b = rand_poly(rng, fld, 2), rand_poly(rng, fld, 3)
        p = t ** rng.randint(1, 6) * a * a * b * rand_const(rng, fld, nonzero=True)
        assert factor_poly(p) == _factor_whole(p), p
    # c t^k factors to [(t, k)] with no squarefree pass and no gcd
    calls = []
    monkeypatch.setattr(funfield, "_gcd_cofactors", lambda *a: calls.append(a))
    monkeypatch.setattr(factor, "squarefree_decomposition", lambda *a: calls.append(a))
    for k in (2, 3, 9):
        c = rand_const(rng, fld, nonzero=True)
        assert factor_poly(Polynomial(fld, (c,)) * t**k) == (c, [(t, k)])
    assert calls == []
