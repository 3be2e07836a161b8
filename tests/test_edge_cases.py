"""Second-wave edge cases: recombination stress, ties, weighted places."""

import random

import pytest

from skolemff import (
    INFINITY,
    ConstantValue,
    FieldSpec,
    Place,
    PlaceSet,
    Polynomial,
    PowerSumInstance,
    RationalFunction,
    decide_global_zero,
    eval_B,
    field_for,
    verify_smt,
)
from skolemff.cli import main
from skolemff.errors import InvalidInstance
from skolemff.factor import factor_poly
from conftest import one_ru


def test_zassenhaus_recombination_stress(Q):
    # six linear factors force non-trivial subset recombination
    t = Polynomial.t(Q)
    one = Polynomial.one(Q)
    f = one * 2
    for a, b in ((2, 1), (3, 2), (1, 1), (5, -1), (1, -3), (7, 2)):
        f = f * (a * t + b * one)
    unit, fs = factor_poly(f)
    assert len(fs) == 6 and all(m == 1 and g.degree == 1 for g, m in fs)
    prod = Polynomial(Q, (unit,))
    for g, m in fs:
        prod = prod * g**m
    assert prod == f


def test_zassenhaus_against_sympy_products(Q):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(101)
    for _ in range(8):
        # build an explicit product of small irreducibles and recover it
        parts = []
        for _ in range(rng.randint(2, 4)):
            deg = rng.randint(1, 3)
            parts.append([rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)])
        f = Polynomial.one(Q)
        for p in parts:
            f = f * Polynomial(Q, p)
        unit, fs = factor_poly(f)
        prod = Polynomial(Q, (unit,))
        for g, m in fs:
            prod = prod * g**m
        assert prod == f
        sy = sympy.Poly([int(str(c)) for c in reversed(f.coeffs)], x).factor_list()[1]
        assert sum(m for _, m in sy) == sum(m for _, m in fs)


def test_trager_full_split(Qi):
    # t^4 + 4 splits into four linear factors over Q(i)
    t = Polynomial.t(Qi)
    one = Polynomial.one(Qi)
    unit, fs = factor_poly(t**4 + 4 * one)
    assert len(fs) == 4 and all(g.degree == 1 and m == 1 for g, m in fs)
    prod = Polynomial(Qi, (unit,))
    for g, m in fs:
        prod = prod * g**m
    assert prod == t**4 + 4 * one


def test_decide_tie_prefers_positive(Q):
    # B(n) = f^{2n} - (f + 1/f) f^n + 1 vanishes exactly at n = +-1
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    f = t
    lam = (RationalFunction.one(Q), -(f + f**-1), RationalFunction.one(Q))
    inst = PowerSumInstance(lam, (one_ru(Q),) * 3, (2, 1, 0), f, S)
    assert eval_B(inst, 1).is_zero and eval_B(inst, -1).is_zero
    assert not eval_B(inst, 0).is_zero and not eval_B(inst, 2).is_zero
    assert decide_global_zero(inst) == 1


def test_quadratic_place_in_S(Q):
    tp = Polynomial.t(Q)
    one = Polynomial.one(Q)
    quad = tp * tp + one
    S = PlaceSet([Place(quad), INFINITY])
    assert S.weighted_size == 3
    f = RationalFunction(quad)  # S-unit: zeros at the quadratic place, pole at infinity
    inst = PowerSumInstance(
        (RationalFunction.one(Q), -f),
        (one_ru(Q),) * 2,
        (1, 0),
        f,
        S,
    )
    assert decide_global_zero(inst) == 1


def test_smt_over_extension_field():
    f9 = field_for(FieldSpec(3, 1, 2))
    t = RationalFunction.t(f9)
    S = PlaceSet([INFINITY])
    b = [ConstantValue.from_rationals(f9, v) for v in ([0, 0], [1, 0], [0, 1])]
    rep = verify_smt(t**2 + t, S, b)
    assert rep.holds


def test_cli_rejects_bad_a(tmp_path, Q):
    from skolemff.serialize import save_instance
    from conftest import example1_instance
    import contextlib, io, json

    p = tmp_path / "i.json"
    save_instance(example1_instance(Q), str(p))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["local", str(p), "--a", "0"])
    assert code == 2
    assert json.loads(buf.getvalue())["result"]["error"] == "InvalidInstance"


def test_instance_with_collision_exponents(Q):
    # repeated r_i are allowed; the companion collects coefficients
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((t, -t, RationalFunction.one(Q)), (one_ru(Q),) * 3, (2, 2, 0), t, S)
    # the X^2 coefficient cancels: B(n) = 1 for every n
    from skolemff.powersum import class_reduction

    assert class_reduction(inst, 0)[0].degree == 0
    assert decide_global_zero(inst) is None
    for n in (-3, 0, 5):
        assert eval_B(inst, n) == RationalFunction.one(Q)
