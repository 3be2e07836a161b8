"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All expected values below were re-derived with the independent oracles
in tests/oracles.py before being frozen.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest

from skolemff import (
    FieldSpec,
    certify_local_global,
    decide_global_zero,
    eval_B,
    field_for,
    height,
    poly_height,
)
from skolemff.cli import main
from skolemff.generate import generate_instance
from skolemff.intutil import euler_phi
from skolemff.powersum import class_reduction, split_dep_ind
from skolemff.serialize import save_instance
from skolemff.smallcoef import admissible_a, gamma_bound, min_e
from skolemff.verify_suites import run_suite
from conftest import example1_instance, example2_instance
from oracles import brute_admissible_a, brute_min_e, brute_zero_scan


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, json.loads(buf.getvalue())


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    Q = field_for(FieldSpec(0, 1))
    p1 = tmp / "example-1.json"
    save_instance(example1_instance(Q), str(p1), {"name": "example-1"})
    p2 = tmp / "translated-example-2.json"
    save_instance(example2_instance(Q), str(p2), {"name": "translated-example-2"})
    return {"ex1": str(p1), "ex2": str(p2)}


def test_criterion_1_example_1(files):
    started = time.monotonic()
    # (a) local with a = 2k returns witness k for k in {1, 3, 5}
    for k in (1, 3, 5):
        code, rep = run_cli(["local", files["ex1"], "--a", str(2 * k), "--k-bound", "100"])
        assert code == 0 and rep["result"]["witness"] == str(k), (k, rep["result"])
    # (b) no global zero
    code, rep = run_cli(["solve", files["ex1"]])
    assert code == 0 and rep["result"]["global_zero"] is None
    # (c) smallcoef at rho = 1/10: formula-derived e and admissible a
    #     (Gamma = 38/9, so e = 6 and a = 72; independently re-derived), and the
    #     exhaustive scan |k| <= 200 finds no witness for that a.
    code, rep = run_cli(["smallcoef", files["ex1"], "--rho", "1/10", "--k-bound", "200"])
    assert code == 0
    gamma = gamma_bound(Fraction(1, 10), example1_instance(field_for(FieldSpec(0, 1))).places)
    assert gamma == Fraction(38, 9)
    assert int(rep["result"]["e"]) == brute_min_e([1, 1, 2, 2], gamma, 0) == 6
    assert int(rep["result"]["a"]) == brute_admissible_a(6, 3, gamma) == 72
    assert rep["result"]["status"] == "consistent_no_witness" and rep["result"]["witness"] is None
    # the (e, a) pair the criterion names corresponds to Gamma = 6, i.e. rho = 1/2
    code, rep2 = run_cli(["smallcoef", files["ex1"], "--rho", "1/2", "--k-bound", "200"])
    gamma2 = Fraction(6)
    assert int(rep2["result"]["e"]) == brute_min_e([1, 1, 2, 2], gamma2, 0) == 8
    assert int(rep2["result"]["a"]) == brute_admissible_a(8, 3, gamma2) == 64
    assert rep2["result"]["status"] == "consistent_no_witness"
    elapsed = time.monotonic() - started
    report(1, elapsed < 5.0, f"(example 1: local/solve/smallcoef, {elapsed:.2f}s < 5s)")


def test_criterion_2_example_2(files):
    started = time.monotonic()
    for A in range(1, 11):
        code, rep = run_cli(["local", files["ex2"], "--a", str(A), "--k-bound", "100"])
        assert code == 0 and rep["result"]["witness"] == str(A - 1), (A, rep["result"])
    code, rep = run_cli(["solve", files["ex2"]])
    assert code == 0 and rep["result"]["global_zero"] == "-1"
    Q = field_for(FieldSpec(0, 1))
    assert eval_B(example2_instance(Q), -1).is_zero
    elapsed = time.monotonic() - started
    report(2, elapsed < 2.0, f"(example 2: witnesses k = A-1, solve -> -1, {elapsed:.2f}s < 2s)")


def test_criterion_3_height_identities():
    started = time.monotonic()
    res = run_suite("gauss", seed=1, count=500)
    elapsed = time.monotonic() - started
    ok = res.violations == 0 and res.checked == 500 and elapsed < 30.0
    report(3, ok, f"(500 Gauss/height pairs, {res.violations} violations, {elapsed:.1f}s < 30s)")


def test_criterion_4_theorem_suites():
    started = time.monotonic()
    outcomes = {}
    for suite, count in (("smt", 500), ("czgcd", 200), ("sunit", 200), ("claimD", 100), ("claimI", 100)):
        res = run_suite(suite, seed=7, count=count)
        outcomes[suite] = (res.violations, res.checked)
        assert res.violations == 0, (suite, res.reproducer)
    elapsed = time.monotonic() - started
    ok = elapsed < 180.0
    report(4, ok, f"({outcomes}, {elapsed:.1f}s < 180s)")


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    agreements = 0
    seed = 0
    while agreements < 200:
        profile = "small" if agreements % 4 else "dep-heavy"
        inst, _ = generate_instance(seed, profile)
        seed += 1
        windows = [0]
        for c in range(inst.e):
            P, g = class_reduction(inst, c)
            if not P.is_zero:
                windows.append(poly_height(P) // height(g))
        if max(windows) > 50:
            continue
        got = decide_global_zero(inst)
        expect = brute_zero_scan(inst, 50)
        assert got == expect, (profile, seed - 1, got, expect)
        agreements += 1
    elapsed = time.monotonic() - started
    report(5, True, f"(200 instances, decide == brute scan, {elapsed:.1f}s)")


def test_criterion_6_effective_pipeline():
    started = time.monotonic()
    done = 0
    seed = 0
    while done < 50:
        inst, _ = generate_instance(seed, "dep-heavy")
        seed += 1
        rep = certify_local_global(inst, k_bound=60)
        assert rep.verdict == "LocalObstruction", (seed - 1, rep.verdict, rep.notes)
        assert not rep.theorem_violation and rep.local_witness is None
        for cc in rep.per_class:
            assert cc.q % cc.p  # p does not divide q
            split = split_dep_ind(inst, cc.residue)
            q = cc.q
            rbetas = [w.exact_r * (q // w.exact_q) for _, _, w in split.dep]
            for x in rbetas:
                for y in rbetas:
                    if x != y:
                        assert (x - y) % cc.p  # p divides no nonzero r-difference
            # the cubed inequality fails at ell and not at ell - 1
            chi = 2 * 0 - 2 + rep.s_work.weighted_size
            hg = height(split.g)
            hp = poly_height(split.poly)
            degp = split.poly.degree

            def fails(ell):
                L = (euler_phi(cc.p**ell) - 2) * hg - chi
                return L > 0 and L**3 > 54 * degp**3 * chi * (cc.p**ell * q * hg + hp) ** 2

            assert fails(cc.ell)
            assert cc.ell == 1 or not fails(cc.ell - 1)
            assert cc.a == cc.p**cc.ell * cc.q
            for chk in cc.lemma_checks:
                assert chk.holds
        done += 1
    elapsed = time.monotonic() - started
    report(6, True, f"(50 dep-heavy certificates, all side conditions, {elapsed:.1f}s)")


def test_criterion_7_smallcoef_table():
    started = time.monotonic()
    Q = field_for(FieldSpec(0, 1))
    from skolemff import INFINITY, Place, PlaceSet, Polynomial

    S2 = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    S1 = PlaceSet([INFINITY])
    # row 1: Gamma = 6, all eps = 1 -> e = 7; with N = 3 -> a = 49
    gamma = Fraction(6)
    assert brute_min_e([1], gamma, 0) == 7
    assert admissible_a(7, 3, gamma_bound(Fraction(1, 2), S2)) == brute_admissible_a(7, 3, gamma) == 49
    # row 2: Gamma = 6, eps = +-1 -> e = 8; with N = 3 -> a = 64
    assert brute_min_e([1, 2], gamma, 0) == 8
    assert admissible_a(8, 3, gamma_bound(Fraction(1, 2), S2)) == brute_admissible_a(8, 3, gamma) == 64
    # row 3: e = 6, N = 0, Gamma = 4 -> a = 72 (Gamma = 4 realized by rho = 2/3, |S| = 1)
    assert gamma_bound(Fraction(2, 3), S1) == 4
    assert admissible_a(6, 0, gamma_bound(Fraction(2, 3), S1)) == brute_admissible_a(6, 0, Fraction(4)) == 72
    # and min_e reproduces rows 1-2 through real instances
    from skolemff import PowerSumInstance, RationalFunction
    from conftest import neg_ru, one_ru

    t = RationalFunction.t(Q)
    inst_all1 = PowerSumInstance((t,), (one_ru(Q),), (1,), t, S2)
    assert min_e(inst_all1, gamma) == 7
    inst_pm = PowerSumInstance((t, t), (one_ru(Q), neg_ru(Q)), (0, 1), t, S2)
    assert min_e(inst_pm, gamma) == 8
    elapsed = time.monotonic() - started
    report(7, True, f"(table rows (6,eps1)->7/49, (6,eps+-1)->8/64, (6,0,4)->72 re-derived, {elapsed:.1f}s)")
