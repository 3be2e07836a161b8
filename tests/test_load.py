"""The instance loader: entries read by `parse_ratio`, polynomials built as rows
over one denominator, linear places taken without factoring, epsilon orders
read off the exponent, and each instance file read once by the CLI."""

import builtins
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

import skolemff
from skolemff import FieldSpec, RationalFunction, constants, field_for, serialize
from skolemff.cli import main
from skolemff.constants import Field, RootOfUnity, parse_ratio, zeta
from skolemff.errors import InvalidInstance
from skolemff.generate import generate_instance
from skolemff.intutil import divisors
from skolemff.serialize import (
    epsilon_from_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    poly_from_json,
    ratfunc_from_json,
)
from conftest import example1_instance
from oracles import fraction_constant, fraction_poly

FIELDS = {
    "Q": FieldSpec(0, 1),
    "Q(i)": FieldSpec(0, 4),
    "Q(zeta_3)": FieldSpec(0, 3),
    "F_3": FieldSpec(3, 1, 1),
    "F_9": FieldSpec(3, 1, 2),
}


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


def run_subprocess(args, timeout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "skolemff.cli", *args], capture_output=True, text=True, timeout=timeout, env=env
    )


# -- the entry grammar ---------------------------------------------------------


def test_parse_ratio_reads_integers_and_ratios():
    cases = {
        "3": (3, 1), "-3/4": (-3, 4), "+3": (3, 1), "1_000/6": (1000, 6),
        "0/5": (0, 5), "-0": (0, 1), "007": (7, 1), " 3/4\n": (3, 4), 5: (5, 1), -12: (-12, 1),
    }
    for text, want in cases.items():
        assert parse_ratio(text) == want, text
    rejected = ("0.5", "1e5", "1E5", "1e20000", "1e-30000", ".5", "3/-4", "3/+4", "3 /4", "3/ 4", "", "/4", "3/", "abc")
    for text in (*rejected, "1 2", "--1"):
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: "):
            parse_ratio(text)
    with pytest.raises(ZeroDivisionError):
        parse_ratio("1/0")


def test_parse_ratio_is_fraction_without_decimals_and_exponents():
    # on random short texts over the characters of both grammars, parse_ratio
    # gives Fraction's value or its ValueError, except that it rejects every
    # text with a decimal point or an exponent, and spaces at the slash, which
    # Fraction reads from Python 3.12 on
    rng = random.Random(20)
    alphabet = " +-0123456789/_.eE"
    accepted = rejected = 0
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        try:
            want = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                parse_ratio(text)
            continue
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_ratio(text)
            assert str(got.value) == str(exc), text
            rejected += 1
            continue
        if any(c in text for c in ".eE") or " /" in text or "/ " in text:
            with pytest.raises(ValueError):
                parse_ratio(text)
        else:
            assert Fraction(*parse_ratio(text)) == want, text
            accepted += 1
    assert accepted > 500 and rejected > 500, (accepted, rejected)


# -- polynomials: rows over one lcm against one ConstantValue per coefficient ---------------


def _entry(rng, fld):
    if fld.char:
        v = rng.randrange(fld.char)
        return v if rng.random() < 0.3 else str(v)
    a = rng.randint(-9, 9)
    kind = rng.random()
    if kind < 0.25:
        return a  # a JSON integer
    if kind < 0.5:
        return str(a)
    return f"{a}/{rng.randint(1, 12)}"  # unreduced ratios such as 4/6 and 0/5 included


def _constant(rng, fld):
    items = [_entry(rng, fld) for _ in range(rng.randint(0, fld.degree))]
    if items and rng.random() < 0.3:
        items[-1] = rng.choice([0, "0", "0/7"] if not fld.char else [0, "0"])  # a trailing zero entry
    return items


@pytest.mark.parametrize("name", FIELDS)
def test_poly_from_json_matches_one_constant_per_coefficient(name):
    fld = field_for(FIELDS[name])
    rng = random.Random(f"poly-from-json-{name}")
    polys = [[], [[]], [[], [], []], [["1"], []], [[0], ["0"]]]
    for _ in range(300):
        items = [_constant(rng, fld) for _ in range(rng.randint(0, 5))]
        if items and rng.random() < 0.3:
            items.append([])  # a trailing zero constant
        polys.append(items)
    if not fld.char:  # zero constants after a fraction entry, which set the denominator
        polys += [[["1/2"], []], [["1/2"], ["0"], [], [0]], [["1/2"], ["0/3"]], [["2/3"], ["0/6"], []]]
    for items in polys:
        got, want = poly_from_json(fld, items), fraction_poly(fld, items)
        assert got == want and (got.rows, got.den) == (want.rows, want.den), items
        assert all(type(r) is tuple for r in got.rows), items
    for c in (p for items in polys for p in items):
        assert skolemff.ConstantValue.from_strings(fld, c) == fraction_constant(fld, c), c
    # a denominator equal to 1 leaves num/1 as read; any other is reduced against num
    for den in ([["1"]], [["2"]], [[], ["1"]]):
        for items in polys:
            got = ratfunc_from_json(fld, {"num": items, "den": den})
            want = RationalFunction(fraction_poly(fld, items), fraction_poly(fld, den))
            assert (got.num.rows, got.num.den, got.den.rows, got.den.den) == (
                want.num.rows, want.num.den, want.den.rows, want.den.den,
            ), (items, den)


@pytest.mark.parametrize("name", FIELDS)
def test_malformed_constants_fail_as_through_fraction(name):
    fld = field_for(FIELDS[name])
    cases = [
        "7", ["1", True], ["1", 0.5], ["1", None], [["1"]], ["abc"], ["1/0"], ["2", "1/0"], ["x", "1/0"],
        ["1/0", "x"], ["3/-4"], ["-1"], ["3"], ["1"] * (fld.degree + 1), ["1/2"], [" 2 "], ["1_0"],
        # entry forms a fast path can misread: signs, leading zeros, a Unicode
        # digit, separators Fraction strips and int() refuses, an integer past
        # int()'s digit limit as text and as a JSON int, p itself
        ["+3"], ["-0"], ["007"], ["\u0663"], ["1\x1c"], ["\x1f2"], ["\t2\n"], ["1" * 5000], [10**5000 + 1],
        [7], [-2], [str(fld.char or 3)], [fld.char or 3], ["1/2", "x"], ["1", "1/0"],
    ]
    for items in cases:
        outcomes = []
        for read in (lambda: poly_from_json(fld, [items]), lambda: fraction_poly(fld, [items])):
            try:
                outcomes.append(("ok", read().rows))
            except (InvalidInstance, ValueError) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1], items
    with pytest.raises(InvalidInstance, match="polynomial must be an array of constants"):
        poly_from_json(fld, {"0": ["1"]})


# -- epsilons: the order of zeta_order^k is order / gcd(order, k) ------------------


@pytest.mark.parametrize("spec", [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(0, 3), FieldSpec(0, 8)])
def test_epsilon_order_matches_the_computed_order(spec):
    fld = field_for(spec)
    checked = 0
    for order in divisors(fld.torsion_exponent):
        z = zeta(fld, order)
        for k in range(order):
            root = z**k
            for exponent in (k, k - order, k + 3 * order):
                eps = epsilon_from_json(fld, [str(order), str(exponent)])
                assert (eps.order, eps.value) == (root.order(), root), (order, exponent)
            checked += 1
    assert checked == sum(divisors(fld.torsion_exponent))


# -- epsilons come from a per-field table of verified roots of unity ------------------


@pytest.mark.parametrize("spec", [FieldSpec(0, 1), FieldSpec(0, 4), FieldSpec(5, 1, 1), FieldSpec(3, 1, 2)])
def test_epsilon_pairs_read_the_table_of_verified_roots(spec):
    fld = field_for(spec)
    for order in divisors(fld.torsion_exponent):
        z = zeta(fld, order)
        assert zeta(fld, order) is z  # computed once per order
        for k in range(-2 * order, 3 * order):
            eps = epsilon_from_json(fld, [str(order), str(k)])
            root = z ** (k % order)
            assert (eps.order, eps.value) == (order // gcd(order, k), root) == (root.order(), root), (order, k)
            # one entry per (order, value): every pair and the dict form of the same root share it
            if fld.torsion_exponent % (2 * order) == 0:
                assert epsilon_from_json(fld, [str(2 * order), str(2 * k)]) is eps
            assert epsilon_from_json(fld, {"order": str(eps.order), "value": eps.value.to_strings()}) is eps
    for (order, raw, den), eps in fld._roots_of_unity.items():
        assert (eps.order, eps.value.raw, eps.value.den) == (order, raw, den) == (eps.value.order(), raw, 1)


@pytest.mark.parametrize(
    "spec, declared",
    [
        (FieldSpec(0, 1), {"order": "2", "value": ["1"]}),  # 1 has order 1
        (FieldSpec(0, 1), {"order": "3", "value": ["-1"]}),  # (-1)^3 != 1
        (FieldSpec(0, 4), {"order": "2", "value": ["1/2"]}),  # not an algebraic integer
        (FieldSpec(5, 1, 1), {"order": "4", "value": ["4"]}),  # 4 = -1 has order 2
        (FieldSpec(5, 1, 1), {"order": "3", "value": ["2"]}),  # 2^3 = 3
        (FieldSpec(3, 1, 2), {"order": "4", "value": ["1", "1"]}),  # the generator x + 1 has order 8
        (FieldSpec(3, 1, 2), {"order": "0", "value": ["1"]}),
    ],
)
def test_a_bad_declared_epsilon_raises_on_every_read_and_is_never_stored(spec, declared, monkeypatch):
    fld = field_for(spec)
    checks = []
    verify = RootOfUnity.__post_init__
    monkeypatch.setattr(RootOfUnity, "__post_init__", lambda self: checks.append(self.order) or verify(self))
    for n in (1, 2):
        with pytest.raises(InvalidInstance, match="not minimal|value\\^order != 1|order must be positive"):
            epsilon_from_json(fld, declared)
        assert len(checks) == n  # verified again on the second read
    assert all(eps.value.order() == order for (order, *_), eps in fld._roots_of_unity.items())
    good = epsilon_from_json(fld, {"order": "1", "value": ["1"]})
    assert epsilon_from_json(fld, {"order": "1", "value": ["1"]}) is good
    assert len(checks) <= 3  # a new entry is verified once, and read from the table after


def test_the_torsion_generator_is_searched_once_per_field(monkeypatch):
    counted = []
    real = constants.factorize
    monkeypatch.setattr(constants, "factorize", lambda n: counted.append(n) or real(n))
    fld = Field(FieldSpec(3, 1, 2))  # a new field, so nothing is in its tables yet
    for order in (1, 2, 4, 8, 8, 2):
        zeta(fld, order)
    assert counted == [8]  # the generator search factors p^d - 1 once; nothing else factors
    assert [zeta(fld, k).order() for k in (1, 2, 4, 8)] == [1, 2, 4, 8]


# -- places: only a place of degree >= 2 is factored -----------------------------------


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []
    real = serialize.factor_poly

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(serialize, "factor_poly", counted)
    return calls


def test_linear_places_are_not_factored(factor_calls, Q, Qi, F3):
    # the examples and the generated instances have linear finite places only
    docs = [instance_to_json(example1_instance(fld)) for fld in (Q, Qi, F3)]
    docs += [instance_to_json(generate_instance(s, p)[0]) for p in ("small", "dep-heavy", "charp") for s in range(8)]
    for doc in docs:
        inst = instance_from_json(doc)
        assert all(p.is_infinite or p.degree == 1 for p in inst.places)
    assert factor_calls == []
    # an irreducible quadratic place is factored once, and accepted
    doc = dict(docs[0], S=[*docs[0]["S"], {"type": "finite", "poly": [["1"], [], ["1"]]}])
    assert len(instance_from_json(doc).places) == 3 and len(factor_calls) == 1


def test_reducible_and_malformed_places_are_invalid_input(tmp_path, factor_calls, Q, Qi, F3):
    cases = [
        (Q, [["-1"], [], ["1"]], "is not irreducible"),  # t^2 - 1
        (Qi, [["1"], [], ["1"]], "is not irreducible"),  # t^2 + 1 = (t - i)(t + i)
        (F3, [[], ["2"], [], ["1"]], "is not irreducible"),  # t^3 + 2t = t (t - 1)(t + 1)
        (Q, [["1"], ["2"]], "must be monic"),  # 2t + 1, linear but not monic
        (Q, [["1"]], "positive degree"),
    ]
    for i, (fld, poly, message) in enumerate(cases):
        doc = instance_to_json(example1_instance(fld))
        doc["S"].insert(0, {"type": "finite", "poly": poly})
        path = tmp_path / f"place-{i}.json"
        path.write_text(json.dumps(doc))
        code, rep = run_cli(["solve", str(path)])
        assert code == 2 and rep["result"]["error"] == "InvalidInstance", poly
        assert message in rep["result"]["message"], rep["result"]["message"]
        assert rep["instance_digest"] == instance_digest(doc)
    assert len(factor_calls) == 3


# -- the CLI reads each instance file once -----------------------------------------------


@pytest.fixture
def opened(monkeypatch):
    paths = []
    real = builtins.open

    def counted(file, *args, **kwargs):
        paths.append(os.fspath(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    return paths


def test_cli_reads_an_instance_file_once(tmp_path, opened, Q):
    doc = instance_to_json(example1_instance(Q))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    code, rep = run_cli(["solve", str(good)])
    assert code == 0 and opened.count(str(good)) == 1
    assert rep["instance_digest"] == instance_digest(doc)
    # an instance that fails to load is read again, so its digest is still reported
    bad_doc = dict(doc, r=["4", "x", "2", "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_doc))
    code, rep = run_cli(["solve", str(bad)])
    assert code == 2 and rep["result"]["error"] == "InvalidInstance"
    assert rep["instance_digest"] == instance_digest(bad_doc) and opened.count(str(bad)) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    code, rep = run_cli(["solve", str(broken)])
    assert code == 2 and rep["instance_digest"] is None


def test_bad_rho_is_reported_for_each_file_with_its_digest(tmp_path, opened, Q, Qi):
    docs = {"a.json": instance_to_json(example1_instance(Q)), "b.json": instance_to_json(example1_instance(Qi))}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "c.json").write_text("{broken")
    for rho in ("abc", "1/0", "0.5", "1e-30000"):
        code, rep = run_cli(["smallcoef", "--dir", str(tmp_path), "--rho", rho])
        assert code == 2 and len(rep["reports"]) == 3, rho
        for r in rep["reports"]:
            assert r["exit_code"] == "2" and r["result"] == {
                "error": "InvalidInstance",
                "message": f"--rho {rho!r} is not a rational number",
            }, rho
            name = os.path.basename(r["command"]["file"])
            assert r["instance_digest"] == (instance_digest(docs[name]) if name in docs else None), rho
    # the option is read before the instance, whose file is then read once, for its digest
    read = sorted(os.path.basename(p) for p in opened if p.endswith(".json"))
    assert read == sorted(["a.json", "b.json", "c.json"] * 4)


# -- exponent and decimal notation are invalid input, answered at once ---------------------


def test_exponent_notation_is_invalid_input_quickly(tmp_path, Q):
    doc = instance_to_json(example1_instance(Q))
    for i, entry in enumerate(("1e20000", "1e2000000")):
        lam = {"num": [[entry]], "den": [["1"]]}
        path = tmp_path / f"exponent-{i}.json"
        path.write_text(json.dumps(dict(doc, lambdas=[lam, *doc["lambdas"][1:]])))
        for args in (["certify", str(path)], ["solve", str(path)]):
            started = time.monotonic()
            proc = run_subprocess(args, timeout=20)
            assert time.monotonic() - started < 10, args
            assert proc.returncode == 2 and proc.stderr == "", (args, proc.stderr[-300:])
            message = f"malformed instance value: Invalid literal for Fraction: {entry!r}"
            assert json.loads(proc.stdout)["result"] == {"error": "InvalidInstance", "message": message}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    started = time.monotonic()
    proc = run_subprocess(["smallcoef", str(good), "--rho", "1e-30000"], timeout=20)
    assert time.monotonic() - started < 10
    assert proc.returncode == 2 and proc.stderr == "", proc.stderr[-300:]
    assert json.loads(proc.stdout)["result"]["message"] == "--rho '1e-30000' is not a rational number"


def test_decimal_entries_are_invalid_input(tmp_path, Q):
    doc = instance_to_json(example1_instance(Q))
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(dict(doc, f={"num": [[], ["0.5"]], "den": [["1"]]})))
    code, rep = run_cli(["solve", str(path)])
    assert code == 2 and rep["result"]["message"] == "malformed instance value: Invalid literal for Fraction: '0.5'"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    code, rep = run_cli(["smallcoef", str(good), "--rho", "0.5"])
    assert code == 2 and rep["result"]["message"] == "--rho '0.5' is not a rational number"


def test_unparsable_json_documents_are_invalid_input(tmp_path, Q):
    # json raises a plain ValueError for an integer of more than 4300 digits and
    # a RecursionError for deep nesting, neither of them a JSONDecodeError
    long_integer = json.dumps(instance_to_json(example1_instance(Q))).replace('"r": ["4"', '"r": [' + "1" * 5000, 1)
    cases = {
        "long-integer.json": (long_integer, "invalid JSON: Exceeds the limit (4300 digits)"),
        "deep.json": ("[" * 100000 + "]" * 100000, "invalid JSON: maximum recursion depth exceeded"),
    }
    for name, (text, message) in cases.items():
        (tmp_path / name).write_text(text)
        code, rep = run_cli(["solve", str(tmp_path / name)])
        assert code == 2 and rep["result"]["error"] == "InvalidInstance" and rep["instance_digest"] is None, name
        assert rep["result"]["message"].startswith(message), rep["result"]["message"]
    code, rep = run_cli(["solve", "--dir", str(tmp_path)])
    assert code == 2 and [r["exit_code"] for r in rep["reports"]] == ["2", "2"]
