import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

import skolemff
from skolemff import INFINITY, Place, PlaceSet, Polynomial, PowerSumInstance, RationalFunction, cli, smallcoef
from skolemff.cli import _build_parser, main
from skolemff.errors import InvalidInstance
from skolemff.generate import generate_instance
from skolemff.serialize import (
    canonical_dumps,
    instance_digest,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    stringify_numbers,
)
from conftest import example1_instance, example2_instance, one_ru


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("profile", ["small", "dep-heavy", "charp"])
def test_instance_round_trip(profile):
    for seed in range(6):
        inst, meta = generate_instance(seed, profile)
        doc = instance_to_json(inst, meta)
        inst2 = instance_from_json(doc)
        assert instance_to_json(inst2, meta) == doc


def test_round_trip_files(tmp_path, Q, Qi):
    for inst in (example1_instance(Q), example2_instance(Q), example1_instance(Qi)):
        path = tmp_path / "inst.json"
        doc = save_instance(inst, str(path), {"name": "x"})
        loaded, doc2 = load_instance(str(path))
        assert instance_to_json(loaded, {"name": "x"}) == doc == doc2


def test_epsilon_pair_semantics(Q, Qi):
    # [order, exponent] means zeta_order^exponent with the exact order recomputed
    doc = instance_to_json(example1_instance(Qi))
    inst = instance_from_json(doc)
    assert sorted(e.order for e in inst.epsilons) == [1, 1, 2, 2]
    doc["epsilons"] = [["4", "1"], ["4", "2"], ["4", "3"], ["1", "0"]]
    inst2 = instance_from_json(doc)
    assert sorted(e.order for e in inst2.epsilons) == [1, 2, 4, 4]


def test_epsilon_declared_order_verified():
    inst, _ = generate_instance(0, "charp")
    doc = instance_to_json(inst)
    doc["epsilons"][0] = {"order": "4", "value": ["1"]}  # wrong order for 1
    with pytest.raises(InvalidInstance):
        instance_from_json(doc)


def test_place_validation(Q):
    doc = instance_to_json(example1_instance(Q))
    doc["S"][0] = {"type": "finite", "poly": [["-1"], ["0"], ["1"]]}  # t^2 - 1 reducible
    with pytest.raises(InvalidInstance):
        instance_from_json(doc)


def test_invalid_instance_rejected(Q):
    doc = instance_to_json(example1_instance(Q))
    doc["f"] = {"num": [["1"], ["1"]], "den": [["1"]]}  # t + 1 is not an S-unit
    with pytest.raises(InvalidInstance):
        instance_from_json(doc)


def test_digest_and_stringify(Q):
    doc = instance_to_json(example1_instance(Q))
    d1 = instance_digest(doc)
    assert d1.startswith("sha256:") and d1 == instance_digest(json.loads(canonical_dumps(doc)))
    out = stringify_numbers({"a": 5, "b": [1, None, True, "x"]})
    assert out == {"a": "5", "b": ["1", None, True, "x"]}


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def instance_dir(tmp_path, Q, Qi):
    p1 = tmp_path / "example-1.json"
    save_instance(example1_instance(Q), str(p1), {"name": "example-1"})
    p1g = tmp_path / "example-1-zeta4.json"
    save_instance(example1_instance(Qi), str(p1g), {"name": "example-1-zeta4"})
    p2 = tmp_path / "translated-example-2.json"
    save_instance(example2_instance(Q), str(p2), {"name": "translated-example-2"})
    return tmp_path


def test_cli_solve(instance_dir):
    code, rep = run_cli(["solve", str(instance_dir / "translated-example-2.json")])
    assert code == 0
    assert rep["result"]["global_zero"] == "-1" and rep["result"]["verified_zero"] is True
    code, rep = run_cli(["solve", str(instance_dir / "example-1.json")])
    assert code == 0 and rep["result"]["global_zero"] is None
    assert rep["instance_digest"].startswith("sha256:")


def test_cli_local(instance_dir):
    code, rep = run_cli(["local", str(instance_dir / "translated-example-2.json"), "--a", "4"])
    assert code == 0 and rep["result"]["witness"] == "3"
    code, rep = run_cli(["local", str(instance_dir / "example-1.json"), "--a", "72", "--k-bound", "200"])
    assert code == 0 and rep["result"]["witness"] is None


def test_cli_certify(instance_dir):
    code, rep = run_cli(["certify", str(instance_dir / "example-1-zeta4.json")])
    assert code == 0
    assert rep["result"]["verdict"] == "LocalObstruction"
    assert rep["result"]["a"] == "72"
    assert rep["result"]["theorem_violation"] is False
    # over Q the companion does not split: inconclusive, exit 3
    code, rep = run_cli(["certify", str(instance_dir / "example-1.json"), "--k-bound", "20"])
    assert code == 3 and rep["result"]["verdict"] == "InconclusiveWithinBounds"


def test_cli_certify_witness_without_complete_split(tmp_path, Q):
    """B(n) = t^{8n} - t^4 over Q: its class does not split over K, so the lemmas'
    hypotheses are unmet and a local witness is no theorem violation."""
    t = RationalFunction.t(Q)
    S = PlaceSet([Place(Polynomial.t(Q)), INFINITY])
    inst = PowerSumInstance((RationalFunction.one(Q), -(t**4)), (one_ru(Q),) * 2, (8, 0), t, S)
    path = tmp_path / "degree-8-remainder.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    code, rep = run_cli(["certify", str(path), "--k-bound", "100"])
    res = rep["result"]
    assert code == 3 and res["verdict"] == "InconclusiveWithinBounds"
    assert res["theorem_violation"] is False and res["local_witness"] == "5"
    assert "class 0: companion does not split over K (degree 8 remainder)" in res["notes"]
    assert any("hypotheses are unmet" in note for note in res["notes"])


def test_cli_smallcoef(instance_dir):
    code, rep = run_cli(["smallcoef", str(instance_dir / "example-1.json"), "--rho", "1/10", "--k-bound", "200"])
    assert code == 0
    assert rep["result"]["e"] == "6" and rep["result"]["a"] == "72"
    assert rep["result"]["status"] == "consistent_no_witness"


def test_cli_gen_and_reload(tmp_path):
    out = tmp_path / "gen.json"
    code, rep = run_cli(["gen", "--seed", "5", "--profile", "small", "--out", str(out)])
    assert code == 0 and out.exists()
    inst, _ = load_instance(str(out))
    code2, rep2 = run_cli(["gen", "--seed", "5", "--profile", "small", "--out", str(tmp_path / "gen2.json")])
    assert rep["result"]["instance"] == rep2["result"]["instance"]


def test_gen_profile_guarantees(tmp_path):
    from skolemff import deg_ins
    from skolemff.powersum import split_dep_ind

    for seed in range(4):
        # dep-heavy: at least one dependent companion root by construction
        out = tmp_path / f"dep{seed}.json"
        run_cli(["gen", "--seed", str(seed), "--profile", "dep-heavy", "--out", str(out)])
        inst, _ = load_instance(str(out))
        assert split_dep_ind(inst, 0).dep
        # charp: inseparability degree above 1 by construction
        outp = tmp_path / f"charp{seed}.json"
        run_cli(["gen", "--seed", str(seed), "--profile", "charp", "--out", str(outp)])
        instp, _ = load_instance(str(outp))
        assert instp.field.char in (3, 5) and deg_ins(instp.f) > 1


def test_cli_verify_exit_code_and_payload():
    code, rep = run_cli(["verify", "gauss", "--seed", "1", "--count", "15"])
    assert code == 0
    assert rep["result"]["violations"] == "0"
    assert rep["result"]["checked"] == "15"


def _result_and_record(monkeypatch, library_fn: str, argv):
    """The report's result for argv, and the record that `cli.<library_fn>` returned to it."""
    records = []
    real = getattr(cli, library_fn)
    monkeypatch.setattr(cli, library_fn, lambda *a, **kw: records.append(real(*a, **kw)) or records[-1])
    _, rep = run_cli(argv)
    (record,) = records
    return rep["result"], record


def _field_names(record) -> set[str]:
    return {f.name for f in dataclasses.fields(record)}


def test_each_report_holds_its_record_fields(instance_dir, tmp_path, monkeypatch):
    """A report's result keys are its record's fields, less the documented exceptions of the
    module docstring: `s_work` only when set, `conclusion` only when set and without `detail`."""
    for name, has_zero in (("translated-example-2", True), ("example-1-zeta4", False)):
        result, rep = _result_and_record(monkeypatch, "certify_local_global", ["certify", str(instance_dir / f"{name}.json")])
        assert (rep.global_zero is not None) == has_zero
        assert set(result) == _field_names(rep) - ({"s_work"} if rep.s_work is None else set())
        assert [set(cc) for cc in result["per_class"]] == [_field_names(cc) for cc in rep.per_class]
        checks = [set(r) for cc in result["per_class"] for r in cc["lemma_checks"]]
        assert checks == [_field_names(r) for r in rep.lemma_checks]
        assert bool(checks) != has_zero, name  # the certificate runs the lemma checks
    statuses = set()
    for seed, patch_violation in ((0, False), (1, False), (64, False), (64, True)):
        path = str(tmp_path / f"charp-{seed}.json")
        run_cli(["gen", "--seed", str(seed), "--profile", "charp", "--out", path])
        if patch_violation:  # never expected: a conclusion that fails its check
            real = smallcoef.conclude_from_witness
            fake = lambda *a: dataclasses.replace(real(*a), verified=False, theorem_violation=True)
            monkeypatch.setattr(smallcoef, "conclude_from_witness", fake)
        result, rep = _result_and_record(monkeypatch, "smallcoef_end_to_end", ["smallcoef", path, "--rho", "1/2"])
        statuses.add(rep.status)
        if rep.conclusion is None:
            assert set(result) == _field_names(rep) - {"conclusion"}
        else:
            assert set(result) == _field_names(rep)
            assert set(result["conclusion"]) == _field_names(rep.conclusion) - {"detail"}
    assert statuses == {"rejected_growth", "consistent_no_witness", "witness_verified", "theorem_violation"}
    result, res = _result_and_record(monkeypatch, "run_suite", ["verify", "claimD", "--seed", "3", "--count", "4"])
    assert set(result) == _field_names(res)


def test_cli_determinism(instance_dir):
    def strip(rep):
        rep = dict(rep)
        rep.pop("timing_ms")
        return rep

    a = run_cli(["solve", str(instance_dir / "example-1.json")])[1]
    b = run_cli(["solve", str(instance_dir / "example-1.json")])[1]
    assert strip(a) == strip(b)
    va = run_cli(["verify", "smt", "--seed", "4", "--count", "10"])[1]
    vb = run_cli(["verify", "smt", "--seed", "4", "--count", "10"])[1]
    assert strip(va) == strip(vb)


def _exit_of(parse, argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of a parse that exits, as for a bad argv, -h or a missing command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_cli_main_reuses_one_parser_across_calls(instance_dir, monkeypatch):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        rep = json.loads(out.getvalue()) if out.getvalue() else None
        if rep is not None:
            rep.pop("timing_ms")
        return code, rep, err.getvalue()

    calls = (
        ["verify", "smt", "--seed", "4", "--count", "5"],
        ["solve", "--no-such-flag"],
        ["solve", str(instance_dir / "translated-example-2.json")],
    )
    in_sequence = [call(argv) for argv in calls]
    assert _build_parser.cache_info().currsize == 1
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(call(argv))
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 2, 0]
    assert "unrecognized arguments: --no-such-flag" in alone[1][2]

    # main hands argv[1:] to the named command's subparser when that consumes
    # every argument: the namespace it acts on is the top-level parser's, and
    # every other argv exits with the top-level parser's output and code
    monkeypatch.setenv("COLUMNS", "80")
    path = str(instance_dir / "translated-example-2.json")
    valid = [
        ["gen", "--seed", "0", "--profile", "small", "--out", str(instance_dir / "gen-0.json")],
        ["solve", path],
        ["certify", "--k-bound", "100", path],
        ["smallcoef", "--rho", "1/2", path],
        ["local", "--a", "6", path],
        ["local", "--a", "12", "--k-bound", "100", path],
        ["certify", "--k-bound", "100", "--dir", str(instance_dir)],
        ["verify", "smt", "--seed", "0", "--count", "1"],
        ["verify", "smt", "--seed", "0", "--count", "0"],
        ["solve", "--dir", str(instance_dir)],
        ["certify", path, "--k", "5"],  # an abbreviation of --k-bound
        ["solve"],  # no file: main exits 2 after parsing
    ]
    bad = [
        ["solve", path, "--bogus"],
        ["smallcoef", path],
        ["certify", path, "--k-bound", "abc"],
        ["local", path, "--a"],
        ["verify", "nosuch", "--seed", "0", "--count", "1"],
        ["nosuch", path],
        [],
        ["-h"],
        ["solve", "-h"],
    ]
    top, parse, seen = _build_parser(), cli._parse_args, []

    def spy(argv):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(cli, "_parse_args", spy)
    for argv in valid:
        want = top.parse_args(argv)
        seen.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
        assert seen == [want], argv
    for argv in bad:
        assert _exit_of(main, argv) == _exit_of(top.parse_args, argv), argv
    # the valid forms take the subparser alone; the top-level parser reads none of them
    with monkeypatch.context() as m:
        m.setattr(top, "parse_args", lambda argv: pytest.fail(f"top-level parse of {argv}"))
        for argv in valid:
            parse(argv)
        m.setattr(sys, "argv", ["skolemff", *valid[1]])
        assert parse(None).file == path

    # `python -m skolemff.cli` calls main(None), which reads the same argv from sys.argv
    argv = bad[0]
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "skolemff.cli", *argv], capture_output=True, text=True, timeout=30, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == _exit_of(top.parse_args, argv)
    assert proc.returncode == 2 and "unrecognized arguments: --bogus" in proc.stderr


def test_importing_the_cli_builds_nothing():
    # a CLI process pays at import only for imports: the parser and the field
    # tables are built on first use, and the parser on the first main call
    code = (
        "import contextlib, io\n"
        "import skolemff.cli as cli\n"
        "from skolemff.constants import field_for\n"
        "print(cli._build_parser.cache_info().currsize, field_for.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', 'smt', '--seed', '0', '--count', '0'])\n"
        "print(cli._build_parser.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 0", "1", ""]


def test_cli_batch_dir(instance_dir):
    code, rep = run_cli(["solve", "--dir", str(instance_dir)])
    assert code == 0
    names = [r["command"]["file"] for r in rep["reports"]]
    assert names == sorted(names) and len(names) == 3
    by_name = {os.path.basename(r["command"]["file"]): r for r in rep["reports"]}
    assert by_name["translated-example-2.json"]["result"]["global_zero"] == "-1"
    assert by_name["example-1.json"]["result"]["global_zero"] is None


def test_cli_exit_codes(tmp_path, instance_dir, Q):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, rep = run_cli(["solve", str(bad)])
    assert code == 2 and rep["exit_code"] == "2"
    missing = tmp_path / "missing.json"
    code, rep = run_cli(["solve", str(missing)])
    assert code == 2
    # invalid instance content
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"field": {"characteristic": "0"}, "f": {"num": [["1"]]}}))
    code, rep = run_cli(["solve", str(bad2)])
    assert code == 2
    # malformed shapes are invalid input, not a traceback
    good = instance_to_json(example1_instance(Q))
    for name, patch in (("place", {"S": ["oops"]}), ("field", {"field": "Q"})):
        path = tmp_path / f"bad-{name}.json"
        path.write_text(json.dumps(dict(good, **patch)))
        code, rep = run_cli(["solve", str(path)])
        assert code == 2 and rep["result"]["error"] == "InvalidInstance", name
    # genus is an integer field like the others: zero in any integer form is K = F(t)
    for genus, message in (("0", None), (0, None), ("00", None), ("7", "genus 7 declared"), (1, "genus 1 declared"),
                           (True, "expected an integer, got true")):
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(dict(good, genus=genus)))
        code, rep = run_cli(["solve", str(path)])
        if message is None:
            assert code == 0 and "error" not in rep["result"], genus
        else:
            assert code == 2 and rep["result"]["error"] == "InvalidInstance", genus
            assert rep["result"]["message"].startswith(message), genus
    # a constant with a zero denominator is invalid input, alone and inside a --dir batch
    batch = tmp_path / "zero-denominator"
    batch.mkdir()
    (batch / "bad.json").write_text(json.dumps(dict(good, f={"num": [["1/0"]]})))
    (batch / "good.json").write_text(json.dumps(good))
    code, rep = run_cli(["solve", str(batch / "bad.json")])
    assert code == 2 and rep["result"]["error"] == "InvalidInstance"
    code, rep = run_cli(["solve", "--dir", str(batch)])
    assert code == 2 and [r["exit_code"] for r in rep["reports"]] == ["2", "0"]
    # batch dir aggregates the worst code
    code, rep = run_cli(["solve", "--dir", str(tmp_path)])
    assert code == 2
    # a bad --rho is invalid input for each file, and a --dir batch still runs every file
    ex1 = str(instance_dir / "example-1.json")
    for rho in ("abc", "1/0"):
        code, rep = run_cli(["smallcoef", ex1, "--rho", rho])
        assert code == 2 and rep["result"]["error"] == "InvalidInstance", rho
        code, rep = run_cli(["smallcoef", "--dir", str(tmp_path), "--rho", rho])
        assert code == 2 and len(rep["reports"]) == len(list(tmp_path.glob("*.json")))
        assert {r["exit_code"] for r in rep["reports"]} == {"2"}
    code, rep = run_cli(["smallcoef", ex1, "--rho", "1/2"])
    assert code == 0 and rep["command"] == {"cmd": "smallcoef", "file": ex1, "k_bound": "100", "rho": "1/2"}
    # unreadable or unwritable paths outside an instance file
    missing_dir = str(tmp_path / "no-such-dir")
    for argv in (
        ["gen", "--seed", "0", "--profile", "charp", "--out", os.path.join(missing_dir, "x.json")],
        ["solve", "--dir", missing_dir],
    ):
        code, rep = run_cli(argv)
        assert code == 2 and rep["exit_code"] == "2" and rep["result"]["error"] == "OSError", argv
    # a --k-bound or --count below 1 is invalid input on every instance, not an empty answer
    small10 = str(tmp_path / "small-10.json")
    assert run_cli(["gen", "--seed", "10", "--profile", "small", "--out", small10])[0] == 0
    charp0 = str(tmp_path / "charp-0.json")
    assert run_cli(["gen", "--seed", "0", "--profile", "charp", "--out", charp0])[0] == 0
    for argv in (
        ["certify", small10, "--k-bound", "0"],
        ["smallcoef", charp0, "--rho", "1/2", "--k-bound", "0"],
        ["local", small10, "--a", "1", "--k-bound", "0"],
        ["verify", "smt", "--seed", "0", "--count", "-1"],
        ["verify", "smt", "--seed", "0", "--count", "0"],
    ):
        code, rep = run_cli(argv)
        assert code == 2 and rep["result"]["error"] == "InvalidInstance", argv


def test_k_bound_below_one_names_the_option(tmp_path):
    # certify and smallcoef check only k_bound; local checks a as well
    small10, charp0 = str(tmp_path / "small-10.json"), str(tmp_path / "charp-0.json")
    assert run_cli(["gen", "--seed", "10", "--profile", "small", "--out", small10])[0] == 0
    assert run_cli(["gen", "--seed", "0", "--profile", "charp", "--out", charp0])[0] == 0
    for argv, message in (
        (["certify", small10, "--k-bound", "0"], "k_bound must be positive"),
        (["smallcoef", charp0, "--rho", "1/2", "--k-bound", "0"], "k_bound must be positive"),
        (["local", small10, "--a", "1", "--k-bound", "0"], "a and k_bound must be positive"),
    ):
        code, rep = run_cli(argv)
        assert code == 2 and rep["result"] == {"error": "InvalidInstance", "message": message}, argv


def _readme_example() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1)


def _mutate(doc: str, *edits: tuple[str, str]) -> str:
    for old, new in edits:
        assert old in doc, old
        doc = doc.replace(old, new, 1)
    return doc


def _solve_quietly(path) -> tuple[int, dict, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    return code, json.loads(out.getvalue()), err.getvalue()


def test_overflowing_instance_values_are_invalid_input(tmp_path):
    # JSON reads 1e400 as float inf, which int() cannot convert, and a float or
    # boolean where the format has an integer is malformed (int(4.5) would
    # silently solve r = 4): invalid input, not a traceback
    example = _readme_example()
    # the same instance over F_3 with its epsilons as {order, value}
    charp = ('"characteristic": "0", "cyclotomic_order": "1"', '"characteristic": "3", "extension_degree": "1"')
    charp_eps = ('["2", "1"], ["2", "1"]', '{"order": "2", "value": ["2"]}, {"order": "2", "value": ["2"]}')
    mutations = {
        "r": [('"r": ["4"', '"r": [1e400')],
        "epsilon-order": [('["2", "1"]', '[1e400, "1"]')],
        "characteristic": [('"characteristic": "0"', '"characteristic": 1e400')],
        "r-float": [('"r": ["4"', '"r": [4.5')],
        "r-integral-float": [('"r": ["4"', '"r": [4.0')],
        "r-boolean": [('"r": ["4", "3", "2", "1"]', '"r": ["4", "3", "2", true]')],
        "epsilon-exponent-float": [('["2", "1"]', '["2", 1.0]')],
        "epsilon-order-boolean": [('["2", "1"]', '[true, "1"]')],
        "characteristic-float": [('"characteristic": "0"', '"characteristic": 0.0')],
        "cyclotomic-order-float": [('"cyclotomic_order": "1"', '"cyclotomic_order": 4.0')],
        "extension-degree-float": [charp, ('"extension_degree": "1"', '"extension_degree": 1.0')],
        "declared-epsilon-order-float": [charp, charp_eps, ('"order": "2"', '"order": 2.0')],
        # inside a constant vector: Fraction(0.1) is the binary double, int(1.5) is 1
        "constant-float": [('"num": [["1"]]', '"num": [[0.1]]')],
        "constant-boolean": [('"num": [["1"]]', '"num": [[true]]')],
        "charp-constant-float": [charp, charp_eps, ('"num": [["1"]]', '"num": [[1.5]]')],
        "charp-constant-boolean": [charp, charp_eps, ('"num": [["1"]]', '"num": [[true]]')],
        # a constant is a JSON array: a bare string is not read as its characters
        "constant-string": [('"num": [["1"]]', '"num": ["7"]')],
        "constant-string-cyclotomic": [
            ('"cyclotomic_order": "1"', '"cyclotomic_order": "4"'), ('"num": [["1"]]', '"num": ["12"]'),
        ],
        "epsilon-value-string": [('["1", "0"]', '{"order": "1", "value": "1"}')],
        # r, lambdas, epsilons and S are JSON arrays: a string or an object is not
        # read as its characters or keys ("1234" would solve r = 1, 2, 3, 4)
        "r-string": [('"r": ["4", "3", "2", "1"]', '"r": "1234"')],
        "r-object": [('"r": ["4", "3", "2", "1"]', '"r": {"4": "a", "3": "b", "2": "c", "1": "d"}')],
        "lambdas-object": [('"lambdas": [', '"lambdas": {"x": ['), ('}],\n  "epsilons"', '}]},\n  "epsilons"')],
        "epsilons-string": [('"epsilons": [["1", "0"], ["1", "0"], ["2", "1"], ["2", "1"]]', '"epsilons": "1122"')],
        "S-object": [('"S": [{"type": "finite", "poly": [[], ["1"]]}, {"type": "infinity"}]', '"S": {"type": "infinity"}')],
        # the 2^61 cap is checked before primality, which is undecided that far up
        "characteristic-31-digits": [(charp[0], '"characteristic": "1000000000000000000000000000057"')],
        "characteristic-prime-above-cap": [(charp[0], f'"characteristic": "{2**61 + 15}"')],
    }
    for name, edits in mutations.items():
        path = tmp_path / f"overflow-{name}.json"
        path.write_text(_mutate(example, *edits))
        code, rep, err = _solve_quietly(path)
        assert code == 2 and rep["result"]["error"] == "InvalidInstance" and err == "", name
    # decimal strings, and the F_3 form the float mutations start from, are valid
    for edits in ([], [charp], [charp, charp_eps]):
        path = tmp_path / "valid.json"
        path.write_text(_mutate(example, *edits))
        code, rep, err = _solve_quietly(path)
        assert code == 0 and "error" not in rep["result"], edits
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "example-1.json").write_text(example)
    (batch / "overflow-r.json").write_text((tmp_path / "overflow-r.json").read_text())
    code, rep = run_cli(["solve", "--dir", str(batch)])
    assert code == 2
    assert [(os.path.basename(r["command"]["file"]), r["exit_code"]) for r in rep["reports"]] == [
        ("example-1.json", "0"),
        ("overflow-r.json", "2"),
    ]
    assert rep["reports"][0]["result"] == {"global_zero": None}


def test_oversized_fields_hit_the_degree_cap_at_load(tmp_path):
    # phi(100000) = 40000 and F_{3^200} are far above SKOLEMFF_MAX_DEGREE: the
    # load answers exit 3 naming the degree, before any field table is built.
    # An order M above 2 cap^2 is named by the bound phi(M) >= sqrt(M/2), so
    # a prime order beyond the deterministic primality range is never factored
    example = _readme_example()
    prime = "1000000000000000000000000000057"
    docs = {
        "cyclotomic.json": (
            _mutate(example, ('"cyclotomic_order": "1"', '"cyclotomic_order": "100000"')),
            r"phi\(100000\) >= sqrt\(100000/2\)",
        ),
        "prime-cyclotomic.json": (
            _mutate(example, ('"cyclotomic_order": "1"', f'"cyclotomic_order": "{prime}"')),
            rf"phi\({prime}\) >= sqrt\({prime}/2\)",
        ),
        "extension.json": (
            _mutate(
                example,
                ('"characteristic": "0", "cyclotomic_order": "1"', '"characteristic": "3", "extension_degree": "200"'),
            ),
            "200",
        ),
    }
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "example-1.json").write_text(example)
    for name, (doc, degree) in docs.items():
        (batch / name).write_text(doc)
        started = time.monotonic()
        code, rep, err = _solve_quietly(batch / name)
        assert time.monotonic() - started < 5, name
        assert code == 3 and rep["result"]["error"] == "FactorizationTooHard" and err == "", name
        assert re.fullmatch(rf"field degree {degree} exceeds SKOLEMFF_MAX_DEGREE=\d+", rep["result"]["message"]), name
    code, rep = run_cli(["solve", "--dir", str(batch)])
    assert code == 3
    assert [(os.path.basename(r["command"]["file"]), r["exit_code"]) for r in rep["reports"]] == [
        ("cyclotomic.json", "3"),
        ("example-1.json", "0"),
        ("extension.json", "3"),
        ("prime-cyclotomic.json", "3"),
    ]


def test_solve_answers_a_wide_exponent_gap_quickly(tmp_path):
    # small seed 0 with r = (0, 10^8, 1): P'_c has degree 10^8, yet the Newton
    # polygon at S leaves no exponent to test, so nothing of that degree is built
    doc = instance_to_json(*generate_instance(0, "small"))
    doc["r"] = ["0", "100000000", "1"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "skolemff.cli", "solve", str(path)], capture_output=True, text=True, timeout=10, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == {"global_zero": None}


def test_certify_caps_a_wide_exponent_gap_before_expanding_it(tmp_path):
    # the same instance: certify would build the dense P'_c with 10^8 + 1
    # coefficients, so it stops at the degree cap with exit 3 instead (run
    # under an address-space limit, so that a regression fails rather than
    # filling memory)
    doc = instance_to_json(*generate_instance(0, "small"))
    doc["r"] = ["0", "100000000", "1"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "skolemff.cli", "certify", "--k-bound", "100", str(path)],
        capture_output=True, text=True, timeout=20, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["error"] == "FactorizationTooHard"
    assert re.fullmatch(r"class 0: companion degree 100000000 exceeds SKOLEMFF_MAX_DEGREE=\d+", result["message"])


@pytest.mark.parametrize("seed", [16, 129])
def test_certify_settles_the_slow_small_seeds_quickly(tmp_path, seed):
    # every companion root search here ends with a rootless remainder; trying
    # every divisor pair of its end coefficients took 1.6 s (seed 16) and 50 s
    # (seed 129) in process; the Newton polygons leave at most one per class
    path = tmp_path / f"small-{seed}.json"
    inst, meta = generate_instance(seed, "small")
    save_instance(inst, str(path), meta)
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "skolemff.cli", "certify", "--k-bound", "100", str(path)],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["result"]["verdict"] == "InconclusiveWithinBounds"


def test_certify_strips_high_powers_of_t_quickly(tmp_path):
    # small seed 184 strips the place t from polynomials of t-order up to 1296;
    # one long division per factor of t took 49 s in process, reading v_t off
    # the zero bottom rows takes none
    path = tmp_path / "small-184.json"
    inst, meta = generate_instance(184, "small")
    save_instance(inst, str(path), meta)
    src = os.path.dirname(os.path.dirname(os.path.abspath(skolemff.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "skolemff.cli", "certify", "--k-bound", "100", str(path)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["verdict"] == "LocalObstruction"


def test_readme_library_sketch_runs():
    # the README's python block runs as written, and every expression statement
    # gives the result written in its trailing comment
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    lines, namespace, checked = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            want = lines[stmt.end_lineno - 1].split("#", 1)[1].split()[0]
            assert eval(code, namespace) == ast.literal_eval(want), code
            checked.append(want)
        else:
            exec(code, namespace)
    assert checked == ["-1", "4", "True"]


def test_readme_cli_flags_exist_in_the_parser():
    # every --flag on a `skolemff <cmd>` line of the README is an option of that subcommand
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = [m.groups() for m in re.finditer(r"^\$? *skolemff (\w+)([^#\n]*)", fh.read(), re.M)]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {cmd for cmd, _ in lines} == set(sub.choices)
    for cmd, rest in lines:
        for flag in re.findall(r"--[\w-]+", rest):
            assert flag in sub.choices[cmd]._option_string_actions, (cmd, flag)
