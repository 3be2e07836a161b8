"""Batch CLI: instance files in, machine-readable JSON reports out.

Exit codes: 0 completed with an answer, 1 theorem violation detected (never
expected), 2 invalid input, 3 inconclusive within the configured bounds.
Reports are single JSON documents on stdout; every numeric value is a decimal
string, and `timing_ms` is the only field excluded from the determinism
contract.  The `result` of certify, smallcoef and verify holds the fields of
the record the library returns, by name, with two exceptions: certify writes
`s_work` as places and only when it is set, and smallcoef writes `conclusion`
only when it is set and without its `detail`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .constants import parse_ratio
from .errors import (
    FactorizationTooHard,
    InvalidInstance,
    PreconditionGlobalZeroExists,
    QEqualsOne,
    SkolemffError,
    UnsupportedConstantPair,
)
from .generate import PROFILES, generate_instance
from .powersum import certify_local_global, decide_global_zero, eval_B, find_local_witness
from .serialize import (
    canonical_dumps,
    instance_digest,
    load_instance,
    place_to_json,
    save_instance,
    stringify_numbers,
)
from .smallcoef import smallcoef_end_to_end
from .verify_suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _exit_code_for(exc: SkolemffError | OSError) -> int:
    if isinstance(exc, (FactorizationTooHard, UnsupportedConstantPair)):
        return EXIT_INCONCLUSIVE
    if isinstance(exc, (QEqualsOne, PreconditionGlobalZeroExists)):
        return EXIT_VIOLATION
    return EXIT_INVALID  # invalid input, or a file that cannot be read or written


def _error_result(exc: SkolemffError | OSError) -> dict:
    name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
    return {"error": name, "message": str(exc)}


def _fields(record):
    """A result record as a report: each field by name, with nested records and
    sequences of them written the same way (`stringify_numbers` renders the values)."""
    if dataclasses.is_dataclass(record):
        return {f.name: _fields(getattr(record, f.name)) for f in dataclasses.fields(record)}
    if isinstance(record, (list, tuple)):
        return [_fields(v) for v in record]
    return record


def _cmd_solve(inst) -> tuple[dict, int]:
    n = decide_global_zero(inst)
    result: dict = {"global_zero": n}
    if n is not None:
        result["verified_zero"] = eval_B(inst, n).is_zero
    return result, EXIT_OK


def _cmd_local(inst, a: int, k_bound: int) -> tuple[dict, int]:
    witness = find_local_witness(inst, a, k_bound)
    return {"a": a, "k_bound": k_bound, "witness": witness}, EXIT_OK


def _cmd_certify(inst, k_bound: int) -> tuple[dict, int]:
    """The `CertificateReport` fields; `s_work` as places, and only when set."""
    rep = certify_local_global(inst, k_bound=k_bound)
    result = _fields(rep)
    if result.pop("s_work") is not None:
        result["s_work"] = [place_to_json(p) for p in rep.s_work]
    if rep.theorem_violation:
        return result, EXIT_VIOLATION
    if rep.verdict == "InconclusiveWithinBounds":
        return result, EXIT_INCONCLUSIVE
    return result, EXIT_OK


def _rho(rho: str) -> Fraction:
    """The --rho option as a rational: an integer or "a/b" (`parse_ratio`)."""
    try:
        return Fraction(*parse_ratio(rho))
    except (ValueError, ZeroDivisionError):
        raise InvalidInstance(f"--rho {rho!r} is not a rational number") from None


def _cmd_smallcoef(inst, rho: Fraction, k_bound: int) -> tuple[dict, int]:
    """The `SmallCoefReport` fields; `conclusion` only when set, and without its `detail`."""
    rep = smallcoef_end_to_end(inst, rho, k_bound=k_bound)
    result = _fields(rep)
    conclusion = result.pop("conclusion")
    if conclusion is not None:
        del conclusion["detail"]
        result["conclusion"] = conclusion
    return result, EXIT_VIOLATION if rep.status == "theorem_violation" else EXIT_OK


def _cmd_verify(suite: str, seed: int, count: int) -> tuple[dict, int]:
    res = run_suite(suite, seed, count)
    return _fields(res), EXIT_VIOLATION if res.violations else EXIT_OK


def _cmd_gen(seed: int, profile: str, out: str) -> tuple[dict, int]:
    inst, metadata = generate_instance(seed, profile)
    doc = save_instance(inst, out, metadata)
    return {"path": out, "profile": profile, "seed": seed, "instance": doc}, EXIT_OK


def _envelope(command: dict, result: dict, code: int, started: float, digest: str | None) -> dict:
    return {
        "command": command,
        "instance_digest": digest,
        "result": result,
        "timing_ms": str(int((time.monotonic() - started) * 1000)),
        "exit_code": code,
    }


def _file_digest(path: str) -> str | None:
    """The digest of a file's JSON document, or None when it has none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return instance_digest(json.load(fh))
    except (OSError, ValueError, RecursionError):
        return None


def _run_single(handler, read_options, path: str, command: dict):
    """One report: the options are read first, so a bad one is reported for each
    file, then the file is read and parsed once for both its instance and its
    digest.  Only a file whose instance fails to load is read again, for its digest."""
    started = time.monotonic()
    digest = None
    try:
        values = read_options()
        inst, doc = load_instance(path)
        digest = instance_digest(doc)
        result, code = handler(inst, *values)
    except (SkolemffError, OSError) as exc:
        code, result = _exit_code_for(exc), _error_result(exc)
        if digest is None:
            digest = _file_digest(path)
    return _envelope(dict(command, file=path), result, code, started, digest)


_SEVERITY = {EXIT_VIOLATION: 3, EXIT_INVALID: 2, EXIT_INCONCLUSIVE: 1, EXIT_OK: 0}


def _run_instance_command(args, handler, read_options, command: dict) -> tuple[dict, int]:
    """The document of one file's report, or of every report of a --dir run, and its exit code."""
    if args.dir:
        files = sorted(os.path.join(args.dir, name) for name in os.listdir(args.dir) if name.endswith(".json"))
        reports = [_run_single(handler, read_options, path, command) for path in files]
        code = max((rep["exit_code"] for rep in reports), key=_SEVERITY.__getitem__, default=EXIT_OK)
        return {"command": command, "reports": reports}, code
    report = _run_single(handler, read_options, args.file, command)
    return report, report["exit_code"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later main() call."""
    ap = argparse.ArgumentParser(
        prog="skolemff",
        description="Exact power-sum local-global toolkit on F(t)",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_instance_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", help="instance JSON file")
        p.add_argument("--dir", help="process every *.json in a directory")
        return p

    add_instance_cmd("solve", "decide whether some B(n) vanishes identically")

    p = add_instance_cmd("local", "search a local witness k for f^a - 1")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k-bound", type=int, default=100)

    p = add_instance_cmd("certify", "run the effective local-global certification")
    p.add_argument("--k-bound", type=int, default=100)

    p = add_instance_cmd("smallcoef", "small-coefficients theorem pipeline")
    p.add_argument("--rho", type=str, required=True, help="rational rho in (0,1), e.g. 1/10")
    p.add_argument("--k-bound", type=int, default=100)

    p = sub.add_parser("verify", help="randomized theorem suites")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("--out", required=True)
    ap.command_parsers = sub.choices  # command name -> its subparser, for _parse_args
    return ap


def _parse_args(argv) -> argparse.Namespace:
    """The namespace of `_build_parser().parse_args(argv)`, read by the subparser
    argv[0] names alone when it consumes every argument.  Any other argv goes
    to the top-level parser, so usage, errors and exit codes are its own (a
    subparser's own errors and help print the same on either path)."""
    ap = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = ap.command_parsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.cmd = argv[0]
            return args
    return ap.parse_args(argv)


# Per instance command: its handler, called with the instance and the values of
# its options; the reader of those values from the arguments; and the options
# echoed in the report's command dict.
_INSTANCE_COMMANDS = {
    "solve": (_cmd_solve, lambda a: (), ()),
    "local": (_cmd_local, lambda a: (a.a, a.k_bound), ("a", "k_bound")),
    "certify": (_cmd_certify, lambda a: (a.k_bound,), ("k_bound",)),
    "smallcoef": (_cmd_smallcoef, lambda a: (_rho(a.rho), a.k_bound), ("rho", "k_bound")),
}

# Per command without an instance: its handler, called with the values of the
# options echoed in the report's command dict, in that order.
_PLAIN_COMMANDS = {
    "verify": (_cmd_verify, ("suite", "seed", "count")),
    "gen": (_cmd_gen, ("seed", "profile", "out")),
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.monotonic()
    try:
        if args.cmd in _INSTANCE_COMMANDS:
            if not args.dir and not args.file:
                raise SystemExit(2)
            handler, read_options, echoed = _INSTANCE_COMMANDS[args.cmd]
            command = {"cmd": args.cmd, **{name: getattr(args, name) for name in echoed}}
            doc, code = _run_instance_command(args, handler, lambda: read_options(args), command)
        else:
            handler, echoed = _PLAIN_COMMANDS[args.cmd]
            command = {"cmd": args.cmd, **{name: getattr(args, name) for name in echoed}}
            result, code = handler(*(command[name] for name in echoed))
            doc = _envelope(command, result, code, started, None)
    except (SkolemffError, OSError) as exc:
        code = _exit_code_for(exc)
        doc = _envelope({"cmd": args.cmd}, _error_result(exc), code, started, None)
    print(canonical_dumps(stringify_numbers(doc)))
    return code


if __name__ == "__main__":
    sys.exit(main())
