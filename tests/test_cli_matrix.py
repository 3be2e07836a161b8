"""Golden CLI matrix: the JSON reports of a fixed command set against recorded digests.

Per seed 0-19 of the `small`, `dep-heavy` and `charp` profiles the matrix
runs gen, solve, `certify --k-bound 100`, `smallcoef --rho 1/2`,
`local --a 6` and `local --a 12 --k-bound 100`, then `certify --k-bound 100
--dir` over a directory of its seeds 0-4 and a `gen` into a missing
directory (an error report).  It also runs `verify` of every suite at seeds
0-2, and of the lemma suites claimD and claimI at seeds 3-19 as well, with
`--count 4`, and one `verify --count 0` (an error report).  Each report, with
`timing_ms` dropped and the instance or directory path replaced by a
placeholder, is hashed (sha256 of its sorted-key JSON) and compared with
`tests/cli_matrix.json`.

`python tests/test_cli_matrix.py` rewrites that file from the current code.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

import pytest

from skolemff import cli
from skolemff.verify_suites import SUITES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_matrix.json")
PROFILES = ("small", "dep-heavy", "charp")
SEEDS = range(20)
INSTANCE_COMMANDS = {
    "solve": ["solve"],
    "certify": ["certify", "--k-bound", "100"],
    "smallcoef": ["smallcoef", "--rho", "1/2"],
    "local-6": ["local", "--a", "6"],
    "local-12": ["local", "--a", "12", "--k-bound", "100"],
}
VERIFY_SEEDS = range(3)
LEMMA_SUITES, LEMMA_SEEDS = ("claimD", "claimI"), range(3, 20)
BATCH_SEEDS = range(5)


def _digest(argv: list[str], path: str | None = None) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    text = out.getvalue()
    if path is not None:
        text = text.replace(path, "<instance>")
    doc = json.loads(text)
    for report in doc.get("reports", [doc]):  # a --dir run's reports, or the one report
        report.pop("timing_ms")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_group(group: str, workdir: str) -> dict[str, str]:
    """{run label: report digest} for one profile of the matrix, or for "verify"."""
    if group == "verify":
        runs = [(suite, seed) for suite in SUITES for seed in VERIFY_SEEDS]
        runs += [(suite, seed) for suite in LEMMA_SUITES for seed in LEMMA_SEEDS]
        out = {
            f"verify/{suite}/{seed}": _digest(["verify", suite, "--seed", str(seed), "--count", "4"])
            for suite, seed in runs
        }
        out["verify/smt/count-0"] = _digest(["verify", "smt", "--seed", "0", "--count", "0"])
        return out
    out = {}
    for seed in SEEDS:
        path = os.path.join(workdir, f"{group}-{seed}.json")
        out[f"{group}/{seed}/gen"] = _digest(["gen", "--seed", str(seed), "--profile", group, "--out", path], path)
        for name, argv in INSTANCE_COMMANDS.items():
            out[f"{group}/{seed}/{name}"] = _digest([*argv, path], path)
    batch = os.path.join(workdir, f"{group}-batch")
    os.mkdir(batch)
    for seed in BATCH_SEEDS:
        shutil.copy(os.path.join(workdir, f"{group}-{seed}.json"), batch)
    out[f"{group}/batch/certify"] = _digest(["certify", "--k-bound", "100", "--dir", batch], batch)
    missing = os.path.join(workdir, "missing", f"{group}.json")
    out[f"{group}/gen-unwritable"] = _digest(["gen", "--seed", "0", "--profile", group, "--out", missing], missing)
    return out


def _golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", [*PROFILES, "verify"])
def test_cli_reports_match_the_recorded_digests(group, tmp_path):
    want = {k: v for k, v in _golden().items() if k.split("/")[0] == group}
    got = run_group(group, str(tmp_path))
    assert got.keys() == want.keys()
    assert [k for k in got if got[k] != want[k]] == []


def test_the_matrix_has_419_runs():
    verify = len(SUITES) * len(VERIFY_SEEDS) + len(LEMMA_SUITES) * len(LEMMA_SEEDS) + 1
    per_profile = len(SEEDS) * (1 + len(INSTANCE_COMMANDS)) + 2
    assert len(_golden()) == len(PROFILES) * per_profile + verify == 419


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {k: v for group in (*PROFILES, "verify") for k, v in run_group(group, tmp).items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
