"""The four workloads: which operations they run and how each answer is checked.

Every workload is a pool of CLI operations in two parts:

* the reference part, generated from instance seeds 0, 1, 2, ...: its instance
  documents are pinned by digest and its answers are committed in
  `expected/<workload>.json`, so a change to the generator or to an answer is
  caught on every run;
* the fresh part, generated from `--seed`, checked by independent oracles:
  it keeps a speed-up honest on inputs nobody tuned against.

Per-instance cost is heavy-tailed.  On `small`, about one instance in eight
has a coefficient lambda_i of height above 12, mostly the planted-zero ones,
and some of those take from seconds to minutes, so the pools hold only
instances whose coefficients all have height <= MAX_COEFF_HEIGHT (the stated
input size).  A recording commits the reference seeds that passed the rule,
so a run never regenerates the skipped ones (one takes 10 s to generate).
Even then a pool drawn entirely from `--seed` moves throughput by more than
a usable bound from seed to seed, and a rare fresh instance within the rule
still takes 10-20 s, so the reference part holds the mix steady and the
fresh part is kept to about one operation in twenty.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from skolemff.funfield import height
from skolemff.generate import generate_instance
from skolemff.serialize import instance_digest, save_instance

from oracle import check_solve_answer

FRESH_BASE = 10_000_000  # fresh instance seeds start at FRESH_BASE * (seed + 1)
MAX_COEFF_HEIGHT = 12
SUITES = ("smt", "czgcd", "gauss", "sunit", "claimD", "claimI")
EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


@dataclass
class Op:
    argv: list[str]
    label: str
    fresh: bool
    instance: object = None  # PowerSumInstance when an oracle needs it


@dataclass
class Workload:
    name: str
    profile: str | None  # gen profile, or None for the verify suites
    flags: tuple[str, ...]
    n_reference: int
    n_fresh: int
    trace_every: int  # the traced run takes every n-th operation of the pool
    fields: tuple = field(default=())  # FieldSpec tuples when no instance declares them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-small", "small", ("solve",), 500, 25, 3),
        Workload("certify-dep-heavy", "dep-heavy", ("certify", "--k-bound", "100"), 126, 7, 3),
        Workload("smallcoef-charp", "charp", ("smallcoef", "--rho", "1/2"), 800, 40, 3),
        # --count 4: a suite cycles Q, Q(i), F_3, F_5 over its instances, and only
        # calls with at least four instances reach Cantor-Zassenhaus over F_p.
        # The traced stride 5 is coprime to the six suites, so it sees each.
        Workload(
            "verify-suites", None, ("verify", "--count", "4"), 144, 6, 5,
            fields=((0, 1, 1), (0, 4, 1), (3, 1, 1), (5, 1, 1)),
        ),
    )
}


def _draw(wl: Workload, first_seed: int, count: int):
    """Yield (instance seed, instance, metadata) for the first `count` draws within the size rule."""
    s = first_seed
    while count:
        inst, metadata = generate_instance(s, wl.profile)
        if max(height(lam) for lam in inst.lambdas) <= MAX_COEFF_HEIGHT:
            count -= 1
            yield s, inst, metadata
        s += 1


def build_ops(wl: Workload, seed: int, workdir: str, reference_seeds=None):
    """Generate the pool; returns (ops, reference instance seeds, reference digest, field specs).

    With `reference_seeds` (as committed by a recording) the reference part is
    regenerated from those seeds and the fresh part is added; without, the
    reference part is drawn afresh and no fresh part is made.
    """
    ops: list[Op] = []
    digests: list[str] = []
    specs = set(wl.fields)
    fresh_base = FRESH_BASE * (seed + 1)
    if wl.profile is None:
        parts = [(False, [(i // len(SUITES), None, None) for i in range(wl.n_reference)])]
        if reference_seeds is not None:
            parts.append((True, [(fresh_base + i, None, None) for i in range(wl.n_fresh)]))
    elif reference_seeds is None:
        parts = [(False, _draw(wl, 0, wl.n_reference))]
    else:
        regenerated = ((s, *generate_instance(s, wl.profile)) for s in reference_seeds)
        parts = [(False, regenerated), (True, _draw(wl, fresh_base, wl.n_fresh))]
    used = []
    for fresh, draws in parts:
        for i, (s, inst, metadata) in enumerate(draws):
            if inst is None:
                suite = SUITES[i % len(SUITES)]
                argv = ["verify", suite, "--seed", str(s), *wl.flags[1:]]
                digest = json.dumps(argv)
                ops.append(Op(argv, f"{suite}@{s}", fresh))
            else:
                path = os.path.join(workdir, f"{'fresh' if fresh else 'ref'}-{i}.json")
                digest = instance_digest(save_instance(inst, path, metadata))
                spec = inst.field.spec
                specs.add((spec.characteristic, spec.cyclotomic_order, spec.extension_degree))
                keep = inst if wl.profile == "small" else None
                ops.append(Op([wl.flags[0], path, *wl.flags[1:]], f"{wl.profile}#{s}", fresh, keep))
            if not fresh:
                used.append(s)
                digests.append(digest)
    digest = "sha256:" + hashlib.sha256("\n".join(digests).encode()).hexdigest()
    return ops, used, digest, sorted(specs)


def answer_of(wl: Workload, result: dict, code: int) -> dict:
    """The answer fields of one report; messages, notes and timing are dropped."""
    out: dict = {"exit_code": code}
    cmd = wl.flags[0]
    if cmd == "solve":
        out["global_zero"] = result.get("global_zero")
    elif cmd == "certify":
        out.update({k: result.get(k) for k in ("verdict", "a", "local_witness")})
        out["per_class"] = [
            {
                **{k: cc[k] for k in ("q", "p", "ell", "a", "dep_roots", "ind_roots")},
                "holds": [chk["holds"] for chk in cc["lemma_checks"]],
            }
            for cc in result.get("per_class", [])
        ]
    elif cmd == "smallcoef":
        out.update({k: result.get(k) for k in ("status", "e", "a", "witness")})
    else:
        out.update({k: result.get(k) for k in ("checked", "violations", "skipped_dependent")})
    if "error" in result:
        out["error"] = result["error"]
    return out


def independent_check(wl: Workload, op: Op, result: dict, code: int) -> str | None:
    """Checks that need no committed answer; None when the answer passes."""
    if code in (1, 2):
        return f"exit code {code}: {result.get('error', '')} {result.get('message', '')}".strip()
    cmd = wl.flags[0]
    if cmd == "solve":
        gz = result.get("global_zero")
        if gz is not None and result.get("verified_zero") is not True:
            return "global zero not verified by eval_B"
        if op.instance is not None:
            return check_solve_answer(op.instance, None if gz is None else int(gz))
    elif cmd == "certify":
        if result.get("theorem_violation"):
            return "certify reported theorem_violation"
        if (code == 3) != (result.get("verdict") == "InconclusiveWithinBounds" or "error" in result):
            return f"exit code {code} does not match verdict {result.get('verdict')}"
    elif cmd == "smallcoef":
        if result.get("status") == "theorem_violation":
            return "smallcoef status theorem_violation"
    elif result.get("violations") != "0":
        return f"verify suite reported {result.get('violations')} violations"
    return None


def expected_path(wl: Workload) -> str:
    return os.path.join(EXPECTED_DIR, f"{wl.name}.json")


def load_expected(wl: Workload) -> dict:
    with open(expected_path(wl), encoding="utf-8") as fh:
        return json.load(fh)
