"""The layers the traced run wraps, the counts it derives, and the per-layer metrics.

Every layer is a public function or method of one skolemff module, timed from
outside by `tracer.bind`.  `WORKS_MOST_IN` is the self-check: a layer listed
for a workload must record calls there, so a wrapper that failed to bind
fails the run instead of reading as a zero.
"""

from __future__ import annotations

from skolemff import (
    cli,
    constants,
    factor,
    funfield,
    generate,
    kroots,
    multstruct,
    powersum,
    serialize,
    smallcoef,
    vd_theorems,
    verify_suites,
)
from skolemff.errors import FactorizationTooHard

from tracer import Layer, Tracer
from workloads import SUITES

BACKENDS = ("cz", "zassenhaus", "trager")


def _backend(args) -> str:
    fld = args[0].field
    kind = "cz" if fld.char else ("zassenhaus" if fld.M == 1 else "trager")
    return "factor.factor_poly." + kind


def _after_factor(tr: Tracer, frame, args, kwargs, result, exc):
    key = frame.name + ".deg_max"
    tr.counters[key] = max(tr.counters.get(key, 0), args[0].degree)
    if isinstance(exc, FactorizationTooHard):
        tr.count("factor.factor_poly.too_hard")


def _after_rf_init(tr: Tracer, frame, args, kwargs, result, exc):
    den = args[2] if len(args) > 2 else kwargs.get("den")
    rf = args[0]
    if exc is None and den is not None and not rf.num.is_zero and rf.den.degree < den.degree:
        tr.count("funfield.RationalFunction.init.reduced")


def _after_monic_divisors(tr: Tracer, frame, args, kwargs, result, exc):
    if exc is None and tr.stack:
        tr.stack[-1].notes.append(len(result))


def _after_find_roots(tr: Tracer, frame, args, kwargs, result, exc):
    sizes = frame.notes
    if len(sizes) >= 2:
        tr.count("kroots.pairs", sizes[0] * sizes[1])
    if exc is None:
        tr.count("kroots.roots", len(result.roots))


def _after_decide(tr: Tracer, frame, args, kwargs, result, exc):
    # the window is recomputed after the traced pass, outside every span
    n_bound = args[1] if len(args) > 1 else kwargs.get("n_bound")
    if exc is None and n_bound is None:
        tr.kept.append(args[0])
        if result is not None:
            tr.count("powersum.window.zeros")


def _after_smallcoef(tr: Tracer, frame, args, kwargs, result, exc):
    if exc is None and result.status == "rejected_growth":
        tr.count("smallcoef.rejected_growth")


def make_layers() -> list[Layer]:
    L = Layer
    return [
        L("constants.mul_raw", constants.Field, "mul_raw", leaf=True),
        L("constants.inv_raw", constants.Field, "inv_raw", leaf=True),
        L("funfield.RationalFunction.init", funfield.RationalFunction, "__init__", after=_after_rf_init),
        L("funfield.poly_gcd", funfield, "poly_gcd"),
        L("funfield.Polynomial.mul", funfield.Polynomial, "__mul__"),
        L("funfield.Polynomial.divmod", funfield.Polynomial, "divmod"),
        L("funfield.gcd_counting", funfield, "gcd_counting"),
        L("factor.factor_poly", factor, "factor_poly", name_of=_backend, after=_after_factor),
        L("factor.monic_divisors", factor, "monic_divisors", after=_after_monic_divisors),
        L("kroots.find_roots_in_K", kroots, "find_roots_in_K", after=_after_find_roots),
        L("multstruct.dependence_exponents", multstruct, "dependence_exponents"),
        L("powersum.class_reduction", powersum, "class_reduction"),
        L("powersum.decide_global_zero", powersum, "decide_global_zero", after=_after_decide),
        L("powersum.split_dep_ind", powersum, "split_dep_ind"),
        L("powersum.certify_local_global", powersum, "certify_local_global"),
        L("powersum.LocalChecker.setup", powersum.LocalChecker, "__init__"),
        L("powersum.LocalChecker.check", powersum.LocalChecker, "check"),
        L("powersum.find_local_witness", powersum, "find_local_witness"),
        L("powersum.eval_B", powersum, "eval_B"),
        L("smallcoef.smallcoef_end_to_end", smallcoef, "smallcoef_end_to_end", after=_after_smallcoef),
        L("vd_theorems.verify_smt", vd_theorems, "verify_smt"),
        L("vd_theorems.verify_cz_gcd", vd_theorems, "verify_cz_gcd"),
        L("vd_theorems.verify_sunit_count", vd_theorems, "verify_sunit_count"),
        L("verify_suites.run_suite", verify_suites, "run_suite", name_of=lambda a: "verify_suites.run_suite." + a[0]),
        L("generate.generate_instance", generate, "generate_instance"),
        L("serialize.load_instance", serialize, "load_instance"),
        L("cli.main", cli, "main"),
    ]


# Layers that must record calls on a workload (the "works most in" column).
# factor_poly runs on every workload: loading an instance factors each place
# of S to check that it is irreducible.
WORKS_MOST_IN = {
    "solve-small": (
        "funfield.RationalFunction.init", "funfield.poly_gcd", "powersum.class_reduction",
        "powersum.decide_global_zero", "powersum.eval_B", "serialize.load_instance", "cli.main",
    ),
    "certify-dep-heavy": (
        "constants.mul_raw", "constants.inv_raw", "factor.factor_poly.zassenhaus",
        "factor.factor_poly.trager", "kroots.find_roots_in_K", "multstruct.dependence_exponents",
        "powersum.split_dep_ind", "powersum.certify_local_global", "powersum.LocalChecker.setup",
        "powersum.LocalChecker.check", "powersum.find_local_witness",
    ),
    "smallcoef-charp": (
        "funfield.Polynomial.mul", "funfield.Polynomial.divmod", "powersum.LocalChecker.setup",
        "powersum.find_local_witness", "smallcoef.smallcoef_end_to_end",
    ),
    "verify-suites": (
        "funfield.gcd_counting", "factor.factor_poly.cz", "vd_theorems.verify_smt",
        "vd_theorems.verify_cz_gcd", "vd_theorems.verify_sunit_count", "generate.generate_instance",
        *("verify_suites.run_suite." + s for s in SUITES),
    ),
}


def window_size(inst) -> int:
    """Exponents m the decide_global_zero scan tests: sum over classes of 2W+1."""
    total = 0
    for c in range(inst.e):
        P, g = powersum.class_reduction(inst, c)
        if not P.is_zero:
            total += 2 * (funfield.poly_height(P) // funfield.height(g)) + 1
    return total


def ratio(num: float, den: float) -> float:
    """num/den; a ratio over an empty base reads 0 and is read with its base count."""
    return num / den if den else 0.0


# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("constants.mul_raw.calls", "count", "lower"),
    ("constants.mul_raw.s", "s", "lower"),
    ("constants.inv_raw.calls", "count", "lower"),
    ("constants.inv_raw.s", "s", "lower"),
    ("funfield.RationalFunction.init.calls", "count", "lower"),
    ("funfield.RationalFunction.init.self_s", "s", "lower"),
    ("funfield.RationalFunction.init.reduced_ratio", "ratio", "higher"),
    ("funfield.poly_gcd.calls", "count", "lower"),
    ("funfield.poly_gcd.self_s", "s", "lower"),
    ("funfield.Polynomial.mul.calls", "count", "lower"),
    ("funfield.Polynomial.mul.self_s", "s", "lower"),
    ("funfield.Polynomial.divmod.calls", "count", "lower"),
    ("funfield.Polynomial.divmod.self_s", "s", "lower"),
    ("funfield.gcd_counting.calls", "count", "lower"),
    ("funfield.gcd_counting.self_s", "s", "lower"),
    *(
        (f"factor.factor_poly.{b}.{stat}", unit, "lower")
        for b in BACKENDS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("deg_max", "degree"))
    ),
    ("factor.factor_poly.too_hard", "count", "lower"),
    ("kroots.find_roots_in_K.calls", "count", "lower"),
    ("kroots.find_roots_in_K.self_s", "s", "lower"),
    ("kroots.root_yield", "ratio", "higher"),
    ("multstruct.dependence_exponents.calls", "count", "lower"),
    ("multstruct.dependence_exponents.self_s", "s", "lower"),
    ("powersum.class_reduction.calls", "count", "lower"),
    ("powersum.class_reduction.self_s", "s", "lower"),
    ("powersum.decide_global_zero.calls", "count", "lower"),
    ("powersum.decide_global_zero.self_s", "s", "lower"),
    ("powersum.window.m_tested", "count", "lower"),
    ("powersum.window.hit_ratio", "ratio", "higher"),
    ("powersum.split_dep_ind.calls", "count", "lower"),
    ("powersum.split_dep_ind.self_s", "s", "lower"),
    ("powersum.certify_local_global.self_s", "s", "lower"),
    ("powersum.LocalChecker.setup.calls", "count", "lower"),
    ("powersum.LocalChecker.setup.self_s", "s", "lower"),
    ("powersum.LocalChecker.check.calls", "count", "lower"),
    ("powersum.LocalChecker.check.self_s", "s", "lower"),
    ("powersum.LocalChecker.setup_share", "ratio", "lower"),
    ("powersum.find_local_witness.calls", "count", "lower"),
    ("powersum.find_local_witness.self_s", "s", "lower"),
    ("powersum.eval_B.calls", "count", "lower"),
    ("powersum.eval_B.self_s", "s", "lower"),
    ("smallcoef.smallcoef_end_to_end.self_s", "s", "lower"),
    ("smallcoef.growth_reject_ratio", "ratio", "higher"),
    *(
        (f"vd_theorems.{fn}.{stat}", unit, "lower")
        for fn in ("verify_smt", "verify_cz_gcd", "verify_sunit_count")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    *((f"verify_suites.run_suite.{s}.incl_s", "s", "lower") for s in SUITES),
    ("generate.generate_instance.incl_s", "s", "lower"),
    ("serialize.load_instance.calls", "count", "lower"),
    ("serialize.load_instance.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("inconclusive_ratio", "ratio", "lower"),
]

def layer_values(tr: Tracer, m_tested: int) -> dict[str, float]:
    """Every per-layer metric that the tracer itself determines."""
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        stat = "self_s" if stat == "s" else stat  # a leaf's time is all self time
        if stat in ("calls", "self_s", "incl_s"):
            out[metric] = getattr(tr.stat(base), stat)
    for b in BACKENDS:
        out[f"factor.factor_poly.{b}.deg_max"] = tr.counters.get(f"factor.factor_poly.{b}.deg_max", 0)
    c = tr.counters
    out["factor.factor_poly.too_hard"] = c.get("factor.factor_poly.too_hard", 0)
    out["funfield.RationalFunction.init.reduced_ratio"] = ratio(
        c.get("funfield.RationalFunction.init.reduced", 0), tr.stat("funfield.RationalFunction.init").calls
    )
    out["kroots.root_yield"] = ratio(c.get("kroots.roots", 0), c.get("kroots.pairs", 0))
    out["powersum.window.m_tested"] = m_tested
    out["powersum.window.hit_ratio"] = ratio(c.get("powersum.window.zeros", 0), m_tested)
    setup, check = tr.stat("powersum.LocalChecker.setup"), tr.stat("powersum.LocalChecker.check")
    out["powersum.LocalChecker.setup_share"] = ratio(setup.incl_s, setup.incl_s + check.incl_s)
    out["smallcoef.growth_reject_ratio"] = ratio(
        c.get("smallcoef.rejected_growth", 0), tr.stat("smallcoef.smallcoef_end_to_end").calls
    )
    return out
