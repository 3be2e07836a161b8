"""skolemff: exact value-distribution arithmetic on F(t) and power-sum zero decisions.

The package decides, in exact arithmetic, whether a power sum
B(n) = sum_i lambda_i (eps_i f^{r_i})^n over a rational function field has an
identically vanishing term, checks the local side of the exponential
local-global principle at the zeros of f^a - 1, and runs executable verifiers
for the height, second-main-theorem and gcd inequalities the machinery rests
on.
"""

from .constants import ConstantValue, Field, FieldSpec, RootOfUnity, field_for, roots_of_unity
from .errors import SkolemffError
from .funfield import (
    INFINITY,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    chi_S,
    deg_ins,
    divisor,
    gcd_counting,
    height,
    is_s_integer,
    is_s_unit,
    poly_height,
    poly_valuation,
    truncated_counting,
    valuation,
)
from .intutil import cyclotomic_poly, euler_phi
from .multstruct import DependenceWitness, dependence_exponents, is_mult_independent
from .powersum import (
    CertificateReport,
    PowerSumInstance,
    certify_local_global,
    choose_p,
    choose_q,
    decide_global_zero,
    ell_bound,
    eval_B,
    find_local_witness,
    lemma_claimD_check,
    lemma_claimI_check,
    split_dep_ind,
)
from .smallcoef import (
    admissible_a,
    conclude_from_witness,
    growth_check,
    min_e,
    smallcoef_end_to_end,
)
from .vd_theorems import InequalityReport, verify_cz_gcd, verify_smt, verify_sunit_count

__version__ = "0.1.0"

__all__ = [
    "ConstantValue",
    "Field",
    "FieldSpec",
    "RootOfUnity",
    "field_for",
    "roots_of_unity",
    "SkolemffError",
    "INFINITY",
    "KPolynomial",
    "Place",
    "PlaceSet",
    "Polynomial",
    "RationalFunction",
    "chi_S",
    "deg_ins",
    "divisor",
    "gcd_counting",
    "height",
    "is_s_integer",
    "is_s_unit",
    "poly_height",
    "poly_valuation",
    "truncated_counting",
    "valuation",
    "cyclotomic_poly",
    "euler_phi",
    "DependenceWitness",
    "dependence_exponents",
    "is_mult_independent",
    "CertificateReport",
    "PowerSumInstance",
    "certify_local_global",
    "choose_p",
    "choose_q",
    "decide_global_zero",
    "ell_bound",
    "eval_B",
    "find_local_witness",
    "lemma_claimD_check",
    "lemma_claimI_check",
    "split_dep_ind",
    "admissible_a",
    "conclude_from_witness",
    "growth_check",
    "min_e",
    "smallcoef_end_to_end",
    "InequalityReport",
    "verify_cz_gcd",
    "verify_smt",
    "verify_sunit_count",
]
