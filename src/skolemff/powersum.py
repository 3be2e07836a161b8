"""Power sums B(n) = sum lambda_i (eps_i f^{r_i})^n and the local-global pipeline.

Everything reduces through companion polynomials.  For a residue class c mod e
(e = lcm of the eps orders) the class reduction is

    B(c + e*m) = g^{r_min*m} * P'_c(g^m),   g := f^e,
    P'_c(X)    = sum_i (lambda_i eps_i^c f^{r_i c}) X^{r_i - r_min},

which is torsion free: a root beta of P'_c is a power g^m exactly when the
class contains a global zero.  Global zeros are decided exactly (root heights
bound the scan window via the height of P'_c), local vanishing at the zeros of
f^a - 1 is checked by exact modular arithmetic with the radical of each
Phi_d(f), and the effective certificate (q, p, l, a) follows the dependent /
independent root split with both lemma checks evaluated on concrete exponents.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import lcm

from .constants import ConstantValue, RootOfUnity
from .errors import (
    BadChiS,
    CharPUnsupported,
    ConstantInput,
    FactorizationTooHard,
    InvalidInstance,
    PreconditionGlobalZeroExists,
    QEqualsOne,
    ZeroInput,
)
from .factor import _pow_mod, factor_poly
from .funfield import (
    INFINITY,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    chi_S,
    divisor,
    gcd_counting,
    height,
    is_s_integer,
    is_s_unit,
    poly_gcd,
    poly_height,
    radical,
    strip_places,
)
from .intutil import base_digits, cyclotomic_poly, divisors, euler_phi, is_prime
from .kroots import RootSearch, find_roots_in_K
from .multstruct import DependenceWitness, dependence_exponents, is_power_of
from .vd_theorems import InequalityReport

__all__ = [
    "PowerSumInstance",
    "SplitResult",
    "CertificateReport",
    "eval_B",
    "class_reduction",
    "local_vanishing_check",
    "find_local_witness",
    "decide_global_zero",
    "split_dep_ind",
    "choose_q",
    "choose_p",
    "ell_bound",
    "lemma_claimD_check",
    "lemma_claimI_check",
    "certify_local_global",
]


def local_degree_cap() -> int:
    return int(os.environ.get("SKOLEMFF_MAX_LOCAL_DEGREE", "4096"))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSumInstance:
    """The tuple (lambda_i, eps_i, r_i, f, S) with its standing invariants."""

    lambdas: tuple[RationalFunction, ...]
    epsilons: tuple[RootOfUnity, ...]
    exponents: tuple[int, ...]
    f: RationalFunction
    places: PlaceSet

    def __post_init__(self):
        m = len(self.lambdas)
        if m < 1:
            raise InvalidInstance("need at least one term")
        if len(self.epsilons) != m or len(self.exponents) != m:
            raise InvalidInstance("lambda/epsilon/exponent lengths differ")
        if self.f.is_constant:
            raise ConstantInput("f must be nonconstant")
        if not is_s_unit(self.f, self.places):
            raise InvalidInstance("f must be an S-unit")
        for lam in self.lambdas:
            if lam.is_zero:
                raise ZeroInput("lambda_i must be nonzero")
            if not is_s_integer(lam, self.places):
                raise InvalidInstance("lambda_i must be an S-integer")
        spec = self.f.field.spec
        for eps in self.epsilons:
            if eps.value.field.spec != spec:
                raise InvalidInstance("epsilon constants live in a different field")
        ch = spec.characteristic
        if ch and self.e % ch == 0:
            raise InvalidInstance("e must be coprime to the characteristic")

    @property
    def m(self) -> int:
        return len(self.lambdas)

    @property
    def e(self) -> int:
        out = 1
        for eps in self.epsilons:
            out = lcm(out, eps.order)
        return out

    @property
    def N(self) -> int:
        return max(self.exponents) - min(self.exponents)

    @property
    def r_min(self) -> int:
        return min(self.exponents)

    @property
    def field(self):
        return self.f.field


def eval_B(inst: PowerSumInstance, n: int) -> RationalFunction:
    """Exact value of B(n) in K (any integer n; f is a unit)."""
    out = RationalFunction.zero(inst.field)
    for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
        c = eps.value ** (n % eps.order)
        out = out + lam * c * inst.f ** (r * n)
    return out


def class_reduction(inst: PowerSumInstance, c: int) -> tuple[KPolynomial, RationalFunction]:
    """Torsion-free form of class c: (P'_c, g) with B(c + e m) = g^{r_min m} P'_c(g^m)."""
    c %= inst.e
    g = inst.f**inst.e
    rmin = inst.r_min
    coeffs = [RationalFunction.zero(inst.field) for _ in range(inst.N + 1)]
    for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
        tw = lam * (eps.value ** (c % eps.order)) * inst.f ** (r * c)
        coeffs[r - rmin] = coeffs[r - rmin] + tw
    return KPolynomial(inst.field, coeffs), g


# ---------------------------------------------------------------------------
# Local vanishing at zeros of f^a - 1
# ---------------------------------------------------------------------------


def _poly_invmod(p: Polynomial, mod: Polynomial) -> Polynomial:
    """Inverse of p modulo mod in F[t] (requires gcd(p, mod) = 1)."""
    fld = p.field
    r0, r1 = mod, p % mod
    t0, t1 = Polynomial.zero(fld), Polynomial.one(fld)
    while True:
        if r1.is_zero:
            raise ZeroDivisionError("element not invertible modulo the given modulus")
        if r1.degree == 0:
            return (t1 * r1.coeffs[0].inverse()) % mod
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, (t0 - q * t1) % mod


def _phi_numerator(d: int, f: RationalFunction) -> Polynomial:
    """Numerator of Phi_d(f): den^phi(d) * Phi_d(num/den)."""
    phi = cyclotomic_poly(d)
    deg = len(phi) - 1
    fld = f.field
    denpows = [Polynomial.one(fld)]
    for _ in range(deg):
        denpows.append(denpows[-1] * f.den)
    acc = Polynomial.zero(fld)
    numpow = Polynomial.one(fld)
    for j, cj in enumerate(phi):
        if cj:
            acc = acc + numpow * denpows[deg - j] * cj
        if j < deg:
            numpow = numpow * f.num
    return acc


def _phi_pair(g: RationalFunction, p: int, ell: int, q: int) -> tuple[RationalFunction, RationalFunction]:
    """Phi_{p^l}(g) and Phi_{p^l q}(g) in K, the targets of both lemma checks."""
    return tuple(
        RationalFunction(_phi_numerator(d, g), g.den ** euler_phi(d)) for d in (p**ell, p**ell * q)
    )


class LocalChecker:
    """Decides v_p(B(k)) >= min(1, v_p(f^a - 1)) outside S for many k cheaply.

    Per divisor d | a let G_d be the S-stripped radical of the numerator of
    Phi_d(f).  Modulo G_d the function f is a unit of exact order d, so
    B(k) mod G_d = sum_i lam_i eps_i^k fbar^{(r_i k) mod d}, which depends only
    on k mod lcm(d, e): eps_i^k on k mod ord(eps_i), a divisor of e, and
    fbar^{r_i k} on k mod d.  G_d, fbar and lam_bar are built when a check
    first reads the condition of d, so the divisors after the first failing
    condition cost nothing.  The powers fbar^j and the entries
    lam_i * fbar^j mod G_d are computed on first use and kept, and each
    condition's sum, like the test at infinity, is computed once per residue.
    """

    def __init__(self, inst: PowerSumInstance, a: int):
        if a < 1:
            raise InvalidInstance("a must be positive")
        ch = inst.field.char
        if ch:
            while a % ch == 0:
                a //= ch  # zeros of f^a - 1 match those of the p-free part
        self.inst = inst
        self.a = a
        f, S, e = inst.f, inst.places, inst.e
        degree, cap = a * max(1, height(f)), local_degree_cap()
        if degree > cap:
            raise FactorizationTooHard(
                f"local check at f^{a}-1: degree {degree} exceeds SKOLEMFF_MAX_LOCAL_DEGREE={cap}"
            )
        self.divisors = divisors(a)
        self._conditions = {}
        self.inf_condition = None
        if not S.has_infinity:
            f_inf = f.value_at_infinity()
            if (f_inf**a).is_one:
                order = f_inf.order()
                self.inf_condition = {
                    "f_inf": f_inf,
                    "lam_inf": [lam.value_at_infinity() for lam in inst.lambdas],
                    "order": order,
                    "period": lcm(order, e),
                    "verdicts": {},
                }
        self._eps_pow = [
            [eps.value**j for j in range(eps.order)] for eps in inst.epsilons
        ]

    def condition(self, d: int) -> dict | None:
        """The condition of d, built and its order asserted on first call; None when G_d = 1."""
        if d not in self._conditions:
            inst, cond = self.inst, None
            G = strip_places(radical(_phi_numerator(d, inst.f)), inst.places)
            if G.degree > 0:
                fbar = (inst.f.num % G) * _poly_invmod(inst.f.den % G, G) % G
                if not (_pow_mod(fbar, d, G) == Polynomial.one(inst.field)):
                    raise AssertionError("fbar does not have order dividing d mod G_d")
                lam_bar = [(lam.num % G) * _poly_invmod(lam.den % G, G) % G for lam in inst.lambdas]
                cond = {"d": d, "G": G, "fbar": fbar, "lam_bar": lam_bar, "period": lcm(d, inst.e),
                        "powers": {}, "entries": {}, "sums": {}}
            self._conditions[d] = cond
        return self._conditions[d]

    @property
    def conditions(self) -> list[dict]:
        """Every nontrivial condition in ascending d, building whatever is missing."""
        return [c for c in map(self.condition, self.divisors) if c is not None]

    def _entry(self, cond, i: int, j: int) -> Polynomial:
        """lam_bar_i * fbar^j mod G_d."""
        entries, powers = cond["entries"], cond["powers"]
        if (i, j) not in entries:
            if j not in powers:
                powers[j] = _pow_mod(cond["fbar"], j, cond["G"])
            entries[i, j] = cond["lam_bar"][i] * powers[j] % cond["G"]
        return entries[i, j]

    def _class_sum(self, cond, k: int) -> Polynomial:
        inst = self.inst
        acc = Polynomial.zero(inst.field)
        for i, r in enumerate(inst.exponents):
            eps = self._eps_pow[i][k % inst.epsilons[i].order]
            acc = acc + self._entry(cond, i, (r * k) % cond["d"]) * eps
        return acc % cond["G"]

    def _residue_sum(self, cond, k: int) -> Polynomial:
        """B(k) mod G_d, computed once per residue of k mod lcm(d, e)."""
        res, sums = k % cond["period"], cond["sums"]
        if res not in sums:
            sums[res] = self._class_sum(cond, res)
        return sums[res]

    def check(self, k: int) -> bool:
        for d in self.divisors:
            cond = self.condition(d)
            if cond is not None and not self._residue_sum(cond, k).is_zero:
                return False
        return self.check_infinity(k)

    def failing_places(self, k: int) -> tuple[Place, ...]:
        out = []
        for cond in self.conditions:
            s = self._residue_sum(cond, k)
            if s.is_zero:
                continue
            fail = cond["G"].exact_div(poly_gcd(cond["G"], s))
            out.extend(Place(g) for g, _ in factor_poly(fail)[1])
        if not self.check_infinity(k):
            out.append(INFINITY)
        return tuple(sorted(out, key=Place.sort_key))

    def check_infinity(self, k: int) -> bool:
        ic = self.inf_condition
        if ic is None:
            return True
        res, verdicts = k % ic["period"], ic["verdicts"]
        if res not in verdicts:
            val = None
            for i, r in enumerate(self.inst.exponents):
                eps = self._eps_pow[i][res % self.inst.epsilons[i].order]
                term = ic["lam_inf"][i] * eps * ic["f_inf"] ** ((r * res) % ic["order"])
                val = term if val is None else val + term
            verdicts[res] = val.is_zero
        return verdicts[res]


def local_vanishing_check(inst: PowerSumInstance, k: int, a: int) -> tuple[bool, tuple[Place, ...]]:
    """True iff B(k) vanishes at every zero of f^a - 1 outside S; else failing places."""
    checker = LocalChecker(inst, a)
    if checker.check(k):
        return True, ()
    return False, checker.failing_places(k)


def find_local_witness(inst: PowerSumInstance, a: int, k_bound: int) -> int | None:
    """First k in 0, 1, ..., k_bound, -1, ..., -k_bound passing the local check.

    Nonnegative witnesses are preferred (then the smallest-|k| negative one);
    None when no k in the window passes.
    """
    if a < 1 or k_bound < 1:
        raise InvalidInstance("a and k_bound must be positive")
    checker = LocalChecker(inst, a)
    for k in chain(range(0, k_bound + 1), range(-1, -k_bound - 1, -1)):
        if checker.check(k):
            return k
    return None


# ---------------------------------------------------------------------------
# Exact global-zero decision
# ---------------------------------------------------------------------------


def _first_points(fld, how_many: int):
    """Deterministic evaluation points in F for prefilters."""
    if fld.char == 0:
        k, out = 0, []
        while len(out) < how_many:
            out.append(ConstantValue(fld, fld.from_int(k)))
            k = -k + (1 if k <= 0 else 0)
        return out
    return [
        ConstantValue(fld, tuple(base_digits(idx, fld.p, fld.d)))
        for idx in range(min(how_many, fld.p**fld.d))
    ]


def _kpoly_vanishes_at_power(P: KPolynomial, g: RationalFunction, m: int) -> bool:
    """Exact test P(g^m) = 0 with a point-evaluation prefilter."""
    fld = P.field
    for pt in _first_points(fld, 4):
        try:
            gv = g.evaluate(pt)
            if gv.is_zero and m < 0:
                continue
            acc = ConstantValue(fld, fld.zero_raw)
            gp = gv**m
            cur = ConstantValue(fld, fld.one_raw)
            for c in P.coeffs:
                if not c.is_zero:
                    acc = acc + c.evaluate(pt) * cur
                cur = cur * gp
        except ZeroDivisionError:
            continue
        if not acc.is_zero:
            return False
        break
    return P.evaluate(g**m).is_zero


def decide_global_zero(inst: PowerSumInstance, n_bound: int | None = None) -> int | None:
    """Smallest-|n| integer with B(n) identically 0 (ties positive), or None.

    Per residue class the window |m| <= poly_height(P'_c) / h(g) is provably
    complete: a root beta = g^m has |m| h(g) = h(beta) <= h(P'_c).
    """
    if n_bound is not None and n_bound < 0:
        raise InvalidInstance(f"n_bound must be nonnegative, got {n_bound}")
    candidates: list[int] = []
    e = inst.e
    for c in range(e):
        P, g = class_reduction(inst, c)
        if P.is_zero:
            candidates.extend((c, c - e))
            continue
        hg = height(g)
        if n_bound is not None:
            lo = -((n_bound + c) // e)
            hi = (n_bound - c) // e
            ms = range(lo, hi + 1)
        else:
            W = poly_height(P) // hg
            ms = range(-W, W + 1)
        for m in ms:
            if _kpoly_vanishes_at_power(P, g, m):
                candidates.append(c + e * m)
    if not candidates:
        return None
    return min(candidates, key=lambda n: (abs(n), 1 if n < 0 else 0))


# ---------------------------------------------------------------------------
# Dependent / independent split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """P'_c = leading * X^zero_mult * P_dep * (monic ind part) * remainder."""

    residue_class: int
    poly: KPolynomial
    g: RationalFunction
    dep: tuple[tuple[RationalFunction, int, DependenceWitness], ...]
    ind: tuple[tuple[RationalFunction, int], ...]
    zero_multiplicity: int
    remainder: KPolynomial
    leading: RationalFunction
    complete: bool

    @cached_property
    def p_dep(self) -> KPolynomial:
        return KPolynomial.from_roots(self.poly.field, [b for b, mult, _ in self.dep for _ in range(mult)])

    @cached_property
    def p_ind(self) -> KPolynomial:
        return self.poly.exact_div(self.p_dep)


def split_dep_ind(inst: PowerSumInstance, c: int) -> SplitResult:
    """Split P'_c by multiplicative dependence of its roots with g = f^e."""
    P, g = class_reduction(inst, c)
    if P.is_zero:
        raise ZeroInput("companion polynomial is identically zero")
    search: RootSearch = find_roots_in_K(P)
    dep, ind = [], []
    for beta, mult in search.roots:
        if beta.is_constant:
            cv = beta.constant_value()
            if cv.is_torsion():
                one = ConstantValue(inst.field, inst.field.one_raw)
                w = DependenceWitness(q=cv.order(), r=0, torsion=RootOfUnity(1, one))
                dep.append((beta, mult, w))
            else:
                ind.append((beta, mult))
            continue
        w = dependence_exponents(beta, g)
        if w is not None:
            dep.append((beta, mult, w))
        else:
            ind.append((beta, mult))
    return SplitResult(
        residue_class=c % inst.e,
        poly=P,
        g=g,
        dep=tuple(dep),
        ind=tuple(ind),
        zero_multiplicity=search.zero_multiplicity,
        remainder=search.remainder,
        leading=search.leading,
        complete=search.complete,
    )


def choose_q(witnesses, global_zero_absent: bool = True) -> int:
    """q = 2 with no dependent roots; else the lcm of the exact power exponents."""
    ws = list(witnesses)
    if not ws:
        return 2
    q = 1
    for w in ws:
        q = lcm(q, w.exact_q)
    if q == 1 and global_zero_absent:
        raise QEqualsOne("q = 1 contradicts the excluded global zero")
    return q


def choose_p(witnesses, q: int) -> int:
    """Smallest prime not dividing q nor any nonzero difference of the r_beta."""
    rbetas = [w.exact_r * (q // w.exact_q) for w in witnesses]
    diffs = {abs(x - y) for x in rbetas for y in rbetas if x != y}
    cand = 2
    while True:
        if is_prime(cand) and q % cand and all(d % cand for d in diffs):
            return cand
        cand += 1


def ell_bound(P: KPolynomial, f: RationalFunction, S: PlaceSet, p: int, q: int) -> int:
    """Smallest l where (phi(p^l)-2) h(f) - chi_S beats the cubed gcd bound."""
    chi = chi_S(S)
    if chi < 0:
        raise BadChiS("ell_bound needs chi_S >= 0")
    if f.is_constant:
        raise ConstantInput("ell_bound needs nonconstant f")
    hf = height(f)
    hp = poly_height(P)
    degp = P.degree
    ell = 1
    while True:
        phi = euler_phi(p**ell)
        L = (phi - 2) * hf - chi
        if L > 0 and L**3 > 54 * degp**3 * chi * (p**ell * q * hf + hp) ** 2:
            return ell
        ell += 1


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


def _working_S(inst: PowerSumInstance, splits) -> PlaceSet:
    """S plus the supports of all located roots, padded so chi_S >= 0."""
    S = inst.places
    extra = set()
    for split in splits:
        for beta, *_ in split.dep + split.ind:
            if not beta.is_constant:
                extra.update(divisor(beta))
    S = S.union(extra)
    if chi_S(S) < 0:
        S = S.union({INFINITY})
    if chi_S(S) < 0:
        S = S.union({Place(Polynomial.t(inst.field))})
    return S


def _claimD_impl(
    split: SplitResult, S: PlaceSet, n: int, p: int, ell: int, q: int, phis: tuple[RationalFunction, RationalFunction]
) -> InequalityReport:
    if not split.dep:
        return InequalityReport(
            lhs=0, rhs=0, holds=True,
            comparison="min(N1, N2) == 0",
            detail={"N1": 0, "N2": 0, "trivial": "deg P_dep = 0"},
        )
    x = split.p_dep.evaluate(split.g**n)
    if x.is_zero:
        raise PreconditionGlobalZeroExists("P_dep(g^n) = 0: a global zero exists")
    n1 = gcd_counting(x, phis[0], S, truncated=False)
    n2 = gcd_counting(x, phis[1], S, truncated=False)
    return InequalityReport(
        lhs=min(n1, n2),
        rhs=0,
        holds=min(n1, n2) == 0,
        comparison="min(N1, N2) == 0",
        detail={"N1": n1, "N2": n2, "n": n, "p": p, "ell": ell, "q": q},
    )


def _claimI_impl(
    split: SplitResult, S: PlaceSet, n: int, p: int, ell: int, q: int, phis: tuple[RationalFunction, RationalFunction]
) -> InequalityReport:
    chi = chi_S(S)
    if chi < 0:
        raise BadChiS("claim I needs chi_S >= 0")
    period = p**ell * q
    n_red = n % period
    x = split.p_ind.evaluate(split.g**n_red)
    # Phi_{p^l}(g) and Phi_{p^l q}(g) have disjoint zeros (g is a primitive root of
    # unity of a different order at each), also at infinity, so the count against
    # their product is the sum of the two counts.
    lhs = sum(gcd_counting(x, y, S, truncated=False) for y in phis)
    hg = height(split.g)
    hp = poly_height(split.poly)
    degp = split.poly.degree
    rhs = 54 * degp**3 * chi * (period * hg + hp) ** 2
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs**3 <= rhs,
        comparison="lhs^3 <= 54*degP^3*chi*(p^l q h + hP)^2",
        detail={"n": n, "n_reduced": n_red, "chi_S": chi, "h_g": hg, "h_P": hp, "deg_P": degp},
    )


def _require_no_class_zero(split: SplitResult, claim: str) -> None:
    """The lemmas' hypothesis, read off a complete split: no root of P'_c is a power g^m.

    A root g^m of P'_c is dependent on g, so on a complete split this holds
    exactly when the class c of the split contains no global zero.
    """
    if not split.complete:
        raise FactorizationTooHard(f"claim {claim} needs a complete root search")
    if any(is_power_of(beta, split.g) is not None for beta, _, _ in split.dep):
        raise PreconditionGlobalZeroExists(f"class {split.residue_class} has a global zero")


def lemma_claimD_check(inst: PowerSumInstance, split: SplitResult, n: int, p: int, ell: int, q: int) -> InequalityReport:
    """Either gcd count of P_dep(g^n) with Phi_{p^l}(g) or with Phi_{p^l q}(g) is zero.

    `split` is split_dep_ind(inst, c).  It must be complete, and the class c
    must hold no global zero (PreconditionGlobalZeroExists otherwise).
    """
    _require_no_class_zero(split, "D")
    S = _working_S(inst, [split])
    return _claimD_impl(split, S, n, p, ell, q, _phi_pair(split.g, p, ell, q))


def lemma_claimI_check(inst: PowerSumInstance, split: SplitResult, n: int, p: int, ell: int, q: int) -> InequalityReport:
    """gcd count of P_ind(g^n) with Phi_{p^l}(g)Phi_{p^l q}(g) obeys the cubed bound.

    `split` is split_dep_ind(inst, c), under the same per-class precondition
    as lemma_claimD_check.
    """
    if inst.field.char != 0:
        raise CharPUnsupported("claim I holds in characteristic 0")
    _require_no_class_zero(split, "I")
    S = _working_S(inst, [split])
    return _claimI_impl(split, S, n, p, ell, q, _phi_pair(split.g, p, ell, q))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassCertificate:
    residue: int
    q: int
    p: int
    ell: int
    a: int
    dep_roots: int
    ind_roots: int
    split_complete: bool
    lemma_checks: tuple[InequalityReport, ...] = ()


@dataclass(frozen=True)
class CertificateReport:
    verdict: str  # GlobalZeroFound | LocalObstruction | InconclusiveWithinBounds
    global_zero: int | None = None
    a: int | None = None
    per_class: tuple[ClassCertificate, ...] = ()
    local_witness: int | None = None
    k_bound: int = 0
    theorem_violation: bool = False
    s_work: PlaceSet | None = None
    notes: tuple[str, ...] = ()

    @property
    def lemma_checks(self) -> tuple[InequalityReport, ...]:
        return tuple(r for cc in self.per_class for r in cc.lemma_checks)


def certify_local_global(inst: PowerSumInstance, k_bound: int = 100) -> CertificateReport:
    """Run the effective pipeline: global decision, (q, p, l, a), witness scan."""
    if inst.field.char != 0:
        raise CharPUnsupported("certification requires characteristic 0")
    gz = decide_global_zero(inst)
    if gz is not None:
        return CertificateReport(verdict="GlobalZeroFound", global_zero=gz, k_bound=k_bound)

    notes: list[str] = []
    splits: list[SplitResult] = []
    for c in range(inst.e):
        split = split_dep_ind(inst, c)
        splits.append(split)
        if not split.complete:
            notes.append(f"class {c}: root search incomplete")
        elif split.remainder.degree > 0:
            notes.append(f"class {c}: companion does not split over K (degree {split.remainder.degree} remainder)")
    S_work = _working_S(inst, splits)

    per_class: list[ClassCertificate] = []
    inconclusive = any(not s.complete for s in splits)
    a_parts: list[int] = []
    for split in splits:
        witnesses = [w for _, _, w in split.dep]
        q = choose_q(witnesses, global_zero_absent=True)
        p = choose_p(witnesses, q)
        ell = ell_bound(split.poly, split.g, S_work, p, q)
        a_c = p**ell * q
        a_parts.append(a_c)
        checks: list[InequalityReport] = []
        phi_degree = euler_phi(p**ell * q) * height(split.g)
        if split.complete and split.remainder.degree == 0 and phi_degree <= local_degree_cap():
            phis = _phi_pair(split.g, p, ell, q)
            for n in (1, 2):
                checks.append(_claimD_impl(split, S_work, n, p, ell, q, phis))
                checks.append(_claimI_impl(split, S_work, n, p, ell, q, phis))
        else:
            if phi_degree > local_degree_cap():
                notes.append(f"class {split.residue_class}: lemma evaluation skipped (degree {phi_degree})")
                inconclusive = True
            if split.remainder.degree > 0:
                inconclusive = True
        per_class.append(
            ClassCertificate(
                residue=split.residue_class,
                q=q,
                p=p,
                ell=ell,
                a=a_c,
                dep_roots=sum(m for _, m, _ in split.dep),
                ind_roots=sum(m for _, m in split.ind),
                split_complete=split.complete and split.remainder.degree == 0,
                lemma_checks=tuple(checks),
            )
        )

    a = inst.e
    for ac in a_parts:
        a = lcm(a, inst.e * ac)

    witness = None
    try:
        witness = find_local_witness(inst, a, k_bound)
    except FactorizationTooHard as exc:
        notes.append(str(exc))
        return CertificateReport(
            verdict="InconclusiveWithinBounds",
            a=a,
            per_class=tuple(per_class),
            k_bound=k_bound,
            s_work=S_work,
            notes=tuple(notes),
        )

    # The lemmas, and so the theorem, assume every class splits completely over K.
    violation = witness is not None and all(cc.split_complete for cc in per_class)
    if violation:
        notes.append("local witness found although no global zero exists")
    elif witness is not None:
        notes.append("local witness found, but a split is incomplete: the theorem's hypotheses are unmet")
    verdict = "InconclusiveWithinBounds" if inconclusive else "LocalObstruction"
    return CertificateReport(
        verdict=verdict,
        a=a,
        per_class=tuple(per_class),
        local_witness=witness,
        k_bound=k_bound,
        theorem_violation=violation,
        s_work=S_work,
        notes=tuple(notes),
    )
