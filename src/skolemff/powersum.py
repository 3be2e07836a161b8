"""Power sums B(n) = sum lambda_i (eps_i f^{r_i})^n and the local-global pipeline.

Everything reduces through companion polynomials.  For a residue class c mod e
(e = lcm of the eps orders) the class reduction is

    B(c + e*m) = g^{r_min*m} * P'_c(g^m),   g := f^e,
    P'_c(X)    = sum_j mu_{c,j} f^{(j+r_min)c} X^j,
    mu_{c,j}   = sum of lambda_i eps_i^c over the i with r_i = j + r_min,

which is torsion free: a root beta of P'_c is a power g^m exactly when the
class contains a global zero.  Global zeros are decided from valuations: for
n = c mod e, B(n) = sum_j mu_{c,j} f^{(j+r_min) n} vanishes only if, at every
place, the least valuation among its terms is attained twice.  At a place of S
where f has a zero or a pole that leaves at most (terms - 1) exponents per
class, the breakpoints of a Newton polygon; the other places of S and the
leading coefficients at infinity prune them, and P'_c(g^m) = 0 in K proves
each zero that remains (`decide_global_zero`).

A term lambda_i is lone when no other exponent equals r_i; then
mu_{c,j} = lambda_i eps_i^c, a constant multiple of lambda_i, with the
valuations, the numerator (up to a constant) and the leading coefficient
lc(lambda_i) eps_i^c of lambda_i.  It is carried as its index i, eps_i^c is
taken where it is used, and the product in K is built only where a caller
reads mu_{c,j} itself.  The other
terms form groups, the i sharing one exponent.  Let E, the group period, be
the lcm of the eps orders within the groups (E = 1 when the exponents are
distinct); E divides e.  Which mu_{c,j} are nonzero, and their valuations,
depend only on c mod E: a lone term's are lambda_i's in every class, and a
group's mu_{c,j} = sum lambda_i eps_i^c is the same element for c and c + E,
as every eps_i in it has order dividing E.  So per-class data is built for a
class (or for c mod E) only when something reads it.

Each mu_{c,j} is an S-integer and f is an S-unit, so h(P'_c) is read off
valuations at S without expanding a power of f:

    h(P'_c) = sum_{v in S} deg v * max_j(-v(mu_{c,j}) - (j+r_min) c v(f))
              - deg strip_S(gcd_j num mu_{c,j})
              - [inf not in S] * min_j v_inf(mu_{c,j}).

Proof: h(P'_c) = sum over all places v of deg v * max_j(-v(x_j)) for the
coefficients x_j = mu_{c,j} f^{(j+r_min)c}.  At v in S, v(x_j) = v(mu_{c,j}) +
(j+r_min) c v(f).  Off S, v(f) = 0 and v(x_j) = v(mu_{c,j}) >= 0; at a finite
such v the denominators of the mu_{c,j} (supported on S) do not count, so
min_j v(x_j) = v(gcd_j num mu_{c,j}), and these sum to deg strip_S of that
gcd.  Infinity off S adds -min_j v_inf(mu_{c,j}).

Local vanishing at the zeros of f^a - 1 off S is checked by exact arithmetic
in one residue ring per condition: F[t] modulo the radical of each Phi_d(f),
and F at infinity (`LocalChecker`).  The effective certificate (q, p, l, a)
follows the dependent / independent root split with both lemma checks
evaluated on concrete exponents.

The lemma checks count N_S(gcd(x, Phi_d(g))) for d = p^l and p^l q, with x a
nonzero S-integer and g = a/b (reduced, b monic) an S-unit.  The numerator

    A_d = b^phi(d) Phi_d(a/b) = a^phi(d) mod b

is prime to b, so Phi_d(g) = A_d / b^phi(d) is already reduced, and
`gcd_counting(x, Phi_d(g), S)` counts deg gcd(X, A_d) for X = num(x) stripped
of S, plus, when infinity is not in S, min(v_inf(x), phi(d) deg b - deg A_d)
if that is positive.  Most counts
are 0, and one prime image proves it without building A_d (`_LemmaTargets`).
Take the prime P over rho > 2^61 of `funfield._gcd_prime(M, 0)`, with residue
field F_rho, and let bars denote images mod P.  If lc(X) is a P-unit and a, b
are P-integral, then deg gcd(Xbar, Abar_d) >= deg gcd(X, A_d) by the argument
of the `funfield` docstring: the monic gcd is a unit times a primitive
polynomial with unit leading coefficient, which divides X and A_d over the
local ring at P, so its image divides both images with its degree kept.  Only
X's leading coefficient needs to be a unit.  If bbar is invertible mod Xbar,
put u = abar/bbar mod Xbar.  At a zero z of Xbar, bbar(z) != 0 and
Abar_d(z) = bbar(z)^phi(d) Phi_d(u(z)).  As rho does not divide d (P is
unusable otherwise), Phi_d is separable over F_rho and vanishes exactly at
the primitive d-th roots of unity.  So Xbar and Abar_d share a zero exactly when u(z) has order d at a
zero z of G = gcd(Xbar, u^d - 1) that is no zero of u^(d/r) - 1 for any
prime r | d.  The test takes G once for p^l q, computing u^(p^l) on the
way, and for each d strips from gcd(G, u^d - 1) its common zeros with
every u^(d/r) - 1.  If nothing is left, gcd(X, A_d) = 1 and the finite count
is exactly 0.  At infinity, v_inf(Phi_d(g)) > 0 only when v_inf(g) = 0 and
g(inf) is a primitive d-th root of unity.  A count the test leaves open (in
characteristic p, at an unusable P, or with a zero left) builds A_d, once per
class and d, and is counted exactly.

Claim D needs no image for most counts: the split's witnesses prove them 0.
There x = P_dep(g^n) = prod (g^n - beta)^m over the dependent roots, and each
has beta^q = eps g^r with q > 0 minimal and eps torsion (`DependenceWitness`).
Put m_beta = |n q - r| ord(eps).  Take a place z off S (infinity included when
it is not in S).  g is an S-unit, and so is beta, as q div(beta) = r div(g);
so both are units at z.  If z is a zero of g^n - beta, then
g(z)^(n q - r) = beta(z)^q g(z)^(-r) = eps.  If z is also a zero of Phi_d(g) and
F has characteristic 0, then g(z) is a primitive d-th root of unity, so d
divides m_beta.  If n q = r, such a z has eps = g(z)^0 = 1.  So when eps != 1,
g^n - beta has no zero off S; when eps = 1, beta g^(-n) is a q-th root of
unity, so the minimal q is 1, beta = g^n (the witness's `power` is n) and
x = 0.  So a count whose d divides no nonzero m_beta is 0, and x is built and
counted as above only when some d does (`_claimD_impl`).  In characteristic p, Phi_d is inseparable when
p divides d, and its zeros are the roots of unity of order d / p^k; there the
count always takes the image path.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import lcm

from .constants import ConstantValue, RootOfUnity
from .errors import (
    BadChiS,
    CharPUnsupported,
    ConstantInput,
    FactorizationTooHard,
    InvalidInstance,
    NotSInteger,
    PreconditionGlobalZeroExists,
    QEqualsOne,
    ZeroInput,
)
from .factor import _pow_mod, max_degree_cap
from .funfield import (
    INFINITY,
    KPolynomial,
    Place,
    PlaceSet,
    Polynomial,
    RationalFunction,
    _gcd_prime,
    _image,
    _poly,
    chi_S,
    divisor,
    gcd_counting,
    height,
    is_s_integer,
    is_s_unit,
    poly_gcd,
    radical,
    valuation,
)
from .intutil import (
    cyclotomic_poly,
    divisors,
    euler_phi,
    factorize,
    fp_divmod,
    fp_gcd,
    fp_invmod,
    fp_mul,
    fp_powmod,
    fp_sub,
    is_prime,
)
from .kroots import find_roots_in_K
from .multstruct import DependenceWitness, dependence_exponents
from .vd_theorems import InequalityReport

__all__ = [
    "PowerSumInstance",
    "SplitResult",
    "CertificateReport",
    "eval_B",
    "class_reduction",
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
    """The tuple (lambda_i, eps_i, r_i, f, S) with its standing invariants.

    Validation, `f_valuations`, `class_valuations` and the local and lemma
    checks read orders at S off S's record (`PlaceSet.orders`), so no
    polynomial is divided by a place of S twice.  The epsilons are verified
    roots of unity, which `serialize` reads from a per-field table of
    verified entries.
    """

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
        # e, the lcm of the eps orders, is a plain attribute
        object.__setattr__(self, "e", lcm(1, *(eps.order for eps in self.epsilons)))
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

    @cached_property
    def N(self) -> int:
        return max(self.exponents) - min(self.exponents)

    @cached_property
    def r_min(self) -> int:
        return min(self.exponents)

    @property
    def field(self):
        return self.f.field

    @cached_property
    def g(self) -> RationalFunction:
        """g = f^e, whose powers g^m run through each residue class."""
        return self.f**self.e

    @cached_property
    def _groups(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(j, the i with r_i = j + r_min) for each exponent, in ascending j."""
        groups: dict[int, list[int]] = {}
        for i, r in enumerate(self.exponents):
            groups.setdefault(r - self.r_min, []).append(i)
        return tuple((j, tuple(groups[j])) for j in sorted(groups))

    @cached_property
    def group_period(self) -> int:
        """E, the lcm of the eps orders within the groups of two or more terms (1 when no exponent repeats).

        The nonzero terms of a class and their valuations depend only on c mod E
        (module docstring); E divides e.
        """
        out = 1
        for _, group in self._groups:
            if len(group) > 1:
                out = lcm(out, *(self.epsilons[i].order for i in group))
        return out

    @cached_property
    def _class_shape(self) -> "_PerClass":
        """Per c mod E, (j, x, i) for the nonzero mu_{c,j} in ascending j.

        A lone term (no other exponent equals r_i) has x = lambda_i and its
        index i; a group has x = mu_{c,j}, its sum, and i = None.
        """
        def build(c):
            out = []
            for j, group in self._groups:
                if len(group) == 1:
                    out.append((j, self.lambdas[group[0]], group[0]))
                    continue
                mu = RationalFunction.zero(self.field)
                for i in group:
                    mu = mu + self.lambdas[i] * self._eps_power(i, c)
                if not mu.is_zero:
                    out.append((j, mu, None))
            return tuple(out)

        return _PerClass(self.e, build, self.group_period)

    def _eps_power(self, i: int, c: int) -> ConstantValue:
        """eps_i^c."""
        eps = self.epsilons[i]
        return eps.value ** (c % eps.order)

    @cached_property
    def mus(self) -> "_PerClass":
        """Per class c, the nonzero mu_{c,j} as (j, mu_{c,j}) in ascending j, built on first read."""
        def build(c):
            return tuple((j, x if i is None else x * self._eps_power(i, c)) for j, x, i in self._class_shape[c])

        return _PerClass(self.e, build)

    @cached_property
    def classes(self) -> "_PerClass":
        """class_reduction(self, c) per residue c < e, built on first read."""
        return _PerClass(self.e, lambda c: class_reduction(self, c))

    @cached_property
    def class_heights(self) -> "_PerClass":
        """h(P'_c) per class c (None where P'_c = 0), computed on first read."""
        return _PerClass(self.e, lambda c: _class_height(self, c))

    @cached_property
    def f_valuations(self) -> tuple[int, ...]:
        """v(f) at each place of S, in S's order, read off the S-record."""
        return tuple(self.places.valuations(self.f))

    @cached_property
    def class_valuations(self) -> "_PerClass":
        """Per class c, (j, vals, v_inf, num) for each nonzero mu_{c,j}, in the order of `mus`; one entry per c mod E.

        vals are the valuations of mu_{c,j} at S (in S's order), v_inf the one
        at infinity and num its numerator.  A lone term lambda_i eps_i^c has the
        valuations of lambda_i and its numerator up to a constant factor, so it
        reuses lambda_i's, read once off the S-record.
        """
        def data(x):
            return self.places.valuations(x), valuation(x, INFINITY), x.num

        lam: dict[int, tuple] = {}

        def build(c):
            out = []
            for j, x, i in self._class_shape[c]:
                if i is not None and i not in lam:
                    lam[i] = data(x)
                out.append((j, *(data(x) if i is None else lam[i])))
            return tuple(out)

        return _PerClass(self.e, build, self.group_period)


class _PerClass(Sequence):
    """A read-only sequence over the classes c < size whose entry c is build(c mod period), built on first read.

    Classes that agree mod `period` share one entry.
    """

    def __init__(self, size: int, build, period: int | None = None):
        self._size, self._build, self._period, self._cache = size, build, period or size, {}

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, c: int):
        if not -self._size <= c < self._size:
            raise IndexError(c)
        c %= self._period
        if c not in self._cache:
            self._cache[c] = self._build(c)
        return self._cache[c]


def _class_height(inst: PowerSumInstance, c: int) -> int | None:
    """h(P'_c) by the module docstring's formula; None for P'_c = 0.

    A lone term's numerator is lambda_i's up to a constant factor, which leaves
    the monic gcd unchanged.
    """
    S, rmin, data = inst.places, inst.r_min, inst.class_valuations[c]
    if not data:
        return None
    h = 0
    for k, (v, vf) in enumerate(zip(S, inst.f_valuations)):
        h += v.degree * max(-vals[k] - (j + rmin) * c * vf for j, vals, _, _ in data)
    gcd = Polynomial.zero(inst.field)
    for *_, num in data:
        gcd = poly_gcd(gcd, num)
    h -= S.orders(gcd)[1].degree
    if not S.has_infinity:
        h -= min(v_inf for _, _, v_inf, _ in data)
    return h


def eval_B(inst: PowerSumInstance, n: int) -> RationalFunction:
    """Exact value of B(n) in K (any integer n; f is a unit).

    The terms are summed over the product of their distinct denominators and
    the sum is reduced once.
    """
    num, den = Polynomial.zero(inst.field), Polynomial.one(inst.field)
    for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
        x = inst.f ** (r * n)
        term, term_den = lam.num * x.num * eps.value ** (n % eps.order), lam.den * x.den
        if term_den == den:
            num = num + term
        else:
            num, den = num * term_den + term * den, den * term_den
    return RationalFunction(num, den)


def class_reduction(inst: PowerSumInstance, c: int) -> tuple[KPolynomial, RationalFunction]:
    """Torsion-free form of class c: (P'_c, g) with B(c + e m) = g^{r_min m} P'_c(g^m)."""
    c %= inst.e
    coeffs = [RationalFunction.zero(inst.field)] * (inst.N + 1)
    for j, mu in inst.mus[c]:
        coeffs[j] = mu * inst.f ** ((j + inst.r_min) * c)
    return KPolynomial(inst.field, coeffs), inst.g


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


def _reduce_mod(h: RationalFunction, G: Polynomial) -> Polynomial:
    """h mod G in F[t], for h whose denominator is prime to G."""
    return (h.num % G) * _poly_invmod(h.den % G, G) % G


def _phi_numerator(d: int, f: RationalFunction) -> Polynomial:
    """Numerator of Phi_d(f): den^phi(d) * Phi_d(num/den) for a nonconstant f.

    With Phi_d = sum_j phi_j X^j and n = phi(d), it is sum_j phi_j num^j den^(n-j).
    For a monomial f = c t^a / t^b (a != b, as f is not constant) the term j is
    phi_j c^j t^(a j + b (n - j)), and distinct j land on distinct rows, so the
    coefficients are placed row by row and no product of polynomials is taken.
    Any other f runs homogeneous Horner.

    For such a monomial f = c t^s (s = a - b) and d prime to the characteristic
    p, the numerator of Phi_d(f) is squarefree when p does not divide s (every
    s in characteristic 0): it divides c^d t^(s d) - 1 when s > 0, and
    c^d - t^(|s| d) when s < 0, whose derivative is a nonzero multiple of a
    power of t (p divides neither s nor d) while t divides neither of them, so
    they are separable.  `LocalChecker` builds its G_d from this.
    """
    num, den, fld = f.num, f.den, f.field
    phi = cyclotomic_poly(d)
    if num.is_monomial and den.is_monomial and num.degree != den.degree:
        n, a, b = len(phi) - 1, num.degree, den.degree
        c, cden = num.rows[-1], num.den
        rows = [fld.zero_raw] * (max(a, b) * n + 1)
        cj, dpow = fld.one_raw, cden**n  # c^j over the common denominator cden^n
        for j, pj in enumerate(phi):
            if pj:
                rows[a * j + b * (n - j)] = tuple([pj * dpow * x for x in cj])
            cj, dpow = fld.mul_raw(cj, c), dpow // cden
        return _poly(fld, *fld.poly_normal(rows, cden**n))
    acc = denpow = Polynomial.one(fld)  # Phi_d is monic
    for cj in reversed(phi[:-1]):
        denpow = denpow * den
        acc = acc * num + denpow * cj
    return acc


def _monomial_root(f: RationalFunction) -> RationalFunction | None:
    """y = c' t^s' for a monomial f = c t^s, None for any other f (`LocalChecker`).

    s = p^k s' with p not dividing s', and c' is the p^k-th root of c: the
    Frobenius has order deg F on F, so c' = c^(p^((-k) mod deg F)).  In
    characteristic 0, and whenever k = 0, y = f.
    """
    num, den, fld = f.num, f.den, f.field
    if not (num.is_monomial and den.is_monomial):
        return None
    ch, s, k = fld.char, num.degree - den.degree, 0
    while ch and s % ch == 0:
        s, k = s // ch, k + 1
    if not k:
        return f
    return num.lc() ** (ch ** (-k % fld.d)) * RationalFunction.t(fld) ** s


class LocalChecker:
    """Decides v_p(B(k)) >= min(1, v_p(f^a - 1)) outside S for many k cheaply.

    The zeros of f^a - 1 off S fall under one condition per key: each divisor
    d of a, ascending, then INFINITY when it is off S.  A condition is a
    residue ring F[t]/(G), a reduction map defined on the S-integers, and
    fbar, the image of f, a unit of exact order d.  For a divisor d, G = G_d is
    the S-stripped radical of the numerator of Phi_d(f), the map is reduction
    mod G_d, and the condition is void when G_d = 1.  For a monomial f = c t^s,
    write s = p^k s' with p not dividing s' (k = 0 in characteristic 0) and
    let c' = c^(p^(k(deg F - 1))), the p^k-th root of c in F, so that
    y = c' t^s' has y^(p^k) = f.  Phi_d has coefficients in the prime field,
    so Phi_d(f) = Phi_d(y)^(p^k), and the numerator of Phi_d(f) is the p^k-th
    power of that of Phi_d(y).  Every key d divides the p-free a, so that
    numerator is squarefree (`_phi_numerator`), and G_d is it made monic and
    stripped of S: no squarefree decomposition runs.  Any other f takes
    `radical`.  Infinity off S is a zero
    of f^a - 1 exactly when f(inf)^a = 1 (void otherwise); its ring is F, held
    as the constant polynomials mod t, its map `value_at_infinity`, so
    fbar = f(inf) and d = ord f(inf).  The mu_{c,j} of `PowerSumInstance.mus`
    are S-integers and reduce, so with c = k mod e,
    B(k) -> sum_j mu_{c,j} fbar^{((j+r_min) k) mod d}, which depends only on k
    mod the condition's period lcm(d, e).  A condition is built, and its order
    asserted, when a check first reads it, so the keys after the first failing
    one cost nothing; the mu_{c,j} of a class are reduced when a check first
    reads that class, the powers fbar^j are kept, and each sum is computed
    once per residue.  check(k) depends only on k mod `period` = lcm(a, e),
    a p-free: every d divides a.
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
        self._root = _monomial_root(inst.f)
        # each G_d is built from Phi_d(y), y = f or its monomial root: degree at most a h(y)
        y = inst.f if self._root is None else self._root
        degree, cap = a * max(1, height(y)), local_degree_cap()
        if degree > cap:
            raise FactorizationTooHard(
                f"local check at f^{a}-1: degree {degree} exceeds SKOLEMFF_MAX_LOCAL_DEGREE={cap}"
            )
        self.keys = tuple(divisors(a)) + (() if inst.places.has_infinity else (INFINITY,))
        self.period = lcm(a, inst.e)
        self._conditions = {}

    def condition(self, key: int | Place) -> dict | None:
        """The condition of key (a divisor of a, or INFINITY), built and its order asserted on first call; None when void."""
        if key not in self._conditions:
            self._conditions[key] = self._build(key)
        return self._conditions[key]

    def _build(self, key: int | Place) -> dict | None:
        inst, fld = self.inst, self.inst.field
        if key == INFINITY:
            f_inf = inst.f.value_at_infinity()
            if not (f_inf**self.a).is_one:
                return None
            d, G = f_inf.order(), Polynomial.t(fld)
            reduce = lambda x: Polynomial(fld, (x.value_at_infinity(),))
        else:
            y = self._root
            if y is None:
                G = radical(_phi_numerator(key, inst.f))
            else:
                G = _phi_numerator(key, y).monic()
            d, G = key, inst.places.orders(G)[1]
            if G.degree < 1:
                return None
            reduce = lambda x: _reduce_mod(x, G)
        fbar = reduce(inst.f)
        if not (_pow_mod(fbar, d, G) == Polynomial.one(fld)):
            raise AssertionError("fbar does not have order dividing d mod G_d")
        return {"d": d, "G": G, "reduce": reduce, "fbar": fbar, "period": lcm(d, inst.e),
                "lam_bar": {}, "mu_bar": {}, "powers": {}, "sums": {}}

    def _mu_bar(self, cond, c: int) -> list[tuple[int, Polynomial]]:
        """The mu_{c,j} of class c reduced, built on first read.

        A lone term lambda_i eps_i^c reduces as eps_i^c times the image of
        lambda_i, which is reduced once per i.
        """
        mu_bar, lam_bar, reduce = cond["mu_bar"], cond["lam_bar"], cond["reduce"]
        if c not in mu_bar:
            terms = []
            for j, x, i in self.inst._class_shape[c]:
                if i is None:
                    terms.append((j, reduce(x)))
                    continue
                if i not in lam_bar:
                    lam_bar[i] = reduce(x)
                terms.append((j, lam_bar[i] * self.inst._eps_power(i, c)))
            mu_bar[c] = terms
        return mu_bar[c]

    def _class_sum(self, cond, k: int) -> Polynomial:
        """sum_j mu_{c,j} fbar^{((j+r_min) k) mod d} mod G for c = k mod e."""
        rmin, d, G, powers = self.inst.r_min, cond["d"], cond["G"], cond["powers"]
        acc = Polynomial.zero(self.inst.field)
        for j, mu in self._mu_bar(cond, k % self.inst.e):
            n = (j + rmin) * k % d
            if n not in powers:
                powers[n] = _pow_mod(cond["fbar"], n, G)
            acc = acc + mu * powers[n]
        return acc % G

    def _residue_sum(self, cond, k: int) -> Polynomial:
        """The image of B(k), computed once per residue of k mod lcm(d, e)."""
        res, sums = k % cond["period"], cond["sums"]
        if res not in sums:
            sums[res] = self._class_sum(cond, res)
        return sums[res]

    def check(self, k: int) -> bool:
        for key in self.keys:
            cond = self.condition(key)
            if cond is not None and not self._residue_sum(cond, k).is_zero:
                return False
        return True


def find_local_witness(inst: PowerSumInstance, a: int, k_bound: int) -> int | None:
    """First k in 0, 1, ..., k_bound, -1, ..., -k_bound passing the local check.

    Nonnegative witnesses are preferred (then the smallest-|k| negative one);
    None when no k in the window passes.  check(k) depends only on k mod the
    checker's period, so each residue is checked once, and the scan stops
    when every residue has failed.
    """
    if a < 1 or k_bound < 1:
        raise InvalidInstance("a and k_bound must be positive")
    checker = LocalChecker(inst, a)
    failed: set[int] = set()
    for k in chain(range(0, k_bound + 1), range(-1, -k_bound - 1, -1)):
        res = k % checker.period
        if res in failed:
            continue
        if checker.check(k):
            return k
        failed.add(res)
        if len(failed) == checker.period:
            break
    return None


# ---------------------------------------------------------------------------
# Exact global-zero decision
# ---------------------------------------------------------------------------


def _leading_sum_at_infinity(inst: PowerSumInstance, c: int, n: int) -> ConstantValue:
    """Sum of the leading coefficients at infinity of the terms of B(n) of least v_inf, n = c mod e.

    With lc(x) = lc(num x) / lc(den x), the term mu_{c,j} f^r, r = (j+r_min) n, has
    leading coefficient lc(mu_{c,j}) lc(f)^r and v_inf(mu_{c,j}) + r v_inf(f).  A
    lone term has lc(mu_{c,j}) = lc(lambda_i) eps_i^c, a constant, so nothing
    is built in K.
    """
    f, vf = inst.f, valuation(inst.f, INFINITY)
    lc_f = f.num.lc() / f.den.lc()
    terms = [
        ((j + inst.r_min) * n, x, i, v)
        for (j, x, i), (_, _, v, _) in zip(inst._class_shape[c], inst.class_valuations[c])
    ]
    least = min(v + r * vf for r, _, _, v in terms)
    out = []
    for r, x, i, v in terms:
        if v + r * vf == least:
            lc = x.num.lc() / x.den.lc() * lc_f**r
            out.append(lc if i is None else lc * inst._eps_power(i, c))
    return sum(out[1:], out[0])


def decide_global_zero(inst: PowerSumInstance) -> int | None:
    """Smallest-|n| integer with B(n) identically 0 (ties positive), or None.

    For n = c mod e, B(n) is the sum of the terms x_j = mu_{c,j} f^{(j+r_min) n}
    over the nonzero mu_{c,j}, and v(x_j) = L_j(n) := v(mu_{c,j}) + (j+r_min) n v(f)
    at every place v.  If B(n) = 0, then

    * at every place the least L_j(n) is attained at least twice, since a
      single term x_k of least valuation would give v(B(n)) = v(x_k) < inf;
    * the terms of least v_inf = w have leading coefficients at infinity that
      sum to 0, since the sum is the coefficient of t^-w in B(n).  This holds
      whether or not infinity is in S (`_leading_sum_at_infinity`).

    The nonzero terms of class c and their valuations depend only on c mod E,
    the group period (`PowerSumInstance.group_period`): a lone term has the
    valuations of lambda_i in every class, and a group's mu_{c,j} is a sum of
    lambda_i eps_i^c whose eps_i have orders dividing E.  So the breakpoints
    are enumerated once per representative c0 < E, not once per class.

    f is a nonconstant S-unit, so v0(f) != 0 at some place v0 of S.  There the
    L_j are lines in n with the distinct slopes (j+r_min) v0(f), and a least
    value attained twice is a breakpoint of their lower envelope.  That leaves
    at most (terms - 1) values n = (v0(mu_{c,k}) - v0(mu_{c,j})) / ((j-k) v0(f))
    per representative, each with |n| <= |v0(mu_{c,k}) - v0(mu_{c,j})|, and
    each in the one class n mod e.  A representative with one nonzero term
    has no zero; one with none (P'_c = 0 for every c = c0 mod E) vanishes on
    all n = c0 mod E, and c0 and c0 - E stand for it, the least n >= 0 and the
    greatest n < 0 there.

    An integer intersection n = c0 mod E at v0 that passes the first test at
    every place of S (v0 included, which keeps only breakpoints) and the
    second test gets the exact test P'_c(g^m) = 0 in K, c = n mod e and
    m = (n - c) / e.  It proves the zero, as B(n) = g^{r_min m} P'_c(g^m), and
    only it expands P'_c, for its class c alone.
    """
    e, E, rmin, vf = inst.e, inst.group_period, inst.r_min, inst.f_valuations
    k0 = next(k for k, x in enumerate(vf) if x)
    zeros: list[int] = []
    for c0 in range(E):
        terms = inst.class_valuations[c0]
        if not terms:
            zeros.extend((c0, c0 - E))
        breaks = set()
        for (j, a, _, _), (k, b, _, _) in combinations(terms, 2):
            n, rem = divmod(b[k0] - a[k0], (j - k) * vf[k0])
            if not rem and n % E == c0:
                breaks.add(n)
        for n in breaks:
            c = n % e
            rows = ([vals[i] + (j + rmin) * n * x for j, vals, _, _ in terms] for i, x in enumerate(vf))
            if all(row.count(min(row)) > 1 for row in rows) and _leading_sum_at_infinity(inst, c, n).is_zero:
                P, g = inst.classes[c]
                if P.evaluate(g ** ((n - c) // e)).is_zero:
                    zeros.append(n)
    return min(zeros, key=lambda n: (abs(n), 1 if n < 0 else 0), default=None)


# ---------------------------------------------------------------------------
# Dependent / independent split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    """The roots of P'_c in K*, split by dependence on g, with multiplicities.

    Each dependent root carries its `dependence_exponents(beta, g)` witness;
    remainder_degree is the degree of the rootless rest of P'_c.  When it is
    0, P'_c = P_dep * P_ind with P_dep monic over the dependent roots and
    P_ind = lc(P'_c) X^m0 prod_ind (X - beta)^m, where m0 is the multiplicity
    of the root 0: both are built from their roots, and no K[X] division runs.
    """

    residue_class: int
    poly: KPolynomial
    height: int  # h(poly)
    g: RationalFunction
    dep: tuple[tuple[RationalFunction, int, DependenceWitness], ...]
    ind: tuple[tuple[RationalFunction, int], ...]
    remainder_degree: int  # degree of the rootless rest of P'_c
    complete: bool

    @cached_property
    def p_dep(self) -> KPolynomial:
        return KPolynomial.from_roots(self.poly.field, [b for b, mult, _ in self.dep for _ in range(mult)])

    @cached_property
    def p_ind(self) -> KPolynomial:
        """FactorizationTooHard when P'_c has a rootless rest: its roots lie outside K and may depend on g."""
        if self.remainder_degree:
            raise FactorizationTooHard(
                f"class {self.residue_class}: P_ind needs P'_c to split over K (degree {self.remainder_degree} remainder)"
            )
        fld, roots = self.poly.field, [b for b, mult in self.ind for _ in range(mult)]
        m0 = self.poly.degree - sum(mult for _, mult, _ in self.dep) - len(roots)
        return KPolynomial.from_roots(fld, roots + [RationalFunction.zero(fld)] * m0) * self.poly.coeffs[-1]


def split_dep_ind(inst: PowerSumInstance, c: int) -> SplitResult:
    """Split P'_c by multiplicative dependence of its roots with g = f^e, decided once per root.

    The companion degree of every class is compared with SKOLEMFF_MAX_DEGREE
    first (FactorizationTooHard above it), before any class is expanded.  It
    depends only on c mod E, so the first class above the cap is below E.
    """
    cap = max_degree_cap()
    for k in range(inst.group_period):
        terms = inst.class_valuations[k]
        if terms and terms[-1][0] > cap:
            raise FactorizationTooHard(f"class {k}: companion degree {terms[-1][0]} exceeds SKOLEMFF_MAX_DEGREE={cap}")
    P, g = inst.classes[c % inst.e]
    if P.is_zero:
        raise ZeroInput("companion polynomial is identically zero")
    search = find_roots_in_K(P)
    # f is an S-unit, so div(g) = e div(f) is read off f's valuations at S and g is not factored
    div_g = {v: inst.e * x for v, x in zip(inst.places, inst.f_valuations) if x}
    dep, ind = [], []
    for beta, mult in search.roots:
        w = dependence_exponents(beta, g, div_g)
        if w is not None:
            dep.append((beta, mult, w))
        else:
            ind.append((beta, mult))
    return SplitResult(
        residue_class=c % inst.e,
        poly=P,
        height=inst.class_heights[c % inst.e],
        g=g,
        dep=tuple(dep),
        ind=tuple(ind),
        remainder_degree=search.remainder_degree,
        complete=search.complete,
    )


def choose_q(witnesses) -> int:
    """q = 2 with no dependent roots; else the lcm of the exact power exponents."""
    ws = list(witnesses)
    if not ws:
        return 2
    q = 1
    for w in ws:
        q = lcm(q, w.exact_q)
    if q == 1:
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


def ell_bound(hp: int, degp: int, f: RationalFunction, S: PlaceSet, p: int, q: int) -> int:
    """Smallest l where (phi(p^l)-2) h(f) - chi_S beats the cubed gcd bound; hp = h(P), degp = deg P."""
    chi = chi_S(S)
    if chi < 0:
        raise BadChiS("ell_bound needs chi_S >= 0")
    if f.is_constant:
        raise ConstantInput("ell_bound needs nonconstant f")
    hf = height(f)
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
        # a nonconstant dependent root has q div(beta) = r div(g), and g is an
        # S-unit, so its support already lies in S: only the independent roots add places
        for beta, _ in split.ind:
            if not beta.is_constant:
                extra.update(divisor(beta))
    S = S.union(extra)
    if chi_S(S) < 0:
        S = S.union({INFINITY})
    if chi_S(S) < 0:
        S = S.union({Place(Polynomial.t(inst.field))})
    return S


def _finite_open(X: Polynomial, g: RationalFunction, ds: tuple[int, int]) -> tuple[int, ...]:
    """The d in ds = (p^l, p^l q) for which one prime image does not prove gcd(X, A_d) = 1 (module docstring)."""
    fld = X.field
    if fld.char:
        return ds
    rho, rows, _ = _gcd_prime(fld.M, 0)
    row = rows[0]
    xbar = _image(X.rows, row, rho)
    if not xbar[-1] or not (g.num.den % rho and g.den.den % rho) or any(d % rho == 0 for d in ds):
        return ds  # P is unusable
    scale = g.den.den * pow(g.num.den, -1, rho) % rho  # num(g) and den(g) are int rows over their own dens
    u = fp_divmod([c * scale % rho for c in _image(g.num.rows, row, rho)], xbar, rho)[1]
    if g.den.degree > 0:
        inv = fp_invmod(_image(g.den.rows, row, rho), xbar, rho)
        if inv is None:
            return ds
        u = fp_divmod(fp_mul(u, inv, rho), xbar, rho)[1]
    powers = {1: u}

    def minus_one(k: int) -> list[int]:
        """u^k - 1 mod xbar, raising the largest power computed so far that divides it."""
        if k not in powers:
            j = max(j for j in powers if k % j == 0)
            powers[k] = fp_powmod(powers[j], k // j, xbar, rho)
        return fp_sub(powers[k], [1], rho)

    minus_one(ds[0])  # u^(p^l) on the way to u^(p^l q)
    G = fp_gcd(xbar, minus_one(ds[1]), rho)
    if len(G) == 1:
        return ()
    out = []
    for d in ds:
        H = fp_gcd(G, minus_one(d), rho)
        for r in factorize(d):
            # a zero z of H with u(z)^(d/r) = 1 has the same multiplicity in u^(d/r) - 1 as in
            # u^d - 1, that of u - u(z), so one division strips it with its multiplicity in H
            H = fp_divmod(H, fp_gcd(H, minus_one(d // r), rho), rho)[0]
        if len(H) > 1:
            out.append(d)
    return tuple(out)


class _LemmaTargets:
    """N_S(gcd(x, Phi_d(g))) for d = p^l and p^l q, the lemma targets of one class.

    Each count is decided by the prime-image test of the module docstring
    first; only a count the test leaves open builds A_d, the numerator of
    Phi_d(g), once per d, and counts it exactly.
    """

    def __init__(self, g: RationalFunction, p: int, ell: int, q: int):
        self.g = g
        self.ds = (p**ell, p**ell * q)
        self._numerators: dict[int, Polynomial] = {}

    def counts(self, x: RationalFunction, S: PlaceSet) -> tuple[int, int]:
        """gcd_counting(x, Phi_d(g), S) for both d; x must be a nonzero S-integer."""
        if x.is_zero:
            raise ZeroInput("gcd counting of 0")
        if not is_s_integer(x, S):
            raise NotSInteger("gcd counting requires S-integers")
        X, v_inf, g = S.orders(x.num)[1], x.den.degree - x.num.degree, self.g
        open_ = set(_finite_open(X, g, self.ds)) if X.degree > 0 else set()
        if not S.has_infinity and v_inf > 0 and g.num.degree == g.den.degree:
            c = g.num.lc() / g.den.lc()  # g(inf), a zero of Phi_d exactly when its order is d
            if c.is_torsion():
                open_.update(d for d in self.ds if d == c.order())
        return tuple(self._count(x, d, S) if d in open_ else 0 for d in self.ds)

    def _count(self, x: RationalFunction, d: int, S: PlaceSet) -> int:
        """The exact count gcd_counting(x, Phi_d(g), S), where Phi_d(g) = A_d / b^phi(d) for g = a/b.

        That quotient is reduced: A_d is prime to b (module docstring).  A_d is
        built on first use, and its degree phi(d) h(g) is held to SKOLEMFF_MAX_LOCAL_DEGREE.
        """
        if d not in self._numerators:
            degree, cap = euler_phi(d) * height(self.g), local_degree_cap()
            if degree > cap:
                raise FactorizationTooHard(
                    f"lemma target Phi_{d}(g): degree {degree} exceeds SKOLEMFF_MAX_LOCAL_DEGREE={cap}"
                )
            self._numerators[d] = _phi_numerator(d, self.g)
        phi_d = RationalFunction._reduced(self._numerators[d], self.g.den ** euler_phi(d))
        return gcd_counting(x, phi_d, S)


def _witnesses_leave_open(split: SplitResult, n: int, ds: tuple[int, ...]) -> bool:
    """Whether some d in ds divides a nonzero m_beta = |n q - r| ord(eps) of a dependent root (module docstring)."""
    ms = [abs(n * w.q - w.r) * w.torsion.order for _, _, w in split.dep]
    return any(m and m % d == 0 for m in ms for d in ds)


def _claimD_impl(
    split: SplitResult, S: PlaceSet, n: int, p: int, ell: int, q: int, targets: _LemmaTargets
) -> InequalityReport:
    """Claim D at n: N1 or N2, the gcd counts of x = P_dep(g^n) with Phi_{p^l}(g) and Phi_{p^l q}(g), is 0.

    x = 0 exactly when a dependent root is g^n, which its witness's `power`
    tells (PreconditionGlobalZeroExists).  In characteristic 0 the witnesses
    prove a count 0 unless its d divides some nonzero m_beta (module
    docstring); when they prove both, x is not built.  Otherwise x is built
    and `_LemmaTargets.counts` counts both, as in characteristic p.
    """
    if not split.dep:
        return InequalityReport(
            lhs=0, rhs=0, holds=True,
            comparison="min(N1, N2) == 0",
            detail={"N1": 0, "N2": 0, "trivial": "deg P_dep = 0"},
        )
    if any(w.power == n for _, _, w in split.dep):
        raise PreconditionGlobalZeroExists("P_dep(g^n) = 0: a global zero exists")
    if split.g.field.char == 0 and not _witnesses_leave_open(split, n, targets.ds):
        n1 = n2 = 0
    else:
        n1, n2 = targets.counts(split.p_dep.evaluate(split.g**n), S)
    return InequalityReport(
        lhs=min(n1, n2),
        rhs=0,
        holds=min(n1, n2) == 0,
        comparison="min(N1, N2) == 0",
        detail={"N1": n1, "N2": n2, "n": n, "p": p, "ell": ell, "q": q},
    )


def _claimI_impl(
    split: SplitResult, S: PlaceSet, n: int, p: int, ell: int, q: int, targets: _LemmaTargets
) -> InequalityReport:
    """Claim I at n: the gcd count of P_ind(g^n) with Phi_{p^l}(g) Phi_{p^l q}(g) against the cubed bound.

    P_ind comes from the split's roots (`SplitResult.p_ind`), so the split must
    leave no rootless rest (FactorizationTooHard otherwise): a root outside K
    may depend on g, as t^{1/2} does on g = t, and claim I counts only roots
    independent of g.  At a zero of Phi_d(g) with d | p^l q, g^n = g^(n mod p^l q),
    so n is reduced first.
    """
    chi = chi_S(S)
    if chi < 0:
        raise BadChiS("claim I needs chi_S >= 0")
    period = p**ell * q
    n_red = n % period
    x = split.p_ind.evaluate(split.g**n_red)
    # Phi_{p^l}(g) and Phi_{p^l q}(g) have disjoint zeros (g is a primitive root of
    # unity of a different order at each), also at infinity, so the count against
    # their product is the sum of the two counts.
    lhs = sum(targets.counts(x, S))
    hg = height(split.g)
    hp = split.height
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

    A root g^m of P'_c is dependent on g, and its split witness has power m,
    so on a complete split this holds exactly when the class c of the split
    contains no global zero.
    """
    if not split.complete:
        raise FactorizationTooHard(f"claim {claim} needs a complete root search")
    if any(w.power is not None for _, _, w in split.dep):
        raise PreconditionGlobalZeroExists(f"class {split.residue_class} has a global zero")


def lemma_claimD_check(inst: PowerSumInstance, split: SplitResult, n: int, p: int, ell: int, q: int) -> InequalityReport:
    """Either gcd count of P_dep(g^n) with Phi_{p^l}(g) or with Phi_{p^l q}(g) is zero.

    `split` is split_dep_ind(inst, c).  It must be complete, and the class c
    must hold no global zero (PreconditionGlobalZeroExists otherwise).
    """
    _require_no_class_zero(split, "D")
    S = _working_S(inst, [split])
    return _claimD_impl(split, S, n, p, ell, q, _LemmaTargets(split.g, p, ell, q))


def lemma_claimI_check(inst: PowerSumInstance, split: SplitResult, n: int, p: int, ell: int, q: int) -> InequalityReport:
    """gcd count of P_ind(g^n) with Phi_{p^l}(g)Phi_{p^l q}(g) obeys the cubed bound.

    `split` is split_dep_ind(inst, c), under the same per-class precondition
    as lemma_claimD_check, and P'_c must split over K with no rootless rest
    (FactorizationTooHard otherwise, naming the remainder degree).
    """
    if inst.field.char != 0:
        raise CharPUnsupported("claim I holds in characteristic 0")
    _require_no_class_zero(split, "I")
    S = _working_S(inst, [split])
    return _claimI_impl(split, S, n, p, ell, q, _LemmaTargets(split.g, p, ell, q))


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
    if k_bound < 1:
        raise InvalidInstance("k_bound must be positive")
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
        elif split.remainder_degree > 0:
            notes.append(f"class {c}: companion does not split over K (degree {split.remainder_degree} remainder)")
    S_work = _working_S(inst, splits)

    per_class: list[ClassCertificate] = []
    skipped = False
    for split in splits:
        witnesses = [w for _, _, w in split.dep]
        q = choose_q(witnesses)
        p = choose_p(witnesses, q)
        ell = ell_bound(split.height, split.poly.degree, split.g, S_work, p, q)
        split_complete = split.complete and split.remainder_degree == 0
        checks: list[InequalityReport] = []
        if split_complete:
            targets = _LemmaTargets(split.g, p, ell, q)
            try:
                for n in (1, 2):
                    checks.append(_claimD_impl(split, S_work, n, p, ell, q, targets))
                    checks.append(_claimI_impl(split, S_work, n, p, ell, q, targets))
            except FactorizationTooHard as exc:
                notes.append(f"class {split.residue_class}: lemma checks skipped: {exc}")
                checks, skipped = [], True
        per_class.append(
            ClassCertificate(
                residue=split.residue_class,
                q=q,
                p=p,
                ell=ell,
                a=p**ell * q,
                dep_roots=sum(m for _, m, _ in split.dep),
                ind_roots=sum(m for _, m in split.ind),
                split_complete=split_complete,
                lemma_checks=tuple(checks),
            )
        )
    inconclusive = skipped or not all(cc.split_complete for cc in per_class)
    a = lcm(inst.e, *(inst.e * cc.a for cc in per_class))

    try:
        witness = find_local_witness(inst, a, k_bound)
    except FactorizationTooHard as exc:
        notes.append(str(exc))
        witness, inconclusive = None, True

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
