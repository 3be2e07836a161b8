"""Exact arithmetic in the constant field F.

F is a computable field fixed per instance: Q(zeta_M) in characteristic 0
(M = 1 meaning Q), or F_{p^d} in characteristic p.  Elements are int
coefficient vectors over one positive int denominator, in the power basis of
zeta_M modulo Phi_M, respectively of a fixed canonical irreducible defining
polynomial modulo p.  An inverse is w / N with w the product of the other
Galois conjugates and N the norm (Cohen, A Course in Computational Algebraic
Number Theory, 4.3).  All operations are exact; no floating point appears
anywhere.

Torsion is decidable: units of finite order in Q(zeta_M) have order dividing
lcm(2, M), and every nonzero element of F_{p^d} has order dividing p^d - 1.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, sub

from .errors import FieldTooSmall, InvalidInstance
from .intutil import base_digits, cyclotomic_poly, factorize, fp_gcd, fp_powmod, fp_sub, is_prime

__all__ = [
    "FieldSpec",
    "Field",
    "ConstantValue",
    "RootOfUnity",
    "field_for",
    "parse_ratio",
    "read_constant",
    "read_rows",
    "root_of_unity",
    "roots_of_unity",
]

_MAX_CHAR = 2**61


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of the constant field: (0, M, -) for Q(zeta_M), (p, -, d) for F_{p^d}."""

    characteristic: int = 0
    cyclotomic_order: int = 1
    extension_degree: int = 1

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            if self.cyclotomic_order < 1:
                raise InvalidInstance("cyclotomic_order must be >= 1")
        else:
            # the cap comes first: primality above it is outside is_prime's deterministic range
            if p > _MAX_CHAR:
                raise InvalidInstance("characteristic beyond 2^61 is unsupported")
            if not is_prime(p):
                raise InvalidInstance("characteristic must be 0 or prime")
            if self.extension_degree < 1:
                raise InvalidInstance("extension_degree must be >= 1")


def _gfp_is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree d >= 2 over F_p."""
    d = len(f) - 1
    x = [0, 1]
    if fp_powmod(x, p**d, f, p) != x:
        return False  # x^{p^d} != x mod f
    for ell in factorize(d):
        diff = fp_sub(fp_powmod(x, p ** (d // ell), f, p), x, p)
        if not diff or len(fp_gcd(f, diff, p)) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _defining_poly(p: int, d: int) -> tuple[int, ...]:
    """Canonical monic irreducible of degree d over F_p: least coefficient vector."""
    if d == 1:
        return (0, 1)
    for idx in range(p**d):
        f = base_digits(idx, p, d) + [1]
        if _gfp_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------


class Field:
    """Arithmetic context for one FieldSpec.

    An element of F is an int power-basis vector `raw` over a positive int
    `den`, canonical when gcd(den, every entry) = 1; in characteristic p the
    entries lie in [0, p) and den = 1.  The `*_raw` methods work on the int
    vectors alone.  The F[t] kernels below store a polynomial the same way:
    one int row per coefficient over one denominator.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.char = spec.characteristic
        if self.char == 0:
            self.M = spec.cyclotomic_order
            self._modulus = cyclotomic_poly(self.M)  # Phi_M, monic in Z[x]
        else:
            self.p = self.char
            self.d = spec.extension_degree
            self._modulus = tuple(c % self.p for c in _defining_poly(self.p, self.d))
        n = self.degree = len(self._modulus) - 1  # phi(M), resp. d
        self.zero_raw = (0,) * n
        self.one_raw = (1,) + (0,) * (n - 1)
        self._conj: dict[int, list] = {}  # k -> the images x^(jk) of the power basis, built by conjugate_raw
        # x^{n+j} mod modulus for j = 0 .. n-2, used to fold convolution tails
        self._red: list[tuple] = []
        cur = [-c for c in self._modulus[:-1]]  # x^n = -lower part (monic modulus)
        for _ in range(n - 1):
            if self.char:
                cur = [c % self.p for c in cur]
            self._red.append(tuple(cur))
            top, cur = cur[-1], [0] + cur[:-1]
            if top:
                cur = [c + top * r for c, r in zip(cur, self._red[0])]

    # -- element construction ------------------------------------------------
    def from_int(self, k: int) -> tuple:
        return (k % self.p if self.char else k,) + self.zero_raw[1:]

    def normal(self, v, den: int = 1) -> tuple[tuple, int]:
        """The canonical (raw, den) of the element v / den: entries mod p in
        characteristic p (where den = 1), the content pass in characteristic 0."""
        p = self.char
        if p:
            if self.degree == 1:
                return (v[0] % p,), 1
            return tuple([x % p for x in v]), 1
        if den != 1:
            g = gcd(den, *v)
            if g != 1:
                return tuple(x // g for x in v), den // g
        return tuple(v), den

    # -- raw arithmetic -------------------------------------------------------
    def mul_raw(self, a: tuple, b: tuple) -> tuple:
        """The product of two int vectors, reduced mod the monic modulus (and mod p)."""
        n = self.degree
        if n == 1:
            return (a[0] * b[0] % self.p,) if self.char else (a[0] * b[0],)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self._fold(conv)

    def _fold(self, conv: list) -> tuple:
        """A vector of length 2n - 1 reduced mod the monic modulus (and mod p)."""
        n = self.degree
        out = conv[:n]
        for j in range(n - 2, -1, -1):
            c = conv[n + j]
            if c:
                out = [x + c * r for x, r in zip(out, self._red[j])]
        if self.char:
            return tuple(x % self.p for x in out)
        return tuple(out)

    def inv_raw(self, a: tuple) -> tuple[tuple, int]:
        """(w, N) with a w = N for a nonzero int vector a, N in the prime field.

        w is the product of the other conjugates of a (`conjugate_exponents`;
        w = 1 when F has degree 1), so N is the norm of a.  In characteristic
        0 the pair is made canonical, N > 0 and gcd(N, every entry of w) = 1,
        so it is the inverse in the element form; in characteristic p w is
        scaled by 1/N, so N = 1.
        """
        if a == self.one_raw:
            return a, 1
        if not any(a):
            raise ZeroDivisionError("inverse of zero constant")
        if self.degree == 1:
            w, N = (1,), a[0]
        else:
            w = functools.reduce(self.mul_raw, [self.conjugate_raw(a, k) for k in self.conjugate_exponents])
            N = self.mul_raw(a, w)[0]
        if self.char:
            s = pow(N, -1, self.p)
            return tuple(x * s % self.p for x in w), 1
        if N < 0:
            w, N = tuple(-x for x in w), -N
        return self.normal(w, N)

    def pow_raw(self, a: tuple, e: int) -> tuple:
        """a^e for e >= 0."""
        out = self.one_raw
        base = a
        while e:
            if e & 1:
                out = self.mul_raw(out, base)
            e >>= 1
            if e:
                base = self.mul_raw(base, base)
        return out

    @functools.cached_property
    def conjugate_exponents(self) -> tuple[int, ...]:
        """The k != 1 for which x -> x^k is an automorphism of F: k in (Z/M)^*
        over Q(zeta_M), the Frobenius powers p^i (0 < i < d) over F_{p^d}."""
        if self.char:
            return tuple(self.p**i for i in range(1, self.d))
        return tuple(k for k in range(2, self.M) if gcd(k, self.M) == 1)

    def conjugate_raw(self, a: tuple, k: int) -> tuple:
        """a(x^k), the image of a under the automorphism x -> x^k of F (see `conjugate_exponents`).

        The automorphism is linear, so the images of the power basis are built
        once per k, on the first call.
        """
        images = self._conj.get(k)
        if images is None:
            xk = self.pow_raw(self._zeta_raw(), k)
            images = [self.one_raw]
            for _ in range(self.degree - 1):
                images.append(self.mul_raw(images[-1], xk))
            self._conj[k] = images
        out = self.zero_raw
        for c, img in zip(a, images):
            if c:
                out = tuple(x + c * y for x, y in zip(out, img))
        return self.normal(out)[0]

    # -- F[t] kernels -----------------------------------------------------------
    # A polynomial over F is a list of int rows, row i the power-basis vector of
    # its t^i coefficient, over one positive int denominator.  Characteristic 0:
    # the top row is nonzero and gcd(den, every entry) = 1, which makes the form
    # canonical.  Characteristic p: entries lie in [0, p) and den = 1.
    def poly_normal(self, rows: list, den: int = 1) -> tuple[tuple, int]:
        """The canonical (rows, den) of rows / den: every entry mod p in characteristic p,
        the content pass in characteristic 0, zero top rows dropped."""
        p = self.char
        if p:
            if self.degree == 1:
                rows = [(x % p,) for (x,) in rows]
            else:
                rows = [tuple([x % p for x in r]) for r in rows]
        while rows and not any(rows[-1]):
            rows.pop()
        if not rows:
            return (), 1
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g != 1:
                rows = [tuple(x // g for x in r) for r in rows]
                den //= g
        return tuple(rows), den

    def poly_add(self, A, da: int, B, db: int) -> tuple[tuple, int]:
        """The canonical (rows, den) of A/da + B/db."""
        L = lcm(da, db)
        if L != da:
            A = [tuple(x * (L // da) for x in r) for r in A]
        if L != db:
            B = [tuple(x * (L // db) for x in r) for r in B]
        if len(A) < len(B):
            A, B = B, A
        return self.poly_normal([tuple(map(add, ra, rb)) for ra, rb in zip(A, B)] + list(A[len(B):]), L)

    def poly_mul(self, A, B) -> list:
        """The rows of the product of two nonzero row lists (entries mod p); the denominators multiply."""
        n = self.degree
        if n == 1:
            b = [r[0] for r in B]
            out = [0] * (len(A) + len(b) - 1)
            for i, (x,) in enumerate(A):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            if self.char:
                return [(c % self.p,) for c in out]
            return [(c,) for c in out]
        conv = [[0] * (2 * n - 1) for _ in range(len(A) + len(B) - 1)]
        for i, ra in enumerate(A):
            for j, rb in enumerate(B, i):
                acc = conv[j]
                for s, x in enumerate(ra):
                    if x:
                        for u, y in enumerate(rb, s):
                            acc[u] += x * y
        return [self._fold(c) for c in conv]

    def _pseudo_divide(self, A, B) -> tuple[list, list, tuple, int]:
        """The one division loop of the F[t] kernels: (tops, R, w, d) for rows A, B with len(A) >= len(B).

        The leading element of B is inverted once, as w / d; then A is
        pseudo-divided by the monic divisor B w / d, whose lower rows C stay
        integral: each of the k = len(A) - len(B) + 1 steps multiplies the
        remainder by d and subtracts c t^k C for its top row c.  `tops` holds
        those c in step order (ints when F has degree 1, rows otherwise); R
        holds the remainder rows, A d^k mod B, not yet canonical.  In
        characteristic p every entry of R is reduced mod p, so R is zero
        exactly when all its entries are.  The denominators of A and B play
        no part: the callers scale by them.
        """
        n, p, lb = self.degree, self.char, len(B)
        w, d = self.inv_raw(B[-1])
        C = B[:-1] if w == self.one_raw else [self.mul_raw(r, w) for r in B[:-1]]
        k = len(A) - lb + 1
        tops = []
        if n == 1:
            C = [c for (c,) in C]
            R = [x for (x,) in A]
            for _ in range(k):
                c = R.pop()
                tops.append(c)
                if d != 1:
                    R = [x * d for x in R]
                if c and p:  # inline, not `minus` below: a call per entry slows the F_p kernel by a fifth
                    for j, cj in enumerate(C, len(R) - lb + 1):
                        R[j] = (R[j] - c * cj) % p
                elif c:
                    for j, cj in enumerate(C, len(R) - lb + 1):
                        R[j] -= c * cj
            return tops, [(x,) for x in R], w, d
        minus = (lambda x, y: (x - y) % p) if p else sub
        R = list(A)
        for _ in range(k):
            c = R.pop()
            tops.append(c)
            if d != 1:
                R = [tuple(x * d for x in r) for r in R]
            if any(c):
                for j, cj in enumerate(C, len(R) - lb + 1):
                    R[j] = tuple(map(minus, R[j], self.mul_raw(c, cj)))
        return tops, R, w, d

    def _quotient(self, tops: list, w: tuple, d: int, db: int, den: int) -> tuple[tuple, int]:
        """The canonical quotient of a `_pseudo_divide` run of A / da by B / db, where den = da d^k.

        Step s contributed tops[s] t^(k-1-s) / (da d^s) times db w / d, which
        is tops[s] w db d^(k-1-s) over den.
        """
        if self.degree == 1:
            tops = [(c,) for c in tops]
        Q, dpow = [], db
        for c in reversed(tops):
            Q.append(tuple(x * dpow for x in self.mul_raw(c, w)))
            dpow *= d
        return self.poly_normal(Q, den)

    def poly_divmod(self, A, da: int, B, db: int) -> tuple[tuple, int, tuple, int]:
        """Canonical (Q, dq, R, dr) with A/da = (Q/dq)(B/db) + R/dr and len(R) < len(B), for len(A) >= len(B).

        One `_pseudo_divide` run; the quotient is assembled from its top rows.
        Callers that read only the remainder use `poly_rem`.
        """
        tops, R, w, d = self._pseudo_divide(A, B)
        den = da * d ** len(tops)
        return (*self._quotient(tops, w, d, db, den), *self.poly_normal(R, den))

    def poly_rem(self, A, da: int, B) -> tuple[tuple, int]:
        """The canonical (R, dr) of A/da mod B, for len(A) >= len(B).

        One `_pseudo_divide` run whose top rows are dropped: no quotient is
        built.  The remainder does not depend on B's denominator, so none is taken.
        """
        tops, R, _, d = self._pseudo_divide(A, B)
        return self.poly_normal(R, da * d ** len(tops))

    def poly_divide_out(self, A, da: int, B, db: int) -> tuple[tuple, int, int]:
        """(Q, dq, m) with A/da = (B/db)^m (Q/dq), Q/dq canonical and not divisible by B/db.

        For a nonzero canonical A and len(B) >= 2.  Each trial division is one
        `_pseudo_divide` run: the first with a nonzero remainder ends the loop
        and builds no quotient, an exact one assembles its quotient from the
        top rows.  For m = 0 (the usual case) A comes back as it was passed.
        """
        m = 0
        while len(A) >= len(B):
            tops, R, w, d = self._pseudo_divide(A, B)
            if any(map(any, R)):
                break
            A, da = self._quotient(tops, w, d, db, da * d ** len(tops))
            m += 1
        return A, da, m

    def poly_eval(self, rows, den: int, v: tuple, e: int) -> tuple[tuple, int]:
        """The canonical (raw, den) of rows / den at the element v / e: homogeneous Horner on ints, one content pass."""
        acc, epow = rows[-1], 1
        for r in reversed(rows[:-1]):
            epow *= e
            acc = tuple(a + c * epow for a, c in zip(self.mul_raw(acc, v), r))
        return self.normal(acc, den * epow)

    # -- torsion --------------------------------------------------------------
    @property
    def torsion_exponent(self) -> int:
        """An exponent killing every root of unity in F."""
        if self.char == 0:
            return lcm(2, self.M)
        return self.p**self.d - 1

    def torsion_generator_raw(self) -> tuple:
        """Generator of the group of roots of unity (char 0) / of F* (char p), found once per field."""
        return self._torsion_generator

    @functools.cached_property
    def _torsion_generator(self) -> tuple:
        if self.char == 0:
            if self.M == 1:
                return self.from_int(-1)
            zeta = self._zeta_raw()
            if self.M % 2 == 0:
                return zeta
            return tuple(-x for x in zeta)  # order 2M = lcm(2, M) for odd M
        q1 = self.p**self.d - 1
        primes = list(factorize(q1))
        for idx in range(2, self.p**self.d):
            g = tuple(base_digits(idx, self.p, self.d))
            if all(self.pow_raw(g, q1 // ell) != self.one_raw for ell in primes):
                return g
        raise AssertionError("no generator found")  # unreachable

    @functools.cached_property
    def _zetas(self) -> dict[int, "ConstantValue"]:
        """order -> the primitive order-th root of unity `zeta` returns, filled on first use."""
        return {}

    @functools.cached_property
    def _roots_of_unity(self) -> dict[tuple, "RootOfUnity"]:
        """(order, raw, den) -> its verified RootOfUnity (`root_of_unity`), filled on first use."""
        return {}

    def _zeta_raw(self) -> tuple:
        """The power-basis generator x: zeta_M over Q(zeta_M) (1 or -1 for M = 1, 2),
        a root of the defining polynomial over F_{p^d}."""
        if self.degree == 1:
            return (1,) if self.M == 1 else (-1,)
        return (0, 1) + self.zero_raw[2:]

    def __repr__(self):
        if self.char == 0:
            return f"Field(Q(zeta_{self.M}))" if self.M > 1 else "Field(Q)"
        return f"Field(F_{self.p}^{self.d})"


@functools.lru_cache(maxsize=None)
def field_for(spec: FieldSpec) -> Field:
    """The one Field of each (hashable) spec."""
    return Field(spec)


# ---------------------------------------------------------------------------
# ConstantValue
# ---------------------------------------------------------------------------

_set = object.__setattr__


def _cv(field: Field, raw: tuple, den: int = 1) -> "ConstantValue":
    """The ConstantValue with the canonical (raw, den); nothing is checked."""
    out = object.__new__(ConstantValue)
    _set(out, "field", field)
    _set(out, "raw", raw)
    _set(out, "den", den)
    return out


def _ratio_str(x: int, den: int) -> str:
    """x / den in lowest terms, as str(Fraction(x, den)) writes it."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _coerce(field: Field, v) -> "ConstantValue | None":
    """v as a constant of `field`: a ConstantValue of it, an int or a Fraction; None for anything else."""
    if isinstance(v, ConstantValue):
        if v.field is not field:
            raise InvalidInstance("mixed constant fields")
        return v
    if isinstance(v, int):
        return _cv(field, field.from_int(v))
    if isinstance(v, Fraction):
        return ConstantValue.from_rationals(field, [v])
    return None


class ConstantValue:
    """Immutable element of F with exact total arithmetic: the int vector `raw` over `den` (see `Field`)."""

    __slots__ = ("field", "raw", "den")

    def __init__(self, field: Field, raw, den: int = 1):
        if not all(isinstance(x, int) for x in (den, *raw)) or den < 1:
            raise InvalidInstance("a constant is an int vector over a positive int; from_rationals reads rationals")
        raw, den = field.normal(raw, den)
        _set(self, "field", field)
        _set(self, "raw", raw)
        _set(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("ConstantValue is immutable")

    # -- arithmetic -----------------------------------------------------------
    def _plus(self, b: tuple, db: int) -> "ConstantValue":
        """self + b / db."""
        a, da = self.raw, self.den
        if da != db:
            L = lcm(da, db)
            a, b, da = [x * (L // da) for x in a], [x * (L // db) for x in b], L
        return _cv(self.field, *self.field.normal(tuple(map(add, a, b)), da))

    def __add__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return self._plus(o.raw, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return self._plus(tuple(-x for x in o.raw), o.den)

    def __rsub__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return o._plus(tuple(-x for x in self.raw), self.den)

    def __neg__(self):
        return _cv(self.field, self.field.normal([-x for x in self.raw])[0], self.den)

    def __mul__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        fld = self.field
        raw, den = fld.mul_raw(self.raw, o.raw), self.den * o.den
        return _cv(fld, raw) if den == 1 else _cv(fld, *fld.normal(raw, den))

    __rmul__ = __mul__

    def _over(self, o: "ConstantValue") -> "ConstantValue":
        """self / o, through o's inverse w / N: self w o.den / (self.den N)."""
        fld = self.field
        w, N = fld.inv_raw(o.raw)
        raw = fld.mul_raw(self.raw, w)
        if o.den != 1:
            raw = [x * o.den for x in raw]
        return _cv(fld, *fld.normal(raw, self.den * N))

    def __truediv__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return self._over(o)

    def __rtruediv__(self, other):
        o = _coerce(self.field, other)
        if o is None:
            return NotImplemented
        return o._over(self)

    def __pow__(self, e: int):
        base = self.inverse() if e < 0 else self
        fld = self.field
        return _cv(fld, *fld.normal(fld.pow_raw(base.raw, abs(e)), base.den ** abs(e)))

    def inverse(self) -> "ConstantValue":
        fld = self.field
        w, N = fld.inv_raw(self.raw)
        return _cv(fld, *fld.normal([x * self.den for x in w], N))

    # -- predicates -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not any(self.raw)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.raw == self.field.one_raw

    def is_torsion(self) -> bool:
        """A root of unity is integral, so an element with den != 1 is none."""
        fld = self.field
        if self.is_zero or self.den != 1:
            return False
        return bool(fld.char) or fld.pow_raw(self.raw, fld.torsion_exponent) == fld.one_raw

    def order(self) -> int:
        """Exact multiplicative order of a torsion element."""
        if not self.is_torsion():
            raise InvalidInstance("element is not a root of unity")
        fld = self.field
        e = fld.torsion_exponent
        for p in factorize(e):
            while e % p == 0 and fld.pow_raw(self.raw, e // p) == fld.one_raw:
                e //= p
        return e

    def is_rational(self) -> bool:
        """True when the value lies in the prime field Q (resp. F_p)."""
        return not any(self.raw[1:])

    def as_fraction(self) -> Fraction:
        if self.field.char or not self.is_rational():
            raise InvalidInstance("value is not a rational number")
        return Fraction(self.raw[0], self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(self.field, other)
        return (
            isinstance(other, ConstantValue)
            and self.field.spec == other.field.spec
            and self.raw == other.raw
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.spec, self.raw, self.den))

    def __repr__(self):
        if self.field.char == 0:
            sym = "z"
            parts = []
            for i, x in enumerate(self.raw):
                if x == 0:
                    continue
                c = _ratio_str(x, self.den)
                if i == 0:
                    parts.append(c)
                else:
                    mon = sym if i == 1 else f"{sym}^{i}"
                    parts.append(mon if c == "1" else f"{c}*{mon}")
            return "+".join(parts).replace("+-", "-") or "0"
        if self.field.d == 1:
            return str(self.raw[0])
        return "[" + ",".join(str(c) for c in self.raw) + "]"

    # -- construction and serialization ----------------------------------------
    @classmethod
    def from_rationals(cls, field: Field, coeffs) -> "ConstantValue":
        """The element with the little-endian power-basis coefficients `coeffs`
        (ints or Fractions, at most `field.degree` of them)."""
        if len(coeffs) > field.degree:
            raise InvalidInstance("constant vector longer than the field degree")
        den = lcm(*(c.denominator for c in coeffs))
        raw = [c.numerator * (den // c.denominator) for c in coeffs] + [0] * (field.degree - len(coeffs))
        if field.char and den != 1:
            if den % field.char == 0:
                raise InvalidInstance("denominator divisible by the characteristic")
            s = pow(den, -1, field.char)
            raw, den = [x * s for x in raw], 1
        return cls(field, raw, den)

    def to_strings(self) -> list[str]:
        """Little-endian power-basis strings, trailing zeros trimmed."""
        raw = list(self.raw)
        while raw and raw[-1] == 0:
            raw.pop()
        return [_ratio_str(x, self.den) for x in raw]

    @classmethod
    def from_strings(cls, field: Field, items: list[str]) -> "ConstantValue":
        """The constant an instance file writes as `items` (see `read_constant`)."""
        return _cv(field, *read_constant(field, items))


@functools.cache
def _ratio_pattern() -> re.Pattern:
    """An integer or "a/b" in decimal digits: a sign on a only, underscores
    between digits, spaces around the whole but not around the slash, no
    decimal point and no exponent.  Compiled on first use, not at import."""
    return re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def parse_ratio(s) -> tuple[int, int]:
    """(a, b) with b >= 1 for a JSON integer or a string "a" or "a/b"; the one reader
    of the rationals the program is given (constant entries and `--rho`).

    Any other text raises ValueError, with the message `Fraction` gave for it,
    and b = 0 raises ZeroDivisionError.  Both parts are read by int(), so the
    value has at most as many digits as the text: "1e20000", which `Fraction`
    expands to 20001 digits, is rejected.
    """
    if isinstance(s, int):
        return s, 1
    m = _ratio_pattern().fullmatch(s)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {s!r}")
    a, b = m.groups()
    b = int(b) if b else 1
    if not b:
        raise ZeroDivisionError(f"{s!r} has a zero denominator")
    return int(a), b


def read_rows(field: Field, consts) -> tuple[tuple, int]:
    """The canonical (rows, den) of the polynomial whose t^i coefficient an
    instance file writes as consts[i], read in one pass.

    A constant is an array of at most [F:F_0] little-endian power-basis
    entries, JSON integers or strings: rationals (`parse_ratio`) in
    characteristic 0, residues in [0, p), not reduced again, in
    characteristic p.  It fails on its first bad entry type, then on its
    first unreadable entry, then on its length.  A string without a slash is
    read by int(), which accepts no text `parse_ratio` refuses; a ratio, or a
    text int() refuses (one ending in U+001C, say), goes to `parse_ratio`.
    """
    p, n, zero = field.char, field.degree, field.zero_raw
    rows, den = [], 1
    for items in consts:
        if not isinstance(items, list):
            raise InvalidInstance(f"a constant is an array of entries, got {items!r}")
        if not items:
            rows.append(zero)
            continue
        for s in items:
            if isinstance(s, bool) or not isinstance(s, (str, int)):
                raise InvalidInstance(f"constant entries are strings or integers, got {s!r}")
        row = []
        if p:
            for s in items:
                v = int(s)
                if not 0 <= v < p:
                    raise InvalidInstance(f"coefficient {s} outside [0, p)")
                row.append(v)
        else:
            for s in items:
                if isinstance(s, int):
                    a, b = s, 1
                elif "/" not in s:
                    try:
                        a, b = int(s), 1
                    except ValueError:
                        a, b = parse_ratio(s)
                else:
                    try:
                        a, b = parse_ratio(s)
                    except ZeroDivisionError as exc:
                        raise InvalidInstance(f"constant {items} has a zero denominator") from exc
                    if den % b:  # den becomes lcm(den, b), and the entries read so far follow
                        scale = b // gcd(den, b)
                        den *= scale
                        rows = [tuple([x * scale for x in r]) for r in rows]
                        row = [x * scale for x in row]
                row.append(a if b == den else a * (den // b))
        if len(row) > n:
            raise InvalidInstance("constant vector longer than the field degree")
        rows.append(tuple(row) + zero[len(row):])
    if p:
        while rows and not any(rows[-1]):
            rows.pop()
        return tuple(rows), 1
    return field.poly_normal(rows, den)


def read_constant(field: Field, items) -> tuple[tuple, int]:
    """The canonical (raw, den) of the constant an instance file writes as
    `items`: the one-coefficient case of `read_rows`."""
    rows, den = read_rows(field, (items,))
    return (rows[0] if rows else field.zero_raw), den


# ---------------------------------------------------------------------------
# Roots of unity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootOfUnity:
    """A constant of exact multiplicative order `order`."""

    order: int
    value: ConstantValue

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInstance("order must be positive")
        f = self.value.field
        if self.value.den != 1 or f.pow_raw(self.value.raw, self.order) != f.one_raw:
            raise InvalidInstance("value^order != 1")
        for p in factorize(self.order):
            if f.pow_raw(self.value.raw, self.order // p) == f.one_raw:
                raise InvalidInstance(f"declared order {self.order} is not minimal")


def root_of_unity(order: int, value: ConstantValue) -> RootOfUnity:
    """RootOfUnity(order, value) from its field's table of verified entries.

    Each (order, value) is built, and so verified, on its first read; a pair
    that fails verification is not stored, so it fails again on every read.
    """
    table = value.field._roots_of_unity
    key = (order, value.raw, value.den)
    out = table.get(key)
    if out is None:
        out = table[key] = RootOfUnity(order=order, value=value)
    return out


def zeta(field: Field, order: int) -> ConstantValue:
    """A primitive `order`-th root of unity in F, or FieldTooSmall; computed once per field and order."""
    out = field._zetas.get(order)
    if out is None:
        L = field.torsion_exponent
        if field.char > 0 and order % field.char == 0:
            raise FieldTooSmall(f"no {order}-th roots of unity in characteristic {field.char}")
        if L % order != 0:
            raise FieldTooSmall(f"field contains no primitive {order}-th root of unity")
        g = field.torsion_generator_raw()
        out = field._zetas[order] = ConstantValue(field, field.pow_raw(g, L // order))
    return out


def roots_of_unity(a: int, spec: FieldSpec) -> list[RootOfUnity]:
    """All a-th roots of unity in F with exact orders, in generator-power order."""
    if a < 1:
        raise InvalidInstance("a must be positive")
    field = field_for(spec)
    h = zeta(field, a)  # raises FieldTooSmall when absent
    out = []
    cur = ConstantValue(field, field.one_raw)
    for j in range(a):
        out.append(RootOfUnity(order=a // gcd(a, j) if j else 1, value=cur))
        cur = cur * h
    return out
