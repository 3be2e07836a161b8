"""Exact arithmetic in the constant field F.

F is a computable field fixed per instance: Q(zeta_M) in characteristic 0
(M = 1 meaning Q), or F_{p^d} in characteristic p.  Elements are coefficient
vectors in the power basis of zeta_M modulo Phi_M, respectively of a fixed
canonical irreducible defining polynomial modulo p.  All operations are exact;
no floating point appears anywhere.

Torsion is decidable: units of finite order in Q(zeta_M) have order dividing
lcm(2, M), and every nonzero element of F_{p^d} has order dividing p^d - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldTooSmall, InvalidInstance
from .intutil import base_digits, cyclotomic_poly, factorize, fp_gcd, fp_powmod, fp_sub, is_prime

__all__ = [
    "FieldSpec",
    "Field",
    "ConstantValue",
    "RootOfUnity",
    "field_for",
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
            if not is_prime(p):
                raise InvalidInstance("characteristic must be 0 or prime")
            if p > _MAX_CHAR:
                raise InvalidInstance("characteristic beyond 2^61 is unsupported")
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
    """Arithmetic context for one FieldSpec; elements are raw coefficient tuples."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.char = spec.characteristic
        if self.char == 0:
            self.M = spec.cyclotomic_order
            mod = cyclotomic_poly(self.M)
            self.degree = len(mod) - 1  # phi(M)
            self._modulus = tuple(Fraction(c) for c in mod)
            self._szero, self._sone = Fraction(0), Fraction(1)
        else:
            self.p = self.char
            self.d = spec.extension_degree
            self.degree = self.d
            self._modulus = tuple(c % self.p for c in _defining_poly(self.p, self.d))
            self._szero, self._sone = 0, 1
        n = self.degree
        self.zero_raw = tuple([self._szero] * n)
        one = [self._szero] * n
        one[0] = self._sone
        self.one_raw = tuple(one)
        # x^{n+j} mod modulus for j = 0 .. n-2, used to fold convolution tails
        self._red: list[tuple] = []
        cur = list(self._neg_vec(self._modulus[:-1]))  # x^n = -lower part (monic modulus)
        self._red.append(tuple(cur))
        for _ in range(n - 2):
            cur = self._shift_reduce(cur)
            self._red.append(tuple(cur))

    # -- scalar helpers -----------------------------------------------------
    def _sadd(self, a, b):
        return (a + b) % self.p if self.char else a + b

    def _ssub(self, a, b):
        return (a - b) % self.p if self.char else a - b

    def _smul(self, a, b):
        return (a * b) % self.p if self.char else a * b

    def _sinv(self, a):
        if self.char:
            return pow(a, -1, self.p)
        return 1 / a

    def _neg_vec(self, v):
        if self.char:
            return [(-c) % self.p for c in v]
        return [-c for c in v]

    def _shift_reduce(self, v: list) -> list:
        # multiply by x, reduce once
        n = self.degree
        out = [self._szero] + list(v)
        top = out.pop()
        if top:
            red0 = self._red[0]
            out = [self._sadd(c, self._smul(top, r)) for c, r in zip(out, red0)]
        return out

    # -- element construction ------------------------------------------------
    def from_int(self, k: int) -> tuple:
        v = list(self.zero_raw)
        v[0] = k % self.p if self.char else Fraction(k)
        return tuple(v)

    def from_fraction(self, q: Fraction) -> tuple:
        if self.char:
            num = q.numerator % self.p
            den = q.denominator % self.p
            if den == 0:
                raise InvalidInstance("denominator divisible by the characteristic")
            v = list(self.zero_raw)
            v[0] = num * pow(den, -1, self.p) % self.p
            return tuple(v)
        v = list(self.zero_raw)
        v[0] = q
        return tuple(v)

    def from_coeffs(self, coeffs) -> tuple:
        """Coefficients (ints/Fractions) in the power basis, length <= degree."""
        if len(coeffs) > self.degree:
            raise InvalidInstance("coefficient vector longer than the field degree")
        v = list(self.zero_raw)
        for i, c in enumerate(coeffs):
            v[i] = (int(c) % self.p) if self.char else Fraction(c)
        return tuple(v)

    # -- raw arithmetic -------------------------------------------------------
    def add_raw(self, a: tuple, b: tuple) -> tuple:
        return tuple(self._sadd(x, y) for x, y in zip(a, b))

    def sub_raw(self, a: tuple, b: tuple) -> tuple:
        return tuple(self._ssub(x, y) for x, y in zip(a, b))

    def neg_raw(self, a: tuple) -> tuple:
        return tuple(self._neg_vec(a))

    def mul_raw(self, a: tuple, b: tuple) -> tuple:
        n = self.degree
        if n == 1:
            return (self._smul(a[0], b[0]),)
        conv = [self._szero] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] = self._sadd(conv[i + j], self._smul(ai, bj))
        out = conv[:n]
        for j in range(n - 2, -1, -1):
            c = conv[n + j]
            if c:
                red = self._red[j]
                out = [self._sadd(x, self._smul(c, r)) for x, r in zip(out, red)]
        return tuple(out)

    def is_zero_raw(self, a: tuple) -> bool:
        return all(c == 0 for c in a)

    def inv_raw(self, a: tuple) -> tuple:
        if self.is_zero_raw(a):
            raise ZeroDivisionError("inverse of zero constant")
        n = self.degree
        if n == 1:
            return (self._sinv(a[0]),)
        # extended Euclid in base[x]: r0 = modulus, r1 = a
        r0 = list(self._modulus)
        r1 = list(a)
        while r1 and r1[-1] == 0:
            r1.pop()
        t0: list = []
        t1: list = [self._sone]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv = self._sinv(r1[0])
                out = [self._smul(inv, c) for c in t1]
                out += [self._szero] * (n - len(out))
                return tuple(out[:n])
            # divide r0 by r1
            q: dict[int, object] = {}
            r = list(r0)
            inv_lead = self._sinv(r1[-1])
            for i in range(len(r) - 1, len(r1) - 2, -1):
                c = r[i]
                if c:
                    qc = self._smul(c, inv_lead)
                    q[i - len(r1) + 1] = qc
                    for j in range(len(r1)):
                        r[i - len(r1) + 1 + j] = self._ssub(r[i - len(r1) + 1 + j], self._smul(qc, r1[j]))
            r = r[: len(r1) - 1]
            # t_next = t0 - q * t1
            tn = list(t0) + [self._szero] * max(0, max(q, default=0) + len(t1) - len(t0))
            for deg, qc in q.items():
                for j, tc in enumerate(t1):
                    if tc:
                        tn[deg + j] = self._ssub(tn[deg + j], self._smul(qc, tc))
            r0, r1, t0, t1 = r1, r, t1, tn

    def pow_raw(self, a: tuple, e: int) -> tuple:
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        out = self.one_raw
        base = a
        while e:
            if e & 1:
                out = self.mul_raw(out, base)
            base = self.mul_raw(base, base)
            e >>= 1
        return out

    def conjugate_raw(self, a: tuple, k: int) -> tuple:
        """sigma_k(a) for the automorphism zeta -> zeta^k of Q(zeta_M), k coprime to M."""
        zk = self.pow_raw(self._zeta_raw(), k)
        out = self.zero_raw
        for c in reversed(a):
            out = self.add_raw(self.mul_raw(out, zk), self.from_fraction(c))
        return out

    # -- torsion --------------------------------------------------------------
    @property
    def torsion_exponent(self) -> int:
        """An exponent killing every root of unity in F."""
        if self.char == 0:
            return lcm(2, self.M)
        return self.p**self.d - 1

    def is_torsion_raw(self, a: tuple) -> bool:
        if self.is_zero_raw(a):
            return False
        if self.char:
            return True
        return self.pow_raw(a, self.torsion_exponent) == self.one_raw

    def order_raw(self, a: tuple) -> int:
        """Exact multiplicative order of a torsion element."""
        if not self.is_torsion_raw(a):
            raise InvalidInstance("element is not a root of unity")
        e = self.torsion_exponent
        for p in factorize(e):
            while e % p == 0 and self.pow_raw(a, e // p) == self.one_raw:
                e //= p
        return e

    # -- generators of torsion ------------------------------------------------
    def torsion_generator_raw(self) -> tuple:
        """Generator of the group of roots of unity (char 0) / of F* (char p)."""
        if self.char == 0:
            if self.M == 1:
                return self.from_int(-1)
            zeta = self._zeta_raw()
            if self.M % 2 == 0:
                return zeta
            return self.neg_raw(zeta)  # order 2M = lcm(2, M) for odd M
        q1 = self.p**self.d - 1
        primes = list(factorize(q1))
        for idx in range(2, self.p**self.d):
            g = tuple(base_digits(idx, self.p, self.d))
            if all(self.pow_raw(g, q1 // ell) != self.one_raw for ell in primes):
                return g
        raise AssertionError("no generator found")  # unreachable

    def _zeta_raw(self) -> tuple:
        v = list(self.zero_raw)
        if self.degree == 1:
            # M in {1, 2}: zeta is 1 or -1
            v[0] = self._sone if self.M == 1 else -self._sone
        else:
            v[1] = self._sone
        return tuple(v)

    def __repr__(self):
        if self.char == 0:
            return f"Field(Q(zeta_{self.M}))" if self.M > 1 else "Field(Q)"
        return f"Field(F_{self.p}^{self.d})"


@functools.lru_cache(maxsize=None)
def _field_cache(char: int, m: int, d: int) -> Field:
    return Field(FieldSpec(char, m, d))


def field_for(spec: FieldSpec) -> Field:
    return _field_cache(spec.characteristic, spec.cyclotomic_order, spec.extension_degree)


# ---------------------------------------------------------------------------
# ConstantValue
# ---------------------------------------------------------------------------


class ConstantValue:
    """Immutable element of F with exact total arithmetic."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, raw: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *a):
        raise AttributeError("ConstantValue is immutable")

    # -- coercion -------------------------------------------------------------
    def _coerce(self, other) -> "ConstantValue | None":
        if isinstance(other, ConstantValue):
            if other.field is not self.field:
                raise InvalidInstance("mixed constant fields")
            return other
        if isinstance(other, int):
            return ConstantValue(self.field, self.field.from_int(other))
        if isinstance(other, Fraction):
            return ConstantValue(self.field, self.field.from_fraction(other))
        return None

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.add_raw(self.raw, o.raw))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.sub_raw(self.raw, o.raw))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.sub_raw(o.raw, self.raw))

    def __neg__(self):
        return ConstantValue(self.field, self.field.neg_raw(self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.mul_raw(self.raw, o.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.mul_raw(self.raw, self.field.inv_raw(o.raw)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ConstantValue(self.field, self.field.mul_raw(o.raw, self.field.inv_raw(self.raw)))

    def __pow__(self, e: int):
        return ConstantValue(self.field, self.field.pow_raw(self.raw, e))

    def inverse(self) -> "ConstantValue":
        return ConstantValue(self.field, self.field.inv_raw(self.raw))

    # -- predicates -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.field.is_zero_raw(self.raw)

    @property
    def is_one(self) -> bool:
        return self.raw == self.field.one_raw

    def is_torsion(self) -> bool:
        return self.field.is_torsion_raw(self.raw)

    def order(self) -> int:
        return self.field.order_raw(self.raw)

    def is_rational(self) -> bool:
        """True when the value lies in the prime field Q (resp. F_p)."""
        return all(c == 0 for c in self.raw[1:])

    def as_fraction(self) -> Fraction:
        if self.field.char or not self.is_rational():
            raise InvalidInstance("value is not a rational number")
        return self.raw[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            o = self._coerce(other)
            return o is not None and self.raw == o.raw
        return (
            isinstance(other, ConstantValue)
            and self.field.spec == other.field.spec
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field.spec, self.raw))

    def __repr__(self):
        if self.field.char == 0:
            sym = "z"
            parts = []
            for i, c in enumerate(self.raw):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                else:
                    mon = sym if i == 1 else f"{sym}^{i}"
                    parts.append(mon if c == 1 else f"{c}*{mon}")
            return "+".join(parts).replace("+-", "-") or "0"
        if self.field.d == 1:
            return str(self.raw[0])
        return "[" + ",".join(str(c) for c in self.raw) + "]"

    # -- serialization ---------------------------------------------------------
    def to_strings(self) -> list[str]:
        """Little-endian power-basis strings, trailing zeros trimmed."""
        raw = list(self.raw)
        while raw and raw[-1] == 0:
            raw.pop()
        return [str(c) for c in raw]

    @classmethod
    def from_strings(cls, field: Field, items: list[str]) -> "ConstantValue":
        if len(items) > field.degree:
            raise InvalidInstance("constant vector longer than the field degree")
        if field.char == 0:
            coeffs = [Fraction(s) for s in items]
        else:
            coeffs = []
            for s in items:
                v = int(s)
                if not 0 <= v < field.char:
                    raise InvalidInstance(f"coefficient {s} outside [0, p)")
                coeffs.append(v)
        return cls(field, field.from_coeffs(coeffs))


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
        if f.pow_raw(self.value.raw, self.order) != f.one_raw:
            raise InvalidInstance("value^order != 1")
        for p in factorize(self.order):
            if f.pow_raw(self.value.raw, self.order // p) == f.one_raw:
                raise InvalidInstance(f"declared order {self.order} is not minimal")


def zeta(field: Field, order: int) -> ConstantValue:
    """A primitive `order`-th root of unity in F, or FieldTooSmall."""
    L = field.torsion_exponent
    if field.char > 0 and order % field.char == 0:
        raise FieldTooSmall(f"no {order}-th roots of unity in characteristic {field.char}")
    if L % order != 0:
        raise FieldTooSmall(f"field contains no primitive {order}-th root of unity")
    g = field.torsion_generator_raw()
    return ConstantValue(field, field.pow_raw(g, L // order))


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
