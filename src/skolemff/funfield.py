"""Arithmetic of K = F(t) on P^1: places, valuations, divisors, heights, S-sets.

Places are closed points of P^1 over F: a monic irreducible polynomial, or the
point at infinity.  A degree-d finite place stands for d conjugate geometric
points, so every counting/height sum here is weighted by place degree; this
makes the algebraically-closed-field formulas exact without ever leaving F.

Counting functions never factor anything: common zeros come from polynomial
gcds, distinct zeros from squarefree radicals, and orders at S off S's
record (`PlaceSet.orders`).  Full factorization (divisor support) lives in
skolemff.factor.

Gcds in F[t] for F = Q(zeta_M) (M = 1 is Q) are modular (Brown 1971; Langemyr
and McCallum 1989).  Scale a and b into Z[zeta][t] by a common denominator.
Take a prime p = 1 mod M, a primitive M-th root of unity w mod p and k prime
to M; then P = (p, zeta - w^k) is a prime of Z[zeta] with residue field F_p,
and reduction mod P maps zeta to w^k.  The localisation of Z[zeta] at P is a
discrete valuation ring.  If both leading coefficients are units there, Gauss's
lemma over it writes the monic gcd g as a unit times a primitive polynomial
with unit leading coefficient, so its image divides both images and
    deg gcd(a mod P, b mod P) >= deg g.
Hence an image of degree 0 proves g = 1.  Otherwise let D be the least image
degree seen; images of degree D at all phi(M) primes over p give g's power-
basis coefficients mod p, and several p combine by CRT and rational
reconstruction into a candidate h.  If h is monic of degree D and divides a and
b exactly, then h | g and deg h = D >= deg g, so h = g.  Only finitely many P
are unlucky (an image of degree above deg g), so D reaches deg g, the
accumulated modulus outgrows g's coefficients, and the loop ends.

Before any image is taken, powers of t split off.  t is prime in F[t] and
v_t(a) is the number of zero bottom rows of a, so for a = t^i a' and
b = t^j b' with t not dividing a' or b',
    gcd(a, b) = t^min(i, j) gcd(a', b'),
and the cofactors are row shifts of those of a' and b'.  When a' or b' is
constant, gcd(a', b') = 1 and no prime is touched; monomial arguments (a
power of t times a constant) are common in K normalisation.  Characteristic
p keeps Euclid, whose steps are cheap there.

The same reading serves the place t everywhere else: `divide_out` by t takes
m = v_t from the zero bottom rows and the quotient as the rows above them,
so valuations, S-stripping and S-unit tests at t run no division.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import count
from math import gcd, inf, isqrt, lcm

from .constants import ConstantValue, Field, _coerce, _cv
from .errors import AllZero, ConstantInput, InvalidInstance, NotSInteger, ZeroInput
from .intutil import cyclotomic_poly, factorize, fp_divmod, fp_gcd, is_prime

__all__ = [
    "Polynomial",
    "RationalFunction",
    "Place",
    "PlaceSet",
    "INFINITY",
    "valuation",
    "divisor",
    "height",
    "projective_height",
    "clear_denominators",
    "KPolynomial",
    "poly_valuation",
    "poly_height",
    "truncated_counting",
    "gcd_counting",
    "deg_ins",
    "chi_S",
    "is_s_integer",
    "is_s_unit",
]


# ---------------------------------------------------------------------------
# Polynomials over F
# ---------------------------------------------------------------------------


_new, _set = object.__new__, object.__setattr__


def _poly(field: Field, rows: tuple, den: int = 1) -> "Polynomial":
    """The Polynomial with canonical rows / den (see the `Field` kernels); nothing is checked."""
    out = _new(Polynomial)
    _set(out, "field", field)
    _set(out, "rows", rows)
    _set(out, "den", den)
    return out


class Polynomial:
    """Univariate polynomial over F, stored as int rows over one common denominator.

    `rows[i]` is the power-basis vector of the t^i coefficient times `den`,
    little-endian, and the zero polynomial has no rows.  The form is
    canonical (`Field.poly_normal`), so `==` and `hash` read it.  The
    arithmetic runs on the `Field` kernels; `coeffs` builds the coefficients
    as `ConstantValue`s on each read and keeps none, so a long-lived
    polynomial holds its rows only.
    """

    __slots__ = ("field", "rows", "den")

    def __init__(self, field: Field, coeffs=()):
        cs = [_const(field, c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        # the lcm of canonical denominators keeps gcd(den, every entry) = 1
        den = lcm(*(c.den for c in cs))
        rows = tuple(c.raw if c.den == den else tuple(x * (den // c.den) for x in c.raw) for c in cs)
        _set(self, "field", field)
        _set(self, "rows", rows)
        _set(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def _zero(self) -> ConstantValue:
        return _const(self.field, 0)

    def _coeff(self, row: tuple) -> ConstantValue:
        if self.den == 1:
            return _cv(self.field, row)
        return _cv(self.field, *self.field.normal(row, self.den))

    # -- basic data -----------------------------------------------------------
    @property
    def coeffs(self) -> tuple[ConstantValue, ...]:
        return tuple(map(self._coeff, self.rows))

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_constant(self) -> bool:
        return len(self.rows) <= 1

    @property
    def is_monic(self) -> bool:
        """Whether the leading coefficient is 1, read off the top row; False for 0."""
        rows = self.rows
        return bool(rows) and rows[-1][0] == self.den and not any(rows[-1][1:])

    @property
    def is_monomial(self) -> bool:
        """Whether self is c t^k for a nonzero c (constants included): one nonzero row, the top one."""
        rows = self.rows
        return bool(rows) and not any(map(any, rows[:-1]))

    def lc(self) -> ConstantValue:
        if not self.rows:
            raise ZeroInput("leading coefficient of 0")
        return self._coeff(self.rows[-1])

    def constant_coeff(self) -> ConstantValue:
        return self._coeff(self.rows[0]) if self.rows else self._zero()

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return _poly(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return _poly(field, (field.one_raw,))

    @classmethod
    def t(cls, field: Field) -> "Polynomial":
        return _poly(field, (field.zero_raw, field.one_raw))

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented  # a RationalFunction sums by its own __radd__
        return _poly(self.field, *self.field.poly_add(self.rows, self.den, other.rows, other.den))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(self.field, *self.field.poly_add(self.rows, self.den, _negated(other.rows), other.den))

    def __neg__(self):
        return _poly(self.field, *self.field.poly_normal(_negated(self.rows), self.den))

    def __mul__(self, other):
        fld = self.field
        if isinstance(other, Polynomial):
            B, db = other.rows, other.den
        elif isinstance(other, RationalFunction):
            return NotImplemented
        else:
            c = _const(fld, other)
            B, db = ((c.raw,) if any(c.raw) else ()), c.den
        if not self.rows or not B:
            return _poly(fld, ())
        den = self.den * db
        rows = fld.poly_mul(self.rows, B)
        if den == 1:
            return _poly(fld, tuple(rows))
        return _poly(fld, *fld.poly_normal(rows, den))

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        fld = self.field
        if len(self.rows) < len(other.rows):
            return _poly(fld, ()), self
        q, dq, r, dr = fld.poly_divmod(self.rows, self.den, other.rows, other.den)
        return _poly(fld, q, dq), _poly(fld, r, dr)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __mod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.rows) < len(other.rows):
            return self
        return _poly(self.field, *self.field.poly_rem(self.rows, self.den, other.rows))

    def divide_out(self, p):
        """(q, m) with self = p^m q and p not dividing q, for p of positive degree.

        At p = t, m = v_t is the number of zero bottom rows and q the rows
        above them, over the same den: no division runs.  Elsewhere the trials
        run in `Field.poly_divide_out`.
        """
        if not self.rows:
            raise ZeroInput("dividing a power out of 0")
        if len(p.rows) < 2:
            raise InvalidInstance("dividing out a polynomial of degree < 1")
        fld, rows = self.field, self.rows
        if p.den == 1 and p.rows == (fld.zero_raw, fld.one_raw):
            m = _t_order(rows)
            rows, den = rows[m:], self.den
        else:
            rows, den, m = fld.poly_divide_out(rows, self.den, p.rows, p.den)
        return (_poly(fld, rows, den) if m else self), m

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        if self.is_monomial:
            # c t^k has the power c^e t^(k e): no product is taken
            c = self.lc() ** e
            return _poly(self.field, (self.field.zero_raw,) * (self.degree * e) + (c.raw,), c.den)
        out = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def monic(self) -> "Polynomial":
        if not self.rows or self.is_monic:
            return self
        rows, fld = self.rows, self.field
        w, d = fld.inv_raw(rows[-1])
        return _poly(fld, *fld.poly_normal(fld.poly_mul(rows, (w,)), d))

    def evaluate(self, x) -> ConstantValue:
        if not self.rows:
            return self._zero()
        c = _const(self.field, x)
        return _cv(self.field, *self.field.poly_eval(self.rows, self.den, c.raw, c.den))

    def derivative(self) -> "Polynomial":
        rows = [tuple(x * i for x in r) for i, r in enumerate(self.rows)][1:]
        return _poly(self.field, *self.field.poly_normal(rows, self.den))

    def compose(self, g: "Polynomial") -> "Polynomial":
        acc = Polynomial.zero(self.field)
        for r in reversed(self.rows):
            acc = acc * g + _poly(self.field, *self.field.poly_normal([r], self.den))
        return acc

    def __eq__(self, other):
        return (
            type(other) is Polynomial
            and self.field.spec == other.field.spec
            and self.rows == other.rows
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.spec, self.rows, self.den))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                mon = "t" if i == 1 else f"t^{i}"
                parts.append(mon if c.is_one else f"({c})*{mon}")
        return " + ".join(reversed(parts))


def _negated(rows) -> list:
    return [tuple(-x for x in r) for r in rows]


def _const(field: Field, v) -> ConstantValue:
    c = _coerce(field, v)
    if c is None:
        raise InvalidInstance(f"cannot coerce {v!r} into the constant field")
    return c


# -- gcd ---------------------------------------------------------------------


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in F[t]: Euclid over F_{p^d}, the modular gcd over Q(zeta_M).

    In characteristic 0 the gcd is read off images modulo primes P of Z[zeta]
    over p = 1 mod M.  Where both leading coefficients are P-units, Gauss's
    lemma gives deg gcd(a mod P, b mod P) >= deg gcd(a, b) (module docstring):
    - so an image of degree 0 proves that the gcd is 1;
    - otherwise the images of the least degree D seen are combined by CRT and
      rational reconstruction, and a candidate is returned only when it is
      monic of degree D and divides a and b exactly, which makes it the gcd.
      A smaller image degree restarts the CRT; only finitely many primes are
      unlucky, so the loop ends.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Polynomial.one(a.field)
    if a.field.char:
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()
    return _modular_gcd(a, b)[0]


def _gcd_cofactors(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) for g = poly_gcd(a, b), a and b not both 0.

    Over Q(zeta_M) the quotients are those of the trial divisions that accepted g.
    """
    if a.field.char == 0 and a.degree > 0 and b.degree > 0:
        return _modular_gcd(a, b)
    g = poly_gcd(a, b)
    if g.degree == 0:
        return g, a, b
    return g, a.exact_div(g), b.exact_div(g)


_GCD_PRIME_FLOOR = 2**61


@functools.lru_cache(maxsize=None)
def _gcd_prime(M: int, i: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The i-th prime p = 1 mod M above 2^61, with the images of the power basis.

    Row r holds x_r^j mod p for j < phi(M), where x_r = w^(k_r) for a primitive
    M-th root of unity w mod p and k_r in (Z/M)^*: mapping zeta to x_r is
    reduction modulo the prime P_r = (p, zeta - x_r) of Z[zeta], whose residue
    field is F_p.  Column r is the Lagrange basis element of
    F_p[x]/(Phi_M) = F_p[x]/prod_r (x - x_r) that is 1 at x_r, so the columns
    take the phi(M) images of an element back to its power-basis vector.
    """
    p = _gcd_prime(M, i - 1)[0] if i else _GCD_PRIME_FLOOR - (_GCD_PRIME_FLOOR - 1) % M
    p += M
    while not is_prime(p):
        p += M
    w = next(
        w
        for w in (pow(y, (p - 1) // M, p) for y in count(2))
        if all(pow(w, M // ell, p) != 1 for ell in factorize(M))
    )
    phi = [c % p for c in cyclotomic_poly(M)]
    rows, cols = [], []
    for x in (pow(w, k, p) for k in range(1, M + 1) if gcd(k, M) == 1):
        rows.append(tuple(pow(x, j, p) for j in range(len(phi) - 1)))
        basis = fp_divmod(phi, [-x % p, 1], p)[0]
        scale = pow(sum(c * v for c, v in zip(basis, rows[-1])), -1, p)
        cols.append(tuple(c * scale % p for c in basis))
    return p, tuple(rows), tuple(cols)


def _image(A: list[list[int]], row: tuple[int, ...], p: int) -> list[int]:
    """A mod the prime P of Z[zeta] over p whose powers of zeta are `row`."""
    return [sum(x * w for x, w in zip(c, row)) % p for c in A]


def _rational(u: int, m: int) -> tuple[int, int] | None:
    """(n, d) with n/d = u mod m, |n|, d <= sqrt(m/2) and d > 0, or None (Wang's reconstruction)."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _t_order(rows: tuple) -> int:
    """v_t of a nonzero polynomial: the number of its zero bottom rows."""
    i = 0
    while not any(rows[i]):
        i += 1
    return i


def _shifted(p: Polynomial, k: int) -> Polynomial:
    """t^k * p; the shifted rows stay canonical."""
    return _poly(p.field, (p.field.zero_raw,) * k + p.rows, p.den) if k else p


def _modular_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) for the monic gcd g of a, b of positive degree over Q(zeta_M).

    Powers of t split off first (module docstring); what is left, when both
    parts keep a positive degree, goes to `_image_gcd`.
    """
    i, j = _t_order(a.rows), _t_order(b.rows)
    if not (i or j):
        return _image_gcd(a, b)
    fld, k = a.field, min(i, j)
    a, b = _poly(fld, a.rows[i:], a.den), _poly(fld, b.rows[j:], b.den)
    g, a, b = (Polynomial.one(fld), a, b) if a.degree == 0 or b.degree == 0 else _image_gcd(a, b)
    return _shifted(g, k), _shifted(a, i - k), _shifted(b, j - k)


def _image_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a / g, b / g) for the monic gcd g of a, b of positive degree over Q(zeta_M), from images mod p.

    The images read the rows of a and b, which are a and b times a denominator in Z[zeta][t].
    """
    fld = a.field
    n = fld.degree
    A, B = a.rows, b.rows
    D = None  # least image degree so far: an upper bound on deg gcd(a, b)
    for i in count():
        p, rows, cols = _gcd_prime(fld.M, i)
        images = []
        for row in rows:
            ga, gb = _image(A, row, p), _image(B, row, p)
            if not ga[-1] or not gb[-1]:
                break  # a leading coefficient is not a unit at P: skip p
            g = fp_gcd(ga, gb, p)
            if len(g) == 1:
                return Polynomial.one(fld), a, b
            images.append(g)
        else:
            d = min(len(g) for g in images) - 1
            if D is None or d < D:
                D, m, acc = d, 1, [0] * (d * n)  # earlier primes were unlucky
            if any(len(g) != D + 1 for g in images):
                continue  # unlucky at some P over p
            res = [
                sum(img[j] * col[k] for img, col in zip(images, cols)) % p
                for j in range(D)
                for k in range(n)
            ]
            step = pow(m, -1, p)
            acc = [x + m * ((r - x) * step % p) for x, r in zip(acc, res)]
            m *= p
            fr = [_rational(x, m) for x in acc]
            if None in fr:
                continue
            # h = t^D + the reconstructed lower coefficients, canonical as the
            # lcm of reduced denominators over all its entries
            den = lcm(*(d for _, d in fr))
            rows = [tuple(x * (den // d) for x, d in fr[j * n : (j + 1) * n]) for j in range(D)]
            h = _poly(fld, (*rows, tuple(den * x for x in fld.one_raw)), den)
            qa, ra = a.divmod(h)
            if ra.is_zero:
                qb, rb = b.divmod(h)
                if rb.is_zero:
                    return h, qa, qb


# -- squarefree machinery ------------------------------------------------------


def poly_pth_root(p: Polynomial) -> Polynomial | None:
    """The p-th root of a polynomial over a perfect field of char p, or None."""
    fld = p.field
    ch = fld.char
    if ch == 0:
        raise InvalidInstance("p-th roots only exist in characteristic p")
    rows = p.rows
    if any(any(r) for i, r in enumerate(rows) if i % ch):
        return None
    # c^(1/p) = c^(p^(d-1)) in F_{p^d}, which is c itself over F_p;
    # the top row sits at a multiple of p, so it stays nonzero
    if fld.d == 1:
        return _poly(fld, rows[::ch])
    e = ch ** (fld.d - 1)
    return _poly(fld, tuple(fld.pow_raw(r, e) for r in rows[::ch]))


def squarefree_decomposition(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic squarefree parts with multiplicities; works in all characteristics."""
    if f.is_zero:
        raise ZeroInput("squarefree decomposition of 0")
    f = f.monic()
    if f.degree == 0:
        return []
    ch = f.field.char
    out: list[tuple[Polynomial, int]] = []
    fp = f.derivative()
    if fp.is_zero:
        root = poly_pth_root(f)
        return [(g, ch * m) for g, m in squarefree_decomposition(root)]
    T, V, _ = _gcd_cofactors(f, fp)
    i = 1
    while V.degree > 0:
        W, T, Ai = _gcd_cofactors(T, V)
        if Ai.degree > 0:
            out.append((Ai, i))
        V = W
        i += 1
    if T.degree > 0:  # only in characteristic p: in characteristic 0, T ends constant
        root = poly_pth_root(T)
        out.extend((g, ch * m) for g, m in squarefree_decomposition(root))
    return out


def radical(f: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of f."""
    out = Polynomial.one(f.field)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Reduced quotient num/den with den monic; zero is 0/1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        fld = num.field
        if den is None:
            den = Polynomial.one(fld)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero:
            _, num, den = _gcd_cofactors(num, den)
            lead = den.lc()
            if not lead.is_one:
                inv = lead.inverse()
                num = num * inv
                den = den * inv
        else:
            den = Polynomial.one(fld)
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -----------------------------------------------------------
    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den that is already reduced with den monic (zero as 0/1): no gcd is taken."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", num.field)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def t(cls, field: Field) -> "RationalFunction":
        return cls(Polynomial.t(field))

    @classmethod
    def constant(cls, field: Field, v) -> "RationalFunction":
        return cls(Polynomial(field, (v,)))

    @classmethod
    def zero(cls, field: Field) -> "RationalFunction":
        return cls(Polynomial.zero(field))

    @classmethod
    def one(cls, field: Field) -> "RationalFunction":
        return cls(Polynomial.one(field))

    # -- data ---------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> ConstantValue:
        if not self.is_constant:
            raise ConstantInput("not a constant")
        return self.num.constant_coeff()

    # -- arithmetic -----------------------------------------------------------------
    def _co(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, ConstantValue, Fraction)):
            other = Polynomial(self.field, (other,))
        if isinstance(other, Polynomial):
            return RationalFunction._reduced(other, Polynomial.one(other.field))
        raise InvalidInstance(f"cannot coerce {other!r} into K")

    def __add__(self, other):
        return _henrici(self, self._co(other), Polynomial.__add__)

    __radd__ = __add__

    def __sub__(self, other):
        return _henrici(self, self._co(other), Polynomial.__sub__)

    def __rsub__(self, other):
        return _henrici(self._co(other), self, Polynomial.__sub__)

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __mul__(self, other):
        o = self._co(other)
        if (self.is_constant or o.is_constant) and not (self.is_zero or o.is_zero):
            # a nonzero constant times a reduced fraction with a monic denominator is reduced
            return RationalFunction._reduced(self.num * o.num, self.den * o.den)
        return RationalFunction(self.num * o.num, self.den * o.den)  # a zero product takes no gcd

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._co(other)
        return o / self

    def __pow__(self, e: int) -> "RationalFunction":
        """Powers of a reduced fraction stay reduced; a negative one only rescales to keep den monic."""
        if e >= 0:
            return RationalFunction._reduced(self.num**e, self.den**e)
        if self.is_zero:
            raise ZeroDivisionError("negative power of 0")
        num, den = self.den ** (-e), self.num ** (-e)
        lead = den.lc()
        if not lead.is_one:
            inv = lead.inverse()
            num, den = num * inv, den * inv
        return RationalFunction._reduced(num, den)

    def inverse(self) -> "RationalFunction":
        return self ** (-1)

    def evaluate(self, x: ConstantValue) -> ConstantValue:
        dv = self.den.evaluate(x)
        if dv.is_zero:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.evaluate(x) / dv

    def value_at_infinity(self) -> ConstantValue:
        """The residue value at infinity (requires v_inf >= 0)."""
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            raise ZeroDivisionError("pole at infinity")
        if dn < dd:
            return _const(self.field, 0)
        return self.num.lc() / self.den.lc()

    def __eq__(self, other):
        if isinstance(other, (int, ConstantValue, Fraction, Polynomial)):
            other = self._co(other)
        return (
            isinstance(other, RationalFunction)
            and self.field.spec == other.field.spec
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.spec, self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:  # a monic constant denominator is 1
            return repr(self.num)
        return f"({self.num})/({self.den})"


def _monic_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b for monic a and b: a factor of degree 0 is 1 and takes no product."""
    if a.degree == 0:
        return b
    return a if b.degree == 0 else a * b


def _henrici(x: RationalFunction, y: RationalFunction, op) -> RationalFunction:
    """x + y or x - y (op is `Polynomial.__add__` or `__sub__`) by Henrici's rule.

    For reduced a/b and c/d with b, d monic, let g = gcd(b, d), b = g b' and
    d = g d', and t = a d' op c b'.  A prime dividing b' divides neither a
    nor d', so it does not divide t; likewise for d'.  So gcd(t, g b' d') =
    gcd(t, g), and with g2 = gcd(t, g) the sum is (t / g2) / (b' d / g2),
    reduced with a monic denominator.  When b or d is 1, or g = 1, no gcd of
    t is taken (Henrici, JACM 1956; Knuth, TAOCP vol. 2, 4.5.1).
    """
    a, b, c, d = x.num, x.den, y.num, y.den
    if b.degree == 0:
        num, den = op(a if d.degree == 0 else a * d, c), d
    elif d.degree == 0:
        num, den = op(a, c * b), b
    else:
        g, b1, d1 = _gcd_cofactors(b, d)
        num = op(a * d1, c * b1)
        if num.is_zero:
            return RationalFunction._reduced(num, Polynomial.one(x.field))
        if g.degree == 0:
            den = b * d
        else:
            g2, num, g1 = _gcd_cofactors(num, g)
            den = _monic_product(b, d1) if g2.degree == 0 else _monic_product(g1, _monic_product(b1, d1))
    # with one denominator 1, t = 0 forces the other to be 1 too, so den is 1
    return RationalFunction._reduced(num, den)


def _over(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num / den in K for a monic den: one gcd, none when den is 1."""
    if den.degree == 0:
        return RationalFunction._reduced(num, den)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------


class Place:
    """A closed point of P^1 over F: monic irreducible polynomial, or infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial | None):
        if poly is not None:
            if poly.is_zero or poly.degree < 1:
                raise InvalidInstance("finite place needs a nonconstant polynomial")
            poly = poly.monic()
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, *a):
        raise AttributeError("Place is immutable")

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def sort_key(self):
        if self.poly is None:
            return (1,)
        return (0, self.poly.degree, tuple(str(c) for c in self.poly.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(("place", self.poly))

    def __repr__(self):
        return "inf" if self.poly is None else f"({self.poly})"


INFINITY = Place(None)


class PlaceSet:
    """Finite set of places; sizes are always weighted by place degree.

    Iteration follows `Place.sort_key`; the set is immutable, so it is sorted
    once.  With at most one finite place the order is that place, then
    infinity, and no key is built.

    The set owns its S-record, (rows, den) -> `orders` of each nonconstant
    polynomial read while S has a finite place, so no polynomial is divided
    by a place of S twice.  It lives as long as the set; `union` starts anew.
    """

    __slots__ = ("places", "_sorted", "_finite", "_record")

    def __init__(self, places=()):
        places = frozenset(places)
        finite = [p for p in places if p.poly is not None]
        if len(finite) > 1:
            order = tuple(sorted(places, key=Place.sort_key))
        else:
            order = (*finite, INFINITY) if INFINITY in places else tuple(finite)
        object.__setattr__(self, "places", places)
        object.__setattr__(self, "_sorted", order)
        object.__setattr__(self, "_finite", tuple(p for p in order if p.poly is not None))
        object.__setattr__(self, "_record", {})

    def __setattr__(self, *a):
        raise AttributeError("PlaceSet is immutable")

    def __contains__(self, p: Place) -> bool:
        return p in self.places

    def __iter__(self):
        return iter(self._sorted)

    def __len__(self):
        return len(self.places)

    @property
    def weighted_size(self) -> int:
        return sum(p.degree for p in self.places)

    @property
    def has_infinity(self) -> bool:
        return INFINITY in self.places

    def union(self, other_places) -> "PlaceSet":
        return PlaceSet(self.places | set(other_places))

    def orders(self, poly: Polynomial, start: int = 0) -> tuple[tuple[int, ...], Polynomial]:
        """(orders, rest) for a nonzero poly: its order at each finite place of S, in
        S's order, and rest, the part of poly off S.

        poly has order 0 at the finite places before index `start`.  Each
        polynomial is divided down S's order at most once: a division that
        takes out a factor records its quotient, from the next place on, and
        a place of degree above what is left cannot divide: order 0.
        """
        places = self._finite
        if poly.degree < 1 or not places:
            return (0,) * len(places), poly
        key = (poly.rows, poly.den)
        out = self._record.get(key)
        if out is None:
            orders, rest = [0] * start, poly
            for k in range(start, len(places)):
                pl = places[k]
                if len(poly.rows) >= len(pl.poly.rows):
                    q, m = poly.divide_out(pl.poly)
                    if m:
                        tail, rest = self.orders(q, k + 1)
                        orders += [m, *tail[k + 1:]]
                        break
                orders.append(0)
            out = self._record[key] = tuple(orders), rest
        return out

    def valuations(self, x: RationalFunction) -> list[int]:
        """v(x) at each place of S, in S's order, for a nonzero x."""
        out = [a - b for a, b in zip(self.orders(x.num)[0], self.orders(x.den)[0])]
        if self.has_infinity:
            out.append(x.den.degree - x.num.degree)
        return out

    def __eq__(self, other):
        return isinstance(other, PlaceSet) and self.places == other.places

    def __hash__(self):
        return hash(self.places)

    def __repr__(self):
        return "{" + ", ".join(repr(p) for p in self) + "}"


# ---------------------------------------------------------------------------
# Valuations, divisors, heights
# ---------------------------------------------------------------------------


def valuation(f: RationalFunction, p: Place):
    """Normalized order of f at p; +inf sentinel for f = 0."""
    if f.is_zero:
        return inf
    if p.is_infinite:
        return f.den.degree - f.num.degree
    return f.num.divide_out(p.poly)[1] - f.den.divide_out(p.poly)[1]


def divisor(f: RationalFunction) -> dict[Place, int]:
    """Full divisor of f (zero valuations omitted); factors num and den."""
    from .factor import factor_poly

    if f.is_zero:
        raise ZeroInput("divisor of 0")
    out: dict[Place, int] = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        if poly.degree < 1:
            continue
        for g, m in factor_poly(poly)[1]:
            out[Place(g)] = out.get(Place(g), 0) + sign * m
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        out[INFINITY] = v_inf
    return {p: v for p, v in out.items() if v}


def height(f: RationalFunction) -> int:
    """Relative height: degree-weighted pole count = max(deg num, deg den)."""
    if f.is_zero:
        raise ZeroInput("height of 0")
    return max(f.num.degree, f.den.degree)


def projective_height(xs) -> int:
    """Projective height of a tuple of elements of K, scaling invariant."""
    xs = list(xs)
    nonzero = [x for x in xs if not x.is_zero]
    if not nonzero:
        raise AllZero("projective height of the zero vector")
    return max(a.degree for a in clear_denominators(nonzero))


def clear_denominators(xs) -> list[Polynomial]:
    """The list xs of elements of K, not all 0, scaled by one element of K* into F[t], content 1."""
    fld = xs[0].field
    den = Polynomial.one(fld)
    for x in xs:
        if x.den.degree > 0:
            den = den * _gcd_cofactors(den, x.den)[2]
    polys = [x.num * den.exact_div(x.den) for x in xs]
    content = Polynomial.zero(fld)
    for a in polys:
        content = poly_gcd(content, a)
        if content.degree == 0:
            return polys
    return [a.exact_div(content) for a in polys]


# ---------------------------------------------------------------------------
# Polynomials over K
# ---------------------------------------------------------------------------


class KPolynomial:
    """Polynomial in a formal variable X with coefficients in K, little-endian.

    Products, `from_roots` and `evaluate` run on the F[t] numerators of the
    coefficients over one common denominator, the product of the distinct
    ones (`_numerators`), and reduce each result coefficient, or the value,
    once: no term of a sum takes a gcd of its own.  Zero coefficients are
    skipped.  K[X] has no sums and no division: the pipeline builds its
    polynomials from coefficients or from roots.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("KPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            type(other) is KPolynomial
            and self.field.spec == other.field.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.spec, self.coeffs))

    def _numerators(self) -> tuple[list[Polynomial], Polynomial]:
        """(N, D) with coeffs[j] = N[j] / D, where D is the product of the distinct denominators (monic)."""
        one = Polynomial.one(self.field)
        dens = list(dict.fromkeys(c.den for c in self.coeffs if c.den.degree > 0))
        if not dens:
            return [c.num for c in self.coeffs], one
        # the cofactor D / d is the product of the other denominators: no division is run
        cofactor = {d: functools.reduce(_monic_product, (e for e in dens if e != d), one) for d in dens}
        D = functools.reduce(_monic_product, dens)
        nums = []
        for c in self.coeffs:
            k = cofactor.get(c.den, D)
            nums.append(c.num if c.is_zero or k.degree == 0 else c.num * k)
        return nums, D

    @classmethod
    def from_roots(cls, field: Field, roots) -> "KPolynomial":
        """prod (X - b) over the roots b = n/d, as prod (d X - n) over D = prod d: one gcd per lower coefficient."""
        one = Polynomial.one(field)
        rows, D = [one], one  # the F[t] coefficients of prod (d X - n), low to high
        for b in roots:
            n, d = b.num, b.den
            out = [Polynomial.zero(field), *(rows if d.degree == 0 else (r * d for r in rows))]
            if not n.is_zero:
                for j, r in enumerate(rows):
                    out[j] = out[j] - r * n
            rows, D = out, _monic_product(D, d)
        # the top row is prod d = D, and the polynomial is monic
        return cls(field, [*(_over(r, D) for r in rows[:-1]), RationalFunction._reduced(one, one)])

    def __mul__(self, other) -> "KPolynomial":
        if isinstance(other, RationalFunction):
            return KPolynomial(self.field, [c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return KPolynomial(self.field, ())
        (A, da), (B, db) = self._numerators(), other._numerators()
        out: list[Polynomial | None] = [None] * (len(A) + len(B) - 1)
        for i, x in enumerate(A):
            if x.is_zero:
                continue
            for j, y in enumerate(B, i):
                if not y.is_zero:
                    out[j] = x * y if out[j] is None else out[j] + x * y
        D, zero = _monic_product(da, db), RationalFunction.zero(self.field)
        return KPolynomial(self.field, [zero if s is None else _over(s, D) for s in out])

    def evaluate(self, x: RationalFunction) -> RationalFunction:
        """P(x) for x = a/b by homogeneous Horner: sum_j N_j a^j b^(d-j) over D b^d, reduced once.

        A run of zero coefficients is one step: the accumulator is multiplied
        by a^gap, and b^(d-j) grows by b^gap, with the powers built once per gap.
        """
        if not self.coeffs:
            return RationalFunction.zero(self.field)
        nums, D = self._numerators()
        a, b = x.num, x.den
        scaled = b.degree > 0  # b is monic: of degree 0 it is 1
        apow, bpow = {1: a}, {1: b}
        top = len(nums) - 1
        acc, bk = nums[top], Polynomial.one(self.field)  # bk = b^(d - top)
        for j in range(top - 1, -1, -1):
            N = nums[j]
            if N.is_zero:
                continue
            gap = top - j
            if gap not in apow:
                apow[gap] = a**gap
            if scaled:
                if gap not in bpow:
                    bpow[gap] = b**gap
                bk = _monic_product(bk, bpow[gap])
                N = N * bk
            acc = acc * apow[gap] + N
            top = j
        if top:
            acc = acc * a**top
        if acc.is_zero:
            return RationalFunction.zero(self.field)
        return _over(acc, _monic_product(D, b ** (len(nums) - 1)) if scaled else D)

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({c})*X^{i}" if i else f"({c})"
            for i, c in enumerate(self.coeffs)
            if not c.is_zero
        )


def poly_valuation(A: KPolynomial, p: Place) -> int:
    """min of the coefficient valuations of A at p."""
    if A.is_zero:
        raise ZeroInput("valuation of the zero polynomial")
    return min(valuation(c, p) for c in A.coeffs if not c.is_zero)


def poly_height(A: KPolynomial) -> int:
    """Projective height of the coefficient vector of A."""
    if A.is_zero:
        raise ZeroInput("height of the zero polynomial")
    return projective_height(A.coeffs)


# ---------------------------------------------------------------------------
# Counting functions and S-arithmetic
# ---------------------------------------------------------------------------


def truncated_counting(b: RationalFunction, S: PlaceSet) -> int:
    """Degree-weighted count of distinct zeros of b outside S."""
    if b.is_zero:
        raise ZeroInput("counting function of 0")
    # S is stripped first, so the squarefree pass runs on the part off S only
    zeros = radical(S.orders(b.num)[1]) if b.num.degree > 0 else Polynomial.one(b.field)
    count = zeros.degree
    if not S.has_infinity and b.den.degree > b.num.degree:
        count += 1
    return count


def gcd_counting(f: RationalFunction, g: RationalFunction, S: PlaceSet) -> int:
    """N_S(gcd(f, g)) for S-integers f, g."""
    if f.is_zero or g.is_zero:
        raise ZeroInput("gcd counting of 0")
    for x in (f, g):
        if not is_s_integer(x, S):
            raise NotSInteger("gcd counting requires S-integers")
    count = S.orders(poly_gcd(f.num, g.num))[1].degree
    if not S.has_infinity:
        count += max(0, min(f.den.degree - f.num.degree, g.den.degree - g.num.degree))
    return count


def deg_ins(f: RationalFunction) -> int:
    """Inseparability degree: largest p-power p^l with f a p^l-th power (1 in char 0)."""
    if f.is_constant:
        raise ConstantInput("deg_ins of a constant")
    ch = f.field.char
    if ch == 0:
        return 1
    out = 1
    cur = f
    while True:
        rn = poly_pth_root(cur.num)
        rd = poly_pth_root(cur.den)
        if rn is None or rd is None:
            return out
        cur = RationalFunction(rn, rd)
        out *= ch
        if cur.is_constant:
            return out


def chi_S(S: PlaceSet) -> int:
    """chi_S = 2*genus - 2 + (degree-weighted size of S), with genus 0 on P^1."""
    return S.weighted_size - 2


def is_s_integer(f: RationalFunction, S: PlaceSet) -> bool:
    """No poles outside S, read off S's record."""
    if f.is_zero:
        raise ZeroInput("S-integrality of 0")
    if S.orders(f.den)[1].degree > 0:
        return False
    return S.has_infinity or f.num.degree <= f.den.degree


def is_s_unit(f: RationalFunction, S: PlaceSet) -> bool:
    """Neither zeros nor poles outside S, read off S's record."""
    if f.is_zero:
        raise ZeroInput("S-unit test of 0")
    if S.orders(f.den)[1].degree > 0 or S.orders(f.num)[1].degree > 0:
        return False
    return S.has_infinity or f.num.degree == f.den.degree
