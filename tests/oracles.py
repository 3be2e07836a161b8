"""Independent oracles used by the property and acceptance suites.

These deliberately avoid the companion-polynomial machinery: a power sum is
declared identically zero only after it evaluates to zero at more points than
its numerator degree (exact arithmetic, so this is a proof), or after a direct
symbolic evaluation in characteristic p where the point count may fall short.
"""

from fractions import Fraction

from skolemff import (
    INFINITY,
    ConstantValue,
    Place,
    Polynomial,
    RationalFunction,
    cyclotomic_poly,
    height,
    poly_height,
    valuation,
)
from skolemff.constants import _defining_poly
from skolemff.errors import FactorizationTooHard, InvalidInstance, ZeroInput
from skolemff.factor import factor_poly, monic_divisors
from skolemff.funfield import KPolynomial, divisor, poly_gcd
from skolemff.kroots import RootSearch, _scalar_solutions
from skolemff.multstruct import DependenceWitness, _as_root_of_unity, _relation
from skolemff.powersum import class_reduction, eval_B


def is_identically_zero(inst, n: int) -> bool:
    fld = inst.field
    if fld.char:
        return eval_B(inst, n).is_zero
    D = sum(
        height(lam) + abs(r * n) * height(inst.f)
        for lam, r in zip(inst.lambdas, inst.exponents)
    )
    need = D + 2
    found, k, tried = 0, 0, 0
    while found < need and tried < 6 * need + 40:
        x = ConstantValue(fld, fld.from_int(k))
        k = -k + (1 if k <= 0 else 0)
        tried += 1
        try:
            acc = ConstantValue(fld, fld.zero_raw)
            for lam, eps, r in zip(inst.lambdas, inst.epsilons, inst.exponents):
                fv = inst.f.evaluate(x)
                acc = acc + lam.evaluate(x) * (eps.value ** (n % eps.order)) * fv ** (r * n)
        except ZeroDivisionError:
            continue
        if not acc.is_zero:
            return False
        found += 1
    assert found >= need, "not enough evaluation points"
    return True


def strip_places(f, places):
    """Divide out every factor of f supported at a finite place of S."""
    for pl in places:
        if not pl.is_infinite:
            f = f.divide_out(pl.poly)[0]
    return f


def euclid_gcd(a, b):
    """Monic gcd in F[t] by Euclid's algorithm, one exact division per step."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def kpoly_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b in K[X], by long division: one K product and difference per term."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    fld, d = a.field, b.degree
    if a.degree < d:
        return KPolynomial(fld, ()), a
    rem = list(a.coeffs)
    inv_lead = b.coeffs[-1].inverse()
    quo = [RationalFunction.zero(fld)] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i].is_zero:
            continue
        q = quo[i - d] = rem[i] * inv_lead
        for j, c in enumerate(b.coeffs):
            rem[i - d + j] = rem[i - d + j] - q * c
    return KPolynomial(fld, quo), KPolynomial(fld, rem[:d])


def trial_divide_out(A, p):
    """(q, m) with A = p^m q and p not dividing q in K[X], by repeated `kpoly_divmod`, for A != 0, deg p >= 1."""
    m = 0
    while True:
        q, r = kpoly_divmod(A, p)
        if not r.is_zero:
            return A, m
        A, m = q, m + 1


def clear_denominators(xs):
    """The list xs of elements of K, not all 0, scaled by one element of K* into F[t], content 1.

    The scale is the lcm of the reduced denominators, grown by one gcd per
    denominator, and the content is the monic gcd of the scaled numerators.
    """
    fld = xs[0].field
    den = Polynomial.one(fld)
    for x in xs:
        den = den * x.den.exact_div(poly_gcd(den, x.den))
    polys = [x.num * den.exact_div(x.den) for x in xs]
    content = Polynomial.zero(fld)
    for a in polys:
        content = poly_gcd(content, a)
    return [a.exact_div(content) for a in polys]


def projective_height(xs):
    """Projective height of a tuple of elements of K, scaling invariant: the largest degree once cleared."""
    nonzero = [x for x in xs if not x.is_zero]
    if not nonzero:
        raise ZeroInput("projective height of the zero vector")
    return max(a.degree for a in clear_denominators(nonzero))


def divisor_pair_roots(P):
    """`find_roots_in_K` by trying every coprime pair u | a_0, v | a_d of monic divisors.

    No Newton polygon prunes the pairs; more than 4096 monic divisors of either
    end coefficient give an incomplete search.  Each root's multiplicity comes
    from trial division in K[X] (`trial_divide_out`), not from the scalar gcd.
    """
    fld = P.field
    zero_mult = 0
    coeffs = list(P.coeffs)
    while coeffs and coeffs[0].is_zero:
        zero_mult += 1
        coeffs.pop(0)
    rem = KPolynomial(fld, coeffs)
    if rem.degree == 0:
        return RootSearch((), zero_mult, 0, True)
    polys = clear_denominators(coeffs)
    candidates = []
    try:
        us, vs = monic_divisors(polys[0]), monic_divisors(polys[-1])
        for u in us:
            for v in vs:
                if u.degree > 0 and v.degree > 0 and poly_gcd(u, v).degree > 0:
                    continue
                candidates += [RationalFunction(u * c, v) for c, _ in _scalar_solutions(polys, u, v)]
        complete = True
    except FactorizationTooHard:
        complete = False
    one = RationalFunction.one(fld)
    roots = []
    for beta in candidates:
        rem, mult = trial_divide_out(rem, KPolynomial(fld, (-beta, one)))
        if mult:
            roots.append((beta, mult))
    roots.sort(key=lambda rm: str(rm[0]))
    return RootSearch(tuple(roots), zero_mult, rem.degree, complete)


def fraction_constant(fld, items):
    """A constant from its instance-file entries by way of `Fraction`: every check
    of `ConstantValue.from_strings`, in its order and with its messages, and
    Fraction(s) as the reader of an entry in characteristic 0."""
    if not isinstance(items, list):
        raise InvalidInstance(f"a constant is an array of entries, got {items!r}")
    for s in items:
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise InvalidInstance(f"constant entries are strings or integers, got {s!r}")
    if fld.char == 0:
        try:
            coeffs = [Fraction(s) for s in items]
        except ZeroDivisionError as exc:
            raise InvalidInstance(f"constant {items} has a zero denominator") from exc
    else:
        coeffs = []
        for s in items:
            v = int(s)
            if not 0 <= v < fld.char:
                raise InvalidInstance(f"coefficient {s} outside [0, p)")
            coeffs.append(v)
    return ConstantValue.from_rationals(fld, coeffs)


def fraction_poly(fld, items):
    """A polynomial from its instance-file constants, one `fraction_constant` per coefficient."""
    if not isinstance(items, list):
        raise InvalidInstance("polynomial must be an array of constants")
    return Polynomial(fld, [fraction_constant(fld, c) for c in items])


def coeffwise_mul(a, b):
    """a * b in F[t] by the schoolbook product, one ConstantValue product per pair of coefficients."""
    fld = a.field
    if a.is_zero or b.is_zero:
        return Polynomial.zero(fld)
    out = [ConstantValue(fld, fld.zero_raw)] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(fld, out)


def coeffwise_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by long division on ConstantValues."""
    fld = a.field
    rem, d = list(a.coeffs), b.degree
    if a.degree < d:
        return Polynomial.zero(fld), a
    inv = b.lc().inverse()
    quo = [ConstantValue(fld, fld.zero_raw)] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i] * inv
        quo[i - d] = q
        for j, c in enumerate(b.coeffs):
            rem[i - d + j] = rem[i - d + j] - q * c
    return Polynomial(fld, quo), Polynomial(fld, rem[:d])


def _modulus(fld) -> list:
    """The monic modulus of F's power basis: Phi_M, resp. the defining polynomial mod p."""
    if fld.char:
        return [c % fld.char for c in _defining_poly(fld.char, fld.d)]
    return list(cyclotomic_poly(fld.M))


def _scalars(fld):
    """(add, sub, mul, inv) on the entries of a vector: Fractions, resp. residues mod p."""
    p = fld.char
    if p:
        return (lambda x, y: (x + y) % p, lambda x, y: (x - y) % p, lambda x, y: x * y % p, lambda x: pow(x, -1, p))
    return (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x: Fraction(1) / x)


def fraction_vector(c) -> tuple:
    """A constant as its coefficient vector: Fractions in characteristic 0, residues mod p."""
    if c.field.char:
        return tuple(c.raw)
    return tuple(Fraction(x, c.den) for x in c.raw)


def vector_mul(fld, a, b) -> tuple:
    """The product of two coefficient vectors: the schoolbook convolution, then
    long division by the monic modulus, one scalar operation at a time."""
    add, sub, mul, _ = _scalars(fld)
    mod = _modulus(fld)
    n = len(mod) - 1
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = add(conv[i + j], mul(x, y))
    for i in range(2 * n - 2, n - 1, -1):
        c, conv[i] = conv[i], 0
        for j in range(n):
            conv[i - n + j] = sub(conv[i - n + j], mul(c, mod[j]))
    return tuple(conv[:n])


def vector_inv(fld, a) -> tuple:
    """The inverse of a nonzero coefficient vector by the extended Euclid in
    Q[x] (resp. F_p[x]) against the modulus: s a + t m = r0 with r0 a unit."""
    add, sub, mul, inv = _scalars(fld)

    def trim(v):
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return v

    r0, r1, t0, t1 = _modulus(fld), trim(a), [], [1]
    while len(r1) > 1:
        q, r = [0] * (len(r0) - len(r1) + 1), list(r0)
        lead = inv(r1[-1])
        for i in range(len(r) - 1, len(r1) - 2, -1):
            c = mul(r[i], lead)
            q[i - len(r1) + 1] = c
            for j, y in enumerate(r1):
                r[i - len(r1) + 1 + j] = sub(r[i - len(r1) + 1 + j], mul(c, y))
        tn = list(t0) + [0] * max(0, len(q) + len(t1) - 1 - len(t0))
        for i, x in enumerate(q):
            for j, y in enumerate(t1):
                tn[i + j] = sub(tn[i + j], mul(x, y))
        r0, r1, t0, t1 = r1, trim(r), t1, tn
    c = inv(r1[0])
    out = [mul(c, x) for x in trim(t1)]
    return tuple(out + [0] * (fld.degree - len(out)))


def vector_repr(fld, v) -> str:
    """The printed form of a constant from its coefficient vector."""
    if fld.char:
        return str(v[0]) if fld.d == 1 else "[" + ",".join(str(c) for c in v) + "]"
    parts = []
    for i, c in enumerate(v):
        if c == 0:
            continue
        mon = "z" if i == 1 else f"z^{i}"
        parts.append(str(c) if i == 0 else mon if c == 1 else f"{c}*{mon}")
    return "+".join(parts).replace("+-", "-") or "0"


def brute_local_check(inst, k, a):
    """Direct definition: v_p(B(k)) >= min(1, v_p(f^a - 1)) for all p outside S."""
    target = inst.f**a - 1
    if target.is_zero:
        return True
    B = eval_B(inst, k)
    places = [Place(g) for g, _ in factor_poly(target.num)[1]]
    places.append(INFINITY)
    for p in places:
        if p in inst.places:
            continue
        v_target = valuation(target, p)
        if v_target >= 1 and not (B.is_zero or valuation(B, p) >= 1):
            return False
    return True


def brute_zero_scan(inst, bound: int):
    """Smallest-|n| zero of B in [-bound, bound], ties toward positive; else None."""
    for n in sorted(range(-bound, bound + 1), key=lambda v: (abs(v), 1 if v < 0 else 0)):
        if is_identically_zero(inst, n):
            return n
    return None


def window_zero_scan(inst):
    """Smallest-|n| zero of B (ties toward positive), or None, by the height window.

    A root g^m of P'_c has |m| h(g) = h(g^m) <= h(P'_c), so every |m| <= h(P'_c)/h(g)
    of each class gets the exact test P'_c(g^m) = 0; a class with P'_c = 0
    vanishes on all of it and offers c and c - e.
    """
    zeros = []
    for c in range(inst.e):
        P, g = class_reduction(inst, c)
        if P.is_zero:
            zeros += [c, c - inst.e]
            continue
        W = poly_height(P) // height(g)
        zeros += [c + inst.e * m for m in range(-W, W + 1) if P.evaluate(g**m).is_zero]
    return min(zeros, key=lambda n: (abs(n), 1 if n < 0 else 0), default=None)


def brute_admissible_a(e: int, N: int, gamma: Fraction) -> int:
    """Smallest a satisfying the prime-power condition, by raw ascending scan."""
    from skolemff.intutil import factorize, valuation_int

    a = 0
    while True:
        a += 1
        ok = True
        for qp in factorize(e):
            if Fraction(qp ** (1 + valuation_int(a, qp) - valuation_int(e, qp))) <= N + gamma:
                ok = False
                break
        if ok:
            return a


def brute_min_e(orders, gamma: Fraction, char: int) -> int:
    """Smallest e > gamma killing all the given orders (and coprime to char)."""
    e = 0
    while True:
        e += 1
        if Fraction(e) <= gamma:
            continue
        if char and e % char == 0:
            continue
        if all(e % d == 0 for d in orders):
            return e


def ell_oracle(p: int, q: int, hf: int, degp: int, hp: int, chi: int) -> int:
    """Direct big-integer evaluation of the terminal inequality failure point."""
    ell = 1
    while True:
        phi = p**ell - p ** (ell - 1)
        L = (phi - 2) * hf - chi
        if L > 0 and L**3 > 54 * degp**3 * chi * (p**ell * q * hf + hp) ** 2:
            return ell
        ell += 1


def horner_phi(d: int, g):
    """Phi_d(g) in K by Horner's rule, one K operation per coefficient."""
    acc = RationalFunction.zero(g.field)
    for cj in reversed(cyclotomic_poly(d)):
        acc = acc * g + cj
    return acc


def brute_dependence(beta, f):
    """Smallest q > 0, with its r, making beta^q / f^r a torsion constant, by search.

    q runs up to h(f): if q*div(beta) = r*div(f) with (q, r) primitive, then
    div(f) is q times an integral divisor, so h(f) >= q.  Then |r| h(f) = q h(beta).
    """
    hb = 0 if beta.is_constant else height(beta)
    for q in range(1, height(f) + 1):
        bq = beta**q
        for r in range(-q * hb, q * hb + 1):
            ratio = bq / f**r
            if ratio.is_constant and ratio.constant_value().is_torsion():
                return q, r, ratio.constant_value()
    return None


def brute_power(beta, f):
    """The n with beta = f^n, by trying every |n| <= h(beta)."""
    hb = 0 if beta.is_constant else height(beta)
    return next((n for n in range(-hb, hb + 1) if beta == f**n), None)


def divisor_dependence(beta, f):
    """`dependence_exponents` by factoring both sides: the primitive relation
    between div(beta) and div(f), then the constant beta^q / f^r built in K."""
    if beta.is_constant:
        cv = beta.constant_value()
        return DependenceWitness(1, 0, _as_root_of_unity(cv)) if cv.is_torsion() else None
    rel = _relation(divisor(beta), divisor(f))
    if rel is None:
        return None
    q, r = rel[0], -rel[1]
    cv = ((beta**q) / (f**r)).constant_value()
    return DependenceWitness(q, r, _as_root_of_unity(cv)) if cv.is_torsion() else None


def coeffwise_kmul(a, b):
    """a * b in K[X] by the schoolbook product, one K product and one K sum per pair of coefficients."""
    fld = a.field
    if a.is_zero or b.is_zero:
        return KPolynomial(fld, ())
    out = [RationalFunction.zero(fld)] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return KPolynomial(fld, out)


def kpoly_from_roots(fld, roots):
    """prod (X - b) over the roots, one `coeffwise_kmul` per linear factor."""
    one = RationalFunction.one(fld)
    out = KPolynomial(fld, (one,))
    for b in roots:
        out = coeffwise_kmul(out, KPolynomial(fld, (-b, one)))
    return out


def horner_k(P, x):
    """P(x) in K by Horner's rule, one K product and one K sum per coefficient."""
    acc = RationalFunction.zero(P.field)
    for c in reversed(P.coeffs):
        acc = acc * x + c
    return acc
