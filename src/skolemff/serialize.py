"""Instance-file and report serialization.

One instance per JSON file.  Every number travels as a decimal string so
arbitrary-precision values survive any JSON implementation.  Constants are
little-endian power-basis vectors ("a/b" strings over Q(zeta_M), decimal
residues over F_p); polynomials are little-endian arrays of constants;
epsilons are [order, exponent] pairs meaning zeta_order^exponent in
characteristic 0, or {"order", "value"} with an explicitly declared order in
characteristic p.  Both forms read their root from the field's table of
verified roots of unity (`constants.root_of_unity`): each (order, value) is
verified once, on its first read, and a value that fails is never stored.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from math import gcd

from .constants import ConstantValue, Field, FieldSpec, RootOfUnity, field_for, read_rows, root_of_unity, zeta
from .errors import FactorizationTooHard, InvalidInstance
from .factor import factor_poly, max_degree_cap
from .funfield import INFINITY, Place, PlaceSet, Polynomial, RationalFunction, _poly
from .intutil import euler_phi
from .powersum import PowerSumInstance

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
    "canonical_dumps",
    "instance_digest",
    "stringify_numbers",
]


def stringify_numbers(obj):
    """Deep-copy obj with every int/Fraction rendered as a decimal string."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        raise InvalidInstance("floating point values are not serializable here")
    if isinstance(obj, dict):
        return {k: stringify_numbers(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [stringify_numbers(v) for v in obj]
    return str(obj)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()


# -- field -------------------------------------------------------------------


def fieldspec_to_json(spec: FieldSpec) -> dict:
    out = {"characteristic": str(spec.characteristic)}
    if spec.characteristic == 0:
        out["cyclotomic_order"] = str(spec.cyclotomic_order)
    else:
        out["extension_degree"] = str(spec.extension_degree)
    return out


def _int(x) -> int:
    """An integer field of the format: a decimal string or a JSON integer, never a float or boolean."""
    if isinstance(x, (bool, float)):
        raise InvalidInstance(f"expected an integer, got {json.dumps(x)}")
    return int(x)


@functools.cache
def _spec_and_degree(ch: int, n: int) -> tuple[FieldSpec, int]:
    """(spec, [F:F_0]) of Q(zeta_n) for ch = 0 and of F_{ch^n} otherwise, built
    and checked once per spec: the degree is phi(n), resp. n."""
    if ch == 0:
        spec = FieldSpec(0, n, 1)
        return spec, euler_phi(n)
    return FieldSpec(ch, 1, n), n


def fieldspec_from_json(obj) -> FieldSpec:
    """The declared field; a degree [F:F_0] above SKOLEMFF_MAX_DEGREE is too big to build."""
    if not isinstance(obj, dict):
        raise InvalidInstance("field must be {characteristic, ...}")
    ch = _int(obj.get("characteristic", "0"))
    n = _int(obj.get("extension_degree", "1") if ch else obj.get("cyclotomic_order", "1"))
    cap = max_degree_cap()
    if ch == 0 and n > 2 * cap**2:  # phi(n) >= sqrt(n/2) > cap, known without factoring n
        raise FactorizationTooHard(f"field degree phi({n}) >= sqrt({n}/2) exceeds SKOLEMFF_MAX_DEGREE={cap}")
    spec, degree = _spec_and_degree(ch, n)
    if degree > cap:
        raise FactorizationTooHard(f"field degree {degree} exceeds SKOLEMFF_MAX_DEGREE={cap}")
    return spec


# -- constants / polynomials / functions ---------------------------------------


def poly_to_json(p: Polynomial) -> list:
    return [c.to_strings() for c in p.coeffs]


def poly_from_json(field: Field, items) -> Polynomial:
    """The polynomial with the constants `items`, read in one pass (`read_rows`)."""
    if not isinstance(items, list):
        raise InvalidInstance("polynomial must be an array of constants")
    return _poly(field, *read_rows(field, items))


def ratfunc_to_json(f: RationalFunction) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfunc_from_json(field: Field, obj) -> RationalFunction:
    if not isinstance(obj, dict) or "num" not in obj:
        raise InvalidInstance("rational function must be {num, den}")
    num = poly_from_json(field, obj["num"])
    den = poly_from_json(field, obj.get("den", [["1"]]))
    if den.is_zero:
        raise InvalidInstance("zero denominator")
    if den.den == 1 and den.rows == (field.one_raw,):  # num/1 is reduced: no gcd
        return RationalFunction._reduced(num, den)
    return RationalFunction(num, den)


def place_to_json(p: Place) -> dict:
    if p.is_infinite:
        return {"type": "infinity"}
    return {"type": "finite", "poly": poly_to_json(p.poly)}


def place_from_json(field: Field, obj) -> Place:
    if not isinstance(obj, dict):
        raise InvalidInstance("place must be {type, poly}")
    if obj.get("type") == "infinity":
        return INFINITY
    if obj.get("type") != "finite":
        raise InvalidInstance(f"unknown place type {obj.get('type')!r}")
    poly = poly_from_json(field, obj["poly"])
    if poly.degree < 1:
        raise InvalidInstance("finite place needs positive degree")
    if not poly.is_monic:
        raise InvalidInstance("finite place polynomial must be monic")
    if poly.degree > 1:  # a monic linear polynomial is irreducible
        _, factors = factor_poly(poly)
        if len(factors) != 1 or factors[0][1] != 1:
            raise InvalidInstance(f"place polynomial {poly!r} is not irreducible")
    return Place(poly)


def epsilon_to_json(eps: RootOfUnity, field: Field) -> object:
    if field.char == 0:
        g = zeta(field, eps.order)
        cur = ConstantValue(field, field.one_raw)
        for j in range(eps.order):
            if cur == eps.value:
                return [str(eps.order), str(j)]
            cur = cur * g
        raise InvalidInstance("epsilon is not a power of the canonical root")
    return {"order": str(eps.order), "value": eps.value.to_strings()}


def epsilon_from_json(field: Field, obj) -> RootOfUnity:
    if isinstance(obj, list):
        if len(obj) != 2:
            raise InvalidInstance("epsilon pair must be [order, exponent]")
        order, exponent = _int(obj[0]), _int(obj[1])
        if order < 1:
            raise InvalidInstance("epsilon order must be positive")
        k = exponent % order
        # zeta_order^k has order order / gcd(order, k)
        return root_of_unity(order // gcd(order, k), zeta(field, order) ** k)
    if isinstance(obj, dict):
        value = ConstantValue.from_strings(field, obj["value"])
        return root_of_unity(_int(obj["order"]), value)
    raise InvalidInstance("epsilon must be a pair or {order, value}")


# -- instances -----------------------------------------------------------------


def instance_to_json(inst: PowerSumInstance, metadata: dict | None = None) -> dict:
    field = inst.field
    out = {
        "field": fieldspec_to_json(field.spec),
        "f": ratfunc_to_json(inst.f),
        "lambdas": [ratfunc_to_json(lam) for lam in inst.lambdas],
        "epsilons": [epsilon_to_json(e, field) for e in inst.epsilons],
        "r": [str(r) for r in inst.exponents],
        "S": [place_to_json(p) for p in inst.places],
    }
    if metadata:
        out["metadata"] = metadata
    return out


def _array(obj: dict, key: str) -> list:
    """obj[key], which the format requires to be a JSON array: a string or an object is not read as its items."""
    items = obj[key]
    if not isinstance(items, list):
        raise InvalidInstance(f"{key} must be an array")
    return items


def instance_from_json(obj: dict) -> PowerSumInstance:
    if not isinstance(obj, dict):
        raise InvalidInstance("instance file must hold a JSON object")
    try:
        genus = _int(obj.get("genus", 0))
        if genus:
            raise InvalidInstance(f"genus {genus} declared, but K = F(t) has genus 0")
        spec = fieldspec_from_json(obj.get("field", {}))
        field = field_for(spec)
        f = ratfunc_from_json(field, obj["f"])
        lambdas = tuple(ratfunc_from_json(field, x) for x in _array(obj, "lambdas"))
        epsilons = tuple(epsilon_from_json(field, x) for x in _array(obj, "epsilons"))
        exponents = tuple(_int(x) for x in _array(obj, "r"))
        places = PlaceSet([place_from_json(field, x) for x in _array(obj, "S")])
    except KeyError as exc:
        raise InvalidInstance(f"missing instance field: {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        # OverflowError: int() of a number JSON parsed as float inf, such as 1e400
        raise InvalidInstance(f"malformed instance value: {exc}") from exc
    return PowerSumInstance(
        lambdas=lambdas,
        epsilons=epsilons,
        exponents=exponents,
        f=f,
        places=places,
    )


def load_instance(path: str) -> tuple[PowerSumInstance, dict]:
    """(instance, document) of an instance file, read and parsed once."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # JSONDecodeError, an integer beyond int()'s digit limit, or nesting beyond the recursion limit
        except (ValueError, RecursionError) as exc:
            raise InvalidInstance(f"invalid JSON: {exc}") from exc
    return instance_from_json(doc), doc


def save_instance(inst: PowerSumInstance, path: str, metadata: dict | None = None) -> dict:
    doc = instance_to_json(inst, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
