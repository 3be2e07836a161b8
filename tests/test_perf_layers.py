"""Every layer of the traced benchmark binds on the real package (perfbench/layers.py).

A method moved out of the class body a layer names would otherwise fail only
`perfbench/run.py --trace 1`.
"""

import contextlib
import io
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import layers  # noqa: E402
from tracer import Tracer, bind, unbind  # noqa: E402

from skolemff import ConstantValue, FieldSpec, Polynomial, cli, field_for  # noqa: E402
from skolemff.generate import generate_instance  # noqa: E402
from skolemff.serialize import save_instance  # noqa: E402


def test_every_layer_binds_and_divmod_counts_only_divisions_in_F_t(Q):
    one, t = Polynomial.one(Q), Polynomial.t(Q)
    a, b = t * t + one, t + one
    divmod_fn = vars(Polynomial)["divmod"]
    tracer = Tracer()
    undo = bind(tracer, layers.make_layers(), "skolemff")
    try:
        q, r = a.divmod(b)
    finally:
        unbind(undo)
    assert tracer.stat("funfield.Polynomial.divmod").calls == 1
    assert q * b + r == a
    assert vars(Polynomial)["divmod"] is divmod_fn  # unwrapped again


def test_F_t_product_and_division_record_the_kernel_layers():
    # the F[t] kernels run on int rows, but a product and a division still
    # pass through the layers perfbench's WORKS_MOST_IN requires: the division
    # inverts the divisor's leading element through Field.inv_raw and scales
    # the divisor to monic with Field.mul_raw
    for spec in (FieldSpec(0, 4), FieldSpec(3, 1, 2)):
        fld = field_for(spec)
        t, one = Polynomial.t(fld), Polynomial.one(fld)
        zeta = Polynomial(fld, [ConstantValue.from_rationals(fld, [0, 1])])
        a, b = t * t + zeta, t * (zeta + one) + one
        tracer = Tracer()
        undo = bind(tracer, layers.make_layers(), "skolemff")
        try:
            prod = a * b
            q, r = prod.divmod(b + one)
        finally:
            unbind(undo)
        assert q * (b + one) + r == prod and r.degree < b.degree
        for name in ("funfield.Polynomial.mul", "funfield.Polynomial.divmod", "constants.mul_raw", "constants.inv_raw"):
            assert tracer.stat(name).calls > 0, (spec, name)


def test_solve_on_a_planted_zero_reaches_class_reduction_and_eval_B(tmp_path):
    # small seed 12 has a planted zero at n = 2: the exact test expands P'_c and
    # the report verifies the zero with eval_B
    path = str(tmp_path / "small-12.json")
    save_instance(generate_instance(12, "small")[0], path, {})
    tracer = Tracer()
    undo = bind(tracer, layers.make_layers(), "skolemff")
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["solve", path])
    finally:
        unbind(undo)
    assert code == 0 and json.loads(out.getvalue())["result"]["global_zero"] == "2"
    for name in ("powersum.class_reduction", "powersum.eval_B", "powersum.decide_global_zero"):
        assert tracer.stat(name).calls > 0, name
