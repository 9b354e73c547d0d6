"""Library session: public casimir API calls in one long-lived process.

Run by `child.py` after the built-in models are constructed.  Reads the
operation list written by `workloads.py` and writes one result per
operation; an operation that raises records its traceback and the session
goes on, so one failure costs one operation.  `done(start, end)` is called
after each operation with its perf_counter() bounds.
"""

from __future__ import annotations

import json
import time
import traceback


def _family(fam) -> dict:
    return fam.to_json()


def run_session(models, ops_path: str, results_path: str, done) -> int:
    from casimir import expr as ex
    from casimir import numcheck as nc
    from casimir import operator
    from casimir.parser import parse
    from casimir.tensor_fields import TensorField

    so3, b2 = models

    def scalar_family(op):
        return _family(so3.scalar_family(op["l"], seed=op["seed"]))

    def scalar_harmonic(op):
        return _family(so3.scalar_harmonic(op["l"], op["m"], seed=op["seed"]))

    def apply_ladder(op):
        coef, target, rep = so3.apply_ladder(op["l"], op["n"], op["m"], op["s"], seed=op["seed"])
        return {"coefficient": ex.unparse(coef), "target": target, "residual": rep.to_json()}

    def reduced_operator(op):
        return so3.reduced_operator(op["n"]).to_json()

    def point_series(op):
        return _family(b2.point_series(op["n"], op["m"], op["nu"], seed=op["seed"]))

    def covector_harmonic(op):
        return _family(b2.covector_harmonic(op["n"], op["m"], op["nu"], seed=op["seed"]))

    def hypergeometric_harmonic(op):
        return _family(b2.hypergeometric_harmonic(
            op["mu"], op["nu"], op["lam"], op["A"], op["B"], seed=op["seed"]))

    def check_commutes(op):
        casimir_op = so3.op_space if op["model"] == "so3" else b2.op
        chart = casimir_op.chart
        comps = tuple(parse(s, chart.coords) for s in op["components"])
        tensor = TensorField(chart, 0, 1, comps)
        reports = operator.check_commutes(casimir_op, op["j"], tensor, seed=op["seed"])
        return {"residuals": [r.to_json() for r in reports]}

    def is_zero(op):
        e = parse(op["expr"], sorted(op["box"]))
        box = {k: tuple(v) for k, v in op["box"].items()}
        return nc.is_zero(e, box, seed=op["seed"]).to_json()

    handlers = {f.__name__: f for f in (
        scalar_family, scalar_harmonic, apply_ladder, reduced_operator, point_series, covector_harmonic,
        hypergeometric_harmonic, check_commutes, is_zero)}
    with open(ops_path) as fh:
        ops = json.load(fh)
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            results.append({"result": handlers[op["call"]](op)})
        except Exception:  # noqa: BLE001 - recorded per operation and counted as a failure
            results.append({"error": traceback.format_exc()})
        done(start, time.perf_counter())
    with open(results_path, "w") as fh:
        json.dump(results, fh, sort_keys=True)
    return 0
