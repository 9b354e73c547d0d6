"""Self-check of the benchmark's generator, oracles and failure accounting.

    python3 perfbench/selfcheck.py

1. Two seeds give the same operations (count and kind) on every workload.
2. Real outputs of small instances of each workload pass the oracles, and
   corrupted copies of them are counted as failures: a sign-flipped
   component, a wrong eigenvalue, a drifted repeat, a flipped verdict, a
   wrong exported sample, a certificate with ok: false, a traceback and an
   unexpected exit code.

Exits 1 if any expectation fails.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import copy
import shutil
import sys

import oracles
import run
import workloads

WORK = run.WORK / "selfcheck"


def op_shape(op: dict) -> tuple:
    if "argv" in op:
        return tuple(a.split("=")[0] for a in op["argv"] if a.startswith("--") or a.isalpha())
    return (op["call"],) + tuple(sorted(k for k in op if k not in ("seed",)))


def check_seeds(report) -> None:
    for name, gen in workloads.WORKLOADS.items():
        a, b = gen(1), gen(2)
        same = sorted(map(op_shape, a)) == sorted(map(op_shape, b)) and a != b
        report(f"{name}: seeds 1 and 2 give {len(a)} and {len(b)} operations of the same kinds, "
               "with different values", same)


def run_cli(ops) -> list[dict]:
    return run.run_cli_pass(ops, WORK, False)["attempts"]


def fails(attempts, workload, ops) -> int:
    reference = {}
    digested = run.collect(copy.deepcopy(attempts), reference)
    _n, failed, _why = run.account(digested, reference, lambda docs: oracles.CHECKS[workload](ops, docs))
    return failed


def mutated(attempts, index, fn) -> list[dict]:
    out = copy.deepcopy(attempts)
    fn(out[index])
    return out


def check_tensor_cert(report) -> None:
    ops = workloads.tensor_cert(5, l=1)
    clean = run_cli(ops)
    report("tensor-cert (l=1): real outputs pass", fails(clean, "tensor-cert", ops) == 0)

    def flip_component(a):
        comps = a["doc"]["components"]
        comps["n=0,m=1"] = f"-({comps['n=0,m=1']})"

    def flip_slot(a):
        mono = a["doc"]["assemblies"]["m=0"][1]
        mono["scalar"] = f"-({mono['scalar']})"

    def wrong_eigenvalue(a):
        a["doc"]["eigenvalues"]["G"] = "-3"

    def ok_false(a):
        a["doc"]["certificates"][0]["ok"] = False

    def traceback(a):
        a["stderr"] += "Traceback (most recent call last):\n  ...\nValueError\n"

    def exit_code(a):
        a["code"] = 1

    for label, fn in (("sign-flipped component", flip_component),
                      ("sign-flipped assembly slot", flip_slot),
                      ("wrong eigenvalue", wrong_eigenvalue),
                      ("certificate with ok: false", ok_false),
                      ("traceback", traceback), ("unexpected exit code", exit_code)):
        report(f"tensor-cert: {label} counts as a failure",
               fails(mutated(clean, 0, fn), "tensor-cert", ops) >= 1)

    drifted = copy.deepcopy(clean[1])
    drifted["doc"]["checks"][0]["recomputed"] = "ok "
    report("tensor-cert: a drifted repeat counts as a failure",
           fails(clean + [drifted], "tensor-cert", ops) == 1)
    repeat = copy.deepcopy(clean[1])
    repeat["doc"]["timings"] = {"total": "1"}
    report("tensor-cert: a repeat differing only in timings passes",
           fails(clean + [repeat], "tensor-cert", ops) == 0)


def check_numeric_export(report) -> None:
    ops = workloads.numeric_export(5, grid_n=6, cube_n=3)
    clean = run_cli(ops)
    report("numeric-export (small grids): real outputs pass", fails(clean, "numeric-export", ops) == 0)

    def flip_sample(a):
        row = a["doc"]["samples"]["rows"][7]
        row[2] = repr(-float(row[2]) - 0.5)

    def flip_component(a):
        comps = a["doc"]["components"]
        key = sorted(comps)[0]
        comps[key] = f"-({comps[key]})"

    def wrong_hyper_eigenvalue(a):
        a["doc"]["eigenvalues"]["G"] = "7"

    def wrong_scale(a):
        a["doc"]["certificates"][0]["scale"] *= 40

    for label, index, fn in (("wrong exported sample", 0, flip_sample),
                             ("sign-flipped so3 component", 0, flip_component),
                             ("sign-flipped point-series component", 1, flip_component),
                             ("wrong hypergeometric eigenvalue", 2, wrong_hyper_eigenvalue),
                             ("wrong hypergeometric scale", 3, wrong_scale)):
        report(f"numeric-export: {label} counts as a failure",
               fails(mutated(clean, index, fn), "numeric-export", ops) >= 1)


def check_library_session(report) -> None:
    gen = workloads.library_session(5)
    keep = {"is_zero", "apply_ladder", "reduced_operator", "point_series"}
    ops = [op for op in gen if op["call"] in keep][:14]
    ops.append({"call": "scalar_harmonic", "l": 3, "m": 1, "seed": 5})
    clean = run.run_session_pass(ops, WORK, False)["attempts"]
    report("library-session (small): real outputs pass", fails(clean, "library-session", ops) == 0)
    zero_test = next(i for i, op in enumerate(ops) if op["call"] == "is_zero")
    ladder = next(i for i, op in enumerate(ops) if op["call"] == "apply_ladder")

    def flip_verdict(a):
        a["doc"]["verdict"] = "nonzero" if a["doc"]["verdict"] != "nonzero" else "numerically-zero"

    def wrong_coefficient(a):
        a["doc"]["coefficient"] = "7"

    def flip_harmonic(a):
        comps = a["doc"]["components"]
        key = next(iter(comps))
        comps[key] = f"-({comps[key]})"

    def error(a):
        a["doc"], a["stderr"] = None, "Traceback (most recent call last):\n  ...\nKeyError\n"

    for label, index, fn in (("flipped is_zero verdict", zero_test, flip_verdict),
                             ("wrong ladder coefficient", ladder, wrong_coefficient),
                             ("operation that raised", ladder, error)):
        report(f"library-session: {label} counts as a failure",
               fails(mutated(clean, index, fn), "library-session", ops) >= 1)
    report("library-session: sign-flipped harmonic counts as a failure",
           fails(mutated(clean, len(ops) - 1, flip_harmonic), "library-session", ops) >= 1)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = []

    def report(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    try:
        check_seeds(report)
        check_tensor_cert(report)
        check_numeric_export(report)
        check_library_session(report)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print(f"{sum(results)}/{len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
