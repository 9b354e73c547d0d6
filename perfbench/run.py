"""End-to-end benchmark of casimir with independent output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the operation lists and BENCHMARK.json for
why each was chosen):

    tensor-cert      cold CLI: certified type-(0,2) family, then verify --family
    numeric-export   cold CLI: grid exports and continuous-spectrum families
    library-session  one warm process calling the public API

A pass runs the workload's operation list once, in a closed loop from this
single process with one operation in flight; every CLI operation runs in a
fresh interpreter (`child.py`), as every CLI user pays cold caches.  Passes
repeat while the next one still fits in --seconds, and each metric is the
median over passes.  End-to-end metrics (--trace 0), per pass:

    wall_s       spawn to exit, summed over the processes (they run one after another)
    setup_s      import casimir + built-in model construction, summed over processes
    run_s        time inside the operations proper, summed over processes
    cpu_s        user + system CPU of the child processes
    peak_rss_mb  largest max-RSS of any child process

The four times are scaled to a reference CPU speed by the speed samples that
`speed.py` takes in each child, and the time the samples take is left out;
the log lines also give them as measured.  Per-layer times are scaled by the
same factor as their process.

With --trace 1 the first pass runs untraced, the rest traced (`tracing.py`),
and the per-layer metrics come from the traced passes, together with the
tracing overhead; traced outputs must equal the untraced ones byte for byte,
timings excluded.

After the timed passes the first output of every operation is checked by
`oracles.py` (sympy, mpmath and numpy; no casimir), and every later output of
the same operation must equal it.  An operation fails on an unexpected exit
code, a traceback, a certificate with ok: false, an oracle mismatch or such a
drift.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall_s", "setup_s", "run_s", "cpu_s")

# per-layer metric -> traced names whose self times add up to it
SELF_TIME = {
    "expr.mul.self_s": ("expr.mul",),
    "expr.add.self_s": ("expr.add",),
    "expr.power.self_s": ("expr.power",),
    "expr.diff.self_s": ("expr.diff",),
    "expr.simplify.self_s": ("expr.simplify",),
    "expr.unparse.self_s": ("expr.unparse",),
    "parser.parse.self_s": ("parser.parse",),
    "tensor_fields.lie_derivative.self_s": ("tensor_fields.lie_derivative",),
    "operator.apply_casimir.self_s": ("operator.apply_casimir",),
    "operator.assemble.self_s": ("operator.assemble",),
    "operator.reduce_to_scalar.self_s": ("operator.reduce_to_scalar",),
    "operator.ScalarOperator.apply.self_s": ("operator.ScalarOperator.apply",),
    "models.ladder_family.self_s": ("models.so3.So3Model.ladder_family",),
    "numcheck.is_zero.self_s": ("numcheck.is_zero",),
    "evalcore.compile_expr.self_s": ("evalcore.compile_expr",),
    # the evaluator layer includes its pure-Python backend module
    "evalcore.run.self_s": ("evalcore.Program.run", "_pyeval.run_program"),
    "evalcore.hyp2f1.self_s": ("evalcore.hyp2f1", "_pyeval.hyp2f1_many"),
    "cli.grid.self_s": ("cli._grid_samples",),
}
# per-layer metric -> module prefix whose functions' self times add up to it
MODULE_TIME = {
    "models.legendre.self_s": "models.legendre.",
    "split_structure.self_s": "split_structure.",
    "lie_algebra.self_s": "lie_algebra.",
}
CALLS = {
    "expr.mul.calls": "expr.mul",
    "expr.add.calls": "expr.add",
    "expr.power.calls": "expr.power",
    "expr.diff.calls": "expr.diff",
    "expr.simplify.calls": "expr.simplify",
    "parser.parse.calls": "parser.parse",
    "tensor_fields.lie_derivative.calls": "tensor_fields.lie_derivative",
    "numcheck.is_zero.calls": "numcheck.is_zero",
    "evalcore.hyp2f1.calls": "evalcore.hyp2f1",
}
COUNTERS = ("operator.apply_casimir.out_terms", "numcheck.verdict.symbolic",
            "numcheck.verdict.numeric", "numcheck.verdict.nonzero", "numcheck.points",
            "evalcore.run.points")
DISTINCT = {"expr.mul.distinct_ratio": "expr.mul", "expr.diff.distinct_ratio": "expr.diff"}


def _is_render(name: str) -> bool:
    """Report and family-document rendering: to_json, Report.* and the CLI's output path."""
    return (name in ("cli._emit", "cli.json.dumps") or name.endswith(".to_json")
            or name.startswith("report.Report."))


def layer_metrics(summaries: list[tuple[dict, float]], import_s: float, build_s: float) -> dict:
    """Per-layer metrics of one traced pass from the tracer summaries of its
    processes, each with the factor that scales its times (`_process_times`),
    and the pass's import and model-construction times."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    distinct: dict[str, int] = {}
    for summ, ratio in summaries:
        for k, v in summ["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in summ["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v * ratio
        for k, v in summ["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in summ["distinct"].items():
            distinct[k] = distinct.get(k, 0) + v
    out: dict[str, tuple] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for metric, prefix in MODULE_TIME.items():
        out[metric] = (sum(v for k, v in self_s.items() if k.startswith(prefix)), "s")
    out["cli.render.self_s"] = (sum(v for k, v in self_s.items() if _is_render(k)), "s")
    out["import.self_s"] = (import_s, "s")
    # so3_model() / bianchi2_model() with every layer they call
    out["models.build.total_s"] = (build_s, "s")
    for metric, name in CALLS.items():
        out[metric] = (calls.get(name, 0), "count")
    for name in COUNTERS:
        out[name] = (counters.get(name, 0), "count")
    for metric, name in DISTINCT.items():
        out[metric] = (distinct.get(name, 0) / max(calls.get(name, 0), 1), "ratio")
    return out


# --- running operations ----------------------------------------------------------


def spawn(argv: list[str], cwd: Path, tag: str) -> dict:
    """Run one child to completion; wall time, rusage, exit code and stderr."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": t0, "end": t1, "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": err_path.read_text(errors="replace"),
    }


def _child(stats: Path, trace: bool, models: str, *rest: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(stats), "1" if trace else "0", models, *rest]


def canonical(doc) -> str:
    """Output identity, timings excluded."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "timings"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_cli_pass(ops: list[dict], work: Path, trace: bool) -> dict:
    procs, attempts = [], []
    for i, op in enumerate(ops):
        stat_path = work / f"op{i}.stats.json"
        stat_path.unlink(missing_ok=True)
        proc = spawn(_child(stat_path, trace, op["models"], "cli", *op["argv"]), work, f"op{i}")
        procs.append(_process_times(proc, _load(stat_path) or {}))
    for i, (op, proc) in enumerate(zip(ops, procs)):
        attempts.append({"op": i, "code": proc["code"], "stderr": proc["stderr"],
                         "doc": _load(work / op["out"]), "expect_code": 0})
    return _pass_record(procs, attempts)


def run_session_pass(ops: list[dict], work: Path, trace: bool) -> dict:
    ops_path, res_path, stat_path = work / "ops.json", work / "results.json", work / "session.stats.json"
    ops_path.write_text(json.dumps(ops))
    res_path.unlink(missing_ok=True)
    stat_path.unlink(missing_ok=True)
    proc = spawn(_child(stat_path, trace, "so3,bianchi2", "session", str(ops_path), str(res_path)),
                 work, "session")
    proc = _process_times(proc, _load(stat_path) or {})
    results = _load(res_path)
    if not isinstance(results, list) or len(results) != len(ops):
        results = [{"error": "session produced no result"}] * len(ops)
    attempts = [{"op": i, "code": proc["code"], "expect_code": 0,
                 "stderr": proc["stderr"] + r.get("error", ""), "doc": r.get("result")}
                for i, r in enumerate(results)]
    return _pass_record([proc], attempts)


def _process_times(proc: dict, stats: dict) -> dict:
    """Measured and scaled times of one child.  The child scales set-up and
    each operation; its wall and CPU time, less the speed probes, are scaled
    by the ratio of its scaled to its measured set-up plus run."""
    setup, run = stats.get("setup_s", 0.0), sum(stats.get("op_s", []))
    scaled_setup, scaled_run = stats.get("setup_scaled_s", setup), sum(stats.get("op_scaled_s", []))
    ratio = (scaled_setup + scaled_run) / (setup + run) if setup + run > 0 else 1.0
    probe_s = stats.get("probe_s", 0.0)
    measured = {"wall_s": proc["end"] - proc["start"] - probe_s, "setup_s": setup, "run_s": run,
                "cpu_s": proc["cpu_s"] - probe_s}
    return {
        **proc, "stats": stats, "measured": measured, "ratio": ratio,
        "scaled": {"wall_s": measured["wall_s"] * ratio, "setup_s": scaled_setup, "run_s": scaled_run,
                   "cpu_s": measured["cpu_s"] * ratio},
    }


def _pass_record(procs: list[dict], attempts: list[dict]) -> dict:
    """Per-pass totals over the pass's processes."""
    stats = [p["stats"] for p in procs]
    return {
        **{k: sum(p["scaled"][k] for p in procs) for k in TIMES},
        **{f"measured_{k}": sum(p["measured"][k] for p in procs) for k in TIMES},
        "peak_rss_mb": max(s.get("peak_rss_mb") or p["rss_mb"] for p, s in zip(procs, stats)),
        "import_s": sum(s.get("import_scaled_s", 0.0) for s in stats),
        "build_s": sum(s.get("build_scaled_s", 0.0) for s in stats),
        "backend": sorted({s.get("backend", "?") for s in stats}),
        "traces": [(p["stats"]["trace"], p["ratio"]) for p in procs if "trace" in p["stats"]],
        "attempts": attempts,
    }


# --- failure accounting ---------------------------------------------------------------


def collect(attempts: list[dict], reference: dict) -> list[dict]:
    """Keep the first output of each operation in `reference` and reduce every
    attempt to what the accounting needs of its output."""
    for a in attempts:
        doc = a.pop("doc")
        reference.setdefault(a["op"], doc)
        a.update(hash=canonical(doc), missing=doc is None, false_ok=not oracles.all_ok(doc))
    return attempts


def account(attempts: list[dict], reference: dict, oracle) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons).  The reference output of each operation
    goes to `oracle(docs) -> {op: [problems]}`; every attempt must reproduce
    it exactly."""
    try:
        problems = oracle([reference[i] for i in range(len(reference))])
    except Exception as exc:  # noqa: BLE001 - malformed output the oracle cannot read
        problems = {i: [f"oracle raised {exc!r}"] for i in reference}
    ref_hash = {i: canonical(doc) for i, doc in reference.items()}
    failed, reasons = 0, []
    for n, a in enumerate(attempts):
        why = []
        if a["code"] != a["expect_code"]:
            why.append(f"exit code {a['code']}")
        if "Traceback (most recent call last)" in a["stderr"]:
            why.append("traceback")
        if a["missing"]:
            why.append("no output")
        elif a["false_ok"]:
            why.append("certificate with ok: false")
        if problems.get(a["op"]):
            why.append("oracle: " + "; ".join(problems[a["op"]][:3]))
        if a["hash"] != ref_hash[a["op"]]:
            why.append("output differs from the verified output")
        if why:
            failed += 1
            reasons.append(f"attempt {n} (op {a['op']}): " + ", ".join(why))
    return len(attempts), failed, reasons


# --- provenance ------------------------------------------------------------------------


def provenance(backends) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        head = "git unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_head": head, "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "backend": backends}


# --- main ------------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "casimir" / "cli.py").is_file():
        print(f"casimir sources not found under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # byte-compile once, as an installed package would be; not part of any pass
    spawn([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import casimir.cli",
           str(ROOT / "src")], work, "warmup")

    run_pass = run_session_pass if args.workload == "library-session" else run_cli_pass
    start = time.perf_counter()
    passes: list[dict] = []
    reference: dict[int, object] = {}
    while True:
        traced = bool(args.trace) and bool(passes)
        t0 = time.perf_counter()
        passes.append(dict(run_pass(ops, work, traced), traced=traced, elapsed=time.perf_counter() - t0))
        collect(passes[-1]["attempts"], reference)
        if args.trace and not traced:
            continue  # the untraced reference pass; at least one traced pass follows
        next_pass = statistics.median(p["elapsed"] for p in passes if p["traced"] == traced)
        if time.perf_counter() - start + next_pass > args.seconds:
            break

    attempts = [a for p in passes for a in p["attempts"]]
    attempted, failed, reasons = account(attempts, reference,
                                         lambda docs: oracles.CHECKS[args.workload](ops, docs))
    for line in reasons[:20]:
        print("FAIL", line)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    print(f"perfbench {args.workload} seed={args.seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g}")
    print("provenance " + json.dumps(provenance(sorted({b for p in passes for b in p["backend"]}))))

    metrics: dict[str, dict] = {}
    if args.trace:
        per_pass = [layer_metrics(p["traces"], p["import_s"], p["build_s"]) for p in traced]
        for name in per_pass[0]:
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_pass),
                             "unit": per_pass[0][name][1]}
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in untraced))
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        print(f"trace overhead: traced/untraced wall = {overhead:.4f}")
    else:
        for name, unit in END_TO_END.items():
            q1, med, q3 = _quartiles([p[name] for p in passes])
            metrics[name] = {"value": med, "unit": unit}
            raw = (f"  as measured {statistics.median(p['measured_' + name] for p in passes):.6g}"
                   if name in TIMES else "")
            print(f"  {name:12s} median={med:.6g} {unit}  q1={q1:.6g} q3={q3:.6g}  n={len(passes)}{raw}")
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
