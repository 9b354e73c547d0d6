"""One casimir process of a benchmark pass, in a fresh interpreter.

    python3 perfbench/child.py STATS TRACE MODELS cli ARGV...
    python3 perfbench/child.py STATS TRACE MODELS session OPS.json RESULTS.json

Imports casimir, builds the named built-in models (comma separated), then
either runs `casimir.cli.main(ARGV)` or the library session in `session.py`.
Writes to STATS a JSON object with the set-up time (import plus model
construction) and the time of each operation proper, as measured and scaled
by the speed samples of `speed.py`, the time the samples took, the evaluation
backend, the peak resident memory and, when TRACE is 1, the tracer summary.
The exit code is the CLI's.
"""

import json
import os
import sys
import time

from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb():
    """High-water resident set of this process image.  Unlike the rusage
    maxrss the parent sees, VmHWM does not include the memory of the process
    that spawned this one (vfork shares it until exec)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main() -> int:
    stats_path, trace, models, mode = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4]
    rest = sys.argv[5:]
    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import casimir
    import casimir.cli
    import casimir.models

    t_import = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_build = time.perf_counter()
    built = [getattr(casimir.models, f"{name}_model")() for name in models.split(",") if name]
    t_run = time.perf_counter()
    ops: list[tuple[float, float]] = []
    try:
        if mode == "cli":
            start = time.perf_counter()
            try:
                rc = casimir.cli.main(rest)
            finally:
                ops.append((start, time.perf_counter()))
        else:
            from session import run_session

            rc = run_session(built, rest[0], rest[1], lambda start, end: ops.append((start, end)))
    finally:
        sampler.stop()
        imported, built_in = sampler.times(t0, t_import), sampler.times(t_build, t_run)
        op_times = [sampler.times(start, end) for start, end in ops]
        stats = {
            "import_scaled_s": imported[1],
            "build_scaled_s": built_in[1],
            "setup_s": imported[0] + built_in[0],
            "setup_scaled_s": imported[1] + built_in[1],
            "op_s": [measured for measured, _ in op_times],
            "op_scaled_s": [scaled for _, scaled in op_times],
            "probe_s": sampler.probe_s(),
            "backend": casimir.backend_name(),
            "peak_rss_mb": peak_rss_mb(),
        }
        if tracer is not None:
            stats["trace"] = tracer.summary()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
