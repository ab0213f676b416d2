"""One benchmark process: a fresh interpreter that sets up and runs ops.

``run.py`` starts this script and times it from outside.  The script
imports ``conebounds`` first (timing the import and counting the scipy
modules it loads), builds the workload, prints ``READY`` (the end of
set-up), runs ops for the given number of seconds, and prints one JSON
line with the raw samples.  A fixed pure-Python loop is timed just
before and just after the ops, so a run that straddles a change of host
speed can be seen.  With ``--setup-only`` it stops after ``READY``.  With
``--spans PATH`` it installs the tracer and writes the spans to ``PATH``
at the end.

Usage (normally only through run.py):

    python3 perfbench/worker.py --workload sections-small \
        --seed 1 --seconds 5 [--setup-only] [--spans out.jsonl]
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

import conebounds  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START
SCIPY_MODULES = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

from conebounds import models  # noqa: E402
from conebounds.errors import AccuracyWarning  # noqa: E402

import workloads  # noqa: E402

#: The repository root: the parent of this script's directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Failure messages kept per run (the count is always complete).
MAX_FAILURE_SAMPLES = 5
#: Iterations of the host-speed probe loop (about 0.05 s).
PROBE_ITERATIONS = 1_000_000


def host_probe_s() -> float:
    """Seconds taken by a fixed pure-Python loop: a reading of host speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "conebounds": conebounds.__version__}


def run_ops(wl, seconds: float, tracer=None) -> dict:
    """Closed loop: run, time and check ops until ``seconds`` have passed."""
    latencies: list[float] = []
    failures: list[str] = []
    failed = warned = rim = 0
    cli_wall = cli_report = 0.0
    info0 = models._sigma_cached.cache_info()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        op = wl.ops[k % len(wl.ops)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            span = tracer.op(k) if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    out = op.run()
                error = None
            except Exception as exc:  # the op failed; count it and go on
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        warned += sum(1 for w in caught if issubclass(w.category, AccuracyWarning))
        if error is None:
            try:
                checked = op.check(out)
            except Exception as exc:  # the output could not be read
                checked = workloads.Checked([f"unreadable output: "
                                             f"{type(exc).__name__}: {exc}"])
            warned += checked.warnings
            rim += checked.rim_defects
            cli_wall += checked.cli_wall_s
            cli_report += checked.cli_report_s
            problems = checked.problems
        else:
            problems = [error]
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURE_SAMPLES:
                failures.append(f"op {k} ({op.label}): {'; '.join(problems[:3])}")
        k += 1
    info1 = models._sigma_cached.cache_info()
    return {"latencies": latencies, "attempted": k, "failed": failed,
            "failures": failures, "accuracy_warnings": warned,
            "rim_defects": rim, "cli_wall_s": cli_wall,
            "cli_report_s": cli_report,
            "sigma_hits": info1.hits - info0.hits,
            "sigma_misses": info1.misses - info0.misses}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sections-", dir=scratch)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, ROOT)
        print("READY", flush=True)
        result = {"import_s": IMPORT_S, "scipy_modules": SCIPY_MODULES,
                  "versions": _versions(), "inputs": wl.summary}
        if not args.setup_only:
            tracer = None
            if args.spans:
                from tracing import Tracer
                tracer = Tracer()
                tracer.install()
            probe_before = host_probe_s()
            result.update(run_ops(wl, args.seconds, tracer))
            result["host_probe_s"] = [probe_before, host_probe_s()]
            if tracer is not None:
                tracer.write(args.spans)
                result["counts"] = dict(tracer.counts)
            self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            result["peak_rss_kb"] = max(self_kb, child_kb)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
