"""conebounds benchmark: one workload per call, outputs checked.

    python3 perfbench/run.py --workload sections-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke

Run from anywhere; the repository root is the parent of this directory and
the library is imported from its ``src/``.  Every measurement runs in a fresh
``worker.py`` interpreter, so the library's caches start cold, as they do
for a CLI user.  BLAS/OpenMP threads are pinned to ``THREADS``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (from a run whose library functions are wrapped by ``tracing.py``;
end-to-end numbers never come from it).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the details (tail percentile, blocks and sample counts, failure
messages, input summary, environment).  Exit code 0 means every output was
checked; 1 means a measurement could not be made or read; 2 means the
library is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("sections-small", "sections-large", "ess-ladder", "cli-cold")

#: BLAS/OpenMP threads in every worker and CLI process.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: ``op_tail_s`` is the median tail of this many consecutive blocks of ops.
TAIL_BLOCKS = 3
#: The traced run's workers, each a quarter of the budget: U untraced,
#: T traced.  The ABBA order cancels a steady drift of host speed out of
#: ``trace.overhead_ratio``.
TRACE_CHUNKS = "UTTU"
#: A worker that has not finished this long after its budget is killed.
WORKER_GRACE_S = 120.0

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "import.conebounds_s": "s", "import.scipy_modules": "count",
    "cli.startup_s": "s/op", "cli.execute_s": "s/op", "cli.serialize_s": "s/op",
    "geometry.section_build.calls": "count/op",
    "geometry.section_build.self_s": "s/op", "geometry.vertices": "count",
    "geometry.moments.self_s": "s/op",
    "gauge.bound.calls": "count/op", "gauge.bound.self_s": "s/op",
    "models.sigma.calls": "count/op", "models.sigma.solves": "count/op",
    "models.sigma.self_s": "s/op", "models.sigma.cache_hit_ratio": "ratio",
    "models.ess.self_s": "s/op", "models.theta0.self_s": "s/op",
    "models.accuracy_warnings": "count/op",
    "models.edges.rim_defects": "count/op",
    "geometry.spherical_opening.self_s": "s/op", "models.edges.self_s": "s/op",
    "models.concentration.self_s": "s/op", "robin.profile.self_s": "s/op",
    "robin.cone_bound.self_s": "s/op", "robin.pieces": "count/op",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer ``<span>.self_s`` metrics, by span name.
SELF_TIME_SPANS = ("geometry.section_build", "geometry.moments", "gauge.bound",
                   "models.sigma", "models.ess", "models.theta0",
                   "geometry.spherical_opening", "models.edges",
                   "models.concentration", "robin.profile", "robin.cone_bound")


class BenchError(RuntimeError):
    """A measurement could not be made or its output could not be read."""


# ---------------------------------------------------------------------------
# worker processes

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # an installed package has its bytecode cached; so should the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(workload: str, seed: int, seconds: float, *, setup_only=False,
          spans: Path | None = None) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds, its JSON result).

    Set-up is timed from before the process starts to its ``READY`` line:
    interpreter start, ``import conebounds``, input generation and section
    files.
    """
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    limit = seconds + WORKER_GRACE_S
    err_path = scratch / f"worker-{os.getpid()}.stderr"
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=ROOT, env=worker_env(),
                                start_new_session=True)
        # the worker and any CLI process it started share one process group
        watchdog = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    stderr = err_path.read_text(encoding="utf-8")
    err_path.unlink()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}): "
                         f"{(first + out + stderr)[-2000:]}")
    try:
        return setup_s, json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} worker output unreadable: {exc}") from exc


# ---------------------------------------------------------------------------
# metrics

def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it: (value, pct).

    With ``n >= 20`` samples that is the ``(n-10)``-th smallest, percentile
    ``100 (n-10)/n``.  With fewer, no percentile above the median has 10
    samples beyond it, and the median is reported (percentile 50).
    """
    n = len(latencies)
    if n < 20:
        return statistics.median(latencies), 50.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def blocked_tail(latencies: list[float]) -> tuple[float, float, int]:
    """``op_tail_s``: (value, percentile, blocks).

    When each of ``TAIL_BLOCKS`` consecutive blocks of the run's ops has at
    least 20 samples, the median of the blocks' :func:`tail` values;
    otherwise the :func:`tail` of all samples (one block).  A burst of host
    contention inflates a dozen consecutive ops, enough to move the tail of
    the whole run but only the tail of one block.
    """
    size = len(latencies) // TAIL_BLOCKS
    if size < 20:
        return (*tail(latencies), 1)
    tails = [tail(latencies[k * size:(k + 1) * size]) for k in range(TAIL_BLOCKS)]
    return statistics.median(t for t, _ in tails), tails[0][1], TAIL_BLOCKS


def _git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": THREADS, "platform": sys.platform}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_e2e(workload: str, seed: int, seconds: float,
                setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    setups = [spawn(workload, seed, 0.0, setup_only=True)[0]
              for _ in range(setup_samples - 1)]
    setup_s, res = spawn(workload, seed, seconds)
    setups.append(setup_s)
    lat = res["latencies"]
    tail_s, pct, blocks = blocked_tail(lat)
    values = {"ops_per_s": len(lat) / sum(lat),
              "op_p50_s": statistics.median(lat),
              "op_tail_s": tail_s,
              "setup_s": statistics.median(setups),
              "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
    metrics = {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}
    detail = {"samples": len(lat), "tail_percentile": pct, "tail_blocks": blocks,
              "setup_samples_s": setups,
              "fail_ratio": res["failed"] / res["attempted"],
              "timed_wall_s": sum(lat),
              "host_probe_s": res["host_probe_s"]}
    return _result(res, metrics, detail)


def _ops_per_s(chunks: list[dict]) -> float:
    lat = [x for c in chunks for x in c["latencies"]]
    return len(lat) / sum(lat)


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced workers in ``TRACE_CHUNKS`` order, each from op 0."""
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    chunks = {"U": [], "T": []}
    probes, spans_files = [], []
    self_t, total, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(float)
    for k, kind in enumerate(TRACE_CHUNKS):
        spans_path = scratch / f"spans-{workload}-{seed}-{k}.jsonl" \
            if kind == "T" else None
        _, res = spawn(workload, seed, seconds / len(TRACE_CHUNKS),
                       spans=spans_path)
        chunks[kind].append(res)
        probes.append(res["host_probe_s"])
        if spans_path is not None:
            spans_files.append(str(spans_path.relative_to(ROOT)))
            for acc, part in zip((self_t, total, calls), tracing.self_times(
                    tracing.read_spans(spans_path))):
                for name, x in part.items():
                    acc[name] += x
            for name, x in res["counts"].items():
                counts[name] += x
    # every chunk's outputs are checked; the layer figures are from T only
    traced, every = chunks["T"], chunks["U"] + chunks["T"]
    res = {key: sum(c[key] for c in traced)
           for key in ("accuracy_warnings", "rim_defects", "cli_wall_s",
                       "cli_report_s", "sigma_hits", "sigma_misses")}
    res.update(attempted=sum(c["attempted"] for c in every),
               failed=sum(c["failed"] for c in every),
               failures=[f for c in every for f in c["failures"]][:5],
               inputs=traced[0]["inputs"], versions=traced[0]["versions"],
               scipy_modules=traced[0]["scipy_modules"])
    ops = sum(c["attempted"] for c in traced)

    def per_op(x: float) -> float:
        return x / ops

    hits, misses = res["sigma_hits"], res["sigma_misses"]
    cli_wall = res["cli_wall_s"] or total.get("cli.invoke", 0.0)
    polygons = counts.get("geometry.section_build.polygons", 0)
    layer = {
        "import.conebounds_s": statistics.median(c["import_s"] for c in every),
        "import.scipy_modules": res["scipy_modules"],
        "cli.startup_s": per_op(cli_wall - res["cli_report_s"]) if cli_wall else 0.0,
        "cli.execute_s": per_op(res["cli_report_s"]),
        "cli.serialize_s": per_op(total.get("cli.serialize", 0.0)),
        "geometry.section_build.calls": per_op(calls.get("geometry.section_build", 0)),
        "geometry.vertices": counts.get("geometry.vertices", 0) / polygons
        if polygons else 0.0,
        "gauge.bound.calls": per_op(calls.get("gauge.bound", 0)),
        "models.sigma.calls": per_op(calls.get("models.sigma", 0)),
        "models.sigma.solves": per_op(misses),
        "models.sigma.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "models.accuracy_warnings": per_op(res["accuracy_warnings"]),
        "models.edges.rim_defects": per_op(res["rim_defects"]),
        "robin.pieces": per_op(counts.get("robin.pieces", 0)),
        "trace.overhead_ratio": _ops_per_s(traced) / _ops_per_s(chunks["U"]),
    }
    for span in SELF_TIME_SPANS:
        layer[f"{span}.self_s"] = per_op(self_t.get(span, 0.0))
    metrics = {name: _metric(float(layer[name]), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    ranking = sorted(((name, per_op(t)) for name, t in self_t.items()
                      if name != "op"), key=lambda kv: -kv[1])
    detail = {"samples": ops,
              "untraced_samples": res["attempted"] - ops,
              "fail_ratio": res["failed"] / res["attempted"],
              "self_s_per_op_ranking": ranking[:6],
              "chunks": TRACE_CHUNKS,
              "host_probe_s": probes,
              "spans_files": spans_files}
    return _result(res, metrics, detail)


def _result(res: dict, metrics: dict, detail: dict) -> tuple[dict, dict]:
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    detail.update({"failures": res["failures"],
                   "accuracy_warnings": res["accuracy_warnings"],
                   "rim_defects": res["rim_defects"],
                   "inputs": res["inputs"],
                   "environment": {**environment(), **res["versions"]}})
    return line, detail


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    if trace:
        return measure_layers(workload, seed, seconds)
    return measure_e2e(workload, seed, seconds, setup_samples)


# ---------------------------------------------------------------------------
# entry points

def smoke(seconds: float = 0.2) -> int:
    """Every workload briefly, traced and untraced; check names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            line, _ = measure(workload, 1, seconds, trace, setup_samples=1)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics "
                                f"{got} != {want[trace]}")
            if not all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in line["metrics"].values()):
                problems.append(f"{workload} trace={int(trace)}: non-finite value")
            if not line["correct"]:
                problems.append(f"{workload} trace={int(trace)}: outputs wrong")
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{line['attempted']} ops, {len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="conebounds benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check metric names")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that spawn() kills the running worker's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "conebounds" / "__init__.py").is_file():
        print(f"error: no conebounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.workload != "all":
            line, detail = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
            print(json.dumps({"workload": args.workload, "seed": args.seed,
                              "detail": detail}))
            print(json.dumps(line))
            return 0
        lines = {}
        for workload in WORKLOADS:
            line, detail = measure(workload, args.seed, args.seconds,
                                   bool(args.trace))
            lines[workload] = line
            print(f"== {workload}: {line['attempted']} ops, {line['failed']} failed")
            rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
            rows.append(("fail_ratio", detail["fail_ratio"], "-"))
            for name, value, unit in rows:
                n = len(detail["setup_samples_s"]) if name == "setup_s" \
                    else detail["samples"]
                print(f"   {name:36s} {value:<14.6g} {unit:9s} samples={n}")
            if "tail_percentile" in detail:
                print(f"   op_tail_s is p{detail['tail_percentile']:.1f}, "
                      f"median of {detail['tail_blocks']} block(s)")
            for failure in detail["failures"]:
                print(f"   failure: {failure}")
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}:{k}": m for w, v in lines.items()
                        for k, m in v["metrics"].items()}}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
