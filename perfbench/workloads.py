"""The four benchmark workloads: seeded inputs, ops, and their checks.

Each workload is a closed loop with one client: the worker runs op ``k``,
checks it, then runs op ``k + 1``, cycling through a list of ops built
once from the seed.  :func:`generate` makes the inputs (plain JSON data,
no ``conebounds`` call); :func:`build` turns them into ops.

Ops call the library through module attributes (``geometry.moments``, not
a name imported here), so the traced run's rebinding reaches them.

Why these four:

* ``sections-small``: millisecond library ops on 3-32-vertex sections;
  the time is Python overhead in ``models`` edges and ``robin``
  quadrature, not validation or solvers.  Bypasses ``sigma`` entirely.
* ``sections-large``: 64-256-vertex star polygons through the in-process
  CLI; polygon validation dominates and the sweep rebuilds the polygon at
  every rung.  Calls no scipy solver.
* ``ess-ladder``: essential-spectrum ladders, dominated by the half-plane
  ``sigma`` eigensolves; axial fields on symmetric sections repeat face
  angles within a ladder, so the ``sigma`` cache is exercised too.
* ``cli-cold``: one fresh ``python -m conebounds.cli`` process per op, the
  only workload that pays the package import on every op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from conebounds import cli, gauge, geometry, models, robin

import inputs
import oracle

WORKLOADS = ("sections-small", "sections-large", "ess-ladder", "cli-cold")

C_FLOOR = 0.5
#: Non-dyadic rungs, so the dilation identity is not exact by construction.
SWEEP_EPS = (1.0, 0.8, 0.6, 0.45, 0.3, 0.2, 0.1, 0.05)
ESS_EPS = (0.4, 0.2, 0.1)
AXIAL = (0.0, 0.0, 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Checked:
    """Outcome of checking one op's output."""

    problems: list[str] = field(default_factory=list)
    warnings: int = 0          # AccuracyWarnings reported inside CLI reports
    rim_defects: int = 0       # wrong rim openings (known library defect)
    cli_wall_s: float = 0.0    # CLI invocation wall time
    cli_report_s: float = 0.0  # the reports' own timing.wallTimeS


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    summary: dict


# ---------------------------------------------------------------------------
# input generation (pure data)

def _golden_sizes(count: int, lo: int, hi: int) -> list[int]:
    """Sizes spread over [lo, hi] so that every prefix is near-uniform."""
    return [lo + int((hi - lo + 1) * ((0.5 + k * GOLDEN) % 1.0))
            for k in range(count)]


def _anchored_sizes(cycles: int, lo: int, mid: int, hi: int) -> list[int]:
    """Cycles of (mid, low, mid, mid, high, mid): 4 of 6 ops have ``mid`` vertices.

    The closed loop cuts the op sequence at an arbitrary point.  With the
    middle size filling percentiles 17-83, both the median and the tail
    percentile (60-75 for 25-40 samples) land on ``mid``-vertex ops whatever
    the cut, so they do not jump between sizes from run to run; low and high
    sizes still spread over the whole range.
    """
    lows = _golden_sizes(cycles, lo, mid - 1)
    highs = _golden_sizes(cycles, mid + 1, hi)
    return [n for k in range(cycles)
            for n in (mid, lows[k], mid, mid, highs[k], mid)]


def _scaled(points, factor: float) -> dict:
    return {"polygon": [[factor * x, factor * y] for x, y in points]}


def generate(name: str, seed: int) -> dict:
    """All inputs of a workload for a seed, as JSON-serialisable data."""
    if name == "sections-small":
        rng = inputs.rng_for(seed, "small")
        items = []
        for k in range(180):
            kind = ("convex", "star", "disc")[k % 3]
            j = k // 3
            if kind == "convex":
                sec = inputs.convex_polygon(rng, 3 + j % 30)
            elif kind == "star":
                sec = inputs.star_polygon(rng, 5 + j % 28)
            else:
                sec = inputs.off_centre_disc(rng)
            items.append({"kind": kind, "section": sec,
                          "field": inputs.random_field(rng),
                          "eps": float(rng.uniform(0.05, 0.6))})
        return {"items": items}
    if name == "sections-large":
        rng = inputs.rng_for(seed, "large")
        items = [{"kind": "star", "section": inputs.star_polygon(rng, n),
                  "field": inputs.random_field(rng),
                  "eps": float(rng.uniform(0.05, 0.6))}
                 for n in _anchored_sizes(6, 64, 128, 256)]
        return {"items": items}
    if name == "ess-ladder":
        rng = inputs.rng_for(seed, "ess")
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        triangle = [[math.cos(a), math.sin(a)]
                    for a in (math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6)]
        items = []
        for k in range(60):
            # square, triangle, pentagon; fields alternate axial / tilted.
            # Every op gets a fresh size or pentagon, so no op reuses another
            # op's sigma solves; the cache serves the repeated face angles
            # within one ladder, as it does for one CLI call.
            kind = ("square", "triangle", "pentagon")[k % 3]
            if kind == "pentagon":
                sec = inputs.convex_polygon(rng, 5)
            else:
                sec = _scaled(square if kind == "square" else triangle,
                              float(rng.uniform(0.7, 1.4)))
            fld = AXIAL if k % 2 == 0 else inputs.random_field(rng, 1.0, 1.0)
            items.append({"kind": kind, "section": sec, "field": fld})
        return {"items": items}
    if name == "cli-cold":
        rng = inputs.rng_for(seed, "cli")
        params = [{"field": inputs.random_field(rng),
                   "alpha": float(rng.uniform(0.3, 3.0)),
                   "eps": float(rng.uniform(0.1, 0.5)),
                   "lam": float(rng.uniform(0.5, 2.0))} for _ in range(20)]
        return {"sections": CLI_SECTIONS, "params": params}
    raise ValueError(f"unknown workload {name!r}")


def summarise(name: str, data: dict) -> dict:
    """Input summary for the report: vertex histogram and field mix."""
    if name == "cli-cold":
        return {"commands": [c for c, _ in CLI_COMMANDS],
                "sections": {k: "disc" if "disc" in v else len(v["polygon"])
                             for k, v in CLI_SECTIONS.items()},
                "fields": {"random": len(data["params"])}}
    items = data["items"]
    kinds: dict[str, int] = {}
    for it in items:
        kinds[it["kind"]] = kinds.get(it["kind"], 0) + 1
    axial = sum(1 for it in items if tuple(it["field"]) == AXIAL)
    return {"ops_in_cycle": len(items), "kinds": kinds,
            "vertices": inputs.vertex_histogram(it["section"] for it in items),
            "fields": {"axial": axial, "random": len(items) - axial}}


# ---------------------------------------------------------------------------
# sections-small: the library route

def _small_op(item: dict) -> Op:
    obj, fld, eps, kind = item["section"], item["field"], item["eps"], item["kind"]
    polygon = "polygon" in obj
    with_robin = kind in ("convex", "disc")

    def run():
        sec = geometry.section_from_json(obj)
        m = geometry.moments(sec)
        res = gauge.rayleigh_upper_bounds(fld, m, n_max=3)
        thr = models.concentration_threshold(fld, sec, C_FLOOR)
        verdict = thr(eps)
        edges = models.truncated_domain_edges(sec, eps) if polygon else None
        rb = robin.robin_cone_upper_bound(
            robin.BoundaryProfile.from_section(sec)) if with_robin else None
        return m, res, thr, verdict, edges, rb

    def check(out) -> Checked:
        m, res, thr, verdict, edges, rb = out
        mom = oracle.section_moments(obj)
        e_want = oracle.e_constant(fld, mom)
        c = Checked(oracle.check_moments(m.as_dict(), mom)
                    + oracle.check_ladder(res.e, res.bounds, e_want)
                    + oracle.check_concentration(
                        thr.epsilon_star, thr.floor_used, verdict.vertex_bound,
                        verdict.holds, fld, e_want, C_FLOOR, eps))
        if polygon:
            problems, c.rim_defects = oracle.check_edges(
                obj["polygon"], eps, edges.lateral, edges.top, edges.beta0)
            c.problems += problems
        if with_robin:
            want = (oracle.robin_disc_bound(obj["disc"]["radius"]) if not polygon
                    else oracle.robin_polygon_bound(obj["polygon"],
                                                    mom["centroid"]))
            c.problems += oracle.check_robin(rb, want)
        return c

    return Op(f"{kind}-{len(obj['polygon']) if polygon else 'disc'}", run, check)


# ---------------------------------------------------------------------------
# sections-large: in-process CLI on section files

def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli_inprocess(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _parse_report(code: int, text: str, what: str, c: Checked):
    if code != 0:
        c.problems.append(f"{what}: exit code {code}: {text[-300:]}")
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        c.problems.append(f"{what}: output is not JSON: {exc}")
        return None
    c.warnings += len(report.get("warnings", []))
    c.cli_report_s += report["timing"]["wallTimeS"]
    return report


def _large_op(item: dict, path: str) -> Op:
    obj, fld, eps = item["section"], item["field"], item["eps"]
    argvs = (["bound", "--section", path, "--field=" + _fmt(fld), "--n", "3"],
             ["sweep", "bound", "--section", path, "--field=" + _fmt(fld),
              "--eps", _fmt(SWEEP_EPS)],
             ["edges", "--section", path, "--eps", repr(eps)])

    def run():
        return [_cli_inprocess(argv) for argv in argvs]

    def check(out) -> Checked:
        c = Checked()
        bound, sweep, edges = (_parse_report(code, text, argv[0], c)
                               for (code, text), argv in zip(out, argvs))
        mom = oracle.fan_moments(obj["polygon"])
        if bound is not None:
            r = bound["result"]
            c.problems += oracle.check_ladder(r["e"], r["bounds"],
                                              oracle.e_constant(fld, mom))
            if sweep is not None:
                rows = sweep["result"]["rows"]
                if [row["eps"] for row in rows] != list(SWEEP_EPS):
                    c.problems.append("sweep rungs differ from the ladder")
                c.problems += oracle.check_sweep(rows, r["e"])
        if edges is not None:
            r = edges["result"]
            problems, c.rim_defects = oracle.check_edges(
                obj["polygon"], eps,
                [(x["vertex"], x["opening"]) for x in r["lateral"]],
                [(x["edge"], x["opening"]) for x in r["top"]], r["beta0"])
            c.problems += problems
        return c

    return Op(f"star-{len(obj['polygon'])}", run, check)


# ---------------------------------------------------------------------------
# ess-ladder: sigma eigensolves

def _ess_op(item: dict) -> Op:
    obj, fld = item["section"], item["field"]

    def run():
        sec = geometry.section_from_json(obj)
        return models.essential_spectrum_limit(fld, sec, ESS_EPS, C_FLOOR)

    def check(out) -> Checked:
        return Checked(oracle.check_ess(out, ESS_EPS, fld, C_FLOOR))

    tag = "axial" if tuple(fld) == AXIAL else "tilted"
    return Op(f"{item['kind']}-{tag}", run, check)


# ---------------------------------------------------------------------------
# cli-cold: one process per op on fixed sections

CLI_SECTIONS = {
    "square": {"polygon": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]},
    "rectangle": {"polygon": [[-1.5, -0.5], [1.5, -0.5], [1.5, 0.5],
                              [-1.5, 0.5]]},
    "disc": {"disc": {"center": [0.0, 0.0], "radius": 1.0}},
}
CLI_SWEEP_EPS = (1.0, 0.6, 0.3)


def _disc_e(f) -> float:
    """Unit disc about the origin: ``e^2 = b3^2/8 + (b1^2 + b2^2)/4``."""
    return math.sqrt(f[2] ** 2 / 8.0 + (f[0] ** 2 + f[1] ** 2) / 4.0)


def _square_e(f) -> float:
    """Square [-1, 1]^2: ``e^2 = b3^2/6 + (b1^2 + b2^2)/3``."""
    return math.sqrt(f[2] ** 2 / 6.0 + (f[0] ** 2 + f[1] ** 2) / 3.0)


def _differ(checks, rtol=oracle.IDENTITY_RTOL, atol=0.0) -> list[str]:
    """Names of the ``(name, got, want)`` triples that are not close."""
    return [k for k, got, want in checks
            if not abs(float(got) - want) <= max(rtol * abs(want), atol)]


def _expect_moments(r, p):
    # rectangle [-1.5, 1.5] x [-0.5, 0.5]: area 3, int x^2 = 9/4, int y^2 = 1/4
    return _differ([(k, r[k], want) for k, want in
                    (("area", 3.0), ("M0", 0.25), ("M1", 0.0), ("M2", 2.25))],
                   atol=1e-12)


def _expect_gauge(r, p):
    # W0 = [[M1, -M2], [M0, -M1]] / (M0 + M2), norm M0 M2 / (M0 + M2)
    want = [[0.0, -0.9], [0.1, 0.0]]
    return _differ([("transverseNormSq", r["transverseNormSq"], 0.225),
                    ("curl", r["curl"], 1.0)]
                   + [(f"gauge[{i}][{j}]", r["gauge"][i][j], want[i][j])
                      for i in range(2) for j in range(2)], atol=1e-12)


def _expect_bound(r, p):
    e = _disc_e(p["field"])
    return _differ([("e", r["e"], e)] + [(f"bound{n}", b, (4 * n - 1) * e)
                                         for n, b in r["bounds"]])


def _expect_concentrate(r, p):
    e = _disc_e(p["field"])
    floor = 0.5 * math.sqrt(sum(c * c for c in p["field"]))
    v = r["verdict"]
    bad = _differ([("e", r["e"], e), ("floorUsed", r["floorUsed"], floor),
                   ("epsilonStar", r["epsilonStar"], floor / (3.0 * e)),
                   ("vertexBound", v["vertexBound"], 3.0 * p["eps"] * e)],
                  oracle.MOMENT_RTOL)
    return bad + ([] if v["holds"] == (3.0 * p["eps"] * e < floor) else ["holds"])


def _expect_edges(r, p):
    # square pyramid of half-side eps: each lateral opening is
    # pi/2 + asin(eps^2/(1+eps^2)), each rim opening acos(eps/sqrt(1+eps^2))
    eps = p["eps"]
    lat = math.pi / 2.0 + math.asin(eps * eps / (1.0 + eps * eps))
    rim = math.acos(eps / math.sqrt(1.0 + eps * eps))
    return _differ([(f"lateral{x['vertex']}", x["opening"], lat)
                    for x in r["lateral"]]
                   + [(f"top{x['edge']}", x["opening"], rim) for x in r["top"]]
                   + [("beta0", r["beta0"], rim)], 0.0, oracle.ANGLE_ATOL)


def _expect_robin_wedge(r, p):
    return _differ([("energy", r["energy"], oracle.robin_wedge(p["alpha"]))])


def _expect_robin_cone(r, p):
    # square about its centre: every edge at distance 1, sigma = sqrt(2)
    return ["bound"] if oracle.check_robin(r["bound"], -2.0) else []


def _expect_sweep(r, p):
    e = _square_e(p["field"])
    return _differ([(f"e at eps={row['eps']}", row["e"], row["eps"] * e)
                    for row in r["rows"]], oracle.MOMENT_RTOL)


def _expect_spectrum(r, p):
    root_lam = math.sqrt(p["lam"])
    return _differ([(f"E{n}", v, root_lam * (4 * n - 1))
                    for n, v in enumerate(r["eigenvalues"], start=1)],
                   oracle.FD_RTOL)


def _expect_theta0(r, p):
    return _differ([("theta0", r["theta0"], oracle.THETA0)], oracle.FD_RTOL)


#: (command label, argv builder(files, params)) in round-robin order.
CLI_COMMANDS = (
    ("moments", lambda f, p: ["moments", "--section", f["rectangle"]]),
    ("gauge", lambda f, p: ["gauge", "--section", f["rectangle"]]),
    ("bound", lambda f, p: ["bound", "--section", f["disc"],
                            "--field=" + _fmt(p["field"]), "--n", "3"]),
    ("concentrate", lambda f, p: ["concentrate", "--section", f["disc"],
                                  "--field=" + _fmt(p["field"]), "--cfloor", "1",
                                  "--eps", repr(p["eps"])]),
    ("edges", lambda f, p: ["edges", "--section", f["square"],
                            "--eps", repr(p["eps"])]),
    ("robin wedge", lambda f, p: ["robin", "wedge", "--alpha", repr(p["alpha"])]),
    ("robin cone", lambda f, p: ["robin", "cone", "--section", f["square"]]),
    ("sweep bound", lambda f, p: ["sweep", "bound", "--section", f["square"],
                                  "--field=" + _fmt(p["field"]),
                                  "--eps", _fmt(CLI_SWEEP_EPS)]),
    ("spectrum1d fd", lambda f, p: ["spectrum1d", "--lam", repr(p["lam"]),
                                    "--method", "fd"]),
    ("model theta0", lambda f, p: ["model", "theta0"]),
)

_CLI_EXPECT = {"moments": _expect_moments, "gauge": _expect_gauge,
               "bound": _expect_bound, "concentrate": _expect_concentrate,
               "edges": _expect_edges, "robin wedge": _expect_robin_wedge,
               "robin cone": _expect_robin_cone, "sweep bound": _expect_sweep,
               "spectrum1d fd": _expect_spectrum,
               "model theta0": _expect_theta0}


def _cli_cold_op(label: str, argv: list[str], params: dict, root: str) -> Op:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, "-m", "conebounds.cli", *argv]

    def run():
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=root, timeout=120)
        return proc, time.perf_counter() - t0

    def check(out) -> Checked:
        proc, wall = out
        c = Checked(cli_wall_s=wall)
        report = _parse_report(proc.returncode, proc.stdout or proc.stderr,
                               label, c)
        if report is not None:
            c.problems += [f"{label}: {b} differs from its closed form"
                           for b in _CLI_EXPECT[label](report["result"], params)]
        return c

    return Op(label, run, check)


# ---------------------------------------------------------------------------

def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    """Generate the inputs, write any section files into ``workdir``."""
    data = generate(name, seed)
    if name == "sections-small":
        ops = [_small_op(it) for it in data["items"]]
    elif name == "sections-large":
        ops = [_large_op(it, _write_json(os.path.join(workdir, f"s{k}.json"),
                                         it["section"]))
               for k, it in enumerate(data["items"])]
    elif name == "ess-ladder":
        ops = [_ess_op(it) for it in data["items"]]
    else:
        files = {k: _write_json(os.path.join(workdir, f"{k}.json"), v)
                 for k, v in data["sections"].items()}
        ops = [_cli_cold_op(label, make(files, p), p, root)
               for p in data["params"] for label, make in CLI_COMMANDS]
    return Workload(name, ops, summarise(name, data))
