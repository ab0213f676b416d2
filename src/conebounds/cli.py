"""Command-line front end.

Every command prints one JSON report to stdout: the echoed configuration,
the result payload, the library version, any accuracy warnings raised
while computing, and wall time (kept in a separate envelope field so that
reports are otherwise byte-identical between runs of the same
configuration).  Neither the report nor its config has a ``seed`` field,
and there is no ``--seed`` option: nothing in the package is random.
Floating point numbers are serialized with 17 significant digits so they
round-trip exactly; non-finite values appear as the strings "inf", "-inf",
"nan".

The closed-form commands (``moments``, ``gauge``, ``bound``,
``concentrate``, ``edges``, ``robin wedge``, ``sweep bound``, exact
``spectrum1d``) and the half-space energies (``model sigma``, ``sweep
sigma`` and ``ess``, whose ``sigma`` is a spectral Rayleigh-Ritz solve)
run on numpy alone.  The finite-difference and quadrature solvers
(``spectrum1d --method fd``, ``model theta0``, ``robin cone``, ``robin
scaling``, and ``sigma`` at angle 0, which is ``Theta_0``) import scipy
the first time they run, so the wall time of those commands includes
that import.

Exit codes: 0 success, 2 parse or usage errors, 3 domain errors
(inadmissible geometry or parameters), 4 accuracy failures (hard accuracy
errors always; accuracy warnings when running with --strict or with
CONEBOUNDS_STRICT=1 in the environment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import (AccuracyError, AccuracyWarning, DomainError, SolverError,
                     UsageError)
from .gauge import (min_transverse_norm_sq, optimal_transverse_gauge,
                    rayleigh_upper_bounds)
from .geometry import moments, scale_section, section_from_json
from .halfline import GridSpec, exact_reduced_spectrum, fd_halfline_spectrum
from .models import (ZERO_ANGLE_ATOL, concentration_threshold,
                     essential_spectrum_limit, halfspace_sigma, theta0_detail,
                     truncated_domain_edges)
from .robin import (BoundaryProfile, robin_cone_upper_bound,
                    robin_model_energy, robin_scaling_exponent)

@dataclass
class RunConfig:
    """Everything a run needs; round-trips through ``to_dict``/``from_dict``."""

    command: str
    section: dict | None = None
    field_components: tuple[float, float, float] | None = None
    n_max: int = 3
    lam: float | None = None
    method: str = "exact"
    x_max: float | None = None
    n_points: int | None = None
    theta: float | None = None
    alpha: float | None = None
    epsilons: tuple[float, ...] | None = None
    thetas: tuple[float, ...] | None = None
    c_floor: float | None = None
    axis: tuple[float, float] | None = None
    eps: float | None = None
    quantity: str | None = None
    csv_path: str | None = None
    strict: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        if "command" not in d:
            raise UsageError("config needs a command")
        return cls(**{k: (tuple(v) if isinstance(v, list) else v)
                      for k, v in d.items()})


# ---------------------------------------------------------------------------
# serialization with fixed float formatting

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_report(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {dumps_report(v, indent + 1)}"
                 for k, v in obj.items()]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def emit_plot_data(report: dict, quantity: str) -> str:
    """Two-column CSV (sweep variable, quantity) from a sweep report."""
    result = report.get("result", {})
    rows = result.get("rows")
    key = result.get("sweepKey")
    if not rows or not key:
        raise UsageError("report has no sweep rows to plot")
    if quantity not in rows[0]:
        raise UsageError(f"unknown quantity {quantity!r}; "
                         f"available: {sorted(rows[0])}")
    lines = [f"{key},{quantity}"]
    for r in rows:
        lines.append(f"{format(float(r[key]), '.17g')},"
                     f"{format(float(r[quantity]), '.17g')}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise UsageError(f"cannot parse {what}: {text!r}") from exc
    if not vals:
        raise UsageError(f"empty {what}")
    return vals


def _load_section_arg(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read section file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"section file is not valid JSON: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true",
                        help="escalate accuracy warnings to exit code 4")
    common.add_argument("--csv", dest="csv_path", default=None,
                        help="write sweep rows as CSV to this path")
    common.add_argument("--quantity", default=None,
                        help="column to export with --csv")

    ap = argparse.ArgumentParser(
        prog="conebounds",
        description="Eigenvalue upper bounds for sharp magnetic cones",
        parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[common],
                       help="area and second moments of a section")
    p.add_argument("--section", required=True)

    p = sub.add_parser("gauge", parents=[common],
                       help="optimal transverse gauge of a section")
    p.add_argument("--section", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="eigenvalue upper bounds (4n-1)e")
    p.add_argument("--section", required=True)
    p.add_argument("--field", required=True, help="b1,b2,b3")
    p.add_argument("--n", dest="n_max", type=int, default=3)

    p = sub.add_parser("spectrum1d", parents=[common],
                       help="reduced half-line spectrum")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--n", dest="n_max", type=int, default=3)
    p.add_argument("--method", choices=("exact", "fd"), default="exact")
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--npoints", type=int, default=None)

    p = sub.add_parser("model", help="model operator constants")
    msub = p.add_subparsers(dest="model_command", required=True)
    msub.add_parser("theta0", parents=[common], help="de Gennes constant")
    ps = msub.add_parser("sigma", parents=[common],
                         help="half-space energy at field angle theta")
    ps.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("ess", parents=[common],
                       help="essential-energy estimates along a ladder")
    p.add_argument("--section", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--eps", required=True, help="decreasing list e1,e2,...")
    p.add_argument("--cfloor", type=float, required=True)

    p = sub.add_parser("concentrate", parents=[common],
                       help="corner-concentration threshold")
    p.add_argument("--section", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--cfloor", type=float, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="also report the verdict at this sharpness")

    p = sub.add_parser("edges", parents=[common],
                       help="edge openings of the truncated cone")
    p.add_argument("--section", required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("robin", help="attractive Robin analogue")
    rsub = p.add_subparsers(dest="robin_command", required=True)
    pw = rsub.add_parser("wedge", parents=[common], help="exact wedge energy")
    pw.add_argument("--alpha", type=float, required=True)
    pc = rsub.add_parser("cone", parents=[common],
                         help="cone upper bound from the polar profile")
    pc.add_argument("--section", required=True)
    pc.add_argument("--axis", default=None, help="x,y (default: centroid)")
    pr = rsub.add_parser("scaling", parents=[common],
                         help="log-log scaling exponent")
    pr.add_argument("--section", required=True)
    pr.add_argument("--eps", required=True, help="list spanning a decade")
    pr.add_argument("--axis", default=None)

    p = sub.add_parser("sweep", help="tabulate a quantity over a parameter")
    ssub = p.add_subparsers(dest="sweep_command", required=True)
    pb = ssub.add_parser("bound", parents=[common],
                         help="e(B, eps*w) along a ladder")
    pb.add_argument("--section", required=True)
    pb.add_argument("--field", required=True)
    pb.add_argument("--eps", required=True)
    pb.add_argument("--n", dest="n_max", type=int, default=1)
    pg = ssub.add_parser("sigma", parents=[common],
                         help="sigma(theta) on a grid")
    pg.add_argument("--thetas", required=True)

    return ap


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    cmd = ns.command
    if cmd == "model":
        cmd = f"model.{ns.model_command}"
    elif cmd == "robin":
        cmd = f"robin.{ns.robin_command}"
    elif cmd == "sweep":
        cmd = f"sweep.{ns.sweep_command}"
    cfg = RunConfig(command=cmd,
                    strict=bool(ns.strict
                                or os.environ.get("CONEBOUNDS_STRICT") == "1"),
                    csv_path=ns.csv_path, quantity=ns.quantity)
    if getattr(ns, "section", None) is not None:
        cfg.section = _load_section_arg(ns.section)
    if getattr(ns, "field", None) is not None:
        vals = _parse_floats(ns.field, "field")
        if len(vals) != 3:
            raise UsageError("field needs exactly three components")
        cfg.field_components = vals
    for name, attr in (("n_max", "n_max"), ("lam", "lam"),
                       ("method", "method"), ("x_max", "xmax"),
                       ("n_points", "npoints"), ("theta", "theta"),
                       ("alpha", "alpha"), ("c_floor", "cfloor")):
        if getattr(ns, attr, None) is not None:
            setattr(cfg, name, getattr(ns, attr))
    if cfg.command in ("ess", "robin.scaling", "sweep.bound"):
        cfg.epsilons = _parse_floats(ns.eps, "eps list")
    elif getattr(ns, "eps", None) is not None:
        cfg.eps = float(ns.eps)
    if getattr(ns, "thetas", None) is not None:
        cfg.thetas = _parse_floats(ns.thetas, "theta list")
    if getattr(ns, "axis", None) is not None:
        vals = _parse_floats(ns.axis, "axis")
        if len(vals) != 2:
            raise UsageError("axis needs exactly two components")
        cfg.axis = vals
    return cfg


# ---------------------------------------------------------------------------
# command execution

def _need(cfg: RunConfig, attr: str, what: str):
    val = getattr(cfg, attr)
    if val is None:
        raise UsageError(f"{cfg.command} needs {what}")
    return val


def _section_of(cfg: RunConfig):
    return section_from_json(_need(cfg, "section", "a section"))


def _sigma_provenance(thetas) -> list[str]:
    """Tags for ``sigma`` values: Rayleigh-Ritz upper bounds, FD at angle 0."""
    tags = []
    if any(th > ZERO_ANGLE_ATOL for th in thetas):
        tags.append("Rayleigh-Ritz")
    if any(th <= ZERO_ANGLE_ATOL for th in thetas):
        return tags + ["FD"]
    return tags + ["upper-bound"]


def execute_config(cfg: RunConfig) -> dict:
    """Run one configured command and return its result payload.

    Every payload carries a ``provenance`` list saying how its numbers
    were obtained: closed form ("exact"), adaptive quadrature
    ("quadrature"), finite differences ("FD"), a Rayleigh-Ritz (Galerkin)
    eigenvalue ("Rayleigh-Ritz"), and whether they bound the true quantity
    from one side ("upper-bound" / "lower-bound").
    """
    cmd = cfg.command
    if cmd == "moments":
        out = moments(_section_of(cfg)).as_dict()
        out["provenance"] = ["exact"]
        return out
    if cmd == "gauge":
        section = _section_of(cfg)
        g = optimal_transverse_gauge(section)
        return {"gauge": [[g.a, g.b], [g.c, g.d]],
                "curl": g.curl,
                "transverseNormSq": min_transverse_norm_sq(section),
                "provenance": ["exact"]}
    if cmd == "bound":
        res = rayleigh_upper_bounds(_need(cfg, "field_components", "a field"),
                                    _section_of(cfg), n_max=cfg.n_max)
        out = res.to_json_dict()
        out["provenance"] = ["exact", "upper-bound"]
        return out
    if cmd == "spectrum1d":
        lam = _need(cfg, "lam", "--lam")
        if cfg.method == "exact":
            vals = exact_reduced_spectrum(lam, n_max=cfg.n_max)
            tags = ["exact"]
        else:
            grid = None
            if cfg.x_max is not None or cfg.n_points is not None:
                if cfg.x_max is None or cfg.n_points is None:
                    raise UsageError("--xmax and --npoints go together")
                grid = GridSpec(x_max=cfg.x_max, n=cfg.n_points)
            vals = fd_halfline_spectrum(lam, grid=grid, n_max=cfg.n_max)
            tags = ["FD"]
        return {"lam": lam, "method": cfg.method,
                "eigenvalues": [float(v) for v in vals],
                "provenance": tags}
    if cmd == "model.theta0":
        det = theta0_detail()
        return {"theta0": det.mu, "xiStar": det.xi, "provenance": ["FD"]}
    if cmd == "model.sigma":
        th = _need(cfg, "theta", "--theta")
        return {"theta": th, "sigma": halfspace_sigma(th),
                "provenance": _sigma_provenance([th])}
    if cmd == "ess":
        pairs = essential_spectrum_limit(
            _need(cfg, "field_components", "a field"), _section_of(cfg),
            _need(cfg, "epsilons", "an eps ladder"),
            _need(cfg, "c_floor", "--cfloor"))
        return {"sweepKey": "eps",
                "rows": [dict(eps=eps, **est.to_json_dict())
                         for eps, est in pairs],
                "provenance": ["Rayleigh-Ritz", "FD", "upper-bound",
                               "lower-bound"]}
    if cmd == "concentrate":
        thr = concentration_threshold(
            _need(cfg, "field_components", "a field"), _section_of(cfg),
            _need(cfg, "c_floor", "--cfloor"))
        out = {"epsilonStar": thr.epsilon_star, "floorUsed": thr.floor_used,
               "e": thr.e, "degenerate": thr.degenerate,
               "provenance": ["exact"]}
        if cfg.eps is not None:
            v = thr(cfg.eps)
            out["verdict"] = {"epsilon": v.epsilon,
                              "vertexBound": v.vertex_bound,
                              "holds": v.holds}
        return out
    if cmd == "edges":
        rep = truncated_domain_edges(_section_of(cfg),
                                     _need(cfg, "eps", "--eps"))
        return {"eps": rep.eps,
                "lateral": [{"vertex": i, "opening": op}
                            for i, op in rep.lateral],
                "top": [{"edge": i, "opening": op} for i, op in rep.top],
                "beta0": rep.beta0,
                "provenance": ["exact"]}
    if cmd == "robin.wedge":
        alpha = _need(cfg, "alpha", "--alpha")
        return {"alpha": alpha, "energy": robin_model_energy("wedge", alpha),
                "provenance": ["exact"]}
    if cmd == "robin.cone":
        profile = BoundaryProfile.from_section(_section_of(cfg), axis=cfg.axis)
        return {"bound": robin_cone_upper_bound(profile),
                "axis": list(cfg.axis) if cfg.axis is not None else None,
                "provenance": ["quadrature", "upper-bound"]}
    if cmd == "robin.scaling":
        profile = BoundaryProfile.from_section(_section_of(cfg), axis=cfg.axis)
        eps = _need(cfg, "epsilons", "an eps list")
        return {"epsilons": list(eps),
                "exponent": robin_scaling_exponent(profile, eps),
                "provenance": ["quadrature"]}
    if cmd == "sweep.bound":
        section = _section_of(cfg)
        fld = _need(cfg, "field_components", "a field")
        rows = []
        for eps in _need(cfg, "epsilons", "an eps list"):
            res = rayleigh_upper_bounds(fld, scale_section(section, eps),
                                        n_max=cfg.n_max)
            row = {"eps": eps, "e": res.e}
            for n, b in res.bounds:
                row[f"bound{n}"] = b
            rows.append(row)
        return {"sweepKey": "eps", "rows": rows,
                "provenance": ["exact", "upper-bound"]}
    if cmd == "sweep.sigma":
        thetas = _need(cfg, "thetas", "a theta list")
        rows = [{"theta": th, "sigma": halfspace_sigma(th)} for th in thetas]
        return {"sweepKey": "theta", "rows": rows,
                "provenance": _sigma_provenance(thetas)}
    raise UsageError(f"unknown command {cfg.command!r}")


# ---------------------------------------------------------------------------
# driver

def run_config(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a configuration and wrap the result in the report envelope.

    Returns the report and the exit code.  Accuracy warnings never abort
    the computation; they are collected into the report and only change
    the exit code under strict mode.
    """
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always", AccuracyWarning)
            result = execute_config(cfg)
        caught = [str(w.message) for w in wlist
                  if issubclass(w.category, AccuracyWarning)]
    except UsageError as exc:
        return _error_report(cfg, "parse", str(exc)), 2
    except DomainError as exc:
        return _error_report(cfg, "domain", str(exc)), 3
    except (AccuracyError, SolverError) as exc:
        return _error_report(cfg, "accuracy", str(exc)), 4
    report = {
        "command": cfg.command,
        "config": cfg.to_dict(),
        "result": result,
        "warnings": caught,
        "version": __version__,
        "timing": {"wallTimeS": time.perf_counter() - t0},
    }
    code = 4 if (cfg.strict and caught) else 0
    return report, code


def _error_report(cfg: RunConfig, kind: str, message: str) -> dict:
    return {"command": cfg.command, "config": cfg.to_dict(),
            "error": {"kind": kind, "message": message},
            "version": __version__}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = config_from_args(ns)
    except UsageError as exc:
        stub = RunConfig(command=getattr(ns, "command", "?") or "?")
        print(dumps_report(_error_report(stub, "parse", str(exc))))
        return 2
    report, code = run_config(cfg)
    print(dumps_report(report))
    if code == 0 and cfg.csv_path is not None:
        defaults = {"sweep.bound": "e", "sweep.sigma": "sigma",
                    "ess": "upper"}
        quantity = cfg.quantity or defaults.get(cfg.command, "")
        try:
            csv_text = emit_plot_data(report, quantity)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with open(cfg.csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
