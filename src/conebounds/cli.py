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

Each command is one row of :data:`COMMANDS`, keyed by its dotted name
(``"robin.scaling"`` is ``conebounds robin scaling``).  The row gives the
command's options, its handler and its provenance; the parser, the
``RunConfig`` built from the parsed arguments, the required-field check
and the dispatch are all read off the table.  Options, ``--strict``
included, follow the subcommand.  Only the sweep commands (``ess``,
``sweep bound``, ``sweep sigma``) take ``--csv`` and ``--quantity``, and
``--quantity`` only together with ``--csv``.

The parser tree is built once per process and reused by every later
:func:`run` call, so a call pays for parsing, not for building the
parser.  The report is written by one pass over the payload, and its
``config`` echoes the field values without copying them.

``sweep bound`` uses the dilation identity ``e(B, eps w) = eps e(B, w)``:
it builds and validates the section once, bounds it once, and scales that
bound to each ``eps``, so a rung costs a multiplication, not a section
build.

The closed-form commands (``moments``, ``gauge``, ``bound``,
``concentrate``, ``edges``, ``robin wedge``, ``robin cone``, ``robin
scaling``, ``sweep bound``, exact ``spectrum1d``) and the half-space
energies (``model theta0``, ``model sigma``, ``sweep sigma`` and ``ess``,
all spectral Rayleigh-Ritz solves) run on numpy alone.  Only the
finite-difference solver of ``spectrum1d --method fd`` imports scipy, the
first time it runs, so the wall time of that command includes the import.
That solver assembles one fixed matrix, at ``lam = 1``, and scales its
eigenvalues by ``sqrt(lam)``, so it takes no grid options.

Exit codes: 0 success, 2 parse or usage errors, 3 domain errors
(inadmissible geometry or parameters), 4 accuracy failures (hard accuracy
errors always; accuracy warnings when running with --strict).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (AccuracyError, AccuracyWarning, DomainError, SolverError,
                     UsageError)
from .gauge import (min_transverse_norm_sq, optimal_transverse_gauge,
                    rayleigh_upper_bounds)
from .geometry import moments, scale_factor, section_from_json
from .halfline import exact_reduced_spectrum, fd_halfline_spectrum
from .models import (concentration_threshold, essential_spectrum_limit,
                     halfspace_sigma, theta0_detail, truncated_domain_edges)
from .robin import (BoundaryProfile, robin_cone_upper_bound,
                    robin_scaling_exponent, robin_wedge_energy)

@dataclass
class RunConfig:
    """Everything a run needs; ``to_dict`` gives the echo in its report."""

    command: str
    section: dict | None = None
    field_components: tuple[float, float, float] | None = None
    n_max: int = 3
    lam: float | None = None
    method: str = "exact"
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
        # shallow: the report echoes the field values, it does not copy them
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# serialization with fixed float formatting

#: ``json.dumps`` of a str: ASCII-escaped and double-quoted.
_quote = json.encoder.encode_basestring_ascii


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


#: Exact scalar types and their writers.
_SCALARS = {float: _fmt_float, int: str, str: _quote,
            bool: lambda b: "true" if b else "false",
            type(None): lambda _: "null"}


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON text of the list or dict ``obj`` to ``out``; ``pad``
    indents its closing bracket."""
    if isinstance(obj, dict):
        items = ((_quote(str(k)) + ": ", v) for k, v in obj.items())
        brackets = "{}"
    else:
        items = (("", v) for v in obj)
        brackets = "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    start = len(out)
    for key, v in items:
        out.append(sep)
        out.append(key)
        _write_value(v, inner, out)
    if len(out) == start:
        out.append(brackets)
    else:
        out[start] = brackets[0] + "\n" + inner
        out.append("\n" + pad + brackets[1])


def _write_value(obj, pad: str, out: list) -> None:
    """Append the JSON text of any serializable ``obj``: a scalar of
    :data:`_SCALARS`, a numpy scalar or a subclass of a scalar type, or a
    list, tuple, array or dict."""
    fmt = _SCALARS.get(type(obj))
    if fmt is not None:
        out.append(fmt(obj))
    elif isinstance(obj, (list, tuple, np.ndarray, dict)):
        _write(obj, pad, out)
    elif isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise UsageError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    """JSON text with floats at 17 significant digits, two spaces per
    nesting level; written in one pass."""
    out: list[str] = []
    _write_value(obj, "", out)
    return "".join(out)


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
        try:
            lines.append(f"{format(float(r[key]), '.17g')},"
                         f"{format(float(r[quantity]), '.17g')}")
        except (TypeError, ValueError) as exc:
            raise UsageError(f"quantity {quantity!r} is not numeric: "
                             f"{r[quantity]!r}") from exc
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the command table

class Option:
    """A command-line flag, the ``RunConfig`` field it fills, a conversion
    applied to the parsed value (``None`` keeps it), and argparse keywords.
    A flag with ``required=True`` names a field its command cannot run
    without, from the command line or from a config."""

    def __init__(self, flag: str, field: str, convert=None, **kw):
        self.flag, self.field, self.convert, self.kw = flag, field, convert, kw


def _floats(what: str, count: str | None = None) -> Callable:
    """Converter for a comma-separated list of floats, ``count`` of them."""
    def convert(text: str) -> tuple[float, ...]:
        try:
            vals = tuple(float(p) for p in text.split(",") if p != "")
        except ValueError as exc:
            raise UsageError(f"cannot parse {what}: {text!r}") from exc
        if not vals:
            raise UsageError(f"empty {what}")
        if count is not None and len(vals) != {"two": 2, "three": 3}[count]:
            raise UsageError(f"{what} needs exactly {count} components")
        return vals
    return convert


def _load_section_arg(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read section file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"section file is not valid JSON: {exc}") from exc


_STRICT = Option("--strict", "strict", action="store_true",
                 help="escalate accuracy warnings to exit code 4")
_CSV = (Option("--csv", "csv_path", help="write sweep rows to this CSV file"),
        Option("--quantity", "quantity", help="column to export with --csv"))
_SECTION = Option("--section", "section", _load_section_arg, required=True)
_FIELD = Option("--field", "field_components", _floats("field", "three"),
                required=True, help="b1,b2,b3")
_N = Option("--n", "n_max", type=int, default=3)
_EPS_LIST = Option("--eps", "epsilons", _floats("eps list"), required=True,
                   help="list e1,e2,...")
_CFLOOR = Option("--cfloor", "c_floor", type=float, required=True)
_AXIS = Option("--axis", "axis", _floats("axis", "two"),
               help="x,y (default: centroid)")

# The handlers below return a command's result payload.  They call the
# library through this module's globals, never through a stored reference.

def _gauge(cfg: RunConfig) -> dict:
    m = moments(section_from_json(cfg.section))
    g = optimal_transverse_gauge(m)
    return {"gauge": [[g.a, g.b], [g.c, g.d]], "curl": g.curl,
            "transverseNormSq": min_transverse_norm_sq(m)}


def _spectrum1d(cfg: RunConfig) -> dict:
    exact = cfg.method == "exact"
    solve = exact_reduced_spectrum if exact else fd_halfline_spectrum
    return {"lam": cfg.lam, "method": cfg.method,
            "eigenvalues": [float(v) for v in solve(cfg.lam, n_max=cfg.n_max)],
            "provenance": ["exact" if exact else "FD"]}


def _theta0(cfg: RunConfig) -> dict:
    det = theta0_detail()
    return {"theta0": det.mu, "xiStar": det.xi}


def _concentrate(cfg: RunConfig) -> dict:
    thr = concentration_threshold(cfg.field_components,
                                  section_from_json(cfg.section), cfg.c_floor)
    # provenance is set here so that it precedes the optional verdict
    out = {"epsilonStar": thr.epsilon_star, "floorUsed": thr.floor_used,
           "e": thr.e, "degenerate": thr.degenerate, "provenance": ["exact"]}
    if cfg.eps is not None:
        v = thr(cfg.eps)
        out["verdict"] = {"epsilon": v.epsilon, "vertexBound": v.vertex_bound,
                          "holds": v.holds}
    return out


def _edges(cfg: RunConfig) -> dict:
    rep = truncated_domain_edges(section_from_json(cfg.section), cfg.eps)
    return {"eps": rep.eps,
            "lateral": [{"vertex": i, "opening": op} for i, op in rep.lateral],
            "top": [{"edge": i, "opening": op} for i, op in rep.top],
            "beta0": rep.beta0}


def _sweep_bound(cfg: RunConfig) -> dict:
    # e(B, eps w) = eps e(B, w), so the section is built and bounded once
    # and each rung rescales that bound.  The first rung's eps is checked
    # before the bound is computed: a bad eps is reported ahead of a bad
    # field or --n.
    section = section_from_json(cfg.section)
    unit, rows = None, []
    for eps in cfg.epsilons:
        e = scale_factor(eps)
        if unit is None:
            unit = rayleigh_upper_bounds(cfg.field_components, section,
                                         n_max=cfg.n_max)
        rows.append({"eps": eps, "e": e * unit.e,
                     **{f"bound{n}": e * b for n, b in unit.bounds}})
    return {"sweepKey": "eps", "rows": rows}


def _profile(cfg: RunConfig) -> BoundaryProfile:
    return BoundaryProfile.from_section(section_from_json(cfg.section),
                                        axis=cfg.axis)


def _robin_cone(cfg: RunConfig) -> dict:
    profile = _profile(cfg)
    return {"bound": robin_cone_upper_bound(profile),
            "axis": None if cfg.axis is None else list(cfg.axis),
            "provenance": [profile.method, "upper-bound"]}


def _robin_scaling(cfg: RunConfig) -> dict:
    profile = _profile(cfg)
    return {"epsilons": list(cfg.epsilons),
            "exponent": robin_scaling_exponent(profile, cfg.epsilons),
            "provenance": [profile.method]}


class Command(NamedTuple):
    """One CLI command.  ``provenance`` is appended to the handler's payload
    when it is fixed; a handler sets it itself when it varies or must come
    before a later key.  ``csv`` is the default ``--csv`` column of a sweep
    command; only commands that have one take ``--csv`` and ``--quantity``."""

    help: str
    options: tuple[Option, ...]
    run: Callable[[RunConfig], dict]
    provenance: tuple[str, ...] | None = None
    csv: str | None = None


#: Help text of the command groups, whose leaves are dotted names below.
GROUPS = {"model": "model operator constants",
          "robin": "attractive Robin analogue",
          "sweep": "tabulate a quantity over a parameter"}

COMMANDS: dict[str, Command] = {
    "moments": Command(
        "area and second moments of a section", (_SECTION,),
        lambda cfg: moments(section_from_json(cfg.section)).as_dict(),
        ("exact",)),
    "gauge": Command("optimal transverse gauge of a section", (_SECTION,),
                     _gauge, ("exact",)),
    "bound": Command(
        "eigenvalue upper bounds (4n-1)e", (_SECTION, _FIELD, _N),
        lambda cfg: rayleigh_upper_bounds(
            cfg.field_components, section_from_json(cfg.section),
            n_max=cfg.n_max).to_json_dict(),
        ("exact", "upper-bound")),
    "spectrum1d": Command(
        "reduced half-line spectrum",
        (Option("--lam", "lam", type=float, required=True), _N,
         Option("--method", "method", choices=("exact", "fd"),
                default="exact")),
        _spectrum1d),
    "model.theta0": Command("de Gennes constant", (), _theta0,
                            ("Rayleigh-Ritz", "upper-bound")),
    "model.sigma": Command(
        "half-space energy at field angle theta",
        (Option("--theta", "theta", type=float, required=True),),
        lambda cfg: {"theta": cfg.theta, "sigma": halfspace_sigma(cfg.theta)},
        ("Rayleigh-Ritz", "upper-bound")),
    "ess": Command(
        "essential-energy estimates along a ladder",
        (_SECTION, _FIELD, _EPS_LIST, _CFLOOR),
        lambda cfg: {"sweepKey": "eps", "rows": [
            dict(eps=eps, **est.to_json_dict())
            for eps, est in essential_spectrum_limit(
                cfg.field_components, section_from_json(cfg.section),
                cfg.epsilons, cfg.c_floor)]},
        ("Rayleigh-Ritz", "upper-bound"), csv="upper"),
    "concentrate": Command(
        "corner-concentration threshold",
        (_SECTION, _FIELD, _CFLOOR,
         Option("--eps", "eps", type=float,
                help="also report the verdict at this sharpness")),
        _concentrate),
    "edges": Command(
        "edge openings of the truncated cone",
        (_SECTION, Option("--eps", "eps", type=float, required=True)),
        _edges, ("exact",)),
    "robin.wedge": Command(
        "exact wedge energy",
        (Option("--alpha", "alpha", type=float, required=True),),
        lambda cfg: {"alpha": cfg.alpha,
                     "energy": robin_wedge_energy(cfg.alpha)},
        ("exact",)),
    "robin.cone": Command(
        "cone upper bound from the polar profile", (_SECTION, _AXIS),
        _robin_cone),
    "robin.scaling": Command(
        "log-log scaling exponent", (_SECTION, _EPS_LIST, _AXIS),
        _robin_scaling),
    "sweep.bound": Command(
        "e(B, eps*w) along a ladder",
        (_SECTION, _FIELD, _EPS_LIST,
         Option("--n", "n_max", type=int, default=1)),
        _sweep_bound, ("exact", "upper-bound"), csv="e"),
    "sweep.sigma": Command(
        "sigma(theta) on a grid",
        (Option("--thetas", "thetas", _floats("theta list"), required=True),),
        lambda cfg: {"sweepKey": "theta",
                     "rows": [{"theta": th, "sigma": halfspace_sigma(th)}
                              for th in cfg.thetas]},
        ("Rayleigh-Ritz", "upper-bound"), csv="sigma"),
}


def _options(cmd: Command) -> tuple[Option, ...]:
    """Every option of a command, the shared ones first."""
    return (_STRICT,) + (_CSV if cmd.csv else ()) + cmd.options


# ---------------------------------------------------------------------------
# parsing and dispatch, read off the table

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conebounds", description=(
        "Eigenvalue upper bounds for sharp magnetic cones"))
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for name, cmd in COMMANDS.items():
        group, _, leaf = name.rpartition(".")
        if group and group not in groups:
            groups[group] = sub.add_parser(
                group, help=GROUPS[group]).add_subparsers(dest="command",
                                                          required=True)
        p = (groups[group] if group else sub).add_parser(leaf, help=cmd.help)
        p.set_defaults(command=name)
        for opt in _options(cmd):
            p.add_argument(opt.flag, dest=opt.field, **opt.kw)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` tree, built on the first call.  A parse
    leaves no state in the parser (no option has a mutable default), so
    every later call reuses it."""
    return build_parser()


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    for opt in _options(COMMANDS[ns.command]):
        val = getattr(ns, opt.field)
        if val is not None:
            setattr(cfg, opt.field, opt.convert(val) if opt.convert else val)
    if cfg.quantity is not None and cfg.csv_path is None:
        raise UsageError("--quantity needs --csv")
    return cfg


def execute_config(cfg: RunConfig) -> dict:
    """Run one configured command and return its result payload.

    Every payload carries a ``provenance`` list saying how its numbers
    were obtained: closed form ("exact"), the periodic trapezoid rule
    ("quadrature"), finite differences ("FD"), a Rayleigh-Ritz (Galerkin)
    eigenvalue ("Rayleigh-Ritz"), and whether they bound the true quantity
    from one side ("upper-bound" / "lower-bound").
    """
    cmd = COMMANDS.get(cfg.command)
    if cmd is None:
        raise UsageError(f"unknown command {cfg.command!r}")
    for opt in cmd.options:
        if opt.kw.get("required") and getattr(cfg, opt.field) is None:
            raise UsageError(f"{cfg.command} needs {opt.flag}")
    out = cmd.run(cfg)
    if cmd.provenance is not None:
        out["provenance"] = list(cmd.provenance)
    return out


# ---------------------------------------------------------------------------
# driver

def run_config(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a configuration and wrap the result in the report envelope.

    Returns the report and the exit code.  Accuracy warnings never abort
    the computation; they are collected into the report and only change
    the exit code under strict mode.  The report's ``config`` is
    ``cfg.to_dict()``, which holds ``cfg``'s own field values, not copies:
    the report and ``cfg`` share the section dict, so a change to it in
    one shows in the other.
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
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = config_from_args(ns)
    except UsageError as exc:
        print(dumps_report(_error_report(RunConfig(command=ns.command),
                                         "parse", str(exc))))
        return 2
    report, code = run_config(cfg)
    print(dumps_report(report))
    if code == 0 and cfg.csv_path is not None:
        quantity = cfg.quantity or COMMANDS[cfg.command].csv
        try:
            csv_text = emit_plot_data(report, quantity)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            with open(cfg.csv_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"error: cannot write CSV file: {exc}", file=sys.stderr)
            return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
