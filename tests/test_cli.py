"""Command-line driver: dispatch, report envelope, exit codes, CSV export."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import conebounds
from conebounds import (cli, models, rayleigh_upper_bounds, scale_section,
                        section_from_json, theta0)
from conebounds.cli import (COMMANDS, RunConfig, build_parser, dumps_report,
                            emit_plot_data, run, run_config)
from conebounds.errors import AccuracyWarning, UsageError
from conftest import reference_dumps_report

DISC_DOC = {"disc": {"center": [0.0, 0.0], "radius": 1.0}}
SQUARE_DOC = {"polygon": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]}
PENTAGON_DOC = {"polygon": [[0.3, 0.2], [2.1, 0.5], [1.7, 1.9], [0.9, 1.1],
                            [0.2, 1.4]]}
OFFCENTRE_DISC_DOC = {"disc": {"center": [0.4, -0.7], "radius": 0.9}}


@pytest.fixture
def disc_file(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(DISC_DOC))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_DOC))
    return str(path)


def run_cli(capsys, args):
    code = run(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCommands:
    def test_bound_on_unit_disc(self, capsys, disc_file):
        code, report = run_cli(capsys, ["bound", "--section", disc_file,
                                        "--field", "0,0,1", "--n", "3"])
        assert code == 0
        e = report["result"]["e"]
        assert e == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
        assert [n for n, _ in report["result"]["bounds"]] == [1, 2, 3]
        assert [v for _, v in report["result"]["bounds"]] == pytest.approx(
            [3.0 * e, 7.0 * e, 11.0 * e], rel=1e-14)
        assert "upper-bound" in report["result"]["provenance"]

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_field_scales(self, capsys, square_file, scale):
        # |B| and e(B, w) are homogeneous of degree one and computed on the
        # field scaled to unit size: a field of 1e-200 is not the zero
        # field, and squaring one of 1e200 does not overflow
        def result(command, field, *extra):
            code, report = run_cli(capsys, [
                command, "--section", square_file,
                "--field", ",".join(map(repr, field)), *extra])
            assert code == 0
            return report["result"]

        for unit in ((0.0, 0.0, 1.0), (1.0, 0.0, 1.0)):
            field = tuple(scale * b for b in unit)
            want, got = (result("bound", f) for f in (unit, field))
            assert got["e"] == pytest.approx(scale * want["e"], rel=1e-15)
            want, got = (result("concentrate", f, "--cfloor", "1",
                                "--eps", "0.3") for f in (unit, field))
            assert not got["degenerate"]
            assert got["epsilonStar"] == pytest.approx(want["epsilonStar"],
                                                       rel=1e-15)
            assert got["verdict"]["holds"] == want["verdict"]["holds"]
            want, got = (result("ess", f, "--eps", "0.5,0.1", "--cfloor",
                                "0.5") for f in (unit, field))
            for w, g in zip(want["rows"], got["rows"], strict=True):
                assert g["source"] == w["source"] != "zero field"
                for end in ("lower", "upper"):
                    assert g[end] == pytest.approx(scale * w[end], rel=1e-12)
        # on [-1, 1]^2 the axial field gives e = |B| / sqrt(6)
        e = result("bound", (0.0, 0.0, 1e-200))["e"]
        assert e == pytest.approx(1e-200 / math.sqrt(6.0), rel=1e-15)

    def test_envelope_fields(self, capsys, disc_file):
        code, report = run_cli(capsys, ["bound", "--section", disc_file,
                                        "--field", "0,0,1"])
        assert code == 0
        assert report["command"] == "bound"
        assert "seed" not in report
        assert report["warnings"] == []
        assert isinstance(report["version"], str)
        assert report["timing"]["wallTimeS"] >= 0.0
        assert report["config"]["field_components"] == [0.0, 0.0, 1.0]

    def test_moments_payload(self, capsys, square_file):
        code, report = run_cli(capsys, ["moments", "--section", square_file])
        assert code == 0
        res = report["result"]
        assert set(res) == {"area", "M0", "M1", "M2", "m0", "m1", "m2",
                            "provenance"}
        assert res["area"] == pytest.approx(4.0, rel=1e-14)
        assert res["m0"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert res["m1"] == pytest.approx(0.0, abs=1e-15)

    def test_gauge_payload(self, capsys, square_file):
        code, report = run_cli(capsys, ["gauge", "--section", square_file])
        assert code == 0
        res = report["result"]
        assert res["gauge"][0] == pytest.approx([0.0, -0.5], abs=1e-15)
        assert res["gauge"][1] == pytest.approx([0.5, 0.0], abs=1e-15)
        assert res["curl"] == pytest.approx(1.0, rel=1e-14)
        assert res["transverseNormSq"] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_spectrum1d_exact(self, capsys):
        code, report = run_cli(capsys, ["spectrum1d", "--lam", "1", "--n", "3"])
        assert code == 0
        assert report["result"]["eigenvalues"] == pytest.approx(
            [3.0, 7.0, 11.0], rel=1e-15)

    def test_model_theta0(self, capsys):
        code, report = run_cli(capsys, ["model", "theta0"])
        assert code == 0
        assert 0.5900 < report["result"]["theta0"] < 0.5903

    def test_model_sigma_at_zero(self, capsys):
        code, report = run_cli(capsys, ["model", "sigma", "--theta", "0"])
        assert code == 0
        assert report["result"]["sigma"] == theta0()

    @pytest.mark.parametrize("argv", [
        ["model", "theta0"], ["model", "sigma", "--theta", "0"],
        ["model", "sigma", "--theta", "0.7"],
        ["sweep", "sigma", "--thetas", "0,0.7"]])
    def test_half_space_energies_are_rayleigh_ritz_upper_bounds(self, capsys,
                                                                argv):
        code, report = run_cli(capsys, argv)
        assert code == 0
        assert report["result"]["provenance"] == ["Rayleigh-Ritz",
                                                  "upper-bound"]

    def test_ess_provenance(self, capsys, square_file):
        # a field along x is tangent to the faces over y = +-1: sigma(0)
        code, report = run_cli(capsys, [
            "ess", "--section", square_file, "--field", "1,0,0",
            "--eps", "0.4,0.2", "--cfloor", "0.5"])
        assert code == 0
        # the lower ends are minima of Rayleigh-Ritz sigma values, which
        # bound from above too, so nothing here is a lower bound
        assert report["result"]["provenance"] == ["Rayleigh-Ritz",
                                                  "upper-bound"]

    def test_ess_on_a_sharp_triangle_with_a_floor_above_its_corners(
            self, capsys, tmp_path):
        # the pi/4 corners' small-opening value (pi/4) / sqrt(3) = 0.453 is
        # below the floor 0.5, but it is leading-order only and no bound,
        # so it neither rejects the floor nor sets the upper end
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [0, 1]]}))
        code, report = run_cli(capsys, [
            "ess", "--section", str(path), "--field", "0,0,1",
            "--eps", "0.4,0.2", "--cfloor", "0.5"])
        assert code == 0
        for row in report["result"]["rows"]:
            assert row["lower"] <= 0.5 < row["upper"]

    def test_robin_wedge(self, capsys):
        code, report = run_cli(capsys, ["robin", "wedge",
                                        "--alpha", repr(math.pi / 2.0)])
        assert code == 0
        assert report["result"]["energy"] == pytest.approx(-2.0, rel=1e-14)

    def test_robin_cone(self, capsys, disc_file):
        code, report = run_cli(capsys, ["robin", "cone",
                                        "--section", disc_file])
        assert code == 0
        assert report["result"]["bound"] == pytest.approx(-2.0, rel=1e-10)

    def test_robin_scaling(self, capsys, tmp_path):
        small = tmp_path / "small.json"
        small.write_text(json.dumps(
            {"disc": {"center": [0.0, 0.0], "radius": 0.2}}))
        code, report = run_cli(capsys, ["robin", "scaling",
                                        "--section", str(small),
                                        "--eps", "1,0.5,0.25,0.1"])
        assert code == 0
        assert report["result"]["exponent"] == pytest.approx(-2.0, abs=0.05)

    @pytest.mark.parametrize("doc, axis, method", [
        (SQUARE_DOC, None, "exact"),
        (DISC_DOC, None, "exact"),
        (DISC_DOC, "0.3,0", "quadrature"),
    ])
    def test_robin_provenance(self, capsys, tmp_path, doc, axis, method):
        # an edge sum, -(1 + r^-2) about a disc's centre, and the rim
        # trapezoid rule only about any other axis of a disc
        path = tmp_path / "section.json"
        path.write_text(json.dumps(doc))
        extra = [] if axis is None else ["--axis", axis]
        code, report = run_cli(capsys, ["robin", "cone", "--section",
                                        str(path)] + extra)
        assert code == 0
        assert report["result"]["provenance"] == [method, "upper-bound"]
        code, report = run_cli(capsys, ["robin", "scaling", "--section",
                                        str(path), "--eps", "1,0.5,0.1"]
                               + extra)
        assert code == 0
        assert report["result"]["provenance"] == [method]

    def test_edges(self, capsys, square_file):
        code, report = run_cli(capsys, ["edges", "--section", square_file,
                                        "--eps", "0.3"])
        assert code == 0
        res = report["result"]
        assert len(res["lateral"]) == 4
        assert len(res["top"]) == 4
        assert res["beta0"] == pytest.approx(
            math.pi / 2.0 - math.atan(0.3), rel=1e-12)

    def test_concentrate(self, capsys, disc_file):
        code, report = run_cli(capsys, ["concentrate", "--section", disc_file,
                                        "--field", "0,0,1", "--cfloor", "1",
                                        "--eps", "0.2"])
        assert code == 0
        res = report["result"]
        assert res["epsilonStar"] == pytest.approx(math.sqrt(2.0) / 3.0,
                                                   rel=1e-12)
        assert res["verdict"]["holds"] is True


class TestSweepsAndCsv:
    def test_sweep_bound_csv(self, capsys, disc_file, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, report = run_cli(capsys, ["sweep", "bound",
                                        "--section", disc_file,
                                        "--field", "0,0,1",
                                        "--eps", "1,0.5,0.1",
                                        "--csv", str(csv_path)])
        assert code == 0
        rows = report["result"]["rows"]
        assert len(rows) == 3
        e1 = rows[0]["e"]
        # e(B, eps*w) = eps * e(B, w)
        assert rows[1]["e"] == pytest.approx(0.5 * e1, rel=1e-14)
        assert rows[2]["e"] == pytest.approx(0.1 * e1, rel=1e-14)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eps,e"
        assert len(lines) == 4
        assert [float(ln.split(",")[0]) for ln in lines[1:]] == [1.0, 0.5, 0.1]

    @pytest.mark.parametrize("doc", [PENTAGON_DOC, OFFCENTRE_DISC_DOC])
    def test_sweep_bound_rows_equal_per_rung_dilation(self, capsys, tmp_path,
                                                       doc):
        # the rows scale one bound by eps; a dilated section gives the same
        path = tmp_path / "section.json"
        path.write_text(json.dumps(doc))
        field, ladder = (0.3, -0.4, 0.8), (1.0, 0.5, 0.3, 0.1, 0.01, 7.25)
        code, report = run_cli(capsys, [
            "sweep", "bound", "--section", str(path), "--field", "0.3,-0.4,0.8",
            "--eps", ",".join(map(repr, ladder)), "--n", "3"])
        assert code == 0
        rows = report["result"]["rows"]
        assert [row["eps"] for row in rows] == list(ladder)
        section = section_from_json(doc)
        for row, eps in zip(rows, ladder):
            want = rayleigh_upper_bounds(field, scale_section(section, eps),
                                         n_max=3)
            assert row["e"] == pytest.approx(want.e, rel=2e-15, abs=0.0)
            for n, b in want.bounds:
                assert row[f"bound{n}"] == pytest.approx(b, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("ladder", ["0.5,0", "1,-2", "1,inf", "1,nan"])
    def test_sweep_bound_rejects_a_non_positive_rung(self, capsys, square_file,
                                                     ladder):
        code, report = run_cli(capsys, ["sweep", "bound", "--section",
                                        square_file, "--field", "0,0,1",
                                        "--eps", ladder])
        assert code == 3
        assert report["error"] == {"kind": "domain",
                                   "message": "scale factor must be positive"}

    def test_sweep_bound_checks_the_first_rung_before_the_field(
            self, capsys, square_file):
        args = ["sweep", "bound", "--section", square_file,
                "--field", "0,0,inf", "--eps"]
        code, report = run_cli(capsys, args + ["0,1"])
        assert (code, report["error"]["kind"]) == (3, "domain")
        code, report = run_cli(capsys, args + ["1,0"])
        assert (code, report["error"]["kind"]) == (2, "parse")
        assert "magnetic field" in report["error"]["message"]

    def test_sweep_sigma_starts_at_theta0(self, capsys):
        code, report = run_cli(capsys, ["sweep", "sigma",
                                        "--thetas", "0,1.5707963267948966"])
        assert code == 0
        rows = report["result"]["rows"]
        assert rows[0]["sigma"] == theta0()
        assert rows[1]["sigma"] == pytest.approx(1.0, abs=1e-2)
        csv_text = emit_plot_data(report, "sigma")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "theta,sigma"
        assert float(lines[1].split(",")[1]) == theta0()

    def test_emit_plot_data_unknown_quantity(self, capsys, disc_file):
        _, report = run_cli(capsys, ["sweep", "bound", "--section", disc_file,
                                     "--field", "0,0,1", "--eps", "1,0.5,0.1"])
        with pytest.raises(UsageError):
            emit_plot_data(report, "nope")

    def test_emit_plot_data_non_numeric_quantity(self):
        report = {"result": {"sweepKey": "eps",
                             "rows": [{"eps": 0.4, "kind": "TwoSided"}]}}
        with pytest.raises(UsageError, match="not numeric"):
            emit_plot_data(report, "kind")

    def test_non_numeric_csv_column_is_a_usage_error(self, capsys,
                                                     square_file, tmp_path):
        csv_path = tmp_path / "ess.csv"
        code, report = run_cli(capsys, ["ess", "--section", square_file,
                                        "--field", "0,0,1", "--eps", "0.4,0.2",
                                        "--cfloor", "0.5", "--csv",
                                        str(csv_path), "--quantity", "kind"])
        assert code == 2
        assert report["result"]["rows"][0]["kind"] == "TwoSided"
        assert not csv_path.exists()

    def test_unwritable_csv_path_is_a_usage_error(self, capsys, disc_file,
                                                  tmp_path):
        csv_path = tmp_path / "missing" / "sweep.csv"
        code = run(["sweep", "bound", "--section", disc_file, "--field",
                    "0,0,1", "--eps", "1,0.5", "--csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["result"]["rows"][1]["eps"] == 0.5
        assert err.startswith("error: cannot write CSV file: ")
        assert str(csv_path) in err
        assert not csv_path.exists()

    def test_emit_plot_data_empty_report(self):
        with pytest.raises(UsageError):
            emit_plot_data({"result": {}}, "e")

    def test_emit_plot_data_passthrough_order(self):
        # rows are emitted in input order, no sorting or dedup
        report = {"result": {"sweepKey": "eps",
                             "rows": [{"eps": 0.4, "upper": 1.0},
                                      {"eps": 0.2, "upper": 0.9},
                                      {"eps": 0.1, "upper": 0.8}]}}
        lines = emit_plot_data(report, "upper").strip().splitlines()
        assert [float(ln.split(",")[0]) for ln in lines[1:]] == [0.4, 0.2, 0.1]


class TestExitCodes:
    def test_malformed_section_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, report = run_cli(capsys, ["moments", "--section", str(bad)])
        assert code == 2
        assert report["error"]["kind"] == "parse"

    def test_missing_section_file(self, capsys, tmp_path):
        code, report = run_cli(capsys, ["moments", "--section",
                                        str(tmp_path / "absent.json")])
        assert code == 2
        assert report["error"]["kind"] == "parse"

    @pytest.mark.parametrize("doc", [
        {"polygon": [[0, 0], [1e77, 0], [1e77, 1e77], [0, 1e77]]},
        {"disc": {"center": [0, 0], "radius": 1e160}},
        # its shoelace area is inf: too large, not numerically zero
        {"polygon": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]}])
    @pytest.mark.parametrize("command", [
        ["moments"], ["gauge"], ["bound", "--field", "0,0,1"],
        ["concentrate", "--field", "0,0,1", "--cfloor", "1", "--eps", "0.2"],
        ["sweep", "bound", "--field", "0,0,1", "--eps", "1,0.5"]])
    def test_overflowing_moments_are_a_domain_error(self, capsys, tmp_path,
                                                    doc, command):
        # a nan e must not be tagged upper-bound, nor an inf M1 exact
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(capsys, [*command, "--section", str(path)])
        assert code == 3
        assert report["error"]["kind"] == "domain"
        assert "moments overflow" in report["error"]["message"]

    def test_degenerate_polygon_is_domain_error(self, capsys, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(
            {"polygon": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}))
        code, report = run_cli(capsys, ["moments", "--section", str(flat)])
        assert code == 3
        assert report["error"]["kind"] == "domain"

    def test_bad_field_arity(self, capsys, disc_file):
        code, report = run_cli(capsys, ["bound", "--section", disc_file,
                                        "--field", "1,2"])
        assert code == 2
        assert report["error"]["kind"] == "parse"

    def test_bad_wedge_angle_is_domain_error(self, capsys):
        code, report = run_cli(capsys, ["robin", "wedge", "--alpha", "7"])
        assert code == 3
        assert report["error"]["kind"] == "domain"

    @pytest.mark.parametrize("axis", ["nan,0", "0,nan"])
    @pytest.mark.parametrize("command", [["robin", "cone"],
                                         ["robin", "scaling",
                                          "--eps", "1,0.5,0.1"]])
    def test_nan_axis_on_a_disc_is_domain_error(self, capsys, disc_file,
                                                axis, command):
        # rejected up front, not after 2^20 rim trapezoid nodes
        code, report = run_cli(capsys, [*command, "--section", disc_file,
                                        "--axis=" + axis])
        assert code == 3
        assert report["error"] == {
            "kind": "domain",
            "message": "axis must lie strictly inside the disc"}

    @pytest.mark.parametrize("args, code, kind", [
        (["--lam", "1", "--n", "5000"], 2, "parse"),
        (["--lam", "-1"], 3, "domain"),
    ], ids=["n-above-grid", "lam-not-positive"])
    def test_fd_failures_are_error_reports(self, capsys, args, code, kind):
        # more eigenvalues than grid points, and a lam outside (0, inf)
        got, report = run_cli(capsys, ["spectrum1d", "--method", "fd", *args])
        assert (got, report["error"]["kind"]) == (code, kind)

    @pytest.mark.parametrize("lam", ["5e-324", "1e-320", "1e-8", "1", "1e8",
                                     "1e299", "1e300", "1.7e308"])
    def test_fd_at_extreme_lam_succeeds_without_warnings(self, capsys, lam):
        # one lam = 1 solve, scaled by sqrt(lam): no grid to under- or
        # overflow, no eigensolve at a lam-dependent scale
        code, report = run_cli(capsys, ["spectrum1d", "--lam", lam,
                                        "--method", "fd"])
        assert code == 0
        assert report["warnings"] == []
        vals = np.array(report["result"]["eigenvalues"])
        exact = math.sqrt(float(lam)) * np.array([3.0, 7.0, 11.0])
        assert np.all(np.abs(vals - exact) <= 1e-5 * exact)

    def test_grid_flags_are_unknown_options(self, capsys):
        assert run(["spectrum1d", "--lam", "1", "--method", "fd",
                    "--xmax", "6"]) == 2
        assert "unrecognized arguments: --xmax" in capsys.readouterr().err

    @pytest.fixture
    def warning_fd(self, monkeypatch):
        # no spectrum1d input makes the solver warn, so stand in one that
        # does, to exercise the strict-mode plumbing
        def fd(lam, n_max=3):
            warnings.warn("grid too coarse for the reduced spectrum",
                          AccuracyWarning)
            return [3.0] * n_max

        monkeypatch.setattr(cli, "fd_halfline_spectrum", fd)

    def test_coarse_fd_warns_without_strict(self, capsys, warning_fd):
        args = ["spectrum1d", "--lam", "1", "--method", "fd"]
        code, report = run_cli(capsys, args)
        assert code == 0
        assert report["warnings"]
        assert "eigenvalues" in report["result"]

    def test_coarse_fd_fails_under_strict(self, capsys, warning_fd):
        code, report = run_cli(capsys, ["spectrum1d", "--lam", "1",
                                        "--method", "fd", "--strict"])
        assert code == 4
        assert report["warnings"]


class TestOptionPlacement:
    FD_ARGS = ["spectrum1d", "--lam", "1", "--method", "fd"]

    def test_strict_before_the_subcommand_is_rejected(self, capsys):
        assert run(["--strict", *self.FD_ARGS]) == 2
        assert capsys.readouterr().out == ""

    def test_csv_before_the_subcommand_is_rejected(self, capsys, disc_file,
                                                   tmp_path):
        csv_path = tmp_path / "pre.csv"
        assert run(["--csv", str(csv_path), "sweep", "bound",
                    "--section", disc_file, "--field", "0,0,1",
                    "--eps", "1,0.5"]) == 2
        assert not csv_path.exists()

    def test_csv_only_on_commands_with_a_csv_column(self, capsys, disc_file,
                                                    tmp_path):
        csv_path = tmp_path / "m.csv"
        assert run(["moments", "--section", disc_file,
                    "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().out == ""
        assert not csv_path.exists()
        assert sorted(n for n, c in COMMANDS.items() if c.csv) == [
            "ess", "sweep.bound", "sweep.sigma"]

    def test_quantity_without_csv_is_rejected(self, capsys, disc_file):
        code, report = run_cli(capsys, ["sweep", "bound", "--section",
                                        disc_file, "--field", "0,0,1",
                                        "--eps", "1,0.5", "--quantity", "e"])
        assert code == 2
        assert report["command"] == "sweep.bound"
        assert report["error"] == {"kind": "parse",
                                   "message": "--quantity needs --csv"}

    def test_parse_error_report_names_the_leaf_command(self, capsys,
                                                       tmp_path):
        code, report = run_cli(capsys, ["robin", "scaling", "--section",
                                        str(tmp_path / "missing.json"),
                                        "--eps", "1,0.1,0.01"])
        assert code == 2
        assert report["command"] == "robin.scaling"
        assert report["config"]["command"] == "robin.scaling"
        assert report["error"]["kind"] == "parse"


class TestConfigAndSerialization:
    def test_config_missing_a_required_field(self):
        report, code = run_config(RunConfig(command="edges",
                                            section=SQUARE_DOC))
        assert code == 2
        assert report["error"] == {"kind": "parse",
                                   "message": "edges needs --eps"}

    def test_reports_are_deterministic(self):
        for cfg in (RunConfig(command="bound", section=DISC_DOC,
                              field_components=(0.5, -0.25, 1.0)),
                    RunConfig(command="model.sigma", theta=0.7),
                    RunConfig(command="sweep.sigma", thetas=(0.4,))):
            rep_a, code_a = run_config(cfg)
            # a cached sigma would hide a solve that drifts between runs
            models._sigma_cached.cache_clear()
            rep_b, code_b = run_config(cfg)
            assert code_a == code_b == 0
            rep_a.pop("timing")
            rep_b.pop("timing")
            assert dumps_report(rep_a) == dumps_report(rep_b)

    def test_dumps_report_float_fidelity(self):
        x = 0.1234567890123456789
        text = dumps_report({"x": x})
        assert json.loads(text)["x"] == x

    def test_dumps_report_nonfinite(self):
        text = dumps_report({"a": float("nan"), "b": float("inf"),
                             "c": float("-inf")})
        doc = json.loads(text)
        assert doc == {"a": "nan", "b": "inf", "c": "-inf"}

    def test_dumps_report_rejects_opaque_objects(self):
        with pytest.raises(UsageError):
            dumps_report({"x": object()})


# Runs in a fresh interpreter: closed-form commands must not load scipy,
# and the FD command must still load it on first use.
_SCIPY_PROBE = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import conebounds
from conebounds import cli

out = {"import": scipy_modules(), "codes": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(cli.run(argv))
out["numpy_only"] = scipy_modules()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    out["fd_code"] = cli.run(["spectrum1d", "--lam", "1", "--method", "fd"])
out["fd"] = json.loads(buf.getvalue())["result"]["eigenvalues"]
print(json.dumps(out))
"""


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on the path."""
    src = os.path.dirname(os.path.dirname(conebounds.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestImportCost:
    def test_closed_form_commands_do_not_load_scipy(self, capsys, disc_file,
                                                    square_file):
        # the closed-form commands and the spectral half-space energies
        numpy_only = [
            ["moments", "--section", square_file],
            ["gauge", "--section", square_file],
            ["bound", "--section", disc_file, "--field", "0,0,1"],
            ["concentrate", "--section", disc_file, "--field", "0,0,1",
             "--cfloor", "1", "--eps", "0.2"],
            ["edges", "--section", square_file, "--eps", "0.3"],
            ["robin", "wedge", "--alpha", "1.5"],
            ["sweep", "bound", "--section", disc_file, "--field", "0,0,1",
             "--eps", "1,0.5"],
            ["spectrum1d", "--lam", "1", "--method", "exact"],
            ["model", "theta0"],
            ["model", "sigma", "--theta", "0"],
            ["model", "sigma", "--theta", "0.7"],
            ["sweep", "sigma", "--thetas", "0.2,0.7"],
            ["sweep", "sigma", "--thetas", "0,0.7"],
            ["ess", "--section", square_file, "--field", "0.3,-0.4,0.8",
             "--eps", "0.4,0.2", "--cfloor", "0.5"],
            ["robin", "cone", "--section", square_file],
            ["robin", "cone", "--section", disc_file, "--axis", "0.3,0"],
            ["robin", "scaling", "--section", disc_file,
             "--eps", "1,0.5,0.25,0.1"],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps(numpy_only)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["import"] == []
        assert out["codes"] == [0] * len(numpy_only)
        assert out["numpy_only"] == []
        assert out["fd_code"] == 0
        code, report = run_cli(capsys, ["spectrum1d", "--lam", "1",
                                        "--method", "fd"])
        assert code == 0
        assert out["fd"] == report["result"]["eigenvalues"]


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        missing = [name for name in conebounds.__all__
                   if not hasattr(conebounds, name)]
        assert missing == []

    def test_star_import(self):
        namespace = {}
        exec("from conebounds import *", namespace)
        assert set(conebounds.__all__) <= set(namespace)


# Runs in a fresh interpreter: the benchmark's tracer (perfbench/tracing.py)
# must still find and rebind every library name it traces.
_TRACE_PROBE = r"""
import contextlib, io, json, sys
from collections import Counter

sys.path.insert(0, sys.argv[1])
import tracing
from conebounds import cli, models

tracer = tracing.Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
models._sigma_cached.cache_info()
print(json.dumps({"codes": codes,
                  "calls": Counter(span[0] for span in tracer.spans),
                  "counts": tracer.counts}))
"""


def run_traced(argvs) -> dict:
    """Run CLI argvs under the benchmark's tracer in a fresh interpreter."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_PROBE, perfbench, json.dumps(argvs)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBenchmarkHooks:
    def test_tracer_installs_and_sees_the_section_builds(self, square_file):
        argvs = [["bound", "--section", square_file, "--field", "0,0,1",
                  "--n", "3"],
                 ["sweep", "bound", "--section", square_file,
                  "--field", "0.3,-0.4,0.8", "--eps", "1,0.5,0.25"],
                 ["edges", "--section", square_file, "--eps", "0.3"],
                 ["model", "theta0"],
                 ["model", "sigma", "--theta", "0"]]
        out = run_traced(argvs)
        assert out["codes"] == [0] * 5
        calls = out["calls"]
        assert calls["cli.invoke"] == calls["cli.execute"] == 5
        # one section build per command, one bound per bound-like command
        assert calls["geometry.section_build"] == 3
        assert calls["gauge.bound"] == 2
        # theta0 and theta0_detail are still rebound
        assert calls["models.theta0"] >= 1
        assert calls["models.sigma"] == 1

    def test_tracer_sees_the_robin_spans(self, square_file):
        out = run_traced([["robin", "cone", "--section", square_file],
                          ["robin", "scaling", "--section", square_file,
                           "--eps", "1,0.5,0.25,0.1"]])
        assert out["codes"] == [0, 0]
        calls = out["calls"]
        # one profile per command; one bound for cone, one per eps for scaling
        assert calls["robin.profile"] == 2
        assert calls["robin.cone_bound"] == 5
        # one piece per edge of the square in every bound
        assert out["counts"]["robin.pieces"] == 4 * calls["robin.cone_bound"]


class TestEntryPoint:
    def test_module_entry_point(self, square_file):
        # the console script and ``python -m conebounds.cli`` run main()
        proc = subprocess.run(
            [sys.executable, "-m", "conebounds.cli", "moments",
             "--section", square_file],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "moments"
        assert report["result"]["area"] == pytest.approx(4.0, rel=1e-14)


def readme_cli_examples() -> list[list[str]]:
    """The commands in the README's "Command line" code block."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("conebounds ")]


class TestReadme:
    def test_command_line_examples_exit_zero(self, capsys, tmp_path,
                                             monkeypatch):
        (tmp_path / "disc.json").write_text(json.dumps(DISC_DOC))
        (tmp_path / "square.json").write_text(json.dumps(SQUARE_DOC))
        monkeypatch.chdir(tmp_path)
        examples = readme_cli_examples()
        assert len(examples) >= 10
        codes = {" ".join(argv): run_cli(capsys, argv)[0]
                 for argv in examples}
        assert codes == {cmd: 0 for cmd in codes}

    def test_one_example_per_command(self):
        names = [argv[0] if argv[0] in COMMANDS else ".".join(argv[:2])
                 for argv in readme_cli_examples()]
        assert sorted(names) == sorted(COMMANDS)

    def test_documented_flags_are_the_table_flags(self):
        # every option is documented, and nothing else but --seed, which
        # is documented as absent
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"--[a-z][a-z-]*", section))
        flags = {opt.flag for cmd in COMMANDS.values()
                 for opt in cli._options(cmd)}
        assert "--seed" not in flags
        assert documented - {"--seed"} == flags


class TestReportWriter:
    """The one-pass ``dumps_report`` writes what the recursive reference
    (``conftest.reference_dumps_report``) writes, byte for byte."""

    def test_every_command_report_matches_the_reference(
            self, capsys, tmp_path, monkeypatch):
        (tmp_path / "disc.json").write_text(json.dumps(DISC_DOC))
        (tmp_path / "square.json").write_text(json.dumps(SQUARE_DOC))
        monkeypatch.chdir(tmp_path)
        seen = []

        def spy(obj):
            text = dumps_report(obj)
            seen.append((obj, text))
            return text

        monkeypatch.setattr(cli, "dumps_report", spy)
        commands = set()
        for argv in readme_cli_examples():
            assert run(argv) == 0
            commands.add(seen[-1][0]["command"])
        capsys.readouterr()
        assert commands == set(COMMANDS)
        for report, text in seen:
            assert text == reference_dumps_report(report)

    @pytest.mark.parametrize("obj", [
        [], {}, (), {"a": [], "b": {}, "c": ()}, [[], [{}], [[[]]]],
        ((1, (2.5, ())), ("x",), ((), ((None,),))),
        np.arange(3), np.array([[1.0, -2.5], [np.nan, np.inf]]),
        np.zeros((2, 0)), np.array([True, False]),
        [np.float64(0.1), np.float32(0.1), np.int32(-7), np.uint8(200),
         np.int64(2 ** 62), np.bool_(True), np.bool_(False)],
        [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308,
         0.1, 1.0, 2 ** 70, True, False, None],
        {"a\"b\\c\n\u00e9\u2603": "x\ty\u2028\U0001f600\x00", 1: 2,
         None: 3, 2.5: [4], True: {"": ""}},
        {"rows": [{"eps": 0.5, "e": 1.25, "nested": {"k": [1, [2, [3]]]}}]},
        np.float64(np.nan), np.int16(3), "plain", 3, -1.5, None, True,
    ], ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_edge_cases_match_the_reference(self, obj, depth):
        # nested ``depth`` lists in, the closing brackets are indented
        for _ in range(depth):
            obj = [obj]
        assert dumps_report(obj) == reference_dumps_report(obj)

    @pytest.mark.parametrize("obj", [
        object(), {1, 2}, [object()], {"x": object()},
        {"a": [1, 2, {"b": (3, [object()])}]}, [[[[b"bytes"]]]],
        ({"ok": 1.0}, [2.0, {"deep": [complex(1, 2)]}]),
    ], ids=repr)
    def test_opaque_objects_raise_at_any_depth(self, obj):
        with pytest.raises(UsageError, match="cannot serialize"):
            reference_dumps_report(obj)
        with pytest.raises(UsageError, match="cannot serialize"):
            dumps_report(obj)

    def test_config_echo_lists_every_field_in_order(self):
        section = {"polygon": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
        cfg = RunConfig(command="moments", section=section,
                        epsilons=(1.0, 0.5))
        echo = cfg.to_dict()
        assert list(echo) == list(RunConfig.__dataclass_fields__)
        assert echo == {name: getattr(cfg, name) for name in echo}
        assert echo["section"] == section
        assert echo["epsilons"] == (1.0, 0.5)


def _outcome(fn, argv):
    """``(exit code, stdout, stderr)`` of ``fn(argv)``, a ``SystemExit``
    included; the code of a returning call is what it returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fn(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_tree(argv):
    build_parser().parse_args(argv)
    return 0


def _leaf_failures():
    """Per command: help (also ahead of an unknown option), an unknown
    option or a stray positional after a valid call, a positional after
    ``--``, a missing required option, and a bad value for each option
    with a ``type=``."""
    valid = {(argv[0] if argv[0] in COMMANDS else ".".join(argv[:2])): argv
             for argv in readme_cli_examples()}
    cases = []
    for name, cmd in COMMANDS.items():
        path = name.split(".")
        cases += [path + ["--help"], path + ["-h", "--bogus"],
                  valid[name] + ["--bogus"], valid[name] + ["extra"],
                  path + ["--strict", "--", "x"]]
        if any(opt.kw.get("required") for opt in cmd.options):
            cases.append(path + ["--strict"])
        cases += [path + [opt.flag, "notanumber"] for opt in cmd.options
                  if opt.kw.get("type") in (int, float)]
    return cases


class TestCachedParser:
    """``run`` parses with one parser tree built once per process, yet
    prints and exits as a freshly built ``build_parser()`` tree does."""

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["nope"], ["robin"], ["robin", "--help"],
        ["robin", "nope"], ["model"], ["sweep", "-h"], ["robin.cone"],
        ["--strict", "moments", "--section", "square.json"],
        ["moments", "robin", "cone"],
    ] + _leaf_failures(), ids=" ".join)
    def test_help_usage_and_errors_equal_the_full_tree(self, argv):
        want = _outcome(_full_tree, argv)
        assert want[0] in (0, 2)
        assert want[1] or want[2]
        assert _outcome(run, argv) == want

    def test_a_second_run_call_builds_no_parser(self, capsys, square_file,
                                                monkeypatch):
        run(["model", "theta0"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        field = ["--field", "0,0,1"]
        assert run(["bound", "--section", square_file, "--n", "5"]
                   + field) == 0
        assert run(["bound", "--section", square_file, "--n", "x"]
                   + field) == 2
        assert run(["robin", "--help"]) == 0
        capsys.readouterr()
        assert run(["bound", "--section", square_file] + field) == 0
        report = json.loads(capsys.readouterr().out)
        assert built == []
        # a reused parser keeps no value from an earlier call
        assert report["config"]["n_max"] == 3
        assert report["config"]["strict"] is False
