"""Tests of the benchmark itself: inputs, oracle, metric rules, smoke run.

    PYTHONPATH=src python -m pytest -q perfbench

The smoke test runs every workload briefly (about half a minute).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conebounds import GeometryError, Polygon, models, section_from_json  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a = json.dumps(workloads.generate(name, 7))
    assert a == json.dumps(workloads.generate(name, 7))
    assert a != json.dumps(workloads.generate(name, 8))


@pytest.mark.parametrize("name", ["sections-small", "sections-large", "ess-ladder"])
def test_generated_sections_are_valid(name):
    for seed in (1, 2):
        for item in workloads.generate(name, seed)["items"]:
            obj = item["section"]
            inputs.check_section(obj)
            sec = section_from_json(obj)  # raises GeometryError if invalid
            if item["kind"] in ("star", "convex"):
                v = np.asarray(obj["polygon"])
                d = np.roll(v, -1, axis=0) - v
                turns = inputs._cross(np.roll(d, 1, axis=0), d)
                assert (turns < 0).any() == (item["kind"] == "star")
                assert not sec.reoriented


def test_small_polygons_never_self_intersect():
    # sorted random angles gave self-intersecting 4- and 5-gons; jittered
    # equispaced angles keep every gap below pi
    for seed in range(300):
        rng = inputs.rng_for(seed, "fuzz")
        for n in (3, 4, 5):
            section_from_json(inputs.convex_polygon(rng, n))
        section_from_json(inputs.star_polygon(rng, 5))


def test_crossing_check_is_independent_and_strict():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    touching = np.array([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2], [1, 0]],
                        dtype=float)
    assert not inputs.has_crossing_edges(square)
    assert inputs.has_crossing_edges(bowtie)
    assert inputs.has_crossing_edges(touching)
    with pytest.raises(GeometryError):
        Polygon(bowtie)


def test_oracle_closed_forms():
    sq = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    m = oracle.fan_moments(sq)
    assert m["area"] == pytest.approx(4.0)
    assert (m["M0"], m["M1"], m["M2"]) == pytest.approx((4 / 3, 0.0, 4 / 3))
    assert oracle.e_constant((0, 0, 1), m) == pytest.approx(1 / math.sqrt(6))
    disc = oracle.disc_moments((0.0, 0.0), 1.0)
    assert oracle.e_constant((0, 0, 1), disc) == pytest.approx(1 / (2 * math.sqrt(2)))
    assert oracle.robin_polygon_bound(sq, (0.0, 0.0)) == pytest.approx(-2.0)
    assert oracle.robin_wedge(math.pi / 2) == pytest.approx(-2.0)
    eps = 0.3
    omega = 4.0 * math.asin(eps * eps / (1.0 + eps * eps))
    assert oracle.cone_solid_angle(sq, eps) == pytest.approx(omega)
    assert oracle.rim_openings(sq, eps) == pytest.approx(
        [math.acos(eps / math.sqrt(1 + eps * eps))] * 4)


def test_oracle_flags_wrong_outputs():
    assert oracle.check_ladder(1.0, [(1, 3.0), (2, 7.0)], 1.0) == []
    assert oracle.check_ladder(1.0 + 1e-9, [(1, 3.0 + 3e-9)], 1.0)
    assert oracle.check_ladder(1.0, [(2, 7.0 + 1e-10)], 1.0)
    rows = [{"eps": 0.3, "e": 0.3 * 2.0, "bound1": 0.9 * 2.0}]
    assert oracle.check_sweep(rows, 2.0) == []
    rows[0]["e"] *= 1 + 1e-11
    assert oracle.check_sweep(rows, 2.0)
    assert oracle.check_robin(-0.99, -0.99)
    assert workloads._expect_theta0({"theta0": 0.5902}, {}) == ["theta0"]
    est = type("Est", (), {"lower": 0.45, "upper": 0.9})
    assert oracle.check_ess([(0.4, est)], (0.4,), (0, 0, 1), 0.5)


def test_only_the_known_rim_defect_is_counted_not_failed():
    # the centroid (0, 5/6) of this dart lies outside the lines of edges 1, 2
    dart = [[0, 2], [-1, -1], [0, 1.5], [1, -1]]
    eps = 0.3
    assert list(oracle.rim_flipped(dart)) == [False, True, True, False]
    rep = models.truncated_domain_edges(section_from_json({"polygon": dart}), eps)
    assert oracle.check_edges(dart, eps, rep.lateral, rep.top, rep.beta0) == ([], 2)
    rim = oracle.rim_openings(dart, eps)

    def problems(i, value):
        top = [(j, value if j == i else op) for j, op in rep.top]
        out, _ = oracle.check_edges(dart, eps, rep.lateral, top, rep.beta0)
        return [p for p in out if p.startswith(f"rim edge {i} ")]

    assert problems(1, math.pi - rim[1]) == []          # the known defect
    assert problems(1, rim[1]) == []                     # the right value
    assert problems(1, rim[1] + 0.1)                     # neither
    assert problems(1, float("nan"))
    assert problems(0, math.pi - rim[0])                 # centroid inside
    assert problems(0, rim[0] + 0.1)


def test_oracle_agrees_with_library_on_generated_sections():
    for item in workloads.generate("sections-small", 3)["items"][:60]:
        op = workloads._small_op(item)
        checked = op.check(op.run())
        assert checked.problems == []


def test_entry_point_knows_every_workload():
    assert run.WORKLOADS == workloads.WORKLOADS


def test_tail_rule():
    xs = [float(i) for i in range(1, 31)]
    assert run.tail(xs) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(xs[:15]) == (8.0, 50.0)
    # one block's burst of slow ops does not move the blocked tail
    block = [1.0] * 40 + [2.0] * 20
    burst = block + block[:30] + [50.0] * 15 + block[45:] + block
    assert run.TAIL_BLOCKS == 3
    assert run.tail(burst)[0] == 50.0
    assert run.blocked_tail(burst) == (2.0, pytest.approx(100 * 50 / 60), 3)
    assert run.blocked_tail(xs) == (20.0, pytest.approx(100 * 20 / 30), 1)


def test_smoke_mode_checks_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sections-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
