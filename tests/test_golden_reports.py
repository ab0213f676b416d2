"""Golden CLI reports: the README command-line examples, byte for byte.

Each case runs one README example through ``cli.run`` in a directory that
holds the README's ``disc.json`` (unit disc about the origin) and
``square.json`` (``[-1, 1]^2``), and compares its stdout, with the
``timing`` entry cut out, to ``tests/golden/<name>.json``.  ``sweep bound``
also compares the CSV it writes.  The ``error_*`` cases pin error reports
the same way, with their exit codes; an error report has no ``timing``
entry.  A change that is meant to keep every report identical is checked
by this file alone.

Left out are the commands whose numbers come from LAPACK eigensolvers
(``ess``, ``model theta0``, ``model sigma``, ``sweep sigma``,
``spectrum1d --method fd``): their last bits vary between numpy builds.

To regenerate the files after a change that is meant to alter a report,
run ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from conebounds.cli import run

GOLDEN = Path(__file__).parent / "golden"

SECTIONS = {
    "disc.json": {"disc": {"center": [0.0, 0.0], "radius": 1.0}},
    "square.json": {"polygon": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                [-1.0, 1.0]]},
}

CASES = {
    "moments": "moments --section disc.json",
    "gauge": "gauge --section square.json",
    "bound": "bound --section disc.json --field 0,0,1 --n 3",
    "spectrum1d_exact": "spectrum1d --lam 1",
    "concentrate": ("concentrate --section disc.json --field 0,0,1 "
                    "--cfloor 1 --eps 0.2"),
    "edges": "edges --section square.json --eps 0.3",
    "robin_wedge": "robin wedge --alpha 1.5708",
    "robin_cone": "robin cone --section square.json",
    "robin_scaling": "robin scaling --section disc.json --eps 1,0.5,0.25,0.1",
    "sweep_bound": ("sweep bound --section disc.json --field 0,0,1 "
                    "--eps 1,0.5,0.1 --csv out.csv"),
    "error_sweep_bound_eps": ("sweep bound --section disc.json --field 0,0,1 "
                              "--eps 0"),
    "error_edges_eps": "edges --section square.json --eps -1",
    "error_concentrate_cfloor": ("concentrate --section disc.json "
                                 "--field 0,0,1 --cfloor 2 --eps 0.2"),
    "error_robin_cone_nan_axis": "robin cone --section disc.json --axis=nan,0",
}

#: Exit codes of the error cases; every other case exits 0.
EXIT_CODES = {"error_sweep_bound_eps": 3, "error_edges_eps": 3,
              "error_concentrate_cfloor": 2, "error_robin_cone_nan_axis": 3}

#: The last entry of every report: its wall time, which varies by run.
_TIMING = re.compile(r',\n  "timing": \{\n    "wallTimeS": [^\n]*\n  \}(?=\n\}\n$)')


def run_case(args: str, workdir: Path) -> tuple[int, str, str | None]:
    """Exit code, stdout without the timing entry, and the CSV written
    (``None`` if none), of one command run in ``workdir``."""
    for name, doc in SECTIONS.items():
        (workdir / name).write_text(json.dumps(doc))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = run(args.split())
    finally:
        os.chdir(cwd)
    text, n = _TIMING.subn("", out.getvalue())
    assert n == (code == 0), "only a success report ends in a timing entry"
    csv = workdir / "out.csv"
    return code, text, csv.read_text() if csv.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, text, csv = run_case(CASES[name], tmp_path)
    assert code == EXIT_CODES.get(name, 0)
    assert text == (GOLDEN / f"{name}.json").read_text()
    csv_golden = GOLDEN / f"{name}.csv"
    if csv_golden.exists():
        assert csv == csv_golden.read_text()
    else:
        assert csv is None


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, text, csv = run_case(args, Path(tmp))
        if code != EXIT_CODES.get(name, 0):
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.json").write_text(text)
        if csv is not None:
            (GOLDEN / f"{name}.csv").write_text(csv)


if __name__ == "__main__":
    regenerate()
