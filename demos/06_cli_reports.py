"""Driving the command-line front end programmatically.

Every subcommand prints a single JSON report with the echoed
configuration, the result payload with provenance tags, collected
accuracy warnings, the library version, and wall time. Sweeps can export
two-column CSV for external plotting. This script invokes the CLI
in-process (the installed `conebounds` entry point routes to the same
function) and shows the artifacts it produces, in a temporary directory
that is removed at the end.
"""

import json
import pathlib
import tempfile

from conebounds.cli import run

with tempfile.TemporaryDirectory(prefix="conebounds-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    disc_file = workdir / "disc.json"
    disc_file.write_text(json.dumps({"disc": {"center": [0, 0], "radius": 1}}))

    # --- a bound report ------------------------------------------------------

    print("$ conebounds bound --section disc.json --field 0,0,1 --n 2\n")
    code = run(["bound", "--section", str(disc_file), "--field", "0,0,1",
                "--n", "2"])
    print(f"\n(exit code {code})")

    # --- a sweep with CSV export ---------------------------------------------

    csv_file = workdir / "sweep.csv"
    print("\n$ conebounds sweep bound --section disc.json --field 0,0,1 "
          "--eps 1,0.5,0.25,0.1 --csv sweep.csv")
    code = run(["sweep", "bound", "--section", str(disc_file),
                "--field", "0,0,1", "--eps", "1,0.5,0.25,0.1",
                "--csv", str(csv_file)])
    print(f"\n(exit code {code}; CSV written to {csv_file})")
    print(csv_file.read_text())

    # --- error reporting -----------------------------------------------------

    bad_file = workdir / "flat.json"
    bad_file.write_text(json.dumps({"polygon": [[0, 0], [1, 0], [2, 0]]}))
    print("$ conebounds moments --section flat.json   # degenerate section\n")
    code = run(["moments", "--section", str(bad_file)])
    print(f"\n(exit code {code}: domain errors exit 3, parse errors 2, "
          f"accuracy failures 4)")
