"""Record the reference content the benchmark checks reports against.

    python3 bench/record_expected.py

Runs the fixed-range commands of every workload at both sizes through the
CLI and writes their report fields to bench/expected.json.  Record only
from a commit whose reports are known to be right: the benchmark counts any
later difference in these fields as a failed operation.  Graph reports and
identity reports are not recorded; they are checked against an independent
reference and against their invariants.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gcollatz.cli import main as cli_main  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_PATH, IGNORED_FIELDS, SIZES, SWEEP_PAIRS, cycles_argv, descent_argv, sweep_argv,
    table_argv, trapped_argv,
)


def report(argv, expect_rc=0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    if rc != expect_rc:
        raise SystemExit(f"{argv}: exit status {rc}, expected {expect_rc}")
    return out.getvalue()


def fields(argv, expect_rc=0) -> dict:
    doc = json.loads(report(argv, expect_rc))
    return {k: v for k, v in doc.items() if k not in IGNORED_FIELDS}


def record(size: dict) -> dict:
    return {
        "descent": fields(descent_argv(size["descent_n"])),
        "sweep": {f"{p},{q}": fields(sweep_argv(p, q, size["sweep_n"])) for p, q in SWEEP_PAIRS},
        "table": list(csv.DictReader(io.StringIO(report(table_argv(size["table_n"], 1))))),
        "explore_verify": fields(trapped_argv(size["explore_verify_n"]), expect_rc=1),
        "explore_cycles": fields(cycles_argv(size["explore_cycles_n"])),
    }


if __name__ == "__main__":
    expected = {name: record(size) for name, size in SIZES.items()}
    EXPECTED_PATH.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
