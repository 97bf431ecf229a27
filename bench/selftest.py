"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A tiny pass of every workload, untraced and traced, reports no failed
   operation, and the traced pass yields every per-layer metric that
   BENCHMARK.json lists.
2. A corrupted reference value makes operations fail (failed_ratio > 0).
3. The steadiness check of steady.py accepts two agreeing sets of runs and
   rejects a wide spread and a worse second median.
4. run.py exits non-zero without printing a result in a directory that
   holds only BENCHMARK.json and the benchmark's own files.

Takes about half a minute; it is not part of the repository's test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from gcollatz.cli import main as cli_main  # noqa: E402
from steady import assess  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Client, load_expected, nproc  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_RUN = {"family.registry_s", "trace.overhead_frac"}  # measured once per run in run.py


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"SELFTEST FAILED: {message}")


def tiny_passes(work: Path) -> None:
    for name, cls in WORKLOADS.items():
        client = Client(cli_main)
        facts = cls(7, "tiny", work).run_pass(client)
        check(client.attempted > 0 and client.failed == 0,
              f"tiny {name} pass: {client.failed} of {client.attempted} failed {client.failures}")
        check(facts["seeds"] > 0, f"tiny {name} pass resolved no seeds")
    print("PASS tiny untraced pass of every workload, failed_ratio 0")


def corrupted_reference(work: Path) -> None:
    expected = copy.deepcopy(load_expected())
    expected["tiny"]["descent"]["verified"] += 1
    expected["tiny"]["explore_cycles"]["cycles"][0]["omega"] += 1
    for name in ("descent", "explore"):
        client = Client(cli_main)
        WORKLOADS[name](7, "tiny", work, expected).run_pass(client)
        check(client.failed > 0, f"{name}: a corrupted reference value did not raise failed_ratio")
    print("PASS corrupted reference values raise failed_ratio")


def traced_passes(work: Path) -> None:
    tracer = Tracer()
    tracer.install()
    want = {m["name"] for m in SPEC["per_layer"]} - PER_RUN
    for name, cls in WORKLOADS.items():
        client = Client(cli_main, tracer)
        tracer.reset()
        before = client.report_bytes
        facts = cls(7, "tiny", work).run_pass(client)
        check(client.failed == 0, f"traced tiny {name} pass failed: {client.failures}")
        spans, stats = tracer.reset()
        metrics, _ = layer_metrics(spans, stats, facts, client.report_bytes - before, nproc())
        check(set(metrics) == want, f"{name}: layer metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ want)}")
        check(metrics["dynamics.self_s"] > 0 and metrics["cli.self_s"] > 0,
              f"{name}: no dynamics or cli time recorded")
    print("PASS tiny traced pass of every workload yields every per-layer metric")


def steadiness_check() -> None:
    e2e = SPEC["end_to_end"]
    steady = {"w": {m["name"]: [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0] for m in e2e}}
    check(all(r["ok"] for r in assess([steady, steady], e2e)), "two agreeing sets were rejected")
    wide = copy.deepcopy(steady)
    wide["w"]["wall_s"] = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    check(not all(r["ok"] for r in assess([steady, wide], e2e)), "a wide spread was accepted")
    slower = copy.deepcopy(steady)
    slower["w"]["wall_s"] = [2 * v for v in steady["w"]["wall_s"]]
    check(not all(r["ok"] for r in assess([steady, slower], e2e)), "a doubled median was accepted")
    print("PASS steadiness check accepts agreeing sets and rejects spread and drift")


def bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(SPEC["command"] + ["--workload", "descent", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0, "run.py exited 0 without the program's source")
    check("{" not in proc.stdout, "run.py printed a result without the program's source")
    print("PASS run.py refuses to run without the program's source")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        tmp = Path(tmp)
        tiny_passes(tmp)
        corrupted_reference(tmp)
        steadiness_check()
        bare_directory(tmp)
        traced_passes(tmp)  # last: the tracer stays installed in this process
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
