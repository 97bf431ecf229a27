"""Benchmark of the gcollatz command line: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload {descent,sweep,table,explore} --seed N --seconds S --trace {0,1}

One client issues the workload's CLI commands in-process, one after another
(a closed loop), and checks every report.  After a warm-up pass it repeats
whole passes while another fits into S seconds and reports medians over them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times in
reference seconds (see end_to_end).  --trace 1 runs
half the time untraced and half with the per-layer tracer installed, and
reports the per-layer metrics, including the tracer's own overhead.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit and
sample count.

CPU time and memory come from getrusage for this process and its reaped
children.  Nothing is traced machine-wide, no cache is dropped and no
cgroup is touched, so other load on the machine shows up as noise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, dump, layer_metrics
from workloads import WORKLOADS, Client, cpu_seconds, maxrss_mb, nproc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_STARTS = 2  # cold CLI starts, each with a calibration slice, after each measured pass
SETUP_CODE = "import gcollatz.cli, gcollatz.family; gcollatz.family.exceptional_registry()"
# Time of one calibration slice at the reference speed.  This defines the
# "reference second" of the end-to-end times; it is about the slice's time on
# the machine where the benchmark was set up, when that machine is unloaded.
CALIBRATION_NOMINAL_S = 0.2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_passes(workload, client, seconds, tracer=None, between=None):
    """Repeat whole passes while another one fits into ``seconds``; at least one.

    ``between`` is called after every pass, outside the pass's timing.
    """
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["wall"] for p in passes) <= seconds):
        bytes0 = client.report_bytes
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            facts = workload.run_pass(client)
        except Exception as exc:  # the program left something the pass could not read
            client.attempted += 1
            client.failed += 1
            client.failures.append(f"{workload.name} pass: {exc!r}")
            facts = {}
        rec = {"wall": time.perf_counter() - t0, "cpu": cpu_seconds() - cpu0,
               "seeds": facts.get("seeds", 0)}
        if tracer:
            rec["spans"], stats = tracer.reset()
            rec["layers"], rec["detail"] = layer_metrics(
                rec["spans"], stats, facts, client.report_bytes - bytes0, nproc())
        passes.append(rec)
        if between:
            between()
    return passes


def cold_start(env) -> tuple[float, int]:
    """Wall time and exit status of one cold CLI start: interpreter, import
    gcollatz.cli, registry fill."""
    t0 = time.perf_counter()
    # no timeout: Popen.wait polls in steps of up to 50 ms when given one
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        returncode = proc.wait()
    return time.perf_counter() - t0, returncode


def calibration_slice() -> float:
    """Wall time of a fixed pure-Python loop that shares nothing with gcollatz:
    classical Collatz orbits of 1..20000 down to {1, 2}."""
    t0 = time.perf_counter()
    stop = frozenset((1, 2))
    for n in range(1, 20_000):
        v = n
        while v not in stop:
            v = (3 * v + 1) // 2 if v % 2 else v // 2
    return time.perf_counter() - t0


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


def end_to_end(workload, client, seconds):
    """Untraced passes, with cold CLI starts and calibration slices between them.

    The host's speed drifts by up to half over minutes, for every workload
    alike.  Times are therefore reported in reference seconds: measured
    seconds times CALIBRATION_NOMINAL_S over the median calibration slice of
    the same run.  The slices are spread over the run like the passes, so
    they meet the same machine conditions.  Measured values are printed too.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    setup, slices, worker_rss = [], [], []

    def between():
        # The largest pool worker is read before the first cold start, which
        # would otherwise count as the largest child.
        if not worker_rss:
            worker_rss.append(maxrss_mb(resource.RUSAGE_CHILDREN))
        for _ in range(SETUP_STARTS):
            wall, returncode = cold_start(env)
            setup.append(wall)
            client.attempted += 1
            if returncode:
                client.failed += 1
                client.failures.append(f"cold CLI start exited {returncode}")
            slices.append(calibration_slice())

    passes = run_passes(workload, client, seconds, between=between)
    scale = CALIBRATION_NOMINAL_S / statistics.median(slices)
    for name, values in (("wall_s", [p["wall"] for p in passes]),
                         ("cpu_s", [p["cpu"] for p in passes]), ("setup_s", setup)):
        med, q1, q3, n = summary(values)
        print(f"{name + ' measured':42s} {med:.6g} s  (median of {n}, IQR {q1:.6g}..{q3:.6g})")
    med, q1, q3, n = summary(slices)
    print(f"{'calibration slice':42s} {med:.6g} s  (median of {n}, IQR {q1:.6g}..{q3:.6g}; "
          f"reference {CALIBRATION_NOMINAL_S} s, scale {scale:.6g})")
    values = {
        "wall_s": [p["wall"] * scale for p in passes],
        "seeds_per_s": [p["seeds"] / (p["wall"] * scale) for p in passes],
        "cpu_s": [p["cpu"] * scale for p in passes],
        "peak_rss_mb": [maxrss_mb(resource.RUSAGE_SELF) + worker_rss[0]],
        "setup_s": [t * scale for t in setup],
    }
    serial, parallel = client.op_seconds.get("descent.serial"), client.op_seconds.get("descent.parallel")
    if serial and parallel:
        med, q1, q3, n = summary([s / (nproc() * p) for s, p in zip(serial, parallel)])
        print(f"{'scaling_eff':42s} {med:.6g}  (serial wall / ({nproc()} x parallel wall); "
              f"median of {n} passes, IQR {q1:.6g}..{q3:.6g})")
    return values


def per_layer(workload, client, seconds, registry_s, spans_path):
    """Untraced passes for half the time, then traced passes for the other half."""
    plain = run_passes(workload, client, seconds / 2)
    tracer = Tracer()
    tracer.install()
    client.tracer = tracer
    traced = run_passes(workload, client, seconds / 2, tracer)
    dump(spans_path, [p["spans"] for p in traced])
    for name in sorted({k for p in traced for k in p["detail"]}):
        med, q1, q3, n = summary([p["detail"][name] for p in traced if name in p["detail"]])
        print(f"{name:42s} {med:.6g}  (detail; median of {n} traced passes, IQR {q1:.6g}..{q3:.6g})")
    values = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
    values["family.registry_s"] = [registry_s]
    overhead = statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in plain)
    values["trace.overhead_frac"] = [overhead - 1]
    return values


def main(argv=None) -> int:
    if not (SRC / "gcollatz" / "cli.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/gcollatz; "
              "run from a full checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("GCOLLATZ_WORKERS", None)  # worker counts come from the argv only
    sys.path.insert(0, str(SRC))
    import gcollatz.cli
    import gcollatz.family
    if not Path(gcollatz.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gcollatz from {gcollatz.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    gcollatz.family.exceptional_registry()
    registry_s = time.perf_counter() - t0

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={nproc()} python={sys.version.split()[0]}")
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, "full", work)
        client = Client(gcollatz.cli.main)
        # warm-up at the self-test size: first pool start, lazy imports, file cache
        run_passes(WORKLOADS[args.workload](args.seed, "tiny", work), client, 0.0)
        client.op_seconds.clear()
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer(workload, client, args.seconds, registry_s,
                               WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            declared = spec["end_to_end"]
            values = end_to_end(workload, client, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted({m['name'] for m in declared} ^ set(values))}")
    metrics = {}
    for m in declared:
        med, q1, q3, n = summary(values[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"{m['name']:42s} {med:.6g} {m['unit']}  (median of {n}, IQR {q1:.6g}..{q3:.6g})")
    print(f"{'failed_ratio':42s} {client.failed / client.attempted:.6g}  "
          f"({client.failed} of {client.attempted} operations)")
    for message in client.failures[:20]:
        print(f"# FAILED: {message}")
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
