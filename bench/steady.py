"""Check that the benchmark is steady enough for its own bounds.

    python3 bench/steady.py [--runs 10] [--sets 2] [--workloads descent,sweep] [--seconds S]

Runs bench/run.py --trace 0 ``runs`` times per workload, each run with its
own seed, and repeats that ``sets`` times (runs of different workloads are
interleaved).  For every end-to-end metric it reports the spread of each set
(the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) and, with
two sets, how far the second median is worse than the first.  A spread must
stay within the metric's bound (setup_s is exempt) and the second median may
not be worse than the first by more than the bound.  The aim is a spread
below a third of the bound.  Results go to .bench_work/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def assess(sets: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Judge sets of runs, each {workload: {metric: [values]}}, against the bounds.

    Returns one row per (workload, metric) with the spread of every set, the
    drift of the last set's median against the first one's in the worse
    direction, and whether both are within the bound.
    """
    rows = []
    for workload in sets[0]:
        for m in end_to_end:
            name, bound = m["name"], m["bound"]
            per_set = [s[workload][name] for s in sets]
            spreads = [spread(v) for v in per_set]
            first, last = statistics.median(per_set[0]), statistics.median(per_set[-1])
            change = (last - first) / first
            worse = change if m["better"] == "lower" else -change
            spread_ok = name == "setup_s" or all(s <= bound for s in spreads)
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "spreads": spreads, "worse_by": worse,
                "ok": spread_ok and worse <= bound,
                "steady": name == "setup_s" or all(s < bound / 3 for s in spreads),
            })
    return rows


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    sets = []
    for k in range(args.sets):
        values = {w: {} for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = 1000 * k + i + 1
                t0 = time.perf_counter()
                for name, value in run_once(w, seed, args.seconds).items():
                    values[w].setdefault(name, []).append(value)
                print(f"set {k} run {i} {w} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr)
        sets.append(values)

    rows = assess(sets, spec["end_to_end"])
    for r in rows:
        flags = ("ok" if r["ok"] else "OUT OF BOUND") + ("" if r["steady"] else " (spread >= bound/3)")
        print(f"{r['workload']:8s} {r['metric']:12s} bound {r['bound']:.2f}  spreads "
              + " ".join(f"{s:.3f}" for s in r["spreads"])
              + f"  worse_by {r['worse_by']:+.3f}  {flags}")
    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"sets": sets, "rows": rows}, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
