"""The four benchmark workloads: descent, sweep, table and explore.

Each workload is one closed-loop client.  A pass issues its CLI commands one
after another through ``gcollatz.cli.main(argv)`` in-process, captures the
report from stdout and checks it against reference content before the next
command starts.  Reference content for the fixed ranges lives in
``expected.json`` (recorded by ``record_expected.py``); graph reports are
checked against an independent closed-form preimage implementation, because
their roots come from the seed.

Checks compare report fields, never raw bytes, so an added or renamed schema
tag does not count as a failure while any changed number does.  Byte
identity across worker counts and resume is checked within a pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import resource
import time
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Sizes of one pass.  "full" is what the benchmark runs; "tiny" is for the
# self-test.  Everything the reference checks depend on is listed here.
SIZES = {
    "full": {
        "descent_n": 1_000_000,
        "sweep_n": 10_000,
        "table_n": 100_000,
        "explore_verify_n": 100_000,
        "explore_cycles_n": 20_000,
        "identity_trials": 2_000,
        "graph_big_p": 18,
        "graph_big_nodes": 9,
        "graph_small_min_nodes": 40_000,
    },
    "tiny": {
        "descent_n": 20_000,
        "sweep_n": 300,
        "table_n": 2_000,
        "explore_verify_n": 3_000,
        "explore_cycles_n": 1_000,
        "identity_trials": 50,
        "graph_big_p": 8,
        "graph_big_nodes": 9,
        "graph_small_min_nodes": 300,
    },
}

MOD10 = ["--d", "10", "--alpha", "12", "--beta", "8"]        # (10,12,8)+ = (p,q) = (3,1)
TRAPPED = ["--d", "12", "--alpha", "14", "--beta", "10"]     # (12,14,10)+, unlisted 1305 cycle
SWEEP_PAIRS = [(p, q) for p in range(9) for q in range(p + 1)]
TABLE_P_MAX = 4
# theorem -> triplet it is sampled on (each satisfies that theorem's precondition)
IDENTITY_RUNS = [
    ("31", MOD10),
    ("32", ["--d", "2", "--alpha", "3", "--beta", "1"]),
    ("33", ["--d", "3", "--alpha", "4", "--beta", "-1"]),
]


def descent_argv(n: int) -> list[str]:
    return ["verify", *MOD10, "--to", str(n)]


def sweep_argv(p: int, q: int, n: int) -> list[str]:
    return ["verify", "--p", str(p), "--q", str(q), "--to", str(n), "--mode", "attractor",
            "--budget", "1e6"]


def table_argv(n: int, workers: int) -> list[str]:
    return ["table", "--p-max", str(TABLE_P_MAX), "--n-max", str(n), "--workers", str(workers)]


def trapped_argv(n: int) -> list[str]:
    return ["verify", *TRAPPED, "--to", str(n), "--mode", "attractor", "--minima", "4,5",
            "--budget", "1e4"]


def cycles_argv(n: int) -> list[str]:
    return ["cycles", *TRAPPED, "--to", str(n)]


# report fields that carry no result: a schema bump may change them freely
IGNORED_FIELDS = {"schema", "artifact_version", "wall_time"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def maxrss_mb(who: int) -> float:
    """High-water resident set of this process (RUSAGE_SELF) or of its largest
    reaped child (RUSAGE_CHILDREN)."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class CheckFailed(Exception):
    """An operation's exit status or report content differs from the reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def compare_fields(got: dict, want: dict, where: str) -> None:
    """Every field of the reference must be present in the report with the same value."""
    for key, value in want.items():
        if key in IGNORED_FIELDS:
            continue
        _require(key in got, f"{where}: report lacks field {key!r}")
        _require(got[key] == value, f"{where}: {key} = {got[key]!r}, expected {value!r}")


# ---------------------------------------------------------------------------
# independent reference for inverse graphs of the q = 0 family members
# ---------------------------------------------------------------------------
# make_pq(p, 0) is (d, d+1, d-1)+ with d = 2^p + 1, so T(d*a + r) = (d+1)*a + 2*r
# for 1 <= r < d and T(d*a) = a.  This closed form is derived here, not taken
# from the program, so a graph that agrees with it is checked independently.

def ref_step(d: int, m: int) -> int:
    a, r = divmod(m, d)
    return a if r == 0 else (d + 1) * a + 2 * r


def ref_preimages(d: int, n: int) -> set[int]:
    out = {d * n}
    lo = max(0, -(-(n - 2 * d + 2) // (d + 1)))
    for a in range(lo, (n - 2) // (d + 1) + 1):
        twice_r = n - (d + 1) * a
        if twice_r % 2 == 0 and 1 <= twice_r // 2 <= d - 1:
            out.add(d * a + twice_r // 2)
    return out


def ref_graph_levels(d: int, root: int, depth: int) -> list[set[int]]:
    levels = [{root}]
    seen = {root}
    for _ in range(depth):
        nxt = set()
        for n in levels[-1]:
            nxt |= ref_preimages(d, n) - seen
        seen |= nxt
        levels.append(nxt)
    return levels


def ref_graph(d: int, root: int, depth: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Sorted nodes and edges of the depth-bounded inverse graph (no node cap)."""
    nodes = set().union(*ref_graph_levels(d, root, depth))
    edges = sorted((m, n) for n in nodes for m in ref_preimages(d, n) if m in nodes)
    return sorted(nodes), edges


def parse_dot(text: str) -> tuple[list[int], list[tuple[int, int]]]:
    nodes, edges = [], []
    for line in text.splitlines()[1:-1]:
        body = line.strip().rstrip(";")
        if "->" in body:
            m, n = body.split("->")
            edges.append((int(m), int(n)))
        else:
            nodes.append(int(body))
    return nodes, edges


def pick_graph_inputs(seed: int, size: dict) -> dict:
    """Graph roots drawn from the seed, chosen so every seed does the same work.

    The large-d graph costs one O(d) preimages call per node, so its root is
    redrawn until the graph has exactly ``graph_big_nodes`` nodes.  The
    small-d graph takes the smallest depth that reaches
    ``graph_small_min_nodes`` nodes, and its root is redrawn until that
    depth gives at most 5% more.
    """
    rng = random.Random(seed)
    big_p = size["graph_big_p"]
    big_d = 2**big_p + 1
    while True:
        big_root = rng.randrange(2**big_p, 2 ** (big_p + 4))
        if sum(map(len, ref_graph_levels(big_d, big_root, 2))) == size["graph_big_nodes"]:
            break
    target = size["graph_small_min_nodes"]
    while True:
        small_root = rng.randrange(1, 1000)
        if small_root % 3 == 0:  # multiples of 3 have a single chain of preimages
            continue
        levels, seen = [{small_root}], {small_root}
        while len(seen) < target:
            levels.append(set().union(*(ref_preimages(2, n) for n in levels[-1])) - seen)
            seen |= levels[-1]
        if len(seen) <= 1.05 * target:
            break
    depth = len(levels) - 1
    return {
        "big": {"p": big_p, "root": big_root, "depth": 2},
        "small": {"p": 0, "root": small_root, "depth": depth},
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class Client:
    """Issues CLI commands in-process, one after another, and checks each one.

    A tracer, when given, is told where each command starts and ends, so
    that its spans can be attributed to commands.
    """

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report_bytes = 0
        self.op_seconds: dict[str, list[float]] = {}

    def run(self, label: str, argv: list[str], expect_rc: int, check=None) -> str | None:
        """Run one command; return its stdout, or None if it failed its checks."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.begin_op(label)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            rc = f"raised {type(exc).__name__}: {exc}"
        self.op_seconds.setdefault(label, []).append(time.perf_counter() - t0)
        if self.tracer:
            self.tracer.end_op()
        text = out.getvalue()
        self.report_bytes += len(text)  # reports are ASCII
        try:
            _require(rc == expect_rc, f"{label}: exit status {rc!r}, expected {expect_rc}")
            if check:
                check(text)
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            self.failures.append(str(exc) if isinstance(exc, CheckFailed) else f"{label}: {exc!r}")
            return None
        return text


def _json_check(want: dict, where: str):
    def check(text: str) -> None:
        compare_fields(json.loads(text), want, where)
    return check


class Workload:
    """One workload bound to a seed, a size and a scratch directory."""

    name = ""

    def __init__(self, seed: int, size: str, work: Path, expected: dict | None = None):
        self.seed = seed
        self.size = SIZES[size]
        self.work = work
        self.workers = nproc()
        self.expected = (expected or load_expected())[size]

    def run_pass(self, client: Client) -> dict:
        """Run every command of one pass; return per-pass facts (seeds, journal)."""
        raise NotImplementedError


class Descent(Workload):
    name = "descent"

    def run_pass(self, client):
        n = self.size["descent_n"]
        journal = self.work / "descent.ndjson"
        journal.unlink(missing_ok=True)
        base = descent_argv(n)
        check = _json_check(self.expected["descent"], "descent")
        serial = client.run("descent.serial", base + ["--checkpoint", str(journal)], 0, check)
        lines = journal.read_text().splitlines(keepends=True) if journal.exists() else []
        facts = {"journal_bytes": journal.stat().st_size if lines else 0,
                 "journal_records": len(lines)}

        def same_as_serial(label):
            def same(text):
                check(text)
                _require(serial is None or text == serial, f"{label} report differs from the serial one")
            return same

        client.run("descent.parallel", base + ["--workers", str(self.workers)], 0,
                   same_as_serial("descent.parallel"))
        blocks = [i for i, line in enumerate(lines) if '"type": "block"' in line]
        dropped = blocks[-2:]
        resumed_seeds = 0
        for i in dropped:
            rec = json.loads(lines[i])
            resumed_seeds += rec["block_end"] - rec["block_start"] + 1
        journal.write_text("".join(line for i, line in enumerate(lines) if i not in dropped))
        client.run("descent.resume", base + ["--checkpoint", str(journal)], 0,
                   same_as_serial("descent.resume"))
        facts["seeds"] = 2 * n + resumed_seeds
        facts["resumed_seeds"] = resumed_seeds
        return facts


class Sweep(Workload):
    name = "sweep"

    def run_pass(self, client):
        n = self.size["sweep_n"]
        facts = {"journal_bytes": 0, "journal_records": 0, "seeds": 0}
        for p, q in SWEEP_PAIRS:
            journal = self.work / f"sweep_{p}_{q}.ndjson"
            journal.unlink(missing_ok=True)
            argv = sweep_argv(p, q, n) + ["--checkpoint", str(journal)]
            want = self.expected["sweep"][f"{p},{q}"]
            client.run(f"sweep.{p}.{q}", argv, 0, _json_check(want, f"sweep ({p},{q})"))
            facts["journal_bytes"] += journal.stat().st_size
            facts["journal_records"] += len(journal.read_text().splitlines())
            facts["seeds"] += n
        return facts


class Table(Workload):
    name = "table"

    def run_pass(self, client):
        n = self.size["table_n"]
        want_rows = self.expected["table"]

        def check(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            _require(len(rows) == len(want_rows), f"table: {len(rows)} rows, expected {len(want_rows)}")
            for got, want in zip(rows, want_rows):
                compare_fields(got, want, f"table p={want['p']}")

        client.run("table", table_argv(n, self.workers), 0, check)
        columns = (TABLE_P_MAX + 1) * (TABLE_P_MAX + 2) // 2
        return {"seeds": columns * n}


class Explore(Workload):
    name = "explore"

    def __init__(self, seed, size, work, expected=None):
        super().__init__(seed, size, work, expected)
        self.graphs = pick_graph_inputs(seed, self.size)
        self.graph_refs = {}
        for key, g in self.graphs.items():
            d = 2 ** g["p"] + 1
            self.graph_refs[key] = (d, *ref_graph(d, g["root"], g["depth"]))

    def _graph_check(self, key):
        d, want_nodes, want_edges = self.graph_refs[key]

        def check(text):
            nodes, edges = parse_dot(text)
            _require(all(ref_step(d, m) == n for m, n in edges), f"graph {key}: edge with T(m) != n")
            _require(nodes == want_nodes, f"graph {key}: {len(nodes)} nodes, expected {len(want_nodes)}")
            _require(edges == want_edges, f"graph {key}: edges differ from the reference")
        return check

    def run_pass(self, client):
        size = self.size
        vn, cn = size["explore_verify_n"], size["explore_cycles_n"]
        client.run("explore.verify", trapped_argv(vn),
                   1, _json_check(self.expected["explore_verify"], "explore verify"))
        client.run("explore.cycles", cycles_argv(cn),
                   0, _json_check(self.expected["explore_cycles"], "explore cycles"))
        trials = size["identity_trials"]
        for k, (theorem, triplet) in enumerate(IDENTITY_RUNS):
            seed = self.seed * 3 + k
            want = {"theorem": theorem, "seed": seed, "trials": trials, "mismatches": [], "pass": True}
            client.run(f"explore.identities{theorem}",
                       ["identities", "--theorem", theorem, *triplet, "--trials", str(trials),
                        "--seed", str(seed)],
                       0, _json_check(want, f"identities {theorem}"))
        graph_nodes = export_bytes = 0
        for key, g in self.graphs.items():
            dot = client.run(f"explore.graph_{key}",
                             ["graph", "--p", str(g["p"]), "--q", "0", "--root", str(g["root"]),
                              "--depth", str(g["depth"])],
                             0, self._graph_check(key))
            graph_nodes += len(self.graph_refs[key][1])
            export_bytes += len(dot) if dot else 0
        return {"seeds": vn + cn, "graph_nodes": graph_nodes, "export_bytes": export_bytes}


WORKLOADS = {w.name: w for w in (Descent, Sweep, Table, Explore)}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
