"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of the six gcollatz modules
(core, family, dynamics, identities, invgraph, cli) with timing wrappers,
in every module namespace that binds them, so a call is seen wherever it is
looked up.  Nothing under ``src/`` changes.

* Scan-level calls, ``main``, the ``cmd_*`` handlers, report serialisers and
  the registry fill become spans: name, start, end, parent span, the command
  that caused them, and for scan-level calls the CPU they used (this process
  plus reaped workers).
* Per-item calls (``core.step``, ``core.iterate``, ``invgraph.preimages`` and
  the other small helpers) are aggregated as count and time only.
  ``core.step`` runs millions of times per pass, so it is counted, not timed.

Spans stay in memory; ``dump`` writes them out when the benchmark ends.
Self time is a call's duration minus the time of the wrapped calls inside
it.  Work in pool worker processes is not traced: the scan kernels run there
and inline the map.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

from workloads import cpu_seconds

LAYERS = ("core", "family", "dynamics", "identities", "invgraph", "cli")
SCANS = {"verify_range", "max_stopping_scan", "find_cycles_in_range", "check_identity",
         "build_inverse_graph"}
SERIALISERS = {"to_dict", "json", "export_dot", "export_json", "_dump", "_emit"}
SPANS = SCANS | SERIALISERS | {"main", "exceptional_registry"}
COUNT_ONLY = {"step"}
# classes whose report methods are serialisers
REPORT_CLASSES = {"dynamics": ("ScanReport", "MaxStoppingScan"), "identities": ("IdentityReport",)}
LARGE_D = 2**10  # preimages costs O(d); calls on d above this are "large d"


def _scan_attrs(name, args, kwargs) -> dict:
    """The arguments of a scan-level call that the layer metrics need."""
    if name == "verify_range":
        return {"seeds": args[2] - args[1] + 1, "workers": kwargs.get("workers", 1)}
    if name == "max_stopping_scan":
        return {"p": args[0], "seeds": (args[0] + 1) * args[1], "workers": kwargs.get("workers", 1)}
    if name == "find_cycles_in_range":
        return {"seeds": args[1]}
    if name == "check_identity":
        return {"theorem": args[0], "trials": kwargs.get("trials")}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, work]
        self.op = None
        self._stack: list[list] = []      # per active call: [child_s, innermost span index]

    # -- commands ---------------------------------------------------------
    def begin_op(self, label: str) -> None:
        self.op = label

    def end_op(self) -> None:
        self.op = None

    def reset(self) -> tuple[list[dict], dict]:
        """Hand over the spans and counters gathered so far and start afresh."""
        spans, self.spans = self.spans, []
        stats = {}
        for key, stat in self.stats.items():
            stats[key] = list(stat)
            stat[:] = [0, 0.0, 0.0, 0]  # wrappers hold these lists, so zero in place
        return spans, stats

    # -- wrapping -------------------------------------------------------------
    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _counter(self, key, fn):
        stat = self._stat(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _timer(self, layer, name, fn):
        tracer = self
        stack = self._stack
        span = name in SPANS or name.startswith("cmd_")
        scan = name in SCANS
        base_key = f"{layer}.{name}"

        if name == "preimages":
            by_size = {True: self._stat(base_key + ".large_d"), False: self._stat(base_key + ".small_d")}
        else:
            base_stat = self._stat(base_key)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stat = by_size[args[0].d > LARGE_D] if name == "preimages" else base_stat
            parent = stack[-1][1] if stack else None
            index = None
            if span:
                index = len(tracer.spans)
                tracer.spans.append({"name": base_key, "op": tracer.op, "parent": parent})
            frame = [0.0, parent if index is None else index]
            stack.append(frame)
            cpu0 = cpu_seconds() if scan else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if name == "iterate":
                    stat[3] += args[2]
                if span:
                    rec = tracer.spans[index]
                    rec.update(start=t0, end=t1, self=dt - frame[0])
                    if scan:
                        rec["cpu"] = cpu_seconds() - cpu0
                        rec.update(_scan_attrs(name, args, kwargs))
        return timed

    def install(self) -> None:
        """Wrap every public function (and the CLI's writers) of the six layers."""
        modules = {layer: importlib.import_module(f"gcollatz.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or inspect.isclass(obj):
                    continue
                if not callable(obj) or (name.startswith("_") and name not in SERIALISERS):
                    continue
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = (obj, self._counter(f"{layer}.{name}", obj))
                else:
                    wrapped[id(obj)] = (obj, self._timer(layer, name, obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)][1])
        for layer, classes in REPORT_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[layer], cls_name)
                for name in ("to_dict", "json"):
                    if name in vars(cls):
                        setattr(cls, name, self._timer(layer, name, vars(cls)[name]))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _median_p75(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def layer_metrics(spans, stats, facts, report_bytes, nproc) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the time-valued details.

    The first dict holds the metrics listed in BENCHMARK.json, except the
    two measured once per run (family.registry_s, trace.overhead_frac); each
    is measured on every workload and reads 0 where the workload does not
    use that layer.  The second holds the time-valued forms of the same
    numbers (named like ``dynamics.table_p0_s``), only for the workloads
    that exercise them; they are printed, not gated.
    """
    def stat(key, i):
        return stats.get(key, [0, 0.0, 0.0, 0])[i]

    def layer_self(layer):
        return sum(s[2] for k, s in stats.items() if k.startswith(layer + "."))

    def dur(span):
        return span["end"] - span["start"]

    def scans(name, op=None):
        return [s for s in spans if s["name"] == name and (op is None or s["op"] == op)]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    metrics, detail = {}, {}
    metrics["core.step_calls"] = stat("core.step", 0)
    metrics["core.iterate_steps_per_s"] = rate(stat("core.iterate", 3), stat("core.iterate", 1))
    metrics["dynamics.self_s"] = layer_self("dynamics")

    scan_spans = [s for s in spans if s["name"] in
                  ("dynamics.verify_range", "dynamics.max_stopping_scan", "dynamics.find_cycles_in_range")]
    p50, p75 = _median_p75([dur(s) for s in scan_spans]) if scan_spans else (0.0, 0.0)
    metrics["dynamics.scan_s_p50"], metrics["dynamics.scan_s_p75"] = p50, p75
    if scan_spans and all(s["op"].startswith("sweep.") for s in scan_spans):
        detail["dynamics.map_s_p50"], detail["dynamics.map_s_p75"] = p50, p75
        detail["dynamics.map_samples"] = len(scan_spans)

    def one_scan(op):
        found = scans("dynamics.verify_range", op)
        return found[0] if found else None

    serial, parallel, resume = (one_scan(f"descent.{k}") for k in ("serial", "parallel", "resume"))
    metrics["dynamics.descent_serial_seeds_per_s"] = rate(serial["seeds"], dur(serial)) if serial else 0.0
    metrics["dynamics.descent_parallel_seeds_per_s"] = rate(parallel["seeds"], dur(parallel)) if parallel else 0.0
    metrics["dynamics.resume_seeds_per_s"] = rate(facts.get("resumed_seeds", 0), dur(resume)) if resume else 0.0
    metrics["dynamics.scaling_eff"] = (
        dur(serial) / (nproc * dur(parallel)) if serial and parallel else 0.0)
    if resume:
        detail["dynamics.resume_s"] = dur(resume)

    pooled = [s for s in scan_spans if s.get("workers", 1) > 1]
    capacity = sum(nproc * dur(s) for s in pooled)
    idle = sum(nproc * dur(s) - s["cpu"] for s in pooled)
    metrics["dynamics.pool_idle_frac"] = rate(idle, capacity)
    if pooled:
        detail["dynamics.pool_idle_core_s"] = idle

    metrics["dynamics.journal_bytes"] = facts.get("journal_bytes", 0)
    metrics["dynamics.journal_records"] = facts.get("journal_records", 0)
    metrics["dynamics.attractor_minima_calls"] = stat("family.attractor_minima", 0)

    by_p = {s["p"]: s for s in scans("dynamics.max_stopping_scan")}
    for p in range(5):
        s = by_p.get(p)
        metrics[f"dynamics.table_p{p}_seeds_per_s"] = rate(s["seeds"], dur(s)) if s else 0.0
        if s:
            detail[f"dynamics.table_p{p}_s"] = dur(s)

    trapped = one_scan("explore.verify")
    metrics["dynamics.trapped_verify_seeds_per_s"] = rate(trapped["seeds"], dur(trapped)) if trapped else 0.0
    cycles = scans("dynamics.find_cycles_in_range")
    metrics["dynamics.cycles_seeds_per_s"] = rate(cycles[0]["seeds"], dur(cycles[0])) if cycles else 0.0
    if trapped:
        detail["dynamics.trapped_verify_s"] = dur(trapped)
    if cycles:
        detail["dynamics.cycles_s"] = dur(cycles[0])

    for theorem in ("31", "32", "33"):
        found = [s for s in scans("identities.check_identity") if s["theorem"] == theorem]
        metrics[f"identities.t{theorem}_trials_per_s"] = (
            rate(sum(s["trials"] for s in found), sum(dur(s) for s in found)))

    for size in ("large_d", "small_d"):
        key = f"invgraph.preimages.{size}"
        calls, total = stat(key, 0), stat(key, 1)
        metrics[f"invgraph.preimages_{size}_calls"] = calls
        metrics[f"invgraph.preimages_{size}_per_s"] = rate(calls, total)
        if calls:
            detail[f"invgraph.preimages_{size}_us"] = 1e6 * total / calls
    graph_self = stat("invgraph.build_inverse_graph", 2)
    export_s = stat("invgraph.export_dot", 1)
    metrics["invgraph.graph_nodes"] = facts.get("graph_nodes", 0)
    metrics["invgraph.graph_nodes_per_s"] = rate(facts.get("graph_nodes", 0), graph_self)
    metrics["invgraph.export_bytes"] = facts.get("export_bytes", 0)
    metrics["invgraph.export_bytes_per_s"] = rate(facts.get("export_bytes", 0), export_s)
    if graph_self:
        detail["invgraph.graph_self_s"] = graph_self
        detail["invgraph.export_s"] = export_s

    metrics["cli.self_s"] = layer_self("cli")
    outermost = []
    for s in spans:
        if s["name"].rsplit(".", 1)[1] not in SERIALISERS:
            continue
        parent = s["parent"]
        while parent is not None and spans[parent]["name"].rsplit(".", 1)[1] not in SERIALISERS:
            parent = spans[parent]["parent"]
        if parent is None:
            outermost.append(s)
    metrics["cli.serialise_s"] = sum(dur(s) for s in outermost)
    metrics["cli.report_bytes"] = report_bytes
    return metrics, detail


def dump(path, passes) -> None:
    """Write the spans of every traced pass, in the order they were recorded."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"pass": i, "spans": spans} for i, spans in enumerate(passes)], fh)
