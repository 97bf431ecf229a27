"""Forward-orbit engines: trajectories, cycle detection, stopping times,
range verification with checkpoint/resume, and stopping-time record scans.

The range scanners split work into fixed-size blocks merged in block order,
so reports are identical regardless of worker count.  Hot loops inline the
map instead of calling core.step; exactness of the inlined division is
guaranteed for every validated triplet, and positivity is re-checked once
per scan via core totality conditions.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable

from gcollatz.core import Triplet, check_total, step
from gcollatz.family import Cycle, attractor_minima, canonical_cycle, exceptional_registry, make_pq

DEFAULT_BUDGET = 10**6
DEFAULT_BLOCK = 2**16

# array('I') sentinels for unresolved stopping times
_UNKNOWN = 2**32 - 1   # budget exhausted
_INF = 2**32 - 2       # provably never reaches the target set (trapped in another cycle)

# Attractor-mode step (at least 1) at which Brent's cycle test puts down its
# first tortoise; later ones go down at twice the step count of the one before.
# The tortoise rides in the set the loop already probes for minima, so a step
# costs the same before and after it; the value only trades the boundary work
# of short orbits against how late a trapped seed is caught.
_TORTOISE_AT = 256


# ---------------------------------------------------------------------------
# trajectories and per-seed stopping quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    start: int
    values: tuple[int, ...]
    terminal: str  # "hit_attractor" | "descended" | "budget_exhausted"
    stopped_at: int | None  # step index for the two stopping terminals


def trajectory(t: Triplet, n: int, stop=None, budget: int = DEFAULT_BUDGET) -> Trajectory:
    """Record the orbit of n until a stop condition fires.

    stop may be a set of attractor minima, the string "descent" (stop at the
    first value below n), an int (pure step budget), or None (budget only).
    Budget exhaustion is a terminal state, not an error.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if isinstance(stop, int):
        budget, stop = stop, None
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    check_total(t)
    descent = stop == "descent"
    minima = None if (stop is None or descent) else frozenset(stop)

    values = [n]
    if minima is not None and n in minima:
        return Trajectory(n, (n,), "hit_attractor", 0)
    v = n
    for k in range(1, budget + 1):
        v = step(t, v)
        values.append(v)
        if minima is not None and v in minima:
            return Trajectory(n, tuple(values), "hit_attractor", k)
        if descent and v < n:
            return Trajectory(n, tuple(values), "descended", k)
    return Trajectory(n, tuple(values), "budget_exhausted", None)


def total_stopping_time(t: Triplet, n: int, minima, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k <= budget with the k-th iterate in minima, else None."""
    minima = frozenset(minima)
    if not minima:
        raise ValueError("minima must be nonempty")
    v, k = n, 0
    while v not in minima:
        if k >= budget:
            return None
        v = step(t, v)
        k += 1
    return k


def descent_time(t: Triplet, n: int, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k >= 1 with the k-th iterate below n, else None."""
    if n < 2:
        raise ValueError(f"descent is undefined for n={n}; need n >= 2")
    v, k = n, 0
    while k < budget:
        v = step(t, v)
        k += 1
        if v < n:
            return k
    return None


def detect_cycle(t: Triplet, n: int, budget: int = DEFAULT_BUDGET) -> Cycle | None:
    """Find the cycle eventually entered by the orbit of n (Brent's method,
    constant memory).  Returns None when the step budget is exhausted."""
    power = lam = 1
    tortoise = n
    hare = step(t, n)
    used = 1
    while tortoise != hare:
        if used >= budget:
            return None
        if power == lam:
            tortoise = hare
            power <<= 1
            lam = 0
        hare = step(t, hare)
        used += 1
        lam += 1
    members = [tortoise]
    v = step(t, tortoise)
    while v != tortoise:
        members.append(v)
        v = step(t, v)
    return canonical_cycle(t, members)


@dataclass(frozen=True)
class CycleScan:
    cycles: tuple[Cycle, ...]
    exhausted: tuple[int, ...]


def find_cycles_in_range(t: Triplet, n_max: int, budget: int = DEFAULT_BUDGET) -> CycleScan:
    """Distinct cycles found by running detect_cycle from every n <= n_max,
    deduplicated by minimum element; budget-exhausted seeds listed separately."""
    check_total(t)
    found: dict[int, Cycle] = {}
    exhausted = []
    for n in range(1, n_max + 1):
        c = detect_cycle(t, n, budget)
        if c is None:
            exhausted.append(n)
        else:
            found.setdefault(c.omega, c)
    cycles = tuple(found[w] for w in sorted(found))
    return CycleScan(cycles, tuple(exhausted))


# ---------------------------------------------------------------------------
# range verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    triplet: Triplet
    n_start: int
    n_end: int
    mode: str
    minima: tuple[int, ...]
    budget: int
    block_size: int
    verified: int
    failures: tuple[int, ...]
    max_sigma: tuple[int, int] | None  # (n, steps)
    cursor: int
    wall_time: float = field(compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures and self.cursor > self.n_end

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "schema": "gcollatz.scan_report/1",
            "triplet": self.triplet.as_dict(),
            "label": self.triplet.label,
            "range": [self.n_start, self.n_end],
            "mode": self.mode,
            "minima": list(self.minima),
            "budget": self.budget,
            "block_size": self.block_size,
            "verified": self.verified,
            "failures": list(self.failures),
            "max_sigma": None if self.max_sigma is None
            else {"n": self.max_sigma[0], "steps": self.max_sigma[1]},
            "cursor": self.cursor,
            "pass": self.passed,
        }
        if include_timing:
            d["wall_time"] = self.wall_time
        return d

    def json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"


def _certify_block(args) -> dict:
    """Certify every seed of one block; runs in worker processes.

    Descent mode: a seed is verified once its orbit falls below the seed or
    enters the minima; n = 1 and minima members are base cases.  Attractor
    mode: the orbit must enter the minima; exact stopping counts are memoized
    block-locally (seeds are processed ascending, so any orbit value inside
    the block and below the current seed is already resolved).  From step
    _TORTOISE_AT on, Brent's cycle test runs as in detect_cycle: an orbit
    that meets its tortoise again is trapped in a cycle with no minimum, and
    the seed fails without spending the rest of the budget.  Returns the
    block's journal record.
    """
    t, bstart, bend, mode, minima, budget = args
    d, alpha, beta, kappa = t.d, t.alpha, t.beta, t.kappa0
    minima = frozenset(minima)
    verified = 0
    failures = []
    best = None  # (steps, n)
    memo: dict[int, int] = {}
    lim0 = min(budget, _TORTOISE_AT)
    for n in range(bstart, bend + 1):
        k = 0
        ok = True
        if mode == "descent":
            if n != 1 and n not in minima:
                v = n
                ok = False
                while k < budget:
                    r = v % d
                    if r:
                        v = (alpha * v + beta * (r if kappa == 1 else d - r)) // d
                    else:
                        v //= d
                    k += 1
                    if v < n or v in minima:
                        ok = True
                        break
        else:  # attractor
            if n not in minima:
                v = n
                sigma = -1
                stops, lim = minima, lim0
                while True:
                    while k < lim:
                        r = v % d
                        if r:
                            v = (alpha * v + beta * (r if kappa == 1 else d - r)) // d
                        else:
                            v //= d
                        k += 1
                        if v in stops:
                            if v in minima:  # else v is the tortoise: a cycle closed
                                sigma = k
                            break
                        if bstart <= v < n:
                            prior = memo[v]
                            sigma = -1 if prior < 0 else k + prior
                            break
                    else:
                        if k < budget:  # move the tortoise to v and double the stretch
                            stops, lim = minima | {v}, min(budget, 2 * k)
                            continue
                    break
                memo[n] = sigma
                ok = sigma >= 0
                k = sigma
        if ok:
            verified += 1
            if k > 0 and (best is None or k > best[0]):
                best = (k, n)
        else:
            failures.append(n)
    return {
        "type": "block",
        "block_start": bstart,
        "block_end": bend,
        "status": "pass" if not failures else "fail",
        "verified": verified,
        "failures": failures,
        "max_sigma": list(best) if best else None,
        "argmax_n": best[1] if best else None,
    }


def _blocks(n_start: int, n_end: int, block_size: int):
    b = n_start
    while b <= n_end:
        yield b, min(b + block_size - 1, n_end)
        b += block_size


def _ints(x) -> bool:
    return isinstance(x, list) and all(type(i) is int for i in x)


def _block_record_ok(rec: dict) -> bool:
    """Whether a journaled _certify_block record has what verify_range reads."""
    best = rec.get("max_sigma")
    return (
        type(rec.get("verified")) is int
        and _ints(rec.get("failures"))
        and (best is None or (_ints(best) and len(best) == 2))
    )


def _map_record_ok(rec: dict) -> bool:
    """Whether a journaled _sigma_map_scan record holds every MapSigmaScan field."""
    return _ints([rec.get(k) for k in MapSigmaScan.__dataclass_fields__])


def _run_journaled(
    fn, jobs: dict, key: str, header: dict, checkpoint: str | None, workers: int, well_formed
) -> dict:
    """Run fn on every job and return {job key: fn's journal record}.

    jobs maps each key to fn's argument; record[key] names the job a record
    belongs to.  With a checkpoint path, records journaled by an earlier run
    of the same scan are reused, and each new record is appended and flushed
    as soon as it exists.  A non-empty journal must start with a scan_header
    line holding header's fields, and every complete record of a job must
    pass well_formed, else ValueError before any job runs; torn record lines
    are skipped (their jobs rerun) and a torn last line is sealed.
    """
    results = {}
    opening = json.dumps(header, sort_keys=True) + "\n"
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint, "rb") as fh:
            data = fh.read()
        lines = data.decode("utf-8", "replace").splitlines()
        if lines:
            try:
                first = json.loads(lines[0])
            except json.JSONDecodeError:
                first = None
            if not isinstance(first, dict) or first.get("type") != "scan_header":
                raise ValueError(f"checkpoint {checkpoint} does not start with a scan header")
            # only the current header's keys count, so older journals still resume
            if any(first.get(k) != v for k, v in header.items()):
                raise ValueError(f"checkpoint {checkpoint} belongs to a different scan")
            for line in lines[1:]:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # line interrupted mid-write; its job reruns
                if isinstance(rec, dict) and type(rec.get(key)) is int and rec[key] in jobs:
                    if not well_formed(rec):
                        raise ValueError(
                            f"checkpoint {checkpoint} has a malformed record for {key} {rec[key]}"
                        )
                    results[rec[key]] = rec
            opening = "" if data.endswith(b"\n") else "\n"

    pending = [args for k, args in jobs.items() if k not in results]
    with open(checkpoint, "a", encoding="utf-8") if checkpoint else nullcontext() as journal:

        def record(rec):
            results[rec[key]] = rec
            if journal:
                journal.write(json.dumps(rec, sort_keys=True) + "\n")
                journal.flush()

        if journal:
            journal.write(opening)
        if workers <= 1 or len(pending) <= 1:
            for args in pending:
                record(fn(args))
        else:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                for rec in pool.map(fn, pending):
                    record(rec)
    return results


def verify_range(
    t: Triplet,
    n_start: int,
    n_end: int,
    mode: str = "descent",
    minima: Iterable[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    checkpoint: str | None = None,
    block_size: int = DEFAULT_BLOCK,
) -> ScanReport:
    """Certify every n in [n_start, n_end] (see _certify_block for the modes).

    The report is a pure function of (t, range, mode, minima, budget,
    block_size) -- worker count only affects wall time.  With a checkpoint
    path, completed blocks are journaled and a rerun resumes after them.
    """
    t0 = time.perf_counter()
    if mode not in ("descent", "attractor"):
        raise ValueError(f"mode must be 'descent' or 'attractor', got {mode!r}")
    if n_start > n_end or n_start < 1:
        raise ValueError(f"bad range [{n_start}, {n_end}]")
    minima = tuple(sorted(set(minima or ())))
    if mode == "attractor" and not minima:
        raise ValueError("attractor mode requires a nonempty minima set")
    check_total(t)

    header = {
        "type": "scan_header",
        "schema": "gcollatz.checkpoint/1",
        "triplet": t.as_dict(),
        "range": [n_start, n_end],
        "mode": mode,
        "minima": list(minima),
        "budget": budget,
        "block_size": block_size,
    }
    jobs = {b0: (t, b0, b1, mode, minima, budget) for b0, b1 in _blocks(n_start, n_end, block_size)}
    results = _run_journaled(
        _certify_block, jobs, "block_start", header, checkpoint, workers, _block_record_ok
    )

    verified = 0
    failures: list[int] = []
    best = None
    for b0 in sorted(results):
        rec = results[b0]
        verified += rec["verified"]
        failures.extend(rec["failures"])
        if rec["max_sigma"] is not None and (best is None or rec["max_sigma"][0] > best[0]):
            best = rec["max_sigma"]
    return ScanReport(
        triplet=t,
        n_start=n_start,
        n_end=n_end,
        mode=mode,
        minima=minima,
        budget=budget,
        block_size=block_size,
        verified=verified,
        failures=tuple(sorted(failures)),
        max_sigma=(best[1], best[0]) if best else None,
        cursor=n_end + 1,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# stopping-time record scan over a (p, q) column
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapSigmaScan:
    """Stopping-time records of one (p, q) map over [1, n_max].

    'full' targets all attractor minima; 'trivial' targets only the trivial
    cycle minimum 2^(p-q).  Seeds trapped in exceptional cycles have no
    trivial stopping time and are counted in trivial_unreachable.
    """

    p: int
    q: int
    max_sigma: int
    argmax_n: int
    max_sigma_trivial: int
    argmax_n_trivial: int
    unknown: int
    trivial_unreachable: int


def _sigma_map_scan(args) -> dict:
    """Scan one (p, q) column; returns its journal record (MapSigmaScan fields)."""
    p, q, n_max, budget = args
    t = make_pq(p, q)
    d, alpha, beta = t.d, t.alpha, t.beta
    full = frozenset(attractor_minima(p, q))
    triv = 2 ** (p - q)
    exc_members = frozenset(
        m for c in exceptional_registry().get((p, q), ()) for m in c.members
    )

    size = n_max + 1
    A = array("I", [_UNKNOWN]) * size  # sigma to the full minima
    B = array("I", [_UNKNOWN]) * size  # sigma to the trivial minimum only
    best_a = (-1, 0)
    best_b = (-1, 0)
    unknown = 0
    trivial_unreachable = 0

    for n in range(1, size):
        a = 0 if n in full else None
        b = 0 if n == triv else None
        if a is None or b is None:
            v = n
            k = 0
            while k < budget:
                r = v % d
                v = (alpha * v + beta * r) // d if r else v // d
                k += 1
                if a is None:
                    if v in full:
                        a = k
                    elif v < n:
                        prior = A[v]
                        a = prior if prior >= _INF else k + prior
                if b is None:
                    if v == triv:
                        b = k
                    elif v in exc_members:
                        b = _INF
                    elif v < n:
                        prior = B[v]
                        b = prior if prior >= _INF else k + prior
                if v == n:  # n is the minimum of an unregistered cycle
                    if a is None:
                        a = _INF
                    if b is None:
                        b = _INF
                if a is not None and b is not None:
                    break
            if a is None:
                a = _UNKNOWN
            if b is None:
                b = _UNKNOWN
        if a < _INF and a > best_a[0]:
            best_a = (a, n)
        if b < _INF and b > best_b[0]:
            best_b = (b, n)
        if a >= _INF:
            unknown += 1
        if b == _INF:
            trivial_unreachable += 1
        A[n] = a
        B[n] = b

    return {
        "type": "map",
        "p": p,
        "q": q,
        "max_sigma": best_a[0],
        "argmax_n": best_a[1],
        "max_sigma_trivial": best_b[0],
        "argmax_n_trivial": best_b[1],
        "unknown": unknown,
        "trivial_unreachable": trivial_unreachable,
    }


@dataclass(frozen=True)
class MaxStoppingScan:
    p: int
    n_max: int
    budget: int
    per_map: tuple[MapSigmaScan, ...]
    max_sigma: int
    q_at_max: int
    n_at_max: int
    max_sigma_trivial: int
    q_at_max_trivial: int
    n_at_max_trivial: int
    unknown: int

    def to_dict(self) -> dict:
        return {
            "schema": "gcollatz.max_stopping_scan/1",
            "p": self.p,
            "n_max": self.n_max,
            "budget": self.budget,
            "max_sigma": self.max_sigma,
            "q_at_max": self.q_at_max,
            "n_at_max": self.n_at_max,
            "max_sigma_trivial": self.max_sigma_trivial,
            "q_at_max_trivial": self.q_at_max_trivial,
            "n_at_max_trivial": self.n_at_max_trivial,
            "unknown": self.unknown,
            "per_map": [
                {
                    "q": m.q,
                    "max_sigma": m.max_sigma,
                    "argmax_n": m.argmax_n,
                    "max_sigma_trivial": m.max_sigma_trivial,
                    "argmax_n_trivial": m.argmax_n_trivial,
                    "unknown": m.unknown,
                    "trivial_unreachable": m.trivial_unreachable,
                }
                for m in self.per_map
            ],
        }


def max_stopping_scan(
    p: int,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    checkpoint: str | None = None,
) -> MaxStoppingScan:
    """Maximum stopping time over 0 <= q <= p and 1 <= n <= n_max.

    Each (p, q) column is scanned by one in-order memoized pass (the exact
    stopping time of every seed is resolved via already-resolved smaller
    seeds); columns are independent, so workers parallelize across q.  With
    a checkpoint path, finished columns are journaled and reruns skip them.
    """
    header = {
        "type": "scan_header",
        "schema": "gcollatz.checkpoint/1",
        "kind": "max_stopping_scan",
        "p": p,
        "n_max": n_max,
        "budget": budget,
    }
    jobs = {q: (p, q, n_max, budget) for q in range(p + 1)}
    by_q = _run_journaled(_sigma_map_scan, jobs, "q", header, checkpoint, workers, _map_record_ok)
    fields = MapSigmaScan.__dataclass_fields__
    scans = [MapSigmaScan(**{k: by_q[q][k] for k in fields}) for q in sorted(by_q)]

    def aggregate(key_max, key_arg):
        best = (-1, 0, 0)  # (sigma, q, n)
        for m in scans:
            s = getattr(m, key_max)
            if s > best[0]:
                best = (s, m.q, getattr(m, key_arg))
        return best

    a = aggregate("max_sigma", "argmax_n")
    b = aggregate("max_sigma_trivial", "argmax_n_trivial")
    return MaxStoppingScan(
        p=p,
        n_max=n_max,
        budget=budget,
        per_map=tuple(scans),
        max_sigma=a[0],
        q_at_max=a[1],
        n_at_max=a[2],
        max_sigma_trivial=b[0],
        q_at_max_trivial=b[1],
        n_at_max_trivial=b[2],
        unknown=sum(m.unknown for m in scans),
    )
