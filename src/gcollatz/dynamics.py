"""Forward-orbit engines: trajectories, cycle detection, stopping times,
range verification with checkpoint/resume, and stopping-time record scans.

The range scanners split work into fixed-size blocks merged in block order,
so reports are identical regardless of worker count.  Hot loops inline the
map as one step for both signs, r = v % m; v = (alpha*v + b*r) // d if r else
v // d, with (m, b) from _step_form; exactness of the division is guaranteed
for every validated triplet, and positivity is re-checked once per scan via
core totality conditions.  Attractor-mode verify and the stopping-time table
share one memoized kernel, _stopping_times: a walk that reaches the minima
within the budget resolves every orbit value it passed in the scanned range,
so orbits that climb far before they fall (large d) are walked once, not
once per seed on them.

Descent mode takes the first k steps of most seeds from a table over
r mod d^k, k the largest with d^k <= min(2^14, block length), built from the
paper's Theorem 3.1: T^j(a*d^k + r) = alpha^s_j(r) * a * d^(k-j) + T^j(r) for
j <= k.  Seeds below the table's threshold on a, in a row of d^k that reaches
down to max(minima), or scanned with budget <= k start at step 0 instead, and
so does every seed of a block with k < 2: a table of depth 1 settles only
d | n.  Either way the report and journal bytes are the same.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from typing import Iterable

from gcollatz.core import Triplet, check_total, step
from gcollatz.family import Cycle, attractor_minima, cycle_through, exceptional_registry, make_pq

DEFAULT_BUDGET = 10**6
DEFAULT_BLOCK = 2**16

# array('I') sentinel: no stopping time (budget spent or an unregistered cycle)
_FAILED = 2**32 - 1

# Attractor-mode step (at least 1) at which Brent's cycle test puts down its
# first tortoise; later ones go down at twice the step count of the one before.
# The tortoise rides in the set the loop already probes for minima, so a step
# costs the same before and after it; the value only trades the boundary work
# of short orbits against how late a trapped seed is caught.
_TORTOISE_AT = 256

# Most residue classes mod d^k in a descent table (see _descent_table)
_TABLE_CLASSES = 2**14


# ---------------------------------------------------------------------------
# trajectories and per-seed stopping quantities
# ---------------------------------------------------------------------------

def _need_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


@dataclass(frozen=True)
class Trajectory:
    start: int
    values: tuple[int, ...]
    terminal: str  # "hit_attractor" | "descended" | "cycle" | "budget_exhausted"
    stopped_at: int | None  # step index, None when the budget ran out


def _walk(t: Triplet, n: int, minima: frozenset, descent: bool, budget: int) -> tuple[str, int, int]:
    """Walk the orbit of n and return (terminal, k, v), v the k-th iterate.

    The walk ends at the first of: v in minima ("hit_attractor"); with
    descent, v < n ("descended"); v equal to Brent's tortoise ("cycle"; R. P.
    Brent, BIT 20, 1980); k = budget ("budget_exhausted").  The tortoise goes
    down at steps 0, 1, 3, 7, ... and is compared at every step before it
    moves.  No orbit value is kept.
    """
    if n in minima:
        return "hit_attractor", 0, n
    v = tortoise = n
    move = 1
    for k in range(1, budget + 1):
        v = step(t, v)
        if v in minima:
            return "hit_attractor", k, v
        if descent and v < n:
            return "descended", k, v
        if v == tortoise:
            return "cycle", k, v
        if k == move:
            tortoise, move = v, 2 * k + 1
    return "budget_exhausted", budget, v


def trajectory(t: Triplet, n: int, stop=None, budget: int = DEFAULT_BUDGET) -> Trajectory:
    """Record the orbit of n until a stop condition fires or a cycle closes.

    stop may be a set of attractor minima, the string "descent" (stop at the
    first value below n, which needs n >= 2), or None (cycle or budget only).
    A closed cycle and budget exhaustion are terminal states, not errors.
    """
    descent = stop == "descent"
    _need_at_least("n", n, 2 if descent else 1)
    _need_at_least("budget", budget, 1)
    check_total(t)
    minima = frozenset() if stop is None or descent else frozenset(stop)
    _need_at_least("minima", min(minima, default=1), 1)
    terminal, k, _ = _walk(t, n, minima, descent, budget)
    values = tuple(accumulate(range(k), lambda v, _: step(t, v), initial=n))
    return Trajectory(n, values, terminal, None if terminal == "budget_exhausted" else k)


def total_stopping_time(t: Triplet, n: int, minima, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k <= budget with the k-th iterate in minima, else None."""
    minima = frozenset(minima)
    if not minima:
        raise ValueError("minima must be nonempty")
    terminal, k, _ = _walk(t, n, minima, False, budget)
    return k if terminal == "hit_attractor" else None


def descent_time(t: Triplet, n: int, budget: int = DEFAULT_BUDGET) -> int | None:
    """Smallest k >= 1 with the k-th iterate below n, else None."""
    _need_at_least("n", n, 2)
    terminal, k, _ = _walk(t, n, frozenset(), True, budget)
    return k if terminal == "descended" else None


def detect_cycle(t: Triplet, n: int, budget: int = DEFAULT_BUDGET) -> Cycle | None:
    """Find the cycle eventually entered by the orbit of n (Brent's method,
    constant memory).  Returns None when the step budget is exhausted."""
    _need_at_least("budget", budget, 1)
    terminal, _, v = _walk(t, n, frozenset(), False, budget)
    return cycle_through(t, v) if terminal == "cycle" else None


@dataclass(frozen=True)
class CycleScan:
    cycles: tuple[Cycle, ...]
    exhausted: tuple[int, ...]


def find_cycles_in_range(t: Triplet, n_max: int, budget: int = DEFAULT_BUDGET) -> CycleScan:
    """Distinct cycles found by running detect_cycle from every n <= n_max,
    deduplicated by minimum element; budget-exhausted seeds listed separately."""
    _need_at_least("n_max", n_max, 1)
    _need_at_least("budget", budget, 1)
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
    wall_time: float = field(compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

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
            "cursor": self.n_end + 1,
            "pass": self.passed,
        }
        if self.mode == "descent" and self.n_start > 1:  # relies on every seed below n_start
            d["assumes_verified_below"] = self.n_start
        if include_timing:
            d["wall_time"] = self.wall_time
        return d


def _step_form(d: int, beta: int, kappa: int) -> tuple[int, int]:
    """(m, b) of the inlined step; as v % -d is -[-v]_d, kappa0 = -1 takes
    (-d, -beta) and needs no branch per step."""
    return (d, beta) if kappa > 0 else (-d, -beta)


@lru_cache(maxsize=4)
def _descent_table(d: int, alpha: int, beta: int, kappa: int, depth: int):
    """Descent table over r mod d^depth.

    n = a*d^depth + r descends at step j <= depth iff a*c_j > T^j(r) - r, with
    c_j = d^(depth-j) * (d^j - alpha^s_j(r)), never 0 as d does not divide
    alpha.  Returns jstar[r], the first j with c_j > 0 or 0; the classes with
    jstar 0 ("survivors"), with alpha^s_depth(r) and T^depth(r); and amin, the
    least a from which every class descends at its jstar and no earlier step.
    """
    m, b = _step_form(d, beta, kappa)
    jstar = bytearray(d**depth)
    survivors, mult, tail = [], [], []
    amin = 0
    for r in range(d**depth):
        v, s = r, 0
        for j in range(1, depth + 1):
            x = v % m
            v, s = ((alpha * v + b * x) // d, s + 1) if x else (v // d, s)
            c = d ** (depth - j) * (d**j - alpha**s)
            if c > 0:  # descends here once a*c > v - r
                jstar[r] = j
                amin = max(amin, (v - r) // c + 1)
                break
            amin = max(amin, -((r - v) // c))  # no descent yet while a*c <= v - r
        else:
            survivors.append(r)
            mult.append(alpha**s)
            tail.append(v)
    return jstar, survivors, mult, tail, amin


def _descent_seeds(t: Triplet, bstart: int, bend: int, minima: frozenset, budget: int):
    """Descent mode: a seed is verified once its orbit falls below the seed or
    enters the minima; n = 1 and minima members are base cases.  In a row of
    the table with a >= amin and seeds above max(minima), no orbit value at or
    above n is a minimum: a settled class counts at its jstar, a survivor
    starts depth steps in.  Other rows start every seed at (n, 0).  A seed
    still walking at step _TORTOISE_AT goes on under Brent's test as in
    detect_cycle, and fails once its orbit closes a cycle that has no value
    below n and no minimum.
    """
    d, alpha, beta, kappa = t.d, t.alpha, t.beta, t.kappa0
    m, b = _step_form(d, beta, kappa)
    top = max(minima, default=1)
    lim = min(budget, _TORTOISE_AT)
    depth = 0
    while d ** (depth + 1) <= min(_TABLE_CLASSES, bend - bstart + 1):
        depth += 1
    table = _descent_table(d, alpha, beta, kappa, depth) if 1 < depth < budget else None
    size = d**depth if table else bend + 1  # without a table the block is one row
    verified, failures, best = 0, [], (0, 0)  # best: (steps, n)
    for a in range(bstart // size, bend // size + 1):
        base = a * size
        lo, hi = max(bstart, base), min(bend, base + size - 1)
        low = lo <= top
        if table and not low and a >= table[4]:
            jstar, survivors, mult, tail, _ = table
            settled = jstar[lo - base:hi - base + 1]
            verified += len(settled) - settled.count(0)
            j = max(settled)
            if j > best[0]:  # every survivor that descends takes more steps
                best = (j, lo + settled.index(j))
            i, e = bisect_left(survivors, lo - base), bisect_right(survivors, hi - base)
            starts = ((base + r, u * a + c) for r, u, c in islice(zip(survivors, mult, tail), i, e))
            k0 = depth
        else:
            starts, k0 = zip(range(lo, hi + 1), range(lo, hi + 1)), 0
        for n, v in starts:
            k = k0
            if low and (n == 1 or n in minima):
                verified += 1
                continue
            while k < lim:
                r = v % m
                v = (alpha * v + b * r) // d if r else v // d
                k += 1
                if v < n or low and v in minima:
                    break
            else:  # the tortoise goes down at steps lim, 2*lim, 4*lim, ...
                tortoise, move = v, 2 * k
                while k < budget:
                    r = v % m
                    v = (alpha * v + b * r) // d if r else v // d
                    k += 1
                    if v < n or low and v in minima:
                        break
                    if v == tortoise:  # the orbit repeats from here and never descends
                        k = budget
                    elif k == move:
                        tortoise, move = v, 2 * k
                else:
                    failures.append(n)
                    continue
            verified += 1
            if k > best[0]:
                best = (k, n)
    return verified, failures, best


def _stopping_times(t, lo, hi, minima, budget, triv=None, members=frozenset()):
    """Stopping times into minima of the seeds lo..hi, walked in ascending order.

    sigma and trapped are the memo, indexed by the seed: a pair of arrays from
    0 when they are at most twice the range's length, else a pair of
    defaultdicts that read a missing key as _FAILED and 0.  sigma[n] is n's
    stopping time, or _FAILED when the budget is spent or the orbit is trapped
    in a cycle with no minimum: it returns to n, or from step _TORTOISE_AT on
    meets Brent's tortoise (as in detect_cycle), which rides in the set the
    loop probes anyway.  trapped[n] is set when the orbit meets members short
    of a minimum, ends at a minimum other than triv, returns to n, or reaches
    a seed whose bit is set.  A walk ends at an orbit value in [lo, n) with
    that seed's entries, and at a resolved one in (n, hi] if the sum of the
    two times is within the budget.

    A walk that reaches a minimum within the budget also resolves every orbit
    value v in (n, hi] it passed: at step k, sigma[v] = s - k, and trapped[v]
    comes from the walk's end and the members met after step k.  Both depend
    only on the orbit up to its first minimum, so a walk from v would find the
    same, and v is not walked.  Longer successes (through the memo below n)
    and failures are not propagated: a walk from v gets the whole budget
    again and might end otherwise, so _FAILED above n means "not yet known".
    Returns (failures, best, best_trivial, (sigma, trapped)): best and
    best_trivial are the first (sigma, n) with the largest sigma over all
    seeds and over those with a clear trapped bit, or (-1, 0).
    """
    if lo <= hi - lo + 1:
        sigma, trapped = array("I", [_FAILED]) * (hi + 1), bytearray(hi + 1)
    else:
        sigma, trapped = defaultdict(lambda: _FAILED), defaultdict(int)
    d, alpha = t.d, t.alpha
    m, b = _step_form(d, t.beta, t.kappa0)
    probe = minima | members
    lim0 = min(budget, _TORTOISE_AT)
    cap = min(budget, _FAILED - 1)  # the longest success joined or propagated
    path = []  # v, k of the walk's orbit values in (n, hi], flat
    push = path.append
    failures, top, top_n, top_t, top_t_n = [], -1, 0, -1, 0
    for n in range(lo, hi + 1):
        s = sigma[n]
        if s != _FAILED:  # set by the walk of a smaller seed
            x = trapped[n]
        elif n in minima:
            s = sigma[n] = 0
            x = trapped[n] = n != triv
        else:
            v, k, e, met = n, 0, 0, 0  # e: the end's trapped bit; met: last step at a member
            stops, lim = probe, lim0
            while True:
                while k < lim:
                    r = v % m
                    v = (alpha * v + b * r) // d if r else v // d
                    k += 1
                    if v in stops:
                        if v in minima:
                            s, e = k, v != triv
                            break
                        if v not in members:  # the tortoise: a cycle with no minimum closed
                            break
                        met = k  # a member of a listed cycle, short of its minimum
                    if v <= n:
                        if v >= lo:
                            if v < n:
                                prior = sigma[v]
                                s = prior if prior == _FAILED else k + prior
                                e = trapped[v]
                            else:  # n is the least member of a cycle with no minimum
                                e = 1
                            break
                    elif v <= hi:
                        prior = sigma[v]
                        if k + prior <= cap:
                            s, e = k + prior, trapped[v]
                            break
                        push(v)
                        push(k)
                else:
                    if k < budget:  # move the tortoise to v and double the stretch
                        stops, lim = probe | {v}, min(budget, 2 * k)
                        continue
                break
            sigma[n] = s
            x = trapped[n] = e or met > 0
            if path:
                if s <= cap:
                    for i in range(0, len(path), 2):
                        v, k = path[i], path[i + 1]
                        sigma[v] = s - k
                        trapped[v] = e or met > k
                path.clear()
        if s == _FAILED:
            failures.append(n)
        else:
            if s > top:
                top, top_n = s, n
            if not x and s > top_t:
                top_t, top_t_n = s, n
    return failures, (top, top_n), (top_t, top_t_n), (sigma, trapped)


def _certify_block(args) -> dict:
    """Certify every seed of one block and return its journal record; runs in
    worker processes.  Descent mode is _descent_seeds; attractor mode is
    _stopping_times."""
    t, bstart, bend, mode, minima, budget = args
    minima = frozenset(minima)
    if mode == "descent":
        verified, failures, best = _descent_seeds(t, bstart, bend, minima, budget)
    else:
        failures, best, _, _ = _stopping_times(t, bstart, bend, minima, budget)
        verified = bend - bstart + 1 - len(failures)
    return {
        "type": "block",
        "block_start": bstart,
        "block_end": bend,
        "status": "pass" if not failures else "fail",
        "verified": verified,
        "failures": failures,
        "max_sigma": list(best) if best[0] > 0 else None,
        "argmax_n": best[1] if best[0] > 0 else None,
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
    line of schema gcollatz.checkpoint/1 holding header's fields, and every
    complete record of a job must pass well_formed, else ValueError before any
    job runs; torn record lines are skipped (their jobs rerun) and a torn last
    line is sealed.
    """
    results = {}
    header = {"type": "scan_header", "schema": "gcollatz.checkpoint/1", **header}
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
    _need_at_least("budget", budget, 1)
    _need_at_least("block_size", block_size, 1)
    _need_at_least("workers", workers, 1)
    minima = tuple(sorted(set(minima or ())))
    _need_at_least("minima", min(minima, default=1), 1)
    if mode == "attractor" and not minima:
        raise ValueError("attractor mode requires a nonempty minima set")
    check_total(t)

    header = {
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

    recs = [results[b0] for b0 in sorted(results)]
    tops = [r["max_sigma"] for r in recs if r["max_sigma"] is not None]
    best = max(tops, key=lambda s: s[0], default=None)  # on a tie, the earliest block's
    return ScanReport(
        triplet=t,
        n_start=n_start,
        n_end=n_end,
        mode=mode,
        minima=minima,
        budget=budget,
        block_size=block_size,
        verified=sum(r["verified"] for r in recs),
        failures=tuple(sorted(n for r in recs for n in r["failures"])),
        max_sigma=(best[1], best[0]) if best else None,
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

    q: int
    max_sigma: int
    argmax_n: int
    max_sigma_trivial: int
    argmax_n_trivial: int
    unknown: int
    trivial_unreachable: int


def _sigma_map_scan(args) -> dict:
    """Scan one (p, q) column; returns its journal record (MapSigmaScan fields).

    _stopping_times walks seeds 1..n_max into the full minima, with the
    exceptional cycles' members as members.  The trivial minimum is one of the
    full minima, so a seed's trivial-only stopping time is its full one while
    its trapped bit is clear, and there is none once it is set.
    """
    p, q, n_max, budget = args
    minima = attractor_minima(p, q)
    members = frozenset(m for c in exceptional_registry().get((p, q), ()) for m in c.members)
    failures, best, best_trivial, (_, trapped) = _stopping_times(
        make_pq(p, q), 1, n_max, minima, budget, 2 ** (p - q), members
    )
    return {
        "type": "map",
        "p": p,
        "q": q,
        "max_sigma": best[0],
        "argmax_n": best[1],
        "max_sigma_trivial": best_trivial[0],
        "argmax_n_trivial": best_trivial[1],
        "unknown": len(failures),
        "trivial_unreachable": trapped.count(1),
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
        """Every field, in field order."""
        return {"schema": "gcollatz.max_stopping_scan/1", **asdict(self)}


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
    _need_at_least("p", p, 0)
    _need_at_least("n_max", n_max, 1)
    _need_at_least("budget", budget, 1)
    _need_at_least("workers", workers, 1)
    header = {
        "kind": "max_stopping_scan",
        "p": p,
        "n_max": n_max,
        "budget": budget,
    }
    jobs = {q: (p, q, n_max, budget) for q in range(p + 1)}
    by_q = _run_journaled(_sigma_map_scan, jobs, "q", header, checkpoint, workers, _map_record_ok)
    fields = MapSigmaScan.__dataclass_fields__
    scans = [MapSigmaScan(**{k: by_q[q][k] for k in fields}) for q in sorted(by_q)]
    a = max(scans, key=lambda m: m.max_sigma)  # on a tie, the lowest q
    b = max(scans, key=lambda m: m.max_sigma_trivial)
    return MaxStoppingScan(
        p=p,
        n_max=n_max,
        budget=budget,
        per_map=tuple(scans),
        max_sigma=a.max_sigma,
        q_at_max=a.q,
        n_at_max=a.argmax_n,
        max_sigma_trivial=b.max_sigma_trivial,
        q_at_max_trivial=b.q,
        n_at_max_trivial=b.argmax_n_trivial,
        unknown=sum(m.unknown for m in scans),
    )
