"""Forward-orbit engines: trajectories, cycle detection, stopping times,
range verification with checkpoint/resume, and stopping-time record scans.

Which function owns which rule: _walk, one orbit under Brent's cycle check;
find_cycles_in_range, the memoized cycle scan; _step_form, the step every hot
loop inlines; _descent_table, _split_survivors and _descent_seeds, descent
mode by Theorem 3.1; _stopping_times, the memoized kernel of attractor-mode
verify and of each (p, q) column of the table; _run_journaled, the job
order, process pool and checkpoint journal that keep reports independent of
the worker count, and the one place that imports the pool machinery, only
when it builds a pool.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd, inf
from typing import Iterable

from gcollatz.core import DEFAULT_BLOCK, DEFAULT_BUDGET, Triplet, check_total, step
from gcollatz.family import Cycle, attractor_minima, cycle_through, exceptional_registry, make_pq

# array('I') sentinel: no stopping time (budget spent or an unregistered cycle)
_FAILED = 2**32 - 1

# Step (at least 1) at which both kernels put down Brent's first tortoise;
# later ones go down at twice the step count of the one before.  A step costs
# the same before and after it (descent compares with 0, which no orbit takes,
# until then); the value only trades the boundary work of short orbits
# against how late a trapped seed is caught.
_TORTOISE_AT = 256

# Most residue classes mod d^k in a descent table (see _descent_table)
_TABLE_CLASSES = 2**14

# Seeds each descent table still runs without its split before the process
# builds the split (see _split_payback).  Per process, like the cache of
# _descent_table that holds the split; no report depends on it.
_split_due: dict[tuple, float] = {}


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


def _memo(hi: int, *cells) -> list:
    """The one-element arrays (or bytearrays) in cells, each repeated for the
    seeds 0..hi; a MemoryError names hi and the bytes the memo needs."""
    try:
        return [c * (hi + 1) for c in cells]
    except MemoryError:
        size = (hi + 1) * sum(getattr(c, "itemsize", 1) for c in cells)
        raise MemoryError(f"a memo of seeds up to {hi} needs {size} bytes") from None


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


def _brent_reach(lam: int, budget: int) -> int:
    """Longest tail mu with which _walk closes a cycle of length lam within
    budget steps, or -1.  It closes at step T + lam, T the least 2^i - 1 with
    T >= mu and 2^i >= lam, so the bound is itself of the form 2^i - 1."""
    i = max(0, budget - lam + 1).bit_length() - 1  # the largest i with 2^i - 1 + lam <= budget
    return (1 << i) - 1 if i >= (lam - 1).bit_length() else -1


def find_cycles_in_range(t: Triplet, n_max: int, budget: int = DEFAULT_BUDGET) -> CycleScan:
    """The cycles and budget-exhausted seeds that detect_cycle finds from
    every n <= n_max, cycles sorted by minimum element.

    One memoized pass in ascending seed order.  mu[n] is n's tail length
    (steps until its orbit enters its cycle, -1 while unknown) and cyc[n]
    the index of that cycle in found; where maps the members of found
    cycles above n_max to their index.  A walk from n ends at the first
    value whose entries are known (a resolved seed or a cycle member), at
    Brent's tortoise, put down as in _walk, or after budget steps.  At the
    tortoise it has closed a cycle no earlier walk met: cycle_through
    records its members and n is walked again, now ending at a member.  A
    resolved walk sets the entries of every seed it passed (values above
    n_max are not kept).  n is exhausted iff its walk spent the budget or
    _walk would close its cycle after the budget, i.e. mu[n] is past the
    cycle's _brent_reach; so a cycle is listed iff one of its seeds closes
    within budget, and each walk that closed one did.
    """
    _need_at_least("n_max", n_max, 1)
    _need_at_least("budget", budget, 1)
    check_total(t)
    d, alpha = t.d, t.alpha
    m, b = _step_form(d, t.beta, t.kappa0)
    mu, cyc = _memo(n_max, array("q", [-1]), array("i", [0]))
    found, reach, where = [], [], {}
    path = []  # v, k of the walk's unresolved orbit values in [1, n_max], flat
    push = path.append
    exhausted = []
    for n in range(1, n_max + 1):
        s, c = mu[n], cyc[n]
        while s < 0:  # walk n; again once it has closed a new cycle
            v, k, tortoise, lim = n, 0, n, 1
            while True:
                while k < lim:
                    r = v % m
                    v = (alpha * v + b * r) // d if r else v // d
                    k += 1
                    if v <= n_max:
                        x = mu[v]
                        if x >= 0:
                            s, c = k + x, cyc[v]
                            break
                        push(v)
                        push(k)
                    elif v in where:
                        s, c = k, where[v]
                        break
                    if v == tortoise:
                        break
                else:
                    if k < budget:  # move the tortoise to v and double the stretch
                        tortoise, lim = v, min(budget, 2 * k + 1)
                        continue
                break
            if s >= 0 or v != tortoise:  # resolved, or the budget is spent
                break
            cycle = cycle_through(t, v)
            c = len(found)
            found.append(cycle)
            reach.append(_brent_reach(cycle.length, budget))
            for w in cycle.members:
                if w <= n_max:
                    mu[w], cyc[w] = 0, c
                else:
                    where[w] = c
            path.clear()
            s = mu[n]
        if s < 0 or s > reach[c]:
            exhausted.append(n)
        if s >= 0:
            for i in range(0, len(path), 2):
                v = path[i]
                mu[v], cyc[v] = s - path[i + 1], c
        path.clear()
    return CycleScan(tuple(sorted(found, key=lambda cy: cy.omega)), tuple(exhausted))


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
    """(m, b) of the inlined step r = v % m; v = (alpha*v + b*r) // d if r
    else v // d.  As v % -d is -[-v]_d, kappa0 = -1 takes (-d, -beta) and
    needs no branch per step.  It skips core.step's guard: the division is
    exact for every validated triplet, and a scan calls check_total once."""
    return (d, beta) if kappa > 0 else (-d, -beta)


@lru_cache(maxsize=8)
def _descent_table(d: int, alpha: int, beta: int, kappa: int, depth: int, split: bool = False):
    """Descent table over r mod d^depth.

    n = a*d^depth + r descends at step j <= depth iff a*c_j > T^j(r) - r, with
    c_j = d^(depth-j) * (d^j - alpha^s_j(r)), never 0 as d does not divide
    alpha; each c_j is computed once per (j, s), not once per class and step.
    Returns (jstar, survivors, steps, tail, amin, split): jstar[r], the first
    j with c_j > 0 or 0; the classes with jstar 0 ("survivors"); for every
    class, steps[r] = (hop, mult) with hop = jstar[r] or depth and mult =
    alpha^s * d^(depth-hop), and tail[r] = T^hop(r), so that
    T^hop(a*d^depth + r) = mult*a + tail[r]; and amin, the least a from
    which every class descends at its jstar and no earlier step.  So for
    x >= amin, no orbit value of x*d^depth + r falls below it before step
    hop, and a survivor stays at or above it for depth steps.  Each (hop, s)
    has one shared pair, so steps costs a pointer per class.

    split is None unless asked for; then it is (arow, rows), the survivors
    sieved one step deeper without a table of depth + 1 (_split_survivors).
    In a row a >= amin with a // d >= arow, rows[a % d] = (surv, settle)
    lists, in ascending order, the survivors that stay at or above their
    seed for depth + 1 steps and those that fall below it at step depth + 1:
    the classes with jstar 0 and depth + 1 in the depth + 1 table.  The
    split holds survivors * d pointers.
    """
    if split:
        table = _descent_table(d, alpha, beta, kappa, depth)
        return *table[:5], _split_survivors(d, alpha, beta, kappa, depth, table)
    m, b = _step_form(d, beta, kappa)
    size = d**depth
    # cs[j][s] = c_j and pairs[j][s] = (j, mult) when s of the first j steps
    # start off the multiples of d
    cs = [[d ** (depth - j) * (d**j - alpha**s) for s in range(j + 1)] for j in range(depth + 1)]
    pairs = [[(j, alpha**s * d ** (depth - j)) for s in range(j + 1)] for j in range(depth + 1)]
    jstar = bytearray(size)
    survivors, steps, tail = [], [], []
    amin = 0
    for r in range(size):
        v, s = r, 0
        for j in range(1, depth + 1):
            x = v % m
            if x:
                v = (alpha * v + b * x) // d
                s += 1
            else:
                v //= d
            c = cs[j][s]
            if c > 0:  # descends here once a*c > v - r
                jstar[r] = j
                least = (v - r) // c + 1
                if least > amin:
                    amin = least
                break
            least = -((r - v) // c)  # no descent yet while a*c <= v - r
            if least > amin:
                amin = least
        else:
            survivors.append(r)
        steps.append(pairs[j][s])
        tail.append(v)
    return jstar, survivors, steps, tail, amin, None


def _split_survivors(d: int, alpha: int, beta: int, kappa: int, depth: int, table) -> tuple:
    """(arow, rows) of _descent_table's split.  Survivor r in a row
    a = d*a' + j is class r + j*d^depth mod d^(depth+1), at mult*d*a' + v,
    v = mult*j + tail[r], after depth steps.  As mult*d*a' adds nothing
    mod d, step depth + 1 takes it to alpha^s' * a' + T(v), below the seed
    iff a'*c > T(v) - r - j*d^depth, c = d^(depth+1) - alpha^s' as in the
    table; arow is the least a' from which every class goes as listed."""
    _, survivors, steps, tail, _, _ = table
    m, b = _step_form(d, beta, kappa)
    size = d**depth
    rows = [([], []) for _ in range(d)]
    arow = 0
    for r in survivors:
        mult, t0 = steps[r][1], tail[r]
        codd, ceven = size * d - mult * alpha, size * d - mult  # c after a step off or on d | v
        for j, (surv, settle) in enumerate(rows):
            v = mult * j + t0
            x = v % m
            if x:
                v, c = (alpha * v + b * x) // d, codd
            else:
                v, c = v // d, ceven
            diff = v - r - j * size
            if c > 0:  # falls below its seed at step depth + 1 once a'*c > diff
                settle.append(r)
                least = diff // c + 1
            else:
                surv.append(r)
                least = -(-diff // c)
            if least > arow:
                arow = least
    return arow, rows


def _split_payback(d: int, alpha: int, depth: int, table) -> float:
    """Seeds a process runs through table before it builds the split.
    An entry of the split (survivors * d) costs about 0.3 µs to build, and
    a row that skips the walk of a settler (a survivor that falls at step
    depth + 1) saves about 0.3 µs or more (CPython 3.11, one core of a
    shared 2-core x86-64 host).  A seed skips settlers /
    d^(depth+1) walks on average, settlers counted as _split_survivors
    lists them, so the split is due once the seeds run without it would
    have skipped as many walks as it has entries: running without it has
    then cost about what building it costs, and a short run never builds
    it.  That is 500,000 seeds on (10,12,8)+ at depth 4, 131,000 on (3,3)
    and 9.6e7 on (6,6), whose 2.06M entries skip a walk for 2% of seeds."""
    _, survivors, steps, tail, _, _ = table
    size = d ** (depth + 1)
    settlers = 0
    for r in survivors:
        mult = steps[r][1]
        if size > mult * alpha:  # falls at step depth + 1 after either step
            settlers += d
        elif size > mult:  # falls for the digits j with d | mult*j + tail[r]
            g = gcd(mult, d)
            settlers += g if tail[r] % g == 0 else 0
    return len(survivors) * d * size / settlers if settlers else inf


def _descent_seeds(t: Triplet, bstart: int, bend: int, minima: frozenset, budget: int):
    """Descent mode: a seed is verified once its orbit falls below the seed or
    enters the minima; n = 1 and minima members are base cases.  In a row of
    the table with a >= amin and seeds above max(minima), no orbit value at or
    above n is a minimum: a settled class counts at its jstar, and a survivor
    goes on by hops while a whole hop fits before the first tortoise and the
    budget: with r = v mod d^depth and (hop, mult) = steps[r], one lookup, v
    is mult*(v // d^depth) + tail[r] after hop more steps.  The hops keep the
    step count exact: v >= n >= a*d^depth gives v // d^depth >= amin, so by
    the table's invariant the orbit first falls below n at a hop's end, if
    at all.  A seed sets its tortoise and step limit only once it leaves the
    hops.
    Once the process has run _split_payback's seeds through the table, the
    table comes with its split, and a row with a // d >= arow too walks
    only the survivors of rows[a % d]; the others fall below their seed at
    step depth + 1, and the row counts only the first of them in range.
    Other rows start every seed at (n, 0), and so does every seed of a block
    with depth < 2 (a table of depth 1 settles only d | n) or budget <= depth.
    A seed not yet below n goes on one step at a time; it fails at the budget
    or when its orbit meets Brent's tortoise, put down as in _stopping_times
    (or at the start, if later).  Returns (failures, best), best the first
    (steps, n) with the most steps or (0, 0).
    """
    d, alpha, beta, kappa = t.d, t.alpha, t.beta, t.kappa0
    m, b = _step_form(d, beta, kappa)
    top = max(minima, default=1)
    lim0 = min(budget, _TORTOISE_AT)
    depth = 0
    while d ** (depth + 1) <= min(_TABLE_CLASSES, bend - bstart + 1):
        depth += 1
    table = _descent_table(d, alpha, beta, kappa, depth) if 1 < depth < budget else None
    if table:
        key = (d, alpha, beta, kappa, depth)
        due = _split_due.get(key)
        if due is None:
            due = _split_payback(d, alpha, depth, table)
        if due <= 0:
            table = _descent_table(*key, True)
        else:
            _split_due[key] = due - (bend - bstart + 1)
        jstar, survivors, steps, tail, amin, split = table
        arow, rows = split or (None, None)
    size = d**depth if table else bend + 1  # without a table the block is one row
    failures, most, most_n = [], 0, 0
    for a in range(bstart // size, bend // size + 1):
        base = a * size
        lo, hi = max(bstart, base), min(bend, base + size - 1)
        low = lo <= top
        if table and not low and a >= amin:
            settled = jstar[lo - base:hi - base + 1]
            j = max(settled)
            if j > most:  # every survivor that descends takes more steps
                most, most_n = j, lo + settled.index(j)
            walk = survivors
            if rows and a // d >= arow:
                walk, settle = rows[a % d]
                i = bisect_left(settle, lo - base)
                if depth >= most and i < len(settle) and settle[i] <= hi - base:  # depth + 1 steps
                    most, most_n = depth + 1, base + settle[i]
            i, e = bisect_left(walk, lo - base), bisect_right(walk, hi - base)
            # entering through the hop loop at step 0 gives the same bytes but measured
            # about 25% slower on (10,12,8)+ up to 1e6, so survivors start after one hop
            starts = ((base + r, steps[r][1] * a + tail[r]) for r in walk[i:e])
            k0, hlim = depth, lim0 - depth  # a hop of up to depth steps ends by lim0
        else:
            starts, k0, hlim = zip(range(lo, hi + 1), range(lo, hi + 1)), 0, -1
        for n, v in starts:
            if low and (n == 1 or n in minima):
                continue
            k = k0
            while k <= hlim and v >= n:
                r = v % size
                h, mu = steps[r]
                k += h
                v = mu * (v // size) + tail[r]
            if v < n:  # descended at a hop's end
                if k > most:
                    most, most_n = k, n
                continue
            tortoise, lim = 0, lim0  # no orbit value is 0
            while True:
                while k < lim:
                    r = v % m
                    v = (alpha * v + b * r) // d if r else v // d
                    k += 1
                    if v < n or low and v in minima:
                        if k > most:
                            most, most_n = k, n
                        break
                    if v == tortoise:  # the orbit repeats from here and never descends
                        k = lim = budget
                else:
                    if k < budget:  # move the tortoise to v and double the stretch
                        tortoise, lim = v, min(budget, 2 * k)
                        continue
                    failures.append(n)
                break
    return failures, (most, most_n)


def _stopping_times(t, lo, hi, minima, budget, triv=None, members=frozenset()):
    """Stopping times into minima of the seeds lo..hi, walked in ascending order.

    sigma and trapped are the memo, indexed by the seed: a pair of arrays from
    0 when hi is below 20 range lengths, else a pair of defaultdicts that
    read a missing key as _FAILED and 0.  sigma[n] is n's
    stopping time, or _FAILED when the budget is spent or the orbit is trapped
    in a cycle with no minimum: it returns to n, or from step _TORTOISE_AT on
    meets Brent's tortoise (as in detect_cycle), which rides in the set the
    loop probes anyway.  trapped[n] is set when the orbit meets members short
    of a minimum, ends at a minimum other than triv, returns to n, or reaches
    a seed whose bit is set.  A walk ends at an orbit value v in [lo, n)
    with v's bit, and with a stopping time iff the two times sum to at most
    the budget; at a resolved v below lo or in (n, hi] only in that case.
    So sigma[n] is total_stopping_time(t, n, minima, budget) or _FAILED.

    A walk that reaches a minimum within the budget also resolves every orbit
    value v below lo or in (n, hi] it passed, so orbits that climb far before
    they fall (large d), or fall far below a block that starts far out, are
    walked once, not once per seed on them: at step k, sigma[v] = s - k,
    and trapped[v] comes from the walk's end and the members met after step
    k.  Both depend only on the orbit up to its first minimum, so a walk from
    v would find the same, and v is not walked.  Failures are not
    propagated: a walk from v gets the whole budget again and might end
    otherwise, so _FAILED outside [lo, n] means "not yet known".  As values
    below lo hold entries too, trapped.count(1) counts the seeds' bits only
    when lo = 1.
    Returns (failures, best, best_trivial, (sigma, trapped)): best and
    best_trivial are the first (sigma, n) with the largest sigma over all
    seeds and over those with a clear trapped bit, or (-1, 0).
    """
    # the arrays take 5 bytes per value up to hi, the dicts at least about 100
    # per seed of the range, so the arrays are the smaller memo below 20 lengths
    if hi < 20 * (hi - lo + 1):
        sigma, trapped = _memo(hi, array("I", [_FAILED]), bytearray(1))
    else:
        sigma, trapped = defaultdict(lambda: _FAILED), defaultdict(int)
    d, alpha = t.d, t.alpha
    m, b = _step_form(d, t.beta, t.kappa0)
    probe = minima | members
    lim0 = min(budget, _TORTOISE_AT)
    cap = min(budget, _FAILED - 1)  # the longest success joined or propagated
    path = []  # v, k of the walk's orbit values below lo or in (n, hi], flat
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
                    if v <= n and v >= lo:
                        if v < n:
                            prior = sigma[v]
                            s = k + prior if k + prior <= cap else _FAILED
                            e = trapped[v]
                        else:  # n is the least member of a cycle with no minimum
                            e = 1
                        break
                    elif v <= hi:  # above n, or below lo
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
        failures, best = _descent_seeds(t, bstart, bend, minima, budget)
    else:
        failures, best, _, _ = _stopping_times(t, bstart, bend, minima, budget)
    return {
        "type": "block",
        "block_start": bstart,
        "block_end": bend,
        "status": "pass" if not failures else "fail",
        "verified": bend - bstart + 1 - len(failures),
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
    fn, jobs: dict, key: tuple, header: dict, checkpoint: str | None, workers: int, well_formed
) -> dict:
    """Run fn on every job, in the order of jobs, and return {job key: fn's
    journal record}; with workers > 1, the pending jobs share one pool of at
    most workers, pending jobs and os.cpu_count() processes.

    jobs maps each key, a tuple of ints, to fn's argument; a record's values
    at the fields named in key give its job.  With a checkpoint path, records
    journaled by an earlier run of the same scan are reused, and each new
    record is appended and flushed as soon as it exists (in the order of
    jobs).  A non-empty journal must start with a scan_header line of schema
    gcollatz.checkpoint/2 holding header's fields, and every complete record
    of a job must pass well_formed, else ValueError (naming the record by
    every key field) before any job runs; torn record lines are skipped
    (their jobs rerun) and a torn last line is sealed.
    """
    results = {}
    header = {"type": "scan_header", "schema": "gcollatz.checkpoint/2", **header}
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
            # only the current header's keys count: a field no longer written is ignored
            if any(first.get(k) != v for k, v in header.items()):
                raise ValueError(f"checkpoint {checkpoint} belongs to a different scan")
            for line in lines[1:]:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # line interrupted mid-write; its job reruns
                job = tuple(rec.get(f) for f in key) if isinstance(rec, dict) else ()
                if _ints(list(job)) and job in jobs:
                    if not well_formed(rec):
                        name = ", ".join(f"{f} {v}" for f, v in zip(key, job))
                        raise ValueError(f"checkpoint {checkpoint} has a malformed record for {name}")
                    results[job] = rec
            opening = "" if data.endswith(b"\n") else "\n"

    pending = [args for k, args in jobs.items() if k not in results]
    with open(checkpoint, "a", encoding="utf-8") if checkpoint else nullcontext() as journal:

        def record(rec):
            results[tuple(rec[f] for f in key)] = rec
            if journal:
                journal.write(json.dumps(rec, sort_keys=True) + "\n")
                journal.flush()

        if journal:
            journal.write(opening)
        # no more processes than jobs or CPUs: records do not depend on the count
        workers = min(workers, len(pending), os.cpu_count() or 1)
        if workers <= 1:
            for args in pending:
                record(fn(args))
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
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

    The report is a pure function of (t, range, mode, minima, budget) but
    for its block_size field; workers change only the wall time.  With a
    checkpoint path, finished blocks are journaled and a rerun skips them.
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
    # the jobs dict holds one entry per block, built before any block runs
    count = -(-(n_end - n_start + 1) // block_size)
    if count > sys.maxsize:
        raise OverflowError(f"{count} blocks of {block_size} seeds do not fit an index")

    header = {
        "triplet": t.as_dict(),
        "range": [n_start, n_end],
        "mode": mode,
        "minima": list(minima),
        "budget": budget,
        "block_size": block_size,
    }
    blocks = _blocks(n_start, n_end, block_size)
    jobs = {(b0,): (t, b0, b1, mode, minima, budget) for b0, b1 in blocks}
    results = _run_journaled(
        _certify_block, jobs, ("block_start",), header, checkpoint, workers, _block_record_ok
    )

    recs = [results[b] for b in sorted(results)]
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
    """Scan one (p, q) column; returns its journal record: p and MapSigmaScan.

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
    scan = MapSigmaScan(q, *best, *best_trivial, len(failures), trapped.count(1))
    return {"type": "map", "p": p, **asdict(scan)}


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


def max_stopping_scans(
    ps: Iterable[int],
    n_max: int,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    checkpoint: str | None = None,
) -> tuple[MaxStoppingScan, ...]:
    """Maximum stopping time over 0 <= q <= p and 1 <= n <= n_max, one row
    per p in ps, in the order of ps.

    Each (p, q) column is scanned by one in-order memoized pass (the exact
    stopping time of every seed is resolved via already-resolved smaller
    seeds).  Columns are independent: those of all rows go to one
    _run_journaled call and share one pool, largest p (the costliest) first;
    the rows do not depend on worker count or order.  With a checkpoint path,
    finished columns are journaled in that order and reruns skip them; the
    header's p is the list ps, even for one row, so a journal whose p is a
    bare int is a different scan and is refused.  The header also lists each
    column's sorted attractor minima, in job order, so a journal written
    under another cycle registry is refused too.
    """
    ps = list(ps)
    _need_at_least("p", min(ps, default=0), 0)
    _need_at_least("n_max", n_max, 1)
    _need_at_least("budget", budget, 1)
    _need_at_least("workers", workers, 1)
    jobs = {(p, q): (p, q, n_max, budget) for p in sorted(set(ps), reverse=True) for q in range(p + 1)}
    header = {"kind": "max_stopping_scan", "p": ps, "n_max": n_max, "budget": budget,
              "minima": [sorted(attractor_minima(p, q)) for p, q in jobs]}
    recs = _run_journaled(
        _sigma_map_scan, jobs, ("p", "q"), header, checkpoint, workers, _map_record_ok
    )
    fields = MapSigmaScan.__dataclass_fields__

    def row(p):
        scans = [MapSigmaScan(**{k: recs[p, q][k] for k in fields}) for q in range(p + 1)]
        a = max(scans, key=lambda m: m.max_sigma)  # on a tie, the lowest q
        b = max(scans, key=lambda m: m.max_sigma_trivial)
        return MaxStoppingScan(
            p, n_max, budget, tuple(scans),
            a.max_sigma, a.q, a.argmax_n,
            b.max_sigma_trivial, b.q, b.argmax_n_trivial,
            sum(m.unknown for m in scans),
        )

    return tuple(map(row, ps))
