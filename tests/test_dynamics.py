"""Forward-orbit engines: trajectories, cycles, stopping times, range scans."""

import functools
import json
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcollatz import dynamics
from gcollatz.core import DomainError, check_total, iterate, report_json, step, validate_triplet
from gcollatz.dynamics import (
    DEFAULT_BLOCK,
    descent_time,
    detect_cycle,
    find_cycles_in_range,
    max_stopping_scans,
    total_stopping_time,
    trajectory,
    verify_range,
)
from gcollatz.family import attractor_minima, make_pq

T_MOD10 = validate_triplet(10, 12, 8)
T_MOD5 = validate_triplet(5, 6, 4)
T_CLASSIC = validate_triplet(2, 3, 1)

TRAJ_75 = (75, 94, 116, 144, 176, 216, 264, 320, 32, 40, 4)
TRAJ_95 = (95, 19, 26, 32, 40, 8, 12, 16, 20, 4)


def test_trajectory_golden_75():
    tr = trajectory(T_MOD10, 75, stop={4})
    assert tr.values == TRAJ_75
    assert tr.terminal == "hit_attractor"
    assert tr.stopped_at == 10


def test_trajectory_golden_95():
    tr = trajectory(T_MOD5, 95, stop={4})
    assert tr.values == TRAJ_95
    assert tr.stopped_at == 9


def test_trajectory_already_at_attractor():
    tr = trajectory(T_MOD10, 4, stop={4})
    assert tr.values == (4,)
    assert tr.terminal == "hit_attractor"
    assert tr.stopped_at == 0


def test_trajectory_descent_and_budget_modes():
    tr = trajectory(T_MOD10, 75, stop="descent")
    assert tr.terminal == "descended"
    assert tr.stopped_at == 8
    assert tr.values[-1] == 32

    tr = trajectory(T_MOD10, 75, budget=3)
    assert tr.terminal == "budget_exhausted"
    assert tr.values == (75, 94, 116, 144)


def test_trajectory_ends_when_a_cycle_closes():
    # 1305 is the least member of a 17-cycle of (12,14,10)+ with no minimum
    # in {4, 5}, and 2 under (10,12,8)+ enters the cycle through 4 without
    # falling below 2: both walks end at Brent's test, not after the budget
    for t, n, stop, k in ((T_TRAPPED, 1305, {4, 5}, 48), (make_pq(3, 1), 2, "descent", 13)):
        tr = trajectory(t, n, stop=stop)
        assert (tr.terminal, tr.stopped_at, len(tr.values)) == ("cycle", k, k + 1)
        assert tr.values[-1] in tr.values[:-1]
    tr = trajectory(T_CLASSIC, 7)  # with no stop set, a cycle still ends the walk
    assert (tr.terminal, tr.values[-2:]) == ("cycle", (2, 1))


@given(st.integers(1, 10**6))
@settings(max_examples=80, deadline=None)
def test_trajectory_values_glue(n):
    tr = trajectory(T_MOD10, n, stop={4})
    for a, b in zip(tr.values, tr.values[1:]):
        assert step(T_MOD10, a) == b


# ---------------------------------------------------------------------------
# cycle detection
# ---------------------------------------------------------------------------

def _detect_cycle_plain(t, n, budget):
    # Reference for detect_cycle: Brent's loop on its own, with power and
    # lam counters in place of the walker's tortoise steps 0, 1, 3, 7, ...
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
    i = members.index(min(members))
    return tuple(members[i:] + members[:i])


def _total_stopping_time_plain(t, n, minima, budget):
    v, k = n, 0
    while v not in minima:
        if k >= budget:
            return None
        v = step(t, v)
        k += 1
    return k


def _descent_time_plain(t, n, budget):
    v, k = n, 0
    while k < budget:
        v = step(t, v)
        k += 1
        if v < n:
            return k
    return None


# (2,5,1)+ diverges from most seeds; the others converge, and the minus maps
# and (12,14,10)+ also have cycles whose minima are left out below
WALK_MAPS = [
    (T_CLASSIC, {1}),
    (T_MOD10, {4}),
    (validate_triplet(12, 14, 10), {4, 5}),
    (validate_triplet(2, 5, 1), {1}),
    (validate_triplet(3, 4, 1, -1), {1}),
    (validate_triplet(5, 7, 2, -1), {1, 2}),
    (validate_triplet(6, 7, 1, -1), {1, 23}),
    (validate_triplet(3, 5, 2, -1), {1}),
]


@pytest.mark.parametrize("t, minima", WALK_MAPS, ids=[t.label for t, _ in WALK_MAPS])
def test_orbit_walker_matches_plain_loops(t, minima):
    # the walker stops early at cycle closure; the answers at every budget,
    # exhausted ones included, are those of the loops that walk to the end
    for budget in (*range(1, 40), 100, 257, 2000):
        for n in range(1, 400):
            c = detect_cycle(t, n, budget)
            assert (c and c.members) == _detect_cycle_plain(t, n, budget), (n, budget)
            want = _total_stopping_time_plain(t, n, minima, budget)
            assert total_stopping_time(t, n, minima, budget) == want, (n, budget)
            if n > 1:
                assert descent_time(t, n, budget) == _descent_time_plain(t, n, budget), (n, budget)
    for n in range(1, 400):
        assert total_stopping_time(t, n, minima, 0) == (0 if n in minima else None)
        assert n == 1 or descent_time(t, n, 0) is None


def test_detect_cycle_classic():
    c = detect_cycle(T_CLASSIC, 7)
    assert c.members == (1, 2)


def test_detect_cycle_mod12():
    c = detect_cycle(validate_triplet(12, 14, 10), 4)
    assert c.members == (4, 8, 16, 22, 34, 48)


def test_detect_cycle_exceptional_length():
    c = detect_cycle(make_pq(5, 2), 76200)
    assert c.length == 70
    assert c.omega == 76200


def test_detect_cycle_budget():
    assert detect_cycle(T_CLASSIC, 2**40 + 1, budget=5) is None


def test_find_cycles_mod12():
    scan = find_cycles_in_range(validate_triplet(12, 14, 10), 2 * 10**4)
    assert [c.omega for c in scan.cycles] == [4, 5, 1305]
    assert {c.omega: c.length for c in scan.cycles} == {4: 6, 5: 7, 1305: 17}
    assert scan.exhausted == ()


def test_find_cycles_equal_family():
    scan = find_cycles_in_range(make_pq(2, 2), 10**3)
    assert [c.omega for c in scan.cycles] == [1, 67]
    assert [c.omega for c in find_cycles_in_range(T_CLASSIC, 10**3).cycles] == [1]


def test_found_cycles_are_closed_and_disjoint():
    scan = find_cycles_in_range(validate_triplet(12, 14, 10), 2000)
    seen = set()
    for c in scan.cycles:
        assert not (seen & set(c.members))
        seen |= set(c.members)
        for i, m in enumerate(c.members):
            assert step(c.triplet, m) == c.members[(i + 1) % c.length]


def _cycle_seeds_plain(t, n_max, budget):
    # detect_cycle from every seed: None when exhausted, else its cycle
    return [detect_cycle(t, n, budget) for n in range(1, n_max + 1)]


def _find_cycles_plain(t, n_max, budget, seeds=None):
    # Reference for find_cycles_in_range: a fresh detect_cycle from every
    # seed, deduplicated by minimum element (seeds: _cycle_seeds_plain's list
    # for n_max or more)
    seeds = seeds or _cycle_seeds_plain(t, n_max, budget)
    found = {c.omega: c for c in seeds[:n_max] if c is not None}
    exhausted = tuple(n for n, c in enumerate(seeds[:n_max], 1) if c is None)
    return dynamics.CycleScan(tuple(found[w] for w in sorted(found)), exhausted)


@pytest.mark.parametrize("t", [t for t, _ in WALK_MAPS], ids=[t.label for t, _ in WALK_MAPS])
def test_find_cycles_matches_plain_loop(t):
    # the memo depends on n_max (only seeds up to it are kept), so every
    # prefix is scanned on its own, at every budget of the orbit walker test
    for budget in (*range(1, 41), 100, 257, 2000):
        seeds = _cycle_seeds_plain(t, 400, budget)
        for n_max in (*range(1, 41), 64, 100, 150, 255, 256, 257, 399, 400):
            want = _find_cycles_plain(t, n_max, budget, seeds)
            assert find_cycles_in_range(t, n_max, budget) == want, (n_max, budget)


@st.composite
def _small_triplets(draw):
    # valid, total triplets with d <= 9 of both signs: alpha + kappa0*beta = j*d
    d = draw(st.integers(2, 9))
    kappa = draw(st.sampled_from((1, -1)))
    alpha = draw(st.integers(d + 1, 4 * d).filter(lambda a: a % d))
    j = draw(st.integers(0 if kappa < 0 else 1, 4))
    t = validate_triplet(d, alpha, kappa * (j * d - alpha), kappa)
    try:
        check_total(t)
    except DomainError:
        assume(False)
    return t


@given(_small_triplets(), st.integers(1, 150), st.integers(1, 300))
@settings(max_examples=120, deadline=None)
def test_find_cycles_matches_plain_loop_random(t, n_max, budget):
    assert find_cycles_in_range(t, n_max, budget) == _find_cycles_plain(t, n_max, budget)


def _tail_and_cycle(t, n):
    # (mu, lam) of n's orbit from a dict of every value seen, or None when
    # no value repeats within 2000 steps
    seen, v = {}, n
    for k in range(2000):
        if v in seen:
            return seen[v], k - seen[v]
        seen[v] = k
        v = step(t, v)
    return None


@pytest.mark.parametrize("t", [t for t, _ in WALK_MAPS], ids=[t.label for t, _ in WALK_MAPS])
def test_brent_closure_step_closed_form(t):
    # _walk closes Brent's test at T + lam, T the least 2^i - 1 with T >= mu
    # and 2^i >= lam; find_cycles_in_range judges its seeds by that step
    # through _brent_reach
    closed = 0
    for n in range(1, 400):
        tail = _tail_and_cycle(t, n)
        if tail is None:
            continue
        mu, lam = tail
        terminal, k, _ = dynamics._walk(t, n, frozenset(), False, 10**4)
        assert terminal == "cycle", n
        assert k == (1 << max(mu.bit_length(), (lam - 1).bit_length())) - 1 + lam, (n, mu, lam)
        for budget in (*range(1, 70), 100, 127, 128, 257, 2000):
            assert (k <= budget) == (mu <= dynamics._brent_reach(lam, budget)), (n, budget)
        closed += 1
    assert closed > 50


# ---------------------------------------------------------------------------
# stopping times
# ---------------------------------------------------------------------------

def test_total_stopping_time():
    assert total_stopping_time(T_MOD10, 75, {4}) == 10
    assert total_stopping_time(T_MOD10, 4, {4}) == 0
    assert total_stopping_time(T_CLASSIC, 3, {1}) == 5
    assert total_stopping_time(T_CLASSIC, 3, {1}, budget=4) is None


def test_descent_time():
    assert descent_time(T_MOD10, 75) == 8
    assert descent_time(T_CLASSIC, 4) == 1
    assert descent_time(T_CLASSIC, 3) == 4
    with pytest.raises(ValueError):
        descent_time(T_CLASSIC, 1)


@given(st.integers(2, 10**5))
@settings(max_examples=100, deadline=None)
def test_sigma_additivity(n):
    minima = {4}
    s = total_stopping_time(T_MOD10, n, minima)
    if s is not None and s >= 1 and n not in minima:
        assert total_stopping_time(T_MOD10, step(T_MOD10, n), minima) == s - 1


# ---------------------------------------------------------------------------
# range verification
# ---------------------------------------------------------------------------

def test_verify_range_descent_mod10():
    rep = verify_range(T_MOD10, 1, 10**4, mode="descent", minima={4})
    assert rep.failures == ()
    assert rep.verified == 10**4
    assert rep.passed


def test_verify_range_attractor_classic():
    rep = verify_range(T_CLASSIC, 1, 10**4, mode="attractor", minima={1})
    assert rep.failures == ()
    # the stopping-time record holder in [1, 10^4]
    assert rep.max_sigma is not None
    n, s = rep.max_sigma
    assert total_stopping_time(T_CLASSIC, n, {1}) == s


def test_descent_agrees_with_attractor():
    for t, minima in ((T_MOD10, {4}), (T_MOD5, {4})):
        a = verify_range(t, 1, 10**4, mode="descent", minima=minima)
        b = verify_range(t, 1, 10**4, mode="attractor", minima=minima)
        assert a.failures == b.failures == ()


def test_verify_range_reports_failures():
    # (12,14,10) scanned against the wrong attractor {5}: seeds on the
    # Omega(4) cycle cannot be certified in attractor mode.
    t = validate_triplet(12, 14, 10)
    rep = verify_range(t, 1, 60, mode="attractor", minima={5}, budget=3000)
    assert 4 in rep.failures
    assert not rep.passed
    assert rep.verified + len(rep.failures) == 60


def test_attractor_sigma_matches_naive():
    # block-local memoization must not change any stopping time
    t = make_pq(2, 0)
    minima = attractor_minima(2, 0)
    rep = verify_range(t, 1, 3000, mode="attractor", minima=minima, block_size=512)
    assert rep.failures == ()
    n, s = rep.max_sigma
    assert total_stopping_time(t, n, minima) == s
    naive_max = max(total_stopping_time(t, m, minima) for m in range(1, 3001))
    assert s == naive_max


T_TRAPPED = validate_triplet(12, 14, 10)  # orbits also close a cycle through 1305, not {4, 5}


def _trapped_scan(**kw):
    return verify_range(
        T_TRAPPED, 1, 20000, mode="attractor", minima={4, 5}, budget=10**4, block_size=4096, **kw
    )


class _CountingInt(int):
    """A modulus d that counts the remainders taken: one per inlined step."""

    steps = 0

    def __rmod__(self, other):
        _CountingInt.steps += 1
        return other % int(self)


def _counting(t):
    return validate_triplet(_CountingInt(t.d), t.alpha, t.beta, t.kappa0)


def _steps_to_fail(t, n, minima, budget, mode="attractor"):
    t = _counting(t)
    _CountingInt.steps = 0
    rec = dynamics._certify_block((t, n, n, mode, frozenset(minima), budget))
    assert rec["failures"] == [n]
    return _CountingInt.steps


def test_trapped_seed_exits_at_cycle_closure():
    # 1305, the least member of a 17-cycle with no minimum, fails as soon as
    # its orbit comes back to it; 955 enters that cycle above itself, so it
    # fails soon after the first tortoise goes down, not after the budget
    assert _steps_to_fail(T_TRAPPED, 1305, {4, 5}, 10**6) == 17
    steps = _steps_to_fail(T_TRAPPED, 955, {4, 5}, 10**6)
    assert dynamics._TORTOISE_AT < steps < 2 * dynamics._TORTOISE_AT


def test_descent_seed_in_an_unlisted_cycle_exits_at_cycle_closure():
    # neither seed ever falls below itself, and a descent walk does not stop
    # when it returns to its seed: both fail once the orbit meets the
    # tortoise put down at step _TORTOISE_AT, not after the budget
    for n in (1305, 955):
        steps = _steps_to_fail(T_TRAPPED, n, {4, 5}, 10**6, mode="descent")
        assert dynamics._TORTOISE_AT < steps < 2 * dynamics._TORTOISE_AT


def test_find_cycles_walks_each_orbit_once():
    # a walk ends at the first seed or cycle member whose tail is known, so
    # 1..2e4 take under 100k steps (about 1M with a fresh Brent walk, and a
    # second lap of the cycle, from every seed)
    _CountingInt.steps = 0
    scan = find_cycles_in_range(_counting(T_TRAPPED), 2 * 10**4)
    assert _CountingInt.steps < 100_000
    assert [(c.omega, c.length) for c in scan.cycles] == [(4, 6), (5, 7), (1305, 17)]
    assert scan.exhausted == ()


def test_find_cycles_keeps_no_diverging_orbit():
    # most (2,5,1)+ orbits climb without end; only values up to n_max are
    # kept, so the 11 exhausted walks of 1e4 steps stay far below 1 MB
    tracemalloc.start()
    try:
        scan = find_cycles_in_range(validate_triplet(2, 5, 1), 30, budget=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [c.omega for c in scan.cycles] == [1, 13, 17]
    assert scan.exhausted == (7, 9, 11, 14, 18, 21, 22, 23, 25, 28, 29)


@functools.cache
def _trapped_naive() -> dict:
    return {n: total_stopping_time(T_TRAPPED, n, {4, 5}, 10**4) for n in range(1, 20001)}


@pytest.mark.parametrize("tortoise_at", [1, 3, 256])
def test_attractor_trapped_seeds_match_naive(monkeypatch, tortoise_at):
    # trapped seeds fail when their orbit closes the cycle, not after the
    # whole budget; failures and record must be those of a naive run.  With
    # the first tortoise down at step 1 or 3, orbits cross many tortoise
    # moves, with and without block-memo hits, and no success may turn into
    # a failure or change its stopping time
    monkeypatch.setattr(dynamics, "_TORTOISE_AT", tortoise_at)
    rep = _trapped_scan()
    naive = _trapped_naive()
    assert 1305 in rep.failures
    assert list(rep.failures) == [n for n, s in naive.items() if s is None]
    assert rep.verified == 20000 - len(rep.failures)
    top = max(s for s in naive.values() if s is not None)
    assert rep.max_sigma == (min(n for n, s in naive.items() if s == top), top)
    kw = dict(mode="attractor", minima={1}, block_size=1, budget=10**4)
    for n in range(2, 401):
        assert verify_range(T_CLASSIC, n, n, **kw).max_sigma == (n, total_stopping_time(T_CLASSIC, n, {1}))


def test_attractor_late_success_across_tortoise():
    # (2,3,1)+ takes 278 steps from 230631 to 1, past the first tortoise at
    # step 256; block_size=1 leaves no memo, so the loop walks all of them
    n, s = 230631, 278
    assert total_stopping_time(T_CLASSIC, n, {1}) == s
    kw = dict(mode="attractor", minima={1}, block_size=1)
    rep = verify_range(T_CLASSIC, n, n, budget=s, **kw)
    assert rep.passed and rep.max_sigma == (n, s)
    for budget in (s - 1, 257, 256, 100):
        rep = verify_range(T_CLASSIC, n, n, budget=budget, **kw)
        assert rep.failures == (n,) and rep.max_sigma is None


def test_attractor_budget_bounds_the_stopping_time():
    # --budget bounds the stopping time: a walk that meets a smaller seed of
    # its block joins that seed's time only if the sum stays within the
    # budget, so failures and record are those of total_stopping_time seed
    # by seed, at every block size
    alone = [n for n in range(1, 2001) if total_stopping_time(T_CLASSIC, n, {1}, 10) is None]
    assert len(alone) == 1956
    for block_size in (DEFAULT_BLOCK, 1, 7):
        rep = verify_range(T_CLASSIC, 1, 2000, mode="attractor", minima={1}, budget=10,
                           block_size=block_size)
        assert list(rep.failures) == alone
        assert rep.max_sigma == (11, 10)


def test_attractor_trapped_scan_worker_and_journal_identity(tmp_path):
    one, two = tmp_path / "one.ndjson", tmp_path / "two.ndjson"
    a = _trapped_scan(workers=1, checkpoint=str(one))
    b = _trapped_scan(workers=2, checkpoint=str(two))
    assert report_json(a.to_dict(include_timing=False)) == report_json(b.to_dict(include_timing=False))
    assert one.read_bytes() == two.read_bytes()


# kappa0 = -1 maps: every cycle below 3000 listed as minima (found with budget
# 1e4, no seed exhausted), except (3,5,2)-, whose cycles at 8, 11, 13 and 16
# are left out so that 2979 of 1..3000 are trapped and reach the tortoise
MINUS_MAPS = [
    (validate_triplet(3, 4, 1, -1), (1, 7), 10**4),
    (validate_triplet(5, 7, 2, -1), (1, 2, 12), 10**4),
    (validate_triplet(6, 7, 1, -1), (1, 23, 88), 10**4),
    (validate_triplet(3, 5, 2, -1), (1,), 10**3),
]


# the same maps at budgets that fail seeds whose smaller orbit values
# succeed, and (2,3,1)+ at budget 40; a join past the budget would change
# failures with the block size
STARVED_MAPS = [(T_CLASSIC, (1,), 40)] + [
    (t, minima, budget) for (t, minima, _), budget in zip(MINUS_MAPS, (30, 300, 60, 8))
]


@pytest.mark.parametrize(
    "t, minima, budget",
    MINUS_MAPS + STARVED_MAPS,
    ids=[t.label for t, _, _ in MINUS_MAPS] + [f"{t.label}-budget{b}" for t, _, b in STARVED_MAPS],
)
@pytest.mark.parametrize("lo", [1, 10**12 + 1])
def test_attractor_minus_maps_match_naive(t, minima, budget, lo):
    naive = {n: total_stopping_time(t, n, minima, budget) for n in range(lo, lo + 3000)}
    failures = [n for n, s in naive.items() if s is None]
    top = max((s for s in naive.values() if s is not None), default=None)
    best = None if top is None else (min(n for n, s in naive.items() if s == top), top)
    for block_size in (3000, 777, 1):
        rep = verify_range(t, lo, lo + 2999, mode="attractor", minima=minima, budget=budget,
                           block_size=block_size)
        assert list(rep.failures) == failures
        assert rep.verified == 3000 - len(failures)
        assert rep.max_sigma == best


def test_verify_range_worker_determinism():
    kw = dict(mode="descent", minima={4}, block_size=1024)
    a = verify_range(T_MOD10, 1, 20000, workers=1, **kw)
    b = verify_range(T_MOD10, 1, 20000, workers=4, **kw)
    assert report_json(a.to_dict(include_timing=False)) == report_json(b.to_dict(include_timing=False))


def test_verify_range_checkpoint_resume(tmp_path):
    ck = tmp_path / "scan.ndjson"
    kw = dict(mode="descent", minima={4}, block_size=1024)
    full = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)

    # simulate an interrupt: drop the last two block records plus a torn line
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-2]) + "\n" + '{"type": "block", "block_st')
    resumed = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)
    assert report_json(resumed.to_dict(include_timing=False)) == report_json(full.to_dict(include_timing=False))

    # a fully complete checkpoint short-circuits the whole scan
    again = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)
    assert report_json(again.to_dict(include_timing=False)) == report_json(full.to_dict(include_timing=False))


def test_verify_range_checkpoint_mismatch(tmp_path):
    ck = tmp_path / "scan.ndjson"
    verify_range(T_MOD10, 1, 2000, mode="descent", minima={4}, checkpoint=str(ck))
    with pytest.raises(ValueError):
        verify_range(T_MOD10, 1, 3000, mode="descent", minima={4}, checkpoint=str(ck))


# Record lines of two small journals, fixed before the journal code was
# merged into one helper; resume and the README's format depend on them.
VERIFY_JOURNAL_RECORDS = [
    '{"argmax_n": 135, "block_end": 1000, "block_start": 1, "failures": [], "max_sigma": [47, 135], '
    '"status": "pass", "type": "block", "verified": 1000}',
    '{"argmax_n": 1144, "block_end": 2000, "block_start": 1001, "failures": [], "max_sigma": [35, 1144], '
    '"status": "pass", "type": "block", "verified": 1000}',
    '{"argmax_n": 2077, "block_end": 3000, "block_start": 2001, "failures": [], "max_sigma": [62, 2077], '
    '"status": "pass", "type": "block", "verified": 1000}',
]
TABLE_JOURNAL_RECORDS = [
    '{"argmax_n": 1383, "argmax_n_trivial": 1383, "max_sigma": 144, "max_sigma_trivial": 144, '
    '"p": 2, "q": 0, "trivial_unreachable": 0, "type": "map", "unknown": 0}',
    '{"argmax_n": 1619, "argmax_n_trivial": 1619, "max_sigma": 53, "max_sigma_trivial": 53, '
    '"p": 2, "q": 1, "trivial_unreachable": 69, "type": "map", "unknown": 0}',
    '{"argmax_n": 1403, "argmax_n_trivial": 1403, "max_sigma": 51, "max_sigma_trivial": 51, '
    '"p": 2, "q": 2, "trivial_unreachable": 36, "type": "map", "unknown": 0}',
]


def test_journal_record_bytes(tmp_path):
    ck = tmp_path / "verify.ndjson"
    verify_range(T_MOD10, 1, 3000, mode="descent", minima={4}, block_size=1000, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "scan_header"
    assert lines[1:] == VERIFY_JOURNAL_RECORDS

    ck = tmp_path / "table.ndjson"
    max_stopping_scans([2], 2000, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "scan_header" and header["p"] == [2]  # a list even for one row
    assert lines[1:] == TABLE_JOURNAL_RECORDS


def test_max_stopping_scans_refuses_journal_with_bare_int_p(tmp_path):
    # a one-row journal whose header gives p as a bare int, not the list of
    # rows, comes from a different scan: it is refused and left as it was
    ck = tmp_path / "table.ndjson"
    max_stopping_scans([2], 2000, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    header = json.loads(lines[0])
    header["p"] = 2
    ck.write_text("\n".join([json.dumps(header, sort_keys=True), *lines[1:]]) + "\n")
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="belongs to a different scan"):
        max_stopping_scans([2], 2000, checkpoint=str(ck))
    assert ck.read_bytes() == before


def test_max_stopping_scans_refuses_journal_of_another_registry(tmp_path, monkeypatch):
    # a column's records depend on the cycle registry through its minima: a
    # journal written with only the trivial cycles known is a different scan
    # under the real registry, refused and left as it was
    ck = tmp_path / "table.ndjson"
    with monkeypatch.context() as m:
        m.setattr(dynamics, "exceptional_registry", lambda: {})
        m.setattr(dynamics, "attractor_minima", lambda p, q: frozenset({2 ** (p - q)}))
        max_stopping_scans([1], 1000, checkpoint=str(ck))
    assert json.loads(ck.read_text().splitlines()[0])["minima"] == [[2], [1]]
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="belongs to a different scan"):
        max_stopping_scans([1], 1000, checkpoint=str(ck))
    assert ck.read_bytes() == before


JOURNALED_SCANS = {
    "attractor": lambda ck: verify_range(T_CLASSIC, 1, 2000, mode="attractor", minima={1},
                                         budget=40, block_size=500, checkpoint=ck),
    "descent": lambda ck: verify_range(T_MOD10, 1, 2000, mode="descent", minima={4},
                                       block_size=500, checkpoint=ck),
    "table": lambda ck: max_stopping_scans([2], 2000, budget=13, checkpoint=ck),
}


@pytest.mark.parametrize("scan", JOURNALED_SCANS)
def test_checkpoint_refuses_version_1_journal(tmp_path, scan):
    # attractor and table records of gcollatz.checkpoint/1 could hold a
    # stopping time past the budget; a journal of that version, of any
    # mode, is refused as a different scan and left as it was
    ck = tmp_path / "scan.ndjson"
    JOURNALED_SCANS[scan](str(ck))
    lines = ck.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "gcollatz.checkpoint/2"
    header["schema"] = "gcollatz.checkpoint/1"
    ck.write_text("\n".join([json.dumps(header, sort_keys=True), *lines[1:]]) + "\n")
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="belongs to a different scan"):
        JOURNALED_SCANS[scan](str(ck))
    assert ck.read_bytes() == before


def _rewrite_journal(ck, *records):
    """Keep the journal's header line and replace its records."""
    header = ck.read_text().splitlines()[0]
    ck.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")


def test_verify_range_record_tie_goes_to_the_first_block(tmp_path):
    # hand-written records, which the scan reads instead of computing them:
    # blocks 11 and 1 share the most steps and block 1's seed holds the
    # record, whatever the journal's order; failures come out sorted
    ck = tmp_path / "scan.ndjson"
    kw = dict(mode="descent", minima={4}, block_size=10, checkpoint=str(ck))
    verify_range(T_MOD10, 1, 20, **kw)
    block = {"type": "block", "status": "pass", "verified": 10, "failures": []}
    _rewrite_journal(
        ck,
        {**block, "block_start": 11, "block_end": 20, "max_sigma": [5, 13], "argmax_n": 13},
        {**block, "block_start": 1, "block_end": 10, "max_sigma": [5, 7], "argmax_n": 7,
         "status": "fail", "verified": 8, "failures": [9, 2]},
    )
    rep = verify_range(T_MOD10, 1, 20, **kw)
    assert rep.max_sigma == (7, 5)
    assert rep.failures == (2, 9) and rep.verified == 18


def _column(q, sigma, n, unknown=0):
    return {"type": "map", "p": 1, "q": q, "max_sigma": sigma, "argmax_n": n,
            "max_sigma_trivial": sigma, "argmax_n_trivial": n, "unknown": unknown,
            "trivial_unreachable": 0}


def test_max_stopping_scan_record_tie_goes_to_the_lowest_q(tmp_path):
    # hand-written column records: q 1 and q 0 share the largest time and q 0
    # holds the record; with no stopping time in any column (every seed
    # unknown) the record is (-1, q 0, n 0)
    ck = tmp_path / "table.ndjson"
    max_stopping_scans([1], 20, checkpoint=str(ck))
    _rewrite_journal(ck, _column(1, 9, 3), _column(0, 9, 7))
    (scan,) = max_stopping_scans([1], 20, checkpoint=str(ck))
    assert (scan.max_sigma, scan.q_at_max, scan.n_at_max) == (9, 0, 7)
    assert (scan.max_sigma_trivial, scan.q_at_max_trivial, scan.n_at_max_trivial) == (9, 0, 7)
    _rewrite_journal(ck, _column(1, -1, 0, 20), _column(0, -1, 0, 20))
    (scan,) = max_stopping_scans([1], 20, checkpoint=str(ck))
    assert (scan.max_sigma, scan.q_at_max, scan.n_at_max) == (-1, 0, 0)
    assert (scan.max_sigma_trivial, scan.q_at_max_trivial, scan.n_at_max_trivial) == (-1, 0, 0)
    assert scan.unknown == 40


def test_checkpoint_resumes_journal_with_extra_header_field(tmp_path):
    # journals whose header carries a field the scan no longer writes (such
    # as "sieve") still resume: only the current header's keys are compared
    ck = tmp_path / "scan.ndjson"
    kw = dict(mode="descent", minima={4}, block_size=1000, checkpoint=str(ck))
    full = verify_range(T_MOD10, 1, 3000, **kw)
    lines = ck.read_text().splitlines()
    header = json.loads(lines[0])
    header["sieve"] = False
    ck.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:-1]) + "\n")
    resumed = verify_range(T_MOD10, 1, 3000, **kw)
    assert report_json(resumed.to_dict(include_timing=False)) == report_json(full.to_dict(include_timing=False))
    assert ck.read_text().splitlines()[1:] == VERIFY_JOURNAL_RECORDS


HEADERLESS_FIRST_LINES = [
    '{"type": "scan_he',
    VERIFY_JOURNAL_RECORDS[0],
]


@pytest.mark.parametrize("first", HEADERLESS_FIRST_LINES, ids=["torn", "block"])
def test_verify_range_refuses_headerless_checkpoint(tmp_path, first):
    # Without a header nothing ties the records to a scan.  Were the file
    # trusted, the attractor run below would reuse the descent run's blocks
    # and report pass instead of 2000 failures.
    kw = dict(block_size=500)
    trapped = dict(mode="attractor", minima={999999}, budget=1000, **kw)
    assert len(verify_range(T_MOD10, 1, 2000, **trapped).failures) == 2000
    ck = tmp_path / "scan.ndjson"
    ck.write_text(first + "\n")
    with pytest.raises(ValueError, match="scan header"):
        verify_range(T_MOD10, 1, 2000, mode="descent", minima={4}, checkpoint=str(ck), **kw)
    with pytest.raises(ValueError, match="scan header"):
        verify_range(T_MOD10, 1, 2000, checkpoint=str(ck), **trapped)
    assert ck.read_text() == first + "\n"  # a refused journal is left as it was


@pytest.mark.parametrize("first", HEADERLESS_FIRST_LINES, ids=["torn", "block"])
def test_max_stopping_scan_refuses_headerless_checkpoint(tmp_path, first):
    ck = tmp_path / "table.ndjson"
    ck.write_text(first + "\n" + TABLE_JOURNAL_RECORDS[0] + "\n")
    for n_max in (2000, 500):
        with pytest.raises(ValueError, match="scan header"):
            max_stopping_scans([2], n_max, checkpoint=str(ck))
    assert ck.read_text() == first + "\n" + TABLE_JOURNAL_RECORDS[0] + "\n"


@pytest.mark.parametrize(
    "bad",
    [
        '{"block_start": 1, "type": "block"}',
        '{"block_start": 1, "type": "block", "verified": null, "failures": [], "max_sigma": null}',
        '{"block_start": 1, "type": "block", "verified": 999, "failures": "12", "max_sigma": null}',
        '{"block_start": 1, "type": "block", "verified": 999, "failures": [], "max_sigma": [7]}',
    ],
    ids=["missing", "null", "string", "short"],
)
def test_verify_range_refuses_malformed_record(tmp_path, bad):
    ck = tmp_path / "scan.ndjson"
    kw = dict(mode="descent", minima={4}, block_size=1000, checkpoint=str(ck))
    verify_range(T_MOD10, 1, 3000, **kw)
    header = ck.read_text().splitlines()[0]
    ck.write_text(header + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=r"checkpoint .* malformed record for block_start 1$"):
        verify_range(T_MOD10, 1, 3000, **kw)
    assert ck.read_text() == header + "\n" + bad + "\n"  # refused before any block ran


@pytest.mark.parametrize(
    "edit",
    [lambda r: r.pop("argmax_n_trivial"), lambda r: r.update(max_sigma=None), lambda r: r.update(unknown="0")],
    ids=["missing", "null", "string"],
)
def test_max_stopping_scan_refuses_malformed_record(tmp_path, edit):
    ck = tmp_path / "table.ndjson"
    max_stopping_scans([2], 2000, checkpoint=str(ck))
    header = ck.read_text().splitlines()[0]
    rec = json.loads(TABLE_JOURNAL_RECORDS[1])
    edit(rec)
    ck.write_text("\n".join([header, TABLE_JOURNAL_RECORDS[0], json.dumps(rec)]) + "\n")
    with pytest.raises(ValueError, match=r"checkpoint .* malformed record for p 2, q 1$"):
        max_stopping_scans([2], 2000, checkpoint=str(ck))


def test_max_stopping_scans_rows_share_one_journal(tmp_path):
    # rows in the order asked for, each the scan of that row alone; the
    # columns run and are journaled largest p first, ascending q within a
    # row, and a journal of several rows names them all in its header and
    # resumes
    ck = tmp_path / "rows.ndjson"
    rows = max_stopping_scans([2, 0, 3], 300, workers=2, checkpoint=str(ck))
    assert rows == tuple(row for p in (2, 0, 3) for row in max_stopping_scans([p], 300))
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["p"] == [2, 0, 3]
    order = [(3, 0), (3, 1), (3, 2), (3, 3), (2, 0), (2, 1), (2, 2), (0, 0)]
    assert [(r["p"], r["q"]) for r in map(json.loads, lines[1:])] == order
    rec = json.loads(lines[2])
    rec["unknown"] = None
    ck.write_text("\n".join([*lines[:2], json.dumps(rec)]) + "\n")
    with pytest.raises(ValueError, match=r"malformed record for p 3, q 1$"):
        max_stopping_scans([2, 0, 3], 300, checkpoint=str(ck))
    ck.write_text("\n".join(lines[:5]) + "\n")
    assert max_stopping_scans([2, 0, 3], 300, checkpoint=str(ck)) == rows
    assert ck.read_text().splitlines() == lines


def test_max_stopping_scan_checkpoint_resume(tmp_path):
    ck = tmp_path / "table.ndjson"
    full = max_stopping_scans([2], 1500, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])  # torn last record
    assert max_stopping_scans([2], 1500, checkpoint=str(ck)) == full
    assert ck.read_text().splitlines()[-1] == lines[-1]
    with pytest.raises(ValueError, match="different scan"):
        max_stopping_scans([2], 1000, checkpoint=str(ck))


@pytest.mark.parametrize("block_size", [0, -1])
def test_verify_range_rejects_block_size_below_one(tmp_path, block_size):
    # a block size below one never advances past the first block
    ck = tmp_path / "scan.ndjson"
    with pytest.raises(ValueError, match=rf"^need block_size >= 1, got {block_size}$"):
        verify_range(T_MOD10, 1, 10, checkpoint=str(ck), block_size=block_size)
    assert not ck.exists()  # refused before the journal opens


@pytest.mark.parametrize("budget", [0, -1])
def test_scans_reject_budget_below_one(tmp_path, budget):
    ck = tmp_path / "scan.ndjson"
    message = rf"^need budget >= 1, got {budget}$"
    with pytest.raises(ValueError, match=message):
        verify_range(T_MOD10, 1, 10, budget=budget, checkpoint=str(ck))
    with pytest.raises(ValueError, match=message):
        max_stopping_scans([1], 20, budget=budget, checkpoint=str(ck))
    with pytest.raises(ValueError, match=message):
        find_cycles_in_range(T_MOD10, 10, budget=budget)
    assert not ck.exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_scans_reject_workers_below_one(tmp_path, workers):
    ck = tmp_path / "scan.ndjson"
    message = rf"^need workers >= 1, got {workers}$"
    with pytest.raises(ValueError, match=message):
        verify_range(T_MOD10, 1, 10, workers=workers, checkpoint=str(ck))
    with pytest.raises(ValueError, match=message):
        max_stopping_scans([1], 20, workers=workers, checkpoint=str(ck))
    assert not ck.exists()


@pytest.mark.parametrize("low", [0, -3])
def test_minima_below_one_are_refused(tmp_path, low):
    # an orbit never meets a minimum below 1: descent mode would then take no
    # seed as a base case (seed 1 fails) and attractor mode would verify none
    ck = tmp_path / "scan.ndjson"
    message = rf"^need minima >= 1, got {low}$"
    for mode in ("descent", "attractor"):
        with pytest.raises(ValueError, match=message):
            verify_range(T_MOD10, 1, 50, mode=mode, minima={low, 4}, checkpoint=str(ck))
    with pytest.raises(ValueError, match=message):
        trajectory(T_MOD10, 5, stop={low})
    assert not ck.exists()


def test_find_cycles_rejects_empty_range():
    for n_max in (0, -5):
        with pytest.raises(ValueError, match=rf"^need n_max >= 1, got {n_max}$"):
            find_cycles_in_range(T_MOD10, n_max)


def test_max_stopping_scan_rejects_bad_column():
    with pytest.raises(ValueError, match=r"^need p >= 0, got -1$"):
        max_stopping_scans([-1], 20)
    for n_max in (0, -5):
        with pytest.raises(ValueError, match=rf"^need n_max >= 1, got {n_max}$"):
            max_stopping_scans([1], n_max)


def test_scan_report_json_shape():
    rep = verify_range(T_CLASSIC, 1, 500, mode="attractor", minima={1})
    doc = json.loads(report_json(rep.to_dict()))
    assert doc["schema"] == "gcollatz.scan_report/1"
    assert doc["triplet"] == {"d": 2, "alpha": 3, "beta": 1, "kappa0": 1}
    assert doc["range"] == [1, 500]
    assert doc["pass"] is True
    assert "wall_time" in doc
    assert "wall_time" not in json.loads(report_json(rep.to_dict(include_timing=False)))


# ---------------------------------------------------------------------------
# stopping-time records
# ---------------------------------------------------------------------------

def test_max_stopping_scan_small_oracle():
    # brute force over n <= 10 under (2,3,1), minima {1}: the record is
    # sigma(9) = 13 (9 -> 14 -> 7, and 7 needs 11 more steps)
    (scan,) = max_stopping_scans([0], 10)
    assert scan.max_sigma == 13
    assert scan.q_at_max == 0
    assert scan.n_at_max == 9
    assert scan.unknown == 0


def test_max_stopping_scan_matches_naive():
    (scan,) = max_stopping_scans([2], 2000)
    for m in scan.per_map:
        t = make_pq(2, m.q)
        minima = attractor_minima(2, m.q)
        naive = [total_stopping_time(t, n, minima) for n in range(1, 2001)]
        assert all(s is not None for s in naive)
        assert m.max_sigma == max(naive)
        assert m.argmax_n == naive.index(max(naive)) + 1


def test_max_stopping_scan_budget_bounds_each_column():
    # at budget 13 most seeds have no stopping time; each column's unknown
    # and record are those of total_stopping_time seed by seed
    for scan in max_stopping_scans(range(4), 3000, budget=13):
        for m in scan.per_map:
            t, minima = make_pq(scan.p, m.q), attractor_minima(scan.p, m.q)
            naive = [total_stopping_time(t, n, minima, 13) for n in range(1, 3001)]
            top = max((s for s in naive if s is not None), default=-1)
            assert (m.unknown, m.max_sigma) == (naive.count(None), top), (scan.p, m.q)
            assert m.argmax_n == (naive.index(top) + 1 if top >= 0 else 0), (scan.p, m.q)


def test_max_stopping_scan_trivial_convention():
    # for (2,2) the exceptional cycle from 67 never reaches the trivial
    # minimum 1, so the trivial-only column must flag unreachable seeds
    (scan,) = max_stopping_scans([2], 2000)
    m22 = next(m for m in scan.per_map if m.q == 2)
    assert m22.trivial_unreachable > 0
    m20 = next(m for m in scan.per_map if m.q == 0)
    assert m20.trivial_unreachable == 0
    assert m20.max_sigma == m20.max_sigma_trivial  # single-cycle map: conventions agree


def test_max_stopping_scan_worker_determinism():
    a = max_stopping_scans([2], 1500, workers=1)
    b = max_stopping_scans([2], 1500, workers=4)
    assert a == b


def _sigma_map_scan_two_memos(args) -> dict:
    # Reference for _sigma_map_scan: two stopping times per seed, to the full
    # minima (A) and to the trivial minimum only (B), each resolved on its
    # own, so it does not rely on the trivial-only time being the full time
    # or none.
    unknown_, inf_ = 2**32 - 1, 2**32 - 2  # budget exhausted / trapped in another cycle
    p, q, n_max, budget = args
    t = make_pq(p, q)
    d, alpha, beta = t.d, t.alpha, t.beta
    full = frozenset(dynamics.attractor_minima(p, q))
    triv = 2 ** (p - q)
    exc_members = frozenset(
        m for c in dynamics.exceptional_registry().get((p, q), ()) for m in c.members
    )
    size = n_max + 1
    A = array("I", [unknown_]) * size
    B = array("I", [unknown_]) * size
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
                        a = prior if prior >= inf_ else (k + prior if k + prior <= budget else unknown_)
                if b is None:
                    if v == triv:
                        b = k
                    elif v in exc_members:
                        b = inf_
                    elif v < n:
                        prior = B[v]
                        b = prior if prior >= inf_ else (k + prior if k + prior <= budget else unknown_)
                if v == n:  # n is the minimum of an unregistered cycle
                    if a is None:
                        a = inf_
                    if b is None:
                        b = inf_
                if a is not None and b is not None:
                    break
            if a is None:
                a = unknown_
            if b is None:
                b = unknown_
        if a < inf_ and a > best_a[0]:
            best_a = (a, n)
        if b < inf_ and b > best_b[0]:
            best_b = (b, n)
        if a >= inf_:
            unknown += 1
        if b == inf_:
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


def _assert_column_records_match(grid):
    for args in grid:
        got = json.dumps(dynamics._sigma_map_scan(args), sort_keys=True)
        assert got == json.dumps(_sigma_map_scan_two_memos(args), sort_keys=True), args


def test_sigma_map_scan_matches_two_memos():
    # every column with p <= 5, from the smallest ranges up; the small
    # budgets leave seeds unresolved, including seeds already flagged as
    # never reaching the trivial minimum
    _assert_column_records_match(
        (p, q, n_max, budget)
        for p in range(6)
        for q in range(p + 1)
        for n_max in (1, 2, 3, 50, 3000)
        for budget in (1, 2, 3, 5, 8, 13, 40, 100, 10**6)
    )


def test_sigma_map_scan_matches_two_memos_unregistered_cycles(monkeypatch):
    # with only the trivial cycle known, orbits that enter an exceptional
    # cycle come back to its minimum (no stopping time, never trivial) and
    # seeds below that minimum reuse it or spend the budget
    monkeypatch.setattr(dynamics, "exceptional_registry", lambda: {})
    monkeypatch.setattr(dynamics, "attractor_minima", lambda p, q: frozenset({2 ** (p - q)}))
    _assert_column_records_match(
        (p, q, 3000, budget)
        for p, q in ((1, 0), (2, 1), (2, 2), (3, 0), (4, 0), (5, 2))
        for budget in (1, 5, 9, 20, 50, 300, 10**4)
    )


def test_sigma_map_scan_exits_below_unregistered_cycles(monkeypatch):
    # with only the trivial cycle known, seeds below the minimum of an
    # exceptional cycle of (1,0) enter it and fail at cycle closure: the
    # record and the steps walked do not depend on the budget
    monkeypatch.setattr(dynamics, "exceptional_registry", lambda: {})
    monkeypatch.setattr(dynamics, "attractor_minima", lambda p, q: frozenset({2 ** (p - q)}))
    monkeypatch.setattr(dynamics, "make_pq", lambda p, q: _counting(make_pq(p, q)))
    runs = []
    for budget in (10**4, 10**6):
        _CountingInt.steps = 0
        rec = dynamics._sigma_map_scan((1, 0, 3000, budget))
        runs.append((rec, _CountingInt.steps))
    assert runs[0] == runs[1]
    assert runs[0][0]["unknown"] > 0


# ---------------------------------------------------------------------------
# the memoized stopping-time kernel against the loop that resolves one seed
# ---------------------------------------------------------------------------

def _stopping_times_plain(t, lo, hi, minima, budget, sigma, trapped, triv=None, members=frozenset()):
    # Reference for dynamics._stopping_times: the loop before orbit values
    # were propagated, which sets the memo only for the seed it walks and
    # reads it only below that seed.  sigma and trapped may be plain dicts.
    d, alpha = t.d, t.alpha
    m, b = dynamics._step_form(d, t.beta, t.kappa0)
    failed = dynamics._FAILED
    probe = minima | members
    lim0 = min(budget, dynamics._TORTOISE_AT)
    cap = min(budget, failed - 1)
    failures, top, top_n, top_t, top_t_n = [], -1, 0, -1, 0
    for n in range(lo, hi + 1):
        s, x = failed, 0
        if n in minima:
            s, x = 0, n != triv
        else:
            v, k = n, 0
            stops, lim = probe, lim0
            while True:
                while k < lim:
                    r = v % m
                    v = (alpha * v + b * r) // d if r else v // d
                    k += 1
                    if v in stops:
                        if v in minima:
                            s, x = k, x | (v != triv)
                            break
                        if v not in members:
                            break
                        x = 1
                    if v <= n and v >= lo:
                        if v < n:
                            prior = sigma[v]
                            s = k + prior if k + prior <= cap else failed
                            x |= trapped[v]
                        else:
                            x = 1
                        break
                else:
                    if k < budget:
                        stops, lim = probe | {v}, min(budget, 2 * k)
                        continue
                break
        sigma[n] = s
        trapped[n] = x
        if s == failed:
            failures.append(n)
        else:
            if s > top:
                top, top_n = s, n
            if not x and s > top_t:
                top_t, top_t_n = s, n
    return failures, (top, top_n), (top_t, top_t_n)


def _kernels_agree(t, lo, hi, minima, budget, triv, members):
    """Run the kernel on its own memo and the plain loop on dicts, and compare
    the memos over lo..hi and the return values.  Outside lo..hi the kernel
    may only set values below lo, each to what the plain loop finds for that
    value alone; a value it did not resolve keeps _FAILED and a clear bit."""
    minima, members = frozenset(minima), frozenset(members)
    *got, (sigma, trapped) = dynamics._stopping_times(t, lo, hi, minima, budget, triv, members)
    sigma0, trapped0 = {}, {}
    want = _stopping_times_plain(t, lo, hi, minima, budget, sigma0, trapped0, triv, members)
    label = (t.label, lo, hi, sorted(minima), budget, triv, sorted(members))
    assert tuple(got) == want, label
    seeds = range(lo, hi + 1)
    assert {n: sigma[n] for n in seeds} == sigma0, label
    assert {n: trapped[n] for n in seeds} == trapped0, label
    if isinstance(sigma, dict):
        assert set(trapped) <= set(sigma) and max(sigma) <= hi, label
    for v in list(sigma) if isinstance(sigma, dict) else range(lo):
        if v < lo and (sigma[v], trapped[v]) != (dynamics._FAILED, 0):
            assert sigma[v] <= budget, label + (v,)
            assert (sigma[v], trapped[v]) == _alone(t, v, minima, triv, members), label + (v,)


@functools.cache
def _alone(t, v, minima, triv, members):
    # the plain loop's entries for the one seed v at budget 2000, the largest
    # of the oracle tests: a time within a smaller budget is the same
    sigma, trapped = {}, {}
    _stopping_times_plain(t, v, v, minima, 2000, sigma, trapped, triv, members)
    return sigma[v], trapped[v]


# convergent triplets of both signs, with their cycles from seeds up to 400
ORACLE_MAPS = [make_pq(0, 0), make_pq(1, 0), make_pq(2, 2), make_pq(3, 1), make_pq(5, 2),
               T_TRAPPED, *(t for t, _, _ in MINUS_MAPS)]


@functools.cache
def _oracle_cycles(t) -> tuple:
    return find_cycles_in_range(t, 400, budget=2000).cycles


@pytest.mark.parametrize("t", ORACLE_MAPS, ids=[t.label for t in ORACLE_MAPS])
def test_stopping_times_match_plain_loop(t):
    # every minimum with the other cycles' members (as the table runs); the
    # least cycle only, so that seeds are trapped in the others; and members
    # of cycles whose minima are not listed.  Ranges from 1, from inside the
    # array memo, and far out in a dict memo, where walks join the values
    # below the range that earlier walks resolved; budgets around the first
    # tortoise, and short enough to fail seeds whose smaller orbit values
    # succeed
    cycles = _oracle_cycles(t)
    least = cycles[0]
    others = [m for c in cycles[1:] for m in c.members]
    configs = [
        ({c.omega for c in cycles}, least.omega, others),
        ({least.omega}, None, ()),
        ({least.omega}, least.omega, others),
        ({c.omega for c in cycles[-1:]}, cycles[-1].omega, least.members),
    ]
    for minima, triv, members in configs:
        for budget in (1, 2, 3, 5, 9, 17, 40, 256, 257, 2000):
            for lo, hi in ((1, 400), (250, 600), (20001, 20300), (10**12 + 1, 10**12 + 300)):
                _kernels_agree(t, lo, hi, minima, budget, triv, members)


@given(
    st.sampled_from(ORACLE_MAPS),
    st.one_of(st.integers(1, 50), st.integers(10**6, 10**12)),
    st.integers(1, 400),
    st.integers(1, 2000),
    st.integers(0, 2**12 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stopping_times_match_plain_loop_random(t, lo, length, budget, pick):
    # random minima, members and triv drawn from the map's cycles (the bits
    # of pick); triv may also be a member, a value off every cycle, or None
    cycles = _oracle_cycles(t)
    minima = {c.omega for i, c in enumerate(cycles) if pick >> i & 1} or {cycles[0].omega}
    members = [m for i, c in enumerate(cycles) if pick >> (i + 6) & 1 for m in c.members]
    triv = (None, min(minima), max(minima), *members[:1], 3)[pick % 5] if members else min(minima)
    _kernels_agree(t, lo, lo + length - 1, minima, budget, triv, members)


def test_big_d_column_walks_each_orbit_once(monkeypatch):
    # (257,258,256)+ orbits climb for about d steps before they drop below
    # their seed; each successful walk resolves the orbit values it passes in
    # range, so 1..1e4 take under 100k steps (about 2.4M when each walk
    # resolved only its seed) and the record is that of the plain loop
    monkeypatch.setattr(dynamics, "make_pq", lambda p, q: _counting(make_pq(p, q)))
    _CountingInt.steps = 0
    rec = dynamics._sigma_map_scan((8, 0, 10**4, 10**6))
    assert _CountingInt.steps < 100_000
    monkeypatch.setattr(dynamics, "make_pq", make_pq)

    def plain(t, lo, hi, minima, budget, triv, members):
        sigma, trapped = array("I", [dynamics._FAILED]) * (hi + 1), bytearray(hi + 1)
        return *_stopping_times_plain(t, lo, hi, minima, budget, sigma, trapped, triv, members), (sigma, trapped)

    monkeypatch.setattr(dynamics, "_stopping_times", plain)
    assert rec == dynamics._sigma_map_scan((8, 0, 10**4, 10**6))


def test_far_block_walks_join_below_the_block():
    # seeds from 1e12 fall far below their block before they reach 1; a walk
    # ends at a value below the block that an earlier walk resolved, so 2000
    # seeds take about 35k steps (about 336k when every walk went on to 1),
    # with the plain loop's results
    t, lo, hi, minima = T_CLASSIC, 10**12 + 1, 10**12 + 2000, frozenset({1})
    _CountingInt.steps = 0
    *got, _ = dynamics._stopping_times(_counting(t), lo, hi, minima, 10**6)
    assert _CountingInt.steps < 100_000
    assert tuple(got) == _stopping_times_plain(t, lo, hi, minima, 10**6, {}, {})


# ---------------------------------------------------------------------------
# descent mode through the residue table
# ---------------------------------------------------------------------------

def _certify_block_plain(args) -> dict:
    # Reference for descent-mode _certify_block: the loop before the residue
    # table, which starts every seed at step 0 and probes the minima on every
    # step.
    t, bstart, bend, mode, minima, budget = args
    d, alpha, beta, kappa = t.d, t.alpha, t.beta, t.kappa0
    minima = frozenset(minima)
    verified = 0
    failures = []
    best = None  # (steps, n)
    for n in range(bstart, bend + 1):
        k = 0
        ok = True
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


# all 45 maps with p, q <= 8 at their attractor minima, and four triplets
# with no minima (n = 1 is then the only base case)
SIEVE_MAPS = [
    (make_pq(p, q), tuple(sorted(attractor_minima(p, q)))) for p in range(9) for q in range(p + 1)
] + [(validate_triplet(*abk), ()) for abk in ((2, 3, 1), (5, 6, 4), (3, 4, 1, -1), (10, 12, 8))]
SIEVE_IDS = [f"{t.label}{'-no-minima' if not m else ''}" for t, m in SIEVE_MAPS]


def _depth(d: int, length: int) -> int:
    """Largest k with d^k <= min(2^14, length): the table depth of a block."""
    k = 0
    while d ** (k + 1) <= min(2**14, length):
        k += 1
    return k


def _assert_descent_matches(t, minima, n_start, n_end, block_size, budget):
    for b0, b1 in dynamics._blocks(n_start, n_end, block_size):
        args = (t, b0, b1, "descent", minima, budget)
        got = json.dumps(dynamics._certify_block(args), sort_keys=True)
        assert got == json.dumps(_certify_block_plain(args), sort_keys=True), (t.label, args[1:])


@pytest.mark.parametrize("t, minima", SIEVE_MAPS, ids=SIEVE_IDS)
def test_descent_table_matches_plain_loop(t, minima):
    # from 1 in one block and in blocks not aligned to d^k; from inside the
    # first row of d^k (a = 0, below the table's threshold); far out, where
    # blocks cut rows at both ends.  Without minima, a cycle minimum such as
    # 4 never descends and spends the budget.
    budget = 10**6 if minima else 10**4
    _assert_descent_matches(t, minima, 1, 20000, DEFAULT_BLOCK, budget)
    for block_size in (3001, 777):
        _assert_descent_matches(t, minima, 1, 6000, block_size, budget)
    size = t.d ** _depth(t.d, 6000)
    _assert_descent_matches(t, minima, size // 3 + 1, size // 3 + 6000, DEFAULT_BLOCK, budget)
    _assert_descent_matches(t, minima, 10**12 + 17, 10**12 + 5016, 5000, budget)


@pytest.mark.parametrize("t, minima", SIEVE_MAPS, ids=SIEVE_IDS)
def test_descent_table_budgets(t, minima):
    # budgets on both sides of the depth k of the block: at k and below the
    # table is not used, at k + 1 a survivor has one step left
    for n_start in (1, 10**9 + 5):
        k = _depth(t.d, 5000)
        for budget in sorted({1, k - 1, k, k + 1, 50, 10**6} - {-1, 0}):
            _assert_descent_matches(t, minima, n_start, n_start + 4999, 5000, budget)


def test_descent_table_past_64_bits():
    # (2,23,1)+ at depth 14: the survivor of the class of all ones has
    # multiplier 23^14 > 2^63.  Most seeds climb and fail at the budget.
    t = validate_triplet(2, 23, 1)
    assert max(mult for _, mult in dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, 14)[2]) == 23**14
    for budget in (15, 40):
        _assert_descent_matches(t, (), 1, 20000, DEFAULT_BLOCK, budget)
        _assert_descent_matches(t, (), 10**12 + 17, 10**12 + 20016, 20000, budget)


def test_descent_table_around_a_large_minimum():
    # (7,0) has the exceptional minimum 3027584, and 3004224 and 3004288 map
    # onto it in one step, before they fall below themselves: every row of
    # the table that reaches down to the minimum must start at step 0
    t, minima = make_pq(7, 0), tuple(sorted(attractor_minima(7, 0)))
    top = max(minima)
    assert top == 3027584 and step(t, 3004224) == step(t, 3004288) == top
    for block_size in (4000, 129 * 7, 10**4):
        for budget in (2, 50, 10**6):
            _assert_descent_matches(t, minima, top - 3000, top + 3000, block_size, budget)
            _assert_descent_matches(t, minima, 3004224 - 2000, 3004288 + 2000, block_size, budget)


def test_descent_kernel_reads_the_table_from_its_first_row(monkeypatch):
    # A stand-in table settles every class at step 200, more than any seed of
    # (10,12,8)+ below 1e5 takes, from a = 3 on.  The block's maximum then
    # names the first row of 10^4 seeds that the kernel took from the table.
    settled = bytearray([200]) * 10**4
    fake = (settled, [], [(200, 1)] * 10**4, [0] * 10**4, 3, None)
    monkeypatch.setattr(dynamics, "_descent_table", lambda *args: fake)

    def first_table_seed(minima, budget):
        return dynamics._certify_block((T_MOD10, 1, 10**5, "descent", minima, budget))["max_sigma"]

    assert first_table_seed((4,), 10**6) == [200, 30000]
    assert first_table_seed((4,), 5) == [200, 30000]
    assert first_table_seed((4,), 4)[0] <= 4  # budget <= depth: no table
    assert first_table_seed((35000,), 10**6) == [200, 40000]  # row 3 reaches down to a minimum
    assert first_table_seed((40000,), 10**6) == [200, 50000]


@given(
    st.sampled_from(range(len(SIEVE_MAPS))),
    st.one_of(st.integers(1, 10**6), st.integers(1, 10**15)),
    st.integers(1, 30000),
    st.integers(1, 20000),
    st.one_of(st.integers(1, 60), st.just(10**6)),
)
@settings(max_examples=60, deadline=None)
def test_descent_table_matches_plain_loop_random(which, n_start, length, block_size, budget):
    t, minima = SIEVE_MAPS[which]
    _assert_descent_matches(t, minima, n_start, n_start + length - 1, block_size, budget)


@pytest.mark.parametrize("tortoise_at", [1, 3])
def test_descent_tail_matches_plain_loop(monkeypatch, tortoise_at):
    # with the first tortoise down at step 1 or 3, most seeds finish under
    # Brent's test, which must descend, fail and count steps as the plain loop
    monkeypatch.setattr(dynamics, "_TORTOISE_AT", tortoise_at)
    for t, minima in SIEVE_MAPS[::4] + SIEVE_MAPS[-4:]:
        _assert_descent_matches(t, minima, 1, 3000, 1000, 10**4)
        _assert_descent_matches(t, minima, 10**12 + 17, 10**12 + 3016, 3000, 10**4)


@pytest.mark.parametrize("n, steps", [(63728127, 376), (212581558780141311, 620)])
def test_descent_table_survivor_past_the_tortoise(n, steps):
    # at the default _TORTOISE_AT, a survivor of the depth-9 table of
    # (2,3,1)+ that descends after the first tortoise (step 256) and, for
    # the second seed, after the second (step 512) too
    args = (T_CLASSIC, n - 500, n + 500, "descent", (1,), 10**6)
    table = dynamics._descent_table(2, 3, 1, 1, 9)
    assert n % 2**9 in table[1] and table[4] <= n // 2**9
    assert dynamics._certify_block(args)["max_sigma"] == [steps, n]
    _assert_descent_matches(T_CLASSIC, (1,), n - 500, n + 500, 1001, 10**6)


# a large beta keeps small seeds from descending at their class's step, so
# the threshold on a is 24 and 3 (it is 1 on every map above)
LARGE_THRESHOLD = [(validate_triplet(2, 3, 1001), 10), (validate_triplet(4, 5, 1003), 5)]


@pytest.mark.parametrize("t, depth", LARGE_THRESHOLD, ids=lambda x: getattr(x, "label", str(x)))
def test_descent_table_below_a_large_threshold(t, depth):
    # rows below, at and past the threshold, blocks cut at and off row ends;
    # the budget stops the seeds that are minima of cycles
    size = t.d**depth
    amin = dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, depth)[4]
    assert amin in (24, 3)
    for block_size in (size, size + 1, 3 * size - 5):
        for budget in (depth, depth + 1, 50, 10**4):
            _assert_descent_matches(t, (), 1, (amin + 2) * size, block_size, budget)
            _assert_descent_matches(t, (), (amin - 1) * size - 3, (amin + 3) * size, block_size, budget)


HOP_MAPS = [(t, minima, 1000) for t, minima in dict.fromkeys(SIEVE_MAPS[::4] + SIEVE_MAPS[-4:])] + [
    (t, (), t.d**depth) for t, depth in LARGE_THRESHOLD
]
HOP_IDS = [f"{t.label}{'-no-minima' if not m else ''}-{block}" for t, m, block in HOP_MAPS]


@pytest.mark.parametrize("t, minima, block", HOP_MAPS, ids=HOP_IDS)
def test_descent_hops_hand_over_to_steps(monkeypatch, t, minima, block):
    # with the first tortoise or the budget at one or two table depths and
    # one step either side, a survivor turns from hops to single steps in
    # mid-orbit, and must descend, fail and count steps as the plain loop.
    # From 1, the range runs two rows past the threshold on a.
    depth = _depth(t.d, block)
    amin = dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, depth)[4] if depth > 1 else 1
    ranges = [(1, max(3000, (amin + 2) * t.d**depth)), (10**12 + 17, 10**12 + 3016)]
    ends = sorted({depth, depth + 1, 2 * depth - 1, 2 * depth, 2 * depth + 1} - {0})
    for lo, hi in ranges:
        blocks = [(t, b0, b1, "descent", minima, 10**4) for b0, b1 in dynamics._blocks(lo, hi, block)]
        plain = [_certify_block_plain(args) for args in blocks]
        for tortoise_at in ends:
            monkeypatch.setattr(dynamics, "_TORTOISE_AT", tortoise_at)
            assert [dynamics._certify_block(args) for args in blocks] == plain, (t.label, lo, tortoise_at)
        monkeypatch.undo()
        for budget in range(depth + 1, 2 * depth + 2):
            _assert_descent_matches(t, minima, lo, hi, block, budget)


@pytest.mark.parametrize("t, minima", [(T_MOD10, (4,)), (T_CLASSIC, (1,))], ids=["mod10", "classic"])
def test_descent_survivors_hop_through_the_table(monkeypatch, t, minima):
    # a survivor goes on by table hops until the first tortoise, so 1..2e5
    # take under 100k inlined steps on each map (575k on (10,12,8)+ and 168k
    # on (2,3,1)+ when survivors went one step at a time past the first hop).
    # As in a fresh process, these 5 blocks stay below the split's payback,
    # so no split is built with counted steps.
    monkeypatch.setattr(dynamics, "_split_due", {})
    t, minima = _counting(t), frozenset(minima)
    dynamics._certify_block((t, 1, DEFAULT_BLOCK, "descent", minima, 10**6))  # builds the table
    _CountingInt.steps = 0
    for b0, b1 in dynamics._blocks(1, 2 * 10**5, DEFAULT_BLOCK):
        dynamics._certify_block((t, b0, b1, "descent", minima, 10**6))
    assert _CountingInt.steps < 100_000


def _takes_table_path(t, depth, a, r, jstar) -> bool:
    """Whether n = a*d^depth + r, iterated with core.step, descends first at
    step jstar (0: not within depth steps)."""
    n = a * t.d**depth + r
    v = n
    for j in range(1, depth + 1):
        v = step(t, v)
        if v < n:
            return j == jstar
    return jstar == 0


@pytest.mark.parametrize(
    "t, depth",
    [(make_pq(0, 0), 14), (make_pq(0, 0), 5), (make_pq(1, 0), 8), (make_pq(2, 0), 6),
     (T_MOD10, 4), (T_MOD10, 2), (make_pq(4, 4), 2), (make_pq(8, 3), 1),
     (validate_triplet(3, 4, 1, -1), 8), (validate_triplet(3, 5, 2, -1), 6), *LARGE_THRESHOLD,
     # here a class falling below its seed too early sets the threshold (3; 1)
     (validate_triplet(6, 37, -25), 2), (validate_triplet(3, 10, -7), 4)],
    ids=lambda x: getattr(x, "label", str(x)),
)
def test_descent_table_classes(t, depth):
    # each class against direct iteration, and the threshold is the least a
    # (at least 1; class 0 at a = 0 is n = 0) from which every class is right.
    # From there a hop of hop steps, (hop, mult) = steps[r], ends at
    # mult*a + tail[r], with no orbit value below the seed before its end.
    jstar, survivors, steps, tail, amin, split = dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, depth)
    assert split is None
    size = t.d**depth
    assert list(survivors) == [r for r in range(size) if jstar[r] == 0]
    assert [hop for hop, _ in steps] == [j or depth for j in jstar]
    for a in (amin, amin + 1, 10**9 + 7):
        for r in range(size):
            assert _takes_table_path(t, depth, a, r, jstar[r]), (a, r)
            n = a * size + r
            hop, mult = steps[r]
            orbit = [iterate(t, n, j) for j in range(hop + 1)]
            assert orbit[-1] == mult * a + tail[r], (a, r)
            assert min(orbit[:-1]) >= n, (a, r)
    least = 0
    while not all(_takes_table_path(t, depth, least, r, jstar[r]) for r in range(1, size)):
        least += 1
    assert amin == max(1, least)


@pytest.mark.parametrize(
    "t, depth, entries",
    [(T_MOD10, 4, 5), (make_pq(0, 0), 14, None), (validate_triplet(3, 4, 1, -1), 8, None),
     (validate_triplet(2, 23, 1), 14, None)],
    ids=lambda x: getattr(x, "label", str(x)),
)
def test_descent_table_shares_its_entries(t, depth, entries):
    # a class holds a pointer to a shared (hop, mult) pair: one object per
    # distinct pair, and each pair is alpha^s * d^(depth-hop) for an s <= hop,
    # so at most one per (hop, s).  (10,12,8)+ at depth 4 has five of them.
    steps = dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, depth)[2]
    shared = {id(e): e for e in steps}
    assert len(shared) == len(set(steps))
    assert len(shared) <= depth * (depth + 3) // 2
    for hop, mult in shared.values():
        assert 1 <= hop <= depth
        assert any(mult == t.alpha**s * t.d ** (depth - hop) for s in range(hop + 1)), (hop, mult)
    if entries is not None:
        assert len(shared) == entries


# the family maps (p, q) with p, q <= 8 and a table at the default block
# whose split has at most 65,536 entries, so that the depth-(k+1) table it
# is checked against stays small, with (3,4,1)-; and LARGE_THRESHOLD at one
# row per block, where the threshold on a // d binds on (4,5,1003)+ (2,
# while a >= amin = 3 gives a // 4 >= 1 only)
SPLIT_PQ = {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3), (4, 4),
            (5, 0), (5, 1), (5, 2), (5, 3)}
SPLIT_MAPS = [(make_pq(*pq), DEFAULT_BLOCK) for pq in sorted(SPLIT_PQ)] + [
    (validate_triplet(3, 4, 1, -1), DEFAULT_BLOCK)
] + [(t, t.d**depth) for t, depth in LARGE_THRESHOLD]


def test_descent_split_is_built_once_it_pays(monkeypatch):
    # a process builds the split once the seeds it ran through the table
    # without it would have skipped as many walks as the split has entries:
    # 46,080 entries and 9,216 settlers per 10^5 seeds on (10,12,8)+ give
    # 500,000 seeds, so from a cold start the 9th default block is the first
    # that asks for the split, and a run of a few blocks never builds it.
    # (6,6) would skip a walk for 2% of its seeds with 2.06M entries.
    asked = []
    real = dynamics._descent_table

    def spy(*args):
        asked.append(args[5:] == (True,))
        return real(*args)

    monkeypatch.setattr(dynamics, "_split_due", {})
    monkeypatch.setattr(dynamics, "_descent_table", spy)
    t = validate_triplet(10, 12, 8)
    splits = []
    for b0, b1 in dynamics._blocks(10**9, 10**9 + 10 * DEFAULT_BLOCK - 1, DEFAULT_BLOCK):
        asked.clear()
        dynamics._descent_seeds(t, b0, b1, frozenset(), 5)  # budget depth + 1
        splits.append(any(asked))
    assert splits == [False] * 8 + [True] * 2
    table = real(t.d, t.alpha, t.beta, t.kappa0, 4)
    assert dynamics._split_payback(t.d, t.alpha, 4, table) == 500_000
    t = make_pq(6, 6)
    table = real(t.d, t.alpha, t.beta, t.kappa0, 2)
    due = dynamics._split_payback(t.d, t.alpha, 2, table)
    assert len(table[1]) * t.d == 2_056_192 and 1000 * DEFAULT_BLOCK < due < 10**8
    asked.clear()
    dynamics._descent_seeds(t, 10**9, 10**9 + DEFAULT_BLOCK - 1, frozenset(), 3)
    assert not any(asked) and dynamics._split_due[t.d, t.alpha, t.beta, t.kappa0, 2] == due - DEFAULT_BLOCK


@pytest.mark.parametrize("t, block", SPLIT_MAPS, ids=lambda x: getattr(x, "label", str(x)))
def test_descent_split_matches_the_deeper_table(t, block):
    # a survivor of row a, digit j = a mod d, is the class r + j*d^k of the
    # depth-(k+1) table, which settles at k + 1 or survives (jstar 0), and
    # arow is the least a' = a // d from which step k + 1 of every such
    # class goes as listed.  With the depth-k threshold, it gives the
    # deeper table's threshold.  _split_payback counts the settlers listed.
    d, k = t.d, _depth(t.d, block)
    table = dynamics._descent_table(d, t.alpha, t.beta, t.kappa0, k, True)
    jstar, survivors, steps, tail, amin, split = table
    assert dynamics._descent_table(d, t.alpha, t.beta, t.kappa0, k)[:5] == (jstar, survivors, steps, tail, amin)
    deep = dynamics._descent_table(d, t.alpha, t.beta, t.kappa0, k + 1)
    arow, rows = split
    size = d**k
    assert len(rows) == d
    for j, (surv, settle) in enumerate(rows):
        assert surv == [r for r in survivors if deep[0][r + j * size] == 0], j
        assert settle == [r for r in survivors if deep[0][r + j * size] == k + 1], j
    assert max(arow, -(-amin // d)) == deep[4]
    settlers = sum(len(settle) for _, settle in rows)
    due = len(survivors) * d * d ** (k + 1) / settlers if settlers else float("inf")
    assert dynamics._split_payback(d, t.alpha, k, table) == due

    def as_listed(a):
        return all(
            (iterate(t, n, k + 1) < n) == falls
            for j, lists in enumerate(rows)
            for falls, listed in zip((False, True), lists)
            for n in (a * size * d + j * size + r for r in listed)
        )

    assert as_listed(arow) and as_listed(arow + 1)
    assert arow == 0 or not as_listed(arow - 1)


@pytest.mark.parametrize("t, block", SPLIT_MAPS, ids=lambda x: getattr(x, "label", str(x)))
def test_descent_split_rows_match_plain_loop(monkeypatch, t, block):
    # with the split built from the first block on: windows that cross from
    # a row with digit d - 1 to one with digit 0, at d*arow (from row amin
    # on, so that every row the split must not take is in), at d*(arow + 1)
    # and far out, with budgets k + 1 (a survivor that stays fails there)
    # and k + 2, in blocks of 1 seed (no table) and of the map's block, with
    # each of the map's minima sets; on (10,12,8)+ also blocks of 9999 and
    # 10001, whose tables are one depth apart
    monkeypatch.setattr(dynamics, "_split_due", {})
    monkeypatch.setattr(dynamics, "_split_payback", lambda *args: 0)
    d, k = t.d, _depth(t.d, block)
    table = dynamics._descent_table(t.d, t.alpha, t.beta, t.kappa0, k, True)
    amin, arow, size = table[4], table[5][0], d**k
    blocks = (block, 9999, 10001) if t == validate_triplet(10, 12, 8) else (block,)
    edges = sorted({d * arow, d * (arow + 1), d * 10**6 + d})
    windows = []
    for a in edges:
        first = min(amin, a - 1) if a == d * arow else a - 1
        windows.append((max(1, first * size - 2), (a + 1) * size + 2))
    for minima in [m for s, m in SIEVE_MAPS if s == t] or [()]:
        for budget in (k + 1, k + 2):
            for a, (lo, hi) in zip(edges, windows):
                _assert_descent_matches(t, minima, max(1, a * size - 40), a * size + 40, 1, budget)
                for b in blocks:
                    _assert_descent_matches(t, minima, lo, hi, b, budget)
