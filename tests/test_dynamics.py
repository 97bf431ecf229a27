"""Forward-orbit engines: trajectories, cycles, stopping times, range scans."""

import functools
import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcollatz import dynamics
from gcollatz.core import step, validate_triplet
from gcollatz.dynamics import (
    descent_time,
    detect_cycle,
    find_cycles_in_range,
    max_stopping_scan,
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

    tr = trajectory(T_MOD10, 75, stop=3)  # bare int means a step budget
    assert tr.terminal == "budget_exhausted"
    assert tr.values == (75, 94, 116, 144)


@given(st.integers(1, 10**6))
@settings(max_examples=80, deadline=None)
def test_trajectory_values_glue(n):
    tr = trajectory(T_MOD10, n, stop={4})
    for a, b in zip(tr.values, tr.values[1:]):
        assert step(T_MOD10, a) == b


# ---------------------------------------------------------------------------
# cycle detection
# ---------------------------------------------------------------------------

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
    """A block start that counts the memo bound checks: one per inlined step."""

    checks = 0

    def __le__(self, other):
        _CountingInt.checks += 1
        return int(self) <= other


def _steps_to_fail(t, n, minima, budget):
    _CountingInt.checks = 0
    rec = dynamics._certify_block((t, _CountingInt(n), n, "attractor", frozenset(minima), budget))
    assert rec["failures"] == [n]
    return _CountingInt.checks


def test_trapped_seed_exits_at_cycle_closure():
    # 1305 lies on a 17-cycle with no minimum, and 955 enters it only after
    # some steps: each must fail soon after the first tortoise goes down,
    # not spend the budget
    for n in (1305, 955):
        steps = _steps_to_fail(T_TRAPPED, n, {4, 5}, 10**6)
        assert dynamics._TORTOISE_AT < steps < 2 * dynamics._TORTOISE_AT


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


def test_attractor_trapped_scan_worker_and_journal_identity(tmp_path):
    one, two = tmp_path / "one.ndjson", tmp_path / "two.ndjson"
    a = _trapped_scan(workers=1, checkpoint=str(one))
    b = _trapped_scan(workers=2, checkpoint=str(two))
    assert a.json(include_timing=False) == b.json(include_timing=False)
    assert one.read_bytes() == two.read_bytes()


def test_verify_range_worker_determinism():
    kw = dict(mode="descent", minima={4}, block_size=1024)
    a = verify_range(T_MOD10, 1, 20000, workers=1, **kw)
    b = verify_range(T_MOD10, 1, 20000, workers=4, **kw)
    assert a.json(include_timing=False) == b.json(include_timing=False)


def test_verify_range_checkpoint_resume(tmp_path):
    ck = tmp_path / "scan.ndjson"
    kw = dict(mode="descent", minima={4}, block_size=1024)
    full = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)

    # simulate an interrupt: drop the last two block records plus a torn line
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-2]) + "\n" + '{"type": "block", "block_st')
    resumed = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)
    assert resumed.json(include_timing=False) == full.json(include_timing=False)

    # a fully complete checkpoint short-circuits the whole scan
    again = verify_range(T_MOD10, 1, 10000, checkpoint=str(ck), **kw)
    assert again.json(include_timing=False) == full.json(include_timing=False)


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
    max_stopping_scan(2, 2000, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "scan_header"
    assert lines[1:] == TABLE_JOURNAL_RECORDS


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
    assert resumed.json(include_timing=False) == full.json(include_timing=False)
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
            max_stopping_scan(2, n_max, checkpoint=str(ck))
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
    max_stopping_scan(2, 2000, checkpoint=str(ck))
    header = ck.read_text().splitlines()[0]
    rec = json.loads(TABLE_JOURNAL_RECORDS[1])
    edit(rec)
    ck.write_text("\n".join([header, TABLE_JOURNAL_RECORDS[0], json.dumps(rec)]) + "\n")
    with pytest.raises(ValueError, match=r"checkpoint .* malformed record for q 1$"):
        max_stopping_scan(2, 2000, checkpoint=str(ck))


def test_max_stopping_scan_checkpoint_resume(tmp_path):
    ck = tmp_path / "table.ndjson"
    full = max_stopping_scan(2, 1500, checkpoint=str(ck))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])  # torn last record
    assert max_stopping_scan(2, 1500, checkpoint=str(ck)) == full
    assert ck.read_text().splitlines()[-1] == lines[-1]
    with pytest.raises(ValueError, match="different scan"):
        max_stopping_scan(2, 1000, checkpoint=str(ck))


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
        max_stopping_scan(1, 20, budget=budget, checkpoint=str(ck))
    with pytest.raises(ValueError, match=message):
        find_cycles_in_range(T_MOD10, 10, budget=budget)
    assert not ck.exists()


def test_max_stopping_scan_rejects_bad_column():
    with pytest.raises(ValueError, match=r"^need p >= 0, got -1$"):
        max_stopping_scan(-1, 20)
    for n_max in (0, -5):
        with pytest.raises(ValueError, match=rf"^need n_max >= 1, got {n_max}$"):
            max_stopping_scan(1, n_max)


def test_scan_report_json_shape():
    rep = verify_range(T_CLASSIC, 1, 500, mode="attractor", minima={1})
    doc = json.loads(rep.json())
    assert doc["schema"] == "gcollatz.scan_report/1"
    assert doc["triplet"] == {"d": 2, "alpha": 3, "beta": 1, "kappa0": 1}
    assert doc["range"] == [1, 500]
    assert doc["pass"] is True
    assert "wall_time" in doc
    assert "wall_time" not in json.loads(rep.json(include_timing=False))


# ---------------------------------------------------------------------------
# stopping-time records
# ---------------------------------------------------------------------------

def test_max_stopping_scan_small_oracle():
    # brute force over n <= 10 under (2,3,1), minima {1}: the record is
    # sigma(9) = 13 (9 -> 14 -> 7, and 7 needs 11 more steps)
    scan = max_stopping_scan(0, 10)
    assert scan.max_sigma == 13
    assert scan.q_at_max == 0
    assert scan.n_at_max == 9
    assert scan.unknown == 0


def test_max_stopping_scan_matches_naive():
    scan = max_stopping_scan(2, 2000)
    for m in scan.per_map:
        t = make_pq(2, m.q)
        minima = attractor_minima(2, m.q)
        naive = [total_stopping_time(t, n, minima) for n in range(1, 2001)]
        assert all(s is not None for s in naive)
        assert m.max_sigma == max(naive)
        assert m.argmax_n == naive.index(max(naive)) + 1


def test_max_stopping_scan_trivial_convention():
    # for (2,2) the exceptional cycle from 67 never reaches the trivial
    # minimum 1, so the trivial-only column must flag unreachable seeds
    scan = max_stopping_scan(2, 2000)
    m22 = next(m for m in scan.per_map if m.q == 2)
    assert m22.trivial_unreachable > 0
    m20 = next(m for m in scan.per_map if m.q == 0)
    assert m20.trivial_unreachable == 0
    assert m20.max_sigma == m20.max_sigma_trivial  # single-cycle map: conventions agree


def test_max_stopping_scan_worker_determinism():
    a = max_stopping_scan(2, 1500, workers=1)
    b = max_stopping_scan(2, 1500, workers=4)
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
                        a = prior if prior >= inf_ else k + prior
                if b is None:
                    if v == triv:
                        b = k
                    elif v in exc_members:
                        b = inf_
                    elif v < n:
                        prior = B[v]
                        b = prior if prior >= inf_ else k + prior
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
