"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The three heavy scans
(the 1e7 descent verification, the p,q <= 8 attractor sweep, and the
stopping-time table for p <= 4 at 1e7) are computed once in module-scoped
fixtures and shared with the determinism criterion.
"""

import json
import time
from types import SimpleNamespace

import pytest

from gcollatz.core import report_json, step, validate_triplet
from gcollatz.dynamics import (
    find_cycles_in_range,
    max_stopping_scans,
    total_stopping_time,
    trajectory,
    verify_range,
)
from gcollatz.family import (
    attractor_minima,
    exceptional_registry,
    make_pq,
    trivial_cycle_pq,
)
from gcollatz.identities import check_identity
from gcollatz.invgraph import preimages

pytestmark = pytest.mark.slow  # deselect with -m "not slow" for a fast loop

T_MOD10 = validate_triplet(10, 12, 8)
T_MOD5 = validate_triplet(5, 6, 4)
T_CLASSIC = validate_triplet(2, 3, 1)

# golden trajectories, element for element
TRAJ_75 = [75, 94, 116, 144, 176, 216, 264, 320, 32, 40, 4]
TRAJ_135 = [135, 166, 204, 248, 304, 368, 448, 544, 656, 792, 952, 1144,
            1376, 1656, 1992, 2392, 2872, 3448, 4144, 4976, 5976, 7176,
            8616, 10344, 12416, 14904, 17888, 21472, 25768, 30928, 37120,
            3712, 4456, 5352, 6424, 7712, 9256, 11112, 13336, 16008, 19216,
            23064, 27680, 2768, 3328, 4000, 400, 40, 4]
TRAJ_95 = [95, 19, 26, 32, 40, 8, 12, 16, 20, 4]
TRAJ_83 = [83, 102, 124, 152, 184, 224, 272, 328, 396, 476, 572, 688, 828,
           996, 1196, 1436, 1724, 2072, 2488, 2988, 3588, 4308, 5172, 6208,
           7452, 8944, 10736, 12884, 15464, 18560, 3712, 4456, 5348, 6420,
           1284, 1544, 1856, 2228, 2676, 3212, 3856, 4628, 5556, 6668, 8004,
           9608, 11532, 13840, 2768, 3324, 3992, 4792, 5752, 6904, 8288,
           9948, 11940, 2388, 2868, 3444, 4136, 4964, 5960, 1192, 1432,
           1720, 344, 416, 500, 100, 20, 4]

REGISTRY_EXPECTED = {
    (1, 0): {14: 9},
    (2, 1): {74: 7},
    (2, 2): {67: 6},
    (3, 0): {280: 21},
    (4, 0): {1264: 49},
    (5, 2): {76200: 70, 87176: 35},
    (6, 2): {1264: 69},
    (7, 0): {3027584: 630},
}

REFERENCE_TABLE = {0: 246, 1: 213, 2: 268, 3: 374, 4: 349}

SWEEP_PAIRS = [(p, q) for p in range(9) for q in range(p + 1)]


# ---------------------------------------------------------------------------
# shared heavy scans
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan5(tmp_path_factory):
    ck = tmp_path_factory.mktemp("crit5") / "scan.ndjson"
    w1 = verify_range(T_MOD10, 1, 10**7, mode="descent", minima={4},
                      workers=1, checkpoint=str(ck))
    w8 = verify_range(T_MOD10, 1, 10**7, mode="descent", minima={4}, workers=8)
    return SimpleNamespace(w1=w1, w8=w8, ck=ck)


@pytest.fixture(scope="module")
def sweep6(tmp_path_factory):
    ckdir = tmp_path_factory.mktemp("crit6")
    paths = {}

    def run(workers, use_ck):
        reports = []
        for p, q in SWEEP_PAIRS:
            ck = None
            if use_ck:
                ck = str(ckdir / f"p{p}q{q}.ndjson")
                paths[(p, q)] = ck
            reports.append(
                verify_range(
                    make_pq(p, q), 1, 10**5, mode="attractor",
                    minima=attractor_minima(p, q), budget=10**6,
                    workers=workers, checkpoint=ck,
                )
            )
        return reports

    w1 = run(workers=1, use_ck=True)
    w8 = run(workers=8, use_ck=False)
    return SimpleNamespace(w1=w1, w8=w8, paths=paths, rerun=lambda: run(1, True))


@pytest.fixture(scope="module")
def table10(tmp_path_factory):
    ckdir = tmp_path_factory.mktemp("crit10")
    paths = {p: str(ckdir / f"p{p}.ndjson") for p in range(5)}

    def run(workers, use_ck):
        return [
            scan
            for p in range(5)
            for scan in max_stopping_scans([p], 10**7, workers=workers,
                                           checkpoint=paths[p] if use_ck else None)
        ]

    w1 = run(workers=1, use_ck=True)
    w8 = list(max_stopping_scans(range(5), 10**7, workers=8))  # every column in one pool
    return SimpleNamespace(w1=w1, w8=w8, paths=paths, rerun=lambda: run(1, True))


def _sweep_json(reports):
    return json.dumps([r.to_dict(include_timing=False) for r in reports],
                      sort_keys=True, indent=2)


def _table_json(scans):
    return json.dumps([s.to_dict() for s in scans], sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_trivial_cycle_formula():
    t0 = time.perf_counter()
    for p in range(21):
        for q in range(p + 1):
            c = trivial_cycle_pq(p, q)  # verified member-by-member against iteration
            assert c.length == 2 ** (p - q) + q + 1
            assert c.omega == 2 ** (p - q)
            # analytic members are strictly increasing, so the verified
            # orbit cannot revisit omega before closing
            assert all(a < b for a, b in zip(c.members, c.members[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 (trivial-cycle formula, p<=20): PASS in {elapsed:.1f}s")


def test_criterion_2_exceptional_registry():
    t0 = time.perf_counter()
    exceptional_registry.cache_clear()
    reg = exceptional_registry()
    got = {key: {c.omega: c.length for c in cycles} for key, cycles in reg.items()}
    assert got == REGISTRY_EXPECTED
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 (exceptional-cycle registry): PASS in {elapsed*1e3:.0f}ms")


def test_criterion_3_golden_trajectories():
    assert list(trajectory(T_MOD10, 75, stop={4}).values) == TRAJ_75
    assert list(trajectory(T_MOD10, 135, stop={4}).values) == TRAJ_135
    assert list(trajectory(T_MOD5, 95, stop={4}).values) == TRAJ_95
    assert list(trajectory(T_MOD5, 83, stop={4}).values) == TRAJ_83
    print("ACCEPTANCE 3 (golden trajectories 75/135/95/83): PASS")


def test_criterion_4_large_trivial_cycle_maximum():
    c = trivial_cycle_pq(25, 0)
    assert max(c.members) == 1125899940397056
    assert c.length == 2**25 + 1
    print("ACCEPTANCE 4 ((25,0) cycle maximum 1125899940397056): PASS")


def test_criterion_5_mod10_verification(scan5):
    for rep in (scan5.w1, scan5.w8):
        assert rep.failures == ()
        assert rep.verified == 10**7
    assert scan5.w1.wall_time < 300.0  # single-threaded target
    assert scan5.w8.wall_time < 60.0   # 8-worker target
    a = verify_range(T_MOD10, 1, 10**4, mode="descent", minima={4})
    b = verify_range(T_MOD10, 1, 10**4, mode="attractor", minima={4})
    assert a.failures == b.failures == ()
    print(
        f"ACCEPTANCE 5 (descent verify 1e7): PASS "
        f"({scan5.w1.wall_time:.1f}s single, {scan5.w8.wall_time:.1f}s x8; "
        f"attractor agreement on 1e4)"
    )


def test_criterion_6_attractor_sweep(sweep6):
    assert len(sweep6.w1) == 45
    for (p, q), rep in zip(SWEEP_PAIRS, sweep6.w1):
        assert rep.failures == (), f"({p},{q}) left failures"
        assert rep.verified == 10**5
        assert rep.budget == 10**6
    print("ACCEPTANCE 6 (attractor sweep p,q<=8, n<=1e5): PASS (45 maps)")


def test_criterion_7_identity_suites():
    t0 = time.perf_counter()
    thm31_list = (T_CLASSIC, T_MOD10, T_MOD5,
                  validate_triplet(12, 14, 10), validate_triplet(3, 4, -1))
    for t in thm31_list:
        assert check_identity("31", t, trials=10**4, seed=101).passed
    assert check_identity("32", T_CLASSIC, trials=10**4, seed=102).passed
    assert check_identity("33", validate_triplet(3, 4, -1), trials=10**4, seed=103).passed
    assert check_identity("33", validate_triplet(2, 3, -1), trials=10**4, seed=104).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 7 (identity suites 3.1/3.2/3.3 at 1e4 trials): PASS in {elapsed:.1f}s")


def test_criterion_8_backward_consistency():
    for t in (T_CLASSIC, T_MOD10, T_MOD5):
        for n in range(1, 10**4 + 1):
            for m in preimages(t, n):
                assert step(t, m) == n
        for m in range(1, 10**4 + 1):
            assert m in preimages(t, step(t, m))
    print("ACCEPTANCE 8 (backward consistency, three triplets, n<=1e4): PASS")


def test_criterion_9_cycle_discovery():
    scan = find_cycles_in_range(validate_triplet(12, 14, 10), 2 * 10**4)
    assert [c.omega for c in scan.cycles] == [4, 5, 1305]
    assert scan.exhausted == ()
    scan = find_cycles_in_range(make_pq(2, 2), 10**3)
    assert [c.omega for c in scan.cycles] == [1, 67]
    print("ACCEPTANCE 9 (cycle discovery (12,14,10) and (8,12,4)): PASS")


def test_criterion_10_table_comparison(table10):
    # (a) the fast scan agrees with the naive per-seed oracle on n <= 1e4
    for p in range(5):
        (fast,) = max_stopping_scans([p], 10**4)
        assert fast.unknown == 0
        for m in fast.per_map:
            t = make_pq(p, m.q)
            minima = attractor_minima(p, m.q)
            naive = [total_stopping_time(t, n, minima) for n in range(1, 10**4 + 1)]
            assert all(s is not None for s in naive)
            best = max(naive)
            assert m.max_sigma == best
            assert m.argmax_n == naive.index(best) + 1

    # (b) the 1e7 scan completes and deviations from the reference row are
    # reported under both target-set conventions
    lines = []
    for p, scan in zip(range(5), table10.w1):
        assert scan.unknown == 0, f"p={p}: unresolved stopping times"
        ref = REFERENCE_TABLE[p]
        lines.append(
            f"  p={p}: computed M={scan.max_sigma} (q={scan.q_at_max}, "
            f"n={scan.n_at_max}); trivial-only M={scan.max_sigma_trivial} "
            f"(q={scan.q_at_max_trivial}, n={scan.n_at_max_trivial}); "
            f"reference={ref} -> {'match' if scan.max_sigma == ref else 'DEVIATION'}"
        )
    print("ACCEPTANCE 10 (stopping-time table p<=4 at 1e7): PASS (comparison below)")
    for line in lines:
        print(line)


def test_criterion_11_determinism(scan5, sweep6, table10):
    # workers: byte-identical reports (timing excluded) for 1 and 8 workers
    assert report_json(scan5.w1.to_dict(include_timing=False)) == report_json(scan5.w8.to_dict(include_timing=False))
    assert _sweep_json(sweep6.w1) == _sweep_json(sweep6.w8)
    assert _table_json(table10.w1) == _table_json(table10.w8)

    # interrupt/resume: truncate checkpoints, rerun, compare bytes
    lines = scan5.ck.read_text().splitlines()
    scan5.ck.write_text("\n".join(lines[:-2]) + "\n")
    resumed = verify_range(T_MOD10, 1, 10**7, mode="descent", minima={4},
                           workers=1, checkpoint=str(scan5.ck))
    assert report_json(resumed.to_dict(include_timing=False)) == report_json(scan5.w1.to_dict(include_timing=False))

    victim = sweep6.paths[(8, 0)]
    with open(victim) as fh:
        lines = fh.read().splitlines()
    with open(victim, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert _sweep_json(sweep6.rerun()) == _sweep_json(sweep6.w1)

    with open(table10.paths[4]) as fh:
        lines = fh.read().splitlines()
    with open(table10.paths[4], "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert _table_json(table10.rerun()) == _table_json(table10.w1)

    print("ACCEPTANCE 11 (determinism: workers and interrupt/resume): PASS")
