"""Two-power family construction, trivial cycles, and the exceptional registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcollatz.core import DomainError, iterate, step, validate_triplet
from gcollatz.family import (
    VerificationError,
    attractor_minima,
    attractor_set,
    exceptional_registry,
    identify_pq,
    make_pq,
    registry_diagnostics,
    trivial_cycle_general,
    trivial_cycle_pq,
)


def test_make_pq_examples():
    assert make_pq(0, 0).as_dict() == {"d": 2, "alpha": 3, "beta": 1, "kappa0": 1}
    assert make_pq(3, 1).as_dict() == {"d": 10, "alpha": 12, "beta": 8, "kappa0": 1}
    # beta follows the defining formula 2^p = 32 here
    assert make_pq(5, 2).as_dict() == {"d": 36, "alpha": 40, "beta": 32, "kappa0": 1}


def test_make_pq_rejects_q_above_p():
    with pytest.raises(DomainError) as err:
        make_pq(1, 2)
    assert err.value.code == "q_gt_p"


def test_make_equal():
    # the p = q member is (2^(p+1), 3*2^p, 2^p)+
    assert make_pq(0, 0).as_dict() == {"d": 2, "alpha": 3, "beta": 1, "kappa0": 1}
    assert make_pq(1, 1).as_dict() == {"d": 4, "alpha": 6, "beta": 2, "kappa0": 1}
    assert make_pq(2, 2).as_dict() == {"d": 8, "alpha": 12, "beta": 4, "kappa0": 1}
    for p in range(31):
        assert make_pq(p, p).as_dict() == {"d": 2 ** (p + 1), "alpha": 3 * 2**p, "beta": 2**p, "kappa0": 1}


def test_family_validates_exhaustively():
    for p in range(31):
        for q in range(p + 1):
            t = make_pq(p, q)  # validate_triplet raises if anything is off
            assert t.alpha == t.d + 2**q
            assert t.beta == t.d - 2**q


def test_identify_pq():
    assert identify_pq(make_pq(3, 1)) == (3, 1)
    assert identify_pq(make_pq(0, 0)) == (0, 0)
    assert identify_pq(validate_triplet(12, 14, 10)) is None
    assert identify_pq(validate_triplet(3, 4, -1)) is None


# ---------------------------------------------------------------------------
# trivial cycles
# ---------------------------------------------------------------------------

def test_trivial_cycle_general_examples():
    c = trivial_cycle_general(6, 1)  # triplet (12,14,10)+
    assert c.members == (5, 10, 20, 30, 40, 50, 60)
    assert c.length == 7

    assert trivial_cycle_general(2, 0).members == (1, 2)
    assert trivial_cycle_general(5, 0).members == (4, 8, 12, 16, 20)


def test_trivial_cycle_pq_examples():
    c = trivial_cycle_pq(3, 1)
    assert c.members == (4, 8, 16, 24, 32, 40)
    assert c.length == 6
    assert trivial_cycle_pq(0, 0).members == (1, 2)
    assert trivial_cycle_pq(5, 2).members == (8, 16, 32, 64, 96, 128, 160, 192, 224, 256, 288)


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_trivial_cycle_pq_length_and_first_return(p, q):
    p, q = max(p, q), min(p, q)
    c = trivial_cycle_pq(p, q)
    t = c.triplet
    assert c.length == 2 ** (p - q) + q + 1
    assert c.omega == 2 ** (p - q) == min(c.members)
    # returns to omega after exactly `length` steps, never earlier
    v = c.omega
    for k in range(1, c.length):
        v = step(t, v)
        assert v != c.omega
    assert step(t, v) == c.omega
    assert iterate(t, c.omega, c.length) == c.omega


# ---------------------------------------------------------------------------
# exceptional registry and attractor sets
# ---------------------------------------------------------------------------

# Orbit-order member lists, independently recomputed by stepping the map by
# hand for the first few entries and by iteration for the rest.
OMEGA_1_0 = (14, 20, 28, 38, 52, 70, 94, 126, 42)
OMEGA_2_1 = (74, 100, 136, 184, 248, 332, 444)
OMEGA_2_2 = (67, 102, 156, 236, 356, 536)

REGISTRY_LENGTHS = {
    (1, 0): {14: 9},
    (2, 1): {74: 7},
    (2, 2): {67: 6},
    (3, 0): {280: 21},
    (4, 0): {1264: 49},
    (5, 2): {76200: 70, 87176: 35},
    (6, 2): {1264: 69},
    (7, 0): {3027584: 630},
}


def test_registry_regenerates_all_entries():
    reg = exceptional_registry()
    assert set(reg) == set(REGISTRY_LENGTHS)
    for key, cycles in reg.items():
        assert {c.omega: c.length for c in cycles} == REGISTRY_LENGTHS[key]


def test_registry_small_member_lists():
    reg = exceptional_registry()
    assert reg[(1, 0)][0].members == OMEGA_1_0
    assert reg[(2, 1)][0].members == OMEGA_2_1
    assert reg[(2, 2)][0].members == OMEGA_2_2


def test_registry_diagnostics_mention_beta_override():
    notes = " ".join(registry_diagnostics())
    assert "32" in notes and "(36,40,32)" in notes


def test_attractor_set_examples():
    assert attractor_set(3, 1).minima == {4}
    assert attractor_set(5, 2).minima == {8, 76200, 87176}
    a = attractor_set(1, 0)
    assert a.minima == {2, 14}
    assert sorted(c.length for c in a.cycles) == [3, 9]


def test_attractor_minima_matches_attractor_set():
    for p in range(9):
        for q in range(p + 1):
            assert attractor_minima(p, q) == attractor_set(p, q).minima


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=45, deadline=None)
def test_attractor_cycles_are_disjoint_closed_orbits(p, q):
    p, q = max(p, q), min(p, q)
    aset = attractor_set(p, q)
    seen = set()
    for c in aset.cycles:
        assert len(set(c.members)) == c.length
        assert c.members[0] == min(c.members)
        assert not (seen & set(c.members))
        seen |= set(c.members)
        for i, m in enumerate(c.members):
            assert step(aset.triplet, m) == c.members[(i + 1) % c.length]


def test_regeneration_length_mismatch_raises():
    from gcollatz.family import _regenerate

    t = make_pq(1, 0)
    with pytest.raises(VerificationError):
        _regenerate(t, 14, 8)  # true length is 9
    with pytest.raises(VerificationError, match="not its cycle minimum"):
        _regenerate(t, 20, 9)  # on the cycle of 14


# ---------------------------------------------------------------------------
# simplified-form equivalence for p >= q >= 1
# ---------------------------------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 10**9))
@settings(max_examples=200)
def test_simplified_form_matches(p, q, n):
    p, q = max(p, q), min(p, q)
    t = make_pq(p, q)
    e = 2 ** (p - q)
    if n % t.d == 0:
        assert step(t, n) == n // t.d
    else:
        num = (e + 2) * n + e * (n % t.d)
        assert num % (e + 1) == 0
        assert step(t, n) == num // (e + 1)
