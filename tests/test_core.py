"""Map evaluation, validation gates, and the parity-counting helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcollatz.core import (
    DomainError,
    InternalError,
    decompose,
    iterate,
    iterate_with_s,
    residue,
    s_count,
    s_indicator,
    step,
    validate_triplet,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_classical():
    t = validate_triplet(2, 3, 1)
    assert (t.d, t.alpha, t.beta, t.kappa0) == (2, 3, 1, 1)
    assert decompose(t).lambda0 == 1
    assert decompose(t).nu0 == 2  # 3 + 1 = 4 = 2**2


def test_validate_mod10():
    t = validate_triplet(10, 12, 8)
    assert decompose(t).lambda0 == 2
    assert decompose(t).nu0 == 1  # 12 + 8 = 20 = 2 * 10


@pytest.mark.parametrize(
    "d,alpha,beta,kappa0,code",
    [
        (4, 6, 3, 1, "sum_condition"),     # 6 + 3 = 9, 9 % 4 != 0
        (2, 4, 2, 1, "alpha_divisible"),
        (1, 3, 1, 1, "d_too_small"),
        (4, 3, 1, 1, "alpha_not_gt_d"),
        (4, 4, 1, 1, "alpha_not_gt_d"),
        (3, 4, 6, 1, "beta_divisible"),
        (3, 5, 4, -1, "sum_condition"),    # 5 - 4 = 1, 1 % 3 != 0
        (2, 3, 1, 2, "bad_kappa0"),
    ],
)
def test_validate_rejects(d, alpha, beta, kappa0, code):
    with pytest.raises(DomainError) as err:
        validate_triplet(d, alpha, beta, kappa0)
    assert err.value.code == code


def test_validate_negative_beta():
    t = validate_triplet(3, 4, -1)
    assert decompose(t).lambda0 == 1
    assert decompose(t).nu0 == 1  # 4 - 1 = 3


def test_zero_sum_triplet_has_no_decomposition():
    # alpha == beta with the minus sign passes the admission inequality
    # (0 > -1) but 0 has no lambda0 * d**nu0 form.
    t = validate_triplet(3, 4, 4, -1)
    assert t.decomposition is None
    with pytest.raises(DomainError) as err:
        decompose(t)
    assert err.value.code == "sum_zero"
    assert step(t, 1) == 4  # the map itself is fine: (4 + 4*2)/3


# ---------------------------------------------------------------------------
# residue and step
# ---------------------------------------------------------------------------

def test_residue_plus():
    t = validate_triplet(3, 4, 2)
    assert residue(14, t) == 2


def test_residue_minus():
    t = validate_triplet(10, 21, 1, -1)
    assert residue(7, t) == 3   # 10 - 7
    assert residue(20, t) == 0  # divisible case


def test_step_examples():
    t = validate_triplet(10, 12, 8)
    assert step(t, 75) == 94
    assert step(t, 40) == 4
    assert step(validate_triplet(3, 4, -1), 4) == 5  # (16 - 1)/3


def test_step_rejects_pathological_minus_triplet():
    # (3,4,-5)- passes the admission conditions (4+5=9, 9%3==0, 9>-1) yet
    # maps 1 to a negative value; step must refuse rather than return junk.
    t = validate_triplet(3, 4, -5, -1)
    with pytest.raises(InternalError):
        step(t, 1)


def test_iterate():
    assert iterate(validate_triplet(2, 3, 1), 3, 5) == 1   # 3,5,8,4,2,1
    assert iterate(validate_triplet(10, 12, 8), 75, 10) == 4
    assert iterate(validate_triplet(5, 6, 4), 9, 0) == 9


# ---------------------------------------------------------------------------
# parity counting
# ---------------------------------------------------------------------------

def test_s_indicator():
    t = validate_triplet(10, 12, 8)
    assert s_indicator(t, 40) == 0
    assert s_indicator(t, 75) == 1
    assert s_indicator(validate_triplet(2, 3, 1), 2) == 0


def test_s_count():
    assert s_count(validate_triplet(2, 3, 1), 3, 3) == 2    # orbit 3,5,8
    assert s_count(validate_triplet(10, 12, 8), 7, 0) == 0
    assert s_count(validate_triplet(10, 12, 8), 400, 2) == 0  # 400,40 both divisible


# ---------------------------------------------------------------------------
# random valid triplets for the property checks
# ---------------------------------------------------------------------------

def _random_triplet(rng):
    """Draw a valid triplet whose map is total on the positive integers.

    beta is derived from a target sum s = alpha + kappa0*beta that is a
    positive multiple of d, which makes the residue conditions automatic.
    For kappa0 = -1 the admission conditions alone do not force T > 0
    (see test_step_rejects_pathological_minus_triplet), so candidates whose
    minimum one-step value over the residue classes is non-positive are
    redrawn.
    """
    while True:
        d = rng.randint(2, 48)
        kappa0 = rng.choice((1, -1))
        alpha = d * rng.randint(1, 40) + rng.randint(1, d - 1)
        m = rng.randint(1, max(1, alpha // d))
        s = d * m
        beta = kappa0 * (s - alpha)
        if beta % d == 0:
            continue
        low = min(
            alpha * r + beta * ((kappa0 * r) % d) for r in range(1, d)
        )
        if low <= 0:
            continue
        return validate_triplet(d, alpha, beta, kappa0)


def test_totality_bulk():
    # 10**5 random (triplet, n) pairs: step is an exactly-divisible positive
    # integer every time (step itself asserts exactness).
    rng = random.Random(20260810)
    triplets = [_random_triplet(rng) for _ in range(200)]
    for t in triplets:
        for _ in range(500):
            n = rng.randint(1, 10**12)
            assert step(t, n) >= 1


@st.composite
def triplets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return _random_triplet(random.Random(seed))


@given(triplets(), st.integers(1, 10**9))
@settings(max_examples=200)
def test_residue_bounds(t, n):
    r = residue(n, t)
    assert 0 <= r < t.d
    assert (r == 0) == (n % t.d == 0)


@given(triplets(), st.integers(1, 10**6), st.integers(0, 30))
@settings(max_examples=100)
def test_s_count_recurrence(t, n, k):
    assert s_count(t, n, k + 1) == s_count(t, n, k) + s_indicator(t, iterate(t, n, k))


def _step_by_step(t, n, k):
    # T^k(n) and the count of iterates T^i(n), i < k, not divisible by d
    s = 0
    for _ in range(k):
        s += n % t.d != 0
        n = step(t, n)
    return n, s


@given(triplets(), st.integers(1, 10**6), st.integers(0, 30))
@settings(max_examples=100)
def test_one_walk_matches_step_by_step(t, n, k):
    tk, s = _step_by_step(t, n, k)
    assert iterate_with_s(t, n, k) == (tk, s)
    assert iterate(t, n, k) == tk
    assert s_count(t, n, k) == s


@pytest.mark.parametrize("walk", [iterate, s_count, iterate_with_s])
def test_walks_reject_pathological_minus_triplet(walk):
    # the walks step through step, so they refuse (3,4,-5)- at T(1) as it does
    with pytest.raises(InternalError):
        walk(validate_triplet(3, 4, -5, -1), 1, 1)


@pytest.mark.parametrize("walk", [iterate, s_count, iterate_with_s])
def test_walks_reject_negative_count(walk):
    with pytest.raises(ValueError, match=r"^iteration count must be >= 0, got -1$"):
        walk(validate_triplet(2, 3, 1), 5, -1)


@given(triplets())
@settings(max_examples=200)
def test_decompose_reconstructs(t):
    dec = decompose(t)
    assert dec.lambda0 % t.d != 0
    assert dec.nu0 >= 1
    assert dec.lambda0 * t.d**dec.nu0 == t.alpha + t.kappa0 * t.beta


@given(triplets(), st.integers(1, 10**6), st.integers(0, 12))
@settings(max_examples=100)
def test_trajectory_prefix_additivity(t, n, k):
    # iterate composes: iterate(n, k+1) == step(iterate(n, k))
    assert iterate(t, n, k + 1) == step(t, iterate(t, n, k))
