"""Closed-form identity predictors against direct iteration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcollatz.core import iterate, report_json, step, validate_triplet
from gcollatz.dynamics import total_stopping_time
from gcollatz.identities import (
    PreconditionError,
    check_identity,
    thm31_iterate,
    thm31_sigma,
    thm31_step,
    thm32_iterate,
    thm33_iterate,
    thm33_iterate_2dm1,
)

T_CLASSIC = validate_triplet(2, 3, 1)
T_MOD10 = validate_triplet(10, 12, 8)
T_341 = validate_triplet(3, 4, -1)
T_231M = validate_triplet(2, 3, -1)


def test_thm31_step_examples():
    assert thm31_step(T_CLASSIC, 1, 1, 1) == 5 == step(T_CLASSIC, 3)
    # T(5) = 10 under (10,12,8), so the prediction for T(15) is 12 + 10 = 22
    assert thm31_step(T_MOD10, 1, 1, 5) == 22 == step(T_MOD10, 15)
    assert thm31_step(T_CLASSIC, 3, 2, 4) == 8 == step(T_CLASSIC, 16)  # s(4) = 0 branch


def test_thm31_iterate_examples():
    assert thm31_iterate(T_CLASSIC, 5, 0, 9) == 14  # k = 0 degenerates to a + n
    assert thm31_iterate(T_CLASSIC, 1, 3, 3) == 13 == iterate(T_CLASSIC, 11, 3)
    assert thm31_iterate(T_MOD10, 2, 2, 7) == 308 == iterate(T_MOD10, 207, 2)


def test_thm31_sigma_examples():
    assert thm31_sigma(T_CLASSIC, 1, 1, 1, {1}) == 5
    assert thm31_sigma(T_MOD10, 1, 1, 4, {4}) == 3 == total_stopping_time(T_MOD10, 14, {4})
    # k = 0 reduction with n in the minima
    assert thm31_sigma(T_MOD10, 3, 0, 4, {4}) == total_stopping_time(T_MOD10, 7, {4})


def test_thm31_sigma_budget_translation():
    # sigma(11) = 10: three steps to 13 via the identity, then seven more
    # direct side unknown under budget B iff identity side unknown under B
    assert total_stopping_time(T_CLASSIC, 11, {1}, budget=9) is None
    assert thm31_sigma(T_CLASSIC, 1, 3, 3, {1}, budget=9) is None
    assert total_stopping_time(T_CLASSIC, 11, {1}, budget=10) == 10
    assert thm31_sigma(T_CLASSIC, 1, 3, 3, {1}, budget=10) == 10


def test_thm32_examples():
    assert thm32_iterate(T_CLASSIC, 1, 2, 1) == 4 == iterate(T_CLASSIC, 5, 2)
    assert thm32_iterate(T_CLASSIC, 1, 1, 1) == 5 == step(T_CLASSIC, 3)
    with pytest.raises(PreconditionError) as err:
        thm32_iterate(T_MOD10, 1, 1, 1)  # 12 + 8 = 2 * 10: lambda0 = 2
    assert err.value.code == "lambda0_not_one"


def test_thm33_examples():
    assert thm33_iterate(T_341, 1, 1, 1) == 5 == step(T_341, 4)
    assert thm33_iterate(T_341, 2, 2, 2) == 34 == iterate(T_341, 20, 2)
    assert thm33_iterate(T_341, 7, 0, 2) == 9  # k = 0 degenerates to a + kappa0*r
    with pytest.raises(PreconditionError) as err:
        thm33_iterate(T_MOD10, 1, 1, 1)
    assert err.value.code == "wrong_family"


def test_thm33_2dm1_examples():
    assert thm33_iterate_2dm1(T_341, 1, 3) == 18 == iterate(T_341, 32, 3)
    assert thm33_iterate_2dm1(T_231M, 1, 3) == 4 == iterate(T_231M, 11, 3)
    assert thm33_iterate_2dm1(T_231M, 2, 4) == 19 == iterate(T_231M, 35, 4)
    with pytest.raises(PreconditionError) as err:
        thm33_iterate_2dm1(T_231M, 1, 2)
    assert err.value.code == "k_too_small"


def test_thm33_minus_sign_family():
    # beta = -kappa0 with kappa0 = -1 gives beta = +1
    t = validate_triplet(3, 4, 1, -1)
    assert thm33_iterate(t, 2, 2, 1) == 2 * 16 - 1 == iterate(t, 2 * 9 - 1, 2)
    assert thm33_iterate_2dm1(t, 1, 3) == iterate(t, 27 - 5, 3)


# ---------------------------------------------------------------------------
# property coverage beyond the worked examples
# ---------------------------------------------------------------------------

@given(st.integers(1, 10**5), st.integers(1, 12), st.integers(1, 10**4))
@settings(max_examples=150, deadline=None)
def test_thm31_matches_iteration(a, k, n):
    for t in (T_CLASSIC, T_MOD10, T_341):
        m = a * t.d**k + n
        assert thm31_step(t, a, k, n) == step(t, m)
        assert thm31_iterate(t, a, k, n) == iterate(t, m, k)


@given(st.integers(1, 10**5), st.integers(0, 20), st.integers(1, 10**4))
@settings(max_examples=100, deadline=None)
def test_thm31_iterate_matches_step_by_step(a, k, n):
    # alpha^s_k(n) * a + T^k(n), with both walked one step at a time
    for t in (T_CLASSIC, T_MOD10, T_341, T_231M):
        v, s = n, 0
        for _ in range(k):
            s += v % t.d != 0
            v = step(t, v)
        assert thm31_iterate(t, a, k, n) == t.alpha**s * a + v


@given(st.integers(1, 10**5), st.integers(0, 12), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_thm32_matches_iteration(a, k, r):
    t = validate_triplet(10, 92, 8)  # 92 + 8 = 100 = 10^2, so lambda0 = 1, nu0 = 2
    m = a * t.d**k + r
    assert thm32_iterate(t, a, k, r) == iterate(t, m, k)


# ---------------------------------------------------------------------------
# sampling harness
# ---------------------------------------------------------------------------

def test_check_identity_thm31():
    rep = check_identity("31", T_CLASSIC, trials=10**3, seed=7)
    assert rep.passed and rep.trials == 10**3


def test_check_identity_thm32_precondition():
    with pytest.raises(PreconditionError):
        check_identity("32", T_MOD10, trials=10)
    assert check_identity("32", T_CLASSIC, trials=10**3, seed=3).passed


def test_check_identity_thm33():
    assert check_identity("33", T_341, trials=10**3, seed=11).passed
    assert check_identity("33", T_231M, trials=10**3, seed=11).passed


def test_check_identity_reproducible():
    a = check_identity("31", T_MOD10, trials=200, seed=42)
    b = check_identity("31", T_MOD10, trials=200, seed=42)
    assert a == b
    assert report_json(a.to_dict()) == report_json(b.to_dict())


def test_check_identity_unknown_theorem():
    with pytest.raises(ValueError):
        check_identity("34", T_CLASSIC, trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_check_identity_refuses_empty_sample(trials):
    with pytest.raises(ValueError, match=f"need trials >= 1, got {trials}"):
        check_identity("31", T_CLASSIC, trials=trials)
