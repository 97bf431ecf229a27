"""Closed-form iterate and stopping-time identities, plus a sampling harness
that compares each closed form against direct iteration in exact arithmetic.

Three identity groups are exposed:

  * thm31_*  -- general triplets: T(a*d^k + n), T^(k)(a*d^k + n), and the
    induced stopping-time shift.
  * thm32_iterate -- triplets with alpha + kappa0*beta = d^nu0 (lambda0 = 1).
  * thm33_* -- triplets with alpha = d + 1 and beta = -kappa0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gcollatz.core import (
    DEFAULT_BUDGET,
    Decomposition,
    Triplet,
    check_total,
    decompose,
    iterate,
    iterate_with_s,
    step,
)
from gcollatz.dynamics import _need_at_least, total_stopping_time

# sampling bounds: keep alpha**k cheap while forcing carries past machine words
MAX_A = 10**6
MAX_K = 32
MAX_N = 10**6


class PreconditionError(ValueError):
    """The triplet is outside the family an identity is proven for."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def thm31_step(t: Triplet, a: int, k: int, n: int) -> int:
    """alpha^s(n) * a * d^(k-1) + T(n), thm31_iterate's one step from
    a*d^(k-1); equals T(a*d^k + n) for k >= 1."""
    if a < 1 or n < 1 or k < 1:
        raise ValueError("need a >= 1, n >= 1, k >= 1")
    return thm31_iterate(t, a * t.d ** (k - 1), 1, n)


def thm31_iterate(t: Triplet, a: int, k: int, n: int) -> int:
    """alpha^s_k(n) * a + T^(k)(n), both from one walk of the orbit of n;
    equals T^(k)(a*d^k + n) for k >= 0."""
    if a < 1 or n < 1 or k < 0:
        raise ValueError("need a >= 1, n >= 1, k >= 0")
    tk, s = iterate_with_s(t, n, k)
    return t.alpha**s * a + tk


def thm31_sigma(t: Triplet, a: int, k: int, n: int, minima, budget: int = DEFAULT_BUDGET) -> int | None:
    """Stopping time of a*d^k + n computed through the k-step identity.

    Equals k plus the stopping time of the identity image.  budget bounds
    the whole stopping time, as in total_stopping_time and every scan, so
    the image gets budget - k steps.
    """
    if budget <= k:
        return None
    inner = total_stopping_time(t, thm31_iterate(t, a, k, n), minima, budget - k)
    return None if inner is None else inner + k


def _require_lambda0_one(t: Triplet) -> Decomposition:
    dec = decompose(t)
    if dec.lambda0 != 1:
        raise PreconditionError(
            "lambda0_not_one",
            f"{t.label}: alpha + kappa0*beta = {dec.lambda0}*d^{dec.nu0}, need lambda0 = 1",
        )
    return dec


def thm32_iterate(t: Triplet, a: int, k: int, r: int) -> int:
    """T^(k)(a*d^k + kappa0*r) for lambda0 = 1 triplets, in closed form.

    With k = q0*nu0 + r0: a*alpha^q0 + kappa0*r when r0 = 0, else
    a*alpha^(q0+1) + kappa0*r*d^(nu0-r0).
    """
    dec = _require_lambda0_one(t)
    if a < 1 or not 1 <= r < t.d or k < 0:
        raise ValueError("need a >= 1, 0 <= k, 1 <= r < d")
    if a * t.d**k + t.kappa0 * r < 1:
        raise ValueError("a*d^k + kappa0*r must be >= 1")
    q0, r0 = divmod(k, dec.nu0)
    if r0 == 0:
        return a * t.alpha**q0 + t.kappa0 * r
    return a * t.alpha ** (q0 + 1) + t.kappa0 * r * t.d ** (dec.nu0 - r0)


def _require_unit_family(t: Triplet) -> None:
    if t.alpha != t.d + 1 or t.beta != -t.kappa0:
        raise PreconditionError(
            "wrong_family",
            f"{t.label}: identity needs alpha = d+1 and beta = -kappa0",
        )


def thm33_iterate(t: Triplet, a: int, k: int, r: int) -> int:
    """T^(k)(a*d^k + kappa0*r) = a*alpha^k + kappa0*r for the alpha = d+1,
    beta = -kappa0 family, whose alpha + kappa0*beta is d: thm32_iterate with
    lambda0 = nu0 = 1."""
    _require_unit_family(t)
    return thm32_iterate(t, a, k, r)


def thm33_iterate_2dm1(t: Triplet, a: int, k: int) -> int:
    """T^(k)(a*d^k + kappa0*(2d-1)) for k > 2 in the alpha = d+1 family:
    a*3^(k-2) + kappa0 when d = 2, else a*alpha^(k-1) + 2*kappa0."""
    _require_unit_family(t)
    if k <= 2:
        raise PreconditionError("k_too_small", f"need k > 2, got {k}")
    if a < 1:
        raise ValueError("need a >= 1")
    if a * t.d**k + t.kappa0 * (2 * t.d - 1) < 1:
        raise ValueError("a*d^k + kappa0*(2d-1) must be >= 1")
    if t.d == 2:
        return a * 3 ** (k - 2) + t.kappa0
    return a * t.alpha ** (k - 1) + 2 * t.kappa0


# ---------------------------------------------------------------------------
# sampling harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    theorem: str
    triplet: Triplet
    seed: int
    trials: int
    mismatches: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "schema": "gcollatz.identity_report/1",
            "theorem": self.theorem,
            "triplet": self.triplet.as_dict(),
            "label": self.triplet.label,
            "seed": self.seed,
            "trials": self.trials,
            "mismatches": list(self.mismatches),
            "pass": self.passed,
        }


def _draw_akr(rng, t):
    """(a, k, r) with a*d^k + kappa0*r >= 1; rejected draws redrawn."""
    while True:
        a = rng.randint(1, MAX_A)
        k = rng.randint(0, MAX_K)
        r = rng.randint(1, t.d - 1)
        if a * t.d**k + t.kappa0 * r >= 1:
            return a, k, r


def check_identity(theorem: str, t: Triplet, trials: int = 10**4, seed: int = 0) -> IdentityReport:
    """Sample inputs for one theorem and compare closed form vs iteration.

    theorem is "31", "32" or "33".  Deterministic for a fixed seed; family
    preconditions are raised, never sampled around.
    """
    _need_at_least("trials", trials, 1)
    check_total(t)
    rng = random.Random(seed)
    mismatches: list[dict] = []

    def check(tag, inputs, predicted, actual):
        if predicted != actual:
            mismatches.append(
                {"identity": tag, "inputs": inputs, "predicted": predicted, "actual": actual}
            )

    if theorem == "31":
        for _ in range(trials):
            a = rng.randint(1, MAX_A)
            k = rng.randint(1, MAX_K)
            n = rng.randint(1, MAX_N)
            m = a * t.d**k + n
            check("step", {"a": a, "k": k, "n": n}, thm31_step(t, a, k, n), step(t, m))
            check("iterate", {"a": a, "k": k, "n": n}, thm31_iterate(t, a, k, n), iterate(t, m, k))
    elif theorem == "32":
        _require_lambda0_one(t)
        for _ in range(trials):
            a, k, r = _draw_akr(rng, t)
            m = a * t.d**k + t.kappa0 * r
            check("iterate", {"a": a, "k": k, "r": r}, thm32_iterate(t, a, k, r), iterate(t, m, k))
    elif theorem == "33":
        _require_unit_family(t)
        for _ in range(trials):
            a, k, r = _draw_akr(rng, t)
            m = a * t.d**k + t.kappa0 * r
            check("iterate", {"a": a, "k": k, "r": r}, thm33_iterate(t, a, k, r), iterate(t, m, k))
            k2 = rng.randint(3, MAX_K)
            m2 = a * t.d**k2 + t.kappa0 * (2 * t.d - 1)
            if m2 >= 1:
                check(
                    "iterate_2dm1",
                    {"a": a, "k": k2},
                    thm33_iterate_2dm1(t, a, k2),
                    iterate(t, m2, k2),
                )
    else:
        raise ValueError(f"unknown theorem {theorem!r}; expected '31', '32' or '33'")

    return IdentityReport(theorem, t, seed, trials, tuple(mismatches))
