"""Triplet maps on the positive integers.

A triplet (d, alpha, beta) with a sign kappa0 defines the map

    T(n) = n // d                                  if d | n
    T(n) = (alpha*n + beta*R) // d,  R = [kappa0*n]_d   otherwise

where [x]_d is the canonical remainder in [0, d).  All arithmetic is exact
Python-int arithmetic; orbit values may exceed machine words freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when triplet parameters violate a well-definedness condition."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class InternalError(RuntimeError):
    """The map produced an inexact division or a non-positive value.

    This indicates a validation bug (or a triplet that slipped past the
    admission conditions), never a normal runtime condition.
    """


@dataclass(frozen=True)
class Decomposition:
    """alpha + kappa0*beta = lambda0 * d**nu0 with nu0 maximal, d not | lambda0."""

    lambda0: int
    nu0: int


@dataclass(frozen=True)
class Triplet:
    """Validated parameter pack. Build via validate_triplet(), not directly."""

    d: int
    alpha: int
    beta: int
    kappa0: int = 1
    decomposition: Decomposition | None = None

    @property
    def label(self) -> str:
        sign = "+" if self.kappa0 == 1 else "-"
        return f"({self.d},{self.alpha},{self.beta}){sign}"

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "alpha": self.alpha,
            "beta": self.beta,
            "kappa0": self.kappa0,
        }


def report_json(doc: dict) -> str:
    """Report bytes: sorted keys, two-space indent, one final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def validate_triplet(d: int, alpha: int, beta: int, kappa0: int = 1) -> Triplet:
    """Check the admission conditions and return a validated Triplet.

    Conditions: d >= 2, alpha > d, neither alpha nor beta divisible by d,
    and alpha + kappa0*beta both exceeding (kappa0 - 1)/2 and divisible by d.
    Raises DomainError with a named code on the first violated condition.
    """
    if kappa0 not in (1, -1):
        raise DomainError("bad_kappa0", f"kappa0 must be +1 or -1, got {kappa0}")
    if d < 2:
        raise DomainError("d_too_small", f"d must be >= 2, got {d}")
    if alpha <= d:
        raise DomainError("alpha_not_gt_d", f"alpha must exceed d, got alpha={alpha}, d={d}")
    if alpha % d == 0:
        raise DomainError("alpha_divisible", f"alpha={alpha} is divisible by d={d}")
    if beta % d == 0:
        raise DomainError("beta_divisible", f"beta={beta} is divisible by d={d}")
    s = alpha + kappa0 * beta
    # (kappa0-1)/2 is 0 for the + sign and -1 for the - sign.
    if 2 * s <= kappa0 - 1 or s % d != 0:
        raise DomainError(
            "sum_condition",
            f"alpha + kappa0*beta = {s} must be positive (resp. >= 0 for kappa0=-1) "
            f"and divisible by d={d}",
        )
    return Triplet(d, alpha, beta, kappa0, _decompose(d, s))


def _decompose(d: int, s: int) -> Decomposition | None:
    # s = 0 only for kappa0=-1 with alpha == beta; no lambda0*d**nu0 form exists.
    if s == 0:
        return None
    nu0 = 0
    while s % d == 0:
        s //= d
        nu0 += 1
    return Decomposition(lambda0=s, nu0=nu0)


def decompose(t: Triplet) -> Decomposition:
    """Return the cached (lambda0, nu0) with alpha + kappa0*beta = lambda0*d**nu0."""
    if t.decomposition is None:
        raise DomainError(
            "sum_zero",
            f"{t.label}: alpha + kappa0*beta = 0 admits no lambda0*d**nu0 decomposition",
        )
    return t.decomposition


def check_total(t: Triplet) -> None:
    """Reject triplets whose non-divisible branch can go non-positive.

    Only possible for kappa0 = -1 with beta negative enough; the branch value
    alpha*r + beta*(d-r) is linear in r, so the endpoints are the extremes.
    """
    if t.kappa0 == 1:
        return
    d = t.d
    if min(t.alpha * r + t.beta * (d - r) for r in (1, d - 1)) <= 0:
        raise DomainError("not_total", f"{t.label} maps some residue class to a non-positive value")


def residue(n: int, t: Triplet) -> int:
    """Canonical remainder [kappa0*n]_d in [0, d)."""
    return (t.kappa0 * n) % t.d


def step(t: Triplet, n: int) -> int:
    """One application of the map. n must be >= 1."""
    d = t.d
    if n % d == 0:
        return n // d
    num = t.alpha * n + t.beta * ((t.kappa0 * n) % d)
    q, r = divmod(num, d)
    if r != 0 or q < 1:
        raise InternalError(f"{t.label}: T({n}) = {num}/{d} is not a positive integer")
    return q


def iterate(t: Triplet, n: int, k: int) -> int:
    """k-fold composition of step; iterate(t, n, 0) == n."""
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    for _ in range(k):
        n = step(t, n)
    return n


def s_indicator(t: Triplet, n: int) -> int:
    """1 if n is not divisible by d, else 0."""
    return 0 if n % t.d == 0 else 1


def s_count(t: Triplet, n: int, k: int) -> int:
    """Number of indices 0 <= i < k with the i-th iterate not divisible by d."""
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    total = 0
    for _ in range(k):
        if n % t.d != 0:
            total += 1
        n = step(t, n)
    return total
