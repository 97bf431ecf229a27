"""The two-power triplet family and its cycle registry.

For p >= q >= 0 the family member is (2^p + 2^q, 2^p + 2^(q+1), 2^p) with the
plus sign.  Every member has an analytically known trivial cycle; eight (p, q)
pairs additionally carry exceptional cycles, kept in a JSON registry as
(seed, length) pairs and regenerated by iteration on first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain
from operator import ne

from gcollatz.core import DomainError, Triplet, step, validate_triplet


class VerificationError(RuntimeError):
    """An analytically constructed or registered cycle failed its iteration check."""


@dataclass(frozen=True)
class Cycle:
    """A finite orbit in canonical form: members in orbit order, minimum first."""

    triplet: Triplet
    members: tuple[int, ...]

    @property
    def omega(self) -> int:
        return self.members[0]

    @property
    def length(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AttractorSet:
    """The conjectured complete cycle set of a triplet."""

    triplet: Triplet
    cycles: tuple[Cycle, ...]

    @property
    def minima(self) -> frozenset[int]:
        return frozenset(c.omega for c in self.cycles)


def make_pq(p: int, q: int) -> Triplet:
    """Family member (2^p + 2^q, 2^p + 2^(q+1), 2^p)+ for 0 <= q <= p."""
    if q < 0 or p < q:
        raise DomainError("q_gt_p", f"need 0 <= q <= p, got p={p}, q={q}")
    return validate_triplet(2**p + 2**q, 2**p + 2 ** (q + 1), 2**p)


def identify_pq(t: Triplet) -> tuple[int, int] | None:
    """Recover (p, q) when t is a two-power family member, else None."""
    if t.kappa0 != 1:
        return None
    beta = t.beta
    twoq = t.d - beta
    if beta < 1 or twoq < 1:
        return None
    if beta & (beta - 1) or twoq & (twoq - 1):  # not powers of two
        return None
    p = beta.bit_length() - 1
    q = twoq.bit_length() - 1
    if q > p or t.alpha != t.d + twoq:
        return None
    return p, q


def cycle_through(t: Triplet, member: int, length: int | None = None) -> Cycle:
    """The cycle through member, walked from member back to itself.

    With length, an orbit that has not returned after length steps, or
    returns after fewer, raises VerificationError.
    """
    members = [member]
    v = step(t, member)
    while v != member:
        if len(members) == length:
            raise VerificationError(f"{t.label}: orbit of {member} did not close within {length} steps")
        members.append(v)
        v = step(t, v)
    if length is not None and len(members) != length:
        raise VerificationError(
            f"{t.label}: cycle of {member} has length {len(members)}, expected {length}"
        )
    i = members.index(min(members))
    return Cycle(t, tuple(members[i:] + members[:i] if i else members))


def _regenerate(t: Triplet, seed: int, length: int) -> Cycle:
    """The cycle of seed, checked to have the given length and seed as its minimum."""
    c = cycle_through(t, seed, length)
    if c.omega != seed:
        raise VerificationError(f"{t.label}: seed {seed} is not its cycle minimum")
    return c


def trivial_cycle_general(dprime: int, q: int) -> Cycle:
    """Trivial cycle of (d, d+2^q, d-2^q)+ where d = 2^q * dprime, dprime >= 2.

    For q >= 1 the members are beta/2^q, ..., beta/2, beta, 2*beta, ...,
    dprime*beta (length dprime + q); for q = 0 they are beta, 2*beta, ...,
    d*beta (length d).  Built analytically and verified by iteration.
    """
    if dprime < 2 or q < 0:
        raise DomainError("bad_shape", f"need dprime >= 2 and q >= 0, got {dprime}, {q}")
    d = (1 << q) * dprime
    t = validate_triplet(d, d + (1 << q), d - (1 << q))
    beta = t.beta
    c = _regenerate(t, beta >> q, q + dprime)
    analytic = chain((beta >> i for i in range(q, 0, -1)), range(beta, dprime * beta + 1, beta))
    if any(map(ne, c.members, analytic)):
        raise VerificationError(f"{t.label}: iteration does not give the analytic trivial cycle")
    return c


def trivial_cycle_pq(p: int, q: int) -> Cycle:
    """Trivial cycle of the (p, q) member: 2^(p-q) doubling up to 2^p, then
    multiples of 2^p up to (2^(p-q)+1)*2^p; length 2^(p-q) + q + 1."""
    t = make_pq(p, q)
    c = trivial_cycle_general(2 ** (p - q) + 1, q)
    assert c.triplet == t
    return c


@lru_cache(maxsize=1)
def _registry_document() -> dict:
    text = resources.files("gcollatz").joinpath("data/exceptional_cycles.json").read_text()
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise VerificationError(f"unsupported registry version {doc.get('version')!r}")
    return doc


@lru_cache(maxsize=1)
def exceptional_registry() -> dict[tuple[int, int], tuple[Cycle, ...]]:
    """Exceptional cycles keyed by (p, q), regenerated and length-checked."""
    out = {}
    for entry in _registry_document()["entries"]:
        p, q = entry["p"], entry["q"]
        t = make_pq(p, q)
        out[(p, q)] = tuple(
            _regenerate(t, c["seed"], c["length"]) for c in entry["cycles"]
        )
    return out


def registry_diagnostics() -> list[str]:
    return list(_registry_document().get("diagnostics", []))


def attractor_minima(p: int, q: int) -> frozenset[int]:
    """Cycle minima of the (p, q) member without materializing the trivial cycle."""
    make_pq(p, q)  # refuses q outside 0..p
    seeds = {2 ** (p - q)}
    for c in exceptional_registry().get((p, q), ()):
        seeds.add(c.omega)
    return frozenset(seeds)


def attractor_set(p: int, q: int) -> AttractorSet:
    """Trivial cycle plus any registered exceptional cycles of the (p, q) member."""
    cycles = (trivial_cycle_pq(p, q),) + exceptional_registry().get((p, q), ())
    return AttractorSet(cycles[0].triplet, cycles)
