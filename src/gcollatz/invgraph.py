"""Backward mapping and bounded inverse-orbit graph construction.

The preimage set of n is {d*n} plus the m = d*a + r, 1 <= r < d, a >= 0,
with T(m) = alpha*a + S*r (+ beta for kappa0 = -1) = n, where
S = (alpha + kappa0*beta)/d.  That is one linear congruence
S*r = rhs (mod alpha), solved per call with an inverse cached per triplet.
Graph edges point forward: (m, n) means T(m) = n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from gcollatz.core import Triplet, report_json, validate_triplet


@lru_cache(maxsize=256)
def _congruence(d: int, alpha: int, beta: int, kappa0: int) -> tuple[int, int, int, int, int]:
    """(S, g, mod, inverse, shift) for solving S*r = n - shift (mod alpha).

    g = gcd(S, alpha); the solutions r form one progression with difference
    mod = alpha/g, and inverse is (S/g)^-1 modulo mod.  S = 0 (kappa0 = -1,
    alpha = beta) gives mod 1: every residue class is a candidate.  Keyed
    on the parameters, which hash faster than the Triplet.
    """
    S = (alpha + kappa0 * beta) // d
    g = gcd(S, alpha)
    mod = alpha // g
    return S, g, mod, pow(S // g, -1, mod), 0 if kappa0 == 1 else beta


def preimages(t: Triplet, n: int) -> set[int]:
    """All m >= 1 with T(m) = n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d, alpha = t.d, t.alpha
    S, g, mod, inv, shift = _congruence(d, alpha, t.beta, t.kappa0)
    out = {d * n}
    rhs = n - shift
    if rhs % g == 0:
        # alpha > d, so at most g residues r < d lie on the progression
        for r in range(rhs // g * inv % mod or mod, d, mod):
            a = rhs - S * r
            if a < 0:
                break
            out.add(d * (a // alpha) + r)
    return out


@dataclass(frozen=True)
class InverseGraph:
    triplet: Triplet
    roots: tuple[int, ...]
    nodes: tuple[int, ...]          # ascending
    edges: tuple[tuple[int, int], ...]  # ascending (m, n) pairs, T(m) = n
    truncated: bool


def build_inverse_graph(
    t: Triplet,
    roots,
    max_depth: int,
    max_nodes: int = 10**6,
) -> InverseGraph:
    """Breadth-first preimage expansion from the roots.

    Frontiers expand in ascending order; within the node budget every
    preimage found joins the graph, and edges between two present nodes are
    always recorded (this closes cycle edges).  truncated is set when the
    node cap refused a node, or when the depth horizon cut off unexplored
    preimages.
    """
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("need at least one root")
    if max_depth < 0 or max_nodes < 1:
        raise ValueError("need max_depth >= 0 and max_nodes >= 1")
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    truncated = False
    for r in roots:
        if len(nodes) < max_nodes:
            nodes.add(r)
        else:
            truncated = True
    frontier = sorted(nodes)
    for _ in range(max_depth):
        nxt = []
        for n in frontier:
            for m in sorted(preimages(t, n)):
                if m in nodes:
                    edges.add((m, n))
                elif len(nodes) < max_nodes:
                    nodes.add(m)
                    edges.add((m, n))
                    nxt.append(m)
                else:
                    truncated = True
        frontier = sorted(nxt)
    # close edges into the final frontier and detect a cut-off horizon
    for n in frontier:
        for m in preimages(t, n):
            if m in nodes:
                edges.add((m, n))
            else:
                truncated = True
    return InverseGraph(
        triplet=t,
        roots=tuple(roots),
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges)),
        truncated=truncated,
    )


def export_dot(g: InverseGraph) -> str:
    """DOT digraph, nodes and edges in ascending order; byte-stable."""
    lines = ["digraph inverse_orbit {"]
    for n in g.nodes:
        lines.append(f"  {n};")
    for m, n in g.edges:
        lines.append(f"  {m} -> {n};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: InverseGraph) -> str:
    doc = {
        "schema": "gcollatz.inverse_graph/1",
        "triplet": g.triplet.as_dict(),
        "roots": list(g.roots),
        "nodes": list(g.nodes),
        "edges": [list(e) for e in g.edges],
        "truncated": g.truncated,
    }
    return report_json(doc)


def parse_json(text: str) -> InverseGraph:
    """Inverse of export_json; revalidates the triplet."""
    doc = json.loads(text)
    if doc.get("schema") != "gcollatz.inverse_graph/1":
        raise ValueError(f"unsupported graph document {doc.get('schema')!r}")
    tp = doc["triplet"]
    t = validate_triplet(tp["d"], tp["alpha"], tp["beta"], tp["kappa0"])
    return InverseGraph(
        triplet=t,
        roots=tuple(doc["roots"]),
        nodes=tuple(doc["nodes"]),
        edges=tuple((m, n) for m, n in doc["edges"]),
        truncated=doc["truncated"],
    )
