"""Backward mapping and bounded inverse-orbit graph construction.

The preimage set of n is {d*n} plus the m = d*a + r, 1 <= r < d, a >= 0,
with T(m) = alpha*a + S*r (+ beta for kappa0 = -1) = n, where
S = (alpha + kappa0*beta)/d.  That is one linear congruence
S*r = rhs (mod alpha), solved by one closure per triplet.  Graph edges
point forward, (m, n) with T(m) = n, and are read off the forward map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from gcollatz.core import Triplet, report_json, validate_triplet


@lru_cache(maxsize=256)
def _solver(d: int, alpha: int, beta: int, kappa0: int):
    """solve(n): the m >= 1 with T(m) = n, ascending, from S*r = n - shift.

    g = gcd(S, alpha); the r form one progression with difference mod =
    alpha/g, through (S/g)^-1 modulo mod.  S = 0 (kappa0 = -1, alpha = beta)
    gives mod 1.  Keyed on the parameters, which hash faster than the Triplet.
    """
    S = (alpha + kappa0 * beta) // d
    g = gcd(S, alpha)
    mod = alpha // g
    inv = pow(S // g, -1, mod)
    shift = 0 if kappa0 == 1 else beta

    def solve(n: int) -> list[int]:
        out = [d * n]
        rhs = n - shift
        if rhs % g == 0:
            # alpha > d, so at most g residues r < d lie on the progression
            for r in range(rhs // g * inv % mod or mod, d, mod):
                a = rhs - S * r
                if a < 0:
                    break
                out.append(d * (a // alpha) + r)
            if len(out) > 1:
                out.sort()
        return out

    return solve


def preimages(t: Triplet, n: int) -> set[int]:
    """All m >= 1 with T(m) = n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return set(_solver(t.d, t.alpha, t.beta, t.kappa0)(n))


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

    Frontiers expand in ascending order, each node's preimages ascending;
    within the node budget every preimage found joins the graph.  Every node
    is expanded and a non-root m enters only as a preimage of T(m), so the
    edges, cycle edges too, are (m, T(m)) for each node m with T(m) a node.
    truncated is set when the node cap refused a node, or when the first
    horizon node with a preimage outside the graph is found.
    """
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("need at least one root")
    if max_depth < 0 or max_nodes < 1:
        raise ValueError("need max_depth >= 0 and max_nodes >= 1")
    if roots[0] < 1:
        raise ValueError(f"need n >= 1, got {roots[0]}")
    solve = _solver(t.d, t.alpha, t.beta, t.kappa0)
    frontier, truncated = roots[:max_nodes], len(roots) > max_nodes
    nodes = {n: n for n in frontier}  # node -> itself, so an edge holds the node's own int
    for _ in range(max_depth):
        nxt = []
        for n in frontier:
            for m in solve(n):
                if m not in nodes:
                    if len(nodes) < max_nodes:
                        nodes[m] = m
                        nxt.append(m)
                    else:
                        truncated = True
        frontier = sorted(nxt)
    if not truncated:
        truncated = any(m not in nodes for n in frontier for m in solve(n))
    # T(m) unguarded, as in dynamics._step_form: a non-total map's image <= 0 is no node
    d, alpha = t.d, t.alpha
    md, b = (d, t.beta) if t.kappa0 == 1 else (-d, -t.beta)
    ordered, get = sorted(nodes), nodes.get
    edges = [(m, n) for m in ordered
             if (n := get((alpha * m + b * r) // d if (r := m % md) else m // d)) is not None]
    return InverseGraph(t, tuple(roots), tuple(ordered), tuple(edges), truncated)


def export_dot(g: InverseGraph) -> str:
    """DOT digraph, nodes and edges in ascending order; byte-stable.

    Nodes and edges are joined apart, so only one part's lines are alive at once.
    """
    nodes = "".join([f"  {n};\n" for n in g.nodes])
    edges = "".join([f"  {m} -> {n};\n" for m, n in g.edges])
    return f"digraph inverse_orbit {{\n{nodes}{edges}}}\n"


def export_json(g: InverseGraph) -> str:
    """JSON document; json writes the graph's tuples as arrays, so they go in
    as they are, not copied into lists."""
    doc = {
        "schema": "gcollatz.inverse_graph/1",
        "triplet": g.triplet.as_dict(),
        "roots": g.roots,
        "nodes": g.nodes,
        "edges": g.edges,
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
