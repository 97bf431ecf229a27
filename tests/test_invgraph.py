"""Backward mapping and inverse-orbit graph construction."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcollatz.core import DomainError, step, validate_triplet
from gcollatz.invgraph import build_inverse_graph, export_dot, export_json, parse_json, preimages

T_CLASSIC = validate_triplet(2, 3, 1)
T_MOD10 = validate_triplet(10, 12, 8)
T_MOD5 = validate_triplet(5, 6, 4)
THREE = (T_CLASSIC, T_MOD10, T_MOD5)


def test_preimages_examples():
    assert preimages(T_CLASSIC, 2) == {4, 1}
    assert preimages(T_MOD10, 4) == {40, 2}
    assert preimages(T_MOD5, 4) == {20, 2}


def test_preimages_sound_and_complete_small():
    for t in THREE:
        for n in range(1, 1001):
            for m in preimages(t, n):
                assert step(t, m) == n
        for m in range(1, 1001):
            assert m in preimages(t, step(t, m))


def test_preimages_kappa_minus():
    # R = d - r branch of the backward map
    t = validate_triplet(3, 4, -1)
    for n in range(1, 500):
        got = preimages(t, n)
        brute = {m for m in range(1, 4 * n + 8) if step(t, m) == n}
        assert got == brute


def _preimages_by_residue_loop(t, n):
    # the O(d) loop preimages used before the congruence solve: one
    # candidate per residue class r, kept when it lands in class r
    d, alpha, beta, kappa = t.d, t.alpha, t.beta, t.kappa0
    out = {d * n}
    for r in range(1, d):
        m = d * n - beta * (r if kappa == 1 else d - r)
        if m % alpha == 0 and m // alpha > 0 and (m // alpha) % d == r:
            out.add(m // alpha)
    return out


def _small_triplets():
    for d in range(2, 9):
        for alpha in range(d + 1, 4 * d):
            for beta in range(-3 * d + 1, 3 * d):
                for kappa in (1, -1):
                    try:
                        yield validate_triplet(d, alpha, beta, kappa)
                    except DomainError:
                        pass


def test_preimages_match_residue_loop():
    triplets = list(_small_triplets())
    S = {t: (t.alpha + t.kappa0 * t.beta) // t.d for t in triplets}
    assert any(t.kappa0 == -1 for t in triplets)
    assert any(gcd(S[t], t.alpha) > 1 for t in triplets)
    assert any(S[t] == 0 for t in triplets)
    for t in triplets:
        for n in range(1, 400):
            got = preimages(t, n)
            assert got == _preimages_by_residue_loop(t, n), (t.label, n)
            assert all(step(t, m) == n for m in got), (t.label, n)


@given(st.integers(1, 5000), st.integers(1, 5000))
@settings(max_examples=100)
def test_preimage_sets_disjoint(a, b):
    if a != b:
        assert not (preimages(T_MOD10, a) & preimages(T_MOD10, b))


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_build_depth_one_mod10():
    g = build_inverse_graph(T_MOD10, {4}, max_depth=1)
    assert g.nodes == (2, 4, 40)
    assert g.edges == ((2, 4), (40, 4))


def test_build_depth_zero():
    g = build_inverse_graph(T_MOD10, {9}, max_depth=0)
    assert g.nodes == (9,)
    assert g.edges == ()


def test_build_depth_four_classic():
    # frontier fixed by brute force: preimages(8) = {5, 16}, so 5 joins at
    # depth 4 together with 16; the cycle edge 1 -> 2 closes inside the ball
    g = build_inverse_graph(T_CLASSIC, {1}, max_depth=4)
    assert g.nodes == (1, 2, 4, 5, 8, 16)
    for e in ((2, 1), (4, 2), (8, 4), (16, 8), (5, 8), (1, 2)):
        assert e in g.edges
    assert all(step(T_CLASSIC, m) == n for m, n in g.edges)


def test_build_respects_node_cap():
    g = build_inverse_graph(T_CLASSIC, {2}, max_depth=3, max_nodes=1)
    assert g.nodes == (2,)
    assert g.truncated
    for cap in (2, 3, 4):
        g = build_inverse_graph(T_CLASSIC, {2}, max_depth=6, max_nodes=cap)
        assert len(g.nodes) == cap


def test_truncated_iff_cap_cut_something():
    # node cap refused a preimage
    g = build_inverse_graph(T_MOD10, {4}, max_depth=1, max_nodes=2)
    assert g.truncated and len(g.nodes) == 2
    # depth horizon always leaves the d*n parent unexplored
    g2 = build_inverse_graph(T_MOD10, {4}, max_depth=1)
    assert g2.truncated


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_export_dot_ascending_and_stable():
    g = build_inverse_graph(T_MOD10, {4}, max_depth=1)
    dot = export_dot(g)
    lines = dot.splitlines()
    assert lines[0] == "digraph inverse_orbit {"
    assert lines[-1] == "}"
    edge_lines = [ln.strip() for ln in lines if "->" in ln]
    assert edge_lines == ["2 -> 4;", "40 -> 4;"]  # ascending source order
    assert dot == export_dot(build_inverse_graph(T_MOD10, {4}, max_depth=1))


def test_export_dot_single_node():
    g = build_inverse_graph(T_MOD10, {7}, max_depth=0)
    assert "  7;" in export_dot(g)
    assert "->" not in export_dot(g)


def test_export_json_roundtrip():
    g = build_inverse_graph(T_CLASSIC, {1}, max_depth=3)
    doc = export_json(g)
    assert parse_json(doc) == g
    assert export_json(parse_json(doc)) == doc


def test_tree_edge_count_off_cycle():
    # rooted away from any cycle the ball is a tree: |edges| = |nodes| - 1
    g = build_inverse_graph(T_CLASSIC, {3}, max_depth=3)
    assert g.nodes == (3, 6, 12, 24)
    assert len(g.edges) == len(g.nodes) - 1


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_inverse_graph(T_CLASSIC, set(), max_depth=1)
    with pytest.raises(ValueError):
        build_inverse_graph(T_CLASSIC, {1}, max_depth=-1)
