"""Word combinatorics of the colored tree: neighbors, geodesics, half-trees."""

import pytest

from arboreal.tree_core import (
    V0,
    DirectedEdge,
    distance,
    enumerate_ball,
    geodesic,
    half_tree,
    half_tree_contains,
    is_reduced,
    neighbor,
    periodic_end,
    ray_prefix,
)


def test_neighbor_append_and_strip():
    assert neighbor(V0, 0) == (0,)
    assert neighbor((0,), 0) == V0
    assert neighbor((0, 1), 0) == (0, 1, 0)


def test_neighbor_is_an_involution():
    for v in [(0,), (0, 1), (2, 0, 1)]:
        for c in range(3):
            assert neighbor(neighbor(v, c), c) == v


def test_geodesic_trivial_cases():
    assert geodesic(V0, V0) == [V0]
    assert geodesic((0,), (1,)) == [(0,), V0, (1,)]


def bfs_distance(u, w, radius, window):
    """Independent oracle: breadth-first search over the ball."""
    if u == w:
        return 0
    seen = {u}
    frontier = [u]
    for r in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for c in window:
                y = neighbor(x, c)
                if y == w:
                    return r
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    raise AssertionError("not reached within the radius")


def test_geodesic_against_bfs_oracle():
    u, w = (0, 1, 0), (0, 2)
    path = geodesic(u, w)
    assert path[0] == u and path[-1] == w
    assert distance(u, w) == 3 == bfs_distance(u, w, 4, range(3))
    assert path == [(0, 1, 0), (0, 1), (0,), (0, 2)]


def test_all_pairs_distance_matches_bfs_in_radius_4_ball():
    ball = sorted(enumerate_ball(V0, 4, range(3)))
    import random

    rng = random.Random(3)
    for _ in range(80):
        u, w = rng.choice(ball), rng.choice(ball)
        assert distance(u, w) == bfs_distance(u, w, 8, range(3))


def test_geodesic_words_stay_reduced():
    for v in geodesic((0, 1, 0, 2), (0, 2, 1)):
        assert is_reduced(v)


def test_enumerate_ball_counts():
    assert enumerate_ball(V0, 0, {0, 1, 2}) == {V0}
    assert enumerate_ball(V0, 1, {0, 1, 2}) == {V0, (0,), (1,), (2,)}
    assert len(enumerate_ball(V0, 2, {0, 1, 2})) == 10  # 1 + 3 + 3*2


def test_enumerate_ball_rejects_empty_window():
    with pytest.raises(ValueError):
        enumerate_ball(V0, 1, set())


def test_half_tree_membership_on_vertices():
    h = half_tree(V0, 0)
    assert half_tree_contains(h, (0, 1))
    assert not half_tree_contains(h, (1,))
    assert half_tree_contains(h, (0,))
    assert not half_tree_contains(h, V0)


def test_half_tree_membership_on_periodic_end():
    h = half_tree(V0, 0)
    xi = ray_prefix(periodic_end((), (0, 1)), 2)
    assert half_tree_contains(h, xi)
    assert not half_tree_contains(h.reversed(), xi)


def test_half_trees_partition_every_ball_vertex():
    edges = [DirectedEdge(V0, 0), DirectedEdge((0,), 1), DirectedEdge((1, 2), 0)]
    ball = enumerate_ball(V0, 3, range(3))
    for e in edges:
        h, ho = e, e.reversed()
        for v in ball:
            assert half_tree_contains(h, v) != half_tree_contains(ho, v)


def test_periodic_end_canonical_forms():
    assert periodic_end((), (0, 1)) == periodic_end((0,), (1, 0)) == periodic_end((0, 1), (0, 1))
    assert periodic_end((), (0, 1, 0, 1)) == periodic_end((), (0, 1))
    assert periodic_end((), (0, 1)) != periodic_end((), (1, 0))


def test_periodic_end_rejects_unreduced_rays():
    with pytest.raises(ValueError):
        periodic_end((), (0, 0))
    with pytest.raises(ValueError):
        periodic_end((), (0, 1, 0))  # ...010|010... repeats 0
    with pytest.raises(ValueError):
        periodic_end((0,), (0, 1))


def test_periodic_end_equality_is_structural():
    assert periodic_end((), (0, 1)) == periodic_end((0, 1, 0), (1, 0))
