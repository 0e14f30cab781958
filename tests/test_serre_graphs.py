import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab.serre_graphs import SerreGraph, random_graph


# -- independent oracles ----------------------------------------------------

def bfs_blocks(graph):
    """Connected components by plain BFS over an adjacency dict."""
    adj = {v: [] for v in graph.vertices}
    for e in graph.edges:
        adj[graph.origin(e)].append(graph.terminus(e))
    seen = set()
    blocks = []
    for v in graph.vertices:
        if v in seen:
            continue
        queue, block = [v], set()
        while queue:
            u = queue.pop()
            if u in block:
                continue
            block.add(u)
            queue.extend(adj[u])
        seen |= block
        blocks.append(block)
    return blocks


def reference_components(graph):
    """The union-find SerreGraph.components replaced, kept as the reference:
    blocks keyed by their least vertex index, in vertex order."""
    vertices = graph.vertices
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for e in graph.edges:
        a = find(index[graph.origin(e)])
        b = find(index[graph.terminus(e)])
        if a != b:
            parent[max(a, b)] = min(a, b)
    blocks = {}
    for i, v in enumerate(vertices):
        blocks.setdefault(find(i), []).append(v)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


def assert_components_agree(graph, without):
    """components(without=S) == remove_vertex_set(S).components() == the reference."""
    got = graph.components(without)
    rest = graph.remove_vertex_set(set(without))
    assert got == rest.components() == reference_components(rest)


def has_circuit_oracle(graph):
    """Circuit detection by DFS spanning forest: any non-forest geometric
    edge (loops included) closes a circuit."""
    forest = set()
    visited = set()
    for root in graph.vertices:
        if root in visited:
            continue
        visited.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for e in graph.star(u):
                w = graph.terminus(e)
                if w not in visited:
                    visited.add(w)
                    forest.add(min(e, graph.inverse(e)))
                    stack.append(w)
    return any(ge.rep not in forest for ge in graph.geometric_edges())


def segment():
    return SerreGraph.from_geometric([0, 1], [(0, 1)])


def triangle():
    return SerreGraph.from_geometric([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def line(n):
    """Path graph on n+1 vertices 0..n."""
    return SerreGraph.from_geometric(range(n + 1), [(i, i + 1) for i in range(n)])


# -- components -------------------------------------------------------------

def test_components_two_isolated_vertices():
    g = SerreGraph.from_geometric([0, 1], [])
    assert g.components() == ((0,), (1,))


def test_components_segment_single_block():
    assert segment().components() == ((0, 1),)


def test_components_circuit_plus_segment_matches_bfs():
    g = SerreGraph.from_geometric(
        range(5), [(0, 1), (1, 2), (2, 0), (3, 4)]
    )
    got = [set(b) for b in g.components()]
    want = bfs_blocks(g)
    assert len(got) == 2
    assert sorted(map(sorted, got)) == sorted(map(sorted, want))


def test_components_do_not_depend_on_edge_order():
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]
    base = SerreGraph.from_geometric(range(6), pairs).components()
    for seed in range(5):
        shuffled = pairs[:]
        random.Random(seed).shuffle(shuffled)
        assert SerreGraph.from_geometric(range(6), shuffled).components() == base


def test_components_leave_out_the_given_vertices_and_their_edges():
    g = line(6)
    assert g.components([3]) == ((0, 1, 2), (4, 5, 6))
    assert g.components(g.vertices) == ()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_components_without_match_copy_and_union_find(seed):
    # random_graph draws loops and parallel edges
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=30)
    assert_components_agree(g, ())
    for _ in range(4):
        assert_components_agree(g, rng.sample(g.vertices, rng.randint(0, len(g.vertices))))


# -- star ---------------------------------------------------------------------

def test_star_isolated_vertex_empty():
    g = SerreGraph.from_geometric([0], [])
    assert g.star(0) == ()


def test_star_center_of_three_star():
    g = SerreGraph.from_geometric(range(4), [(0, 1), (0, 2), (0, 3)])
    assert len(g.star(0)) == 3
    assert all(g.origin(e) == 0 for e in g.star(0))


def test_star_interior_of_line_has_two_edges():
    g = line(10)
    for v in range(1, 10):
        assert len(g.star(v)) == 2


def test_star_unknown_vertex_raises():
    with pytest.raises(ValueError):
        segment().star(99)


# -- remove_vertex_set --------------------------------------------------------

def test_remove_nothing_is_identity():
    g = triangle()
    h = g.remove_vertex_set(set())
    assert h.vertices == g.vertices and h.edges == g.edges


def test_remove_everything_gives_empty_graph():
    h = triangle().remove_vertex_set({0, 1, 2})
    assert h.vertices == () and h.edges == ()


def test_remove_interior_line_vertex_splits_in_two():
    g = line(6)
    h = g.remove_vertex_set({3})
    assert len(h.components()) == 2
    assert sorted(map(sorted, h.components())) == sorted(map(sorted, bfs_blocks(h)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_remove_never_leaves_dangling_edges(seed):
    g = random_graph(random.Random(seed), max_vertices=12)
    keep = [v for v in g.vertices if v % 3]
    h = g.remove_vertex_set(set(g.vertices) - set(keep))
    alive = set(h.vertices)
    for e in h.edges:
        assert h.origin(e) in alive and h.terminus(e) in alive
        assert h.inverse(h.inverse(e)) == e


# -- tree test ----------------------------------------------------------------

def test_single_vertex_is_tree():
    assert SerreGraph.from_geometric([0], []).is_tree()


def test_loop_is_not_tree():
    g = SerreGraph.from_geometric([0], [(0, 0)])
    assert not g.is_tree()
    assert has_circuit_oracle(g)


def test_triangle_is_not_tree():
    assert not triangle().is_tree()
    assert has_circuit_oracle(triangle())


def test_empty_graph_is_not_tree():
    assert not SerreGraph([], {}, {}).is_tree()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_tree_test_agrees_with_circuit_search(seed):
    g = random_graph(random.Random(seed), max_vertices=14)
    expected = len(g.components()) == 1 and not has_circuit_oracle(g)
    assert g.is_tree() == expected


# -- structural invariants -----------------------------------------------------

def test_involution_is_fixed_point_free_and_matches_endpoints():
    g = triangle()
    for e in g.edges:
        assert g.inverse(e) != e
        assert g.origin(e) == g.terminus(g.inverse(e))


def test_geometric_edges_use_smaller_id():
    g = triangle()
    for ge in g.geometric_edges():
        assert ge.rep < ge.inv
        assert g.inverse(ge.rep) == ge.inv


def test_self_inverse_edge_rejected():
    with pytest.raises(ValueError):
        SerreGraph([0], {0: 0}, {0: 0})


def test_broken_involution_rejected():
    with pytest.raises(ValueError):
        SerreGraph([0, 1], {0: 0, 1: 1, 2: 0}, {0: 1, 1: 2, 2: 0})


# -- export -----------------------------------------------------------------

def test_json_round_trip():
    g = triangle()
    h = SerreGraph.from_json(g.to_json())
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert all(h.origin(e) == g.origin(e) and h.inverse(e) == g.inverse(e) for e in g.edges)


def test_dot_has_one_arrow_per_geometric_edge():
    g = triangle()
    dot = g.to_dot()
    assert dot.count("->") == len(g.geometric_edges())
    assert dot.startswith("digraph")
