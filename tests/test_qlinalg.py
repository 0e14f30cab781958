"""SparseMatrixQ.rank, and the elimination reference for graph ranks.

The pipeline reads the ranks of a graph's boundary map off a component
count (serre_graphs.boundary_dims).  The fraction-free elimination it used
before is kept here as the reference: the boundary and augmentation
matrices, the product, and the short-exactness check, all on SparseMatrixQ.
test_bass_serre and test_acceptance import them from this module.
"""

import json
import random
from fractions import Fraction

import pytest

from endlab import cli
from endlab.qlinalg import SparseMatrixQ
from endlab.serre_graphs import SerreGraph

from helpers import graph_json, is_tree, random_graph
from test_serre_graphs import bfs_blocks, segment, triangle


# -- the elimination reference --------------------------------------------------

def from_rows(dense):
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    return SparseMatrixQ(rows, cols, {(i, j): x for i, row in enumerate(dense) for j, x in enumerate(row)})


def identity(n):
    return SparseMatrixQ(n, n, {(i, i): 1 for i in range(n)})


def is_zero(m):
    return not m.entries


def matmul(a, b):
    """a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    by_row = {}
    for (i, j), x in b.entries.items():
        by_row.setdefault(i, []).append((j, x))
    entries = {}
    for (i, k), x in a.entries.items():
        for j, y in by_row.get(k, ()):
            entries[(i, j)] = entries.get((i, j), Fraction(0)) + x * y
    return SparseMatrixQ(a.rows, b.cols, entries)


def rank_kernel_cokernel(m):
    """(rank, dim ker, dim coker) of a finite matrix, exactly."""
    r = m.rank()
    return r, m.cols - r, m.rows - r


def delta_matrix(graph):
    """Boundary map from geometric edges to vertices.

    Columns follow the sorted canonical representatives, rows the graph's
    vertex order.  The column of edge e carries +1 at its terminus and -1
    at its origin; a loop contributes a zero column.
    """
    reps = list(graph.geometric_edges())
    index = {v: i for i, v in enumerate(graph.vertices)}
    entries = {}
    for j, e in enumerate(reps):
        o = index[graph.origin(e)]
        t = index[graph.terminus(e)]
        if o != t:
            entries[(t, j)] = 1
            entries[(o, j)] = -1
    return SparseMatrixQ(len(graph.vertices), len(reps), entries)


def augmentation_matrix(n):
    """The 1 x n all-ones map onto the scalars."""
    return SparseMatrixQ(1, n, {(0, j): 1 for j in range(n)})


def verify_short_exact(a, b):
    """True iff 0 -> . -a-> . -b-> . -> 0 is exact.

    Checks b @ a = 0, a injective, b surjective and rank a + rank b equal
    to the middle dimension; together these force image(a) = kernel(b).
    """
    if b.cols != a.rows:
        raise ValueError(f"maps do not compose: a is {a.rows}x{a.cols}, b is {b.rows}x{b.cols}")
    if not is_zero(matmul(b, a)):
        return False
    ra, rb = a.rank(), b.rank()
    return ra == a.cols and rb == b.rows and ra + rb == b.cols


# -- independent rank oracle --------------------------------------------------

def dense_rank_oracle(m):
    """Plain Fraction Gaussian elimination on a dense copy."""
    a = [[m.entries.get((i, j), Fraction(0)) for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        piv = None
        for i in range(rank, m.rows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(m.rows):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                for j in range(m.cols):
                    a[i][j] -= f * a[rank][j]
        rank += 1
    return rank


# -- delta matrices -------------------------------------------------------------

def test_delta_of_segment():
    d = delta_matrix(segment())
    assert (d.rows, d.cols) == (2, 1)
    assert d.entries == {(1, 0): 1, (0, 0): -1}


def test_delta_of_loop_is_zero_column():
    g = SerreGraph.from_geometric([0], [(0, 0)])
    d = delta_matrix(g)
    assert (d.rows, d.cols) == (1, 1)
    assert is_zero(d)


def test_delta_of_triangle_has_rank_two():
    d = delta_matrix(triangle())
    assert (d.rows, d.cols) == (3, 3)
    assert dense_rank_oracle(d) == 2
    assert d.rank() == 2


# -- rank / kernel / cokernel ---------------------------------------------------

def test_rkc_zero_one_by_one():
    m = SparseMatrixQ(1, 1)
    assert rank_kernel_cokernel(m) == (0, 1, 1)


def test_rkc_segment_delta_is_tree_profile():
    assert rank_kernel_cokernel(delta_matrix(segment())) == (1, 0, 1)


def test_rkc_triangle_delta():
    assert rank_kernel_cokernel(delta_matrix(triangle())) == (2, 1, 1)


def test_rank_matches_oracle_on_random_rational_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.6:
                    entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        m = SparseMatrixQ(rows, cols, entries)
        assert m.rank() == dense_rank_oracle(m)


# -- exactness ------------------------------------------------------------------

def test_segment_resolution_is_exact():
    d = delta_matrix(segment())
    assert verify_short_exact(d, augmentation_matrix(2))


def test_zero_map_is_not_injective_hence_not_exact():
    a = SparseMatrixQ(2, 1)
    b = identity(2)
    assert not verify_short_exact(a, b)


def test_exactness_requires_composability():
    with pytest.raises(ValueError):
        verify_short_exact(SparseMatrixQ(3, 1), identity(2))


def test_line_tree_resolution_is_exact_and_circuit_is_not():
    g = SerreGraph.from_geometric(range(4), [(0, 1), (1, 2), (2, 3)])
    assert verify_short_exact(delta_matrix(g), augmentation_matrix(4))
    assert not verify_short_exact(delta_matrix(triangle()), augmentation_matrix(3))


# -- dimension counts on random graphs -----------------------------------------

def test_kernel_and_cokernel_count_cycles_and_components():
    rng = random.Random(20240811)
    for _ in range(300):
        g = random_graph(rng, max_vertices=40)
        c = len(bfs_blocks(g))
        n_geo = len(g.geometric_edges())
        rank, ker, coker = rank_kernel_cokernel(delta_matrix(g))
        assert ker == n_geo - len(g.vertices) + c
        assert coker == c
        assert is_tree(g) == (ker == 0 and coker == 1)


def test_no_stored_zeros():
    m = SparseMatrixQ(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2, 4)})
    assert (0, 0) not in m.entries
    assert m.entries[(1, 1)] == Fraction(1, 2)


def test_matmul_exact():
    a = from_rows([[Fraction(1, 3), 1], [0, Fraction(2)]])
    b = from_rows([[3, 0], [Fraction(1, 2), 1]])
    assert matmul(a, b).entries == {(0, 0): Fraction(3, 2), (0, 1): 1, (1, 0): 1, (1, 1): 2}


# -- the command line against the reference ---------------------------------------

def reference_homology(g):
    """`endlab homology`'s report, with the ranks from elimination."""
    rank, ker, coker = rank_kernel_cokernel(delta_matrix(g))
    c = len(bfs_blocks(g))
    return {
        "vertices": len(g.vertices),
        "geometric_edges": len(g.geometric_edges()),
        "components": c,
        "delta_rank": rank,
        "cycle_space_dim": ker,
        "component_space_dim": coker,
        "is_tree": c == 1 and len(g.vertices) - len(g.geometric_edges()) == 1,
    }


def test_homology_command_matches_elimination(tmp_path, capsys):
    # random graphs carry loops, parallel edges and isolated vertices
    rng = random.Random(20261018)
    graphs = [SerreGraph([], {}, {}), SerreGraph.from_geometric([0, 1], [])]
    graphs += [random_graph(rng, max_vertices=25) for _ in range(150)]
    path = tmp_path / "graph.json"
    for g in graphs:
        path.write_text(json.dumps(graph_json(g)))
        assert cli.main(["homology", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == reference_homology(g), graph_json(g)


def test_verify_and_homology_rank_no_matrix(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a graph's ranks come from its components, not from elimination")

    monkeypatch.setattr(SparseMatrixQ, "rank", refuse)
    assert cli.main(["verify", "--default"]) == 0
    assert json.loads(capsys.readouterr().out)["all_consistent"]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_json(triangle())))
    assert cli.main(["homology", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["cycle_space_dim"] == 1
