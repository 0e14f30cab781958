import random
from fractions import Fraction

import pytest

from endlab.qlinalg import (
    SparseMatrixQ,
    augmentation_matrix,
    delta_matrix,
    rank_kernel_cokernel,
    verify_short_exact,
)
from endlab.serre_graphs import SerreGraph, random_graph

from test_serre_graphs import bfs_blocks, segment, triangle


# -- independent rank oracle --------------------------------------------------

def dense_rank_oracle(m):
    """Plain Fraction Gaussian elimination on a dense copy."""
    a = [[m[(i, j)] for j in range(m.cols)] for i in range(m.rows)]
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
    assert d[(1, 0)] == 1 and d[(0, 0)] == -1


def test_delta_of_loop_is_zero_column():
    g = SerreGraph.from_geometric([0], [(0, 0)])
    d = delta_matrix(g)
    assert (d.rows, d.cols) == (1, 1)
    assert d.is_zero()


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
    b = SparseMatrixQ.identity(2)
    assert not verify_short_exact(a, b)


def test_exactness_requires_composability():
    with pytest.raises(ValueError):
        verify_short_exact(SparseMatrixQ(3, 1), SparseMatrixQ.identity(2))


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
        assert g.is_tree() == (ker == 0 and coker == 1)


def test_no_stored_zeros():
    m = SparseMatrixQ(2, 2, {(0, 0): Fraction(0), (1, 1): Fraction(2, 4)})
    assert (0, 0) not in m.entries
    assert m[(1, 1)] == Fraction(1, 2)


def test_matmul_exact():
    a = SparseMatrixQ.from_rows([[Fraction(1, 3), 1], [0, Fraction(2)]])
    b = SparseMatrixQ.from_rows([[3, 0], [Fraction(1, 2), 1]])
    p = a.matmul(b)
    assert p[(0, 0)] == Fraction(3, 2) and p[(0, 1)] == 1
    assert p[(1, 0)] == 1 and p[(1, 1)] == 2
