"""Test-side constructions that no endlab code reads."""

from endlab.cayley_abels import GeneratingPair, build, trivial_subgroup
from endlab.group_backends import DEFAULT_CAP
from endlab.serre_graphs import SerreGraph


def random_graph(rng, max_vertices=40, edge_factor=1.2):
    """Random finite graph with loops and parallel edges allowed."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, int(edge_factor * n))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return SerreGraph.from_geometric(range(n), pairs)


def ball_enumerate(backend, gens, radius, cap=DEFAULT_CAP):
    """Elements of word length <= radius over gens, in BFS order.

    This is the coset graph of (1, gens): gens is closed under inverses,
    and each BFS layer comes in sort_key order.
    """
    pair = GeneratingPair(backend, trivial_subgroup(backend), gens)
    return build(pair, radius, cap=cap).vertices


def catalog_to_json(entries):
    """The catalog document of the given entries, as catalog_from_json reads it."""
    return {"entries": [e.to_json() for e in entries]}
