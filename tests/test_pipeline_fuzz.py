"""Randomized small graphs of groups pushed through the whole pipeline.

Cyclic vertex and edge groups with random valid embeddings: every
generated input must validate, multiply associatively, produce genuine
tree truncations with exact resolutions, and, when the splitting is
nontrivial, a witness whose chain of checks closes.
"""

import itertools
import random

from endlab.ai_cohomology import (
    check_almost_invariance,
    cut_from_witness,
    dh1_nonvanishing_certificate,
    witness_from_splitting,
)
from endlab.bass_serre import (
    GraphOfFiniteGroups,
    PiOne,
    exactness_on_truncation,
    splitting_classify,
    tree_truncation,
)
from endlab.group_backends import FiniteGroup
from endlab.serre_graphs import SerreGraph

from helpers import ball_enumerate, is_tree


def cyclic_embedding(rng, d, n):
    """A random injective homomorphism from C_d into C_n (requires d | n)."""
    units = [m for m in range(1, d + 1) if random_gcd(m, d) == 1]
    m = rng.choice(units)
    step = (n // d) * m
    return [(i * step) % n for i in range(d)]


def random_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def random_segment(rng):
    d = rng.choice([1, 1, 2, 3])
    left = d * rng.choice([1, 2, 3])
    right = d * rng.choice([1, 2, 3])
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w")])
    return GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(left), "w": FiniteGroup.cyclic(right)},
        {0: FiniteGroup.cyclic(d)},
        {0: cyclic_embedding(rng, d, right), 1: cyclic_embedding(rng, d, left)},
        name=f"C{left}*C{right}/C{d}",
    )


def random_loop(rng):
    d = rng.choice([1, 2])
    n = d * rng.choice([1, 2, 3])
    graph = SerreGraph.from_geometric(["v"], [("v", "v")])
    return GraphOfFiniteGroups(
        graph,
        {"v": FiniteGroup.cyclic(n)},
        {0: FiniteGroup.cyclic(d)},
        {0: cyclic_embedding(rng, d, n), 1: cyclic_embedding(rng, d, n)},
        name=f"C{n}hnnC{d}",
    )


def test_random_graphs_of_groups_survive_the_pipeline():
    rng = random.Random(20260809)
    for trial in range(25):
        gog = random_segment(rng) if rng.random() < 0.6 else random_loop(rng)
        pi = PiOne(gog)
        gens = pi.default_generators()
        if gens:
            ball = ball_enumerate(pi, gens, 2)
            sample = ball[:6]
            for a, b, c in itertools.product(sample, repeat=3):
                assert pi.multiply(pi.multiply(a, b), c) == pi.multiply(a, pi.multiply(b, c)), gog.name
            for a in sample:
                assert pi.multiply(a, pi.inverse(a)).is_identity(), gog.name

        tt = tree_truncation(pi, 3)
        assert is_tree(tt.graph), gog.name
        assert exactness_on_truncation(pi, 2).passed, gog.name

        report = splitting_classify(gog)
        if report.overall not in ("nontrivial_s1", "nontrivial_s2"):
            continue
        # the least probe radius whose margin holds a sphere-1 witness probe
        w = witness_from_splitting(pi, 0, probe_radius=6)
        cert = check_almost_invariance(w)
        assert cert.passed, (gog.name, cert.details["failures"])
        assert dh1_nonvanishing_certificate(w).passed, gog.name
        cut = cut_from_witness(w)
        assert cut.bound_ok, gog.name
        assert cut.escaping_components >= 2, gog.name
