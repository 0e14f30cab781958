import itertools

import pytest

from endlab.bass_serre import (
    GraphOfFiniteGroups,
    PiOne,
    exactness_on_truncation,
    splitting_classify,
    tree_truncation,
)
from endlab.cayley_abels import ball_enumerate
from endlab.group_backends import FiniteGroup
from endlab.qlinalg import delta_matrix, rank_kernel_cokernel
from endlab.serre_graphs import SerreGraph


def segment_gog(left_n, right_n, edge_n, emb_left, emb_right, name="seg"):
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w")])
    return GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(left_n), "w": FiniteGroup.cyclic(right_n)},
        {0: FiniteGroup.cyclic(edge_n)},
        {0: emb_right, 1: emb_left},
        name=name,
    )


def loop_gog(vertex_n, edge_n, emb_fwd, emb_bwd, name="loop"):
    graph = SerreGraph.from_geometric(["v"], [("v", "v")])
    return GraphOfFiniteGroups(
        graph,
        {"v": FiniteGroup.cyclic(vertex_n)},
        {0: FiniteGroup.cyclic(edge_n)},
        {0: emb_fwd, 1: emb_bwd},
        name=name,
    )


def point_gog(n, name="pt"):
    return GraphOfFiniteGroups(
        SerreGraph.from_geometric(["v"], []),
        {"v": FiniteGroup.cyclic(n)},
        {},
        {},
        name=name,
    )


def dinf():
    return PiOne(segment_gog(2, 2, 1, [0], [0], name="C2*C2"))


def c2c3():
    return PiOne(segment_gog(2, 3, 1, [0], [0], name="C2*C3"))


def z_hnn():
    return PiOne(loop_gog(1, 1, [0], [0], name="Z"))


def c4c2c4():
    return PiOne(segment_gog(4, 4, 2, [0, 2], [0, 2], name="C4*C4/C2"))


# -- oracles -------------------------------------------------------------------

def affine_value(pi, el):
    """Compose the faithful affine action of a (2,2)-amalgam's generators."""
    maps = {"u": (-1, 0), "w": (-1, 1)}
    chain = pi.vertex_chain(pi.base_vertex, el.es)
    p, q = 1, 0
    for i, g in enumerate(el.gs):
        if g != pi.vgroup(chain[i]).identity:
            a, b = maps[chain[i]]
            p, q = p * a, p * b + q
    return p, q


def hnn_value(el):
    return sum(1 if e == 0 else -1 for e in el.es)


# -- validation ------------------------------------------------------------------

def test_point_gog_validates():
    pi = PiOne(point_gog(2))
    x = pi.vertex_inclusion("v", 1)
    assert (x * x).is_identity()
    assert not x.is_identity()


def test_surjective_end_is_valid_but_trivial():
    # order-two edge group fills the whole left vertex group
    gog = segment_gog(2, 4, 2, [0, 1], [0, 2])
    report = splitting_classify(gog)
    assert report.overall == "trivial"


def test_c2_c3_amalgam_data():
    pi = c2c3()
    assert pi.data.spanning_tree == frozenset({0})
    assert pi.data.stable_letters == ()
    # identity-first transversals with one representative per image coset
    assert pi.data.transversals[0] == (0, 1, 2)
    assert pi.data.transversals[1] == (0, 1)


def test_non_injective_embedding_rejected():
    with pytest.raises(ValueError, match="injective|homomorphism"):
        segment_gog(2, 2, 2, [0, 0], [0, 1])


def test_non_homomorphism_rejected():
    # injective as a map but does not send the identity to the identity
    with pytest.raises(ValueError, match="homomorphism"):
        segment_gog(3, 3, 3, [0, 1, 2], [1, 0, 2])


def test_disconnected_base_rejected():
    graph = SerreGraph.from_geometric(["u", "w"], [])
    with pytest.raises(ValueError, match="connected"):
        GraphOfFiniteGroups(
            graph,
            {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
            {},
            {},
        )


def test_missing_embedding_rejected():
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w")])
    with pytest.raises(ValueError, match="embedding"):
        GraphOfFiniteGroups(
            graph,
            {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
            {0: FiniteGroup.cyclic(1)},
            {0: [0]},
        )


# -- multiplication ---------------------------------------------------------------

def test_dinf_involutions():
    pi = dinf()
    x = pi.vertex_inclusion("u", 1)
    y = pi.vertex_inclusion("w", 1)
    assert (x * x).is_identity()
    assert (y * y).is_identity()
    assert x * y != y * x


def test_hnn_powers_add_like_integers():
    pi = z_hnn()
    t = pi.edge_letter(0)
    powers = {}
    for n in range(-4, 5):
        el = pi.identity()
        step = t if n >= 0 else pi.inverse(t)
        for _ in range(abs(n)):
            el = el * step
        powers[n] = el
        assert hnn_value(el) == n
    for n in range(-2, 3):
        for m in range(-2, 3):
            assert powers[n] * powers[m] == powers[n + m]


def test_c2c3_reduction_example():
    pi = c2c3()
    a = pi.vertex_inclusion("u", 1)
    b = pi.vertex_inclusion("w", 1)
    assert ((a * b) * ((b * b) * a)).is_identity()
    # cross-check against the faithful action on a tree truncation
    tt = tree_truncation(pi, 5)
    lhs = (a * b) * ((b * b) * a)
    assert all(tt.act_vertex(lhs, v) == v for v in tt.graph.vertices)


def test_amalgamated_relation_in_c4c2c4():
    pi = c4c2c4()
    h = pi.vertex_inclusion("u", 1)
    j = pi.vertex_inclusion("w", 1)
    assert h * h == j * j
    assert not (h * h).is_identity()


def test_multiplication_matches_affine_oracle_on_ball4():
    pi = dinf()
    gens = pi.default_generators()
    ball = ball_enumerate(pi, gens, 4)
    for g, h in itertools.product(ball, repeat=2):
        prod = g * h
        pg, qg = affine_value(pi, g)
        ph, qh = affine_value(pi, h)
        assert affine_value(pi, prod) == (pg * ph, pg * qh + qg)
        assert (g == h) == (affine_value(pi, g) == affine_value(pi, h))


def test_multiplication_matches_integer_oracle_on_ball4():
    pi = z_hnn()
    t = pi.edge_letter(0)
    ball = ball_enumerate(pi, [t, pi.inverse(t)], 4)
    for g, h in itertools.product(ball, repeat=2):
        assert hnn_value(g * h) == hnn_value(g) + hnn_value(h)
        assert (g == h) == (hnn_value(g) == hnn_value(h))


def test_associativity_on_ball3_triples():
    for pi in (dinf(), z_hnn()):
        gens = pi.default_generators()
        ball = ball_enumerate(pi, gens, 3)
        e = pi.identity()
        for a, b, c in itertools.product(ball, repeat=3):
            assert (a * b) * c == a * (b * c)
        for a in ball:
            assert a * e == a == e * a
            assert (a * pi.inverse(a)).is_identity()


def test_associativity_sample_c2c3():
    pi = c2c3()
    ball = ball_enumerate(pi, pi.default_generators(), 2)
    for a, b, c in itertools.product(ball, repeat=3):
        assert (a * b) * c == a * (b * c)


# -- tree truncations ----------------------------------------------------------------

def test_point_truncation_is_one_vertex():
    pi = PiOne(point_gog(5))
    tt = tree_truncation(pi, 4)
    assert len(tt.graph.vertices) == 1
    assert tt.graph.is_tree()


def test_dinf_truncation_is_a_path():
    # ball of radius 3 in the line: 7 vertices, degrees at most 2
    tt = tree_truncation(dinf(), 3)
    assert len(tt.graph.vertices) == 7
    assert tt.graph.is_tree()
    degrees = sorted(len(tt.graph.star(v)) for v in tt.graph.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2, 2]


def test_c2c3_truncation_is_biregular():
    pi = c2c3()
    tt = tree_truncation(pi, 2)
    assert tt.graph.is_tree()
    for v in tt.graph.vertices:
        want = {"u": 2, "w": 3}[v[1]]
        assert len(pi.vgroup(v[1])) == want
        if tt.depth[v] < tt.radius:
            # interior degree equals the index of the edge group
            assert len(tt.graph.star(v)) == want


def test_truncations_pass_linear_tree_test():
    for pi, r in ((dinf(), 4), (c2c3(), 3), (z_hnn(), 4), (c4c2c4(), 3)):
        tt = tree_truncation(pi, r)
        assert tt.graph.is_tree()
        rank, ker, coker = rank_kernel_cokernel(delta_matrix(tt.graph))
        assert (ker, coker) == (0, 1)


def test_base_vertex_stabilizer_is_vertex_group():
    pi = c2c3()
    tt = tree_truncation(pi, 3)
    a = pi.vertex_inclusion("u", 1)
    b = pi.vertex_inclusion("w", 1)
    assert tt.act_vertex(a, tt.base) == tt.base
    assert tt.act_vertex(pi.identity(), tt.base) == tt.base
    assert tt.act_vertex(b, tt.base) != tt.base
    assert tt.act_vertex(a * b, tt.base) != tt.base


def test_action_preserves_incidence():
    pi = dinf()
    tt = tree_truncation(pi, 4)
    g = pi.vertex_inclusion("u", 1)
    adjacency = {
        frozenset((tt.graph.origin(e), tt.graph.terminus(e))) for e in tt.graph.edges
    }
    inside = set(tt.graph.vertices)
    for e in tt.graph.edges:
        p, q = tt.act_vertex(g, tt.graph.origin(e)), tt.act_vertex(g, tt.graph.terminus(e))
        if p in inside and q in inside:
            assert frozenset((p, q)) in adjacency


# -- splitting classification ----------------------------------------------------------

def test_classify_dinf_segment():
    assert splitting_classify(dinf().gog).overall == "nontrivial_s1"


def test_classify_trivial_at_surjective_end():
    gog = segment_gog(2, 4, 2, [0, 1], [0, 2])
    report = splitting_classify(gog)
    assert report.per_edge == ((0, "trivial"),)


def test_classify_loop_is_s2():
    assert splitting_classify(z_hnn().gog).overall == "nontrivial_s2"


def test_classify_point_has_no_edge():
    assert splitting_classify(point_gog(3)).overall == "no_edge"


def test_classify_multi_edge_reports_per_edge():
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w"), ("u", "u")])
    gog = GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
        {0: FiniteGroup.cyclic(1), 2: FiniteGroup.cyclic(1)},
        {0: [0], 1: [0], 2: [0], 3: [0]},
    )
    report = splitting_classify(gog)
    assert report.overall is None
    assert dict(report.per_edge) == {0: "nontrivial_s1", 2: "nontrivial_s2"}


# -- exact sequences --------------------------------------------------------------------

def test_exactness_on_dinf_truncation():
    cert = exactness_on_truncation(dinf(), 3)
    assert cert.passed
    assert cert.details["delta_kernel"] == 0
    assert cert.details["delta_cokernel"] == 1


def test_exactness_on_c2c3_truncation():
    assert exactness_on_truncation(c2c3(), 2).passed


def test_exactness_degenerate_point():
    cert = exactness_on_truncation(PiOne(point_gog(5)), 2)
    assert cert.passed
    assert cert.details["vertices"] == 1
    assert cert.details["geometric_edges"] == 0


def test_exactness_radius_validated():
    with pytest.raises(ValueError):
        exactness_on_truncation(dinf(), 0)


# -- serialization ------------------------------------------------------------------------

def test_gog_json_round_trip():
    gog = c4c2c4().gog
    data = gog.to_json()
    back = GraphOfFiniteGroups.from_json(data)
    assert back.to_json() == data
    pi = PiOne(back)
    h = pi.vertex_inclusion("u", 1)
    j = pi.vertex_inclusion("w", 1)
    assert h * h == j * j


def test_multi_edge_graph_of_groups_arithmetic():
    # segment u--w plus a loop at u, all groups small: one stable letter
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w"), ("u", "u")])
    gog = GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(2)},
        {0: FiniteGroup.cyclic(1), 2: FiniteGroup.cyclic(1)},
        {0: [0], 1: [0], 2: [0], 3: [0]},
        name="mixed",
    )
    pi = PiOne(gog)
    assert pi.data.stable_letters == (2,)
    x = pi.vertex_inclusion("u", 1)
    y = pi.vertex_inclusion("w", 1)
    t = pi.edge_letter(2)
    assert (x * x).is_identity() and (y * y).is_identity()
    assert not (t * t).is_identity()
    assert (t * pi.inverse(t)).is_identity()
    ball = ball_enumerate(pi, [x, y, t, pi.inverse(t)], 2)
    for a, b, c in itertools.product(ball, repeat=3):
        assert (a * b) * c == a * (b * c)
    tt = tree_truncation(pi, 3)
    assert tt.graph.is_tree()
    # two cosets per base-graph edge leaving u: segment plus both loop orientations
    assert len(tt.graph.star(tt.base)) == 6


def test_table_backed_klein_four_amalgam():
    klein = FiniteGroup(
        ["e", "a", "b", "ab"],
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        name="V4",
    )
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w")])
    gog = GraphOfFiniteGroups(
        graph,
        {"u": klein, "w": FiniteGroup.cyclic(4)},
        {0: FiniteGroup.cyclic(2)},
        {0: [0, 2], 1: [0, 1]},
        name="V4*C4/C2",
    )
    pi = PiOne(gog)
    # index-two edge group on both sides: the covering tree is a line
    tt = tree_truncation(pi, 4)
    assert tt.graph.is_tree()
    assert all(len(tt.graph.star(v)) <= 2 for v in tt.graph.vertices)
    assert exactness_on_truncation(pi, 3).passed
    back = GraphOfFiniteGroups.from_json(gog.to_json())
    assert back.to_json() == gog.to_json()


def test_tree_truncation_respects_cap():
    import pytest as _pytest
    from endlab.errors import BudgetExceeded

    with _pytest.raises(BudgetExceeded):
        tree_truncation(c2c3(), 6, cap=5)
