import functools
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import bass_serre
from endlab.ai_cohomology import witness_from_splitting
from endlab.bass_serre import (
    CoveringTree,
    GraphOfFiniteGroups,
    HalfTreeSplitting,
    PiOne,
    PiOneElement,
    exactness_on_truncation,
    splitting_classify,
    tree_truncation,
)
from endlab.cayley_abels import ball_walk, coset_canonical
from endlab.errors import BudgetExceeded, InternalInconsistency
from endlab.group_backends import DEFAULT_CAP, FiniteGroup
from endlab.serre_graphs import SerreGraph
from endlab.theorem_lab import RESOLUTION_RADIUS, run_witness_chain

from helpers import append_mul, ball_enumerate, graph_json, is_tree
from test_pipeline_fuzz import random_loop, random_segment
from test_qlinalg import augmentation_matrix, delta_matrix, rank_kernel_cokernel, verify_short_exact
from test_serre_graphs import triangle


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
    assert pi.multiply(x, x).is_identity()
    assert not x.is_identity()


def test_surjective_end_is_valid_but_trivial():
    # order-two edge group fills the whole left vertex group
    gog = segment_gog(2, 4, 2, [0, 1], [0, 2])
    report = splitting_classify(gog)
    assert report.overall == "trivial"


def test_c2_c3_amalgam_data():
    pi = c2c3()
    assert pi.tree_paths == {"u": (), "w": (0,)}
    assert pi.stable_letters == ()
    # identity-first transversals with one representative per image coset
    for e, reps in [(0, (0, 1, 2)), (1, (0, 1))]:
        assert tuple(dict.fromkeys(s for s, _ in pi._push[e].values())) == reps


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
    assert pi.multiply(x, x).is_identity()
    assert pi.multiply(y, y).is_identity()
    assert pi.multiply(x, y) != pi.multiply(y, x)


def test_hnn_powers_add_like_integers():
    pi = z_hnn()
    t = pi.edge_letter(0)
    powers = {}
    for n in range(-4, 5):
        el = pi.identity()
        step = t if n >= 0 else pi.inverse(t)
        for _ in range(abs(n)):
            el = pi.multiply(el, step)
        powers[n] = el
        assert hnn_value(el) == n
    for n in range(-2, 3):
        for m in range(-2, 3):
            assert pi.multiply(powers[n], powers[m]) == powers[n + m]


def test_c2c3_reduction_example():
    pi = c2c3()
    a = pi.vertex_inclusion("u", 1)
    b = pi.vertex_inclusion("w", 1)
    assert pi.multiply(pi.multiply(a, b), pi.multiply(pi.multiply(b, b), a)).is_identity()
    # cross-check against the faithful action on a tree truncation
    tt = tree_truncation(pi, 5)
    lhs = pi.multiply(pi.multiply(a, b), pi.multiply(pi.multiply(b, b), a))
    assert all(pi.vertex_label(pi.multiply(lhs, v)) == v for v in tt.vertices)


def test_amalgamated_relation_in_c4c2c4():
    pi = c4c2c4()
    h = pi.vertex_inclusion("u", 1)
    j = pi.vertex_inclusion("w", 1)
    assert pi.multiply(h, h) == pi.multiply(j, j)
    assert not pi.multiply(h, h).is_identity()


def test_multiplication_matches_affine_oracle_on_ball4():
    pi = dinf()
    gens = pi.default_generators()
    ball = ball_enumerate(pi, gens, 4)
    for g, h in itertools.product(ball, repeat=2):
        prod = pi.multiply(g, h)
        pg, qg = affine_value(pi, g)
        ph, qh = affine_value(pi, h)
        assert affine_value(pi, prod) == (pg * ph, pg * qh + qg)
        assert (g == h) == (affine_value(pi, g) == affine_value(pi, h))


def test_multiplication_matches_integer_oracle_on_ball4():
    pi = z_hnn()
    t = pi.edge_letter(0)
    ball = ball_enumerate(pi, [t, pi.inverse(t)], 4)
    for g, h in itertools.product(ball, repeat=2):
        assert hnn_value(pi.multiply(g, h)) == hnn_value(g) + hnn_value(h)
        assert (g == h) == (hnn_value(g) == hnn_value(h))


def test_associativity_on_ball3_triples():
    for pi in (dinf(), z_hnn()):
        gens = pi.default_generators()
        ball = ball_enumerate(pi, gens, 3)
        e = pi.identity()
        for a, b, c in itertools.product(ball, repeat=3):
            assert pi.multiply(pi.multiply(a, b), c) == pi.multiply(a, pi.multiply(b, c))
        for a in ball:
            assert pi.multiply(a, e) == a == pi.multiply(e, a)
            assert pi.multiply(a, pi.inverse(a)).is_identity()


def test_associativity_sample_c2c3():
    pi = c2c3()
    ball = ball_enumerate(pi, pi.default_generators(), 2)
    for a, b, c in itertools.product(ball, repeat=3):
        assert pi.multiply(pi.multiply(a, b), c) == pi.multiply(a, pi.multiply(b, c))


# -- tree truncations ----------------------------------------------------------------

def test_point_truncation_is_one_vertex():
    pi = PiOne(point_gog(5))
    tt = tree_truncation(pi, 4)
    assert len(tt.graph.vertices) == 1
    assert is_tree(tt.graph)


def test_dinf_truncation_is_a_path():
    # ball of radius 3 in the line: 7 vertices, degrees at most 2
    tt = tree_truncation(dinf(), 3)
    assert len(tt.graph.vertices) == 7
    assert is_tree(tt.graph)
    degrees = sorted(len(tt.graph.star(v)) for v in tt.graph.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2, 2]


def test_c2c3_truncation_is_biregular():
    pi = c2c3()
    tt = tree_truncation(pi, 2)
    assert is_tree(tt.graph)
    for v in tt.vertices:
        want = {"u": 2, "w": 3}[pi.morph_end(v)]
        assert len(pi.vgroup(pi.morph_end(v))) == want
        if v in tt.vertices[:tt.starts[tt.radius]]:
            # interior degree equals the index of the edge group
            assert len(tt.graph.star(v)) == want


def test_truncations_pass_linear_tree_test():
    for pi, r in ((dinf(), 4), (c2c3(), 3), (z_hnn(), 4), (c4c2c4(), 3)):
        tt = tree_truncation(pi, r)
        assert is_tree(tt.graph)
        rank, ker, coker = rank_kernel_cokernel(delta_matrix(tt.graph))
        assert (ker, coker) == (0, 1)


def test_base_vertex_stabilizer_is_vertex_group():
    pi = c2c3()
    tt = tree_truncation(pi, 3)
    a = pi.vertex_inclusion("u", 1)
    b = pi.vertex_inclusion("w", 1)
    base = tt.vertices[0]

    def act(g, m):
        return pi.vertex_label(pi.multiply(g, m))

    assert act(a, base) == base
    assert act(pi.identity(), base) == base
    assert act(b, base) != base
    assert act(pi.multiply(a, b), base) != base


def test_action_preserves_incidence():
    pi = dinf()
    tt = tree_truncation(pi, 4)
    g = pi.vertex_inclusion("u", 1)
    adjacency = {
        frozenset((tt.graph.origin(e), tt.graph.terminus(e))) for e in tt.graph.edges
    }
    inside = set(tt.graph.vertices)
    for e in tt.graph.edges:
        p, q = (pi.vertex_label(pi.multiply(g, m)) for m in (tt.graph.origin(e), tt.graph.terminus(e)))
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

def cyclic_spec(n):
    return {"kind": "cyclic", "n": n}


def segment_spec(name, left, right, edge, emb_left, emb_right):
    """The graph_of_finite_groups spec of segment_gog: u and w joined by edges 0, 1."""
    return {
        "type": "graph_of_finite_groups",
        "name": name,
        "vertices": [{"id": "u", "group": left}, {"id": "w", "group": right}],
        "edges": [
            {"id": 0, "inv": 1, "o": "u", "t": "w", "edge_group": edge, "embedding": emb_right},
            {"id": 1, "inv": 0, "o": "w", "t": "u", "edge_group": edge, "embedding": emb_left},
        ],
    }


def assert_same_gog(a, b):
    """One name, base graph and embedding per edge, and one group per vertex and edge."""
    assert (a.name, graph_json(a.graph), a.embeddings) == (b.name, graph_json(b.graph), b.embeddings)
    for groups_a, groups_b in ((a.vgroups, b.vgroups), (a.egroups, b.egroups)):
        assert {x: (G.elements, G.table) for x, G in groups_a.items()} == {
            x: (G.elements, G.table) for x, G in groups_b.items()}


def test_gog_json_round_trip():
    back = GraphOfFiniteGroups.from_json(
        segment_spec("C4*C4/C2", cyclic_spec(4), cyclic_spec(4), cyclic_spec(2), [0, 2], [0, 2]))
    assert_same_gog(back, c4c2c4().gog)
    pi = PiOne(back)
    h = pi.vertex_inclusion("u", 1)
    j = pi.vertex_inclusion("w", 1)
    assert pi.multiply(h, h) == pi.multiply(j, j)


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
    assert pi.stable_letters == (2,)
    x = pi.vertex_inclusion("u", 1)
    y = pi.vertex_inclusion("w", 1)
    t = pi.edge_letter(2)
    assert pi.multiply(x, x).is_identity() and pi.multiply(y, y).is_identity()
    assert not pi.multiply(t, t).is_identity()
    assert pi.multiply(t, pi.inverse(t)).is_identity()
    ball = ball_enumerate(pi, [x, y, t, pi.inverse(t)], 2)
    for a, b, c in itertools.product(ball, repeat=3):
        assert pi.multiply(pi.multiply(a, b), c) == pi.multiply(a, pi.multiply(b, c))
    tt = tree_truncation(pi, 3)
    assert is_tree(tt.graph)
    # two cosets per base-graph edge leaving u: segment plus both loop orientations
    assert len(tt.graph.star(tt.vertices[0])) == 6


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
    assert is_tree(tt.graph)
    assert all(len(tt.graph.star(v)) <= 2 for v in tt.graph.vertices)
    assert exactness_on_truncation(pi, 3).passed
    # the same amalgam from a spec that gives V4 as a "table" group
    spec = segment_spec("V4*C4/C2", {"kind": "table", "elements": klein.elements, "table": klein.table},
                        cyclic_spec(4), cyclic_spec(2), [0, 1], [0, 2])
    assert_same_gog(GraphOfFiniteGroups.from_json(spec), gog)


def test_tree_truncation_respects_cap():
    import pytest as _pytest
    from endlab.errors import BudgetExceeded

    with _pytest.raises(BudgetExceeded):
        tree_truncation(c2c3(), 6, cap=5)


def test_unpaired_tree_rows_name_the_covering_tree(monkeypatch):
    pi = c2c3()

    def raw_neighbours(self, m):
        # appends the edge letter raw, so a neighbour that steps back along
        # the last letter keeps its pinch and is labelled as a vertex of its own
        pi = self.pi
        return [pi.vertex_label(cross(pi, append_mul(pi, m, h), e)) for h, e in tree_steps(pi, pi.morph_end(m))]

    monkeypatch.setattr(CoveringTree, "neighbours", raw_neighbours)
    with pytest.raises(InternalInconsistency, match=r"^unbalanced edge multiplicities .*CoveringTree\(pi1\(C2\*C3\)\)"):
        tree_truncation(pi, 2)


# -- the linear normalizer against the left-greedy one it replaced -------------------

@functools.cache
def reference_tables(pi):
    """The original scan of the embeddings, read from pi.gog alone: per
    edge e, the inverse h -> a of its embedding, and x -> (a, s) with
    x = h_a s, s the first element of its image coset in an identity-first
    scan of the group at terminus(e)."""
    graph, image_inverse, decompositions = pi.graph, {}, {}
    for e in graph.edges:
        H, img = pi.vgroup(graph.terminus(e)), pi.gog.embeddings[e]
        image_inverse[e] = {h: a for a, h in enumerate(img)}
        taken = decompositions[e] = {}
        for x in [H.identity] + [i for i in range(len(H)) if i != H.identity]:
            if x not in taken:
                for a, h in enumerate(img):
                    taken[H.mul(h, x)] = (a, x)
    return image_inverse, decompositions


def reference_normalize(pi, start, gs, es):
    """The original normalizer, kept as the reference.

    It removes the leftmost pinch, rescanning from position 0 after each
    one, then pushes to transversals right to left.
    """
    gs, es = list(gs), list(es)
    chain = pi.vertex_chain(start, es)
    if len(gs) != len(es) + 1:
        raise ValueError("word must alternate group elements and edges")
    inv = pi.graph.inverse
    im_inv, decompositions = reference_tables(pi)
    emb = pi.gog.embeddings
    while True:
        hit = -1
        for j in range(len(es) - 1):
            if es[j + 1] == inv(es[j]) and gs[j + 1] in im_inv[es[j]]:
                hit = j
                break
        if hit < 0:
            break
        j = hit
        a = im_inv[es[j]][gs[j + 1]]
        b = emb[inv(es[j])][a]
        G = pi.vgroup(chain[j])
        merged = G.mul(G.mul(gs[j], b), gs[j + 2])
        gs[j:j + 3] = [merged]
        es[j:j + 2] = []
        chain[j + 1:j + 3] = []
    for j in range(len(es), 0, -1):
        e = es[j - 1]
        a, s = decompositions[e][gs[j]]
        gs[j] = s
        b = emb[inv(e)][a]
        G = pi.vgroup(chain[j - 1])
        gs[j - 1] = G.mul(gs[j - 1], b)
    return PiOneElement(pi, tuple(gs), tuple(es), start)


def compose(pi, a, b):
    """a followed by b, for any words a and b with b starting where a ends,
    by the reference normalizer."""
    end = pi.morph_end(a)
    if end != b.start:
        raise ValueError(f"words do not meet: the first ends at {end!r}, the second starts at {b.start!r}")
    return reference_normalize(pi, a.start, *concat(pi, end, (a.gs, a.es), (b.gs, b.es)))


def cross(pi, m, e):
    """m followed by the edge letter e, appended raw."""
    if pi.morph_end(m) != pi.graph.origin(e):
        raise ValueError(f"edge {e} does not start at the endpoint of the word")
    return PiOneElement(pi, m.gs + (pi.vgroup(pi.graph.terminus(e)).identity,), m.es + (e,), m.start)


def reference_inverse(pi, m):
    """The inverse of any word by the full raw-word path: reverse it, invert
    each letter and normalize from scratch."""
    return reference_normalize(pi, pi.morph_end(m), *raw_inverse(pi, m.start, m.gs, m.es))


def reference_vertex_label(pi, m):
    v = pi.morph_end(m)
    G = pi.vgroup(v)
    cands = [
        reference_normalize(pi, m.start, m.gs[:-1] + (G.mul(m.gs[-1], u),), m.es)
        for u in range(len(G))
    ]
    return min(cands, key=pi.sort_key)


def tree_steps(pi, v):
    """The tree edges (h, e) at a vertex over v, in the order CoveringTree
    kept them before its rows came from coset_products: the edges out of v
    in edge order, and for each the least elements h of the cosets h.A_e."""
    graph, G, emb = pi.graph, pi.vgroup(v), pi.gog.embeddings
    return [
        (h, e)
        for e in graph.edges if graph.origin(e) == v
        for h in sorted({min(G.mul(x, a) for a in emb[graph.inverse(e)]) for x in range(len(G))})
    ]


def reference_tree_row(pi, m):
    """CoveringTree.neighbours before its rows came from coset_products,
    kept as the reference: each step (h, e) appends h raw with append_mul,
    crosses e with multiply and labels the child with vertex_label."""
    steps = [(append_mul(pi, m, h), pi._letter[e]) for h, e in tree_steps(pi, pi.morph_end(m))]
    return [pi.vertex_label(pi.multiply(a, b)) for a, b in steps]


def reference_edge_label(pi, m, e):
    ims = pi.gog.embeddings[pi.graph.inverse(e)]
    best = min(
        pi.sort_key(reference_normalize(pi, nu.start, nu.gs, nu.es))
        for nu in (append_mul(pi, m, u) for u in ims)
    )
    return ("e", e, best)


def mixed_gog():
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w"), ("u", "u")])
    return GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(4), "w": FiniteGroup.cyclic(6)},
        {0: FiniteGroup.cyclic(2), 2: FiniteGroup.cyclic(2)},
        {0: [0, 3], 1: [0, 2], 2: [0, 2], 3: [0, 2]},
        name="mixed",
    )


def normalizer_cases():
    from endlab.theorem_lab import default_catalog

    pis = [e.backend() for e in default_catalog() if isinstance(e.backend(), PiOne)]
    pis.append(PiOne(mixed_gog()))
    return pis


NORMALIZER_CASES = normalizer_cases()


def draw_walk(data, pi, start, max_len, backtrack):
    """A raw groupoid word from start: random letters and group elements,
    stepping back along the previous edge with probability backtrack."""
    gs = [data.draw(st.integers(0, len(pi.vgroup(start)) - 1))]
    es = []
    v = start
    for _ in range(data.draw(st.integers(0, max_len))):
        star = pi.graph.star(v)
        if not star:
            break
        if es and data.draw(st.floats(0, 1)) < backtrack:
            e = pi.graph.inverse(es[-1])
        else:
            e = data.draw(st.sampled_from(star))
        v = pi.graph.terminus(e)
        es.append(e)
        gs.append(data.draw(st.integers(0, len(pi.vgroup(v)) - 1)))
    return tuple(gs), tuple(es)


def draw_loop(data, pi, max_len, backtrack):
    """A raw loop at the base vertex: a walk, then back along the tree path."""
    gs, es = draw_walk(data, pi, pi.base_vertex, max_len, backtrack)
    end = pi.vertex_chain(pi.base_vertex, es)[-1]
    back = tuple(pi.graph.inverse(e) for e in reversed(pi.tree_paths[end]))
    for e in back:
        gs += (data.draw(st.integers(0, len(pi.vgroup(pi.graph.terminus(e))) - 1)),)
    return gs, es + back


def raw_inverse(pi, start, gs, es):
    chain = pi.vertex_chain(start, es)
    inv_gs = tuple(pi.vgroup(v).inverse_table[g] for v, g in zip(reversed(chain), reversed(gs)))
    return inv_gs, tuple(pi.graph.inverse(e) for e in reversed(es))


def concat(pi, end, w1, w2):
    G = pi.vgroup(end)
    return w1[0][:-1] + (G.mul(w1[0][-1], w2[0][0]),) + w2[0][1:], w1[1] + w2[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_matches_reference_on_raw_words(data):
    pi = data.draw(st.sampled_from(NORMALIZER_CASES))
    start = data.draw(st.sampled_from(pi.graph.vertices))
    backtrack = data.draw(st.sampled_from([0.0, 0.5, 0.9]))
    gs, es = draw_walk(data, pi, start, 14, backtrack)
    got = pi.normalize(start, gs, es)
    assert got == reference_normalize(pi, start, gs, es)
    # a normal form is its own normal form
    assert pi.normalize(start, got.gs, got.es) == got
    # the push-only inverse of a normal word from any start vertex
    inv_gs, inv_es = raw_inverse(pi, start, gs, es)
    got_inv = pi.inverse(got)
    assert got_inv == reference_normalize(pi, pi.morph_end(got), inv_gs, inv_es)
    empty = PiOneElement(pi, (pi.vgroup(start).identity,), (), start)
    assert pi.multiply(got, got_inv) == empty == compose(pi, got, got_inv)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_with_heavy_cancellation_match_reference(data):
    pi = data.draw(st.sampled_from(NORMALIZER_CASES))
    base = pi.base_vertex
    u = draw_loop(data, pi, 8, 0.3)
    v = draw_loop(data, pi, 8, 0.3)
    w = draw_loop(data, pi, 4, 0.3)
    uv = concat(pi, base, u, v)
    a = reference_normalize(pi, base, *uv)
    # b starts with the inverse of v, or of all of uv, so a * b cancels deep into a
    tail = data.draw(st.sampled_from([v, uv]))
    b_word = concat(pi, base, raw_inverse(pi, base, *tail), w)
    b = reference_normalize(pi, base, *b_word)
    expected = reference_normalize(pi, base, *concat(pi, base, uv, b_word))
    assert pi.multiply(a, b) == expected
    a_inv = pi.inverse(a)
    assert pi.multiply(a, a_inv).is_identity() and pi.multiply(a_inv, a).is_identity()
    assert pi.multiply(a, pi.identity()) == a == pi.multiply(pi.identity(), a)


def test_inverse_matches_invert_morph(catalog):
    # the push-only inverse of a normal form against the full raw-word path
    cases = [(e.backend(), 10) for e in catalog.values() if e.spec["backend"]["type"] == "graph_of_finite_groups"]
    cases += [(pi, 4) for pi in NORMALIZER_CASES + FUZZ_CASES if pi.default_generators()]
    for pi, radius in cases:
        for a in ball_enumerate(pi, pi.default_generators(), radius):
            assert pi.inverse(a) == reference_inverse(pi, a), (pi, a)


def empty_words(pi):
    """The empty words at u and w of a u - w segment: both are gs == (0,)."""
    p = pi.tree_path("w")
    return pi.identity(), pi.multiply(pi.inverse(p), p)


def test_words_at_different_vertices_differ(catalog):
    at_u, at_w = empty_words(catalog["dinfty_gog"].backend())
    assert (at_u.start, at_w.start) == ("u", "w")
    assert (at_u.gs, at_u.es) == (at_w.gs, at_w.es) == ((0,), ())
    assert at_u != at_w and hash(at_u) == hash(at_w)
    assert len({at_u: 0, at_w: 1}) == 2


@pytest.mark.parametrize("product", ["multiply"])
def test_products_refuse_words_that_do_not_meet(catalog, product):
    pi = catalog["dinfty_gog"].backend()
    at_u, at_w = empty_words(pi)
    with pytest.raises(ValueError, match="words do not meet"):
        getattr(pi, product)(at_u, at_w)
    with pytest.raises(ValueError, match="words do not meet"):
        getattr(pi, product)(pi.tree_path("w"), at_u)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coset_labels_match_reference(data):
    # vertex_label takes a word normal apart from its last group element: a
    # normal word, that word times a group element, or a tree step from either
    pi = data.draw(st.sampled_from(NORMALIZER_CASES + FUZZ_CASES))
    base = pi.base_vertex
    normal = reference_normalize(pi, base, *draw_walk(data, pi, base, 10, 0.5))
    h = data.draw(st.integers(0, len(pi.vgroup(pi.morph_end(normal))) - 1))
    for m in (normal, append_mul(pi, normal, h)):
        assert pi.vertex_label(m) == reference_vertex_label(pi, m)
        for e in pi.graph.star(pi.morph_end(m)):
            # crossing back along the last letter pinches at the junction
            step = pi.multiply(m, pi._letter[e])
            raw = cross(pi, m, e)
            assert step == reference_normalize(pi, raw.start, raw.gs, raw.es)
            assert pi.vertex_label(step) == reference_vertex_label(pi, step)


def reference_tree_path(pi, v):
    """The spanning-tree path to v, raw letters normalized by the reference."""
    m = pi.identity()
    for e in pi.tree_paths[v]:
        m = cross(pi, m, e)
    return reference_normalize(pi, m.start, m.gs, m.es)


def test_tree_paths_and_edge_letters_match_reference():
    # every vertex and edge, loops included, of the catalog graphs of groups,
    # mixed_gog and the seeded fuzz draws
    for pi in NORMALIZER_CASES + FUZZ_CASES:
        for v in pi.graph.vertices:
            assert pi.tree_path(v) == reference_tree_path(pi, v), (pi.name, v)
        for e in pi.graph.edges:
            p = reference_tree_path(pi, pi.graph.origin(e))
            q = reference_tree_path(pi, pi.graph.terminus(e))
            assert pi.edge_letter(e) == compose(pi, cross(pi, p, e), reference_inverse(pi, q)), (pi.name, e)


def test_one_element_words_and_vertex_inclusions_match_reference():
    # element_at is the one-element normal word, and vertex_inclusion, which
    # multiplies by it, is p u p^-1 for the tree path p
    for pi in NORMALIZER_CASES + FUZZ_CASES:
        assert pi.identity() == reference_normalize(pi, pi.base_vertex, (pi.vgroup(pi.base_vertex).identity,), ())
        for v in pi.graph.vertices:
            p = reference_tree_path(pi, v)
            for u in range(len(pi.vgroup(v))):
                assert pi.element_at(v, u) == reference_normalize(pi, v, (u,), ()), (pi.name, v, u)
                want = compose(pi, append_mul(pi, p, u), reference_inverse(pi, p))
                assert pi.vertex_inclusion(v, u) == want, (pi.name, v, u)


def suffix_word(pi, m, k):
    """The letters of m past its first k edge letters, from where they start."""
    start = pi.vertex_chain(m.start, m.es)[k]
    return PiOneElement(pi, (pi.vgroup(start).identity,) + m.gs[k + 1:], m.es[k:], start)


def draw_junction(data):
    """(pi, a, b, mode, tail): a word a, normal apart from its last group
    element, and a normal word b from where a ends.  In mode "free" b is a
    random walk; in "cancel_b" the junction cancels all of b; in "cancel_a"
    b is a^-1 then the raw walk tail from where a starts, so the junction
    cancels all of a unless tail cancels into a^-1 first."""
    pi = data.draw(st.sampled_from(NORMALIZER_CASES + FUZZ_CASES))
    start = data.draw(st.sampled_from(pi.graph.vertices))
    normal = reference_normalize(pi, start, *draw_walk(data, pi, start, 10, 0.3))
    end = pi.morph_end(normal)
    a = append_mul(pi, normal, data.draw(st.integers(0, len(pi.vgroup(end)) - 1)))
    mode, tail = data.draw(st.sampled_from(["free", "cancel_b", "cancel_a"])), None
    if mode == "free":
        b = reference_normalize(pi, end, *draw_walk(data, pi, end, 10, 0.3))
    elif mode == "cancel_b":
        # the inverse of a suffix of a
        k = data.draw(st.integers(0, len(a.es)))
        b = reference_inverse(pi, suffix_word(pi, a, k))
    else:
        tail = draw_walk(data, pi, start, 6, 0.3)
        b = reference_normalize(pi, end, *concat(pi, start, raw_inverse(pi, start, a.gs, a.es), tail))
    return pi, a, b, mode, tail


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_multiply_matches_reference_at_the_junction(data):
    # a is normal apart from its last group element and b is normal, so
    # multiply works only where they meet: pinches across the junction,
    # then carries left from it
    pi, a, b, mode, tail = draw_junction(data)
    got = pi.multiply(a, b)
    assert got == reference_normalize(pi, a.start, *concat(pi, pi.morph_end(a), (a.gs, a.es), (b.gs, b.es)))
    if mode == "cancel_b":
        assert len(got.es) == len(a.es) - len(b.es)
    elif mode == "cancel_a" and len(b.es) == len(a.es) + len(tail[1]):
        assert got.es == b.es[len(a.es):]


# -- the half-tree side rule against the label-and-distance rule it replaced ----------

def reference_side_of_translate(half, g):
    """The original side rule, kept as the reference.

    The translate (m, e0), m = g.gamma, is in the terminus half when it is
    the lifted edge itself, or touches its terminus vertex Y but not its
    origin vertex X, or else lies nearer Y than X in the tree.
    """
    pi, e0, gamma = half.pi, half.e0, half.gamma
    m = compose(pi, g, gamma)
    if reference_edge_label(pi, m, e0) == reference_edge_label(pi, gamma, e0):
        return 1
    m_y = cross(pi, gamma, e0)
    X = reference_vertex_label(pi, gamma)
    Y = reference_vertex_label(pi, m_y)
    p = reference_vertex_label(pi, m)
    q = reference_vertex_label(pi, cross(pi, m, e0))
    if p == X or q == X:
        return -1
    if p == Y or q == Y:
        return 1

    def distance(a, b):
        return len(compose(pi, reference_inverse(pi, a), b).es)

    return 1 if distance(m, m_y) < distance(m, gamma) else -1


def path_gog():
    """u - w - x with asymmetric embeddings on w - x: marked at w -> x, the
    lifted edge sits one tree step away from the base vertex."""
    graph = SerreGraph.from_geometric(["u", "w", "x"], [("u", "w"), ("w", "x")])
    return GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(2), "w": FiniteGroup.cyclic(4), "x": FiniteGroup.cyclic(6)},
        {0: FiniteGroup.cyclic(1), 2: FiniteGroup.cyclic(2)},
        {0: [0], 1: [0], 2: [0, 3], 3: [0, 2]},
        name="path",
    )


def parallel_gog():
    """Two parallel u - w edges with edge groups C2 and 1, plus a loop at w
    whose two embeddings of C3 differ by an automorphism."""
    graph = SerreGraph.from_geometric(["u", "w"], [("u", "w"), ("u", "w"), ("w", "w")])
    return GraphOfFiniteGroups(
        graph,
        {"u": FiniteGroup.cyclic(4), "w": FiniteGroup.cyclic(6)},
        {0: FiniteGroup.cyclic(2), 2: FiniteGroup.cyclic(1), 4: FiniteGroup.cyclic(3)},
        {0: [0, 3], 1: [0, 2], 2: [0], 3: [0], 4: [0, 2, 4], 5: [0, 4, 2]},
        name="parallel",
    )


def fuzz_cases():
    rng = random.Random(20261018)
    return [PiOne(random_segment(rng) if i % 2 else random_loop(rng)) for i in range(24)]


FUZZ_CASES = fuzz_cases()


# the catalog graphs of groups, mixed_gog, path_gog, parallel_gog and seeded fuzz draws
TREE_CASES = NORMALIZER_CASES + [PiOne(path_gog()), PiOne(parallel_gog())] + FUZZ_CASES


def side_cases():
    """(half-tree splitting, generators) at every nontrivial edge of TREE_CASES."""
    cases = []
    for pi in TREE_CASES:
        for e, kind in splitting_classify(pi.gog).per_edge:
            if kind != "trivial":
                cases.append((HalfTreeSplitting(pi, e), pi.default_generators()))
    return cases


SIDE_CASES = side_cases()


def test_side_cases_hold_both_geodesic_branches():
    # gamma = 1 where the lifted edge leaves the base vertex, as on C2*C3, and
    # the geodesic is g itself; on path_gog it is one tree step, and the
    # geodesic is the conjugate gamma^-1 g gamma
    trivial = {half.pi.name for half, _ in SIDE_CASES if half.gamma == half.pi.identity()}
    nontrivial = {half.pi.name for half, _ in SIDE_CASES if half.gamma.es}
    assert "pi1(C2*C3)" in trivial and "pi1(path)" in nontrivial


def draw_product(data, pi, gens):
    """A product of up to 12 generators."""
    g = pi.identity()
    for s in data.draw(st.lists(st.sampled_from(gens), max_size=12)):
        g = pi.multiply(g, s)
    return g


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_side_of_translate_matches_reference(data):
    half, gens = data.draw(st.sampled_from(SIDE_CASES))
    g = draw_product(data, half.pi, gens)
    assert half.side_of_translate(g) == reference_side_of_translate(half, g)


def test_witness_chain_multiply_count(monkeypatch):
    # the benchmark's witness chain: C2*C3 at edge 0, probe radius 13.  Its
    # lifted edge leaves the base vertex, so the half-tree geodesic of g is g
    # and forms no product; the conjugate took 1,786 more.  Over its trivial
    # edge groups the ball's rows past the first of each junction suffix are
    # slices, which saves 1,872, and the cut reads the side of each coset
    # off its label, with no inverse coset, which saves 634
    pi, calls = c2c3(), []
    multiply = PiOne.multiply
    monkeypatch.setattr(PiOne, "multiply", lambda self, a, b: calls.append(None) or multiply(self, a, b))
    report, passed = run_witness_chain(pi, 0, 13, DEFAULT_CAP)
    assert passed
    assert len(calls) <= 1_980


# -- the coset walk and the reduced-word supports against the labelled walks they replaced --

def reference_tree_truncation(pi, radius, cap):
    """The original BFS, kept as the reference: (sphere per vertex word,
    edges as pairs of vertex words).

    It tries every element h of the vertex group for every edge e at a
    frontier vertex and deduplicates the tree edges (m.h, e) by canonical
    edge-group coset labels, marking both orientations as it crosses.  Its
    vertex words come from reference_vertex_label, which normalizes in full.
    """
    base = reference_vertex_label(pi, pi.identity())
    depth = {base: 0}
    records = []
    seen_edges = set()
    frontier = [base]
    for d in range(radius):
        nxt = []
        for pm in frontier:
            v = pi.morph_end(pm)
            for e in pi.graph.star(v):
                for h in range(len(pi.vgroup(v))):
                    nu = append_mul(pi, pm, h)
                    label = reference_edge_label(pi, nu, e)
                    if label in seen_edges:
                        continue
                    mu2 = cross(pi, nu, e)
                    seen_edges.add(label)
                    seen_edges.add(reference_edge_label(pi, mu2, pi.graph.inverse(e)))
                    target = reference_vertex_label(pi, mu2)
                    if target not in depth:
                        depth[target] = d + 1
                        nxt.append(target)
                        if len(depth) > cap:
                            raise BudgetExceeded(f"tree truncation exceeded cap {cap}")
                    records.append((pm, target))
        frontier = nxt
        if not frontier:
            break
    return depth, records


# the reference relabels every edge, so the widest trees stop at this many vertices
TREE_CAP = 1500


def assert_tree_matches_reference(pi, r):
    try:
        depth, records = reference_tree_truncation(pi, r, TREE_CAP)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            tree_truncation(pi, r, cap=TREE_CAP)
        return False
    got = tree_truncation(pi, r, cap=TREE_CAP)
    # vertex words and the sphere of each, read from starts
    assert {v: d for d in range(r + 1) for v in got.sphere_labels(d)} == depth
    assert len(got.vertices) == len(depth)
    # edge multisets, as unordered pairs of vertex words
    v, o = got.vertices, got.origin
    assert Counter(frozenset((v[i], v[j])) for i, j in zip(o[::2], o[1::2])) == Counter(map(frozenset, records))
    return True


def test_tree_truncation_matches_reference():
    for pi in TREE_CASES:
        for r in range(6):
            if not assert_tree_matches_reference(pi, r):
                break
    # the exactness step of the benchmark: C2*C3 at radius 14, 763 vertices
    assert assert_tree_matches_reference(c2c3(), 14)


def tree_rows_off_reference(pi, radius):
    """The labels whose rows of a fresh CoveringTree, read in BFS order,
    differ from reference_tree_row.  The labels are those of the radius-R
    ball of the reference rows, or of the largest smaller ball within
    TREE_CAP."""
    reference = SimpleNamespace(
        base=reference_vertex_label(pi, pi.identity()),
        sort_key=pi.sort_key,
        neighbours=functools.partial(reference_tree_row, pi),
    )
    for r in range(radius, -1, -1):
        try:
            t = ball_walk(reference, r, cap=TREE_CAP)
            break
        except BudgetExceeded:
            pass
    tree = CoveringTree(pi)
    return [m for m in t.vertices if tree.neighbours(m) != reference_tree_row(pi, m)]


def test_tree_rows_match_the_reference():
    for pi in TREE_CASES:
        assert tree_rows_off_reference(pi, 6) == [], pi.name


def reference_translating_cosets(half, g):
    """The original supports, kept as the reference.

    It walks the four geodesics between the endpoints X, Y of the lifted
    edge E and those of g.E, and keeps one element per canonical label of
    an edge over e0 that they cross, in the order first crossed.
    """
    pi, e0, gamma = half.pi, half.e0, half.gamma
    inverse = pi.graph.inverse
    m_y = cross(pi, gamma, e0)
    found = {}
    for a in (gamma, m_y):
        for b in (compose(pi, g, gamma), compose(pi, g, m_y)):
            delta = compose(pi, reference_inverse(pi, a), b)
            cur = a
            for i, e in enumerate(delta.es):
                nu = append_mul(pi, cur, delta.gs[i])
                cur = cross(pi, nu, e)
                if min(e, inverse(e)) != e0:
                    continue
                if e != e0:
                    nu = cur
                label = reference_edge_label(pi, nu, e0)
                if label not in found:
                    found[label] = compose(pi, nu, half.gamma_inv)
    return tuple(found.values())


SIDE_WITNESSES = {}


def reference_support(half, K, g):
    return tuple(coset_canonical(half.pi, K, h) for h in reference_translating_cosets(half, g))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_difference_supports_match_reference(data):
    i = data.draw(st.integers(0, len(SIDE_CASES) - 1))
    half, gens = SIDE_CASES[i]
    pi = half.pi
    if i not in SIDE_WITNESSES:
        w = SIDE_WITNESSES[i] = witness_from_splitting(pi, half.e0, probe_radius=1)
        # the witness certifies each generator by its support
        assert w.certificates == tuple(reference_support(half, w.pair.K, s) for s in w.pair.S)
    K = SIDE_WITNESSES[i].pair.K
    g = draw_product(data, pi, gens)
    # translating_cosets may name a coset twice; the support keeps its first place
    got = tuple(dict.fromkeys(coset_canonical(pi, K, h) for h in half.translating_cosets(g)))
    assert got == reference_support(half, K, g)


# -- the component-count exactness verdict against elimination -------------------------

def test_exactness_verdict_matches_verify_short_exact():
    # the catalog graphs of groups, mixed_gog and the seeded fuzz draws, against
    # the elimination reference kept in test_qlinalg
    for pi in NORMALIZER_CASES + FUZZ_CASES:
        for r in range(1, RESOLUTION_RADIUS + 1):
            graph = tree_truncation(pi, r).graph
            d = delta_matrix(graph)
            cert = exactness_on_truncation(pi, r)
            assert cert.passed == verify_short_exact(d, augmentation_matrix(len(graph.vertices))), (pi.name, r)
            ranks = cert.details["delta_rank"], cert.details["delta_kernel"], cert.details["delta_cokernel"]
            assert ranks == rank_kernel_cokernel(d), (pi.name, r)
            assert (cert.details["vertices"], cert.details["geometric_edges"]) == (d.rows, d.cols)


@pytest.mark.parametrize("graph", [triangle(), SerreGraph.from_geometric([0, 1], [])], ids=["cycle", "two_points"])
def test_exactness_verdict_rejects_what_verify_short_exact_rejects(monkeypatch, graph):
    # a truncation that is not a tree: a cycle, or two components, as the
    # coset table fields the verdict reads
    index = {v: i for i, v in enumerate(graph.vertices)}
    table = SimpleNamespace(
        vertices=graph.vertices,
        origin=[index[graph.origin(e)] for e in graph.edges],
        rows=[[index[graph.terminus(e)] for e in graph.star(v)] for v in graph.vertices],
    )
    monkeypatch.setattr(bass_serre, "tree_truncation", lambda pi, radius, cap: table)
    assert not verify_short_exact(delta_matrix(graph), augmentation_matrix(len(graph.vertices)))
    assert not exactness_on_truncation(dinf(), 1).passed
