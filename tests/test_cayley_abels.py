import functools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab.ai_cohomology import witness_from_splitting
from endlab.bass_serre import CoveringTree, GraphOfFiniteGroups, PiOne, tree_truncation
from endlab.cayley_abels import (
    GeneratingPair,
    Subgroup,
    Truncation,
    ball_walk,
    build,
    coset_canonical,
    trivial_subgroup,
    typecode,
)
from endlab.cayley_abels import build as cayley_build
from endlab.errors import BudgetExceeded, InternalInconsistency

from endlab.group_backends import DEFAULT_CAP, FiniteGroup, RewritingGroup
from endlab.serre_graphs import SerreGraph
from endlab.theorem_lab import default_catalog, run_catalog

from helpers import ball_enumerate, graph_json, is_tree, recorded_slot_tables, rewired_slot_tables
from test_bass_serre import FUZZ_CASES, NORMALIZER_CASES, affine_value, c2c3, dinf, mixed_gog, tree_rows_off_reference
from test_group_backends import make_dinf, make_f2, make_f2_redundant, make_z2


def make_z():
    return RewritingGroup(["a"], {"a": "A"}, name="Z")


def make_c6():
    return RewritingGroup(["a"], {"a": "A"}, [("aaaa", "AA"), ("AAA", "aaa")], name="C6")


def make_f2_cancelling():
    # bAaB -> empty follows from the free cancellations, and every rule
    # cancels, so the pair on a, b has an acceptor; bAaB holds Aa, so it
    # never occurs in an irreducible x + c, and the slot table is F2's
    return RewritingGroup(["a", "b"], {"a": "A", "b": "B"}, [("bAaB", "")], name="F2+bAaB")


# -- canonical coset labels ------------------------------------------------------

def test_trivial_subgroup_label_is_normal_form():
    z = make_z()
    K = trivial_subgroup(z)
    assert coset_canonical(z, K, "aAa") == "a"


def test_dinf_vertex_subgroup_identifies_x_with_identity():
    pi = dinf()
    K = Subgroup(pi, pi.vertex_subgroup_elements("u"), name="C2u")
    x = pi.vertex_inclusion("u", 1)
    assert coset_canonical(pi, K, x) == coset_canonical(pi, K, pi.identity())


def test_c2c3_vertex_subgroup_identifies_b_powers_with_identity():
    pi = c2c3()
    K = Subgroup(pi, pi.vertex_subgroup_elements("w"), name="C3w")
    b = pi.vertex_inclusion("w", 1)
    base = coset_canonical(pi, K, pi.identity())
    assert coset_canonical(pi, K, b) == base
    assert coset_canonical(pi, K, pi.multiply(b, b)) == base
    a = pi.vertex_inclusion("u", 1)
    assert coset_canonical(pi, K, a) != base


# -- generating pairs --------------------------------------------------------------

def test_pair_saturates_inverses():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    assert pair.S == ("a", "A")


def test_pair_normalizes_generators():
    z = make_z()
    raw = GeneratingPair(z, trivial_subgroup(z), ["aAa", "A"])
    assert raw.S == ("a", "A")
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    assert coset_table(build(raw, 3)) == coset_table(build(pair, 3))


def test_pair_saturates_k_conjugation():
    pi = dinf()
    K = Subgroup(pi, pi.vertex_subgroup_elements("u"), name="C2u")
    y = pi.vertex_inclusion("w", 1)
    pair = GeneratingPair(pi, K, [y])
    x = pi.vertex_inclusion("u", 1)
    assert set(pair.S) == {y, pi.multiply(pi.multiply(x, y), x)}
    assert all(pi.inverse(s) in set(pair.S) for s in pair.S)


def test_pair_rejects_generators_inside_k():
    pi = dinf()
    K = Subgroup(pi, pi.vertex_subgroup_elements("u"), name="C2u")
    x = pi.vertex_inclusion("u", 1)
    with pytest.raises(ValueError, match="lies in K"):
        GeneratingPair(pi, K, [x])


def test_subgroup_refuses_an_element_that_is_not_a_normal_form():
    # in C6, a^9 is a^3: listed beside it, it passed every closure check and
    # made a third element of a subgroup of order 2
    c6 = make_c6()
    with pytest.raises(ValueError, match=r"^subgroup element 'aaaaaaaaa' is not a normal form$"):
        Subgroup(c6, ["", "aaa", "aaaaaaaaa"])
    assert Subgroup(c6, ["", "aaa", "aaa"]).elements == ("", "aaa")
    pi = dinf()
    x = pi.vertex_inclusion("u", 1)
    assert len(Subgroup(pi, [pi.identity(), x])) == 2


# -- building truncations ------------------------------------------------------------

def test_z_ball_three_is_a_seven_vertex_segment():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    t = build(pair, 3)
    assert len(t.graph.vertices) == 7
    assert is_tree(t.graph)
    degrees = sorted(len(t.graph.star(v)) for v in t.graph.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2, 2]


def test_dinf_trivial_k_ball_is_a_line_matching_affine_oracle():
    pi = dinf()
    pair = GeneratingPair(
        pi,
        trivial_subgroup(pi),
        [pi.vertex_inclusion("u", 1), pi.vertex_inclusion("w", 1)],
    )
    t = build(pair, 3)
    assert len(t.graph.vertices) == 7
    assert is_tree(t.graph)
    # labels map to seven distinct points of the affine line
    images = {affine_value(pi, v) for v in t.graph.vertices}
    assert len(images) == 7


def test_c2c3_vertex_pair_truncation_interior_degree():
    pi = c2c3()
    K = Subgroup(pi, pi.vertex_subgroup_elements("w"), name="C3w")
    pair = GeneratingPair(pi, K, [pi.vertex_inclusion("u", 1)])
    assert len(pair.S) == 3
    t = build(pair, 2)
    assert is_tree(t.graph)
    sphere = distances(t)
    for v in t.graph.vertices:
        if sphere[v] < 2:
            assert len(t.graph.star(v)) == len(pair.S)


def test_interior_star_sizes_equal_s_with_multiplicity(catalog):
    for name in ("z_rw", "dinfty_gog", "c2_c3_gog", "c4_c2_c4_gog"):
        for pair in catalog[name].pairs():
            t = build(pair, 4)
            sphere = distances(t)
            for v in t.graph.vertices:
                if sphere[v] < t.radius:
                    assert len(t.graph.star(v)) == len(pair.S)


def test_c4_amalgam_truncation_has_parallel_edges(catalog):
    pair = catalog["c4_c2_c4_gog"].pairs()[0]
    t = build(pair, 3)
    seen = {}
    for e in t.graph.geometric_edges():
        key = frozenset((t.graph.origin(e), t.graph.terminus(e)))
        seen[key] = seen.get(key, 0) + 1
    assert set(seen.values()) == {2}  # doubled line


def test_truncation_graph_is_a_valid_serre_graph(catalog):
    pair = catalog["c2_c3_gog"].pairs()[1]
    t = build(pair, 3)
    g = t.graph
    for e in g.edges:
        assert g.inverse(e) != e
        assert g.inverse(g.inverse(e)) == e
        assert g.origin(e) == g.terminus(g.inverse(e))
    assert len(g.components()) == 1


def test_k_action_fixes_base_and_permutes_spheres(catalog):
    pair = catalog["c2_c3_gog"].pairs()[1]
    t = build(pair, 3)
    base = t.vertices[0]
    for k in pair.K.elements:
        assert pair.act(k, base) == base
        for r in range(1, t.radius + 1):
            sphere = t.sphere_labels(r)
            image = {pair.act(k, v) for v in sphere}
            assert image == set(sphere)


def test_trivial_k_action_is_the_product(catalog):
    pairs = [pair for pair in catalog_pairs(catalog) if len(pair.K) == 1]
    assert {type(pair.backend) for pair in pairs} == {PiOne, RewritingGroup}
    for pair in pairs:
        backend = pair.backend
        labels = build(pair, 3).vertices
        for k in pair.S + labels[:10]:
            for v in labels:
                assert pair.act(k, v) == coset_canonical(backend, pair.K, backend.multiply(k, v)), (pair.name, k, v)


def test_sphere_annotations_match_bfs():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    t = build(pair, 5)
    sphere = distances(t)
    assert set(sphere) == set(t.graph.vertices)
    for v in t.graph.vertices:
        assert sphere[v] == (len(v))  # distance of a^n from the identity is n


def test_exhaustion_flag_on_finite_group():
    c6 = make_c6()
    pair = GeneratingPair(c6, trivial_subgroup(c6), ["a"])
    t = build(pair, 10)
    assert t.exhausted
    assert len(t.graph.vertices) == 6


def test_sphere_offsets_at_and_past_the_diameter():
    # C6 has diameter 3: at R = 3 every coset is found but the outer sphere is
    # not empty, so the BFS is not exhausted; at R = 4 sphere 4 is empty
    c6 = make_c6()
    pair = GeneratingPair(c6, trivial_subgroup(c6), ["a"])
    t = build(pair, 3)
    assert len(t.vertices) == 6 and not t.exhausted
    assert [list(t.sphere_labels(r)) for r in range(4)] == [[""], ["a", "A"], ["aa", "AA"], ["aaa"]]
    t = build(pair, 4)
    assert t.exhausted
    assert t.vertices[:t.starts[5]] == t.vertices[:t.starts[4]] == t.vertices and not t.sphere_labels(4)


def test_budget_cap_enforced(catalog):
    pair = catalog["f2_rw"].pairs()[0]
    with pytest.raises(BudgetExceeded):
        build(pair, 8, cap=100)


def test_dot_and_json_exports(catalog):
    pair = catalog["dinfty_gog"].pairs()[0]
    t = build(pair, 2)
    data = graph_json(t.graph)
    assert data["vertices"] == list(t.vertices)
    # every half-edge of a row is one oriented edge
    oriented = sum(map(len, t.rows))
    assert len(data["edges"]) == oriented
    assert t.graph.to_dot().count("->") == oriented // 2


def test_labels_agree_with_membership_criterion(catalog):
    # gK = hK exactly when inverse(h).g lies in K
    pi = catalog["c2_c3_gog"].backend()
    pair = catalog["c2_c3_gog"].pairs()[1]
    ball = ball_enumerate(pi, list(pair.S), 3)
    kset = set(pair.K.elements)
    els = ball[:12]
    for g in els:
        for h in els:
            same_label = coset_canonical(pi, pair.K, g) == coset_canonical(pi, pair.K, h)
            assert same_label == (pi.multiply(pi.inverse(h), g) in kset)


def test_builds_are_deterministic(catalog):
    pair = catalog["c2_c3_gog"].pairs()[1]
    a = cayley_build(pair, 3)
    b = cayley_build(pair, 3)
    assert a.graph.vertices == b.graph.vertices
    assert graph_json(a.graph) == graph_json(b.graph)
    assert distances(a) == distances(b)


def test_infinite_entries_keep_growing(catalog):
    # strict ball growth is the oracle-side evidence behind escape verdicts
    for name in ("z_rw", "z2_rw", "f2_rw", "dinfty_rw"):
        pair = catalog[name].pairs()[0]
        sizes = [len(cayley_build(pair, r).graph.vertices) for r in (2, 4, 6)]
        assert sizes[0] < sizes[1] < sizes[2], name


# -- one-pass coset table against the two-pass reference --------------------------

def distances(t):
    """Each label's distance from the base coset, read off sphere_labels."""
    return {v: r for r in range(t.radius + 1) for v in t.sphere_labels(r)}


def geometric_edges(t):
    """The (origin, terminus) of each geometric edge of the graph view, in id order."""
    g = t.graph
    return [(g.origin(e), g.terminus(e)) for e in g.geometric_edges()]


def coset_table(t):
    """The fields of a truncation that reference_build computes, read through
    vertices, sphere_labels, rows and the graph view only."""
    return {
        "vertices": t.vertices,
        "sphere": distances(t),
        "rows": t.rows,
        "edges": geometric_edges(t),
        "exhausted": t.exhausted,
    }


def reference_build(pair, radius, cap=DEFAULT_CAP):
    """The original two-pass build, kept as the reference; returns the
    fields coset_table reads.

    The BFS and the half-edge pass each label every (coset, generator)
    slot with coset_canonical.
    """
    backend = pair.backend
    base = coset_canonical(backend, pair.K, backend.identity())
    reps = {base: base}
    sphere = {base: 0}
    order = [base]
    frontier = [base]
    exhausted = False
    for d in range(1, radius + 1):
        found = {}
        for x in frontier:
            for s in pair.S:
                y = coset_canonical(backend, pair.K, backend.multiply(reps[x], s))
                if y in sphere or y in found:
                    continue
                found[y] = y
        layer = sorted(found, key=backend.sort_key)
        for y in layer:
            sphere[y] = d
            reps[y] = y
            order.append(y)
            if len(order) > cap:
                raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
        frontier = layer
        if not frontier:
            exhausted = True
            break
    index = {v: i for i, v in enumerate(order)}
    rows = [[] for _ in order]
    half = {}
    for x in order:
        for si, s in enumerate(pair.S):
            y = coset_canonical(backend, pair.K, backend.multiply(reps[x], s))
            if y not in sphere:
                continue
            rows[index[x]].append(index[y])
            key = (min(index[x], index[y]), max(index[x], index[y]))
            fwd, bwd = half.setdefault(key, ([], []))
            (fwd if index[x] < index[y] else bwd).append((x, si, y))
    edges = []
    for key in sorted(half):
        fwd, bwd = half[key]
        assert len(fwd) == len(bwd)
        edges.extend((x, y) for (x, si, y), _ in zip(fwd, bwd))
    return {"vertices": tuple(order), "sphere": sphere, "rows": rows, "edges": edges, "exhausted": exhausted}


def catalog_pairs(catalog):
    return [pair for entry in catalog.values() for pair in entry.pairs()]


@pytest.mark.parametrize("radius", [3, 5])
def test_build_matches_two_pass_reference(catalog, radius):
    # F2 with the redundant rule bAaB -> empty, whose slot table has a state
    # per irreducible word of up to three letters
    f2 = make_f2_cancelling()
    pairs = catalog_pairs(catalog) + [GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"])]
    for pair in pairs:
        assert coset_table(build(pair, radius)) == reference_build(pair, radius), pair.name


def test_f2_build_calls_normal_form_only_for_the_slot_table(monkeypatch):
    # the slot table reads one normal form per state and letter, 5 x 4 on F2,
    # and the walk along it none, whatever the radius
    f2 = make_f2()
    normal_form, calls, counts = RewritingGroup.normal_form, [], []
    monkeypatch.setattr(RewritingGroup, "normal_form", lambda self, word: calls.append(word) or normal_form(self, word))
    for radius in (2, 6):
        pair = GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"])
        calls.clear()
        assert len(build(pair, radius).vertices) == 1 + 4 * (3 ** radius - 1) // 2
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 5 * 4


def test_build_labels_each_slot_once(catalog, monkeypatch):
    # products are counted where they are made: PiOne forms every product,
    # through coset_products, with multiply; a rewriting backend forms them
    # in its own coset_products, or, for a pair with an acceptor, the walk
    # forms at most one per slot it reads off the acceptor's slot table
    for pair in catalog_pairs(catalog):
        backend = pair.backend
        calls = []
        if isinstance(backend, PiOne):
            counted_multiply(monkeypatch, backend, calls)
        elif pair.acceptor is not None:
            reads = []
            recorded_slot_tables(monkeypatch, reads)
            pair = GeneratingPair(backend, pair.K, pair.S, pair.name)
        else:
            counted_coset_products(monkeypatch, calls)
        t = build(pair, 4)
        if pair.acceptor is not None:
            assert len(reads) == len(t.vertices), pair.name
            calls = [slot for slots in reads for slot in slots]
        monkeypatch.undo()
        n_s, n_k = len(pair.S), len(pair.K)
        bound = len(t.vertices) * n_s * n_k + n_s * n_k + n_k
        assert 0 < len(calls) <= bound, (pair.name, len(calls), bound)


def counted_multiply(monkeypatch, pi, calls):
    """Record the right factor of every product pi forms with multiply."""
    multiply = pi.multiply

    def counting(a, b):
        calls.append(b)
        return multiply(a, b)

    monkeypatch.setattr(pi, "multiply", counting)


def c2c3_vertex_pair():
    """C2*C3 with K the C3 at w: |S| = |K| = 3, 3,070 cosets at R = 10."""
    pi = c2c3()
    K = Subgroup(pi, pi.vertex_subgroup_elements("w"), name="C3w")
    return GeneratingPair(pi, K, [pi.vertex_inclusion("u", 1)])


def test_c2c3_vertex_pair_build_makes_one_product_per_shared_head_slot(monkeypatch):
    # the full minimum over each s.K takes |S|.|K| = 9 products per coset,
    # 27,639 in all, and least on every row, one product per slot whose
    # junction stops inside the head its coset shares and every member of
    # the third, 13,308.  Over the trivial edge groups of C2*C3 a row forms
    # products only where it first meets its junction suffix, and every
    # later row slices its labels from them: 70, and the 6 members s.k,
    # k != 1, of the cosets s.K, 76 in all
    pair = c2c3_vertex_pair()
    calls = []
    counted_multiply(monkeypatch, pair.backend, calls)
    t = build(pair, 10)
    assert len(t.vertices) == 3070
    assert len(calls) <= 76


def test_c4c2c4_catalog_row_makes_at_most_921_products(monkeypatch):
    # the catalog's one graph of groups over a nontrivial edge group, so its
    # later rows form their labels again: its verify row, equivalence and
    # resolution evidence at the default scales, on a fresh backend.  A later
    # row reads the record of the first row with its junction suffix, the
    # last M edge letters and M + 1 group elements of its label
    entry = next(e for e in default_catalog() if e.name == "c4_c2_c4_gog")
    calls = []
    counted_multiply(monkeypatch, entry.backend(), calls)
    assert run_catalog([entry])["all_consistent"]
    assert len(calls) <= 921


def rose_pair():
    """F2 as the rose of two loops with trivial groups, K = 1: 39,365 cosets
    at R = 9."""
    graph = SerreGraph.from_geometric(["v"], [("v", "v"), ("v", "v")])
    one = FiniteGroup.cyclic(1)
    pi = PiOne(GraphOfFiniteGroups(graph, {"v": one}, {0: one, 2: one}, {e: [0] for e in range(4)}, name="rose"))
    return GeneratingPair(pi, trivial_subgroup(pi), pi.default_generators())


def mixed_pair():
    """mixed_gog, over C2 edge groups, K = 1: 2,410 cosets at R = 5."""
    pi = PiOne(mixed_gog())
    return GeneratingPair(pi, trivial_subgroup(pi), pi.default_generators())


@pytest.mark.parametrize("pair_of, radius, cosets", [
    pytest.param(c2c3_vertex_pair, 10, 3070, id="10-3070"),
    pytest.param(c2c3_vertex_pair, 12, 12286, id="12-12286"),
    pytest.param(rose_pair, 9, 39365, id="rose-9-39365"),
    pytest.param(mixed_pair, 5, 2410, id="mixed-5-2410"),
])
def test_c2c3_vertex_pair_build_counts_pinches_once_per_junction_key(monkeypatch, pair_of, radius, cosets):
    # a row's growths depend only on a suffix of its label, and the first row
    # with that suffix records them off the labels it forms.  Over the C2 edge
    # groups of mixed_gog a later row forms its labels again and forms nothing
    # for a slot whose recorded growth takes it past the ceiling: the 21,050
    # products are the rows' own.  Over the trivial edge groups of C2*C3 and
    # of the rose a later row forms none, as it slices its labels from the
    # record: C2*C3 forms 76 products at either radius, and the rose 20, where
    # its rows hold 78,728 labels
    pair = pair_of()
    calls, labels = [], []
    counted_multiply(monkeypatch, pair.backend, calls)
    row = pair.neighbours

    def counted_row(x, ceiling=None):
        out = row(x, ceiling)
        labels.extend(out)
        return out

    pair.neighbours = counted_row
    t = build(pair, radius)
    assert len(t.vertices) == cosets
    assert len(calls) <= len(labels) + 100


def test_c2c3_tree_outer_sphere_forms_only_the_step_back(monkeypatch):
    # each tree row is one coset_products row, and over the trivial edge
    # groups of C2*C3 a row forms products only where it first meets its
    # junction suffix, the last edge letter and the last two group elements:
    # the base 2, one per child step; e0 and u:1.e0, at w, 4 each, the 2
    # members of their step back and one per child step; and e0.w:1.e1 and
    # e0.w:2.e1, at u, 4 each, the 3 members of their step back and the
    # child step.  Every other label is a slice move, so
    # the 256 outer vertices, at the u end of their step back to a w vertex,
    # form nothing and get that step alone
    pi, products, labelled, rows = c2c3(), [], [], {}
    multiply, vertex_label = pi.multiply, pi.vertex_label

    def counting(a, b):
        products.append((a, multiply(a, b)))
        return products[-1][1]

    monkeypatch.setattr(pi, "multiply", counting)
    monkeypatch.setattr(pi, "vertex_label", lambda m: labelled.append(m) or vertex_label(m))
    tree = pi.covering_tree
    neighbours = tree.neighbours
    monkeypatch.setattr(tree, "neighbours", lambda m, ceiling=None: rows.setdefault(m, neighbours(m, ceiling)))
    products.clear()
    t = tree_truncation(pi, 14)
    assert t.space is tree and len(t.vertices) == 763
    assert len(products) == 18
    assert Counter(str(a) for a, _ in products) == {"1": 2, "e0": 4, "u:1.e0": 4, "e0.w:1.e1": 4, "e0.w:2.e1": 4}
    # vertex_label gives the base label alone; the rows label no vertex
    assert labelled == [pi.identity()]
    outer = t.sphere_labels(14)
    assert len(outer) == 256
    # each steps back along its last letter: one edge letter fewer
    assert all(len(rows[m]) == 1 and len(rows[m][0].es) == 13 for m in outer)


# -- least coset products against the full minimum they replaced -----------------

def reference_row(pair, x):
    """The label of x.s.K for each s in S: the least x.(s.k) over all of K."""
    pi = pair.backend
    return [
        min((pi.multiply(x, pi.multiply(s, k)) for k in pair.K.elements), key=pi.sort_key)
        for s in pair.S
    ]


def head_blind_products(pi, cosets):
    """A mutant coset_products that takes x.B[0] without the head check."""
    least = [min(members, key=pi.sort_key) for members in cosets]
    return lambda x, ceiling=None: [pi.multiply(x, b) for b in least]


def rows_off_reference(pair, neighbours, labels):
    return [x for x in labels if neighbours(x) != reference_row(pair, x)]


def k_cases():
    """(PiOne, K, generators outside K) for the trivial group, each
    nontrivial vertex group and each nontrivial edge group of
    NORMALIZER_CASES and FUZZ_CASES."""
    cases = []
    for pi in NORMALIZER_CASES + FUZZ_CASES:
        groups = [pi.vertex_subgroup_elements(v) for v in pi.graph.vertices]
        groups += [pi.edge_subgroup_elements(e) for e in pi.graph.edges]
        for elements in [(pi.identity(),)] + [k for k in groups if len(k) > 1]:
            K = Subgroup(pi, elements)
            gens = [g for g in pi.default_generators() if g not in K.elements]
            if gens:
                cases.append((pi, K, gens))
    return cases


K_CASES = k_cases()


def small_ball(pair, radius, cap=400):
    """The radius-R ball, or the largest smaller ball within the cap."""
    try:
        return build(pair, radius, cap=cap)
    except BudgetExceeded:
        return small_ball(pair, radius - 1, cap)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_coset_rows_match_the_full_minimum(data):
    # the full rows of every label of a ball; then, at a radius inside it,
    # the walk, whose outer rows take the ceiling, against the ceiling-blind
    # walk, whose rows are those full rows less their targets past the ball
    pi, K, gens = data.draw(st.sampled_from(K_CASES))
    S = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2, unique=True))
    pair = GeneratingPair(pi, K, S)
    ball = small_ball(pair, 5)
    assert rows_off_reference(pair, pair.neighbours, ball.vertices) == []
    assert_walks_agree(pair, data.draw(st.integers(1, ball.radius), label="radius"))


@pytest.mark.parametrize("pi, n_gens", [(c2c3(), None), (PiOne(mixed_gog()), 1)], ids=["c2c3_u", "mixed_u"])
def test_coset_rows_of_labels_one_key_letter_apart_match_the_full_minimum(pi, n_gens):
    # labels whose junction keys differ in one place only, so that a key one
    # group element or one edge letter short gives each the plan of the
    # other: with K = G_u, C2*C3 has M = 2 and the labels e0.w:1.e1 and
    # e0.w:2.e1, which differ only in the group element two from the end;
    # mixed, with its first generator only, has M = 1 and the labels 1 and
    # e2, which differ only in their edge letter
    K = Subgroup(pi, pi.vertex_subgroup_elements("u"))
    S = [g for g in pi.default_generators() if g not in K.elements][:n_gens]
    pair = GeneratingPair(pi, K, S)
    labels = build(pair, 3).vertices
    assert rows_off_reference(pair, pair.neighbours, labels) == []


def test_head_blind_coset_products_fail_the_reference(monkeypatch):
    pair = c2c3_vertex_pair()
    labels = build(pair, 6).vertices
    pi = pair.backend
    mutant = head_blind_products(pi, [[pi.multiply(s, k) for k in pair.K.elements] for s in pair.S])
    assert len(rows_off_reference(pair, mutant, labels)) > len(labels) // 2
    monkeypatch.setattr(PiOne, "coset_products", head_blind_products)
    with pytest.raises(InternalInconsistency, match="^unbalanced edge multiplicities"):
        build(c2c3_vertex_pair(), 6)


def test_head_blind_tree_rows_fail_the_reference(monkeypatch):
    # the step back pinches every member of its coset, and x.B[0] keeps the
    # group element it merges, where the label takes the least; a fresh
    # PiOne, since a cached covering tree keeps the rows it was built with
    monkeypatch.setattr(PiOne, "coset_products", head_blind_products)
    assert len(tree_rows_off_reference(c2c3(), 4)) > 10


def plan_misses_off_warm(warm, fresh, labels, sort_key):
    """The (label, ceiling) pairs on which the row of a fresh row map, whose
    row is the first with the label's suffix and records it, differs from
    the row of the map warm, which holds the record of every label's suffix
    already.  Each label is read with no ceiling, under its own key and
    under the largest key of the labels."""
    for x in labels:
        warm(x)
    top = max(map(sort_key, labels))
    return [(x, c) for x in labels for c in (None, sort_key(x), top) if fresh()(x, c) != warm(x, c)]


def test_rows_that_work_out_their_plan_match_the_warm_rows():
    # every K_CASES pair with all its generators, and the covering tree of
    # every NORMALIZER_CASES and FUZZ_CASES graph of groups, each on the ball
    # of radius 4, or the largest smaller ball within 400 cosets
    for pi, K, gens in K_CASES:
        pair = GeneratingPair(pi, K, gens)
        labels = small_ball(pair, 4).vertices
        cosets = [[pi.multiply(s, k) for k in K.elements] for s in pair.S]
        fresh = functools.partial(pi.coset_products, cosets)
        assert plan_misses_off_warm(pair.neighbours, fresh, labels, pi.sort_key) == [], (pi.name, K)
    for pi in NORMALIZER_CASES + FUZZ_CASES:
        tree = CoveringTree(pi)
        labels = small_ball(tree, 4).vertices
        fresh = lambda: CoveringTree(pi).neighbours
        assert plan_misses_off_warm(tree.neighbours, fresh, labels, pi.sort_key) == [], pi.name


# -- coset rows over trivial edge groups, sliced from one product per suffix --------

def warm_rows_off_reference(pair, labels):
    """The (label, ceiling) pairs on which the rows of pair, read again after
    every label's row, differ from reference_row less its labels with more
    edge letters than the ceiling's.  Each label is read with no ceiling,
    under its own key and under the largest key of the labels."""
    pi = pair.backend
    for x in labels:
        pair.neighbours(x)
    top = max(map(pi.sort_key, labels))
    off = []
    for x in labels:
        full = reference_row(pair, x)
        for c in (None, pi.sort_key(x), top):
            if pair.neighbours(x, c) != [y for y in full if c is None or len(y.es) <= c[0]]:
                off.append((x, c))
    return off


def witness_pair():
    """The pair of the C2*C3 witness at edge 0, K = 1: 634 cosets at R = 13."""
    return witness_from_splitting(c2c3(), 0, probe_radius=1).pair


@pytest.mark.parametrize("pair_of, radius, cosets", [
    pytest.param(witness_pair, 13, 634, id="witness-13-634"),
    pytest.param(c2c3_vertex_pair, 10, 3070, id="c3w-10-3070"),
])
def test_warm_rows_of_the_benchmark_balls_match_the_full_minimum(pair_of, radius, cosets):
    # the two C2*C3 balls of the witness chain benchmark, whose rows past the
    # first of each junction suffix are slice moves
    pair = pair_of()
    labels = build(pair, radius).vertices
    assert len(labels) == cosets
    assert warm_rows_off_reference(pair, labels) == []


def test_warm_rows_of_catalog_pairs_match_the_full_minimum(catalog):
    # every pi1 pair of the catalog, on the ball of radius 12 or the largest
    # smaller one within 2,000 cosets: c5_gog's members have no edge letter,
    # so its junction suffix is the last group element alone
    pairs = [pair for pair in catalog_pairs(catalog) if isinstance(pair.backend, PiOne)]
    assert {pair.backend.name for pair in pairs} >= {"pi1(C2*C3)", "pi1(C4*C4/C2)", "pi1(C5)"}
    for pair in pairs:
        pair = GeneratingPair(pair.backend, pair.K, pair.S, pair.name)
        assert warm_rows_off_reference(pair, small_ball(pair, 12, cap=2000).vertices) == [], pair.name


def test_warm_rows_form_a_product_exactly_where_an_edge_group_is_nontrivial():
    # a warm row over trivial edge groups is all slices; over a nontrivial
    # one a carry can run through the whole word, so it forms its products
    cases = [pi for pi in NORMALIZER_CASES + FUZZ_CASES if pi.default_generators()]
    assert {all(len(g) == 1 for g in pi.gog.egroups.values()) for pi in cases} == {True, False}
    for pi in cases:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            # the row map keeps the multiply it finds when it is made
            counted_multiply(mp, pi, calls)
            pair = GeneratingPair(pi, trivial_subgroup(pi), pi.default_generators())
            labels = small_ball(pair, 4).vertices
            calls.clear()
            for x in labels:
                pair.neighbours(x)
        trivial = all(len(g) == 1 for g in pi.gog.egroups.values())
        assert (calls == []) == trivial, pi.name


@st.composite
def free_products_of_cyclic_groups(draw):
    """pi1 of a graph of cyclic groups with trivial edge groups: a tree on
    one to three vertices, each edge to an earlier vertex, and up to two HNN
    loops over 1, each at a vertex of its own choosing."""
    n = draw(st.integers(1, 3), label="vertices")
    orders = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="orders")
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[draw(st.integers(0, i - 1), label="parent")], vertices[i]) for i in range(1, n)]
    edges += [(v, v) for v in draw(st.lists(st.sampled_from(vertices), max_size=2), label="loops")]
    one = FiniteGroup.cyclic(1)
    gog = GraphOfFiniteGroups(
        SerreGraph.from_geometric(vertices, edges),
        {v: FiniteGroup.cyclic(k) for v, k in zip(vertices, orders)},
        {2 * i: one for i in range(len(edges))},
        {e: [0] for e in range(2 * len(edges))},
        name="*".join(f"C{k}" for k in orders) + "*Z" * (len(edges) - n + 1),
    )
    return PiOne(gog)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_slice_rows_of_free_products_match_the_full_minimum(data):
    # K trivial or a vertex group, and up to three generators outside it;
    # then the covering tree's rows against the reference tree rows
    pi = data.draw(free_products_of_cyclic_groups(), label="pi")
    groups = [pi.vertex_subgroup_elements(v) for v in pi.graph.vertices]
    K = Subgroup(pi, data.draw(st.sampled_from([(pi.identity(),), *groups]), label="K"))
    gens = [g for g in pi.default_generators() if g not in K.elements]
    if gens:
        S = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3, unique=True), label="S")
        pair = GeneratingPair(pi, K, S)
        assert warm_rows_off_reference(pair, small_ball(pair, 5).vertices) == []
    assert tree_rows_off_reference(pi, 4) == []


def test_unsaturated_generators_give_unbalanced_edges():
    # GeneratingPair saturates S under K-conjugation; undo that by hand
    pi = c2c3()
    K = Subgroup(pi, pi.vertex_subgroup_elements("w"), name="C3w")
    pair = GeneratingPair(pi, K, [pi.vertex_inclusion("u", 1)])
    pair.S = pair.S[1:2]
    with pytest.raises(RuntimeError, match=r"^unbalanced edge multiplicities .*GeneratingPair\("):
        build(pair, 3)


# -- the half-edge pairing pass against the loop it replaced -----------------------

def reference_origin(rows):
    """The pairing loop ball_walk ran before: one min of two counts per
    distinct target; None when a half-edge is left over."""
    origin = []
    for i, row in enumerate(rows):
        for j in sorted(set(row)):
            if j > i:
                origin += [i, j] * min(row.count(j), rows[j].count(i))
    return origin if len(origin) == sum(map(len, rows)) else None


def multigraph_space(n, edges):
    """A toy coset space on 0..n-1: a path through every vertex plus the
    given edges, parallel edges kept, each edge listed at both ends."""
    table = [[] for _ in range(n)]
    for a, b in [(i, i + 1) for i in range(n - 1)] + edges:
        table[a].append(b)
        table[b].append(a)
    return SimpleNamespace(base=0, sort_key=int, neighbours=lambda x, ceiling=None: table[x], table=table)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=3 * n)) if n > 1 else []
    if edges:
        # repeat some edges so that rows carry parallel half-edges
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return n, edges


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(1, 10))
def test_pairing_pass_matches_reference_loop(graph, radius):
    t = ball_walk(multigraph_space(*graph), radius)
    assert t.origin == reference_origin(t.rows)
    assert sorted(zip(t.origin[::2], t.origin[1::2])) == sorted(
        (i, j) for i, row in enumerate(t.rows) for j in row if i < j
    )


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_pairing_pass_rejects_a_half_edge_without_partner(graph, data):
    # one more half-edge a -> c, or one half-edge a -> b of the drawn edges
    # redirected to a -> c, which leaves the total count of half-edges as it
    # was; c = a makes a self-loop
    n, edges = graph
    space = multigraph_space(n, edges)
    t = ball_walk(space, n)
    a, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    slot = len(space.table[a])
    if edges and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(edges))
        c = data.draw(st.integers(0, n - 1).filter(lambda c: c != b))
        # the last entry for b at a belongs to a drawn edge, never to the path
        slot = max(k for k, y in enumerate(space.table[a]) if y == b)
    space.table[a][slot:slot + 1] = [c]
    with pytest.raises(InternalInconsistency, match="^unbalanced edge multiplicities"):
        ball_walk(space, n)
    rows = [list(row) for row in t.rows]
    rows[t.index[a]][slot:slot + 1] = [t.index[c]]
    assert reference_origin(rows) is None


# -- the outer sphere against the rows it formed before the ceiling -----------------

def ceiling_blind(space):
    """The space with a neighbours that ignores the ceiling, so ball_walk
    forms every outer-sphere label and keeps those in the ball; it gives no
    acceptor, so ball_walk sorts every sphere."""
    return SimpleNamespace(
        base=space.base, sort_key=space.sort_key, neighbours=lambda x, ceiling=None: space.neighbours(x)
    )


def reference_outer_rows(t):
    """ball_walk's outer-sphere loop before the ceiling, kept as the reference."""
    index, neighbours = t.index, t.space.neighbours
    return [[index[y] for y in neighbours(x) if y in index] for x in t.sphere_labels(t.radius)]


OUTER_SPHERE_GROUPS = [make_z(), make_z2(), make_f2(), make_f2_redundant(), make_dinf(), make_c6()]


def assert_walks_agree(pair, radius):
    t, ref = ball_walk(pair, radius), ball_walk(ceiling_blind(pair), radius)
    assert t.index == ref.index and list(t.index) == list(ref.index)
    assert (t.starts, t.rows, t.origin, t.exhausted) == (ref.starts, ref.rows, ref.origin, ref.exhausted)
    assert t.rows[t.starts[radius]:] == reference_outer_rows(t)


@pytest.mark.parametrize("group, S, radius", [
    # same-sphere edges a -> aa, and outer products one and two letters longer
    (make_z(), ["a", "aa"], 3),
    # in C6 with S = {a, aaa} sphere 2 is {aa, AA}, below sphere 1's aaa: the
    # ceiling is the largest key in the ball, not the outer sphere's last
    (make_c6(), ["a", "aaa"], 2),
])
def test_outer_sphere_rows_match_on_named_balls(group, S, radius):
    assert_walks_agree(GeneratingPair(group, trivial_subgroup(group), S), radius)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_outer_sphere_rows_match_the_ceiling_blind_walk(data):
    # generators of lengths 1 to 3 give outer products up to 3 letters longer
    # than x, and, as in Z with S = {a, aa}, edges within a sphere
    group = data.draw(st.sampled_from(OUTER_SPHERE_GROUPS), label="group")
    words = st.lists(st.sampled_from(group.alphabet), min_size=1, max_size=3).map("".join)
    S = data.draw(st.lists(words.filter(lambda w: group.normal_form(w)), min_size=1, max_size=3), label="S")
    pair = GeneratingPair(group, trivial_subgroup(group), S)
    assert_walks_agree(pair, data.draw(st.integers(1, 5), label="radius"))


@pytest.mark.parametrize("radius", [1, 2, 3, 6, 9])
def test_c2c3_trivial_k_outer_rows_match_the_ceiling_blind_walk(radius):
    # the generator u:1 has no edge letter and w:1, w:2 have two, so outer
    # products keep, shorten or lengthen x
    pi = c2c3()
    pair = GeneratingPair(pi, trivial_subgroup(pi), pi.default_generators())
    assert_walks_agree(pair, radius)
    t = ball_walk(pair, radius)
    assert rows_off_reference(pair, pair.neighbours, t.vertices) == []


@pytest.mark.parametrize("pi", FUZZ_CASES + [c2c3()], ids=lambda pi: pi.name)
def test_covering_tree_outer_rows_match_the_ceiling_blind_walk(pi):
    for radius in (1, 2, 3, 4):
        assert_walks_agree(CoveringTree(pi), radius)


def counted_coset_products(monkeypatch, calls):
    """Record every product RewritingGroup.coset_products forms."""
    coset_products = RewritingGroup.coset_products

    def counting(self, cosets):
        products = coset_products(self, cosets)

        def row(x, ceiling=None):
            out = products(x, ceiling)
            calls.extend(out)
            return out

        return row

    monkeypatch.setattr(RewritingGroup, "coset_products", counting)


def test_outer_f2_rows_form_only_the_free_cancellation(monkeypatch):
    # the walk along the acceptor reads the 4 slots of each of 485 inner
    # cosets and only the free cancellation of each of 972 outer cosets,
    # so no outer slot x + c is read, let alone formed; forming every slot
    # makes 4 per coset, 5,828 in all
    f2 = make_f2()
    reads = []
    recorded_slot_tables(monkeypatch, reads)
    pair = GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"])
    t = build(pair, 6)
    assert len(t.vertices) == 1457
    assert len(reads) == 1457 and sum(map(len, reads)) == 2912
    assert [k for slots in reads[t.starts[6]:] for _, k, _ in slots] == [1] * 972
    calls = []
    counted_coset_products(monkeypatch, calls)
    ball_walk(ceiling_blind(pair), 6)
    assert len(calls) == 5828


# -- spheres taken in the order the walk finds them --------------------------------

def discovery_layers(space, radius):
    """Each sphere in the order ball_walk first meets its labels, scanning the
    sphere before it in label order."""
    seen, frontier, layers = {space.base}, [space.base], []
    for _ in range(radius):
        found = {}
        for x in frontier:
            found.update((y, y) for y in space.neighbours(x) if y not in seen)
        layers.append(list(found))
        seen.update(found)
        frontier = sorted(found, key=space.sort_key)
    return layers


def first_unsorted_layer(space, radius):
    for d, layer in enumerate(discovery_layers(space, radius), 1):
        if layer != sorted(layer, key=space.sort_key):
            return d
    return None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_full_alphabet_pairs_find_each_sphere_in_label_order(data):
    # one or both letters of each inverse pair: saturation closes S to the alphabet
    group = data.draw(st.sampled_from(OUTER_SPHERE_GROUPS), label="group")
    inv = group.letter_inverse
    S = [c for g in group.generators for c in data.draw(st.sampled_from([[g], [inv[g]], [g, inv[g]]]))]
    pair = GeneratingPair(group, trivial_subgroup(group), S)
    # every full-alphabet pair finds its spheres in order, but only one whose
    # every rule cancels walks along the acceptor
    assert (pair.acceptor is None) == any(rhs for _, rhs in group.rules)
    radius = data.draw(st.integers(1, 7), label="radius")
    assert coset_table(build(pair, radius)) == reference_build(pair, radius)
    for layer in discovery_layers(pair, radius):
        assert layer == sorted(layer, key=group.sort_key)


def test_forcing_the_found_order_where_it_is_not_sorted_fails_the_reference():
    # F2 with S = {a, bb} finds sphere 2 as aa, abb, aBB, AA, ...: the longer
    # abb before AA.  Taking each sphere as found would keep that order,
    # which S = {a, bb} does not vouch for: the pair gives no acceptor, and
    # the walk sorts sphere 2 as the reference does
    f2 = make_f2()
    pair = GeneratingPair(f2, trivial_subgroup(f2), ["a", "bb"])
    assert pair.acceptor is None
    assert first_unsorted_layer(pair, 3) == 2
    found = discovery_layers(pair, 3)[1]
    assert found[:3] == ["aa", "abb", "aBB"]
    assert list(build(pair, 3).sphere_labels(2)) == sorted(found, key=pair.sort_key) != found
    assert coset_table(build(pair, 3)) == reference_build(pair, 3)
    assert_matches_reference_walk(pair, 3)


def test_only_verified_full_alphabet_pairs_skip_the_sort(catalog):
    taken = [(name, i) for name, e in catalog.items() for i, pair in enumerate(e.pairs()) if pair.acceptor is not None]
    assert taken == [("z_rw", 0), ("f2_rw", 0), ("dinfty_rw", 0)]
    # Z^2 and C6 on their whole alphabets find their spheres in order, but
    # a rule that does not cancel, ba -> ab or aaaa -> AA, gives no acceptor
    for name in ("z2_rw", "c6_rw"):
        pair = catalog[name].pairs()[0]
        assert pair.S == tuple(pair.backend.alphabet) and pair.acceptor is None
        assert first_unsorted_layer(pair, 6) is None
    # Z with S = {a, aa} finds its spheres in order, a^n, A^n, a^(n+1), A^(n+1),
    # but S is not the alphabet
    assert first_unsorted_layer(catalog["z_rw"].pairs()[1], 6) is None
    c6 = make_c6()
    assert GeneratingPair(c6, Subgroup(c6, ["", "aaa"]), ["a"]).acceptor is None


def test_rewriting_pair_with_nontrivial_k_has_no_coset_rows():
    # a rewriting backend's coset_products forms x.s, which labels x.s.K
    # only for K = 1, and refuses a coset s.K of more members
    c6 = make_c6()
    with pytest.raises(ValueError, match="K = 1 only"):
        build(GeneratingPair(c6, Subgroup(c6, ["", "aaa"]), ["a"]), 2)


@pytest.mark.parametrize("radius", [1, 5, 9])
def test_f2_build_takes_one_sort_key_per_layer(monkeypatch, radius):
    # the ceiling reads the base's key and each sphere's last; sorting the
    # spheres took 39,364 more at R = 9
    calls = []
    sort_key = RewritingGroup.sort_key

    def counting(self, word):
        calls.append(word)
        return sort_key(self, word)

    monkeypatch.setattr(RewritingGroup, "sort_key", counting)
    f2 = make_f2()
    pair = GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"])
    calls.clear()
    assert len(build(pair, radius).vertices) == 1 + 2 * (3 ** radius - 1)
    assert len(calls) <= radius + 1


@pytest.mark.parametrize("S", [["a", "b"], ["a", "bb"]], ids=["found_in_order", "sorted"])
def test_cap_admits_exactly_the_ball(S):
    f2 = make_f2()
    pair = GeneratingPair(f2, trivial_subgroup(f2), S)
    n = len(build(pair, 4).vertices)
    assert len(build(pair, 4, cap=n).vertices) == n
    with pytest.raises(BudgetExceeded, match=f"^coset enumeration exceeded cap {n - 1} at radius 4$"):
        build(pair, 4, cap=n - 1)


# -- one pass per sphere against the walk it replaced ------------------------------

def reference_walk(space, radius, cap=DEFAULT_CAP):
    """ball_walk as it was before each coset took its position when first
    found, kept as the reference: each sphere is collected in a found dict,
    sorted, checked against the cap whole and indexed, the rows are looked
    up in a second pass, and the outer sphere's rows are formed after the
    loop.  It reads neighbours only, so a walk along an acceptor is checked
    against the label rows, its found order against the sorted one."""
    sort_key, neighbours = space.sort_key, space.neighbours
    index = {space.base: 0}
    ceiling = sort_key(space.base)
    starts = [0, 1]
    rows = []
    frontier = [space.base]
    for d in range(1, radius + 1):
        found = {}
        labels = []
        for x in frontier:
            row = neighbours(x)
            labels.append(row)
            for y in row:
                if y not in index:
                    found[y] = y
        layer = sorted(found, key=sort_key)
        n = len(index)
        if n + len(layer) > cap:
            raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
        index.update(zip(layer, range(n, n + len(layer))))
        starts.append(len(index))
        rows.extend([index[y] for y in row] for row in labels)
        del found, labels
        frontier = layer
        if not frontier:
            break
        ceiling = max(ceiling, sort_key(layer[-1]))
    starts += [len(index)] * (radius + 2 - len(starts))
    rows.extend([j for j in map(index.get, neighbours(x, ceiling)) if j is not None] for x in frontier)
    origin = []
    balanced = True
    for i, row in enumerate(rows):
        last = i
        for j in sorted(row):
            if j > last:
                last = j
                n = row.count(j)
                if rows[j].count(i) != n:
                    balanced = False
                origin += (i, j) * n
    if not balanced or len(origin) != sum(map(len, rows)):
        raise InternalInconsistency(
            f"unbalanced edge multiplicities in the radius-{radius} ball of {space!r}: "
            "two rows list each other a different number of times"
        )
    return Truncation(space, index, starts, rows, origin, radius, not frontier)


def assert_matches_reference_walk(space, radius):
    """The walk's coset table equals the reference walk's; and at a cap one
    short of the ball the reference raises at the last sphere, as the walk
    does unless the radius is past that cap, which it refuses at once."""
    t, ref = ball_walk(space, radius), reference_walk(space, radius)
    assert t.vertices == ref.vertices
    assert list(t.index.items()) == list(ref.index.items())
    assert (t.starts, t.rows, t.origin, t.exhausted) == (ref.starts, ref.rows, ref.origin, ref.exhausted)
    n = len(t.vertices)
    if n > 1:
        last = max(r for r in range(radius + 1) if t.starts[r] < t.starts[r + 1])
        errors = []
        for walk in (ball_walk, reference_walk):
            with pytest.raises(BudgetExceeded) as caught:
                walk(space, radius, cap=n - 1)
            errors.append(str(caught.value))
        assert errors[1] == f"coset enumeration exceeded cap {n - 1} at radius {last}"
        if radius > n - 1:
            assert errors[0] == f"radius {radius} is past the cap of {n - 1} cosets"
        else:
            assert errors[0] == errors[1]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_walk_matches_the_reference_walk(catalog, data):
    kind = data.draw(st.sampled_from(["full_alphabet", "random_s", "multigraph", "pi_one", "tree"]), label="kind")
    if kind in ("full_alphabet", "random_s"):
        group = data.draw(st.sampled_from(OUTER_SPHERE_GROUPS), label="group")
        if kind == "full_alphabet":
            S = group.alphabet
        else:
            words = st.lists(st.sampled_from(group.alphabet), min_size=1, max_size=3).map("".join)
            S = data.draw(st.lists(words.filter(lambda w: group.normal_form(w)), min_size=1, max_size=3), label="S")
        space = GeneratingPair(group, trivial_subgroup(group), S)
        if kind == "full_alphabet":
            assert (space.acceptor is None) == any(rhs for _, rhs in group.rules)
        radius = data.draw(st.integers(1, 6 if kind == "full_alphabet" else 4), label="radius")
    elif kind == "multigraph":
        space, radius = multigraph_space(*data.draw(multigraphs())), data.draw(st.integers(1, 10), label="radius")
    elif kind == "pi_one":
        pairs = [p for p in catalog_pairs(catalog) if isinstance(p.backend, PiOne) and len(p.K) > 1]
        space, radius = data.draw(st.sampled_from(pairs)), data.draw(st.integers(1, 6), label="radius")
    else:
        space, radius = CoveringTree(catalog["c2_c3_gog"].backend()), data.draw(st.integers(0, 6), label="radius")
    assert_matches_reference_walk(space, radius)


def test_spheres_found_out_of_label_order_are_renumbered(catalog):
    # F2 with S = {a, bb} and c2_c3_gog/0 find sphere 1 in label order and
    # sphere 2 out of it; the walk gives sphere 2 its found positions first,
    # in the order discovery_layers reads, then renumbers
    f2 = make_f2()
    for pair in (GeneratingPair(f2, trivial_subgroup(f2), ["a", "bb"]), catalog["c2_c3_gog"].pairs()[0]):
        found = discovery_layers(pair, 3)
        assert found[0] == sorted(found[0], key=pair.sort_key) and found[1] != sorted(found[1], key=pair.sort_key)
        assert list(ball_walk(pair, 3).sphere_labels(2)) == sorted(found[1], key=pair.sort_key), pair.name
        for radius in (2, 3, 5):
            assert_matches_reference_walk(pair, radius)


def test_only_an_acceptor_vouches_for_the_found_order(catalog):
    # a space that says its spheres turn up in label order, but gives no
    # acceptor, is walked by its label rows and has every sphere sorted
    f2 = make_f2()
    for pair in (GeneratingPair(f2, trivial_subgroup(f2), ["a", "bb"]), catalog["c2_c3_gog"].pairs()[0]):
        space = SimpleNamespace(base=pair.base, sort_key=pair.sort_key, neighbours=pair.neighbours, found_in_order=True)
        for radius in (2, 3, 5):
            assert_matches_reference_walk(space, radius)
            assert coset_table(ball_walk(space, radius)) == reference_build(pair, radius), pair.name


def lazy(space, formed):
    """The space with a neighbours that forms one label at a time, when the
    walk asks for it, and records it in formed."""
    def neighbours(x, ceiling=None):
        for y in space.neighbours(x, ceiling):
            formed.add(y)
            yield y

    return SimpleNamespace(base=space.base, sort_key=space.sort_key, neighbours=neighbours)


@pytest.mark.parametrize("S", [["a", "b"], ["a", "bb"]], ids=["found_in_order", "sorted"])
def test_a_walk_past_the_cap_stops_at_the_first_coset_past_it(S, monkeypatch):
    # the reference forms its whole last sphere, 108 or 216 cosets past |B_3|.
    # The walk along the acceptor, for S = {a, b}, counts sphere 4 off the
    # states of sphere 3 and refuses it before it reads a row of sphere 3:
    # it reads the rows of B_2 only, which form B_3.  The label walk, for
    # S = {a, bb}, forms at most the coset past the cap
    f2 = make_f2()
    pair = GeneratingPair(f2, trivial_subgroup(f2), S)
    below, inner, ball = (len(build(pair, r).vertices) for r in (2, 3, 4))
    for cap in (inner, inner + 1, inner + 2, (inner + ball) // 2, ball - 1):
        message = f"^coset enumeration exceeded cap {cap} at radius 4$"
        if pair.acceptor is not None:
            reads = []
            recorded_slot_tables(monkeypatch, reads)
            with pytest.raises(BudgetExceeded, match=message):
                ball_walk(GeneratingPair(f2, trivial_subgroup(f2), S), 4, cap)
            monkeypatch.undo()
            assert len(reads) == below
            assert 1 + sum(k == -1 for slots in reads for _, k, _ in slots) == inner
        else:
            formed = {pair.base}
            with pytest.raises(BudgetExceeded, match=message):
                ball_walk(lazy(pair, formed), 4, cap)
            assert len(formed) <= cap + 1
        formed = {pair.base}
        with pytest.raises(BudgetExceeded):
            reference_walk(lazy(pair, formed), 4, cap)
        assert len(formed) == ball


# -- the walk along the word acceptor against the label walk ------------------------

def cyclic_rules(g, G, n):
    """Shortlex rules of C_n on the letters g < G, past the free cancellations;
    none for Z, as n = 0."""
    m, odd = divmod(n, 2)
    if n == 0:
        return []
    if odd:
        return [(g * (m + 1), G * m), (G * (m + 1), g * m)]
    return [(G * m, g * m), (g * (m + 1), G * (m - 1))]


@st.composite
def confluent_systems(draw, orders=(0, 2, 3, 4, 5, 6, 7)):
    """A free product of one to three cyclic groups, Z or C_n for n in
    orders (C_2 on one involution letter), on shortlex rules, and maybe its
    direct product with C_2 on a last letter t that commutes with every
    other."""
    orders = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=3), label="orders")
    generators, inverses, rules = [], {}, []
    for (g, G), n in zip(["aA", "bB", "cC"], orders):
        generators.append(g)
        inverses[g] = g if n == 2 else G
        if n != 2:
            rules += cyclic_rules(g, G, n)
    name = "*".join(f"C{n}" if n else "Z" for n in orders)
    if draw(st.booleans(), label="times C2"):
        rules += [("t" + c, c + "t") for g in generators for c in dict.fromkeys(g + inverses[g])]
        generators.append("t")
        inverses["t"] = "t"
        name = f"({name})xC2"
    return RewritingGroup(generators, inverses, rules, name=name)


def assert_walks_as_the_reference(pair, radius):
    # an acceptor ball forms its labels, and then their index, when first read
    t, ref = ball_walk(pair, radius), reference_walk(pair, radius)
    assert t.vertices == ref.vertices, (pair.backend, radius)
    assert list(t.index.items()) == list(ref.index.items()), (pair.backend, radius)
    assert (t.starts, t.rows, t.origin, t.exhausted) == (ref.starts, ref.rows, ref.origin, ref.exhausted)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_walk_along_the_acceptor_matches_the_reference_walk(data):
    # reference_walk reads the label rows of coset_products and takes each
    # sphere as found; the walk reads the acceptor's slot table instead,
    # where every rule cancels, and sorts each sphere where one does not
    if data.draw(st.booleans(), label="random system"):
        group = data.draw(confluent_systems(), label="group")
    else:
        group = data.draw(st.sampled_from(OUTER_SPHERE_GROUPS), label="group")
    pair = GeneratingPair(group, trivial_subgroup(group), group.alphabet)
    assert (pair.acceptor is None) == any(rhs for _, rhs in group.rules)
    radius = data.draw(st.integers(1, 5), label="radius")
    assert_matches_reference_walk(pair, radius)


@pytest.mark.parametrize("name", ["z_rw", "z2_rw", "f2_rw", "dinfty_rw", "c6_rw"])
def test_found_in_order_catalog_pairs_walk_as_the_reference(catalog, name):
    # all five find their spheres in order; Z^2 and C6 have a rule that does
    # not cancel, so they take the label walk and sort each sphere
    pair = catalog[name].pairs()[0]
    assert (pair.acceptor is None) == (name in ("z2_rw", "c6_rw"))
    for radius in range(1, 9):
        assert_walks_as_the_reference(pair, radius)


def test_walk_along_an_acceptor_of_more_than_256_states():
    # F_128 on 256 one-character letters: the free cancellations give the
    # acceptor 257 states, the empty word and one per letter, past one byte
    # per frontier position
    letters = [chr(0x100 + i) for i in range(256)]
    f128 = RewritingGroup(letters[::2], dict(zip(letters[::2], letters[1::2])), name="F128")
    pair = GeneratingPair(f128, trivial_subgroup(f128), letters)
    assert len(pair.acceptor) == 257 and typecode(len(pair.acceptor)) == "H"
    t = ball_walk(pair, 2)
    assert t.starts == [0, 1, 257, 65537] and not t.exhausted
    assert_walks_as_the_reference(pair, 1)


# -- which pairs walk along the acceptor ---------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_acceptor_exactly_where_k_is_trivial_s_the_alphabet_and_every_rule_cancels(catalog, data):
    # a free product of copies of Z and C2 cancels in every rule; its direct
    # product with C2 on a central t adds the rules tc -> ct, which do not
    group = data.draw(confluent_systems(orders=(0, 2)), label="group")
    alphabet = group.alphabet
    S = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True), label="S")
    K = trivial_subgroup(group)
    if "t" in alphabet and data.draw(st.booleans(), label="K = <t>"):
        K = Subgroup(group, ["", "t"])
        S = [c for c in S if c != "t"] or [alphabet[0]]
    pairs = [GeneratingPair(group, K, S)] + catalog_pairs(catalog)
    for pair in pairs:
        backend = pair.backend
        cancels = isinstance(backend, RewritingGroup) and all(not rhs for _, rhs in backend.rules)
        full = isinstance(backend, RewritingGroup) and set(pair.S) == set(backend.alphabet)
        assert (pair.acceptor is not None) == (len(pair.K) == 1 and full and cancels), pair.name
    if pairs[0].acceptor is not None:
        assert_walks_as_the_reference(pairs[0], data.draw(st.integers(1, 4), label="radius"))


def test_slot_table_is_none_for_a_rule_that_does_not_cancel():
    assert make_z2().slot_table() is None and make_c6().slot_table() is None


# -- the slot table against normal_form -----------------------------------------------

def test_slot_table_has_a_state_per_irreducible_word_shorter_than_the_longest_rule(catalog):
    # the free cancellations alone: the empty word and one state per letter.
    # The longest rule counted is the longest that holds no other: bAaB
    # holds Aa, so F2 with bAaB -> empty has F2's table, not one of the 53
    # freely reduced words of up to 3 letters
    for name in ("z_rw", "dinfty_rw", "f2_rw"):
        backend = catalog[name].pairs()[0].backend
        assert len(backend.slot_table()) == 1 + len(backend.alphabet), name
    assert make_f2_cancelling().slot_table() == make_f2().slot_table()
    assert len(make_f2_cancelling().slot_table()) == 1 + 4


def test_f2_cancelling_build_calls_normal_form_only_for_f2s_slot_table(monkeypatch):
    # 5 states x 4 letters, not 53 x 4 = 212 for a state per freely reduced
    # word of up to 3 letters, and the walk is the reference walk
    f2 = make_f2_cancelling()
    normal_form, calls = RewritingGroup.normal_form, []
    monkeypatch.setattr(RewritingGroup, "normal_form", lambda self, word: calls.append(word) or normal_form(self, word))
    pair = GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"])
    calls.clear()
    t = ball_walk(pair, 6)
    assert len(t.vertices) == 1 + 4 * (3 ** 6 - 1) // 2 and len(calls) <= 5 * 4
    monkeypatch.undo()
    assert_walks_as_the_reference(pair, 4)


def slot_outcomes(group, x):
    """x.c for each letter c, read off the slot table: x's letters lead from
    the start state along child slots, and each slot of the state reached
    gives x + c or x less its last k letters."""
    table, code = group.slot_table(), {c: i for i, c in enumerate(group.alphabet)}
    q = 0
    for c in x:
        _, k, q = table[q][1][code[c]]
        assert k == -1, (x, c)
    return [x + c if k == -1 else x[: len(x) - k] for c, (_, k, _) in zip(group.alphabet, table[q][1])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slot_table_outcomes_are_normal_forms(data):
    # free products of copies of Z and C2 cancel in every rule, as does F2
    # with bAaB -> empty; x is longer than any state
    group = data.draw(
        st.one_of(
            confluent_systems(orders=(0, 2)).filter(lambda g: "t" not in g.alphabet),
            st.sampled_from([make_f2_cancelling(), make_dinf()]),
        ),
        label="group",
    )
    word = data.draw(st.lists(st.sampled_from(group.alphabet), max_size=12).map("".join), label="word")
    x = group.normal_form(word)
    assert slot_outcomes(group, x) == [group.normal_form(x + c) for c in group.alphabet]


# -- the pairs the acceptor walk forms against the pairing loop, on mutant tables ----

MUTANT_GROUPS = [make_z(), make_dinf(), make_f2()]


@st.composite
def slot_rewirings(draw):
    """A group of MUTANT_GROUPS and one slot (q, r, c) of its slot table with
    its outcome rewired: a cancellation of k letters read as one of k - 1 or
    k + 1, a child read with the letter of another child slot of q, or a
    child with no such twin read as a cancellation of one letter."""
    group = draw(st.sampled_from(MUTANT_GROUPS), label="group")
    table = group.slot_table()
    q = draw(st.integers(0, len(table) - 1), label="state")
    r = draw(st.sampled_from([r for r in (0, 1) if table[q][r]]), label="list")
    c, k, p = draw(st.sampled_from(table[q][r]), label="slot")
    twins = [b for b, j, _ in table[q][r] if j == -1 and b != c]
    if k == -1 and twins and draw(st.booleans(), label="letter"):
        new = (draw(st.sampled_from(twins), label="twin letter"), -1, p)
    elif k == -1:
        new = (c, 1, None)
    else:
        new = (c, k + draw(st.sampled_from([-1, 1]), label="k step"), None)
    return group, (q, r, c), new


@settings(max_examples=300, deadline=None)
@given(slot_rewirings(), st.integers(1, 5))
def test_the_acceptor_walk_pairs_a_mutant_table_as_the_pairing_loop(rewiring, radius):
    # the walk pairs each row as it forms it; on a table with one slot
    # rewired it raises, or every row has its own and the pairs it forms are
    # those of the pairing loop it replaced, so its checks are no weaker.  A
    # child slot given a twin's letter names two cosets alike, which the
    # index refuses, or its state is never scanned and the ball is the
    # reference's
    group, at, new = rewiring
    with pytest.MonkeyPatch.context() as mp:
        rewired_slot_tables(mp, lambda q, r, s: new if (q, r, s[0]) == at else s)
        pair = GeneratingPair(group, trivial_subgroup(group), group.alphabet)
        try:
            t = ball_walk(pair, radius)
            t.index
        except InternalInconsistency:
            return
    assert len(t.rows) == len(t.index)
    assert t.origin == reference_origin(t.rows)
    if new[0] != at[2]:
        assert_walks_as_the_reference(pair, radius)

