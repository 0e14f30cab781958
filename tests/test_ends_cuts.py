import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import ends_cuts
from endlab.cayley_abels import GeneratingPair, ball_walk, build, trivial_subgroup
from endlab.ends_cuts import (
    AT_LEAST,
    AT_MOST_ONE,
    EXACTLY_TWO,
    MARGIN,
    ZERO_ENDS,
    Cut,
    ball_probes,
    classify_ends,
    coboundary,
    escaping_components,
    find_cut,
)
from endlab.serre_graphs import blocks

from test_cayley_abels import distances, make_c6, make_z, multigraph_space
from test_group_backends import make_f2
from test_serre_graphs import reference_components


def z_truncation(radius):
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    return build(pair, radius)


def ball_positions(t, r):
    """The positions of B_r: BFS order puts them first."""
    return range(t.starts[r + 1])


# -- escaping components ----------------------------------------------------------

def test_finite_group_has_no_escaping_components():
    c6 = make_c6()
    pair = GeneratingPair(c6, trivial_subgroup(c6), ["a"])
    t = build(pair, 10)
    assert blocks(t.rows, {0})
    assert escaping_components(t, {0}) == []


def test_z_minus_base_has_two_escaping_components():
    t = z_truncation(8)
    assert len(escaping_components(t, {0})) == 2


def test_f2_minus_ball_one_has_at_least_three_escaping(catalog):
    pair = catalog["f2_rw"].pairs()[0]
    t = build(pair, 6)
    assert len(escaping_components(t, ball_positions(t, 1))) >= 3


def test_probe_touching_boundary_rejected():
    t = z_truncation(4)
    with pytest.raises(ValueError, match="boundary"):
        escaping_components(t, {t.starts[4]})


def test_probe_outside_graph_rejected():
    # a position past the table lies past the outer sphere
    t = z_truncation(4)
    with pytest.raises(ValueError, match="boundary"):
        escaping_components(t, {len(t.vertices)})


# -- classification ----------------------------------------------------------------

def test_z_is_two_ended_at_scale():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    est = classify_ends(pair)
    assert est.verdict == EXACTLY_TWO
    assert est.probes == ((0, 2), (1, 2), (2, 2), (3, 2))


def test_dinf_both_backends_two_ended(catalog):
    for name in ("dinfty_rw", "dinfty_gog"):
        for pair in catalog[name].pairs():
            assert classify_ends(pair).verdict == EXACTLY_TWO


def test_z2_has_at_most_one_end_at_scale(catalog):
    est = classify_ends(catalog["z2_rw"].pairs()[0], r_max=3, radius=10)
    assert est.verdict == AT_MOST_ONE
    assert est.count <= 1


def test_c2c3_has_at_least_three_ends(catalog):
    for pair in catalog["c2_c3_gog"].pairs():
        est = classify_ends(pair, radius=8)
        assert est.verdict == AT_LEAST
        assert est.count >= 3
        assert est.coarse_class() == ">=3"


def test_finite_groups_are_zero_ended(catalog):
    for name in ("c6_rw", "c5_gog"):
        est = classify_ends(catalog[name].pairs()[0])
        assert est.verdict == ZERO_ENDS
        assert est.exhausted


def test_scale_guard():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    with pytest.raises(ValueError, match="r_max"):
        classify_ends(pair, r_max=3, radius=7)


def test_verdict_json_carries_radii():
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    data = classify_ends(pair).to_json()
    assert data["radii"] == {"r_max": 3, "R": 12}
    assert data["verdict"] == EXACTLY_TWO


# -- escaping counts versus the truncation radius ------------------------------------

def test_escape_counts_do_not_grow_with_radius(catalog):
    for name, radii in (("z_rw", (8, 12)), ("c2_c3_gog", (8, 12)), ("f2_rw", (5, 8))):
        pair = catalog[name].pairs()[0]
        small = build(pair, radii[0])
        large = build(pair, radii[1])
        c_small = len(escaping_components(small, ball_positions(small, 1)))
        c_large = len(escaping_components(large, ball_positions(large, 1)))
        assert c_large <= c_small


# -- cuts ------------------------------------------------------------------------------

def test_cut_in_z_line():
    t = z_truncation(8)
    cut = find_cut(t)
    assert cut is not None
    assert len(cut.coboundary) == 2  # one geometric edge, two orientations
    assert cut.escaping and cut.complement_escaping
    inside = set(cut.vertices)
    for e in cut.coboundary:
        assert (t.graph.origin(e) in inside) != (t.graph.terminus(e) in inside)


def test_no_cut_in_finite_graph():
    c6 = make_c6()
    pair = GeneratingPair(c6, trivial_subgroup(c6), ["a"])
    assert find_cut(build(pair, 10)) is None


def test_cut_in_f2_is_a_branch(catalog):
    pair = catalog["f2_rw"].pairs()[0]
    t = build(pair, 6)
    cut = find_cut(t)
    assert cut is not None
    assert cut.probe_radius == 0
    assert len(cut.coboundary) == 2  # the two orientations at the branch root
    rest = t.graph.remove_vertex_set(set(t.vertices[:t.starts[cut.probe_radius + 1]]))
    blocks = {frozenset(b) for b in rest.components()}
    assert frozenset(cut.vertices) in blocks


def test_cut_choice_is_deterministic(catalog):
    pair = catalog["f2_rw"].pairs()[0]
    t = build(pair, 6)
    assert find_cut(t).vertices == find_cut(t).vertices


def test_no_cut_in_one_ended_grid(catalog):
    pair = catalog["z2_rw"].pairs()[0]
    t = build(pair, 10)
    assert find_cut(t) is None


def test_pair_invariance_of_ends_class(catalog):
    for name in ("dinfty_gog", "c2_c3_gog", "z_rw", "dinfty_rw"):
        entry = catalog[name]
        pairs = entry.pairs()
        assert len(pairs) >= 2 or name not in ("dinfty_gog", "c2_c3_gog")
        radius = entry.scales.get("radius", 12)
        classes = {classify_ends(p, radius=radius).coarse_class() for p in pairs}
        assert len(classes) == 1


def test_probe_counts_nondecreasing_in_probe_radius(catalog):
    # a bigger ball can only split escaping components further
    for name in ("z_rw", "dinfty_gog", "c2_c3_gog", "f2_rw", "z2_rw"):
        entry = catalog[name]
        radius = entry.scales.get("radius", 12)
        est = classify_ends(entry.pairs()[0], r_max=3, radius=radius)
        counts = [c for _, c in est.probes]
        assert counts == sorted(counts), (name, est.probes)


# -- the shared probe loop against the two loops it replaced --------------------------

def reference_classify_ends(pair, r_max, radius, margin=4):
    """The original classify_ends, kept as the reference."""
    from endlab.ends_cuts import EndsEstimate

    t = build(pair, radius)
    sphere = distances(t)
    probes = []
    best = 0
    for r in range(r_max + 1):
        ball = t.vertices[:t.starts[r + 1]]
        if any(sphere[v] >= t.radius for v in ball):
            break
        c = len(reference_escaping(t, ball))
        probes.append((r, c))
        best = max(best, c)
    if t.exhausted:
        verdict, count = ZERO_ENDS, 0
    elif best >= 3:
        verdict, count = AT_LEAST, best
    elif best == 2:
        verdict, count = EXACTLY_TWO, 2
    else:
        verdict, count = AT_MOST_ONE, best
    return EndsEstimate(tuple(probes), verdict, count, r_max, t.radius, t.exhausted)


def reference_escaping(t, probe):
    """The escaping blocks of the truncation minus the probe labels, from the
    label-keyed graph copy: its union-find components without the probe
    that meet the outer sphere, each a tuple of labels in BFS order."""
    rest = t.graph.remove_vertex_set(set(probe))
    outer = set(t.sphere_labels(t.radius))
    return [block for block in reference_components(rest) if any(v in outer for v in block)]


def reference_probes(t, r_max):
    """The per-radius probe sum classify_ends ran before ball_probes, kept as
    the reference: one labelled component walk per ball radius."""
    return [len(reference_escaping(t, t.vertices[:t.starts[r + 1]])) for r in range(r_max + 1)]


def reference_find_cut(t):
    """The find_cut that labelled every block of each probe and scanned the
    whole edge table for the coboundary, kept as the reference."""
    for r in range(max(0, t.radius - MARGIN)):
        escaping = reference_escaping(t, t.vertices[:t.starts[r + 1]])
        if len(escaping) >= 2:
            return Cut(escaping[0], reference_coboundary(t.graph, escaping[0]), True, True, r)
    return None


def cut_json(cut):
    return cut and cut.to_json()


@pytest.mark.parametrize("r_max, radius", [(0, 6), (3, 8)])
def test_probe_loop_matches_reference(catalog, r_max, radius):
    for entry in catalog.values():
        for pair in entry.pairs():
            est = classify_ends(pair, r_max=r_max, radius=radius)
            ref = reference_classify_ends(pair, r_max, radius)
            assert est.to_json() == ref.to_json(), pair.name
            t = build(pair, radius)
            assert cut_json(find_cut(t)) == cut_json(reference_find_cut(t)), pair.name
            # every probe radius that stays off the outer sphere
            assert ball_probes(t, radius - 1) == reference_probes(t, radius - 1), pair.name


@st.composite
def probe_spaces(draw):
    """multigraph_space on up to 30 vertices, based anywhere: the path through
    every vertex gives two escaping sides to a base in its middle, the drawn
    edges give same-sphere edges and, repeated, parallel edges."""
    n = draw(st.integers(1, 30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=n // 2)) if n > 1 else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    space = multigraph_space(n, edges)
    space.base = draw(st.integers(0, n - 1))
    return space


# radii past a space's eccentricity give exhausted balls
@settings(max_examples=300, deadline=None)
@given(probe_spaces(), st.integers(1, 12), st.data())
def test_probe_sweep_and_cut_match_the_labelled_loops(space, radius, data):
    t = ball_walk(space, radius)
    r_max = data.draw(st.integers(0, radius - 1))
    assert ball_probes(t, r_max) == reference_probes(t, r_max)
    assert cut_json(find_cut(t)) == cut_json(reference_find_cut(t))


def test_cut_at_probe_radius_one(catalog):
    # with S = {a, aa} removing the base leaves Z connected: aa steps from A to a
    t = build(catalog["z_rw"].pairs()[1], 8)
    cut = find_cut(t)
    assert cut.probe_radius == 1
    assert len(cut.vertices) == 14
    assert cut.coboundary == (12, 13, 18, 19, 20, 21)
    assert cut.to_json() == reference_find_cut(t).to_json()


def test_classify_ends_walks_the_truncation_once(catalog, monkeypatch):
    walks = []
    blocks = ends_cuts.blocks

    def counted(*args):
        walks.append(args)
        return blocks(*args)

    monkeypatch.setattr(ends_cuts, "blocks", counted)
    for name in ("z_rw", "c2_c3_gog", "c6_rw"):
        walks.clear()
        classify_ends(catalog[name].pairs()[0], r_max=3, radius=8)
        assert len(walks) == 1, name


def f2_ball(radius):
    f2 = make_f2()
    return build(GeneratingPair(f2, trivial_subgroup(f2), ["a", "b"]), radius)


def test_probing_an_acceptor_ball_forms_no_label():
    # the walk along the acceptor numbers F2's cosets by parent and letter;
    # the probes read positions, and form no label and no index
    t = f2_ball(9)
    assert ball_probes(t, 3) == [4, 12, 36, 108]
    assert "vertices" not in t.__dict__ and "index" not in t.__dict__


def test_find_cut_forms_the_labels_of_an_acceptor_ball_once():
    # the cut prints its vertices, so it forms every label, once: a second
    # cut reads the labels already formed
    t = f2_ball(9)
    assert "vertices" not in t.__dict__
    cut = find_cut(t)
    labels = t.__dict__["vertices"]
    assert find_cut(t) == cut
    assert t.vertices is labels and len(labels) == len(t.rows) == 39365
    assert (len(cut.vertices), cut.vertices[:3], cut.coboundary) == (9841, ("a", "aa", "ab"), (0, 1))
    assert "index" not in t.__dict__


# -- probes on the coset table against the graph copy and the old scans ----------------

def reference_coboundary(graph, vertex_set):
    """The scan of the label-keyed graph that coboundary replaced, kept as the
    reference: oriented edges with exactly one endpoint in vertex_set."""
    inside = set(vertex_set)
    return tuple(e for e in graph.edges if (graph.origin(e) in inside) != (graph.terminus(e) in inside))


def labels(t, positions):
    return tuple(map(t.vertices.__getitem__, positions))


def assert_components_agree(t, probe):
    """escaping_components at the positions of the probe labels == the
    escaping union-find components of the graph copy without them."""
    got = escaping_components(t, {t.index[v] for v in probe})
    assert [labels(t, block) for block in got] == reference_escaping(t, probe)


@pytest.mark.parametrize("r_max, radius", [(1, 6), (3, 8)])
def test_ball_probes_walk_the_truncation_like_the_copy(catalog, r_max, radius):
    for entry in catalog.values():
        for pair in entry.pairs():
            t = build(pair, radius)
            for r in range(r_max + 1):
                assert_components_agree(t, t.vertices[:t.starts[r + 1]])


@pytest.mark.parametrize("radius", [6, 8])
def test_coboundary_of_every_probe_block_matches_the_graph_scan(catalog, radius):
    for entry in catalog.values():
        for pair in entry.pairs():
            t = build(pair, radius)
            for r in range(radius - MARGIN):
                # escaping or not
                for block in blocks(t.rows, ball_positions(t, r)):
                    want = reference_coboundary(t.graph, labels(t, block))
                    assert coboundary(t, set(block)) == want, pair.name


# the least probe radius the margin allows, the default, and one far past it
@pytest.mark.parametrize("probe_radius", [6, 8, 13])
def test_witness_coboundary_probe_walks_the_truncation_like_the_copy(catalog, probe_radius):
    from endlab.ai_cohomology import cut_from_witness, witness_from_splitting
    from endlab.cayley_abels import coset_canonical

    for entry in catalog.values():
        if entry.marked_edge is None:
            continue
        backend = entry.backend()
        w = witness_from_splitting(backend, entry.marked_edge, probe_radius=probe_radius)
        t = w.truncation
        # the probe cut_from_witness takes: the interior ends of the coboundary
        inside = [i for i, v in enumerate(t.vertices)
                  if w.chi(coset_canonical(backend, w.pair.K, backend.inverse(v)))]
        cb = reference_coboundary(t.graph, labels(t, inside))
        assert coboundary(t, set(inside)) == cb, entry.name
        ends = {t.graph.origin(e) for e in cb} | {t.graph.terminus(e) for e in cb}
        probe = ends.difference(t.sphere_labels(t.radius))
        assert probe, entry.name
        assert_components_agree(t, probe)
        escaping = len(reference_escaping(t, probe))
        assert cut_from_witness(w).escaping_components == escaping, entry.name


@pytest.mark.parametrize("probe_radius", [1, 5])
def test_witness_cut_refuses_a_probe_inside_the_margin(catalog, probe_radius):
    # every catalog witness probe lies in sphere 1, which the margin of 4
    # spheres allows from probe radius 6 on, as find_cut's last probe B_{R-5}
    from endlab.ai_cohomology import cut_from_witness, witness_from_splitting

    for entry in catalog.values():
        if entry.marked_edge is None:
            continue
        w = witness_from_splitting(entry.backend(), entry.marked_edge, probe_radius=probe_radius)
        with pytest.raises(ValueError, match=f"inside the margin of {MARGIN} spheres"):
            cut_from_witness(w)
