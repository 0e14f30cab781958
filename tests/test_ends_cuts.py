import pytest

from endlab.cayley_abels import GeneratingPair, build, trivial_subgroup
from endlab.ends_cuts import (
    AT_LEAST,
    AT_MOST_ONE,
    EXACTLY_TWO,
    ZERO_ENDS,
    classify_ends,
    escaping_components,
    find_cut,
)

from test_cayley_abels import make_c6, make_z
from test_serre_graphs import assert_components_agree


def z_truncation(radius):
    z = make_z()
    pair = GeneratingPair(z, trivial_subgroup(z), ["a"])
    return build(pair, radius)


# -- escaping components ----------------------------------------------------------

def test_finite_group_has_no_escaping_components():
    c6 = make_c6()
    pair = GeneratingPair(c6, trivial_subgroup(c6), ["a"])
    t = build(pair, 10)
    comps = escaping_components(t, {t.base})
    assert comps and all(not esc for _, esc in comps)


def test_z_minus_base_has_two_escaping_components():
    t = z_truncation(8)
    comps = escaping_components(t, {t.base})
    assert sum(1 for _, esc in comps if esc) == 2


def test_f2_minus_ball_one_has_at_least_three_escaping(catalog):
    pair = catalog["f2_rw"].pairs()[0]
    t = build(pair, 6)
    ball1 = set(t.ball(1))
    count = sum(1 for _, esc in escaping_components(t, ball1) if esc)
    assert count >= 3


def test_probe_touching_boundary_rejected():
    t = z_truncation(4)
    boundary = [v for v in t.graph.vertices if t.sphere[v] == 4]
    with pytest.raises(ValueError, match="boundary"):
        escaping_components(t, {boundary[0]})


def test_probe_outside_graph_rejected():
    t = z_truncation(4)
    with pytest.raises(ValueError, match="outside"):
        escaping_components(t, {"zz"})


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
        probe_small = set(small.ball(1))
        probe_large = set(large.ball(1))
        c_small = sum(1 for _, e in escaping_components(small, probe_small) if e)
        c_large = sum(1 for _, e in escaping_components(large, probe_large) if e)
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
    rest = t.graph.remove_vertex_set(set(t.ball(cut.probe_radius)))
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
    probes = []
    best = 0
    for r in range(r_max + 1):
        ball = t.ball(r)
        if any(t.sphere[v] >= t.radius for v in ball):
            break
        c = sum(1 for _, esc in escaping_components(t, ball) if esc)
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


def reference_find_cut(t, margin=4):
    """The original find_cut, kept as the reference: escaping blocks sorted by
    their earliest vertex in the truncation's order."""
    from endlab.ends_cuts import Cut, coboundary

    index = {v: i for i, v in enumerate(t.graph.vertices)}
    for r in range(max(0, t.radius - margin)):
        ball = t.ball(r)
        if any(t.sphere[v] >= t.radius for v in ball):
            break
        escaping = [block for block, esc in escaping_components(t, ball) if esc]
        if len(escaping) >= 2:
            escaping.sort(key=lambda block: min(index[v] for v in block))
            chosen = escaping[0]
            return Cut(chosen, coboundary(t.graph, chosen), True, True, r)
    return None


@pytest.mark.parametrize("r_max, radius", [(0, 6), (3, 8)])
def test_probe_loop_matches_reference(catalog, r_max, radius):
    for entry in catalog.values():
        for pair in entry.pairs():
            est = classify_ends(pair, r_max=r_max, radius=radius)
            ref = reference_classify_ends(pair, r_max, radius)
            assert est.to_json() == ref.to_json(), pair.name
            t = build(pair, radius)
            cut, ref_cut = find_cut(t), reference_find_cut(t)
            assert (cut and cut.to_json()) == (ref_cut and ref_cut.to_json()), pair.name


# -- in-place probes against the graph copy and the old union-find ---------------------

@pytest.mark.parametrize("r_max, radius", [(1, 6), (3, 8)])
def test_ball_probes_walk_the_truncation_like_the_copy(catalog, r_max, radius):
    for entry in catalog.values():
        for pair in entry.pairs():
            t = build(pair, radius)
            for r in range(r_max + 1):
                assert_components_agree(t.graph, t.ball(r))


@pytest.mark.parametrize("probe_radius", [5, 8])
def test_witness_coboundary_probe_walks_the_truncation_like_the_copy(catalog, probe_radius):
    from endlab.ai_cohomology import witness_from_splitting
    from endlab.cayley_abels import coset_canonical
    from endlab.ends_cuts import coboundary

    for entry in catalog.values():
        if entry.marked_edge is None:
            continue
        backend = entry.backend()
        w = witness_from_splitting(backend, entry.marked_edge, probe_radius=probe_radius)
        t = w.truncation
        # the probe cut_from_witness takes: the interior ends of the coboundary
        inside = [v for v in t.graph.vertices
                  if w.chi(coset_canonical(backend, w.pair.K, backend.inverse(v)))]
        cb = coboundary(t.graph, inside)
        ends = {t.graph.origin(e) for e in cb} | {t.graph.terminus(e) for e in cb}
        probe = {v for v in ends if t.sphere[v] < t.radius}
        assert probe, entry.name
        assert_components_agree(t.graph, probe)
