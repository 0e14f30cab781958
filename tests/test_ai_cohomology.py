import pytest

from endlab.ai_cohomology import (
    AIWitness,
    check_almost_invariance,
    cut_from_witness,
    dh1_nonvanishing_certificate,
    witness_from_splitting,
)
from endlab.bass_serre import PiOne
from endlab.cayley_abels import GeneratingPair, Subgroup, build, coset_canonical, trivial_subgroup

from test_bass_serre import c2c3, c4c2c4, dinf, segment_gog, z_hnn
from test_cayley_abels import coset_table


@pytest.fixture(scope="module")
def witnesses():
    out = {}
    for name, make, edge in (
        ("z_hnn", z_hnn, 0),
        ("dinf", dinf, 0),
        ("c2c3", c2c3, 0),
        ("c4c2c4", c4c2c4, 0),
    ):
        pi = make()
        w = witness_from_splitting(pi, edge, probe_radius=8)
        out[name] = (pi, w, w.truncation)
    return out


# -- witnesses from splittings ---------------------------------------------------

def test_z_hnn_witness_is_a_half_line(witnesses):
    pi, w, t = witnesses["z_hnn"]
    t_letter = pi.edge_letter(0)
    # B holds the nonpositive powers of the stable letter
    for n in range(-5, 6):
        el = pi.identity()
        step = t_letter if n >= 0 else pi.inverse(t_letter)
        for _ in range(abs(n)):
            el = pi.multiply(el, step)
        assert w.chi(el) == (1 if n <= 0 else 0)


def test_z_hnn_true_differences_have_size_one(witnesses):
    pi, w, t = witnesses["z_hnn"]
    for s in w.pair.S:
        s_inv = pi.inverse(s)
        moved = [v for v in t.vertices if w.chi(w.pair.act(s_inv, v)) != w.chi(v)]
        assert len(moved) == 1


def test_dinf_certificates_have_size_at_most_two(witnesses):
    _, w, _ = witnesses["dinf"]
    assert all(len(c) <= 2 for c in w.certificates)


def test_witnesses_are_proper(witnesses):
    for name in witnesses:
        _, w, _ = witnesses[name]
        assert w.details["proper"], name


def test_witness_keeps_its_probe_truncation(witnesses):
    # every check reads it instead of building it again
    for name, (_, w, t) in witnesses.items():
        assert t.space is w.pair and t.radius == 8, name
        assert coset_table(t) == coset_table(build(w.pair, 8)), name


def test_trivial_splitting_has_no_witness():
    pi = PiOne(segment_gog(2, 4, 2, [0, 1], [0, 2]))
    with pytest.raises(ValueError, match="trivial"):
        witness_from_splitting(pi, 0)


def test_witness_chi_is_an_indicator(witnesses):
    for name in witnesses:
        _, w, t = witnesses[name]
        assert {w.chi(v) for v in t.graph.vertices} <= {0, 1}


# -- almost invariance -------------------------------------------------------------

def test_catalog_witnesses_pass_exhaustive_check(witnesses):
    for name in witnesses:
        _, w, t = witnesses[name]
        cert = check_almost_invariance(w)
        assert cert.passed, (name, cert.details["failures"])


def test_k_invariance_is_exact_for_nontrivial_k(witnesses):
    pi, w, t = witnesses["c4c2c4"]
    assert len(w.pair.K) == 2
    for k in w.pair.K.elements:
        k_inv = pi.inverse(k)
        for v in t.vertices:
            assert w.chi(w.pair.act(k_inv, v)) == w.chi(v)


def test_almost_invariance_takes_no_ball_pass_for_the_identity():
    # the benchmark's witness: C2*C3 at edge 0, K trivial, probe radius 13.
    # kB = B cannot fail for k = 1, so the identity acts only in its orbit
    # table, on the 4 certificate cosets; the ball pass took 634 more
    pi = c2c3()
    w = witness_from_splitting(pi, 0, probe_radius=13)
    act, one, calls = w.pair.act, pi.identity(), []
    w.pair.act = lambda k, label: calls.append(k) or act(k, label)
    cert = check_almost_invariance(w)
    assert cert.passed
    assert sum(k == one for k in calls) == 4 and len(calls) == 1_906
    assert list(cert.details["k_orbit_tables"]) == ["1"] and len(cert.details["k_orbit_tables"]["1"]) == 4


def test_a_set_that_k_moves_fails_k_invariance():
    # C2*C3 over K = G_w, which is not normal: each k != 1 moves a coset of
    # sphere 1 to another, so B = {that coset} fails kB = B for both
    pi = c2c3()
    K = Subgroup(pi, pi.vertex_subgroup_elements("w"))
    pair = GeneratingPair(pi, K, [pi.vertex_inclusion("u", 1)])
    t = build(pair, 4)
    v = t.sphere_labels(1)[0]
    w = AIWitness(pair, lambda rep: int(rep == v), [() for _ in pair.S], t)
    failures = check_almost_invariance(w).details["failures"]
    assert [f["k"] for f in failures if f["kind"] == "k_invariance"] == [str(k) for k in K.elements[1:]]


def test_single_coset_set_is_almost_invariant_but_improper():
    pi = z_hnn()
    K = trivial_subgroup(pi)
    t_letter = pi.edge_letter(0)
    pair = GeneratingPair(pi, K, [t_letter])
    base = coset_canonical(pi, K, pi.identity())

    def chi(rep):
        return 1 if rep == base else 0

    certs = [(base, coset_canonical(pi, K, s)) for s in pair.S]
    w = AIWitness(pair, chi, certs, build(pair, 8))
    assert check_almost_invariance(w).passed
    with pytest.raises(ValueError, match="improper"):
        dh1_nonvanishing_certificate(w)


def test_parity_set_is_not_almost_invariant(catalog):
    pair = catalog["f2_rw"].pairs()[0]

    def chi(word):
        return len(word) % 2

    w = AIWitness(pair, chi, [() for _ in pair.S], build(pair, 6))
    cert = check_almost_invariance(w)
    assert not cert.passed
    kinds = {f["kind"] for f in cert.details["failures"]}
    assert "difference_escapes_certificate" in kinds


def test_cofinite_set_is_improper(witnesses):
    pi, w0, t = witnesses["z_hnn"]
    w = AIWitness(w0.pair, lambda rep: 1, [() for _ in w0.pair.S], t)
    assert check_almost_invariance(w).passed
    with pytest.raises(ValueError, match="improper"):
        dh1_nonvanishing_certificate(w)


# -- nonvanishing certificates --------------------------------------------------------

def test_dh1_certified_for_catalog_witnesses(witnesses):
    for name in witnesses:
        _, w, t = witnesses[name]
        cert = dh1_nonvanishing_certificate(w)
        assert cert.passed
        assert all(row["in_B"] > 0 and row["out_B"] > 0 for row in cert.details["occupancy"])


# -- cuts from witnesses ----------------------------------------------------------------

def test_cut_from_z_hnn_witness(witnesses):
    _, w, t = witnesses["z_hnn"]
    cut = cut_from_witness(w)
    assert len(cut.coboundary) == 2  # one geometric edge
    assert cut.bound_ok
    assert cut.escaping_components >= 2


def test_cut_bound_via_certificates(witnesses):
    for name in witnesses:
        _, w, t = witnesses[name]
        cut = cut_from_witness(w)
        assert len(cut.coboundary) <= sum(len(c) for c in w.certificates)
        inside = set(cut.vertices)
        for e in cut.coboundary:
            assert (t.graph.origin(e) in inside) != (t.graph.terminus(e) in inside)


def test_splitting_cut_indicator_is_chi_at_the_inverse_coset(witnesses):
    # a half-tree witness reads the cut off each label, with no inverse; the
    # edge group fixes the lifted edge, so that is chi at the inverse coset,
    # which a witness with no in_cut reads, K of order 2 on C4*C4/C2 included
    assert {len(w.pair.K) for _, w, _ in witnesses.values()} == {1, 2}
    for name, (pi, w, t) in witnesses.items():
        K = w.pair.K
        want = [w.chi(coset_canonical(pi, K, pi.inverse(v))) for v in t.vertices]
        assert [w.in_cut(v) for v in t.vertices] == want and set(want) == {0, 1}, name
        generic = AIWitness(w.pair, w.chi, w.certificates, t)
        assert generic.in_cut is None
        assert cut_from_witness(generic) == cut_from_witness(w), name


def test_round_trip_witness_to_two_escaping_components(witnesses):
    for name in witnesses:
        _, w, t = witnesses[name]
        assert cut_from_witness(w).escaping_components >= 2, name


def test_empty_witness_gives_empty_cut(witnesses):
    _, w0, t = witnesses["z_hnn"]
    w = AIWitness(w0.pair, lambda rep: 0, [() for _ in w0.pair.S], t)
    cut = cut_from_witness(w)
    assert cut.vertices == () and cut.coboundary == ()
    assert cut.escaping_components == 0


def test_cut_requires_matching_pair(witnesses):
    # a witness is refused a ball of any other pair, an equal one included
    _, w, _ = witnesses["z_hnn"]
    _, _, t_other = witnesses["dinf"]
    for t in (t_other, build(GeneratingPair(w.pair.backend, w.pair.K, w.pair.S), 8)):
        with pytest.raises(ValueError, match="another generating pair"):
            AIWitness(w.pair, w.chi, w.certificates, t)


def test_dh1_reads_the_occupancy_the_witness_recorded(witnesses):
    # the witness counts each sphere once, when it is built; dh1 walks no sphere again
    for name, (_, w, t) in witnesses.items():
        chi, calls = w.chi, []
        w.chi = lambda rep: calls.append(rep) or chi(rep)
        try:
            cert = dh1_nonvanishing_certificate(w)
        finally:
            w.chi = chi
        assert calls == [], name
        want = [sum(map(chi, t.sphere_labels(r))) for r in range(1, t.radius + 1)]
        assert [row["in_B"] for row in cert.details["occupancy"]] == want, name
        assert [row["in_B"] + row["out_B"] for row in w.occupancy] == [
            t.starts[r + 1] - t.starts[r] for r in range(1, t.radius + 1)
        ], name
