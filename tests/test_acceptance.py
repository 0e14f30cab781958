"""Acceptance criteria, one test per criterion.

Every check here is exact (rational arithmetic, structural equality); the
only tolerances are the stated runtime budgets.  Each test prints a
PASS/FAIL line so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import itertools
import json
import random
import time

import pytest

from endlab import cli
from endlab.ai_cohomology import (
    check_almost_invariance,
    cut_from_witness,
    dh1_nonvanishing_certificate,
    witness_from_splitting,
)
from endlab.bass_serre import PiOne
from endlab.ends_cuts import classify_ends
from endlab.theorem_lab import (
    Scales,
    verify_resolution_evidence,
)

from helpers import ball_enumerate, entries_of, is_tree, oracle_for, random_graph
from test_qlinalg import delta_matrix, rank_kernel_cokernel
from test_serre_graphs import bfs_blocks


def report(name, ok, extra=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {extra}")
    assert ok, name


def test_criterion_1_dimension_counts_on_random_graphs():
    """ker = E - V + c and coker = c on 1000 random graphs, exactly."""
    t0 = time.time()
    rng = random.Random(123456)
    for i in range(1000):
        g = random_graph(rng, max_vertices=40)
        c = len(bfs_blocks(g))
        rank, ker, coker = rank_kernel_cokernel(delta_matrix(g))
        assert ker == len(g.geometric_edges()) - len(g.vertices) + c, i
        assert coker == c, i
        assert is_tree(g) == (ker == 0 and coker == 1), i
    elapsed = time.time() - t0
    report("criterion 1: dimension counts, 1000 random graphs", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_2_catalog_ends(catalog):
    """Ends classes of the named groups at r_max = 3, R = 12."""
    t0 = time.time()
    checks = {
        "z_rw": "ExactlyTwoAtScale",
        "dinfty_rw": "ExactlyTwoAtScale",
        "dinfty_gog": "ExactlyTwoAtScale",
        "c6_rw": "ZeroEnds",
        "c5_gog": "ZeroEnds",
        "z2_rw": "AtMostOneAtScale",
    }
    for name, want in checks.items():
        for pair in catalog[name].pairs():
            est = classify_ends(pair, r_max=3, radius=12)
            assert est.verdict == want, (name, est.verdict)
    for pair in catalog["c2_c3_gog"].pairs():
        est = classify_ends(pair, r_max=3, radius=8)
        assert est.verdict == "AtLeast" and est.count >= 3
    elapsed = time.time() - t0
    report("criterion 2: catalog ends classes", elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_3_witness_chain_on_splitting_entries(catalog):
    """Exact witness chain for the four splitting entries."""
    t0 = time.time()
    for name in ("dinfty_gog", "z_hnn", "c2_c3_gog", "c4_c2_c4_gog"):
        entry = catalog[name]
        pi = entry.backend()
        w = witness_from_splitting(pi, entry.marked_edge, probe_radius=8)
        t = w.truncation
        inv = check_almost_invariance(w)
        assert inv.passed, (name, inv.details["failures"])
        for k in w.pair.K.elements:
            k_inv = pi.inverse(k)
            assert all(w.chi(w.pair.act(k_inv, v)) == w.chi(v) for v in t.vertices), name
        dh1 = dh1_nonvanishing_certificate(w)
        assert dh1.passed, name
        cut = cut_from_witness(w)
        assert cut.bound_ok and cut.escaping_components >= 2, name
    elapsed = time.time() - t0
    report("criterion 3: witness chain on splitting entries", elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_4_normal_form_oracles(catalog):
    """Multiplication against faithful oracles on all ball(4) pairs; each
    oracle separates the ball's elements exactly as the normal forms do."""
    t0 = time.time()
    mismatches = 0

    def unseparated(oracle, ball):
        # value is a function of the normal form, so separating exactly like
        # the normal forms is being injective on the ball's distinct elements
        return len(ball) - len({oracle.value(g) for g in ball})

    # fundamental-group arithmetic against the integer oracle
    z = catalog["z_hnn"]
    oz, zpi = oracle_for(z), z.backend()
    ball = ball_enumerate(zpi, list(z.pairs()[0].S), 4)
    mismatches += unseparated(oz, ball)
    for g, h in itertools.product(ball, repeat=2):
        if oz.value(zpi.multiply(g, h)) != oz.value(g) + oz.value(h):
            mismatches += 1

    # fundamental-group arithmetic against the affine oracle
    d = catalog["dinfty_gog"]
    od, dpi = oracle_for(d), d.backend()
    ball = ball_enumerate(dpi, list(d.pairs()[0].S), 4)
    mismatches += unseparated(od, ball)
    for g, h in itertools.product(ball, repeat=2):
        pg, qg = od.value(g)
        ph, qh = od.value(h)
        if od.value(dpi.multiply(g, h)) != (pg * ph, pg * qh + qg):
            mismatches += 1

    # rewriting normal forms against brute-force equality
    for name in ("z2_rw", "f2_rw"):
        entry = catalog[name]
        backend = entry.backend()
        ball = ball_enumerate(backend, list(entry.pairs()[0].S), 4)
        mismatches += unseparated(oracle_for(entry), ball)
        for g, h in itertools.product(ball, repeat=2):
            if backend.multiply(g, h) != backend.normal_form(g + h):
                mismatches += 1
    elapsed = time.time() - t0
    report("criterion 4: normal-form oracles, ball(4)", mismatches == 0, f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_5_truncated_tree_resolutions(catalog):
    """Edge -> vertex -> scalars exact at radii 1..4 for every gog entry."""
    ok = True
    for entry in catalog.values():
        if not isinstance(entry.backend(), PiOne):
            continue
        cert = verify_resolution_evidence(entry, Scales())
        ok = ok and cert.passed and cert.details["radii"] == [1, 2, 3, 4]
    report("criterion 5: truncated tree resolutions exact", ok)


def test_criterion_6_generating_pair_invariance(catalog):
    """Identical ends verdicts for both pairs of the two-pair entries."""
    ok = True
    for name in ("dinfty_gog", "c2_c3_gog"):
        entry = catalog[name]
        pairs = entry.pairs()
        assert len(pairs) == 2
        radius = entry.scales.get("radius", 12)
        verdicts = {classify_ends(p, r_max=3, radius=radius).coarse_class() for p in pairs}
        ok = ok and len(verdicts) == 1
    report("criterion 6: generating-pair invariance", ok)


def test_criterion_8_negative_control(tmp_path, capsys, catalog_doc):
    """A deliberately false expectation must exit with code 1."""
    doc = entries_of(catalog_doc, "c6_rw")
    doc["entries"][0]["expected_ends"] = "2"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--R", "8"])
    capsys.readouterr()
    report("criterion 8: negative control exits 1", code == 1, f"exit {code}")
