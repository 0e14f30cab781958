import itertools
import json

import pytest

from endlab import ai_cohomology, cli
from endlab.bass_serre import PiOne
from endlab.cayley_abels import ball_enumerate
from endlab.theorem_lab import (
    CatalogEntry,
    Scales,
    catalog_from_json,
    catalog_to_json,
    make_oracle,
    run_catalog,
    run_witness_chain,
    verify_equivalence,
    verify_resolution_evidence,
)

FAST = Scales(radius=8)


def test_default_catalog_is_consistent(catalog):
    report = run_catalog(list(catalog.values()), FAST)
    assert report.all_consistent
    assert not report.budget_hit
    assert report.exit_code() == 0
    assert len(report.results) == len(catalog)


def test_negative_control_flags_wrong_expectation(catalog):
    doctored = CatalogEntry.from_json(catalog["c6_rw"].to_json())
    doctored.expected_ends = "2"
    report = run_catalog([doctored], FAST)
    assert not report.all_consistent
    assert report.exit_code() == 1
    problems = report.results[0]["equivalence"]["details"]["problems"]
    assert any("expected" in p for p in problems)


def test_empty_catalog_reports_clean():
    report = run_catalog([], FAST)
    assert report.results == []
    assert report.exit_code() == 0


def test_budget_exhaustion_is_reported_not_fatal(catalog):
    entry = catalog["f2_rw"]
    report = run_catalog([entry], Scales(radius=9, cap=500))
    assert report.budget_hit
    assert report.exit_code() == 2
    assert "budget_exceeded" in report.results[0]


def test_catalog_json_round_trip(catalog):
    data = catalog_to_json(list(catalog.values()))
    back = catalog_from_json(json.loads(json.dumps(data)))
    assert [e.to_json() for e in back] == data["entries"]


def test_verdicts_include_provenance(catalog):
    verdict = verify_equivalence(catalog["z_rw"], FAST)
    assert verdict.consistent
    assert verdict.details["provenance"]


def test_compact_entries_are_all_negative(catalog):
    for name in ("c5_gog", "c6_rw"):
        v = verify_equivalence(catalog[name], FAST)
        assert v.consistent
        assert all(e["coarse"] == "0" for e in v.ends)
        assert v.witness is None
        assert v.splitting in (None, "no_edge")


def test_splitting_entries_run_the_full_chain(catalog):
    for name in ("dinfty_gog", "z_hnn", "c2_c3_gog", "c4_c2_c4_gog"):
        v = verify_equivalence(catalog[name], FAST)
        assert v.consistent
        assert v.witness and v.witness["passed"]
        assert v.witness["cut_escaping_components"] >= 2
        assert all(e["coarse"] in ("2", ">=3") for e in v.ends)


def test_theorem_b_requires_gog(catalog):
    with pytest.raises(ValueError, match="graph-of-groups"):
        verify_resolution_evidence(catalog["z_rw"], FAST)


def test_resolution_evidence_all_gog_entries(catalog):
    for entry in catalog.values():
        if not isinstance(entry.backend(), PiOne):
            continue
        cert = verify_resolution_evidence(entry, FAST)
        assert cert.passed
        assert cert.details["radii"] == [1, 2, 3, 4]
        assert cert.details["stabilizers_finite"]


# -- oracle self-checks: normal-form equality == oracle equality on ball(4) -----

@pytest.mark.parametrize(
    "name", ["z_rw", "z2_rw", "f2_rw", "dinfty_rw", "z_hnn", "dinfty_gog", "c2_c3_gog", "c4_c2_c4_gog"]
)
def test_oracle_separates_exactly_like_normal_forms(catalog, name):
    entry = catalog[name]
    oracle = make_oracle(entry)
    assert oracle is not None
    backend = entry.backend()
    pair = entry.pairs()[0]
    elements = ball_enumerate(backend, list(pair.S), 3 if name == "f2_rw" else 4)
    for g, h in itertools.product(elements, repeat=2):
        assert (g == h) == (oracle.value(g) == oracle.value(h)), (name, g, h)


# -- CLI -------------------------------------------------------------------------

def write_spec(tmp_path, entry, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entry.spec))
    return str(path)


def test_cli_ends(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["z_rw"])
    assert cli.main(["ends", path, "--R", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "ExactlyTwoAtScale"


def test_cli_ends_second_pair(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["dinfty_gog"])
    assert cli.main(["ends", path, "--pair", "1", "--R", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ExactlyTwoAtScale"


def test_cli_cut(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["z_rw"])
    assert cli.main(["cut", path, "--R", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cut"]["escaping"] is True


def test_cli_witness(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["c4_c2_c4_gog"])
    assert cli.main(["witness", path, "--edge", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["almost_invariance"]["passed"]
    assert out["dh1"]["passed"]
    assert out["cut"]["escaping_components"] >= 2


def test_cli_tree_writes_dot(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["c2_c3_gog"])
    dot = tmp_path / "tree.dot"
    assert cli.main(["tree", path, "--radius", "3", "--dot", str(dot)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_tree"]
    assert dot.read_text().startswith("digraph")


def test_cli_homology(tmp_path, capsys):
    from endlab.serre_graphs import SerreGraph

    g = SerreGraph.from_geometric(range(3), [(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(g.to_json()))
    assert cli.main(["homology", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cycle_space_dim"] == 1
    assert out["component_space_dim"] == 1
    assert not out["is_tree"]


def test_cli_verify_default(capsys):
    assert cli.main(["verify", "--default", "--R", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_consistent"]


def test_cli_verify_negative_control(tmp_path, capsys, catalog):
    doctored = CatalogEntry.from_json(catalog["c5_gog"].to_json())
    doctored.expected_splitting = "nontrivial_s1"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog_to_json([doctored])))
    assert cli.main(["verify", str(path), "--R", "8"]) == 1


def test_cli_budget_exit_code(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["f2_rw"])
    assert cli.main(["ends", path, "--R", "9", "--cap", "200"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "budget_exceeded"


def test_cli_witness_on_trivial_splitting_reports_cleanly(tmp_path, capsys):
    spec = {
        "backend": {
            "type": "graph_of_finite_groups",
            "name": "trivial_split",
            "vertices": [
                {"id": "u", "group": {"kind": "cyclic", "n": 2}},
                {"id": "w", "group": {"kind": "cyclic", "n": 4}},
            ],
            "edges": [
                {"id": 0, "inv": 1, "o": "u", "t": "w",
                 "edge_group": {"kind": "cyclic", "n": 2}, "embedding": [0, 2]},
                {"id": 1, "inv": 0, "o": "w", "t": "u",
                 "edge_group": {"kind": "cyclic", "n": 2}, "embedding": [0, 1]},
            ],
        },
        "pairs": [{"K": {"edge": 0}, "S": [[{"v": "w", "g": 1}]]}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["witness", str(path), "--edge", "0"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "invalid_input"


def test_cli_missing_file_reports_cleanly(capsys):
    assert cli.main(["ends", "no_such_file.json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("pairs, field", [
    ([{"K": "trivial", "S": 5}], "pairs[0].S must be a list"),
    ([{"K": "trivial", "S": ["a"]}, {"K": "trivial", "S": ["a", 7]}],
     "pairs[1].S[1] must be a word string"),
    ([{"K": "trivial", "S": [["a"]]}], "pairs[0].S[0] must be a word string"),
    (5, "pairs must be a list, got int"),
    ([5], "pairs[0] must be an object, got int"),
])
def test_cli_malformed_word_spec_reports_cleanly(tmp_path, capsys, catalog, pairs, field):
    spec = {"backend": catalog["z_rw"].spec["backend"], "pairs": pairs}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ends", str(path), "--R", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "invalid_input"
    assert out["message"].startswith(field)


def test_cli_malformed_atom_list_reports_cleanly(tmp_path, capsys, catalog):
    # a graph-of-groups element is a list of atoms, not a word
    spec = {"backend": catalog["c2_c3_gog"].spec["backend"], "pairs": [{"K": "trivial", "S": ["ab"]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["cut", str(path), "--R", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "invalid_input", "message": "pairs[0].S[0] must be a list of atoms, got str"}


@pytest.mark.parametrize("field, value, message", [
    ("generators", 5, "generators must be a list, got int"),
    ("inverses", 5, "inverses must be an object, got int"),
    ("generators", ["a", 5], "generators[1] must be a string, got int"),
    ("inverses", {"a": ["A"]}, "inverses['a'] must be a string, got list"),
])
def test_cli_malformed_rewriting_backend_reports_cleanly(tmp_path, capsys, catalog, field, value, message):
    spec = json.loads(json.dumps(catalog["z_rw"].spec))
    spec["backend"][field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ends", str(path), "--R", "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("field, value, message", [
    (("backend", "vertices", 0, "group", "n"), "3", "vertices[0].group.n must be a positive integer, got '3'"),
    (("backend", "vertices", 1, "group", "n"), 2.5, "vertices[1].group.n must be a positive integer, got 2.5"),
    (("pairs", 0, "S", 0, 0, "g"), 7, "pairs[0].S[0][0].g must index an element of the group at 'u', got 7"),
    (("pairs", 0, "S", 0, 0, "v"), "x", "pairs[0].S[0][0].v names no vertex, got 'x'"),
    (("backend", "edges"), 5, "edges must be a list, got int"),
    (("backend", "edges", 0, "embedding"), 5, "edges[0].embedding must be a list, got int"),
    (("backend",), [], "backend must be an object, got list"),
    (("backend", "vertices", 0), 5, "vertices[0] must be an object, got int"),
    (("backend", "edges", 0), 5, "edges[0] must be an object, got int"),
    (("backend", "vertices", 0, "group"), {"kind": "table", "elements": 5, "table": [[0]]},
     "vertices[0].group.elements must be a list, got int"),
    (("backend", "vertices", 0, "group"), {"kind": "table", "elements": [0], "table": 3},
     "vertices[0].group.table must be a list, got int"),
    (("backend", "vertices", 0, "group"), {"kind": "table", "elements": [0], "table": [0]},
     "vertices[0].group.table[0] must be a list of integers, got 0"),
    # a rewriting backend in place of the graph of groups
    (("backend",), {"type": "rewriting_group", "generators": ["a"], "inverses": {"a": "A"}, "rules": 5},
     "rules must be a list, got int"),
    (("backend",), {"type": "rewriting_group", "generators": ["a"], "inverses": {"a": "A"}, "rules": [[1, 2]]},
     "rules[0] must be a pair of word strings, got [1, 2]"),
    (("backend", "vertices", 0, "id"), ["u"], "vertices[0].id must be a string or an integer, got list"),
    (("backend", "edges", 1, "id"), "a", "edges[1].id must be an integer, got str"),
    (("backend", "edges", 0, "o"), ["u"], "edges[0].o must be a string or an integer, got list"),
    (("backend", "edges", 0, "embedding"), ["x"], "edges[0].embedding[0] must be an integer, got str"),
    (("backend", "edges", 0, "embedding"), [7],
     "edge 0: embedding entry 7 is not an element of the group at 'w'"),
    (("backend", "edges", 1, "id"), 0, "edges[1].id repeats edge id 0"),
])
def test_cli_malformed_gog_spec_reports_cleanly(tmp_path, capsys, catalog, field, value, message):
    spec = json.loads(json.dumps(catalog["c2_c3_gog"].spec))
    node = spec
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["cut", str(path), "--R", "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("graph, message", [
    ([5], "graph must be an object, got list"),
    ({"vertices": [0], "edges": [5]}, "edges[0] must be an object, got int"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": "a", "o": 0, "t": 1},
                                    {"id": "a", "inv": 0, "o": 1, "t": 0}]},
     "edges[0].inv must be an integer, got str"),
    ({"vertices": [0, [1]], "edges": []}, "vertices[1] must be a string or an integer, got list"),
    ({"vertices": [0], "edges": [{"id": 0, "inv": 1, "o": [0], "t": 0},
                                 {"id": 1, "inv": 0, "o": 0, "t": 0}]},
     "edges[0].o must be a string or an integer, got list"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": 1},
                                    {"id": 1, "inv": 0, "o": 1, "t": 0},
                                    {"id": 0, "inv": 1, "o": 0, "t": 1}]},
     "edges[2].id repeats edge id 0"),
])
def test_cli_malformed_homology_graph_reports_cleanly(tmp_path, capsys, graph, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert cli.main(["homology", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("field, value, message", [
    ((), [], "catalog must be an object, got list"),
    (("entries",), 5, "entries must be a list, got int"),
    (("entries", 0), [], "entries[0] must be an object, got list"),
    (("entries", 0, "spec"), 5, "entries[0].spec must be an object, got int"),
    (("entries", 0, "spec", "pairs"), 5, "entries[0].spec.pairs must be a list, got int"),
    (("entries", 0, "scales"), 5, "entries[0].scales must be an object, got int"),
    (("entries", 0, "scales", "r_max"), "x", "entries[0].scales.r_max must be an integer, got 'x'"),
    (("entries", 0, "scales", "r_max"), -1, "r_max must be non-negative, got -1"),
    (("entries", 0, "name"), 5, "entries[0].name must be a string, got int"),
    (("entries", 0, "spec", "pairs"), [], "entries[0].spec.pairs must not be empty"),
])
def test_cli_malformed_catalog_reports_cleanly(tmp_path, capsys, catalog, field, value, message):
    doc = json.loads(json.dumps(catalog_to_json([catalog["c5_gog"]])))
    if field:
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
    else:
        doc = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


@pytest.mark.parametrize("entry, K, message", [
    ("z_rw", {"vertex": "u"}, "pairs[1].K.vertex needs a graph-of-groups backend"),
    ("z_rw", {"edge": 0}, "pairs[1].K.edge needs a graph-of-groups backend"),
    ("c2_c3_gog", {"vertex": []}, "pairs[1].K.vertex names no base vertex, got []"),
    ("c2_c3_gog", {"edge": [0]}, "pairs[1].K.edge names no base edge, got [0]"),
    ("c2_c3_gog", {"vertex": "zz"}, "pairs[1].K.vertex names no base vertex, got 'zz'"),
    ("c2_c3_gog", {"edge": 7}, "pairs[1].K.edge names no base edge, got 7"),
    ("c2_c3_gog", 5, 'pairs[1].K must be "trivial", {"vertex": id} or {"edge": id}, got 5'),
])
def test_cli_malformed_subgroup_spec_reports_cleanly(tmp_path, capsys, catalog, entry, K, message):
    spec = json.loads(json.dumps(catalog[entry].spec))
    spec["pairs"][1]["K"] = K
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["ends", str(path), "--rmax", "0", "--R", "5"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


Z_SPEC = {"backend": {"type": "rewriting_group", "generators": ["a"], "inverses": {"a": "A"}},
          "pairs": [{"K": "trivial", "S": ["a"]}]}


def cli_cut_on_z(tmp_path, capsys, radius):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(Z_SPEC))
    assert cli.main(["cut", str(path), "--R", str(radius)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "internal_inconsistency"
    return out["message"]


@pytest.mark.parametrize("radius, x, wrong", [
    # the row of the interior coset a: its half-edge a -> AA has no partner
    (3, "aa", "AA"),
    # the row of the outer coset aa: its half-edge aa -> AA has no partner
    (2, "aaa", "AA"),
])
def test_cli_corrupted_row_reports_internal_inconsistency(tmp_path, capsys, monkeypatch, radius, x, wrong):
    from endlab.group_backends import RewritingGroup

    multiply = RewritingGroup.multiply

    def corrupted(self, a, b):
        # the one product whose word a + b is x comes out wrong
        return wrong if a + b == x else multiply(self, a, b)

    monkeypatch.setattr(RewritingGroup, "multiply", corrupted)
    message = cli_cut_on_z(tmp_path, capsys, radius)
    assert message.startswith("unbalanced edge multiplicities")


def test_cli_partial_star_reports_internal_inconsistency(tmp_path, capsys, monkeypatch):
    # balanced rows always give full interior stars, so drop an edge while
    # the graph is assembled: the base coset loses its edge to a
    from endlab import cayley_abels
    from endlab.serre_graphs import SerreGraph

    def lossy(vertices, origin, inverse, check=True):
        origin = {e: v for e, v in origin.items() if e > 1}
        inverse = {e: f for e, f in inverse.items() if e > 1}
        return SerreGraph(vertices, origin, inverse, check=check)

    monkeypatch.setattr(cayley_abels, "SerreGraph", lossy)
    assert cli_cut_on_z(tmp_path, capsys, 3) == "interior vertex '' has a partial star"


@pytest.mark.parametrize("entry, args, message", [
    ("f2_rw", ["ends", "--rmax", "-1", "--R", "6"], "r_max must be non-negative, got -1"),
    ("f2_rw", ["ends", "--rmax", "-3", "--R", "2"], "r_max must be non-negative, got -3"),
    ("c2_c3_gog", ["tree", "--radius", "-2"], "radius must be non-negative, got -2"),
])
def test_cli_negative_radii_report_cleanly(tmp_path, capsys, catalog, entry, args, message):
    path = write_spec(tmp_path, catalog[entry])
    assert cli.main([args[0], path, *args[1:]]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


# -- the one witness chain against the two copies it replaced ----------------------

def reference_cmd_witness(backend, edge, probe, cap=200_000):
    """The original `endlab witness` body after loading the spec: (stdout, exit code)."""
    w = ai_cohomology.witness_from_splitting(backend, edge, probe_radius=probe, cap=cap)
    t = w.truncation
    inv = ai_cohomology.check_almost_invariance(w, t)
    cut = ai_cohomology.cut_from_witness(w, t)
    out = {
        "witness": {"kind": w.kind, "pair": w.pair.name, "details": {
            k: v for k, v in w.details.items() if k != "properness"}},
        "almost_invariance": inv.to_json(),
        "cut": cut.to_json(),
    }
    try:
        out["dh1"] = ai_cohomology.dh1_nonvanishing_certificate(w, t).to_json()
    except ValueError as exc:
        out["dh1"] = {"passed": False, "error": str(exc)}
    text = json.dumps(out, indent=2, default=str) + "\n"
    return text, 0 if inv.passed and out["dh1"].get("passed") else 1


def reference_run_witness_chain(backend, marked_edge, scales):
    """The original harness copy of the chain: the catalog summary row."""
    w = ai_cohomology.witness_from_splitting(
        backend, marked_edge, probe_radius=scales.probe_radius, cap=scales.cap
    )
    t = w.truncation
    inv_cert = ai_cohomology.check_almost_invariance(w, t)
    dh1 = ai_cohomology.dh1_nonvanishing_certificate(w, t)
    cut = ai_cohomology.cut_from_witness(w, t)
    ok = inv_cert.passed and dh1.passed and cut.bound_ok and cut.escaping_components >= 2
    return {
        "passed": ok,
        "almost_invariance": inv_cert.passed,
        "dh1_nonvanishing": dh1.passed,
        "cut_escaping_components": cut.escaping_components,
        "coboundary_bound_ok": cut.bound_ok,
        "pair": w.pair.name,
    }


@pytest.mark.parametrize("probe", [3, 8])
def test_witness_chain_matches_reference(tmp_path, capsys, catalog, probe):
    marked = [e for e in catalog.values() if e.marked_edge is not None]
    assert len(marked) == 4
    for entry in marked:
        backend, edge = entry.backend(), entry.marked_edge
        path = write_spec(tmp_path, entry)
        code = cli.main(["witness", path, "--edge", str(edge), "--probe", str(probe)])
        assert (capsys.readouterr().out, code) == reference_cmd_witness(backend, edge, probe), entry.name
        scales = Scales(radius=8, probe_radius=probe)
        row = verify_equivalence(entry, scales).witness
        assert json.dumps(row) == json.dumps(reference_run_witness_chain(backend, edge, scales)), entry.name


def test_improper_witness_is_a_failed_verdict_not_an_error(catalog, monkeypatch):
    def improper(w, t):
        raise ValueError("improper witness: one side dies at probe scale")

    monkeypatch.setattr(ai_cohomology, "dh1_nonvanishing_certificate", improper)
    entry = catalog["z_hnn"]
    report, passed = run_witness_chain(entry.backend(), 0, 3, 200_000)
    assert not passed
    assert report["dh1"] == {"passed": False, "error": "improper witness: one side dies at probe scale"}
    verdict = verify_equivalence(entry, Scales(radius=8, probe_radius=3))
    assert verdict.witness["dh1_nonvanishing"] is False and not verdict.consistent


def test_cli_witness_fails_when_fewer_than_two_components_escape(tmp_path, capsys, catalog, monkeypatch):
    cut_from_witness = ai_cohomology.cut_from_witness

    def one_escaping(w, t):
        cut = cut_from_witness(w, t)
        cut.escaping_components = 1
        return cut

    monkeypatch.setattr(ai_cohomology, "cut_from_witness", one_escaping)
    path = write_spec(tmp_path, catalog["z_hnn"])
    assert cli.main(["witness", path, "--edge", "0", "--probe", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["cut"]["escaping_components"] == 1
