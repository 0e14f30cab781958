import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import endlab
from endlab import ai_cohomology, cli
from endlab.bass_serre import PiOne
from endlab.group_backends import DEFAULT_CAP, FiniteGroup
from endlab.theorem_lab import (
    CatalogEntry,
    Scales,
    catalog_from_json,
    run_catalog,
    run_witness_chain,
    verify_equivalence,
    verify_resolution_evidence,
)

from helpers import ball_enumerate, catalog_document, entries_of, oracle_for

FAST = Scales(radius=8)
Z_HNN_ENTRY = entries_of(catalog_document(), "z_hnn")["entries"][0]

# a malformed-spec value that deletes its field instead of setting it
MISSING = object()


def set_field(node, key, value):
    if value is MISSING:
        del node[key]
    else:
        node[key] = value


def test_default_catalog_is_consistent(catalog):
    report = run_catalog(list(catalog.values()), FAST)
    assert report.all_consistent
    assert not report.budget_hit
    assert report.exit_code() == 0
    assert len(report.results) == len(catalog)


def test_negative_control_flags_wrong_expectation(catalog_doc):
    doctored = entries_of(catalog_doc, "c6_rw")["entries"][0]
    doctored["expected_ends"] = "2"
    report = run_catalog([CatalogEntry.from_json(doctored)], FAST)
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


def test_catalog_json_round_trip(catalog, catalog_doc):
    # each entry holds the fields its document gives it, and its provenance
    # keeps their order, which the report prints as read
    back = [dataclasses.asdict(e) for e in catalog_from_json(json.loads(json.dumps(catalog_doc)))]
    assert back == [dataclasses.asdict(e) for e in catalog.values()]
    for raw, entry in zip(catalog_doc["entries"], back, strict=True):
        assert {key: entry[key] for key in raw} == raw
        assert list(entry["provenance"]) == list(raw["provenance"])


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


# -- oracle self-checks: distinct normal forms have distinct oracle values -----

@pytest.mark.parametrize(
    "name", ["z_rw", "z2_rw", "f2_rw", "dinfty_rw", "z_hnn", "dinfty_gog", "c2_c3_gog", "c4_c2_c4_gog"]
)
def test_oracle_separates_exactly_like_normal_forms(catalog, name):
    entry = catalog[name]
    oracle = oracle_for(entry)
    elements = ball_enumerate(entry.backend(), list(entry.pairs()[0].S), 3 if name == "f2_rw" else 4)
    # value is a function of the normal form, so separating exactly like the
    # normal forms is being injective on the ball's distinct elements
    assert len({oracle.value(g) for g in elements}) == len(elements), name


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
    text = dot.read_text()
    assert text.startswith("digraph")
    # one node line per vertex, one arrow per geometric edge
    lines = text.splitlines()[1:-1]
    arrows = [line for line in lines if " -> " in line]
    assert (len(lines) - len(arrows), len(arrows)) == (out["vertices"], out["geometric_edges"])
    assert out["vertices"] == out["geometric_edges"] + 1 == 1 + 2 + 4 + 4


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


def test_cli_verify_default_prints_the_bytes_the_benchmark_pins(capsys):
    # the benchmark's catalog workload checks the same output against this
    # record; the test only reads the file
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    want = json.loads(expected.read_text())["full"]["catalog"]["verify"]
    assert cli.main(["verify", "--default"]) == want["exit"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want["sha256"]


def test_cli_verify_of_the_packaged_file_prints_the_default_bytes(capsys):
    # verify --default reads catalog.json in the installed endlab directory,
    # so naming that file gives the same report, the one the benchmark pins
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    want = json.loads(expected.read_text())["full"]["catalog"]["verify"]
    assert cli.main(["verify", str(Path(endlab.__file__).with_name("catalog.json"))]) == want["exit"]
    by_file = capsys.readouterr().out
    assert cli.main(["verify", "--default"]) == want["exit"]
    assert capsys.readouterr().out == by_file
    assert hashlib.sha256(by_file.encode()).hexdigest() == want["sha256"]


def test_cli_verify_rejects_a_catalog_file_with_default(tmp_path, capsys, catalog_doc):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries_of(catalog_doc, "c5_gog")))
    assert cli.main(["verify", str(path), "--default"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "error": "invalid_input",
        "message": f"verify takes a catalog file or --default, not both: got {path} and --default",
    }


def test_cli_verify_negative_control(tmp_path, capsys, catalog_doc):
    doc = entries_of(catalog_doc, "c5_gog")
    doc["entries"][0]["expected_splitting"] = "nontrivial_s1"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path), "--R", "8"]) == 1


def test_cli_verify_ignores_an_old_oracle_key(tmp_path, capsys, catalog_doc):
    doc = entries_of(catalog_doc, "z_rw")
    outputs = []
    for extra in ({}, {"oracle": "integer_word"}):
        doc["entries"][0].update(extra)
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(path), "--R", "8"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_closed_stdout_exits_quietly(tmp_path):
    # the cut's JSON is far larger than a pipe buffer, so endlab is still
    # writing when the reader closes the pipe
    spec = {"backend": {"type": "rewriting_group", "generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}},
            "pairs": [{"K": "trivial", "S": ["a", "b"]}]}
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(spec))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "endlab.cli", "cut", str(path), "--R", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


@pytest.mark.parametrize("unbuffered, command", [
    # an error record, each write of which reaches the pipe at once
    (True, ["ends", "missing.json"]),
    # a result small enough to wait in the buffer for the flush at exit
    (False, ["homology", "graph.json"]),
])
def test_cli_output_to_a_reader_closed_before_it_exits_quietly(tmp_path, unbuffered, command):
    (tmp_path / "graph.json").write_text(json.dumps({"vertices": ["a"], "edges": []}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "endlab.cli", *command],
            stdout=write, stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


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


def test_cli_witness_on_missing_edge_reports_cleanly(tmp_path, capsys, catalog):
    path = write_spec(tmp_path, catalog["c2_c3_gog"])
    assert cli.main(["witness", path, "--edge", "7"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "invalid_input", "message": "edge 7 is not an edge of the base graph"}


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
    ("generators", [], "generators must not be empty"),
    ("generators", MISSING, "generators is missing"),
    ("inverses", MISSING, "inverses is missing"),
])
def test_cli_malformed_rewriting_backend_reports_cleanly(tmp_path, capsys, catalog, field, value, message):
    spec = json.loads(json.dumps(catalog["z_rw"].spec))
    set_field(spec["backend"], field, value)
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
    # a boolean or a float equal to an edge id names no edge
    (("pairs", 0, "S", 0, 0), {"e": True}, "pairs[0].S[0][0].e names no edge, got True"),
    (("pairs", 0, "S", 0, 0), {"e": 1.0}, "pairs[0].S[0][0].e names no edge, got 1.0"),
    # a repeated vertex id would otherwise keep the last group listed for it
    (("backend", "vertices"), [{"id": "u", "group": {"kind": "cyclic", "n": 2}},
                               {"id": "u", "group": {"kind": "cyclic", "n": 3}},
                               {"id": "w", "group": {"kind": "cyclic", "n": 3}}],
     "vertices[1].id repeats vertex id 'u'"),
    # edge 0 runs u -> w, as the origin of its inverse says
    (("backend", "edges", 0, "t"), "u", "edge 0: stated terminus disagrees with inverse edge"),
    # a missing required field is named, not reported as its bare key
    (("backend", "edges", 0, "t"), MISSING, "edges[0].t is missing"),
    (("backend", "edges", 0, "inv"), MISSING, "edges[0].inv is missing"),
    (("backend", "edges", 0, "o"), MISSING, "edges[0].o is missing"),
    (("backend", "edges", 1, "id"), MISSING, "edges[1].id is missing"),
    (("backend", "edges", 0, "edge_group"), MISSING, "edges[0].edge_group is missing"),
    (("backend", "edges", 0, "embedding"), MISSING, "edges[0].embedding is missing"),
    (("backend", "vertices", 1, "id"), MISSING, "vertices[1].id is missing"),
    (("backend", "vertices", 0, "group"), MISSING, "vertices[0].group is missing"),
    (("backend", "vertices", 0, "group", "kind"), MISSING, "vertices[0].group.kind is missing"),
    (("backend", "vertices", 1, "group", "n"), MISSING, "vertices[1].group.n is missing"),
    (("backend", "vertices", 0, "group"), {"kind": "table", "table": [[0]]}, "vertices[0].group.elements is missing"),
    (("backend", "vertices"), MISSING, "vertices is missing"),
    (("backend", "edges"), MISSING, "edges is missing"),
    (("backend",), MISSING, "backend is missing"),
    (("pairs",), MISSING, "pairs is missing"),
    (("pairs", 0, "K"), MISSING, "pairs[0].K is missing"),
    (("pairs", 1, "S"), MISSING, "pairs[1].S is missing"),
])
def test_cli_malformed_gog_spec_reports_cleanly(tmp_path, capsys, catalog, field, value, message):
    spec = json.loads(json.dumps(catalog["c2_c3_gog"].spec))
    node = spec
    for key in field[:-1]:
        node = node[key]
    set_field(node, field[-1], value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["cut", str(path), "--R", "4"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


def test_cli_boolean_vertex_id_names_no_vertex(tmp_path, capsys, catalog):
    # with integer vertex ids 0 and 1, true would otherwise read as vertex 1
    text = json.dumps(catalog["c2_c3_gog"].spec).replace('"u"', "0").replace('"w"', "1")
    spec = json.loads(text)
    spec["pairs"][0]["S"][0][0] = {"v": True, "g": 1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["cut", str(path), "--R", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "invalid_input", "message": "pairs[0].S[0][0].v names no vertex, got True"}


def test_cli_refuses_a_cyclic_group_too_large_to_tabulate(tmp_path, capsys, catalog, monkeypatch):
    # C_n is built as an n x n table: 10**12 entries here, refused before any is made
    cyclic = FiniteGroup.cyclic.__func__

    def small_cyclic(cls, n, name=None):
        # a regression fails here at once instead of filling the memory
        assert n * n <= DEFAULT_CAP, f"a {n}x{n} table was built"
        return cyclic(cls, n, name)

    monkeypatch.setattr(FiniteGroup, "cyclic", classmethod(small_cyclic))
    spec = json.loads(json.dumps(catalog["c2_c3_gog"].spec))
    spec["backend"]["vertices"][1]["group"]["n"] = 10**6
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main(["ends", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "budget_exceeded",
        "message": "vertices[1].group.n = 1000000 is past 447: its 1000000x1000000 table"
                   f" would exceed the cap of {DEFAULT_CAP} entries",
    }
    assert elapsed < 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize("n, code", [(447, 0), (448, 2)])
def test_cli_cyclic_bound_is_the_table_size(tmp_path, capsys, catalog, n, code):
    # 447**2 <= DEFAULT_CAP < 448**2
    spec = json.loads(json.dumps(catalog["c2_c3_gog"].spec))
    spec["backend"]["vertices"][1]["group"]["n"] = n
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["tree", str(path), "--radius", "1"]) == code
    out = json.loads(capsys.readouterr().out)
    assert out.get("error") == (None if code == 0 else "budget_exceeded")


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
    ({"vertices": ["a", "a", "b"], "edges": []}, "vertices[1] repeats vertex id 'a'"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": 0},
                                    {"id": 1, "inv": 0, "o": 1, "t": 0}]},
     "edge 0: stated terminus disagrees with inverse edge"),
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
    (("entries", 0, "marked_edge"), [0], "entries[0].marked_edge must be an integer, got list"),
    (("entries", 0, "marked_edge"), True, "entries[0].marked_edge must be an integer, got bool"),
    (("entries", 0, "marked_edge"), 1.0, "entries[0].marked_edge must be an integer, got float"),
    (("entries", 0), {**Z_HNN_ENTRY, "marked_edge": 7}, "entries[0].marked_edge names no base edge, got 7"),
    (("entries", 0, "expected_ends"), "3", "entries[0].expected_ends must be one of '0', '1?', '2', '>=3', got '3'"),
    (("entries", 0, "expected_ends"), 0, "entries[0].expected_ends must be one of '0', '1?', '2', '>=3', got 0"),
    (("entries", 0, "expected_splitting"), "nontrivial",
     "entries[0].expected_splitting must be one of 'no_edge', 'trivial', 'nontrivial_s1', 'nontrivial_s2', "
     "got 'nontrivial'"),
    (("entries", 0, "witness_expected"), "yes", "entries[0].witness_expected must be a boolean, got str"),
    (("entries", 0, "witness_expected"), 0, "entries[0].witness_expected must be a boolean, got int"),
    (("entries", 0, "provenance"), 5, "entries[0].provenance must be an object, got int"),
    (("entries", 0, "provenance"), "translation action",
     "entries[0].provenance must be an object, got str"),
    (("entries",), MISSING, "entries is missing"),
    (("entries", 0, "name"), MISSING, "entries[0].name is missing"),
    (("entries", 0, "expected_ends"), MISSING, "entries[0].expected_ends is missing"),
    (("entries", 0, "spec"), MISSING, "entries[0].spec is missing"),
    (("entries", 0, "spec", "pairs"), MISSING, "entries[0].spec.pairs is missing"),
    (("entries", 0, "spec", "backend"), MISSING, "entries[0].spec.backend is missing"),
    (("entries",), [Z_HNN_ENTRY, Z_HNN_ENTRY], "entries[1].name repeats entry name 'z_hnn'"),
])
def test_cli_malformed_catalog_reports_cleanly(tmp_path, capsys, catalog_doc, field, value, message):
    doc = entries_of(catalog_doc, "c5_gog")
    # c5_gog sets no scales: the scales cases edit an empty object
    doc["entries"][0]["scales"] = {}
    if field:
        node = doc
        for key in field[:-1]:
            node = node[key]
        set_field(node, field[-1], value)
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

    right_products = RewritingGroup.right_products

    def corrupted(self, gens):
        products = right_products(self, gens)
        # the one product whose word a + g is x comes out wrong; the row
        # forms every slot, as it may, so that the wrong product is formed
        return lambda a, ceiling=None: [wrong if a + g == x else y for g, y in zip(gens, products(a))]

    monkeypatch.setattr(RewritingGroup, "right_products", corrupted)
    message = cli_cut_on_z(tmp_path, capsys, radius)
    assert message.startswith("unbalanced edge multiplicities")


@pytest.mark.parametrize("entry, args", [
    ("z_rw", ["ends", "--R", "8"]),
    ("c2_c3_gog", ["ends", "--pair", "1", "--rmax", "1", "--R", "6"]),
    ("f2_rw", ["cut", "--R", "6"]),
    ("c4_c2_c4_gog", ["cut", "--R", "6"]),
    ("c2_c3_gog", ["witness", "--edge", "0", "--probe", "6"]),
    ("z_hnn", ["witness", "--edge", "0", "--probe", "6"]),
])
def test_cli_probes_read_the_coset_table_only(tmp_path, capsys, catalog, monkeypatch, entry, args):
    # neither build nor a probe may assemble the label-keyed graph
    from endlab import cayley_abels

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a coset truncation built a SerreGraph")

        from_geometric = classmethod(__init__)

    monkeypatch.setattr(cayley_abels, "SerreGraph", Refused)
    path = write_spec(tmp_path, catalog[entry])
    assert cli.main([args[0], path, *args[1:]]) == 0
    assert "error" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, cap", [
    (["ends", "{spec}", "--cap", "-1"], -1),
    (["ends", "{spec}", "--cap", "0"], 0),
    (["cut", "{spec}", "--cap", "0"], 0),
    (["witness", "{spec}", "--edge", "0", "--cap", "-3"], -3),
    (["tree", "{spec}", "--radius", "2", "--cap", "0"], 0),
    (["verify", "--default", "--cap", "-1"], -1),
])
def test_cli_cap_below_one_reports_cleanly(tmp_path, capsys, catalog, argv, cap):
    path = write_spec(tmp_path, catalog["c2_c3_gog"])
    assert cli.main([a.format(spec=path) for a in argv]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "invalid_input", "message": f"--cap must be at least 1, got {cap}"}


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

def reference_cmd_witness(backend, edge, probe, cap=DEFAULT_CAP):
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
    report, passed = run_witness_chain(entry.backend(), 0, 3, DEFAULT_CAP)
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
