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
    element_from_spec,
    run_witness_chain,
    verify_equivalence,
    verify_resolution_evidence,
)

from helpers import (
    ball_enumerate, catalog_document, dot_lines_close_their_quotes, entries_of, graph_json, oracle_for,
    rewired_slot_tables,
)

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
    assert report["all_consistent"]
    assert not report["budget_hit"]
    assert report["exit_code"] == 0
    assert len(report["results"]) == len(catalog)


def test_negative_control_flags_wrong_expectation(catalog_doc):
    doctored = entries_of(catalog_doc, "c6_rw")["entries"][0]
    doctored["expected_ends"] = "2"
    report = run_catalog([CatalogEntry.from_json(doctored)], FAST)
    assert not report["all_consistent"]
    assert report["exit_code"] == 1
    problems = report["results"][0]["equivalence"]["details"]["problems"]
    assert any("expected" in p for p in problems)


def test_empty_catalog_reports_clean():
    report = run_catalog([], FAST)
    assert report["results"] == []
    assert report["exit_code"] == 0


def test_budget_exhaustion_is_reported_not_fatal(catalog):
    entry = catalog["f2_rw"]
    report = run_catalog([entry], Scales(radius=9, cap=500))
    assert report["budget_hit"]
    assert report["exit_code"] == 2
    assert "budget_exceeded" in report["results"][0]


def test_inconsistent_row_stays_counted_when_its_resolution_evidence_runs_out_of_budget():
    # C12 as the segment u-w, expected to have 2 ends: its ends ball of 12
    # cosets is exhausted and sees none, then its covering tree passes 12
    # vertices at radius 2; the inconsistency outranks the budget hit
    doc = json.loads((Path(__file__).parent / "golden" / "specs" / "c12_cat.json").read_text())
    report = run_catalog(catalog_from_json(doc), Scales(cap=12))
    row = report["results"][0]
    assert not row["equivalence"]["consistent"] and "budget_exceeded" in row
    assert (report["all_consistent"], report["budget_hit"], report["exit_code"]) == (False, True, 1)


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
    assert verdict["consistent"]
    assert verdict["details"]["provenance"]


def test_compact_entries_are_all_negative(catalog):
    for name in ("c5_gog", "c6_rw"):
        v = verify_equivalence(catalog[name], FAST)
        assert v["consistent"]
        assert all(e["coarse"] == "0" for e in v["ends"])
        assert v["witness"] is None
        assert v["splitting"] in (None, "no_edge")


def test_splitting_entries_run_the_full_chain(catalog):
    for name in ("dinfty_gog", "z_hnn", "c2_c3_gog", "c4_c2_c4_gog"):
        v = verify_equivalence(catalog[name], FAST)
        assert v["consistent"]
        assert v["witness"] and v["witness"]["passed"]
        assert v["witness"]["cut_escaping_components"] >= 2
        assert all(e["coarse"] in ("2", ">=3") for e in v["ends"])


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


def test_cli_tree_dot_ids_close_their_quotes(tmp_path, capsys):
    # the element x\ of a table group whose identity comes second ends the
    # base vertex's label u:x\, as it is the least element
    spec = {"backend": {
        "type": "graph_of_finite_groups", "name": "backslash",
        "vertices": [{"id": "u", "group": {"kind": "table", "elements": ["x\\", "e"], "table": [[1, 0], [0, 1]]}},
                     {"id": "w", "group": {"kind": "cyclic", "n": 2}}],
        "edges": [{"id": 0, "inv": 1, "o": "u", "t": "w", "edge_group": {"kind": "cyclic", "n": 1}, "embedding": [0]},
                  {"id": 1, "inv": 0, "o": "w", "t": "u", "edge_group": {"kind": "cyclic", "n": 1}, "embedding": [1]}],
    }}
    path, dot = tmp_path / "spec.json", tmp_path / "tree.dot"
    path.write_text(json.dumps(spec))
    assert cli.main(["tree", str(path), "--radius", "2", "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert '  "u:x\\\\" [style=filled, fillcolor="white"];' in text.splitlines()
    assert dot_lines_close_their_quotes(text)


def test_cli_homology(tmp_path, capsys):
    from endlab.serre_graphs import SerreGraph

    g = SerreGraph.from_geometric(range(3), [(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_json(g)))
    assert cli.main(["homology", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cycle_space_dim"] == 1
    assert out["component_space_dim"] == 1
    assert not out["is_tree"]


def test_cli_verify_default(capsys):
    assert cli.main(["verify", "--default", "--R", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_consistent"]


def c2_c3_c2_entry(marked_edge):
    """C2*C3*C2 on the path u--w--x with trivial edge groups, as a catalog entry."""
    def edge(e, inv, o, t):
        return {"id": e, "inv": inv, "o": o, "t": t, "edge_group": {"kind": "cyclic", "n": 1}, "embedding": [0]}

    backend = {
        "type": "graph_of_finite_groups", "name": "C2*C3*C2",
        "vertices": [{"id": v, "group": {"kind": "cyclic", "n": n}} for v, n in (("u", 2), ("w", 3), ("x", 2))],
        "edges": [edge(0, 1, "u", "w"), edge(1, 0, "w", "u"), edge(2, 3, "w", "x"), edge(3, 2, "x", "w")],
    }
    return {
        "name": "c2_c3_c2_gog",
        "spec": {"backend": backend, "pairs": [
            {"K": "trivial", "S": [[{"v": v, "g": 1}] for v in ("u", "w", "x")]},
        ]},
        "expected_ends": ">=3",
        "witness_expected": True,
        "marked_edge": marked_edge,
        "scales": {"radius": 8},
        "provenance": {"ends": "a free product of three nontrivial finite groups other than D_inf"},
    }


# edge 3 is the inverse of edge 2: the chain runs on its geometric edge
@pytest.mark.parametrize(("marked_edge", "escaping"), [(0, 4), (3, 7)])
def test_cli_verify_runs_the_marked_edge_chain_of_a_two_edge_graph(tmp_path, capsys, marked_edge, escaping):
    # two geometric edges leave the overall splitting class unset; the marked
    # edge's own class is nontrivial, so its witness chain runs and passes
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"entries": [c2_c3_c2_entry(marked_edge)]}))
    assert cli.main(["verify", str(path)]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]["equivalence"]
    assert row["splitting"] is None and row["consistent"], row["details"]
    assert row["witness"]["passed"] and row["witness"]["cut_escaping_components"] == escaping


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


def test_default_catalog_reads_its_file_without_importlib_resources(catalog):
    # -S keeps site's own imports out; the package's loader reads catalog.json
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = 'import sys, endlab; print(len(endlab.default_catalog()), "importlib.resources" in sys.modules)'
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(catalog)), "False"]


def test_import_endlab_leaves_the_elimination_unloaded():
    # no code path runs the rational elimination, so importing the package
    # and its command line loads neither it nor the fractions it imports
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ('import sys, endlab, endlab.cli; print(*(m in sys.modules for m in '
            '("endlab.qlinalg", "fractions", "decimal")))')
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


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


def test_emit_refuses_data_nested_too_deeply_before_writing(capsys):
    # a catalog provenance nested 990 deep reaches _emit on Python 3.12 and
    # 3.13, whose decoders read it; the encoder's RecursionError is then an
    # invalid input, with no byte of the report on stdout
    deep = "x"
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ValueError, match="^output nested too deeply to write as JSON$"):
        cli._emit({"provenance": deep})
    assert capsys.readouterr().out == ""


def test_cli_closed_stdout_exits_quietly(tmp_path):
    # the cut's JSON is far larger than a pipe buffer, so endlab is still
    # writing when the reader closes the pipe
    spec = {"backend": {"type": "rewriting_group", "generators": ["a", "b"], "inverses": {"a": "A", "b": "B"}},
            "pairs": [{"K": "trivial", "S": ["a", "b"]}]}
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(spec))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    # the with block closes the stderr pipe too
    with subprocess.Popen(
        [sys.executable, "-m", "endlab.cli", "cut", str(path), "--R", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    ) as proc:
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


@pytest.mark.parametrize("probe", [1, 5])
def test_cli_witness_probe_inside_the_margin_reports_cleanly(tmp_path, capsys, catalog, probe):
    # the C2*C3 witness probe lies in sphere 1, which a radius-6 truncation
    # is the first to keep MARGIN spheres inside its boundary
    path = write_spec(tmp_path, catalog["c2_c3_gog"])
    assert cli.main(["witness", path, "--edge", "0", "--probe", str(probe)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "invalid_input"
    assert f"inside the margin of 4 spheres of the radius-{probe} truncation" in out["message"]
    assert cli.main(["witness", path, "--edge", "0", "--probe", "6"]) == 0


def test_cli_missing_file_reports_cleanly(capsys):
    assert cli.main(["ends", "no_such_file.json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("command", ["ends", "verify", "homology"])
def test_cli_json_nested_past_the_decoder_reports_cleanly(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main([command, str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "invalid_input", "message": f"{path}: JSON nested too deeply to read"}


@pytest.mark.parametrize("entry, command, option", [
    ("c6_rw", "ends", "--R"),
    ("c6_rw", "cut", "--R"),
    ("c5_gog", "ends", "--R"),
    ("c5_gog", "cut", "--R"),
    ("c5_gog", "tree", "--radius"),
])
@pytest.mark.parametrize("radius, cap", [(10_000_000, DEFAULT_CAP), (9, 8)])
def test_cli_radius_past_the_cap_is_refused_before_the_walk(tmp_path, capsys, catalog, entry, command, option,
                                                            radius, cap):
    # both groups are finite, and their balls close by radius 3; a ball that
    # has not closed by radius = cap already holds more than cap cosets
    path = write_spec(tmp_path, catalog[entry])
    assert cli.main([command, path, option, str(radius), "--cap", str(cap)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "budget_exceeded", "message": f"radius {radius} is past the cap of {cap} cosets"}
    # at radius = cap the walk runs
    assert cli.main([command, path, option, "8", "--cap", "8"]) == 0


@pytest.mark.parametrize("pairs, field", [
    ([{"K": "trivial", "S": 5}], "pairs[0].S must be a list"),
    ([{"K": "trivial", "S": ["a"]}, {"K": "trivial", "S": ["a", 7]}],
     "pairs[1].S[1] must be a word string"),
    ([{"K": "trivial", "S": [["a"]]}], "pairs[0].S[0] must be a word string"),
    (5, "pairs must be a list, got int"),
    ([5], "pairs[0] must be an object, got int"),
    ([{"K": "trivial", "S": ["a"]}, {"K": "trivial", "S": ["A", "ac"]}],
     "pairs[1].S[1] has unknown letter 'c', got 'ac'"),
    # these named no field
    ([{"K": "trivial", "S": []}], "pairs[0].S must not be empty"),
    ([{"K": "trivial", "S": ["a", "aA"]}], "pairs[0].S[1] lies in K, got 'aA'"),
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
    ("generators", ["ab"], "generators[0] must be a single character, got 'ab'"),
    ("generators", ["a", ""], "generators[1] must be a single character, got ''"),
    ("inverses", {"a": "AB"}, "inverses['a'] must be a single character, got 'AB'"),
    ("rules", [["aA", "c"]], "rules[0] has unknown letter 'c', got ['aA', 'c']"),
    ("rules", [["AAA", "a"], ["ca", ""]], "rules[1] has unknown letter 'c', got ['ca', '']"),
    # b is no letter of the alphabet a, A
    ("inverses", {"a": "A", "b": "B"}, "inverses['b'] maps outside the alphabet 'aA', got 'b' -> 'B'"),
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
    (("backend", "edges", 0, "t"), "u", "edges[0].t must be 'w', the origin of its inverse edge 1, got 'u'"),
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
    # an atom naming both a vertex and an edge was read as its vertex element
    (("pairs", 0, "S", 0, 0), {"v": "u", "g": 1, "e": 0},
     """pairs[0].S[0][0] names both "v" and "e", got {'v': 'u', 'g': 1, 'e': 0}"""),
    # any truthy inv was read as true, so "false" inverted the edge letter
    (("pairs", 0, "S", 0, 0), {"e": 0, "inv": "false"}, "pairs[0].S[0][0].inv must be a boolean, got str"),
    (("pairs", 0, "S", 0, 0), {"e": 0, "inv": [1]}, "pairs[0].S[0][0].inv must be a boolean, got list"),
    # these named an object, not the field
    (("backend", "vertices", 0, "group", "kind"), "zz",
     "vertices[0].group.kind must be one of 'cyclic', 'table', got 'zz'"),
    (("backend", "edges", 0, "edge_group", "kind"), -1,
     "edges[0].edge_group.kind must be one of 'cyclic', 'table', got -1"),
    (("backend", "edges", 1, "o"), "zz", "edges[1].o names no vertex, got 'zz'"),
    (("backend", "edges", 0, "inv"), 0, "edges[0].inv must name another edge, got 0"),
    (("backend", "edges", 1, "inv"), 5, "edges[1].inv must name another edge, got 5"),
    (("backend", "edges"), [{"id": e, "inv": f, "o": o, "t": t, "edge_group": {"kind": "cyclic", "n": 1},
                             "embedding": [0]} for e, f, o, t in [(0, 1, "u", "w"), (1, 2, "w", "u"), (2, 1, "w", "u")]],
     "edges[0].inv must name an edge whose inv is 0, got 1"),
    # K = G_w holds w:1, so a generator w:1 over it is refused before saturation
    (("pairs", 1, "S", 0), [{"v": "w", "g": 1}], "pairs[1].S[0] lies in K, got [{'v': 'w', 'g': 1}]"),
    # a boolean or a float names no vertex, as for o
    (("backend", "edges", 0, "t"), True, "edges[0].t must be a string or an integer, got bool"),
    (("backend", "edges", 1, "t"), 0.0, "edges[1].t must be a string or an integer, got float"),
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
     "edges[0].t must be 1, the origin of its inverse edge 1, got 0"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": 1},
                                    {"id": 1, "inv": 0, "o": 2, "t": 0}]},
     "edges[1].o names no vertex, got 2"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 0, "o": 0, "t": 0}]},
     "edges[0].inv must name another edge, got 0"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": 1},
                                    {"id": 1, "inv": 2, "o": 1, "t": 0},
                                    {"id": 2, "inv": 1, "o": 1, "t": 0}]},
     "edges[0].inv must name an edge whose inv is 0, got 1"),
    # true == 1 and 0.0 == 0, yet neither is a vertex id
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": True},
                                    {"id": 1, "inv": 0, "o": 1, "t": 0}]},
     "edges[0].t must be a string or an integer, got bool"),
    ({"vertices": [0, 1], "edges": [{"id": 0, "inv": 1, "o": 0, "t": 1},
                                    {"id": 1, "inv": 0, "o": 1, "t": 0.0}]},
     "edges[1].t must be a string or an integer, got float"),
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
    (("entries", 0, "scales", "r_max"), -1, "entries[0].scales.r_max: r_max must be non-negative, got -1"),
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


@pytest.mark.parametrize("scales, args, message", [
    ({"radius": 0}, [], "entries[0].scales.radius: need radius > r_max + margin, got 0 <= 3 + 4"),
    ({"r_max": -1}, [], "entries[0].scales.r_max: r_max must be non-negative, got -1"),
    # the entry sets neither scale, so the radius at fault is the command line's
    ({}, ["--R", "5"], "entries[0]: need radius > r_max + margin, got 5 <= 3 + 4"),
], ids=["radius", "r_max", "command_line"])
def test_cli_scales_an_entry_cannot_probe_at_name_the_entry(tmp_path, capsys, catalog_doc, scales, args, message):
    doc = entries_of(catalog_doc, "z_rw")
    doc["entries"][0]["scales"] = scales
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path), *args]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


def test_edge_letter_inv_is_read_as_a_boolean(catalog):
    backend = catalog["z_hnn"].backend()
    e = element_from_spec(backend, [{"e": 0}])
    assert element_from_spec(backend, [{"e": 0, "inv": False}]) == e
    assert element_from_spec(backend, [{"e": 0, "inv": True}]) == backend.inverse(e) != e


@pytest.mark.parametrize("entry, K, message", [
    ("z_rw", {"vertex": "u"}, "pairs[1].K.vertex needs a graph-of-groups backend"),
    ("z_rw", {"edge": 0}, "pairs[1].K.edge needs a graph-of-groups backend"),
    ("c2_c3_gog", {"vertex": []}, "pairs[1].K.vertex names no base vertex, got []"),
    ("c2_c3_gog", {"edge": [0]}, "pairs[1].K.edge names no base edge, got [0]"),
    ("c2_c3_gog", {"vertex": "zz"}, "pairs[1].K.vertex names no base vertex, got 'zz'"),
    ("c2_c3_gog", {"edge": 7}, "pairs[1].K.edge names no base edge, got 7"),
    ("c2_c3_gog", 5, 'pairs[1].K must be "trivial", {"vertex": id} or {"edge": id}, got 5'),
    # a K naming both a vertex and an edge was read as its vertex group
    ("c2_c3_gog", {"vertex": "w", "edge": 0},
     """pairs[1].K names both "vertex" and "edge", got {'vertex': 'w', 'edge': 0}"""),
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


@pytest.mark.parametrize("radius, part, k", [
    # list 1, all slots, read by the inner rows: each cancellation a^n.A and
    # A^n.a is read as one of 0 letters, so the row of the inner coset a
    # lists a, a self-loop
    (3, 1, 0),
    # list 0, the outer slots, read by the outer rows only: the outer coset
    # aa lists aa, at radius 2
    (2, 0, 0),
    # list 1 again, each cancellation read as one of 2 letters: the walk of
    # two ancestors goes past the parent, so the inner coset aa lists the
    # base where it should list a
    (3, 1, 2),
], ids=["inner", "outer", "inner_past_parent"])
def test_cli_corrupted_row_reports_internal_inconsistency(tmp_path, capsys, monkeypatch, radius, part, k):
    # Z on its whole alphabet walks along the acceptor, so the corruption is
    # a slot outcome in one of the two slot lists of its slot table
    rewired_slot_tables(monkeypatch, lambda q, r, s: (s[0], k, s[2]) if r == part and s[1] == 1 else s)
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
    ("f2_rw", ["cut", "--R", "0"], "radius must be at least 1, got 0"),
    ("c2_c3_gog", ["witness", "--edge", "0", "--probe", "-4"], "radius must be at least 1, got -4"),
])
def test_cli_negative_radii_report_cleanly(tmp_path, capsys, catalog, entry, args, message):
    path = write_spec(tmp_path, catalog[entry])
    assert cli.main([args[0], path, *args[1:]]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "invalid_input", "message": message}


# -- the one witness chain against the two copies it replaced ----------------------

def reference_cmd_witness(backend, edge, probe, cap=DEFAULT_CAP):
    """The original `endlab witness` body after loading the spec: (stdout, exit code)."""
    w = ai_cohomology.witness_from_splitting(backend, edge, probe_radius=probe, cap=cap)
    inv = ai_cohomology.check_almost_invariance(w)
    cut = ai_cohomology.cut_from_witness(w)
    out = {
        "witness": {"kind": w.kind, "pair": w.pair.name, "details": w.details},
        "almost_invariance": inv.to_json(),
        "cut": cut.to_json(),
    }
    try:
        out["dh1"] = ai_cohomology.dh1_nonvanishing_certificate(w).to_json()
    except ValueError as exc:
        out["dh1"] = {"passed": False, "error": str(exc)}
    text = json.dumps(out, indent=2, default=str) + "\n"
    return text, 0 if inv.passed and out["dh1"].get("passed") else 1


def reference_run_witness_chain(backend, marked_edge, scales):
    """The original harness copy of the chain: the catalog summary row."""
    w = ai_cohomology.witness_from_splitting(
        backend, marked_edge, probe_radius=scales.probe_radius, cap=scales.cap
    )
    inv_cert = ai_cohomology.check_almost_invariance(w)
    dh1 = ai_cohomology.dh1_nonvanishing_certificate(w)
    cut = ai_cohomology.cut_from_witness(w)
    ok = inv_cert.passed and dh1.passed and cut.bound_ok and cut.escaping_components >= 2
    return {
        "passed": ok,
        "almost_invariance": inv_cert.passed,
        "dh1_nonvanishing": dh1.passed,
        "cut_escaping_components": cut.escaping_components,
        "coboundary_bound_ok": cut.bound_ok,
        "pair": w.pair.name,
    }


@pytest.mark.parametrize("probe", [6, 8])
def test_witness_chain_matches_reference(tmp_path, capsys, catalog, probe):
    marked = [e for e in catalog.values() if e.marked_edge is not None]
    assert len(marked) == 4
    for entry in marked:
        backend, edge = entry.backend(), entry.marked_edge
        path = write_spec(tmp_path, entry)
        code = cli.main(["witness", path, "--edge", str(edge), "--probe", str(probe)])
        assert (capsys.readouterr().out, code) == reference_cmd_witness(backend, edge, probe), entry.name
        scales = Scales(radius=8, probe_radius=probe)
        row = verify_equivalence(entry, scales)["witness"]
        assert json.dumps(row) == json.dumps(reference_run_witness_chain(backend, edge, scales)), entry.name


def test_improper_witness_is_a_failed_verdict_not_an_error(catalog, monkeypatch):
    def improper(w):
        raise ValueError("improper witness: one side dies at probe scale")

    monkeypatch.setattr(ai_cohomology, "dh1_nonvanishing_certificate", improper)
    entry = catalog["z_hnn"]
    report, passed = run_witness_chain(entry.backend(), 0, 6, DEFAULT_CAP)
    assert not passed
    assert report["dh1"] == {"passed": False, "error": "improper witness: one side dies at probe scale"}
    verdict = verify_equivalence(entry, Scales(radius=8, probe_radius=6))
    assert verdict["witness"]["dh1_nonvanishing"] is False and not verdict["consistent"]


def test_cli_witness_fails_when_fewer_than_two_components_escape(tmp_path, capsys, catalog, monkeypatch):
    cut_from_witness = ai_cohomology.cut_from_witness

    def one_escaping(w):
        cut = cut_from_witness(w)
        cut.escaping_components = 1
        return cut

    monkeypatch.setattr(ai_cohomology, "cut_from_witness", one_escaping)
    path = write_spec(tmp_path, catalog["z_hnn"])
    assert cli.main(["witness", path, "--edge", "0", "--probe", "6"]) == 1
    assert json.loads(capsys.readouterr().out)["cut"]["escaping_components"] == 1
