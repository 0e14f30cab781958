"""Seeded mutation fuzz of the command line.

Each input is a valid document with one or two mutations: a leaf replaced
by a value from VALUES, or an entry dropped from its object or list.  Every
call must print one JSON document on stdout and exit 0, 1 or 2; an
exception escaping cli.main fails the test.  The radii and caps are small,
so a mutant that grows a group runs into the budget instead of the clock.
"""

import json
import random

import pytest

from endlab import cli
from endlab.serre_graphs import SerreGraph

from helpers import entries_of, graph_json

# JSON scalars plus the small shapes that specs are made of
VALUES = (
    None, True, False, -1, 0, 1, 2, 7, 10**6, 2.5, "", "a", "u", "zz", "trivial",
    [], [0], ["a"], {}, {"vertex": "u"}, {"edge": 0}, {"v": "u", "g": 1}, {"e": 0},
)

MUTANTS = 12
CAP = ["--cap", "3000"]
SPEC_COMMANDS = (
    ["ends", "--rmax", "1", "--R", "6", *CAP],
    ["cut", "--R", "6", *CAP],
    ["tree", "--radius", "3", *CAP],
    ["witness", "--edge", "0", "--probe", "6", *CAP],
)


def pick(doc, rng):
    """(path, node) of a random node below the root of a nonempty document.

    The walk descends through uniformly chosen children and stops at a leaf
    or, with probability 1/4, at a container, so every level of the
    document draws a share of the mutations, however wide the level below.
    """
    path, node = (), doc
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path, node = path + (key,), node[key]
        if not (isinstance(node, (dict, list)) and node) or rng.random() < 0.25:
            return path, node


def mutate(doc, rng):
    """A copy of doc with one or two leaves replaced or entries dropped."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        if not doc:
            break
        path, node = pick(doc, rng)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if not (isinstance(node, (dict, list)) and node) and rng.random() < 0.8:
            parent[path[-1]] = rng.choice(VALUES)
        else:
            del parent[path[-1]]
    return doc


def run_cli(tmp_path, capsys, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], str(path), *command[1:]]
    try:
        code = cli.main(argv)
    except Exception as exc:
        pytest.fail(f"{argv[0]} raised {exc!r} on {json.dumps(doc)}")
    out = capsys.readouterr().out
    json.loads(out)
    assert code in (0, 1, 2), (argv[0], code, doc)


def test_cli_survives_mutated_specs(tmp_path, capsys, catalog):
    for entry in catalog.values():
        rng = random.Random(entry.name)
        for _ in range(MUTANTS):
            doc = mutate(entry.spec, rng)
            for command in SPEC_COMMANDS:
                run_cli(tmp_path, capsys, command, doc)


def test_cli_survives_mutated_catalogs(tmp_path, capsys, catalog_doc):
    doc = entries_of(catalog_doc, "z_rw", "dinfty_gog", "c5_gog")
    rng = random.Random("catalog")
    for _ in range(3 * MUTANTS):
        run_cli(tmp_path, capsys, ["verify", "--rmax", "1", "--R", "6", *CAP], mutate(doc, rng))


def test_cli_survives_mutated_graphs(tmp_path, capsys):
    graph = SerreGraph.from_geometric(["u", "w", 0], [("u", "w"), ("w", 0), (0, "u"), ("u", "u")])
    rng = random.Random("graph")
    for _ in range(10 * MUTANTS):
        run_cli(tmp_path, capsys, ["homology"], mutate(graph_json(graph), rng))
