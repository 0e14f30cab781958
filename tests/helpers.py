"""Test-side constructions that no endlab code reads."""

import copy
import json
import re
from fractions import Fraction
from importlib import resources

from endlab.bass_serre import PiOneElement, tree_truncation
from endlab.cayley_abels import GeneratingPair, build, trivial_subgroup
from endlab.group_backends import DEFAULT_CAP, RewritingGroup
from endlab.serre_graphs import SerreGraph, boundary_dims


def random_graph(rng, max_vertices=40, edge_factor=1.2):
    """Random finite graph with loops and parallel edges allowed."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, int(edge_factor * n))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return SerreGraph.from_geometric(range(n), pairs)


def is_tree(g):
    """Whether a graph is connected, nonempty and circuit-free, read off
    the boundary dimensions `endlab homology` prints."""
    _, ker, coker = boundary_dims(len(g.vertices), len(g.geometric_edges()), len(g.components()))
    return ker == 0 and coker == 1


def append_mul(pi, m, u):
    """m followed by the vertex-group element u at its end, merged into its
    last group element raw: no push to a transversal representative, so a
    normal m gives a word normal apart from its last group element."""
    G = pi.vgroup(pi.morph_end(m))
    return PiOneElement(pi, m.gs[:-1] + (G.mul(m.gs[-1], u),), m.es, m.start)


class ReadSlots(list):
    """A slot list of RewritingGroup.slot_table that appends a copy of itself
    to reads at each pass over it."""

    def __init__(self, slots, reads):
        super().__init__(slots)
        self.reads = reads

    def __iter__(self):
        self.reads.append(tuple(super().__iter__()))
        return super().__iter__()


def recorded_slot_tables(monkeypatch, reads):
    """Make each slot table RewritingGroup.slot_table gives record every pass
    over one of its slot lists in reads: a walk along the acceptor reads the
    slot list of each state once, before it forms a coset, and forms no
    product."""
    slot_table = RewritingGroup.slot_table

    def recording(self):
        return [ReadSlots(slots, reads) for slots in slot_table(self)]

    monkeypatch.setattr(RewritingGroup, "slot_table", recording)


def rewired_slot_tables(monkeypatch, rewire):
    """Make RewritingGroup.slot_table give rewire(q, slot) in place of each
    slot (code, k, p) of state q."""
    slot_table = RewritingGroup.slot_table

    def rewired(self):
        return [[rewire(q, s) for s in slots] for q, slots in enumerate(slot_table(self))]

    monkeypatch.setattr(RewritingGroup, "slot_table", rewired)


def graph_json(g):
    """A graph as the JSON document SerreGraph.from_json reads."""
    edges = [{"id": e, "inv": g.inverse(e), "o": g.origin(e), "t": g.terminus(e)} for e in g.edges]
    return {"vertices": list(g.vertices), "edges": edges}


def ball_enumerate(backend, gens, radius, cap=DEFAULT_CAP):
    """Elements of word length <= radius over gens, in BFS order.

    This is the coset graph of (1, gens): gens is closed under inverses,
    and each BFS layer comes in sort_key order.
    """
    pair = GeneratingPair(backend, trivial_subgroup(backend), gens)
    return build(pair, radius, cap=cap).vertices


# a quoted DOT id: any character but a quote or a backslash, or an escaped one
DOT_ID = r'"(?:[^"\\]|\\.)*"'


def dot_lines_close_their_quotes(text):
    """Whether every line between a DOT file's braces is a node or an arrow
    whose quoted ids each close."""
    node = rf'  {DOT_ID}(?: \[style=filled, fillcolor="\w+"\])?;'
    arrow = rf'  {DOT_ID} -> {DOT_ID} \[label="\d+"\];'
    return all(re.fullmatch(node, line) or re.fullmatch(arrow, line) for line in text.splitlines()[1:-1])


def catalog_document():
    """The catalog document shipped with endlab, as read from its file."""
    return json.loads(resources.files("endlab").joinpath("catalog.json").read_text())


def entries_of(doc, *names):
    """A catalog document of deep copies of the named entries of doc, in that order."""
    by_name = {e["name"]: e for e in doc["entries"]}
    return {"entries": [copy.deepcopy(by_name[name]) for name in names]}


# -- independent oracles: faithful pictures of the catalog groups -----------


class WordCountOracle:
    """Letter-count homomorphism onto the integers."""

    def __init__(self, backend):
        pass

    def value(self, w):
        return sum(1 if c == "a" else -1 for c in w)


class PairCountOracle:
    """Coordinatewise letter counts for the rank-two abelian group."""

    def __init__(self, backend):
        pass

    def value(self, w):
        return (
            w.count("a") - w.count("A"),
            w.count("b") - w.count("B"),
        )


class FreeReductionOracle:
    """Independent free reduction for free-group words."""

    def __init__(self, backend):
        self.inv = {"a": "A", "A": "a", "b": "B", "B": "b"}

    def value(self, w):
        out = []
        for c in w:
            if out and out[-1] == self.inv[c]:
                out.pop()
            else:
                out.append(c)
        return "".join(out)


class AffineWordOracle:
    """Faithful action of the infinite dihedral group on the integers.

    x acts by n -> -n and y by n -> 1 - n; a word maps to the composite
    affine map (sign, shift).
    """

    def __init__(self, backend):
        self.maps = {"x": (-1, 0), "y": (-1, 1)}

    def value(self, w):
        p, q = 1, 0
        for c in w:
            a, b = self.maps[c]
            p, q = p * a, p * b + q
        return (p, q)


class HNNIntegerOracle:
    """Stable-letter exponent sum for the loop on the trivial group."""

    def __init__(self, backend):
        self.loop = backend.stable_letters[0]

    def value(self, el):
        return sum(1 if e == self.loop else -1 for e in el.es)


class AffinePiOracle:
    """Affine-map image of a two-vertex amalgam over the trivial group."""

    def __init__(self, backend):
        self.backend = backend
        u, w = backend.graph.vertices
        self.maps = {u: (-1, 0), w: (-1, 1)}

    def value(self, el):
        chain = self.backend.vertex_chain(self.backend.base_vertex, el.es)
        p, q = 1, 0
        for i, g in enumerate(el.gs):
            v = chain[i]
            G = self.backend.vgroup(v)
            if g != G.identity:
                a, b = self.maps[v]
                p, q = p * a, p * b + q
        return (p, q)


class TreeActionOracle:
    """Faithful-at-scale action on the labels of the radius-6 tree truncation.

    Only usable when the covering-tree action has trivial kernel, e.g. free
    products, where no nontrivial element lies in every vertex stabilizer.
    """

    def __init__(self, backend):
        self.pi = backend
        self.tt = tree_truncation(backend, 6)

    def value(self, el):
        pi = self.pi
        return tuple(pi.vertex_label(pi.multiply(el, v)) for v in self.tt.vertices)


class MatrixAmalgamOracle:
    """Faithful two-by-two rational matrices for the order-four amalgam.

    The generators map to [[0,-1],[1,0]] and [[0,-2],[1/2,0]]; both square
    to minus the identity, which realizes the amalgamated central subgroup,
    and their images in the projective group are two involutions with an
    infinite-order product, so the representation has trivial kernel.
    """

    def __init__(self, backend):
        self.backend = backend
        u, w = backend.graph.vertices
        h = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
        j = ((Fraction(0), Fraction(-2)), (Fraction(1, 2), Fraction(0)))
        self.gen = {u: h, w: j}

    @staticmethod
    def _mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    def value(self, el):
        out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        chain = self.backend.vertex_chain(self.backend.base_vertex, el.es)
        for i, g in enumerate(el.gs):
            m = self.gen[chain[i]]
            for _ in range(g):
                out = self._mul(out, m)
        return out


# the faithful picture of each infinite catalog group, by entry name
ORACLES = {
    "z_rw": WordCountOracle,
    "z2_rw": PairCountOracle,
    "f2_rw": FreeReductionOracle,
    "dinfty_rw": AffineWordOracle,
    "z_hnn": HNNIntegerOracle,
    "dinfty_gog": AffinePiOracle,
    "c2_c3_gog": TreeActionOracle,
    "c4_c2_c4_gog": MatrixAmalgamOracle,
}


def oracle_for(entry):
    """The independent oracle of a default catalog entry, on its backend.

    Each oracle's value(g) is a function of g's normal form, and equal
    values mean equal elements: the tests check this on a ball.
    """
    return ORACLES[entry.name](entry.backend())
