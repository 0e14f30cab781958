"""Graphs as directed edge sets with a fixed-point-free involution.

A graph here consists of opaque hashable vertex ids, integer edge ids, an
origin map and an inversion map.  The terminus of an edge is the origin of
its inverse, so only origin and inversion are stored.  A geometric edge is
the pair {e, inv(e)}; its canonical representative is the numerically
smaller id, which downstream code relies on for deterministic matrix bases.

Instances are immutable after construction: every operation returns fresh
data and never mutates the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import expect

# the JSON kinds of a vertex id
VERTEX_ID = (str, int)


class SerreGraph:
    def __init__(self, vertices, origin, inverse, check=True):
        self._vertices = tuple(dict.fromkeys(vertices))
        self._vindex = {v: i for i, v in enumerate(self._vertices)}
        self._origin = dict(origin)
        self._inverse = dict(inverse)
        self._edges = tuple(sorted(self._origin))
        if check:
            self._validate()
        stars = {v: [] for v in self._vertices}
        for e in self._edges:
            stars[self._origin[e]].append(e)
        self._stars = {v: tuple(es) for v, es in stars.items()}

    def _validate(self):
        if set(self._inverse) != set(self._origin):
            raise ValueError("origin and inversion must cover the same edge ids")
        for e, v in self._origin.items():
            if v not in self._vindex:
                raise ValueError(f"edge {e} has unknown origin {v!r}")
        for e, f in self._inverse.items():
            if f == e:
                raise ValueError(f"edge {e} is its own inverse")
            if self._inverse.get(f) != e:
                raise ValueError(f"inversion is not an involution at edge {e}")

    @classmethod
    def from_geometric(cls, vertices, pairs):
        """Build from a list of (u, v) endpoint pairs, one per geometric edge.

        Pair i becomes oriented edges 2i (u -> v) and 2i+1 (v -> u).
        """
        origin, inverse = {}, {}
        for i, (u, v) in enumerate(pairs):
            e, f = 2 * i, 2 * i + 1
            origin[e], origin[f] = u, v
            inverse[e], inverse[f] = f, e
        return cls(vertices, origin, inverse)

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return self._edges

    def vertex_index(self, v):
        return self._vindex[v]

    def origin(self, e):
        return self._origin[e]

    def terminus(self, e):
        return self._origin[self._inverse[e]]

    def inverse(self, e):
        return self._inverse[e]

    def star(self, v):
        """Edges with origin v, in increasing id order."""
        if v not in self._vindex:
            raise ValueError(f"unknown vertex {v!r}")
        return self._stars[v]

    def geometric_edges(self):
        """One GeometricEdge per {e, inv(e)} pair, sorted by representative."""
        out = []
        for e in self._edges:
            f = self._inverse[e]
            if e < f:
                out.append(GeometricEdge(e, f))
        return tuple(out)

    def components(self, without=()):
        """Partition of the vertices outside `without` into connected blocks.

        A walk over the stars that never enters a vertex of `without`, so
        leaving out a probe set never copies the graph.  Blocks are
        canonically labelled: each block is sorted by vertex order and
        blocks are ordered by their first vertex, so the result does not
        depend on edge enumeration order.
        """
        stars, origin, inverse, index = self._stars, self._origin, self._inverse, self._vindex
        seen = set(without)
        blocks = []
        for v in self._vertices:
            if v in seen:
                continue
            seen.add(v)
            block = [v]
            # the loop also visits the vertices appended while it runs
            for u in block:
                for e in stars[u]:
                    w = origin[inverse[e]]
                    if w not in seen:
                        seen.add(w)
                        block.append(w)
            blocks.append(tuple(sorted(block, key=index.__getitem__)))
        return tuple(blocks)

    # kept for the tests' reference path and the benchmark trace, which wraps it by name
    def remove_vertex_set(self, subset):
        """Subgraph on V - subset, dropping every edge touching subset."""
        subset = set(subset)
        unknown = subset.difference(self._vindex)
        if unknown:
            raise ValueError(f"unknown vertices {sorted(map(repr, unknown))}")
        keep_v = [v for v in self._vertices if v not in subset]
        origin, inverse = {}, {}
        for e in self._edges:
            if self._origin[e] not in subset and self.terminus(e) not in subset:
                origin[e] = self._origin[e]
                inverse[e] = self._inverse[e]
        return SerreGraph(keep_v, origin, inverse, check=False)

    def is_tree(self):
        """Connected, nonempty and circuit-free.

        Uses the count criterion: connected with exactly |V| - 1 geometric
        edges.  Loops and parallel edges push the count past |V| - 1, so
        they are rejected as they should be.
        """
        return len(self.components()) == 1 and len(self._vertices) - len(self.geometric_edges()) == 1

    def to_json(self):
        edges = [
            {"id": e, "inv": self._inverse[e], "o": self._origin[e], "t": self.terminus(e)}
            for e in self._edges
        ]
        return {"vertices": list(self._vertices), "edges": edges}

    @classmethod
    def from_records(cls, vertices, edges):
        """Graph from vertex ids and JSON edge records {"id", "inv", "o", ...}.

        Vertex ids are strings or integers, edge ids distinct integers; a
        record of another shape or a repeated id raises ValueError naming
        its field.
        """
        origin, inverse = {}, {}
        for i, ed in enumerate(edges):
            e = expect(ed["id"], int, f"edges[{i}].id")
            if e in origin:
                raise ValueError(f"edges[{i}].id repeats edge id {e}")
            inverse[e] = expect(ed["inv"], int, f"edges[{i}].inv")
            origin[e] = expect(ed["o"], VERTEX_ID, f"edges[{i}].o")
        return cls(vertices, origin, inverse)

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "graph")
        edges = [
            expect(ed, dict, f"edges[{i}]")
            for i, ed in enumerate(expect(data["edges"], list, "edges"))
        ]
        vertices = [
            expect(v, VERTEX_ID, f"vertices[{i}]")
            for i, v in enumerate(expect(data["vertices"], list, "vertices"))
        ]
        g = cls.from_records(vertices, edges)
        for ed in edges:
            if g.terminus(ed["id"]) != ed["t"]:
                raise ValueError(f"edge {ed['id']}: stated terminus disagrees with inverse edge")
        return g

    def to_dot(self, name="g", vertex_color=None):
        """DOT text with one arrow per geometric edge, canonical orientation."""
        lines = [f"digraph {name} {{"]
        for v in self._vertices:
            attr = ""
            if vertex_color and v in vertex_color:
                attr = f' [style=filled, fillcolor="{vertex_color[v]}"]'
            lines.append(f'  "{_dot_id(v)}"{attr};')
        for ge in self.geometric_edges():
            o, t = self._origin[ge.rep], self.terminus(ge.rep)
            lines.append(f'  "{_dot_id(o)}" -> "{_dot_id(t)}" [label="{ge.rep}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"SerreGraph({len(self._vertices)} vertices, {len(self.geometric_edges())} geometric edges)"


def _dot_id(v):
    return str(v).replace('"', "'")


@dataclass(frozen=True)
class GeometricEdge:
    """Unordered edge pair {rep, inv}; rep is the smaller id."""

    rep: int
    inv: int


def random_graph(rng, max_vertices=40, edge_factor=1.2):
    """Random finite graph with loops and parallel edges allowed."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, int(edge_factor * n))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return SerreGraph.from_geometric(range(n), pairs)
