"""Graphs as directed edge sets with a fixed-point-free involution.

A graph here consists of opaque hashable vertex ids, integer edge ids, an
origin map and an inversion map.  The terminus of an edge is the origin of
its inverse, so only origin and inversion are stored.  A geometric edge is
the pair {e, inv(e)}, named by the numerically smaller of its two ids;
geometric_edges lists those ids in increasing order, and the DOT export,
and the boundary matrix the tests keep as an elimination reference, order
geometric edges by them.

Instances are immutable after construction: every operation returns fresh
data and never mutates the graph.
"""

from __future__ import annotations

from .errors import expect, required

# the JSON kinds of a vertex id
VERTEX_ID = (str, int)


class SerreGraph:
    def __init__(self, vertices, origin, inverse):
        self._vertices = tuple(dict.fromkeys(vertices))
        self._vindex = {v: i for i, v in enumerate(self._vertices)}
        self._origin = dict(origin)
        self._inverse = dict(inverse)
        self._edges = tuple(sorted(self._origin))
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
        """The smaller id of each {e, inv(e)} pair, in increasing order."""
        return tuple(e for e in self._edges if e < self._inverse[e])

    def components(self):
        """Connected blocks, canonically labelled so that edge order does not
        matter: each block is sorted by vertex order, blocks by first vertex."""
        vertices, index = self._vertices, self._vindex
        neighbours = [[index[self.terminus(e)] for e in self._stars[v]] for v in vertices]
        return tuple(tuple(vertices[i] for i in block) for block in blocks(neighbours))

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
        return SerreGraph(keep_v, origin, inverse)

    @classmethod
    def from_records(cls, vertices, edges):
        """Graph from vertex ids and JSON edge records {"id", "inv", "o", "t", ...}.

        Vertex ids are strings or integers, edge ids distinct integers; a
        record of another shape, a repeated id, an origin that is no vertex,
        an inverse that is no other edge or whose own inverse is another
        edge, or a stated terminus other than the origin of the inverse edge
        raises ValueError naming its field, before the graph is built.
        """
        known = set(vertices)
        origin, inverse = {}, {}
        for i, ed in enumerate(edges):
            e = required(ed, "id", f"edges[{i}].id", int)
            if e in origin:
                raise ValueError(f"edges[{i}].id repeats edge id {e}")
            inverse[e] = required(ed, "inv", f"edges[{i}].inv", int)
            origin[e] = required(ed, "o", f"edges[{i}].o", VERTEX_ID)
            if origin[e] not in known:
                raise ValueError(f"edges[{i}].o names no vertex, got {origin[e]!r}")
        # every inv must name another edge before any pair is matched, so
        # that a bad inv is named at its own record, not at its partner's
        for i, ed in enumerate(edges):
            f = inverse[ed["id"]]
            if f == ed["id"] or f not in inverse:
                raise ValueError(f"edges[{i}].inv must name another edge, got {f}")
        for i, ed in enumerate(edges):
            e, f = ed["id"], inverse[ed["id"]]
            if inverse[f] != e:
                raise ValueError(f"edges[{i}].inv must name an edge whose inv is {e}, got {f}")
            t = required(ed, "t", f"edges[{i}].t", VERTEX_ID)
            if t != origin[f]:
                raise ValueError(f"edges[{i}].t must be {origin[f]!r}, the origin of its inverse edge {f}, got {t!r}")
        return cls(vertices, origin, inverse)

    @classmethod
    def from_json(cls, data):
        expect(data, dict, "graph")
        edges = [
            expect(ed, dict, f"edges[{i}]")
            for i, ed in enumerate(required(data, "edges", "edges", list))
        ]
        vertices = vertex_ids(required(data, "vertices", "vertices", list), "vertices[{}]")
        return cls.from_records(vertices, edges)

    def to_dot(self, name="g", vertex_color=None):
        """DOT text with one arrow per geometric edge, canonical orientation."""
        lines = [f"digraph {name} {{"]
        for v in self._vertices:
            attr = ""
            if vertex_color and v in vertex_color:
                attr = f' [style=filled, fillcolor="{vertex_color[v]}"]'
            lines.append(f'  "{_dot_id(v)}"{attr};')
        for e in self.geometric_edges():
            o, t = self._origin[e], self.terminus(e)
            lines.append(f'  "{_dot_id(o)}" -> "{_dot_id(t)}" [label="{e}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"SerreGraph({len(self._vertices)} vertices, {len(self.geometric_edges())} geometric edges)"


def blocks(neighbours, removed=()):
    """Connected blocks of the symmetric graph on 0..n-1 with i adjacent to
    neighbours[i], outside `removed`: each block sorted, blocks in order of
    their least index.  The walk never enters `removed`, so nothing is copied."""
    seen = bytearray(len(neighbours))
    for i in removed:
        seen[i] = 1
    out = []
    for i in range(len(neighbours)):
        if not seen[i]:
            seen[i] = 1
            block = [i]
            # the loop also visits the vertices appended while it runs
            for u in block:
                for w in neighbours[u]:
                    if not seen[w]:
                        seen[w] = 1
                        block.append(w)
            out.append(sorted(block))
    return out


def boundary_dims(n_vertices, n_edges, c):
    """(rank, kernel, cokernel) dimensions of the boundary map
    Q[geometric edges] -> Q[vertices] of a graph with c components.

    Each component's edge columns span the sum-zero vectors on its
    vertices, so the rank is |V| - c, the kernel (cycle space) is
    |E| - |V| + c, loops and parallel edges included, and the cokernel
    is c (Serre, Trees, I.2).  No elimination is needed.
    """
    rank = n_vertices - c
    return rank, n_edges - rank, c


def _dot_id(v):
    # backslashes are escaped first, so that the quotes' escapes stay single
    return str(v).replace("\\", "\\\\").replace('"', '\\"')


def vertex_ids(values, where):
    """values, if distinct vertex ids; else ValueError naming where.format(i)."""
    seen = set()
    for i, v in enumerate(values):
        expect(v, VERTEX_ID, where.format(i))
        if v in seen:
            raise ValueError(f"{where.format(i)} repeats vertex id {v!r}")
        seen.add(v)
    return values
