"""Graphs of finite groups and their fundamental groups.

A graph of finite groups assigns a finite group to every vertex and every
geometric edge of a finite connected base graph, with an injective
homomorphism from each edge group into the group at the terminus of each
orientation.  One word type, PiOneElement, holds a word in the path
groupoid of the base graph from a vertex start:

    g0 e1 s1 e2 s2 ... en sn

where the e_i trace a path from start, g0 lives in the group at start and
each s_i lies in the group at the terminus of e_i.  A word is reduced when
it contains no pinch: a subword e h inv(e) with h in the image of the edge
group of e; it is normal when it is reduced and each s_i is a
representative from a fixed identity-first right transversal of the
embedded edge group.  Elements of the fundamental group are the normal
words that start and end at the base vertex.

PiOne.multiply(a, b) is the one product: a word a normal apart from its
last group element, followed by a normal word b from where a ends.  It
cancels each pinch across the junction, at most min(|a|, |b|) of them,
and carries left from the junction only while the carry is nontrivial,
since both sides are already normal; it raises ValueError when b does not
start where a ends.  A trivial carry, the only kind over trivial edge
groups, leaves the rest of a normal, so the product is then one slice of
each word around the junction's representative; a nontrivial carry goes
through the push routine that inverse shares.  Serre's normal form
theorem (Trees, 1980, I.5) makes the normal word of an element unique, so
its result does not depend on how the word was built.  Four routines form
normal words: the edge letters, e the word 1 e 1; PiOne.element_at(v, u),
the one-element word u at v; multiply; and inverse.  Every other word is
grown from these by multiply: the identity is an element_at, normalize
folds multiply over a raw word, and vertex_label is the least product
with an element_at.

PiOne.coset_products, the one routine for every coset row of
cayley_abels.ball_walk, forms each label as the least of the products
x.b over its coset, one multiply each, so multiply is the one walk of a
junction.  Over trivial edge groups the normal form is a free product's,
with no carry across an edge, so x.b differs from x only in a bounded
tail: the first row with a junction suffix records the tail of each
label it forms, and every later row with that suffix slices its labels
from the record, as the finite-state multiplier of an automatic
structure does (Epstein et al., Word Processing in Groups, 1992).

The universal covering tree, PiOne.covering_tree, is such a coset space:
a vertex, a coset of a vertex group, is labelled by its least normal
word, tree edges carry no labels, and a row is the coset_products row of
the cosets h.e.G_w of the tree edges at the vertex.

HalfTreeSplitting reads the side of a translate g.E of a lifted edge E
off the tree geodesic gamma^-1 g gamma, gamma the spanning-tree path to
the origin of E; where E leaves the base vertex, gamma = 1 and the
geodesic is g itself, with no product formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt

from .cayley_abels import ball_walk
from .errors import BudgetExceeded, expect, one_of, required
from .group_backends import DEFAULT_CAP, FiniteGroup
from .serre_graphs import SerreGraph, blocks, boundary_dims, vertex_ids


@dataclass
class Certificate:
    """Machine-checkable verdict record."""

    kind: str
    passed: bool
    details: dict

    def to_json(self):
        return {"kind": self.kind, "passed": self.passed, "details": self.details}


class GraphOfFiniteGroups:
    """Finite connected base graph with vertex/edge groups and embeddings.

    vgroups maps base vertices to FiniteGroup, egroups maps canonical
    geometric representatives to FiniteGroup, and embeddings maps every
    oriented edge e to the list of images in the group at terminus(e),
    indexed by edge-group element.
    """

    def __init__(self, graph, vgroups, egroups, embeddings, name="gog"):
        self.graph = graph
        self.vgroups = dict(vgroups)
        self.egroups = dict(egroups)
        self.embeddings = {e: tuple(m) for e, m in embeddings.items()}
        self.name = name
        self._validate()

    def _validate(self):
        g = self.graph
        if not g.vertices:
            raise ValueError("base graph is empty")
        if len(g.components()) != 1:
            raise ValueError("base graph is not connected")
        for v in g.vertices:
            if v not in self.vgroups:
                raise ValueError(f"vertex {v!r} has no group")
        for e in g.geometric_edges():
            if e not in self.egroups:
                raise ValueError(f"geometric edge {e} has no edge group")
        for e in g.edges:
            eg = self.egroups[min(e, g.inverse(e))]
            H = self.vgroups[g.terminus(e)]
            img = self.embeddings.get(e)
            if img is None or len(img) != len(eg):
                raise ValueError(f"edge {e}: embedding must list an image per edge-group element")
            for x in img:
                if not 0 <= x < len(H):
                    raise ValueError(
                        f"edge {e}: embedding entry {x!r} is not an element of the group at {g.terminus(e)!r}"
                    )
            if len(set(img)) != len(img):
                raise ValueError(f"edge {e}: embedding is not injective")
            for a in range(len(eg)):
                for b in range(len(eg)):
                    if img[eg.mul(a, b)] != H.mul(img[a], img[b]):
                        raise ValueError(f"edge {e}: embedding is not a homomorphism")

    def edge_group(self, e):
        return self.egroups[min(e, self.graph.inverse(e))]

    @classmethod
    def from_json(cls, data):
        if data.get("type") != "graph_of_finite_groups":
            raise ValueError("not a graph_of_finite_groups spec")
        vertices = [
            expect(v, dict, f"vertices[{i}]")
            for i, v in enumerate(required(data, "vertices", "vertices", list))
        ]
        edges = [
            expect(ed, dict, f"edges[{i}]")
            for i, ed in enumerate(required(data, "edges", "edges", list))
        ]
        ids = [required(v, "id", f"vertices[{i}].id") for i, v in enumerate(vertices)]
        graph = SerreGraph.from_records(vertex_ids(ids, "vertices[{}].id"), edges)
        vgroups = {
            v["id"]: _group_from_json(v, "group", f"vertices[{i}].group")
            for i, v in enumerate(vertices)
        }
        egroups, embeddings = {}, {}
        for i, ed in enumerate(edges):
            rep = min(ed["id"], ed["inv"])
            if rep not in egroups:
                egroups[rep] = _group_from_json(ed, "edge_group", f"edges[{i}].edge_group")
            embeddings[ed["id"]] = tuple(
                expect(x, int, f"edges[{i}].embedding[{j}]")
                for j, x in enumerate(required(ed, "embedding", f"edges[{i}].embedding", list))
            )
        return cls(graph, vgroups, egroups, embeddings, name=data.get("name", "gog"))

    def __repr__(self):
        return f"GraphOfFiniteGroups({self.name})"


def _group_from_json(record, key, where):
    """The group spec record[key], the spec field `where`."""
    data = required(record, key, where, dict)
    kind = one_of(required(data, "kind", f"{where}.kind"), ("cyclic", "table"), f"{where}.kind")
    if kind == "cyclic":
        n = required(data, "n", f"{where}.n")
        if type(n) is not int or n < 1:
            raise ValueError(f"{where}.n must be a positive integer, got {n!r}")
        # the group is built as an n x n table, so n is bounded before it is built
        if n > isqrt(DEFAULT_CAP):
            raise BudgetExceeded(
                f"{where}.n = {n} is past {isqrt(DEFAULT_CAP)}: its {n}x{n} table would exceed the cap of {DEFAULT_CAP} entries"
            )
        return FiniteGroup.cyclic(n)
    elements = required(data, "elements", f"{where}.elements", list)
    table = required(data, "table", f"{where}.table", list)
    for i, row in enumerate(table):
        if not isinstance(row, list) or any(type(x) is not int for x in row):
            raise ValueError(f"{where}.table[{i}] must be a list of integers, got {row!r}")
    return FiniteGroup(elements, table)


class PiOneElement:
    """A path-groupoid word from the base-graph vertex start.

    gs holds vertex-group element indices, es oriented base-graph edges;
    the word alternates g0 e1 s1 ... en sn.  The fundamental group's
    elements are the normal words that start and end at the base vertex.
    Equality is structural, start included; the hash is computed once, over
    gs and es only, since vertex ids may be strings, whose hashes vary from
    one process to the next.
    """

    __slots__ = ("pi", "gs", "es", "start", "_hash")

    def __init__(self, pi, gs, es, start):
        self.pi = pi
        self.gs = gs
        self.es = es
        self.start = start
        self._hash = hash((gs, es))

    def __eq__(self, other):
        if not isinstance(other, PiOneElement):
            return NotImplemented
        return self.gs == other.gs and self.es == other.es and self.start == other.start

    def __hash__(self):
        return self._hash

    def is_identity(self):
        return not self.es and self.gs[0] == self.pi.vgroup(self.start).identity

    def __repr__(self):
        if self.is_identity():
            return "1"
        bits = []
        chain = self.pi.vertex_chain(self.start, self.es)
        for i, g in enumerate(self.gs):
            G = self.pi.vgroup(chain[i])
            if g != G.identity:
                bits.append(f"{chain[i]}:{G.elements[g]}")
            if i < len(self.es):
                bits.append(f"e{self.es[i]}")
        return ".".join(bits) or "1"


class PiOne:
    """Fundamental group of a graph of finite groups, as a backend."""

    def __init__(self, gog):
        self.gog = gog
        self.graph = g = gog.graph
        self.base_vertex = v0 = g.vertices[0]
        self.name = f"pi1({gog.name})"
        # tree_paths[v] holds the edge letters of the spanning-tree path from
        # the base vertex to v, by BFS taking the least edge id first; the
        # stable letters are the geometric edges the tree leaves out
        self.tree_paths, tree, frontier = {v0: ()}, set(), [v0]
        while frontier:
            nxt = []
            for v in frontier:
                for e in g.star(v):
                    w = g.terminus(e)
                    if w not in self.tree_paths:
                        self.tree_paths[w] = self.tree_paths[v] + (e,)
                        tree.add(min(e, g.inverse(e)))
                        nxt.append(w)
            frontier = nxt
        self.stable_letters = tuple(e for e in g.geometric_edges() if e not in tree)
        # per-edge tables for multiply: pinch[e] maps an image element h at
        # terminus(e) to the element b at origin(e) with e h = b e; push[e]
        # maps x to (s, b) with x = h s for the transversal rep s, b as for
        # pinch, and b None when h is the identity; the reps are the first of
        # each image coset in index order, identity first, so letter[e] is
        # the normal word 1 e 1
        emb = gog.embeddings
        self._inverse = {e: g.inverse(e) for e in g.edges}
        self._origin = {e: g.origin(e) for e in g.edges}
        self._terminus = {e: g.terminus(e) for e in g.edges}
        self._origin_table = {e: gog.vgroups[g.origin(e)].table for e in g.edges}
        self._table = {v: G.table for v, G in gog.vgroups.items()}
        self._inverse_table = {v: G.inverse_table for v, G in gog.vgroups.items()}
        self._pinch, self._push, self._letter = {}, {}, {}
        for e in g.edges:
            img, back = emb[e], emb[g.inverse(e)]
            H = gog.vgroups[g.terminus(e)]
            one = gog.vgroups[g.origin(e)].identity
            self._letter[e] = PiOneElement(self, (one, H.identity), (e,), g.origin(e))
            self._pinch[e] = {h: back[a] for a, h in enumerate(img)}
            push = self._push[e] = {}
            for s in [H.identity, *(x for x in range(len(H)) if x != H.identity)]:
                if s not in push:
                    for a, h in enumerate(img):
                        push[H.mul(h, s)] = (s, None if back[a] == one else back[a])

    # -- small accessors ---------------------------------------------------
    def vgroup(self, v):
        return self.gog.vgroups[v]

    def vertex_chain(self, start, es):
        """Vertices visited by a groupoid word with the given edge letters."""
        chain = [start]
        for e in es:
            if self._origin[e] != chain[-1]:
                raise ValueError(f"edge {e} does not start at {chain[-1]!r}")
            chain.append(self._terminus[e])
        return chain

    # -- groupoid word machinery -------------------------------------------
    def normalize(self, start, gs, es):
        """Normal form of a raw groupoid word g0 e1 g1 ... en gn starting at
        start: multiply folded over its one-letter normal words."""
        self.vertex_chain(start, es)
        if len(gs) != len(es) + 1:
            raise ValueError("word must alternate group elements and edges")
        multiply, element_at, letter, terminus = self.multiply, self.element_at, self._letter, self._terminus
        m = element_at(start, gs[0])
        for e, g in zip(es, gs[1:]):
            m = multiply(multiply(m, letter[e]), element_at(terminus[e], g))
        return m

    def _push_to_transversals(self, G, E, low):
        """Push the elements of a reduced word G, E to transversal
        representatives in place, from right to left, stopping at the first
        trivial carry at or below position low (G[1:low] are already
        representatives)."""
        push, table = self._push, self._origin_table
        j = len(E)
        while j:
            f = E[j - 1]
            s, b = push[f][G[j]]
            G[j] = s
            if b is not None:
                G[j - 1] = table[f][G[j - 1]][b]
            elif j <= low:
                break
            j -= 1

    def morph_end(self, m):
        return self._terminus[m.es[-1]] if m.es else m.start

    def element_at(self, v, u):
        """The one-element normal word u, an element of the group at v."""
        return PiOneElement(self, (u,), (), v)

    # -- canonical labels in the universal tree -----------------------------
    def vertex_label(self, m):
        """The canonical label of the tree vertex of m: the least normal form
        of m.u, u in the group at its end, each formed by multiply."""
        end = self.morph_end(m)
        forms = (self.multiply(m, self.element_at(end, u)) for u in range(len(self.vgroup(end))))
        return min(forms, key=self.sort_key)

    # -- group backend protocol ---------------------------------------------
    def identity(self):
        return self.element_at(self.base_vertex, self.vgroup(self.base_vertex).identity)

    def multiply(self, a, b):
        """A word a, normal apart from its last group element, followed by a
        normal word b that starts where a ends.

        Both words are trusted as they are, so only the junction is worked
        on: the two elements that meet there merge, each pinch across it is
        removed while the last edge of a and the next edge of b are inverse
        and the merged element lies in that edge's image, and the merged
        element is pushed to its transversal representative, carrying left
        only while the carry is nontrivial.  A trivial carry, the only kind
        over a trivial edge group, leaves the rest of a as it is, so the
        product is then a slice of a, the representative and a slice of b.
        """
        es, bes = a.es, b.es
        end = self._terminus[es[-1]] if es else a.start
        if end != b.start:
            raise ValueError(f"words do not meet: the first ends at {end!r}, the second starts at {b.start!r}")
        mid = self._table[end][a.gs[-1]][b.gs[0]]
        i, j = len(es), 0
        if i and bes:
            inverse, pinch, table = self._inverse, self._pinch, self._origin_table
            m = len(bes)
            while i and j < m and inverse[es[i - 1]] == bes[j]:
                f = es[i - 1]
                c = pinch[f].get(mid)
                if c is None:
                    break
                t = table[f]
                mid = t[t[a.gs[i - 1]][c]][b.gs[j + 1]]
                i -= 1
                j += 1
        if not i:
            return PiOneElement(self, (mid,) + b.gs[j + 1:], bes[j:], a.start)
        head = es[:i]
        s, c = self._push[es[i - 1]][mid]
        if c is None:
            return PiOneElement(self, a.gs[:i] + (s,) + b.gs[j + 1:], head + bes[j:], a.start)
        G = [*a.gs[:i], mid]
        self._push_to_transversals(G, head, i)
        return PiOneElement(self, (*G, *b.gs[j + 1:]), head + bes[j:], a.start)

    def inverse(self, a):
        """The inverse of a normal word a, from where a ends."""
        # a pinch e h inv(e) in the reversed inverse of a reduced word is one
        # in the word itself, read backwards, so only the push is needed
        terminus, inv_at = self._terminus, self._inverse_table
        G = [inv_at[terminus[e]][g] for e, g in zip(reversed(a.es), reversed(a.gs))]
        G.append(inv_at[a.start][a.gs[0]])
        E = [self._inverse[e] for e in reversed(a.es)]
        self._push_to_transversals(G, E, 0)
        return PiOneElement(self, tuple(G), tuple(E), self.morph_end(a))

    def coset_products(self, cosets):
        """The map x -> [the least x.b over b in C, for C in cosets], for
        normal words x and cosets C of a finite subgroup, each the list of
        its members as normal words.  It gives every coset row of a PiOne
        pair, K = 1 included, and of the covering tree: the neighbours(x)
        of cayley_abels.ball_walk.

        By uniqueness of normal forms (Serre, Trees, I.5) the label of x.C
        is the least of its products x.b, and a row forms each of them, one
        multiply per member, except over trivial edge groups.  There each
        carry is trivial, and the junction loop reads at most the last M
        edge letters of x, M the most edge letters of any member.  So with
        keep = max(0, |x| - M) multiply keeps x.gs[:i] and x.es[:i],
        i >= keep, and x.b is x's head up to keep followed by a tail that
        depends only on b and on x's tail past keep: its last M edge
        letters and last M + 1 group elements, the key.  Products with one
        head order as their tails do, so the first row with a key records
        the tail past keep of each label it forms, in a dict of the map's
        own, as long as the map; and every later row with that key forms
        its labels as its own head up to keep and each recorded tail, with
        no product.  Over a nontrivial edge group a carry can run through
        the whole word, so every row forms its products.
        """
        multiply, sort_key = self.multiply, self.sort_key
        M = max((len(b.es) for members in cosets for b in members), default=0)
        # over trivial edge groups a later row slices its labels from the records
        records = {} if all(len(eg) == 1 for eg in self.gog.egroups.values()) else None

        def row(x):
            keep = max(0, len(x.es) - M)
            if records is not None:
                key = (x.es[keep:], x.gs[keep:])
                record = records.get(key)
                if record is not None:
                    gs, es = x.gs[:keep], x.es[:keep]
                    return [PiOneElement(self, gs + tail_gs, es + tail_es, x.start) for tail_gs, tail_es in record]
            labels = [min([multiply(x, b) for b in members], key=sort_key) for members in cosets]
            if records is not None:
                records[key] = [(p.gs[keep:], p.es[keep:]) for p in labels]
            return labels

        return row

    def sort_key(self, a):
        return (len(a.es), a.es, a.gs)

    @functools.cached_property
    def covering_tree(self):
        """The universal covering tree, with its row maps, built once."""
        return CoveringTree(self)

    # -- distinguished elements and subgroups --------------------------------
    def tree_path(self, v):
        """The spanning-tree path from the base vertex to v, a normal word."""
        m = self.identity()
        for e in self.tree_paths[v]:
            m = self.multiply(m, self._letter[e])
        return m

    def vertex_inclusion(self, v, u):
        """The vertex-group element u of vgroup(v) as a fundamental group element."""
        p = self.tree_path(v)
        return self.multiply(self.multiply(p, self.element_at(v, u)), self.inverse(p))

    def edge_letter(self, e):
        """The loop p.e.q^-1 through edge e against the spanning tree, p and
        q the tree paths to its ends."""
        p = self.tree_path(self.graph.origin(e))
        q = self.tree_path(self.graph.terminus(e))
        return self.multiply(self.multiply(p, self._letter[e]), self.inverse(q))

    def vertex_subgroup_elements(self, v):
        return tuple(self.vertex_inclusion(v, u) for u in range(len(self.vgroup(v))))

    def edge_subgroup_elements(self, e):
        """The edge group of e embedded as the stabilizer of the lifted edge."""
        v = self.graph.origin(e)
        return tuple(self.vertex_inclusion(v, u) for u in self.gog.embeddings[self.graph.inverse(e)])

    def default_generators(self):
        """Symmetric generating list: vertex-group elements and stable letters."""
        gens = []
        for v in self.graph.vertices:
            for u in range(len(self.vgroup(v))):
                if u != self.vgroup(v).identity:
                    gens.append(self.vertex_inclusion(v, u))
        for rep in self.stable_letters:
            t = self.edge_letter(rep)
            gens.append(t)
            gens.append(self.inverse(t))
        seen, out = set(), []
        for g in sorted(gens, key=self.sort_key):
            if g not in seen and not g.is_identity():
                seen.add(g)
                out.append(g)
        return out

    def __repr__(self):
        return self.name


@dataclass
class SplittingReport:
    """Per-edge classification of a graph of groups as a splitting."""

    per_edge: tuple
    overall: str | None

    def kind_of(self, rep):
        for r, kind in self.per_edge:
            if r == rep:
                return kind
        raise ValueError(f"no geometric edge {rep}")


def splitting_classify(gog):
    """Classify each geometric edge: loops are HNN letters, segments are
    amalgams, trivial when either embedding is onto its vertex group."""
    graph = gog.graph
    per_edge = []
    for e in graph.geometric_edges():
        if graph.origin(e) == graph.terminus(e):
            per_edge.append((e, "nontrivial_s2"))
            continue
        eg = gog.edge_group(e)
        onto_t = len(eg) == len(gog.vgroups[graph.terminus(e)])
        onto_o = len(eg) == len(gog.vgroups[graph.origin(e)])
        per_edge.append((e, "trivial" if (onto_t or onto_o) else "nontrivial_s1"))
    if not per_edge:
        overall = "no_edge"
    elif len(per_edge) == 1:
        overall = per_edge[0][1]
    else:
        overall = None
    return SplittingReport(tuple(per_edge), overall)


class CoveringTree:
    """The universal covering tree as a coset space for ball_walk.

    A vertex, the coset m.G_v of a word m ending at v, is labelled by its
    least normal word.  By Serre, Trees, I.5, the tree edges over e at the
    vertex of m correspond to the left cosets h.A_e, A_e the image of the
    edge group at origin(e), so m h e meets each once as h runs over the
    least elements of the cosets, and the rows at the vertices over v are
    one coset_products map of the cosets h.e.G_w, w = terminus(e).
    """

    def __init__(self, pi):
        self.pi = pi
        self.sort_key = pi.sort_key
        self.base = pi.vertex_label(pi.identity())
        graph, emb = pi.graph, pi.gog.embeddings
        # v -> the cosets h.e.G_w at a vertex over v, each member h e u
        # normal once multiplied by the identity at w
        cosets = {v: [] for v in graph.vertices}
        for e in graph.edges:
            v, w = graph.origin(e), graph.terminus(e)
            G, H = pi.vgroup(v), pi.vgroup(w)
            one = pi.element_at(w, H.identity)
            for h in sorted({min(G.mul(x, a) for a in emb[graph.inverse(e)]) for x in range(len(G))}):
                cosets[v].append([pi.multiply(PiOneElement(pi, (h, u), (e,), v), one) for u in range(len(H))])
        self._rows = {v: pi.coset_products(c) for v, c in cosets.items()}

    def neighbours(self, m):
        """The neighbours(x) of ball_walk, by the row map of m's end."""
        return self._rows[self.pi.morph_end(m)](m)

    def __repr__(self):
        return f"CoveringTree({self.pi.name})"


def tree_truncation(pi, radius, cap=DEFAULT_CAP):
    """The radius-R ball of the universal covering tree, as a coset table
    whose labels are the vertices' canonical normal words."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return ball_walk(pi.covering_tree, radius, cap)


def truncation_boundary_dims(t):
    """(geometric edges, rank, kernel, cokernel) of the boundary map of a
    truncation's coset table, by serre_graphs.boundary_dims."""
    n_e = len(t.origin) // 2
    return (n_e, *boundary_dims(len(t.vertices), n_e, len(blocks(t.rows))))


def exactness_on_truncation(pi, radius, cap=DEFAULT_CAP):
    """Edge space -> vertex space -> scalars on the truncated tree, verified exact.

    The augmentation kills the boundary of every edge by construction, so
    the sequence is exact exactly when the boundary map is injective and its
    cokernel is one-dimensional: no cycles and one component.
    """
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    t = tree_truncation(pi, radius, cap=cap)
    n_e, rank, ker, coker = truncation_boundary_dims(t)
    return Certificate(
        kind="truncation_exactness",
        passed=ker == 0 and coker == 1,
        details={
            "group": pi.name,
            "radius": radius,
            "vertices": len(t.vertices),
            "geometric_edges": n_e,
            "delta_rank": rank,
            "delta_kernel": ker,
            "delta_cokernel": coker,
        },
    )


class HalfTreeSplitting:
    """The two sides of the universal tree across one lifted edge.

    The lifted edge E leaves X, the vertex of the spanning-tree path gamma
    to origin(e0), along e0.  Its stabilizer, the image of the edge group
    at origin(e0), fixes E, so side membership is constant on its cosets.
    E itself counts as part of the terminus half.

    The reduced word d of gamma^-1 g gamma spells the tree geodesic from X
    to g.X (Serre, Trees, I.5).  Its first edge is E exactly when d.es
    starts with e0 and d.gs[0] lies in the stabilizer; then g.X and g.E lie
    past E, as the action has no inversions.  If d.es is empty, g.X = X and
    g.E is E exactly when d.gs[0] lies in the stabilizer.  Otherwise g.X,
    and with it g.E, lies in the origin half.
    """

    def __init__(self, pi, geom_edge):
        graph = pi.graph
        if type(geom_edge) is not int or geom_edge not in graph.edges:
            raise ValueError(f"edge {geom_edge!r} is not an edge of the base graph")
        e0 = min(geom_edge, graph.inverse(geom_edge))
        report = splitting_classify(pi.gog)
        if report.kind_of(e0) == "trivial":
            raise ValueError(f"splitting is trivial at edge {e0}")
        self.pi = pi
        self.e0 = e0
        self.gamma = pi.tree_path(graph.origin(e0))
        self.gamma_inv = pi.inverse(self.gamma)
        self.stabilizer = pi.gog.embeddings[graph.inverse(e0)]

    def _geodesic(self, g):
        """The reduced word of gamma^-1 g gamma: the tree geodesic from X to
        g.X.  When the lifted edge leaves the base vertex, gamma = 1 and the
        normal loop g is that word already, so no product is formed."""
        if not self.gamma.es:
            return g
        pi = self.pi
        return pi.multiply(self.gamma_inv, pi.multiply(g, self.gamma))

    def side_of_translate(self, g):
        """Side of g . (lifted base edge): +1 for the terminus half, -1 otherwise."""
        d = self._geodesic(g)
        return 1 if d.gs[0] in self.stabilizer and (not d.es or d.es[0] == self.e0) else -1

    def translating_cosets(self, g):
        """Elements h with h.E on the tree path between E and g.E, a superset
        of where the side predicates of E and g.E can disagree.  A
        stabilizer coset may recur.

        Serre, Trees, I.5: the length of a reduced word is its tree distance
        from the base vertex, so d = gamma^-1 g gamma crosses the geodesic
        from X to g.X one letter per edge; and the tree edges over e0 at a
        vertex are the left cosets of its stabilizer, so the e0 letter after
        a prefix p of d crosses gamma p gamma^-1 . E.  An inv(e0) letter is
        read from its far end.  The path then adds at most g.E and E.
        """
        pi, e0, e0_inv = self.pi, self.e0, self.pi.graph.inverse(self.e0)
        d = self._geodesic(g)
        out, cur = [], self.gamma
        for i, e in enumerate(d.es):
            # cur, gamma times a prefix of d, stays normal
            nu = pi.multiply(cur, pi.element_at(pi.morph_end(cur), d.gs[i]))
            cur = pi.multiply(nu, pi._letter[e])
            if e in (e0, e0_inv):
                out.append(pi.multiply(nu if e == e0 else cur, self.gamma_inv))
        return tuple(out) + (g, pi.identity())
