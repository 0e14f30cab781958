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
removes the pinches across the junction, at most min(|a|, |b|) of them,
and carries left from the junction only while the carry is nontrivial,
since both sides are already normal; it raises ValueError when b does not
start where a ends.  Serre's normal form theorem (Trees, 1980, I.5) makes
the normal word of an element unique, so its result does not depend on
how the word was built.  Every word is grown from normal words by it: an
edge letter e is the normal word 1 e 1, and PiOne.normalize, for a raw
word, is multiply folded over its letters.

PiOne.pinches(a, b) walks multiply's junction loop alone and counts its
pinches j, so the product's length |a| + |b| - 2j, which leads the sort
key, is known before the product is formed.  Since multiply reads only the
head of b that the junction reaches, PiOne.coset_products takes the least
product x.b over a coset s.K from the least b alone whenever the junction
stops inside the head all of s.K share; otherwise it forms only the
products of least length.  The junction also reads only a bounded suffix
of x, so coset_products counts these pinches once per suffix and reuses
the plan they give, the least length and the members that reach it, for
every later row that ends the same way.  Given the ceiling of
cayley_abels.ball_walk on the outer sphere, coset_products, right_products
and the covering tree leave out every label whose length is past the
ceiling's.

The universal covering tree is a coset space for cayley_abels.ball_walk,
materialized only as finite coset tables and read through reduced words
alone: a vertex, a coset of a vertex group, is labelled by its least normal
word, and tree edges carry no labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cayley_abels import ball_walk
from .errors import BudgetExceeded, expect, required
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
        for ge in g.geometric_edges():
            if ge.rep not in self.egroups:
                raise ValueError(f"geometric edge {ge.rep} has no edge group")
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
    kind = required(data, "kind", f"{where}.kind")
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
    if kind == "table":
        elements = required(data, "elements", f"{where}.elements", list)
        table = required(data, "table", f"{where}.table", list)
        for i, row in enumerate(table):
            if not isinstance(row, list) or any(type(x) is not int for x in row):
                raise ValueError(f"{where}.table[{i}] must be a list of integers, got {row!r}")
        return FiniteGroup(elements, table)
    raise ValueError(f"unknown group kind {kind!r}")


@dataclass
class BassSerreData:
    """Deterministic scaffolding fixed by validation."""

    base_vertex: object
    spanning_tree: frozenset
    tree_paths: dict
    stable_letters: tuple
    transversals: dict
    decompositions: dict
    image_inverse: dict


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

    def __mul__(self, other):
        return self.pi.multiply(self, other)

    def inverse(self):
        return self.pi.inverse(self)

    def __invert__(self):
        return self.pi.inverse(self)

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
        self.graph = gog.graph
        self.base_vertex = gog.graph.vertices[0]
        self.data = validate(gog)
        self.name = f"pi1({gog.name})"
        # per-edge tables for multiply: pinch[e] maps an image element h at
        # terminus(e) to the element b at origin(e) with e h = b e; push[e]
        # maps x to (s, b) with x = h s for the transversal rep s, b as for
        # pinch, and b None when h is the identity; letter[e] is the normal
        # word 1 e 1, since the identity is the first transversal rep
        g, emb = gog.graph, gog.embeddings
        self._inverse = {e: g.inverse(e) for e in g.edges}
        self._origin = {e: g.origin(e) for e in g.edges}
        self._terminus = {e: g.terminus(e) for e in g.edges}
        self._origin_table = {e: gog.vgroups[g.origin(e)].table for e in g.edges}
        self._table = {v: G.table for v, G in gog.vgroups.items()}
        self._inverse_table = {v: G.inverse_table for v, G in gog.vgroups.items()}
        self._pinch, self._push, self._letter = {}, {}, {}
        for e in g.edges:
            back = emb[g.inverse(e)]
            one = gog.vgroups[g.origin(e)].identity
            self._letter[e] = PiOneElement(self, (one, gog.vgroups[g.terminus(e)].identity), (e,), g.origin(e))
            self._pinch[e] = {h: back[a] for h, a in self.data.image_inverse[e].items()}
            self._push[e] = {
                x: (s, None if back[a] == one else back[a])
                for x, (a, s) in self.data.decompositions[e].items()
            }

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
        multiply, letter, terminus = self.multiply, self._letter, self._terminus
        m = PiOneElement(self, (gs[0],), (), start)
        for e, g in zip(es, gs[1:]):
            m = multiply(multiply(m, letter[e]), PiOneElement(self, (g,), (), terminus[e]))
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

    def append_mul(self, m, u):
        """m followed by the vertex-group element u at its endpoint."""
        G = self.vgroup(self.morph_end(m))
        return PiOneElement(self, m.gs[:-1] + (G.mul(m.gs[-1], u),), m.es, m.start)

    # -- canonical labels in the universal tree -----------------------------
    def vertex_label(self, m):
        """The canonical label of the tree vertex of m: the least normal form
        of m.u, u in the group at its end.

        m is normal apart from its last group element, as a left factor of
        multiply is, so each m.u only has its last element pushed.  Pushing
        keeps the edge letters, so the least form has the least elements.
        """
        head, k = list(m.gs[:-1]), len(m.es)
        forms = []
        for y in range(len(self.vgroup(self.morph_end(m)))):
            G = head + [y]
            self._push_to_transversals(G, m.es, k)
            forms.append(tuple(G))
        return PiOneElement(self, min(forms), m.es, m.start)

    # -- group backend protocol ---------------------------------------------
    def identity(self):
        return PiOneElement(self, (self.vgroup(self.base_vertex).identity,), (), self.base_vertex)

    def multiply(self, a, b):
        """A word a, normal apart from its last group element, followed by a
        normal word b that starts where a ends.

        Both words are trusted as they are, so only the junction is worked
        on: the two elements that meet there merge, pinches across it are
        removed while the last edge of a and the next edge of b are inverse
        and the merged element lies in that edge's image, and the merged
        element is pushed to its transversal representative, carrying left
        only while the carry is nontrivial.
        """
        end = self.morph_end(a)
        if end != b.start:
            raise ValueError(f"words do not meet: the first ends at {end!r}, the second starts at {b.start!r}")
        mid = self._table[end][a.gs[-1]][b.gs[0]]
        inverse, pinch, table = self._inverse, self._pinch, self._origin_table
        i, j, m = len(a.es), 0, len(b.es)
        while i and j < m and inverse[a.es[i - 1]] == b.es[j]:
            f = a.es[i - 1]
            c = pinch[f].get(mid)
            if c is None:
                break
            t = table[f]
            mid = t[t[a.gs[i - 1]][c]][b.gs[j + 1]]
            i -= 1
            j += 1
        head = a.es[:i]
        G = [*a.gs[:i], mid]
        self._push_to_transversals(G, head, i)
        return PiOneElement(self, (*G, *b.gs[j + 1:]), head + b.es[j:], a.start)

    def pinches(self, a, b):
        """The number j of pinches multiply(a, b) removes at the junction,
        so that the product has |a| + |b| - 2j edge letters.

        It walks multiply's junction loop and forms nothing else: no
        tuple, no push and no word.  The loop is a copy of multiply's,
        since a helper shared by both adds a call to every product.
        """
        end = self.morph_end(a)
        if end != b.start:
            raise ValueError(f"words do not meet: the first ends at {end!r}, the second starts at {b.start!r}")
        mid = self._table[end][a.gs[-1]][b.gs[0]]
        inverse, pinch, table = self._inverse, self._pinch, self._origin_table
        i, j, m = len(a.es), 0, len(b.es)
        while i and j < m and inverse[a.es[i - 1]] == b.es[j]:
            f = a.es[i - 1]
            c = pinch[f].get(mid)
            if c is None:
                break
            t = table[f]
            mid = t[t[a.gs[i - 1]][c]][b.gs[j + 1]]
            i -= 1
            j += 1
        return j

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

    def right_products(self, gens):
        """The map x -> [x.g for g in gens], for normal words x and gens.

        The map is x, ceiling=None -> row, the neighbours(x, ceiling) of
        cayley_abels.ball_walk.  Given a ceiling, the row leaves out each g
        whose product has more than ceiling[0] edge letters, a length known
        before the product is formed: |x| + |g| - 2j, j = pinches(x, g).
        """
        gens, multiply, pinches = tuple(gens), self.multiply, self.pinches

        def row(x, ceiling=None):
            if ceiling is None:
                return [multiply(x, g) for g in gens]
            room = ceiling[0] - len(x.es)
            return [multiply(x, g) for g in gens if len(g.es) - 2 * pinches(x, g) <= room]

        return row

    def coset_products(self, gens, K):
        """The map x -> [the least x.g.k over k in K, for g in gens], for
        normal words x and gens and the elements K of a finite subgroup.

        Each g gets its coset g.K once, as the sort-ordered normal words B,
        and c, the number of leading group elements and edge letters that
        every member of B shares.  A product x.b has |x| + |b| - 2j edge
        letters, j = pinches(x, b), and the sort key leads with that
        length, so each slot reads j for B[0] first.  When j < c, the
        junction reads the same letters and stops at the same j for every
        member b, so every x.b is one pushed head followed by b's own tail:
        the products order as B does, and x.B[0] is the least by uniqueness
        of normal forms (Serre, Trees, I.5).  Otherwise the slot reads j for
        every member and forms only the products of least length: one is
        the label as it stands, and ties take the least of the tied
        products.  Each slot forms its own product.

        The junction loop reads at most the last M edge letters of x, M the
        most edge letters of any member, and the last M group elements: the
        element it merges at the last pinch is never read.  So a slot's
        plan, its least growth |x.b| - |x| and the members that reach it,
        depends only on that suffix of x.  The map works out a row's plans
        once per suffix and keeps them in a dict of its own, which lives as
        long as the map; a row then only checks the ceiling and forms its
        products.

        The map is x, ceiling=None -> row, the neighbours(x, ceiling) of
        cayley_abels.ball_walk.  Given a ceiling, the row leaves out each
        slot whose least length is above ceiling[0].
        """
        multiply, pinches, sort_key = self.multiply, self.pinches, self.sort_key
        slots = []
        for g in gens:
            B = sorted((multiply(g, k) for k in K), key=sort_key)
            b0, c = B[0], 0
            while all(len(b.es) > c and b.gs[c] == b0.gs[c] and b.es[c] == b0.es[c] for b in B):
                c += 1
            slots.append((B, c))
        M = max(len(b.es) for B, _ in slots for b in B)
        plans = {}

        def plan(x):
            out = []
            for B, c in slots:
                # the growth |x.b| - |x| of each member b, read from its pinches
                j = pinches(x, B[0])
                if j < c:
                    out.append((len(B[0].es) - 2 * j, B[:1]))
                    continue
                grow = [len(B[0].es) - 2 * j, *(len(b.es) - 2 * pinches(x, b) for b in B[1:])]
                least = min(grow)
                out.append((least, [b for b, k in zip(B, grow) if k == least]))
            return out

        def row(x, ceiling=None):
            key = (x.es[-M:], x.gs[-M:]) if M else ()
            slot_plans = plans.get(key)
            if slot_plans is None:
                slot_plans = plans[key] = plan(x)
            room = None if ceiling is None else ceiling[0] - len(x.es)
            out = []
            for least, tied in slot_plans:
                if room is not None and least > room:
                    continue
                if len(tied) == 1:
                    out.append(multiply(x, tied[0]))
                else:
                    out.append(min([multiply(x, b) for b in tied], key=sort_key))
            return out

        return row

    def sort_key(self, a):
        return (len(a.es), a.es, a.gs)

    # -- distinguished elements and subgroups --------------------------------
    def tree_path(self, v):
        """The spanning-tree path from the base vertex to v, a normal word."""
        m = self.identity()
        for e in self.data.tree_paths[v]:
            m = self.multiply(m, self._letter[e])
        return m

    def vertex_inclusion(self, v, u):
        """The vertex-group element u of vgroup(v) as a fundamental group element."""
        p = self.tree_path(v)
        return self.multiply(self.append_mul(p, u), self.inverse(p))

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
        gamma = self.tree_path(self.graph.origin(e))
        gamma_inv = self.inverse(gamma)
        ims = self.gog.embeddings[self.graph.inverse(e)]
        return tuple(self.multiply(self.append_mul(gamma, u), gamma_inv) for u in ims)

    def default_generators(self):
        """Symmetric generating list: vertex-group elements and stable letters."""
        gens = []
        for v in self.graph.vertices:
            for u in range(len(self.vgroup(v))):
                if u != self.vgroup(v).identity:
                    gens.append(self.vertex_inclusion(v, u))
        for rep in self.data.stable_letters:
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


def validate(gog):
    """Check the structural invariants and fix the deterministic scaffolding."""
    graph = gog.graph
    v0 = graph.vertices[0]
    # BFS spanning tree, smallest edge id first
    tree_paths = {v0: ()}
    tree_geom = set()
    frontier = [v0]
    while frontier:
        nxt = []
        for v in frontier:
            for e in graph.star(v):
                w = graph.terminus(e)
                if w not in tree_paths:
                    tree_paths[w] = tree_paths[v] + (e,)
                    tree_geom.add(min(e, graph.inverse(e)))
                    nxt.append(w)
        frontier = nxt
    if len(tree_paths) != len(graph.vertices):
        raise ValueError("base graph is not connected")
    stable = tuple(
        ge.rep for ge in graph.geometric_edges() if ge.rep not in tree_geom
    )
    transversals, decompositions, image_inverse = {}, {}, {}
    for e in graph.edges:
        H = gog.vgroups[graph.terminus(e)]
        eg = gog.edge_group(e)
        img = gog.embeddings[e]
        image_inverse[e] = {img[a]: a for a in range(len(eg))}
        order = [H.identity] + [i for i in range(len(H)) if i != H.identity]
        taken = {}
        transversal = []
        for x in order:
            if x in taken:
                continue
            transversal.append(x)
            for a in range(len(eg)):
                taken[H.mul(img[a], x)] = (a, x)
        transversals[e] = tuple(transversal)
        decompositions[e] = taken
    return BassSerreData(
        base_vertex=v0,
        spanning_tree=frozenset(tree_geom),
        tree_paths=tree_paths,
        stable_letters=stable,
        transversals=transversals,
        decompositions=decompositions,
        image_inverse=image_inverse,
    )


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
    for ge in graph.geometric_edges():
        e = ge.rep
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
    least normal word (vertex_label).  By Serre, Trees, I.5, the tree edges
    over e at the vertex of m correspond to the left cosets h.A_e, A_e the
    image of the edge group at origin(e), so m h e meets each once as h
    runs over the least elements of the cosets.
    """

    def __init__(self, pi):
        self.pi = pi
        self.sort_key = pi.sort_key
        self.base = pi.vertex_label(pi.identity())
        graph, emb = pi.graph, pi.gog.embeddings
        # v -> (h, e) per tree edge at a vertex over v
        self._steps = {v: [] for v in graph.vertices}
        for e in graph.edges:
            G = pi.vgroup(graph.origin(e))
            mins = {min(G.mul(h, a) for a in emb[graph.inverse(e)]) for h in range(len(G))}
            self._steps[graph.origin(e)] += [(h, e) for h in sorted(mins)]

    def neighbours(self, m, ceiling=None):
        """The labels of the tree neighbours of m, the neighbours(x,
        ceiling) of ball_walk.  Given a ceiling, it leaves out each child
        m h e with more than ceiling[0] edge letters, |m| + 1 - 2j for j its
        pinches, before the child is formed."""
        pi, letter = self.pi, self.pi._letter
        steps = [(pi.append_mul(m, h), letter[e]) for h, e in self._steps[pi.morph_end(m)]]
        if ceiling is not None:
            room = ceiling[0] - len(m.es) - 1
            steps = [(a, b) for a, b in steps if -2 * pi.pinches(a, b) <= room]
        return [pi.vertex_label(pi.multiply(a, b)) for a, b in steps]

    def act(self, g, m):
        """The label of g.m for g in the fundamental group."""
        return self.pi.vertex_label(self.pi.multiply(g, m))

    def __repr__(self):
        return f"CoveringTree({self.pi.name})"


def tree_truncation(pi, radius, cap=DEFAULT_CAP):
    """The radius-R ball of the universal covering tree, as a coset table
    whose labels are the vertices' canonical normal words."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return ball_walk(CoveringTree(pi), radius, cap)


def exactness_on_truncation(pi, radius, cap=DEFAULT_CAP):
    """Edge space -> vertex space -> scalars on the truncated tree, verified exact.

    The augmentation kills the boundary of every edge by construction, so
    the sequence is exact exactly when the boundary map is injective and its
    cokernel is one-dimensional: no cycles and one component.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    t = tree_truncation(pi, radius, cap=cap)
    n_e = len(t.origin) // 2
    rank, ker, coker = boundary_dims(len(t.vertices), n_e, len(blocks(t.rows)))
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
        """The reduced word of gamma^-1 g gamma: the tree geodesic from X to g.X."""
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
            nu = pi.append_mul(cur, d.gs[i])
            cur = pi.multiply(nu, pi._letter[e])
            if e in (e0, e0_inv):
                out.append(pi.multiply(nu if e == e0 else cur, self.gamma_inv))
        return tuple(out) + (g, pi.identity())
