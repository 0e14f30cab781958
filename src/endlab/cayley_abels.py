"""Coset graphs for a generating pair (K, S).

Vertices are cosets gK, canonically labelled by the sort-minimal coset
representative.  For each vertex and each s in S there is one oriented
edge from gK to (canonical rep of gK) . s . K; the reverse orientations are
matched up pairwise.  That bookkeeping is only consistent when S is closed
under conjugation by K, so GeneratingPair saturates S under inverses and
K-conjugation at construction (a no-op when K is trivial).  Saturation does
not change the generated subgroup, and coset graphs for the original and
saturated pair are quasi-isometric, so everything the lab measures agrees.

Parallel edges (distinct s with the same target coset) are kept, so every
interior vertex has exactly |S| outgoing edges.

One BFS over labels, ball_walk, truncates any coset space that gives a
base label, a label order and the neighbours of a label: GeneratingPair is
one such space, and the covering tree of bass_serre is the other.  A
truncation is its coset table, each fact stored once: the cosets in BFS
order, where each sphere starts in it, each coset's row of targets inside
the ball, and an origin per oriented edge, edge e having inverse e ^ 1.
"""

from __future__ import annotations

import functools

from .errors import BudgetExceeded, InternalInconsistency
from .group_backends import DEFAULT_CAP
from .serre_graphs import SerreGraph


class Subgroup:
    """Finite subgroup of a backend group, given by its element list."""

    def __init__(self, backend, elements, name="K", check=True):
        self.backend = backend
        self.elements = tuple(sorted(set(elements), key=backend.sort_key))
        self.name = name
        if check:
            self._validate()

    def _validate(self):
        elems = set(self.elements)
        if self.backend.identity() not in elems:
            raise ValueError("subgroup must contain the identity")
        for a in self.elements:
            if self.backend.inverse(a) not in elems:
                raise ValueError("subgroup not closed under inverse")
            for b in self.elements:
                if self.backend.multiply(a, b) not in elems:
                    raise ValueError("subgroup not closed under multiplication")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Subgroup({self.name}, order {len(self.elements)})"


def trivial_subgroup(backend):
    return Subgroup(backend, [backend.identity()], name="1", check=False)


def coset_canonical(backend, K, g):
    """Sort-minimal representative of gK; equal labels iff equal cosets.

    g is taken as the backend's multiply takes its left factor: any word
    for a rewriting backend, a word normal apart from its last group
    element for PiOne.
    """
    return min((backend.multiply(g, k) for k in K.elements), key=backend.sort_key)


class GeneratingPair:
    """A pair (K, S): finite subgroup plus finite symmetric generator list.

    S is normalized, deduplicated, closed under inverses and under
    conjugation by K, and sorted canonically.  Normalizing is the product
    with the identity on the left, so a rewriting backend takes any words
    and PiOne takes normal words.  Elements of K (in particular the
    identity) are rejected.  As a coset space for ball_walk it gives the
    base label, the label order and the neighbours of a label.
    """

    def __init__(self, backend, K, S, name=None):
        self.backend = backend
        self.K = K
        self.sort_key = backend.sort_key
        e = backend.identity()
        self.base = base = coset_canonical(backend, K, e)
        work = [backend.multiply(e, s) for s in S]
        closed = set()
        while work:
            s = work.pop()
            if s in closed:
                continue
            if coset_canonical(backend, K, s) == base:
                raise ValueError(f"generator {s!r} lies in K")
            closed.add(s)
            work.append(backend.inverse(s))
            for k in K.elements:
                work.append(backend.multiply(backend.multiply(k, s), backend.inverse(k)))
        if not closed:
            raise ValueError("empty generating set")
        self.S = tuple(sorted(closed, key=backend.sort_key))
        self.name = name or f"({K.name}; {len(self.S)} gens)"

    @functools.cached_property
    def neighbours(self):
        """The map from a coset label x to the labels of x.s.K, one per s in S.

        The label of x.s.K is the sort-minimal x.(s.k) over the precomputed
        products s.k for k in K, which equals coset_canonical(x.s) by
        associativity and uniqueness of normal forms.  The products x.(s.k)
        come from the backend's right_products, each slot on its own, so a
        wrong product leaves its edge unpaired.
        """
        backend, n_k = self.backend, len(self.K)
        times_k = backend.right_products(self.K.elements)
        products = backend.right_products([g for s in self.S for g in times_k(s)])
        if n_k == 1:
            return products
        sort_key = self.sort_key

        def row(x):
            xg = products(x)
            return [min(xg[i:i + n_k], key=sort_key) for i in range(0, len(xg), n_k)]

        return row

    def act(self, k, label):
        """Left action on coset labels; defined for any group element."""
        return coset_canonical(self.backend, self.K, self.backend.multiply(k, label))

    def __repr__(self):
        return f"GeneratingPair({self.name})"


class Truncation:
    """Radius-R ball of a coset space, as a coset table.

    A coset's label is the canonical representative its space gives it, so
    a label serves as the coset's representative.

    vertices are the labels in BFS order and index, the only label-keyed
    structure, their positions; sphere r is vertices[starts[r]:starts[r + 1]].
    rows[i] lists the positions of the neighbours of vertices[i] inside the
    ball, and oriented edge e runs from origin[e] to origin[e ^ 1].
    """

    def __init__(self, space, index, starts, rows, origin, radius, exhausted):
        self.space = space
        self.index = index
        self.vertices = tuple(index)
        self.starts = starts
        self.rows = rows
        self.origin = origin
        self.radius = radius
        self.exhausted = exhausted

    # the probes read the rows; only the tests, `tree --dot` and the benchmark
    # trace, whose build hook counts graph.vertices, read this label-keyed copy
    @functools.cached_property
    def graph(self):
        v, o = self.vertices, self.origin
        return SerreGraph.from_geometric(v, [(v[i], v[j]) for i, j in zip(o[::2], o[1::2])])

    def ball(self, r):
        """Labels at distance <= r from the base coset, 0 <= r <= radius."""
        return self.vertices[:self.starts[r + 1]]

    def sphere_labels(self, r):
        return self.vertices[self.starts[r]:self.starts[r + 1]]


def ball_walk(space, radius, cap=DEFAULT_CAP):
    """BFS a coset space out to the given radius, as a one-pass coset table.

    The space gives a base label, a label order sort_key and neighbours(x),
    one label per oriented edge at x.  Each sphere is sorted, the outer
    sphere's rows are labelled after it, and the half-edge pass pairs edges
    from the rows.  Raises BudgetExceeded past the element cap, and
    InternalInconsistency when the rows do not pair up.
    """
    sort_key, neighbours = space.sort_key, space.neighbours
    # label -> BFS position, in BFS order; while layer d is scanned it holds spheres 0..d-1
    index = {space.base: 0}
    starts = [0, 1]
    rows = []
    frontier = [space.base]
    for d in range(1, radius + 1):
        found = {}
        labels = []
        for x in frontier:
            row = neighbours(x)
            labels.append(row)
            for y in row:
                if y not in index:
                    found[y] = y
        layer = sorted(found, key=sort_key)
        for y in layer:
            index[y] = len(index)
            if len(index) > cap:
                raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
        starts.append(len(index))
        rows.extend([index[y] for y in row] for row in labels)
        frontier = layer
        if not frontier:
            break
    starts += [len(index)] * (radius + 2 - len(starts))  # spheres past exhaustion are empty
    # the outer sphere, never expanded; its targets beyond the ball are left out
    rows.extend([index[y] for y in neighbours(x) if y in index] for x in frontier)
    # pair the half-edges i -> j (i < j) with the half-edges j -> i, numbered
    # by (i, j): edge 2c runs i -> j and its inverse 2c + 1 runs back
    origin = []
    for i, row in enumerate(rows):
        for j in sorted(set(row)):
            if j > i:
                origin += [i, j] * min(row.count(j), rows[j].count(i))
    if len(origin) != sum(map(len, rows)):
        raise InternalInconsistency(
            f"unbalanced edge multiplicities in the radius-{radius} ball of {space!r}: "
            "two rows list each other a different number of times"
        )
    # an empty frontier means the whole space lies in the ball
    return Truncation(space, index, starts, rows, origin, radius, not frontier)


def build(pair, radius, cap=DEFAULT_CAP):
    """The radius-R ball of the coset graph of a generating pair, by ball_walk."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    return ball_walk(pair, radius, cap)


def ball_enumerate(backend, gens, radius, cap=DEFAULT_CAP):
    """Elements of word length <= radius over gens, in BFS order.

    This is the coset graph of (1, gens): gens is closed under inverses,
    and each BFS layer comes in sort_key order.
    """
    pair = GeneratingPair(backend, trivial_subgroup(backend), gens)
    return build(pair, radius, cap=cap).vertices
