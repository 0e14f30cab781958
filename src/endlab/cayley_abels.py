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

The label of x.s.K is the least of the |K| products x.b, b in the coset
s.K.  Both backends form their rows with one method, coset_products,
given the members of each coset: a rewriting backend takes K trivial, and
PiOne needs most products only by their length (its docstring gives the
argument, from Serre's normal form, Trees, I.5).

One BFS over labels, ball_walk, truncates any coset space that gives a
base label, a label order, neighbours(x, ceiling=None), the labels of x's
neighbours, and maybe an acceptor: GeneratingPair is one such space, and
the covering tree of bass_serre, whose rows are coset_products maps too,
is the other.  Given a ceiling, a sort key no less than x's, neighbours
may leave out any label whose key it knows exceeds it, as PiOne leaves out
the products longer than the ceiling; ball_walk passes the largest key in
the ball for the outer sphere only, whose targets past the ball it drops
anyway.  A truncation is its coset table, each fact stored once: the
cosets in BFS order, where each sphere starts in it, each coset's row of
targets inside the ball, and an origin per oriented edge, edge e having
inverse e ^ 1.

ball_walk numbers each coset as found, in one pass per sphere, the
outer sphere the last.  The label walk looks each label up once and gives
a new one the next position; a sphere found out of label order is
renumbered, so the cosets stay in BFS order with each sphere sorted.  The
edges are numbered by (i, j), i < j, and paired from the rows after the
walk.

The acceptor is the one claim that each sphere turns up in label order.
A pair gives one when K = 1, S is the whole alphabet of a confluent
shortlex rewriting system and every rule cancels (see GeneratingPair).
ball_walk then keeps the acceptor state of each frontier position, the
last M - 1 letters of its label for M the longest left-hand side's
length, and reads each slot's outcome off the backend's slot table,
which normal_form fills in once per state and letter, one of two: a
child, the next coset, numbered by its BFS parent and its last letter
with no label formed and no lookup, or a cancellation, an ancestor of the
position.  It counts each sphere before it forms it, pairs each row as it
forms it, and forms no label: the truncation forms the labels, and their
index, only when something reads them, and the probes read positions
only.  Every other pair and the covering tree sort each sphere.
"""

from __future__ import annotations

import functools
from array import array
from itertools import islice

from .errors import BudgetExceeded, InternalInconsistency
from .group_backends import DEFAULT_CAP, RewritingGroup
from .serre_graphs import SerreGraph


class Subgroup:
    """Finite subgroup of a backend group: elements, sorted, and members, their set.

    Each element must be a normal form, one the product with the identity
    leaves as it is, so that distinct elements are distinct group elements.
    """

    def __init__(self, backend, elements, name="K"):
        e = backend.identity()
        for a in elements:
            if backend.multiply(e, a) != a:
                raise ValueError(f"subgroup element {a!r} is not a normal form")
        self.backend = backend
        self.elements = tuple(sorted(set(elements), key=backend.sort_key))
        self.name = name
        self.members = members = frozenset(self.elements)
        if e not in members:
            raise ValueError("subgroup must contain the identity")
        for a in self.elements:
            if backend.inverse(a) not in members:
                raise ValueError("subgroup not closed under inverse")
            for b in self.elements:
                if backend.multiply(a, b) not in members:
                    raise ValueError("subgroup not closed under multiplication")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Subgroup({self.name}, order {len(self.elements)})"


def trivial_subgroup(backend):
    return Subgroup(backend, [backend.identity()], name="1")


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
    identity) are rejected, by lookup, as normal forms are unique.  As a
    coset space for ball_walk it gives the base label, the label order, the
    neighbours of a label and, for some pairs, an acceptor.

    The acceptor vouches that ball_walk finds each sphere in label order,
    so need not sort it.  A pair gives one when K is trivial, the backend
    is a RewritingGroup, confluent by construction, whose every rule
    cancels, and S is exactly its alphabet as one-letter words.  Normal
    forms are then the shortlex-least words, hence geodesic and
    prefix-closed, and the walk scans sphere d in shortlex order.  A
    normal form y of length d + 1 is x' + c' with x' = y[:-1] in sphere d,
    and it first turns up at slot c' of the row of x': any other x, c with
    x.c = y has x' + c' <lex x + c, so x' comes before x, or x' = x and c'
    before c.  Every product of length <= d is already in the ball, so the
    walk finds exactly sphere d + 1, ordered by (x', c'), which is
    shortlex.  Where S leaves out a letter or holds a longer word, a sphere
    can turn up out of order (F2 with S = {a, bb} at sphere 2), so every
    other pair sorts.

    The acceptor is the backend's slot_table.  By the argument above, an
    irreducible x + c is a coset not yet found, and as every rule cancels,
    any other x.c is a prefix of x, in the ball already.  A rule that does
    not cancel (Z^2's ba -> ab, say) makes some x.c neither, and
    slot_table gives None.
    """

    def __init__(self, backend, K, S, name=None):
        self.backend = backend
        self.K = K
        self.sort_key = backend.sort_key
        e = backend.identity()
        self.base = coset_canonical(backend, K, e)
        work = [backend.multiply(e, s) for s in S]
        closed = set()
        while work:
            s = work.pop()
            if s in closed:
                continue
            if s in K.members:
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
    def acceptor(self):
        """For K = 1 and S the whole alphabet of a rewriting backend, the
        backend's slot_table, from which ball_walk forms each sphere, or
        None where a rule does not cancel; None for any other pair."""
        backend = self.backend
        if isinstance(backend, RewritingGroup) and len(self.K) == 1 and self.S == tuple(backend.alphabet):
            return backend.slot_table()
        return None

    @functools.cached_property
    def neighbours(self):
        """The map from a coset label x to the labels of x.s.K, one per s in S.

        The backend's coset_products forms the sort-minimal x.b over the
        members s.k of each coset, which is coset_canonical(x.s) by
        associativity and uniqueness of normal forms; s.1 is s, a normal
        word.  The map is cached here.  Each slot gets its own product, so a
        wrong one leaves its edge unpaired.  ball_walk reads it for a pair
        with no acceptor.
        """
        backend, one = self.backend, self.backend.identity()
        cosets = [[s, *(backend.multiply(s, k) for k in self.K.elements if k != one)] for s in self.S]
        return backend.coset_products(cosets)

    def act(self, k, label):
        """Left action on coset labels; defined for any group element.

        For K = 1 the product of k and the normal word label is the label.
        """
        if len(self.K) == 1:
            return self.backend.multiply(k, label)
        return coset_canonical(self.backend, self.K, self.backend.multiply(k, label))

    def __repr__(self):
        return f"GeneratingPair({self.name})"


class Truncation:
    """Radius-R ball of a coset space, as a coset table.

    A coset's label is the canonical representative its space gives it, so
    a label serves as the coset's representative.

    vertices are the labels in BFS order, each sphere sorted by the label
    order, and index their positions, in the same order; sphere r is
    vertices[starts[r]:starts[r + 1]].  rows[i] lists the positions of the
    neighbours of vertices[i] inside the ball, and oriented edge e runs
    from origin[e] to origin[e ^ 1].

    The label walk passes index.  The acceptor walk passes trie instead:
    the BFS parent of each position and the index in S of its last letter.
    vertices are formed from it, label j being label parent[j] followed by
    j's letter, and then index, each the first time it is read: the probes
    read positions only.
    """

    def __init__(self, space, index, starts, rows, origin, radius, exhausted, trie=None):
        self.space = space
        if index is not None:
            self.index = index
        self.trie = trie
        self.starts = starts
        self.rows = rows
        self.origin = origin
        self.radius = radius
        self.exhausted = exhausted

    @functools.cached_property
    def vertices(self):
        if self.trie is None:
            return tuple(self.index)
        parent, letters = self.trie
        S = self.space.S
        # a parent lies in the sphere before its child's, so each sphere is one pass
        labels = [self.space.base]
        for end in self.starts[2:]:
            m = len(labels)
            labels += [labels[p] + S[c] for p, c in zip(parent[m:end], letters[m:end])]
        return tuple(labels)

    @functools.cached_property
    def index(self):
        # read only for a ball of the acceptor walk: the label walk passes it
        v = self.vertices
        index = dict(zip(v, range(len(v))))
        if len(index) < len(v):
            y = next(y for j, y in enumerate(v) if index[y] != j)
            raise InternalInconsistency(
                f"the label {y!r} names two cosets of the radius-{self.radius} ball of {self.space!r}: "
                "a walk along the acceptor forms each normal form once"
            )
        return index

    # the probes read the rows; only the tests, `tree --dot` and the benchmark
    # trace, whose build hook counts graph.vertices, read this label-keyed copy
    @functools.cached_property
    def graph(self):
        v, o = self.vertices, self.origin
        return SerreGraph.from_geometric(v, [(v[i], v[j]) for i, j in zip(o[::2], o[1::2])])

    def sphere_labels(self, r):
        return self.vertices[self.starts[r]:self.starts[r + 1]]


def typecode(n):
    """The array typecode of the least item size that holds 0..n - 1."""
    return "B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "L"


def ball_walk(space, radius, cap=DEFAULT_CAP):
    """BFS a coset space out to the given radius, as a one-pass coset table.

    The space gives a base label, a label order sort_key and
    neighbours(x, ceiling=None), one label per oriented edge at x.  Each
    sphere is one pass over the sphere before it, and the outer sphere is
    the last pass.  A pass looks each label it forms up in index once: a
    new label takes the next position there and the row holds the position
    at once.  A sphere whose labels were not found in label order is then
    renumbered: its labels go back into index sorted, and the row entries
    that point into it follow them.  The outer pass admits no label, so its
    targets past the ball are dropped, and it alone passes a ceiling, the
    largest key in the ball, the last of a sphere or the base's: neighbours
    may leave out any label whose key it knows exceeds it, as such a label
    lies outside the ball.

    A space that gives an acceptor, a slot table (see GeneratingPair and
    RewritingGroup.slot_table), is walked along it instead, with each
    sphere taken as found.  The frontier is the acceptor state of each of
    its positions, one array item, and each row is read off the slots of
    its state, each a child or a cancellation.  A child x + c takes the
    next position and passes its state on, recorded by its parent x and
    the code of c, its index in S, with no label formed and no lookup:
    normal forms are prefix-closed, so these name the coset.  A
    cancellation of k letters is x's k-th ancestor.  The outer pass reads
    only the cancellations.  Each row is paired as it is formed, its upward
    targets being its children in slot order, and checked as strictly as
    the label walk's pairs are: a child's row lists its parent once, every
    position has a row, and the half-edges paired number the row entries.

    Raises BudgetExceeded at the first label past the element cap, and
    InternalInconsistency when the rows do not pair up, or when the
    acceptor walk names two cosets alike.  The acceptor walk counts each
    sphere, its frontier's child slots, and refuses one past the cap before
    it forms a coset of it.  A radius past the cap is refused before the
    walk: a ball not closed by radius cap already holds more than cap
    cosets.
    """
    if radius > cap:
        raise BudgetExceeded(f"radius {radius} is past the cap of {cap} cosets")
    acceptor = getattr(space, "acceptor", None)
    starts = [0, 1]
    rows = []
    origin = []
    balanced = True
    if acceptor is None:
        sort_key, neighbours = space.sort_key, space.neighbours
        # label -> BFS position, in BFS order; while sphere d is found it holds
        # spheres 0..d-1 and the part of sphere d found so far, in the found order
        index = {space.base: 0}
        get = index.get
        ceiling = sort_key(space.base)
        frontier = [space.base]
    else:
        # the frontier is the acceptor state of each of its positions, the
        # base's the start state
        code = typecode(len(acceptor))
        frontier = array(code, [0])
        # a state's child slots, those that form an x + c, are the slots
        # its outer slots leave out
        children = [len(every) - len(outer) for outer, every in acceptor]
        # the BFS parent of each position and the code of its last letter,
        # filled as children are found; the base is its own parent
        parent = [0]
        letters = array(typecode(len(acceptor[0][1])), [0])
    for d in range(1, radius + 2):
        outer_pass = d > radius
        first = len(rows)
        if acceptor is None:
            bound = ceiling if outer_pass else None
            n = len(index)
            for x in frontier:
                row = []
                for y in neighbours(x, bound):
                    j = get(y)
                    if j is None:
                        if bound is not None:
                            continue  # the outer sphere's target past the ball
                        j = index[y] = len(index)
                        if j >= cap:
                            raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
                    row.append(j)
                rows.append(row)
        else:
            # sphere d is the child slots of its frontier's states, counted
            # before any is formed
            if not outer_pass and len(parent) + sum(map(children.__getitem__, frontier)) > cap:
                raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
            # the outer sphere reads only the slots that form no x + c
            by_state = [outer if outer_pass else every for outer, every in acceptor]
            grown = array(code)
            for i, q in enumerate(frontier, first):
                row = []
                for c, k, p in by_state[q]:
                    if k == -1:
                        # x + c is irreducible: the next coset of sphere d
                        j = len(parent)
                        parent.append(i)
                        letters.append(c)
                        grown.append(p)
                        origin += (i, j)
                    else:
                        # a cancellation of k letters: x's k-th BFS ancestor
                        j = i
                        while k:
                            j = parent[j]
                            k -= 1
                    row.append(j)
                rows.append(row)
                if i and row.count(parent[i]) != 1:
                    balanced = False  # a child lists its parent other than once
        if outer_pass:
            break
        if acceptor is None:
            frontier = list(islice(index, n, None))
            layer = sorted(frontier, key=sort_key)
            if layer != frontier:
                # reinsert the sphere sorted, so that index order stays BFS
                # order; only the rows just formed point into the sphere
                for y in frontier:
                    del index[y]
                index.update(zip(layer, range(n, n + len(layer))))
                moved = [index[y] for y in frontier]
                for i in range(first, len(rows)):
                    rows[i] = [j if j < n else moved[j - n] for j in rows[i]]
                frontier = layer
            if frontier:
                ceiling = max(ceiling, sort_key(frontier[-1]))
        else:
            frontier = grown
        # sphere d holds the positions past those with a row
        starts.append(len(rows) + len(frontier))
        if not frontier:
            break
    starts += [starts[-1]] * (radius + 2 - len(starts))  # spheres past exhaustion are empty
    # pair the half-edges i -> j (i < j) with the half-edges j -> i, numbered
    # by (i, j): edge 2c runs i -> j and its inverse 2c + 1 runs back; each
    # target j > i is paired once, at the first of its parallel half-edges
    if acceptor is None:
        for i, row in enumerate(rows):
            last = i
            for j in sorted(row):
                if j > last:
                    last = j
                    n = row.count(j)
                    if rows[j].count(i) != n:
                        balanced = False
                    origin += (i, j) * n
    elif len(rows) < len(parent):
        balanced = False  # an outer slot formed a child, which has no row
    # with every pair balanced, origin holds each half-edge i -> j (i < j) and
    # its partner, so a half-edge j -> i that row i does not list back, or a
    # self-loop, leaves the total short
    if not balanced or len(origin) != sum(map(len, rows)):
        raise InternalInconsistency(
            f"unbalanced edge multiplicities in the radius-{radius} ball of {space!r}: "
            "two rows list each other a different number of times"
        )
    # an empty frontier means the whole space lies in the ball
    if acceptor is None:
        return Truncation(space, index, starts, rows, origin, radius, not frontier)
    return Truncation(space, None, starts, rows, origin, radius, not frontier, (parent, letters))


def build(pair, radius, cap=DEFAULT_CAP):
    """The radius-R ball of the coset graph of a generating pair, by ball_walk."""
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    return ball_walk(pair, radius, cap)
