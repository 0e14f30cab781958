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
PiOne forms every product, or over trivial edge groups slices a label
from those of an earlier row with the same junction suffix (its
docstring gives the argument, from Serre's normal form, Trees, I.5).

One BFS over labels, ball_walk, truncates any coset space that gives a
base label, a label order, neighbours(x), the labels of x's neighbours,
and maybe an acceptor: GeneratingPair is one such space, and the covering
tree of bass_serre, whose rows are coset_products maps too, is the other.
The outer sphere's rows keep the labels found in the ball and drop the
rest.  A truncation is its coset table, each fact stored once: the
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
position.  Such a ball is a tree, its BFS trie: each child pairs with its
parent, 2(N - 1) half-edges for N cosets, and the rows must hold exactly
these, so each row is its children in slot order and, past the base,
its parent once, at its state's one cancellation, of one letter.
ball_walk checks that per state, counts each sphere before it forms it,
forms it by bulk extends over its frontier's states, and forms no row, no
edge and no label: the truncation forms them, and the labels' index, only
when something reads them, and the probes read each component of a ball
minus a smaller one as a subtree, one range of positions per sphere (see
ends_cuts).  Every other pair and the covering tree sort each sphere.
"""

from __future__ import annotations

import functools
from array import array
from itertools import chain, islice, repeat

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

    The label walk passes index, rows and origin.  The acceptor walk passes
    trie instead: the BFS parent of each position, the index in S of its
    last letter, its acceptor state, and the shape of each state's row, its
    number of children and the slot of its parent.  The ball is then a tree
    (see ball_walk), and vertices, index, rows and origin are formed from
    the trie, each the first time it is read: label j is label parent[j]
    followed by j's letter, edge 2(j - 1) runs from parent[j] to j, and a
    row lists its children, numbered together, with its parent at its
    state's slot.  The probes read parent and starts only.
    """

    def __init__(self, space, index, starts, rows, origin, radius, exhausted, trie=None):
        self.space = space
        self.trie = trie
        if trie is None:
            self.index, self.rows, self.origin = index, rows, origin
        self.starts = starts
        self.radius = radius
        self.exhausted = exhausted

    @functools.cached_property
    def vertices(self):
        if self.trie is None:
            return tuple(self.index)
        parent, letters = self.trie[:2]
        S = self.space.S
        # a parent lies in the sphere before its child's, so each sphere is one pass
        labels = [self.space.base]
        for end in self.starts[2:]:
            m = len(labels)
            labels += [labels[p] + S[c] for p, c in zip(parent[m:end], letters[m:end])]
        return tuple(labels)

    @functools.cached_property
    def rows(self):
        # read only for a ball of the acceptor walk: each position's children
        # follow those of the positions before it; an outer row, past inner,
        # holds no child
        parent, _, states, shape = self.trie
        inner = self.starts[self.radius]
        rows, j = [], 1
        for i, q in enumerate(states):
            width, up = shape[q] if i < inner else (0, 0)
            row = list(range(j, j + width))
            if i:
                row.insert(up, parent[i])
            rows.append(row)
            j += width
        return rows

    @functools.cached_property
    def origin(self):
        # read only for a ball of the acceptor walk: child j's edge is 2(j - 1)
        parent = self.trie[0]
        origin = [0] * (2 * len(parent) - 2)
        origin[::2] = parent[1:]
        origin[1::2] = range(1, len(parent))
        return origin

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
    neighbours(x), one label per oriented edge at x.  Each
    sphere is one pass over the sphere before it, and the outer sphere is
    the last pass.  A pass looks each label it forms up in index once: a
    new label takes the next position there and the row holds the position
    at once.  A sphere whose labels were not found in label order is then
    renumbered: its labels go back into index sorted, and the row entries
    that point into it follow them.  The outer pass admits no label, so its
    targets past the ball, the labels not in index, are dropped.

    A space that gives an acceptor, a slot table (see GeneratingPair and
    RewritingGroup.slot_table), is walked along it instead, with each
    sphere taken as found.  The frontier is the acceptor state of each of
    its positions, one array item.  Each slot of a state is a child or a
    cancellation.  A child x + c takes the next position and passes its
    state on, recorded by its parent x and the code of c, its index in S,
    with no label formed and no lookup: normal forms are prefix-closed, so
    these name the coset.  A cancellation of k letters is x's k-th
    ancestor.  Each sphere is formed whole, by bulk extends over the child
    slots of its frontier's states, with no loop per slot.

    Such a ball is a tree, its BFS trie, so no row is formed.  A row lists
    its children and the ancestors its cancellations reach, so the edges
    are those of each child and its parent, 2(N - 1) half-edges for N
    positions.  The pairing checks ask that these number the row entries
    and that each row past the base list its parent once: the children
    and the parents fill the 2(N - 1) entries, which leaves no room for
    another.  So each row is its children in slot order and, past the
    base, its parent, at the one cancellation of its state, which is of
    one letter, and the base's state has none.  The walk checks just that
    per state, for the states of each pass's frontier, the outer pass
    included.  The truncation forms the rows and the edges from the trie
    when they are read.

    Raises BudgetExceeded at the first label past the element cap, and
    InternalInconsistency when the rows do not pair up, when a state's
    slots leave the acceptor ball no tree, or when the acceptor walk names
    two cosets alike.  The acceptor walk counts each sphere, its frontier's
    child slots, and refuses one past the cap before it forms a coset of
    it.  A radius past the cap is refused before the walk: a ball not
    closed by radius cap already holds more than cap cosets.
    """
    if radius > cap:
        raise BudgetExceeded(f"radius {radius} is past the cap of {cap} cosets")
    acceptor = getattr(space, "acceptor", None)
    starts = [0, 1]
    balanced = True
    if acceptor is None:
        sort_key, neighbours = space.sort_key, space.neighbours
        # label -> BFS position, in BFS order; while sphere d is found it holds
        # spheres 0..d-1 and the part of sphere d found so far, in the found order
        index = {space.base: 0}
        get = index.get
        frontier = [space.base]
        rows = []
        origin = []
    else:
        # each state's slot list, read once: the letters and the states of its
        # child slots, those that form an x + c, as the bytes of an array each;
        # the k of its other slots; and its row's shape, the number of its
        # children and the slot of its cancellation, where the row lists the
        # parent
        code, letter_code = typecode(len(acceptor)), typecode(len(acceptor[0]))
        child_letters, child_states, cancel_ks, shape = [], [], [], []
        for slots in acceptor:
            slots = tuple(slots)
            children = [(c, p) for c, k, p in slots if k == -1]
            child_letters.append(array(letter_code, [c for c, _ in children]).tobytes())
            child_states.append(array(code, [p for _, p in children]).tobytes())
            ks = [k for _, k, _ in slots]
            cancel_ks.append(tuple(k for k in ks if k != -1))
            shape.append((len(children), ks.index(1) if 1 in ks else None))
        width = [w for w, _ in shape]
        # the BFS parent of each position, the code of its last letter and its
        # state, one sphere at a time; the base is its own parent and the
        # frontier the states of the last sphere
        parent = [0]
        letters = array(letter_code, [0])
        states = frontier = array(code, [0])
    for d in range(1, radius + 2):
        outer_pass = d > radius
        if acceptor is None:
            first = len(rows)
            n = len(index)
            for x in frontier:
                row = []
                for y in neighbours(x):
                    j = get(y)
                    if j is None:
                        if outer_pass:
                            continue  # the outer sphere's target past the ball
                        j = index[y] = len(index)
                        if j >= cap:
                            raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
                    row.append(j)
                rows.append(row)
            if outer_pass:
                break
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
            starts.append(len(index))
        else:
            # the pass's rows, read per state: the base's lists no parent, and
            # every other row its parent once, as its one other slot, a
            # cancellation of one letter
            want = (1,) if d > 1 else ()
            if any(cancel_ks[q] != want for q in set(frontier)):
                balanced = False
            if outer_pass:
                break
            # sphere d is the child slots of its frontier's states, counted
            # before any is formed, and formed in BFS order: each position's
            # children in slot order, the positions in order
            n = len(parent)
            widths = list(map(width.__getitem__, frontier))
            if n + sum(widths) > cap:
                raise BudgetExceeded(f"coset enumeration exceeded cap {cap} at radius {d}")
            parent += chain.from_iterable(map(repeat, range(starts[-2], n), widths))
            letters.frombytes(b"".join(map(child_letters.__getitem__, frontier)))
            frontier = array(code, b"".join(map(child_states.__getitem__, frontier)))
            states += frontier
            starts.append(len(parent))
        if not frontier:
            break
    starts += [starts[-1]] * (radius + 2 - len(starts))  # spheres past exhaustion are empty
    if acceptor is None:
        # pair the half-edges i -> j (i < j) with the half-edges j -> i,
        # numbered by (i, j): edge 2c runs i -> j and its inverse 2c + 1 runs
        # back; each target j > i is paired once, at the first of its
        # parallel half-edges
        for i, row in enumerate(rows):
            last = i
            for j in sorted(row):
                if j > last:
                    last = j
                    n = row.count(j)
                    if rows[j].count(i) != n:
                        balanced = False
                    origin += (i, j) * n
        # with every pair balanced, origin holds each half-edge i -> j (i < j)
        # and its partner, so a half-edge j -> i that row i does not list
        # back, or a self-loop, leaves the total short
        balanced = balanced and len(origin) == sum(map(len, rows))
    if not balanced:
        raise InternalInconsistency(
            f"unbalanced edge multiplicities in the radius-{radius} ball of {space!r}: "
            "two rows list each other a different number of times"
        )
    # an empty frontier means the whole space lies in the ball
    if acceptor is None:
        return Truncation(space, index, starts, rows, origin, radius, not frontier)
    return Truncation(space, None, starts, None, None, radius, not frontier, (parent, letters, states, shape))


def build(pair, radius, cap=DEFAULT_CAP):
    """The radius-R ball of the coset graph of a generating pair, by ball_walk."""
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    return ball_walk(pair, radius, cap)
