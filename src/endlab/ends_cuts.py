"""Truncated end counting and cut extraction.

The number of ends of an infinite graph is a supremum over all finite
probe sets, which no finite computation can settle, so every verdict here
carries the scale it was measured at.  A component of the truncation minus
a probe counts as escaping when it reaches the outer sphere.  An escaping
count of two or more is a lower bound on the ends given that the escaping
components are infinite, which nothing here checks: a catalog entry's
provenance records the argument for it.  "At most one" and "zero" are
statements at scale only.

Every probe works on BFS positions and looks labels up only for what is
printed.  escaping_components and coboundary are the one single-probe
routine, shared by find_cut and the witness cut; classify_ends takes every
probe radius from one walk (ball_probes).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import cayley_abels
from .group_backends import DEFAULT_CAP
from .serre_graphs import blocks

ZERO_ENDS = "ZeroEnds"
AT_MOST_ONE = "AtMostOneAtScale"
EXACTLY_TWO = "ExactlyTwoAtScale"
AT_LEAST = "AtLeast"

# probes stay this many steps inside the truncation boundary, where leftover
# shell fragments would fake escaping components
MARGIN = 4


@dataclass
class Scales:
    """The scales of a run, and the one source of their defaults: ends probes
    up to r_max in a ball of this radius, the coset cap, the witness probe."""

    r_max: int = 3
    radius: int = 12
    cap: int = DEFAULT_CAP
    probe_radius: int = 8


@dataclass
class EndsEstimate:
    """Escaping-component counts per probe radius plus the scaled verdict."""

    probes: tuple
    verdict: str
    count: int
    r_max: int
    radius: int
    exhausted: bool

    def coarse_class(self):
        """The (0, 1?, 2, >=3) class; AtLeast(k) values collapse together."""
        if self.verdict == ZERO_ENDS:
            return "0"
        if self.verdict == AT_MOST_ONE:
            return "1?"
        if self.verdict == EXACTLY_TWO:
            return "2"
        return ">=3"

    def to_json(self):
        return {
            "probes": [{"r": r, "c_S": c} for r, c in self.probes],
            "verdict": self.verdict,
            "count": self.count,
            "radii": {"r_max": self.r_max, "R": self.radius},
            "exhausted": self.exhausted,
            "coarse": self.coarse_class(),
        }


def escaping_components(t, removed):
    """The escaping blocks of the truncation minus the positions removed.

    A block escapes when it reaches the outer sphere; each is a sorted list
    of positions, in order of its least one.  removed must stay strictly
    inside the truncation.  The blocks are walked on the rows around it, so
    nothing is copied.
    """
    # BFS order is sorted by sphere: the outer sphere is the positions from outer on
    outer = t.starts[t.radius]
    if any(i >= outer for i in removed):
        raise ValueError("probe touches the truncation boundary; enlarge the radius")
    return [b for b in blocks(t.rows, removed) if b[-1] >= outer]


def check_scales(r_max, radius):
    """Raise ValueError unless classify_ends can probe at r_max and radius."""
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    if radius <= r_max + MARGIN:
        raise ValueError(f"need radius > r_max + margin, got {radius} <= {r_max} + {MARGIN}")


def classify_ends(pair, r_max=Scales.r_max, radius=Scales.radius, cap=Scales.cap):
    """Probe the coset graph with balls of radius 0..r_max.

    The verdict is ZeroEnds when the whole graph was exhausted below the
    cap, AtLeast(k) for a maximal escaping count k >= 3, ExactlyTwoAtScale
    for k = 2 and AtMostOneAtScale otherwise.  The escaping counts come
    from one walk of the truncation minus the largest ball (ball_probes).
    """
    check_scales(r_max, radius)
    t = cayley_abels.build(pair, radius, cap=cap)
    probes = tuple(enumerate(ball_probes(t, r_max)))
    best = max((c for _, c in probes), default=0)
    if t.exhausted:
        verdict, count = ZERO_ENDS, 0
    elif best >= 3:
        verdict, count = AT_LEAST, best
    elif best == 2:
        verdict, count = EXACTLY_TWO, 2
    else:
        verdict, count = AT_MOST_ONE, best
    return EndsEstimate(probes, verdict, count, r_max, t.radius, t.exhausted)


def ball_probes(t, r_max):
    """Escaping counts of B_R minus B_r for r = 0..r_max, from one blocks walk.

    The walk gives the blocks of B_R minus B_{r_max}; adding sphere r back
    to B_R minus B_r gives B_R minus B_{r-1}, by union-find on positions.
    A BFS parent path leads from each block to sphere r_max + 1, and blocks
    are sorted, so a block's positions there are its prefix below starts[r_max + 2].
    """
    s, rows = t.starts, t.rows
    outer, rim = s[t.radius], s[r_max + 2]
    # union-find on the positions below rim; a root carries its block's escape flag
    parent = list(range(rim))
    escapes = bytearray(rim)
    for b in blocks(rows, range(s[r_max + 1])):
        escapes[b[0]] = b[-1] >= outer
        for p in b[1:bisect_left(b, rim)]:
            parent[p] = b[0]

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    count = sum(escapes)
    counts = [count]
    for r in range(r_max, 0, -1):
        lo = s[r]
        # sphere r joins its neighbours in spheres r and r + 1; sphere r - 1 stays out
        for p in range(lo, s[r + 1]):
            for q in rows[p]:
                if q >= lo:
                    a, b = find(p), find(q)
                    if a != b:
                        count -= escapes[a] and escapes[b]
                        escapes[a] |= escapes[b]
                        parent[b] = a
        counts.append(count)
    return counts[::-1]


@dataclass
class Cut:
    """An escaping component with its finite coboundary.

    vertices is connected, coboundary lists the oriented edges with exactly
    one endpoint inside, and complement_escaping records that some other
    component also escapes.
    """

    vertices: tuple
    coboundary: tuple
    escaping: bool
    complement_escaping: bool
    probe_radius: int

    def to_json(self):
        return {
            "size": len(self.vertices),
            "vertices": [str(v) for v in self.vertices],
            "coboundary_oriented": list(self.coboundary),
            "escaping": self.escaping,
            "complement_escaping": self.complement_escaping,
            "probe_radius": self.probe_radius,
        }


def coboundary(t, inside, n=None):
    """Oriented edges among the first n (default all) with exactly one
    endpoint in the position set inside, in id order; edge e runs from
    t.origin[e] to t.origin[e ^ 1]."""
    o = t.origin
    edges = range(len(o) if n is None else n)
    return tuple(e for e in edges if (o[e] in inside) != (o[e ^ 1] in inside))


def find_cut(t):
    """First ball removal separating two escaping components, or None.

    Probes grow from radius 0 and stay MARGIN steps away from the
    truncation boundary.  The returned component is the one whose
    earliest vertex comes first in the truncation's canonical order,
    which is the order blocks lists them in.  An edge leaving a component
    of B_R minus B_r meets B_r, whose positions come first, so the
    coboundary lies in the edge pairs i -> j with i in B_r, which open the
    edge table and touch only positions in B_{r+1}.
    """
    s, rows = t.starts, t.rows
    for r in range(max(0, t.radius - MARGIN)):
        escaping = escaping_components(t, range(s[r + 1]))
        if len(escaping) >= 2:
            chosen = escaping[0]
            n = 2 * sum(j > i for i in range(s[r + 1]) for j in rows[i])
            return Cut(
                vertices=tuple(map(t.vertices.__getitem__, chosen)),
                coboundary=coboundary(t, set(chosen[:bisect_left(chosen, s[r + 2])]), n),
                escaping=True,
                complement_escaping=True,
                probe_radius=r,
            )
    return None
