"""Truncated end counting and cut extraction.

The number of ends of an infinite graph is a supremum over all finite
probe sets, which no finite computation can settle, so every verdict here
carries the scale it was measured at.  A component of the truncation minus
a probe counts as escaping when it reaches the outer sphere; escaping
counts of two or more are genuine lower bounds (provided the escaping
components really are infinite, which the catalog certifies through its
oracles), while "at most one" and "zero" are statements at scale only.
"""

from __future__ import annotations

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


def escaping_components(t, probe):
    """Components of the truncation minus probe, with escape flags.

    A component escapes when it contains a vertex on the outer sphere.
    The probe must stay strictly inside the truncation.  The blocks are
    walked on the rows around the probe, so nothing is copied.
    """
    try:
        probe = [t.index[v] for v in probe]
    except KeyError:
        raise ValueError("probe contains vertices outside the truncation") from None
    # BFS order is sorted by sphere: the outer sphere is the positions from outer on
    outer = t.starts[t.radius]
    if any(i >= outer for i in probe):
        raise ValueError("probe touches the truncation boundary; enlarge the radius")
    vs = t.vertices
    return [(tuple(map(vs.__getitem__, b)), b[-1] >= outer) for b in blocks(t.rows, probe)]


def classify_ends(pair, r_max=3, radius=12, cap=DEFAULT_CAP):
    """Probe the coset graph with balls of radius 0..r_max.

    The verdict is ZeroEnds when the whole graph was exhausted below the
    cap, AtLeast(k) for a maximal escaping count k >= 3, ExactlyTwoAtScale
    for k = 2 and AtMostOneAtScale otherwise.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    if radius <= r_max + MARGIN:
        raise ValueError(f"need radius > r_max + margin, got {radius} <= {r_max} + {MARGIN}")
    t = cayley_abels.build(pair, radius, cap=cap)
    probes = tuple(
        (r, sum(esc for _, esc in escaping_components(t, t.ball(r)))) for r in range(r_max + 1)
    )
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


def coboundary(t, vertex_set):
    """Oriented edges with exactly one endpoint in vertex_set, in id order;
    edge e runs from t.origin[e] to t.origin[e ^ 1]."""
    inside = {t.index[v] for v in vertex_set}
    o = t.origin
    return tuple(e for e, i in enumerate(o) if (i in inside) != (o[e ^ 1] in inside))


def find_cut(t):
    """First ball removal separating two escaping components, or None.

    Probes grow from radius 0 and stay MARGIN steps away from the
    truncation boundary.  The returned component is the one whose
    earliest vertex comes first in the truncation's canonical order,
    which is the order escaping_components lists blocks in.
    """
    for r in range(max(0, t.radius - MARGIN)):
        escaping = [block for block, esc in escaping_components(t, t.ball(r)) if esc]
        if len(escaping) >= 2:
            chosen = escaping[0]
            return Cut(
                vertices=chosen,
                coboundary=coboundary(t, chosen),
                escaping=True,
                complement_escaping=True,
                probe_radius=r,
            )
    return None
