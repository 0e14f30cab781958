"""Almost invariant sets and degree-one cohomology witnesses.

A witness is a K-invariant subset B of the coset space G/K whose left
translates sB differ from B in a finite, explicitly certified set for
every generator s.  Witnesses are manufactured from a nontrivial splitting
by pulling the two halves of the universal tree back along the orbit of
the lifted splitting edge; the edge group K fixes that edge, so the half a
translate lands in is constant on K-cosets, which makes the set exactly
K-invariant rather than just almost so.

A witness is built with the coset-graph ball it is checked on, and
records there once how many cosets of each sphere lie in B and outside
it.  The almost-invariance check, the class certificate and the induced
cut all read that one ball.

Nonvanishing of the degree-one cohomology at level K is decided set
theoretically: a proper witness (both sides escaping at probe scale) is
neither almost zero nor constant, so its class survives.  That the class
persists under the level maps into Bi(G) is the paper's injectivity of
those maps; no level map is built here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .bass_serre import Certificate, HalfTreeSplitting
from .cayley_abels import GeneratingPair, Subgroup, build, coset_canonical
from .ends_cuts import MARGIN, Scales, coboundary, escaping_components


class AIWitness:
    """Membership predicate with per-generator difference certificates,
    checked on one coset-graph ball.

    chi maps a coset representative to 0 or 1 and must be constant on
    cosets of pair.K.  in_cut, if given, maps a coset label v to the
    indicator of the induced cut, chi at the coset of v^-1, which
    cut_from_witness otherwise reads through an inverse and a canonical
    label per coset.  certificates[i] is a finite list of coset labels
    containing where chi and its translate by pair.S[i] can disagree.
    truncation is the ball of pair that every check reads; one of another
    space raises ValueError.  occupancy counts, per sphere 1..radius, the
    cosets in B and outside it, and details["proper"] says whether both
    sides meet every one of those spheres.
    """

    def __init__(self, pair, chi, certificates, truncation, kind="custom", details=None, in_cut=None):
        if truncation.space is not pair:
            raise ValueError("the truncation is a ball of another generating pair")
        self.pair = pair
        self.chi = chi
        self.in_cut = in_cut
        self.certificates = tuple(tuple(c) for c in certificates)
        self.truncation = truncation
        self.kind = kind
        self.details = dict(details or {})
        if len(self.certificates) != len(pair.S):
            raise ValueError("need one certificate set per generator")
        self.occupancy = []
        for r in range(1, truncation.radius + 1):
            labels = truncation.sphere_labels(r)
            inside = sum(map(chi, labels))
            self.occupancy.append({"r": r, "in_B": inside, "out_B": len(labels) - inside})
        self.details["proper"] = bool(self.occupancy) and all(
            row["in_B"] > 0 and row["out_B"] > 0 for row in self.occupancy
        )


def witness_from_splitting(pi, geom_edge, probe_radius=Scales.probe_radius, cap=Scales.cap):
    """Half-tree witness for a nontrivial splitting edge.

    B consists of the cosets gK whose inverse translates the lifted edge
    into its own terminus half, checked on the coset-graph ball of the
    probe radius.  So gK lies in the induced cut exactly when g translates
    the edge into that half: the coset g^-1 K has a representative g^-1 k,
    k in K, and k^-1 g translates the edge into the half g does, as k^-1
    fixes the edge and so maps each half to itself.  The cut is read off g
    with no inverse.  Raises ValueError on a trivial splitting.
    """
    half = HalfTreeSplitting(pi, geom_edge)
    K = Subgroup(pi, pi.edge_subgroup_elements(half.e0), name=f"edge{half.e0}")
    gens = [g for g in pi.default_generators() if g not in K.members]
    pair = GeneratingPair(pi, K, gens, name=f"{pi.name}/edge{half.e0}")

    cache = {}

    def chi(rep):
        # pure in rep, and reps recur across the invariance checks
        if rep not in cache:
            cache[rep] = 1 if half.side_of_translate(pi.inverse(rep)) > 0 else 0
        return cache[rep]

    # translating_cosets may name a coset twice; keep its first place
    certificates = [
        tuple(dict.fromkeys(coset_canonical(pi, K, h) for h in half.translating_cosets(s)))
        for s in pair.S
    ]
    return AIWitness(
        pair,
        chi,
        certificates,
        build(pair, probe_radius, cap=cap),
        kind="half_tree",
        details={"edge": half.e0, "group": pi.name},
        in_cut=lambda v: half.side_of_translate(v) > 0,
    )


def check_almost_invariance(w):
    """Exhaustive check on the witness's ball: kB = B for k in K, and
    sB-differences inside the declared certificates.  Failures are
    verdicts, not errors."""
    backend, t = w.pair.backend, w.truncation
    failures = []
    k_orbits = {}
    cert_union = sorted({c for cert in w.certificates for c in cert}, key=backend.sort_key)
    # chi(g^{-1}.v) is the indicator of g.B at v; each g is inverted once
    chi, act, one = w.chi, w.pair.act, backend.identity()
    for k in w.pair.K.elements:
        k_inv = backend.inverse(k)
        # 1.B = B needs no pass over the ball
        moved = [str(v) for v in t.vertices if chi(act(k_inv, v)) != chi(v)] if k != one else []
        if moved:
            failures.append({"kind": "k_invariance", "k": str(k), "cosets": moved[:10]})
        k_orbits[str(k)] = {str(c): str(act(k, c)) for c in cert_union if c in t.index}
    for si, s in enumerate(w.pair.S):
        cert, s_inv = set(w.certificates[si]), backend.inverse(s)
        outside = [str(v) for v in t.vertices if chi(act(s_inv, v)) != chi(v) and v not in cert]
        if outside:
            failures.append({"kind": "difference_escapes_certificate", "s": str(s), "cosets": outside[:10]})
    return Certificate(
        kind="almost_invariance",
        passed=not failures,
        details={
            "pair": w.pair.name,
            "ball_size": len(t.vertices),
            "difference_sets": [[str(c) for c in cert] for cert in w.certificates],
            "k_orbit_tables": k_orbits,
            "failures": failures,
        },
    )


def dh1_nonvanishing_certificate(w):
    """Certify a nonzero degree-one class at level K from a proper witness.

    An indicator that agrees with a constant plus a finitely supported
    K-fixed vector off a finite set must be finite or cofinite; a proper
    witness is neither, so its class survives the quotient.  The statement's
    persistence clause cites the paper's injective level maps, which are not
    built here.  Raises ValueError for an improper witness.
    """
    if not w.details["proper"]:
        raise ValueError("improper witness: one side dies at probe scale")
    return Certificate(
        kind="dh1_nonvanishing",
        passed=True,
        details={
            "pair": w.pair.name,
            "level": w.pair.K.name,
            "occupancy": w.occupancy,
            "statement": (
                "indicator class is nonzero at this level and persists under the "
                "injective level maps"
            ),
        },
    )


@dataclass
class WitnessCut:
    """The coset set C_B = {gK : g^{-1}K in B} inside a truncation."""

    vertices: tuple
    coboundary: tuple
    bound: int
    bound_ok: bool
    escaping_components: int
    probe_radius: int

    def to_json(self):
        return {
            "size": len(self.vertices),
            "coboundary_oriented": len(self.coboundary),
            "difference_bound": self.bound,
            "bound_ok": self.bound_ok,
            "escaping_components": self.escaping_components,
            "probe_radius": self.probe_radius,
        }


def cut_from_witness(w):
    """Turn a K-invariant witness into a cut of the coset graph.

    The cut lies in the witness's ball.  Membership of gK in C_B is the
    witness's in_cut, or else chi at the inverse coset, which K-invariance
    makes well defined.
    The oriented coboundary is bounded by the total size of the declared
    difference certificates.  Its interior endpoints are the probe whose
    escaping components are counted; like find_cut's, the probe must stay
    MARGIN spheres inside the truncation boundary, or ValueError names the
    radius it needs.
    """
    backend, K, t = w.pair.backend, w.pair.K, w.truncation
    in_cut = w.in_cut or (lambda v: w.chi(coset_canonical(backend, K, backend.inverse(v))))
    members = [i for i, v in enumerate(t.vertices) if in_cut(v)]
    cb = coboundary(t, set(members))
    bound = sum(len(c) for c in w.certificates)
    # the interior endpoints: cb holds both orientations, so the origins suffice
    outer = t.starts[t.radius]
    probe = {i for i in map(t.origin.__getitem__, cb) if i < outer}
    deepest = max(probe, default=-1)
    if deepest >= t.starts[max(t.radius - MARGIN, 0)]:
        r = bisect_right(t.starts, deepest) - 1
        raise ValueError(
            f"witness cut probe reaches sphere {r}, inside the margin of {MARGIN} spheres "
            f"of the radius-{t.radius} truncation; it needs a probe radius of at least {r + MARGIN + 1}"
        )
    esc = len(escaping_components(t, probe)) if probe else 0
    return WitnessCut(
        vertices=tuple(map(t.vertices.__getitem__, members)),
        coboundary=cb,
        bound=bound,
        bound_ok=len(cb) <= bound,
        escaping_components=esc,
        probe_radius=t.radius,
    )

