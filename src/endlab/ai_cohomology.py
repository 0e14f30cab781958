"""Almost invariant sets and degree-one cohomology witnesses.

A witness is a K-invariant subset B of the coset space G/K whose left
translates sB differ from B in a finite, explicitly certified set for
every generator s.  Witnesses are manufactured from a nontrivial splitting
by pulling the two halves of the universal tree back along the orbit of
the lifted splitting edge; the edge group K fixes that edge, so the half a
translate lands in is constant on K-cosets, which makes the set exactly
K-invariant rather than just almost so.

Nonvanishing of the degree-one cohomology at level K is decided set
theoretically: a proper witness (both sides escaping at probe scale) is
neither almost zero nor constant, so its class survives.  That the class
persists under the level maps into Bi(G) is the paper's injectivity of
those maps; no level map is built here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bass_serre import Certificate, HalfTreeSplitting
from .cayley_abels import GeneratingPair, Subgroup, build, coset_canonical
from .ends_cuts import coboundary, escaping_components
from .group_backends import DEFAULT_CAP


class AIWitness:
    """Membership predicate with per-generator difference certificates.

    chi maps a coset representative to 0 or 1 and must be constant on
    cosets of pair.K.  certificates[i] is a finite list of coset labels
    containing where chi and its translate by pair.S[i] can disagree.
    truncation, when set, is the coset-graph ball the witness was probed
    on, for callers to reuse.
    """

    def __init__(self, pair, chi, certificates, kind="custom", details=None):
        self.pair = pair
        self.chi = chi
        self.certificates = tuple(tuple(c) for c in certificates)
        self.kind = kind
        self.details = dict(details or {})
        self.truncation = None
        if len(self.certificates) != len(pair.S):
            raise ValueError("need one certificate set per generator")


def witness_from_splitting(pi, geom_edge, probe_radius=8, cap=DEFAULT_CAP):
    """Half-tree witness for a nontrivial splitting edge.

    B consists of the cosets gK whose inverse translates the lifted edge
    into its own terminus half.  The probe-radius truncation the properness
    check ran on is kept as w.truncation.  Raises ValueError on a trivial
    splitting.
    """
    half = HalfTreeSplitting(pi, geom_edge)
    K = Subgroup(pi, pi.edge_subgroup_elements(half.e0), name=f"edge{half.e0}")
    base = coset_canonical(pi, K, pi.identity())
    gens = [
        g for g in pi.default_generators()
        if coset_canonical(pi, K, g) != base
    ]
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
    w = AIWitness(
        pair,
        chi,
        certificates,
        kind="half_tree",
        details={"edge": half.e0, "group": pi.name},
    )
    t = build(pair, probe_radius, cap=cap)
    occupancy = _side_occupancy(w, t)
    w.details["properness"] = occupancy
    w.details["proper"] = _is_proper(occupancy)
    w.truncation = t
    return w


def _side_occupancy(w, t):
    rows = []
    for r in range(1, t.radius + 1):
        labels = t.sphere_labels(r)
        inside = sum(w.chi(v) for v in labels)
        rows.append({"r": r, "in_B": inside, "out_B": len(labels) - inside})
    return rows


def _is_proper(occupancy):
    return bool(occupancy) and all(row["in_B"] > 0 and row["out_B"] > 0 for row in occupancy)


def check_almost_invariance(w, t):
    """Exhaustive ball check: kB = B for k in K, and sB-differences inside
    the declared certificates.  Failures are verdicts, not errors."""
    _require_same_pair(w, t)
    backend = w.pair.backend
    failures = []
    k_orbits = {}
    cert_union = sorted({c for cert in w.certificates for c in cert}, key=backend.sort_key)
    # chi(g^{-1}.v) is the indicator of g.B at v; each g is inverted once
    chi, act = w.chi, w.pair.act
    for k in w.pair.K.elements:
        k_inv = backend.inverse(k)
        moved = [str(v) for v in t.vertices if chi(act(k_inv, v)) != chi(v)]
        if moved:
            failures.append({"kind": "k_invariance", "k": str(k), "cosets": moved[:10]})
        k_orbits[str(k)] = {str(c): str(w.pair.act(k, c)) for c in cert_union if c in t.index}
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


def dh1_nonvanishing_certificate(w, t):
    """Certify a nonzero degree-one class at level K from a proper witness.

    An indicator that agrees with a constant plus a finitely supported
    K-fixed vector off a finite set must be finite or cofinite; a proper
    witness is neither, so its class survives the quotient.  The statement's
    persistence clause cites the paper's injective level maps, which are not
    built here.  Raises ValueError for an improper witness.
    """
    _require_same_pair(w, t)
    occupancy = _side_occupancy(w, t)
    if not _is_proper(occupancy):
        raise ValueError("improper witness: one side dies at probe scale")
    return Certificate(
        kind="dh1_nonvanishing",
        passed=True,
        details={
            "pair": w.pair.name,
            "level": w.pair.K.name,
            "occupancy": occupancy,
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


def cut_from_witness(w, t):
    """Turn a K-invariant witness into a cut of the coset graph.

    Membership of gK in C_B reads the witness at the inverse coset, which
    K-invariance makes well defined.  The oriented coboundary is bounded
    by the total size of the declared difference certificates.
    """
    _require_same_pair(w, t)
    backend, K = w.pair.backend, w.pair.K
    members = [i for i, v in enumerate(t.vertices) if w.chi(coset_canonical(backend, K, backend.inverse(v)))]
    cb = coboundary(t, set(members))
    bound = sum(len(c) for c in w.certificates)
    # the interior endpoints: cb holds both orientations, so the origins suffice
    outer = t.starts[t.radius]
    probe = {i for i in map(t.origin.__getitem__, cb) if i < outer}
    esc = len(escaping_components(t, probe)) if probe else 0
    return WitnessCut(
        vertices=tuple(map(t.vertices.__getitem__, members)),
        coboundary=cb,
        bound=bound,
        bound_ok=len(cb) <= bound,
        escaping_components=esc,
        probe_radius=t.radius,
    )


def _require_same_pair(w, t):
    if t.space is w.pair:
        return
    same = (
        set(t.space.K.elements) == set(w.pair.K.elements)
        and t.space.S == w.pair.S
    )
    if not same:
        raise ValueError("witness and truncation use different generating pairs")

