"""Almost invariant sets, degree-one cohomology witnesses, and level maps.

A witness is a K-invariant subset B of the coset space G/K whose left
translates sB differ from B in a finite, explicitly certified set for
every generator s.  Witnesses are manufactured from a nontrivial splitting
by pulling the two halves of the universal tree back along the orbit of
the lifted splitting edge; the edge group K fixes that edge, so the half a
translate lands in is constant on K-cosets, which makes the set exactly
K-invariant rather than just almost so.

Nonvanishing of the degree-one cohomology at level K is decided set
theoretically: a proper witness (both sides escaping at probe scale) is
neither almost zero nor constant, so its class survives; the level maps
are injective, so one level certifies the limit.  The derivation attached
to a witness is g -> g.chi_B - chi_B, and the eta level maps average a
coset over its refinement with weight 1/[U:V].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bass_serre import Certificate, HalfTreeSplitting
from .cayley_abels import GeneratingPair, Subgroup, build, coset_canonical
from .ends_cuts import coboundary, escaping_components
from .group_backends import DEFAULT_CAP
from .qlinalg import SparseMatrixQ


class AIWitness:
    """Membership predicate with per-generator difference certificates.

    chi maps a coset representative to 0 or 1 and must be constant on
    cosets of pair.K.  certificates[i] is a finite list of coset labels
    containing where chi and its translate by pair.S[i] can disagree.
    difference_support(g), when available, lists candidate labels for the
    support of g.chi - chi for arbitrary g.  truncation, when set, is the
    coset-graph ball the witness was probed on, for callers to reuse.
    """

    def __init__(self, pair, chi, certificates, difference_support=None, kind="custom", details=None):
        self.pair = pair
        self.chi = chi
        self.certificates = tuple(tuple(c) for c in certificates)
        self._diff_support = difference_support
        self.kind = kind
        self.details = dict(details or {})
        self.truncation = None
        if len(self.certificates) != len(pair.S):
            raise ValueError("need one certificate set per generator")

    def translate_chi(self, g, label):
        """chi(g^{-1} . label), i.e. the indicator of g.B at the label."""
        return self.chi(self.pair.act(self.pair.backend.inverse(g), label))

    def difference_support(self, g):
        if self._diff_support is None:
            raise ValueError("witness has no difference-support enumerator")
        return self._diff_support(g)


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

    def diff_support(g):
        # translating_cosets may name a coset twice; keep its first place
        return tuple(dict.fromkeys(
            coset_canonical(pi, pair.K, h) for h in half.translating_cosets(g)
        ))

    certificates = [diff_support(s) for s in pair.S]
    w = AIWitness(
        pair,
        chi,
        certificates,
        difference_support=diff_support,
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
    witness is neither, so its class survives the quotient, and the level
    maps are injective, so one level suffices.  Raises ValueError for an
    improper witness.
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
    backend = w.pair.backend
    inside = [v for v in t.vertices if w.chi(coset_canonical(backend, w.pair.K, backend.inverse(v)))]
    cb = coboundary(t, inside)
    bound = sum(len(c) for c in w.certificates)
    # the interior endpoints: cb holds both orientations, so the origins suffice
    outer = t.starts[t.radius]
    probe = {t.vertices[i] for i in map(t.origin.__getitem__, cb) if i < outer}
    esc = 0
    if probe:
        esc = sum(1 for _, escaping in escaping_components(t, probe) if escaping)
    return WitnessCut(
        vertices=tuple(inside),
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


class DerivationValues:
    """The derivation g -> g.chi_B - chi_B as finitely supported vectors."""

    def __init__(self, witness):
        self.witness = witness
        self.per_generator = {
            si: self.value(s) for si, s in enumerate(witness.pair.S)
        }

    def value(self, g):
        """d(g) as a dict coset label -> rational coefficient."""
        w = self.witness
        out = {}
        for label in w.difference_support(g):
            c = Fraction(w.translate_chi(g, label) - w.chi(label))
            if c:
                out[label] = c
        return out

    def translate(self, g, vec):
        """The module action g . vec on a finitely supported vector."""
        out = {}
        for label, c in vec.items():
            moved = self.witness.pair.act(g, label)
            out[moved] = out.get(moved, Fraction(0)) + c
        return {k: v for k, v in out.items() if v}

    def cocycle_defect(self, g, h):
        """d(gh) - (g.d(h) + d(g)); the zero dict when the identity holds."""
        backend = self.witness.pair.backend
        gh = backend.multiply(g, h)
        lhs = self.value(gh)
        rhs = self.translate(g, self.value(h))
        for k, v in self.value(g).items():
            rhs[k] = rhs.get(k, Fraction(0)) + v
        out = dict(lhs)
        for k, v in rhs.items():
            out[k] = out.get(k, Fraction(0)) - v
        return {k: v for k, v in out.items() if v}


def principal_derivation(backend, K, m_vec):
    """d(g) = g.m - m for a K-fixed finitely supported vector m."""

    def value(g):
        out = {}
        for label, c in m_vec.items():
            moved = coset_canonical(backend, K, backend.multiply(g, label))
            out[moved] = out.get(moved, Fraction(0)) + c
        for label, c in m_vec.items():
            out[label] = out.get(label, Fraction(0)) - c
        return {k: v for k, v in out.items() if v}

    return value


@dataclass
class LevelMap:
    """Matrix of the averaging map from U-cosets to V-cosets."""

    u_name: str
    v_name: str
    index: int
    matrix: SparseMatrixQ
    row_labels: tuple
    col_labels: tuple

    def as_label_dict(self):
        out = {c: {} for c in self.col_labels}
        for (i, j), x in self.matrix.entries.items():
            out[self.col_labels[j]][self.row_labels[i]] = x
        return out

    def column_sums(self):
        sums = [Fraction(0)] * len(self.col_labels)
        for (_, j), x in self.matrix.entries.items():
            sums[j] += x
        return sums

    def is_injective(self):
        return self.matrix.rank() == len(self.col_labels)

    def is_identity_on_labels(self):
        if set(self.row_labels) != set(self.col_labels):
            return False
        d = self.as_label_dict()
        return all(d[c] == {c: Fraction(1)} for c in self.col_labels)


def right_saturate(backend, elements, U):
    """Close an element list under right multiplication by U."""
    out = {}
    for g in elements:
        for u in U.elements:
            x = backend.multiply(g, u)
            out[x] = True
    return sorted(out, key=backend.sort_key)


def subgroup_transversal(backend, U, V):
    """Identity-first transversal of V in U: U as a disjoint union of rV."""
    velems = set(V.elements)
    if not velems <= set(U.elements):
        raise ValueError(f"{V.name} is not a subgroup of {U.name}")
    reps = []
    seen = set()
    for u in U.elements:  # sorted canonically; identity sorts first
        lab = coset_canonical(backend, V, u)
        if lab not in seen:
            seen.add(lab)
            reps.append(u)
    reps.sort(key=lambda r: (r != backend.identity(), backend.sort_key(r)))
    return reps


def eta_map(backend, U, V, elements):
    """Averaging map from U-cosets to V-cosets on an enumerated window.

    elements must be closed under right multiplication by U (see
    right_saturate) so that every refining V-coset of an enumerated
    U-coset is present.  Each column carries [U:V] entries of 1/[U:V].
    """
    transversal = subgroup_transversal(backend, U, V)
    idx = len(transversal)
    col_labels = sorted(
        {coset_canonical(backend, U, g) for g in elements}, key=backend.sort_key
    )
    row_labels = sorted(
        {coset_canonical(backend, V, g) for g in elements}, key=backend.sort_key
    )
    row_index = {lab: i for i, lab in enumerate(row_labels)}
    entries = {}
    weight = Fraction(1, idx)
    for j, col in enumerate(col_labels):
        for r in transversal:
            lab = coset_canonical(backend, V, backend.multiply(col, r))
            if lab not in row_index:
                raise ValueError(
                    "window is not right-saturated: refine elements with right_saturate"
                )
            entries[(row_index[lab], j)] = weight
    return LevelMap(
        u_name=U.name,
        v_name=V.name,
        index=idx,
        matrix=SparseMatrixQ(len(row_labels), len(col_labels), entries),
        row_labels=tuple(row_labels),
        col_labels=tuple(col_labels),
    )


def compose_level_maps(second, first):
    """The composite window map: apply first (U to V), then second (V to W)."""
    fdict = first.as_label_dict()
    sdict = second.as_label_dict()
    out = {}
    for col, vec in fdict.items():
        acc = {}
        for vlab, x in vec.items():
            if vlab not in sdict:
                raise ValueError("windows do not align; build both maps from one saturated list")
            for wlab, y in sdict[vlab].items():
                acc[wlab] = acc.get(wlab, Fraction(0)) + x * y
        out[col] = {k: v for k, v in acc.items() if v}
    return out
