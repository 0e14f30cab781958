"""Catalog of test groups and the end-to-end equivalence harness.

Each catalog entry names a group backend, at least one generating pair,
the expected ends class, the expected splitting class, and a provenance
recording the argument behind each expectation.  Every catalog is read
from one JSON document by catalog_from_json, which validates each entry;
the built-in catalog is the document catalog.json shipped with the
package, so a new built-in entry is data there.  The harness runs three
measurements per entry -- ends classification from the coset graph,
splitting classification of the graph of groups, and the witness chain
(almost invariance, nonvanishing class, induced cut) -- and flags any
disagreement with the expectations or between the measurements.  Each row
and the whole report are built as the JSON objects `endlab verify` prints.

Positive verdicts (two or more escaping components, a passing witness) are
lower bounds, given that the escaping components are infinite; negative
verdicts are statements at the probed scale.  The harness accepts a
measurement when it matches the expectation recorded in the entry; it
checks the expectation against nothing else, so an entry is only as sound
as the argument its provenance names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from . import ai_cohomology, bass_serre, cayley_abels, ends_cuts
from .bass_serre import Certificate, GraphOfFiniteGroups, PiOne
from .ends_cuts import Scales
from .errors import BudgetExceeded, expect, one_of, required
from .group_backends import RewritingGroup


# the truncated tree resolution is checked exact at radii 1..RESOLUTION_RADIUS
RESOLUTION_RADIUS = 4

# the values a catalog entry may expect: EndsEstimate.coarse_class() and
# SplittingReport.overall for a one-edge base graph or none
ENDS_CLASSES = ("0", "1?", "2", ">=3")
SPLITTING_CLASSES = ("no_edge", "trivial", "nontrivial_s1", "nontrivial_s2")


@dataclass
class CatalogEntry:
    """Backend spec plus expectations and the arguments behind them.

    expected_ends is one of ENDS_CLASSES and expected_splitting, if set, one
    of SPLITTING_CLASSES; provenance maps each expectation ("ends",
    "splitting") to the argument that backs it.  where names the entry in
    its document.  from_json ignores keys it does not know.
    """

    name: str
    spec: dict
    expected_ends: str
    expected_splitting: str | None = None
    witness_expected: bool = False
    marked_edge: int | None = None
    provenance: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)
    where: str = "entry"

    _backend_cache = None

    def backend(self):
        if self._backend_cache is None:
            self._backend_cache = backend_from_spec(self.spec["backend"])
        return self._backend_cache

    def pairs(self):
        backend = self.backend()
        return [
            pair_from_spec(backend, p, name=f"{self.name}/pair{i}", where=f"{self.name}.pairs[{i}]")
            for i, p in enumerate(self.spec["pairs"])
        ]

    def effective_scales(self, scales):
        """scales with the entry's own r_max and radius in place; a pair
        classify_ends refuses raises ValueError naming the entry, and the
        entry's field at fault where it sets one."""
        merged = replace(scales, **{k: self.scales[k] for k in ("r_max", "radius") if k in self.scales})
        try:
            ends_cuts.check_scales(merged.r_max, merged.radius)
        except ValueError as exc:
            # a negative r_max is at fault alone, else the radius or r_max
            at_fault = ("r_max",) if merged.r_max < 0 else ("radius", "r_max")
            key = next((k for k in at_fault if k in self.scales), None)
            where = f"{self.where}.scales.{key}" if key else self.where
            raise ValueError(f"{where}: {exc}") from None
        return merged

    @classmethod
    def from_json(cls, data, where="entry"):
        spec = required(expect(data, dict, where), "spec", f"{where}.spec", dict)
        required(spec, "backend", f"{where}.spec.backend")
        if not required(spec, "pairs", f"{where}.spec.pairs", list):
            raise ValueError(f"{where}.spec.pairs must not be empty")
        scales = expect(data.get("scales", {}), dict, f"{where}.scales")
        for key in ("r_max", "radius"):
            if key in scales and type(scales[key]) is not int:
                raise ValueError(f"{where}.scales.{key} must be an integer, got {scales[key]!r}")
        marked_edge = data.get("marked_edge")
        if marked_edge is not None:
            expect(marked_edge, int, f"{where}.marked_edge")
        splitting = data.get("expected_splitting")
        if splitting is not None:
            one_of(splitting, SPLITTING_CLASSES, f"{where}.expected_splitting")
        witness_expected = data.get("witness_expected", False)
        if type(witness_expected) is not bool:
            raise ValueError(
                f"{where}.witness_expected must be a boolean, got {type(witness_expected).__name__}"
            )
        entry = cls(
            name=required(data, "name", f"{where}.name", str),
            spec=spec,
            expected_ends=one_of(required(data, "expected_ends", f"{where}.expected_ends"), ENDS_CLASSES, f"{where}.expected_ends"),
            expected_splitting=splitting,
            witness_expected=witness_expected,
            marked_edge=marked_edge,
            provenance=expect(data.get("provenance", {}), dict, f"{where}.provenance"),
            scales=scales,
            where=where,
        )
        # the backend is built here, not after the entry's probes, to check the edge
        if marked_edge is not None:
            backend = entry.backend()
            if not isinstance(backend, PiOne) or marked_edge not in backend.graph.edges:
                raise ValueError(f"{where}.marked_edge names no base edge, got {marked_edge}")
        return entry


# -- backend and pair specs ----------------------------------------------


def backend_from_spec(data):
    if expect(data, dict, "backend").get("type") == "rewriting_group":
        return RewritingGroup.from_json(data)
    if data.get("type") == "graph_of_finite_groups":
        return PiOne(GraphOfFiniteGroups.from_json(data))
    raise ValueError(f"unknown backend type {data.get('type')!r}")


def element_from_spec(backend, spec, where="element"):
    """Parse a group element: a word string (rewriting) or an atom list.

    A spec of the wrong shape raises ValueError naming the field `where`.
    """
    if isinstance(backend, RewritingGroup):
        if not isinstance(spec, str):
            raise ValueError(f"{where} must be a word string, got {type(spec).__name__}")
        for c in spec:
            if c not in backend.alphabet:
                raise ValueError(f"{where} has unknown letter {c!r}, got {spec!r}")
        return backend.normal_form(spec)
    if not isinstance(spec, list):
        raise ValueError(f"{where} must be a list of atoms, got {type(spec).__name__}")
    el = backend.identity()
    for j, atom in enumerate(spec):
        if isinstance(atom, dict) and "v" in atom and "e" in atom:
            raise ValueError(f'{where}[{j}] names both "v" and "e", got {atom!r}')
        if isinstance(atom, dict) and "v" in atom:
            v, g = atom["v"], atom.get("g")
            if type(v) not in (str, int) or v not in backend.graph.vertices:
                raise ValueError(f"{where}[{j}].v names no vertex, got {v!r}")
            if type(g) is not int or not 0 <= g < len(backend.vgroup(v)):
                raise ValueError(f"{where}[{j}].g must index an element of the group at {v!r}, got {g!r}")
            nxt = backend.vertex_inclusion(v, g)
        elif isinstance(atom, dict) and "e" in atom:
            if type(atom["e"]) is not int or atom["e"] not in backend.graph.edges:
                raise ValueError(f"{where}[{j}].e names no edge, got {atom['e']!r}")
            nxt = backend.edge_letter(atom["e"])
            inv = atom.get("inv", False)
            if type(inv) is not bool:
                raise ValueError(f"{where}[{j}].inv must be a boolean, got {type(inv).__name__}")
            if inv:
                nxt = backend.inverse(nxt)
        else:
            raise ValueError(f"bad element atom {atom!r} in {where}")
        el = backend.multiply(el, nxt)
    return el


def subgroup_from_spec(backend, spec, where="K"):
    """K from "trivial", or from {"vertex": v} or {"edge": e}, not both,
    naming a base vertex or edge of a graph-of-groups backend.

    Any other spec raises ValueError naming the field `where`.
    """
    if spec == "trivial":
        return cayley_abels.trivial_subgroup(backend)
    if not (isinstance(spec, dict) and spec.keys() & {"vertex", "edge"}):
        raise ValueError(f'{where} must be "trivial", {{"vertex": id}} or {{"edge": id}}, got {spec!r}')
    if spec.keys() >= {"vertex", "edge"}:
        raise ValueError(f'{where} names both "vertex" and "edge", got {spec!r}')
    kind = "vertex" if "vertex" in spec else "edge"
    if not isinstance(backend, PiOne):
        raise ValueError(f"{where}.{kind} needs a graph-of-groups backend")
    x = spec[kind]
    ids = backend.graph.vertices if kind == "vertex" else backend.graph.edges
    if type(x) not in (str, int) or x not in ids:
        raise ValueError(f"{where}.{kind} names no base {kind}, got {x!r}")
    if kind == "vertex":
        return cayley_abels.Subgroup(backend, backend.vertex_subgroup_elements(x), name=f"G_{x}")
    return cayley_abels.Subgroup(backend, backend.edge_subgroup_elements(x), name=f"G_e{x}")


def pair_from_spec(backend, data, name=None, where="pair"):
    K = subgroup_from_spec(backend, required(expect(data, dict, where), "K", f"{where}.K"), f"{where}.K")
    words = required(data, "S", f"{where}.S", list)
    if not words:
        raise ValueError(f"{where}.S must not be empty")
    S = [element_from_spec(backend, s, f"{where}.S[{i}]") for i, s in enumerate(words)]
    # K is a subgroup, so the saturation of S brings in no element of K that S lacks
    for i, s in enumerate(S):
        if s in K.members:
            raise ValueError(f"{where}.S[{i}] lies in K, got {words[i]!r}")
    return cayley_abels.GeneratingPair(backend, K, S, name=name)


# -- the catalog document ---------------------------------------------------


def catalog_from_json(data):
    """Catalog entries of a document {"entries": [...]}, with unique names."""
    entries = required(expect(data, dict, "catalog"), "entries", "entries", list)
    catalog = [CatalogEntry.from_json(e, where=f"entries[{i}]") for i, e in enumerate(entries)]
    seen = set()
    for i, entry in enumerate(catalog):
        if entry.name in seen:
            raise ValueError(f"entries[{i}].name repeats entry name {entry.name!r}")
        seen.add(entry.name)
    return catalog


def default_catalog():
    """The built-in catalog: the document catalog.json shipped with the package.

    The module's own loader reads it, as pkgutil.get_data does, so a zipped
    package works too.
    """
    data = __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "catalog.json"))
    return catalog_from_json(json.loads(data))


# -- the equivalence harness ----------------------------------------------


def run_witness_chain(backend, edge, probe_radius, cap):
    """Witness, almost-invariance check, class certificate, induced cut.

    Returns (report, passed): the report `endlab witness` prints, and one
    verdict that needs almost invariance, a nonvanishing class, the
    coboundary bound and at least two escaping components.  An improper
    witness is a failed dh1 entry, not an error.
    """
    w = ai_cohomology.witness_from_splitting(backend, edge, probe_radius=probe_radius, cap=cap)
    inv = ai_cohomology.check_almost_invariance(w)
    cut = ai_cohomology.cut_from_witness(w)
    report = {
        "witness": {"kind": w.kind, "pair": w.pair.name, "details": w.details},
        "almost_invariance": inv.to_json(),
        "cut": cut.to_json(),
    }
    try:
        report["dh1"] = ai_cohomology.dh1_nonvanishing_certificate(w).to_json()
    except ValueError as exc:
        report["dh1"] = {"passed": False, "error": str(exc)}
    passed = inv.passed and report["dh1"]["passed"] and cut.bound_ok and cut.escaping_components >= 2
    return report, passed


def verify_equivalence(entry, scales=None):
    """Measure ends, splitting and witness chain; flag inconsistencies.

    Returns the "equivalence" object of the entry's catalog row.
    """
    scales = entry.effective_scales(scales or Scales())
    backend = entry.backend()
    ends = []
    for pair in entry.pairs():
        est = ends_cuts.classify_ends(
            pair, r_max=scales.r_max, radius=scales.radius, cap=scales.cap,
        )
        ends.append({"pair": pair.name, **est.to_json()})
    splitting = marked = None
    if isinstance(backend, PiOne):
        classes = bass_serre.splitting_classify(backend.gog)
        splitting = classes.overall
        # the chain runs on the marked edge's own class: overall is None
        # once the base graph has two or more geometric edges
        if entry.marked_edge is not None:
            e = entry.marked_edge
            marked = classes.kind_of(min(e, backend.graph.inverse(e)))
    witness = None
    if marked in ("nontrivial_s1", "nontrivial_s2"):
        report, passed = run_witness_chain(backend, entry.marked_edge, scales.probe_radius, scales.cap)
        witness = {
            "passed": passed,
            "almost_invariance": report["almost_invariance"]["passed"],
            "dh1_nonvanishing": report["dh1"]["passed"],
            "cut_escaping_components": report["cut"]["escaping_components"],
            "coboundary_bound_ok": report["cut"]["bound_ok"],
            "pair": report["witness"]["pair"],
        }
    problems = []
    if len({row["coarse"] for row in ends}) != 1:
        problems.append("generating pairs disagree on the ends class")
    measured = ends[0]["coarse"]
    if measured != entry.expected_ends:
        problems.append(f"ends {measured} != expected {entry.expected_ends}")
    if entry.expected_splitting is not None and splitting != entry.expected_splitting:
        problems.append(f"splitting {splitting} != expected {entry.expected_splitting}")
    witness_ok = bool(witness and witness["passed"])
    if witness_ok != entry.witness_expected:
        problems.append(f"witness chain {'passed' if witness_ok else 'absent or failed'}, expected {entry.witness_expected}")
    if witness_ok and measured not in ("2", ">=3"):
        problems.append("witness produced a cut but the ends probe saw at most one end")
    return {
        "entry": entry.name,
        "ends": ends,
        "splitting": splitting,
        "witness": witness,
        "consistent": not problems,
        "details": {"problems": problems, "provenance": entry.provenance},
    }


def verify_resolution_evidence(entry, scales=None):
    """Exactness of the truncated tree resolution at every radius."""
    scales = entry.effective_scales(scales or Scales())
    backend = entry.backend()
    if not isinstance(backend, PiOne):
        raise ValueError("resolution evidence needs a graph-of-groups backend")
    certs = [
        bass_serre.exactness_on_truncation(backend, r, cap=scales.cap)
        for r in range(1, RESOLUTION_RADIUS + 1)
    ]
    stab_orders = sorted({len(backend.vgroup(v)) for v in backend.graph.vertices})
    return Certificate(
        kind="resolution_evidence",
        passed=all(c.passed for c in certs),
        details={
            "entry": entry.name,
            "radii": [c.details["radius"] for c in certs],
            "all_exact": all(c.passed for c in certs),
            "vertex_stabilizer_orders": stab_orders,
            "stabilizers_finite": True,
        },
    )


def run_catalog(entries, scales=None):
    """Returns the report `endlab verify` prints: one row per entry, in name
    order, then all_consistent, budget_hit and exit_code -- 1 if any row is
    inconsistent or fails its resolution evidence, else 2 if any row ran out
    of budget, else 0.  Each part of a row counts once formed, so a budget
    hit after it cannot undo an inconsistency."""
    scales = scales or Scales()
    results = []
    all_ok = True
    budget_hit = False
    for entry in sorted(entries, key=lambda e: e.name):
        row = {"entry": entry.name}
        try:
            row["equivalence"] = verdict = verify_equivalence(entry, scales)
            all_ok = all_ok and verdict["consistent"]
            if isinstance(entry.backend(), PiOne):
                row["resolution_evidence"] = cert = verify_resolution_evidence(entry, scales).to_json()
                all_ok = all_ok and cert["passed"]
        except BudgetExceeded as exc:
            row["budget_exceeded"] = str(exc)
            budget_hit = True
        results.append(row)
    return {
        "results": results,
        "all_consistent": all_ok,
        "budget_hit": budget_hit,
        "exit_code": 1 if not all_ok else 2 if budget_hit else 0,
    }
