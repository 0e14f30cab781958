"""Catalog of test groups and the end-to-end equivalence harness.

Each catalog entry names a group backend, at least one generating pair,
the expected ends class, the expected splitting class, and an independent
oracle that can confirm group arithmetic without the main pipeline.  The
harness runs three measurements per entry -- ends classification from the
coset graph, splitting classification of the graph of groups, and the
witness chain (almost invariance, nonvanishing class, induced cut) -- and
flags any disagreement with the expectations or between the measurements.

Positive verdicts (two or more escaping components, a passing witness) are
genuine lower-bound certificates; negative verdicts are statements at the
probed scale.  The harness accepts a measurement when it matches the
expectation recorded in the entry; it never runs the oracles.  Those back
the expectations only through the tests that check each oracle against the
normal forms, and an entry's provenance names the argument behind each
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ai_cohomology, bass_serre, cayley_abels, ends_cuts
from .bass_serre import Certificate, GraphOfFiniteGroups, PiOne
from .errors import BudgetExceeded, expect
from .group_backends import RewritingGroup


# the truncated tree resolution is checked exact at radii 1..RESOLUTION_RADIUS
RESOLUTION_RADIUS = 4


@dataclass
class Scales:
    r_max: int = 3
    radius: int = 12
    cap: int = 200_000
    probe_radius: int = 8


@dataclass
class CatalogEntry:
    """Backend spec plus expectations and an oracle name.

    expected_ends is one of "0", "1?", "2", ">=3"; provenance records, per
    expectation, which independent argument backs it.
    """

    name: str
    spec: dict
    expected_ends: str
    expected_splitting: str | None = None
    witness_expected: bool = False
    marked_edge: int | None = None
    oracle: str | None = None
    provenance: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)

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
        merged = Scales(**vars(scales))
        if "r_max" in self.scales:
            merged.r_max = self.scales["r_max"]
        if "radius" in self.scales:
            merged.radius = self.scales["radius"]
        return merged

    def to_json(self):
        return {
            "name": self.name,
            "spec": self.spec,
            "expected_ends": self.expected_ends,
            "expected_splitting": self.expected_splitting,
            "witness_expected": self.witness_expected,
            "marked_edge": self.marked_edge,
            "oracle": self.oracle,
            "provenance": self.provenance,
            "scales": self.scales,
        }

    @classmethod
    def from_json(cls, data, where="entry"):
        spec = expect(expect(data, dict, where)["spec"], dict, f"{where}.spec")
        if not expect(spec["pairs"], list, f"{where}.spec.pairs"):
            raise ValueError(f"{where}.spec.pairs must not be empty")
        scales = expect(data.get("scales", {}), dict, f"{where}.scales")
        for key in ("r_max", "radius"):
            if key in scales and type(scales[key]) is not int:
                raise ValueError(f"{where}.scales.{key} must be an integer, got {scales[key]!r}")
        return cls(
            name=expect(data["name"], str, f"{where}.name"),
            spec=spec,
            expected_ends=data["expected_ends"],
            expected_splitting=data.get("expected_splitting"),
            witness_expected=data.get("witness_expected", False),
            marked_edge=data.get("marked_edge"),
            oracle=data.get("oracle"),
            provenance=data.get("provenance", {}),
            scales=scales,
        )


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
        return backend.normal_form(spec)
    if not isinstance(spec, list):
        raise ValueError(f"{where} must be a list of atoms, got {type(spec).__name__}")
    el = backend.identity()
    for j, atom in enumerate(spec):
        if isinstance(atom, dict) and "v" in atom:
            v, g = atom["v"], atom.get("g")
            if v not in backend.graph.vertices:
                raise ValueError(f"{where}[{j}].v names no vertex, got {v!r}")
            if type(g) is not int or not 0 <= g < len(backend.vgroup(v)):
                raise ValueError(f"{where}[{j}].g must index an element of the group at {v!r}, got {g!r}")
            nxt = backend.vertex_inclusion(v, g)
        elif isinstance(atom, dict) and "e" in atom:
            if atom["e"] not in backend.graph.edges:
                raise ValueError(f"{where}[{j}].e names no edge, got {atom['e']!r}")
            nxt = backend.edge_letter(atom["e"])
            if atom.get("inv"):
                nxt = backend.inverse(nxt)
        else:
            raise ValueError(f"bad element atom {atom!r} in {where}")
        el = backend.multiply(el, nxt)
    return el


def subgroup_from_spec(backend, spec, where="K"):
    """K from "trivial", or from {"vertex": v} or {"edge": e} naming a base
    vertex or edge of a graph-of-groups backend.

    Any other spec raises ValueError naming the field `where`.
    """
    if spec == "trivial":
        return cayley_abels.trivial_subgroup(backend)
    if not (isinstance(spec, dict) and spec.keys() & {"vertex", "edge"}):
        raise ValueError(f'{where} must be "trivial", {{"vertex": id}} or {{"edge": id}}, got {spec!r}')
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
    K = subgroup_from_spec(backend, expect(data, dict, where)["K"], f"{where}.K")
    words = expect(data["S"], list, f"{where}.S")
    S = [element_from_spec(backend, s, f"{where}.S[{i}]") for i, s in enumerate(words)]
    return cayley_abels.GeneratingPair(backend, K, S, name=name)


# -- independent oracles --------------------------------------------------


class WordCountOracle:
    """Letter-count homomorphism onto the integers."""

    def __init__(self, backend):
        pass

    def value(self, w):
        return sum(1 if c == "a" else -1 for c in w)


class PairCountOracle:
    """Coordinatewise letter counts for the rank-two abelian group."""

    def __init__(self, backend):
        pass

    def value(self, w):
        return (
            w.count("a") - w.count("A"),
            w.count("b") - w.count("B"),
        )


class FreeReductionOracle:
    """Independent free reduction for free-group words."""

    def __init__(self, backend):
        self.inv = {"a": "A", "A": "a", "b": "B", "B": "b"}

    def value(self, w):
        out = []
        for c in w:
            if out and out[-1] == self.inv[c]:
                out.pop()
            else:
                out.append(c)
        return "".join(out)


class AffineWordOracle:
    """Faithful action of the infinite dihedral group on the integers.

    x acts by n -> -n and y by n -> 1 - n; a word maps to the composite
    affine map (sign, shift).
    """

    def __init__(self, backend):
        self.maps = {"x": (-1, 0), "y": (-1, 1)}

    def value(self, w):
        p, q = 1, 0
        for c in w:
            a, b = self.maps[c]
            p, q = p * a, p * b + q
        return (p, q)


class HNNIntegerOracle:
    """Stable-letter exponent sum for the loop on the trivial group."""

    def __init__(self, backend):
        self.backend = backend
        loop = backend.data.stable_letters[0]
        self.plus = loop
        self.minus = backend.graph.inverse(loop)

    def value(self, el):
        return sum(1 if e == self.plus else -1 for e in el.es)


class AffinePiOracle:
    """Affine-map image of a two-vertex amalgam over the trivial group."""

    def __init__(self, backend):
        self.backend = backend
        u, w = backend.graph.vertices
        self.maps = {u: (-1, 0), w: (-1, 1)}

    def value(self, el):
        chain = self.backend.vertex_chain(self.backend.base_vertex, el.es)
        p, q = 1, 0
        for i, g in enumerate(el.gs):
            v = chain[i]
            G = self.backend.vgroup(v)
            if g != G.identity:
                a, b = self.maps[v]
                p, q = p * a, p * b + q
        return (p, q)


class TreeActionOracle:
    """Faithful-at-scale action on the labels of the radius-6 tree truncation.

    Only usable when the covering-tree action has trivial kernel, e.g. free
    products, where no nontrivial element lies in every vertex stabilizer.
    """

    def __init__(self, backend):
        self.backend = backend
        self.tt = bass_serre.tree_truncation(backend, 6)
        self.labels = list(self.tt.graph.vertices)

    def value(self, el):
        return tuple(self.tt.act_vertex(el, v) for v in self.labels)


class MatrixAmalgamOracle:
    """Faithful two-by-two rational matrices for the order-four amalgam.

    The generators map to [[0,-1],[1,0]] and [[0,-2],[1/2,0]]; both square
    to minus the identity, which realizes the amalgamated central subgroup,
    and their images in the projective group are two involutions with an
    infinite-order product, so the representation has trivial kernel.
    """

    def __init__(self, backend):
        from fractions import Fraction

        self.backend = backend
        u, w = backend.graph.vertices
        h = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
        j = ((Fraction(0), Fraction(-2)), (Fraction(1, 2), Fraction(0)))
        self.gen = {u: h, w: j}

    @staticmethod
    def _mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    def value(self, el):
        from fractions import Fraction

        out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        chain = self.backend.vertex_chain(self.backend.base_vertex, el.es)
        for i, g in enumerate(el.gs):
            m = self.gen[chain[i]]
            for _ in range(g):
                out = self._mul(out, m)
        return out


ORACLES = {
    "integer_word": WordCountOracle,
    "pair_count": PairCountOracle,
    "free_reduction": FreeReductionOracle,
    "affine_word": AffineWordOracle,
    "hnn_integer": HNNIntegerOracle,
    "affine_pi": AffinePiOracle,
    "tree_action": TreeActionOracle,
    "matrix_amalgam": MatrixAmalgamOracle,
}


def make_oracle(entry):
    if entry.oracle is None:
        return None
    return ORACLES[entry.oracle](entry.backend())


# -- the default catalog ---------------------------------------------------


def _rw(name, generators, inverses, rules=()):
    return {
        "type": "rewriting_group",
        "name": name,
        "generators": generators,
        "inverses": inverses,
        "rules": [list(r) for r in rules],
    }


def _cyclic(n):
    return {"kind": "cyclic", "n": n}


def _gog_segment(name, left, right, edge, emb_left, emb_right):
    """Two vertices u, w joined by one geometric edge (ids 0, 1)."""
    return {
        "type": "graph_of_finite_groups",
        "name": name,
        "vertices": [{"id": "u", "group": left}, {"id": "w", "group": right}],
        "edges": [
            {"id": 0, "inv": 1, "o": "u", "t": "w", "edge_group": edge, "embedding": emb_right},
            {"id": 1, "inv": 0, "o": "w", "t": "u", "edge_group": edge, "embedding": emb_left},
        ],
    }


def _gog_loop(name, vertex, edge, emb_fwd, emb_bwd):
    return {
        "type": "graph_of_finite_groups",
        "name": name,
        "vertices": [{"id": "v", "group": vertex}],
        "edges": [
            {"id": 0, "inv": 1, "o": "v", "t": "v", "edge_group": edge, "embedding": emb_fwd},
            {"id": 1, "inv": 0, "o": "v", "t": "v", "edge_group": edge, "embedding": emb_bwd},
        ],
    }


def _gog_point(name, group):
    return {
        "type": "graph_of_finite_groups",
        "name": name,
        "vertices": [{"id": "v", "group": group}],
        "edges": [],
    }


def default_catalog():
    entries = [
        CatalogEntry(
            name="z_rw",
            spec={
                "backend": _rw("Z", ["a"], {"a": "A"}),
                "pairs": [{"K": "trivial", "S": ["a"]}, {"K": "trivial", "S": ["a", "aa"]}],
            },
            expected_ends="2",
            oracle="integer_word",
            provenance={"ends": "faithful translation action on the integer line"},
        ),
        CatalogEntry(
            name="z2_rw",
            spec={
                "backend": _rw(
                    "Z2",
                    ["a", "b"],
                    {"a": "A", "b": "B"},
                    [("ba", "ab"), ("bA", "Ab"), ("Ba", "aB"), ("BA", "AB")],
                ),
                "pairs": [{"K": "trivial", "S": ["a", "b"]}],
            },
            expected_ends="1?",
            oracle="pair_count",
            provenance={"ends": "grid complement of a ball stays connected; one end expected"},
        ),
        CatalogEntry(
            name="f2_rw",
            spec={
                "backend": _rw("F2", ["a", "b"], {"a": "A", "b": "B"}),
                "pairs": [{"K": "trivial", "S": ["a", "b"]}],
            },
            expected_ends=">=3",
            oracle="free_reduction",
            scales={"radius": 8},
            provenance={"ends": "four-regular tree; branches escape independently"},
        ),
        CatalogEntry(
            name="dinfty_rw",
            spec={
                "backend": _rw("Dinf", ["x", "y"], {"x": "x", "y": "y"}),
                "pairs": [
                    {"K": "trivial", "S": ["x", "y"]},
                    {"K": "trivial", "S": ["x", "xy"]},
                ],
            },
            expected_ends="2",
            oracle="affine_word",
            provenance={"ends": "faithful affine action on the integer line"},
        ),
        CatalogEntry(
            name="c6_rw",
            spec={
                "backend": _rw("C6", ["a"], {"a": "A"}, [("aaaa", "AA"), ("AAA", "aaa")]),
                "pairs": [{"K": "trivial", "S": ["a"]}],
            },
            expected_ends="0",
            provenance={"ends": "finite group, enumeration exhausts"},
        ),
        CatalogEntry(
            name="dinfty_gog",
            spec={
                "backend": _gog_segment("C2*C2", _cyclic(2), _cyclic(2), _cyclic(1), [0], [0]),
                "pairs": [
                    {"K": {"edge": 0}, "S": [[{"v": "u", "g": 1}], [{"v": "w", "g": 1}]]},
                    {"K": {"vertex": "u"}, "S": [[{"v": "w", "g": 1}]]},
                ],
            },
            expected_ends="2",
            expected_splitting="nontrivial_s1",
            witness_expected=True,
            marked_edge=0,
            oracle="affine_pi",
            provenance={
                "ends": "faithful affine action on the integer line",
                "splitting": "both factors properly contain the trivial edge group",
            },
        ),
        CatalogEntry(
            name="z_hnn",
            spec={
                "backend": _gog_loop("Z_loop", _cyclic(1), _cyclic(1), [0], [0]),
                "pairs": [{"K": "trivial", "S": [[{"e": 0}]]}],
            },
            expected_ends="2",
            expected_splitting="nontrivial_s2",
            witness_expected=True,
            marked_edge=0,
            oracle="hnn_integer",
            provenance={
                "ends": "stable-letter exponent is a faithful map to the integer line",
                "splitting": "loop edge is a stable letter by definition",
            },
        ),
        CatalogEntry(
            name="c2_c3_gog",
            spec={
                "backend": _gog_segment("C2*C3", _cyclic(2), _cyclic(3), _cyclic(1), [0], [0]),
                "pairs": [
                    {
                        "K": {"edge": 0},
                        "S": [[{"v": "u", "g": 1}], [{"v": "w", "g": 1}]],
                    },
                    {"K": {"vertex": "w"}, "S": [[{"v": "u", "g": 1}]]},
                ],
            },
            expected_ends=">=3",
            expected_splitting="nontrivial_s1",
            witness_expected=True,
            marked_edge=0,
            oracle="tree_action",
            scales={"radius": 8},
            provenance={
                "ends": "biregular tree; three branches at every vertex-group coset",
                "splitting": "both factors properly contain the trivial edge group",
            },
        ),
        CatalogEntry(
            name="c4_c2_c4_gog",
            spec={
                "backend": _gog_segment(
                    "C4*C4/C2", _cyclic(4), _cyclic(4), _cyclic(2), [0, 2], [0, 2]
                ),
                "pairs": [
                    {
                        "K": {"edge": 0},
                        "S": [[{"v": "u", "g": 1}], [{"v": "w", "g": 1}]],
                    }
                ],
            },
            expected_ends="2",
            expected_splitting="nontrivial_s1",
            witness_expected=True,
            marked_edge=0,
            oracle="matrix_amalgam",
            provenance={
                "ends": "index-two edge group on both sides; the covering tree is a line",
                "splitting": "order-two edge group is proper in both order-four factors",
            },
        ),
        CatalogEntry(
            name="c5_gog",
            spec={
                "backend": _gog_point("C5", _cyclic(5)),
                "pairs": [{"K": "trivial", "S": [[{"v": "v", "g": 1}], [{"v": "v", "g": 2}]]}],
            },
            expected_ends="0",
            expected_splitting="no_edge",
            provenance={"ends": "finite group, enumeration exhausts"},
        ),
    ]
    return entries


def catalog_to_json(entries):
    return {"entries": [e.to_json() for e in entries]}


def catalog_from_json(data):
    entries = expect(expect(data, dict, "catalog")["entries"], list, "entries")
    return [CatalogEntry.from_json(e, where=f"entries[{i}]") for i, e in enumerate(entries)]


# -- the equivalence harness ----------------------------------------------


@dataclass
class EquivalenceVerdict:
    entry: str
    ends: list
    splitting: str | None
    witness: dict | None
    consistent: bool
    details: dict

    def to_json(self):
        return {
            "entry": self.entry,
            "ends": self.ends,
            "splitting": self.splitting,
            "witness": self.witness,
            "consistent": self.consistent,
            "details": self.details,
        }


def run_witness_chain(backend, edge, probe_radius, cap):
    """Witness, almost-invariance check, class certificate, induced cut.

    Returns (report, passed): the report `endlab witness` prints, and one
    verdict that needs almost invariance, a nonvanishing class, the
    coboundary bound and at least two escaping components.  An improper
    witness is a failed dh1 entry, not an error.
    """
    w = ai_cohomology.witness_from_splitting(backend, edge, probe_radius=probe_radius, cap=cap)
    t = w.truncation
    inv = ai_cohomology.check_almost_invariance(w, t)
    cut = ai_cohomology.cut_from_witness(w, t)
    report = {
        "witness": {"kind": w.kind, "pair": w.pair.name, "details": {
            k: v for k, v in w.details.items() if k != "properness"}},
        "almost_invariance": inv.to_json(),
        "cut": cut.to_json(),
    }
    try:
        report["dh1"] = ai_cohomology.dh1_nonvanishing_certificate(w, t).to_json()
    except ValueError as exc:
        report["dh1"] = {"passed": False, "error": str(exc)}
    passed = inv.passed and report["dh1"]["passed"] and cut.bound_ok and cut.escaping_components >= 2
    return report, passed


def verify_equivalence(entry, scales=None):
    """Measure ends, splitting and witness chain; flag inconsistencies."""
    scales = entry.effective_scales(scales or Scales())
    backend = entry.backend()
    ends = []
    coarse = set()
    for pair in entry.pairs():
        est = ends_cuts.classify_ends(
            pair, r_max=scales.r_max, radius=scales.radius, cap=scales.cap,
        )
        coarse.add(est.coarse_class())
        ends.append({"pair": pair.name, **est.to_json(), "coarse": est.coarse_class()})
    splitting = None
    if isinstance(backend, PiOne):
        splitting = bass_serre.splitting_classify(backend.gog).overall
    witness = None
    has_nontrivial = splitting in ("nontrivial_s1", "nontrivial_s2")
    if has_nontrivial and entry.marked_edge is not None:
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
    if len(coarse) != 1:
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
    return EquivalenceVerdict(
        entry=entry.name,
        ends=ends,
        splitting=splitting,
        witness=witness,
        consistent=not problems,
        details={"problems": problems, "provenance": entry.provenance},
    )


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


@dataclass
class SuiteReport:
    results: list
    all_consistent: bool
    budget_hit: bool

    def exit_code(self):
        if not self.all_consistent:
            return 1
        if self.budget_hit:
            return 2
        return 0

    def to_json(self):
        return {
            "results": self.results,
            "all_consistent": self.all_consistent,
            "budget_hit": self.budget_hit,
            "exit_code": self.exit_code(),
        }


def run_catalog(entries, scales=None):
    scales = scales or Scales()
    results = []
    all_ok = True
    budget_hit = False
    for entry in sorted(entries, key=lambda e: e.name):
        row = {"entry": entry.name}
        try:
            verdict = verify_equivalence(entry, scales)
            row["equivalence"] = verdict.to_json()
            if isinstance(entry.backend(), PiOne):
                cert = verify_resolution_evidence(entry, scales)
                row["resolution_evidence"] = cert.to_json()
                if not cert.passed:
                    all_ok = False
            if not verdict.consistent:
                all_ok = False
        except BudgetExceeded as exc:
            row["budget_exceeded"] = str(exc)
            budget_hit = True
        results.append(row)
    return SuiteReport(results, all_ok, budget_hit)
