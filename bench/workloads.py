"""Workloads of the endlab benchmark: inputs, set-up, timed steps, output checks.

Every workload calls the public entry points a user reaches, mostly
`endlab.cli.main` with stdout captured.  The seed never changes the
mathematics: it only applies a structure-preserving relabelling (the
rewriting letters of F2, the vertex ids of the C2*C3 graph of groups), so
verdicts, probe counts and coset counts are the same for every seed.  The
outputs are mapped back to the canonical labels and compared against
`expected.json`, which pins them byte for byte.

Run as a script (`python3 bench/workloads.py <workload> <seed>`) it performs
the set-up only; `run.py` times such processes to measure `setup_s`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "endlab" / "__init__.py").is_file():
    raise ImportError(f"no endlab sources under {SRC}")
sys.path.insert(0, str(SRC))

from endlab import bass_serre, cli, theorem_lab  # noqa: E402

WORKLOADS = ("catalog", "f2_ends", "gog_witness")

# Radii per scale.  "full" is what the benchmark measures; "small" keeps the
# same steps at reduced radii so the smoke test runs in seconds.  The catalog
# entries that fix their own radius keep it at both scales.
SCALES = {
    "full": {"catalog": [], "f2_rmax": 3, "f2_R": 9, "probe": 13,
             "gog_rmax": 3, "gog_R": 10, "tree_radius": 14},
    "small": {"catalog": ["--rmax", "1", "--R", "6"], "f2_rmax": 1, "f2_R": 6, "probe": 6,
              "gog_rmax": 1, "gog_R": 6, "tree_radius": 6},
}

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

F2_SPEC = {
    "backend": {
        "type": "rewriting_group",
        "name": "F2",
        "generators": ["a", "b"],
        "inverses": {"a": "A", "b": "B"},
        "rules": [],
    },
    "pairs": [{"K": "trivial", "S": ["a", "b"]}],
}

C2_C3_SPEC = {
    "backend": {
        "type": "graph_of_finite_groups",
        "name": "C2*C3",
        "vertices": [
            {"id": "u", "group": {"kind": "cyclic", "n": 2}},
            {"id": "w", "group": {"kind": "cyclic", "n": 3}},
        ],
        "edges": [
            {"id": 0, "inv": 1, "o": "u", "t": "w",
             "edge_group": {"kind": "cyclic", "n": 1}, "embedding": [0]},
            {"id": 1, "inv": 0, "o": "w", "t": "u",
             "edge_group": {"kind": "cyclic", "n": 1}, "embedding": [0]},
        ],
    },
    "pairs": [
        {"K": {"edge": 0}, "S": [[{"v": "u", "g": 1}], [{"v": "w", "g": 1}]]},
        {"K": {"vertex": "w"}, "S": [[{"v": "u", "g": 1}]]},
    ],
}


def relabel_f2(seed):
    """F2 spec with its four letters renamed, plus the map back.

    The new letters keep the character order of A < B < a < b, and the
    generator list keeps its order, so the shortlex order is unchanged.
    """
    letters = sorted(random.Random(seed).sample(string.ascii_letters, 4))
    to_new = dict(zip("ABab", letters))
    table = str.maketrans(to_new)
    b = F2_SPEC["backend"]
    spec = {
        "backend": {
            **b,
            "generators": [g.translate(table) for g in b["generators"]],
            "inverses": {k.translate(table): v.translate(table) for k, v in b["inverses"].items()},
        },
        "pairs": [{"K": "trivial", "S": [s.translate(table) for s in F2_SPEC["pairs"][0]["S"]]}],
    }
    return spec, str.maketrans({v: k for k, v in to_new.items()})


def relabel_gog(seed):
    """C2*C3 spec with its vertex ids renamed, plus the map back.

    New ids are "V" and five digits, a token no canonical output contains,
    and keep the order u < w.
    """
    u, w = (f"V{n:05d}" for n in sorted(random.Random(seed).sample(range(100_000), 2)))
    rename = {"u": u, "w": w}
    spec = json.loads(json.dumps(C2_C3_SPEC))
    for v in spec["backend"]["vertices"]:
        v["id"] = rename[v["id"]]
    for e in spec["backend"]["edges"]:
        e["o"], e["t"] = rename[e["o"]], rename[e["t"]]
    for pair in spec["pairs"]:
        if "vertex" in pair["K"]:
            pair["K"]["vertex"] = rename[pair["K"]["vertex"]]
        for word in pair["S"]:
            for atom in word:
                atom["v"] = rename[atom["v"]]
    return spec, {new: old for old, new in rename.items()}


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _exactness(backend, radius):
    cert = bass_serre.exactness_on_truncation(backend, radius)
    return (0 if cert.passed else 1), json.dumps(cert.to_json(), indent=2) + "\n"


class Job:
    """One workload, set up: inputs relabelled, spec written, backends built.

    Constructing a Job is the set-up that `setup_s` measures: it builds every
    spec into its backend and generating pairs, which runs the confluence
    check, the graph-of-groups validation and the generator saturation.
    """

    def __init__(self, name, seed, workdir, scale="full"):
        # self.canonical(text) is the output with the seed's relabelling undone
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.expected = EXPECTED[scale][name]
        p = SCALES[scale]
        if name == "catalog":
            for entry in theorem_lab.default_catalog():
                entry.pairs()
            self.canonical = lambda text: text
            self.steps = [("verify", lambda: _cli(["verify", "--default", *p["catalog"]]))]
            return
        if name == "f2_ends":
            spec, back = relabel_f2(seed)
            self.canonical = lambda text: _restore_words(text, back)
        else:
            spec, back = relabel_gog(seed)
            self.canonical = lambda text: _restore_tokens(text, back)
        path = str(Path(workdir) / f"{name}.json")
        Path(path).write_text(json.dumps(spec))
        backend = theorem_lab.backend_from_spec(spec["backend"])
        for i, pair in enumerate(spec["pairs"]):
            theorem_lab.pair_from_spec(backend, pair, name=f"pair{i}")
        if name == "f2_ends":
            self.steps = [
                ("ends", lambda: _cli(["ends", path, "--rmax", str(p["f2_rmax"]), "--R", str(p["f2_R"])])),
                ("cut", lambda: _cli(["cut", path, "--R", str(p["f2_R"])])),
            ]
        else:
            self.steps = [
                ("witness", lambda: _cli(["witness", path, "--edge", "0", "--probe", str(p["probe"])])),
                ("ends", lambda: _cli(["ends", path, "--pair", "1", "--rmax", str(p["gog_rmax"]),
                                       "--R", str(p["gog_R"])])),
                ("exactness", lambda: _exactness(backend, p["tree_radius"])),
            ]

    def run(self):
        """One pass over the workload's steps: [(step, exit code, output)]."""
        return [(label, *step()) for label, step in self.steps]

    def cli_outputs(self, outputs):
        """The texts of a pass that `endlab.cli.main` printed."""
        return [text for label, _, text in outputs if label != "exactness"]

    def check(self, outputs):
        """Failed checks of one pass as messages, and the number attempted.

        Per step: the exit code, the sha256 of the canonical output, and each
        verdict or count named in expected.json.
        """
        failures, attempted = [], 0
        for label, code, text in outputs:
            want = self.expected[label]
            canonical = self.canonical(text)
            attempted += 2
            if code != want["exit"]:
                failures.append(f"{self.name}/{label}: exit {code}, expected {want['exit']}")
            digest = hashlib.sha256(canonical.encode()).hexdigest()
            if digest != want["sha256"]:
                failures.append(f"{self.name}/{label}: output sha256 {digest}, expected {want['sha256']}")
            out = json.loads(canonical)
            for path, value in want["fields"].items():
                attempted += 1
                got = _field(out, path)
                if got != value:
                    failures.append(f"{self.name}/{label}: {path} = {got!r}, expected {value!r}")
        return failures, attempted


def _field(data, path):
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return data


def _restore_words(text, back):
    out = json.loads(text)
    cut = out.get("cut")
    if cut and "vertices" in cut:
        cut["vertices"] = [v.translate(back) for v in cut["vertices"]]
    return json.dumps(out, indent=2) + "\n"


def _restore_tokens(text, back):
    for new, old in back.items():
        text = text.replace(new, old)
    return text


if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        Job(workload, seed, tmp)
