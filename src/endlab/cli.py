"""Command line front end.

All structured output is JSON on stdout; DOT goes to files.  Exit codes:
0 success, 1 inconsistency or failed check, 2 budget exceeded.  Errors are
printed as {"error": kind, "message": ...} with kind invalid_input (exit 1),
internal_inconsistency (exit 1, a defect in endlab) or budget_exceeded
(exit 2).  A reader that closes stdout early gets exit 1 and no error text.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import bass_serre, cayley_abels, ends_cuts, theorem_lab
from .bass_serre import PiOne
from .errors import BudgetExceeded, InternalInconsistency, expect, required
from .group_backends import DEFAULT_CAP
from .serre_graphs import SerreGraph, blocks, boundary_dims


def _load(path):
    with open(path) as fp:
        return json.load(fp)


def _emit(data):
    json.dump(data, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _spec_backend(path):
    spec = expect(_load(path), dict, "spec")
    return spec, theorem_lab.backend_from_spec(required(spec, "backend", "backend"))


def _spec_backend_pairs(path, pair_index):
    spec, backend = _spec_backend(path)
    pairs = [
        theorem_lab.pair_from_spec(backend, p, name=f"pair{i}", where=f"pairs[{i}]")
        for i, p in enumerate(required(spec, "pairs", "pairs", list))
    ]
    if not 0 <= pair_index < len(pairs):
        raise ValueError(f"no pair {pair_index} in spec (found {len(pairs)})")
    return backend, pairs[pair_index]


def cmd_ends(args):
    _, pair = _spec_backend_pairs(args.spec, args.pair)
    est = ends_cuts.classify_ends(
        pair, r_max=args.rmax, radius=args.R, cap=args.cap
    )
    _emit({"pair": pair.name, **est.to_json()})
    return 0


def cmd_cut(args):
    _, pair = _spec_backend_pairs(args.spec, args.pair)
    t = cayley_abels.build(pair, args.R, cap=args.cap)
    cut = ends_cuts.find_cut(t)
    _emit({"pair": pair.name, "cut": cut.to_json() if cut else None})
    return 0


def cmd_witness(args):
    _, backend = _spec_backend(args.spec)
    if not isinstance(backend, PiOne):
        raise ValueError("witness extraction needs a graph-of-groups backend")
    report, passed = theorem_lab.run_witness_chain(backend, args.edge, args.probe, args.cap)
    _emit(report)
    return 0 if passed else 1


def cmd_tree(args):
    _, backend = _spec_backend(args.spec)
    if not isinstance(backend, PiOne):
        raise ValueError("tree truncation needs a graph-of-groups backend")
    tt = bass_serre.tree_truncation(backend, args.radius, cap=args.cap)
    if args.dot:
        palette = ["white", "lightblue", "lightyellow", "lightpink", "lightgreen", "lavender"]
        colors = {v: palette[r % len(palette)] for r in range(args.radius + 1) for v in tt.sphere_labels(r)}
        with open(args.dot, "w") as fp:
            fp.write(tt.graph.to_dot(name="tree", vertex_color=colors))
    n_e = len(tt.origin) // 2
    _, ker, coker = boundary_dims(len(tt.vertices), n_e, len(blocks(tt.rows)))
    _emit({
        "group": backend.name,
        "radius": args.radius,
        "vertices": len(tt.vertices),
        "geometric_edges": n_e,
        "is_tree": ker == 0 and coker == 1,
        "dot": args.dot,
    })
    return 0


def cmd_homology(args):
    graph = SerreGraph.from_json(_load(args.graph))
    rank, ker, coker = boundary_dims(len(graph.vertices), len(graph.edges) // 2, len(graph.components()))
    _emit({
        "vertices": len(graph.vertices),
        "geometric_edges": len(graph.geometric_edges()),
        "components": coker,
        "delta_rank": rank,
        "cycle_space_dim": ker,
        "component_space_dim": coker,
        "is_tree": ker == 0 and coker == 1,
    })
    return 0


def cmd_verify(args):
    if args.default and args.catalog is not None:
        raise ValueError(
            f"verify takes a catalog file or --default, not both: got {args.catalog} and --default"
        )
    if args.catalog is None:
        entries = theorem_lab.default_catalog()
    else:
        entries = theorem_lab.catalog_from_json(_load(args.catalog))
    scales = theorem_lab.Scales(cap=args.cap)
    if args.rmax is not None:
        scales.r_max = args.rmax
    if args.R is not None:
        scales.radius = args.R
    report = theorem_lab.run_catalog(entries, scales)
    _emit(report.to_json())
    return report.exit_code()


def build_parser():
    p = argparse.ArgumentParser(prog="endlab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ends", help="classify the ends of a group spec")
    sp.add_argument("spec")
    sp.add_argument("--pair", type=int, default=0)
    sp.add_argument("--rmax", type=int, default=3)
    sp.add_argument("--R", type=int, default=12)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_ends)

    sp = sub.add_parser("cut", help="extract a cut from the coset graph")
    sp.add_argument("spec")
    sp.add_argument("--pair", type=int, default=0)
    sp.add_argument("--R", type=int, default=12)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_cut)

    sp = sub.add_parser("witness", help="build and check a splitting witness")
    sp.add_argument("spec")
    sp.add_argument("--edge", type=int, required=True)
    sp.add_argument("--probe", type=int, default=8)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("tree", help="truncate the universal covering tree")
    sp.add_argument("spec")
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--dot")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("homology", help="kernel/cokernel of the boundary map of a graph")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("verify", help="run the catalog equivalence suite")
    sp.add_argument("catalog", nargs="?")
    sp.add_argument("--default", action="store_true")
    sp.add_argument("--rmax", type=int)
    sp.add_argument("--R", type=int)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be at least 1, got {args.cap}")
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: emit nothing there, and point it at
        # devnull so that the flush at exit stays quiet too
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except BudgetExceeded as exc:
        _emit({"error": "budget_exceeded", "message": str(exc)})
        return 2
    except InternalInconsistency as exc:
        _emit({"error": "internal_inconsistency", "message": str(exc)})
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _emit({"error": "invalid_input", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
