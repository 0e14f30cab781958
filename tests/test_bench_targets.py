"""The functions the benchmark's traced pass wraps by name still exist.

bench/spans.py wraps every LAYERS target on its endlab module, so a target
that is renamed or deleted in endlab breaks `bench/run.py --trace 1`.  The
bench module is loaded by path and only read: no bytecode is written next
to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from endlab import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_on_endlab(monkeypatch):
    spans = load_spans(monkeypatch)
    for layer, targets in spans.LAYERS.items():
        module = importlib.import_module(f"endlab.{layer}")
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                # spans.py replaces the method in the class's own namespace
                assert callable(vars(getattr(module, cls_name)).get(attr)), f"endlab.{layer}.{target}"
            else:
                assert callable(getattr(module, target, None)), f"endlab.{layer}.{target}"
    # installing looks every target up the way the traced pass does, then restores it
    main = cli.main
    with spans.Tracer().installed():
        assert cli.main is not main
    assert cli.main is main
