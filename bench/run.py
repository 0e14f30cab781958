"""Run one endlab benchmark workload and print its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Set-up is timed in fresh processes (`setup_s`, median of SETUP_SAMPLES).
Then the workload's steps run in passes, single-threaded in this process,
until --seconds have elapsed (at least one pass); every pass's outputs are
checked.  A fixed reference computation is timed between the steps of every
pass, and `wall_ref` is the median pass time counted in reference times: the
host's speed swings move both, so their ratio is steady where the seconds
are not.  With --trace 0 the metrics are the end-to-end ones: `setup_s`,
`wall_ref` and `peak_rss_mib`; `wall_s` (median pass) is printed too.  With
--trace 1 one more pass runs with span wrappers installed, and the metrics
are the per-layer ones; the spans are written to
.bench_out/spans_<workload>.csv.gz.

Each metric is printed as "name value unit"; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  failed /
attempted is the failed-check ratio, printed as `failed_ratio`.  Exits with 2
and no result line when the checkout holds no endlab sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7


def time_setup(workload, seed):
    """Seconds from starting a process to its set-up being done and the process gone."""
    t0 = time.perf_counter()
    # wait() without a timeout blocks in waitpid; with one it polls in steps
    # of up to 50 ms, which would round the measurement up to the next poll
    code = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed)],
        stdout=subprocess.DEVNULL,
    ).wait()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up of {workload} exited with {code}")
    return elapsed


def reference_s():
    """Seconds for a fixed computation that shares no code with endlab.

    It enumerates the ball of radius 9 in the free group on a, b as reduced
    words in a dictionary, much like coset enumeration on F2 without the
    rewriting engine, so host contention slows it as it slows a pass.
    """
    t0 = time.perf_counter()
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    seen, frontier = {"": 0}, [""]
    for d in range(1, 10):
        layer = []
        for w in frontier:
            for c in "aAbB":
                if not (w and w[-1] == inverse[c]) and w + c not in seen:
                    seen[w + c] = d
                    layer.append(w + c)
        frontier = sorted(layer)
    if len(seen) != 39_365:
        raise RuntimeError("reference computation miscounted the ball")
    return time.perf_counter() - t0


def timed_pass(job):
    """One pass over the job's steps: (outputs, seconds, reference units).

    The reference computation is timed before the first step and after each
    step, outside the step timings; each step's seconds are divided by the
    mean of the two reference times around it.
    """
    outputs, wall, rel = [], 0.0, 0.0
    ref = reference_s()
    for label, step in job.steps:
        t0 = time.perf_counter()
        code, text = step()
        dt = time.perf_counter() - t0
        after = reference_s()
        outputs.append((label, code, text))
        wall += dt
        rel += dt / ((ref + after) / 2)
        ref = after
    return outputs, wall, rel


def measure(workload, seed, seconds, trace, scale="full"):
    """Run one workload; returns (result printed as the last line, passes, median pass s)."""
    import spans
    import workloads

    failures, attempted = [], 0

    def check(job, outputs):
        nonlocal attempted
        bad, n = job.check(outputs)
        failures.extend(bad)
        attempted += n

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        job = workloads.Job(workload, seed, workdir, scale)
        setup = [time_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
        walls, rels = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            gc.collect()  # start every pass with the last pass's garbage gone
            outputs, wall, rel = timed_pass(job)
            walls.append(wall)
            rels.append(rel)
            check(job, outputs)
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref": (statistics.median(rels), "ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        if trace:
            tracer = spans.Tracer()
            gc.collect()
            with tracer.installed():
                t0 = time.perf_counter_ns()
                outputs = job.run()
                traced_ns = time.perf_counter_ns() - t0
            check(job, outputs)
            metrics = spans.layer_metrics(tracer, traced_ns, wall_s, job.cli_outputs(outputs))
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_csv(out_dir / f"spans_{workload}.csv.gz")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, len(walls), wall_s


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result, passes, wall_s = measure(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload}, seed {args.seed}, {passes} passes")
    print(f"wall_s {wall_s} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_ratio {result['failed'] / result['attempted']} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
