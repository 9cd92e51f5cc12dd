#!/usr/bin/env python3
"""Layered pipeline benchmark for piecewise.

Usage, from the repository root::

    python3 pipebench/run.py --workload {mix,wide_link} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, one client in a closed loop.  Set-up generates the
workload's IR sources from the seed and imports the package; it is timed in
fresh child processes and reported as the median.  The benchmark then warms
up on a slice of the workload and repeats whole passes of the pipeline (see
``pipeline.py``) for about ``S`` seconds, and at least the workload's
``min_passes`` times.  The first timed pass also records output digests; the
hashing is not counted as pipeline time.

``--trace 0`` reports the end-to-end metrics.  A stage's time is the sum,
over the operations of one pass (a compiled module, a program's load,
replay or scan, a corpus's footprint table), of the upper quartile of that
operation's times across the passes; ``pipeline_s`` adds the median of the
pass time outside those operations.  On a shared two-vCPU virtual machine
the speed one thread gets switches between two levels about 1.5x apart, for
seconds at a time.  Short samples each see one level, and the upper
quartile of an operation's samples spread over the run reads the slow level
unless the fast one holds for most of the run, so the figures do not jump
with the share of the run the host was fast, as a median or a mean of
whole passes does.  The
latency metrics are percentiles of all loads.  The wall time of every pass
is in the info line.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times (medians), counts and the tracing overhead; the spans are written
to ``pipebench/out/``.  The last line of standard output is the JSON result;
the line before it carries digests, failures and the tail percentile's base.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_TRACED_PASSES = 1  # a traced pass of mix takes thirty seconds or more
WARM_UP_CORPORA = 30
SETUP_SAMPLES = 7
# No p99: on a shared two-core virtual machine, host scheduling stalls of
# 5-25 ms hit about one load in a hundred whatever the code does, so p99 of
# mix's sub-millisecond loads measures the host rather than the loader.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)


def _check_sources():
    if not os.path.isfile(os.path.join(SRC, "piecewise", "__init__.py")):
        sys.exit(f"pipebench: no piecewise sources under {SRC}")


def import_package():
    """Import the checkout's own ``src/piecewise``, never an installed copy."""
    _check_sources()
    sys.path[:0] = [SRC, HERE]
    import piecewise
    from piecewise import _scan, depgraph, gadgets, ir, loader, pta, pwof, study, vm  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(piecewise.__file__))) != SRC:
        sys.exit(f"pipebench: imported piecewise from {piecewise.__file__}, not {SRC}")


def setup(workload: str, seed: int):
    """Import the package and generate the workload; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    generated = workloads.GENERATORS[workload](seed)
    return time.perf_counter() - t0, generated


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, which pay the import every time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    ok = [p for p in TAIL_LADDER if n - math.ceil(p / 100.0 * n) >= 10]
    if not ok:
        raise ValueError(f"{n} loads leave no percentile with ten samples beyond it")
    return max(ok)


def upper_quartile(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(setup_s, passes, min_passes, attempted, failed) -> tuple[dict, dict]:
    from pipeline import STAGES

    loads = [ms for r in passes for ms in r.load_ms]
    # the percentile is fixed by the fewest loads a run can make, so that it
    # does not move when a faster build fits more passes into the run
    tail_p = tail_percentile(len(passes[0].load_ms) * min_passes)
    c = passes[0].counters
    op_s = {key: upper_quartile([r.op_s[key] for r in passes]) for key in passes[0].op_s}
    # what the pass spends outside its timed operations: checks and loop overhead
    rest_s = statistics.median(r.pipeline_s - sum(r.op_s.values()) for r in passes)
    metrics = {"setup_s": (setup_s, "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (sum(v for (s, _), v in op_s.items() if s == stage), "s")
    metrics["pipeline_s"] = (sum(op_s.values()) + rest_s, "s")
    metrics["load_ms.p50"] = (statistics.median(loads), "ms")
    metrics["load_ms.tail"] = (percentile(loads, tail_p), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["removed_fn_pct"] = (
        100.0 * c["loader.removed_functions"] / c["loader.defined_functions"], "%")
    metrics["gadgets_removed_pct"] = (
        100.0 * c["gadgets.gone"] / c["gadgets.unique_before"], "%")
    metrics["ok_ops_pct"] = (100.0 * (attempted - failed) / attempted, "%")
    info = {
        "load_ms.tail": {"percentile": tail_p, "samples": len(loads)},
        "failed_ops_pct": {"value": 100.0 * failed / attempted, "base": attempted},
        "pipeline_s.passes": [r.pipeline_s for r in passes],
        "pipeline_s.outside_ops": rest_s,
    }
    return metrics, info


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    """Medians over the traced passes of per-name self time; counts from the
    last traced pass (every pass does the same work)."""
    windows = [tracer.self_times(*r.spans) for r in traced]
    names = {name for totals, *_ in windows for name in totals}
    self_s = {name: statistics.median(t.get(name, 0.0) for t, *_ in windows)
              for name in names}
    calls = windows[-1][1]
    c = traced[-1].counters
    traced_pipeline = statistics.median(r.pipeline_s - probes
                                        for r, (_, _, probes, _) in zip(traced, windows))
    glue = sum(v for k, v in self_s.items() if k == "pass" or k.startswith("stage."))
    m: dict[str, tuple[float, str]] = {}
    for name in ("ir.parse_module", "ir.lower_code", "depgraph.build_depgraph.full_module",
                 "depgraph.build_depgraph.localized", "depgraph.build_depgraph.pta",
                 "pta.generate_constraints", "pta.solve_inclusion", "pwof.build_dep_section",
                 "pwof.write_module", "pwof.read_module", "loader.preload", "loader.resolve",
                 "loader.compute_retained", "loader.debloat", "vm.run_workloads",
                 "gadgets.scan_process", "scan_kernel.find_gadget_spans", "study.footprint"):
        m[name + ".s"] = (self_s.get(name, 0.0), "s")
    m["ir.parse_module.n"] = (calls.get("ir.parse_module", 0), "count")
    m["pwof.read_module.n"] = (calls.get("pwof.read_module", 0), "count")
    for name, unit in (
            ("ir.statements", "count"), ("depgraph.edges", "count"),
            ("depgraph.required_globals", "count"), ("pta.constraints", "count"),
            ("pta.pts_facts", "count"), ("pta.empty_points_to", "count"),
            ("pwof.bytes_written", "B"), ("pwof.bytes_read", "B"),
            ("loader.modules", "count"), ("loader.bindings", "count"),
            ("loader.retained_functions", "count"), ("loader.removed_functions", "count"),
            ("loader.removed_bytes", "B"), ("loader.nx_pages", "count"),
            ("loader.cow_pages", "count"), ("loader.conservative_retention", "count"),
            ("vm.traces", "count"), ("vm.completed", "count"),
            ("vm.limit_exceeded", "count"), ("vm.entered", "count"),
            ("vm.indirect_targets", "count"), ("gadgets.instructions", "count"),
            ("gadgets.spans", "count"), ("gadgets.unique_before", "count"),
            ("gadgets.unique_after", "count"), ("study.rows", "count"),
            ("study.failures", "count")):
        m[name] = (c[name], unit)
    m["vm.completed_ratio"] = (c["vm.completed"] / c["vm.traces"], "ratio")
    m["gadgets.dedup_ratio"] = (
        (c["gadgets.unique_before"] + c["gadgets.unique_after"]) / c["gadgets.spans"], "ratio")
    m["gadgets.kernel_share"] = (
        self_s.get("scan_kernel.find_gadget_spans", 0.0) / self_s["gadgets.scan_process"], "ratio")
    m["trace.glue_s"] = (glue, "s")
    m["trace.pipeline_s"] = (traced_pipeline, "s")
    m["trace.overhead_s"] = (
        traced_pipeline - statistics.median(r.pipeline_s for r in untraced), "s")
    # where each stage's wall time went: untraced wall, traced wall without
    # probes, and the self time of every span name inside the stage
    stages = {}
    for stage in windows[-1][3]:
        per_pass = [w[3].get(stage, {}) for w in windows]
        layers = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
                  for name in per_pass[-1]}
        stages[stage] = {
            "traced_s": statistics.median(sum(p.values()) for p in per_pass),
            "self_s": layers,
        }
        if stage.startswith("stage."):
            stages[stage]["untraced_s"] = statistics.median(
                r.stage_s(stage.removeprefix("stage.")) for r in untraced)
    info = {"vm.completed_ratio": {"base": c["vm.traces"]},
            "gadgets.dedup_ratio": {"base": c["gadgets.spans"]},
            "traced_passes": len(traced), "stages": stages}
    return m, info


def run(workload, seconds: float, trace: bool, setup_s: float, tag: str) -> tuple[dict, dict]:
    """Measure one workload; returns (result, info): the result line's
    ``correct``, ``attempted``, ``failed`` and ``metrics``, and the info line
    with digests, failures and the metrics' bases."""
    from pipeline import Digests, run_pass
    from tracing import Tracer
    from workloads import Workload

    os.makedirs(OUT, exist_ok=True)
    digests = Digests(os.path.join(OUT, f"study-{tag}.csv"))  # scratch file for hashing
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    # fill the interpreter's caches, and numpy's, before timing
    run_pass(Workload(workload.name, workload.corpora[:WARM_UP_CORPORA], workload.step_limit,
                      workload.min_passes))
    # the workload lives for the whole run; keep it out of the collections
    # the passes trigger, which a process loading one program would not pay
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    if trace:
        while len(untraced) < MIN_TRACED_PASSES or time.perf_counter() < start + seconds:
            # collect the previous pass's garbage outside the timed region
            gc.collect()
            untraced.append(run_pass(workload, digests=None if untraced else digests))
            gc.collect()
            traced.append(run_pass(workload, tracer))
    else:
        # stop before a pass that would end past the deadline
        while len(untraced) < workload.min_passes or \
                time.perf_counter() - start + statistics.median(
                    r.pipeline_s for r in untraced) <= seconds:
            gc.collect()
            untraced.append(run_pass(workload, digests=None if untraced else digests))
    gc.unfreeze()

    if os.path.exists(digests.csv_path):
        os.remove(digests.csv_path)
    passes = untraced + traced
    attempted = sum(r.ops for r in passes)
    failed = sum(len(r.failures) for r in passes)
    failures = {op: why for r in passes for op, why in r.failures.items()}
    if trace:
        metrics, info = per_layer(tracer, traced, untraced)
        tracer.write(os.path.join(OUT, f"trace-{tag}.json"))
    else:
        metrics, info = end_to_end(setup_s, untraced, workload.min_passes, attempted, failed)
    info.update(workload=workload.name, programs=workload.programs,
                digests=digests.hexdigests(), failures=dict(sorted(failures.items())[:20]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mix", "wide_link"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        elapsed, _ = setup(args.workload, args.seed)
        print(elapsed)
        return 0
    _check_sources()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    _, workload = setup(args.workload, args.seed)
    setup_s = statistics.median(setup_samples) if setup_samples else 0.0
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result, info = run(workload, args.seconds, bool(args.trace), setup_s, tag)
    if setup_samples:
        info["setup_s"] = {"samples": setup_samples}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
