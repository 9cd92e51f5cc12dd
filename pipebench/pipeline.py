"""One pass of the user pipeline over a workload, with its correctness checks.

A pass goes corpus by corpus.  It compiles every module of the corpus (the
``pwc-link`` path), then for each program loads it (``pwl-load``), replays
it pristine and debloated (``pw-run``), scans the images before and after
removal (``pw-gadgets``), and finally builds the corpus's footprint table
(``pw-study``).  Each
program pipeline is one operation; it fails if it raises
``PiecewiseError`` or breaks a check.  No check compares against a value
stored from an earlier run.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from piecewise import _scan, depgraph, gadgets, ir, loader, pta, pwof, study, vm
from piecewise.errors import PiecewiseError

from tracing import NullTracer, TimedResolver, Tracer
from workloads import STRATEGIES

STAGES = ("compile", "load", "replay", "scan", "study")


@dataclass
class PassResult:
    pipeline_s: float = 0.0
    load_ms: list[float] = field(default_factory=list)
    # (stage, operation) -> seconds: one compiled module, one program's
    # load, replay or scan, or one corpus's footprint table
    op_s: dict[tuple[str, str], float] = field(default_factory=dict)
    ops: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # op -> first problem
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    spans: tuple[int, int] = (0, 0)  # this pass's span indices in a shared Tracer

    def stage_s(self, stage: str) -> float:
        return sum(v for (s, _), v in self.op_s.items() if s == stage)


class Digests:
    """Running SHA-256 per output kind over canonical JSON, in pass order."""

    KINDS = ("bindings", "retained", "debloat_report", "traces", "gadget_reports", "study_csv")

    def __init__(self, csv_path):
        self.csv_path = csv_path
        self.hashes = {kind: hashlib.sha256() for kind in self.KINDS}
        self.seconds = 0.0  # spent hashing inside a pass; not pipeline time

    def add(self, kind: str, obj) -> None:
        data = obj if isinstance(obj, bytes) else \
            json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        self.hashes[kind].update(data)

    def hexdigests(self) -> dict[str, str]:
        return {kind: h.hexdigest() for kind, h in self.hashes.items()}


def _pristine_copy(image: loader.ProcessImage) -> loader.ProcessImage:
    """The image as ``pw-run`` without ``--debloated`` sees it: preloaded and
    bound, before retention and removal touch memory or page state."""
    return loader.ProcessImage(
        image.load_order, image.bases, image.page_size,
        {name: bytearray(mem) for name, mem in image.memory.items()},
        {name: list(states) for name, states in image.page_state.items()},
        image.bindings)


def _compile(ci, corpus, tracer, result, unused_strategies) -> loader.MemoryResolver:
    traced = isinstance(tracer, Tracer)
    counters = result.counters
    blobs = {}
    for name, src in corpus.sources.items():
        t0 = time.perf_counter()
        with tracer.span("ir.parse_module"):
            module = ir.parse_module(src)
        with tracer.span("ir.lower_code"):
            image = ir.lower_code(module)
        with tracer.span("depgraph.build_depgraph." + corpus.strategy):
            graph = depgraph.build_depgraph(module, corpus.strategy)
        with tracer.span("pwof.build_dep_section"):
            dep = pwof.build_dep_section(module, image, graph)
        training = tuple(pwof.TrainingRecord(*rec) for rec in corpus.training.get(name, ()))
        with tracer.span("pwof.write_module"):
            blobs[name] = pwof.write_module(module, image, dep, training)
        result.op_s[("compile", f"{ci}/{name}")] = time.perf_counter() - t0
        counters["ir.statements"] += sum(len(fn.body) for fn in module.functions)
        counters["depgraph.edges"] += sum(len(t) for t in graph.edges.values())
        counters["depgraph.required_globals"] += len(graph.required_globals)
        counters["pwof.bytes_written"] += len(blobs[name])
        if traced:
            _probe_analysis(module, tracer, counters, unused_strategies)
    return loader.MemoryResolver(blobs)


def _probe_analysis(module, tracer, counters, unused_strategies) -> None:
    """Time the points-to solver's two phases on the module just compiled,
    and the dependency graph under the strategies the workload does not use,
    so that every per-strategy time is a measurement on every workload."""
    with tracer.probe("pta.generate_constraints"):
        constraints = pta.generate_constraints(module)
    with tracer.probe("pta.solve_inclusion"):
        ptmap = pta.solve_inclusion(constraints)
    with tracer.probe("pta.indirect_edges"):
        _, diagnostics = pta.indirect_edges(module, ptmap)
    counters["pta.constraints"] += len(constraints)
    counters["pta.pts_facts"] += sum(len(s) for s in ptmap.pts.values())
    counters["pta.empty_points_to"] += sum(d.startswith("EmptyPointsTo") for d in diagnostics)
    for strategy in unused_strategies:
        with tracer.probe("depgraph.build_depgraph." + strategy):
            depgraph.build_depgraph(module, strategy)


def _probe_kernel(images, tracer, counters) -> str | None:
    """Time the span kernel alone on the images the scan just read.  Where
    numba is present, also time the numpy kernel and require equal spans."""
    for image in images:
        for name, mem in image.memory.items():
            opcodes = np.frombuffer(bytes(mem), dtype=np.uint8)[::ir.INSTRUCTION_WIDTH].copy()
            with tracer.probe("scan_kernel.find_gadget_spans"):
                starts, ends = _scan.find_gadget_spans(opcodes, gadgets.DEFAULT_DEPTH)
            counters["gadgets.spans"] += len(starts)
            if getattr(_scan, "HAS_NUMBA", False):
                with tracer.probe("scan_kernel.find_gadget_spans.numpy"):
                    ref = _scan.find_gadget_spans(opcodes, gadgets.DEFAULT_DEPTH, impl="numpy")
                if sorted(zip(starts.tolist(), ends.tolist())) != \
                        sorted(zip(ref[0].tolist(), ref[1].tolist())):
                    return f"span kernels disagree on {name}"
    return None


def _program(op, program, corpus, resolver, step_limit, tracer, result, digests):
    """Load, replay and scan one program; returns (retained set, problem)."""
    c = result.counters
    t0 = time.perf_counter()
    with tracer.span("stage.load"):
        with tracer.span("loader.preload"):
            image = loader.preload(program, resolver)
        with tracer.span("loader.resolve"):
            bindings = loader.resolve(image)
        pristine = _pristine_copy(image)
        with tracer.span("loader.compute_retained"):
            retained = loader.compute_retained(image, bindings)
        with tracer.span("loader.debloat"):
            report = loader.debloat(image, retained)
    t1 = time.perf_counter()
    with tracer.span("stage.replay"):
        with tracer.span("vm.run_workloads"):
            pre = vm.run_workloads(pristine, debloated=False, step_limit=step_limit)
        with tracer.span("vm.run_workloads"):
            post = vm.run_workloads(image, debloated=True, step_limit=step_limit)
    t2 = time.perf_counter()
    with tracer.span("stage.scan"):
        with tracer.span("gadgets.scan_process"):
            before = gadgets.scan_process(pristine)
        with tracer.span("gadgets.scan_process"):
            after = gadgets.scan_process(image)
        kernel_problem = None
        if isinstance(tracer, Tracer):
            kernel_problem = _probe_kernel((pristine, image), tracer, c)
    t3 = time.perf_counter()
    result.load_ms.append((t1 - t0) * 1000.0)
    result.op_s[("load", op)] = t1 - t0
    result.op_s[("replay", op)] = t2 - t1
    result.op_s[("scan", op)] = t3 - t2

    modules = report.modules.values()
    c["loader.modules"] += len(image.load_order)
    c["loader.bindings"] += len(bindings)
    c["loader.retained_functions"] += sum(len(s) for s in retained.retained.values())
    c["loader.removed_functions"] += report.removed_functions
    c["loader.defined_functions"] += sum(m.total_functions for m in modules)
    c["loader.removed_bytes"] += report.removed_bytes
    c["loader.nx_pages"] += sum(m.nx_pages for m in modules)
    c["loader.cow_pages"] += sum(m.cow_pages for m in modules)
    c["loader.conservative_retention"] += sum(
        d.startswith("ConservativeRetention") for d in retained.diagnostics)
    traces = (*pre.values(), *post.values())
    for trace in traces:
        c["vm.traces"] += 1
        c["vm.completed"] += trace.outcome[0] == vm.COMPLETED
        c["vm.limit_exceeded"] += trace.outcome[0] == vm.LIMIT_EXCEEDED
        c["vm.entered"] += len(trace.entered)
        c["vm.indirect_targets"] += len(trace.indirect_targets)
    c["gadgets.instructions"] += sum(len(mem) for img in (pristine, image)
                                     for mem in img.memory.values()) // ir.INSTRUCTION_WIDTH
    c["gadgets.unique_before"] += before.unique_total
    c["gadgets.unique_after"] += after.unique_total
    c["gadgets.gone"] += len(before.gadgets.keys() - after.gadgets.keys())

    if digests is not None:
        t4 = time.perf_counter()
        digests.add("bindings", sorted([*k, *v] for k, v in bindings.items()))
        digests.add("retained", sorted([*k, why] for k, why in retained.provenance.items()))
        digests.add("debloat_report", report.as_dict())
        digests.add("traces", [[w, t.entered, t.indirect_targets, t.outcome]
                               for run in (pre, post) for w, t in run.items()])
        digests.add("gadget_reports", [before.as_dict(), after.as_dict()])
        digests.seconds += time.perf_counter() - t4

    if pre != post:
        problem = "pristine and debloated traces differ"
    elif any(t.outcome[0] == vm.TRAPPED for t in traces):
        problem = "replay trapped"
    elif not after.gadgets.keys() <= before.gadgets.keys():
        problem = "gadgets appeared after removal"
    elif corpus.oracle is not None and retained.retained != corpus.oracle[program]:
        problem = "retained set differs from the generator's oracle"
    else:
        problem = kernel_problem
    return retained.retained, problem


def run_pass(workload, tracer=None, digests: Digests | None = None) -> PassResult:
    tracer = tracer or NullTracer()
    traced = isinstance(tracer, Tracer)
    result = PassResult()
    first = len(tracer.spans) if traced else 0
    c = result.counters
    t_pass = time.perf_counter()
    with tracer.span("pass"):
        unused = [s for s in STRATEGIES if all(k.strategy != s for k in workload.corpora)]
        # (group, program) -> strategy -> (op, retained sets), for the ordering check
        retained_by = defaultdict(dict)
        handed, tables = [], []
        # corpus by corpus, so that every stage's operations are spread over the pass
        for ci, corpus in enumerate(workload.corpora):
            with tracer.span("stage.compile"):
                tracer.op = f"compile/{ci}"
                resolver = _compile(ci, corpus, tracer, result, unused)
            handed.append(TimedResolver(resolver, tracer) if traced else resolver)
            for program in corpus.programs:
                op = tracer.op = f"{ci}/{program}"
                result.ops += 1
                try:
                    retained, problem = _program(op, program, corpus, handed[ci],
                                                 workload.step_limit, tracer, result, digests)
                except PiecewiseError as exc:
                    result.failures[op] = f"{type(exc).__name__}: {exc}"
                    continue
                if problem:
                    result.failures[op] = problem
                retained_by[(corpus.group, program)][corpus.strategy] = (op, retained)
            t0 = time.perf_counter()
            with tracer.span("stage.study"):
                tracer.op = f"study/{ci}"
                with tracer.span("study.footprint"):
                    tables.append(study.footprint(corpus.programs, handed[ci]))
            result.op_s[("study", str(ci))] = time.perf_counter() - t0
        tracer.op = None

        for by_strategy in retained_by.values():
            if "full_module" not in by_strategy:
                continue
            full = by_strategy["full_module"][1]
            for strategy in ("localized", "pta"):
                op, retained = by_strategy.get(strategy, (None, {}))
                if any(not funcs <= full.get(mod, set()) for mod, funcs in retained.items()):
                    result.failures.setdefault(op, f"{strategy} retains more than full_module")

    result.pipeline_s = time.perf_counter() - t_pass - (digests.seconds if digests else 0.0)
    for ci, table in enumerate(tables):
        c["study.rows"] += len(table.rows)
        c["study.failures"] += len(table.failures)
        for program, error in table.failures.items():
            result.failures.setdefault(f"{ci}/{program}", f"study: {error}")
        if digests is not None:
            table.write_csv(digests.csv_path)
            with open(digests.csv_path, "rb") as fh:
                digests.add("study_csv", fh.read())
    if traced:
        c["pwof.bytes_read"] = sum(r.bytes_read for r in handed)
        result.spans = (first, len(tracer.spans))
    return result
