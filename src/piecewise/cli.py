"""Command-line front end for the whole pipeline.

Seven entry points: ``pwc-analyze`` and ``pwc-link`` on the compiler side,
``pw-train`` to embed training traces, ``pwl-load`` / ``pw-run`` on the
loader side, ``pw-gadgets`` and ``pw-study`` for measurement.  All commands
honour ``PW_PATH`` (path-separator delimited) as a default module search
path and accept ``--json-errors`` for machine-readable failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import depgraph, gadgets, ir, loader, pwof, study, vm
from .errors import InvalidModule, ModuleNotFound, PiecewiseError

STRATEGY_ALIASES = {"full": "full_module"}


def _strategy(value: str) -> str:
    value = STRATEGY_ALIASES.get(value, value)
    if value not in depgraph.STRATEGIES:
        raise argparse.ArgumentTypeError(
            f"unknown strategy {value!r} (choose from full, localized, pta)")
    return value


def _page_size(value: str) -> int:
    size = int(value)
    if size <= 0 or size & (size - 1):
        raise argparse.ArgumentTypeError("page size must be a positive power of two")
    return size


def _step_limit(value: str) -> int:
    limit = int(value)
    if limit < 0:
        raise argparse.ArgumentTypeError("step limit must be a non-negative integer")
    return limit


def _depth(value: str) -> int:
    depth = int(value)
    if depth < 1:
        raise argparse.ArgumentTypeError("depth must be a positive integer")
    return depth


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json-errors", action="store_true",
                        help="emit failures as JSON on stderr")


def _search_paths(args) -> list[str]:
    paths = list(getattr(args, "path", None) or [])
    env = os.environ.get("PW_PATH")
    if env:
        paths.extend(p for p in env.split(os.pathsep) if p)
    return paths or ["."]


def _fail(args, exc: Exception, code: int) -> int:
    if getattr(args, "json_errors", False):
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _dispatch(fn, args) -> int:
    try:
        return fn(args) or 0
    except (FileNotFoundError, ModuleNotFound) as exc:
        return _fail(args, exc, 2)
    except (PiecewiseError, OSError, ValueError, KeyError) as exc:
        return _fail(args, exc, 1)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_exe(args):
    """Resolver + executable name from a `.pwof` path plus search paths."""
    exe_path = args.executable
    if not os.path.exists(exe_path):
        raise FileNotFoundError(f"no such file: {exe_path}")
    name = os.path.basename(exe_path)
    if name.endswith(".pwof"):
        name = name[:-5]
    directory = os.path.dirname(exe_path) or "."
    resolver = loader.FileResolver([directory] + _search_paths(args))
    return resolver, name


# ---------------------------------------------------------------------------
# pwc-analyze


def main_pwc_analyze(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwc-analyze",
        description="Build and print the per-function dependency graph of one IR file.")
    parser.add_argument("ir_file")
    parser.add_argument("--strategy", type=_strategy, default="localized")
    parser.add_argument("--json", action="store_true", help="JSON instead of text")
    parser.add_argument("--dump-constraints", action="store_true",
                        help="also print the points-to constraint set (pta only)")
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_analyze, args)


def _cmd_analyze(args) -> int:
    with open(args.ir_file) as fh:
        module = ir.parse_module(fh.read())
    graph = depgraph.build_depgraph(module, args.strategy)
    if args.dump_constraints:
        from . import pta

        for constraint in pta.generate_constraints(module):
            print(pta.format_constraint(constraint))
    # an edge's kind is its target symbol's: a name the module imports is an
    # import (it shadows a same-named function), any other name is local
    imports = set(module.imports)
    edges = {fn: sorted(("import" if name in imports else "local", name) for name in targets)
             for fn, targets in graph.edges.items()}
    always_retain = sorted(fn.name for fn in module.functions if fn.is_asm)
    if args.json:
        _write_json(None, {
            "module": module.name,
            "strategy": graph.strategy,
            "edges": {fn: [f"{kind}:{name}" for kind, name in targets]
                      for fn, targets in edges.items()},
            "required_globals": sorted(graph.required_globals),
            "always_retain": always_retain,
            "diagnostics": list(graph.diagnostics),
        })
        return 0
    print(f"module {module.name} (strategy {graph.strategy})")
    for fn in module.function_names():
        rendered = ", ".join(f"{name}[{kind}]" for kind, name in edges.get(fn, ())) or "-"
        print(f"  {fn} -> {rendered}")
    print("  required_globals: " + (", ".join(sorted(graph.required_globals)) or "-"))
    if always_retain:
        print("  always_retain: " + ", ".join(always_retain))
    for diag in graph.diagnostics:
        print(f"  note: {diag}")
    return 0


# ---------------------------------------------------------------------------
# pwc-link


def main_pwc_link(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwc-link",
        description="Compile one IR file into a module container with an "
                    "embedded dependency section.")
    parser.add_argument("ir_file")
    parser.add_argument("--strategy", type=_strategy, default="localized")
    parser.add_argument("--no-dep", action="store_true",
                        help="emit a legacy module without a dependency section")
    parser.add_argument("--entry", metavar="NAME",
                        help="mark NAME as the entry function (implies executable)")
    parser.add_argument("-o", "--output", help="defaults to <module>.pwof")
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_link, args)


def _cmd_link(args) -> int:
    with open(args.ir_file) as fh:
        module = ir.parse_module(fh.read())
    if args.entry:
        if args.entry not in module.function_names():
            raise InvalidModule(f"entry function {args.entry!r} is not defined")
        module = replace(
            module,
            is_executable=True,
            functions=tuple(replace(fn, is_entry=fn.name == args.entry)
                            for fn in module.functions))
    image = ir.lower_code(module)
    if args.no_dep:
        dep = None
    else:
        dep = pwof.build_dep_section(module, image, depgraph.build_depgraph(module, args.strategy))
    out = args.output or module.name + ".pwof"
    with open(out, "wb") as fh:
        fh.write(pwof.write_module(module, image, dep))
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# pw-train


def main_pw_train(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pw-train",
        description="Append dlopen/dlsym training records from a trace file "
                    "to an executable module.")
    parser.add_argument("trace_file", help="lines: 'dlopen MODULE' or 'dlsym MODULE SYMBOL'")
    parser.add_argument("executable", help="module file updated in place")
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_train, args)


def _parse_trace(text: str) -> list[pwof.TrainingRecord]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "dlopen" and len(tokens) == 2:
            records.append(pwof.TrainingRecord("dlopen", tokens[1]))
        elif tokens[0] == "dlsym" and len(tokens) == 3:
            records.append(pwof.TrainingRecord("dlsym", tokens[1], tokens[2]))
        else:
            from .errors import MalformedTrace

            raise MalformedTrace(f"line {lineno}: cannot parse {raw.strip()!r}")
    return records


def _cmd_train(args) -> int:
    with open(args.trace_file) as fh:
        new_records = _parse_trace(fh.read())
    with open(args.executable, "rb") as fh:
        mod = pwof.read_module(fh.read())
    mod.training = mod.training + tuple(new_records)
    pwof.validate_training(mod.training)
    with open(args.executable, "wb") as fh:
        fh.write(pwof.serialize(mod))
    print(f"embedded {len(new_records)} training record(s) into {args.executable}")
    return 0


# ---------------------------------------------------------------------------
# pwl-load


def main_pwl_load(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwl-load",
        description="Pre-load a program and its libraries, pre-bind symbols, "
                    "remove unused functions and report the result.")
    parser.add_argument("executable", help="path to the executable .pwof")
    parser.add_argument("--path", action="append", default=[], metavar="DIR",
                        help="library search directory (repeatable; PW_PATH also applies)")
    parser.add_argument("--strategy-check", action="store_true",
                        help="fail unless every dependency section uses the same strategy")
    parser.add_argument("--report", metavar="OUT.JSON")
    parser.add_argument("--page-size", type=_page_size, default=loader.DEFAULT_PAGE_SIZE)
    parser.add_argument("--no-debloat", action="store_true")
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_load, args)


def _cmd_load(args) -> int:
    resolver, name = _load_exe(args)
    image, retained, report = loader.load_and_debloat(
        name, resolver, args.page_size, no_debloat=args.no_debloat)
    if args.strategy_check:
        strategies = {mod.dep.strategy for mod in image.load_order if mod.dep is not None}
        if len(strategies) > 1:
            raise InvalidModule(
                "mixed dependency strategies in one process: " + ", ".join(sorted(strategies)))
    if report is None:
        keep_all = loader.RetainedSet(
            retained={mod.name: {s.name for s in mod.defined_symbols()}
                      for mod in image.load_order},
            provenance={})
        report = loader.debloat(image, keep_all)
    payload = report.as_dict()
    payload["debloat_enabled"] = not args.no_debloat
    payload["load_order"] = [mod.name for mod in image.load_order]
    _write_json(args.report, payload)
    return 0


# ---------------------------------------------------------------------------
# pw-run


def main_pw_run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pw-run",
        description="Load a program and execute its entry plus trained "
                    "dlsym workloads on the reference interpreter.")
    parser.add_argument("executable", help="path to the executable .pwof")
    parser.add_argument("--path", action="append", default=[], metavar="DIR")
    parser.add_argument("--debloated", action="store_true",
                        help="run on the debloated image (removed code traps)")
    parser.add_argument("--trace", metavar="OUT.JSON")
    parser.add_argument("--page-size", type=_page_size, default=loader.DEFAULT_PAGE_SIZE)
    parser.add_argument("--step-limit", type=_step_limit, default=100_000)
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_run, args)


def _trace_dict(trace: vm.Trace) -> dict:
    return {
        "entered": [list(pair) for pair in trace.entered],
        "indirect_targets": [[list(site), list(target)]
                             for site, target in trace.indirect_targets],
        "outcome": list(trace.outcome),
        "completed": trace.completed,
    }


def _cmd_run(args) -> int:
    resolver, name = _load_exe(args)
    image, _, _ = loader.load_and_debloat(
        name, resolver, args.page_size, no_debloat=not args.debloated)
    traces = vm.run_workloads(image, debloated=args.debloated, step_limit=args.step_limit)
    payload = {wl: _trace_dict(trace) for wl, trace in traces.items()}
    _write_json(args.trace, payload)
    failed = [wl for wl, trace in traces.items() if not trace.completed]
    for wl in failed:
        print(f"workload {wl}: {' '.join(str(x) for x in traces[wl].outcome)}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# pw-gadgets


def main_pw_gadgets(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pw-gadgets",
        description="Scan module containers for code-reuse gadgets, or diff "
                    "two previously written reports.")
    parser.add_argument("modules", nargs="*", help="module .pwof files to scan")
    parser.add_argument("--depth", type=_depth, default=gadgets.DEFAULT_DEPTH)
    parser.add_argument("--report", metavar="OUT.JSON")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE.JSON", "AFTER.JSON"))
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_gadgets, args)


def _cmd_gadgets(args) -> int:
    if args.diff:
        before_path, after_path = args.diff
        with open(before_path) as fh:
            before = gadgets.GadgetReport.from_dict(json.load(fh))
        with open(after_path) as fh:
            after = gadgets.GadgetReport.from_dict(json.load(fh))
        _write_json(args.report, gadgets.diff(before, after))
        return 0
    if not args.modules:
        raise InvalidModule("nothing to scan: pass module files or --diff")
    segments = []
    for path in args.modules:
        with open(path, "rb") as fh:
            mod = pwof.read_module(fh.read())
        segments.append(gadgets.Segment(mod.code, [s.value for s in mod.defined_symbols()]))
    _write_json(args.report, gadgets.scan_segments(segments, args.depth).as_dict())
    return 0


# ---------------------------------------------------------------------------
# pw-study


def main_pw_study(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pw-study",
        description="Tabulate per-program library footprints over a corpus "
                    "directory of module containers.")
    parser.add_argument("--corpus", required=True, metavar="DIR")
    parser.add_argument("--out", required=True, metavar="TABLE.CSV")
    _add_common(parser)
    args = parser.parse_args(argv)
    return _dispatch(_cmd_study, args)


def _cmd_study(args) -> int:
    if not os.path.isdir(args.corpus):
        raise FileNotFoundError(f"no such corpus directory: {args.corpus}")
    # finding the executables decodes the table's modules: one read per file;
    # a file that does not decode is skipped, and a program that needs it fails
    shared = study.SharedModules(loader.FileResolver([args.corpus] + _search_paths(args)))
    executables, skipped = [], {}  # skipped: file stem -> its decode error
    for stem in sorted(entry[:-5] for entry in os.listdir(args.corpus) if entry.endswith(".pwof")):
        try:
            if shared.load(stem).is_executable:
                executables.append(stem)
        except PiecewiseError as exc:
            skipped[stem] = exc
    table = study.footprint(executables, shared)
    if len(table.failures) == len(executables):  # no program tabulated: name the first cause
        if skipped:
            raise next(iter(skipped.values()))
        if not executables:
            raise InvalidModule(f"corpus {args.corpus!r} contains no executables")
        program, message = next(iter(table.failures.items()))
        raise InvalidModule(f"no program of corpus {args.corpus!r} could be tabulated: "
                            f"{program}: {message}")
    table.write_csv(args.out)
    mean = table.geometric_mean()
    print(f"{mean['programs']} program(s), {mean['with_library']} with a library: "
          f"geometric mean footprint "
          f"{mean['fn_footprint_pct']:.2f}% of functions, "
          f"{mean['insn_footprint_pct']:.2f}% of instructions"
          + (" (zero entries floored)" if mean["zero_adjusted"] else ""))
    for name, exc in skipped.items():
        print(f"skipped {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    for program, message in table.failures.items():
        print(f"skipped {program}: {message}", file=sys.stderr)
    return 0


def main(argv=None) -> int:  # pragma: no cover - convenience dispatcher
    """Single-binary style dispatch: `python -m piecewise.cli <tool> ...`."""
    tools = {
        "pwc-analyze": main_pwc_analyze,
        "pwc-link": main_pwc_link,
        "pw-train": main_pw_train,
        "pwl-load": main_pwl_load,
        "pw-run": main_pw_run,
        "pw-gadgets": main_pw_gadgets,
        "pw-study": main_pw_study,
    }
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in tools:
        print("usage: one of " + ", ".join(tools), file=sys.stderr)
        return 2
    return tools[argv[0]](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
