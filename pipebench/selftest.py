#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at a tiny size.

Usage, from the repository root::

    python3 pipebench/selftest.py

Checks that the ``wide_link`` oracle equals the loader's retained sets,
that the checks can fail, that every metric ``BENCHMARK.json`` names is
printed with its unit, and that the benchmark refuses to run without the
package sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run.import_package()

import pipeline  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "mix": lambda seed: workloads.mix(seed, systems=4),
    "wide_link": lambda seed: workloads.wide_link(seed, libs=3, funcs=40, programs=5),
}


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def test_oracles() -> None:
    for seed in range(3):
        workload = TINY["wide_link"](seed)
        result = pipeline.run_pass(workload)
        check(result.ops == workload.programs and not result.failures,
              f"wide_link seed {seed}: retained sets equal the oracle, all checks hold "
              f"{result.failures or ''}")
        removed = result.counters["loader.removed_functions"]
        check(0 < removed < result.counters["loader.defined_functions"],
              f"wide_link seed {seed}: the oracle keeps some functions and removes others")


def test_checks_bite() -> None:
    workload = TINY["wide_link"](0)
    corpus = workload.corpora[0]
    program = corpus.programs[0]
    funcs = next(f for f in corpus.oracle[program].values() if len(f) > 1)
    funcs.discard(min(funcs))
    failures = pipeline.run_pass(workload).failures
    check(any("oracle" in why for why in failures.values()),
          "a retained set that differs from the oracle fails its operation")


def test_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in TINY:
            result, info = run.run(TINY[name](1), 0, bool(trace), 0.5, f"selftest-{name}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: prints every {key} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} --trace {trace}: no operation failed")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name} --trace {trace}: every value is a number")
            check(set(info["digests"]) == set(pipeline.Digests.KINDS),
                  f"{name} --trace {trace}: reports a digest of every output kind")


def test_refuses_without_sources() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "pipebench/run.py", "--workload", "mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/piecewise the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    test_oracles()
    test_checks_bite()
    test_metric_names()
    test_refuses_without_sources()
    print("selftest passed")
