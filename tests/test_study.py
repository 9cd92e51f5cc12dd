import csv
from collections import Counter

import pytest

from conftest import System, compile_source
from piecewise import loader, pwof, study


def library(nfuncs=20, name="lib"):
    lines = [f"module {name}"]
    for i in range(nfuncs):
        lines.append(f"func f{i} strong exported {{ ret }}")
    return "\n".join(lines) + "\n"


def one_user_system():
    return System(sources={
        "prog": "module prog executable\nneeded lib\nimport f0\n"
                "func main strong entry {\n    call f0\n    ret\n}\n",
        "lib": library(20),
    })


def test_single_function_of_twenty_is_five_percent():
    table = study.footprint(["prog"], one_user_system().resolver())
    [row] = table.rows
    assert row.library == "lib"
    assert row.functions_used == 1
    assert row.total_functions == 20
    assert row.fn_footprint_pct == pytest.approx(5.0)
    assert row.insn_footprint_pct == pytest.approx(5.0)  # uniform 1-insn bodies
    assert row.linkage == "direct"


def test_transitive_library_labeled():
    system = System(sources={
        "prog": "module prog executable\nneeded mid\nimport go\n"
                "func main strong entry {\n    call go\n    ret\n}\n",
        "mid": "module mid\nneeded deep\nimport f0\n"
               "func go strong exported {\n    call f0\n    ret\n}\n",
        "deep": library(4, name="deep"),
    })
    table = study.footprint(["prog"], system.resolver())
    linkage = {row.library: row.linkage for row in table.rows}
    assert linkage == {"mid": "direct", "deep": "transitive"}


def test_pinned_functions_reported_separately():
    system = System(sources={
        "prog": "module prog executable\nneeded lib\nimport f0\n"
                "func main strong entry {\n    call f0\n    ret\n}\n",
        "lib": ("module lib\nglobal cb = &f9\n"
                + "\n".join(f"func f{i} strong exported {{ ret }}" for i in range(10))
                + "\n"),
    })
    table = study.footprint(["prog"], system.resolver("full_module"))
    [row] = table.rows
    assert row.functions_used == 1          # f0, reached from the program
    assert row.pinned_functions == 1        # f9, module-wide required set
    assert row.fn_footprint_pct == pytest.approx(10.0)


def test_geometric_mean_of_two_programs():
    assert study._geomean([4.0, 25.0]) == (pytest.approx(10.0), False)


def test_geometric_mean_zero_floored_and_flagged():
    # zero replaced by smallest positive, and flagged
    assert study._geomean([0.0, 25.0]) == (pytest.approx(25.0), True)


def test_geometric_mean_all_zero():
    assert study._geomean([0.0, 0.0]) == (0.0, False)
    assert study._geomean([]) == (0.0, False)


def test_geometric_mean_reports_the_floor_it_applied():
    # the flag comes with the mean it describes, from the rows alone
    table = study.StudyTable(rows=[study.StudyRow("a", "lib", "direct", 0, 0, 0, 10, 10),
                                   study.StudyRow("b", "lib", "direct", 5, 5, 0, 10, 10)],
                             programs=["a", "b"])
    mean = table.geometric_mean()
    assert mean["zero_adjusted"] and mean["fn_footprint_pct"] == pytest.approx(50.0)
    assert table.geometric_mean() == mean
    table.rows[0] = table.rows[1]
    assert not table.geometric_mean()["zero_adjusted"]


def test_failures_recorded_not_raised():
    table = study.footprint(["prog", "missing"], one_user_system().resolver())
    assert len(table.rows) == 1
    assert "missing" in table.failures
    assert "ModuleNotFound" in table.failures["missing"]


def test_csv_output(tmp_path):
    table = study.footprint(["prog"], one_user_system().resolver())
    out = tmp_path / "table.csv"
    table.write_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["program", "library", "linkage"]
    assert rows[1][0] == "prog"
    assert rows[-1][0] == "geometric_mean"
    assert rows[1][6] == "5.00"


def test_aggregate_combines_libraries_per_program():
    system = System(sources={
        "prog": "module prog executable\nneeded liba libb\nimport fa f0\n"
                "func main strong entry {\n    call fa\n    call f0\n    ret\n}\n",
        "liba": "module liba\nfunc fa strong exported { ret }\n"
                "func fx strong exported { ret }\n",
        "libb": library(18, "libb"),
    })
    table = study.footprint(["prog"], system.resolver())
    mean = table.geometric_mean()
    # 2 of 20 library functions in total -> 10%
    assert mean["fn_footprint_pct"] == pytest.approx(10.0)
    assert mean["programs"] == mean["with_library"] == 1


def shared_corpus():
    """Six programs over shared libraries: ``plugin`` is reached only through
    a dlopen training record, ``libgone`` is missing and ``libbad`` is a
    truncated container."""
    def prog(needed, imports, calls):
        body = "".join(f"    call {c}\n" for c in calls)
        return (f"module prog executable\nneeded {needed}\nimport {imports}\n"
                f"func main strong entry {{\n{body}    ret\n}}\n")

    sources = {
        "libc": library(12, name="libc"),
        "libm": "module libm\nneeded libc\nimport f0\n"
                + "".join(f"func g{i} strong exported {{\n    call f0\n    ret\n}}\n"
                          for i in range(4)),
        "plugin": "module plugin\nneeded libc\nimport f3\n"
                  "func p0 strong exported {\n    call f3\n    ret\n}\n"
                  "func p1 strong exported { ret }\n",
        "libgone_user": prog("libc libgone", "f1", ["f1"]),
        "libbad": library(6, name="libbad"),
        "alpha": prog("libc libm", "f1 g0", ["f1", "g0"]),
        "beta": prog("libm", "g1", ["g1"]),
        "gamma": prog("libc", "f2", ["f2"]),
        "libbad_user": prog("libc libbad", "f0", ["f0"]),
        "delta": prog("libc libm", "g2 f5", ["g2", "f5"]),
    }
    training = {"beta": [pwof.TrainingRecord("dlopen", "plugin"),
                         pwof.TrainingRecord("dlsym", "plugin", "p0")]}
    blobs = {name: compile_source(src, training=training.get(name, ()))
             for name, src in sources.items()}
    blobs["libbad"] = blobs["libbad"][:len(blobs["libbad"]) // 2]
    programs = ["alpha", "beta", "gamma", "libgone_user", "libbad_user", "delta"]
    return blobs, programs


class CountingResolver(loader.MemoryResolver):
    def __init__(self, modules):
        super().__init__(modules)
        self.loads = Counter()

    def load(self, name):
        self.loads[name] += 1
        return super().load(name)


def csv_bytes(table, path):
    table.write_csv(path)
    return path.read_bytes()


def test_shared_table_equals_one_call_per_program(tmp_path):
    blobs, programs = shared_corpus()
    table = study.footprint(programs, loader.MemoryResolver(blobs))
    alone = study.StudyTable()
    for program in programs:
        single = study.footprint([program], loader.MemoryResolver(blobs))
        alone.rows += single.rows
        alone.failures.update(single.failures)
    assert table.rows == alone.rows
    assert table.failures == alone.failures
    assert csv_bytes(table, tmp_path / "shared.csv") == csv_bytes(alone, tmp_path / "alone.csv")
    libraries = {(row.program, row.library, row.linkage) for row in table.rows}
    assert ("beta", "plugin", "direct") in libraries  # reached through dlopen only
    assert ("beta", "libc", "transitive") in libraries


def test_shared_table_decodes_each_module_once():
    blobs, programs = shared_corpus()
    resolver = CountingResolver(blobs)
    study.footprint(programs, resolver)
    # a failed load is not kept: libgone is asked for by its one user and
    # libbad is decoded (and rejected) for its one user
    assert resolver.loads == {name: 1 for name in
                              ["alpha", "beta", "gamma", "delta", "libc", "libm", "plugin",
                               "libgone_user", "libgone", "libbad_user", "libbad"]}


def test_broken_library_fails_only_its_users():
    blobs, programs = shared_corpus()
    programs = programs + ["libbad_user", "libgone_user", "gamma"]  # again, after the rest
    resolver = CountingResolver(blobs)
    table = study.footprint(programs, resolver)
    assert set(table.failures) == {"libgone_user", "libbad_user"}
    assert table.failures["libgone_user"] == study.footprint(
        ["libgone_user"], loader.MemoryResolver(blobs)).failures["libgone_user"]
    assert table.failures["libgone_user"].startswith("ModuleNotFound: ")
    assert "libgone" in table.failures["libgone_user"]
    assert table.failures["libbad_user"] == study.footprint(
        ["libbad_user"], loader.MemoryResolver(blobs)).failures["libbad_user"]
    assert table.failures["libbad_user"].startswith("TruncatedSection: ")
    # every retry of a broken module goes back to the resolver
    assert resolver.loads["libgone"] == 2 and resolver.loads["libbad"] == 2
    assert resolver.loads["libc"] == 1
    # programs listed after the broken ones still get their rows
    listed = [row.program for row in table.rows]
    assert list(dict.fromkeys(listed)) == ["alpha", "beta", "gamma", "delta"]
    assert listed[-1] == "gamma" and listed.count("gamma") == 2


def test_shared_modules_bind_and_retain_as_a_fresh_load():
    blobs, programs = shared_corpus()
    # two programs over the same two libraries, in opposite load orders:
    # each binds f to the first strong export it loads, and w to the strong one
    main = "import f w\nfunc main strong entry {\n    call f\n    call w\n    ret\n}\n"
    blobs.update({name: compile_source(src) for name, src in {
        "lx": "module lx\nfunc f strong exported { ret }\nfunc w weak exported { ret }\n",
        "ly": "module ly\nfunc f strong exported {\n    syscall\n    ret\n}\n"
              "func w strong exported { ret }\n",
        "xy": "module xy executable\nneeded lx ly\n" + main,
        "yx": "module yx executable\nneeded ly lx\n" + main,
    }.items()})
    programs += ["xy", "yx"]
    shared = study.SharedModules(loader.MemoryResolver(blobs))
    table = study.footprint(programs, shared)
    assert table.programs == [p for p in programs if p not in table.failures]
    for program in table.programs:
        # the decoded modules the table read, with their export tables built
        image = loader.preload(program, shared)
        fresh = loader.preload(program, loader.MemoryResolver(blobs))
        decoded = list(shared.decoded.values())
        assert all(any(mod is m for m in decoded) for mod in image.load_order)
        bindings = loader.resolve(image)
        assert bindings == loader.resolve(fresh), program
        retained = loader.compute_retained(image, bindings)
        expected = loader.compute_retained(fresh)
        assert (retained.retained, retained.provenance) == \
            (expected.retained, expected.provenance), program
    assert loader.resolve(loader.preload("xy", shared))[("xy", "f")] == ("lx", "f")
    assert loader.resolve(loader.preload("yx", shared))[("yx", "f")] == ("ly", "f")
    assert {loader.resolve(loader.preload(p, shared))[(p, "w")] for p in ("xy", "yx")} == \
        {("ly", "w")}
