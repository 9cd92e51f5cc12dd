import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from conftest import IMPORT_SHADOW_SRC, compile_source
import piecewise
from piecewise import cli, gadgets, loader, pwof, study
from piecewise.errors import BadMagic, TruncatedSection

LIB_SRC = """\
module libfoo
global write_slot = &stdout_write
func stdout_write strong { ret }
func fwrite strong exported {
    w = write_slot
    icall w
    ret
}
func unused strong exported {
    syscall
    ret
}
"""

APP_SRC = """\
module app executable
needed libfoo
import fwrite
func main strong entry {
    call fwrite
    ret
}
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "libfoo.ir").write_text(LIB_SRC)
    (tmp_path / "app.ir").write_text(APP_SRC)
    return tmp_path


def link(workspace, name, *extra):
    out = workspace / f"{name}.pwof"
    rc = cli.main_pwc_link([str(workspace / f"{name}.ir"), "-o", str(out), *extra])
    assert rc == 0
    return out


def test_analyze_text_output(workspace, capsys):
    assert cli.main_pwc_analyze([str(workspace / "libfoo.ir")]) == 0
    out = capsys.readouterr().out
    assert "fwrite -> stdout_write[local]" in out


def test_analyze_full_strategy_reports_required_globals(workspace, capsys):
    rc = cli.main_pwc_analyze([str(workspace / "libfoo.ir"), "--strategy", "full", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "full_module"
    assert payload["required_globals"] == ["stdout_write"]


@pytest.mark.parametrize("strategy", ["full_module", "localized", "pta"])
def test_analyze_tags_imports_and_asm_functions(workspace, capsys, strategy):
    path = workspace / "tags.ir"
    path.write_text(IMPORT_SHADOW_SRC)
    assert cli.main_pwc_analyze([str(path), "--strategy", strategy]) == 0
    out = capsys.readouterr().out
    assert "  g -> f[import], memcpy[import], h[local]\n" in out
    assert "  always_retain: stub\n" in out
    assert cli.main_pwc_analyze([str(path), "--strategy", strategy, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"]["g"] == ["import:f", "import:memcpy", "local:h"]
    assert payload["always_retain"] == ["stub"]


def test_analyze_missing_file_exits_two(workspace, capsys):
    rc = cli.main_pwc_analyze([str(workspace / "nope.ir")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_constraint_dump(workspace, capsys):
    rc = cli.main_pwc_analyze([str(workspace / "libfoo.ir"), "--strategy", "pta",
                               "--dump-constraints"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "address_of write_slot func:stdout_write" in out


def test_analyze_rejects_an_unknown_strategy(workspace, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main_pwc_analyze([str(workspace / "libfoo.ir"), "--strategy", "bogus"])
    assert err.value.code == 2
    assert "unknown strategy 'bogus'" in capsys.readouterr().err


def test_analyze_prints_a_note_per_diagnostic(workspace, capsys):
    path = workspace / "empty.ir"
    path.write_text("module empty\nglobal slot\nfunc f {\n    v = slot\n    icall v\n    ret\n}\n")
    assert cli.main_pwc_analyze([str(path), "--strategy", "pta"]) == 0
    assert "  note: EmptyPointsTo: f[1] icall v\n" in capsys.readouterr().out


def test_link_produces_container(workspace, capsys):
    out = link(workspace, "libfoo")
    data = out.read_bytes()
    assert data[:4] == b"PWOF"
    assert pwof.read_module(data).dep is not None


def test_link_no_dep_emits_legacy_module(workspace):
    out = link(workspace, "libfoo", "--no-dep")
    assert pwof.read_module(out.read_bytes()).dep is None


def test_link_entry_flag_marks_executable(workspace):
    out = link(workspace, "libfoo", "--entry", "fwrite")
    mod = pwof.read_module(out.read_bytes())
    assert mod.is_executable
    assert mod.ir_index.entry_function().name == "fwrite"
    # --entry replaces an entry flag the source already sets
    (workspace / "two.ir").write_text("module two executable\nfunc main strong entry { ret }\n"
                                      "func other strong { ret }\n")
    mod = pwof.read_module(link(workspace, "two", "--entry", "other").read_bytes())
    assert [fn.name for fn in mod.ir_index.functions if fn.is_entry] == ["other"]


def test_link_unknown_entry_fails(workspace, capsys):
    rc = cli.main_pwc_link([str(workspace / "libfoo.ir"), "--entry", "ghost",
                            "-o", str(workspace / "x.pwof")])
    assert rc == 1


def test_train_appends_records(workspace, capsys):
    exe = link(workspace, "app")
    trace = workspace / "trace.txt"
    trace.write_text("dlopen libfoo\ndlsym libfoo fwrite\n")
    assert cli.main_pw_train([str(trace), str(exe)]) == 0
    mod = pwof.read_module(exe.read_bytes())
    assert mod.training == (pwof.TrainingRecord("dlopen", "libfoo"),
                            pwof.TrainingRecord("dlsym", "libfoo", "fwrite"))


def test_train_rejects_dlsym_before_dlopen(workspace, capsys):
    exe = link(workspace, "app")
    trace = workspace / "trace.txt"
    trace.write_text("dlsym plugin init\n")
    assert cli.main_pw_train([str(trace), str(exe)]) == 1


def test_train_empty_trace_is_noop(workspace, capsys):
    exe = link(workspace, "app")
    before = exe.read_bytes()
    (workspace / "empty.txt").write_text("# nothing\n")
    assert cli.main_pw_train([str(workspace / "empty.txt"), str(exe)]) == 0
    assert exe.read_bytes() == before


def test_train_rejects_a_malformed_line(workspace, capsys):
    exe = link(workspace, "app")
    before = exe.read_bytes()
    trace = workspace / "trace.txt"
    trace.write_text("dlopen libfoo\ndlsym libfoo\n")
    assert cli.main_pw_train([str(trace), str(exe)]) == 1
    assert capsys.readouterr().err == "error: line 2: cannot parse 'dlsym libfoo'\n"
    assert exe.read_bytes() == before


def test_load_writes_debloat_report(workspace, capsys):
    link(workspace, "libfoo")
    exe = link(workspace, "app")
    report = workspace / "load.json"
    rc = cli.main_pwl_load([str(exe), "--path", str(workspace),
                            "--report", str(report), "--strategy-check"])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["load_order"] == ["app", "libfoo"]
    assert payload["modules"]["libfoo"]["removed_functions"] == 1
    totals = payload["totals"]
    assert totals["removed_functions"] == 1


def test_load_strategy_check_rejects_mixed(workspace, capsys):
    link(workspace, "libfoo", "--strategy", "pta")
    exe = link(workspace, "app", "--strategy", "localized")
    rc = cli.main_pwl_load([str(exe), "--path", str(workspace), "--strategy-check"])
    assert rc == 1
    assert "mixed" in capsys.readouterr().err


def test_load_no_debloat_reports_zero_removal(workspace, capsys):
    link(workspace, "libfoo")
    exe = link(workspace, "app")
    report = workspace / "load.json"
    rc = cli.main_pwl_load([str(exe), "--path", str(workspace),
                            "--no-debloat", "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["totals"]["removed_functions"] == 0
    assert payload["debloat_enabled"] is False


WIDE_SRC = "module libwide\n" + "".join(f"func f{i} strong exported {{ ret }}\n"
                                       for i in range(80))
WIDE_APP_SRC = "module wapp executable\nneeded libwide\nimport f0\n" \
               "func main strong entry {\n    call f0\n    ret\n}\n"


@pytest.mark.parametrize("page_size, pages", [("4096", (0, 1, 0)), ("256", (1, 1, 0))])
def test_load_page_counts_follow_the_page_size(tmp_path, capsys, page_size, pages):
    # libwide's 80 functions are 320 bytes: one page at 4096 bytes, two at 256,
    # the second of which holds only removed functions
    for name, src in (("libwide", WIDE_SRC), ("wapp", WIDE_APP_SRC)):
        (tmp_path / f"{name}.ir").write_text(src)
        assert cli.main_pwc_link([str(tmp_path / f"{name}.ir"),
                                  "-o", str(tmp_path / f"{name}.pwof")]) == 0
    report = tmp_path / "load.json"
    assert cli.main_pwl_load([str(tmp_path / "wapp.pwof"), "--page-size", page_size,
                              "--report", str(report)]) == 0
    lib = json.loads(report.read_text())["modules"]["libwide"]
    assert (lib["nx_pages"], lib["cow_pages"], lib["untouched_pages"]) == pages
    assert lib["removed_functions"] == 79


def test_load_rejects_a_page_size_that_is_no_power_of_two(workspace, capsys):
    exe = link(workspace, "app")
    with pytest.raises(SystemExit) as err:
        cli.main_pwl_load([str(exe), "--page-size", "3"])
    assert err.value.code == 2
    assert "page size must be a positive power of two" in capsys.readouterr().err


def test_load_finds_libraries_on_pw_path_alone(workspace, monkeypatch, capsys):
    libs = workspace / "libs"
    libs.mkdir()
    assert cli.main_pwc_link([str(workspace / "libfoo.ir"), "-o", str(libs / "libfoo.pwof")]) == 0
    exe = link(workspace, "app")
    monkeypatch.delenv("PW_PATH", raising=False)
    assert cli.main_pwl_load([str(exe)]) == 2
    assert "module 'libfoo' (needed by 'app') not found" in capsys.readouterr().err
    monkeypatch.setenv("PW_PATH", os.pathsep.join(["", str(libs)]))
    assert cli.main_pwl_load([str(exe)]) == 0
    assert json.loads(capsys.readouterr().out)["load_order"] == ["app", "libfoo"]


def test_load_missing_executable_exits_two(workspace, capsys):
    assert cli.main_pwl_load([str(workspace / "nope.pwof")]) == 2
    assert capsys.readouterr().err == f"error: no such file: {workspace / 'nope.pwof'}\n"


def test_run_traces_workloads(workspace, capsys):
    link(workspace, "libfoo")
    exe = link(workspace, "app")
    trace = workspace / "run.json"
    rc = cli.main_pw_run([str(exe), "--path", str(workspace),
                          "--debloated", "--trace", str(trace)])
    assert rc == 0
    payload = json.loads(trace.read_text())
    assert payload["entry:main"]["completed"]
    assert ["libfoo", "fwrite"] in payload["entry:main"]["entered"]


def test_run_rejects_negative_step_limit(workspace, capsys):
    link(workspace, "libfoo")
    exe = link(workspace, "app")
    with pytest.raises(SystemExit) as err:
        cli.main_pw_run([str(exe), "--path", str(workspace), "--step-limit", "-1"])
    assert err.value.code == 2
    assert "step limit" in capsys.readouterr().err


def test_run_reports_a_workload_past_its_step_limit(workspace, capsys):
    (workspace / "loop.ir").write_text(
        "module loop executable\nglobal self = &spin\n"
        "func spin strong {\n    v = self\n    icall v\n    ret\n}\n"
        "func main strong entry {\n    call spin\n    ret\n}\n")
    exe = link(workspace, "loop")
    trace = workspace / "run.json"
    assert cli.main_pw_run([str(exe), "--step-limit", "5", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == "workload entry:main: limit_exceeded\n"
    assert json.loads(trace.read_text())["entry:main"]["outcome"] == ["limit_exceeded"]


def test_gadgets_report_and_diff(workspace, capsys):
    lib = link(workspace, "libfoo")
    before = workspace / "before.json"
    assert cli.main_pw_gadgets([str(lib), "--report", str(before)]) == 0
    payload = json.loads(before.read_text())
    assert payload["unique_total"] > 0
    assert payload["classes"]["syscall"] >= 1
    # diff a report against itself: zero reduction everywhere, no anomalies
    out = workspace / "diff.json"
    assert cli.main_pw_gadgets(["--diff", str(before), str(before),
                                "--report", str(out)]) == 0
    delta = json.loads(out.read_text())
    assert delta["unique_total"] == 0.0
    assert delta["anomalies"] == []


@pytest.mark.parametrize("payload", ["[]", '{"gadgets": []}', '{"gadgets": {"00": 5}}',
                                     '{"gadgets": {"00": [["syscall"]]}}'])
def test_gadgets_diff_rejects_a_report_of_the_wrong_shape(workspace, capsys, payload):
    lib = link(workspace, "libfoo")
    good = workspace / "good.json"
    assert cli.main_pw_gadgets([str(lib), "--report", str(good)]) == 0
    bad = workspace / "bad.json"
    bad.write_text(payload)
    capsys.readouterr()
    assert cli.main_pw_gadgets(["--diff", str(bad), str(good)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_gadgets_rejects_depth_below_one(workspace, capsys):
    lib = link(workspace, "libfoo")
    with pytest.raises(SystemExit) as err:
        cli.main_pw_gadgets([str(lib), "--depth", "0"])
    assert err.value.code == 2
    assert "depth" in capsys.readouterr().err


def test_gadgets_scans_at_the_depth_given(workspace, capsys):
    lib = link(workspace, "libfoo")
    report = workspace / "gadgets.json"
    assert cli.main_pw_gadgets([str(lib), "--depth", "2", "--report", str(report)]) == 0
    mod = pwof.read_module(lib.read_bytes())
    expected = gadgets.scan_segments(
        [gadgets.Segment(mod.code, [s.value for s in mod.defined_symbols()])], 2)
    assert json.loads(report.read_text()) == expected.as_dict()
    assert expected.depth == 2


def test_gadgets_with_nothing_to_scan_fails(capsys):
    assert cli.main_pw_gadgets([]) == 1
    assert capsys.readouterr().err == "error: nothing to scan: pass module files or --diff\n"


def test_study_writes_table(workspace, capsys):
    link(workspace, "libfoo")
    link(workspace, "app")
    out = workspace / "table.csv"
    rc = cli.main_pw_study(["--corpus", str(workspace), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("program,library")
    assert "app,libfoo" in text
    assert "geometric mean" in capsys.readouterr().out


def study_corpus(directory):
    """Three programs over libfoo, one of them loading it through dlopen;
    returns every container's bytes by file name."""
    blobs = {
        "libfoo.pwof": compile_source(LIB_SRC),
        "app.pwof": compile_source(APP_SRC),
        "app2.pwof": compile_source(APP_SRC.replace("module app", "module app2")),
        "plug.pwof": compile_source(
            "module plug executable\nfunc main strong entry { ret }\n",
            training=[pwof.TrainingRecord("dlopen", "libfoo"),
                      pwof.TrainingRecord("dlsym", "libfoo", "fwrite")]),
    }
    for name, data in blobs.items():
        (directory / name).write_bytes(data)
    return blobs


def test_study_reads_each_container_once(tmp_path, monkeypatch, capsys):
    blobs = study_corpus(tmp_path)
    read = []
    real_read = pwof.read_module

    def counting_read(data):
        read.append(bytes(data))
        return real_read(data)

    monkeypatch.setattr(pwof, "read_module", counting_read)
    out = tmp_path / "table.csv"
    assert cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)]) == 0
    assert Counter(read) == Counter(blobs.values())
    monkeypatch.undo()

    expected = study.footprint(["app", "app2", "plug"], loader.FileResolver([tmp_path]))
    expected.write_csv(tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert "plug,libfoo,direct" in out.read_text()


def test_study_corrupt_container_fails_command(tmp_path, capsys):
    blobs = study_corpus(tmp_path)
    truncated = blobs["libfoo.pwof"][:40]
    (tmp_path / "libfoo.pwof").write_bytes(truncated)
    with pytest.raises(TruncatedSection) as exc:
        pwof.read_module(truncated)
    rc = cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_study_skips_a_file_that_does_not_decode(tmp_path, capsys):
    study_corpus(tmp_path)
    (tmp_path / "junk.pwof").write_bytes(b"PWOFjunk")
    with pytest.raises(BadMagic) as exc:
        pwof.read_module(b"PWOFjunk")
    out = tmp_path / "table.csv"
    assert cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"skipped junk: BadMagic: {exc.value}\n"
    expected = study.footprint(["app", "app2", "plug"], loader.FileResolver([tmp_path]))
    expected.write_csv(tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_study_fails_when_no_program_is_tabulated(tmp_path, capsys):
    (tmp_path / "app.pwof").write_bytes(compile_source(APP_SRC.replace("libfoo", "libgone")))
    out = tmp_path / "table.csv"
    rc = cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: no program of corpus {str(tmp_path)!r} could be tabulated: "
                          "app: ModuleNotFound: ")
    assert "libgone" in err
    assert not out.exists()


def test_study_counts_a_program_that_needs_no_library(tmp_path, capsys):
    (tmp_path / "solo.pwof").write_bytes(
        compile_source("module solo executable\nfunc main strong entry { ret }\n"))
    out = tmp_path / "table.csv"
    assert cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("1 program(s), 0 with a library: ")
    # it has no library to measure, so it has no row and no footprint
    lines = out.read_text().splitlines()
    assert lines[0].startswith("program,library") and lines[1:] == ["geometric_mean,,,,,,0.00,0.00"]


def test_study_mean_names_the_programs_it_covers(tmp_path, capsys):
    (tmp_path / "libfoo.pwof").write_bytes(compile_source(LIB_SRC))
    (tmp_path / "app.pwof").write_bytes(compile_source(APP_SRC))
    (tmp_path / "solo.pwof").write_bytes(
        compile_source("module solo executable\nfunc main strong entry { ret }\n"))
    out = tmp_path / "table.csv"
    assert cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)]) == 0
    # solo adds no footprint, so the mean is app's alone
    mean = study.footprint(["app"], loader.FileResolver([tmp_path])).geometric_mean()
    assert capsys.readouterr().out.startswith(
        f"2 program(s), 1 with a library: geometric mean footprint "
        f"{mean['fn_footprint_pct']:.2f}% of functions")
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
        ["app", "geometric_mean"]


def test_study_missing_corpus_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope"
    rc = cli.main_pw_study(["--corpus", str(missing), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: no such corpus directory: {missing}\n"


def test_study_corpus_without_an_executable_fails(tmp_path, capsys):
    (tmp_path / "libfoo.pwof").write_bytes(compile_source(LIB_SRC))
    rc = cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: corpus {str(tmp_path)!r} contains no executables\n"


def test_study_tabulates_what_it_can_and_names_the_program_it_skips(tmp_path, capsys):
    (tmp_path / "libfoo.pwof").write_bytes(compile_source(LIB_SRC))
    (tmp_path / "app.pwof").write_bytes(compile_source(APP_SRC))
    (tmp_path / "lost.pwof").write_bytes(
        compile_source(APP_SRC.replace("module app", "module lost").replace("libfoo", "libgone")))
    out = tmp_path / "table.csv"
    assert cli.main_pw_study(["--corpus", str(tmp_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("1 program(s), 1 with a library: ")
    assert captured.err == \
        "skipped lost: ModuleNotFound: module 'libgone' (needed by 'lost') not found\n"
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
        ["app", "geometric_mean"]


# each tool with one input that does not exist
_MISSING_INPUT = {
    "pwc-analyze": (cli.main_pwc_analyze, ["nope.ir"]),
    "pwc-link": (cli.main_pwc_link, ["nope.ir"]),
    "pw-train": (cli.main_pw_train, ["nope.txt", "nope.pwof"]),
    "pwl-load": (cli.main_pwl_load, ["nope.pwof"]),
    "pw-run": (cli.main_pw_run, ["nope.pwof"]),
    "pw-gadgets": (cli.main_pw_gadgets, ["nope.pwof"]),
    "pw-study": (cli.main_pw_study, ["--corpus", "nope", "--out", "table.csv"]),
}


@pytest.mark.parametrize("tool", list(_MISSING_INPUT))
def test_json_errors_flag(tool, workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    main, argv = _MISSING_INPUT[tool]
    assert main(argv + ["--json-errors"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    payload = json.loads(err)
    assert list(payload) == ["error", "message"]
    assert payload["error"] == "FileNotFoundError" and "nope" in payload["message"]


def test_pipeline_reproducible(workspace, capsys):
    def run_all(tag):
        link(workspace, "libfoo")
        exe = link(workspace, "app")
        report = workspace / f"load-{tag}.json"
        trace = workspace / f"run-{tag}.json"
        gad = workspace / f"gad-{tag}.json"
        assert cli.main_pwl_load([str(exe), "--path", str(workspace),
                                  "--report", str(report)]) == 0
        assert cli.main_pw_run([str(exe), "--path", str(workspace),
                                "--trace", str(trace)]) == 0
        assert cli.main_pw_gadgets([str(workspace / "libfoo.pwof"),
                                    "--report", str(gad)]) == 0
        return (report.read_bytes(), trace.read_bytes(), gad.read_bytes(),
                (workspace / "libfoo.pwof").read_bytes())

    assert run_all("one") == run_all("two")


def test_dispatcher_routes_subcommands(workspace, capsys):
    assert cli.main(["pwc-analyze", str(workspace / "libfoo.ir")]) == 0
    assert cli.main(["no-such-tool"]) == 2


SRC = os.path.dirname(os.path.dirname(os.path.abspath(piecewise.__file__)))


def _fresh(cwd, *args):
    """Run a fresh interpreter on ``args`` with ``src`` on its path."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})


def _imported_packages(proc) -> set[str]:
    """Top-level packages a ``-X importtime`` run imported."""
    return {line.rsplit("|", 1)[-1].strip().split(".")[0]
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_cold_start_loads_numpy_only_for_gadget_scans(workspace):
    lib, exe = link(workspace, "libfoo"), link(workspace, "app")
    proc = _fresh(workspace, "-c", "import json, pkgutil, sys, piecewise\n"
                                   "for m in pkgutil.iter_modules(piecewise.__path__):\n"
                                   "    __import__('piecewise.' + m.name)\n"
                                   "print(json.dumps(sorted(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert {"piecewise.cli", "piecewise._scan", "piecewise.gadgets"} <= modules
    assert "numpy" not in modules

    cli_tool = ("-X", "importtime", "-m", "piecewise.cli")
    for tool in (("pwl-load", str(exe)), ("pw-run", str(exe), "--debloated")):
        proc = _fresh(workspace, *cli_tool, *tool, "--path", str(workspace))
        assert proc.returncode == 0, proc.stderr
        packages = _imported_packages(proc)
        assert "piecewise" in packages and "numpy" not in packages, tool

    report = workspace / "gadgets.json"
    proc = _fresh(workspace, *cli_tool, "pw-gadgets", str(lib), str(exe), "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in _imported_packages(proc)
    mods = [pwof.read_module(path.read_bytes()) for path in (lib, exe)]
    expected = gadgets.scan_segments(
        [gadgets.Segment(m.code, [s.value for s in m.defined_symbols()]) for m in mods])
    assert json.loads(report.read_text()) == expected.as_dict()
