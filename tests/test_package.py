"""The package loads each submodule on first use, and each command
loads only the modules it runs: none of them loads dataclasses or
otstereo.reference, `disparity` and `diagnose` load neither
otstereo.scene nor numpy.ma, `reconstruct` does not load
otstereo.scene, and none of `generate`, `disparity` and `reconstruct`
loads argparse, gettext, locale or json; README counts the lines
`disparity` and `reconstruct` load. No collection runs while the
command line's imports load; the process entry freezes the import-time
heap before the collector comes back on and ends the process without
the interpreter's teardown, with the exit code, stdout, stderr and
output files a plain exit gives, and it exits normally under a
profiler; main() and `import otstereo.cli` leave the collector as they
found it, and the process alone."""
import ast
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import otstereo
import otstereo.cli

SOLVER = {
    "otstereo.disparity",
    "otstereo.scaling",
}

LOADED = 'sorted(m for m in sys.modules if m.startswith("otstereo."))'

# the submodules each command loads, besides the package itself
DISPARITY_LOADS = ("cli", "fileio", "errors", "maps", "records", "disparity", "scaling")
RECONSTRUCT_LOADS = ("cli", "fileio", "errors", "geometry", "maps", "records")

SCENE = """\
width = 40
height = 3
object = x0:5 width:8 shift:4 intensity:0.5
object = x0:20 width:6 shift:3 intensity:0.8
"""

# README's scene: the first object hides the head of the second, so
# every row takes the occlusion path and runs its one-to-one check
README_SCENE = """\
width = 120
height = 3
object = x0:20 width:26 shift:9 intensity:0.5
object = x0:47 width:40 shift:4 intensity:0.6
"""


def spawn(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter on argv with this package importable.

    Its standard streams are buffered, as they are by default, so an
    exit that skips their flush loses what they hold.
    """
    src = str(Path(otstereo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, text=True, env=env,
    )


def fresh(code: str, *args) -> object:
    """Run code in a new interpreter and parse the JSON it prints."""
    proc = spawn("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    code = f"import json, sys\nimport otstereo\nprint(json.dumps({LOADED}))"
    assert fresh(code) == []


def test_generate_and_reconstruct_leave_the_solver_unloaded(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    out = tmp_path / "out"
    code = f"""\
import gc, json, sys
import otstereo.cli
scene, out = sys.argv[1:]
collector = [gc.get_freeze_count(), gc.isenabled()]
codes = [
    otstereo.cli.main(["generate", scene, "--out-dir", out]),
    otstereo.cli.main(["reconstruct", out + "/truth_disparity.csv",
                       out + "/right.pgm", "--out", out + "/cloud.ply"]),
]
collector += [gc.get_freeze_count(), gc.isenabled()]
print(json.dumps({{"codes": codes, "loaded": sorted(sys.modules),
                  "collector": collector}}))
"""
    result = fresh(code, scene, out)
    assert result["codes"] == [0, 0]
    assert result["collector"] == [0, True, 0, True]
    assert "otstereo.scene" in result["loaded"]
    assert SOLVER.isdisjoint(result["loaded"])
    assert "otstereo.reference" not in result["loaded"]
    assert "dataclasses" not in result["loaded"]
    assert "element vertex 42" in (out / "cloud.ply").read_text()


def test_disparity_and_diagnose_load_neither_scene_nor_numpy_ma(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(README_SCENE)
    pair = tmp_path / "pair"
    assert otstereo.cli.main(["generate", str(scene), "--out-dir", str(pair)]) == 0
    out = tmp_path / "out"
    code = f"""\
import gc, json, sys
import otstereo.cli
left, right, out = sys.argv[1:]
collector = [gc.get_freeze_count(), gc.isenabled()]
codes = [
    otstereo.cli.main(["disparity", left, right, "--out-dir", out]),
    otstereo.cli.main(["diagnose", left, right, "--y", "1", "--niter", "50",
                       "--out-dir", out]),
]
collector += [gc.get_freeze_count(), gc.isenabled()]
print(json.dumps({{"codes": codes, "loaded": sorted(sys.modules),
                  "collector": collector}}))
"""
    result = fresh(code, pair / "left.pgm", pair / "right.pgm", out)
    assert result["codes"] == [0, 0]
    assert result["collector"] == [0, True, 0, True]
    diagnostics = json.loads((out / "diagnostics.json").read_text())["scanlines"]
    assert [row["path"] for row in diagnostics] == ["occlusion"] * 3
    assert {name for name in result["loaded"] if name.startswith("otstereo.")} == {
        f"otstereo.{name}" for name in DISPARITY_LOADS
    }
    assert "numpy.ma" not in result["loaded"]
    assert "dataclasses" not in result["loaded"]


# what no command loads: argparse, with the gettext and locale its
# messages load, is built only for help, usage errors and the argument
# forms the plain reader leaves to it, and fileio spells JSON itself
NEVER_LOADED = {"argparse", "gettext", "locale", "json"}


def loaded_by(*argv) -> dict:
    """The exit code and sys.modules of a fresh interpreter's main(argv)."""
    code = """\
import sys
import otstereo.cli
code = otstereo.cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps({"code": code, "loaded": loaded}))
"""
    return fresh(code, *argv)


def test_reconstruct_loads_neither_scene_nor_json(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    pair = tmp_path / "pair"
    assert otstereo.cli.main(["generate", str(scene), "--out-dir", str(pair)]) == 0
    cloud = tmp_path / "cloud.ply"
    result = loaded_by("reconstruct", pair / "truth_disparity.csv", pair / "right.pgm",
                       "--out", cloud)
    assert result["code"] == 0
    assert {name for name in result["loaded"] if name.startswith("otstereo.")} == {
        f"otstereo.{name}" for name in RECONSTRUCT_LOADS
    }
    assert NEVER_LOADED.isdisjoint(result["loaded"])
    assert "element vertex 42" in cloud.read_text()


def test_generate_and_disparity_load_neither_argparse_nor_json(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(README_SCENE)
    pair, run = tmp_path / "pair", tmp_path / "run"
    for argv in (["generate", scene, "--out-dir", pair],
                 ["disparity", pair / "left.pgm", pair / "right.pgm", "--niter", "10000",
                  "--out-dir", run]):
        result = loaded_by(*argv)
        assert result["code"] == 0
        assert NEVER_LOADED.isdisjoint(result["loaded"]), argv[0]
    assert (pair / "occlusions.json").is_file()
    assert (run / "diagnostics.json").is_file()


def test_the_readme_counts_the_lines_each_command_loads():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    for command, names in (("disparity", DISPARITY_LOADS), ("reconstruct", RECONSTRUCT_LOADS)):
        paths = [root / "src" / "otstereo" / f"{name}.py" for name in ("__init__", *names)]
        lines = sum(path.read_bytes().count(b"\n") for path in paths)
        match = re.search(rf"`{command}`\s+loads\s+(\d[\d ]*?)\s+lines\s+in\s+(\d+)", readme)
        assert match, command
        assert (int(match[1].replace(" ", "")), int(match[2])) == (lines, len(paths)), command


@pytest.mark.parametrize("command", ["generate", "reconstruct"])
def test_the_process_entry_freezes_the_import_time_heap(tmp_path, command):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    pair, cloud = tmp_path / "pair", tmp_path / "cloud.ply"
    argv = ["generate", scene, "--out-dir", pair]
    if command == "reconstruct":
        assert otstereo.cli.main(list(map(str, argv))) == 0
        argv = ["reconstruct", pair / "truth_disparity.csv", pair / "right.pgm",
                "--out", cloud]
    # runs as `python -m otstereo.cli` does, then reports at exit
    code = """\
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))
sys.argv = ["otstereo", *sys.argv[1:]]
runpy.run_module("otstereo.cli", run_name="__main__")
"""
    assert fresh(code, *argv) > 0
    assert (pair / "left.pgm").exists()
    assert cloud.exists() == (command == "reconstruct")


def collections_after_the_command_line_starts(tmp_path, entry: str):
    """Run `generate` through entry, the code that starts the command
    line; the freeze count at the start of each collection from the
    first statement of otstereo.cli on, and whether the collector was
    on at exit."""
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    code = f"""\
import atexit, gc, json, runpy, sys
started, frozen = [], []
sys.addaudithook(lambda event, args: event == "exec" and getattr(
    args[0], "co_filename", "").endswith("cli.py") and started.append(True))
gc.callbacks.append(lambda phase, info: phase == "start" and started
                    and frozen.append(gc.get_freeze_count()))
atexit.register(lambda: print(json.dumps([frozen, gc.isenabled()])))
sys.argv = ["otstereo", *sys.argv[1:]]
{entry}
"""
    frozen, collecting = fresh(code, "generate", scene, "--out-dir", tmp_path / "pair")
    assert len(files(tmp_path / "pair")) == 4
    return frozen, collecting


def test_no_collection_runs_before_the_process_entry_freezes_the_heap(tmp_path):
    """From the first statement of otstereo.cli on, every collection
    comes after run()'s gc.freeze(); one while runpy compiles the
    module would come before that statement."""
    # runs as `python -m otstereo.cli` does
    frozen, collecting = collections_after_the_command_line_starts(
        tmp_path, 'runpy.run_module("otstereo.cli", run_name="__main__")'
    )
    assert all(count > 0 for count in frozen), frozen
    # run() turned the collector back on
    assert collecting


def test_no_collection_runs_before_the_console_script_entry_freezes_the_heap(tmp_path):
    """The `otstereo` console script imports otstereo.cli, whose end
    turns the collector back on, then calls run(): no collection walks
    the import-time heap in between, young as it was."""
    frozen, collecting = collections_after_the_command_line_starts(
        tmp_path, "from otstereo.cli import run\nrun()"
    )
    assert all(count > 0 for count in frozen), frozen
    assert collecting


@pytest.mark.parametrize(
    "collecting, freezing",
    [(True, False), (False, False), (True, True)],
    ids=["True", "False", "True-frozen"],
)
def test_importing_the_command_line_leaves_the_collector_as_found(collecting, freezing):
    code = f"""\
import gc, json
if not {collecting}:
    gc.disable()
if {freezing}:
    gc.freeze()
found = gc.get_freeze_count()
import otstereo.cli
print(json.dumps([gc.isenabled(), found, gc.get_freeze_count()]))
"""
    enabled, found, frozen = fresh(code)
    assert enabled == collecting
    assert (found > 0) == freezing
    assert frozen == found


def test_the_pipeline_modules_never_import_the_reference_module():
    code = f"""\
import json, sys
import otstereo.cli, otstereo.disparity, otstereo.scaling
print(json.dumps({LOADED}))"""
    assert "otstereo.reference" not in fresh(code)
    package = Path(otstereo.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # the package is flat, so a relative import names otstereo
                module = ".".join(filter(None, ["otstereo" if node.level else "", node.module]))
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if "otstereo.reference" in names:
                importers.append(path.name)
    assert importers == []


def test_the_process_entry_keeps_help_and_usage_errors(monkeypatch, capsys):
    # argparse wraps help at the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        otstereo.cli.main(["--help"])
    assert exc.value.code == 0
    proc = spawn("-m", "otstereo.cli", "--help")
    help_text = capsys.readouterr().out
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, help_text, "")

    with pytest.raises(SystemExit) as exc:
        otstereo.cli.main(["disparity"])
    proc = spawn("-m", "otstereo.cli", "disparity")
    stderr = capsys.readouterr().err + f"{exc.value.code}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", stderr)
    assert "the following arguments are required: left, right" in stderr


# the single-row scenes of tests/test_occlusion.py whose row fails
FAILING_SCENES = {
    "landing_past_start": """\
width = 80
height = 1
object = x0:8 width:4 shift:9 intensity:0.3
object = x0:12 width:15 shift:3 intensity:0.75
""",
    "mirror_landing_inside": """\
width = 80
height = 1
object = x0:5 width:18 shift:3 intensity:0.3
object = x0:17 width:4 shift:9 intensity:0.45
""",
}


def command_lines(pair, out):
    """Every command, writing under out and reading the pair in pair."""
    left, right = str(pair / "left.pgm"), str(pair / "right.pgm")
    return [
        ["disparity", left, right, "--out-dir", str(out / "run")],
        ["reconstruct", str(out / "run" / "disparity.csv"), right,
         "--out", str(out / "cloud.ply")],
        ["diagnose", left, right, "--y", "1", "--niter", "50",
         "--out-dir", str(out / "diag")],
    ]


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_the_process_entry_writes_every_output(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(README_SCENE)
    direct, entry = tmp_path / "direct", tmp_path / "entry"
    for out in (direct, entry):
        pair = out / "pair"
        argvs = [["generate", str(scene), "--out-dir", str(pair)],
                 *command_lines(pair, out)]
        for argv in argvs:
            if out is direct:
                assert otstereo.cli.main(argv) == 0
            else:
                proc = spawn("-m", "otstereo.cli", *argv)
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    written = files(direct)
    assert len(written) == 12
    assert files(entry) == written


@pytest.mark.parametrize("name", sorted(FAILING_SCENES))
def test_the_process_entry_exits_2_on_a_failing_row(tmp_path, name):
    scene = tmp_path / "scene.txt"
    scene.write_text(FAILING_SCENES[name])
    pair, out = tmp_path / "pair", tmp_path / "out"
    assert otstereo.cli.main(["generate", str(scene), "--out-dir", str(pair)]) == 0
    proc = spawn("-m", "otstereo.cli", "disparity", pair / "left.pgm",
                 pair / "right.pgm", "--out-dir", out)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "otstereo: numerical failure on scanlines [0]\n"
    # the failed row is still written, as no data
    assert (out / "disparity.csv").read_text() == ",".join(["NaN"] * 80) + "\n"
    assert len(files(out)) == 4


@pytest.mark.parametrize("command", ["disparity", "reconstruct"])
def test_the_process_entry_exits_1_on_a_missing_input(tmp_path, capsys, command):
    missing = str(tmp_path / "no_such_file")
    argv = [command, missing, missing, "--out-dir" if command == "disparity" else "--out",
            str(tmp_path / "out")]
    assert otstereo.cli.main(argv) == 1
    stderr = capsys.readouterr().err
    assert stderr == f"otstereo: [Errno 2] No such file or directory: {missing!r}\n"
    proc = spawn("-m", "otstereo.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", stderr)


@pytest.mark.parametrize("command", ["generate", "disparity", "reconstruct", "diagnose"])
def test_help_arrives_whole_through_a_pipe(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        otstereo.cli.main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith(f"usage: otstereo {command} ")
    proc = spawn("-m", "otstereo.cli", command, "--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, help_text, "")


def test_the_process_entry_exits_normally_under_a_profiler(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    pair = tmp_path / "pair"
    proc = spawn("-m", "cProfile", "-s", "cumulative", "-m", "otstereo.cli",
                 "generate", scene, "--out-dir", pair)
    assert (proc.returncode, proc.stderr) == (0, "")
    # cProfile prints its report once the command has returned to it
    assert "function calls" in proc.stdout
    assert "Ordered by: cumulative time" in proc.stdout
    assert "(cmd_generate)" in proc.stdout
    assert len(files(pair)) == 4


def test_the_process_entry_exits_normally_under_a_monitoring_tool(tmp_path):
    """From Python 3.12, cProfile and coverage hook in through
    sys.monitoring alone; before it, a stand-in plays the tool."""
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    pair = tmp_path / "pair"
    code = """\
import sys, types
import otstereo.cli
if hasattr(sys, "monitoring"):
    sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, "probe")
else:
    sys.monitoring = types.SimpleNamespace(get_tool=lambda tool: "probe" if tool == 2 else None)
sys.argv = ["otstereo", "generate", *sys.argv[1:]]
try:
    otstereo.cli.run()
except SystemExit as exc:
    print("sys.exit", exc.code)
"""
    proc = spawn("-c", code, scene, "--out-dir", pair)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("sys.exit 0\n")
    assert len(files(pair)) == 4


def test_the_console_script_runs_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, entry = scripts["otstereo"].partition(":")
    assert module == "otstereo.cli"
    source = ast.parse(Path(otstereo.cli.__file__).read_text())
    (block,) = [
        node for node in source.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in block.body] == [f"{entry}()"]


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(otstereo)
    for name in otstereo.__all__:
        value = getattr(otstereo, name)
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("otstereo."), name
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        otstereo.no_such_name


def test_every_traced_name_resolves_to_a_callable():
    """The benchmark's tracer replaces these attributes; each must exist."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
print(json.dumps({
    "targets": len(spans.TARGETS),
    "missing": [[module.__name__, attr] for module, attr, _ in spans.TARGETS
                if not callable(getattr(module, attr, None))],
}))
"""
    result = fresh(code, perfbench)
    assert result["targets"] > 0
    assert result["missing"] == []


@pytest.mark.parametrize(
    "before, after",
    [
        ("import otstereo.scaling, otstereo.disparity", ""),
        ("", "import otstereo.scaling, otstereo.disparity"),
    ],
)
def test_readme_import_gives_the_function_sinkhorn(before, after):
    code = f"""\
import json
import pickle
{before}
from otstereo import SinkhornConfig, build_kernel, disparity_map, sinkhorn
{after}
import otstereo
print(json.dumps([
    type(sinkhorn).__name__,
    type(otstereo.sinkhorn).__name__,
    sinkhorn is otstereo.scaling.sinkhorn,
    disparity_map is otstereo.disparity.disparity_map,
]))
"""
    assert fresh(code) == ["function", "function", True, True]


def test_there_is_no_sinkhorn_submodule():
    assert callable(otstereo.sinkhorn)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("otstereo.sinkhorn")


def test_records_are_immutable_and_round_trip():
    from otstereo.disparity import OcclusionReport
    from otstereo.scaling import SinkhornConfig
    from otstereo.geometry import CameraRig
    from otstereo.scene import CartoonScene, SceneObject

    box = SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)
    records = [
        CameraRig(focal=500.0), box, CartoonScene(10, 4, [box]),
        SinkhornConfig(0.1, warm_start=True),
    ]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and repr(copy) == repr(record)
        assert record != record._astuple()
    assert records[0] == CameraRig(10.0, 500.0) and records[0] != CameraRig()
    assert hash(records[3]) == hash(SinkhornConfig(0.1, 1000, 0.0, True))
    assert repr(box) == (
        "SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)"
    )
    # the records that check nothing are NamedTuples
    report = OcclusionReport(y=-1, phi=1.0, intervals=(), object_shifts=(),
                             compression_plateau=None)
    assert report._replace(y=4) == (4, 1.0, (), (), None, None, ())
