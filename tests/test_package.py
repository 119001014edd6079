"""The package loads each submodule on first use, and each command
loads only the modules it runs; none of them loads dataclasses or
otstereo.reference. The process entry freezes the import-time heap;
main() leaves the collector alone."""
import ast
import importlib
import json
import os
import pickle
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
    """Run the interpreter on argv with this package importable."""
    src = str(Path(otstereo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
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
        f"otstereo.{name}"
        for name in ("cli", "fileio", "errors", "maps", "records", "disparity", "scaling")
    }
    assert "numpy.ma" not in result["loaded"]
    assert "dataclasses" not in result["loaded"]


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
    from otstereo.scene import CameraRig, CartoonScene, SceneObject

    box = SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)
    records = [
        CameraRig(focal=500.0), box, CartoonScene(10, 4, [box]),
        SinkhornConfig(0.1, warm_start=True),
    ]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and repr(copy) == repr(record)
    assert records[0] == CameraRig(10.0, 500.0) and records[0] != CameraRig()
    assert hash(records[3]) == hash(SinkhornConfig(0.1, 1000, 0.0, True))
    assert repr(box) == (
        "SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)"
    )
    # the records that check nothing are NamedTuples
    report = OcclusionReport(y=-1, phi=1.0, intervals=(), object_shifts=(),
                             compression_plateau=None)
    assert report._replace(y=4) == (4, 1.0, (), (), None, None, ())
