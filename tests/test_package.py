"""The package loads each submodule on first use, and each command
loads only the modules it runs; none of them loads dataclasses."""
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
    "otstereo.exact",
    "otstereo.kernel",
    "otstereo.measures",
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


def fresh(code: str, *args) -> object:
    """Run code in a new interpreter and parse the JSON it prints."""
    src = str(Path(otstereo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env,
    )
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
import json, sys
import otstereo.cli
scene, out = sys.argv[1:]
codes = [
    otstereo.cli.main(["generate", scene, "--out-dir", out]),
    otstereo.cli.main(["reconstruct", out + "/truth_disparity.csv",
                       out + "/right.pgm", "--out", out + "/cloud.ply"]),
]
print(json.dumps({{"codes": codes, "loaded": sorted(sys.modules)}}))
"""
    result = fresh(code, scene, out)
    assert result["codes"] == [0, 0]
    assert "otstereo.scene" in result["loaded"]
    assert SOLVER.isdisjoint(result["loaded"])
    assert "dataclasses" not in result["loaded"]
    assert "element vertex 42" in (out / "cloud.ply").read_text()


def test_disparity_and_diagnose_load_neither_scene_nor_numpy_ma(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(README_SCENE)
    pair = tmp_path / "pair"
    assert otstereo.cli.main(["generate", str(scene), "--out-dir", str(pair)]) == 0
    out = tmp_path / "out"
    code = f"""\
import json, sys
import otstereo.cli
left, right, out = sys.argv[1:]
codes = [
    otstereo.cli.main(["disparity", left, right, "--out-dir", out]),
    otstereo.cli.main(["diagnose", left, right, "--y", "1", "--niter", "50",
                       "--out-dir", out]),
]
print(json.dumps({{"codes": codes, "loaded": sorted(sys.modules)}}))
"""
    result = fresh(code, pair / "left.pgm", pair / "right.pgm", out)
    assert result["codes"] == [0, 0]
    diagnostics = json.loads((out / "diagnostics.json").read_text())["scanlines"]
    assert [row["path"] for row in diagnostics] == ["occlusion"] * 3
    assert SOLVER <= set(result["loaded"])
    assert "otstereo.scene" not in result["loaded"]
    assert "numpy.ma" not in result["loaded"]
    assert "dataclasses" not in result["loaded"]


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
    from otstereo.cli import RunConfig
    from otstereo.disparity import OcclusionReport
    from otstereo.scaling import SinkhornConfig
    from otstereo.scene import CameraRig, CartoonScene, PointCloud, SceneObject

    box = SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)
    records = [
        CameraRig(focal=500.0), box, CartoonScene(10, 4, [box]), PointCloud(),
        SinkhornConfig(0.1, warm_start=True), RunConfig(niter=10),
    ]
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and repr(copy) == repr(record)
    assert records[0] == CameraRig(10.0, 500.0) and records[0] != CameraRig()
    assert hash(records[4]) == hash(SinkhornConfig(0.1, 1000, 0.0, True))
    assert repr(box) == (
        "SceneObject(x0=2, width=3, depth=100.0, intensity=0.5, y0=1, height=2)"
    )
    # the records that check nothing are NamedTuples
    report = OcclusionReport(y=-1, phi=1.0, intervals=(), object_shifts=(),
                             compression_plateau=None)
    assert report._replace(y=4) == (4, 1.0, (), (), None, None, ())
